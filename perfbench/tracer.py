"""In-memory span recorder for the benchmark's traced runs.

A span has a name, a start, an end, a parent (the span that was open when
it began) and, when asked for, the process CPU time it used.  Spans and
counters stay in memory; :func:`write_trace` stores them once, when the run
ends.  A layer's **self time** is the duration of its spans minus the part
of each span that its direct children cover; the benchmark is one thread,
so children nest inside their parent and never overlap each other.
"""

from __future__ import annotations

import functools
import json
import re
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

#: Characters a metric name may use.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_metric_name(name: str) -> str:
    """Return ``name`` unchanged, or raise ``ValueError`` if it is malformed."""
    if len(name) > 64 or not METRIC_NAME.fullmatch(name) or not name[0].isalnum():
        raise ValueError(f"bad metric name {name!r}: use [A-Za-z0-9_.-], at most 64")
    return name


class Tracer:
    """Records nested spans and named counters for one traced run.

    Spans are stored column-wise: ``names``, ``starts``, ``ends``,
    ``parents`` (index of the enclosing span, ``-1`` at top level) and
    ``cpu`` (process CPU seconds, only for spans that asked for it).  Flat
    arrays keep hundreds of thousands of spans out of the garbage
    collector's way, so recording does not slow the passes it measures.
    """

    def __init__(self) -> None:
        """Start with no spans, no open span and no counts."""
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.cpu: dict[int, float] = {}
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._open: Counter[str] = Counter()

    # -- recording -------------------------------------------------------
    def begin(self, name: str, cpu: bool = False) -> int:
        """Open a span and return its index."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        if cpu:
            self.cpu[index] = time.process_time()
        self._stack.append(index)
        self._open[name] += 1
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        """Close span ``index`` (the innermost open one)."""
        self.ends[index] = time.perf_counter()
        if index in self.cpu:
            self.cpu[index] = time.process_time() - self.cpu[index]
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")
        self._open[self.names[index]] -= 1

    def record(self, name: str, start: float, end: float, parent: int) -> int:
        """Add a finished span directly, as a test builds a known tree."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counters[name] += amount

    def open_count(self, name: str) -> int:
        """How many spans named ``name`` are open right now."""
        return self._open[name]

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Callable[[int, tuple, dict, Any], None] | None = None,
        cpu: bool = False,
        skip_inside: Iterable[str] = (),
    ) -> Callable[..., Any]:
        """Return ``fn`` recorded as span ``name`` on every call.

        ``after(index, args, kwargs, result)`` runs when ``fn`` returns,
        before the span closes, so its bookkeeping counts against this layer.
        Calls made while a span named in ``skip_inside`` is open pass
        straight through, so their time stays with that enclosing span.
        """
        skip = tuple(skip_inside)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if any(self._open[outer] for outer in skip):
                return fn(*args, **kwargs)
            index = self.begin(name, cpu=cpu)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(index, args, kwargs, result)
            finally:
                self.end(index)
            return result

        return traced

    # -- analysis --------------------------------------------------------
    def self_times(self, spans: Iterable[int]) -> dict[str, float]:
        """Self seconds per span name, summed over ``spans``."""
        chosen = list(spans)
        child_time: dict[int, float] = defaultdict(float)
        for index in chosen:
            parent = self.parents[index]
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        totals: dict[str, float] = defaultdict(float)
        for index in chosen:
            duration = self.ends[index] - self.starts[index]
            totals[self.names[index]] += duration - child_time[index]
        return dict(totals)

    def descendants(self, root: int) -> list[int]:
        """Indices of every span nested under ``root`` (not ``root`` itself)."""
        inside: set[int] = {root}
        found: list[int] = []
        for index in range(root + 1, len(self.names)):
            if self.parents[index] in inside:
                inside.add(index)
                found.append(index)
        return found


def write_trace(tracer: Tracer, counters: list[dict[str, float]], path: Path) -> None:
    """Write every span of ``tracer`` and each pass's counters to ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "names": tracer.names,
        "starts": tracer.starts.tolist(),
        "ends": tracer.ends.tolist(),
        "parents": tracer.parents.tolist(),
        "cpu": {str(index): seconds for index, seconds in tracer.cpu.items()},
        "counters": counters,
    }
    path.write_text(json.dumps(payload) + "\n")
