"""The compiled Theorem-1 search: bindings and self-check of ``search_kernel.c``.

Theorem 1 turns feasibility into a search over fault sets ``F`` and
disjoint insulated sets ``L`` and ``R``, and two exponential loops decide
it, one fault set at a time:

* the exhaustive sweep over every candidate ``L`` of
  :func:`~repro.conditions.bitset.find_violating_partition_bitset`, whose
  NumPy form is :func:`repro.conditions.bitset._search_fault_set`;
* the DPLL search of the ``exact`` backend
  (:func:`~repro.conditions.exact.exact_violation_search`), whose Python
  form is :class:`repro.conditions.exact._UniverseSolver`.

``search_kernel.c`` runs both in C (``sweep_fault_set`` and
``solve_universe``), as the same search in faster arithmetic: the same
candidates in the same order, the same pivots, labels and decision count.
:data:`LIBRARY` builds, caches, loads and checks it through the shared
loader of :mod:`repro.native` on the first :func:`kernel` call, never at
import.  The self-check compares both entry points with their interpreted
forms on fixed cases; if any step fails, :func:`kernel` returns ``None``,
the fault-set loops call the NumPy sweep and the Python solver, and
:func:`status` says why.  Those two forms stay as the fallback and as the
test oracles, and what the machine can build is the only thing that
selects the path.

Python ints are clamped before they cross into C, where a ``c_int64``
would wrap silently, to bounds beyond which every result is the same:
the decision budget to :data:`MAX_BUDGET`, the sweep threshold to
``[0, MAX_THRESHOLD]`` and the solver's threshold ``tau`` to at most
``m + 1`` for a universe of ``m`` nodes.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.native import NativeLibrary, NativeUnavailableError

#: The C source, shipped as package data next to this module.
SOURCE = Path(__file__).with_name("search_kernel.c")

#: Largest decision budget that crosses into C.  A larger one would take
#: centuries to exhaust, so it decides the same searches.
MAX_BUDGET = 2**62

#: Largest sweep threshold that crosses into C.  An in-neighbour count of a
#: 64-bit word lies in ``[0, 64]``: every threshold ``<= 0`` rules every
#: node out and every threshold ``>= 65`` none.
MAX_THRESHOLD = 65

#: Largest node count of one sweep: one ``uint64`` word per node.
MAX_SWEEP_NODES = 64

_Words = ctypes.POINTER(ctypes.c_uint64)
_Indices = ctypes.POINTER(ctypes.c_int64)


class BudgetExceeded(Exception):
    """The DPLL decision budget ran out (raised by both solvers)."""


class SearchKernel:
    """The loaded library's two entry points.

    Each call builds its small ctypes arrays from Python ints; the per-call
    cost is a few microseconds, against a search that is exponential in
    the node count.
    """

    def __init__(self, library: ctypes.CDLL) -> None:
        self._sweep: Any = library.sweep_fault_set
        self._sweep.argtypes = [_Words, ctypes.c_int64, ctypes.c_int64, _Words]
        self._sweep.restype = ctypes.c_int
        self._solve: Any = library.solve_universe
        self._solve.argtypes = [
            ctypes.c_int64,
            _Indices,
            _Indices,
            ctypes.c_int64,
            ctypes.c_int64,
            _Indices,
            ctypes.POINTER(ctypes.c_int8),
        ]
        self._solve.restype = ctypes.c_int

    def sweep(self, in_masks: Sequence[int], threshold: int) -> tuple[int, int] | None:
        """``_search_fault_set(in_masks, len(in_masks), threshold)`` in C.

        ``in_masks[i]`` is surviving node ``i``'s in-neighbour word over the
        ``len(in_masks) <= 64`` surviving nodes.  Returns the first
        ``(left_mask, right_mask)`` or ``None``.
        """
        count = len(in_masks)
        if count > MAX_SWEEP_NODES:
            raise ValueError(
                f"the compiled sweep takes at most {MAX_SWEEP_NODES} nodes, got {count}"
            )
        words = (ctypes.c_uint64 * max(count, 1))(*in_masks)
        found = (ctypes.c_uint64 * 2)()
        clamped = min(max(threshold, 0), MAX_THRESHOLD)
        if self._sweep(words, count, clamped, found):
            return int(found[0]), int(found[1])
        return None

    def solve(
        self,
        out_nbrs: Sequence[Sequence[int]],
        tau: int,
        budget: dict[str, int],
    ) -> tuple[int, ...] | None:
        """``_UniverseSolver(..., out_nbrs, tau, budget).solve()`` in C.

        ``out_nbrs[x]`` lists node ``x``'s out-neighbours inside the
        universe, in the order propagation visits them.  ``budget`` holds
        the ``"decisions"`` made so far and their ``"limit"``; the decisions
        of this search are added to it.  Returns the label vector
        (1 = L, 2 = R, 3 = C) of the first violation, or ``None``; raises
        :class:`BudgetExceeded` when the budget runs out.
        """
        m = len(out_nbrs)
        tau = min(tau, m + 1)
        if m < 2 or tau <= 0:
            return None
        starts = [0] * (m + 1)
        flat: list[int] = []
        for node, successors in enumerate(out_nbrs):
            flat.extend(successors)
            starts[node + 1] = len(flat)
        # C indexes its counters by these: one out of range would write
        # past them.
        if flat and not (0 <= min(flat) and max(flat) < m):
            raise ValueError(f"out-neighbours must lie in 0 … {m - 1}")
        decisions = ctypes.c_int64(budget["decisions"])
        labels = (ctypes.c_int8 * m)()
        result = self._solve(
            m,
            (ctypes.c_int64 * (m + 1))(*starts),
            (ctypes.c_int64 * max(len(flat), 1))(*flat),
            tau,
            min(budget["limit"], MAX_BUDGET),
            ctypes.byref(decisions),
            labels,
        )
        budget["decisions"] = decisions.value
        if result == -2:
            raise MemoryError("the compiled solver could not allocate its buffers")
        if result == -1:
            raise BudgetExceeded
        return tuple(labels) if result == 1 else None


def kernel() -> SearchKernel | None:
    """Return the compiled search, building it on first use.

    ``None`` means this machine cannot build, load or trust it, and the
    NumPy sweep and the Python solver run instead.
    """
    return LIBRARY.load()


def status() -> str:
    """Say which Theorem-1 search runs on this machine and why."""
    return LIBRARY.status()


def _self_check(compiled: SearchKernel) -> None:
    """Refuse a library that differs from the interpreted forms on fixed cases.

    The sweep runs counts 0–12 at four edge densities, with empty and full
    in-masks, at thresholds from −1 to 70; the solver runs random
    universes of 2–9 nodes at thresholds 0–3 and budgets 1, 6 and 10**6.
    Both must return what the interpreted forms return, the solver with
    the same decision count and the same budget exhaustion.
    """
    # Both modules call kernel(), so their interpreted forms are imported
    # here, at first use, when every module has loaded.
    from repro.conditions.bitset import _search_fault_set
    from repro.conditions.exact import _UniverseSolver

    # reprolint: disable=RNG004 -- the self-check cases are fixed, not a run's stream
    rng = np.random.default_rng(20120716)
    for count in range(13):
        for density in (0.0, 0.3, 0.7, 1.0):
            bits = rng.random((count, count)) < density
            words = [0] * count
            for i, j in zip(*np.nonzero(bits)):
                words[int(i)] |= 1 << int(j)
            threshold = int(rng.choice([-1, 0, 1, 2, 3, count + 1, 70]))
            expected = _search_fault_set(
                np.array(words, dtype=np.uint64), count, threshold
            )
            if compiled.sweep(words, threshold) != expected:
                raise NativeUnavailableError(
                    f"self-check failed (sweep, count={count}, "
                    f"threshold={threshold})"
                )
    for case in range(40):
        m = int(rng.integers(2, 10))
        edges = rng.random((m, m)) < rng.uniform(0.2, 0.8)
        out_nbrs = [
            tuple(int(y) for y in range(m) if y != x and edges[x, y])
            for x in range(m)
        ]
        in_nbrs = [
            tuple(x for x in range(m) if y in out_nbrs[x]) for y in range(m)
        ]
        tau = int(rng.integers(0, 4))
        limit = (1, 6, 10**6)[case % 3]
        outcomes = []
        for solver in ("python", "compiled"):
            budget = {"decisions": 0, "limit": limit}
            try:
                if solver == "python":
                    labels = _UniverseSolver(in_nbrs, out_nbrs, tau, budget).solve()
                else:
                    labels = compiled.solve(out_nbrs, tau, budget)
            except BudgetExceeded:
                labels = None
                budget["exceeded"] = 1
            outcomes.append((labels, budget))
        if outcomes[0] != outcomes[1]:
            raise NativeUnavailableError(
                f"self-check failed (solve, m={m}, tau={tau}, limit={limit})"
            )


#: The search library: one cache file and one status of its own.
LIBRARY: NativeLibrary[SearchKernel] = NativeLibrary(
    SOURCE,
    SearchKernel,
    _self_check,
    "compiled search",
    "NumPy sweep and Python solver",
)
