"""End-to-end benchmark of the ``repro`` CLI, with an optional layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload repro-paper --seed 0 --seconds 35 --trace 0

``--workload`` is one of ``repro-paper``, ``mc-seeds`` and ``large-n`` (see
:mod:`workloads`); ``--seed`` (default 0) derives every input; ``--seconds``
bounds how long passes are repeated.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics ``wall_s``
(median pass), ``setup_s`` (median of five fresh-interpreter imports),
``peak_rss_mb`` and ``decided_frac``; with ``--trace 1`` it carries the
per-layer metrics of :mod:`layers` instead, medians over traced passes that
follow untraced ones, and the spans go to
``.perfbench/trace-<workload>-seed<seed>.json``.  Every pass is
checked (:mod:`outputs`); ``attempted`` and ``failed`` count operations.

``--write-golden`` runs one pass and stores its deterministic outputs as the
golden for ``--seed`` in ``perfbench/goldens``.

The program is imported from ``src/`` beside this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP, fixed before anything imports NumPy.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

# The benchmark's own modules import neither NumPy nor the program.
from layers import PER_LAYER_METRICS, LayerTrace, per_pass_metrics  # noqa: E402
from memstore import MemoryResults  # noqa: E402
from outputs import check_pass  # noqa: E402
from tracer import Tracer, check_metric_name, write_trace  # noqa: E402
from workloads import END_TO_END, WHY, build_steps, run_pass  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".perfbench"
GOLDENS = HERE / "goldens"

#: Fresh interpreters that repeat the set-up after the in-process one.
SETUP_PROBES = 4


class SetupError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


def setup() -> dict[str, float]:
    """Import the program and load its experiment registry; time both.

    This is the set-up every ``repro`` command pays: the package imports,
    including ``repro.experiments``, whose import builds the E12 battery.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import repro

    registry_start = time.perf_counter()
    import repro.experiments

    registry_end = time.perf_counter()
    import repro.cli
    from repro.sweeps.registry import all_experiments

    all_experiments()
    end = time.perf_counter()
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC}")
    return {"setup_s": end - start, "experiments.import_s": registry_end - registry_start}


def probe_setup() -> dict[str, float]:
    """Time :func:`setup` in a fresh interpreter and return its timings."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=CHECKOUT,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load_golden(seed: int, workload: str) -> dict[str, Any] | None:
    """The golden record of ``workload`` at ``seed``, if one was recorded."""
    path = GOLDENS / f"seed-{seed}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload)


def write_golden(seed: int, workload: str, record: dict[str, Any]) -> Path:
    """Store ``record`` as the golden of ``workload`` at ``seed``."""
    path = GOLDENS / f"seed-{seed}.json"
    goldens = json.loads(path.read_text()) if path.is_file() else {}
    goldens[workload] = record
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return path


class Bench:
    """One benchmark run: the steps of a workload, repeated and checked."""

    def __init__(self, workload: str, seed: int) -> None:
        """Plan the workload's commands (the program is already imported)."""
        import repro.cli

        self.cli = repro.cli
        self.tree = MemoryResults(WORK / "results")
        self.steps = build_steps(workload, seed, self.tree.root)
        self.expected = load_golden(seed, workload)
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.verdicts = 0
        self.problems: list[str] = []

    def one_pass(self) -> tuple[float, dict[str, Any]]:
        """Run and check one pass; return its wall time and record."""
        with self.tree:
            wall, outcomes = run_pass(self.cli, self.steps, self.tree)
        check = check_pass(outcomes, self.expected)
        if self.expected is None:
            self.expected = check.record
        self.attempted += check.attempted
        self.failed += check.failed
        self.decided += check.decided
        self.verdicts += check.verdicts
        self.problems += check.problems
        if self.tree.leaked():
            self.problems.append(f"results were written to disk under {self.tree.root}")
        return wall, check.record

    def passes(self, until: float, record: list[float]) -> None:
        """Repeat passes while the next one is expected to end before ``until``."""
        while True:
            wall, _ = self.one_pass()
            record.append(wall)
            if time.perf_counter() + statistics.median(record) > until:
                return

    @property
    def correct(self) -> bool:
        """Whether every operation so far passed its checks."""
        return self.failed == 0 and not self.problems


def traced_passes(
    bench: Bench, until: float
) -> tuple[list[float], list[dict[str, float]], Any, list[dict[str, float]]]:
    """Repeat traced passes until ``until``.

    Returns each pass's wall time and per-layer metrics, the tracer holding
    every span, and each pass's counters.
    """
    tracer = Tracer()
    layers = LayerTrace(tracer)
    layers.install()
    walls: list[float] = []
    metrics: list[dict[str, float]] = []
    counters: list[dict[str, float]] = []
    try:
        while True:
            tracer.counters.clear()
            root = tracer.begin("pass")
            try:
                wall, _ = bench.one_pass()
            finally:
                tracer.end(root)
            walls.append(wall)
            counters.append(dict(tracer.counters))
            metrics.append(per_pass_metrics(tracer, root, counters[-1], wall))
            if time.perf_counter() + statistics.median(walls) > until:
                break
    finally:
        layers.uninstall()
    return walls, metrics, tracer, counters


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the benchmark and print its result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WHY))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        timings = [setup()]
    except (SetupError, ImportError) as error:
        print(f"perfbench: cannot set up the program: {error}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(timings[0]))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    timings +=[probe_setup() for _ in range(SETUP_PROBES)]

    bench = Bench(args.workload, args.seed)
    if args.write_golden:
        bench.expected = None
        _, record = bench.one_pass()
        if not bench.correct:
            print("\n".join(bench.problems), file=sys.stderr)
            return 1
        print(f"wrote {write_golden(args.seed, args.workload, record)}")
        return 0

    start = time.perf_counter()
    walls: list[float] = []
    if args.trace:
        bench.passes(start + args.seconds / 2, walls)
        traced_walls, per_pass, tracer, counters = traced_passes(bench, start + args.seconds)
        values = {
            name: statistics.median(metrics[name] for metrics in per_pass)
            for name, _, _ in PER_LAYER_METRICS
        }
        values["experiments.import_s"] = statistics.median(
            t["experiments.import_s"] for t in timings
        )
        values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1
        units = {check_metric_name(name): unit for name, unit, _ in PER_LAYER_METRICS}
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(tracer, counters, trace_path)
        print(f"traced passes: {len(traced_walls)}, untraced: {len(walls)}; spans -> {trace_path}")
        print(f"self times cover {values['trace.self_sum_frac']:.4f} of the traced pass wall")
    else:
        bench.passes(start + args.seconds, walls)
        q1, median, q3 = quartiles(walls)
        setups = [t["setup_s"] for t in timings]
        values = {
            "wall_s": median,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            # A workload that asks for no verdict leaves none undecided.
            "decided_frac": bench.decided / bench.verdicts if bench.verdicts else 1.0,
        }
        units = dict(END_TO_END)
        print(f"wall_s: {len(walls)} passes, median {median:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s")
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)} s")
        print(f"decided verdicts: {bench.decided} of {bench.verdicts}")
    failed_frac = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"failed_frac: {failed_frac:.4f} ratio ({bench.attempted} attempted, {bench.failed} failed)")
    for problem in bench.problems[:20]:
        print(f"problem: {problem}")
    result = {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
