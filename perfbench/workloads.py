"""The benchmark's workloads: CLI commands derived from one seed.

Each workload is a closed loop with one client: a **pass** issues its
``repro`` commands one after another through :func:`repro.cli.main`, in the
benchmark's own process, with ``--workers 1``.  Every input comes from the
workload seed ``s``:

* the root ``--seed`` of every ``repro run`` is ``s``;
* the ``--seed`` of every ``repro verdict`` is ``s``;
* the ``mc-seeds`` seed axis is ``10 s, 10 s + 1, ..., 10 s + 9`` (the
  first three for ``dynamic_topology``).

Seed 0 is therefore the CLI's own default.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Any

from memstore import MemoryResults
from outputs import StepOutcome

#: Why each workload is in the benchmark (one line each; BENCHMARK.json
#: carries the same text).
WHY = {
    "repro-paper": (
        "Paper reproduction as users run it: run+report all 15 experiments "
        "and 4 verdicts; conditions and graphs dominate. Closed loop, 1 client, "
        "--workers 1."
    ),
    "mc-seeds": (
        "625 small Monte-Carlo cells over a 10-seed axis, each run resumed and "
        "reported: sweep store and dense/async engines. Closed loop, 1 client, "
        "--workers 1."
    ),
    "large-n": (
        "large_n at n=10^5, float64 and float32: CSR sparse tier plus graph and "
        "engine builds, one shard of store work. Closed loop, 1 client, "
        "--workers 1."
    ),
}

#: End-to-end metrics: name -> unit.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "decided_frac": "ratio"}

#: ``(experiment, seeds on its axis)`` of the ``mc-seeds`` workload.
MC_EXPERIMENTS = (
    ("adversary_showdown", 10),
    ("asynchronous", 10),
    ("churn_sweep", 10),
    ("dynamic_topology", 3),
)

#: ``(family, arguments)`` of the four ``repro verdict`` calls.
VERDICTS = (
    ("chord", ("--n", "20", "--f", "1")),
    ("erdos-renyi", ("--n", "30", "--p", "0.4", "--f", "1")),
    ("hypercube", ("--n", "5", "--f", "1")),
    ("chord", ("--n", "28", "--f", "1")),
)

#: Grid of the ``large-n`` workload.
LARGE_N_GRID = ("n=100000", "dtype=float64,float32", "batch=8", "rounds=30")


@dataclass(frozen=True)
class Step:
    """One CLI command of a pass; ``cells`` is the number it plans."""

    kind: str
    argv: tuple[str, ...]
    run_id: str | None = None
    cells: int = 0


def build_steps(workload: str, seed: int, results: str) -> list[Step]:
    """Return the commands of one pass of ``workload`` at ``seed``."""
    from repro.sweeps.orchestrator import plan_sweep
    from repro.sweeps.registry import all_experiments

    common = ("--workers", "1", "--seed", str(seed), "--results-dir", results)

    def run(name: str, run_id: str, grid: tuple[str, ...] = ()) -> Step:
        overrides = tuple(arg for item in grid for arg in ("--grid", item))
        cells = len(plan_sweep(name, list(grid), seed=seed).cells)
        argv = ("run", name, *overrides, *common, "--run-id", run_id)
        return Step("run", argv, run_id, cells)

    def report(run_id: str) -> Step:
        return Step("report", ("report", run_id, "--results-dir", results), run_id)

    steps: list[Step] = []
    if workload == "repro-paper":
        for name in all_experiments():
            steps += [run(name, f"paper-{name}"), report(f"paper-{name}")]
        for family, arguments in VERDICTS:
            argv = ("verdict", family, *arguments, "--seed", str(seed))
            steps.append(Step("verdict", argv))
    elif workload == "mc-seeds":
        for name, count in MC_EXPERIMENTS:
            grid = ("seed=" + ",".join(str(10 * seed + i) for i in range(count)),)
            first = run(name, f"mc-{name}", grid)
            steps += [first, Step("rerun", first.argv, first.run_id), report(first.run_id)]
    elif workload == "large-n":
        steps.append(run("large_n", "large-n", LARGE_N_GRID))
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WHY)}")
    return steps


def run_pass(
    cli: ModuleType, steps: list[Step], tree: MemoryResults
) -> tuple[float, list[StepOutcome]]:
    """Run ``steps`` once; return the pass wall seconds and every outcome.

    The aggregate each ``run`` leaves is kept as the stored text (a lookup,
    not a read) and parsed only after the pass, outside the timed region.
    ``cli.main`` is looked up on every call so trace wrappers apply.
    """
    tree.clear()
    raw: list[Any] = []
    outcomes: list[StepOutcome] = []
    start = time.perf_counter()
    for step in steps:
        buffer = io.StringIO()
        error = None
        code: int | None = None
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(list(step.argv))
        except Exception as exc:  # a failed operation, counted by the checks
            error = f"{type(exc).__name__}: {exc}"
        aggregate = None
        if step.run_id is not None and step.kind != "report":
            aggregate = tree.files.get(
                os.path.join(tree.root, step.run_id, "aggregate.json")
            )
        raw.append(aggregate)
        outcomes.append(
            StepOutcome(step.kind, step.argv, step.run_id, step.cells, code, buffer.getvalue(), error)
        )
    wall = time.perf_counter() - start
    for outcome, text in zip(outcomes, raw):
        if text is not None:
            outcome.aggregate = json.loads(text)
    return wall, outcomes
