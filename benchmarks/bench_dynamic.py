"""Dynamic-topology benchmark: per-round masking overhead and adaptive cost.

Times batched executions of Algorithm 1 on the
:func:`~repro.graphs.random_graphs.heterogeneous_ring_lattice` family under
the schedule kinds of :mod:`repro.simulation.dynamic`:

* ``static`` — the baseline (no masking work at all);
* ``random-edges`` — seeded i.i.d. per-round edge up/down masks;
* ``random-churn`` — seeded i.i.d. per-round sleep/wake masks;
* ``composed`` — both at once (the worst case for the masking path);

each on the :class:`~repro.simulation.vectorized.VectorizedEngine`, plus
one adversary axis timing the batch-native 1-lookahead
:class:`~repro.adversary.vectorized.BatchAdaptiveStrategy` against the
closed-form extreme-push strategy under the composed schedule.

The table is **equivalence-guarded** before timing: scalar-vs-vectorized
lockstep under the composed schedule on a small instance, so it can never
report overheads for an engine that drifted from the reference.  The
headline number is the ``masking_overhead_composed_at_largest_n`` ratio
(masked seconds / static seconds, same inputs).  Results land
in ``BENCH_dynamic.json`` (unified schema v2 via
:func:`repro.sweeps.provenance.bench_payload`); run via
``make bench-dynamic``, or ``make bench-dynamic-smoke`` for the
guards-only CI mode::

    PYTHONPATH=src python benchmarks/bench_dynamic.py [--rounds 10] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.adversary.selection import random_fault_set
from repro.adversary.strategies import ExtremePushStrategy
from repro.adversary.vectorized import (
    BatchAdaptiveStrategy,
    BatchExtremePushStrategy,
)
from repro.algorithms.trimmed_mean import TrimmedMeanRule
from repro.graphs.random_graphs import heterogeneous_ring_lattice
from repro.simulation.dynamic import (
    ComposedSchedule,
    RandomChurnSchedule,
    RandomEdgeSchedule,
    StaticSchedule,
)
from repro.simulation.engine import SimulationConfig
from repro.simulation.vectorized import (
    VectorizedEngine,
    cross_check_engines,
    random_input_matrix,
)
from repro.sweeps.provenance import bench_payload

#: Default size grid (the masking path is O(E) — modest sizes suffice).
DEFAULT_SIZES = (200, 2_000, 20_000)

#: Sizes used by ``--smoke`` (guards still run; timings are not published).
SMOKE_SIZES = (200, 1_000)

#: Mask probabilities shared by every non-static schedule kind.
P_UP = 0.8
P_AWAKE = 0.85


def _make_schedule(kind: str, seed: int):
    """Build one schedule of the benchmarked kinds."""
    if kind == "static":
        return StaticSchedule()
    if kind == "random-edges":
        return RandomEdgeSchedule(p_up=P_UP, seed=seed)
    if kind == "random-churn":
        return RandomChurnSchedule(p_awake=P_AWAKE, seed=seed)
    if kind == "composed":
        return ComposedSchedule(
            RandomEdgeSchedule(p_up=P_UP, seed=seed),
            RandomChurnSchedule(p_awake=P_AWAKE, seed=seed),
        )
    raise SystemExit(f"unknown schedule kind {kind!r}")


SCHEDULE_KINDS = ("static", "random-edges", "random-churn", "composed")


def _time_rounds(engine, matrix: np.ndarray, rounds: int) -> float:
    """Step ``engine`` ``rounds`` times from ``matrix``; return seconds."""
    state = engine.step_matrix(matrix, 1)  # warm-up pays array setup
    state = matrix
    start = time.perf_counter()
    for round_index in range(1, rounds + 1):
        state = engine.step_matrix(state, round_index)
    return time.perf_counter() - start


def _scalar_guard(seed: int) -> None:
    """Refuse to benchmark if the engine drifts under the composed schedule."""
    small = heterogeneous_ring_lattice(60, 2, rng=seed)
    report = cross_check_engines(
        graph=small,
        rule=TrimmedMeanRule(2),
        inputs={
            node: float(value)
            for node, value in zip(
                sorted(small.nodes, key=repr),
                np.random.default_rng(seed).uniform(size=60),
            )
        },
        faulty=random_fault_set(small, 2, rng=seed),
        adversary=ExtremePushStrategy(delta=1.0),
        rounds=25,
        schedule=_make_schedule("composed", seed),
    )
    if not report.identical:
        raise SystemExit(
            "vectorized engine is not bit-exact with the scalar engine under "
            "the composed schedule; refusing to benchmark"
        )


def run_benchmark(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    f: int = 2,
    batch: int = 16,
    rounds: int = 10,
    seed: int = 23,
) -> dict:
    """Time the masking overhead per schedule kind across the size grid.

    Returns the ``BENCH_dynamic.json`` payload.  Each point builds one
    heterogeneous ring lattice and times every schedule kind on a fresh copy
    of the same input matrix.
    """
    if batch < 1:
        raise SystemExit(f"--batch must be >= 1, got {batch}")
    if rounds < 1:
        raise SystemExit(f"--rounds must be >= 1, got {rounds}")
    _scalar_guard(seed)

    per_n: list[dict[str, object]] = []
    for n in sizes:
        rng = np.random.default_rng(seed)
        graph = heterogeneous_ring_lattice(n, f, rng=rng)
        rule = TrimmedMeanRule(f)
        faulty = random_fault_set(graph, f, rng=rng)
        config = SimulationConfig(
            max_rounds=rounds,
            record_history=False,
            stop_on_convergence=False,
        )

        def build(schedule, adversary=None):
            return VectorizedEngine(
                graph,
                rule,
                faulty=faulty,
                adversary=(
                    adversary
                    if adversary is not None
                    else BatchExtremePushStrategy(1.0)
                ),
                config=config,
                schedule=schedule,
            )

        matrix = random_input_matrix(
            tuple(sorted(graph.nodes, key=repr)), batch, rng=seed
        )
        node_rounds = n * batch * rounds

        point: dict[str, object] = {"n": n, "edges": graph.number_of_edges}
        static_seconds = 0.0
        for kind in SCHEDULE_KINDS:
            engine = build(_make_schedule(kind, seed))
            seconds = _time_rounds(engine, matrix.copy(), rounds)
            stats = {"seconds": seconds, "node_rounds_per_sec": node_rounds / seconds}
            if kind == "static":
                static_seconds = seconds
            else:
                stats["overhead_vs_static"] = seconds / static_seconds
            point[kind] = stats

        # Adversary axis: the 1-lookahead adaptive strategy replays one
        # trimmed round per probe, so its cost relative to the closed-form
        # push is the price of worst-case adaptivity.
        adaptive = build(
            _make_schedule("composed", seed),
            adversary=BatchAdaptiveStrategy(mode="lookahead", delta=1.0),
        )
        adaptive_seconds = _time_rounds(adaptive, matrix.copy(), rounds)
        point["adaptive_lookahead"] = {
            "seconds": adaptive_seconds,
            "node_rounds_per_sec": node_rounds / adaptive_seconds,
            "cost_vs_extreme_push": (
                adaptive_seconds / point["composed"]["seconds"]
            ),
        }
        per_n.append(point)

    largest = per_n[-1]
    speedups = {
        "masking_overhead_composed_at_largest_n": (
            largest["composed"]["overhead_vs_static"]
        ),
        "adaptive_lookahead_cost_vs_extreme_push_at_largest_n": (
            largest["adaptive_lookahead"]["cost_vs_extreme_push"]
        ),
        "largest_n": float(largest["n"]),
    }

    return bench_payload(
        benchmark="engine-dynamic",
        scenario={
            "graph": "heterogeneous_ring_lattice(n, f=2, extra_mean=2.0)",
            "sizes": list(sizes),
            "f": f,
            "batch": batch,
            "rounds": rounds,
            "adversary": "batch-extreme-push(delta=1.0)",
            "schedules": list(SCHEDULE_KINDS),
            "p_up": P_UP,
            "p_awake": P_AWAKE,
            "seed": seed,
        },
        results={f"n={point['n']}": point for point in per_n},
        speedups=speedups,
    )


def main() -> None:
    """CLI entry point: run the benchmark and write ``BENCH_dynamic.json``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--f", type=int, default=2, help="fault budget")
    parser.add_argument("--batch", type=int, default=16, help="batch size B")
    parser.add_argument("--rounds", type=int, default=10, help="rounds per run")
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_SIZES),
        help="size grid to sweep",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny size grid, guards only, no JSON written (CI mode)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_dynamic.json",
        help="output JSON path",
    )
    args = parser.parse_args()
    sizes = SMOKE_SIZES if args.smoke else tuple(args.sizes)
    result = run_benchmark(
        sizes=sizes,
        f=args.f,
        batch=args.batch,
        rounds=args.rounds,
    )
    if args.smoke:
        print(
            "dynamic smoke OK: scalar/vectorized equivalence guard passed "
            f"under the composed schedule, timed n in {list(sizes)}"
        )
        return
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    overhead = result["speedups"]["masking_overhead_composed_at_largest_n"]
    print(
        f"\ncomposed-schedule masking overhead (n={max(sizes)}): "
        f"{overhead:.2f}x vs static"
    )


if __name__ == "__main__":
    main()
