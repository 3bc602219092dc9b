"""Scale benchmark: batch-engine throughput versus ``n``.

Times batched executions of Algorithm 1 on the
:func:`~repro.graphs.random_graphs.heterogeneous_ring_lattice` family (an
``O(n)``-edge sparse graph with heterogeneous in-degrees) at ``n`` from the
paper's scale up to ``10^5``, on the CSR message plane of
:class:`repro.simulation.vectorized.VectorizedEngine` at two dtypes:

* ``f64``: float64, bit-exact with the scalar reference;
* ``f32``: float32 (half-memory tier under the documented tolerance
  contract).

The curve is **equivalence-guarded**: before timing, the harness asserts
scalar-vs-vectorized bit-equality on a small instance of the same family,
so it can never report throughput for an engine that drifted from the
reference.

The headline number is the ``n = 10^5`` float64 throughput.  Results land in
``BENCH_scale.json`` (unified schema v2 via
:func:`repro.sweeps.provenance.bench_payload`); run via ``make bench-scale``
or::

    PYTHONPATH=src python benchmarks/bench_scale.py [--rounds 10] [--batch 16]

``--smoke`` shrinks the size grid and skips the JSON write — the CI matrix
runs it (``make bench-scale-smoke``) so the equivalence guards execute on
every push without re-timing the full curve.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.adversary.selection import random_fault_set
from repro.adversary.strategies import ExtremePushStrategy
from repro.adversary.vectorized import BatchExtremePushStrategy
from repro.algorithms.trimmed_mean import TrimmedMeanRule
from repro.graphs.random_graphs import heterogeneous_ring_lattice
from repro.simulation.engine import SimulationConfig
from repro.simulation.vectorized import (
    VectorizedEngine,
    cross_check_engines,
    random_input_matrix,
)
from repro.sweeps.provenance import bench_payload

#: Default size grid; the last point is the roadmap's 10^5 tier.
DEFAULT_SIZES = (200, 1_000, 10_000, 100_000)

#: Sizes used by ``--smoke`` (guards still run; timings are not published).
SMOKE_SIZES = (200, 1_000)


def _time_rounds(engine, matrix: np.ndarray, rounds: int) -> float:
    """Step ``engine`` ``rounds`` times from ``matrix``; return seconds."""
    state = engine.step_matrix(matrix, 1)  # warm-up pays array setup
    state = matrix
    start = time.perf_counter()
    for round_index in range(1, rounds + 1):
        state = engine.step_matrix(state, round_index)
    return time.perf_counter() - start


def _scalar_guard(seed: int) -> None:
    """Refuse to benchmark if the batch engine drifted from the scalar one."""
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
    )
    if not report.identical:
        raise SystemExit(
            "vectorized engine is not bit-exact with the scalar engine; "
            "refusing to benchmark"
        )


def run_benchmark(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    f: int = 2,
    batch: int = 16,
    rounds: int = 10,
    seed: int = 23,
) -> dict:
    """Time the float64 and float32 engines across the size grid.

    Returns the ``BENCH_scale.json`` payload.  Each point builds one
    heterogeneous ring lattice and times each dtype on a fresh copy of the
    same input matrix.
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

        node_rounds = n * batch * rounds
        point: dict[str, object] = {"n": n, "edges": graph.number_of_edges}
        for name, dtype in (("f64", np.float64), ("f32", np.float32)):
            engine = VectorizedEngine(
                graph,
                rule,
                faulty=faulty,
                adversary=BatchExtremePushStrategy(1.0),
                config=config,
                dtype=dtype,
            )
            if name == "f64":
                point["nnz"] = engine.nnz
                point["plane_mb_per_row"] = engine.plane_bytes_per_row / 1e6
            matrix = random_input_matrix(engine.nodes, batch, rng=seed)
            seconds = _time_rounds(engine, matrix.astype(dtype), rounds)
            point[name] = {
                "seconds": seconds,
                "node_rounds_per_sec": node_rounds / seconds,
            }
        per_n.append(point)

    return bench_payload(
        benchmark="engine-scale",
        scenario={
            "graph": "heterogeneous_ring_lattice(n, f=2, extra_mean=2.0)",
            "sizes": list(sizes),
            "f": f,
            "batch": batch,
            "rounds": rounds,
            "adversary": "batch-extreme-push(delta=1.0)",
            "seed": seed,
        },
        results={f"n={point['n']}": point for point in per_n},
        speedups={},
    )


def main() -> None:
    """CLI entry point: run the benchmark and write ``BENCH_scale.json``."""
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
        default=Path(__file__).resolve().parent.parent / "BENCH_scale.json",
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
            "scale smoke OK: scalar/vectorized equivalence guard passed, "
            f"timed n in {list(sizes)}"
        )
        return
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    largest = f"n={max(sizes)}"
    rate = result["results"][largest]["f64"]["node_rounds_per_sec"]
    print(f"\nfloat64 throughput at {largest}: {rate:,.0f} node-rounds/s")


if __name__ == "__main__":
    main()
