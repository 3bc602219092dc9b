"""Asynchronous-engine benchmark: scalar vs vectorized vs batched throughput.

Times one fixed scenario — a core network under the extreme-pushing adversary
with bounded message delays and sporadic activation — through three paths:

* ``scalar``: :class:`repro.simulation.async_engine.PartiallyAsynchronousEngine`
  on a sample of full runs;
* ``vectorized_single``: :class:`repro.simulation.vectorized_async.VectorizedAsyncEngine`
  with a batch of one;
* ``batch``: the same engine over the full ``(B, n)`` state matrix and
  ``(B, E, max_delay + 1)`` delivery ring.

The headline number is ``speedups.batch_vs_scalar``: the ratio of
per-run-round throughput between the batched vectorized pass and the scalar
engine on the same scenario.  Results land in ``BENCH_async.json`` using the
same unified benchmark schema as ``BENCH_engine.json``
(:func:`repro.sweeps.provenance.bench_payload`; see ``docs/performance.md``);
run via ``make bench-async`` or::

    PYTHONPATH=src python benchmarks/bench_async.py [--n 200] [--batch 64]

The script first cross-checks the two asynchronous engines round-for-round on
a small instance under the shared RNG-stream contract, so a benchmark run can
never report a speedup for an engine that drifted from the reference
semantics.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.adversary.selection import random_fault_set
from repro.adversary.strategies import ExtremePushStrategy
from repro.adversary.vectorized import BatchExtremePushStrategy
from repro.algorithms.trimmed_mean import TrimmedMeanRule
from repro.graphs.generators import core_network
from repro.simulation.engine import SimulationConfig
from repro.simulation.async_engine import PartiallyAsynchronousEngine
from repro.simulation.inputs import uniform_random_inputs
from repro.simulation.vectorized import cross_check_engines, random_input_matrix
from repro.simulation.vectorized_async import VectorizedAsyncEngine
from repro.sweeps.provenance import bench_payload


def time_scalar_run(
    graph,
    rule,
    faulty,
    config,
    max_delay: int,
    update_probability: float,
    inputs: dict,
    seed: int,
) -> float:
    """Run the scalar asynchronous engine once; return elapsed seconds."""
    engine = PartiallyAsynchronousEngine(
        graph,
        rule,
        faulty=faulty,
        adversary=ExtremePushStrategy(1.0),
        config=config,
        max_delay=max_delay,
        update_probability=update_probability,
        rng=seed,
    )
    start = time.perf_counter()
    engine.run(inputs)
    return time.perf_counter() - start


def time_batch_run(engine: VectorizedAsyncEngine, matrix, seed: int) -> float:
    """Run one batched pass of the vectorized engine; return elapsed seconds."""
    start = time.perf_counter()
    engine.run_batch(matrix, rng=seed)
    return time.perf_counter() - start


def run_benchmark(
    n: int = 200,
    f: int = 3,
    batch: int = 64,
    rounds: int = 25,
    max_delay: int = 2,
    update_probability: float = 0.9,
    scalar_runs: int = 2,
    seed: int = 17,
) -> dict:
    """Benchmark the three asynchronous engine paths on one core-network scenario.

    ``scalar_runs`` bounds how many of the ``batch`` runs the scalar engine is
    actually timed on — its per-run cost is independent of the batch, so the
    sample is representative while keeping total wall time small.  Returns
    the result dictionary that is also written to ``BENCH_async.json``.
    """
    if batch < 1:
        raise SystemExit(f"--batch must be >= 1, got {batch}")
    if rounds < 1:
        raise SystemExit(f"--rounds must be >= 1, got {rounds}")
    if scalar_runs < 1:
        raise SystemExit(f"--scalar-runs must be >= 1, got {scalar_runs}")
    if max_delay < 0:
        raise SystemExit(f"--max-delay must be >= 0, got {max_delay}")
    graph = core_network(n, f)
    rule = TrimmedMeanRule(f)
    faulty = random_fault_set(graph, f, rng=seed)
    config = SimulationConfig(
        max_rounds=rounds,
        record_history=False,
        stop_on_convergence=False,
    )

    # Guard: never benchmark an engine that diverged from the reference.
    small = core_network(10, 2)
    report = cross_check_engines(
        graph=small,
        rule=TrimmedMeanRule(2),
        inputs=uniform_random_inputs(small.nodes, rng=seed),
        faulty=random_fault_set(small, 2, rng=seed),
        adversary=ExtremePushStrategy(delta=1.0),
        config=SimulationConfig(max_rounds=30, stop_on_convergence=False),
        max_delay=max_delay,
        update_probability=update_probability,
        seed=seed,
    )
    if not report.identical:
        raise SystemExit(
            "vectorized asynchronous engine is not bit-exact with the scalar "
            "engine; refusing to benchmark"
        )

    scalar_seconds = 0.0
    timed_runs = min(scalar_runs, batch)
    for run in range(timed_runs):
        inputs = uniform_random_inputs(graph.nodes, rng=seed + run)
        scalar_seconds += time_scalar_run(
            graph,
            rule,
            faulty,
            config,
            max_delay,
            update_probability,
            inputs,
            seed + run,
        )
    scalar_run_rounds_per_sec = (timed_runs * rounds) / scalar_seconds

    vector_engine = VectorizedAsyncEngine(
        graph,
        rule,
        faulty=faulty,
        adversary=BatchExtremePushStrategy(1.0),
        config=config,
        max_delay=max_delay,
        update_probability=update_probability,
    )
    single = random_input_matrix(vector_engine.nodes, 1, rng=seed)
    time_batch_run(vector_engine, single, seed)  # warm-up: array setup
    single_seconds = time_batch_run(vector_engine, single, seed)
    single_run_rounds_per_sec = rounds / single_seconds

    matrix = random_input_matrix(vector_engine.nodes, batch, rng=seed)
    batch_seconds = time_batch_run(vector_engine, matrix, seed)
    batch_run_rounds_per_sec = (batch * rounds) / batch_seconds

    return bench_payload(
        benchmark="engine-async",
        scenario={
            "graph": f"core_network(n={n}, f={f})",
            "n": n,
            "f": f,
            "batch": batch,
            "rounds": rounds,
            "max_delay": max_delay,
            "update_probability": update_probability,
            "adversary": "extreme-push(delta=1.0)",
            "seed": seed,
        },
        results={
            "scalar": {
                "runs_timed": timed_runs,
                "seconds": scalar_seconds,
                "run_rounds_per_sec": scalar_run_rounds_per_sec,
            },
            "vectorized_single": {
                "seconds": single_seconds,
                "run_rounds_per_sec": single_run_rounds_per_sec,
            },
            "batch": {
                "seconds": batch_seconds,
                "run_rounds_per_sec": batch_run_rounds_per_sec,
            },
        },
        speedups={
            "single_vs_scalar": single_run_rounds_per_sec
            / scalar_run_rounds_per_sec,
            "batch_vs_scalar": batch_run_rounds_per_sec
            / scalar_run_rounds_per_sec,
        },
    )


def main() -> None:
    """CLI entry point: run the benchmark and write ``BENCH_async.json``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=200, help="graph size")
    parser.add_argument("--f", type=int, default=3, help="fault budget")
    parser.add_argument("--batch", type=int, default=64, help="batch size B")
    parser.add_argument("--rounds", type=int, default=25, help="rounds per run")
    parser.add_argument(
        "--max-delay", type=int, default=2, help="delay bound B (iterations)"
    )
    parser.add_argument(
        "--update-probability",
        type=float,
        default=0.9,
        help="per-round activation probability",
    )
    parser.add_argument(
        "--scalar-runs",
        type=int,
        default=2,
        help="how many runs to time on the scalar engine",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_async.json",
        help="output JSON path",
    )
    args = parser.parse_args()
    result = run_benchmark(
        n=args.n,
        f=args.f,
        batch=args.batch,
        rounds=args.rounds,
        max_delay=args.max_delay,
        update_probability=args.update_probability,
        scalar_runs=args.scalar_runs,
    )
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(
        f"\nbatch throughput is {result['speedups']['batch_vs_scalar']:.1f}x "
        f"the scalar asynchronous engine on {result['scenario']['graph']} "
        f"with B={result['scenario']['batch']}, "
        f"max_delay={result['scenario']['max_delay']}"
    )


if __name__ == "__main__":
    main()
