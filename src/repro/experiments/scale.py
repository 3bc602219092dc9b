"""Experiment E14 — ``large_n``: the CSR batch engine at scale.

The paper's experiments stop near ``n ≈ 200``; the roadmap's scale-out tier
asks what Algorithm 1 does on graphs two to three orders of magnitude larger.
This sweep runs batched executions of the trimmed-mean rule on the
:func:`~repro.graphs.random_graphs.heterogeneous_ring_lattice` family — an
``O(n)``-edge sparse graph whose in-degrees spread over many distinct values,
the shape the CSR message plane of
:class:`~repro.simulation.vectorized.VectorizedEngine` is built for — under
the batch-native extreme-push adversary, and records throughput (node-rounds
per second), the validity verdict, and the hull contraction per cell.

Cells with ``n`` small enough to afford the scalar reference engine also
replay one round of the first batch row through it, so the timing numbers
are tied to the bit-exactness contract rather than taken on faith; the full
curve (up to ``n = 10^5``) is the ``scale`` scenario of
``benchmarks/harness.py`` → ``BENCH_scale.json``.
"""

from __future__ import annotations

import time
from typing import TypedDict

import numpy as np

from repro.adversary.selection import random_fault_set
from repro.adversary.strategies import ExtremePushStrategy
from repro.adversary.vectorized import BatchExtremePushStrategy
from repro.algorithms.trimmed_mean import TrimmedMeanRule
from repro.exceptions import InvalidParameterError, SimulationError
from repro.graphs.random_graphs import heterogeneous_ring_lattice
from repro.simulation.engine import SimulationConfig, SynchronousEngine
from repro.simulation.vectorized import VectorizedEngine, random_input_matrix
from repro.sweeps.registry import register_experiment
from repro.sweeps.schema import schema_from_typeddict


class LargeNRow(TypedDict):
    """One batched cell of the E14 large-``n`` scale sweep."""

    n: int
    f: int
    dtype: str
    batch: int
    rounds: int
    edges: int
    nnz: int
    plane_mb_per_row: float
    build_seconds: float
    run_seconds: float
    node_rounds_per_second: float
    fraction_converged: float
    all_validity_ok: bool
    mean_final_spread: float
    mean_contraction: float
    equivalence_checked: bool


#: Runtime half of :class:`LargeNRow`; validated at shard boundaries.
LARGE_N_SCHEMA = schema_from_typeddict(
    LargeNRow,
    roles={
        "n": "parameter",
        "f": "parameter",
        "dtype": "parameter",
        "batch": "parameter",
        "rounds": "parameter",
        "edges": "metric",
        "nnz": "metric",
        "plane_mb_per_row": "metric",
        "build_seconds": "metric",
        "run_seconds": "metric",
        "node_rounds_per_second": "metric",
        "fraction_converged": "metric",
        "all_validity_ok": "verdict",
        "mean_final_spread": "metric",
        "mean_contraction": "metric",
        "equivalence_checked": "verdict",
    },
)

#: State dtypes the sweep accepts (the batch engine's two tiers).
SCALE_DTYPES = ("float64", "float32")

#: Largest ``n`` for which a cell runs the scalar equivalence guard (the
#: scalar engine's per-node Python gets expensive beyond this).
EQUIVALENCE_GUARD_MAX_N = 2000


def default_scale_sizes() -> tuple[int, ...]:
    """Default ``n`` values of the registry grid (the benchmark goes higher)."""
    return (200, 1000, 5000)


def large_n_study(
    n: int,
    f: int = 2,
    dtype: str = "float64",
    batch: int = 8,
    rounds: int = 30,
    extra_mean: float = 2.0,
    max_plane_bytes: int | None = None,
    seed: int = 0,
) -> list[LargeNRow]:
    """Run one batched large-``n`` cell on the heterogeneous ring lattice.

    Builds the graph and a random ``f``-node fault set from ``seed``, runs
    ``batch`` executions for ``rounds`` rounds under the batch-native
    extreme-push adversary on the CSR batch engine, and returns a single row
    with build/run timings, throughput, and the validity and contraction
    summary.  For ``n <= EQUIVALENCE_GUARD_MAX_N`` at float64 the row also
    records a one-round bit-equality check of the first batch row against
    the scalar engine (with the scalar form of the adversary).
    """
    if dtype not in SCALE_DTYPES:
        raise InvalidParameterError(
            f"dtype must be one of {SCALE_DTYPES}, got {dtype!r}"
        )
    # RNG-stream contract: one child stream per stage (graph build, fault
    # selection, input matrix), spawned from the cell seed, so a change in
    # how many draws one stage consumes can never shift another stage's.
    graph_stream, fault_stream, input_stream = np.random.SeedSequence(
        seed
    ).spawn(3)
    build_start = time.perf_counter()
    graph = heterogeneous_ring_lattice(
        n, f, extra_mean=extra_mean, rng=np.random.default_rng(graph_stream)
    )
    faulty = random_fault_set(graph, f, rng=np.random.default_rng(fault_stream))
    engine = VectorizedEngine(
        graph,
        TrimmedMeanRule(f),
        faulty=faulty,
        adversary=BatchExtremePushStrategy(delta=1.5),
        config=SimulationConfig(
            max_rounds=rounds,
            tolerance=1e-6,
            record_history=False,
            stop_on_convergence=False,
        ),
        dtype=np.dtype(dtype),
        max_plane_bytes=max_plane_bytes,
    )
    build_seconds = time.perf_counter() - build_start

    matrix = random_input_matrix(
        engine.nodes, batch, rng=np.random.default_rng(input_stream)
    )
    run_start = time.perf_counter()
    outcome = engine.run_batch(matrix)
    run_seconds = time.perf_counter() - run_start

    equivalence_checked = False
    if dtype == "float64" and n <= EQUIVALENCE_GUARD_MAX_N:
        scalar = SynchronousEngine(
            graph,
            TrimmedMeanRule(f),
            faulty=faulty,
            adversary=ExtremePushStrategy(delta=1.5),
            config=engine.config,
        )
        expected = scalar.step(dict(zip(engine.nodes, matrix[0].tolist())), 1)
        stepped = engine.step_matrix(matrix[:1], 1)[0]
        if stepped.tolist() != [expected[node] for node in engine.nodes]:
            raise SimulationError(
                f"batch engine diverged from the scalar engine at n={n}"
            )
        equivalence_checked = True

    node_rounds = n * rounds * batch
    return [
        {
            "n": n,
            "f": f,
            "dtype": dtype,
            "batch": batch,
            "rounds": rounds,
            "edges": graph.number_of_edges,
            "nnz": engine.nnz,
            "plane_mb_per_row": engine.plane_bytes_per_row / 1e6,
            "build_seconds": build_seconds,
            "run_seconds": run_seconds,
            "node_rounds_per_second": node_rounds / run_seconds,
            "fraction_converged": outcome.fraction_converged,
            "all_validity_ok": outcome.all_valid,
            "mean_final_spread": float(outcome.final_spread.mean()),
            "mean_contraction": float(
                (outcome.final_spread / outcome.initial_spread).mean()
            ),
            "equivalence_checked": equivalence_checked,
        }
    ]


@register_experiment(
    name="large_n",
    paper_section=(
        "Scale-out beyond the paper's n ~ 200 (roadmap large-n tier, E14)"
    ),
    claim=(
        "The CSR batch engine runs Algorithm 1 on sparse heterogeneous graphs "
        "up to n = 10^5 with validity intact in every execution, bit-exact "
        "with the scalar engine at float64."
    ),
    engine="sparse",
    grid={
        "n": default_scale_sizes(),
        "dtype": SCALE_DTYPES,
        "batch": (8,),
        "rounds": (30,),
    },
    schema=LARGE_N_SCHEMA,
)
def large_n_cell(
    n: int,
    dtype: str = "float64",
    batch: int = 8,
    rounds: int = 30,
    seed: int = 0,
) -> list[LargeNRow]:
    """Registry cell for E14: one (n, dtype) point of the scale sweep."""
    return large_n_study(
        n=n, dtype=dtype, batch=batch, rounds=rounds, seed=seed
    )
