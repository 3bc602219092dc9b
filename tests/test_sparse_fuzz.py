"""Randomized differential fuzz suite for the CSR batch plane, bit for bit.

Each case derives an entire scenario — graph family, size, fault budget,
fault set, rule, adversary, batch size, tile size, round count — from a
single integer seed and runs the same batch through the
:class:`~repro.simulation.vectorized.VectorizedEngine` twice: untiled on the
compiled plane kernel (where this machine builds it) and on the NumPy
kernel in tiles of one to three rows (so every ``B > 1`` draw really
tiles).  Every output array must match exactly (``np.array_equal``, never
``allclose``).
Batch row 0 is also replayed through the scalar
:class:`~repro.simulation.engine.SynchronousEngine`, the independent
reference, with the drawn adversary's scalar form (a batch-native strategy
is replayed through its scalar counterpart, which it matches row by row):
the scalar run's final state, spread series and verdicts must equal row 0's.

The families deliberately mix degree-homogeneous graphs (complete,
``k``-in-regular, ring lattices) with heterogeneous ones (core networks and
core-like networks, whose clique nodes have ~``n`` in-neighbours while the
periphery stays sparse) so the bucket-major plane layout is exercised across
one-bucket and many-bucket shapes, with and without tiling.

The first :data:`FAST_CASES` seeds run in the default suite; the remaining
seeds up to :data:`TOTAL_CASES` carry the ``slow`` marker (excluded by
``make test-fast``).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from conftest import NumpyKernelEngine

from repro.adversary import (
    BatchBroadcastConsistentWrapper,
    BatchExtremePushStrategy,
    BatchFrozenValueStrategy,
    BatchRandomNoiseStrategy,
    BatchStaticValueStrategy,
    BroadcastConsistentStrategy,
    ExtremePushStrategy,
    FrozenValueStrategy,
    RandomNoiseStrategy,
    StaticValueStrategy,
)
from repro.algorithms import TrimmedMeanRule, TrimmedMidpointRule
from repro.graphs import (
    complete_graph,
    core_network,
    k_in_regular_digraph,
    random_core_like_network,
    ring_lattice,
)
from repro.simulation import (
    SimulationConfig,
    SynchronousEngine,
    VectorizedEngine,
    spawn_row_generators,
    spreads_from_records,
)
from repro.simulation.vectorized import random_input_matrix

#: Seeds run in the default (fast) suite.
FAST_CASES = 40
#: Total seeded cases; seeds >= FAST_CASES are marked ``slow``.
TOTAL_CASES = 200

FAMILIES = ("complete", "core", "core-like", "ring", "k-in-regular")
STRATEGY_KINDS = (
    "none",
    "scalar-extreme",
    "scalar-static",
    "batch-static",
    "batch-extreme",
    "batch-frozen",
    "batch-noise",
    "batch-broadcast",
)


def _draw_graph(rng: np.random.Generator, f: int):
    """Return a graph of a random family whose fault-free in-degrees satisfy
    the trimmed rules' ``2f`` floor by construction."""
    family = FAMILIES[int(rng.integers(len(FAMILIES)))]
    if family == "complete":
        n = int(rng.integers(3 * f + 2, 25))
        return complete_graph(n)
    if family == "core":
        n = int(rng.integers(3 * f + 2, 40))
        return core_network(n, f)
    if family == "core-like":
        n = int(rng.integers(3 * f + 2, 40))
        probability = float(rng.uniform(0.05, 0.4))
        return random_core_like_network(n, f, probability, rng=rng)
    if family == "ring":
        k = int(rng.integers(f, f + 4))
        n = int(rng.integers(2 * k + 2, 60))
        return ring_lattice(n, k)
    degree = 2 * f + int(rng.integers(0, 6))
    n = int(rng.integers(degree + 2, 60))
    return k_in_regular_digraph(n, degree, rng=rng)


def _draw_strategy(rng: np.random.Generator, seed: int):
    """Return ``(adversary blueprint, row-0 scalar twin)`` for a random kind.

    The blueprint is deep-copied once per engine.  The twin maps the batch
    size to the scalar strategy that replays batch row 0 on the scalar
    engine: the scalar blueprint itself, or a batch-native strategy's scalar
    counterpart (for random noise, seeded with row 0's spawned stream).
    """
    kind = STRATEGY_KINDS[int(rng.integers(len(STRATEGY_KINDS)))]
    if kind == "none":
        return None, lambda batch: None
    if kind == "scalar-extreme":
        extreme = ExtremePushStrategy(delta=float(rng.uniform(0.5, 5.0)))
        return extreme, lambda batch: extreme
    if kind == "scalar-static":
        static = StaticValueStrategy(float(rng.uniform(-10.0, 10.0)))
        return static, lambda batch: static
    if kind == "batch-static":
        value = float(rng.uniform(-10.0, 10.0))
        return BatchStaticValueStrategy(value), lambda batch: StaticValueStrategy(
            value
        )
    if kind == "batch-extreme":
        delta = float(rng.uniform(0.5, 5.0))
        return BatchExtremePushStrategy(delta), lambda batch: ExtremePushStrategy(
            delta
        )
    if kind == "batch-frozen":
        return BatchFrozenValueStrategy(), lambda batch: FrozenValueStrategy()
    if kind == "batch-noise":
        # Seeded with an int: each engine deep-copies the blueprint before
        # the generator's first draw, so both consume identical streams.
        return BatchRandomNoiseStrategy(-5.0, 5.0, rng=seed), (
            lambda batch: RandomNoiseStrategy(
                -5.0, 5.0, rng=spawn_row_generators(seed, batch)[0]
            )
        )
    delta = float(rng.uniform(0.5, 3.0))
    return BatchBroadcastConsistentWrapper(BatchExtremePushStrategy(delta)), (
        lambda batch: BroadcastConsistentStrategy(ExtremePushStrategy(delta))
    )


def _fuzz_one(seed: int) -> None:
    rng = np.random.default_rng(seed)
    f = int(rng.integers(1, 3))
    graph = _draw_graph(rng, f)
    nodes = sorted(graph.nodes, key=repr)
    fault_count = int(rng.integers(0, f + 1))
    faulty = frozenset(
        int(c) for c in rng.choice(len(nodes), size=fault_count, replace=False)
    )
    rule_factory = TrimmedMeanRule if rng.random() < 0.7 else TrimmedMidpointRule
    adversary, twin = (
        _draw_strategy(rng, seed) if faulty else (None, lambda batch: None)
    )
    batch = int(rng.choice([1, 4, 16]))
    rounds = int(rng.integers(4, 11))
    tile_rows = int(rng.integers(1, 4))

    config = SimulationConfig(
        max_rounds=rounds,
        tolerance=0.0,
        record_history=True,
        stop_on_convergence=False,
    )
    untiled = VectorizedEngine(
        graph,
        rule_factory(f),
        faulty=faulty,
        adversary=copy.deepcopy(adversary),
        config=config,
    )
    # The tiled run takes the NumPy plane kernel, the untiled one the
    # compiled kernel where this machine builds it.
    tiled = NumpyKernelEngine(
        graph,
        rule_factory(f),
        faulty=faulty,
        adversary=copy.deepcopy(adversary),
        config=config,
        max_plane_bytes=tile_rows * untiled.plane_bytes_per_row,
    )
    assert tiled.plane_tile_rows(batch) == min(tile_rows, batch)

    matrix = random_input_matrix(untiled.nodes, batch, rng=rng)
    untiled_out = untiled.run_batch(matrix.copy())
    tiled_out = tiled.run_batch(matrix.copy())

    label = (
        f"seed={seed} n={len(nodes)} f={f} |F|={len(faulty)} B={batch} "
        f"rounds={rounds} tile_rows={tile_rows} "
        f"adversary={getattr(adversary, 'name', None)}"
    )
    assert np.array_equal(untiled_out.final_states, tiled_out.final_states), label
    assert np.array_equal(untiled_out.converged, tiled_out.converged), label
    assert np.array_equal(
        untiled_out.rounds_executed, tiled_out.rounds_executed
    ), label
    assert np.array_equal(
        untiled_out.initial_spread, tiled_out.initial_spread
    ), label
    assert np.array_equal(untiled_out.final_spread, tiled_out.final_spread), label
    assert np.array_equal(untiled_out.validity_ok, tiled_out.validity_ok), label
    assert np.array_equal(
        untiled_out.spread_history, tiled_out.spread_history
    ), label

    # Independent reference: row 0 replayed on the scalar engine.
    scalar = SynchronousEngine(
        graph,
        rule_factory(f),
        faulty=faulty,
        adversary=copy.deepcopy(twin(batch)),
        config=config,
    ).run(dict(zip(untiled.nodes, matrix[0].tolist())))
    final = scalar.history[-1].values
    assert [final[node] for node in untiled.nodes] == (
        untiled_out.final_states[0].tolist()
    ), label
    assert np.array_equal(
        spreads_from_records(scalar.history), untiled_out.spread_history[:, 0]
    ), label
    assert scalar.rounds_executed == untiled_out.rounds_executed[0], label
    assert scalar.converged == bool(untiled_out.converged[0]), label
    assert scalar.validity_ok == bool(untiled_out.validity_ok[0]), label


@pytest.mark.parametrize("seed", range(FAST_CASES))
def test_batch_plane_fuzz_fast(seed):
    """Fast CI subset of the randomized differential sweep."""
    _fuzz_one(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(FAST_CASES, TOTAL_CASES))
def test_batch_plane_fuzz_full(seed):
    """The long tail of the randomized differential sweep."""
    _fuzz_one(seed)
