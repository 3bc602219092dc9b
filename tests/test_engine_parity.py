"""Cross-engine parity suite: every engine agrees bit-for-bit.

Four equivalence layers, each parametrized over the shared graph-family
matrix in ``conftest.py`` (:data:`conftest.SYNC_FAMILY_CASES`):

1. **Synchronous quartet** — the scalar :class:`SynchronousEngine`, the
   :class:`VectorizedEngine` untiled and with a one-row plane tile, and the
   vectorized :class:`VectorizedAsyncEngine` degenerated to ``max_delay=0,
   update_probability=1.0`` produce identical trajectories (``==`` on
   floats, never ``approx``).
2. **Batch differential** — untiled and one-row-tiled ``run_batch`` agree
   on every output array at ``B = 1`` and ``B = 64``.
3. **Asynchronous pair** — the scalar :class:`PartiallyAsynchronousEngine`
   and :class:`VectorizedAsyncEngine` agree round-for-round under the shared
   RNG-stream contract (same seed → same delay draws and activation coins).
4. **Batch rows** — every row of a vectorized batch reproduces the scalar
   run seeded with that row's spawned child stream.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import (
    BATCH_ENGINE_KINDS,
    SYNC_FAMILY_CASES,
    SYNC_FAMILY_IDS,
    make_batch_engine,
    make_scalar_adversary,
    run_sync_engine,
)
from repro.adversary import ExtremePushStrategy, StaticValueStrategy
from repro.algorithms import TrimmedMeanRule, TrimmedMidpointRule
from repro.exceptions import SimulationError
from repro.graphs import chord_network, complete_graph, core_network
from repro.simulation import (
    PartiallyAsynchronousEngine,
    SimulationConfig,
    VectorizedAsyncEngine,
    cross_check_engines,
    linear_ramp_inputs,
    run_partially_asynchronous,
    run_vectorized_async,
    spawn_row_generators,
    uniform_random_inputs,
)
from repro.simulation.vectorized import random_input_matrix
from repro.types import ConsensusOutcome


@pytest.mark.parametrize(
    "label,graph_factory,f,faulty,rule_factory,adversary_kind",
    SYNC_FAMILY_CASES,
    ids=SYNC_FAMILY_IDS,
)
def test_sync_quartet_bit_exact(
    label, graph_factory, f, faulty, rule_factory, adversary_kind
):
    """Scalar == vectorized == tiled == async-degenerate, float-for-float.

    Every engine gets a fresh adversary instance; with tolerance 0 identical
    trajectories stop at identical rounds, so the histories must have equal
    length as well as equal contents, and every other outcome field (spreads,
    round count, convergence and validity verdicts, final values) must match.
    """
    graph = graph_factory()
    inputs = uniform_random_inputs(graph.nodes, rng=11)
    kwargs = dict(
        faulty=frozenset(faulty),
        max_rounds=25,
        tolerance=0.0,
        record_history=True,
    )
    outcomes = {
        engine_kind: run_sync_engine(
            engine_kind,
            graph,
            rule_factory(f),
            inputs,
            adversary=make_scalar_adversary(adversary_kind),
            **kwargs,
        )
        for engine_kind in ("scalar", "vectorized", "tiled", "async-degenerate")
    }
    scalar = outcomes.pop("scalar")
    for engine_kind, outcome in outcomes.items():
        assert len(scalar.history) == len(outcome.history), engine_kind
        for s_rec, o_rec in zip(scalar.history, outcome.history):
            for node in graph.nodes:
                assert s_rec.values[node] == o_rec.values[node], (
                    f"{engine_kind} diverged at round {o_rec.round_index} "
                    f"on node {node!r}"
                )
        for field in dataclasses.fields(ConsensusOutcome):
            assert getattr(outcome, field.name) == getattr(scalar, field.name), (
                f"{engine_kind} differs from the scalar engine in {field.name}"
            )


@pytest.mark.parametrize("batch", [1, 64], ids=["B1", "B64"])
@pytest.mark.parametrize(
    "label,graph_factory,f,faulty,rule_factory,adversary_kind",
    SYNC_FAMILY_CASES,
    ids=SYNC_FAMILY_IDS,
)
def test_batch_untiled_vs_tiled_bit_exact(
    label, graph_factory, f, faulty, rule_factory, adversary_kind, batch
):
    """run_batch parity: untiled and tiled agree on every output array."""
    graph = graph_factory()
    config = SimulationConfig(
        max_rounds=12,
        tolerance=0.0,
        record_history=True,
        stop_on_convergence=False,
    )
    outcomes = {}
    for engine_kind in ("vectorized", "tiled"):
        engine = make_batch_engine(
            engine_kind,
            graph,
            rule_factory(f),
            faulty=frozenset(faulty),
            adversary=make_scalar_adversary(adversary_kind),
            config=config,
        )
        matrix = random_input_matrix(engine.nodes, batch, rng=17)
        outcomes[engine_kind] = engine.run_batch(matrix)
    untiled, tiled = outcomes["vectorized"], outcomes["tiled"]
    assert untiled.nodes == tiled.nodes
    assert np.array_equal(untiled.final_states, tiled.final_states)
    assert np.array_equal(untiled.converged, tiled.converged)
    assert np.array_equal(untiled.rounds_executed, tiled.rounds_executed)
    assert np.array_equal(untiled.initial_spread, tiled.initial_spread)
    assert np.array_equal(untiled.final_spread, tiled.final_spread)
    assert np.array_equal(untiled.validity_ok, tiled.validity_ok)
    assert np.array_equal(untiled.spread_history, tiled.spread_history)


@pytest.mark.parametrize("engine_kind", BATCH_ENGINE_KINDS)
def test_batch_engines_share_canonical_channel_order(engine_kind):
    """Every batch tier exposes the identical canonical channel order.

    The RNG-stream contract and the batch strategy library both key off
    ``BatchAdversaryContext.edge_nodes``; the tiers must agree on it exactly.
    """
    graph = core_network(10, 2)
    reference = make_batch_engine(
        "vectorized", graph, TrimmedMeanRule(2), faulty=frozenset({8, 9})
    )
    candidate = make_batch_engine(
        engine_kind, graph, TrimmedMeanRule(2), faulty=frozenset({8, 9})
    )
    assert candidate.nodes == reference.nodes
    assert candidate._edge_nodes == reference._edge_nodes


ASYNC_CASES = [
    # (graph factory, f, faulty, rule factory, adversary kind, delay, p, seed)
    (lambda: complete_graph(4), 1, {0}, TrimmedMeanRule, "extreme-push", 1, 1.0, 0),
    (lambda: complete_graph(5), 1, set(), TrimmedMeanRule, "none", 2, 1.0, 1),
    (lambda: complete_graph(5), 1, {4}, TrimmedMidpointRule, "static", 1, 0.6, 2),
    (lambda: complete_graph(7), 2, {0, 1}, TrimmedMeanRule, "extreme-push", 3, 0.8, 3),
    (lambda: complete_graph(7), 2, {5, 6}, TrimmedMidpointRule, "extreme-push", 2, 1.0, 4),
    (lambda: core_network(7, 2), 2, {5, 6}, TrimmedMeanRule, "static", 2, 0.5, 5),
    (lambda: core_network(8, 1), 1, {7}, TrimmedMeanRule, "extreme-push", 1, 0.9, 6),
    (lambda: core_network(10, 2), 2, {3, 9}, TrimmedMeanRule, "extreme-push", 4, 0.7, 7),
    (lambda: core_network(10, 2), 2, {0, 4}, TrimmedMidpointRule, "none", 3, 0.75, 8),
    (lambda: chord_network(5, 1), 1, {2}, TrimmedMeanRule, "static", 2, 1.0, 9),
    (lambda: chord_network(9, 1), 1, set(), TrimmedMeanRule, "none", 5, 0.4, 10),
    (lambda: complete_graph(6), 1, {3}, TrimmedMeanRule, "extreme-push", 0, 0.5, 11),
]


@pytest.mark.parametrize(
    "graph_factory,f,faulty,rule_factory,adversary_kind,delay,probability,seed",
    ASYNC_CASES,
    ids=[f"async-{i}" for i in range(len(ASYNC_CASES))],
)
def test_async_pair_bit_exact(
    graph_factory, f, faulty, rule_factory, adversary_kind, delay, probability, seed
):
    """Scalar async == vectorized async under the shared RNG-stream contract."""
    graph = graph_factory()
    report = cross_check_engines(
        graph,
        rule_factory(f),
        uniform_random_inputs(graph.nodes, rng=seed),
        faulty=frozenset(faulty),
        adversary=make_scalar_adversary(adversary_kind),
        config=SimulationConfig(max_rounds=40, tolerance=1e-9),
        max_delay=delay,
        update_probability=probability,
        seed=seed,
    )
    assert report.identical, (
        f"diverged at round {report.first_divergence_round} "
        f"(max abs diff {report.max_abs_difference:.3e})"
    )
    assert report.rounds_checked > 0


@pytest.mark.slow
@pytest.mark.parametrize("batch", [1, 4, 16])
@pytest.mark.parametrize("delay,probability", [(0, 1.0), (2, 1.0), (3, 0.7)])
def test_batch_rows_match_scalar_runs(batch, delay, probability):
    """Row ``b`` of a batch reproduces the scalar run on row ``b``'s stream."""
    graph = core_network(8, 1)
    rule = TrimmedMeanRule(1)
    faulty = frozenset({6})
    config = SimulationConfig(max_rounds=120, tolerance=1e-7)
    engine = VectorizedAsyncEngine(
        graph,
        rule,
        faulty=faulty,
        adversary=ExtremePushStrategy(1.5),
        config=config,
        max_delay=delay,
        update_probability=probability,
    )
    matrix = random_input_matrix(engine.nodes, batch, rng=5)
    outcome = engine.run_batch(matrix, rng=77)

    for row in range(batch):
        scalar = PartiallyAsynchronousEngine(
            graph,
            rule,
            faulty=faulty,
            adversary=ExtremePushStrategy(1.5),
            config=config,
            max_delay=delay,
            update_probability=probability,
            rng=spawn_row_generators(77, batch)[row],
        ).run({node: matrix[row, i] for i, node in enumerate(engine.nodes)})
        assert scalar.rounds_executed == outcome.rounds_executed[row]
        assert scalar.converged == bool(outcome.converged[row])
        assert scalar.validity_ok == bool(outcome.validity_ok[row])
        assert scalar.final_spread == outcome.final_spread[row]
        for column, node in enumerate(engine.nodes):
            if node in faulty:
                continue
            assert scalar.final_values[node] == outcome.final_states[row, column]


@pytest.mark.slow
def test_single_run_seed_matches_scalar_seed_directly():
    """run(rng=seed) mirrors the scalar engine's rng=seed convention exactly."""
    graph = complete_graph(7)
    inputs = linear_ramp_inputs(graph.nodes)
    for seed in range(5):
        scalar = PartiallyAsynchronousEngine(
            graph,
            TrimmedMeanRule(2),
            faulty={0, 1},
            adversary=ExtremePushStrategy(1.0),
            config=SimulationConfig(max_rounds=60, tolerance=1e-8),
            max_delay=2,
            update_probability=0.8,
            rng=seed,
        ).run(inputs)
        vector = run_vectorized_async(
            graph,
            TrimmedMeanRule(2),
            inputs,
            faulty={0, 1},
            adversary=ExtremePushStrategy(1.0),
            max_delay=2,
            update_probability=0.8,
            max_rounds=60,
            tolerance=1e-8,
            rng=seed,
        )
        assert scalar.final_values == vector.final_values
        assert scalar.rounds_executed == vector.rounds_executed


#: The four tiers of the NaN / ±inf pins: both synchronous and both
#: partially asynchronous engines.
ALL_TIERS = ("scalar", "vectorized", "scalar-async", "vectorized-async")


def _run_tier(tier, value, rounds=20):
    graph = core_network(7, 1)
    inputs = linear_ramp_inputs(graph.nodes)
    options = dict(
        faulty={6}, adversary=StaticValueStrategy(value), max_rounds=rounds
    )
    if tier in ("scalar", "vectorized"):
        return run_sync_engine(tier, graph, TrimmedMeanRule(1), inputs, **options)
    if tier == "scalar-async":
        return run_partially_asynchronous(
            graph, TrimmedMeanRule(1), inputs, max_delay=1, rng=3, **options
        )
    return run_vectorized_async(
        graph, TrimmedMeanRule(1), inputs, max_delay=1, rng=3, **options
    )


@pytest.mark.parametrize("tier", ALL_TIERS)
def test_every_tier_refuses_a_nan_from_a_byzantine_strategy(tier):
    """NumPy sorts NaN last and Python's ``sorted`` anywhere, so no two
    tiers could agree on it: each refuses, naming strategy and channel."""
    with pytest.raises(SimulationError, match=r"static-value.*NaN on channel 6 -> 0"):
        _run_tier(tier, float("nan"))


@pytest.mark.parametrize("value", [float("inf"), float("-inf")], ids=["inf", "-inf"])
def test_every_tier_agrees_on_an_infinite_byzantine_value(value):
    """±inf is ordered, so the trim removes it on every tier alike."""
    synchronous = [_run_tier(tier, value) for tier in ALL_TIERS[:2]]
    asynchronous = [_run_tier(tier, value) for tier in ALL_TIERS[2:]]
    for pair in (synchronous, asynchronous):
        reference, candidate = pair
        assert reference.final_values == candidate.final_values
        assert reference.history == candidate.history
        assert all(np.isfinite(list(reference.final_values.values())))
    graph = core_network(7, 1)
    report = cross_check_engines(
        graph,
        TrimmedMeanRule(1),
        linear_ramp_inputs(graph.nodes),
        {6},
        StaticValueStrategy(value),
        rounds=20,
    )
    assert report.identical
