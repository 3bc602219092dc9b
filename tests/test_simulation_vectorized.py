"""Tests for the vectorized engine, its batch runs and the batch adversary layer.

The central property: :class:`~repro.simulation.vectorized.VectorizedEngine`
is *bit-for-bit* equivalent to
:class:`~repro.simulation.engine.SynchronousEngine` — same per-round states,
same traces, same outcomes — across random small digraphs, with and without
Byzantine nodes, for every bridged adversary strategy.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_batch_engine
from repro.adversary.selection import random_fault_set
from repro.adversary.strategies import (
    ExtremePushStrategy,
    FrozenValueStrategy,
    RandomNoiseStrategy,
    StaticValueStrategy,
)
from repro.adversary.vectorized import (
    BatchExtremePushStrategy,
    BatchPassiveStrategy,
    BatchStaticValueStrategy,
    ScalarStrategyAdapter,
    as_batch_strategy,
)
from repro.algorithms.linear import LinearAverageRule
from repro.algorithms.trimmed_mean import TrimmedMeanRule, TrimmedMidpointRule
from repro.exceptions import (
    FaultBudgetExceededError,
    InvalidParameterError,
    SimulationError,
)
from repro.graphs.generators import complete_graph, core_network
from repro.graphs.random_graphs import k_in_regular_digraph, random_core_like_network
from repro.simulation.engine import SimulationConfig, SynchronousEngine, run_synchronous
from repro.simulation.inputs import uniform_random_inputs
from repro.simulation.vectorized import (
    VectorizedEngine,
    cross_check_engines,
    random_input_matrix,
    run_vectorized,
)


class TestConstruction:
    def test_unsupported_rule_rejected(self):
        with pytest.raises(InvalidParameterError, match="no kernel"):
            VectorizedEngine(complete_graph(4), LinearAverageRule(0))

    def test_unknown_faulty_rejected(self):
        with pytest.raises(InvalidParameterError):
            VectorizedEngine(complete_graph(4), TrimmedMeanRule(1), faulty={9})

    def test_all_faulty_rejected(self):
        with pytest.raises(InvalidParameterError):
            VectorizedEngine(complete_graph(1), TrimmedMeanRule(0), faulty={0})

    def test_fault_budget_enforced(self):
        with pytest.raises(FaultBudgetExceededError):
            VectorizedEngine(complete_graph(7), TrimmedMeanRule(1), faulty={0, 1})

    def test_bad_adversary_type_rejected(self):
        with pytest.raises(InvalidParameterError):
            as_batch_strategy("not a strategy")

    def test_adapter_requires_exactly_one_source(self):
        with pytest.raises(InvalidParameterError):
            ScalarStrategyAdapter()
        with pytest.raises(InvalidParameterError):
            ScalarStrategyAdapter(
                strategy=StaticValueStrategy(1.0),
                factory=lambda: StaticValueStrategy(1.0),
            )

    def test_pack_inputs_validates_shape(self):
        engine = VectorizedEngine(complete_graph(4), TrimmedMeanRule(1))
        with pytest.raises(InvalidParameterError):
            engine.pack_inputs(np.zeros((2, 3)))
        with pytest.raises(InvalidParameterError):
            engine.pack_inputs({0: 1.0})  # missing nodes

    def test_run_rejects_multi_row_matrix(self):
        engine = VectorizedEngine(complete_graph(4), TrimmedMeanRule(1))
        with pytest.raises(InvalidParameterError, match="run_batch"):
            engine.run(np.zeros((3, 4)))  # type: ignore[arg-type]


class TestScalarEquivalence:
    """Round-for-round bit-exactness against the scalar engine."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fault_free_random_digraphs(self, seed):
        graph = k_in_regular_digraph(8, 3, rng=seed)
        inputs = uniform_random_inputs(graph.nodes, rng=seed)
        report = cross_check_engines(
            graph, TrimmedMeanRule(0), inputs, rounds=25
        )
        assert report.identical, report

    @pytest.mark.parametrize("seed", range(6))
    def test_byzantine_random_digraphs(self, seed):
        f = 1 + seed % 2
        graph = random_core_like_network(3 * f + 4, f, rng=seed)
        faulty = random_fault_set(graph, f, rng=seed)
        inputs = uniform_random_inputs(graph.nodes, rng=seed + 100)
        report = cross_check_engines(
            graph,
            TrimmedMeanRule(f),
            inputs,
            faulty=faulty,
            adversary=ExtremePushStrategy(delta=1.5),
            rounds=25,
        )
        assert report.identical, report

    @pytest.mark.parametrize(
        "adversary_factory",
        [
            lambda: ExtremePushStrategy(2.0),
            lambda: StaticValueStrategy(99.0),
            lambda: FrozenValueStrategy(),
            lambda: RandomNoiseStrategy(-10.0, 10.0, rng=13),
        ],
        ids=["extreme-push", "static", "frozen", "random-noise"],
    )
    def test_strategy_zoo_equivalence(self, adversary_factory):
        graph = core_network(10, 3)
        faulty = random_fault_set(graph, 3, rng=4)
        inputs = uniform_random_inputs(graph.nodes, rng=4)
        report = cross_check_engines(
            graph,
            TrimmedMeanRule(3),
            inputs,
            faulty=faulty,
            adversary=adversary_factory(),
            rounds=25,
        )
        assert report.identical, report

    def test_midpoint_rule_equivalence(self):
        graph = core_network(7, 2)
        faulty = random_fault_set(graph, 2, rng=5)
        inputs = uniform_random_inputs(graph.nodes, rng=5)
        report = cross_check_engines(
            graph,
            TrimmedMidpointRule(2),
            inputs,
            faulty=faulty,
            adversary=ExtremePushStrategy(1.0),
            rounds=25,
        )
        assert report.identical, report

    def test_single_node_graph(self):
        report = cross_check_engines(
            complete_graph(1), TrimmedMeanRule(0), {0: 0.25}, rounds=3
        )
        assert report.identical

    def test_full_run_produces_identical_outcome_and_trace(self):
        graph = core_network(10, 3)
        faulty = random_fault_set(graph, 3, rng=6)
        inputs = uniform_random_inputs(graph.nodes, rng=6)
        scalar = run_synchronous(
            graph,
            TrimmedMeanRule(3),
            inputs,
            faulty=faulty,
            adversary=ExtremePushStrategy(1.0),
        )
        vectorized = run_vectorized(
            graph,
            TrimmedMeanRule(3),
            inputs,
            faulty=faulty,
            adversary=ExtremePushStrategy(1.0),
        )
        assert vectorized.converged == scalar.converged
        assert vectorized.rounds_executed == scalar.rounds_executed
        assert vectorized.final_spread == scalar.final_spread
        assert vectorized.initial_spread == scalar.initial_spread
        assert vectorized.validity_ok == scalar.validity_ok
        assert vectorized.final_values == scalar.final_values
        assert len(vectorized.history) == len(scalar.history)
        for mine, reference in zip(vectorized.history, scalar.history):
            assert mine.values == reference.values

    def test_batch_extreme_push_matches_scalar_extreme_push(self):
        graph = core_network(10, 3)
        faulty = random_fault_set(graph, 3, rng=7)
        inputs = uniform_random_inputs(graph.nodes, rng=7)
        scalar = run_synchronous(
            graph,
            TrimmedMeanRule(3),
            inputs,
            faulty=faulty,
            adversary=ExtremePushStrategy(1.5),
        )
        batched = VectorizedEngine(
            graph,
            TrimmedMeanRule(3),
            faulty=faulty,
            adversary=BatchExtremePushStrategy(1.5),
        ).run(inputs)
        assert batched.final_values == scalar.final_values
        assert batched.rounds_executed == scalar.rounds_executed

    def test_run_vectorized_after_cross_check(self):
        graph = core_network(7, 2)
        faulty = random_fault_set(graph, 2, rng=8)
        inputs = uniform_random_inputs(graph.nodes, rng=8)
        adversary = ExtremePushStrategy(1.0)
        report = cross_check_engines(
            graph, TrimmedMeanRule(2), inputs, faulty=faulty, adversary=adversary
        )
        assert report.identical, report
        outcome = run_vectorized(
            graph, TrimmedMeanRule(2), inputs, faulty=faulty, adversary=adversary
        )
        assert outcome.validity_ok


def uniform_batch(engine: VectorizedEngine, batch: int, rng: int):
    """Run ``batch`` executions with i.i.d. uniform inputs in ``[0, 1]``."""
    return engine.run_batch(random_input_matrix(engine.nodes, batch, rng=rng))


class TestBatchRuns:
    def test_determinism_under_fixed_seed(self):
        graph = core_network(10, 3)
        faulty = random_fault_set(graph, 3, rng=9)

        def fresh() -> VectorizedEngine:
            return VectorizedEngine(
                graph,
                TrimmedMeanRule(3),
                faulty=faulty,
                adversary=BatchExtremePushStrategy(1.0),
            )

        first = uniform_batch(fresh(), 24, rng=21)
        second = uniform_batch(fresh(), 24, rng=21)
        assert np.array_equal(first.final_states, second.final_states)
        assert np.array_equal(first.rounds_executed, second.rounds_executed)
        assert np.array_equal(first.converged, second.converged)

    @pytest.mark.parametrize("engine_kind", ["vectorized", "tiled"])
    def test_rows_freezing_at_different_rounds_match_the_scalar_engine(
        self, engine_kind
    ):
        # Row r starts with a spread of 10**-r, so the rows reach the
        # tolerance, and freeze, at different rounds; before the first
        # freeze every row is active.
        graph = core_network(9, 2)
        faulty = {7, 8}
        config = SimulationConfig(max_rounds=200, tolerance=1e-9)
        engine = make_batch_engine(
            engine_kind,
            graph,
            TrimmedMeanRule(2),
            faulty=faulty,
            adversary=BatchStaticValueStrategy(0.25),
            config=config,
        )
        matrix = random_input_matrix(engine.nodes, 6, rng=4)
        matrix *= 10.0 ** -np.arange(6)[:, None]
        outcome = engine.run_batch(matrix)
        assert len(set(outcome.rounds_executed.tolist())) == 6
        assert outcome.converged.all()
        for row in range(6):
            scalar = SynchronousEngine(
                graph,
                TrimmedMeanRule(2),
                faulty=faulty,
                adversary=StaticValueStrategy(0.25),
                config=config,
            ).run(dict(zip(engine.nodes, matrix[row].tolist())))
            assert scalar.rounds_executed == outcome.rounds_executed[row]
            for column, node in enumerate(engine.nodes):
                if node not in faulty:
                    assert scalar.final_values[node] == outcome.final_states[row, column]

    def test_batch_rows_match_independent_runs(self):
        graph = core_network(7, 2)
        faulty = random_fault_set(graph, 2, rng=10)

        def engine() -> VectorizedEngine:
            return VectorizedEngine(
                graph,
                TrimmedMeanRule(2),
                faulty=faulty,
                adversary=BatchExtremePushStrategy(1.0),
            )

        matrix = random_input_matrix(engine().nodes, 6, rng=11)
        batched = engine().run_batch(matrix)
        for row in range(6):
            single = engine().run_batch(matrix[row : row + 1])
            assert np.array_equal(single.final_states[0], batched.final_states[row])
            assert single.rounds_executed[0] == batched.rounds_executed[row]
            assert single.converged[0] == batched.converged[row]

    def test_outcome_summaries(self):
        graph = core_network(7, 2)
        outcome = uniform_batch(VectorizedEngine(graph, TrimmedMeanRule(2)), 8, rng=3)
        assert outcome.batch_size == 8
        assert outcome.fraction_converged == 1.0
        assert outcome.all_valid
        assert outcome.mean_rounds_to_convergence() > 0
        assert outcome.spread_history is not None
        # Spreads never increase under a passive adversary.
        diffs = np.diff(outcome.spread_history, axis=0)
        assert (diffs <= 1e-9).all()

    def test_no_history_when_disabled(self):
        graph = complete_graph(5)
        engine = VectorizedEngine(
            graph,
            TrimmedMeanRule(1),
            config=SimulationConfig(record_history=False),
        )
        outcome = uniform_batch(engine, 4, rng=2)
        assert outcome.spread_history is None

    def test_converged_rows_freeze(self):
        # A batch mixing an already-agreed row with a spread-out row: the
        # agreed row must report zero rounds and keep its state.
        graph = complete_graph(5)
        engine = VectorizedEngine(graph, TrimmedMeanRule(1))
        agreed = np.full((1, 5), 0.5)
        spread_out = random_input_matrix(engine.nodes, 1, rng=14)
        outcome = engine.run_batch(np.vstack([agreed, spread_out]))
        assert outcome.rounds_executed[0] == 0
        assert np.array_equal(outcome.final_states[0], agreed[0])
        assert outcome.rounds_executed[1] > 0

    def test_shared_stateful_strategy_rejected_for_batches(self):
        graph = core_network(7, 2)
        faulty = random_fault_set(graph, 2, rng=12)
        engine = VectorizedEngine(
            graph,
            TrimmedMeanRule(2),
            faulty=faulty,
            adversary=FrozenValueStrategy(),  # batch_safe = False
        )
        with pytest.raises(InvalidParameterError, match="per-execution state"):
            uniform_batch(engine, 3, rng=13)
        # B = 1 (the equivalence mode) stays allowed.
        engine = VectorizedEngine(
            graph,
            TrimmedMeanRule(2),
            faulty=faulty,
            adversary=FrozenValueStrategy(),
        )
        assert uniform_batch(engine, 1, rng=13).all_valid

    def test_adapter_factory_gives_each_row_fresh_state(self):
        graph = core_network(7, 2)
        faulty = random_fault_set(graph, 2, rng=12)
        engine = VectorizedEngine(
            graph,
            TrimmedMeanRule(2),
            faulty=faulty,
            adversary=ScalarStrategyAdapter(factory=FrozenValueStrategy),
        )
        outcome = uniform_batch(engine, 5, rng=13)
        assert outcome.all_valid

    def test_passive_batch_matches_no_adversary(self):
        graph = core_network(7, 2)
        faulty = random_fault_set(graph, 2, rng=15)
        matrix = random_input_matrix(sorted(graph.nodes, key=repr), 4, rng=16)
        with_passive = VectorizedEngine(
            graph,
            TrimmedMeanRule(2),
            faulty=faulty,
            adversary=BatchPassiveStrategy(),
        ).run_batch(matrix)
        default = VectorizedEngine(
            graph, TrimmedMeanRule(2), faulty=faulty
        ).run_batch(matrix)
        assert np.array_equal(with_passive.final_states, default.final_states)


class TestAdversaryContract:
    def test_wrong_edge_value_shape_raises(self):
        class BadStrategy(BatchPassiveStrategy):
            def edge_values(self, context):
                return np.zeros((1, 1))

        graph = core_network(7, 2)
        faulty = random_fault_set(graph, 2, rng=1)
        engine = VectorizedEngine(
            graph, TrimmedMeanRule(2), faulty=faulty, adversary=BadStrategy()
        )
        matrix = random_input_matrix(engine.nodes, 2, rng=1)
        with pytest.raises(SimulationError, match="edge"):
            engine.step_matrix(matrix, 1)

    def test_wrong_nominal_shape_raises(self):
        class BadStrategy(BatchPassiveStrategy):
            def nominal_values(self, context):
                return np.zeros((1, 99))

        graph = core_network(7, 2)
        faulty = random_fault_set(graph, 2, rng=1)
        engine = VectorizedEngine(
            graph, TrimmedMeanRule(2), faulty=faulty, adversary=BadStrategy()
        )
        matrix = random_input_matrix(engine.nodes, 2, rng=1)
        with pytest.raises(SimulationError, match="nominal"):
            engine.step_matrix(matrix, 1)

    def test_cross_check_rejects_batch_strategy(self):
        graph = core_network(7, 2)
        with pytest.raises(InvalidParameterError):
            cross_check_engines(
                graph,
                TrimmedMeanRule(2),
                uniform_random_inputs(graph.nodes, rng=1),
                faulty=random_fault_set(graph, 2, rng=1),
                adversary=BatchExtremePushStrategy(1.0),  # type: ignore[arg-type]
            )


class TestInputMatrix:
    def test_shape_and_determinism(self):
        matrix = random_input_matrix(range(6), 10, rng=5)
        again = random_input_matrix(range(6), 10, rng=5)
        assert matrix.shape == (10, 6)
        assert np.array_equal(matrix, again)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            random_input_matrix(range(3), 0)
        with pytest.raises(InvalidParameterError):
            random_input_matrix(range(3), 2, low=1.0, high=0.0)
