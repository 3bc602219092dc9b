"""Seeded metamorphic/property tests for the simulation engines.

Three families of properties, no new dependencies:

* **Relabeling** — renaming nodes through an order-preserving bijection
  permutes every trace consistently (the RNG-stream contract draws in
  ``repr``-sorted order, so order-preserving maps keep the streams aligned).
* **Affine equivalence** — the trimmed rules are translation- and
  positive-scale-equivariant, so affinely shifting all inputs affinely
  shifts every fault-free state of every round.
* **Hull invariants** — every engine tier (synchronous and asynchronous)
  keeps every fault-free value inside the initial fault-free hull at every
  recorded round, even under the extreme-pushing adversary.
* **Float32 tolerance contract** — the batch engine's ``dtype=float32``
  tier is not bit-identical to float64, but hull containment and the
  monotone nesting of the fault-free hull hold *exactly* (no epsilon) at
  float32, and float32 trajectories stay close to their float64 twins.
  The contract is documented in ``docs/performance.md``.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    SYNC_ENGINE_KINDS,
    make_scalar_adversary,
    run_sync_engine,
)
from repro.adversary import ExtremePushStrategy, StaticValueStrategy
from repro.algorithms import TrimmedMeanRule, TrimmedMidpointRule
from repro.graphs import Digraph, complete_graph, core_network
from repro.simulation import (
    SimulationConfig,
    VectorizedEngine,
    run_partially_asynchronous,
    run_vectorized_async,
    uniform_random_inputs,
)
from repro.simulation.vectorized import random_input_matrix


def _relabelled(graph: Digraph, mapping) -> Digraph:
    return Digraph(
        nodes=[mapping[node] for node in graph.nodes],
        edges=[(mapping[s], mapping[t]) for s, t in graph.edges],
    )


class TestRelabeling:
    """Order-preserving node renames permute traces consistently."""

    @pytest.mark.parametrize("engine_kind", SYNC_ENGINE_KINDS)
    def test_sync_trace_permutes(self, engine_kind):
        graph = core_network(8, 1)
        # repr-order preserving: 0..7 -> "n0".."n7".
        mapping = {i: f"n{i}" for i in range(8)}
        inputs = uniform_random_inputs(graph.nodes, rng=2)
        kwargs = dict(
            faulty=frozenset({7}),
            max_rounds=20,
            tolerance=0.0,
            record_history=True,
        )
        base = run_sync_engine(
            engine_kind,
            graph,
            TrimmedMeanRule(1),
            inputs,
            adversary=make_scalar_adversary("extreme-push"),
            **kwargs,
        )
        renamed = run_sync_engine(
            engine_kind,
            _relabelled(graph, mapping),
            TrimmedMeanRule(1),
            {mapping[node]: value for node, value in inputs.items()},
            adversary=make_scalar_adversary("extreme-push"),
            **{**kwargs, "faulty": frozenset({mapping[7]})},
        )
        assert len(base.history) == len(renamed.history)
        for base_record, renamed_record in zip(base.history, renamed.history):
            for node in graph.nodes:
                assert base_record.values[node] == renamed_record.values[mapping[node]]

    @pytest.mark.parametrize("delay,probability", [(0, 1.0), (2, 0.7)])
    def test_async_trace_permutes(self, delay, probability):
        graph = complete_graph(7)
        # repr-order preserving: 0..6 -> "n0".."n6".
        mapping = {i: f"n{i}" for i in range(7)}
        inputs = uniform_random_inputs(graph.nodes, rng=2)
        relabelled_inputs = {mapping[node]: value for node, value in inputs.items()}
        base = run_partially_asynchronous(
            graph,
            TrimmedMeanRule(2),
            inputs,
            faulty={0, 1},
            adversary=ExtremePushStrategy(1.0),
            max_delay=delay,
            update_probability=probability,
            max_rounds=40,
            tolerance=1e-9,
            rng=5,
        )
        renamed = run_partially_asynchronous(
            _relabelled(graph, mapping),
            TrimmedMeanRule(2),
            relabelled_inputs,
            faulty={mapping[0], mapping[1]},
            adversary=ExtremePushStrategy(1.0),
            max_delay=delay,
            update_probability=probability,
            max_rounds=40,
            tolerance=1e-9,
            rng=5,
        )
        assert len(base.history) == len(renamed.history)
        for base_record, renamed_record in zip(base.history, renamed.history):
            for node in graph.nodes:
                assert base_record.values[node] == renamed_record.values[mapping[node]]

    def test_vectorized_async_trace_permutes(self):
        graph = core_network(8, 1)
        mapping = {i: f"v{i}" for i in range(8)}
        inputs = uniform_random_inputs(graph.nodes, rng=3)
        base = run_vectorized_async(
            graph,
            TrimmedMeanRule(1),
            inputs,
            faulty={7},
            adversary=StaticValueStrategy(40.0),
            max_delay=2,
            max_rounds=30,
            tolerance=1e-9,
            rng=9,
        )
        renamed = run_vectorized_async(
            _relabelled(graph, mapping),
            TrimmedMeanRule(1),
            {mapping[node]: value for node, value in inputs.items()},
            faulty={mapping[7]},
            adversary=StaticValueStrategy(40.0),
            max_delay=2,
            max_rounds=30,
            tolerance=1e-9,
            rng=9,
        )
        for base_record, renamed_record in zip(base.history, renamed.history):
            for node in graph.nodes:
                assert base_record.values[node] == renamed_record.values[mapping[node]]


class TestAffineEquivalence:
    """Affine input shifts affinely shift every fault-free state."""

    @pytest.mark.parametrize("engine_kind", ["scalar", "vectorized", "numpy"])
    @pytest.mark.parametrize("scale,shift", [(2.0, 5.0), (0.5, -3.0), (10.0, 0.0)])
    def test_synchronous(self, scale, shift, engine_kind):
        graph = complete_graph(6)
        inputs = uniform_random_inputs(graph.nodes, rng=4)
        transformed = {node: scale * value + shift for node, value in inputs.items()}
        base = run_sync_engine(
            engine_kind, graph, TrimmedMeanRule(1), inputs,
            max_rounds=15, tolerance=0.0, stop_on_convergence=False,
        )
        moved = run_sync_engine(
            engine_kind, graph, TrimmedMeanRule(1), transformed,
            max_rounds=15, tolerance=0.0, stop_on_convergence=False,
        )
        for base_record, moved_record in zip(base.history, moved.history):
            for node in graph.nodes:
                assert moved_record.values[node] == pytest.approx(
                    scale * base_record.values[node] + shift, abs=1e-9 * max(1, scale)
                )

    @pytest.mark.parametrize("rule_factory", [TrimmedMeanRule, TrimmedMidpointRule])
    def test_asynchronous_fault_free(self, rule_factory):
        graph = complete_graph(6)
        scale, shift = 3.0, -2.0
        inputs = uniform_random_inputs(graph.nodes, rng=6)
        transformed = {node: scale * value + shift for node, value in inputs.items()}
        # Same seed -> same delay draws and activation coins: the executions
        # are structurally identical, only the values move affinely.
        base = run_vectorized_async(
            graph, rule_factory(1), inputs, max_delay=2, update_probability=0.8,
            max_rounds=25, tolerance=0.0, rng=12,
        )
        moved = run_vectorized_async(
            graph, rule_factory(1), transformed, max_delay=2, update_probability=0.8,
            max_rounds=25, tolerance=0.0, rng=12,
        )
        for base_record, moved_record in zip(base.history, moved.history):
            for node in graph.nodes:
                assert moved_record.values[node] == pytest.approx(
                    scale * base_record.values[node] + shift, abs=1e-8
                )


class TestHullInvariants:
    """Initial-hull validity holds at every recorded round of both engines."""

    @pytest.mark.parametrize("runner", [run_partially_asynchronous, run_vectorized_async])
    @pytest.mark.parametrize("delay,probability", [(1, 1.0), (3, 0.6)])
    def test_fault_free_values_stay_in_initial_hull(self, runner, delay, probability):
        graph = complete_graph(7)
        faulty = frozenset({0, 1})
        inputs = uniform_random_inputs(graph.nodes, rng=8)
        hull_low = min(v for n, v in inputs.items() if n not in faulty)
        hull_high = max(v for n, v in inputs.items() if n not in faulty)
        outcome = runner(
            graph,
            TrimmedMeanRule(2),
            inputs,
            faulty=faulty,
            adversary=ExtremePushStrategy(delta=10.0),
            max_delay=delay,
            update_probability=probability,
            max_rounds=150,
            tolerance=1e-6,
            rng=31,
        )
        assert outcome.validity_ok
        assert outcome.history, "history must be recorded for this property"
        for record in outcome.history:
            for node, value in record.values.items():
                if node in faulty:
                    continue
                assert hull_low - 1e-9 <= value <= hull_high + 1e-9

    @pytest.mark.parametrize("engine_kind", SYNC_ENGINE_KINDS)
    def test_sync_engines_stay_in_initial_hull(self, engine_kind):
        graph = core_network(10, 2)
        faulty = frozenset({8, 9})
        inputs = uniform_random_inputs(graph.nodes, rng=14)
        hull_low = min(v for n, v in inputs.items() if n not in faulty)
        hull_high = max(v for n, v in inputs.items() if n not in faulty)
        outcome = run_sync_engine(
            engine_kind,
            graph,
            TrimmedMeanRule(2),
            inputs,
            faulty=faulty,
            adversary=ExtremePushStrategy(delta=10.0),
            max_rounds=100,
            tolerance=1e-6,
        )
        assert outcome.validity_ok
        assert outcome.history
        for record in outcome.history:
            for node, value in record.values.items():
                if node in faulty:
                    continue
                assert hull_low - 1e-9 <= value <= hull_high + 1e-9


class TestFloat32Contract:
    """The batch engine's float32 tier keeps the paper's invariants exactly.

    float32 runs are *not* bit-identical to float64 runs — that is the
    documented trade (see ``docs/performance.md``) — but the contract is
    that the two validity-bearing properties hold with **zero** epsilon:

    * **hull containment**: every fault-free value of every round lies
      inside the initial fault-free hull (as packed, i.e. after the inputs
      themselves round to float32);
    * **monotone hull nesting**: the fault-free ``[min, max]`` interval of
      round ``t + 1`` is contained in round ``t``'s.

    Both follow from the kernel's clamp of the trimmed-mean into the local
    trim hull (a mathematical no-op) and from the midpoint identity
    ``a <= (a + b) / 2 <= b`` holding in round-to-nearest.
    """

    def _engine(self, rule_factory, dtype):
        graph = core_network(12, 2)
        return VectorizedEngine(
            graph,
            rule_factory(2),
            faulty=frozenset({10, 11}),
            adversary=ExtremePushStrategy(delta=25.0),
            config=SimulationConfig(
                max_rounds=60, tolerance=0.0, stop_on_convergence=False
            ),
            dtype=dtype,
        )

    @pytest.mark.parametrize(
        "rule_factory", [TrimmedMeanRule, TrimmedMidpointRule]
    )
    def test_hull_containment_exact_at_float32(self, rule_factory):
        engine = self._engine(rule_factory, np.float32)
        state = engine.pack_inputs(random_input_matrix(engine.nodes, 8, rng=3))
        assert state.dtype == np.float32
        ff = engine._ff_cols
        hull_low = state[:, ff].min(axis=1)
        hull_high = state[:, ff].max(axis=1)
        for round_index in range(1, 41):
            state = engine.step_matrix(state, round_index)
            assert (state[:, ff] >= hull_low[:, None]).all(), round_index
            assert (state[:, ff] <= hull_high[:, None]).all(), round_index

    @pytest.mark.parametrize(
        "rule_factory", [TrimmedMeanRule, TrimmedMidpointRule]
    )
    def test_hull_nesting_monotone_exact_at_float32(self, rule_factory):
        engine = self._engine(rule_factory, np.float32)
        state = engine.pack_inputs(random_input_matrix(engine.nodes, 8, rng=9))
        ff = engine._ff_cols
        low = state[:, ff].min(axis=1)
        high = state[:, ff].max(axis=1)
        for round_index in range(1, 41):
            state = engine.step_matrix(state, round_index)
            new_low = state[:, ff].min(axis=1)
            new_high = state[:, ff].max(axis=1)
            assert (new_low >= low).all(), round_index
            assert (new_high <= high).all(), round_index
            low, high = new_low, new_high

    @pytest.mark.parametrize(
        "rule_factory", [TrimmedMeanRule, TrimmedMidpointRule]
    )
    def test_float32_tracks_float64_trajectory(self, rule_factory):
        """float32 states shadow the float64 run within a few ulps-worth.

        Inputs live in ``[0, 1]``; with the contraction of the trimmed
        rules, accumulated float32 rounding stays far below the 1e-3
        closeness bound used here (the bound is deliberately loose — the
        *exact* guarantees are the hull properties above).
        """
        engines = {
            dtype: self._engine(rule_factory, dtype)
            for dtype in (np.float64, np.float32)
        }
        matrix = random_input_matrix(engines[np.float64].nodes, 4, rng=21)
        states = {
            dtype: engine.pack_inputs(matrix)
            for dtype, engine in engines.items()
        }
        for round_index in range(1, 21):
            for dtype, engine in engines.items():
                states[dtype] = engine.step_matrix(states[dtype], round_index)
        ff = engines[np.float64]._ff_cols
        assert np.allclose(
            states[np.float64][:, ff],
            states[np.float32][:, ff].astype(np.float64),
            atol=1e-3,
            rtol=0.0,
        )
