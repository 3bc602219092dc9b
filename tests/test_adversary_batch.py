"""Parity harness for the batch-native Byzantine strategy library.

Every native :class:`~repro.adversary.vectorized.BatchStrategy` must be

1. **bit-exact** with its :class:`~repro.adversary.vectorized.ScalarStrategyAdapter`
   counterpart at ``B = 1`` — identical trajectories (``==`` on floats, never
   ``approx``) on the synchronous :class:`VectorizedEngine`, the same engine
   under a small plane-tile budget, and the partially asynchronous
   :class:`VectorizedAsyncEngine`;
2. **row-for-row reproducible** at ``B = 64``: row ``b`` of a batch equals an
   independent ``B = 1`` run of row ``b``'s inputs (and, for randomized
   strategies, row ``b``'s spawned child stream).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import (
    BatchBroadcastConsistentWrapper,
    BatchExtremePushStrategy,
    BatchFrozenValueStrategy,
    BatchRandomNoiseStrategy,
    BatchSplitBrainStrategy,
    BatchStaticValueStrategy,
    BroadcastConsistentStrategy,
    ExtremePushStrategy,
    FrozenValueStrategy,
    RandomNoiseStrategy,
    ScalarStrategyAdapter,
    SplitBrainStrategy,
    StaticValueStrategy,
)
from repro.algorithms import TrimmedMeanRule
from repro.conditions import chord_n7_f2_witness
from repro.exceptions import InvalidParameterError
from repro.graphs import chord_network, core_network
from repro.simulation import (
    SimulationConfig,
    VectorizedAsyncEngine,
    spawn_row_generators,
)
from repro.simulation.vectorized import VectorizedEngine, random_input_matrix

SEED = 123


def _spawned(batch: int) -> list[np.random.Generator]:
    return spawn_row_generators(SEED, batch)


def _strategy_pair(kind: str, batch: int, row: int | None = None):
    """Return ``(native BatchStrategy, adapter BatchStrategy)`` for one kind.

    ``row=None`` builds the pair for a full batch of ``batch`` rows (per-row
    spawned streams / factory mode); an integer builds the ``B = 1`` pair for
    that row, seeded with the identical child stream on both sides.
    """
    witness = chord_n7_f2_witness()
    if kind == "static":
        return (
            BatchStaticValueStrategy(250.0),
            ScalarStrategyAdapter(strategy=StaticValueStrategy(250.0)),
        )
    if kind == "frozen":
        return (
            BatchFrozenValueStrategy(),
            ScalarStrategyAdapter(factory=FrozenValueStrategy),
        )
    if kind == "split-brain":
        return (
            BatchSplitBrainStrategy(witness, 0.0, 1.0, margin=0.5),
            ScalarStrategyAdapter(
                strategy=SplitBrainStrategy(witness, 0.0, 1.0, margin=0.5)
            ),
        )
    if kind == "noise":
        if row is None:
            generators = _spawned(batch)
            scalar_streams = iter(_spawned(batch))
            return (
                BatchRandomNoiseStrategy(-5.0, 5.0, rng=generators),
                ScalarStrategyAdapter(
                    factory=lambda: RandomNoiseStrategy(
                        -5.0, 5.0, rng=next(scalar_streams)
                    )
                ),
            )
        return (
            BatchRandomNoiseStrategy(-5.0, 5.0, rng=[_spawned(batch)[row]]),
            ScalarStrategyAdapter(
                strategy=RandomNoiseStrategy(-5.0, 5.0, rng=_spawned(batch)[row])
            ),
        )
    if kind == "broadcast-extreme":
        return (
            BatchBroadcastConsistentWrapper(BatchExtremePushStrategy(2.0)),
            ScalarStrategyAdapter(
                strategy=BroadcastConsistentStrategy(ExtremePushStrategy(2.0))
            ),
        )
    if kind == "broadcast-noise":
        if row is None:
            generators = _spawned(batch)
            scalar_streams = iter(_spawned(batch))
            return (
                BatchBroadcastConsistentWrapper(
                    BatchRandomNoiseStrategy(-3.0, 3.0, rng=generators)
                ),
                ScalarStrategyAdapter(
                    factory=lambda: BroadcastConsistentStrategy(
                        RandomNoiseStrategy(-3.0, 3.0, rng=next(scalar_streams))
                    )
                ),
            )
        return (
            BatchBroadcastConsistentWrapper(
                BatchRandomNoiseStrategy(-3.0, 3.0, rng=[_spawned(batch)[row]])
            ),
            ScalarStrategyAdapter(
                strategy=BroadcastConsistentStrategy(
                    RandomNoiseStrategy(-3.0, 3.0, rng=_spawned(batch)[row])
                )
            ),
        )
    raise AssertionError(kind)


KINDS = [
    "static",
    "frozen",
    "split-brain",
    "noise",
    "broadcast-extreme",
    "broadcast-noise",
]


def _scenario(kind: str):
    """Return ``(graph, rule, faulty)``: the chord counter-example for the
    split-brain attack (its witness pins the fault set), a core network for
    everything else."""
    if kind == "split-brain":
        witness = chord_n7_f2_witness()
        return chord_network(7, 2), TrimmedMeanRule(2), witness.faulty
    return core_network(8, 2), TrimmedMeanRule(2), frozenset({6, 7})


def _make_engine(engine_kind: str, graph, rule, faulty, adversary, rounds: int):
    config = SimulationConfig(
        max_rounds=rounds,
        tolerance=0.0,
        record_history=False,
        stop_on_convergence=False,
    )
    if engine_kind == "sync":
        return VectorizedEngine(
            graph, rule, faulty=faulty, adversary=adversary, config=config
        )
    if engine_kind == "tiled":
        # Tiny tile budget: exercises the tiled kernel path under every
        # strategy kind while the full-batch adversary contract holds.
        return VectorizedEngine(
            graph,
            rule,
            faulty=faulty,
            adversary=adversary,
            config=config,
            max_plane_bytes=2048,
        )
    return VectorizedAsyncEngine(
        graph,
        rule,
        faulty=faulty,
        adversary=adversary,
        config=config,
        max_delay=2,
        update_probability=1.0,
    )


def _run_batch(engine_kind: str, engine, matrix):
    if engine_kind in ("sync", "tiled"):
        return engine.run_batch(matrix)
    # Engine-level delay draws follow the same spawned-stream contract.
    return engine.run_batch(matrix, rng=spawn_row_generators(7, matrix.shape[0]))


@pytest.mark.parametrize("engine_kind", ["sync", "tiled", "async"])
@pytest.mark.parametrize("kind", KINDS)
def test_native_bit_exact_with_adapter_at_b1(kind, engine_kind):
    """B=1: native trajectory == adapter trajectory, float-for-float."""
    graph, rule, faulty = _scenario(kind)
    native, adapter = _strategy_pair(kind, batch=1, row=0)
    rounds = 20
    engines = [
        _make_engine(engine_kind, graph, rule, faulty, adversary, rounds)
        for adversary in (native, adapter)
    ]
    matrix = random_input_matrix(engines[0].nodes, 1, rng=SEED)
    outcomes = [
        _run_batch(engine_kind, engine, matrix.copy()) for engine in engines
    ]
    assert np.array_equal(outcomes[0].final_states, outcomes[1].final_states)
    assert np.array_equal(outcomes[0].validity_ok, outcomes[1].validity_ok)
    assert np.array_equal(outcomes[0].final_spread, outcomes[1].final_spread)


@pytest.mark.parametrize("engine_kind", ["sync", "tiled", "async"])
@pytest.mark.parametrize("kind", KINDS)
def test_native_rows_reproducible_at_b64(kind, engine_kind):
    """B=64: every row equals the B=1 run seeded with that row's stream."""
    batch = 64
    graph, rule, faulty = _scenario(kind)
    native, _ = _strategy_pair(kind, batch=batch)
    rounds = 8
    engine = _make_engine(engine_kind, graph, rule, faulty, native, rounds)
    matrix = random_input_matrix(engine.nodes, batch, rng=SEED)
    outcome = _run_batch(engine_kind, engine, matrix)

    for row in [0, 1, 31, 63]:
        row_native, _ = _strategy_pair(kind, batch=batch, row=row)
        single = _make_engine(engine_kind, graph, rule, faulty, row_native, rounds)
        if engine_kind in ("sync", "tiled"):
            single_outcome = single.run_batch(matrix[row : row + 1].copy())
        else:
            single_outcome = single.run_batch(
                matrix[row : row + 1].copy(),
                rng=[spawn_row_generators(7, batch)[row]],
            )
        assert np.array_equal(
            single_outcome.final_states[0], outcome.final_states[row]
        ), f"row {row} diverged"
        assert single_outcome.final_spread[0] == outcome.final_spread[row]
        assert bool(single_outcome.validity_ok[0]) == bool(outcome.validity_ok[row])


class TestNativeStrategyUnits:
    def test_static_fills_channels_and_nominals(self):
        graph = core_network(7, 2)
        engine = VectorizedEngine(
            graph,
            TrimmedMeanRule(2),
            faulty={5, 6},
            adversary=BatchStaticValueStrategy(9.0),
            config=SimulationConfig(max_rounds=3, stop_on_convergence=False),
        )
        matrix = random_input_matrix(engine.nodes, 4, rng=0)
        stepped = engine.step_matrix(matrix, 1)
        faulty_cols = [i for i, node in enumerate(engine.nodes) if node in {5, 6}]
        assert (stepped[:, faulty_cols] == 9.0).all()

    def test_frozen_rejects_batch_resize(self):
        graph = core_network(7, 2)
        strategy = BatchFrozenValueStrategy()
        engine = VectorizedEngine(
            graph,
            TrimmedMeanRule(2),
            faulty={5, 6},
            adversary=strategy,
            config=SimulationConfig(max_rounds=2, stop_on_convergence=False),
        )
        engine.run_batch(random_input_matrix(engine.nodes, 4, rng=0))
        with pytest.raises(InvalidParameterError):
            engine.run_batch(random_input_matrix(engine.nodes, 8, rng=0))

    def test_noise_rejects_batch_resize(self):
        graph = core_network(7, 2)
        strategy = BatchRandomNoiseStrategy(-1.0, 1.0, rng=0)
        engine = VectorizedEngine(
            graph,
            TrimmedMeanRule(2),
            faulty={5, 6},
            adversary=strategy,
            config=SimulationConfig(max_rounds=2, stop_on_convergence=False),
        )
        engine.run_batch(random_input_matrix(engine.nodes, 4, rng=0))
        with pytest.raises(InvalidParameterError):
            engine.run_batch(random_input_matrix(engine.nodes, 8, rng=0))

    def test_noise_invalid_bounds(self):
        with pytest.raises(InvalidParameterError):
            BatchRandomNoiseStrategy(2.0, -2.0)

    def test_split_brain_invalid_parameters(self):
        witness = chord_n7_f2_witness()
        with pytest.raises(InvalidParameterError):
            BatchSplitBrainStrategy(witness, 1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            BatchSplitBrainStrategy(witness, 0.0, 1.0, margin=0.0)

    def test_split_brain_recommended_inputs_match_scalar(self):
        witness = chord_n7_f2_witness()
        native = BatchSplitBrainStrategy(witness, 0.0, 1.0)
        scalar = SplitBrainStrategy(witness, 0.0, 1.0)
        assert native.recommended_inputs() == scalar.recommended_inputs()

    def test_broadcast_wrapper_equalizes_sender_channels(self):
        graph = core_network(8, 2)
        faulty = frozenset({6, 7})
        wrapper = BatchBroadcastConsistentWrapper(BatchExtremePushStrategy(1.0))
        engine = VectorizedEngine(
            graph,
            TrimmedMeanRule(2),
            faulty=faulty,
            adversary=wrapper,
            config=SimulationConfig(max_rounds=2, stop_on_convergence=False),
        )
        matrix = random_input_matrix(engine.nodes, 3, rng=1)
        context = engine._context(matrix, 1)
        values = wrapper.edge_values(context)
        by_sender: dict[object, list[int]] = {}
        for position, (sender, _receiver) in enumerate(context.edge_nodes):
            by_sender.setdefault(sender, []).append(position)
        for channels in by_sender.values():
            column = values[:, channels]
            assert (column == column[:, :1]).all()
        assert wrapper.name == "broadcast(batch-extreme-push)"
        assert wrapper.inner.name == "batch-extreme-push"
