"""Metamorphic and property tests for the dynamic-topology layer.

Four groups of pins:

* **Static-schedule identities** — an engine handed ``StaticSchedule()``
  (or an all-up random schedule) must be bit-identical to one handed no
  schedule at all, across every synchronous tier and both async engines.
* **Masking identities** — under the trimmed-*midpoint* rule (whose
  all-equal update is exact in floating point, unlike the mean's cumsum) a
  node asleep for the whole run is bit-equivalent to masking down every
  edge incident to it; the canonical edge order of
  :class:`~repro.simulation.dynamic.ScheduleLayout` is pinned to
  :func:`~repro.simulation.async_engine.canonical_edge_order`.
* **Participation-aware validity** — the tracker must flag cumulative
  drift a naive per-round-slack check would wave through (the PR 5 drift
  bug, now on the churn axis), must require *exact* state freezing of
  asleep nodes, and must keep sleeping extremes inside the hull so a
  wake-up never counts as a violation.
* **Layout-cache staleness** — a mask-sensitive channel-layout strategy
  must rebuild its layout whenever the round's ``active_edge_mask``
  changes (before the mask keying this returned a stale layout), while the
  shipped mask-insensitive strategies build exactly once per run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import BatchAdversaryContext, ExtremePushStrategy
from repro.adversary.vectorized import _ChannelLayoutStrategy
from repro.algorithms import TrimmedMeanRule, TrimmedMidpointRule
from repro.graphs import chord_network, complete_graph, core_network
from repro.simulation import (
    ComposedSchedule,
    ParticipationValidityTracker,
    PartiallyAsynchronousEngine,
    PeriodicChurnSchedule,
    PeriodicEdgeSchedule,
    RandomChurnSchedule,
    RandomEdgeSchedule,
    ScheduleLayout,
    SimulationConfig,
    StaticSchedule,
    VectorizedAsyncEngine,
    VectorizedEngine,
    canonical_edge_order,
    cross_check_engines,
)
from repro.simulation.metrics import VALIDITY_TOLERANCE

from conftest import SYNC_ENGINE_KINDS, run_sync_engine


def _inputs_for(graph, seed=5):
    rng = np.random.default_rng(seed)
    return {node: float(rng.uniform(-3.0, 7.0)) for node in graph.nodes}


def _histories_equal(first, second) -> bool:
    """Bit-exact comparison of two ConsensusOutcome histories."""
    if len(first) != len(second):
        return False
    for a, b in zip(first, second):
        if a.round_index != b.round_index or a.values != b.values:
            return False
    return True


# ---------------------------------------------------------------------------
# Static-schedule identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine_kind", SYNC_ENGINE_KINDS)
def test_static_schedule_is_bit_identical_to_no_schedule(engine_kind):
    graph = core_network(8, 1)
    inputs = _inputs_for(graph)
    kwargs = dict(
        faulty=frozenset({7}),
        adversary=ExtremePushStrategy(delta=1.5),
        max_rounds=8,
        tolerance=0.0,
        record_history=True,
    )
    bare = run_sync_engine(engine_kind, graph, TrimmedMeanRule(1), inputs, **kwargs)
    pinned = run_sync_engine(
        engine_kind,
        graph,
        TrimmedMeanRule(1),
        inputs,
        schedule=StaticSchedule(),
        **kwargs,
    )
    assert bare.final_values == pinned.final_values
    assert _histories_equal(bare.history, pinned.history)


@pytest.mark.parametrize(
    "schedule",
    [
        RandomEdgeSchedule(p_up=1.0, seed=3),
        RandomChurnSchedule(p_awake=1.0, seed=3),
        ComposedSchedule(
            RandomEdgeSchedule(p_up=1.0, seed=3),
            RandomChurnSchedule(p_awake=1.0, seed=3),
        ),
    ],
    ids=["edges-all-up", "churn-all-awake", "composed-all-up"],
)
def test_all_up_random_schedule_equals_static(schedule):
    graph = complete_graph(6)
    inputs = _inputs_for(graph)
    kwargs = dict(
        faulty=frozenset({0}),
        adversary=ExtremePushStrategy(delta=2.0),
        max_rounds=6,
        tolerance=0.0,
        record_history=True,
    )
    bare = run_sync_engine("vectorized", graph, TrimmedMeanRule(1), inputs, **kwargs)
    masked = run_sync_engine(
        "vectorized", graph, TrimmedMeanRule(1), inputs, schedule=schedule, **kwargs
    )
    assert _histories_equal(bare.history, masked.history)


def test_async_static_schedule_is_bit_identical_to_no_schedule():
    graph = core_network(9, 2)
    inputs = _inputs_for(graph)
    config = SimulationConfig(
        max_rounds=10, tolerance=0.0, record_history=True, stop_on_convergence=False
    )

    def scalar(schedule):
        return PartiallyAsynchronousEngine(
            graph,
            TrimmedMeanRule(2),
            faulty=frozenset({0}),
            adversary=ExtremePushStrategy(delta=1.0),
            config=config,
            max_delay=2,
            update_probability=0.7,
            rng=np.random.default_rng(17),
            schedule=schedule,
        ).run(inputs)

    def vectorized(schedule):
        return VectorizedAsyncEngine(
            graph,
            TrimmedMeanRule(2),
            faulty=frozenset({0}),
            adversary=ExtremePushStrategy(delta=1.0),
            config=config,
            max_delay=2,
            update_probability=0.7,
            schedule=schedule,
        ).run(inputs, rng=np.random.default_rng(17))

    for run in (scalar, vectorized):
        bare = run(None)
        pinned = run(StaticSchedule())
        assert bare.final_values == pinned.final_values
        assert _histories_equal(bare.history, pinned.history)


def test_async_engines_stay_bit_identical_under_masks():
    graph = core_network(9, 2)
    schedule = ComposedSchedule(
        RandomEdgeSchedule(p_up=0.75, seed=5),
        RandomChurnSchedule(p_awake=0.8, seed=5),
    )
    report = cross_check_engines(
        graph=graph,
        rule=TrimmedMeanRule(2),
        inputs=_inputs_for(graph),
        faulty=frozenset({0, 1}),
        adversary=ExtremePushStrategy(delta=1.5),
        config=SimulationConfig(
            max_rounds=12, tolerance=0.0, stop_on_convergence=False
        ),
        max_delay=2,
        update_probability=0.6,
        seed=23,
        schedule=schedule,
    )
    assert report.identical, (
        f"async scalar/vectorized diverged at round "
        f"{report.first_divergence_round}"
    )


# ---------------------------------------------------------------------------
# Masking identities
# ---------------------------------------------------------------------------


def test_schedule_layout_edges_match_canonical_edge_order():
    for graph in (complete_graph(5), core_network(9, 2), chord_network(8, 1)):
        assert ScheduleLayout.for_graph(graph).edges == canonical_edge_order(graph)


@pytest.mark.parametrize("engine_kind", SYNC_ENGINE_KINDS[:3])
def test_asleep_forever_equals_all_incident_edges_down(engine_kind):
    """Sleeping z for the whole run == masking every edge incident to z.

    Receivers self-substitute z's slot in both runs (asleep sender ≡ down
    edge), and z's own update over an all-self-substituted vector is exact
    under the trimmed-*midpoint* rule, so the histories must be
    bit-identical.  (The mean rule's cumsum is not exact on an all-equal
    vector, which is why this identity is midpoint-only.)
    """
    graph = core_network(8, 1)
    z = 3
    incident = tuple(
        edge for edge in canonical_edge_order(graph) if z in edge
    )
    inputs = _inputs_for(graph)
    kwargs = dict(
        faulty=frozenset({7}),
        adversary=ExtremePushStrategy(delta=1.0),
        max_rounds=8,
        tolerance=0.0,
        record_history=True,
    )
    asleep = run_sync_engine(
        engine_kind,
        graph,
        TrimmedMidpointRule(1),
        inputs,
        schedule=PeriodicChurnSchedule([[z]]),
        **kwargs,
    )
    edges_down = run_sync_engine(
        engine_kind,
        graph,
        TrimmedMidpointRule(1),
        inputs,
        schedule=PeriodicEdgeSchedule([incident]),
        **kwargs,
    )
    assert _histories_equal(asleep.history, edges_down.history)
    assert asleep.final_values[z] == inputs[z]


def test_periodic_schedules_cycle_with_the_documented_phase():
    graph = complete_graph(4)
    layout = ScheduleLayout.for_graph(graph)
    schedule = PeriodicEdgeSchedule([layout.edges[:2], ()])
    down_round = schedule.activity(1, layout)
    up_round = schedule.activity(2, layout)
    assert not down_round.edge_up[:2].any()
    assert down_round.edge_up[2:].all()
    assert up_round.is_static
    assert schedule.activity(3, layout).edge_up is not None  # period wraps


def test_random_schedules_are_pure_functions_of_the_round():
    graph = core_network(10, 2)
    layout = ScheduleLayout.for_graph(graph)
    schedule = RandomEdgeSchedule(p_up=0.5, seed=9)
    churn = RandomChurnSchedule(p_awake=0.5, seed=9, always_awake=(0,))
    for round_index in (1, 5, 2, 5, 1):
        again_edges = schedule.activity(round_index, layout)
        again_churn = churn.activity(round_index, layout)
        assert np.array_equal(
            again_edges.edge_up, schedule.activity(round_index, layout).edge_up
        )
        assert np.array_equal(
            again_churn.awake, churn.activity(round_index, layout).awake
        )
        assert again_churn.awake[layout.node_index[0]]


# ---------------------------------------------------------------------------
# Participation-aware validity tracking
# ---------------------------------------------------------------------------


def test_tracker_flags_slow_cumulative_drift_of_a_sleeping_node():
    """Regression: per-round drift below the hull slack must still flag.

    A naive implementation comparing an asleep node's value with per-round
    slack (``abs(diff) <= tolerance``) waves each step through while the
    node drifts by ``rounds x tolerance/2`` in total; the sleep check is
    exact equality, so the very first drifting round must flag.
    """
    tracker = ParticipationValidityTracker()
    values = [0.0, 1.0]
    tracker.observe(values)
    drift = VALIDITY_TOLERANCE / 2.0
    for _round in range(10):
        values = [values[0] + drift, 1.0]  # node 0 "asleep" yet drifting
        tracker.observe(values, awake=[False, True])
    assert not tracker.sleep_ok
    assert not tracker.ok
    assert tracker.first_sleep_violation_round == 1
    assert tracker.hull_ok  # the drift stayed inside the hull: sleep-only bug


def test_tracker_requires_exact_freezing_even_for_tiny_drift():
    tracker = ParticipationValidityTracker()
    tracker.observe([2.0, 5.0])
    tracker.observe([2.0 + 1e-15, 5.0], awake=[False, True])
    assert not tracker.sleep_ok
    assert tracker.first_violation_round == 1


def test_tracker_keeps_sleeping_extreme_inside_the_hull():
    """An awake node may move toward a sleeping extreme's frozen value.

    A tracker that tightened the hull over *awake* nodes only would see the
    interval shrink to [1, 6] while node 0 sleeps at 10, then flag the jump
    to 9.5 — but 10 is still a fault-free value, so the fault-free hull
    never actually tightened past it and the move is legal.
    """
    tracker = ParticipationValidityTracker()
    tracker.observe([10.0, 1.0, 6.0])
    tracker.observe([10.0, 2.0, 6.0], awake=[False, True, True])
    tracker.observe([10.0, 9.5, 6.0], awake=[False, True, False])
    tracker.observe([8.0, 9.5, 6.0], awake=[True, False, False])
    assert tracker.ok
    assert tracker.hull_ok
    assert tracker.sleep_ok


def test_tracker_still_flags_a_real_hull_escape():
    tracker = ParticipationValidityTracker()
    tracker.observe([0.0, 1.0])
    tracker.observe([0.5, 1.2], awake=[True, True])  # 1.2 > max(0, 1)
    assert not tracker.hull_ok
    assert not tracker.ok
    assert tracker.first_violation_round == 1


def test_tracker_sleep_check_waits_for_an_awake_mask():
    tracker = ParticipationValidityTracker()
    tracker.observe([3.0, 4.0])
    tracker.observe([3.5, 4.0])  # no mask: plain hull round
    assert tracker.ok


def test_engine_run_folds_participation_audit_into_validity():
    graph = core_network(8, 1)
    outcome = run_sync_engine(
        "scalar",
        graph,
        TrimmedMeanRule(1),
        _inputs_for(graph),
        faulty=frozenset({7}),
        adversary=ExtremePushStrategy(delta=1.0),
        schedule=RandomChurnSchedule(p_awake=0.7, seed=2),
        max_rounds=15,
        tolerance=0.0,
        record_history=False,
    )
    assert outcome.validity_ok


# ---------------------------------------------------------------------------
# Layout-cache staleness under per-round masks
# ---------------------------------------------------------------------------


class _MaskEchoStrategy(_ChannelLayoutStrategy):
    """Toy mask-sensitive strategy: its layout *is* the round's mask."""

    name = "mask-echo"
    mask_sensitive = True

    def __init__(self) -> None:
        super().__init__()
        self.builds = 0

    def _build_layout(self, context: BatchAdversaryContext) -> np.ndarray:
        self.builds += 1
        mask = context.active_edge_mask
        if mask is None:
            return np.ones(len(context.edge_nodes), dtype=float)
        return np.asarray(mask, dtype=float)

    def edge_values(self, context: BatchAdversaryContext) -> np.ndarray:
        row = np.asarray(self._layout_for(context), dtype=float)
        return np.broadcast_to(row, (context.batch_size, row.shape[0])).copy()

    def nominal_values(self, context: BatchAdversaryContext) -> np.ndarray:
        return np.zeros((context.batch_size, context.faulty_columns.shape[0]))


class _CountingInsensitiveStrategy(_MaskEchoStrategy):
    """Same strategy with the default mask-insensitive cache key."""

    name = "mask-blind"
    mask_sensitive = False


def _drive_rounds(strategy, schedule, rounds=4):
    graph = complete_graph(5)
    engine = VectorizedEngine(
        graph,
        TrimmedMeanRule(1),
        faulty=frozenset({0}),
        adversary=strategy,
        config=SimulationConfig(max_rounds=rounds, record_history=False),
        schedule=schedule,
    )
    matrix = np.tile(
        np.linspace(0.0, 1.0, len(engine.nodes)), (2, 1)
    )
    state = matrix
    for round_index in range(1, rounds + 1):
        state = engine.step_matrix(state, round_index)
    return engine


def test_mask_sensitive_layout_rebuilds_when_the_mask_changes():
    """Failing-first pin for the cache-staleness audit.

    ``RandomEdgeSchedule(p_up=0.5)`` produces a different mask nearly every
    round; before the cache was keyed on the mask bytes, a mask-sensitive
    strategy would keep serving round 1's layout (``builds == 1`` and stale
    values).  The layout must now track every distinct mask.
    """
    strategy = _MaskEchoStrategy()
    schedule = RandomEdgeSchedule(p_up=0.5, seed=13)
    _drive_rounds(strategy, schedule, rounds=4)
    assert strategy.builds >= 2, "stale layout served across differing masks"


def test_mask_insensitive_layout_builds_once_despite_changing_masks():
    strategy = _CountingInsensitiveStrategy()
    schedule = RandomEdgeSchedule(p_up=0.5, seed=13)
    _drive_rounds(strategy, schedule, rounds=4)
    assert strategy.builds == 1


def test_mask_sensitive_layout_is_stable_under_a_static_schedule():
    strategy = _MaskEchoStrategy()
    _drive_rounds(strategy, StaticSchedule(), rounds=4)
    assert strategy.builds == 1
