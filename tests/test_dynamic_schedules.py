"""Metamorphic and property tests for the dynamic-topology layer.

Four groups of pins:

* **Static-schedule identities** — an engine handed ``StaticSchedule()``
  (or an all-up random schedule) must be bit-identical to one handed no
  schedule at all, across every synchronous tier and both async engines.
* **Masking identities** — under the trimmed-*midpoint* rule (whose
  all-equal update is exact in floating point, unlike the mean's cumsum) a
  node asleep for the whole run is bit-equivalent to masking down every
  edge incident to it.
* **Participation-aware validity** — the monitor must flag cumulative
  drift a naive per-round-slack check would wave through (the PR 5 drift
  bug, now on the churn axis), must require *exact* state freezing of
  asleep nodes, and must keep sleeping extremes inside the hull so a
  wake-up never counts as a violation.
* **Layout cache** — a channel-layout strategy builds its layout exactly
  once per run, however the round's ``active_edge_mask`` changes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import BatchAdversaryContext, ExtremePushStrategy
from repro.adversary.vectorized import _ChannelLayoutStrategy
from repro.algorithms import TrimmedMeanRule, TrimmedMidpointRule
from repro.graphs import complete_graph, core_network
from repro.simulation import (
    ComposedSchedule,
    PartiallyAsynchronousEngine,
    PeriodicChurnSchedule,
    PeriodicEdgeSchedule,
    RandomChurnSchedule,
    RandomEdgeSchedule,
    ScheduleLayout,
    SimulationConfig,
    StaticSchedule,
    ValidityMonitor,
    VectorizedAsyncEngine,
    VectorizedEngine,
    cross_check_engines,
)
from repro.exceptions import InvalidParameterError
from repro.simulation.dynamic import CHURN_STREAM_KEY, schedule_rng
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
        edge for edge in ScheduleLayout.for_graph(graph).edges if z in edge
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


def test_random_churn_mapping_masks_match_the_per_node_lookup():
    """A mapping ``p_awake`` fills its probabilities through the layout's
    node index; the masks equal the per-node lookup over ``node_order``."""
    graph = core_network(9, 2)
    layout = ScheduleLayout.for_graph(graph)
    p_awake = {3: 0.2, 0: 0.6, 8: 1}
    churn = RandomChurnSchedule(
        p_awake=p_awake, seed=4, always_awake=(5,), default_p_awake=0.7
    )
    probabilities = np.array([p_awake.get(node, 0.7) for node in layout.node_order])
    for round_index in range(1, 9):
        draws = schedule_rng(4, CHURN_STREAM_KEY, round_index).random(len(graph.nodes))
        expected = draws < probabilities
        expected[layout.node_index[5]] = True
        assert np.array_equal(churn.activity(round_index, layout).awake, expected)


@pytest.mark.parametrize(
    "options, parameter",
    [
        (dict(always_awake=(0, "ghost")), "always_awake"),
        (dict(p_awake={"ghost": 0.5, 0: 0.5}), "p_awake"),
    ],
    ids=["always_awake", "p_awake"],
)
def test_random_churn_names_an_unknown_node(options, parameter):
    layout = ScheduleLayout.for_graph(core_network(6, 1))
    churn = RandomChurnSchedule(seed=2, **options)
    with pytest.raises(
        InvalidParameterError, match=rf"{parameter} mentions unknown nodes \['ghost'\]"
    ):
        churn.activity(1, layout)


# ---------------------------------------------------------------------------
# Participation-aware validity monitoring
# ---------------------------------------------------------------------------


def _feed(values, *rounds, track_sleep=True):
    """Run a one-row monitor over ``values`` then each ``(values, awake)``."""
    monitor = ValidityMonitor([values], range(len(values)), track_sleep=track_sleep)
    for round_values, awake in rounds:
        monitor.observe(
            [round_values], awake=None if awake is None else np.array(awake)
        )
    return monitor


def test_monitor_flags_slow_cumulative_drift_of_a_sleeping_node():
    """Regression: per-round drift below the hull slack must still flag.

    A naive implementation comparing an asleep node's value with per-round
    slack (``abs(diff) <= tolerance``) waves each step through while the
    node drifts by ``rounds x tolerance/2`` in total; the sleep check is
    exact equality, so the very first drifting round must flag.
    """
    drift = VALIDITY_TOLERANCE / 2.0
    rounds, value = [], 0.0
    for _round in range(10):
        value += drift  # node 0 "asleep" yet drifting
        rounds.append(([value, 1.0], [False, True]))
    monitor = _feed([0.0, 1.0], *rounds)
    assert not monitor.ok[0]
    assert monitor.first_round == [1]
    assert monitor.first_node == [0]
    # The drift stayed inside the hull: a sleep-only bug.
    assert _feed([0.0, 1.0], *rounds, track_sleep=False).ok[0]


def test_monitor_requires_exact_freezing_even_for_tiny_drift():
    frozen_drift = ([2.0 + 1e-15, 5.0], [False, True])
    monitor = _feed([2.0, 5.0], frozen_drift)
    assert not monitor.ok[0]
    assert monitor.first_round == [1]
    assert _feed([2.0, 5.0], frozen_drift, track_sleep=False).ok[0]


def test_monitor_keeps_sleeping_extreme_inside_the_hull():
    """An awake node may move toward a sleeping extreme's frozen value.

    A monitor that tightened the hull over *awake* nodes only would see the
    interval shrink to [1, 6] while node 0 sleeps at 10, then flag the jump
    to 9.5 — but 10 is still a fault-free value, so the fault-free hull
    never actually tightened past it and the move is legal.
    """
    monitor = _feed(
        [10.0, 1.0, 6.0],
        ([10.0, 2.0, 6.0], [False, True, True]),
        ([10.0, 9.5, 6.0], [False, True, False]),
        ([8.0, 9.5, 6.0], [True, False, False]),
    )
    assert monitor.ok[0]
    assert monitor.first_round == [None]


def test_monitor_still_flags_a_real_hull_escape():
    escape = ([0.5, 1.2], [True, True])  # 1.2 > max(0, 1)
    monitor = _feed([0.0, 1.0], escape)
    assert not monitor.ok[0]
    assert monitor.first_round == [1]
    assert monitor.first_node == [1]
    assert not _feed([0.0, 1.0], escape, track_sleep=False).ok[0]


def test_monitor_sleep_check_waits_for_an_awake_mask():
    monitor = _feed([3.0, 4.0], ([3.5, 4.0], None))  # no mask: plain hull round
    assert monitor.ok[0]


@pytest.mark.parametrize("engine_kind", ["scalar", "vectorized", "numpy"])
def test_engine_run_folds_participation_audit_into_validity(engine_kind):
    graph = core_network(8, 1)
    outcome = run_sync_engine(
        engine_kind,
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
# Layout cache under per-round masks
# ---------------------------------------------------------------------------


class _CountingLayoutStrategy(_ChannelLayoutStrategy):
    """Toy channel-layout strategy that counts its layout builds."""

    name = "counting-layout"

    def __init__(self) -> None:
        super().__init__()
        self.builds = 0

    def _build_layout(self, context: BatchAdversaryContext) -> np.ndarray:
        self.builds += 1
        return np.ones(len(context.edge_nodes), dtype=float)

    def edge_values(self, context: BatchAdversaryContext) -> np.ndarray:
        row = np.asarray(self._layout_for(context), dtype=float)
        return np.broadcast_to(row, (context.batch_size, row.shape[0])).copy()

    def nominal_values(self, context: BatchAdversaryContext) -> np.ndarray:
        return np.zeros((context.batch_size, context.faulty_columns.shape[0]))


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


def test_mask_insensitive_layout_builds_once_despite_changing_masks():
    strategy = _CountingLayoutStrategy()
    schedule = RandomEdgeSchedule(p_up=0.5, seed=13)
    _drive_rounds(strategy, schedule, rounds=4)
    assert strategy.builds == 1
