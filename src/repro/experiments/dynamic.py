"""Experiments E16/E17 — dynamic topology and churn (roadmap scenario axis).

The paper analyses a *static* communication graph; the roadmap's dynamic
tier asks how Algorithm 1 behaves when links flap and nodes sleep.  Two
experiments cover that axis:

* **E16 ``dynamic_topology``** sweeps the schedule kinds of
  :mod:`repro.simulation.dynamic` (periodic edge outages, seeded random edge
  up/down, random churn, and their composition) over the paper's graph
  families, running batched executions on the vectorized engine.  Every
  cell re-runs its first batch row through the scalar reference engine in
  lockstep (:func:`~repro.simulation.vectorized.cross_check_engines` with
  the schedule) and replays one masked round of every batch row on it, and
  **raises** :class:`~repro.exceptions.SimulationError` on any divergence —
  the sweep's numbers are tied to the cross-engine bit-exactness contract.

* **E17 ``churn_sweep``** fixes the graph and sweeps the per-round awake
  probability, reporting how convergence degrades with participation.  The
  scalar engine's participation-aware validity verdict
  (:class:`~repro.simulation.metrics.ParticipationValidityTracker`) audits
  the first row of every cell: asleep nodes must hold their state exactly
  and the fault-free hull must still never expand.
"""

from __future__ import annotations

from typing import TypedDict

import numpy as np

from repro.adversary.selection import random_fault_set
from repro.adversary.strategies import ExtremePushStrategy
from repro.adversary.vectorized import BatchExtremePushStrategy
from repro.algorithms.trimmed_mean import TrimmedMeanRule
from repro.exceptions import InvalidParameterError, SimulationError
from repro.graphs.digraph import Digraph
from repro.graphs.generators import chord_network, complete_graph, core_network
from repro.simulation.dynamic import (
    ComposedSchedule,
    PeriodicEdgeSchedule,
    RandomChurnSchedule,
    RandomEdgeSchedule,
    ScheduleLayout,
    StaticSchedule,
    TopologySchedule,
    resolve_activity,
)
from repro.simulation.engine import SimulationConfig, SynchronousEngine
from repro.simulation.vectorized import (
    VectorizedEngine,
    cross_check_engines,
    random_input_matrix,
)
from repro.sweeps.registry import register_experiment, select_labelled_case
from repro.sweeps.schema import schema_from_typeddict
from repro.types import NodeId


class DynamicTopologyRow(TypedDict):
    """One guarded cell of the E16 dynamic-topology sweep."""

    case: str
    schedule: str
    n: int
    f: int
    batch: int
    rounds: int
    mean_edge_down_fraction: float
    mean_asleep_fraction: float
    fraction_converged: float
    all_validity_ok: bool
    mean_final_spread: float
    mean_contraction: float
    scalar_guard: bool
    #: One masked round of every batch row matched the scalar engine (the
    #: name predates the single batch layout and is kept for stored runs).
    sparse_guard: bool


#: Runtime half of :class:`DynamicTopologyRow`; validated at shard boundaries.
DYNAMIC_TOPOLOGY_SCHEMA = schema_from_typeddict(
    DynamicTopologyRow,
    roles={
        "case": "label",
        "schedule": "label",
        "n": "parameter",
        "f": "parameter",
        "batch": "parameter",
        "rounds": "parameter",
        "mean_edge_down_fraction": "metric",
        "mean_asleep_fraction": "metric",
        "fraction_converged": "metric",
        "all_validity_ok": "verdict",
        "mean_final_spread": "metric",
        "mean_contraction": "metric",
        "scalar_guard": "verdict",
        "sparse_guard": "verdict",
    },
)


class ChurnSweepRow(TypedDict):
    """One awake-probability point of the E17 churn sweep."""

    n: int
    f: int
    p_awake: float
    batch: int
    rounds: int
    mean_asleep_fraction: float
    fraction_converged: float
    all_validity_ok: bool
    participation_audit_ok: bool
    mean_rounds: float
    p90_rounds: float
    mean_final_spread: float


#: Runtime half of :class:`ChurnSweepRow`; validated at shard boundaries.
CHURN_SWEEP_SCHEMA = schema_from_typeddict(
    ChurnSweepRow,
    roles={
        "n": "parameter",
        "f": "parameter",
        "p_awake": "parameter",
        "batch": "parameter",
        "rounds": "parameter",
        "mean_asleep_fraction": "metric",
        "fraction_converged": "metric",
        "all_validity_ok": "verdict",
        "participation_audit_ok": "verdict",
        "mean_rounds": "metric",
        "p90_rounds": "metric",
        "mean_final_spread": "metric",
    },
)

#: Schedule kinds the E16 grid sweeps (``make_dynamic_schedule`` keys).
DYNAMIC_SCHEDULE_KINDS = (
    "static",
    "periodic-edges",
    "random-edges",
    "churn",
    "composed",
)

#: Awake probabilities of the default E17 grid (1.0 is the static baseline).
CHURN_P_AWAKE = (1.0, 0.9, 0.75, 0.5)


def default_dynamic_cases() -> list[tuple[str, Digraph, int]]:
    """Return the labelled ``(name, graph, f)`` cases E16 sweeps."""
    return [
        ("complete n=7 f=2", complete_graph(7), 2),
        ("core n=9 f=2", core_network(9, 2), 2),
        ("chord n=8 f=1", chord_network(8, 1), 1),
    ]


def make_dynamic_schedule(
    kind: str,
    graph: Digraph,
    seed: int = 0,
    p_up: float = 0.8,
    p_awake: float = 0.85,
) -> TopologySchedule:
    """Build one of the sweepable schedules for ``graph``.

    ``periodic-edges`` alternates a phase with every fourth canonical edge
    down against a fully-up phase; the random kinds use the documented
    seeded streams, and ``composed`` ANDs a random edge schedule with a
    random churn schedule sharing ``seed`` (their distinct stream keys keep
    the masks decorrelated).
    """
    if kind == "static":
        return StaticSchedule()
    if kind == "periodic-edges":
        layout = ScheduleLayout.for_graph(graph)
        return PeriodicEdgeSchedule([layout.edges[::4], ()])
    if kind == "random-edges":
        return RandomEdgeSchedule(p_up=p_up, seed=seed)
    if kind == "churn":
        return RandomChurnSchedule(p_awake=p_awake, seed=seed)
    if kind == "composed":
        return ComposedSchedule(
            RandomEdgeSchedule(p_up=p_up, seed=seed),
            RandomChurnSchedule(p_awake=p_awake, seed=seed),
        )
    raise InvalidParameterError(
        f"unknown schedule kind {kind!r}; known: {DYNAMIC_SCHEDULE_KINDS}"
    )


def _mean_masked_fraction(
    schedule: TopologySchedule, graph: Digraph, rounds: int
) -> tuple[float, float]:
    """Return the mean fraction of (down edges, asleep nodes) over ``rounds``.

    Re-queries the schedule (pure function of the round) instead of
    instrumenting the engines.
    """
    layout = ScheduleLayout.for_graph(graph)
    edge_down = 0.0
    asleep = 0.0
    for round_index in range(1, rounds + 1):
        activity = resolve_activity(schedule, round_index, layout)
        if activity.edge_up is not None:
            edge_down += float((~activity.edge_up).mean())
        if activity.awake is not None:
            asleep += float((~activity.awake).mean())
    return edge_down / rounds, asleep / rounds


def dynamic_topology_study(
    cases: list[tuple[str, Digraph, int]] | None = None,
    schedule_kind: str = "composed",
    batch: int = 16,
    rounds: int = 60,
    p_up: float = 0.8,
    p_awake: float = 0.85,
    seed: int = 0,
) -> list[DynamicTopologyRow]:
    """Run one schedule kind over the graph cases with equivalence guards.

    Per case: ``batch`` executions on the vectorized engine under the
    schedule and the batch-native extreme-push adversary, a
    scalar-vs-vectorized lockstep check of the first row (scalar adversary,
    full trajectory), and a one-round bit-equality check of every row
    against the scalar engine.  Any divergence raises
    :class:`~repro.exceptions.SimulationError`.
    """
    chosen = cases if cases is not None else default_dynamic_cases()
    rows: list[DynamicTopologyRow] = []
    for index, (label, graph, f) in enumerate(chosen):
        rule = TrimmedMeanRule(f)
        faulty: frozenset[NodeId] = random_fault_set(graph, f, rng=seed + index)
        schedule = make_dynamic_schedule(
            schedule_kind, graph, seed=seed + index, p_up=p_up, p_awake=p_awake
        )
        config = SimulationConfig(
            max_rounds=rounds,
            tolerance=1e-9,
            record_history=False,
            stop_on_convergence=False,
        )
        engine = VectorizedEngine(
            graph,
            rule,
            faulty=faulty,
            adversary=BatchExtremePushStrategy(delta=1.5),
            config=config,
            schedule=schedule,
        )
        matrix = random_input_matrix(engine.nodes, batch, rng=seed + index)
        outcome = engine.run_batch(matrix)

        # Guard 1: the first batch row, replayed scalar-vs-vectorized in
        # lockstep under the same schedule, must stay bit-identical every
        # round.
        row_inputs = dict(zip(engine.nodes, matrix[0].tolist()))
        report = cross_check_engines(
            graph=graph,
            rule=rule,
            inputs=row_inputs,
            faulty=faulty,
            adversary=ExtremePushStrategy(delta=1.5),
            config=config,
            rounds=min(rounds, 20),
            schedule=schedule,
        )
        if not report.identical:
            raise SimulationError(
                f"scalar/vectorized divergence under {schedule.name!r} on "
                f"{label} at round {report.first_divergence_round}"
            )

        # Guard 2: one masked round of every batch row, scalar vs batch.
        scalar = SynchronousEngine(
            graph,
            rule,
            faulty=faulty,
            adversary=ExtremePushStrategy(delta=1.5),
            config=config,
            schedule=schedule,
        )
        stepped = engine.step_matrix(matrix, 1)
        for row_values, row_stepped in zip(matrix.tolist(), stepped.tolist()):
            expected = scalar.step(dict(zip(engine.nodes, row_values)), 1)
            if row_stepped != [expected[node] for node in engine.nodes]:
                raise SimulationError(
                    f"scalar/batch divergence under {schedule.name!r} on {label}"
                )

        edge_down, asleep = _mean_masked_fraction(schedule, graph, rounds)
        rows.append(
            {
                "case": label,
                "schedule": schedule.name,
                "n": graph.number_of_nodes,
                "f": f,
                "batch": batch,
                "rounds": rounds,
                "mean_edge_down_fraction": edge_down,
                "mean_asleep_fraction": asleep,
                "fraction_converged": outcome.fraction_converged,
                "all_validity_ok": outcome.all_valid,
                "mean_final_spread": float(outcome.final_spread.mean()),
                "mean_contraction": float(
                    (outcome.final_spread / outcome.initial_spread).mean()
                ),
                "scalar_guard": True,
                "sparse_guard": True,
            }
        )
    return rows


@register_experiment(
    name="dynamic_topology",
    paper_section=(
        "Beyond the paper's static-graph model: dynamic links and churn "
        "(roadmap dynamic tier, E16)"
    ),
    claim=(
        "Under masked links and sleeping nodes Algorithm 1 keeps validity in "
        "every execution and still contracts whenever enough of the graph "
        "stays up, with all engine tiers bit-identical on the same schedule."
    ),
    engine="vectorized",
    grid={
        "case": tuple(label for label, _, _ in default_dynamic_cases()),
        "schedule_kind": DYNAMIC_SCHEDULE_KINDS,
        "batch": (16,),
        "rounds": (60,),
    },
    schema=DYNAMIC_TOPOLOGY_SCHEMA,
)
def dynamic_topology_cell(
    case: str,
    schedule_kind: str = "composed",
    batch: int = 16,
    rounds: int = 60,
    seed: int = 0,
) -> list[DynamicTopologyRow]:
    """Registry cell for E16: one (case, schedule kind) guarded dynamic sweep."""
    return dynamic_topology_study(
        cases=select_labelled_case(
            case, default_dynamic_cases(), "dynamic-topology case"
        ),
        schedule_kind=schedule_kind,
        batch=batch,
        rounds=rounds,
        seed=seed,
    )


def churn_sweep_study(
    p_awake: float = 0.9,
    n: int = 9,
    f: int = 2,
    batch: int = 32,
    rounds: int = 120,
    tolerance: float = 1e-6,
    seed: int = 0,
) -> list[ChurnSweepRow]:
    """Measure convergence degradation under one awake probability.

    Runs ``batch`` executions on the vectorized engine over ``core_network(n, f)``
    under a :class:`~repro.simulation.dynamic.RandomChurnSchedule`, then
    replays the first row through the scalar engine, whose run-level verdict
    includes the participation audit (asleep nodes must hold their state
    exactly; the hull must never expand).
    """
    graph = core_network(n, f)
    rule = TrimmedMeanRule(f)
    faulty: frozenset[NodeId] = random_fault_set(graph, f, rng=seed)
    schedule: TopologySchedule = (
        StaticSchedule()
        if p_awake >= 1.0
        else RandomChurnSchedule(p_awake=p_awake, seed=seed)
    )
    config = SimulationConfig(
        max_rounds=rounds,
        tolerance=tolerance,
        record_history=False,
    )
    engine = VectorizedEngine(
        graph,
        rule,
        faulty=faulty,
        adversary=BatchExtremePushStrategy(delta=1.0),
        config=config,
        schedule=schedule,
    )
    matrix = random_input_matrix(engine.nodes, batch, rng=seed)
    outcome = engine.run_batch(matrix)

    # Participation audit: the scalar engine folds the sleep-consistency
    # check (ParticipationValidityTracker) into its validity verdict.
    scalar = SynchronousEngine(
        graph,
        rule,
        faulty=faulty,
        adversary=ExtremePushStrategy(delta=1.0),
        config=config,
        schedule=schedule,
    )
    audited = scalar.run(dict(zip(engine.nodes, matrix[0].tolist())))

    converged_rounds = outcome.rounds_executed[outcome.converged]
    _, asleep = _mean_masked_fraction(schedule, graph, rounds)
    return [
        {
            "n": n,
            "f": f,
            "p_awake": p_awake,
            "batch": batch,
            "rounds": rounds,
            "mean_asleep_fraction": asleep,
            "fraction_converged": outcome.fraction_converged,
            "all_validity_ok": outcome.all_valid,
            "participation_audit_ok": audited.validity_ok,
            "mean_rounds": outcome.mean_rounds_to_convergence(),
            "p90_rounds": (
                float(np.percentile(converged_rounds, 90))
                if converged_rounds.size
                else float("nan")
            ),
            "mean_final_spread": float(outcome.final_spread.mean()),
        }
    ]


@register_experiment(
    name="churn_sweep",
    paper_section=(
        "Participation/churn robustness of Algorithm 1 (roadmap dynamic "
        "tier, E17)"
    ),
    claim=(
        "Convergence slows gracefully as the per-round awake probability "
        "drops, while validity and exact sleep-state consistency hold in "
        "every execution."
    ),
    engine="vectorized",
    grid={
        "p_awake": CHURN_P_AWAKE,
        "batch": (32,),
        "rounds": (120,),
    },
    schema=CHURN_SWEEP_SCHEMA,
)
def churn_sweep_cell(
    p_awake: float,
    batch: int = 32,
    rounds: int = 120,
    seed: int = 0,
) -> list[ChurnSweepRow]:
    """Registry cell for E17: one awake-probability point of the churn sweep."""
    return churn_sweep_study(
        p_awake=p_awake, batch=batch, rounds=rounds, seed=seed
    )
