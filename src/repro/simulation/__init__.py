"""Simulation engines (synchronous and partially asynchronous), input
generators, metrics, traces and the high-level :func:`run_consensus` API."""

from repro.simulation.async_engine import (
    PartiallyAsynchronousEngine,
    canonical_edge_order,
    run_partially_asynchronous,
)
from repro.simulation.dynamic import (
    ComposedSchedule,
    PeriodicChurnSchedule,
    PeriodicEdgeSchedule,
    RandomChurnSchedule,
    RandomEdgeSchedule,
    RoundActivity,
    ScheduleLayout,
    StaticSchedule,
    TopologySchedule,
    resolve_activity,
    schedule_rng,
)
from repro.simulation.engine import (
    SimulationConfig,
    SynchronousEngine,
    run_synchronous,
)
from repro.simulation.inputs import (
    bimodal_inputs,
    linear_ramp_inputs,
    split_inputs_from_witness,
    uniform_random_inputs,
)
from repro.simulation.metrics import (
    VALIDITY_TOLERANCE,
    ParticipationValidityTracker,
    ValidityTracker,
    empirical_contraction_ratios,
    fault_free_extremes,
    has_converged,
    spread,
    within_hull,
)
from repro.simulation.run import run_consensus
from repro.simulation.trace import ExecutionTrace, spreads_from_records
from repro.simulation.vectorized import (
    BatchOutcome,
    BatchRunner,
    EquivalenceReport,
    VectorizedEngine,
    cross_check_engines,
    random_input_matrix,
    run_vectorized,
)
from repro.simulation.vectorized_async import (
    VectorizedAsyncEngine,
    run_vectorized_async,
    spawn_row_generators,
)

__all__ = [
    "BatchOutcome",
    "BatchRunner",
    "EquivalenceReport",
    "VectorizedEngine",
    "VectorizedAsyncEngine",
    "canonical_edge_order",
    "cross_check_engines",
    "random_input_matrix",
    "run_vectorized",
    "run_vectorized_async",
    "spawn_row_generators",
    "PartiallyAsynchronousEngine",
    "run_partially_asynchronous",
    "SimulationConfig",
    "SynchronousEngine",
    "run_synchronous",
    "bimodal_inputs",
    "linear_ramp_inputs",
    "split_inputs_from_witness",
    "uniform_random_inputs",
    "ComposedSchedule",
    "PeriodicChurnSchedule",
    "PeriodicEdgeSchedule",
    "RandomChurnSchedule",
    "RandomEdgeSchedule",
    "RoundActivity",
    "ScheduleLayout",
    "StaticSchedule",
    "TopologySchedule",
    "resolve_activity",
    "schedule_rng",
    "VALIDITY_TOLERANCE",
    "ParticipationValidityTracker",
    "ValidityTracker",
    "empirical_contraction_ratios",
    "fault_free_extremes",
    "has_converged",
    "spread",
    "within_hull",
    "run_consensus",
    "ExecutionTrace",
    "spreads_from_records",
]
