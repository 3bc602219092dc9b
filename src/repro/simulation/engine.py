"""Synchronous round-based simulation engine.

The engine executes exactly the iteration structure of Section 2.3:

1. at the start of iteration ``t`` every fault-free node sends its state
   ``v_i[t − 1]`` on all outgoing edges, while every faulty node sends whatever
   its :class:`~repro.adversary.base.ByzantineStrategy` dictates (possibly
   different values on different edges);
2. every fault-free node receives one value per incoming edge (the vector
   ``r_i[t]``);
3. every fault-free node applies its update rule
   ``v_i[t] = Z_i(r_i[t], v_i[t − 1])``.

The engine tracks ``U[t]``, ``µ[t]``, the validity condition (eq. 1) and
convergence, and can optionally record the full execution trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.adversary.base import AdversaryContext, ByzantineStrategy, PassiveStrategy
from repro.algorithms.base import UpdateRule
from repro.exceptions import (
    FaultBudgetExceededError,
    InvalidParameterError,
    SimulationError,
)
from repro.graphs.digraph import Digraph
from repro.simulation.dynamic import (
    ScheduleLayout,
    TopologySchedule,
    resolve_activity,
)
from repro.simulation.metrics import ValidityMonitor
from repro.simulation.trace import ExecutionTrace
from repro.types import ConsensusOutcome, NodeId, ReceivedValue, ValueMap


@dataclass(frozen=True)
class SimulationConfig:
    """Tuning knobs shared by the simulation engines.

    Attributes
    ----------
    max_rounds:
        Maximum number of iterations to execute.
    tolerance:
        Convergence is declared when ``U[t] − µ[t] ≤ tolerance``.
    record_history:
        Whether to keep the full per-round trace in memory.
    strict_validity:
        When true, a violation of the validity condition raises
        :class:`~repro.exceptions.ValidityViolationError` immediately instead
        of merely being reported in the outcome.  The paper's algorithms never
        violate validity, so strict mode is a bug trap (and is exercised by
        negative tests with the non-fault-tolerant baselines).
    stop_on_convergence:
        When true (default), the run stops as soon as the spread reaches the
        tolerance; otherwise it always executes ``max_rounds`` iterations
        (useful for convergence-rate measurements over a fixed horizon).
    """

    max_rounds: int = 500
    tolerance: float = 1e-7
    record_history: bool = True
    strict_validity: bool = False
    stop_on_convergence: bool = True

    def __post_init__(self) -> None:
        if self.max_rounds < 0:
            raise InvalidParameterError(
                f"max_rounds must be >= 0, got {self.max_rounds}"
            )
        if self.tolerance < 0:
            raise InvalidParameterError(
                f"tolerance must be >= 0, got {self.tolerance}"
            )


class SynchronousEngine:
    """Round-based executor of an iterative consensus algorithm.

    Parameters
    ----------
    graph:
        The communication graph ``G(V, E)``.
    rule:
        The update rule ``Z_i`` applied by every fault-free node.
    faulty:
        The set of Byzantine nodes (``|F| ≤ rule.f`` is enforced).
    adversary:
        Behaviour of the faulty nodes; defaults to
        :class:`~repro.adversary.base.PassiveStrategy` (faulty nodes follow
        the protocol), which is the correct control when ``faulty`` is empty.
    config:
        Engine configuration; see :class:`SimulationConfig`.
    schedule:
        Optional :class:`~repro.simulation.dynamic.TopologySchedule`.  A down
        (or asleep-sender) edge contributes the receiver's own previous value
        in place of the message (self-substitution), and an asleep receiver
        skips its update while staying visible on its out-edges; see
        :mod:`repro.simulation.dynamic` for the full semantics.
    """

    def __init__(
        self,
        graph: Digraph,
        rule: UpdateRule,
        faulty: frozenset[NodeId] | set[NodeId] = frozenset(),
        adversary: ByzantineStrategy | None = None,
        config: SimulationConfig | None = None,
        schedule: TopologySchedule | None = None,
    ) -> None:
        self._graph = graph
        self._rule = rule
        self._faulty = frozenset(faulty)
        self._adversary = adversary if adversary is not None else PassiveStrategy()
        self._config = config if config is not None else SimulationConfig()
        self._schedule = schedule
        self._sched_layout = (
            ScheduleLayout.for_graph(graph) if schedule is not None else None
        )

        self._ff_sorted = checked_fault_free(graph, rule, self._faulty)
        if self._sched_layout is not None:
            self._ff_positions = np.array(
                [self._sched_layout.node_index[node] for node in self._ff_sorted]
            )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Digraph:
        """The communication graph."""
        return self._graph

    @property
    def rule(self) -> UpdateRule:
        """The update rule driving fault-free nodes."""
        return self._rule

    @property
    def faulty(self) -> frozenset[NodeId]:
        """The Byzantine node set ``F``."""
        return self._faulty

    @property
    def fault_free(self) -> frozenset[NodeId]:
        """The fault-free node set ``V − F``."""
        return self._graph.nodes - self._faulty

    @property
    def config(self) -> SimulationConfig:
        """The engine configuration."""
        return self._config

    @property
    def schedule(self) -> TopologySchedule | None:
        """The topology schedule, or ``None`` for a static run."""
        return self._schedule

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self, state: dict[NodeId, float], round_index: int) -> dict[NodeId, float]:
        """Execute one iteration and return the new state of every node.

        ``state`` maps every node to ``v[round_index − 1]``.  Faulty nodes'
        entries in the returned mapping are their *nominal* values as reported
        by the adversary strategy (recorded for tracing only).
        """
        graph = self._graph
        # Resolve this round's topology masks up front.  The adversary below
        # is still interrogated for every channel regardless of the masks, so
        # RNG-backed strategies consume the exact same draws as in a static
        # run (masking is applied downstream of the strategy).
        edge_up_of: dict[tuple[NodeId, NodeId], bool] | None = None
        awake_of: dict[NodeId, bool] | None = None
        if self._schedule is not None:
            activity = resolve_activity(
                self._schedule, round_index, self._sched_layout
            )
            if activity.edge_up is not None:
                edge_up_of = dict(
                    zip(self._sched_layout.edges, activity.edge_up.tolist())
                )
            if activity.awake is not None:
                awake_of = dict(
                    zip(self._sched_layout.node_order, activity.awake.tolist())
                )
        context = AdversaryContext(
            graph=graph,
            round_index=round_index,
            values=dict(state),
            faulty=self._faulty,
            f=self._rule.f,
        )
        # What each faulty node places on each of its outgoing edges.  The
        # RNG-stream contract extends to the adversary layer: strategies are
        # interrogated in canonical (repr-sorted) sender order, so RNG-backed
        # strategies consume draws reproducibly across processes and engines.
        faulty_messages: dict[NodeId, dict[NodeId, float]] = {}
        for node in sorted(self._faulty, key=repr):
            outgoing = self._adversary.outgoing_values(node, context)
            missing = graph.out_neighbors(node) - outgoing.keys()
            if missing:
                raise SimulationError(
                    f"adversary strategy {self._adversary.name!r} did not provide "
                    f"values for edges {sorted(missing, key=repr)!r} out of faulty "
                    f"node {node!r}; the synchronous model has no omissions"
                )
            # Canonical insertion order for the normalised copy; consumers
            # index by key, so sorting here is behaviour-neutral.
            faulty_messages[node] = {
                target: float(value)
                for target, value in sorted(
                    outgoing.items(), key=lambda item: repr(item[0])
                )
            }
            refuse_nan_channels(
                self._adversary.name,
                node,
                faulty_messages[node],
                graph.out_neighbors(node) - self._faulty,
            )

        new_state: dict[NodeId, float] = {}
        for node in graph.nodes:
            if node in self._faulty:
                # Sleep masks a faulty node's channels, not its nominal trace
                # label: the adversary's reported value is recorded as-is.
                new_state[node] = float(
                    self._adversary.nominal_value(node, context)
                )
                continue
            if awake_of is not None and not awake_of[node]:
                # Asleep receiver: skip the update, keep the frozen state
                # (still visible on out-edges via ``state`` next round).
                new_state[node] = state[node]
                continue
            received = []
            for sender in sorted(graph.in_neighbors(node), key=repr):
                channel_up = (
                    edge_up_of is None or edge_up_of[(sender, node)]
                ) and (awake_of is None or awake_of[sender])
                if not channel_up:
                    # Down edge or asleep sender: the dead slot carries the
                    # receiver's own previous value (self-substitution).
                    value = state[node]
                elif sender in self._faulty:
                    value = faulty_messages[sender][node]
                else:
                    value = state[sender]
                received.append(ReceivedValue(sender=sender, value=value))
            new_state[node] = float(
                self._rule.compute(node, state[node], received)
            )
        return new_state

    def run(self, inputs: ValueMap) -> ConsensusOutcome:
        """Run the algorithm from ``inputs`` until convergence or ``max_rounds``.

        ``inputs`` must provide a finite initial value for every node (faulty
        nodes' inputs only matter as the adversary's starting nominal state).
        """
        config = self._config
        state = initial_state(self._graph, inputs)
        trace = ExecutionTrace(faulty=self._faulty)
        monitor = ValidityMonitor(
            self._fault_free_row(state),
            self._ff_sorted,
            track_sleep=self._schedule is not None,
            strict=config.strict_validity,
        )
        initial_spread = float(monitor.high[0] - monitor.low[0])
        if config.record_history:
            trace.record_round(0, state)

        rounds_executed = 0
        converged = initial_spread <= config.tolerance and config.stop_on_convergence
        current_spread = initial_spread
        for round_index in range(1, config.max_rounds + 1):
            if converged:
                break
            state = self.step(state, round_index)
            rounds_executed = round_index
            lows, highs = monitor.observe(
                self._fault_free_row(state), awake=self._awake(round_index)
            )
            if config.record_history:
                trace.record_round(round_index, state)
            current_spread = float(highs[0] - lows[0])
            if config.stop_on_convergence and current_spread <= config.tolerance:
                converged = True

        if not config.stop_on_convergence:
            converged = current_spread <= config.tolerance
        return ConsensusOutcome(
            converged=converged,
            rounds_executed=rounds_executed,
            final_spread=current_spread,
            initial_spread=initial_spread,
            validity_ok=bool(monitor.ok[0]),
            final_values={
                node: state[node]
                for node in self._graph.nodes
                if node not in self._faulty
            },
            history=trace.as_records() if config.record_history else tuple(),
        )

    def _fault_free_row(self, state: dict[NodeId, float]) -> np.ndarray:
        """The fault-free states as the ``(1, m)`` row the monitor reads."""
        return np.array([[state[node] for node in self._ff_sorted]])

    def _awake(self, round_index: int) -> np.ndarray | None:
        """The round's awake mask over the fault-free nodes, if any slept."""
        if self._schedule is None:
            return None
        # ``activity`` is a pure function of the round, so re-querying here
        # returns the exact mask ``step`` just applied.
        awake = resolve_activity(self._schedule, round_index, self._sched_layout).awake
        return None if awake is None else awake[self._ff_positions]


def refuse_nan_channels(
    strategy: str,
    sender: NodeId,
    messages: Mapping[NodeId, float],
    receivers: Iterable[NodeId],
) -> None:
    """Raise :class:`~repro.exceptions.SimulationError` if a faulty
    ``sender`` puts NaN on its channel to one of the fault-free
    ``receivers``.

    The trim sorts the received values, and NaN has no place in that order
    (NumPy sorts it last, Python's ``sorted`` anywhere), so no tier could
    agree on it.  ±inf is ordered, and the trim removes it like any extreme.
    """
    for target in sorted(receivers, key=repr):
        value = messages[target]
        if value != value:
            raise SimulationError(
                f"adversary strategy {strategy!r} sent NaN on channel "
                f"{sender!r} -> {target!r}; Byzantine values must be numbers "
                "(±inf is allowed)"
            )


def checked_fault_free(
    graph: Digraph, rule: UpdateRule, faulty: frozenset[NodeId]
) -> tuple[NodeId, ...]:
    """Check an engine's fault set and rule; return the fault-free nodes
    sorted by ``repr``.  An all-faulty set fails before the budget (it is
    malformed whatever ``f`` is), and the rule's structural precondition
    only needs to hold where the rule runs: at the fault-free nodes."""
    unknown = faulty - graph.nodes
    if unknown:
        raise InvalidParameterError(
            f"faulty nodes {sorted(unknown, key=repr)!r} are not in the graph"
        )
    fault_free = tuple(sorted(graph.nodes - faulty, key=repr))
    if not fault_free:
        raise InvalidParameterError("at least one node must be fault-free")
    if len(faulty) > rule.f:
        raise FaultBudgetExceededError(len(faulty), rule.f)
    rule.validate_graph(graph, nodes=list(fault_free))
    return fault_free


def initial_state(graph: Digraph, inputs: ValueMap) -> dict[NodeId, float]:
    """Return every node's input as a float, rejecting missing or non-finite
    values with :class:`~repro.exceptions.InvalidParameterError`."""
    missing = graph.nodes - inputs.keys()
    if missing:
        raise InvalidParameterError(
            f"inputs missing for nodes {sorted(missing, key=repr)!r}"
        )
    state = {node: float(inputs[node]) for node in graph.nodes}
    for node in sorted(state, key=repr):
        if not math.isfinite(state[node]):
            raise InvalidParameterError(
                f"input for node {node!r} is not finite: {state[node]!r}"
            )
    return state


def run_synchronous(
    graph: Digraph,
    rule: UpdateRule,
    inputs: ValueMap,
    faulty: frozenset[NodeId] | set[NodeId] = frozenset(),
    adversary: ByzantineStrategy | None = None,
    max_rounds: int = 500,
    tolerance: float = 1e-7,
    record_history: bool = True,
    strict_validity: bool = False,
    stop_on_convergence: bool = True,
    schedule: TopologySchedule | None = None,
) -> ConsensusOutcome:
    """Functional wrapper around :class:`SynchronousEngine`.

    Convenient for one-off runs in examples and tests; the class interface is
    preferable when stepping manually or reusing the engine across inputs.
    """
    config = SimulationConfig(
        max_rounds=max_rounds,
        tolerance=tolerance,
        record_history=record_history,
        strict_validity=strict_validity,
        stop_on_convergence=stop_on_convergence,
    )
    engine = SynchronousEngine(
        graph=graph,
        rule=rule,
        faulty=faulty,
        adversary=adversary,
        config=config,
        schedule=schedule,
    )
    return engine.run(inputs)
