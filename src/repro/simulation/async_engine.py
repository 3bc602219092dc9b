"""Partially asynchronous simulation engine (Section 7).

Section 7 of the paper notes that the synchronous results generalise to the
partially asynchronous model of Bertsekas & Tsitsiklis, which allows message
delays of up to ``B`` iterations.  This engine implements that model:

* a message sent at the start of iteration ``t`` (carrying the sender's state
  ``v_j[t − 1]``) is delivered at iteration ``t + d`` for a per-message delay
  ``d`` drawn uniformly from ``{0, …, B}``;
* every node keeps, per in-neighbour, the **freshest** value delivered so far
  (initialised to the neighbour's input, so that the iteration is well defined
  from round 1);
* every round each node updates using its buffer with probability
  ``update_probability`` (1.0 reproduces "every node computes every round";
  smaller values approximate sporadic activations).

Because nodes may compute on stale values, the *round-to-round* validity
condition (eq. 1) need not hold — but the convex-hull form does: every value
used by a fault-free node either comes from a fault-free node's earlier state
(inside the initial hull) or is a Byzantine value that the trimming discards
or sandwiches.  The engine therefore reports validity with respect to the
**initial fault-free hull**.

RNG-stream contract
-------------------
Delay and activation randomness follows a canonical draw order shared with
:class:`~repro.simulation.vectorized_async.VectorizedAsyncEngine`, so a
scalar execution and a vectorized batch row seeded identically consume the
exact same random stream and produce bit-identical trajectories.  Per
executed round ``t``, in this order:

1. iff ``max_delay > 0``: one call ``rng.integers(0, max_delay + 1, size=E)``
   where ``E`` is the number of directed edges and position ``k`` is the
   ``k``-th edge in *canonical edge order* — senders sorted by ``repr``, and
   within each sender its targets sorted by ``repr``;
2. iff ``update_probability < 1.0``: one call ``rng.random(m)`` over the
   ``m`` fault-free nodes sorted by ``repr``; a node recomputes exactly when
   its coin is ``< update_probability``.

No other engine-level randomness exists (adversary strategies own their own
generators), and converged runs stop drawing.  Earlier revisions drew one
scalar per message while iterating Python sets, which made trajectories
depend on hash ordering; the canonical array draws are reproducible across
processes and are what the cross-engine parity suite pins down.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.adversary.base import AdversaryContext, ByzantineStrategy, PassiveStrategy
from repro.algorithms.base import UpdateRule
from repro.exceptions import InvalidParameterError, SimulationError
from repro.graphs.digraph import Digraph
from repro.simulation.dynamic import (
    ScheduleLayout,
    TopologySchedule,
    resolve_activity,
)
from repro.simulation.engine import (
    SimulationConfig,
    checked_fault_free,
    initial_state,
    refuse_nan_channels,
)
from repro.simulation.metrics import ValidityMonitor
from repro.simulation.trace import ExecutionTrace
from repro.types import ConsensusOutcome, NodeId, ReceivedValue, ValueMap


def canonical_edge_order(graph: Digraph) -> tuple[tuple[NodeId, NodeId], ...]:
    """Return every directed edge in the RNG contract's canonical order.

    Sender-major: senders sorted by ``repr``, and within each sender its
    targets sorted by ``repr``.  Both asynchronous engines interpret the
    per-round delay array in exactly this order.
    """
    return tuple(
        (sender, target)
        for sender in sorted(graph.nodes, key=repr)
        for target in sorted(graph.out_neighbors(sender), key=repr)
    )


class PartiallyAsynchronousEngine:
    """Executor with bounded message delays and optional sporadic activation.

    Parameters
    ----------
    graph, rule, faulty, adversary, config:
        As for :class:`~repro.simulation.engine.SynchronousEngine`.
    max_delay:
        The bound ``B`` on message delay, in iterations.  ``0`` reproduces the
        synchronous engine exactly (every message delivered in the round it
        was sent for).  Negative values raise
        :class:`~repro.exceptions.InvalidParameterError`.
    update_probability:
        Probability that a fault-free node recomputes its state in a given
        round; nodes that skip a round keep their previous state (and their
        buffers keep absorbing deliveries).  Must lie in ``(0, 1]``.
    rng:
        Source of randomness for delays and activations, consumed according
        to the module-level RNG-stream contract.
    schedule:
        Optional :class:`~repro.simulation.dynamic.TopologySchedule`.  A
        message sent over a masked channel (edge down, or sender asleep) is
        simply never delivered — its delay is still drawn, so the RNG stream
        is mask-independent.  An asleep receiver keeps its state frozen for
        the round (its buffers keep absorbing deliveries), composing with the
        activation coins by intersection.  Note this differs from the
        synchronous engines' self-substitution semantics: with a schedule,
        ``max_delay=0`` no longer degenerates to the synchronous engines.
    """

    def __init__(
        self,
        graph: Digraph,
        rule: UpdateRule,
        faulty: frozenset[NodeId] | set[NodeId] = frozenset(),
        adversary: ByzantineStrategy | None = None,
        config: SimulationConfig | None = None,
        max_delay: int = 1,
        update_probability: float = 1.0,
        rng: np.random.Generator | int | None = None,
        schedule: TopologySchedule | None = None,
    ) -> None:
        if max_delay < 0:
            raise InvalidParameterError(f"max_delay must be >= 0, got {max_delay}")
        if not 0.0 < update_probability <= 1.0:
            raise InvalidParameterError(
                f"update_probability must be in (0, 1], got {update_probability}"
            )
        self._graph = graph
        self._rule = rule
        self._faulty = frozenset(faulty)
        self._adversary = adversary if adversary is not None else PassiveStrategy()
        self._config = config if config is not None else SimulationConfig()
        self._max_delay = int(max_delay)
        self._update_probability = float(update_probability)
        self._rng = (
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        )

        self._ff_sorted = checked_fault_free(graph, rule, self._faulty)
        self._canonical_edges = canonical_edge_order(graph)
        self._schedule = schedule
        self._sched_layout = (
            ScheduleLayout.for_graph(graph) if schedule is not None else None
        )
        if self._sched_layout is not None:
            self._ff_positions = np.array(
                [self._sched_layout.node_index[node] for node in self._ff_sorted]
            )

    @property
    def schedule(self) -> TopologySchedule | None:
        """The topology schedule driving per-round masks, if any."""
        return self._schedule

    @property
    def max_delay(self) -> int:
        """The delay bound ``B``."""
        return self._max_delay

    @property
    def update_probability(self) -> float:
        """Per-round activation probability of a fault-free node."""
        return self._update_probability

    @property
    def faulty(self) -> frozenset[NodeId]:
        """The Byzantine node set ``F``."""
        return self._faulty

    def run(self, inputs: ValueMap) -> ConsensusOutcome:
        """Run until the fault-free spread reaches the tolerance or ``max_rounds``."""
        graph = self._graph
        config = self._config
        state = initial_state(graph, inputs)
        nodes_sorted = sorted(graph.nodes, key=repr)
        # Freshest value known per directed edge: (send_round, value).  The
        # initial entries model the paper's assumption that every node knows
        # its in-neighbours' inputs (send_round 0).
        freshest: dict[tuple[NodeId, NodeId], tuple[int, float]] = {}
        for target in graph.nodes:
            for sender in graph.in_neighbors(target):
                freshest[(sender, target)] = (0, state[sender])
        # Messages in flight, keyed by delivery round.
        in_flight: dict[int, list[tuple[int, NodeId, NodeId, float]]] = defaultdict(list)

        trace = ExecutionTrace(faulty=self._faulty)
        monitor = ValidityMonitor(
            self._fault_free_row(state),
            self._ff_sorted,
            initial_hull=True,
            track_sleep=self._schedule is not None,
            strict=config.strict_validity,
        )
        initial_spread = float(monitor.high[0] - monitor.low[0])
        if config.record_history:
            trace.record_round(0, state)

        rounds_executed = 0
        current_spread = initial_spread
        converged = config.stop_on_convergence and initial_spread <= config.tolerance

        layout = self._sched_layout
        for round_index in range(1, config.max_rounds + 1):
            if converged:
                break
            # Per-round masks; ``resolve_activity`` is a pure function, and
            # masking is applied downstream of both the adversary and the
            # delay draws, so every RNG stream stays mask-independent.
            activity = (
                resolve_activity(self._schedule, round_index, layout)
                if self._schedule is not None
                else None
            )
            if activity is not None and activity.is_static:
                activity = None
            edge_up = activity.edge_up if activity is not None else None
            awake = activity.awake if activity is not None else None
            context = AdversaryContext(
                graph=graph,
                round_index=round_index,
                values=dict(state),
                faulty=self._faulty,
                f=self._rule.f,
            )
            # 1. Faulty nodes choose their per-edge values, in canonical
            #    (repr-sorted) sender order — the same contract as the
            #    synchronous engine and ScalarStrategyAdapter, so RNG-backed
            #    strategies consume their own draws identically everywhere.
            faulty_messages: dict[NodeId, dict[NodeId, float]] = {}
            for node in sorted(self._faulty, key=repr):
                outgoing = self._adversary.outgoing_values(node, context)
                missing_targets = graph.out_neighbors(node) - outgoing.keys()
                if missing_targets:
                    raise SimulationError(
                        f"adversary strategy {self._adversary.name!r} did not "
                        f"provide values for edges "
                        f"{sorted(missing_targets, key=repr)!r} out of faulty "
                        f"node {node!r}"
                    )
                # Canonical insertion order for the normalised copy;
                # consumers index by key, so sorting is behaviour-neutral.
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

            # 2. Every node emits its messages for this round; delays come
            #    from one canonical-order array draw (the RNG contract).
            delays = (
                self._rng.integers(0, self._max_delay + 1, size=len(self._canonical_edges))
                if self._max_delay > 0
                else None
            )
            for position, (sender, target) in enumerate(self._canonical_edges):
                # The delay is drawn for every edge, but a masked channel's
                # message (edge down, or sender asleep) is never delivered.
                channel_up = True
                if edge_up is not None:
                    channel_up = bool(edge_up[position])
                if channel_up and awake is not None:
                    channel_up = bool(awake[layout.node_index[sender]])
                if not channel_up:
                    continue
                if sender in self._faulty:
                    value = faulty_messages[sender][target]
                else:
                    value = state[sender]
                delay = int(delays[position]) if delays is not None else 0
                in_flight[round_index + delay].append(
                    (round_index, sender, target, value)
                )

            # 3. Deliveries scheduled for this round update the buffers
            #    (freshest send time wins).
            for send_round, sender, target, value in in_flight.pop(round_index, []):
                stored_round, _ = freshest[(sender, target)]
                if send_round >= stored_round:
                    freshest[(sender, target)] = (send_round, value)

            # 4. Activation coins: one canonical-order array draw per round.
            active: set[NodeId] | None = None
            if self._update_probability < 1.0:
                coins = self._rng.random(len(self._ff_sorted))
                active = {
                    node
                    for node, coin in zip(self._ff_sorted, coins)
                    if coin < self._update_probability
                }

            # 5. Activated fault-free nodes recompute from their buffers;
            #    faulty nodes take their nominal value.
            new_state = dict(state)
            for node in nodes_sorted:
                if node in self._faulty:
                    new_state[node] = float(
                        self._adversary.nominal_value(node, context)
                    )
                    continue
                if active is not None and node not in active:
                    continue
                # Receiver sleep composes with the activation coins by
                # intersection: an asleep node keeps its state frozen.
                if awake is not None and not awake[layout.node_index[node]]:
                    continue
                received = [
                    ReceivedValue(sender=sender, value=freshest[(sender, node)][1])
                    for sender in sorted(graph.in_neighbors(node), key=repr)
                ]
                new_state[node] = float(
                    self._rule.compute(node, state[node], received)
                )
            state = new_state
            rounds_executed = round_index

            lows, highs = monitor.observe(
                self._fault_free_row(state),
                awake=None if awake is None else awake[self._ff_positions],
            )
            if config.record_history:
                trace.record_round(round_index, state)
            current_spread = float(highs[0] - lows[0])
            if config.stop_on_convergence and current_spread <= config.tolerance:
                converged = True

        if not config.stop_on_convergence:
            converged = current_spread <= config.tolerance
        final_values = {
            node: state[node] for node in graph.nodes if node not in self._faulty
        }
        return ConsensusOutcome(
            converged=converged,
            rounds_executed=rounds_executed,
            final_spread=current_spread,
            initial_spread=initial_spread,
            validity_ok=bool(monitor.ok[0]),
            final_values=final_values,
            history=trace.as_records() if config.record_history else tuple(),
        )

    def _fault_free_row(self, state: dict[NodeId, float]) -> np.ndarray:
        """The fault-free states as the ``(1, m)`` row the monitor reads."""
        return np.array([[state[node] for node in self._ff_sorted]])


def run_partially_asynchronous(
    graph: Digraph,
    rule: UpdateRule,
    inputs: ValueMap,
    faulty: frozenset[NodeId] | set[NodeId] = frozenset(),
    adversary: ByzantineStrategy | None = None,
    max_delay: int = 1,
    update_probability: float = 1.0,
    max_rounds: int = 500,
    tolerance: float = 1e-7,
    record_history: bool = True,
    rng: np.random.Generator | int | None = None,
    schedule: TopologySchedule | None = None,
) -> ConsensusOutcome:
    """Functional wrapper around :class:`PartiallyAsynchronousEngine`."""
    config = SimulationConfig(
        max_rounds=max_rounds,
        tolerance=tolerance,
        record_history=record_history,
    )
    engine = PartiallyAsynchronousEngine(
        graph=graph,
        rule=rule,
        faulty=faulty,
        adversary=adversary,
        config=config,
        max_delay=max_delay,
        update_probability=update_probability,
        rng=rng,
        schedule=schedule,
    )
    return engine.run(inputs)
