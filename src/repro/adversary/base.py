"""Byzantine adversary abstraction.

The paper's failure model (Section 2.2) gives the adversary full power: up to
``f`` nodes may misbehave arbitrarily, may collude, know the complete state of
every other node and the full algorithm specification, and — because the model
is point-to-point — may send *different* values to different out-neighbours in
the same iteration.

The simulation engines realise this by handing each faulty node's behaviour to
a :class:`ByzantineStrategy`.  Every iteration the engine builds an
:class:`AdversaryContext` exposing the entire system state (exactly the
knowledge the paper grants the adversary) and asks the strategy what value to
place on each outgoing edge of each faulty node.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping

from repro.exceptions import SimulationError
from repro.graphs.digraph import Digraph
from repro.types import NodeId


@dataclass(frozen=True)
class AdversaryContext:
    """Complete system knowledge available to the adversary in one iteration.

    Attributes
    ----------
    graph:
        The communication graph.
    round_index:
        The iteration ``t`` about to be executed (messages carry states from
        the end of iteration ``t − 1``).
    values:
        State ``v_j[t − 1]`` of every node, faulty and fault-free alike.
    faulty:
        The set ``F`` of faulty nodes (so collusive strategies can coordinate).
    f:
        The fault budget the fault-free nodes defend against.
    """

    graph: Digraph
    round_index: int
    values: Mapping[NodeId, float]
    faulty: frozenset[NodeId]
    f: int

    @property
    def fault_free_nodes(self) -> frozenset[NodeId]:
        """All nodes not controlled by the adversary."""
        return self.graph.nodes - self.faulty

    @property
    def fault_free_values(self) -> dict[NodeId, float]:
        """States of the fault-free nodes only."""
        return {
            node: self.values[node]
            for node in self.fault_free_nodes
        }

    @property
    def fault_free_max(self) -> float:
        """``U[t − 1]``: the largest fault-free state."""
        return max(self.fault_free_values.values())

    @property
    def fault_free_min(self) -> float:
        """``µ[t − 1]``: the smallest fault-free state."""
        return min(self.fault_free_values.values())


class ByzantineStrategy(ABC):
    """Behaviour of the faulty nodes.

    One strategy instance controls *all* faulty nodes (the paper allows the
    faulty nodes to collaborate), so a strategy can coordinate what different
    faulty nodes send.
    """

    #: Human-readable name used in reports and benchmark tables.
    name: str = "byzantine-strategy"

    #: Whether one instance may safely serve many batched executions at once.
    #: Strategies that accumulate per-execution state (e.g. a frozen initial
    #: value) must set this to ``False`` so the vectorized engine's shared
    #: adapter refuses to leak one execution's state into another; see
    #: :class:`repro.adversary.vectorized.ScalarStrategyAdapter`.
    batch_safe: bool = True

    @abstractmethod
    def outgoing_values(
        self, node: NodeId, context: AdversaryContext
    ) -> dict[NodeId, float]:
        """Return the value placed on each outgoing edge of faulty ``node``.

        The returned mapping must contain every out-neighbour of ``node``
        (the synchronous model has no omissions: a value is delivered on every
        edge every iteration).  Different out-neighbours may receive different
        values — this is the extra power of the point-to-point model over the
        broadcast model discussed in the related-work section.
        """

    def nominal_value(self, node: NodeId, context: AdversaryContext) -> float:
        """Return the value recorded as the faulty node's "state" in traces.

        Fault-free nodes never rely on this; it exists purely so execution
        traces have an entry for every node.  The default is the node's
        previous recorded state.
        """
        return float(context.values[node])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def faulty_messages(
    strategy: ByzantineStrategy, context: AdversaryContext
) -> dict[NodeId, dict[NodeId, float]]:
    """Ask ``strategy`` what every faulty node sends on each out-edge.

    The faulty senders are interrogated in canonical (``repr``-sorted)
    order, the RNG-stream contract every engine shares, so RNG-backed
    strategies consume their draws identically everywhere.  Returns each
    sender's values converted to ``float``, keyed by target; a strategy that
    omits an out-edge raises :class:`~repro.exceptions.SimulationError`
    naming the sender, since no model has omissions.
    """
    messages: dict[NodeId, dict[NodeId, float]] = {}
    for node in sorted(context.faulty, key=repr):
        outgoing = strategy.outgoing_values(node, context)
        missing = context.graph.out_neighbors(node) - outgoing.keys()
        if missing:
            raise SimulationError(
                f"adversary strategy {strategy.name!r} did not provide values "
                f"for edges {sorted(missing, key=repr)!r} out of faulty node "
                f"{node!r}; the model has no omissions"
            )
        # reprolint: disable=ORD002 -- a lookup table: every consumer indexes it by target
        messages[node] = {target: float(value) for target, value in outgoing.items()}
    return messages


class PassiveStrategy(ByzantineStrategy):
    """A "faulty" node that behaves exactly like a correct node.

    Useful as a control in experiments: with a passive adversary the system
    must behave identically to the fault-free execution on the same graph.
    """

    name = "passive"

    def outgoing_values(
        self, node: NodeId, context: AdversaryContext
    ) -> dict[NodeId, float]:
        value = float(context.values[node])
        return {neighbor: value for neighbor in context.graph.out_neighbors(node)}
