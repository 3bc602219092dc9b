"""Update-rule abstraction shared by all iterative consensus algorithms.

The paper's family of iterative algorithms (Section 2.3) is defined by a
transition function ``Z_i``: in iteration ``t`` node ``i`` broadcasts its
state, receives the vector ``r_i[t]`` of values on its incoming edges and sets

    ``v_i[t] = Z_i(r_i[t], v_i[t − 1])``.

An :class:`UpdateRule` is exactly such a ``Z_i``: a stateless object mapping
(own previous value, received values) to the new value.  Keeping rules
stateless lets the same rule instance drive every node under both the
synchronous and the asynchronous engine, and lets the analysis module reason
about rule parameters (the weights ``a_i`` and their minimum ``α``)
independently of any particular execution.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.exceptions import AlgorithmPreconditionError, InvalidParameterError
from repro.graphs.digraph import Digraph
from repro.types import NodeId, ReceivedValue


class UpdateRule(ABC):
    """Base class for the transition functions ``Z_i`` of iterative algorithms.

    Subclasses implement :meth:`compute` and may override
    :meth:`minimum_in_degree` (the structural precondition checked before a
    simulation starts) and :meth:`weight_floor` (the per-node weight lower
    bound used by the convergence analysis; ``None`` when the rule has no
    meaningful ``α``).
    """

    #: Human-readable rule name used in reports and benchmark tables.
    name: str = "update-rule"

    def __init__(self, f: int) -> None:
        if f < 0:
            raise InvalidParameterError(f"fault budget f must be >= 0, got {f}")
        self._f = f

    @property
    def f(self) -> int:
        """The fault budget the rule is configured for."""
        return self._f

    # ------------------------------------------------------------------
    # Core interface
    # ------------------------------------------------------------------
    @abstractmethod
    def compute(
        self,
        node: NodeId,
        own_value: float,
        received: Sequence[ReceivedValue],
    ) -> float:
        """Return the node's new state given its own value and the received vector.

        ``received`` contains one entry per incoming edge (the paper's
        ``r_i[t]``); senders are included because edges are authenticated, but
        fault-tolerant rules must not *trust* sender identities beyond that.
        """

    def minimum_in_degree(self) -> int:
        """Return the smallest in-degree for which the rule is well defined.

        The synchronous engine validates this for every fault-free node before
        running.  The default is 0 (no structural requirement).
        """
        return 0

    def weight_floor(self, in_degree: int) -> float | None:
        """Return the smallest weight ``a_i`` the rule assigns at a node with
        the given in-degree, or ``None`` when the rule is not a weighted
        average with positive self-weight (in which case the paper's ``α``
        machinery does not apply)."""
        return None

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def validate_graph(self, graph: Digraph, nodes: Sequence[NodeId] | None = None) -> None:
        """Check the rule's structural precondition on ``graph``.

        ``nodes`` restricts the check (e.g. to fault-free nodes only); by
        default every node is checked.  Raises
        :class:`~repro.exceptions.AlgorithmPreconditionError` on violation.
        """
        required = self.minimum_in_degree()
        to_check = graph.nodes if nodes is None else nodes
        for node in to_check:
            if graph.in_degree(node) < required:
                raise AlgorithmPreconditionError(
                    f"rule {self.name!r} with f = {self._f} requires in-degree "
                    f">= {required}, but node {node!r} has in-degree "
                    f"{graph.in_degree(node)}"
                )

    def alpha(self, graph: Digraph, nodes: Sequence[NodeId] | None = None) -> float | None:
        """Return ``α = min_i a_i`` over the given nodes (paper eq. 3).

        Returns ``None`` for rules without a weight floor.  ``nodes`` defaults
        to every node of the graph; convergence analysis typically passes the
        fault-free nodes.
        """
        to_check = graph.nodes if nodes is None else nodes
        floors: list[float] = []
        for node in to_check:
            floor = self.weight_floor(graph.in_degree(node))
            if floor is None:
                return None
            floors.append(floor)
        if not floors:
            return None
        return min(floors)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(f={self._f})"


def sort_received(received: Sequence[ReceivedValue]) -> list[ReceivedValue]:
    """Return the received values sorted by value (ties broken by sender repr).

    The paper's Algorithm 1 breaks ties arbitrarily; sorting on the sender's
    ``repr`` as a secondary key makes every rule deterministic, which the
    tests and benchmarks rely on.
    """
    return sorted(received, key=lambda item: (item.value, repr(item.sender)))


def mean_in_order(values: Sequence[float]) -> float:
    """Return the mean of ``values`` summed left to right from the first.

    This is ``np.cumsum``'s order, which the batch kernels share, so the
    scalar rules stay bit-exact with them.  Builtin ``sum`` is not: since
    CPython 3.12 it sums floats with compensation (Neumaier), and it starts
    from the integer ``0``.
    """
    total = values[0]
    for value in values[1:]:
        total += value
    return total / len(values)
