"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by the library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause without accidentally swallowing programming errors such as
``TypeError`` raised by misuse of the Python API itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Base class for errors concerning graph construction or queries."""


class NodeNotFoundError(GraphError, KeyError):
    """A node referenced in an operation is not present in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """An edge referenced in an operation is not present in the graph."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"edge ({source!r}, {target!r}) is not in the graph")
        self.source = source
        self.target = target


class SelfLoopError(GraphError, ValueError):
    """A self-loop was supplied to a graph that forbids them.

    The paper's network model (Section 2.1) excludes self-loops from the edge
    set ``E`` even though every node may use its own state; the library follows
    the same convention.
    """

    def __init__(self, node: object) -> None:
        super().__init__(
            f"self-loop on node {node!r} is not allowed: the network model "
            "excludes self-loops from E (each node always has access to its "
            "own state implicitly)"
        )
        self.node = node


class DuplicateNodeError(GraphError, ValueError):
    """The same node was added twice with conflicting semantics."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} already exists in the graph")
        self.node = node


class InvalidParameterError(ReproError, ValueError):
    """A parameter supplied to a generator, checker or engine is invalid."""


class ConditionCheckError(ReproError):
    """Base class for errors raised by feasibility-condition checkers."""


class GraphTooLargeError(ConditionCheckError):
    """The exact (exhaustive) checker was asked to process a graph larger
    than its configured node-count cap.

    The exhaustive Theorem-1 checker enumerates all partitions ``F, L, C, R``
    of the vertex set and is therefore exponential in ``n``.  To avoid
    accidentally launching multi-hour enumerations, it refuses graphs above a
    configurable cap; callers that really want the exact answer on a larger
    graph can raise the cap explicitly.
    """

    def __init__(self, n: int, cap: int, checker: str | None = None) -> None:
        label = checker or "exact condition check"
        super().__init__(
            f"{label} requested on a graph with n = {n} nodes, but the "
            f"configured cap is max_nodes = {cap}; raise max_nodes to force "
            "the exhaustive enumeration or use a heuristic checker"
        )
        self.n = n
        self.cap = cap
        self.checker = checker


class InvalidPartitionError(ConditionCheckError, ValueError):
    """A partition supplied to the condition machinery is malformed
    (overlapping parts, parts not covering the vertex set, or empty parts
    where non-empty parts are required)."""


class SimulationError(ReproError):
    """Base class for errors raised by the simulation engines."""


class FaultBudgetExceededError(SimulationError, ValueError):
    """More faulty nodes were requested than the fault budget ``f`` allows."""

    def __init__(self, requested: int, budget: int) -> None:
        super().__init__(
            f"{requested} faulty nodes requested but the fault budget is "
            f"f = {budget}"
        )
        self.requested = requested
        self.budget = budget


class AlgorithmPreconditionError(SimulationError, ValueError):
    """An update rule's structural precondition does not hold.

    For example, Algorithm 1 requires every fault-free node to have in-degree
    at least ``2f`` so that after trimming the ``f`` lowest and ``f`` highest
    received values at least one received value survives (Corollary 3 shows
    ``2f + 1`` is in fact necessary for correctness).
    """


class ValidityViolationError(SimulationError):
    """Raised by strict-mode simulations when validity is violated: a
    fault-free state left the reference interval (eq. 1, or the initial hull
    in the partially asynchronous model) or an asleep node's frozen state
    changed.  This should never happen for the algorithms implemented here;
    it exists to catch implementation bugs and to support negative tests.

    ``row`` (batch row, ``0`` for a single run), ``round_index`` and
    ``node`` locate the violation; ``bound`` is the value the node had to
    respect (the interval end it crossed, or its frozen value) and
    ``observed`` the value it reached.
    """

    def __init__(
        self,
        message: str,
        *,
        row: int | None = None,
        round_index: int | None = None,
        node: object = None,
        bound: float | None = None,
        observed: float | None = None,
    ) -> None:
        super().__init__(message)
        self.row = row
        self.round_index = round_index
        self.node = node
        self.bound = bound
        self.observed = observed


class SchemaViolationError(ReproError):
    """A result row (or stored document) does not match its declared schema.

    Raised by the row-schema layer (:mod:`repro.sweeps.schema`) when a
    runner emits an unknown, missing or mistyped column, when a stored
    shard / aggregate fails validation on read, or when a resumed run's
    on-disk schema fingerprint disagrees with the code's — each message
    carries the offending coordinates (experiment, cell, row, column) so
    the corrupted cell is identifiable without a debugger.
    """


class AnalysisError(ReproError):
    """Base class for errors raised by the analysis helpers."""


class NotApplicableError(AnalysisError):
    """An analytical quantity is undefined for the supplied inputs (for
    example, a propagation length between sets for which neither set
    propagates to the other)."""
