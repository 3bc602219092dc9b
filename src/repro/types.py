"""Shared type aliases and small value objects used across the library.

The library models the paper's objects directly:

* nodes are arbitrary hashable identifiers (the generators use ``int``),
* node states are real numbers (``float``),
* a *fault set* ``F`` is a frozenset of node identifiers with ``|F| <= f``,
* a *partition witness* records the sets ``F, L, C, R`` of Theorem 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

# A node identifier.  Generators produce ``int`` nodes but any hashable value
# is accepted by the graph type and the algorithms.
NodeId = Hashable

# A directed edge ``(source, target)`` meaning ``source`` can transmit to
# ``target`` (the paper's ``(i, j) ∈ E`` convention).
Edge = tuple[NodeId, NodeId]

# A mapping from node identifier to its real-valued state / input.
ValueMap = Mapping[NodeId, float]


@dataclass(frozen=True)
class RoundRecord:
    """State of the system at the end of one iteration.

    Attributes
    ----------
    round_index:
        The iteration number ``t`` (0 is the initial state, before any
        message exchange).
    values:
        State ``v_i[t]`` of every node, including faulty nodes' nominal
        states (what the adversary reports as its "state"; fault-free nodes
        never rely on it).
    fault_free_max:
        ``U[t] = max over fault-free i of v_i[t]``.
    fault_free_min:
        ``µ[t] = min over fault-free i of v_i[t]``.
    """

    round_index: int
    values: dict[NodeId, float]
    fault_free_max: float
    fault_free_min: float

    @property
    def spread(self) -> float:
        """Return ``U[t] − µ[t]``, the quantity driven to zero by convergence."""
        return self.fault_free_max - self.fault_free_min


@dataclass(frozen=True)
class ReceivedValue:
    """A single value received by a node during one iteration.

    ``sender`` identifies the in-neighbour the value arrived from (edges are
    authenticated in the paper's model, so the receiver always knows the
    sender), and ``value`` is the real number carried by the message.
    """

    sender: NodeId
    value: float


@dataclass(frozen=True)
class ConsensusOutcome:
    """Summary of a finished consensus simulation.

    Attributes
    ----------
    converged:
        Whether the fault-free spread ``U[t] − µ[t]`` dropped to or below the
        requested tolerance within the allotted number of iterations.
    rounds_executed:
        Number of iterations actually executed (excluding round 0).
    final_spread:
        ``U[T] − µ[T]`` at the last executed iteration ``T``.
    initial_spread:
        ``U[0] − µ[0]``.
    validity_ok:
        Whether validity held at every iteration, as checked by
        :class:`~repro.simulation.metrics.ValidityMonitor`.  The synchronous
        engines check eq. 1 (``U[t] ≤ U[t−1]`` and ``µ[t] ≥ µ[t−1]``) against
        the tightest interval seen so far; the partially asynchronous
        engines check the weaker initial-hull form (every fault-free state
        stays in ``[µ[0], U[0]]``), the one that survives stale values.
        Under a topology schedule it also requires every asleep node to keep
        its state exactly.
    final_values:
        Final state of every fault-free node.
    history:
        Full per-round records (present only when tracing was enabled).
    """

    converged: bool
    rounds_executed: int
    final_spread: float
    initial_spread: float
    validity_ok: bool
    final_values: dict[NodeId, float]
    history: tuple[RoundRecord, ...] = field(default_factory=tuple)

    @property
    def contraction_ratio(self) -> float:
        """Overall contraction ``final_spread / initial_spread``.

        Returns 0.0 when the initial spread is zero (already agreed), so that
        the ratio is always well defined and monotone in the final spread.
        """
        if self.initial_spread == 0:
            return 0.0
        return self.final_spread / self.initial_spread


@dataclass(frozen=True)
class PartitionWitness:
    """A partition ``F, L, C, R`` of the vertex set witnessing a violation of
    the Theorem-1 condition (or, in the asynchronous variant, of its
    ``2f + 1`` counterpart).

    A witness certifies that ``C ∪ R ⇏ L`` and ``L ∪ C ⇏ R``; per the
    necessity proof, an adversary controlling ``F`` can then prevent the sets
    ``L`` and ``R`` from ever agreeing.
    """

    faulty: frozenset[NodeId]
    left: frozenset[NodeId]
    center: frozenset[NodeId]
    right: frozenset[NodeId]

    def __post_init__(self) -> None:
        overlap_pairs = (
            (self.faulty, self.left),
            (self.faulty, self.center),
            (self.faulty, self.right),
            (self.left, self.center),
            (self.left, self.right),
            (self.center, self.right),
        )
        for first, second in overlap_pairs:
            if first & second:
                raise ValueError(
                    "partition witness parts must be pairwise disjoint; "
                    f"found overlap {sorted(first & second, key=repr)!r}"
                )
        if not self.left or not self.right:
            raise ValueError("witness sets L and R must both be non-empty")

    @property
    def all_nodes(self) -> frozenset[NodeId]:
        """All nodes covered by the witness (``F ∪ L ∪ C ∪ R``)."""
        return self.faulty | self.left | self.center | self.right

    def describe(self) -> str:
        """Return a compact human-readable description of the witness."""

        def fmt(nodes: frozenset[NodeId]) -> str:
            return "{" + ", ".join(str(v) for v in sorted(nodes, key=repr)) + "}"

        return (
            f"F={fmt(self.faulty)}, L={fmt(self.left)}, "
            f"C={fmt(self.center)}, R={fmt(self.right)}"
        )


@dataclass(frozen=True)
class FeasibilityResult:
    """Result of a feasibility (Theorem 1 / async variant) check.

    Attributes
    ----------
    satisfied:
        ``True`` when the graph satisfies the condition for the given ``f``.
    f:
        The fault budget the check was performed for.
    witness:
        When ``satisfied`` is ``False`` and the checker produces
        counter-examples, the violating partition.  Heuristic checkers may
        report ``satisfied=False`` only when they find a witness, so a
        ``False`` without witness can only come from the fast screens
        (Corollaries 2 and 3) where the witness is implicit.
    method:
        Name of the checker that produced the verdict (``"exhaustive"``,
        ``"screen:n>3f"``, ``"screen:in-degree"``, ``"randomized"``,
        ``"structural"``).
    reason:
        Optional human-readable explanation.
    """

    satisfied: bool
    f: int
    witness: PartitionWitness | None = None
    method: str = "exhaustive"
    reason: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self.satisfied


@dataclass(frozen=True)
class PropagationResult:
    """Result of computing whether a set ``A`` propagates to a set ``B``
    (Definition 3 of the paper).

    ``steps`` is the propagation length ``l`` when propagation succeeds.  The
    sequences ``a_sets``/``b_sets`` are the propagating sequences
    ``A_0..A_l`` and ``B_0..B_l``; when propagation fails they hold the
    maximal prefix computed before the expansion stalled.
    """

    propagates: bool
    steps: int
    a_sets: tuple[frozenset[NodeId], ...]
    b_sets: tuple[frozenset[NodeId], ...]

    @property
    def length(self) -> int:
        """Alias for ``steps`` matching the paper's symbol ``l``."""
        return self.steps


def as_node_tuple(nodes: Sequence[NodeId] | frozenset[NodeId]) -> tuple[NodeId, ...]:
    """Return ``nodes`` as a tuple sorted by ``repr`` for deterministic output.

    Sorting by ``repr`` keeps mixed node-identifier types (e.g. ints and
    strings in the same graph) comparable and stable across runs.
    """
    return tuple(sorted(nodes, key=repr))
