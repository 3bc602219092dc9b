"""Bitset-vectorized kernels for the exact feasibility and robustness checkers.

The exhaustive Theorem-1 search and the robustness checkers are exponential
enumerations whose inner loops were pure-Python ``frozenset`` algebra: one
``in_degree_within`` call (a hash-set intersection) per node per candidate
set.  This module re-expresses those inner loops as fixed-width bit
arithmetic so the exponential enumerations run at memory bandwidth instead of
interpreter speed:

* :class:`BitsetDigraphView` packs a :class:`~repro.graphs.digraph.Digraph`
  into one ``uint64`` adjacency word per node (node order sorted by ``repr``,
  bit ``j`` of ``in_masks[i]`` set iff ``nodes[j] → nodes[i]``).  The checker
  caps are far below 64 nodes, so a single word per node suffices; the same
  layout generalises to ``ceil(n / 64)`` words should the caps ever pass 64.
* ``|N⁻_v ∩ A|`` — the primitive of every checker — becomes
  ``popcount(in_masks[v] & mask(A))``: one AND plus one population count.
  The Theorem-1 sweep evaluates it per candidate set in C
  (:mod:`repro.conditions.search_kernel`) where this machine can build
  it, and otherwise across whole blocks of candidate sets with
  :func:`numpy.bitwise_count` (:func:`_search_fault_set`).
* The deletion closure behind :func:`maximal_insulated_subset` becomes
  :func:`maximal_insulated_subset_mask` (single candidate, incremental
  ``outside`` mask) and, in the NumPy sweep, a batched fixed point over a
  vector of candidate pools.
* The ``3^n`` disjoint-pair enumeration behind the robustness checkers is
  replaced by full ``2^n`` per-subset tables (:func:`r_reachable_counts`)
  combined through a subset-sum (SOS) dynamic program, turning the pair
  search into ``O(n · 2^n)`` vector operations.

The public checker APIs in :mod:`repro.conditions.necessary` and
:mod:`repro.conditions.robustness` route here by default
(``method="bitset"``) and keep the legacy pure-Python path as an escape
hatch (``method="python"``) and as the parity oracle for the test suite.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

import numpy as np

from repro.conditions import search_kernel
from repro.exceptions import InvalidParameterError
from repro.graphs.digraph import Digraph
from repro.types import NodeId, PartitionWitness

#: Largest node count representable by the single-word mask layout.
MAX_BITSET_NODES = 64

#: Block size (log2) of the NumPy sweep (:func:`_search_fault_set`):
#: candidate ``L`` masks are evaluated 2^16 at a time, bounding peak memory
#: to a few MB per block.  The compiled sweep has no blocks.
BLOCK_BITS = 16

_U64_ONE = np.uint64(1)
_U64_ZERO = np.uint64(0)


if hasattr(np, "bitwise_count"):

    def popcount_u64(words: np.ndarray) -> np.ndarray:
        """Return the per-element population count of a ``uint64`` array."""
        return np.bitwise_count(words)

else:  # pragma: no cover - exercised only on numpy < 2.0

    _POPCOUNT_TABLE = np.array(
        [bin(value).count("1") for value in range(1 << 16)], dtype=np.uint8
    )

    def popcount_u64(words: np.ndarray) -> np.ndarray:
        """Return the per-element population count of a ``uint64`` array.

        Fallback for numpy builds without :func:`numpy.bitwise_count`: view
        each 64-bit word as four 16-bit half-words and sum a lookup table.
        """
        halves = np.ascontiguousarray(words).view(np.uint16)
        return (
            _POPCOUNT_TABLE[halves]
            .reshape(*words.shape, 4)
            .sum(axis=-1, dtype=np.uint8)
        )


class BitsetDigraphView:
    """Packed-``uint64`` adjacency view of a :class:`Digraph`.

    Nodes are assigned bit indices ``0 … n − 1`` in ``repr``-sorted order
    (the same canonical order the legacy checkers enumerate in, so witnesses
    found by the two paths coincide).  ``in_mask_ints[i]`` is a Python int
    whose bit ``j`` is set iff ``nodes[j] → nodes[i]``; ``in_masks`` is the
    same data as a ``(n,)`` ``uint64`` array for vectorized kernels.
    """

    __slots__ = ("nodes", "index", "n", "in_mask_ints", "in_masks", "in_degrees", "full_mask")

    def __init__(self, graph: Digraph) -> None:
        nodes = tuple(sorted(graph.nodes, key=repr))
        n = len(nodes)
        if n > MAX_BITSET_NODES:
            raise InvalidParameterError(
                f"BitsetDigraphView packs masks into single 64-bit words and "
                f"supports at most {MAX_BITSET_NODES} nodes, got n = {n}"
            )
        index = {node: position for position, node in enumerate(nodes)}
        in_mask_ints: list[int] = []
        for node in nodes:
            mask = 0
            for predecessor in graph.in_neighbors(node):
                mask |= 1 << index[predecessor]
            in_mask_ints.append(mask)
        self.nodes = nodes
        self.index = index
        self.n = n
        self.in_mask_ints = in_mask_ints
        self.in_masks = np.array(in_mask_ints, dtype=np.uint64)
        self.in_degrees = np.array(
            [mask.bit_count() for mask in in_mask_ints], dtype=np.int32
        )
        self.full_mask = (1 << n) - 1

    def mask_of(self, nodes: Iterable[NodeId]) -> int:
        """Return the bitmask encoding ``nodes`` (each must be in the graph)."""
        mask = 0
        for node in nodes:
            try:
                mask |= 1 << self.index[node]
            except KeyError:
                raise InvalidParameterError(
                    f"node {node!r} is not in the bitset view"
                ) from None
        return mask

    def set_of(self, mask: int) -> frozenset[NodeId]:
        """Return the node set encoded by ``mask`` (inverse of :meth:`mask_of`)."""
        members = []
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            members.append(self.nodes[low.bit_length() - 1])
        return frozenset(members)


# ---------------------------------------------------------------------------
# Deletion-closure kernels
# ---------------------------------------------------------------------------
def maximal_insulated_subset_mask(
    view: BitsetDigraphView,
    pool_mask: int,
    universe_mask: int,
    threshold: int,
) -> int:
    """Mask form of :func:`repro.conditions.necessary.maximal_insulated_subset`.

    Repeatedly deletes from ``pool_mask`` any node with ``≥ threshold``
    in-neighbours in ``universe_mask − current``; the ``outside`` mask is
    updated incrementally (one OR per deletion) instead of being rebuilt, so
    the closure is linear in deletions times scan width.
    """
    current = pool_mask
    in_masks = view.in_mask_ints
    changed = True
    while changed and current:
        changed = False
        outside = universe_mask & ~current
        scan = current
        while scan:
            low = scan & -scan
            scan ^= low
            if (in_masks[low.bit_length() - 1] & outside).bit_count() >= threshold:
                current ^= low
                outside |= universe_mask & low
                changed = True
    return current


def _batched_closure(
    compact_in: np.ndarray,
    pools: np.ndarray,
    universe_mask: int,
    threshold: int,
) -> np.ndarray:
    """Run the deletion closure on a whole vector of candidate pools at once.

    ``compact_in`` holds one in-neighbour word per node; ``pools`` is a
    ``(B,)`` ``uint64`` vector of candidate masks sharing ``universe_mask``.
    Each sweep deletes, simultaneously across the batch, every node that
    currently receives ``≥ threshold`` values from outside its pool; the
    deletion closure is confluent, so the batched fixed point equals the
    sequential one.
    """
    current = pools.copy()
    universe = np.uint64(universe_mask)
    node_count = len(compact_in)
    while True:
        outside = universe & ~current
        remove = np.zeros_like(current)
        for position in range(node_count):
            bit = np.uint64(1 << position)
            member = (current & bit) != _U64_ZERO
            offending = popcount_u64(compact_in[position] & outside) >= threshold
            remove |= np.where(member & offending, bit, _U64_ZERO)
        if not remove.any():
            return current
        current &= ~remove


# ---------------------------------------------------------------------------
# Exhaustive Theorem-1 search
# ---------------------------------------------------------------------------
def _search_fault_set(
    compact_in: np.ndarray,
    count: int,
    threshold: int,
) -> tuple[int, int] | None:
    """Search one fault set's ``2^count`` candidate ``L`` masks for a witness.

    Candidate masks are evaluated in ascending order in blocks of
    ``2^BLOCK_BITS``: a block-wide insulation test (one masked popcount per
    node), then the batched closure on the survivors' complements.  Returns
    the first ``(left_mask, right_mask)`` pair (matching the legacy search
    order exactly) or ``None``.  This is the NumPy sweep: the fallback where
    the compiled one (:mod:`repro.conditions.search_kernel`) cannot be
    built, and the oracle it is tested against.
    """
    full = (1 << count) - 1
    full_word = np.uint64(full)
    block = 1 << min(BLOCK_BITS, count)
    for start in range(1, full, block):
        stop = min(start + block, full)
        masks = np.arange(start, stop, dtype=np.uint64)
        outside = full_word & ~masks
        insulated = np.ones(masks.shape, dtype=bool)
        for position in range(count):
            member = (masks >> np.uint64(position)) & _U64_ONE != _U64_ZERO
            offending = (
                popcount_u64(compact_in[position] & outside) >= threshold
            )
            insulated &= ~(member & offending)
        if not insulated.any():
            continue
        candidates = masks[insulated]
        pools = full_word & ~candidates
        closed = _batched_closure(compact_in, pools, full, threshold)
        viable = np.nonzero(closed)[0]
        if viable.size:
            first = viable[0]
            return int(candidates[first]), int(closed[first])
    return None


def find_violating_partition_bitset(
    graph: Digraph | BitsetDigraphView,
    f: int,
    threshold: int | None = None,
) -> PartitionWitness | None:
    """Bitset fast path of :func:`repro.conditions.necessary.find_violating_partition`.

    Enumerates fault sets in the legacy order (sizes ``0 … f``, nodes sorted
    by ``repr``) and, per fault set, sweeps the ``2^{n−|F|}`` candidate ``L``
    masks: in C (``sweep_fault_set`` of :mod:`repro.conditions.search_kernel`)
    where this machine can build it, else with the NumPy sweep
    :func:`_search_fault_set`.  Both return the same first pair.  Returns
    the same witness the legacy search would return (the search order and
    the uniqueness of the closure fixed point make the two paths pick
    identical partitions), or ``None`` when the condition holds.
    Node-count caps are enforced by the public wrapper; this function only
    requires ``n ≤ MAX_BITSET_NODES``.
    """
    if f < 0:
        raise InvalidParameterError(f"f must be >= 0, got {f}")
    view = graph if isinstance(graph, BitsetDigraphView) else BitsetDigraphView(graph)
    n = view.n
    if n < 2:
        return None
    effective_threshold = f + 1 if threshold is None else threshold
    compiled = search_kernel.kernel()
    for size in range(min(f, n) + 1):
        for combo in combinations(range(n), size):
            fault_mask = 0
            for position in combo:
                fault_mask |= 1 << position
            remaining = [
                position
                for position in range(n)
                if not (fault_mask >> position) & 1
            ]
            count = len(remaining)
            if count < 2:
                continue
            # Re-index the surviving nodes' in-masks onto compact bits
            # 0 … count−1 (in-neighbours inside F never count towards the
            # threshold because the universe is V − F).
            compact_in = []
            for global_pos in remaining:
                source_mask = view.in_mask_ints[global_pos] & ~fault_mask
                compact = 0
                for other_pos, other_global in enumerate(remaining):
                    if (source_mask >> other_global) & 1:
                        compact |= 1 << other_pos
                compact_in.append(compact)
            if compiled is not None:
                found = compiled.sweep(compact_in, effective_threshold)
            else:
                found = _search_fault_set(
                    np.array(compact_in, dtype=np.uint64), count, effective_threshold
                )
            if found is None:
                continue
            left_mask, right_mask = found
            left = frozenset(
                view.nodes[remaining[position]]
                for position in range(count)
                if (left_mask >> position) & 1
            )
            right = frozenset(
                view.nodes[remaining[position]]
                for position in range(count)
                if (right_mask >> position) & 1
            )
            faulty = frozenset(view.nodes[position] for position in combo)
            center = (
                frozenset(view.nodes[position] for position in remaining)
                - left
                - right
            )
            return PartitionWitness(
                faulty=faulty, left=left, center=center, right=right
            )
    return None


# ---------------------------------------------------------------------------
# Robustness kernels (full 2^n subset tables + subset-sum DP)
# ---------------------------------------------------------------------------
def outside_degree_table(view: BitsetDigraphView) -> np.ndarray:
    """Return the ``(n, 2^n)`` table of per-node outside-degrees by subset.

    ``table[i, mask]`` is ``|N⁻(nodes[i]) \\ S|`` when ``nodes[i] ∈ S`` (for
    ``S = set_of(mask)``) and ``−1`` otherwise, so thresholding with
    ``table >= r`` directly yields r-reachability membership for any
    ``r ≥ 1``.  The table does not depend on ``r`` — this is the dominant
    masked-popcount work of the robustness checkers, computed once and
    reused across every ``r`` (``robustness_degree`` probes up to
    ``⌈n/2⌉`` values).  ``int8`` suffices: degrees stay below the 64-node
    mask width.
    """
    n = view.n
    all_masks = np.arange(1 << n, dtype=np.uint64)
    table = np.empty((n, 1 << n), dtype=np.int8)
    for position in range(n):
        member = (all_masks >> np.uint64(position)) & _U64_ONE != _U64_ZERO
        inside = popcount_u64(all_masks & np.uint64(view.in_mask_ints[position]))
        outside_degree = view.in_degrees[position] - inside.astype(np.int16)
        np.copyto(table[position], outside_degree.astype(np.int8))
        table[position][~member] = -1
    return table


def r_reachable_counts(
    view: BitsetDigraphView, r: int, table: np.ndarray | None = None
) -> np.ndarray:
    """Return ``|X_S^r|`` for **every** subset ``S``, indexed by mask.

    ``counts[mask]`` is the number of nodes of ``S = set_of(mask)`` with at
    least ``r`` in-neighbours outside ``S`` — the size of the r-reachable
    subset ``X_S^r``.  Pass a precomputed :func:`outside_degree_table` to
    amortise the popcount passes across multiple ``r`` values.
    """
    if r < 1:
        raise InvalidParameterError(f"r must be >= 1, got {r}")
    if table is None:
        table = outside_degree_table(view)
    return (table >= r).sum(axis=0, dtype=np.int32)


def _subset_or(flags: np.ndarray, n: int) -> np.ndarray:
    """Subset-sum DP (OR): result[X] is true iff some ``S ⊆ X`` has flags[S]."""
    accumulated = flags.copy()
    for bit in range(n):
        planes = accumulated.reshape(-1, 2, 1 << bit)
        planes[:, 1, :] |= planes[:, 0, :]
    return accumulated


def _subset_min(values: np.ndarray, n: int) -> np.ndarray:
    """Subset-sum DP (min): result[X] is ``min over S ⊆ X of values[S]``."""
    accumulated = values.copy()
    for bit in range(n):
        planes = accumulated.reshape(-1, 2, 1 << bit)
        np.minimum(planes[:, 1, :], planes[:, 0, :], out=planes[:, 1, :])
    return accumulated


def is_r_robust_bitset(
    view: BitsetDigraphView, r: int, table: np.ndarray | None = None
) -> bool:
    """Bitset fast path of :func:`repro.conditions.robustness.is_r_robust`.

    The graph fails to be r-robust exactly when two disjoint non-empty
    subsets are both non-r-reachable.  With the per-subset table of
    :func:`r_reachable_counts`, the pair search reduces to: does any
    non-reachable ``S`` have a non-empty non-reachable subset inside its
    complement?  The latter is answered for all complements at once by the
    subset-OR dynamic program — ``O(n · 2^n)`` vector operations instead of
    ``3^n`` Python-set decodes.  ``table`` optionally reuses a precomputed
    :func:`outside_degree_table` across ``r`` values.
    """
    n = view.n
    if n < 2:
        return True
    non_reachable = r_reachable_counts(view, r, table=table) == 0
    non_reachable[0] = False
    if not non_reachable.any():
        return True
    has_bad_subset = _subset_or(non_reachable, n)
    bad_masks = np.nonzero(non_reachable)[0]
    complements = view.full_mask - bad_masks
    return not has_bad_subset[complements].any()


#: Sentinel larger than any attainable ``|X_S^r|`` sum, used by the
#: (r, s)-robustness score tables.
_UNREACHABLE_SCORE = np.int32(1 << 20)


def is_r_s_robust_bitset(view: BitsetDigraphView, r: int, s: int) -> bool:
    """Bitset fast path of :func:`repro.conditions.robustness.is_r_s_robust`.

    A pair ``(S₁, S₂)`` refutes (r, s)-robustness when both sides are only
    partially r-reachable and their reachable counts sum below ``s``.  Each
    subset gets a score — ``|X_S^r|`` when ``|X_S^r| < |S|``, +∞ otherwise —
    and the subset-min dynamic program finds, for every complement, the best
    partner score; a refuting pair exists iff some score plus its
    complement's best partner stays below ``s``.
    """
    if s < 1:
        raise InvalidParameterError(f"s must be >= 1, got {s}")
    n = view.n
    if n < 2:
        return True
    counts = r_reachable_counts(view, r)
    sizes = popcount_u64(np.arange(1 << n, dtype=np.uint64)).astype(np.int32)
    scores = np.where(
        (sizes > 0) & (counts < sizes), counts, _UNREACHABLE_SCORE
    ).astype(np.int32)
    best_partner = _subset_min(scores, n)
    partial = np.nonzero(scores < _UNREACHABLE_SCORE)[0]
    if not partial.size:
        return True
    complements = view.full_mask - partial
    return not np.any(scores[partial] + best_partner[complements] < s)


def robustness_degree_bitset(view: BitsetDigraphView) -> int:
    """Bitset fast path of :func:`repro.conditions.robustness.robustness_degree`.

    The r-independent outside-degree table is computed once and shared by
    every probe of the ascending-``r`` loop.
    """
    n = view.n
    if n < 2:
        return 0
    table = outside_degree_table(view)
    best = 0
    for r in range(1, (n + 1) // 2 + 1):
        if is_r_robust_bitset(view, r, table=table):
            best = r
        else:
            break
    return best
