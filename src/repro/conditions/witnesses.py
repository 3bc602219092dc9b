"""Witness construction and heuristic witness search.

A *witness* is a partition ``F, L, C, R`` demonstrating that a graph violates
the Theorem-1 condition (or its asynchronous variant).  This module provides

* canonical witnesses for the paper's hand-analysed examples
  (:func:`chord_n7_f2_witness` for the Section-6.3 counter-example,
  :func:`hypercube_dimension_cut_witness` for the Figure-3 partition),
* a randomized witness search (:func:`random_witness_search`) usable on
  graphs too large for the exhaustive checker — it can *disprove* the
  condition by exhibiting a witness but can never prove the condition holds,
* a greedy "grow two insulated islands" heuristic
  (:func:`greedy_witness_search`) that works well on graphs with obvious
  bottleneck cuts (barbells, hypercube dimension cuts).
"""

from __future__ import annotations

import numpy as np

from repro.conditions.bitset import (
    MAX_BITSET_NODES,
    BitsetDigraphView,
    maximal_insulated_subset_mask,
)
from repro.conditions.necessary import (
    maximal_insulated_subset,
    verify_witness,
)
from repro.exceptions import InvalidParameterError
from repro.graphs.digraph import Digraph
from repro.types import NodeId, PartitionWitness


def _bitset_view(graph: Digraph) -> BitsetDigraphView | None:
    """Return a packed adjacency view for the closure fast path, when it fits."""
    if graph.number_of_nodes <= MAX_BITSET_NODES:
        return BitsetDigraphView(graph)
    return None


def _closure(
    graph: Digraph,
    view: BitsetDigraphView | None,
    pool: frozenset[NodeId],
    universe: frozenset[NodeId],
    threshold: int,
) -> frozenset[NodeId]:
    """Maximal insulated subset of ``pool``, via the bitset kernel when a
    view is available (the closure dominates the witness searches' cost)."""
    if view is None:
        return maximal_insulated_subset(graph, pool, universe, threshold)
    return view.set_of(
        maximal_insulated_subset_mask(
            view, view.mask_of(pool), view.mask_of(universe), threshold
        )
    )


def verify_witness_fast(
    graph: Digraph,
    f: int,
    witness: PartitionWitness,
    threshold: int | None = None,
    view: BitsetDigraphView | None = None,
) -> bool:
    """Return whether ``witness`` is a genuine violating partition, using the
    packed mask closure when a bitset view is available.

    Equivalent to :func:`repro.conditions.necessary.verify_witness` (the
    partition structure is checked, then insulation of ``L`` and ``R``), but
    the insulation checks run as ``closure(X) == X`` fixed-point tests on the
    ``uint64`` masks — a set is insulated exactly when the deletion closure
    leaves it untouched.  Pass a pre-built ``view`` to amortise packing
    across many verifications; graphs beyond ``MAX_BITSET_NODES`` fall back
    to the pure-Python check.
    """
    if f < 0:
        raise InvalidParameterError(f"f must be >= 0, got {f}")
    if view is None:
        view = _bitset_view(graph)
    if view is None:
        return verify_witness(graph, f, witness, threshold=threshold)
    if len(witness.faulty) > f:
        return False
    if witness.all_nodes != graph.nodes:
        return False
    effective_threshold = f + 1 if threshold is None else threshold
    universe_mask = view.full_mask & ~view.mask_of(witness.faulty)
    for side in (witness.left, witness.right):
        side_mask = view.mask_of(side)
        closed = maximal_insulated_subset_mask(
            view, side_mask, universe_mask, effective_threshold
        )
        if closed != side_mask:
            return False
    return True


# ---------------------------------------------------------------------------
# Canonical paper witnesses
# ---------------------------------------------------------------------------
def chord_n7_f2_witness() -> PartitionWitness:
    """Return the paper's counter-example for the chord network with
    ``n = 7, f = 2`` (Section 6.3).

    The paper takes nodes 5 and 6 faulty, ``L = {0, 2}`` and ``R = {1, 3, 4}``:
    ``L ⇏ R`` because ``|L| < f + 1 = 3``, and ``R ⇏ L`` because
    ``N⁻_0 ∩ R = {3, 4}`` and ``N⁻_2 ∩ R = {1, 4}`` both have size below 3.
    """
    return PartitionWitness(
        faulty=frozenset({5, 6}),
        left=frozenset({0, 2}),
        center=frozenset(),
        right=frozenset({1, 3, 4}),
    )


def hypercube_dimension_cut_witness(dimension: int, cut_bit: int | None = None) -> PartitionWitness:
    """Return the Figure-3 style witness for the ``dimension``-cube and ``f ≥ 1``.

    Cutting the hypercube along one dimension leaves every node with exactly
    one neighbour on the other side, so with ``F = ∅`` and ``C = ∅`` neither
    half ``⇒`` the other at threshold ``f + 1 ≥ 2``.  By default the highest
    bit is cut, reproducing the paper's ``{0,1,2,3}`` vs ``{4,5,6,7}`` split
    for ``dimension = 3``.
    """
    from repro.graphs.generators import hypercube_dimension_cut

    if dimension < 1:
        raise InvalidParameterError(f"dimension must be >= 1, got {dimension}")
    bit = dimension - 1 if cut_bit is None else cut_bit
    low, high = hypercube_dimension_cut(dimension, bit)
    return PartitionWitness(
        faulty=frozenset(), left=low, center=frozenset(), right=high
    )


# ---------------------------------------------------------------------------
# Heuristic searches
# ---------------------------------------------------------------------------
def _grow_left(
    graph: Digraph,
    seed: NodeId,
    universe: frozenset[NodeId],
    threshold: int,
) -> tuple[set[NodeId], set[NodeId]] | None:
    """Grow ``L`` from ``{seed}`` inside ``universe = V − F`` until it is
    insulated, and return ``L`` with ``universe − L``; return ``None`` if
    offenders remain with nothing left to absorb (``threshold <= 0``).

    Each round, every offender (a node of ``L`` with ``threshold`` or more
    in-neighbours in ``universe − L``) absorbs the first ``repr``-sorted of
    those in-neighbours, just enough to drop under the threshold.  Offenders
    and absorb lists are taken against the ``L`` the round started with;
    the joiners are added afterwards, offender by offender in ``L``'s
    iteration order.

    Only the nodes that joined in the previous round can be offenders with
    anything left to absorb: a node that was not an offender has only lost
    outside in-neighbours since, and an offender absorbed enough of its own
    to fall under the threshold (or, at ``threshold <= 0``, all of them).
    So each node's outside in-degree is counted once, in the round after it
    joins, rather than recounted for all of ``L`` every round.
    """
    left = {seed}
    outside = set(universe)
    outside.discard(seed)
    joined = {seed}
    while True:
        offenders: list[set[NodeId]] = []
        for node in left:
            if node in joined:
                external = graph.in_neighbors_within(node, outside)
                if len(external) >= threshold:
                    offenders.append(external)
        if not offenders:
            return left, outside
        absorbed: list[NodeId] = []
        for external in offenders:
            needed = len(external) - threshold + 1
            absorbed += sorted(external, key=repr)[:needed]
        if not absorbed:
            return None
        left.update(absorbed)
        outside.difference_update(absorbed)
        joined = set(absorbed)


def greedy_witness_search(
    graph: Digraph,
    f: int,
    threshold: int | None = None,
    max_seeds: int | None = None,
) -> PartitionWitness | None:
    """Deterministic greedy search for a violating partition.

    For every node ``v`` (as a seed) and every fault set consisting of the
    ``k`` highest-in-degree in-neighbours of ``v`` for each ``k = 0 … f``,
    the search grows ``L`` from ``{v}`` by repeatedly absorbing the
    in-neighbours that prevent ``L`` from being insulated, then tries to
    complete the candidate into a witness.  Every prefix size is tried —
    not just ``k = 0`` and ``k = f`` — because knocking out *too many*
    neighbours can merge the islands a smaller fault set would keep apart.
    The search is sound (every returned witness is verified) but incomplete:
    ``None`` does not prove the condition holds.

    ``max_seeds`` caps the number of seed nodes tried (evenly spaced over the
    ``repr``-sorted node order, so the cap stays deterministic); ``None``
    tries every node.  The verdict stack uses the cap to bound the layer's
    cost on graphs with hundreds of nodes.
    """
    if f < 0:
        raise InvalidParameterError(f"f must be >= 0, got {f}")
    if max_seeds is not None and max_seeds < 1:
        raise InvalidParameterError(f"max_seeds must be >= 1, got {max_seeds}")
    effective_threshold = f + 1 if threshold is None else threshold
    nodes = sorted(graph.nodes, key=repr)
    n = len(nodes)
    view = _bitset_view(graph)

    seeds = nodes
    if max_seeds is not None and max_seeds < n:
        stride = n / max_seeds
        seeds = [nodes[int(index * stride)] for index in range(max_seeds)]

    for seed in seeds:
        # Candidate fault sets: every prefix of the seed's in-neighbours
        # sorted by descending in-degree (knocking out well-connected
        # neighbours is the most effective way to isolate the seed).
        neighbor_by_degree = sorted(
            graph.in_neighbors(seed), key=lambda v: (-graph.in_degree(v), repr(v))
        )
        fault_candidates = [frozenset()]
        if f > 0 and neighbor_by_degree:
            fault_candidates.extend(
                frozenset(neighbor_by_degree[:size])
                for size in range(1, min(f, len(neighbor_by_degree)) + 1)
            )
        for fault_set in fault_candidates:
            if seed in fault_set:
                continue
            universe = graph.nodes - fault_set
            grown = _grow_left(graph, seed, universe, effective_threshold)
            if grown is None:
                continue
            left, outside = grown
            if not outside:
                continue
            # R is the maximal insulated subset of what L left outside.
            right = _closure(
                graph, view, frozenset(outside), universe, effective_threshold
            )
            if not right:
                continue
            witness = PartitionWitness(
                faulty=fault_set,
                left=frozenset(left),
                center=universe - left - right,
                right=right,
            )
            if verify_witness_fast(
                graph, f, witness, threshold=effective_threshold, view=view
            ):
                return witness
    return None


#: Upper bound on raw RNG draws per requested attempt: duplicate samples are
#: resampled without consuming an attempt, and this factor keeps the resample
#: loop finite on tiny graphs whose sample space is quickly exhausted.
DUPLICATE_DRAW_FACTOR = 8


def random_witness_search(
    graph: Digraph,
    f: int,
    attempts: int = 200,
    threshold: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> PartitionWitness | None:
    """Randomized search for a violating partition.

    Each attempt samples a fault set ``F`` (uniform size ``0 … f``) and a seed
    set ``L₀``, computes the maximal insulated subset of ``V − F`` containing
    the seeds' side, and tries to complete it into a witness.  Sound but
    incomplete; useful on graphs beyond the exhaustive checker's cap.

    Exact duplicates of an earlier ``(F, L₀)`` sample are resampled instead
    of silently burning an attempt (bounded by ``DUPLICATE_DRAW_FACTOR``
    draws per attempt so tiny sample spaces still terminate), and candidate
    witnesses are re-verified through the bitset mask closure when the graph
    fits a :class:`BitsetDigraphView`.  The search stays deterministic for a
    fixed ``rng`` seed.
    """
    if f < 0:
        raise InvalidParameterError(f"f must be >= 0, got {f}")
    if attempts < 1:
        raise InvalidParameterError(f"attempts must be >= 1, got {attempts}")
    effective_threshold = f + 1 if threshold is None else threshold
    generator = (
        rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    )
    nodes = sorted(graph.nodes, key=repr)
    n = len(nodes)
    if n < 2:
        return None
    view = _bitset_view(graph)

    seen: set[tuple[frozenset[NodeId], frozenset[NodeId]]] = set()
    performed = 0
    draws = 0
    max_draws = attempts * DUPLICATE_DRAW_FACTOR
    while performed < attempts and draws < max_draws:
        draws += 1
        fault_size = int(generator.integers(0, f + 1)) if f > 0 else 0
        fault_indices = generator.choice(n, size=fault_size, replace=False)
        fault_set = frozenset(nodes[int(index)] for index in fault_indices)
        universe = graph.nodes - fault_set
        remaining = sorted(universe, key=repr)
        if len(remaining) < 2:
            continue
        # Sample a random bipartition of the remaining nodes; shrink each side
        # to its maximal insulated subset and keep the pair if both survive.
        side_mask = generator.random(len(remaining)) < 0.5
        left_pool = frozenset(
            node for node, flag in zip(remaining, side_mask) if flag
        )
        sample = (fault_set, left_pool)
        if sample in seen:
            continue
        seen.add(sample)
        performed += 1
        right_pool = universe - left_pool
        if not left_pool or not right_pool:
            continue
        left = _closure(graph, view, left_pool, universe, effective_threshold)
        if not left:
            continue
        right = _closure(
            graph, view, universe - left, universe, effective_threshold
        )
        if not right:
            continue
        witness = PartitionWitness(
            faulty=fault_set,
            left=left,
            center=universe - left - right,
            right=right,
        )
        if verify_witness_fast(
            graph, f, witness, threshold=effective_threshold, view=view
        ):
            return witness
    return None
