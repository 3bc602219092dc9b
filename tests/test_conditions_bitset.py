"""Property-based parity suite: bitset vs legacy Python condition checkers.

The bitset kernels (:mod:`repro.conditions.bitset`) re-implement the exact
Theorem-1 search, the deletion closure and the robustness checkers as packed
``uint64`` arithmetic.  These tests pin them to the legacy pure-Python
implementations — feasibility verdict, witness identity and validity
(via :func:`verify_witness`), robustness verdicts and degree — on random
graph families across seeds and on the hand-built witness digraphs, plus
regression tests for the condition-checker bugfixes that rode along
(incremental closure counters, canonical disjoint-pair enumeration,
consistent ``GraphTooLargeError`` handling).

The Theorem-1 parity suites run twice: as collected, on the compiled sweep
where this machine can build it, and again as ``...OnTheFallback`` on the
NumPy sweep.
"""

from __future__ import annotations

import pytest

from repro.conditions.asynchronous import (
    check_async_feasibility,
    find_async_violating_partition,
)
from repro.conditions.bitset import (
    MAX_BITSET_NODES,
    BitsetDigraphView,
    maximal_insulated_subset_mask,
)
from repro.conditions.necessary import (
    DEFAULT_MAX_EXACT_NODES,
    check_feasibility,
    find_violating_partition,
    maximal_insulated_subset,
    satisfies_theorem1,
    verify_witness,
)
from repro.conditions.robustness import (
    DEFAULT_MAX_ROBUSTNESS_NODES,
    _iter_disjoint_pairs,
    disjoint_pair_count,
    is_r_robust,
    is_r_s_robust,
    robustness_degree,
)
from repro.conditions.witnesses import chord_n7_f2_witness
from repro.exceptions import GraphTooLargeError, InvalidParameterError
from repro.graphs.digraph import Digraph
from repro.graphs.generators import (
    chord_network,
    complete_graph,
    core_network,
    hypercube,
    undirected_ring,
)
from repro.graphs.random_graphs import (
    erdos_renyi_digraph,
    k_in_regular_digraph,
    random_core_like_network,
)
import numpy as np


def barbell(clique_size: int, bridges_per_node: int = 1) -> Digraph:
    """Two bidirectional cliques with ``bridges_per_node`` crossing links per
    node — the hand-built violating family of test_conditions_handbuilt."""
    graph = Digraph(nodes=range(2 * clique_size))
    for side_start in (0, clique_size):
        for a in range(side_start, side_start + clique_size):
            for b in range(a + 1, side_start + clique_size):
                graph.add_bidirectional_edge(a, b)
    for i in range(clique_size):
        for j in range(bridges_per_node):
            graph.add_bidirectional_edge(
                i, clique_size + ((i + j) % clique_size)
            )
    return graph


def random_battery(seed: int, count: int = 4) -> list[Digraph]:
    """A deterministic mixed sample of the three random families."""
    rng = np.random.default_rng(seed)
    graphs: list[Digraph] = []
    for _ in range(count):
        graphs.append(erdos_renyi_digraph(9, 0.45, rng=rng))
        graphs.append(k_in_regular_digraph(9, 4, rng=rng))
        graphs.append(random_core_like_network(10, 2, rng=rng))
    return graphs


HANDBUILT_CASES = [
    ("chord n=7 f=2", chord_network(7, 2), 2),
    ("hypercube d=3 f=1", hypercube(3), 1),
    ("barbell 4+4", barbell(4), 1),
    ("barbell 6+6 two bridges", barbell(6, 2), 1),
    ("complete n=7 f=2", complete_graph(7), 2),
    ("core n=10 f=3", core_network(10, 3), 3),
    ("ring n=8 f=1", undirected_ring(8), 1),
]


class TestBitsetView:
    def test_masks_round_trip_and_match_adjacency(self):
        graph = chord_network(9, 2)
        view = BitsetDigraphView(graph)
        assert view.n == 9
        assert view.set_of(view.mask_of({0, 3, 7})) == frozenset({0, 3, 7})
        assert view.set_of(view.full_mask) == graph.nodes
        for position, node in enumerate(view.nodes):
            decoded = view.set_of(view.in_mask_ints[position])
            assert decoded == graph.in_neighbors(node)
            assert view.in_degrees[position] == graph.in_degree(node)

    def test_unknown_node_rejected(self):
        view = BitsetDigraphView(complete_graph(4))
        with pytest.raises(InvalidParameterError):
            view.mask_of({99})

    def test_view_rejects_more_than_64_nodes(self):
        graph = Digraph(nodes=range(MAX_BITSET_NODES + 1))
        with pytest.raises(InvalidParameterError):
            BitsetDigraphView(graph)


def reference_closure(graph, candidate_pool, universe, threshold):
    """The pre-fix quadratic deletion closure, kept as the parity oracle."""
    current = set(candidate_pool)
    changed = True
    while changed and current:
        changed = False
        outside = universe - current
        for node in list(current):
            if graph.in_degree_within(node, outside) >= threshold:
                current.discard(node)
                outside = universe - current
                changed = True
    return frozenset(current)


class TestClosureParity:
    """Regression for the incremental-counter rewrite of the closure, and
    parity of the bitset mask closure, against the original algorithm."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fixed_points_identical_on_random_digraphs(self, seed):
        rng = np.random.default_rng(100 + seed)
        for graph in random_battery(seed, count=2):
            view = BitsetDigraphView(graph)
            nodes = sorted(graph.nodes, key=repr)
            for _ in range(6):
                universe = frozenset(
                    node for node in nodes if rng.random() < 0.8
                )
                pool = frozenset(
                    node for node in universe if rng.random() < 0.6
                )
                for threshold in (1, 2, 3):
                    expected = reference_closure(graph, pool, universe, threshold)
                    assert (
                        maximal_insulated_subset(graph, pool, universe, threshold)
                        == expected
                    )
                    mask = maximal_insulated_subset_mask(
                        view,
                        view.mask_of(pool),
                        view.mask_of(universe),
                        threshold,
                    )
                    assert view.set_of(mask) == expected

    def test_pool_nodes_outside_universe_keep_legacy_semantics(self):
        # A pool node not in the universe can survive the closure (it never
        # contributes to anyone's outside count) — both implementations must
        # agree on this corner.
        graph = Digraph(nodes=range(4), edges=[(1, 0), (2, 0), (3, 0)])
        universe = frozenset({0, 1, 2})
        pool = frozenset({0, 3})
        expected = reference_closure(graph, pool, universe, 2)
        assert maximal_insulated_subset(graph, pool, universe, 2) == expected
        assert expected == frozenset({3})


class TestFeasibilityParity:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_random_families_verdict_and_witness_parity(self, seed):
        for graph in random_battery(seed):
            for f in (1, 2):
                bitset = find_violating_partition(graph, f, method="bitset")
                python = find_violating_partition(graph, f, method="python")
                assert bitset == python
                if bitset is not None:
                    assert verify_witness(graph, f, bitset)

    @pytest.mark.parametrize("label,graph,f", HANDBUILT_CASES)
    def test_handbuilt_parity(self, label, graph, f):
        bitset = find_violating_partition(graph, f, method="bitset")
        python = find_violating_partition(graph, f, method="python")
        assert bitset == python, label
        result_bitset = check_feasibility(
            graph, f, use_structural_shortcuts=False, method="bitset"
        )
        result_python = check_feasibility(
            graph, f, use_structural_shortcuts=False, method="python"
        )
        assert result_bitset.satisfied == result_python.satisfied, label
        if result_bitset.witness is not None:
            assert verify_witness(graph, f, result_bitset.witness), label

    def test_paper_chord_witness_still_confirmed(self):
        graph = chord_network(7, 2)
        witness = find_violating_partition(graph, 2)
        assert witness is not None
        assert verify_witness(graph, 2, witness)
        assert verify_witness(graph, 2, chord_n7_f2_witness())

    @pytest.mark.parametrize("seed", [21, 22])
    def test_async_condition_parity(self, seed):
        for graph in random_battery(seed, count=2):
            for f in (1, 2):
                bitset = find_async_violating_partition(graph, f, method="bitset")
                python = find_async_violating_partition(graph, f, method="python")
                assert bitset == python
                assert (
                    check_async_feasibility(graph, f, method="bitset").satisfied
                    == check_async_feasibility(graph, f, method="python").satisfied
                )

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameterError, match="checker method"):
            find_violating_partition(complete_graph(4), 1, method="numba")
        with pytest.raises(InvalidParameterError, match="checker method"):
            is_r_robust(complete_graph(4), 1, method="numba")


class TestRobustnessParity:
    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_random_digraphs_full_parity(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            graph = erdos_renyi_digraph(7, 0.45, rng=rng)
            for r in (1, 2, 3):
                assert is_r_robust(graph, r, method="bitset") == is_r_robust(
                    graph, r, method="python"
                )
                for s in (1, 2, 4):
                    assert is_r_s_robust(
                        graph, r, s, method="bitset"
                    ) == is_r_s_robust(graph, r, s, method="python")
            assert robustness_degree(graph, method="bitset") == robustness_degree(
                graph, method="python"
            )

    def test_known_degrees(self):
        # Complete graphs attain the ceiling ceil(n/2); the barbell with one
        # bridge per node is exactly 1-robust.
        assert robustness_degree(complete_graph(7)) == 4
        assert robustness_degree(barbell(4)) == 1
        assert is_r_robust(barbell(4), 1)
        assert not is_r_robust(barbell(4), 2)


class TestDisjointPairEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_pair_count_matches_closed_form(self, n):
        nodes = tuple(range(n))
        pairs = list(_iter_disjoint_pairs(nodes))
        assert len(pairs) == disjoint_pair_count(n)

    def test_pairs_are_canonical_disjoint_and_unique(self):
        nodes = tuple(range(5))
        seen = set()
        for s1, s2 in _iter_disjoint_pairs(nodes):
            assert s1 and s2
            assert not s1 & s2
            # Canonical: the smallest participating node sits in S1.
            assert min(s1 | s2) in s1
            key = (s1, s2)
            assert key not in seen
            seen.add(key)

    def test_enumerates_every_unordered_pair(self):
        nodes = tuple(range(4))
        canonical = {
            frozenset((s1, s2)) for s1, s2 in _iter_disjoint_pairs(nodes)
        }
        brute: set[frozenset[frozenset[int]]] = set()
        for code in range(3 ** len(nodes)):
            assignment, s1, s2 = code, set(), set()
            for index in range(len(nodes)):
                digit = assignment % 3
                assignment //= 3
                if digit == 1:
                    s1.add(nodes[index])
                elif digit == 2:
                    s2.add(nodes[index])
            if s1 and s2:
                brute.add(frozenset((frozenset(s1), frozenset(s2))))
        assert canonical == brute


class TestGraphTooLargeConsistency:
    """All four exhaustive entry points validate the cap up front and report
    both ``n`` and the cap (plus the checker name) in the error."""

    def test_every_checker_reports_n_and_cap(self):
        big = undirected_ring(30)
        calls = [
            ("find_violating_partition", lambda: find_violating_partition(big, 1)),
            ("is_r_robust", lambda: is_r_robust(big, 2)),
            ("is_r_s_robust", lambda: is_r_s_robust(big, 2, 2)),
            ("robustness_degree", lambda: robustness_degree(big)),
        ]
        for name, call in calls:
            with pytest.raises(GraphTooLargeError) as excinfo:
                call()
            error = excinfo.value
            assert error.n == 30, name
            assert error.cap in (
                DEFAULT_MAX_EXACT_NODES,
                DEFAULT_MAX_ROBUSTNESS_NODES,
            ), name
            assert error.checker == name
            assert f"n = {error.n}" in str(error)
            assert f"max_nodes = {error.cap}" in str(error)

    def test_cap_checked_before_parameter_dependent_work(self):
        # The guard fires for both methods identically, before enumeration.
        big = undirected_ring(30)
        for method in ("bitset", "python"):
            with pytest.raises(GraphTooLargeError):
                find_violating_partition(big, 1, method=method)
            with pytest.raises(GraphTooLargeError):
                robustness_degree(big, method=method)


class TestRaisedCeilings:
    def test_default_caps_raised(self):
        assert DEFAULT_MAX_EXACT_NODES >= 24
        assert DEFAULT_MAX_ROBUSTNESS_NODES >= 18

    def test_exact_check_at_n24_under_default_cap(self):
        # n = 24 was far beyond the legacy cap of 16; the ring violates the
        # condition for f = 1 (two arcs are mutually insulated), and the
        # bitset path proves it under the *default* cap.
        graph = undirected_ring(24)
        witness = find_violating_partition(graph, 1)
        assert witness is not None
        assert verify_witness(graph, 1, witness)
        assert not satisfies_theorem1(graph, 1)

    def test_feasible_full_enumeration_beyond_old_ceiling(self):
        # A feasible graph forces the complete 2^(n-|F|) sweep; n = 18 with
        # the default cap exercises the no-witness path past the old limit.
        assert satisfies_theorem1(core_network(18, 1), 1)

    def test_robustness_beyond_old_ceiling(self):
        # n = 16 exceeded the legacy robustness cap of 14.
        assert robustness_degree(hypercube(4)) == 1
        assert is_r_s_robust(hypercube(4), 2, 2) is False


@pytest.mark.usefixtures("fallback_search")
class TestFeasibilityParityOnTheFallback(TestFeasibilityParity):
    """The Theorem-1 parity suite on the NumPy sweep."""


@pytest.mark.usefixtures("fallback_search")
class TestRaisedCeilingsOnTheFallback(TestRaisedCeilings):
    """The n = 18 and n = 24 searches on the NumPy sweep."""
