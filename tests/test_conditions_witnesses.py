"""Unit tests for canonical and heuristic witness search.

The greedy and random searches run on the compiled ``grow`` and ``peel``
of :mod:`repro.conditions.search_kernel` where this machine can build
them; the reference-parity suite also runs on the interpreted searches
(the conftest ``fallback_search`` fixture), and the random search is
compared with its interpreted form directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import numpy_search
from repro.conditions import (
    chord_n7_f2_witness,
    find_violating_partition,
    greedy_witness_search,
    hypercube_dimension_cut_witness,
    random_witness_search,
    satisfies_theorem1,
    search_kernel,
    verify_witness,
)
from repro.conditions.necessary import maximal_insulated_subset
from repro.conditions.verdict import DEFAULT_GREEDY_SEED_CAP
from repro.exceptions import InvalidParameterError
from repro.experiments import feasibility_scale_cases
from repro.graphs import (
    butterfly_barbell,
    chord_network,
    complete_graph,
    core_network,
    erdos_renyi_digraph,
    erdos_renyi_symmetric,
    heterogeneous_ring_lattice,
    hypercube,
    k_in_regular_digraph,
    random_spanning_strongly_connected,
    undirected_ring,
)
from repro.types import PartitionWitness


class TestCanonicalWitnesses:
    def test_chord_witness_matches_paper(self):
        witness = chord_n7_f2_witness()
        assert witness.faulty == frozenset({5, 6})
        assert witness.left == frozenset({0, 2})
        assert witness.right == frozenset({1, 3, 4})
        assert witness.center == frozenset()
        assert verify_witness(chord_network(7, 2), 2, witness)

    def test_chord_witness_invalid_on_other_graphs(self):
        assert not verify_witness(complete_graph(7), 2, chord_n7_f2_witness())

    def test_hypercube_witness_default_is_figure3_split(self):
        witness = hypercube_dimension_cut_witness(3)
        assert witness.left == frozenset({0, 1, 2, 3})
        assert witness.right == frozenset({4, 5, 6, 7})
        assert verify_witness(hypercube(3), 1, witness)

    @pytest.mark.parametrize("dimension", [2, 3, 4])
    @pytest.mark.parametrize("cut_bit", [0, 1])
    def test_every_dimension_cut_is_a_witness(self, dimension, cut_bit):
        witness = hypercube_dimension_cut_witness(dimension, cut_bit=cut_bit)
        assert verify_witness(hypercube(dimension), 1, witness)

    def test_hypercube_witness_rejects_bad_dimension(self):
        with pytest.raises(InvalidParameterError):
            hypercube_dimension_cut_witness(0)


class TestGreedySearch:
    def test_finds_witness_on_infeasible_graphs(self):
        for graph, f in [
            (hypercube(3), 1),
            (undirected_ring(6), 1),
            (butterfly_barbell(4, 1), 1),
        ]:
            witness = greedy_witness_search(graph, f)
            assert witness is not None
            assert verify_witness(graph, f, witness)

    def test_never_reports_witness_on_feasible_graphs(self):
        # Soundness: any witness returned must be genuine, so on a feasible
        # graph the search must return None.
        for graph, f in [
            (complete_graph(4), 1),
            (complete_graph(7), 2),
            (core_network(7, 2), 2),
            (chord_network(5, 1), 1),
        ]:
            assert satisfies_theorem1(graph, f)
            assert greedy_witness_search(graph, f) is None

    def test_negative_f_rejected(self):
        with pytest.raises(InvalidParameterError):
            greedy_witness_search(complete_graph(4), -1)


def _reference_greedy_witness_search(graph, f, threshold=None, max_seeds=None):
    """Reference greedy search: every growth round recounts the outside
    in-degree of every node of ``L``, then L's insulation is re-checked."""
    effective_threshold = f + 1 if threshold is None else threshold
    nodes = sorted(graph.nodes, key=repr)
    n = len(nodes)
    seeds = nodes
    if max_seeds is not None and max_seeds < n:
        stride = n / max_seeds
        seeds = [nodes[int(index * stride)] for index in range(max_seeds)]
    for seed in seeds:
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
            left = {seed}
            for _ in range(n):
                outside = universe - left
                offenders = [
                    node
                    for node in left
                    if graph.in_degree_within(node, outside) >= effective_threshold
                ]
                if not offenders:
                    break
                grew = False
                for node in offenders:
                    external = sorted(
                        graph.in_neighbors_within(node, outside), key=repr
                    )
                    needed = (
                        graph.in_degree_within(node, outside) - effective_threshold + 1
                    )
                    for absorb in external[:needed]:
                        left.add(absorb)
                        grew = True
                if not grew:
                    break
            if len(left) >= len(universe):
                continue
            outside = universe - left
            if any(
                graph.in_degree_within(node, outside) >= effective_threshold
                for node in left
            ):
                continue
            right = maximal_insulated_subset(
                graph, outside, universe, effective_threshold
            )
            if not right:
                continue
            witness = PartitionWitness(
                faulty=fault_set,
                left=frozenset(left),
                center=universe - left - right,
                right=right,
            )
            if verify_witness(graph, f, witness, threshold=effective_threshold):
                return witness
    return None


def _random_family_cases():
    """Small random graphs across families, fault budgets and sizes."""
    rng = np.random.default_rng(2024)
    cases = []
    for index in range(12):
        n = int(rng.integers(8, 70))
        f = int(rng.integers(0, 3))
        graphs = {
            "erdos-renyi": erdos_renyi_digraph(n, rng.uniform(0.05, 0.5), rng=index),
            "k-in-regular": k_in_regular_digraph(n, int(rng.integers(1, n)), rng=index),
            "symmetric": erdos_renyi_symmetric(n, rng.uniform(0.05, 0.4), rng=index),
            "hetring": heterogeneous_ring_lattice(n, 1, rng.uniform(0.0, 3.0), rng=index),
            "spanning": random_spanning_strongly_connected(
                n, int(rng.integers(0, 3 * n)), rng=index
            ),
        }
        cases += [(f"{family} #{index}", graph, f) for family, graph in graphs.items()]
    return cases


class TestGreedyMatchesReference:
    """The greedy search returns exactly the reference's witnesses."""

    @pytest.mark.parametrize("threshold", [None, 0, 1, 2, 3])
    def test_random_families(self, threshold):
        found = 0
        for label, graph, f in _random_family_cases():
            expected = _reference_greedy_witness_search(graph, f, threshold=threshold)
            assert greedy_witness_search(graph, f, threshold=threshold) == expected, label
            found += expected is not None
        if threshold != 0:
            assert found > 0  # the comparison covers returned witnesses too

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "label", [label for label, _, _ in feasibility_scale_cases()]
    )
    def test_scale_battery_with_the_verdict_seed_cap(self, label):
        [(_, build, f)] = [case for case in feasibility_scale_cases() if case[0] == label]
        graph = build()
        cap = DEFAULT_GREEDY_SEED_CAP
        expected = _reference_greedy_witness_search(graph, f, max_seeds=cap)
        assert greedy_witness_search(graph, f, max_seeds=cap) == expected


@pytest.mark.usefixtures("fallback_search")
class TestGreedyMatchesReferenceOnTheFallback(TestGreedyMatchesReference):
    """The reference parity of the interpreted greedy search."""


class TestRandomMatchesInterpreted:
    """The compiled random search returns the interpreted one's witnesses."""

    @pytest.mark.parametrize("threshold", [None, 0, 2])
    def test_random_families(self, threshold):
        if search_kernel.kernel() is None:
            pytest.skip(search_kernel.status())
        found = 0
        for seed, (label, graph, f) in enumerate(_random_family_cases()):
            compiled = random_witness_search(
                graph, f, attempts=30, threshold=threshold, rng=seed
            )
            with numpy_search():
                expected = random_witness_search(
                    graph, f, attempts=30, threshold=threshold, rng=seed
                )
            assert compiled == expected, label
            found += expected is not None
        if threshold != 0:
            assert found > 0

    def test_tiny_graphs_up_to_every_fault_budget(self):
        # Few distinct samples: duplicates, and fault sets that leave fewer
        # than two nodes, are common here.
        if search_kernel.kernel() is None:
            pytest.skip(search_kernel.status())
        for n in range(2, 6):
            for graph in (complete_graph(n), erdos_renyi_digraph(n, 0.5, rng=n)):
                for f in range(n + 1):
                    for seed in range(4):
                        compiled = random_witness_search(graph, f, attempts=8, rng=seed)
                        with numpy_search():
                            expected = random_witness_search(graph, f, attempts=8, rng=seed)
                        assert compiled == expected, (n, f, seed)


class TestRandomSearch:
    def test_finds_witness_on_easy_infeasible_graphs(self):
        for graph, f in [(hypercube(3), 1), (undirected_ring(6), 1)]:
            witness = random_witness_search(graph, f, attempts=500, rng=1)
            assert witness is not None
            assert verify_witness(graph, f, witness)

    def test_sound_on_feasible_graphs(self):
        for graph, f in [(complete_graph(7), 2), (core_network(7, 2), 2)]:
            assert random_witness_search(graph, f, attempts=300, rng=2) is None

    def test_agrees_with_exact_checker_verdict(self):
        graph = chord_network(7, 2)
        exact = find_violating_partition(graph, 2)
        randomized = random_witness_search(graph, 2, attempts=2000, rng=3)
        assert exact is not None
        # The random search may need many attempts but must never fabricate a
        # witness; if it finds one, it must verify.
        if randomized is not None:
            assert verify_witness(graph, 2, randomized)

    def test_single_node_graph_returns_none(self):
        from repro.graphs import Digraph

        assert random_witness_search(Digraph(nodes=[0]), 1, attempts=10, rng=0) is None

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            random_witness_search(complete_graph(4), -1)
        with pytest.raises(InvalidParameterError):
            random_witness_search(complete_graph(4), 1, attempts=0)

    def test_determinism_with_seed(self):
        graph = hypercube(3)
        first = random_witness_search(graph, 1, attempts=100, rng=11)
        second = random_witness_search(graph, 1, attempts=100, rng=11)
        assert first == second


#: A 13-node in-regular digraph (f = 2) whose only violating partitions use
#: the one-node fault set {2}.  Node 1's in-neighbours sorted by descending
#: in-degree start [2, 5, ...], so the pre-fix greedy search — which tried
#: only the empty set and the full top-f prefix {2, 5} — returned None here;
#: the intermediate prefix {2} is required.
GREEDY_REGRESSION_EDGES = [
    (0, 2), (0, 3), (0, 5), (0, 6), (0, 12), (1, 3), (1, 4), (2, 0), (2, 1),
    (2, 4), (2, 6), (2, 7), (2, 11), (3, 5), (3, 8), (3, 9), (3, 12), (4, 2),
    (4, 3), (4, 5), (4, 8), (4, 10), (4, 12), (5, 0), (5, 1), (5, 6), (5, 7),
    (5, 8), (5, 9), (5, 10), (5, 11), (6, 1), (6, 3), (6, 4), (6, 5), (6, 7),
    (6, 12), (7, 0), (7, 1), (7, 4), (7, 9), (7, 10), (7, 11), (8, 2), (8, 6),
    (8, 11), (9, 0), (9, 1), (9, 2), (9, 5), (9, 7), (9, 10), (10, 2),
    (10, 4), (10, 7), (10, 8), (10, 9), (10, 11), (11, 3), (11, 6), (11, 8),
    (11, 9), (11, 12), (12, 0), (12, 10),
]


class TestSearchRegressions:
    """Regression tests that fail on the pre-fix witness searches."""

    def test_greedy_finds_intermediate_prefix_fault_set(self):
        from repro.graphs import Digraph

        graph = Digraph(nodes=range(13), edges=GREEDY_REGRESSION_EDGES)
        exact = find_violating_partition(graph, 2)
        assert exact is not None  # the graph genuinely violates Theorem 1
        witness = greedy_witness_search(graph, 2)
        assert witness is not None
        assert verify_witness(graph, 2, witness)
        # The witness needs the intermediate fault-set prefix (|F| = 1 < f).
        assert len(witness.faulty) == 1

    def test_greedy_max_seeds_is_deterministic_and_sound(self):
        from repro.graphs import Digraph

        graph = Digraph(nodes=range(13), edges=GREEDY_REGRESSION_EDGES)
        capped_a = greedy_witness_search(graph, 2, max_seeds=5)
        capped_b = greedy_witness_search(graph, 2, max_seeds=5)
        assert capped_a == capped_b
        if capped_a is not None:
            assert verify_witness(graph, 2, capped_a)
        with pytest.raises(InvalidParameterError):
            greedy_witness_search(graph, 2, max_seeds=0)

    def test_random_search_does_not_burn_attempts_on_duplicates(self):
        # With rng=54 the first three raw samples contain a duplicate
        # (F, bipartition) pair; the pre-fix search burned an attempt on it
        # and returned None at attempts=3.  Skipping the duplicate frees one
        # attempt and the search finds a genuine witness.
        graph = hypercube(3)
        witness = random_witness_search(graph, 1, attempts=3, rng=54)
        assert witness is not None
        assert verify_witness(graph, 1, witness)

    def test_random_search_duplicate_skip_stays_deterministic(self):
        graph = hypercube(3)
        first = random_witness_search(graph, 1, attempts=3, rng=54)
        second = random_witness_search(graph, 1, attempts=3, rng=54)
        assert first == second

    def test_random_search_verifies_via_bitset_view_when_available(self, monkeypatch):
        # Regression: the pre-fix search re-verified every candidate with the
        # slow pure-Python verify_witness even when a bitset view existed.
        import repro.conditions.witnesses as witnesses_module

        def _boom(*args, **kwargs):
            raise AssertionError(
                "verify_witness must not be called when a bitset view exists"
            )

        monkeypatch.setattr(witnesses_module, "verify_witness", _boom)
        graph = hypercube(3)  # n = 8 <= MAX_BITSET_NODES
        witness = random_witness_search(graph, 1, attempts=200, rng=1)
        assert witness is not None
        monkeypatch.undo()
        assert verify_witness(graph, 1, witness)

    def test_random_search_falls_back_to_python_verify_beyond_bitset_cap(
        self, monkeypatch
    ):
        import repro.conditions.witnesses as witnesses_module

        calls = {"count": 0}
        original = witnesses_module.verify_witness

        def _spy(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(witnesses_module, "verify_witness", _spy)
        graph = undirected_ring(70)  # n = 70 > MAX_BITSET_NODES
        witness = random_witness_search(graph, 1, attempts=80, rng=3)
        assert witness is not None
        assert calls["count"] > 0
        assert verify_witness(graph, 1, witness)
