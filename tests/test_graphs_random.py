"""Unit tests for the random graph generators (determinism and structure)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graphs import (
    Digraph,
    core_network,
    erdos_renyi_digraph,
    erdos_renyi_symmetric,
    is_complete,
    k_in_regular_digraph,
    perturb_with_edge_removals,
    random_core_like_network,
    random_spanning_strongly_connected,
    is_strongly_connected,
)
from repro.conditions import check_feasibility


class TestErdosRenyi:
    def test_p_zero_has_no_edges(self):
        graph = erdos_renyi_digraph(10, 0.0, rng=1)
        assert graph.number_of_edges == 0
        assert graph.number_of_nodes == 10

    def test_p_one_is_complete(self):
        graph = erdos_renyi_digraph(6, 1.0, rng=1)
        assert is_complete(graph)

    def test_seed_determinism(self):
        first = erdos_renyi_digraph(12, 0.3, rng=42)
        second = erdos_renyi_digraph(12, 0.3, rng=42)
        assert first == second

    def test_different_seeds_differ(self):
        first = erdos_renyi_digraph(12, 0.3, rng=1)
        second = erdos_renyi_digraph(12, 0.3, rng=2)
        assert first != second

    def test_invalid_probability(self):
        with pytest.raises(InvalidParameterError):
            erdos_renyi_digraph(5, 1.5)

    def test_symmetric_variant_is_symmetric(self):
        graph = erdos_renyi_symmetric(10, 0.4, rng=3)
        assert graph.is_symmetric()

    def test_accepts_generator_instance(self):
        rng = np.random.default_rng(7)
        graph = erdos_renyi_digraph(8, 0.5, rng=rng)
        assert graph.number_of_nodes == 8


# Scalar-loop references: one draw per ordered or unordered pair, in
# row-major order.  The generators draw a row (or the whole matrix) at a
# time; they must consume the same stream and insert edges in the same order.
def _reference_erdos_renyi_digraph(n, p, rng):
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    graph = Digraph(nodes=range(n))
    if n == 1 or p == 0.0:
        return graph
    draws = generator.random((n, n))
    for source in range(n):
        for target in range(n):
            if source != target and draws[source, target] < p:
                graph.add_edge(source, target)
    return graph


def _reference_symmetric_links(graph, nodes, p, generator):
    for index, first in enumerate(nodes):
        for second in nodes[index + 1 :]:
            if generator.random() < p:
                graph.add_bidirectional_edge(first, second)
    return graph


def _reference_erdos_renyi_symmetric(n, p, rng):
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return _reference_symmetric_links(Digraph(nodes=range(n)), list(range(n)), p, generator)


def _reference_core_like(n, f, p, rng):
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    outsiders = list(range(2 * f + 1, n))
    return _reference_symmetric_links(core_network(n, f), outsiders, p, generator)


def _adjacency_in_order(graph):
    """Every node's successor and predecessor lists, in iteration order.

    Read from the adjacency sets themselves: the public accessors return
    frozenset copies, whose order need not match.
    """
    return [
        (node, list(graph._succ[node]), list(graph._pred[node]))
        for node in graph._succ
    ]


def _rng_pair(seed, as_generator):
    """Two independent, identical ``rng`` arguments (int seed or Generator)."""
    if as_generator:
        return np.random.default_rng(seed), np.random.default_rng(seed)
    return seed, seed


STREAM_PIN_SIZES = [1, 2, 8, 100]
STREAM_PIN_PROBABILITIES = [0.0, 0.03, 0.3, 1.0]


class TestRowWiseDrawsPinTheStream:
    @pytest.mark.parametrize("as_generator", [False, True])
    @pytest.mark.parametrize("p", STREAM_PIN_PROBABILITIES)
    @pytest.mark.parametrize("n", STREAM_PIN_SIZES)
    def test_erdos_renyi_digraph(self, n, p, as_generator):
        for seed in (0, 5, 123):
            mine, reference = _rng_pair(seed, as_generator)
            assert _adjacency_in_order(
                erdos_renyi_digraph(n, p, rng=mine)
            ) == _adjacency_in_order(_reference_erdos_renyi_digraph(n, p, reference))

    @pytest.mark.parametrize("as_generator", [False, True])
    @pytest.mark.parametrize("p", STREAM_PIN_PROBABILITIES)
    @pytest.mark.parametrize("n", STREAM_PIN_SIZES)
    def test_erdos_renyi_symmetric(self, n, p, as_generator):
        for seed in (0, 5, 123):
            mine, reference = _rng_pair(seed, as_generator)
            assert _adjacency_in_order(
                erdos_renyi_symmetric(n, p, rng=mine)
            ) == _adjacency_in_order(_reference_erdos_renyi_symmetric(n, p, reference))

    @pytest.mark.parametrize("as_generator", [False, True])
    @pytest.mark.parametrize("p", STREAM_PIN_PROBABILITIES)
    @pytest.mark.parametrize("n, f", [(1, 0), (2, 0), (8, 1), (8, 2), (100, 3)])
    def test_random_core_like_network(self, n, f, p, as_generator):
        for seed in (0, 5, 123):
            mine, reference = _rng_pair(seed, as_generator)
            assert _adjacency_in_order(
                random_core_like_network(n, f, p, rng=mine)
            ) == _adjacency_in_order(_reference_core_like(n, f, p, reference))

    @pytest.mark.parametrize("as_generator", [False, True])
    def test_n_1000(self, as_generator):
        mine, reference = _rng_pair(11, as_generator)
        assert _adjacency_in_order(
            erdos_renyi_digraph(1000, 0.003, rng=mine)
        ) == _adjacency_in_order(_reference_erdos_renyi_digraph(1000, 0.003, reference))
        mine, reference = _rng_pair(11, as_generator)
        assert _adjacency_in_order(
            erdos_renyi_symmetric(1000, 0.01, rng=mine)
        ) == _adjacency_in_order(_reference_erdos_renyi_symmetric(1000, 0.01, reference))
        mine, reference = _rng_pair(1011, as_generator)
        assert _adjacency_in_order(
            random_core_like_network(1000, 3, rng=mine)
        ) == _adjacency_in_order(_reference_core_like(1000, 3, 0.1, reference))

    def test_caller_generator_is_left_at_the_same_point(self):
        # A caller that keeps drawing from its Generator afterwards must see
        # the same values as after the pair-by-pair loop.
        for build, reference in [
            (lambda g: erdos_renyi_symmetric(30, 0.2, rng=g),
             lambda g: _reference_erdos_renyi_symmetric(30, 0.2, g)),
            (lambda g: random_core_like_network(30, 2, 0.2, rng=g),
             lambda g: _reference_core_like(30, 2, 0.2, g)),
        ]:
            mine, theirs = np.random.default_rng(3), np.random.default_rng(3)
            build(mine)
            reference(theirs)
            assert mine.random() == theirs.random()


class TestKInRegular:
    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    def test_exact_in_degree(self, k):
        graph = k_in_regular_digraph(8, k, rng=5)
        for node in graph.nodes:
            assert graph.in_degree(node) == k

    def test_k_too_large_rejected(self):
        with pytest.raises(InvalidParameterError):
            k_in_regular_digraph(5, 5)

    def test_no_self_loops(self):
        graph = k_in_regular_digraph(6, 3, rng=0)
        for source, target in graph.edges:
            assert source != target


class TestCoreLikeAndStronglyConnected:
    def test_core_like_network_remains_feasible(self):
        # Extra edges never break the condition (monotone under addition).
        graph = random_core_like_network(8, 2, extra_edge_probability=0.5, rng=9)
        assert check_feasibility(graph, 2).satisfied

    @pytest.mark.parametrize("probability", [-0.1, 1.5, float("nan")])
    def test_core_like_rejects_probability_outside_unit_interval(self, probability):
        with pytest.raises(InvalidParameterError, match="extra_edge_probability"):
            random_core_like_network(8, 2, extra_edge_probability=probability, rng=0)

    @pytest.mark.parametrize("probability", [0.0, 1.0])
    def test_core_like_accepts_unit_interval_ends(self, probability):
        graph = random_core_like_network(8, 2, extra_edge_probability=probability, rng=0)
        outsider_links = sum(
            1 for source, target in graph.edges if source >= 5 and target >= 5
        )
        assert outsider_links == (0 if probability == 0.0 else 3 * 2)

    def test_spanning_strongly_connected(self):
        graph = random_spanning_strongly_connected(9, extra_edges=4, rng=11)
        assert is_strongly_connected(graph)
        assert graph.number_of_edges >= 9

    def test_spanning_extra_edges_capped(self):
        graph = random_spanning_strongly_connected(4, extra_edges=1000, rng=2)
        # At most n(n-1) edges can exist.
        assert graph.number_of_edges <= 12


class TestPerturbation:
    def test_removals_reduce_edge_count(self):
        base = erdos_renyi_digraph(10, 0.8, rng=4)
        removed = perturb_with_edge_removals(base, 5, rng=4)
        assert removed.number_of_edges == base.number_of_edges - 5
        assert base.number_of_edges == len(base.edges)  # base untouched

    def test_removals_beyond_edge_count(self):
        base = erdos_renyi_digraph(5, 0.3, rng=4)
        removed = perturb_with_edge_removals(base, 10_000, rng=4)
        assert removed.number_of_edges == 0

    def test_zero_removals_identity(self):
        base = erdos_renyi_digraph(5, 0.5, rng=4)
        assert perturb_with_edge_removals(base, 0, rng=1) == base

    def test_negative_removals_rejected(self):
        base = erdos_renyi_digraph(5, 0.5, rng=4)
        with pytest.raises(InvalidParameterError):
            perturb_with_edge_removals(base, -1)
