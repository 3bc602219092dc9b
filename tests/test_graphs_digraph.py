"""Unit tests for the core Digraph type.

The int-node cases run on both construction forms: the per-edge
``Digraph(nodes=range(n), edges=...)`` and the array-built
``Digraph.from_edge_arrays``, whose adjacency sets are built on first use.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.exceptions import (
    EdgeNotFoundError,
    NodeNotFoundError,
    SelfLoopError,
)
from repro.graphs import Digraph


def sets_built(graph: Digraph) -> bool:
    """Whether the graph's adjacency sets exist: an array-built graph
    becomes a plain ``Digraph`` when it builds them."""
    return type(graph) is Digraph


def from_arrays(n, edges=()):
    """``Digraph.from_edge_arrays`` over an edge list."""
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    return Digraph.from_edge_arrays(n, pairs[:, 0], pairs[:, 1])


@pytest.fixture(params=["per-edge", "arrays"])
def build(request):
    """Build the graph on nodes ``0 … n − 1`` with ``edges`` either way."""
    if request.param == "per-edge":
        return lambda n, edges=(): Digraph(nodes=range(n), edges=edges)
    return from_arrays


class TestConstruction:
    def test_empty_graph(self, build):
        graph = build(0)
        assert graph.number_of_nodes == 0
        assert graph.number_of_edges == 0
        assert graph.nodes == frozenset()
        assert graph.edges == frozenset()

    def test_nodes_and_edges_from_constructor(self, build):
        graph = build(3, [(0, 1), (1, 2)])
        assert graph.nodes == frozenset({0, 1, 2})
        assert graph.edges == frozenset({(0, 1), (1, 2)})

    def test_edges_create_missing_endpoints(self):
        graph = Digraph(edges=[(5, 9)])
        assert graph.nodes == frozenset({5, 9})

    def test_duplicate_edges_are_collapsed(self, build):
        graph = build(2, [(0, 1), (0, 1), (0, 1)])
        assert graph.number_of_edges == 1

    def test_self_loop_rejected(self, build):
        with pytest.raises(SelfLoopError, match="node 3 "):
            build(5, [(0, 1), (3, 3)])

    def test_adding_existing_node_is_noop(self, build):
        graph = build(2, [(0, 1)])
        graph.add_node(0)
        assert graph.out_degree(0) == 1

    def test_string_and_int_nodes_coexist(self):
        graph = Digraph(edges=[("a", 1), (1, "b")])
        assert graph.has_edge("a", 1)
        assert graph.in_neighbors("b") == frozenset({1})


class TestNeighborQueries:
    def test_in_and_out_neighbors(self, build):
        graph = build(4, [(0, 1), (2, 1), (1, 3)])
        assert graph.in_neighbors(1) == frozenset({0, 2})
        assert graph.out_neighbors(1) == frozenset({3})
        assert graph.in_degree(1) == 2
        assert graph.out_degree(1) == 1

    def test_direction_matters(self, build):
        graph = build(2, [(0, 1)])
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)

    def test_unknown_node_raises(self, build):
        graph = build(1)
        with pytest.raises(NodeNotFoundError):
            graph.in_neighbors(99)
        with pytest.raises(NodeNotFoundError):
            graph.out_degree(99)

    @pytest.mark.parametrize("node", [-1, 2, 1.5, "1", None, (1,)])
    def test_degree_of_a_non_node_raises(self, build, node):
        graph = build(2, [(0, 1)])
        assert not graph.has_node(node)
        for degree in (graph.in_degree, graph.out_degree):
            with pytest.raises(NodeNotFoundError):
                degree(node)

    @pytest.mark.parametrize("node", [1, True, 1.0, np.int64(1), np.float32(1.0)])
    def test_a_value_equal_to_a_node_is_that_node(self, build, node):
        # As in a dict lookup: equal numbers hash alike.
        graph = build(2, [(0, 1)])
        assert graph.has_node(node) and node in graph
        assert graph.in_degree(node) == 1
        assert graph.out_degree(node) == 0

    def test_unhashable_node_raises_type_error(self, build):
        graph = build(2, [(0, 1)])
        with pytest.raises(TypeError):
            graph.has_node([1])

    def test_in_neighbors_within(self, build):
        graph = build(6, [(0, 5), (1, 5), (2, 5), (3, 5)])
        assert graph.in_neighbors_within(5, frozenset({0, 2, 9})) == {0, 2}
        assert graph.in_degree_within(5, frozenset({0, 2, 9})) == 2
        assert graph.in_degree_within(5, frozenset()) == 0

    def test_in_degree_within_large_group_path(self, build):
        # Exercise the branch iterating the predecessor set (preds smaller).
        graph = build(50, [(0, 1)])
        group = frozenset(range(0, 50, 1)) - {1}
        assert graph.in_degree_within(1, group) == 1


class TestMutation:
    def test_remove_edge(self, build):
        graph = build(2, [(0, 1), (1, 0)])
        graph.remove_edge(0, 1)
        assert not graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)

    def test_remove_missing_edge_raises(self, build):
        graph = build(2)
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(0, 1)

    def test_remove_node_cleans_incident_edges(self, build):
        graph = build(3, [(0, 1), (1, 2), (2, 0)])
        graph.remove_node(1)
        assert graph.nodes == frozenset({0, 2})
        assert graph.edges == frozenset({(2, 0)})

    def test_bidirectional_edge_helper(self, build):
        graph = build(0)
        graph.add_bidirectional_edge(0, 1)
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)

    def test_copy_is_independent(self, build):
        graph = build(2, [(0, 1)])
        clone = graph.copy()
        clone.add_edge(1, 0)
        assert not graph.has_edge(1, 0)
        assert clone.has_edge(1, 0)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_node(7),
            lambda g: g.add_nodes([3, 7]),
            lambda g: g.add_edge(2, 7),
            lambda g: g.add_edges([(2, 0), (0, 3)]),
            lambda g: g.add_bidirectional_edge(0, 3),
            lambda g: g.remove_edge(1, 2),
            lambda g: g.remove_node(1),
        ],
    )
    def test_mutating_before_the_sets_are_built(self, mutate):
        edges = [(0, 1), (1, 2), (2, 1), (3, 0)]
        graph = from_arrays(4, edges)
        expected = Digraph(nodes=range(4), edges=edges)
        assert not sets_built(graph)
        mutate(graph)
        mutate(expected)
        assert sets_built(graph)
        assert graph == expected
        assert graph.number_of_nodes == expected.number_of_nodes
        assert graph.number_of_edges == expected.number_of_edges
        for node in expected.nodes:
            assert graph.in_degree(node) == expected.in_degree(node)
            assert graph.out_neighbors(node) == expected.out_neighbors(node)

    def test_copy_of_an_unbuilt_graph_stays_unbuilt_and_independent(self):
        graph = from_arrays(3, [(0, 1), (1, 2)])
        clone = graph.copy()
        assert not sets_built(clone)
        clone.add_edge(2, 0)
        assert not sets_built(graph)
        assert not graph.has_edge(2, 0) and clone.has_edge(2, 0)
        assert graph.number_of_edges == 2 and clone.number_of_edges == 3


class TestDerivedGraphs:
    def test_subgraph(self, build):
        graph = build(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
        sub = graph.subgraph([0, 1, 2])
        assert sub.nodes == frozenset({0, 1, 2})
        assert sub.edges == frozenset({(0, 1), (1, 2), (2, 0)})

    def test_subgraph_unknown_node_raises(self, build):
        graph = build(1)
        with pytest.raises(NodeNotFoundError):
            graph.subgraph([0, 7])

    def test_reverse(self, build):
        graph = build(3, [(0, 1), (1, 2)])
        rev = graph.reverse()
        assert rev.edges == frozenset({(1, 0), (2, 1)})
        assert rev.nodes == graph.nodes

    def test_is_symmetric(self, build):
        asym = build(3, [(0, 1), (1, 2), (2, 0)])
        sym = build(2, [(0, 1), (1, 0)])
        assert not asym.is_symmetric()
        assert sym.is_symmetric()

    def test_to_undirected_edges(self, build):
        graph = build(3, [(0, 1), (1, 0), (1, 2)])
        assert graph.to_undirected_edges() == frozenset(
            {frozenset({0, 1}), frozenset({1, 2})}
        )


class TestDunders:
    def test_len_iter_contains(self, build):
        graph = build(3)
        assert len(graph) == 3
        assert list(iter(graph)) == [0, 1, 2]
        assert 1 in graph
        assert 9 not in graph

    def test_equality(self, build):
        first = build(2, [(0, 1)])
        second = Digraph(edges=[(0, 1)])
        third = build(2, [(1, 0)])
        assert first == second
        assert first != third
        assert first != "not a graph"

    def test_repr(self, build):
        graph = build(2, [(0, 1)])
        assert "n=2" in repr(graph) and "m=1" in repr(graph)

    @pytest.mark.parametrize(
        "round_trip",
        [copy.deepcopy, copy.copy, lambda g: pickle.loads(pickle.dumps(g))],
        ids=["deepcopy", "copy", "pickle"],
    )
    def test_copy_and_pickle_keep_the_form(self, build, round_trip):
        graph = build(4, [(0, 1), (2, 1), (1, 3)])
        built = sets_built(graph)
        clone = round_trip(graph)
        assert sets_built(graph) == built
        assert sets_built(clone) == built
        if not built:  # the copy's arrays are read-only too
            assert not clone.edge_arrays()[1].flags.writeable
            assert not clone.edge_arrays()[2].flags.writeable
        assert clone == graph
        assert clone.in_neighbors(1) == frozenset({0, 2})


def adjacency_in_order(graph):
    """Every node's successor and predecessor sets, in iteration order."""
    return [
        (node, list(graph._succ[node]), list(graph._pred[node]))
        for node in graph._succ
    ]


def random_edge_arrays(seed):
    """Random edge arrays without self-loops, with repeated edges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    m = int(rng.integers(0, 4 * n))
    sources = rng.integers(0, n, size=m)
    targets = (sources + rng.integers(1, n, size=m)) % n
    repeats = rng.integers(0, m + 1, size=int(rng.integers(0, m + 1)))
    order = np.concatenate([np.arange(m), repeats[repeats < m]])
    rng.shuffle(order)
    dtype = (np.int64, np.int32, np.uint16, np.intp)[seed % 4]
    return n, sources[order].astype(dtype), targets[order].astype(dtype)


class TestArrayForm:
    """``Digraph.from_edge_arrays`` against the per-edge build."""

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_per_edge_build_on_every_query(self, seed):
        n, sources, targets = random_edge_arrays(seed)
        graph = Digraph.from_edge_arrays(n, sources, targets)
        expected = Digraph(
            nodes=range(n), edges=zip(sources.tolist(), targets.tolist())
        )
        # Node and degree queries come from the arrays.
        assert graph.nodes == expected.nodes
        assert graph.number_of_nodes == expected.number_of_nodes == len(graph)
        assert graph.number_of_edges == expected.number_of_edges
        assert list(graph) == list(expected)
        assert repr(graph) == repr(expected)
        for node in [*range(-1, n + 1), 0.5, "0"]:
            assert graph.has_node(node) == expected.has_node(node)
            assert (node in graph) == (node in expected)
        for node in range(n):
            assert graph.in_degree(node) == expected.in_degree(node)
            assert graph.out_degree(node) == expected.out_degree(node)
        order, src, dst = graph.edge_arrays()
        assert {(order[s], order[t]) for s, t in zip(src, dst)} == expected.edges
        assert src.size == expected.number_of_edges
        assert not sets_built(graph)
        # Set-valued queries build the sets in the per-edge insertion order.
        assert graph.edges == expected.edges
        assert sets_built(graph)
        assert adjacency_in_order(graph) == adjacency_in_order(expected)
        group = frozenset(range(0, n, 3))
        for node in range(n):
            assert graph.in_neighbors(node) == expected.in_neighbors(node)
            assert graph.out_neighbors(node) == expected.out_neighbors(node)
            assert graph.in_neighbors_within(
                node, group
            ) == expected.in_neighbors_within(node, group)
            assert graph.in_degree_within(node, group) == expected.in_degree_within(
                node, group
            )
            assert graph.has_edge(node, (node + 1) % n) == expected.has_edge(
                node, (node + 1) % n
            )
        assert graph.is_symmetric() == expected.is_symmetric()
        assert graph.reverse() == expected.reverse()
        assert graph.subgraph(group) == expected.subgraph(group)
        assert graph.edge_arrays()[0] == expected.edge_arrays()[0]

    @pytest.mark.parametrize("seed", range(10))
    def test_per_edge_edge_arrays_list_every_edge_once(self, seed):
        n, sources, targets = random_edge_arrays(seed)
        graph = Digraph(
            nodes=[f"v{i}" for i in range(n)],
            edges=zip([f"v{i}" for i in sources], [f"v{i}" for i in targets]),
        )
        order, src, dst = graph.edge_arrays()
        assert order == tuple(graph)
        assert src.dtype == dst.dtype == np.int64
        pairs = [(order[s], order[t]) for s, t in zip(src.tolist(), dst.tolist())]
        assert len(pairs) == graph.number_of_edges
        assert set(pairs) == graph.edges

    def test_the_arrays_are_copied_and_read_only(self):
        sources, targets = np.array([0, 1]), np.array([1, 2])
        graph = Digraph.from_edge_arrays(3, sources, targets)
        sources[0] = 2
        _, src, dst = graph.edge_arrays()
        assert src.tolist() == [0, 1]
        with pytest.raises(ValueError):
            src[0] = 2
        assert not dst.flags.writeable
        assert graph.has_edge(0, 1) and not graph.has_edge(2, 1)

    def test_empty_arrays_of_any_dtype_give_an_edgeless_graph(self):
        graph = Digraph.from_edge_arrays(3, [], np.array([], dtype=float))
        assert graph.number_of_edges == 0 and graph.nodes == frozenset({0, 1, 2})
