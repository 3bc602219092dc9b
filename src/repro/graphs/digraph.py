"""A simple directed graph tailored to the paper's network model.

The paper (Section 2.1) models the network as a *simple directed graph*
``G(V, E)``: no self-loops, no parallel edges, and a directed edge ``(i, j)``
means node ``i`` can reliably transmit to node ``j``.  The consensus
machinery needs fast access to the *incoming* neighbour set ``N⁻_i`` (whose
size governs the trimming in Algorithm 1) and the *outgoing* neighbour set
``N⁺_i`` (the recipients of a node's broadcast).

:class:`Digraph` stores both adjacency directions explicitly.  It is a small
purpose-built class rather than a thin wrapper around :mod:`networkx` so that
the condition checkers and simulation engines have a stable, minimal API that
is easy to reason about and fast for the set-intersection-heavy queries they
perform (``|N⁻_v ∩ A|`` appears in the inner loop of every checker).
Conversion helpers to and from :mod:`networkx` live in :mod:`repro.graphs.io`.

A graph has one of two construction forms.  The per-edge form
(``Digraph(nodes, edges)`` and the ``add_*`` methods) fills the two
dict-of-sets adjacency maps directly.  The array form
(:meth:`Digraph.from_edge_arrays`, used by ``heterogeneous_ring_lattice``)
keeps the graph's integer edge arrays over nodes ``0 … n − 1`` and answers
the node and degree queries and :meth:`Digraph.edge_arrays` from them.  Its
adjacency sets are built, in the per-edge form's insertion order, the first
time a set-valued query needs them, and from then on the graph is in the
per-edge form.  Both forms answer every query alike; the adjacency sets stay the only
representation the condition checkers read.

The array form is a private subclass whose instances become plain
:class:`Digraph` objects when their sets are built.  Its ``__getattr__``
cannot live on :class:`Digraph` itself: a class with ``__getattr__`` routes
every attribute read through a slower hook, which made building and checking
per-edge graphs about twice as slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import (
    EdgeNotFoundError,
    InvalidParameterError,
    NodeNotFoundError,
    SelfLoopError,
)
from repro.types import Edge, NodeId


@dataclass(frozen=True, eq=False)
class _EdgeArrays:
    """The edges of an array-built graph on nodes ``0 … n − 1``.

    ``sources`` and ``targets`` are read-only int64 arrays of the distinct
    edges in first-occurrence order; the degree lists are indexed by node.
    """

    n: int
    sources: np.ndarray
    targets: np.ndarray
    in_degrees: list[int]
    out_degrees: list[int]

    def __post_init__(self) -> None:
        # Digraph.edge_arrays hands these out: nobody may change them.
        self.sources.flags.writeable = False
        self.targets.flags.writeable = False

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        # Copies and unpickled graphs rebuild through __init__, so their
        # arrays are read-only too.
        return type(self), (
            self.n,
            self.sources,
            self.targets,
            self.in_degrees,
            self.out_degrees,
        )

    def index(self, node: NodeId) -> int | None:
        """Return the int equal to ``node`` if it is a node, else ``None``.

        A dict lookup finds a key by hash and equality, and every number
        equal to an int ``k`` hashes to ``k``, so this answers membership
        exactly as the per-edge form's adjacency dict does.
        """
        key = hash(node)
        return key if 0 <= key < self.n and key == node else None

    def require(self, node: NodeId) -> int:
        """Return :meth:`index` of ``node`` or raise
        :class:`~repro.exceptions.NodeNotFoundError`."""
        key = self.index(node)
        if key is None:
            raise NodeNotFoundError(node)
        return key


def _checked_edge_arrays(n: int, sources: object, targets: object) -> _EdgeArrays:
    """Check :meth:`Digraph.from_edge_arrays`'s operands and drop duplicate
    edges, keeping each edge's first occurrence in order."""
    if (
        isinstance(n, (bool, np.bool_))
        or not isinstance(n, (int, np.integer))
        or not 0 <= n < 2**31
    ):
        raise InvalidParameterError(
            f"n must be an int in [0, 2**31), got {n!r}"
        )
    n = int(n)
    columns: list[np.ndarray] = []
    for name, values in (("sources", sources), ("targets", targets)):
        try:
            array = np.asarray(values)
        except (TypeError, ValueError) as error:
            raise InvalidParameterError(f"{name} is not an array: {error}") from None
        if array.ndim != 1:
            raise InvalidParameterError(
                f"{name} must be a 1-D array, got shape {array.shape}"
            )
        if array.size and array.dtype.kind not in "iu":
            raise InvalidParameterError(
                f"{name} must hold integers, got dtype {array.dtype}"
            )
        if array.size and not (0 <= array.min() and array.max() < n):
            raise InvalidParameterError(
                f"{name} must lie in [0, n) = [0, {n}), got values from "
                f"{array.min()} to {array.max()}"
            )
        columns.append(np.array(array, dtype=np.int64))
    source, target = columns
    if source.size != target.size:
        raise InvalidParameterError(
            f"sources and targets must have equal lengths, got {source.size} "
            f"and {target.size}"
        )
    loops = source == target
    if loops.any():
        raise SelfLoopError(int(source[np.argmax(loops)]))
    # One int64 key per edge (n < 2**31, so it cannot overflow).  A stable
    # sort keeps equal edges in input order, so the first of each run is
    # that edge's first occurrence.
    keys = source * n + target
    order = np.argsort(keys, kind="stable")
    fresh = np.concatenate([[True], np.diff(keys[order]) != 0])
    if not fresh.all():
        first = np.sort(order[fresh])
        source, target = source[first], target[first]
    return _EdgeArrays(
        n=n,
        sources=source,
        targets=target,
        in_degrees=np.bincount(target, minlength=n).tolist(),
        out_degrees=np.bincount(source, minlength=n).tolist(),
    )


class Digraph:
    """A simple directed graph with fast in/out neighbour queries.

    Parameters
    ----------
    nodes:
        Initial node identifiers.  Any hashable values are accepted.
    edges:
        Initial directed edges ``(source, target)``.  Endpoints not already
        present are added automatically.  Self-loops are rejected, matching
        the paper's model; parallel edges are collapsed silently because the
        edge set is a mathematical set.

    Examples
    --------
    >>> g = Digraph(nodes=[0, 1, 2], edges=[(0, 1), (1, 2), (2, 0)])
    >>> sorted(g.in_neighbors(0))
    [2]
    >>> g.in_degree(1)
    1
    """

    # ``_arrays`` is set only on an array-built graph (_ArrayDigraph),
    # which leaves ``_succ`` and ``_pred`` unset until it builds them.
    __slots__ = ("_succ", "_pred", "_arrays")
    _arrays: _EdgeArrays

    def __init__(
        self,
        nodes: Iterable[NodeId] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        self._succ: dict[NodeId, set[NodeId]] = {}
        self._pred: dict[NodeId, set[NodeId]] = {}
        for node in nodes:
            self.add_node(node)
        for source, target in edges:
            self.add_edge(source, target)

    @staticmethod
    def from_edge_arrays(n: int, sources: np.ndarray, targets: np.ndarray) -> "Digraph":
        """Return the graph on nodes ``0 … n − 1`` with the edges
        ``(sources[k], targets[k])``, built from the arrays.

        The result answers every query as
        ``Digraph(nodes=range(n), edges=zip(sources.tolist(),
        targets.tolist()))`` does, and once built its adjacency sets iterate
        in the same order.  It answers :attr:`nodes`,
        :attr:`number_of_nodes`, :attr:`number_of_edges`, the degree and
        node-membership queries and :meth:`edge_arrays` from the arrays, and
        builds the sets only when a set-valued query first needs them.

        ``sources`` and ``targets`` must be equal-length 1-D integer arrays
        with values in ``[0, n)``; anything else raises
        :class:`~repro.exceptions.InvalidParameterError`.  A self-loop raises
        :class:`~repro.exceptions.SelfLoopError` naming the node, and
        duplicate edges are collapsed.  The arrays are copied.

        >>> g = Digraph.from_edge_arrays(3, np.array([0, 1, 1]), np.array([1, 2, 2]))
        >>> g.number_of_edges, g.in_degree(2)
        (2, 1)
        """
        graph = _ArrayDigraph.__new__(_ArrayDigraph)
        graph._arrays = _checked_edge_arrays(n, sources, targets)
        return graph

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Add ``node`` to the graph.  Adding an existing node is a no-op."""
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()

    def add_nodes(self, nodes: Iterable[NodeId]) -> None:
        """Add every node in ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, source: NodeId, target: NodeId) -> None:
        """Add the directed edge ``(source, target)``.

        Missing endpoints are created.  Self-loops raise
        :class:`~repro.exceptions.SelfLoopError` because the paper's edge set
        excludes them (a node's own state is always available to it without
        an explicit edge).
        """
        if source == target:
            raise SelfLoopError(source)
        self.add_node(source)
        self.add_node(target)
        self._succ[source].add(target)
        self._pred[target].add(source)

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Add every edge in ``edges``."""
        for source, target in edges:
            self.add_edge(source, target)

    def add_bidirectional_edge(self, first: NodeId, second: NodeId) -> None:
        """Add both ``(first, second)`` and ``(second, first)``.

        Convenience used by the undirected families in the paper (core
        networks, hypercubes): an undirected link is modelled as the pair of
        directed edges, exactly as Figure 3's caption describes.
        """
        self.add_edge(first, second)
        self.add_edge(second, first)

    def remove_edge(self, source: NodeId, target: NodeId) -> None:
        """Remove the directed edge ``(source, target)``.

        Raises :class:`~repro.exceptions.EdgeNotFoundError` if absent.
        """
        if not self.has_edge(source, target):
            raise EdgeNotFoundError(source, target)
        self._succ[source].discard(target)
        self._pred[target].discard(source)

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and every edge incident to it."""
        self._require_node(node)
        for successor in list(self._succ[node]):
            self._pred[successor].discard(node)
        for predecessor in list(self._pred[node]):
            self._succ[predecessor].discard(node)
        del self._succ[node]
        del self._pred[node]

    def copy(self) -> "Digraph":
        """Return an independent copy of the graph (an array-built graph's
        copy shares its read-only arrays and stays array-built)."""
        clone = Digraph()
        clone._succ = {node: set(targets) for node, targets in self._succ.items()}
        clone._pred = {node: set(sources) for node, sources in self._pred.items()}
        return clone

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> frozenset[NodeId]:
        """The node set ``V``."""
        return frozenset(self._succ)

    @property
    def number_of_nodes(self) -> int:
        """``n = |V|``."""
        return len(self._succ)

    @property
    def edges(self) -> frozenset[Edge]:
        """The edge set ``E`` as a frozenset of ``(source, target)`` pairs."""
        return frozenset(
            (source, target)
            for source, targets in self._succ.items()
            for target in targets
        )

    @property
    def number_of_edges(self) -> int:
        """``|E|``."""
        return sum(len(targets) for targets in self._succ.values())

    def edge_arrays(self) -> tuple[Sequence[NodeId], np.ndarray, np.ndarray]:
        """Return ``(nodes, sources, targets)``: the node order and, for
        every edge, the positions of its source and its target in that order
        (two int64 arrays, in no particular edge order).

        An array-built graph returns ``range(n)`` and its own read-only
        arrays without building its sets; a per-edge graph builds the
        arrays from its sets on every call.
        """
        nodes = tuple(self._succ)
        position = {node: index for index, node in enumerate(nodes)}
        in_sets = [self._pred[node] for node in nodes]
        sources = np.array(
            [position[source] for senders in in_sets for source in senders],
            dtype=np.int64,
        )
        targets = np.repeat(
            np.arange(len(nodes), dtype=np.int64),
            np.array([len(senders) for senders in in_sets], dtype=np.int64),
        )
        return nodes, sources, targets

    def has_node(self, node: NodeId) -> bool:
        """Return whether ``node`` is in the graph."""
        return node in self._succ

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        """Return whether the directed edge ``(source, target)`` exists."""
        return source in self._succ and target in self._succ[source]

    def in_neighbors(self, node: NodeId) -> frozenset[NodeId]:
        """Return ``N⁻_node``, the set of nodes with an edge *into* ``node``."""
        self._require_node(node)
        return frozenset(self._pred[node])

    def out_neighbors(self, node: NodeId) -> frozenset[NodeId]:
        """Return ``N⁺_node``, the set of nodes ``node`` has an edge *to*."""
        self._require_node(node)
        return frozenset(self._succ[node])

    def in_degree(self, node: NodeId) -> int:
        """Return ``|N⁻_node|``."""
        self._require_node(node)
        return len(self._pred[node])

    def out_degree(self, node: NodeId) -> int:
        """Return ``|N⁺_node|``."""
        self._require_node(node)
        return len(self._succ[node])

    def in_neighbors_within(self, node: NodeId, group: frozenset[NodeId] | set[NodeId]) -> set[NodeId]:
        """Return ``N⁻_node ∩ group``.

        This is the primitive underlying the paper's ``⇒`` relation
        (Definition 1) and is kept as a dedicated method because every
        condition checker calls it in its innermost loop.
        """
        self._require_node(node)
        preds = self._pred[node]
        # Iterate over the smaller collection for speed.
        if len(preds) <= len(group):
            return {p for p in preds if p in group}
        return {g for g in group if g in preds}

    def in_degree_within(self, node: NodeId, group: frozenset[NodeId] | set[NodeId]) -> int:
        """Return ``|N⁻_node ∩ group|`` without materialising the set."""
        self._require_node(node)
        preds = self._pred[node]
        if len(preds) <= len(group):
            return sum(1 for p in preds if p in group)
        return sum(1 for g in group if g in preds)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[NodeId]) -> "Digraph":
        """Return the subgraph induced by ``nodes``.

        Unknown nodes raise :class:`~repro.exceptions.NodeNotFoundError`.
        """
        keep = set()
        for node in nodes:
            self._require_node(node)
            keep.add(node)
        sub = Digraph(nodes=keep)
        for source in keep:
            for target in self._succ[source]:
                if target in keep:
                    sub.add_edge(source, target)
        return sub

    def reverse(self) -> "Digraph":
        """Return the graph with every edge direction flipped."""
        rev = Digraph(nodes=self.nodes)
        for source, target in self.edges:
            rev.add_edge(target, source)
        return rev

    def to_undirected_edges(self) -> frozenset[frozenset[NodeId]]:
        """Return the set of unordered node pairs connected in either direction."""
        return frozenset(frozenset((u, v)) for u, v in self.edges)

    def is_symmetric(self) -> bool:
        """Return whether for every edge ``(u, v)`` the reverse ``(v, u)`` exists.

        Symmetric digraphs are how the paper encodes undirected graphs
        (Section 6.1: "G is said to be undirected iff (i, j) ∈ E implies
        (j, i) ∈ E").
        """
        return all(self.has_edge(target, source) for source, target in self.edges)

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return self.has_node(node)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._succ)

    def __len__(self) -> int:
        return len(self._succ)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __repr__(self) -> str:
        return (
            f"Digraph(n={self.number_of_nodes}, m={self.number_of_edges})"
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _require_node(self, node: NodeId) -> None:
        if node not in self._succ:
            raise NodeNotFoundError(node)


class _ArrayDigraph(Digraph):
    """A :class:`Digraph` built by :meth:`Digraph.from_edge_arrays` whose
    adjacency sets are not built yet.

    It answers the node, count and degree queries and :meth:`edge_arrays`
    from its ``_arrays``.  Every other query reads ``_succ`` or ``_pred``,
    which are unset, so Python calls :meth:`__getattr__`: that builds the
    sets and turns the object into a plain :class:`Digraph`.
    """

    __slots__ = ()

    def __getattr__(self, name: str) -> object:
        if name not in ("_succ", "_pred"):
            raise AttributeError(f"'Digraph' object has no attribute {name!r}")
        self._build_sets()
        return getattr(self, name)

    def _build_sets(self) -> None:
        """Fill the adjacency sets from the arrays and become a plain
        :class:`Digraph`.

        Each set receives its members in the per-edge build's insertion
        order, so it iterates as it would there.  The arrays are dropped, so
        mutations cannot leave them stale.
        """
        arrays = self._arrays
        succ: dict[NodeId, set[NodeId]] = {node: set() for node in range(arrays.n)}
        pred: dict[NodeId, set[NodeId]] = {node: set() for node in range(arrays.n)}
        for source, target in zip(arrays.sources.tolist(), arrays.targets.tolist()):
            succ[source].add(target)
            pred[target].add(source)
        self._succ, self._pred = succ, pred
        del self._arrays
        object.__setattr__(self, "__class__", Digraph)

    def __getstate__(self) -> tuple[None, dict[str, object]]:
        # Pickle and deepcopy keep the arrays only: the default slot state
        # would read, and so build, the sets.
        return None, {"_arrays": self._arrays}

    def copy(self) -> Digraph:
        clone = _ArrayDigraph.__new__(_ArrayDigraph)
        clone._arrays = self._arrays
        return clone

    @property
    def nodes(self) -> frozenset[NodeId]:
        return frozenset(range(self._arrays.n))

    @property
    def number_of_nodes(self) -> int:
        return self._arrays.n

    @property
    def number_of_edges(self) -> int:
        return int(self._arrays.sources.size)

    def edge_arrays(self) -> tuple[Sequence[NodeId], np.ndarray, np.ndarray]:
        return range(self._arrays.n), self._arrays.sources, self._arrays.targets

    def has_node(self, node: NodeId) -> bool:
        return self._arrays.index(node) is not None

    def in_degree(self, node: NodeId) -> int:
        return self._arrays.in_degrees[self._arrays.require(node)]

    def out_degree(self, node: NodeId) -> int:
        return self._arrays.out_degrees[self._arrays.require(node)]

    def __iter__(self) -> Iterator[NodeId]:
        return iter(range(self._arrays.n))

    def __len__(self) -> int:
        return self._arrays.n
