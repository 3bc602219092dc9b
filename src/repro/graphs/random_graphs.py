"""Random graph generators used by experiments and property-based tests.

All generators take an explicit ``rng`` (a :class:`numpy.random.Generator`) or
an integer seed so that every experiment in the benchmark harness is exactly
reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.graphs.digraph import Digraph


def _as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Normalise ``rng`` into a :class:`numpy.random.Generator`."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _add_random_links(
    graph: Digraph,
    start: int,
    n: int,
    edge_probability: float,
    generator: np.random.Generator,
) -> None:
    """Link every pair ``start <= first < second < n`` in both directions,
    independently with probability ``edge_probability``.

    Row ``first`` takes one ``generator.random(n - first - 1)`` call, which
    consumes the stream exactly as one scalar ``generator.random()`` per pair
    would; links go in row by row, partners ascending, so the adjacency sets
    match a pair-by-pair loop in contents and iteration order.
    """
    for first in range(start, n - 1):
        row = generator.random(n - first - 1)
        partners = np.flatnonzero(row < edge_probability) + (first + 1)
        for second in partners.tolist():
            graph.add_bidirectional_edge(first, second)


def erdos_renyi_digraph(
    n: int,
    edge_probability: float,
    rng: np.random.Generator | int | None = None,
) -> Digraph:
    """Return a directed Erdős–Rényi graph ``G(n, p)``.

    Every ordered pair ``(i, j)`` with ``i != j`` becomes an edge independently
    with probability ``edge_probability``.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if not 0.0 <= edge_probability <= 1.0:
        raise InvalidParameterError(
            f"edge_probability must be in [0, 1], got {edge_probability}"
        )
    generator = _as_rng(rng)
    graph = Digraph(nodes=range(n))
    if n == 1 or edge_probability == 0.0:
        return graph
    # One row of n draws per source consumes the stream exactly as a single
    # (n, n) draw would, without holding n² doubles at once.
    for source in range(n):
        hits = generator.random(n) < edge_probability
        hits[source] = False
        for target in np.flatnonzero(hits).tolist():
            graph.add_edge(source, target)
    return graph


def erdos_renyi_symmetric(
    n: int,
    edge_probability: float,
    rng: np.random.Generator | int | None = None,
) -> Digraph:
    """Return an undirected Erdős–Rényi graph encoded as a symmetric digraph."""
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if not 0.0 <= edge_probability <= 1.0:
        raise InvalidParameterError(
            f"edge_probability must be in [0, 1], got {edge_probability}"
        )
    generator = _as_rng(rng)
    graph = Digraph(nodes=range(n))
    _add_random_links(graph, 0, n, edge_probability, generator)
    return graph


def k_in_regular_digraph(
    n: int,
    in_degree: int,
    rng: np.random.Generator | int | None = None,
) -> Digraph:
    """Return a random digraph where every node has exactly ``in_degree``
    incoming edges chosen uniformly at random (without replacement) from the
    other nodes.

    This family is useful for Corollary-3 experiments: it lets the caller pin
    the in-degree exactly at, above or below the ``2f + 1`` threshold while
    keeping the rest of the structure random.
    """
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    if not 0 <= in_degree <= n - 1:
        raise InvalidParameterError(
            f"in_degree must be in [0, {n - 1}], got {in_degree}"
        )
    generator = _as_rng(rng)
    graph = Digraph(nodes=range(n))
    for target in range(n):
        candidates = [node for node in range(n) if node != target]
        sources = generator.choice(candidates, size=in_degree, replace=False)
        for source in sources:
            graph.add_edge(int(source), target)
    return graph


def heterogeneous_ring_lattice(
    n: int,
    f: int,
    extra_mean: float = 2.0,
    rng: np.random.Generator | int | None = None,
) -> Digraph:
    """Return a large sparse digraph with heterogeneous in-degrees: a
    symmetric ring lattice (``k = f + 1`` neighbours per side, so every node
    starts above the ``2f`` trim floor) plus ``Poisson(extra_mean)`` extra
    random in-edges per node.

    This is the scale-out family of the ``large_n`` experiment and of the
    benchmark harness's ``scale`` and ``dynamic`` scenarios: in-degrees
    spread over dozens of distinct values (exercising the batch engine's
    bucket-major plane across many degree buckets) while the edge count
    stays ``O(n)``, so ``n = 10^5`` is cheap to build.  Construction is
    vectorized — the ring offsets and the extra-edge endpoints are drawn as
    flat NumPy arrays, not per-node Python loops.  ``extra_mean`` must lie
    in ``[0, n − 1]``, which refuses NaN and infinity too: a node has only
    ``n − 1`` possible in-neighbours, so a larger mean only adds duplicate
    draws.
    """
    if f < 0:
        raise InvalidParameterError(f"f must be >= 0, got {f}")
    k = f + 1
    if 2 * k >= n:
        raise InvalidParameterError(
            f"heterogeneous ring lattice requires n > 2(f + 1); got n={n}, f={f}"
        )
    if not 0 <= extra_mean <= n - 1:
        raise InvalidParameterError(
            f"extra_mean must lie in [0, n - 1] = [0, {n - 1}], got {extra_mean}"
        )
    generator = _as_rng(rng)
    targets = np.arange(n, dtype=np.int64)
    ring_sources = []
    ring_targets = []
    for offset in range(1, k + 1):
        for signed in (offset, -offset):
            ring_sources.append((targets + signed) % n)
            ring_targets.append(targets)
    counts = generator.poisson(extra_mean, size=n)
    extra_targets = np.repeat(targets, counts)
    # Draw in [0, n - 1) and shift past the target to exclude self-loops.
    extra_sources = generator.integers(0, n - 1, size=extra_targets.size)
    extra_sources = np.where(
        extra_sources >= extra_targets, extra_sources + 1, extra_sources
    )
    sources = np.concatenate(ring_sources + [extra_sources])
    all_targets = np.concatenate(ring_targets + [extra_targets])
    return Digraph(
        nodes=range(n),
        edges=zip(sources.tolist(), all_targets.tolist()),
    )


def random_core_like_network(
    n: int,
    f: int,
    extra_edge_probability: float = 0.1,
    rng: np.random.Generator | int | None = None,
) -> Digraph:
    """Return a core network (Definition 4) with additional random symmetric
    edges among the non-core nodes.

    Adding edges never breaks the Theorem-1 condition (the condition is
    monotone under edge addition), so this family always remains feasible; it
    is used to test that monotonicity empirically and to vary α in the
    convergence-rate experiments.
    """
    from repro.graphs.generators import core_network

    if not 0.0 <= extra_edge_probability <= 1.0:
        raise InvalidParameterError(
            f"extra_edge_probability must be in [0, 1], got {extra_edge_probability}"
        )
    generator = _as_rng(rng)
    graph = core_network(n, f)
    _add_random_links(graph, 2 * f + 1, n, extra_edge_probability, generator)
    return graph


def random_spanning_strongly_connected(
    n: int,
    extra_edges: int = 0,
    rng: np.random.Generator | int | None = None,
) -> Digraph:
    """Return a random strongly connected digraph on ``n`` nodes.

    Construction: a random Hamiltonian cycle (which guarantees strong
    connectivity) plus ``extra_edges`` additional random directed edges.  The
    family gives sparse strongly connected graphs that typically *fail*
    Theorem 1 for ``f >= 1``, useful as negative examples in tests.
    """
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    if extra_edges < 0:
        raise InvalidParameterError(f"extra_edges must be >= 0, got {extra_edges}")
    generator = _as_rng(rng)
    order = list(generator.permutation(n))
    graph = Digraph(nodes=range(n))
    for index, node in enumerate(order):
        graph.add_edge(int(node), int(order[(index + 1) % n]))
    added = 0
    max_possible = n * (n - 1) - n
    target_extra = min(extra_edges, max_possible)
    while added < target_extra:
        source = int(generator.integers(n))
        target = int(generator.integers(n))
        if source == target or graph.has_edge(source, target):
            continue
        graph.add_edge(source, target)
        added += 1
    return graph


def perturb_with_edge_removals(
    graph: Digraph,
    removals: int,
    rng: np.random.Generator | int | None = None,
) -> Digraph:
    """Return a copy of ``graph`` with ``removals`` uniformly random edges removed.

    Used by ablation benchmarks to measure how quickly random damage destroys
    the Theorem-1 condition on initially feasible graphs.
    """
    if removals < 0:
        raise InvalidParameterError(f"removals must be >= 0, got {removals}")
    generator = _as_rng(rng)
    reduced = graph.copy()
    edges = sorted(reduced.edges, key=repr)
    count = min(removals, len(edges))
    if count == 0:
        return reduced
    chosen = generator.choice(len(edges), size=count, replace=False)
    for index in chosen:
        source, target = edges[int(index)]
        reduced.remove_edge(source, target)
    return reduced
