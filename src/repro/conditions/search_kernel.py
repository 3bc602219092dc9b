"""The compiled Theorem-1 search: bindings and self-check of ``search_kernel.c``.

Theorem 1 turns feasibility into a search over fault sets ``F`` and
disjoint insulated sets ``L`` and ``R``, and two exponential loops decide
it, one fault set at a time:

* the exhaustive sweep over every candidate ``L`` of
  :func:`~repro.conditions.bitset.find_violating_partition_bitset`, whose
  NumPy form is :func:`repro.conditions.bitset._search_fault_set`;
* the DPLL search of the ``exact`` backend
  (:func:`~repro.conditions.exact.exact_violation_search`), whose Python
  form is :class:`repro.conditions.exact._UniverseSolver`.

Beyond their caps, the heuristic witness searches of
:mod:`repro.conditions.witnesses` look for a witness with two linear
steps:

* the deletion closure, whose Python form is
  :func:`repro.conditions.necessary.maximal_insulated_subset`;
* the growth of ``L`` from a seed, whose Python form is
  :func:`repro.conditions.witnesses._grow_left`.

``search_kernel.c`` runs all four in C (``sweep_fault_set``,
``solve_universe``, ``peel`` and ``grow``), as the same search in faster
arithmetic: the same candidates in the same order, the same pivots,
labels and decision count, the same closures and the same grown sets.
``peel`` and ``grow`` read a graph of any size as a :class:`ColumnIndex`
and take sets as ``uint8`` column flags.  On x86-64 the sweep also has a
copy compiled for the ``POPCNT`` instruction, chosen at run time on CPUs
that have it.  :data:`LIBRARY` builds, caches, loads and checks the
library through the shared loader of :mod:`repro.native` on the first
:func:`kernel` call, never at import.  The self-check compares every
entry point with its interpreted form on fixed cases; if any step fails,
:func:`kernel` returns ``None``, the callers run the interpreted forms,
and :func:`status` says why.  Those forms stay as the fallback and as the
test oracles, and what the machine can build is the only thing that
selects the path.

Python ints are clamped before they cross into C, where a ``c_int64``
would wrap silently, to bounds beyond which every result is the same:
the decision budget to :data:`MAX_BUDGET`, the sweep threshold to
``[0, MAX_THRESHOLD]``, the solver's threshold ``tau`` to at most
``m + 1`` for a universe of ``m`` nodes, and the threshold of ``peel``
and ``grow`` to ``[0, n + 1]`` for a graph of ``n`` nodes.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.native import NativeLibrary, NativeUnavailableError

#: The C source, shipped as package data next to this module.
SOURCE = Path(__file__).with_name("search_kernel.c")

#: Largest decision budget that crosses into C.  A larger one would take
#: centuries to exhaust, so it decides the same searches.
MAX_BUDGET = 2**62

#: Largest sweep threshold that crosses into C.  An in-neighbour count of a
#: 64-bit word lies in ``[0, 64]``: every threshold ``<= 0`` rules every
#: node out and every threshold ``>= 65`` none.
MAX_THRESHOLD = 65

#: Largest node count of one sweep: one ``uint64`` word per node.
MAX_SWEEP_NODES = 64

_Words = ctypes.POINTER(ctypes.c_uint64)
_Indices = ctypes.POINTER(ctypes.c_int64)


class BudgetExceeded(Exception):
    """The DPLL decision budget ran out (raised by both solvers)."""


def _starts(keys: np.ndarray, n: int) -> np.ndarray:
    """CSR row starts of ``n`` rows holding ``keys``' entries."""
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=starts[1:])
    return starts


class ColumnIndex:
    """A simple digraph on the columns ``0 … n − 1`` as ``peel`` and
    ``grow`` read it.

    ``in_sources[in_starts[v]:in_starts[v + 1]]`` are column ``v``'s
    in-neighbours in ascending column order, ``out_targets`` and
    ``out_starts`` its out-neighbours likewise; the index also owns the two
    work buffers of the C loops.  C indexes its arrays by every column it
    reads, so the edges' ranges are checked here, once, and the arrays are
    read-only.  Their addresses are taken once too: each costs ~2 µs.
    """

    def __init__(self, n: int, sources: np.ndarray, targets: np.ndarray) -> None:
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.ndim != 1 or sources.shape != targets.shape:
            raise ValueError("sources and targets must be 1-D arrays of one length")
        if sources.size and not (
            0 <= min(sources.min(), targets.min())
            and max(sources.max(), targets.max()) < n
        ):
            raise ValueError(f"edge endpoints must lie in 0 … {n - 1}")
        self.n = n
        # One int64 key per edge sorts faster than a two-key lexsort.
        self.in_sources = sources[np.argsort(targets * n + sources)]
        self.in_starts = _starts(targets, n)
        self.out_targets = targets[np.argsort(sources * n + targets)]
        self.out_starts = _starts(sources, n)
        self.in_degrees = np.diff(self.in_starts)
        for array in (self.in_starts, self.in_sources, self.out_starts, self.out_targets):
            array.flags.writeable = False
        self._buffers = (np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64))
        self.in_csr = (self.in_starts.ctypes.data, self.in_sources.ctypes.data)
        self.out_csr = (self.out_starts.ctypes.data, self.out_targets.ctypes.data)
        self.counts, self.work = (array.ctypes.data for array in self._buffers)

    def in_neighbours(self, column: int) -> np.ndarray:
        """Column ``column``'s in-neighbours, in ascending column order."""
        return self.in_sources[self.in_starts[column] : self.in_starts[column + 1]]


def _flags(flags: np.ndarray, index: ColumnIndex) -> int:
    """The address of ``flags``, one writable byte per column of ``index``."""
    if not (
        flags.dtype == np.uint8
        and flags.shape == (index.n,)
        and flags.flags.c_contiguous
        and flags.flags.writeable
    ):
        raise ValueError(
            f"column flags must be a writable contiguous uint8 array of {index.n}"
        )
    return int(flags.ctypes.data)


class SearchKernel:
    """The loaded library's four entry points.

    Each call builds its small ctypes arrays from Python ints, or passes
    the addresses of arrays checked once; the per-call cost is a few
    microseconds.
    """

    def __init__(self, library: ctypes.CDLL) -> None:
        self._sweep: Any = library.sweep_fault_set
        self._sweep.argtypes = [_Words, ctypes.c_int64, ctypes.c_int64, _Words]
        self._sweep.restype = ctypes.c_int
        self._solve: Any = library.solve_universe
        self._solve.argtypes = [
            ctypes.c_int64,
            _Indices,
            _Indices,
            ctypes.c_int64,
            ctypes.c_int64,
            _Indices,
            ctypes.POINTER(ctypes.c_int8),
        ]
        self._solve.restype = ctypes.c_int
        address, count = ctypes.c_void_p, ctypes.c_int64
        self._peel: Any = library.peel
        self._peel.argtypes = [count, *[address] * 5, count, *[address] * 3]
        self._peel.restype = ctypes.c_int64
        self._grow: Any = library.grow
        self._grow.argtypes = [address, address, count, count, address, address]
        self._grow.restype = ctypes.c_int64

    def sweep(self, in_masks: Sequence[int], threshold: int) -> tuple[int, int] | None:
        """``_search_fault_set(in_masks, len(in_masks), threshold)`` in C.

        ``in_masks[i]`` is surviving node ``i``'s in-neighbour word over the
        ``len(in_masks) <= 64`` surviving nodes.  Returns the first
        ``(left_mask, right_mask)`` or ``None``.
        """
        count = len(in_masks)
        if count > MAX_SWEEP_NODES:
            raise ValueError(
                f"the compiled sweep takes at most {MAX_SWEEP_NODES} nodes, got {count}"
            )
        words = (ctypes.c_uint64 * max(count, 1))(*in_masks)
        found = (ctypes.c_uint64 * 2)()
        clamped = min(max(threshold, 0), MAX_THRESHOLD)
        if self._sweep(words, count, clamped, found):
            return int(found[0]), int(found[1])
        return None

    def solve(
        self,
        out_nbrs: Sequence[Sequence[int]],
        tau: int,
        budget: dict[str, int],
    ) -> tuple[int, ...] | None:
        """``_UniverseSolver(..., out_nbrs, tau, budget).solve()`` in C.

        ``out_nbrs[x]`` lists node ``x``'s out-neighbours inside the
        universe, in the order propagation visits them.  ``budget`` holds
        the ``"decisions"`` made so far and their ``"limit"``; the decisions
        of this search are added to it.  Returns the label vector
        (1 = L, 2 = R, 3 = C) of the first violation, or ``None``; raises
        :class:`BudgetExceeded` when the budget runs out.
        """
        m = len(out_nbrs)
        tau = min(tau, m + 1)
        if m < 2 or tau <= 0:
            return None
        starts = [0] * (m + 1)
        flat: list[int] = []
        for node, successors in enumerate(out_nbrs):
            flat.extend(successors)
            starts[node + 1] = len(flat)
        # C indexes its counters by these: one out of range would write
        # past them.
        if flat and not (0 <= min(flat) and max(flat) < m):
            raise ValueError(f"out-neighbours must lie in 0 … {m - 1}")
        decisions = ctypes.c_int64(budget["decisions"])
        labels = (ctypes.c_int8 * m)()
        result = self._solve(
            m,
            (ctypes.c_int64 * (m + 1))(*starts),
            (ctypes.c_int64 * max(len(flat), 1))(*flat),
            tau,
            min(budget["limit"], MAX_BUDGET),
            ctypes.byref(decisions),
            labels,
        )
        budget["decisions"] = decisions.value
        if result == -2:
            raise MemoryError("the compiled solver could not allocate its buffers")
        if result == -1:
            raise BudgetExceeded
        return tuple(labels) if result == 1 else None

    def peel(
        self,
        index: ColumnIndex,
        pool: np.ndarray,
        universe: np.ndarray,
        threshold: int,
    ) -> int:
        """``maximal_insulated_subset(graph, pool, universe, threshold)`` in C.

        ``pool`` and ``universe`` are column flags of ``index``'s graph;
        ``pool`` may hold columns outside ``universe``, and becomes the
        closure.  Returns the closure's size.
        """
        n = index.n
        return int(
            self._peel(
                n,
                *index.in_csr,
                *index.out_csr,
                _flags(universe, index),
                min(max(threshold, 0), n + 1),
                _flags(pool, index),
                index.counts,
                index.work,
            )
        )

    def grow(
        self, index: ColumnIndex, seed: int, side: np.ndarray, threshold: int
    ) -> int | None:
        """``_grow_left(graph, seed, universe, threshold)`` in C.

        ``side`` holds the universe as column flags (1 inside, 0 outside)
        and becomes ``L`` as 2 and the rest of the universe as 1.  Returns
        ``|L|``, or ``None`` where ``_grow_left`` returns ``None``.
        """
        n = index.n
        if not 0 <= seed < n:
            raise ValueError(f"the seed must lie in 0 … {n - 1}, got {seed}")
        size = self._grow(
            *index.in_csr,
            seed,
            min(max(threshold, 0), n + 1),
            _flags(side, index),
            index.work,
        )
        return None if size < 0 else int(size)


def kernel() -> SearchKernel | None:
    """Return the compiled search, building it on first use.

    ``None`` means this machine cannot build, load or trust it, and the
    NumPy sweep and the Python solver run instead.
    """
    return LIBRARY.load()


def status() -> str:
    """Say which Theorem-1 search runs on this machine and why."""
    return LIBRARY.status()


def _self_check(compiled: SearchKernel) -> None:
    """Refuse a library that differs from the interpreted forms on fixed cases.

    The sweep runs counts 0–12 at four edge densities, with empty and full
    in-masks, at thresholds from −1 to 70; the solver runs random
    universes of 2–9 nodes at thresholds 0–3 and budgets 1, 6 and 10**6;
    ``peel`` and ``grow`` run random graphs of 1–10 nodes, with random
    universes, pools (outside the universe too) and seeds, at thresholds
    from −1 to ``n + 2``.  Each must return what its interpreted form
    returns, the solver with the same decision count and the same budget
    exhaustion.
    """
    # These modules call kernel(), so their interpreted forms are imported
    # here, at first use, when every module has loaded.
    from repro.conditions.bitset import _search_fault_set
    from repro.conditions.exact import _UniverseSolver
    from repro.conditions.necessary import maximal_insulated_subset
    from repro.conditions.witnesses import _grow_left
    from repro.graphs.digraph import Digraph

    # reprolint: disable=RNG004 -- the self-check cases are fixed, not a run's stream
    rng = np.random.default_rng(20120716)
    for count in range(13):
        for density in (0.0, 0.3, 0.7, 1.0):
            bits = rng.random((count, count)) < density
            words = [0] * count
            for i, j in zip(*np.nonzero(bits)):
                words[int(i)] |= 1 << int(j)
            threshold = int(rng.choice([-1, 0, 1, 2, 3, count + 1, 70]))
            expected = _search_fault_set(
                np.array(words, dtype=np.uint64), count, threshold
            )
            if compiled.sweep(words, threshold) != expected:
                raise NativeUnavailableError(
                    f"self-check failed (sweep, count={count}, "
                    f"threshold={threshold})"
                )
    for case in range(40):
        m = int(rng.integers(2, 10))
        edges = rng.random((m, m)) < rng.uniform(0.2, 0.8)
        out_nbrs = [
            tuple(int(y) for y in range(m) if y != x and edges[x, y])
            for x in range(m)
        ]
        in_nbrs = [
            tuple(x for x in range(m) if y in out_nbrs[x]) for y in range(m)
        ]
        tau = int(rng.integers(0, 4))
        limit = (1, 6, 10**6)[case % 3]
        outcomes = []
        for solver in ("python", "compiled"):
            budget = {"decisions": 0, "limit": limit}
            try:
                if solver == "python":
                    labels = _UniverseSolver(in_nbrs, out_nbrs, tau, budget).solve()
                else:
                    labels = compiled.solve(out_nbrs, tau, budget)
            except BudgetExceeded:
                labels = None
                budget["exceeded"] = 1
            outcomes.append((labels, budget))
        if outcomes[0] != outcomes[1]:
            raise NativeUnavailableError(
                f"self-check failed (solve, m={m}, tau={tau}, limit={limit})"
            )
    # Nodes 0 … 9 sort by repr as by value, so columns are nodes here.
    for _ in range(40):
        n = int(rng.integers(1, 11))
        edges = rng.random((n, n)) < rng.uniform(0.1, 0.8)
        np.fill_diagonal(edges, False)
        sources, targets = np.nonzero(edges)
        graph = Digraph(range(n), zip(sources.tolist(), targets.tolist()))
        index = ColumnIndex(n, sources, targets)
        universe = (rng.random(n) < 0.8).astype(np.uint8)
        pool = (rng.random(n) < 0.6).astype(np.uint8)
        threshold = int(rng.integers(-1, n + 3))
        members = frozenset(np.flatnonzero(universe).tolist())
        closed = maximal_insulated_subset(
            graph, frozenset(np.flatnonzero(pool).tolist()), members, threshold
        )
        size = compiled.peel(index, pool, universe, threshold)
        if (size, set(np.flatnonzero(pool).tolist())) != (len(closed), closed):
            raise NativeUnavailableError(
                f"self-check failed (peel, n={n}, threshold={threshold})"
            )
        for seed in range(n):
            side = universe.copy()
            size = compiled.grow(index, seed, side, threshold)
            observed = None if size is None else (
                set(np.flatnonzero(side == 2).tolist()),
                set(np.flatnonzero(side == 1).tolist()),
            )
            grown = _grow_left(graph, seed, members, threshold)
            if observed != grown or (grown is not None and size != len(grown[0])):
                raise NativeUnavailableError(
                    f"self-check failed (grow, n={n}, seed={seed}, "
                    f"threshold={threshold})"
                )


#: The search library: one cache file and one status of its own.
LIBRARY: NativeLibrary[SearchKernel] = NativeLibrary(
    SOURCE,
    SearchKernel,
    _self_check,
    "compiled search",
    "NumPy sweep and Python solver",
)
