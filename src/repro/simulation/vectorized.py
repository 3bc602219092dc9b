"""NumPy-vectorized synchronous engine: one ``(B, n)`` batch per pass.

:class:`~repro.simulation.engine.SynchronousEngine` walks Python dicts one
node at a time, which is faithful but slow for the Monte-Carlo sweeps the
experiment drivers run.  This module re-expresses one round of Algorithm 1 as
flat segment arithmetic over a compressed-sparse-row message plane:

* the states of **all** nodes live in a single ``(B, n)`` float matrix
  covering ``B`` independent executions (different inputs and adversary
  draws) of the **same** ``(graph, rule, faulty)`` configuration;
* **CSR neighbour lists** are built once from the digraph: ``csr_indptr`` /
  ``csr_indices`` hold every fault-free receiver's in-neighbour columns in
  the repr-sorted canonical order (receiver-major, senders sorted by
  ``repr`` within a receiver — exactly the scalar engine's tie-break and the
  batch adversary layer's canonical channel order);
* a round reads a flat ``(B, nnz)`` message plane whose receiver segments
  are laid out *bucket-major* (receivers grouped by exact in-degree,
  canonical order within a bucket): plane slot ``k`` reads column
  ``slots[k]`` of the state tile joined with the round's Byzantine channel
  values, so the channel values need no scatter and the plane itself is
  never built by the compiled kernel;
* each receiver sorts its received values, trims ``f`` from each end and
  averages the survivors with its own value, summed left to right starting
  from the own value — the scalar engine's floating-point summation order —
  so a vectorized execution is **bit-for-bit identical** to the scalar one,
  enforced by :func:`cross_check_engines` and the property tests.
  :func:`reduce_plane` runs this round in compiled C
  (:mod:`repro.simulation.native`) where this machine can build it, else in
  NumPy (:func:`reduce_plane_numpy`: one ``np.take`` gather, then every
  degree bucket is a contiguous slab that reshapes to a ``(B, m_d, d)``
  view, is sorted in place, trimmed via the ``[f : d − f]`` slice and
  summed with ``cumsum``); both give equal outputs.
  (``np.add.reduceat`` was evaluated for the segment sums and rejected: its
  unrolled/pairwise accumulation is **not** sequential, so it is not
  bit-exact with the scalar reference — see ``docs/architecture.md``.)
* ``dtype=np.float32`` opts into a half-memory state plane.  Float32 runs
  are not bit-identical to float64 runs, but they keep the paper's hull
  invariants *exactly*: the float32 trimmed-mean reduction is clamped into
  the local trim hull ``[min(own ∪ survivors), max(own ∪ survivors)]`` — a
  mathematical no-op that removes the one rounding path which could push a
  value out of the fault-free hull.  The contract is documented in
  ``docs/performance.md``.
* ``max_plane_bytes`` tiles the batch: one round streams the ``B`` rows in
  tiles small enough that the plane working set respects the budget, so a
  single box can simulate ``10^5``-plus-node networks at large ``B``.
  Tiling happens *inside* :meth:`VectorizedEngine.step_matrix` — the
  adversary still sees the full batch once per round, so the RNG-stream
  contract and every :class:`~repro.adversary.vectorized.BatchStrategy`
  behave exactly as in the untiled run.

The partially asynchronous
:class:`~repro.simulation.vectorized_async.VectorizedAsyncEngine` feeds the
same kernel from its delivery buffers, whose channel axis is the canonical
CSR order.

The speedup is the point: the transition-matrix view of the update (the
Lemma 5 machinery in :mod:`repro.analysis.markov`) says a round is a gather
plus a row-stochastic reduction, and that is exactly what the arrays do.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.adversary.base import ByzantineStrategy
from repro.adversary.vectorized import (
    BatchAdversaryContext,
    BatchStrategy,
    as_batch_strategy,
    fault_free_block,
)
from repro.algorithms.base import UpdateRule
from repro.algorithms.trimmed_mean import TrimmedMeanRule, TrimmedMidpointRule
from repro.exceptions import InvalidParameterError, SimulationError
from repro.graphs.digraph import Digraph
from repro.simulation.dynamic import (
    RoundActivity,
    ScheduleLayout,
    TopologySchedule,
    resolve_activity,
)
from repro.simulation.engine import (
    SimulationConfig,
    SynchronousEngine,
    checked_fault_free,
)
from repro.simulation import native
from repro.simulation.metrics import ValidityMonitor
from repro.simulation.trace import ExecutionTrace
from repro.types import ConsensusOutcome, NodeId, RoundRecord, ValueMap

#: State dtypes the engine accepts.  float64 is the bit-exact default;
#: float32 trades bit-parity for half the plane memory under the documented
#: tolerance contract (hull invariants still hold exactly).
# reprolint: disable=EXA003 -- this IS the documented dtype= plumbing (docs/architecture.md, float32 tier)
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: One round of a batch engine: ``(state, round_index, active_rows)`` to the
#: new ``(B, n)`` state.
Advance = Callable[[np.ndarray, int, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class _DegreeBucket:
    """One contiguous plane slab: all fault-free receivers of one in-degree.

    ``columns`` are the receivers' state columns (canonical order), and
    ``plane_start``/``plane_stop`` bound the slab inside the flat message
    plane, which reshapes to a ``(B, len(columns), degree)`` view for free.
    """

    degree: int
    columns: np.ndarray
    plane_start: int
    plane_stop: int


@dataclass(frozen=True)
class PlaneLayout:
    """The bucket-major plane layout both plane kernels read.

    ``buckets`` are the slabs of the NumPy kernel.  The compiled kernel
    walks the same plane one receiver at a time: receiver ``i`` (in plane
    order) owns plane slots ``starts[i]`` to ``starts[i + 1]`` and writes
    state column ``receivers[i]``.  ``width`` is the number of state
    columns, ``max_degree`` the largest segment.  ``addresses`` holds the
    addresses of ``receivers`` and ``starts`` for the compiled kernel,
    read once: each ``ndarray.ctypes`` lookup costs ~0.85 µs, a twentieth
    of a whole kernel call at ``n = 11``.
    """

    buckets: tuple[_DegreeBucket, ...]
    receivers: np.ndarray
    starts: np.ndarray
    width: int
    max_degree: int
    addresses: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The compiled kernel indexes with these arrays unchecked.
        receivers, starts = self.receivers, self.starts
        degrees = np.diff(starts)
        if not (
            receivers.dtype == starts.dtype == np.int64
            and receivers.ndim == starts.ndim == 1
            and receivers.flags.c_contiguous
            and starts.flags.c_contiguous
            and starts.size == receivers.size + 1
            and starts[0] == 0
            and (degrees >= 0).all()
            and int(degrees.max(initial=0)) <= self.max_degree
            and (receivers.size == 0 or 0 <= receivers.min() <= receivers.max() < self.width)
        ):
            raise InvalidParameterError(
                "PlaneLayout needs int64 receivers inside [0, width) and "
                "int64 segment starts from 0, non-decreasing, with no "
                "segment longer than max_degree"
            )
        object.__setattr__(
            self, "addresses", (receivers.ctypes.data, starts.ctypes.data)
        )

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        # Copies and unpickled layouts rebuild through __init__, so their
        # addresses are those of their own arrays.
        return type(self), (
            self.buckets,
            self.receivers,
            self.starts,
            self.width,
            self.max_degree,
        )


def plane_layout(
    degrees: np.ndarray, receiver_columns: np.ndarray, width: int
) -> tuple[PlaneLayout, np.ndarray]:
    """Lay receivers out bucket-major by degree.

    ``degrees[i]`` is the in-degree of receiver ``receiver_columns[i]``, in
    the receiver-major order of a CSR list.  Returns the layout and
    ``plane_order``, the CSR position of each plane slot.
    """
    csr_indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    chunks: list[np.ndarray] = []
    buckets: list[_DegreeBucket] = []
    cursor = 0
    for degree in np.unique(degrees).tolist():
        members = np.flatnonzero(degrees == degree)
        chunks.append((csr_indptr[members, None] + np.arange(degree)).ravel())
        buckets.append(
            _DegreeBucket(
                degree=degree,
                columns=receiver_columns[members],
                plane_start=cursor,
                plane_stop=cursor + members.size * degree,
            )
        )
        cursor += members.size * degree
    segments = np.concatenate(
        [np.full(bucket.columns.size, bucket.degree) for bucket in buckets]
    )
    layout = PlaneLayout(
        buckets=tuple(buckets),
        receivers=np.concatenate([bucket.columns for bucket in buckets]).astype(
            np.int64
        ),
        starts=np.concatenate([[0], np.cumsum(segments)]).astype(np.int64),
        width=int(width),
        max_degree=int(segments.max()),
    )
    return layout, np.concatenate(chunks).astype(np.int64)


def bucket_plane(
    graph: Digraph, nodes: Sequence[NodeId], receiver_columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, PlaneLayout, np.ndarray]:
    """Build the CSR in-neighbour lists and the bucket-major plane layout.

    ``nodes`` lists every node of ``graph`` in state-column order, sorted by
    ``repr`` as both batch engines' columns are.  Returns ``(csr_indptr,
    csr_indices, layout, plane_order)``.  The CSR keeps the receivers (state
    columns) in the given order and each receiver's senders in column order,
    which is ``repr`` order; two distinct nodes with the same ``repr`` keep
    their column order.  The plane permutes the receiver segments
    bucket-major (grouped by exact in-degree, given order within a bucket)
    so each bucket is one contiguous slab; ``plane_order`` maps each plane
    slot to its CSR position.

    The CSR comes from :meth:`~repro.graphs.digraph.Digraph.edge_arrays`
    with one sort on the (receiver, sender column) key, so an array-built
    graph never builds its neighbour sets here, nor a node → column dict.
    """
    graph_nodes, sources, targets = graph.edge_arrays()
    if isinstance(graph_nodes, range) and graph_nodes == range(len(nodes)):
        # An array-built graph's nodes are 0 … n − 1, so each node's column
        # is the inverse permutation of the column order.
        column_of = np.empty(len(nodes), dtype=np.int64)
        column_of[np.fromiter(nodes, dtype=np.int64, count=len(nodes))] = np.arange(
            len(nodes)
        )
    else:
        column = {node: index for index, node in enumerate(nodes)}
        column_of = np.array([column[node] for node in graph_nodes], dtype=np.int64)
    # Each edge's receiver as its rank in receiver_columns (-1: no receiver).
    rank = np.full(len(nodes), -1, dtype=np.int64)
    rank[receiver_columns] = np.arange(receiver_columns.size)
    receivers = rank[column_of[targets]]
    kept = receivers >= 0
    receivers = receivers[kept]
    senders = column_of[sources[kept]]
    # A graph has no parallel edges, so the keys are distinct.
    csr_indices = senders[np.argsort(receivers * len(nodes) + senders)]
    degrees = np.bincount(receivers, minlength=receiver_columns.size)
    csr_indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    layout, plane_order = plane_layout(degrees, receiver_columns, len(nodes))
    return csr_indptr, csr_indices, layout, plane_order


def reduce_plane(
    source: np.ndarray,
    slots: np.ndarray,
    state: np.ndarray,
    out: np.ndarray,
    layout: PlaneLayout,
    f: int,
    mode: str,
) -> None:
    """Apply the trimmed update to one tile of batch rows.

    Plane slot ``k`` reads ``source[:, slots[k]]``; ``state`` holds the
    same rows' previous states and ``out`` receives the new values in the
    layout's receiver columns.  Each receiver sorts its received values
    (NaN last, as ``np.sort`` does), drops the ``f`` smallest and the ``f``
    largest, and then, for ``mode="mean"``, sums its own value and the
    survivors left to right (the scalar engine's summation order) and
    divides; ``mode="midpoint"`` averages the extremes of own ∪ survivors.
    A float32 mean gets the hull clamp of the documented float32 contract.

    The operands are checked here, before either kernel runs.  The compiled
    kernel (:mod:`repro.simulation.native`) runs when this machine could
    build it, else :func:`reduce_plane_numpy`; both give equal outputs
    (``np.array_equal(..., equal_nan=True)``; only the sign of a zero
    result may differ, as ``np.sort`` leaves the order of ``-0.0`` and
    ``0.0`` open).  A large call runs the compiled kernel on contiguous row
    chunks at once, one per CPU (:func:`repro.simulation.native.split_parts`);
    each row's output is the same bits as in one serial call.
    """
    _check_operands(source, slots, state, out, layout, f, mode)
    kernel = native.kernel()
    if kernel is None or not out.flags.c_contiguous:
        reduce_plane_numpy(source, slots, state, out, layout, f, mode)
        return
    rows = source.shape[0]
    parts = native.split_parts(rows, slots.size)
    if parts == 1:
        kernel(source, slots, state, out, layout, f, mode)
        return

    def chunk(start: int, stop: int) -> None:
        part = slice(start, stop)
        kernel(source[part], slots, state[part], out[part], layout, f, mode)

    native.run_split(chunk, rows, parts)


def _check_operands(
    source: np.ndarray,
    slots: np.ndarray,
    state: np.ndarray,
    out: np.ndarray,
    layout: PlaneLayout,
    f: int,
    mode: str,
) -> None:
    """Refuse operands either plane kernel would misread."""
    dtype = source.dtype
    if dtype not in SUPPORTED_DTYPES or not dtype == state.dtype == out.dtype:
        raise InvalidParameterError(
            f"reduce_plane needs source, state and out of one dtype in "
            f"{tuple(str(d) for d in SUPPORTED_DTYPES)}, got {source.dtype}, "
            f"{state.dtype} and {out.dtype}"
        )
    rows = source.shape[0]
    if (
        source.ndim != 2
        or state.shape != (rows, layout.width)
        or out.shape != state.shape
        or not out.flags.writeable
    ):
        raise InvalidParameterError(
            f"reduce_plane needs a (B, W) source and (B, {layout.width}) "
            f"state and writable out, got {source.shape}, {state.shape} and "
            f"{out.shape}"
        )
    if slots.shape != (layout.starts[-1],) or slots.dtype.kind not in "iu":
        raise InvalidParameterError(
            f"reduce_plane needs {layout.starts[-1]} integer plane slots, got "
            f"{slots.dtype} of shape {slots.shape}"
        )
    if slots.size and (slots.min() < 0 or slots.max() >= source.shape[1]):
        raise InvalidParameterError(
            f"a plane slot lies outside the {source.shape[1]} source columns"
        )
    if f < 0 or mode not in ("mean", "midpoint"):
        raise InvalidParameterError(
            f"reduce_plane needs f >= 0 and mode 'mean' or 'midpoint', got "
            f"f={f}, mode={mode!r}"
        )


def reduce_plane_numpy(
    source: np.ndarray,
    slots: np.ndarray,
    state: np.ndarray,
    out: np.ndarray,
    layout: PlaneLayout,
    f: int,
    mode: str,
) -> None:
    """The NumPy plane kernel, for operands :func:`reduce_plane` checked.

    One ``np.take`` gathers the C-ordered ``(b, nnz)`` plane; each bucket
    slab is a ``(b, m_d, d)`` view of it, sorted in place, whose trim window
    is the contiguous slice ``[f : d − f]``.  The mean prepends the own
    value and sums with one ``cumsum``.
    """
    # reprolint: disable=EXA003 -- float32 clamp gate of the documented dtype= plumbing
    clamp32 = source.dtype == np.dtype(np.float32)
    plane = np.take(source, slots, axis=1)
    rows = plane.shape[0]
    for bucket in layout.buckets:
        d = bucket.degree
        block = plane[:, bucket.plane_start : bucket.plane_stop].reshape(
            rows, bucket.columns.size, d
        )
        block.sort(axis=-1)
        own = state[:, bucket.columns]
        survivors = block[:, :, f : d - f]
        if mode == "mean":
            full = np.concatenate([own[:, :, None], survivors], axis=2)
            totals = np.cumsum(full, axis=2)[:, :, -1]
            values = totals / float(full.shape[2])
            if clamp32:
                # Mathematically a no-op (the mean of points lies in their
                # hull); at float32 it removes the rounding path that could
                # push a value one ulp outside the local trim hull, keeping
                # the paper's validity invariant exact.
                if survivors.shape[2]:
                    lows = np.minimum(own, survivors[:, :, 0])
                    highs = np.maximum(own, survivors[:, :, -1])
                else:
                    lows = highs = own
                np.clip(values, lows, highs, out=values)
        else:  # midpoint
            mins = np.minimum(own, survivors.min(axis=2, initial=np.inf))
            maxs = np.maximum(own, survivors.max(axis=2, initial=-np.inf))
            values = (mins + maxs) / 2.0
        out[:, bucket.columns] = values


@dataclass(frozen=True)
class BatchOutcome:
    """Summary of ``B`` independent consensus executions run as one batch.

    Attributes
    ----------
    nodes:
        Column order of ``final_states`` (nodes sorted by ``repr``).
    faulty:
        The Byzantine node set shared by every execution.
    converged:
        ``(B,)`` bool: whether each execution's fault-free spread reached the
        tolerance within the allotted rounds.
    rounds_executed:
        ``(B,)`` int: iterations executed per row (rows that converge stop
        updating; their count is the round convergence was reached).
    initial_spread / final_spread:
        ``(B,)`` float: ``U[0] − µ[0]`` and the spread at each row's last
        executed round.
    validity_ok:
        ``(B,)`` bool: whether validity held at every round, in the engine
        class's form (see :attr:`~repro.types.ConsensusOutcome.validity_ok`).
    final_states:
        ``(B, n)`` float: final state of every node (faulty columns hold the
        adversary's nominal values).
    spread_history:
        ``(T + 1, B)`` float array of per-round fault-free spreads when
        history recording was enabled, else ``None``.
    """

    nodes: tuple[NodeId, ...]
    faulty: frozenset[NodeId]
    converged: np.ndarray
    rounds_executed: np.ndarray
    initial_spread: np.ndarray
    final_spread: np.ndarray
    validity_ok: np.ndarray
    final_states: np.ndarray
    spread_history: np.ndarray | None = None

    @property
    def batch_size(self) -> int:
        """Number of executions ``B`` in the batch."""
        return int(self.converged.shape[0])

    @property
    def fraction_converged(self) -> float:
        """Fraction of executions that converged."""
        return float(self.converged.mean())

    @property
    def all_valid(self) -> bool:
        """Whether validity held in every execution."""
        return bool(self.validity_ok.all())

    def mean_rounds_to_convergence(self) -> float:
        """Mean rounds over the converged executions (``nan`` if none)."""
        if not self.converged.any():
            return float("nan")
        return float(self.rounds_executed[self.converged].mean())


class VectorizedEngine:
    """Array-based executor of Algorithm 1 over batches of executions.

    Parameters
    ----------
    graph, rule, faulty, config, schedule:
        As for :class:`~repro.simulation.engine.SynchronousEngine`.  Only the
        trimmed update rules of the paper
        (:class:`~repro.algorithms.trimmed_mean.TrimmedMeanRule`,
        :class:`~repro.algorithms.trimmed_mean.TrimmedMidpointRule`) have a
        vectorized kernel; other rules must use the scalar engine.
    adversary:
        A :class:`~repro.adversary.vectorized.BatchStrategy`, or a scalar
        :class:`~repro.adversary.base.ByzantineStrategy` (wrapped in a
        :class:`~repro.adversary.vectorized.ScalarStrategyAdapter`
        automatically), or ``None`` for protocol-following faulty nodes.
    dtype:
        ``np.float64`` (default) for bit-exact parity with the scalar
        engine, or ``np.float32`` for half-memory state under the documented
        tolerance contract.
    max_plane_bytes:
        Optional soft budget (in bytes) for the per-round plane working set.
        When the full batch would exceed it, :meth:`step_matrix` processes
        the batch in row tiles of :meth:`plane_tile_rows` rows each;
        results are bit-identical to the untiled run.  ``None`` disables
        tiling.  A single row's working set is the floor — one row is
        always processed at a time even if it alone exceeds the budget.
    """

    #: Update rules the vectorized kernel implements; everything else must
    #: use the scalar engine.  Callers choosing an engine should go through
    #: :meth:`supports_rule` rather than repeating this list.
    SUPPORTED_RULES: tuple[type, ...] = (TrimmedMeanRule, TrimmedMidpointRule)

    #: Validity form of the engine class: eq. 1's running tightest interval
    #: here, the round-0 hull in the partially asynchronous subclass.
    _initial_hull_validity = False

    @classmethod
    def supports_rule(cls, rule: UpdateRule) -> bool:
        """Return whether this engine has a vectorized kernel for ``rule``."""
        return isinstance(rule, cls.SUPPORTED_RULES)

    def __init__(
        self,
        graph: Digraph,
        rule: UpdateRule,
        faulty: frozenset[NodeId] | set[NodeId] = frozenset(),
        adversary: BatchStrategy | ByzantineStrategy | None = None,
        config: SimulationConfig | None = None,
        schedule: TopologySchedule | None = None,
        *,
        dtype: np.dtype | type = np.float64,
        max_plane_bytes: int | None = None,
    ) -> None:
        requested = np.dtype(dtype)
        if requested not in SUPPORTED_DTYPES:
            raise InvalidParameterError(
                f"VectorizedEngine dtype must be one of "
                f"{tuple(str(d) for d in SUPPORTED_DTYPES)}, got {requested}"
            )
        if max_plane_bytes is not None and int(max_plane_bytes) < 1:
            raise InvalidParameterError(
                f"max_plane_bytes must be a positive byte budget or None, "
                f"got {max_plane_bytes!r}"
            )
        self._dtype = requested
        self._max_plane_bytes = (
            int(max_plane_bytes) if max_plane_bytes is not None else None
        )
        self._graph = graph
        self._rule = rule
        self._faulty = frozenset(faulty)
        self._adversary = as_batch_strategy(adversary)
        self._config = config if config is not None else SimulationConfig()
        self._schedule = schedule

        if isinstance(rule, TrimmedMeanRule):
            self._mode = "mean"
        elif isinstance(rule, TrimmedMidpointRule):
            self._mode = "midpoint"
        else:
            raise InvalidParameterError(
                f"VectorizedEngine has no kernel for rule {rule.name!r}; "
                "supported rules are TrimmedMeanRule and TrimmedMidpointRule "
                "(use SynchronousEngine for other rules)"
            )

        # One repr sort and one membership scan give the state columns and
        # both column sets; the checks reuse the fault-free nodes they give.
        self._nodes: tuple[NodeId, ...] = tuple(sorted(graph.nodes, key=repr))
        is_faulty = np.fromiter(
            map(self._faulty.__contains__, self._nodes),
            dtype=bool,
            count=len(self._nodes),
        )
        self._faulty_cols = np.flatnonzero(is_faulty)
        self._ff_cols = np.flatnonzero(~is_faulty)
        self._ff_nodes = checked_fault_free(
            graph,
            rule,
            self._faulty,
            fault_free=tuple(itertools.compress(self._nodes, (~is_faulty).tolist())),
        )
        self._build_index_arrays()
        if schedule is not None:
            self._build_edge_arrays()
        self._activity_round: int | None = None
        self._activity: RoundActivity | None = None

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------
    def _build_index_arrays(self) -> None:
        """Build the CSR lists, the bucket-major plane layout and the flat
        channel scatter positions.

        The state columns are the nodes sorted by ``repr`` (the scalar
        engine's deterministic tie-break).  Two layouts coexist over them,
        both built by :func:`bucket_plane`:

        * the **canonical CSR** (:attr:`csr_indptr` / :attr:`csr_indices`)
          keeps fault-free receivers in column order, senders by ``repr``
          within a receiver.  Its faulty-sender slots, in order, are the
          canonical channel order shared with the batch adversary layer
          (``_edge_csr_pos`` locates them), and the asynchronous engine's
          delivery buffers use it as their channel axis;
        * the **plane layout** permutes receiver segments bucket-major
          (grouped by exact in-degree) so each bucket is one contiguous
          slab.  ``_plane_order`` maps each plane slot to its CSR position
          and ``_plane_indices`` to the state column it reads.
          ``_channel_slots`` is the same map for a source that joins the
          round's ``E_f`` channel values after the ``n`` state columns:
          canonical channel ``j`` is read from column ``n + j``.
        """
        (
            self._csr_indptr,
            self._csr_indices,
            self._layout,
            self._plane_order,
        ) = bucket_plane(self._graph, self._nodes, self._ff_cols)

        # The faulty-sender CSR slots, in order, are the canonical channels.
        sender_is_faulty = np.zeros(len(self._nodes), dtype=bool)
        sender_is_faulty[self._faulty_cols] = True
        self._edge_csr_pos = np.flatnonzero(sender_is_faulty[self._csr_indices])
        receivers = np.repeat(self._ff_cols, np.diff(self._csr_indptr))
        self._edge_src_cols = self._csr_indices[self._edge_csr_pos]
        self._edge_dst_cols = receivers[self._edge_csr_pos]
        self._edge_nodes = tuple(
            (self._nodes[sender], self._nodes[receiver])
            for sender, receiver in zip(
                self._edge_src_cols.tolist(), self._edge_dst_cols.tolist()
            )
        )

        self._plane_indices = self._csr_indices[self._plane_order]
        plane_slot = np.empty_like(self._plane_order)
        plane_slot[self._plane_order] = np.arange(self._plane_order.size)
        self._channel_slots = self._plane_indices.copy()
        self._channel_slots[plane_slot[self._edge_csr_pos]] = len(
            self._nodes
        ) + np.arange(self._edge_csr_pos.size)

        # Per-row working-set estimate of the NumPy kernel for the tiling
        # budget: the flat plane plus the largest bucket's own+survivors
        # block and its cumsum output (the two big per-bucket temporaries).
        # The compiled kernel builds no plane and needs less.
        f = self._rule.f
        max_trim_block = max(
            bucket.columns.size * (max(bucket.degree - 2 * f, 0) + 1)
            for bucket in self._layout.buckets
        )
        self._plane_row_elements = self._plane_indices.size + 2 * max_trim_block

    def _build_edge_arrays(self) -> None:
        """Map message slots to the canonical sender-major edge order.

        Schedule masks (and the asynchronous engine's per-round delay draw)
        are indexed by :class:`~repro.simulation.dynamic.ScheduleLayout`'s
        edge order.  ``_csr_edge_pos`` gives every CSR slot its edge
        position; ``_chan_edge_pos``, ``_plane_edge_pos`` and
        ``_plane_recv_cols`` are its views for the faulty channels and the
        plane slots plus each plane slot's receiver column, so a round's
        ``(E,)`` edge mask becomes a flat list of down plane slots and their
        self-substitution sources by pure fancy indexing.
        """
        layout = ScheduleLayout.for_graph(self._graph)
        self._sched_layout = layout
        receivers = np.repeat(self._ff_cols, np.diff(self._csr_indptr))
        nodes = self._nodes
        self._csr_edge_pos = np.array(
            [
                layout.edge_index[(nodes[sender], nodes[receiver])]
                for sender, receiver in zip(
                    self._csr_indices.tolist(), receivers.tolist()
                )
            ],
            dtype=np.int64,
        )
        self._chan_edge_pos = self._csr_edge_pos[self._edge_csr_pos]
        self._plane_edge_pos = self._csr_edge_pos[self._plane_order]
        self._plane_recv_cols = receivers[self._plane_order]

    def _round_activity(self, round_index: int) -> RoundActivity | None:
        """Resolve the schedule's masks for one round (``None`` if static).

        The step and the validity monitor both ask for every round, so the
        last answer is kept (a schedule is a pure function of the round).
        """
        if self._schedule is None:
            return None
        if self._activity_round != round_index:
            activity = resolve_activity(
                self._schedule, round_index, self._sched_layout
            )
            self._activity = None if activity.is_static else activity
            self._activity_round = round_index
        return self._activity

    def _channel_mask(self, activity: RoundActivity | None) -> np.ndarray | None:
        """Return the ``(E_f,)`` up-mask over faulty channels, or ``None``."""
        if activity is None:
            return None
        mask = np.ones(len(self._edge_nodes), dtype=bool)
        if activity.edge_up is not None:
            mask &= activity.edge_up[self._chan_edge_pos]
        if activity.awake is not None:
            mask &= activity.awake[self._edge_src_cols]
        return mask

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Digraph:
        """The communication graph."""
        return self._graph

    @property
    def rule(self) -> UpdateRule:
        """The update rule driving fault-free nodes."""
        return self._rule

    @property
    def faulty(self) -> frozenset[NodeId]:
        """The Byzantine node set ``F``."""
        return self._faulty

    @property
    def fault_free(self) -> frozenset[NodeId]:
        """The fault-free node set ``V − F``."""
        return self._graph.nodes - self._faulty

    @property
    def config(self) -> SimulationConfig:
        """The engine configuration."""
        return self._config

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """Column order of state matrices (nodes sorted by ``repr``)."""
        return self._nodes

    @property
    def schedule(self) -> TopologySchedule | None:
        """The topology schedule, or ``None`` for a static run."""
        return self._schedule

    @property
    def dtype(self) -> np.dtype:
        """State dtype of the engine (``float64`` default, ``float32`` tier)."""
        return self._dtype

    @property
    def max_plane_bytes(self) -> int | None:
        """The plane working-set budget in bytes (``None`` = untiled)."""
        return self._max_plane_bytes

    @property
    def csr_indptr(self) -> np.ndarray:
        """CSR row pointer: fault-free receivers in canonical (repr) order."""
        return self._csr_indptr

    @property
    def csr_indices(self) -> np.ndarray:
        """CSR column indices: sender state columns, repr-sorted per receiver."""
        return self._csr_indices

    @property
    def nnz(self) -> int:
        """Number of fault-free-receiver message slots (plane width)."""
        return int(self._csr_indices.size)

    @property
    def plane_bytes_per_row(self) -> int:
        """Estimated plane working-set bytes for one batch row."""
        return int(self._plane_row_elements) * self._dtype.itemsize

    def plane_tile_rows(self, batch: int) -> int:
        """Return how many batch rows one kernel tile processes.

        Without a budget the whole batch is one tile.  With a budget the
        tile is the largest row count whose estimated plane working set
        (:attr:`plane_bytes_per_row` per row) fits ``max_plane_bytes``,
        floored at one row.
        """
        if batch < 1:
            raise InvalidParameterError(f"batch must be >= 1, got {batch}")
        if self._max_plane_bytes is None:
            return batch
        per_row = max(self.plane_bytes_per_row, 1)
        return max(1, min(batch, self._max_plane_bytes // per_row))

    # ------------------------------------------------------------------
    # Input packing
    # ------------------------------------------------------------------
    def pack_inputs(
        self, inputs: np.ndarray | ValueMap | Sequence[ValueMap]
    ) -> np.ndarray:
        """Return a ``(B, n)`` float matrix in :attr:`nodes` column order.

        Accepts a single value map (``B = 1``), a sequence of value maps
        (one per row), or an already-packed array (validated and copied).
        An empty batch (``B = 0``) and non-finite inputs (NaN, ±inf) are
        rejected with :class:`~repro.exceptions.InvalidParameterError`.
        """
        if isinstance(inputs, np.ndarray):
            matrix = np.array(inputs, dtype=self._dtype)
            if matrix.ndim == 1:
                matrix = matrix[None, :]
            if matrix.ndim != 2 or matrix.shape[1] != len(self._nodes):
                raise InvalidParameterError(
                    f"input matrix must have shape (B, {len(self._nodes)}), "
                    f"got {matrix.shape}"
                )
        else:
            if isinstance(inputs, Mapping):
                inputs = [inputs]
            rows = []
            for value_map in inputs:
                missing = self._graph.nodes - value_map.keys()
                if missing:
                    raise InvalidParameterError(
                        f"inputs missing for nodes {sorted(missing, key=repr)!r}"
                    )
                rows.append([float(value_map[node]) for node in self._nodes])
            matrix = np.array(rows, dtype=self._dtype)
        if matrix.shape[0] == 0:
            raise InvalidParameterError("at least one input assignment is required")
        # min/max propagate NaN and expose ±inf without a (B, n) temporary.
        if not (np.isfinite(matrix.min()) and np.isfinite(matrix.max())):
            row, column = np.argwhere(~np.isfinite(matrix))[0].tolist()
            raise InvalidParameterError(
                f"input for node {self._nodes[column]!r} (row {row}, column "
                f"{column}) is not finite: {matrix[row, column]}"
            )
        return matrix

    def _context(
        self,
        state: np.ndarray,
        round_index: int,
        active_edge_mask: np.ndarray | None = None,
    ) -> BatchAdversaryContext:
        return BatchAdversaryContext(
            graph=self._graph,
            round_index=round_index,
            state=state,
            nodes=self._nodes,
            faulty=self._faulty,
            f=self._rule.f,
            faulty_columns=self._faulty_cols,
            fault_free_columns=self._ff_cols,
            edge_nodes=self._edge_nodes,
            edge_source_columns=self._edge_src_cols,
            edge_target_columns=self._edge_dst_cols,
            active_edge_mask=active_edge_mask,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _adversary_fill(
        self,
        state: np.ndarray,
        round_index: int,
        activity: RoundActivity | None,
    ) -> tuple[BatchAdversaryContext | None, np.ndarray | None]:
        """Return the round's adversary context and ``(B, E_f)`` channel values.

        Both are ``None`` when there are no faulty nodes.  Masking is applied
        downstream of the adversary: the strategy is interrogated for every
        channel regardless of the round's masks (its RNG draws stay
        mask-independent); it only sees them as ``active_edge_mask``.
        """
        if not self._faulty_cols.size:
            return None, None
        context = self._context(
            state, round_index, active_edge_mask=self._channel_mask(activity)
        )
        values = np.asarray(self._adversary.edge_values(context), dtype=self._dtype)
        expected = (state.shape[0], len(self._edge_nodes))
        if values.shape != expected:
            raise SimulationError(
                f"batch adversary {self._adversary.name!r} returned edge "
                f"values of shape {values.shape}; expected {expected}"
            )
        # np.max propagates NaN without a (B, E_f) temporary; ±inf is legal
        # (see refuse_nan_channels).
        if values.size and np.isnan(values.max()):
            row, channel = np.argwhere(np.isnan(values))[0].tolist()
            sender, receiver = self._edge_nodes[channel]
            raise SimulationError(
                f"adversary strategy {self._adversary.name!r} sent NaN on "
                f"channel {sender!r} -> {receiver!r} (row {row}); Byzantine "
                "values must be numbers (±inf is allowed)"
            )
        return context, values

    def _write_nominal(
        self, context: BatchAdversaryContext | None, new_state: np.ndarray
    ) -> None:
        """Write the adversary's nominal values into the faulty columns."""
        if context is None:
            return
        nominal = np.asarray(
            self._adversary.nominal_values(context), dtype=self._dtype
        )
        expected = (new_state.shape[0], self._faulty_cols.shape[0])
        if nominal.shape != expected:
            raise SimulationError(
                f"batch adversary {self._adversary.name!r} returned nominal "
                f"values of shape {nominal.shape}; expected {expected}"
            )
        new_state[:, self._faulty_cols] = nominal

    def step_matrix(self, state: np.ndarray, round_index: int) -> np.ndarray:
        """Execute one iteration on a ``(B, n)`` state matrix.

        Returns the new ``(B, n)`` matrix; faulty columns hold the
        adversary's nominal values, exactly like the scalar engine's
        :meth:`~repro.simulation.engine.SynchronousEngine.step`.  The
        adversary fills every faulty → fault-free channel once for the full
        batch, then the kernel streams the rows in plane tiles.
        """
        state = np.asarray(state, dtype=self._dtype)
        if state.ndim != 2 or state.shape[1] != len(self._nodes):
            raise InvalidParameterError(
                f"state matrix must have shape (B, {len(self._nodes)}), "
                f"got {state.shape}"
            )
        batch = state.shape[0]

        # Masks are resolved once per round (before tiling) exactly like the
        # adversary: every tile sees the same round activity.
        activity = self._round_activity(round_index)
        context, channel_values = self._adversary_fill(state, round_index, activity)

        # Plane slot k reads column slots[k] of the state tile joined with
        # the round's channel values.  Down slots are re-pointed to their
        # receiver after the channel pointers are set, so a down faulty
        # channel is substituted too: a dead slot carries the receiver's own
        # previous value, keeping the trim window width d.
        slots = self._plane_indices if channel_values is None else self._channel_slots
        if activity is not None:
            up = np.ones(slots.shape, dtype=bool)
            if activity.edge_up is not None:
                up &= activity.edge_up[self._plane_edge_pos]
            if activity.awake is not None:
                up &= activity.awake[self._plane_indices]
            if not up.all():
                down = np.flatnonzero(~up)
                slots = slots.copy()
                slots[down] = self._plane_recv_cols[down]

        new_state = np.array(state)
        tile = self.plane_tile_rows(batch)
        for start in range(0, batch, tile):
            rows = slice(start, start + tile)
            source = state[rows]
            if channel_values is not None:
                source = np.concatenate([source, channel_values[rows]], axis=1)
            reduce_plane(
                source,
                slots,
                state[rows],
                new_state[rows],
                self._layout,
                self._rule.f,
                self._mode,
            )

        if activity is not None and activity.awake is not None:
            # Asleep receivers skip their update (state frozen); their state
            # stays visible on out-edges next round.  Only their columns are
            # copied back: O(B · asleep), not O(B · n).
            ff = self._ff_cols
            asleep = ff[~activity.awake[ff]]
            new_state[:, asleep] = state[:, asleep]
        self._write_nominal(context, new_state)
        return new_state

    def run(self, inputs: ValueMap) -> ConsensusOutcome:
        """Run one execution, mirroring the scalar engine's :meth:`run`.

        This is :meth:`run_batch`'s round loop at ``B = 1``, so the outcome
        equals row 0 of a one-row batch; every field, including the
        per-round history, is identical to what
        :class:`~repro.simulation.engine.SynchronousEngine` computes for the
        same configuration (the adversary permitting; see
        :func:`cross_check_engines`).
        """
        return self._run_single(inputs, lambda state: self._step_rows)

    def run_batch(
        self, inputs: np.ndarray | Sequence[ValueMap]
    ) -> BatchOutcome:
        """Run ``B`` independent executions as one batched pass.

        Rows that reach the tolerance are frozen (their state stops
        updating), so each row's final state and round count match what an
        independent run of that row would produce — provided the adversary's
        per-row behaviour does not depend on the other rows.  That holds for
        every native :class:`~repro.adversary.vectorized.BatchStrategy`
        shipped here and for :class:`ScalarStrategyAdapter` in ``factory``
        mode; shared-instance adapters over strategies with mutable state
        (``batch_safe = False``) are rejected at ``B > 1``.
        """
        return self._rounds(self.pack_inputs(inputs), self._step_rows)

    def _step_rows(
        self, state: np.ndarray, round_index: int, active: np.ndarray
    ) -> np.ndarray:
        """The synchronous per-round advance: one :meth:`step_matrix`."""
        return self.step_matrix(state, round_index)

    def _run_single(
        self, inputs: ValueMap, advance_for: Callable[[np.ndarray], Advance]
    ) -> ConsensusOutcome:
        """Run :meth:`_rounds` on one input row and report that row, with
        its per-round states as the history when the config asks for one.
        ``advance_for`` builds the round advance from the packed state."""
        state = self.pack_inputs(inputs)
        if state.shape[0] != 1:
            raise InvalidParameterError(
                f"run() executes a single run but received {state.shape[0]} "
                "input rows; use run_batch() for batched execution"
            )
        trace = None
        if self._config.record_history:
            trace = ExecutionTrace(faulty=self._faulty)
        outcome = self._rounds(state, advance_for(state), trace)
        final = outcome.final_states[0]
        return ConsensusOutcome(
            converged=bool(outcome.converged[0]),
            rounds_executed=int(outcome.rounds_executed[0]),
            final_spread=float(outcome.final_spread[0]),
            initial_spread=float(outcome.initial_spread[0]),
            validity_ok=bool(outcome.validity_ok[0]),
            final_values=dict(zip(self._ff_nodes, final[self._ff_cols].tolist())),
            history=trace.as_records() if trace is not None else tuple(),
        )

    def _rounds(
        self,
        state: np.ndarray,
        advance: Advance,
        trace: ExecutionTrace | None = None,
    ) -> BatchOutcome:
        """The round loop of both batch engines, for single runs and batches.

        ``advance(state, round_index, active)`` executes one round on the
        whole ``(B, n)`` matrix; ``active`` marks the rows still running.
        Rows that reach the tolerance freeze: their state, round count and
        (asynchronous) random streams stop advancing.  A
        :class:`~repro.simulation.metrics.ValidityMonitor` checks every
        round in the engine class's validity form; ``trace`` records row 0.
        """
        config = self._config
        ff = self._ff_cols
        batch = state.shape[0]
        monitor = ValidityMonitor(
            fault_free_block(state, ff),
            self._ff_nodes,
            initial_hull=self._initial_hull_validity,
            track_sleep=self._schedule is not None,
            strict=config.strict_validity,
        )
        initial_spread = monitor.high - monitor.low
        spread = initial_spread.copy()
        rounds_executed = np.zeros(batch, dtype=int)
        converged = (
            initial_spread <= config.tolerance
            if config.stop_on_convergence
            else np.zeros(batch, dtype=bool)
        )
        active = ~converged
        history = [spread] if config.record_history else None
        if trace is not None:
            trace.record_round(0, self._values_dict(state))

        for round_index in range(1, config.max_rounds + 1):
            if config.stop_on_convergence and not active.any():
                break
            new_state = advance(state, round_index, active)
            # Both advances return a fresh matrix, so when every row is
            # active it is the new state as it is.
            state = (
                new_state
                if active.all()
                else np.where(active[:, None], new_state, state)
            )
            rounds_executed = np.where(active, round_index, rounds_executed)
            activity = self._round_activity(round_index)
            awake = None if activity is None else activity.awake
            lows, highs = monitor.observe(
                fault_free_block(state, ff),
                active,
                None if awake is None else awake[ff],
            )
            spread = highs - lows
            if trace is not None:
                trace.record_round(round_index, self._values_dict(state))
            if history is not None:
                history.append(spread)
            if config.stop_on_convergence:
                newly = active & (spread <= config.tolerance)
                converged = converged | newly
                active = active & ~newly

        if not config.stop_on_convergence:
            converged = spread <= config.tolerance
        return BatchOutcome(
            nodes=self._nodes,
            faulty=self._faulty,
            converged=converged,
            rounds_executed=rounds_executed,
            initial_spread=initial_spread,
            final_spread=spread,
            validity_ok=monitor.ok,
            final_states=state,
            spread_history=np.stack(history) if history is not None else None,
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _values_dict(self, state: np.ndarray) -> dict[NodeId, float]:
        return {
            node: float(state[0, column])
            for column, node in enumerate(self._nodes)
        }


def random_input_matrix(
    nodes: Iterable[NodeId],
    batch: int,
    low: float = 0.0,
    high: float = 1.0,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Return a ``(batch, n)`` uniform input matrix.

    Columns follow the vectorized engine's convention: nodes sorted by
    ``repr``.  A fixed integer seed makes the matrix (and therefore a whole
    deterministic batch run) reproducible.
    """
    if batch < 1:
        raise InvalidParameterError(f"batch must be >= 1, got {batch}")
    if high < low:
        raise InvalidParameterError(f"high ({high}) must be >= low ({low})")
    generator = (
        rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    )
    ordered = sorted(nodes, key=repr)
    return generator.uniform(low, high, size=(batch, len(ordered)))


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of a round-for-round scalar-vs-vectorized cross-check.

    ``identical`` is ``True`` when every node's state matched exactly
    (``==`` on floats, so ``0.0`` and ``-0.0`` compare equal) at every
    checked round.  On divergence, ``first_divergence_round`` and
    ``max_abs_difference`` locate and size the disagreement.
    """

    rounds_checked: int
    identical: bool
    max_abs_difference: float
    first_divergence_round: int | None = None


def _history_report(
    reference: Sequence[RoundRecord], candidate: Sequence[RoundRecord]
) -> EquivalenceReport:
    """Compare two per-round histories node by node.

    The comparison is exact (float ``==``, NaN treated as infinite
    divergence).  ``rounds_checked`` counts executed rounds (the histories
    include the round-0 record).  A length mismatch forces
    ``identical=False`` but never hides an earlier value divergence — the
    earliest diverging round and the real magnitude win when both occur.
    """
    rounds_checked = max(0, min(len(reference), len(candidate)) - 1)
    identical = True
    max_diff = 0.0
    first_divergence: int | None = None
    for expected, observed in zip(reference, candidate):
        for node in sorted(expected.values, key=repr):
            value, other = expected.values[node], observed.values[node]
            if value == other:
                continue
            identical = False
            if first_divergence is None:
                first_divergence = expected.round_index
            difference = abs(value - other)
            if np.isnan(difference):  # pragma: no cover - defensive
                difference = float("inf")
            max_diff = max(max_diff, difference)
    if len(reference) != len(candidate):
        identical = False
        if first_divergence is None:
            first_divergence = rounds_checked
            max_diff = float("inf")
    return EquivalenceReport(
        rounds_checked=rounds_checked,
        identical=identical,
        max_abs_difference=max_diff,
        first_divergence_round=first_divergence,
    )


def cross_check_engines(
    graph: Digraph,
    rule: UpdateRule,
    inputs: ValueMap,
    faulty: frozenset[NodeId] | set[NodeId] = frozenset(),
    adversary: ByzantineStrategy | None = None,
    config: SimulationConfig | None = None,
    rounds: int | None = None,
    schedule: TopologySchedule | None = None,
    max_delay: int | None = None,
    update_probability: float = 1.0,
    seed: int = 0,
) -> EquivalenceReport:
    """Run one execution on a scalar reference engine and on a batch engine,
    and compare every node's state at every round.

    Both engines run at most ``rounds`` rounds (default
    ``config.max_rounds``).  Without ``max_delay`` the pair is
    :class:`~repro.simulation.engine.SynchronousEngine` and
    :class:`VectorizedEngine`, run for all of them without stopping at
    convergence.  With ``max_delay`` it is the partially asynchronous pair
    (:class:`~repro.simulation.async_engine.PartiallyAsynchronousEngine` and
    :class:`~repro.simulation.vectorized_async.VectorizedAsyncEngine`), each
    driven by its own ``default_rng(seed)``; under the shared RNG-stream
    contract the two runs, which stop at convergence as ``config`` says, must
    be bit-identical at every recorded round.  ``update_probability`` and
    ``seed`` belong to the asynchronous pair: passing either without
    ``max_delay`` raises :class:`~repro.exceptions.InvalidParameterError`.

    Each engine gets a deep copy of the scalar ``adversary`` (so stateful or
    RNG-backed strategies start from identical state and consume draws
    independently) and of ``schedule`` (schedules are pure functions of the
    round, so the copies see identical masks).  Intended for small
    instances — it pays the scalar engine's cost.
    """
    if adversary is not None and not isinstance(adversary, ByzantineStrategy):
        raise InvalidParameterError(
            "cross_check_engines needs a scalar ByzantineStrategy (or None); "
            "a BatchStrategy has no scalar counterpart to compare against"
        )
    if max_delay is None and (update_probability != 1.0 or seed != 0):
        raise InvalidParameterError(
            "update_probability and seed configure the asynchronous pair; "
            "pass max_delay to cross-check the partially asynchronous engines"
        )
    chosen = config if config is not None else SimulationConfig()
    chosen = replace(
        chosen,
        max_rounds=rounds if rounds is not None else chosen.max_rounds,
        record_history=True,
    )
    if max_delay is None:
        chosen = replace(
            chosen, strict_validity=False, stop_on_convergence=False
        )
        reference = SynchronousEngine(
            graph,
            rule,
            faulty,
            copy.deepcopy(adversary),
            chosen,
            schedule=copy.deepcopy(schedule),
        ).run(inputs)
        candidate = VectorizedEngine(
            graph,
            rule,
            faulty,
            copy.deepcopy(adversary),
            chosen,
            schedule=copy.deepcopy(schedule),
        ).run(inputs)
    else:
        from repro.simulation.async_engine import PartiallyAsynchronousEngine
        from repro.simulation.vectorized_async import VectorizedAsyncEngine

        reference = PartiallyAsynchronousEngine(
            graph,
            rule,
            faulty,
            copy.deepcopy(adversary),
            chosen,
            max_delay=max_delay,
            update_probability=update_probability,
            rng=np.random.default_rng(seed),
            schedule=copy.deepcopy(schedule),
        ).run(inputs)
        candidate = VectorizedAsyncEngine(
            graph,
            rule,
            faulty,
            copy.deepcopy(adversary),
            chosen,
            max_delay=max_delay,
            update_probability=update_probability,
            schedule=copy.deepcopy(schedule),
        ).run(inputs, rng=np.random.default_rng(seed))
    return _history_report(reference.history, candidate.history)


def run_vectorized(
    graph: Digraph,
    rule: UpdateRule,
    inputs: ValueMap,
    faulty: frozenset[NodeId] | set[NodeId] = frozenset(),
    adversary: BatchStrategy | ByzantineStrategy | None = None,
    max_rounds: int = 500,
    tolerance: float = 1e-7,
    record_history: bool = True,
    strict_validity: bool = False,
    stop_on_convergence: bool = True,
    schedule: TopologySchedule | None = None,
    dtype: np.dtype | type = np.float64,
    max_plane_bytes: int | None = None,
) -> ConsensusOutcome:
    """Functional wrapper around :class:`VectorizedEngine`, mirroring
    :func:`~repro.simulation.engine.run_synchronous`.

    To check that an instance runs bit-identically on the scalar engine,
    call :func:`cross_check_engines` with the same graph, rule, inputs,
    faulty set and adversary.
    """
    config = SimulationConfig(
        max_rounds=max_rounds,
        tolerance=tolerance,
        record_history=record_history,
        strict_validity=strict_validity,
        stop_on_convergence=stop_on_convergence,
    )
    engine = VectorizedEngine(
        graph=graph,
        rule=rule,
        faulty=faulty,
        adversary=adversary,
        config=config,
        schedule=schedule,
        dtype=dtype,
        max_plane_bytes=max_plane_bytes,
    )
    return engine.run(inputs)
