"""Batched Byzantine adversary interface for the vectorized engine.

The scalar engines interrogate a :class:`~repro.adversary.base.ByzantineStrategy`
one faulty node at a time through per-node Python dicts.  The vectorized
engine (:mod:`repro.simulation.vectorized`) instead works on a ``(B, n)``
state matrix covering ``B`` independent executions at once, so its adversary
hook is batched as well: once per round the engine asks the strategy for the
value on **every** faulty→fault-free channel of **every** batched execution
in a single call returning a ``(B, E_f)`` array.

Two layers make the strategy zoo usable against the fast engines:

* :class:`ScalarStrategyAdapter` wraps any scalar
  :class:`~repro.adversary.base.ByzantineStrategy` (including the stateful and
  randomized ones in :mod:`repro.adversary.strategies`) and replays it per
  batch row.  With ``B = 1`` the adapter reproduces the scalar engine's calls
  exactly — including call order and RNG consumption — which is what the
  round-for-round equivalence mode relies on.
* A **batch-native strategy library** re-implements every scalar strategy as
  array arithmetic over the ``(B, E_f)`` channel matrix, bit-for-bit identical
  to the scalar versions while running whole batches per round:
  :class:`BatchExtremePushStrategy`, :class:`BatchStaticValueStrategy`,
  :class:`BatchSplitBrainStrategy` (witness-driven per-edge routing
  precomputed as column masks), :class:`BatchFrozenValueStrategy` (per-row
  frozen state), :class:`BatchRandomNoiseStrategy` (per-row
  ``SeedSequence.spawn`` streams following the RNG-stream contract) and
  :class:`BatchBroadcastConsistentWrapper` (collapses any batch strategy's
  per-edge matrix to per-sender columns).

Every native strategy is proven bit-exact against its adapter-wrapped scalar
counterpart at ``B = 1`` and row-for-row reproducible at larger ``B`` by the
parity harness in ``tests/test_adversary_batch.py``, on both the synchronous
and the partially asynchronous vectorized engine.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.adversary.base import AdversaryContext, ByzantineStrategy, faulty_messages
from repro.adversary.strategies import split_brain_recommended_inputs
from repro.exceptions import InvalidParameterError, SimulationError
from repro.graphs.digraph import Digraph
from repro.types import NodeId, PartitionWitness

if TYPE_CHECKING:
    from repro.simulation.vectorized import PlaneLayout


def fault_free_block(state: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Return ``state[:, columns]``, a ``(B, m)`` block of a ``(B, n)`` state.

    Fancy indexing along the last axis builds the block F-ordered, so each
    per-row reduction over it strides across rows: at ``(8, 10^5)``
    ``max(axis=1)`` takes 1.8 ms against 0.18 ms over a C-ordered block on
    a 2-vCPU VM.  ``np.take`` builds it C-ordered, but costs more per call
    on short rows, so it is used only when rows are wide (``m >= 2B``);
    both give equal values.
    """
    if columns.size >= 2 * state.shape[0]:
        return np.take(state, columns, axis=1)
    return state[:, columns]


@dataclass(frozen=True)
class ChannelPlane:
    """The batch engine's message plane, as a strategy may replay it.

    A round reads every fault-free receiver's messages from one flat
    bucket-major plane (``layout``, built by
    :func:`repro.simulation.vectorized.bucket_plane`).  For a source that
    joins the round's ``E_f`` channel values after the ``n`` state columns,
    plane slot ``k`` reads source column ``slots[k]``, and channel ``j`` is
    read by plane slot ``channel_slots[j]``.  ``mode`` is the engine's
    update rule in :func:`~repro.simulation.vectorized.reduce_plane`'s
    terms, ``"mean"`` or ``"midpoint"``.  The arrays are the engine's own:
    treat them as read-only.
    """

    layout: PlaneLayout
    slots: np.ndarray
    channel_slots: np.ndarray
    mode: str


@dataclass(frozen=True)
class BatchAdversaryContext:
    """Complete system knowledge handed to a batch strategy each round.

    Mirrors :class:`~repro.adversary.base.AdversaryContext` but exposes the
    state of all ``B`` executions as arrays instead of one execution as dicts.

    Attributes
    ----------
    graph:
        The communication graph (shared by every execution in the batch).
    round_index:
        The iteration ``t`` about to be executed.
    state:
        ``(B, n)`` array: ``state[b, c]`` is node ``nodes[c]``'s value
        ``v[t − 1]`` in execution ``b``.  Treat it as read-only.
    nodes:
        Column order of ``state`` (nodes sorted by ``repr``).
    faulty:
        The Byzantine node set ``F``.
    f:
        The fault budget the fault-free nodes defend against.
    faulty_columns:
        Columns of ``state`` occupied by faulty nodes.
    fault_free_columns:
        Columns of ``state`` occupied by fault-free nodes.
    edge_nodes:
        The faulty→fault-free channels ``(sender, receiver)`` the strategy
        must fill, in the order the returned value matrix is interpreted.
    edge_source_columns / edge_target_columns:
        The same channels as column indices into ``state``.
    plane:
        The engine's message plane (:class:`ChannelPlane`), for strategies
        that simulate a round before choosing their values.
    active_edge_mask:
        ``(E_f,)`` bool, or ``None``.  Populated by schedule-aware engines
        (:mod:`repro.simulation.dynamic`): ``False`` marks channels that are
        masked down this round (the receiver substitutes its own value), so
        an adaptive strategy can avoid wasting pushes on dead channels.
        ``None`` means every channel is live.  Strategies must still return
        a value for **every** channel — the engine applies the masking.
    """

    graph: Digraph
    round_index: int
    state: np.ndarray
    nodes: tuple[NodeId, ...]
    faulty: frozenset[NodeId]
    f: int
    faulty_columns: np.ndarray
    fault_free_columns: np.ndarray
    edge_nodes: tuple[tuple[NodeId, NodeId], ...]
    edge_source_columns: np.ndarray
    edge_target_columns: np.ndarray
    plane: ChannelPlane
    active_edge_mask: np.ndarray | None = None

    @property
    def batch_size(self) -> int:
        """Number of independent executions ``B`` in the batch."""
        return int(self.state.shape[0])

    @property
    def fault_free_states(self) -> np.ndarray:
        """``(B, n − |F|)`` copy of the fault-free nodes' states, gathered
        on every access (:func:`fault_free_block`)."""
        return fault_free_block(self.state, self.fault_free_columns)

    @property
    def fault_free_extremes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(µ[t − 1], U[t − 1])`` per execution, two ``(B,)`` arrays from
        one gather of :attr:`fault_free_states`."""
        states = self.fault_free_states
        return states.min(axis=1), states.max(axis=1)

    @property
    def fault_free_max(self) -> np.ndarray:
        """``U[t − 1]`` per execution: shape ``(B,)``."""
        return self.fault_free_states.max(axis=1)

    @property
    def fault_free_min(self) -> np.ndarray:
        """``µ[t − 1]`` per execution: shape ``(B,)``."""
        return self.fault_free_states.min(axis=1)

    def values_for_row(self, row: int) -> dict[NodeId, float]:
        """Return execution ``row``'s state as a scalar-style value map."""
        return {
            node: float(self.state[row, column])
            for column, node in enumerate(self.nodes)
        }


class BatchStrategy(ABC):
    """Behaviour of the faulty nodes across a whole batch of executions.

    One instance controls all faulty nodes in all ``B`` executions; the
    engine calls :meth:`edge_values` once per round.
    """

    #: Human-readable name used in reports and benchmark tables.
    name: str = "batch-strategy"

    @abstractmethod
    def edge_values(self, context: BatchAdversaryContext) -> np.ndarray:
        """Return a ``(B, E_f)`` array of channel values.

        Column ``e`` holds, for every execution, the value the faulty sender
        of ``context.edge_nodes[e]`` places on that channel this round.
        Different channels out of the same faulty node may carry different
        values — the point-to-point equivocation power of the paper's model.
        """

    def nominal_values(self, context: BatchAdversaryContext) -> np.ndarray:
        """Return a ``(B, |F|)`` array of the faulty nodes' nominal states.

        Fault-free nodes never rely on these; they only label trace entries.
        The default keeps each faulty node's previous recorded state, matching
        :meth:`repro.adversary.base.ByzantineStrategy.nominal_value`.
        """
        return np.array(context.state[:, context.faulty_columns])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class BatchPassiveStrategy(BatchStrategy):
    """Faulty nodes that follow the protocol: each channel carries the
    sender's previous state, identically in every execution."""

    name = "batch-passive"

    def edge_values(self, context: BatchAdversaryContext) -> np.ndarray:
        return np.array(context.state[:, context.edge_source_columns])


class BatchExtremePushStrategy(BatchStrategy):
    """Vectorized :class:`~repro.adversary.strategies.ExtremePushStrategy`.

    Per execution: channels into receivers whose state is at or above the
    fault-free midpoint carry ``U[t−1] + delta``; the rest carry
    ``µ[t−1] − delta``.  The arithmetic matches the scalar strategy
    bit-for-bit, so a ``B = 1`` batch reproduces the scalar engine's
    execution exactly.
    """

    name = "batch-extreme-push"

    def __init__(self, delta: float = 1.0) -> None:
        if delta < 0:
            raise InvalidParameterError(f"delta must be >= 0, got {delta}")
        self._delta = float(delta)

    @property
    def delta(self) -> float:
        """How far beyond the fault-free extremes the adversary pushes."""
        return self._delta

    def edge_values(self, context: BatchAdversaryContext) -> np.ndarray:
        lower, upper = context.fault_free_extremes
        midpoint = (upper + lower) / 2.0
        high_value = upper + self._delta
        low_value = lower - self._delta
        receiver_state = context.state[:, context.edge_target_columns]
        return np.where(
            receiver_state >= midpoint[:, None],
            high_value[:, None],
            low_value[:, None],
        )


class _ChannelLayoutStrategy(BatchStrategy):
    """Base for native strategies that precompute per-channel index arrays.

    The engine hands the same ``edge_nodes`` tuple (and graph) to every
    round's context, so whatever a strategy derives from the channel order —
    column masks, draw positions, sender ranks — is computed once on first
    use and reused for the whole run.  Driving one instance against a
    different engine (different channel order or graph) transparently
    rebuilds the layout.  Under a dynamic topology schedule the channel
    order stays static while ``context.active_edge_mask`` varies per round,
    so a layout must not read the mask.
    """

    def __init__(self) -> None:
        self._layout_graph: Digraph | None = None
        self._layout_key: tuple[tuple[NodeId, NodeId], ...] | None = None
        self._layout: object = None

    def _build_layout(self, context: BatchAdversaryContext) -> object:
        """Return the strategy-specific precomputation for this context."""
        raise NotImplementedError

    def _layout_for(self, context: BatchAdversaryContext) -> object:
        if self._layout_graph is not context.graph or (
            self._layout_key is not context.edge_nodes
            and self._layout_key != context.edge_nodes
        ):
            self._layout = self._build_layout(context)
            self._layout_graph = context.graph
            self._layout_key = context.edge_nodes
        return self._layout


class BatchStaticValueStrategy(BatchStrategy):
    """Vectorized :class:`~repro.adversary.strategies.StaticValueStrategy`:
    every channel of every execution carries the same constant."""

    name = "batch-static-value"

    def __init__(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        """The constant value sent on every channel."""
        return self._value

    def edge_values(self, context: BatchAdversaryContext) -> np.ndarray:
        return np.full(
            (context.batch_size, len(context.edge_nodes)), self._value
        )

    def nominal_values(self, context: BatchAdversaryContext) -> np.ndarray:
        return np.full(
            (context.batch_size, context.faulty_columns.shape[0]), self._value
        )


class BatchSplitBrainStrategy(_ChannelLayoutStrategy):
    """Vectorized :class:`~repro.adversary.strategies.SplitBrainStrategy`.

    The witness fixes what each channel carries for the whole execution:
    ``low − margin`` into ``L``, ``high + margin`` into ``R``, the midpoint
    elsewhere.  The per-edge routing is therefore precomputed once as a
    length-``E_f`` column vector (receivers classified against the witness
    sets) and broadcast over the batch each round — the round cost is
    independent of ``|F|`` and of the witness size.
    """

    name = "batch-split-brain"

    def __init__(
        self,
        witness: PartitionWitness,
        low_value: float,
        high_value: float,
        margin: float = 1.0,
    ) -> None:
        super().__init__()
        if high_value <= low_value:
            raise InvalidParameterError(
                f"high_value ({high_value}) must exceed low_value ({low_value})"
            )
        if margin <= 0:
            raise InvalidParameterError(f"margin must be > 0, got {margin}")
        self._witness = witness
        self._low = float(low_value)
        self._high = float(high_value)
        self._margin = float(margin)

    @property
    def witness(self) -> PartitionWitness:
        """The violating partition the attack is built around."""
        return self._witness

    def recommended_inputs(self) -> dict[NodeId, float]:
        """Return the necessity-proof input assignment (as the scalar class)."""
        return split_brain_recommended_inputs(self._witness, self._low, self._high)

    def _build_layout(self, context: BatchAdversaryContext) -> np.ndarray:
        midpoint = (self._low + self._high) / 2.0
        below = self._low - self._margin
        above = self._high + self._margin
        row = np.empty(len(context.edge_nodes), dtype=float)
        for position, (_sender, receiver) in enumerate(context.edge_nodes):
            if receiver in self._witness.left:
                row[position] = below
            elif receiver in self._witness.right:
                row[position] = above
            else:
                row[position] = midpoint
        return row

    def edge_values(self, context: BatchAdversaryContext) -> np.ndarray:
        row = self._layout_for(context)
        # Read-only broadcast view: the engines only gather from the channel
        # matrix, so no per-round (B, E_f) materialisation is needed.
        return np.broadcast_to(row, (context.batch_size, row.shape[0]))

    def nominal_values(self, context: BatchAdversaryContext) -> np.ndarray:
        midpoint = (self._low + self._high) / 2.0
        return np.full(
            (context.batch_size, context.faulty_columns.shape[0]), midpoint
        )


class BatchFrozenValueStrategy(BatchStrategy):
    """Vectorized :class:`~repro.adversary.strategies.FrozenValueStrategy`.

    On first access (from either entry point — the scalar class's
    call-order bug is absent by construction) the faulty columns of the
    state matrix are snapshotted per row; every later round sends and
    reports those frozen values.  The per-row snapshot is what finally makes
    the frozen behaviour batch-safe: each execution freezes at *its own*
    inputs, where sharing one scalar instance across rows would freeze every
    row at the first row's state.
    """

    name = "batch-frozen-value"

    def __init__(self) -> None:
        self._frozen: np.ndarray | None = None

    def _freeze(self, context: BatchAdversaryContext) -> np.ndarray:
        if self._frozen is None:
            self._frozen = np.array(context.state[:, context.faulty_columns])
        if self._frozen.shape != (
            context.batch_size,
            context.faulty_columns.shape[0],
        ):
            raise InvalidParameterError(
                f"BatchFrozenValueStrategy froze a "
                f"{self._frozen.shape} state matrix but is now driven with "
                f"batch {context.batch_size} x {context.faulty_columns.shape[0]} "
                "faulty nodes; use a fresh instance per run"
            )
        return self._frozen

    def edge_values(self, context: BatchAdversaryContext) -> np.ndarray:
        frozen = self._freeze(context)
        # Channel e carries its sender's frozen value: map each channel's
        # state column to the sender's position among the faulty columns.
        sender_positions = np.searchsorted(
            context.faulty_columns, context.edge_source_columns
        )
        return frozen[:, sender_positions]

    def nominal_values(self, context: BatchAdversaryContext) -> np.ndarray:
        return np.array(self._freeze(context))


class BatchRandomNoiseStrategy(_ChannelLayoutStrategy):
    """Vectorized :class:`~repro.adversary.strategies.RandomNoiseStrategy`.

    Every batch row owns an independent random stream derived via
    ``SeedSequence.spawn`` (:func:`repro.simulation.vectorized_async.spawn_row_generators`,
    the RNG-stream contract), so row ``b`` of any batch width draws exactly
    what a ``B = 1`` run handed child stream ``b`` would draw.  Within a row
    the draws replay the scalar strategy verbatim: one
    ``uniform(low, high, size=out_degree)`` call per faulty sender in
    canonical (repr-sorted) order, covering **all** out-neighbours —
    including faulty receivers, whose draws are consumed and discarded purely
    to keep the stream aligned with the scalar implementation.

    Parameters
    ----------
    low, high:
        Noise bounds, as for the scalar strategy.
    rng:
        Root seed for the per-row streams: an ``int`` /
        :class:`numpy.random.SeedSequence` / ``None`` (spawned per row on
        first use), a :class:`numpy.random.Generator` (its ``spawn`` supplies
        the children), or an explicit sequence of per-row generators for
        callers needing full control (e.g. the ``B = 1`` parity harness,
        which hands the identical stream to the scalar strategy).
    """

    name = "batch-random-noise"

    def __init__(
        self,
        low: float,
        high: float,
        rng: object = None,
    ) -> None:
        super().__init__()
        if high < low:
            raise InvalidParameterError(
                f"high ({high}) must be >= low ({low}) for random noise"
            )
        self._low = float(low)
        self._high = float(high)
        self._rng = rng
        self._generators: list[np.random.Generator] | None = None

    def _generators_for(self, batch: int) -> list[np.random.Generator]:
        from repro.simulation.vectorized_async import spawn_row_generators

        if self._generators is None:
            self._generators = spawn_row_generators(self._rng, batch)
        if len(self._generators) != batch:
            raise InvalidParameterError(
                f"BatchRandomNoiseStrategy spawned {len(self._generators)} "
                f"row streams but is now driven with batch {batch}; use a "
                "fresh instance per run"
            )
        return self._generators

    def _build_layout(
        self, context: BatchAdversaryContext
    ) -> tuple[list[tuple[int, int]], np.ndarray]:
        """Return ``(per-sender draw spans, channel -> draw position)``.

        The draw vector of one row concatenates, per faulty sender in
        repr-sorted order, one uniform block over that sender's repr-sorted
        out-neighbours; ``positions[e]`` locates channel ``e``'s value in it.
        Both come from the faulty senders' out-edges as sorted ``sender
        column · n + target column`` keys (``context.nodes`` is the ``repr``
        order), read from the graph's edge arrays, so an array-built graph
        never builds its neighbour sets.
        """
        n = len(context.nodes)
        column_of, sources, targets = context.graph.edge_arrays_in(context.nodes)
        senders = column_of[sources]
        is_faulty = np.zeros(n, dtype=bool)
        is_faulty[context.faulty_columns] = True
        out_of_faulty = is_faulty[senders]
        keys = np.sort(
            senders[out_of_faulty] * n + column_of[targets[out_of_faulty]]
        )
        faulty_columns = np.flatnonzero(is_faulty)
        starts = np.searchsorted(keys, faulty_columns * n)
        ends = np.searchsorted(keys, (faulty_columns + 1) * n)
        spans = list(zip(starts.tolist(), (ends - starts).tolist()))
        positions = np.searchsorted(
            keys, context.edge_source_columns * n + context.edge_target_columns
        )
        return spans, positions

    def edge_values(self, context: BatchAdversaryContext) -> np.ndarray:
        spans, positions = self._layout_for(context)
        generators = self._generators_for(context.batch_size)
        total = sum(count for _offset, count in spans)
        draws = np.empty((context.batch_size, total), dtype=float)
        for row, generator in enumerate(generators):
            for offset, count in spans:
                draws[row, offset : offset + count] = generator.uniform(
                    self._low, self._high, size=count
                )
        return draws[:, positions]


class BatchBroadcastConsistentWrapper(_ChannelLayoutStrategy):
    """Vectorized :class:`~repro.adversary.strategies.BroadcastConsistentStrategy`.

    Collapses any inner batch strategy's per-edge channel matrix to
    per-sender columns: every channel out of a faulty sender carries the
    value the inner strategy destined for that sender's first channel in
    canonical order — the edge to its ``repr``-smallest fault-free
    out-neighbour, matching the scalar wrapper's canonicalisation.  Nominal
    values pass through unchanged.
    """

    def __init__(self, inner: BatchStrategy) -> None:
        super().__init__()
        self._inner = inner
        self.name = f"broadcast({inner.name})"

    @property
    def inner(self) -> BatchStrategy:
        """The wrapped per-edge strategy."""
        return self._inner

    def _build_layout(self, context: BatchAdversaryContext) -> np.ndarray:
        first_channel: dict[NodeId, int] = {}
        source = np.zeros(len(context.edge_nodes), dtype=int)
        for position, (sender, _receiver) in enumerate(context.edge_nodes):
            source[position] = first_channel.setdefault(sender, position)
        return source

    def edge_values(self, context: BatchAdversaryContext) -> np.ndarray:
        source = self._layout_for(context)
        inner_values = np.asarray(
            self._inner.edge_values(context), dtype=float
        )
        expected = (context.batch_size, len(context.edge_nodes))
        if inner_values.shape != expected:
            raise SimulationError(
                f"inner batch strategy {self._inner.name!r} returned edge "
                f"values of shape {inner_values.shape}; expected {expected}"
            )
        return inner_values[:, source]

    def nominal_values(self, context: BatchAdversaryContext) -> np.ndarray:
        return self._inner.nominal_values(context)


class BatchAdaptiveStrategy(BatchStrategy):
    """Adaptive worst-case adversary: observe the batch state, pick the push
    that keeps the fault-free spread widest.

    Three candidate fills are considered each round, all built from the
    fault-free extremes ``U[t−1]`` / ``µ[t−1]``:

    * ``split`` — the :class:`BatchExtremePushStrategy` arithmetic
      (``U + delta`` into receivers at or above the fault-free midpoint,
      ``µ − delta`` into the rest);
    * ``high`` — ``U + delta`` on every channel;
    * ``low`` — ``µ − delta`` on every channel.

    ``mode="greedy"`` picks between all-high and all-low by majority: if at
    least as many fault-free states sit at or above the midpoint as below,
    push high (drag the minority up is hopeless, so reinforce the crowded
    side), else push low.  No probe round is simulated.

    ``mode="lookahead"`` (default) simulates one full trimmed round per
    candidate — the 1-lookahead — and keeps, per batch row, the candidate
    whose post-round fault-free spread is largest (ties break toward
    ``split``, then ``high``).  The probe runs the engine's own plane
    (``context.plane``) through the engines' kernel
    (:func:`~repro.simulation.vectorized.reduce_plane`: sort, trim
    ``[f : d − f]``, own-first sequential mean or midpoint, as the engine's
    rule does) and honours ``context.active_edge_mask`` on faulty channels
    (a down channel self-substitutes, exactly as the engine will).
    Fault-free-sender edges are assumed up and all receivers awake in the
    probe — a documented approximation: under heavy churn the lookahead
    scores are estimates, but every returned fill is still applied by the
    engine with the true masks.

    The strategy draws no randomness: its choice is a pure function of the
    round's state, so runs are deterministic and untiled and tiled runs
    agree bit-for-bit (there is no scalar counterpart).

    Parameters
    ----------
    mode:
        ``"lookahead"`` (default) or ``"greedy"``.
    delta:
        How far beyond the fault-free extremes to push (``>= 0``).
    """

    def __init__(self, mode: str = "lookahead", delta: float = 1.0) -> None:
        if mode not in ("greedy", "lookahead"):
            raise InvalidParameterError(
                f"mode must be 'greedy' or 'lookahead', got {mode!r}"
            )
        if delta < 0:
            raise InvalidParameterError(f"delta must be >= 0, got {delta}")
        self._mode = mode
        self._delta = float(delta)
        self.name = f"batch-adaptive({mode})"

    @property
    def mode(self) -> str:
        """The decision mode: ``"greedy"`` or ``"lookahead"``."""
        return self._mode

    @property
    def delta(self) -> float:
        """How far beyond the fault-free extremes the adversary pushes."""
        return self._delta

    def _probe(
        self, context: BatchAdversaryContext, fill: np.ndarray, slots: np.ndarray
    ) -> np.ndarray:
        """Simulate one trimmed round under ``fill``, reading the plane
        through ``slots``; return the ``(B,)`` post-round fault-free
        spread."""
        from repro.simulation.vectorized import reduce_plane

        state = context.state
        source = np.concatenate([state, fill], axis=1, dtype=state.dtype)
        new_state = np.empty_like(state)
        plane = context.plane
        reduce_plane(
            source, slots, state, new_state, plane.layout, context.f, plane.mode
        )
        values = fault_free_block(new_state, context.fault_free_columns)
        return values.max(axis=1) - values.min(axis=1)

    def edge_values(self, context: BatchAdversaryContext) -> np.ndarray:
        batch = context.batch_size
        channels = len(context.edge_nodes)
        if channels == 0:
            return np.zeros((batch, 0))
        if self._mode == "greedy":
            # The majority vote reads the block too, so it is gathered once.
            fault_free = context.fault_free_states
            lower, upper = fault_free.min(axis=1), fault_free.max(axis=1)
        else:
            lower, upper = context.fault_free_extremes
        midpoint = (upper + lower) / 2.0
        high_value = upper + self._delta
        low_value = lower - self._delta
        high_fill = np.broadcast_to(high_value[:, None], (batch, channels))
        low_fill = np.broadcast_to(low_value[:, None], (batch, channels))

        if self._mode == "greedy":
            above = (fault_free >= midpoint[:, None]).sum(axis=1)
            below = fault_free.shape[1] - above
            return np.where((above >= below)[:, None], high_fill, low_fill)

        receiver_state = context.state[:, context.edge_target_columns]
        split_fill = np.where(
            receiver_state >= midpoint[:, None],
            high_value[:, None],
            low_value[:, None],
        )
        # A down channel's plane slot reads its receiver's own value.
        slots = context.plane.slots
        mask = context.active_edge_mask
        if mask is not None and not mask.all():
            down = ~mask
            slots = slots.copy()
            slots[context.plane.channel_slots[down]] = context.edge_target_columns[down]
        spreads = np.stack(
            [
                self._probe(context, fill, slots)
                for fill in (split_fill, high_fill, low_fill)
            ]
        )
        best = np.argmax(spreads, axis=0)  # ties break toward split, then high
        out = split_fill.copy()
        rows_high = best == 1
        if rows_high.any():
            out[rows_high] = high_fill[rows_high]
        rows_low = best == 2
        if rows_low.any():
            out[rows_low] = low_fill[rows_low]
        return out


class ScalarStrategyAdapter(BatchStrategy):
    """Drive any scalar :class:`ByzantineStrategy` against the batch engine.

    Parameters
    ----------
    strategy:
        A single strategy instance shared by every batch row.  Correct for
        stateless strategies and for ``B = 1`` (the equivalence mode); a
        strategy declaring ``batch_safe = False`` (e.g.
        ``FrozenValueStrategy``, whose per-node state would leak across
        rows) is rejected for ``B > 1``.
    factory:
        Alternatively, a zero-argument callable producing a fresh strategy
        per batch row, which makes stateful strategies safe at any ``B``.
        Exactly one of ``strategy`` / ``factory`` must be given.

    Notes
    -----
    Per row the adapter builds a scalar
    :class:`~repro.adversary.base.AdversaryContext` and interrogates the
    strategy in the same order as
    :meth:`repro.simulation.engine.SynchronousEngine.step` — all
    ``outgoing_values`` calls (faulty senders in canonical repr-sorted
    order) before any ``nominal_value`` call — so RNG-backed strategies
    consume draws identically and ``B = 1`` runs are bit-exact with the
    scalar engine.
    """

    def __init__(
        self,
        strategy: ByzantineStrategy | None = None,
        factory: Callable[[], ByzantineStrategy] | None = None,
    ) -> None:
        if (strategy is None) == (factory is None):
            raise InvalidParameterError(
                "exactly one of 'strategy' and 'factory' must be provided"
            )
        self._shared = strategy
        self._factory = factory
        self._per_row: dict[int, ByzantineStrategy] = {}
        inner_name = strategy.name if strategy is not None else "per-row"
        self.name = f"scalar-adapter({inner_name})"

    def _strategy_for_row(self, row: int) -> ByzantineStrategy:
        if self._shared is not None:
            return self._shared
        if row not in self._per_row:
            assert self._factory is not None
            self._per_row[row] = self._factory()
        return self._per_row[row]

    def _check_batch_safety(self, batch: int) -> None:
        """Refuse to leak one execution's strategy state into another.

        A shared instance whose strategy declares ``batch_safe = False``
        (e.g. ``FrozenValueStrategy``) would make rows 1..B−1 simulate
        against row 0's state; demand the per-row ``factory`` mode instead.
        """
        if batch > 1 and self._shared is not None and not self._shared.batch_safe:
            raise InvalidParameterError(
                f"strategy {self._shared.name!r} keeps per-execution state and "
                f"cannot be shared across a batch of {batch} executions; pass "
                "ScalarStrategyAdapter(factory=...) to give each batch row its "
                "own instance"
            )

    def _scalar_context(
        self, context: BatchAdversaryContext, row: int
    ) -> AdversaryContext:
        return AdversaryContext(
            graph=context.graph,
            round_index=context.round_index,
            values=context.values_for_row(row),
            faulty=context.faulty,
            f=context.f,
        )

    def edge_values(self, context: BatchAdversaryContext) -> np.ndarray:
        batch = context.batch_size
        self._check_batch_safety(batch)
        out = np.empty((batch, len(context.edge_nodes)), dtype=float)
        for row in range(batch):
            # The scalar engines' interrogation (relevant for RNG-consuming
            # strategies) and checks.
            messages = faulty_messages(
                self._strategy_for_row(row), self._scalar_context(context, row)
            )
            for index, (sender, target) in enumerate(context.edge_nodes):
                out[row, index] = messages[sender][target]
        return out

    def nominal_values(self, context: BatchAdversaryContext) -> np.ndarray:
        batch = context.batch_size
        self._check_batch_safety(batch)
        faulty_ordered = [context.nodes[c] for c in context.faulty_columns]
        out = np.empty((batch, len(faulty_ordered)), dtype=float)
        for row in range(batch):
            scalar_context = self._scalar_context(context, row)
            strategy = self._strategy_for_row(row)
            for position, node in enumerate(faulty_ordered):
                out[row, position] = float(
                    strategy.nominal_value(node, scalar_context)
                )
        return out


def as_batch_strategy(
    adversary: BatchStrategy | ByzantineStrategy | None,
) -> BatchStrategy:
    """Coerce an adversary argument to a :class:`BatchStrategy`.

    ``None`` becomes :class:`BatchPassiveStrategy` (faulty nodes follow the
    protocol), scalar strategies are wrapped in a shared-instance
    :class:`ScalarStrategyAdapter`, and batch strategies pass through.
    """
    if adversary is None:
        return BatchPassiveStrategy()
    if isinstance(adversary, BatchStrategy):
        return adversary
    if isinstance(adversary, ByzantineStrategy):
        return ScalarStrategyAdapter(strategy=adversary)
    raise InvalidParameterError(
        f"expected a BatchStrategy, ByzantineStrategy or None, "
        f"got {type(adversary).__name__}"
    )
