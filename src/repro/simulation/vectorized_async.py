"""NumPy-vectorized partially asynchronous engine and batched async runner.

:class:`~repro.simulation.async_engine.PartiallyAsynchronousEngine` walks one
delay-bounded execution at a time through per-message Python dicts, which made
every delay/activation Monte-Carlo sweep roughly two orders of magnitude
slower than its synchronous counterpart.  This module closes that gap: the
states of all nodes across ``B`` independent executions live in one ``(B, n)``
float matrix, and the Bertsekas–Tsitsiklis delivery buffers become dense
arrays over the ``E`` directed channels into fault-free receivers:

* ``buffer_values``/``buffer_rounds`` — ``(B, E)``: the freshest delivered
  value per channel and the round it was sent in (send round 0 holds the
  sender's input, mirroring the scalar engine's initialisation);
* a **ring buffer** of the last ``max_delay + 1`` send rounds —
  ``(B, E, max_delay + 1)`` value and delivery-round planes plus one scalar
  send-round tag per slot.  A message sent at round ``t`` can only be
  delivered in ``[t, t + max_delay]``, so by the time slot ``t mod
  (max_delay + 1)`` is overwritten every message it held has already been
  delivered; no per-message bookkeeping survives.

The channel axis ``E`` is the synchronous engine's canonical CSR order
(channel ``k`` carries sender ``csr_indices[k]`` into its receiver), so each
round is: adversary-scatter into the sent-value plane → ring write → masked
"freshest send wins" delivery sweep (oldest slot first, exactly the scalar
engine's ``send_round >= stored_round`` rule) → the same gather → sort →
trim → sum plane kernel as
:class:`~repro.simulation.vectorized.VectorizedEngine`, reading the
delivered values in plane order → activation mask → faulty-column
overwrite.  Because the delivered floats are
bit-identical to the scalar buffers and the reduction is the synchronous
kernel, a vectorized execution is **bit-for-bit identical** to the scalar
asynchronous engine under the shared RNG-stream contract — enforced by
:func:`~repro.simulation.vectorized.cross_check_engines` (with
``max_delay``) and the cross-engine parity suite.

RNG-stream contract
-------------------
Randomness is consumed exactly as documented in
:mod:`repro.simulation.async_engine`: per executed round, one
``integers(0, max_delay + 1, size=E_all)`` draw over *all* directed edges in
canonical sender-major order (iff ``max_delay > 0``), then one
``random(m)`` draw over the fault-free nodes sorted by ``repr`` (iff
``update_probability < 1``).  A batch gives every row its own generator:
:func:`spawn_row_generators` derives row ``b``'s stream from a root seed via
``np.random.SeedSequence(seed).spawn(B)[b]``, so a scalar engine handed the
same child generator replays that row draw-for-draw.  At ``max_delay=0`` and
``update_probability=1`` no engine-level randomness exists and the round
degenerates to the synchronous kernel, making the engine bit-exact with
:class:`~repro.simulation.vectorized.VectorizedEngine` as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.adversary.base import ByzantineStrategy
from repro.adversary.vectorized import BatchStrategy
from repro.algorithms.base import UpdateRule
from repro.exceptions import InvalidParameterError
from repro.graphs.digraph import Digraph
from repro.simulation.dynamic import TopologySchedule
from repro.simulation.engine import SimulationConfig
from repro.simulation.vectorized import (
    Advance,
    BatchOutcome,
    VectorizedEngine,
    reduce_plane,
)
from repro.types import ConsensusOutcome, NodeId, ValueMap

#: Delivery-round sentinel for messages on channels masked down by a
#: topology schedule: the message is written into the ring (keeping slot
#: bookkeeping uniform) but can never come due.  The slot is wholly
#: overwritten after ``max_delay + 1`` rounds, so the sentinel never leaks.
_NEVER = np.iinfo(np.int64).max


def spawn_row_generators(
    rng: object, batch: int
) -> list[np.random.Generator]:
    """Return ``batch`` independent generators, one per batch row.

    Accepts a root seed (``int``, :class:`numpy.random.SeedSequence` or
    ``None``), an already-constructed :class:`numpy.random.Generator` (its
    ``spawn`` method supplies the children), or an explicit sequence of
    ``batch`` generators (passed through, for callers that need full control
    — e.g. the parity tests replaying one row on the scalar engine).

    With an integer root seed the mapping is the documented contract: row
    ``b`` draws from ``default_rng(SeedSequence(seed).spawn(batch)[b])``.
    """
    if batch < 1:
        raise InvalidParameterError(f"batch must be >= 1, got {batch}")
    if isinstance(rng, (list, tuple)):
        generators = list(rng)
        if len(generators) != batch or not all(
            isinstance(g, np.random.Generator) for g in generators
        ):
            raise InvalidParameterError(
                f"an explicit generator sequence must contain exactly "
                f"{batch} numpy Generators, got {len(generators)} items"
            )
        return generators
    if isinstance(rng, np.random.Generator):
        return list(rng.spawn(batch))
    if rng is None or isinstance(rng, (int, np.integer)):
        root = np.random.SeedSequence(None if rng is None else int(rng))
    elif isinstance(rng, np.random.SeedSequence):
        root = rng
    else:
        raise InvalidParameterError(
            "rng must be an int seed, SeedSequence, Generator, a sequence of "
            f"Generators, or None; got {type(rng).__name__}"
        )
    return [np.random.default_rng(child) for child in root.spawn(batch)]


@dataclass
class _DeliveryBuffers:
    """Ring-buffered in-flight messages plus the freshest-delivery state.

    ``ring_send[j]`` tags slot ``j`` with the round its messages were sent in
    (``-1`` while the slot has never been written); all ``(B, E)`` planes of
    slot ``j`` refer to that one send round, which is what lets the delivery
    sweep use a scalar comparison per slot.
    """

    buffer_values: np.ndarray
    buffer_rounds: np.ndarray
    ring_values: np.ndarray
    ring_deliveries: np.ndarray
    ring_send: list[int]


class VectorizedAsyncEngine(VectorizedEngine):
    """Array-based executor of the partially asynchronous model over batches.

    Parameters
    ----------
    graph, rule, faulty, adversary, config:
        As for :class:`~repro.simulation.vectorized.VectorizedEngine` (same
        trimmed-rule kernels, same batched adversary layer).
    max_delay:
        The Bertsekas–Tsitsiklis delay bound ``B``; ``0`` degenerates to the
        synchronous engine.  Negative values raise
        :class:`~repro.exceptions.InvalidParameterError` — the same guard as
        the scalar engine.
    update_probability:
        Per-round activation probability of a fault-free node, in ``(0, 1]``.
    schedule:
        Optional :class:`~repro.simulation.dynamic.TopologySchedule`.  The
        asynchronous tier composes masks with its delivery machinery: a
        masked channel's message for the round is never delivered (the
        receiver keeps its freshest previously delivered value) and receiver
        sleep is ANDed into the activation mask.  Delay and activation draws
        are still consumed for every edge and node, so the random streams
        stay mask-independent and the scalar/vectorized pair bit-identical.
        Note this intentionally differs from the synchronous tiers'
        self-substitution semantics — with masks active, ``max_delay=0``
        no longer degenerates to the synchronous engines.
    """

    _initial_hull_validity = True

    def __init__(
        self,
        graph: Digraph,
        rule: UpdateRule,
        faulty: frozenset[NodeId] | set[NodeId] = frozenset(),
        adversary: BatchStrategy | ByzantineStrategy | None = None,
        config: SimulationConfig | None = None,
        max_delay: int = 1,
        update_probability: float = 1.0,
        schedule: TopologySchedule | None = None,
    ) -> None:
        if max_delay < 0:
            raise InvalidParameterError(f"max_delay must be >= 0, got {max_delay}")
        if not 0.0 < update_probability <= 1.0:
            raise InvalidParameterError(
                f"update_probability must be in (0, 1], got {update_probability}"
            )
        super().__init__(
            graph=graph,
            rule=rule,
            faulty=faulty,
            adversary=adversary,
            config=config,
            schedule=schedule,
        )
        self._max_delay = int(max_delay)
        self._update_probability = float(update_probability)
        # The per-round delay draw is indexed in the canonical sender-major
        # edge order; a schedule already made the CSR-slot translation.
        if schedule is None:
            self._build_edge_arrays()
        self._rng_edge_count = self._sched_layout.edge_count

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def max_delay(self) -> int:
        """The delay bound ``B``."""
        return self._max_delay

    @property
    def update_probability(self) -> float:
        """Per-round activation probability of a fault-free node."""
        return self._update_probability

    # ------------------------------------------------------------------
    # Buffer lifecycle
    # ------------------------------------------------------------------
    def _init_buffers(self, state: np.ndarray) -> _DeliveryBuffers:
        """Return fresh buffers for ``state``: every channel holds the
        sender's input tagged with send round 0, the ring entirely empty."""
        batch = state.shape[0]
        depth = self._max_delay + 1
        edges = self.nnz
        return _DeliveryBuffers(
            buffer_values=state[:, self._csr_indices],
            buffer_rounds=np.zeros((batch, edges), dtype=np.int64),
            ring_values=np.zeros((batch, edges, depth), dtype=float),
            ring_deliveries=np.zeros((batch, edges, depth), dtype=np.int64),
            ring_send=[-1] * depth,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step_matrix(self, state: np.ndarray, round_index: int) -> np.ndarray:
        """Unavailable: an asynchronous round also needs delivery buffers.

        The synchronous signature cannot express the buffer state, so this
        override refuses instead of silently running synchronous semantics;
        use :meth:`run` / :meth:`run_batch`, or :meth:`step_async` to step
        manually.
        """
        raise InvalidParameterError(
            "VectorizedAsyncEngine.step_matrix is not available: asynchronous "
            "rounds carry delivery-buffer state; use run()/run_batch() or "
            "step_async()"
        )

    def step_async(
        self,
        state: np.ndarray,
        buffers: _DeliveryBuffers,
        round_index: int,
        delays: np.ndarray | None,
        active_nodes: np.ndarray | None,
    ) -> np.ndarray:
        """Execute one asynchronous iteration on a ``(B, n)`` state matrix.

        ``buffers`` (from :meth:`_init_buffers`) is updated in place;
        ``delays`` is the round's ``(B, E_all)`` canonical-order draw (or
        ``None`` for ``max_delay=0``) and ``active_nodes`` the ``(B, m)``
        activation mask over fault-free columns (or ``None`` for
        ``update_probability=1``).  Returns the new state matrix; faulty
        columns hold the adversary's nominal values.
        """
        state = np.asarray(state, dtype=float)
        batch = state.shape[0]

        # Masks compose with the delivery machinery, not the reduce kernel:
        # a masked channel's message is written but never comes due, and
        # receiver sleep joins the activation mask below.  Draws (delays,
        # activation coins) were made before any mask is consulted, so the
        # random streams are mask-independent.
        activity = self._round_activity(round_index)

        # 1. The values every channel carries this round: senders' states,
        #    with the adversary's channel values scattered over faulty edges.
        sent = state[:, self._csr_indices]
        context, channel_values = self._adversary_fill(state, round_index, activity)
        if channel_values is not None:
            sent[:, self._edge_csr_pos] = channel_values

        # 2. Ring write.  The slot being overwritten held send round
        #    round_index − (max_delay + 1), whose last possible delivery was
        #    round_index − 1 — nothing in flight is lost.
        depth = self._max_delay + 1
        slot = round_index % depth
        buffers.ring_send[slot] = round_index
        buffers.ring_values[:, :, slot] = sent
        if delays is None:
            buffers.ring_deliveries[:, :, slot] = round_index
        else:
            buffers.ring_deliveries[:, :, slot] = (
                round_index + delays[:, self._csr_edge_pos]
            )
        if activity is not None:
            up = np.ones(self.nnz, dtype=bool)
            if activity.edge_up is not None:
                up &= activity.edge_up[self._csr_edge_pos]
            if activity.awake is not None:
                up &= activity.awake[self._csr_indices]
            silent = np.flatnonzero(~up)
            if silent.size:
                buffers.ring_deliveries[:, silent, slot] = _NEVER

        # 3. Delivery sweep, oldest send round first, so the freshest send
        #    wins — the scalar engine's ``send_round >= stored_round`` rule.
        for slot_index in sorted(range(depth), key=lambda j: buffers.ring_send[j]):
            send_round = buffers.ring_send[slot_index]
            if send_round < 1:
                continue
            due = (
                buffers.ring_deliveries[:, :, slot_index] <= round_index
            ) & (send_round >= buffers.buffer_rounds)
            if due.any():
                buffers.buffer_rounds = np.where(
                    due, send_round, buffers.buffer_rounds
                )
                buffers.buffer_values = np.where(
                    due, buffers.ring_values[:, :, slot_index], buffers.buffer_values
                )

        # 4. The synchronous plane kernel, reading the delivery buffers
        #    (whose channel axis is the CSR order) instead of the state.
        new_state = np.array(state)
        reduce_plane(
            buffers.buffer_values,
            self._plane_order,
            state,
            new_state,
            self._layout,
            self._rule.f,
            self._mode,
        )

        # 5. Sporadic activation: inactive nodes keep their previous state
        #    (their buffers kept absorbing deliveries above).  Receiver sleep
        #    from the schedule composes by AND — an asleep node skips its
        #    update even if its activation coin came up.
        if activity is not None and activity.awake is not None:
            awake_ff = activity.awake[self._ff_cols]
            if active_nodes is None:
                active_nodes = np.broadcast_to(
                    awake_ff[None, :], (batch, awake_ff.size)
                )
            else:
                active_nodes = active_nodes & awake_ff[None, :]
        if active_nodes is not None:
            columns = self._ff_cols
            new_state[:, columns] = np.where(
                active_nodes, new_state[:, columns], state[:, columns]
            )

        # 6. Faulty columns record the adversary's nominal values.
        self._write_nominal(context, new_state)
        return new_state

    def run(
        self,
        inputs: ValueMap,
        rng: np.random.Generator | int | None = None,
    ) -> ConsensusOutcome:
        """Run one execution, mirroring the scalar asynchronous engine.

        With the same ``rng`` seed (or an identically-seeded generator) the
        outcome — every field, including the per-round history — is
        bit-identical to :class:`PartiallyAsynchronousEngine` for the same
        configuration, the adversary permitting (see
        :func:`~repro.simulation.vectorized.cross_check_engines`), and equal
        to row 0 of a one-row :meth:`run_batch` driven by the same generator.
        """
        generator = (
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        )
        return self._run_single(
            inputs, lambda state: self._async_advance(state, [generator])
        )

    def run_batch(
        self,
        inputs: np.ndarray | Sequence[ValueMap],
        rng: object = None,
    ) -> BatchOutcome:
        """Run ``B`` independent delay-bounded executions as one batched pass.

        ``rng`` seeds the per-row streams via :func:`spawn_row_generators`.
        Rows that reach the tolerance freeze (state, round count and random
        stream all stop advancing), so each row reproduces exactly what an
        independent scalar run seeded with that row's child stream produces.
        ``validity_ok`` reports the *initial-hull* form of validity, the
        correct condition for the partially asynchronous model.
        """
        state = self.pack_inputs(inputs)
        generators = spawn_row_generators(rng, state.shape[0])
        return self._rounds(state, self._async_advance(state, generators))

    def _async_advance(
        self, state: np.ndarray, generators: Sequence[np.random.Generator]
    ) -> Advance:
        """Return the per-round advance of a run from ``state``.

        The run gets fresh delivery buffers.  Each round draws, per active
        row, the canonical-order delays (iff ``max_delay > 0``) and then the
        activation coins (iff ``update_probability < 1``), and executes one
        :meth:`step_async`.  Frozen (converged) rows draw nothing: their
        scalar counterparts stopped executing, so their streams must not
        advance.
        """
        buffers = self._init_buffers(state)
        batch, edges, count = len(generators), self._rng_edge_count, self._ff_cols.size

        def advance(
            state: np.ndarray, round_index: int, active: np.ndarray
        ) -> np.ndarray:
            rows = np.flatnonzero(active).tolist()
            delays: np.ndarray | None = None
            if self._max_delay > 0:
                delays = np.zeros((batch, edges), dtype=np.int64)
                for row in rows:
                    delays[row] = generators[row].integers(
                        0, self._max_delay + 1, size=edges
                    )
            active_nodes: np.ndarray | None = None
            if self._update_probability < 1.0:
                coins = np.ones((batch, count), dtype=float)
                for row in rows:
                    coins[row] = generators[row].random(count)
                active_nodes = coins < self._update_probability
            return self.step_async(state, buffers, round_index, delays, active_nodes)

        return advance


def run_vectorized_async(
    graph: Digraph,
    rule: UpdateRule,
    inputs: ValueMap,
    faulty: frozenset[NodeId] | set[NodeId] = frozenset(),
    adversary: BatchStrategy | ByzantineStrategy | None = None,
    max_delay: int = 1,
    update_probability: float = 1.0,
    max_rounds: int = 500,
    tolerance: float = 1e-7,
    record_history: bool = True,
    rng: np.random.Generator | int | None = None,
    schedule: TopologySchedule | None = None,
) -> ConsensusOutcome:
    """Functional wrapper around :class:`VectorizedAsyncEngine`, mirroring
    :func:`~repro.simulation.async_engine.run_partially_asynchronous`."""
    config = SimulationConfig(
        max_rounds=max_rounds,
        tolerance=tolerance,
        record_history=record_history,
    )
    engine = VectorizedAsyncEngine(
        graph=graph,
        rule=rule,
        faulty=faulty,
        adversary=adversary,
        config=config,
        max_delay=max_delay,
        update_probability=update_probability,
        schedule=schedule,
    )
    return engine.run(inputs, rng=rng)
