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
engine's ``send_round >= stored_round`` rule) → one gather of the delivered
values into the bucket-major plane → the same sort → trim → cumsum slab
kernel as :class:`~repro.simulation.vectorized.VectorizedEngine` →
activation mask → faulty-column overwrite.  Because the delivered floats are
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
from repro.exceptions import InvalidParameterError, ValidityViolationError
from repro.graphs.digraph import Digraph
from repro.simulation.dynamic import TopologySchedule
from repro.simulation.engine import SimulationConfig
from repro.simulation.metrics import VALIDITY_TOLERANCE, within_hull
from repro.simulation.trace import ExecutionTrace
from repro.simulation.vectorized import (
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
    # Buffer lifecycle and per-round draws
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

    def _draw_delays(
        self,
        generators: Sequence[np.random.Generator],
        active_rows: np.ndarray | None,
    ) -> np.ndarray | None:
        """Per-row canonical-order delay draws; ``None`` when ``max_delay=0``.

        Frozen (converged) rows draw nothing — their scalar counterparts
        stopped executing, so their streams must not advance.
        """
        if self._max_delay == 0:
            return None
        delays = np.zeros((len(generators), self._rng_edge_count), dtype=np.int64)
        for row, generator in enumerate(generators):
            if active_rows is None or active_rows[row]:
                delays[row] = generator.integers(
                    0, self._max_delay + 1, size=self._rng_edge_count
                )
        return delays

    def _draw_activation(
        self,
        generators: Sequence[np.random.Generator],
        active_rows: np.ndarray | None,
    ) -> np.ndarray | None:
        """Per-row activation mask; ``None`` when every node always updates."""
        if self._update_probability >= 1.0:
            return None
        count = self._ff_cols.size
        coins = np.ones((len(generators), count), dtype=float)
        for row, generator in enumerate(generators):
            if active_rows is None or active_rows[row]:
                coins[row] = generator.random(count)
        return coins < self._update_probability

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

        # 4. The synchronous slab kernel, fed from the delivery buffers (one
        #    gather into plane layout) instead of the raw state matrix.
        new_state = np.array(state)
        reduce_plane(
            buffers.buffer_values[:, self._plane_order],
            state,
            new_state,
            self._buckets,
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
        :func:`~repro.simulation.vectorized.cross_check_engines`).
        """
        config = self._config
        state = self.pack_inputs(inputs)
        if state.shape[0] != 1:
            raise InvalidParameterError(
                f"run() executes a single run but received {state.shape[0]} "
                "input rows; use run_batch() for batched execution"
            )
        generator = (
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        )
        generators = [generator]
        buffers = self._init_buffers(state)

        trace = ExecutionTrace(faulty=self._faulty)
        hull_min, hull_max = self._extremes(state)
        initial_spread = hull_max - hull_min
        hull_ok = True
        if config.record_history:
            trace.record_round(0, self._values_dict(state))

        rounds_executed = 0
        current_spread = initial_spread
        converged = config.stop_on_convergence and initial_spread <= config.tolerance

        for round_index in range(1, config.max_rounds + 1):
            if converged:
                break
            delays = self._draw_delays(generators, None)
            active_nodes = self._draw_activation(generators, None)
            state = self.step_async(state, buffers, round_index, delays, active_nodes)
            rounds_executed = round_index

            low, high = self._extremes(state)
            if not within_hull(state[0, self._ff_cols], hull_min, hull_max):
                hull_ok = False
                if config.strict_validity:
                    raise ValidityViolationError(
                        f"hull validity violated at round {round_index}: a "
                        f"fault-free value left the initial hull "
                        f"[{hull_min}, {hull_max}]"
                    )
            if config.record_history:
                trace.record_round(round_index, self._values_dict(state))
            current_spread = high - low
            if config.stop_on_convergence and current_spread <= config.tolerance:
                converged = True

        if not config.stop_on_convergence:
            converged = current_spread <= config.tolerance
        final_values = {
            node: float(state[0, self._column[node]])
            for node in self._nodes
            if node not in self._faulty
        }
        return ConsensusOutcome(
            converged=converged,
            rounds_executed=rounds_executed,
            final_spread=current_spread,
            initial_spread=initial_spread,
            validity_ok=hull_ok,
            final_values=final_values,
            history=trace.as_records() if config.record_history else tuple(),
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
        config = self._config
        state = self.pack_inputs(inputs)
        batch = state.shape[0]
        generators = spawn_row_generators(rng, batch)
        buffers = self._init_buffers(state)

        ff = self._ff_cols
        hull_low = state[:, ff].min(axis=1)
        hull_high = state[:, ff].max(axis=1)
        initial_spread = hull_high - hull_low
        spread = initial_spread.copy()
        validity_ok = np.ones(batch, dtype=bool)
        rounds_executed = np.zeros(batch, dtype=int)
        converged = (
            initial_spread <= config.tolerance
            if config.stop_on_convergence
            else np.zeros(batch, dtype=bool)
        )
        active_rows = ~converged if config.stop_on_convergence else np.ones(batch, dtype=bool)
        history: list[np.ndarray] | None = (
            [spread.copy()] if config.record_history else None
        )

        for round_index in range(1, config.max_rounds + 1):
            if config.stop_on_convergence and not active_rows.any():
                break
            delays = self._draw_delays(generators, active_rows)
            active_nodes = self._draw_activation(generators, active_rows)
            new_state = self.step_async(
                state, buffers, round_index, delays, active_nodes
            )
            state = np.where(active_rows[:, None], new_state, state)
            rounds_executed = np.where(active_rows, round_index, rounds_executed)

            mins = state[:, ff].min(axis=1)
            maxs = state[:, ff].max(axis=1)
            escaped = active_rows & (
                (mins < hull_low - VALIDITY_TOLERANCE)
                | (maxs > hull_high + VALIDITY_TOLERANCE)
            )
            if config.strict_validity and escaped.any():
                row = int(np.flatnonzero(escaped)[0])
                raise ValidityViolationError(
                    f"hull validity violated at round {round_index} in batch "
                    f"row {row}: the fault-free values left the initial hull "
                    f"[{hull_low[row]}, {hull_high[row]}]"
                )
            validity_ok &= ~escaped
            spread = np.where(active_rows, maxs - mins, spread)
            if history is not None:
                history.append(spread.copy())
            if config.stop_on_convergence:
                newly = active_rows & (spread <= config.tolerance)
                converged = converged | newly
                active_rows = active_rows & ~newly

        if not config.stop_on_convergence:
            converged = spread <= config.tolerance
        return BatchOutcome(
            nodes=self._nodes,
            faulty=self._faulty,
            converged=converged,
            rounds_executed=rounds_executed,
            initial_spread=initial_spread,
            final_spread=spread,
            validity_ok=validity_ok,
            final_states=state,
            spread_history=np.stack(history) if history is not None else None,
        )


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
