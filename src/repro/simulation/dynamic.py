"""Dynamic-topology layer: per-round edge masks and churn/sleep-wake.

Every engine so far simulated a *static* communication pattern.  This module
adds the dynamic scenario axis the roadmap asks for: a
:class:`TopologySchedule` tells the engines, per round, which directed edges
are **up** and which nodes are **awake**, and all four engines (scalar and
vectorized, synchronous and asynchronous) consume the same schedule object
with identical semantics — enforced by the cross-engine fuzz suite in
``tests/test_dynamic_fuzz.py``.

Masking semantics
-----------------
The synchronous engines keep their static gather structure and *re-mask*
(the cheap path the roadmap calls for — recompute nothing):

* **Down edge / asleep sender** ``(s, r)`` at round ``t``: receiver ``r``
  still evaluates a length-``|N⁻_r|`` received vector, but the dead slot
  carries ``r``'s **own previous value** ``v_r[t − 1]`` (self-substitution).
  The sort/trim/cumsum kernel is untouched, the update stays a convex
  combination of fault-free round-``t − 1`` values, so validity (eq. 1) is
  preserved by construction.
* **Asleep node**: the node does not execute its update (state frozen),
  and — being an asleep sender — every out-edge it has is masked like a
  down edge.  A node asleep for the whole run is therefore exactly
  equivalent to masking down every edge incident to it (under the midpoint
  rule, whose all-equal update is exact), which the metamorphic suite pins.
* Faulty nodes' *nominal* trace values are unaffected by sleep (sleep masks
  a faulty node's channels, not its label in the trace), and adversary
  strategies consume their RNG draws independently of the masks — the
  engines apply masking downstream of
  :meth:`~repro.adversary.vectorized.BatchStrategy.edge_values`.

The asynchronous engines compose masks with their delivery machinery
instead: a masked channel's message for round ``t`` is simply **never
delivered** (the receiver keeps its freshest previously delivered value),
and receiver sleep is ANDed into the activation mask.  Delay and activation
draws are still consumed for every edge and node, so the random streams stay
mask-independent and the scalar/vectorized async pair remains bit-identical.
Because "never sent" differs from the synchronous self-substitution, the
async tiers intentionally leave the synchronous cross-engine equality set
once masks are active.

RNG-stream contract
-------------------
Random schedules derive the round-``t`` mask from a *pure function* of
``(seed, stream_key, t)``::

    default_rng(SeedSequence(seed, spawn_key=(stream_key, t)))

``SeedSequence(entropy, spawn_key=...)`` is exactly the stream a
``SeedSequence.spawn`` tree would hand out for that key, so masks are
order-independent: any engine (or process) querying round ``t`` gets the
identical mask without replaying rounds ``1 … t − 1``, converged rows cost
nothing, and :meth:`TopologySchedule.activity` may be queried any number of
times per round.  Edge masks are interpreted over
:attr:`ScheduleLayout.edges` (canonical sender-major edge order, the same
order as :func:`repro.simulation.async_engine.canonical_edge_order`) and
awake masks over :attr:`ScheduleLayout.node_order` (nodes sorted by
``repr`` — the engines' state-column order).  Distinct ``stream_key`` values
decorrelate edge and churn streams sharing one seed (the defaults are 0 for
edge schedules and 1 for churn schedules).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.graphs.digraph import Digraph
from repro.types import NodeId

#: Stream keys separating the random edge and churn mask streams when both
#: derive from one root seed (see the module-level RNG-stream contract).
EDGE_STREAM_KEY = 0
CHURN_STREAM_KEY = 1


@dataclass(frozen=True)
class ScheduleLayout:
    """Canonical orders a schedule's masks are expressed in.

    Built once per graph by every engine that consumes a schedule, so a
    schedule never needs engine-specific knowledge: edge masks are indexed
    by :attr:`edges` (canonical sender-major directed-edge order) and awake
    masks by :attr:`node_order` (nodes sorted by ``repr``, i.e. the batch
    engines' state-column order).
    """

    graph: Digraph
    node_order: tuple[NodeId, ...]
    edges: tuple[tuple[NodeId, NodeId], ...]
    node_index: Mapping[NodeId, int]
    edge_index: Mapping[tuple[NodeId, NodeId], int]

    @classmethod
    def for_graph(cls, graph: Digraph) -> "ScheduleLayout":
        """Build the layout for ``graph``.

        ``edges`` reproduces
        :func:`repro.simulation.async_engine.canonical_edge_order` (senders
        sorted by ``repr``, targets sorted by ``repr`` within a sender);
        the equality is pinned by ``tests/test_dynamic_schedules.py``.
        """
        node_order = tuple(sorted(graph.nodes, key=repr))
        edges = tuple(
            (sender, target)
            for sender in node_order
            for target in sorted(graph.out_neighbors(sender), key=repr)
        )
        return cls(
            graph=graph,
            node_order=node_order,
            edges=edges,
            node_index={node: i for i, node in enumerate(node_order)},
            edge_index={edge: i for i, edge in enumerate(edges)},
        )

    @property
    def edge_count(self) -> int:
        """Number of directed edges ``E``."""
        return len(self.edges)

    @property
    def node_count(self) -> int:
        """Number of nodes ``n``."""
        return len(self.node_order)


@dataclass(frozen=True)
class RoundActivity:
    """One round's topology state: which edges are up, which nodes awake.

    ``edge_up`` is a ``(E,)`` bool array over :attr:`ScheduleLayout.edges`
    (``None`` means every edge is up), ``awake`` a ``(n,)`` bool array over
    :attr:`ScheduleLayout.node_order` (``None`` means every node is awake).
    ``None`` masks let the engines skip the masking code path entirely, so
    a static schedule costs nothing per round.
    """

    edge_up: np.ndarray | None = None
    awake: np.ndarray | None = None

    @property
    def is_static(self) -> bool:
        """Whether this round is indistinguishable from the static topology."""
        return self.edge_up is None and self.awake is None


class TopologySchedule(ABC):
    """Per-round topology plan consumed identically by every engine tier.

    Subclasses implement :meth:`activity` as a **pure function** of
    ``(round_index, layout)``: the engines may query a round several times
    (e.g. once while stepping and once for validity tracking), different
    engines query the same schedule instance concurrently in cross-checks,
    and batched rows all share one schedule — all of which is only sound
    because no call mutates schedule state.
    """

    #: Human-readable name used in experiment rows and benchmark tables.
    name: str = "schedule"

    @abstractmethod
    def activity(self, round_index: int, layout: ScheduleLayout) -> RoundActivity:
        """Return round ``round_index``'s masks (rounds are 1-based)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def schedule_rng(seed: int, stream_key: int, round_index: int) -> np.random.Generator:
    """Return the documented per-round generator of a random schedule.

    The RNG-stream contract in one line:
    ``default_rng(SeedSequence(seed, spawn_key=(stream_key, round_index)))``.
    Pure function of its arguments — no draw-order coupling between rounds,
    engines or processes.
    """
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(int(stream_key), int(round_index)))
    )


def resolve_activity(
    schedule: TopologySchedule, round_index: int, layout: ScheduleLayout
) -> RoundActivity:
    """Query ``schedule`` for one round and validate the mask shapes.

    Engines funnel every schedule query through this helper so a malformed
    schedule fails loudly at the round it first misbehaves, with the
    expected shapes in the message, instead of crashing deep in a kernel.
    """
    activity = schedule.activity(round_index, layout)
    edge_up, awake = activity.edge_up, activity.awake
    if edge_up is not None:
        edge_up = np.asarray(edge_up, dtype=bool)
        if edge_up.shape != (layout.edge_count,):
            raise InvalidParameterError(
                f"schedule {schedule.name!r} returned an edge mask of shape "
                f"{edge_up.shape} at round {round_index}; expected "
                f"({layout.edge_count},) over the canonical edge order"
            )
    if awake is not None:
        awake = np.asarray(awake, dtype=bool)
        if awake.shape != (layout.node_count,):
            raise InvalidParameterError(
                f"schedule {schedule.name!r} returned an awake mask of shape "
                f"{awake.shape} at round {round_index}; expected "
                f"({layout.node_count},) over the repr-sorted node order"
            )
    if edge_up is activity.edge_up and awake is activity.awake:
        return activity
    return RoundActivity(edge_up=edge_up, awake=awake)


class StaticSchedule(TopologySchedule):
    """The trivial schedule: every edge up, every node awake, every round.

    Exists so "no schedule" and "static schedule" are interchangeable — an
    engine handed a :class:`StaticSchedule` is bit-identical to one handed
    ``None`` (the regression pin in the metamorphic suite).
    """

    name = "static"

    def activity(self, round_index: int, layout: ScheduleLayout) -> RoundActivity:
        """Return the all-``None`` activity (no masking work at all)."""
        return RoundActivity()


class PeriodicEdgeSchedule(TopologySchedule):
    """Deterministic edge masking cycling through explicit down-phases.

    ``down_phases`` is a sequence of edge collections; during round ``t``
    the edges of phase ``(t − 1) mod len(down_phases)`` are **down** and
    everything else is up.  An empty collection makes that phase fully
    static.  Unknown edges raise at query time (the layout is needed to
    validate them).
    """

    name = "periodic-edges"

    def __init__(
        self, down_phases: Sequence[Iterable[tuple[NodeId, NodeId]]]
    ) -> None:
        if not down_phases:
            raise InvalidParameterError(
                "PeriodicEdgeSchedule needs at least one phase"
            )
        self._phases: tuple[tuple[tuple[NodeId, NodeId], ...], ...] = tuple(
            tuple(phase) for phase in down_phases
        )

    @property
    def period(self) -> int:
        """Number of phases the schedule cycles through."""
        return len(self._phases)

    def activity(self, round_index: int, layout: ScheduleLayout) -> RoundActivity:
        """Return the mask of phase ``(round_index − 1) mod period``."""
        phase = self._phases[(round_index - 1) % len(self._phases)]
        if not phase:
            return RoundActivity()
        edge_up = np.ones(layout.edge_count, dtype=bool)
        for edge in phase:
            position = layout.edge_index.get(edge)
            if position is None:
                raise InvalidParameterError(
                    f"PeriodicEdgeSchedule phase contains {edge!r}, which is "
                    "not a directed edge of the graph"
                )
            edge_up[position] = False
        return RoundActivity(edge_up=edge_up)


class PeriodicChurnSchedule(TopologySchedule):
    """Deterministic sleep/wake cycling through explicit asleep-phases.

    ``asleep_phases`` is a sequence of node collections; during round ``t``
    the nodes of phase ``(t − 1) mod len(asleep_phases)`` are **asleep**
    (state frozen, out-edges still carrying the frozen state).
    """

    name = "periodic-churn"

    def __init__(self, asleep_phases: Sequence[Iterable[NodeId]]) -> None:
        if not asleep_phases:
            raise InvalidParameterError(
                "PeriodicChurnSchedule needs at least one phase"
            )
        self._phases: tuple[tuple[NodeId, ...], ...] = tuple(
            tuple(phase) for phase in asleep_phases
        )

    @property
    def period(self) -> int:
        """Number of phases the schedule cycles through."""
        return len(self._phases)

    def activity(self, round_index: int, layout: ScheduleLayout) -> RoundActivity:
        """Return the awake mask of phase ``(round_index − 1) mod period``."""
        phase = self._phases[(round_index - 1) % len(self._phases)]
        if not phase:
            return RoundActivity()
        awake = np.ones(layout.node_count, dtype=bool)
        for node in phase:
            position = layout.node_index.get(node)
            if position is None:
                raise InvalidParameterError(
                    f"PeriodicChurnSchedule phase contains {node!r}, which is "
                    "not a node of the graph"
                )
            awake[position] = False
        return RoundActivity(awake=awake)


class RandomEdgeSchedule(TopologySchedule):
    """Seeded i.i.d. per-round edge up/down masking.

    Round ``t`` draws one ``random(E)`` vector from the contract stream
    ``schedule_rng(seed, stream_key, t)`` (canonical edge order) and keeps
    edge ``e`` up iff ``draw[e] < p_up[e]``.  ``p_up`` is either one scalar
    probability or a mapping from directed edge to probability (missing
    edges fall back to ``default_p_up``), which expresses the heterogeneous
    capacity profiles of the roadmap: stable core links with ``p_up = 1``
    and flaky peripheral links below it.
    """

    name = "random-edges"

    def __init__(
        self,
        p_up: float | Mapping[tuple[NodeId, NodeId], float] = 0.9,
        seed: int = 0,
        default_p_up: float = 1.0,
        stream_key: int = EDGE_STREAM_KEY,
    ) -> None:
        if isinstance(p_up, Mapping):
            for edge, probability in sorted(
                p_up.items(), key=lambda item: repr(item[0])
            ):
                _check_probability(probability, f"p_up[{edge!r}]")
            _check_probability(default_p_up, "default_p_up")
        else:
            _check_probability(p_up, "p_up")
        self._p_up = dict(p_up) if isinstance(p_up, Mapping) else float(p_up)
        self._default = float(default_p_up)
        self._seed = int(seed)
        self._stream_key = int(stream_key)

    @property
    def seed(self) -> int:
        """Root seed of the per-round mask streams."""
        return self._seed

    def _probabilities(self, layout: ScheduleLayout) -> np.ndarray:
        if isinstance(self._p_up, dict):
            unknown = set(self._p_up) - set(layout.edges)
            if unknown:
                raise InvalidParameterError(
                    f"RandomEdgeSchedule p_up mentions non-edges "
                    f"{sorted(unknown, key=repr)!r}"
                )
            return np.array(
                [self._p_up.get(edge, self._default) for edge in layout.edges]
            )
        return np.full(layout.edge_count, self._p_up)

    def activity(self, round_index: int, layout: ScheduleLayout) -> RoundActivity:
        """Return round ``round_index``'s seeded edge mask."""
        probabilities = self._probabilities(layout)
        if (probabilities >= 1.0).all():
            return RoundActivity()
        draws = schedule_rng(self._seed, self._stream_key, round_index).random(
            layout.edge_count
        )
        return RoundActivity(edge_up=draws < probabilities)


class RandomChurnSchedule(TopologySchedule):
    """Seeded i.i.d. per-round sleep/wake participation masking.

    Round ``t`` draws one ``random(n)`` vector from the contract stream
    ``schedule_rng(seed, stream_key, t)`` (repr-sorted node order) and keeps
    node ``i`` awake iff ``draw[i] < p_awake[i]``; nodes listed in
    ``always_awake`` are forced awake regardless of their draw (the draw is
    still consumed, keeping the stream layout-independent).  ``p_awake`` is
    a scalar or a per-node mapping with ``default_p_awake`` fallback.
    """

    name = "random-churn"

    def __init__(
        self,
        p_awake: float | Mapping[NodeId, float] = 0.9,
        seed: int = 0,
        always_awake: Iterable[NodeId] = (),
        default_p_awake: float = 1.0,
        stream_key: int = CHURN_STREAM_KEY,
    ) -> None:
        if isinstance(p_awake, Mapping):
            for node, probability in sorted(
                p_awake.items(), key=lambda item: repr(item[0])
            ):
                _check_probability(probability, f"p_awake[{node!r}]")
            _check_probability(default_p_awake, "default_p_awake")
        else:
            _check_probability(p_awake, "p_awake")
        self._p_awake = (
            dict(p_awake) if isinstance(p_awake, Mapping) else float(p_awake)
        )
        self._default = float(default_p_awake)
        self._seed = int(seed)
        self._always_awake = frozenset(always_awake)
        self._stream_key = int(stream_key)

    @property
    def seed(self) -> int:
        """Root seed of the per-round mask streams."""
        return self._seed

    @property
    def always_awake(self) -> frozenset[NodeId]:
        """Nodes exempt from churn."""
        return self._always_awake

    def _probabilities(self, layout: ScheduleLayout) -> np.ndarray:
        if isinstance(self._p_awake, dict):
            unknown = set(self._p_awake) - set(layout.node_order)
            if unknown:
                raise InvalidParameterError(
                    f"RandomChurnSchedule p_awake mentions unknown nodes "
                    f"{sorted(unknown, key=repr)!r}"
                )
            return np.array(
                [
                    self._p_awake.get(node, self._default)
                    for node in layout.node_order
                ]
            )
        return np.full(layout.node_count, self._p_awake)

    def activity(self, round_index: int, layout: ScheduleLayout) -> RoundActivity:
        """Return round ``round_index``'s seeded awake mask."""
        unknown = self._always_awake - set(layout.node_order)
        if unknown:
            raise InvalidParameterError(
                f"RandomChurnSchedule always_awake mentions unknown nodes "
                f"{sorted(unknown, key=repr)!r}"
            )
        probabilities = self._probabilities(layout)
        draws = schedule_rng(self._seed, self._stream_key, round_index).random(
            layout.node_count
        )
        awake = draws < probabilities
        for node in self._always_awake:
            awake[layout.node_index[node]] = True
        if awake.all():
            return RoundActivity()
        return RoundActivity(awake=awake)


class ComposedSchedule(TopologySchedule):
    """AND-composition of several schedules.

    An edge is up iff every component keeps it up; a node is awake iff every
    component keeps it awake.  The canonical use is pairing a
    :class:`RandomEdgeSchedule` with a :class:`RandomChurnSchedule` — their
    distinct default ``stream_key`` values keep the two mask streams
    decorrelated even under one shared seed.
    """

    def __init__(self, *schedules: TopologySchedule) -> None:
        if not schedules:
            raise InvalidParameterError(
                "ComposedSchedule needs at least one component"
            )
        self._schedules = tuple(schedules)
        self.name = "+".join(schedule.name for schedule in schedules)

    @property
    def components(self) -> tuple[TopologySchedule, ...]:
        """The composed schedules, in application order."""
        return self._schedules

    def activity(self, round_index: int, layout: ScheduleLayout) -> RoundActivity:
        """AND the component masks for one round."""
        edge_up: np.ndarray | None = None
        awake: np.ndarray | None = None
        for schedule in self._schedules:
            part = resolve_activity(schedule, round_index, layout)
            if part.edge_up is not None:
                edge_up = (
                    part.edge_up.copy() if edge_up is None else edge_up & part.edge_up
                )
            if part.awake is not None:
                awake = part.awake.copy() if awake is None else awake & part.awake
        return RoundActivity(edge_up=edge_up, awake=awake)


def _check_probability(value: float, label: str) -> None:
    """Validate one probability parameter."""
    if not 0.0 <= float(value) <= 1.0:
        raise InvalidParameterError(
            f"{label} must lie in [0, 1], got {value}"
        )
