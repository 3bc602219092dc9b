"""Unit tests for the CSR message plane of the batch engines.

Covers what the differential suites don't: the CSR layout itself (pinned
against the per-receiver build it replaced, the asynchronous engine's channel
axis, which must be the CSR order, and the large-``n`` path, which must
never build the graph's neighbour sets), the canonical edge order and the
CSR slots' edge positions (pinned against the ``repr`` sort and dict lookup
they replaced), the adaptive lookahead on the engine's plane (against the
probe plane it used to build), parameter validation, the rejection of empty
batches, the plane footprint (float32 halves it, and the compiled kernel
allocates under half of the NumPy kernel's plane), the ``run_consensus``
engine names, the ``cross_check_engines`` option checks, and the float32
dtype plumbing.
"""

from __future__ import annotations

import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.adversary import (
    BatchAdaptiveStrategy,
    BatchExtremePushStrategy,
    BatchRandomNoiseStrategy,
    BatchStrategy,
    ExtremePushStrategy,
)
from repro.adversary.selection import random_fault_set
from repro.algorithms import TrimmedMeanRule, TrimmedMidpointRule
from repro.exceptions import InvalidParameterError
from repro.experiments import scale
from repro.graphs import (
    Digraph,
    chord_network,
    complete_graph,
    core_network,
    heterogeneous_ring_lattice,
    k_in_regular_digraph,
)
from repro.simulation import (
    ComposedSchedule,
    PeriodicEdgeSchedule,
    RandomChurnSchedule,
    RandomEdgeSchedule,
    ScheduleLayout,
    SimulationConfig,
    StaticSchedule,
    VectorizedAsyncEngine,
    VectorizedEngine,
    cross_check_engines,
    run_consensus,
    run_vectorized,
    uniform_random_inputs,
)
from repro.adversary.vectorized import fault_free_block
from repro.simulation import native
from repro.simulation.sparse import SparseEngine
from repro.simulation.vectorized import (
    bucket_plane,
    plane_layout,
    random_input_matrix,
    reduce_plane,
)

from conftest import BATCH_ENGINE_KINDS, make_batch_engine, numpy_kernel


class TestCSRLayout:
    def test_csr_matches_graph_in_neighbours(self):
        graph = core_network(12, 2)
        engine = VectorizedEngine(graph, TrimmedMeanRule(2), faulty={10, 11})
        indptr, indices = engine.csr_indptr, engine.csr_indices
        ff_nodes = [n for n in engine.nodes if n not in engine.faulty]
        assert indptr.shape == (len(ff_nodes) + 1,)
        assert engine.nnz == indptr[-1] == indices.size
        column_of = {node: i for i, node in enumerate(engine.nodes)}
        for ff_index, receiver in enumerate(ff_nodes):
            segment = indices[indptr[ff_index] : indptr[ff_index + 1]]
            senders = sorted(graph.in_neighbors(receiver), key=repr)
            assert list(segment) == [column_of[s] for s in senders]

    def test_async_channel_axis_is_the_csr_order(self):
        """Async channel ``k`` is CSR slot ``k``: what lets async share the plane.

        The delivery buffers start from ``state[:, csr_indices]`` and the
        delay draw of channel ``k`` is the one for the directed edge from
        ``csr_indices[k]`` into CSR slot ``k``'s receiver.
        """
        graph = core_network(10, 2)
        engine = VectorizedAsyncEngine(
            graph, TrimmedMeanRule(2), faulty={8, 9}, max_delay=2
        )
        indptr, indices = engine.csr_indptr, engine.csr_indices
        ff_nodes = [n for n in engine.nodes if n not in engine.faulty]
        csr_edges = [
            (engine.nodes[sender], receiver)
            for ff_index, receiver in enumerate(ff_nodes)
            for sender in indices[indptr[ff_index] : indptr[ff_index + 1]]
        ]
        rng_edges = repr_sorted_edges(graph)
        assert [rng_edges[k] for k in engine._csr_edge_pos] == csr_edges
        state = engine.pack_inputs(random_input_matrix(engine.nodes, 3, rng=4))
        buffers = engine._init_buffers(state)
        assert np.array_equal(buffers.buffer_values, state[:, indices])
        faulty_slots = [
            k for k, (sender, _) in enumerate(csr_edges) if sender in engine.faulty
        ]
        assert engine._edge_csr_pos.tolist() == faulty_slots
        assert [csr_edges[k] for k in faulty_slots] == list(engine._edge_nodes)

    def test_plane_covers_every_message_slot_once(self):
        graph = k_in_regular_digraph(30, 5, rng=0)
        engine = VectorizedEngine(graph, TrimmedMeanRule(2), faulty={0, 1})
        assert engine._plane_indices.size == engine.nnz
        # Bucket slabs partition [0, nnz) without gaps or overlap.
        spans = sorted(
            (b.plane_start, b.plane_stop) for b in engine._layout.buckets
        )
        cursor = 0
        for start, stop in spans:
            assert start == cursor
            cursor = stop
        assert cursor == engine.nnz
        # The per-receiver segments of the compiled kernel walk the same
        # slabs: receiver i owns starts[i]:starts[i + 1].
        layout = engine._layout
        for bucket in layout.buckets:
            first = int(np.searchsorted(layout.starts, bucket.plane_start))
            members = slice(first, first + bucket.columns.size)
            assert layout.receivers[members].tolist() == bucket.columns.tolist()
            assert set(np.diff(layout.starts)[members].tolist()) == {bucket.degree}
        assert layout.starts[-1] == engine.nnz


def per_receiver_bucket_plane(graph, nodes, receiver_columns):
    """:func:`bucket_plane` as it was built before the sort: one
    ``sorted(in_neighbors, key=repr)`` per receiver."""
    column = {node: index for index, node in enumerate(nodes)}
    indptr = [0]
    indices = []
    for receiver_column in receiver_columns.tolist():
        senders = graph.in_neighbors(nodes[receiver_column])
        indices.extend(column[sender] for sender in sorted(senders, key=repr))
        indptr.append(len(indices))
    csr_indptr = np.array(indptr, dtype=np.int64)
    layout, plane_order = plane_layout(
        np.diff(csr_indptr), receiver_columns, len(nodes)
    )
    return csr_indptr, np.array(indices, dtype=np.int64), layout, plane_order


def assert_same_planes(built, expected):
    """All four :func:`bucket_plane` outputs are equal, dtypes included."""
    indptr, indices, layout, plane_order = built
    want_indptr, want_indices, want_layout, want_order = expected
    for got, want in (
        (indptr, want_indptr),
        (indices, want_indices),
        (plane_order, want_order),
        (layout.receivers, want_layout.receivers),
        (layout.starts, want_layout.starts),
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (layout.width, layout.max_degree) == (
        want_layout.width,
        want_layout.max_degree,
    )
    assert len(layout.buckets) == len(want_layout.buckets)
    for bucket, want in zip(layout.buckets, want_layout.buckets):
        assert (bucket.degree, bucket.plane_start, bucket.plane_stop) == (
            want.degree,
            want.plane_start,
            want.plane_stop,
        )
        assert np.array_equal(bucket.columns, want.columns)


def random_edge_graph(seed, label):
    """A random graph on 5 … 40 nodes named by ``label``, built per edge,
    and its int edge arrays."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    m = int(rng.integers(n, 6 * n))
    sources = rng.integers(0, n, size=m)
    targets = (sources + rng.integers(1, n, size=m)) % n
    names = [label(i) for i in range(n)]
    graph = Digraph(
        nodes=names,
        edges=zip([names[i] for i in sources], [names[i] for i in targets]),
    )
    return graph, n, sources, targets


#: Node namings whose repr order differs from their int order.
NODE_LABELS = {
    "int": lambda i: i,
    "str": lambda i: f"n{i * 7 % 13}-{i}",
    "tuple": lambda i: (i % 3, str(i)),
}


class TestCSRMatchesThePerReceiverBuild:
    """The sort-built CSR equals the per-receiver loop on every graph whose
    nodes have distinct ``repr``s, however the graph was built."""

    @pytest.mark.parametrize("label", sorted(NODE_LABELS))
    @pytest.mark.parametrize("seed", range(12))
    def test_all_four_outputs_match(self, label, seed):
        graph, n, sources, targets = random_edge_graph(seed, NODE_LABELS[label])
        graphs = [graph]
        if label == "int":
            graphs.append(Digraph.from_edge_arrays(n, sources, targets))
        rng = np.random.default_rng(1000 + seed)
        nodes = tuple(sorted(graph.nodes, key=repr))
        for receiver_columns in (
            np.arange(n),
            np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False)),
        ):
            expected = per_receiver_bucket_plane(graph, nodes, receiver_columns)
            for candidate in graphs:
                built = bucket_plane(candidate, nodes, receiver_columns)
                assert_same_planes(built, expected)
        if label == "int":  # the array-built graph never built its sets
            assert type(graphs[-1]) is not Digraph

    @pytest.mark.parametrize("n", [101, 1200])
    def test_an_array_built_lattice_matches(self, n):
        # Its node columns are the inverse of the repr order, a permutation
        # of 0 … n − 1 that is far from the identity past 100 nodes.
        graph = heterogeneous_ring_lattice(n, 2, rng=n)
        nodes = tuple(sorted(range(n), key=repr))
        rng = np.random.default_rng(n)
        for receiver_columns in (
            np.arange(n),
            np.sort(rng.choice(n, size=n // 3, replace=False)),
        ):
            expected = per_receiver_bucket_plane(
                heterogeneous_ring_lattice(n, 2, rng=n), nodes, receiver_columns
            )
            assert_same_planes(bucket_plane(graph, nodes, receiver_columns), expected)
        assert type(graph) is not Digraph

    def test_senders_sharing_a_repr_fall_in_column_order(self):
        class Named:
            """A node whose repr is not unique."""

            def __repr__(self):
                return "same"

        first, second, receiver = Named(), Named(), "receiver"
        graph = Digraph(edges=[(second, receiver), (first, receiver)])
        nodes = (first, second, receiver)
        indptr, indices, _, _ = bucket_plane(graph, nodes, np.array([2]))
        assert indptr.tolist() == [0, 2]
        assert indices.tolist() == [0, 1]


def repr_sorted_edges(graph):
    """Every edge in canonical sender-major order, built as before the
    array sort: senders, and each sender's out-neighbours, sorted by
    ``repr``."""
    return tuple(
        (sender, target)
        for sender in sorted(graph.nodes, key=repr)
        for target in sorted(graph.out_neighbors(sender), key=repr)
    )


def dict_csr_edge_pos(engine, edges):
    """Each CSR slot's position in ``edges``, found as before the bulk
    lookup: one dict lookup of the slot's node pair."""
    edge_index = {edge: position for position, edge in enumerate(edges)}
    receivers = np.repeat(engine._ff_cols, np.diff(engine.csr_indptr))
    nodes = engine.nodes
    return np.array(
        [
            edge_index[(nodes[sender], nodes[receiver])]
            for sender, receiver in zip(
                engine.csr_indices.tolist(), receivers.tolist()
            )
        ],
        dtype=np.int64,
    )


class TestEdgeOrderMatchesTheReprSort:
    """``ScheduleLayout``'s one array sort and the engines' bulk edge
    lookup equal the per-sender ``repr`` sort and the per-slot dict lookup
    they replaced, on every graph whose nodes have distinct ``repr``s."""

    @pytest.mark.parametrize("label", sorted(NODE_LABELS))
    @pytest.mark.parametrize("seed", range(8))
    def test_set_built_graphs(self, label, seed):
        graph, n, _, _ = random_edge_graph(seed, NODE_LABELS[label])
        edges = repr_sorted_edges(graph)
        layout = ScheduleLayout.for_graph(graph)
        assert layout.edges == edges
        assert layout.edge_count == len(edges)
        assert layout.edge_index == {edge: i for i, edge in enumerate(edges)}
        assert layout.node_order == tuple(sorted(graph.nodes, key=repr))
        for engine in (
            VectorizedEngine(graph, TrimmedMeanRule(0), schedule=StaticSchedule()),
            VectorizedAsyncEngine(graph, TrimmedMeanRule(0), max_delay=1),
        ):
            assert engine._csr_edge_pos.dtype == np.int64
            assert np.array_equal(
                engine._csr_edge_pos, dict_csr_edge_pos(engine, edges)
            )

    @pytest.mark.parametrize("n", [101, 1200])
    def test_an_array_built_lattice(self, n):
        graph = heterogeneous_ring_lattice(n, 2, rng=n)
        edges = repr_sorted_edges(heterogeneous_ring_lattice(n, 2, rng=n))
        assert ScheduleLayout.for_graph(graph).edges == edges
        engine = VectorizedEngine(
            graph,
            TrimmedMeanRule(2),
            faulty=random_fault_set(graph, 2, rng=n),
            schedule=StaticSchedule(),
        )
        assert np.array_equal(engine._csr_edge_pos, dict_csr_edge_pos(engine, edges))
        assert type(graph) is not Digraph, "the neighbour sets were built"

    def test_nodes_sharing_a_repr_fall_in_column_order(self):
        class Named:
            """A node whose repr is not unique."""

            def __repr__(self):
                return "same"

        receiver = "receiver"
        graph = Digraph(edges=[(Named(), receiver), (Named(), receiver)])
        layout = ScheduleLayout.for_graph(graph)
        assert layout.node_order[0] == receiver
        assert layout.edges == tuple(
            (sender, receiver) for sender in layout.node_order[1:]
        )

    def test_a_pair_that_is_no_edge_is_refused(self):
        layout = ScheduleLayout.for_graph(core_network(7, 2))
        with pytest.raises(InvalidParameterError, match="not an edge"):
            layout.edge_positions(np.array([0]), np.array([0]))
        with pytest.raises(InvalidParameterError, match="not an edge"):
            layout.edge_positions(np.array([6]), np.array([7]))


class LegacyAdaptiveStrategy(BatchStrategy):
    """:class:`BatchAdaptiveStrategy` as it was before it read the engine's
    plane: it built its own probe plane (a second :func:`bucket_plane` call
    and a node-pair dict lookup per plane slot) and replayed the update rule
    its ``rule_mode`` named."""

    def __init__(self, mode, delta, rule_mode):
        self._mode = mode
        self._delta = float(delta)
        self._rule_mode = rule_mode
        self._plane = None
        self.name = f"legacy-adaptive({mode})"

    @staticmethod
    def build_plane(context):
        receivers = np.asarray(context.fault_free_columns)
        indptr, indices, plane, plane_order = bucket_plane(
            context.graph, context.nodes, receivers
        )
        plane_indices = indices[plane_order]
        plane_receivers = np.repeat(receivers, np.diff(indptr))[plane_order]
        channel_index = {
            edge: position for position, edge in enumerate(context.edge_nodes)
        }
        nodes = context.nodes
        channels, slots = [], []
        for slot, (sender, receiver) in enumerate(
            zip(plane_indices.tolist(), plane_receivers.tolist())
        ):
            channel = channel_index.get((nodes[sender], nodes[receiver]))
            if channel is not None:
                channels.append(channel)
                slots.append(slot)
        channel_slots = np.array(slots, dtype=np.int64)
        channel_order = np.array(channels, dtype=np.int64)
        joined = plane_indices.copy()
        joined[channel_slots] = len(nodes) + channel_order
        return SimpleNamespace(
            layout=plane,
            slots=joined,
            channels=channel_order,
            channel_slots=channel_slots,
            channel_receivers=plane_receivers[channel_slots],
        )

    def _probe(self, context, fill, layout):
        state = context.state
        slots = layout.slots
        mask = context.active_edge_mask
        if mask is not None:
            down = ~mask[layout.channels]
            if down.any():
                slots = slots.copy()
                slots[layout.channel_slots[down]] = layout.channel_receivers[down]
        source = np.concatenate([state, fill], axis=1, dtype=state.dtype)
        new_state = np.empty_like(state)
        reduce_plane(
            source, slots, state, new_state, layout.layout, context.f, self._rule_mode
        )
        values = fault_free_block(new_state, context.fault_free_columns)
        return values.max(axis=1) - values.min(axis=1)

    def edge_values(self, context):
        batch = context.batch_size
        channels = len(context.edge_nodes)
        if channels == 0:
            return np.zeros((batch, 0))
        fault_free = context.fault_free_states
        lower, upper = fault_free.min(axis=1), fault_free.max(axis=1)
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
        if self._plane is None:
            self._plane = self.build_plane(context)
        spreads = np.stack(
            [
                self._probe(context, fill, self._plane)
                for fill in (split_fill, high_fill, low_fill)
            ]
        )
        best = np.argmax(spreads, axis=0)
        out = split_fill.copy()
        out[best == 1] = high_fill[best == 1]
        out[best == 2] = low_fill[best == 2]
        return out


def relabelled(graph, label):
    """``graph`` with node ``i`` renamed ``label(i)``, built per edge."""
    return Digraph(
        nodes=[label(node) for node in graph.nodes],
        edges=[(label(source), label(target)) for source, target in graph.edges],
    )


def adaptive_case(seed):
    """Graph ``seed`` of the adaptive differential and its fault budget:
    eight families, with int, str and tuple node names, set-built and
    array-built, each at six sizes."""
    family, size = seed % 8, seed // 8
    if family == 0:
        return core_network(7 + size, 2), 2
    if family == 1:
        return chord_network(11 + size, 2), 2
    if family == 2:
        return k_in_regular_digraph(12 + size, 5, rng=seed), 2
    if family == 3:
        return relabelled(core_network(6 + size, 1), NODE_LABELS["str"]), 1
    if family == 4:
        graph = k_in_regular_digraph(10 + size, 5, rng=seed)
        return relabelled(graph, NODE_LABELS["tuple"]), 2
    if family == 5:
        return heterogeneous_ring_lattice(30 + 5 * size, 2, rng=seed), 2
    if family == 6:
        return complete_graph(4 + size), 1
    return k_in_regular_digraph(15 + size, 3, rng=seed), 1


ADAPTIVE_CASES = tuple(adaptive_case(seed) for seed in range(48))


def adaptive_schedule(kind, graph, seed):
    if kind == "static":
        return StaticSchedule()
    if kind == "periodic":
        edges = ScheduleLayout.for_graph(graph).edges
        return PeriodicEdgeSchedule([edges[::3], (), edges[1::4]])
    return ComposedSchedule(
        RandomEdgeSchedule(p_up=0.8, seed=seed),
        RandomChurnSchedule(p_awake=0.85, seed=seed),
    )


class TestAdaptiveProbeReadsTheEnginePlane:
    """The lookahead probe reads the engine's plane, which holds exactly the
    arrays it used to build, so every run equals one driven by the legacy
    builder replaying the engine's rule."""

    @pytest.mark.parametrize("mode", ["greedy", "lookahead"])
    @pytest.mark.parametrize("rule_mode", ["mean", "midpoint"])
    @pytest.mark.parametrize("schedule_kind", ["static", "periodic", "composed"])
    @pytest.mark.parametrize("engine_kind", ["sync", "async"])
    def test_runs_match_the_legacy_probe(
        self, engine_kind, schedule_kind, rule_mode, mode
    ):
        rule_class = TrimmedMeanRule if rule_mode == "mean" else TrimmedMidpointRule
        config = SimulationConfig(
            max_rounds=12, tolerance=0.0, stop_on_convergence=False
        )
        for seed, (graph, f) in enumerate(ADAPTIVE_CASES):
            faulty = random_fault_set(graph, f, rng=seed)
            outcomes = []
            for adversary in (
                BatchAdaptiveStrategy(mode=mode, delta=0.75),
                LegacyAdaptiveStrategy(mode, 0.75, rule_mode),
            ):
                schedule = adaptive_schedule(schedule_kind, graph, seed)
                if engine_kind == "sync":
                    engine = VectorizedEngine(
                        graph, rule_class(f), faulty, adversary, config, schedule
                    )
                    run = engine.run_batch
                else:
                    engine = VectorizedAsyncEngine(
                        graph, rule_class(f), faulty, adversary, config,
                        max_delay=2, update_probability=0.85, schedule=schedule,
                    )
                    run = partial(engine.run_batch, rng=seed)
                outcomes.append(run(random_input_matrix(engine.nodes, 3, rng=seed)))
            new, legacy = outcomes
            label = f"case {seed}"
            assert new.final_states.tobytes() == legacy.final_states.tobytes(), label
            assert new.spread_history.tobytes() == legacy.spread_history.tobytes()
            assert new.validity_ok.tolist() == legacy.validity_ok.tolist()

    @pytest.mark.parametrize("engine_class", [VectorizedEngine, VectorizedAsyncEngine])
    @pytest.mark.parametrize("rule_class", [TrimmedMeanRule, TrimmedMidpointRule])
    def test_the_context_plane_holds_the_legacy_arrays(self, engine_class, rule_class):
        for seed, (graph, f) in enumerate(ADAPTIVE_CASES):
            engine = engine_class(
                graph, rule_class(f), faulty=random_fault_set(graph, f, rng=seed)
            )
            state = engine.pack_inputs(random_input_matrix(engine.nodes, 2, rng=seed))
            context = engine._context(state, 1)
            plane, legacy = context.plane, LegacyAdaptiveStrategy.build_plane(context)
            mode = "mean" if rule_class is TrimmedMeanRule else "midpoint"
            assert plane.mode == mode
            assert np.array_equal(plane.slots, legacy.slots)
            channel_slots = plane.channel_slots[legacy.channels]
            assert np.array_equal(channel_slots, legacy.channel_slots)
            assert np.array_equal(np.sort(plane.channel_slots), legacy.channel_slots)
            assert np.array_equal(
                context.edge_target_columns[legacy.channels], legacy.channel_receivers
            )
            assert np.array_equal(plane.layout.starts, legacy.layout.starts)
            assert np.array_equal(plane.layout.receivers, legacy.layout.receivers)


def repr_sorted_draw_layout(context):
    """The noise strategy's draw layout as built before it read the edge
    arrays: one ``repr`` sort of each faulty sender's out-neighbours."""
    channel_index = {edge: i for i, edge in enumerate(context.edge_nodes)}
    spans, offset = [], 0
    positions = np.zeros(len(context.edge_nodes), dtype=int)
    for sender in sorted(context.faulty, key=repr):
        neighbors = sorted(context.graph.out_neighbors(sender), key=repr)
        spans.append((offset, len(neighbors)))
        for rank, receiver in enumerate(neighbors):
            channel = channel_index.get((sender, receiver))
            if channel is not None:
                positions[channel] = offset + rank
        offset += len(neighbors)
    return spans, positions


def test_noise_draw_layout_matches_the_repr_sort():
    """``BatchRandomNoiseStrategy`` reads its draw spans and positions from
    the edge arrays; they equal the per-sender ``repr`` sort on the 48
    adaptive cases (int, str and tuple names, set- and array-built)."""
    for seed, (graph, f) in enumerate(ADAPTIVE_CASES):
        engine = VectorizedEngine(
            graph, TrimmedMeanRule(f), faulty=random_fault_set(graph, f, rng=seed)
        )
        state = engine.pack_inputs(random_input_matrix(engine.nodes, 1, rng=seed))
        context = engine._context(state, 1)
        spans, positions = BatchRandomNoiseStrategy(-1.0, 1.0)._build_layout(context)
        legacy_spans, legacy_positions = repr_sorted_draw_layout(context)
        assert spans == legacy_spans, f"case {seed}"
        assert np.array_equal(positions, legacy_positions), f"case {seed}"


class TestLargeNPathBuildsNoSets:
    """E14's path reads the lattice's edge arrays only: building its
    neighbour sets at n = 10^5 would cost as much as the rounds."""

    def test_random_noise_run(self):
        graph = heterogeneous_ring_lattice(3000, 2, rng=5)
        engine = VectorizedEngine(
            graph,
            TrimmedMeanRule(2),
            faulty=random_fault_set(graph, 2, rng=6),
            adversary=BatchRandomNoiseStrategy(-1.0, 1.0, rng=8),
            config=SimulationConfig(max_rounds=3, record_history=False),
        )
        outcome = engine.run_batch(random_input_matrix(engine.nodes, 2, rng=7))
        assert outcome.all_valid
        assert type(graph) is not Digraph, "the neighbour sets were built"

    def test_generator_to_run_batch(self):
        graph = heterogeneous_ring_lattice(3000, 2, rng=5)
        faulty = random_fault_set(graph, 2, rng=6)
        engine = VectorizedEngine(
            graph,
            TrimmedMeanRule(2),
            faulty=faulty,
            adversary=BatchExtremePushStrategy(delta=1.5),
            config=SimulationConfig(max_rounds=3, record_history=False),
        )
        outcome = engine.run_batch(random_input_matrix(engine.nodes, 2, rng=7))
        assert outcome.all_valid
        assert type(graph) is not Digraph, "the neighbour sets were built"

    @pytest.mark.parametrize("n, dtype", [(2001, "float64"), (2500, "float32")])
    def test_large_n_cell(self, monkeypatch, n, dtype):
        graphs = []

        def capture(*args, **kwargs):
            graphs.append(heterogeneous_ring_lattice(*args, **kwargs))
            return graphs[-1]

        monkeypatch.setattr(scale, "heterogeneous_ring_lattice", capture)
        [row] = scale.large_n_cell(n, dtype, batch=2, rounds=3)
        assert not row["equivalence_checked"] and row["all_validity_ok"]
        assert type(graphs[0]) is not Digraph, "the neighbour sets were built"


class TestValidation:
    def test_rejects_unsupported_dtype(self):
        graph = complete_graph(5)
        with pytest.raises(InvalidParameterError):
            VectorizedEngine(graph, TrimmedMeanRule(1), dtype=np.int32)
        with pytest.raises(InvalidParameterError):
            VectorizedEngine(graph, TrimmedMeanRule(1), dtype=np.float16)

    @pytest.mark.parametrize("stop_on_convergence", [True, False])
    @pytest.mark.parametrize("engine_kind", BATCH_ENGINE_KINDS)
    def test_rejects_empty_batch(self, engine_kind, stop_on_convergence):
        """A ``(0, n)`` input matrix is rejected like an empty value-map list."""
        config = SimulationConfig(
            max_rounds=5, stop_on_convergence=stop_on_convergence
        )
        engine = make_batch_engine(
            engine_kind, core_network(9, 1), TrimmedMeanRule(1), config=config
        )
        empty = np.empty((0, len(engine.nodes)))
        with pytest.raises(InvalidParameterError, match="at least one input"):
            engine.run_batch(empty)
        with pytest.raises(InvalidParameterError, match="at least one input"):
            engine.run_batch([])


class TestPlaneFootprint:
    def test_float32_halves_the_per_row_footprint(self):
        f64 = VectorizedEngine(core_network(10, 2), TrimmedMeanRule(2))
        f32 = VectorizedEngine(
            core_network(10, 2), TrimmedMeanRule(2), dtype=np.float32
        )
        assert f32.plane_bytes_per_row * 2 == f64.plane_bytes_per_row

    def test_compiled_kernel_allocates_below_the_numpy_plane(self):
        """The compiled kernel builds no message plane: its peak traced
        allocation in one round is under half the NumPy kernel's, and the
        two rounds are equal."""
        if native.kernel() is None:
            pytest.skip(native.status())
        graph = k_in_regular_digraph(1500, 8, rng=3)
        engine = VectorizedEngine(graph, TrimmedMeanRule(2))
        state = engine.pack_inputs(random_input_matrix(engine.nodes, 48, rng=1))

        def peak_bytes():
            tracemalloc.start()
            stepped = engine.step_matrix(state, 1)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak, stepped

        with numpy_kernel():
            numpy_peak, numpy_state = peak_bytes()
        native_peak, native_state = peak_bytes()
        assert np.array_equal(native_state, numpy_state)
        assert native_peak < numpy_peak * 0.5, (
            f"compiled peak {native_peak} not below half of the NumPy "
            f"kernel's {numpy_peak}"
        )


class TestRouting:
    @pytest.mark.parametrize("synchronous", [True, False], ids=["sync", "async"])
    def test_run_consensus_rejects_sparse_engine(self, synchronous):
        """The CSR plane is ``engine="vectorized"``; ``"sparse"`` is gone."""
        graph = core_network(9, 1)
        with pytest.raises(InvalidParameterError, match="engine must be one of"):
            run_consensus(
                graph, f=1, seed=4, engine="sparse", synchronous=synchronous
            )

    @pytest.mark.parametrize(
        "options", [{"update_probability": 0.5}, {"seed": 3}], ids=["p", "seed"]
    )
    def test_cross_check_engines_rejects_async_options_without_max_delay(
        self, options
    ):
        """Async-only options without ``max_delay`` would silently run the
        synchronous pair, so they are rejected."""
        graph = core_network(9, 1)
        with pytest.raises(InvalidParameterError, match="max_delay"):
            cross_check_engines(
                graph,
                TrimmedMeanRule(1),
                uniform_random_inputs(graph.nodes, rng=2),
                faulty={8},
                adversary=ExtremePushStrategy(1.0),
                rounds=3,
                **options,
            )

    def test_sparse_engine_is_a_vectorized_engine_alias(self):
        graph = core_network(9, 1)
        engines = [
            cls(
                graph,
                TrimmedMeanRule(1),
                faulty={8},
                adversary=ExtremePushStrategy(1.0),
            )
            for cls in (SparseEngine, VectorizedEngine)
        ]
        matrix = random_input_matrix(engines[0].nodes, 4, rng=2)
        outcomes = [engine.run_batch(matrix) for engine in engines]
        assert np.array_equal(outcomes[0].final_states, outcomes[1].final_states)

    def test_run_vectorized_float32_cross_check_passes(self):
        """The cross-check runs at float64 whatever dtype the run uses."""
        graph = core_network(9, 1)
        inputs = uniform_random_inputs(graph.nodes, rng=2)
        adversary = ExtremePushStrategy(1.0)
        report = cross_check_engines(
            graph, TrimmedMeanRule(1), inputs, {8}, adversary, rounds=30
        )
        assert report.identical, report
        outcome = run_vectorized(
            graph,
            TrimmedMeanRule(1),
            inputs,
            faulty={8},
            adversary=adversary,
            max_rounds=30,
            dtype=np.float32,
        )
        assert outcome.validity_ok

    def test_cross_check_engines_midpoint_identical(self):
        graph = core_network(11, 2)
        report = cross_check_engines(
            graph,
            TrimmedMidpointRule(2),
            uniform_random_inputs(graph.nodes, rng=6),
            faulty={9, 10},
            adversary=ExtremePushStrategy(1.5),
            config=SimulationConfig(max_rounds=15),
        )
        assert report.identical
        assert report.rounds_checked == 15
        assert report.max_abs_difference == 0.0


class TestFloat32Plumbing:
    def test_pack_and_step_stay_float32(self):
        engine = VectorizedEngine(
            core_network(9, 1),
            TrimmedMeanRule(1),
            faulty={8},
            adversary=ExtremePushStrategy(1.0),
            dtype=np.float32,
        )
        state = engine.pack_inputs(uniform_random_inputs(engine.graph.nodes, rng=1))
        assert state.dtype == np.float32
        stepped = engine.step_matrix(state, 1)
        assert stepped.dtype == np.float32

    def test_run_vectorized_float32_converges(self):
        graph = core_network(9, 1)
        outcome = run_vectorized(
            graph,
            TrimmedMeanRule(1),
            uniform_random_inputs(graph.nodes, rng=3),
            faulty={8},
            adversary=ExtremePushStrategy(1.0),
            max_rounds=200,
            tolerance=1e-4,
            dtype=np.float32,
        )
        assert outcome.converged
        assert outcome.validity_ok
