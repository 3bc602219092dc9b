"""Unit tests for the CSR message plane of the batch engines.

Covers what the differential suites don't: the CSR layout itself (pinned
against the per-receiver build it replaced, the asynchronous engine's channel
axis, which must be the CSR order, and the large-``n`` path, which must
never build the graph's neighbour sets), parameter
validation, the rejection of empty batches, the ``plane_tile_rows`` budget
arithmetic, the memory-tiling regression (tiled == untiled bit-for-bit, and
the tiled kernel actually allocates less), the ``run_consensus`` engine
names, the ``cross_check_engines`` option checks, and the float32 dtype
plumbing.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.adversary import (
    BatchAdaptiveStrategy,
    BatchExtremePushStrategy,
    BatchRandomNoiseStrategy,
    ExtremePushStrategy,
)
from repro.adversary.selection import random_fault_set
from repro.algorithms import TrimmedMeanRule, TrimmedMidpointRule
from repro.exceptions import InvalidParameterError
from repro.experiments import scale
from repro.graphs import (
    Digraph,
    complete_graph,
    core_network,
    heterogeneous_ring_lattice,
    k_in_regular_digraph,
)
from repro.simulation import (
    SimulationConfig,
    VectorizedAsyncEngine,
    VectorizedEngine,
    canonical_edge_order,
    cross_check_engines,
    run_consensus,
    run_vectorized,
    uniform_random_inputs,
)
from repro.simulation import native, vectorized
from repro.simulation.sparse import SparseEngine
from repro.simulation.vectorized import (
    bucket_plane,
    plane_layout,
    random_input_matrix,
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
        rng_edges = canonical_edge_order(graph)
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

    @pytest.mark.parametrize("seed", range(6))
    def test_the_adaptive_probe_plane_matches(self, seed, monkeypatch):
        graph = heterogeneous_ring_lattice(40 + seed, 2, rng=seed)
        faulty = random_fault_set(graph, 2, rng=seed)
        strategy = BatchAdaptiveStrategy(mode="lookahead")
        engine = VectorizedEngine(
            graph, TrimmedMeanRule(2), faulty=faulty, adversary=strategy
        )
        state = engine.pack_inputs(random_input_matrix(engine.nodes, 2, rng=seed))
        context = engine._context(state, 1)
        probe = strategy._build_layout(context)
        monkeypatch.setattr(vectorized, "bucket_plane", per_receiver_bucket_plane)
        expected = strategy._build_layout(context)
        for name in ("slots", "channels", "channel_slots", "channel_receivers"):
            assert np.array_equal(getattr(probe, name), getattr(expected, name))
        assert np.array_equal(probe.layout.starts, expected.layout.starts)
        assert np.array_equal(probe.layout.receivers, expected.layout.receivers)

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


class TestLargeNPathBuildsNoSets:
    """E14's path reads the lattice's edge arrays only: building its
    neighbour sets at n = 10^5 would cost as much as the rounds."""

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

    def test_rejects_nonpositive_budget(self):
        graph = complete_graph(5)
        with pytest.raises(InvalidParameterError):
            VectorizedEngine(graph, TrimmedMeanRule(1), max_plane_bytes=0)
        with pytest.raises(InvalidParameterError):
            VectorizedEngine(graph, TrimmedMeanRule(1), max_plane_bytes=-8)

    def test_plane_tile_rows_rejects_bad_batch(self):
        engine = VectorizedEngine(complete_graph(5), TrimmedMeanRule(1))
        with pytest.raises(InvalidParameterError):
            engine.plane_tile_rows(0)

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


class TestTileArithmetic:
    def test_no_budget_means_one_tile(self):
        engine = VectorizedEngine(complete_graph(6), TrimmedMeanRule(1))
        assert engine.max_plane_bytes is None
        assert engine.plane_tile_rows(17) == 17

    def test_budget_floors_at_one_row(self):
        engine = VectorizedEngine(
            complete_graph(6), TrimmedMeanRule(1), max_plane_bytes=1
        )
        assert engine.plane_tile_rows(8) == 1

    def test_budget_rounds_down_to_whole_rows(self):
        engine = VectorizedEngine(complete_graph(6), TrimmedMeanRule(1))
        per_row = engine.plane_bytes_per_row
        budgeted = VectorizedEngine(
            complete_graph(6),
            TrimmedMeanRule(1),
            max_plane_bytes=3 * per_row + per_row // 2,
        )
        assert budgeted.plane_tile_rows(8) == 3
        assert budgeted.plane_tile_rows(2) == 2

    def test_float32_halves_the_per_row_footprint(self):
        f64 = VectorizedEngine(core_network(10, 2), TrimmedMeanRule(2))
        f32 = VectorizedEngine(
            core_network(10, 2), TrimmedMeanRule(2), dtype=np.float32
        )
        assert f32.plane_bytes_per_row * 2 == f64.plane_bytes_per_row


class TestTilingRegression:
    @pytest.mark.parametrize("adversary_factory", [
        lambda: None,
        lambda: ExtremePushStrategy(2.0),
        lambda: BatchExtremePushStrategy(2.0),
        lambda: BatchRandomNoiseStrategy(-3.0, 3.0, rng=5),
    ])
    def test_tiled_equals_untiled_bit_for_bit(self, adversary_factory):
        """A tiny tile budget never changes a single bit of the outputs.

        Includes the RNG-backed noise strategy: the adversary runs once per
        round on the full batch, so its draw sequence is identical whether
        the kernel then processes 1 row or all of them per tile.
        """
        graph = core_network(14, 2)
        faulty = frozenset({12, 13})
        config = SimulationConfig(
            max_rounds=10, tolerance=0.0, stop_on_convergence=False
        )
        outcomes = {}
        for budget in (None, 1):  # 1 byte -> one row per tile
            engine = VectorizedEngine(
                graph,
                TrimmedMeanRule(2),
                faulty=faulty,
                adversary=adversary_factory(),
                config=config,
                max_plane_bytes=budget,
            )
            matrix = random_input_matrix(engine.nodes, 16, rng=7)
            outcomes[budget] = engine.run_batch(matrix)
        assert np.array_equal(
            outcomes[None].final_states, outcomes[1].final_states
        )
        assert np.array_equal(
            outcomes[None].final_spread, outcomes[1].final_spread
        )
        assert np.array_equal(
            outcomes[None].validity_ok, outcomes[1].validity_ok
        )

    def test_tiling_caps_peak_kernel_allocations(self):
        """The tiled NumPy kernel's peak traced allocation is a fraction of
        the untiled one on a plane that is large relative to the budget,
        and the compiled kernel, which builds no plane, stays below both."""
        graph = k_in_regular_digraph(1500, 8, rng=3)
        rule = TrimmedMeanRule(2)
        batch = 48

        def peak_bytes(budget):
            engine = VectorizedEngine(graph, rule, max_plane_bytes=budget)
            state = engine.pack_inputs(
                random_input_matrix(engine.nodes, batch, rng=1)
            )
            tracemalloc.start()
            stepped = engine.step_matrix(state, 1)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak, stepped

        budget = VectorizedEngine(graph, rule).plane_bytes_per_row * 4
        with numpy_kernel():
            untiled_peak, untiled_state = peak_bytes(None)
            tiled_peak, tiled_state = peak_bytes(budget)
        assert np.array_equal(untiled_state, tiled_state)
        assert tiled_peak < untiled_peak * 0.5, (
            f"tiled peak {tiled_peak} not below half of untiled "
            f"{untiled_peak}"
        )
        if native.kernel() is None:
            pytest.skip(native.status())
        native_peak, native_state = peak_bytes(None)
        assert np.array_equal(native_state, untiled_state)
        assert native_peak < tiled_peak, (
            f"compiled untiled peak {native_peak} not below the NumPy tiled "
            f"peak {tiled_peak}"
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
