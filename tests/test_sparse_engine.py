"""Unit tests for the CSR message plane of the batch engines.

Covers what the differential suites don't: the CSR layout itself (and the
asynchronous engine's channel axis, which must be the CSR order), parameter
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
    BatchExtremePushStrategy,
    BatchRandomNoiseStrategy,
    ExtremePushStrategy,
)
from repro.algorithms import TrimmedMeanRule, TrimmedMidpointRule
from repro.exceptions import InvalidParameterError
from repro.graphs import complete_graph, core_network, k_in_regular_digraph
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
from repro.simulation import native
from repro.simulation.sparse import SparseEngine
from repro.simulation.vectorized import random_input_matrix

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
