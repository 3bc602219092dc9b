"""The compiled plane kernel against the NumPy one, and its loader.

``reduce_plane`` runs the compiled kernel of :mod:`repro.simulation.native`
when this machine can build it and the NumPy kernel otherwise; both must
give equal outputs (``np.array_equal(..., equal_nan=True)``).  These tests
pin:

* **Differential** — random layouts with f from 0 to 3, degrees from 2f to
  above 64, both modes and both dtypes, values with duplicates, ±0, ±inf
  and NaN, tiles at non-zero row offsets and re-pointed (down) slots;
* **Fallback** — with no C compiler and an empty cache the loader says so,
  and every batch engine gives the outputs it gives with the compiled
  kernel;
* **Guards** — a wrong dtype or shape, an out-of-range slot, a negative f
  or an unknown mode raises before either kernel runs;
* **Loader** — the cache is written through a temp name and reused, an
  unwritable cache directory falls back to a temp directory, and a library
  that fails the self-check is not used;
* **Split** — with the split threshold at one slot read and 2, 3 or 4 CPUs,
  every call equals one serial call byte for byte, no thread outlives a
  call, a chunk's exception reaches the caller only after every thread has
  joined, the NumPy kernel never splits, and the fast fuzz seeds pass with
  every round split.

The parity and fuzz suites cover the engines on both kernels: the conftest
``tiled`` tier runs the NumPy kernel, the other tiers the compiled one.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import shutil
import sys
import threading
import time

import numpy as np
import pytest

import repro.native
import repro.simulation.vectorized as vectorized
from conftest import numpy_kernel
from repro.adversary import BatchAdaptiveStrategy, BatchExtremePushStrategy
from repro.algorithms import TrimmedMeanRule, TrimmedMidpointRule
from repro.exceptions import InvalidParameterError
from repro.graphs import core_network, k_in_regular_digraph
from repro.simulation import (
    RandomChurnSchedule,
    SimulationConfig,
    VectorizedAsyncEngine,
    VectorizedEngine,
    native,
    random_input_matrix,
)
from repro.simulation.vectorized import (
    PlaneLayout,
    plane_layout,
    reduce_plane,
    reduce_plane_numpy,
)

DTYPES = (np.float64, np.float32)

#: Values drawn into every plane besides the random normals.
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, 1.5, -1.5)


def _compiled():
    compiled = native.kernel()
    if compiled is None:
        pytest.skip(native.status())
    return compiled


def _random_case(rng, f, dtype, specials, rows=None):
    """A random layout, source, slots and state for one kernel call; the
    state has ``rows + 2`` rows (1 to 5 rows when ``rows`` is None)."""
    width = int(rng.integers(2, 40))
    count = int(rng.integers(1, min(width, 12) + 1))
    low = 2 * f
    degrees = rng.integers(low, low + 8, size=count)
    # One receiver above 64, so the merge path of the sort runs too.
    degrees[rng.integers(count)] = int(rng.integers(65, 100))
    receivers = rng.permutation(width)[:count]
    layout, _ = plane_layout(degrees, receivers, width)
    rows = int(rng.integers(1, 6)) if rows is None else rows
    channels = int(rng.integers(0, 6))
    pool = np.concatenate([rng.normal(size=16), np.array(specials if specials else [])])
    # Few distinct values, so duplicates are common.
    state = rng.choice(pool, size=(rows + 2, width)).astype(dtype)
    fill = rng.choice(pool, size=(rows + 2, channels)).astype(dtype)
    source = np.concatenate([state, fill], axis=1)
    slots = rng.integers(0, width + channels, size=int(layout.starts[-1]))
    # Re-point some slots to their receiver, as a down channel is.
    owner = np.repeat(layout.receivers, np.diff(layout.starts))
    down = rng.random(slots.size) < 0.2
    slots[down] = owner[down]
    return layout, source, slots, state


@pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
@pytest.mark.parametrize("mode", ["mean", "midpoint"])
@pytest.mark.parametrize("f", [0, 1, 2, 3])
def test_compiled_equals_numpy_on_random_planes(dtype, mode, f):
    _compiled()
    rng = np.random.default_rng([f, len(mode), np.dtype(dtype).itemsize])
    for case in range(40):
        specials = SPECIALS if case % 2 else ()
        layout, source, slots, state = _random_case(rng, f, dtype, specials)
        start = int(rng.integers(0, 3))  # tiles at non-zero row offsets
        rows = slice(start, start + source.shape[0] - 2)
        expected = np.full_like(state, 9.0)
        observed = expected.copy()
        with np.errstate(invalid="ignore"):
            reduce_plane_numpy(
                source[rows], slots, state[rows], expected[rows], layout, f, mode
            )
        reduce_plane(source[rows], slots, state[rows], observed[rows], layout, f, mode)
        assert np.array_equal(observed, expected, equal_nan=True), (case, start)


@pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
@pytest.mark.parametrize("mode", ["mean", "midpoint"])
def test_compiled_equals_numpy_bit_for_bit_on_nonzero_values(dtype, mode):
    """Without zeros or NaN no sign or payload is left open: the outputs
    match byte for byte, the float32 sum, division and clamp included."""
    _compiled()
    rng = np.random.default_rng([7, len(mode), np.dtype(dtype).itemsize])
    for case in range(20):
        f = case % 4
        layout, source, slots, state = _random_case(rng, f, dtype, ())
        expected, observed = np.zeros_like(state), np.zeros_like(state)
        reduce_plane_numpy(source, slots, state, expected, layout, f, mode)
        reduce_plane(source, slots, state, observed, layout, f, mode)
        assert observed.tobytes() == expected.tobytes(), case


def test_compiled_kernel_builds_where_a_compiler_exists():
    if not any(shutil.which(name) for name in repro.native.COMPILERS):
        pytest.skip("no C compiler on this machine")
    assert native.kernel() is not None, native.status()
    assert native.status().startswith("compiled kernel")


def _engine_outputs():
    """Outputs of every batch engine on one configuration each."""
    graph = core_network(12, 2)
    faulty = {10, 11}
    config = SimulationConfig(max_rounds=12, tolerance=0.0, stop_on_convergence=False)
    outputs = []
    for rule in (TrimmedMeanRule(2), TrimmedMidpointRule(2)):
        for dtype in DTYPES:
            engine = VectorizedEngine(
                graph, rule, faulty, BatchExtremePushStrategy(1.0), config, dtype=dtype
            )
            outputs.append(
                engine.run_batch(random_input_matrix(engine.nodes, 5, rng=2)).final_states
            )
    churn = VectorizedEngine(
        k_in_regular_digraph(40, 9, rng=1),
        TrimmedMeanRule(2),
        {0, 1},
        BatchAdaptiveStrategy(),
        config,
        schedule=RandomChurnSchedule(0.7, seed=4),
        max_plane_bytes=1,
    )
    outputs.append(
        churn.run_batch(random_input_matrix(churn.nodes, 4, rng=3)).final_states
    )
    delayed = VectorizedAsyncEngine(
        graph, TrimmedMeanRule(2), faulty, BatchExtremePushStrategy(1.0), config,
        max_delay=2, update_probability=0.8,
    )
    outputs.append(
        delayed.run_batch(random_input_matrix(delayed.nodes, 5, rng=2), rng=6).final_states
    )
    return outputs


def _unloaded(monkeypatch, cache_dir):
    """Stand in a copy of the plane kernel's library that has loaded
    nothing yet and caches in ``cache_dir``."""
    monkeypatch.setattr(
        native, "LIBRARY", dataclasses.replace(native.LIBRARY, cache_dir=cache_dir)
    )


def test_engines_fall_back_to_numpy_without_a_compiler(monkeypatch, tmp_path):
    _compiled()
    compiled_outputs = _engine_outputs()
    _unloaded(monkeypatch, tmp_path)
    monkeypatch.setattr(repro.native, "COMPILERS", ("repro-no-such-cc",))
    assert native.kernel() is None
    assert "no C compiler found" in native.status()
    fallback_outputs = _engine_outputs()
    for compiled, fallback in zip(compiled_outputs, fallback_outputs):
        assert np.array_equal(compiled, fallback)


class _Spy:
    """Stands in for the compiled kernel and records every call."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1


def _valid_operands():
    layout, _ = plane_layout(np.array([2, 3]), np.array([0, 2]), 4)
    state = np.arange(8.0).reshape(2, 4)
    return [state.copy(), np.array([1, 2, 3, 0, 1]), state, np.zeros_like(state), layout, 1, "mean"]


@pytest.mark.parametrize(
    "position,value,message",
    [
        (0, np.arange(8, dtype=np.float32).reshape(2, 4), "one dtype"),
        (0, np.arange(8).reshape(2, 4), "one dtype"),
        (3, np.zeros((2, 4), dtype=np.float32), "one dtype"),
        (1, np.array([1, 2, 3, 0, 4]), "outside"),
        (1, np.array([1, 2, 3, 0, -1]), "outside"),
        (1, np.array([1, 2, 3, 0]), "integer plane slots"),
        (1, np.array([1.0, 2, 3, 0, 1]), "integer plane slots"),
        (2, np.zeros((2, 3)), "state and writable out"),
        (3, np.broadcast_to(np.zeros(4), (2, 4)), "writable out"),
        (5, -1, "f >= 0"),
        (6, "median", "mode"),
    ],
)
def test_bad_operands_raise_before_either_kernel_runs(
    monkeypatch, position, value, message
):
    spy = _Spy()
    monkeypatch.setattr(native, "kernel", lambda: spy)
    operands = _valid_operands()
    reduce_plane(*operands)
    assert spy.calls == 1
    operands[position] = value
    with pytest.raises(InvalidParameterError, match=message):
        reduce_plane(*operands)
    with numpy_kernel(), pytest.raises(InvalidParameterError, match=message):
        reduce_plane(*operands)
    assert spy.calls == 1


@pytest.mark.parametrize(
    "receivers,starts,max_degree",
    [
        ([0, 4], [0, 2, 5], 3),  # a receiver outside the 4 state columns
        ([0, -1], [0, 2, 5], 3),
        ([0, 2], [1, 2, 5], 3),  # segments not starting at 0
        ([0, 2], [0, 3, 2], 3),  # a negative segment
        ([0, 2], [0, 2, 7], 3),  # a segment longer than max_degree
        ([0, 2], [0, 2], 3),  # one start too few
    ],
)
def test_layout_refuses_arrays_the_compiled_kernel_would_misread(
    receivers, starts, max_degree
):
    with pytest.raises(InvalidParameterError, match="PlaneLayout"):
        PlaneLayout(
            buckets=(),
            receivers=np.array(receivers, dtype=np.int64),
            starts=np.array(starts, dtype=np.int64),
            width=4,
            max_degree=max_degree,
        )
    with pytest.raises(InvalidParameterError, match="PlaneLayout"):
        PlaneLayout(
            buckets=(),
            receivers=np.array([0, 2], dtype=np.int32),
            starts=np.array([0, 2, 5], dtype=np.int64),
            width=4,
            max_degree=3,
        )


def test_layout_copies_keep_the_addresses_of_their_own_arrays():
    """The compiled kernel reads ``addresses`` unchecked, so a copy must
    never carry the addresses of the arrays it was copied from."""
    layout, _ = plane_layout(np.array([2, 3, 0]), np.array([4, 0, 2]), 5)
    copies = [
        copy.copy(layout),
        copy.deepcopy(layout),
        pickle.loads(pickle.dumps(layout)),
        dataclasses.replace(layout, width=6),
    ]
    for candidate in [layout, *copies]:
        assert candidate.addresses == (
            candidate.receivers.ctypes.data,
            candidate.starts.ctypes.data,
        )
        assert np.array_equal(candidate.receivers, layout.receivers)
        assert np.array_equal(candidate.starts, layout.starts)
    assert copies[1].addresses != layout.addresses


def test_cache_is_written_through_a_temp_name_and_reused(monkeypatch, tmp_path):
    _compiled()
    _unloaded(monkeypatch, tmp_path)
    assert native.kernel() is not None
    built = sorted(path.name for path in tmp_path.iterdir())
    assert len(built) == 1 and built[0].startswith("plane_kernel-")
    assert built[0].endswith(".so")
    # A second process finds the library without a compiler.
    _unloaded(monkeypatch, tmp_path)
    monkeypatch.setattr(repro.native, "COMPILERS", ("repro-no-such-cc",))
    assert native.kernel() is not None
    assert str(tmp_path) in native.status()


def test_unwritable_cache_falls_back_to_a_temp_directory(monkeypatch, tmp_path):
    _compiled()
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    _unloaded(monkeypatch, blocker / "__pycache__")
    assert native.kernel() is not None
    assert "repro-native-" in native.status()
    assert list(tmp_path.iterdir()) == [blocker]


def test_library_failing_its_self_check_is_not_used(monkeypatch, tmp_path):
    _compiled()
    original = reduce_plane_numpy

    def off_by_one_ulp(source, slots, state, out, layout, f, mode):
        original(source, slots, state, out, layout, f, mode)
        out[:] = np.nextafter(out, np.inf)

    _unloaded(monkeypatch, tmp_path)
    monkeypatch.setattr(vectorized, "reduce_plane_numpy", off_by_one_ulp)
    assert native.kernel() is None
    assert "self-check failed" in native.status()


# ---------------------------------------------------------------------------
# Split across CPUs
# ---------------------------------------------------------------------------


def _split_everything(monkeypatch, cpus):
    """Split every call of two or more rows over ``cpus`` CPUs, and return
    the list each call's part count is appended to."""
    monkeypatch.setattr(native, "SPLIT_SLOT_READS", 1)
    monkeypatch.setattr(native, "cpu_count", lambda: cpus)
    parts_seen = []
    split_parts = native.split_parts

    def recording(rows, slots):
        parts_seen.append(split_parts(rows, slots))
        return parts_seen[-1]

    monkeypatch.setattr(native, "split_parts", recording)
    return parts_seen


@pytest.mark.parametrize(
    "rows,slots,cpus,parts",
    [
        (8, 800_000, 2, 2),  # large-n: n = 10^5, B = 8
        (8, 800_000, 4, 4),
        (3, 10**6, 4, 3),  # no more parts than rows
        (1, 10**7, 4, 1),
        (8, 800_000, 1, 1),  # one CPU
        (8, 2**14 - 1, 4, 1),  # below the threshold
        (8, 2**14, 4, 1),  # at it: one threshold's worth per part
        (8, 2**15, 4, 2),
        (32, 90, 2, 1),  # mc-seeds' largest rounds
    ],
)
def test_split_rule(monkeypatch, rows, slots, cpus, parts):
    monkeypatch.setattr(native, "cpu_count", lambda: cpus)
    assert native.split_parts(rows, slots) == parts


def test_cpu_count_is_the_affinity_set_where_there_is_one(monkeypatch):
    assert native.cpu_count() >= 1
    monkeypatch.setattr(repro.native.os, "sched_getaffinity", lambda pid: {0, 3, 5})
    assert native.cpu_count() == 3
    monkeypatch.delattr(repro.native.os, "sched_getaffinity")
    monkeypatch.setattr(repro.native.os, "cpu_count", lambda: 6)
    assert native.cpu_count() == 6


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_split_equals_one_serial_call_byte_for_byte(monkeypatch, cpus):
    """More parts than this machine may have CPUs, and a short switch
    interval, so chunks interleave: a row written twice or not at all
    would show in the bytes."""
    compiled = _compiled()
    parts_seen = _split_everything(monkeypatch, cpus)
    rng = np.random.default_rng([cpus, 11])
    threads = threading.active_count()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _check_every_split(compiled, rng, parts_seen, cpus, threads)
    finally:
        sys.setswitchinterval(switch)


def _check_every_split(compiled, rng, parts_seen, cpus, threads):
    for rows in range(1, 10):
        for dtype in DTYPES:
            for mode in ("mean", "midpoint"):
                for f in range(4):
                    layout, source, slots, state = _random_case(
                        rng, f, dtype, SPECIALS, rows=rows
                    )
                    source, state = source[:rows], state[:rows]
                    expected = np.full_like(state, 9.0)
                    observed = expected.copy()
                    compiled(source, slots, state, expected, layout, f, mode)
                    reduce_plane(source, slots, state, observed, layout, f, mode)
                    assert parts_seen[-1] == min(cpus, rows)
                    assert observed.tobytes() == expected.tobytes(), (rows, f)
                    assert threading.active_count() == threads


def test_a_chunks_exception_arrives_after_every_thread_joined(monkeypatch):
    """A worker chunk fails its allocation while another is still running:
    the MemoryError reaches the caller only once that one has finished."""
    compiled = _compiled()
    _split_everything(monkeypatch, 3)
    layout, source, slots, state = _random_case(
        np.random.default_rng(5), 1, np.float64, SPECIALS, rows=1
    )
    real = compiled._functions[np.dtype(np.float64)]
    row_bytes = source.shape[1] * source.itemsize
    finished = []

    def failing(address, *args):
        start = (address - source.ctypes.data) // row_bytes
        if start == 2:
            return -1
        if start == 1:
            time.sleep(0.2)
        result = real(address, *args)
        finished.append(start)
        return result

    monkeypatch.setitem(compiled._functions, np.dtype(np.float64), failing)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="could not allocate"):
        reduce_plane(source, slots, state, np.zeros_like(state), layout, 1, "mean")
    assert sorted(finished) == [0, 1]
    assert threading.active_count() == threads


def test_the_callers_exception_waits_for_the_workers():
    finished = []

    def chunk(start, stop):
        if start == 0:
            raise ValueError("chunk 0")
        time.sleep(0.1)
        finished.append(start)

    threads = threading.active_count()
    with pytest.raises(ValueError, match="chunk 0"):
        native.run_split(chunk, 9, 3)
    assert sorted(finished) == [3, 6]
    assert threading.active_count() == threads


def test_numpy_kernel_never_splits(monkeypatch):
    _compiled()
    parts_seen = _split_everything(monkeypatch, 4)
    layout, source, slots, state = _random_case(
        np.random.default_rng(6), 1, np.float64, (), rows=7
    )
    expected, observed = np.zeros_like(state), np.zeros_like(state)
    reduce_plane(source, slots, state, expected, layout, 1, "mean")
    assert parts_seen == [4]
    threads = threading.active_count()
    monkeypatch.setattr(native, "run_split", None)
    with numpy_kernel():
        reduce_plane(source, slots, state, observed, layout, 1, "mean")
    assert parts_seen == [4]
    assert threading.active_count() == threads
    assert observed.tobytes() == expected.tobytes()


def test_status_names_the_split(monkeypatch):
    _compiled()
    monkeypatch.setattr(native, "cpu_count", lambda: 2)
    assert native.status().endswith(
        "splits rounds of >= 131072 slot reads over 2 CPUs"
    )
    monkeypatch.setattr(native, "cpu_count", lambda: 1)
    assert native.status().endswith("runs every round on the one CPU this process may use")


def test_fast_fuzz_seeds_pass_with_every_round_split(monkeypatch):
    """Engine-level parity (untiled compiled against tiled NumPy, and row 0
    against the scalar engine) with every compiled round split."""
    _compiled()
    parts_seen = _split_everything(monkeypatch, 3)
    import test_dynamic_fuzz
    import test_sparse_fuzz

    for suite in (test_sparse_fuzz, test_dynamic_fuzz):
        for seed in range(suite.FAST_CASES):
            suite._fuzz_one(seed)
    assert max(parts_seen) == 3
