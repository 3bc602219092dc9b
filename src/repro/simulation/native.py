"""The compiled plane kernel: built, cached, loaded and checked on first use.

:func:`~repro.simulation.vectorized.reduce_plane` runs one round of
Algorithm 1 for a tile of batch rows.  Its NumPy form gathers a ``(B, nnz)``
plane and sorts, trims and sums it slab by slab;
``plane_kernel.c`` does the same per receiver in one pass (gather, sort,
trim, sum) without building the plane.  Importing this module does nothing.
The first :func:`kernel` call:

1. looks for the library in a cache keyed by a hash of the C source, the
   compiler flags and the machine.  The cache is the package's
   ``__pycache__/`` (where CPython keeps bytecode), or a per-process temp
   directory when that cannot be written;
2. on a miss, compiles the source with the system C compiler (``cc``,
   ``gcc`` or ``clang``, with :data:`FLAGS`: no fast-math, no ``-march``)
   into a temp name and moves it into place with ``os.replace``, so
   workers racing to build it are safe;
3. loads it with :mod:`ctypes`;
4. checks it against the NumPy kernel on a fixed plane of random layouts
   with duplicates, ±0, ±inf and NaN, at both dtypes and in both modes.

If any step fails, :func:`kernel` returns ``None`` and the NumPy kernel
stays in use; :func:`status` says which kernel runs and why.  What the
machine can do is the only thing that selects the kernel.

``reduce_plane`` splits a call of at least :data:`SPLIT_SLOT_READS` slot
reads into row chunks that run at once (:func:`split_parts`,
:func:`run_split`) on threads that live only for that call, so a forked
worker starts with none; every row's output is the same bits.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:
    from repro.simulation.vectorized import PlaneLayout

#: The C source, shipped as package data next to this module.
SOURCE = Path(__file__).with_name("plane_kernel.c")

#: Compiler flags.  ``-ffp-contract=off`` keeps ``a * b + c`` from fusing;
#: no fast-math and no ``-march``, so every operation rounds as NumPy's do.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: C compilers tried in order, by name on ``PATH``.
COMPILERS = ("cc", "gcc", "clang")

#: Directory of the library cache.
CACHE_DIR = Path(__file__).with_name("__pycache__")

#: Fewest slot reads (rows × plane slots) a call splits across CPUs at.
#: Starting and joining a thread costs ~50 µs on a 2-vCPU VM, where a
#: two-way split of 2**17 reads runs 1.38× faster and one of 2**16 reads
#: about breaks even (docs/performance.md).
SPLIT_SLOT_READS = 2**17

#: The loaded kernel (``None`` when unavailable) and the reason, once known.
_state: dict[str, Any] = {}


class NativeUnavailableError(Exception):
    """One step of building, loading or checking the library failed."""


class NativeKernel:
    """The loaded library's two entry points, one per state dtype.

    Arrays cross as raw addresses (``ndarray.ctypes.data``) rather than
    through ``np.ctypeslib.ndpointer`` argument types: on a 2.1 GHz Xeon
    with NumPy 2.4, ndpointer's per-array checks cost ~30 µs per call,
    more than the whole NumPy kernel takes for a round at n = 7.
    ``reduce_plane`` checks the operands once instead, and
    :class:`~repro.simulation.vectorized.PlaneLayout` its own arrays, whose
    addresses it keeps.
    """

    def __init__(self, library: ctypes.CDLL) -> None:
        address, count = ctypes.c_void_p, ctypes.c_int64
        self._functions: dict[np.dtype[Any], Any] = {}
        # reprolint: disable=EXA003 -- the float32 entry point of the documented dtype= plumbing
        for dtype, name in ((np.float64, "f64"), (np.float32, "f32")):
            function = getattr(library, f"reduce_plane_{name}")
            function.argtypes = [
                address, count, count, address, address, address, count,
                count, address, address, count, count, count,
            ]
            function.restype = ctypes.c_int
            self._functions[np.dtype(dtype)] = function

    def __call__(
        self,
        source: np.ndarray,
        slots: np.ndarray,
        state: np.ndarray,
        out: np.ndarray,
        layout: PlaneLayout,
        f: int,
        mode: str,
    ) -> None:
        """Run the round on operands ``reduce_plane`` checked.

        ``out`` must be C-contiguous; ``source``, ``slots`` and ``state``
        are made so if they are not.
        """
        if not out.flags.c_contiguous:
            raise ValueError("the compiled plane kernel needs a C-contiguous out")
        source = np.ascontiguousarray(source)
        slots = np.ascontiguousarray(slots, dtype=np.int64)
        state = np.ascontiguousarray(state)
        receivers, starts = layout.addresses
        failed = self._functions[source.dtype](
            source.ctypes.data,
            source.shape[1],
            source.shape[0],
            slots.ctypes.data,
            receivers,
            starts,
            layout.receivers.size,
            layout.max_degree,
            state.ctypes.data,
            out.ctypes.data,
            out.shape[1],
            f,
            mode == "midpoint",
        )
        if failed:
            raise MemoryError("the compiled plane kernel could not allocate its buffer")


def cpu_count() -> int:
    """The number of CPUs this process may run on: its affinity set where
    the platform has one, else every CPU of the machine."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def split_parts(rows: int, slots: int) -> int:
    """How many row chunks a call over ``rows`` rows and ``slots`` plane
    slots runs in: one below :data:`SPLIT_SLOT_READS` reads, else one per
    :data:`SPLIT_SLOT_READS` reads, capped at the CPUs and the rows."""
    reads = rows * slots
    if reads < SPLIT_SLOT_READS:
        return 1
    return min(cpu_count(), rows, reads // SPLIT_SLOT_READS)


def run_split(chunk: Callable[[int, int], None], rows: int, parts: int) -> None:
    """Run ``chunk(start, stop)`` on ``parts`` contiguous row ranges at once.

    Range 0 runs on the calling thread, every other range on a thread
    started and joined here, so no thread outlives the call.  An exception
    of any range is re-raised (the first in range order) only after every
    thread has joined.
    """
    bounds = [rows * part // parts for part in range(parts + 1)]
    errors: list[BaseException | None] = [None] * parts

    def guarded(part: int) -> None:
        try:
            chunk(bounds[part], bounds[part + 1])
        except BaseException as exc:  # re-raised by the caller after the join
            errors[part] = exc

    threads: list[threading.Thread] = []
    try:
        for part in range(1, parts):
            thread = threading.Thread(target=guarded, args=(part,))
            thread.start()
            threads.append(thread)
        guarded(0)
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error


def kernel() -> NativeKernel | None:
    """Return the compiled kernel, building it on first use.

    ``None`` means this machine cannot build, load or trust it, and the
    NumPy kernel runs instead.
    """
    if "kernel" not in _state:
        try:
            compiled, where = _load()
            _state.update(kernel=compiled, status=f"compiled kernel {where}")
        except (NativeUnavailableError, OSError) as exc:
            _state.update(kernel=None, status=f"NumPy kernel: {exc}")
    return _state["kernel"]


def status() -> str:
    """Say which plane kernel runs on this machine and why, and how the
    compiled one splits a round."""
    if kernel() is None:
        return str(_state["status"])
    cpus = cpu_count()
    split = (
        f"splits rounds of >= {SPLIT_SLOT_READS} slot reads over {cpus} CPUs"
        if cpus > 1
        else "runs every round on the one CPU this process may use"
    )
    return f"{_state['status']}; {split}"


def _cache_key() -> str:
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(repr((FLAGS, sys.platform, platform.machine())).encode())
    return digest.hexdigest()[:16]


def _load() -> tuple[NativeKernel, Path]:
    """Find or build the library, load it and check it."""
    try:
        name = f"plane_kernel-{_cache_key()}.so"
    except OSError as exc:
        raise NativeUnavailableError(f"cannot read {SOURCE.name}: {exc}") from exc
    path = CACHE_DIR / name
    if not path.is_file():
        try:
            CACHE_DIR.mkdir(exist_ok=True)
            _compile(path)
        except OSError:
            path = Path(_temp_dir()) / name
            _compile(path)
    try:
        compiled = NativeKernel(ctypes.CDLL(str(path)))
    except (OSError, AttributeError) as exc:
        raise NativeUnavailableError(f"cannot load {path}: {exc}") from exc
    _self_check(compiled)
    return compiled, path


def _temp_dir() -> str:
    """A directory of this process, removed when it exits."""
    if "temp_dir" not in _state:
        _state["temp_dir"] = tempfile.TemporaryDirectory(prefix="repro-native-")
    return str(_state["temp_dir"].name)


def _compile(path: Path) -> None:
    """Compile the source to ``path`` through a temp name in its directory."""
    compiler = next(
        (found for name in COMPILERS if (found := shutil.which(name))), None
    )
    if compiler is None:
        raise NativeUnavailableError(
            f"no C compiler found (looked for {', '.join(COMPILERS)})"
        )
    descriptor, temp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem}-", suffix=".tmp"
    )
    os.close(descriptor)
    try:
        try:
            result = subprocess.run(
                [compiler, *FLAGS, "-o", temp, str(SOURCE)],
                capture_output=True,
                text=True,
                timeout=300,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise NativeUnavailableError(f"{compiler} did not run: {exc}") from exc
        if result.returncode != 0:
            raise NativeUnavailableError(
                f"{compiler} failed ({result.returncode}): "
                f"{result.stderr.strip()[:500]}"
            )
        os.chmod(temp, 0o755)  # mkstemp made it private; share it like a .pyc
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):
            os.unlink(temp)


def _self_check(compiled: NativeKernel) -> None:
    """Refuse a library that differs from the NumPy kernel on a fixed plane."""
    # vectorized.py imports this module, so its NumPy kernel is imported
    # here, at first use, when both modules have loaded.
    from repro.simulation.vectorized import plane_layout, reduce_plane_numpy

    # reprolint: disable=RNG004 -- the self-check plane is fixed, not a run's stream
    rng = np.random.default_rng(20120716)
    degrees = [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 33, 70]
    width = 40
    receivers = rng.permutation(width)[: len(degrees)]
    layout, _ = plane_layout(np.array(degrees), receivers, width)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 1.0, -2.5]
    # reprolint: disable=EXA003 -- the check covers both documented state dtypes
    for dtype in (np.float64, np.float32):
        state = rng.choice(specials + list(rng.normal(size=32)), size=(3, width))
        source = np.concatenate(
            [state, rng.choice(specials, size=(3, 9))], axis=1
        ).astype(dtype)
        state = state.astype(dtype)
        slots = rng.integers(0, source.shape[1], size=int(layout.starts[-1]))
        for f in (0, 1, 2, 3):
            for mode in ("mean", "midpoint"):
                expected = np.full_like(state, 7.0)
                observed = expected.copy()
                with np.errstate(invalid="ignore"):  # inf - inf is part of the check
                    reduce_plane_numpy(source, slots, state, expected, layout, f, mode)
                compiled(source, slots, state, observed, layout, f, mode)
                if not np.array_equal(observed, expected, equal_nan=True):
                    raise NativeUnavailableError(
                        f"self-check failed ({np.dtype(dtype)}, f={f}, {mode})"
                    )

