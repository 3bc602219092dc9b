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
from pathlib import Path
from typing import TYPE_CHECKING, Any

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
    :class:`~repro.simulation.vectorized.PlaneLayout` its own arrays.
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
        failed = self._functions[source.dtype](
            source.ctypes.data,
            source.shape[1],
            source.shape[0],
            slots.ctypes.data,
            layout.receivers.ctypes.data,
            layout.starts.ctypes.data,
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
    """Say which plane kernel runs on this machine and why."""
    kernel()
    return str(_state["status"])


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

