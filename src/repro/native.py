"""Compiled kernels: built, cached, loaded and self-checked on first use.

Two hot loops of the reproduction have a C form next to a NumPy (or pure
Python) one: the plane kernel of the batch engines
(``repro/simulation/plane_kernel.c``, bound by
:mod:`repro.simulation.native`) and the Theorem-1 search
(``repro/conditions/search_kernel.c``, bound by
:mod:`repro.conditions.search_kernel`).  Each is one
:class:`NativeLibrary`: a C source, a function that binds the loaded
library's entry points, and a self-check that compares the bound entry
points with the interpreted form on fixed inputs.  Importing this module or
creating a :class:`NativeLibrary` does nothing.  The first
:meth:`NativeLibrary.load`:

1. looks for the library in a cache keyed by a hash of the C source, the
   compiler flags and the machine.  The cache is the ``__pycache__/`` next
   to the source (where CPython keeps bytecode), or a per-process temp
   directory when that cannot be written;
2. on a miss, compiles the source with the system C compiler (``cc``,
   ``gcc`` or ``clang``, with :data:`FLAGS`: no fast-math, no ``-march``)
   into a temp name and moves it into place with ``os.replace``, so
   workers racing to build it are safe;
3. loads it with :mod:`ctypes` and binds its entry points;
4. runs the self-check.

If any step fails, :meth:`~NativeLibrary.load` returns ``None`` and the
interpreted form stays in use; :meth:`~NativeLibrary.status` says which
form runs and why.  Each source has its own library, cache file and
status, so a refused search library never disables the plane kernel, nor
the reverse.  What the machine can do is the only thing that selects a
form: no flag, environment variable or configuration field does.
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Generic, TypeVar

#: Compiler flags.  ``-ffp-contract=off`` keeps ``a * b + c`` from fusing;
#: no fast-math and no ``-march``, so every operation rounds as NumPy's do
#: and the library runs on any CPU of the architecture.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: C compilers tried in order, by name on ``PATH``.
COMPILERS = ("cc", "gcc", "clang")

#: The bound entry points of one library.
Bound = TypeVar("Bound")

#: The per-process temp directory, made on first need.
_temp: list[tempfile.TemporaryDirectory[str]] = []


class NativeUnavailableError(Exception):
    """One step of building, loading or checking a library failed."""


def cpu_count() -> int:
    """The number of CPUs this process may run on: its affinity set where
    the platform has one, else every CPU of the machine."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(eq=False)
class NativeLibrary(Generic[Bound]):
    """One C source, built, cached, loaded and checked on first use.

    ``bind`` turns the loaded :class:`ctypes.CDLL` into the object callers
    use (an ``AttributeError`` there, a missing entry point, refuses the
    library); ``check`` raises :class:`NativeUnavailableError` when that
    object differs from the interpreted form.  ``compiled`` and
    ``fallback`` name the two forms in :meth:`status`.  The cache is
    ``cache_dir``, by default the ``__pycache__/`` next to the source.
    ``dataclasses.replace`` gives a copy that has loaded nothing yet.
    """

    source: Path
    bind: Callable[[ctypes.CDLL], Bound]
    check: Callable[[Bound], None]
    compiled: str
    fallback: str
    cache_dir: Path | None = None
    _loaded: Bound | None = field(default=None, init=False, repr=False)
    _status: str | None = field(default=None, init=False, repr=False)

    def load(self) -> Bound | None:
        """Return the bound library, building it on first use.

        ``None`` means this machine cannot build, load or trust it, and the
        interpreted form runs instead.
        """
        if self._status is None:
            try:
                loaded, where = self._load()
                self._loaded, self._status = loaded, f"{self.compiled} {where}"
            except (NativeUnavailableError, OSError) as exc:
                self._loaded, self._status = None, f"{self.fallback}: {exc}"
        return self._loaded

    def status(self) -> str:
        """Say which form runs on this machine and why."""
        self.load()
        return str(self._status)

    def _cache_key(self) -> str:
        digest = hashlib.sha256(self.source.read_bytes())
        digest.update(repr((FLAGS, sys.platform, platform.machine())).encode())
        return digest.hexdigest()[:16]

    def _load(self) -> tuple[Bound, Path]:
        """Find or build the library, load it, bind it and check it."""
        try:
            name = f"{self.source.stem}-{self._cache_key()}.so"
        except OSError as exc:
            raise NativeUnavailableError(
                f"cannot read {self.source.name}: {exc}"
            ) from exc
        cache_dir = self.cache_dir or self.source.with_name("__pycache__")
        path = cache_dir / name
        if not path.is_file():
            try:
                cache_dir.mkdir(exist_ok=True)
                _compile(self.source, path)
            except OSError:
                path = _temp_dir() / name
                _compile(self.source, path)
        try:
            bound = self.bind(ctypes.CDLL(str(path)))
        except (OSError, AttributeError) as exc:
            raise NativeUnavailableError(f"cannot load {path}: {exc}") from exc
        self.check(bound)
        return bound, path


def _temp_dir() -> Path:
    """A directory of this process, removed when it exits."""
    if not _temp:
        _temp.append(tempfile.TemporaryDirectory(prefix="repro-native-"))
    return Path(_temp[0].name)


def _compile(source: Path, path: Path) -> None:
    """Compile ``source`` to ``path`` through a temp name in its directory."""
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
                [compiler, *FLAGS, "-o", temp, str(source)],
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
