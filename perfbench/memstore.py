"""Keep sweep results directories in memory while the benchmark runs.

``repro run`` persists every shard and rewrites ``manifest.json`` after
each one (temp file + ``os.replace``).  On an ext4 disk a rename onto an
existing file forces the new file's data out first, which measured ~62 ms
per rename on a 2-vCPU VM against ~0.025 ms onto a fresh name; a sweep
that rewrites its manifest hundreds of times mostly waits on the disk.  The
benchmark may only write
inside its own checkout, so instead of a tmpfs directory it holds the
results directories in a dictionary: the store's JSON encoding, decoding
and schema validation all still run, only the kernel's file writes are
skipped.

The interposition is narrow: :class:`MemoryResults` swaps the ``Path``,
``os`` and ``open`` names that :mod:`repro.sweeps.store` and
:mod:`repro.cli` look up, and only for paths under one root.  Anything the
store writes some other way lands on the real disk under that root, which
:meth:`MemoryResults.leaked` reports, so such a change fails loudly.
"""

from __future__ import annotations

import io
import os
import pathlib
import sys
import types
from typing import Any


class MemoryResults:
    """An in-memory file tree for every path under ``root``.

    ``files`` maps absolute path strings to file contents (``str`` for text,
    ``bytes`` for binary writes); ``dirs`` holds the directories created.
    Use as a context manager: entering installs the interposition, leaving
    removes it.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        """Bind the tree to ``root`` (an absolute path; never created)."""
        self.root = os.path.abspath(os.fspath(root))
        self.files: dict[str, str | bytes] = {}
        self.dirs: set[str] = set()
        self._saved: list[tuple[types.ModuleType, str, Any]] = []

    # -- bookkeeping -----------------------------------------------------
    def owns(self, path: str | os.PathLike[str]) -> bool:
        """Whether ``path`` lies under the in-memory root."""
        text = os.path.abspath(os.fspath(path))
        return text == self.root or text.startswith(self.root + os.sep)

    def clear(self) -> None:
        """Forget every file and directory (between passes)."""
        self.files.clear()
        self.dirs.clear()

    def leaked(self) -> bool:
        """Whether anything was written to the real disk under the root."""
        return os.path.lexists(self.root)

    # -- interposition ---------------------------------------------------
    def __enter__(self) -> "MemoryResults":
        """Route the store's and the CLI's file access under root to memory."""
        store_module = sys.modules["repro.sweeps.store"]
        cli_module = sys.modules["repro.cli"]
        mem_path = self._path_class()
        self._swap(store_module, "Path", mem_path)
        self._swap(cli_module, "Path", mem_path)
        self._swap(store_module, "os", self._os_shim())
        self._swap(store_module, "open", self._open)
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Restore every name swapped by :meth:`__enter__`."""
        while self._saved:
            module, name, old = self._saved.pop()
            if old is _MISSING:
                delattr(module, name)
            else:
                setattr(module, name, old)

    def _swap(self, module: types.ModuleType, name: str, value: Any) -> None:
        self._saved.append((module, name, getattr(module, name, _MISSING)))
        setattr(module, name, value)

    def _os_shim(self) -> types.SimpleNamespace:
        """An ``os`` stand-in whose ``replace`` moves in-memory files."""
        shim = types.SimpleNamespace(**vars(os))

        def replace(src: Any, dst: Any) -> None:
            if self.owns(src) and self.owns(dst):
                self.files[os.path.abspath(os.fspath(dst))] = self.files.pop(
                    os.path.abspath(os.fspath(src))
                )
                return
            os.replace(src, dst)

        shim.replace = replace
        return shim

    def _open(self, file: Any, mode: str = "r", *args: Any, **kwargs: Any) -> Any:
        """``open`` for the store: binary writes under root go to memory."""
        if not self.owns(file):
            return open(file, mode, *args, **kwargs)
        if mode != "wb":
            raise OSError(f"in-memory results only support 'wb' opens, got {mode!r}")
        key = os.path.abspath(os.fspath(file))
        files = self.files

        class _Sink(io.BytesIO):
            def close(self) -> None:
                if not self.closed:
                    files[key] = self.getvalue()
                super().close()

        return _Sink()

    def _path_class(self) -> type[pathlib.Path]:
        """A ``Path`` subclass that serves paths under root from memory."""
        tree = self
        base = type(pathlib.Path())

        class MemPath(base):  # type: ignore[valid-type, misc]
            def _key(self) -> str | None:
                return os.path.abspath(os.fspath(self)) if tree.owns(self) else None

            def mkdir(
                self, mode: int = 0o777, parents: bool = False, exist_ok: bool = False
            ) -> None:
                key = self._key()
                if key is None:
                    return super().mkdir(mode, parents, exist_ok)
                tree.dirs.add(key)

            def is_dir(self) -> bool:
                key = self._key()
                return super().is_dir() if key is None else key in tree.dirs

            def is_file(self) -> bool:
                key = self._key()
                return super().is_file() if key is None else key in tree.files

            def read_text(self, encoding: str | None = None, errors: str | None = None) -> str:
                key = self._key()
                if key is None:
                    return super().read_text(encoding, errors)
                try:
                    data = tree.files[key]
                except KeyError:
                    raise FileNotFoundError(key) from None
                return data if isinstance(data, str) else data.decode(encoding or "utf-8")

            def write_text(
                self,
                data: str,
                encoding: str | None = None,
                errors: str | None = None,
                newline: str | None = None,
            ) -> int:
                key = self._key()
                if key is None:
                    return super().write_text(data, encoding, errors, newline)
                tree.files[key] = data
                return len(data)

        return MemPath


_MISSING = object()
