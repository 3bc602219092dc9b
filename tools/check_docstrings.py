"""Docstring-coverage gate for ``src/repro`` (and any extra roots).

Walks every module under the given roots with :mod:`ast` and counts public
definitions (modules, classes, functions and methods whose names do not start
with ``_``) that carry a docstring.  Fails (exit code 1) when coverage drops
below the threshold, listing the offenders, so ``make test`` keeps the
documentation suite honest without any third-party dependency.

``--root`` may repeat (default: ``src/repro``), so the gate also covers the
benchmark harness.  ``--require`` names modules that must appear in the scan
— a guard against silently dropping a package (e.g. ``repro.sweeps`` or the
``repro.cli`` module) from coverage by moving it.

Usage::

    python tools/check_docstrings.py [--threshold 95]
        [--root src/repro] [--root benchmarks]
        [--require repro.cli] [--require repro.sweeps.registry]
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path


def iter_public_definitions(tree: ast.Module, module_name: str):
    """Yield ``(qualified_name, is_method, has_docstring)`` for the module and
    its public classes, functions and methods."""
    yield module_name, False, ast.get_docstring(tree) is not None

    def walk(node: ast.AST, prefix: str, in_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if child.name.startswith("_"):
                    continue
                qualified = f"{prefix}.{child.name}"
                is_method = in_class and not isinstance(child, ast.ClassDef)
                yield qualified, is_method, ast.get_docstring(child) is not None
                if isinstance(child, ast.ClassDef):
                    yield from walk(child, qualified, True)

    yield from walk(tree, module_name, False)


def collect(roots: list[Path]) -> tuple[list[str], int, set[str]]:
    """Return (undocumented names, total public definitions, scanned modules).

    An undocumented *method* whose name is documented on some class in the
    scanned packages is treated as inheriting that docstring — the usual
    convention for overrides of a documented interface method (``compute``,
    ``outgoing_values``, ...).
    """
    entries: list[tuple[str, bool, bool]] = []
    documented_method_names: set[str] = set()
    scanned_modules: set[str] = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            module_name = ".".join(
                path.relative_to(root.parent).with_suffix("").parts
            )
            if module_name.endswith(".__init__"):
                scanned_modules.add(module_name.rsplit(".", 1)[0])
            scanned_modules.add(module_name)
            tree = ast.parse(path.read_text(), filename=str(path))
            for qualified, is_method, documented in iter_public_definitions(
                tree, module_name
            ):
                entries.append((qualified, is_method, documented))
                if is_method and documented:
                    documented_method_names.add(qualified.rsplit(".", 1)[-1])

    missing = [
        qualified
        for qualified, is_method, documented in entries
        if not documented
        and not (
            is_method and qualified.rsplit(".", 1)[-1] in documented_method_names
        )
    ]
    return missing, len(entries), scanned_modules


def main() -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        action="append",
        default=None,
        help="package directory to scan (repeatable; default: src/repro)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=95.0,
        help="minimum percentage of public definitions with docstrings",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="MODULE",
        help="module that must appear in the scan (repeatable)",
    )
    args = parser.parse_args()

    roots = args.root or [
        Path(__file__).resolve().parent.parent / "src" / "repro"
    ]
    for root in roots:
        if not root.is_dir():
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
    missing, total, scanned = collect(roots)
    if total == 0:
        print(f"error: no Python files found under {roots}", file=sys.stderr)
        return 2
    absent = [module for module in args.require if module not in scanned]
    if absent:
        print(
            "error: required modules missing from the scan: "
            + ", ".join(absent),
            file=sys.stderr,
        )
        return 2
    documented = total - len(missing)
    coverage = 100.0 * documented / total if total else 100.0
    print(
        f"docstring coverage: {documented}/{total} public definitions "
        f"({coverage:.1f}%), threshold {args.threshold:.1f}%"
    )
    if coverage < args.threshold:
        print("\nundocumented public definitions:")
        for name in missing:
            print(f"  - {name}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
