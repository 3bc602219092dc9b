"""Typing-ratchet gate for ``mypy.ini`` and the strictly-typed packages.

mypy itself is optional locally (CI installs it), so this gate enforces the
parts of the typed-API rollout that must never regress even where mypy is
absent, using only :mod:`configparser` and :mod:`ast`:

1. ``mypy.ini`` contains no ``ignore_errors`` escape hatch anywhere — the
   per-package exclusions for ``repro.experiments.*`` and ``repro.cli`` were
   lifted by the row-schema layer and must not come back.
2. Every baseline strict section (``disallow_untyped_defs = True``) is still
   present, and the total count of strict sections never decreases below the
   recorded baseline.  Adding a section means bumping
   :data:`STRICT_SECTION_BASELINE` in the same commit; removing one fails.
3. Every function in the strictly-typed packages is fully annotated
   (parameters except ``self``/``cls``, ``*args``/``**kwargs``, and the
   return type) — the static mirror of ``disallow_untyped_defs`` plus
   ``disallow_incomplete_defs``, so an unannotated def fails the gate on
   machines without mypy instead of only in CI.

Usage::

    python tools/check_typing_ratchet.py [--config mypy.ini] [--src src]
"""

from __future__ import annotations

import argparse
import ast
import configparser
import sys
from pathlib import Path

#: Number of ``disallow_untyped_defs = True`` sections the ratchet has
#: reached.  Only ever increase this (in the commit that adds a section).
STRICT_SECTION_BASELINE = 4

#: Strict sections that must always be present (the rollout floor).
REQUIRED_STRICT_SECTIONS = (
    "mypy-repro.sweeps.*",
    "mypy-repro.conditions.*",
    "mypy-repro.simulation.*",
    "mypy-repro.native",
)


def strict_sections(config: configparser.ConfigParser) -> list[str]:
    """Section names carrying ``disallow_untyped_defs = True``."""
    return [
        section
        for section in config.sections()
        if config.has_option(section, "disallow_untyped_defs")
        and config.getboolean(section, "disallow_untyped_defs")
    ]


def check_config(config_path: Path) -> tuple[list[str], list[str]]:
    """Validate ``mypy.ini``; return (errors, strict section names)."""
    errors: list[str] = []
    config = configparser.ConfigParser()
    config.read(config_path)
    for section in config.sections():
        if config.has_option(section, "ignore_errors"):
            errors.append(
                f"{config_path}: [{section}] sets ignore_errors; the "
                "typed-API rollout removed every exclusion and the ratchet "
                "does not allow new ones"
            )
    strict = strict_sections(config)
    for required in REQUIRED_STRICT_SECTIONS:
        if required not in strict:
            errors.append(
                f"{config_path}: [{required}] no longer sets "
                "disallow_untyped_defs = True; strict sections may be "
                "added, never removed"
            )
    if len(strict) < STRICT_SECTION_BASELINE:
        errors.append(
            f"{config_path}: {len(strict)} strict section(s), baseline is "
            f"{STRICT_SECTION_BASELINE}; the strict-module ratchet only "
            "moves forward (bump STRICT_SECTION_BASELINE when adding one)"
        )
    return errors, strict


def section_roots(strict: list[str], src: Path) -> list[Path]:
    """Map strict section names to the source paths they govern.

    ``mypy-repro.sweeps.*`` → ``src/repro/sweeps``;  a non-wildcard section
    like ``mypy-repro.cli`` maps to the module file.  Sections whose paths do
    not exist are reported by the caller via the required-section check, so
    they are simply skipped here.
    """
    roots: list[Path] = []
    for section in strict:
        dotted = section.removeprefix("mypy-")
        package = dotted.removesuffix(".*")
        base = src / Path(*package.split("."))
        if dotted.endswith(".*") or base.is_dir():
            if base.is_dir():
                roots.append(base)
        elif base.with_suffix(".py").is_file():
            roots.append(base.with_suffix(".py"))
    return roots


def unannotated_defs(path: Path) -> list[str]:
    """``name:line (what)`` entries for incompletely annotated functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    problems: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        in_class = isinstance(parents.get(node), ast.ClassDef)
        skip = (
            1
            if in_class and positional and positional[0].arg in {"self", "cls"}
            else 0
        )
        missing = [
            arg.arg
            for arg in positional[skip:] + args.kwonlyargs
            if arg.annotation is None
        ]
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        if missing:
            problems.append(
                f"{path}:{node.lineno}: {node.name} has unannotated "
                "parameter(s): " + ", ".join(missing)
            )
        if node.returns is None:
            problems.append(
                f"{path}:{node.lineno}: {node.name} has no return annotation"
            )
    return problems


def check_annotations(roots: list[Path]) -> tuple[list[str], int]:
    """Scan the strict roots; return (errors, files scanned)."""
    errors: list[str] = []
    scanned = 0
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            scanned += 1
            errors.extend(unannotated_defs(path))
    return errors, scanned


def main(argv: list[str] | None = None) -> int:
    """Run the ratchet gate; exit 0 when the rollout has not regressed."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, default=Path("mypy.ini"))
    parser.add_argument("--src", type=Path, default=Path("src"))
    options = parser.parse_args(argv)

    if not options.config.is_file():
        print(f"typing ratchet: config {options.config} not found")
        return 1
    errors, strict = check_config(options.config)
    roots = section_roots(strict, options.src)
    annotation_errors, scanned = check_annotations(roots)
    errors.extend(annotation_errors)
    if errors:
        for error in errors:
            print(error)
        print(f"typing ratchet: {len(errors)} problem(s)")
        return 1
    print(
        f"typing ratchet OK: {len(strict)} strict section(s) "
        f"(baseline {STRICT_SECTION_BASELINE}), {scanned} file(s) fully "
        "annotated, no ignore_errors"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
