"""Bit-exactness rules for the numeric kernels (``EXA*``).

The kernels (``repro/simulation/``, ``repro/algorithms/``) promise that the
scalar reference engines and the batch engines (both plane kernels, NumPy
and compiled) produce ``np.array_equal`` outputs.  That only holds under
strictly sequential float summation in one canonical order — which is why
``np.add.reduceat`` was evaluated and rejected (pairwise reduction blocks
change the rounding path, ``docs/architecture.md``) and why ``math.fsum``
(exact but *different*) and builtin ``sum`` (compensated since CPython
3.12) are equally banned.  Narrowed dtypes may enter only through the
documented ``dtype=`` plumbing (``repro/simulation/vectorized.py``), never
as ad-hoc literals inside a kernel.
"""

from __future__ import annotations

import ast
from typing import Iterator

from reprolint.engine import (
    Finding,
    ParsedModule,
    Rule,
    dotted_name,
    register_rule,
)

#: Narrow float dtype attribute names (``np.<name>``).
NARROW_DTYPE_ATTRS = frozenset({"float32", "float16", "half", "single"})

#: Narrow float dtype string literals (``dtype="float32"`` and friends).
NARROW_DTYPE_STRINGS = frozenset({"float32", "float16", "<f4", "<f2", "f4", "f2"})


@register_rule
class ReduceatUse(Rule):
    """``ufunc.reduceat`` reduces in pairwise blocks, not sequentially."""

    rule_id = "EXA001"
    summary = (
        "ufunc.reduceat in a kernel module; pairwise reduction order breaks "
        "bit-exactness vs sequential summation"
    )
    node_types = (ast.Attribute,)

    def applies_to(self, module: ParsedModule) -> bool:
        return module.is_kernel

    def visit(self, node: ast.AST, module: ParsedModule) -> Iterator[Finding]:
        assert isinstance(node, ast.Attribute)
        if node.attr == "reduceat":
            yield self.finding(
                module,
                node,
                "reduceat's pairwise block reduction changes the rounding "
                "path; kernels must sum sequentially in canonical order",
            )


@register_rule
class FsumUse(Rule):
    """``math.fsum`` is exact and builtin ``sum`` compensated (CPython
    3.12+), which makes both *differently* rounded."""

    rule_id = "EXA002"
    summary = (
        "math.fsum or builtin sum in a kernel module; exact or compensated "
        "summation diverges from the sequential-summation contract the "
        "engines share"
    )
    node_types = (ast.Call, ast.ImportFrom)

    def applies_to(self, module: ParsedModule) -> bool:
        return module.is_kernel

    def visit(self, node: ast.AST, module: ParsedModule) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and (name == "fsum" or name.endswith(".fsum")):
                yield self.finding(
                    module,
                    node,
                    "fsum rounds differently from the sequential summation "
                    "every engine tier implements; use plain ordered sums",
                )
            elif name == "sum":
                yield self.finding(
                    module,
                    node,
                    "builtin sum compensates float rounding since CPython "
                    "3.12, unlike the sequential summation every engine "
                    "tier implements; sum in an explicit loop",
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "math" and any(
                alias.name == "fsum" for alias in node.names
            ):
                yield self.finding(
                    module,
                    node,
                    "import of math.fsum in a kernel module",
                )


@register_rule
class NarrowDtypeLiteral(Rule):
    """float32/float16 enters kernels only via the documented plumbing."""

    rule_id = "EXA003"
    summary = (
        "narrowing dtype literal (float32/float16) in a kernel module; "
        "narrow dtypes flow only through the documented dtype= plumbing"
    )
    node_types = (ast.Attribute, ast.Constant)

    def applies_to(self, module: ParsedModule) -> bool:
        return module.is_kernel

    def visit(self, node: ast.AST, module: ParsedModule) -> Iterator[Finding]:
        if isinstance(node, ast.Attribute):
            if node.attr in NARROW_DTYPE_ATTRS:
                base = dotted_name(node.value)
                if base in {"np", "numpy"}:
                    yield self.finding(
                        module,
                        node,
                        f"np.{node.attr} literal in a kernel; route narrow "
                        "dtypes through the documented dtype= parameter "
                        "(see repro/simulation/vectorized.py) or pragma the "
                        "plumbing site",
                    )
        elif isinstance(node, ast.Constant):
            if (
                isinstance(node.value, str)
                and node.value in NARROW_DTYPE_STRINGS
            ):
                yield self.finding(
                    module,
                    node,
                    f"dtype string {node.value!r} in a kernel; route narrow "
                    "dtypes through the documented dtype= parameter",
                )
