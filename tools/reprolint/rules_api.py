"""API-contract rules: registry completeness, exceptions, typed API.

``REG*`` keeps the experiment registry honest: a driver module that grows a
sweep entry point (``run_*`` or the ``*_cell`` convention) but forgets
``@register_experiment`` silently drops out of ``repro list``/``repro run``
— and a registration without ``engine=``/``paper_section=`` metadata breaks
the paper-section mapping in ``docs/experiments.md``.  (Row schemas need no
rule: each column is declared once, in the row ``TypedDict``, and
registration derives the schema from it.)  ``EXC*`` bans the two ways
contract violations get swallowed instead of raised.  ``TYP001`` is the
static half of the typed-API gate: every public function carries full
parameter and return annotations, so mypy (the dynamic half, run by
``make lint`` when installed) actually has something to check.
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

#: Keyword arguments every ``@register_experiment`` call must carry.
REQUIRED_REGISTRY_KWARGS = ("engine", "paper_section")

#: Function-name conventions that mark a sweep entry point.
ENTRY_POINT_PREFIX = "run_"
ENTRY_POINT_SUFFIX = "_cell"


def _is_register_experiment(func: ast.expr) -> bool:
    """Whether a call target is ``register_experiment`` (bare or dotted)."""
    name = dotted_name(func)
    return name is not None and (
        name == "register_experiment" or name.endswith(".register_experiment")
    )


@register_rule
class RegistryCompleteness(Rule):
    """Experiment modules with entry points must register them."""

    rule_id = "REG001"
    summary = (
        "experiments module defines a run_*/*_cell entry point but never "
        "calls @register_experiment"
    )

    def applies_to(self, module: ParsedModule) -> bool:
        return module.is_experiments

    def finish(self, module: ParsedModule) -> Iterator[Finding]:
        entry_points = [
            node
            for node in module.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            and (
                node.name.startswith(ENTRY_POINT_PREFIX)
                or node.name.endswith(ENTRY_POINT_SUFFIX)
            )
        ]
        if not entry_points:
            return
        registered = any(
            _is_register_experiment(node.func)
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Call)
        )
        if not registered:
            first = entry_points[0]
            yield self.finding(
                module,
                first,
                f"module defines entry point {first.name!r} but never calls "
                "@register_experiment; unregistered experiments are "
                "invisible to `repro list`/`repro run`",
            )


@register_rule
class RegistryMetadata(Rule):
    """Registrations must carry engine and paper-section metadata."""

    rule_id = "REG002"
    summary = (
        "@register_experiment call missing engine= or paper_section= "
        "metadata"
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, module: ParsedModule) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if not _is_register_experiment(node.func):
            return
        present = {keyword.arg for keyword in node.keywords}
        missing = [
            kwarg for kwarg in REQUIRED_REGISTRY_KWARGS if kwarg not in present
        ]
        if missing:
            yield self.finding(
                module,
                node,
                "register_experiment call missing required metadata "
                f"keyword(s): {', '.join(missing)}",
            )


@register_rule
class BareExcept(Rule):
    """``except:`` catches SystemExit/KeyboardInterrupt too."""

    rule_id = "EXC001"
    summary = "bare except: clause; name the exception types you mean"
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, module: ParsedModule) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            yield self.finding(
                module,
                node,
                "bare except: swallows SystemExit and KeyboardInterrupt; "
                "catch the specific exception types instead",
            )


@register_rule
class SwallowedException(Rule):
    """``except Exception: pass`` erases the contract violation it caught."""

    rule_id = "EXC002"
    summary = (
        "except handler that silently discards a broad exception "
        "(body is only pass/...)"
    )
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, module: ParsedModule) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        if not _is_broad_handler(node):
            return
        if all(_is_noop_statement(stmt) for stmt in node.body):
            yield self.finding(
                module,
                node,
                "broad exception silently swallowed; re-raise, narrow the "
                "type, or record why ignoring is sound",
            )


def _is_broad_handler(node: ast.ExceptHandler) -> bool:
    """Whether the handler catches Exception/BaseException (or everything)."""
    if node.type is None:
        return True
    names = (
        [dotted_name(elt) for elt in node.type.elts]
        if isinstance(node.type, ast.Tuple)
        else [dotted_name(node.type)]
    )
    return any(
        name is not None and name.rsplit(".", 1)[-1] in {"Exception", "BaseException"}
        for name in names
    )


def _is_noop_statement(stmt: ast.stmt) -> bool:
    """Whether a statement does nothing (``pass`` or a bare ``...``)."""
    return isinstance(stmt, ast.Pass) or (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is Ellipsis
    )


@register_rule
class PublicApiAnnotations(Rule):
    """Public functions carry full parameter and return annotations."""

    rule_id = "TYP001"
    summary = (
        "public function/method missing parameter or return annotations "
        "(the static half of the typed-API gate)"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, module: ParsedModule) -> Iterator[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        parent = module.parent(node)
        in_class = isinstance(parent, ast.ClassDef)
        # Nested helpers are implementation detail; only module-level
        # functions and class methods form the typed API surface.
        if not isinstance(parent, (ast.Module, ast.ClassDef)):
            return
        if node.name.startswith("_") and not (
            in_class and node.name == "__init__"
        ):
            return
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if in_class and positional and positional[0].arg in {
            "self",
            "cls",
        } else 0
        unannotated = [
            arg.arg
            for arg in positional[skip:] + args.kwonlyargs
            if arg.annotation is None
        ]
        if args.vararg is not None and args.vararg.annotation is None:
            unannotated.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            unannotated.append("**" + args.kwarg.arg)
        if unannotated:
            yield self.finding(
                module,
                node,
                f"{node.name} has unannotated parameter(s): "
                + ", ".join(unannotated),
            )
        if node.returns is None and node.name != "__init__":
            yield self.finding(
                module,
                node,
                f"{node.name} has no return annotation",
            )
