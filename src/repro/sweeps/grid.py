"""Parameter grids: expansion into cells, CLI overrides and fingerprints.

A *grid* is an ordered mapping from parameter name to a tuple of values; its
Cartesian product (declaration order, last key varying fastest) is the list
of *cells* a sweep executes.  All values are JSON-serialisable scalars so
that cells round-trip through the run manifest and shard files unchanged.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from typing import Mapping, Sequence

from repro.exceptions import InvalidParameterError


def expand_grid(grid: Mapping[str, Sequence[object]]) -> list[dict[str, object]]:
    """Expand ``grid`` into its list of cells.

    Declaration order is preserved and the last parameter varies fastest, so
    the cell list (and therefore the shard files and aggregate row order) is
    a pure function of the grid.  An empty grid yields one empty cell.
    """
    keys = list(grid)
    cells: list[dict[str, object]] = []
    for combo in itertools.product(*(tuple(grid[key]) for key in keys)):
        cells.append(dict(zip(keys, combo)))
    return cells


def parse_override(text: str) -> tuple[str, tuple[str, ...]]:
    """Split one CLI grid override ``key=v1,v2,...`` into its key and tokens.

    The tokens stay text; :func:`apply_overrides` converts each one to the
    kind of the axis it overrides.
    """
    key, sep, raw = text.partition("=")
    key = key.strip()
    if not sep or not key:
        raise InvalidParameterError(
            f"grid override {text!r} is not of the form key=value[,value...]"
        )
    tokens = tuple(token.strip() for token in raw.split(","))
    if not all(tokens):
        raise InvalidParameterError(f"grid override {text!r} has an empty value")
    return key, tokens


def check_seed(seed: object, name: str = "seed") -> int:
    """Return ``seed`` if it is a non-negative int; raise naming ``name`` if not."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise InvalidParameterError(
            f"{name} must be a non-negative integer, got {seed!r}"
        )
    return seed


def _axis_kind(key: str, declared: Sequence[object]) -> type:
    """The one type (``int``, ``float`` or ``str``) of a grid axis's values."""
    kinds = {type(value) for value in declared}
    if len(kinds) != 1 or not kinds <= {int, float, str}:
        raise InvalidParameterError(
            f"grid parameter {key!r} must declare values of one kind "
            f"(int, float or str), got {sorted(kind.__name__ for kind in kinds)}"
        )
    return kinds.pop()


def _typed_value(key: str, token: str, kind: type) -> object:
    """Convert one override token to the axis kind ``kind``.

    A str axis keeps the token as text.  An int axis takes an int or an
    integral float (JSON cannot tell ``1e2`` from ``100``); a float axis
    takes any finite number.  Anything else — ``true``, ``null``, a list,
    a non-finite or non-numeric token — names the parameter in an
    :class:`~repro.exceptions.InvalidParameterError`.
    """
    if kind is str:
        return token
    try:
        value = json.loads(token)
    except (ValueError, RecursionError):
        value = None
    if isinstance(value, int) and not isinstance(value, bool):
        if kind is int:
            return value
        try:
            return float(value)
        except OverflowError:
            pass
    elif isinstance(value, float) and math.isfinite(value):
        if kind is float:
            return value
        if value.is_integer():
            return int(value)
    expected = "integer values" if kind is int else "finite numbers"
    raise InvalidParameterError(
        f"grid parameter {key!r} takes {expected}, got {token!r}"
    )


def apply_overrides(
    grid: Mapping[str, Sequence[object]],
    overrides: Sequence[str],
    extra_allowed: Sequence[str] = (),
) -> dict[str, tuple]:
    """Return ``grid`` with CLI overrides applied.

    Overrides may only touch parameters the grid declares (or names in
    ``extra_allowed``, used for the orchestrator-seeded ``seed`` parameter);
    an unknown name is an error rather than a silently ignored cell axis.
    Each value takes the kind of the axis's declared values (an undeclared
    axis, such as the injected ``seed``, takes ints; see
    :func:`_typed_value`), and every ``seed`` must pass :func:`check_seed`.
    """
    merged = {str(key): tuple(values) for key, values in grid.items()}
    allowed = set(merged) | set(extra_allowed)
    for text in overrides:
        key, tokens = parse_override(text)
        if key not in allowed:
            known = ", ".join(sorted(allowed)) or "(none)"
            raise InvalidParameterError(
                f"unknown grid parameter {key!r}; this experiment accepts: {known}"
            )
        kind = _axis_kind(key, merged[key]) if key in merged else int
        values = tuple(_typed_value(key, token, kind) for token in tokens)
        if key == "seed":
            values = tuple(check_seed(value) for value in values)
        merged[key] = values
    return merged


def grid_fingerprint(
    experiment: str,
    grid: Mapping[str, Sequence[object]],
    seed: int,
) -> str:
    """Return a stable hex fingerprint of a sweep's identity.

    The fingerprint covers everything that determines the results — the
    experiment name, the effective grid and the root seed — and nothing
    environmental, so a resumed run can verify it is continuing the same
    sweep.
    """
    payload = json.dumps(
        {
            "experiment": experiment,
            "grid": {key: list(values) for key, values in grid.items()},
            "seed": seed,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
