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


def parse_override(text: str) -> tuple[str, tuple]:
    """Parse one CLI grid override ``key=v1,v2,...`` into ``(key, values)``.

    Each comma-separated token is parsed as JSON when possible (so ``8`` is an
    int, ``0.5`` a float, ``true`` a bool, ``null`` is ``None``) and kept as a
    plain string otherwise (case labels like ``complete n=4 f=1``).
    """
    key, sep, raw = text.partition("=")
    key = key.strip()
    if not sep or not key:
        raise InvalidParameterError(
            f"grid override {text!r} is not of the form key=value[,value...]"
        )
    values: list[object] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            raise InvalidParameterError(f"grid override {text!r} has an empty value")
        try:
            values.append(json.loads(token))
        except json.JSONDecodeError:
            values.append(token)
    return key, tuple(values)


def _coerce_to_base_type(
    key: str, values: tuple, base: Sequence[object] | None
) -> tuple:
    """Align override value types with the declared grid values.

    JSON parsing cannot distinguish ``1e2`` from ``100``; when the declared
    values for ``key`` are all ints (the ``seed`` parameter too), integral
    floats are coerced to int and non-integral floats rejected, so a runner
    expecting an int round count never receives a float.
    """
    int_typed = base is None or all(
        isinstance(value, int) and not isinstance(value, bool) for value in base
    )
    if not int_typed:
        return values
    coerced: list[object] = []
    for value in values:
        if isinstance(value, float):
            if not value.is_integer():
                raise InvalidParameterError(
                    f"grid parameter {key!r} takes integer values, got {value!r}"
                )
            value = int(value)
        coerced.append(value)
    return tuple(coerced)


def apply_overrides(
    grid: Mapping[str, Sequence[object]],
    overrides: Sequence[str],
    extra_allowed: Sequence[str] = (),
) -> dict[str, tuple]:
    """Return ``grid`` with CLI overrides applied.

    Overrides may only touch parameters the grid declares (or names in
    ``extra_allowed``, used for the orchestrator-seeded ``seed`` parameter);
    an unknown name is an error rather than a silently ignored cell axis.
    Values are type-aligned with the declared grid values
    (:func:`_coerce_to_base_type`).
    """
    merged = {str(key): tuple(values) for key, values in grid.items()}
    allowed = set(merged) | set(extra_allowed)
    for text in overrides:
        key, values = parse_override(text)
        if key not in allowed:
            known = ", ".join(sorted(allowed)) or "(none)"
            raise InvalidParameterError(
                f"unknown grid parameter {key!r}; this experiment accepts: {known}"
            )
        merged[key] = _coerce_to_base_type(key, values, merged.get(key))
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
