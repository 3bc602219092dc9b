"""Typed row schemas: the contract every experiment's result rows satisfy.

Each registered experiment declares its row shape once, as a
:class:`typing.TypedDict` whose every field carries its aggregation role
through one of four :data:`typing.Annotated` aliases::

    class NecessityRow(TypedDict):
        case: Label[str]
        n: Parameter[int]
        final_spread: Metric[float]
        stalled: Verdict[bool]

mypy sees ``Parameter[int]`` as plain ``int``, so the TypedDict still
checks every construction site; at registration
(:func:`~repro.sweeps.registry.register_experiment`) the runner's
``-> list[Row]`` return annotation is handed to
:func:`schema_from_typeddict`, which reads the **runtime** descriptor, a
:class:`RowSchema`, from that one declaration.

The :class:`RowSchema` records, per column, the value **kind** (``int`` /
``float`` / ``bool`` / ``str``), whether ``None`` is an allowed value
(``optional``, for columns such as a simulation verdict that is undefined
when the condition screen already failed), whether the column may be absent
from some rows (``required=False``, for union-shaped experiments whose
studies emit different key sets), and an **aggregation role**, persisted
with the schema (golden digests leave timing metrics out by it):

``label``
    string identity of the row (case label, rule name, schedule kind);
``parameter``
    a swept or derived input knob (``n``, ``f``, ``batch``, ``alpha``);
``metric``
    a measured quantity (round counts, spreads, timings, throughputs);
``verdict``
    a boolean pass/fail outcome (``converged``, ``validity_ok``).

Validation (:meth:`RowSchema.validate_row`) runs at every shard boundary —
after the runner produces rows, and again whenever a stored shard or
aggregate is read back — so a column typo or a NumPy scalar that would be
corrupted by JSON round-tripping raises :class:`SchemaViolationError` with
cell coordinates instead of silently narrowing an aggregate.  The schema is
persisted in ``manifest.json`` (:meth:`RowSchema.to_json`) and fingerprinted
(:meth:`RowSchema.fingerprint`) so resuming a run after the schema changed
fails loudly with both fingerprints.
"""

from __future__ import annotations

import hashlib
import json
import types
from dataclasses import dataclass
from typing import (
    Annotated,
    Mapping,
    Sequence,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np

from repro.exceptions import InvalidParameterError, SchemaViolationError

#: The value kinds a column may declare.
COLUMN_KINDS = ("int", "float", "bool", "str")

#: The aggregation roles a column may declare (see the module docstring).
COLUMN_ROLES = ("label", "parameter", "metric", "verdict")

#: Kinds whose columns land in the NPZ aggregate as NumPy arrays.
NUMERIC_KINDS = ("int", "float", "bool")

_T = TypeVar("_T")

#: ``Label[str]``: a row-identity column (``role="label"``).
Label = Annotated[_T, "label"]
#: ``Parameter[int]``: a swept or derived input column (``role="parameter"``).
Parameter = Annotated[_T, "parameter"]
#: ``Metric[float]``: a measured-quantity column (``role="metric"``).
Metric = Annotated[_T, "metric"]
#: ``Verdict[bool]``: a pass/fail column (``role="verdict"``).
Verdict = Annotated[_T, "verdict"]


@dataclass(frozen=True)
class Column:
    """One column of a row schema.

    ``kind`` is the JSON-stable value type; ``role`` the aggregation role;
    ``optional`` whether ``None`` is an allowed value; ``required`` whether
    the key must be present in every row (``False`` for union-shaped
    experiments whose studies emit different key sets).
    """

    name: str
    kind: str
    role: str
    optional: bool = False
    required: bool = True

    def __post_init__(self) -> None:
        if self.kind not in COLUMN_KINDS:
            raise InvalidParameterError(
                f"column {self.name!r}: kind must be one of {COLUMN_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.role not in COLUMN_ROLES:
            raise InvalidParameterError(
                f"column {self.name!r}: role must be one of {COLUMN_ROLES}, "
                f"got {self.role!r}"
            )


def _value_matches(value: object, kind: str) -> bool:
    """Whether ``value`` is acceptable for ``kind`` after JSON round-trip.

    Exact Python types only: ``bool`` is *not* an ``int``/``float`` here
    (the numeric tower would silently admit flag columns into means), and
    NumPy integer/bool scalars are rejected because ``json.dumps`` cannot
    represent them (the store's ``default=repr`` would turn them into
    strings).  ``np.floating`` *is* a ``float`` subclass and JSON-exact, so
    it passes the ``float`` kind; an ``int`` where a ``float`` is expected
    is accepted, matching both the numeric tower and NumPy's mixed-list
    promotion in the NPZ extractor.
    """
    if kind == "bool":
        return isinstance(value, bool)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "float":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, str)


@dataclass(frozen=True)
class RowSchema:
    """Runtime descriptor of one experiment's row shape (see module docs)."""

    name: str
    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for column in self.columns:
            if column.name in seen:
                raise InvalidParameterError(
                    f"schema {self.name!r}: duplicate column {column.name!r}"
                )
            seen.add(column.name)
        if not self.columns:
            raise InvalidParameterError(
                f"schema {self.name!r} declares no columns"
            )

    # -- lookups -------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """All column names, in declaration order."""
        return tuple(column.name for column in self.columns)

    def column(self, name: str) -> Column:
        """Return the column named ``name`` or raise with the known names."""
        for column in self.columns:
            if column.name == name:
                return column
        raise InvalidParameterError(
            f"schema {self.name!r} has no column {name!r}; "
            f"columns: {', '.join(self.names)}"
        )

    @property
    def numeric_names(self) -> tuple[str, ...]:
        """Names of the int/float/bool columns, in declaration order."""
        return tuple(
            column.name
            for column in self.columns
            if column.kind in NUMERIC_KINDS
        )

    # -- validation ----------------------------------------------------------
    def validate_row(self, row: object, context: str = "") -> None:
        """Raise :class:`SchemaViolationError` unless ``row`` is a mapping
        that matches.

        ``context`` carries the cell coordinates (experiment, cell and
        row index) the orchestrator prepends to every message, so a
        violation in a thousand-cell sweep names the offending cell.
        """
        where = f"{context}: " if context else ""
        if not isinstance(row, Mapping):
            raise SchemaViolationError(
                f"{where}expected a mapping, got {type(row).__name__}"
            )
        by_name = {column.name: column for column in self.columns}
        for key in row:
            if key not in by_name:
                raise SchemaViolationError(
                    f"{where}unknown column {key!r} "
                    f"(schema {self.name!r} declares: {', '.join(self.names)})"
                )
        for column in self.columns:
            if column.name not in row:
                if column.required:
                    raise SchemaViolationError(
                        f"{where}missing required column {column.name!r} "
                        f"(schema {self.name!r})"
                    )
                continue
            value = row[column.name]
            if value is None:
                if column.optional:
                    continue
                raise SchemaViolationError(
                    f"{where}column {column.name!r} is None but the schema "
                    f"{self.name!r} does not allow None for it"
                )
            if not _value_matches(value, column.kind):
                raise SchemaViolationError(
                    f"{where}column {column.name!r} expects kind "
                    f"{column.kind!r} but got {type(value).__name__} "
                    f"({value!r}); NumPy integer/bool scalars must be "
                    "converted with int()/bool() before leaving the runner"
                )

    def validate_rows(
        self, rows: object, context: str = ""
    ) -> None:
        """Validate a whole row list (each row's index joins ``context``)."""
        if not isinstance(rows, (list, tuple)):
            raise SchemaViolationError(
                f"{context + ': ' if context else ''}rows must be a list, "
                f"got {type(rows).__name__}"
            )
        for row_index, row in enumerate(rows):
            suffix = f"row {row_index}"
            self.validate_row(
                row, context=f"{context}, {suffix}" if context else suffix
            )

    # -- persistence ---------------------------------------------------------
    def to_json(self) -> dict[str, object]:
        """Return the JSON document persisted into ``manifest.json``."""
        return {
            "name": self.name,
            "columns": [
                {
                    "name": column.name,
                    "kind": column.kind,
                    "role": column.role,
                    "optional": column.optional,
                    "required": column.required,
                }
                for column in self.columns
            ],
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> RowSchema:
        """Rebuild a schema from its :meth:`to_json` document."""
        name = payload.get("name")
        columns = payload.get("columns")
        if not isinstance(name, str) or not isinstance(columns, list):
            raise SchemaViolationError(
                "row_schema document must carry a 'name' string and a "
                f"'columns' list, got {payload!r}"
            )
        rebuilt: list[Column] = []
        for entry in columns:
            if not isinstance(entry, Mapping):
                raise SchemaViolationError(
                    f"row_schema column entry must be a mapping, got {entry!r}"
                )
            try:
                rebuilt.append(
                    Column(
                        name=str(entry["name"]),
                        kind=str(entry["kind"]),
                        role=str(entry["role"]),
                        optional=bool(entry["optional"]),
                        required=bool(entry["required"]),
                    )
                )
            except KeyError as missing:
                raise SchemaViolationError(
                    f"row_schema column entry missing key {missing}; "
                    f"entry: {entry!r}"
                ) from None
        return cls(name=name, columns=tuple(rebuilt))

    def fingerprint(self) -> str:
        """Stable hex fingerprint of the schema (drift detection on resume)."""
        payload = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _hint_kind(name: str, hint: object, schema_name: str) -> tuple[str, bool]:
    """Map one TypedDict value annotation to ``(kind, optional)``.

    Accepts the four scalar kinds and their ``X | None`` /
    ``Optional[X]`` forms (both :data:`typing.Union` and the 3.10
    ``types.UnionType`` spelling).
    """
    optional = False
    origin = get_origin(hint)
    if origin is Union or origin is types.UnionType:
        args = [arg for arg in get_args(hint) if arg is not type(None)]
        if len(args) != 1 or len(get_args(hint)) != len(args) + 1:
            raise InvalidParameterError(
                f"schema {schema_name!r}, column {name!r}: only 'X | None' "
                f"unions are supported, got {hint!r}"
            )
        optional = True
        hint = args[0]
    kinds_by_type: dict[type, str] = {
        bool: "bool",
        int: "int",
        float: "float",
        str: "str",
    }
    if not isinstance(hint, type) or hint not in kinds_by_type:
        raise InvalidParameterError(
            f"schema {schema_name!r}, column {name!r}: unsupported value "
            f"type {hint!r}; rows carry JSON scalars "
            f"({', '.join(COLUMN_KINDS)}, optionally '| None')"
        )
    return kinds_by_type[hint], optional


def _hint_role(name: str, hint: object, schema_name: str) -> tuple[str, object]:
    """Split one field annotation into ``(role, value type)``.

    The role is the one :data:`COLUMN_ROLES` entry among the
    :data:`typing.Annotated` metadata that :data:`Label`,
    :data:`Parameter`, :data:`Metric` or :data:`Verdict` attach; a field
    with none or with two raises, naming the column.
    """
    roles = [
        entry
        for entry in getattr(hint, "__metadata__", ())
        if entry in COLUMN_ROLES
    ]
    if len(roles) != 1:
        found = ", ".join(repr(role) for role in roles) or "none"
        raise InvalidParameterError(
            f"schema {schema_name!r}, column {name!r}: declare exactly one "
            f"role with Label[...], Parameter[...], Metric[...] or "
            f"Verdict[...]; found {found} in {hint!r}"
        )
    return roles[0], get_args(hint)[0]


def schema_from_typeddict(typed_dict: type) -> RowSchema:
    """Derive the runtime :class:`RowSchema` from a row ``TypedDict``.

    Every field declares its role through one of the :data:`Label`,
    :data:`Parameter`, :data:`Metric` and :data:`Verdict` aliases; the
    fields' order (base classes first) is the column order the report
    renderer prints.  Keys listed in the TypedDict's ``__optional_keys__``
    (``total=False`` sections) become ``required=False`` columns; ``X |
    None`` value types become ``optional=True`` columns.  The schema is
    named after the TypedDict.
    """
    schema_name = typed_dict.__name__
    absent_allowed = frozenset(getattr(typed_dict, "__optional_keys__", ()))
    columns: list[Column] = []
    for key, hint in get_type_hints(typed_dict, include_extras=True).items():
        role, value_type = _hint_role(key, hint, schema_name)
        kind, optional = _hint_kind(key, value_type, schema_name)
        columns.append(
            Column(
                name=key,
                kind=kind,
                role=role,
                optional=optional,
                required=key not in absent_allowed,
            )
        )
    return RowSchema(name=schema_name, columns=tuple(columns))


def _as_float(value: object) -> float:
    """Coerce one validated numeric cell to ``float`` (NaN-hole arrays)."""
    if isinstance(value, (int, float)):
        return float(value)
    raise SchemaViolationError(
        f"cannot place non-numeric value {value!r} into a numeric column"
    )


def numeric_arrays(
    rows: Sequence[Mapping[str, object]],
    schema: RowSchema,
) -> dict[str, np.ndarray]:
    """Schema-driven NPZ column extraction (see ``store.numeric_columns``).

    Every int/float/bool column of ``schema`` that appears in at least one
    row becomes an array in row order.  Columns with no ``None`` and no
    absent cells take the exact dtype NumPy infers from the values (the
    historical behaviour, preserving bit-identity of existing aggregates);
    a column with ``None`` or absent cells becomes ``float64`` with ``NaN``
    holes — the case the old first-row type sniffing silently dropped.
    """
    if not rows:
        return {}
    arrays: dict[str, np.ndarray] = {}
    for column in schema.columns:
        if column.kind not in NUMERIC_KINDS:
            continue
        values = [row.get(column.name) for row in rows]
        present = [value for value in values if value is not None]
        if not present:
            continue
        if len(present) == len(values):
            arrays[column.name] = np.asarray(values)
        else:
            arrays[column.name] = np.asarray(
                [
                    float("nan") if value is None else _as_float(value)
                    for value in values
                ],
                dtype=np.float64,
            )
    return arrays
