"""The resumable on-disk results store for sweep runs.

Layout (one directory per run, under ``results/`` by default)::

    results/<run_id>/
        manifest.json      the run's plan: experiment, grid, cells, per-cell
                           seeds, fingerprint, row schema, status, provenance
        shard_0000.json    one file per stored cell: shard ``i`` holds
        ...                exactly cell ``i``'s parameters and rows
        aggregate.json     all rows in cell order (written when the run
                           completes), plus a summary block
        aggregate.npz      the numeric/boolean columns of the aggregate as
                           NumPy arrays (keyed by column name)

The manifest is the plan and the shard files are the progress: a re-run
with the same fingerprint skips every cell whose shard file already exists
and only executes the missing ones, and :meth:`RunStore.stored_cells`
counts them for ``repro report``.  All writes are atomic (a temp file named
for the writing process, then ``os.replace``) so an interrupted run never
leaves a half-written file behind, and two processes writing one run
directory never rename each other's temp files.

Documents come back **typed and validated**: :meth:`RunStore.read_manifest`
returns a :class:`Manifest` and :meth:`RunStore.read_aggregate` an
:class:`Aggregate` (both ``TypedDict``), each checked for the required keys
on read, and both :meth:`RunStore.read_shard` and
:meth:`RunStore.read_aggregate` re-validate their rows against the run's
:class:`~repro.sweeps.schema.RowSchema` so a hand-edited or
version-skewed run directory fails loudly instead of feeding a corrupted
aggregate downstream.  A file that is not a JSON object at all (truncated,
say) raises the same typed error, naming the file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping, Sequence, TypedDict, cast

import numpy as np

from repro.exceptions import InvalidParameterError, SchemaViolationError
from repro.sweeps.provenance import RUN_SCHEMA_VERSION
from repro.sweeps.schema import RowSchema, numeric_arrays

MANIFEST_NAME = "manifest.json"
AGGREGATE_NAME = "aggregate.json"
AGGREGATE_NPZ_NAME = "aggregate.npz"


class _ManifestRequired(TypedDict):
    """Keys every run manifest carries from the moment it is first written."""

    schema_version: int
    experiment: str
    paper_section: str
    claim: str
    engine: str
    run_id: str
    fingerprint: str
    seed: int
    grid: dict[str, list[object]]
    num_cells: int
    cells: list[dict[str, object]]
    cell_seeds: list[int]
    status: str
    updated_at: str
    provenance: dict[str, object]
    row_schema: dict[str, object]
    parameter_columns: list[str]


class Manifest(_ManifestRequired, total=False):
    """The validated ``manifest.json`` document.

    ``row_count`` only appears once the run has completed and aggregated.
    """

    row_count: int


class _AggregateRequired(TypedDict):
    """Keys every aggregate document carries."""

    schema_version: int
    experiment: str
    run_id: str
    fingerprint: str
    paper_section: str
    engine: str
    row_schema: dict[str, object]
    parameter_columns: list[str]
    row_count: int
    rows: list[dict[str, object]]


class Aggregate(_AggregateRequired, total=False):
    """The validated ``aggregate.json`` document."""


#: (key, required type) pairs checked by the manifest validator.
_MANIFEST_SCALARS: tuple[tuple[str, type], ...] = (
    ("experiment", str),
    ("paper_section", str),
    ("claim", str),
    ("engine", str),
    ("run_id", str),
    ("fingerprint", str),
    ("num_cells", int),
    ("status", str),
    ("updated_at", str),
)

_AGGREGATE_SCALARS: tuple[tuple[str, type], ...] = (
    ("experiment", str),
    ("run_id", str),
    ("fingerprint", str),
    ("paper_section", str),
    ("engine", str),
)


def _require_keys(
    payload: Mapping[str, object],
    required: Sequence[str],
    scalars: Sequence[tuple[str, type]],
    what: str,
) -> None:
    """Shared manifest/aggregate structural validation."""
    missing = [key for key in required if key not in payload]
    if missing:
        raise SchemaViolationError(
            f"{what} is missing required key(s): {', '.join(missing)}; "
            "the run directory predates the row-schema layer or was "
            "hand-edited — delete it or use a fresh --run-id"
        )
    for key, expected in scalars:
        value = payload[key]
        if not isinstance(value, expected):
            raise SchemaViolationError(
                f"{what}: key {key!r} must be {expected.__name__}, "
                f"got {type(value).__name__} ({value!r})"
            )


def _validate_manifest(payload: Mapping[str, object], where: str) -> Manifest:
    """Validate a raw manifest document and return it typed."""
    _require_keys(
        payload, list(_ManifestRequired.__annotations__), _MANIFEST_SCALARS, where
    )
    if not isinstance(payload["row_schema"], Mapping):
        raise SchemaViolationError(
            f"{where}: 'row_schema' must be a mapping, "
            f"got {type(payload['row_schema']).__name__}"
        )
    # Rebuilding proves the stored schema document is well-formed.
    RowSchema.from_json(cast("Mapping[str, object]", payload["row_schema"]))
    return cast(Manifest, dict(payload))


def _validate_aggregate(
    payload: Mapping[str, object], where: str, schema: RowSchema | None
) -> Aggregate:
    """Validate a raw aggregate document (structure + rows) and type it."""
    _require_keys(
        payload,
        list(_AggregateRequired.__annotations__),
        _AGGREGATE_SCALARS,
        where,
    )
    rows = payload["rows"]
    if not isinstance(rows, list):
        raise SchemaViolationError(
            f"{where}: 'rows' must be a list, got {type(rows).__name__}"
        )
    if payload["row_count"] != len(rows):
        raise SchemaViolationError(
            f"{where}: row_count {payload['row_count']!r} disagrees with "
            f"the {len(rows)} stored row(s)"
        )
    if not isinstance(payload["row_schema"], Mapping):
        raise SchemaViolationError(
            f"{where}: 'row_schema' must be a mapping, "
            f"got {type(payload['row_schema']).__name__}"
        )
    stored = RowSchema.from_json(
        cast("Mapping[str, object]", payload["row_schema"])
    )
    if schema is not None and schema.fingerprint() != stored.fingerprint():
        raise SchemaViolationError(
            f"{where}: stored schema {stored.name!r} "
            f"(fingerprint {stored.fingerprint()[:12]}) does not match the "
            f"current schema {schema.name!r} "
            f"(fingerprint {schema.fingerprint()[:12]})"
        )
    parameter_columns = payload["parameter_columns"]
    if not isinstance(parameter_columns, list):
        raise SchemaViolationError(
            f"{where}: 'parameter_columns' must be a list, "
            f"got {type(parameter_columns).__name__}"
        )
    # Aggregate rows interleave grid parameters and the cell index with the
    # experiment's own columns; strip only the keys the schema does not
    # claim (a grid parameter such as "case" may also be a schema column).
    extra = (
        {str(column) for column in parameter_columns} | {"cell_index"}
    ) - set(stored.names)
    for row_index, row in enumerate(rows):
        if not isinstance(row, Mapping):
            raise SchemaViolationError(
                f"{where}, row {row_index}: expected a mapping, "
                f"got {type(row).__name__}"
            )
        stored.validate_row(
            {key: value for key, value in row.items() if key not in extra},
            context=f"{where}, row {row_index}",
        )
    return cast(Aggregate, dict(payload))


def _read_document(path: Path) -> dict[str, object]:
    """Parse one stored JSON object, raising a typed error that names the file.

    A truncated or garbled manifest, shard or aggregate raises
    :class:`~repro.exceptions.SchemaViolationError` instead of a bare
    ``JSONDecodeError``, so the CLI reports it like any other bad run
    directory.
    """
    try:
        payload = json.loads(path.read_text())
    except ValueError as error:
        raise SchemaViolationError(
            f"{path} is not valid JSON ({error}); the file is truncated or "
            "corrupted — delete the run directory or use a fresh --run-id"
        ) from error
    if not isinstance(payload, dict):
        raise SchemaViolationError(
            f"{path} must hold a JSON object, got {type(payload).__name__}"
        )
    return payload


def _temp_path(path: Path) -> Path:
    """Return the temp name this process writes ``path`` through.

    The pid makes the name unique per writer, so two processes writing one
    run directory each rename their own file.
    """
    return path.with_name(f"{path.name}.{os.getpid()}.tmp")


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename)."""
    tmp = _temp_path(path)
    tmp.write_text(text)
    os.replace(tmp, path)


class RunStore:
    """Filesystem access to one run directory (see the module docstring)."""

    def __init__(self, run_dir: Path | str) -> None:
        """Bind the store to ``run_dir`` (created on first write)."""
        self.run_dir = Path(run_dir)

    # -- paths ---------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        """Path of the run manifest."""
        return self.run_dir / MANIFEST_NAME

    @property
    def aggregate_path(self) -> Path:
        """Path of the JSON aggregate."""
        return self.run_dir / AGGREGATE_NAME

    @property
    def aggregate_npz_path(self) -> Path:
        """Path of the NPZ aggregate (numeric columns)."""
        return self.run_dir / AGGREGATE_NPZ_NAME

    def shard_path(self, cell_index: int) -> Path:
        """Path of the shard file holding cell ``cell_index``."""
        return self.run_dir / f"shard_{cell_index:04d}.json"

    # -- manifest ------------------------------------------------------------
    def write_manifest(self, manifest: Mapping[str, object]) -> None:
        """Atomically (over)write the run manifest."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(
            self.manifest_path, json.dumps(manifest, indent=2, default=repr) + "\n"
        )

    def read_manifest(self) -> Manifest | None:
        """Return the validated manifest, or ``None`` for a fresh directory.

        Raises :class:`~repro.exceptions.SchemaViolationError` when the
        stored document is missing required keys or carries a malformed
        ``row_schema`` — a manifest from before the row-schema layer, or a
        hand-edited one, fails here instead of deeper in the orchestrator.
        """
        if not self.manifest_path.is_file():
            return None
        payload = _read_document(self.manifest_path)
        return _validate_manifest(payload, f"manifest {self.manifest_path}")

    # -- shards --------------------------------------------------------------
    def write_shard(self, cell_index: int, payload: Mapping[str, object]) -> None:
        """Atomically write the shard file of cell ``cell_index``."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(
            self.shard_path(cell_index),
            json.dumps(payload, indent=2, default=repr) + "\n",
        )

    def read_shard(
        self,
        cell_index: int,
        fingerprint: str | None = None,
        schema: RowSchema | None = None,
    ) -> dict[str, object] | None:
        """Return cell ``cell_index``'s shard payload, or ``None`` when absent.

        The payload must name this cell and carry a ``params`` object and a
        ``rows`` list; otherwise :class:`~repro.exceptions.SchemaViolationError`
        names the file.  When ``fingerprint`` is given, a stored shard from a
        *different* sweep (stale directory reuse) raises instead of silently
        mixing results.  When ``schema`` is given, every stored row is
        re-validated against it, so rows that were corrupted on disk (or
        written by a different code version) raise
        :class:`~repro.exceptions.SchemaViolationError` with their cell
        coordinates.
        """
        path = self.shard_path(cell_index)
        if not path.is_file():
            return None
        payload = _read_document(path)
        if fingerprint is not None and payload.get("fingerprint") != fingerprint:
            raise InvalidParameterError(
                f"{path} belongs to a different sweep (fingerprint mismatch); "
                "use a fresh --run-id or delete the stale run directory"
            )
        if payload.get("cell_index") != cell_index:
            raise SchemaViolationError(
                f"{path}: 'cell_index' is {payload.get('cell_index')!r}, "
                f"expected {cell_index}; delete the file to recompute the cell"
            )
        for key, kind in (("params", dict), ("rows", list)):
            if not isinstance(payload.get(key), kind):
                raise SchemaViolationError(
                    f"{path}: {key!r} must be a {kind.__name__}, got "
                    f"{type(payload.get(key)).__name__}; delete the file to "
                    "recompute the cell"
                )
        if schema is not None:
            schema.validate_rows(payload["rows"], context=f"{path}, cell {cell_index}")
        return payload

    def stored_cells(self, num_cells: int) -> int:
        """Count the cells of a ``num_cells``-cell run whose shard file exists.

        One ``is_file`` probe per cell: nothing is parsed, and the store
        never lists the directory.
        """
        return sum(self.shard_path(index).is_file() for index in range(num_cells))

    # -- aggregate -----------------------------------------------------------
    def write_aggregate(
        self,
        rows: Sequence[Mapping[str, object]],
        header: Mapping[str, object],
        schema: RowSchema | None = None,
    ) -> None:
        """Write the JSON aggregate and its NPZ companion.

        ``header`` carries the run identity block (experiment, run id,
        fingerprint, row schema, ...); ``rows`` are the merged
        cell-parameter + result rows in cell order.  The NPZ file holds the
        numeric columns — schema-selected when ``schema`` is given (with
        NaN holes for optional columns), value-sniffed otherwise — as one
        array per column: the bulk-analysis-friendly view of the same data.
        """
        payload = {
            "schema_version": RUN_SCHEMA_VERSION,
            **dict(header),
            "row_count": len(rows),
            "rows": [dict(row) for row in rows],
        }
        self.run_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(
            self.aggregate_path, json.dumps(payload, indent=2, default=repr) + "\n"
        )
        columns = numeric_columns(rows, schema=schema)
        if columns:
            tmp = _temp_path(self.aggregate_npz_path)
            with open(tmp, "wb") as handle:
                np.savez(handle, **columns)
            os.replace(tmp, self.aggregate_npz_path)

    def read_aggregate(self, schema: RowSchema | None = None) -> Aggregate | None:
        """Return the validated aggregate, or ``None`` when incomplete.

        Every stored row is re-validated against the aggregate's persisted
        row schema (parameter and bookkeeping columns exempted); passing
        ``schema`` additionally pins the persisted schema to the current
        code's fingerprint, so reading a drifted run raises instead of
        returning rows the caller's annotations no longer describe.
        """
        if not self.aggregate_path.is_file():
            return None
        payload = _read_document(self.aggregate_path)
        return _validate_aggregate(
            payload, f"aggregate {self.aggregate_path}", schema
        )


def numeric_columns(
    rows: Sequence[Mapping[str, object]],
    schema: RowSchema | None = None,
) -> dict[str, np.ndarray]:
    """Extract the numeric/boolean columns of ``rows`` as arrays in row order.

    With a ``schema``, its int/float/bool columns are selected by
    declaration — a column that is ``None`` (or absent) in some rows still
    lands in the NPZ as ``float64`` with NaN holes, fixing the old
    first-row type-sniffing heuristic that silently dropped it.  Columns
    outside the schema (merged cell parameters, ``cell_index``) and the
    schema-less call keep the historical rule: present in every row with an
    ``int`` / ``float`` / ``bool`` value (NumPy scalars included).
    """
    if not rows:
        return {}
    candidates = set(rows[0])
    for row in rows:
        candidates &= set(row)
    if schema is not None:
        columns = numeric_arrays(rows, schema)
        candidates -= set(schema.names)
    else:
        columns = {}
    for key in sorted(candidates):
        values = [row[key] for row in rows]
        if all(
            isinstance(value, (bool, int, float, np.bool_, np.integer, np.floating))
            for value in values
        ):
            columns[key] = np.asarray(values)
    return {key: columns[key] for key in sorted(columns)}
