"""The sweep orchestrator.

A sweep is planned deterministically from ``(experiment, grid, seed)``:

1. the grid expands into an ordered cell list (:func:`repro.sweeps.grid.expand_grid`);
2. the run's root ``numpy.random.SeedSequence`` spawns one child per cell —
   cell ``i`` always receives child ``i``, so its seed depends only on the
   root seed and its position, never on which worker executes it.

The cell is the unit of work, resume and progress: shard file ``i`` holds
exactly cell ``i``.  Execution fans the pending cells across
``multiprocessing`` workers; each worker rebuilds the plan from the same
inputs (no pickled graphs or engines cross the process boundary).
Aggregation sorts rows by cell index, so the aggregate is **bit-identical**
for any worker count — enforced by ``tests/test_sweeps.py``.  The manifest is
the plan, written once as ``running`` before any cell executes and once as
``complete`` after aggregation; the shard files in the run directory
(:class:`repro.sweeps.store.RunStore`) are the progress, and cells whose
file exists are skipped on resume.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence, cast

import numpy as np

from repro.exceptions import InvalidParameterError, SchemaViolationError
from repro.sweeps.grid import apply_overrides, expand_grid, grid_fingerprint
from repro.sweeps.provenance import (
    RUN_SCHEMA_VERSION,
    machine_provenance,
    utc_now_iso,
)
from repro.sweeps.registry import ExperimentSpec, get_experiment
from repro.sweeps.schema import RowSchema
from repro.sweeps.store import Manifest, RunStore

#: Default root directory of the results store.
DEFAULT_RESULTS_ROOT = Path("results")


@dataclass(frozen=True)
class SweepPlan:
    """Deterministic description of one sweep run.

    Everything downstream (per-cell seeds, the run id) is a pure function of
    ``(experiment, grid, seed)``; two plans built from the same inputs are
    identical in every field.
    """

    experiment: str
    grid: Mapping[str, tuple]
    cells: tuple[dict[str, object], ...]
    cell_seeds: tuple[int, ...]
    seed: int
    fingerprint: str
    run_id: str


@dataclass(frozen=True)
class SweepResult:
    """Outcome of :func:`run_sweep`: where the run lives and its rows."""

    run_id: str
    run_dir: Path
    manifest: Manifest
    rows: list[dict[str, object]]


def _spawn_cell_seeds(seed: int, num_cells: int) -> tuple[int, ...]:
    """Derive one deterministic seed per cell via ``SeedSequence.spawn``."""
    if num_cells == 0:
        return ()
    children = np.random.SeedSequence(seed).spawn(num_cells)
    return tuple(int(child.generate_state(1)[0]) for child in children)


def plan_from_grid(
    name: str,
    grid: Mapping[str, Sequence[object]],
    seed: int = 0,
    run_id: str | None = None,
) -> SweepPlan:
    """Build a :class:`SweepPlan` from an already-effective grid."""
    spec = get_experiment(name)
    effective = {str(key): tuple(values) for key, values in grid.items()}
    cells = expand_grid(effective)
    fingerprint = grid_fingerprint(name, effective, seed)
    return SweepPlan(
        experiment=spec.name,
        grid=effective,
        cells=tuple(cells),
        cell_seeds=_spawn_cell_seeds(seed, len(cells)),
        seed=seed,
        fingerprint=fingerprint,
        run_id=run_id or f"{spec.name}-{fingerprint[:10]}",
    )


def plan_sweep(
    name: str,
    grid_overrides: Sequence[str] = (),
    seed: int = 0,
    run_id: str | None = None,
) -> SweepPlan:
    """Plan a sweep of experiment ``name`` with CLI-style grid overrides."""
    spec = get_experiment(name)
    extra = ("seed",) if spec.accepts_seed else ()
    grid = apply_overrides(spec.grid, grid_overrides, extra_allowed=extra)
    return plan_from_grid(name, grid, seed=seed, run_id=run_id)


def _cell_params(
    spec: ExperimentSpec, plan: SweepPlan, cell_index: int
) -> dict[str, object]:
    """Return the runner kwargs for one cell (with the injected seed, if any)."""
    params = dict(plan.cells[cell_index])
    if spec.accepts_seed and "seed" not in params:
        params["seed"] = plan.cell_seeds[cell_index]
    return params


def _parameter_columns(spec: ExperimentSpec, plan: SweepPlan) -> list[str]:
    """Names of the cell-parameter columns merged into aggregate rows."""
    columns = list(plan.grid)
    if spec.accepts_seed and "seed" not in columns:
        columns.append("seed")
    return columns


def execute_shard(plan: SweepPlan, cell_index: int) -> dict[str, object]:
    """Run one cell and return its shard payload.

    The payload is self-describing (fingerprint, cell index, the exact
    runner parameters and the rows) so a shard file can be validated and
    aggregated without re-deriving anything.  Every row is validated against
    the experiment's :class:`~repro.sweeps.schema.RowSchema` before the
    payload leaves this function — an unknown, missing or mistyped column
    raises :class:`~repro.exceptions.SchemaViolationError` naming the
    experiment, cell and row it came from.
    """
    spec = get_experiment(plan.experiment)
    params = _cell_params(spec, plan, cell_index)
    rows = [dict(row) for row in spec.runner(**params)]
    spec.schema.validate_rows(
        rows, context=f"experiment {plan.experiment!r}, cell {cell_index}"
    )
    return {
        "schema_version": RUN_SCHEMA_VERSION,
        "experiment": plan.experiment,
        "fingerprint": plan.fingerprint,
        "cell_index": cell_index,
        "params": params,
        "rows": rows,
    }


def _shard_task(
    task: tuple[str, tuple[tuple[str, tuple], ...], int, int]
) -> tuple[int, dict[str, object]]:
    """Worker entry point: rebuild the plan and execute one cell.

    Workers receive only JSON-level scalars (experiment name, grid items,
    seed, cell index) and rebuild the identical plan locally, so results
    cannot depend on pickling details or on the parent's state.
    """
    name, grid_items, seed, cell_index = task
    plan = plan_from_grid(name, dict(grid_items), seed=seed)
    return cell_index, execute_shard(plan, cell_index)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (inherits ``sys.path``, cheap) and fall back to ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _build_manifest(
    spec: ExperimentSpec,
    plan: SweepPlan,
    status: str,
    provenance: dict[str, object],
) -> Manifest:
    """Assemble the manifest document: the run's plan and its status."""
    return {
        "schema_version": RUN_SCHEMA_VERSION,
        "experiment": plan.experiment,
        "paper_section": spec.paper_section,
        "claim": spec.claim,
        "engine": spec.engine,
        "run_id": plan.run_id,
        "fingerprint": plan.fingerprint,
        "seed": plan.seed,
        "grid": {key: list(values) for key, values in plan.grid.items()},
        "num_cells": len(plan.cells),
        "cells": [dict(cell) for cell in plan.cells],
        "cell_seeds": list(plan.cell_seeds),
        "status": status,
        "updated_at": utc_now_iso(),
        "provenance": provenance,
        "row_schema": spec.schema.to_json(),
        "parameter_columns": _parameter_columns(spec, plan),
    }


def aggregate_rows(
    plan: SweepPlan, payloads: Mapping[int, Mapping[str, object]]
) -> list[dict[str, object]]:
    """Merge the cells' shard payloads into the flat row list, in cell order.

    Each output row is the cell's parameters, then the driver's row (driver
    keys win on collision — they carry the same values anyway), then the
    bookkeeping ``cell_index``.  Because cells are totally ordered, the
    result is independent of completion order and worker count.
    """
    rows: list[dict[str, object]] = []
    for cell_index in range(len(plan.cells)):
        payload = payloads[cell_index]
        params = dict(cast("Mapping[str, object]", payload["params"]))
        for row in cast("list[Mapping[str, object]]", payload["rows"]):
            rows.append({**params, **row, "cell_index": cell_index})
    return rows


def run_sweep(
    name: str,
    grid_overrides: Sequence[str] = (),
    workers: int = 1,
    seed: int = 0,
    results_root: Path | str = DEFAULT_RESULTS_ROOT,
    run_id: str | None = None,
    echo: Callable[[str], None] | None = None,
) -> SweepResult:
    """Plan, execute (optionally multi-process), persist and resume a sweep.

    Parameters
    ----------
    name:
        Registered experiment name (see ``repro list``).
    grid_overrides:
        CLI-style ``key=v1,v2`` strings narrowing/overriding the default grid.
    workers:
        Process count; ``1`` runs in-process.  Aggregates are bit-identical
        for any value.
    seed:
        Root seed; per-cell seeds are spawned from it via ``SeedSequence``.
    results_root, run_id:
        Where the run directory lives and what it is called (default id:
        ``<experiment>-<fingerprint prefix>``).  Cells whose shard file
        already exists there are not executed again.
    echo:
        Optional progress sink (e.g. ``print``).

    Returns
    -------
    SweepResult
        The run id/directory, the final manifest and the aggregated rows.
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    spec = get_experiment(name)
    plan = plan_sweep(name, grid_overrides, seed=seed, run_id=run_id)
    say = echo if echo is not None else (lambda message: None)

    store = RunStore(Path(results_root) / plan.run_id)
    existing = store.read_manifest()
    if existing is not None and existing.get("fingerprint") != plan.fingerprint:
        raise InvalidParameterError(
            f"run directory {store.run_dir} holds a different sweep "
            f"(fingerprint {existing.get('fingerprint')!r}); choose another "
            "--run-id or delete it"
        )
    if existing is not None:
        stored_schema = RowSchema.from_json(existing["row_schema"])
        if stored_schema.fingerprint() != spec.schema.fingerprint():
            raise SchemaViolationError(
                f"run {plan.run_id!r} in {store.run_dir} was produced under "
                f"row schema {stored_schema.name!r} (fingerprint "
                f"{stored_schema.fingerprint()[:12]}) but the current code "
                f"declares {spec.schema.name!r} (fingerprint "
                f"{spec.schema.fingerprint()[:12]}); the schema drifted — "
                "delete the run directory or use a fresh --run-id"
            )

    # The shard files are the run's progress.  One pass over them fills the
    # payload cache that aggregation reuses instead of re-reading them.
    # Stored cells are schema-re-validated here, so resume never mixes rows
    # a different code version wrote.
    payloads: dict[int, dict[str, object]] = {}
    for index in range(len(plan.cells)):
        payload = store.read_shard(
            index, fingerprint=plan.fingerprint, schema=spec.schema
        )
        if payload is not None:
            payloads[index] = payload
    pending = [index for index in range(len(plan.cells)) if index not in payloads]
    provenance = machine_provenance()
    store.write_manifest(_build_manifest(spec, plan, "running", provenance))
    say(
        f"{plan.experiment}: {len(plan.cells)} cells "
        f"({len(payloads)} already complete, {len(pending)} to run, "
        f"workers={workers}) -> {store.run_dir}"
    )

    def record(cell_index: int, payload: dict[str, object]) -> None:
        store.write_shard(cell_index, payload)
        payloads[cell_index] = payload
        say(f"  cell {cell_index:04d} done")

    if pending:
        if workers == 1 or len(pending) == 1:
            for cell_index in pending:
                record(cell_index, execute_shard(plan, cell_index))
        else:
            grid_items = tuple(
                (key, tuple(values)) for key, values in plan.grid.items()
            )
            tasks = [
                (plan.experiment, grid_items, plan.seed, index) for index in pending
            ]
            context = _pool_context()
            with context.Pool(processes=min(workers, len(pending))) as pool:
                for cell_index, payload in pool.imap_unordered(_shard_task, tasks):
                    record(cell_index, payload)

    rows = aggregate_rows(plan, payloads)
    manifest = _build_manifest(spec, plan, "complete", provenance)
    manifest["row_count"] = len(rows)
    store.write_aggregate(
        rows,
        header={
            "experiment": plan.experiment,
            "run_id": plan.run_id,
            "fingerprint": plan.fingerprint,
            "paper_section": spec.paper_section,
            "engine": spec.engine,
            "row_schema": spec.schema.to_json(),
            "parameter_columns": _parameter_columns(spec, plan),
        },
        schema=spec.schema,
    )
    store.write_manifest(manifest)
    say(f"  aggregate: {len(rows)} rows -> {store.aggregate_path}")
    return SweepResult(
        run_id=plan.run_id, run_dir=store.run_dir, manifest=manifest, rows=rows
    )
