"""Declarative experiment registry and sweep orchestration.

This subpackage turns the experiment modules under
:mod:`repro.experiments` into named, rerunnable artifacts:

* :mod:`repro.sweeps.registry` — the :func:`register_experiment` decorator and
  the :class:`ExperimentSpec` records it collects.  Every experiment declares
  its parameter grid, the engine it runs on and the paper section it
  reproduces.
* :mod:`repro.sweeps.schema` — per-experiment typed row schemas: a
  ``TypedDict`` whose fields carry their roles (checked by mypy) and the
  :class:`~repro.sweeps.schema.RowSchema` runtime descriptor derived from
  it, validated at every shard boundary and persisted in run manifests.
* :mod:`repro.sweeps.grid` — parameter-grid expansion into cells, CLI-style
  ``key=v1,v2`` overrides typed by each axis's kind, the seed check and
  canonical fingerprints.
* :mod:`repro.sweeps.orchestrator` — runs a grid's cells (per-cell seeds via
  ``numpy.random.SeedSequence.spawn``) across ``multiprocessing`` workers and
  aggregates bit-identically regardless of the worker count.
* :mod:`repro.sweeps.store` — the resumable ``results/`` store: one directory
  per run holding the manifest (the plan), one shard file per cell (the
  progress) and a JSON + NPZ aggregate.
* :mod:`repro.sweeps.provenance` — machine / git metadata stamped into run
  manifests and the ``BENCH_*.json`` benchmark files.

The command-line front end is :mod:`repro.cli` (``python -m repro`` or the
``repro`` console script); see ``docs/cli.md`` and ``docs/experiments.md``.
"""

from repro.sweeps.grid import apply_overrides, expand_grid, grid_fingerprint, parse_override
from repro.sweeps.orchestrator import SweepPlan, SweepResult, plan_sweep, run_sweep
from repro.sweeps.provenance import (
    RUN_SCHEMA_VERSION,
    git_revision,
    machine_provenance,
)
from repro.sweeps.registry import (
    ExperimentSpec,
    all_experiments,
    get_experiment,
    register_experiment,
    select_labelled_case,
)
from repro.sweeps.schema import (
    Column,
    RowSchema,
    schema_from_typeddict,
)
from repro.sweeps.store import Aggregate, Manifest, RunStore

__all__ = [
    "Aggregate",
    "Column",
    "Manifest",
    "RUN_SCHEMA_VERSION",
    "ExperimentSpec",
    "RowSchema",
    "RunStore",
    "schema_from_typeddict",
    "SweepPlan",
    "SweepResult",
    "all_experiments",
    "apply_overrides",
    "expand_grid",
    "get_experiment",
    "git_revision",
    "grid_fingerprint",
    "machine_provenance",
    "parse_override",
    "plan_sweep",
    "register_experiment",
    "run_sweep",
    "select_labelled_case",
]
