"""``repro`` — the one-command reproduction CLI.

Four subcommands over the experiment registry (:mod:`repro.sweeps`) and the
feasibility machinery (:mod:`repro.conditions`):

* ``repro list`` — every registered experiment with its paper section,
  engine, default grid size and one-line description;
* ``repro run <experiment>`` — plan and execute a sweep (optionally across
  ``--workers N`` processes), persisting a resumable run under the results
  store and printing the aggregate table;
* ``repro report <run>`` — re-open a stored run (by run id or path) and
  print its manifest summary and rows;
* ``repro verdict <family>`` — run the layered feasibility verdict stack on
  one generated graph and print the verdict, its certificate and per-layer
  timings.

Invoke as ``python -m repro ...`` from the source tree (with
``PYTHONPATH=src``) or as the ``repro`` console script after ``pip install
-e .``.  Full reference: ``docs/cli.md``; experiment ↔ paper map:
``docs/experiments.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.exceptions import InvalidParameterError, ReproError
from repro.experiments.reporting import format_table
from repro.sweeps.orchestrator import DEFAULT_RESULTS_ROOT, run_sweep
from repro.sweeps.registry import all_experiments
from repro.sweeps.schema import RowSchema
from repro.sweeps.store import Manifest, RunStore

#: Rows printed by ``repro run`` / ``repro report`` before truncation.
DEFAULT_ROW_LIMIT = 40

#: Graph families accepted by ``repro verdict``, mapped to builders taking
#: the parsed CLI namespace.  ``--n`` is the node count except for
#: ``hypercube``, where it is the dimension.
VERDICT_FAMILIES = {
    "complete": lambda args: _graphs().complete_graph(args.n),
    "ring": lambda args: _graphs().undirected_ring(args.n),
    "hypercube": lambda args: _graphs().hypercube(args.n),
    "chord": lambda args: _graphs().chord_network(args.n, args.f),
    "core": lambda args: _graphs().core_network(args.n, args.f),
    "erdos-renyi": lambda args: _graphs().erdos_renyi_digraph(
        args.n, args.p, rng=args.seed
    ),
    "heterogeneous-ring-lattice": lambda args: _graphs().heterogeneous_ring_lattice(
        args.n, args.f, args.extra_mean, rng=args.seed
    ),
    "core-like": lambda args: _graphs().random_core_like_network(
        args.n, args.f, rng=args.seed
    ),
}


def _graphs() -> Any:
    """Import :mod:`repro.graphs` lazily so ``repro list`` stays snappy."""
    import repro.graphs as graphs_module

    return graphs_module


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with its three subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__.splitlines()[0],
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list every registered experiment"
    )
    list_parser.add_argument(
        "--verbose",
        action="store_true",
        help="also print each experiment's claim and default grid",
    )

    run_parser = subparsers.add_parser(
        "run", help="execute one experiment's (possibly overridden) grid"
    )
    run_parser.add_argument("experiment", help="registered experiment name")
    run_parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1[,V2...]",
        help="override one grid parameter (repeatable)",
    )
    run_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1)"
    )
    run_parser.add_argument(
        "--seed", type=int, default=0, help="root seed for SeedSequence.spawn"
    )
    run_parser.add_argument(
        "--results-dir",
        type=Path,
        default=DEFAULT_RESULTS_ROOT,
        help="results store root (default: results/)",
    )
    run_parser.add_argument(
        "--run-id",
        default=None,
        help="run directory name (default: <experiment>-<fingerprint>)",
    )
    run_parser.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_ROW_LIMIT,
        help=f"max aggregate rows to print (default {DEFAULT_ROW_LIMIT})",
    )
    run_parser.add_argument(
        "--quiet", action="store_true", help="suppress progress and row output"
    )

    verdict_parser = subparsers.add_parser(
        "verdict",
        help="run the layered feasibility verdict stack on one graph",
    )
    verdict_parser.add_argument(
        "family",
        choices=sorted(VERDICT_FAMILIES),
        help="graph family to generate",
    )
    verdict_parser.add_argument(
        "--n",
        type=int,
        required=True,
        help="node count (hypercube: the dimension)",
    )
    verdict_parser.add_argument(
        "--f", type=int, required=True, help="fault budget f"
    )
    verdict_parser.add_argument(
        "--p",
        type=float,
        default=0.1,
        help="edge probability for erdos-renyi (default 0.1)",
    )
    verdict_parser.add_argument(
        "--extra-mean",
        type=float,
        default=1.0,
        help="mean extra out-degree for heterogeneous-ring-lattice (default 1.0)",
    )
    verdict_parser.add_argument(
        "--seed", type=int, default=0, help="generator / search seed (default 0)"
    )
    verdict_parser.add_argument(
        "--attempts",
        type=int,
        default=None,
        help="randomized witness-search attempts (default: stack default)",
    )
    verdict_parser.add_argument(
        "--backend",
        default="dpll",
        help="exact backend: auto, dpll, pysat or pulp (default dpll)",
    )
    verdict_parser.add_argument(
        "--no-exact",
        action="store_true",
        help="skip the exact constraint-backend layer",
    )

    report_parser = subparsers.add_parser(
        "report", help="print a stored run's manifest and rows"
    )
    report_parser.add_argument(
        "run", help="run id under the results store, or a run directory path"
    )
    report_parser.add_argument(
        "--results-dir",
        type=Path,
        default=DEFAULT_RESULTS_ROOT,
        help="results store root used to resolve run ids (default: results/)",
    )
    report_parser.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_ROW_LIMIT,
        help=f"max rows to print (default {DEFAULT_ROW_LIMIT})",
    )
    return parser


def _schema_view(manifest: Manifest) -> tuple[list[str], dict[str, str]]:
    """Derive the report column order and kinds from a run's row schema.

    Columns come out as the swept/injected parameters first (grid
    declaration order), then the schema's columns in their declared order,
    then the ``cell_index`` bookkeeping column — the layout
    :func:`repro.sweeps.orchestrator.aggregate_rows` merges rows in,
    derived from the manifest instead of sniffed off the first row.
    """
    schema = RowSchema.from_json(manifest["row_schema"])
    parameters = [str(column) for column in manifest["parameter_columns"]]
    columns = parameters + [
        name for name in schema.names if name not in parameters
    ]
    columns.append("cell_index")
    kinds = {
        column.name: column.kind
        for column in schema.columns
        if column.name not in parameters
    }
    return columns, kinds


def _print_rows(
    rows: Sequence[Mapping[str, object]],
    limit: int,
    columns: Sequence[str] | None = None,
    kinds: Mapping[str, str] | None = None,
) -> None:
    """Print rows as an aligned table, truncated to ``limit``."""
    if not rows:
        print("(no rows)")
        return
    shown = rows[: max(limit, 0)]
    if shown:
        print(format_table(shown, columns=columns, kinds=kinds))
    hidden = len(rows) - len(shown)
    if hidden > 0:
        print(f"... {hidden} more row(s) not shown (use --limit)")


def cmd_list(args: argparse.Namespace) -> int:
    """Implement ``repro list``."""
    rows = []
    for name, spec in all_experiments().items():
        rows.append(
            {
                "experiment": name,
                "paper_section": spec.paper_section,
                "engine": spec.engine,
                "cells": spec.default_cell_count,
                "description": spec.description,
            }
        )
    print(format_table(rows))
    if args.verbose:
        for name, spec in all_experiments().items():
            print(f"\n{name}: {spec.claim}")
            for key, values in spec.grid.items():
                print(f"  --grid {key}= default {list(values)!r}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Implement ``repro run``."""
    echo = None if args.quiet else print
    result = run_sweep(
        args.experiment,
        grid_overrides=args.grid,
        workers=args.workers,
        seed=args.seed,
        results_root=args.results_dir,
        run_id=args.run_id,
        echo=echo,
    )
    if not args.quiet:
        print()
        columns, kinds = _schema_view(result.manifest)
        _print_rows(result.rows, args.limit, columns=columns, kinds=kinds)
        print(
            f"\nrun {result.run_id!r} complete: {len(result.rows)} rows, "
            f"manifest {result.run_dir / 'manifest.json'}"
        )
    return 0


def cmd_verdict(args: argparse.Namespace) -> int:
    """Implement ``repro verdict``."""
    from repro.conditions import (
        DEFAULT_WITNESS_ATTEMPTS,
        InfeasibilityCertificate,
        feasibility_verdict,
        verify_certificate,
    )

    graph = VERDICT_FAMILIES[args.family](args)
    attempts = (
        DEFAULT_WITNESS_ATTEMPTS if args.attempts is None else args.attempts
    )
    verdict = feasibility_verdict(
        graph,
        args.f,
        witness_attempts=attempts,
        rng=args.seed,
        use_exact=not args.no_exact,
        exact_backend=args.backend,
    )
    print(
        f"graph:       {args.family} "
        f"(n = {graph.number_of_nodes}, edges = {graph.number_of_edges})"
    )
    print(f"verdict:     {verdict.describe()}")
    certificate = verdict.certificate
    if certificate is None:
        print("certificate: (none — undecided)")
    else:
        print(f"certificate: {certificate.kind}")
        if isinstance(certificate, InfeasibilityCertificate):
            if certificate.witness is not None:
                print(f"witness:     {certificate.witness.describe()}")
        elif certificate.core is not None:
            print(f"core:        {sorted(certificate.core, key=repr)}")
        verified = verify_certificate(graph, args.f, verdict)
        print(f"re-verified: {'yes' if verified else 'NO — certificate is invalid'}")
    print("layers:")
    for timing in verdict.timings:
        print(
            f"  {timing.layer:<15} {timing.seconds * 1000:9.2f} ms  {timing.outcome}"
        )
    return 0


def _resolve_run_dir(run: str, results_root: Path) -> Path:
    """Resolve a run argument: a directory path, or a run id under the root."""
    as_path = Path(run)
    if as_path.is_dir():
        return as_path
    candidate = results_root / run
    if candidate.is_dir():
        return candidate
    raise InvalidParameterError(
        f"no run directory at {as_path} or {candidate}; "
        "pass a run id from the results store or a path"
    )


def cmd_report(args: argparse.Namespace) -> int:
    """Implement ``repro report``."""
    store = RunStore(_resolve_run_dir(args.run, args.results_dir))
    manifest = store.read_manifest()
    if manifest is None:
        raise InvalidParameterError(f"{store.run_dir} has no manifest.json")
    print(f"run:            {manifest.get('run_id')}")
    print(f"experiment:     {manifest.get('experiment')}")
    print(f"paper section:  {manifest.get('paper_section')}")
    print(f"engine:         {manifest.get('engine')}")
    print(f"status:         {manifest.get('status')}")
    num_cells = manifest["num_cells"]
    print(f"cells:          {store.stored_cells(num_cells)} of {num_cells} stored")
    print(f"seed:           {manifest.get('seed')}")
    grid = manifest.get("grid", {})
    for key, values in grid.items():
        print(f"{'grid ' + key + ':':<16}{values}")
    provenance = manifest.get("provenance", {})
    print(
        f"provenance:     python {provenance.get('python')}, "
        f"numpy {provenance.get('numpy')}, git {provenance.get('git_sha')}"
    )
    aggregate = store.read_aggregate()
    print()
    if aggregate is None:
        print("(no aggregate yet — the run is incomplete; rerun `repro run`)")
        return 0
    columns, kinds = _schema_view(manifest)
    _print_rows(aggregate["rows"], args.limit, columns=columns, kinds=kinds)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "report": cmd_report,
        "verdict": cmd_verdict,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
