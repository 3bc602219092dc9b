"""Experiment E15 — the feasibility verdict stack on 100–1000-node graphs.

The exhaustive Theorem-1 checker caps out in the mid-20s of nodes; the
layered verdict stack (:mod:`repro.conditions.verdict`) keeps answering the
feasibility question past that by combining corollary screens, structural
shortcuts, the source-component screen and certified witness search.  This
sweep measures how often each layer decides — and at what cost — across
three random families chosen to exercise different layers:

* sparse Erdős–Rényi digraphs, whose minimum in-degree collapses below
  ``2f + 1`` (the Corollary-3 screen decides INFEASIBLE);
* heterogeneous ring lattices, whose ring backbone passes the screens but
  whose thin long-range wiring leaves arc-shaped violating partitions for
  the witness layer to certify (denser wiring pushes toward UNKNOWN —
  witness search is one-sided and cannot prove feasibility);
* core-like networks, whose ``2f + 1`` hubs form a Definition-4 core
  structure (the screens decide FEASIBLE).

Every decided verdict's certificate is re-verified from scratch through
:func:`repro.conditions.verdict.verify_certificate`; the ``certificate_ok``
column must be true on every row.
"""

from __future__ import annotations

import time
from typing import Callable, TypedDict

from repro.conditions.verdict import (
    UNKNOWN,
    feasibility_verdict,
    verify_certificate,
)
from repro.graphs.digraph import Digraph
from repro.graphs.random_graphs import (
    erdos_renyi_digraph,
    heterogeneous_ring_lattice,
    random_core_like_network,
)
from repro.sweeps.registry import register_experiment, select_labelled_case
from repro.sweeps.schema import schema_from_typeddict


class FeasibilityScaleRow(TypedDict):
    """One audited verdict of the E15 feasibility-at-scale sweep."""

    case: str
    n: int
    f: int
    status: str
    decided: bool
    decided_by: str
    certificate: str
    certificate_ok: bool
    screens_ms: float
    witness_ms: float
    elapsed_seconds: float


#: Runtime half of :class:`FeasibilityScaleRow`; validated at shard boundaries.
FEASIBILITY_SCALE_SCHEMA = schema_from_typeddict(
    FeasibilityScaleRow,
    roles={
        "case": "label",
        "n": "parameter",
        "f": "parameter",
        "status": "label",
        "decided": "verdict",
        "decided_by": "label",
        "certificate": "label",
        "certificate_ok": "verdict",
        "screens_ms": "metric",
        "witness_ms": "metric",
        "elapsed_seconds": "metric",
    },
)

#: Node counts swept by the scale battery.
DEFAULT_SCALE_SIZES = (100, 300, 1000)

#: One battery case: its label, a zero-argument build function and the fault
#: budget.
ScaleCase = tuple[str, Callable[[], Digraph], int]


def feasibility_scale_cases(seed: int = 11) -> list[ScaleCase]:
    """Return the labelled 100–1000-node battery as unbuilt cases.

    Each size contributes one case per family.  Every build function seeds
    its own generator from ``seed`` and the size, so a case builds the same
    graph alone as it does inside the whole battery; listing the cases
    builds nothing.
    """
    cases: list[ScaleCase] = []
    for n in DEFAULT_SCALE_SIZES:
        rng = seed + n
        cases += [
            (
                f"hetring n={n} f=2 extra=0.5",
                lambda n=n, rng=rng: heterogeneous_ring_lattice(n, 2, 0.5, rng=rng),
                2,
            ),
            (
                f"hetring n={n} f=2 extra=2.0",
                lambda n=n, rng=rng: heterogeneous_ring_lattice(n, 2, 2.0, rng=rng),
                2,
            ),
            (
                f"erdos-renyi n={n} sparse f=2",
                lambda n=n, rng=rng: erdos_renyi_digraph(n, 3.0 / n, rng=rng),
                2,
            ),
            (
                f"core-like n={n} f=3",
                lambda n=n, rng=rng: random_core_like_network(n, 3, rng=rng),
                3,
            ),
        ]
    return cases


def feasibility_scale_battery(seed: int = 11) -> list[tuple[str, Digraph, int]]:
    """Return the labelled 100–1000-node battery for the verdict sweep, with
    every graph of :func:`feasibility_scale_cases` built."""
    return [(label, build(), f) for label, build, f in feasibility_scale_cases(seed)]


def feasibility_scale_study(
    battery: list[tuple[str, Digraph, int]] | None = None,
    witness_attempts: int = 60,
    seed: int = 23,
) -> list[FeasibilityScaleRow]:
    """Run the verdict stack over the battery and audit every certificate.

    Each row records the verdict status, the deciding layer, the certificate
    kind, whether the certificate re-verifies from scratch, and the
    wall-clock split across layers.
    """
    chosen = battery if battery is not None else feasibility_scale_battery()
    rows: list[FeasibilityScaleRow] = []
    for label, graph, f in chosen:
        start = time.perf_counter()
        verdict = feasibility_verdict(
            graph, f, witness_attempts=witness_attempts, rng=seed
        )
        elapsed = time.perf_counter() - start
        layer_ms = {
            timing.layer: timing.seconds * 1000 for timing in verdict.timings
        }
        rows.append(
            {
                "case": label,
                "n": graph.number_of_nodes,
                "f": f,
                "status": verdict.status,
                "decided": verdict.status != UNKNOWN,
                "decided_by": verdict.decided_by or "-",
                "certificate": getattr(verdict.certificate, "kind", "-"),
                "certificate_ok": verify_certificate(graph, f, verdict),
                "screens_ms": round(layer_ms.get("screens", 0.0), 3),
                "witness_ms": round(layer_ms.get("witness-search", 0.0), 3),
                "elapsed_seconds": elapsed,
            }
        )
    return rows


@register_experiment(
    name="feasibility_at_scale",
    paper_section="Theorem-1 feasibility beyond the exact cap (E15)",
    claim=(
        "The layered verdict stack decides Theorem-1 feasibility with "
        "re-verifiable certificates on most 100-1000-node random graphs."
    ),
    engine="checker",
    grid={
        "case": tuple(label for label, _, _ in feasibility_scale_cases()),
        "witness_attempts": (60,),
    },
    schema=FEASIBILITY_SCALE_SCHEMA,
)
def feasibility_scale_cell(
    case: str, witness_attempts: int = 60, seed: int = 23
) -> list[FeasibilityScaleRow]:
    """Registry cell for E15: the verdict stack on one battery graph, the
    only one the cell builds."""
    [(label, build, f)] = select_labelled_case(
        case, feasibility_scale_cases(), "feasibility_at_scale case"
    )
    return feasibility_scale_study(
        battery=[(label, build(), f)], witness_attempts=witness_attempts, seed=seed
    )
