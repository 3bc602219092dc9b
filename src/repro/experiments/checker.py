"""Experiment E10 (ablation) — behaviour of the condition checkers.

Two questions:

1. *Agreement* — do the cheap screens, the greedy witness search and the
   randomized witness search agree with the exact (exhaustive) checker on a
   battery of small graphs?  Screens may only produce false "pass" (they are
   necessary, not sufficient), and the heuristic searches may only produce
   false "pass" (they are sound when they report a witness); neither may ever
   contradict the exact checker in the other direction.
2. *Cost* — how long does the exact bitset checker take on graphs at and
   beyond the legacy pure-Python ceiling?  The ``checker_scaling`` sweep
   (E10b) records the wall time per case, and the ``checker`` scenario of
   ``benchmarks/harness.py`` times the legacy pure-Python search against
   the bitset kernels.
"""

from __future__ import annotations

import time
from typing import TypedDict

import numpy as np

from repro.conditions.necessary import (
    DEFAULT_MAX_EXACT_NODES,
    check_feasibility,
    find_violating_partition,
    passes_count_screen,
    passes_in_degree_screen,
    verify_witness,
)
from repro.conditions.witnesses import greedy_witness_search, random_witness_search
from repro.graphs.digraph import Digraph
from repro.graphs.generators import (
    butterfly_barbell,
    chord_network,
    complete_graph,
    core_network,
    hypercube,
    ring_lattice,
    undirected_ring,
)
from repro.graphs.random_graphs import erdos_renyi_digraph, k_in_regular_digraph
from repro.sweeps.registry import register_experiment, select_labelled_case
from repro.sweeps.schema import Label, Metric, Parameter, Verdict


class CheckerRow(TypedDict):
    """One row of the E10 checker-agreement study (one battery graph)."""

    case: Label[str]
    n: Parameter[int]
    f: Parameter[int]
    exact_condition_holds: Verdict[bool]
    methods_agree: Verdict[bool]
    screens_pass: Verdict[bool]
    greedy_found_witness: Verdict[bool]
    random_found_witness: Verdict[bool]
    consistent: Verdict[bool]


class CheckerScalingRow(TypedDict):
    """One row of the E10b checker-scaling sweep (one large graph)."""

    case: Label[str]
    n: Parameter[int]
    f: Parameter[int]
    satisfied: Verdict[bool]
    decided_by: Label[str]
    witness_valid: Verdict[bool]
    elapsed_seconds: Metric[float]


def checker_test_battery(seed: int = 17) -> list[tuple[str, Digraph, int]]:
    """Return a labelled battery of small graphs covering both verdicts."""
    rng = np.random.default_rng(seed)
    battery: list[tuple[str, Digraph, int]] = [
        ("complete n=4 f=1", complete_graph(4), 1),
        ("complete n=6 f=1", complete_graph(6), 1),
        ("complete n=7 f=2", complete_graph(7), 2),
        ("core n=7 f=2", core_network(7, 2), 2),
        ("core n=5 f=1", core_network(5, 1), 1),
        ("chord n=5 f=1", chord_network(5, 1), 1),
        ("chord n=7 f=2", chord_network(7, 2), 2),
        ("chord n=8 f=1", chord_network(8, 1), 1),
        ("hypercube d=3 f=1", hypercube(3), 1),
        ("ring n=6 f=1", undirected_ring(6), 1),
        ("ring-lattice n=8 k=3 f=1", ring_lattice(8, 3), 1),
        ("barbell 4+4 bridge=1 f=1", butterfly_barbell(4, 1), 1),
        ("barbell 4+4 bridge=3 f=1", butterfly_barbell(4, 3), 1),
    ]
    for index in range(3):
        battery.append(
            (
                f"erdos-renyi n=8 p=0.6 #{index}",
                erdos_renyi_digraph(8, 0.6, rng=rng),
                1,
            )
        )
        battery.append(
            (
                f"k-in-regular n=8 k=4 #{index}",
                k_in_regular_digraph(8, 4, rng=rng),
                1,
            )
        )
    return battery


def checker_scaling_battery() -> list[tuple[str, Digraph, int]]:
    """Labelled cases at and beyond the legacy pure-Python ceiling (n = 16).

    The ``n > 16`` entries used to raise
    :class:`~repro.exceptions.GraphTooLargeError` under the old default cap;
    the ``n = 16`` entries sat exactly at it and cost seconds through the
    set-based enumeration (see ``BENCH_checker.json``) versus milliseconds
    here.  The mix covers feasible graphs (full ``2^{n−|F|}`` enumeration,
    the worst case) and violating ones (early exit on the first witness).
    """
    return [
        ("chord n=16 f=1", chord_network(16, 1), 1),
        ("chord n=20 f=1", chord_network(20, 1), 1),
        ("core n=18 f=2", core_network(18, 2), 2),
        ("ring-lattice n=20 k=4 f=1", ring_lattice(20, 4), 1),
        ("hypercube d=4 f=1", hypercube(4), 1),
        ("barbell 12+12 n=24 f=1", butterfly_barbell(12, 1), 1),
    ]


@register_experiment(
    name="checker_scaling",
    paper_section="Theorem-1 checker at scale (E10b)",
    claim=(
        "The bitset-vectorized checker decides the exact Theorem-1 "
        "condition on graphs beyond the legacy pure-Python ceiling."
    ),
    engine="checker",
    grid={
        "case": tuple(label for label, _, _ in checker_scaling_battery()),
    },
)
def checker_scaling_cell(case: str) -> list[CheckerScalingRow]:
    """Registry cell for E10b: time the exact bitset check on one large case."""
    label, graph, f = select_labelled_case(
        case, checker_scaling_battery(), "checker_scaling case"
    )
    cap = max(graph.number_of_nodes, DEFAULT_MAX_EXACT_NODES)
    start = time.perf_counter()
    result = check_feasibility(graph, f, max_nodes=cap, use_structural_shortcuts=False)
    elapsed = time.perf_counter() - start
    witness_valid = result.witness is None or verify_witness(graph, f, result.witness)
    return [
        {
            "case": label,
            "n": graph.number_of_nodes,
            "f": f,
            "satisfied": result.satisfied,
            "decided_by": result.method,
            "witness_valid": witness_valid,
            "elapsed_seconds": elapsed,
        }
    ]


@register_experiment(
    name="checker",
    paper_section="Theorem-1 checker toolchain (E10)",
    claim=(
        "Screens and heuristic witness searches never contradict the "
        "exhaustive Theorem-1 checker in the disallowed direction."
    ),
    engine="checker",
    grid={
        "case": tuple(label for label, _, _ in checker_test_battery()),
        "random_attempts": (300,),
    },
)
def checker_cell(
    case: str, random_attempts: int = 300, seed: int = 29
) -> list[CheckerRow]:
    """Registry cell for E10: the checker-agreement study on one battery graph.

    The row records the exact verdict, the screen verdicts and whether each
    heuristic found a witness; the ``consistent`` column is true when no
    method contradicts the exact verdict in the disallowed direction.
    """
    label, graph, f = select_labelled_case(
        case, checker_test_battery(), "checker case"
    )
    exact_witness = find_violating_partition(graph, f, method="bitset")
    legacy_witness = find_violating_partition(graph, f, method="python")
    methods_agree = exact_witness == legacy_witness
    exact_holds = exact_witness is None
    screens_pass = passes_count_screen(
        graph.number_of_nodes, f
    ) and passes_in_degree_screen(graph, f)
    greedy = greedy_witness_search(graph, f)
    randomized = random_witness_search(graph, f, attempts=random_attempts, rng=seed)
    greedy_valid = greedy is None or verify_witness(graph, f, greedy)
    randomized_valid = randomized is None or verify_witness(graph, f, randomized)
    consistent = True
    # The bitset fast path and the legacy enumeration are the same search
    # in different arithmetic; any disagreement is an implementation bug.
    if not methods_agree:
        consistent = False
    # Screens are necessary conditions: they may pass on infeasible graphs
    # but must never fail on feasible ones.
    if exact_holds and not screens_pass:
        consistent = False
    # Heuristic witnesses must be genuine (sound) and can only exist when
    # the exact checker also finds the graph infeasible.
    if greedy is not None and (exact_holds or not greedy_valid):
        consistent = False
    if randomized is not None and (exact_holds or not randomized_valid):
        consistent = False
    return [
        {
            "case": label,
            "n": graph.number_of_nodes,
            "f": f,
            "exact_condition_holds": exact_holds,
            "methods_agree": methods_agree,
            "screens_pass": screens_pass,
            "greedy_found_witness": greedy is not None,
            "random_found_witness": randomized is not None,
            "consistent": consistent,
        }
    ]
