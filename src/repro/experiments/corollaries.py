"""Experiments E2 and E3 — the corollaries of the necessary condition.

* E2 (Corollary 2): sweeping the number of nodes ``n`` for a fixed fault
  budget ``f`` over complete graphs, the condition holds iff ``n > 3f``; the
  trimmed-mean algorithm converges under attack exactly in those cases.
* E3 (Corollary 3): a graph containing a node of in-degree ``≤ 2f`` always
  fails the condition; removing incoming edges from a feasible graph flips it
  to infeasible as soon as some node's in-degree drops to ``2f``.
"""

from __future__ import annotations

from typing import TypedDict

from repro.adversary.selection import highest_out_degree_fault_set
from repro.adversary.strategies import ExtremePushStrategy
from repro.algorithms.trimmed_mean import TrimmedMeanRule
from repro.conditions.necessary import (
    check_feasibility,
    passes_count_screen,
    passes_in_degree_screen,
)
from repro.exceptions import AlgorithmPreconditionError, InvalidParameterError
from repro.graphs.generators import complete_graph, core_network
from repro.graphs.properties import minimum_in_degree
from repro.simulation.engine import run_synchronous
from repro.simulation.inputs import linear_ramp_inputs
from repro.sweeps.registry import register_experiment
from repro.sweeps.schema import Label, Metric, Parameter, Verdict


class _Corollary2Keys(TypedDict, total=False):
    """The Corollary-2 sweep's leading columns (n-sweep over complete graphs)."""

    n: Parameter[int]
    f: Parameter[int]
    n_gt_3f: Verdict[bool]


class _CorollariesRowBase(_Corollary2Keys):
    """Column shared by both corollary sweeps."""

    condition_holds: Verdict[bool]


class CorollariesRow(_CorollariesRowBase, total=False):
    """One row of E2 (Corollary 2) or E3 (Corollary 3).

    The two sweeps emit disjoint column sets, so every column except the
    shared ``condition_holds`` verdict is absent-allowed.  The three-class
    chain only fixes the column order: ``n``, ``f``, ``n_gt_3f``, then
    ``condition_holds``, then the rest.
    """

    # Corollary-2 columns.
    method: Label[str]
    algorithm_runs: Verdict[bool]
    converged: Verdict[bool]
    validity_ok: Verdict[bool]
    rounds: Metric[int]
    final_spread: Metric[float]
    # Corollary-3 columns (edge removal at one victim node).
    removed_incoming_edges: Parameter[int]
    victim_in_degree: Metric[int]
    min_in_degree: Metric[int]
    in_degree_screen: Verdict[bool]


def corollary2_sweep(
    f: int,
    rounds: int = 200,
    tolerance: float = 1e-6,
) -> list[CorollariesRow]:
    """Sweep ``n`` over complete graphs for fixed ``f`` (experiment E2).

    For every ``n`` the row records whether the Corollary-2 screen and the
    full condition hold, and whether Algorithm 1 converged under an
    extreme-pushing adversary corrupting ``min(f, n − 1)`` nodes.  The paper
    predicts all three verdicts flip together at ``n = 3f + 1``.
    """
    if f < 0:
        raise InvalidParameterError(f"f must be >= 0, got {f}")
    rows: list[CorollariesRow] = []
    for n in range(2, 3 * f + 4):
        graph = complete_graph(n)
        screen = passes_count_screen(n, f)
        feasibility = check_feasibility(graph, f)
        row: CorollariesRow = {
            "n": n,
            "f": f,
            "n_gt_3f": screen,
            "condition_holds": feasibility.satisfied,
            "method": feasibility.method,
        }
        # Run the algorithm when it is structurally defined (in-degree >= 2f);
        # otherwise report that it cannot even be instantiated.
        rule = TrimmedMeanRule(f)
        faulty = highest_out_degree_fault_set(graph, f, size=min(f, max(0, n - 1)))
        inputs = linear_ramp_inputs(graph.nodes, 0.0, 1.0)
        try:
            outcome = run_synchronous(
                graph=graph,
                rule=rule,
                inputs=inputs,
                faulty=faulty,
                adversary=ExtremePushStrategy(delta=1.0),
                max_rounds=rounds,
                tolerance=tolerance,
            )
            row["algorithm_runs"] = True
            row["converged"] = outcome.converged
            row["validity_ok"] = outcome.validity_ok
            row["rounds"] = outcome.rounds_executed
            row["final_spread"] = outcome.final_spread
        except AlgorithmPreconditionError:
            row["algorithm_runs"] = False
            row["converged"] = False
            row["validity_ok"] = True
            row["rounds"] = 0
            row["final_spread"] = float("nan")
        rows.append(row)
    return rows


def corollary3_edge_removal(
    f: int,
    n: int | None = None,
    victim: int | None = None,
) -> list[CorollariesRow]:
    """Progressively remove incoming edges at one node of a core network (E3).

    Starting from a core network (feasible), incoming edges of the ``victim``
    node are removed one at a time.  The paper predicts the condition fails as
    soon as the victim's in-degree drops below ``2f + 1``; the rows record the
    in-degree, the Corollary-3 screen and the exact condition at each step.
    """
    if f < 1:
        raise InvalidParameterError("Corollary 3 is non-trivial only for f >= 1")
    node_count = n if n is not None else 3 * f + 2
    graph = core_network(node_count, f)
    chosen_victim = victim if victim is not None else node_count - 1
    incoming = sorted(graph.in_neighbors(chosen_victim), key=repr)
    rows: list[CorollariesRow] = []
    working = graph.copy()
    for removed_count in range(len(incoming) + 1):
        feasibility = check_feasibility(working, f, use_structural_shortcuts=False)
        rows.append(
            {
                "removed_incoming_edges": removed_count,
                "victim_in_degree": working.in_degree(chosen_victim),
                "min_in_degree": minimum_in_degree(working),
                "in_degree_screen": passes_in_degree_screen(working, f),
                "condition_holds": feasibility.satisfied,
            }
        )
        if removed_count < len(incoming):
            working.remove_edge(incoming[removed_count], chosen_victim)
    return rows


@register_experiment(
    name="corollaries",
    paper_section="Section 3, Corollaries 2-3 (E2-E3)",
    claim=(
        "Over complete graphs the condition flips exactly at n = 3f + 1, and "
        "a node of in-degree <= 2f always makes it fail."
    ),
    engine="scalar-sync",
    grid={"corollary": (2, 3), "f": (1, 2)},
)
def corollaries_cell(corollary: int, f: int) -> list[CorollariesRow]:
    """Registry cell for E2-E3: one corollary sweep for one fault budget."""
    if corollary == 2:
        return corollary2_sweep(f)
    if corollary == 3:
        return corollary3_edge_removal(f)
    raise InvalidParameterError(f"corollary must be 2 or 3, got {corollary!r}")
