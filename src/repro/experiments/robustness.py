"""Experiment E11 (ablation) — Theorem-1 condition vs graph robustness.

The companion work of LeBlanc, Zhang, Sundaram and Koutsoukos characterises
resilient consensus (under the broadcast / local models) via
``(r, s)``-robustness; in particular ``(f + 1, f + 1)``-robustness is the
condition most closely corresponding to the paper's Theorem 1 under the
``f``-total Byzantine model.  This driver evaluates both predicates on the
paper's graph families and reports where they agree, connecting the paper's
characterisation to the robustness literature it cites.

Each structural verdict is also checked *dynamically* on the batched
vectorized engine: feasible graphs run a Monte-Carlo batch under the
batch-native extreme-pushing adversary (they must converge), infeasible
graphs mount the batch-native split-brain attack on the checker's witness
(they must stall) — so every row ties the static predicates to the
adversarial behaviour they predict.
"""

from __future__ import annotations

from typing import TypedDict

from repro.adversary.selection import highest_out_degree_fault_set
from repro.adversary.vectorized import BatchExtremePushStrategy
from repro.algorithms.trimmed_mean import TrimmedMeanRule
from repro.conditions.necessary import check_feasibility, find_violating_partition
from repro.conditions.robustness import is_r_robust, is_r_s_robust, robustness_degree
from repro.experiments.necessity import split_brain_stall_study
from repro.graphs.digraph import Digraph
from repro.graphs.generators import (
    chord_network,
    complete_graph,
    core_network,
    hypercube,
    undirected_ring,
)
from repro.simulation.engine import SimulationConfig
from repro.simulation.vectorized import VectorizedEngine, random_input_matrix
from repro.sweeps.registry import register_experiment, select_labelled_case
from repro.sweeps.schema import Label, Metric, Parameter, Verdict
from repro.types import FeasibilityResult


class _SimColumns(TypedDict):
    """Batched-simulation columns backing one structural verdict.

    All four are ``None`` when no attack could be mounted (no witness).
    """

    sim_adversary: str | None
    sim_fraction_converged: float | None
    sim_all_validity_ok: bool | None
    sim_stalled_fraction: float | None


# Functional syntax because the robustness predicates are spelled with the
# paper's notation ("robust_2f+1" is not a Python identifier).
RobustnessRow = TypedDict(
    "RobustnessRow",
    {
        "case": Label[str],
        "n": Parameter[int],
        "f": Parameter[int],
        "theorem1_holds": Verdict[bool],
        "robust_2f+1": Verdict[bool],
        "robust_(f+1,f+1)": Verdict[bool],
        "robustness_degree": Metric[int],
        "agrees": Verdict[bool],
        "sim_adversary": Label[str | None],
        "sim_fraction_converged": Metric[float | None],
        "sim_all_validity_ok": Verdict[bool | None],
        "sim_stalled_fraction": Metric[float | None],
    },
)


def default_robustness_cases() -> list[tuple[str, Digraph, int]]:
    """Return the labelled ``(name, graph, f)`` cases for the comparison."""
    return [
        ("complete n=4 f=1", complete_graph(4), 1),
        ("complete n=7 f=2", complete_graph(7), 2),
        ("core n=7 f=2", core_network(7, 2), 2),
        ("core n=5 f=1", core_network(5, 1), 1),
        ("chord n=5 f=1", chord_network(5, 1), 1),
        ("chord n=7 f=2", chord_network(7, 2), 2),
        ("chord n=8 f=1", chord_network(8, 1), 1),
        ("hypercube d=3 f=1", hypercube(3), 1),
        ("hypercube d=4 f=1", hypercube(4), 1),
        ("ring n=6 f=1", undirected_ring(6), 1),
    ]


def _dynamic_check(
    graph: Digraph,
    f: int,
    feasibility: FeasibilityResult,
    batch: int,
    rounds: int,
    seed: int,
) -> _SimColumns:
    """Exercise the structural verdict on the batched vectorized engine.

    Feasible graphs run ``batch`` random executions under the batch-native
    extreme-pushing adversary; infeasible graphs mount the batch-native
    split-brain attack on the checker's witness (when it produced one) and
    report the fraction of executions stalled at the full input gap.
    """
    if feasibility.satisfied:
        engine = VectorizedEngine(
            graph=graph,
            rule=TrimmedMeanRule(f),
            faulty=highest_out_degree_fault_set(graph, f),
            adversary=BatchExtremePushStrategy(delta=2.0),
            config=SimulationConfig(
                max_rounds=rounds, tolerance=1e-6, record_history=False
            ),
        )
        outcome = engine.run_batch(
            random_input_matrix(engine.nodes, batch, rng=seed)
        )
        return {
            "sim_adversary": "batch-extreme-push",
            "sim_fraction_converged": outcome.fraction_converged,
            "sim_all_validity_ok": outcome.all_valid,
            "sim_stalled_fraction": None,
        }
    witness = feasibility.witness
    if witness is None:
        # Screen-based verdicts (e.g. the in-degree screen) carry no
        # witness; the exhaustive search supplies one for the attack.
        witness = find_violating_partition(graph, f)
    if witness is None:  # pragma: no cover - a False verdict has a witness
        return {
            "sim_adversary": None,
            "sim_fraction_converged": None,
            "sim_all_validity_ok": None,
            "sim_stalled_fraction": None,
        }
    outcome, stalled = split_brain_stall_study(
        graph, f, witness, batch=batch, rounds=rounds, seed=seed
    )
    return {
        "sim_adversary": "batch-split-brain",
        "sim_fraction_converged": outcome.fraction_converged,
        "sim_all_validity_ok": outcome.all_valid,
        "sim_stalled_fraction": stalled,
    }


@register_experiment(
    name="robustness",
    paper_section="Related work: (r, s)-robustness (E11)",
    claim=(
        "The Theorem-1 verdict coincides with (f+1, f+1)-robustness on the "
        "paper's graph families, and the batched adversarial simulation "
        "matches both."
    ),
    engine="mixed",
    grid={
        "case": tuple(label for label, _, _ in default_robustness_cases()),
        "batch": (16,),
    },
)
def robustness_cell(
    case: str, batch: int = 16, seed: int = 23
) -> list[RobustnessRow]:
    """Registry cell for E11: Theorem 1 vs robustness notions on one graph.

    The row records all three verdicts plus the graph's robustness degree;
    the ``agrees`` column states whether the Theorem-1 verdict matches
    ``(f+1, f+1)``-robustness, and the ``sim_*`` columns report the batched
    adversarial simulation backing the verdict (see :func:`_dynamic_check`).
    """
    label, graph, f = select_labelled_case(
        case, default_robustness_cases(), "robustness case"
    )
    feasibility = check_feasibility(graph, f, use_structural_shortcuts=False)
    theorem1 = feasibility.satisfied
    r_s = is_r_s_robust(graph, f + 1, f + 1)
    sim = _dynamic_check(graph, f, feasibility, batch=batch, rounds=120, seed=seed)
    return [
        {
            "case": label,
            "n": graph.number_of_nodes,
            "f": f,
            "theorem1_holds": theorem1,
            "robust_2f+1": is_r_robust(graph, 2 * f + 1),
            "robust_(f+1,f+1)": r_s,
            "robustness_degree": robustness_degree(graph),
            "agrees": theorem1 == r_s,
            "sim_adversary": sim["sim_adversary"],
            "sim_fraction_converged": sim["sim_fraction_converged"],
            "sim_all_validity_ok": sim["sim_all_validity_ok"],
            "sim_stalled_fraction": sim["sim_stalled_fraction"],
        }
    ]
