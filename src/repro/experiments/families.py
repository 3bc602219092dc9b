"""Experiments E4–E6 — the paper's Section-6 graph-family case studies.

* E4 core networks (Section 6.1): satisfy the condition; Algorithm 1 converges
  under attack; edge counts support the minimality conjecture for
  ``n = 3f + 1``.
* E5 hypercubes (Section 6.2 / Figure 3): connectivity ``d`` yet the condition
  fails for every ``f ≥ 1``; the dimension-cut partition is an explicit
  witness and the split-brain attack stalls the algorithm across the cut.
* E6 chord networks (Section 6.3): ``f = 1, n = 4`` holds (complete),
  ``f = 2, n = 7`` fails with the paper's witness, ``f = 1, n = 5`` holds; a
  parameter sweep maps the feasibility frontier of the family.

Simulations run on the vectorized engine
(:func:`~repro.simulation.vectorized.run_vectorized`, bit-identical to the
scalar engine); :func:`core_network_batch_sweep` scales E4 into a Monte-Carlo
study over many input draws per ``(n, f)`` as one
:meth:`~repro.simulation.vectorized.VectorizedEngine.run_batch` pass.
"""

from __future__ import annotations

from typing import TypedDict

from repro.adversary.selection import random_fault_set
from repro.adversary.strategies import RandomNoiseStrategy
from repro.adversary.vectorized import BatchExtremePushStrategy
from repro.algorithms.trimmed_mean import TrimmedMeanRule
from repro.conditions.necessary import (
    check_feasibility,
    find_violating_partition,
    is_core_network,
    verify_witness,
)
from repro.conditions.witnesses import (
    chord_n7_f2_witness,
    hypercube_dimension_cut_witness,
)
from repro.exceptions import InvalidParameterError
from repro.experiments.necessity import demonstrate_necessity
from repro.graphs.generators import chord_network, complete_graph, core_network, hypercube
from repro.graphs.properties import (
    is_complete,
    undirected_edge_count,
    vertex_connectivity,
)
from repro.simulation.engine import SimulationConfig
from repro.simulation.inputs import bimodal_inputs, uniform_random_inputs
from repro.simulation.vectorized import (
    VectorizedEngine,
    random_input_matrix,
    run_vectorized,
)
from repro.sweeps.registry import register_experiment
from repro.sweeps.schema import Label, Metric, Parameter, Verdict

# The six Section-6 studies emit disjoint column sets, so the union schema
# marks every column absent-allowed.  Functional syntax because
# ``connectivity_at_least_2f+1`` is not a Python identifier.
FamiliesRow = TypedDict(
    "FamiliesRow",
    {
        # Shared / E4 core-network columns.
        "n": Parameter[int],
        "f": Parameter[int],
        "detected_as_core": Verdict[bool],
        "condition_holds": Verdict[bool],
        "undirected_edges": Metric[int],
        "complete_graph_edges": Metric[int],
        "converged": Verdict[bool],
        "validity_ok": Verdict[bool],
        "rounds": Metric[int],
        # E4 Monte-Carlo batch columns.
        "batch": Parameter[int],
        "fraction_converged": Metric[float],
        "all_validity_ok": Verdict[bool],
        "mean_rounds": Metric[float],
        # Minimality-conjecture columns.
        "core_edges": Metric[int],
        "complete_edges": Metric[int],
        "savings_fraction": Metric[float],
        # E5 hypercube columns.
        "dimension": Parameter[int],
        "vertex_connectivity": Metric[int],
        "connectivity_at_least_2f+1": Verdict[bool],
        "dimension_cut_is_witness": Verdict[bool],
        "attack_stalls": Verdict[bool],
        "attack_validity_ok": Verdict[bool],
        # E6 chord columns.
        "case": Label[str],
        "is_complete": Verdict[bool],
        "paper_verdict": Verdict[bool],
        "agrees_with_paper": Verdict[bool],
        "paper_witness_valid": Verdict[bool],
        "checker_found_witness": Verdict[bool],
        "converged_under_attack": Verdict[bool],
        "method": Label[str],
    },
    total=False,
)


# ---------------------------------------------------------------------------
# E4 — core networks (Section 6.1)
# ---------------------------------------------------------------------------
def core_network_study(
    rounds: int = 300,
    tolerance: float = 1e-6,
    seed: int = 7,
) -> list[FamiliesRow]:
    """Check and exercise core networks for several ``(n, f)`` pairs.

    Every row reports the structural detection, the exact condition verdict,
    the undirected edge count (for the minimality conjecture) and the outcome
    of Algorithm 1 under an extreme-pushing adversary with ``f`` random
    faulty nodes.
    """
    rows: list[FamiliesRow] = []
    for index, (n, f) in enumerate([(4, 1), (7, 2), (7, 1), (10, 3), (13, 4)]):
        graph = core_network(n, f)
        feasibility = check_feasibility(graph, f)
        rule = TrimmedMeanRule(f)
        faulty = random_fault_set(graph, f, rng=seed + index)
        outcome = run_vectorized(
            graph=graph,
            rule=rule,
            inputs=uniform_random_inputs(graph.nodes, rng=seed + index),
            faulty=faulty,
            adversary=BatchExtremePushStrategy(delta=2.0),
            max_rounds=rounds,
            tolerance=tolerance,
        )
        rows.append(
            {
                "n": n,
                "f": f,
                "detected_as_core": is_core_network(graph, f),
                "condition_holds": feasibility.satisfied,
                "undirected_edges": undirected_edge_count(graph),
                "complete_graph_edges": n * (n - 1) // 2,
                "converged": outcome.converged,
                "validity_ok": outcome.validity_ok,
                "rounds": outcome.rounds_executed,
            }
        )
    return rows


def core_network_batch_sweep(
    batch: int = 64,
    rounds: int = 300,
    tolerance: float = 1e-6,
    seed: int = 7,
) -> list[FamiliesRow]:
    """Monte-Carlo extension of E4: ``batch`` random input draws per case.

    Each ``(n, f)`` core network runs as one batched pass under the
    extreme-pushing adversary with ``f`` random faulty nodes; rows report the
    fraction of executions that converged, whether validity held in all of
    them, and the mean rounds to convergence.  Deterministic for a fixed
    ``seed``.
    """
    rows: list[FamiliesRow] = []
    for index, (n, f) in enumerate([(4, 1), (7, 2), (10, 3), (13, 4)]):
        graph = core_network(n, f)
        faulty = random_fault_set(graph, f, rng=seed + index)
        engine = VectorizedEngine(
            graph=graph,
            rule=TrimmedMeanRule(f),
            faulty=faulty,
            adversary=BatchExtremePushStrategy(delta=2.0),
            config=SimulationConfig(
                max_rounds=rounds,
                tolerance=tolerance,
                record_history=False,
            ),
        )
        outcome = engine.run_batch(
            random_input_matrix(engine.nodes, batch, rng=seed + index)
        )
        rows.append(
            {
                "n": n,
                "f": f,
                "batch": batch,
                "fraction_converged": outcome.fraction_converged,
                "all_validity_ok": outcome.all_valid,
                "mean_rounds": outcome.mean_rounds_to_convergence(),
            }
        )
    return rows


def core_network_minimality_comparison() -> list[FamiliesRow]:
    """Compare edge counts of the ``n = 3f + 1`` core network against the
    complete graph on the same nodes (the paper conjectures the core network
    is edge-minimal among feasible undirected graphs on ``3f + 1`` nodes)."""
    rows: list[FamiliesRow] = []
    for f in (1, 2, 3, 4):
        n = 3 * f + 1
        core = core_network(n, f)
        complete = complete_graph(n)
        rows.append(
            {
                "f": f,
                "n": n,
                "core_edges": undirected_edge_count(core),
                "complete_edges": undirected_edge_count(complete),
                "savings_fraction": 1.0
                - undirected_edge_count(core) / undirected_edge_count(complete),
                "condition_holds": check_feasibility(core, f).satisfied,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E5 — hypercubes (Section 6.2 / Figure 3)
# ---------------------------------------------------------------------------
def hypercube_study(attack_rounds: int = 30) -> list[FamiliesRow]:
    """Reproduce the hypercube analysis of Section 6.2 on the 3-cube, ``f = 1``.

    The row reports the vertex connectivity (equal to ``d``), whether the
    Figure-3 dimension-cut partition violates the condition, and whether
    the split-brain attack across the cut stalls Algorithm 1 (the attack
    needs in-degree ``d >= 2f`` at every fault-free node, which holds here).
    """
    dimension, f = 3, 1
    graph = hypercube(dimension)
    connectivity = vertex_connectivity(graph)
    witness = hypercube_dimension_cut_witness(dimension)
    witness_valid = verify_witness(graph, f, witness)
    demo = demonstrate_necessity(graph, f, witness=witness, rounds=attack_rounds)
    return [
        {
            "dimension": dimension,
            "n": graph.number_of_nodes,
            "f": f,
            "vertex_connectivity": connectivity,
            "connectivity_at_least_2f+1": connectivity >= 2 * f + 1,
            "dimension_cut_is_witness": witness_valid,
            "condition_holds": not witness_valid,
            "attack_stalls": demo.stalled,
            "attack_validity_ok": demo.outcome.validity_ok,
        }
    ]


# ---------------------------------------------------------------------------
# E6 — chord networks (Section 6.3)
# ---------------------------------------------------------------------------
def chord_case_studies(rounds: int = 300, tolerance: float = 1e-6) -> list[FamiliesRow]:
    """Reproduce the three chord-network instances analysed in Section 6.3."""
    rows: list[FamiliesRow] = []

    # f = 1, n = 4: the chord construction yields the complete graph.
    graph_4 = chord_network(4, 1)
    feas_4 = check_feasibility(graph_4, 1)
    rows.append(
        {
            "case": "chord n=4 f=1",
            "is_complete": is_complete(graph_4),
            "condition_holds": feas_4.satisfied,
            "paper_verdict": True,
            "agrees_with_paper": feas_4.satisfied is True,
        }
    )

    # f = 2, n = 7: fails; the paper's witness must check out, and the
    # exhaustive search must independently find some witness.
    graph_7 = chord_network(7, 2)
    paper_witness = chord_n7_f2_witness()
    witness_ok = verify_witness(graph_7, 2, paper_witness)
    found = find_violating_partition(graph_7, 2)
    feas_7 = check_feasibility(graph_7, 2)
    rows.append(
        {
            "case": "chord n=7 f=2",
            "is_complete": is_complete(graph_7),
            "condition_holds": feas_7.satisfied,
            "paper_verdict": False,
            "paper_witness_valid": witness_ok,
            "checker_found_witness": found is not None,
            "agrees_with_paper": feas_7.satisfied is False and witness_ok,
        }
    )

    # f = 1, n = 5: satisfies the condition; Algorithm 1 converges under attack.
    graph_5 = chord_network(5, 1)
    feas_5 = check_feasibility(graph_5, 1)
    outcome = run_vectorized(
        graph=graph_5,
        rule=TrimmedMeanRule(1),
        inputs=bimodal_inputs(graph_5.nodes, 0.0, 1.0, rng=3),
        faulty=frozenset({0}),
        adversary=RandomNoiseStrategy(-5.0, 5.0, rng=3),
        max_rounds=rounds,
        tolerance=tolerance,
    )
    rows.append(
        {
            "case": "chord n=5 f=1",
            "is_complete": is_complete(graph_5),
            "condition_holds": feas_5.satisfied,
            "paper_verdict": True,
            "converged_under_attack": outcome.converged,
            "validity_ok": outcome.validity_ok,
            "agrees_with_paper": feas_5.satisfied is True,
        }
    )
    return rows


def chord_feasibility_sweep() -> list[FamiliesRow]:
    """Map the feasibility frontier of the chord family over ``(n, f)``.

    Extends the paper's three data points into a small sweep; each row records
    the exact condition verdict (and the screens) for one ``(n, f)`` pair.
    """
    rows: list[FamiliesRow] = []
    for f in (1, 2):
        for n in range(4, 11):
            if n <= 3 * f:
                continue
            graph = chord_network(n, f)
            feasibility = check_feasibility(graph, f, use_structural_shortcuts=True)
            rows.append(
                {
                    "n": n,
                    "f": f,
                    "is_complete": is_complete(graph),
                    "condition_holds": feasibility.satisfied,
                    "method": feasibility.method,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Registry entry point (E4–E6 as one sharded sweep over the studies)
# ---------------------------------------------------------------------------
FAMILY_STUDIES = (
    "core",
    "core-batch",
    "minimality",
    "hypercube",
    "chord-cases",
    "chord-sweep",
)


@register_experiment(
    name="families",
    paper_section="Section 6.1-6.3 (E4-E6)",
    claim=(
        "Core networks are feasible and near edge-minimal, hypercubes fail "
        "the condition for every f >= 1, and the chord family reproduces the "
        "paper's three verdicts."
    ),
    engine="mixed",
    grid={"study": FAMILY_STUDIES},
)
def families_cell(study: str, seed: int = 7) -> list[FamiliesRow]:
    """Registry cell for E4-E6: one Section-6 family study per cell."""
    if study == "core":
        return core_network_study(seed=seed)
    if study == "core-batch":
        return core_network_batch_sweep(seed=seed)
    if study == "minimality":
        return core_network_minimality_comparison()
    if study == "hypercube":
        return hypercube_study()
    if study == "chord-cases":
        return chord_case_studies()
    if study == "chord-sweep":
        return chord_feasibility_sweep()
    raise InvalidParameterError(
        f"unknown family study {study!r}; known studies: "
        + ", ".join(FAMILY_STUDIES)
    )
