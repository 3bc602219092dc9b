"""Experiment E7 — convergence rate: measured contraction vs the Lemma-5 bound.

For each graph family the driver

1. computes ``α`` (eq. 3) and the worst-case window length ``n − f − 1``,
2. runs Algorithm 1 under an extreme-pushing adversary and records the trace,
3. replays Theorem 3's windowed argument along the trace
   (:func:`repro.analysis.convergence.verify_theorem3_windows`), reporting the
   analytical per-window factor and the contraction actually measured, and
4. fits an empirical per-round decay rate for comparison.

The paper's bound must never be violated (measured ≤ bound per window); the
measured rate is typically far better than the bound, and the driver reports
the gap so the benchmark can show the bound's conservatism quantitatively.

Execution is vectorized: the per-case study runs on
:func:`~repro.simulation.vectorized.run_vectorized` (bit-identical to the
scalar engine), and the registered cell (:func:`convergence_rate_cell`)
extends each case into a Monte-Carlo batch over many input draws on one
:class:`~repro.simulation.vectorized.VectorizedEngine`.
"""

from __future__ import annotations

from typing import TypedDict

import numpy as np

from repro.adversary.selection import random_fault_set
from repro.adversary.vectorized import BatchExtremePushStrategy
from repro.algorithms.trimmed_mean import TrimmedMeanRule
from repro.analysis.convergence import (
    alpha_for_rule,
    empirical_decay_rate,
    lemma5_contraction_factor,
    rounds_to_reach,
    verify_theorem3_windows,
    worst_case_window_length,
)
from repro.graphs.digraph import Digraph
from repro.graphs.generators import chord_network, complete_graph, core_network
from repro.simulation.engine import SimulationConfig
from repro.simulation.inputs import bimodal_inputs
from repro.simulation.trace import spreads_from_records
from repro.simulation.vectorized import (
    VectorizedEngine,
    random_input_matrix,
    run_vectorized,
)
from repro.sweeps.registry import register_experiment, select_labelled_case
from repro.sweeps.schema import Label, Metric, Parameter, Verdict
from repro.types import NodeId


class ConvergenceRateRow(TypedDict):
    """One Monte-Carlo cell of the E7 convergence-rate sweep.

    ``max_rounds`` and the percentile columns are ``float`` because an empty
    converged set yields ``nan`` (declared float; int values still validate).
    """

    case: Label[str]
    n: Parameter[int]
    f: Parameter[int]
    batch: Parameter[int]
    alpha: Metric[float]
    fraction_converged: Metric[float]
    all_validity_ok: Verdict[bool]
    mean_rounds: Metric[float]
    p50_rounds: Metric[float]
    p90_rounds: Metric[float]
    max_rounds: Metric[float]
    bound_rounds: Metric[int]


def default_rate_cases() -> list[tuple[str, Digraph, int]]:
    """Return the labelled ``(name, graph, f)`` cases used by the E7 benchmark."""
    return [
        ("complete n=4 f=1", complete_graph(4), 1),
        ("complete n=7 f=2", complete_graph(7), 2),
        ("core n=7 f=2", core_network(7, 2), 2),
        ("core n=10 f=3", core_network(10, 3), 3),
        ("chord n=5 f=1", chord_network(5, 1), 1),
        ("chord n=8 f=1", chord_network(8, 1), 1),
    ]


def convergence_rate_study(
    cases: list[tuple[str, Digraph, int]] | None = None,
    rounds: int = 120,
    seed: int = 11,
) -> list[dict[str, object]]:
    """Measure contraction vs the analytical bound for each case.

    Every row reports ``α``, the worst-case window bound, the Lemma-5 factor
    at that window, the measured per-round decay rate, the analytically
    bounded round count to reach ``1e-4`` of the initial spread, the measured
    round count, and whether every Theorem-3 window respected the bound.
    """
    chosen = cases if cases is not None else default_rate_cases()
    rows: list[dict[str, object]] = []
    for index, (label, graph, f) in enumerate(chosen):
        rule = TrimmedMeanRule(f)
        faulty: frozenset[NodeId] = (
            random_fault_set(graph, f, rng=seed + index) if f > 0 else frozenset()
        )
        fault_free = graph.nodes - faulty
        alpha = alpha_for_rule(graph, rule, fault_free=fault_free)
        window_bound = worst_case_window_length(graph.number_of_nodes, f)
        factor_bound = lemma5_contraction_factor(alpha, window_bound)

        inputs = bimodal_inputs(graph.nodes, 0.0, 1.0, rng=seed + index)
        outcome = run_vectorized(
            graph=graph,
            rule=rule,
            inputs=inputs,
            faulty=faulty,
            adversary=BatchExtremePushStrategy(delta=1.0) if faulty else None,
            max_rounds=rounds,
            tolerance=1e-10,
            record_history=True,
            stop_on_convergence=False,
        )
        spreads = spreads_from_records(outcome.history)
        measured_rate = empirical_decay_rate(spreads)
        target = 1e-4 * max(outcome.initial_spread, 1e-300)
        measured_rounds = next(
            (
                record.round_index
                for record in outcome.history
                if record.spread <= target
            ),
            None,
        )
        bound_rounds = rounds_to_reach(
            outcome.initial_spread, target, alpha, window_bound
        )
        checks = verify_theorem3_windows(
            outcome.history, graph, f, alpha, faulty=faulty
        )
        rows.append(
            {
                "case": label,
                "n": graph.number_of_nodes,
                "f": f,
                "alpha": alpha,
                "window_bound": window_bound,
                "lemma5_factor": factor_bound,
                "measured_rate_per_round": measured_rate,
                "bound_rounds_to_1e-4": bound_rounds,
                "measured_rounds_to_1e-4": measured_rounds,
                "windows_checked": len(checks),
                "all_windows_respect_bound": all(check.satisfied for check in checks),
                "validity_ok": outcome.validity_ok,
            }
        )
    return rows


@register_experiment(
    name="convergence_rate",
    paper_section="Section 5, Theorem 3 / Lemma 5 (E7)",
    claim=(
        "The measured per-window contraction never violates the Lemma-5 "
        "bound and is typically far better than it."
    ),
    engine="vectorized",
    grid={
        "case": tuple(label for label, _, _ in default_rate_cases()),
        "batch": (64,),
        "rounds": (300,),
        "tolerance": (1e-7,),
    },
)
def convergence_rate_cell(
    case: str,
    batch: int = 64,
    rounds: int = 300,
    tolerance: float = 1e-7,
    seed: int = 11,
) -> list[ConvergenceRateRow]:
    """Registry cell for E7: one Monte-Carlo case on the vectorized engine.

    The case runs ``batch`` random input draws as one batched pass under the
    extreme-pushing adversary; the row reports the convergence fraction and
    the distribution (mean / p50 / p90 / max) of rounds-to-tolerance across
    the batch, plus the analytical Lemma-5 round bound to compare the mean
    against.  Deterministic for a fixed ``seed``.
    """
    label, graph, f = select_labelled_case(
        case, default_rate_cases(), "convergence-rate case"
    )
    rule = TrimmedMeanRule(f)
    faulty: frozenset[NodeId] = (
        random_fault_set(graph, f, rng=seed) if f > 0 else frozenset()
    )
    alpha = alpha_for_rule(graph, rule, fault_free=graph.nodes - faulty)
    window_bound = worst_case_window_length(graph.number_of_nodes, f)
    engine = VectorizedEngine(
        graph=graph,
        rule=rule,
        faulty=faulty,
        adversary=BatchExtremePushStrategy(delta=1.0) if faulty else None,
        config=SimulationConfig(
            max_rounds=rounds, tolerance=tolerance, record_history=False
        ),
    )
    outcome = engine.run_batch(random_input_matrix(engine.nodes, batch, rng=seed))
    converged_rounds = outcome.rounds_executed[outcome.converged]
    return [
        {
            "case": label,
            "n": graph.number_of_nodes,
            "f": f,
            "batch": batch,
            "alpha": alpha,
            "fraction_converged": outcome.fraction_converged,
            "all_validity_ok": outcome.all_valid,
            "mean_rounds": outcome.mean_rounds_to_convergence(),
            "p50_rounds": (
                float(np.percentile(converged_rounds, 50))
                if converged_rounds.size
                else float("nan")
            ),
            "p90_rounds": (
                float(np.percentile(converged_rounds, 90))
                if converged_rounds.size
                else float("nan")
            ),
            "max_rounds": (
                int(converged_rounds.max())
                if converged_rounds.size
                else float("nan")
            ),
            "bound_rounds": rounds_to_reach(1.0, tolerance, alpha, window_bound),
        }
    ]
