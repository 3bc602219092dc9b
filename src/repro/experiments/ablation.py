"""Experiment E12 (ablation) — update-rule comparison under attack.

Compares the paper's Algorithm 1 (trimmed mean) with W-MSR, the trimmed
midpoint, the median and the non-fault-tolerant linear average on feasible
graphs under the same adversaries.  The qualitative shape the paper implies:

* trimmed mean and W-MSR preserve validity and converge,
* the plain average is dragged outside the input hull (validity violated) and
  generally fails to converge to a legitimate value,
* the median and midpoint sit in between (valid on these families, but without
  the paper's general guarantee).
"""

from __future__ import annotations

from typing import TypedDict

from repro.adversary.base import ByzantineStrategy
from repro.adversary.selection import highest_out_degree_fault_set
from repro.adversary.strategies import ExtremePushStrategy, StaticValueStrategy
from repro.adversary.vectorized import (
    BatchExtremePushStrategy,
    BatchStaticValueStrategy,
    BatchStrategy,
)
from repro.algorithms.base import UpdateRule
from repro.algorithms.linear import LinearAverageRule, MedianRule
from repro.algorithms.trimmed_mean import TrimmedMeanRule, TrimmedMidpointRule
from repro.algorithms.wmsr import WMSRRule
from repro.graphs.digraph import Digraph
from repro.graphs.generators import complete_graph, core_network
from repro.simulation.engine import run_synchronous
from repro.simulation.inputs import linear_ramp_inputs
from repro.simulation.vectorized import VectorizedEngine, run_vectorized
from repro.sweeps.registry import register_experiment, select_labelled_case
from repro.sweeps.schema import Label, Metric, Parameter, Verdict


class AblationRow(TypedDict):
    """One row of the E12 rule ablation (one graph x rule x adversary)."""

    graph: Label[str]
    f: Parameter[int]
    rule: Label[str]
    adversary: Label[str]
    engine: Label[str]
    converged: Verdict[bool]
    validity_ok: Verdict[bool]
    final_within_input_hull: Verdict[bool]
    rounds: Metric[int]
    final_spread: Metric[float]


def default_ablation_graphs() -> list[tuple[str, Digraph, int]]:
    """Return the labelled feasible graphs used by the rule ablation."""
    return [
        ("complete n=7 f=2", complete_graph(7), 2),
        ("core n=7 f=2", core_network(7, 2), 2),
        ("core n=10 f=3", core_network(10, 3), 3),
    ]


def rule_zoo(f: int) -> list[UpdateRule]:
    """Return one configured instance of every update rule in the library."""
    return [
        TrimmedMeanRule(f),
        WMSRRule(f),
        TrimmedMidpointRule(f),
        MedianRule(f),
        LinearAverageRule(f),
    ]


def adversaries_for_ablation() -> list[tuple[str, ByzantineStrategy, BatchStrategy]]:
    """Return the two ablation adversaries (one per failure mode), each as a
    ``(label, scalar strategy, bit-exact batch-native strategy)`` pair.

    The static far-away value exposes validity violations of averaging rules;
    the extreme-pushing adversary stresses convergence.
    """
    return [
        (
            "static-value",
            StaticValueStrategy(1000.0),
            BatchStaticValueStrategy(1000.0),
        ),
        (
            "extreme-push",
            ExtremePushStrategy(delta=5.0),
            BatchExtremePushStrategy(delta=5.0),
        ),
    ]


@register_experiment(
    name="ablation",
    paper_section="Algorithm 1 vs alternative update rules (E12)",
    claim=(
        "Trimmed mean and W-MSR stay valid and converge under attack; the "
        "non-fault-tolerant linear average is dragged out of the input hull."
    ),
    engine="mixed",
    grid={
        "graph": tuple(label for label, _, _ in default_ablation_graphs()),
        "rounds": (150,),
        "tolerance": (1e-6,),
    },
)
def ablation_cell(
    graph: str, rounds: int = 150, tolerance: float = 1e-6
) -> list[AblationRow]:
    """Registry cell for E12: the whole rule zoo under both adversaries.

    Trimmed rules execute on the vectorized engine driven by the
    batch-native adversaries (bit-exact with the scalar pair); rules without
    a vectorized kernel (W-MSR, median, linear average) keep the scalar
    engine and the scalar strategies.
    """
    label, digraph, f = select_labelled_case(
        graph, default_ablation_graphs(), "ablation graph"
    )
    faulty = highest_out_degree_fault_set(digraph, f)
    inputs = linear_ramp_inputs(digraph.nodes, 0.0, 1.0)
    hull_low = min(value for node, value in inputs.items() if node not in faulty)
    hull_high = max(value for node, value in inputs.items() if node not in faulty)
    rows: list[AblationRow] = []
    for rule in rule_zoo(f):
        vectorized = VectorizedEngine.supports_rule(rule)
        for adversary_label, scalar_adversary, batch_adversary in (
            adversaries_for_ablation()
        ):
            if vectorized:
                outcome = run_vectorized(
                    graph=digraph,
                    rule=rule,
                    inputs=inputs,
                    faulty=faulty,
                    adversary=batch_adversary,
                    max_rounds=rounds,
                    tolerance=tolerance,
                )
            else:
                outcome = run_synchronous(
                    graph=digraph,
                    rule=rule,
                    inputs=inputs,
                    faulty=faulty,
                    adversary=scalar_adversary,
                    max_rounds=rounds,
                    tolerance=tolerance,
                )
            final_within_hull = all(
                hull_low - 1e-9 <= value <= hull_high + 1e-9
                for value in outcome.final_values.values()
            )
            rows.append(
                {
                    "graph": label,
                    "f": f,
                    "rule": rule.name,
                    "adversary": adversary_label,
                    "engine": "vectorized" if vectorized else "scalar",
                    "converged": outcome.converged,
                    "validity_ok": outcome.validity_ok,
                    "final_within_input_hull": final_within_hull,
                    "rounds": outcome.rounds_executed,
                    "final_spread": outcome.final_spread,
                }
            )
    return rows
