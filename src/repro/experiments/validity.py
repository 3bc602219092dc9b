"""Experiment E8 — validity (Theorem 2) under every adversary strategy.

Theorem 2 states that Algorithm 1 satisfies validity (eq. 1) on any graph
satisfying the Theorem-1 condition, *regardless* of what the Byzantine nodes
do.  The driver runs Algorithm 1 (and W-MSR for comparison) against the whole
strategy zoo on several feasible graphs and records whether the fault-free
interval ever expanded; it also runs the non-fault-tolerant linear average to
show that it does violate validity under the same attacks.
"""

from __future__ import annotations

from typing import TypedDict

from repro.adversary.base import ByzantineStrategy
from repro.adversary.selection import highest_out_degree_fault_set
from repro.adversary.strategies import (
    BroadcastConsistentStrategy,
    ExtremePushStrategy,
    FrozenValueStrategy,
    RandomNoiseStrategy,
    StaticValueStrategy,
)
from repro.algorithms.base import UpdateRule
from repro.algorithms.linear import LinearAverageRule
from repro.algorithms.trimmed_mean import TrimmedMeanRule
from repro.algorithms.wmsr import WMSRRule
from repro.graphs.digraph import Digraph
from repro.graphs.generators import chord_network, complete_graph, core_network
from repro.simulation.engine import run_synchronous
from repro.simulation.inputs import uniform_random_inputs
from repro.sweeps.registry import register_experiment, select_labelled_case
from repro.sweeps.schema import Label, Metric, Parameter, Verdict


class ValidityRow(TypedDict):
    """One row of the E8 validity study (one graph x rule x adversary)."""

    graph: Label[str]
    f: Parameter[int]
    rule: Label[str]
    adversary: Label[str]
    validity_ok: Verdict[bool]
    final_within_input_hull: Verdict[bool]
    converged: Verdict[bool]
    final_spread: Metric[float]


def default_validity_graphs() -> list[tuple[str, Digraph, int]]:
    """Return the labelled feasible graphs used by the validity experiment."""
    return [
        ("complete n=7 f=2", complete_graph(7), 2),
        ("core n=7 f=2", core_network(7, 2), 2),
        ("chord n=5 f=1", chord_network(5, 1), 1),
    ]


def adversary_zoo(seed: int = 5) -> list[ByzantineStrategy]:
    """Return one instance of every adversary strategy in the library."""
    return [
        StaticValueStrategy(100.0),
        FrozenValueStrategy(),
        RandomNoiseStrategy(-10.0, 10.0, rng=seed),
        ExtremePushStrategy(delta=3.0),
        BroadcastConsistentStrategy(ExtremePushStrategy(delta=3.0)),
    ]


@register_experiment(
    name="validity",
    paper_section="Section 4, Theorem 2 (E8)",
    claim=(
        "Algorithm 1 and W-MSR never let the fault-free interval expand "
        "under any adversary in the zoo; the plain average does."
    ),
    engine="scalar-sync",
    grid={
        "graph": tuple(label for label, _, _ in default_validity_graphs()),
        "rounds": (80,),
    },
)
def validity_cell(
    graph: str, rounds: int = 80, seed: int = 5
) -> list[ValidityRow]:
    """Registry cell for E8: the full rule x adversary cross on one graph.

    The fault set is the ``f`` highest-out-degree nodes (the most damaging
    degree-based choice).  Rows record whether validity held and whether the
    final fault-free values stayed inside the initial fault-free input hull.
    """
    label, digraph, f = select_labelled_case(
        graph, default_validity_graphs(), "validity graph"
    )
    faulty = highest_out_degree_fault_set(digraph, f)
    inputs = uniform_random_inputs(digraph.nodes, rng=seed)
    hull_low = min(value for node, value in inputs.items() if node not in faulty)
    hull_high = max(value for node, value in inputs.items() if node not in faulty)
    rule_types: list[type[UpdateRule]] = [TrimmedMeanRule, WMSRRule, LinearAverageRule]
    rows: list[ValidityRow] = []
    for rule_type in rule_types:
        rule = rule_type(f)
        for adversary in adversary_zoo(seed=seed):
            outcome = run_synchronous(
                graph=digraph,
                rule=rule,
                inputs=inputs,
                faulty=faulty,
                adversary=adversary,
                max_rounds=rounds,
                tolerance=1e-9,
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
                    "adversary": adversary.name,
                    "validity_ok": outcome.validity_ok,
                    "final_within_input_hull": final_within_hull,
                    "converged": outcome.converged,
                    "final_spread": outcome.final_spread,
                }
            )
    return rows
