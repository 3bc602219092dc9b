"""Experiment E13 — the adversary showdown: every batch-native strategy
against every graph family.

The necessity proof needs one hand-picked attack; robust reproduction wants
the opposite — *families* of adversarial executions, in the spirit of the
invariant-inference and accountable-consensus literature that stresses
protocols with many adversarial behaviours rather than one.  This sweep
crosses the full batch-native strategy library
(:mod:`repro.adversary.vectorized`) with feasible **and** condition-violating
graph families and records, per ``(strategy, case)`` cell, the Monte-Carlo
convergence fraction, whether validity (Theorem 2) survived in every
execution, and — for the split-brain attack — the fraction of executions
stalled at the full input gap.

The expected shape: on feasible graphs Algorithm 1 converges with validity
intact under *every* strategy; on violating graphs the split-brain attack
stalls every execution while generic disruption may or may not.  Everything
runs on the batched vectorized engine, so a full strategy x family grid is a
few batched passes rather than thousands of scalar runs.
"""

from __future__ import annotations

from typing import TypedDict

import numpy as np

from repro.adversary.selection import highest_out_degree_fault_set
from repro.adversary.vectorized import (
    BatchBroadcastConsistentWrapper,
    BatchExtremePushStrategy,
    BatchFrozenValueStrategy,
    BatchRandomNoiseStrategy,
    BatchSplitBrainStrategy,
    BatchStaticValueStrategy,
    BatchStrategy,
)
from repro.algorithms.trimmed_mean import TrimmedMeanRule
from repro.conditions.necessary import check_feasibility, find_violating_partition
from repro.conditions.witnesses import chord_n7_f2_witness
from repro.exceptions import InvalidParameterError
from repro.experiments.necessity import split_brain_stall_study
from repro.graphs.digraph import Digraph
from repro.graphs.generators import (
    chord_network,
    complete_graph,
    core_network,
    undirected_ring,
)
from repro.simulation.engine import SimulationConfig
from repro.simulation.vectorized import VectorizedEngine, random_input_matrix
from repro.sweeps.registry import register_experiment, select_labelled_case
from repro.sweeps.schema import Label, Metric, Parameter, Verdict
from repro.types import PartitionWitness


class ShowdownRow(TypedDict):
    """One (strategy, case) cell of the E13 adversary showdown.

    The four statistics columns are ``None`` on inapplicable cells
    (split-brain on a feasible graph has no witness to attack through), and
    ``stalled_fraction`` is ``None`` for every non-split-brain strategy.
    """

    case: Label[str]
    strategy: Label[str]
    n: Parameter[int]
    f: Parameter[int]
    batch: Parameter[int]
    condition_holds: Verdict[bool]
    applicable: Verdict[bool]
    fraction_converged: Metric[float | None]
    all_validity_ok: Verdict[bool | None]
    mean_rounds: Metric[float | None]
    stalled_fraction: Metric[float | None]

#: Strategy labels accepted by the sweep, in display order.
SHOWDOWN_STRATEGIES = (
    "static",
    "frozen",
    "noise",
    "extreme-push",
    "broadcast-extreme",
    "split-brain",
)


def default_showdown_cases() -> list[tuple[str, Digraph, int]]:
    """Labelled graph-family cases: feasible and condition-violating mixed.

    The chord ``n=7, f=2`` counter-example and the ``n=6`` ring violate the
    Theorem-1 condition (split-brain applies); the rest satisfy it.
    """
    return [
        ("complete n=7 f=2", complete_graph(7), 2),
        ("core n=7 f=2", core_network(7, 2), 2),
        ("core n=10 f=3", core_network(10, 3), 3),
        ("chord n=8 f=1", chord_network(8, 1), 1),
        ("chord n=7 f=2", chord_network(7, 2), 2),
        ("ring n=6 f=1", undirected_ring(6), 1),
    ]


def make_showdown_strategy(
    strategy: str,
    witness: PartitionWitness | None = None,
    seed: int = 0,
) -> BatchStrategy:
    """Instantiate one batch-native strategy by its sweep label.

    ``witness`` is required for ``"split-brain"``; ``seed`` roots the
    per-row noise streams (the RNG-stream contract).
    """
    if strategy == "static":
        return BatchStaticValueStrategy(500.0)
    if strategy == "frozen":
        return BatchFrozenValueStrategy()
    if strategy == "noise":
        return BatchRandomNoiseStrategy(
            -10.0, 10.0, rng=np.random.SeedSequence(seed)
        )
    if strategy == "extreme-push":
        return BatchExtremePushStrategy(delta=3.0)
    if strategy == "broadcast-extreme":
        return BatchBroadcastConsistentWrapper(BatchExtremePushStrategy(delta=3.0))
    if strategy == "split-brain":
        if witness is None:
            raise InvalidParameterError(
                "split-brain needs a violating partition witness"
            )
        return BatchSplitBrainStrategy(witness, 0.0, 1.0, margin=1.0)
    raise InvalidParameterError(
        f"unknown showdown strategy {strategy!r}; known: {SHOWDOWN_STRATEGIES}"
    )


def _witness_for(label: str, graph: Digraph, f: int) -> PartitionWitness | None:
    """Return a violating partition for the case, or ``None`` if feasible."""
    if label == "chord n=7 f=2":
        return chord_n7_f2_witness()
    if check_feasibility(graph, f).satisfied:
        return None
    return find_violating_partition(graph, f)


@register_experiment(
    name="adversary_showdown",
    paper_section="Theorems 1-2 stress test across adversary families (E13)",
    claim=(
        "On feasible graphs Algorithm 1 converges with validity intact under "
        "every strategy in the batch-native library; on violating graphs the "
        "split-brain attack stalls every execution."
    ),
    engine="vectorized",
    grid={
        "case": tuple(label for label, _, _ in default_showdown_cases()),
        "strategy": SHOWDOWN_STRATEGIES,
        "batch": (32,),
        "rounds": (150,),
    },
)
def adversary_showdown_cell(
    case: str,
    strategy: str,
    batch: int = 32,
    rounds: int = 150,
    seed: int = 0,
) -> list[ShowdownRow]:
    """Registry cell for E13: one batch-native strategy on one graph family.

    Split-brain on a feasible graph reports ``applicable=False`` (there is
    no witness to attack through); split-brain on a violating graph pins
    ``L`` at 0 and ``R`` at 1 with per-row random centre/faulty inputs and
    reports the stalled fraction.  Every other strategy draws ``batch``
    uniform input rows and uses the ``f`` highest-out-degree nodes as the
    fault set.
    """
    label, graph, f = select_labelled_case(
        case, default_showdown_cases(), "showdown case"
    )
    witness = _witness_for(label, graph, f)
    stalled: float | None = None
    if strategy != "split-brain":
        engine = VectorizedEngine(
            graph=graph,
            rule=TrimmedMeanRule(f),
            faulty=highest_out_degree_fault_set(graph, f),
            adversary=make_showdown_strategy(strategy, seed=seed),
            config=SimulationConfig(
                max_rounds=rounds, tolerance=1e-6, record_history=False
            ),
        )
        outcome = engine.run_batch(random_input_matrix(engine.nodes, batch, rng=seed))
    elif witness is not None:
        outcome, stalled = split_brain_stall_study(
            graph, f, witness, batch=batch, rounds=rounds, seed=seed
        )
    else:
        return [
            {
                "case": label,
                "strategy": strategy,
                "n": graph.number_of_nodes,
                "f": f,
                "batch": batch,
                "condition_holds": True,
                "applicable": False,
                "fraction_converged": None,
                "all_validity_ok": None,
                "mean_rounds": None,
                "stalled_fraction": None,
            }
        ]
    return [
        {
            "case": label,
            "strategy": strategy,
            "n": graph.number_of_nodes,
            "f": f,
            "batch": batch,
            "condition_holds": witness is None,
            "applicable": True,
            "fraction_converged": outcome.fraction_converged,
            "all_validity_ok": outcome.all_valid,
            "mean_rounds": outcome.mean_rounds_to_convergence(),
            "stalled_fraction": stalled,
        }
    ]
