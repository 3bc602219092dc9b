"""Experiment E1 — necessity of the Theorem-1 condition.

For graphs that *violate* the condition, the necessity proof constructs an
explicit adversarial scenario: give the nodes of ``L`` the input ``m``, the
nodes of ``R`` the input ``M > m``, nodes of ``C`` inputs inside ``[m, M]``,
and let the faulty nodes in ``F`` send ``m⁻ < m`` to ``L``, ``M⁺ > M`` to
``R`` and in-range values to ``C``.  Any validity-respecting iterative
algorithm then keeps ``L`` at ``m`` and ``R`` at ``M`` forever.

The driver reproduces this computationally: it finds (or is given) a violating
partition, mounts the :class:`~repro.adversary.strategies.SplitBrainStrategy`
attack, runs a chosen update rule, and reports that

* the spread never shrinks below the gap ``M − m`` (no convergence), while
* validity still holds (the algorithm itself is well behaved — it is the graph
  that makes consensus impossible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypedDict

import numpy as np

from repro.adversary.strategies import SplitBrainStrategy
from repro.adversary.vectorized import BatchSplitBrainStrategy
from repro.algorithms.base import UpdateRule
from repro.algorithms.trimmed_mean import TrimmedMeanRule
from repro.conditions.necessary import find_violating_partition, verify_witness
from repro.conditions.witnesses import (
    chord_n7_f2_witness,
    hypercube_dimension_cut_witness,
)
from repro.exceptions import InvalidParameterError
from repro.graphs.digraph import Digraph
from repro.graphs.generators import chord_network, hypercube, undirected_ring
from repro.simulation.engine import SimulationConfig, run_synchronous
from repro.simulation.inputs import split_inputs_from_witness
from repro.simulation.vectorized import BatchOutcome, VectorizedEngine, run_vectorized
from repro.sweeps.registry import register_experiment, select_labelled_case
from repro.sweeps.schema import Label, Metric, Parameter, Verdict
from repro.types import ConsensusOutcome, PartitionWitness


class NecessityRow(TypedDict):
    """One row of the E1 necessity sweep (one violating graph, one attack)."""

    case: Label[str]
    n: Parameter[int]
    f: Parameter[int]
    witness: Label[str]
    rounds: Metric[int]
    final_spread: Metric[float]
    converged: Verdict[bool]
    validity_ok: Verdict[bool]
    stalled: Verdict[bool]


@dataclass(frozen=True)
class NecessityDemonstration:
    """Outcome of one split-brain attack on a condition-violating graph.

    Attributes
    ----------
    witness:
        The violating partition used to mount the attack.
    outcome:
        The simulation outcome.
    stalled:
        Whether the fault-free spread stayed at (or above) its initial value —
        the non-convergence the necessity proof predicts.
    left_stuck / right_stuck:
        Whether every node of ``L`` ended exactly at the low input and every
        node of ``R`` at the high input.
    """

    witness: PartitionWitness
    outcome: ConsensusOutcome
    stalled: bool
    left_stuck: bool
    right_stuck: bool


def demonstrate_necessity(
    graph: Digraph,
    f: int,
    witness: PartitionWitness | None = None,
    rule: UpdateRule | None = None,
    rounds: int = 50,
    low_value: float = 0.0,
    high_value: float = 1.0,
) -> NecessityDemonstration:
    """Mount the necessity-proof attack on ``graph`` and report the outcome.

    ``witness`` may be supplied (e.g. the paper's chord counter-example); when
    omitted the exhaustive checker finds one.  Raises
    :class:`~repro.exceptions.InvalidParameterError` if the graph actually
    satisfies the condition (there is nothing to demonstrate).
    """
    if witness is None:
        witness = find_violating_partition(graph, f)
        if witness is None:
            raise InvalidParameterError(
                "graph satisfies the Theorem-1 condition; the necessity attack "
                "requires a violating partition"
            )
    if not verify_witness(graph, f, witness):
        raise InvalidParameterError(
            f"the supplied partition {witness.describe()} does not violate the "
            "condition on this graph"
        )
    chosen_rule = rule if rule is not None else TrimmedMeanRule(f)
    inputs = split_inputs_from_witness(
        witness, low_value=low_value, high_value=high_value
    )
    # Trimmed rules run on the vectorized engine with the batch-native
    # split-brain attack (bit-exact with the scalar pair and ~an order of
    # magnitude faster); rules without a vectorized kernel keep the
    # scalar path.
    if VectorizedEngine.supports_rule(chosen_rule):
        outcome = run_vectorized(
            graph=graph,
            rule=chosen_rule,
            inputs=inputs,
            faulty=witness.faulty,
            adversary=BatchSplitBrainStrategy(
                witness, low_value=low_value, high_value=high_value, margin=1.0
            ),
            max_rounds=rounds,
            tolerance=1e-9,
            record_history=True,
            stop_on_convergence=True,
        )
    else:
        outcome = run_synchronous(
            graph=graph,
            rule=chosen_rule,
            inputs=inputs,
            faulty=witness.faulty,
            adversary=SplitBrainStrategy(
                witness, low_value=low_value, high_value=high_value, margin=1.0
            ),
            max_rounds=rounds,
            tolerance=1e-9,
            record_history=True,
            stop_on_convergence=True,
        )
    gap = high_value - low_value
    stalled = outcome.final_spread >= gap - 1e-9
    left_stuck = all(
        abs(outcome.final_values[node] - low_value) <= 1e-9
        for node in witness.left
    )
    right_stuck = all(
        abs(outcome.final_values[node] - high_value) <= 1e-9
        for node in witness.right
    )
    return NecessityDemonstration(
        witness=witness,
        outcome=outcome,
        stalled=stalled,
        left_stuck=left_stuck,
        right_stuck=right_stuck,
    )


def split_brain_stall_study(
    graph: Digraph,
    f: int,
    witness: PartitionWitness,
    batch: int = 16,
    rounds: int = 120,
    seed: int = 0,
    low_value: float = 0.0,
    high_value: float = 1.0,
) -> tuple[BatchOutcome, float]:
    """Monte-Carlo batch of the necessity attack on one violating partition.

    Every row pins ``L`` at ``low_value`` and ``R`` at ``high_value`` (the
    proof's requirement) and draws the centre and faulty inputs uniformly in
    between, so the batch samples the attack over many legitimate input
    assignments.  Returns the batch outcome and the fraction of executions
    stalled at the full ``high_value − low_value`` gap — 1.0 whenever the
    witness is genuine.  Shared by the E11 robustness and E13 showdown
    cells.
    """
    strategy = BatchSplitBrainStrategy(
        witness, low_value=low_value, high_value=high_value, margin=1.0
    )
    engine = VectorizedEngine(
        graph=graph,
        rule=TrimmedMeanRule(f),
        faulty=witness.faulty,
        adversary=strategy,
        config=SimulationConfig(
            max_rounds=rounds, tolerance=1e-9, record_history=False
        ),
    )
    base = strategy.recommended_inputs()
    # RNG-stream contract: one spawned stream per batch row, draws in
    # canonical repr-sorted node order (set iteration is hash-ordered and
    # was caught by reprolint ORD001), so row k's inputs are independent
    # of the batch size and of every other row.
    drawn_nodes = sorted(witness.center | witness.faulty, key=repr)
    row_streams = np.random.SeedSequence(seed).spawn(batch)
    inputs = []
    for row_stream in row_streams:
        rng = np.random.default_rng(row_stream)
        row = dict(base)
        for node in drawn_nodes:
            row[node] = float(rng.uniform(low_value, high_value))
        inputs.append(row)
    outcome = engine.run_batch(inputs)
    gap = high_value - low_value
    stalled = float((outcome.final_spread >= gap - 1e-9).mean())
    return outcome, stalled


def default_necessity_cases() -> list[tuple[str, Digraph, int, PartitionWitness | None]]:
    """Labelled condition-violating graphs for the registered E1 sweep.

    The chord and hypercube entries carry the paper's explicit witnesses;
    the ring entries let the exhaustive checker find one — the ``n = 18``
    ring sits beyond the legacy checker's ceiling and exercises the bitset
    fast path end to end.
    """
    return [
        ("chord n=7 f=2", chord_network(7, 2), 2, chord_n7_f2_witness()),
        ("hypercube d=3 f=1", hypercube(3), 1, hypercube_dimension_cut_witness(3)),
        ("ring n=6 f=1", undirected_ring(6), 1, None),
        ("ring n=18 f=1", undirected_ring(18), 1, None),
    ]


@register_experiment(
    name="necessity",
    paper_section="Section 3, Theorem 1 necessity (E1)",
    claim=(
        "On condition-violating graphs the split-brain adversary pins the "
        "two partition sides apart forever while validity still holds."
    ),
    engine="vectorized",
    grid={
        "case": (
            "chord n=7 f=2",
            "hypercube d=3 f=1",
            "ring n=6 f=1",
            "ring n=18 f=1",
        ),
        "rounds": (50,),
    },
)
def necessity_cell(case: str, rounds: int = 50) -> list[NecessityRow]:
    """Registry cell for E1: mount the necessity attack on one violating graph."""
    label, graph, f, witness = select_labelled_case(
        case, default_necessity_cases(), "necessity case"
    )
    demo = demonstrate_necessity(graph, f, witness=witness, rounds=rounds)
    return [
        {
            "case": label,
            "n": graph.number_of_nodes,
            "f": f,
            "witness": demo.witness.describe(),
            "rounds": demo.outcome.rounds_executed,
            "final_spread": demo.outcome.final_spread,
            "converged": demo.outcome.converged,
            "validity_ok": demo.outcome.validity_ok,
            "stalled": demo.stalled,
        }
    ]
