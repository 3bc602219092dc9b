"""Experiment E9 — the asynchronous extension (Section 7).

The registered sweep (:func:`asynchronous_cell`) runs Algorithm 1 through
the partially asynchronous model (bounded message delay ``B``, sporadic
activation) on graphs satisfying the asynchronous condition: each case ×
delay bound × activation probability cell runs ``batch`` independent
executions through
:class:`~repro.simulation.vectorized_async.VectorizedAsyncEngine` as one
``(B, n)`` matrix and aggregates convergence statistics, showing that delays
slow but do not break convergence on those graphs.  One sweep cell costs
roughly what a *single* scalar execution used to.

The cross-engine parity suite (``tests/test_engine_parity.py``) pins the
vectorized asynchronous engine bit-for-bit to the scalar reference, so the
speed costs no fidelity.
"""

from __future__ import annotations

from typing import TypedDict

from repro.adversary.selection import random_fault_set
from repro.adversary.vectorized import BatchExtremePushStrategy
from repro.algorithms.trimmed_mean import TrimmedMeanRule
from repro.conditions.asynchronous import check_async_feasibility
from repro.exceptions import GraphTooLargeError, InvalidParameterError
from repro.graphs.digraph import Digraph
from repro.graphs.generators import complete_graph, core_network
from repro.simulation.engine import SimulationConfig
from repro.simulation.vectorized import random_input_matrix
from repro.simulation.vectorized_async import VectorizedAsyncEngine
from repro.sweeps.registry import register_experiment, select_labelled_case
from repro.sweeps.schema import Label, Metric, Parameter, Verdict


class AsynchronousRow(TypedDict):
    """One Monte-Carlo cell of the E9 asynchronous sweep.

    ``async_condition_holds`` is ``None`` when the graph exceeds the exact
    checker's node cap (the simulation still runs).
    """

    case: Label[str]
    f: Parameter[int]
    async_condition_holds: Verdict[bool | None]
    max_delay_B: Parameter[int]
    update_probability: Parameter[float]
    batch: Parameter[int]
    fraction_converged: Metric[float]
    mean_rounds: Metric[float]
    all_hull_valid: Verdict[bool]
    mean_final_spread: Metric[float]


def _default_cases() -> list[tuple[str, Digraph, int]]:
    """The labelled ``(graph, f)`` scenarios of the asynchronous sweep."""
    return [
        ("complete n=6 f=1", complete_graph(6), 1),
        ("complete n=11 f=2", complete_graph(11), 2),
        ("core n=8 f=1", core_network(8, 1), 1),
    ]


@register_experiment(
    name="asynchronous",
    paper_section="Section 7 (E9)",
    claim=(
        "Bounded message delays and sporadic activation slow but do not "
        "break convergence on graphs satisfying the asynchronous condition."
    ),
    engine="vectorized-async",
    grid={
        "case": tuple(label for label, _, _ in _default_cases()),
        "max_delay": (0, 1, 3),
        "update_probability": (1.0, 0.75),
        "batch": (32,),
        "rounds": (600,),
        "tolerance": (1e-5,),
    },
)
def asynchronous_cell(
    case: str,
    max_delay: int = 1,
    update_probability: float = 1.0,
    batch: int = 32,
    rounds: int = 600,
    tolerance: float = 1e-5,
    seed: int = 23,
) -> list[AsynchronousRow]:
    """Registry cell for E9: one Monte-Carlo cell of the asynchronous sweep.

    Runs ``batch`` independent executions (i.i.d. uniform inputs) as one
    vectorized pass and aggregates: fraction converged, mean rounds to
    convergence, whether the initial-hull validity held in every execution,
    and the mean final spread.  The input matrix depends only on the case
    and ``seed``, so cells that share a seed (``--grid seed=...``) run the
    same executions and differ only by model effects.  The per-row RNG
    streams derive from ``seed`` and ``max_delay`` via the engine's
    seed-spawning contract.
    """
    if batch < 1:
        raise InvalidParameterError(f"batch must be >= 1, got {batch}")
    label, graph, f = select_labelled_case(case, _default_cases(), "asynchronous case")
    faulty = random_fault_set(graph, f, rng=seed) if f > 0 else frozenset()
    try:
        async_feasible: bool | None = check_async_feasibility(graph, f).satisfied
    except GraphTooLargeError:
        # Beyond the exact checker's node cap the simulation still runs.
        async_feasible = None
    engine = VectorizedAsyncEngine(
        graph=graph,
        rule=TrimmedMeanRule(f),
        faulty=faulty,
        adversary=BatchExtremePushStrategy(1.0) if faulty else None,
        config=SimulationConfig(
            max_rounds=rounds, tolerance=tolerance, record_history=False
        ),
        max_delay=max_delay,
        update_probability=update_probability,
    )
    matrix = random_input_matrix(
        tuple(sorted(graph.nodes, key=repr)), batch, rng=seed
    )
    outcome = engine.run_batch(matrix, rng=seed + 10 * max_delay)
    return [
        {
            "case": label,
            "f": f,
            "async_condition_holds": async_feasible,
            "max_delay_B": max_delay,
            "update_probability": update_probability,
            "batch": batch,
            "fraction_converged": outcome.fraction_converged,
            "mean_rounds": outcome.mean_rounds_to_convergence(),
            "all_hull_valid": outcome.all_valid,
            "mean_final_spread": float(outcome.final_spread.mean()),
        }
    ]
