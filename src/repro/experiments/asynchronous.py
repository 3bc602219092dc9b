"""Experiment E9 — the asynchronous extension (Section 7).

The Monte-Carlo sweep (:func:`async_sweep`) runs Algorithm 1 through the
partially asynchronous model (bounded message delay ``B``, sporadic
activation) on graphs satisfying the asynchronous condition: for every
case × delay bound × activation probability it runs ``B`` independent
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
from repro.sweeps.schema import schema_from_typeddict


class AsynchronousRow(TypedDict):
    """One Monte-Carlo cell of the E9 asynchronous sweep.

    ``async_condition_holds`` is ``None`` when the graph exceeds the exact
    checker's node cap (the simulation still runs).
    """

    case: str
    f: int
    async_condition_holds: bool | None
    max_delay_B: int
    update_probability: float
    batch: int
    fraction_converged: float
    mean_rounds: float
    all_hull_valid: bool
    mean_final_spread: float


#: Runtime half of :class:`AsynchronousRow`; validated at shard boundaries.
ASYNCHRONOUS_SCHEMA = schema_from_typeddict(
    AsynchronousRow,
    roles={
        "case": "label",
        "f": "parameter",
        "async_condition_holds": "verdict",
        "max_delay_B": "parameter",
        "update_probability": "parameter",
        "batch": "parameter",
        "fraction_converged": "metric",
        "mean_rounds": "metric",
        "all_hull_valid": "verdict",
        "mean_final_spread": "metric",
    },
)


def _default_cases() -> list[tuple[str, Digraph, int]]:
    """The labelled ``(graph, f)`` scenarios of the asynchronous sweep."""
    return [
        ("complete n=6 f=1", complete_graph(6), 1),
        ("complete n=11 f=2", complete_graph(11), 2),
        ("core n=8 f=1", core_network(8, 1), 1),
    ]


def _async_feasibility_flag(graph: Digraph, f: int) -> bool | None:
    """Exhaustive async-condition verdict, or ``None`` when the graph exceeds
    the exact checker's node cap (the sweep still runs the simulation)."""
    try:
        return check_async_feasibility(graph, f).satisfied
    except GraphTooLargeError:
        return None


def async_sweep(
    cases: list[tuple[str, Digraph, int]] | None = None,
    delays: list[int] | None = None,
    update_probabilities: list[float] | None = None,
    batch: int = 32,
    rounds: int = 600,
    tolerance: float = 1e-5,
    seed: int = 23,
) -> list[AsynchronousRow]:
    """Batched Monte-Carlo sweep of the partially asynchronous model.

    For every case × delay bound × activation probability, runs ``batch``
    independent executions (i.i.d. uniform inputs) as one vectorized pass and
    aggregates: fraction converged, mean rounds to convergence, whether the
    initial-hull validity held in every execution, and the mean final spread.
    The per-row RNG streams derive from ``seed`` via the engine's
    seed-spawning contract, so every cell is reproducible run to run.
    """
    if batch < 1:
        raise InvalidParameterError(f"batch must be >= 1, got {batch}")
    chosen_cases = cases if cases is not None else _default_cases()
    chosen_delays = delays if delays is not None else [0, 1, 3]
    chosen_probabilities = (
        update_probabilities if update_probabilities is not None else [1.0, 0.75]
    )
    rows: list[AsynchronousRow] = []
    for index, (label, graph, f) in enumerate(chosen_cases):
        rule = TrimmedMeanRule(f)
        faulty = random_fault_set(graph, f, rng=seed + index) if f > 0 else frozenset()
        async_feasible = _async_feasibility_flag(graph, f)
        config = SimulationConfig(
            max_rounds=rounds, tolerance=tolerance, record_history=False
        )
        # One input matrix per case: every delay × probability cell runs the
        # same B executions, so differences across cells are model effects.
        matrix = random_input_matrix(
            tuple(sorted(graph.nodes, key=repr)), batch, rng=seed + 7 * index
        )
        for delay in chosen_delays:
            for probability in chosen_probabilities:
                engine = VectorizedAsyncEngine(
                    graph=graph,
                    rule=rule,
                    faulty=faulty,
                    adversary=BatchExtremePushStrategy(1.0) if faulty else None,
                    config=config,
                    max_delay=delay,
                    update_probability=probability,
                )
                outcome = engine.run_batch(
                    matrix, rng=seed + 1000 * index + 10 * delay
                )
                rows.append(
                    {
                        "case": label,
                        "f": f,
                        "async_condition_holds": async_feasible,
                        "max_delay_B": delay,
                        "update_probability": probability,
                        "batch": batch,
                        "fraction_converged": outcome.fraction_converged,
                        "mean_rounds": outcome.mean_rounds_to_convergence(),
                        "all_hull_valid": outcome.all_valid,
                        "mean_final_spread": float(outcome.final_spread.mean()),
                    }
                )
    return rows


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
    schema=ASYNCHRONOUS_SCHEMA,
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
    """Registry cell for E9: one Monte-Carlo cell of the asynchronous sweep."""
    return async_sweep(
        cases=select_labelled_case(case, _default_cases(), "asynchronous case"),
        delays=[max_delay],
        update_probabilities=[update_probability],
        batch=batch,
        rounds=rounds,
        tolerance=tolerance,
        seed=seed,
    )
