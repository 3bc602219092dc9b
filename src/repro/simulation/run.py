"""High-level one-call API: :func:`run_consensus`.

This is the entry point most examples use: given a graph and a fault budget it
picks sensible defaults for everything else (Algorithm 1 as the rule, random
inputs, a random fault set with an extreme-pushing adversary) while letting
callers override any piece.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.base import ByzantineStrategy
from repro.adversary.selection import random_fault_set
from repro.adversary.strategies import ExtremePushStrategy
from repro.algorithms.base import UpdateRule
from repro.algorithms.trimmed_mean import TrimmedMeanRule
from repro.exceptions import InvalidParameterError
from repro.graphs.digraph import Digraph
from repro.simulation.async_engine import run_partially_asynchronous
from repro.simulation.engine import run_synchronous
from repro.simulation.inputs import uniform_random_inputs
from repro.simulation.vectorized import run_vectorized
from repro.simulation.vectorized_async import run_vectorized_async
from repro.types import ConsensusOutcome, NodeId, ValueMap

#: Engine names accepted by :func:`run_consensus`: the faithful dict-based
#: reference engines or the NumPy engines that are bit-exact with them.
ENGINE_CHOICES = ("scalar", "vectorized")


def run_consensus(
    graph: Digraph,
    f: int,
    inputs: ValueMap | None = None,
    rule: UpdateRule | None = None,
    faulty: frozenset[NodeId] | set[NodeId] | None = None,
    adversary: ByzantineStrategy | None = None,
    synchronous: bool = True,
    max_delay: int = 1,
    max_rounds: int = 500,
    tolerance: float = 1e-7,
    record_history: bool = True,
    seed: int | None = 0,
    engine: str = "scalar",
) -> ConsensusOutcome:
    """Run one iterative approximate Byzantine consensus execution.

    Parameters
    ----------
    graph:
        The communication graph.
    f:
        Fault budget the fault-free nodes defend against.
    inputs:
        Initial values; defaults to i.i.d. uniform values in ``[0, 1]``
        generated from ``seed``.
    rule:
        Update rule; defaults to the paper's Algorithm 1
        (:class:`~repro.algorithms.trimmed_mean.TrimmedMeanRule`).
    faulty:
        The Byzantine node set; defaults to a random set of ``f`` nodes when
        ``f > 0`` and an adversary is wanted, or the empty set when ``f = 0``.
    adversary:
        Byzantine behaviour; defaults to
        :class:`~repro.adversary.strategies.ExtremePushStrategy` when there
        are faulty nodes.
    synchronous:
        ``True`` (default) uses the synchronous engine; ``False`` uses the
        partially asynchronous engine with delay bound ``max_delay``.
    max_delay:
        Delay bound ``B`` for the asynchronous engine (ignored when
        ``synchronous`` is true).
    max_rounds, tolerance, record_history:
        Passed to the engine.
    seed:
        Seed controlling every default random choice (inputs, fault set,
        asynchronous delays).  ``None`` derives entropy from the OS.
    engine:
        ``"scalar"`` (default) runs the faithful dict-based reference
        engines; ``"vectorized"`` routes the same execution through the
        NumPy engines (:func:`~repro.simulation.vectorized.run_vectorized` /
        :func:`~repro.simulation.vectorized_async.run_vectorized_async`),
        which are bit-exact with the reference for the rules they support.

    Returns
    -------
    ConsensusOutcome
        Convergence/validity verdicts, the final fault-free values, and (when
        ``record_history`` is true) the full per-round trace.
    """
    if f < 0:
        raise InvalidParameterError(f"f must be >= 0, got {f}")
    if engine not in ENGINE_CHOICES:
        raise InvalidParameterError(
            f"engine must be one of {ENGINE_CHOICES}, got {engine!r}"
        )
    rng = np.random.default_rng(seed)
    chosen_rule = rule if rule is not None else TrimmedMeanRule(f)
    if chosen_rule.f != f:
        raise InvalidParameterError(
            f"rule is configured for f = {chosen_rule.f} but run_consensus was "
            f"called with f = {f}"
        )
    chosen_inputs = (
        dict(inputs)
        if inputs is not None
        else uniform_random_inputs(graph.nodes, rng=rng)
    )
    if faulty is not None:
        chosen_faulty = frozenset(faulty)
    elif f > 0:
        chosen_faulty = random_fault_set(graph, f, rng=rng)
    else:
        chosen_faulty = frozenset()
    chosen_adversary = adversary
    if chosen_adversary is None and chosen_faulty:
        chosen_adversary = ExtremePushStrategy(delta=1.0)

    if engine == "vectorized":
        if synchronous:
            return run_vectorized(
                graph=graph,
                rule=chosen_rule,
                inputs=chosen_inputs,
                faulty=chosen_faulty,
                adversary=chosen_adversary,
                max_rounds=max_rounds,
                tolerance=tolerance,
                record_history=record_history,
            )
        return run_vectorized_async(
            graph=graph,
            rule=chosen_rule,
            inputs=chosen_inputs,
            faulty=chosen_faulty,
            adversary=chosen_adversary,
            max_delay=max_delay,
            max_rounds=max_rounds,
            tolerance=tolerance,
            record_history=record_history,
            rng=rng,
        )
    if synchronous:
        return run_synchronous(
            graph=graph,
            rule=chosen_rule,
            inputs=chosen_inputs,
            faulty=chosen_faulty,
            adversary=chosen_adversary,
            max_rounds=max_rounds,
            tolerance=tolerance,
            record_history=record_history,
        )
    return run_partially_asynchronous(
        graph=graph,
        rule=chosen_rule,
        inputs=chosen_inputs,
        faulty=chosen_faulty,
        adversary=chosen_adversary,
        max_delay=max_delay,
        max_rounds=max_rounds,
        tolerance=tolerance,
        record_history=record_history,
        rng=rng,
    )
