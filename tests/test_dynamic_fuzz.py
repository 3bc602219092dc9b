"""Cross-engine property/fuzz harness for the dynamic-topology axis.

Each case derives an entire *dynamic* scenario — graph family, fault set,
rule, adversary, batch size, round count, **and topology
schedule** (periodic edge outages, seeded random edge up/down, periodic or
random churn, or their AND-composition) — from a single integer seed, then:

1. runs the same batch through the
   :class:`~repro.simulation.vectorized.VectorizedEngine` on the compiled
   plane kernel (where this machine builds it) and on the NumPy kernel
   (deep copies of the same schedule) and requires every
   :class:`BatchOutcome` array to match exactly (``np.array_equal``, never
   ``allclose``);
2. replays batch row 0 through the scalar
   :class:`~repro.simulation.engine.SynchronousEngine` under the same
   schedule, with the adversary's scalar form (a batch-native strategy is
   replayed through its scalar counterpart), and requires row 0's final
   state, spread series and verdicts to match it exactly; and
3. for scalar-expressible adversaries, replays one batch row through the
   scalar engine in lockstep with a fresh vectorized engine
   (:func:`~repro.simulation.vectorized.cross_check_engines` with the
   schedule) and requires the full trajectory to be bit-identical.

The batch-native :class:`~repro.adversary.vectorized.BatchAdaptiveStrategy`
(greedy and 1-lookahead) has no scalar counterpart, so its seeds exercise
the compiled/NumPy pair only — it is deterministic, which is what makes it
fuzzable at all.

The first :data:`FAST_CASES` seeds run in the default suite; the remaining
seeds up to :data:`TOTAL_CASES` carry the ``slow`` marker (excluded by
``make test-fast``).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from conftest import NumpyKernelEngine

from repro.adversary import (
    BatchAdaptiveStrategy,
    BatchExtremePushStrategy,
    BatchFrozenValueStrategy,
    BatchRandomNoiseStrategy,
    BatchStaticValueStrategy,
    ExtremePushStrategy,
    FrozenValueStrategy,
    RandomNoiseStrategy,
    StaticValueStrategy,
)
from repro.algorithms import TrimmedMeanRule, TrimmedMidpointRule
from repro.graphs import (
    complete_graph,
    core_network,
    k_in_regular_digraph,
    random_core_like_network,
    ring_lattice,
)
from repro.simulation import (
    ComposedSchedule,
    PeriodicChurnSchedule,
    PeriodicEdgeSchedule,
    RandomChurnSchedule,
    RandomEdgeSchedule,
    ScheduleLayout,
    SimulationConfig,
    StaticSchedule,
    SynchronousEngine,
    VectorizedEngine,
    cross_check_engines,
    spawn_row_generators,
    spreads_from_records,
)
from repro.simulation.vectorized import random_input_matrix

#: Seeds run in the default (fast) suite.
FAST_CASES = 30
#: Total seeded cases; seeds >= FAST_CASES are marked ``slow``.
TOTAL_CASES = 150

FAMILIES = ("complete", "core", "core-like", "ring", "k-in-regular")

#: Adversary kinds; the scalar-expressible ones additionally run the
#: scalar-vs-vectorized lockstep check.
STRATEGY_KINDS = (
    "none",
    "scalar-extreme",
    "scalar-static",
    "batch-static",
    "batch-extreme",
    "batch-frozen",
    "batch-noise",
    "adaptive-greedy",
    "adaptive-lookahead",
)
SCALAR_EXPRESSIBLE = ("none", "scalar-extreme", "scalar-static")

SCHEDULE_KINDS = (
    "static",
    "periodic-edges",
    "periodic-churn",
    "random-edges",
    "random-churn",
    "composed",
)


def _draw_graph(rng: np.random.Generator, f: int):
    """Return a graph of a random family whose fault-free in-degrees satisfy
    the trimmed rules' ``2f`` floor by construction."""
    family = FAMILIES[int(rng.integers(len(FAMILIES)))]
    if family == "complete":
        n = int(rng.integers(3 * f + 2, 20))
        return complete_graph(n)
    if family == "core":
        n = int(rng.integers(3 * f + 2, 32))
        return core_network(n, f)
    if family == "core-like":
        n = int(rng.integers(3 * f + 2, 32))
        probability = float(rng.uniform(0.05, 0.4))
        return random_core_like_network(n, f, probability, rng=rng)
    if family == "ring":
        k = int(rng.integers(f, f + 4))
        n = int(rng.integers(2 * k + 2, 40))
        return ring_lattice(n, k)
    degree = 2 * f + int(rng.integers(0, 6))
    n = int(rng.integers(degree + 2, 40))
    return k_in_regular_digraph(n, degree, rng=rng)


def _draw_strategy(rng: np.random.Generator, seed: int):
    """Return ``(kind, batch blueprint, row-0 scalar twin or None)``.

    The twin maps the batch size to the scalar strategy that replays batch
    row 0 on the scalar engine: the scalar blueprint itself for
    scalar-expressible kinds (the lockstep check hands it to
    :func:`cross_check_engines`), a batch-native strategy's scalar
    counterpart otherwise (for random noise, seeded with row 0's spawned
    stream).  It is ``None`` for the adaptive kinds, which have no scalar
    form.
    """
    kind = STRATEGY_KINDS[int(rng.integers(len(STRATEGY_KINDS)))]
    if kind == "none":
        return kind, None, lambda batch: None
    if kind == "scalar-extreme":
        extreme = ExtremePushStrategy(delta=float(rng.uniform(0.5, 5.0)))
        return kind, extreme, lambda batch: extreme
    if kind == "scalar-static":
        static = StaticValueStrategy(float(rng.uniform(-10.0, 10.0)))
        return kind, static, lambda batch: static
    if kind == "batch-static":
        value = float(rng.uniform(-10.0, 10.0))
        return kind, BatchStaticValueStrategy(value), (
            lambda batch: StaticValueStrategy(value)
        )
    if kind == "batch-extreme":
        delta = float(rng.uniform(0.5, 5.0))
        return kind, BatchExtremePushStrategy(delta), (
            lambda batch: ExtremePushStrategy(delta)
        )
    if kind == "batch-frozen":
        return kind, BatchFrozenValueStrategy(), lambda batch: FrozenValueStrategy()
    if kind == "batch-noise":
        return kind, BatchRandomNoiseStrategy(-5.0, 5.0, rng=seed), (
            lambda batch: RandomNoiseStrategy(
                -5.0, 5.0, rng=spawn_row_generators(seed, batch)[0]
            )
        )
    mode = "greedy" if kind == "adaptive-greedy" else "lookahead"
    # A discarded draw: dropping it would shift every later draw of the
    # seeded scenarios.
    rng.random()
    return (
        kind,
        BatchAdaptiveStrategy(mode=mode, delta=float(rng.uniform(0.5, 3.0))),
        None,
    )


def _draw_schedule(rng: np.random.Generator, graph, seed: int):
    """Return a fresh schedule of a random kind for ``graph``."""
    kind = SCHEDULE_KINDS[int(rng.integers(len(SCHEDULE_KINDS)))]
    if kind == "static":
        return StaticSchedule()
    if kind == "periodic-edges":
        layout = ScheduleLayout.for_graph(graph)
        stride = int(rng.integers(2, 6))
        return PeriodicEdgeSchedule([layout.edges[::stride], ()])
    if kind == "periodic-churn":
        nodes = sorted(graph.nodes, key=repr)
        victim = nodes[int(rng.integers(len(nodes)))]
        return PeriodicChurnSchedule([[victim], (), ()])
    if kind == "random-edges":
        return RandomEdgeSchedule(p_up=float(rng.uniform(0.6, 1.0)), seed=seed)
    if kind == "random-churn":
        return RandomChurnSchedule(p_awake=float(rng.uniform(0.6, 1.0)), seed=seed)
    return ComposedSchedule(
        RandomEdgeSchedule(p_up=float(rng.uniform(0.7, 1.0)), seed=seed),
        RandomChurnSchedule(p_awake=float(rng.uniform(0.7, 1.0)), seed=seed),
    )


def _fuzz_one(seed: int) -> None:
    rng = np.random.default_rng(seed)
    f = int(rng.integers(1, 3))
    graph = _draw_graph(rng, f)
    nodes = sorted(graph.nodes, key=repr)
    fault_count = int(rng.integers(0, f + 1))
    faulty = frozenset(
        int(c) for c in rng.choice(len(nodes), size=fault_count, replace=False)
    )
    rule_factory = TrimmedMeanRule if rng.random() < 0.7 else TrimmedMidpointRule
    kind, batch_adversary, twin = (
        _draw_strategy(rng, seed) if faulty else ("none", None, lambda batch: None)
    )
    schedule = _draw_schedule(rng, graph, seed)
    batch = int(rng.choice([1, 4, 16]))
    rounds = int(rng.integers(4, 11))
    # A discarded draw (the former tile size): dropping it would shift
    # every later draw of the seeded scenarios.
    rng.integers(1, 4)

    config = SimulationConfig(
        max_rounds=rounds,
        tolerance=0.0,
        record_history=True,
        stop_on_convergence=False,
    )
    compiled = VectorizedEngine(
        graph,
        rule_factory(f),
        faulty=faulty,
        adversary=copy.deepcopy(batch_adversary),
        config=config,
        schedule=copy.deepcopy(schedule),
    )
    # The second run takes the NumPy plane kernel, the first the compiled
    # kernel where this machine builds it.
    numpy_run = NumpyKernelEngine(
        graph,
        rule_factory(f),
        faulty=faulty,
        adversary=copy.deepcopy(batch_adversary),
        config=config,
        schedule=copy.deepcopy(schedule),
    )

    matrix = random_input_matrix(compiled.nodes, batch, rng=rng)
    compiled_out = compiled.run_batch(matrix.copy())
    numpy_out = numpy_run.run_batch(matrix.copy())

    label = (
        f"seed={seed} n={len(nodes)} f={f} |F|={len(faulty)} B={batch} "
        f"rounds={rounds} adversary={kind} "
        f"schedule={schedule.name}"
    )
    assert np.array_equal(compiled_out.final_states, numpy_out.final_states), label
    assert np.array_equal(compiled_out.converged, numpy_out.converged), label
    assert np.array_equal(
        compiled_out.rounds_executed, numpy_out.rounds_executed
    ), label
    assert np.array_equal(
        compiled_out.initial_spread, numpy_out.initial_spread
    ), label
    assert np.array_equal(compiled_out.final_spread, numpy_out.final_spread), label
    assert np.array_equal(compiled_out.validity_ok, numpy_out.validity_ok), label
    assert np.array_equal(
        compiled_out.spread_history, numpy_out.spread_history
    ), label

    # Independent reference: row 0 replayed on the scalar engine.
    if twin is not None:
        scalar = SynchronousEngine(
            graph,
            rule_factory(f),
            faulty=faulty,
            adversary=copy.deepcopy(twin(batch)),
            config=config,
            schedule=copy.deepcopy(schedule),
        ).run(dict(zip(compiled.nodes, matrix[0].tolist())))
        final = scalar.history[-1].values
        assert [final[node] for node in compiled.nodes] == (
            compiled_out.final_states[0].tolist()
        ), label
        assert np.array_equal(
            spreads_from_records(scalar.history), compiled_out.spread_history[:, 0]
        ), label
        assert scalar.rounds_executed == compiled_out.rounds_executed[0], label
        assert scalar.converged == bool(compiled_out.converged[0]), label
        assert scalar.validity_ok == bool(compiled_out.validity_ok[0]), label

    # Scalar lockstep: one batch row, scalar reference vs a fresh vectorized
    # engine, full trajectory, same schedule.
    if kind in SCALAR_EXPRESSIBLE:
        row = int(rng.integers(batch))
        report = cross_check_engines(
            graph=graph,
            rule=rule_factory(f),
            inputs=dict(zip(compiled.nodes, matrix[row].tolist())),
            faulty=faulty,
            adversary=copy.deepcopy(twin(batch)),
            config=config,
            rounds=rounds,
            schedule=copy.deepcopy(schedule),
        )
        assert report.identical, (
            f"{label}: scalar/vectorized diverged at round "
            f"{report.first_divergence_round} "
            f"(max |diff| {report.max_abs_difference})"
        )


@pytest.mark.parametrize("seed", range(FAST_CASES))
def test_dynamic_cross_engine_fuzz_fast(seed):
    """Fast CI subset of the dynamic-topology differential sweep."""
    _fuzz_one(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(FAST_CASES, TOTAL_CASES))
def test_dynamic_cross_engine_fuzz_full(seed):
    """The long tail of the dynamic-topology differential sweep."""
    _fuzz_one(seed)
