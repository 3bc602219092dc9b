"""Engine-level pins of the one validity monitor.

Every engine tier reports validity through
:class:`~repro.simulation.metrics.ValidityMonitor`; these tests drive it
from the outside:

* **Input guard** — NaN and ±inf inputs are rejected by every tier before
  a run starts, naming the node (and, for a batch, the row and column).
* **One round loop** — a batch engine's ``run()`` is its ``run_batch()``
  loop at ``B = 1``: every outcome field equals row 0 of a one-row batch,
  at float64 and float32, with and without churn.
* **Mutation checks** — faults injected into each tier's round (a
  fault-free node pushed ``10 x VALIDITY_TOLERANCE`` past the reference
  bound, an asleep node moved by one ulp, a kernel trimming ``f - 1``) flip
  ``validity_ok`` in the affected row and, in strict mode, raise a
  :class:`~repro.exceptions.ValidityViolationError` naming the injected
  row, round and node.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.simulation.vectorized as vectorized
import repro.simulation.vectorized_async as vectorized_async
from repro.adversary import ExtremePushStrategy
from repro.algorithms import TrimmedMeanRule
from repro.exceptions import InvalidParameterError, ValidityViolationError
from repro.graphs import core_network
from repro.simulation import (
    PartiallyAsynchronousEngine,
    PeriodicChurnSchedule,
    RandomChurnSchedule,
    SimulationConfig,
    SynchronousEngine,
    VectorizedAsyncEngine,
    VectorizedEngine,
    random_input_matrix,
    uniform_random_inputs,
)
from repro.simulation.metrics import VALIDITY_TOLERANCE

GRAPH = core_network(9, 1)
FAULTY = frozenset({8})
FAULT_FREE = tuple(range(8))
INPUTS = uniform_random_inputs(GRAPH.nodes, rng=7)

#: The round every mutation strikes, the node pushed past the bound, the
#: node moved while asleep, and the batch row both are injected into.
INJECT_ROUND = 3
PUSHED = 3
SLEEPER = 5
ROW = 1
#: ``SLEEPER`` sleeps on odd rounds, ``INJECT_ROUND`` included.
SLEEP = PeriodicChurnSchedule([[SLEEPER], []])


def _config(strict: bool = False, **kwargs) -> SimulationConfig:
    kwargs.setdefault("max_rounds", 8)
    kwargs.setdefault("tolerance", 0.0)
    return SimulationConfig(strict_validity=strict, **kwargs)


def _engine(tier, config=None, schedule=None, rule=None):
    rule = rule if rule is not None else TrimmedMeanRule(1)
    adversary = ExtremePushStrategy(delta=1.0)
    if tier == "scalar":
        return SynchronousEngine(
            GRAPH, rule, FAULTY, adversary, config, schedule=schedule
        )
    if tier == "async-scalar":
        return PartiallyAsynchronousEngine(
            GRAPH, rule, FAULTY, adversary, config,
            max_delay=1, rng=0, schedule=schedule,
        )
    if tier == "vectorized":
        return VectorizedEngine(
            GRAPH, rule, FAULTY, adversary, config, schedule=schedule
        )
    if tier == "async":
        return VectorizedAsyncEngine(
            GRAPH, rule, FAULTY, adversary, config, max_delay=1, schedule=schedule
        )
    raise AssertionError(tier)


# ---------------------------------------------------------------------------
# Input guard
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("tier", ["scalar", "async-scalar", "vectorized", "async"])
def test_non_finite_input_is_rejected(tier, value):
    engine = _engine(tier)
    inputs = dict(INPUTS)
    inputs[4] = value
    with pytest.raises(InvalidParameterError, match="node 4 .*not finite"):
        engine.run(inputs)
    if tier in ("vectorized", "async"):
        matrix = np.zeros((2, len(engine.nodes)))
        matrix[1, engine.nodes.index(4)] = value
        with pytest.raises(InvalidParameterError, match="row 1, column 4"):
            engine.run_batch(matrix)


# ---------------------------------------------------------------------------
# One round loop: run() is run_batch() at B = 1
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("churn", [False, True], ids=["static", "churn"])
@pytest.mark.parametrize(
    "kind", ["vectorized-float64", "vectorized-float32", "async-float64"]
)
def test_run_equals_run_batch_row_zero(kind, churn):
    """The asynchronous class is float64-only; its single run takes
    ``rng=seed`` and the batch the same stream as ``[default_rng(seed)]``."""
    seed = 11

    def build():
        config = SimulationConfig(max_rounds=80, tolerance=1e-4)
        schedule = RandomChurnSchedule(p_awake=0.7, seed=4) if churn else None
        adversary = ExtremePushStrategy(delta=1.0)
        if kind.startswith("async"):
            return VectorizedAsyncEngine(
                GRAPH, TrimmedMeanRule(1), FAULTY, adversary, config,
                max_delay=2, update_probability=0.8, schedule=schedule,
            )
        dtype = np.float32 if kind.endswith("float32") else np.float64
        return VectorizedEngine(
            GRAPH, TrimmedMeanRule(1), FAULTY, adversary, config,
            schedule=schedule, dtype=dtype,
        )

    if kind.startswith("async"):
        single = build().run(INPUTS, rng=seed)
        batch = build().run_batch([INPUTS], rng=[np.random.default_rng(seed)])
    else:
        single = build().run(INPUTS)
        batch = build().run_batch([INPUTS])
    assert single.converged == bool(batch.converged[0])
    assert single.rounds_executed == int(batch.rounds_executed[0])
    # Compared as Python floats: ``float == np.float32`` would round the
    # left side to float32 first and hide a float64 spread.
    assert single.initial_spread == float(batch.initial_spread[0])
    assert single.final_spread == float(batch.final_spread[0])
    assert single.validity_ok == bool(batch.validity_ok[0])
    assert single.final_values == {
        node: float(batch.final_states[0, column])
        for column, node in enumerate(batch.nodes)
        if node not in FAULTY
    }
    assert single.converged and single.rounds_executed < 80


# ---------------------------------------------------------------------------
# Mutation checks
# ---------------------------------------------------------------------------


def _past_the_bound(initial_hull, record):
    """Mutation: replace the value by the reference bound plus ten slacks.

    ``seen`` holds the row's fault-free states of rounds ``0 .. t − 1``; the
    bound is their round-0 maximum (initial hull) or the tightest maximum
    so far (eq. 1).
    """

    def change(seen, value):
        maxima = [max(states) for states in seen]
        record["bound"] = maxima[0] if initial_hull else min(maxima)
        record["observed"] = record["bound"] + 10.0 * VALIDITY_TOLERANCE
        return record["observed"]

    return change


def _one_ulp_up(record):
    """Mutation: move the (frozen) value up by one ulp."""

    def change(seen, value):
        record["bound"] = float(value)
        record["observed"] = float(np.nextafter(value, np.inf))
        return record["observed"]

    return change


def _run_injected(tier, node, change, *, strict, schedule=None, batch=False):
    """Run ``tier`` with ``change`` applied to ``node``'s new state at
    ``INJECT_ROUND`` (in row ``ROW`` of a three-row batch when ``batch``)
    and return the ``validity_ok`` rows."""
    engine = _engine(tier, _config(strict), schedule)
    seen = []
    if tier == "scalar":
        original = engine.step

        def step(state, round_index):
            seen.append([state[ff] for ff in FAULT_FREE])
            new_state = original(state, round_index)
            if round_index == INJECT_ROUND:
                new_state[node] = change(seen, new_state[node])
            return new_state

        engine.step = step
        return [engine.run(INPUTS).validity_ok]

    name, position = ("step_matrix", 1) if tier == "vectorized" else ("step_async", 2)
    original = getattr(engine, name)
    row = ROW if batch else 0
    column = engine.nodes.index(node)
    ff_columns = [engine.nodes.index(ff) for ff in FAULT_FREE]

    def stepper(*args):
        seen.append(args[0][row, ff_columns].tolist())
        new_state = original(*args)
        if args[position] == INJECT_ROUND:
            new_state[row, column] = change(seen, new_state[row, column])
        return new_state

    setattr(engine, name, stepper)
    if not batch:
        return [engine.run(INPUTS).validity_ok]
    matrix = random_input_matrix(engine.nodes, 3, rng=7)
    extra = {"rng": 5} if tier == "async" else {}
    return engine.run_batch(matrix, **extra).validity_ok.tolist()


class _EscapingRule(TrimmedMeanRule):
    """Algorithm 1, except that ``PUSHED`` jumps ten slacks past the
    round-0 maximum on its ``INJECT_ROUND``-th update."""

    def __init__(self, f, record):
        super().__init__(f)
        self._record = record
        self._updates = 0

    def compute(self, node, own_value, received):
        value = super().compute(node, own_value, received)
        if node != PUSHED:
            return value
        self._updates += 1
        if self._updates != INJECT_ROUND:
            return value
        self._record["bound"] = max(INPUTS[ff] for ff in FAULT_FREE)
        self._record["observed"] = self._record["bound"] + 10.0 * VALIDITY_TOLERANCE
        return self._record["observed"]


def _assert_located(error, record, row, node):
    assert (error.row, error.round_index, error.node) == (row, INJECT_ROUND, node)
    assert (error.bound, error.observed) == (record["bound"], record["observed"])


INJECTED_TIERS = [
    ("scalar", False),
    ("vectorized", False),
    ("vectorized", True),
    ("async", False),
    ("async", True),
]
INJECTED_IDS = [
    "scalar", "vectorized-run", "vectorized-batch", "async-run", "async-batch"
]


@pytest.mark.parametrize("tier,batch", INJECTED_TIERS, ids=INJECTED_IDS)
def test_node_pushed_past_the_bound_is_flagged(tier, batch):
    initial_hull = tier == "async"
    rows = _run_injected(
        tier, PUSHED, _past_the_bound(initial_hull, {}), strict=False, batch=batch
    )
    assert rows == ([True, False, True] if batch else [False])
    record = {}
    with pytest.raises(ValidityViolationError) as caught:
        _run_injected(
            tier, PUSHED, _past_the_bound(initial_hull, record),
            strict=True, batch=batch,
        )
    _assert_located(caught.value, record, ROW if batch else 0, PUSHED)


def test_escaping_update_rule_is_flagged_on_the_scalar_async_engine():
    """The scalar asynchronous engine has no step seam, so the fault enters
    through its update rule (every node updates every round at ``p = 1``)."""
    engine = _engine("async-scalar", _config(), rule=_EscapingRule(1, {}))
    assert not engine.run(INPUTS).validity_ok
    record = {}
    engine = _engine("async-scalar", _config(True), rule=_EscapingRule(1, record))
    with pytest.raises(ValidityViolationError, match="hull validity") as caught:
        engine.run(INPUTS)
    _assert_located(caught.value, record, 0, PUSHED)


@pytest.mark.parametrize("tier,batch", INJECTED_TIERS, ids=INJECTED_IDS)
def test_asleep_node_moved_by_one_ulp_is_flagged(tier, batch):
    rows = _run_injected(
        tier, SLEEPER, _one_ulp_up({}), strict=False, schedule=SLEEP, batch=batch
    )
    assert rows == ([True, False, True] if batch else [False])
    record = {}
    with pytest.raises(ValidityViolationError, match="while asleep") as caught:
        _run_injected(
            tier, SLEEPER, _one_ulp_up(record), strict=True, schedule=SLEEP, batch=batch
        )
    _assert_located(caught.value, record, ROW if batch else 0, SLEEPER)


@pytest.mark.parametrize("tier", ["vectorized", "async"])
def test_kernel_trimming_one_value_too_few_is_flagged_within_two_rounds(
    tier, monkeypatch
):
    graph, f = core_network(10, 2), 2

    def run(strict):
        config = _config(strict, max_rounds=2)
        adversary = ExtremePushStrategy(delta=5.0)
        if tier == "vectorized":
            engine = VectorizedEngine(
                graph, TrimmedMeanRule(f), {8, 9}, adversary, config
            )
            return engine.run_batch(random_input_matrix(engine.nodes, 6, rng=1))
        engine = VectorizedAsyncEngine(
            graph, TrimmedMeanRule(f), {8, 9}, adversary, config, max_delay=1
        )
        return engine.run_batch(random_input_matrix(engine.nodes, 6, rng=1), rng=3)

    assert run(strict=False).all_valid  # the intact kernel keeps validity
    original = vectorized.reduce_plane

    def trim_one_too_few(source, slots, state, out, layout, f, mode):
        original(source, slots, state, out, layout, f - 1, mode)

    monkeypatch.setattr(vectorized, "reduce_plane", trim_one_too_few)
    monkeypatch.setattr(vectorized_async, "reduce_plane", trim_one_too_few)
    assert not run(strict=False).validity_ok.any()
    with pytest.raises(ValidityViolationError) as caught:
        run(strict=True)
    assert caught.value.round_index <= 2
