"""One benchmark harness for every ``BENCH_<scenario>.json`` at the repo root.

Each entry of :data:`SCENARIOS` times one piece of the reproduction:

* ``engine`` / ``async`` — Algorithm 1's trimmed-mean update through the
  scalar reference engine, the vectorized engine at ``B = 1`` and the full
  batch, in the synchronous and in the Section-7 partially asynchronous
  model (run-rounds per second);
* ``checker`` — the exact Theorem-1 search and ``robustness_degree``, the
  legacy pure-Python path against the bitset kernels, and the search's
  NumPy sweep against the compiled one;
* ``adversary`` — every batch-native Byzantine strategy against its scalar
  adapter on the split-brain barbell of the necessity proof;
* ``scale`` — float64 and float32 batch throughput up to ``n = 10^5``
  (node-rounds per second);
* ``verdict`` — the layered feasibility verdict stack on the
  ``feasibility_at_scale`` battery, the core screen against the exhaustive
  checker, and the DPLL backend's search (Python and compiled solver) and
  ``exact`` certificate re-check;
* ``dynamic`` — the per-round masking cost of each topology-schedule kind
  and of the 1-lookahead adaptive adversary.

A scenario declares a refusal guard, a full and a smoke parameter set, and
the paths it times.  The guard runs first: when a fast path has drifted from
its reference it stops the run with ``SystemExit`` ("... refusing to
benchmark"), so no number is ever published for it.  The harness owns the
rest.  Every path gets one warm-up call and :data:`REPEATS` timed calls,
recorded as their median and quartiles, and the payload goes to
``BENCH_<scenario>.json`` under schema v3 (see ``docs/performance.md``).
Run::

    PYTHONPATH=src python benchmarks/harness.py [SCENARIO ...] [--smoke]

or ``make bench [SCENARIO=...]``; no names means every scenario.  ``--smoke``
(``make bench-smoke``, run in CI) runs the same guards and paths with the
smoke parameters and opens no output file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, NoReturn, Sequence
from unittest import mock

import numpy as np

from repro.adversary.selection import random_fault_set
from repro.adversary.strategies import (
    BroadcastConsistentStrategy,
    ExtremePushStrategy,
    FrozenValueStrategy,
    RandomNoiseStrategy,
    SplitBrainStrategy,
    StaticValueStrategy,
)
from repro.adversary.vectorized import (
    BatchAdaptiveStrategy,
    BatchBroadcastConsistentWrapper,
    BatchExtremePushStrategy,
    BatchFrozenValueStrategy,
    BatchRandomNoiseStrategy,
    BatchSplitBrainStrategy,
    BatchStaticValueStrategy,
    ScalarStrategyAdapter,
)
from repro.algorithms.trimmed_mean import TrimmedMeanRule
from repro.conditions import search_kernel
from repro.conditions.exact import exact_violation_search
from repro.conditions.necessary import (
    check_feasibility,
    find_violating_partition,
    verify_witness,
)
from repro.conditions.robustness import robustness_degree
from repro.conditions.verdict import UNKNOWN, feasibility_verdict, verify_certificate
from repro.experiments.dynamic import make_dynamic_schedule
from repro.experiments.feasibility_scale import feasibility_scale_cases
from repro.graphs.digraph import Digraph
from repro.graphs.generators import (
    chord_network,
    complete_graph,
    core_network,
    hypercube,
    undirected_ring,
)
from repro.graphs.random_graphs import erdos_renyi_digraph, heterogeneous_ring_lattice
from repro.simulation.async_engine import PartiallyAsynchronousEngine
from repro.simulation.engine import SimulationConfig, SynchronousEngine
from repro.simulation.inputs import uniform_random_inputs
from repro.simulation.vectorized import (
    VectorizedEngine,
    cross_check_engines,
    random_input_matrix,
)
from repro.simulation.vectorized_async import VectorizedAsyncEngine
from repro.sweeps.provenance import machine_provenance
from repro.types import PartitionWitness

#: Timed calls per path, after one warm-up call.
REPEATS = 5

#: Layout version of ``BENCH_*.json``; v3 records repeats and quartiles.
SCHEMA_VERSION = 3

#: Directory the full runs write ``BENCH_<scenario>.json`` into.
OUT_DIR = Path(__file__).resolve().parent.parent

Params = dict[str, Any]
Payload = dict[str, Any]
Timing = dict[str, float]
Timed = tuple[Params, Payload, dict[str, float]]


# -- the harness: timing and refusal -----------------------------------------
def spread(seconds: Sequence[float]) -> Timing:
    """Median and quartiles of a list of durations, in seconds."""
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def clock(call: Callable[[], object]) -> Timing:
    """Warm ``call`` up once, then time :data:`REPEATS` calls."""
    call()
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    return spread(seconds)


def rate(work: float, timing: Timing) -> float:
    """Units of ``work`` per second at the median time."""
    return work / timing["median"]


def ratio(slow: Timing, fast: Timing) -> float:
    """The ratio of the two medians, ``slow`` over ``fast``."""
    return slow["median"] / fast["median"]


def stepper(
    step: Callable[[Any, int], Any], starts: Sequence[Any], rounds: int
) -> Callable[[], None]:
    """A call that steps each state in ``starts`` through ``rounds`` rounds."""

    def call() -> None:
        for state in starts:
            for round_index in range(1, rounds + 1):
                state = step(state, round_index)

    return call


def refuse(reason: str) -> NoReturn:
    """Stop the run: a guard caught a path that drifted from its reference."""
    raise SystemExit(f"{reason}; refusing to benchmark")


def engine_guard(graph: Digraph, f: int, rng: int, **pair: Any) -> None:
    """Refuse unless the batch engine replays the scalar engine bit for bit.

    One small run under the extreme-push adversary, with inputs and faults
    drawn from ``rng``; ``pair`` passes rounds, a schedule or the
    asynchronous model on to :func:`cross_check_engines`.
    """
    report = cross_check_engines(
        graph=graph,
        rule=TrimmedMeanRule(f),
        inputs=uniform_random_inputs(graph.nodes, rng=rng),
        faulty=random_fault_set(graph, f, rng=rng),
        adversary=ExtremePushStrategy(delta=1.0),
        **pair,
    )
    if not report.identical:
        refuse(f"the batch engine is not bit-exact with the scalar one ({pair})")


def build(
    graph: Digraph,
    f: int,
    faulty: Any,
    adversary: Any,
    rounds: int,
    kind: type = VectorizedEngine,
    **options: Any,
) -> Any:
    """A trimmed-mean engine of class ``kind`` that runs exactly ``rounds``."""
    config = SimulationConfig(
        max_rounds=rounds, record_history=False, stop_on_convergence=False
    )
    return kind(graph, TrimmedMeanRule(f), faulty, adversary, config, **options)


# -- engine and async: scalar vs vectorized vs batch -------------------------
def core_case(p: Params) -> tuple[Digraph, frozenset, list[dict]]:
    """The core network, its fault set and the timed scalar runs' inputs."""
    graph, seed = core_network(p["n"], p["f"]), p["seed"]
    runs = range(min(p["scalar_runs"], p["batch"]))
    starts = [uniform_random_inputs(graph.nodes, rng=seed + run) for run in runs]
    return graph, random_fault_set(graph, p["f"], rng=seed), starts


def engine_results(
    p: Params, runs: int, timings: dict[str, Timing], **model: Any
) -> Timed:
    """Scenario block, results and speedups of the three engine paths."""
    work = {
        "scalar": runs * p["rounds"],
        "vectorized_single": p["rounds"],
        "batch": p["batch"] * p["rounds"],
    }
    results: Payload = {
        path: {"seconds": timing, "run_rounds_per_sec": rate(work[path], timing)}
        for path, timing in timings.items()
    }
    results["scalar"]["runs_timed"] = runs
    speed = {path: entry["run_rounds_per_sec"] for path, entry in results.items()}
    speedups = {
        "single_vs_scalar": speed["vectorized_single"] / speed["scalar"],
        "batch_vs_scalar": speed["batch"] / speed["scalar"],
    }
    scenario = {
        "graph": f"core_network(n={p['n']}, f={p['f']})",
        **{key: p[key] for key in ("n", "f", "batch", "rounds")},
        **model,
        "adversary": "extreme-push(delta=1.0)",
        "seed": p["seed"],
    }
    return scenario, results, speedups


def engine_paths(p: Params) -> Timed:
    """Time the synchronous scalar engine, vectorized B=1 and the batch."""
    graph, faulty, starts = core_case(p)
    f, rounds, seed = p["f"], p["rounds"], p["seed"]
    push, batch_push = ExtremePushStrategy(1.0), BatchExtremePushStrategy(1.0)
    scalar = build(graph, f, faulty, push, rounds, SynchronousEngine)
    vector = build(graph, f, faulty, batch_push, rounds)
    single, full = (
        [random_input_matrix(vector.nodes, rows, rng=seed)] for rows in (1, p["batch"])
    )
    timings = {
        "scalar": clock(stepper(scalar.step, starts, rounds)),
        "vectorized_single": clock(stepper(vector.step_matrix, single, rounds)),
        "batch": clock(stepper(vector.step_matrix, full, rounds)),
    }
    return engine_results(p, len(starts), timings)


def async_paths(p: Params) -> Timed:
    """Time the partially asynchronous scalar engine, B=1 and the batch."""
    graph, faulty, starts = core_case(p)
    f, rounds, seed = p["f"], p["rounds"], p["seed"]
    model = {"max_delay": p["max_delay"], "update_probability": p["update_probability"]}
    push, batch_push = ExtremePushStrategy(1.0), BatchExtremePushStrategy(1.0)
    scalar = [
        build(
            graph, f, faulty, push, rounds, PartiallyAsynchronousEngine,
            rng=rng, **model,
        )
        for rng in range(seed, seed + len(starts))
    ]
    vector = build(graph, f, faulty, batch_push, rounds, VectorizedAsyncEngine, **model)

    def batch_run(rows: int) -> Callable[[], object]:
        matrix = random_input_matrix(vector.nodes, rows, rng=seed)
        return lambda: vector.run_batch(matrix, rng=seed)

    timings = {
        "scalar": clock(lambda: [run.run(x) for run, x in zip(scalar, starts)]),
        "vectorized_single": clock(batch_run(1)),
        "batch": clock(batch_run(p["batch"])),
    }
    return engine_results(p, len(starts), timings, **model)


# -- checker: legacy pure Python vs bitset kernels ---------------------------
@contextlib.contextmanager
def search_path(path: str) -> Iterator[None]:
    """Run the Theorem-1 search on ``path``: ``"compiled"`` as this machine
    builds it, any other path on the NumPy sweep and the Python solver (the
    compiled search switched off, as on a machine without a C compiler)."""
    if path == "compiled":
        yield
        return
    with mock.patch.object(search_kernel, "kernel", lambda: None):
        yield


def search_in_use() -> str:
    """Which Theorem-1 search the ``compiled`` path runs on this machine."""
    return "compiled" if search_kernel.kernel() is not None else "interpreted"


#: ``(label, graph, f, paths, check)``: ``check(path)`` answers the case on
#: one of its ``paths``.
Check = tuple[str, Digraph, int, tuple[str, ...], Callable[[str], object]]

#: The exact cases' paths: the legacy set enumeration, the bitset checker
#: with its NumPy sweep, and the bitset checker with the compiled sweep.
EXACT_PATHS = ("python", "numpy", "compiled")


def checker_cases(p: Params) -> list[Check]:
    """One :data:`Check` per case."""

    def exact(graph: Digraph) -> Callable[[str], object]:
        cap = graph.number_of_nodes

        def check(path: str) -> object:
            method = "python" if path == "python" else "bitset"
            with search_path(path):
                return find_violating_partition(graph, 1, max_nodes=cap, method=method)

        return check

    robust = core_network(p["robustness_n"], 2)

    def degree(method: str) -> object:
        cap = robust.number_of_nodes
        return robustness_degree(robust, max_nodes=cap, method=method)

    cases: list[Check] = [
        (f"exact_{label}", graph, 1, EXACT_PATHS, exact(graph))
        for label, graph in (
            ("chord", chord_network(p["n"], 1)),
            ("hypercube", hypercube(p["hypercube_dimension"])),
            ("core", core_network(p["n"], 1)),
        )
    ]
    return cases + [
        ("robustness_degree_core", robust, 2, ("python", "bitset"), degree)
    ]


def checker_guard(p: Params) -> None:
    """Every path must give the legacy path's witness or degree on every case."""
    for label, _, _, paths, check in checker_cases(p):
        legacy = check(paths[0])
        for path in paths[1:]:
            if check(path) != legacy:
                refuse(f"the {path} checker diverged from the legacy one on {label}")


def checker_paths(p: Params) -> Timed:
    """Time every checker case through each of its paths."""
    cases = checker_cases(p)
    results: Payload = {}
    speedups: dict[str, float] = {}
    for label, graph, f, paths, check in cases:
        seconds = {path: clock(lambda: check(path)) for path in paths}
        answer = check(paths[-1])
        results[label] = {
            "n": graph.number_of_nodes,
            "f": f,
            **(
                {"degree": answer}
                if label.startswith("robustness")
                else {"condition_holds": answer is None}
            ),
            **{f"{path}_seconds": timing for path, timing in seconds.items()},
        }
        bitset = seconds.get("bitset", seconds.get("numpy"))
        speedups[f"{label}_bitset_vs_python"] = ratio(seconds["python"], bitset)
        if "compiled" in seconds:
            speedups[f"{label}_compiled_vs_numpy"] = ratio(
                seconds["numpy"], seconds["compiled"]
            )
    scenario = {
        "exact_cases": [
            f"{label[len('exact_'):]}(n={graph.number_of_nodes}, f={f})"
            for label, graph, f, _, _ in cases[:-1]
        ],
        "exact_paths": list(EXACT_PATHS),
        "robustness_case": f"core_network(n={p['robustness_n']}, f=2)",
        "search": search_in_use(),
        **p,
    }
    return scenario, results, speedups


# -- adversary: batch-native strategies vs the scalar adapter ----------------
def split_brain_barbell(n: int, f: int) -> tuple[Digraph, PartitionWitness]:
    """A condition-violating graph whose witness needs no search.

    Nodes ``0 .. n-f-1`` form two complete halves ``L`` and ``R`` with no
    edges between them; the last ``f`` nodes are faulty and wired both ways
    to every node.  With ``F`` removed neither half reaches the other, so
    ``(F, L, C=∅, R)`` violates the Theorem-1 condition for any ``f >= 1``.
    """
    half = (n - f) // 2
    left, right = frozenset(range(half)), frozenset(range(half, n - f))
    graph = Digraph(nodes=range(n))
    for side in (left, right):
        for source in side:
            for target in side - {source}:
                graph.add_edge(source, target)
    for bad in range(n - f, n):
        for node in range(n - f):
            graph.add_bidirectional_edge(bad, node)
    witness = PartitionWitness(
        faulty=frozenset(range(n - f, n)),
        left=left,
        center=frozenset(),
        right=right,
    )
    return graph, witness


Factory = Callable[[int], Any]


def strategy_pairs(
    witness: PartitionWitness, seed: int
) -> list[tuple[str, Factory, Factory]]:
    """``(label, native factory, adapter factory)`` per strategy.

    Factories take the batch size and return a fresh adversary, so guard
    and timed runs never share stateful strategies or RNG streams.  The
    randomized pair draws from identically seeded per-row streams on both
    sides (the RNG-stream contract).
    """

    def streams(batch: int) -> list[np.random.Generator]:
        children = np.random.SeedSequence(seed).spawn(batch)
        return [np.random.default_rng(child) for child in children]

    def noise_adapter(batch: int) -> ScalarStrategyAdapter:
        rows = iter(streams(batch))
        return ScalarStrategyAdapter(
            factory=lambda: RandomNoiseStrategy(-10.0, 10.0, rng=next(rows))
        )

    def adapter(strategy: Any) -> Factory:
        return lambda batch: ScalarStrategyAdapter(strategy=strategy)

    push = ExtremePushStrategy(2.0)

    def batch_push(batch: int) -> BatchExtremePushStrategy:
        return BatchExtremePushStrategy(2.0)

    return [
        (
            "split_brain",
            lambda batch: BatchSplitBrainStrategy(witness, 0.0, 1.0, margin=1.0),
            adapter(SplitBrainStrategy(witness, 0.0, 1.0, margin=1.0)),
        ),
        (
            "static",
            lambda batch: BatchStaticValueStrategy(500.0),
            adapter(StaticValueStrategy(500.0)),
        ),
        (
            "frozen",
            lambda batch: BatchFrozenValueStrategy(),
            lambda batch: ScalarStrategyAdapter(factory=FrozenValueStrategy),
        ),
        (
            "noise",
            lambda batch: BatchRandomNoiseStrategy(-10.0, 10.0, rng=streams(batch)),
            noise_adapter,
        ),
        ("extreme_push", batch_push, adapter(push)),
        (
            "broadcast_extreme",
            lambda batch: BatchBroadcastConsistentWrapper(batch_push(batch)),
            adapter(BroadcastConsistentStrategy(push)),
        ),
    ]


def adversary_guard(p: Params) -> None:
    """The witness must verify and each native strategy replay its adapter."""
    graph, witness = split_brain_barbell(p["n"], p["f"])
    if not verify_witness(graph, p["f"], witness):
        refuse("the barbell witness failed verification")
    rounds = min(p["rounds"], 20)
    for label, *factories in strategy_pairs(witness, p["seed"]):
        finals = []
        for factory in factories:
            engine = build(graph, p["f"], witness.faulty, factory(1), rounds)
            matrix = random_input_matrix(engine.nodes, 1, rng=p["seed"])
            finals.append(engine.run_batch(matrix).final_states)
        if not np.array_equal(*finals):
            refuse(f"native strategy {label!r} is not bit-exact with its adapter")


def adversary_paths(p: Params) -> Timed:
    """Time every native strategy and its adapter on the same batch."""
    graph, witness = split_brain_barbell(p["n"], p["f"])
    batch, rounds = p["batch"], p["rounds"]
    results: Payload = {}
    for label, *factories in strategy_pairs(witness, p["seed"]):
        entry = results[label] = {}
        for mode, factory in zip(("native", "adapter"), factories):
            engine = build(graph, p["f"], witness.faulty, factory(batch), rounds)
            matrix = random_input_matrix(engine.nodes, batch, rng=p["seed"])
            seconds = clock(stepper(engine.step_matrix, [matrix], rounds))
            entry[f"{mode}_seconds"] = seconds
            entry[f"{mode}_run_rounds_per_sec"] = rate(batch * rounds, seconds)
    speedups = {
        f"{label}_native_vs_adapter": ratio(
            entry["adapter_seconds"], entry["native_seconds"]
        )
        for label, entry in results.items()
    }
    scenario = {
        "graph": f"split_brain_barbell(n={p['n']}, f={p['f']})",
        "n": p["n"],
        "f": p["f"],
        "witness": witness.describe(),
        "batch": batch,
        "rounds": rounds,
        "seed": p["seed"],
    }
    return scenario, results, speedups


# -- scale and dynamic: heterogeneous ring lattices --------------------------
def ring_point(n: int, p: Params) -> tuple[Digraph, frozenset]:
    """One ``heterogeneous_ring_lattice`` point and its fault set."""
    rng = np.random.default_rng(p["seed"])
    graph = heterogeneous_ring_lattice(n, p["f"], rng=rng)
    return graph, random_fault_set(graph, p["f"], rng=rng)


def ring_guard(p: Params, schedule: str | None = None) -> None:
    """Cross-check the engines on a 60-node lattice of the same family."""
    small = heterogeneous_ring_lattice(60, 2, rng=p["seed"])
    pair: Params = {"rounds": 25}
    if schedule is not None:
        pair["schedule"] = make_dynamic_schedule(schedule, small, seed=p["seed"])
    engine_guard(small, 2, p["seed"], **pair)


def ring_block(p: Params, **extra: Any) -> Params:
    """The scenario block of the scale and dynamic files."""
    return {
        "graph": "heterogeneous_ring_lattice(n, f=2, extra_mean=2.0)",
        "sizes": list(p["sizes"]),
        **{key: p[key] for key in ("f", "batch", "rounds")},
        "adversary": "batch-extreme-push(delta=1.0)",
        **extra,
        "seed": p["seed"],
    }


def throughput(n: int, p: Params, engine: Any, matrix: np.ndarray) -> Payload:
    """Time ``engine`` over ``matrix``: seconds and node-rounds per second."""
    seconds = clock(stepper(engine.step_matrix, [matrix], p["rounds"]))
    work = n * p["batch"] * p["rounds"]
    return {"seconds": seconds, "node_rounds_per_sec": rate(work, seconds)}


def scale_paths(p: Params) -> Timed:
    """Time the float64 and float32 engines across the size grid."""
    results: Payload = {}
    for n in p["sizes"]:
        graph, faulty = ring_point(n, p)
        point = results[f"n={n}"] = {"n": n, "edges": graph.number_of_edges}
        for name, dtype in (("f64", np.float64), ("f32", np.float32)):
            push = BatchExtremePushStrategy(1.0)
            engine = build(graph, p["f"], faulty, push, p["rounds"], dtype=dtype)
            if name == "f64":
                point["nnz"] = engine.nnz
                point["plane_mb_per_row"] = engine.plane_bytes_per_row / 1e6
            matrix = random_input_matrix(engine.nodes, p["batch"], rng=p["seed"])
            point[name] = throughput(n, p, engine, matrix.astype(dtype))
    return ring_block(p), results, {}


#: Timed schedule kinds, mapped to their ``make_dynamic_schedule`` names.
SCHEDULE_KINDS = {
    "static": "static",
    "random-edges": "random-edges",
    "random-churn": "churn",
    "composed": "composed",
}


def dynamic_paths(p: Params) -> Timed:
    """Time each schedule kind, and the adaptive adversary, per size."""
    results: Payload = {}
    for n in p["sizes"]:
        graph, faulty = ring_point(n, p)
        matrix = random_input_matrix(graph.nodes, p["batch"], rng=p["seed"])

        def timed(kind: str, adversary: Any) -> Payload:
            schedule = make_dynamic_schedule(
                SCHEDULE_KINDS[kind], graph, seed=p["seed"]
            )
            engine = build(
                graph, p["f"], faulty, adversary, p["rounds"], schedule=schedule
            )
            return throughput(n, p, engine, matrix)

        point = results[f"n={n}"] = {"n": n, "edges": graph.number_of_edges}
        for kind in SCHEDULE_KINDS:
            point[kind] = timed(kind, BatchExtremePushStrategy(1.0))
            if kind != "static":
                point[kind]["overhead_vs_static"] = ratio(
                    point[kind]["seconds"], point["static"]["seconds"]
                )
        # The 1-lookahead adversary replays one trimmed round per probe; its
        # cost over the closed-form push is the price of adaptivity.
        adaptive = timed("composed", BatchAdaptiveStrategy(mode="lookahead", delta=1.0))
        adaptive["cost_vs_extreme_push"] = ratio(
            adaptive["seconds"], point["composed"]["seconds"]
        )
        point["adaptive_lookahead"] = adaptive
    largest = results[f"n={p['sizes'][-1]}"]
    speedups = {
        "masking_overhead_composed_at_largest_n": (
            largest["composed"]["overhead_vs_static"]
        ),
        "adaptive_lookahead_cost_vs_extreme_push_at_largest_n": (
            largest["adaptive_lookahead"]["cost_vs_extreme_push"]
        ),
        "largest_n": float(largest["n"]),
    }
    block = ring_block(p, schedules=list(SCHEDULE_KINDS), p_up=0.8, p_awake=0.85)
    return block, results, speedups


# -- verdict: the layered feasibility stack ----------------------------------
def parity_cases() -> list[tuple[str, Digraph, int]]:
    """Small cases, within the exhaustive cap, for the parity guard."""
    cases = [
        ("hypercube d=3 f=1", hypercube(3), 1),
        ("ring n=6 f=1", undirected_ring(6), 1),
        ("chord n=7 f=2", chord_network(7, 2), 2),
        ("chord n=11 f=2", chord_network(11, 2), 2),
        ("complete n=7 f=2", complete_graph(7), 2),
        ("core n=10 f=3", core_network(10, 3), 3),
    ]
    return cases + [
        (f"erdos-renyi n=9 #{seed}", erdos_renyi_digraph(9, 0.35, rng=seed), 1)
        for seed in range(6)
    ]


def battery(p: Params) -> list[tuple[str, Digraph, int]]:
    """The ``feasibility_at_scale`` cases at the scenario's sizes, built."""
    return [
        (label, make(), f)
        for label, make, f in feasibility_scale_cases()
        if any(f"n={n} " in label for n in p["sizes"])
    ]


def battery_verdict(graph: Digraph, f: int, p: Params) -> Any:
    """The verdict the battery times, at the scenario's witness budget."""
    return feasibility_verdict(
        graph, f, witness_attempts=p["witness_attempts"], rng=23
    )


def dpll_case(p: Params) -> tuple[Digraph, Any]:
    """The graph ``repro-paper`` decides with the DPLL layer, and its verdict.

    The exhaustive layer is switched off so that the smoke size reaches the
    exact layer too; at ``n = 30`` it is past that layer's cap anyway.
    """
    graph = erdos_renyi_digraph(p["dpll_n"], 0.4, rng=0)
    return graph, feasibility_verdict(graph, 1, max_exhaustive_nodes=0)


def verdict_guard(p: Params) -> None:
    """Parity with the exact checker, then every certificate and the headline.

    On the parity cases the stack must agree with the bitset checker, the
    DPLL backend with both, the compiled solver's whole result with the
    Python solver's, and every witness must re-verify.  Every
    battery verdict must carry a certificate that re-checks from scratch,
    the DPLL case must be decided by an ``exact`` certificate that re-checks,
    and both headline paths must call the core network feasible.
    """
    for label, graph, f in parity_cases():
        witness = find_violating_partition(graph, f)
        infeasible = witness is not None
        verdict = feasibility_verdict(graph, f)
        if verdict.status == UNKNOWN or (verdict.status == "INFEASIBLE") != infeasible:
            refuse(f"the verdict stack diverged from the exact checker on {label}")
        if not verify_certificate(graph, f, verdict):
            refuse(f"the verdict certificate failed re-verification on {label}")
        dpll = exact_violation_search(graph, f, backend="dpll")
        if (dpll.status == "violation") != infeasible:
            refuse(f"the DPLL backend diverged from the exact checker on {label}")
        with search_path("python"):
            if exact_violation_search(graph, f, backend="dpll") != dpll:
                refuse(f"the compiled solver diverged from the Python one on {label}")
        for found in (witness, dpll.witness):
            if found is not None and not verify_witness(graph, f, found):
                refuse(f"a witness failed re-verification on {label}")
    for label, graph, f in battery(p):
        if not verify_certificate(graph, f, battery_verdict(graph, f, p)):
            refuse(f"the certificate failed re-verification on {label}")
    graph, verdict = dpll_case(p)
    label = f"erdos-renyi n={p['dpll_n']} p=0.4"
    with search_path("python"):
        python = exact_violation_search(graph, 1, backend="dpll")
    if exact_violation_search(graph, 1, backend="dpll") != python:
        refuse(f"the compiled solver diverged from the Python one on {label}")
    if getattr(verdict.certificate, "kind", None) != "exact":
        refuse(f"the DPLL layer did not decide {label}: {verdict.describe()}")
    if not verify_certificate(graph, 1, verdict):
        refuse(f"the exact certificate failed re-verification on {label}")
    core = core_network(p["headline_n"], 2)
    exhaustive = check_feasibility(core, 2, use_structural_shortcuts=False)
    if not exhaustive.satisfied or feasibility_verdict(core, 2).status != "FEASIBLE":
        refuse(f"headline case disagreement on core_network({p['headline_n']}, 2)")


def verdict_paths(p: Params) -> Timed:
    """Time the stack per battery case, then the screen against exhaustive."""
    cases = battery(p)
    results: Payload = {}
    for label, graph, f in cases:
        verdicts: list[Any] = []
        total = clock(lambda: verdicts.append(battery_verdict(graph, f, p)))
        # The last REPEATS verdicts come from the timed calls.
        verdict = verdicts[-1]
        timed = [t for v in verdicts[-REPEATS:] for t in v.timings]
        layers = {
            layer: spread([t.seconds for t in timed if t.layer == layer])
            for layer in (t.layer for t in verdict.timings)
        }
        results[f"verdict_{label}"] = {
            "n": graph.number_of_nodes,
            "f": f,
            "status": verdict.status,
            "decided_by": verdict.decided_by,
            "certificate": getattr(verdict.certificate, "kind", None),
            "certificate_verified": True,
            "total_seconds": total,
            "layer_seconds": layers,
        }
    decided = sum(entry["status"] != UNKNOWN for entry in results.values())
    graph, verdict = dpll_case(p)
    search = exact_violation_search(graph, 1, backend="dpll")

    def dpll_search(path: str) -> Callable[[], object]:
        def call() -> object:
            with search_path(path):
                return exact_violation_search(graph, 1, backend="dpll")

        return call

    solvers = {path: clock(dpll_search(path)) for path in ("python", "compiled")}
    results["dpll"] = {
        "n": graph.number_of_nodes,
        "f": 1,
        "status": search.status,
        "decisions": search.decisions,
        "fault_sets_examined": search.fault_sets_examined,
        "python_search_seconds": solvers["python"],
        "compiled_search_seconds": solvers["compiled"],
        "recheck_seconds": clock(lambda: verify_certificate(graph, 1, verdict)),
    }
    results["parity_guard"] = {"cases": len(parity_cases()), "all_agree": True}
    results["coverage"] = {
        "battery_cases": len(cases),
        "decided": decided,
        "decided_fraction": decided / len(cases),
    }
    core = core_network(p["headline_n"], 2)
    exhaustive = clock(
        lambda: check_feasibility(core, 2, use_structural_shortcuts=False)
    )
    screens = clock(lambda: feasibility_verdict(core, 2))
    results["headline"] = {
        "exhaustive_seconds": exhaustive,
        "verdict_seconds": screens,
        "decided_by": feasibility_verdict(core, 2).decided_by,
        "speedup": ratio(exhaustive, screens),
    }
    scenario = {
        "battery": [label for label, _, _ in cases],
        "witness_attempts": p["witness_attempts"],
        "parity_cases": len(parity_cases()),
        "headline": f"core_network(n={p['headline_n']}, f=2) screens vs exhaustive",
        "dpll": (
            f"exact_violation_search on the Python and the compiled solver, "
            f"and the exact certificate's re-check, on "
            f"erdos_renyi_digraph({p['dpll_n']}, 0.4, rng=0), f=1"
        ),
        "search": search_in_use(),
    }
    speedups = {
        "core_screens_vs_exhaustive": results["headline"]["speedup"],
        "dpll_compiled_vs_python": ratio(solvers["python"], solvers["compiled"]),
        "decided_fraction": decided / len(cases),
    }
    return scenario, results, speedups


# -- the scenario table ------------------------------------------------------
class Scenario(NamedTuple):
    """One table entry: its guard, the paths it times and its parameters."""

    benchmark: str
    guard: Callable[[Params], None]
    paths: Callable[[Params], Timed]
    full: Params
    smoke: Params


def async_guard(p: Params) -> None:
    """Cross-check the partially asynchronous engines under the model."""
    engine_guard(
        core_network(10, 2),
        2,
        p["seed"],
        config=SimulationConfig(max_rounds=30, stop_on_convergence=False),
        max_delay=p["max_delay"],
        update_probability=p["update_probability"],
        seed=p["seed"],
    )


SCENARIOS: dict[str, Scenario] = {
    "engine": Scenario(
        "engine-sync",
        lambda p: engine_guard(core_network(10, 2), 2, p["seed"], rounds=30),
        engine_paths,
        full=dict(n=200, f=3, batch=64, rounds=25, scalar_runs=4, seed=17),
        smoke=dict(n=20, f=3, batch=4, rounds=3, scalar_runs=1, seed=17),
    ),
    "async": Scenario(
        "engine-async",
        async_guard,
        async_paths,
        full=dict(
            n=200, f=3, batch=64, rounds=25, max_delay=2, update_probability=0.9,
            scalar_runs=2, seed=17,
        ),
        smoke=dict(
            n=20, f=3, batch=4, rounds=3, max_delay=2, update_probability=0.9,
            scalar_runs=1, seed=17,
        ),
    ),
    "checker": Scenario(
        "checker-exact",
        checker_guard,
        checker_paths,
        full=dict(n=16, hypercube_dimension=4, robustness_n=11),
        smoke=dict(n=8, hypercube_dimension=3, robustness_n=7),
    ),
    "adversary": Scenario(
        "adversary-batch",
        adversary_guard,
        adversary_paths,
        full=dict(n=40, f=4, batch=64, rounds=25, seed=17),
        smoke=dict(n=12, f=1, batch=4, rounds=5, seed=17),
    ),
    "scale": Scenario(
        "engine-scale",
        ring_guard,
        scale_paths,
        full=dict(
            sizes=(200, 1_000, 10_000, 100_000), f=2, batch=16, rounds=10, seed=23
        ),
        smoke=dict(sizes=(200, 1_000), f=2, batch=4, rounds=10, seed=23),
    ),
    "verdict": Scenario(
        "verdict-stack",
        verdict_guard,
        verdict_paths,
        full=dict(
            sizes=(100, 300, 1_000), witness_attempts=60, headline_n=20, dpll_n=30
        ),
        smoke=dict(sizes=(100,), witness_attempts=20, headline_n=10, dpll_n=16),
    ),
    "dynamic": Scenario(
        "engine-dynamic",
        lambda p: ring_guard(p, "composed"),
        dynamic_paths,
        full=dict(sizes=(200, 2_000, 20_000), f=2, batch=16, rounds=10, seed=23),
        smoke=dict(sizes=(200, 1_000), f=2, batch=4, rounds=10, seed=23),
    ),
}


def run(name: str, smoke: bool = False) -> Payload:
    """Guard, then time one scenario; return its schema-v3 payload."""
    scenario = SCENARIOS[name]
    params = scenario.smoke if smoke else scenario.full
    scenario.guard(params)
    block, results, speedups = scenario.paths(params)
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": scenario.benchmark,
        "scenario": block,
        "repeats": REPEATS,
        "equivalence_checked": True,
        "results": results,
        "speedups": speedups,
        "provenance": machine_provenance(),
    }


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: run the named scenarios, or all of them."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help=f"any of {', '.join(SCENARIOS)} (default: all)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smoke parameters; guards and paths run, no file is written",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.scenarios if name not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenario(s): {', '.join(unknown)}")
    for name in args.scenarios or SCENARIOS:
        payload = run(name, smoke=args.smoke)
        if args.smoke:
            print(f"{name}: guards passed, paths timed (smoke, nothing written)")
            continue
        out = OUT_DIR / f"BENCH_{name}.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"{name}: wrote {out.name}, speedups {json.dumps(payload['speedups'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
