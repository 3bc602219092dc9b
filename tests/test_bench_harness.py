"""The benchmark harness runs every scenario in smoke mode, writes nothing,
and refuses to time any scenario whose fast path has drifted."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.adversary.vectorized import BatchFrozenValueStrategy
from repro.conditions import necessary, search_kernel
from repro.simulation import vectorized, vectorized_async

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import harness  # noqa: E402


def _timings(node):
    """Every ``{"median", "q1", "q3"}`` timing nested in a payload."""
    if isinstance(node, dict):
        if {"median", "q1", "q3"} <= node.keys():
            yield node
        for value in node.values():
            yield from _timings(value)


def test_smoke_runs_every_scenario_and_writes_nothing(tmp_path, monkeypatch):
    payloads = {}
    run = harness.run

    def recording_run(name, smoke):
        payloads[name] = run(name, smoke=smoke)
        return payloads[name]

    monkeypatch.setattr(harness, "run", recording_run)
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    assert harness.main(["--smoke"]) == 0
    assert list(tmp_path.iterdir()) == []
    assert list(payloads) == list(harness.SCENARIOS)
    for payload in payloads.values():
        assert payload["schema_version"] == 3
        assert payload["repeats"] == harness.REPEATS
        timings = list(_timings(payload["results"]))
        assert timings
        for timing in timings:
            assert 0 < timing["q1"] <= timing["median"] <= timing["q3"]


def _trim_one_too_few(monkeypatch):
    original = vectorized.reduce_plane

    def trim(source, slots, state, out, layout, f, mode):
        original(source, slots, state, out, layout, f - 1, mode)

    monkeypatch.setattr(vectorized, "reduce_plane", trim)
    monkeypatch.setattr(vectorized_async, "reduce_plane", trim)


def _frozen_strategy_drifts(monkeypatch):
    # Frozen values lie inside the fault-free hull, so some survive the
    # trim and a shifted copy changes the trajectory.
    original = BatchFrozenValueStrategy.edge_values
    monkeypatch.setattr(
        BatchFrozenValueStrategy,
        "edge_values",
        lambda self, context: original(self, context) + 0.01,
    )


def _bitset_misses_hypercube_witness(monkeypatch):
    monkeypatch.setattr(
        necessary, "find_violating_partition_bitset", lambda *args, **kw: None
    )


def _certificates_fail(monkeypatch):
    monkeypatch.setattr(harness, "verify_certificate", lambda *args: False)


#: Scenario -> (mutant, what its refusal names).
MUTANTS = {
    "engine": (_trim_one_too_few, "not bit-exact with the scalar one"),
    "async": (_trim_one_too_few, "not bit-exact with the scalar one"),
    "checker": (_bitset_misses_hypercube_witness, "on exact_hypercube"),
    "adversary": (_frozen_strategy_drifts, "strategy 'frozen'"),
    "scale": (_trim_one_too_few, "not bit-exact with the scalar one"),
    "verdict": (_certificates_fail, "certificate failed"),
    "dynamic": (_trim_one_too_few, "'schedule'"),
}


def test_every_scenario_has_a_mutant():
    assert set(MUTANTS) == set(harness.SCENARIOS)


@pytest.mark.parametrize("name", list(MUTANTS))
def test_guard_refuses_its_mutant_and_passes_without_it(name, monkeypatch):
    scenario = harness.SCENARIOS[name]
    mutant, names = MUTANTS[name]
    mutant(monkeypatch)
    with pytest.raises(SystemExit, match="refusing to benchmark") as refused:
        harness.run(name, smoke=True)
    assert names in str(refused.value)
    monkeypatch.undo()
    scenario.guard(scenario.smoke)


class _DriftingSearch:
    """The compiled search with one drifted entry point: a sweep that never
    finds a witness, or a solver that counts one decision too many."""

    def __init__(self, compiled, drift):
        self._compiled = compiled
        self._drift = drift

    def sweep(self, in_masks, threshold):
        if self._drift == "sweep":
            return None
        return self._compiled.sweep(in_masks, threshold)

    def solve(self, out_nbrs, tau, budget):
        labels = self._compiled.solve(out_nbrs, tau, budget)
        if self._drift == "solve":
            budget["decisions"] += 1
        return labels


@pytest.mark.parametrize(
    "name, drift, names",
    [
        ("checker", "sweep", "the compiled checker diverged from the legacy one"),
        ("verdict", "solve", "the compiled solver diverged from the Python one"),
    ],
)
def test_guard_refuses_a_drifted_compiled_search(name, drift, names, monkeypatch):
    compiled = search_kernel.kernel()
    if compiled is None:
        pytest.skip(search_kernel.status())
    drifting = _DriftingSearch(compiled, drift)
    monkeypatch.setattr(search_kernel, "kernel", lambda: drifting)
    with pytest.raises(SystemExit, match="refusing to benchmark") as refused:
        harness.run(name, smoke=True)
    assert names in str(refused.value)
