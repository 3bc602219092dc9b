"""Unit tests for the exact constraint-solving backends."""

from __future__ import annotations

from importlib import util as importlib_util

import pytest

from repro.conditions import exact, find_violating_partition, verify_witness
from repro.conditions.exact import (
    DEFAULT_MAX_EXACT_BACKEND_NODES,
    EXACT_BACKENDS,
    ExactSearchResult,
    available_backends,
    exact_violation_search,
)
from repro.exceptions import GraphTooLargeError, InvalidParameterError
from repro.graphs import (
    Digraph,
    chord_network,
    complete_graph,
    core_network,
    erdos_renyi_digraph,
    hypercube,
    undirected_ring,
)

CANONICAL_CASES = [
    (hypercube(3), 1),
    (undirected_ring(6), 1),
    (chord_network(7, 2), 2),
    (complete_graph(7), 2),
    (core_network(7, 2), 2),
    (complete_graph(4), 1),
]


class TestBackendSelection:
    def test_dpll_always_available(self):
        names = available_backends()
        assert "dpll" in names
        assert names[-1] == "dpll"  # solver backends are preferred when present
        assert set(names) <= set(EXACT_BACKENDS)

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError):
            exact_violation_search(complete_graph(4), 1, backend="z3")

    @pytest.mark.parametrize("name", ["pysat", "pulp"])
    def test_missing_solver_backend_rejected(self, name):
        if importlib_util.find_spec(name) is not None:
            pytest.skip(f"{name} is installed; the rejection path is unreachable")
        with pytest.raises(InvalidParameterError):
            exact_violation_search(complete_graph(4), 1, backend=name)

    def test_auto_resolves_to_available_backend(self):
        result = exact_violation_search(hypercube(3), 1, backend="auto")
        assert result.backend in available_backends()


class TestDpllBackend:
    @pytest.mark.parametrize("graph, f", CANONICAL_CASES)
    def test_parity_with_exhaustive_checker(self, graph, f):
        exact = find_violating_partition(graph, f)
        result = exact_violation_search(graph, f, backend="dpll")
        assert result.status == ("violation" if exact is not None else "satisfied")
        if result.witness is not None:
            assert verify_witness(graph, f, result.witness)

    def test_parity_on_random_graphs(self):
        import random

        for seed in range(80):
            rng = random.Random(seed)
            n = rng.randint(2, 10)
            f = rng.randint(0, 2)
            p = rng.uniform(0.1, 0.7)
            graph = erdos_renyi_digraph(n, p, rng=seed)
            exact = find_violating_partition(graph, f)
            result = exact_violation_search(graph, f, backend="dpll")
            assert result.status != "unknown"
            assert result.status == (
                "violation" if exact is not None else "satisfied"
            ), f"disagreement at seed={seed}, n={n}, f={f}"
            if result.witness is not None:
                assert verify_witness(graph, f, result.witness)

    def test_canonical_fault_set_size_is_used(self):
        # The fault-set extension lemma lets the DPLL backend search only
        # |F| = min(f, n - 2); the returned witness must use that size even
        # when smaller fault sets also violate.
        result = exact_violation_search(hypercube(3), 1, backend="dpll")
        assert result.status == "violation"
        assert len(result.witness.faulty) == 1

    def test_budget_exhaustion_reports_unknown(self):
        result = exact_violation_search(
            complete_graph(10), 3, backend="dpll", decision_budget=25
        )
        assert result.status == "unknown"
        assert result.witness is None
        assert result.decisions > 25 - 1

    def test_threshold_override(self):
        # With a huge threshold every singleton is insulated, so even the
        # complete graph violates; with threshold 0 nothing is insulated.
        violated = exact_violation_search(
            complete_graph(5), 1, threshold=10, backend="dpll"
        )
        assert violated.status == "violation"
        assert verify_witness(complete_graph(5), 1, violated.witness, threshold=10)
        satisfied = exact_violation_search(
            hypercube(3), 1, threshold=0, backend="dpll"
        )
        assert satisfied.status == "satisfied"

    def test_degenerate_graphs_are_satisfied(self):
        assert exact_violation_search(Digraph(), 0).status == "satisfied"
        assert exact_violation_search(Digraph(nodes=[0]), 2).status == "satisfied"

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            exact_violation_search(complete_graph(4), -1)
        with pytest.raises(InvalidParameterError):
            exact_violation_search(complete_graph(4), 1, decision_budget=0)
        with pytest.raises(GraphTooLargeError):
            exact_violation_search(
                complete_graph(DEFAULT_MAX_EXACT_BACKEND_NODES + 1), 1
            )

    @pytest.mark.parametrize(
        "keyword, value",
        [
            ("threshold", 1.5),
            ("threshold", True),
            ("decision_budget", "abc"),
            ("decision_budget", None),
        ],
    )
    def test_non_integer_parameters_are_refused(self, keyword, value):
        # A float threshold must not reach the DPLL counters, which test for
        # crossing it with ==.
        with pytest.raises(InvalidParameterError, match=keyword):
            exact_violation_search(
                hypercube(3), 1, backend="dpll", **{keyword: value}
            )

    def test_result_records_search_statistics(self):
        result = exact_violation_search(core_network(7, 2), 2, backend="dpll")
        assert isinstance(result, ExactSearchResult)
        assert result.status == "satisfied"
        assert result.fault_sets_examined > 0
        assert result.decisions >= 0
        assert result.reason


class TestOptionalSolverBackends:
    """Parity tests for the SAT/MILP encodings; skipped without the solvers."""

    @pytest.mark.parametrize("name", ["pysat", "pulp"])
    @pytest.mark.parametrize("graph, f", CANONICAL_CASES)
    def test_parity_with_exhaustive_checker(self, name, graph, f):
        pytest.importorskip(name)
        exact = find_violating_partition(graph, f)
        result = exact_violation_search(graph, f, backend=name)
        assert result.backend == name
        assert result.status == ("violation" if exact is not None else "satisfied")
        if result.witness is not None:
            assert verify_witness(graph, f, result.witness)

    @pytest.mark.parametrize("name", ["pysat", "pulp"])
    def test_parity_on_random_graphs(self, name):
        import random

        pytest.importorskip(name)
        for seed in range(25):
            rng = random.Random(seed)
            n = rng.randint(2, 9)
            f = rng.randint(0, 2)
            graph = erdos_renyi_digraph(n, rng.uniform(0.15, 0.6), rng=seed)
            exact = find_violating_partition(graph, f)
            result = exact_violation_search(graph, f, backend=name)
            assert result.status == (
                "violation" if exact is not None else "satisfied"
            ), f"{name} disagreement at seed={seed}, n={n}, f={f}"
            if result.witness is not None:
                assert verify_witness(graph, f, result.witness)


class _ReseedingSolver(exact._UniverseSolver):
    """The oracle: a solver that seeds every ``(i, j)`` from an empty trail.

    It re-assigns the whole ``C`` prefix ``0 … i − 1``, ``i := L``, bars
    ``i + 1 … j − 1`` from ``R`` and assigns ``j := R`` for each pair, then
    undoes everything — the search the trail-keeping ``solve`` must repeat
    decision for decision.
    """

    def solve(self):
        if self.m < 2 or self.tau <= 0:
            return None
        for i in range(self.m - 1):
            for j in range(i + 1, self.m):
                trail = []
                ok = True
                for prefix in range(i):
                    if not self.assign(prefix, exact._LABEL_C, trail):
                        ok = False
                        break
                if ok:
                    ok = self.assign(i, exact._LABEL_L, trail)
                if ok:
                    queue = []
                    for middle in range(i + 1, j):
                        if not self._restrict(middle, 2, trail, queue):
                            ok = False
                            break
                    if ok:
                        for node, label in queue:
                            if not self.assign(node, label, trail):
                                ok = False
                                break
                if ok:
                    ok = self.assign(j, exact._LABEL_R, trail)
                if ok and self._dfs(trail):
                    return tuple(self.assigned)
                self._undo(trail, 0)
        return None


class TestSeedingKeepsTheSearch:
    """Keeping the seeding prefix on the trail leaves every search as it was."""

    def test_matches_the_reseeding_oracle(self, monkeypatch):
        import random

        # backend="dpll" explicitly: "auto" picks pysat where it is installed.
        # The fault-set count C(n, f) grows fast, so n shrinks as f grows.
        outcomes = []
        for seed in range(220):
            rng = random.Random(seed)
            f = rng.randint(0, 3)
            n = rng.randint(2, 20 - 3 * f)
            threshold = rng.choice([None, *range(6)])
            graph = erdos_renyi_digraph(n, rng.uniform(0.1, 0.9), rng=seed)
            for budget in (exact.DEFAULT_DECISION_BUDGET, 37):
                kept = exact_violation_search(
                    graph, f, threshold, backend="dpll", decision_budget=budget
                )
                with monkeypatch.context() as patched:
                    patched.setattr(exact, "_UniverseSolver", _ReseedingSolver)
                    oracle = exact_violation_search(
                        graph, f, threshold, backend="dpll", decision_budget=budget
                    )
                assert kept == oracle, (
                    f"search changed at seed={seed}, n={n}, f={f}, "
                    f"threshold={threshold}, budget={budget}"
                )
                outcomes.append(kept.status)
        # Every outcome, the budget-exhausted one included, is compared.
        assert {"violation", "satisfied", "unknown"} <= set(outcomes)
