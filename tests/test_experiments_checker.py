"""Tests for the checker-agreement experiment (``repro.experiments.checker``)."""

from __future__ import annotations

from repro.conditions.necessary import check_feasibility
from repro.experiments.checker import checker_cell, checker_test_battery


def agreement_rows(labels, random_attempts):
    """The checker-agreement rows of the battery cases named by ``labels``."""
    return [
        row
        for label in labels
        for row in checker_cell(label, random_attempts=random_attempts)
    ]


class TestBattery:
    def test_labels_are_unique_and_graphs_valid(self):
        battery = checker_test_battery()
        labels = [label for label, _, _ in battery]
        assert len(labels) == len(set(labels))
        for label, graph, f in battery:
            assert graph.number_of_nodes >= 3, label
            assert f >= 1, label

    def test_battery_is_deterministic_per_seed(self):
        first = checker_test_battery(seed=17)
        second = checker_test_battery(seed=17)
        for (label_a, graph_a, _), (label_b, graph_b, _) in zip(first, second):
            assert label_a == label_b
            assert graph_a.nodes == graph_b.nodes
            assert set(graph_a.edges) == set(graph_b.edges)

    def test_battery_covers_both_verdicts(self):
        battery = checker_test_battery()
        verdicts = {check_feasibility(g, f).satisfied for _, g, f in battery}
        assert verdicts == {True, False}


class TestAgreementStudy:
    def test_every_method_consistent_with_exact_checker(self):
        # A feasible and an infeasible instance, plus a heuristic-friendly one.
        rows = agreement_rows(
            ["complete n=4 f=1", "chord n=7 f=2", "ring n=6 f=1"],
            random_attempts=50,
        )
        assert len(rows) == 3
        assert all(row["consistent"] for row in rows)
        by_case = {row["case"]: row for row in rows}
        assert by_case["complete n=4 f=1"]["exact_condition_holds"] is True
        assert by_case["chord n=7 f=2"]["exact_condition_holds"] is False
        # The in-degree screen catches the ring immediately.
        assert by_case["ring n=6 f=1"]["screens_pass"] is False

    def test_heuristic_witness_only_on_infeasible_graphs(self):
        rows = agreement_rows(
            ["complete n=6 f=1", "hypercube d=3 f=1"], random_attempts=50
        )
        by_case = {row["case"]: row for row in rows}
        feasible = by_case["complete n=6 f=1"]
        assert feasible["greedy_found_witness"] is False
        assert feasible["random_found_witness"] is False
        assert by_case["hypercube d=3 f=1"]["exact_condition_holds"] is False


class TestFeasibilityAtScale:
    def test_battery_labels_are_unique_and_span_sizes(self):
        from repro.experiments import DEFAULT_SCALE_SIZES, feasibility_scale_cases

        labels = [label for label, _, _ in feasibility_scale_cases()]
        assert len(labels) == len(set(labels))
        for n in DEFAULT_SCALE_SIZES:
            assert any(f"n={n}" in label for label in labels)

    def test_cell_decides_core_like_with_valid_certificate(self):
        from repro.experiments import feasibility_scale_cell

        rows = feasibility_scale_cell("core-like n=100 f=3")
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == "FEASIBLE"
        assert row["decided_by"] == "screens"
        assert row["certificate"] == "core-structure"
        assert row["certificate_ok"] is True

    def test_cell_builds_only_its_own_graph(self, monkeypatch):
        import repro.experiments.feasibility_scale as module

        built = []
        for name in (
            "heterogeneous_ring_lattice",
            "erdos_renyi_digraph",
            "random_core_like_network",
        ):
            original = getattr(module, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                built.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        cases = module.feasibility_scale_cases()
        assert len(cases) == 12
        assert built == []  # listing the cases builds nothing
        rows = module.feasibility_scale_cell("core-like n=100 f=3")
        assert [row["case"] for row in rows] == ["core-like n=100 f=3"]
        assert built == ["random_core_like_network"]

    def test_grid_lists_the_case_labels(self):
        from repro.experiments import feasibility_scale_cases
        from repro.sweeps.registry import get_experiment

        labels = tuple(label for label, _, _ in feasibility_scale_cases())
        assert get_experiment("feasibility_at_scale").grid["case"] == labels

    def test_a_case_built_alone_matches_the_battery(self):
        from repro.experiments import feasibility_scale_cases

        battery = {
            label: (build(), f) for label, build, f in feasibility_scale_cases()
        }
        # Build in reverse so no case can lean on generator state an earlier
        # case left behind.
        for label, build, f in reversed(feasibility_scale_cases()):
            graph = build()
            assert battery[label] == (graph, f), label

    def test_cells_decide_majority_of_small_cases(self):
        from repro.experiments import feasibility_scale_cases, feasibility_scale_cell

        rows = [
            row
            for label, _, _ in feasibility_scale_cases()
            if "n=100" in label
            for row in feasibility_scale_cell(label)
        ]
        assert all(row["certificate_ok"] for row in rows)
        decided = [row for row in rows if row["decided"]]
        assert len(decided) * 2 >= len(rows)
