"""Tests for the adversary-showdown cell and the batch-rewired cells."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.ablation import ablation_cell
from repro.experiments.necessity import demonstrate_necessity
from repro.experiments.robustness import default_robustness_cases, robustness_cell
from repro.experiments.showdown import (
    SHOWDOWN_STRATEGIES,
    adversary_showdown_cell,
    make_showdown_strategy,
)
from repro.graphs.generators import chord_network
from repro.sweeps.registry import get_experiment


class TestShowdown:
    def test_split_brain_stalls_violating_graph(self):
        rows = adversary_showdown_cell(
            "chord n=7 f=2", "split-brain", batch=4, rounds=60
        )
        (row,) = rows
        assert row["applicable"] is True
        assert row["condition_holds"] is False
        assert row["stalled_fraction"] == 1.0
        assert row["fraction_converged"] == 0.0
        assert row["all_validity_ok"] is True

    def test_feasible_graph_survives_generic_strategies(self):
        rows = [
            row
            for strategy in SHOWDOWN_STRATEGIES
            if strategy != "split-brain"
            for row in adversary_showdown_cell(
                "core n=7 f=2", strategy, batch=4, rounds=150
            )
        ]
        assert len(rows) == 5
        for row in rows:
            assert row["fraction_converged"] == 1.0, row["strategy"]
            assert row["all_validity_ok"] is True, row["strategy"]

    def test_split_brain_not_applicable_on_feasible_graph(self):
        (row,) = adversary_showdown_cell(
            "core n=7 f=2", "split-brain", batch=2, rounds=10
        )
        assert row["applicable"] is False
        assert row["fraction_converged"] is None

    def test_registered_cell_runs(self):
        spec = get_experiment("adversary_showdown")
        assert spec.engine == "vectorized"
        assert set(spec.grid["strategy"]) == set(SHOWDOWN_STRATEGIES)
        rows = adversary_showdown_cell(
            case="chord n=7 f=2", strategy="split-brain", batch=2, rounds=30
        )
        assert rows and rows[0]["stalled_fraction"] == 1.0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown showdown strategy"):
            make_showdown_strategy("nope")
        with pytest.raises(InvalidParameterError, match="witness"):
            make_showdown_strategy("split-brain")


class TestRewiredDrivers:
    def test_necessity_runs_on_vectorized_engine(self):
        demo = demonstrate_necessity(chord_network(7, 2), 2, rounds=30)
        assert demo.stalled
        assert not demo.outcome.converged
        assert demo.outcome.validity_ok
        assert demo.left_stuck and demo.right_stuck

    def test_ablation_reports_engine_per_rule(self):
        rows = ablation_cell("complete n=7 f=2", rounds=40)
        engines = {row["rule"]: row["engine"] for row in rows}
        assert engines["trimmed-mean (Algorithm 1)"] == "vectorized"
        assert engines["trimmed-midpoint"] == "vectorized"
        assert engines["linear-average"] == "scalar"
        assert engines["W-MSR"] == "scalar"
        # The qualitative paper shape survives the rewiring.
        for row in rows:
            if row["rule"] in ("trimmed-mean (Algorithm 1)", "W-MSR"):
                assert row["validity_ok"], row

    def test_robustness_dynamic_columns_match_verdicts(self):
        rows = [
            row
            for label, _, _ in default_robustness_cases()
            for row in robustness_cell(label, batch=4)
        ]
        for row in rows:
            if row["theorem1_holds"]:
                assert row["sim_adversary"] == "batch-extreme-push"
                assert row["sim_fraction_converged"] == 1.0
                assert row["sim_all_validity_ok"] is True
            else:
                assert row["sim_adversary"] == "batch-split-brain"
                assert row["sim_stalled_fraction"] == 1.0
