"""Unit tests for the update rules (Algorithm 1, W-MSR and baselines)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    LinearAverageRule,
    MedianRule,
    TrimmedMeanRule,
    TrimmedMidpointRule,
    WMSRRule,
    sort_received,
)
from repro.exceptions import AlgorithmPreconditionError, InvalidParameterError
from repro.graphs import complete_graph, star_graph
from repro.types import ReceivedValue


def received(*values: float) -> list[ReceivedValue]:
    """Build a received vector with senders 0, 1, 2, …"""
    return [ReceivedValue(sender=index, value=value) for index, value in enumerate(values)]


class TestSortReceived:
    def test_sorts_by_value_then_sender(self):
        items = [
            ReceivedValue(sender="b", value=2.0),
            ReceivedValue(sender="a", value=2.0),
            ReceivedValue(sender="c", value=1.0),
        ]
        ordered = sort_received(items)
        assert [item.sender for item in ordered] == ["c", "a", "b"]


class TestTrimmedMean:
    def test_matches_equation_2_by_hand(self):
        # |N-| = 5, f = 1: drop lowest (0) and highest (100); average the
        # remaining {2, 4, 6} with own value 8 -> (2+4+6+8)/4 = 5.
        rule = TrimmedMeanRule(1)
        result = rule.compute("i", 8.0, received(0.0, 2.0, 4.0, 6.0, 100.0))
        assert result == pytest.approx(5.0)

    def test_f0_is_plain_average_with_self(self):
        rule = TrimmedMeanRule(0)
        assert rule.compute("i", 3.0, received(1.0, 5.0)) == pytest.approx(3.0)

    def test_exactly_2f_received_keeps_only_own_value(self):
        rule = TrimmedMeanRule(1)
        assert rule.compute("i", 7.0, received(0.0, 100.0)) == pytest.approx(7.0)

    def test_fewer_than_2f_received_raises(self):
        rule = TrimmedMeanRule(2)
        with pytest.raises(AlgorithmPreconditionError):
            rule.compute("i", 0.0, received(1.0, 2.0, 3.0))

    def test_surviving_values_identity(self):
        rule = TrimmedMeanRule(1)
        survivors = rule.surviving_values("i", received(9.0, 1.0, 5.0))
        assert [item.value for item in survivors] == [5.0]

    def test_ties_broken_deterministically(self):
        rule = TrimmedMeanRule(1)
        values = [
            ReceivedValue(sender="x", value=1.0),
            ReceivedValue(sender="y", value=1.0),
            ReceivedValue(sender="z", value=1.0),
        ]
        assert rule.compute("i", 1.0, values) == pytest.approx(1.0)

    def test_weight_floor_matches_formula(self):
        rule = TrimmedMeanRule(2)
        assert rule.weight_floor(7) == pytest.approx(1.0 / (7 + 1 - 4))

    def test_weight_floor_undefined_below_2f(self):
        rule = TrimmedMeanRule(2)
        with pytest.raises(AlgorithmPreconditionError):
            rule.weight_floor(3)

    def test_minimum_in_degree(self):
        assert TrimmedMeanRule(3).minimum_in_degree() == 6

    def test_alpha_on_complete_graph(self):
        # a_i = 1 / (n - 1 + 1 - 2f) = 1 / (n - 2f).
        graph = complete_graph(7)
        rule = TrimmedMeanRule(2)
        assert rule.alpha(graph) == pytest.approx(1.0 / 3.0)

    def test_validate_graph(self):
        rule = TrimmedMeanRule(1)
        rule.validate_graph(complete_graph(4))
        with pytest.raises(AlgorithmPreconditionError):
            rule.validate_graph(star_graph(5))

    def test_validate_graph_subset_of_nodes(self):
        rule = TrimmedMeanRule(1)
        # Only the hub of the star has sufficient in-degree.
        rule.validate_graph(star_graph(5), nodes=[0])

    def test_negative_f_rejected(self):
        with pytest.raises(InvalidParameterError):
            TrimmedMeanRule(-1)

    def test_output_within_received_hull(self):
        rule = TrimmedMeanRule(1)
        result = rule.compute("i", 0.5, received(-10.0, 0.0, 1.0, 10.0))
        assert 0.0 <= result <= 1.0


class TestTrimmedMidpoint:
    def test_midpoint_of_survivors(self):
        rule = TrimmedMidpointRule(1)
        # Survivors of [0, 2, 8, 100] are {2, 8}; own value 4 -> midpoint of
        # {2, 4, 8} is (2 + 8) / 2 = 5.
        assert rule.compute("i", 4.0, received(0.0, 2.0, 8.0, 100.0)) == pytest.approx(5.0)

    def test_too_few_values_raises(self):
        rule = TrimmedMidpointRule(2)
        with pytest.raises(AlgorithmPreconditionError):
            rule.compute("i", 0.0, received(1.0))

    def test_no_weight_floor(self):
        assert TrimmedMidpointRule(1).weight_floor(5) is None


class TestWMSR:
    def test_drops_only_values_beyond_own(self):
        rule = WMSRRule(1)
        # Own value 5; received [1, 4, 9]. Drop one value < 5 (the 1) and one
        # value > 5 (the 9): survivors {4}; average with own -> 4.5.
        assert rule.compute("i", 5.0, received(1.0, 4.0, 9.0)) == pytest.approx(4.5)

    def test_keeps_all_when_no_value_crosses_own(self):
        rule = WMSRRule(1)
        # All received equal own value: nothing is dropped.
        assert rule.compute("i", 2.0, received(2.0, 2.0)) == pytest.approx(2.0)

    def test_drops_at_most_f_per_side(self):
        rule = WMSRRule(1)
        # Received [0, 0, 10, 10] with own 5: drop one 0 and one 10;
        # survivors {0, 10}; average with own -> 5.
        assert rule.compute("i", 5.0, received(0.0, 0.0, 10.0, 10.0)) == pytest.approx(5.0)

    def test_fewer_than_f_on_a_side(self):
        rule = WMSRRule(2)
        # Only one value above own: drop just that one, plus the two smallest
        # below own.
        result = rule.compute("i", 5.0, received(1.0, 2.0, 3.0, 9.0))
        assert result == pytest.approx((3.0 + 5.0) / 2)

    def test_f0_keeps_everything(self):
        rule = WMSRRule(0)
        assert rule.compute("i", 0.0, received(1.0, 2.0)) == pytest.approx(1.0)


class TestBaselines:
    def test_linear_average(self):
        rule = LinearAverageRule(0)
        assert rule.compute("i", 0.0, received(3.0, 6.0)) == pytest.approx(3.0)

    def test_linear_average_weight_floor(self):
        assert LinearAverageRule(0).weight_floor(4) == pytest.approx(0.2)

    def test_linear_average_is_not_fault_tolerant(self):
        # A single huge value drags the state far outside the honest hull.
        rule = LinearAverageRule(1)
        assert rule.compute("i", 0.0, received(0.0, 1_000.0)) > 100.0

    def test_median_odd_count(self):
        rule = MedianRule(0)
        assert rule.compute("i", 5.0, received(1.0, 9.0, 3.0, 7.0)) == pytest.approx(5.0)

    def test_median_even_count(self):
        rule = MedianRule(0)
        assert rule.compute("i", 4.0, received(1.0, 2.0, 8.0)) == pytest.approx(3.0)

    def test_median_resists_single_outlier(self):
        rule = MedianRule(1)
        result = rule.compute("i", 1.0, received(0.9, 1.1, 1_000_000.0))
        assert result <= 1.1

    def test_repr_contains_f(self):
        assert "f=2" in repr(TrimmedMeanRule(2))


class TestSummationOrder:
    """Every mean rule sums left to right from the own value, ``np.cumsum``'s
    order, on every CPython (builtin ``sum`` compensates since 3.12)."""

    def test_trimmed_mean_cancels_in_order(self):
        # Left to right: 1 + -1e100 + 1 + 1e100 == 0; a compensated sum
        # gives 2 and a mean of 0.5.
        rule = TrimmedMeanRule(0)
        assert rule.compute(0, 1.0, received(1e100, 1.0, -1e100)) == 0.0

    @pytest.mark.parametrize(
        "rule,sorts",
        [(TrimmedMeanRule(0), True), (WMSRRule(0), True), (LinearAverageRule(0), False)],
        ids=["trimmed-mean", "wmsr", "linear"],
    )
    def test_matches_cumsum_on_random_draws(self, rule, sorts):
        rng = np.random.default_rng(12)
        for _ in range(500):
            values = rng.normal(scale=10.0 ** rng.integers(0, 12), size=8)
            own, others = float(values[0]), values[1:].tolist()
            ordered = [own] + (sorted(others) if sorts else others)
            expected = np.cumsum(ordered)[-1] / len(ordered)
            assert rule.compute(0, own, received(*others)) == expected
