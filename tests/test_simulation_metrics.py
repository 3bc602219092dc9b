"""Unit tests for metrics, the validity monitor and input generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.conditions import chord_n7_f2_witness
from repro.exceptions import InvalidParameterError, ValidityViolationError
from repro.simulation import (
    ValidityMonitor,
    bimodal_inputs,
    empirical_contraction_ratios,
    fault_free_extremes,
    has_converged,
    linear_ramp_inputs,
    split_inputs_from_witness,
    spread,
    uniform_random_inputs,
)
from repro.simulation.metrics import VALIDITY_TOLERANCE


class TestExtremesAndSpread:
    def test_fault_free_extremes_ignore_faulty(self):
        values = {0: 1.0, 1: 5.0, 2: -100.0}
        assert fault_free_extremes(values, frozenset({2})) == (1.0, 5.0)

    def test_all_faulty_rejected(self):
        with pytest.raises(InvalidParameterError):
            fault_free_extremes({0: 1.0}, frozenset({0}))

    def test_spread(self):
        assert spread({0: 1.0, 1: 4.0}, frozenset()) == pytest.approx(3.0)

    def test_has_converged(self):
        values = {0: 1.0, 1: 1.0 + 1e-8}
        assert has_converged(values, frozenset(), tolerance=1e-6)
        assert not has_converged(values, frozenset(), tolerance=1e-10)

    def test_has_converged_negative_tolerance(self):
        with pytest.raises(InvalidParameterError):
            has_converged({0: 1.0}, frozenset(), tolerance=-1.0)


def _interval_monitor(low, high, **kwargs):
    """A one-row monitor over two nodes that start at ``low`` and ``high``.

    Feeding ``[[µ, U]]`` each round replays the old ``(µ[t], U[t])``
    tracker inputs: the row's extremes are exactly that interval.
    """
    return ValidityMonitor([[low, high]], ("low", "high"), **kwargs)


class TestValidityMonitor:
    def test_monotone_shrinkage_is_valid(self):
        monitor = _interval_monitor(0.0, 1.0)
        monitor.observe([[0.1, 0.9]])
        monitor.observe([[0.2, 0.8]])
        assert monitor.ok.tolist() == [True]
        assert monitor.first_round == [None]

    def test_expansion_detected(self):
        monitor = _interval_monitor(0.0, 1.0)
        monitor.observe([[0.0, 1.5]])
        assert monitor.ok.tolist() == [False]
        assert monitor.first_round == [1]
        assert monitor.first_node == ["high"]

    def test_downward_expansion_detected(self):
        monitor = _interval_monitor(0.0, 1.0)
        monitor.observe([[-0.5, 1.0]])
        assert monitor.ok.tolist() == [False]
        assert monitor.first_node == ["low"]

    def test_tiny_numerical_noise_tolerated(self):
        monitor = _interval_monitor(0.0, 1.0)
        monitor.observe([[0.0, 1.0 + 1e-12]])
        assert monitor.ok.tolist() == [True]

    def test_slow_drift_regression(self):
        """Sub-slack expansion every round must not accumulate unnoticed.

        The pre-fix implementation compared each round only to the previous
        round with fresh slack, so a per-round expansion of ``slack/2``
        drifted the hull arbitrarily far without ever flagging a violation.
        """
        monitor = _interval_monitor(0.0, 1.0)
        step = VALIDITY_TOLERANCE / 2.0
        for round_index in range(1, 10):
            monitor.observe([[0.0, 1.0 + round_index * step]])
        assert monitor.ok.tolist() == [False]
        # Rounds 1 and 2 are within one total slack of the round-0 hull;
        # round 3 (1.0 + 1.5 * slack) is the first genuine escape.
        assert monitor.first_round == [3]

    def test_total_slack_bounded_once(self):
        monitor = _interval_monitor(0.0, 1.0)
        monitor.observe([[0.0, 1.0 + VALIDITY_TOLERANCE / 2.0]])
        monitor.observe([[0.0, 1.0 + VALIDITY_TOLERANCE / 2.0]])
        assert monitor.ok.tolist() == [True]

    def test_downward_drift_detected(self):
        monitor = _interval_monitor(0.0, 1.0)
        step = VALIDITY_TOLERANCE / 2.0
        for round_index in range(1, 10):
            monitor.observe([[-round_index * step, 1.0]])
        assert monitor.ok.tolist() == [False]
        assert monitor.first_round == [3]

    def test_recovery_does_not_reset_the_hull(self):
        """A round that re-tightens never forgives an earlier tightest bound."""
        monitor = _interval_monitor(0.0, 1.0)
        monitor.observe([[0.2, 0.5]])  # tightest hull is now [0.2, 0.5]
        monitor.observe([[0.1, 0.6]])  # outside the tightest hull -> violation
        assert monitor.ok.tolist() == [False]
        assert monitor.first_round == [2]

    @pytest.mark.parametrize("seed", range(5))
    def test_property_monotone_hull_always_passes(self, seed):
        """Any execution whose hull only tightens satisfies validity."""
        rng = np.random.default_rng(seed)
        low, high = 0.0, 1.0
        monitor = _interval_monitor(low, high)
        initial = _interval_monitor(low, high, initial_hull=True)
        for _ in range(40):
            low = low + rng.uniform(0.0, 0.4) * (high - low)
            high = high - rng.uniform(0.0, 0.4) * (high - low)
            monitor.observe([[low, high]])
            initial.observe([[low, high]])
        assert monitor.ok.tolist() == [True]
        assert monitor.first_round == [None]
        assert (monitor.low.tolist(), monitor.high.tolist()) == ([low], [high])
        assert (initial.low.tolist(), initial.high.tolist()) == ([0.0], [1.0])
        assert initial.ok.tolist() == [True]

    @pytest.mark.parametrize("seed", range(5))
    def test_property_single_expansion_flags_correct_round(self, seed):
        """One expansion beyond slack fails with the exact violating round."""
        rng = np.random.default_rng(100 + seed)
        violation_round = int(rng.integers(1, 30))
        low, high = 0.0, 1.0
        monitor = _interval_monitor(low, high)
        for round_index in range(1, 31):
            if round_index == violation_round:
                high = high + 10.0 * VALIDITY_TOLERANCE
            else:
                shrink = rng.uniform(0.0, 0.1) * (high - low)
                low, high = low + shrink, high - shrink
            monitor.observe([[low, high]])
        assert monitor.ok.tolist() == [False]
        assert monitor.first_round == [violation_round]

    def test_initial_hull_form_allows_reexpansion_inside_the_hull(self):
        """The asynchronous form checks round 0's hull, not the tightest one."""
        monitor = _interval_monitor(0.0, 1.0, initial_hull=True)
        monitor.observe([[0.2, 0.5]])
        monitor.observe([[0.1, 0.6]])
        assert monitor.ok.tolist() == [True]
        monitor.observe([[0.1, 1.0 + 10.0 * VALIDITY_TOLERANCE]])
        assert monitor.ok.tolist() == [False]
        assert monitor.first_round == [3]

    def test_rows_are_independent_and_frozen_rows_skipped(self):
        monitor = ValidityMonitor([[0.0, 1.0]] * 3, ("a", "b"))
        escaped = [[0.0, 1.0], [0.0, 2.0], [0.0, 2.0]]
        monitor.observe(escaped, active=np.array([True, True, False]))
        assert monitor.ok.tolist() == [True, False, True]
        assert monitor.first_round == [None, 1, None]
        assert monitor.first_node == [None, "b", None]

    def test_nan_counts_as_an_escape(self):
        monitor = _interval_monitor(0.0, 1.0)
        monitor.observe([[0.5, float("nan")]])
        assert monitor.ok.tolist() == [False]
        assert monitor.first_node == ["high"]

    def test_strict_violation_carries_its_coordinates(self):
        monitor = ValidityMonitor([[0.0, 1.0], [0.0, 1.0]], ("a", "b"), strict=True)
        monitor.observe([[0.0, 0.9], [0.1, 0.9]])
        with pytest.raises(ValidityViolationError, match="row 1") as caught:
            monitor.observe([[0.0, 0.9], [0.1, 0.95]])
        error = caught.value
        assert (error.row, error.round_index, error.node) == (1, 2, "b")
        assert (error.bound, error.observed) == (0.9, 0.95)


class TestContractionRatios:
    def test_ratios(self):
        ratios = empirical_contraction_ratios([4.0, 2.0, 1.0])
        assert ratios == [pytest.approx(0.5), pytest.approx(0.5)]

    def test_zero_previous_skipped(self):
        assert empirical_contraction_ratios([0.0, 0.0]) == []

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            empirical_contraction_ratios([1.0, -1.0])


class TestInputGenerators:
    def test_uniform_random_inputs_bounds_and_determinism(self):
        nodes = range(10)
        first = uniform_random_inputs(nodes, 2.0, 3.0, rng=4)
        second = uniform_random_inputs(nodes, 2.0, 3.0, rng=4)
        assert first == second
        assert all(2.0 <= value <= 3.0 for value in first.values())
        assert set(first) == set(range(10))

    def test_uniform_invalid_bounds(self):
        with pytest.raises(InvalidParameterError):
            uniform_random_inputs(range(3), 1.0, 0.0)

    def test_linear_ramp(self):
        inputs = linear_ramp_inputs(range(5), 0.0, 1.0)
        assert inputs[0] == 0.0
        assert inputs[4] == 1.0
        assert inputs[2] == pytest.approx(0.5)

    def test_linear_ramp_single_node(self):
        assert linear_ramp_inputs([7], 0.0, 2.0) == {7: 1.0}

    def test_linear_ramp_empty(self):
        assert linear_ramp_inputs([]) == {}

    def test_bimodal_inputs_two_clusters(self):
        inputs = bimodal_inputs(range(10), 0.0, 1.0, high_fraction=0.3, rng=1)
        values = set(inputs.values())
        assert values == {0.0, 1.0}
        assert sum(1 for value in inputs.values() if value == 1.0) == 3

    def test_bimodal_always_has_both_clusters(self):
        inputs = bimodal_inputs(range(5), 0.0, 1.0, high_fraction=0.0, rng=2)
        assert 1.0 in inputs.values() and 0.0 in inputs.values()

    def test_bimodal_invalid_fraction(self):
        with pytest.raises(InvalidParameterError):
            bimodal_inputs(range(4), 0.0, 1.0, high_fraction=1.5)

    def test_split_inputs_from_witness(self):
        witness = chord_n7_f2_witness()
        inputs = split_inputs_from_witness(witness, 0.0, 2.0)
        assert all(inputs[node] == 0.0 for node in witness.left)
        assert all(inputs[node] == 2.0 for node in witness.right)
        assert all(inputs[node] == 1.0 for node in witness.faulty)

    def test_split_inputs_invalid_range(self):
        with pytest.raises(InvalidParameterError):
            split_inputs_from_witness(chord_n7_f2_witness(), 1.0, 1.0)

    def test_accepts_generator_instance(self):
        rng = np.random.default_rng(0)
        inputs = uniform_random_inputs(range(4), rng=rng)
        assert len(inputs) == 4
