"""Brute-force circuit oracle: hand-computed single-arm cases, pattern
bookkeeping, and equivalence with the closed-form diagonal operator."""

import itertools
import math

import numpy as np
import pytest

from nlasim import (
    MultiModeState,
    fidelity,
    nla_apply,
    nla_operator,
    norm_sq,
    number_state,
    physical_circuit,
    scissor_outcome,
    tensor,
    vacuum,
)
from nlasim.nla import _single_pattern_circuit, _split_input
from nlasim.verification import oracle_equivalence_report, random_support_state


class TestSingleArm:
    def test_vacuum_probability_splits_evenly(self):
        eta = 0.3
        out, herald = physical_circuit(vacuum(1), 1, eta)
        assert herald.success_probability == pytest.approx(eta, rel=1e-12)
        for signs in [(+1,), (-1,)]:
            _, prob = _single_pattern_circuit(_split_input(vacuum(1), 1), 1, eta, signs)
            assert prob == pytest.approx(eta / 2.0, rel=1e-12)

    def test_plus_state_hand_computation(self):
        eta = 0.3
        amps = np.array([1.0, 1.0]) / math.sqrt(2.0)
        state = MultiModeState((2,), amps, normalized=True)
        out, herald = physical_circuit(state, 1, eta)
        assert herald.success_probability == pytest.approx(0.5, rel=1e-12)
        want = np.array([math.sqrt(eta), math.sqrt(1.0 - eta)])
        want = MultiModeState((2,), want / np.linalg.norm(want))
        assert fidelity(out, want) > 1 - 1e-12

    def test_matches_analytic_kraus_per_pattern(self, rng):
        # single stage output = analytic Kraus / sqrt(2) for either pattern
        eta = 0.4
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = MultiModeState((4,), amps / np.linalg.norm(amps), normalized=True)
        for sign in (+1, -1):
            raw, prob = _single_pattern_circuit(_split_input(state, 1), 4, eta, (sign,))
            kraus_out = scissor_outcome(eta, sign, 4).kraus.apply(state)
            corrected = kraus_out.amplitudes.copy()
            if sign == -1:
                corrected[1] *= -1.0  # pi feed-forward
            assert np.max(np.abs(raw[:2] - corrected)) < 1e-12
            assert prob == pytest.approx(float(np.vdot(raw, raw).real), rel=1e-12)


class TestPatternBookkeeping:
    def test_all_patterns_contribute_equally(self, rng):
        state = random_support_state(rng, 4, 3)
        probs = []
        states = []
        for signs in itertools.product((+1, -1), repeat=2):
            out, prob = _single_pattern_circuit(_split_input(state, 2), 4, 0.3, signs)
            probs.append(prob)
            states.append(out)
        assert max(probs) - min(probs) < 1e-14
        for other in states[1:]:
            assert np.max(np.abs(other - states[0])) < 1e-12

    def test_herald_counts_all_patterns(self):
        _, herald = physical_circuit(vacuum(1), 3, 0.3)
        assert herald.accepted_patterns == 8
        assert herald.success_probability == pytest.approx(0.3**3, rel=1e-12)

    def test_oracle_limit_enforced(self):
        with pytest.raises(ValueError):
            physical_circuit(vacuum(1), 5, 0.3)

    def test_multimode_input_rejected(self):
        with pytest.raises(ValueError):
            physical_circuit(tensor(vacuum(2), vacuum(2)), 1, 0.3)


class TestEquivalence:
    def test_input_beyond_arm_count_goes_dark(self):
        out, herald = physical_circuit(number_state(3, 4), 2, 0.3)
        assert herald.success_probability == 0.0
        assert norm_sq(out) == 0.0

    def test_output_amplitude_vanishes_above_arm_count(self, rng):
        state = random_support_state(rng, 4, 3)
        out, _ = physical_circuit(state, 2, 0.25)
        assert abs(out.amplitudes[3]) < 1e-14

    def test_three_arm_coherent_matches_closed_form(self):
        from nlasim import coherent_state

        state = coherent_state(0.3, 10)
        circuit_out, circuit_herald = physical_circuit(state, 3, 1.0 / 3.0)
        fast_out, fast_herald = nla_apply(state, nla_operator(3, 1.0 / 3.0, 10))
        assert fidelity(circuit_out, fast_out) > 1.0 - 1e-10
        assert circuit_herald.success_probability == pytest.approx(
            fast_herald.success_probability, rel=1e-9
        )

    def test_report_over_small_sweep(self):
        report = oracle_equivalence_report(
            arm_counts=(1, 2), etas=(1.0 / 3.0,), n_inputs=5, seed=11
        )
        assert report["passed"]
        assert report["max_infidelity"] <= 1e-10
        assert report["max_prob_rel_err"] <= 1e-9

    def test_four_arms_at_the_default_limit(self, rng):
        state = random_support_state(rng, 5, 4)
        circuit_out, circuit_herald = physical_circuit(state, 4, 0.25)
        fast_out, fast_herald = nla_apply(state, nla_operator(4, 0.25, 5))
        assert fidelity(circuit_out, fast_out) > 1.0 - 1e-10
        assert circuit_herald.success_probability == pytest.approx(
            fast_herald.success_probability, rel=1e-9
        )

    def test_skip_beyond_limit(self):
        report = oracle_equivalence_report(
            arm_counts=(1, 6), etas=(0.5,), n_inputs=2, seed=1
        )
        assert report["skipped"] and report["skipped"][0]["arms"] == 6
        assert report["passed"]
