import math

import numpy as np
import pytest

from nlasim import (
    MultiModeState,
    NonconvergentError,
    TruncationWarning,
    coherent_state,
    epr_state,
    fidelity,
    gain_from_eta,
    misfire_terms,
    nla_apply,
    nla_apply_asymptotic,
    nla_operator,
    norm_sq,
    number_state,
)
from nlasim.experiments import amplify_table
from conftest import random_fock, tensor, vacuum


class TestOperatorCoefficients:
    def test_two_arm_low_transmissivity(self):
        coeffs = nla_operator(2, 0.05, 4)
        assert coeffs[0] == pytest.approx(0.05, abs=1e-15)
        assert coeffs[1] == pytest.approx(0.05 * math.sqrt(19.0), abs=1e-12)
        assert coeffs[2] == pytest.approx(0.475, abs=1e-12)
        assert coeffs[3] == 0.0

    def test_vacuum_coefficient_is_herald_amplitude(self):
        for arms, eta in [(1, 0.3), (4, 0.05), (9, 0.7)]:
            coeffs = nla_operator(arms, eta, 3)
            assert coeffs[0] == pytest.approx(eta ** (arms / 2.0), rel=1e-13)

    def test_single_arm_single_photon(self):
        coeffs = nla_operator(1, 1.0 / 3.0, 2)
        assert coeffs[1] == pytest.approx(math.sqrt(1.0 / 3.0) * math.sqrt(2.0))

    def test_truncation_above_arm_count(self):
        coeffs = nla_operator(3, 0.4, 10)
        assert np.all(coeffs[4:] == 0.0)
        assert np.all(coeffs[: 4] > 0.0)

    def test_closed_form_matches_direct_product(self):
        # N!/((N-n)! N^n) as an explicit running product
        arms, eta = 6, 0.21
        coeffs = nla_operator(arms, eta, arms + 1)
        g = gain_from_eta(eta)
        for n in range(arms + 1):
            fall = 1.0
            for j in range(n):
                fall *= (arms - j) / arms
            want = eta ** (arms / 2.0) * fall * g**n
            assert coeffs[n] == pytest.approx(want, rel=1e-12)


class TestApply:
    def test_vacuum_probability(self):
        for arms, eta in [(1, 0.3), (3, 0.05)]:
            out = nla_apply(vacuum(2), arms, eta)
            assert norm_sq(out) == pytest.approx(eta**arms, rel=1e-12)

    def test_coefficients_follow_the_mode_cutoff(self, rng):
        # the first mode is scaled by the operator built at its own cutoff
        state = tensor(random_fock(rng, 3), random_fock(rng, 6))
        out = nla_apply(state, 4, 0.3)
        coeffs = nla_operator(4, 0.3, 3).reshape(3, 1)
        assert np.array_equal(out.amplitudes, state.amplitudes * coeffs)

    def test_epr_arm_amplification_asymptotic(self):
        # ideal gain map on one arm: chi -> g * chi exactly
        cutoff = 30
        out = nla_apply_asymptotic(epr_state(0.3, cutoff), 2.0)
        assert fidelity(out, epr_state(0.6, cutoff)) == pytest.approx(1.0, abs=1e-12)

    def test_half_transmissivity_is_pure_truncation(self, rng):
        # g = 1: any qubit-subspace state passes up to a constant
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = MultiModeState((2,), amps / np.linalg.norm(amps))
        for arms in (1, 2, 5):
            out = nla_apply(state, arms, 0.5)
            ratio = out.amplitudes / state.amplitudes
            assert np.max(np.abs(ratio - ratio[0])) < 1e-12

    def test_asymptotic_identity_gain(self, rng):
        state = random_fock(rng, 4)
        out = nla_apply_asymptotic(state, 1.0)
        assert fidelity(out, state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gain", [0.0, -1.0, math.nan, math.inf, 1e200])
    def test_asymptotic_rejects_unusable_gain(self, gain):
        with pytest.raises(ValueError):
            nla_apply_asymptotic(number_state(1, 3), gain)

    def test_number_state_asymptotic_map(self):
        out = nla_apply_asymptotic(number_state(2, 6), 1.7)
        assert fidelity(out, number_state(2, 6)) == pytest.approx(1.0, abs=1e-12)


class TestNonconvergence:
    def test_boundary_raises(self):
        with pytest.raises(NonconvergentError):
            nla_apply_asymptotic(epr_state(0.5, 30), 2.0)

    def test_above_boundary_raises(self):
        with pytest.raises(NonconvergentError):
            nla_apply_asymptotic(epr_state(0.6, 28), 2.0)

    def test_below_boundary_passes(self):
        out = nla_apply_asymptotic(epr_state(0.3, 30), 2.0)
        assert norm_sq(out) == pytest.approx(1.0, abs=1e-12)


class TestSuccessProbability:
    def test_matches_exact_norm_for_large_arm_count(self):
        alpha, eta = 0.3, 1.0 / 3.0
        g = gain_from_eta(eta)
        # 20 * g**2 |alpha|**2 = 3.6, so any N >= 4 qualifies
        for arms in (4, 8, 20):
            cutoff = max(16, arms + 1)
            out = nla_apply(coherent_state(alpha, cutoff), arms, eta)
            # large-arm-count limit eta**N * exp(-(1 - g**2) |alpha|**2)
            approx = eta**arms * math.exp(-(1.0 - g**2) * abs(alpha) ** 2)
            assert abs(approx / norm_sq(out) - 1.0) < 0.05


class TestTargetGainPeak:
    def test_high_gain_peak_approaches_device_gain(self):
        # eta = 1/7 realizes g**2 = 6; for vanishing inputs the best-overlap
        # target gain sits there, and saturation pulls it down as the input grows
        eta, arms = 1.0 / 7.0, 5
        gains = np.linspace(1.0, 3.5, 251)

        def peak_gain_sq(alpha):
            cutoff = 16
            out = nla_apply(coherent_state(alpha, cutoff), arms, eta)
            fids = [
                fidelity(out, coherent_state(g * alpha, cutoff)) for g in gains
            ]
            return gains[int(np.argmax(fids))] ** 2

        small = peak_gain_sq(0.05)
        large = peak_gain_sq(0.25)
        assert 5.7 <= small <= 6.3
        assert large < small


class TestMisfire:
    def test_zero_inefficiency_recovers_pure_output(self):
        first, second = misfire_terms(0.3, 5, 1.0 / 3.0, 0.0, cutoff=8)
        out = nla_apply(coherent_state(0.3, 8), 5, 1.0 / 3.0)
        assert norm_sq(second) == 0.0
        assert norm_sq(first) == pytest.approx(norm_sq(out), rel=1e-12)
        assert fidelity(first, out) == pytest.approx(1.0, abs=1e-12)

    def test_terms_converge_with_arm_count(self):
        previous = 0.0
        for arms in (4, 8, 12, 16):
            first, second = misfire_terms(0.3, arms, 1.0 / 3.0, 0.01)
            overlap = fidelity(first, second)
            assert overlap > previous
            previous = overlap
        assert previous > 0.999

    def test_purity_trend_in_gamma(self):
        # mixing grows with gamma relative to eta / |alpha|**2; the table's
        # target coherent state is cut at the explicit cutoff
        values = []
        for gamma in (0.002, 0.01, 0.05):
            with pytest.warns(TruncationWarning):
                table = amplify_table(alpha=1.0, arms=3, eta=0.05, gamma=gamma, cutoff=6)
            values.append(table.rows[0]["purity"])
        assert values[0] > values[1] > values[2]
        assert values[0] > 0.99

    @pytest.mark.parametrize("alpha, eta", [(1e150, 1.0 / 3.0), (1.0, 1e-200)])
    def test_overflowing_powers_raise(self, alpha, eta):
        with pytest.raises(ValueError, match="no finite powers"):
            misfire_terms(alpha, 5, eta, 0.01, cutoff=6)

    def test_large_gamma_warns(self):
        with pytest.warns(UserWarning):
            misfire_terms(0.3, 2, 0.3, 0.2)

    def test_trace_is_first_order_acceptance(self):
        # the table mixes the two branches: its acceptance is their summed
        # squared norms, and its purity that of the two-column factor
        alpha, arms, eta, gamma = 0.4, 3, 0.25, 0.02
        with pytest.warns(TruncationWarning):
            table = amplify_table(alpha=alpha, arms=arms, eta=eta, gamma=gamma, cutoff=6)
        row = table.rows[0]
        first, second = misfire_terms(alpha, arms, eta, gamma, cutoff=6)
        assert row["success_prob"] == pytest.approx(
            norm_sq(first) + norm_sq(second), rel=1e-12
        )
        factor = np.stack([first.amplitudes, second.amplitudes], axis=1)
        mat = factor @ factor.conj().T / np.vdot(factor, factor).real
        assert row["purity"] == pytest.approx(np.trace(mat @ mat).real, rel=1e-12)
