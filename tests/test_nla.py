import math

import numpy as np
import pytest

from nlasim import (
    MultiModeState,
    NonconvergentError,
    asymptotic_operator,
    coherent_state,
    density_from_state,
    epr_state,
    fidelity,
    gain_from_eta,
    misfire_density,
    misfire_terms,
    nla_apply,
    nla_operator,
    norm_sq,
    number_state,
    purity,
    scissor_outcome,
    success_probability_asymptotic,
    vacuum,
)
from conftest import random_fock


class TestOperatorCoefficients:
    def test_two_arm_low_transmissivity(self):
        op = nla_operator(2, 0.05, 4)
        assert op.coeffs[0] == pytest.approx(0.05, abs=1e-15)
        assert op.coeffs[1] == pytest.approx(0.05 * math.sqrt(19.0), abs=1e-12)
        assert op.coeffs[2] == pytest.approx(0.475, abs=1e-12)
        assert op.coeffs[3] == 0.0

    def test_vacuum_coefficient_is_herald_amplitude(self):
        for arms, eta in [(1, 0.3), (4, 0.05), (9, 0.7)]:
            op = nla_operator(arms, eta, 3)
            assert op.coeffs[0] == pytest.approx(eta ** (arms / 2.0), rel=1e-13)

    def test_single_arm_single_photon(self):
        op = nla_operator(1, 1.0 / 3.0, 2)
        assert op.coeffs[1] == pytest.approx(math.sqrt(1.0 / 3.0) * math.sqrt(2.0))

    def test_truncation_above_arm_count(self):
        op = nla_operator(3, 0.4, 10)
        assert np.all(op.coeffs[4:] == 0.0)
        assert np.all(op.coeffs[: 4] > 0.0)

    def test_closed_form_matches_direct_product(self):
        # N!/((N-n)! N^n) as an explicit running product
        arms, eta = 6, 0.21
        op = nla_operator(arms, eta, arms + 1)
        g = gain_from_eta(eta)
        for n in range(arms + 1):
            fall = 1.0
            for j in range(n):
                fall *= (arms - j) / arms
            want = eta ** (arms / 2.0) * fall * g**n
            assert op.coeffs[n] == pytest.approx(want, rel=1e-12)


class TestApply:
    def test_vacuum_probability(self):
        for arms, eta in [(1, 0.3), (3, 0.05)]:
            out, herald = nla_apply(vacuum(2), nla_operator(arms, eta, 2))
            assert herald.success_probability == pytest.approx(eta**arms, rel=1e-12)
            assert herald.accepted_patterns == 2**arms
            assert not out.normalized

    def test_herald_probability_is_norm_sq(self, rng):
        state = random_fock(rng, 5)
        out, herald = nla_apply(state, nla_operator(3, 0.3, 5))
        assert herald.success_probability == pytest.approx(norm_sq(out), rel=1e-12)

    def test_epr_arm_amplification_asymptotic(self):
        # ideal gain map on one arm: chi -> g * chi exactly
        cutoff = 30
        out, herald = nla_apply(epr_state(0.3, cutoff), asymptotic_operator(2.0, cutoff))
        assert herald.success_probability is None
        assert fidelity(out, epr_state(0.6, cutoff)) == pytest.approx(1.0, abs=1e-12)

    def test_density_path_matches_pure_path(self, rng):
        state = random_fock(rng, 6)
        op = nla_operator(2, 0.2, 6)
        rho_out, h_rho = nla_apply(density_from_state(state), op)
        vec_out, h_vec = nla_apply(state, op)
        assert h_rho.success_probability == pytest.approx(
            h_vec.success_probability, rel=1e-12
        )
        assert fidelity(rho_out, vec_out) == pytest.approx(1.0, abs=1e-10)
        assert rho_out.trace == pytest.approx(h_rho.success_probability, rel=1e-12)

    def test_half_transmissivity_is_pure_truncation(self, rng):
        # g = 1: any qubit-subspace state passes up to a constant
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = MultiModeState((2,), amps / np.linalg.norm(amps), normalized=True)
        for arms in (1, 2, 5):
            out, _ = nla_apply(state, nla_operator(arms, 0.5, 2))
            ratio = out.amplitudes / state.amplitudes
            assert np.max(np.abs(ratio - ratio[0])) < 1e-12

    def test_cutoff_compatibility_checked(self):
        with pytest.raises(ValueError):
            nla_apply(vacuum(5), nla_operator(2, 0.3, 3))

    def test_asymptotic_identity_gain(self, rng):
        state = random_fock(rng, 4)
        out, _ = nla_apply(state, asymptotic_operator(1.0, 4))
        assert fidelity(out, state) == pytest.approx(1.0, abs=1e-12)

    def test_number_state_asymptotic_map(self):
        out, _ = nla_apply(number_state(2, 6), asymptotic_operator(1.7, 6))
        assert fidelity(out, number_state(2, 6)) == pytest.approx(1.0, abs=1e-12)


class TestNonconvergence:
    def test_boundary_raises(self):
        with pytest.raises(NonconvergentError):
            nla_apply(epr_state(0.5, 30, tail_tol=1.0), asymptotic_operator(2.0, 30))

    def test_above_boundary_raises(self):
        with pytest.raises(NonconvergentError):
            nla_apply(epr_state(0.6, 28), asymptotic_operator(2.0, 28))

    def test_below_boundary_passes(self):
        out, _ = nla_apply(epr_state(0.3, 30), asymptotic_operator(2.0, 30))
        assert norm_sq(out) == pytest.approx(1.0, abs=1e-12)


class TestSuccessProbability:
    def test_vacuum_value(self):
        assert success_probability_asymptotic(0.0, 5, 1.0 / 3.0) == pytest.approx(
            (1.0 / 3.0) ** 5
        )

    def test_direct_formula_value(self):
        want = 0.0025 * math.exp(18.0 * 0.01)
        assert success_probability_asymptotic(0.1, 2, 0.05) == pytest.approx(
            want, rel=1e-12
        )

    def test_matches_exact_norm_for_large_arm_count(self):
        alpha, eta = 0.3, 1.0 / 3.0
        # 20 * g**2 |alpha|**2 = 3.6, so any N >= 4 qualifies
        for arms in (4, 8, 20):
            cutoff = max(16, arms + 1)
            _, herald = nla_apply(
                coherent_state(alpha, cutoff), nla_operator(arms, eta, cutoff)
            )
            approx = success_probability_asymptotic(alpha, arms, eta)
            assert abs(approx / herald.success_probability - 1.0) < 0.05


class TestTargetGainPeak:
    def test_high_gain_peak_approaches_device_gain(self):
        # eta = 1/7 realizes g**2 = 6; for vanishing inputs the best-overlap
        # target gain sits there, and saturation pulls it down as the input grows
        eta, arms = 1.0 / 7.0, 5
        gains = np.linspace(1.0, 3.5, 251)

        def peak_gain_sq(alpha):
            cutoff = 16
            out, _ = nla_apply(
                coherent_state(alpha, cutoff), nla_operator(arms, eta, cutoff)
            )
            fids = [
                fidelity(out, coherent_state(g * alpha, cutoff)) for g in gains
            ]
            return gains[int(np.argmax(fids))] ** 2

        small = peak_gain_sq(0.05)
        large = peak_gain_sq(0.25)
        assert 5.7 <= small <= 6.3
        assert large < small


class TestScissorKraus:
    def test_matrix_elements(self):
        for sign in (+1, -1):
            out = scissor_outcome(0.3, sign, in_cutoff=4)
            mat = out.kraus.matrix
            assert mat[0, 0] == pytest.approx(math.sqrt(0.15))
            assert mat[1, 1] == pytest.approx(sign * math.sqrt(0.35))
            assert np.all(mat[:, 2:] == 0.0)

    def test_gain_relation(self):
        out = scissor_outcome(0.2)
        mat = out.kraus.matrix
        assert mat[1, 1] / mat[0, 0] == pytest.approx(gain_from_eta(0.2))


class TestMisfire:
    def test_zero_inefficiency_recovers_pure_output(self):
        rho = misfire_density(0.3, 5, 1.0 / 3.0, 0.0, cutoff=8)
        out, herald = nla_apply(coherent_state(0.3, 8), nla_operator(5, 1.0 / 3.0, 8))
        assert rho.trace == pytest.approx(herald.success_probability, rel=1e-12)
        assert fidelity(rho, out) == pytest.approx(1.0, abs=1e-12)

    def test_terms_converge_with_arm_count(self):
        previous = 0.0
        for arms in (4, 8, 12, 16):
            first, second = misfire_terms(0.3, arms, 1.0 / 3.0, 0.01)
            overlap = fidelity(first, second)
            assert overlap > previous
            previous = overlap
        assert previous > 0.999

    def test_purity_trend_in_gamma(self):
        # mixing grows with gamma relative to eta / |alpha|**2
        values = [
            purity(misfire_density(1.0, 3, 0.05, gamma, cutoff=6))
            for gamma in (0.002, 0.01, 0.05)
        ]
        assert values[0] > values[1] > values[2]
        assert values[0] > 0.99

    def test_large_gamma_warns(self):
        with pytest.warns(UserWarning):
            misfire_density(0.3, 2, 0.3, 0.2)

    def test_trace_is_first_order_acceptance(self):
        alpha, arms, eta, gamma = 0.4, 3, 0.25, 0.02
        rho = misfire_density(alpha, arms, eta, gamma, cutoff=6)
        first, second = misfire_terms(alpha, arms, eta, gamma, cutoff=6)
        assert rho.trace == pytest.approx(
            norm_sq(first) + norm_sq(second), rel=1e-12
        )
