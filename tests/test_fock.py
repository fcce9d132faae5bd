import math

import numpy as np
import pytest

from nlasim import (
    BeamsplitterSpec,
    DensityOperator,
    MultiModeState,
    TruncationError,
    TruncationWarning,
    apply_beamsplitter,
    coherent_state,
    density_from_state,
    epr_state,
    fidelity,
    loss_channel,
    minimal_coherent_cutoff,
    minimal_epr_cutoff,
    nla_apply,
    nla_operator,
    norm_sq,
    normalize,
    number_state,
    pad_state,
    partial_trace,
    tensor,
    vacuum,
)
from conftest import random_density, random_fock, random_multimode


class TestCoherentState:
    def test_vacuum_amplitude(self):
        state = coherent_state(0.0, 4)
        assert np.allclose(state.amplitudes, [1, 0, 0, 0])
        assert state.normalized

    def test_strict_truncation_error(self):
        # dropped mass of |alpha=1> past |1> is 1 - 2/e
        with pytest.raises(TruncationError):
            coherent_state(1.0, 2, strict=True)
        with pytest.warns(TruncationWarning):
            state = coherent_state(1.0, 2)
        tail = 1.0 - norm_sq(state)
        assert abs(tail - (1.0 - 2.0 * math.exp(-1.0))) < 1e-12
        assert not state.normalized

    def test_direct_expansion_value(self):
        state = coherent_state(0.5, 20)
        want = math.exp(-0.125) * 0.5
        assert abs(state.amplitudes[1] - want) < 1e-15
        assert state.normalized

    def test_amplitudes_match_formula(self, rng):
        alpha = 0.4 + 0.3j
        state = coherent_state(alpha, 18)
        for n in range(18):
            want = (
                math.exp(-abs(alpha) ** 2 / 2.0)
                * alpha**n
                / math.sqrt(math.factorial(n))
            )
            assert abs(state.amplitudes[n] - want) < 1e-13

    def test_minimal_cutoff_tail(self):
        for alpha in (0.3, 1.0, 2.2):
            c = minimal_coherent_cutoff(alpha)
            assert 1.0 - norm_sq(coherent_state(alpha, c)) < 1e-12
            if c > 1:
                assert 1.0 - norm_sq(coherent_state(alpha, c - 1, tail_tol=1.0)) >= 1e-12


class TestEprState:
    def test_chi_zero_is_vacuum(self):
        state = epr_state(0.0, 3)
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        assert np.allclose(state.amplitudes, want)

    def test_diagonal_amplitudes(self):
        state = epr_state(0.5, 2, tail_tol=1.0)
        assert abs(state.amplitudes[0, 0] - math.sqrt(0.75)) < 1e-15
        assert abs(state.amplitudes[1, 1] - math.sqrt(0.75) * 0.5) < 1e-15
        assert state.amplitudes[0, 1] == 0.0

    def test_tail_below_tolerance(self):
        state = epr_state(0.0997, 15)
        assert 1.0 - norm_sq(state) < 1e-12
        assert state.normalized

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            epr_state(1.0)
        with pytest.raises(ValueError):
            epr_state(-0.1)

    def test_minimal_cutoff(self):
        for chi in (0.1, 0.5, 0.9):
            c = minimal_epr_cutoff(chi)
            assert chi ** (2 * c) < 1e-12


class TestTensorAndTrace:
    def test_two_mode_vacuum(self):
        state = tensor(vacuum(2), vacuum(2))
        want = np.zeros((2, 2))
        want[0, 0] = 1.0
        assert np.allclose(state.amplitudes, want)

    def test_single_photon_placement(self):
        state = tensor(number_state(1, 2), vacuum(2))
        assert state.amplitudes[1, 0] == 1.0

    def test_trace_of_product_vacuum(self):
        rho = partial_trace(tensor(vacuum(2), vacuum(2)), [1])
        assert np.allclose(rho.matrix, [[1, 0], [0, 0]])

    def test_epr_marginal_is_thermal(self):
        chi = 0.6
        rho = partial_trace(epr_state(chi, 12, tail_tol=1.0), [1])
        diag = np.diag(rho.matrix).real
        want = (1 - chi**2) * chi ** (2 * np.arange(12))
        assert np.max(np.abs(diag - want)) < 1e-12
        off = rho.matrix - np.diag(np.diag(rho.matrix))
        assert np.max(np.abs(off)) < 1e-14

    def test_trace_nothing_returns_representation(self):
        psi = epr_state(0.3, 5, tail_tol=1.0)
        rho = partial_trace(psi, [])
        assert np.allclose(rho.matrix, density_from_state(psi).matrix)

    def test_all_modes_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(epr_state(0.3, 4, tail_tol=1.0), [0, 1])

    def test_trace_preserving_on_random_states(self, rng):
        for _ in range(1000):
            state = random_multimode(rng, (3, 4))
            rho = partial_trace(state, [rng.integers(0, 2)])
            assert abs(rho.trace - norm_sq(state)) < 1e-12

    def test_tensor_then_trace_recovers_factor(self, rng):
        for _ in range(25):
            a = random_fock(rng, 4)
            b = random_fock(rng, 3)
            rho = partial_trace(tensor(a, b), [1])
            want = density_from_state(a)
            assert np.max(np.abs(rho.matrix - want.matrix)) < 1e-12

    def test_density_input_partial_trace(self, rng):
        state = random_multimode(rng, (3, 3, 2))
        via_state = partial_trace(state, [2])
        # trace the last mode's index pair of the full density matrix
        ten = density_from_state(state).matrix.reshape((3, 3, 2) * 2)
        via_density = np.trace(ten, axis1=2, axis2=5).reshape(9, 9)
        assert np.max(np.abs(via_state.matrix - via_density)) < 1e-12


class TestFidelity:
    def test_identical_coherent(self):
        a = coherent_state(0.7 + 0.2j)
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_vs_coherent_one(self):
        val = fidelity(vacuum(1), coherent_state(1.0))
        assert val == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_maximally_mixed_qubit_vs_vacuum(self):
        rho = DensityOperator((2,), np.eye(2) / 2.0)
        assert fidelity(rho, vacuum(2)) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(20):
            a, b = random_fock(rng, 5), random_fock(rng, 5)
            assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-10
        rho, sig = random_density(rng, (4,)), random_density(rng, (4,))
        assert abs(fidelity(rho, sig) - fidelity(sig, rho)) < 1e-10

    def test_unity_iff_equal_up_to_phase(self, rng):
        for _ in range(20):
            a = random_fock(rng, 5)
            phased = MultiModeState(
                (5,), a.amplitudes * np.exp(0.83j), normalized=True
            )
            assert fidelity(a, phased) == pytest.approx(1.0, abs=1e-12)
            b = random_fock(rng, 5)
            overlap = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
            if overlap < 1.0 - 1e-6:
                assert fidelity(a, b) < 1.0 - 1e-7

    def test_auto_padding(self):
        narrow = coherent_state(0.5, 10, tail_tol=1.0)
        wide = coherent_state(0.5, 14)
        assert fidelity(narrow, wide) == pytest.approx(1.0, abs=1e-8)

    def test_pure_mixed_consistency(self, rng):
        a, b = random_fock(rng, 5), random_fock(rng, 5)
        pure = fidelity(a, b)
        assert fidelity(density_from_state(a), b) == pytest.approx(pure, abs=1e-10)
        both = fidelity(density_from_state(a), density_from_state(b))
        assert both == pytest.approx(pure, abs=1e-8)

    def test_uhlmann_against_scipy_sqrtm(self, rng):
        from scipy.linalg import sqrtm

        rho = random_density(rng, (4,), rank=4)
        sig = random_density(rng, (4,), rank=4)
        root = sqrtm(rho.matrix)
        want = float(np.real(np.trace(sqrtm(root @ sig.matrix @ root)))) ** 2
        assert fidelity(rho, sig) == pytest.approx(want, abs=1e-8)

    def test_zero_norm_rejected(self):
        dead = MultiModeState((3,), np.zeros(3))
        with pytest.raises(ValueError):
            fidelity(dead, vacuum(3))

    def test_mode_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fidelity(vacuum(3), epr_state(0.2, 3, tail_tol=1.0))


class TestInvariantsAndPlumbing:
    def test_norm_sq_examples(self):
        assert norm_sq(vacuum(4)) == pytest.approx(1.0)
        half = MultiModeState((2,), np.array([0.5, 0.0]))
        assert norm_sq(half) == pytest.approx(0.25)

    def test_normalize_restores_unit_norm(self):
        half = MultiModeState((2,), np.array([0.5, 0.0]))
        assert norm_sq(normalize(half)) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            normalize(MultiModeState((2,), np.zeros(2)))

    def test_multimode_norm_cap(self):
        with pytest.raises(ValueError):
            MultiModeState((2, 2), np.full((2, 2), 1.0, dtype=complex))
        with pytest.raises(ValueError):
            MultiModeState((2,), np.array([1.0, 0.5], dtype=complex))

    @pytest.mark.parametrize(
        "bad", [DensityOperator((2,), np.eye(2) / 2.0), [1.0, 0.0]]
    )
    def test_pure_state_functions_reject_non_states(self, bad):
        with pytest.raises(TypeError):
            tensor(bad, vacuum(2))
        with pytest.raises(TypeError):
            tensor(vacuum(2), bad)
        with pytest.raises(TypeError):
            pad_state(bad, (3,))
        with pytest.raises(TypeError):
            apply_beamsplitter(bad, BeamsplitterSpec(0.5, (0, 1)))
        with pytest.raises(TypeError):
            nla_apply(bad, nla_operator(1, 0.5, 2))
        with pytest.raises(TypeError):
            partial_trace(bad, [])
        with pytest.raises(TypeError):
            loss_channel(bad, 0.5)
        with pytest.raises(TypeError):
            norm_sq(bad)
        with pytest.raises(TypeError):
            normalize(bad)

    def test_density_validation(self, rng):
        mat = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            DensityOperator((2,), mat)  # negative eigenvalue
        with pytest.raises(ValueError):
            DensityOperator((2,), np.array([[0.5, 0.3j], [0.2j, 0.5]]))
        for _ in range(10):
            rho = random_density(rng, (3, 2))
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10

    def test_pad_state(self):
        state = coherent_state(0.3, 5, tail_tol=1.0)
        padded = pad_state(state, (9,))
        assert padded.mode_cutoffs == (9,)
        assert np.allclose(padded.amplitudes[:5], state.amplitudes)
        assert np.all(padded.amplitudes[5:] == 0.0)

    def test_states_are_immutable(self):
        state = coherent_state(0.3)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
