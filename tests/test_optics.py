import math

import numpy as np
import pytest
from scipy.linalg import expm

from nlasim import (
    BeamsplitterSpec,
    MultiModeState,
    NsplitterSpec,
    TruncationError,
    annihilation,
    apply_beamsplitter,
    apply_nsplitter,
    coherent_state,
    epr_state,
    fidelity,
    loss_channel,
    norm_sq,
    number_state,
    partial_trace,
    phase_shift,
    tensor,
    vacuum,
)
from conftest import random_fock, random_multimode


def expm_beamsplitter(t, ci, cj):
    """Independent route to the same unitary: expm of the mode-mixing
    generator theta * (a+ b - a b+)."""
    a = np.kron(annihilation(ci), np.eye(cj))
    b = np.kron(np.eye(ci), annihilation(cj))
    gen = a.conj().T @ b - a @ b.conj().T
    return expm(math.acos(math.sqrt(t)) * gen)


class TestBeamsplitter:
    def test_identity_at_full_transmission(self, rng):
        state = random_multimode(rng, (4, 4))
        out = apply_beamsplitter(state, BeamsplitterSpec(1.0, (0, 1)))
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_single_photon_balanced(self):
        state = tensor(number_state(1, 2), vacuum(2))
        out = apply_beamsplitter(state, BeamsplitterSpec(0.5, (0, 1)))
        want = np.zeros((2, 2))
        want[1, 0] = 1.0 / math.sqrt(2.0)
        want[0, 1] = -1.0 / math.sqrt(2.0)
        assert np.max(np.abs(out.amplitudes - want)) < 1e-15

    def test_displacement_covariance(self):
        # coherent in, coherent out with the fixed sign convention
        alpha, t = 0.5 + 0.1j, 0.3
        state = tensor(coherent_state(alpha, 12), coherent_state(0.0, 12))
        out = apply_beamsplitter(state, BeamsplitterSpec(t, (0, 1)))
        want = tensor(
            coherent_state(math.sqrt(t) * alpha, 12),
            coherent_state(-math.sqrt(1 - t) * alpha, 12),
        )
        assert fidelity(out, want) > 1.0 - 1e-10

    def test_split_coherent_product_check(self):
        # duplicate of the tensor example: splitting sqrt(2) alpha balances
        alpha = 0.3
        state = tensor(coherent_state(math.sqrt(2) * alpha, 12), vacuum(12))
        out = apply_beamsplitter(state, BeamsplitterSpec(0.5, (0, 1)))
        want = tensor(coherent_state(alpha, 12), coherent_state(-alpha, 12))
        assert fidelity(out, want) > 1.0 - 1e-10

    @pytest.mark.parametrize("t", [0.0, 0.21, 0.5, 0.77])
    def test_against_expm_oracle(self, rng, t):
        ci = cj = 9
        amps = np.zeros((ci, cj), dtype=np.complex128)
        amps[:4, :4] = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        amps /= np.linalg.norm(amps)
        state = MultiModeState((ci, cj), amps, True)
        out = apply_beamsplitter(state, BeamsplitterSpec(t, (0, 1)))
        want = (expm_beamsplitter(t, ci, cj) @ amps.reshape(-1)).reshape(ci, cj)
        assert np.max(np.abs(out.amplitudes - want)) < 1e-12

    def test_norm_and_sector_preservation(self, rng):
        state = random_multimode(rng, (6, 6), max_total=5)
        out = apply_beamsplitter(state, BeamsplitterSpec(0.37, (0, 1)))
        assert abs(norm_sq(out) - norm_sq(state)) < 1e-12
        grid = np.add.outer(np.arange(6), np.arange(6))
        for sector in range(6):
            mask = grid == sector
            before = float(np.sum(np.abs(state.amplitudes[mask]) ** 2))
            after = float(np.sum(np.abs(out.amplitudes[mask]) ** 2))
            assert abs(before - after) < 1e-12

    def test_photon_overflow_raises(self):
        state = tensor(number_state(2, 3), number_state(2, 3))
        with pytest.raises(TruncationError):
            apply_beamsplitter(state, BeamsplitterSpec(0.5, (0, 1)))

    def test_mode_validation(self, rng):
        state = random_multimode(rng, (3, 3))
        with pytest.raises(ValueError):
            apply_beamsplitter(state, BeamsplitterSpec(0.5, (0, 2)))
        with pytest.raises(ValueError):
            BeamsplitterSpec(1.2, (0, 1))
        with pytest.raises(ValueError):
            BeamsplitterSpec(0.5, (1, 1))


class TestNsplitter:
    def test_single_arm_is_identity(self, rng):
        state = random_multimode(rng, (5,))
        out = apply_nsplitter(state, NsplitterSpec.even_split(1))
        assert np.allclose(out.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("arms", [2, 3, 4, 5])
    def test_uniform_first_column(self, arms):
        u = NsplitterSpec.even_split(arms).mode_unitary()
        assert np.max(np.abs(u @ u.T - np.eye(arms))) < 1e-12
        assert np.max(np.abs(np.abs(u[:, 0]) ** 2 - 1.0 / arms)) < 1e-12
        # the canonical cascade keeps every arm amplitude positive
        assert np.all(u[:, 0] > 0.0)

    def test_coherent_even_division(self):
        alpha, arms = 0.7, 3
        state = tensor(tensor(coherent_state(alpha), vacuum(13)), vacuum(13))
        out = apply_nsplitter(state, NsplitterSpec.even_split(arms))
        arm = coherent_state(alpha / math.sqrt(arms), 13)
        want = tensor(tensor(arm, arm), arm)
        assert fidelity(out, want) > 1.0 - 1e-10

    def test_forward_then_inverse(self, rng):
        state = random_multimode(rng, (3, 3, 3), max_total=2)
        spec = NsplitterSpec.even_split(3)
        back = apply_nsplitter(apply_nsplitter(state, spec), spec, inverse=True)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    def test_mode_count_checked(self, rng):
        state = random_multimode(rng, (3, 3))
        with pytest.raises(ValueError):
            apply_nsplitter(state, NsplitterSpec.even_split(3))


class TestLossChannel:
    def test_full_transmission_is_identity(self, rng):
        state = random_fock(rng, 5)
        rho = loss_channel(state, 1.0, 0)
        want = np.outer(state.amplitudes, state.amplitudes.conj())
        assert np.max(np.abs(rho.matrix - want)) < 1e-12

    def test_zero_transmission_gives_vacuum(self):
        rho = loss_channel(number_state(1, 3), 0.0, 0)
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        assert np.max(np.abs(rho.matrix - want)) < 1e-12

    def test_purification_amplitudes(self):
        # direct binomial evaluation of the kept-environment amplitudes
        chi, eps, c = 0.5, 0.5, 6
        joint = loss_channel(
            epr_state(chi, c, tail_tol=1.0), eps, mode=0, keep_environment=True
        )
        for n in range(c):
            for k in range(n + 1):
                want = (
                    math.sqrt(1 - chi**2)
                    * chi**n
                    * math.sqrt(math.comb(n, k))
                    * (1 - eps) ** (k / 2)
                    * eps ** ((n - k) / 2)
                )
                assert abs(joint.amplitudes[n - k, n, k] - want) < 1e-12

    def test_environment_trace_matches_direct(self, rng):
        state = random_multimode(rng, (4, 3))
        joint = loss_channel(state, 0.6, mode=0, keep_environment=True)
        via_env = partial_trace(joint, [2])
        direct = loss_channel(state, 0.6, mode=0)
        assert np.max(np.abs(via_env.matrix - direct.matrix)) < 1e-12

    def test_composition_law(self, rng):
        for _ in range(5):
            state = random_fock(rng, 6)
            twice = loss_channel(loss_channel(state, 0.7, 0), 0.6, 0)
            once = loss_channel(state, 0.42, 0)
            assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-10

    def test_density_input_kraus_path(self, rng):
        state = random_fock(rng, 6)
        from nlasim import density_from_state

        pure_route = loss_channel(state, 0.42, 0)
        kraus_route = loss_channel(density_from_state(state), 0.42, 0)
        assert np.max(np.abs(pure_route.matrix - kraus_route.matrix)) < 1e-12

    def test_trace_preserved(self, rng):
        state = random_multimode(rng, (5, 3))
        rho = loss_channel(state, 0.35, 0)
        assert abs(rho.trace - norm_sq(state)) < 1e-12


class TestPhaseShift:
    def test_zero_is_identity(self, rng):
        state = random_fock(rng, 4)
        out = phase_shift(state, 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_pi_flips_odd_component(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        state = MultiModeState((2,), plus, normalized=True)
        out = phase_shift(state, math.pi)
        want = np.array([1.0, -1.0]) / math.sqrt(2.0)
        assert np.max(np.abs(out.amplitudes - want)) < 1e-12

    def test_pi_twice_is_identity(self, rng):
        state = random_fock(rng, 5)
        out = phase_shift(phase_shift(state, math.pi), math.pi)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12
