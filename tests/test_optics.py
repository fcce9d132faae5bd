import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from nlasim import (
    BeamsplitterSpec,
    MultiModeState,
    TruncationError,
    annihilation,
    apply_beamsplitter,
    apply_nsplitter,
    coherent_state,
    density_from_state,
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
from nlasim.optics import _sector_block
from conftest import random_fock, random_multimode


def expm_beamsplitter(t, ci, cj):
    """Independent route to the same unitary: expm of the mode-mixing
    generator theta * (a+ b - a b+)."""
    a = np.kron(annihilation(ci), np.eye(cj))
    b = np.kron(np.eye(ci), annihilation(cj))
    gen = a.conj().T @ b - a @ b.conj().T
    return expm(math.acos(math.sqrt(t)) * gen)


def binomial_block(t, sector):
    """Reference sector block by direct expansion of
    (c a+ - s b+)**n (s a+ + c b+)**(S-n) in powers of a+. The alternating
    signs cancel more digits as S grows, so it serves only up to S = 30."""
    c = math.sqrt(t)
    s = math.sqrt(1.0 - t)
    size = sector + 1
    block = np.zeros((size, size))
    fact = [math.factorial(k) for k in range(size)]
    for n in range(size):
        m = sector - n
        p = np.array([math.comb(n, i) * c**i * (-s) ** (n - i) for i in range(n + 1)])
        q = np.array([math.comb(m, k) * s**k * c ** (m - k) for k in range(m + 1)])
        coeffs = np.convolve(p, q)
        for j in range(size):
            block[j, n] = coeffs[j] * math.sqrt(
                fact[j] * fact[sector - j] / (fact[n] * fact[m])
            )
    return block


def angle(t):
    """Mixing angle arccos(sqrt(t)), computed as the blocks compute it."""
    return math.atan2(math.sqrt(1.0 - t), math.sqrt(t))


class TestSectorBlocks:
    def test_matches_binomial_expansion(self):
        for sector in range(31):
            for t in np.linspace(0.0, 1.0, 21):
                diff = _sector_block(float(t), sector) - binomial_block(t, sector)
                assert np.max(np.abs(diff)) <= 1e-12, (sector, t)

    @settings(max_examples=50, deadline=None)
    @given(
        sector=st.integers(0, 400),
        t1=st.floats(0.0, 1.0),
        t2=st.floats(0.0, 1.0),
    )
    def test_unitary_and_composing(self, sector, t1, t2):
        b1, b2 = _sector_block(t1, sector), _sector_block(t2, sector)
        assert np.max(np.abs(b1 @ b1.T - np.eye(sector + 1))) <= 1e-13
        theta = angle(t1) + angle(t2)
        assume(theta <= math.pi / 2)
        # rounding t3 moves the angle slightly; the block moves by at most
        # S times that, since the generator's eigenvalues lie in [-S, S]
        t3 = math.cos(theta) ** 2
        slip = sector * abs(theta - angle(t3))
        diff = b1 @ b2 - _sector_block(t3, sector)
        assert np.max(np.abs(diff)) <= 1e-13 + slip

    @settings(max_examples=25, deadline=None)
    @given(
        sector=st.integers(1, 120),
        t=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_inverted_spec_undoes(self, sector, t, seed):
        # a random state on |n, S-n> at cutoffs (S+1, S+1)
        rng = np.random.default_rng(seed)
        n = np.arange(sector + 1)
        amps = np.zeros((sector + 1, sector + 1), dtype=np.complex128)
        live = rng.normal(size=(2, sector + 1))
        amps[n, sector - n] = live[0] + 1j * live[1]
        state = MultiModeState(amps.shape, amps / np.linalg.norm(amps), True)
        spec = BeamsplitterSpec(t, (0, 1))
        back = apply_beamsplitter(apply_beamsplitter(state, spec), spec.inverted())
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-13

    def test_balanced_split_against_vacuum_is_mirror_symmetric(self, rng):
        # both clones of a 50:50 split must agree to the last bit
        for cutoff in (5, 17, 40):
            state = tensor(vacuum(cutoff), random_fock(rng, cutoff))
            out = apply_beamsplitter(state, BeamsplitterSpec(0.5, (0, 1)))
            assert np.array_equal(out.amplitudes, out.amplitudes.T)

    @pytest.mark.parametrize("n, cutoff, t", [(40, 81, 0.5), (30, 61, 0.3)])
    def test_high_sector_keeps_norm(self, n, cutoff, t):
        amps = np.zeros((cutoff, cutoff), dtype=np.complex128)
        amps[n, n] = 1.0 / math.sqrt(2.0)
        state = MultiModeState((cutoff, cutoff), amps)
        out = apply_beamsplitter(state, BeamsplitterSpec(t, (0, 1)))
        assert abs(norm_sq(out) - 0.5) <= 0.5e-12


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


def _nsplitter_mode_map(arms: int) -> np.ndarray:
    """N x N amplitude map of the even splitter, read off its one-photon
    sector: column j is the output of one photon entering arm j."""
    u = np.zeros((arms, arms))
    for j in range(arms):
        state = number_state(int(j == 0), 2)
        for i in range(1, arms):
            state = tensor(state, number_state(int(i == j), 2))
        out = apply_nsplitter(state).amplitudes
        for i in range(arms):
            u[i, j] = out[tuple(int(k == i) for k in range(arms))].real
    return u


class TestNsplitter:
    def test_single_arm_is_identity(self, rng):
        state = random_multimode(rng, (5,))
        out = apply_nsplitter(state)
        assert np.allclose(out.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("arms", [2, 3, 4, 5])
    def test_uniform_first_column(self, arms):
        u = _nsplitter_mode_map(arms)
        assert np.max(np.abs(u @ u.T - np.eye(arms))) < 1e-12
        assert np.max(np.abs(np.abs(u[:, 0]) ** 2 - 1.0 / arms)) < 1e-12
        # the canonical cascade keeps every arm amplitude positive
        assert np.all(u[:, 0] > 0.0)

    def test_coherent_even_division(self):
        alpha, arms = 0.7, 3
        state = tensor(tensor(coherent_state(alpha), vacuum(13)), vacuum(13))
        out = apply_nsplitter(state)
        arm = coherent_state(alpha / math.sqrt(arms), 13)
        want = tensor(tensor(arm, arm), arm)
        assert fidelity(out, want) > 1.0 - 1e-10

    def test_forward_then_inverse(self, rng):
        state = random_multimode(rng, (3, 3, 3), max_total=2)
        back = apply_nsplitter(apply_nsplitter(state), inverse=True)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


def _loss_kraus(cutoff: int, epsilon: float) -> list:
    """Kraus operators K_k of the transmission-epsilon loss channel:
    K_k |n> = sqrt(C(n, k)) (1-eps)**(k/2) eps**((n-k)/2) |n-k>."""
    ops = []
    for k in range(cutoff):
        mat = np.zeros((cutoff, cutoff), dtype=np.complex128)
        for n in range(k, cutoff):
            mat[n - k, n] = math.sqrt(
                math.comb(n, k) * (1.0 - epsilon) ** k * epsilon ** (n - k)
            )
        ops.append(mat)
    return ops


def kraus_loss(state, epsilon, mode):
    """Reference route to the lossy state: sum_k K_k rho K_k+ on the dense
    density matrix, each K_k lifted to the full basis by Kronecker products."""
    rho = density_from_state(state).matrix
    cutoffs = state.mode_cutoffs
    eye_l = np.eye(math.prod(cutoffs[:mode]))
    eye_r = np.eye(math.prod(cutoffs[mode + 1 :]))
    out = np.zeros_like(rho)
    for kraus in _loss_kraus(cutoffs[mode], epsilon):
        full = np.kron(np.kron(eye_l, kraus), eye_r)
        out += full @ rho @ full.conj().T
    return out


def lossy(state, epsilon, mode=0):
    """Lossy state through the library: trace the purification's
    environment, which is the last mode."""
    return partial_trace(loss_channel(state, epsilon, mode), [state.n_modes])


class TestLossChannel:
    def test_full_transmission_is_identity(self, rng):
        state = random_fock(rng, 5)
        rho = lossy(state, 1.0, 0)
        want = np.outer(state.amplitudes, state.amplitudes.conj())
        assert np.max(np.abs(rho.matrix - want)) < 1e-12

    def test_zero_transmission_gives_vacuum(self):
        rho = lossy(number_state(1, 3), 0.0, 0)
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        assert np.max(np.abs(rho.matrix - want)) < 1e-12

    def test_purification_amplitudes(self):
        # direct binomial evaluation of the environment amplitudes
        chi, eps, c = 0.5, 0.5, 6
        joint = loss_channel(epr_state(chi, c, tail_tol=1.0), eps, mode=0)
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
        via_env = lossy(state, 0.6, mode=0)
        direct = kraus_loss(state, 0.6, mode=0)
        assert np.max(np.abs(via_env.matrix - direct)) < 1e-12

    def test_composition_law(self, rng):
        for _ in range(5):
            state = random_fock(rng, 6)
            chained = loss_channel(loss_channel(state, 0.7, 0), 0.6, 0)
            twice = partial_trace(chained, [1, 2])
            once = lossy(state, 0.42, 0)
            assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-10

    def test_density_input_kraus_path(self, rng):
        state = random_fock(rng, 6)
        pure_route = lossy(state, 0.42, 0)
        kraus_route = kraus_loss(state, 0.42, 0)
        assert np.max(np.abs(pure_route.matrix - kraus_route)) < 1e-12

    def test_trace_preserved(self, rng):
        state = random_multimode(rng, (5, 3))
        rho = lossy(state, 0.35, 0)
        assert abs(rho.trace - norm_sq(state)) < 1e-12

    def test_any_mode_matches_kraus_route(self, rng):
        for _ in range(200):
            n_modes = int(rng.integers(1, 4))
            cutoffs = tuple(int(c) for c in rng.integers(1, 5, size=n_modes))
            state = random_multimode(rng, cutoffs)
            mode = int(rng.integers(0, n_modes))
            eps = float(rng.uniform(0.0, 1.0))
            rho = lossy(state, eps, mode)
            assert rho.basis_cutoffs == cutoffs
            assert np.max(np.abs(rho.matrix - kraus_loss(state, eps, mode))) < 1e-12


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
