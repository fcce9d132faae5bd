import math
import tracemalloc

import numpy as np
import pytest

from nlasim import (
    MultiModeState,
    TruncationError,
    TruncationWarning,
    coherent_state,
    epr_state,
    fidelity,
    loss_channel,
    nla_apply,
    norm_sq,
    number_state,
    tensor,
    vacuum,
)
from nlasim.optics import MAX_LOSS_CUTOFF, _mix_rows
from conftest import (
    beamsplitter,
    dense,
    density_from_state,
    even_splitter,
    partial_trace,
    random_fock,
    random_multimode,
)


def slab_loss(state, epsilon, mode=0):
    """The loss filled slab by slab, one slab per number k of lost photons,
    with weights w[k, a] = sqrt(C(a + k, k)) (1-eps)**(k/2) eps**(a/2)
    from log factorials: the reference the one-gather kernel replaced."""
    cutoff = state.mode_cutoffs[mode]
    photons = np.arange(cutoff)
    kept = math.sqrt(epsilon) ** photons
    lost = math.sqrt(1.0 - epsilon) ** photons
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(photons[1:]))))
    total = np.add.outer(photons, photons)
    inside = total < cutoff
    binom = np.exp(
        0.5 * (log_fact[np.where(inside, total, 0)] - np.add.outer(log_fact, log_fact))
    )
    weights = np.where(inside, binom * np.multiply.outer(lost, kept), 0.0)
    amps = np.moveaxis(state.amplitudes, mode, -1)
    # laid out (environment, other modes, mode): each k fills one slab
    out = np.zeros((cutoff,) + amps.shape, dtype=np.complex128)
    for k in range(cutoff):
        # inputs n = k..cutoff-1 that lose k photons
        out[k, ..., : cutoff - k] = amps[..., k:] * weights[k, : cutoff - k]
    return np.moveaxis(np.moveaxis(out, 0, -1), -2, mode)


class TestBeamsplitter:
    """The loss is the library's one Fock-space beamsplitter, against a
    vacuum environment; the tests' expm route is its reference."""

    def test_identity_at_full_transmission(self, rng):
        state = random_multimode(rng, (4, 4))
        out = loss_channel(state, 1.0, 1)
        assert np.array_equal(out.amplitudes, tensor(state, vacuum(4)).amplitudes)

    def test_single_photon_balanced(self):
        # the reference carries the repo-wide sign convention ...
        out = beamsplitter(tensor(number_state(1, 2), vacuum(2)), 0.5, (0, 1))
        want = np.zeros((2, 2))
        want[1, 0] = 1.0 / math.sqrt(2.0)
        want[0, 1] = -1.0 / math.sqrt(2.0)
        assert np.max(np.abs(out.amplitudes - want)) < 1e-15
        # ... and the loss, ordered (environment, system), keeps both positive
        out = loss_channel(number_state(1, 2), 0.5)
        assert np.max(np.abs(out.amplitudes - np.abs(want))) < 1e-15

    def test_displacement_covariance(self):
        # coherent in, coherent out: the mode keeps sqrt(eps) alpha and the
        # environment takes sqrt(1 - eps) alpha
        alpha, eps = 0.5 + 0.1j, 0.3
        out = loss_channel(coherent_state(alpha, 12), eps)
        want = tensor(
            coherent_state(math.sqrt(eps) * alpha, 12),
            coherent_state(math.sqrt(1 - eps) * alpha, 12),
        )
        assert fidelity(out, want) > 1.0 - 1e-10

    def test_split_coherent_product_check(self):
        # the cloning split: sqrt(2) alpha at transmission 1/2 gives alpha twice
        alpha = 0.3
        out = loss_channel(coherent_state(math.sqrt(2) * alpha, 12), 0.5)
        want = tensor(coherent_state(alpha, 12), coherent_state(alpha, 12))
        assert fidelity(out, want) > 1.0 - 1e-10

    @pytest.mark.parametrize("t", [0.0, 0.21, 0.5, 0.77, 1.0])
    def test_against_expm_oracle(self, rng, t):
        for _ in range(10):
            n_modes = int(rng.integers(1, 4))
            cutoffs = tuple(int(c) for c in rng.integers(1, 6, size=n_modes))
            state = random_multimode(rng, cutoffs)
            for mode in range(n_modes):
                joint = tensor(state, vacuum(cutoffs[mode]))
                want = beamsplitter(joint, t, (n_modes, mode)).amplitudes
                out = loss_channel(state, t, mode).amplitudes
                assert np.max(np.abs(out - want)) < 1e-12, (cutoffs, mode)

    def test_norm_and_sector_preservation(self, rng):
        # input photon number n of the lossy mode ends up split between the
        # mode and the environment, n in total
        state = random_multimode(rng, (6, 3))
        out = loss_channel(state, 0.37, 0)
        assert abs(norm_sq(out) - norm_sq(state)) < 1e-12
        grid = np.add.outer(np.arange(6), np.arange(6))
        lost = np.moveaxis(out.amplitudes, 2, 1)  # (mode, environment, other)
        for n in range(6):
            before = float(np.sum(np.abs(state.amplitudes[n]) ** 2))
            after = float(np.sum(np.abs(lost[grid == n]) ** 2))
            assert abs(before - after) < 1e-12

    def test_photon_overflow_raises(self):
        # the reference refuses sectors its truncated generator gets wrong
        state = tensor(number_state(2, 3), number_state(2, 3))
        with pytest.raises(TruncationError):
            beamsplitter(state, 0.5, (0, 1))

    @pytest.mark.parametrize("cutoff", range(1, 41))
    def test_matches_slab_reference(self, rng, cutoff):
        # one mode at this cutoff among up to two small ones; every mode loses
        for eps in (0.0, 0.5, 1.0, float(rng.uniform())):
            n_modes = int(rng.integers(1, 4))
            cutoffs = [cutoff] + [int(c) for c in rng.integers(1, 6, size=n_modes - 1)]
            state = random_multimode(rng, tuple(rng.permutation(cutoffs)))
            for mode in range(n_modes):
                out = loss_channel(state, eps, mode).amplitudes
                assert np.array_equal(out, slab_loss(state, eps, mode)), (eps, mode)

    def test_mode_validation(self, rng):
        state = random_multimode(rng, (3, 3))
        for mode in (-1, 2):
            with pytest.raises(ValueError):
                loss_channel(state, 0.5, mode)
        for eps in (-0.1, 1.2):
            with pytest.raises(ValueError):
                loss_channel(state, eps, 0)


class TestLossAtLargeCutoff:
    @pytest.mark.parametrize("n, cutoff, t", [(40, 81, 0.5), (30, 61, 0.3)])
    def test_high_sector_keeps_norm(self, n, cutoff, t):
        amps = np.zeros((cutoff, cutoff), dtype=np.complex128)
        amps[n, n] = 1.0 / math.sqrt(2.0)
        state = MultiModeState((cutoff, cutoff), amps)
        out = loss_channel(state, t, 0)
        assert abs(norm_sq(out) - 0.5) <= 0.5e-12

    def test_trace_at_cutoff_160(self):
        source = epr_state(0.6, 160)
        out = loss_channel(source, 0.3)
        assert abs(norm_sq(out) - norm_sq(source)) <= 1e-12

    def test_amplitudes_match_log_space(self, rng):
        chi, eps, cutoff = 0.6, 0.3, 160
        out = loss_channel(epr_state(chi, cutoff), eps).amplitudes
        for n in rng.integers(0, cutoff, size=200):
            n = int(n)
            k = int(rng.integers(0, n + 1))
            log_want = (
                0.5 * math.log(1 - chi**2)
                + n * math.log(chi)
                + 0.5 * (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))
                + 0.5 * k * math.log(1 - eps)
                + 0.5 * (n - k) * math.log(eps)
            )
            got = out[n - k, n, k]
            assert got.imag == 0.0
            assert abs(got.real / math.exp(log_want) - 1.0) <= 1e-12, (n, k)

    def test_clone_split_fits_its_byte_bound(self):
        # clone_coherent refuses a split above 48 bytes a level pair
        cutoff = 1100
        amplified = nla_apply(coherent_state(20, cutoff), 5, 1.0 / 3.0)
        tracemalloc.start()
        try:
            loss_channel(amplified, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 48 * cutoff**2

    def test_cutoff_limit_is_where_the_binomial_overflows(self):
        def log_peak(n):  # log sqrt(C(n, n // 2)), the largest binomial of n
            half = n // 2
            rest = math.lgamma(half + 1) + math.lgamma(n - half + 1)
            return 0.5 * (math.lgamma(n + 1) - rest)

        # a cutoff c holds up to c - 1 photons
        top = math.log(np.finfo(np.float64).max)
        assert log_peak(MAX_LOSS_CUTOFF - 1) < top < log_peak(MAX_LOSS_CUTOFF)

    @pytest.mark.filterwarnings("error")
    def test_binomial_overflow_refused_before_allocating(self):
        state = vacuum(2055)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="above cutoff 2,054"):
                loss_channel(state, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.filterwarnings("error")
    def test_largest_cutoff_runs(self):
        out = loss_channel(vacuum(MAX_LOSS_CUTOFF), 0.5)
        assert out.amplitudes[0, 0] == 1.0

    def test_balanced_split_against_vacuum_is_mirror_symmetric(self, rng):
        # both clones of a 50:50 split must agree to the last bit
        for cutoff in (5, 17, 40, 160):
            out = loss_channel(random_fock(rng, cutoff), 0.5)
            assert np.array_equal(out.amplitudes, out.amplitudes.T), cutoff


def _one_photon_map(transform, modes: int) -> np.ndarray:
    """modes x modes amplitude map of a linear-optical transform, read off
    its one-photon sector: column j is the output of one photon entering
    mode j."""
    u = np.zeros((modes, modes))
    for j in range(modes):
        photon = np.zeros((2,) * modes)
        photon[tuple(int(k == j) for k in range(modes))] = 1.0
        out = transform(MultiModeState((2,) * modes, photon)).amplitudes
        for i in range(modes):
            u[i, j] = out[tuple(int(k == i) for k in range(modes))].real
    return u


class TestNsplitter:
    def test_single_arm_is_identity(self, rng):
        state = random_multimode(rng, (5,))
        out = even_splitter(state)
        assert np.allclose(out.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("arms", [2, 3, 4, 5])
    def test_uniform_first_column(self, arms):
        u = _one_photon_map(even_splitter, arms)
        assert np.max(np.abs(u @ u.T - np.eye(arms))) < 1e-12
        assert np.max(np.abs(np.abs(u[:, 0]) ** 2 - 1.0 / arms)) < 1e-12
        # the canonical cascade keeps every arm amplitude positive
        assert np.all(u[:, 0] > 0.0)

    def test_coherent_even_division(self):
        alpha, arms = 0.7, 3
        state = tensor(tensor(coherent_state(alpha), vacuum(13)), vacuum(13))
        out = even_splitter(state)
        arm = coherent_state(alpha / math.sqrt(arms), 13)
        want = tensor(tensor(arm, arm), arm)
        assert fidelity(out, want) > 1.0 - 1e-10

    def test_forward_then_inverse(self, rng):
        state = random_multimode(rng, (3, 3, 3), max_total=2)
        back = even_splitter(even_splitter(state), inverse=True)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


class TestModeMatrix:
    @pytest.mark.parametrize("pair", [(0, 2), (2, 0), (1, 0)])
    def test_matches_one_photon_sector(self, rng, pair):
        for t in rng.uniform(0.0, 1.0, size=10):
            t = float(t)
            sector = _one_photon_map(lambda state: beamsplitter(state, t, pair), 3)
            matrix = np.eye(3)
            _mix_rows(matrix, t, *pair)
            assert np.max(np.abs(matrix - sector)) < 1e-15


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
    rho = dense(density_from_state(state))
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
        assert np.max(np.abs(dense(rho) - want)) < 1e-12

    def test_zero_transmission_gives_vacuum(self):
        rho = lossy(number_state(1, 3), 0.0, 0)
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        assert np.max(np.abs(dense(rho) - want)) < 1e-12

    def test_purification_amplitudes(self):
        # direct binomial evaluation of the environment amplitudes
        chi, eps, c = 0.5, 0.5, 6
        with pytest.warns(TruncationWarning):
            source = epr_state(chi, c)
        joint = loss_channel(source, eps, mode=0)
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
        assert np.max(np.abs(dense(via_env) - direct)) < 1e-12

    def test_composition_law(self, rng):
        for _ in range(5):
            state = random_fock(rng, 6)
            chained = loss_channel(loss_channel(state, 0.7, 0), 0.6, 0)
            twice = partial_trace(chained, [1, 2])
            once = lossy(state, 0.42, 0)
            assert np.max(np.abs(dense(twice) - dense(once))) < 1e-10

    def test_density_input_kraus_path(self, rng):
        state = random_fock(rng, 6)
        pure_route = lossy(state, 0.42, 0)
        kraus_route = kraus_loss(state, 0.42, 0)
        assert np.max(np.abs(dense(pure_route) - kraus_route)) < 1e-12

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
            assert np.max(np.abs(dense(rho) - kraus_loss(state, eps, mode))) < 1e-12
