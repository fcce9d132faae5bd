import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlasim import (
    DensityOperator,
    MultiModeState,
    TruncationWarning,
    coherent_state,
    epr_state,
    fidelity,
    loss_channel,
    minimal_coherent_cutoff,
    minimal_epr_cutoff,
    nla_apply,
    norm_sq,
    normalize,
    number_state,
    purity_product,
    tensor,
    vacuum,
)
from conftest import (
    dense,
    dense_purity_product,
    density_from_state,
    pad_state,
    partial_trace,
    purity,
    random_density,
    random_fock,
    random_multimode,
)


class TestCoherentState:
    def test_vacuum_amplitude(self):
        state = coherent_state(0.0, 4)
        assert np.allclose(state.amplitudes, [1, 0, 0, 0])
        assert abs(norm_sq(state) - 1.0) < 1e-12

    def test_strict_truncation_error(self):
        # dropped mass of |alpha=1> past |1> is 1 - 2/e
        with pytest.warns(TruncationWarning):
            state = coherent_state(1.0, 2)
        tail = 1.0 - norm_sq(state)
        assert abs(tail - (1.0 - 2.0 * math.exp(-1.0))) < 1e-12

    @pytest.mark.parametrize("alpha, cutoff", [(30, 8), (40, 4), (1e154, 4)])
    @pytest.mark.filterwarnings("error")
    def test_underflowing_kept_norm_raises_before_warning(self, alpha, cutoff):
        with pytest.raises(ValueError, match="keeps no weight"):
            coherent_state(alpha, cutoff)

    def test_direct_expansion_value(self):
        state = coherent_state(0.5, 20)
        want = math.exp(-0.125) * 0.5
        assert abs(state.amplitudes[1] - want) < 1e-15
        assert abs(norm_sq(state) - 1.0) < 1e-12

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

    @pytest.mark.filterwarnings("error")
    def test_chosen_cutoff_never_reads_as_truncated(self):
        # vdot put the tail of 2.337845 * 0.360887 at 1.0000889e-12, just
        # past the tolerance that its running Poisson sum had met
        for alpha in [2.337845 * 0.360887, *np.linspace(0.01, 3.0, 300)]:
            c = minimal_coherent_cutoff(alpha)
            assert coherent_state(alpha, c).mode_cutoffs == (c,)
            assert coherent_state(alpha).mode_cutoffs == (c,)

    def test_minimal_cutoff_tail(self):
        for alpha in (0.3, 1.0, 2.2):
            c = minimal_coherent_cutoff(alpha)
            assert 1.0 - norm_sq(coherent_state(alpha, c)) < 1e-12
            if c > 1:
                with pytest.warns(TruncationWarning):
                    short = coherent_state(alpha, c - 1)
                assert 1.0 - norm_sq(short) >= 1e-12


class TestEprState:
    def test_chi_zero_is_vacuum(self):
        state = epr_state(0.0, 3)
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        assert np.allclose(state.amplitudes, want)

    def test_diagonal_amplitudes(self):
        with pytest.warns(TruncationWarning):
            state = epr_state(0.5, 2)
        assert abs(state.amplitudes[0, 0] - math.sqrt(0.75)) < 1e-15
        assert abs(state.amplitudes[1, 1] - math.sqrt(0.75) * 0.5) < 1e-15
        assert state.amplitudes[0, 1] == 0.0

    def test_tail_below_tolerance(self):
        state = epr_state(0.0997, 15)
        assert abs(norm_sq(state) - 1.0) < 1e-12

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
        assert np.allclose(dense(rho), [[1, 0], [0, 0]])

    def test_epr_marginal_is_thermal(self):
        chi = 0.6
        with pytest.warns(TruncationWarning):
            psi = epr_state(chi, 12)
        rho = partial_trace(psi, [1])
        diag = np.diag(dense(rho)).real
        want = (1 - chi**2) * chi ** (2 * np.arange(12))
        assert np.max(np.abs(diag - want)) < 1e-12
        off = dense(rho) - np.diag(np.diag(dense(rho)))
        assert np.max(np.abs(off)) < 1e-14

    def test_trace_nothing_returns_representation(self):
        with pytest.warns(TruncationWarning):
            psi = epr_state(0.3, 5)
        rho = partial_trace(psi, [])
        assert np.allclose(dense(rho), dense(density_from_state(psi)))

    def test_all_modes_rejected(self):
        with pytest.warns(TruncationWarning):
            psi = epr_state(0.3, 4)
        with pytest.raises(ValueError):
            partial_trace(psi, [0, 1])

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
            assert np.max(np.abs(dense(rho) - dense(want))) < 1e-12

    def test_density_input_partial_trace(self, rng):
        state = random_multimode(rng, (3, 3, 2))
        via_state = partial_trace(state, [2])
        # trace the last mode's index pair of the full density matrix
        ten = dense(density_from_state(state)).reshape((3, 3, 2) * 2)
        via_density = np.trace(ten, axis1=2, axis2=5).reshape(9, 9)
        assert np.max(np.abs(dense(via_state) - via_density)) < 1e-12


class TestFidelity:
    def test_identical_coherent(self):
        a = coherent_state(0.7 + 0.2j)
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_vs_coherent_one(self):
        val = fidelity(vacuum(1), coherent_state(1.0))
        assert val == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_maximally_mixed_qubit_vs_vacuum(self):
        rho = DensityOperator((2,), np.eye(2) / math.sqrt(2.0))
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
            phased = MultiModeState((5,), a.amplitudes * np.exp(0.83j))
            assert fidelity(a, phased) == pytest.approx(1.0, abs=1e-12)
            b = random_fock(rng, 5)
            overlap = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
            if overlap < 1.0 - 1e-6:
                assert fidelity(a, b) < 1.0 - 1e-7

    def test_auto_padding(self):
        narrow = coherent_state(0.5, 10)
        wide = coherent_state(0.5, 14)
        assert fidelity(narrow, wide) == pytest.approx(1.0, abs=1e-8)

    def test_pure_mixed_consistency(self, rng):
        a, b = random_fock(rng, 5), random_fock(rng, 5)
        pure = fidelity(a, b)
        assert fidelity(density_from_state(a), b) == pytest.approx(pure, abs=1e-10)
        both = fidelity(density_from_state(a), density_from_state(b))
        assert both == pytest.approx(pure, abs=1e-8)

    def test_uhlmann_against_scipy_sqrtm(self, rng):
        # full-rank operators only: scipy's sqrtm loses about 1e-8 on
        # singular ones
        from scipy.linalg import sqrtm

        for cutoffs in [(4,), (2, 2), (1, 3), (3, 1)] * 10:
            rank = math.prod(cutoffs)
            rho = random_density(rng, cutoffs, rank=rank)
            sig = random_density(rng, cutoffs, rank=rank)
            root = sqrtm(dense(rho))
            want = float(np.real(np.trace(sqrtm(root @ dense(sig) @ root)))) ** 2
            assert fidelity(rho, sig) == pytest.approx(want, abs=1e-8)

    def test_zero_norm_rejected(self):
        dead = MultiModeState((3,), np.zeros(3))
        with pytest.raises(ValueError):
            fidelity(dead, vacuum(3))

    def test_mode_count_mismatch_rejected(self):
        with pytest.warns(TruncationWarning):
            psi = epr_state(0.2, 3)
        with pytest.raises(ValueError):
            fidelity(vacuum(3), psi)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_amplitude_refused(self, bad):
        # a NaN squared norm compares False with any bound, so it is
        # refused by name rather than let through as "not above 1"
        amps = np.array([0.5, bad, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="squared norm .* is not finite"):
            MultiModeState((3,), amps)

    @pytest.mark.parametrize(
        "bad", [DensityOperator((2,), np.eye(2) / math.sqrt(2.0)), [1.0, 0.0]]
    )
    def test_pure_state_functions_reject_non_states(self, bad):
        with pytest.raises(TypeError):
            tensor(bad, vacuum(2))
        with pytest.raises(TypeError):
            tensor(vacuum(2), bad)
        with pytest.raises(TypeError):
            nla_apply(bad, 1, 0.5)
        with pytest.raises(TypeError):
            loss_channel(bad, 0.5)
        with pytest.raises(TypeError):
            norm_sq(bad)
        with pytest.raises(TypeError):
            normalize(bad)

    def test_factor_is_copied_unless_it_cannot_change(self):
        writable = np.array([[1.0], [0.0]], dtype=complex)
        rho = DensityOperator((2,), writable)
        writable[0, 0] = 0.5
        assert rho.trace == 1.0
        # a read-only view of data that can still change is copied too
        view = writable[:, :]
        view.setflags(write=False)
        assert DensityOperator((2,), view).factor is not view
        writable.setflags(write=False)
        assert DensityOperator((2,), writable).factor is writable

    def test_density_validation(self, rng):
        # rho = F F+ is Hermitian and positive by construction; what can
        # still be wrong is the factor's shape and the trace ||F||**2
        with pytest.raises(ValueError):
            DensityOperator((2,), np.full(2, 0.5))  # not (dim, rank)
        with pytest.raises(ValueError):
            DensityOperator((2,), np.full((3, 1), 0.5))  # dim 3 != 2
        with pytest.raises(ValueError):
            DensityOperator((2,), np.zeros((2, 2)))  # trace 0
        with pytest.raises(ValueError):
            DensityOperator((2,), np.eye(2))  # trace 2
        for _ in range(10):
            rho = random_density(rng, (3, 2))
            assert np.linalg.eigvalsh(dense(rho)).min() >= -1e-10

    def test_pad_state(self):
        with pytest.warns(TruncationWarning):
            state = coherent_state(0.3, 5)
        padded = pad_state(state, (9,))
        assert padded.mode_cutoffs == (9,)
        assert np.allclose(padded.amplitudes[:5], state.amplitudes)
        assert np.all(padded.amplitudes[5:] == 0.0)

    def test_states_are_immutable(self):
        state = coherent_state(0.3)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


# ---------------------------------------------------------------------------
# dense references for the factor routes: the library keeps rho = F F+ and
# never forms the dim x dim matrix; these build it and work on it directly


def _cutoffs(state):
    if isinstance(state, DensityOperator):
        return state.basis_cutoffs
    return state.mode_cutoffs


def _psd_sqrt(mat):
    # eigenvalues at the eigensolver's rounding floor are zeros of a
    # rank-deficient operator; their square roots (~1e-8) would otherwise
    # put errors above 1e-8 into the fidelity of about 1 draw in 2,000
    w, v = np.linalg.eigh(mat)
    floor = len(w) * np.finfo(float).eps * max(w.max(), 0.0)
    return (v * np.sqrt(np.where(w > floor, w, 0.0))) @ v.conj().T


def dense_fidelity(a, b) -> float:
    """Zero pad both states to the larger basis, normalize, then take
    <a|b>, <a|rho|a> or the trace norm of sqrt(rho) sqrt(sigma)."""
    target = tuple(max(x, y) for x, y in zip(_cutoffs(a), _cutoffs(b)))

    def prep(state):
        if isinstance(state, DensityOperator):
            own = state.basis_cutoffs
            widths = [(0, n - o) for n, o in zip(target, own)] * 2
            ten = np.pad(dense(state).reshape(own * 2), widths)
            dim = math.prod(target)
            return ten.reshape(dim, dim) / state.trace
        vec = pad_state(state, target).amplitudes.reshape(-1)
        return vec / np.linalg.norm(vec)

    xa, xb = prep(a), prep(b)
    if xa.ndim == 1 and xb.ndim == 1:
        return abs(np.vdot(xa, xb)) ** 2
    if xa.ndim == 1:
        return float(np.real(xa.conj() @ xb @ xa))
    if xb.ndim == 1:
        return float(np.real(xb.conj() @ xa @ xb))
    sing = np.linalg.svd(_psd_sqrt(xa) @ _psd_sqrt(xb), compute_uv=False)
    return float(np.sum(sing)) ** 2


def _random_two_mode(rng, cutoffs, rank):
    """Random two-mode state with trace in [0.2, 1]: pure for rank 0,
    otherwise a ``rank``-column factor."""
    shape = tuple(cutoffs) + ((rank,) if rank else ())
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps *= math.sqrt(rng.uniform(0.2, 1.0)) / np.linalg.norm(amps)
    if not rank:
        return MultiModeState(tuple(cutoffs), amps)
    return DensityOperator(tuple(cutoffs), amps.reshape(-1, rank))


_CUTOFFS = st.tuples(st.integers(1, 5), st.integers(1, 5))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cut_a=_CUTOFFS,
    cut_b=_CUTOFFS,
    rank_a=st.integers(0, 4),
    rank_b=st.integers(0, 4),
)
def test_factor_routes_match_dense_references(seed, cut_a, cut_b, rank_a, rank_b):
    # rank 0 draws a pure state; the two sides get their own per-mode
    # cutoffs, so the fidelity compares over a sliced shared basis
    rng = np.random.default_rng(seed)
    a = _random_two_mode(rng, cut_a, rank_a)
    b = _random_two_mode(rng, cut_b, rank_b)
    # mixed-mixed goes through two eigensolves on the dense side
    tol = 1e-8 if rank_a and rank_b else 1e-12
    assert fidelity(a, b) == pytest.approx(dense_fidelity(a, b), abs=tol)
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)
    for state in (a, b):
        rho = state if isinstance(state, DensityOperator) else density_from_state(state)
        mat = dense(rho) / rho.trace
        assert purity(rho) == pytest.approx(np.trace(mat @ mat).real, abs=1e-12)
        report = purity_product(state)
        v_minus, v_plus = dense_purity_product(rho)
        assert report.v_minus == pytest.approx(v_minus, abs=1e-12)
        assert report.v_plus == pytest.approx(v_plus, abs=1e-12)
