import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.linalg import expm

from nlasim import (
    DensityOperator,
    MultiModeState,
    PurityReport,
    TruncationError,
    epr_state,
    loss_channel,
    norm_sq,
    number_state,
    postselected_prior_variance,
)
from nlasim.fock import _factor, _pure


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def random_fock(rng, cutoff, support=None) -> MultiModeState:
    live = cutoff if support is None else min(support + 1, cutoff)
    amps = np.zeros(cutoff, dtype=np.complex128)
    amps[:live] = rng.normal(size=live) + 1j * rng.normal(size=live)
    amps /= np.linalg.norm(amps)
    return MultiModeState((cutoff,), amps)


def random_multimode(rng, cutoffs, max_total=None) -> MultiModeState:
    """Random pure state; ``max_total`` bounds the joint photon number so
    beamsplitter networks can represent every output sector."""
    amps = rng.normal(size=cutoffs) + 1j * rng.normal(size=cutoffs)
    if max_total is not None:
        totals = np.zeros(cutoffs)
        for axis, c in enumerate(cutoffs):
            shape = [1] * len(cutoffs)
            shape[axis] = c
            totals = totals + np.arange(c).reshape(shape)
        amps = np.where(totals <= max_total, amps, 0.0)
    amps /= np.linalg.norm(amps.reshape(-1))
    return MultiModeState(tuple(cutoffs), amps)


def random_density(rng, cutoffs, rank=3) -> DensityOperator:
    """Unit-trace mixture of ``rank`` random pure states, one factor
    column sqrt(w) |v> per state."""
    dim = int(np.prod(cutoffs))
    columns = []
    weights = rng.dirichlet(np.ones(rank))
    for w in weights:
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        columns.append(np.sqrt(w) * vec / np.linalg.norm(vec))
    return DensityOperator(tuple(cutoffs), np.stack(columns, axis=1))


# ---------------------------------------------------------------------------
# pure-state helpers that no library code needs


def vacuum(cutoff: int = 1) -> MultiModeState:
    return number_state(0, cutoff)


def tensor(a, b) -> MultiModeState:
    """Kronecker composition of two pure states; cutoff lists concatenate."""
    ma, mb = _pure(a), _pure(b)
    amps = np.multiply.outer(ma.amplitudes, mb.amplitudes)
    return MultiModeState(ma.mode_cutoffs + mb.mode_cutoffs, amps)


def normalize(state) -> MultiModeState:
    """Explicitly normalized copy of a pure state."""
    n2 = norm_sq(state)
    if n2 <= 0.0:
        raise ValueError("cannot normalize a zero state")
    return MultiModeState(state.mode_cutoffs, state.amplitudes / math.sqrt(n2))


# ---------------------------------------------------------------------------
# generic density routes: the library builds a mixed state only from a
# factor it already holds, and these are the references it is checked against


def density_from_state(state) -> DensityOperator:
    """|psi><psi| over the flattened multimode basis."""
    return DensityOperator(state.mode_cutoffs, state.amplitudes.reshape(-1, 1))


def partial_trace(state, modes_to_trace) -> DensityOperator:
    """Reduced density operator of a pure state after tracing out
    ``modes_to_trace``; its factor is the amplitude tensor laid out as kept
    modes by traced modes. Tracing nothing gives |psi><psi|; tracing every
    mode is rejected."""
    n_modes = state.n_modes
    traced = sorted(set(int(m) for m in modes_to_trace))
    if any(not 0 <= m < n_modes for m in traced):
        raise ValueError(f"mode indices {traced} out of range for {n_modes} modes")
    if len(traced) == n_modes:
        raise ValueError("cannot trace out every mode")
    kept_idx = [i for i in range(n_modes) if i not in traced]
    kept = tuple(state.mode_cutoffs[i] for i in kept_idx)
    block = np.transpose(state.amplitudes, kept_idx + traced)
    return DensityOperator(kept, block.reshape(math.prod(kept), -1))


def dense(rho) -> np.ndarray:
    """The dense matrix F F+ of a density operator."""
    return rho.factor @ rho.factor.conj().T


def purity(rho) -> float:
    """Tr[rho_hat**2] of the trace-normalized operator, ||F+ F||**2 / tr**2."""
    gram = rho.factor.conj().T @ rho.factor
    return float(np.vdot(gram, gram).real) / rho.trace**2


def mixed_fidelity(a, b) -> float:
    """Fidelity of any two states, squared-overlap convention: |<a|b>|**2,
    <a|rho|a>, or for two mixed states the squared Uhlmann fidelity
    (Tr sqrt(sqrt(rho) sigma sqrt(rho)))**2. All three are
    ||F_a+ F_b||_1**2 over the two traces, with a pure state as a
    one-column factor, over the basis states both cover. ``nlasim.fidelity``
    takes at most one mixed state; this is the reference where both are.
    """
    fa, cut_a = _factor(a)
    fb, cut_b = _factor(b)
    if len(cut_a) != len(cut_b):
        raise ValueError(
            f"mode count mismatch: {len(cut_a)} vs {len(cut_b)}"
        )
    tr_a = float(np.vdot(fa, fa).real)
    tr_b = float(np.vdot(fb, fb).real)
    if tr_a <= 0.0 or tr_b <= 0.0:
        raise ValueError("cannot compare a zero-norm state")
    shared = tuple(slice(min(x, y)) for x, y in zip(cut_a, cut_b))
    sa = fa.reshape(*cut_a, -1)[shared].reshape(-1, fa.shape[1])
    sb = fb.reshape(*cut_b, -1)[shared].reshape(-1, fb.shape[1])
    overlap = sa.conj().T @ sb
    if min(overlap.shape) == 1:
        # the trace norm of a rank-1 matrix is its Frobenius norm
        val = float(np.vdot(overlap, overlap).real)
    else:
        val = float(np.sum(np.linalg.svd(overlap, compute_uv=False))) ** 2
    return float(min(max(val / (tr_a * tr_b), 0.0), 1.0))


def lossy_epr(chi, epsilon, cutoff) -> DensityOperator:
    """Two-mode squeezed state with arm A (mode 0) sent through transmission
    ``epsilon``: the loss purification with its environment traced out."""
    return partial_trace(loss_channel(epr_state(chi, cutoff), epsilon), [2])


# ---------------------------------------------------------------------------
# Fock-space plumbing for the reference routes; the library itself works on
# mode matrices where these would be needed


def annihilation(cutoff: int) -> np.ndarray:
    """Matrix of the annihilation operator a at the given cutoff."""
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=np.float64)), k=1).astype(
        np.complex128
    )


@lru_cache(maxsize=256)
def expm_beamsplitter(t, ci, cj):
    """Dense two-mode beamsplitter unitary on cutoffs (ci, cj): expm of the
    mode-mixing generator theta * (a+ b - a b+), theta = arccos(sqrt(t))."""
    a = np.kron(annihilation(ci), np.eye(cj))
    b = np.kron(np.eye(ci), annihilation(cj))
    gen = a.conj().T @ b - a @ b.conj().T
    # arccos(sqrt(t)) without its rounding blow-up near t = 1
    unitary = expm(math.atan2(math.sqrt(1.0 - t), math.sqrt(t)) * gen)
    unitary.setflags(write=False)
    return unitary


def beamsplitter(state, t, pair) -> MultiModeState:
    """Apply the beamsplitter of transmissivity ``t`` to the ordered mode
    ``pair`` of a pure state, with the sign convention of ``nlasim.optics``.

    The truncated generator is exact only on the photon-number sectors
    S < min(ci, cj) of the pair, so more than 1e-12 probability at or past
    them raises rather than being mixed wrongly.
    """
    i, j = pair
    ci, cj = state.mode_cutoffs[i], state.mode_cutoffs[j]
    amps = np.moveaxis(state.amplitudes, (i, j), (0, 1))
    over = np.add.outer(np.arange(ci), np.arange(cj)) >= min(ci, cj)
    mass = float(np.sum(np.abs(amps[over]) ** 2))
    if mass > 1e-12:
        raise TruncationError(
            f"photon overflow past cutoffs ({ci}, {cj}): sector mass {mass:.3g}"
        )
    flat = expm_beamsplitter(float(t), ci, cj) @ amps.reshape(ci * cj, -1)
    out = np.moveaxis(flat.reshape(amps.shape), (0, 1), (i, j))
    return MultiModeState(state.mode_cutoffs, out)


def pad_state(state, new_cutoffs) -> MultiModeState:
    """Embed a pure state into larger per-mode cutoffs (zero padding)."""
    widths = [(0, n - o) for n, o in zip(new_cutoffs, state.mode_cutoffs)]
    return MultiModeState(tuple(new_cutoffs), np.pad(state.amplitudes, widths))


def project_number(state, mode, n) -> MultiModeState:
    """Project one mode onto |n> and drop it (unnormalized heralding)."""
    cutoffs = state.mode_cutoffs[:mode] + state.mode_cutoffs[mode + 1 :]
    return MultiModeState(cutoffs, np.take(state.amplitudes, n, axis=mode))


def even_splitter(state, inverse=False) -> MultiModeState:
    """Divide mode 0 evenly over every mode of an N-mode state, or undo it.

    Arm k = 1..N-1 peels off from arm k-1 with transmissivity
    1/(N - k + 1), leaving amplitude alpha/sqrt(N) in every arm; the
    inverse runs the cascade backwards with each pair swapped.
    """
    n = state.n_modes
    for k in range(n - 1, 0, -1) if inverse else range(1, n):
        pair = (k - 1, k) if inverse else (k, k - 1)
        state = beamsplitter(state, 1.0 / (n - k + 1), pair)
    return state


def dense_purity_product(rho) -> tuple[float, float]:
    """(v_minus, v_plus) from kron-built two-mode quadrature operators O,
    applied to the trace-normalized factor F: Tr rho O = <F, O F> and
    Tr rho O**2 = ||O F||**2 for Hermitian O."""
    fac = rho.factor / math.sqrt(rho.trace)
    ca, cb = rho.basis_cutoffs
    xs, ps = [], []
    for m, c in enumerate((ca, cb)):
        a = annihilation(c)
        for ops, op in ((xs, a + a.conj().T), (ps, -1j * (a - a.conj().T))):
            ops.append(np.kron(op, np.eye(cb)) if m == 0 else np.kron(np.eye(ca), op))

    def variance(op):
        applied = op @ fac
        mean = np.vdot(fac, applied).real
        return np.vdot(applied, applied).real - mean**2

    v_x = {sign: variance(xs[0] + sign * xs[1]) / 2.0 for sign in (-1.0, +1.0)}
    sign = min(v_x, key=v_x.get)
    return v_x[sign], variance(ps[0] + sign * ps[1]) / 2.0


def purity_product(state) -> PurityReport:
    """Squeezed and anti-squeezed quadrature-correlation variances of a
    two-mode state.

    Quadratures are X = a + a+ and P = -i(a - a+) with vacuum variance 1.
    The squeezed combination is the smaller-variance sign of
    (X_A +/- X_B)/sqrt(2); the anti-squeezed one is its noncommuting
    conjugate, the same-sign combination (P_A +/- P_B)/sqrt(2), so the
    product obeys the uncertainty bound >= 1. A pure two-mode squeezed
    state with parameter chi = tanh(r) gives exp(-2r), exp(+2r) and
    product 1.

    The variances come from the moments <n>, <a> and <a**2> of each mode
    and <ab>, <ab+>, each one contraction of the factor with a shifted
    slice of itself. They keep the truncated operators' algebra: in a
    basis cut at c, a a+ = a+ a + 1 - c |c-1><c-1|. This factor route,
    for any two-mode state, is what ``distill_numeric``'s sector report is
    checked against.
    """
    factor, cutoffs = _factor(state)
    if len(cutoffs) != 2:
        raise ValueError("purity product is defined for two-mode states")
    success = float(np.vdot(factor, factor).real)
    if success <= 0.0:
        raise ValueError("purity product of a zero-norm state")
    ca, cb = cutoffs
    # real and imaginary parts interleaved on the last axis: the real part
    # of sum_r conj(x) y is the plain dot of two such rows
    flat = factor.reshape(ca, cb, -1).view(np.float64)
    real, imag = flat[..., 0::2], flat[..., 1::2]
    root_a, root_b = np.sqrt(np.arange(1, ca)), np.sqrt(np.arange(1, cb))
    one_a, one_b = np.ones(ca), np.ones(cb)

    def moment(bra_at, ket_at, weight_a, weight_b, x=flat, y=flat):
        # sum of weight_a[a] weight_b[b] x[bra_at] . y[ket_at] over the trace;
        # with x = y = flat, Re <conj(F[bra_at]), F[ket_at]>
        pairs = np.einsum("abj,abj->ab", x[bra_at], y[ket_at])
        return float(weight_a @ pairs @ weight_b) / success

    def imag_moment(*at):
        # Im conj(x) y = Re x Im y - Im x Re y
        return moment(*at, real, imag) - moment(*at, imag, real)

    # each lowering operator pairs a level with the one above it
    lower_a = (np.s_[:-1], np.s_[1:], root_a, one_b)
    lower_b = (np.s_[:, :-1], np.s_[:, 1:], one_a, root_b)
    lower_a2 = (np.s_[:-2], np.s_[2:], root_a[:-1] * root_a[1:], one_b)
    lower_b2 = (np.s_[:, :-2], np.s_[:, 2:], one_a, root_b[:-1] * root_b[1:])
    lower_ab = (np.s_[:-1, :-1], np.s_[1:, 1:], root_a, root_b)
    swap_ab = (np.s_[:-1, 1:], np.s_[1:, :-1], root_a, root_b)  # a b+

    probs = np.einsum("abj,abj->ab", flat, flat) / success
    mass_a, mass_b = probs.sum(axis=1), probs.sum(axis=0)
    n_a, n_b = float(np.arange(ca) @ mass_a), float(np.arange(cb) @ mass_b)
    # <a a+ + a+ a> = 2<n> + 1 - c p(c-1) on the truncated basis
    sym_a = 2.0 * n_a + 1.0 - ca * mass_a[-1]
    sym_b = 2.0 * n_b + 1.0 - cb * mass_b[-1]
    a2, b2 = moment(*lower_a2), moment(*lower_b2)
    ab, swap = moment(*lower_ab), moment(*swap_ab)

    x_a, x_b = 2.0 * moment(*lower_a), 2.0 * moment(*lower_b)
    p_a, p_b = 2.0 * imag_moment(*lower_a), 2.0 * imag_moment(*lower_b)
    x_a2, x_b2 = sym_a + 2.0 * a2, sym_b + 2.0 * b2
    p_a2, p_b2 = sym_a - 2.0 * a2, sym_b - 2.0 * b2
    x_ab, p_ab = 2.0 * (swap + ab), 2.0 * (swap - ab)

    def variance(sign, mean_a, mean_b, sq_a, sq_b, cross):
        # variance of (O_A + sign O_B) / sqrt(2)
        mean = mean_a + sign * mean_b
        return (sq_a + sq_b + 2.0 * sign * cross - mean**2) / 2.0

    v_x = {sign: variance(sign, x_a, x_b, x_a2, x_b2, x_ab) for sign in (-1.0, +1.0)}
    sign = min(v_x, key=v_x.get)
    v_minus = v_x[sign]
    v_plus = variance(sign, p_a, p_b, p_a2, p_b2, p_ab)
    return PurityReport(v_minus, v_plus, v_minus * v_plus, success)


# ---------------------------------------------------------------------------
# Monte-Carlo reference for the postselected prior; the library checks the
# same map through the ideal map on a thermal input, with no random draws


def sample_postselected_variance(
    prior_variance: float,
    gain: float,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> dict:
    """Monte-Carlo check of the postselected-prior variance map.

    Draws complex amplitudes from the prior, accepts by rejection against
    the maximum of the success weight exp((g**2 - 1) |alpha|**2) on a disk
    and returns the empirical mean of |alpha|**2 with its standard error.
    The disk, of squared radius 14 * max(d', d), is sized so the clipped
    tail bias is negligible against the statistical error.
    """
    expected = postselected_prior_variance(prior_variance, gain)
    radius_sq = 14.0 * max(expected, prior_variance)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(prior_variance / 2.0)
    re = rng.normal(0.0, scale, n_samples)
    im = rng.normal(0.0, scale, n_samples)
    mag_sq = re**2 + im**2
    log_weight = (gain**2 - 1.0) * (mag_sq - radius_sq)
    accept = (mag_sq <= radius_sq) & (rng.random(n_samples) < np.exp(log_weight))
    kept = mag_sq[accept]
    return {
        "expected": expected,
        "estimate": float(kept.mean()),
        "stderr": float(kept.std(ddof=1) / math.sqrt(kept.size)),
        "n_accepted": int(kept.size),
    }
