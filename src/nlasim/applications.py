"""Applications of the amplifier: coherent-state cloning and
entanglement distillation through a lossy line, plus the quadrature
purity figure of merit used to score the distilled states."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonconvergentError
from .fock import (
    DensityOperator,
    MultiModeState,
    _coherent_cutoff,
    _epr_cutoff,
    _refuse_above,
    coherent_state,
    density_from_state,
    epr_state,
    fidelity,
    norm_sq,
    partial_trace,
)
from .nla import (
    _check_convergent,
    _gain_squared,
    _ideal_coefficients,
    eta_from_gain,
    gain_from_eta,
    nla_apply,
    nla_apply_asymptotic,
    nla_operator,
)
from .optics import _loss_weights, loss_channel


@dataclass(frozen=True)
class EffectiveEprParams:
    """Effective two-mode squeezing and line transmission after amplifying
    the lossy arm; ``physical`` is False once chi_prime reaches 1."""

    chi_prime: float
    eps_prime: float
    physical: bool


@dataclass(frozen=True)
class PurityReport:
    """Quadrature-correlation variances of a two-mode state.

    ``v_minus`` is the squeezed combination (the smaller of the two signs),
    ``v_plus`` the conjugate anti-squeezed one, both normalized so vacuum
    gives 1. Their product is 1 exactly for pure two-mode squeezing and
    grows with mixedness.
    """

    v_minus: float
    v_plus: float
    product: float
    success_prob: float | None


def distill_params(chi: float, epsilon: float, gain: float) -> EffectiveEprParams:
    """Effective parameters after amplifying the lossy arm with ``gain``:

        chi' = chi * sqrt(1 + (g**2 - 1) * eps)
        eps' = g**2 * eps / (1 + (g**2 - 1) * eps)

    Unphysical requests (chi' >= 1) are flagged, not raised.
    """
    if not 0.0 <= chi < 1.0:
        raise ValueError("chi must lie in [0, 1)")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    gain_sq = _gain_squared(gain)
    boost = 1.0 + (gain_sq - 1.0) * epsilon
    chi_prime = chi * math.sqrt(boost)
    eps_prime = gain_sq * epsilon / boost
    return EffectiveEprParams(chi_prime, eps_prime, chi_prime < 1.0)


def _lossy_sectors(source: MultiModeState, epsilon: float, coeffs=None) -> np.ndarray:
    """Amplitudes G[k, a] of |a>_A |a + k>_B |k>_E once arm A of the
    two-mode squeezed ``source`` has lost k photons through transmission
    ``epsilon`` and its a kept photons are scaled by ``coeffs[a]``.

    Loss keeps n_B - n_A = k and the amplifier is diagonal, so these
    numbers, zero where a + k >= cutoff, fix the state. The products run
    in the order of loss_channel then nla_apply.
    """
    cutoff = source.mode_cutoffs[0]
    diag = np.concatenate((np.diagonal(source.amplitudes).real, np.zeros(cutoff - 1)))
    photons = np.arange(cutoff)
    # diag[a + k], the source amplitude of the a + k photons A started with
    sectors = diag[np.add.outer(photons, photons)] * _loss_weights(epsilon, cutoff)
    return sectors if coeffs is None else sectors * coeffs


def _sector_density(sectors: np.ndarray) -> DensityOperator:
    """rho_AB = sum_k |v_k><v_k| with v_k = sum_a G[k, a] |a>|a + k>: the
    factor F[a c + a + k, k] = G[k, a], as partial_trace lays out the
    purification with the loss mode traced."""
    cutoff = sectors.shape[0]
    k, a = np.nonzero(sectors)
    factor = np.zeros((cutoff * cutoff, cutoff), dtype=np.complex128)
    factor[a * (cutoff + 1) + k, k] = sectors[k, a]
    # read-only, so the operator keeps it rather than copying 16 c**3 bytes
    factor.setflags(write=False)
    return DensityOperator((cutoff, cutoff), factor)


def lossy_epr(chi: float, epsilon: float, cutoff: int) -> DensityOperator:
    """Two-mode squeezed state with one arm sent through transmission
    ``epsilon``; the analytic target of the distillation pipeline."""
    return _sector_density(_lossy_sectors(epr_state(chi, cutoff), epsilon))


#: Largest loss purification a run may allocate, in bytes. A distillation
#: point no longer builds the purification, but it returns a factor of the
#: same 16 * cutoff**3 bytes, and the run with its purity_product peaks at
#: 1.03 times that at cutoff 160. This limit admits distillation cutoffs up
#: to 161 and is checked before any state is built.
MAX_PURIFICATION_BYTES = 64 * 2**20


def distill_numeric(
    chi: float,
    epsilon: float,
    arm_count: int | None = None,
    eta: float | None = None,
    cutoff: int | None = None,
    *,
    gain: float | None = None,
) -> tuple[DensityOperator, float]:
    """Full numeric distillation run.

    Sends arm A (mode 0) of the two-mode squeezed state through the lossy
    line, amplifies it, traces out the loss mode and reports the fidelity
    against the analytic target, the lossy state with the effective
    parameters. Exactly one of ``eta`` and ``gain`` sets the amplifier.
    Finite runs need ``arm_count`` and return the unnormalized state whose
    trace is the success probability; with ``arm_count=None`` the ideal map
    at that gain is used instead, its output has trace 1 and no
    probability is defined.

    The run works on the photon-difference sectors of ``_lossy_sectors``:
    the state and the target are both sums over k of one vector on the
    diagonal b = a + k, so the overlap of their factors is diagonal in k
    with nonnegative entries and its trace norm is the plain overlap.
    """
    if (eta is None) == (gain is None):
        raise ValueError("exactly one of eta / gain must be given")
    if eta is None and arm_count is not None:
        eta = eta_from_gain(gain)
    if eta is not None:
        gain = gain_from_eta(eta)

    params = distill_params(chi, epsilon, gain)
    if cutoff is None:
        remedy = "lower the source squeezing or the gain"
        cutoff = _epr_cutoff((chi, params.chi_prime), arm_count, remedy)
    most = f"use a cutoff of at most {int((MAX_PURIFICATION_BYTES // 16) ** (1 / 3))}"
    what = f"the loss purification at cutoff {cutoff}"
    _refuse_above(16 * cutoff**3, MAX_PURIFICATION_BYTES, what, most)
    source = epr_state(chi, cutoff)
    if arm_count is None:
        sectors = _lossy_sectors(source, epsilon, _ideal_coefficients(gain, cutoff))
        weights = sectors**2
        # the A marginal, sum over k of G[k, a]**2, must decay by the cutoff
        _check_convergent(weights.sum(axis=0), gain)
        # the ideal map has no herald: its output is renormalized
        sectors /= math.sqrt(float(weights.sum()))
    else:
        sectors = _lossy_sectors(source, epsilon, nla_operator(arm_count, eta, cutoff))
    rho = _sector_density(sectors)

    if params.physical:
        target = _lossy_sectors(epr_state(params.chi_prime, cutoff), params.eps_prime)
        norms = float(np.vdot(sectors, sectors)) * float(np.vdot(target, target))
        fid = min(max(float(np.vdot(sectors, target)) ** 2 / norms, 0.0), 1.0)
    else:
        fid = math.nan
    return rho, fid


def clone_coherent(
    alpha: complex,
    arm_count: int | None = None,
    eta: float = 1.0 / 3.0,
    cutoff: int | None = None,
) -> tuple[MultiModeState, float | None]:
    """Duplicate a coherent state: amplify to sqrt(2) alpha, then split
    50:50 against vacuum so both outputs carry amplitude alpha.

    ``eta = 1/3`` realizes the required gain sqrt(2) exactly. Returns the
    pair and the success probability, the squared norm of the amplified
    state before the split. With ``arm_count=None`` the ideal map is used,
    each clone is exact and the probability is ``None``; at finite arm
    count the pair is unnormalized.
    """
    alpha = complex(alpha)
    gain = gain_from_eta(eta)
    cutoff = _coherent_cutoff(
        (alpha, gain * alpha), arm_count, cutoff, "lower alpha or the gain"
    )
    # the split peaks at 48 bytes a level pair: the pair, the copy its
    # state takes and two float64 weight tables
    most = f"use a cutoff of at most {math.isqrt(MAX_PURIFICATION_BYTES // 48)}"
    what = f"the clone pair at cutoff {cutoff}"
    _refuse_above(48 * cutoff**2, MAX_PURIFICATION_BYTES, what, most)
    source = coherent_state(alpha, cutoff)
    if arm_count is None:
        amplified = nla_apply_asymptotic(source, gain)
        prob = None
    else:
        amplified = nla_apply(source, arm_count, eta)
        prob = norm_sq(amplified)
    # the 50:50 split against vacuum is a loss of transmission 1/2: the
    # mode and the environment appended after it both carry +alpha
    return loss_channel(amplified, 0.5), prob


def clone_fidelities(pair: MultiModeState, alpha: complex) -> tuple[float, float]:
    """Fidelity of each reduced clone against the ideal coherent state."""
    target = coherent_state(alpha)
    rho_a = partial_trace(pair, [1])
    rho_b = partial_trace(pair, [0])
    return fidelity(rho_a, target), fidelity(rho_b, target)


def postselected_prior_variance(prior_variance: float, gain: float) -> float:
    """Variance of the coherent-amplitude prior after postselection.

    A Gaussian ensemble p(alpha) ~ exp(-|alpha|**2 / d) reweighted by the
    state-dependent success probability ~ exp((g**2 - 1) |alpha|**2) stays
    Gaussian with d' = d / (1 - (g**2 - 1) d); once (g**2 - 1) d >= 1 the
    reweighted distribution is not normalizable.
    """
    if prior_variance < 0.0:
        raise ValueError("variance must be nonnegative")
    excess = (_gain_squared(gain) - 1.0) * prior_variance
    if excess >= 1.0:
        raise NonconvergentError(
            f"postselected prior diverges: (g**2 - 1) * d = {excess:.6g} >= 1"
        )
    return prior_variance / (1.0 - excess)


#: Fewest accepted draws the Monte-Carlo check reports on. Its k accepted
#: |alpha|**2 are exponential with mean d', so their sum is d'/2 times a
#: chi-squared(2k) variable, mapped to z by the Wilson-Hilferty cube root.
#: About 0.35% of draws are accepted: a budget of 1,000 keeps two to five.
MIN_ACCEPTED_SAMPLES = 30


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
    if kept.size < MIN_ACCEPTED_SAMPLES:
        raise ValueError(
            f"only {kept.size} of {n_samples} draws accepted, fewer than "
            f"{MIN_ACCEPTED_SAMPLES}; raise the sample budget (--samples)"
        )
    estimate = float(kept.mean())
    stderr = float(kept.std(ddof=1) / math.sqrt(kept.size))
    return {
        "expected": expected,
        "estimate": estimate,
        "stderr": stderr,
        "n_accepted": int(kept.size),
    }


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
    basis cut at c, a a+ = a+ a + 1 - c |c-1><c-1|.
    """
    if isinstance(state, DensityOperator):
        rho = state
    else:
        rho = density_from_state(state)
    if rho.n_modes != 2:
        raise ValueError("purity product is defined for two-mode states")
    success = rho.trace
    ca, cb = rho.basis_cutoffs
    # real and imaginary parts interleaved on the last axis: the real part
    # of sum_r conj(x) y is the plain dot of two such rows
    flat = rho.factor.reshape(ca, cb, -1).view(np.float64)
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
