"""Applications of the amplifier: coherent-state cloning and
entanglement distillation through a lossy line, plus the quadrature
purity figure of merit used to score the distilled states."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonconvergentError, TruncationError
from .fock import (
    DensityOperator,
    MultiModeState,
    annihilation,
    coherent_state,
    density_from_state,
    epr_state,
    fidelity,
    minimal_coherent_cutoff,
    minimal_epr_cutoff,
    norm_sq,
    partial_trace,
)
from .nla import (
    _gain_squared,
    eta_from_gain,
    gain_from_eta,
    nla_apply,
    nla_apply_asymptotic,
)
from .optics import loss_channel


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


def lossy_epr(chi: float, epsilon: float, cutoff: int) -> DensityOperator:
    """Two-mode squeezed state with one arm sent through transmission
    ``epsilon``; the analytic target of the distillation pipeline."""
    return partial_trace(loss_channel(epr_state(chi, cutoff), epsilon, mode=0), [2])


#: Largest cutoff the automatic sizing will pick. The loss is exact at any
#: cutoff; what grows is the purification of a distillation
#: point, cutoff**3 amplitudes (65 MB at cutoff 160), and its run time. The
#: cap holds until a large-cutoff benchmark workload has measured that cost.
AUTO_CUTOFF_CAP = 40


def _cap_auto_cutoff(cutoff: int, remedy: str) -> int:
    if cutoff > AUTO_CUTOFF_CAP:
        raise TruncationError(
            f"this run needs cutoff {cutoff} (> {AUTO_CUTOFF_CAP}) to keep "
            "truncation tails below 1e-12; pass an explicit cutoff to accept "
            f"the cost, or {remedy}"
        )
    return cutoff


#: Largest loss purification a distillation point may allocate, in bytes.
#: The purification holds 16 * cutoff**3 bytes and a run peaks at about
#: eight times that: cutoff 160 (62.5 MiB) peaks at 534 MB RSS. This limit
#: admits cutoffs up to 161 and is checked before any state is built.
MAX_PURIFICATION_BYTES = 64 * 2**20


def _distill_cutoff(chi: float, chi_prime: float, arm_count: int | None) -> int:
    cutoff = minimal_epr_cutoff(chi)
    if chi_prime < 1.0:
        cutoff = max(cutoff, minimal_epr_cutoff(chi_prime))
    if arm_count is not None:
        cutoff = max(cutoff, arm_count + 1)
    return _cap_auto_cutoff(cutoff, "lower the source squeezing or the gain")


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

    Builds the loss purification of the two-mode squeezed state, amplifies
    the transmitted arm (mode 0), traces out the loss mode and reports the
    fidelity against the analytic target, the lossy state with the
    effective parameters. Exactly one of ``eta`` and ``gain`` sets the
    amplifier. Finite runs need ``arm_count`` and return the unnormalized
    state whose trace is the success probability; with ``arm_count=None``
    the ideal map at that gain is used instead, its output has trace 1 and
    no probability is defined.
    """
    if (eta is None) == (gain is None):
        raise ValueError("exactly one of eta / gain must be given")
    if eta is None and arm_count is not None:
        eta = eta_from_gain(gain)
    if eta is not None:
        gain = gain_from_eta(eta)

    params = distill_params(chi, epsilon, gain)
    if cutoff is None:
        cutoff = _distill_cutoff(chi, params.chi_prime, arm_count)

    size = 16 * cutoff**3
    if size > MAX_PURIFICATION_BYTES:
        raise ValueError(
            f"cutoff {cutoff} needs a {size / 2**20:.0f} MiB loss purification, "
            f"above the {MAX_PURIFICATION_BYTES // 2**20} MiB limit; "
            "use a cutoff of at most "
            f"{int((MAX_PURIFICATION_BYTES // 16) ** (1 / 3))}"
        )
    source = epr_state(chi, cutoff)
    purified = loss_channel(source, epsilon, mode=0)
    if arm_count is None:
        amplified = nla_apply_asymptotic(purified, gain, mode=0)
    else:
        amplified = nla_apply(purified, arm_count, eta, mode=0)
    rho = partial_trace(amplified, [2])

    if params.physical:
        target = lossy_epr(params.chi_prime, params.eps_prime, cutoff)
        fid = fidelity(rho, target)
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
    if cutoff is None:
        cutoff = _cap_auto_cutoff(
            max(
                minimal_coherent_cutoff(gain * alpha),
                minimal_coherent_cutoff(alpha),
                (arm_count or 0) + 1,
            ),
            "lower alpha or the gain",
        )
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
    """
    if isinstance(state, DensityOperator):
        rho = state
    else:
        rho = density_from_state(state)
    if rho.n_modes != 2:
        raise ValueError("purity product is defined for two-mode states")
    success = rho.trace
    ten = rho.factor.reshape(*rho.basis_cutoffs, -1)
    quads = []
    for axis, cutoff in enumerate(rho.basis_cutoffs):
        a = annihilation(cutoff)
        for op in (a + a.conj().T, -1j * (a - a.conj().T)):
            # the single-mode operator applied to one axis of F
            quads.append(np.moveaxis(np.tensordot(op, ten, (1, axis)), 0, axis))
    xa, pa, xb, pb = quads

    def variance(op_ten):
        # <O> = Re Tr F+ O F and <O**2> = ||O F||**2, over the trace
        mean = float(np.vdot(ten, op_ten).real) / success
        return float(np.vdot(op_ten, op_ten).real) / success - mean**2

    v_x = {sign: variance(xa + sign * xb) / 2.0 for sign in (-1.0, +1.0)}
    sign = min(v_x, key=v_x.get)
    v_minus = v_x[sign]
    v_plus = variance(pa + sign * pb) / 2.0
    return PurityReport(v_minus, v_plus, v_minus * v_plus, success)

