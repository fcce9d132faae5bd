"""Applications of the amplifier: coherent-state cloning and
entanglement distillation through a lossy line, plus the quadrature
purity figure of merit used to score the distilled states."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonconvergentError
from .fock import (
    DensityOperator,
    MultiModeState,
    _coherent_cutoff,
    _count,
    _epr_cutoff,
    _epr_schmidt,
    _real,
    _refuse_above,
    coherent_state,
    fidelity,
    norm_sq,
)
from .nla import (
    _gain_squared,
    _ideal_map,
    eta_from_gain,
    gain_from_eta,
    nla_apply,
    nla_apply_asymptotic,
    nla_operator,
)
from .optics import _lose, loss_channel


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

    The quadratures are X = a + a+ and P = -i(a - a+), with vacuum
    variance 1. ``v_minus`` is the variance of the squeezed combination,
    the smaller-variance sign of (X_A +/- X_B)/sqrt(2); ``v_plus`` that
    of its anti-squeezed conjugate (P_A +/- P_B)/sqrt(2). Their product
    obeys the uncertainty bound >= 1, is 1 exactly for pure two-mode
    squeezing (exp(-2r) and exp(+2r) at chi = tanh(r)) and grows with
    mixedness.
    """

    v_minus: float
    v_plus: float
    product: float
    success_prob: float


def _boost(epsilon: float, gain_sq: float) -> float:
    """1 + (g**2 - 1) eps, summed as (1 - eps) + g**2 eps: two nonnegative
    terms, so a lossless line keeps eps' = 1 exactly."""
    return (1.0 - epsilon) + gain_sq * epsilon


def distill_params(chi: float, epsilon: float, gain: float) -> EffectiveEprParams:
    """Effective parameters after amplifying the lossy arm with ``gain``:

        chi' = chi * sqrt(1 + (g**2 - 1) * eps)
        eps' = g**2 * eps / (1 + (g**2 - 1) * eps)

    Unphysical requests (chi' >= 1) are flagged, not raised. The boost is
    ``_boost``, so a lossless line keeps eps' = 1 exactly.
    """
    _real(chi, "chi", 0.0, 1.0, "[)")
    _real(epsilon, "transmission", 0.0, 1.0)
    gain_sq = _gain_squared(gain)
    boost = _boost(epsilon, gain_sq)
    chi_prime = chi * math.sqrt(boost)
    eps_prime = gain_sq * epsilon / boost
    return EffectiveEprParams(chi_prime, eps_prime, chi_prime < 1.0)


def _lossy_sectors(chis, epsilons, cutoff: int, kept: int | None = None):
    """Schmidt vectors of two-mode squeezed states, one row per chi, and
    the amplitudes G[k, a] of |a>_A |a + k>_B |k>_E once each state's arm A
    has lost k photons through its transmission in ``epsilons``: the loss
    kernel on the Schmidt vectors, whose rows share one binomial table.

    Loss keeps n_B - n_A = k and the amplifier is diagonal, so these
    numbers, zero where a + k >= cutoff, fix the state. Only the columns
    a < ``kept`` are built: an N-arm amplifier zeroes every column past N.
    """
    schmidt = np.array([_epr_schmidt(chi, cutoff) for chi in chis])
    return schmidt, _lose(schmidt, epsilons, kept)


def _sector_density(sectors: np.ndarray) -> DensityOperator:
    """rho_AB = sum_k |v_k><v_k| with v_k = sum_a G[k, a] |a>|a + k>: the
    factor F[a c + a + k, k] = G[k, a], the purification's amplitudes with
    the loss mode as the factor's column index. G may hold only its first
    columns a, the others being zero. The purity report is read off G
    instead (``_sector_purity``).

    F[a c + a + k, k] is entry (c + 1)(a c + k) of the flat factor, so G's
    columns, laid end to end, fill every (c + 1)-th entry. Where a + k >= c
    that entry belongs to no sector and G's zero is written over a zero;
    the last column a = c - 1 stops after its one entry, k = 0.
    """
    cutoff, kept = sectors.shape
    factor = np.zeros((cutoff * cutoff, cutoff), dtype=np.complex128)
    runs = factor.reshape(-1)[:: cutoff + 1]
    filled = min(kept * cutoff, runs.size)
    runs[:filled] = sectors.T.reshape(-1)[:filled]
    # read-only, so the operator keeps it rather than copying 16 c**3 bytes
    factor.setflags(write=False)
    return DensityOperator((cutoff, cutoff), factor)


def _sector_purity(sectors: np.ndarray) -> PurityReport:
    """``PurityReport`` of ``_sector_density(sectors)``, read off G, in the
    truncated operators' algebra: a a+ = a+ a + 1 - c |c-1><c-1| in a
    basis cut at c.

    Each v_k lies in the one sector b = a + k, so <a>, <a**2>, <ab+> and
    every imaginary part vanish. What is left is <n_A>, <n_B>, <ab> and the
    top-level masses of the truncated basis: mode A reaches level c - 1
    only at k = 0, and mode B on the antidiagonal a + k = c - 1. When G
    holds only its first columns a < kept, mode A's top level lies inside
    them only if kept = c, and the antidiagonal lies in the last kept rows.
    A success probability below the float64 normal range raises
    ``ValueError``: dividing by it would lose digits or divide by zero.
    """
    cutoff, kept = sectors.shape
    probs = sectors * sectors
    success = float(probs.sum())
    if success < sys.float_info.min:
        raise ValueError(
            f"success probability {success:.3g} lies below the float64 normal range"
        )
    level = np.arange(cutoff)
    n_a = float(level[:kept] @ probs.sum(axis=0)) / success
    n_b = n_a + float(level @ probs.sum(axis=1)) / success
    # ab takes |a + 1>|a + 1 + k> to |a>|a + k> at sqrt((a + 1)(a + 1 + k))
    root = np.sqrt(level[1:kept] * (level[1:kept] + level[:, None]))
    ab = float((root * (sectors[:, :-1] * sectors[:, 1:])).sum()) / success
    # <a a+ + a+ a> = 2<n> + 1 - c p(c-1) for each mode
    top_a = float(probs[0, -1]) if kept == cutoff else 0.0
    top_b = float(probs[cutoff - kept :, ::-1].trace())
    sym_a = 2.0 * n_a + 1.0 - cutoff * top_a / success
    sym_b = 2.0 * n_b + 1.0 - cutoff * top_b / success
    v_minus = (sym_a + sym_b - 4.0 * abs(ab)) / 2.0
    v_plus = (sym_a + sym_b + 4.0 * abs(ab)) / 2.0
    return PurityReport(v_minus, v_plus, v_minus * v_plus, success)


#: Largest loss purification a run may allocate, in bytes. A distillation
#: point no longer builds the purification, and computes its numbers from
#: (c, N + 1) sector columns, or (c, c) on the ideal map. Only its
#: c**2 x c factor, which ``distill_numeric`` returns, takes the same
#: 16 * cutoff**3 bytes: a ``distill`` op builds it only for ``target_r``,
#: while ``fig4`` still builds one a point and discards it. At cutoff 160
#: a run that builds the factor peaks at 1.0002 times it at 2 arms and
#: 1.009 times on the ideal map. This limit admits distillation cutoffs up
#: to 161 and is checked before any state is built, factor or not.
MAX_PURIFICATION_BYTES = 64 * 2**20


def _distill_gain(arm_count, eta, gain) -> tuple[float | None, float]:
    """The (eta, gain) a distillation run amplifies with, from exactly one
    of them. At finite arm count eta sets the amplifier, so a given gain
    is read back through eta and the target is built at that gain."""
    if (eta is None) == (gain is None):
        raise ValueError("give exactly one of eta / gain")
    if eta is None and arm_count is not None:
        eta = eta_from_gain(gain)
    if eta is not None:
        gain = gain_from_eta(eta)
    return eta, gain


@dataclass(frozen=True)
class _DistillPoint:
    """One distillation point: the read-only sector columns G[k, a] of the
    distilled state, its fidelity and ``PurityReport``, and the cutoff, eta,
    gain and effective parameters the run used. ``_sector_density(sectors)``
    is the state as a factor."""

    sectors: np.ndarray
    fidelity: float
    purity: PurityReport
    cutoff: int
    eta: float | None
    gain: float
    params: EffectiveEprParams


def _distill_point(
    chi: float,
    epsilon: float,
    arm_count: int | None = None,
    eta: float | None = None,
    cutoff: int | None = None,
    *,
    gain: float | None = None,
) -> _DistillPoint:
    """``distill_numeric``'s run, without building the factor.

    The run works on the photon-difference sectors G[k, a] of
    ``_lossy_sectors``, from the loss kernel ``loss_channel`` uses too. The
    amplifier scales their columns a. An N-arm amplifier zeroes every
    column past N, so a finite run builds only the (c, N + 1) columns it
    keeps, and the target's matching ones; the ideal map scales all c
    columns in place (``nla._ideal_map``). The state and the target are
    both sums over k of one vector on the diagonal b = a + k, so the
    overlap of their factors is diagonal in k with nonnegative entries and
    its trace norm is the plain overlap, which only the state's columns
    reach. Loss is an isometry on the purification, so the target's norm
    is its Schmidt vector's. The purity report and the success probability
    are read off the columns in one pass (``_sector_purity``).
    """
    arm_count = _count(arm_count, "arm_count", optional=True)
    cutoff = _count(cutoff, "cutoff", optional=True)
    eta, gain = _distill_gain(arm_count, eta, gain)
    params = distill_params(chi, epsilon, gain)
    if cutoff is None:
        remedy = "lower the source squeezing or the gain"
        cutoff = _epr_cutoff((chi, params.chi_prime), arm_count, remedy)
    most = f"use a cutoff of at most {int((MAX_PURIFICATION_BYTES // 16) ** (1 / 3))}"
    what = f"the loss purification at cutoff {cutoff}"
    _refuse_above(16 * cutoff**3, MAX_PURIFICATION_BYTES, what, most)
    # the state, and the target if chi' < 1 gives one, on one binomial table
    rows = 2 if params.physical else 1
    chis, epsilons = (chi, params.chi_prime)[:rows], (epsilon, params.eps_prime)[:rows]
    kept = None if arm_count is None else arm_count + 1
    schmidt, lossy = _lossy_sectors(chis, epsilons, cutoff, kept)
    sectors = lossy[0]
    if arm_count is None:
        _ideal_map(sectors, gain, 1)
    else:
        sectors *= nla_operator(arm_count, eta, sectors.shape[1])
    purity = _sector_purity(sectors)

    if params.physical:
        norms = purity.success_prob * float(np.vdot(schmidt[1], schmidt[1]))
        fid = min(max(float(np.vdot(sectors, lossy[1])) ** 2 / norms, 0.0), 1.0)
    else:
        fid = math.nan
    sectors.setflags(write=False)
    return _DistillPoint(sectors, fid, purity, cutoff, eta, gain, params)


def distill_numeric(
    chi: float,
    epsilon: float,
    arm_count: int | None = None,
    eta: float | None = None,
    cutoff: int | None = None,
    *,
    gain: float | None = None,
) -> tuple[DensityOperator, float, PurityReport]:
    """Full numeric distillation run.

    Sends arm A (mode 0) of the two-mode squeezed state through the lossy
    line, amplifies it, traces out the loss mode and returns the state, its
    fidelity against the analytic target (the lossy state with the
    effective parameters) and its quadrature ``PurityReport``. Exactly one of
    ``eta`` and ``gain`` sets the amplifier. Finite runs need ``arm_count``
    and return the unnormalized state whose trace is the success
    probability; with ``arm_count=None`` the ideal map at that gain is used
    instead, its output has trace 1 and no probability is defined.

    The numbers come from the sector columns of ``_distill_point``; only
    the returned state is their c**2 x c factor (``_sector_density``), and
    it takes 16 * cutoff**3 bytes. So the ``distill`` table reads the point
    and builds the factor only for ``target_r``; ``fig4`` still calls this
    function and discards each point's factor.
    """
    point = _distill_point(chi, epsilon, arm_count, eta, cutoff, gain=gain)
    return _sector_density(point.sectors), point.fidelity, point.purity


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
    arm_count = _count(arm_count, "arm_count", optional=True)
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
    """Fidelity of each reduced clone against the ideal coherent state.

    The pair's amplitudes are the factor of the first clone's reduced
    state, and their transpose that of the second."""
    target = coherent_state(alpha)
    amps = pair.amplitudes
    rho_a = DensityOperator(pair.mode_cutoffs[:1], amps)
    rho_b = DensityOperator(pair.mode_cutoffs[1:], amps.T)
    return fidelity(rho_a, target), fidelity(rho_b, target)


def postselected_prior_variance(prior_variance: float, gain: float) -> float:
    """Variance of the coherent-amplitude prior after postselection.

    A Gaussian ensemble p(alpha) ~ exp(-|alpha|**2 / d) reweighted by the
    state-dependent success probability ~ exp((g**2 - 1) |alpha|**2) stays
    Gaussian with d' = d / (1 - (g**2 - 1) d); once (g**2 - 1) d >= 1 the
    reweighted distribution is not normalizable.
    """
    _real(prior_variance, "prior_variance", 0.0, math.inf, "[)")
    excess = (_gain_squared(gain) - 1.0) * prior_variance
    if excess >= 1.0:
        raise NonconvergentError(
            f"postselected prior diverges: (g**2 - 1) * d = {excess:.6g} >= 1"
        )
    return prior_variance / (1.0 - excess)

