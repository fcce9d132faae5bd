"""The heralded noiseless linear amplifier.

A single scissors stage truncates a mode to the {|0>, |1>} subspace while
rescaling the one-photon amplitude by the gain g = sqrt((1 - eta) / eta),
heralded by exactly one click on its detector pair. Splitting the input
over N arms, running one stage per arm and recombining yields, conditioned
on success, the diagonal map

    |n>  ->  eta**(N/2) * N! / ((N - n)! N**n) * g**n * |n>      (n <= N)

with everything above N photons cut off. Both click patterns per arm are
accepted (the odd one after a pi feed-forward), so there are 2**N accepted
patterns in total and the squared norm of the mapped state is the full
success probability.

``physical_circuit`` re-derives all of this by brute force from
beamsplitters, single-photon ancillas and projective detection; it is the
oracle the closed form is tested against.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NonconvergentError
from .fock import (
    DensityOperator,
    ModeOperator,
    MultiModeState,
    _pure,
    norm_sq,
    number_state,
    pad_state,
    project_number,
    tensor,
)
from .optics import BeamsplitterSpec, NsplitterSpec, apply_beamsplitter, apply_nsplitter

#: Largest arm count the brute-force circuit will simulate by default.
ORACLE_ARM_LIMIT = 4


def gain_from_eta(eta: float) -> float:
    """Amplitude gain g = sqrt((1 - eta) / eta) of a scissors stage."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    return math.sqrt((1.0 - eta) / eta)


def eta_from_gain(gain: float) -> float:
    """Scissors transmissivity realizing a requested amplitude gain."""
    if gain <= 0.0:
        raise ValueError("gain must be positive")
    return 1.0 / (1.0 + gain**2)


@dataclass(frozen=True)
class ScissorOutcome:
    """One heralded scissors branch: which detector pattern fired (sign)
    and the Kraus operator it applies.

    The Kraus maps |0> -> sqrt(eta/2) |0>, |1> -> sign * sqrt((1-eta)/2) |1>
    and kills |n >= 2>.
    """

    sign: int
    kraus: ModeOperator

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")


def scissor_outcome(eta: float, sign: int = +1, in_cutoff: int = 2) -> ScissorOutcome:
    """Analytic single-stage Kraus operator for one detector pattern."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    mat = np.zeros((2, in_cutoff), dtype=np.complex128)
    mat[0, 0] = math.sqrt(eta / 2.0)
    if in_cutoff > 1:
        mat[1, 1] = sign * math.sqrt((1.0 - eta) / 2.0)
    return ScissorOutcome(sign, ModeOperator(in_cutoff, 2, mat))


@dataclass(frozen=True, eq=False)
class DiagonalAmplifierOp:
    """Diagonal number-basis coefficients of the amplifier.

    ``arm_count=None`` marks the ideal large-arm-count map with
    coefficients g**n, no herald prefactor and no truncation; applying it
    carries no success probability.
    """

    arm_count: int | None
    eta: float | None
    gain: float
    cutoff: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        coeffs = np.array(self.coeffs, dtype=np.float64)
        coeffs.setflags(write=False)
        if coeffs.shape != (self.cutoff,):
            raise ValueError("coefficient array does not match cutoff")
        if not np.all(np.isfinite(coeffs)) or np.any(coeffs < 0.0):
            raise ValueError("coefficients must be finite and nonnegative")
        if self.arm_count is not None and self.cutoff > self.arm_count + 1:
            if np.any(coeffs[self.arm_count + 1 :] != 0.0):
                raise ValueError("coefficients above the arm count must vanish")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def asymptotic(self) -> bool:
        return self.arm_count is None

    def __repr__(self):
        kind = "asymptotic" if self.asymptotic else f"N={self.arm_count}"
        return f"DiagonalAmplifierOp({kind}, gain={self.gain:.6g}, cutoff={self.cutoff})"


@dataclass(frozen=True)
class HeraldRecord:
    """Success probability of a heralded run and how many detector
    patterns were accepted. Both are ``None`` for the ideal map, whose
    success probability is undefined."""

    success_probability: float | None
    accepted_patterns: int | None

    def __post_init__(self):
        p = self.success_probability
        if p is not None and not 0.0 <= p <= 1.0 + 1e-12:
            raise ValueError(f"probability {p} outside [0, 1]")


def nla_operator(arm_count: int, eta: float, cutoff: int) -> DiagonalAmplifierOp:
    """Exact diagonal coefficients of the N-arm amplifier.

    coeffs[n] = eta**(N/2) * N! / ((N - n)! * N**n) * g**n for n <= N,
    zero above: each arm passes at most one photon.
    """
    if arm_count < 1:
        raise ValueError("arm_count must be >= 1")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    g = gain_from_eta(eta)
    coeffs = np.zeros(cutoff)
    top = min(arm_count, cutoff - 1)
    for n in range(top + 1):
        log_c = (
            0.5 * arm_count * math.log(eta)
            + math.lgamma(arm_count + 1)
            - math.lgamma(arm_count - n + 1)
            + n * (math.log(g) - math.log(arm_count))
        )
        coeffs[n] = math.exp(log_c)
    return DiagonalAmplifierOp(arm_count, eta, g, cutoff, coeffs)


def asymptotic_operator(gain: float, cutoff: int) -> DiagonalAmplifierOp:
    """Ideal diagonal map g**n, valid in the large-arm-count limit."""
    if gain <= 0.0:
        raise ValueError("gain must be positive")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    coeffs = gain ** np.arange(cutoff, dtype=np.float64)
    return DiagonalAmplifierOp(None, None, gain, cutoff, coeffs)


def _check_convergent(weights: np.ndarray, gain: float):
    """Reject gain maps whose scaled tail is not decaying at the cutoff."""
    total = float(weights.sum())
    if len(weights) < 2 or total == 0.0:
        return
    if weights[-1] > 1e-12 * total and weights[-1] >= weights[-2]:
        raise NonconvergentError(
            f"state scaled by gain {gain:.6g} does not converge within the "
            "cutoff (amplified parameter >= 1)"
        )


def nla_apply(state, op: DiagonalAmplifierOp, mode: int = 0):
    """Apply the diagonal amplifier to one mode and report the herald.

    Takes a pure state only. Finite-arm operators return the raw
    unnormalized output whose squared norm is the success probability over
    all 2**N accepted patterns. The ideal operator returns the state
    renormalized, with an absent success probability, and raises
    ``NonconvergentError`` if the scaled tail fails to decay.
    """
    mm = _pure(state)
    if not 0 <= mode < mm.n_modes:
        raise ValueError(f"mode {mode} out of range")
    if mm.mode_cutoffs[mode] > op.cutoff:
        raise ValueError("operator cutoff smaller than the state cutoff")
    coeffs = op.coeffs[: mm.mode_cutoffs[mode]]
    shape = [1] * mm.n_modes
    shape[mode] = -1
    amps = mm.amplitudes * coeffs.reshape(shape)

    if op.asymptotic:
        weights = np.abs(amps) ** 2
        axes = tuple(i for i in range(mm.n_modes) if i != mode)
        _check_convergent(weights.sum(axis=axes) if axes else weights, op.gain)
        n2 = float(weights.sum())
        if n2 <= 0.0:
            raise ValueError("amplified state has zero norm")
        out = MultiModeState(mm.mode_cutoffs, amps / math.sqrt(n2), True)
        herald = HeraldRecord(None, None)
    else:
        out = MultiModeState(mm.mode_cutoffs, amps)
        herald = HeraldRecord(norm_sq(out), 2**op.arm_count)
    return out, herald


def success_probability_asymptotic(alpha: complex, arm_count: int, eta: float) -> float:
    """Large-arm-count success probability on a coherent input:
    eta**N * exp(-(1 - g**2) |alpha|**2)."""
    g = gain_from_eta(eta)
    return eta**arm_count * math.exp(-(1.0 - g**2) * abs(alpha) ** 2)


# ---------------------------------------------------------------------------
# brute-force circuit oracle


def _flip_odd(state: MultiModeState, mode: int) -> MultiModeState:
    """Exact pi phase on one mode: negate the |1> amplitude."""
    amps = state.amplitudes.copy()
    idx = [slice(None)] * state.n_modes
    idx[mode] = 1
    amps[tuple(idx)] *= -1.0
    return MultiModeState(state.mode_cutoffs, amps, state.normalized)


def _split_input(inp: MultiModeState, arm_count: int) -> MultiModeState:
    """Trim the input to its support, append N-1 vacuum arms and apply the
    forward N-splitter: the part of the circuit every click pattern shares."""
    nz = np.nonzero(np.abs(inp.amplitudes) > 0.0)[0]
    c_arm = int(nz[-1]) + 1 if nz.size else 1
    state = MultiModeState((c_arm,), inp.amplitudes[:c_arm], inp.normalized)
    for _ in range(arm_count - 1):
        state = tensor(state, number_state(0, c_arm))
    return apply_nsplitter(state, NsplitterSpec.even_split(arm_count))


def _single_pattern_circuit(
    state: MultiModeState, cutoff: int, eta: float, signs
) -> tuple[np.ndarray, float]:
    """Run the circuit after the forward splitter for one detector pattern.

    ``state`` is ``_split_input`` of the input. ``signs[i] = +1`` heralds
    on (1, 0) at arm i's detector pair and -1 on (0, 1), the latter
    followed by the pi feed-forward. Returns the unnormalized output
    amplitudes (padded to ``cutoff``) and the pattern probability.
    """
    n = state.n_modes
    support = state.mode_cutoffs[0] - 1
    for arm in range(n):
        # ancilla photon split over (kept, mixed) with transmissivity eta
        state = tensor(state, number_state(0, 2))   # kept output mode o
        state = tensor(state, number_state(1, 2))   # mixing mode m
        o_idx, m_idx = n, n + 1
        state = apply_beamsplitter(state, BeamsplitterSpec(eta, (o_idx, m_idx)))
        # 50:50 mix of the arm with m, then count both ports
        room = list(state.mode_cutoffs)
        room[arm] = support + 2
        room[m_idx] = support + 2
        state = pad_state(state, room)
        state = apply_beamsplitter(state, BeamsplitterSpec(0.5, (arm, m_idx)))
        clicks = (1, 0) if signs[arm] == +1 else (0, 1)
        state = project_number(state, m_idx, clicks[1])
        state = project_number(state, arm, clicks[0])
        # the kept mode slots in where the arm was
        amps = np.moveaxis(state.amplitudes, n - 1, arm)
        cutoffs = list(state.mode_cutoffs)
        cutoffs.insert(arm, cutoffs.pop(n - 1))
        state = MultiModeState(tuple(cutoffs), amps)
        if signs[arm] == -1:
            state = _flip_odd(state, arm)

    # kept modes hold at most min(n, support) photons in total
    room = max(2, min(n, support) + 1)
    state = pad_state(state, [room] * n)
    state = apply_nsplitter(state, NsplitterSpec.even_split(n), inverse=True)
    for mode in range(n - 1, 0, -1):
        state = project_number(state, mode, 0)
    kept = state.amplitudes.reshape(-1)[:cutoff]
    out = np.zeros(cutoff, dtype=np.complex128)
    out[: kept.size] = kept
    return out, float(np.vdot(out, out).real)


def physical_circuit(
    inp: MultiModeState,
    arm_count: int,
    eta: float,
    *,
    oracle_limit: int = ORACLE_ARM_LIMIT,
) -> tuple[MultiModeState, HeraldRecord]:
    """Brute-force simulation of the whole amplifier.

    Splits the input over N arms, runs each scissors stage as an actual
    subcircuit (ancilla beamsplitter, 50:50 mix, projective detection on
    both ports), recombines through the inverse splitter and projects the
    non-output ports on vacuum. All 2**N accepted click patterns are
    summed; after feed-forward they herald the same pure state, returned
    with squared norm equal to the total success probability.
    """
    if arm_count < 1:
        raise ValueError("arm_count must be >= 1")
    if arm_count > oracle_limit:
        raise ValueError(
            f"arm_count {arm_count} exceeds the oracle limit {oracle_limit}"
        )
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if _pure(inp).n_modes != 1:
        raise ValueError("the circuit oracle takes a single-mode input")
    if norm_sq(inp) <= 0.0:
        raise ValueError("input state has zero norm")

    split = _split_input(inp, arm_count)
    total = 0.0
    reference = None
    for signs in itertools.product((+1, -1), repeat=arm_count):
        out, prob = _single_pattern_circuit(split, inp.mode_cutoffs[0], eta, signs)
        total += prob
        if all(s == +1 for s in signs):
            reference = (out, prob)
    ref_out, ref_prob = reference
    scale = math.sqrt(total / ref_prob) if ref_prob > 0.0 else 0.0
    vec = MultiModeState(inp.mode_cutoffs, ref_out * scale)
    return vec, HeraldRecord(total, 2**arm_count)


# ---------------------------------------------------------------------------
# imperfect single-photon sources


def misfire_terms(
    alpha: complex, arm_count: int, eta: float, gamma: float, cutoff: int | None = None
) -> tuple[MultiModeState, MultiModeState]:
    """The two first-order branches of a run with source efficiency 1 - gamma.

    The first branch is the fully heralded output scaled by sqrt(1 - gamma);
    the second is the accepted-misfire branch, in which one ancilla emitted
    nothing and one arm contributes vacuum, so one binomial factor drops
    from the product while the arm-count scaling of the amplitude stays.
    """
    if arm_count < 1:
        raise ValueError("arm_count must be >= 1")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if gamma > 0.1:
        warnings.warn(
            "first-order misfire model is unreliable for gamma > 0.1",
            UserWarning,
        )
    alpha = complex(alpha)
    g = gain_from_eta(eta)
    if cutoff is None:
        cutoff = arm_count + 1
    envelope = math.exp(-abs(alpha) ** 2 / 2.0)

    def branch(arms: int, weight: float) -> MultiModeState:
        amps = np.zeros(cutoff, dtype=np.complex128)
        x = g * alpha / arm_count
        for n in range(min(arms, cutoff - 1) + 1):
            amps[n] = math.comb(arms, n) * x**n * math.sqrt(math.factorial(n))
        return MultiModeState((cutoff,), weight * envelope * amps)

    first = branch(arm_count, math.sqrt(1.0 - gamma) * eta ** (arm_count / 2.0))
    second = branch(
        arm_count - 1,
        math.sqrt(gamma) * abs(alpha) * eta ** ((arm_count - 1) / 2.0),
    )
    return first, second


def misfire_density(
    alpha: complex,
    arm_count: int,
    eta: float,
    gamma: float,
    cutoff: int | None = None,
) -> DensityOperator:
    """First-order output mixture for source efficiency 1 - gamma.

    The trace of the unnormalized operator is the acceptance probability
    to first order in gamma; at gamma = 0 the fully heralded pure state is
    recovered exactly.
    """
    first, second = misfire_terms(alpha, arm_count, eta, gamma, cutoff)
    factor = np.stack([first.amplitudes, second.amplitudes], axis=1)
    return DensityOperator(first.mode_cutoffs, factor)
