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
oracle the closed form is tested against. Every pattern runs through the
actual circuit, but patterns share their prefix work: the input is split
once, and each arm is mixed once per sign prefix before the walk branches
on that arm's two click patterns.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import NonconvergentError
from .fock import (
    DensityOperator,
    MultiModeState,
    _pure,
    _squared_modulus,
    norm_sq,
    number_state,
    pad_state,
    project_number,
    tensor,
)
from .optics import BeamsplitterSpec, apply_beamsplitter, apply_nsplitter

#: Largest arm count the brute-force circuit will simulate by default.
ORACLE_ARM_LIMIT = 5


def gain_from_eta(eta: float) -> float:
    """Amplitude gain g = sqrt((1 - eta) / eta) of a scissors stage."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    return math.sqrt((1.0 - eta) / eta)


def _gain_squared(gain: float) -> float:
    """g**2 of a positive gain; a gain whose square is not finite is
    rejected rather than left to overflow."""
    if gain <= 0.0:
        raise ValueError("gain must be positive")
    return _squared_modulus(gain, "gain")


def eta_from_gain(gain: float) -> float:
    """Scissors transmissivity realizing a requested amplitude gain."""
    return 1.0 / (1.0 + _gain_squared(gain))


def nla_operator(arm_count: int, eta: float, cutoff: int) -> np.ndarray:
    """Exact diagonal coefficients of the N-arm amplifier, read-only.

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
    coeffs.setflags(write=False)
    return coeffs


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


def _mode_shape(mm: MultiModeState, mode: int) -> list:
    """Broadcast shape that lays a number-basis vector along one mode."""
    if not 0 <= mode < mm.n_modes:
        raise ValueError(f"mode {mode} out of range")
    shape = [1] * mm.n_modes
    shape[mode] = mm.mode_cutoffs[mode]
    return shape


def nla_apply(state, arm_count: int, eta: float, mode: int = 0) -> MultiModeState:
    """Apply the N-arm amplifier to one mode of a pure state.

    The coefficients are built at that mode's cutoff. The output is the
    raw unnormalized state; its squared norm is the success probability
    summed over all 2**N accepted patterns.
    """
    mm = _pure(state)
    shape = _mode_shape(mm, mode)
    coeffs = nla_operator(arm_count, eta, shape[mode])
    return MultiModeState(mm.mode_cutoffs, mm.amplitudes * coeffs.reshape(shape))


def nla_apply_asymptotic(state, gain: float, mode: int = 0) -> MultiModeState:
    """Apply the ideal large-arm-count map |n> -> g**n |n> to one mode.

    The ideal map has no herald and no success probability, so the output
    is renormalized. Raises ``NonconvergentError`` if the scaled tail
    fails to decay within the cutoff.
    """
    if gain <= 0.0:
        raise ValueError("gain must be positive")
    mm = _pure(state)
    shape = _mode_shape(mm, mode)
    with np.errstate(over="ignore"):
        coeffs = gain ** np.arange(shape[mode], dtype=np.float64)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"gain {gain:.6g} gives non-finite g**n within the cutoff")
    amps = mm.amplitudes * coeffs.reshape(shape)
    weights = np.abs(amps) ** 2
    axes = tuple(i for i in range(mm.n_modes) if i != mode)
    _check_convergent(weights.sum(axis=axes) if axes else weights, gain)
    n2 = float(weights.sum())
    if n2 <= 0.0:
        raise ValueError("amplified state has zero norm")
    return MultiModeState(mm.mode_cutoffs, amps / math.sqrt(n2))


# ---------------------------------------------------------------------------
# brute-force circuit oracle


def _flip_odd(state: MultiModeState, mode: int) -> MultiModeState:
    """Exact pi phase on one mode: negate the |1> amplitude."""
    amps = state.amplitudes.copy()
    idx = [slice(None)] * state.n_modes
    idx[mode] = 1
    amps[tuple(idx)] *= -1.0
    return MultiModeState(state.mode_cutoffs, amps)


def _split_input(inp: MultiModeState, arm_count: int) -> MultiModeState:
    """Trim the input to its support, append N-1 vacuum arms and apply the
    forward N-splitter: the part of the circuit every click pattern shares."""
    nz = np.nonzero(np.abs(inp.amplitudes) > 0.0)[0]
    c_arm = int(nz[-1]) + 1 if nz.size else 1
    state = MultiModeState((c_arm,), inp.amplitudes[:c_arm])
    for _ in range(arm_count - 1):
        state = tensor(state, number_state(0, c_arm))
    return apply_nsplitter(state)


def _pattern_outputs(split: MultiModeState, cutoff: int, eta: float) -> dict:
    """Run the circuit after the forward splitter for every detector pattern.

    ``split`` is ``_split_input`` of the input. ``signs[i] = +1`` heralds
    on (1, 0) at arm i's detector pair and -1 on (0, 1), the latter
    followed by the pi feed-forward. The patterns are walked depth first
    as a tree over the arms: patterns that agree on their first k signs
    hold the same state up to arm k, and an arm's ancilla, eta split and
    50:50 mix precede the reading of its sign, so each arm is mixed once
    per sign prefix. Returns {signs: (out, prob)} in
    ``itertools.product((+1, -1), repeat=N)`` order, with the unnormalized
    output amplitudes padded to ``cutoff`` and the pattern probability.
    """
    n = split.n_modes
    support = split.mode_cutoffs[0] - 1
    # kept modes hold at most min(n, support) photons in total
    kept_room = max(2, min(n, support) + 1)
    o_idx, m_idx = n, n + 1
    outputs = {}

    def walk(state: MultiModeState, signs: tuple):
        arm = len(signs)
        if arm == n:
            state = pad_state(state, [kept_room] * n)
            state = apply_nsplitter(state, inverse=True)
            for mode in range(n - 1, 0, -1):
                state = project_number(state, mode, 0)
            kept = state.amplitudes.reshape(-1)[:cutoff]
            out = np.zeros(cutoff, dtype=np.complex128)
            out[: kept.size] = kept
            outputs[signs] = (out, float(np.vdot(out, out).real))
            return
        # ancilla photon split over (kept, mixed) with transmissivity eta
        state = tensor(state, number_state(0, 2))   # kept output mode o
        state = tensor(state, number_state(1, 2))   # mixing mode m
        state = apply_beamsplitter(state, BeamsplitterSpec(eta, (o_idx, m_idx)))
        # 50:50 mix of the arm with m, then count both ports
        room = list(state.mode_cutoffs)
        room[arm] = support + 2
        room[m_idx] = support + 2
        state = pad_state(state, room)
        mixed = apply_beamsplitter(state, BeamsplitterSpec(0.5, (arm, m_idx)))
        for sign, clicks in ((+1, (1, 0)), (-1, (0, 1))):
            state = project_number(mixed, m_idx, clicks[1])
            state = project_number(state, arm, clicks[0])
            # the kept mode slots in where the arm was
            amps = np.moveaxis(state.amplitudes, n - 1, arm)
            cutoffs = list(state.mode_cutoffs)
            cutoffs.insert(arm, cutoffs.pop(n - 1))
            state = MultiModeState(tuple(cutoffs), amps)
            if sign == -1:
                state = _flip_odd(state, arm)
            walk(state, signs + (sign,))

    walk(split, ())
    return outputs


def physical_circuit(
    inp: MultiModeState,
    arm_count: int,
    eta: float,
    *,
    oracle_limit: int = ORACLE_ARM_LIMIT,
) -> MultiModeState:
    """Brute-force simulation of the whole amplifier.

    Splits the input over N arms, runs each scissors stage as an actual
    subcircuit (ancilla beamsplitter, 50:50 mix, projective detection on
    both ports), recombines through the inverse splitter and projects the
    non-output ports on vacuum. All 2**N accepted click patterns are
    summed; after feed-forward they herald the same pure state, returned
    with squared norm equal to the total success probability. Patterns
    that agree on their first k signs share the work up to arm k (see
    ``_pattern_outputs``), so a call applies (N-1) + 2 (2**N - 1) +
    (N-1) 2**N beamsplitters.
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
    outputs = _pattern_outputs(split, inp.mode_cutoffs[0], eta)
    total = 0.0
    # plain left-to-right addition in pattern order (sum() compensates on
    # Python >= 3.12, which would move the last bits)
    for _, prob in outputs.values():
        total += prob
    ref_out, ref_prob = outputs[(+1,) * arm_count]
    scale = math.sqrt(total / ref_prob) if ref_prob > 0.0 else 0.0
    return MultiModeState(inp.mode_cutoffs, ref_out * scale)


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
    envelope = math.exp(-_squared_modulus(alpha, "amplitude") / 2.0)

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
