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

``physical_circuit`` re-derives all of this from the circuit itself:
beamsplitters, single-photon ancillas and projective detection; it is the
oracle the closed form is tested against. The circuit is linear optics, so
it is one 3N x 3N mode matrix. Each click pattern heralds a diagonal map
|n> -> c_n |n>, and each c_n is a permanent of a submatrix of the mode
matrix over n! (Scheel, quant-ph/0406127). A click pattern only picks the
clicked rows and the signs that form the kept output row, so one batched
Ryser pass returns the coefficients of all 2**N patterns, one column per
pattern; the input's amplitudes multiply them only afterwards.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import NonconvergentError
from .fock import MultiModeState, _pure, _squared_modulus, norm_sq
from .optics import _mix_rows

#: Largest arm count the brute-force circuit will simulate by default.
ORACLE_ARM_LIMIT = 5


def gain_from_eta(eta: float) -> float:
    """Amplitude gain g = sqrt((1 - eta) / eta) of a scissors stage."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    return math.sqrt((1.0 - eta) / eta)


def _gain_squared(gain: float) -> float:
    """g**2 of a positive gain; a gain whose square is not finite or is 0
    is rejected rather than left to overflow or to divide by zero."""
    if gain <= 0.0:
        raise ValueError("gain must be positive")
    squared = _squared_modulus(gain, "gain")
    if squared == 0.0:
        raise ValueError(f"gain {gain:.6g} has no nonzero finite square")
    return squared


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
    g = gain_from_eta(eta)
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
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


def _ideal_coefficients(gain: float, cutoff: int) -> np.ndarray:
    """Coefficients g**n of the ideal map, n < cutoff; a gain that
    overflows them within the cutoff is rejected."""
    with np.errstate(over="ignore"):
        coeffs = gain ** np.arange(cutoff, dtype=np.float64)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"gain {gain:.6g} gives non-finite g**n within the cutoff")
    return coeffs


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
    amps = mm.amplitudes * _ideal_coefficients(gain, shape[mode]).reshape(shape)
    weights = np.abs(amps) ** 2
    axes = tuple(i for i in range(mm.n_modes) if i != mode)
    _check_convergent(weights.sum(axis=axes) if axes else weights, gain)
    n2 = float(weights.sum())
    if n2 <= 0.0:
        raise ValueError("amplified state has zero norm")
    return MultiModeState(mm.mode_cutoffs, amps / math.sqrt(n2))


# ---------------------------------------------------------------------------
# circuit oracle: permanents of the mode matrix


def _circuit_matrix(arm_count: int, eta: float) -> np.ndarray:
    """3N x 3N mode matrix of the circuit up to detection.

    Modes are ordered as the arms 0..N-1, the kept outputs N..2N-1 and the
    ancillas 2N..3N-1. The forward splitter divides arm 0 over every arm;
    then each ancilla photon splits over (kept, ancilla) with
    transmissivity eta and the ancilla mixes 50:50 with its arm.
    """
    n = arm_count
    u = np.eye(3 * n)
    for k in range(1, n):
        _mix_rows(u, 1.0 / (n - k + 1), k, k - 1)
    for arm in range(n):
        _mix_rows(u, eta, n + arm, 2 * n + arm)
        _mix_rows(u, 0.5, arm, 2 * n + arm)
    return u


def _pattern_coefficients(arm_count: int, eta: float, top: int) -> np.ndarray:
    """Diagonal coefficients of every detector pattern, from permanents.

    Column p is one pattern, in ``itertools.product((+1, -1), repeat=N)``
    order (column 0 is all +1). ``signs[i] = +1`` heralds on one click at
    arm i's port and -1 on one at its ancilla port, the latter followed by
    the pi feed-forward on the kept mode. After the inverse splitter only
    the kept mode o_0 may hold light, so photon number conservation makes
    each pattern diagonal, |n> -> c_n |n> with c_n = perm(A_n) / n!, and
    row n holds c_n for n = 0..top. A_n takes the rows [o_0]*n plus the
    clicked modes of the mode matrix, and the columns [arm 0]*n plus the
    ancillas. Each column times sqrt(2**N) is ``nla_operator`` to rounding.

    All 2**N patterns share one pass, and one bit table gives both their
    signs and the Ryser subsets. The feed-forward and the inverse
    splitter act on the kept rows alone, so the clicked rows are rows of
    the circuit matrix and o_0 = sum_i w_i signs[i] kept_i, with w the
    first row of the inverse splitter. The kept rows hold exact zeros in
    the arm columns, because only ancilla light reaches them; so c_n = 0
    exactly above N and ``top`` need not exceed N. Ryser's formula then
    runs over the ancilla subsets S and the number k of arm-0 copies
    taken with them. With r(S) a row's sum over S and f_S(k) the product
    over the clicked rows of r(S) + k r[arm 0], the binomial sum over k
    is the n-th forward difference of f_S, which is n! b_n(S) when b_m(S)
    is the coefficient of f_S on the falling factorial k (k-1) ... (k-m+1).
    So

        c_n = (-1)**N sum_S (-1)**|S| o_0(S)**n b_n(S),

    and the b_m(S) follow from one product per clicked row, with no
    alternating binomial sum to lose digits.
    """
    n = arm_count
    detected = _circuit_matrix(n, eta)
    inverse = np.eye(n)
    for k in range(n - 1, 0, -1):
        _mix_rows(inverse, 1.0 / (n - k + 1), k - 1, k)
    arms = np.arange(n)
    bits = (np.arange(2**n)[:, None] >> arms) & 1
    # read from the most significant end, the bits give the signs in
    # itertools.product order
    signs = 1.0 - 2.0 * bits[:, ::-1]
    subsets = bits.astype(np.float64)
    # o_0(S) per pattern, and per arm and pattern the clicked row, whose
    # arm-0 entry is the slope of its Ryser sum in k
    o_sums = (signs * inverse[0]) @ detected[n : 2 * n, 2 * n :] @ subsets.T
    clicked = detected[np.where(signs.T > 0, arms[:, None], 2 * n + arms[:, None])]
    # b_m(S) for m <= top; an order never feeds a lower one
    falling = np.zeros((top + 1,) + o_sums.shape)
    falling[0] = 1.0
    orders = np.arange(top + 1.0)[:, None, None]
    for row in clicked:
        # (r(S) + k slope) k^(m) = (r(S) + m slope) k^(m) + slope k^(m+1)
        slope = row[:, :1]
        carry = falling[:-1] * slope
        falling *= row[:, 2 * n :] @ subsets.T + orders * slope
        falling[1:] += carry
    # (-1)**N (-1)**|S| o_0(S)**photons
    power = (-1) ** n * (1 - 2 * (bits.sum(axis=1) % 2))
    coeffs = np.empty((top + 1, 2**n))
    for photons in range(top + 1):
        coeffs[photons] = (power * falling[photons]).sum(axis=-1)
        power = power * o_sums
    return coeffs


def physical_circuit(
    inp: MultiModeState,
    arm_count: int,
    eta: float,
    *,
    oracle_limit: int = ORACLE_ARM_LIMIT,
) -> MultiModeState:
    """Simulation of the whole amplifier from its circuit.

    Splits the input over N arms, runs each scissors stage as an actual
    subcircuit (ancilla beamsplitter, 50:50 mix, projective detection on
    both ports), recombines through the inverse splitter and projects the
    non-output ports on vacuum. Each click pattern's amplitudes are
    permanents of the circuit's mode matrix (see ``_pattern_coefficients``).
    All 2**N accepted patterns are summed; after feed-forward they herald
    the same pure state, returned with squared norm equal to the total
    success probability.
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

    amps = inp.amplitudes
    live = np.flatnonzero(amps)
    top = min(int(live[-1]), arm_count)
    coeffs = _pattern_coefficients(arm_count, eta, top)
    outputs = np.zeros((2**arm_count, amps.size), dtype=np.complex128)
    outputs[:, : top + 1] = amps[: top + 1] * coeffs.T
    total = 0.0
    # plain left-to-right addition in pattern order (sum() compensates on
    # Python >= 3.12, which would move the last bits)
    for out in outputs:
        total += float(np.vdot(out, out).real)
    # the all-plus pattern, column 0
    ref_prob = float(np.vdot(outputs[0], outputs[0]).real)
    scale = math.sqrt(total / ref_prob) if ref_prob > 0.0 else 0.0
    return MultiModeState(inp.mode_cutoffs, outputs[0] * scale)


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
    alpha = complex(alpha)
    envelope = math.exp(-_squared_modulus(alpha, "amplitude") / 2.0)
    if gamma > 0.1:
        warnings.warn(
            "first-order misfire model is unreliable for gamma > 0.1",
            UserWarning,
        )
    g = gain_from_eta(eta)
    if cutoff is None:
        cutoff = arm_count + 1

    def branch(arms: int, weight: float) -> MultiModeState:
        amps = np.zeros(cutoff, dtype=np.complex128)
        x = g * alpha / arm_count
        try:
            for n in range(min(arms, cutoff - 1) + 1):
                amps[n] = math.comb(arms, n) * x**n * math.sqrt(math.factorial(n))
        except OverflowError:
            amps[:] = math.inf
        if not np.all(np.isfinite(amps)):
            raise ValueError(
                f"per-arm amplitude {abs(x):.6g} has no finite powers within the cutoff"
            )
        return MultiModeState((cutoff,), weight * envelope * amps)

    first = branch(arm_count, math.sqrt(1.0 - gamma) * eta ** (arm_count / 2.0))
    second = branch(
        arm_count - 1,
        math.sqrt(gamma) * abs(alpha) * eta ** ((arm_count - 1) / 2.0),
    )
    return first, second
