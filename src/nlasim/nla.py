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

import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import NonconvergentError
from .fock import MultiModeState, _count, _pure, _real, _squared_modulus, norm_sq
from .optics import _mix_rows

#: Largest arm count the brute-force circuit will simulate by default.
ORACLE_ARM_LIMIT = 5


def gain_from_eta(eta: float) -> float:
    """Amplitude gain g = sqrt((1 - eta) / eta) of a scissors stage, if finite."""
    _real(eta, "eta", 0.0, 1.0, "()")
    gain = math.sqrt((1.0 - eta) / eta)
    if gain == math.inf:
        raise ValueError(f"eta {eta:.6g} gives no finite gain")
    return gain


def _gain_squared(gain: float) -> float:
    """g**2 of a positive gain; a gain whose square is not finite or is 0
    is rejected rather than left to overflow or to divide by zero."""
    squared = _squared_modulus(gain, "gain")
    _real(gain, "gain", 0.0, math.inf, "()")
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
    arm_count, g = _count(arm_count, "arm_count"), gain_from_eta(eta)
    coeffs = np.zeros(_count(cutoff, "cutoff"))
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


def _ideal_map(amps: np.ndarray, gain: float, axis: int) -> None:
    """The ideal map |n> -> g**n |n> on one axis of ``amps``, renormalized,
    in place. Raises ``NonconvergentError`` if that axis's scaled marginal
    is not decaying at the cutoff, and ``ValueError`` if g**n overflows
    within it. A real divisor makes complex division multiply by its
    reciprocal, so real and complex amplitudes take the same bits."""
    cutoff = amps.shape[axis]
    with np.errstate(over="ignore"):
        coeffs = gain ** np.arange(cutoff, dtype=np.float64)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"gain {gain:.6g} gives non-finite g**n within the cutoff")
    shape = [1] * amps.ndim
    shape[axis] = cutoff
    amps *= coeffs.reshape(shape)
    weights = np.abs(amps) ** 2
    marginal = weights.sum(axis=tuple(i for i in range(amps.ndim) if i != axis))
    total = float(marginal.sum())
    if cutoff >= 2 and marginal[-1] > 1e-12 * total and marginal[-1] >= marginal[-2]:
        raise NonconvergentError(
            f"state scaled by gain {gain:.6g} does not converge within the "
            "cutoff (amplified parameter >= 1)"
        )
    n2 = float(weights.sum())
    if n2 <= 0.0:
        raise ValueError("amplified state has zero norm")
    amps *= 1.0 / math.sqrt(n2)


def nla_apply(state, arm_count: int, eta: float) -> MultiModeState:
    """Apply the N-arm amplifier to the first mode of a pure state.

    The coefficients are built at that mode's cutoff. The output is the
    raw unnormalized state; its squared norm is the success probability
    summed over all 2**N accepted patterns.
    """
    mm = _pure(state)
    coeffs = nla_operator(arm_count, eta, mm.mode_cutoffs[0])
    shape = (-1,) + (1,) * (mm.n_modes - 1)
    return MultiModeState(mm.mode_cutoffs, mm.amplitudes * coeffs.reshape(shape))


def nla_apply_asymptotic(state, gain: float) -> MultiModeState:
    """Apply the ideal large-arm-count map |n> -> g**n |n> to the first mode.

    The ideal map has no herald and no success probability, so the output
    is renormalized. Raises ``NonconvergentError`` if the scaled tail
    fails to decay within the cutoff.
    """
    _real(gain, "gain", 0.0, math.inf, "()")
    mm = _pure(state)
    amps = mm.amplitudes.copy()
    _ideal_map(amps, gain, 0)
    # read-only, so the state takes it over rather than copying it
    amps.setflags(write=False)
    return MultiModeState(mm.mode_cutoffs, amps)


# ---------------------------------------------------------------------------
# circuit oracle: permanents of the mode matrix


class _ArmTables(NamedTuple):
    """The parts of the circuit and of the Ryser pass that depend on the
    arm count alone, all read-only."""

    splitter: np.ndarray  # the forward splitter, embedded in eye(3N)
    inverse_row: np.ndarray  # first row of the inverse splitter
    signs: np.ndarray  # (2**N, N) pattern signs in product order
    subsets: np.ndarray  # (2**N, N) the same bits as float Ryser subsets
    parity: np.ndarray  # (-1)**N (-1)**|S| per subset S
    clicked: np.ndarray  # (N, 2**N) clicked row per arm and pattern


@functools.lru_cache(maxsize=ORACLE_ARM_LIMIT)
def _arm_tables(arm_count: int) -> _ArmTables:
    """The circuit's and the Ryser pass's tables for one arm count, built
    once and shared by every call at that count."""
    n = arm_count
    splitter = np.eye(3 * n)
    for k in range(1, n):
        _mix_rows(splitter, 1.0 / (n - k + 1), k, k - 1)
    inverse = np.eye(n)
    for k in range(n - 1, 0, -1):
        _mix_rows(inverse, 1.0 / (n - k + 1), k - 1, k)
    arms = np.arange(n)
    bits = (np.arange(2**n)[:, None] >> arms) & 1
    # read from the most significant end, the bits give the signs in
    # itertools.product order
    signs = 1.0 - 2.0 * bits[:, ::-1]
    tables = _ArmTables(
        splitter=splitter,
        inverse_row=inverse[0].copy(),
        signs=signs,
        subsets=bits.astype(np.float64),
        parity=(-1) ** n * (1 - 2 * (bits.sum(axis=1) % 2)),
        clicked=np.where(signs.T > 0, arms[:, None], 2 * n + arms[:, None]),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _circuit_matrix(arm_count: int, eta: float) -> np.ndarray:
    """3N x 3N mode matrix of the circuit up to detection, a fresh array.

    Modes are ordered as the arms 0..N-1, the kept outputs N..2N-1 and the
    ancillas 2N..3N-1. The forward splitter divides arm 0 over every arm;
    then each ancilla photon splits over (kept, ancilla) with
    transmissivity eta and the ancilla mixes 50:50 with its arm. The
    forward splitter is built once per arm count (``_arm_tables``). The
    stages touch disjoint row pairs, so all N of them run as one mix per
    beamsplitter, with every entry computed as one stage at a time would.
    """
    n = arm_count
    u = _arm_tables(n).splitter.copy()
    arms = np.arange(n)
    _mix_rows(u, eta, n + arms, 2 * n + arms)
    _mix_rows(u, 0.5, arms, 2 * n + arms)
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
    alternating binomial sum to lose digits. Only the circuit matrix and
    what follows from it depend on eta: w, the sign and subset tables,
    the parities and the clicked-row indices are built once per arm
    count (``_arm_tables``).
    """
    n = arm_count
    tables = _arm_tables(n)
    detected = _circuit_matrix(n, eta)
    subsets = tables.subsets
    # o_0(S) per pattern, and per arm and pattern the clicked row, whose
    # arm-0 entry is the slope of its Ryser sum in k
    weighted = tables.signs * tables.inverse_row
    o_sums = weighted @ detected[n : 2 * n, 2 * n :] @ subsets.T
    clicked = detected[tables.clicked]
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
    power = tables.parity
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
    After feed-forward all 2**N accepted patterns herald the same pure
    state, so the all-plus pattern's output is returned, scaled to the
    squared norm of the summed pattern probabilities: the total success
    probability.
    """
    if _count(arm_count, "arm_count") > _count(oracle_limit, "oracle_limit"):
        raise ValueError(
            f"arm_count {arm_count} exceeds the oracle limit {oracle_limit}"
        )
    _real(eta, "eta", 0.0, 1.0, "()")
    if _pure(inp).n_modes != 1:
        raise ValueError("the circuit oracle takes a single-mode input")
    if norm_sq(inp) <= 0.0:
        raise ValueError("input state has zero norm")

    amps = inp.amplitudes
    live = np.flatnonzero(amps)
    top = min(int(live[-1]), arm_count)
    coeffs = _pattern_coefficients(arm_count, eta, top)
    probs = np.abs(amps[: top + 1]) ** 2 @ coeffs**2
    # the all-plus pattern, column 0, carries the summed probability
    scale = math.sqrt(probs.sum() / probs[0]) if probs[0] > 0.0 else 0.0
    out = np.zeros(amps.size, dtype=np.complex128)
    out[: top + 1] = amps[: top + 1] * coeffs[:, 0] * scale
    return MultiModeState(inp.mode_cutoffs, out)


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
    arm_count, g = _count(arm_count, "arm_count"), gain_from_eta(eta)
    _real(gamma, "gamma", 0.0, 1.0, "[)")
    alpha = complex(alpha)
    envelope = math.exp(-_squared_modulus(alpha, "amplitude") / 2.0)
    cutoff = arm_count + 1 if cutoff is None else _count(cutoff, "cutoff")
    if gamma > 0.1:
        warnings.warn(
            "first-order misfire model is unreliable for gamma > 0.1",
            UserWarning,
        )

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
