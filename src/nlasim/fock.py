"""Truncated Fock-space states, density operators and their basic algebra.

Everything is a dense complex array over number bases |0>, ..., |cutoff-1>;
a density operator is held as a factor F with rho = F F+. Unnormalized
states are first class: a heralded output keeps its raw norm, and the
squared norm (or the trace, for density operators) is the heralding
probability. The library never normalizes a heralded output.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import TruncationError, TruncationWarning

#: Rounding allowance on a squared norm or trace above 1.
NORM_TOL = 1e-12
#: Bound on the probability mass a constructor may drop without a warning.
DEFAULT_TAIL_TOL = 1e-12


def _frozen_array(values) -> np.ndarray:
    """A read-only C-ordered complex array of ``values``.

    A complex array that is already read-only, C-ordered and owner of its
    data is taken over as it is, not copied; anything else is copied.
    Numpy lets the owner turn writing back on, and writing into an array
    that a state has taken over breaks that state."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.complex128
        and values.base is None
        and not values.flags.writeable
        and values.flags.c_contiguous
    ):
        return values
    arr = np.array(values, dtype=np.complex128, order="C")
    arr.setflags(write=False)
    return arr


def _squared_modulus(value, name: str) -> float:
    """|value|**2, rejected when it is not finite rather than left to
    overflow."""
    try:
        squared = abs(complex(value)) ** 2
    except OverflowError:
        squared = math.inf
    if not math.isfinite(squared):
        raise ValueError(f"{name} {value:.6g} has no finite squared modulus")
    return squared


@dataclass(frozen=True, eq=False)
class MultiModeState:
    """Pure state of one or more modes, one cutoff per mode.

    The amplitude tensor has shape ``mode_cutoffs``; a single-mode state
    over |0>, ..., |c-1> has ``mode_cutoffs == (c,)``. The squared norm may
    be below one (heralding amplitude) but never above it, and it must be
    finite.
    """

    mode_cutoffs: tuple
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        cutoffs = tuple(_count(c, "mode_cutoffs") for c in self.mode_cutoffs)
        _count(len(cutoffs), "len(mode_cutoffs)")
        object.__setattr__(self, "mode_cutoffs", cutoffs)
        amps = _frozen_array(self.amplitudes)
        if amps.shape != cutoffs:
            raise ValueError(f"amplitude shape {amps.shape} != cutoffs {cutoffs}")
        object.__setattr__(self, "amplitudes", amps)
        n2 = norm_sq(self)
        if not n2 <= 1.0 + NORM_TOL:
            problem = "exceeds 1" if math.isfinite(n2) else "is not finite"
            raise ValueError(f"squared norm {n2} {problem}")

    @property
    def n_modes(self) -> int:
        return len(self.mode_cutoffs)

    def __repr__(self):
        return (
            f"MultiModeState(cutoffs={self.mode_cutoffs}, "
            f"norm_sq={norm_sq(self):.6g})"
        )


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive operator rho = F F+ over a (multi)mode basis, held as its
    factor F of shape (dim, rank).

    Hermiticity and positivity hold by construction. The trace ||F||**2
    lies in (0, 1]; an unnormalized operator carries its heralding
    probability in the trace.
    """

    basis_cutoffs: tuple
    factor: np.ndarray = field(repr=False)

    def __post_init__(self):
        cutoffs = tuple(_count(c, "basis_cutoffs") for c in self.basis_cutoffs)
        _count(len(cutoffs), "len(basis_cutoffs)")
        object.__setattr__(self, "basis_cutoffs", cutoffs)
        dim = math.prod(cutoffs)
        fac = _frozen_array(self.factor)
        if fac.ndim != 2 or fac.shape[0] != dim:
            raise ValueError(f"factor shape {fac.shape} != ({dim}, rank)")
        object.__setattr__(self, "factor", fac)
        tr = self.trace
        if not 0.0 < tr <= 1.0 + NORM_TOL:
            raise ValueError(f"trace {tr} outside (0, 1]")

    @property
    def trace(self) -> float:
        flat = self.factor.reshape(-1)
        return float(np.vdot(flat, flat).real)

    def __repr__(self):
        return (
            f"DensityOperator(cutoffs={self.basis_cutoffs}, "
            f"trace={self.trace:.6g})"
        )


# ---------------------------------------------------------------------------
# constructors


def number_state(n: int, cutoff: int) -> MultiModeState:
    """Basis state |n> at the given cutoff."""
    if _count(n, "n", 0) >= _count(cutoff, "cutoff"):
        raise ValueError(f"photon number {n} outside basis of size {cutoff}")
    amps = np.zeros(cutoff, dtype=np.complex128)
    amps[n] = 1.0
    return MultiModeState((cutoff,), amps)


def _poisson_kept(mu: float, cutoff: int | None = None) -> tuple[int, float]:
    """Mass a coherent state of squared modulus ``mu`` keeps on its first
    ``cutoff`` levels, as the running sum of exp(-mu) mu**n / n!.

    With ``cutoff=None`` the cutoff is the smallest whose dropped tail is
    below ``DEFAULT_TAIL_TOL``. This is the one measure of a coherent tail,
    so a cutoff it picks never reads as truncated. A sum that would start
    from a subnormal exp(-mu), above mu = 708.4, has lost its digits and is
    refused; so is one from 0 when the cutoff is automatic. Returns
    (cutoff, kept).
    """
    term = math.exp(-mu)
    if 0.0 < term < sys.float_info.min or (term == 0.0 and cutoff is None):
        raise TruncationError(
            f"coherent state of |alpha|**2 = {mu:.6g} is above the 708.4 limit, "
            "where exp(-|alpha|**2) leaves the float64 normal range; lower alpha"
        )
    kept = term
    n = 0
    while (1.0 - kept >= DEFAULT_TAIL_TOL) if cutoff is None else (n + 1 < cutoff):
        n += 1
        term *= mu / n
        kept += term
    return n + 1, kept


def minimal_coherent_cutoff(alpha: complex) -> int:
    """Smallest cutoff keeping the dropped Poisson tail below
    ``DEFAULT_TAIL_TOL``."""
    return _poisson_kept(_squared_modulus(alpha, "amplitude"))[0]


def coherent_state(alpha: complex, cutoff: int | None = None) -> MultiModeState:
    """Coherent state with complex amplitude ``alpha``.

    amplitudes[n] = exp(-|alpha|**2 / 2) * alpha**n / sqrt(n!)

    With ``cutoff=None`` the basis is sized so the dropped tail mass stays
    below ``DEFAULT_TAIL_TOL``. A vector that still drops that much comes
    back unnormalized with a ``TruncationWarning``; one whose kept Poisson
    mass underflows to 0 raises ``ValueError``, as does an ``alpha`` whose
    squared modulus is not finite. A squared modulus above 708.4, where
    exp(-|alpha|**2) is subnormal, raises ``TruncationError``. The tail is
    measured as ``minimal_coherent_cutoff`` measures it, so no cutoff
    chosen by the library warns.
    """
    alpha = complex(alpha)
    mu = _squared_modulus(alpha, "amplitude")
    cutoff, kept = _poisson_kept(mu, _count(cutoff, "cutoff", optional=True))
    if kept == 0.0:
        raise ValueError(
            f"coherent state of amplitude {abs(alpha):.6g} keeps no weight "
            f"within cutoff {cutoff}"
        )
    amps = np.empty(cutoff, dtype=np.complex128)
    amps[0] = math.exp(-mu / 2.0)
    amp = amps[0]
    for n in range(1, cutoff):
        amp = amps[n] = amp * alpha / math.sqrt(n)
    tail = max(0.0, 1.0 - kept)
    if tail >= DEFAULT_TAIL_TOL:
        warnings.warn(
            f"coherent state truncated: tail mass {tail:.3g}", TruncationWarning
        )
    return MultiModeState((cutoff,), amps)


def minimal_epr_cutoff(chi: float) -> int:
    """Smallest cutoff keeping the dropped geometric tail below
    ``DEFAULT_TAIL_TOL``."""
    _real(chi, "chi", 0.0, 1.0, "[)")
    if chi == 0.0:
        return 1
    cutoff = max(1, math.ceil(math.log(DEFAULT_TAIL_TOL) / (2.0 * math.log(chi))))
    while chi ** (2 * cutoff) >= DEFAULT_TAIL_TOL:
        cutoff += 1
    return cutoff


def epr_state(chi: float, cutoff: int | None = None) -> MultiModeState:
    """Two-mode squeezed state sqrt(1 - chi**2) * sum_n chi**n |n>|n>.

    ``chi`` runs from 0 (product vacuum) towards 1 (maximal entanglement);
    the boundary chi >= 1 is unnormalizable and rejected. The dropped tail
    mass is chi**(2 * cutoff); if it reaches ``DEFAULT_TAIL_TOL`` the state
    comes back unnormalized with a ``TruncationWarning``.
    """
    _real(chi, "chi", 0.0, 1.0, "[)")
    diag = _epr_schmidt(chi, _count(cutoff, "cutoff", optional=True))
    amps = np.zeros((diag.size, diag.size), dtype=np.complex128)
    np.fill_diagonal(amps, diag)
    return MultiModeState(amps.shape, amps)


def _epr_schmidt(chi: float, cutoff: int | None = None) -> np.ndarray:
    """Schmidt coefficients sqrt(1 - chi**2) * chi**n, n < cutoff, of
    ``epr_state``, with its tail warning, for a chi the caller has checked."""
    if cutoff is None:
        cutoff = minimal_epr_cutoff(chi)
    tail = chi ** (2 * cutoff)
    if tail >= DEFAULT_TAIL_TOL:
        warnings.warn(
            f"two-mode squeezed state truncated: tail mass {tail:.3g}",
            TruncationWarning,
        )
    return math.sqrt(1.0 - chi**2) * chi ** np.arange(cutoff)


# ---------------------------------------------------------------------------
# sizing: every automatic cutoff, byte budget and argument range is here

#: Largest automatic cutoff of distill, fig4, clone and the ``target_r``
#: state. A finite-arm distillation point is computed from the
#: cutoff * (N + 1) sector amplitudes an N-arm amplifier keeps (the ideal
#: map from all cutoff**2 / 2). A distill op builds the point's factor of
#: cutoff**3 (65 MB at 160) only for ``target_r``; fig4 still builds it
#: for every point and discards it. The cap holds until a large-cutoff
#: benchmark has measured what raising it costs.
AUTO_CUTOFF_CAP = 40


def _cap_auto_cutoff(minimal, arm_count, remedy=None, held: int = 0) -> int:
    """Largest of the states' ``minimal`` cutoffs and ``arm_count + 1``;
    with a ``remedy`` it may pass ``AUTO_CUTOFF_CAP`` only up to ``held``,
    a cutoff the run already holds."""
    cutoff = max([*minimal, (arm_count or 0) + 1])
    if remedy is not None and cutoff > max(AUTO_CUTOFF_CAP, held):
        raise TruncationError(
            f"this run needs cutoff {cutoff} (> {AUTO_CUTOFF_CAP}) to keep "
            "truncation tails below 1e-12; pass an explicit cutoff to accept "
            f"the cost, or {remedy}"
        )
    return cutoff


def _coherent_cutoff(amplitudes, arm_count, cutoff, remedy=None) -> int:
    """An explicit ``cutoff`` (>= 1), or the automatic one of coherent states
    of the given amplitudes. Each amplitude must have a finite square, so a
    bad one is refused before a state truncated at that cutoff can warn."""
    mus = [_squared_modulus(a, "amplitude") for a in amplitudes]
    if cutoff is None:
        return _cap_auto_cutoff([_poisson_kept(mu)[0] for mu in mus], arm_count, remedy)
    return _count(cutoff, "cutoff")


def _epr_cutoff(chis, arm_count, remedy, held: int = 0) -> int:
    """Automatic cutoff of two-mode squeezed states; a chi >= 1 has none."""
    minimal = [minimal_epr_cutoff(chi) for chi in chis if chi < 1.0]
    return _cap_auto_cutoff(minimal, arm_count, remedy, held)


def _refuse_above(nbytes: int, limit: int, what: str, remedy: str) -> None:
    """Refuse a run whose ``what`` would take more than ``limit`` bytes."""
    if nbytes > limit:
        raise ValueError(
            f"{what} would take {math.ceil(nbytes / 2**20)} MiB, above the "
            f"{limit // 2**20} MiB limit; {remedy}"
        )


def _count(value, name: str, least: int = 1, *, optional: bool = False):
    """``value`` as an int >= ``least`` by ``operator.index``, never a bool;
    None passes if ``optional``. Raises TypeError or ValueError naming it."""
    if value is None and optional:
        return None
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    count = operator.index(value)
    if count < least:
        bound = f"a non-negative integer, got {count}" if least == 0 else f">= {least}"
        raise ValueError(f"{name} must be {bound}")
    return count


def _real(value, name: str, low: float, high: float, ends: str = "[]") -> None:
    """Refuse, naming ``name``, a ``value`` that is no real (TypeError) or lies
    outside the interval ``ends[0] low, high ends[1]``, as NaN does (ValueError)."""
    if not isinstance(value, (float, int, numbers.Real)):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    above = low < value if ends[0] == "(" else low <= value
    if not (above and (value < high if ends[1] == ")" else value <= high)):
        raise ValueError(f"{name} must lie in {ends[0]}{low:g}, {high:g}{ends[1]}")


# ---------------------------------------------------------------------------
# scalar functionals


def _pure(state) -> MultiModeState:
    if not isinstance(state, MultiModeState):
        raise TypeError(f"expected a pure state, got {type(state).__name__}")
    return state


def norm_sq(state) -> float:
    """Sum of |amplitude|**2 of a pure state."""
    flat = _pure(state).amplitudes.reshape(-1)
    return float(np.vdot(flat, flat).real)


def _factor(state) -> tuple[np.ndarray, tuple]:
    """Factor F of rho = F F+ and the cutoffs; a pure state is one column."""
    if isinstance(state, DensityOperator):
        return state.factor, state.basis_cutoffs
    mm = _pure(state)
    return mm.amplitudes.reshape(-1, 1), mm.mode_cutoffs


def _overlap_ratio(fa, fb, tr_a: float, tr_b: float) -> float:
    """||fa+ fb||**2 / (tr_a tr_b) for traces above 0. The overlap and each
    trace are scaled by exact powers of two near 1/sqrt(trace), at most
    2**511 so that their product is finite: the ratio keeps the unscaled
    bits, and tiny traces do not underflow."""
    scale_a = math.ldexp(1.0, min(511, -(math.frexp(tr_a)[1] // 2)))
    scale_b = math.ldexp(1.0, min(511, -(math.frexp(tr_b)[1] // 2)))
    overlap = (fa.conj().T @ fb) * (scale_a * scale_b)
    val = float(np.vdot(overlap, overlap).real)
    return val / ((tr_a * scale_a * scale_a) * (tr_b * scale_b * scale_b))


def fidelity(a, b) -> float:
    """Fidelity between two states in [0, 1], squared-overlap convention.

    Pure-pure inputs give |<a|b>|**2 and pure-mixed give <a|rho|a>: both
    are ||F_a+ F_b||**2 over the two traces, with a pure state as a
    one-column factor. Every mixed output is scored against a pure target,
    where Uhlmann's fidelity is <psi|rho|psi>, so two ``DensityOperator``
    inputs raise ``TypeError``. Inputs are normalized before comparison
    and only the basis states both cover contribute, as if the smaller
    basis were zero padded, so unnormalized heralded outputs can be
    compared directly against targets. Global phase never matters, and
    norms whose product underflows are scaled by exact powers of two.
    """
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        raise TypeError("fidelity takes at most one DensityOperator")
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
    # one side is a single column, so the overlap has rank 1 and its
    # trace norm is its Frobenius norm
    return float(min(max(_overlap_ratio(sa, sb, tr_a, tr_b), 0.0), 1.0))
