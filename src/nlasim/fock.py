"""Truncated Fock-space states, density operators and their basic algebra.

Everything is a dense complex array over number bases |0>, ..., |cutoff-1>;
a density operator is held as a factor F with rho = F F+. Unnormalized
states are first class: a heralded output keeps its raw norm, and the
squared norm (or the trace, for density operators) is the heralding
probability. Normalization is always an explicit call, never a side effect.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import TruncationError, TruncationWarning

#: Tolerance on squared norms when a state claims to be normalized.
NORM_TOL = 1e-12
#: Default bound on the probability mass a constructor may drop.
DEFAULT_TAIL_TOL = 1e-12


def _frozen_array(values, dtype=np.complex128) -> np.ndarray:
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MultiModeState:
    """Pure state of one or more modes, one cutoff per mode.

    The amplitude tensor has shape ``mode_cutoffs``; a single-mode state
    over |0>, ..., |c-1> has ``mode_cutoffs == (c,)``. The squared norm may
    be below one (heralding amplitude) but never above it.
    """

    mode_cutoffs: tuple
    amplitudes: np.ndarray = field(repr=False)
    normalized: bool = False

    def __post_init__(self):
        cutoffs = tuple(int(c) for c in self.mode_cutoffs)
        if not cutoffs or any(c < 1 for c in cutoffs):
            raise ValueError("each mode needs a cutoff >= 1")
        object.__setattr__(self, "mode_cutoffs", cutoffs)
        amps = _frozen_array(self.amplitudes)
        if amps.shape != cutoffs:
            raise ValueError(f"amplitude shape {amps.shape} != cutoffs {cutoffs}")
        object.__setattr__(self, "amplitudes", amps)
        n2 = norm_sq(self)
        if n2 > 1.0 + NORM_TOL:
            raise ValueError(f"squared norm {n2} exceeds 1")
        if self.normalized and abs(n2 - 1.0) > NORM_TOL:
            raise ValueError("state flagged normalized but norm**2 != 1")

    @property
    def n_modes(self) -> int:
        return len(self.mode_cutoffs)

    def normalize(self) -> "MultiModeState":
        n2 = norm_sq(self)
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero state")
        return MultiModeState(
            self.mode_cutoffs, self.amplitudes / math.sqrt(n2), True
        )

    def __repr__(self):
        return (
            f"MultiModeState(cutoffs={self.mode_cutoffs}, "
            f"norm_sq={norm_sq(self):.6g}, normalized={self.normalized})"
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
        cutoffs = tuple(int(c) for c in self.basis_cutoffs)
        if not cutoffs or any(c < 1 for c in cutoffs):
            raise ValueError("each mode needs a cutoff >= 1")
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
    def n_modes(self) -> int:
        return len(self.basis_cutoffs)

    @property
    def trace(self) -> float:
        flat = self.factor.reshape(-1)
        return float(np.vdot(flat, flat).real)

    @property
    def matrix(self) -> np.ndarray:
        """Dense rho = F F+, built on each access."""
        return self.factor @ self.factor.conj().T

    def __repr__(self):
        return (
            f"DensityOperator(cutoffs={self.basis_cutoffs}, "
            f"trace={self.trace:.6g})"
        )


# ---------------------------------------------------------------------------
# constructors


def number_state(n: int, cutoff: int) -> MultiModeState:
    """Basis state |n> at the given cutoff."""
    if not 0 <= n < cutoff:
        raise ValueError(f"photon number {n} outside basis of size {cutoff}")
    amps = np.zeros(cutoff, dtype=np.complex128)
    amps[n] = 1.0
    return MultiModeState((cutoff,), amps, normalized=True)


def vacuum(cutoff: int = 1) -> MultiModeState:
    return number_state(0, cutoff)


def minimal_coherent_cutoff(alpha: complex, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Smallest cutoff keeping the dropped Poisson tail below ``tail_tol``."""
    mu = abs(alpha) ** 2
    term = math.exp(-mu)
    cum = term
    n = 0
    while 1.0 - cum >= tail_tol:
        n += 1
        term *= mu / n
        cum += term
        if n > 10_000:
            raise TruncationError("coherent tail does not reach the tolerance")
    return n + 1


def coherent_state(
    alpha: complex,
    cutoff: int | None = None,
    *,
    strict: bool = False,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> MultiModeState:
    """Coherent state with complex amplitude ``alpha``.

    amplitudes[n] = exp(-|alpha|**2 / 2) * alpha**n / sqrt(n!)

    With ``cutoff=None`` the basis is sized so the dropped tail mass stays
    below ``tail_tol``. A vector that still drops more than ``tail_tol``
    raises ``TruncationError`` when ``strict`` and otherwise comes back
    unnormalized with a ``TruncationWarning`` attached.
    """
    alpha = complex(alpha)
    if cutoff is None:
        cutoff = minimal_coherent_cutoff(alpha, tail_tol)
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    amps = np.empty(cutoff, dtype=np.complex128)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, cutoff):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    tail = max(0.0, 1.0 - float(np.vdot(amps, amps).real))
    if tail >= tail_tol:
        if strict:
            raise TruncationError(
                f"cutoff {cutoff} drops tail mass {tail:.3g} >= {tail_tol:.3g}"
            )
        warnings.warn(
            f"coherent state truncated: tail mass {tail:.3g}", TruncationWarning
        )
    return MultiModeState((cutoff,), amps, normalized=tail < NORM_TOL)


def minimal_epr_cutoff(chi: float, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Smallest cutoff keeping the dropped geometric tail below ``tail_tol``."""
    if chi == 0.0:
        return 1
    cutoff = max(1, math.ceil(math.log(tail_tol) / (2.0 * math.log(chi))))
    while chi ** (2 * cutoff) >= tail_tol:
        cutoff += 1
    return cutoff


def epr_state(
    chi: float,
    cutoff: int | None = None,
    *,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> MultiModeState:
    """Two-mode squeezed state sqrt(1 - chi**2) * sum_n chi**n |n>|n>.

    ``chi`` runs from 0 (product vacuum) towards 1 (maximal entanglement);
    the boundary chi >= 1 is unnormalizable and rejected. The dropped tail
    mass is chi**(2 * cutoff); if it exceeds ``tail_tol`` the state comes
    back unnormalized with a ``TruncationWarning``.
    """
    if not 0.0 <= chi < 1.0:
        raise ValueError(f"chi must lie in [0, 1), got {chi}")
    if cutoff is None:
        cutoff = minimal_epr_cutoff(chi, tail_tol)
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    diag = math.sqrt(1.0 - chi**2) * chi ** np.arange(cutoff)
    amps = np.zeros((cutoff, cutoff), dtype=np.complex128)
    np.fill_diagonal(amps, diag)
    tail = chi ** (2 * cutoff)
    if tail >= tail_tol:
        warnings.warn(
            f"two-mode squeezed state truncated: tail mass {tail:.3g}",
            TruncationWarning,
        )
    return MultiModeState((cutoff, cutoff), amps, normalized=tail < NORM_TOL)


def annihilation(cutoff: int) -> np.ndarray:
    """Matrix of the annihilation operator a at the given cutoff."""
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=np.float64)), k=1).astype(
        np.complex128
    )


# ---------------------------------------------------------------------------
# composition and reduction


def _pure(state) -> MultiModeState:
    if not isinstance(state, MultiModeState):
        raise TypeError(f"expected a pure state, got {type(state).__name__}")
    return state


def tensor(a, b) -> MultiModeState:
    """Kronecker composition of two pure states; cutoff lists concatenate."""
    ma, mb = _pure(a), _pure(b)
    amps = np.multiply.outer(ma.amplitudes, mb.amplitudes)
    return MultiModeState(
        ma.mode_cutoffs + mb.mode_cutoffs, amps, ma.normalized and mb.normalized
    )


def project_number(state, mode: int, n: int) -> MultiModeState:
    """Project one mode onto |n> and drop it (unnormalized heralding)."""
    mm = _pure(state)
    if not 0 <= mode < mm.n_modes:
        raise ValueError(f"mode {mode} out of range")
    if mm.n_modes == 1:
        raise ValueError("cannot project away the last mode")
    if not 0 <= n < mm.mode_cutoffs[mode]:
        raise ValueError(f"count {n} outside mode cutoff")
    amps = np.take(mm.amplitudes, n, axis=mode)
    cutoffs = mm.mode_cutoffs[:mode] + mm.mode_cutoffs[mode + 1 :]
    return MultiModeState(cutoffs, amps)


def pad_state(state, new_cutoffs) -> MultiModeState:
    """Embed a pure state into larger per-mode cutoffs (zero padding)."""
    mm = _pure(state)
    new_cutoffs = tuple(int(c) for c in new_cutoffs)
    if len(new_cutoffs) != mm.n_modes:
        raise ValueError("cutoff list length != mode count")
    if any(n < o for n, o in zip(new_cutoffs, mm.mode_cutoffs)):
        raise ValueError("padding cannot shrink a cutoff")
    widths = [(0, n - o) for n, o in zip(new_cutoffs, mm.mode_cutoffs)]
    amps = np.pad(mm.amplitudes, widths)
    return MultiModeState(new_cutoffs, amps, mm.normalized)


def density_from_state(state) -> DensityOperator:
    """|psi><psi| over the flattened multimode basis."""
    mm = _pure(state)
    return DensityOperator(mm.mode_cutoffs, mm.amplitudes.reshape(-1, 1))


def partial_trace(state, modes_to_trace) -> DensityOperator:
    """Reduced density operator of a pure state after tracing out
    ``modes_to_trace``.

    Tracing nothing gives |psi><psi|; tracing every mode is rejected. The
    trace equals the squared norm up to rounding.
    """
    mm = _pure(state)
    n_modes = mm.n_modes
    traced = sorted(set(int(m) for m in modes_to_trace))
    if any(not 0 <= m < n_modes for m in traced):
        raise ValueError(f"mode indices {traced} out of range for {n_modes} modes")
    if len(traced) == n_modes:
        raise ValueError("cannot trace out every mode")
    kept_idx = [i for i in range(n_modes) if i not in traced]
    kept = tuple(mm.mode_cutoffs[i] for i in kept_idx)
    block = np.transpose(mm.amplitudes, kept_idx + traced).reshape(math.prod(kept), -1)
    return DensityOperator(kept, block)


# ---------------------------------------------------------------------------
# scalar functionals


def norm_sq(state) -> float:
    """Sum of |amplitude|**2 of a pure state."""
    flat = _pure(state).amplitudes.reshape(-1)
    return float(np.vdot(flat, flat).real)


def normalize(state) -> MultiModeState:
    """Explicitly normalized copy of a pure state."""
    return _pure(state).normalize()


def purity(rho: DensityOperator) -> float:
    """Tr[rho_hat**2] of the trace-normalized operator, ||F+ F||**2 / tr**2."""
    gram = rho.factor.conj().T @ rho.factor
    return float(np.vdot(gram, gram).real) / rho.trace**2


def _factor(state) -> tuple[np.ndarray, tuple]:
    """Factor F of rho = F F+ and the cutoffs; a pure state is one column."""
    if isinstance(state, DensityOperator):
        return state.factor, state.basis_cutoffs
    mm = _pure(state)
    return mm.amplitudes.reshape(-1, 1), mm.mode_cutoffs


def fidelity(a, b) -> float:
    """Fidelity between two states in [0, 1], squared-overlap convention.

    Pure-pure inputs give |<a|b>|**2, pure-mixed give <a|rho|a>, and
    mixed-mixed the squared Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma
    sqrt(rho)))**2. All three are ||F_a+ F_b||_1**2 over the two traces,
    with a pure state as a one-column factor. Inputs are normalized before
    comparison and only the basis states both cover contribute, as if the
    smaller basis were zero padded, so unnormalized heralded outputs can
    be compared directly against targets. Global phase never matters.
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
