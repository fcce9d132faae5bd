"""Truncated Fock-space states, density operators and their basic algebra.

Everything is a dense complex array over number bases |0>, ..., |cutoff-1>.
Unnormalized states are first class: a heralded output keeps its raw norm,
and the squared norm (or the trace, for density operators) is the heralding
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
#: Maximum elementwise deviation from Hermiticity accepted at construction.
HERMITICITY_TOL = 1e-10
#: Most negative eigenvalue accepted for a density operator.
EIGENVALUE_TOL = 1e-10
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
    """Hermitian positive-semidefinite operator over a (multi)mode basis.

    The trace lies in (0, 1]. An unnormalized operator carries its
    heralding probability in the trace.
    """

    basis_cutoffs: tuple
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        cutoffs = tuple(int(c) for c in self.basis_cutoffs)
        if not cutoffs or any(c < 1 for c in cutoffs):
            raise ValueError("each mode needs a cutoff >= 1")
        object.__setattr__(self, "basis_cutoffs", cutoffs)
        dim = math.prod(cutoffs)
        mat = _frozen_array(self.matrix)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} != ({dim}, {dim})")
        object.__setattr__(self, "matrix", mat)
        dev = np.max(np.abs(mat - mat.conj().T))
        if dev > HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian (max deviation {dev:.3g})")
        tr = np.trace(mat)
        if abs(tr.imag) > HERMITICITY_TOL:
            raise ValueError("trace has a nonzero imaginary part")
        if not 0.0 < tr.real <= 1.0 + EIGENVALUE_TOL:
            raise ValueError(f"trace {tr.real} outside (0, 1]")
        lo = np.linalg.eigvalsh(mat).min()
        if lo < -EIGENVALUE_TOL:
            raise ValueError(f"negative eigenvalue {lo:.3g}")

    @property
    def n_modes(self) -> int:
        return len(self.basis_cutoffs)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def normalize(self) -> "DensityOperator":
        return DensityOperator(self.basis_cutoffs, self.matrix / self.trace)

    def __repr__(self):
        return (
            f"DensityOperator(cutoffs={self.basis_cutoffs}, "
            f"trace={self.trace:.6g})"
        )


@dataclass(frozen=True, eq=False)
class ModeOperator:
    """Dense single-mode operator mapping a basis of size ``in_cutoff``
    to one of size ``out_cutoff``."""

    in_cutoff: int
    out_cutoff: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = _frozen_array(self.matrix)
        if mat.shape != (self.out_cutoff, self.in_cutoff):
            raise ValueError(
                f"matrix shape {mat.shape} != ({self.out_cutoff}, {self.in_cutoff})"
            )
        object.__setattr__(self, "matrix", mat)

    def apply(self, state: MultiModeState) -> MultiModeState:
        if _pure(state).mode_cutoffs != (self.in_cutoff,):
            raise ValueError("cutoff mismatch")
        return MultiModeState((self.out_cutoff,), self.matrix @ state.amplitudes)

    def __repr__(self):
        return f"ModeOperator({self.in_cutoff} -> {self.out_cutoff})"


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
    vec = mm.amplitudes.reshape(-1)
    return DensityOperator(mm.mode_cutoffs, np.outer(vec, vec.conj()))


def partial_trace(state, modes_to_trace) -> DensityOperator:
    """Reduced density operator after tracing out ``modes_to_trace``.

    Accepts a pure state or a density operator. Tracing nothing returns
    the density-operator representation unchanged; tracing every mode is
    rejected. The total trace is preserved exactly up to rounding.
    """
    traced = sorted(set(int(m) for m in modes_to_trace))
    if isinstance(state, DensityOperator):
        cutoffs = state.basis_cutoffs
    else:
        cutoffs = _pure(state).mode_cutoffs
    n_modes = len(cutoffs)
    if any(not 0 <= m < n_modes for m in traced):
        raise ValueError(f"mode indices {traced} out of range for {n_modes} modes")
    if len(traced) == n_modes:
        raise ValueError("cannot trace out every mode")

    if isinstance(state, DensityOperator):
        if not traced:
            return state
        ten = state.matrix.reshape(cutoffs + cutoffs)
        m = n_modes
        for mode in reversed(traced):
            ten = np.trace(ten, axis1=mode, axis2=mode + m)
            m -= 1
        kept = tuple(c for i, c in enumerate(cutoffs) if i not in traced)
        dim = math.prod(kept)
        return DensityOperator(kept, ten.reshape(dim, dim))

    if not traced:
        return density_from_state(state)
    kept_idx = [i for i in range(n_modes) if i not in traced]
    perm = kept_idx + traced
    kept = tuple(cutoffs[i] for i in kept_idx)
    block = np.transpose(state.amplitudes, perm).reshape(math.prod(kept), -1)
    return DensityOperator(kept, block @ block.conj().T)


# ---------------------------------------------------------------------------
# scalar functionals


def norm_sq(state) -> float:
    """Sum of |amplitude|**2, or the trace for a density operator."""
    if isinstance(state, DensityOperator):
        return state.trace
    if isinstance(state, MultiModeState):
        flat = state.amplitudes.reshape(-1)
        return float(np.vdot(flat, flat).real)
    raise TypeError(f"unsupported type {type(state).__name__}")


def normalize(state):
    """Explicitly normalized copy (unit norm or unit trace)."""
    return state.normalize()


def purity(rho: DensityOperator) -> float:
    """Tr[rho_hat**2] of the trace-normalized operator."""
    m = rho.matrix / rho.trace
    return float(np.trace(m @ m).real)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _coerce_comparable(state):
    """Return ("pure", tensor, cutoffs) or ("mixed", matrix, cutoffs)."""
    if isinstance(state, DensityOperator):
        return "mixed", state.matrix, state.basis_cutoffs
    mm = _pure(state)
    return "pure", mm.amplitudes, mm.mode_cutoffs


def _pad_matrix(mat, cutoffs, new_cutoffs):
    ten = mat.reshape(cutoffs + cutoffs)
    widths = [(0, n - o) for n, o in zip(new_cutoffs, cutoffs)] * 2
    ten = np.pad(ten, widths)
    dim = math.prod(new_cutoffs)
    return ten.reshape(dim, dim)


def fidelity(a, b) -> float:
    """Fidelity between two states in [0, 1], squared-overlap convention.

    Pure-pure inputs give |<a|b>|**2, pure-mixed give <a|rho|a>, and
    mixed-mixed the squared Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma
    sqrt(rho)))**2. Inputs are normalized before comparison and the
    smaller basis is zero padded, so unnormalized heralded outputs can be
    compared directly against targets. Global phase never matters.
    """
    kind_a, arr_a, cut_a = _coerce_comparable(a)
    kind_b, arr_b, cut_b = _coerce_comparable(b)
    if len(cut_a) != len(cut_b):
        raise ValueError(
            f"mode count mismatch: {len(cut_a)} vs {len(cut_b)}"
        )
    target = tuple(max(x, y) for x, y in zip(cut_a, cut_b))

    def prep(kind, arr, cutoffs):
        if kind == "pure":
            widths = [(0, n - o) for n, o in zip(target, cutoffs)]
            vec = np.pad(arr, widths).reshape(-1)
            n2 = float(np.vdot(vec, vec).real)
            if n2 <= 0.0:
                raise ValueError("cannot compare a zero-norm state")
            return vec / math.sqrt(n2)
        mat = _pad_matrix(arr, cutoffs, target)
        tr = float(np.trace(mat).real)
        if tr <= 0.0:
            raise ValueError("cannot compare a zero-trace operator")
        return mat / tr

    xa = prep(kind_a, arr_a, cut_a)
    xb = prep(kind_b, arr_b, cut_b)

    if kind_a == "pure" and kind_b == "pure":
        val = abs(np.vdot(xa, xb)) ** 2
    elif kind_a == "pure":
        val = float(np.real(xa.conj() @ xb @ xa))
    elif kind_b == "pure":
        val = float(np.real(xb.conj() @ xa @ xb))
    else:
        # Tr sqrt(sqrt(rho) sigma sqrt(rho)) equals the trace norm of
        # sqrt(rho) sqrt(sigma): manifestly symmetric and stable
        sing = np.linalg.svd(_psd_sqrt(xa) @ _psd_sqrt(xb), compute_uv=False)
        val = float(np.sum(sing)) ** 2
    return float(min(max(val, 0.0), 1.0))
