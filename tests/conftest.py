import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.linalg import expm

from nlasim import (
    DensityOperator,
    MultiModeState,
    TruncationError,
    epr_state,
    loss_channel,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def random_fock(rng, cutoff, support=None) -> MultiModeState:
    live = cutoff if support is None else min(support + 1, cutoff)
    amps = np.zeros(cutoff, dtype=np.complex128)
    amps[:live] = rng.normal(size=live) + 1j * rng.normal(size=live)
    amps /= np.linalg.norm(amps)
    return MultiModeState((cutoff,), amps)


def random_multimode(rng, cutoffs, max_total=None) -> MultiModeState:
    """Random pure state; ``max_total`` bounds the joint photon number so
    beamsplitter networks can represent every output sector."""
    amps = rng.normal(size=cutoffs) + 1j * rng.normal(size=cutoffs)
    if max_total is not None:
        totals = np.zeros(cutoffs)
        for axis, c in enumerate(cutoffs):
            shape = [1] * len(cutoffs)
            shape[axis] = c
            totals = totals + np.arange(c).reshape(shape)
        amps = np.where(totals <= max_total, amps, 0.0)
    amps /= np.linalg.norm(amps.reshape(-1))
    return MultiModeState(tuple(cutoffs), amps)


def random_density(rng, cutoffs, rank=3) -> DensityOperator:
    """Unit-trace mixture of ``rank`` random pure states, one factor
    column sqrt(w) |v> per state."""
    dim = int(np.prod(cutoffs))
    columns = []
    weights = rng.dirichlet(np.ones(rank))
    for w in weights:
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        columns.append(np.sqrt(w) * vec / np.linalg.norm(vec))
    return DensityOperator(tuple(cutoffs), np.stack(columns, axis=1))


# ---------------------------------------------------------------------------
# generic density routes: the library builds a mixed state only from a
# factor it already holds, and these are the references it is checked against


def density_from_state(state) -> DensityOperator:
    """|psi><psi| over the flattened multimode basis."""
    return DensityOperator(state.mode_cutoffs, state.amplitudes.reshape(-1, 1))


def partial_trace(state, modes_to_trace) -> DensityOperator:
    """Reduced density operator of a pure state after tracing out
    ``modes_to_trace``; its factor is the amplitude tensor laid out as kept
    modes by traced modes. Tracing nothing gives |psi><psi|; tracing every
    mode is rejected."""
    n_modes = state.n_modes
    traced = sorted(set(int(m) for m in modes_to_trace))
    if any(not 0 <= m < n_modes for m in traced):
        raise ValueError(f"mode indices {traced} out of range for {n_modes} modes")
    if len(traced) == n_modes:
        raise ValueError("cannot trace out every mode")
    kept_idx = [i for i in range(n_modes) if i not in traced]
    kept = tuple(state.mode_cutoffs[i] for i in kept_idx)
    block = np.transpose(state.amplitudes, kept_idx + traced)
    return DensityOperator(kept, block.reshape(math.prod(kept), -1))


def dense(rho) -> np.ndarray:
    """The dense matrix F F+ of a density operator."""
    return rho.factor @ rho.factor.conj().T


def purity(rho) -> float:
    """Tr[rho_hat**2] of the trace-normalized operator, ||F+ F||**2 / tr**2."""
    gram = rho.factor.conj().T @ rho.factor
    return float(np.vdot(gram, gram).real) / rho.trace**2


def lossy_epr(chi, epsilon, cutoff) -> DensityOperator:
    """Two-mode squeezed state with arm A (mode 0) sent through transmission
    ``epsilon``: the loss purification with its environment traced out."""
    return partial_trace(loss_channel(epr_state(chi, cutoff), epsilon), [2])


# ---------------------------------------------------------------------------
# Fock-space plumbing for the reference routes; the library itself works on
# mode matrices where these would be needed


def annihilation(cutoff: int) -> np.ndarray:
    """Matrix of the annihilation operator a at the given cutoff."""
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=np.float64)), k=1).astype(
        np.complex128
    )


@lru_cache(maxsize=256)
def expm_beamsplitter(t, ci, cj):
    """Dense two-mode beamsplitter unitary on cutoffs (ci, cj): expm of the
    mode-mixing generator theta * (a+ b - a b+), theta = arccos(sqrt(t))."""
    a = np.kron(annihilation(ci), np.eye(cj))
    b = np.kron(np.eye(ci), annihilation(cj))
    gen = a.conj().T @ b - a @ b.conj().T
    # arccos(sqrt(t)) without its rounding blow-up near t = 1
    unitary = expm(math.atan2(math.sqrt(1.0 - t), math.sqrt(t)) * gen)
    unitary.setflags(write=False)
    return unitary


def beamsplitter(state, t, pair) -> MultiModeState:
    """Apply the beamsplitter of transmissivity ``t`` to the ordered mode
    ``pair`` of a pure state, with the sign convention of ``nlasim.optics``.

    The truncated generator is exact only on the photon-number sectors
    S < min(ci, cj) of the pair, so more than 1e-12 probability at or past
    them raises rather than being mixed wrongly.
    """
    i, j = pair
    ci, cj = state.mode_cutoffs[i], state.mode_cutoffs[j]
    amps = np.moveaxis(state.amplitudes, (i, j), (0, 1))
    over = np.add.outer(np.arange(ci), np.arange(cj)) >= min(ci, cj)
    mass = float(np.sum(np.abs(amps[over]) ** 2))
    if mass > 1e-12:
        raise TruncationError(
            f"photon overflow past cutoffs ({ci}, {cj}): sector mass {mass:.3g}"
        )
    flat = expm_beamsplitter(float(t), ci, cj) @ amps.reshape(ci * cj, -1)
    out = np.moveaxis(flat.reshape(amps.shape), (0, 1), (i, j))
    return MultiModeState(state.mode_cutoffs, out)


def pad_state(state, new_cutoffs) -> MultiModeState:
    """Embed a pure state into larger per-mode cutoffs (zero padding)."""
    widths = [(0, n - o) for n, o in zip(new_cutoffs, state.mode_cutoffs)]
    return MultiModeState(tuple(new_cutoffs), np.pad(state.amplitudes, widths))


def project_number(state, mode, n) -> MultiModeState:
    """Project one mode onto |n> and drop it (unnormalized heralding)."""
    cutoffs = state.mode_cutoffs[:mode] + state.mode_cutoffs[mode + 1 :]
    return MultiModeState(cutoffs, np.take(state.amplitudes, n, axis=mode))


def even_splitter(state, inverse=False) -> MultiModeState:
    """Divide mode 0 evenly over every mode of an N-mode state, or undo it.

    Arm k = 1..N-1 peels off from arm k-1 with transmissivity
    1/(N - k + 1), leaving amplitude alpha/sqrt(N) in every arm; the
    inverse runs the cascade backwards with each pair swapped.
    """
    n = state.n_modes
    for k in range(n - 1, 0, -1) if inverse else range(1, n):
        pair = (k - 1, k) if inverse else (k, k - 1)
        state = beamsplitter(state, 1.0 / (n - k + 1), pair)
    return state


def dense_purity_product(rho) -> tuple[float, float]:
    """(v_minus, v_plus) from kron-built two-mode quadrature operators O,
    applied to the trace-normalized factor F: Tr rho O = <F, O F> and
    Tr rho O**2 = ||O F||**2 for Hermitian O."""
    fac = rho.factor / math.sqrt(rho.trace)
    ca, cb = rho.basis_cutoffs
    xs, ps = [], []
    for m, c in enumerate((ca, cb)):
        a = annihilation(c)
        for ops, op in ((xs, a + a.conj().T), (ps, -1j * (a - a.conj().T))):
            ops.append(np.kron(op, np.eye(cb)) if m == 0 else np.kron(np.eye(ca), op))

    def variance(op):
        applied = op @ fac
        mean = np.vdot(fac, applied).real
        return np.vdot(applied, applied).real - mean**2

    v_x = {sign: variance(xs[0] + sign * xs[1]) / 2.0 for sign in (-1.0, +1.0)}
    sign = min(v_x, key=v_x.get)
    return v_x[sign], variance(ps[0] + sign * ps[1]) / 2.0
