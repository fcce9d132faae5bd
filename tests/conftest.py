import numpy as np
import pytest

from nlasim import BeamsplitterSpec, DensityOperator, MultiModeState, apply_beamsplitter


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
# Fock-space plumbing for the reference routes; the library itself works on
# mode matrices where these would be needed


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
        state = apply_beamsplitter(state, BeamsplitterSpec(1.0 / (n - k + 1), pair))
    return state
