import numpy as np
import pytest

from nlasim import DensityOperator, MultiModeState


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def random_fock(rng, cutoff, support=None) -> MultiModeState:
    live = cutoff if support is None else min(support + 1, cutoff)
    amps = np.zeros(cutoff, dtype=np.complex128)
    amps[:live] = rng.normal(size=live) + 1j * rng.normal(size=live)
    amps /= np.linalg.norm(amps)
    return MultiModeState((cutoff,), amps, normalized=True)


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
    return MultiModeState(tuple(cutoffs), amps, normalized=True)


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
