"""Linear-optical elements on truncated Fock-space states.

Beamsplitter convention, fixed repo wide: on an ordered mode pair (a, b)
with intensity transmissivity t, coherent amplitudes transform as

    alpha -> sqrt(t) alpha + sqrt(1 - t) beta
    beta  -> sqrt(t) beta  - sqrt(1 - t) alpha

so a single photon in the first mode goes to
sqrt(t) |1,0> - sqrt(1 - t) |0,1>. On a linear-optical mode matrix, whose
column j holds where a photon entering mode j ends up, the same element
mixes the rows of its pair (``_mix_rows``).

The beamsplitter conserves the total photon number S, so its Fock-basis
unitary is a direct sum of blocks on |n, S-n>, n = 0..S: exp(theta G) with
theta = arccos(sqrt(t)) and G = a+ b - a b+ = -i D X D+, where
D = diag(i**n) and X is real tridiagonal with off-diagonals
sqrt((n+1)(S-n)). One ``eigh`` of X = W diag(lam) W^T per sector serves
every t: block = Re[(D W) diag(exp(-i theta lam)) (D W)+], unitary to
rounding at any S; its vacuum-input column takes the closed form
sqrt(C(S, j)) s**j c**(S-j). A state is transformed sector by sector;
sectors beyond the mode cutoffs raise rather than silently truncate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TruncationError
from .fock import MultiModeState, _pure, number_state, tensor

#: Probability mass a beamsplitter may drop from unrepresentable sectors.
OVERFLOW_TOL = 1e-12


@dataclass(frozen=True)
class BeamsplitterSpec:
    """Two-mode mixing with intensity transmissivity ``transmissivity``
    acting on the ordered ``mode_pair``."""

    transmissivity: float
    mode_pair: tuple

    def __post_init__(self):
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError("transmissivity must lie in [0, 1]")
        pair = tuple(int(m) for m in self.mode_pair)
        if len(pair) != 2 or pair[0] == pair[1] or min(pair) < 0:
            raise ValueError(f"mode pair {pair} must be two distinct indices")
        object.__setattr__(self, "mode_pair", pair)


def _mix_rows(matrix: np.ndarray, spec: BeamsplitterSpec) -> None:
    """Apply a beamsplitter to a linear-optical mode matrix, in place.

    Column j of ``matrix`` holds where a photon entering mode j ends up, so
    the beamsplitter mixes the rows of its pair: row a becomes
    sqrt(t) row_a + sqrt(1 - t) row_b and row b becomes
    sqrt(t) row_b - sqrt(1 - t) row_a, the one-photon sector of
    ``apply_beamsplitter``.
    """
    a, b = spec.mode_pair
    c, s = math.sqrt(spec.transmissivity), math.sqrt(1.0 - spec.transmissivity)
    row_a, row_b = matrix[a].copy(), matrix[b].copy()
    matrix[a] = c * row_a + s * row_b
    matrix[b] = c * row_b - s * row_a


@lru_cache(maxsize=512)
def _sector_modes(sector: int) -> tuple:
    """Eigenpairs of the real tridiagonal X with off-diagonals
    sqrt((n+1)(S-n)) on the basis |n, S-n>; they do not depend on t."""
    off = np.sqrt(np.arange(1, sector + 1) * np.arange(sector, 0, -1.0))
    return np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))


@lru_cache(maxsize=512)
def _sector_block(t: float, sector: int) -> np.ndarray:
    """Unitary block on the span of |n, S-n>, n = 0..S, for one sector S."""
    lam, w = _sector_modes(sector)
    k = np.arange(sector + 1)
    v = np.array([1, 1j, -1, -1j])[k % 4, None] * w
    c, s = math.sqrt(t), math.sqrt(1.0 - t)
    theta = math.atan2(s, c)  # arccos(c), without its rounding blow-up near t = 1
    block = ((v * np.exp(-1j * theta * lam)) @ v.conj().T).real.copy()
    binom = np.sqrt([float(math.comb(sector, j)) for j in k])
    # the vacuum-input column, exact and free of cancellation; powers first, so
    # a 50:50 split against vacuum is mirror-exact to the last bit (equal clones)
    block[:, 0] = binom * (s**k * c ** (sector - k))
    block.setflags(write=False)
    return block


@lru_cache(maxsize=64)
def _sector_rows(ci: int, cj: int) -> tuple:
    """Flat (n, m) indices of the representable sectors S < min(ci, cj),
    sector by sector with n ascending, and the indices past them."""
    n, m = np.divmod(np.arange(ci * cj), cj)
    order = np.argsort(n + m, kind="stable")
    size = min(ci, cj) * (min(ci, cj) + 1) // 2
    return order[:size], order[size:]


def apply_beamsplitter(state, spec: BeamsplitterSpec):
    """Apply the two-mode beamsplitter unitary to a pure state.

    Photon-number sectors beyond what the two cutoffs can represent raise
    ``TruncationError`` once their probability mass exceeds
    ``OVERFLOW_TOL``; below that they are dropped with the norm budget.
    """
    mm = _pure(state)
    i, j = spec.mode_pair
    if max(i, j) >= mm.n_modes:
        raise ValueError(f"mode pair {spec.mode_pair} out of range")
    if spec.transmissivity == 1.0:
        return mm
    ci, cj = mm.mode_cutoffs[i], mm.mode_cutoffs[j]

    amps = np.moveaxis(mm.amplitudes, (i, j), (0, 1))
    flat = amps.reshape(ci * cj, -1)
    rows, over = _sector_rows(ci, cj)
    if over.size:
        mass = float(np.sum(np.abs(flat[over]) ** 2))
        if mass > OVERFLOW_TOL:
            raise TruncationError(
                f"photon overflow past cutoffs ({ci}, {cj}): sector mass {mass:.3g}"
            )

    sectors = flat[rows]
    for sector in range(1, min(ci, cj)):
        lo = sector * (sector + 1) // 2
        part = sectors[lo : lo + sector + 1]
        part[...] = _sector_block(spec.transmissivity, sector) @ part
    out = np.zeros_like(flat)
    out[rows] = sectors
    out = np.moveaxis(out.reshape(amps.shape), (0, 1), (i, j))
    return MultiModeState(mm.mode_cutoffs, out)


def loss_channel(state, epsilon: float, mode: int = 0) -> MultiModeState:
    """Couple one mode to vacuum through transmissivity ``epsilon``.

    Returns the purification: the environment is appended as the last mode
    and holds the lost photons with all-positive amplitudes
    sqrt(C(n, k)) (1-eps)**(k/2) eps**((n-k)/2). Tracing that mode out
    gives the lossy state.
    """
    mm = _pure(state)
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    if not 0 <= mode < mm.n_modes:
        raise ValueError(f"mode {mode} out of range")
    env_idx = mm.n_modes
    joint = tensor(mm, number_state(0, mm.mode_cutoffs[mode]))
    # ordered pair (environment, system) keeps every amplitude positive
    return apply_beamsplitter(joint, BeamsplitterSpec(epsilon, (env_idx, mode)))
