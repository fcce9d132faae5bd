"""Linear-optical elements on truncated Fock-space states.

Beamsplitter convention, fixed repo wide: on an ordered mode pair (a, b)
with intensity transmissivity t, coherent amplitudes transform as

    alpha -> sqrt(t) alpha + sqrt(1 - t) beta
    beta  -> sqrt(t) beta  - sqrt(1 - t) alpha

so a single photon in the first mode goes to
sqrt(t) |1,0> - sqrt(1 - t) |0,1>. The Fock-basis unitary is built per
total-photon-number sector; sectors that cannot be represented within the
mode cutoffs raise rather than silently truncate.
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

    def inverted(self) -> "BeamsplitterSpec":
        # the inverse rotation is the same coupling with the pair swapped
        return BeamsplitterSpec(self.transmissivity, self.mode_pair[::-1])


@dataclass(frozen=True)
class NsplitterSpec:
    """Cascade of beamsplitters dividing mode 0 evenly over ``arm_count``
    modes: the composed mode unitary has first column 1/sqrt(N)."""

    arm_count: int
    construction: tuple

    def __post_init__(self):
        if self.arm_count < 1:
            raise ValueError("arm_count must be >= 1")
        object.__setattr__(self, "construction", tuple(self.construction))

    @classmethod
    def even_split(cls, arm_count: int) -> "NsplitterSpec":
        """Canonical cascade: arm k peels off with transmissivity
        1/(N - k + 1), leaving amplitude alpha/sqrt(N) in every arm."""
        if arm_count < 1:
            raise ValueError("arm_count must be >= 1")
        layers = [
            BeamsplitterSpec(1.0 / (arm_count - k + 1), (k, k - 1))
            for k in range(1, arm_count)
        ]
        return cls(arm_count, tuple(layers))

    def mode_unitary(self) -> np.ndarray:
        """Composed N x N amplitude map of the cascade."""
        u = np.eye(self.arm_count)
        for bs in self.construction:
            c = math.sqrt(bs.transmissivity)
            s = math.sqrt(1.0 - bs.transmissivity)
            i, j = bs.mode_pair
            e = np.eye(self.arm_count)
            e[i, i] = c
            e[i, j] = s
            e[j, i] = -s
            e[j, j] = c
            u = e @ u
        return u


@lru_cache(maxsize=512)
def _sector_block(t: float, sector: int) -> np.ndarray:
    """Unitary block on the span of |n, S-n>, n = 0..S, for one sector S."""
    c = math.sqrt(t)
    s = math.sqrt(1.0 - t)
    size = sector + 1
    block = np.zeros((size, size))
    fact = [math.factorial(k) for k in range(size)]
    for n in range(size):
        m = sector - n
        # (c a+ - s b+)**n (s a+ + c b+)**m expanded in powers of a+
        p = np.array([math.comb(n, i) * c**i * (-s) ** (n - i) for i in range(n + 1)])
        q = np.array([math.comb(m, k) * s**k * c ** (m - k) for k in range(m + 1)])
        coeffs = np.convolve(p, q)
        for j in range(size):
            block[j, n] = coeffs[j] * math.sqrt(
                fact[j] * fact[sector - j] / (fact[n] * fact[m])
            )
    block.setflags(write=False)
    return block


@lru_cache(maxsize=64)
def _two_mode_matrix(t: float, ci: int, cj: int) -> np.ndarray:
    """Full (ci*cj) x (ci*cj) matrix of the beamsplitter unitary, block
    diagonal per representable sector. Columns of unrepresentable input
    sectors stay zero; callers must clear them beforehand."""
    dim = ci * cj
    mat = np.zeros((dim, dim))
    for sector in range(min(ci, cj)):
        block = _sector_block(t, sector)
        idx = [n * cj + (sector - n) for n in range(sector + 1)]
        mat[np.ix_(idx, idx)] = block
    mat.setflags(write=False)
    return mat


def _sector_grid(ci: int, cj: int) -> np.ndarray:
    return np.add.outer(np.arange(ci), np.arange(cj))


def apply_beamsplitter(
    state, spec: BeamsplitterSpec, *, overflow_tol: float = OVERFLOW_TOL
):
    """Apply the two-mode beamsplitter unitary to a pure state.

    Photon-number sectors beyond what the two cutoffs can represent raise
    ``TruncationError`` once their probability mass exceeds
    ``overflow_tol``; below that they are dropped with the norm budget.
    """
    mm = _pure(state)
    i, j = spec.mode_pair
    if max(i, j) >= mm.n_modes:
        raise ValueError(f"mode pair {spec.mode_pair} out of range")
    if spec.transmissivity == 1.0:
        return mm
    ci, cj = mm.mode_cutoffs[i], mm.mode_cutoffs[j]

    amps = np.moveaxis(mm.amplitudes, (i, j), (-2, -1))
    lead = amps.shape[:-2]
    flat = amps.reshape(-1, ci * cj)

    smax = min(ci, cj) - 1
    over = (_sector_grid(ci, cj) > smax).reshape(-1)
    if over.any():
        mass = float(np.sum(np.abs(flat[:, over]) ** 2))
        if mass > overflow_tol:
            raise TruncationError(
                f"photon overflow past cutoffs ({ci}, {cj}): sector mass {mass:.3g}"
            )
        if mass:
            flat = flat.copy()
            flat[:, over] = 0.0

    out = flat @ _two_mode_matrix(spec.transmissivity, ci, cj).T
    out = np.moveaxis(out.reshape(lead + (ci, cj)), (-2, -1), (i, j))
    result = MultiModeState(mm.mode_cutoffs, out, mm.normalized)
    return result


def apply_nsplitter(state, spec: NsplitterSpec, inverse: bool = False):
    """Apply the even-split cascade (or its inverse) to an N-mode state."""
    mm = _pure(state)
    if mm.n_modes != spec.arm_count:
        raise ValueError(
            f"state has {mm.n_modes} modes, splitter expects {spec.arm_count}"
        )
    layers = (
        [bs.inverted() for bs in reversed(spec.construction)]
        if inverse
        else spec.construction
    )
    for bs in layers:
        mm = apply_beamsplitter(mm, bs)
    return mm


def phase_shift(state, theta: float, mode: int = 0):
    """Multiply the |n> amplitude of one mode by exp(i n theta)."""
    mm = _pure(state)
    if not 0 <= mode < mm.n_modes:
        raise ValueError(f"mode {mode} out of range")
    phases = np.exp(1j * theta * np.arange(mm.mode_cutoffs[mode]))
    shape = [1] * mm.n_modes
    shape[mode] = -1
    return MultiModeState(
        mm.mode_cutoffs, mm.amplitudes * phases.reshape(shape), mm.normalized
    )


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
