"""Linear-optical elements on truncated Fock-space states.

Beamsplitter convention, fixed repo wide: on an ordered mode pair (a, b)
with intensity transmissivity t, coherent amplitudes transform as

    alpha -> sqrt(t) alpha + sqrt(1 - t) beta
    beta  -> sqrt(t) beta  - sqrt(1 - t) alpha

so a single photon in the first mode goes to
sqrt(t) |1,0> - sqrt(1 - t) |0,1>. On a linear-optical mode matrix, whose
column j holds where a photon entering mode j ends up, the same element
mixes the rows of its pair (``_mix_rows``).

The only Fock-space element is loss: a beamsplitter of transmissivity eps
against a vacuum environment, ordered (environment, system), maps

    |n>|0> -> sum_k sqrt(C(n, k)) (1-eps)**(k/2) eps**((n-k)/2) |n-k>|k>

with every amplitude positive. The environment gets the cutoff of the
mode it couples to, so k <= n stays inside both cutoffs.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import MultiModeState, _pure


def _mix_rows(matrix: np.ndarray, t: float, a: int, b: int) -> None:
    """Apply a beamsplitter of transmissivity ``t`` on the ordered pair
    (a, b) to a linear-optical mode matrix, in place.

    Column j of ``matrix`` holds where a photon entering mode j ends up, so
    the beamsplitter mixes the rows of its pair: row a becomes
    sqrt(t) row_a + sqrt(1 - t) row_b and row b becomes
    sqrt(t) row_b - sqrt(1 - t) row_a.
    """
    c, s = math.sqrt(t), math.sqrt(1.0 - t)
    row_a, row_b = matrix[a].copy(), matrix[b].copy()
    matrix[a] = c * row_a + s * row_b
    matrix[b] = c * row_b - s * row_a


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
    cutoff = mm.mode_cutoffs[mode]
    photons = np.arange(cutoff)
    kept, lost = math.sqrt(epsilon) ** photons, math.sqrt(1.0 - epsilon) ** photons
    amps = np.moveaxis(mm.amplitudes, mode, -1)
    # laid out (environment, other modes, mode): each k fills one slab
    out = np.zeros((cutoff,) + amps.shape, dtype=np.complex128)
    for k in range(cutoff):
        # inputs n = k..cutoff-1 that lose k photons; powers first, so a
        # 50:50 split is mirror-exact to the last bit (equal clones)
        binom = np.sqrt([float(math.comb(n, k)) for n in range(k, cutoff)])
        weight = binom * (lost[k] * kept[: cutoff - k])
        out[k, ..., : cutoff - k] = amps[..., k:] * weight
    out = np.moveaxis(np.moveaxis(out, 0, -1), -2, mode)
    return MultiModeState(mm.mode_cutoffs + (cutoff,), out)
