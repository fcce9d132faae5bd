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


def _loss_weights(epsilon: float, cutoff: int) -> np.ndarray:
    """Loss amplitudes w[k, a] = sqrt(C(a + k, k)) (1-eps)**(k/2) eps**(a/2)
    of a input photons kept and k lost, zero where a + k >= cutoff.

    The binomial comes from log factorials L, which cannot overflow as
    float(C(n, k)) does past n ~ 1030; L[k] + L[a] is symmetric in k and
    a, so the binomial is too. The powers are multiplied together first,
    so a 50:50 split is mirror-exact to the last bit (equal clones).
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    photons = np.arange(cutoff)
    kept, lost = math.sqrt(epsilon) ** photons, math.sqrt(1.0 - epsilon) ** photons
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(photons[1:]))))
    total = np.add.outer(photons, photons)
    inside = total < cutoff
    binom = np.exp(
        0.5 * (log_fact[np.where(inside, total, 0)] - np.add.outer(log_fact, log_fact))
    )
    return np.where(inside, binom * np.multiply.outer(lost, kept), 0.0)


def loss_channel(state, epsilon: float, mode: int = 0) -> MultiModeState:
    """Couple one mode to vacuum through transmissivity ``epsilon``.

    Returns the purification: the environment is appended as the last mode
    and holds the lost photons with all-positive amplitudes
    sqrt(C(n, k)) (1-eps)**(k/2) eps**((n-k)/2). Tracing that mode out
    gives the lossy state.
    """
    mm = _pure(state)
    if not 0 <= mode < mm.n_modes:
        raise ValueError(f"mode {mode} out of range")
    cutoff = mm.mode_cutoffs[mode]
    weights = _loss_weights(epsilon, cutoff)
    amps = np.moveaxis(mm.amplitudes, mode, -1)
    # laid out (environment, other modes, mode): each k fills one slab
    out = np.zeros((cutoff,) + amps.shape, dtype=np.complex128)
    for k in range(cutoff):
        # inputs n = k..cutoff-1 that lose k photons
        out[k, ..., : cutoff - k] = amps[..., k:] * weights[k, : cutoff - k]
    out = np.moveaxis(np.moveaxis(out, 0, -1), -2, mode)
    return MultiModeState(mm.mode_cutoffs + (cutoff,), out)
