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

from .fock import MultiModeState, _pure, _real

#: Largest cutoff a loss takes: the binomial sqrt(C(n, n // 2)) of n = 2,054
#: photons exceeds the largest float64, whatever the transmission.
MAX_LOSS_CUTOFF = 2054


def _mix_rows(
    matrix: np.ndarray, t: float, a: int | np.ndarray, b: int | np.ndarray
) -> None:
    """Apply a beamsplitter of transmissivity ``t`` on the ordered pair
    (a, b) to a linear-optical mode matrix, in place.

    Column j of ``matrix`` holds where a photon entering mode j ends up, so
    the beamsplitter mixes the rows of its pair: row a becomes
    sqrt(t) row_a + sqrt(1 - t) row_b and row b becomes
    sqrt(t) row_b - sqrt(1 - t) row_a.

    ``a`` and ``b`` may also be equal-length index arrays whose pairs
    (a[i], b[i]) are disjoint: every pair then mixes at once, each entry
    computed as a mix of that pair alone would compute it.
    """
    c, s = math.sqrt(t), math.sqrt(1.0 - t)
    row_a, row_b = matrix[a].copy(), matrix[b].copy()
    matrix[a] = c * row_a + s * row_b
    matrix[b] = c * row_b - s * row_a


def _lose(amps: np.ndarray, epsilon, kept: int | None = None) -> np.ndarray:
    """Loss through transmission ``epsilon`` on the last axis of ``amps``:
    out[..., k, a] = amps[..., a + k] sqrt(C(a + k, k)) (1-eps)**(k/2)
    eps**(a/2) for a photons kept and k lost, zero where a + k >= cutoff.

    Only the first ``kept`` columns a are built (all of them by default),
    so a caller that reads a < N + 1 alone builds (cutoff, N + 1) numbers.
    ``epsilon`` may be an array of transmissions in [0, 1], one per leading
    index of ``amps``: the rows then share one binomial table.

    The binomial comes from log factorials L, which cannot overflow as
    float(C(n, k)) does past n ~ 1030; L[k] + L[a] is symmetric in k and
    a, so the binomial is too. The powers are multiplied together first,
    so a 50:50 split is mirror-exact to the last bit (equal clones).
    """
    epsilon = np.asarray(epsilon, dtype=np.float64)
    cutoff = amps.shape[-1]
    if cutoff > MAX_LOSS_CUTOFF:
        raise ValueError(f"loss binomials overflow above cutoff {MAX_LOSS_CUTOFF:,}")
    photons = np.arange(cutoff)
    columns = photons[:kept]
    # L[n] up to n = 2 cutoff - 2, zero from the cutoff on: where a + k >=
    # cutoff the weight need only be finite, as it meets a padding zero
    log_fact = np.zeros(2 * cutoff - 1)
    np.log(photons[1:]).cumsum(out=log_fact[1:cutoff])
    # powers as (..., 1) columns, so each transmission lays along its row
    kept_pow = np.sqrt(epsilon)[..., None] ** columns
    lost_pow = np.sqrt(1.0 - epsilon)[..., None] ** photons
    total = photons[:, None] + columns
    binom = log_fact[total]
    binom -= log_fact[:cutoff, None] + log_fact[: columns.size]
    binom *= 0.5
    np.exp(binom, out=binom)
    weights = binom * (lost_pow[..., :, None] * kept_pow[..., None, :])
    del binom  # freed before the gather, which holds the c**2 amplitudes
    # amps[..., a + k] from the amplitudes padded with zeros past the cutoff
    zeros = np.zeros(amps.shape[:-1] + (cutoff - 1,), dtype=amps.dtype)
    out = np.concatenate((amps, zeros), axis=-1)[..., total]
    out *= weights
    return out


def loss_channel(state, epsilon: float) -> MultiModeState:
    """Couple the first mode to vacuum through transmissivity ``epsilon``.

    Returns the purification: the environment is appended as the last mode
    and holds the lost photons with all-positive amplitudes
    sqrt(C(n, k)) (1-eps)**(k/2) eps**((n-k)/2). Tracing that mode out
    gives the lossy state.
    """
    _real(epsilon, "transmission", 0.0, 1.0)
    mm = _pure(state)
    # laid out (other modes, environment, mode): move the kept photons back
    out = np.moveaxis(_lose(np.moveaxis(mm.amplitudes, 0, -1), epsilon), -1, 0)
    return MultiModeState(out.shape, out)
