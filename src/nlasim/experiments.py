"""Experiment runners: each builds a plot-ready table of rows.

Tables are emitted in sweep order, so identical configurations produce
identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .applications import (
    _boost,
    _distill_gain,
    _distill_point,
    _sector_density,
    clone_coherent,
    clone_fidelities,
    distill_numeric,
)
from .fock import (
    DensityOperator,
    _coherent_cutoff,
    _epr_cutoff,
    _overlap_ratio,
    _refuse_above,
    coherent_state,
    epr_state,
    fidelity,
    norm_sq,
    number_state,
)
from .nla import (
    _gain_squared,
    gain_from_eta,
    misfire_terms,
    nla_apply,
    nla_apply_asymptotic,
)

FIDELITY_NOTE = (
    "fidelity is the squared-overlap convention |<target|out>|**2 on "
    "normalized states; fidelity_amplitude is its square root"
)

#: Largest table a run may build, in bytes, at 4 KiB a row: a row written
#: as JSON peaks at about 2.4 KiB. This admits 65,536 rows.
MAX_TABLE_BYTES = 256 * 2**20


@dataclass(frozen=True)
class TableResult:
    """A table as rows that share their keys, in column order, plus the
    provenance of every analytic target it compares against."""

    rows: list
    provenance: tuple

    @property
    def columns(self) -> tuple:
        return tuple(self.rows[0])


def amplify_table(
    *,
    alpha: complex | None = None,
    fock: int | None = None,
    arms: int = 2,
    eta: float = 1.0 / 3.0,
    asymptotic: bool = False,
    cutoff: int | None = None,
    gamma: float = 0.0,
) -> TableResult:
    """Amplify one coherent or number state and tabulate the output
    amplitudes next to the run summary.

    A nonzero ``gamma`` switches to the first-order misfire model for
    single-photon sources of efficiency 1 - gamma; the emitted state is
    then a mixture and the table carries its purity and the overlap of
    the two branches.
    """
    gain = gain_from_eta(eta)
    if (alpha is None) == (fock is None):
        raise ValueError("exactly one of alpha / fock must be given")
    if gamma and (alpha is None or asymptotic):
        raise ValueError("the misfire model needs a coherent input at finite arms")
    if alpha is None:
        if cutoff is None:
            # one slot of headroom keeps the ideal-map tail check off the
            # top basis entry
            cutoff = max(fock + 2, arms + 1)
    elif gamma:
        # the misfire branches check alpha itself before building a state
        cutoff = _coherent_cutoff((gain * alpha,), arms, cutoff)
    else:
        cutoff = _coherent_cutoff((gain * alpha, alpha), arms, cutoff)
    # one row per basis level
    most = "use a smaller photon number, arm count or cutoff"
    _refuse_above(2**12 * cutoff, MAX_TABLE_BYTES, f"a table of {cutoff} rows", most)
    if gamma:
        return _misfire_table(alpha, arms, eta, gamma, cutoff, gain)
    if alpha is None:
        state = number_state(fock, cutoff)
        target = state
    else:
        state = coherent_state(alpha, cutoff)
        target = coherent_state(gain * alpha, cutoff)

    if asymptotic:
        out = nla_apply_asymptotic(state, gain)
    else:
        out = nla_apply(state, arms, eta)
    n2 = norm_sq(out)
    prob = None if asymptotic else n2
    zero_output = n2 == 0.0
    fid = math.nan if zero_output else fidelity(out, target)
    rows = []
    for n in range(cutoff):
        amp = out.amplitudes[n]
        rows.append(
            {
                "n": n,
                "amp_re": amp.real,
                "amp_im": amp.imag,
                "prob_n": abs(amp) ** 2,
                "success_prob": prob,
                "success_prob_pct": None if prob is None else 100.0 * prob,
                "fidelity": fid,
                "target_gain": gain,
                "zero_output": zero_output,
            }
        )
    prov = (
        "target state: coherent(gain * alpha) at the device gain "
        "g = sqrt((1 - eta) / eta); number-state inputs keep themselves as target",
        FIDELITY_NOTE,
    )
    return TableResult(rows, prov)


def _misfire_table(alpha, arms, eta, gamma, cutoff, gain) -> TableResult:
    first, second = misfire_terms(alpha, arms, eta, gamma, cutoff)
    # the mixture's factor has one column per branch; its trace is the
    # acceptance, and its purity ||F+ F||**2 / tr**2
    factor = np.stack([first.amplitudes, second.amplitudes], axis=1)
    rho = DensityOperator(first.mode_cutoffs, factor)
    accept = rho.trace
    mixed_purity = _overlap_ratio(rho.factor, rho.factor, accept, accept)
    # a vacuum input has no misfire branch: nan, as for a zero output
    term_overlap = math.nan if norm_sq(second) == 0.0 else fidelity(first, second)
    fid = fidelity(rho, coherent_state(gain * alpha, cutoff))
    diag = (rho.factor * rho.factor.conj()).real.sum(axis=1) / accept
    rows = [
        {
            "n": n,
            "prob_n": float(diag[n]),
            "success_prob": accept,
            "success_prob_pct": 100.0 * accept,
            "purity": mixed_purity,
            "term_fidelity": term_overlap,
            "fidelity": fid,
            "target_gain": gain,
            "gamma": gamma,
        }
        for n in range(cutoff)
    ]
    prov = (
        "first-order misfire model: accepted runs where one single-photon "
        "source emitted nothing mix a shorter product branch into the output",
        "success_prob is the acceptance probability to first order in gamma; "
        "prob_n is the normalized output photon-number distribution",
        FIDELITY_NOTE,
    )
    return TableResult(rows, prov)


def fig3_table(
    *,
    arms: int = 5,
    etas=(1.0 / 3.0, 1.0 / 7.0),
    alphas=(0.25, 0.5, 0.75, 1.0),
    gains=None,
    cutoff: int | None = None,
) -> TableResult:
    """Fidelity against a target coherent state as a function of the
    targeted gain, for a family of input amplitudes."""
    if gains is None:
        gains = np.linspace(1.0, 3.5, 51)
    gains = [float(g) for g in gains]
    # sized for the largest gain; the smallest is checked too, since a
    # negative gain's target can be the largest amplitude
    hi, lo = max(gains), min(gains)
    cutoffs = [
        _coherent_cutoff((hi * abs(a), lo * abs(a), a), arms, cutoff) for a in alphas
    ]
    # a basis level of the states is counted as a row
    n_rows, top = len(etas) * len(alphas) * len(gains), max(cutoffs, default=1)
    most = "use fewer etas, alphas or gains, or a lower arm count or cutoff"
    what = f"a table of {n_rows} rows at cutoff {top}"
    _refuse_above(2**12 * (n_rows + top), MAX_TABLE_BYTES, what, most)
    rows = []
    for eta in etas:
        g_dev = gain_from_eta(eta)
        for alpha, c in zip(map(complex, alphas), cutoffs):
            out = nla_apply(coherent_state(alpha, c), arms, eta)
            prob = norm_sq(out)
            for g_t in gains:
                fid = fidelity(out, coherent_state(g_t * alpha, c))
                rows.append(
                    {
                        "eta": eta,
                        "alpha": alpha.real,
                        "target_gain": g_t,
                        "fidelity": fid,
                        "success_prob": prob,
                        "success_prob_pct": 100.0 * prob,
                        "device_gain": g_dev,
                    }
                )
    prov = (
        "target state: coherent(target_gain * alpha); the device gain per "
        "eta is sqrt((1 - eta) / eta)",
        FIDELITY_NOTE,
    )
    return TableResult(rows, prov)


def fig4_table(
    *,
    arms: int = 2,
    loss: float = 0.5,
    squeeze_r: float = 0.4,
    gains=None,
    cutoff: int | None = None,
) -> TableResult:
    """Purity-versus-success trade-off of distillation through a lossy
    line, holding the distilled correlation strength fixed.

    The channel transmission is held at ``loss`` and the distilled
    two-mode squeezing at ``tanh(squeeze_r)``; for each gain the source
    squeezing is solved from the effective-parameter map and the stage
    transmissivity from the gain. Higher gain buys a purer output at a
    lower success probability.
    """
    if gains is None:
        gains = np.linspace(1.0, 3.0, 9)
    if not 0.0 <= loss <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    chi_target = math.tanh(squeeze_r)
    rows = []
    for swept in map(float, gains):
        # the gain the amplifier realizes; rejects gain <= 0 before it can
        # zero or negate the boost
        eta, gain = _distill_gain(arms, None, swept)
        chi_source = chi_target / math.sqrt(_boost(loss, _gain_squared(gain)))
        _, fid, report = distill_numeric(chi_source, loss, arms, eta, cutoff)
        prob = report.success_prob
        rows.append(
            {
                "chi_source": chi_source,
                "gain": gain,
                "arms": arms,
                "eta": eta,
                "success_prob": prob,
                "success_prob_pct": 100.0 * prob,
                "v_minus": report.v_minus,
                "v_plus": report.v_plus,
                "product": report.product,
                "fidelity": fid,
            }
        )
    prov = (
        f"protocol: channel transmission fixed at {loss}, distilled "
        f"correlation fixed at tanh({squeeze_r}); the source squeezing is "
        "chi_target / sqrt(1 + (g**2 - 1) * eps) and the stage "
        "transmissivity 1 / (1 + g**2)",
        "target of the fidelity column: two-mode squeezed state with the "
        "effective parameters chi' and eps' sent through the matching loss",
        "quadrature normalization: vacuum variance 1, so pure two-mode "
        "squeezing gives product exactly 1",
    )
    return TableResult(rows, prov)


def distill_table(
    *,
    chi: float,
    loss: float = 1.0,
    arms: int | None = 2,
    eta: float | None = 0.05,
    gain: float | None = None,
    cutoff: int | None = None,
    asymptotic: bool = False,
    target_r: float | None = None,
) -> TableResult:
    """Single distillation run with effective parameters and purity.

    ``eta`` and ``gain`` are exclusive: pass ``eta=None`` with a gain. The
    state's c**2 x c factor is built only for the ``target_r`` fidelity.
    """
    if target_r is not None:
        chi_t = math.tanh(target_r)
        if not 0.0 <= chi_t < 1.0:
            raise ValueError(f"tanh(target_r) = {chi_t} lies outside [0, 1)")
    arms_used = None if asymptotic else arms
    point = _distill_point(chi, loss, arms_used, eta, cutoff, gain=gain)
    params, report, fid = point.params, point.purity, point.fidelity
    prob = None if arms_used is None else report.success_prob
    row = {
        "chi": chi,
        "loss": loss,
        "arms": arms_used,
        "eta": eta,
        # the gain the run amplified with and built its target at
        "gain": point.gain,
        "chi_prime": params.chi_prime,
        "eps_prime": params.eps_prime,
        "physical": params.physical,
        "success_prob": prob,
        "success_prob_pct": None if prob is None else 100.0 * prob,
        "fidelity": fid,
        "fidelity_amplitude": math.nan if math.isnan(fid) else math.sqrt(fid),
        "v_minus": report.v_minus,
        "v_plus": report.v_plus,
        "product": report.product,
    }
    prov = [
        "chi' = chi * sqrt(1 + (g**2 - 1) * eps), "
        "eps' = g**2 * eps / (1 + (g**2 - 1) * eps)",
        "fidelity target: two-mode squeezed state at chi' through loss eps'",
        FIDELITY_NOTE,
    ]
    if target_r is not None:
        # the target's own amplitudes take cutoff**2 memory
        target_cutoff = _epr_cutoff((chi_t,), None, "lower target_r", point.cutoff)
        fid_t = fidelity(_sector_density(point.sectors), epr_state(chi_t, target_cutoff))
        row["target_r"] = target_r
        row["fidelity_vs_target_r"] = fid_t
        row["fidelity_vs_target_r_amplitude"] = math.sqrt(fid_t)
        prov.append(
            "fidelity_vs_target_r target: pure two-mode squeezed state "
            "with chi = tanh(target_r)"
        )
    return TableResult([row], tuple(prov))


def clone_table(
    *,
    alpha: complex,
    arms: int | None = 5,
    eta: float = 1.0 / 3.0,
    asymptotic: bool = False,
    cutoff: int | None = None,
) -> TableResult:
    """Clone a coherent state and report per-clone fidelities.

    ``asymptotic`` runs the ideal map, which has no arm count.
    """
    arms_used = None if asymptotic else arms
    pair, prob = clone_coherent(alpha, arms_used, eta, cutoff)
    f1, f2 = clone_fidelities(pair, alpha)
    row = {
        "alpha_re": complex(alpha).real,
        "alpha_im": complex(alpha).imag,
        "arms": arms_used,
        "eta": eta,
        "success_prob": prob,
        "success_prob_pct": None if prob is None else 100.0 * prob,
        "clone1_fidelity": f1,
        "clone2_fidelity": f2,
    }
    prov = (
        "pipeline: amplify by sqrt(2) (eta = 1/3), then a 50:50 splitter "
        "against vacuum; each clone is compared with the input coherent state",
        FIDELITY_NOTE,
    )
    return TableResult([row], prov)
