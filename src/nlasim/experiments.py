"""Experiment runners: each builds a plot-ready table of rows.

Tables are emitted in sweep order, so identical configurations produce
identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .applications import (
    _cap_auto_cutoff,
    clone_coherent,
    clone_fidelities,
    distill_numeric,
    distill_params,
    purity_product,
)
from .fock import (
    coherent_state,
    epr_state,
    fidelity,
    minimal_coherent_cutoff,
    minimal_epr_cutoff,
    norm_sq,
    number_state,
    purity,
)
from .nla import (
    eta_from_gain,
    gain_from_eta,
    misfire_density,
    misfire_terms,
    nla_apply,
    nla_apply_asymptotic,
)

FIDELITY_NOTE = (
    "fidelity is the squared-overlap convention |<target|out>|**2 on "
    "normalized states; fidelity_amplitude is its square root"
)


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
    if gamma:
        if alpha is None or asymptotic:
            raise ValueError("the misfire model needs a coherent input at finite arms")
        return _misfire_table(alpha, arms, eta, gamma, cutoff, gain)
    if alpha is not None:
        if cutoff is None:
            cutoff = max(
                minimal_coherent_cutoff(alpha),
                minimal_coherent_cutoff(gain * alpha),
                arms + 1,
            )
        state = coherent_state(alpha, cutoff)
        target = coherent_state(gain * alpha, cutoff)
    else:
        if cutoff is None:
            # one slot of headroom keeps the ideal-map tail check off the
            # top basis entry
            cutoff = max(fock + 2, arms + 1)
        state = number_state(fock, cutoff)
        target = state

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
    if cutoff is None:
        cutoff = max(minimal_coherent_cutoff(gain * alpha), arms + 1)
    rho = misfire_density(alpha, arms, eta, gamma, cutoff)
    first, second = misfire_terms(alpha, arms, eta, gamma, cutoff)
    accept = rho.trace
    mixed_purity = purity(rho)
    term_overlap = fidelity(first, second)
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
    rows = []
    for eta in etas:
        g_dev = gain_from_eta(eta)
        for alpha in map(complex, alphas):
            c = cutoff or max(
                minimal_coherent_cutoff(alpha),
                minimal_coherent_cutoff(max(gains) * abs(alpha)),
                arms + 1,
            )
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
    for gain in map(float, gains):
        # rejects gain <= 0 before it can zero or negate the boost
        eta = eta_from_gain(gain)
        boost = 1.0 + (gain**2 - 1.0) * loss
        chi_source = chi_target / math.sqrt(boost)
        rho, fid = distill_numeric(chi_source, loss, arms, eta, cutoff)
        report = purity_product(rho)
        prob = rho.trace
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

    ``eta`` and ``gain`` are exclusive: pass ``eta=None`` with a gain.
    """
    arms_used = None if asymptotic else arms
    rho, fid = distill_numeric(chi, loss, arms_used, eta, cutoff, gain=gain)
    gain_used = gain_from_eta(eta) if gain is None else gain
    params = distill_params(chi, loss, gain_used)
    report = purity_product(rho)
    prob = None if arms_used is None else rho.trace
    row = {
        "chi": chi,
        "loss": loss,
        "arms": arms_used,
        "eta": eta,
        "gain": gain_used,
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
        chi_t = math.tanh(target_r)
        if not 0.0 <= chi_t < 1.0:
            raise ValueError(f"tanh(target_r) = {chi_t} lies outside [0, 1)")
        target_cutoff = minimal_epr_cutoff(chi_t)
        # the target's own amplitudes take cutoff**2 memory
        if target_cutoff > rho.basis_cutoffs[0]:
            _cap_auto_cutoff(target_cutoff, "lower target_r")
        fid_t = fidelity(rho, epr_state(chi_t, target_cutoff))
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
