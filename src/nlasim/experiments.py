"""Experiment runners: each builds a plot-ready table of rows.

Tables are emitted in sweep order, so identical configurations produce
identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .applications import (
    clone_coherent,
    clone_fidelities,
    distill_numeric,
    distill_params,
    distill_purity_tradeoff,
    purity_product,
)
from .fock import (
    coherent_state,
    epr_state,
    fidelity,
    minimal_coherent_cutoff,
    norm_sq,
    number_state,
    purity,
)
from .nla import (
    asymptotic_operator,
    gain_from_eta,
    misfire_density,
    misfire_terms,
    nla_apply,
    nla_operator,
)

FIDELITY_NOTE = (
    "fidelity is the squared-overlap convention |<target|out>|**2 on "
    "normalized states; fidelity_amplitude is its square root"
)


@dataclass(frozen=True)
class TableResult:
    columns: tuple
    rows: list
    provenance: tuple


def amplify_table(
    *,
    alpha: complex | None = None,
    fock_n: int | None = None,
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
    if (alpha is None) == (fock_n is None):
        raise ValueError("exactly one of alpha / fock_n must be given")
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
            cutoff = max(fock_n + 2, arms + 1)
        state = number_state(fock_n, cutoff)
        target = state

    op = (
        asymptotic_operator(gain, cutoff)
        if asymptotic
        else nla_operator(arms, eta, cutoff)
    )
    out, herald = nla_apply(state, op)
    prob = herald.success_probability
    zero_output = norm_sq(out) == 0.0
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
    columns = (
        "n",
        "amp_re",
        "amp_im",
        "prob_n",
        "success_prob",
        "success_prob_pct",
        "fidelity",
        "target_gain",
        "zero_output",
    )
    prov = (
        "target state: coherent(gain * alpha) at the device gain "
        "g = sqrt((1 - eta) / eta); number-state inputs keep themselves as target",
        FIDELITY_NOTE,
    )
    return TableResult(columns, rows, prov)


def _misfire_table(alpha, arms, eta, gamma, cutoff, gain) -> TableResult:
    if cutoff is None:
        cutoff = max(minimal_coherent_cutoff(gain * alpha), arms + 1)
    rho = misfire_density(alpha, arms, eta, gamma, cutoff)
    first, second = misfire_terms(alpha, arms, eta, gamma, cutoff)
    accept = rho.trace
    mixed_purity = purity(rho)
    term_overlap = fidelity(first, second)
    fid = fidelity(rho, coherent_state(gain * alpha, cutoff))
    diag = np.diag(rho.matrix).real / accept
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
    columns = (
        "n",
        "prob_n",
        "success_prob",
        "success_prob_pct",
        "purity",
        "term_fidelity",
        "fidelity",
        "target_gain",
        "gamma",
    )
    prov = (
        "first-order misfire model: accepted runs where one single-photon "
        "source emitted nothing mix a shorter product branch into the output",
        "success_prob is the acceptance probability to first order in gamma; "
        "prob_n is the normalized output photon-number distribution",
        FIDELITY_NOTE,
    )
    return TableResult(columns, rows, prov)


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
            out, herald = nla_apply(
                coherent_state(alpha, c), nla_operator(arms, eta, c)
            )
            prob = herald.success_probability
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
    columns = (
        "eta",
        "alpha",
        "target_gain",
        "fidelity",
        "success_prob",
        "success_prob_pct",
        "device_gain",
    )
    prov = (
        "target state: coherent(target_gain * alpha); the device gain per "
        "eta is sqrt((1 - eta) / eta)",
        FIDELITY_NOTE,
    )
    return TableResult(columns, rows, prov)


def fig4_table(
    *,
    arms: int = 2,
    loss: float = 0.5,
    target_r: float = 0.4,
    gains=None,
    cutoff: int | None = None,
) -> TableResult:
    """Purity-versus-success trade-off of distillation through a lossy
    line, holding the distilled correlation strength fixed."""
    if gains is None:
        gains = np.linspace(1.0, 3.0, 9)
    gains = [float(g) for g in gains]

    rows = distill_purity_tradeoff(
        gains, epsilon=loss, target_r=target_r, arm_count=arms, cutoff=cutoff
    )
    for row in rows:
        row["success_prob_pct"] = 100.0 * row["success_prob"]
    columns = (
        "chi_source",
        "gain",
        "arms",
        "eta",
        "success_prob",
        "success_prob_pct",
        "v_minus",
        "v_plus",
        "product",
        "fidelity",
    )
    prov = (
        f"protocol: channel transmission fixed at {loss}, distilled "
        f"correlation fixed at tanh({target_r}); the source squeezing is "
        "chi_target / sqrt(1 + (g**2 - 1) * eps) and the stage "
        "transmissivity 1 / (1 + g**2)",
        "target of the fidelity column: two-mode squeezed state with the "
        "effective parameters chi' and eps' sent through the matching loss",
        "quadrature normalization: vacuum variance 1, so pure two-mode "
        "squeezing gives product exactly 1",
    )
    return TableResult(columns, rows, prov)


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
    """Single distillation run with effective parameters and purity."""
    if asymptotic:
        arms_used = None
        gain_used = gain if gain is not None else gain_from_eta(eta)
    else:
        arms_used = arms
        gain_used = gain_from_eta(eta) if eta is not None else gain
    rho, herald, fid = distill_numeric(
        chi, loss, arms_used, eta, cutoff, gain=gain_used if eta is None else None
    )
    params = distill_params(chi, loss, gain_used)
    report = purity_product(rho)
    prob = herald.success_probability
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
        target = epr_state(math.tanh(target_r))
        fid_t = fidelity(rho, target)
        row["target_r"] = target_r
        row["fidelity_vs_target_r"] = fid_t
        row["fidelity_vs_target_r_amplitude"] = math.sqrt(fid_t)
        prov.append(
            "fidelity_vs_target_r target: pure two-mode squeezed state "
            "with chi = tanh(target_r)"
        )
    return TableResult(tuple(row.keys()), [row], tuple(prov))


def clone_table(
    *,
    alpha: complex,
    arms: int | None = None,
    eta: float = 1.0 / 3.0,
    cutoff: int | None = None,
) -> TableResult:
    """Clone a coherent state and report per-clone fidelities."""
    pair, herald = clone_coherent(alpha, arms, eta, cutoff)
    f1, f2 = clone_fidelities(pair, alpha)
    prob = herald.success_probability
    row = {
        "alpha_re": complex(alpha).real,
        "alpha_im": complex(alpha).imag,
        "arms": arms,
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
    return TableResult(tuple(row.keys()), [row], prov)
