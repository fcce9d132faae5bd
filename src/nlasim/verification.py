"""Self-checks: circuit-versus-closed-form equivalence and the analytic
identities of the applications, packaged so both the test suite and the
``verify`` subcommand run the same sweeps."""

from __future__ import annotations

import math

import numpy as np

from .applications import (
    distill_numeric,
    distill_params,
    postselected_prior_variance,
    sample_postselected_variance,
)
from .errors import NonconvergentError
from .fock import MultiModeState, epr_state, fidelity, norm_sq
from . import nla

ORACLE_FIDELITY_TOL = 1e-10
ORACLE_PROB_TOL = 1e-9


def random_support_state(rng, cutoff: int, max_support: int) -> MultiModeState:
    """Normalized random vector supported on |0>..|max_support>."""
    amps = np.zeros(cutoff, dtype=np.complex128)
    live = min(max_support + 1, cutoff)
    amps[:live] = rng.normal(size=live) + 1j * rng.normal(size=live)
    amps /= math.sqrt(float(np.vdot(amps, amps).real))
    return MultiModeState((cutoff,), amps, normalized=True)


def oracle_equivalence_report(
    arm_counts=(1, 2, 3),
    etas=(0.05, 1.0 / 3.0, 0.5),
    n_inputs: int = 20,
    max_support: int = 3,
    seed: int = 7,
    oracle_limit: int = nla.ORACLE_ARM_LIMIT,
    fidelity_tol: float = ORACLE_FIDELITY_TOL,
    prob_tol: float = ORACLE_PROB_TOL,
) -> dict:
    """Compare the brute-force circuit against the diagonal operator.

    For every arm count and transmissivity, random low-photon inputs are
    pushed through both paths; the report carries the worst infidelity and
    relative probability error. Arm counts beyond the oracle limit are
    skipped with a reason rather than attempted.
    """
    rng = np.random.default_rng(seed)
    rows = []
    skipped = []
    worst_infidelity = 0.0
    worst_prob_err = 0.0
    for arms in arm_counts:
        if arms > oracle_limit:
            skipped.append(
                {"arms": arms, "reason": f"beyond oracle limit {oracle_limit}"}
            )
            continue
        for eta in etas:
            for idx in range(n_inputs):
                cutoff = max_support + 1
                state = random_support_state(rng, cutoff, max_support)
                circuit_out, circuit_herald = nla.physical_circuit(
                    state, arms, eta, oracle_limit=oracle_limit
                )
                op = nla.nla_operator(arms, eta, cutoff)
                fast_out, fast_herald = nla.nla_apply(state, op)
                p_fast = fast_herald.success_probability
                p_circ = circuit_herald.success_probability
                if p_fast > 0.0:
                    infid = 1.0 - fidelity(circuit_out, fast_out)
                    prob_err = abs(p_circ - p_fast) / p_fast
                else:
                    infid = 0.0 if norm_sq(circuit_out) == 0.0 else 1.0
                    prob_err = abs(p_circ)
                worst_infidelity = max(worst_infidelity, infid)
                worst_prob_err = max(worst_prob_err, prob_err)
                rows.append(
                    {
                        "arms": arms,
                        "eta": eta,
                        "input": idx,
                        "infidelity": infid,
                        "prob_rel_err": prob_err,
                    }
                )
    return {
        "rows": rows,
        "skipped": skipped,
        "max_infidelity": worst_infidelity,
        "max_prob_rel_err": worst_prob_err,
        "passed": worst_infidelity <= fidelity_tol and worst_prob_err <= prob_tol,
        "fidelity_tol": fidelity_tol,
        "prob_tol": prob_tol,
    }


def analytic_identities_report(seed: int = 7, mc_samples: int = 1_000_000) -> dict:
    """Check the closed-form maps against independent routes.

    Covers: exactness of chi' = g * chi on a lossless line, the numeric
    pipeline reproducing the effective-parameter map over a grid in the
    physical regime, the Monte-Carlo check of the postselected prior
    variance, and the nonconvergence guards firing exactly at their
    boundaries.
    """
    checks = {}

    gains = (1.2, 1.5, 2.0, 3.0)
    chis = (0.1, 0.25, 0.3)
    worst = 0.0
    for g in gains:
        for chi in chis:
            params = distill_params(chi, 1.0, g)
            worst = max(worst, abs(params.chi_prime - g * chi) / (g * chi))
    checks["chi_prime_lossless"] = {
        "max_rel_err": worst,
        "passed": worst <= 1e-14,
    }

    gain = 1.3
    grid_chis = np.linspace(0.05, 0.35, 5)
    grid_eps = np.linspace(0.2, 1.0, 5)
    min_fid = 1.0
    for chi in grid_chis:
        for eps in grid_eps:
            _, _, fid = distill_numeric(float(chi), float(eps), gain=gain)
            min_fid = min(min_fid, fid)
    checks["effective_params_grid"] = {
        "gain": gain,
        "min_fidelity": min_fid,
        "passed": min_fid >= 1.0 - 1e-9,
    }

    mc = sample_postselected_variance(
        0.3, math.sqrt(2.0), n_samples=mc_samples, seed=seed
    )
    z = abs(mc["estimate"] - mc["expected"]) / mc["stderr"]
    checks["postselected_prior_mc"] = {
        "prior_variance": 0.3,
        "expected": mc["expected"],
        "estimate": mc["estimate"],
        "stderr": mc["stderr"],
        "n_accepted": mc["n_accepted"],
        "z_score": z,
        "passed": z <= 3.0,
    }

    def raises_nonconvergent(fn) -> bool:
        try:
            fn()
        except NonconvergentError:
            return True
        return False

    def amplified_epr(chi, gain):
        op = nla.asymptotic_operator(gain, 40)
        return nla.nla_apply(epr_state(chi, 40), op)

    guards = {
        "epr_boundary_raises": raises_nonconvergent(lambda: amplified_epr(0.5, 2.0)),
        "epr_above_raises": raises_nonconvergent(lambda: amplified_epr(0.6, 2.0)),
        "epr_below_passes": not raises_nonconvergent(lambda: amplified_epr(0.3, 2.0)),
        "prior_boundary_raises": raises_nonconvergent(
            lambda: postselected_prior_variance(1.0, math.sqrt(2.0))
        ),
        "prior_below_passes": not raises_nonconvergent(
            lambda: postselected_prior_variance(0.999, math.sqrt(2.0))
        ),
    }
    checks["nonconvergence_guards"] = {**guards, "passed": all(guards.values())}

    checks["passed"] = all(c["passed"] for c in checks.values() if isinstance(c, dict))
    return checks
