"""Self-checks: circuit-versus-closed-form equivalence and the analytic
identities of the applications.

``oracle_equivalence_report`` is the oracle sweep that the tests, the
benchmark and the ``verify`` subcommand all run. ``verify_table`` builds
the ``verify`` table from it and from the analytic checks; the acceptance
tests check the same identities by their own code.
"""

from __future__ import annotations

import math

import numpy as np

from .applications import _distill_point, distill_params, postselected_prior_variance
from .errors import NonconvergentError
from .experiments import TableResult
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
    return MultiModeState((cutoff,), amps)


def oracle_equivalence_report(
    arm_counts=(1, 2, 3),
    etas=(0.05, 1.0 / 3.0, 0.5),
    n_inputs: int = 20,
    max_support: int = 3,
    seed: int = 7,
    oracle_limit: int = nla.ORACLE_ARM_LIMIT,
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
                circuit_out = nla.physical_circuit(
                    state, arms, eta, oracle_limit=oracle_limit
                )
                fast_out = nla.nla_apply(state, arms, eta)
                p_fast = norm_sq(fast_out)
                p_circ = norm_sq(circuit_out)
                if p_fast > 0.0:
                    infid = 1.0 - fidelity(circuit_out, fast_out)
                    prob_err = abs(p_circ - p_fast) / p_fast
                else:
                    infid = 0.0 if p_circ == 0.0 else 1.0
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
        "passed": (
            worst_infidelity <= ORACLE_FIDELITY_TOL
            and worst_prob_err <= ORACLE_PROB_TOL
        ),
        "fidelity_tol": ORACLE_FIDELITY_TOL,
        "prob_tol": ORACLE_PROB_TOL,
    }


def _raises_nonconvergent(fn) -> bool:
    try:
        fn()
    except NonconvergentError:
        return True
    return False


def _amplified_epr(chi: float, gain: float):
    return nla.nla_apply_asymptotic(epr_state(chi, 80), gain)


def verify_table(*, arms: int | None = None, seed: int = 0) -> TableResult:
    """One row per self-check, with status pass, fail or skipped.

    The oracle sweep runs arm counts 1-3 plus ``arms``, each on inputs
    supported on |0>..|max(3, N)>; an arm count past the oracle limit gets
    a skipped row. The analytic checks are exactness of chi' = g * chi on
    a lossless line, the numeric pipeline reproducing the
    effective-parameter map over a grid in the physical regime, the
    postselected prior variance d' against the ideal map on a thermal
    input, and the nonconvergence guards firing exactly at their
    boundaries. A Gaussian prior of variance d is the P-function of the
    thermal state of mean d, arm A of ``epr_state(sqrt(d / (1 + d)))``, and
    the ideal map takes it to the postselected prior scaled by g, of mean
    photon number g**2 d'. Only the oracle sweep draws random inputs, from
    ``seed``, which must be a non-negative integer.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rows = []

    def check(name: str, passed: bool, deviation: float, detail: str):
        rows.append(
            {
                "check": name,
                "status": "pass" if passed else "fail",
                "max_deviation": deviation,
                "detail": detail,
            }
        )

    reports = [oracle_equivalence_report(arm_counts=(1, 2, 3), seed=seed)]
    if arms is not None and arms not in (1, 2, 3):
        # support up to N reaches every coefficient of the N-arm map
        reports.append(
            oracle_equivalence_report(
                arm_counts=(arms,), max_support=max(3, arms), seed=seed
            )
        )
    infid = max(r["max_infidelity"] for r in reports)
    prob_err = max(r["max_prob_rel_err"] for r in reports)
    check(
        "oracle_equivalence",
        all(r["passed"] for r in reports),
        max(infid, prob_err),
        f"max infidelity {infid:.3g}; max prob rel err {prob_err:.3g}",
    )
    for skip in (s for r in reports for s in r["skipped"]):
        rows.append(
            {
                "check": f"oracle_equivalence_arms_{skip['arms']}",
                "status": "skipped",
                "max_deviation": math.nan,
                "detail": skip["reason"],
            }
        )

    worst = 0.0
    for g in (1.2, 1.5, 2.0, 3.0):
        for chi in (0.1, 0.25, 0.3):
            params = distill_params(chi, 1.0, g)
            worst = max(worst, abs(params.chi_prime - g * chi) / (g * chi))
    check(
        "chi_prime_lossless", worst <= 1e-14, worst, "chi' = g * chi on a lossless line"
    )

    min_fid = 1.0
    for chi in np.linspace(0.05, 0.35, 5):
        for eps in np.linspace(0.2, 1.0, 5):
            point = _distill_point(float(chi), float(eps), gain=1.3)
            min_fid = min(min_fid, point.fidelity)
    check(
        "effective_params_grid",
        min_fid >= 1.0 - 1e-9,
        1.0 - min_fid,
        f"min fidelity {min_fid:.12g} over the grid",
    )

    prior, gain = 0.3, math.sqrt(2.0)
    expected = postselected_prior_variance(prior, gain)
    amps = _amplified_epr(math.sqrt(prior / (1.0 + prior)), gain).amplitudes
    weights = np.abs(np.diagonal(amps)) ** 2
    mean = float(np.arange(weights.size) @ weights) / float(weights.sum())
    variance = mean / gain**2
    rel = abs(variance - expected) / expected
    check(
        "postselected_prior",
        rel <= 1e-13,
        rel,
        f"thermal input of mean {prior:g} through the ideal map: <n> / g**2 = "
        f"{variance:.12g} vs d' = {expected:.12g}",
    )

    guards_hold = (
        _raises_nonconvergent(lambda: _amplified_epr(0.5, 2.0))
        and _raises_nonconvergent(lambda: _amplified_epr(0.6, 2.0))
        and not _raises_nonconvergent(lambda: _amplified_epr(0.3, 2.0))
        and _raises_nonconvergent(
            lambda: postselected_prior_variance(1.0, math.sqrt(2.0))
        )
        and not _raises_nonconvergent(
            lambda: postselected_prior_variance(0.999, math.sqrt(2.0))
        )
    )
    check(
        "nonconvergence_guards",
        guards_hold,
        0.0 if guards_hold else 1.0,
        "guards fire exactly at the unnormalizable boundaries",
    )
    return TableResult(
        rows, ("self-check suites over the circuit oracle and the analytic maps",)
    )
