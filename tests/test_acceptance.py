"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single machine-scannable line
``ACCEPTANCE <k> [PASS|FAIL] ...`` before asserting, so `pytest -s`
doubles as the acceptance report.
"""

import json
import math
import time

import numpy as np

from nlasim import (
    NonconvergentError,
    coherent_state,
    distill_numeric,
    distill_params,
    epr_state,
    fidelity,
    minimal_coherent_cutoff,
    misfire_terms,
    nla_apply,
    nla_apply_asymptotic,
    norm_sq,
    number_state,
    physical_circuit,
    postselected_prior_variance,
)
from nlasim.cli import main
from nlasim.experiments import fig3_table
from nlasim.verification import ORACLE_PROB_TOL, oracle_equivalence_report
from conftest import sample_postselected_variance


def report(criterion: int, passed: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion} [{'PASS' if passed else 'FAIL'}] {detail}"
    print(line)
    return line


def test_criterion_1_headline_distillation():
    """N=2, eta=0.05, chi=tanh(0.1), lossless line: fidelity 0.993 +/- 0.003
    against the tanh(0.4) two-mode squeezed target under at least one
    fidelity convention, a cold run under 1 s (no untimed warm-up call
    before it), and the success probability checked by two routes.

    The documented map |n> -> eta**(N/2) N!/((N-n)! N**n) g**n |n> with
    g**2 = (1-eta)/eta, applied to one arm of sqrt(1-chi**2) sum chi**n
    |n>|n>, gives P = eta**2 (1-chi**2) (1 + g**2 chi**2 + g**4 chi**4 / 4)
    at N=2. The numeric pipeline must equal it to 1e-12 relative, and the
    brute-force circuit, summed over number states weighted by
    (1-chi**2) chi**(2n), must equal it within the oracle tolerance. This
    replaces an earlier window of 0.2% +/- 0.05%: the vacuum term alone
    bounds P below by eta**N (1-chi**2) = 0.2475%, so no state this device
    acts on reaches the lower 95% of that window.
    """
    arms, eta, chi = 2, 0.05, math.tanh(0.1)
    start = time.perf_counter()
    rho, _, _ = distill_numeric(chi, 1.0, arms, eta)
    target = epr_state(math.tanh(0.4))
    f_squared = fidelity(rho, target)
    f_amplitude = math.sqrt(f_squared)
    elapsed = time.perf_counter() - start
    prob = rho.trace

    g_sq = (1.0 - eta) / eta
    chi_sq = chi**2
    x = g_sq * chi_sq
    closed = eta**2 * (1.0 - chi_sq) * (1.0 + x + x**2 / 4.0)
    cutoff = rho.basis_cutoffs[0]
    oracle = sum(
        (1.0 - chi_sq)
        * chi_sq**n
        * norm_sq(physical_circuit(number_state(n, cutoff), arms, eta))
        for n in range(cutoff)
    )

    conventions = {"squared-overlap": f_squared, "amplitude-overlap": f_amplitude}
    matching = [name for name, val in conventions.items() if abs(val - 0.993) <= 0.003]
    fid_ok = bool(matching)
    prob_err = abs(prob - closed) / closed
    oracle_err = abs(oracle - closed) / closed
    prob_ok = prob_err <= 1e-12
    oracle_ok = oracle_err <= ORACLE_PROB_TOL
    report(
        1,
        fid_ok and prob_ok and oracle_ok and elapsed < 1.0,
        f"fidelity squared={f_squared:.6f} amplitude={f_amplitude:.6f} "
        f"(conventions in 0.993+/-0.003: {matching or 'none'}); "
        f"success={100 * prob:.6f}% against closed form {100 * closed:.6f}% "
        f"(rel err {prob_err:.3g}, tol 1e-12) and circuit oracle "
        f"{100 * oracle:.6f}% (rel err {oracle_err:.3g}, tol {ORACLE_PROB_TOL:g}); "
        f"cold run {elapsed:.3f}s",
    )
    assert fid_ok, (
        f"no fidelity convention lands in 0.993 +/- 0.003: "
        f"squared={f_squared:.6f}, amplitude={f_amplitude:.6f}"
    )
    assert elapsed < 1.0, f"cold distillation took {elapsed:.3f}s (bound 1 s)"
    assert prob_ok, (
        f"success probability {100 * prob:.6f}% differs from the closed form "
        f"{100 * closed:.6f}% by {prob_err:.3g} relative (tol 1e-12)"
    )
    assert oracle_ok, (
        f"circuit oracle {100 * oracle:.6f}% differs from the closed form "
        f"{100 * closed:.6f}% by {oracle_err:.3g} relative "
        f"(tol {ORACLE_PROB_TOL:g})"
    )


def test_criterion_2_variance_halving():
    """v_minus matches exp(-2r) within 1e-3 at r = 0.1 and r = 0.4, on the
    sector report of the undistilled two-mode squeezed state: the ideal map
    at gain 1 on a lossless line."""
    got = {
        r: distill_numeric(math.tanh(r), 1.0, None, gain=1.0)[2].v_minus
        for r in (0.1, 0.4)
    }
    want = {r: math.exp(-2 * r) for r in (0.1, 0.4)}
    ok = all(abs(got[r] - want[r]) < 1e-3 for r in got)
    report(
        2,
        ok,
        f"v_minus(r=0.1)={got[0.1]:.6f} (target {want[0.1]:.4f}), "
        f"v_minus(r=0.4)={got[0.4]:.6f} (target {want[0.4]:.4f})",
    )
    for r in got:
        assert abs(got[r] - want[r]) < 1e-3


def test_criterion_3_oracle_equivalence():
    """Circuit and closed form agree to 1e-10 in state and 1e-9 in
    probability over arms {1,2,3} x eta {0.05, 1/3, 0.5} x 20 inputs."""
    start = time.perf_counter()
    rep = oracle_equivalence_report(
        arm_counts=(1, 2, 3),
        etas=(0.05, 1.0 / 3.0, 0.5),
        n_inputs=20,
        max_support=3,
        seed=7,
    )
    elapsed = time.perf_counter() - start
    ok = rep["passed"] and elapsed < 60.0
    report(
        3,
        ok,
        f"180 runs: max infidelity {rep['max_infidelity']:.3g} (tol 1e-10), "
        f"max prob rel err {rep['max_prob_rel_err']:.3g} (tol 1e-9); "
        f"{elapsed:.1f}s",
    )
    assert rep["max_infidelity"] <= 1e-10
    assert rep["max_prob_rel_err"] <= 1e-9
    assert elapsed < 60.0


def test_criterion_4_gain_curve_reproduction():
    """Five-arm fidelity-versus-gain curves: peak near g**2 = 2 with peak
    fidelity > 0.95 for |alpha| <= 0.5, strict gain saturation between
    alpha 0.25 and 1.0, and small-alpha success probabilities within a
    factor two of 0.5% (eta=1/3) and 0.01% (eta=1/7)."""
    table = fig3_table(arms=5)

    def peak(eta, alpha):
        rows = [
            r
            for r in table.rows
            if abs(r["eta"] - eta) < 1e-12 and abs(r["alpha"] - alpha) < 1e-12
        ]
        best = max(rows, key=lambda r: r["fidelity"])
        return best["target_gain"], best["fidelity"], best["success_prob"]

    third = 1.0 / 3.0
    seventh = 1.0 / 7.0
    peaks = {alpha: peak(third, alpha) for alpha in (0.25, 0.5, 1.0)}
    near_two = all(1.5 <= peaks[a][0] ** 2 <= 2.5 for a in (0.25, 0.5))
    high_fid = all(peaks[a][1] > 0.95 for a in (0.25, 0.5))
    saturates = peaks[1.0][0] < peaks[0.25][0]
    p_third = peak(third, 0.25)[2]
    p_seventh = peak(seventh, 0.25)[2]
    p_third_ok = 0.0025 <= p_third <= 0.01
    p_seventh_ok = 0.00005 <= p_seventh <= 0.0002
    ok = near_two and high_fid and saturates and p_third_ok and p_seventh_ok
    report(
        4,
        ok,
        f"peak g^2: alpha=0.25 -> {peaks[0.25][0]**2:.3f}, "
        f"alpha=0.5 -> {peaks[0.5][0]**2:.3f}, alpha=1.0 -> {peaks[1.0][0]**2:.3f}; "
        f"peak F: {peaks[0.25][1]:.4f}, {peaks[0.5][1]:.4f}; "
        f"P(eta=1/3)={100*p_third:.3f}%, P(eta=1/7)={100*p_seventh:.4f}%",
    )
    assert near_two
    assert high_fid
    assert saturates
    assert p_third_ok
    assert p_seventh_ok


def test_criterion_5_analytic_identities():
    """chi' = g chi exactly; the numeric pipeline reproduces the effective
    parameter maps to 1e-9 over a grid; the Monte-Carlo prior oracle
    confirms d' = d/(1-d) within 3 sigma at 1e6 samples; nonconvergence
    triggers exactly at |g chi| >= 1 and (g**2-1) d >= 1."""
    max_rel = 0.0
    for gain in (1.2, 1.5, 2.0, 3.0):
        for chi in (0.1, 0.25, 0.3):
            params = distill_params(chi, 1.0, gain)
            max_rel = max(max_rel, abs(params.chi_prime - gain * chi) / (gain * chi))
    exact_ok = max_rel <= 1e-14

    min_fid = 1.0
    for chi in np.linspace(0.05, 0.35, 5):
        for eps in np.linspace(0.2, 1.0, 5):
            _, fid, _ = distill_numeric(float(chi), float(eps), gain=1.3)
            min_fid = min(min_fid, fid)
    grid_ok = min_fid >= 1.0 - 1e-9

    mc = sample_postselected_variance(0.3, math.sqrt(2.0), n_samples=1_000_000, seed=7)
    z = abs(mc["estimate"] - mc["expected"]) / mc["stderr"]
    mc_ok = z <= 3.0

    def raises(fn):
        try:
            fn()
        except NonconvergentError:
            return True
        return False

    def amplified(chi, gain):
        nla_apply_asymptotic(epr_state(chi, 40), gain)

    boundary_ok = (
        raises(lambda: amplified(0.5, 2.0))
        and raises(lambda: amplified(0.6, 2.0))
        and not raises(lambda: amplified(0.3, 2.0))
        and raises(lambda: postselected_prior_variance(1.0, math.sqrt(2.0)))
        and not raises(lambda: postselected_prior_variance(0.999, math.sqrt(2.0)))
    )

    ok = exact_ok and grid_ok and mc_ok and boundary_ok
    report(
        5,
        ok,
        f"chi'=g*chi max rel err {max_rel:.2g}; grid min fidelity {min_fid:.12f}; "
        f"MC z={z:.2f} ({mc['n_accepted']} accepted, "
        f"estimate {mc['estimate']:.5f} vs {mc['expected']:.5f}); "
        f"boundaries exact: {boundary_ok}",
    )
    assert exact_ok
    assert grid_ok
    assert mc_ok
    assert boundary_ok


def test_criterion_6_purity_tradeoff_table(tmp_path):
    """The emitted purity-versus-success table at loss 0.5 and target
    r=0.4: product strictly decreasing toward 1 as success probability
    decreases, never below the uncertainty bound, all fidelities > 0.99."""
    out = tmp_path / "fig4.json"
    assert main(["fig4", "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    rows = sorted(rows, key=lambda r: -r["success_prob"])
    products = [r["product"] for r in rows]
    fidelities = [r["fidelity"] for r in rows]
    decreasing = all(a > b for a, b in zip(products, products[1:]))
    bounded = all(p >= 1.0 - 1e-9 for p in products)
    fid_ok = all(f > 0.99 for f in fidelities)
    ok = decreasing and bounded and fid_ok
    report(
        6,
        ok,
        f"{len(rows)} points: product {products[0]:.4f} -> {products[-1]:.4f} "
        f"as success {100*rows[0]['success_prob']:.2f}% -> "
        f"{100*rows[-1]['success_prob']:.2f}%; min fidelity {min(fidelities):.4f}",
    )
    assert decreasing
    assert bounded
    assert fid_ok


def test_criterion_7_misfire_term_equality():
    """The two first-order source-inefficiency branches converge: their
    fidelity exceeds 0.99 by ten arms and increases with the arm count."""
    arms_list = (4, 6, 8, 10, 12, 14, 16)
    values = []
    for arms in arms_list:
        first, second = misfire_terms(0.3, arms, 1.0 / 3.0, 0.01)
        values.append(fidelity(first, second))
    at_ten = values[arms_list.index(10)]
    increasing = all(a < b for a, b in zip(values, values[1:]))
    ok = at_ten > 0.99 and increasing
    report(
        7,
        ok,
        f"term fidelity at N=10: {at_ten:.5f} (> 0.99); "
        f"monotone over {arms_list}: {increasing}",
    )
    assert at_ten > 0.99
    assert increasing


def test_criterion_8_convergence_to_ideal_gain():
    """Finite-arm output converges on the ideal amplified coherent state:
    fidelity with |g alpha> above 1 - 1e-3 by twenty arms, increasing."""
    alpha, eta = 0.3, 1.0 / 3.0
    gain = math.sqrt(2.0)
    values = []
    for arms in (5, 10, 15, 20):
        cutoff = max(minimal_coherent_cutoff(gain * alpha), arms + 1)
        out = nla_apply(coherent_state(alpha, cutoff), arms, eta)
        values.append(fidelity(out, coherent_state(gain * alpha, cutoff)))
    increasing = all(a < b for a, b in zip(values, values[1:]))
    ok = values[-1] > 1.0 - 1e-3 and increasing
    report(
        8,
        ok,
        f"fidelity vs |g*alpha|: N=5 -> {values[0]:.6f}, N=20 -> {values[-1]:.6f}; "
        f"monotone: {increasing}",
    )
    assert values[-1] > 1.0 - 1e-3
    assert increasing
