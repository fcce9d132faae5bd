"""Seeded op streams of the three workloads and the checks on every op.

An op is one call into nlasim: ``cli.main(argv)`` with stdout captured, or
one ``verification.oracle_equivalence_report``. Ops come in cycles; a
timed phase always runs whole cycles, so every run sees the same mix of
op kinds. The checks recompute each reported quantity from closed forms
written here, independently of the library code under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("distill_dense", "amplify_pure", "oracle")
DISTILL_LADDER = (17, 20, 24, 28, 32)
FIG4_CUTOFF = 16
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
#: Seed at which outputs are also compared against the recorded references.
DEFAULT_SEED = 0
REF_REL_TOL = 1e-9
REF_ABS_TOL = 1e-14
CHECK_REL_TOL = 1e-9


class CheckFailed(Exception):
    """An op ran but its output disagrees with the benchmark's oracle."""


@dataclass(frozen=True)
class Op:
    kind: str  # "cli" or "oracle"
    args: tuple  # argv for cli ops; (arms, eta, support, seed) for oracle ops

    def label(self) -> str:
        return " ".join(self.args) if self.kind == "cli" else f"oracle{self.args}"


# ---------------------------------------------------------------------------
# input generation


def _num(x: float) -> str:
    return repr(round(x, 6))


def _distill_cycle(rng: random.Random) -> list:
    ops = []
    # the middle rung runs twice: with seven ops a cycle the median latency
    # falls inside one op kind instead of on the gap between two
    for cutoff in DISTILL_LADDER[:3] + DISTILL_LADDER[2:]:
        arms = rng.choice((1, 2, 3))
        loss = rng.uniform(0.2, 1.0)
        gain = rng.uniform(1.1, 2.5)
        eta = round(1.0 / (1.0 + gain**2), 6)
        g2 = (1.0 - eta) / eta
        # chi' <= 0.44 keeps the truncated tail below 1e-12 at cutoff 17
        chi_prime = rng.uniform(0.15, 0.44)
        chi = math.floor(chi_prime / math.sqrt(1.0 + (g2 - 1.0) * loss) * 1e6) / 1e6
        ops.append(Op("cli", ("distill", "--chi", _num(chi), "--loss", _num(loss),
                              "--arms", str(arms), "--eta", _num(eta),
                              "--cutoff", str(cutoff))))
    squeeze_r = rng.uniform(0.25, 0.44)  # tanh(r)**(2 * 16) < 1e-12
    ops.append(Op("cli", ("fig4", "--arms", str(rng.choice((1, 2, 3))),
                          "--loss", _num(rng.uniform(0.3, 0.9)),
                          "--squeeze-r", _num(squeeze_r),
                          "--cutoff", str(FIG4_CUTOFF))))
    return ops


def _amplify_cycle(rng: random.Random) -> list:
    arms = rng.randint(1, 8)
    eta = rng.uniform(0.2, 0.5)
    radius, phase = rng.uniform(0.1, 0.8), rng.uniform(0.0, 2.0 * math.pi)
    alpha = f"{_num(radius * math.cos(phase))},{_num(radius * math.sin(phase))}"
    a0 = rng.uniform(0.1, 0.4)
    g0 = rng.uniform(1.0, 1.5)
    return [
        # "--alpha=" keeps a negative real part from reading as a flag
        Op("cli", ("amplify", f"--alpha={alpha}", "--arms", str(arms), "--eta", _num(eta))),
        Op("cli", ("clone", f"--alpha={alpha}", "--arms", str(arms))),
        Op("cli", ("fig3", "--arms", str(arms), "--eta", _num(eta),
                   "--sweep", f"alpha={_num(a0)}:{_num(a0 + 0.4)}:3",
                   "--sweep", f"gain={_num(g0)}:{_num(g0 + 1.0)}:4")),
    ]


def _oracle_cycle(rng: random.Random) -> list:
    # a continuous eta misses the ancilla-splitter cache; the even-split
    # stages reuse their cached matrices
    return [Op("oracle", (arms, round(rng.uniform(0.05, 0.95), 9), support,
                          rng.randrange(2**31)))
            for arms in range(1, 6) for support in range(1, 5)]


_CYCLES = {"distill_dense": _distill_cycle, "amplify_pure": _amplify_cycle,
           "oracle": _oracle_cycle}


def cycles(workload: str, seed: int):
    """Endless deterministic stream of op cycles for ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    make = _CYCLES[workload]
    while True:
        yield make(rng)


# ---------------------------------------------------------------------------
# execution


def execute(op: Op, nlasim_modules):
    """Run one op and return its table as (columns, rows of strings).

    Raises on a nonzero exit code; the caller counts any exception as a
    failed op.
    """
    cli, verification = nlasim_modules
    if op.kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op.args))
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        return parse_csv(buf.getvalue())
    arms, eta, support, seed = op.args
    report = verification.oracle_equivalence_report(
        arm_counts=(arms,), etas=(eta,), n_inputs=1, max_support=support,
        seed=seed, oracle_limit=5)
    columns = ("arms", "eta", "input", "infidelity", "prob_rel_err", "passed",
               "fidelity_tol", "prob_tol")
    rows = [[repr(r["arms"]), repr(r["eta"]), repr(r["input"]), repr(r["infidelity"]),
             repr(r["prob_rel_err"]), _bool(report["passed"]),
             repr(report["fidelity_tol"]), repr(report["prob_tol"])]
            for r in report["rows"]]
    if report["skipped"]:
        raise CheckFailed(f"oracle skipped {report['skipped']}")
    return columns, rows


def _bool(value) -> str:
    return "true" if value else "false"


def parse_csv(text: str):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise CheckFailed("no table in the output")
    columns = tuple(lines[0].split(","))
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(columns) for r in rows):
        raise CheckFailed("ragged table")
    return columns, rows


# ---------------------------------------------------------------------------
# independent oracles


def nla_coeff(n: int, arms: int, eta: float) -> float:
    """eta**(N/2) * N!/((N-n)! N**n) * g**n for n <= N, else 0."""
    if n > arms:
        return 0.0
    g = math.sqrt((1.0 - eta) / eta)
    return eta ** (arms / 2.0) * math.perm(arms, n) / arms**n * g**n


def coherent_amp(alpha: complex, n: int) -> complex:
    return math.exp(-abs(alpha) ** 2 / 2.0) * alpha**n / math.sqrt(math.factorial(n))


def lossy_epr_amplitudes(chi, loss, cutoff, amplify=lambda k: 1.0) -> dict:
    """Purification of a two-mode squeezed state sent through transmission
    ``loss`` on mode A, then scaled by ``amplify(k)`` on A's k photons.

    Keys are (k, n): k photons on A, n on B and n - k in the environment,
    n < cutoff; every amplitude is real and nonnegative.
    """
    return {(k, n): math.sqrt((1.0 - chi**2) * math.comb(n, k)) * chi**n
            * math.sqrt(loss**k * (1.0 - loss) ** (n - k)) * amplify(k)
            for n in range(cutoff) for k in range(n + 1)}


def distill_closed_form(chi, loss, arms, eta, chi_prime, eps_prime, cutoff) -> dict:
    """Success probability, fidelity against the lossy target and the
    quadrature variances of a distillation run, from its purification.

    The environment holds n - k photons in both states, so A+B is diagonal
    in the environment basis with nonnegative entries: its trace norm, the
    Uhlmann fidelity, is the plain overlap of the two purifications. The
    variances use <n_A>, <n_B> and <ab>; <a>, <a^2> and <ab+> vanish.
    """
    psi = lossy_epr_amplitudes(chi, loss, cutoff, lambda k: nla_coeff(k, arms, eta))
    phi = lossy_epr_amplitudes(chi_prime, eps_prime, cutoff)
    prob = sum(a * a for a in psi.values())
    overlap = sum(a * phi[key] for key, a in psi.items())
    fid = overlap**2 / (prob * sum(b * b for b in phi.values()))
    n_a = sum(k * a * a for (k, _), a in psi.items()) / prob
    n_b = sum(n * a * a for (_, n), a in psi.items()) / prob
    ab = sum(math.sqrt(k * n) * psi[k - 1, n - 1] * a
             for (k, n), a in psi.items() if k >= 1) / prob
    return {"success_prob": prob, "fidelity": fid,
            "v_minus": n_a + n_b + 1.0 - 2.0 * ab, "v_plus": n_a + n_b + 1.0 + 2.0 * ab}


def amplified_coherent(alpha: complex, arms: int, eta: float) -> list:
    return [coherent_amp(alpha, n) * nla_coeff(n, arms, eta) for n in range(arms + 1)]


def overlap_fidelity(out: list, target_alpha: complex, target_cutoff: int | None = None):
    """|<target|out>|^2 / (<out|out> <target|target>), target truncated at
    ``target_cutoff`` (None: untruncated, unit norm)."""
    norm_out = sum(abs(a) ** 2 for a in out)
    ov = sum(coherent_amp(target_alpha, n).conjugate() * a for n, a in enumerate(out))
    norm_t = 1.0 if target_cutoff is None else sum(
        abs(coherent_amp(target_alpha, n)) ** 2 for n in range(target_cutoff))
    return abs(ov) ** 2 / (norm_out * norm_t)


def clone_fidelity(alpha: complex, arms: int) -> float:
    """Fidelity of one clone against |alpha>: the amplified state (gain
    sqrt 2) split 50:50 against vacuum, the other output traced out."""
    psi = amplified_coherent(alpha, arms, 1.0 / 3.0)
    total = 0.0
    for m in range(arms + 1):
        amp = sum(coherent_amp(alpha, k).conjugate() * psi[k + m]
                  * math.sqrt(math.comb(k + m, k) / 2.0 ** (k + m))
                  for k in range(arms + 1 - m))
        total += abs(amp) ** 2
    return total / sum(abs(a) ** 2 for a in psi)


def _close(got: float, want: float, rel: float = CHECK_REL_TOL, abs_tol: float = 1e-15):
    return math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol)


def _expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def _col(columns, row, name) -> float:
    return float(row[columns.index(name)])


def _argv_value(argv, flag):
    for i, arg in enumerate(argv):
        if arg == flag:
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    raise KeyError(flag)


def _check_distill_row(cols, row, chi, loss, arms, eta, cutoff):
    g2 = (1.0 - eta) / eta
    boost = 1.0 + (g2 - 1.0) * loss
    want = distill_closed_form(chi, loss, arms, eta, chi * math.sqrt(boost),
                               g2 * loss / boost, cutoff)
    for name, value in want.items():
        got = _col(cols, row, name)
        _expect(_close(got, value), f"{name} {got} != closed form {value}")
    prob = want["success_prob"]
    _expect(_close(_col(cols, row, "success_prob_pct"), 100.0 * prob), "success_prob_pct")
    fid = _col(cols, row, "fidelity")
    _expect(0.0 <= fid <= 1.0, f"fidelity {fid} outside [0, 1]")
    product = _col(cols, row, "product")
    _expect(product >= 1.0 - 1e-9, f"uncertainty product {product} < 1")
    _expect(_close(product, _col(cols, row, "v_minus") * _col(cols, row, "v_plus")),
            "product != v_minus * v_plus")
    return g2, boost


def check(op: Op, table) -> None:
    """Raise ``CheckFailed`` unless ``table`` matches the closed forms."""
    cols, rows = table
    _expect(bool(rows), "empty table")
    if op.kind == "oracle":
        arms, eta, _, _ = op.args
        from nlasim.verification import ORACLE_FIDELITY_TOL, ORACLE_PROB_TOL
        _expect(len(rows) == 1, "expected one oracle row")
        row = rows[0]
        _expect(_col(cols, row, "arms") == arms and _col(cols, row, "eta") == eta,
                "oracle row does not match the request")
        _expect(row[cols.index("passed")] == "true", "oracle report failed")
        _expect(_col(cols, row, "infidelity") <= ORACLE_FIDELITY_TOL, "oracle infidelity")
        _expect(_col(cols, row, "prob_rel_err") <= ORACLE_PROB_TOL, "oracle probability")
        return

    argv = op.args
    sub = argv[0]
    if sub == "distill":
        chi, loss = float(_argv_value(argv, "--chi")), float(_argv_value(argv, "--loss"))
        arms, eta = int(_argv_value(argv, "--arms")), float(_argv_value(argv, "--eta"))
        cutoff = int(_argv_value(argv, "--cutoff"))
        _expect(len(rows) == 1, "distill emits one row")
        row = rows[0]
        g2, boost = _check_distill_row(cols, row, chi, loss, arms, eta, cutoff)
        _expect(_close(_col(cols, row, "chi_prime"), chi * math.sqrt(boost)), "chi_prime")
        _expect(_close(_col(cols, row, "eps_prime"), g2 * loss / boost), "eps_prime")
        _expect(row[cols.index("physical")] == "true", "physical flag")
        fid = _col(cols, row, "fidelity")
        _expect(_close(_col(cols, row, "fidelity_amplitude"), math.sqrt(fid)),
                "fidelity_amplitude")
    elif sub == "fig4":
        arms, loss = int(_argv_value(argv, "--arms")), float(_argv_value(argv, "--loss"))
        chi_target = math.tanh(float(_argv_value(argv, "--squeeze-r")))
        cutoff = int(_argv_value(argv, "--cutoff"))
        _expect(len(rows) == 9, "fig4 emits nine gain rows")
        for i, row in enumerate(rows):
            gain = 1.0 + 0.25 * i
            eta = 1.0 / (1.0 + gain**2)
            chi = chi_target / math.sqrt(1.0 + (gain**2 - 1.0) * loss)
            _expect(_close(_col(cols, row, "gain"), gain), "fig4 gain grid")
            _expect(_close(_col(cols, row, "eta"), eta), "fig4 eta")
            _expect(_close(_col(cols, row, "chi_source"), chi), "fig4 chi_source")
            _expect(int(_col(cols, row, "arms")) == arms, "fig4 arms")
            _check_distill_row(cols, row, chi, loss, arms, eta, cutoff)
    elif sub == "amplify":
        alpha = complex(*map(float, _argv_value(argv, "--alpha").split(",")))
        arms, eta = int(_argv_value(argv, "--arms")), float(_argv_value(argv, "--eta"))
        gain = math.sqrt((1.0 - eta) / eta)
        cutoff = len(rows)
        _expect(cutoff > arms, "amplify table shorter than the arm count")
        out = amplified_coherent(alpha, arms, eta)
        prob = sum(abs(a) ** 2 for a in out)
        fid = overlap_fidelity(out, gain * alpha, cutoff)
        for n, row in enumerate(rows):
            want = out[n] if n <= arms else 0.0
            _expect(int(_col(cols, row, "n")) == n, "amplify row order")
            _expect(_close(_col(cols, row, "amp_re"), want.real, abs_tol=1e-15)
                    and _close(_col(cols, row, "amp_im"), want.imag, abs_tol=1e-15),
                    f"amplitude {n} != closed form")
            _expect(_close(_col(cols, row, "prob_n"), abs(want) ** 2, abs_tol=1e-15),
                    f"prob_n {n}")
            _expect(_close(_col(cols, row, "success_prob"), prob), "amplify success_prob")
            _expect(_close(_col(cols, row, "success_prob_pct"), 100.0 * prob),
                    "amplify success_prob_pct")
            _expect(_close(_col(cols, row, "fidelity"), fid), "amplify fidelity")
            _expect(_close(_col(cols, row, "target_gain"), gain), "target_gain")
            _expect(row[cols.index("zero_output")] == "false", "zero_output flag")
    elif sub == "clone":
        alpha = complex(*map(float, _argv_value(argv, "--alpha").split(",")))
        arms = int(_argv_value(argv, "--arms"))
        _expect(len(rows) == 1, "clone emits one row")
        row = rows[0]
        prob = sum(abs(a) ** 2 for a in amplified_coherent(alpha, arms, 1.0 / 3.0))
        _expect(_close(_col(cols, row, "success_prob"), prob), "clone success_prob")
        f1, f2 = _col(cols, row, "clone1_fidelity"), _col(cols, row, "clone2_fidelity")
        _expect(0.0 <= f1 <= 1.0 and 0.0 <= f2 <= 1.0, "clone fidelity outside [0, 1]")
        _expect(f1 == f2, f"clone fidelities differ: {f1} vs {f2}")
        _expect(_close(f1, clone_fidelity(alpha, arms)), "clone fidelity != closed form")
    elif sub == "fig3":
        arms, eta = int(_argv_value(argv, "--arms")), float(_argv_value(argv, "--eta"))
        sweeps = dict(s.split("=") for s in argv[1:] if "=" in s)
        alphas = _linspace(sweeps["alpha"])
        gains = _linspace(sweeps["gain"])
        _expect(len(rows) == len(alphas) * len(gains), "fig3 row count")
        device_gain = math.sqrt((1.0 - eta) / eta)
        for i, row in enumerate(rows):
            alpha, target = alphas[i // len(gains)], gains[i % len(gains)]
            out = amplified_coherent(alpha, arms, eta)
            prob = sum(abs(a) ** 2 for a in out)
            _expect(_close(_col(cols, row, "alpha"), alpha), "fig3 alpha")
            _expect(_close(_col(cols, row, "target_gain"), target), "fig3 target_gain")
            _expect(_close(_col(cols, row, "success_prob"), prob), "fig3 success_prob")
            _expect(_close(_col(cols, row, "fidelity"), overlap_fidelity(out, target * alpha)),
                    "fig3 fidelity != closed form")
            _expect(_close(_col(cols, row, "device_gain"), device_gain), "fig3 device_gain")
    else:
        raise CheckFailed(f"no check for subcommand {sub!r}")


def _linspace(spec: str) -> list:
    start, stop, steps = spec.split(":")
    start, stop, steps = float(start), float(stop), int(steps)
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


# ---------------------------------------------------------------------------
# recorded reference values


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> list:
    with open(reference_path(workload), encoding="utf-8") as handle:
        return json.load(handle)["ops"]


#: Oracle columns that hold rounding-level deviations: they are bounded by
#: the repo's tolerances in ``check`` instead of compared with a reference.
_NOISE_COLUMNS = {"infidelity", "prob_rel_err"}


def compare_reference(op: Op, table, ref: dict) -> None:
    """Raise ``CheckFailed`` if any cell differs from the recorded one by
    more than ``REF_REL_TOL`` (numbers) or at all (flags)."""
    cols, rows = table
    _expect(list(op.args) == ref["args"], "op differs from the recorded reference op")
    _expect(list(cols) == ref["columns"] and len(rows) == len(ref["rows"]),
            "table shape differs from the reference")
    for row, ref_row in zip(rows, ref["rows"]):
        for name, got, want in zip(cols, row, ref_row):
            if name in _NOISE_COLUMNS:
                continue
            try:
                g, w = float(got), float(want)
            except ValueError:
                _expect(got == want, f"{name}: {got!r} != reference {want!r}")
                continue
            _expect(math.isclose(g, w, rel_tol=REF_REL_TOL, abs_tol=REF_ABS_TOL)
                    or (math.isnan(g) and math.isnan(w)),
                    f"{name}: {got} != reference {want}")
