import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlasim.applications
import nlasim.cli
import nlasim.experiments
import nlasim.fock
import nlasim.nla
import nlasim.verification
from nlasim import ConfigError
from nlasim.cli import main
from nlasim.experiments import (
    amplify_table,
    clone_table,
    distill_table,
    fig3_table,
    fig4_table,
)
from nlasim.verification import verify_table


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_csv(path):
    header = []
    with open(path, newline="") as handle:
        rows = [line for line in handle if not line.startswith("#")]
        header = [line for line in open(path) if line.startswith("#")]
    return header, list(csv.DictReader(rows))


class TestOutputs:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["fig3", "--sweep", "gain=1.2:1.6:3", "--sweep", "alpha=0.3:0.3:1"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_header_records_config_and_seed(self, tmp_path):
        out = tmp_path / "t.csv"
        argv = ["verify", "--seed", "9", "--out", str(out)]
        assert main(argv) == 0
        header, rows = read_csv(out)
        joined = "".join(header)
        assert '"seed": 9' in joined
        assert "# provenance:" in joined
        assert rows and "status" in rows[0]

    def test_json_mirrors_csv_rows(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        base = ["distill", "--squeeze-r", "0.1", "--arms", "2", "--eta", "0.05"]
        assert main(base + ["--out", str(csv_path)]) == 0
        assert main(base + ["--format", "json", "--out", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        _, rows = read_csv(csv_path)
        assert len(payload["rows"]) == len(rows) == 1
        assert payload["rows"][0]["chi_prime"] == pytest.approx(
            float(rows[0]["chi_prime"]), rel=1e-10
        )
        assert "seed" not in payload["config"]
        assert payload["version"]

    def test_probabilities_emitted_raw_and_percent(self, capsys):
        code, out, _ = run_cli(
            ["amplify", "--alpha", "0.0,0.0", "--arms", "2", "--eta", "0.05"], capsys
        )
        assert code == 0
        table = [line for line in out.splitlines() if not line.startswith("#")]
        cols = table[0].split(",")
        row = table[1].split(",")
        raw = float(row[cols.index("success_prob")])
        pct = float(row[cols.index("success_prob_pct")])
        assert pct == pytest.approx(100.0 * raw, rel=1e-12)
        assert raw == pytest.approx(0.0025, rel=1e-9)


class TestAmplify:
    def test_overfull_number_state_flagged(self, capsys):
        code, out, _ = run_cli(
            ["amplify", "--fock", "3", "--arms", "2", "--eta", "0.3"], capsys
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        cols = lines[0].split(",")
        row = lines[1].split(",")
        assert row[cols.index("zero_output")] == "true"
        assert float(row[cols.index("success_prob")]) == 0.0

    def test_alpha_and_fock_exclusive(self, capsys):
        code, _, err = run_cli(["amplify", "--alpha", "0.1", "--fock", "1"], capsys)
        assert code == 1
        assert "configuration error" in err

    def test_misfire_mode(self, capsys):
        code, out, _ = run_cli(
            ["amplify", "--alpha", "0.3", "--arms", "5", "--gamma", "0.01"], capsys
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        cols = lines[0].split(",")
        row = lines[1].split(",")
        assert 0.0 < float(row[cols.index("purity")]) <= 1.0
        assert float(row[cols.index("term_fidelity")]) > 0.95
        probs = [float(l.split(",")[cols.index("prob_n")]) for l in lines[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", ["0", "1e-200"])
    def test_misfire_of_vacuum_input(self, alpha, capsys):
        # the misfire branch is zero, so it has no fidelity to report
        argv = ["amplify", "--alpha", alpha, "--gamma", "0.01"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert err == ""
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        column = lines[0].split(",").index("term_fidelity")
        assert all(math.isnan(float(l.split(",")[column])) for l in lines[1:])

    @pytest.mark.parametrize("alpha", ["20", "26"])
    def test_misfire_of_a_tiny_acceptance(self, alpha, capsys):
        # acceptances near 1e-170 and 1e-290 square below the float64 range
        argv = ["amplify", "--alpha", alpha, "--eta", "0.5", "--arms", "2"]
        code, out, err = run_cli(argv + ["--gamma", "0.01"], capsys)
        assert code == 0
        assert err == ""
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        cols = lines[0].split(",")
        row = lines[1].split(",")
        assert 0.0 < float(row[cols.index("purity")]) <= 1.0
        assert math.isfinite(float(row[cols.index("term_fidelity")]))
        probs = [float(l.split(",")[cols.index("prob_n")]) for l in lines[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_misfire_branches_are_computed_once(self, monkeypatch, capsys):
        # the table reads both branches off the mixture's factor
        calls = []
        original = nlasim.nla.misfire_terms

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(nlasim.nla, "misfire_terms", counting)
        monkeypatch.setattr(
            nlasim.experiments, "misfire_terms", counting, raising=False
        )
        argv = ["amplify", "--alpha", "0.3", "--arms", "5", "--gamma", "0.01"]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        assert len(calls) == 1

    def test_misfire_needs_coherent_input(self, capsys):
        code, _, err = run_cli(["amplify", "--fock", "1", "--gamma", "0.01"], capsys)
        assert code == 1


class TestExitCodes:
    def test_bad_flag_value(self, capsys):
        code, _, err = run_cli(["amplify", "--alpha", "0.1", "--eta", "2.0"], capsys)
        assert code == 1

    def test_unparseable_sweep(self, capsys):
        code, _, err = run_cli(["fig3", "--sweep", "gain=oops"], capsys)
        assert code == 1

    def test_nonconvergent_request(self, capsys):
        code, _, err = run_cli(
            ["distill", "--chi", "0.6", "--asymptotic", "--gain", "2", "--loss", "1"],
            capsys,
        )
        assert code == 3
        assert "nonconvergent" in err

    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert "oracle_equivalence,pass" in out

    def test_verify_prior_row_draws_no_random_numbers(self, capsys):
        # the seed feeds only the oracle sweep; seed 219 once put a
        # Monte-Carlo prior check 5.2 standard errors out
        lines = set()
        for seed in (0, 219, 2**31):
            code, out, _ = run_cli(["verify", "--seed", str(seed)], capsys)
            assert code == 0
            rows = out.splitlines()
            lines.update(l for l in rows if l.startswith("postselected_prior,"))
        assert len(lines) == 1
        assert lines.pop().startswith("postselected_prior,pass,0,")

    def test_verify_names_a_negative_seed(self, capsys):
        # numpy's own refusal, "expected non-negative integer", named no flag
        code, out, err = run_cli(["verify", "--seed", "-1"], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "nlasim: configuration error: "
            "seed must be a non-negative integer, got -1\n"
        )

    def test_verify_detects_corrupted_prior_variance(self, capsys, monkeypatch):
        # a relative fault of 1e-9 in d' = d / (1 - (g**2 - 1) d); a
        # Monte-Carlo check with a 1.7% standard error could not see it
        true_variance = nlasim.verification.postselected_prior_variance

        def corrupted(prior_variance, gain):
            return true_variance(prior_variance, gain) * (1.0 + 1e-9)

        monkeypatch.setattr(
            nlasim.verification, "postselected_prior_variance", corrupted
        )
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 2
        assert "postselected_prior,fail" in out

    def test_verify_detects_corrupted_operator(self, capsys, monkeypatch):
        # classic bookkeeping fault: per-pattern prefactor instead of the
        # pattern-summed one
        true_operator = nlasim.nla.nla_operator

        def corrupted(arm_count, eta, cutoff):
            return true_operator(arm_count, eta, cutoff) * 2.0 ** (-arm_count / 2.0)

        monkeypatch.setattr(nlasim.nla, "nla_operator", corrupted)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 2
        assert "oracle_equivalence,fail" in out

    def test_verify_arms_reaches_every_coefficient(self, capsys, monkeypatch):
        # a fault confined to n = 4 and 5 of the 5-arm map shows only on
        # inputs supported up to |5>
        true_operator = nlasim.nla.nla_operator

        def corrupted(arm_count, eta, cutoff):
            coeffs = true_operator(arm_count, eta, cutoff).copy()
            coeffs[4:] *= 1.01
            return coeffs

        monkeypatch.setattr(nlasim.nla, "nla_operator", corrupted)
        code, out, _ = run_cli(["verify", "--arms", "5"], capsys)
        assert code == 2
        assert "oracle_equivalence,fail" in out

    def test_verify_skips_beyond_oracle_limit(self, capsys):
        # the whole verify layout: the skipped arm count comes second, and
        # the prior and guard rows, which draw nothing, are exact
        code, out, _ = run_cli(["verify", "--arms", "7"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "check,status,max_deviation,detail"
        rows = [line.split(",", 3) for line in lines[1:]]
        assert [row[0] for row in rows] == [
            "oracle_equivalence",
            "oracle_equivalence_arms_7",
            "chi_prime_lossless",
            "effective_params_grid",
            "postselected_prior",
            "nonconvergence_guards",
        ]
        assert [row[1] for row in rows] == [
            "pass", "skipped", "pass", "pass", "pass", "pass"
        ]
        assert lines[2] == "oracle_equivalence_arms_7,skipped,nan,beyond oracle limit 5"
        assert lines[5] == (
            "postselected_prior,pass,0,thermal input of mean 0.3 through the "
            "ideal map: <n> / g**2 = 0.428571428571 vs d' = 0.428571428571"
        )
        assert lines[6] == (
            "nonconvergence_guards,pass,0,guards fire exactly at the "
            "unnormalizable boundaries"
        )


# One argv per subcommand. Its recorded config, less the keys that only
# shape the output, is the builder's keyword arguments: a sweep_NAME key
# is the builder's NAMEs argument.
CONTRACT = {
    "amplify": (amplify_table, "amplify --alpha 0.2,0.1 --arms 3 --gain 1.3"),
    "fig3": (
        fig3_table,
        "fig3 --arms 2 --eta 0.3 --sweep gain=1.2:1.6:3 --sweep alpha=0.3:0.5:2",
    ),
    "fig4": (fig4_table, "fig4 --arms 1 --cutoff 12 --sweep gain=1.5:2:2"),
    "distill": (
        distill_table,
        "distill --chi 0.2 --loss 0.5 --asymptotic --gain 1.5 --target-r 0.3",
    ),
    "clone": (clone_table, "clone --alpha 0.5,0.2 --asymptotic"),
    "verify": (verify_table, "verify --arms 7 --seed 3"),
}


def _same_cell(a, b):
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_recorded_config_reproduces_table(name, capsys):
    builder, argv = CONTRACT[name]
    code, out, _ = run_cli(argv.split() + ["--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    kwargs = dict(payload["config"])
    del kwargs["subcommand"], kwargs["format"]
    for key in [k for k in kwargs if k.startswith("sweep_")]:
        kwargs[key.removeprefix("sweep_") + "s"] = kwargs.pop(key)
    if isinstance(kwargs.get("alpha"), list):
        kwargs["alpha"] = complex(*kwargs["alpha"])
    result = builder(**kwargs)
    assert list(result.columns) == payload["columns"]
    assert len(result.rows) == len(payload["rows"])
    for row, emitted in zip(result.rows, payload["rows"]):
        assert row.keys() == emitted.keys()
        for key, value in row.items():
            assert _same_cell(value, emitted[key]), key


class TestFigureTables:
    def test_fig3_columns(self, capsys):
        code, out, _ = run_cli(
            ["fig3", "--sweep", "gain=1.3:1.5:3", "--sweep", "alpha=0.25:0.5:2"],
            capsys,
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == (
            "eta,alpha,target_gain,fidelity,success_prob,success_prob_pct,device_gain"
        )
        # two etas x two alphas x three gains
        assert len(lines) - 1 == 12

    @pytest.mark.filterwarnings("error")
    def test_library_chosen_coherent_cutoff_does_not_warn(self, capsys):
        # minimal_coherent_cutoff(2.337845 * 0.360887) is 13, where the tail
        # sits just below 1e-12; coherent_state must measure it the same way
        argv = (
            "fig3 --arms 7 --eta 0.332825 --sweep alpha=0.360887:0.760887:3 "
            "--sweep gain=1.337845:2.337845:4"
        )
        code, out, err = run_cli(argv.split(), capsys)
        assert code == 0
        assert err == ""
        assert len([l for l in out.splitlines() if not l.startswith("#")]) == 1 + 12

    def test_fig4_trend_columns(self, capsys):
        code, out, _ = run_cli(["fig4", "--sweep", "gain=1:2:3"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        cols = lines[0].split(",")
        for name in ("chi_source", "gain", "success_prob", "v_minus", "product"):
            assert name in cols
        products = [float(l.split(",")[cols.index("product")]) for l in lines[1:]]
        assert products[0] > products[-1] >= 1.0 - 1e-9

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "nlasim", "amplify", "--alpha", "0.1",
             "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.read_text().startswith("# tool: nlasim")

    def test_clone_row(self, capsys):
        code, out, _ = run_cli(["clone", "--alpha", "0.5", "--asymptotic"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        cols = lines[0].split(",")
        row = lines[1].split(",")
        assert float(row[cols.index("clone1_fidelity")]) == pytest.approx(1.0, abs=1e-9)
        assert float(row[cols.index("clone2_fidelity")]) == pytest.approx(1.0, abs=1e-9)


# Sizes a user can type whose arrays or tables would take gigabytes. The
# first three ended in a numpy._ArrayMemoryError traceback under a 4 GB
# address-space limit; each is now refused before it allocates.
OVERSIZED = [
    "fig3 --sweep gain=1:2:1000000000000000",
    "fig4 --sweep gain=1:2:1000000000000000",
    "amplify --fock 100000000000",
    "amplify --alpha 0.1 --cutoff 100000000",
    "fig3 --arms 100000000000",
    "fig3 --cutoff 100000000",
]

# Each bad input exits 1 with one stderr line. The comment on each case
# gives its exit code under the earlier CLI, which ran its own range checks
# and caught only ConfigError and TruncationError: "1 by traceback" is the
# interpreter's exit after an uncaught exception.
BAD_INPUTS = [
    "fig4 --sweep gain=0:0:1",  # 1 by traceback
    "amplify --fock 3 --arms 2 --cutoff 2",  # 1 by traceback
    "distill --chi 0.3 --arms 0",  # 1 by traceback
    "amplify --alpha nan",  # 1 by traceback
    "amplify --alpha inf",  # 1 by traceback
    "distill --chi nan",  # 1 by traceback
    "amplify --alpha 0.1 --cutoff 0",  # 1 by traceback
    "clone --alpha 0.5 --cutoff 0",  # 1 by traceback
    "verify --samples 0",  # 1 by traceback
    "verify --samples 1000",  # 2
    "distill --chi 0.2 --loss 0.5 --gain -1.5",  # 1 by traceback
    "fig4 --loss 1 --sweep gain=0:0:1",  # 1 by traceback
    "clone --alpha=2,0.5 --eta 0.05",  # 1 by traceback: an 8.2 GiB matrix
    "distill --chi 0.05 --target-r 2",  # 1 by traceback: a 304 GiB matrix
    "amplify --alpha 0.1 --sweep eta=0.1:0.5:3",  # 0: sweep ignored
    "fig3 --sweep bogus=1:2:2",  # 0: sweep ignored
    "verify --cutoff 5",  # 0: cutoff ignored
    "amplify --alpha 0.1 --gain -1.5",  # 0: ran at gain +1.5
    "clone --alpha 0.5 --arms 0",  # 1
    "amplify --alpha 0.1 --asymptotic --arms 0",  # 1
    "amplify --alpha 0.1 --gamma -0.1",  # 1
    "fig4 --loss -0.5 --sweep gain=3:3:1",  # 1
    "distill --chi 0.1 --asymptotic --arms 3 --gain 1.5 --loss 0.5",  # 0: arms ignored
    "clone --alpha 0.5 --asymptotic --arms 3",  # 0: arms ignored
    # --arms given at its default value still conflicts
    "distill --chi 0.1 --asymptotic --arms 2 --gain 1.5 --loss 0.5",  # 0: arms ignored
    "clone --alpha 0.5 --asymptotic --arms 5",  # 0: arms ignored
    "amplify --alpha 0.1 --out {tmp}/missing/x.csv",  # 1 by traceback
    "amplify --alpha 0.1 --seed 9",  # 0: seed ignored
    "amplify --alpha 0.1 --gain 1e200",  # 1 by traceback: OverflowError
    "distill --chi 0.1 --gain 1e200",  # 1 by traceback: OverflowError
    "distill --chi 0.1 --asymptotic --gain 1e200 --loss 0.5",  # 1 by traceback: OverflowError
    "fig4 --sweep gain=1e200:1e200:1 --cutoff 4",  # 1 by traceback: OverflowError
    "amplify --alpha 1e160",  # 1 by traceback: OverflowError
    "amplify --alpha 1e154 --cutoff 4",  # 1 by traceback: OverflowError
    "clone --alpha 1e160 --cutoff 4",  # 1 by traceback: OverflowError
    "clone --alpha 1e160 --asymptotic --cutoff 4",  # 1 by traceback: OverflowError
    "fig3 --sweep alpha=1e160:1e160:1 --cutoff 4",  # 1 by traceback: OverflowError
    "fig3 --sweep gain=1e200:1e200:1 --cutoff 4",  # 1 by traceback: OverflowError
    "amplify --alpha 1e200 --gamma 0.01 --cutoff 4",  # 1 by traceback: OverflowError
    "amplify --fock 5 --asymptotic --gain 1e150",  # 1, after a RuntimeWarning
    "amplify --alpha 30 --cutoff 8",  # 0: zero amplitudes, nan fidelity
    "amplify --alpha 40 --cutoff 4",  # 0: zero amplitudes, nan fidelity
    "fig3 --sweep alpha=40:40:1 --cutoff 8",  # 1, after a TruncationWarning
    "clone --alpha 1e154 --cutoff 4",  # 1, after a TruncationWarning
    "amplify --alpha 1e150 --gamma 0.01 --arms 5 --cutoff 6",  # 1 by traceback: OverflowError
    "amplify --alpha 1 --gain 1e100 --gamma 0.01 --arms 5 --cutoff 6",  # 1 by traceback: OverflowError
    "fig3 --arms 2 --sweep gain=1:2:3 --sweep gain=1:3:2 --sweep alpha=0.3:0.3:1",  # 0: first gain sweep ignored
    "fig4 --arms 1 --cutoff 8 --sweep gain=1:2:3 --sweep gain=1.5:1.5:1",  # 0: first gain sweep ignored
    "distill --chi 0.3 --cutoff 1000",  # a 15 GiB purification, not run
    "fig4 --cutoff 1000",  # a 15 GiB purification, not run
    "verify --samples 1000000000000",  # 1 by traceback, after the oracle sweep
    "clone --alpha 20 --cutoff 1200",  # 1 by traceback: OverflowError
    "distill --chi 0.3 --asymptotic --gain 1e-200",  # 1 by traceback: ZeroDivisionError
    "amplify --alpha 27 --eta 0.5 --arms 2",  # 0: 886 rows missing 1e-8 of tail mass
    "amplify --alpha 20 --gamma 0.01 --cutoff 10",  # 1 by traceback: ZeroDivisionError
    # a success probability below the float64 normal range
    "distill --chi 0.3 --loss 0 --arms 3 --eta 1e-120",  # 1 by traceback: ZeroDivisionError
    "distill --chi 0.3 --loss 1e-300 --eta 1e-300 --arms 2",  # 1 by traceback: ZeroDivisionError
    "distill --chi 0.3 --loss 0 --arms 3 --eta 1e-104",  # 0: v_minus off in the 12th digit
    "distill --chi 0.3 --loss 0 --arms 3 --eta 1e-107",  # 0: v_minus off in the 3rd digit
    "verify --seed -1",  # 1, naming no flag: "expected non-negative integer"
    "distill --chi 0.3 --loss 0.5 --target-r -0.1",  # 1, naming the cutoff
    *OVERSIZED,
]


# any warning on a bad-input path is an extra stderr line, so it fails here
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", BAD_INPUTS)
def test_bad_input_exits_1_with_one_line(argv, capsys, tmp_path):
    code, out, err = run_cli(argv.format(tmp=tmp_path).split(), capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("nlasim: configuration error:")
    assert "Traceback" not in err


def test_bad_target_r_is_named_before_the_point_runs(capsys):
    # this point alone would need cutoff 263, past the automatic cap
    argv = "distill --chi 0.3 --loss 0.5 --target-r -0.1".split()
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("nlasim: configuration error: tanh(target_r) = ")


def test_distill_builds_the_factor_only_for_target_r(monkeypatch, capsys):
    # the row reads the point's sector columns and the gain and effective
    # parameters it ran at; only the target_r fidelity takes the factor
    built = []
    post_init = nlasim.fock.DensityOperator.__post_init__

    def counting_post_init(self):
        built.append(self.basis_cutoffs)
        post_init(self)

    calls = {}
    for name in ("_distill_gain", "distill_params"):
        original = getattr(nlasim.applications, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        for module in (nlasim.applications, nlasim.experiments):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    density = nlasim.fock.DensityOperator
    monkeypatch.setattr(density, "__post_init__", counting_post_init)
    argv = "distill --chi 0.1 --loss 0.5 --cutoff 24".split()
    for extra, factors in (([], []), (["--target-r", "0.3"], [(24, 24)])):
        code, _, err = run_cli(argv + extra, capsys)
        assert (code, err) == (0, "")
        assert built == factors
    assert calls == {"_distill_gain": 2, "distill_params": 2}


@pytest.mark.parametrize("argv", OVERSIZED)
def test_oversized_run_refused_before_allocating(argv, capsys):
    tracemalloc.start()
    try:
        code, _, err = run_cli(argv.split(), capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "above the 256 MiB limit" in err
    assert peak < 2**20


def test_smallest_normal_success_probability_keeps_every_bit(capsys):
    # at full loss the normalized state does not depend on eta, so a run at
    # P = 1e-300 reads the same variances as one at P = 1e-150
    def row(eta):
        argv = f"distill --chi 0.3 --loss 0 --arms 3 --eta {eta} --format json"
        code, out, _ = run_cli(argv.split(), capsys)
        assert code == 0
        return json.loads(out)["rows"][0]

    tiny, base = row("1e-100"), row("1e-50")
    assert 1e-301 < tiny["success_prob"] < 1e-299
    assert (tiny["v_minus"], tiny["v_plus"]) == (base["v_minus"], base["v_plus"])


def test_clone_past_the_float_binomial_range_runs(capsys):
    # float(math.comb(n, k)) overflows past n ~ 1030; the loss weights
    # come from log factorials instead
    code, out, err = run_cli("clone --alpha 20 --cutoff 1100".split(), capsys)
    assert code == 0
    assert err == ""
    row = out.splitlines()[-1].split(",")
    assert float(row[-1]) == float(row[-2])


def test_closed_stdout_pipe_exits_1_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nlasim", "fig3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("extra", [[], ["--out", "/dev/full"]])
def test_failed_write_is_an_output_error(extra):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "nlasim", "amplify", "--alpha", "0.1", *extra],
            stdout=full,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("nlasim: output error:")


# The output contract: the CSV and the JSON of each README example, byte
# for byte, and of four more runs, two of them on the ideal map. JSON
# prints every float at full repr precision, so it also catches a
# one-ulp drift that the 12-digit CSV cells hide. verify is left out: its
# deviation cells are rounding noise.
GOLDEN = {
    "amplify_alpha": "amplify --alpha 0.1,0.0 --arms 2 --eta 0.05",
    "amplify_misfire": "amplify --alpha 0.3 --arms 5 --gamma 0.01",
    "amplify_fock": "amplify --fock 3 --arms 4",
    "fig3": "fig3",
    "fig4": "fig4 --sweep gain=1:3:9",
    "distill": "distill --squeeze-r 0.1 --arms 2 --eta 0.05 --loss 1 --target-r 0.4",
    "clone": "clone --alpha 0.5 --arms 5",
    "clone_asymptotic": "clone --alpha 0.5,0.2 --asymptotic",
    "distill_asymptotic": "distill --chi 0.2 --loss 0.5 --asymptotic --gain 1.5",
    "amplify_fock_asymptotic": "amplify --fock 2 --arms 3 --asymptotic",
}
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_output_matches_golden_file(name, capsys):
    code, out, _ = run_cli(GOLDEN[name].split(), capsys)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN_DIR / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_json_output_matches_golden_file(name, capsys):
    code, out, _ = run_cli(GOLDEN[name].split() + ["--format", "json"], capsys)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN_DIR / f"{name}.json").read_bytes()


def test_main_builds_no_parser(monkeypatch, capsys):
    # the parser is built once, when nlasim.cli is imported
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (GOLDEN["amplify_alpha"], "fig3 --sweep gain=oops", GOLDEN["clone"]):
        main(argv.split())
    capsys.readouterr()
    assert built == []


# argv that fail part-way through the parse, after the parser has started
# filling in a Namespace
MID_PARSE_FAILURES = [
    "amplify --alpha 0.1 --fock 1",
    "distill --asymptotic --arms 2",
    "fig3 --sweep gain=oops",
    "clone --arms 0",
]


def test_runs_in_one_process_leave_no_parse_state(capsys):
    # every golden run, in both formats, each after a failed parse
    failures = itertools.cycle(MID_PARSE_FAILURES)
    for name in sorted(GOLDEN):
        for fmt in ("csv", "json"):
            failure = next(failures)
            code, out, err = run_cli(failure.split(), capsys)
            assert (code, out) == (1, ""), failure
            assert len(err.splitlines()) == 1, failure
            assert err.startswith("nlasim: configuration error:"), failure
            code, out, _ = run_cli(GOLDEN[name].split() + ["--format", fmt], capsys)
            assert code == 0
            assert out.encode("utf-8") == (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()
    # a repeated append flag leaves the next run at its default etas
    code, out, _ = run_cli("fig3 --eta 0.3 --eta 0.2".split(), capsys)
    assert code == 0
    assert '"etas": [0.3, 0.2]' in out
    code, out, _ = run_cli(["fig3"], capsys)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN_DIR / "fig3.csv").read_bytes()


# argv that the top-level parser rejects, each for a different reason
BAD_ARGV = [
    "distill --chi 0.1 --bogus 1",  # unknown flag
    "distill --chi abc",  # bad value
    "fig4 --sweep alpha=1:2:3",  # bad value of a sweep
    "clone --alpha 0.5 extra",  # extra positional
    "distill --chi 0.1 --squeeze-r 0.2",  # exclusive flags
    "distill",  # missing required flag
    "",  # no arguments
    "frobnicate --chi 0.1",  # unknown subcommand
    "--format csv distill --chi 0.1",  # a subcommand flag before it
]


def _parsed(parse, argv):
    """The Namespace ``parse`` makes of ``argv`` as plain values, or the
    message of the ConfigError it raises."""
    try:
        args = vars(parse(argv))
    except ConfigError as exc:
        return f"ConfigError: {exc}"
    # numpy sweep values do not compare as one bool
    args["sweep"] = [(name, list(v)) for name, v in args.get("sweep", ())]
    return args


@pytest.mark.parametrize("argv", [*GOLDEN.values(), *BAD_ARGV])
def test_subcommand_dispatch_parses_as_the_top_level_parser(argv):
    # main hands an argv that starts with a subcommand straight to its
    # parser; the Namespace, or the error, is the top-level parser's
    argv = argv.split()
    want = _parsed(nlasim.cli._PARSER.parse_args, argv)
    assert _parsed(nlasim.cli._parse_args, argv) == want


@pytest.mark.parametrize(
    "sub", [None, "amplify", "fig3", "fig4", "distill", "clone", "verify"]
)
def test_entry_point_help(sub):
    # the parser is built at import, so a fault in it breaks every command
    argv = ["--help"] if sub is None else [sub, "--help"]
    proc = subprocess.run(
        [sys.executable, "-m", "nlasim", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    usage = "usage: nlasim" if sub is None else f"usage: nlasim {sub}"
    assert proc.stdout.startswith(usage)


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# small values, valid and invalid alike; every run stays cheap because the
# dense two-mode subcommands always get an explicit small cutoff (a flag
# mapped to None takes no value)
_NUMBER = st.sampled_from(
    ["0.05", "0.2", "0.3333", "0.5", "1", "2", "3", "-0.5", "0", "nan", "inf", "x"]
)
_COUNT = st.sampled_from(["-1", "0", "1", "2", "3", "4"])
_CUTOFF = st.sampled_from(["-1", "0", "1", "2", "5", "8", "12"])
_SWEEP = st.builds(
    "{}={}:{}:{}".format,
    st.sampled_from(["gain", "alpha", "eta", "bogus"]),
    _NUMBER,
    _NUMBER,
    st.sampled_from(["0", "1", "2", "3"]),
)
_ALPHA = st.one_of(_NUMBER, st.builds("{},{}".format, _NUMBER, _NUMBER))
_FLAGS = {
    "amplify": {
        "--alpha": _ALPHA,
        "--fock": _COUNT,
        "--arms": _COUNT,
        "--eta": _NUMBER,
        "--gain": _NUMBER,
        "--gamma": _NUMBER,
        "--cutoff": _CUTOFF,
        "--sweep": _SWEEP,
        "--asymptotic": None,
    },
    "fig3": {
        "--arms": _COUNT,
        "--eta": _NUMBER,
        "--cutoff": _CUTOFF,
        "--sweep": _SWEEP,
    },
    "fig4": {
        "--arms": _COUNT,
        "--loss": _NUMBER,
        "--squeeze-r": _NUMBER,
        "--sweep": _SWEEP,
    },
    "distill": {
        "--chi": _NUMBER,
        "--squeeze-r": _NUMBER,
        "--loss": _NUMBER,
        "--arms": _COUNT,
        "--eta": _NUMBER,
        "--gain": _NUMBER,
        "--target-r": _NUMBER,
        "--sweep": _SWEEP,
        "--asymptotic": None,
    },
    "clone": {
        "--alpha": _ALPHA,
        "--arms": _COUNT,
        "--eta": _NUMBER,
        "--cutoff": _CUTOFF,
        "--sweep": _SWEEP,
        "--asymptotic": None,
    },
}


# one of these input flags always comes first, so that most argv get past
# the required input group
_SOURCE = {
    "amplify": ["--alpha", "--fock"],
    "distill": ["--chi", "--squeeze-r"],
    "clone": ["--alpha"],
}


@st.composite
def _argv(draw):
    sub = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[sub]
    argv = [sub]
    picked = draw(st.lists(st.sampled_from(sorted(flags)), max_size=4))
    if sub in _SOURCE:
        picked.insert(0, draw(st.sampled_from(_SOURCE[sub])))
    for flag in picked:
        value = flags[flag]
        argv.append(flag if value is None else f"{flag}={draw(value)}")
    if sub in ("fig4", "distill"):
        argv.append(f"--cutoff={draw(st.sampled_from(['1', '4', '8', '12']))}")
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_argv())
def test_any_argv_ends_in_a_documented_exit_code(argv):
    code, err = _run_captured(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
