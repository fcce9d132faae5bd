"""Tests of the benchmark itself: python3 -m pytest bench -q -p no:cacheprovider"""

import contextlib
import io
import math
import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import import_nlasim, run_ops, tail_latency  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

CLI, VERIFICATION = MODULES = import_nlasim()


def _first_ops(workload, n_cycles=1, seed=0):
    stream = workloads.cycles(workload, seed)
    return [op for _ in range(n_cycles) for op in next(stream)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeded_inputs_are_deterministic(workload):
    assert _first_ops(workload, 3, seed=5) == _first_ops(workload, 3, seed=5)
    assert _first_ops(workload, 3, seed=5) != _first_ops(workload, 3, seed=6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_matches_default_seed_stream(workload):
    ref = workloads.load_reference(workload)
    ops = _first_ops(workload, len(ref) // len(_first_ops(workload)))
    assert [list(op.args) for op in ops] == [r["args"] for r in ref]


def _corrupting_cli(edit):
    """A stand-in for the cli module whose main() output goes through ``edit``."""

    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = CLI.main(argv)
        sys.stdout.write(edit(buf.getvalue()))
        return code

    return types.SimpleNamespace(main=main)


def _scale_cell(text, column, factor):
    lines = text.splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    idx = lines[head].split(",").index(column)
    cells = lines[head + 1].split(",")
    cells[idx] = repr(float(cells[idx]) * factor)
    lines[head + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


CHEAP_OPS = [
    workloads.Op("cli", ("distill", "--chi", "0.2", "--loss", "0.5", "--arms", "2",
                         "--eta", "0.2", "--cutoff", "14")),
    workloads.Op("cli", ("fig4", "--arms", "1", "--loss", "0.5", "--squeeze-r", "0.3",
                         "--cutoff", "12")),
] + _first_ops("amplify_pure")


CORRUPTIONS = [(op, column) for op in CHEAP_OPS for column in {
    "distill": ("success_prob", "fidelity", "v_minus", "chi_prime"),
    "fig4": ("success_prob", "fidelity", "v_plus"),
    "amplify": ("amp_re", "success_prob", "fidelity"),
    "clone": ("success_prob", "clone1_fidelity"),
    "fig3": ("success_prob", "fidelity"),
}[op.args[0]]]


@pytest.mark.parametrize("op,column", CORRUPTIONS,
                         ids=[f"{op.args[0]}-{col}" for op, col in CORRUPTIONS])
def test_corrupted_output_is_counted_not_raised(op, column):
    lat, failures = run_ops([op], MODULES)
    assert len(lat) == 1 and not failures
    bad = (_corrupting_cli(lambda t: _scale_cell(t, column, 1.0 + 1e-6)), VERIFICATION)
    lat, failures = run_ops([op], bad)
    assert lat == [] and len(failures) == 1
    assert "CheckFailed" in failures[0]


def test_raising_and_nonzero_ops_are_counted():
    def boom(argv):
        raise RuntimeError("boom")

    ops = _first_ops("amplify_pure")[:2]
    for fake in (boom, lambda argv: 2):
        lat, failures = run_ops(ops, (types.SimpleNamespace(main=fake), VERIFICATION))
        assert lat == [] and len(failures) == 2


def test_corrupted_reference_value_fails():
    op = _first_ops("oracle")[0]
    table = workloads.execute(op, MODULES)
    ref = workloads.load_reference("oracle")[0]
    workloads.compare_reference(op, table, ref)
    cols, rows = table
    wrong = [list(r) for r in rows]
    wrong[0][cols.index("eta")] = repr(float(wrong[0][cols.index("eta")]) * (1 + 1e-8))
    with pytest.raises(workloads.CheckFailed):
        workloads.compare_reference(op, (cols, wrong), ref)


def _snapshot():
    import nlasim

    names = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name == "nlasim" or mod_name.startswith("nlasim."):
            for attr, value in vars(mod).items():
                names[(mod_name, attr)] = value
                if isinstance(value, type) and "__post_init__" in vars(value):
                    names[(mod_name, attr, "__post_init__")] = vars(value)["__post_init__"]
    assert names[("nlasim", "fidelity")] is nlasim.fidelity
    return names


def _lookup(key):
    value = vars(sys.modules[key[0]])[key[1]]
    return vars(value)["__post_init__"] if len(key) == 3 else value


def test_traced_run_restores_every_patched_name():
    before = _snapshot()
    ops = [CHEAP_OPS[1], _first_ops("amplify_pure")[2]]  # fig4 and fig3 use the pool
    with tracing.SpanRecorder("nlasim") as recorder:
        patched = recorder.patched_names()
        assert len(patched) > 50
        assert sys.modules["nlasim.fock"].fidelity is not before[("nlasim.fock", "fidelity")]
        lat, failures = run_ops(ops, MODULES, recorder=recorder)
    assert len(lat) == 2 and not failures
    assert all(_lookup(key) is value for key, value in before.items())
    assert recorder.patched_names() == []

    by_id = {s[2]: s for s in recorder.spans}
    roots = [s for s in recorder.spans if s[3] is None]
    assert [s[0] for s in roots] == ["cli.main", "cli.main"]
    for span in recorder.spans:
        assert span[1] in (0, 1)
        top = span
        while top[3] is not None:
            top = by_id[top[3]]
            assert top[1] == span[1], "a span attached to another op"
        assert top[0] == "cli.main"
    summary = recorder.summary()
    assert summary["experiments.fig4_table.calls"] == 1
    assert summary["applications.distill_numeric.calls"] == 9
    assert summary["fock.DensityOperator.bytes"] > 0


def test_pool_worker_spans_attach_to_the_dispatching_span():
    rec = tracing.SpanRecorder("nlasim")
    rec.begin_op(7)
    outer = rec._enter("experiments.fig4_table")
    seen = []

    def worker():
        span = rec._enter("applications.distill_numeric")
        seen.append(span)
        rec._exit(span)

    threads = [threading.Thread(target=worker) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    rec._exit(outer)
    assert [s[3] for s in seen] == [outer[2]] * 3
    assert all(s[1] == 7 for s in seen)


def test_self_time_subtracts_union_of_overlapping_children():
    rec = tracing.SpanRecorder("nlasim")
    rec.spans = [
        ("experiments.fig4_table", 0, 0, None, 0.0, 10.0),
        ("applications.distill_numeric", 0, 1, 0, 1.0, 5.0),
        ("applications.distill_numeric", 0, 2, 0, 3.0, 6.0),  # overlaps span 1
        ("applications.distill_numeric", 0, 3, 0, 8.0, 9.0),
    ]
    summary = rec.summary()
    assert math.isclose(summary["experiments.fig4_table.self_s"], 10.0 - 6.0)
    assert math.isclose(summary["applications.distill_numeric.busy_s"], 6.0)
    assert math.isclose(summary["applications.distill_numeric.self_s"], 8.0)
    assert summary["applications.distill_numeric.calls"] == 3


def test_tail_latency_needs_ten_samples_beyond():
    assert tail_latency([1.0] * 99) is None
    pct, value = tail_latency([float(i) for i in range(250)])
    assert pct == 95.0 and 236.0 < value < 238.0
