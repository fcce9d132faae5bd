"""Command-line front end.

Subcommands: amplify | fig3 | fig4 | distill | clone | verify. Tables go
to stdout or ``--out`` as CSV (canonical) or JSON, with the full
configuration, the code version and the provenance of every analytic
target recorded in the header. Identical configuration gives
byte-identical files.

Every subcommand keeps one contract. Its run function maps the parsed
flags to a params dict that is exactly the keyword arguments of its
table builder, and records that dict as the header's config; fig3 and
fig4 add their sweeps, recorded as ``sweep_NAME`` and passed as
``NAMEs``. The config therefore reproduces the table. Only verify draws
random numbers, the oracle sweep's inputs, so only verify takes
``--seed``. Its postselected-prior check draws none: a Gaussian prior of
variance d is a thermal state of mean d, which the ideal map takes to the
postselected prior scaled by g. The builder returns a ``TableResult``
whose columns are the keys of its rows.

The parser owns only flag-level rules: exclusive flags, finite numbers
(``nan`` and ``inf`` are rejected) and positive counts for ``--arms`` and
``--cutoff``. Every other range is checked by the library.
``--sweep NAME=A:B:N`` is taken only by fig3 (names gain, alpha) and
fig4 (name gain), each name at most once. distill and clone reject
``--arms`` together with ``--asymptotic``, since an ideal run has no arm
count; amplify takes both, because there ``--arms`` sizes the cutoff.

Exit codes: 0 success, 1 configuration or output error, 2 invariant
failure, 3 nonconvergent-regime request. A configuration error is any
rejected or out-of-range value, or an ``--out`` path that cannot be
opened, and is reported as one line on stderr. A write to stdout or
``--out`` that fails is an output error, also one line on stderr, except
a stdout pipe whose reader has gone, which exits 1 silently.

``main(argv)`` may be called any number of times in one process. Every
call shares the one parser built when this module is imported; no parse
leaves state on it. An argv that starts with a subcommand is parsed by
that subcommand's parser alone, with the same result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, NonconvergentError
from .experiments import (
    MAX_TABLE_BYTES,
    TableResult,
    amplify_table,
    clone_table,
    distill_table,
    fig3_table,
    fig4_table,
)
from .fock import _count, _refuse_above
from .nla import eta_from_gain
from .verification import verify_table


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        return _count(int(text), "count")
    except ValueError:
        message = f"expected a positive integer, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _parse_complex(text: str) -> complex:
    """Parse "re,im" (or a bare real part) into a finite complex amplitude."""
    parts = text.split(",")
    if len(parts) <= 2:
        try:
            return complex(*map(_finite_float, parts))
        except argparse.ArgumentTypeError:
            pass
    raise argparse.ArgumentTypeError(
        f"expected a finite complex amplitude as 're,im', got {text!r}"
    )


def _sweep_type(names):
    """Type of a ``--sweep`` flag: "name=start:stop:steps" -> (name, values),
    with the name restricted to ``names``."""

    def parse(text: str):
        try:
            name, spec = text.split("=", 1)
            start, stop, steps = spec.split(":")
            start, stop = _finite_float(start), _finite_float(stop)
            steps = _positive_int(steps)
        except (ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(
                f"expected a sweep as 'name=start:stop:steps', got {text!r}"
            ) from None
        name = name.strip()
        if name not in names:
            raise argparse.ArgumentTypeError(
                f"unknown sweep name {name!r} (choose from {', '.join(names)})"
            )
        # each step is at least one table row
        most = f"use at most {MAX_TABLE_BYTES // 2**12} steps"
        try:
            _refuse_above(2**12 * steps, MAX_TABLE_BYTES, f"{steps} sweep steps", most)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return name, np.linspace(start, stop, steps)

    return parse


def _sweep_kwargs(args) -> dict:
    """Swept values as table-builder keyword arguments (gain -> gains);
    a name swept twice is rejected, not overwritten."""
    kwargs = {}
    for name, values in args.sweep:
        if f"{name}s" in kwargs:
            raise ConfigError(f"--sweep {name} given more than once")
        kwargs[f"{name}s"] = values
    return kwargs


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _amplify(args):
    if args.gain is not None:
        eta = eta_from_gain(args.gain)
    else:
        eta = 1.0 / 3.0 if args.eta is None else args.eta
    params = {
        "alpha": args.alpha,
        "fock": args.fock,
        "arms": args.arms,
        "eta": eta,
        "gamma": args.gamma,
        "asymptotic": args.asymptotic,
        "cutoff": args.cutoff,
    }
    return params, amplify_table(**params)


def _fig3(args):
    params = {
        "arms": args.arms,
        "etas": args.eta or [1.0 / 3.0, 1.0 / 7.0],
        "cutoff": args.cutoff,
    }
    return params, fig3_table(**params, **_sweep_kwargs(args))


def _fig4(args):
    params = {
        "arms": args.arms,
        "loss": args.loss,
        "squeeze_r": args.squeeze_r,
        "cutoff": args.cutoff,
    }
    return params, fig4_table(**params, **_sweep_kwargs(args))


def _distill(args):
    params = {
        "chi": args.chi if args.chi is not None else math.tanh(args.squeeze_r),
        "loss": args.loss,
        "arms": None if args.asymptotic else args.arms or 2,
        "eta": 0.05 if args.eta is None and args.gain is None else args.eta,
        "gain": args.gain,
        "asymptotic": args.asymptotic,
        "target_r": args.target_r,
        "cutoff": args.cutoff,
    }
    return params, distill_table(**params)


def _clone(args):
    params = {
        "alpha": args.alpha,
        "arms": None if args.asymptotic else args.arms or 5,
        "eta": args.eta,
        "asymptotic": args.asymptotic,
        "cutoff": args.cutoff,
    }
    return params, clone_table(**params)


def _verify(args):
    params = {"arms": args.arms, "seed": args.seed}
    return params, verify_table(**params)


def _build_parser() -> tuple[_Parser, dict]:
    """The CLI's parser, and the parser of each subcommand by name."""
    parser = _Parser(prog="nlasim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, run, help, sweeps=(), cutoff=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if cutoff:
            p.add_argument("--cutoff", type=_positive_int, default=None)
        if sweeps:
            p.add_argument(
                "--sweep",
                type=_sweep_type(sweeps),
                action="append",
                default=[],
                metavar="NAME=A:B:N",
                help=f"sweep one of: {', '.join(sweeps)}",
            )
        return p

    p = command("amplify", _amplify, "amplify one coherent or number state")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--alpha", type=_parse_complex, metavar="RE,IM")
    source.add_argument("--fock", type=int, help="number-state input")
    p.add_argument("--arms", type=_positive_int, default=2)
    strength = p.add_mutually_exclusive_group()
    strength.add_argument("--eta", type=_finite_float, help="default 1/3")
    strength.add_argument("--gain", type=_finite_float)
    p.add_argument("--asymptotic", action="store_true")
    p.add_argument(
        "--gamma",
        type=_finite_float,
        default=0.0,
        help="single-photon source inefficiency; switches to the misfire model",
    )

    p = command(
        "fig3", _fig3, "fidelity versus targeted gain table", ("gain", "alpha")
    )
    p.add_argument("--arms", type=_positive_int, default=5)
    p.add_argument("--eta", type=_finite_float, action="append", default=None)

    p = command(
        "fig4", _fig4, "purity versus success probability table", ("gain",)
    )
    p.add_argument("--arms", type=_positive_int, default=2)
    p.add_argument("--loss", type=_finite_float, default=0.5)
    p.add_argument("--squeeze-r", type=_finite_float, default=0.4, dest="squeeze_r")

    p = command("distill", _distill, "one distillation run")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--chi", type=_finite_float)
    source.add_argument("--squeeze-r", type=_finite_float, dest="squeeze_r")
    p.add_argument("--loss", type=_finite_float, default=1.0)
    # an ideal run has no arm count; --arms has no parser default because
    # argparse lets a flag given at its default value pass an exclusion
    runs = p.add_mutually_exclusive_group()
    runs.add_argument("--arms", type=_positive_int, help="default 2")
    runs.add_argument("--asymptotic", action="store_true")
    strength = p.add_mutually_exclusive_group()
    strength.add_argument("--eta", type=_finite_float, help="default 0.05")
    strength.add_argument("--gain", type=_finite_float)
    p.add_argument("--target-r", type=_finite_float, default=None, dest="target_r")

    p = command("clone", _clone, "duplicate a coherent state")
    p.add_argument("--alpha", type=_parse_complex, required=True, metavar="RE,IM")
    runs = p.add_mutually_exclusive_group()
    runs.add_argument("--arms", type=_positive_int, help="default 5")
    runs.add_argument("--asymptotic", action="store_true")
    p.add_argument("--eta", type=_finite_float, default=1.0 / 3.0)

    p = command("verify", _verify, "run the self-check suites", cutoff=False)
    p.add_argument(
        "--arms", type=_positive_int, default=None, help="extra arm count to try"
    )
    p.add_argument("--seed", type=int, default=0)

    return parser, sub.choices


# argparse keeps no parse state on the parser: each call's values live in
# its own Namespace, and the append actions copy their defaults first
_PARSER, _SUBCOMMANDS = _build_parser()


def _parse_args(argv) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``. An argv that starts with a subcommand
    goes straight to that subcommand's parser, as the top-level pass would
    hand it on, without the pass; ``--version``, ``-h`` and a missing or
    unknown subcommand take the top-level parser."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        namespace = argparse.Namespace(subcommand=argv[0])
        return _SUBCOMMANDS[argv[0]].parse_args(argv[1:], namespace)
    return _PARSER.parse_args(argv)


def _header_config(args, params: dict) -> dict:
    cfg = {"subcommand": args.subcommand, "format": args.format}
    cfg.update((k, _jsonable(v)) for k, v in params.items())
    for name, values in getattr(args, "sweep", ()):
        cfg[f"sweep_{name}"] = [float(v) for v in values]
    return cfg


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_table(config: dict, result: TableResult, stream):
    meta = {
        "tool": "nlasim",
        "version": __version__,
        "config": config,
        "provenance": list(result.provenance),
    }
    columns = result.columns
    if config["format"] == "json":
        payload = dict(meta)
        payload["columns"] = list(columns)
        payload["rows"] = [
            {k: _jsonable(row[k]) for k in columns} for row in result.rows
        ]
        stream.write(json.dumps(payload, indent=2, sort_keys=True))
        stream.write("\n")
        return
    stream.write(f"# tool: nlasim {__version__}\n")
    stream.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
    for line in result.provenance:
        stream.write(f"# provenance: {line}\n")
    stream.write(",".join(columns) + "\n")
    for row in result.rows:
        stream.write(",".join(_fmt_cell(row[c]) for c in columns) + "\n")


def _silence_stdout():
    """Point stdout's descriptor at the null device, so the interpreter's
    exit-time flush of output that could not be written raises nothing."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # an in-memory or closed stream
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        params, result = args.run(args)
        config = _header_config(args, params)
        handle = (
            open(args.out, "w", encoding="utf-8", newline="") if args.out else None
        )
    except NonconvergentError as exc:
        print(f"nlasim: nonconvergent regime: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # ConfigError and TruncationError are ValueErrors too; an OSError
        # is an --out path that cannot be opened
        print(f"nlasim: configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        if handle is None:
            _write_table(config, result, sys.stdout)
            sys.stdout.flush()
        else:
            with handle:
                _write_table(config, result, handle)
    except OSError as exc:
        if handle is None:
            _silence_stdout()
        # a reader that closed its end of the pipe wants no more output
        if not isinstance(exc, BrokenPipeError):
            print(f"nlasim: output error: {exc}", file=sys.stderr)
        return 1
    # a table with a failed check (verify's status column) is an
    # invariant failure
    return 2 if any(row.get("status") == "fail" for row in result.rows) else 0
