"""How the public API refuses arguments: a count is an integer (never a
bool) of at least its minimum, a real lies in its interval and is never
NaN, and every refusal is a ValueError or TypeError of one line that
names the argument, raised before any cutoff is sized."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlasim
from nlasim import (
    DensityOperator,
    MultiModeState,
    clone_coherent,
    clone_fidelities,
    coherent_state,
    distill_numeric,
    distill_params,
    epr_state,
    eta_from_gain,
    gain_from_eta,
    loss_channel,
    minimal_coherent_cutoff,
    minimal_epr_cutoff,
    misfire_terms,
    nla_apply,
    nla_apply_asymptotic,
    nla_operator,
    number_state,
    physical_circuit,
    postselected_prior_variance,
)
from nlasim.applications import _distill_gain

# each call, the error it raises and its one line; every one of them ran,
# rounded or ended in a message from Python or numpy before the validators
PROBES = [
    ("coherent_state(1, 3.5)", TypeError, "cutoff must be an integer, got float"),
    ("coherent_state(0.3, True)", TypeError, "cutoff must be an integer, got bool"),
    # the running Poisson sum counted towards an infinite cutoff forever
    ("coherent_state(0.3, math.inf)", TypeError, "cutoff must be an integer, got float"),
    ("MultiModeState((2.7,), [1, 0])", TypeError, "mode_cutoffs must be an integer, got float"),
    ("epr_state(0.3, 2.5)", TypeError, "cutoff must be an integer, got float"),
    ("number_state(2.5, 5)", TypeError, "n must be an integer, got float"),
    ("nla_operator(True, 0.3, 4)", TypeError, "arm_count must be an integer, got bool"),
    ("nla_operator(2.5, 0.3, 4)", TypeError, "arm_count must be an integer, got float"),
    # named before the point is sized: it alone would need cutoff 263
    ("distill_numeric(0.3, 0.5, 0, 0.05)", ValueError, "arm_count must be >= 1"),
    ("distill_numeric(0.3, 0.5, 2.5, 0.05, 10)", TypeError, "arm_count must be an integer, got float"),
    ("distill_numeric(0.3, 0.5, True, 0.05, 10)", TypeError, "arm_count must be an integer, got bool"),
    ("distill_numeric(0.3, 0.5, 2, 0.05, 10.5)", TypeError, "cutoff must be an integer, got float"),
    ("postselected_prior_variance(math.nan, 1.2)", ValueError, "prior_variance must lie in [0, inf)"),
    ("minimal_epr_cutoff(1.0)", ValueError, "chi must lie in [0, 1)"),
    ("gain_from_eta(5e-324)", ValueError, "eta 4.94066e-324 gives no finite gain"),
]


@pytest.mark.parametrize("call, error, message", PROBES, ids=[p[0] for p in PROBES])
def test_probe_is_refused_with_one_line_naming_the_argument(call, error, message):
    with pytest.raises(error) as info:
        eval(call, {"math": math, **vars(nlasim)})
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# fuzz over the public API

# counts as ints, bools, floats and negatives; reals with NaN, the
# infinities, the ends of every interval and numbers too small or too
# large for a finite square. Most draws lie inside the argument's domain,
# so that a call with several arguments often runs.
_COUNT = st.one_of(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(-2, 6),
    st.booleans(),
    st.sampled_from([2.0, 2.5, -1.5, math.nan, math.inf, np.int64(3)]),
)
_OPTIONAL_COUNT = st.one_of(st.none(), _COUNT)
_SPECIAL = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 2.0, 5e-324, 1e-160, 1e200]
)


def _reals(low: float, high: float):
    inside = st.floats(low, high, exclude_min=True, exclude_max=True)
    return st.one_of(inside, inside, inside, _SPECIAL, st.floats(-1.5, 3.0))


_REAL = _reals(-1.5, 1.5)
_UNIT = _reals(0.0, 1.0)
_POSITIVE = _reals(0.0, 3.0)
_STATE = coherent_state(0.4)
_PAIR = clone_coherent(0.5, 2)[0]


def _check_distill(args, out):
    chi, epsilon, arm_count, (eta, gain), _ = args
    _, used = _distill_gain(arm_count, eta, gain)
    # the fidelity has no target once chi' reaches 1, and only then
    physical = distill_params(chi, epsilon, used).physical
    assert math.isnan(out[1]) != physical
    return out[0], out[2]


# name: (call, a valid argument tuple, a strategy per argument, the part of
# the output that must be finite). Each example redraws some of the valid
# arguments, so a call runs deep enough to reach every check. ``epr_state``
# always gets an explicit cutoff: its automatic one has no cap, and a chi
# near 1 would size a state of cutoff**2 amplitudes.
CALLS = {
    "coherent_state": (coherent_state, (0.5, 6), (_REAL, _OPTIONAL_COUNT), None),
    "epr_state": (epr_state, (0.3, 6), (_UNIT, _COUNT), None),
    "number_state": (number_state, (2, 5), (_COUNT, _COUNT), None),
    "minimal_coherent_cutoff": (minimal_coherent_cutoff, (0.5,), (_REAL,), None),
    "minimal_epr_cutoff": (minimal_epr_cutoff, (0.3,), (_UNIT,), None),
    "MultiModeState": (
        lambda c: MultiModeState((c,), np.eye(1, 3)[0]), (3,), (_COUNT,), None
    ),
    "DensityOperator": (
        lambda c: DensityOperator((c,), np.eye(3, 1)), (3,), (_COUNT,), None
    ),
    "loss_channel": (lambda eps: loss_channel(_STATE, eps), (0.5,), (_UNIT,), None),
    "gain_from_eta": (gain_from_eta, (0.3,), (_UNIT,), None),
    "eta_from_gain": (eta_from_gain, (1.5,), (_POSITIVE,), None),
    "nla_operator": (nla_operator, (3, 0.3, 6), (_COUNT, _UNIT, _COUNT), None),
    "nla_apply": (
        lambda n, eta: nla_apply(_STATE, n, eta), (3, 0.3), (_COUNT, _UNIT), None
    ),
    "nla_apply_asymptotic": (
        lambda g: nla_apply_asymptotic(_STATE, g), (1.5,), (_POSITIVE,), None
    ),
    "physical_circuit": (
        lambda n, eta, limit: physical_circuit(_STATE, n, eta, oracle_limit=limit),
        (2, 0.3, 5),
        (_COUNT, _UNIT, _COUNT),
        None,
    ),
    "misfire_terms": (
        misfire_terms,
        (0.3, 3, 0.3, 0.05, None),
        (_REAL, _COUNT, _UNIT, _UNIT, _OPTIONAL_COUNT),
        None,
    ),
    "clone_coherent": (
        clone_coherent,
        (0.5, 3, 1.0 / 3.0, None),
        (_REAL, _OPTIONAL_COUNT, _UNIT, _OPTIONAL_COUNT),
        None,
    ),
    "clone_fidelities": (lambda a: clone_fidelities(_PAIR, a), (0.5,), (_REAL,), None),
    "distill_numeric": (
        lambda chi, eps, n, strength, c: distill_numeric(
            chi, eps, n, strength[0], c, gain=strength[1]
        ),
        (0.3, 0.5, 2, (0.05, None), 12),
        (
            _UNIT,
            _UNIT,
            _OPTIONAL_COUNT,
            # (eta, gain): mostly exactly one of them
            st.one_of(
                st.tuples(_UNIT, st.none()),
                st.tuples(st.none(), _POSITIVE),
                st.tuples(st.one_of(st.none(), _UNIT), st.one_of(st.none(), _POSITIVE)),
            ),
            st.one_of(st.none(), st.integers(-1, 12), st.sampled_from([4.0, True])),
        ),
        _check_distill,
    ),
    "distill_params": (distill_params, (0.3, 0.5, 1.5), (_UNIT, _UNIT, _POSITIVE), None),
    "postselected_prior_variance": (
        postselected_prior_variance, (0.3, 1.2), (_POSITIVE, _POSITIVE), None
    ),
}


def _finite(value) -> bool:
    """Whether every number in an output is finite; None and bools pass."""
    if value is None or isinstance(value, bool):
        return True
    if isinstance(value, MultiModeState):
        return _finite(value.amplitudes)
    if isinstance(value, DensityOperator):
        return _finite(value.factor)
    if isinstance(value, np.ndarray):
        return bool(np.all(np.isfinite(value)))
    if dataclasses.is_dataclass(value):
        return _finite(dataclasses.astuple(value))
    if isinstance(value, tuple):
        return all(_finite(v) for v in value)
    return math.isfinite(value)


def test_fuzz_covers_every_public_call_that_takes_a_number():
    # errors and result records take no argument to refuse, and fidelity
    # and norm_sq take only states
    skipped = {"__version__", "EffectiveEprParams", "PurityReport", "fidelity", "norm_sq"}
    public = {
        name
        for name in nlasim.__all__
        if name not in skipped and not name.endswith(("Error", "Warning"))
    }
    assert public == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_argument_is_honoured_or_refused_in_one_line(name, data):
    call, valid, strategies, finite_part = CALLS[name]
    args = tuple(
        data.draw(strategy, label=f"argument {i}") if data.draw(st.booleans()) else arg
        for i, (arg, strategy) in enumerate(zip(valid, strategies))
    )
    with warnings.catch_warnings():
        # truncation and misfire-model warnings are documented outputs
        warnings.simplefilter("ignore", UserWarning)
        try:
            out = call(*args)
        except (ValueError, TypeError) as exc:
            message = str(exc)
            assert message and len(message.splitlines()) == 1, (args, message)
            return
    assert _finite(out if finite_part is None else finite_part(args, out)), args
