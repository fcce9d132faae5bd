"""Circuit oracle: hand-computed single-arm cases, pattern bookkeeping,
the per-pattern reference routes (a Fock-space walk and a permanent per
pattern), and equivalence with the closed-form diagonal operator."""

import itertools
import math

import numpy as np
import pytest

import nlasim
from nlasim import (
    MultiModeState,
    fidelity,
    nla_apply,
    nla_operator,
    norm_sq,
    number_state,
    physical_circuit,
    tensor,
    vacuum,
)
from nlasim.nla import ORACLE_ARM_LIMIT, _circuit_matrix, _heralded_outputs
from nlasim.optics import _mix_rows
from nlasim.verification import (
    ORACLE_FIDELITY_TOL,
    ORACLE_PROB_TOL,
    oracle_equivalence_report,
    random_support_state,
)
from conftest import beamsplitter, even_splitter, pad_state, project_number


def flip_odd(state: MultiModeState, mode: int) -> MultiModeState:
    """Exact pi phase on one mode: negate the |1> amplitude."""
    amps = state.amplitudes.copy()
    idx = [slice(None)] * state.n_modes
    idx[mode] = 1
    amps[tuple(idx)] *= -1.0
    return MultiModeState(state.mode_cutoffs, amps)


def split_input(inp: MultiModeState, arm_count: int) -> MultiModeState:
    """Trim the input to its support, append N-1 vacuum arms and apply the
    forward N-splitter: the part of the circuit every click pattern shares."""
    nz = np.nonzero(np.abs(inp.amplitudes) > 0.0)[0]
    c_arm = int(nz[-1]) + 1 if nz.size else 1
    state = MultiModeState((c_arm,), inp.amplitudes[:c_arm])
    for _ in range(arm_count - 1):
        state = tensor(state, number_state(0, c_arm))
    return even_splitter(state)


def reference_pattern(
    state: MultiModeState, cutoff: int, eta: float, signs
) -> tuple[np.ndarray, float]:
    """Run the circuit after the forward splitter for one detector pattern
    in Fock space, from its first arm to the vacuum projections.

    ``state`` is ``split_input`` of the input. ``signs[i] = +1`` heralds
    on (1, 0) at arm i's detector pair and -1 on (0, 1), the latter
    followed by the pi feed-forward. Returns the unnormalized output
    amplitudes (padded to ``cutoff``) and the pattern probability.
    """
    n = state.n_modes
    support = state.mode_cutoffs[0] - 1
    for arm in range(n):
        # ancilla photon split over (kept, mixed) with transmissivity eta
        state = tensor(state, number_state(0, 2))   # kept output mode o
        state = tensor(state, number_state(1, 2))   # mixing mode m
        o_idx, m_idx = n, n + 1
        state = beamsplitter(state, eta, (o_idx, m_idx))
        # 50:50 mix of the arm with m, then count both ports
        room = list(state.mode_cutoffs)
        room[arm] = support + 2
        room[m_idx] = support + 2
        state = pad_state(state, room)
        state = beamsplitter(state, 0.5, (arm, m_idx))
        clicks = (1, 0) if signs[arm] == +1 else (0, 1)
        state = project_number(state, m_idx, clicks[1])
        state = project_number(state, arm, clicks[0])
        # the kept mode slots in where the arm was
        amps = np.moveaxis(state.amplitudes, n - 1, arm)
        cutoffs = list(state.mode_cutoffs)
        cutoffs.insert(arm, cutoffs.pop(n - 1))
        state = MultiModeState(tuple(cutoffs), amps)
        if signs[arm] == -1:
            state = flip_odd(state, arm)

    # kept modes hold at most min(n, support) photons in total
    room = max(2, min(n, support) + 1)
    state = pad_state(state, [room] * n)
    state = even_splitter(state, inverse=True)
    for mode in range(n - 1, 0, -1):
        state = project_number(state, mode, 0)
    kept = state.amplitudes.reshape(-1)[:cutoff]
    out = np.zeros(cutoff, dtype=np.complex128)
    out[: kept.size] = kept
    return out, float(np.vdot(out, out).real)


def reference_circuit(inp: MultiModeState, arm_count: int, eta: float) -> np.ndarray:
    """``physical_circuit``'s amplitudes, one Fock-space pattern at a time."""
    split = split_input(inp, arm_count)
    total = 0.0
    reference = None
    for signs in itertools.product((+1, -1), repeat=arm_count):
        out, prob = reference_pattern(split, inp.mode_cutoffs[0], eta, signs)
        total += prob
        if all(s == +1 for s in signs):
            reference = (out, prob)
    ref_out, ref_prob = reference
    scale = math.sqrt(total / ref_prob) if ref_prob > 0.0 else 0.0
    return ref_out * scale


def reference_coefficients(arm_count: int, eta: float, signs, top: int) -> np.ndarray:
    """c_n = perm(A_n) / n! for n = 0..top, for one pattern at a time.

    Builds the pattern's own mode matrix (the circuit, the pi feed-forward
    on the kept rows of -1 arms, the inverse splitter on the kept modes)
    and sums Ryser's formula over the multiplicities of the columns
    [arm 0]*n plus the ancillas, rows [o_0]*n plus the clicked modes, with
    the alternating binomial weights over the copies of arm 0.
    """
    n_arms = arm_count
    u = _circuit_matrix(n_arms, eta)
    for arm, sign in enumerate(signs):
        if sign == -1:
            u[n_arms + arm] *= -1.0
    for k in range(n_arms - 1, 0, -1):
        _mix_rows(u, 1.0 / (n_arms - k + 1), n_arms + k - 1, n_arms + k)
    clicked = [arm if sign == +1 else 2 * n_arms + arm for arm, sign in enumerate(signs)]
    rows = u[[n_arms] + clicked]
    subsets = (np.arange(2**n_arms)[:, None] >> np.arange(n_arms)) & 1
    partial = subsets @ rows[:, 2 * n_arms :].T
    parity = 1 - 2 * (subsets.sum(axis=1) % 2)
    coeffs = np.empty(top + 1)
    for n in range(top + 1):
        copies = np.arange(n + 1)
        sums = partial + copies[:, None, None] * rows[:, 0]
        terms = sums[..., 0] ** n * np.prod(sums[..., 1:], axis=-1)
        weights = np.array([(-1) ** k * math.comb(n, k) for k in copies])
        perm = (-1) ** (n + n_arms) * np.sum(np.outer(weights, parity) * terms)
        coeffs[n] = perm / math.factorial(n)
    return coeffs


def pattern_outputs(state: MultiModeState, arm_count: int, eta: float) -> dict:
    """The library's {signs: (output, probability)} for every pattern."""
    outputs = _heralded_outputs(state, arm_count, eta)
    return {signs: (out, float(np.vdot(out, out).real)) for signs, out in outputs.items()}


class TestSingleArm:
    def test_vacuum_probability_splits_evenly(self):
        eta = 0.3
        out = physical_circuit(vacuum(1), 1, eta)
        assert norm_sq(out) == pytest.approx(eta, rel=1e-12)
        outputs = pattern_outputs(vacuum(1), 1, eta)
        for signs in [(+1,), (-1,)]:
            _, prob = outputs[signs]
            assert prob == pytest.approx(eta / 2.0, rel=1e-12)

    def test_plus_state_hand_computation(self):
        eta = 0.3
        amps = np.array([1.0, 1.0]) / math.sqrt(2.0)
        state = MultiModeState((2,), amps)
        out = physical_circuit(state, 1, eta)
        assert norm_sq(out) == pytest.approx(0.5, rel=1e-12)
        want = np.array([math.sqrt(eta), math.sqrt(1.0 - eta)])
        want = MultiModeState((2,), want / np.linalg.norm(want))
        assert fidelity(out, want) > 1 - 1e-12

    def test_matches_analytic_kraus_per_pattern(self, rng):
        # single stage output = analytic Kraus / sqrt(2) for either pattern:
        # |0> -> sqrt(eta/2) |0>, |1> -> sign * sqrt((1-eta)/2) |1>, |n>=2> -> 0
        eta = 0.4
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = MultiModeState((4,), amps / np.linalg.norm(amps))
        outputs = pattern_outputs(state, 1, eta)
        for sign in (+1, -1):
            raw, prob = outputs[(sign,)]
            kraus = np.array(
                [math.sqrt(eta / 2.0), sign * math.sqrt((1.0 - eta) / 2.0)]
            )
            corrected = kraus * state.amplitudes[:2]
            if sign == -1:
                corrected[1] *= -1.0  # pi feed-forward
            assert np.max(np.abs(raw[:2] - corrected)) < 1e-12
            assert prob == pytest.approx(float(np.vdot(raw, raw).real), rel=1e-12)


class TestPatternBookkeeping:
    @pytest.mark.parametrize("arms", [2, 3, 5])
    def test_all_patterns_contribute_equally(self, rng, arms):
        state = random_support_state(rng, 4, 3)
        outputs = pattern_outputs(state, arms, 0.3)
        assert len(outputs) == 2**arms
        probs = [prob for _, prob in outputs.values()]
        states = [out for out, _ in outputs.values()]
        assert max(probs) - min(probs) < 1e-14
        for other in states[1:]:
            assert np.max(np.abs(other - states[0])) < 1e-12

    @pytest.mark.parametrize("arms", [1, 2, 3, 4])
    @pytest.mark.parametrize("support", [1, 2, 3, 4])
    def test_walk_matches_per_pattern_reference(self, rng, arms, support):
        # the permanents agree with the Fock-space walk of the reference,
        # pattern by pattern and summed
        for _ in range(3):
            cutoff = support + 1 + int(rng.integers(0, 2))
            eta = float(rng.uniform(0.05, 0.95))
            state = random_support_state(rng, cutoff, support)
            split = split_input(state, arms)
            outputs = pattern_outputs(state, arms, eta)
            assert list(outputs) == list(itertools.product((+1, -1), repeat=arms))
            for signs, (out, prob) in outputs.items():
                ref_out, ref_prob = reference_pattern(split, cutoff, eta, signs)
                assert np.max(np.abs(out - ref_out)) <= 1e-13
                assert abs(prob - ref_prob) <= 1e-13
            amps = physical_circuit(state, arms, eta).amplitudes
            assert np.max(np.abs(amps - reference_circuit(state, arms, eta))) <= 1e-13

    @pytest.mark.parametrize("arms", range(1, ORACLE_ARM_LIMIT + 1))
    @pytest.mark.parametrize("support", [1, 2, 3, 4])
    def test_batched_pass_matches_per_pattern_permanents(self, rng, arms, support):
        # one pass over all patterns against one permanent per pattern
        for _ in range(3):
            cutoff = support + 1 + int(rng.integers(0, 2))
            eta = float(rng.uniform(0.05, 0.95))
            state = random_support_state(rng, cutoff, support)
            top = min(support, arms)
            outputs = _heralded_outputs(state, arms, eta)
            assert list(outputs) == list(itertools.product((+1, -1), repeat=arms))
            for signs, out in outputs.items():
                ref = np.zeros(cutoff, dtype=np.complex128)
                coeffs = reference_coefficients(arms, eta, signs, top)
                ref[: top + 1] = state.amplitudes[: top + 1] * coeffs
                assert np.max(np.abs(out - ref)) <= 1e-13

    @pytest.mark.parametrize("arms", range(1, ORACLE_ARM_LIMIT + 1))
    def test_no_work_per_pattern(self, monkeypatch, arms):
        # 3N - 1 row mixes build the circuit and N - 1 the inverse splitter's
        # first row, whatever the number of click patterns
        calls = []

        def counting(*args):
            calls.append(args)
            return _mix_rows(*args)

        monkeypatch.setattr(nlasim.nla, "_mix_rows", counting)
        physical_circuit(number_state(1, arms + 1), arms, 0.3)
        assert len(calls) <= 4 * arms - 2

    @pytest.mark.parametrize("arms", range(1, ORACLE_ARM_LIMIT + 1))
    def test_runs_without_fock_beamsplitters(self, monkeypatch, rng, arms):
        # the oracle shares only the sign convention with nlasim.optics; its
        # one Fock-space element, the loss, must not run
        def refuse(*args, **kwargs):
            raise AssertionError("the circuit oracle applied a Fock-space element")

        monkeypatch.setattr(nlasim.optics, "loss_channel", refuse)
        monkeypatch.setattr(nlasim.nla, "loss_channel", refuse, raising=False)
        state = random_support_state(rng, arms + 1, arms)
        circuit_out = physical_circuit(state, arms, 0.3)
        fast_out = nla_apply(state, arms, 0.3)
        assert fidelity(circuit_out, fast_out) > 1.0 - 1e-10
        assert norm_sq(circuit_out) == pytest.approx(norm_sq(fast_out), rel=1e-9)

    def test_herald_counts_all_patterns(self):
        # one pattern alone would herald 0.3**3 / 8
        out = physical_circuit(vacuum(1), 3, 0.3)
        assert norm_sq(out) == pytest.approx(0.3**3, rel=1e-12)

    def test_oracle_limit_enforced(self):
        with pytest.raises(ValueError):
            physical_circuit(vacuum(1), 6, 0.3)

    def test_multimode_input_rejected(self):
        with pytest.raises(ValueError):
            physical_circuit(tensor(vacuum(2), vacuum(2)), 1, 0.3)


class TestEquivalence:
    def test_input_beyond_arm_count_goes_dark(self):
        out = physical_circuit(number_state(3, 4), 2, 0.3)
        assert norm_sq(out) == 0.0

    def test_output_amplitude_vanishes_above_arm_count(self, rng):
        state = random_support_state(rng, 4, 3)
        out = physical_circuit(state, 2, 0.25)
        assert abs(out.amplitudes[3]) < 1e-14

    def test_three_arm_coherent_matches_closed_form(self):
        from nlasim import coherent_state

        state = coherent_state(0.3, 10)
        circuit_out = physical_circuit(state, 3, 1.0 / 3.0)
        fast_out = nla_apply(state, 3, 1.0 / 3.0)
        assert fidelity(circuit_out, fast_out) > 1.0 - 1e-10
        assert norm_sq(circuit_out) == pytest.approx(norm_sq(fast_out), rel=1e-9)

    def test_report_over_small_sweep(self):
        report = oracle_equivalence_report(
            arm_counts=(1, 2), etas=(1.0 / 3.0,), n_inputs=5, seed=11
        )
        assert report["passed"]
        assert report["max_infidelity"] <= 1e-10
        assert report["max_prob_rel_err"] <= 1e-9
        # the benchmark reads and records these two keys
        assert (report["fidelity_tol"], report["prob_tol"]) == (
            ORACLE_FIDELITY_TOL,
            ORACLE_PROB_TOL,
        )

    def test_five_arms_at_the_default_limit(self, rng):
        state = random_support_state(rng, 6, 5)
        circuit_out = physical_circuit(state, 5, 0.25)
        fast_out = nla_apply(state, 5, 0.25)
        assert fidelity(circuit_out, fast_out) > 1.0 - 1e-10
        assert norm_sq(circuit_out) == pytest.approx(norm_sq(fast_out), rel=1e-9)

    @pytest.mark.parametrize("eta", [0.05, 1.0 / 3.0, 0.9])
    @pytest.mark.parametrize("arms", range(1, ORACLE_ARM_LIMIT + 2))
    def test_number_states_hold_the_float64_margin(self, arms, eta):
        # each coefficient of the closed form to 1e-12 relative: a raise of
        # the oracle limit has to show this margin again, as N = 6 does here
        coeffs = nla_operator(arms, eta, arms + 1)
        limit = max(arms, ORACLE_ARM_LIMIT)
        for n in range(arms + 1):
            out = physical_circuit(
                number_state(n, arms + 1), arms, eta, oracle_limit=limit
            )
            assert math.sqrt(norm_sq(out)) == pytest.approx(coeffs[n], rel=1e-12)

    def test_skip_beyond_limit(self):
        report = oracle_equivalence_report(
            arm_counts=(1, 6), etas=(0.5,), n_inputs=2, seed=1
        )
        assert report["skipped"] and report["skipped"][0]["arms"] == 6
        assert report["passed"]
