"""Brute-force circuit oracle: hand-computed single-arm cases, pattern
bookkeeping, the per-pattern reference route, and equivalence with the
closed-form diagonal operator."""

import itertools
import math

import numpy as np
import pytest

import nlasim
from nlasim import (
    MultiModeState,
    fidelity,
    nla_apply,
    norm_sq,
    number_state,
    physical_circuit,
    tensor,
    vacuum,
)
from nlasim.fock import pad_state, project_number
from nlasim.nla import _flip_odd, _pattern_outputs, _split_input
from nlasim.optics import BeamsplitterSpec, apply_beamsplitter, apply_nsplitter
from nlasim.verification import oracle_equivalence_report, random_support_state


def reference_pattern(
    state: MultiModeState, cutoff: int, eta: float, signs
) -> tuple[np.ndarray, float]:
    """Run the circuit after the forward splitter for one detector pattern,
    from its first arm to the vacuum projections, sharing nothing with the
    other patterns.

    ``state`` is ``_split_input`` of the input. ``signs[i] = +1`` heralds
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
        state = apply_beamsplitter(state, BeamsplitterSpec(eta, (o_idx, m_idx)))
        # 50:50 mix of the arm with m, then count both ports
        room = list(state.mode_cutoffs)
        room[arm] = support + 2
        room[m_idx] = support + 2
        state = pad_state(state, room)
        state = apply_beamsplitter(state, BeamsplitterSpec(0.5, (arm, m_idx)))
        clicks = (1, 0) if signs[arm] == +1 else (0, 1)
        state = project_number(state, m_idx, clicks[1])
        state = project_number(state, arm, clicks[0])
        # the kept mode slots in where the arm was
        amps = np.moveaxis(state.amplitudes, n - 1, arm)
        cutoffs = list(state.mode_cutoffs)
        cutoffs.insert(arm, cutoffs.pop(n - 1))
        state = MultiModeState(tuple(cutoffs), amps)
        if signs[arm] == -1:
            state = _flip_odd(state, arm)

    # kept modes hold at most min(n, support) photons in total
    room = max(2, min(n, support) + 1)
    state = pad_state(state, [room] * n)
    state = apply_nsplitter(state, inverse=True)
    for mode in range(n - 1, 0, -1):
        state = project_number(state, mode, 0)
    kept = state.amplitudes.reshape(-1)[:cutoff]
    out = np.zeros(cutoff, dtype=np.complex128)
    out[: kept.size] = kept
    return out, float(np.vdot(out, out).real)


def reference_circuit(inp: MultiModeState, arm_count: int, eta: float) -> np.ndarray:
    """``physical_circuit``'s amplitudes, one pattern at a time."""
    split = _split_input(inp, arm_count)
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


def pattern_outputs(state: MultiModeState, arm_count: int, cutoff: int, eta: float):
    return _pattern_outputs(_split_input(state, arm_count), cutoff, eta)


class TestSingleArm:
    def test_vacuum_probability_splits_evenly(self):
        eta = 0.3
        out = physical_circuit(vacuum(1), 1, eta)
        assert norm_sq(out) == pytest.approx(eta, rel=1e-12)
        outputs = pattern_outputs(vacuum(1), 1, 1, eta)
        for signs in [(+1,), (-1,)]:
            _, prob = outputs[signs]
            assert prob == pytest.approx(eta / 2.0, rel=1e-12)

    def test_plus_state_hand_computation(self):
        eta = 0.3
        amps = np.array([1.0, 1.0]) / math.sqrt(2.0)
        state = MultiModeState((2,), amps, normalized=True)
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
        state = MultiModeState((4,), amps / np.linalg.norm(amps), normalized=True)
        outputs = pattern_outputs(state, 1, 4, eta)
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
        outputs = pattern_outputs(state, arms, 4, 0.3)
        assert len(outputs) == 2**arms
        probs = [prob for _, prob in outputs.values()]
        states = [out for out, _ in outputs.values()]
        assert max(probs) - min(probs) < 1e-14
        for other in states[1:]:
            assert np.max(np.abs(other - states[0])) < 1e-12

    @pytest.mark.parametrize("arms", [1, 2, 3, 4])
    @pytest.mark.parametrize("support", [1, 2, 3, 4])
    def test_walk_matches_per_pattern_reference(self, rng, arms, support):
        # the walk shares prefix work but runs the same operations on the
        # same arrays, so every pattern and the sum agree bit for bit
        for _ in range(3):
            cutoff = support + 1 + int(rng.integers(0, 2))
            eta = float(rng.uniform(0.05, 0.95))
            state = random_support_state(rng, cutoff, support)
            split = _split_input(state, arms)
            outputs = _pattern_outputs(split, cutoff, eta)
            assert list(outputs) == list(itertools.product((+1, -1), repeat=arms))
            for signs, (out, prob) in outputs.items():
                ref_out, ref_prob = reference_pattern(split, cutoff, eta, signs)
                assert np.array_equal(out, ref_out)
                assert prob == ref_prob
            amps = physical_circuit(state, arms, eta).amplitudes
            assert np.array_equal(amps, reference_circuit(state, arms, eta))

    @pytest.mark.parametrize(
        "arms, calls", [(1, 2), (2, 11), (3, 32), (4, 81), (5, 194)]
    )
    def test_beamsplitter_count(self, monkeypatch, rng, arms, calls):
        # (N-1) to split, two per arm per sign prefix, (N-1) per pattern
        # to recombine; the per-pattern reference applies (N-1) + (3N-1) 2**N
        count = 0
        real = nlasim.optics.apply_beamsplitter

        def counted(*args, **kwargs):
            nonlocal count
            count += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(nlasim.optics, "apply_beamsplitter", counted)
        monkeypatch.setattr(nlasim.nla, "apply_beamsplitter", counted)
        physical_circuit(random_support_state(rng, 4, 3), arms, 0.3)
        assert count == calls
        assert calls == (arms - 1) + 2 * (2**arms - 1) + (arms - 1) * 2**arms

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

    def test_five_arms_at_the_default_limit(self, rng):
        state = random_support_state(rng, 6, 5)
        circuit_out = physical_circuit(state, 5, 0.25)
        fast_out = nla_apply(state, 5, 0.25)
        assert fidelity(circuit_out, fast_out) > 1.0 - 1e-10
        assert norm_sq(circuit_out) == pytest.approx(norm_sq(fast_out), rel=1e-9)

    def test_skip_beyond_limit(self):
        report = oracle_equivalence_report(
            arm_counts=(1, 6), etas=(0.5,), n_inputs=2, seed=1
        )
        assert report["skipped"] and report["skipped"][0]["arms"] == 6
        assert report["passed"]
