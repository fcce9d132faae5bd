"""The cutoff every table builder picks when it sizes its own run.

The expected cutoffs were recorded from the builders before their sizing
rules moved into one section of ``nlasim.fock``; each case lists the
cutoffs of the states the run builds, read from the states themselves, and
of the two-mode squeezed Schmidt vectors a distillation point starts from.
"""

import numpy as np
import pytest

import nlasim.applications
import nlasim.experiments
from nlasim import TruncationError
from nlasim.experiments import (
    amplify_table,
    clone_table,
    distill_table,
    fig3_table,
    fig4_table,
)

CONSTRUCTORS = ("coherent_state", "epr_state", "number_state", "_epr_schmidt")

AUTOMATIC = {
    "amplify_alpha_small": (amplify_table, dict(alpha=0.1, arms=2), {6}),
    "amplify_alpha_complex": (amplify_table, dict(alpha=0.5 + 0.2j, arms=5), {13}),
    "amplify_alpha_high_gain": (
        amplify_table,
        dict(alpha=1.0, arms=3, eta=0.05),
        {58},
    ),
    "amplify_alpha_attenuating": (
        amplify_table,
        dict(alpha=2.0, arms=1, eta=0.6),
        {26},
    ),
    "amplify_fock": (amplify_table, dict(fock=3, arms=4), {5}),
    "amplify_fock_arms": (amplify_table, dict(fock=0, arms=6), {7}),
    "misfire": (amplify_table, dict(alpha=0.3, arms=5, gamma=0.01), {9}),
    "misfire_high_gain": (
        amplify_table,
        dict(alpha=1.0, arms=2, eta=0.05, gamma=0.05),
        {58},
    ),
    "fig3": (fig3_table, dict(gains=(1.0, 2.0, 3.5)), {14, 23, 33, 45}),
    # 13 is where the gain-2.337845 target's tail sits just below 1e-12
    "fig3_arms": (
        fig3_table,
        dict(
            arms=7,
            etas=(0.332825,),
            alphas=(0.360887, 0.760887),
            gains=(1.337845, 2.337845),
        ),
        {13, 23},
    ),
    # the clone's fidelity target is sized by coherent_state itself
    "clone": (clone_table, dict(alpha=0.5, arms=5), {10, 12}),
    "clone_complex_ideal": (
        clone_table,
        dict(alpha=0.5 + 0.2j, asymptotic=True),
        {10, 13},
    ),
    "clone_high_gain": (clone_table, dict(alpha=1.0, arms=3, eta=0.2), {15, 26}),
    "distill": (distill_table, dict(chi=0.1, loss=1.0, arms=2, eta=0.05), {17}),
    "distill_ideal": (
        distill_table,
        dict(chi=0.3, loss=0.5, asymptotic=True, eta=None, gain=1.5),
        {15},
    ),
    "distill_arms": (
        distill_table,
        dict(chi=0.2, loss=0.5, arms=3, eta=None, gain=1.3),
        {10},
    ),
    "distill_arms_dominate": (
        distill_table,
        dict(chi=0.001, loss=1.0, arms=5, eta=None, gain=1.5),
        {6},
    ),
    "fig3_arms_dominate": (
        fig3_table,
        dict(arms=30, etas=(0.2,), alphas=(0.1,), gains=(1.0,)),
        {31},
    ),
    "fig4": (fig4_table, dict(gains=(1.0, 2.0, 3.0)), {15}),
    # a target_r state within the run's cutoff, and one above it
    "target_r_within": (
        distill_table,
        dict(chi=0.1, arms=2, eta=0.05, target_r=0.4),
        {15, 17},
    ),
    "target_r_above": (
        distill_table,
        dict(chi=0.1, arms=2, eta=0.05, target_r=0.8),
        {17, 34},
    ),
    # above the cap of 40, but within the run's explicit cutoff
    "target_r_within_explicit": (
        distill_table,
        dict(chi=0.1, arms=2, eta=0.05, cutoff=80, target_r=1.2),
        {76, 80},
    ),
}


def built_cutoffs(monkeypatch, run, kwargs) -> set:
    """Cutoffs of the states that ``run(**kwargs)`` builds."""
    seen = set()

    def recorded(build):
        def wrapper(*args, **kw):
            out = build(*args, **kw)
            # a Schmidt vector holds one coefficient per level
            seen.add(len(out) if isinstance(out, np.ndarray) else out.mode_cutoffs[0])
            return out

        return wrapper

    for module in (nlasim.experiments, nlasim.applications):
        for name in CONSTRUCTORS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recorded(getattr(module, name)))
    run(**kwargs)
    return seen


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(AUTOMATIC))
def test_automatic_cutoff_is_the_recorded_one(name, monkeypatch):
    run, kwargs, want = AUTOMATIC[name]
    assert built_cutoffs(monkeypatch, run, kwargs) == want


def test_target_r_above_the_cap_and_the_run_refused():
    with pytest.raises(TruncationError, match="needs cutoff 76 "):
        distill_table(chi=0.1, arms=2, eta=0.05, cutoff=60, target_r=1.2)


@pytest.mark.parametrize(
    "run, kwargs",
    [
        (amplify_table, dict(alpha=0.1)),
        (amplify_table, dict(alpha=0.3, gamma=0.01)),
        (clone_table, dict(alpha=0.5)),
        # fig3 once read a cutoff of 0 as "pick one"
        (fig3_table, dict(alphas=(0.5,), gains=(1.0,))),
    ],
)
def test_explicit_cutoff_below_1_refused(run, kwargs):
    with pytest.raises(ValueError, match="cutoff must be >= 1"):
        run(cutoff=0, **kwargs)
