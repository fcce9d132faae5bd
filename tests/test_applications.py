import math
import tracemalloc
import warnings

import numpy as np
import pytest

import nlasim.applications
import nlasim.nla
from nlasim import (
    MultiModeState,
    NonconvergentError,
    TruncationWarning,
    clone_coherent,
    clone_fidelities,
    distill_numeric,
    distill_params,
    epr_state,
    eta_from_gain,
    fidelity,
    gain_from_eta,
    loss_channel,
    nla_apply,
    nla_apply_asymptotic,
    nla_operator,
    norm_sq,
    postselected_prior_variance,
    tensor,
    vacuum,
)
from nlasim.experiments import distill_table, fig4_table
from conftest import (
    dense,
    dense_purity_product,
    lossy_epr,
    mixed_fidelity,
    partial_trace,
    purity_product,
    sample_postselected_variance,
)


class TestCloner:
    def test_vacuum_clones_to_double_vacuum(self):
        pair, _ = clone_coherent(0.0)
        assert fidelity(pair, tensor(vacuum(1), vacuum(1))) == pytest.approx(1.0)

    def test_ideal_clones_are_exact(self):
        pair, prob = clone_coherent(0.5)
        f1, f2 = clone_fidelities(pair, 0.5)
        assert f1 == pytest.approx(1.0, abs=1e-10)
        assert f2 == pytest.approx(1.0, abs=1e-10)
        assert prob is None

    def test_finite_run_reports_reduced_fidelity(self):
        pair, prob = clone_coherent(0.5, 5, 1.0 / 3.0)
        f1, f2 = clone_fidelities(pair, 0.5)
        assert 0.9 < f1 < 1.0
        assert prob == pytest.approx(
            sum(abs(pair.amplitudes.reshape(-1)) ** 2), rel=1e-12
        )

    def test_clone_symmetry(self):
        pair, _ = clone_coherent(0.4, 4, 1.0 / 3.0)
        rho_a = partial_trace(pair, [1])
        rho_b = partial_trace(pair, [0])
        assert np.max(np.abs(dense(rho_a) - dense(rho_b))) < 1e-12
        # the 50:50 split is mirror-exact, so the two clones score the same
        # to the last bit
        for alpha in (0.0, 0.1, 0.4, 0.7 + 0.3j, 1.0, 1.5):
            for arms in (1, 2, 3, 5, 7, None):
                pair, _ = clone_coherent(alpha, arms, 1.0 / 3.0)
                f1, f2 = clone_fidelities(pair, alpha)
                assert f1 == f2, (alpha, arms)


class TestPriorVariance:
    def test_gain_sqrt2_map(self):
        assert postselected_prior_variance(0.5, math.sqrt(2.0)) == pytest.approx(1.0)

    def test_unit_gain_is_identity(self):
        assert postselected_prior_variance(0.37, 1.0) == pytest.approx(0.37)

    def test_divergence_boundary(self):
        with pytest.raises(NonconvergentError):
            postselected_prior_variance(1.0, math.sqrt(2.0))
        # (g**2 - 1) * d = 1 exactly
        with pytest.raises(NonconvergentError):
            postselected_prior_variance(1.0 / 3.0, 2.0)
        postselected_prior_variance(0.33, 2.0)

    def test_monte_carlo_oracle_small(self):
        report = sample_postselected_variance(
            0.3, math.sqrt(2.0), n_samples=200_000, seed=5
        )
        z = abs(report["estimate"] - report["expected"]) / report["stderr"]
        assert z < 3.0


class TestDistillParams:
    def test_unit_gain_identity(self):
        params = distill_params(0.3, 0.4, 1.0)
        assert params.chi_prime == pytest.approx(0.3)
        assert params.eps_prime == pytest.approx(0.4)

    def test_worked_example(self):
        params = distill_params(0.2, 0.5, 2.0)
        assert params.chi_prime == pytest.approx(0.2 * math.sqrt(2.5), rel=1e-12)
        assert params.eps_prime == pytest.approx(0.8, rel=1e-12)
        assert params.physical

    def test_lossless_limit_recovers_pure_gain_map(self):
        # below unit gain, 1 + (g**2 - 1) * 1 used to round away from g**2:
        # eps' just above 1, which the run then refused, or a boost of 0
        for gain in (2.0, 1.0, 0.9, 0.5, 1e-9, *map(gain_from_eta, (0.67, 0.7, 0.97))):
            params = distill_params(0.2, 1.0, gain)
            assert params.chi_prime == pytest.approx(0.2 * gain, rel=1e-14)
            assert params.eps_prime == 1.0

    def test_unphysical_flagged_not_raised(self):
        params = distill_params(0.6, 1.0, 2.0)
        assert not params.physical
        # an out-of-range transmission is an input error: raised, and raised
        # before the sweep's boost formula can take a square root of it
        for bad_eps in (-0.5, 1.5):
            with pytest.raises(ValueError, match="transmission"):
                distill_params(0.2, bad_eps, 2.0)
            with pytest.raises(ValueError, match="transmission"):
                fig4_table(gains=[3.0], loss=bad_eps)

    @pytest.mark.parametrize("gain", [1e160, 1e200, math.inf, 1e-200])
    def test_gain_without_finite_square_rejected(self, gain):
        # a ValueError wherever the gain enters, not the OverflowError of
        # gain**2 (or, for inf, a silent eta of 0; for a square that
        # underflows to 0, a division by zero or an eta of 1)
        for call in (
            lambda: eta_from_gain(gain),
            lambda: distill_params(0.1, 0.5, gain),
            lambda: postselected_prior_variance(0.3, gain),
            lambda: distill_numeric(0.1, 0.5, gain=gain),
            lambda: fig4_table(gains=[gain], cutoff=4),
        ):
            with pytest.raises(ValueError, match="finite square"):
                call()

    def test_monotone_improvement(self):
        # both effective parameters increase whenever g > 1 on a lossy line
        for chi in np.linspace(0.05, 0.6, 5):
            for eps in np.linspace(0.1, 0.9, 5):
                for gain in (1.2, 1.8, 2.5):
                    params = distill_params(float(chi), float(eps), gain)
                    assert params.chi_prime > chi
                    assert params.eps_prime > eps


class TestDistillNumeric:
    def test_asymptotic_matches_effective_parameter_map(self):
        rho, fid, _ = distill_numeric(0.25, 0.5, gain=1.4)
        assert fid >= 1.0 - 1e-10
        assert rho.trace == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_input_passes_with_vacuum_probability(self):
        arms, eta = 2, 0.3
        rho, fid, _ = distill_numeric(0.0, 0.7, arms, eta)
        assert rho.trace == pytest.approx(eta**arms, rel=1e-12)
        assert fid == pytest.approx(1.0, abs=1e-12)

    def test_finite_run_probability_matches_direct_sum(self):
        # independent route: P = sum_n p(n_B) coeff(n_B)**2 over the lossy marginal
        chi, eps, arms, eta = 0.3, 0.6, 2, 0.2
        cutoff = 24
        rho, _, _ = distill_numeric(chi, eps, arms, eta, cutoff)
        marginal = partial_trace(loss_channel(epr_state(chi, cutoff), eps), [1, 2])
        weights = np.diag(dense(marginal)).real
        coeffs = nla_operator(arms, eta, cutoff)
        want = float(np.sum(weights * coeffs**2))
        assert rho.trace == pytest.approx(want, rel=1e-10)

    def test_eta_and_gain_are_exclusive(self):
        # with both, a run could amplify at one strength and report the
        # other, so both (and neither) are rejected
        for arms in (None, 2):
            with pytest.raises(ValueError, match="exactly one of eta / gain"):
                distill_numeric(0.1, 0.5, arms, 0.05, gain=2.0)
            with pytest.raises(ValueError, match="exactly one of eta / gain"):
                distill_numeric(0.1, 0.5, arms)
        with pytest.raises(ValueError, match="exactly one of eta / gain"):
            distill_table(chi=0.1, loss=0.5, asymptotic=True, eta=0.05, gain=2.0)

    def test_table_reports_the_gain_it_amplified_with(self):
        # at finite arm count eta sets the amplifier, so a given gain is
        # read back through eta; the printed gain and effective parameters
        # are the ones the fidelity target was built at
        chi, loss, arms, gain = 0.569, 1.0, 4, 0.364
        used = gain_from_eta(eta_from_gain(gain))
        assert used != gain  # this gain's last bit moves in the round trip
        row = distill_table(chi=chi, loss=loss, arms=arms, eta=None, gain=gain).rows[0]
        params = distill_params(chi, loss, used)
        assert row["gain"] == used
        assert row["chi_prime"] == params.chi_prime
        assert row["eps_prime"] == params.eps_prime

    def test_unphysical_asymptotic_raises(self):
        with pytest.raises(NonconvergentError):
            distill_numeric(0.6, 1.0, gain=2.0)

    def test_auto_cutoff_cap(self):
        from nlasim import TruncationError

        with pytest.raises(TruncationError):
            distill_numeric(0.95, 1.0, 2, 0.3)
        # an explicit cutoff overrides the cap, at the price of a warned tail
        from nlasim import TruncationWarning

        with pytest.warns(TruncationWarning):
            rho, _, _ = distill_numeric(0.9, 1.0, 1, 0.55, cutoff=30)
        assert rho.trace > 0.0

    @pytest.mark.parametrize("arms", [None, 2])
    def test_oversized_explicit_cutoff_refused_before_allocating(self, arms):
        # 16 * 162**3 bytes is just past the limit; 1000 would be 15 GiB
        for cutoff in (162, 1000):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="loss purification"):
                    distill_numeric(0.3, 0.5, arms, gain=1.5, cutoff=cutoff)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    def test_distillation_builds_no_purification(self):
        # the returned factor takes 16 * c**3 bytes; the dense composition
        # peaked at eight times that
        cutoff = 100
        tracemalloc.start()
        try:
            with pytest.warns(TruncationWarning):
                rho, _, _ = distill_numeric(0.3, 0.5, 2, 0.05, cutoff)
            purity_product(rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 16 * cutoff**3


class TestDistillPoint:
    # distill_numeric is _sector_density over the point's columns, with the
    # point's fidelity and report; the distill table reads the point alone

    @staticmethod
    def bits(x):
        return np.float64(x).tobytes()

    def assert_same(self, out, point):
        rho, fid, report = out
        want = nlasim.applications._sector_density(point.sectors)
        assert rho.basis_cutoffs == want.basis_cutoffs
        assert rho.factor.tobytes() == want.factor.tobytes()
        assert self.bits(fid) == self.bits(point.fidelity)
        assert report == point.purity
        for a, b in zip(vars(report).values(), vars(point.purity).values()):
            assert self.bits(a) == self.bits(b)

    @pytest.mark.filterwarnings("ignore::nlasim.TruncationWarning")
    @pytest.mark.parametrize("arms", [1, 2, 3, 4, 5, None])
    def test_numeric_route_is_the_point_bitwise(self, arms):
        point_of = nlasim.applications._distill_point
        for cutoff in range(1, 41):
            # the second point has chi' = 1.2: no target, a nan fidelity
            for chi, eps, eta in ((0.3, 0.5, 0.1), (0.6, 1.0, 0.2)):
                if arms is None and eta == 0.2:
                    continue
                point = point_of(chi, eps, arms, eta, cutoff)
                self.assert_same(distill_numeric(chi, eps, arms, eta, cutoff), point)
                assert not point.sectors.flags.writeable
                assert point.cutoff == cutoff
                assert (point.eta, point.gain) == (eta, gain_from_eta(eta))
                assert point.params == distill_params(chi, eps, point.gain)
        assert math.isnan(point.fidelity) == (arms is not None)

    def test_point_records_the_gain_it_ran_at(self):
        point = nlasim.applications._distill_point(0.3, 0.5, 2, gain=1.5)
        assert point.eta == eta_from_gain(1.5)
        assert point.gain == gain_from_eta(point.eta)
        assert point.sectors.shape == (point.cutoff, 3)
        ideal = nlasim.applications._distill_point(0.3, 0.5, gain=1.5)
        assert (ideal.eta, ideal.gain) == (None, 1.5)
        assert ideal.sectors.shape == (ideal.cutoff, ideal.cutoff)

    @pytest.mark.parametrize(
        "args, error",
        [
            ((0.6, 1.0, None, None, 40), NonconvergentError),  # chi' = 1.2
            ((0.3, 0.0, 3, 1e-120, None), ValueError),  # P below the normal range
            ((0.3, 0.5, 2, None, 162), ValueError),  # the c**3 refusal
        ],
    )
    def test_refusals_match(self, args, error):
        chi, eps, arms, eta, cutoff = args
        gain = 2.0 if eta is None else None
        raised = []
        for run in (distill_numeric, nlasim.applications._distill_point):
            with pytest.raises(error) as caught:
                run(chi, eps, arms, eta, cutoff, gain=gain)
            raised.append(str(caught.value))
        assert raised[0] == raised[1]


# ---------------------------------------------------------------------------
# the dense composition that distill_numeric replaced, kept as its
# structurally different reference: the c**3 loss purification, the
# amplifier applied to it, the trace over the loss mode, the SVD fidelity
# against the lossy target built the same way, and kron-built quadratures


def dense_distill(chi, epsilon, arm_count, eta, cutoff):
    gain = gain_from_eta(eta)
    purified = loss_channel(epr_state(chi, cutoff), epsilon)
    if arm_count is None:
        amplified = nla_apply_asymptotic(purified, gain)
    else:
        amplified = nla_apply(purified, arm_count, eta)
    rho = partial_trace(amplified, [2])
    params = distill_params(chi, epsilon, gain)
    if not params.physical:
        return rho, math.nan
    target = loss_channel(epr_state(params.chi_prime, cutoff), params.eps_prime)
    return rho, mixed_fidelity(rho, partial_trace(target, [2]))


def _with_truncation_warnings(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run()
    return out, [str(w.message) for w in caught if w.category is TruncationWarning]


class TestSectorRoute:
    @pytest.mark.parametrize("cutoff", [17, 24, 32, 40])
    @pytest.mark.parametrize("arms", [1, 2, 3, None])
    def test_matches_dense_composition(self, arms, cutoff):
        # gain 3: chi' = 0.67 wants cutoff 35, so the lower cutoffs warn
        chi, eps, eta = 0.3, 0.5, 0.1
        (rho, fid, report), warned = _with_truncation_warnings(
            lambda: distill_numeric(chi, eps, arms, eta, cutoff)
        )
        (dense, dense_fid), dense_warned = _with_truncation_warnings(
            lambda: dense_distill(chi, eps, arms, eta, cutoff)
        )
        assert warned == dense_warned
        if arms is not None:
            assert np.array_equal(rho.factor, dense.factor)
        assert rho.trace == pytest.approx(dense.trace, rel=1e-13)
        assert fid == pytest.approx(dense_fid, rel=1e-13)
        v_minus, v_plus = dense_purity_product(dense)
        assert report.v_minus == pytest.approx(v_minus, rel=1e-13)
        assert report.v_plus == pytest.approx(v_plus, rel=1e-13)

    def test_calls_no_dense_stage(self, monkeypatch):
        # no three-mode purification, no (c, c) two-mode squeezed state and
        # no amplified state is built: the loss kernel builds the state's
        # and the target's sector amplitudes on one binomial table, only
        # their N + 1 live columns at finite arm count, and all c columns
        # for the ideal map, which scales them in place
        def refuse(*args, **kwargs):
            raise AssertionError("a dense stage ran")

        lose = nlasim.applications._lose
        shapes = []

        def recorded(*args, **kwargs):
            out = lose(*args, **kwargs)
            shapes.append(out.shape)
            return out

        for name in ("loss_channel", "nla_apply", "nla_apply_asymptotic", "fidelity"):
            monkeypatch.setattr(nlasim.applications, name, refuse)
        for module in (nlasim.applications, nlasim.fock):
            monkeypatch.setattr(module, "epr_state", refuse, raising=False)
        monkeypatch.setattr(nlasim.applications, "_lose", recorded)
        for arms in (1, 2, 3, 5, None):
            rho, _, _ = distill_numeric(0.3, 0.5, arms, 0.1, 24)
            assert rho.factor.shape == (24**2, 24)
            purity_product(rho)
        purity_product(lossy_epr(0.3, 0.5, 24))
        assert shapes == [(2, 24, 2), (2, 24, 3), (2, 24, 4), (2, 24, 6), (2, 24, 24)]
        # N + 1 columns up to the cutoff; an unphysical chi' builds no target
        shapes.clear()
        with pytest.warns(TruncationWarning):
            distill_numeric(0.3, 0.5, 5, 0.1, 4)
        distill_numeric(0.6, 1.0, 2, 0.2, 40)
        assert shapes == [(2, 4, 4), (1, 40, 3)]

    @pytest.mark.filterwarnings("ignore::nlasim.TruncationWarning")
    @pytest.mark.parametrize("cutoff", [1, 2, 17, 40])
    def test_ideal_map_in_place_matches_the_state_map_bitwise(self, cutoff):
        # the one ideal-map kernel gives the same bits on real and complex
        # amplitudes: a real divisor makes complex division multiply by its
        # reciprocal
        rng = np.random.default_rng(cutoff)
        for _ in range(25):
            chi, eps = rng.uniform(0.0, 0.5), rng.uniform(0.0, 1.0)
            gain = rng.uniform(0.5, 0.85) / (chi * math.sqrt(eps) or 1.0)
            _, lossy = nlasim.applications._lossy_sectors((chi,), (eps,), cutoff)
            sectors = lossy[0]
            # G as an (arm A, loss) state through the public route, against
            # the kernel on a real C-ordered copy, along axis 0
            pair = MultiModeState(sectors.T.shape, sectors.T)
            want = np.ascontiguousarray(sectors.T)
            nlasim.nla._ideal_map(want, gain, 0)
            assert np.array_equal(nla_apply_asymptotic(pair, gain).amplitudes.real, want)
            # G's real columns in place against a complex copy, along axis 1
            as_complex = sectors.astype(np.complex128)
            nlasim.nla._ideal_map(as_complex, gain, 1)
            nlasim.nla._ideal_map(sectors, gain, 1)
            assert np.array_equal(sectors, as_complex.real)

    def test_nonconvergent_case_matches_dense_composition(self):
        # gain 2 on a lossless line: chi' = 1.2
        for run in (distill_numeric, dense_distill):
            with pytest.raises(NonconvergentError):
                run(0.6, 1.0, None, 0.2, 40)


class TestSectorPurity:
    # the report distill_numeric reads off the sector amplitudes G, against
    # purity_product on the returned factor and, at small cutoffs, against
    # the kron-built quadratures, which take 16 c**4 bytes an operator

    @staticmethod
    def assert_close(report, want):
        scale = report.v_minus + report.v_plus
        assert abs(report.v_minus - want[0]) <= 1e-12 * scale
        assert abs(report.v_plus - want[1]) <= 1e-12 * scale
        assert report.product == report.v_minus * report.v_plus

    @pytest.mark.filterwarnings("ignore::nlasim.TruncationWarning")
    @pytest.mark.parametrize("cutoff", [1, 2, 3, 17, 24, 40, 160])
    @pytest.mark.parametrize("arms", [1, 2, 3, 4, 5, None])
    def test_matches_factor_routes(self, arms, cutoff):
        for chi, eps, eta in ((0.3, 0.5, 0.1), (0.5, 0.8, 0.3)):
            rho, _, report = distill_numeric(chi, eps, arms, eta, cutoff)
            assert report.success_prob == pytest.approx(rho.trace, rel=1e-14)
            factor_route = purity_product(rho)
            self.assert_close(report, (factor_route.v_minus, factor_route.v_plus))
            if cutoff <= 24:
                self.assert_close(report, dense_purity_product(rho))

    @pytest.mark.filterwarnings("ignore::nlasim.TruncationWarning")
    @pytest.mark.parametrize("arms, cutoff", [(None, 2), (None, 3), (2, 3), (5, 3)])
    def test_top_levels_of_both_modes(self, arms, cutoff):
        # each mode's edge term c p(c-1) enters: mode A's top level is
        # reached only at k = 0, mode B's on the antidiagonal a + k = c - 1
        rho, _, report = distill_numeric(0.5, 0.8, arms, 0.3, cutoff)
        probs = np.diag(dense(rho)).real.reshape(cutoff, cutoff) / rho.trace
        assert probs[-1].sum() > 1e-3 and probs[:, -1].sum() > 1e-3
        self.assert_close(report, dense_purity_product(rho))


class TestPurityProduct:
    def test_two_mode_vacuum(self):
        report = purity_product(tensor(vacuum(3), vacuum(3)))
        assert report.v_minus == pytest.approx(1.0, abs=1e-12)
        assert report.v_plus == pytest.approx(1.0, abs=1e-12)
        assert report.product == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r", [0.1, 0.4])
    def test_pure_squeezing_values(self, r):
        from nlasim import minimal_epr_cutoff

        chi = math.tanh(r)
        # headroom over the minimal cutoff: the quadrature operators act on
        # the top of the basis too
        report = purity_product(epr_state(chi, minimal_epr_cutoff(chi) + 4))
        assert report.v_minus == pytest.approx(math.exp(-2 * r), abs=1e-9)
        assert report.v_plus == pytest.approx(math.exp(+2 * r), abs=1e-9)
        assert report.product == pytest.approx(1.0, abs=1e-9)

    def test_lossy_states_obey_uncertainty_bound(self):
        for eps in (0.3, 0.6, 0.9, 1.0):
            report = purity_product(lossy_epr(math.tanh(0.4), eps, 16))
            assert report.product >= 1.0 - 1e-9
            if eps == 1.0:
                assert report.product == pytest.approx(1.0, abs=1e-9)
            else:
                assert report.product > 1.0 + 1e-6

    def test_mode_count_checked(self):
        with pytest.raises(ValueError):
            purity_product(vacuum(3))

    def test_success_probability_carried_from_trace(self):
        chi = math.tanh(0.1)
        rho, _, _ = distill_numeric(chi, 1.0, 2, 0.05)
        report = purity_product(rho)
        # lossless line: the amplified two-mode state carries the same norm
        direct = nla_apply(epr_state(chi, rho.basis_cutoffs[0]), 2, 0.05)
        assert report.success_prob == pytest.approx(norm_sq(direct), rel=1e-12)


class TestHeadlinePipelineInternals:
    def test_lossless_three_mode_route_equals_two_mode_route(self):
        # with eps = 1 the loss mode stays empty: direct algebra check
        chi, arms, eta = math.tanh(0.1), 2, 0.05
        cutoff = 18
        rho, _, _ = distill_numeric(chi, 1.0, arms, eta, cutoff)
        direct = nla_apply(epr_state(chi, cutoff), arms, eta)
        assert rho.trace == pytest.approx(norm_sq(direct), rel=1e-12)
        assert fidelity(rho, direct) == pytest.approx(1.0, abs=1e-10)
