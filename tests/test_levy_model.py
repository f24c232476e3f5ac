"""Model layer: mark distributions, exponent, sampling, rng streams."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st

from levyrefract import levy_model
from levyrefract.levy_model import (
    EventColumns,
    Exponential,
    HyperExponential,
    InvalidParameter,
    JumpDiffusionSpec,
    MarkDistribution,
    PointMass,
    QuadratureFailure,
    RngStream,
    Uniform,
    Weibull,
    _compensated_drift,
    _gammainc,
    _jump_draw,
    TILE_KNOTS,
    characteristic_exponent,
    grid_increments,
    is_case2,
    mean_drift,
    net_drift,
    sample_path,
    validate_spec,
)
from levyrefract.strategy_engine import BLOCK_KNOTS
from conftest import REFERENCE_GAMMA, draw_path, drift_only
from oracles import (
    EventPath, column_sorted_columns, columns_side_by_side, concatenated_grid_increments,
    event_paths,
)

# mass of Weibull(2,1) below 1, integral of x f(x) on [0,1), frozen from an
# independent quadrature
WEIBULL21_TRUNC_MEAN = 0.3789446916409847


class TestMarkDistributions:
    def test_uniform_truncated_mean_closed_form(self):
        # supported inside [0,1): plain mean
        assert Uniform(0.0, 1.0).truncated_mean() == pytest.approx(0.5, abs=1e-12)
        # straddles 1: integral of x/(b-a) on [a,1)
        d = Uniform(0.5, 1.5)
        assert d.truncated_mean() == pytest.approx((1 - 0.25) / 2.0, abs=1e-10)

    def test_weibull_truncated_mean_frozen(self):
        got = Weibull(2.0, 1.0).truncated_mean()
        assert got == pytest.approx(WEIBULL21_TRUNC_MEAN, abs=1e-12)

    def test_weibull_truncated_mean_vs_quadrature(self):
        d = Weibull(1.4, 0.8)
        ref, err = scipy.integrate.quad(
            lambda x: x * scipy.stats.weibull_min.pdf(x, 1.4, scale=0.8), 0, 1)
        assert err < 1e-7
        assert d.truncated_mean() == pytest.approx(ref, abs=1e-7)

    def test_weibull_truncated_mean_matches_scipy_bits(self):
        want = 1.0 * math.gamma(1.5) * float(scipy.special.gammainc(1.5, 1.0))
        assert Weibull(2.0, 1.0).truncated_mean() == want

    def test_reference_drift_bits(self, ref_spec_bv):
        weibull = 1.0 * math.gamma(1.5) * float(scipy.special.gammainc(1.5, 1.0))
        want = REFERENCE_GAMMA - (1.0 * Uniform(0.0, 1.0).truncated_mean() - weibull)
        assert net_drift(ref_spec_bv) == want == 0.6000000000000001

    @pytest.mark.parametrize("scale", [1e-10, 1e-320])
    def test_weibull_truncated_mean_past_an_overflowing_cutoff(self, scale):
        # (1/scale)^shape overflows a float (1/1e-320 is inf itself): every
        # mark lies below 1, and the truncated mean is the mean
        d = Weibull(40.0, scale)
        assert d.truncated_mean() == d.mean() == scale * math.gamma(1.025)

    def test_gamma_ratio_vs_scipy(self):
        a, z, got, want = [], [], [], []
        for k in np.geomspace(0.2, 10.0, 21):
            for lam in np.geomspace(0.05, 20.0, 21):
                a.append(1.0 + 1.0 / float(k))
                z.append((1.0 / float(lam)) ** float(k))
                got.append(_gammainc(a[-1], z[-1]))
                want.append(float(scipy.special.gammainc(a[-1], z[-1])))
        a, z, got, want = map(np.asarray, (a, z, got, want))
        # both branches, P near 0 (z << 1) and P rounding to 1 (z >> a)
        assert (z <= a + 1).any() and (z > a + 1).any()
        assert z.min() < 1e-12 and (want == 1.0).any()
        np.testing.assert_array_equal(got[want == 1.0], 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_truncated_means_are_python_floats(self):
        for d in (Uniform(0.0, 1.0), Uniform(1.5, 2.0), Exponential(1.7),
                  Weibull(2.0, 1.0), Weibull(0.5, 3.0),
                  HyperExponential((0.3, 0.7), (1.0, 3.0)), PointMass(0.4),
                  PointMass(2.0)):
            assert type(d.truncated_mean()) is float, d

    @pytest.mark.parametrize("shape", [0.7, 1.0, 1.4, 2.0, 3.5, 6.0])
    @pytest.mark.parametrize("scale", [0.3, 1.0, 2.5])
    def test_weibull_char_vs_quadrature(self, shape, scale):
        us = np.array([-4.0, -1.0, 0.5, 2.0])
        got = Weibull(shape, scale).char(us)

        def dens(x):
            return (shape / scale) * (x / scale) ** (shape - 1.0) \
                * np.exp(-((x / scale) ** shape))

        top = scale * 50.0 ** (1.0 / shape)  # survival e^-50
        for u, g in zip(us, got):
            re = scipy.integrate.quad(lambda x: dens(x) * np.cos(u * x), 0, top,
                                      epsabs=1e-14, epsrel=1e-12, limit=1000)[0]
            im = scipy.integrate.quad(lambda x: dens(x) * np.sin(u * x), 0, top,
                                      epsabs=1e-14, epsrel=1e-12, limit=1000)[0]
            assert abs(g - complex(re, im)) <= 1e-10, (u, g, re, im)

    def test_weibull_char_unresolved_raises(self):
        # u * scale = 1e4 under shape 2, where the rule runs on the real
        # axis: the finest level cannot resolve it
        with pytest.raises(QuadratureFailure):
            Weibull(2.0, 1.0).char(1e4)

    def test_weibull_char_above_shape_one_keeps_its_rule(self):
        """Shape 2, the shipped down-jump law, reads the values it read
        before heavy tails were rotated, bit for bit."""
        got = Weibull(2.0, 1.0).char(np.array([-1.0, 0.5]))
        want = [("0x1.26b0463b40aa7p-1", "-0x1.61612323d3974p-1"),
                ("0x1.c299e68c32861p-1", "0x1.aa41c8fb7fbe3p-2")]
        assert got.tolist() == [complex(*map(float.fromhex, z)) for z in want]

    @pytest.mark.parametrize("shape", [0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1.0])
    @pytest.mark.parametrize("scale", [0.3, 1.0, 2.5])
    def test_heavy_weibull_char_on_a_second_ray(self, shape, scale):
        """For shape k <= 1 the rule integrates over s on a rotated ray.
        By Cauchy, s on the ray e^(i k pi/8) r, where e^-s and e^(iuM) both
        decay, gives the same value: scipy integrates it there, from |u|
        scale of 3e-10 to 2,500."""
        us = np.array([-1000.0, -4.0, -1e-9, 1e-3, 0.5, 2.0, 20.0])
        got = Weibull(shape, scale).char(us)
        w = np.exp(1j * shape * math.pi / 8)
        for u, g in zip(us, got):
            v = 1j * abs(u) * scale * np.exp(1j * math.pi / 8)

            def part(f):
                return scipy.integrate.quad(
                    lambda r: f(w * np.exp(v * r ** (1.0 / shape) - w * r)), 0, np.inf,
                    epsabs=1e-14, epsrel=1e-12, limit=2000)[0]

            want = complex(part(np.real), part(np.imag))
            assert abs(g - (want if u > 0 else want.conjugate())) <= 1e-12, (u, g, want)

    @pytest.mark.parametrize("scale", [0.3, 1.0, 2.5])
    def test_shape_one_weibull_is_exponential(self, scale):
        us = np.array([-1000.0, -4.0, -1.0, -1e-9, 0.0, 1e-9, 0.5, 2.0, 100.0])
        np.testing.assert_allclose(Weibull(1.0, scale).char(us),
                                   Exponential(1.0 / scale).char(us), rtol=0, atol=1e-12)
        assert Weibull(1.0, scale).char(0.0) == 1.0

    def test_exponential_truncated_mean_vs_quadrature(self):
        d = Exponential(1.7)
        ref, _ = scipy.integrate.quad(
            lambda x: x * 1.7 * math.exp(-1.7 * x), 0, 1)
        assert d.truncated_mean() == pytest.approx(ref, abs=1e-10)

    def test_pointmass_truncated_mean(self):
        assert PointMass(0.4).truncated_mean() == 0.4
        assert PointMass(1.0).truncated_mean() == 0.0
        assert PointMass(2.5).truncated_mean() == 0.0

    def test_hyperexponential_mixture_linearity(self):
        d = HyperExponential((0.3, 0.7), (1.0, 3.0))
        parts = 0.3 * Exponential(1.0).truncated_mean() \
            + 0.7 * Exponential(3.0).truncated_mean()
        assert d.truncated_mean() == pytest.approx(parts, abs=1e-10)

    def test_mean_values(self):
        assert Uniform(0.0, 1.0).mean() == pytest.approx(0.5)
        assert Weibull(2.0, 1.0).mean() == pytest.approx(
            math.gamma(1.5), abs=1e-10)
        assert Exponential(2.0).mean() == pytest.approx(0.5)

    def test_sampling_matches_distribution(self):
        rng = np.random.Generator(np.random.Philox(7))
        x = Weibull(2.0, 1.0).sample(20000, rng)
        stat = scipy.stats.kstest(x, scipy.stats.weibull_min(2.0, scale=1.0).cdf)
        assert stat.pvalue > 0.01
        u = Uniform(0.25, 0.75).sample(20000, rng)
        assert u.min() >= 0.25 and u.max() <= 0.75
        stat = scipy.stats.kstest(u, scipy.stats.uniform(0.25, 0.5).cdf)
        assert stat.pvalue > 0.01

    def test_hyperexponential_sampling_mean(self):
        rng = np.random.Generator(np.random.Philox(8))
        d = HyperExponential((0.5, 0.5), (1.0, 4.0))
        x = d.sample(40000, rng)
        want = 0.5 * 1.0 + 0.5 * 0.25
        assert x.mean() == pytest.approx(want, abs=4 * x.std() / 200)

    def test_invalid_parameters_name_the_field(self):
        with pytest.raises(InvalidParameter):
            Uniform(1.0, 0.5)
        with pytest.raises(InvalidParameter):
            Exponential(-1.0)
        with pytest.raises(InvalidParameter):
            Weibull(0.0, 1.0)
        # legal parameters whose mean overflows a float
        for make in (lambda: Weibull(0.001, 1.0), lambda: Exponential(1e-320),
                     lambda: HyperExponential((0.5, 0.5), (1e-320, 1.0))):
            with pytest.raises(InvalidParameter):
                make()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("make,field", [
        (lambda v: Uniform(v, 2.0), "a"), (lambda v: Uniform(0.0, v), "b"),
        (lambda v: Exponential(v), "rho"),
        (lambda v: Weibull(v, 1.0), "shape"), (lambda v: Weibull(2.0, v), "scale"),
        (lambda v: HyperExponential((v,), (1.0,)), "weights"),
        (lambda v: HyperExponential((1.0,), (v,)), "rates"),
        (lambda v: PointMass(v), "c"),
    ])
    def test_non_finite_parameters_say_finite(self, make, field, bad):
        with pytest.raises(InvalidParameter, match="finite") as err:
            make(bad)
        assert err.value.field_name == field


class TestCharacteristicExponent:
    def test_zero_frequency_is_zero(self, ref_spec_bv):
        assert characteristic_exponent(ref_spec_bv, 0.0) == 0

    def test_pure_drift(self):
        spec = drift_only(1.3)
        lam = np.array([0.5, -2.0])
        got = characteristic_exponent(spec, lam)
        np.testing.assert_allclose(got, -1j * 1.3 * lam, atol=1e-14)

    def test_gaussian_part_quadratic(self):
        spec = JumpDiffusionSpec(gamma=0.0, sigma=1.5)
        got = characteristic_exponent(spec, 2.0)
        assert got == pytest.approx(0.5 * 2.25 * 4.0)

    def test_uniform_jump_component_vs_quadrature(self):
        spec = JumpDiffusionSpec(
            gamma=0.3, sigma=0.0, jump_components=((1.7, 1, Uniform(0.0, 1.0)),))
        lam = 1.3

        def integrand(x):
            # compensated integrand for marks below 1
            return (1 - math.cos(lam * x)) + 1j * (-math.sin(lam * x) + lam * x)

        ref, _ = scipy.integrate.quad(lambda x: integrand(x).real, 0, 1)
        imf, _ = scipy.integrate.quad(lambda x: integrand(x).imag, 0, 1)
        want = -1j * 0.3 * lam + 1.7 * (ref + 1j * imf)
        got = complex(characteristic_exponent(spec, lam))
        assert got == pytest.approx(want, abs=1e-9)

    def test_negative_jumps_flip_imaginary_sign(self):
        up = JumpDiffusionSpec(gamma=0.0, jump_components=((1.0, 1, PointMass(0.4)),))
        dn = JumpDiffusionSpec(gamma=0.0, jump_components=((1.0, -1, PointMass(0.4)),))
        a = complex(characteristic_exponent(up, 0.7))
        b = complex(characteristic_exponent(dn, 0.7))
        assert a.real == pytest.approx(b.real, abs=1e-14)
        assert a.imag == pytest.approx(-b.imag, abs=1e-14)


def random_marks(rng):
    kind = rng.integers(5)
    if kind == 0:
        lo = rng.uniform(0.0, 2.0)
        return Uniform(lo, lo + rng.uniform(0.1, 2.0))
    if kind == 1:
        return Exponential(rng.uniform(0.5, 4.0))
    if kind == 2:
        return Weibull(rng.uniform(0.7, 3.0), rng.uniform(0.3, 2.0))
    if kind == 3:
        return PointMass(rng.uniform(0.1, 2.5))
    return HyperExponential(tuple(rng.dirichlet([1.0, 1.0])),
                            tuple(np.sort(rng.uniform(0.5, 5.0, 2))))


class TestMeanDrift:
    @pytest.mark.parametrize("seed", range(8))
    def test_is_the_derivative_of_the_exponent_at_0(self, seed):
        """mu = E[X_1] = i Psi'(0), read off the characteristic exponent by
        a central difference on random models: the mean of the control
        variate is 0 only with this mu, which no estimate can show."""
        rng = np.random.default_rng(seed)
        for _ in range(5):
            comps = tuple((rng.uniform(0.1, 3.0), int(rng.choice([-1, 1])), random_marks(rng))
                          for _ in range(rng.integers(0, 4)))
            spec = JumpDiffusionSpec(gamma=rng.normal(0.0, 2.0), jump_components=comps,
                                     sigma=float(rng.choice([0.0, rng.uniform(0.1, 2.0)])))
            h = 1e-4
            want = (1j * (characteristic_exponent(spec, h)
                          - characteristic_exponent(spec, -h)) / (2 * h)).real
            assert mean_drift(spec) == pytest.approx(want, rel=1e-5, abs=1e-5)

    def test_without_jumps_is_gamma(self):
        assert mean_drift(JumpDiffusionSpec(gamma=-0.7, sigma=1.3)) == -0.7


class TestNetDriftAndCase:
    def test_reference_model_slope_between_jumps(self, ref_spec_bv):
        assert net_drift(ref_spec_bv) == pytest.approx(0.6, abs=1e-12)

    def test_gaussian_has_no_net_drift(self, ref_spec_gauss):
        assert net_drift(ref_spec_gauss) is None

    @pytest.mark.parametrize("delta,alpha,want", [
        (0.0, 0.5, True), (0.3, 0.5, True), (0.5, 0.5, True),
        (np.nextafter(0.0, -1.0), 0.5, False), (np.nextafter(0.5, 1.0), 0.5, False),
        (-1.0, 0.5, False), (0.0, math.inf, True), (1e308, math.inf, True),
        (np.nextafter(0.0, -1.0), math.inf, False), (None, 0.5, False),
        (None, math.inf, False)])
    def test_is_case2_table(self, delta, alpha, want):
        """Case 2 is a net drift in [0, alpha], both ends included, for a
        finite or an infinite cap; a model with sigma > 0 has no net drift
        (None) and is in Case 1."""
        assert is_case2(delta, alpha) == want

    def test_reference_models_by_case(self, ref_spec_bv, ref_spec_gauss):
        # net drift 0.6 exceeds the 0.5 cap: sticky regime needs delta <= alpha
        assert not is_case2(net_drift(ref_spec_bv), 0.5)
        assert is_case2(net_drift(ref_spec_bv), 0.7)
        assert not is_case2(net_drift(ref_spec_gauss), 0.5)

    def test_validate_spec_reports_negative_jump_mean(self, ref_spec_bv):
        rep = validate_spec(ref_spec_bv)
        assert rep.negative_jump_mean == pytest.approx(math.gamma(1.5), abs=1e-9)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_an_infinite_mark_mean_names_its_component(self, sign):
        """A mark law outside the built-in families whose mean is not
        finite is refused as an invalid parameter of its component, for
        either sign."""
        class HeavyTail(MarkDistribution):
            def mean(self):
                return math.inf

        spec = JumpDiffusionSpec(gamma=0.1, jump_components=(
            (1.0, 1, Uniform(0.0, 1.0)), (0.5, sign, HeavyTail())))
        with pytest.raises(InvalidParameter, match="finite") as err:
            validate_spec(spec)
        assert err.value.field_name == "jump_components[1]"


class TestEventPath:
    def path(self):
        return EventPath(x0=1.0, horizon=10.0, drift=0.5,
                         times=np.array([2.0, 5.0]), sizes=np.array([1.0, -2.5]))

    def test_values_and_left_limits(self):
        p = self.path()
        assert p.value_at(0.0) == 1.0
        assert p.value_at(2.0) == pytest.approx(1.0 + 1.0 + 1.0)
        assert p.value_at(10.0) == pytest.approx(1 + 10.0 * 0.5 + 1.0 - 2.5)

    def test_shift_moves_every_value(self):
        p = self.path()
        q = replace(p, x0=p.x0 + 0.7)
        ts = np.linspace(0, 10, 23)
        np.testing.assert_allclose(q.value_at(ts), p.value_at(ts) + 0.7)

    def test_grid_restriction_agrees_with_values(self):
        p = self.path()
        incs = p.to_grid(40)
        ts = np.arange(41) * p.horizon / 40
        knots = np.concatenate(([0.0], np.cumsum(incs)))
        np.testing.assert_allclose(p.x0 + knots, p.value_at(ts), atol=1e-12)

    def test_event_times_must_increase(self):
        with pytest.raises(InvalidParameter):
            EventPath(x0=0.0, horizon=1.0, drift=0.0,
                      times=np.array([0.5, 0.5]), sizes=np.array([1.0, 1.0]))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-2, 2), st.floats(-1.5, 1.5),
           st.lists(st.tuples(st.floats(0.01, 9.9), st.floats(-2, 2)),
                    max_size=6))
    def test_value_formula(self, x0, drift, jumps):
        jumps = sorted({t: s for t, s in jumps}.items())
        times = np.array([t for t, _ in jumps])
        sizes = np.array([s for _, s in jumps])
        p = EventPath(x0=x0, horizon=10.0, drift=drift, times=times, sizes=sizes)
        for t in (0.0, 0.3, 4.9, 10.0):
            want = x0 + drift * t + sizes[times <= t].sum()
            assert p.value_at(t) == pytest.approx(want, abs=1e-10)


class TestSampling:
    def test_exact_jump_counts_are_poisson(self, ref_spec_bv):
        n, horizon = 3000, 4.0
        counts = np.empty(n)
        for i in range(n):
            cols = sample_path(ref_spec_bv, horizon, 1, RngStream(11, tag=1, index=i))
            counts[i] = cols.counts[0]
        # both components at rate 1: total rate 2
        lam = 2 * horizon
        assert counts.mean() == pytest.approx(lam, abs=4 * math.sqrt(lam / n))
        assert counts.var() == pytest.approx(lam, rel=0.12)

    def test_exact_interarrivals_exponential(self, ref_spec_bv):
        gaps = []
        for i in range(400):
            p = draw_path(ref_spec_bv, 50.0, RngStream(12, tag=2, index=i))
            gaps.extend(np.diff(p.times))
        stat = scipy.stats.kstest(np.asarray(gaps), scipy.stats.expon(scale=0.5).cdf)
        assert stat.pvalue > 0.01

    def test_exact_mean_growth(self, ref_spec_bv):
        # slope between jumps 0.6, jump drift 0.5 - gamma(1.5): growth rate
        horizon = 20.0
        growth = 0.6 + (0.5 - math.gamma(1.5))
        n = 4000
        ends = np.array([
            draw_path(ref_spec_bv, horizon, RngStream(13, tag=3, index=i)).value_at(horizon)
            for i in range(n)])
        se = ends.std(ddof=1) / math.sqrt(n)
        assert ends.mean() == pytest.approx(growth * horizon, abs=4 * se)

    def test_grid_increments_match_moments(self, ref_spec_gauss):
        k, horizon, n = 64, 8.0, 1500
        dt = horizon / k
        incs = np.concatenate([
            grid_increments(ref_spec_gauss, horizon, k, 1, RngStream(14, tag=4, index=i))[0]
            for i in range(n)])
        growth = 0.6 + (0.5 - math.gamma(1.5))
        se = incs.std(ddof=1) / math.sqrt(len(incs))
        assert incs.mean() == pytest.approx(growth * dt, abs=4 * se)
        # var: sigma^2 dt + rate dt (E[U^2] + E[W^2]) to first order in dt
        want = dt * (1.0 + 1.0 / 3.0 + 1.0)
        assert incs.var() == pytest.approx(want, rel=0.08)

    @pytest.mark.parametrize("spec_seed", [0, 1, 2])
    def test_exact_paths_bin_to_the_grid_rows(self, spec_seed):
        """At sigma = 0 both samplers read one jump draw: every exact path
        of sample_path on a k-step grid has the increments of its row of
        grid_increments on the same stream, whatever x0."""
        rng = np.random.default_rng(spec_seed)
        spec = JumpDiffusionSpec(
            gamma=rng.uniform(-1.0, 1.0), sigma=0.0,
            jump_components=((rng.uniform(0.2, 2.0), 1, Exponential(rng.uniform(0.5, 3.0))),
                             (rng.uniform(0.2, 2.0), -1, Weibull(2.0, rng.uniform(0.3, 1.5))),
                             (0.01, 1, PointMass(0.4))),
            x0=rng.uniform(-1.0, 1.0))
        stream = RngStream(15, tag=spec_seed)
        for horizon, k, m in ((20.0, 500, 64), (20.0, 600, 16), (3.0, 7, 5), (1.0, 1, 3)):
            paths = event_paths(sample_path(spec, horizon, m, stream))
            incs = grid_increments(spec, horizon, k, m, stream)
            assert len(paths) == m
            for p, row in zip(paths, incs):
                np.testing.assert_allclose(p.to_grid(k), row, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_binning_each_component_equals_binning_the_whole_draw(self, sigma):
        """Each jump component is binned as it is drawn, in draw order, and
        the windows come in the documented order, so the matrix equals the
        concatenate-then-bin reference bit for bit: three components, one
        too rare to jump on these paths, hyperexponential marks, and one to
        four windows, the last of 1 to 244 steps."""
        spec = JumpDiffusionSpec(
            gamma=0.3, sigma=sigma,
            jump_components=((1.2, 1, Uniform(0.0, 1.0)), (1e-12, -1, Exponential(1.0)),
                             (0.8, -1, HyperExponential((0.3, 0.7), (0.5, 2.0)))))
        for seed, (horizon, k, m) in enumerate(((20.0, 500, 64), (3.0, 7, 5), (1.0, 1, 3),
                                                (20.0, 1000, 9), (5.0, 513, 4))):
            stream = RngStream(26, tag=seed)
            got = grid_increments(spec, horizon, k, m, stream)
            assert got.tobytes() == concatenated_grid_increments(spec, horizon, k, m,
                                                                 stream.generator()).tobytes()
            # the rare component draws no jump and yields nothing
            assert len(list(_jump_draw(spec, horizon, m, stream.generator()))) == 2

    def test_flat_binning_is_the_two_dimensional_call(self):
        """grid_increments bins each component with one np.add.at on the
        flat view of each window: the adds of np.add.at on (row, bin) pairs
        of the whole matrix, in their order, so the bytes are equal; jumps
        pile up in few cells, and at sigma = 0 a window bins its share of
        the whole-horizon draw."""
        spec = JumpDiffusionSpec(
            gamma=0.3, sigma=0.0,
            jump_components=((40.0, 1, Uniform(0.0, 1.0)), (30.0, -1, Exponential(2.0))))
        for horizon, k, m in ((20.0, 500, 64), (1.0, 1, 300), (3.0, 7, 5), (20.0, 700, 6)):
            stream = RngStream(27, tag=k)
            want = np.full((m, k), _compensated_drift(spec) * (horizon / k))
            for rows, times, sizes in _jump_draw(spec, horizon, m, stream.generator()):
                bins = np.clip(np.ceil(times / (horizon / k)).astype(int) - 1, 0, k - 1)
                np.add.at(want, (rows, bins), sizes)
            assert grid_increments(spec, horizon, k, m, stream).tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_up_to_one_window_is_the_whole_matrix_draw(self, sigma):
        """K <= TILE_KNOTS is one window: the Gaussians of the whole
        matrix, then the whole-horizon jump draw, bit for bit, and at sigma =
        0 every K draws so; at sigma > 0 and K > TILE_KNOTS the windows draw
        anew."""
        spec = JumpDiffusionSpec(
            gamma=0.3, sigma=sigma,
            jump_components=((1.2, 1, Uniform(0.0, 1.0)), (0.8, -1, Exponential(2.0))))
        for k in (1, 7, 200, TILE_KNOTS, TILE_KNOTS + 1, 3 * TILE_KNOTS):
            stream = RngStream(28, tag=k)
            got = grid_increments(spec, 20.0, k, 16, stream)
            whole = concatenated_grid_increments(spec, 20.0, k, 16, stream.generator(), tile=k)
            assert (got.tobytes() == whole.tobytes()) == (k <= TILE_KNOTS or sigma == 0)
        assert TILE_KNOTS % BLOCK_KNOTS == 0

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_a_jump_at_a_window_end_is_binned_once(self, sigma, monkeypatch):
        """A jump at the end time of a window, dt = 0.25 exact, lands once,
        in the last step of that window: at sigma = 0 jumps of the whole
        draw at t = 64, 128 and the horizon 150; at sigma > 0 a jump at the
        end of each window's own draw.  Every other cell equals the draw
        without them."""
        spec = JumpDiffusionSpec(gamma=0.3, sigma=sigma)
        horizon, k, ends = 150.0, 600, [TILE_KNOTS - 1, 2 * TILE_KNOTS - 1, 599]
        assert horizon / k == 0.25 and TILE_KNOTS == 256

        def at_the_end(spec, span, m, rng):
            times = np.array([64.0, 128.0, 150.0]) if span == horizon else np.array([span])
            yield np.arange(times.size), times, np.full(times.size, 1.0)

        want = grid_increments(spec, horizon, k, 3, RngStream(29))
        monkeypatch.setattr(levy_model, "_jump_draw", at_the_end)
        got = grid_increments(spec, horizon, k, 3, RngStream(29))
        cells = list(zip(range(3), ends)) if sigma == 0 else [(0, j) for j in ends]
        for cell in cells:
            assert got[cell] == want[cell] + 1.0
            got[cell] = want[cell]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("draw", [
        lambda spec, m: sample_path(spec, 5.0, m, RngStream(17)),
        lambda spec, m: grid_increments(spec, 5.0, 4, m, RngStream(17)),
    ], ids=["sample_path", "grid_increments"])
    @pytest.mark.parametrize("m", [0, -1, -3])
    def test_bad_path_counts(self, ref_spec_bv, draw, m):
        with pytest.raises(InvalidParameter) as err:
            draw(ref_spec_bv, m)
        assert err.value.field_name == "m"

    @pytest.mark.parametrize("k", [0, -2])
    def test_a_grid_without_steps_is_refused(self, ref_spec_gauss, k):
        with pytest.raises(InvalidParameter) as err:
            grid_increments(ref_spec_gauss, 5.0, k, 3, RngStream(17))
        assert err.value.field_name == "k"


class TestEventColumns:
    """sample_path(spec, horizon, m, stream) as padded event columns."""

    def test_a_drift_only_model_gives_one_row(self):
        cols = sample_path(drift_only(0.4, x0=0.7), 3.0, 5, RngStream(18))
        assert isinstance(cols, EventColumns)
        assert np.array_equal(cols.counts, np.zeros(5))
        assert np.array_equal(cols.times, np.full((1, 5), 3.0))
        assert np.array_equal(cols.sizes, np.zeros((1, 5)))
        assert (cols.horizon, cols.drift) == (3.0, 0.4)

    def test_a_draw_holds_no_start(self, ref_spec_bv):
        """sample_path draws X - x0: the columns of every x0 are those of
        x0 = 0, byte for byte, and EventColumns has no start field."""
        stream = RngStream(20, tag=3)
        at0 = sample_path(ref_spec_bv, 5.0, 7, stream)
        for x0 in (-0.7, -0.0, 1.3):
            got = sample_path(replace(ref_spec_bv, x0=x0), 5.0, 7, stream)
            assert all(getattr(got, f).tobytes() == getattr(at0, f).tobytes()
                       for f in ("counts", "times", "sizes"))
            assert (got.horizon, got.drift) == (at0.horizon, at0.drift)
        assert [f.name for f in fields(EventColumns)] == [
            "horizon", "drift", "counts", "times", "sizes"]

    def test_a_path_without_events_among_paths_that_jump(self):
        spec = JumpDiffusionSpec(gamma=0.3, sigma=0.0,
                                 jump_components=((0.4, -1, Uniform(0.0, 1.0)),))
        cols = sample_path(spec, 2.0, 64, RngStream(19))
        assert 0 < np.count_nonzero(cols.counts == 0) < 64
        for c, p in zip(cols.counts, event_paths(cols)):
            assert p.times.size == p.sizes.size == c
            assert np.all(p.sizes < 0.0)
        quiet = np.flatnonzero(cols.counts == 0)
        assert np.all(cols.times[:, quiet] == 2.0) and np.all(cols.sizes[:, quiet] == 0.0)

    def test_rows_past_the_counts_are_padding(self, ref_spec_bv):
        cols = sample_path(ref_spec_bv, 5.0, 40, RngStream(20))
        assert cols.times.shape == cols.sizes.shape == (cols.counts.max() + 1, 40)
        pad = np.arange(len(cols.times))[:, None] >= cols.counts
        assert np.all(cols.times[pad] == 5.0) and np.all(cols.sizes[pad] == 0.0)
        assert np.all(cols.times[~pad] < 5.0) and np.all(cols.sizes[~pad] != 0.0)
        # a block of paths keeps the rows its paths use
        for start, stop in ((0, 40), (3, 9), (39, 40)):
            blk = cols.block(start, stop)
            h = cols.counts[start:stop].max() + 1
            assert blk.times.shape == blk.sizes.shape == (h, stop - start)
            assert np.array_equal(blk.times, cols.times[:h, start:stop])
            assert np.array_equal(blk.sizes, cols.sizes[:h, start:stop])

    @pytest.mark.parametrize("m", [1, 7, 256])
    def test_events_are_the_jump_draw_by_path_and_time(self, m):
        """Three components, so the draw is not in path order; each path's
        events are its draws sorted by time, bit for bit."""
        spec = JumpDiffusionSpec(
            gamma=0.2, sigma=0.0,
            jump_components=((1.0, 1, Uniform(0.0, 1.0)), (0.7, -1, Weibull(2.0, 1.0)),
                             (0.3, 1, Exponential(2.0))))
        stream = RngStream(21, tag=m)
        rows, times, sizes = (np.concatenate(a)
                              for a in zip(*_jump_draw(spec, 30.0, m, stream.generator())))
        order = np.lexsort((times, rows))
        cuts = np.cumsum(np.bincount(rows, minlength=m))[:-1]
        cols = sample_path(spec, 30.0, m, stream)
        want = zip(np.split(times[order], cuts), np.split(sizes[order], cuts))
        for i, (t, s) in enumerate(want):
            assert cols.times[:cols.counts[i], i].tobytes() == t.tobytes()
            assert cols.sizes[:cols.counts[i], i].tobytes() == s.tobytes()

    def test_streamed_parts_side_by_side_are_the_copies(self, ref_spec_bv):
        """EventColumns.side_by_side of parts streamed one by one, taller
        parts after shorter ones, equals the parts padded and joined by
        whole copies."""
        parts = [sample_path(ref_spec_bv, 5.0, m, RngStream(30, tag=i))
                 for i, m in enumerate((1, 9, 3, 40))]
        heights = [len(p.times) for p in parts]
        assert heights[0] < heights[1] and max(heights[:3]) < heights[3]
        got = EventColumns.side_by_side(iter(parts), 53)
        want = columns_side_by_side(parts)
        for name in ("counts", "times", "sizes"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert (got.horizon, got.drift) == (want.horizon, want.drift)

    def test_row_sorted_columns_are_the_column_sorted_ones(self):
        """The sampler sorts each path's events in a contiguous row and
        transposes by one take: byte for byte the columns of the sampler
        that sorted them in place, on 300 random models of zero to three
        components of every mark law, at m = 1, 2, 7 and 256 and horizons
        0.5, 5 and 100."""
        laws = (lambda r: Uniform(0.0, r.uniform(0.2, 1.5)),
                lambda r: Exponential(r.uniform(0.5, 3.0)),
                lambda r: Weibull(r.uniform(0.8, 2.5), r.uniform(0.4, 1.3)),
                lambda r: HyperExponential((0.4, 0.6), (r.uniform(0.3, 1.0), r.uniform(1.5, 4.0))),
                lambda r: PointMass(r.uniform(0.2, 1.0)))
        rng = np.random.default_rng(29)
        n_empty = 0
        for j in range(300):
            comps = tuple((rng.uniform(0.05, 2.0), int(rng.choice((-1, 1))),
                           laws[rng.integers(5)](rng)) for _ in range(rng.integers(4)))
            spec = JumpDiffusionSpec(gamma=rng.uniform(-1, 1), sigma=0.0, jump_components=comps)
            m, horizon = (1, 2, 7, 256)[j % 4], (0.5, 5.0, 100.0)[j % 3]
            stream = RngStream(28, tag=j)
            got = sample_path(spec, horizon, m, stream)
            want = column_sorted_columns(spec, horizon, m, stream)
            for name in ("counts", "times", "sizes"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (j, name)
            assert (got.horizon, got.drift) == (want.horizon, want.drift)
            n_empty += len(comps) == 0
        assert 0 < n_empty < 300

    def test_an_event_at_the_horizon_stays_an_event(self, monkeypatch):
        """uniform(0, H) can return H: such an event keeps its size and its
        place before the padding, which has the same time.  Path 1 draws it
        first of its 300 events and path 2 draws 600, so path 1 has 301
        padding cells; an unstable sort of wide rows swaps such ties."""
        rng = np.random.default_rng(23)
        times = np.concatenate(([4.0], rng.uniform(0.0, 4.0, 899)))
        sizes = rng.normal(size=900)
        draw = (np.repeat([1, 2], [300, 600]), times, sizes)
        monkeypatch.setattr(levy_model, "_jump_draw", lambda *args: iter([draw]))
        cols = sample_path(drift_only(0.1), 4.0, 3, RngStream(22))
        assert np.array_equal(cols.counts, [0, 300, 600])
        order = np.argsort(times[:300])
        assert np.array_equal(cols.times[:300, 1], times[order])
        assert np.array_equal(cols.sizes[:300, 1], sizes[order])
        assert (cols.times[299, 1], cols.sizes[299, 1]) == (4.0, sizes[0])
        assert np.all(cols.times[300:, 1] == 4.0) and np.all(cols.sizes[300:, 1] == 0.0)
        assert event_paths(cols)[1].value_at(4.0) == pytest.approx(0.4 + sizes[:300].sum())

class TestRngStream:
    def test_streams_are_stateless_and_keyed(self):
        a = RngStream(5, tag=1, index=2).generator().standard_normal(4)
        b = RngStream(5, tag=1, index=2).generator().standard_normal(4)
        c = RngStream(5, tag=1, index=3).generator().standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_helpers_rekey(self):
        s = RngStream(9, tag=4, index=7)
        assert s.for_path(3).index == 10
        assert s.with_tag(6).tag == 6
        assert s.with_tag(6).index == 7
        assert s.id == "9/4/7"
