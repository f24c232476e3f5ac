"""Model layer: mark distributions, exponent, sampling, rng streams."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st

from levyrefract import levy_model
from levyrefract.levy_model import (
    EXACT,
    EventColumns,
    Exponential,
    Grid,
    HyperExponential,
    InvalidParameter,
    JumpDiffusionSpec,
    MarkDistribution,
    PointMass,
    QuadratureFailure,
    RngStream,
    Uniform,
    Weibull,
    _gammainc,
    _grid_increment_matrix,
    _jump_draw,
    characteristic_exponent,
    is_case2,
    net_drift,
    sample_path,
    validate_spec,
)
from conftest import REFERENCE_GAMMA, draw_path, drift_only
from oracles import EventPath, event_paths

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
        # u * scale = 100 under a shape-0.5 tail: the finest level cannot resolve it
        with pytest.raises(QuadratureFailure):
            Weibull(0.5, 5.0).char(20.0)

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
            cols = sample_path(ref_spec_bv, horizon, EXACT, RngStream(11, tag=1, index=i))
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
            sample_path(ref_spec_gauss, horizon, Grid(k), RngStream(14, tag=4, index=i))[0]
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
        of sample_path(..., m) on a k-step grid has the increments of its
        row of _grid_increment_matrix on the same stream."""
        rng = np.random.default_rng(spec_seed)
        spec = JumpDiffusionSpec(
            gamma=rng.uniform(-1.0, 1.0), sigma=0.0,
            jump_components=((rng.uniform(0.2, 2.0), 1, Exponential(rng.uniform(0.5, 3.0))),
                             (rng.uniform(0.2, 2.0), -1, Weibull(2.0, rng.uniform(0.3, 1.5))),
                             (0.01, 1, PointMass(0.4))),
            x0=rng.uniform(-1.0, 1.0))
        stream = RngStream(15, tag=spec_seed)
        for horizon, k, m in ((20.0, 500, 64), (3.0, 7, 5), (1.0, 1, 3)):
            paths = event_paths(sample_path(spec, horizon, EXACT, stream, m))
            incs = _grid_increment_matrix(spec, horizon, k, m, stream.generator())
            assert len(paths) == m
            for p, row in zip(paths, incs):
                assert p.x0 == spec.x0
                np.testing.assert_allclose(p.to_grid(k), row, rtol=0, atol=1e-12)

    def test_one_path_is_the_one_path_draw(self, ref_spec_bv):
        """Without m, exact mode draws the one-column EventColumns of m = 1."""
        stream = RngStream(16, tag=2)
        one = sample_path(ref_spec_bv, 5.0, EXACT, stream)
        first = sample_path(ref_spec_bv, 5.0, EXACT, stream, 1)
        assert isinstance(one, EventColumns) and one.counts.size == 1
        for name in ("x0", "counts", "times", "sizes"):
            assert getattr(one, name).tobytes() == getattr(first, name).tobytes()
        assert (one.horizon, one.drift) == (first.horizon, first.drift)

    @pytest.mark.parametrize("spec_name", ["ref_spec_bv", "ref_spec_gauss"])
    @pytest.mark.parametrize("k,m", [(1, 1), (7, 5), (300, 1)])
    def test_grid_mode_is_the_increment_matrix(self, request, spec_name, k, m):
        """Grid(k) mode returns the (m, k) matrix of _grid_increment_matrix
        on the stream's generator, bit for bit, and no other format."""
        spec = request.getfixturevalue(spec_name)
        stream = RngStream(24, tag=k, index=m)
        got = sample_path(spec, 5.0, Grid(k), stream, m)
        want = _grid_increment_matrix(spec, 5.0, k, m, stream.generator())
        assert type(got) is np.ndarray and got.shape == (m, k)
        assert got.tobytes() == want.tobytes()
        one = _grid_increment_matrix(spec, 5.0, k, 1, stream.generator())
        assert sample_path(spec, 5.0, Grid(k), stream).tobytes() == one.tobytes()

    @pytest.mark.parametrize("mode,m", [(EXACT, 0), (Grid(4), 0), (EXACT, -1), (Grid(4), -3)])
    def test_bad_path_counts(self, ref_spec_bv, mode, m):
        with pytest.raises(InvalidParameter) as err:
            sample_path(ref_spec_bv, 5.0, mode, RngStream(17), m)
        assert err.value.field_name == "m"


class TestEventColumns:
    """sample_path(..., EXACT, stream, m) as padded event columns."""

    def test_a_drift_only_model_gives_one_row(self):
        cols = sample_path(drift_only(0.4, x0=0.7), 3.0, EXACT, RngStream(18), 5)
        assert isinstance(cols, EventColumns)
        assert np.array_equal(cols.counts, np.zeros(5))
        assert np.array_equal(cols.times, np.full((1, 5), 3.0))
        assert np.array_equal(cols.sizes, np.zeros((1, 5)))
        assert np.array_equal(cols.x0, np.full(5, 0.7))
        assert (cols.horizon, cols.drift) == (3.0, 0.4)

    def test_a_path_without_events_among_paths_that_jump(self):
        spec = JumpDiffusionSpec(gamma=0.3, sigma=0.0,
                                 jump_components=((0.4, -1, Uniform(0.0, 1.0)),))
        cols = sample_path(spec, 2.0, EXACT, RngStream(19), 64)
        assert 0 < np.count_nonzero(cols.counts == 0) < 64
        for c, p in zip(cols.counts, event_paths(cols)):
            assert p.times.size == p.sizes.size == c
            assert np.all(p.sizes < 0.0)
        quiet = np.flatnonzero(cols.counts == 0)
        assert np.all(cols.times[:, quiet] == 2.0) and np.all(cols.sizes[:, quiet] == 0.0)

    def test_rows_past_the_counts_are_padding(self, ref_spec_bv):
        cols = sample_path(ref_spec_bv, 5.0, EXACT, RngStream(20), 40)
        assert cols.times.shape == cols.sizes.shape == (cols.counts.max() + 1, 40)
        pad = np.arange(len(cols.times))[:, None] >= cols.counts
        assert np.all(cols.times[pad] == 5.0) and np.all(cols.sizes[pad] == 0.0)
        assert np.all(cols.times[~pad] < 5.0) and np.all(cols.sizes[~pad] != 0.0)

    @pytest.mark.parametrize("m", [1, 7, 256])
    def test_events_are_the_jump_draw_by_path_and_time(self, m):
        """Three components, so the draw is not in path order; each path's
        events are its draws sorted by time, bit for bit."""
        spec = JumpDiffusionSpec(
            gamma=0.2, sigma=0.0,
            jump_components=((1.0, 1, Uniform(0.0, 1.0)), (0.7, -1, Weibull(2.0, 1.0)),
                             (0.3, 1, Exponential(2.0))))
        stream = RngStream(21, tag=m)
        rows, times, sizes = _jump_draw(spec, 30.0, m, stream.generator())
        order = np.lexsort((times, rows))
        cuts = np.cumsum(np.bincount(rows, minlength=m))[:-1]
        cols = sample_path(spec, 30.0, EXACT, stream, m)
        want = zip(np.split(times[order], cuts), np.split(sizes[order], cuts))
        for i, (t, s) in enumerate(want):
            assert cols.times[:cols.counts[i], i].tobytes() == t.tobytes()
            assert cols.sizes[:cols.counts[i], i].tobytes() == s.tobytes()

    def test_an_event_at_the_horizon_stays_an_event(self, monkeypatch):
        """uniform(0, H) can return H: such an event keeps its size and its
        place before the padding, which has the same time.  Path 1 draws it
        first of its 300 events and path 2 draws 600, so path 1 has 301
        padding cells; an unstable sort of wide rows swaps such ties."""
        rng = np.random.default_rng(23)
        times = np.concatenate(([4.0], rng.uniform(0.0, 4.0, 899)))
        sizes = rng.normal(size=900)
        draw = (np.repeat([1, 2], [300, 600]), times, sizes)
        monkeypatch.setattr(levy_model, "_jump_draw", lambda *args: draw)
        cols = sample_path(drift_only(0.1), 4.0, EXACT, RngStream(22), 3)
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
