import math

import numpy as np
import pytest

from levyrefract.levy_model import InvalidParameter, RngStream
from levyrefract.strategy_engine import StrategyParams
from levyrefract.estimation import (
    DegenerateDenominator, NoCrossing, _pav_nonincreasing, estimate_nu,
    estimate_underline_nu, estimate_value, find_bstar, nu_curve,
    solve_pstar, value_curve, value_curve_csv,
)

from conftest import drift_only

Q = 0.05
BETA = 1.5


def params(b=1.0, alpha=0.5):
    return StrategyParams(b=b, alpha=alpha, beta=BETA, q=Q)


class TestPassageTransform:
    def test_deterministic_descent_gives_exponential(self):
        """Pure drift -1: passage below -b happens at time b exactly."""
        for b in (0.5, 2.0, 7.0):
            est = estimate_nu(b, params(), drift_only(-1.0), 20.0, 0, 64,
                              RngStream(100, tag=1))
            assert est.mean == pytest.approx(math.exp(-Q * b), rel=1e-12)
            # deterministic passage; variance is pure rounding noise
            assert est.std_error < 1e-7
            assert est.censored_fraction == 0.0

    def test_euler_engine_agrees_on_the_drift_path(self):
        est = estimate_nu(2.0, params(), drift_only(-1.0), 20.0, 1000, 32,
                          RngStream(100, tag=1), engine="euler")
        assert est.mean == pytest.approx(math.exp(-Q * 2.0), rel=1e-6)

    def test_horizon_censoring(self):
        est = estimate_nu(25.0, params(), drift_only(-1.0), 20.0, 0, 64,
                          RngStream(100, tag=1))
        assert est.mean == 0.0
        assert est.censored_fraction == 1.0

    def test_negative_threshold_is_one_by_convention(self):
        est = estimate_nu(-0.5, params(), drift_only(-1.0), 20.0, 0, 64,
                          RngStream(100, tag=1))
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_curve_point_matches_single_estimate(self, ref_spec_bv):
        s = RngStream(101, tag=1)
        curve = nu_curve(params(), ref_spec_bv, np.array([0.5, 1.0, 1.5]),
                         15.0, 0, 512, s)
        single = estimate_nu(1.0, params(), ref_spec_bv, 15.0, 0, 512, s)
        assert curve.values[1] == single.mean
        assert curve.std_errors[1] == single.std_error

    def test_shared_noise_curve_is_monotone_pathwise(self, ref_spec_bv):
        curve = nu_curve(params(), ref_spec_bv, np.linspace(0.0, 3.0, 31),
                         15.0, 0, 512, RngStream(102, tag=1), mode="crn")
        assert np.all(np.diff(curve.values) <= 1e-15)
        assert np.all(curve.values <= 1.0) and np.all(curve.values >= 0.0)

    def test_grid_must_increase(self, ref_spec_bv):
        with pytest.raises(InvalidParameter):
            nu_curve(params(), ref_spec_bv, np.array([1.0, 1.0]), 10.0, 0, 64,
                     RngStream(103, tag=1))

    def test_csv_header(self, ref_spec_bv):
        curve = nu_curve(params(), ref_spec_bv, np.array([1.0]), 5.0, 0, 64,
                         RngStream(104, tag=1))
        assert curve.to_csv().splitlines()[0] == "b,nu,se"

    def test_thread_count_does_not_change_results(self, ref_spec_bv):
        s = RngStream(105, tag=1)
        grid = np.array([0.5, 1.0, 1.5])
        c1 = nu_curve(params(), ref_spec_bv, grid, 15.0, 0, 1024, s, threads=1)
        c4 = nu_curve(params(), ref_spec_bv, grid, 15.0, 0, 1024, s, threads=4)
        np.testing.assert_array_equal(c1.values, c4.values)
        np.testing.assert_array_equal(c1.std_errors, c4.std_errors)


class TestThresholdSearch:
    def test_crossing_on_the_deterministic_curve(self):
        # beta e^{-qb} crosses 1 at ln(beta)/q = 8.1093...; first grid point
        # past it on a 0.05 lattice is 8.15
        grid = np.round(np.arange(7.0, 9.0 + 1e-9, 0.05), 10)
        r = find_bstar(params(), drift_only(-1.0), grid, 30.0, 0, 64,
                       RngStream(110, tag=1))
        assert r.bstar_hat == pytest.approx(8.15)
        assert r.interval_low == r.interval_high == r.bstar_hat
        assert math.log(BETA) / Q == pytest.approx(8.109302162163288)

    def test_no_crossing_raises(self):
        grid = np.round(np.arange(0.5, 5.0, 0.5), 10)
        with pytest.raises(NoCrossing):
            find_bstar(params(), drift_only(-1.0), grid, 30.0, 0, 64,
                       RngStream(111, tag=1))

    def test_isotonic_projection(self):
        y = np.array([3.0, 1.0, 2.0, 0.5])
        w = np.ones(4)
        out = _pav_nonincreasing(y, w)
        np.testing.assert_allclose(out, [3.0, 1.5, 1.5, 0.5])
        assert np.all(np.diff(out) <= 0)
        # already monotone: unchanged
        z = np.array([4.0, 2.0, 1.0])
        np.testing.assert_allclose(_pav_nonincreasing(z, np.ones(3)), z)

    def test_independent_mode_matches_on_noise_free_curves(self):
        grid = np.round(np.arange(7.5, 8.6, 0.1), 10)
        a = find_bstar(params(), drift_only(-1.0), grid, 30.0, 0, 32,
                       RngStream(112, tag=1), mode="crn")
        b = find_bstar(params(), drift_only(-1.0), grid, 30.0, 0, 32,
                       RngStream(112, tag=1), mode="independent")
        assert a.bstar_hat == b.bstar_hat


class TestRandomizedClock:
    def test_start_below_zero_pays_beta_immediately(self):
        est = estimate_underline_nu(-0.5, 1.0, 0.5, params(), drift_only(-1.0),
                                    20.0, 32, RngStream(120, tag=1))
        assert est.mean == pytest.approx(BETA, rel=1e-12)
        assert est.std_error == 0.0

    def test_probability_bounds(self):
        with pytest.raises(InvalidParameter):
            estimate_underline_nu(0.5, 1.0, 1.2, params(), drift_only(-1.0),
                                  20.0, 32, RngStream(121, tag=1))

    def test_sticky_origin_solves_to_one_third(self):
        """Drift inside (0, alpha] parked at b = 0: the weak clock fires at
        once and the strict clock never does, so the mixing probability
        solves beta (1 - p) = 1."""
        p = solve_pstar(params(), drift_only(0.3), 0.0, 40.0, 64,
                        RngStream(122, tag=1))
        assert p == pytest.approx((BETA - 1.0) / BETA, rel=1e-12)

    def test_strict_clock_never_late_enough_returns_one(self):
        # drift -1 from b: strict passage at b is immediate, transform 1
        p = solve_pstar(params(b=0.5), drift_only(-1.0), 0.5, 40.0, 64,
                        RngStream(123, tag=1))
        assert p == 1.0

    def test_indistinguishable_clocks_raise(self):
        # transversal crossing far from 0: strict and weak clocks coincide
        # and their common transform sits below 1/beta
        with pytest.raises(DegenerateDenominator):
            solve_pstar(params(b=10.0), drift_only(-1.0), 10.0, 40.0, 64,
                        RngStream(124, tag=1))


class TestEulerClock:
    """The Euler clock against the exact one on a pure drift -1, where the
    only gap is rounding the passage time up to the grid: a step or two,
    so at most 2 * beta * q * dt in the transform."""

    T, K = 4.0, 400

    @pytest.mark.parametrize("x,tau", [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0),
                                       (1.6, 0.6 / 1.5 + 1.0)])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_matches_the_exact_clock(self, x, tau, p):
        exact, euler = (
            estimate_underline_nu(x, 1.0, p, params(), drift_only(-1.0), self.T,
                                  8, RngStream(125, tag=1), k=self.K, engine=eng)
            for eng in ("exact", "euler"))
        assert exact.mean == pytest.approx(BETA * math.exp(-Q * tau), rel=1e-12)
        assert abs(euler.mean - exact.mean) <= 2 * BETA * Q * self.T / self.K
        assert euler.censored_fraction == 0.0

    def test_pstar_agrees_with_the_exact_engine(self):
        got = [solve_pstar(params(), drift_only(-1.0), 1.0, self.T, 8,
                           RngStream(126, tag=1), k=self.K, engine=eng)
               for eng in ("exact", "euler")]
        assert got == [1.0, 1.0]

    def test_two_workers_give_identical_results(self, ref_spec_gauss):
        # N = 300 is two chunks, so the second worker's partial is merged
        def run(threads):
            est = estimate_underline_nu(0.8, 1.2, 0.4, params(), ref_spec_gauss,
                                        5.0, 300, RngStream(127, tag=1), k=200,
                                        threads=threads)
            p = solve_pstar(params(), ref_spec_gauss, 0.5, 5.0, 300,
                            RngStream(128, tag=1), k=200, threads=threads)
            return est, p

        assert run(1) == run(2)


class TestValueEstimates:
    def test_perpetual_injection_value(self):
        est = estimate_value(0.0, 2.0, params(), drift_only(-1.0), math.inf,
                             0, 1, RngStream(130, tag=1), method="direct")
        assert est.mean == pytest.approx(-BETA / Q, rel=1e-12)  # -30
        assert est.std_error == 0.0

    def test_perpetual_capped_dividend_value(self):
        est = estimate_value(0.0, 0.0, params(b=0.0, alpha=0.5),
                             drift_only(2.0), math.inf, 0, 1,
                             RngStream(131, tag=1), method="direct")
        assert est.mean == pytest.approx(0.5 / Q, rel=1e-12)  # 10

    def test_infinite_horizon_guards(self, ref_spec_bv):
        with pytest.raises(InvalidParameter):
            estimate_value(0.0, 1.0, params(), ref_spec_bv, math.inf, 0, 1,
                           RngStream(132, tag=1), method="direct")
        with pytest.raises(InvalidParameter):
            estimate_value(0.0, 1.0, params(), drift_only(-1.0), math.inf, 0,
                           1, RngStream(132, tag=1), method="spliced")

    def test_negative_start_is_affine(self, ref_spec_bv):
        rows = value_curve(np.array([-1.0, -0.25, 0.0]), 1.2, params(b=1.2),
                           ref_spec_bv, 20.0, 0, 200, RngStream(133, tag=1))
        v0 = rows[2][1]
        assert rows[0][1].mean == v0.mean - BETA * 1.0
        assert rows[1][1].mean == v0.mean - BETA * 0.25
        assert rows[0][1].std_error == v0.std_error

    def test_spliced_agrees_with_direct(self, ref_spec_bv):
        d = estimate_value(0.8, 1.2, params(b=1.2), ref_spec_bv, 60.0, 0,
                           2000, RngStream(134, tag=1), method="direct")
        s = estimate_value(0.8, 1.2, params(b=1.2), ref_spec_bv, 60.0, 0,
                           2000, RngStream(134, tag=1), method="spliced")
        assert abs(d.mean - s.mean) <= 3.0 * (d.std_error + s.std_error)

    def test_value_threads_bitwise_stable(self, ref_spec_bv):
        a = estimate_value(0.5, 1.2, params(b=1.2), ref_spec_bv, 15.0, 0,
                           1024, RngStream(135, tag=1), threads=1)
        b = estimate_value(0.5, 1.2, params(b=1.2), ref_spec_bv, 15.0, 0,
                           1024, RngStream(135, tag=1), threads=4)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_method_name_checked(self, ref_spec_bv):
        with pytest.raises(InvalidParameter):
            estimate_value(0.5, 1.0, params(), ref_spec_bv, 10.0, 0, 8,
                           RngStream(136, tag=1), method="other")

    def test_curve_csv(self):
        rows = [(0.5, 1.0,
                 estimate_value(0.0, 2.0, params(), drift_only(-1.0),
                                math.inf, 0, 1, RngStream(137, tag=1),
                                method="direct"),
                 "direct")]
        text = value_curve_csv(rows)
        assert text.splitlines()[0] == "x,b,v,se,method"
        assert text.splitlines()[1].endswith(",direct")
