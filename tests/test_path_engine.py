import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyrefract.levy_model import (
    EXACT, EventPath, InvalidParameter, RngStream, classify_case, sample_path,
)
from levyrefract.path_engine import (
    BRANCH_ABOVE, BRANCH_AT_B, BRANCH_FLOOR, BRANCH_INTERIOR, InvalidBarrier,
    UnsupportedModel, construction_identity_residual, dividend_integral_path,
    infimum_decomposition, reflect_from_above, reflect_two_sided,
    refract_exact, refracted_reflected_exact, running_floor_reflection,
)

from conftest import drift_only


def case_for(delta, alpha):
    return classify_case(drift_only(delta), alpha)


def drift_path(delta, x0, horizon, jumps=()):
    times = np.array([t for t, _ in jumps])
    sizes = np.array([s for _, s in jumps])
    return EventPath(x0=x0, horizon=horizon, drift=delta, times=times, sizes=sizes)


class TestRefractExact:
    def test_transversal_crossing_ramp_then_drain(self):
        """delta above the cap: slope delta below b, delta - alpha above."""
        p = drift_path(1.0, 0.0, 4.0)
        traj = refract_exact(p, b=1.0, alpha=0.4, case=case_for(1.0, 0.4))
        ts = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
        np.testing.assert_allclose(traj.value_at(ts), [0.0, 0.5, 1.0, 1.6, 2.8])
        np.testing.assert_allclose(traj.crossing_times, [1.0])
        np.testing.assert_allclose(traj.dividends_at(ts), [0, 0, 0, 0.4, 1.2])
        np.testing.assert_allclose(traj.injections_at(ts), 0.0, atol=1e-15)

    def test_discounted_dividends_closed_form(self):
        p = drift_path(1.0, 0.0, 4.0)
        traj = refract_exact(p, b=1.0, alpha=0.4, case=case_for(1.0, 0.4))
        q = 0.05
        dl, dr = traj.discounted_flow(q)
        assert dl == pytest.approx(0.4 * (math.exp(-q) - math.exp(-4 * q)) / q, rel=1e-12)
        assert dr == 0.0

    def test_sticky_threshold(self):
        # drift 0.3 inside [0, alpha]: the trajectory parks at b and the
        # dividend rate equals the drift there
        p = drift_path(0.3, 0.0, 10.0)
        case = case_for(0.3, 0.4)
        assert case.is_case2
        traj = refract_exact(p, b=1.0, alpha=0.4, case=case)
        tb = 1.0 / 0.3
        ts = np.array([1.0, tb, 5.0, 10.0])
        np.testing.assert_allclose(traj.value_at(ts), [0.3, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(traj.dividends_at(ts),
                                   [0.0, 0.0, 0.3 * (5 - tb), 0.3 * (10 - tb)])
        assert traj.seg_branch[-1] == BRANCH_AT_B

    def test_sticky_jump_knockdown_and_return(self):
        p = drift_path(0.3, 0.0, 10.0, jumps=[(5.0, -0.6)])
        traj = refract_exact(p, b=1.0, alpha=0.4, case=case_for(0.3, 0.4))
        assert traj.value_at(5.0) == pytest.approx(0.4)
        assert traj.left_limit_at(5.0) == pytest.approx(1.0)
        assert traj.value_at(7.0) == pytest.approx(1.0)
        # no dividends while recovering on (5, 7)
        assert traj.dividends_at(7.0) == pytest.approx(traj.dividends_at(5.0))
        tb = 1.0 / 0.3
        assert traj.dividends_at(10.0) == pytest.approx(0.3 * (5 - tb) + 0.3 * 3)

    def test_perpetual_sticky_flow(self):
        # started at the threshold, the sticky stream pays delta forever
        p = drift_path(0.3, 1.0, 10.0)
        traj = refract_exact(p, b=1.0, alpha=0.5, case=case_for(0.3, 0.5))
        dl, dr = traj.discounted_flow(0.05, horizon=math.inf)
        assert dl == pytest.approx(0.3 / 0.05, rel=1e-12)

    def test_alpha_validation(self):
        p = drift_path(1.0, 0.0, 1.0)
        c = case_for(1.0, 0.4)
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(InvalidParameter):
                refract_exact(p, b=1.0, alpha=bad, case=c)

    def test_rejects_non_event_input(self):
        with pytest.raises(UnsupportedModel):
            refract_exact(object(), b=1.0, alpha=0.4, case=case_for(1.0, 0.4))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.05, 0.95), st.floats(0.1, 8.0))
    def test_drift_only_formula(self, x0, alpha, t):
        """Jump-free trajectory: ramp at delta to b, then drain at delta - alpha."""
        delta, b = 1.2, 1.0
        p = drift_path(delta, x0, 8.0)
        traj = refract_exact(p, b=b, alpha=alpha, case=case_for(delta, alpha))
        tb = (b - x0) / delta
        want = x0 + delta * t if t <= tb else b + (delta - alpha) * (t - tb)
        assert traj.value_at(t) == pytest.approx(want, abs=1e-12)
        assert traj.dividends_at(t) == pytest.approx(alpha * max(t - tb, 0.0), abs=1e-12)


class TestRefractedReflected:
    def hand_traj(self):
        p = drift_path(1.0, 0.5, 4.0, jumps=[(2.0, -2.0)])
        return p, refracted_reflected_exact(p, b=1.0, alpha=0.4,
                                            case=case_for(1.0, 0.4))

    def test_jump_through_floor_tops_up(self):
        p, (traj, dec) = self.hand_traj()
        ts = np.array([0.25, 1.0, 2.0, 2.5, 3.0, 4.0])
        np.testing.assert_allclose(traj.value_at(ts),
                                   [0.75, 1.3, 0.0, 0.5, 1.0, 1.6])
        np.testing.assert_allclose(traj.r_atom_t, [2.0])
        np.testing.assert_allclose(traj.r_atom, [0.1])
        np.testing.assert_allclose(traj.dividends_at(4.0), 0.4 * 1.5 + 0.4 * 1.0)
        np.testing.assert_allclose(traj.injections_at(ts),
                                   [0, 0, 0.1, 0.1, 0.1, 0.1])

    def test_trajectory_is_driver_less_dividends_plus_injections(self):
        p, (traj, dec) = self.hand_traj()
        ts = np.linspace(0.0, 4.0, 33)
        np.testing.assert_allclose(
            traj.value_at(ts),
            p.value_at(ts) - traj.dividends_at(ts) + traj.injections_at(ts),
            atol=1e-12)

    def test_pinned_at_floor_under_negative_drift(self):
        p = drift_path(-1.0, 0.5, 3.0)
        traj, dec = refracted_reflected_exact(p, b=2.0, alpha=0.5,
                                              case=case_for(-1.0, 0.5))
        ts = np.array([0.25, 0.5, 1.5, 3.0])
        np.testing.assert_allclose(traj.value_at(ts), [0.25, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(traj.injections_at(ts), [0.0, 0.0, 1.0, 2.5])
        assert traj.seg_branch[-1] == BRANCH_FLOOR
        np.testing.assert_allclose(dec.infimum_at(ts), [0.0, 0.0, -1.0, -2.5])
        np.testing.assert_allclose(dec.boundary_integral_at(ts), [0.0, 0.0, -1.0, -2.5])

    def test_negative_start_is_topped_up_at_time_zero(self):
        p = drift_path(1.0, -0.3, 2.0)
        traj, dec = refracted_reflected_exact(p, b=1.0, alpha=0.4,
                                              case=case_for(1.0, 0.4))
        assert traj.value_at(0.0) == 0.0
        np.testing.assert_allclose(traj.r_atom_t, [0.0])
        np.testing.assert_allclose(traj.r_atom, [0.3])
        assert dec.initial_part == pytest.approx(-0.3)

    def test_negative_barrier_rejected(self):
        p = drift_path(1.0, 0.0, 1.0)
        with pytest.raises(InvalidBarrier):
            refracted_reflected_exact(p, b=-0.5, alpha=0.4, case=case_for(1.0, 0.4))

    def test_zero_threshold_pays_flat_cap(self):
        """b = 0 with drift above the cap: dividends accrue at exactly alpha t."""
        p = drift_path(1.0, 0.0, 6.0, jumps=[(2.0, -3.0), (4.0, 0.5)])
        traj, dec = refracted_reflected_exact(p, b=0.0, alpha=0.4,
                                              case=case_for(1.0, 0.4))
        ts = np.linspace(0.0, 6.0, 25)
        np.testing.assert_allclose(traj.dividends_at(ts), 0.4 * ts, atol=1e-12)

    def test_construction_residual_on_sampled_paths(self, ref_spec_bv):
        for alpha, b in ((0.5, 1.2), (0.7, 0.8)):
            case = classify_case(ref_spec_bv, alpha)
            for i in range(40):
                p = sample_path(ref_spec_bv, 5.0, EXACT, RngStream(31, tag=2, index=i))
                traj, _ = refracted_reflected_exact(p, b=b, alpha=alpha, case=case)
                assert construction_identity_residual(p, traj) <= 1e-12


class TestReflectionLimits:
    def band_path(self):
        return drift_path(1.0, 0.5, 3.0, jumps=[(2.0, -2.0), (2.5, 2.0)])

    def test_two_sided_band(self):
        """Infinite-rate limit: lump dividends above b, lump injections below 0."""
        traj = reflect_two_sided(self.band_path(), b=1.0)
        ts = np.array([0.25, 1.0, 2.0, 2.25, 2.5, 3.0])
        np.testing.assert_allclose(traj.value_at(ts),
                                   [0.75, 1.0, 0.0, 0.25, 1.0, 1.0])
        np.testing.assert_allclose(traj.l_atom_t, [2.5])
        np.testing.assert_allclose(traj.l_atom, [1.5])
        np.testing.assert_allclose(traj.r_atom_t, [2.0])
        np.testing.assert_allclose(traj.r_atom, [1.0])
        assert traj.dividends_at(3.0) == pytest.approx(1.5 + 1.5 + 0.5)
        assert traj.injections_at(3.0) == pytest.approx(1.0)

    def test_from_above_leaves_the_floor_open(self):
        traj = reflect_from_above(self.band_path(), b=1.0)
        ts = np.array([1.0, 2.0, 2.25, 2.5, 3.0])
        np.testing.assert_allclose(traj.value_at(ts), [1.0, -1.0, -0.75, 1.0, 1.0])
        np.testing.assert_allclose(traj.injections_at(ts), 0.0, atol=1e-15)
        np.testing.assert_allclose(traj.l_atom, [0.5])
        assert traj.dividends_at(3.0) == pytest.approx(1.5 + 0.5 + 0.5)

    def test_start_above_barrier_pays_immediately(self):
        traj = reflect_from_above(drift_path(0.2, 2.0, 1.0), b=1.0)
        assert traj.value_at(0.0) == 1.0
        np.testing.assert_allclose(traj.l_atom_t, [0.0])
        np.testing.assert_allclose(traj.l_atom, [1.0])

    def test_two_sided_at_zero_pins_at_the_floor(self):
        """At b = 0 a falling path is pinned at 0, where it draws injections
        at rate -delta: the two-sided limit labels that stretch BRANCH_FLOOR,
        as the finite-rate sweep does at b = 0."""
        delta = -0.5
        p = drift_path(delta, 0.4, 3.0, jumps=[(1.0, 0.8), (2.0, -0.6)])
        traj = reflect_two_sided(p, b=0.0)
        refr, _ = refracted_reflected_exact(p, 0.0, 0.5, case_for(delta, 0.5))
        for t in (traj, refr):
            pinned = (t.seg_v == 0.0) & (t.seg_slope == 0.0)
            assert pinned.any()
            assert np.all(t.seg_branch[pinned] == BRANCH_FLOOR)
            assert np.all(t.seg_rrate[pinned] == -delta)
        np.testing.assert_allclose(traj.l_atom, [0.4, 0.8])
        np.testing.assert_allclose(traj.r_atom_t, [2.0])
        assert traj.injections_at(3.0) == pytest.approx(-delta * 3.0 + 0.6)

    def test_gap_to_the_band_limit_never_grows_with_alpha(self, ref_spec_bv):
        """Trajectories are ordered in alpha, so the one-sided gap to the
        rate-unbounded limit is non-increasing.  It need not vanish: an
        up-jump from just below b lands the same distance above b at every
        finite rate."""
        p = sample_path(ref_spec_bv, 6.0, EXACT, RngStream(77, tag=3, index=4))
        limit = reflect_from_above(p, b=1.0)
        ts = np.union1d(np.linspace(0, 6.0, 601), limit.segment_times())
        gaps = []
        for alpha in (1.0, 4.0, 16.0, 64.0):
            traj = refract_exact(p, b=1.0, alpha=alpha,
                                 case=classify_case(ref_spec_bv, alpha))
            ts_a = np.union1d(ts, traj.segment_times())
            diff = traj.value_at(ts_a) - limit.value_at(ts_a)
            assert np.min(diff) >= -1e-12
            gaps.append(np.max(diff))
        assert all(g1 >= g2 - 1e-12 for g1, g2 in zip(gaps, gaps[1:]))

    def test_sticky_refraction_equals_the_limit_without_up_jumps(self):
        # with only downward jumps nothing ever lands above b, so once the
        # rate cap exceeds the drift the refracted and pushed-down paths agree
        p = drift_path(1.2, 0.3, 6.0, jumps=[(1.5, -0.9), (3.0, -0.2), (4.2, -1.4)])
        limit = reflect_from_above(p, b=1.0)
        traj = refract_exact(p, b=1.0, alpha=2.0, case=case_for(1.2, 2.0))
        ts = np.union1d(np.union1d(np.linspace(0, 6.0, 601), limit.segment_times()),
                        traj.segment_times())
        np.testing.assert_allclose(traj.value_at(ts), limit.value_at(ts), atol=1e-12)
        np.testing.assert_allclose(traj.dividends_at(ts), limit.dividends_at(ts),
                                   atol=1e-12)

    def test_running_inf_matches_brute_force(self, ref_spec_bv):
        p = sample_path(ref_spec_bv, 5.0, EXACT, RngStream(78, tag=3, index=9))
        traj = refract_exact(p, b=0.8, alpha=0.5, case=classify_case(ref_spec_bv, 0.5))
        # linear pieces attain extrema at segment ends, so a grid containing
        # every segment time sees the true minimum via left limits
        grid = np.union1d(np.linspace(0, 5.0, 2001), traj.segment_times())
        lows = np.minimum(np.minimum(traj.value_at(grid), traj.left_limit_at(grid)), 0.0)
        want = np.minimum.accumulate(lows)
        queries = np.array([0.7, 1.9, 3.3, 5.0])
        got = traj.running_inf_of_neg_part(queries)
        for t, g in zip(queries, got):
            assert g == pytest.approx(want[grid <= t][-1], abs=1e-12)


class TestFloorDecomposition:
    def test_jump_top_ups_split(self):
        p = drift_path(0.5, 0.0, 3.0, jumps=[(1.0, -1.0), (2.0, -0.7)])
        dec = running_floor_reflection(p)
        ts = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        np.testing.assert_allclose(dec.infimum_at(ts), [0, -0.5, -0.5, -0.7, -0.7])
        np.testing.assert_allclose(dec.jump_sum_at(ts), [0, -0.5, -0.5, -0.7, -0.7])
        np.testing.assert_allclose(dec.boundary_integral_at(ts), 0.0, atol=1e-15)
        assert dec.initial_part == 0.0
        np.testing.assert_allclose(dec.reflected.value_at(ts),
                                   p.value_at(ts) - dec.infimum_at(ts), atol=1e-12)

    def test_boundary_component_accrues_only_at_the_floor(self):
        p = drift_path(-0.4, 0.2, 3.0, jumps=[(1.0, 1.0)])
        dec = running_floor_reflection(p)
        assert dec.boundary_integral_at(0.75) == pytest.approx(-0.1)
        assert dec.boundary_integral_at(3.0) == pytest.approx(-0.2)
        assert dec.infimum_at(3.0) == pytest.approx(-0.2)
        assert dec.reflected.value_at(3.0) == pytest.approx(0.2)

    def test_three_components_sum_to_the_infimum(self, ref_spec_bv):
        for i in range(25):
            p = sample_path(ref_spec_bv, 4.0, EXACT, RngStream(55, tag=4, index=i))
            p = p.shifted(-0.8)
            dec = infimum_decomposition(p, p.drift)
            ts = np.linspace(0.0, 4.0, 41)
            total = (dec.boundary_integral_at(ts) + dec.initial_part
                     + dec.jump_sum_at(ts))
            np.testing.assert_allclose(dec.infimum_at(ts), total, atol=1e-12)
            np.testing.assert_allclose(dec.reflected.value_at(ts),
                                       p.value_at(ts) - dec.infimum_at(ts),
                                       atol=1e-12)
            assert np.all(dec.reflected.value_at(ts) >= -1e-12)

    def test_drift_argument_must_match_the_path(self):
        p = drift_path(0.5, 0.0, 1.0)
        with pytest.raises(InvalidParameter):
            infimum_decomposition(p, 0.25)


class TestDividendIntegralPath:
    def test_matches_cumulative_dividends(self):
        p = drift_path(0.3, 0.0, 10.0, jumps=[(5.0, -0.6)])
        traj = refract_exact(p, b=1.0, alpha=0.4, case=case_for(0.3, 0.4))
        curve = dividend_integral_path(traj)
        ts = np.linspace(0.0, 10.0, 101)
        np.testing.assert_allclose(curve.value_at(ts), traj.dividends_at(ts),
                                   atol=1e-12)
        assert curve.end_value() == pytest.approx(traj.dividends_at(10.0))

    def test_discounted_flow_matches_quadrature(self, ref_spec_bv):
        """Closed-form discounted flows against the midpoint rule on the
        cumulative flows, up to the path horizon (None), an interior time,
        and the times of the last injection and lump-dividend atoms, which
        count at the stop time.  The two-sided limit carries lump dividends."""
        p = sample_path(ref_spec_bv, 5.0, EXACT, RngStream(91, tag=5, index=0))
        refr, _ = refracted_reflected_exact(p, b=1.0, alpha=0.5,
                                            case=classify_case(ref_spec_bv, 0.5))
        q = 0.05
        for traj in (refr, reflect_two_sided(p, b=1.0)):
            stops = [None, 2.3, *traj.r_atom_t[-1:], *traj.l_atom_t[-1:]]
            assert len(stops) == (3 if traj is refr else 4)
            for stop in stops:
                dl, dr = traj.discounted_flow(q, stop)
                end = 5.0 if stop is None else stop
                knots = traj.segment_times()
                grid = np.union1d(np.linspace(0, end, 20001), knots[knots <= end])
                mids = 0.5 * (grid[:-1] + grid[1:])
                dl_num = np.sum(np.exp(-q * mids) * np.diff(traj.dividends_at(grid)))
                dr_num = np.sum(np.exp(-q * mids) * np.diff(traj.injections_at(grid)))
                assert dl == pytest.approx(dl_num, abs=2e-5), stop
                assert dr == pytest.approx(dr_num, abs=2e-5), stop
