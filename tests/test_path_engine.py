import dis
import inspect
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyrefract.levy_model import (
    InvalidParameter, RngStream, sample_path,
)
from levyrefract import path_engine
from levyrefract.path_engine import (
    BRANCH_AT_B, BRANCH_FLOOR, BRANCH_INTERIOR, _regime_table, floored_lane_sweep, read_knots,
    read_segments, trajectory_table,
)
from levyrefract.strategy_engine import ControlledTrajectory, StrategyParams

from conftest import (
    assert_floored_is, draw_path, drift_path, event_columns, every_path, floored_flows, one_path,
    own_starts, refract_exact, refracted_reflected_exact,
)
from oracles import (
    TABLE_ROWS, EventPath, _next_target, _regime, _sweep, construction_identity_residual,
    dividend_integral_path, dividends_at, draw_random_bv_setup, edge_paths, end_value, event_paths,
    first_passage_times, floor_decomposition, injections_at, left_limit_at, lump_atoms,
    reference_table, running_floor_reflection, running_inf_of_neg_part, slopes, sticks,
    table_rows, value_at,
)

# the transforms on one EventPath, through the src readers
refract = one_path(refract_exact)
floored = one_path(refracted_reflected_exact)


def test_event_columns_refuses_paths_of_two_drifts():
    """One draw has one drift and one horizon, so the packer of hand-built
    paths refuses paths that differ in either rather than sweep them all
    at the first one's."""
    for other in (drift_path(-0.4, 0.5, 3.0), drift_path(0.3, 0.5, 4.0)):
        with pytest.raises(ValueError):
            event_columns([drift_path(0.3, 0.5, 3.0), other])
    cols = event_columns([drift_path(0.3, 0.5, 3.0), drift_path(0.3, -1.0, 3.0, [(1.0, 2.0)])])
    assert (cols.drift, cols.horizon, cols.counts.tolist()) == (0.3, 3.0, [0, 1])


class TestRefractExact:
    def test_transversal_crossing_ramp_then_drain(self):
        """delta above the cap: slope delta below b, delta - alpha above."""
        p = drift_path(1.0, 0.0, 4.0)
        traj = refract(p, b=1.0, alpha=0.4)
        ts = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
        np.testing.assert_allclose(value_at(traj, ts), [0.0, 0.5, 1.0, 1.6, 2.8])
        np.testing.assert_allclose(traj.seg_t, [0.0, 1.0])
        np.testing.assert_allclose(dividends_at(traj, ts), [0, 0, 0, 0.4, 1.2])
        np.testing.assert_allclose(injections_at(traj, ts), 0.0, atol=1e-15)

    def test_discounted_dividends_closed_form(self):
        p = drift_path(1.0, 0.0, 4.0)
        # the refracted path from 0 never falls below 0, so it is the floored one
        assert_floored_is(refract(p, b=1.0, alpha=0.4), p, 1.0, 0.4)
        q = 0.05
        dl, dr = floored_flows(p, 1.0, 0.4, q)
        assert dl == pytest.approx(0.4 * (math.exp(-q) - math.exp(-4 * q)) / q, rel=1e-12)
        assert dr == 0.0

    def test_sticky_threshold(self):
        # drift 0.3 inside [0, alpha]: the trajectory parks at b and the
        # dividend rate equals the drift there
        p = drift_path(0.3, 0.0, 10.0)
        traj = refract(p, b=1.0, alpha=0.4)
        tb = 1.0 / 0.3
        ts = np.array([1.0, tb, 5.0, 10.0])
        np.testing.assert_allclose(value_at(traj, ts), [0.3, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(dividends_at(traj, ts),
                                   [0.0, 0.0, 0.3 * (5 - tb), 0.3 * (10 - tb)])
        assert traj.seg_branch[-1] == BRANCH_AT_B

    def test_sticky_jump_knockdown_and_return(self):
        p = drift_path(0.3, 0.0, 10.0, jumps=[(5.0, -0.6)])
        traj = refract(p, b=1.0, alpha=0.4)
        assert value_at(traj, 5.0) == pytest.approx(0.4)
        assert left_limit_at(traj, 5.0) == pytest.approx(1.0)
        assert value_at(traj, 7.0) == pytest.approx(1.0)
        # no dividends while recovering on (5, 7)
        assert dividends_at(traj, 7.0) == pytest.approx(dividends_at(traj, 5.0))
        tb = 1.0 / 0.3
        assert dividends_at(traj, 10.0) == pytest.approx(0.3 * (5 - tb) + 0.3 * 3)

    def test_perpetual_sticky_flow(self):
        # started at the threshold, the sticky stream pays delta for good:
        # e^{-0.05 * 1000} ~ 2e-22 is below the last bit of 0.3 / 0.05
        p = drift_path(0.3, 1.0, 1000.0)
        assert_floored_is(refract(p, b=1.0, alpha=0.5), p, 1.0, 0.5)
        dl, _ = floored_flows(p, 1.0, 0.5, 0.05)
        assert dl == pytest.approx(0.3 / 0.05, rel=1e-12)

    def test_alpha_validation(self):
        """The floored strategy, which apply_strategy_exact sweeps, takes no
        cap that is not positive."""
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidParameter):
                StrategyParams(b=1.0, alpha=bad, beta=1.5, q=0.05)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.05, 0.95), st.floats(0.1, 8.0))
    def test_drift_only_formula(self, x0, alpha, t):
        """Jump-free trajectory: ramp at delta to b, then drain at delta - alpha."""
        delta, b = 1.2, 1.0
        p = drift_path(delta, x0, 8.0)
        traj = refract(p, b=b, alpha=alpha)
        tb = (b - x0) / delta
        want = x0 + delta * t if t <= tb else b + (delta - alpha) * (t - tb)
        assert value_at(traj, t) == pytest.approx(want, abs=1e-12)
        assert dividends_at(traj, t) == pytest.approx(alpha * max(t - tb, 0.0), abs=1e-12)


class TestRefractedReflected:
    def hand_traj(self):
        p = drift_path(1.0, 0.5, 4.0, jumps=[(2.0, -2.0)])
        return p, floored(p, b=1.0, alpha=0.4)

    def test_jump_through_floor_tops_up(self):
        p, traj = self.hand_traj()
        ts = np.array([0.25, 1.0, 2.0, 2.5, 3.0, 4.0])
        np.testing.assert_allclose(value_at(traj, ts),
                                   [0.75, 1.3, 0.0, 0.5, 1.0, 1.6])
        for got, want in zip(lump_atoms(traj, traj.seg_rlump), ([2.0], [0.1])):
            np.testing.assert_allclose(got, want)
        np.testing.assert_allclose(dividends_at(traj, 4.0), 0.4 * 1.5 + 0.4 * 1.0)
        np.testing.assert_allclose(injections_at(traj, ts),
                                   [0, 0, 0.1, 0.1, 0.1, 0.1])

    def test_trajectory_is_driver_less_dividends_plus_injections(self):
        p, traj = self.hand_traj()
        ts = np.linspace(0.0, 4.0, 33)
        np.testing.assert_allclose(
            value_at(traj, ts),
            p.value_at(ts) - dividends_at(traj, ts) + injections_at(traj, ts),
            atol=1e-12)

    def test_pinned_at_floor_under_negative_drift(self):
        p = drift_path(-1.0, 0.5, 3.0)
        traj = floored(p, b=2.0, alpha=0.5)
        dec = floor_decomposition(traj, p)
        ts = np.array([0.25, 0.5, 1.5, 3.0])
        np.testing.assert_allclose(value_at(traj, ts), [0.25, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(injections_at(traj, ts), [0.0, 0.0, 1.0, 2.5])
        assert traj.seg_branch[-1] == BRANCH_FLOOR
        np.testing.assert_allclose(dec.infimum_at(ts), [0.0, 0.0, -1.0, -2.5])
        np.testing.assert_allclose(dec.boundary_integral_at(ts), [0.0, 0.0, -1.0, -2.5])

    def test_negative_start_is_topped_up_at_time_zero(self):
        p = drift_path(1.0, -0.3, 2.0)
        traj = floored(p, b=1.0, alpha=0.4)
        dec = floor_decomposition(traj, p)
        assert value_at(traj, 0.0) == 0.0
        for got, want in zip(lump_atoms(traj, traj.seg_rlump), ([0.0], [0.3])):
            np.testing.assert_allclose(got, want)
        assert dec.initial_part == pytest.approx(-0.3)

    def test_negative_barrier_rejected(self):
        """The floored strategy takes no threshold below the floor."""
        with pytest.raises(InvalidParameter) as err:
            StrategyParams(b=-0.5, alpha=0.4, beta=1.5, q=0.05)
        assert err.value.field_name == "b"

    def test_zero_threshold_pays_flat_cap(self):
        """b = 0 with drift above the cap: dividends accrue at exactly alpha t."""
        p = drift_path(1.0, 0.0, 6.0, jumps=[(2.0, -3.0), (4.0, 0.5)])
        traj = floored(p, b=0.0, alpha=0.4)
        ts = np.linspace(0.0, 6.0, 25)
        np.testing.assert_allclose(dividends_at(traj, ts), 0.4 * ts, atol=1e-12)

    def test_construction_residual_on_sampled_paths(self, ref_spec_bv):
        for alpha, b in ((0.5, 1.2), (0.7, 0.8)):
            for i in range(40):
                p = draw_path(ref_spec_bv, 5.0, RngStream(31, tag=2, index=i))
                traj = floored(p, b=b, alpha=alpha)
                assert construction_identity_residual(p, traj) <= 1e-12


class TestReflectionLimits:
    def band_path(self):
        return drift_path(1.0, 0.5, 3.0, jumps=[(2.0, -2.0), (2.5, 2.0)])

    def test_two_sided_band(self):
        """Infinite-rate limit: lump dividends above b, lump injections below 0."""
        traj = floored(self.band_path(), 1.0, math.inf)
        ts = np.array([0.25, 1.0, 2.0, 2.25, 2.5, 3.0])
        np.testing.assert_allclose(value_at(traj, ts),
                                   [0.75, 1.0, 0.0, 0.25, 1.0, 1.0])
        for got, want in zip(lump_atoms(traj, traj.seg_llump) + lump_atoms(traj, traj.seg_rlump),
                             ([2.5], [1.5], [2.0], [1.0])):
            np.testing.assert_allclose(got, want)
        assert dividends_at(traj, 3.0) == pytest.approx(1.5 + 1.5 + 0.5)
        assert injections_at(traj, 3.0) == pytest.approx(1.0)

    def test_from_above_leaves_the_floor_open(self):
        traj = refract(self.band_path(), 1.0, math.inf)
        ts = np.array([1.0, 2.0, 2.25, 2.5, 3.0])
        np.testing.assert_allclose(value_at(traj, ts), [1.0, -1.0, -0.75, 1.0, 1.0])
        np.testing.assert_allclose(injections_at(traj, ts), 0.0, atol=1e-15)
        np.testing.assert_allclose(lump_atoms(traj, traj.seg_llump)[1], [0.5])
        assert dividends_at(traj, 3.0) == pytest.approx(1.5 + 0.5 + 0.5)

    def test_start_above_barrier_pays_immediately(self):
        traj = refract(drift_path(0.2, 2.0, 1.0), 1.0, math.inf)
        assert value_at(traj, 0.0) == 1.0
        for got, want in zip(lump_atoms(traj, traj.seg_llump), ([0.0], [1.0])):
            np.testing.assert_allclose(got, want)

    def test_two_sided_at_zero_pins_at_the_floor(self):
        """At b = 0 a falling path is pinned at 0, where it draws injections
        at rate -delta: the two-sided limit labels that stretch BRANCH_FLOOR,
        as the finite-rate sweep does at b = 0."""
        delta = -0.5
        p = drift_path(delta, 0.4, 3.0, jumps=[(1.0, 0.8), (2.0, -0.6)])
        traj = floored(p, 0.0, math.inf)
        refr = floored(p, 0.0, 0.5)
        for t in (traj, refr):
            pinned = (t.seg_v == 0.0) & (slopes(t) == 0.0)
            assert pinned.any()
            assert np.all(t.seg_branch[pinned] == BRANCH_FLOOR)
            assert np.all(t.rates[2, t.seg_branch][pinned] == -delta)
        np.testing.assert_allclose(lump_atoms(traj, traj.seg_llump)[1], [0.4, 0.8])
        np.testing.assert_allclose(lump_atoms(traj, traj.seg_rlump)[0], [2.0])
        assert injections_at(traj, 3.0) == pytest.approx(-delta * 3.0 + 0.6)

    def test_gap_to_the_band_limit_never_grows_with_alpha(self, ref_spec_bv):
        """Trajectories are ordered in alpha, so the one-sided gap to the
        rate-unbounded limit is non-increasing.  It need not vanish: an
        up-jump from just below b lands the same distance above b at every
        finite rate."""
        p = draw_path(ref_spec_bv, 6.0, RngStream(77, tag=3, index=4))
        limit = refract(p, 1.0, math.inf)
        ts = np.union1d(np.linspace(0, 6.0, 601), limit.seg_t)
        gaps = []
        for alpha in (1.0, 4.0, 16.0, 64.0):
            traj = refract(p, b=1.0, alpha=alpha)
            ts_a = np.union1d(ts, traj.seg_t)
            diff = value_at(traj, ts_a) - value_at(limit, ts_a)
            assert np.min(diff) >= -1e-12
            gaps.append(np.max(diff))
        assert all(g1 >= g2 - 1e-12 for g1, g2 in zip(gaps, gaps[1:]))

    def test_sticky_refraction_equals_the_limit_without_up_jumps(self):
        # with only downward jumps nothing ever lands above b, so once the
        # rate cap exceeds the drift the refracted and pushed-down paths agree
        p = drift_path(1.2, 0.3, 6.0, jumps=[(1.5, -0.9), (3.0, -0.2), (4.2, -1.4)])
        limit = refract(p, 1.0, math.inf)
        traj = refract(p, b=1.0, alpha=2.0)
        ts = np.union1d(np.union1d(np.linspace(0, 6.0, 601), limit.seg_t),
                        traj.seg_t)
        np.testing.assert_allclose(value_at(traj, ts), value_at(limit, ts), atol=1e-12)
        np.testing.assert_allclose(dividends_at(traj, ts), dividends_at(limit, ts),
                                   atol=1e-12)

    def test_running_inf_matches_brute_force(self, ref_spec_bv):
        p = draw_path(ref_spec_bv, 5.0, RngStream(78, tag=3, index=9))
        traj = refract(p, b=0.8, alpha=0.5)
        # linear pieces attain extrema at segment ends, so a grid containing
        # every segment time sees the true minimum via left limits
        grid = np.union1d(np.linspace(0, 5.0, 2001), traj.seg_t)
        lows = np.minimum(np.minimum(value_at(traj, grid), left_limit_at(traj, grid)), 0.0)
        want = np.minimum.accumulate(lows)
        queries = np.array([0.7, 1.9, 3.3, 5.0])
        got = running_inf_of_neg_part(traj, queries)
        for t, g in zip(queries, got):
            assert g == pytest.approx(want[grid <= t][-1], abs=1e-12)


class TestInfiniteCapFold:
    """alpha = inf runs through the two transforms, with stickiness at b
    read off the drift of the draw.  The reference is the rule the dedicated
    reflection limits used: the lump-dividend sweep, sticky at b iff the
    drift is positive."""

    def test_case_label_reproduces_the_drift_sign_rule(self):
        """Bitwise equal whenever delta != 0.  At delta = 0 the path is in
        Case 2, so a stretch parked at b reads BRANCH_AT_B, as at every
        finite alpha, and every array is equal by ==."""
        rng = np.random.default_rng(20261018)
        drifts = (-1.3, -0.4, 0.0, 0.35, 1.1, None)
        # the paths of each (drift, threshold) in one table
        groups = {}
        for d in range(4200):
            delta = drifts[d % 6]
            if delta is None:
                delta = rng.uniform(-1.5, 1.5)
            b = (0.0, 1.0, rng.uniform(0.1, 2.0))[(d // 6) % 3]
            x = (-rng.uniform(0.05, 0.5), 0.0, b,
                 b + rng.uniform(0.05, 1.0))[(d // 18) % 4]
            times = np.sort(rng.uniform(0.0, 10.0, rng.poisson(8.0)))
            groups.setdefault((delta, b), []).append(EventPath(
                x0=x, horizon=10.0, drift=delta, times=times,
                sizes=rng.normal(0.0, 0.8, times.size)))
        n_zero = n_relabel = 0
        for (delta, b), paths in groups.items():
            for floor in (False, True):
                table = own_starts(paths, b, math.inf, floor)
                for i, path in enumerate(paths):
                    got = table.block(i, i + 1)
                    want = _sweep(path, b, math.inf, path.drift > 0, floor)
                    assert got.horizon == want.horizon
                    rows = table_rows(want)
                    for name, g in table_rows(got).items():
                        w = rows[name]
                        if delta != 0.0:
                            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (
                                delta, b, i, name)
                        elif name != "seg_branch":
                            assert g.shape == w.shape and np.all(g == w), (delta, b, i, name)
                    if delta == 0.0:
                        n_zero += 1
                        moved = got.seg_branch != want.seg_branch
                        assert np.all(got.seg_branch[moved] == BRANCH_AT_B)
                        assert np.all(np.isin(want.seg_branch[moved],
                                              (BRANCH_INTERIOR, BRANCH_FLOOR)))
                        n_relabel += bool(moved.any())
        assert n_zero == 1400 and n_relabel > 0


class TestFloorDecomposition:
    def test_jump_top_ups_split(self):
        p = drift_path(0.5, 0.0, 3.0, jumps=[(1.0, -1.0), (2.0, -0.7)])
        dec = running_floor_reflection(p)
        ts = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        np.testing.assert_allclose(dec.infimum_at(ts), [0, -0.5, -0.5, -0.7, -0.7])
        np.testing.assert_allclose(dec.jump_sum_at(ts), [0, -0.5, -0.5, -0.7, -0.7])
        np.testing.assert_allclose(dec.boundary_integral_at(ts), 0.0, atol=1e-15)
        assert dec.initial_part == 0.0
        np.testing.assert_allclose(value_at(dec.reflected, ts),
                                   p.value_at(ts) - dec.infimum_at(ts), atol=1e-12)

    def test_boundary_component_accrues_only_at_the_floor(self):
        p = drift_path(-0.4, 0.2, 3.0, jumps=[(1.0, 1.0)])
        dec = running_floor_reflection(p)
        assert dec.boundary_integral_at(0.75) == pytest.approx(-0.1)
        assert dec.boundary_integral_at(3.0) == pytest.approx(-0.2)
        assert dec.infimum_at(3.0) == pytest.approx(-0.2)
        assert value_at(dec.reflected, 3.0) == pytest.approx(0.2)

    def test_three_components_sum_to_the_infimum(self, ref_spec_bv):
        for i in range(25):
            p = draw_path(ref_spec_bv, 4.0, RngStream(55, tag=4, index=i))
            p = replace(p, x0=p.x0 - 0.8)
            dec = running_floor_reflection(p)
            ts = np.linspace(0.0, 4.0, 41)
            total = (dec.boundary_integral_at(ts) + dec.initial_part
                     + dec.jump_sum_at(ts))
            np.testing.assert_allclose(dec.infimum_at(ts), total, atol=1e-12)
            np.testing.assert_allclose(value_at(dec.reflected, ts),
                                       p.value_at(ts) - dec.infimum_at(ts),
                                       atol=1e-12)
            assert np.all(value_at(dec.reflected, ts) >= -1e-12)


class TestDividendIntegralPath:
    def test_matches_cumulative_dividends(self):
        p = drift_path(0.3, 0.0, 10.0, jumps=[(5.0, -0.6)])
        traj = refract(p, b=1.0, alpha=0.4)
        curve = dividend_integral_path(traj)
        ts = np.linspace(0.0, 10.0, 101)
        np.testing.assert_allclose(value_at(curve, ts), dividends_at(traj, ts),
                                   atol=1e-12)
        assert end_value(curve) == pytest.approx(dividends_at(traj, 10.0))

    def test_discounted_flow_matches_quadrature(self, ref_spec_bv):
        """Closed-form discounted flows against the midpoint rule on the
        cumulative flows: the table's up to the path horizon (None), and the
        reference's up to an interior time and the times of the last
        injection and lump-dividend atoms, which count at the stop time.
        The table's flows are those floored_flows reads off the lane sweep.
        The two-sided limit carries lump dividends."""
        p = draw_path(ref_spec_bv, 5.0, RngStream(91, tag=5, index=0))
        q = 0.05
        for alpha in (0.5, math.inf):
            traj, ref = floored(p, 1.0, alpha), _sweep(p, 1.0, alpha, sticks(p, alpha), True)
            stops = [None, 2.3, *lump_atoms(traj, traj.seg_rlump)[0][-1:],
                     *lump_atoms(traj, traj.seg_llump)[0][-1:]]
            assert len(stops) == (3 if alpha == 0.5 else 4)
            for stop in stops:
                if stop is None:
                    dl, dr = floored_flows(p, 1.0, alpha, q)
                else:
                    dl, dr = ref.discounted_flow(q, stop)
                end = 5.0 if stop is None else stop
                knots = traj.seg_t
                grid = np.union1d(np.linspace(0, end, 20001), knots[knots <= end])
                mids = 0.5 * (grid[:-1] + grid[1:])
                dl_num = np.sum(np.exp(-q * mids) * np.diff(dividends_at(traj, grid)))
                dr_num = np.sum(np.exp(-q * mids) * np.diff(injections_at(traj, grid)))
                assert dl == pytest.approx(dl_num, abs=2e-5), stop
                assert dr == pytest.approx(dr_num, abs=2e-5), stop


def assert_one_row_per_segment(table):
    """Every row of table has an entry per segment, counts.sum() of them,
    and no lump is below 0."""
    assert table.counts.ndim == 1 and table.rates.shape == (3, 4)
    for name in TABLE_ROWS:
        assert getattr(table, name).shape == (table.counts.sum(),), name
    assert np.all(table.seg_llump >= 0.0) and np.all(table.seg_rlump >= 0.0)


def assert_table_is_the_reference(table, paths, b, alpha, floor):
    """Every row of table, the slope and rates of each segment by its branch
    and the counts equal, sign bits included, those of the _sweep
    trajectories of paths joined end to end, each path's atoms added onto
    its knots."""
    want = reference_table(paths, b, alpha, floor)
    assert table.horizon == paths[0].horizon
    assert_one_row_per_segment(table)
    for name, got in table_rows(table).items():
        ref = want[name]
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert np.array_equal(got, ref), name
        assert np.array_equal(np.signbit(got), np.signbit(ref)), name


def random_models():
    """The random models of TestTrajectoryTable, (columns, paths, params):
    six paths of each, from starts below 0, at 0, at b, inside (0, b) and
    above b."""
    rng = np.random.default_rng(20261019)
    for j in range(120):
        spec, pp, x, _, _ = draw_random_bv_setup(rng)
        cols = sample_path(spec, 5.0, 6, RngStream(360, tag=j))
        starts = (x, 0.0, pp.b, -0.3, pp.b + 0.4, 0.5 * pp.b)
        yield cols, [replace(p, x0=s) for p, s in zip(event_paths(cols), starts)], pp


class TestTrajectoryTable:
    """The table reader of event_steps against the scalar sweep _sweep, the
    reference it replaces, bit for bit."""

    def test_every_atom_of_the_reference_is_at_a_knot(self):
        """The premise of a table of one row per segment: every atom _sweep
        pays falls at a knot of its path, so it rides on the segment that
        starts there.  The random models, and the edge paths (a start below
        the floor meets an event at 0, and an event falls at the horizon),
        each at b = 0 and at its b, at its cap and an infinite one, floored
        and not.  Atoms of one time on one path, which a table adds into
        one lump, occur."""
        models = [(paths, pp.b, pp.alpha) for _, paths, pp in random_models()]
        n_atoms = n_shared = 0
        for paths, b0, alpha0 in models + [(edge_paths(3.0), 1.0, 0.5)]:
            for b, alpha, floor in itertools.product((0.0, b0), (alpha0, math.inf),
                                                     (False, True)):
                for p in paths:
                    ref = _sweep(p, b, alpha, sticks(p, alpha), floor)
                    for atom_t in (ref.l_atom_t, ref.r_atom_t):
                        assert np.isin(atom_t, ref.seg_t).all(), (p, b, alpha, floor)
                        n_atoms += atom_t.size
                        n_shared += atom_t.size - np.unique(atom_t).size
        assert n_atoms > 1000 and n_shared > 0

    def test_random_models_bitwise(self):
        """Random models at b = 0, at their own b and at b = inf, at their
        own cap and at an infinite one, with and without the floor, from
        starts below 0, at 0, at b, inside (0, b) and above b.  The same
        events at the two ends of Case 2, drift 0 and drift alpha, run at
        their own b and cap."""
        n_models = n_atoms = n_branches = 0
        for cols, paths, pp in random_models():
            for drift in (0.0, pp.alpha):
                edge = [replace(p, drift=drift) for p in paths]
                for floor in (False, True):
                    table = own_starts(edge, pp.b, pp.alpha, floor)
                    assert_table_is_the_reference(table, edge, pp.b, pp.alpha, floor)
            for b in (0.0, pp.b, math.inf):
                for alpha in (pp.alpha, math.inf):
                    for floor in (False, True):
                        table = own_starts(paths, b, alpha, floor)
                        assert_table_is_the_reference(table, paths, b, alpha, floor)
                        n_atoms += np.count_nonzero(table.seg_rlump)
                        n_atoms += np.count_nonzero(table.seg_llump)
                        n_branches |= np.bitwise_or.reduce(1 << table.seg_branch)
                        # a one-path table is its path alone
                        (one,) = trajectory_table(cols.block(2, 3), pp.b, b, alpha, floor)
                        assert_table_is_the_reference(one, paths[2:3], b, alpha, floor)
            n_models += 1
        assert n_models >= 100 and n_atoms > 0 and n_branches == 0b1111

    def test_one_sort_per_call(self, monkeypatch):
        """The lumps ride on their segments, so a call sorts once: two
        roles, one paying lump dividends and top-ups, the other top-ups."""
        paths = [drift_path(0.5, 0.0, 4.0, jumps=[(1.0, 2.0), (2.0, -3.0)]),
                 drift_path(0.5, 0.0, 4.0, jumps=[(0.5, -1.0)])]
        calls, argsort = [], np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(a) or argsort(*a, **k))
        tables = trajectory_table(event_columns(paths), [-0.5, 0.5], 1.0, [math.inf, 0.5], True)
        assert len(calls) == 1
        assert tables[0].seg_llump.any() and all(t.seg_rlump.any() for t in tables)

    @pytest.mark.parametrize("b,jump_at", [(1e-300, 2.0), (1.0, 4.0)])
    def test_zero_length_segments(self, b, jump_at):
        """The two zero-length segments of the lane sweep's tests: a jump
        onto 0 from which the drift reaches a tiny b at once (_sweep
        overwrites the segment at 0), and a jump onto 0 at the horizon (the
        last segment has zero length and is kept)."""
        to_zero = float(value_at(floored(drift_path(0.35, 0.5, 4.0), b, 0.3), jump_at))
        p = drift_path(0.35, 0.5, 4.0, jumps=[(jump_at, -to_zero)])
        for floor in (False, True):
            (table,) = trajectory_table(event_columns([p]), p.x0, b, 0.3, floor)
            assert_table_is_the_reference(table, [p], b, 0.3, floor)
            # one knot at the jump: at b, where it overwrote the one at 0,
            # or at 0 at the horizon
            assert table.seg_v[table.seg_t == jump_at].tolist() == [b if jump_at < 4.0 else 0.0]

    @pytest.mark.filterwarnings("error")
    def test_drift_only_tables_without_warnings(self):
        """Every drift-only table at a long horizon equals the reference,
        without a numpy warning."""
        for delta in (-1.0, 0.0, 0.3, 0.5, 2.0):
            for alpha in (0.5, math.inf):
                for b in (0.0, 1.0, math.inf):
                    for floor in (False, True):
                        paths = [drift_path(delta, x, 50.0) for x in (-0.5, 0.0, 0.5, 1.0, 3.0)]
                        table = own_starts(paths, b, alpha, floor)
                        assert_table_is_the_reference(table, paths, b, alpha, floor)

    def test_the_roles_of_one_sweep_are_their_own_tables(self):
        """Every role of one multi-role call is, field by field and byte for
        byte, the table of its own one-role call: random models, rungs at
        the model's cap, twice it and inf, floored and not, at b = 0 and at
        the model's b, on the model's drift and on the Case-2 drift alpha
        (sticky at b on every rung), from starts below 0, at 0, inside (0,
        b), at b and above b, the roles taking them in turn.  Every table,
        and blocks of it, has one entry per segment in each row."""
        names = TABLE_ROWS + ("rates", "counts")
        rng = np.random.default_rng(20261020)
        n_roles = n_sticky = 0
        for j in range(30):
            spec, pp, x, _, _ = draw_random_bv_setup(rng)
            cols = sample_path(spec, 5.0, 5, RngStream(361, tag=j))
            starts = (-0.3, 0.0, 0.5 * pp.b, pp.b, pp.b + 0.4)
            for drift in (cols.drift, pp.alpha):
                edge = replace(cols, drift=drift)
                roles = [(starts[k % 5], b, a, f) for k, (b, f, a) in enumerate(itertools.product(
                    (0.0, pp.b), (True, False), (pp.alpha, 2.0 * pp.alpha, math.inf)))]
                for table, role in zip(trajectory_table(edge, *zip(*roles)), roles):
                    (one,) = trajectory_table(edge, *role)
                    for t in (table, one, table.block(1, 4), table.block(4, 2)):
                        assert_one_row_per_segment(t)
                    for name in names:
                        assert getattr(table, name).tobytes() == getattr(one, name).tobytes()
                    n_roles += 1
                    n_sticky += bool(np.any(table.seg_branch == BRANCH_AT_B))
        assert n_roles == 30 * 2 * 12 and n_sticky > 0


# drifts and caps at the edges of each regime, signed zeros and subnormals
# included, and a representative (z, b) of each state class (z > b) + 2
# (z == b) + 3 (z == 0)
DELTAS = (-2.0, -0.5, -1e-300, -0.0, 0.0, 1e-300, 0.3, 0.5, 0.7, 5.0)
ALPHAS = (1e-300, 0.3, 0.5, 2.0, math.inf)
CLASS_POINTS = ((0.5, 1.0), (2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (0.0, -1.0), (0.0, 0.0))


def scalar_regime_table(alpha, delta, floor):
    """The six state-class columns of one row of lanes off the oracle's
    scalar rule, each at its representative (z, b): (slope, dividend rate,
    injection rate, branch, target), the target inf for b, 0.0 for 0 and
    nan for none."""
    sticky, cols = sticks(EventPath(0.0, 1.0, delta), alpha), []
    for z, b in CLASS_POINTS:
        slope, lrate, rrate, branch = _regime(z, b, alpha, delta, sticky, floor)
        target = _next_target(z, slope, b, floor)
        cols.append((slope, lrate, rrate, branch,
                     math.nan if target is None else math.inf if target == b else 0.0))
    return np.array(cols).T


def global_names(fn):
    """The global names that fn's code, nested code included, loads."""
    codes, names = [fn.__code__], set()
    while codes:
        code = codes.pop()
        names |= {ins.argval for ins in dis.get_instructions(code)
                  if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME")}
        codes += [c for c in code.co_consts if inspect.iscode(c)]
    return names


class TestRegimeTable:
    """path_engine._regime_table, the closed-form rule of every exact lane,
    against the scalar rule of the reference sweep, which shares no code
    with it."""

    @pytest.mark.parametrize("delta", DELTAS)
    def test_is_the_scalar_rule(self, delta):
        """Byte for byte, so signed zeros and nan placement count, at every
        cap, floored and not."""
        for alpha in ALPHAS:
            for floor in (False, True):
                got, want = _regime_table(alpha, delta, floor), scalar_regime_table(
                    alpha, delta, floor)
                assert got.shape == want.shape == (5, 6)
                assert got.tobytes() == want.tobytes(), (alpha, floor)

    def test_rows_are_their_tables_side_by_side(self):
        """A two-row call is the two one-row tables side by side."""
        rows = list(itertools.product(ALPHAS, (False, True)))
        for delta in DELTAS:
            for (a1, f1), (a2, f2) in itertools.combinations(rows, 2):
                got = _regime_table([a1, a2], delta, [f1, f2])
                want = np.hstack((_regime_table(a1, delta, f1), _regime_table(a2, delta, f2)))
                assert got.tobytes() == want.tobytes() and got.shape == (5, 12)

    def test_the_reference_sweep_shares_no_rule_with_src(self):
        """_sweep, sticks and the oracle functions they call load no name
        that resolves to a function, class or module of levyrefract, so a
        wrong regime rule in src cannot hide in its own reference.  The
        BRANCH_* codes are shared constants."""
        todo, seen, shared = [_sweep, sticks], set(), []
        while todo:
            fn = todo.pop()
            seen.add(fn)
            for name in global_names(fn):
                obj = fn.__globals__.get(name)
                if not (inspect.isfunction(obj) or inspect.isclass(obj)
                        or inspect.ismodule(obj)):
                    continue  # a constant, which may be shared
                where = obj.__name__ if inspect.ismodule(obj) else obj.__module__
                if where.split(".")[0] == "levyrefract":
                    shared.append((fn.__name__, name, where))
                elif inspect.isfunction(obj) and where == fn.__module__ and obj not in seen:
                    todo.append(obj)
        assert not shared
        assert {_regime, _next_target, sticks} <= seen


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestReadSegments:
    """The block reader against the one-path references, bit for bit."""

    @staticmethod
    def read(table, path, t, drivers=None):
        """read_segments on table, checked path by path against the one-path
        references on each path's block of it; drivers the pair (columns,
        start) of read_segments."""
        path, t = np.asarray(path), np.asarray(t, dtype=float)
        (got,), driver = read_segments([table], path, t, drivers)
        for i in range(table.counts.size):
            traj = table.block(i, i + 1)
            on, ts = path == i, t[path == i]
            for mine, ref in ((got.z, value_at), (got.z_left, left_limit_at),
                              (got.l, dividends_at), (got.r, injections_at)):
                np.testing.assert_array_equal(_bits(mine[on]), _bits(ref(traj, ts)))
            np.testing.assert_array_equal(got.knot[on], np.isin(ts, traj.seg_t))
            if drivers is not None:
                np.testing.assert_array_equal(_bits(driver[on]),
                                              _bits(event_paths(*drivers)[i].value_at(ts)))
        return got

    @staticmethod
    def probes(table, extra=()):
        """Every knot of every path of table, where its lumps are paid, on
        each of them, with extra, in (path, t) order."""
        ts = np.unique(np.concatenate([np.asarray(extra, dtype=float), table.seg_t]))
        m = table.counts.size
        return np.repeat(np.arange(m), ts.size), np.tile(ts, m)

    def test_knots_one_ulp_apart(self):
        """Events at 1, at the next double above it and at the one below it,
        on the paths of one block: no two of them merge."""
        up, down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
        paths = [drift_path(0.5, 0.2, 3.0, jumps=((1.0, -0.9), (up, 1.6))),
                 drift_path(0.5, 0.2, 3.0, jumps=((down, -0.4),)),
                 drift_path(0.5, -0.1, 3.0, jumps=((down, 2.0), (1.0, -3.0), (up, 0.5)))]
        table = own_starts(paths, 1.0, math.inf, True)
        assert {1.0, up} <= set(table.block(0, 1).seg_t.tolist())
        assert {down, 1.0, up} <= set(table.block(2, 3).seg_t.tolist())
        got = self.read(table, *self.probes(table, np.linspace(0.0, 3.0, 7)),
                        drivers=(event_columns(paths), 0.2))
        # each knot is found once, on its own path
        assert got.knot.sum() == table.seg_t.size

    def test_a_probe_on_another_paths_knot(self):
        """Path 0 jumps at 1.5 and path 1 does not: path 1 read at 1.5 sees
        no knot there, and its left limit is its value."""
        cols = event_columns([drift_path(0.3, 0.5, 3.0, jumps=((1.5, -0.8),)),
                              drift_path(0.3, 0.5, 3.0)])
        table = refracted_reflected_exact(cols, 0.5, 1.0, 0.2)
        got = self.read(table, [0, 1, 1], [1.5, 1.0, 1.5], drivers=(cols, 0.5))
        assert got.knot.tolist() == [True, False, False]
        assert got.z_left[2] == got.z[2] and got.z_left[0] != got.z[0]

    def test_a_one_path_table_at_its_knots_and_horizon(self):
        """sample-path reads a table of one path at its knots and the
        horizon; with an event at the horizon the last two probes are
        equal."""
        path = drift_path(0.2, 2.5, 3.0, jumps=((0.5, -0.7), (1.2, -2.4), (3.0, 3.0)))
        cols = event_columns([path])
        traj = refracted_reflected_exact(cols, 2.5, 1.0, 0.5)
        times = np.append(traj.seg_t, path.horizon)
        assert times[-1] == times[-2]
        got = self.read(traj, np.zeros(times.size, dtype=int), times, drivers=(cols, 2.5))
        sampled = ControlledTrajectory.from_exact(cols, 2.5, traj)
        for mine, ref in ((sampled.z, got.z), (sampled.l, got.l), (sampled.r, got.r),
                          (sampled.driver, path.value_at(times))):
            np.testing.assert_array_equal(_bits(mine), _bits(ref))



class TestReadKnots:
    """read_knots: each path's probes, and the readings there equal to
    read_segments at the same probes, bit for bit."""

    @staticmethod
    def check(tables, drivers=None, full=None):
        """read_knots on tables, its probes checked path by path and every
        reading against read_segments; returns the probes' (path, t)."""
        (path, t), readings, driver = read_knots(tables, drivers, full)
        assert (np.diff(path) >= 0).all() and set(path.tolist()) == set(
            range(tables[0].counts.size))
        for i in range(tables[0].counts.size):
            ts = t[path == i]
            knots = np.unique(np.concatenate(
                [tab.block(i, i + 1).seg_t for tab in tables] + [[tables[0].horizon]]))
            assert (np.diff(ts) > 0).all()
            on = np.isin(ts, knots)
            assert ts[on].tolist() == knots.tolist()
            # one midpoint between neighbours, unless it rounds onto one of them
            mid = 0.5 * (knots[:-1] + knots[1:])
            assert ts[~on].tolist() == mid[(mid != knots[:-1]) & (mid != knots[1:])].tolist()
        want, want_driver = read_segments(tables, path, t, drivers)
        for j, (got, ref) in enumerate(zip(readings, want)):
            np.testing.assert_array_equal(_bits(got.z), _bits(ref.z))
            if full is not None and j >= full:
                assert got.z_left is None and got.l is None and got.knot is None
                continue
            for name in ("z_left", "l", "r"):
                np.testing.assert_array_equal(_bits(getattr(got, name)),
                                              _bits(getattr(ref, name)))
            np.testing.assert_array_equal(got.knot, ref.knot)
        if drivers is None:
            assert driver is None
        else:
            np.testing.assert_array_equal(_bits(driver), _bits(want_driver))
        return path, t

    def test_a_one_segment_path(self):
        """A path that never jumps or crosses is one segment: its probes
        are 0, the midpoint and the horizon."""
        cols = event_columns([drift_path(0.1, 0.0, 3.0)])
        table = refracted_reflected_exact(cols, 0.2, 1.0, 0.5)
        assert table.counts.tolist() == [1]
        path, t = self.check([table], (cols, 0.2))
        assert path.tolist() == [0, 0, 0] and t.tolist() == [0.0, 1.5, 3.0]

    @pytest.mark.parametrize("full", [None, 1, 2])
    def test_lumps_at_first_and_last_segments(self, full):
        """Roles from below 0 (a top-up at 0), above b at alpha = inf (a
        dividend at 0) and unfloored, on a one-segment path, a path whose
        last jump needs a top-up, and one with an event at the horizon."""
        paths = [drift_path(0.1, 0.0, 3.0),
                 drift_path(0.1, 0.0, 3.0, jumps=((1.0, 0.3), (2.0, -1.5))),
                 drift_path(0.1, 0.0, 3.0, jumps=((0.5, 0.4), (3.0, -2.0)))]
        cols = event_columns(paths)
        tables = trajectory_table(cols, [-0.4, 2.0, 0.3], 1.0, [math.inf, math.inf, 0.5],
                                  [True, True, False])
        low, high, _ = tables
        assert low.counts[0] == 1 and low.seg_rlump[0] > 0.0  # top-up at the first segment
        assert high.seg_llump[0] > 0.0  # dividend at the first segment
        assert low.seg_rlump[low.counts[:2].sum() - 1] > 0.0  # top-up at path 1's last
        assert low.seg_t[-1] == 3.0 and low.seg_rlump[-1] > 0.0  # and at the horizon
        self.check(tables, (cols, 0.3), full)
        self.check(tables, None, full)

    def test_knots_one_ulp_apart(self):
        """Knots one double apart get no midpoint, which would round onto
        one of them."""
        up, down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
        paths = [drift_path(0.2, 0.0, 3.0, jumps=((down, -0.4), (1.0, 0.9), (up, 1.6))),
                 drift_path(0.2, 0.0, 3.0, jumps=((1.0, -0.9),))]
        cols = event_columns(paths)
        path, t = self.check(trajectory_table(cols, [0.3, 1.2], 1.0, 0.5, True), (cols, 0.3))
        ts = t[path == 0].tolist()
        assert ts[ts.index(down):ts.index(down) + 3] == [down, 1.0, up]

    def test_a_sampled_block_of_many_roles(self, ref_spec_bv):
        """Six sampled paths, floored and refracted roles at three caps: the
        alpha ladder's layout, read with and without full."""
        cols = sample_path(ref_spec_bv, 4.0, 6, RngStream(353, tag=5))
        rungs = (0.5, 2.0, math.inf)
        tables = trajectory_table(cols, 0.5, 1.0, rungs * 2, [True] * 3 + [False] * 3)
        self.check(tables, (cols, 0.5))
        self.check(tables, None, 3)

def stepper_lanes(paths, x, b, alpha, floor):
    """What event_steps yields for lane (j, i), path i started at x[j] with
    threshold b[j], in the order it comes: the rows
    (t, z, slope, lrate, rrate, branch) of the stretches it keeps, and the
    rows (time, size) of its nonzero dividend and top-up lumps."""
    lane_j, lane_i = np.indices((len(x), len(paths)))
    got = [[([], [], []) for _ in paths] for _ in x]
    steps = path_engine.event_steps(event_columns(paths), x[:, None], b[:, None], alpha,
                                    floor)
    for stretches, te, dividend, topup in steps:
        for at, t, _, z, _, slope, lrate, rrate, branch, kept in stretches:
            js, ids = lane_j[at], lane_i[at]
            rows = (np.broadcast_to(a, js.shape)[kept]
                    for a in (js, ids, t, z, slope, lrate, rrate, branch))
            for j, i, *row in zip(*rows):
                got[j][i][0].append(row)
        for lumps, into in ((dividend, 1), (topup, 2)):
            if lumps is not None:
                for j, i in zip(*np.nonzero(lumps)):
                    got[j][i][into].append((te[i], lumps[j, i]))
    return got


class TestFlooredLaneSweep:
    """The lane-batched sweep against the scalar one, lane by lane."""

    H, Q = 10.0, 0.05
    # starts below 0, at 0, at b, above b, and one inside (0, 1); and
    # b = inf, which sets no threshold
    POINTS = ([(x, b, spliced) for b in (0.0, 1.0)
               for x in (-0.5, 0.0, b, b + 0.7, 0.4) for spliced in (True, False)]
              + [(x, math.inf, spliced) for x in (-0.5, 0.0, 0.4, 2.0)
                 for spliced in (True, False)])

    def paths(self, delta):
        # unequal event counts exercise the padding; the first path has no
        # jumps, the second lands a lane parked at b = 1 exactly on 0
        rng = np.random.default_rng(17)
        out = [drift_path(delta, 0.0, self.H),
               drift_path(delta, 0.0, self.H, jumps=[(1.0, -1.0), (2.5, 0.6)])]
        for n in (3, 12, 7, 25, 1, 16):
            times = np.sort(rng.uniform(0.0, self.H, n))
            out.append(EventPath(0.0, self.H, delta, times, rng.normal(0.0, 0.9, n)))
        return out

    @pytest.mark.parametrize("alpha", [0.3, 0.5, math.inf])
    @pytest.mark.parametrize("delta", [-1.3, -0.4, 0.0, 0.35, 1.1])
    def test_matches_the_scalar_sweep(self, delta, alpha):
        paths = self.paths(delta)
        x, b, spliced = (np.array(c) for c in zip(*self.POINTS))
        mu = delta + 0.25  # a mean drift with a jump part
        got = floored_lane_sweep(event_columns(paths), x, b, spliced, alpha, self.Q, mu,
                                 every_path(len(x), len(paths)))
        assert got.t_weak.shape == (len(self.POINTS), len(paths))
        for j, (xj, bj, sj) in enumerate(self.POINTS):
            for i, p in enumerate(paths):
                traj = _sweep(replace(p, x0=p.x0 + xj), bj, alpha, sticks(p, alpha), True)
                (weak,) = first_passage_times(traj).t_weak
                assert got.t_weak[j, i] == weak
                assert (got.t_weak[j, i] == math.inf) == (weak == math.inf)
                stop = weak if sj else math.inf
                dl, dr = traj.discounted_flow(self.Q, min(stop, self.H))
                assert abs(got.dl[j, i] - dl) <= 1e-12
                assert abs(got.dr[j, i] - dr) <= 1e-12
                # the control: the jumps up to the stop, the one at it
                # included, and the drift's excess over mu, discounted
                tau = min(stop, self.H)
                on = p.times <= tau
                c = (np.sum(np.exp(-self.Q * p.times[on]) * p.sizes[on])
                     + (delta - mu) * (1.0 - math.exp(-self.Q * tau)) / self.Q)
                assert abs(got.c[j, i] - c) <= 1e-12

    def test_a_zero_length_stretch_at_0_is_no_visit(self):
        """A jump lands exactly on 0 and the drift reaches a tiny b at once:
        _sweep overwrites the zero-length segment at 0, so the lane does not
        visit 0 there."""
        b = 1e-300
        z2 = float(value_at(floored(drift_path(0.35, 0.5, 4.0), b, 0.3), 2.0))
        p = drift_path(0.35, 0.0, 4.0, jumps=[(2.0, -z2)])
        traj = floored(replace(p, x0=0.5), b, 0.3)
        assert first_passage_times(traj).t_weak[0] == math.inf
        got = floored_lane_sweep(event_columns([p]), [0.5], [b], [True], 0.3, self.Q, 0.0,
                                 every_path(1, 1))
        assert got.t_weak[0, 0] == math.inf

    def test_an_event_at_the_horizon_that_lands_on_0_is_a_visit(self):
        """The last segment of _sweep has zero length when the last event
        falls at the horizon, and it is kept: a jump there onto 0 is the
        lane's first visit to 0."""
        z = end_value(floored(drift_path(0.35, 0.5, 4.0), 1.0, 0.3))
        p = drift_path(0.35, 0.0, 4.0, jumps=[(4.0, -z)])
        traj = floored(replace(p, x0=0.5), 1.0, 0.3)
        assert first_passage_times(traj).t_weak[0] == 4.0
        got = floored_lane_sweep(event_columns([p]), [0.5], [1.0], [True], 0.3, self.Q, 0.0,
                                 every_path(1, 1))
        assert got.t_weak[0, 0] == 4.0

    @pytest.mark.parametrize("floor", [True, False])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, math.inf])
    @pytest.mark.parametrize("delta", [-1.3, -0.4, 0.0, 0.35, 1.1])
    def test_the_stepper_reads_the_scalar_sweep_bitwise(self, delta, alpha, floor):
        """Per lane, the stretches event_steps keeps are the segments of
        _sweep, and its nonzero lumps are the atoms: floored lanes at the
        (x, b) of POINTS, unfloored ones at b = 0 from each start."""
        paths = self.paths(delta)
        if floor:
            points = sorted({(x, b) for x, b, _ in self.POINTS})
        else:
            points = [(x, 0.0) for x in sorted({x for x, _, _ in self.POINTS})]
        x, b = (np.array(c) for c in zip(*points))
        got = stepper_lanes(paths, x, b, alpha, floor)
        for j, (xj, bj) in enumerate(points):
            for i, p in enumerate(paths):
                traj = _sweep(replace(p, x0=p.x0 + xj), bj, alpha, sticks(p, alpha), floor)
                segs, l_atoms, r_atoms = got[j][i]
                want = (traj.seg_t, traj.seg_v, traj.seg_slope, traj.seg_lrate, traj.seg_rrate,
                        traj.seg_branch)
                for column, ref in zip(np.reshape(segs, (-1, 6)).T, want):
                    assert np.array_equal(column, ref), (j, i)
                for atoms, ref in ((l_atoms, (traj.l_atom_t, traj.l_atom)),
                                   (r_atoms, (traj.r_atom_t, traj.r_atom))):
                    for column, r in zip(np.reshape(atoms, (-1, 2)).T, ref):
                        assert np.array_equal(column, r), (j, i)

    def test_a_lane_past_the_crossing_bound_raises(self, monkeypatch):
        # from above b on a falling drift: down to b, then down to 0
        p = drift_path(-1.3, 0.0, self.H)
        args = (event_columns([p]), [1.7], [1.0], [True], 0.5, self.Q, 0.0, every_path(1, 1))
        assert floored_lane_sweep(*args).t_weak[0, 0] == pytest.approx(0.7 / 1.8 + 1 / 1.3)
        monkeypatch.setattr(path_engine, "MAX_CROSSINGS", 1)
        with pytest.raises(RuntimeError):
            floored_lane_sweep(*args)
