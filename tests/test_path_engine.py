import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyrefract.levy_model import (
    EXACT, InvalidParameter, RngStream, sample_path,
)
from levyrefract import path_engine
from levyrefract.path_engine import (
    BRANCH_AT_B, BRANCH_FLOOR, BRANCH_INTERIOR, TABLE_FIELDS,
    floored_lane_sweep, read_segments, refract_exact, refracted_reflected_exact,
    trajectory_table,
)
from levyrefract.strategy_engine import ControlledTrajectory

from conftest import draw_path, drift_path, event_columns, one_path
from oracles import (
    EventPath, _sweep, construction_identity_residual, dividend_integral_path, dividends_at,
    draw_random_bv_setup, end_value, event_paths, first_passage_times, floor_decomposition,
    injections_at, left_limit_at, reference_table, running_floor_reflection,
    running_inf_of_neg_part, sticks, value_at,
)

# the transforms on one EventPath, through the src reader
refract = one_path(refract_exact)
floored = one_path(refracted_reflected_exact)


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
        traj = refract(p, b=1.0, alpha=0.4)
        q = 0.05
        (dl,), (dr,) = traj.discounted_flow(q)
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
        traj = refract(p, b=1.0, alpha=0.5)
        (dl,), _ = traj.discounted_flow(0.05)
        assert dl == pytest.approx(0.3 / 0.05, rel=1e-12)

    def test_alpha_validation(self):
        p = drift_path(1.0, 0.0, 1.0)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidParameter):
                refract(p, b=1.0, alpha=bad)

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
        np.testing.assert_allclose(traj.r_atom_t, [2.0])
        np.testing.assert_allclose(traj.r_atom, [0.1])
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
        np.testing.assert_allclose(traj.r_atom_t, [0.0])
        np.testing.assert_allclose(traj.r_atom, [0.3])
        assert dec.initial_part == pytest.approx(-0.3)

    def test_negative_barrier_rejected(self):
        p = drift_path(1.0, 0.0, 1.0)
        with pytest.raises(InvalidParameter) as err:
            floored(p, b=-0.5, alpha=0.4)
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
        np.testing.assert_allclose(traj.l_atom_t, [2.5])
        np.testing.assert_allclose(traj.l_atom, [1.5])
        np.testing.assert_allclose(traj.r_atom_t, [2.0])
        np.testing.assert_allclose(traj.r_atom, [1.0])
        assert dividends_at(traj, 3.0) == pytest.approx(1.5 + 1.5 + 0.5)
        assert injections_at(traj, 3.0) == pytest.approx(1.0)

    def test_from_above_leaves_the_floor_open(self):
        traj = refract(self.band_path(), 1.0, math.inf)
        ts = np.array([1.0, 2.0, 2.25, 2.5, 3.0])
        np.testing.assert_allclose(value_at(traj, ts), [1.0, -1.0, -0.75, 1.0, 1.0])
        np.testing.assert_allclose(injections_at(traj, ts), 0.0, atol=1e-15)
        np.testing.assert_allclose(traj.l_atom, [0.5])
        assert dividends_at(traj, 3.0) == pytest.approx(1.5 + 0.5 + 0.5)

    def test_start_above_barrier_pays_immediately(self):
        traj = refract(drift_path(0.2, 2.0, 1.0), 1.0, math.inf)
        assert value_at(traj, 0.0) == 1.0
        np.testing.assert_allclose(traj.l_atom_t, [0.0])
        np.testing.assert_allclose(traj.l_atom, [1.0])

    def test_two_sided_at_zero_pins_at_the_floor(self):
        """At b = 0 a falling path is pinned at 0, where it draws injections
        at rate -delta: the two-sided limit labels that stretch BRANCH_FLOOR,
        as the finite-rate sweep does at b = 0."""
        delta = -0.5
        p = drift_path(delta, 0.4, 3.0, jumps=[(1.0, 0.8), (2.0, -0.6)])
        traj = floored(p, 0.0, math.inf)
        refr = floored(p, 0.0, 0.5)
        for t in (traj, refr):
            pinned = (t.seg_v == 0.0) & (t.seg_slope == 0.0)
            assert pinned.any()
            assert np.all(t.seg_branch[pinned] == BRANCH_FLOOR)
            assert np.all(t.seg_rrate[pinned] == -delta)
        np.testing.assert_allclose(traj.l_atom, [0.4, 0.8])
        np.testing.assert_allclose(traj.r_atom_t, [2.0])
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

    ARRAYS = ("seg_t", "seg_v", "seg_slope", "seg_branch", "seg_lrate",
              "seg_rrate", "r_atom_t", "r_atom", "l_atom_t", "l_atom")

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
                transform = refracted_reflected_exact if floor else refract_exact
                table = transform(event_columns(paths), b, math.inf)
                for i, path in enumerate(paths):
                    got = table.block(i, i + 1)
                    want = _sweep(path, b, math.inf, path.drift > 0, floor)
                    assert got.horizon == want.horizon
                    for name in self.ARRAYS:
                        g, w = getattr(got, name), getattr(want, name)
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
        The two-sided limit carries lump dividends."""
        p = draw_path(ref_spec_bv, 5.0, RngStream(91, tag=5, index=0))
        q = 0.05
        for alpha in (0.5, math.inf):
            traj, ref = floored(p, 1.0, alpha), _sweep(p, 1.0, alpha, sticks(p, alpha), True)
            stops = [None, 2.3, *traj.r_atom_t[-1:], *traj.l_atom_t[-1:]]
            assert len(stops) == (3 if alpha == 0.5 else 4)
            for stop in stops:
                if stop is None:
                    (dl,), (dr,) = traj.discounted_flow(q)
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


def assert_table_is_the_reference(table, paths, b, alpha, floor):
    """Every field of table, sign bits included, and its counts equal the
    _sweep trajectories of paths joined end to end."""
    want = reference_table(paths, b, alpha, floor)
    assert table.horizon == paths[0].horizon
    for name in (name for names in TABLE_FIELDS for name in names):
        got, ref = getattr(table, name), want[name]
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert np.array_equal(got, ref), name
        assert np.array_equal(np.signbit(got), np.signbit(ref)), name
    assert np.array_equal(table.counts, want["counts"])


def assert_flows_are_the_reference(table, paths, b, alpha, floor, q) -> int:
    """The discounted flows of table equal, bit for bit, those of the
    _sweep trajectory of each path, added up in order.  Returns the number
    of paths without atoms."""
    got, n_flat = table.discounted_flow(q), 0
    for i, p in enumerate(paths):
        ref = _sweep(p, b, alpha, sticks(p, alpha), floor)
        assert _bits([f[i] for f in got]).tolist() == _bits(ref.discounted_flow(q)).tolist(), i
        n_flat += not (ref.l_atom.size or ref.r_atom.size)
    return n_flat


class TestTrajectoryTable:
    """The table reader of event_steps against the scalar sweep _sweep, the
    reference it replaces, bit for bit."""

    def test_random_models_bitwise(self):
        """Random models at b = 0, at their own b and at b = inf, at their
        own cap and at an infinite one, with and without the floor, from
        starts below 0, at 0, at b, inside (0, b) and above b.  The same
        events at the two ends of Case 2, drift 0 and drift alpha, run at
        their own b and cap."""
        rng = np.random.default_rng(20261019)
        n_models = n_atoms = n_branches = n_flat = 0
        for j in range(120):
            spec, pp, x, _, _ = draw_random_bv_setup(rng)
            cols = sample_path(spec, 5.0, EXACT, RngStream(360, tag=j), 6)
            cols = replace(cols, x0=np.array([x, 0.0, pp.b, -0.3, pp.b + 0.4, 0.5 * pp.b]))
            paths = event_paths(cols)
            for drift in (0.0, pp.alpha):
                edge = replace(cols, drift=drift)
                for floor in (False, True):
                    table = trajectory_table(edge, pp.b, pp.alpha, floor)
                    assert_table_is_the_reference(table, event_paths(edge), pp.b, pp.alpha,
                                                  floor)
            for b in (0.0, pp.b, math.inf):
                for alpha in (pp.alpha, math.inf):
                    for floor in (False, True):
                        table = trajectory_table(cols, b, alpha, floor)
                        assert_table_is_the_reference(table, paths, b, alpha, floor)
                        n_flat += assert_flows_are_the_reference(table, paths, b, alpha,
                                                                 floor, pp.q)
                        n_atoms += table.r_atom.size + table.l_atom.size
                        n_branches |= np.bitwise_or.reduce(1 << table.seg_branch)
                        # a one-path table adds up its path alone
                        one = trajectory_table(cols.block(2, 3), b, alpha, floor)
                        assert_flows_are_the_reference(one, paths[2:3], b, alpha, floor,
                                                       pp.q)
            n_models += 1
        assert n_models >= 100 and n_atoms > 0 and n_branches == 0b1111 and n_flat > 0

    @pytest.mark.parametrize("b,jump_at", [(1e-300, 2.0), (1.0, 4.0)])
    def test_zero_length_segments(self, b, jump_at):
        """The two zero-length segments of the lane sweep's tests: a jump
        onto 0 from which the drift reaches a tiny b at once (_sweep
        overwrites the segment at 0), and a jump onto 0 at the horizon (the
        last segment has zero length and is kept)."""
        to_zero = float(value_at(floored(drift_path(0.35, 0.5, 4.0), b, 0.3), jump_at))
        p = drift_path(0.35, 0.5, 4.0, jumps=[(jump_at, -to_zero)])
        for floor in (False, True):
            table = trajectory_table(event_columns([p]), b, 0.3, floor)
            assert_table_is_the_reference(table, [p], b, 0.3, floor)
            # one knot at the jump: at b, where it overwrote the one at 0,
            # or at 0 at the horizon
            assert table.seg_v[table.seg_t == jump_at].tolist() == [b if jump_at < 4.0 else 0.0]

    @pytest.mark.filterwarnings("error")
    def test_drift_only_tables_without_warnings(self):
        """Every drift-only table at a long horizon equals the reference,
        with its flows, without a numpy warning."""
        for delta in (-1.0, 0.0, 0.3, 0.5, 2.0):
            for alpha in (0.5, math.inf):
                for b in (0.0, 1.0, math.inf):
                    for floor in (False, True):
                        paths = [drift_path(delta, x, 50.0) for x in (-0.5, 0.0, 0.5, 1.0, 3.0)]
                        table = trajectory_table(event_columns(paths), b, alpha, floor)
                        assert_table_is_the_reference(table, paths, b, alpha, floor)
                        assert_flows_are_the_reference(table, paths, b, alpha, floor, 0.05)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestReadSegments:
    """The block reader against the one-path references, bit for bit."""

    @staticmethod
    def read(table, path, t, drivers=None):
        """read_segments on table, checked path by path against the one-path
        references on each path's block of it."""
        path, t = np.asarray(path), np.asarray(t, dtype=float)
        (got,), driver = read_segments([table], path, t, drivers)
        for i in range(table.counts.shape[1]):
            traj = table.block(i, i + 1)
            on, ts = path == i, t[path == i]
            for mine, ref in ((got.z, value_at), (got.z_left, left_limit_at),
                              (got.l, dividends_at), (got.r, injections_at)):
                np.testing.assert_array_equal(_bits(mine[on]), _bits(ref(traj, ts)))
            np.testing.assert_array_equal(got.knot[on], np.isin(ts, traj.seg_t))
            if drivers is not None:
                np.testing.assert_array_equal(_bits(driver[on]),
                                              _bits(event_paths(drivers)[i].value_at(ts)))
        return got

    @staticmethod
    def probes(table, extra=()):
        """Every knot and atom time of every path of table on each of them,
        with extra, in (path, t) order."""
        ts = np.unique(np.concatenate([np.asarray(extra, dtype=float), table.seg_t,
                                       table.r_atom_t, table.l_atom_t]))
        m = table.counts.shape[1]
        return np.repeat(np.arange(m), ts.size), np.tile(ts, m)

    def test_knots_one_ulp_apart(self):
        """Events at 1, at the next double above it and at the one below it,
        on the paths of one block: no two of them merge."""
        up, down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
        paths = [drift_path(0.5, 0.2, 3.0, jumps=((1.0, -0.9), (up, 1.6))),
                 drift_path(0.5, 0.2, 3.0, jumps=((down, -0.4),)),
                 drift_path(0.5, -0.1, 3.0, jumps=((down, 2.0), (1.0, -3.0), (up, 0.5)))]
        cols = event_columns(paths)
        table = refracted_reflected_exact(cols, 1.0, math.inf)
        assert {1.0, up} <= set(table.block(0, 1).seg_t.tolist())
        assert {down, 1.0, up} <= set(table.block(2, 3).seg_t.tolist())
        got = self.read(table, *self.probes(table, np.linspace(0.0, 3.0, 7)), drivers=cols)
        # each knot is found once, on its own path
        assert got.knot.sum() == table.seg_t.size

    def test_a_probe_on_another_paths_knot(self):
        """Path 0 jumps at 1.5 and path 1 does not: path 1 read at 1.5 sees
        no knot there, and its left limit is its value."""
        cols = event_columns([drift_path(0.3, 0.5, 3.0, jumps=((1.5, -0.8),)),
                              drift_path(0.3, 0.5, 3.0)])
        table = refracted_reflected_exact(cols, 1.0, 0.2)
        got = self.read(table, [0, 1, 1], [1.5, 1.0, 1.5], drivers=cols)
        assert got.knot.tolist() == [True, False, False]
        assert got.z_left[2] == got.z[2] and got.z_left[0] != got.z[0]

    def test_a_one_path_table_at_its_knots_and_horizon(self):
        """sample-path reads a table of one path at its knots and the
        horizon; with an event at the horizon the last two probes are
        equal."""
        path = drift_path(0.2, 2.5, 3.0, jumps=((0.5, -0.7), (1.2, -2.4), (3.0, 3.0)))
        cols = event_columns([path])
        traj = refracted_reflected_exact(cols, 1.0, 0.5)
        times = np.append(traj.seg_t, path.horizon)
        assert times[-1] == times[-2]
        got = self.read(traj, np.zeros(times.size, dtype=int), times, drivers=cols)
        sampled = ControlledTrajectory.from_exact(cols, traj)
        for mine, ref in ((sampled.z, got.z), (sampled.l, got.l), (sampled.r, got.r),
                          (sampled.driver, path.value_at(times))):
            np.testing.assert_array_equal(_bits(mine), _bits(ref))


def stepper_lanes(paths, x, b, alpha, floor):
    """What event_steps yields for lane (j, i), path i started at
    paths[i].x0 + x[j] with threshold b[j], in the order it comes: the rows
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
        got = floored_lane_sweep(event_columns(paths), x, b, spliced, alpha, self.Q)
        assert got.t_weak.shape == (len(self.POINTS), len(paths))
        for j, (xj, bj, sj) in enumerate(self.POINTS):
            for i, p in enumerate(paths):
                traj = _sweep(replace(p, x0=p.x0 + xj), bj, alpha, sticks(p, alpha), True)
                pt = first_passage_times(traj)
                assert got.t_weak[j, i] == pt.t_weak
                assert got.kappa_strict[j, i] == pt.kappa_strict
                assert (got.t_weak[j, i] == math.inf) == (pt.t_weak == math.inf)
                stop = pt.t_weak if sj else math.inf
                dl, dr = traj.discounted_flow(self.Q, min(stop, self.H))
                assert abs(got.dl[j, i] - dl) <= 1e-12
                assert abs(got.dr[j, i] - dr) <= 1e-12

    def test_a_zero_length_stretch_at_0_is_no_visit(self):
        """A jump lands exactly on 0 and the drift reaches a tiny b at once:
        _sweep overwrites the zero-length segment at 0, so the lane does not
        visit 0 there."""
        b = 1e-300
        z2 = float(value_at(floored(drift_path(0.35, 0.5, 4.0), b, 0.3), 2.0))
        p = drift_path(0.35, 0.0, 4.0, jumps=[(2.0, -z2)])
        traj = floored(replace(p, x0=0.5), b, 0.3)
        assert first_passage_times(traj).t_weak == math.inf
        got = floored_lane_sweep(event_columns([p]), [0.5], [b], [True], 0.3, self.Q)
        assert got.t_weak[0, 0] == math.inf

    def test_an_event_at_the_horizon_that_lands_on_0_is_a_visit(self):
        """The last segment of _sweep has zero length when the last event
        falls at the horizon, and it is kept: a jump there onto 0 is the
        lane's first visit to 0."""
        z = end_value(floored(drift_path(0.35, 0.5, 4.0), 1.0, 0.3))
        p = drift_path(0.35, 0.0, 4.0, jumps=[(4.0, -z)])
        traj = floored(replace(p, x0=0.5), 1.0, 0.3)
        assert first_passage_times(traj).t_weak == 4.0
        got = floored_lane_sweep(event_columns([p]), [0.5], [1.0], [True], 0.3, self.Q)
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
        args = (event_columns([p]), [1.7], [1.0], [True], 0.5, self.Q)
        assert floored_lane_sweep(*args).t_weak[0, 0] == pytest.approx(0.7 / 1.8 + 1 / 1.3)
        monkeypatch.setattr(path_engine, "MAX_CROSSINGS", 1)
        with pytest.raises(RuntimeError):
            floored_lane_sweep(*args)
