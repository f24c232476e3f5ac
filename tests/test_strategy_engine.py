import math
from dataclasses import replace

import numpy as np
import pytest

from levyrefract.levy_model import (
    EXACT, Grid, InvalidParameter, RngStream, sample_path,
)
from levyrefract.path_engine import (
    BRANCH_ABOVE, BRANCH_FLOOR, BRANCH_INTERIOR, refract_exact,
)
from levyrefract.strategy_engine import (
    ControlledTrajectory, StrategyParams, apply_strategy_exact,
    euler_exact_gap, euler_steps, simulate_euler,
)

from conftest import draw_path, drift_path, event_columns, one_path
from oracles import (
    budget_residual, draw_random_bv_setup, event_paths, first_passage_times, sticks, value_at,
)

# the transforms on one EventPath, through the src reader
refract = one_path(refract_exact)
strategy = one_path(apply_strategy_exact)


def params(b=1.0, alpha=0.5, beta=1.5, q=0.05):
    return StrategyParams(b=b, alpha=alpha, beta=beta, q=q)


class TestStrategyParams:
    def test_accepts_infinite_rate_cap(self):
        assert params(alpha=math.inf).alpha == math.inf

    @pytest.mark.parametrize("kw", [
        dict(b=-0.1), dict(alpha=0.0), dict(alpha=-2.0),
        dict(beta=1.0), dict(beta=0.5), dict(q=0.0), dict(q=-0.05),
        dict(q=math.inf),
    ])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(InvalidParameter):
            params(**kw)


class TestExactStrategy:
    def test_matches_the_event_sweep(self):
        p = event_columns([drift_path(1.0, 0.5, 4.0, jumps=[(2.0, -2.0)])])
        pp = params(b=1.0, alpha=0.4)
        traj = ControlledTrajectory.from_exact(p, apply_strategy_exact(p, pp))
        assert traj.times[-1] == 4.0
        i = np.searchsorted(traj.times, 4.0)
        assert traj.z[i] == pytest.approx(1.6)
        assert traj.l[i] == pytest.approx(1.0)
        assert traj.r[i] == pytest.approx(0.1)
        assert budget_residual(traj) <= 1e-12
        # the residual reads every knot, not only the end point
        z = traj.z.copy()
        z[1] += 0.25
        assert budget_residual(replace(traj, z=z)) == pytest.approx(0.25)

    def test_infinite_cap_degenerates_to_the_band(self):
        p = event_columns([drift_path(1.0, 0.5, 3.0, jumps=[(2.0, -2.0), (2.5, 2.0)])])
        pp = params(b=1.0, alpha=math.inf)
        traj = ControlledTrajectory.from_exact(p, apply_strategy_exact(p, pp))
        assert np.max(traj.z) <= 1.0 + 1e-12
        assert np.min(traj.z) >= -1e-12
        end = np.searchsorted(traj.times, 3.0)
        assert traj.l[end] == pytest.approx(3.5)
        assert traj.r[end] == pytest.approx(1.0)

    def test_budget_residual_on_sampled_paths(self, ref_spec_bv):
        for i in range(30):
            p = sample_path(ref_spec_bv, 5.0, EXACT, RngStream(41, tag=6, index=i), 1)
            pp = params(b=1.2)
            traj = ControlledTrajectory.from_exact(p, apply_strategy_exact(p, pp))
            assert budget_residual(traj) <= 1e-12

    def test_perpetual_negative_drift_injects_forever(self):
        # e^{-0.05 * 1000} ~ 2e-22 is below the last bit of 1 / 0.05
        p = drift_path(-1.0, 0.0, 1000.0)
        traj = strategy(p, params(b=2.0))
        (dl,), (dr,) = traj.discounted_flow(0.05)
        assert dl == 0.0
        assert dr == pytest.approx(1.0 / 0.05, rel=1e-12)


class TestPassageTimes:
    def test_pinned_floor_reads_the_stretch_start(self):
        p = drift_path(-1.0, 0.5, 3.0)
        traj = strategy(p, params(b=2.0))
        pt = first_passage_times(traj)
        assert pt.kappa_strict == pytest.approx(0.5)
        assert pt.t_weak == pytest.approx(0.5)

    def test_jump_atom_reads_the_jump_time(self):
        p = drift_path(1.0, 0.5, 4.0, jumps=[(2.0, -2.0)])
        traj = strategy(p, params(b=1.0, alpha=0.4))
        pt = first_passage_times(traj)
        assert pt.kappa_strict == pytest.approx(2.0)
        assert pt.t_weak == pytest.approx(2.0)

    def test_touch_without_injection_separates_weak_and_strict(self):
        # jump lands exactly on 0, then the drift recovers: visited but no top-up
        p = drift_path(1.0, 1.0, 4.0, jumps=[(0.5, -1.5)])
        traj = strategy(p, params(b=5.0))
        pt = first_passage_times(traj)
        assert pt.t_weak == pytest.approx(0.5)
        assert pt.kappa_strict == math.inf

    def test_no_visit_gives_infinite_times(self):
        p = drift_path(1.0, 0.5, 4.0)
        pt = first_passage_times(strategy(p, params()))
        assert pt.kappa_strict == math.inf and pt.t_weak == math.inf


def first_passage_below_reference(traj, level):
    """The unfloored strict/weak passage reader the exact clock used before
    it read first_passage_times off the floored strategy path: (strict,
    weak) first passage of a piecewise-linear cadlag path below level."""
    seg_t = traj.seg_t
    seg_v = traj.seg_v - level
    slope = traj.seg_slope
    ends = np.append(seg_t[1:], traj.horizon)
    end_v = seg_v + slope * (ends - seg_t)
    weak = math.inf
    strict = math.inf
    at = np.flatnonzero(seg_v <= 0.0)
    if at.size:
        weak = float(seg_t[at[0]])
    under = np.flatnonzero(seg_v < 0.0)
    if under.size:
        strict = float(seg_t[under[0]])
    cross = np.flatnonzero((slope < 0.0) & (seg_v >= 0.0) & (end_v < 0.0))
    if cross.size:
        tc = seg_t[cross] + seg_v[cross] / (-slope[cross])
        t = float(tc.min())
        strict = min(strict, t)
        weak = min(weak, t)
    last = len(seg_t) - 1
    if slope[last] < 0.0 and seg_v[last] > 0.0 and end_v[last] == 0.0:
        weak = min(weak, float(traj.horizon))
    return strict, weak


class TestPassageReaderParity:
    def test_floored_path_reads_the_unfloored_clock(self):
        """kappa_strict and t_weak of the floored strategy path equal the
        unfloored reader on the refracted path, bitwise, on random models
        with starts below 0, at 0, at b, inside (0, b) and above b.

        Excluded: b = 0 in Case 2, where the unfloored path glides onto 0
        and its end value rounds below 0, so the old reader reported a
        strict passage the path never makes.  There the weak clocks agree
        and the strict clock only moves later.
        """
        rng = np.random.default_rng(20261018)
        n_pos = n_zero = n_fixed = 0
        for d in range(4000):
            spec, pp, *_ = draw_random_bv_setup(rng)
            b = 0.0 if (d // 5) % 5 == 0 else pp.b
            x = (-rng.uniform(0.05, 0.5), 0.0, b, rng.uniform() * b,
                 b + rng.uniform(0.05, 1.0))[d % 5]
            pp = replace(pp, b=b)
            path = draw_path(replace(spec, x0=x), 10.0, RngStream(77, tag=9, index=d))
            strict, weak = first_passage_below_reference(
                refract(path, b, pp.alpha), 0.0)
            pt = first_passage_times(strategy(path, pp))
            if b == 0.0 and sticks(path, pp.alpha):
                n_fixed += (pt.kappa_strict, pt.t_weak) != (strict, weak)
                assert pt.t_weak == weak and pt.kappa_strict >= strict
                continue
            assert (pt.kappa_strict, pt.t_weak) == (strict, weak), d
            n_pos += b > 0.0
            n_zero += b == 0.0
        assert n_pos >= 3000 and n_zero > 0 and n_fixed > 0


HAND_INCS = np.array([-2.0, 1.0, 2.0, 0.0, -0.5])  # five steps of length 1


class TestEulerRecursion:
    def test_three_branch_recursion_by_hand(self):
        """One step per branch: top-up, carry-over, capped dividend."""
        traj = simulate_euler(1.0, params(b=1.5, alpha=0.5), HAND_INCS, 1.0)
        np.testing.assert_allclose(traj.times, [0, 1, 2, 3, 4])
        np.testing.assert_allclose(traj.z, [1.0, 0.0, 1.0, 2.5, 2.0])
        np.testing.assert_allclose(traj.l, [0.0, 0.0, 0.0, 0.5, 1.0])
        np.testing.assert_allclose(traj.r, [0.0, 1.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(
            traj.branch,
            [BRANCH_INTERIOR, BRANCH_FLOOR, BRANCH_INTERIOR, BRANCH_ABOVE,
             BRANCH_ABOVE])

    def test_infinite_cap_projects_onto_the_threshold(self):
        traj = simulate_euler(1.0, params(b=1.5, alpha=math.inf), HAND_INCS, 1.0)
        # last step ties with b exactly and carries over
        np.testing.assert_allclose(traj.z, [1.0, 0.0, 1.0, 1.5, 1.5])
        np.testing.assert_allclose(traj.l, [0.0, 0.0, 0.0, 1.5, 1.5])

    def test_negative_start_tops_up_at_step_zero(self):
        traj = simulate_euler(-0.7, params(), np.array([0.5, 0.5]), 1.0)
        assert traj.r[0] == pytest.approx(0.7)
        assert traj.z[0] == 0.0
        assert traj.branch[0] == BRANCH_FLOOR

    def test_csv_shape(self):
        traj = simulate_euler(1.0, params(b=1.5, alpha=0.5), HAND_INCS, 1.0)
        lines = traj.to_csv().strip().splitlines()
        assert lines[0] == "t,Z,L,R,branch"
        assert len(lines) == 6

    def test_budget_identity_on_sampled_grids(self, ref_spec_bv):
        for i in range(10):
            incs = sample_path(ref_spec_bv, 5.0, Grid(500), RngStream(43, tag=7, index=i))[0]
            traj = simulate_euler(0.5, params(b=1.2), incs, 5.0 / 500)
            assert np.min(traj.z) >= 0.0
            assert np.all(np.diff(traj.l) >= 0)
            assert np.all(np.diff(traj.r) >= 0)
            assert budget_residual(traj) <= 1e-12


def reference_euler(x, xs, b, alpha, dt):
    """Scalar three-branch loop, the reference for the vectorised kernel;
    xs is the centred driver at knots 0..k-1."""
    k = len(xs)
    lhat = np.empty(k)
    rhat = np.empty(k)
    branch = np.empty(k, dtype=int)
    lhat[0] = 0.0
    rhat[0] = max(0.0, -(x + xs[0]))
    branch[0] = BRANCH_FLOOR if rhat[0] > 0 else BRANCH_INTERIOR
    for i in range(1, k):
        s = x + xs[i] - lhat[i - 1] + rhat[i - 1]
        if s < 0.0:
            rhat[i] = -(x + xs[i] - lhat[i - 1])
            lhat[i] = lhat[i - 1]
            branch[i] = BRANCH_FLOOR
        elif s > b:
            lhat[i] = lhat[i - 1] + (alpha * dt if alpha != math.inf else s - b)
            rhat[i] = rhat[i - 1]
            branch[i] = BRANCH_ABOVE
        else:
            lhat[i] = lhat[i - 1]
            rhat[i] = rhat[i - 1]
            branch[i] = BRANCH_INTERIOR
    z = x + xs - lhat + rhat
    return z, lhat, rhat, branch


def hand_grids():
    """(increments, dt) of unit steps; dyadic, so the state lands exactly
    on 0 and on b = 1.5."""
    yield HAND_INCS, 1.0
    yield np.array([0.25, 0.25, 0.5, -1.0, -0.5, 0.5, 1.0, 0.0, -2.0, 0.75]), 1.0
    yield np.array([3.0]), 1.0


def random_grids(spec):
    """(increments, dt) of 20 one-path draws of 300 steps on [0, 5]."""
    for i in range(20):
        yield sample_path(spec, 5.0, Grid(300), RngStream(61, tag=2, index=i))[0], 5.0 / 300


class TestEulerKernel:
    """simulate_euler runs euler_steps; it must reproduce the scalar loop
    bit for bit."""

    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    @pytest.mark.parametrize("x", [-0.7, 0.0, 0.5, 1.5, 2.25])
    def test_bitwise_equal_to_the_scalar_loop(self, ref_spec_gauss, x, alpha):
        sp = params(b=1.5, alpha=alpha)
        grids = list(hand_grids()) + list(random_grids(ref_spec_gauss))
        for incs, dt in grids:
            traj = simulate_euler(x, sp, incs, dt)
            xs = np.concatenate(([0.0], np.cumsum(incs)))[:incs.size]
            z, lhat, rhat, branch = reference_euler(x, xs, sp.b, alpha, dt)
            assert traj.z.tobytes() == z.tobytes()
            assert traj.l.tobytes() == lhat.tobytes()
            assert traj.r.tobytes() == rhat.tobytes()
            np.testing.assert_array_equal(traj.branch, branch)

    def test_rows_are_independent(self, ref_spec_gauss):
        incs = np.stack([row for row, _ in random_grids(ref_spec_gauss)])
        # the yielded arrays are overwritten at the next step: keep copies
        batch = [tuple(a.copy() for a in step)
                 for step in euler_steps(0.3, incs, 1.0, 0.5, 5.0 / 300, floor=True)]
        for i in range(0, len(incs), 7):
            alone = euler_steps(0.3, incs[i:i + 1], 1.0, 0.5, 5.0 / 300, floor=True)
            for got, want in zip(alone, batch):
                for a, b in zip(got, want):
                    assert a[0] == b[i]

    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    @pytest.mark.parametrize("floor", [True, False])
    def test_points_broadcast_like_scalar_runs(self, ref_spec_gauss, floor, alpha):
        incs = np.stack([row for row, _ in random_grids(ref_spec_gauss)])
        xs = [-0.7, 0.0, 0.0, 0.5, 1.5, 2.25]
        bs = [1.5, 0.0, 1.5, 1.0, 1.5, 0.75]
        batch = euler_steps(np.array(xs)[:, None], incs, np.array(bs)[:, None],
                            alpha, 5.0 / 300, floor)
        alone = [euler_steps(x, incs, b, alpha, 5.0 / 300, floor)
                 for x, b in zip(xs, bs)]
        for got in batch:
            for j, want in enumerate([next(run) for run in alone]):
                for a, w in zip(got, want):
                    assert a.shape == (len(xs), len(incs))
                    assert a[j].tobytes() == w.tobytes()
        for run in alone:
            assert next(run, None) is None

    def test_unfloored_recursion_never_injects(self):
        incs = np.full((2, 6), -0.5)
        for state, dl, dr in euler_steps(0.2, incs, 1.0, 0.5, 1.0, floor=False):
            assert not dr.any() and not dl.any()
        assert state[0] == pytest.approx(0.2 - 2.5)


def one_path_gap(sp, x, k, path):
    """The sup gap of one path, sampled at 0, through simulate_euler, the
    one-row case of the recursion, on the path's increments from to_grid."""
    euler = simulate_euler(x, sp, path.to_grid(k), path.horizon / k)
    zex = value_at(strategy(replace(path, x0=path.x0 + x), sp), euler.times)
    return np.max(np.abs(euler.z - zex))


class TestEulerExactGap:
    def test_gap_shrinks_in_mean_with_grid_refinement(self, ref_spec_bv):
        sp = params(b=1.2)
        means = []
        cols = sample_path(replace(ref_spec_bv, x0=0.0), 5.0, EXACT, RngStream(47, tag=9), 30)
        for k in (50, 400, 3200):
            gaps = euler_exact_gap(cols, sp, 0.5, k)
            means.append(np.mean(gaps))
        assert means[0] > means[1] > means[2]
        assert means[2] < 0.02

    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    @pytest.mark.parametrize("x", [-0.3, 0.5, 1.6])
    def test_batch_equals_one_path_runs_bitwise(self, ref_spec_bv, x, alpha):
        sp = params(b=1.2, alpha=alpha)
        cols = sample_path(replace(ref_spec_bv, x0=0.0), 5.0, EXACT, RngStream(48, tag=9), 12)
        for k in (50, 400):
            gaps = euler_exact_gap(cols, sp, x, k)
            assert gaps.shape == (12,)
            want = [one_path_gap(sp, x, k, p) for p in event_paths(cols)]
            assert gaps.tobytes() == np.array(want).tobytes()
