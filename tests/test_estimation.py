import ast
import math
import os
import signal
import sys
import time
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from levyrefract.levy_model import (
    EventColumns, InvalidParameter, JumpDiffusionSpec, RngStream, Uniform, Weibull,
    TILE_KNOTS, grid_increments, grid_windows, is_case2, mean_drift, net_drift, sample_path,
)
from levyrefract import estimation, path_engine, strategy_engine
from levyrefract.cli_reporting import csv_text
from levyrefract.path_engine import refracted_record_lows, trajectory_table
from levyrefract.properties_oracle import alpha_ladder_run, coupled_pair_run
from levyrefract.strategy_engine import (
    StrategyParams, apply_strategy_exact, euler_lane_flows, euler_record_lows,
    euler_steps,
)
from levyrefract.estimation import (
    McEstimate, NoCrossing, _chunk_readers, _estimate, _nu_chunk, _nu_sums, _run_sums,
    _value_terms,
    find_bstar, nu_curve, value_curve,
)

from conftest import REFERENCE_GAMMA, drift_only, event_columns, every_path, refract_exact
from oracles import (
    DegenerateDenominator, EventPath, draw_random_bv_setup, estimate_underline_nu, euler_knots,
    event_paths, first_passage_times, slopes, solve_pstar,
)

Q = 0.05
BETA = 1.5
# e^{-Q T} is about 2e-22 here, below the last bit of the perpetual values
# -BETA / Q and alpha / Q, so a value at T is the perpetual one
PERPETUAL_T = 1000.0
SRC = Path(__file__).resolve().parent.parent / "src"


def params(b=1.0, alpha=0.5):
    return StrategyParams(b=b, alpha=alpha, beta=BETA, q=Q)


def draw(spec, pp, horizon, k=0, engine="exact"):
    """The estimators' chunk draw with its two readers."""
    return partial(_chunk_readers, spec, pp, horizon, k, engine)


def cut(incs, widths=None):
    """The increment matrix incs as windows of the given widths, side by
    side, or as one window."""
    ends = np.cumsum([0] + list(widths or [incs.shape[1]]))
    return (incs[:, a:z] for a, z in zip(ends, ends[1:]))


def lane_flows(incs, xs, bs, spliced, alpha, dt, q, mu, path, windows=None):
    """euler_lane_flows read off the increment matrix incs, cut (above)."""
    return euler_lane_flows(cut(incs, windows), incs.shape, xs, bs, spliced, alpha, dt, q, mu,
                            path)


def record_lows(incs, alpha, dt, q, mu, windows=None):
    """euler_record_lows read off incs as lane_flows reads it."""
    return euler_record_lows(cut(incs, windows), incs.shape, alpha, dt, q, mu)


def chunk_paths(spec, horizon, stream, ci, m):
    """Chunk ci's exact paths, as _chunk_readers draws them."""
    return event_paths(sample_path(spec, horizon, m, stream.for_path(ci)))


def exact_nu_chunk(spec, pp, horizon, grid, stream, ci, m):
    """Exact nu chunk ci, read as a one-chunk batch: (sum w, sum w^2,
    censored count) per grid point."""
    ((sums, cens),) = _nu_chunk(draw(spec, pp, horizon), pp, grid, stream, [(ci, m)])
    return sums[:, 0], sums[:, 1], cens


class TestPassageTransform:
    def test_deterministic_descent_gives_exponential(self):
        """Pure drift -1: passage below -b happens at time b exactly."""
        for b in (0.5, 2.0, 7.0):
            est = nu_curve(params(), drift_only(-1.0), [b], 20.0, 0, 64,
                           RngStream(100, tag=1))
            assert est.values[0] == pytest.approx(math.exp(-Q * b), rel=1e-12)
            # deterministic passage; variance is pure rounding noise
            assert est.std_errors[0] < 1e-7
            assert est.censored_fractions[0] == 0.0

    def test_euler_engine_agrees_on_the_drift_path(self):
        est = nu_curve(params(), drift_only(-1.0), [2.0], 20.0, 1000, 32,
                       RngStream(100, tag=1), engine="euler")
        assert est.values[0] == pytest.approx(math.exp(-Q * 2.0), rel=1e-6)

    def test_horizon_censoring(self):
        est = nu_curve(params(), drift_only(-1.0), [25.0], 20.0, 0, 64,
                       RngStream(100, tag=1))
        assert est.values[0] == 0.0
        assert est.censored_fractions[0] == 1.0

    def test_negative_threshold_is_one_by_convention(self):
        est = nu_curve(params(), drift_only(-1.0), [-0.5], 20.0, 0, 64,
                       RngStream(100, tag=1))
        assert est.values[0] == 1.0 and est.std_errors[0] == 0.0

    @pytest.mark.parametrize("spec,k,engine", [
        ("ref_spec_bv", 0, "exact"), ("ref_spec_gauss", 400, "euler")])
    def test_one_point_curves_equal_the_grid_curve(self, request, spec, k, engine):
        """The translation identity: one record-low sweep gives nu at every
        threshold, so each grid point is bit for bit its one-point curve."""
        spec = request.getfixturevalue(spec)
        s = RngStream(101, tag=1)
        grid = np.array([-0.5, 0.0, 0.5, 1.0, 1.5, 3.0])
        curve = nu_curve(params(), spec, grid, 15.0, k, 300, s, engine=engine)
        for i, b in enumerate(grid):
            single = nu_curve(params(), spec, [b], 15.0, k, 300, s, engine=engine)
            assert single.values[0] == curve.values[i]
            assert single.std_errors[0] == curve.std_errors[i]
            assert single.censored_fractions[0] == curve.censored_fractions[i]

    def test_shared_noise_curve_is_monotone_pathwise(self, ref_spec_bv):
        """The passage terms w fall path by path in b, so their sum does;
        the controlled curve need not, and stays within a few SE of it."""
        grid, stream = np.linspace(0.0, 3.0, 31), RngStream(102, tag=1)
        sw, sw2, _ = exact_nu_chunk(ref_spec_bv, params(), 15.0, grid, stream, 0, 256)
        assert np.all(np.diff(sw) <= 0.0)
        curve = nu_curve(params(), ref_spec_bv, grid, 15.0, 0, 256, stream)
        # the two differ by theta * mean(c), whose SD is below the plain SE
        plain_se = np.sqrt((sw2 - sw * sw / 256) / 255 / 256)
        assert np.all(np.abs(curve.values - sw / 256) <= 4 * plain_se)

    def test_grid_must_increase(self, ref_spec_bv):
        with pytest.raises(InvalidParameter):
            nu_curve(params(), ref_spec_bv, np.array([1.0, 1.0]), 10.0, 0, 64,
                     RngStream(103, tag=1))

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


class TestRandomizedClock:
    """Closed forms of the randomized passage clock, the oracle of
    acceptance test_09."""

    def test_start_below_zero_pays_beta_immediately(self):
        est = estimate_underline_nu(-0.5, 1.0, 0.5, params(), drift_only(-1.0),
                                    20.0, 32, RngStream(120, tag=1))
        assert est.mean == pytest.approx(BETA, rel=1e-12)
        assert est.std_error == 0.0

    def test_sticky_origin_solves_to_one_third(self):
        """Drift inside (0, alpha] parked at b = 0: the weak clock fires at
        once and the strict clock never does, so the mixing probability
        solves beta (1 - p) = 1."""
        p = solve_pstar(params(), drift_only(0.3), 0.0, 40.0, 64,
                        RngStream(122, tag=1))
        assert p == pytest.approx((BETA - 1.0) / BETA, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
    def test_up_jumps_parked_at_zero_never_pass_strictly(self, x):
        """Case 2 at b = 0 with up-jumps only: the path drains onto 0 and
        sticks there, so it never goes strictly below 0 and the strict
        clock is censored on every path."""
        spec = JumpDiffusionSpec(
            gamma=0.7264702816749877, sigma=0.0,
            jump_components=((0.32066539000328914, 1,
                              Uniform(0.0625963023373811, 0.7273671791428004)),))
        pp = StrategyParams(b=0.0, alpha=1.2845007357291955, beta=BETA, q=Q)
        est = estimate_underline_nu(x, 0.0, 1.0, pp, spec, horizon=20, n=256,
                                    stream=RngStream(129, tag=1))
        assert est.mean == 0.0
        assert est.censored_fraction == 1.0

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


class TestPureDriftPassage:
    """A pure drift -1 from x with b = 1 and alpha = 0.5 crosses 0 once,
    transversally, at tau: x below b, else (x - b) / 1.5 + b.  Both
    passages are that crossing, and the Euler engine rounds it up to its
    grid: a step or two."""

    T, K = 4.0, 400
    STARTS = [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (1.6, 0.6 / 1.5 + 1.0)]

    @pytest.mark.parametrize("x,tau", STARTS)
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_the_clock_has_the_closed_form(self, x, tau, p):
        est = estimate_underline_nu(x, 1.0, p, params(), drift_only(-1.0), self.T, 8,
                                    RngStream(125, tag=1))
        assert est.mean == pytest.approx(BETA * math.exp(-Q * tau), rel=1e-12)
        assert est.censored_fraction == 0.0

    @pytest.mark.parametrize("x,tau", STARTS)
    def test_euler_lanes_pass_within_two_steps_of_the_exact_lanes(self, x, tau):
        dt = self.T / self.K
        exact, euler = (
            draw(drift_only(-1.0), params(), self.T, k, engine)(
                (RngStream(125, tag=1),), [(0, 8)]).lane_flows(
                    [x], [1.0], [True], path=every_path(1, 8)).t_weak
            for k, engine in ((0, "exact"), (self.K, "euler")))
        np.testing.assert_allclose(exact, tau, rtol=1e-12, atol=1e-12)
        assert np.all(euler >= exact - 1e-12) and np.all(euler <= exact + 2 * dt)


class TestExactSplicedChunk:
    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    @pytest.mark.parametrize("x,b", [(-0.4, 1.2), (0.0, 1.2), (0.0, 0.0),
                                     (0.6, 1.2), (1.2, 1.2), (2.5, 1.2)])
    def test_reads_the_scalar_weak_passage_bitwise(self, ref_spec_bv, x, b, alpha):
        """The stop of a spliced value lane in the chunk's one batched sweep
        is the weak passage first_passage_times reads off each path's
        floored strategy path."""
        pp = params(b=b, alpha=alpha)
        stream = RngStream(150, tag=2)
        (table,) = apply_strategy_exact(sample_path(ref_spec_bv, 8.0, 24, stream.for_path(3)),
                                        x, pp)
        weak = first_passage_times(table).t_weak
        ww = np.exp(-Q * weak)
        ((acc, cens),) = _run_sums(draw(ref_spec_bv, pp, 8.0), pp, (stream,),
                                   [(x, b, True, 0)], [(3, 24)])
        assert acc[0, 2:4].tobytes() == np.asarray([ww.sum(), (ww * ww).sum()]).tobytes()
        assert cens[0] == np.sum(weak == math.inf)
        # the control stops at the weak passage, the jump there included
        tau = np.minimum(weak, 8.0)
        jump_mean = mean_drift(ref_spec_bv) - net_drift(ref_spec_bv)
        c = np.array([np.sum(np.exp(-Q * p.times[p.times <= t]) * p.sizes[p.times <= t])
                      for p, t in zip(chunk_paths(ref_spec_bv, 8.0, stream, 3, 24), tau)])
        c -= jump_mean * -np.expm1(-Q * tau) / Q
        np.testing.assert_allclose(acc[0, [5, 6, 8]], [c.sum(), (c * c).sum(), (ww * c).sum()],
                                   rtol=1e-12, atol=1e-12)


class TestHaltingLanes:
    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    @pytest.mark.parametrize("engine", ["exact", "euler"])
    def test_halting_lanes_read_the_unspliced_weak_passage(self, ref_spec_bv, ref_spec_gauss,
                                                           engine, alpha):
        """A halting lane leaves the sweep at its weak passage; halting
        gates the flows only, so its passage equals the unspliced reading
        byte for byte."""
        spec = ref_spec_bv if engine == "exact" else ref_spec_gauss
        pp = params(b=1.2, alpha=alpha)
        readers = draw(spec, pp, 30.0, 1500, engine)((RngStream(151, tag=2),), [(3, 64)])
        for x in (-0.4, 0.0, 0.6, 1.2, 2.5):
            halted = readers.lane_flows([x], [1.2], [True], path=every_path(1, 64))
            free = readers.lane_flows([x], [1.2], [False], path=every_path(1, 64))
            assert halted.t_weak.tobytes() == free.t_weak.tobytes()

    def test_the_exact_sweep_ends_once_every_lane_has_passed(self, monkeypatch):
        """The Case-2 model at b = 0 with up-jumps only, as in
        TestRandomizedClock: spliced lanes drain onto 0, park there and
        never inject.  Each is done at its weak passage, so the sweep reads
        no event column past the one that ends the last lane's passage."""
        spec = JumpDiffusionSpec(
            gamma=0.7264702816749877, sigma=0.0,
            jump_components=((0.32066539000328914, 1,
                              Uniform(0.0625963023373811, 0.7273671791428004)),))
        pp = StrategyParams(b=0.0, alpha=1.2845007357291955, beta=BETA, q=Q)
        cols = sample_path(spec, 20.0, 256, RngStream(129, tag=1))
        x = np.array([0.0, 0.5, 1.0])
        want = np.stack([first_passage_times(table).t_weak
                         for table in apply_strategy_exact(cols, x, pp)])
        steps, sends = path_engine.event_steps, []

        def counted(*args):
            gen = steps(*args)

            class Counted:
                def send(self, keep):
                    sends.append(keep)
                    return gen.send(keep)

            return Counted()

        monkeypatch.setattr(path_engine, "event_steps", counted)
        got = path_engine.floored_lane_sweep(cols, x, [0.0] * 3, [True] * 3, pp.alpha, Q, 0.0,
                                             every_path(3, 256))
        assert got.t_weak.tobytes() == want.tobytes() and np.all(want < 20.0)
        # the start, then each column up to the last lane's passage
        last = max(np.searchsorted(cols.times[:, i], t) for i, t in enumerate(want.max(0)))
        assert len(sends) == last + 2 < len(cols.times) + 1


class TestSharedNoise:
    """At sigma = 0 an Euler chunk runs the exact chunk's paths binned to
    its grid, and both engines give a passage missed before T the weight 0,
    so on one stream the engines differ by the grid alone."""

    def test_the_gap_closes_with_the_step_count(self, ref_spec_bv):
        pp = params(alpha=0.5)
        stream = RngStream(3, tag=1)
        grid = np.round(np.arange(0.0, 3.5, 0.1), 10)
        exact = nu_curve(pp, ref_spec_bv, grid, 5.0, 0, 512, stream, engine="exact").values
        gaps = {k: np.max(np.abs(nu_curve(pp, ref_spec_bv, grid, 5.0, k, 512, stream,
                                          engine="euler").values - exact))
                for k in (200, 2000)}
        assert gaps[2000] <= 0.005
        assert gaps[2000] < gaps[200]


STEPLESS_EULER_CALLS = {
    "nu_curve": lambda s, st: nu_curve(params(), s, [0.5, 1.0], 5.0, 0, 64, st),
    "find_bstar": lambda s, st: find_bstar(params(), s, [0.5, 1.0], 5.0, 0, 64, st),
    "nu_curve-one-point": lambda s, st: nu_curve(params(), s, [1.0], 5.0, 0, 64, st),
    "value_curve": lambda s, st: value_curve([0.5], 1.0, params(), s, 5.0, 0, 64, st),
    # two chunks on two workers: the calling process raises the error of
    # its own share, and the forked worker is killed and reaped
    "value_curve-2-workers": lambda s, st: value_curve(
        [0.5], 1.0, params(), s, 5.0, 0, 300, st, threads=2),
}


@pytest.mark.parametrize("name", sorted(STEPLESS_EULER_CALLS))
def test_euler_estimators_refuse_a_grid_without_steps(ref_spec_gauss, name):
    with pytest.raises(InvalidParameter) as err:
        STEPLESS_EULER_CALLS[name](ref_spec_gauss, RngStream(142, tag=1))
    assert err.value.field_name == "k"


HORIZON_CALLS = {
    "nu_curve": lambda s, k, h: nu_curve(params(), s, [0.5, 1.0], h, k, 8,
                                         RngStream(143, tag=1)),
    "value_curve-direct": lambda s, k, h: value_curve([0.0, 0.5], 1.0, params(), s, h, k, 8,
                                                      RngStream(143, tag=1), method="direct"),
    "value_curve-spliced": lambda s, k, h: value_curve([0.0, 0.5], 1.0, params(), s, h, k, 8,
                                                       RngStream(143, tag=1), method="spliced"),
    "coupled_pair_run": lambda s, k, h: coupled_pair_run(s, params(), 0.0, 0.0, 0.4, h, 2,
                                                         RngStream(143, tag=1)),
    "alpha_ladder_run": lambda s, k, h: alpha_ladder_run(s, 1.0, (0.5, 1.0), 0.0, h, 2,
                                                         RngStream(143, tag=1)),
    "sample_path": lambda s, k, h: sample_path(s, h, 1, RngStream(143, tag=1)),
    "grid_increments": lambda s, k, h: grid_increments(s, h, 10, 1, RngStream(143, tag=1)),
}


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("engine", ["exact", "euler"])
@pytest.mark.parametrize("name", sorted(HORIZON_CALLS))
def test_a_horizon_outside_0_inf_is_refused(ref_spec_bv, ref_spec_gauss, name, engine,
                                            horizon):
    """Every sampler refuses the horizon, naming it, before it draws; the
    pathwise runs on the diffusion model refuse it before the model."""
    spec, k = (ref_spec_bv, 0) if engine == "exact" else (ref_spec_gauss, 10)
    with pytest.raises(InvalidParameter) as err:
        HORIZON_CALLS[name](spec, k, horizon)
    assert err.value.field_name == "horizon"


ENGINE_CALLS = {
    "nu_curve": lambda s, e: nu_curve(params(), s, [0.5, 1.0], 5.0, 10, 8,
                                      RngStream(144, tag=1), engine=e),
    "find_bstar": lambda s, e: find_bstar(params(), s, [0.5, 1.0], 5.0, 10, 8,
                                          RngStream(144, tag=1), engine=e),
    "value_curve": lambda s, e: value_curve([0.5], 1.0, params(), s, 5.0, 10, 8,
                                            RngStream(144, tag=1), engine=e),
}


BAD_INPUT_CALLS = {
    "value_curve-b-below-0": ("b", lambda s, k, st: value_curve(
        [0.0, 0.5], -1.0, params(), s, 5.0, k, 8, st)),
    "value_curve-b-nan": ("b", lambda s, k, st: value_curve(
        [0.0, 0.5], [1.0, math.nan], params(), s, 5.0, k, 8, st)),
    "value_curve-x-inf": ("x", lambda s, k, st: value_curve(
        [0.5, math.inf], 1.0, params(), s, 5.0, k, 8, st)),
    "value_curve-x-nan": ("x", lambda s, k, st: value_curve(
        [math.nan], 1.0, params(), s, 5.0, k, 8, st, method="direct")),
    "nu_curve-grid-nan": ("grid", lambda s, k, st: nu_curve(
        params(), s, [0.5, math.nan], 5.0, k, 8, st)),
    "nu_curve-grid-only-nan": ("grid", lambda s, k, st: nu_curve(
        params(), s, [math.nan], 5.0, k, 8, st)),
    "find_bstar-grid-inf": ("grid", lambda s, k, st: find_bstar(
        params(), s, [0.5, math.inf], 5.0, k, 8, st)),
    "nu_curve-grid-empty": ("grid", lambda s, k, st: nu_curve(
        params(), s, [], 5.0, k, 8, st)),
    "find_bstar-grid-empty": ("grid", lambda s, k, st: find_bstar(
        params(), s, np.empty(0), 5.0, k, 8, st)),
}

SIZED_CALLS = {
    "value_curve": lambda s, k, st, n, t: value_curve([0.0, 0.5], 1.0, params(), s, 5.0, k,
                                                      n, st, threads=t),
    "nu_curve": lambda s, k, st, n, t: nu_curve(params(), s, [0.5, 1.0], 5.0, k, n, st,
                                                threads=t),
    "find_bstar": lambda s, k, st, n, t: find_bstar(params(), s, [0.5, 1.0], 5.0, k, n, st,
                                                    threads=t),
}
# n = 0 or threads = 0 used to fail in a slice of the batches, and threads =
# -1 to run, reducing the chunk partials out of order
BAD_INPUT_CALLS.update({
    "%s-%s=%d" % (name, field, n if field == "n" else t): (field, partial(call, n=n, t=t))
    for name, call in SIZED_CALLS.items()
    for field, n, t in (("n", 0, 1), ("n", -5, 1), ("threads", 8, 0), ("threads", 8, -1))})


@pytest.mark.parametrize("engine", ["exact", "euler"])
@pytest.mark.parametrize("name", sorted(BAD_INPUT_CALLS))
def test_a_bad_threshold_start_or_grid_is_refused_before_a_draw(
        ref_spec_bv, ref_spec_gauss, name, engine, monkeypatch):
    """Inputs the CLI refuses used to run and return numbers: a threshold
    below 0 or NaN, a start that is not finite, a grid point that is not,
    an empty grid, and a path or thread count below 1."""
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(estimation, "sample_path", no_draw)
    monkeypatch.setattr(estimation, "grid_windows", no_draw)
    spec, k = (ref_spec_bv, 0) if engine == "exact" else (ref_spec_gauss, 10)
    field, call = BAD_INPUT_CALLS[name]
    with pytest.raises(InvalidParameter) as err:
        call(spec, k, RngStream(145, tag=1))
    assert err.value.field_name == field


@pytest.mark.parametrize("engine", ["exact", "euler"])
def test_a_grid_below_0_draws_nothing(ref_spec_bv, ref_spec_gauss, engine, monkeypatch):
    """nu is 1 below 0 by convention, so a grid without a threshold >= 0
    runs no chunk: neither sampler is called, the curve is 1 with SE 0 and
    nothing censored, and a path count, horizon or Euler step count that a
    run refuses is still refused."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        raise AssertionError("drew for a grid below 0")

    monkeypatch.setattr(estimation, "sample_path", counted)
    monkeypatch.setattr(estimation, "grid_windows", counted)
    spec, k = (ref_spec_bv, 0) if engine == "exact" else (ref_spec_gauss, 10)
    curve = nu_curve(params(), spec, [-1.0, -0.5], 5.0, k, 256, RngStream(146, tag=1),
                     engine=engine, threads=2)
    assert not calls
    assert curve.grid.tobytes() == np.array([-1.0, -0.5]).tobytes()
    assert curve.values.tobytes() == np.ones(2).tobytes()
    assert curve.std_errors.tobytes() == curve.censored_fractions.tobytes() == bytes(16)
    assert csv_text("b,nu,se", zip(curve.grid, curve.values, curve.std_errors)) == \
        "b,nu,se\n-1,1,0\n-0.5,1,0\n"
    for field, args in (("n", (5.0, k, 0)), ("horizon", (-5.0, k, 8)),
                        ("k", (5.0, 0, 8)) if engine == "euler" else ("horizon", (math.inf, k, 8))):
        with pytest.raises(InvalidParameter) as err:
            nu_curve(params(), spec, [-1.0], *args, RngStream(146, tag=1), engine=engine)
        assert err.value.field_name == field


@pytest.mark.parametrize("engine", ["exat", "Exact", "", "gpu"])
@pytest.mark.parametrize("name", sorted(ENGINE_CALLS))
def test_an_unknown_engine_is_refused(ref_spec_bv, name, engine):
    """A misspelt engine used to run the Euler recursion."""
    with pytest.raises(InvalidParameter) as err:
        ENGINE_CALLS[name](ref_spec_bv, engine)
    assert err.value.field_name == "engine"


class TestValueEstimates:
    def test_perpetual_injection_value(self):
        est = value_curve([0.0], 2.0, params(), drift_only(-1.0), PERPETUAL_T,
                          0, 1, RngStream(130, tag=1), method="direct")[0][1]
        assert est.mean == pytest.approx(-BETA / Q, rel=1e-12)  # -30
        assert est.std_error == 0.0

    def test_perpetual_capped_dividend_value(self):
        est = value_curve([0.0], 0.0, params(b=0.0, alpha=0.5),
                          drift_only(2.0), PERPETUAL_T, 0, 1,
                          RngStream(131, tag=1), method="direct")[0][1]
        assert est.mean == pytest.approx(0.5 / Q, rel=1e-12)  # 10

    def test_infinite_horizon_guards(self, ref_spec_bv):
        for spec, method in ((ref_spec_bv, "direct"), (drift_only(-1.0), "direct"),
                             (drift_only(-1.0), "spliced")):
            with pytest.raises(InvalidParameter) as err:
                value_curve([0.0], 1.0, params(), spec, math.inf, 0, 1,
                            RngStream(132, tag=1), method=method)
            assert err.value.field_name == "horizon"

    def test_negative_start_is_affine(self, ref_spec_bv):
        rows = value_curve(np.array([-1.0, -0.25, 0.0]), 1.2, params(b=1.2),
                           ref_spec_bv, 20.0, 0, 200, RngStream(133, tag=1))
        v0 = rows[2][1]
        assert rows[0][1].mean == v0.mean - BETA * 1.0
        assert rows[1][1].mean == v0.mean - BETA * 0.25
        assert rows[0][1].std_error == v0.std_error

    def test_spliced_agrees_with_direct(self, ref_spec_bv):
        d = value_curve([0.8], 1.2, params(b=1.2), ref_spec_bv, 60.0, 0,
                        2000, RngStream(134, tag=1), method="direct")[0][1]
        s = value_curve([0.8], 1.2, params(b=1.2), ref_spec_bv, 60.0, 0,
                        2000, RngStream(134, tag=1), method="spliced")[0][1]
        assert abs(d.mean - s.mean) <= 3.0 * (d.std_error + s.std_error)

    @pytest.mark.parametrize("xs,bs,method,threads", [
        ([0.5], 1.2, "spliced", 4),
        # several starts and thresholds, the at-0 anchors included
        ([-0.3, 0.0, 0.5, 1.2, 2.0, 0.5], [1.2, 1.2, 1.2, 1.2, 1.2, 0.6], "spliced", 2),
        ([-0.3, 0.0, 0.5, 1.2, 2.0, 0.5], [1.2, 1.2, 1.2, 1.2, 1.2, 0.6], "direct", 2),
    ], ids=["one-point", "curve-spliced", "curve-direct"])
    def test_value_threads_bitwise_stable(self, ref_spec_bv, xs, bs, method, threads):
        a, b = (value_curve(xs, bs, params(b=1.2), ref_spec_bv, 15.0, 0, 1024,
                            RngStream(135, tag=1), method=method, threads=t)
                for t in (1, threads))
        assert a == b

    def test_method_name_checked(self, ref_spec_bv):
        with pytest.raises(InvalidParameter):
            value_curve([0.5], 1.0, params(), ref_spec_bv, 10.0, 0, 8,
                        RngStream(136, tag=1), method="other")

    def test_curve_csv(self):
        rows = [(0.5, 1.0,
                 value_curve([0.0], 2.0, params(), drift_only(-1.0),
                             PERPETUAL_T, 0, 1, RngStream(137, tag=1),
                             method="direct")[0][1],
                 "direct")]
        text = csv_text("x,b,v,se,method", ((x, b, est.mean, est.std_error, method)
                                            for x, b, est, method in rows))
        assert text.splitlines()[0] == "x,b,v,se,method"
        assert text.splitlines()[1].endswith(",direct")


def per_point_lane_flows(xs, bs, spliced, incs, alpha, dt, q, mu):
    """The per-point reference of euler_lane_flows: one recursion pass for
    each (x, b) point, read step by step with masks, as (J, m) arrays of
    (dl, dr, t_weak, c)."""
    out = []
    for x, b, halts in zip(xs, bs, spliced):
        m = incs.shape[0]
        dl, c, drive = np.zeros(m), np.zeros(m), np.zeros(m)
        dr = np.full(m, -x if x < 0.0 else 0.0)
        weak = np.full(m, 0.0 if x <= 0.0 else math.inf)
        # each knot's discount: step j's flows at knot j, its control at knot j - 1
        w_left = np.exp(-q * (dt * np.arange(incs.shape[1] + 1)))
        steps = euler_knots(euler_steps(x, [incs], incs.shape, b, alpha, dt, floor=True), (m,),
                            alpha * dt)
        for j, (state, step_l, step_r) in enumerate(steps, start=1):
            t = dt * j
            disc = w_left[j]
            drive = drive + (incs[:, j - 1] - mu * dt) * w_left[j - 1]
            live = (weak == math.inf) | (not halts)
            dl[live] += step_l[live] * disc
            dr[live] += step_r[live] * disc
            c[live] = drive[live]  # a halted lane's control stops with its flows
            weak[(state <= 0.0) & (weak == math.inf)] = t
        out.append((dl, dr, weak, c))
    return tuple(np.array(f) for f in zip(*out))


FIELDS = ("dl", "dr", "t_weak", "c")


class TestEulerRunSums:
    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    @pytest.mark.parametrize("spliced", [True, False])
    @pytest.mark.parametrize("k", [50, 400])
    def test_one_pass_equals_per_point_loop_bitwise(self, ref_spec_gauss, k,
                                                    spliced, alpha, monkeypatch):
        """euler_lane_flows reads every point off one recursion pass; each
        of its fields equals the per-point loop bit for bit."""
        # starts below 0, at 0, at b, above b, and a shared start
        xs, bs = zip(*[(-0.4, 1.2), (0.0, 1.2), (0.0, 0.0), (0.6, 1.2),
                       (1.2, 1.2), (2.5, 1.2), (0.6, 2.0)])
        halts = [spliced] * len(xs)
        incs = grid_increments(ref_spec_gauss, 5.0, k, 256,
                               RngStream(140, tag=3).for_path(1))
        mu = mean_drift(ref_spec_gauss)
        want = per_point_lane_flows(xs, bs, halts, incs, alpha, 5.0 / k, Q, mu)
        passes = []

        def counted(*args, **kw):
            passes.append(args)
            return euler_steps(*args, **kw)

        monkeypatch.setattr(strategy_engine, "euler_steps", counted)
        got = lane_flows(incs, xs, bs, halts, alpha, 5.0 / k, Q, mu, every_path(7, 256))
        assert len(passes) == 1  # one recursion pass serves every point
        for g, w in zip((getattr(got, f) for f in FIELDS), want):
            assert g.shape == (len(xs), 256)
            assert g.tobytes() == w.tobytes()
        # lanes that start above 0 pass and miss before T
        assert np.any(got.t_weak[3:] < math.inf) and np.any(got.t_weak[3:] == math.inf)
        if spliced:  # a halted lane adds no flow after its weak passage
            assert np.array_equal(got.dl[0], np.zeros(256))
            assert np.array_equal(got.dr[0], np.full(256, 0.4))
        else:  # every lane's control runs to the last knot: one sum per row
            dt = 5.0 / k
            c = (incs[:, :-1] - mu * dt) @ np.exp(-Q * dt * np.arange(k - 1))
            np.testing.assert_allclose(got.c, np.tile(c, (len(xs), 1)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    def test_stopped_lanes_are_dropped_not_masked(self, alpha):
        """Every spliced lane passes by step 3 and the increments after
        step 5 are NaN: the lanes leave the recursion at the next block
        edge, and the steps they read after their stop never reach their
        accounts, where a weight of 0 would keep NaN * 0 = NaN."""
        rng = np.random.default_rng(21)
        incs = rng.normal(0.0, 0.1, (64, 40))
        incs[:, 2] = -20.0
        clean = incs.copy()
        clean[:, 5:] = 0.0
        incs[:, 5:] = np.nan
        xs, bs = (-0.4, 0.0, 0.5, 2.0, 6.0), (1.2, 1.2, 0.0, 1.2, 1.2)
        got = lane_flows(incs, xs, bs, [True] * 5, alpha, 0.1, Q, 0.0, every_path(5, 64))
        assert all(np.all(np.isfinite(f)) for f in (got.dl, got.dr, got.c))
        assert np.all(got.t_weak <= 3 * 0.1)
        want = lane_flows(clean, xs, bs, [True] * 5, alpha, 0.1, Q, 0.0, every_path(5, 64))
        for f in FIELDS:
            assert getattr(got, f).tobytes() == getattr(want, f).tobytes()

    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    def test_dropping_lanes_equals_per_point_loop_bitwise(self, ref_spec_gauss,
                                                           alpha, monkeypatch):
        """Over a long horizon the done lanes are dropped many times, while
        unspliced lanes on the same paths, starts at and below 0 and
        several thresholds per path keep running: every field equals the
        per-point loop bit for bit."""
        xs, bs, halts = zip(*[(0.5, 1.2, True), (2.5, 1.2, True), (0.6, 2.0, True),
                              (0.0, 1.2, True), (-0.4, 1.2, True), (1.2, 1.2, True),
                              (0.0, 1.2, False), (-0.4, 2.0, False), (2.5, 1.2, False)])
        k, horizon = 2000, 100.0
        incs = grid_increments(ref_spec_gauss, horizon, k, 48,
                               RngStream(142, tag=3).for_path(2))
        want = per_point_lane_flows(xs, bs, halts, incs, alpha, horizon / k, Q, 0.3)
        drops = []
        drop = path_engine.Lanes.drop

        def counted(lanes, done, *fields):
            drops.append(int(np.count_nonzero(done)))
            return drop(lanes, done, *fields)

        monkeypatch.setattr(path_engine.Lanes, "drop", counted)
        got = lane_flows(incs, xs, bs, halts, alpha, horizon / k, Q, 0.3, every_path(9, 48))
        assert len(drops) >= 4  # at block edges, where the 1/8 rule takes more at once
        for g, w in zip((getattr(got, f) for f in FIELDS), want):
            assert g.tobytes() == w.tobytes()
        # the unspliced lanes run to the horizon, so they are never dropped
        assert sum(drops) <= 6 * 48


class TestValueBlocks:
    @pytest.mark.parametrize("lanes", [1, 300])
    @pytest.mark.parametrize("engine", ["exact", "euler"])
    def test_blocking_never_changes_a_byte(self, ref_spec_bv, ref_spec_gauss,
                                           engine, lanes, monkeypatch):
        """Points run in blocks of at most BLOCK_LANES lanes (one point at
        least): 1 lane is one point per block, 300 lanes two points of 128
        paths.  An Euler block draws its increments anew, once."""
        points = [(x, b, spliced, 0) for x, b in
                  [(-0.4, 1.2), (0.0, 1.2), (0.0, 0.0), (0.6, 1.2), (1.2, 1.2),
                   (2.5, 1.2), (0.6, 2.0)] for spliced in (True, False)]
        spec = ref_spec_bv if engine == "exact" else ref_spec_gauss
        pp = params(b=1.2)
        args = (draw(spec, pp, 5.0, 100, engine), pp, (RngStream(141, tag=3),), points,
                [(1, 128)])
        (want,) = _run_sums(*args)
        draws = []

        def counted(*a, **kw):
            draws.append(a)
            return grid_windows(*a, **kw)

        monkeypatch.setattr(estimation, "grid_windows", counted)
        monkeypatch.setattr(estimation, "BLOCK_LANES", lanes)
        (got,) = _run_sums(*args)
        assert len(draws) == (len(points) // max(1, lanes // 128) if engine == "euler" else 0)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("lanes", [300, 600])
    def test_each_point_block_reads_each_window_once(self, ref_spec_gauss, lanes, monkeypatch):
        """A value job on two draws of three chunks of 100 paths, K = 600
        (three windows), in 5 or 3 blocks of points: each block draws each
        chunk of the draws its lanes read once, and reads every window of it
        once, and the estimates are those of the one-block run."""
        args = ([-0.4, 0.0, 0.6, 1.5, 2.5], [1.2, 2.0, 1.2, 1.2, 2.0], params(b=1.2),
                ref_spec_gauss, 5.0, 600, 300, RngStream(195, tag=4))
        monkeypatch.setattr(estimation, "CHUNK", 100)
        want = value_curve(*args, engine="euler")
        draws, windows, blocks = [], [], []

        def reader(windows, shape, x, *args):
            blocks.append((len(x), shape[0] // 300))  # (points, draws read)
            return euler_lane_flows(windows, shape, x, *args)

        def counted(spec, horizon, k, m, stream):
            draws.append((len(blocks), stream.id))
            for window in grid_windows(spec, horizon, k, m, stream):
                windows.append((len(blocks), stream.id))
                yield window

        monkeypatch.setattr(estimation, "grid_windows", counted)
        monkeypatch.setattr(estimation, "euler_lane_flows", reader)
        monkeypatch.setattr(estimation, "BLOCK_LANES", lanes)
        assert value_curve(*args, engine="euler") == want
        assert blocks == ([(1, 1)] * 5 if lanes == 300 else [(2, 1), (2, 2), (1, 1)])
        assert len(draws) == len(set(draws)) == 3 * sum(s for _, s in blocks)
        assert sorted(windows) == sorted(draws * 3)


class TestOneLanePass:
    """A value batch steps its starts, on the main stream, and its at-0
    anchors, on their substream, in one lane pass over both draws."""

    POINTS = [(-0.4, 1.2, True), (0.0, 1.2, False), (0.6, 1.2, True), (2.5, 2.0, False),
              (1.2, 1.2, True), (0.0, 0.0, False), (0.6, 2.0, True), (2.5, 1.2, True)]
    # the traced peak of the two-draw Euler batch below at K = 2,000, in
    # bytes (3.33 MiB, measured with numpy 2.4)
    TWO_DRAW_EULER_PEAK = 3_496_000

    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    @pytest.mark.parametrize("engine", ["exact", "euler"])
    def test_a_mixed_block_reads_each_draws_own_lanes(self, ref_spec_bv, ref_spec_gauss,
                                                       engine, alpha, monkeypatch):
        """Points alternate between two draws, so the block's stepper reads
        each lane's path off a (J, m) path array; spliced lanes drop along
        the way.  Every field of every lane equals that of the same point
        run on its draw alone, drawn on its own stream, bit for bit."""
        spec = ref_spec_bv if engine == "exact" else ref_spec_gauss
        pp = params(b=1.2, alpha=alpha)
        stream = RngStream(190, tag=4)
        streams = (stream, stream.with_tag(4 + estimation.V0_TAG_OFFSET))
        chunks = [(2, 48), (3, 20)]
        d = draw(spec, pp, 30.0, 1500, engine)
        module, name = ((path_engine, "event_steps") if engine == "exact"
                        else (strategy_engine, "euler_steps"))
        steps, drop, paths, drops = getattr(module, name), path_engine.Lanes.drop, [], []

        def stepper(*args):
            paths.append(args[-1])
            return steps(*args)

        def counted(lanes, done, *fields):
            drops.append(np.count_nonzero(done))
            return drop(lanes, done, *fields)

        monkeypatch.setattr(module, name, stepper)
        monkeypatch.setattr(path_engine.Lanes, "drop", counted)
        x, b, spliced = zip(*self.POINTS)
        on = [j % 2 for j in range(len(x))]
        got = d(streams, chunks).lane_flows(x, b, spliced,
                                            path=np.array(on)[:, None] * 68 + np.arange(68))
        assert len(paths) == 1 and paths[0].shape == (len(x), 68)
        assert np.array_equal(paths[0][1], np.arange(68, 136)) and len(drops) >= 2
        for s, alone in enumerate(d((st,), chunks) for st in streams):
            js = [j for j in range(len(x)) if on[j] == s]
            want = alone.lane_flows(*([c[j] for j in js] for c in (x, b, spliced)),
                                    path=every_path(len(js), 68))
            for name in FIELDS:
                g, w = getattr(got, name), getattr(want, name)
                assert g.shape == (len(x), 68)
                assert g[js].tobytes() == w.tobytes(), (s, name)

    @pytest.mark.parametrize("lanes", [2 * 256, 2 ** 16])
    @pytest.mark.parametrize("engine", ["exact", "euler"])
    def test_a_value_batch_makes_one_stepper_per_block(self, ref_spec_bv, ref_spec_gauss,
                                                       engine, lanes, monkeypatch):
        """One batch of 256 paths per draw: three starts and one anchor
        make one block, one stepper, on both draws; at two points per
        block, two steppers, the first on the main draw's paths alone and
        the second on both draws.  The bytes do not depend on the
        blocking."""
        spec = ref_spec_bv if engine == "exact" else ref_spec_gauss
        module, name = ((path_engine, "event_steps") if engine == "exact"
                        else (strategy_engine, "euler_steps"))
        steps = getattr(module, name)
        made = []

        def counted(*args, **kw):
            made.append(args)
            return steps(*args, **kw)

        args = ([-0.4, 0.0, 0.6, 1.5, 2.5], 1.2, params(b=1.2), spec, 5.0, 100, 256,
                RngStream(191, tag=4))
        want = value_curve(*args, engine=engine)
        monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(estimation, "BLOCK_LANES", lanes)
        got = value_curve(*args, engine=engine)
        widths = [a[0].counts.size if engine == "exact" else a[2][0] for a in made]
        assert widths == ([512] if lanes == 2 ** 16 else [256, 512])
        assert got == want

    @staticmethod
    def two_draw_euler_peak(spec, k, copies=1):
        """The traced peak of one value batch on two draws of 256 paths, T =
        100 and K = k: 18 points, 15 starts on the main draw and 3 at-0
        anchors on theirs, the 18 taken copies times in turn."""
        pp = StrategyParams(b=2.15, alpha=0.5, beta=BETA, q=Q)
        xs = np.arange(-1.0, 3.99, 0.75)
        points = ([(x, b, True, 0) for b in (1.45, 2.15, 2.9) for x in xs if x > 0]
                  + [(0.0, b, False, 1) for b in (1.45, 2.15, 2.9)]) * copies
        stream = RngStream(192, tag=4)
        args = (draw(spec, pp, 100.0, k, "euler"), pp,
                (stream, stream.with_tag(4 + estimation.V0_TAG_OFFSET)), points, [(0, 256)])
        tracemalloc.start()
        try:
            _run_sums(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_two_draw_euler_batch_holds_one_window(self, ref_spec_gauss):
        """The traced peak of the batch at K = 2,000: one (512, TILE_KNOTS)
        window of increments, 1 MiB, where the whole (512, 2000) matrix
        would be 7.8 MiB, and the lane arrays.  The bound is the measured
        peak plus 10 %, so a change that holds the matrix fails it."""
        peak = self.two_draw_euler_peak(ref_spec_gauss, 2000)
        assert peak >= 512 * TILE_KNOTS * 8
        assert peak <= self.TWO_DRAW_EULER_PEAK * 1.1

    def test_the_batch_peak_does_not_grow_with_k(self, ref_spec_gauss):
        """At K = 16,000 the batch's traced peak lies at most 1 MB above its
        peak at K = 2,000, where a (512, 16000) matrix alone is 62.5 MiB."""
        fine, coarse = (self.two_draw_euler_peak(ref_spec_gauss, k) for k in (16000, 2000))
        assert fine <= coarse + 1_000_000

    def test_the_batch_peak_does_not_grow_with_the_point_blocks(self, ref_spec_gauss,
                                                                monkeypatch):
        """Ten copies of the 18 points in ten blocks of 18 (BLOCK_LANES at
        18 x 256 lanes) peak within 0.1 MB of one block: each block draws
        its windows anew once the block before has freed its lanes, so the
        blocks never hold their lanes at once."""
        one = self.two_draw_euler_peak(ref_spec_gauss, 2000)
        monkeypatch.setattr(estimation, "BLOCK_LANES", 18 * 256)
        ten = self.two_draw_euler_peak(ref_spec_gauss, 2000, copies=10)
        assert ten <= one + 100_000


class TestNuBatchMemory:
    """An exact nu batch holds one copy of its draws, and a fine grid is
    read in blocks of grid points."""

    # the traced peak of the 8-chunk batch below, in bytes (1.51 times its
    # 8.06 MB of columns, measured with numpy 2.4)
    EXACT_BATCH_PEAK = 12_150_000

    def test_an_exact_batch_is_copied_in_as_it_is_drawn(self, ref_spec_bv):
        """The traced peak of one nu batch of 8 chunks x 256 paths at T =
        100: the columns, their slack rows and the sweep.  The bound is the
        measured peak plus 10 %, and that peak lies below 1.6 times the
        column bytes, so a batch that holds its chunk draws beside their
        side-by-side copy (1.99 times here) fails it."""
        pp, stream = params(b=1.66), RngStream(7, tag=1)
        chunks = [(ci, 256) for ci in range(8)]
        d = draw(ref_spec_bv, pp, 100.0)
        grid = np.round(np.arange(0.0, 3.495, 0.01), 10)
        cols = d((stream,), chunks).record_lows.args[0]
        column_bytes = cols.times.nbytes + cols.sizes.nbytes
        del cols
        tracemalloc.start()
        try:
            _nu_chunk(d, pp, grid, stream, chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert self.EXACT_BATCH_PEAK < 1.6 * column_bytes
        assert column_bytes <= peak <= self.EXACT_BATCH_PEAK * 1.1

    def test_a_fine_grid_is_read_in_blocks(self, ref_spec_bv):
        """nu_curve on 20,000 points at N = 256 traces at most 16 MB (a
        (path, point) table of the whole grid is 41 MB), and every point
        equals bit for bit that point of a 350-point grid, one block, on
        the same stream."""
        pp, stream = params(b=1.66), RngStream(8, tag=1)
        grid = np.linspace(0.0, 3.49, 20_000)
        tracemalloc.start()
        try:
            fine = nu_curve(pp, ref_spec_bv, grid, 100.0, 0, 256, stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6
        assert 350 * 256 * 8 <= estimation.NU_BLOCK_BYTES < grid.size * 256 * 8
        pick = np.linspace(0, grid.size - 1, 350).round().astype(int)
        coarse = nu_curve(pp, ref_spec_bv, grid[pick], 100.0, 0, 256, stream)
        for name in ("values", "std_errors", "censored_fractions"):
            assert getattr(fine, name)[pick].tobytes() == getattr(coarse, name).tobytes()


def moment_sums(a, d, c):
    """One point's moment sums, in the order _run_sums writes them."""
    return np.array([a.sum(), (a * a).sum(), d.sum(), (d * d).sum(), (a * d).sum(),
                     c.sum(), (c * c).sum(), (a * c).sum(), (d * c).sum()])


class TestEstimate:
    """_estimate against numpy's two-pass regression of the per-path
    combination g = a + cd * d on the control c, which it never forms."""

    @pytest.mark.parametrize("control", ["correlated", "zero"])
    @pytest.mark.parametrize("n", [2, 3, 7, 300])
    @pytest.mark.parametrize("cd,cd_se", [(0.0, 0.0), (-3.7, 0.25), (0.7, 0.0)])
    def test_matches_the_two_pass_moments(self, n, cd, cd_se, control):
        rng = np.random.default_rng(n)
        a = rng.normal(2.0, 3.0, n)
        d = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.8)
        c = (a - 2.0 + rng.normal(0.0, 1.0, n)) if control == "correlated" else np.zeros(n)
        cens = float(np.sum(d == 0.0))
        est = _estimate(moment_sums(a, d, c), cens, n, cd, cd_se)
        g = a + cd * d
        if n >= 3 and control == "correlated":
            theta = np.cov(g, c)[0, 1] / np.var(c, ddof=1)
            g = g - theta * c
            var = np.sum((g - g.mean()) ** 2) / (n - 2)
        else:  # no control: the plain mean and its n - 1 variance
            var = np.var(g, ddof=1)
        se = math.sqrt(var / n + (d.mean() * cd_se) ** 2)
        assert est.mean == pytest.approx(g.mean(), rel=1e-12)
        assert est.std_error == pytest.approx(se, rel=1e-12)
        assert est.censored_fraction == cens / n

    def test_a_zero_control_is_the_plain_estimate_bit_for_bit(self):
        """With c = 0 (a model without noise) theta is 0 and the estimate is
        the plain one of five moment sums, so such bytes never move."""
        rng = np.random.default_rng(5)
        a, d = rng.normal(2.0, 3.0, 50), rng.uniform(0.0, 1.0, 50)
        sums = moment_sums(a, d, np.zeros(50))
        s1, s2, sd1, sd2, cross = sums[:5]
        g1, g2 = (s1 + sd1 * 0.7) / 50, (s2 + 2 * 0.7 * cross + 0.49 * sd2) / 50
        want = McEstimate(mean=s1 / 50 + sd1 / 50 * 0.7,
                          std_error=math.sqrt(max(g2 - g1 * g1, 0.0) * 50 / 49 / 50),
                          censored_fraction=0.0)
        assert _estimate(sums, 0.0, 50, 0.7) == want

    def test_a_constant_control_is_the_plain_estimate_bit_for_bit(self):
        """A control with one nonzero value on every path (every path stops
        at one time before any jump) has a sample variance of rounding
        noise, of either sign; theta is 0 and the estimate the plain one."""
        rng = np.random.default_rng(6)
        positive = 0
        for n in (3, 7, 64, 300, 1000):
            a, d = rng.normal(2.0, 3.0, n), rng.uniform(0.0, 1.0, n)
            plain = _estimate(moment_sums(a, d, np.zeros(n)), 0.0, n, 0.7)
            for k in (-1e-9, 0.1, -0.37, 3.3):
                sums = moment_sums(a, d, np.full(n, k))
                positive += sums[6] / n - (sums[5] / n) ** 2 > 0.0
                assert _estimate(sums, 0.0, n, 0.7) == plain, (n, k)
        assert positive  # the case a test of Var(c) > 0 alone lets through

    @pytest.mark.parametrize("engine,spec", [("exact", "bv"), ("euler", "bv"),
                                             ("euler", "gauss")])
    def test_the_control_has_mean_0(self, ref_spec_bv, ref_spec_gauss, engine, spec):
        """E[c] = 0 on halting (spliced) and horizon lanes, as an estimate
        without bias needs: each lane's sample mean over 4096 paths lies
        within 4 SE of 0.  A wrong mu or compensator moves it by many."""
        pp = params(b=1.2)
        spec = ref_spec_bv if spec == "bv" else ref_spec_gauss
        readers = draw(spec, pp, 10.0, 200, engine)((RngStream(194, tag=4),), [(0, 4096)])
        fl = readers.lane_flows((0.0, 0.6, 2.5, 0.6, 2.5), (1.2,) * 5,
                                (False, True, True, False, False), path=every_path(5, 4096))
        assert np.all(fl.c.std(axis=1) > 0.1)
        t = fl.c.mean(axis=1) / (fl.c.std(axis=1, ddof=1) / math.sqrt(4096))
        assert np.all(np.abs(t) <= 4.0), t

    @pytest.mark.parametrize("engine", ["exact", "euler"])
    def test_the_control_cuts_the_variance_and_a_permuted_one_does_not(
            self, ref_spec_bv, ref_spec_gauss, engine):
        """The negative control: c permuted across paths keeps its law but
        loses its tie to each path's g, so the variance of every point of a
        value run stays within 5 % of the uncontrolled one, where the
        matched control cuts it."""
        pp = params(b=1.2)
        spec = ref_spec_bv if engine == "exact" else ref_spec_gauss
        readers = draw(spec, pp, 40.0, 400, engine)((RngStream(193, tag=4),), [(0, 2048)])
        xs, bs, spliced = (0.0, 0.6, 1.2, 2.5, 0.6), (1.2,) * 5, (False, True, True, True, False)
        fl = readers.lane_flows(xs, bs, spliced, path=every_path(5, 2048))
        a, d, _ = _value_terms(pp, fl, np.array(spliced))
        shuffled = np.random.default_rng(3).permutation(fl.c.T).T
        for j in range(len(xs)):
            plain = _estimate(moment_sums(a[j], d[j], np.zeros(2048)), 0.0, 2048)
            matched = _estimate(moment_sums(a[j], d[j], fl.c[j]), 0.0, 2048)
            permuted = _estimate(moment_sums(a[j], d[j], shuffled[j]), 0.0, 2048)
            assert matched.std_error < 0.5 * plain.std_error, j
            assert abs(permuted.std_error ** 2 / plain.std_error ** 2 - 1.0) <= 0.05, j

    def test_only_estimate_builds_an_mc_estimate(self):
        """Every McEstimate of src/ is built by _estimate, so the estimate's
        algebra is written in one place."""
        builders = [fn for path in sorted(SRC.rglob("*.py"))
                    for fn in mc_estimate_builders(path.read_text(encoding="utf-8"))]
        assert builders == ["_estimate"]

    def test_the_guard_sees_every_call(self):
        source = ("def f():\n    def g():\n        return McEstimate(1, 2, 3)\n"
                  "    return g\nx = m.McEstimate(0, 0, 0)\n")
        assert mc_estimate_builders(source) == ["g", None]


def mc_estimate_builders(source: str) -> list:
    """The function around each McEstimate( call of a module, in source
    order; None for a call outside any function."""
    found = []

    def visit(node, fn):
        if isinstance(node, ast.Call) and "McEstimate" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(fn)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(source), None)
    return found


class TestBatches:
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_split_is_contiguous_bounded_and_keeps_workers_busy(self, threads, batch,
                                                                monkeypatch):
        monkeypatch.setattr(estimation, "BATCH", batch)
        for n in (1, 255, 256, 257, 5 * 256 + 37, 17 * 256, 40 * 256 + 1):
            batches = estimation._batches(n, threads)
            chunks = [c for b in batches for c in b]
            assert [ci for ci, _ in chunks] == list(range(len(chunks)))
            assert [m for _, m in chunks[:-1]] == [256] * (len(chunks) - 1)
            assert sum(m for _, m in chunks) == n
            assert all(1 <= len(b) <= batch for b in batches)
            assert len(batches) >= min(threads, len(chunks))

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_two_draws_halve_the_batch(self, threads, batch, monkeypatch):
        """A batch on two draws holds at most BATCH // 2 chunks per draw
        (one at least), under the same contiguity and every-worker-busy
        rules; at 2 workers and N <= 8 chunks, the batches of one draw."""
        monkeypatch.setattr(estimation, "BATCH", batch)
        for n in (1, 255, 256, 257, 5 * 256 + 37, 17 * 256, 40 * 256 + 1):
            batches = estimation._batches(n, threads, 2)
            chunks = [c for b in batches for c in b]
            assert [ci for ci, _ in chunks] == list(range(len(chunks)))
            assert [m for _, m in chunks[:-1]] == [256] * (len(chunks) - 1)
            assert sum(m for _, m in chunks) == n
            assert all(1 <= len(b) <= max(1, batch // 2) for b in batches)
            assert len(batches) >= min(threads, len(chunks))
            if batch == 8 and threads == 2 and n <= 8 * 256:
                assert batches == estimation._batches(n, threads)

    @pytest.mark.parametrize("n,threads,draws,plan", [
        (10 ** 4, 2, 1, [6, 7, 7, 6, 7, 7]),   # desk nu: 20:20 chunks per worker, not 24:16
        (16 * 256, 2, 1, [8, 8]),              # bstar-exact
        (512, 2, 2, [1, 1]),                   # a value job
        (17 * 256, 2, 1, [4, 4, 4, 5]),        # 3 batches of at most 8 round up to 4
        (17 * 256, 3, 1, [5, 6, 6]),
        (3 * 256, 2, 1, [1, 2]),
        (3 * 256, 2, 8, [1, 1, 1]),            # 3 chunks cannot make 4 batches
        (5 * 256, 1, 1, [5]),
        (20 * 256, 4, 2, [2, 3] * 4),          # 5 batches of at most 4 round up to 8
    ])
    def test_the_plan_is_a_multiple_of_the_workers(self, n, threads, draws, plan):
        """The batch sizes of some plans: as few batches as BATCH // draws
        allows, rounded up to a multiple of the workers while there are
        chunks to fill them."""
        assert [len(b) for b in estimation._batches(n, threads, draws)] == plan

    def test_two_workers_write_the_bytes_of_one(self, ref_spec_bv):
        """The desk nu plan (6 batches for 2 workers) gives the curve of one
        worker, byte for byte."""
        args = (params(), ref_spec_bv, np.linspace(0.0, 3.0, 7), 10.0, 0, 40 * 256,
                RngStream(184, tag=5))
        one, two = (nu_curve(*args, threads=t) for t in (1, 2))
        assert len(estimation._batches(40 * 256, 2)) == 6
        for f in ("values", "std_errors", "censored_fractions"):
            assert getattr(one, f).tobytes() == getattr(two, f).tobytes()

    @pytest.mark.parametrize("engine", ["exact", "euler"])
    def test_a_batch_reads_as_its_chunks(self, ref_spec_bv, ref_spec_gauss, engine):
        """A 3-chunk batch, the last one short, gives the partials of three
        one-chunk batches byte for byte."""
        spec = ref_spec_bv if engine == "exact" else ref_spec_gauss
        pp = params(b=1.2)
        d = draw(spec, pp, 10.0, 60, engine)
        stream = RngStream(180, tag=5)
        chunks = [(2, 48), (3, 48), (4, 20)]
        grid = np.linspace(0.0, 3.0, 13)
        points = [(0.6, 1.2, True, 0), (2.5, 2.0, False, 0), (0.0, 1.2, False, 1)]
        for reader in (partial(_nu_chunk, d, pp, grid, stream),
                       partial(_run_sums, d, pp, (stream, stream.with_tag(9)), points)):
            got = reader(chunks)
            want = [part for c in chunks for part in reader([c])]
            assert len(got) == len(want) == 3
            for g, w in zip(got, want):
                assert [a.tobytes() for a in g] == [a.tobytes() for a in w]

    def test_an_exact_batch_is_its_chunks_side_by_side(self, ref_spec_bv):
        """Both readers read one EventColumns: each chunk's columns as
        sample_path draws them, and (horizon, 0) below a shorter chunk."""
        pp, stream, chunks = params(b=1.2), RngStream(183, tag=5), [(2, 48), (3, 48), (4, 20)]
        readers = draw(ref_spec_bv, pp, 10.0)((stream,), chunks)
        cols = readers.lane_flows.args[0]
        assert readers.record_lows.args[0] is cols
        assert not hasattr(cols, "x0")  # a draw carries no start
        heights = []
        for (ci, m), r in zip(chunks, estimation._chunk_rows(chunks)):
            part = sample_path(ref_spec_bv, 10.0, m, stream.for_path(ci))
            h = len(part.times)
            assert np.array_equal(cols.counts[r], part.counts)
            assert np.array_equal(cols.times[:h, r], part.times)
            assert np.array_equal(cols.sizes[:h, r], part.sizes)
            assert np.all(cols.times[h:, r] == 10.0) and np.all(cols.sizes[h:, r] == 0.0)
            heights.append(h)
        assert min(heights) < len(cols.times) == max(heights)

    def test_the_exact_estimators_read_event_columns(self, ref_spec_bv, monkeypatch):
        """The exact engine reads the columns sample_path draws, one call
        per chunk of a two-chunk batch."""
        draws = []

        def columns(*args):
            draws.append(sample_path(*args))
            assert type(draws[-1]) is EventColumns and draws[-1].counts.size == args[2]
            return draws[-1]

        monkeypatch.setattr(estimation, "sample_path", columns)
        pp, stream = params(b=1.2), RngStream(182, tag=5)
        curve = nu_curve(pp, ref_spec_bv, np.linspace(0.0, 3.0, 7), 8.0, 0, 300, stream)
        assert len(draws) == 2
        rows = value_curve([-0.4, 0.0, 0.6, 2.5], 1.2, pp, ref_spec_bv, 8.0, 0, 300, stream)
        assert np.all(np.isfinite(curve.values)) and len(rows) == 4
        assert len(draws) == 6  # the value job's two chunks on its two draws

    @pytest.mark.parametrize("engine", ["exact", "euler"])
    def test_no_byte_depends_on_batching_or_workers(self, ref_spec_bv, ref_spec_gauss,
                                                    engine, monkeypatch):
        """Six chunks, the last one short: batches of 1, 3 and BATCH
        chunks at 1 and 2 workers give the same bytes.  A reduction that
        summed across a chunk boundary would change the last bits."""
        spec = ref_spec_bv if engine == "exact" else ref_spec_gauss
        n, k, horizon = 5 * estimation.CHUNK + 37, 400, 8.0
        pp = params(b=1.2)
        stream = RngStream(181, tag=5)
        grid = np.linspace(-0.5, 3.0, 15)
        xs = [-0.4, 0.0, 0.6, 2.5]

        def readings(threads):
            curve = nu_curve(pp, spec, grid, horizon, k, n, stream, engine=engine,
                             threads=threads)
            out = [curve.values, curve.std_errors, curve.censored_fractions]
            for method in ("spliced", "direct"):
                rows = value_curve(xs, [1.2, 1.2, 2.0, 1.2], pp, spec, horizon, k, n,
                                   stream, method=method, engine=engine, threads=threads)
                out += [np.array([(e.mean, e.std_error, e.censored_fraction)
                                  for _, e in rows])]
            return [a.tobytes() for a in out]

        seen = {}
        for batch in (1, 3, estimation.BATCH):
            monkeypatch.setattr(estimation, "BATCH", batch)
            for threads in (1, 2):
                seen[batch, threads] = readings(threads)
        first = seen[1, 1]
        assert all(got == first for got in seen.values())


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def chunk_ids(batch):
    """A cheap worker: one partial per chunk, its index."""
    return [(np.array([float(ci)]),) for ci, _ in batch]


class TestForkedWorkers:
    """_run_chunks is worker 0 and forks the others, reaps every one, and
    brings their errors back."""

    @pytest.fixture
    def forked(self, monkeypatch):
        """The pids os.fork returns to this process."""
        fork, pids = os.fork, []

        def recorded():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recorded)
        return pids

    @pytest.mark.skipif(CPUS < 2, reason="one CPU plans one worker, in this process")
    @pytest.mark.parametrize("dies", [False, True])
    def test_every_worker_is_reaped(self, forked, dies):
        """Two chunks on two workers, the second forked: it SIGKILLs itself
        or not.  Either way the one forked pid is reaped when _run_chunks
        returns or raises, and a worker that dies raises a RuntimeError
        naming its signal."""
        parent = os.getpid()

        def worker(batch):
            if dies and batch[0][0] == 1 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return chunk_ids(batch)

        if dies:
            with pytest.raises(RuntimeError, match="SIGKILL"):
                estimation._run_chunks(2 * estimation.CHUNK, worker, 2)
        else:
            assert estimation._run_chunks(2 * estimation.CHUNK, worker, 2)[0].tolist() == [1.0]
        assert len(forked) == 1
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_the_caller_computes_every_w_th_batch(self, forked, threads):
        """20 chunks on w workers plan 3 batches at w = 1 and 4 at w = 2:
        batch j runs in the calling process iff j % w == 0, the others in
        the one fork, and w = 1 forks nothing.  Each chunk's partial carries the pid that
        computed it at the chunk's own index."""
        n, chunks = 20 * estimation.CHUNK, 20

        def pids(batch):
            return [(np.eye(chunks)[ci] * os.getpid(),) for ci, _ in batch]

        got = estimation._run_chunks(n, pids, threads)[0].astype(int).tolist()
        w = min(threads, CPUS)
        assert len(forked) == w - 1
        batches = estimation._batches(n, w)
        assert len(batches) == 2 + w
        for j, batch in enumerate(batches):
            want = os.getpid() if j % w == 0 else forked[0]
            assert [got[ci] for ci, _ in batch] == [want] * len(batch)

    @pytest.mark.skipif(CPUS < 2, reason="one CPU plans one worker, in this process")
    @pytest.mark.parametrize("error", [ValueError("share 0"), KeyboardInterrupt()])
    def test_the_callers_error_comes_first_and_the_fork_is_killed(self, forked, error):
        """The calling process's own share raises while the forked worker
        would compute for a minute: the caller's exception propagates as it
        is, and the fork is killed and reaped at once."""
        parent = os.getpid()

        def worker(batch):
            if os.getpid() == parent:
                raise error
            time.sleep(60)
            return chunk_ids(batch)

        start = time.monotonic()
        with pytest.raises(type(error)) as raised:
            estimation._run_chunks(2 * estimation.CHUNK, worker, 2)
        assert raised.value is error
        assert time.monotonic() - start < 30
        assert len(forked) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)

    @pytest.mark.skipif(CPUS < 2, reason="one CPU plans one worker, in this process")
    def test_a_forked_workers_error_is_raised(self, forked):
        """The caller's share succeeds and the forked worker's raises: its
        error crosses the pipe, field name and all, and is raised here."""
        parent = os.getpid()

        def worker(batch):
            if os.getpid() != parent:
                raise InvalidParameter("k", "share of chunk %d" % batch[0][0])
            return chunk_ids(batch)

        with pytest.raises(InvalidParameter, match="share of chunk 1") as raised:
            estimation._run_chunks(2 * estimation.CHUNK, worker, 2)
        assert raised.value.field_name == "k"
        assert len(forked) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)

    @pytest.mark.skipif(CPUS < 2, reason="one CPU plans one worker, in this process")
    @pytest.mark.parametrize("libc", ["no library", "no malloc_trim"])
    def test_a_heap_that_cannot_be_released_keeps_the_bytes(self, ref_spec_bv, monkeypatch,
                                                            libc):
        """Where libc cannot be loaded or has no malloc_trim, a 2-worker
        nu_curve and value_curve skip the release and write the bytes of a
        1-worker run; a 1-worker run never looks for the release."""
        import ctypes
        loads = []

        def cdll(name, *args, **kwargs):
            loads.append(name)
            if libc == "no library":
                raise OSError("no libc here")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        stream, grid = RngStream(61, tag=1), np.round(np.arange(0.0, 3.0, 0.25), 10)
        nu = {t: nu_curve(params(), ref_spec_bv, grid, 10.0, 0, 600, stream, threads=t)
              for t in (1, 2)}
        nu = {t: csv_text("b,nu,se", zip(c.grid, c.values, c.std_errors)) for t, c in nu.items()}
        assert loads == [None]
        values = {t: csv_text("x,b,v,se,method", (
            (x, 1.0, est.mean, est.std_error, "spliced") for x, est in value_curve(
                [-0.5, 0.0, 0.5, 1.5], 1.0, params(), ref_spec_bv, 10.0, 0, 600, stream,
                threads=t))) for t in (1, 2)}
        assert loads == [None, None]
        assert nu[1] == nu[2] and values[1] == values[2]

    def test_the_workers_are_capped_at_the_cpus(self, monkeypatch):
        """threads = 10^4 plans the batches of min(10^4, CPUs) workers, the
        same as the capped count.  os.fork is taken away, so the batches
        run in this process and nothing is forked."""
        monkeypatch.delattr(os, "fork")
        batches, plans = estimation._batches, []

        def planned(n, threads, draws=1):
            plans.append(threads)
            return batches(n, threads, draws)

        monkeypatch.setattr(estimation, "_batches", planned)
        n = 10 ** 5
        got = estimation._run_chunks(n, chunk_ids, 10 ** 4)
        assert plans == [min(10 ** 4, CPUS)]
        assert got[0].tolist() == [float(sum(range(-(-n // estimation.CHUNK))))]
        # uncapped, the plan would be one batch per chunk: 391 of them
        assert len(batches(n, CPUS)) < len(batches(n, 10 ** 4)) == 391


# the exact threshold search -------------------------------------------------

def _min_episodes(traj, event_times):
    """Descent episodes of the running minimum of a piecewise-linear path.

    Each episode covers min levels in (lo, hi] first crossed at time
    t0 + (hi - level) * invrate; invrate = 0 marks an instantaneous (jump)
    descent.  Levels are capped at 0: only the non-positive range matters.
    A segment cut by a crossing of 0 (a knot at 0 that is not an event
    time) ends at 0.
    """
    seg_t = traj.seg_t
    seg_v = traj.seg_v
    slope = slopes(traj)
    ends = np.append(seg_t[1:], traj.horizon)
    crossing = (seg_v[1:] == 0.0) & ~np.isin(seg_t[1:], event_times)
    end_v = np.where(np.append(crossing, False), 0.0, seg_v + slope * (ends - seg_t))
    lo, hi, t0, invrate = [], [], [], []
    m = 0.0
    n = len(seg_t)
    for i in range(n):
        if slope[i] < 0 and end_v[i] < m:
            tc = seg_t[i] + (seg_v[i] - m) / (-slope[i]) if seg_v[i] > m else seg_t[i]
            lo.append(end_v[i])
            hi.append(m)
            t0.append(tc)
            invrate.append(1.0 / (-slope[i]))
            m = end_v[i]
        if i + 1 < n and seg_v[i + 1] < m:
            lo.append(seg_v[i + 1])
            hi.append(m)
            t0.append(seg_t[i + 1])
            invrate.append(0.0)
            m = seg_v[i + 1]
    return (np.asarray(lo), np.asarray(hi), np.asarray(t0), np.asarray(invrate), m)


def scalar_nu_chunk(spec, params, horizon, bgrid_pos, stream, ci, m):
    """The per-path reference of exact nu chunk ci: refract_exact at 0,
    _min_episodes, and a loop over the episodes."""
    nb = len(bgrid_pos)
    sw = np.zeros(nb)
    sw2 = np.zeros(nb)
    cens = np.zeros(nb)
    q = params.q
    cols = sample_path(spec, horizon, m, stream.for_path(ci))
    table = refract_exact(cols, 0.0, 0.0, params.alpha)
    for i, path in enumerate(event_paths(cols)):
        w = table.block(i, i + 1)
        ep_lo, ep_hi, ep_t0, ep_inv, final_min = _min_episodes(w, path.times)
        # grid levels are -b; episode j covers b in [-min(hi,0), -lo)
        for j in range(len(ep_lo)):
            b_lo = -min(ep_hi[j], 0.0)
            b_hi = -ep_lo[j]
            j0 = np.searchsorted(bgrid_pos, b_lo, side="left")
            j1 = np.searchsorted(bgrid_pos, b_hi, side="left")
            if j1 > j0:
                kb = ep_t0[j] + (ep_hi[j] - (-bgrid_pos[j0:j1])) * ep_inv[j]
                wj = np.exp(-q * kb)
                sw[j0:j1] += wj
                sw2[j0:j1] += wj * wj
        jc = np.searchsorted(bgrid_pos, -final_min, side="left")
        cens[jc:] += 1.0
    return sw, sw2, cens


def compensated_jumps(p, t, mu):
    """The control of path p at the times t: the discounted jumps at or
    before each, less the compensator (mu - drift) (1 - e^{-qt}) / q."""
    t = np.asarray(t, dtype=float)
    disc = np.exp(-Q * p.times) * p.sizes
    return (np.sum(disc * (p.times <= t[..., None]), axis=-1)
            - (mu - p.drift) * (1.0 - np.exp(-Q * t)) / Q)


def assert_lows_match_scalar(paths, alpha, mu=0.3):
    """refracted_record_lows equals _min_episodes of each refracted path,
    and its controls are the compensated jumps up to each episode's start
    and up to the horizon."""
    cols = event_columns(paths)
    lows = refracted_record_lows(cols, alpha, Q, mu)
    table = refract_exact(cols, 0.0, 0.0, alpha)
    assert np.all(np.diff(lows.path) >= 0)  # path-major
    assert lows.drain == (mu - cols.drift) / Q
    for i, p in enumerate(paths):
        *want, want_min = _min_episodes(table.block(i, i + 1), p.times)
        # the path's episodes, then its horizon: the levels below its minimum
        want = [np.append(a, v) for a, v in zip(want, (-math.inf, want_min, math.inf, 0.0))]
        mine = lows.path == i
        for got, ref in zip((lows.lo, lows.hi, lows.t0, lows.invrate), want):
            assert np.array_equal(got[mine], ref), i
        # the control at an episode's start t0, where a drift episode sets
        # off, and at the horizon
        stop = np.minimum(want[2], p.horizon)
        np.testing.assert_allclose(lows.c[mine] + lows.drain * np.exp(-Q * want[2]),
                                   compensated_jumps(p, stop, mu), rtol=0, atol=1e-12)
    return lows


def spec_with_drift(delta):
    """The reference jump mix with net drift delta."""
    return JumpDiffusionSpec(
        gamma=REFERENCE_GAMMA - 0.6 + delta, sigma=0.0,
        jump_components=((1.0, 1, Uniform(0.0, 1.0)), (1.0, -1, Weibull(2.0, 1.0))))


# net drift 0 exactly: the two compensations cancel
ZERO_DRIFT = JumpDiffusionSpec(
    gamma=0.0, sigma=0.0,
    jump_components=((1.0, 1, Uniform(0.0, 1.0)), (1.0, -1, Uniform(0.0, 1.0))))


class TestExactNuChunk:
    """The record-low column sweep and its bincount reduction against the
    per-path scalar reference, bit for bit."""

    H = 20.0
    # (spec, alpha): delta > alpha (Case 1); sticky at delta = 0 (Case 2);
    # delta < 0 (Case 1); 0 < delta < alpha (Case 2); alpha = inf, where
    # jumps above 0 are clamped, on both sides of delta = 0
    REGIMES = {
        "delta>alpha": (spec_with_drift(0.6), 0.3),
        "sticky-delta=0": (ZERO_DRIFT, 0.5),
        "delta<0": (spec_with_drift(-0.4), 0.5),
        "0<delta<alpha": (spec_with_drift(0.6), 1.0),
        "inf-delta>0": (spec_with_drift(0.6), math.inf),
        "inf-delta<0": (spec_with_drift(-0.4), math.inf),
    }
    # the regimes whose lows hold drift episodes, which _nu_sums reads off
    # (path, point) tables of every field: a drift sets a record low only
    # below b = 0 at delta < 0, and above b it drains onto b
    DRIFT_EPISODES = {"delta<0", "inf-delta<0"}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_chunk_equals_the_scalar_reference(self, regime, seed):
        spec, alpha = self.REGIMES[regime]
        assert net_drift(ZERO_DRIFT) == 0.0
        rng = np.random.default_rng(seed)
        # b = 0 and random thresholds, some past every path's minimum
        grid = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 12.0, 60))))
        pp = params(alpha=alpha)
        stream = RngStream(160 + seed, tag=4)
        got = exact_nu_chunk(spec, pp, self.H, grid, stream, seed, 48)
        want = scalar_nu_chunk(spec, pp, self.H, grid, stream, seed, 48)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        paths = chunk_paths(spec, self.H, stream, seed, 48)
        lows = assert_lows_match_scalar(paths, alpha)
        assert lows.invrate.any() == (regime in self.DRIFT_EPISODES)

    def test_a_batch_of_drift_and_jump_chunks(self, monkeypatch):
        """Two hand-built chunks at delta = -0.4 in one batch: chunk 0 drifts
        below 0, chunk 1 is thrown above 0 at t = 0 and drains there until
        one jump below 0 at the horizon, so it holds jump episodes alone.
        Each chunk's sums and censored counts equal the scalar reference,
        bit for bit, on either branch of _nu_sums."""
        h, alpha = 5.0, 0.5
        parts = [[EventPath(0.0, h, -0.4, np.array([1.0, 3.0]), np.array([-0.5, 2.0])),
                  EventPath(0.0, h, -0.4, np.array([2.5]), np.array([-1.2])),
                  EventPath(0.0, h, -0.4, np.empty(0), np.empty(0))],
                 [EventPath(0.0, h, -0.4, np.array([0.0, 2.0, h]), np.array([10.0, -3.0, -6.0])),
                  EventPath(0.0, h, -0.4, np.array([0.0, h]), np.array([6.0, -4.0]))]]
        lows = [assert_lows_match_scalar(p, alpha) for p in parts]
        assert lows[0].invrate.any() and not lows[1].invrate.any()
        assert lows[1].t0.tolist() == [h, math.inf, h, math.inf]  # one jump record each
        stream = RngStream(176, tag=4)
        fake = lambda spec, horizon, m, s: event_columns(parts[s.index - stream.index])
        for module in (estimation, sys.modules[__name__]):  # the reference's draw too
            monkeypatch.setattr(module, "sample_path", fake)
        spec, pp = spec_with_drift(-0.4), params(alpha=alpha)
        grid = np.array([0.0, 0.3, 0.9, 1.0, 1.7, 2.0, 2.5, 3.0, 4.5])
        got = _nu_chunk(draw(spec, pp, h), pp, grid, stream, [(0, 3), (1, 2)])
        for ci, (sums, cens) in enumerate(got):
            want = scalar_nu_chunk(spec, pp, h, grid, stream, ci, len(parts[ci]))
            for g, w in zip((sums[:, 0], sums[:, 1], cens), want):
                assert np.array_equal(g, w)

    def test_censored_counts_of_deep_and_shallow_paths(self, monkeypatch):
        """delta = 0.6 > alpha = 0.3, so a path rises off 0 at 0.3 and below
        0 at 0.6.  Two paths jump below -max(grid) at t = 1 and leave the
        sweep there, one stops near -1.5 at t = 3, one jumps up and one has
        no event.  The paths that left pass every point and are censored at
        none; those that never pass below 0 are censored at every point."""
        h, alpha = 10.0, 0.3
        paths = [EventPath(0.0, h, 0.6, np.array([1.0, 5.0]), np.array([-10.0, -20.0])),
                 EventPath(0.0, h, 0.6, np.array([2.0]), np.array([1.0])),
                 EventPath(0.0, h, 0.6, np.array([3.0]), np.array([-2.4])),
                 EventPath(0.0, h, 0.6, np.empty(0), np.empty(0)),
                 EventPath(0.0, h, 0.6, np.array([1.0]), np.array([-4.0]))]
        for module in (estimation, sys.modules[__name__]):  # the reference's draw too
            monkeypatch.setattr(module, "sample_path", lambda *args: event_columns(paths))
        spec, pp = spec_with_drift(0.6), params(alpha=alpha)
        grid = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
        stream = RngStream(177, tag=4)
        lows = draw(spec, pp, h)((stream,), [(0, 5)]).record_lows(grid[-1])
        final = lows.hi[lows.t0 == math.inf]
        # the path near -9.7 left before its jump of -20 at t = 5
        assert -10.0 < final[0] < -grid[-1] and final[4] < -grid[-1]
        assert final[1] == final[3] == 0.0 and -1.6 < final[2] < -1.4
        sw, _, cens = exact_nu_chunk(spec, pp, h, grid, stream, 0, 5)
        assert np.array_equal(cens, [2.0, 2.0, 2.0, 3.0, 3.0])
        np.testing.assert_allclose(sw, 2 * np.exp(-Q) + np.exp(-3 * Q) * (grid < 1.5),
                                   rtol=1e-12)
        for g, w in zip((sw, cens), scalar_nu_chunk(spec, pp, h, grid, stream, 0, 5)[::2]):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("alpha", [0.3, math.inf])
    def test_no_path_below_zero(self, alpha):
        """Up-jumps only and delta = 0.5: above the cap the path rises from
        0, and at alpha = inf it stays at 0.  No episode at all, and every
        path is censored at every threshold."""
        spec = JumpDiffusionSpec(gamma=1.0, sigma=0.0,
                                 jump_components=((1.0, 1, Uniform(0.0, 1.0)),))
        grid = np.array([0.0, 0.5, 2.0])
        stream = RngStream(170, tag=4)
        paths = chunk_paths(spec, self.H, stream, 0, 16)
        assert np.all(assert_lows_match_scalar(paths, alpha).t0 == math.inf)
        sw, sw2, cens = exact_nu_chunk(spec, params(alpha=alpha), self.H,
                                       grid, stream, 0, 16)
        assert np.array_equal(sw, np.zeros(3)) and np.array_equal(sw2, np.zeros(3))
        assert np.array_equal(cens, np.full(3, 16.0))

    @pytest.mark.parametrize("delta", [-0.5, 0.4])
    def test_paths_without_events(self, delta):
        grid = np.array([0.0, 1.0, 9.0, 11.0])
        args = (drift_only(delta), params(alpha=0.3), self.H, grid, RngStream(171, tag=4))
        got = exact_nu_chunk(*args, 0, 4)
        for g, w in zip(got, scalar_nu_chunk(*args, 0, 4)):
            assert np.array_equal(g, w)
        if delta < 0:  # at -0.5 the path reaches -10 at the horizon
            np.testing.assert_allclose(got[0], 4 * np.exp(-Q * grid / 0.5) * (grid < 10),
                                       rtol=1e-12)
            assert np.array_equal(got[2], [0.0, 0.0, 0.0, 4.0])
        else:
            assert np.array_equal(got[0], np.zeros(4))
            assert np.array_equal(got[2], np.full(4, 4.0))

    @pytest.mark.parametrize("grid", [[], [0.0]], ids=["no-b>=0", "b=0"])
    def test_degenerate_grids(self, ref_spec_bv, grid):
        grid = np.array(grid)
        args = (ref_spec_bv, params(alpha=0.3), self.H, grid, RngStream(172, tag=4))
        got = exact_nu_chunk(*args, 0, 24)
        for g, w in zip(got, scalar_nu_chunk(*args, 0, 24)):
            assert g.shape == grid.shape and np.array_equal(g, w)
        curve = nu_curve(params(alpha=0.3), ref_spec_bv, np.array([-1.0, -0.5]),
                         self.H, 0, 24, RngStream(172, tag=4))
        assert np.array_equal(curve.values, [1.0, 1.0])

    def test_closed_forms_of_a_hand_built_pair(self, monkeypatch):
        """Drift -0.5 to the horizon 10: level -b is reached at b / 0.5.
        The same drift with a jump of -2 at t = 3: the drift reaches -1.5,
        the jump skips the levels down to -3.5 at time 3, and the drift
        reaches -b at 3 + (b - 3.5) / 0.5 from there."""
        d, te = 0.5, 3.0
        paths = [EventPath(0.0, 10.0, -d, np.empty(0), np.empty(0)),
                 EventPath(0.0, 10.0, -d, np.array([te]), np.array([-2.0]))]
        assert_lows_match_scalar(paths, 0.5)
        grid = np.array([0.0, 0.7, 1.5, 2.0, 3.4, 4.0, 6.5, 8.0])
        monkeypatch.setattr(estimation, "sample_path", lambda *args: event_columns(paths))
        sw, sw2, cens = exact_nu_chunk(drift_only(-d), params(alpha=0.5), 10.0,
                                       grid, RngStream(174, tag=4), 0, 2)
        first = np.where(grid < 10 * d, np.exp(-Q * grid / d), 0.0)
        second = np.where(grid <= 1.5, np.exp(-Q * grid / d),
                          np.where(grid < 3.5, np.exp(-Q * te),
                                   np.exp(-Q * (te + (grid - 3.5) / d)) * (grid < 7)))
        np.testing.assert_allclose(sw, first + second, rtol=1e-12)
        np.testing.assert_allclose(sw2, first ** 2 + second ** 2, rtol=1e-12)
        # the minima at the horizon are -5 and -7
        assert np.array_equal(cens, (grid >= 5) + (grid >= 7.0) * 1.0)

    def test_a_drain_onto_zero_is_no_passage(self, monkeypatch):
        """Case 2 at alpha = 1, net drift 0.3: parked at 0, an up-jump of
        0.2 at t = 1 drains back at rate 0.7.  Its end, recomputed from the
        crossing time, rounds to -5.6e-17; it must end at 0, so the path
        never passes below 0 and is censored at every threshold."""
        spec = drift_only(0.3)
        assert is_case2(net_drift(spec), 1.0)
        paths = [EventPath(0.0, 10.0, 0.3, np.array([1.0]), np.array([0.2]))]
        lows = assert_lows_match_scalar(paths, 1.0)
        assert lows.t0.tolist() == [math.inf] and lows.hi[0] == 0.0
        monkeypatch.setattr(estimation, "sample_path", lambda *args: event_columns(paths))
        grid = np.array([0.0, 0.5])
        sw, sw2, cens = exact_nu_chunk(spec, params(alpha=1.0), 10.0, grid,
                                       RngStream(175, tag=4), 0, 1)
        assert np.array_equal(sw, np.zeros(2)) and np.array_equal(sw2, np.zeros(2))
        assert np.array_equal(cens, np.ones(2))

    def test_zero_length_segments_and_edge_times(self):
        """Knots refract_exact overwrites or keeps: a jump at the horizon
        (the last segment has zero length and is kept), jumps at t = 0
        (the first segment has zero length and is overwritten), down to
        -0.3 and up to 0.8, and a jump a hair below 0 that a rising drift
        crosses back at once (again a zero-length segment)."""
        h = 6.0
        paths = [EventPath(0.0, h, -0.4, np.array([1.0, 2.0, 4.0]),
                           np.array([0.3, -1.0, -0.5])),
                 EventPath(0.0, h, -0.4, np.array([2.0, h]), np.array([-0.2, -3.0])),
                 EventPath(0.0, h, -0.4, np.array([0.0, 1.5]), np.array([-0.7, 0.1])),
                 EventPath(0.0, h, -0.4, np.array([0.0, 1.0]), np.array([-0.3, -0.1])),
                 EventPath(0.0, h, -0.4, np.array([0.0, 0.5]), np.array([0.8, 1.0])),
                 EventPath(0.0, h, -0.4, np.array([1.0]), np.array([-1e-300]))]
        for alpha in (0.3, 0.5, math.inf):
            for delta in (-0.4, 0.2, 0.7):
                moved = [replace(p, drift=delta) for p in paths]
                assert_lows_match_scalar(moved, alpha)

    def test_a_second_crossing_raises(self, monkeypatch):
        """A lane past path_engine.MAX_CROSSINGS crossings between two
        events raises."""
        # a table in which every state heads for 0: the lane at 0 crosses
        # it at once, on every stretch, until the bound is passed
        table = path_engine._regime_table

        def heading_for_0(*args):
            rows = table(*args)
            rows[4] = 0.0
            return rows

        monkeypatch.setattr(path_engine, "_regime_table", heading_for_0)
        with pytest.raises(RuntimeError):
            refracted_record_lows(
                event_columns([EventPath(0.0, 1.0, -0.5, np.empty(0), np.empty(0))]),
                0.5, Q, -0.5)


def knot_record_lows(incs, alpha, dt, mu=0.0):
    """The reference of euler_record_lows: every knot of the unfloored
    recursion in one (m, k) matrix, filled by a plain per-step loop, and the
    record lows read off each row, then its horizon: (path, lo, hi, t0, c),
    the controls read off one cumsum per row of the discounted centred
    increments."""
    m, k = incs.shape
    ctl = np.cumsum((incs - mu * dt) * np.exp(-Q * (dt * np.arange(k))), axis=1)
    ctl = np.hstack((np.zeros((m, 1)), ctl))  # column j: the control at knot j
    knots = np.zeros((m, k))
    steps = euler_knots(euler_steps(0.0, [incs], incs.shape, 0.0, alpha, dt, floor=False), (m,),
                        alpha * dt)
    for j, (state, _, _) in enumerate(steps, start=1):
        knots[:, j] = state
    eps = []
    for i in range(m):
        low = 0.0
        for j in range(1, k):
            if knots[i, j] < low:
                eps.append((i, knots[i, j], low, dt * j, ctl[i, j]))
                low = knots[i, j]
        # the levels below the row's minimum are not reached before the horizon
        eps.append((i, -math.inf, low, math.inf, ctl[i, k - 1]))
    path, *fields = zip(*eps)
    return (np.array(path, dtype=int),) + tuple(np.array(f) for f in fields)


class TestEulerNuBlocks:
    WIDTHS = [1, 3, 8, 16, 32, 200]

    @pytest.mark.parametrize("width", WIDTHS)
    def test_block_width_never_changes_a_byte(self, ref_spec_gauss, width, monkeypatch):
        """euler_record_lows on blocks of 1 to K = 200 knots equals the
        record lows read off the full knot matrix, and its controls a per-row
        cumsum, bit for bit."""
        monkeypatch.setattr(strategy_engine, "BLOCK_KNOTS", width)
        incs = grid_increments(ref_spec_gauss, 5.0, 200, 64,
                               RngStream(173, tag=4).for_path(1))
        mu = mean_drift(ref_spec_gauss)
        for alpha in (0.5, math.inf):
            lows = record_lows(incs, alpha, 5.0 / 200, Q, mu)
            path, lo, hi, t0, c = knot_record_lows(incs, alpha, 5.0 / 200, mu)
            assert path.size > 2 * 64  # most paths set several records
            assert lows.drain == 0.0
            for got, want in ((lows.path, path), (lows.lo, lo), (lows.hi, hi),
                              (lows.t0, t0), (lows.invrate, np.zeros(path.size)),
                              (lows.c, c)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_block_width_never_changes_the_flows(self, ref_spec_gauss, width, alpha,
                                                 monkeypatch):
        """euler_lane_flows on spliced and direct lanes, starts at, below and
        above 0 and b, and simulate_euler give the bytes of the default
        block width at every width."""
        xs, bs, halts = zip(*[(-0.4, 1.2, True), (0.0, 1.2, True), (0.0, 0.0, False),
                              (0.6, 1.2, True), (1.2, 1.2, False), (2.5, 1.2, True)])
        incs = grid_increments(ref_spec_gauss, 5.0, 200, 32,
                               RngStream(174, tag=4).for_path(1))
        pp, mu = params(b=1.2, alpha=alpha), mean_drift(ref_spec_gauss)

        def run():
            flows = lane_flows(incs, xs, bs, halts, alpha, 5.0 / 200, Q, mu, every_path(6, 32))
            paths = [strategy_engine.simulate_euler(x, pp, incs[i], 5.0 / 200)
                     for x in (-0.4, 0.5, 1.2, 2.5) for i in range(0, 32, 8)]
            return ([getattr(flows, f).tobytes() for f in FIELDS]
                    + [getattr(p, f).tobytes() for p in paths for f in ("z", "l", "r", "branch")])

        want = run()
        monkeypatch.setattr(strategy_engine, "BLOCK_KNOTS", width)
        assert run() == want

    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    @pytest.mark.parametrize("cuts", [[64, 136], [16, 112, 72], [16] * 12 + [8], [48, 192]])
    def test_windows_never_change_a_byte(self, ref_spec_gauss, cuts, alpha):
        """Both readers read a matrix sent as windows of whole blocks, the
        last of any width, with the bytes of the one window."""
        xs, bs, halts = zip(*[(-0.4, 1.2, True), (0.0, 0.0, False), (0.6, 1.2, True),
                              (2.5, 1.2, False)])
        incs = grid_increments(ref_spec_gauss, 5.0, 200, 32, RngStream(175, tag=4).for_path(1))
        args = (alpha, 5.0 / 200, Q, mean_drift(ref_spec_gauss))
        got, want = (lane_flows(incs, xs, bs, halts, *args, every_path(4, 32), w)
                     for w in (cuts, None))
        assert [getattr(got, f).tobytes() for f in FIELDS] == [
            getattr(want, f).tobytes() for f in FIELDS]
        got, want = (record_lows(incs, *args, w) for w in (cuts, None))
        assert got.drain == want.drain == 0.0
        for f in ("path", "lo", "hi", "t0", "invrate", "c"):
            assert getattr(got, f).tobytes() == getattr(want, f).tobytes()

    def test_a_window_of_part_of_a_block_is_refused(self, ref_spec_gauss):
        """Blocks are cut from each window in turn, so a window before the
        last that ends inside a block would shift every later knot."""
        incs = grid_increments(ref_spec_gauss, 5.0, 200, 32, RngStream(175, tag=4).for_path(1))
        with pytest.raises(ValueError, match="whole blocks"):
            record_lows(incs, 0.5, 5.0 / 200, Q, 0.0, [7, 193])


# the martingale control of nu --------------------------------------------------

def per_path_terms(lows, grid, q):
    """(w, c) of every (path, grid point), (2, m, nb): each path read by
    _nu_sums as a one-path chunk."""
    cut = np.searchsorted(lows.path, np.arange(lows.path[-1] + 2))
    return np.stack([_nu_sums(lows, slice(a, z), 1, grid, q)[0][:, [0, 5]].T
                     for a, z in zip(cut, cut[1:])], axis=1)


def oracle_terms(cols, grid, pp, mu):
    """(w, c) of every (path, grid point) off the trajectory_table of the
    floored paths started at b and refracted at b: kappa(b) is their strict
    passage below 0 (first_passage_times), and c the compensated jumps up
    to kappa(b), or to the horizon when it does not occur."""
    w, c = np.zeros((2, cols.counts.size, len(grid)))
    for j, table in enumerate(trajectory_table(cols, grid, grid, pp.alpha, True)):
        kappa = first_passage_times(table).kappa_strict
        stop = np.minimum(kappa, cols.horizon)
        jumps = np.sum(np.exp(-pp.q * cols.times) * cols.sizes * (cols.times <= stop), axis=0)
        w[:, j] = np.exp(-pp.q * kappa)
        c[:, j] = jumps - (mu - cols.drift) * -np.expm1(-pp.q * stop) / pp.q
    return w, c


def random_two_sided(seed):
    """A random two-sided bounded-variation model and its strategy."""
    rng = np.random.default_rng(seed)
    while True:
        spec, pp, *_ = draw_random_bv_setup(rng)
        if len(spec.jump_components) == 2:
            return spec, pp


class TestNuControl:
    """nu is controlled by the compensated driver at kappa(b): the control
    is read right, has mean 0, is tied to w, and the depth at which a
    sweep stops changes no byte."""

    H = 20.0

    @pytest.mark.parametrize("case", ["random-%d" % i for i in range(6)]
                             + ["delta<0", "inf-delta<0", "0<delta<alpha"])
    def test_control_at_the_passage_matches_the_oracle(self, case):
        """Per path and grid point, w and c equal those read off the
        trajectory_table and first_passage_times of the floored path
        started at b, to 1e-12; drift records (delta < 0) included."""
        if case.startswith("random"):
            spec, pp = random_two_sided(int(case[7:]))
        else:
            spec, alpha = TestExactNuChunk.REGIMES[case]
            pp = params(alpha=alpha)
        mu, stream = mean_drift(spec), RngStream(190, tag=4)
        # and a point out of reach, where c is read at the horizon
        grid = np.concatenate(([0.0], np.sort(np.random.default_rng(7).uniform(0.0, 4.0, 7)),
                               [100.0]))
        cols = _chunk_readers(spec, pp, self.H, 0, "exact", (stream,), [(0, 48)]).record_lows.args[0]
        lows = refracted_record_lows(cols, pp.alpha, pp.q, mu)
        assert (lows.invrate > 0).any() == (cols.drift < 0)  # drift records below 0
        got = per_path_terms(lows, grid, pp.q)
        want = oracle_terms(cols, grid, pp, mu)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
        assert (want[0] == 0).any() and (want[0] > 0).any()

    @pytest.mark.parametrize("engine", ["exact", "euler"])
    def test_a_permuted_control_leaves_the_variance(self, ref_spec_bv, ref_spec_gauss, engine):
        """Negative control: c permuted across paths is tied to nothing, and
        regressing w on it leaves the variance within 5 %; the control in
        place divides it by more than 2."""
        spec, k = (ref_spec_bv, 0) if engine == "exact" else (ref_spec_gauss, 200)
        pp, n, grid = params(), 2048, np.array([1.0, 2.0])
        lows = _chunk_readers(spec, pp, self.H, k, engine, (RngStream(191, tag=4),),
                              [(0, n)]).record_lows()
        w, c = per_path_terms(lows, grid, pp.q)
        perm = c[np.random.default_rng(3).permutation(n)]
        for j in range(len(grid)):
            var = {}
            for name, cj in (("plain", np.zeros(n)), ("permuted", perm[:, j]), ("control", c[:, j])):
                wj = w[:, j]
                sums = [wj.sum(), (wj * wj).sum(), 0.0, 0.0, 0.0, cj.sum(), (cj * cj).sum(),
                        (wj * cj).sum(), 0.0]
                var[name] = _estimate(sums, 0.0, n).std_error ** 2
            assert var["permuted"] == pytest.approx(var["plain"], rel=0.05)
            assert var["control"] < var["plain"] / 2

    @pytest.mark.parametrize("engine", ["exact", "euler"])
    @pytest.mark.parametrize("drift", [-1.0, 0.4])
    def test_without_noise_the_plain_mean_comes_back(self, engine, drift):
        """On a drift-only model c = 0 exactly, so theta = 0: the curve is
        the plain mean of w with its n - 1 variance."""
        spec, k, n, stream = drift_only(drift), 500, 64, RngStream(192, tag=4)
        grid = np.array([0.5, 2.0, 30.0])
        lows = _chunk_readers(spec, params(), self.H, k, engine, (stream,), [(0, n)]).record_lows()
        assert not lows.c.any()
        curve = nu_curve(params(), spec, grid, self.H, k, n, stream, engine=engine)
        w, _ = per_path_terms(lows, grid, Q)
        for j in range(len(grid)):
            # w and w^2 summed path by path, and no control
            plain = _estimate([np.cumsum(w[:, j])[-1], np.cumsum(w[:, j] ** 2)[-1]] + [0.0] * 7,
                              0.0, n)
            assert curve.values[j] == plain.mean == pytest.approx(np.mean(w[:, j]), rel=1e-14)
            assert curve.std_errors[j] == plain.std_error

    @pytest.mark.parametrize("engine", ["exact", "euler"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_depth_changes_no_byte(self, ref_spec_bv, ref_spec_gauss, engine, seed):
        """A path that leaves the sweep below the deepest grid point has
        passed every point: with and without the depth, every chunk's sums
        and censored counts are equal bit for bit on random grids."""
        spec, k = (ref_spec_bv, 0) if engine == "exact" else (ref_spec_gauss, 300)
        pp, rng = params(), np.random.default_rng(seed)
        grid = np.sort(rng.uniform(0.0, rng.uniform(0.5, 4.0), rng.integers(1, 40)))
        readers = _chunk_readers(spec, pp, self.H, k, engine, (RngStream(193 + seed, tag=4),),
                                 [(0, 256)])
        deep, full = readers.record_lows(grid[-1]), readers.record_lows()
        assert deep.path.size < full.path.size  # paths did leave
        got, want = (_nu_sums(lows, slice(None), 256, grid, pp.q) for lows in (deep, full))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
