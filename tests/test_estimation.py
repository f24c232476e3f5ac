import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from levyrefract.levy_model import (
    EXACT, EventColumns, Grid, InvalidParameter, JumpDiffusionSpec, RngStream, Uniform,
    Weibull, _grid_increment_matrix, is_case2, net_drift, sample_path,
)
from levyrefract import estimation, path_engine, strategy_engine
from levyrefract.path_engine import refract_exact, refracted_record_lows
from levyrefract.properties_oracle import alpha_ladder_run, coupled_pair_run
from levyrefract.strategy_engine import (
    StrategyParams, apply_strategy_exact, euler_lane_flows, euler_record_lows,
    euler_steps,
)
from levyrefract.estimation import (
    DegenerateDenominator, NoCrossing, _chunk_readers, _clock_chunk, _nu_chunk,
    _run_sums, _value_chunk, estimate_underline_nu, find_bstar, nu_curve,
    solve_pstar, value_curve, value_curve_csv,
)

from conftest import REFERENCE_GAMMA, drift_only, event_columns
from oracles import EventPath, event_paths, first_passage_times

Q = 0.05
BETA = 1.5
# e^{-Q T} is about 2e-22 here, below the last bit of the perpetual values
# -BETA / Q and alpha / Q, so a value at T is the perpetual one
PERPETUAL_T = 1000.0


def params(b=1.0, alpha=0.5):
    return StrategyParams(b=b, alpha=alpha, beta=BETA, q=Q)


def draw(spec, pp, horizon, k=0, engine="exact"):
    """The estimators' chunk draw with its two readers."""
    return partial(_chunk_readers, spec, pp, horizon, k, engine)


def chunk_paths(spec, horizon, stream, ci, m):
    """Chunk ci's exact paths, as _chunk_readers draws them."""
    return event_paths(sample_path(replace(spec, x0=0.0), horizon, EXACT, stream.for_path(ci), m))


def exact_nu_chunk(spec, pp, horizon, grid, stream, ci, m):
    """Exact nu chunk ci, read as a one-chunk batch."""
    (sums,) = _nu_chunk(draw(spec, pp, horizon), pp, grid, stream, [(ci, m)])
    return sums


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
        curve = nu_curve(params(), ref_spec_bv, np.linspace(0.0, 3.0, 31),
                         15.0, 0, 512, RngStream(102, tag=1))
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


class TestExactClockChunk:
    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    @pytest.mark.parametrize("x,b", [(-0.4, 1.2), (0.0, 1.2), (0.0, 0.0),
                                     (0.6, 1.2), (1.2, 1.2), (2.5, 1.2)])
    def test_reads_the_scalar_passage_times_bitwise(self, ref_spec_bv, x, b, alpha):
        """Both clocks of the chunk's one batched sweep are the times
        first_passage_times reads off each path's floored strategy path."""
        pp = params(b=b, alpha=alpha)
        stream = RngStream(150, tag=2)
        base = replace(ref_spec_bv, x0=x)
        table = apply_strategy_exact(sample_path(base, 8.0, EXACT, stream.for_path(3), 24), pp)
        times = [first_passage_times(table.block(i, i + 1)) for i in range(24)]
        strict = np.array([pt.kappa_strict for pt in times])
        weak = np.array([pt.t_weak for pt in times])
        ws, ww = np.exp(-Q * strict), np.exp(-Q * weak)
        want = np.asarray([ws.sum(), (ws * ws).sum(), ww.sum(), (ww * ww).sum(),
                           (ws * ww).sum()])
        ((acc, cens),) = _clock_chunk(draw(ref_spec_bv, pp, 8.0), pp, x, stream, [(3, 24)])
        assert acc.tobytes() == want.tobytes()
        assert cens[0] == np.sum((strict == math.inf) | (weak == math.inf))


class TestClockLanes:
    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    @pytest.mark.parametrize("engine", ["exact", "euler"])
    def test_halting_lanes_read_the_unspliced_clocks(self, ref_spec_bv, ref_spec_gauss,
                                                     engine, alpha):
        """The clock reads its lanes as halting, so each leaves the sweep
        once both its passages are known; halting gates the flows only,
        so both clocks equal the unspliced reading byte for byte."""
        spec = ref_spec_bv if engine == "exact" else ref_spec_gauss
        pp = params(b=1.2, alpha=alpha)
        readers = draw(spec, pp, 30.0, 1500, engine)(RngStream(151, tag=2), [(3, 64)])
        for x in (-0.4, 0.0, 0.6, 1.2, 2.5):
            halted = readers.lane_flows([x], [1.2], [True])
            free = readers.lane_flows([x], [1.2], [False])
            assert halted.kappa_strict.tobytes() == free.kappa_strict.tobytes()
            assert halted.t_weak.tobytes() == free.t_weak.tobytes()


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

    def test_case2_at_zero_threshold_is_refused(self):
        """Drift 0.3 inside (0, alpha] parked at b = 0: the exact clock
        solves to (beta - 1) / beta, but the recursion cannot stay at 0 and
        would answer 1, so the Euler engine is refused there.  Above the
        cap (Case 1) the path leaves 0 and the Euler clock still runs."""
        pp = params(b=0.0, alpha=0.5)
        with pytest.raises(InvalidParameter) as err:
            solve_pstar(pp, drift_only(0.3), 0.0, self.T, 8,
                        RngStream(126, tag=1), k=self.K, engine="euler")
        assert err.value.field_name == "engine"
        with pytest.raises(InvalidParameter):
            estimate_underline_nu(0.0, 0.0, 0.5, pp, drift_only(0.3), self.T,
                                  8, RngStream(126, tag=1), k=self.K,
                                  engine="euler")
        exact, euler = (
            estimate_underline_nu(0.0, 0.0, 0.5, params(b=0.0, alpha=0.2),
                                  drift_only(0.3), 40.0, 8,
                                  RngStream(126, tag=1), k=self.K, engine=eng)
            for eng in ("exact", "euler"))
        assert exact.mean == pytest.approx(0.5 * BETA, rel=1e-12)
        assert abs(euler.mean - exact.mean) <= 1e-6

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


class TestSharedNoise:
    """At sigma = 0 an Euler chunk runs the exact chunk's paths binned to
    its grid, and both engines give a passage missed before T the weight 0,
    so on one stream the engines differ by the grid alone."""

    @pytest.fixture(scope="class")
    def gaps(self, ref_spec_bv):
        pp = params(alpha=0.5)
        stream = RngStream(3, tag=1)
        grid = np.round(np.arange(0.0, 3.5, 0.1), 10)
        clocks = [(x, 1.0, 0.5) for x in (0.5, 2.0)]

        def run(k, engine):
            nu = nu_curve(pp, ref_spec_bv, grid, 5.0, k, 512, stream, engine=engine)
            clock = [estimate_underline_nu(x, b, p, pp, ref_spec_bv, 5.0, 512, stream,
                                           k=k, engine=engine).mean for x, b, p in clocks]
            return nu.values, np.array(clock)

        exact = run(0, "exact")
        return {k: [np.max(np.abs(eu - ex)) for eu, ex in zip(run(k, "euler"), exact)]
                for k in (200, 2000)}

    @pytest.mark.parametrize("reading", [0, 1], ids=["nu_curve", "underline_nu"])
    def test_the_gap_closes_with_the_step_count(self, gaps, reading):
        assert gaps[2000][reading] <= 0.005
        assert gaps[2000][reading] < gaps[200][reading]


STEPLESS_EULER_CALLS = {
    "solve_pstar": lambda s, st: solve_pstar(params(), s, 1.0, 5.0, 64, st, k=0),
    "nu_curve": lambda s, st: nu_curve(params(), s, [0.5, 1.0], 5.0, 0, 64, st),
    "find_bstar": lambda s, st: find_bstar(params(), s, [0.5, 1.0], 5.0, 0, 64, st),
    "nu_curve-one-point": lambda s, st: nu_curve(params(), s, [1.0], 5.0, 0, 64, st),
    "value_curve": lambda s, st: value_curve([0.5], 1.0, params(), s, 5.0, 0, 64, st),
    "estimate_underline_nu": lambda s, st: estimate_underline_nu(
        0.5, 1.0, 0.5, params(), s, 5.0, 64, st, k=0),
    # two chunks on two workers: the error crosses the process boundary
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
    "sample_path": lambda s, k, h: sample_path(s, h, Grid(k) if k else EXACT,
                                               RngStream(143, tag=1)),
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
        text = value_curve_csv(rows)
        assert text.splitlines()[0] == "x,b,v,se,method"
        assert text.splitlines()[1].endswith(",direct")


def per_point_lane_flows(xs, bs, spliced, incs, alpha, dt, q):
    """The per-point reference of euler_lane_flows: one recursion pass for
    each (x, b) point, read step by step with masks, as (J, m) arrays of
    (dl, dr, kappa_strict, t_weak)."""
    out = []
    for x, b, halts in zip(xs, bs, spliced):
        m = incs.shape[0]
        dl = np.zeros(m)
        dr = np.full(m, -x if x < 0.0 else 0.0)
        kappa = np.full(m, 0.0 if x < 0.0 else math.inf)
        weak = np.full(m, 0.0 if x <= 0.0 else math.inf)
        steps = euler_steps(x, incs, b, alpha, dt, floor=True)
        for j, (state, step_l, step_r) in enumerate(steps, start=1):
            t = dt * j
            disc = math.exp(-q * t)
            live = (weak == math.inf) | (not halts)
            dl[live] += step_l[live] * disc
            dr[live] += step_r[live] * disc
            weak[(state <= 0.0) & (weak == math.inf)] = t
            kappa[(step_r > 0.0) & (kappa == math.inf)] = t
        out.append((dl, dr, kappa, weak))
    return tuple(np.array(f) for f in zip(*out))


class TestEulerRunSums:
    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    @pytest.mark.parametrize("spliced", [True, False])
    @pytest.mark.parametrize("k", [50, 400])
    def test_one_pass_equals_per_point_loop_bitwise(self, ref_spec_gauss, k,
                                                    spliced, alpha, monkeypatch):
        """euler_lane_flows reads every point off one recursion pass; each
        of its four fields equals the per-point loop bit for bit."""
        # starts below 0, at 0, at b, above b, and a shared start
        xs, bs = zip(*[(-0.4, 1.2), (0.0, 1.2), (0.0, 0.0), (0.6, 1.2),
                       (1.2, 1.2), (2.5, 1.2), (0.6, 2.0)])
        halts = [spliced] * len(xs)
        incs = _grid_increment_matrix(ref_spec_gauss, 5.0, k, 256,
                                      RngStream(140, tag=3).for_path(1).generator())
        want = per_point_lane_flows(xs, bs, halts, incs, alpha, 5.0 / k, Q)
        passes = []

        def counted(*args, **kw):
            passes.append(args)
            return euler_steps(*args, **kw)

        monkeypatch.setattr(strategy_engine, "euler_steps", counted)
        got = euler_lane_flows(xs, bs, halts, incs, alpha, 5.0 / k, Q)
        assert len(passes) == 1  # one recursion pass serves every point
        for g, w in zip((got.dl, got.dr, got.kappa_strict, got.t_weak), want):
            assert g.shape == (len(xs), 256)
            assert g.tobytes() == w.tobytes()
        assert np.all(got.t_weak <= got.kappa_strict)
        # lanes that start above 0 pass and miss both ways before T
        for t in (got.kappa_strict[3:], got.t_weak[3:]):
            assert np.any(t < math.inf) and np.any(t == math.inf)
        if spliced:  # a halted lane adds no flow after its weak passage
            assert np.array_equal(got.dl[0], np.zeros(256))
            assert np.array_equal(got.dr[0], np.full(256, 0.4))

    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    def test_stopped_lanes_are_dropped_not_masked(self, alpha):
        """Every spliced lane injects by step 3 and the increments after
        step 5 are NaN: the lanes leave the recursion before they read
        them, where a weight of 0 would keep NaN * 0 = NaN."""
        rng = np.random.default_rng(21)
        incs = rng.normal(0.0, 0.1, (64, 40))
        incs[:, 2] = -20.0
        clean = incs.copy()
        clean[:, 5:] = 0.0
        incs[:, 5:] = np.nan
        xs, bs = (-0.4, 0.0, 0.5, 2.0, 6.0), (1.2, 1.2, 0.0, 1.2, 1.2)
        got = euler_lane_flows(xs, bs, [True] * 5, incs, alpha, 0.1, Q)
        assert np.all(np.isfinite(got.dl)) and np.all(np.isfinite(got.dr))
        assert np.all(got.kappa_strict <= 3 * 0.1)
        want = euler_lane_flows(xs, bs, [True] * 5, clean, alpha, 0.1, Q)
        for g, w in zip((got.dl, got.dr, got.kappa_strict, got.t_weak),
                        (want.dl, want.dr, want.kappa_strict, want.t_weak)):
            assert g.tobytes() == w.tobytes()

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
        incs = _grid_increment_matrix(ref_spec_gauss, horizon, k, 48,
                                      RngStream(142, tag=3).for_path(2).generator())
        want = per_point_lane_flows(xs, bs, halts, incs, alpha, horizon / k, Q)
        drops = []
        drop = path_engine.Lanes.drop

        def counted(lanes, done, *fields):
            drops.append(int(np.count_nonzero(done)))
            return drop(lanes, done, *fields)

        monkeypatch.setattr(path_engine.Lanes, "drop", counted)
        got = euler_lane_flows(xs, bs, halts, incs, alpha, horizon / k, Q)
        assert len(drops) >= 5
        for g, w in zip((got.dl, got.dr, got.kappa_strict, got.t_weak), want):
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
        paths.  An Euler run draws its increments once for every block."""
        points = [(x, b, spliced) for x, b in
                  [(-0.4, 1.2), (0.0, 1.2), (0.0, 0.0), (0.6, 1.2), (1.2, 1.2),
                   (2.5, 1.2), (0.6, 2.0)] for spliced in (True, False)]
        spec = ref_spec_bv if engine == "exact" else ref_spec_gauss
        pp = params(b=1.2)
        args = (draw(spec, pp, 5.0, 100, engine), pp, RngStream(141, tag=3), points, [(1, 128)])
        (want,) = _run_sums(*args)
        draws = []

        def counted(*a, **kw):
            draws.append(a)
            return _grid_increment_matrix(*a, **kw)

        monkeypatch.setattr(estimation, "_grid_increment_matrix", counted)
        monkeypatch.setattr(estimation, "BLOCK_LANES", lanes)
        (got,) = _run_sums(*args)
        assert len(draws) == (engine == "euler")
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


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
        runs = ((stream, [(0.6, 1.2, True), (2.5, 2.0, False)]),
                (stream.with_tag(9), [(0.0, 1.2, False)]))
        for reader in (partial(_nu_chunk, d, pp, grid, stream),
                       partial(_clock_chunk, d, pp, 0.6, stream),
                       partial(_value_chunk, d, pp, runs)):
            got = reader(chunks)
            want = [part for c in chunks for part in reader([c])]
            assert len(got) == len(want) == 3
            for g, w in zip(got, want):
                assert [a.tobytes() for a in g] == [a.tobytes() for a in w]

    def test_an_exact_batch_is_its_chunks_side_by_side(self, ref_spec_bv):
        """Both readers read one EventColumns: each chunk's columns as
        sample_path draws them, and (horizon, 0) below a shorter chunk."""
        pp, stream, chunks = params(b=1.2), RngStream(183, tag=5), [(2, 48), (3, 48), (4, 20)]
        readers = draw(ref_spec_bv, pp, 10.0)(stream, chunks)
        cols = readers.lane_flows.args[0]
        assert readers.record_lows.args[0] is cols
        assert np.array_equal(cols.x0, np.zeros(116))
        heights = []
        for (ci, m), r in zip(chunks, estimation._chunk_rows(chunks)):
            part = sample_path(replace(ref_spec_bv, x0=0.0), 10.0, EXACT, stream.for_path(ci), m)
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
            assert type(draws[-1]) is EventColumns and draws[-1].counts.size == args[4]
            return draws[-1]

        monkeypatch.setattr(estimation, "sample_path", columns)
        pp, stream = params(b=1.2), RngStream(182, tag=5)
        curve = nu_curve(pp, ref_spec_bv, np.linspace(0.0, 3.0, 7), 8.0, 0, 300, stream)
        assert len(draws) == 2
        rows = value_curve([-0.4, 0.0, 0.6, 2.5], 1.2, pp, ref_spec_bv, 8.0, 0, 300, stream)
        clock = estimate_underline_nu(0.6, 1.2, 0.5, pp, ref_spec_bv, 8.0, 300, stream)
        assert np.all(np.isfinite(curve.values)) and len(rows) == 4
        assert 0.0 < clock.mean < BETA
        assert len(draws) > 4

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
            clock = estimate_underline_nu(0.6, 1.2, 0.3, pp, spec, horizon, n, stream,
                                          k=k, engine=engine, threads=threads)
            out += [np.array([clock.mean, clock.std_error, clock.censored_fraction])]
            return [a.tobytes() for a in out]

        seen = {}
        for batch in (1, 3, estimation.BATCH):
            monkeypatch.setattr(estimation, "BATCH", batch)
            for threads in (1, 2):
                seen[batch, threads] = readings(threads)
        first = seen[1, 1]
        assert all(got == first for got in seen.values())


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
    slope = traj.seg_slope
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
    base = replace(spec, x0=0.0)
    nb = len(bgrid_pos)
    sw = np.zeros(nb)
    sw2 = np.zeros(nb)
    cens = np.zeros(nb)
    q = params.q
    cols = sample_path(base, horizon, EXACT, stream.for_path(ci), m)
    table = refract_exact(cols, 0.0, params.alpha)
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


def assert_lows_match_scalar(paths, alpha):
    """refracted_record_lows equals _min_episodes of each refracted path."""
    cols = event_columns(paths)
    lows = refracted_record_lows(cols, alpha)
    table = refract_exact(cols, 0.0, alpha)
    assert np.all(np.diff(lows.path) >= 0)  # path-major
    for i, p in enumerate(paths):
        *want, want_min = _min_episodes(table.block(i, i + 1), p.times)
        mine = lows.path == i
        for got, ref in zip((lows.lo, lows.hi, lows.t0, lows.invrate), want):
            assert np.array_equal(got[mine], ref), i
        assert lows.final_min[i] == want_min, i
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
        assert_lows_match_scalar(paths, alpha)

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
        assert assert_lows_match_scalar(paths, alpha).path.size == 0
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
        assert lows.path.size == 0 and lows.final_min[0] == 0.0
        monkeypatch.setattr(estimation, "sample_path", lambda *args: event_columns(paths))
        grid = np.array([0.0, 0.5])
        sw, sw2, cens = exact_nu_chunk(spec, params(alpha=1.0), 10.0, grid,
                                       RngStream(175, tag=4), 0, 1)
        assert np.array_equal(sw, np.zeros(2)) and np.array_equal(sw2, np.zeros(2))
        assert np.array_equal(cens, np.ones(2))

    def test_zero_length_segments_and_edge_times(self):
        """Knots refract_exact overwrites or keeps: a jump at the horizon
        (the last segment has zero length and is kept), a jump at t = 0
        (the first segment has zero length and is overwritten), starts
        below and above 0, and a jump a hair below 0 that a rising drift
        crosses back at once (again a zero-length segment)."""
        h = 6.0
        paths = [EventPath(0.0, h, -0.4, np.array([1.0, 2.0, 4.0]),
                           np.array([0.3, -1.0, -0.5])),
                 EventPath(0.0, h, -0.4, np.array([2.0, h]), np.array([-0.2, -3.0])),
                 EventPath(0.0, h, -0.4, np.array([0.0, 1.5]), np.array([-0.7, 0.1])),
                 EventPath(-0.3, h, -0.4, np.array([1.0]), np.array([-0.1])),
                 EventPath(0.8, h, -0.4, np.array([0.5]), np.array([1.0])),
                 EventPath(0.0, h, -0.4, np.array([1.0]), np.array([-1e-300]))]
        for alpha in (0.3, 0.5, math.inf):
            for delta in (-0.4, 0.2, 0.7):
                moved = [replace(p, drift=delta) for p in paths]
                assert_lows_match_scalar(moved, alpha)

    def test_a_second_crossing_raises(self, monkeypatch):
        """A lane past path_engine.MAX_CROSSINGS crossings between two
        events raises."""
        # a table in which the state 0 heads for 0 crosses it at once, on
        # every stretch, until the bound is passed
        monkeypatch.setattr(path_engine, "_next_target", lambda z, slope, b, floor: 0.0)
        with pytest.raises(RuntimeError):
            refracted_record_lows(
                event_columns([EventPath(0.0, 1.0, -0.5, np.empty(0), np.empty(0))]),
                0.5)


def knot_record_lows(incs, alpha, dt):
    """The reference of euler_record_lows: every knot of the unfloored
    recursion in one (m, k) matrix, filled by a plain per-step loop, and the
    record lows read off each row: (path, lo, hi, t0, final_min)."""
    m, k = incs.shape
    knots = np.zeros((m, k))
    for j, (state, _, _) in enumerate(euler_steps(0.0, incs, 0.0, alpha, dt, floor=False),
                                      start=1):
        knots[:, j] = state
    path, lo, hi, t0 = [], [], [], []
    final = np.zeros(m)
    for i in range(m):
        low = 0.0
        for j in range(1, k):
            if knots[i, j] < low:
                path.append(i)
                lo.append(knots[i, j])
                hi.append(low)
                t0.append(dt * j)
                low = knots[i, j]
        final[i] = low
    return (np.array(path, dtype=int), np.array(lo), np.array(hi), np.array(t0), final)


class TestEulerNuBlocks:
    @pytest.mark.parametrize("width", [1, 3, 200])
    def test_block_width_never_changes_a_byte(self, ref_spec_gauss, width, monkeypatch):
        """euler_record_lows with running minima over blocks of 1, 3 and
        K = 200 knots equals the record lows read off the full knot matrix,
        bit for bit."""
        monkeypatch.setattr(strategy_engine, "NU_BLOCK_STEPS", width)
        incs = _grid_increment_matrix(ref_spec_gauss, 5.0, 200, 64,
                                      RngStream(173, tag=4).for_path(1).generator())
        for alpha in (0.5, math.inf):
            lows = euler_record_lows(incs, alpha, 5.0 / 200)
            path, lo, hi, t0, final = knot_record_lows(incs, alpha, 5.0 / 200)
            assert path.size > 64  # most paths set several records
            for got, want in ((lows.path, path), (lows.lo, lo), (lows.hi, hi),
                              (lows.t0, t0), (lows.invrate, np.zeros(path.size)),
                              (lows.final_min, final)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
