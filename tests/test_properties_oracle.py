import ast
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from levyrefract import levy_model, properties_oracle
from levyrefract.levy_model import (
    EXACT, ExactModeUnavailable, InvalidParameter, JumpDiffusionSpec, PointMass, RngStream,
    sample_path,
)
from levyrefract.path_engine import read_segments, refract_exact, refracted_reflected_exact
from levyrefract.properties_oracle import (
    BLOCK, CharReport, InvalidLadder, LADDER_PROPS, PAIR_PROPS,
    Violation, _Block, alpha_ladder_run, char_function_check, check_pair,
    coupled_pair_run, value_shape_check, violations_csv,
)
from levyrefract.strategy_engine import StrategyParams, apply_strategy_exact

from conftest import drift_only, drift_path, event_columns, one_path
from oracles import (
    dividends_at, draw_random_bv_setup, event_paths, fixed_cap_violations, injections_at,
    left_limit_at, value_at,
)


# the floored transform on one EventPath, through the src reader
floored = one_path(refracted_reflected_exact)


def params(b=1.0, alpha=0.5, beta=1.5, q=0.05):
    return StrategyParams(b=b, alpha=alpha, beta=beta, q=q)


class TestCoupledPair:
    def test_clean_on_the_descending_pair(self):
        """Starts 0 and 1 under drift -1: the gap closes linearly at the
        floor and every coupled relation holds with equality."""
        rep = coupled_pair_run(drift_only(-1.0), params(b=2.0), 0.0, 0.0, 1.0,
                               3.0, 4, RngStream(300, tag=1))
        assert rep.ok
        assert rep.shift == 1.0
        assert rep.n_paths == 4
        assert rep.max_magnitude == 0.0
        assert all(line.startswith("PASS ") for line in rep.summary_lines())
        assert len(rep.summary_lines()) == len(PAIR_PROPS)

    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    def test_clean_on_jump_models(self, ref_spec_bv, alpha):
        rep = coupled_pair_run(ref_spec_bv, params(b=1.2, alpha=alpha), 0.4, 0.0, 0.6, 5.0,
                               25, RngStream(301, tag=1))
        assert rep.ok, rep.violation_counts

    def test_mismatched_barriers_fire(self, ref_spec_bv):
        # same driver refracted at different thresholds is not a valid
        # coupled pair; the detector must notice
        pp1, pp2 = params(b=1.0), params(b=2.5)
        viol = []
        for i in range(10):
            p = sample_path(ref_spec_bv, 5.0, EXACT, RngStream(302, tag=1, index=i), 1)
            t1 = refracted_reflected_exact(p, 1.0, 0.5)
            t2 = refracted_reflected_exact(replace(p, x0=p.x0 + 0.5), 2.5, 0.5)
            viol.extend(check_pair(t1, t2, 0.5, 1.0))
        assert len(viol) > 0
        props = {v.prop for v in viol}
        assert props <= set(PAIR_PROPS)

    def test_shift_window_enforced(self):
        with pytest.raises(InvalidParameter):
            coupled_pair_run(drift_only(-1.0), params(b=1.0), 0.0, 0.0, 1.5,
                             3.0, 2, RngStream(303, tag=1))
        with pytest.raises(InvalidParameter):
            coupled_pair_run(drift_only(-1.0), params(b=1.0), 0.0, 0.5, 0.2,
                             3.0, 2, RngStream(303, tag=1), relaxed=True)

    def test_relaxed_allows_equal_starts(self, ref_spec_bv):
        rep = coupled_pair_run(ref_spec_bv, params(b=1.0), 0.5, 0.0, 0.0, 3.0,
                               3, RngStream(304, tag=1), relaxed=True)
        assert rep.ok and rep.shift == 0.0

    def test_diffusion_models_rejected(self, ref_spec_gauss):
        with pytest.raises(ExactModeUnavailable):
            coupled_pair_run(ref_spec_gauss, params(), 0.0, 0.0, 0.5, 3.0, 2,
                             RngStream(305, tag=1))

    def test_negative_shift_rejected_by_the_pair_check(self):
        with pytest.raises(InvalidParameter):
            check_pair(None, None, -0.5, 1.0)

    def test_violation_csv_format(self):
        text = violations_csv([Violation(1.84, "pair_budget", 0.25)])
        lines = text.strip().splitlines()
        assert lines[0] == "time,property,magnitude"
        assert lines[1].split(",")[1] == "pair_budget"

    def test_a_jump_past_b_at_an_infinite_cap_pays_the_gap(self):
        """At alpha = inf a jump that lifts both paths past b pays each
        overshoot as a lump, so the dividend gap grows by the surplus gap
        the jump closes.  That is supported: the gap was open just before."""
        path = drift_path(-0.1, 0.2, 3.0, jumps=((1.0, 2.0),))
        tk = floored(path, 1.0, math.inf)
        tl = floored(replace(path, x0=path.x0 + 0.4), 1.0, math.inf)
        assert dividends_at(tl, 1.0) - dividends_at(tk, 1.0) == pytest.approx(0.4)
        assert check_pair(tk, tl, 0.4, 1.0) == []

    def test_a_dividend_gap_rise_away_from_b_fires(self):
        """Negative control of the dividend support: the upper path pays at
        its own threshold 1 while the check's b is 3, so the dividend gap
        rises while neither path is at b."""
        path = drift_path(1.0, 0.0, 1.5)
        tk = floored(path, 5.0, 0.5)
        tl = floored(replace(path, x0=path.x0 + 0.5), 1.0, 0.5)
        viol = check_pair(tk, tl, 0.5, 3.0)
        assert viol and {v.prop for v in viol} == {"pair_div_support"}
        assert all(0.5 < v.time <= 1.5 for v in viol)


def _probe_times(trajs, horizon):
    """The probe times of one path: its trajectories' knots and atom times,
    the horizon, and the midpoints between them."""
    knots = [t.seg_t for t in trajs] + [np.asarray([horizon])]
    knots += [t.r_atom_t for t in trajs] + [t.l_atom_t for t in trajs]
    ts = np.unique(np.concatenate(knots))
    return np.unique(np.concatenate((ts, 0.5 * (ts[:-1] + ts[1:]))))


def _pair_check(trajk, trajl, shift, b, driver=None, tol=1e-9):
    """One pair at a time, on the one-path references: the relations of
    check_pair, in its order."""
    ts = _probe_times((trajk, trajl), trajk.horizon)
    out = []

    def flag(prop, t, magnitude, bad):
        out.extend(Violation(float(x), prop, float(m)) for x, m in zip(t[bad], magnitude[bad]))

    zk, zl = value_at(trajk, ts), value_at(trajl, ts)
    dz = zl - zk
    dl = dividends_at(trajl, ts) - dividends_at(trajk, ts)
    dr = injections_at(trajl, ts) - injections_at(trajk, ts)
    inc, dec, rinc = np.diff(dz), np.diff(dl), np.diff(dr)
    resid = np.abs(dz + dl - dr - shift)
    gap = np.maximum(dz, left_limit_at(trajl, ts) - left_limit_at(trajk, ts))
    cond_l = (zk <= b + tol) & (zl >= b - tol) & (gap > tol)
    cond_r = np.minimum(zk, left_limit_at(trajk, ts)) <= tol
    flag("pair_budget", ts, resid, resid > tol)
    flag("pair_gap_range", ts, np.maximum(-dz, dz - shift), (dz < -tol) | (dz > shift + tol))
    flag("pair_gap_monotone", ts[1:], inc, inc > tol)
    flag("pair_div_range", ts, np.maximum(-dl, dl - shift), (dl < -tol) | (dl > shift + tol))
    flag("pair_div_monotone", ts[1:], -dec, dec < -tol)
    flag("pair_div_support", ts[1:], dec, (dec > tol) & ~(cond_l[:-1] | cond_l[1:]))
    flag("pair_inj_range", ts, np.maximum(dr, -shift - dr), (dr > tol) | (dr < -shift - tol))
    flag("pair_inj_monotone", ts[1:], rinc, rinc > tol)
    flag("pair_inj_support", ts[1:], -rinc, (rinc < -tol) & ~(cond_r[:-1] | cond_r[1:]))
    if driver is not None:
        kt = trajk.seg_t
        budget = np.abs(value_at(trajk, kt) - (driver.value_at(kt) - dividends_at(trajk, kt)
                                               + injections_at(trajk, kt)))
        flag("budget", kt, budget, budget > tol)
    return out


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _edge_paths(horizon):
    """Paths without events, with an event at 0 on a start below the floor
    (two injection atoms at 0), and with an event at the horizon."""
    return [drift_path(0.3, 0.5, horizon), drift_path(-0.4, -0.3, horizon),
            drift_path(0.2, -0.5, horizon, jumps=((0.0, -0.4), (1.0, 2.5))),
            drift_path(0.2, 2.5, horizon, jumps=((0.5, -0.7), (horizon, 3.0)))]


class TestBlockCheck:
    def blocks(self):
        """(columns, b, alpha) blocks: random models at their own and
        at an infinite cap, at their b and at b = 0, and the edge paths."""
        rng = np.random.default_rng(41)
        for j in range(8):
            spec, pp, x, _, _ = draw_random_bv_setup(rng)
            cols = sample_path(replace(spec, x0=x), 4.0, EXACT, RngStream(350, tag=j), 6)
            for b in (pp.b, 0.0):
                for alpha in (pp.alpha, math.inf):
                    yield cols, b, alpha
        for b, alpha in ((1.0, 0.5), (1.0, math.inf), (0.0, math.inf)):
            yield event_columns(_edge_paths(3.0)), b, alpha

    def test_readings_are_bit_equal_to_the_references(self):
        for cols, b, alpha in self.blocks():
            roles = (refracted_reflected_exact(cols, b, alpha),
                     refract_exact(replace(cols, x0=cols.x0 + 0.3), b, alpha))
            blk = _Block(roles, cols)
            for i, path in enumerate(event_paths(cols)):
                on = blk.path == i
                trajs = [table.block(i, i + 1) for table in roles]
                ts = _probe_times(trajs, path.horizon)
                np.testing.assert_array_equal(_bits(blk.t[on]), _bits(ts))
                np.testing.assert_array_equal(_bits(blk.driver[on]), _bits(path.value_at(ts)))
                np.testing.assert_array_equal(blk.readings[0].knot[on],
                                              np.isin(ts, trajs[0].seg_t))
                for got, traj in zip(blk.readings, trajs):
                    np.testing.assert_array_equal(_bits(got.z[on]), _bits(value_at(traj, ts)))
                    np.testing.assert_array_equal(_bits(got.z_left[on]),
                                                  _bits(left_limit_at(traj, ts)))
                    np.testing.assert_array_equal(_bits(got.l[on]),
                                                  _bits(dividends_at(traj, ts)))
                    np.testing.assert_array_equal(_bits(got.r[on]),
                                                  _bits(injections_at(traj, ts)))

    def test_two_injection_atoms_at_time_zero_are_both_read(self):
        path = _edge_paths(3.0)[2]
        traj = floored(path, 1.0, 0.5)
        assert traj.r_atom_t.tolist()[:2] == [0.0, 0.0]
        (got,), _ = read_segments([traj], [0], [0.0])
        assert got.r[0] == pytest.approx(0.9)

    def test_violations_match_the_pair_by_pair_check(self):
        """A mis-stated shift and a driver off by 0.01: many violations, in
        the order and with the values of the one-pair check, for blocks of
        every size."""
        rng = np.random.default_rng(42)
        for j in range(6):
            spec, pp, x, k, l = draw_random_bv_setup(rng)
            for alpha in (pp.alpha, math.inf):
                p2 = replace(pp, alpha=alpha)
                cols = sample_path(replace(spec, x0=0.0), 4.0, EXACT, RngStream(351, tag=j),
                                   2 * BLOCK + 3)
                tk = apply_strategy_exact(replace(cols, x0=cols.x0 + (x + k)), p2)
                tl = apply_strategy_exact(replace(cols, x0=cols.x0 + (x + l)), p2)
                drivers = replace(cols, x0=cols.x0 + (x + k + 0.01))
                shift = 0.5 * (l - k)
                want = []
                for i, d in enumerate(event_paths(drivers)):
                    want += _pair_check(tk.block(i, i + 1), tl.block(i, i + 1), shift, pp.b, d)
                assert {v.prop for v in want} >= {"pair_budget", "budget"}
                assert check_pair(tk, tl, shift, pp.b, drivers) == want
                got = []
                for s in range(0, cols.counts.size, BLOCK):
                    got += check_pair(tk.block(s, s + BLOCK), tl.block(s, s + BLOCK), shift,
                                      pp.b, drivers.block(s, s + BLOCK))
                assert got == want

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK + 1])
    def test_runs_do_not_depend_on_the_blocks(self, n, ref_spec_bv, monkeypatch):
        """The runs with trajectories shifted off their drivers, and with
        refracted rungs shifted up with the cap, so that the budget and the
        ladder rows fire: the same reports one path at a time."""
        sweep, refract = apply_strategy_exact, refract_exact
        monkeypatch.setattr(properties_oracle, "apply_strategy_exact",
                            lambda c, pp: sweep(replace(c, x0=c.x0 + 0.05), pp))
        monkeypatch.setattr(properties_oracle, "refract_exact",
                            lambda c, b, a: refract(replace(c, x0=c.x0 + 0.1 * min(a, 4.0)), b, a))

        def runs():
            pair = coupled_pair_run(ref_spec_bv, params(b=1.2), 0.4, 0.0, 0.6, 4.0, n,
                                    RngStream(352, tag=1))
            ladder = alpha_ladder_run(ref_spec_bv, 1.0, (0.5, 2.0, math.inf), 0.5, 4.0, n,
                                      RngStream(352, tag=2))
            return pair, ladder

        blocked = runs()
        monkeypatch.setattr(properties_oracle, "BLOCK", 1)
        assert runs() == blocked
        assert {v.prop for v in blocked[0].violations} == {"budget"}
        assert "ladder_refracted" in {v.prop for v in blocked[1].violations}


class TestFixedCap:
    def test_zero_threshold_cap_rate(self):
        p = sample_path(drift_only(1.0), 6.0, EXACT, RngStream(310, tag=1), 1)
        traj = refracted_reflected_exact(p, 0.0, 0.4)
        assert fixed_cap_violations(traj, 0.4) == []
        wrong = fixed_cap_violations(traj, 0.3)
        assert wrong and all(v.prop == "cap_rate_dividends" for v in wrong)


class TestAlphaLadder:
    def test_deterministic_ladder_from_the_threshold(self):
        """Drift 2 from x = b = 1: each finite rung drains at alpha and the
        band limit skims everything, so gaps and values are in closed form."""
        rep = alpha_ladder_run(drift_only(2.0), 1.0, (0.5, 1.0, math.inf),
                               1.0, 5.0, 3, RngStream(320, tag=1))
        assert rep.ok
        assert rep.alphas == (0.5, 1.0, math.inf)
        np.testing.assert_allclose(rep.sup_gap_to_limit, [7.5, 5.0, 0.0],
                                   atol=1e-12)
        w = (1.0 - math.exp(-0.05 * 5.0)) / 0.05
        np.testing.assert_allclose(rep.value_means, [0.5 * w, 1.0 * w, 2.0 * w],
                                   rtol=1e-12)
        assert np.all(np.diff(rep.value_means) > 0)
        np.testing.assert_allclose(rep.value_ses, 0.0, atol=1e-12)
        assert len(rep.summary_lines()) == len(LADDER_PROPS)

    def test_clean_on_jump_models(self, ref_spec_bv):
        rep = alpha_ladder_run(ref_spec_bv, 1.0, (0.5, 2.0, 8.0, math.inf),
                               0.5, 6.0, 40, RngStream(321, tag=1))
        assert rep.ok
        # gaps to the limit shrink along the ladder
        g = rep.sup_gap_to_limit
        assert g[0] >= g[1] >= g[2] >= g[3] == 0.0

    def test_ladder_validation(self):
        s = RngStream(322, tag=1)
        with pytest.raises(InvalidLadder):
            alpha_ladder_run(drift_only(1.0), 1.0, (0.5,), 0.0, 2.0, 2, s)
        with pytest.raises(InvalidLadder):
            alpha_ladder_run(drift_only(1.0), 1.0, (1.0, 0.5), 0.0, 2.0, 2, s)
        with pytest.raises(InvalidLadder):
            alpha_ladder_run(drift_only(1.0), 1.0, (-1.0, 1.0), 0.0, 2.0, 2, s)
        with pytest.raises(InvalidLadder):
            alpha_ladder_run(drift_only(1.0), 1.0, (math.inf, 1.0), 0.0, 2.0,
                             2, s)

    def test_diffusion_models_rejected(self, ref_spec_gauss):
        with pytest.raises(ExactModeUnavailable):
            alpha_ladder_run(ref_spec_gauss, 1.0, (0.5, 1.0), 0.0, 2.0, 2,
                             RngStream(323, tag=1))


class TestCharFunction:
    def test_reference_jump_model(self, ref_spec_bv):
        rep = char_function_check(ref_spec_bv, 1.0, (0.5, 1.0, 2.0), 20000,
                                  RngStream(330, tag=1))
        assert rep.ok
        assert np.all(np.abs(rep.target) <= 1.0 + 1e-12)

    def test_with_diffusion_part(self, ref_spec_gauss):
        rep = char_function_check(ref_spec_gauss, 1.0, (0.5, 1.0, 2.0), 20000,
                                  RngStream(331, tag=1))
        assert rep.ok

    def test_lattice_jump_law_passes_on_every_seed(self):
        # X_1 = drift + 0.6 N: most samples of 40,000 paths have no path
        # with 6 or more jumps, so their spread covers fewer directions
        # than the model's
        spec = JumpDiffusionSpec(gamma=0.4, sigma=0.0,
                                 jump_components=((0.5, -1, PointMass(0.6)),))
        for seed in range(200):
            rep = char_function_check(spec, 1.0, (0.5, 1.0, 2.0), 40000,
                                      RngStream(seed, tag=7))
            assert rep.ok, seed

    def test_reads_the_estimators_jump_draw(self, ref_spec_bv, monkeypatch):
        """X_t comes from the jump draw every sampler reads: marks scaled by
        1.15 there must fail the check, on the same stream that passes."""
        args = (ref_spec_bv, 1.0, (0.5, 1.0, 2.0), 20000, RngStream(333, tag=1))
        assert char_function_check(*args).ok
        draw = levy_model._jump_draw

        def scaled(*a):
            rows, times, sizes = draw(*a)
            return rows, times, 1.15 * sizes

        monkeypatch.setattr(levy_model, "_jump_draw", scaled)
        assert not char_function_check(*args).ok

    def test_detects_a_shifted_target(self, ref_spec_bv):
        rep = char_function_check(ref_spec_bv, 1.0, (0.5, 1.0), 5000,
                                  RngStream(332, tag=1))
        doctored = CharReport(lambdas=rep.lambdas,
                              empirical=rep.empirical + 0.2,
                              target=rep.target, tolerance=rep.tolerance)
        assert not doctored.ok


class TestValueShape:
    def good_curve(self):
        # slopes: beta below 0, then concave decay from 1.45 through 1 at the
        # threshold, below 1 beyond it
        xs = np.arange(-0.5, 3.01, 0.25)
        bstar = 1.5
        slopes = []
        for m in (xs[1:] + xs[:-1]) * 0.5:
            if m < 0:
                slopes.append(1.5)
            elif m <= bstar:
                slopes.append(1.45 - 0.3 * m)
            else:
                slopes.append(0.95 - 0.1 * m)
        means = 2.0 + np.concatenate(([0.0], np.cumsum(np.array(slopes) * 0.25)))
        ses = np.full(len(xs), 1e-6)
        return xs, means, ses, bstar

    def test_clean_curve_passes(self):
        xs, means, ses, bstar = self.good_curve()
        rep = value_shape_check(xs, means, ses, params(), bstar)
        assert rep.ok
        assert all(line.startswith("PASS ") for line in rep.summary_lines())

    def test_dividend_cap_bound(self):
        xs, means, ses, bstar = self.good_curve()
        rep = value_shape_check(xs, means + 10.0, ses, params(), bstar)
        assert {"value_cap"} == {v.prop for v in rep.violations}

    def test_affine_slope_below_zero(self):
        xs, means, ses, bstar = self.good_curve()
        bad = means.copy()
        bad[0] -= 0.1
        rep = value_shape_check(xs, bad, ses, params(), bstar)
        assert "value_affine_below" in {v.prop for v in rep.violations}

    def test_slope_above_cost_rejected(self):
        xs, means, ses, bstar = self.good_curve()
        bad = means.copy()
        bad[4:] += 0.2  # one increment of slope 0.8 above the previous
        rep = value_shape_check(xs, bad, ses, params(), bstar)
        assert "value_slope_cap" in {v.prop for v in rep.violations}

    def test_convex_bump_rejected(self):
        xs, means, ses, bstar = self.good_curve()
        bad = means.copy()
        bad[8] -= 0.08
        rep = value_shape_check(xs, bad, ses, params(), bstar)
        assert "value_concavity" in {v.prop for v in rep.violations}

    def test_flat_stretch_inside_rejected(self):
        xs, means, ses, bstar = self.good_curve()
        bad = means.copy()
        i = np.searchsorted(xs, 0.75)
        bad[i] = bad[i - 1] + 0.01  # slope 0.04 inside (0, bstar]
        rep = value_shape_check(xs, bad, ses, params(), bstar)
        assert "value_slope_below_one_inside" in {v.prop for v in rep.violations}

    def test_steep_stretch_beyond_rejected(self):
        xs, means, ses, bstar = self.good_curve()
        bad = means.copy()
        bad[-1] += 0.15
        rep = value_shape_check(xs, bad, ses, params(), bstar)
        assert "value_slope_above_one_beyond" in {v.prop for v in rep.violations}


class TestRandomizedSweep:
    def test_mini_sweep_is_clean(self):
        rng = np.random.default_rng(2026)
        total = 0
        for j in range(30):
            spec, pp, x, k, l = draw_random_bv_setup(rng)
            rep = coupled_pair_run(spec, pp, x, k, l, 4.0, 8,
                                   RngStream(340, tag=j))
            assert rep.ok, rep.violation_counts
            total += rep.n_paths
        assert total == 240

    def test_setup_draw_ranges(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            spec, pp, x, k, l = draw_random_bv_setup(rng)
            assert spec.sigma == 0.0
            assert 1 <= len(spec.jump_components) <= 2
            if len(spec.jump_components) == 2:
                assert {c.sign for c in spec.jump_components} == {1, -1}
            assert 0.3 <= pp.b <= 2.0
            assert 0.25 <= pp.alpha <= 1.6
            assert pp.beta > 1 and pp.q > 0
            assert k == 0.0 and 0.0 < l < pp.b


def test_the_oracle_names_no_segment_field():
    """properties_oracle leaves the segment layout to path_engine: it reads
    no seg_*, r_atom* or l_atom* field, by attribute or by name."""
    with open(properties_oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = [(n.lineno, n.attr) for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    names += [(n.lineno, n.value) for n in ast.walk(tree)
              if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    assert [(line, name) for line, name in names
            if re.fullmatch(r"(seg_|r_atom|l_atom)\w*", name)] == []
