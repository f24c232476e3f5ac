import ast
import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from levyrefract import levy_model, path_engine, properties_oracle
from levyrefract.levy_model import (
    ExactModeUnavailable, Exponential, HyperExponential, InvalidParameter,
    JumpDiffusionSpec, PointMass, RngStream, Uniform, Weibull, is_case2, net_drift, sample_path,
)
from levyrefract.path_engine import read_segments, trajectory_table
from levyrefract.properties_oracle import (
    BLOCK, CharReport, InvalidLadder, LADDER_PROPS, LADDER_RUN, PAIR_PROPS,
    Violation, _Block, alpha_ladder_run, char_function_check, check_pair,
    coupled_pair_run,
)
from levyrefract.cli_reporting import _violations_csv, verdict_lines
from levyrefract.strategy_engine import StrategyParams, apply_strategy_exact

from conftest import (
    drift_only, drift_path, event_columns, one_path, own_starts, refract_exact,
    refracted_reflected_exact,
)
from oracles import (
    TABLE_ROWS, _sweep, columns_side_by_side, dividends_at, draw_random_bv_setup, edge_paths,
    event_paths, fixed_cap_violations, injections_at, left_limit_at, reference_config_text,
    reference_table, sticks, table_rows, value_at, value_shape_check,
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
        assert all(line.startswith("PASS ") for line in verdict_lines(rep))
        assert len(verdict_lines(rep)) == len(PAIR_PROPS)

    @pytest.mark.parametrize("alpha", [0.5, math.inf])
    def test_clean_on_jump_models(self, ref_spec_bv, alpha):
        rep = coupled_pair_run(ref_spec_bv, params(b=1.2, alpha=alpha), 0.4, 0.0, 0.6, 5.0,
                               25, RngStream(301, tag=1))
        assert rep.ok, rep.violations

    def test_mismatched_barriers_fire(self, ref_spec_bv):
        # same driver refracted at different thresholds is not a valid
        # coupled pair; the detector must notice
        pp1, pp2 = params(b=1.0), params(b=2.5)
        viol = []
        for i in range(10):
            p = sample_path(ref_spec_bv, 5.0, 1, RngStream(302, tag=1, index=i))
            t1 = refracted_reflected_exact(p, 0.0, 1.0, 0.5)
            t2 = refracted_reflected_exact(p, 0.5, 2.5, 0.5)
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
        text = _violations_csv([Violation(1.84, "pair_budget", 0.25)])
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
    """The probe times of one path: its trajectories' knots, where their
    lumps are paid, the horizon, and the midpoints between them."""
    ts = np.unique(np.concatenate([t.seg_t for t in trajs] + [np.asarray([horizon])]))
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


class TestBlockCheck:
    def blocks(self):
        """(paths, b, alpha) blocks: random models from one start at their
        own and at an infinite cap, at their b and at b = 0, and the edge
        paths, each from its own start, in blocks of one drift."""
        rng = np.random.default_rng(41)
        for j in range(8):
            spec, pp, x, _, _ = draw_random_bv_setup(rng)
            paths = event_paths(sample_path(spec, 4.0, 6, RngStream(350, tag=j)), x)
            for b in (pp.b, 0.0):
                for alpha in (pp.alpha, math.inf):
                    yield paths, b, alpha
        edge = edge_paths(3.0)
        for b, alpha in ((1.0, 0.5), (1.0, math.inf), (0.0, math.inf)):
            for drift in dict.fromkeys(p.drift for p in edge):
                yield [p for p in edge if p.drift == drift], b, alpha

    def test_readings_are_bit_equal_to_the_references(self):
        """The roles from each path's start, and 0.3 above it; the drivers
        read from the first path's start."""
        for paths, b, alpha in self.blocks():
            roles = (own_starts(paths, b, alpha, True),
                     own_starts([replace(p, x0=p.x0 + 0.3) for p in paths], b, alpha, False))
            drivers = (event_columns(paths), paths[0].x0)
            blk = _Block(roles, drivers)
            for i, path in enumerate(event_paths(*drivers)):
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
        """The top-up of the start and that of the event at 0: two atoms of
        the reference, one lump of the table's first knot, their sum in the
        order paid."""
        path = edge_paths(3.0)[2]
        traj = floored(path, 1.0, 0.5)
        ref = _sweep(path, 1.0, 0.5, sticks(path, 0.5), True)
        assert ref.r_atom_t.tolist()[:2] == [0.0, 0.0] and traj.seg_t[0] == 0.0
        assert traj.seg_rlump[0] == 0.0 + ref.r_atom[0] + ref.r_atom[1]
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
                cols = sample_path(spec, 4.0, 2 * BLOCK + 3, RngStream(351, tag=j))
                tk, tl = apply_strategy_exact(cols, [x + k, x + l], p2)
                drivers = (cols, x + k + 0.01)
                shift = 0.5 * (l - k)
                want = []
                for i, d in enumerate(event_paths(*drivers)):
                    want += _pair_check(tk.block(i, i + 1), tl.block(i, i + 1), shift, pp.b, d)
                assert {v.prop for v in want} >= {"pair_budget", "budget"}
                assert check_pair(tk, tl, shift, pp.b, drivers) == want
                got = []
                for s in range(0, cols.counts.size, BLOCK):
                    got += check_pair(tk.block(s, s + BLOCK), tl.block(s, s + BLOCK), shift,
                                      pp.b, (cols.block(s, s + BLOCK), drivers[1]))
                assert got == want

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK + 1])
    def test_runs_do_not_depend_on_the_blocks(self, n, ref_spec_bv, monkeypatch):
        """The runs with trajectories shifted off their drivers, and with
        refracted rungs shifted up with the cap, so that the budget and the
        ladder rows fire: the same reports one path at a time, and with the
        ladder swept one path per run.  The faults go in at the one sweep
        of each run: the pair's starts and the ladder's floored rungs start
        0.05 high, its refracted rungs 0.1 min(alpha, 4)."""
        pair_sweep, ladder_sweep = apply_strategy_exact, trajectory_table

        def ladder_shifted(c, x, b, alpha, floor):
            up = np.where(floor, 0.05, 0.1 * np.minimum(alpha, 4.0))
            return ladder_sweep(c, np.add(x, up), b, alpha, floor)

        monkeypatch.setattr(properties_oracle, "apply_strategy_exact",
                            lambda c, x, pp: pair_sweep(c, np.add(x, 0.05), pp))
        monkeypatch.setattr(properties_oracle, "trajectory_table", ladder_shifted)

        def runs():
            pair = coupled_pair_run(ref_spec_bv, params(b=1.2), 0.4, 0.0, 0.6, 4.0, n,
                                    RngStream(352, tag=1))
            ladder = alpha_ladder_run(ref_spec_bv, 1.0, (0.5, 2.0, math.inf), 0.5, 4.0, n,
                                      RngStream(352, tag=2))
            return pair, ladder

        blocked = runs()
        monkeypatch.setattr(properties_oracle, "BLOCK", 1)
        assert runs() == blocked
        monkeypatch.setattr(properties_oracle, "LADDER_RUN", 1)
        assert runs() == blocked
        assert {v.prop for v in blocked[0].violations} == {"budget"}
        assert "ladder_refracted" in {v.prop for v in blocked[1].violations}


MARK_LAWS = (Uniform(0.0, 1.0), Exponential(1.5), Weibull(2.0, 1.0),
             HyperExponential((0.3, 0.7), (0.5, 2.0)), PointMass(0.6))
SHIFTED_STARTS = (-0.7, -0.0, 0.0, 1.3)


def two_sided(marks, delta):
    """Up- and down-jumps of one mark law, at net drift delta."""
    spec = JumpDiffusionSpec(gamma=0.0, jump_components=((1.0, 1, marks), (1.2, -1, marks)))
    return replace(spec, gamma=delta - net_drift(spec))


class TestShiftedStarts:
    """A second start on one draw is a second role of its sweep.  The
    reference is the copy construction that came before: the draw laid
    twice side by side, each copy read from its own start."""

    ALPHA = 0.8

    @pytest.mark.parametrize("alpha", [ALPHA, math.inf])
    @pytest.mark.parametrize("case", [1, 2])
    @pytest.mark.parametrize("law", range(len(MARK_LAWS)))
    def test_two_roles_are_the_side_by_side_copies(self, law, case, alpha):
        """Every pair of starts, signed zeros included, floored and not, at
        b = 0 and b = 1, at the cap and at an infinite one: each role's
        table equals its copy's block of the doubled draw and the scalar
        sweep of each path from that start, field by field and byte for
        byte."""
        spec = two_sided(MARK_LAWS[law], 0.4 if case == 2 else 1.3)
        assert is_case2(net_drift(spec), self.ALPHA) == (case == 2)
        n = 9
        cols = sample_path(spec, 6.0, n, RngStream(370 + case, tag=law))
        copies, paths = columns_side_by_side([cols, cols]), event_paths(cols)
        assert cols.counts.sum() > 0
        names = TABLE_ROWS + ("rates", "counts")
        for starts in itertools.combinations(SHIFTED_STARTS, 2):
            for b, floor in itertools.product((0.0, 1.0), (True, False)):
                got = trajectory_table(cols, starts, b, alpha, floor)
                ref = trajectory_table(copies, starts, b, alpha, floor)
                for j, (table, x) in enumerate(zip(got, starts)):
                    copy = ref[j].block(j * n, (j + 1) * n)
                    scalar = reference_table([replace(p, x0=x) for p in paths], b, alpha, floor)
                    for name in names:
                        mine = getattr(table, name).tobytes()
                        assert mine == getattr(copy, name).tobytes(), (starts, j, name)
                    for name, mine in table_rows(table).items():
                        assert mine.tobytes() == scalar[name].astype(mine.dtype).tobytes()

    @pytest.mark.parametrize("x", SHIFTED_STARTS)
    def test_the_negative_control_is_the_copy_construction(self, x, tmp_path):
        """check-properties' negative control, its lower start 0.0 + x as
        the draw's 0 shifted by x, fires the violations of the copy
        construction, and they are many."""
        from levyrefract.cli_reporting import load_config, run_experiment
        cfg = load_config(reference_config_text(1, **{"mc.N": 20, "task.x": repr(x)}))
        run_experiment(cfg, "check-properties", out_dir=str(tmp_path))
        fired = re.search(r"negative_control \(fired (\d+)", (tmp_path / "properties.txt")
                          .read_text())
        b, shift = cfg.b, 0.5 * cfg.b
        cols = sample_path(cfg.spec, min(cfg.horizon, 20.0), 1, RngStream(cfg.seed, tag=8))
        lower = 0.0 + x
        both = trajectory_table(columns_side_by_side([cols, cols]), [lower, lower + shift], b,
                                cfg.alpha, True)
        want = check_pair(both[0].block(0, 1), both[1].block(1, 2), 0.5 * shift, b)
        assert fired and int(fired.group(1)) == len(want) > 0

    @pytest.mark.parametrize("x", SHIFTED_STARTS)
    def test_a_pair_run_is_the_copy_construction(self, x):
        """coupled_pair_run's report, with its driver started 0.05 off the
        lower start so that the budget row fires, equals that of the copy
        construction."""
        spec, pp, n = two_sided(MARK_LAWS[0], 0.4), params(b=1.2), 2 * BLOCK + 3
        stream = RngStream(371, tag=5)
        read = properties_oracle.check_pair

        def off(tk, tl, shift, b, drivers):
            return read(tk, tl, shift, b, (drivers[0], drivers[1] + 0.05))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(properties_oracle, "check_pair", off)
            rep = coupled_pair_run(spec, pp, x, 0.0, 0.6, 4.0, n, stream)
        cols = sample_path(spec, 4.0, n, stream)
        lower, upper = 0.0 + (x + 0.0), 0.0 + (x + 0.6)
        both = trajectory_table(columns_side_by_side([cols, cols]), [lower, upper], pp.b,
                                pp.alpha, True)
        tk, tl = both[0].block(0, n), both[1].block(n, 2 * n)
        want = []
        for s in range(0, n, BLOCK):
            want += check_pair(tk.block(s, s + BLOCK), tl.block(s, s + BLOCK), 0.6, pp.b,
                               (cols.block(s, s + BLOCK), lower + 0.05))
        assert rep.violations == tuple(want) and {v.prop for v in want} == {"budget"}


class TestOneSweepPerRun:
    """Each run steps all its roles as lanes of one event_steps generator,
    and each block sorts its times once."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """The (columns, x, alpha, floor) of every event_steps generator made."""
        made, steps = [], path_engine.event_steps

        def counted(columns, x, b, alpha, floor, path=None):
            made.append((columns, x, alpha, floor))
            return steps(columns, x, b, alpha, floor, path)

        monkeypatch.setattr(path_engine, "event_steps", counted)
        return made

    def test_a_pair_run_is_one_sweep(self, ref_spec_bv, sweeps):
        """The one draw of the pair's paths, at its two starts."""
        n = 2 * BLOCK + 3
        coupled_pair_run(ref_spec_bv, params(b=1.2), 0.4, 0.0, 0.6, 4.0, n, RngStream(353, tag=1))
        assert [(c.counts.size, np.ravel(x).tolist()) for c, x, _, _ in sweeps] == [
            (n, [0.4, 1.0])]

    def test_a_ladder_run_is_one_sweep_of_every_rung(self, ref_spec_bv, sweeps):
        """Five rungs make ten roles, floored then refracted, in each run."""
        rungs = (0.5, 2.0, 8.0, 32.0, math.inf)
        alpha_ladder_run(ref_spec_bv, 1.0, rungs, 0.5, 3.0, LADDER_RUN + 5, RngStream(353, tag=2))
        assert [c.counts.size for c, _, _, _ in sweeps] == [LADDER_RUN, 5]
        for _, x, alpha, floor in sweeps:
            assert np.ravel(x).tolist() == [0.5] * 10
            assert alpha.ravel().tolist() == list(rungs) * 2
            assert floor.ravel().tolist() == [True] * 5 + [False] * 5

    def test_check_properties_sweeps_once_per_run(self, sweeps, tmp_path):
        """The pair, the ladder and the negative control of one
        check-properties run: three sweeps, the pair's and the control's
        of one draw at two starts."""
        from levyrefract.cli_reporting import load_config, run_experiment
        from oracles import reference_config_text
        cfg = load_config(reference_config_text(1, **{"mc.N": 40}))
        run_experiment(cfg, "check-properties", out_dir=str(tmp_path))
        assert [(c.counts.size, np.size(x)) for c, x, _, _ in sweeps] == [
            (40, 2), (40, 6), (1, 2)]

    def test_a_block_sorts_its_times_once(self, ref_spec_bv, monkeypatch):
        """One _path_keys per block; the refracted rung read for z alone
        has the z of its full reading."""
        cols = sample_path(ref_spec_bv, 4.0, 6, RngStream(353, tag=3))
        roles = (refracted_reflected_exact(cols, 0.0, 1.0, 0.5),
                 refract_exact(cols, 0.0, 1.0, 0.5))
        full = _Block(roles, (cols, 0.0))
        calls, keys = [], path_engine._path_keys
        monkeypatch.setattr(path_engine, "_path_keys", lambda *a: calls.append(a) or keys(*a))
        blk = _Block(roles, (cols, 0.0), full=1)
        assert len(calls) == 1
        for got, want in zip(blk.readings, full.readings):
            assert got.z.tobytes() == want.z.tobytes()
        assert blk.readings[0].l.tobytes() == full.readings[0].l.tobytes()
        assert blk.readings[1].l is None and blk.readings[1].knot is None

    def test_a_ladder_run_holds_one_copy_of_its_tables(self, ref_spec_bv):
        """One run of LADDER_RUN paths at horizon 30 with ten roles: the
        sweep's traced peak stays within 1.5 times the tables it returns,
        every array of them: 1.18 times today (5.1 MB against 4.3), and 1.42
        for a reader that made the lump rows before it freed the sort order
        of the segments."""
        cols = sample_path(ref_spec_bv, 30.0, LADDER_RUN, RngStream(353, tag=4))
        rungs = (0.5, 2.0, 8.0, 32.0, math.inf)
        tracemalloc.start()
        try:
            tables = trajectory_table(cols, 0.5, 1.66, rungs * 2, [True] * 5 + [False] * 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for t in tables for a in vars(t).values()
                   if isinstance(a, np.ndarray))
        assert held > 4 * 2 ** 20 and peak < 1.5 * held


class TestFixedCap:
    def test_zero_threshold_cap_rate(self):
        p = sample_path(drift_only(1.0), 6.0, 1, RngStream(310, tag=1))
        traj = refracted_reflected_exact(p, 0.0, 0.0, 0.4)
        assert fixed_cap_violations(traj, 0.4) == []
        wrong = fixed_cap_violations(traj, 0.3)
        assert wrong and all(v.prop == "cap_rate_dividends" for v in wrong)


class TestAlphaLadder:
    def test_deterministic_ladder_from_the_threshold(self):
        """Drift 2 from x = b = 1: each finite rung drains at alpha and the
        band limit skims everything, so the gaps are in closed form (the
        values, in TestRunAlphaConvergence)."""
        rep = alpha_ladder_run(drift_only(2.0), 1.0, (0.5, 1.0, math.inf),
                               1.0, 5.0, 3, RngStream(320, tag=1))
        assert rep.ok
        assert rep.alphas == (0.5, 1.0, math.inf)
        np.testing.assert_allclose(rep.sup_gap_to_limit, [7.5, 5.0, 0.0],
                                   atol=1e-12)
        assert len(verdict_lines(rep)) == len(LADDER_PROPS)

    def test_clean_on_jump_models(self, ref_spec_bv):
        rep = alpha_ladder_run(ref_spec_bv, 1.0, (0.5, 2.0, 8.0, math.inf),
                               0.5, 6.0, 40, RngStream(321, tag=1))
        assert rep.ok
        # gaps to the limit shrink along the ladder
        g = rep.sup_gap_to_limit
        assert g[0] >= g[1] >= g[2] >= g[3] == 0.0

    @pytest.mark.parametrize("rungs", [(0.5, 2.0), (0.5, 2.0, math.inf)])
    def test_a_gap_to_the_limit_needs_an_infinite_rung(self, ref_spec_bv, rungs):
        """With an infinite rung every gap is measured, the last 0; without
        one none is, and every gap reads nan rather than 0."""
        rep = alpha_ladder_run(ref_spec_bv, 1.0, rungs, 0.5, 6.0, 20, RngStream(321, tag=2))
        gaps = np.array(rep.sup_gap_to_limit)
        if rungs[-1] == math.inf:
            assert np.all(np.isfinite(gaps)) and gaps[0] > 0.0 and gaps[-1] == 0.0
        else:
            assert np.all(np.isnan(gaps))

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

    @pytest.mark.parametrize("b", [-1.0, math.nan])
    def test_a_threshold_below_0_or_nan_is_refused(self, b):
        with pytest.raises(InvalidParameter) as err:
            alpha_ladder_run(drift_only(1.0), b, (0.5, 1.0), 0.0, 2.0, 2, RngStream(322, tag=2))
        assert err.value.field_name == "b"

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

    @pytest.mark.parametrize("shape", [0.1, 0.2, 0.3, 0.4])
    def test_heavy_tailed_weibull_down_jumps(self, ref_spec_bv, shape):
        """The reference model with its down-jump law made heavy-tailed, at
        the frequencies and N of check-properties."""
        up, down = ref_spec_bv.jump_components
        spec = replace(ref_spec_bv, jump_components=(up, replace(down, marks=Weibull(shape, 1.0))))
        rep = char_function_check(spec, 1.0, (0.5, 1.0, 2.0), 40000, RngStream(334, tag=1))
        assert rep.ok, rep.worst_ratio

    def test_reads_the_estimators_jump_draw(self, ref_spec_bv, monkeypatch):
        """X_t comes from the jump draw every sampler reads: marks scaled by
        1.15 there must fail the check, on the same stream that passes."""
        args = (ref_spec_bv, 1.0, (0.5, 1.0, 2.0), 20000, RngStream(333, tag=1))
        assert char_function_check(*args).ok
        draw = levy_model._jump_draw

        def scaled(*a):
            for rows, times, sizes in draw(*a):
                yield rows, times, 1.15 * sizes

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
        assert all(line.startswith("PASS ") for line in verdict_lines(rep))

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
            assert rep.ok, rep.violations
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
