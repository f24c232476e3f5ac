"""End-to-end acceptance runs for the whole stack.

Each test records exactly one PASS/FAIL summary line (printed after the
session) and asserts it.  Scales default to a workstation budget of a few
minutes; LEVYREFRACT_FULL_SCALE=1 escalates the two threshold searches to
the full replication sizes with the tighter target window.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from levyrefract.cli_reporting import load_config, run_experiment
from levyrefract.estimation import find_bstar, nu_curve, value_curve
from levyrefract.levy_model import RngStream, grid_increments, net_drift, sample_path
from levyrefract.properties_oracle import (alpha_ladder_run,
                                           char_function_check, check_pair,
                                           coupled_pair_run)
from levyrefract.strategy_engine import StrategyParams, _floored_euler, apply_strategy_exact

from conftest import (FULL_SCALE, REFERENCE_SPECS, draw_path, drift_only, event_columns,
                      record_acceptance, refracted_reflected_exact)
from oracles import (DegenerateDenominator, construction_identity_residual,
                     draw_random_bv_setup, estimate_underline_nu, euler_exact_gap,
                     fixed_cap_violations, running_floor_reflection, solve_pstar,
                     value_at, value_shape_check)

SEED = 20260822
THREADS = 4
TOL = 1e-9


def ref_params(b: float = 1.0) -> StrategyParams:
    return StrategyParams(b=b, alpha=0.5, beta=1.5, q=0.05)


@pytest.fixture(scope="module")
def case1_search():
    n = 100_000 if FULL_SCALE else 10_000
    grid = np.round(np.arange(-1.0, 3.49 + 1e-9, 0.01), 2)
    res = find_bstar(ref_params(), REFERENCE_SPECS[1], grid, 100.0, 0, n,
                     RngStream(SEED, tag=11), engine="exact", threads=THREADS)
    return res, n


@pytest.fixture(scope="module")
def case2_search():
    n = 100_000 if FULL_SCALE else 20_000
    grid = np.round(np.arange(-1.0, 3.99 + 1e-9, 0.01), 2)
    res = find_bstar(ref_params(), REFERENCE_SPECS[2], grid, 100.0,
                     10_000, n, RngStream(SEED, tag=21), engine="euler",
                     threads=THREADS)
    return res, n


def test_01_threshold_without_gaussian_part(case1_search):
    res, n = case1_search
    lo, hi = (1.51, 1.81) if FULL_SCALE else (1.40, 1.95)
    ok = lo <= res.bstar_hat <= hi
    detail = ("exact engine bstar_hat=%.2f, 3se window [%.2f, %.2f], n=%d, "
              "target [%.2f, %.2f]" % (res.bstar_hat, res.interval_low,
                                       res.interval_high, n, lo, hi))
    assert record_acceptance(1, ok, detail), detail


def test_02_threshold_with_gaussian_part(case2_search):
    res, n = case2_search
    lo, hi = 2.00, 2.30
    ok = lo <= res.bstar_hat <= hi
    detail = ("euler engine bstar_hat=%.2f, 3se window [%.2f, %.2f], n=%d, "
              "target [%.2f, %.2f]" % (res.bstar_hat, res.interval_low,
                                       res.interval_high, n, lo, hi))
    assert record_acceptance(2, ok, detail), detail


def test_03_estimated_threshold_dominates_competitors(case1_search, case2_search):
    parts = []
    misses = 0
    for label, search, spec, n, k, tag in (
            ("bv", case1_search, REFERENCE_SPECS[1], 1000, 0, 31),
            ("gauss", case2_search, REFERENCE_SPECS[2], 800, 1200, 32)):
        bstar = search[0].bstar_hat
        xs = np.linspace(-1.0, 2.0 * bstar, 20)
        bs = (bstar / 3, 2 * bstar / 3, bstar, 4 * bstar / 3, 5 * bstar / 3)
        # one job: every curve on the same paths
        rows = value_curve(np.tile(xs, len(bs)), np.repeat(bs, len(xs)),
                           ref_params(), spec, 60.0, k, n,
                           RngStream(SEED, tag=tag), threads=THREADS)
        means = np.array([r[1].mean for r in rows]).reshape(len(bs), len(xs))
        ses = np.array([r[1].std_error for r in rows]).reshape(len(bs), len(xs))
        curves = dict(zip(bs, zip(means, ses)))
        vstar, sstar = curves[bstar]
        bad = 0
        for b, (vb, sb) in curves.items():
            if b == bstar:
                continue
            # competitor may exceed the estimated optimum only within noise
            bad += int(np.sum(vb - 3.0 * np.sqrt(sb ** 2 + sstar ** 2) > vstar))
        misses += bad
        parts.append("%s %d/80" % (label, bad))
    ok = misses == 0
    detail = "dominance breaches at 3 combined se: " + ", ".join(parts)
    assert record_acceptance(3, ok, detail), detail


def test_04_drift_only_closed_forms():
    desc = drift_only(-1.0)
    errs = []
    for b in (2.0, 5.0):
        est = nu_curve(ref_params(), desc, [b], 100.0, 0, 64,
                       RngStream(SEED, tag=41 + int(b)))
        want = math.exp(-0.05 * b)
        errs.append(abs(est.values[0] - want) / want)
    grid = np.round(np.arange(7.0, 9.0 + 1e-9, 0.01), 2)
    res = find_bstar(ref_params(), desc, grid, 100.0, 0, 64,
                     RngStream(SEED, tag=44))
    # beta * exp(-q b) crosses 1 at ln(1.5)/0.05, next grid point is 8.11
    errs.append(abs(res.bstar_hat - 8.11))
    # the perpetual values at T = 1000, where e^{-qT} ~ 2e-22 is below their last bit
    v0 = value_curve([0.0], 1.0, ref_params(), desc, 1000.0, 0, 1,
                     RngStream(SEED, tag=45), method="direct")[0][1]
    errs.append(abs(v0.mean - (-30.0)) / 30.0)
    vcap = value_curve([0.0], 0.0, ref_params(), drift_only(2.0), 1000.0,
                       0, 1, RngStream(SEED, tag=46), method="direct")[0][1]
    errs.append(abs(vcap.mean - 10.0) / 10.0)
    ok = max(errs) < TOL
    detail = ("passage transform, threshold, perpetual values at T = 1000 on "
              "drift-only models: max err %.2e (limit 1e-09)" % max(errs))
    assert record_acceptance(4, ok, detail), detail


def test_05_randomized_models_pathwise_sweep():
    n_models = 1000
    horizon = 4.0
    rng = np.random.default_rng(772026)
    probe = np.linspace(0.0, horizon, 9)
    n_viol = 0
    worst = 0.0
    controls = fired = 0
    for mi in range(n_models):
        spec, params, x, k, l = draw_random_bv_setup(rng)
        stream = RngStream(9000 + mi, tag=3)
        viol = list(coupled_pair_run(spec, params, x, k, l, horizon, 40,
                                     stream).violations)
        viol.extend(alpha_ladder_run(spec, params.b,
                                     (params.alpha, 2.0 * params.alpha, math.inf),
                                     x, horizon, 20, stream.with_tag(4)).violations)
        paths = [draw_path(replace(spec, x0=x), horizon, stream.with_tag(5).for_path(i))
                 for i in range(20)]
        table = refracted_reflected_exact(event_columns(paths), x, params.b, params.alpha)
        for i, path in enumerate(paths):
            dec = running_floor_reflection(path)
            recon = path.value_at(probe) - dec.infimum_at(probe)
            r1 = float(np.max(np.abs(value_at(dec.reflected, probe) - recon)))
            r2 = construction_identity_residual(path, table.block(i, i + 1))
            if max(r1, r2) > TOL:
                n_viol += 1
                worst = max(worst, r1, r2)
        capped = net_drift(spec) > params.alpha
        if capped:
            table0 = refracted_reflected_exact(
                event_columns([draw_path(spec, horizon, stream.with_tag(6).for_path(i))
                               for i in range(10)]), abs(x), 0.0, params.alpha)
            for i in range(10):
                traj0 = table0.block(i, i + 1)
                viol.extend(fixed_cap_violations(traj0, params.alpha))
        n_viol += len(viol)
        worst = max(worst, max((v.magnitude for v in viol), default=0.0))
        if mi % 100 == 0:
            # negative controls: a mis-stated shift must break the budget
            # relation, and a mis-stated cap or a mismatched driver must
            # break its identity
            shift = l - k
            cpath = sample_path(spec, horizon, 1, stream.with_tag(7))
            tk, tl = apply_strategy_exact(cpath, [x + k, x + l], params)
            controls += 2
            fired += bool(check_pair(tk, tl, 0.5 * shift, params.b))
            if capped:
                fired += bool(fixed_cap_violations(traj0, 1.5 * params.alpha))
            else:
                other = refracted_reflected_exact(event_columns([path]), path.x0 + 1.0,
                                                  params.b, params.alpha)
                fired += construction_identity_residual(path, other) > TOL
    ok = n_viol == 0 and fired == controls
    detail = ("%d models x ~100 paths: %d violations (worst %.1e); negative "
              "controls fired %d/%d" % (n_models, n_viol, worst, fired, controls))
    assert record_acceptance(5, ok, detail), detail


def test_06_value_nears_the_limit_along_the_cap_ladder():
    """The pathwise ladder rows hold, and the value of the top finite rung
    is nearer the reflected limit's than the bottom rung's.  At a fixed b
    the value need not rise with the cap, so no ordering is asked."""
    rungs = (0.5, 2.0, 8.0, 32.0, math.inf)
    n_viol = 0
    near = []
    far = []
    for xi, x in enumerate((0.5, 1.0, 2.0)):
        stream = RngStream(SEED, tag=60 + xi)
        rep = alpha_ladder_run(REFERENCE_SPECS[1], 1.66, rungs, x, 15.0, 1200, stream)
        n_viol += len(rep.violations)
        vm = [value_curve([x], 1.66, replace(ref_params(1.66), alpha=a), REFERENCE_SPECS[1],
                          15.0, 0, 1200, stream, method="direct")[0][1].mean for a in rungs]
        near.append(abs(vm[3] - vm[4]))
        far.append(abs(vm[0] - vm[4]))
        if not near[-1] < far[-1]:
            n_viol += 1
    ok = n_viol == 0
    detail = ("cap ladder 0.5..inf at 3 starts, n=1200: %d violations; "
              "|v_32 - v_inf| <= %.1e against |v_0.5 - v_inf| >= %.2f"
              % (n_viol, max(near), min(far)))
    assert record_acceptance(6, ok, detail), detail


def test_07_euler_gap_shrinks_with_step_count():
    spec = REFERENCE_SPECS[1]
    pp = ref_params(1.66)
    means = []
    for k in (100, 1000, 10000):
        cols = sample_path(spec, 10.0, 100, RngStream(SEED, tag=70 + k))
        gaps = euler_exact_gap(cols, pp, 1.0, k)
        means.append(float(np.mean(gaps)))
    ok = means[0] > means[1] > means[2]
    detail = ("mean sup gap over 100 shared-noise paths: "
              "%.4f > %.4f > %.4f for k=100,1000,10000" % tuple(means))
    assert record_acceptance(7, ok, detail), detail


def test_08_characteristic_function_both_models():
    lams = np.linspace(-3.0, 3.0, 13)
    ok = True
    worst = 0.0
    for tag, spec in ((81, REFERENCE_SPECS[1]),
                      (82, REFERENCE_SPECS[2])):
        rep = char_function_check(spec, 1.0, lams, 100_000,
                                  RngStream(SEED, tag=tag))
        ok = ok and rep.ok
        worst = max(worst, rep.worst_ratio)
    detail = ("empirical transform at 13 frequencies, n=100000, both models: "
              "worst |gap|/tolerance %.2f (limit 1)" % worst)
    assert record_acceptance(8, ok, detail), detail


def test_09_value_slope_matches_the_passage_clock(case1_search):
    """The paper's theorem: the value curve's slope is beta times the
    randomized passage clock.  The clock is the oracle of tests/oracles.py,
    which reads its passages off trajectory tables of the same event sweep,
    not the lane reader the value curve runs on."""
    bstar = case1_search[0].bstar_hat
    spec = REFERENCE_SPECS[1]
    pp = ref_params()
    xs = np.round(np.arange(-0.5, 3.5 + 1e-9, 0.2), 10)
    rows = value_curve(xs, bstar, pp, spec, 60.0, 0, 4000,
                       RngStream(SEED, tag=91), threads=THREADS)
    means = np.array([r[1].mean for r in rows])
    ses = np.array([r[1].std_error for r in rows])
    shape = value_shape_check(xs, means, ses, pp, bstar)
    shape_props = {"value_cap", "value_affine_below", "value_slope_cap",
                   "value_concavity"}
    n_shape = sum(v.prop in shape_props for v in shape.violations)
    try:
        p = solve_pstar(pp, spec, bstar, 40.0, 8000, RngStream(SEED, tag=92))
    except DegenerateDenominator:
        # strict and weak passage coincide, the mixture weight is irrelevant
        p = 1.0
    mids = (xs[:-1] + xs[1:]) * 0.5
    slopes = np.diff(means) / np.diff(xs)
    slope_se = np.sqrt(ses[:-1] ** 2 + ses[1:] ** 2) / np.diff(xs)
    inner = np.flatnonzero(mids > 0.15)
    sel = inner[np.linspace(0, len(inner) - 1, 10).round().astype(int)]
    bad = 0
    worst = 0.0
    for j, idx in enumerate(sel):
        u = estimate_underline_nu(float(mids[idx]), bstar, p, pp, spec, 40.0,
                                  4000, RngStream(SEED, tag=930 + j))
        budget = 3.0 * math.sqrt(slope_se[idx] ** 2 + u.std_error ** 2)
        gap = abs(slopes[idx] - u.mean)
        worst = max(worst, gap / budget)
        bad += gap > budget
    ok = bad == 0 and n_shape == 0
    detail = ("slope against beta-scaled clock transform at 10 interior "
              "points: worst |gap|/budget %.2f, misses %d; shape violations %d"
              % (worst, bad, n_shape))
    assert record_acceptance(9, ok, detail), detail


CFG_C10 = """
model.gamma = 0.7210553083590153
model.sigma = 0
model.jump1.rate = 1.0
model.jump1.sign = +1
model.jump1.dist = uniform
model.jump1.params = 0, 1
model.jump2.rate = 1.0
model.jump2.sign = -1
model.jump2.dist = weibull
model.jump2.params = 2, 1
control.alpha = 0.5
control.beta = 1.5
control.q = 0.05
grid.T = 30
grid.K = 400
mc.N = 1024
mc.seed = 424242
task.b_grid = -1:0.05:3.45
"""


def test_10_csv_bytes_ignore_thread_count(tmp_path):
    cfg = load_config(CFG_C10)
    outs = {}
    for name, threads in (("a", 1), ("b", 4), ("c", 4)):
        d = tmp_path / name
        d.mkdir()
        run_experiment(cfg, "nu-curve", out_dir=str(d), threads=threads)
        outs[name] = {f.name: f.read_bytes() for f in d.iterdir()}
    same = outs["a"] == outs["b"] == outs["c"]
    names = sorted(outs["a"])
    ok = same and "nu_curve.csv" in names
    detail = ("threads 1 and 4 plus a rerun: %d output files byte-identical "
              "(%s)" % (len(names), ", ".join(names)))
    assert record_acceptance(10, ok, detail), detail


def test_11_euler_recursion_converges_strongly():
    """The paper's second claim at sigma = 1 (case 2): the refracted SDE has
    one solution, so the floored Euler recursion converges to it pathwise.
    Every level shares one Brownian and jump draw: the finest, K = 8,000
    steps on T = 10, is drawn once, and each coarser one is its pairwise
    sums.  gap_K is the mean over paths of the sup over the knots of the
    K/2-step level of |Z_K - Z_{K/2}|.  It must fall at every doubling of K
    from 500 to 8,000 at alpha = 0.5 and inf, from x = 0.5 and b + 1, at a
    fitted order in [0.35, 0.65] (Lepingle 1995: about 1/2).  Negative
    control: the coarse level capped at 2 alpha solves another SDE, and its
    gap stays at 0.9 of its K = 500 value or above."""
    b, horizon, n, fine = 2.25, 10.0, 400, 8000
    levels = {fine: grid_increments(REFERENCE_SPECS[2], horizon, fine, n,
                                    RngStream(SEED, tag=110))}
    while min(levels) > 500:
        k = min(levels)
        levels[k // 2] = levels[k].reshape(n, k // 2, 2).sum(-1)
    ks = sorted(levels)[1:]  # the finer level of each pair: 1,000 ... 8,000

    def z(k, alpha, x):
        pp = StrategyParams(b=b, alpha=alpha, beta=1.5, q=0.05)
        return _floored_euler(x, pp, levels[k], horizon / k)[1]

    def gap(fine_z, coarse_z):
        return float(np.mean(np.max(np.abs(fine_z[:, ::2] - coarse_z), axis=1)))

    ok, parts = True, []
    for alpha in (0.5, math.inf):
        for x in (0.5, b + 1.0):
            zs = {k: z(k, alpha, x) for k in levels}
            gaps = [gap(zs[k], zs[k // 2]) for k in ks]
            order = -np.polyfit(np.log(ks), np.log(gaps), 1)[0]
            ok &= all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:])) and 0.35 <= order <= 0.65
            parts.append("alpha=%g x=%g: %s (order %.2f)"
                         % (alpha, x, "/".join("%.3f" % g for g in gaps), order))
            if alpha < math.inf:
                ctrl = [gap(zs[k], z(k // 2, 2 * alpha, x)) for k in ks]
                ok &= min(ctrl) >= 0.9 * ctrl[0]
                parts.append("control %s" % "/".join("%.2f" % g for g in ctrl))
    detail = ("E sup |Z_K - Z_K/2| at K = %s, %d paths: %s"
              % ("/".join(map(str, ks)), n, "; ".join(parts)))
    assert record_acceptance(11, ok, detail), detail
