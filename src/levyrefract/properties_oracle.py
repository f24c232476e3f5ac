"""Pathwise properties of the construction, run as checks over sampled paths.

The couplings here drive several controlled trajectories with one sampled
driver and verify order, budget, and support relations that the exact
construction must satisfy path by path: shifted starts stay ordered with a
conserved shift budget, trajectories under growing rate caps are ordered
and converge to the reflected limit, and the empirical characteristic
function matches the analytic exponent.  Exact-engine checks use absolute
tolerance 1e-9; they draw through levy_model.sample_path, which raises
ExactModeUnavailable for a model with sigma > 0.

Each run sweeps every role once, over all its paths, into one
path_engine.SegmentTable, and reads the tables BLOCK paths at a time, each
block in one pass of path_engine.read_segments at every probe time of its
paths, so no result depends on how paths fall into blocks.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .levy_model import (
    EXACT,
    InvalidParameter,
    JumpDiffusionSpec,
    RngStream,
    _grid_increment_matrix,
    characteristic_exponent,
    sample_path,
)
from .path_engine import path_keys, read_segments, refract_exact
from .strategy_engine import StrategyParams, apply_strategy_exact

EXACT_TOL = 1e-9
CHAR_FALSE_ALARM = 1e-6  # family-wise false-alarm rate of the char-function test

PAIR_PROPS = (
    "pair_budget", "pair_gap_range", "pair_gap_monotone",
    "pair_div_range", "pair_div_monotone", "pair_div_support",
    "pair_inj_range", "pair_inj_monotone", "pair_inj_support",
    "budget",
)

LADDER_PROPS = (
    "ladder_refracted", "ladder_surplus", "ladder_dividends",
    "ladder_injections", "ladder_value_monotone",
)


class InvalidLadder(ValueError):
    """Rate-cap ladder must be strictly increasing and positive."""


@dataclass(frozen=True)
class Violation:
    time: float
    prop: str
    magnitude: float


def violations_csv(violations) -> str:
    buf = io.StringIO()
    buf.write("time,property,magnitude\n")
    for v in violations:
        buf.write("%.17g,%s,%.17g\n" % (v.time, v.prop, v.magnitude))
    return buf.getvalue()


def _flag(prop, ts, magnitude, bad):
    """A violation of prop at ts[i], of size magnitude[i], wherever bad[i]."""
    return [Violation(float(t), prop, float(m)) for t, m in zip(ts[bad], magnitude[bad])]


class _Checked:
    """What a report tells of its violations, with CHECKED the properties
    its summary lists in order."""

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violation_counts(self):
        out = {}
        for v in self.violations:
            out[v.prop] = out.get(v.prop, 0) + 1
        return out

    @property
    def max_magnitude(self) -> float:
        return max((v.magnitude for v in self.violations), default=0.0)

    def summary_lines(self):
        counts, lines = self.violation_counts, []
        for prop in self.CHECKED:
            n = counts.get(prop, 0)
            if n:
                worst = max(v.magnitude for v in self.violations if v.prop == prop)
                lines.append("FAIL %s  violations=%d  max=%.3g" % (prop, n, worst))
            else:
                lines.append("PASS %s" % prop)
        return lines


@dataclass(frozen=True)
class CoupledPairReport(_Checked):
    CHECKED = PAIR_PROPS
    n_paths: int
    shift: float
    violations: tuple


@dataclass(frozen=True)
class AlphaLadderReport(_Checked):
    CHECKED = LADDER_PROPS
    n_paths: int
    alphas: tuple
    violations: tuple
    sup_gap_to_limit: tuple
    value_means: tuple
    value_ses: tuple


@dataclass(frozen=True)
class CharReport:
    lambdas: np.ndarray
    empirical: np.ndarray
    target: np.ndarray
    tolerance: np.ndarray  # (2, m): bounds on the real and imaginary gaps

    @property
    def worst_ratio(self) -> float:
        """Largest |gap| / tolerance over the real and imaginary parts."""
        gap = self.empirical - self.target
        return float(np.max(np.abs(np.stack((gap.real, gap.imag)))
                            / self.tolerance))

    @property
    def ok(self) -> bool:
        """Every real and imaginary part of the gap within its tolerance.

        Each part is a mean of n draws of cos or sin(lambda X_t), which lie
        in [-1, 1], and its tolerance is the Bernstein bound at rate
        CHAR_FALSE_ALARM / 2m with the variance the model gives.  A correct
        sampler therefore fails with probability at most CHAR_FALSE_ALARM,
        for every model, n and set of m frequencies: the bound holds at
        finite n, lattice jump laws included, and a direction without
        variation (lambda = 0, a model without jumps or diffusion) is held
        to the range term 4 log(4m / CHAR_FALSE_ALARM) / 3n.
        """
        return self.worst_ratio <= 1.0


# Paths checked at once: a block's probe tables grow with it.
BLOCK = 32


class _Block:
    """The trajectories of a block of paths, read at every path's probes at
    once: tables[r] is the SegmentTable of role r on the block's paths, and
    drivers, if given, their EventColumns.

    A path's probes are the knots and atom times of its trajectories, the
    horizon and the midpoints between them; t and path hold them in (path,
    t) order.  readings[r] is the SegmentReading of role r there and driver
    the drivers' values, both from path_engine.read_segments.
    """

    def __init__(self, tables, drivers=None):
        n = tables[0].counts.shape[1]
        srcs = [(np.full(n, tables[0].horizon), np.arange(n))]
        srcs += [src for tab in tables for src in tab.sources]
        keys, times = path_keys(np.concatenate([p for _, p in srcs]),
                                np.concatenate([t for t, _ in srcs]))
        keys = np.sort(keys)
        kp, kt = np.divmod(keys[np.append(True, keys[1:] != keys[:-1])], times.size)
        kt = times[kt]
        mid = 0.5 * (kt[:-1] + kt[1:])
        # a midpoint that rounds onto a knot adds no probe
        has_mid = (kp[1:] == kp[:-1]) & (mid != kt[:-1]) & (mid != kt[1:])
        gaps = np.flatnonzero(has_mid) + 1
        self.t, self.path = np.insert(kt, gaps, mid[has_mid]), np.insert(kp, gaps, kp[gaps])
        self.same = self.path[1:] == self.path[:-1]  # probes j and j + 1 on one path
        self.readings, self.driver = read_segments(tables, self.path, self.t, drivers)

    def violations(self, rows):
        """The Violations of rows (prop, magnitude, bad) by path, row, time;
        a row on the increments between probes is charged at the later."""
        found = []
        for k, (prop, mag, bad) in enumerate(rows):
            if bad.size < self.t.size:
                bad, mag = np.append(False, bad & self.same), np.append(0.0, mag)
            found += [(p, k, j, prop, m) for p, j, m in zip(
                self.path[bad].tolist(), np.flatnonzero(bad).tolist(), mag[bad].tolist())]
        return [Violation(float(self.t[j]), prop, m) for _, _, j, prop, m in sorted(found)]


def check_pair(tablek, tablel, shift: float, b: float, drivers=None,
               tol: float = EXACT_TOL):
    """Order/budget/support relations between coupled trajectories, for a
    block of paths at once: path i of the SegmentTables tablek and tablel is
    swept on one driver from starts a constant shift >= 0 apart.  Given
    drivers, the EventColumns of tablek, the budget row also checks z = X -
    L + R at the knots of tablek, X being the driver.

    Returns the violations by path, then property, then time.  The support
    conditions are checked with one-knot slack: an increment between
    consecutive probe times is charged only if its condition fails at both
    endpoints.  The dividend support reads the gap or its left limit: at
    alpha = inf a jump that lifts both paths past b pays the gap it closes.
    """
    if shift < 0:
        raise InvalidParameter("shift", "upper start must not be below lower start")
    blk = _Block((tablek, tablel), drivers)
    rk, rl = blk.readings
    dz, dl, dr = rl.z - rk.z, rl.l - rk.l, rl.r - rk.r
    inc, dec, rinc = np.diff(dz), np.diff(dl), np.diff(dr)
    resid = np.abs(dz + dl - dr - shift)
    gap = np.maximum(dz, rl.z_left - rk.z_left)
    cond_l = (rk.z <= b + tol) & (rl.z >= b - tol) & (gap > tol)
    cond_r = np.minimum(rk.z, rk.z_left) <= tol
    rows = [
        # (1) conserved budget of the initial shift
        ("pair_budget", resid, resid > tol),
        # (2) ordering gap shrinks, stays in [0, shift]
        ("pair_gap_range", np.maximum(-dz, dz - shift), (dz < -tol) | (dz > shift + tol)),
        ("pair_gap_monotone", inc, inc > tol),
        # (3) dividend difference: range, monotone, support
        ("pair_div_range", np.maximum(-dl, dl - shift), (dl < -tol) | (dl > shift + tol)),
        ("pair_div_monotone", -dec, dec < -tol),
        ("pair_div_support", dec, (dec > tol) & ~(cond_l[:-1] | cond_l[1:])),
        # (4) injection difference: range, monotone, support at the floor
        ("pair_inj_range", np.maximum(dr, -shift - dr), (dr > tol) | (dr < -shift - tol)),
        ("pair_inj_monotone", rinc, rinc > tol),
        ("pair_inj_support", -rinc, (rinc < -tol) & ~(cond_r[:-1] | cond_r[1:])),
    ]
    if drivers is not None:
        budget = np.abs(rk.z - (blk.driver - rk.l + rk.r))
        rows.append(("budget", budget, (budget > tol) & rk.knot))
    return blk.violations(rows)


def coupled_pair_run(spec: JumpDiffusionSpec, params: StrategyParams, x: float,
                     k: float, l: float, horizon: float, n: int,
                     stream: RngStream, relaxed: bool = False) -> CoupledPairReport:
    """Drive the strategy from starts x+k and x+l with one driver per path.

    The shift l - k must lie strictly inside (0, b); relaxed lifts that to
    any l >= k, including the degenerate equal-start pair.
    """
    shift = l - k
    if shift < 0 or (not relaxed and not (0 < shift < params.b)):
        raise InvalidParameter("l", "shift must lie in (0, b); pass relaxed to lift")
    cols = sample_path(replace(spec, x0=0.0), horizon, EXACT, stream, n)
    lower = replace(cols, x0=cols.x0 + (x + k))
    tk = apply_strategy_exact(lower, params)
    tl = apply_strategy_exact(replace(cols, x0=cols.x0 + (x + l)), params)
    viol = []
    for start in range(0, n, BLOCK):
        stop = start + BLOCK
        viol += check_pair(tk.block(start, stop), tl.block(start, stop), shift, params.b,
                           lower.block(start, stop))
    return CoupledPairReport(n_paths=n, shift=shift, violations=tuple(viol))


def alpha_ladder_run(spec: JumpDiffusionSpec, b: float, alphas, x: float,
                     horizon: float, n: int, stream: RngStream,
                     beta: float = 1.5, q: float = 0.05) -> AlphaLadderReport:
    """Order of trajectories under a strictly increasing rate-cap ladder.

    Checks, pairwise along the ladder on shared noise: the refracted driver
    is pointwise ordered, the floored surplus is ordered, cumulative
    dividends and injections grow with the cap.  When the last rung is
    math.inf the sup gap of each surplus to the reflected limit is recorded,
    and discounted values must not decrease along the ladder within paired
    noise.
    """
    alphas = tuple(float(a) for a in alphas)
    if len(alphas) < 2 or any(a <= 0 for a in alphas):
        raise InvalidLadder("need at least two positive rungs")
    if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise InvalidLadder("rungs must be strictly increasing")
    m = len(alphas)
    viol = []
    sup_gap = np.zeros(m)
    vals = np.zeros((m, n))
    cols = sample_path(replace(spec, x0=x), horizon, EXACT, stream, n)
    trajs = [apply_strategy_exact(cols, StrategyParams(b=b, alpha=a, beta=beta, q=q))
             for a in alphas]
    refr = [refract_exact(cols, b, a) for a in alphas]
    for j, table in enumerate(trajs):
        dl, dr = table.discounted_flow(q)
        vals[j] = dl - beta * dr
    for start in range(0, n, BLOCK):
        blk = _Block([table.block(start, start + BLOCK) for table in trajs + refr])
        zs, ys = blk.readings[:m], blk.readings[m:]
        if alphas[-1] == math.inf:
            for j in range(m):
                sup_gap[j] = max(sup_gap[j], float(np.max(zs[j].z - zs[-1].z)))
        rows = []
        for j in range(m - 1):
            # as the cap rises the refracted paths and the surpluses do not
            # rise, and the dividends and injections do not fall
            dy, dz = ys[j].z - ys[j + 1].z, zs[j].z - zs[j + 1].z
            dl, dr = zs[j].l - zs[j + 1].l, zs[j].r - zs[j + 1].r
            rows += [("ladder_refracted", -dy, dy < -EXACT_TOL),
                     ("ladder_surplus", -dz, dz < -EXACT_TOL),
                     ("ladder_dividends", dl, dl > EXACT_TOL),
                     ("ladder_injections", dr, dr > EXACT_TOL)]
        viol += blk.violations(rows)
    means = vals.mean(axis=1)
    ses = vals.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(m)
    for j in range(m - 1):
        diff = vals[j + 1] - vals[j]
        dm = diff.mean()
        dse = diff.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
        if dm < -3.0 * dse - EXACT_TOL:
            viol.append(Violation(float(alphas[j + 1]), "ladder_value_monotone",
                                  float(-dm)))
    return AlphaLadderReport(n_paths=n, alphas=alphas, violations=tuple(viol),
                             sup_gap_to_limit=tuple(sup_gap),
                             value_means=tuple(means), value_ses=tuple(ses))


def char_function_check(spec: JumpDiffusionSpec, t: float, lambdas, n: int,
                        stream: RngStream) -> CharReport:
    """Empirical characteristic function of X_t against the analytic
    exponent, with the tolerances of CharReport.ok."""
    lambdas = np.asarray(lambdas, dtype=float)
    # X_t - x0 as the one-step grid of the estimators' sampler
    xt = _grid_increment_matrix(spec, t, 1, n, stream.generator())[:, 0]
    emp = np.array([np.exp(1j * lam * xt).mean() for lam in lambdas])
    target = np.exp(-t * characteristic_exponent(spec, lambdas))
    # E cos^2 = (1 + Re phi(2 lambda)) / 2 and E sin^2 = (1 - Re phi(2 lambda)) / 2
    double = np.exp(-t * characteristic_exponent(spec, 2.0 * lambdas)).real
    var = np.maximum(np.stack(((1.0 + double) / 2.0 - target.real ** 2,
                               (1.0 - double) / 2.0 - target.imag ** 2)), 0.0)
    # Bernstein: a mean of n draws at most 2 from their mean and of variance
    # var strays by eps with probability <= 2 exp(-n eps^2 / (2 var + 4 eps / 3))
    log_term = math.log(4 * len(lambdas) / CHAR_FALSE_ALARM)
    a = 4.0 * log_term / 3.0
    tol = (a + np.sqrt(a * a + 8.0 * n * var * log_term)) / (2.0 * n)
    return CharReport(lambdas=lambdas, empirical=emp, target=target,
                      tolerance=tol)


@dataclass(frozen=True)
class ShapeReport(_Checked):
    CHECKED = ("value_cap", "value_affine_below", "value_slope_cap", "value_concavity",
               "value_slope_below_one_inside", "value_slope_above_one_beyond")
    violations: tuple


def value_shape_check(xs, means, ses, params: StrategyParams, bstar: float,
                      slack_se: float = 3.0) -> ShapeReport:
    """Shape of an estimated value curve on an x grid.

    Checks the global bound alpha/q, concavity of the increments within
    noise, slope bounds (at most beta everywhere, at least 1 up to the
    threshold, at most 1 beyond), and exact affinity with slope beta below
    0 where the estimator extends linearly.
    """
    xs = np.asarray(xs, dtype=float)
    means = np.asarray(means, dtype=float)
    ses = np.asarray(ses, dtype=float)
    cap = params.alpha / params.q if params.alpha != math.inf else math.inf
    over = means - (cap + slack_se * ses)
    out = _flag("value_cap", xs, over, over > 0)
    h = np.diff(xs)
    slopes = np.diff(means) / h
    sse = np.sqrt(ses[1:] ** 2 + ses[:-1] ** 2) / h
    neg = xs[1:] <= 0
    resid = np.abs(slopes[neg] - params.beta)
    out += _flag("value_affine_below", xs[1:][neg], resid, resid > 1e-9)
    over = slopes - (params.beta + slack_se * sse)
    out += _flag("value_slope_cap", xs[1:], over, over > 0)
    dec = np.diff(slopes) - slack_se * np.sqrt(sse[1:] ** 2 + sse[:-1] ** 2)
    out += _flag("value_concavity", xs[2:], dec, dec > 0)
    mid = (xs[1:] + xs[:-1]) * 0.5
    under = (1.0 - slack_se * sse) - slopes
    out += _flag("value_slope_below_one_inside", mid, under,
                 (mid > 0) & (mid <= bstar) & (under > 0))
    over = slopes - (1.0 + slack_se * sse)
    out += _flag("value_slope_above_one_beyond", mid, over, (mid > bstar) & (over > 0))
    return ShapeReport(violations=tuple(out))
