"""Pathwise properties of the construction, run as checks over sampled paths.

The couplings here drive several controlled trajectories with one sampled
driver and verify order, budget, and support relations that the exact
construction must satisfy path by path: shifted starts stay ordered with a
conserved shift budget, trajectories under growing rate caps are ordered
and converge to the reflected limit, and the empirical characteristic
function matches the analytic exponent.  Exact-engine checks use absolute
tolerance 1e-9.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .levy_model import (
    EXACT,
    Exponential,
    InvalidParameter,
    JumpDiffusionSpec,
    PointMass,
    RngStream,
    Uniform,
    Weibull,
    _grid_increment_matrix,
    characteristic_exponent,
    classify_case,
    sample_path,
)
from .path_engine import refract_exact
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


class EngineUnavailable(RuntimeError):
    """Pathwise checks need the exact engine: sigma must be 0."""


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


def _probe_times(trajs, horizon):
    knots = [t.seg_t for t in trajs]
    knots.append(np.asarray([horizon]))
    for t in trajs:
        if t.r_atom_t.size:
            knots.append(t.r_atom_t)
        if t.l_atom_t.size:
            knots.append(t.l_atom_t)
    ts = np.unique(np.concatenate(knots))
    mids = 0.5 * (ts[:-1] + ts[1:])
    return np.unique(np.concatenate((ts, mids)))


def check_pair(trajk, trajl, shift: float, b: float, tol: float = EXACT_TOL):
    """Order/budget/support relations between two coupled trajectories whose
    drivers differ by a constant shift >= 0.

    Returns a list of violations.  The support conditions are checked with
    one-knot slack: an increment between consecutive probe times is charged
    only if its condition fails at both endpoints.
    """
    if shift < 0:
        raise InvalidParameter("shift", "upper start must not be below lower start")
    horizon = trajk.horizon
    ts = _probe_times((trajk, trajl), horizon)
    zk = trajk.value_at(ts)
    zl = trajl.value_at(ts)
    dz = zl - zk
    dl = trajl.dividends_at(ts) - trajk.dividends_at(ts)
    dr = trajl.injections_at(ts) - trajk.injections_at(ts)
    inc, dec, rinc = np.diff(dz), np.diff(dl), np.diff(dr)
    resid = np.abs(dz + dl - dr - shift)
    cond_l = (zk <= b + tol) & (zl >= b - tol) & (zl - zk > tol)
    cond_r = np.minimum(zk, trajk.left_limit_at(ts)) <= tol
    # (1) conserved budget of the initial shift
    out = _flag("pair_budget", ts, resid, resid > tol)
    # (2) ordering gap shrinks, stays in [0, shift]
    out += _flag("pair_gap_range", ts, np.maximum(-dz, dz - shift),
                 (dz < -tol) | (dz > shift + tol))
    out += _flag("pair_gap_monotone", ts[1:], inc, inc > tol)
    # (3) dividend difference: range, monotone, support
    out += _flag("pair_div_range", ts, np.maximum(-dl, dl - shift),
                 (dl < -tol) | (dl > shift + tol))
    out += _flag("pair_div_monotone", ts[1:], -dec, dec < -tol)
    out += _flag("pair_div_support", ts[1:], dec, (dec > tol) & ~(cond_l[:-1] | cond_l[1:]))
    # (4) injection difference: range, monotone, support at the floor
    out += _flag("pair_inj_range", ts, np.maximum(dr, -shift - dr),
                 (dr > tol) | (dr < -shift - tol))
    out += _flag("pair_inj_monotone", ts[1:], rinc, rinc > tol)
    out += _flag("pair_inj_support", ts[1:], -rinc, (rinc < -tol) & ~(cond_r[:-1] | cond_r[1:]))
    return out


def coupled_pair_run(spec: JumpDiffusionSpec, params: StrategyParams, x: float,
                     k: float, l: float, horizon: float, n: int,
                     stream: RngStream, relaxed: bool = False) -> CoupledPairReport:
    """Drive the strategy from starts x+k and x+l with one driver per path.

    The shift l - k must lie strictly inside (0, b); relaxed lifts that to
    any l >= k, including the degenerate equal-start pair.
    """
    if spec.sigma != 0.0:
        raise EngineUnavailable("coupled pair checks need sigma = 0")
    shift = l - k
    if shift < 0 or (not relaxed and not (0 < shift < params.b)):
        raise InvalidParameter("l", "shift must lie in (0, b); pass relaxed to lift")
    case = classify_case(spec, params.alpha)
    viol = []
    for path in sample_path(replace(spec, x0=0.0), horizon, EXACT, stream, n).paths():
        tk = apply_strategy_exact(path.shifted(x + k), params, case)
        tl = apply_strategy_exact(path.shifted(x + l), params, case)
        viol.extend(check_pair(tk, tl, shift, params.b))
        viol.extend(_budget_violations(tk, path.shifted(x + k)))
    return CoupledPairReport(n_paths=n, shift=shift, violations=tuple(viol))


def _budget_violations(traj, path, tol: float = EXACT_TOL):
    ts = traj.seg_t
    lhs = traj.value_at(ts)
    rhs = path.value_at(ts) - traj.dividends_at(ts) + traj.injections_at(ts)
    resid = np.abs(lhs - rhs)
    return _flag("budget", ts, resid, resid > tol)


def fixed_cap_violations(traj, alpha: float, tol: float = EXACT_TOL):
    """For b = 0 with drift above the cap, dividends accrue at the cap rate
    exactly: L_t = alpha * t for all t."""
    ts = _probe_times((traj,), traj.horizon)
    resid = np.abs(traj.dividends_at(ts) - alpha * ts)
    return _flag("cap_rate_dividends", ts, resid, resid > tol)


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
    if spec.sigma != 0.0:
        raise EngineUnavailable("ladder checks need sigma = 0")
    alphas = tuple(float(a) for a in alphas)
    if len(alphas) < 2 or any(a <= 0 for a in alphas):
        raise InvalidLadder("need at least two positive rungs")
    if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise InvalidLadder("rungs must be strictly increasing")
    m = len(alphas)
    viol = []
    sup_gap = np.zeros(m)
    vals = np.zeros((m, n))
    for i, path in enumerate(sample_path(replace(spec, x0=x), horizon, EXACT, stream, n).paths()):
        trajs, refr = [], []
        for a in alphas:
            case = classify_case(spec, a)
            pp = StrategyParams(b=b, alpha=a, beta=beta, q=q)
            trajs.append(apply_strategy_exact(path, pp, case))
            refr.append(refract_exact(path, b, a, case))
        ts = _probe_times(trajs + refr, horizon)
        zs = [t.value_at(ts) for t in trajs]
        ys = [t.value_at(ts) for t in refr]
        ls = [t.dividends_at(ts) for t in trajs]
        rs = [t.injections_at(ts) for t in trajs]
        for j in range(m):
            dl_j, dr_j = trajs[j].discounted_flow(q)
            vals[j, i] = dl_j - beta * dr_j
        if alphas[-1] == math.inf:
            for j in range(m):
                sup_gap[j] = max(sup_gap[j], float(np.max(zs[j] - zs[-1])))
        for j in range(m - 1):
            # as the cap rises the refracted paths and the surpluses do not
            # rise, and the dividends and injections do not fall
            dy, dz = ys[j] - ys[j + 1], zs[j] - zs[j + 1]
            dl, dr = ls[j] - ls[j + 1], rs[j] - rs[j + 1]
            viol += (_flag("ladder_refracted", ts, -dy, dy < -EXACT_TOL)
                     + _flag("ladder_surplus", ts, -dz, dz < -EXACT_TOL)
                     + _flag("ladder_dividends", ts, dl, dl > EXACT_TOL)
                     + _flag("ladder_injections", ts, dr, dr > EXACT_TOL))
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


def draw_random_bv_setup(rng: np.random.Generator):
    """Random bounded-variation model plus a compatible strategy and starts.

    Used by the randomized pathwise sweep: models span both drift regimes,
    all mark families, and one- or two-component jump mixes.
    """

    def draw_marks():
        u = rng.random()
        if u < 0.25:
            a = rng.uniform(0.0, 0.4)
            return Uniform(a, a + rng.uniform(0.3, 1.2))
        if u < 0.5:
            return Exponential(rng.uniform(0.6, 2.5))
        if u < 0.75:
            return Weibull(rng.uniform(0.8, 2.5), rng.uniform(0.4, 1.3))
        return PointMass(rng.uniform(0.2, 1.0))

    comps = []
    n_comp = 1 + int(rng.random() < 0.6)
    signs = [1, -1] if n_comp == 2 else [1 if rng.random() < 0.5 else -1]
    for sg in signs:
        comps.append((rng.uniform(0.2, 1.3), sg, draw_marks()))
    gamma = rng.uniform(-1.5, 1.5)
    spec = JumpDiffusionSpec(gamma=gamma, sigma=0.0,
                             jump_components=tuple(comps), x0=0.0)
    alpha = rng.uniform(0.25, 1.6)
    b = rng.uniform(0.3, 2.0)
    params = StrategyParams(b=b, alpha=alpha, beta=rng.uniform(1.1, 2.5),
                            q=rng.uniform(0.02, 0.2))
    x = rng.uniform(-0.5, 1.5)
    k = 0.0
    l = rng.uniform(0.05, 0.95) * b
    return spec, params, x, k, l
