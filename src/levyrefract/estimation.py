"""Monte Carlo estimation: passage laws, the optimal threshold, and values.

Two engines sit behind every estimator.  The exact engine (available when
sigma = 0) runs the event sweeps of path_engine and discounts in closed
form; the Euler engine runs the discrete recursions on a uniform grid.
Common-random-number threshold curves exploit that the dividend recursion
below the stopping time does not depend on the threshold once the state is
translated, so one simulation sweep serves the whole threshold grid.

Chunking is fixed (CHUNK paths per batch) and partial results are combined
by a fixed-order pairwise tree, so results are bit-identical for any worker
count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .levy_model import (
    EXACT,
    EventPath,
    InvalidParameter,
    JumpDiffusionSpec,
    RngStream,
    _compensated_drift,
    _grid_increment_matrix,
    classify_case,
    sample_path,
)
from . import path_engine
from .strategy_engine import (
    StrategyParams,
    apply_strategy_exact,
    euler_steps,
    first_passage_times,
)

CHUNK = 256
CENSOR_FACTOR = 10  # Euler censoring horizon multiple: weight exp(-q*dt*10K)
V0_TAG_OFFSET = 7919  # substream tag shift for the internal value-at-zero run


class NoCrossing(RuntimeError):
    """The discounted-passage curve never crosses the 1/beta level."""


class DegenerateDenominator(RuntimeError):
    """The two passage transforms coincide; the affine equation has no root."""


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int
    censored_fraction: float
    stream_id: str


@dataclass(frozen=True)
class NuCurve:
    grid: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    censored_fractions: np.ndarray
    mode: str  # "crn" or "independent"
    n: int
    stream_id: str

    def to_csv(self) -> str:
        lines = ["b,nu,se"]
        for b, v, s in zip(self.grid, self.values, self.std_errors):
            lines.append("%.17g,%.17g,%.17g" % (b, v, s))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BstarResult:
    bstar_hat: float
    interval_low: float
    interval_high: float
    curve: NuCurve
    n: int
    stream_id: str

    def to_csv(self) -> str:
        return ("b_star,interval_low,interval_high,n,seed\n"
                "%.17g,%.17g,%.17g,%d,%s\n"
                % (self.bstar_hat, self.interval_low, self.interval_high,
                   self.n, self.stream_id))


def _tree_reduce(partials):
    """Fixed-order pairwise sum of tuples of arrays."""
    items = list(partials)
    if not items:
        raise ValueError("no partial results")
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items) - 1, 2):
            nxt.append(tuple(a + b for a, b in zip(items[i], items[i + 1])))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def _run_chunks(n: int, worker, threads: int):
    n_chunks = (n + CHUNK - 1) // CHUNK
    jobs = [(ci, ci * CHUNK, min(CHUNK, n - ci * CHUNK)) for ci in range(n_chunks)]
    if threads <= 1:
        partials = [worker(ci, lo, m) for ci, lo, m in jobs]
    else:
        with ProcessPoolExecutor(max_workers=threads) as ex:
            futs = [ex.submit(worker, ci, lo, m) for ci, lo, m in jobs]
            partials = [f.result() for f in futs]
    return _tree_reduce(partials)


def _engine_for(spec: JumpDiffusionSpec, engine: str) -> str:
    if engine == "auto":
        return "exact" if spec.sigma == 0.0 else "euler"
    if engine == "exact" and spec.sigma != 0.0:
        raise InvalidParameter("engine", "exact engine needs sigma = 0")
    return engine


def _chunk_rng(stream: RngStream, ci: int):
    return RngStream(seed=stream.seed, tag=stream.tag, index=stream.index + ci).generator()


# exact engine: threshold-free translated sweep -----------------------------

def _min_episodes(traj):
    """Descent episodes of the running minimum of a piecewise-linear path.

    Each episode covers min levels in (lo, hi] first crossed at time
    t0 + (hi - level) * invrate; invrate = 0 marks an instantaneous (jump)
    descent.  Levels are capped at 0: only the non-positive range matters.
    """
    seg_t = traj.seg_t
    seg_v = traj.seg_v
    slope = traj.seg_slope
    ends = np.append(seg_t[1:], traj.horizon)
    end_v = seg_v + slope * (ends - seg_t)
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


def _exact_nu_chunk(spec, params, horizon, bgrid_pos, stream, ci, lo_idx, m):
    case = classify_case(spec, params.alpha)
    base = replace(spec, x0=0.0)
    nb = len(bgrid_pos)
    sw = np.zeros(nb)
    sw2 = np.zeros(nb)
    cens = np.zeros(nb)
    q = params.q
    for i in range(m):
        st = RngStream(seed=stream.seed, tag=stream.tag, index=stream.index + lo_idx + i)
        path = sample_path(base, horizon, EXACT, st)
        w = path_engine.refract_exact(path, 0.0, params.alpha, case)
        ep_lo, ep_hi, ep_t0, ep_inv, final_min = _min_episodes(w)
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


# Euler engine: threshold-free discrete recursion ---------------------------

def _euler_nu_chunk(spec, params, horizon, k, bgrid_pos, stream, ci, lo_idx, m):
    incs = _grid_increment_matrix(spec, horizon, k, m, _chunk_rng(stream, ci))
    dt = horizon / k
    q = params.q
    wt = np.zeros((m, k))
    steps = euler_steps(0.0, incs, 0.0, params.alpha, dt, floor=False)
    for j, (w, _, _) in enumerate(steps, start=1):
        wt[:, j] = w
    mins = np.minimum.accumulate(wt, axis=1)
    prev = np.concatenate((np.full((m, 1), np.inf), mins[:, :-1]), axis=1)
    caps = np.minimum(prev, 0.0)
    mask = mins < caps
    rows, cols = np.nonzero(mask)
    rec_lo = mins[rows, cols]
    rec_hi = caps[rows, cols]
    nb = len(bgrid_pos)
    dw = np.zeros(nb + 1)
    dw2 = np.zeros(nb + 1)
    dcens = np.zeros(nb + 1)
    j0 = np.searchsorted(bgrid_pos, -rec_hi, side="left")
    j1 = np.searchsorted(bgrid_pos, -rec_lo, side="left")
    wrec = np.exp(-q * dt * cols)
    np.add.at(dw, j0, wrec)
    np.add.at(dw, j1, -wrec)
    np.add.at(dw2, j0, wrec * wrec)
    np.add.at(dw2, j1, -wrec * wrec)
    wc = math.exp(-q * dt * CENSOR_FACTOR * k)
    jc = np.searchsorted(bgrid_pos, -mins[:, -1], side="left")
    np.add.at(dw, jc, wc)
    np.add.at(dw2, jc, wc * wc)
    np.add.at(dcens, jc, 1.0)
    return dw, dw2, dcens


def _finalize_curve(bgrid, sums, n, mode, stream_id):
    sw, sw2, cens = sums
    values = np.ones(len(bgrid))
    ses = np.zeros(len(bgrid))
    cfr = np.zeros(len(bgrid))
    pos_mask = bgrid >= 0.0
    mean = sw / n
    var = np.maximum(sw2 - sw * sw / n, 0.0) / max(n - 1, 1)
    values[pos_mask] = mean
    ses[pos_mask] = np.sqrt(var / n)
    cfr[pos_mask] = cens / n
    return NuCurve(grid=np.asarray(bgrid, dtype=float), values=values,
                   std_errors=ses, censored_fractions=cfr, mode=mode, n=n,
                   stream_id=stream_id)


def nu_curve(params: StrategyParams, spec: JumpDiffusionSpec, bgrid,
             horizon: float, k: int, n: int, stream: RngStream,
             mode: str = "crn", engine: str = "auto", threads: int = 1) -> NuCurve:
    """Discounted strict-passage transform over a threshold grid.

    mode "crn" shares one driving sweep across the grid (pathwise monotone
    curve); "independent" re-simulates each grid point with its own
    substream.  Thresholds below 0 are not simulated: the transform is 1
    there by convention.
    """
    bgrid = np.asarray(bgrid, dtype=float)
    if bgrid.size and np.any(np.diff(bgrid) <= 0):
        raise InvalidParameter("grid", "threshold grid must be strictly increasing")
    eng = _engine_for(spec, engine)
    bpos = bgrid[bgrid >= 0.0]
    if mode == "independent":
        values = np.ones(len(bgrid))
        ses = np.zeros(len(bgrid))
        cfr = np.zeros(len(bgrid))
        for idx in np.flatnonzero(bgrid >= 0.0):
            sub = stream.with_tag(stream.tag + 1000 + int(idx))
            est = estimate_nu(float(bgrid[idx]), params, spec, horizon, k, n, sub,
                              engine=eng, threads=threads)
            values[idx] = est.mean
            ses[idx] = est.std_error
            cfr[idx] = est.censored_fraction
        return NuCurve(grid=bgrid, values=values, std_errors=ses,
                       censored_fractions=cfr, mode="independent", n=n,
                       stream_id=stream.id)
    if mode != "crn":
        raise InvalidParameter("mode", "mode must be crn or independent")
    if eng == "exact":
        worker = partial(_exact_nu_chunk, spec, params, horizon, bpos, stream)
    else:
        worker = partial(_euler_nu_chunk, spec, params, horizon, k, bpos, stream)
    sums = _run_chunks(n, worker, threads)
    if eng == "euler":
        sums = tuple(np.cumsum(d)[:-1] for d in sums)
    return _finalize_curve(bgrid, sums, n, "crn", stream.id)


def estimate_nu(b: float, params: StrategyParams, spec: JumpDiffusionSpec,
                horizon: float, k: int, n: int, stream: RngStream,
                engine: str = "auto", threads: int = 1) -> McEstimate:
    """Single-threshold discounted strict-passage estimate."""
    if b < 0:
        return McEstimate(mean=1.0, std_error=0.0, n=n, censored_fraction=0.0,
                          stream_id=stream.id)
    pp = replace(params, b=float(b))
    curve = nu_curve(pp, spec, np.asarray([float(b)]), horizon, k, n, stream,
                     mode="crn", engine=engine, threads=threads)
    return McEstimate(mean=float(curve.values[0]),
                      std_error=float(curve.std_errors[0]), n=n,
                      censored_fraction=float(curve.censored_fractions[0]),
                      stream_id=stream.id)


def _pav_nonincreasing(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted least-squares projection onto non-increasing sequences."""
    vals = []
    wts = []
    cnt = []
    for yi, wi in zip(y, w):
        vals.append(yi)
        wts.append(wi)
        cnt.append(1)
        while len(vals) > 1 and vals[-2] < vals[-1]:
            wtot = wts[-1] + wts[-2]
            vnew = (vals[-1] * wts[-1] + vals[-2] * wts[-2]) / wtot
            vals[-2:] = [vnew]
            wts[-2:] = [wtot]
            cnt[-2:] = [cnt[-1] + cnt[-2]]
    out = np.empty(len(y))
    pos = 0
    for v, c in zip(vals, cnt):
        out[pos:pos + c] = v
        pos += c
    return out


def find_bstar(params: StrategyParams, spec: JumpDiffusionSpec, bgrid,
               horizon: float, k: int, n: int, stream: RngStream,
               mode: str = "crn", engine: str = "auto",
               threads: int = 1) -> BstarResult:
    """Smallest grid threshold where beta times the passage transform drops
    below 1, with a 3-standard-error localization interval.

    Independent-mode curves are isotonized (non-increasing) before the
    crossing is read off.
    """
    curve = nu_curve(params, spec, bgrid, horizon, k, n, stream, mode=mode,
                     engine=engine, threads=threads)
    beta = params.beta
    vals = curve.values.copy()
    if mode == "independent":
        pos = curve.grid >= 0.0
        se = curve.std_errors[pos]
        wts = np.where(se > 0, np.where(se > 0, se, 1.0) ** -2.0, 1.0)
        vals[pos] = _pav_nonincreasing(vals[pos], wts)
    cand = (curve.grid > 0.0) & (beta * vals < 1.0)
    if not np.any(cand):
        raise NoCrossing("beta * nu stays >= 1 on the whole grid")
    bstar = float(curve.grid[np.argmax(cand)])
    close = np.abs(beta * curve.values - 1.0) <= 3.0 * beta * curve.std_errors
    close &= curve.grid > 0.0
    if np.any(close):
        ilow = float(curve.grid[np.argmax(close)])
        ihigh = float(curve.grid[len(close) - 1 - np.argmax(close[::-1])])
    else:
        ilow = ihigh = bstar
    return BstarResult(bstar_hat=bstar, interval_low=ilow, interval_high=ihigh,
                       curve=curve, n=n, stream_id=stream.id)


# randomized passage clock --------------------------------------------------

def _first_passage_below(traj, level: float):
    """(strict, weak) first passage of a piecewise-linear cadlag path below
    level; math.inf when not reached by the horizon."""
    seg_t = traj.seg_t
    seg_v = traj.seg_v - level
    slope = traj.seg_slope
    ends = np.append(seg_t[1:], traj.horizon)
    end_v = seg_v + slope * (ends - seg_t)
    weak = math.inf
    strict = math.inf
    # knot values (post-jump) at or below the level
    at = np.flatnonzero(seg_v <= 0.0)
    if at.size:
        weak = float(seg_t[at[0]])
    under = np.flatnonzero(seg_v < 0.0)
    if under.size:
        strict = float(seg_t[under[0]])
    # interior down-crossings that go strictly below before the segment ends
    cross = np.flatnonzero((slope < 0.0) & (seg_v >= 0.0) & (end_v < 0.0))
    if cross.size:
        tc = seg_t[cross] + seg_v[cross] / (-slope[cross])
        t = float(tc.min())
        strict = min(strict, t)
        weak = min(weak, t)
    # a final segment gliding exactly onto the level at the horizon
    last = len(seg_t) - 1
    if slope[last] < 0.0 and seg_v[last] > 0.0 and end_v[last] == 0.0:
        weak = min(weak, float(traj.horizon))
    return strict, weak


def _exact_clock_chunk(spec, params, x, horizon, stream, ci, lo_idx, m):
    case = classify_case(spec, params.alpha)
    base = replace(spec, x0=float(x))
    q = params.q
    acc = np.zeros(5)  # sum ws, sum ws^2, sum wweak, sum wweak^2, sum ws*wweak
    ncens = 0.0
    for i in range(m):
        st = RngStream(seed=stream.seed, tag=stream.tag, index=stream.index + lo_idx + i)
        path = sample_path(base, horizon, EXACT, st)
        y = path_engine.refract_exact(path, params.b, params.alpha, case)
        strict, weak = _first_passage_below(y, 0.0)
        ws = math.exp(-q * strict) if strict < math.inf else 0.0
        ww = math.exp(-q * weak) if weak < math.inf else 0.0
        if strict == math.inf or weak == math.inf:
            ncens += 1.0
        acc += (ws, ws * ws, ww, ww * ww, ws * ww)
    return acc, np.asarray([ncens])


def _euler_clock_chunk(spec, params, x, horizon, k, stream, ci, lo_idx, m):
    incs = _grid_increment_matrix(spec, horizon, k, m, _chunk_rng(stream, ci))
    dt = horizon / k
    q = params.q
    kstrict = np.full(m, -1)
    kweak = np.full(m, -1)
    steps = euler_steps(x, incs, params.b, params.alpha, dt, floor=False)
    for j, (y, _, _) in enumerate(steps, start=1):
        kstrict[(y < 0.0) & (kstrict < 0)] = j
        kweak[(y <= 0.0) & (kweak < 0)] = j
    if x < 0:
        kstrict[:] = 0
        kweak[:] = 0
    elif x == 0:
        kweak[:] = 0
    cap = CENSOR_FACTOR * k
    ks = np.where(kstrict < 0, cap, kstrict)
    kw = np.where(kweak < 0, cap, kweak)
    ws = np.exp(-q * dt * ks)
    ww = np.exp(-q * dt * kw)
    ncens = float(np.sum((kstrict < 0) | (kweak < 0)))
    acc = np.asarray([ws.sum(), (ws * ws).sum(), ww.sum(), (ww * ww).sum(),
                      (ws * ww).sum()])
    return acc, np.asarray([ncens])


def _clock_moments(params, spec, x, horizon, k, n, stream, engine, threads):
    eng = _engine_for(spec, engine)
    if eng == "exact":
        worker = partial(_exact_clock_chunk, spec, params, x, horizon, stream)
    else:
        worker = partial(_euler_clock_chunk, spec, params, x, horizon, k, stream)
    acc, cens = _run_chunks(n, worker, threads)
    return acc, float(cens[0]) / n, eng


def estimate_underline_nu(x: float, bstar: float, p: float,
                          params: StrategyParams, spec: JumpDiffusionSpec,
                          horizon: float, n: int, stream: RngStream,
                          k: int = 0, engine: str = "auto",
                          threads: int = 1) -> McEstimate:
    """beta-scaled discounted randomized passage clock started at x.

    The clock is the strict passage below 0 of the refracted process with
    probability p and the weak passage otherwise; the expectation over the
    randomization is taken in closed form.
    """
    if not (0.0 <= p <= 1.0):
        raise InvalidParameter("p", "probability must lie in [0, 1]")
    pp = replace(params, b=float(bstar))
    eng = _engine_for(spec, engine)
    if eng == "euler" and k <= 0:
        raise InvalidParameter("k", "Euler engine needs a positive step count")
    acc, cfr, eng = _clock_moments(pp, spec, x, horizon, k, n, stream, engine, threads)
    beta = params.beta
    sws, sws2, sww, sww2, swsww = acc
    mean = beta * (p * sws + (1 - p) * sww) / n
    # var of p*ws + (1-p)*ww per path
    m2 = (p * p * sws2 + (1 - p) * (1 - p) * sww2 + 2 * p * (1 - p) * swsww) / n
    m1 = (p * sws + (1 - p) * sww) / n
    var = max(m2 - m1 * m1, 0.0) * n / max(n - 1, 1)
    return McEstimate(mean=float(mean),
                      std_error=float(beta * math.sqrt(var / n)),
                      n=n, censored_fraction=cfr, stream_id=stream.id)


def solve_pstar(params: StrategyParams, spec: JumpDiffusionSpec, bstar: float,
                horizon: float, n: int, stream: RngStream, k: int = 0,
                engine: str = "auto", threads: int = 1):
    """Randomization probability making the clock transform hit 1/beta.

    Started at the threshold: if even the strict clock keeps the transform
    at or above 1 (within 3 standard errors), the answer is 1.  Otherwise
    the affine interpolation between the weak and strict transforms is
    solved and clamped to [0, 1].
    """
    pp = replace(params, b=float(bstar))
    acc, cfr, eng = _clock_moments(pp, spec, bstar, horizon, k, n, stream,
                                   engine, threads)
    beta = params.beta
    sws, sws2, sww, sww2, _ = acc
    es = sws / n
    ew = sww / n
    ses = math.sqrt(max(sws2 / n - es * es, 0.0) / n)
    sew = math.sqrt(max(sww2 / n - ew * ew, 0.0) / n)
    if beta * es >= 1.0 - 3.0 * beta * ses:
        return 1.0
    if abs(ew - es) <= 3.0 * (ses + sew):
        raise DegenerateDenominator(
            "weak and strict transforms indistinguishable at this sample size")
    p = (beta * ew - 1.0) / (beta * (ew - es))
    return float(min(1.0, max(0.0, p)))


# value estimation ----------------------------------------------------------

def _exact_value_chunk(spec, params, x, horizon, spliced, stream, ci, lo_idx, m):
    case = classify_case(spec, params.alpha)
    base = replace(spec, x0=float(x))
    q = params.q
    s1 = s2 = 0.0
    sd1 = sd2 = 0.0  # splice discount moments
    cross = 0.0
    ncens = 0.0
    for i in range(m):
        st = RngStream(seed=stream.seed, tag=stream.tag, index=stream.index + lo_idx + i)
        path = sample_path(base, horizon, EXACT, st)
        traj = apply_strategy_exact(path, params, case)
        # spliced runs stop at the first weak visit to 0; exp(-q * inf) = 0
        stop = first_passage_times(traj).t_weak if spliced else math.inf
        dl, dr = traj.exact.discounted_flow(q, min(stop, horizon))
        w = dl - params.beta * dr
        d = math.exp(-q * stop)
        if spliced and stop == math.inf:
            ncens += 1.0
        s1 += w
        s2 += w * w
        sd1 += d
        sd2 += d * d
        cross += w * d
    return (np.asarray([s1, s2, sd1, sd2, cross]), np.asarray([ncens]))


def _euler_value_chunk(spec, params, x, horizon, k, spliced, stream, ci, lo_idx, m):
    incs = _grid_increment_matrix(spec, horizon, k, m, _chunk_rng(stream, ci))
    dt = horizon / k
    q, beta = params.q, params.beta
    acc = np.zeros(m)
    stopped = np.zeros(m, dtype=bool)
    splice_d = np.zeros(m)
    steps = euler_steps(x, incs, params.b, params.alpha, dt, floor=True)
    for j, (state, dl, dr) in enumerate(steps, start=1):
        disc = math.exp(-q * dt * j)
        if spliced:
            splice_d[(state <= 0.0) & ~stopped] = disc
        acc += ~stopped * disc * (dl - beta * dr)
        if spliced:
            stopped |= (state <= 0.0)
    ncens = float(np.sum(~stopped)) if spliced else 0.0
    s1 = float(acc.sum())
    s2 = float((acc * acc).sum())
    sd1 = float(splice_d.sum())
    sd2 = float((splice_d * splice_d).sum())
    cross = float((acc * splice_d).sum())
    return np.asarray([s1, s2, sd1, sd2, cross]), np.asarray([ncens])


def estimate_value(x: float, b: float, params: StrategyParams,
                   spec: JumpDiffusionSpec, horizon: float, k: int, n: int,
                   stream: RngStream, method: str = "spliced",
                   engine: str = "auto", threads: int = 1,
                   v0_estimate: McEstimate | None = None) -> McEstimate:
    """Expected discounted dividends minus beta-weighted injections.

    method "direct" discounts the full trajectory to the horizon; "spliced"
    stops at the first weak visit to 0 and splices the separately estimated
    value at 0, which shares one substream across all x.  Starts below 0
    return the affine extension value(0) + beta * x.  Curve sweeps can pass
    the at-0 estimate through v0_estimate to avoid recomputing it per x; it
    must come from this function at x=0 with the same stream tag offset.
    """
    pp = replace(params, b=float(b))
    eng = _engine_for(spec, engine)
    if method not in ("direct", "spliced"):
        raise InvalidParameter("method", "method must be direct or spliced")
    if horizon == math.inf:
        if eng != "exact" or spec.jump_components or method != "direct":
            raise InvalidParameter(
                "horizon", "infinite horizon needs the exact engine, no jumps, direct method")
        case = classify_case(spec, pp.alpha)
        path = EventPath(x0=float(x) if x >= 0 else 0.0, horizon=math.inf,
                         drift=_compensated_drift(spec),
                         times=np.empty(0), sizes=np.empty(0))
        traj = apply_strategy_exact(path, pp, case)
        dl, dr = traj.exact.discounted_flow(pp.q, horizon=math.inf)
        w = dl - pp.beta * dr
        if x < 0:
            w += pp.beta * x
        return McEstimate(mean=float(w), std_error=0.0, n=1,
                          censored_fraction=0.0, stream_id=stream.id)
    if x < 0:
        at0 = v0_estimate
        if at0 is None:
            at0 = estimate_value(0.0, b, params, spec, horizon, k, n, stream,
                                 method=method, engine=engine, threads=threads)
        return McEstimate(mean=at0.mean + pp.beta * x,
                          std_error=at0.std_error, n=n,
                          censored_fraction=at0.censored_fraction,
                          stream_id=stream.id)
    spliced = method == "spliced" and x > 0.0
    if eng == "exact":
        worker = partial(_exact_value_chunk, spec, pp, x, horizon, spliced, stream)
    else:
        worker = partial(_euler_value_chunk, spec, pp, x, horizon, k, spliced, stream)
    acc, cens = _run_chunks(n, worker, threads)
    s1, s2, sd1, sd2, _cross = acc
    if not spliced:
        mean = s1 / n
        var = max(s2 / n - mean * mean, 0.0) * n / max(n - 1, 1)
        return McEstimate(mean=float(mean), std_error=float(math.sqrt(var / n)),
                          n=n, censored_fraction=float(cens[0]) / n,
                          stream_id=stream.id)
    v0 = v0_estimate
    if v0 is None:
        v0 = estimate_value(0.0, b, params, spec, horizon, k, n,
                            stream.with_tag(stream.tag + V0_TAG_OFFSET),
                            method="direct", engine=engine, threads=threads)
    a_mean = s1 / n
    d_mean = sd1 / n
    # per-path variance of partial sum + splice discount * v0, v0 frozen
    g1 = (s1 + sd1 * v0.mean) / n
    g2 = (s2 + 2 * v0.mean * _cross + v0.mean * v0.mean * sd2) / n
    var = max(g2 - g1 * g1, 0.0) * n / max(n - 1, 1)
    se = math.sqrt(var / n + (d_mean * v0.std_error) ** 2)
    return McEstimate(mean=float(a_mean + d_mean * v0.mean), std_error=float(se),
                      n=n, censored_fraction=float(cens[0]) / n,
                      stream_id=stream.id)


def value_curve(xs, b: float, params: StrategyParams, spec: JumpDiffusionSpec,
                horizon: float, k: int, n: int, stream: RngStream,
                method: str = "spliced", engine: str = "auto",
                threads: int = 1):
    """Value estimates over an x grid as (x, McEstimate) rows.

    One at-0 estimate anchors the affine extension below 0, the x=0 point,
    and every splice, so the curve is internally consistent; positive
    starts share driving noise through the common stream.
    """
    xs = np.asarray(xs, dtype=float)
    v0 = estimate_value(0.0, b, params, spec, horizon, k, n,
                        stream.with_tag(stream.tag + V0_TAG_OFFSET),
                        method="direct", engine=engine, threads=threads)
    rows = []
    for x in xs:
        if x == 0.0:
            rows.append((0.0, v0))
            continue
        rows.append((float(x), estimate_value(
            float(x), b, params, spec, horizon, k, n, stream, method=method,
            engine=engine, threads=threads, v0_estimate=v0)))
    return rows


def value_curve_csv(rows) -> str:
    lines = ["x,b,v,se,method"]
    for x, b, est, method in rows:
        lines.append("%.17g,%.17g,%.17g,%.17g,%s" % (x, b, est.mean, est.std_error, method))
    return "\n".join(lines) + "\n"
