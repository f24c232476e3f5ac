"""Monte Carlo estimation: passage laws, the optimal threshold, and values.

Two engines sit behind every estimator as one sampler and two readers.
Chunk ci draws its m paths at once on the stream stream.for_path(ci) from
the one jump draw of levy_model: as padded event columns (EventColumns)
for the exact engine (sigma = 0), as an (m, k) increment matrix for the
Euler engine, the one draw format of each engine.
_chunk_readers is the one dispatch between the engines.  It lays the
chunks of a batch side by side, once, and reads them as LaneFlows, the
discounted flows and passage times of floored (path, start, threshold)
lanes, and RecordLows, the record lows of the paths refracted at 0: the
two readers of each engine's lane stepper, path_engine.event_steps or
strategy_engine.euler_steps.  Each estimator reduces them once, for both
engines; a passage that does not occur before the horizon weighs
exp(-q * inf) = 0.

The threshold search has one form, on common random numbers: the path
refracted at b and started at b is the path refracted at 0 and started at
0, shifted up by b, so the record lows of one path give nu at every grid
point, summed path by path with np.bincount.  The curve is non-increasing
path by path, and nu at one threshold is the one-point curve.  Value
curves run as one job over paths x starts x thresholds: a batch draws once
on the main stream and once on the at-0 anchor substream and reads every
(x, b) point off those two draws, so one pool serves a curve set.  A run
steps at most BLOCK_LANES lanes at once, in blocks of points that share
the stream's draw.

Paths come in fixed chunks of CHUNK paths.  A worker call reads a batch
of at most BATCH contiguous chunks as one lane set, and a run has at least
min(threads, chunks) batches, so every worker computes.  Each estimator
splits its readings back into chunks and returns one partial per chunk;
the partials are combined by a fixed-order pairwise tree in chunk order, so
results are bit-identical for any batching and any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .levy_model import (
    EXACT,
    EventColumns,
    InvalidParameter,
    JumpDiffusionSpec,
    RngStream,
    _grid_increment_matrix,
    is_case2,
    net_drift,
    sample_path,
)
from . import path_engine
from .strategy_engine import (
    StrategyParams,
    euler_lane_flows,
    euler_record_lows,
)

CHUNK = 256
BATCH = 8  # most contiguous chunks one worker call reads as one lane set
BLOCK_LANES = 2 ** 16  # (point, path) lanes a value batch steps at once
V0_TAG_OFFSET = 7919  # substream tag shift for the internal value-at-zero run


class NoCrossing(RuntimeError):
    """The discounted-passage curve never crosses the 1/beta level."""


class DegenerateDenominator(RuntimeError):
    """The two passage transforms coincide; the affine equation has no root."""


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    censored_fraction: float


@dataclass(frozen=True)
class NuCurve:
    grid: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    censored_fractions: np.ndarray

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


def _batches(n: int, threads: int):
    """The (ci, m) chunks of n paths in contiguous batches of at most BATCH
    chunks, and at least min(threads, chunks) batches, so that every worker
    computes.  Batch sizes differ by one chunk at most."""
    chunks = [(ci, min(CHUNK, n - ci * CHUNK)) for ci in range((n + CHUNK - 1) // CHUNK)]
    nb = max(-(-len(chunks) // BATCH), min(threads, len(chunks)))
    return [chunks[len(chunks) * i // nb:len(chunks) * (i + 1) // nb] for i in range(nb)]


def _chunk_rows(chunks):
    """The rows (paths) of each chunk of a batch read as one lane set."""
    ends = np.cumsum([m for _, m in chunks])
    return [slice(e - m, e) for (_, m), e in zip(chunks, ends.tolist())]


def _run_chunks(n: int, worker, threads: int):
    """worker(batch) returns one partial per chunk of the batch; the
    partials are reduced in chunk order, so no byte depends on the batching
    or the worker count."""
    batches = _batches(n, threads)
    if threads <= 1:
        parts = [worker(batch) for batch in batches]
    else:
        with ProcessPoolExecutor(max_workers=threads) as ex:
            futs = [ex.submit(worker, batch) for batch in batches]
            parts = [f.result() for f in futs]
    return _tree_reduce(p for part in parts for p in part)


def _engine_for(spec: JumpDiffusionSpec, engine: str) -> str:
    if engine == "auto":
        return "exact" if spec.sigma == 0.0 else "euler"
    if engine == "exact" and spec.sigma != 0.0:
        raise InvalidParameter("engine", "exact engine needs sigma = 0")
    return engine


class _Readers(NamedTuple):
    lane_flows: Callable  # (x, b, spliced) -> path_engine.LaneFlows
    record_lows: Callable  # () -> path_engine.RecordLows


def _chunk_readers(spec, params, horizon, k, eng, stream, chunks) -> _Readers:
    """The paths of a batch of (ci, m) chunks, chunk ci's m paths drawn at 0
    in one call on stream.for_path(ci), in chunk order: the columns of one
    EventColumns for the exact engine, laid side by side, and the rows of
    one (M, k) increment matrix for Euler, filled chunk by chunk.  Returns
    the two readings of the whole batch: the LaneFlows of floored (start,
    threshold) lanes, and the RecordLows of the paths refracted at 0.  Each
    reader holds the draw alive for as long as it is kept."""
    if eng == "exact":
        base = replace(spec, x0=0.0)
        columns = EventColumns.side_by_side(
            [sample_path(base, horizon, EXACT, stream.for_path(ci), m) for ci, m in chunks])
        return _Readers(partial(path_engine.floored_lane_sweep, columns, alpha=params.alpha,
                                q=params.q),
                        partial(path_engine.refracted_record_lows, columns, params.alpha))
    if k < 1:
        raise InvalidParameter("k", "the Euler engine needs a positive step count")
    rows = _chunk_rows(chunks)
    incs = np.empty((rows[-1].stop, k))
    for (ci, m), r in zip(chunks, rows):
        _grid_increment_matrix(spec, horizon, k, m, stream.for_path(ci).generator(), out=incs[r])
    dt = horizon / k
    return _Readers(partial(euler_lane_flows, incs=incs, alpha=params.alpha, dt=dt, q=params.q),
                    partial(euler_record_lows, incs, params.alpha, dt))


# threshold-free translated sweep --------------------------------------------

def _nu_sums(lows, bgrid_pos, q):
    """One chunk's (sum w, sum w^2, censored count) per grid point."""
    nb = len(bgrid_pos)
    # episode k covers the thresholds in [-min(hi, 0), -lo): grid points j0..j1-1
    j0 = np.searchsorted(bgrid_pos, -np.minimum(lows.hi, 0.0), side="left")
    n = np.maximum(np.searchsorted(bgrid_pos, -lows.lo, side="left") - j0, 0)
    ep = np.repeat(np.arange(n.size), n)
    j = np.arange(ep.size) - np.repeat(np.cumsum(n) - n, n) + j0[ep]
    w = np.exp(-q * (lows.t0[ep] + (lows.hi[ep] - (-bgrid_pos[j])) * lows.invrate[ep]))
    jc = np.searchsorted(bgrid_pos, -lows.final_min, side="left")
    # bincount adds in array order: per grid point, path by path
    return (np.bincount(j, weights=w, minlength=nb),
            np.bincount(j, weights=w * w, minlength=nb),
            np.cumsum(np.bincount(jc, minlength=nb + 1))[:nb].astype(float))


def _nu_chunk(draw, params, bgrid_pos, stream, chunks):
    # one sweep reads the batch; the lows are path-major, so each chunk's
    # episodes are one run of them, reduced on their own
    lows = draw(stream, chunks).record_lows()
    rows = _chunk_rows(chunks)
    cut = np.searchsorted(lows.path, [r.start for r in rows] + [rows[-1].stop]).tolist()
    fields = (lows.path, lows.lo, lows.hi, lows.t0, lows.invrate)
    return [_nu_sums(path_engine.RecordLows(*(f[a:z] for f in fields), lows.final_min[r]),
                     bgrid_pos, params.q)
            for a, z, r in zip(cut, cut[1:], rows)]


def nu_curve(params: StrategyParams, spec: JumpDiffusionSpec, bgrid,
             horizon: float, k: int, n: int, stream: RngStream,
             engine: str = "auto", threads: int = 1) -> NuCurve:
    """Discounted strict-passage transform over a threshold grid.

    One sweep of record lows per path serves every grid point, so the curve
    is non-increasing path by path, and a one-point grid gives the same
    value as that point of any grid on the same stream.  Thresholds below 0
    are not simulated: the transform is 1 there by convention.
    """
    bgrid = np.asarray(bgrid, dtype=float)
    if bgrid.size and np.any(np.diff(bgrid) <= 0):
        raise InvalidParameter("grid", "threshold grid must be strictly increasing")
    pos = bgrid >= 0.0
    draw = partial(_chunk_readers, spec, params, horizon, k, _engine_for(spec, engine))
    sw, sw2, cens = _run_chunks(n, partial(_nu_chunk, draw, params, bgrid[pos], stream), threads)
    values, ses, cfr = np.ones(bgrid.size), np.zeros(bgrid.size), np.zeros(bgrid.size)
    values[pos] = sw / n
    ses[pos] = np.sqrt(np.maximum(sw2 - sw * sw / n, 0.0) / max(n - 1, 1) / n)
    cfr[pos] = cens / n
    return NuCurve(grid=bgrid, values=values, std_errors=ses, censored_fractions=cfr)


def find_bstar(params: StrategyParams, spec: JumpDiffusionSpec, bgrid,
               horizon: float, k: int, n: int, stream: RngStream,
               engine: str = "auto", threads: int = 1) -> BstarResult:
    """Smallest grid threshold where beta times the passage transform drops
    below 1, with a 3-standard-error localization interval."""
    curve = nu_curve(params, spec, bgrid, horizon, k, n, stream,
                     engine=engine, threads=threads)
    beta = params.beta
    cand = (curve.grid > 0.0) & (beta * curve.values < 1.0)
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

def _clock_chunk(draw, params, x, stream, chunks):
    # halting lanes leave the sweep once both clocks are known; halting
    # gates only the flows, which the clock does not read
    fl = draw(stream, chunks).lane_flows([x], [params.b], [True])
    strict, weak = fl.kappa_strict[0], fl.t_weak[0]
    ws = np.exp(-params.q * strict)  # exp(-q * inf) = 0
    ww = np.exp(-params.q * weak)
    terms = (ws, ws * ws, ww, ww * ww, ws * ww)
    cens = (strict == math.inf) | (weak == math.inf)
    return [(np.asarray([t[r].sum() for t in terms]), np.asarray([float(np.sum(cens[r]))]))
            for r in _chunk_rows(chunks)]


def _clock_moments(params, spec, x, horizon, k, n, stream, engine, threads):
    eng = _engine_for(spec, engine)
    if eng == "euler" and params.b == 0.0 and is_case2(net_drift(spec), params.alpha):
        # the exact clock stays parked at b = 0 while the net drift is paid
        # out; the recursion steps below 0 instead and fires the strict clock
        raise InvalidParameter(
            "engine", "the Euler clock cannot stay at b = 0 on a Case-2 model; "
                      "use the exact engine")
    draw = partial(_chunk_readers, spec, params, horizon, k, eng)
    acc, cens = _run_chunks(n, partial(_clock_chunk, draw, params, x, stream), threads)
    return acc, float(cens[0]) / n


def estimate_underline_nu(x: float, bstar: float, p: float,
                          params: StrategyParams, spec: JumpDiffusionSpec,
                          horizon: float, n: int, stream: RngStream,
                          k: int = 0, engine: str = "auto",
                          threads: int = 1) -> McEstimate:
    """beta-scaled discounted randomized passage clock started at x.

    The clock is the strict passage below 0 of the refracted process with
    probability p and the weak passage otherwise; the expectation over the
    randomization is taken in closed form.  Both are read off the chunk's
    LaneFlows: on the exact engine the first injection and the first visit
    to 0 of the floored trajectory, on the Euler engine the knot times of
    the first injection and the first visit to 0.
    """
    if not (0.0 <= p <= 1.0):
        raise InvalidParameter("p", "probability must lie in [0, 1]")
    pp = replace(params, b=float(bstar))
    acc, cfr = _clock_moments(pp, spec, x, horizon, k, n, stream, engine, threads)
    beta = params.beta
    sws, sws2, sww, sww2, swsww = acc
    mean = beta * (p * sws + (1 - p) * sww) / n
    # var of p*ws + (1-p)*ww per path
    m2 = (p * p * sws2 + (1 - p) * (1 - p) * sww2 + 2 * p * (1 - p) * swsww) / n
    m1 = (p * sws + (1 - p) * sww) / n
    var = max(m2 - m1 * m1, 0.0) * n / max(n - 1, 1)
    return McEstimate(mean=float(mean),
                      std_error=float(beta * math.sqrt(var / n)), censored_fraction=cfr)


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
    acc, cfr = _clock_moments(pp, spec, bstar, horizon, k, n, stream, engine, threads)
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
#
# A value job is two runs of (x, b, spliced) points: the positive starts on
# the main stream and the at-0 anchors on their own substream.  Per run and
# per chunk of a batch there is a (J, 5) array of the moment sums of w, w^2,
# d, d^2 and w*d, with w the discounted dividends minus beta-weighted
# injections up to the stop and d the discount at the stop, and a (J,)
# count of censored paths.

def _moment_rows(w, d):
    # each point's sums reduce along its own contiguous row
    wd = w * d
    return np.array([(wj.sum(), (wj * wj).sum(), dj.sum(), (dj * dj).sum(), wdj.sum())
                     for wj, dj, wdj in zip(w, d, wd)])


def _in_blocks(points, m, block_sums):
    """block_sums over consecutive blocks of at most BLOCK_LANES lanes of m
    paths each (and at least one point), concatenated in point order along
    axis 1.  Lanes are independent, so the blocking never changes a byte."""
    step = max(1, BLOCK_LANES // m)
    parts = [block_sums(points[j:j + step]) for j in range(0, len(points), step)]
    return tuple(np.concatenate(p, axis=1) for p in zip(*parts))


def _run_sums(draw, params, stream, points, chunks):
    """The (moment sums, censored counts) of every point, per chunk."""
    lane_flows = draw(stream, chunks).lane_flows
    q = params.q
    rows = _chunk_rows(chunks)

    def block_sums(block):
        x, b, spliced = (np.array(c) for c in zip(*block))
        fl = lane_flows(x, b, spliced)
        # spliced points stop at the first weak visit to 0; exp(-q * inf) = 0
        stop = np.where(spliced[:, None], fl.t_weak, math.inf)
        w, d, censored = fl.dl - params.beta * fl.dr, np.exp(-q * stop), stop == math.inf
        return (np.stack([_moment_rows(w[:, r], d[:, r]) for r in rows]),
                np.stack([np.sum(censored[:, r], axis=1, dtype=float) * spliced
                          for r in rows]))

    return list(zip(*_in_blocks(points, rows[-1].stop, block_sums)))


def _value_chunk(draw, params, runs, chunks):
    # the runs draw one after the other, so an Euler batch holds one
    # increment matrix at a time; an empty run draws nothing
    per_run = [_run_sums(draw, params, stream, points, chunks) if points
               else [(np.zeros((0, 5)), np.zeros(0))] * len(chunks)
               for stream, points in runs]
    return [sum(parts, ()) for parts in zip(*per_run)]


def _direct_estimate(sums, cens, n):
    mean = sums[0] / n
    var = max(sums[1] / n - mean * mean, 0.0) * n / max(n - 1, 1)
    return McEstimate(mean=float(mean), std_error=float(math.sqrt(var / n)),
                      censored_fraction=float(cens) / n)


def _spliced_estimate(sums, cens, n, v0):
    s1, s2, sd1, sd2, cross = sums
    a_mean = s1 / n
    d_mean = sd1 / n
    # per-path variance of partial sum + splice discount * v0, v0 frozen
    g1 = (s1 + sd1 * v0.mean) / n
    g2 = (s2 + 2 * v0.mean * cross + v0.mean * v0.mean * sd2) / n
    var = max(g2 - g1 * g1, 0.0) * n / max(n - 1, 1)
    se = math.sqrt(var / n + (d_mean * v0.std_error) ** 2)
    return McEstimate(mean=float(a_mean + d_mean * v0.mean), std_error=float(se),
                      censored_fraction=float(cens) / n)


def _value_job(xs, bs, params, spec, horizon, k, n, stream, spliced, eng, threads):
    """Finite-horizon estimates at every (x, b) point in one chunked job."""
    anchor_stream = stream.with_tag(stream.tag + V0_TAG_OFFSET)
    points = list(zip(xs, bs))
    starts = tuple(dict.fromkeys((x, b, spliced) for x, b in points if x > 0))
    anchors = tuple(dict.fromkeys((0.0, b, False) for x, b in points
                                  if x <= 0 or spliced))
    draw = partial(_chunk_readers, spec, params, horizon, k, eng)
    worker = partial(_value_chunk, draw, params, ((stream, starts), (anchor_stream, anchors)))
    acc, cens, acc0, cens0 = _run_chunks(n, worker, threads)
    v0 = {b: _direct_estimate(s, c, n) for (_, b, _), s, c in zip(anchors, acc0, cens0)}
    at = {(x, b): (_spliced_estimate(s, c, n, v0[b]) if spliced else _direct_estimate(s, c, n))
          for (x, b, _), s, c in zip(starts, acc, cens)}
    return [at[x, b] if x > 0 else v0[b] if x == 0 else
            replace(v0[b], mean=v0[b].mean + params.beta * x) for x, b in points]


def value_curve(xs, b, params: StrategyParams, spec: JumpDiffusionSpec,
                horizon: float, k: int, n: int, stream: RngStream,
                method: str = "spliced", engine: str = "auto",
                threads: int = 1):
    """Expected discounted dividends minus beta-weighted injections at the
    starts xs, as (x, McEstimate) rows.

    b is one threshold or one per start: it broadcasts against xs, and every
    (x, b) point is estimated in one chunked job.  Each path is sampled once
    at 0 and shifted to every positive start.  Per threshold, one direct
    estimate at 0 on its own substream (tag + V0_TAG_OFFSET) is the x = 0
    point, gives the affine extension value(0) + beta * x below 0, and
    anchors the splices: method "spliced" stops a positive start at its
    first weak visit to 0 and splices in that anchor, "direct" discounts the
    full trajectory to the horizon.  The horizon is finite, so each value is
    the perpetual one less the discounted tail after it.
    """
    xs, bs = (a.ravel().tolist() for a in np.broadcast_arrays(
        np.asarray(xs, dtype=float), np.asarray(b, dtype=float)))
    eng = _engine_for(spec, engine)
    if method not in ("direct", "spliced"):
        raise InvalidParameter("method", "method must be direct or spliced")
    ests = _value_job(xs, bs, params, spec, horizon, k, n, stream,
                      method == "spliced", eng, threads)
    # a grid's -0.0 start is reported as 0
    return [(0.0 if x == 0 else x, est) for x, est in zip(xs, ests)]


def value_curve_csv(rows) -> str:
    lines = ["x,b,v,se,method"]
    for x, b, est, method in rows:
        lines.append("%.17g,%.17g,%.17g,%.17g,%s" % (x, b, est.mean, est.std_error, method))
    return "\n".join(lines) + "\n"
