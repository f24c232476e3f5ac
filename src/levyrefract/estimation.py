"""Monte Carlo estimation: passage laws, the optimal threshold, and values.

Two engines sit behind every estimator as one sampler and two readers.
Chunk ci draws its m paths at once on the stream stream.for_path(ci) from
the jump draw of levy_model, by the one sampler of each engine:
levy_model.sample_path as padded event columns (EventColumns) for the
exact engine (sigma = 0), levy_model.grid_windows as the windows of an
(m, k) increment matrix for the Euler engine.
_chunk_readers is the one dispatch between the engines.  It lays the
chunks of a batch, on every stream of a job, side by side, once for the
exact engine and one window at a time for Euler, and reads them as
LaneFlows, the discounted flows and weak passage times of
floored (path, start, threshold) lanes, and RecordLows, the record lows of
the paths refracted at 0: the two readers of each engine's lane stepper,
path_engine.event_steps or strategy_engine.euler_steps.  Values are one
lane run over LaneFlows and nu one reduction of RecordLows, each to the
moment sums of which _estimate builds every McEstimate.  A
passage that does not occur before the horizon weighs exp(-q * inf) = 0.

Every estimate is controlled by a martingale.  Each lane of LaneFlows and
each passage of RecordLows carries c, the discounted compensated driver
integral e^{-qt} (dX_t - mu dt) up to its stop, mu = E[X_1]
(levy_model.mean_drift): mean 0 by optional stopping at a bounded time, and
tied to every payoff, since a fall in X forces injections and a rise pays
dividends (Henderson and Glynn, Math. Oper. Res. 2002).  _estimate
regresses each point's g on c after the chunk-order reduction.

The threshold search has one form, on common random numbers: the path
refracted at b and started at b is the path refracted at 0 and started at
0, shifted up by b, so the record lows of one path give nu at every grid
point, summed path by path down to the deepest one.  The terms fall path
by path in b, and nu at one threshold is the one-point curve.  Value
curves run as one job over paths x starts x thresholds: a batch draws once
on the main stream and once on the at-0 anchor substream and steps every
(x, b) point, each on its draw, in one lane pass over both, so one set
of workers serves a curve set.  A run steps at most BLOCK_LANES lanes at
once, in blocks of points; an Euler block draws the windows of its batch
anew, so a run holds one block's lanes and one window at a time.

Paths come in fixed chunks of CHUNK paths.  A worker call reads a batch
of at most BATCH contiguous chunk draws as one lane set (BATCH // 2 chunks
per stream of a value job), and a run has a multiple of w = min(threads,
CPUs, chunks) batches where the chunks allow, so every worker computes as
much: the calling process is worker 0, and w - 1 forked processes are the
others.
Each estimator splits its readings back into chunks and returns one
partial per chunk; the partials are combined by a fixed-order pairwise
tree in chunk order, so results are bit-identical for any batching and any
worker count.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .levy_model import (
    EventColumns,
    InvalidParameter,
    JumpDiffusionSpec,
    TILE_KNOTS,
    RngStream,
    _require_draw,
    grid_windows,
    mean_drift,
    sample_path,
)
from . import path_engine
from .strategy_engine import (
    StrategyParams,
    _sum_down,
    euler_lane_flows,
    euler_record_lows,
)

CHUNK = 256
BATCH = 8  # most chunk draws one worker call reads as one lane set
BLOCK_LANES = 2 ** 16  # (point, path) lanes a value batch steps at once
NU_BLOCK_BYTES = 2 ** 20  # bytes of one (path, grid point) table of _nu_sums
CONTROL_RTOL = 1e-9  # Var(c) over mean(c^2) below which the control is constant
V0_TAG_OFFSET = 7919  # substream tag shift for the internal value-at-zero run


class NoCrossing(RuntimeError):
    """The discounted-passage curve never crosses the 1/beta level."""


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


@dataclass(frozen=True)
class BstarResult:
    bstar_hat: float
    interval_low: float
    interval_high: float
    curve: NuCurve


def _tree_reduce(partials):
    """Fixed-order pairwise sum of tuples of arrays."""
    items = list(partials)
    if not items:
        raise ValueError("no partial results")
    while len(items) > 1:
        odd = items[-1:] if len(items) % 2 else []
        items = [tuple(a + b for a, b in zip(x, y)) for x, y in zip(items[::2], items[1::2])] + odd
    return items[0]


def _batches(n: int, threads: int, draws: int = 1):
    """The (ci, m) chunks of n paths, each drawn on draws streams, in
    contiguous batches of at most BATCH // draws chunks (one at least), as
    few as that allows, rounded up to a multiple of w = min(threads, chunks)
    where the chunks allow, so that the w workers compute as much.  Batch
    sizes differ by one chunk at most."""
    chunks = [(ci, min(CHUNK, n - ci * CHUNK)) for ci in range((n + CHUNK - 1) // CHUNK)]
    cap, w = max(1, BATCH // max(1, draws)), max(1, min(threads, len(chunks)))
    nb = min(-(-max(-(-len(chunks) // cap), w) // w) * w, len(chunks))
    return [chunks[len(chunks) * i // nb:len(chunks) * (i + 1) // nb] for i in range(nb)]


def _chunk_rows(chunks):
    """The rows (paths) of each chunk of a batch read as one lane set."""
    ends = np.cumsum([m for _, m in chunks])
    return [slice(e - m, e) for (_, m), e in zip(chunks, ends.tolist())]


def _require_run(n: int, threads: int):
    if n < 1:
        raise InvalidParameter("n", "path count must be >= 1")
    if threads < 1:
        raise InvalidParameter("threads", "thread count must be >= 1")


def _run_chunks(n: int, worker, threads: int, draws: int = 1):
    """worker(batch) returns one partial per chunk of the batch, which it
    draws on draws streams; the partials are reduced in chunk order, so no
    byte depends on the batching or the worker count.  w = min(threads,
    CPUs, batches) workers share the batches, worker i computing batches
    i, i + w, ...: worker 0 is this process, and each of the w - 1 forked
    ones sends its partials, or its error, back as one pickle on its pipe.
    Before it forks, this process hands its free heap back to the system
    (glibc's malloc_trim), so the forks do not copy the heap it kept from
    its last share.  All are reaped before this returns or raises, those
    not heard from killed first; the error raised is this process's own,
    else that of the lowest failed worker.  Without os.fork w is 1.  n and
    threads are at least 1."""
    _require_run(n, threads)
    threads = min(threads, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
    batches = _batches(n, threads, draws)
    w = min(threads, len(batches)) if hasattr(os, "fork") else 1
    if w > 1:
        import ctypes
        try:
            ctypes.CDLL(None).malloc_trim(0)
        except (OSError, AttributeError):  # no glibc: the forks copy what they touch
            pass
    procs, outs, codes = [], [], []
    try:
        for i in range(1, w):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    with os.fdopen(wr, "wb") as pipe:
                        try:
                            out = [worker(batch) for batch in batches[i::w]]
                            pipe.write(b"+" + pickle.dumps(out))
                        except BaseException as err:  # an interrupt too: the parent raises it
                            pipe.write(b"!" + pickle.dumps(err))
                finally:
                    os._exit(0)
            os.close(wr)
            procs.append((pid, os.fdopen(r, "rb")))
        parts = [[worker(batch) for batch in batches[::w]]]
        for _, pipe in procs:
            outs.append(pipe.read())
            if outs[-1][:1] != b"+":
                break
    finally:
        for k, (pid, pipe) in enumerate(procs):
            pipe.close()
            if k >= len(outs):  # not heard from, after a failure or an interrupt
                os.kill(pid, signal.SIGKILL)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for out, code in zip(outs, codes):
        if code or not out:
            raise RuntimeError("a worker ended without a result: %s" % (
                signal.Signals(-code).name if code < 0 else "exit code %d" % code))
        if out[:1] == b"!":
            raise pickle.loads(out[1:])
    parts += [pickle.loads(out[1:]) for out in outs]
    return _tree_reduce(p for j in range(len(batches)) for p in parts[j % w][j // w])


def _engine_for(spec: JumpDiffusionSpec, engine: str) -> str:
    if engine not in ("auto", "exact", "euler"):
        raise InvalidParameter("engine", "must be auto, exact, or euler")
    if engine == "auto":
        return "exact" if spec.sigma == 0.0 else "euler"
    if engine == "exact" and spec.sigma != 0.0:
        raise InvalidParameter("engine", "the exact engine needs sigma = 0")
    return engine


class _Readers(NamedTuple):
    lane_flows: Callable  # (x, b, spliced, path=) -> path_engine.LaneFlows
    record_lows: Callable  # (depth) -> path_engine.RecordLows


def _require_steps(eng, k):
    if eng == "euler" and k < 1:
        raise InvalidParameter("k", "the Euler engine needs a positive step count")


def _chunk_readers(spec, params, horizon, k, eng, streams, chunks) -> _Readers:
    """The paths of a batch of (ci, m) chunks on each stream s of a job,
    chunk ci's m paths of X - x0 drawn on s.for_path(ci), stream by stream
    and in chunk order: the columns of one EventColumns for the exact
    engine, laid side by side, and the rows of an (S * M, k) increment
    matrix for Euler, drawn window by window (_batch_windows); draw s is
    paths s * M to s * M + M.  Returns the two readings of the lane set:
    the LaneFlows of floored (start, threshold) lanes, each on the path of
    the lane set it is given, and the RecordLows of the paths refracted at
    0.  An exact reader holds the draws alive for as long as it is kept;
    each Euler reading draws the windows of the draws it reads anew and
    holds one at a time."""
    per, mu = _chunk_rows(chunks)[-1].stop, mean_drift(spec)  # per: paths per draw
    m = len(streams) * per
    if eng == "exact":
        columns = EventColumns.side_by_side((sample_path(spec, horizon, mi, s.for_path(ci))
                                             for s in streams for ci, mi in chunks), m)
        return _Readers(partial(path_engine.floored_lane_sweep, columns, alpha=params.alpha,
                                q=params.q, mu=mu),
                        partial(path_engine.refracted_record_lows, columns, params.alpha,
                                params.q, mu))
    _require_steps(eng, k)
    _require_draw(horizon, m)  # before any reading, which draws as it steps
    dt = horizon / k

    def lane_flows(x, b, spliced, path):
        s0, s1 = path.min() // per, path.max() // per + 1  # draw only the draws the lanes read
        return euler_lane_flows(_batch_windows(spec, horizon, k, streams[s0:s1], chunks),
                                ((s1 - s0) * per, k), x, b, spliced, params.alpha, dt, params.q,
                                mu, path - s0 * per)

    def record_lows(depth=math.inf):
        return euler_record_lows(_batch_windows(spec, horizon, k, streams, chunks), (m, k),
                                 params.alpha, dt, params.q, mu, depth)

    return _Readers(lane_flows, record_lows)


def _batch_windows(spec, horizon, k, streams, chunks):
    """The windows of a batch's (S * M, k) increment matrix in order, each
    an (S * M, w) view of one buffer that the next overwrites: chunk ci's m
    rows of draw s are the next window of levy_model.grid_windows on
    s.for_path(ci), so each chunk's draw is read once, in its stream
    order."""
    rows = _chunk_rows(chunks)
    m = rows[-1].stop
    draws = [(slice(s * m + r.start, s * m + r.stop),
              grid_windows(spec, horizon, k, mi, stream.for_path(ci)))
             for s, stream in enumerate(streams) for (ci, mi), r in zip(chunks, rows)]
    # a row is a cache line longer than a window, so no column is read at
    # a power-of-two stride
    buf = np.empty((len(streams) * m, min(TILE_KNOTS, k) + 8))
    for i0 in range(0, k, TILE_KNOTS):
        incs = buf[:, :min(TILE_KNOTS, k - i0)]
        for r, window in draws:
            incs[r] = next(window)
        yield incs


# threshold-free translated sweep --------------------------------------------

def _nu_sums(lows, part, m, bgrid_pos, q):
    """The (moment sums, censored count) per grid point b of the m paths of
    the episodes part (a slice) of lows, those of _run_sums: a = w = e^{-q
    kappa(b)} and d = 0, with c the control at kappa(b), at the horizon (w =
    0) on a path that does not pass below -b, read in grid blocks of
    NU_BLOCK_BYTES tables: a point's sums run down its own column.  Without
    a drift episode w is e^{-q t0} at every point an episode covers, so the
    five terms are made once per episode and repeated into the tables."""
    lo, hi, t0, invrate, c = (getattr(lows, f)[part] for f in ("lo", "hi", "t0", "invrate", "c"))
    sums, jumps = np.zeros((len(bgrid_pos), 9)), not invrate.any()
    # a path is censored from the top of its last episode (t0 = inf) down
    tops = np.searchsorted(bgrid_pos, -np.minimum(hi[t0 == math.inf], 0.0))
    cens = np.cumsum(np.bincount(tops, minlength=len(bgrid_pos) + 1)[:-1], dtype=float)
    if jumps:
        w = np.exp(-q * t0)
        c = c + lows.drain * w
        terms = (w, w * w, c, c * c, w * c)
    step = max(1, NU_BLOCK_BYTES // (8 * m))
    for g in range(0, len(bgrid_pos), step):
        grid = bgrid_pos[g:g + step]
        # a path's episodes cover the thresholds [0, inf) in turn, episode k
        # those in [-min(hi, 0), -lo): grid points j0..j1-1 of the block
        j0 = np.searchsorted(grid, -np.minimum(hi, 0.0))
        n = np.maximum(np.searchsorted(grid, -lo) - j0, 0)
        # (path, point) tables of the covering episode's terms, summed path by path
        if jumps:
            tables = (np.repeat(a, n).reshape(m, len(grid)) for a in terms)
        else:
            tt, hh, rr, cc = (np.repeat(a, n).reshape(m, len(grid)) for a in (t0, hi, invrate, c))
            w = np.exp(-q * (tt + (hh - (-grid)) * rr))
            cc += lows.drain * w
            tables = (w, w * w, cc, cc * cc, w * cc)
        sums[g:g + step, [0, 1, 5, 6, 7]] = np.transpose([_sum_down(t) for t in tables])
    return sums, cens


def _nu_chunk(draw, params, bgrid_pos, stream, chunks):
    # one sweep reads the batch, down to the deepest point; the lows are
    # path-major, so each chunk's episodes are one run of them, reduced alone
    lows = draw((stream,), chunks).record_lows(np.max(bgrid_pos, initial=-math.inf))
    rows = _chunk_rows(chunks)
    cut = np.searchsorted(lows.path, [r.start for r in rows] + [rows[-1].stop]).tolist()
    return [_nu_sums(lows, slice(a, z), r.stop - r.start, bgrid_pos, params.q)
            for a, z, r in zip(cut, cut[1:], rows)]


def nu_curve(params: StrategyParams, spec: JumpDiffusionSpec, bgrid,
             horizon: float, k: int, n: int, stream: RngStream,
             engine: str = "auto", threads: int = 1) -> NuCurve:
    """Discounted strict-passage transform over a threshold grid.

    One sweep of record lows per path serves every grid point, each point
    controlled by _estimate, so a one-point grid gives the same value as
    that point of any grid on the same stream.  The grid is non-empty,
    finite and strictly increasing.  Thresholds below 0 are not simulated:
    the transform is 1 there by convention.
    """
    bgrid = np.asarray(bgrid, dtype=float)
    if not bgrid.size or not np.all(np.isfinite(bgrid)):
        raise InvalidParameter("grid", "threshold grid must be non-empty and finite")
    if np.any(np.diff(bgrid) <= 0):
        raise InvalidParameter("grid", "threshold grid must be strictly increasing")
    pos, eng = bgrid >= 0.0, _engine_for(spec, engine)
    curve = np.tile([1.0, 0.0, 0.0], (bgrid.size, 1))
    if not pos.any():  # nothing to simulate: no draw, but the checks of one
        _require_run(n, threads)
        _require_draw(horizon, n)
        _require_steps(eng, k)
        return NuCurve(bgrid, *curve.T.copy())
    draw = partial(_chunk_readers, spec, params, horizon, k, eng)
    sums, cens = _run_chunks(n, partial(_nu_chunk, draw, params, bgrid[pos], stream), threads)
    for i, est in zip(np.flatnonzero(pos), map(partial(_estimate, n=n), sums.tolist(), cens)):
        curve[i] = est.mean, est.std_error, est.censored_fraction
    return NuCurve(bgrid, *curve.T.copy())


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
    return BstarResult(bstar_hat=bstar, interval_low=ilow, interval_high=ihigh, curve=curve)


# value lane runs -----------------------------------------------------------
#
# A run reads the LaneFlows of its (x, b, spliced, draw) points and, per
# point and per chunk of a batch, sums a, a^2, d, d^2, a*d and, with the
# lane's control c, c, c^2, a*c and d*c into a (J, 9) array, with a (J,)
# count of censored paths: a is the discounted dividends minus
# beta-weighted injections up to the stop and d the discount at the stop.
# _estimate reads every estimate, of a + cd * d controlled by c, off those
# sums.  A value job is one run on two draws: the positive starts read the
# main stream's and the at-0 anchors their substream's.

def _value_terms(params, fl, spliced):
    # spliced points stop at the first weak visit to 0; exp(-q * inf) = 0
    stop = np.where(spliced[:, None], fl.t_weak, math.inf)
    return (fl.dl - params.beta * fl.dr, np.exp(-params.q * stop),
            spliced[:, None] & (stop == math.inf))


def _run_sums(draw, params, streams, points, chunks):
    """The (moment sums, censored counts) of every (x, b, spliced, s) point,
    on the M paths drawn on streams[s], per chunk: lane (j, i) runs path
    s_j * M + i of the lane set.  Points step in blocks of at most
    BLOCK_LANES lanes (and at least one point), one pass each; lanes are
    independent, so the blocking never changes a byte, and a run without
    points draws nothing.  An Euler block draws its windows anew, so a run
    holds one block's lanes and one window at a time."""
    rows = _chunk_rows(chunks)
    m = rows[-1].stop
    sums, cens = np.zeros((len(rows), len(points), 9)), np.zeros((len(rows), len(points)))
    lane_flows = draw(streams, chunks).lane_flows if points else None
    step = max(1, BLOCK_LANES // m)
    for j in range(0, len(points), step):
        x, b, spliced, s = (np.array(c) for c in zip(*points[j:j + step]))
        # the block's flows and terms are freed before the next block steps
        _block_sums(params, lane_flows(x, b, spliced, path=s[:, None] * m + np.arange(m)),
                    spliced, rows, sums[:, j:j + step], cens[:, j:j + step])
    return list(zip(sums, cens))


def _block_sums(params, fl, spliced, rows, sums, cens):
    """Write the moment sums and censored counts of a block's LaneFlows fl
    into sums and cens, (chunks, points, 9) and (chunks, points): chunk ci
    sums the paths rows[ci] of each point."""
    a, d, censored = _value_terms(params, fl, spliced)
    c = fl.c
    moments = (a, a * a, d, d * d, a * d, c, c * c, a * c, d * c)
    for ci, r in enumerate(rows):
        # each point's sums reduce along its own contiguous row
        sums[ci] = np.stack([t[:, r].sum(axis=1) for t in moments], axis=1)
        cens[ci] = censored[:, r].sum(axis=1)


def _estimate(sums, cens, n, cd=0.0, cd_se=0.0):
    """The estimate of g = a + cd * d from one point's moment sums,
    controlled by the lanes' c, with the variance of a frozen cd of
    standard error cd_se added.

    The control has mean 0, so g - theta * c has g's mean for any theta;
    theta = Cov(g, c) / Var(c) minimizes its variance, which is then
    Var(g) - theta * Cov(g, c) on n - 2 degrees of freedom.  theta is
    solved here, from the sums reduced in chunk order, so no byte depends
    on the batching or the worker count.  A spliced value passes its
    anchor's estimate as cd and cd_se: its SE is sqrt(Var(g - theta * c) /
    n + (mean d * cd_se)^2), the anchor frozen, with the anchor's own
    controlled SE.  Without a usable control theta is 0 and the estimate is
    the plain mean with its n - 1 variance, as before the control: when
    n < 3, or when c takes one value on every path, as on a model without
    noise (c = 0) or when every path stops at one time before any jump.
    Then the sample Var(c) and Cov(g, c) are rounding noise, so a Var(c)
    at most CONTROL_RTOL of the mean of c^2 counts as 0."""
    s1, s2, sd1, sd2, cross, c1, c2, ac, dc = sums
    d_mean = sd1 / n
    g1 = (s1 + sd1 * cd) / n
    g2 = (s2 + 2 * cd * cross + cd * cd * sd2) / n
    mean, var = s1 / n + d_mean * cd, max(g2 - g1 * g1, 0.0) * n / max(n - 1, 1)
    c_mean = c1 / n
    c_var = c2 / n - c_mean * c_mean
    if n >= 3 and c_var > CONTROL_RTOL * c2 / n:
        cov = (ac + cd * dc) / n - g1 * c_mean
        theta = cov / c_var
        mean -= theta * c_mean
        var = max(g2 - g1 * g1 - theta * cov, 0.0) * n / (n - 2)
    se = math.sqrt(var / n + (d_mean * cd_se) ** 2)
    return McEstimate(mean=float(mean), std_error=float(se),
                      censored_fraction=float(cens) / n)


# value estimation ----------------------------------------------------------

def _value_job(xs, bs, params, spec, horizon, k, n, stream, spliced, eng, threads):
    """Finite-horizon estimates at every (x, b) point in one chunked job."""
    points = list(zip(xs, bs))
    starts = list(dict.fromkeys((x, b, spliced) for x, b in points if x > 0))
    anchors = list(dict.fromkeys((0.0, b, False) for x, b in points if x <= 0 or spliced))
    anchor_stream = stream.with_tag(stream.tag + V0_TAG_OFFSET)
    runs = [(s, pts) for s, pts in ((stream, starts), (anchor_stream, anchors)) if pts]
    worker = partial(_run_sums, partial(_chunk_readers, spec, params, horizon, k, eng),
                     params, tuple(s for s, _ in runs),
                     [p + (d,) for d, (_, pts) in enumerate(runs) for p in pts])
    acc, cens = _run_chunks(n, worker, threads, len(runs))
    ns = len(starts)
    v0 = {b: _estimate(s, c, n) for (_, b, _), s, c in zip(anchors, acc[ns:], cens[ns:])}
    at = {(x, b): _estimate(s, c, n, v0[b].mean, v0[b].std_error) if spliced
          else _estimate(s, c, n) for (x, b, _), s, c in zip(starts, acc, cens)}
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
    the perpetual one less the discounted tail after it.  Every threshold
    is at least 0 (inf sets none) and every start finite.
    """
    xs, bs = (a.ravel().tolist() for a in np.broadcast_arrays(
        np.asarray(xs, dtype=float), np.asarray(b, dtype=float)))
    if not all(t >= 0 for t in bs):
        raise InvalidParameter("b", "threshold must be >= 0 (inf sets none)")
    if not all(map(math.isfinite, xs)):
        raise InvalidParameter("x", "every start must be finite")
    eng = _engine_for(spec, engine)
    if method not in ("direct", "spliced"):
        raise InvalidParameter("method", "method must be direct or spliced")
    ests = _value_job(xs, bs, params, spec, horizon, k, n, stream,
                      method == "spliced", eng, threads)
    # a grid's -0.0 start is reported as 0
    return [(0.0 if x == 0 else x, est) for x, est in zip(xs, ests)]
