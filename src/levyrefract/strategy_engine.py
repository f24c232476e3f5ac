"""Controlled surplus trajectories under the threshold dividend strategy.

A strategy is (b, alpha, beta, q): dividends are paid at the cap rate alpha
while the controlled surplus exceeds b, and capital is injected to keep it
non-negative.  This module reads draws and never samples: each engine
takes the draw of X - x0 of its own levy_model sampler, sample_path or
grid_increments, and its starts apart.  The exact engine sweeps with
path_engine.trajectory_table: apply_strategy_exact returns the floored
SegmentTable of one EventColumns draw per start, one row per segment with
the lumps paid at its start, which the property oracle and sample-path
(ControlledTrajectory.from_exact) read through path_engine.read_segments.
The Monte Carlo estimators run the flows reader of the same lane stepper
instead.  The Euler engine runs the discrete three-branch recursion on the
rows of an increment matrix (euler_steps), read window by window as
levy_model.grid_windows draws it, and its two readers give the estimators
what the two readers of path_engine.event_steps give them on event paths:
euler_lane_flows the LaneFlows of floored lanes, and euler_record_lows the
RecordLows of the paths refracted at 0.  None of them needs the whole
matrix, and a whole matrix is one window.

euler_steps advances its lanes BLOCK_KNOTS knots at a time and steps only
the lanes whose block its certificate leaves open; the readers take whole
blocks, and every reading equals that of one-knot steps bit for bit,
whatever the windows.
euler_lane_flows shares the lane bookkeeping of the exact flows reader
(path_engine.Lanes): a spliced lane leaves at a block edge once both its
passage times are known, in drops that path_engine.drop_due allows.  The
lane arrays stay within the BLOCK_LANES lanes of an estimation block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levy_model import EventColumns, InvalidParameter
from . import path_engine
from .path_engine import BRANCH_ABOVE, BRANCH_FLOOR, BRANCH_INTERIOR, SegmentTable

BLOCK_KNOTS = 16  # knots the Euler recursion and its readers advance at once


@dataclass(frozen=True)
class StrategyParams:
    b: float
    alpha: float  # dividend rate cap, math.inf allowed
    beta: float   # injection unit cost, > 1 and finite
    q: float      # discount rate, > 0

    def __post_init__(self):
        if not (self.b >= 0):
            raise InvalidParameter("b", "threshold must be >= 0")
        if not (self.alpha > 0):
            raise InvalidParameter("alpha", "rate cap must be positive")
        if not (1 < self.beta < math.inf):
            raise InvalidParameter("beta", "injection cost must exceed 1 and be finite")
        if not (self.q > 0) or self.q == math.inf:
            raise InvalidParameter("q", "discount rate must be positive and finite")


@dataclass(frozen=True)
class ControlledTrajectory:
    """Sampled controlled surplus with its cumulative dividend/injection flows.

    times holds the canonical sample grid (segment knots for the exact
    engine, the uniform step grid for Euler) and driver the uncontrolled
    surplus x + X on it.  branch records which regime produced each point.
    """

    times: np.ndarray
    z: np.ndarray
    l: np.ndarray
    r: np.ndarray
    branch: np.ndarray
    driver: np.ndarray

    @classmethod
    def from_exact(cls, columns: EventColumns, x, table: SegmentTable) -> "ControlledTrajectory":
        """Sample the exact trajectory table of the one path of columns, and
        that path from x, on the segment knots and the (finite) horizon."""
        times = np.append(table.seg_t, table.horizon)
        branch = np.append(table.seg_branch, table.seg_branch[-1])
        (got,), driver = path_engine.read_segments(
            [table], np.zeros(times.size, dtype=int), times, (columns, x))
        return cls(
            times=times,
            z=got.z,
            l=got.l,
            r=got.r,
            branch=branch,
            driver=driver,
        )


def apply_strategy_exact(columns: EventColumns, x, params: StrategyParams) -> list:
    """Run the threshold strategy along the event paths of columns, exactly,
    from each start of x (one or a sequence): one floored SegmentTable per
    start from one sweep, refracted at rate alpha above b and reflected at 0.

    alpha = inf is the two-sided reflection on [0, b] with lump dividends.
    For every alpha the paths stick at b when the draw's drift lies in
    [0, alpha] (Case 2, levy_model.is_case2).
    """
    return path_engine.trajectory_table(columns, x, params.b, params.alpha, True)


def _sum_down(a: np.ndarray) -> np.ndarray:
    """The columns of a summed down their rows in order, (a[0] + a[1]) + ...
    np.add.reduce adds row after row down the slow axis 0 of two or more
    C-contiguous columns, but sums a fast axis pairwise."""
    if a.shape[1] < 2:
        return np.cumsum(a, axis=0)[-1]
    return np.add.reduce(np.ascontiguousarray(a), axis=0)


def _certify(d, x, b, lhat, rhat, row, floor, ramp):
    """(step, above): the lanes a block of X-hat (d, a row per knot) steps,
    and those that pay at every knot.  While the accounts carry over,
    s = ((x + X-hat_j) - L-hat) + R-hat is monotone in X-hat_j, rounding
    included, so a floored lane with s in (0, b] at its row's extremes of
    X-hat carries over, exactly.  A paying lane's s_j is x + X-hat_j - L-hat
    - ramp[j] + R-hat (ramp[j] = j alpha dt) up to (w + 32) ulps of its
    terms' magnitudes, within big for blocks under 8,000 knots: a lane whose
    least such s clears b by big pays at every knot.  ramp is None when
    alpha is infinite."""
    w, dmin, dmax = len(d), d.min(0), d.max(0)
    todo = np.ones(row.size, dtype=bool)
    if floor:
        lo, hi = (np.add(x, f[row]) - lhat + rhat for f in (dmin, dmax))
        todo = ~((lo > 0.0) & (hi <= b))
    if ramp is None:
        return todo.nonzero()[0], np.empty(0, dtype=int)
    big = (np.abs(x) + lhat + rhat + np.maximum(-dmin, dmax)[row] + ramp[w, 0]) * 2.0 ** -40
    low = np.add(x, (d - ramp[:w]).min(0)[row]) - lhat + rhat
    above = (low - b > big).nonzero()[0]
    todo[above] = False
    return todo.nonzero()[0], above


def _step(out, step, b, lhat, rhat, floor, pay):
    """Step the lanes step knot by knot from out[0] = x + X-hat: out gets
    their states, dividend and injection steps, lhat and rhat their ends."""
    bs, lh, rh = b[step], lhat[step], rhat[step]
    s, newr, flag = np.empty(step.size), np.empty(step.size), np.empty(step.size, dtype=bool)
    if not floor:
        out[2] = 0.0
    # max(s - b, 0) is s - b where s > b: a sum of floats has the sign of its exact value
    for state, dl, dr in zip(*out):
        state -= lh
        s = np.add(state, rh, out=s) if floor else state
        if pay == math.inf:
            np.maximum(np.subtract(s, bs, out=dl), 0.0, out=dl)
        else:
            np.multiply(np.greater(s, bs, out=flag), pay, out=dl)
        if floor:
            # R-hat rises to -state where s < 0, dr = -s (a tie may give -0.0)
            np.maximum(rh, np.negative(state, out=dr), out=newr)
            np.subtract(newr, rh, out=dr)
            rh, newr = newr, rh
        lh += dl
    lhat[step], rhat[step] = lh, rh


def euler_steps(x, windows, shape, b, alpha: float, dt: float, floor: bool, path=None):
    """Three-branch Euler recursion, vectorised over the rows of a driver's
    increments and advanced BLOCK_KNOTS knots at a time.

    windows yields the (m, k) increment matrix, shape, in windows side by
    side: (m, w) arrays, each but the last a whole number of BLOCK_KNOTS
    steps; a matrix is one window.  x and b are scalars or (J, 1) arrays;
    they broadcast against the rows, so one pass serves every (x, b) point:
    lane (j, i), in row-major order, runs row i from x[j] with threshold
    b[j].  The centred driver X-hat sits at knots 0..k-1 (a leading 0, then
    a running sum of the increments); the dividend account L-hat starts at
    0 and the injection account R-hat at the top-up max(0, -x), or 0
    without floor.  At each step j = 1..k-1 the state x + X-hat_j - L-hat
    is corrected to s = state + R-hat and takes one branch: s < 0 tops
    R-hat up to -state (only when floor is set); s > b pays one dividend
    step, alpha * dt, or s - b when alpha is infinite; otherwise both
    accounts carry over.  Ties fall to the carry-over branch.

    Each block is certified lane by lane (_certify): a floored lane whose s
    stays in (0, b] carries over, and with finite alpha one whose s stays
    above b pays alpha * dt at every knot.  The other lanes step knot by
    knot (_step).  Per block of w knots, the blocks of range(1, k,
    BLOCK_KNOTS), the generator yields (incs, lanes, state, dl, dr, above):
    the block's (m, w) increments, read in place, and the stepped lanes'
    flat indices and states (before R-hat), dividend and injection steps,
    (w, len(lanes)) in one buffer overwritten at the next block, and the
    lanes that pay at every knot.

    A reader may drop lanes by sending (keep, path) in place of next():
    keep masks the current lanes, and path gives the row of increments of
    each lane kept.  Given path, a (J, m) or 1-D array of rows, lane l reads
    row path[l] from the start.
    """
    m, k = shape
    rows = np.arange(m) if path is None else path
    lane_shape = np.broadcast_shapes(np.shape(x), np.shape(b), np.shape(rows))
    row, x, b = (np.broadcast_to(a, lane_shape).reshape(-1) for a in (rows, x, b))
    lhat, rhat = np.zeros(row.size), np.where(floor & (x < 0.0), -x, 0.0)
    pay, buf = alpha * dt, np.empty(0)
    ramp = pay * np.arange(BLOCK_KNOTS + 1)[:, None] if alpha < math.inf else None
    xhat = np.empty((min(BLOCK_KNOTS, k) + 1, m))  # over the block, row 0 its left knot
    xhat[0] = -0.0  # -0.0 + a == a bit for bit
    i0 = 0  # the window's first step is to knot i0 + 1
    for incs in windows:
        if i0 % BLOCK_KNOTS:
            raise ValueError("a window before the last must hold whole blocks")
        for j in range(0, min(incs.shape[1], k - 1 - i0), BLOCK_KNOTS):
            block = incs[:, j:min(j + BLOCK_KNOTS, k - 1 - i0)]
            w = block.shape[1]
            d = xhat[:w + 1]
            for r in range(w):
                np.add(d[r], block[:, r], out=d[r + 1])
            d, xhat[0] = d[1:], d[w]
            step, above = _certify(d, x, b, lhat, rhat, row, floor, ramp)
            paid = lhat[above]
            for _ in range(w):
                paid += pay
            lhat[above] = paid
            if buf.size < 3 * w * step.size:
                buf = np.empty(3 * BLOCK_KNOTS * step.size)
            out = buf[:3 * w * step.size].reshape(3, w, step.size)
            d.take(row[step], axis=1, out=out[0])
            out[0] += x[step]
            _step(out, step, b, lhat, rhat, floor, pay)
            sent = yield block, step, *out, above
            if sent is not None:
                keep, row = sent
                x, b, lhat, rhat = x[keep], b[keep], lhat[keep], rhat[keep]
                row = np.reshape(row, -1)
        i0 += incs.shape[1]


def euler_lane_flows(windows, shape, x, b, spliced, alpha: float, dt: float, q: float,
                     mu: float, path) -> path_engine.LaneFlows:
    """The floored recursion on every (start, threshold) lane at once, read
    as path_engine.floored_lane_sweep reads the exact lane stepper.

    windows yields the (m, k) increment matrix, shape, as to euler_steps,
    each window read once, in turn.  Lane (j, i) runs row path[j, i] of the
    increments for the (J, m) array path, from x[j] with threshold b[j]; x,
    b and spliced have length J, and each field has shape (J, m).  Step j
    is paid at its knot time j * dt, discounted at exp(-q j dt), and it is
    the weak passage time (t_weak) when it holds the lane's first state at
    or below 0; math.inf when none does.  A start below 0 is topped up at
    time 0, undiscounted, and a start at or below 0 passes at time 0.  A
    spliced lane halts its flows at its weak passage, that step's flows
    included, and is done there.

    Each block is read at once: a passage is the first knot of a stepped
    lane that holds it, and a lane's discounted steps join its accounts in
    the order of the recursion, by one sum down the block (_sum_down).  The
    done lanes leave at a block edge by the rule of the exact flows reader
    (path_engine.Lanes), when path_engine.drop_due allows, and until
    then a stopped lane's accounts are put back after each block.

    The control c is the martingale transform sum over steps j up to the
    lane's stop of exp(-q t_{j-1}) (dX_{j-1} - mu dt), t_{j-1} = (j - 1)
    dt, discounted at the left knot: the weak passage of a halting lane,
    else the last knot.  Each increment has mean mu dt, as the binned jumps
    have the exact law, so c has mean 0, and a model without noise has c =
    0 exactly.  It is read at each stop off one running sum per row, one
    sum down each block.
    """
    x, b, spliced = (np.asarray(c)[:, None] for c in (x, b, spliced))
    lo, hi = path.min(), path.max() + 1  # step only the rows the lanes read
    path, per, k = path - lo, path.shape[1], shape[1]  # per: lanes per point
    lanes = path_engine.Lanes(path)
    dl, c, dr, weak, halt = (np.repeat(a, per) for a in (
        np.zeros(x.shape), np.zeros(x.shape), np.where(x < 0.0, -x, 0.0),
        np.where(x <= 0.0, 0.0, math.inf), spliced))
    # the weak passages still to come, and the lanes whose flows still run
    open_w = weak == math.inf
    live = ~halt | open_w
    nw, done = np.count_nonzero(open_w), np.count_nonzero(~live)
    # each row's control, row 0 at the last block
    ctl = np.zeros((min(BLOCK_KNOTS, k) + 1, hi - lo))
    steps = euler_steps(x, (incs[lo:hi] for incs in windows), (hi - lo, k), b, alpha, dt, True,
                        path)
    keep = None
    for j0 in range(1, k, BLOCK_KNOTS):
        block, at, state, step_l, step_r, above = steps.send(keep)
        keep, w = None, len(state)
        # the block's knot times, each discounted once: a step's at its knot and left knot
        t = dt * np.arange(j0 - 1, j0 + w)
        e = np.exp(-q * t)
        disc, w_left = e[1:], e[:-1]
        g = ctl[:w + 1]
        np.subtract(block.T, mu * dt, out=g[1:])
        g[1:] *= w_left[:, None]
        stopped = at[~live[at]]
        held = dl[stopped], dr[stopped]
        inj = (np.fmax.reduce(step_r, axis=0, initial=0.0) > 0.0).nonzero()[0]
        # the knots each stepped lane adds: a halting lane's stop at its weak passage
        upto = np.full(at.size, w)
        got = (np.fmin.reduce(state, axis=0, initial=math.inf) <= 0.0).nonzero()[0] if nw else inj[:0]
        got = got[open_w[at[got]]]
        if got.size:
            first, lane = (state[:, got] <= 0.0).argmax(0), at[got]
            weak[lane], open_w[lane], nw = t[1:][first], False, nw - got.size
            h = halt[lane]
            got, first, lane = got[h], first[h] + 1, lane[h]
            c[lane] = np.cumsum(g[:, lanes.path[lane]], axis=0)[first, np.arange(lane.size)]
            live[lane], upto[got], done = False, first, done + lane.size
        for acc, paid, sel in ((dl, step_l, slice(None)), (dr, step_r, inj)):
            paid = paid[:, sel]
            paid *= disc[:, None]
            part = (upto[sel] < w).nonzero()[0]
            if part.size:
                cut = paid[:, part]
                np.putmask(cut, np.arange(w)[:, None] >= upto[sel][part], 0.0)
                paid[:, part] = cut
            paid[0] += acc[at[sel]]  # (p_1 + acc) + p_2 + ...
            acc[at[sel]] = _sum_down(paid)
        dl[stopped], dr[stopped] = held
        above = above[live[above]]
        total = dl[above]
        for paid in (alpha * dt * disc).tolist() if above.size else ():
            total += paid
        dl[above] = total
        ctl[0] = _sum_down(g)
        if done and path_engine.drop_due(done, lanes.ids.size):
            kept = lanes.drop(~live, dl, dr, weak, c)
            dl, dr, weak, open_w, halt, live, c = (
                a[kept] for a in (dl, dr, weak, open_w, halt, live, c))
            if not lanes.ids.size:
                break
            done, keep = 0, (kept, lanes.path)
    np.putmask(c, live, ctl[0][lanes.path])  # lanes run to the last knot
    return lanes.flows(dl, dr, weak, c)


def euler_record_lows(windows, shape, alpha: float, dt: float, q: float, mu: float,
                      depth=math.inf) -> path_engine.RecordLows:
    """The record lows of the unfloored recursion refracted at 0 and started
    at 0, one path per row of the (m, k) increment matrix, shape, that
    windows yields as to euler_steps, as path_engine.refracted_record_lows
    reads the exact paths.

    Knot 0 is 0.  A knot below the minimum of the knots before it is a
    record: a jump episode from that minimum down to the knot, first reached
    at t0 = dt * knot (invrate 0).  A lane that pays at every knot of a
    block stays above 0, and a block whose stepped minimum stays at or above
    the running minimum adds no record.  The control at knot j is that of
    euler_lane_flows, sum over i < j of exp(-q t_i) (incs[i] - mu dt), in
    the order of a row's cumsum (drain 0).  The lanes below -depth leave at
    a block edge when path_engine.drop_due allows.
    """
    m, k = shape
    row, low = np.arange(m), np.zeros(m)  # each lane's row, and each row's low
    ctl = np.zeros((min(BLOCK_KNOTS, k) + 1, m))  # each row's control, row 0 at the last block
    recs, steps, keep = [], euler_steps(0.0, windows, shape, 0.0, alpha, dt, floor=False), None
    for j0 in range(1, k, BLOCK_KNOTS):
        block, at, state, _, _, _ = steps.send(keep)
        keep, w = None, len(state)
        g = ctl[:w + 1]
        np.subtract(block.T, mu * dt, out=g[1:])
        g[1:] *= np.exp(-q * (dt * np.arange(j0 - 1, j0 - 1 + w)))[:, None]
        new = np.flatnonzero(state.min(0, initial=math.inf) < low[row[at]])
        path = row[at[new]]
        mins = np.minimum.accumulate(np.vstack((low[path], state[:, new])), axis=0)
        step, col = np.nonzero(mins[1:] < mins[:-1])
        recs.append((path[col], dt * (j0 + step), mins[step + 1, col], mins[step, col],
                     np.cumsum(g[:, path], axis=0)[step + 1, col]))
        low[path] = mins[-1]
        ctl[0] = _sum_down(g)
        deep = low[row] < -depth
        if path_engine.drop_due(np.count_nonzero(deep), row.size):
            row = row[~deep]
            if not row.size:
                break
            keep = (~deep, row)
    recs.append((np.arange(m), np.full(m, math.inf), np.full(m, -math.inf), low, ctl[0]))
    path, t0, lo, hi, c = (np.concatenate(a) for a in zip(*recs))
    order = np.argsort(path, kind="stable")  # path-major, knots ascending
    return path_engine.RecordLows(path[order], lo[order], hi[order], t0[order],
                                  np.zeros(path.size), c[order])


def _floored_euler(x: float, params: StrategyParams, increments: np.ndarray,
                   dt: float):
    """(driver, Z, L-hat, R-hat, dividend steps) of the floored three-branch
    recursion, one row per row of increments, on knots 0..k-1: the matrix
    read as one window.

    L-hat accumulates the dividend steps, written a block at a time.  R-hat
    is read back as the running maximum of the negative part of the state,
    the driver less L-hat at the knot before: the reflection identity the
    top-up rule satisfies exactly.
    """
    m, k = increments.shape
    dl = np.zeros((m, k))
    steps = euler_steps(x, (increments,), (m, k), params.b, params.alpha, dt, floor=True)
    for j0, (_, at, _, dl_block, _, above) in zip(range(1, k, BLOCK_KNOTS), steps):
        dl[at, j0:j0 + len(dl_block)] = dl_block.T
        dl[above, j0:j0 + len(dl_block)] = params.alpha * dt
    lhat = np.cumsum(dl, axis=1)
    driver = x + np.concatenate(
        (np.zeros((m, 1)), np.cumsum(increments[:, :-1], axis=1)), axis=1)
    state = driver - np.pad(lhat[:, :-1], ((0, 0), (1, 0)))
    rhat = np.maximum.accumulate(np.where(state < 0.0, -state, 0.0), axis=1)
    return driver, driver - lhat + rhat, lhat, rhat, dl


def simulate_euler(x: float, params: StrategyParams, increments: np.ndarray,
                   dt: float) -> ControlledTrajectory:
    """One path of the floored three-branch recursion on one row of k
    increments, steps of length dt: the one-row case of _floored_euler.  A
    step is a top-up where R-hat grows."""
    k = increments.size
    driver, z, lhat, rhat, dl = _floored_euler(x, params, increments[None, :], dt)
    topped = np.diff(rhat[0], prepend=0.0) > 0
    branch = np.where(topped, BRANCH_FLOOR,
                      np.where(dl[0] > 0, BRANCH_ABOVE, BRANCH_INTERIOR))
    return ControlledTrajectory(
        times=np.arange(k) * dt,
        z=z[0],
        l=lhat[0],
        r=rhat[0],
        branch=branch,
        driver=driver[0],
    )
