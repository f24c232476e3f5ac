"""Controlled surplus trajectories under the threshold dividend strategy.

A strategy is (b, alpha, beta, q): dividends are paid at the cap rate alpha
while the controlled surplus exceeds b, and capital is injected to keep it
non-negative.  This module reads draws and never samples: each engine
takes the one draw format of levy_model.sample_path.  The exact engine
delegates to path_engine's floored transform: apply_strategy_exact returns
the SegmentTable of the swept paths of one EventColumns draw, which the
property oracle, sample-path (ControlledTrajectory.from_exact) and
euler_exact_gap read through path_engine.read_segments.  The Monte Carlo
estimators run the flows reader of the same lane stepper instead.  The
Euler engine runs the discrete three-branch recursion on the rows of an
increment matrix (euler_steps), and its two readers give the estimators
what the two readers of path_engine.event_steps give them on event paths:
euler_lane_flows the LaneFlows of floored lanes, and euler_record_lows the
RecordLows of the paths refracted at 0.

euler_lane_flows shares the lane bookkeeping of the exact flows reader
(path_engine.Lanes): a spliced lane leaves the recursion once both its
passage times are known, in drops of at least 1/8 of the lanes.
Direct-method points and the at-0 anchors never stop, so they gain only
from the calls a step skips once no lane has an open passage.  The lane
arrays stay within the BLOCK_LANES lanes of an estimation block.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .levy_model import EventColumns, InvalidParameter
from . import path_engine
from .path_engine import BRANCH_ABOVE, BRANCH_FLOOR, BRANCH_INTERIOR, SegmentTable

NU_BLOCK_STEPS = 512  # knots whose running minima euler_record_lows holds at once


@dataclass(frozen=True)
class StrategyParams:
    b: float
    alpha: float  # dividend rate cap, math.inf allowed
    beta: float   # injection unit cost, > 1
    q: float      # discount rate, > 0

    def __post_init__(self):
        if not (self.b >= 0):
            raise InvalidParameter("b", "threshold must be >= 0")
        if not (self.alpha > 0):
            raise InvalidParameter("alpha", "rate cap must be positive")
        if not (self.beta > 1):
            raise InvalidParameter("beta", "injection cost must exceed 1")
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
    def from_exact(cls, columns: EventColumns, table: SegmentTable) -> "ControlledTrajectory":
        """Sample the exact trajectory table of the one path of columns, and
        that path, on the segment knots and the (finite) horizon."""
        times = np.append(table.seg_t, table.horizon)
        branch = np.append(table.seg_branch, table.seg_branch[-1])
        (got,), driver = path_engine.read_segments(
            [table], np.zeros(times.size, dtype=int), times, columns)
        return cls(
            times=times,
            z=got.z,
            l=got.l,
            r=got.r,
            branch=branch,
            driver=driver,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,Z,L,R,branch\n")
        for row in zip(self.times, self.z, self.l, self.r, self.branch):
            buf.write("%.17g,%.17g,%.17g,%.17g,%d\n" % row)
        return buf.getvalue()


def apply_strategy_exact(columns: EventColumns, params: StrategyParams) -> SegmentTable:
    """Run the threshold strategy along the event paths of columns, exactly:
    the swept floored trajectories, refracted at rate alpha above b and
    reflected at 0.

    alpha = inf is the two-sided reflection on [0, b] with lump dividends.
    For every alpha the paths stick at b when the draw's drift lies in
    [0, alpha] (Case 2, levy_model.is_case2).
    """
    return path_engine.refracted_reflected_exact(columns, params.b, params.alpha)


def euler_steps(x, increments: np.ndarray, b, alpha: float, dt: float,
                floor: bool):
    """Three-branch Euler recursion, vectorised over the rows of increments.

    increments is an (m, k) matrix of driver steps.  x and b are scalars or
    (J, 1) arrays; they broadcast against the rows, so one pass serves every
    (x, b) point and each yielded array has shape (J, m).  The centred driver
    X-hat sits at knots 0..k-1 (a leading 0, then a running sum of the
    increments); the dividend account L-hat starts at 0 and the injection
    account R-hat at the top-up max(0, -x).  At each step j = 1..k-1 the
    state x + X-hat_j - L-hat is corrected to s = state + R-hat and takes one
    branch: s < 0 tops R-hat up to -state (only when floor is set); s > b
    pays one dividend step, alpha * dt, or s - b when alpha is infinite;
    otherwise both accounts carry over.  Ties fall to the carry-over branch.

    Before applying step j the generator yields (state, dl, dr): the state
    and the dividend and injection steps.  Without floor, dr stays 0.  Every
    step is computed in place, so the yielded arrays are overwritten at the
    next step: a reader that keeps one must copy it.

    A reader may drop lanes by sending (keep, path) in place of next():
    keep masks the lanes of the last step, flattened in row-major order,
    and path gives the row of increments of each lane kept.  From then on
    the arrays are 1-D over the kept lanes, and each lane reads its driver
    from the running sum X-hat of its row.
    """
    m, k = increments.shape
    xhat = np.full(m, -0.0)  # -0.0 + a == a bit for bit, as in np.cumsum
    lhat = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(b), (m,)))
    rhat = lhat + np.where(x < 0.0, -x, 0.0)
    state, dl, dr, newr = (np.zeros_like(lhat) for _ in range(4))
    s = np.empty_like(lhat) if floor else state
    flag = np.empty(lhat.shape, dtype=bool)
    drive, path = xhat, None
    # masked stores by np.putmask: a ufunc with where= runs several times slower
    for j in range(1, k):
        xhat += increments[:, j - 1]
        if path is not None:
            np.take(xhat, path, out=drive)
        np.add(x, drive, out=state)
        state -= lhat
        if floor:
            np.add(state, rhat, out=s)
        if alpha == math.inf:
            np.subtract(s, b, out=dl)
            np.putmask(dl, np.less_equal(s, b, out=flag), 0.0)
        else:
            np.multiply(np.greater(s, b, out=flag), alpha * dt, out=dl)
        if floor:
            # R-hat becomes -state where s < 0; dr is its change
            np.negative(state, out=newr)
            np.putmask(newr, np.greater_equal(s, 0.0, out=flag), rhat)
            np.subtract(newr, rhat, out=dr)
            rhat, newr = newr, rhat
        sent = yield state, dl, dr
        lhat += dl
        if sent is not None:
            keep, path = sent
            shape = lhat.shape
            x, b, lhat, rhat, state, dl, dr, newr, s, flag = (
                np.broadcast_to(a, shape).reshape(-1)[keep]
                for a in (x, b, lhat, rhat, state, dl, dr, newr, s, flag))
            s = s if floor else state
            drive = np.empty(lhat.shape)


def euler_lane_flows(x, b, spliced, incs: np.ndarray, alpha: float, dt: float,
                     q: float) -> path_engine.LaneFlows:
    """The floored recursion on every (start, threshold) lane at once, read
    as path_engine.floored_lane_sweep reads the exact lane stepper.

    Lane (j, i) runs row i of incs from x[j] with threshold b[j]; x, b and
    spliced have length J, and each field has shape (J, m).  Step j is paid
    at its knot time j * dt, discounted at exp(-q j dt), and it is the
    passage time when it holds the lane's first injection (kappa_strict) or
    its first state at or below 0 (t_weak); math.inf when none does.  A start
    below 0 is topped up at time 0, undiscounted, and passes both ways at
    time 0; a start at 0 visits 0 at time 0.  A spliced lane halts its flows
    at its weak passage, that step's flows included.

    Only the lanes still running are stepped.  A spliced lane is done once
    both its passages are known, and the done lanes leave the recursion
    with the rule and bookkeeping of the exact flows reader (path_engine.Lanes):
    once they are at least 1/8 of the lanes.  Until then a stopped lane
    adds its steps at weight 0.  The other lanes run to the horizon, so
    they gain only from the calls skipped once no lane has an open passage.
    """
    x, b, spliced = (np.asarray(c)[:, None] for c in (x, b, spliced))
    m, k = incs.shape
    zeros = np.zeros((len(x), m))
    dl = zeros.copy()
    dr = zeros + np.where(x < 0.0, -x, 0.0)
    kappa = zeros + np.where(x < 0.0, 0.0, math.inf)
    weak = zeros + np.where(x <= 0.0, 0.0, math.inf)
    halt = np.broadcast_to(spliced, zeros.shape)
    # the passages still to come, and the lanes whose flows still run
    open_k, open_w = kappa == math.inf, weak == math.inf
    free = ~halt
    live = free | open_w
    # counts of the open passages, and of the halting lanes that have
    # stopped their flows and that are done
    nk, nw = np.count_nonzero(open_k), np.count_nonzero(open_w)
    stopped, done = np.count_nonzero(~live), np.count_nonzero(halt & ~open_k)
    lanes = path_engine.Lanes(len(x), m)
    disc, paid, hit = np.empty(zeros.shape), np.empty(zeros.shape), np.empty(zeros.shape, bool)
    steps = euler_steps(x, incs, b, alpha, dt, floor=True)
    keep = None
    for j in range(1, k):
        state, step_l, step_r = steps.send(keep)
        keep = None
        t = dt * j
        w = math.exp(-q * t)
        if stopped:
            w = np.multiply(live, w, out=disc)
        dl += np.multiply(step_l, w, out=paid)
        dr += np.multiply(step_r, w, out=paid)
        if nk:
            np.logical_and(open_k, np.greater(step_r, 0.0, out=hit), out=hit)
            n = np.count_nonzero(hit)
            if n:
                np.putmask(kappa, hit, t)
                open_k ^= hit
                nk -= n
                done += np.count_nonzero(np.logical_and(hit, halt, out=hit))
        if nw:
            np.logical_and(open_w, np.less_equal(state, 0.0, out=hit), out=hit)
            n = np.count_nonzero(hit)
            if n:
                np.putmask(weak, hit, t)
                open_w ^= hit
                nw -= n
                stopped += np.count_nonzero(np.logical_and(hit, halt, out=hit))
                np.logical_or(free, open_w, out=live)
        if done and lanes.due(done):
            kept = lanes.drop(halt & ~open_k, dl, dr, kappa, weak)
            dl, dr, kappa, weak, open_k, open_w, halt, free, live, disc, paid, hit = (
                a.reshape(-1)[kept] for a in (dl, dr, kappa, weak, open_k, open_w, halt,
                                              free, live, disc, paid, hit))
            if not lanes.ids.size:
                break
            stopped, done, keep = stopped - done, 0, (kept, lanes.path)
    return lanes.flows(dl, dr, kappa, weak)


def euler_record_lows(incs: np.ndarray, alpha: float, dt: float) -> path_engine.RecordLows:
    """The record lows of the unfloored recursion refracted at 0 and started
    at 0, one path per row of incs, as path_engine.refracted_record_lows
    reads the exact paths.

    Knot 0 is 0.  A knot below the minimum of the knots before it is a
    record: a jump episode from that minimum down to the knot, first reached
    at t0 = dt * knot (invrate 0).  The running minimum is taken over blocks
    of NU_BLOCK_STEPS knots, into which each yielded state is copied.
    """
    m, k = incs.shape
    steps = euler_steps(0.0, incs, 0.0, alpha, dt, floor=False)
    block = np.zeros((min(NU_BLOCK_STEPS, k) + 1, m))  # row 0: the minimum so far
    recs = [(np.empty(0, dtype=int),) * 2 + (np.empty(0),) * 2]
    for c0 in range(1, k, NU_BLOCK_STEPS):
        width = min(NU_BLOCK_STEPS, k - c0)
        for c, (state, _, _) in zip(range(1, width + 1), steps):
            block[c] = state
        mins = np.minimum.accumulate(block[:width + 1], axis=0)
        step, path = np.nonzero(mins[1:] < mins[:-1])
        recs.append((path, c0 + step, mins[step + 1, path], mins[step, path]))
        block[0] = mins[-1]
    path, knot, lo, hi = (np.concatenate(c) for c in zip(*recs))
    order = np.argsort(path, kind="stable")  # path-major, knots ascending
    return path_engine.RecordLows(path[order], lo[order], hi[order], dt * knot[order],
                                  np.zeros(path.size), block[0].copy())


def _floored_euler(x: float, params: StrategyParams, increments: np.ndarray,
                   dt: float):
    """(driver, Z, L-hat, R-hat, dividend steps) of the floored three-branch
    recursion, one row per row of increments, on knots 0..k-1.

    L-hat accumulates the dividend steps.  R-hat is read back as the running
    maximum of the negative part of the state, the reflection identity the
    top-up rule satisfies exactly.
    """
    m, k = increments.shape
    state = np.full((m, k), float(x))
    dl = np.zeros((m, k))
    steps = euler_steps(x, increments, params.b, params.alpha, dt, floor=True)
    for j, (state_j, dl_j, _) in enumerate(steps, start=1):
        state[:, j], dl[:, j] = state_j, dl_j
    lhat = np.cumsum(dl, axis=1)
    rhat = np.maximum.accumulate(np.where(state < 0.0, -state, 0.0), axis=1)
    driver = x + np.concatenate(
        (np.zeros((m, 1)), np.cumsum(increments[:, :-1], axis=1)), axis=1)
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


def euler_exact_gap(columns: EventColumns, params: StrategyParams, x: float,
                    k: int) -> np.ndarray:
    """Sup distance between the Euler recursion and the exact trajectory
    started at x, for each path of columns (drawn at x0 = 0), over the knots
    0..k-1 of a k-step grid: one read of the paths' swept table at knots
    0..k gives the exact surplus and the driver, whose steps between knots
    are the Euler increments (shared noise), for one recursion pass over
    all the paths."""
    n, dt = columns.counts.size, columns.horizon / k
    table = apply_strategy_exact(replace(columns, x0=columns.x0 + x), params)
    (got,), driver = path_engine.read_segments(
        [table], np.repeat(np.arange(n), k + 1), np.tile(np.arange(k + 1) * dt, n), columns)
    driver = driver.reshape(n, k + 1)
    driver[:, 0] = columns.x0
    z = _floored_euler(x, params, np.diff(driver, axis=1), dt)[1]
    return np.max(np.abs(z - got.z.reshape(n, k + 1)[:, :k]), axis=1)
