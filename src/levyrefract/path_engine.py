"""Exact pathwise transforms on bounded-variation paths.

One event sweep, event_steps, serves every exact transform.  It steps the
paths of levy_model.EventColumns, the padded event columns of X - x0 that
sample_path draws, all at once as lanes, each row of lanes from its own
start x (two starts on one draw are two rows): refraction at rate alpha
above a threshold b and, with the floor, reflection at 0.  It takes 0 <
alpha <= inf; alpha = inf is the reflection limit at b, where an overshoot
above b is paid at once as a lump dividend, and b = inf sets no threshold.
The case is read off the draw: a path sticks at b in Case 2, when the net
drift columns.drift lies in [0, alpha] (levy_model.is_case2), and crosses
b in Case 1.  Crossing times of linear segments are solved in closed form,
so the only error is float arithmetic; identity checks use absolute
tolerance 1e-12.  event_steps is the counterpart of strategy_engine.euler_steps and
records nothing; three readers keep what their callers need of its lanes:

- trajectory_table keeps the trajectories themselves, one SegmentTable
  per role from one sweep, one row per segment with the lumps paid at its
  start; read_segments reads the tables at given probe times, and
  read_knots at every path's knots, its horizon and the midpoints between
  them: values, left limits, dividends and injections, and the drivers;
- floored_lane_sweep keeps the discounted flows, weak passage times and
  martingale controls of floored (path, start, threshold) lanes;
- refracted_record_lows keeps the record lows of the paths refracted at
  b = 0, without floor.

Lanes holds the lane bookkeeping that floored_lane_sweep shares with the
Euler lane reader of strategy_engine, and drop_due the rule by which every
lane reader here and in strategy_engine drops its done lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levy_model import EventColumns, is_case2


# branch codes recorded per segment
BRANCH_INTERIOR = 0   # below b, free motion at rate delta
BRANCH_ABOVE = 1      # above b, draining at delta - alpha
BRANCH_AT_B = 2       # sticky at b (Case 2)
BRANCH_FLOOR = 3      # pinned at 0


@dataclass(frozen=True)
class SegmentTable:
    """The swept trajectories of m paths that share a finite horizon, path-major.

    Each path is a piecewise-linear cadlag curve: on segment k, from
    seg_t[k] (strictly increasing from 0 on each path) to the path's next
    knot or the horizon, the value is seg_v[k] + slope * (t - seg_t[k]); a
    jump shows as a mismatch between the end of one segment and the start
    of the next.  seg_branch holds the branch code of each segment, and
    rates[:, code] the (slope, dividend rate, injection rate) of its
    branch, which the role fixes.  seg_llump and seg_rlump hold the
    dividend and the injection paid in a lump at the segment's start (0.0
    where none is): a top-up of a negative start or after a jump, and, in
    the alpha = inf reflection limit, an overshoot above b.  Every lump is
    paid at the start or at a jump, so at a knot.  counts[i] holds the
    segments of path i, each path's in time order.
    """

    horizon: float
    seg_t: np.ndarray
    seg_v: np.ndarray
    seg_branch: np.ndarray
    seg_llump: np.ndarray
    seg_rlump: np.ndarray
    rates: np.ndarray
    counts: np.ndarray

    def block(self, start: int, stop: int) -> "SegmentTable":
        """The table of paths start to stop - 1."""
        start, stop, _ = slice(start, stop).indices(self.counts.size)
        offs = np.concatenate(([0], np.cumsum(self.counts)))
        rows = slice(offs[start], offs[stop])
        return SegmentTable(self.horizon, self.seg_t[rows], self.seg_v[rows],
                            self.seg_branch[rows], self.seg_llump[rows], self.seg_rlump[rows],
                            self.rates, self.counts[start:stop])


def _path_keys(path, t, tables, drivers=None):
    """Integer keys that order the pairs (path[j], t[j]), then the knots of
    every table and the events of drivers' columns, each path's in time
    order, as (path, t), exactly: path * (the number of distinct times) +
    the rank of the time among them, from one sort.  A float offset per
    path would merge nearby times.  Returns the keys and the distinct times
    in order."""
    srcs = [(path, t)] + [(np.repeat(np.arange(tab.counts.size), tab.counts), tab.seg_t)
                          for tab in tables]
    if drivers is not None:
        # each path's events, path-major, off the padded columns
        cols = drivers[0]
        on = (np.arange(len(cols.times))[:, None] < cols.counts).T
        srcs.append((np.repeat(np.arange(cols.counts.size), cols.counts), cols.times.T[on]))
    path, t = (np.concatenate(a) for a in zip(*srcs))
    times, rank = np.unique(t, return_inverse=True)
    return path * times.size + rank, times


@dataclass(frozen=True)
class SegmentReading:
    """A SegmentTable read at probes: the value z, its left limit z_left,
    the cumulative dividends l and injections r, and whether a knot falls
    at the probe; all but z are None on a table read for z alone."""

    z: np.ndarray
    z_left: np.ndarray = None
    l: np.ndarray = None
    r: np.ndarray = None
    knot: np.ndarray = None


def _read(tables, path, t, keys, drivers=None, full=None):
    """The SegmentReading of each table at the probes (path[j], t[j]), t >= 0,
    and with drivers, the EventColumns of the tables' paths and the start x
    of them all as a pair (columns, x), the driver x + X there as well (else
    None).  Tables from full on are read for z alone.

    keys order the probes, then the tables' knots and the drivers' events,
    as _path_keys does; they place each path's knots and events among its
    probes by binary search, so the knots up to a probe are counts in
    integers.  z is read off the segment i in force, which each path's
    first knot, at t = 0, sets for every probe; a knot falls at the probe
    where i starts there, and z_left is read off the segment before it.
    The flows and lumps of each path's segments, and the jumps of its
    events, add up in order on zero-padded (path, entry) tables: every
    reading is bit-equal to a per-path searchsorted and cumsum.
    """
    probes, *seg_keys, events = np.split(keys, np.cumsum([t.size] + [
        tab.seg_t.size for tab in tables]))
    readings = []
    for j, (tab, seg) in enumerate(zip(tables, seg_keys)):
        n, seg_t, slope = tab.counts, tab.seg_t, tab.rates[0]
        i = np.searchsorted(seg, probes, "right") - 1
        z = tab.seg_v[i] + slope[tab.seg_branch[i]] * (t - seg_t[i])
        if full is not None and j >= full:
            readings.append(SegmentReading(z))
            continue
        first, knot = np.cumsum(n) - n, seg[i] == probes
        left = np.maximum(i - knot, first[path])
        dt = np.diff(seg_t, append=0.0)
        dt[first + n - 1] = tab.horizon - seg_t[first + n - 1]
        rates = tab.rates[1:, tab.seg_branch]
        # the dividend and injection flows and lumps of segments 0 .. k - 1 at column k
        sums = np.zeros((4, n.size, n.max(initial=0) + 1))
        sums[:, :, 1:][:, np.arange(1, sums.shape[2]) <= n[:, None]] = np.concatenate(
            (rates * dt, [tab.seg_llump, tab.seg_rlump]))
        np.cumsum(sums, axis=2, out=sums)
        col = i - first[path]
        l, r = sums[:2, path, col] + rates[:, i] * (t - seg_t[i]) + sums[2:, path, col + 1]
        readings.append(SegmentReading(
            z=z, z_left=tab.seg_v[left] + slope[tab.seg_branch[left]] * (t - seg_t[left]),
            l=l, r=r, knot=knot))
    if drivers is None:
        return readings, None
    (columns, x), n = drivers, drivers[0].counts
    upto = np.searchsorted(events, probes, "right") - (np.cumsum(n) - n)[path]
    jumps = np.cumsum(np.insert(columns.sizes, 0, 0.0, axis=0), axis=0)
    return readings, x + columns.drift * t + jumps[upto, path]


def read_segments(tables, path, t, drivers=None):
    """_read at the probes (path[j], t[j]), in any order."""
    path, t = np.asarray(path), np.asarray(t, dtype=float)
    return _read(tables, path, t, _path_keys(path, t, tables, drivers)[0], drivers)


def read_knots(tables, drivers=None, full=None):
    """_read at every path's probes, in (path, t) order: the distinct knots
    of its trajectories in tables, where every lump is paid, the horizon,
    and a midpoint between each two of them.  Returns the probes' (path, t),
    the readings and the driver.  The _path_keys of one sort, doubled, leave
    room for a midpoint between times[r - 1] and times[r] at 2r - 1 (at 2r
    where it is times[r], a time of another path)."""
    n = tables[0].counts.size
    keys, times = _path_keys(np.arange(n), np.full(n, tables[0].horizon), tables, drivers)
    # the distinct (path, t) of knots, sorted: np.unique of integers hashes, at a higher peak
    u = np.sort(keys[:n + sum(tab.seg_t.size for tab in tables)])
    u = u[np.append(True, u[1:] != u[:-1])]
    kp, kt = np.divmod(u, times.size)
    kt = times[kt]
    mid = 0.5 * (kt[:-1] + kt[1:])
    # a midpoint that rounds onto a knot adds no probe
    has_mid = (kp[1:] == kp[:-1]) & (mid != kt[:-1]) & (mid != kt[1:])
    gaps, mid = np.flatnonzero(has_mid) + 1, mid[has_mid]
    t, path = np.insert(kt, gaps, mid), np.insert(kp, gaps, kp[gaps])
    at = np.searchsorted(times, mid)
    probes = np.insert(2 * u, gaps, 2 * (kp[gaps] * times.size + at) - (times[at] != mid))
    return (path, t), *_read(tables, path, t, np.concatenate((probes, 2 * keys[n:])),
                             drivers, full)


# Threshold or floor crossings a lane may make between two events.  On a
# floored refracted path at most three regime changes fall between jumps.
MAX_CROSSINGS = 3


@dataclass(frozen=True)
class LaneFlows:
    """Readings of the lane-batched floored sweep, one (J, m) array each:
    the discounted dividends and injections up to each lane's stop, and
    the weak passage time, the first visit to 0, a top-up lump or the start
    of a stretch at 0 (math.inf when none occurs before the horizon).  c is
    the discounted compensated driver, integral e^{-qt} (dX_t - mu dt) up
    to the lane's stop (the weak passage of a halting lane, else the
    horizon), with mean 0 by optional stopping: the martingale control of
    the estimators."""

    dl: np.ndarray
    dr: np.ndarray
    t_weak: np.ndarray
    c: np.ndarray


def drop_due(ndone, nlanes) -> bool:
    """Whether ndone done lanes of the nlanes running are enough to drop:
    at least 1/8 of them."""
    return 8 * ndone >= nlanes


class Lanes:
    """The bookkeeping of a lane sweep.  Lane j * m + i runs path[j, i] of
    the (nx, m) array path: point j of nx reads m paths, as when the points
    of a block read different draws laid side by side.  The sweep
    holds the running lanes in id order, (nx, m) until its first drop and
    1-D after, and drops the done ones when drop_due allows: they write
    their (dl, dr, weak, c) to a (4, nx * m) output, and the lanes left at
    the end theirs in flows."""

    def __init__(self, path):
        self.ids = np.arange(path.size)
        self.path = np.reshape(path, -1)  # the path index of each running lane
        self._out = np.empty((4, path.size))
        self._shape = path.shape

    def drop(self, done, *fields) -> np.ndarray:
        """Write out the four fields of the done lanes and forget them.
        done and the fields may be shaped (nx, m) until the first drop.
        Returns the 1-D mask of the lanes kept."""
        done = done.reshape(-1)
        self._out[:, self.ids[done]] = [f.reshape(-1)[done] for f in fields]
        keep = ~done
        self.ids, self.path = self.ids[keep], self.path[keep]
        return keep

    def flows(self, dl, dr, weak, c) -> LaneFlows:
        """The readings of every lane, those still running given here."""
        self._out[:, self.ids] = [f.reshape(-1) for f in (dl, dr, weak, c)]
        return LaneFlows(*self._out.reshape(4, *self._shape))


def _regime_table(alphas, delta, floors):
    """The regime rule in closed form: (slope, dividend rate, injection
    rate, branch, target) rows by state class, 0 below b, 1 above b, 2 at
    b != 0, 3 at 0 below b, 4 at 0 above b, 5 at 0 = b, in a block of six
    columns per row r of lanes for its cap alphas[r] and floor floors[r]
    (column 6 r + class).  Below b a lane drifts at delta, above b at delta
    - alpha, paying alpha.  At b it sticks, paying delta, in Case 2
    (is_case2), and else moves as above b if delta > alpha, as below b if
    not.  Held at 0 it is injected at -delta.  The target is inf for b, 0.0
    for 0 and nan for none.  Unfloored rows repeat classes 0-2 at 3-5."""
    cols, nan = [], math.nan
    for alpha, floor in zip(*(a.flat for a in np.broadcast_arrays(
            np.asarray(alphas, dtype=float), floors))):
        below = (delta, 0.0, 0.0, BRANCH_INTERIOR,
                 math.inf if delta > 0 else 0.0 if floor and delta < 0 else nan)
        above = (delta - alpha, alpha, 0.0, BRANCH_ABOVE, math.inf if delta < alpha else nan)
        held = (0.0, 0.0, 0.0 - delta, BRANCH_FLOOR, nan)  # read where delta <= 0
        # at b a lane sticks, or moves as above b; None where it falls
        at_b = ((0.0, delta, 0.0, BRANCH_AT_B, nan) if is_case2(delta, alpha)
                else above if delta > alpha else None)
        free = (below, above, at_b or below)
        cols += free + ((below if delta > 0 else held, above, at_b or held) if floor else free)
    return np.array(cols).T


def event_steps(columns: EventColumns, x, b, alpha, floor, path=None):
    """The event sweep, on every lane at once, recording no segment.  x, b,
    alpha and floor are scalars or (J, 1) arrays.  Lane (j, i) runs path i of
    columns from x[j], refracted at rate alpha[j] above b[j] and, with
    floor[j], reflected at 0.  The case is read off the draw: a
    lane sticks at b when is_case2(columns.drift, alpha).  Each row reads
    its block of one _regime_table, the first when all share alpha and floor.

    Yields (stretches, te, dividend, topup) for the start (te = 0) and then
    per event column (te the event times).  stretches lists the drift
    stretches to te in order: one for every lane, then one for each lane
    that crossed b or 0 in the one before, at most MAX_CROSSINGS crossings
    in all.  Each is (at, t, t_end, z, z_end, slope, lrate, rrate, branch,
    kept): the index of its lanes (Ellipsis for all), its times, values,
    slope, rates and branch code (as a float), and whether it is a segment
    of the trajectory: a stretch of zero length is not, unless it is the
    last drift to the horizon.  dividend and topup are the lumps at te, the
    overshoot above the cap and the top-up to the floor, or None where none
    can occur.  The arrays have the lane shape, (m,) or (J, m), but te, the
    event sizes and the starts of first stretches are per path, (m,).  A
    reader drops lanes by sending (keep, path), as to euler_steps, and from
    then on every array is 1-D.  Given path, a (J, m) or 1-D array of path
    indices, lane l runs path path[l] and every array has its shape.
    """
    counts, tcols, scols = columns.counts, columns.times, columns.sizes
    end = counts if path is None else counts[path]
    z = np.full(np.broadcast_shapes(np.shape(x), end.shape), x, dtype=float)
    b = np.full(z.shape, b, dtype=float)
    alpha, floor = np.broadcast_arrays(np.asarray(alpha, dtype=float), floor)
    table, role = _regime_table(alpha, columns.drift, floor), None
    if (alpha != alpha.flat[0]).any() or (floor != floor.flat[0]).any():
        role = np.broadcast_to(6 * np.arange(alpha.size).reshape(alpha.shape), z.shape)
    cap = np.where(alpha == math.inf, b, math.inf) if (alpha == math.inf).any() else None
    lo = np.where(floor, 0.0, -math.inf) if floor.any() else None
    te = np.zeros(end.shape)
    for e in range(-1, len(tcols)):
        stretches = []
        if e >= 0:
            t = te
            te, s = (tcols[e], scols[e]) if path is None else (tcols[e, path], scols[e, path])
            at, ts, zs, tes, bs, rs, last = Ellipsis, t, z, te, b, role, end == e
            for _ in range(MAX_CROSSINGS + 1):
                cls = np.add(zs >= bs, zs == bs, dtype=np.int8)  # (z > b) + 2 (z == b)
                if lo is not None:  # unfloored rows repeat their classes at z == 0
                    cls += 3 * (zs == 0.0).view(np.int8)
                slope, lrate, rrate, branch, target = np.take(
                    table, cls if rs is None else cls + rs, axis=1)
                target = np.where(target == math.inf, bs, target)
                # a nan target, where there is none (as at slope 0), never crosses
                t_cross = ts + (target - zs) / slope
                crossed = t_cross < tes
                t_end = np.where(crossed, t_cross, tes)
                z_end = np.where(crossed, target, zs + slope * (tes - ts))
                kept = (t_end > ts) | (last & ~crossed)
                stretches.append((at, ts, t_end, zs, z_end, slope, lrate, rrate, branch, kept))
                if at is Ellipsis:
                    z = z_end + s
                else:
                    z[at] = z_end + s
                k = np.nonzero(crossed)
                if not k[0].size:
                    break
                # te, last and s of (m,) paths take a lane's last index, its path
                at = k if at is Ellipsis else tuple(i[k] for i in at)
                ts, zs, bs, rs = t_end[k], z_end[k], bs[k], None if rs is None else rs[k]
                tes, last, s = (a[k[-a.ndim:]] for a in (tes, last, s))
            else:
                raise RuntimeError(f"a lane makes over {MAX_CROSSINGS} crossings between events")
        dividend = topup = None
        if cap is not None:
            dividend = np.maximum(z - cap, 0.0)
            z = np.minimum(z, cap)
        if lo is not None:
            topup = np.maximum(lo - z, 0.0)
            z = np.maximum(z, lo)
        sent = yield stretches, te, dividend, topup
        if sent is not None:
            keep, path = sent
            te, z, b, cap, lo, role = (  # a shared floor, and None, stay as they are
                a if np.ndim(a) == 0 else np.broadcast_to(a, z.shape).reshape(-1)[keep]
                for a in (te, z, b, cap, lo, role))
            end = counts[path]


def trajectory_table(columns: EventColumns, x, b, alpha, floor) -> list:
    """The SegmentTable reader of event_steps, one table per role j of the
    J entries of x, b, alpha and floor, from one sweep: one lane per role and
    path of columns, started at x[j], refracted at rate alpha[j] above b[j]
    and, with floor[j], reflected at 0.  Roles at two starts are the shifted
    starts of one draw.

    Per event column it keeps the lane, time, value and branch of each
    segment (the role's _regime_table gives slope and rates by branch), and
    each lump above 0 against its lane's next segment, which starts at the
    lump's time: the lane's count of segments when the lump is paid.  One
    stable sort by lane orders each role's segments path-major, each path's
    as they came, and the lumps then add onto their segments in the order
    they are paid.
    """
    x, b, alpha, floor = np.broadcast_arrays(*(np.reshape(a, (-1, 1))
                                               for a in (x, b, alpha, floor)))
    by_branch = np.zeros((b.size, 3, 4))  # role, (slope, lrate, rrate), branch
    table = _regime_table(alpha, columns.drift, floor).reshape(5, b.size, 6)
    for rates, (*rows, branch, _) in zip(by_branch, table.transpose(1, 0, 2)):
        rates[:, branch.astype(int)] = rows
    lanes = np.arange(b.size * columns.counts.size, dtype=np.int32).reshape(b.size, -1)
    counts = np.zeros(lanes.size, dtype=int)  # each lane's segments so far
    segs = [[] for _ in range(4)]  # one list per field: the lanes, then the fields
    # the dividend, then the top-up lumps: their lanes, each lane's segment, sizes
    lumps = [([lanes[:0, 0]], [counts[:0]], [np.empty(0)]) for _ in range(2)]
    for stretches, _, dividend, topup in event_steps(columns, x, b, alpha, floor):
        for at, t, _, z, _, _, _, _, branch, kept in stretches:
            k = np.nonzero(kept)  # t of a first stretch is per path, (m,)
            for into, a in zip(segs, (lanes[at], t, z, branch.astype(np.int8))):
                into.append(a[k[-a.ndim:]])
            counts[segs[0][-1]] += 1
        for (lane, seg, size), paid in zip(lumps, (dividend, topup)):
            if paid is not None:
                k = np.nonzero(paid > 0.0)
                lane.append(lanes[k])
                seg.append(counts[lane[-1]])
                size.append(paid[k])
    n = counts.reshape(lanes.shape)
    roles = np.cumsum(n.sum(axis=1))[:-1]  # where each role's rows start
    order = np.split(np.argsort(np.concatenate(segs[0]), kind="stable"), roles)
    segs[0].clear()
    fields = []
    for field in segs[1:]:
        field[:] = [np.concatenate(field)]  # its pieces freed
        fields.append([field[0][o] for o in order])
        field.clear()
    del order  # before the lump rows are made
    firsts = np.cumsum(counts) - counts
    for lane, seg, size in lumps:
        lump = np.zeros(counts.sum())
        np.add.at(lump, firsts[np.concatenate(lane)] + np.concatenate(seg), np.concatenate(size))
        fields.append(np.split(lump, roles))
    return [SegmentTable(columns.horizon, *role, rates, c)
            for *role, rates, c in zip(*fields, by_branch, n)]


def floored_lane_sweep(columns: EventColumns, x, b, spliced, alpha, q, mu,
                       path) -> LaneFlows:
    """The LaneFlows reader of event_steps: the floored trajectory_table on
    every lane, lane (j, i) on path[j, i] of columns for the (J, m) array
    path, started at x[j], with threshold b[j], discounted as it goes.  x, b
    and spliced have length J.
    A spliced lane halts its flows at its weak passage (lumps at that time
    included) and is done there; the others discount to the horizon.  A
    lane leaves the sweep once it is done, and the sweep ends once every
    lane is.  Stop times equal those read off the trajectory_table of the
    same lanes bit for bit.

    The control c of a lane with stop tau is sum e^{-q t_i} s_i over the
    events of its path at t_i <= tau, the jump that causes a passage
    included, read off one running sum per path, less the compensator
    (mu - drift) (1 - e^{-q tau}) / q of the mean drift mu; the drift
    cancels, and a model without jumps has c = 0 exactly.
    """
    lo = path.min()  # step only the paths the lanes read
    columns, path = columns.block(lo, path.max() + 1), path - lo
    counts, (nx, m) = columns.counts, path.shape
    lanes = Lanes(path)
    halt = np.repeat(np.asarray(spliced, dtype=bool), m).reshape(nx, m)
    dl, dr, disc, weak, c = (np.full((nx, m), v) for v in (0.0, 0.0, 1.0, math.inf, 0.0))
    jumps = np.zeros(counts.size)  # sum e^{-q t_i} s_i so far, per path
    steps = event_steps(columns, np.asarray(x, dtype=float)[:, None],
                        np.asarray(b, dtype=float)[:, None], alpha, True, path)
    end, keep = counts[path], None
    injects = _regime_table(alpha, columns.drift, True)[2].any()
    for e in range(-1, len(columns.times)):
        stretches, te, dividend, topup = steps.send(keep)
        keep = None
        if e >= 0:
            jumps += np.exp(-q * columns.times[e]) * columns.sizes[e]
        for at, t, t_end, z, _, _, lrate, rrate, _, kept in stretches:
            # a view of every lane for the first stretch, which needs no
            # store of weak, and copies of the crossed lanes after it
            wk, d = weak[at], disc[at]
            np.minimum(wk, np.where(kept & (z == 0.0), t, math.inf), out=wk)
            flows = kept & ~(halt[at] & (wk < math.inf))
            d_new = np.exp(-q * t_end)
            w = (d - d_new) / q
            if at is not Ellipsis:
                weak[at] = wk
            disc[at] = d_new
            dl[at] += np.where(flows, lrate * w, 0.0)
            if injects:  # else every rrate is 0
                dr[at] += np.where(flows, rrate * w, 0.0)
        # every lane has drifted to te, and disc is its lumps' discount
        flows = ~(halt & (weak < math.inf))
        np.putmask(c, flows, jumps[lanes.path].reshape(c.shape))
        if dividend is not None:
            dl += np.where(flows, disc * dividend, 0.0)
        dr += np.where(flows, disc * topup, 0.0)
        weak = np.minimum(weak, np.where(topup > 0.0, te, math.inf))
        # a lane is done after its drift to the horizon, and a halting lane
        # at its weak passage
        done = (end <= e) | (halt & (weak < math.inf))
        if drop_due(np.count_nonzero(done), lanes.ids.size):
            kept = lanes.drop(done, dl, dr, weak, c)
            dl, dr, disc, weak, halt, c = (
                a.reshape(-1)[kept] for a in (dl, dr, disc, weak, halt, c))
            if not lanes.ids.size:
                break
            end, keep = counts[lanes.path], (kept, lanes.path)
    fl = lanes.flows(dl, dr, weak, c)
    stop = np.where(np.asarray(spliced)[:, None], np.minimum(fl.t_weak, columns.horizon),
                    columns.horizon)
    fl.c[:] -= (mu - columns.drift) * -np.expm1(-q * stop) / q
    return fl


@dataclass(frozen=True)
class RecordLows:
    """Record lows of paths refracted at 0, path-major: episode k of path[k]
    covers the levels in (lo, hi], level l first reached at t0 + (hi - l) *
    invrate (0 for a jump), and its last episode, at t0 = inf, the levels
    below its minimum (capped at 0, or below -depth where it left the
    sweep).  At the passage kappa of a level the control, the discounted
    compensated driver integral e^{-qs} (dX_s - mu ds) up to kappa or the
    horizon, is c + drain e^{-q kappa}, drain = (mu - drift) / q."""

    path: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    t0: np.ndarray
    invrate: np.ndarray
    c: np.ndarray
    drain: float = 0.0


def refracted_record_lows(columns: EventColumns, alpha, q, mu, depth=math.inf) -> RecordLows:
    """The RecordLows reader of event_steps, one unfloored lane per path of
    columns started at 0 and refracted at b = 0: the record lows of
    trajectory_table(columns, 0.0, 0.0, alpha, False), equal bit for bit to
    those read off its segments.  A kept
    stretch that starts below the low after time 0 is a jump episode, one
    that falls below it a drift episode.  Only an event's first stretch can
    start below the low: a crossing stretch starts at b = 0, and the low is
    at most 0.  Only a stretch at a finite negative slope of the regime
    table can fall, so without one a sweep reads no stretch after the
    first.  c is each lane's running sum of e^{-q t_i} s_i over its jumps
    so far, less drain, and the lanes below -depth leave when drop_due
    allows."""
    m, drain, out = columns.counts.size, (mu - columns.drift) / q, []
    ids, low, jumps, final = np.arange(m), np.zeros(m), np.full(m, -drain), np.zeros((2, m))
    # at alpha = inf the slope above b is -inf, but the cap keeps every lane at or below b
    slopes = _regime_table(alpha, columns.drift, False)[0]
    falls = ((slopes < 0.0) & (slopes > -math.inf)).any()
    steps, keep = event_steps(columns, 0.0, 0.0, alpha, floor=False), None
    for e in range(-1, len(columns.times)):
        stretches, te, _, _ = steps.send(keep)
        for at, t, _, z, z_end, slope, _, _, _, kept in stretches[:None if falls else 1]:
            lane, lo, js = ids[at], low[at], jumps[at]
            if at is Ellipsis:  # a view of every lane
                jump = kept & (t > 0.0) & (z < lo)
                k = np.nonzero(jump)
                out.append((lane[k], z[k], lo[k], t[k], np.zeros(k[0].size), js[k]))
                np.putmask(lo, jump, z)
            if falls:
                k = np.nonzero(kept & (slope < 0.0) & (z_end < lo))
                tk, zk, lk, rate = t[k], z[k], lo[k], -slope[k]
                out.append((lane[k], z_end[k], lk, np.where(zk > lk, tk + (zk - lk) / rate, tk),
                            1.0 / rate, js[k]))
                lo[k] = z_end[k]
                low[at] = lo
        jumps += np.exp(-q * te) * columns.sizes[e, ids] if e >= 0 else 0.0
        deep, keep = low < -depth, None
        if drop_due(np.count_nonzero(deep), ids.size):
            final[:, ids[deep]] = low[deep], jumps[deep]
            ids, low, jumps = ids[~deep], low[~deep], jumps[~deep]
            if not ids.size:
                break
            keep = (~deep, ids)
    final[:, ids] = low, jumps
    out.append((np.arange(m), np.full(m, -math.inf), final[0], np.full(m, math.inf), np.zeros(m),
                final[1] + drain * math.exp(-q * columns.horizon)))
    path, lo, hi, t0, invrate, c = (np.concatenate(a) for a in zip(*out))
    order = np.argsort(path, kind="stable")
    return RecordLows(path[order], lo[order], hi[order], t0[order], invrate[order], c[order], drain)
