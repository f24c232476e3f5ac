"""Exact pathwise transforms on bounded-variation paths.

One event sweep, event_steps, serves every exact transform.  It steps the
paths of levy_model.EventColumns, the padded event columns sample_path
draws, all at once as lanes: refraction at rate alpha above a threshold b
and, with the floor, reflection at 0.  It takes 0 < alpha <= inf; alpha =
inf is the reflection limit at b, in which an overshoot above b is paid at
once as a lump dividend, and b = inf sets no threshold.  The case is read
off the draw: a path sticks at b in Case 2, when the net drift
columns.drift lies in [0, alpha] (levy_model.is_case2), and crosses b in
Case 1.  Crossing times of linear segments are solved in closed form, so
the only error is float arithmetic; identity checks use absolute tolerance
1e-12.  event_steps is the counterpart of strategy_engine.euler_steps and
records nothing; three readers keep what their callers need of its lanes:

- trajectory_table keeps the trajectories themselves, as a SegmentTable
  of their segments and atoms.  refract_exact and
  refracted_reflected_exact return it, and read_segments reads it at
  probe times: values, left limits, dividends and injections, and the
  drivers;
- floored_lane_sweep keeps the discounted flows and passage times of
  floored (path, start, threshold) lanes;
- refracted_record_lows keeps the record lows of refract_exact at b = 0.

Lanes holds the lane bookkeeping that floored_lane_sweep shares with the
Euler lane reader of strategy_engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levy_model import EventColumns, InvalidParameter, is_case2


# branch codes recorded per segment
BRANCH_INTERIOR = 0   # below b, free motion at rate delta
BRANCH_ABOVE = 1      # above b, draining at delta - alpha
BRANCH_AT_B = 2       # sticky at b (Case 2)
BRANCH_FLOOR = 3      # pinned at 0

# The fields of a SegmentTable by kind: the segments, the injection atoms
# and the dividend atoms, counted by rows 0, 1 and 2 of its counts.
TABLE_FIELDS = (("seg_t", "seg_v", "seg_slope", "seg_branch", "seg_lrate", "seg_rrate"),
                ("r_atom_t", "r_atom"), ("l_atom_t", "l_atom"))


@dataclass(frozen=True)
class SegmentTable:
    """The swept trajectories of m paths that share a finite horizon, path-major.

    Each path is a piecewise-linear cadlag curve: on segment k, from
    seg_t[k] (strictly increasing from 0 on each path) to the path's next
    knot or the horizon, the value is seg_v[k] + seg_slope[k] * (t -
    seg_t[k]); a jump shows as a mismatch between the end of one segment
    and the start of the next.  seg_branch holds the branch code of each
    segment, seg_lrate/seg_rrate the dividend and injection densities
    active on it.  The atom arrays carry lump injections (jump top-ups, and
    the initial top-up when the start is negative) and, in the alpha = inf
    reflection limit, lump dividends.  counts[:, i] holds the segments,
    injection atoms and dividend atoms of path i, each path's in time order.
    """

    horizon: float
    seg_t: np.ndarray
    seg_v: np.ndarray
    seg_slope: np.ndarray
    seg_branch: np.ndarray
    seg_lrate: np.ndarray
    seg_rrate: np.ndarray
    r_atom_t: np.ndarray
    r_atom: np.ndarray
    l_atom_t: np.ndarray
    l_atom: np.ndarray
    counts: np.ndarray

    @property
    def sources(self):
        """The (times, path) of the knots, the injection atoms and the
        dividend atoms, each in (path, t) order."""
        paths = np.arange(self.counts.shape[1])
        return [(getattr(self, names[0]), np.repeat(paths, c))
                for names, c in zip(TABLE_FIELDS, self.counts)]

    def _offsets(self):
        """offsets[k, i]: the first entry of kind k of path i; column m the end."""
        return np.concatenate((np.zeros((3, 1), dtype=int), np.cumsum(self.counts, axis=1)),
                              axis=1)

    def block(self, start: int, stop: int) -> "SegmentTable":
        """The table of paths start to stop - 1."""
        start, stop, _ = slice(start, stop).indices(self.counts.shape[1])
        offs = self._offsets()
        fields = {name: getattr(self, name)[offs[k, start]:offs[k, stop]]
                  for k, names in enumerate(TABLE_FIELDS) for name in names}
        return SegmentTable(self.horizon, counts=self.counts[:, start:stop], **fields)

    def discounted_flow(self, q: float) -> tuple:
        """(integral e^{-qt} dL, integral e^{-qt} dR) over [0, horizon] of
        each path, in closed form, as two (m,) arrays.

        One exp pass covers every knot, segment end and atom; np.bincount
        then adds each path's segment terms and then its atom terms in
        order, so a path's flows do not depend on the other paths.
        """
        (seg_t, seg_path), (r_t, r_path), (l_t, l_path) = self.sources
        ns, nr = seg_t.size, r_t.size
        # the start and end of each segment, each path's last ending at the
        # horizon, and each atom; then e^{-qt} in place, as tables are large
        d = np.concatenate((seg_t, np.roll(seg_t, -1), r_t, l_t))
        d[ns + np.cumsum(self.counts[0]) - 1] = self.horizon
        np.exp(np.multiply(d, -q, out=d), out=d)
        w, d1, r_d, l_d = np.split(d, np.cumsum((ns, ns, nr)))
        np.subtract(w, d1, out=w)
        w /= q
        return tuple(np.bincount(np.concatenate((seg_path, path)),
                                 np.concatenate((rate * w, disc * atom)), self.counts.shape[1])
                     for rate, path, disc, atom in ((self.seg_lrate, l_path, l_d, self.l_atom),
                                                    (self.seg_rrate, r_path, r_d, self.r_atom)))


def path_keys(path, t):
    """Integer keys that order the pairs (path[j], t[j]) as (path, t),
    exactly: path * (the number of distinct times) + the rank of t[j] among
    them, from one sort of t.  A float offset per path would merge nearby
    times.  Returns the keys and the distinct times in order."""
    times, rank = np.unique(t, return_inverse=True)
    return np.asarray(path) * times.size + rank, times


@dataclass(frozen=True)
class SegmentReading:
    """A SegmentTable read at probes: the value z, its left limit z_left,
    the cumulative dividends l and injections r, and whether a knot falls
    at the probe."""

    z: np.ndarray
    z_left: np.ndarray
    l: np.ndarray
    r: np.ndarray
    knot: np.ndarray


def _lumps(values, counts, path, upto):
    """The sum of the entries of path path[j] among the first upto[j] of
    values, which holds the paths' entries end to end, counts[i] of them for
    path i, added in the order of np.cumsum: a zero-padded (path, entry)
    table summed along its rows."""
    table = np.zeros((counts.size, counts.max(initial=0) + 1))
    table[:, 1:][np.arange(1, table.shape[1]) <= counts[:, None]] = values
    return np.cumsum(table, axis=1)[path, upto - (np.cumsum(counts) - counts)[path]]


def read_segments(tables, path, t, drivers=None):
    """The SegmentReading of each table at the probes (path[j], t[j]), t >= 0,
    and with drivers, the EventColumns of the tables' paths, the driver X
    there as well (else None).

    The path_keys of the probes and of every knot, atom and event, from one
    sort per call, place each path's entries among its probes by binary
    search, so the entries up to a probe, and strictly before it, are counts
    in integers.  z is read off the segment in force, z_left off the one
    before a knot at the probe, and the flows, atoms and events add up as
    lumps, each path's in order: every reading is bit-equal to a per-path
    searchsorted and cumsum.
    """
    path, t = np.asarray(path), np.asarray(t, dtype=float)
    srcs = [src for tab in tables for src in tab.sources]
    if drivers is not None:
        # each path's events, path-major, off the padded columns
        on = (np.arange(len(drivers.times))[:, None] < drivers.counts).T
        srcs.append((drivers.times.T[on], np.repeat(np.arange(drivers.counts.size),
                                                    drivers.counts)))
    keys, _ = path_keys(np.concatenate([path] + [p for _, p in srcs]),
                        np.concatenate([t] + [s for s, _ in srcs]))
    probes, *keys = np.split(keys, np.cumsum([t.size] + [s.size for s, _ in srcs])[:-1])
    readings = []
    for j, tab in enumerate(tables):
        (seg, r_at, l_at), (n_seg, n_r, n_l), seg_t = keys[3 * j:3 * j + 3], tab.counts, tab.seg_t
        ends = np.cumsum(n_seg) - 1  # each path's last segment
        upto, below = (np.searchsorted(seg, probes, side) for side in ("right", "left"))
        i, left = upto - 1, np.maximum(below - 1, (ends + 1 - n_seg)[path])
        dt = np.diff(seg_t, append=0.0)
        dt[ends] = tab.horizon - seg_t[ends]
        l, r = (_lumps(rate * dt, n_seg, path, i) + rate[i] * (t - seg_t[i])
                + _lumps(atom, n_atom, path, np.searchsorted(at, probes, "right"))
                for rate, atom, n_atom, at in ((tab.seg_lrate, tab.l_atom, n_l, l_at),
                                               (tab.seg_rrate, tab.r_atom, n_r, r_at)))
        readings.append(SegmentReading(
            z=tab.seg_v[i] + tab.seg_slope[i] * (t - seg_t[i]),
            z_left=tab.seg_v[left] + tab.seg_slope[left] * (t - seg_t[left]),
            l=l, r=r, knot=upto > below))
    if drivers is None:
        return readings, None
    upto = np.searchsorted(keys[-1], probes, "right")
    sizes = drivers.sizes.T[on]
    return readings, (drivers.x0[path] + drivers.drift * t
                      + _lumps(sizes, drivers.counts, path, upto))


def _regime(z, b, alpha, delta, sticky, floor):
    """(slope, dividend rate, injection rate, branch) for the current state."""
    if z > b:
        return delta - alpha, alpha, 0.0, BRANCH_ABOVE
    if z == b and (b > 0.0 or not floor):
        if sticky:
            return 0.0, delta, 0.0, BRANCH_AT_B
        if delta > alpha:
            return delta - alpha, alpha, 0.0, BRANCH_ABOVE
        return delta, 0.0, 0.0, BRANCH_INTERIOR
    if floor and z == 0.0:
        if b == 0.0:
            if sticky:
                return 0.0, delta, 0.0, BRANCH_AT_B
            if delta > alpha:
                return delta - alpha, alpha, 0.0, BRANCH_ABOVE
            return 0.0, 0.0, -delta, BRANCH_FLOOR
        if delta > 0:
            return delta, 0.0, 0.0, BRANCH_INTERIOR
        if delta == 0:
            return 0.0, 0.0, 0.0, BRANCH_FLOOR
        return 0.0, 0.0, -delta, BRANCH_FLOOR
    return delta, 0.0, 0.0, BRANCH_INTERIOR


def _next_target(z, slope, b, floor):
    if slope > 0 and z < b:
        return b
    if slope < 0:
        if z > b:
            return b
        if floor and 0.0 < z <= b:
            return 0.0
    return None


def refract_exact(columns: EventColumns, b: float, alpha: float) -> SegmentTable:
    """Refracted trajectories of the paths of columns: dividends at rate
    alpha skimmed above b.

    In Case 2 a trajectory sticks at b (the drift lies in [0, alpha]);
    in Case 1 the threshold is crossed transversally.  alpha = inf is
    reflection at b from above: overshoots are paid as lump dividends.
    """
    if not (alpha > 0):
        raise InvalidParameter("alpha", "rate cap must be positive")
    return trajectory_table(columns, float(b), float(alpha), floor=False)


def refracted_reflected_exact(columns: EventColumns, b, alpha) -> SegmentTable:
    """Refraction above b combined with reflection at 0: the floored
    trajectories of the paths of columns.

    For b = 0 this is the reflection of the alpha-killed path, with the
    sticky dividend rate at the origin in Case 2.  alpha = inf is the
    two-sided reflection on [0, b], with lump dividends at b.
    """
    if b < 0:
        raise InvalidParameter("b", "threshold must be >= 0")
    if not (alpha > 0):
        raise InvalidParameter("alpha", "rate cap must be positive")
    return trajectory_table(columns, float(b), float(alpha), floor=True)


# Threshold or floor crossings a lane may make between two events.  On a
# floored refracted path at most three regime changes fall between jumps.
MAX_CROSSINGS = 3


@dataclass(frozen=True)
class LaneFlows:
    """Readings of the lane-batched floored sweep, one (J, m) array each:
    the discounted dividends and injections up to each lane's stop, and
    the strict and weak passage times (math.inf when the event does not
    occur before the horizon): the first injection, a top-up lump or the
    start of a stretch with a positive injection density, and the first
    visit to 0, a lump or the start of a stretch at 0."""

    dl: np.ndarray
    dr: np.ndarray
    kappa_strict: np.ndarray
    t_weak: np.ndarray


class Lanes:
    """The bookkeeping of a lane sweep.  Lane j * m + i runs path i for
    point j of nx.  The sweep holds the running lanes in id order, (nx, m)
    until its first drop and 1-D after, and drops the done ones once they
    are at least 1/8 of them: they write their (dl, dr, kappa, weak) to a
    (4, nx * m) output, and the lanes left at the end theirs in flows."""

    def __init__(self, nx: int, m: int):
        self.ids = np.arange(nx * m)
        self.path = self.ids % m  # the path index of each running lane
        self._out = np.empty((4, nx * m))
        self._shape = (nx, m)

    def due(self, ndone) -> bool:
        """Whether ndone done lanes are enough to drop."""
        return 8 * ndone >= self.ids.size

    def drop(self, done, *fields) -> np.ndarray:
        """Write out the four fields of the done lanes and forget them.
        done and the fields may be shaped (nx, m) until the first drop.
        Returns the 1-D mask of the lanes kept."""
        done = done.reshape(-1)
        self._out[:, self.ids[done]] = [f.reshape(-1)[done] for f in fields]
        keep = ~done
        self.ids, self.path = self.ids[keep], self.path[keep]
        return keep

    def flows(self, dl, dr, kappa, weak) -> LaneFlows:
        """The readings of every lane, those still running given here."""
        self._out[:, self.ids] = [f.reshape(-1) for f in (dl, dr, kappa, weak)]
        dl, dr, kappa, weak = self._out.reshape(4, *self._shape)
        return LaneFlows(dl=dl, dr=dr, kappa_strict=kappa, t_weak=np.minimum(weak, kappa))


def _regime_table(alpha, delta, floor):
    """(slope, dividend rate, injection rate, branch, target) rows of _regime
    and _next_target by state class (z > b) + 2 (z == b) + 3 (z == 0), each
    at a representative (z, b): 0 interior, 1 above b, 2 at b != 0, 3 at 0
    below b, 4 at 0 above b, 5 at 0 = b.  A drift delta in [0, alpha] sticks
    at b (is_case2).  The target is inf for b, 0.0 for 0 and nan for none.
    Unfloored lanes leave out the term 3 (z == 0)."""
    rows, sticky = [], is_case2(delta, alpha)
    for z, b in ((0.5, 1.0), (2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (0.0, -1.0), (0.0, 0.0)):
        slope, lrate, rrate, branch = _regime(z, b, alpha, delta, sticky, floor)
        target = _next_target(z, slope, b, floor)
        rows.append((slope, lrate, rrate, branch,
                     math.nan if target is None else math.inf if target == b else 0.0))
    return np.array(rows).T


def event_steps(columns: EventColumns, x, b, alpha, floor: bool):
    """The event sweep, on every lane at once, recording no segment.  x and
    b are scalars or (J, 1) arrays.  Lane (j, i) runs path i of columns
    from columns.x0[i] + x[j], refracted at rate alpha above b[j] and, with
    floor, reflected at 0.  The case is read off the draw: a lane sticks at
    b when is_case2(columns.drift, alpha).

    Yields (stretches, te, dividend, topup) for the start (te = 0) and then
    per event column (te the event times).  stretches lists the drift
    stretches to te in order: one for every lane, then one for each lane
    that crossed b or 0 in the one before, at most MAX_CROSSINGS crossings
    in all.  Each is (at, t, t_end, z, z_end, slope, lrate, rrate, branch,
    kept): the index of its lanes (Ellipsis for all), its times, values,
    slope, rates and branch code (as a float), and whether it is a segment
    of the trajectory: a stretch of zero length is not, unless it is the
    last drift to the horizon.  dividend and topup are
    the lumps at te, the overshoot above b when alpha = inf and the top-up
    to 0 with floor, or None where none can occur.  The arrays have the
    shape of columns.x0 + x, but te, the event sizes and the starts of
    first stretches are per path, (m,).  A reader drops lanes by sending
    (keep, path), as to euler_steps, and from then on every array is 1-D.
    """
    counts, tcols, scols = columns.counts, columns.times, columns.sizes
    table = _regime_table(alpha, columns.drift, floor)
    z = columns.x0 + x
    b = np.full(z.shape, b, dtype=float)
    te, end, path = np.zeros(counts.size), counts, None
    for e in range(-1, len(tcols)):
        stretches = []
        if e >= 0:
            t = te
            te, s = (tcols[e], scols[e]) if path is None else (tcols[e, path], scols[e, path])
            at, ts, zs, tes, bs, last = Ellipsis, t, z, te, b, end == e
            for _ in range(MAX_CROSSINGS + 1):
                cls = np.add(zs >= bs, zs == bs, dtype=np.int8)  # (z > b) + 2 (z == b)
                if floor:
                    cls += 3 * (zs == 0.0).view(np.int8)
                slope, lrate, rrate, branch, target = np.take(table, cls, axis=1)
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
                # the last index of a lane is its path while the lanes are
                # (J, m), and the only one once they are 1-D
                at = k if at is Ellipsis else tuple(i[k] for i in at)
                ts, zs, bs = t_end[k], z_end[k], bs[k]
                tes, last, s = tes[k[-1]], last[k[-1]], s[k[-1]]
            else:
                raise RuntimeError(f"a lane makes over {MAX_CROSSINGS} crossings between events")
        dividend = topup = None
        if alpha == math.inf:
            dividend = np.maximum(z - b, 0.0)
            z = np.minimum(z, b)
        if floor:
            topup = np.maximum(-z, 0.0)
            z = np.maximum(z, 0.0)
        sent = yield stretches, te, dividend, topup
        if sent is not None:
            keep, path = sent
            te, z, b = (np.broadcast_to(a, z.shape).reshape(-1)[keep] for a in (te, z, b))
            end = counts[path]


def trajectory_table(columns: EventColumns, b, alpha, floor: bool) -> SegmentTable:
    """The SegmentTable reader of event_steps: one lane per path of columns,
    started at columns.x0 bit for bit (x = -0.0, and a + -0.0 == a), and
    refracted at rate alpha above b and, with floor, reflected at 0.

    Per event column it keeps each stretch that is a segment, and each lump
    above 0 as an atom at the column's time: the dividend at alpha = inf and
    the top-up with floor.  One stable sort by lane then makes the table
    path-major, each path's entries in the order they came.
    """
    lanes = np.arange(columns.counts.size)
    # per kind, one list per field: the lanes, then the fields in table order
    segs = [[] for _ in range(7)]
    r_atoms, l_atoms = ([[np.empty(0, dtype=int)], [np.empty(0)], [np.empty(0)]]
                        for _ in range(2))
    for stretches, te, dividend, topup in event_steps(columns, -0.0, b, alpha, floor):
        for at, t, _, z, _, slope, lrate, rrate, branch, kept in stretches:
            for into, a in zip(segs, (lanes[at], t, z, slope, branch, lrate, rrate)):
                into.append(a[kept])
        for into, lumps in ((r_atoms, topup), (l_atoms, dividend)):
            if lumps is not None:
                (k,) = np.nonzero(lumps > 0.0)
                for field, a in zip(into, (k, te[k], lumps[k])):
                    field.append(a)
    fields, counts = [], []
    for lane, *values in (segs, r_atoms, l_atoms):
        lane = np.concatenate(lane)
        order = np.argsort(lane, kind="stable")
        counts.append(np.bincount(lane, minlength=lanes.size))
        for field in values:  # one field at a time, to hold one copy of the table
            fields.append(np.concatenate(field)[order])
            field.clear()
    fields[3] = fields[3].astype(int)  # seg_branch
    return SegmentTable(columns.horizon, *fields, counts=np.array(counts))


def floored_lane_sweep(columns: EventColumns, x, b, spliced, alpha, q) -> LaneFlows:
    """The LaneFlows reader of event_steps: refracted_reflected_exact on
    every lane, lane (j, i) on path i of columns shifted by x[j], with
    threshold b[j], discounted as it goes.  x, b and spliced have length J.
    A spliced lane halts its flows at its weak passage (atoms at that time
    included); the others discount to the horizon.  A lane leaves the sweep after its drift
    to the horizon, or once it has halted and its strict passage is known
    too.  Stop times equal those read off the trajectory_table of the same
    lanes bit for bit; the flows match its discounted_flow up to summation
    order.
    """
    counts, m, nx = columns.counts, columns.counts.size, len(x)
    lanes = Lanes(nx, m)
    halt = np.repeat(np.asarray(spliced, dtype=bool), m).reshape(nx, m)
    dl, dr, disc, kappa, weak = (np.full((nx, m), v) for v in (0.0, 0.0, 1.0, math.inf, math.inf))
    steps = event_steps(columns, np.asarray(x, dtype=float)[:, None],
                        np.asarray(b, dtype=float)[:, None], alpha, floor=True)
    end, keep = counts, None
    for e in range(-1, len(columns.times)):
        stretches, te, dividend, topup = steps.send(keep)
        keep = None
        for at, t, t_end, z, _, _, lrate, rrate, _, kept in stretches:
            # views of every lane for the first stretch, which the stores
            # below then skip, and copies of the crossed lanes after it
            wk, kp, d = weak[at], kappa[at], disc[at]
            np.minimum(wk, np.where(kept & (z == 0.0), t, math.inf), out=wk)
            np.minimum(kp, np.where(kept & (rrate > 0.0), t, math.inf), out=kp)
            flows = kept & ~(halt[at] & (wk < math.inf))
            d_new = np.exp(-q * t_end)
            w = (d - d_new) / q
            weak[at], kappa[at], disc[at] = wk, kp, d_new
            dl[at] += np.where(flows, lrate * w, 0.0)
            dr[at] += np.where(flows, rrate * w, 0.0)
        # every lane has drifted to te, and disc is its lumps' discount
        flows = ~(halt & (weak < math.inf))
        if dividend is not None:
            dl += np.where(flows, disc * dividend, 0.0)
        dr += np.where(flows, disc * topup, 0.0)
        lump_t = np.where(topup > 0.0, te, math.inf)
        weak, kappa = np.minimum(weak, lump_t), np.minimum(kappa, lump_t)
        # a lane is done after its drift to the horizon, and a halting lane
        # once both its passage times are known (kappa >= t_weak)
        done = (end <= e) | (halt & (kappa < math.inf))
        if lanes.due(np.count_nonzero(done)):
            kept = lanes.drop(done, dl, dr, kappa, weak)
            dl, dr, disc, kappa, weak, halt = (
                a.reshape(-1)[kept] for a in (dl, dr, disc, kappa, weak, halt))
            if not lanes.ids.size:
                break
            end, keep = counts[lanes.path], (kept, lanes.path)
    return lanes.flows(dl, dr, kappa, weak)


@dataclass(frozen=True)
class RecordLows:
    """Record lows of paths refracted at 0, path-major: episode k of path[k]
    covers the levels in (lo, hi], level l first reached at t0 + (hi - l) *
    invrate (0 for a jump).  final_min is each path's minimum, capped at 0."""

    path: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    t0: np.ndarray
    invrate: np.ndarray
    final_min: np.ndarray


def refracted_record_lows(columns: EventColumns, alpha) -> RecordLows:
    """The RecordLows reader of event_steps, one unfloored lane per path of
    columns at b = 0: the record lows of refract_exact(columns, 0,
    alpha), equal bit for bit to those read off its segments.  A kept
    stretch that starts below the low after time 0 is a jump episode, one
    that falls below it a drift episode."""
    m = columns.counts.size
    ids, low, out = np.arange(m), np.zeros(m), []
    steps = event_steps(columns, 0.0, 0.0, alpha, floor=False)
    for stretches, _, _, _ in steps:
        for at, t, _, z, z_end, slope, _, _, _, kept in stretches:
            lane, lo = ids[at], low[at]
            jump = kept & (t > 0.0) & (z < lo)
            k = np.nonzero(jump)
            out.append((lane[k], z[k], lo[k], t[k], np.zeros(k[0].size)))
            np.putmask(lo, jump, z)
            k = np.nonzero(kept & (slope < 0.0) & (z_end < lo))
            tk, zk, lk, rate = t[k], z[k], lo[k], -slope[k]
            out.append((lane[k], z_end[k], lk, np.where(zk > lk, tk + (zk - lk) / rate, tk),
                        1.0 / rate))
            lo[k] = z_end[k]
            low[at] = lo  # a view of every lane for the first stretch
    path, lo, hi, t0, invrate = (np.concatenate(c) for c in zip(*out))
    order = np.argsort(path, kind="stable")
    return RecordLows(path[order], lo[order], hi[order], t0[order], invrate[order], low)
