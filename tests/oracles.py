"""The one-path scalar sweep, pure reference readers of swept
trajectories, and test-only checks.

_sweep is the event sweep of path_engine.event_steps written for one
EventPath on Python floats, with the arithmetic of numpy float64; it
appends each segment as it starts.  The tests hold every SegmentTable of
path_engine.trajectory_table to it bit for bit.  reference_table joins its
trajectories of several paths into the fields of a SegmentTable.
first_passage_times reads the two passage clocks off one floored
trajectory, and floor_decomposition splits the running infimum of a
floored path into boundary time, initial part and jump top-ups.

path_engine.read_segments reads a block of trajectories at once; the
readers here read one path, or a SegmentCurve, with a searchsorted and a
cumsum per call, and the tests hold the block reader to them bit for bit.
They take a RefractedPath or a one-path SegmentTable, which have the same
fields.  The construction identity residual recomputes a floored
trajectory from its driver and dividends, independently of the sweep's
injection bookkeeping.
"""

import math
from dataclasses import dataclass

import numpy as np

from levyrefract.path_engine import (
    BRANCH_FLOOR, TABLE_FIELDS, _next_target, _regime,
)
from levyrefract.properties_oracle import EXACT_TOL, _Block


@dataclass(frozen=True)
class RefractedPath:
    """The trajectory _sweep records for one path, with the fields of a
    one-path SegmentTable but counts."""

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

    def discounted_flow(self, q: float, horizon=None) -> tuple:
        """(integral e^{-qt} dL, integral e^{-qt} dR) over [0, horizon], in
        closed form, as SegmentTable.discounted_flow gives them per path."""
        t_end = self.horizon if horizon is None else horizon
        t0 = np.minimum(self.seg_t, t_end)
        t1 = np.minimum(np.append(self.seg_t[1:], self.horizon), t_end)
        w = (np.exp(-q * t0) - np.exp(-q * t1)) / q
        dl = float(np.sum(self.seg_lrate * w))
        dr = float(np.sum(self.seg_rrate * w))
        if t_end == math.inf:
            dl += self.seg_lrate[-1] * math.exp(-q * self.seg_t[-1]) / q - self.seg_lrate[-1] * w[-1]
            dr += self.seg_rrate[-1] * math.exp(-q * self.seg_t[-1]) / q - self.seg_rrate[-1] * w[-1]
        keep_l = self.l_atom_t <= t_end
        keep_r = self.r_atom_t <= t_end
        dl += float(np.sum(np.exp(-q * self.l_atom_t[keep_l]) * self.l_atom[keep_l]))
        dr += float(np.sum(np.exp(-q * self.r_atom_t[keep_r]) * self.r_atom[keep_r]))
        return dl, dr


def _sweep(path, b, alpha, sticky: bool, floor: bool) -> RefractedPath:
    """The event sweep of one EventPath: refraction at rate alpha above b,
    optionally reflected at the floor 0.  It steps on Python floats, with
    the arithmetic of numpy float64, and appends each segment as it starts;
    a segment of zero length is overwritten by the next.

    b = math.inf sets no threshold.  alpha = math.inf is the reflection
    limit: an overshoot above b, at the start or after a jump, is paid at
    once as a lump dividend, so the path never sits above b.
    """
    delta = float(path.drift)
    horizon = float(path.horizon)
    band = alpha == math.inf
    seg_t, seg_v, seg_slope, seg_branch, seg_lrate, seg_rrate = [], [], [], [], [], []
    r_atom_t, r_atom, l_atom_t, l_atom = [], [], [], []
    t = 0.0
    z = float(path.x0)
    if band and z > b:
        l_atom_t.append(0.0)
        l_atom.append(z - b)
        z = b
    if floor and z < 0.0:
        r_atom_t.append(0.0)
        r_atom.append(-z)
        z = 0.0
    events = list(zip(path.times.tolist(), path.sizes.tolist())) + [(horizon, None)]
    for te, sz in events:
        while True:
            slope, lr, rr, br = _regime(z, b, alpha, delta, sticky, floor)
            target = _next_target(z, slope, b, floor)
            t_cross = t + (target - z) / slope if target is not None else math.inf
            if seg_t and seg_t[-1] == t:
                # zero-length segment: overwrite instead of duplicating the knot
                seg_v[-1], seg_slope[-1], seg_branch[-1], seg_lrate[-1], seg_rrate[-1] = (
                    z, slope, br, lr, rr)
            else:
                seg_t.append(t)
                seg_v.append(z)
                seg_slope.append(slope)
                seg_branch.append(br)
                seg_lrate.append(lr)
                seg_rrate.append(rr)
            if t_cross < te:
                t, z = t_cross, target
            else:
                z = z + slope * (te - t)
                t = te
                break
        if sz is None:
            break
        z = z + sz
        if band and z > b:
            l_atom_t.append(te)
            l_atom.append(z - b)
            z = b
        if floor and z < 0.0:
            r_atom_t.append(te)
            r_atom.append(-z)
            z = 0.0
    # the lists in the order of the RefractedPath fields
    return RefractedPath(horizon, *map(np.asarray, (seg_t, seg_v, seg_slope, seg_branch, seg_lrate,
                                                    seg_rrate, r_atom_t, r_atom, l_atom_t, l_atom)))


def reference_table(paths, b, alpha, case, floor: bool):
    """The _sweep trajectories of paths joined end to end as the fields of
    a SegmentTable: a dict of each field and counts."""
    trajs = [_sweep(p, float(b), float(alpha), case.is_case2, floor) for p in paths]
    out = {name: np.concatenate([getattr(t, name) for t in trajs])
           for names in TABLE_FIELDS for name in names}
    out["counts"] = np.array([[getattr(t, names[0]).size for t in trajs]
                              for names in TABLE_FIELDS])
    return out


@dataclass(frozen=True)
class PassageTimes:
    """kappa_strict: first injection activity; t_weak: first visit to 0.

    t_weak <= kappa_strict always; both are math.inf when the event does not
    occur before the horizon.
    """

    kappa_strict: float
    t_weak: float


def first_passage_times(traj) -> PassageTimes:
    """Passage readings off one swept floored path.

    kappa is the first injection lump or the start of the first
    floor-pinned stretch with a positive injection density, which is where
    the refracted path without the floor first goes strictly below 0;
    t_weak is the first lump or knot where the path sits at 0, its first
    visit.  These are the strict and weak clocks of the randomized passage
    and the splice time of the value estimators, which read the same times
    off path_engine.floored_lane_sweep (euler_lane_flows on the Euler
    engine).
    """
    lumps = traj.r_atom_t[traj.r_atom > 0]
    lump = float(lumps[0]) if lumps.size else math.inf
    pinned = np.flatnonzero(traj.seg_rrate > 0)
    kappa = min(lump, float(traj.seg_t[pinned[0]]) if pinned.size else math.inf)
    at_zero = np.flatnonzero(traj.seg_v == 0.0)
    t_weak = min(lump, float(traj.seg_t[at_zero[0]]) if at_zero.size else math.inf)
    return PassageTimes(kappa_strict=kappa, t_weak=min(t_weak, kappa))


@dataclass(frozen=True)
class FloorDecomposition:
    """Running-infimum decomposition of a floored path.

    infimum_at(t) = boundary_integral_at(t) + initial_part + jump_sum_at(t),
    and reflected value = driver value - infimum.  Occupation intervals store
    the driver slope active while the reflected path sat at the floor; only
    negative slopes contribute to the boundary integral.
    """

    reflected: object
    initial_part: float
    occupation_t0: np.ndarray
    occupation_t1: np.ndarray
    occupation_rate: np.ndarray
    atom_t: np.ndarray
    atom: np.ndarray  # each entry is (reflected left limit + jump) wedge 0, so <= 0

    def boundary_integral_at(self, t):
        t = np.asarray(t, dtype=float)
        dur = np.clip(np.minimum(t[..., None], self.occupation_t1) - self.occupation_t0, 0.0, None)
        return np.sum(np.minimum(self.occupation_rate, 0.0) * dur, axis=-1)

    def jump_sum_at(self, t):
        t = np.asarray(t, dtype=float)
        if not self.atom_t.size:
            return np.zeros(t.shape)
        cum = np.cumsum(self.atom)
        i = np.searchsorted(self.atom_t, t, side="right")
        return np.where(i > 0, cum[np.maximum(i - 1, 0)], 0.0)

    def infimum_at(self, t):
        return self.boundary_integral_at(t) + self.initial_part + self.jump_sum_at(t)


def floor_decomposition(traj, path) -> FloorDecomposition:
    """Decompose the reflection infimum of traj, the floored sweep of path."""
    pinned = traj.seg_rrate > 0
    rest = (traj.seg_branch == BRANCH_FLOOR) & ~pinned
    occ = pinned | rest
    t0 = traj.seg_t[occ]
    t1 = np.append(traj.seg_t[1:], traj.horizon)[occ]
    # driver slope while at the floor: injections accrue at its negative part
    rate = np.where(pinned[occ], -traj.seg_rrate[occ], 0.0)
    init = min(path.x0, 0.0)
    at0 = traj.r_atom_t == 0.0
    jump_t = traj.r_atom_t[~at0]
    jump_v = -traj.r_atom[~at0]
    return FloorDecomposition(
        reflected=traj,
        initial_part=init,
        occupation_t0=t0,
        occupation_t1=t1,
        occupation_rate=rate,
        atom_t=jump_t,
        atom=jump_v,
    )


def running_floor_reflection(path) -> FloorDecomposition:
    """Reflect an event path at 0 by its running infimum and decompose the
    infimum."""
    return floor_decomposition(_sweep(path, math.inf, 1.0, False, floor=True), path)


@dataclass(frozen=True)
class SegmentCurve:
    """Piecewise-linear cadlag curve: value(t) = seg_v[i] + seg_slope[i]*(t - seg_t[i]).

    seg_t is strictly increasing and starts at 0; discontinuities appear as a
    mismatch between the end of one segment and the start of the next.
    """

    horizon: float
    seg_t: np.ndarray
    seg_v: np.ndarray
    seg_slope: np.ndarray


def _index(curve, t):
    return np.clip(np.searchsorted(curve.seg_t, t, side="right") - 1, 0, len(curve.seg_t) - 1)


def value_at(curve, t):
    """The value of a RefractedPath or SegmentCurve at t."""
    t = np.asarray(t, dtype=float)
    i = _index(curve, t)
    return curve.seg_v[i] + curve.seg_slope[i] * (t - curve.seg_t[i])


def left_limit_at(curve, t):
    t = np.asarray(t, dtype=float)
    i = np.clip(np.searchsorted(curve.seg_t, t, side="left") - 1, 0, len(curve.seg_t) - 1)
    return curve.seg_v[i] + curve.seg_slope[i] * (t - curve.seg_t[i])


def end_value(curve) -> float:
    return float(curve.seg_v[-1] + curve.seg_slope[-1] * (curve.horizon - curve.seg_t[-1]))


def running_inf_of_neg_part(curve, ts):
    """inf over [0, t] of (value(s) and 0), exactly, for ascending ts.

    Linear pieces attain extrema at endpoints, so the running infimum is
    the cumulative minimum over segment starts/ends plus the partial
    current segment.
    """
    starts = curve.seg_v
    ends = np.append(curve.seg_v[:-1] + curve.seg_slope[:-1] * np.diff(curve.seg_t),
                     end_value(curve))
    closed = np.minimum.accumulate(np.minimum(np.minimum(starts, ends), 0.0))
    ts = np.asarray(ts, dtype=float)
    i = _index(curve, ts)
    partial = np.minimum(curve.seg_v[i],
                         curve.seg_v[i] + curve.seg_slope[i] * (ts - curve.seg_t[i]))
    prev = np.where(i > 0, closed[np.maximum(i - 1, 0)], 0.0)
    return np.minimum(prev, np.minimum(partial, 0.0))


def _cum_rate(traj, rates, atom_t, atom, t):
    dt = np.append(np.diff(traj.seg_t), traj.horizon - traj.seg_t[-1])
    # the final entry is never indexed; keep an infinite-horizon tail out
    dt = np.where(np.isfinite(dt), dt, 0.0)
    cum = np.concatenate(([0.0], np.cumsum(rates * dt)))
    t = np.asarray(t, dtype=float)
    i = _index(traj, t)
    out = cum[i] + rates[i] * (t - traj.seg_t[i])
    if atom_t.size:
        out = out + np.cumsum(atom)[np.clip(
            np.searchsorted(atom_t, t, side="right") - 1, -1, len(atom) - 1)] * (
            np.searchsorted(atom_t, t, side="right") > 0)
    return out


def dividends_at(traj, t):
    """Cumulative dividends L_t of a RefractedPath."""
    return _cum_rate(traj, traj.seg_lrate, traj.l_atom_t, traj.l_atom, t)


def injections_at(traj, t):
    """Cumulative injections R_t of a RefractedPath."""
    return _cum_rate(traj, traj.seg_rrate, traj.r_atom_t, traj.r_atom, t)


def dividend_integral_path(traj) -> SegmentCurve:
    """The cumulative dividend stream L as a continuous segment curve."""
    dt = np.append(np.diff(traj.seg_t), traj.horizon - traj.seg_t[-1])
    cum = np.concatenate(([0.0], np.cumsum(traj.seg_lrate * dt)))[:-1]
    return SegmentCurve(traj.horizon, traj.seg_t, cum, traj.seg_lrate)


def construction_identity_residual(path, traj) -> float:
    """Max residual of the pathwise construction identity at segment times.

    The floored trajectory must equal the dividend-depleted driver minus the
    running infimum of its negative part; this recomputes the right side
    independently of the sweep's own injection bookkeeping.
    """
    lcurve = dividend_integral_path(traj)
    # A = X - L as a segment curve aligned with traj segments
    ts = traj.seg_t
    a_v = path.value_at(ts) - value_at(lcurve, ts)
    a_slope = np.full(len(ts), path.drift) - traj.seg_lrate
    acurve = SegmentCurve(traj.horizon, ts, a_v, a_slope)
    probe = np.unique(np.concatenate((ts, path.times, [traj.horizon])))
    inf_part = running_inf_of_neg_part(acurve, probe)
    recon = value_at(acurve, probe) - inf_part
    return float(np.max(np.abs(recon - value_at(traj, probe))))


def fixed_cap_violations(traj, alpha: float, tol: float = EXACT_TOL):
    """For b = 0 with drift above the cap, dividends accrue at the cap rate
    exactly: L_t = alpha * t for all t."""
    blk = _Block([traj])
    resid = np.abs(blk.readings[0].l - alpha * blk.t)
    return blk.violations([("cap_rate_dividends", resid, resid > tol)])
