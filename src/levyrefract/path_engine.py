"""Exact pathwise transforms on bounded-variation paths.

One event-driven sweep over piecewise-linear cadlag trajectories serves
every transform here: refraction at a threshold b, reflection at the floor
0, the combined refracted-reflected construction, and their alpha = inf
limits (reflection at b from above, and the two-sided band on [0, b]), in
which an overshoot above b is paid at once as a lump dividend.  The running
infimum of the floored path is decomposed into boundary time, initial part,
and jump top-ups.
Crossing times of linear segments are solved in closed form, so the only
error is float arithmetic; identity checks use absolute tolerance 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .levy_model import CaseLabel, EventPath, InvalidParameter

EXACT_TOL = 1e-12


class UnsupportedModel(RuntimeError):
    """Exact transform requested for a path the exact engine cannot carry."""


class InvalidBarrier(ValueError):
    """Reflection barrier must be non-negative."""


# branch codes recorded per segment
BRANCH_INTERIOR = 0   # below b, free motion at rate delta
BRANCH_ABOVE = 1      # above b, draining at delta - alpha
BRANCH_AT_B = 2       # sticky at b (Case 2)
BRANCH_FLOOR = 3      # pinned at 0


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

    def _index(self, t):
        return np.clip(np.searchsorted(self.seg_t, t, side="right") - 1, 0, len(self.seg_t) - 1)

    def value_at(self, t):
        t = np.asarray(t, dtype=float)
        i = self._index(t)
        return self.seg_v[i] + self.seg_slope[i] * (t - self.seg_t[i])

    def left_limit_at(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.seg_t, t, side="left") - 1, 0, len(self.seg_t) - 1)
        return self.seg_v[i] + self.seg_slope[i] * (t - self.seg_t[i])

    def end_value(self) -> float:
        return float(self.seg_v[-1] + self.seg_slope[-1] * (self.horizon - self.seg_t[-1]))

    def segment_times(self) -> np.ndarray:
        return self.seg_t

    def running_inf_of_neg_part(self, ts):
        """inf over [0, t] of (value(s) and 0), exactly, for ascending ts.

        Linear pieces attain extrema at endpoints, so the running infimum is
        the cumulative minimum over segment starts/ends plus the partial
        current segment.
        """
        starts = self.seg_v
        ends = np.append(self.seg_v[:-1] + self.seg_slope[:-1] * np.diff(self.seg_t),
                         self.end_value())
        closed = np.minimum.accumulate(np.minimum(np.minimum(starts, ends), 0.0))
        ts = np.asarray(ts, dtype=float)
        i = self._index(ts)
        partial = np.minimum(self.seg_v[i], self.seg_v[i] + self.seg_slope[i] * (ts - self.seg_t[i]))
        prev = np.where(i > 0, closed[np.maximum(i - 1, 0)], 0.0)
        return np.minimum(prev, np.minimum(partial, 0.0))


@dataclass(frozen=True)
class RefractedPath(SegmentCurve):
    """Refracted (optionally floored) trajectory with regime bookkeeping.

    seg_branch holds the branch code of each segment, seg_lrate/seg_rrate the
    dividend and injection densities active on it.  Atom arrays carry lump
    injections (jump top-ups, and the initial top-up when the start is
    negative) and, in the alpha = inf reflection limits, lump dividends.
    """

    x0_minus: float = 0.0
    seg_branch: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    seg_lrate: np.ndarray = field(default_factory=lambda: np.empty(0))
    seg_rrate: np.ndarray = field(default_factory=lambda: np.empty(0))
    crossing_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    r_atom_t: np.ndarray = field(default_factory=lambda: np.empty(0))
    r_atom: np.ndarray = field(default_factory=lambda: np.empty(0))
    l_atom_t: np.ndarray = field(default_factory=lambda: np.empty(0))
    l_atom: np.ndarray = field(default_factory=lambda: np.empty(0))

    def _cum_rate(self, rates, atom_t, atom, t):
        dt = np.append(np.diff(self.seg_t), self.horizon - self.seg_t[-1])
        # the final entry is never indexed; keep an infinite-horizon tail out
        dt = np.where(np.isfinite(dt), dt, 0.0)
        cum = np.concatenate(([0.0], np.cumsum(rates * dt)))
        t = np.asarray(t, dtype=float)
        i = self._index(t)
        out = cum[i] + rates[i] * (t - self.seg_t[i])
        if atom_t.size:
            out = out + np.cumsum(atom)[np.clip(
                np.searchsorted(atom_t, t, side="right") - 1, -1, len(atom) - 1)] * (
                np.searchsorted(atom_t, t, side="right") > 0)
        return out

    def dividends_at(self, t):
        """Cumulative dividends L_t."""
        return self._cum_rate(self.seg_lrate, self.l_atom_t, self.l_atom, t)

    def injections_at(self, t):
        """Cumulative injections R_t."""
        return self._cum_rate(self.seg_rrate, self.r_atom_t, self.r_atom, t)

    def discounted_flow(self, q: float, horizon=None) -> tuple:
        """(integral e^{-qt} dL, integral e^{-qt} dR) over [0, horizon], in
        closed form.

        horizon is a stop time at most the path horizon; atoms at the stop
        time are included.  None integrates to the path horizon; math.inf
        extends the final segment forever (only meaningful for jump-free
        deterministic paths, the caller is responsible).
        """
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


@dataclass(frozen=True)
class FloorDecomposition:
    """Running-infimum decomposition of a floored path.

    infimum_at(t) = boundary_integral_at(t) + initial_part + jump_sum_at(t),
    and reflected value = driver value - infimum.  Occupation intervals store
    the driver slope active while the reflected path sat at the floor; only
    negative slopes contribute to the boundary integral.
    """

    reflected: RefractedPath
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


class _SegRecorder:
    def __init__(self):
        self.t, self.v, self.slope = [], [], []
        self.branch, self.lrate, self.rrate = [], [], []

    def add(self, t, v, slope, branch, lrate, rrate):
        if self.t and t == self.t[-1]:
            # zero-length segment: overwrite instead of duplicating the knot
            self.v[-1], self.slope[-1] = v, slope
            self.branch[-1], self.lrate[-1], self.rrate[-1] = branch, lrate, rrate
            return
        self.t.append(t)
        self.v.append(v)
        self.slope.append(slope)
        self.branch.append(branch)
        self.lrate.append(lrate)
        self.rrate.append(rrate)


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


def _sweep(path: EventPath, b, alpha, sticky: bool, floor: bool) -> RefractedPath:
    """The event sweep behind every transform: refraction at rate alpha above
    b, optionally reflected at the floor 0.

    b = math.inf sets no threshold.  alpha = math.inf is the reflection limit:
    an overshoot above b, at the start or after a jump, is paid at once as a
    lump dividend, so the path never sits above b.
    """
    delta = path.drift
    horizon = path.horizon
    band = alpha == math.inf
    rec = _SegRecorder()
    crossings = []
    r_atom_t, r_atom, l_atom_t, l_atom = [], [], [], []
    t = 0.0
    z = path.x0
    if band and z > b:
        l_atom_t.append(0.0)
        l_atom.append(z - b)
        z = b
    if floor and z < 0.0:
        r_atom_t.append(0.0)
        r_atom.append(-z)
        z = 0.0
    events = list(zip(path.times, path.sizes)) + [(horizon, None)]
    for te, sz in events:
        while True:
            slope, lr, rr, br = _regime(z, b, alpha, delta, sticky, floor)
            target = _next_target(z, slope, b, floor)
            t_cross = t + (target - z) / slope if target is not None else math.inf
            rec.add(t, z, slope, br, lr, rr)
            if t_cross < te:
                crossings.append(t_cross)
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
    return RefractedPath(
        horizon=horizon,
        seg_t=np.asarray(rec.t),
        seg_v=np.asarray(rec.v),
        seg_slope=np.asarray(rec.slope),
        x0_minus=path.x0,
        seg_branch=np.asarray(rec.branch, dtype=int),
        seg_lrate=np.asarray(rec.lrate),
        seg_rrate=np.asarray(rec.rrate),
        crossing_times=np.asarray(crossings),
        r_atom_t=np.asarray(r_atom_t),
        r_atom=np.asarray(r_atom),
        l_atom_t=np.asarray(l_atom_t),
        l_atom=np.asarray(l_atom),
    )


def _require_event_path(path):
    if not isinstance(path, EventPath):
        raise UnsupportedModel("exact transforms need an event path (sigma = 0 model)")


def refract_exact(path: EventPath, b: float, alpha: float, case: CaseLabel) -> RefractedPath:
    """Refracted trajectory: dividends at rate alpha skimmed above b.

    In Case 2 the trajectory sticks at b (the drift exactly cancels there);
    in Case 1 the threshold is crossed transversally.
    """
    _require_event_path(path)
    if not (alpha > 0) or alpha == math.inf:
        raise InvalidParameter("alpha", "refraction needs finite alpha > 0")
    return _sweep(path, float(b), float(alpha), case.is_case2, floor=False)


def refracted_reflected_exact(path: EventPath, b, alpha, case: CaseLabel):
    """Refraction above b combined with reflection at 0.

    Returns the floored trajectory and the decomposition of its reflection
    infimum.  For b = 0 this is the reflection of the alpha-killed path, with
    the sticky dividend rate at the origin in Case 2.
    """
    _require_event_path(path)
    if b < 0:
        raise InvalidBarrier("barrier must be >= 0")
    if not (alpha > 0) or alpha == math.inf:
        raise InvalidParameter("alpha", "finite alpha required; use reflect_two_sided for alpha = inf")
    traj = _sweep(path, float(b), float(alpha), case.is_case2, floor=True)
    return traj, _decomposition_from(traj, path)


def reflect_two_sided(path: EventPath, b) -> RefractedPath:
    """Double-barrier trajectory on [0, b]: the alpha = infinity limit."""
    _require_event_path(path)
    if b < 0:
        raise InvalidBarrier("barrier must be >= 0")
    return _sweep(path, float(b), math.inf, path.drift > 0, floor=True)


def reflect_from_above(path: EventPath, b) -> RefractedPath:
    """Path reflected at b from above only (running-supremum pushdown)."""
    _require_event_path(path)
    return _sweep(path, float(b), math.inf, path.drift > 0, floor=False)


def _decomposition_from(traj: RefractedPath, path: EventPath) -> FloorDecomposition:
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


def running_floor_reflection(path: EventPath) -> FloorDecomposition:
    """Reflect an event path at 0 by its running infimum and decompose the
    infimum."""
    _require_event_path(path)
    traj = _sweep(path, math.inf, 1.0, False, floor=True)
    return _decomposition_from(traj, path)


def infimum_decomposition(path: EventPath, delta: float) -> FloorDecomposition:
    """Three-part split of the running infimum of a constant-drift path.

    delta must be the inter-jump drift of the path; the three components are
    the boundary-time integral (only when delta < 0), the initial part
    x0 wedge 0, and the jump top-up sum.
    """
    _require_event_path(path)
    if abs(delta - path.drift) > EXACT_TOL:
        raise InvalidParameter("delta", "delta must match the path drift")
    return running_floor_reflection(path)


def dividend_integral_path(traj: RefractedPath) -> SegmentCurve:
    """The cumulative dividend stream L as a continuous segment curve."""
    dt = np.append(np.diff(traj.seg_t), traj.horizon - traj.seg_t[-1])
    cum = np.concatenate(([0.0], np.cumsum(traj.seg_lrate * dt)))[:-1]
    return SegmentCurve(traj.horizon, traj.seg_t, cum, traj.seg_lrate)


def construction_identity_residual(path: EventPath, traj: RefractedPath) -> float:
    """Max residual of the pathwise construction identity at segment times.

    The floored trajectory must equal the dividend-depleted driver minus the
    running infimum of its negative part; this recomputes the right side
    independently of the sweep's own injection bookkeeping.
    """
    lcurve = dividend_integral_path(traj)
    # A = X - L as a segment curve aligned with traj segments
    ts = traj.seg_t
    a_v = path.value_at(ts) - lcurve.value_at(ts)
    a_slope = np.full(len(ts), path.drift) - traj.seg_lrate
    acurve = SegmentCurve(traj.horizon, ts, a_v, a_slope)
    probe = np.unique(np.concatenate((ts, path.times, [traj.horizon])))
    inf_part = acurve.running_inf_of_neg_part(probe)
    recon = acurve.value_at(probe) - inf_part
    return float(np.max(np.abs(recon - traj.value_at(probe))))
