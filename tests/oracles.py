"""The one-path reference formats and readers, the one-path scalar sweep,
and test-only checks and fixtures.

EventPath is one exact path: the hand-built path format of the tests, and
the reference reader of one column of levy_model.EventColumns
(event_paths).  Its to_grid gives the path's increments on a uniform grid,
the reference for strategy_engine.euler_exact_gap's shared noise.

_sweep is the event sweep of path_engine.event_steps written for one
EventPath on Python floats, with the arithmetic of numpy float64; it
appends each segment as it starts.  It takes whether the path sticks at b
as a flag, which sticks gives by a rule written apart from the src one.
The tests hold every SegmentTable of path_engine.trajectory_table to it
bit for bit.  reference_table joins its
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
injection bookkeeping, and budget_residual checks the budget of a
ControlledTrajectory.  draw_random_bv_setup draws the random models of the
randomized sweeps, and reference_config_text writes the reference
experiment as config text.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from levyrefract.cli_reporting import REFERENCE_GAMMA
from levyrefract.levy_model import (
    Exponential, InvalidParameter, JumpDiffusionSpec, PointMass, Uniform, Weibull,
)
from levyrefract.path_engine import (
    BRANCH_FLOOR, TABLE_FIELDS, _next_target, _regime,
)
from levyrefract.properties_oracle import EXACT_TOL, _Block
from levyrefract.strategy_engine import StrategyParams


@dataclass(frozen=True)
class EventPath:
    """Exact bounded-variation path: constant drift between timestamped jumps.

    Value at t is x0 + drift*t + sum of jumps at times <= t (right-continuous).
    """

    x0: float
    horizon: float
    drift: float
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    sizes: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.sizes, dtype=float)
        if t.size and not np.all(np.diff(t) > 0):
            raise InvalidParameter("times", "event times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "sizes", s)

    def value_at(self, t):
        """Right-continuous value X_t."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="right")
        jumps = np.concatenate(([0.0], np.cumsum(self.sizes)))
        return self.x0 + self.drift * t + jumps[idx]

    def to_grid(self, k: int) -> np.ndarray:
        """The k increments of the path on a uniform k-step grid
        (shared-noise discretization)."""
        dt = self.horizon / k
        vals = self.value_at(dt * np.arange(1, k + 1))
        return np.diff(np.concatenate(([self.x0], vals)))


def event_paths(columns) -> list:
    """The m paths of an EventColumns as EventPaths."""
    return [EventPath(x0, columns.horizon, columns.drift, columns.times[:c, i],
                      columns.sizes[:c, i])
            for i, (x0, c) in enumerate(zip(columns.x0.tolist(), columns.counts.tolist()))]


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
        """(integral e^{-qt} dL, integral e^{-qt} dR) over [0, horizon],
        atoms at horizon included, in closed form: the segment terms and
        then the atom terms added one by one, in time order.  At the
        trajectory's own horizon (None) SegmentTable.discounted_flow gives
        these flows per path, bit for bit."""
        t_end = self.horizon if horizon is None else horizon
        t0 = np.minimum(self.seg_t, t_end)
        t1 = np.minimum(np.append(self.seg_t[1:], self.horizon), t_end)
        w = (np.exp(-q * t0) - np.exp(-q * t1)) / q
        flows = []
        for rate, atom_t, atom in ((self.seg_lrate, self.l_atom_t, self.l_atom),
                                   (self.seg_rrate, self.r_atom_t, self.r_atom)):
            keep = atom_t <= t_end
            total = 0.0
            for term in np.concatenate((rate * w, np.exp(-q * atom_t[keep]) * atom[keep])):
                total += term
            flows.append(float(total))
        return tuple(flows)


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


def sticks(path, alpha) -> bool:
    """Case 2, written apart from levy_model.is_case2: a refracted path
    sticks at b when its drift lies in [0, alpha]."""
    return 0.0 <= path.drift <= alpha


def reference_table(paths, b, alpha, floor: bool):
    """The _sweep trajectories of paths joined end to end as the fields of
    a SegmentTable: a dict of each field and counts."""
    trajs = [_sweep(p, float(b), float(alpha), sticks(p, alpha), floor) for p in paths]
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


def budget_residual(traj) -> float:
    """Max |Z - (driver - L + R)| of a ControlledTrajectory over its sample
    grid."""
    return float(np.max(np.abs(traj.z - (traj.driver - traj.l + traj.r))))


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


def reference_config_text(case: int, n: int = 100_000, k: int = 10_000,
                          seed: int = 20260101) -> str:
    """The reference experiment of case 1 or 2 as config text."""
    sigma = 0 if case == 1 else 1
    bhi = 3.49 if case == 1 else 3.99
    return "\n".join([
        f"model.gamma = {REFERENCE_GAMMA!r}",
        f"model.sigma = {sigma}",
        "model.jump1.rate = 1.0",
        "model.jump1.sign = +1",
        "model.jump1.dist = uniform",
        "model.jump1.params = 0, 1",
        "model.jump2.rate = 1.0",
        "model.jump2.sign = -1",
        "model.jump2.dist = weibull",
        "model.jump2.params = 2, 1",
        "control.alpha = 0.5",
        "control.beta = 1.5",
        "control.q = 0.05",
        "grid.T = 100",
        f"grid.K = {k}",
        f"mc.N = {n}",
        f"mc.seed = {seed}",
        f"task.b_grid = -1:0.01:{bhi}",
        f"task.x_grid = -1:0.05:{bhi}",
        "task.alphas = 0.5, 2, 8, 32, inf",
        "task.x = 0.5",
        f"task.b = {1.66 if case == 1 else 2.15}",
    ]) + "\n"
