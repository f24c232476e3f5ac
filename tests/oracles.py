"""The one-path reference formats and readers, the one-path scalar sweep,
and test-only checks and fixtures.

EventPath is one exact path: the hand-built path format of the tests, and
the reference reader of one column of levy_model.EventColumns
(event_paths).  Its to_grid gives the path's increments on a uniform grid,
the reference for euler_exact_gap's shared noise.

_sweep is the event sweep of path_engine.event_steps written for one
EventPath on Python floats, with the arithmetic of numpy float64; it
appends each segment as it starts, with its slope and rates, and each
lump as an atom, with its time.  The whole regime rule it steps by is
written apart from the src one, path_engine._regime_table: _regime gives
the slope, rates and branch of a state, _next_target the level the drift
heads for, and sticks whether the path sticks at b, which _sweep takes as
a flag; a guard test keeps them off every src function.  The tests hold
every SegmentTable of path_engine.trajectory_table to _sweep bit for bit,
and the regime table to _regime and _next_target.  reference_table joins its
trajectories of several paths into the rows of a SegmentTable (table_rows):
each atom added onto the knot at its time, and each segment's slope and
rates as the table's rates give them by branch.
first_passage_times reads the two passage clocks off every path of a
floored table at once, and floor_decomposition splits the running infimum
of a floored path into boundary time, initial part and jump top-ups.

The randomized passage clock of the paper's theorem (Kyprianou, Loeffen and
Perez, J. Appl. Prob. 2012) is an oracle here: estimate_underline_nu and
solve_pstar read the strict and weak passages per chunk off the
trajectory_table of the estimators' own draws, with first_passage_times,
and regress on the martingale control by numpy's two-pass moments.  They
share the event sweep with the value estimators, not its lane reader, so
acceptance test_09 holds the value curve's slope against a second reader.
value_shape_check tests an estimated value curve against the shape the
theorem gives it.

path_engine.read_segments reads a block of trajectories at once; the
readers here read one path, or a SegmentCurve, with a searchsorted and a
cumsum per call, and the tests hold the block reader to them bit for bit.
They take a RefractedPath or a one-path SegmentTable, which read alike:
slopes and rates by branch, lumps on the knots.  The construction
identity residual recomputes a floored trajectory from its driver and
dividends, independently of the sweep's injection bookkeeping, and
budget_residual checks the budget of a ControlledTrajectory.
draw_random_bv_setup draws the random models of the randomized sweeps,
and reference_config_text reads a shipped config
with some of its keys set.  concatenated_grid_increments bins each jump
draw of the grid sampler, a window's or the whole horizon's, in one
np.add.at, the reference for the sampler's window order and its binning
of each component as it is drawn, and
column_sorted_columns is the exact sampler that sorted columns, the
reference of the one that sorts path-major rows.  euler_exact_gap
measures the Euler recursion against the exact trajectories on shared
noise, and euler_knots reads the block-stepped recursion knot by knot.
"""

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from levyrefract.estimation import BATCH, CHUNK, CONTROL_RTOL, McEstimate
from levyrefract.levy_model import (
    TILE_KNOTS, EventColumns, Exponential, InvalidParameter, JumpDiffusionSpec, PointMass,
    Uniform, Weibull, _compensated_drift, _jump_draw, mean_drift, sample_path,
)
from levyrefract.path_engine import (
    BRANCH_ABOVE, BRANCH_AT_B, BRANCH_FLOOR, BRANCH_INTERIOR, read_segments, trajectory_table,
)
from levyrefract.properties_oracle import EXACT_TOL, Violation, _Block, _Checked
from levyrefract.strategy_engine import StrategyParams, _floored_euler, apply_strategy_exact

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def event_paths(columns, x0=0.0) -> list:
    """The m paths of an EventColumns, each started at x0, as EventPaths."""
    return [EventPath(x0, columns.horizon, columns.drift, columns.times[:c, i],
                      columns.sizes[:c, i])
            for i, c in enumerate(columns.counts.tolist())]


def columns_side_by_side(parts):
    """EventColumns laid side by side by copying each whole: every part's
    rows padded to the tallest with (horizon, 0) rows, then joined.  The
    reference for EventColumns.side_by_side, and the copy construction
    that swept one draw from a second start before a start was a lane's."""
    top = max(len(c.times) for c in parts)
    times, sizes = (np.hstack([np.vstack((getattr(c, name), np.full(
        (top - len(c.times), c.counts.size), fill))) for c in parts])
        for name, fill in (("times", parts[0].horizon), ("sizes", 0.0)))
    return EventColumns(parts[0].horizon, parts[0].drift,
                        np.concatenate([c.counts for c in parts]), times, sizes)


# the per-segment rows of a SegmentTable, which reference_table gives
TABLE_ROWS = ("seg_t", "seg_v", "seg_branch", "seg_llump", "seg_rlump")


@dataclass(frozen=True)
class RefractedPath:
    """The trajectory _sweep records for one path: each segment with its
    slope and rates, and each lump as an atom, its time and size, in the
    order paid.  It reads as a one-path SegmentTable: rates gives the
    segments' slope and rates by branch code, and seg_llump and seg_rlump
    add each atom onto the knot at its time."""

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

    @property
    def counts(self) -> np.ndarray:
        """The (1,) counts of the one-path SegmentTable it mirrors."""
        return np.array([self.seg_t.size])

    @property
    def rates(self) -> np.ndarray:
        """(slope, dividend rate, injection rate) by branch code, (3, 4),
        zero for a branch no segment takes; raises if two segments of one
        branch differ in a bit."""
        rows, out = np.stack((self.seg_slope, self.seg_lrate, self.seg_rrate)), np.zeros((3, 4))
        out[:, self.seg_branch] = rows
        if out[:, self.seg_branch].tobytes() != rows.tobytes():
            raise AssertionError("a branch with two sets of rates")
        return out

    def _on_knots(self, atom_t, atom) -> np.ndarray:
        """The atoms added onto the knots at their times, one by one in the
        order paid, from 0.0; raises if an atom falls off every knot."""
        knots = {t: k for k, t in enumerate(self.seg_t.tolist())}
        out = [0.0] * len(knots)
        for t, a in zip(atom_t.tolist(), atom.tolist()):
            out[knots[t]] += a  # KeyError off the knots
        return np.array(out)

    @property
    def seg_llump(self) -> np.ndarray:
        return self._on_knots(self.l_atom_t, self.l_atom)

    @property
    def seg_rlump(self) -> np.ndarray:
        return self._on_knots(self.r_atom_t, self.r_atom)

    def discounted_flow(self, q: float, horizon=None) -> tuple:
        """(integral e^{-qt} dL, integral e^{-qt} dR) over [0, horizon],
        lumps at horizon included, in closed form: the segment terms and
        then the lump terms of the knots added one by one, in time order."""
        t_end = self.horizon if horizon is None else horizon
        t0 = np.minimum(self.seg_t, t_end)
        t1 = np.minimum(np.append(self.seg_t[1:], self.horizon), t_end)
        w = (np.exp(-q * t0) - np.exp(-q * t1)) / q
        flows = []
        for rate, lump in ((self.seg_lrate, self.seg_llump), (self.seg_rrate, self.seg_rlump)):
            keep = self.seg_t <= t_end
            total = 0.0
            for term in np.concatenate((rate * w, np.exp(-q * self.seg_t[keep]) * lump[keep])):
                total += term
            flows.append(float(total))
        return tuple(flows)


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
    # a bound reached is held at its own zero: -0.0 at b = 0.0 or at the
    # floor becomes 0.0, as np.minimum and np.maximum return the bound
    if band and z >= b:
        if z > b:
            l_atom_t.append(0.0)
            l_atom.append(z - b)
        z = b
    if floor and z <= 0.0:
        if z < 0.0:
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
        if band and z >= b:
            if z > b:
                l_atom_t.append(te)
                l_atom.append(z - b)
            z = b
        if floor and z <= 0.0:
            if z < 0.0:
                r_atom_t.append(te)
                r_atom.append(-z)
            z = 0.0
    # the lists in the order of the RefractedPath fields, the branch codes int8
    return RefractedPath(horizon, *map(np.asarray, (seg_t, seg_v, seg_slope)),
                         np.asarray(seg_branch, dtype=np.int8), *map(np.asarray, (
                             seg_lrate, seg_rrate, r_atom_t, r_atom, l_atom_t, l_atom)))


def sticks(path, alpha) -> bool:
    """Case 2, written apart from levy_model.is_case2: a refracted path
    sticks at b when its drift lies in [0, alpha]."""
    return 0.0 <= path.drift <= alpha


def table_rows(table) -> dict:
    """The rows of a SegmentTable or RefractedPath, one entry per segment:
    TABLE_ROWS, and seg_rates, the (3, n) slope and rates of each segment
    by its branch; and counts."""
    out = {name: getattr(table, name) for name in TABLE_ROWS + ("counts",)}
    out["seg_rates"] = table.rates[:, table.seg_branch]
    return out


def reference_table(paths, b, alpha, floor: bool):
    """The _sweep trajectories of paths joined end to end as the table_rows
    of a SegmentTable, each path's atoms added onto its knots."""
    rows = [table_rows(_sweep(p, float(b), float(alpha), sticks(p, alpha), floor))
            for p in paths]
    return {name: np.concatenate([r[name] for r in rows], axis=-1) for name in rows[0]}


def lump_atoms(traj, lumps):
    """The (times, sizes) of the lumps above 0 of a one-path table, lumps
    its seg_llump or seg_rlump."""
    paid = lumps > 0.0
    return traj.seg_t[paid], lumps[paid]


def edge_paths(horizon):
    """Paths without events, with an event at 0 on a start below the floor
    (two injection atoms at 0), and with an event at the horizon."""
    return [EventPath(0.5, horizon, 0.3), EventPath(-0.3, horizon, -0.4),
            EventPath(-0.5, horizon, 0.2, [0.0, 1.0], [-0.4, 2.5]),
            EventPath(2.5, horizon, 0.2, [0.5, horizon], [-0.7, 3.0])]


class PassageTimes(NamedTuple):
    """kappa_strict: first injection activity; t_weak: first visit to 0,
    one entry per path.

    t_weak <= kappa_strict always; both are math.inf when the event does not
    occur before the horizon.
    """

    kappa_strict: np.ndarray
    t_weak: np.ndarray


def first_passage_times(traj) -> PassageTimes:
    """Passage readings off every path of a swept floored table, or of one
    RefractedPath, at once.

    kappa is the first knot with an injection lump or the start of the
    first floor-pinned stretch with a positive injection density, which is
    where the refracted path without the floor first goes strictly below 0;
    t_weak is the first knot with an injection lump or where the path sits
    at 0, its first visit.  These are the strict and weak clocks of the
    randomized passage; t_weak is the splice time of the value estimators,
    which read it off path_engine.floored_lane_sweep (euler_lane_flows on
    the Euler engine).
    The knots of each path are in time order, so its first hit is the
    first knot of its run among the hits.
    """
    n = traj.counts

    def first(hit):
        out, path = np.full(n.size, math.inf), np.repeat(np.arange(n.size), n)[hit]
        new = np.flatnonzero(np.diff(path, prepend=-1))
        out[path[new]] = traj.seg_t[hit][new]
        return out

    lump = traj.seg_rlump > 0
    kappa = first(lump | (traj.rates[2, traj.seg_branch] > 0))
    return PassageTimes(kappa, np.minimum(first(lump | (traj.seg_v == 0.0)), kappa))


class DegenerateDenominator(RuntimeError):
    """The two passage transforms coincide; the affine equation has no root."""


def clock_readings(params: StrategyParams, spec, x: float, horizon: float, n: int,
                   stream):
    """The strict and weak passage times and the control c of the floored
    strategy started at x, on the n exact paths the estimators draw: chunk
    ci's CHUNK paths at 0 on stream.for_path(ci), shifted by x, swept
    BATCH chunks side by side.  c is the discounted compensated driver up
    to the weak passage (the horizon if none), summed over the padded event
    columns."""
    mu, q, chunks = mean_drift(spec), params.q, -(-n // CHUNK)
    out = []
    for c0 in range(0, chunks, BATCH):
        cols = columns_side_by_side([
            sample_path(spec, horizon, min(CHUNK, n - ci * CHUNK), stream.for_path(ci))
            for ci in range(c0, min(c0 + BATCH, chunks))])
        (table,) = trajectory_table(cols, x, params.b, params.alpha, True)
        kappa, tau = first_passage_times(table)
        stop = np.minimum(tau, horizon)
        jumps = np.sum(np.exp(-q * cols.times) * cols.sizes * (cols.times <= stop), axis=0)
        out.append((kappa, tau, jumps - (mu - cols.drift) * -np.expm1(-q * stop) / q))
    return (np.concatenate(a) for a in zip(*out))


def controlled_estimate(g, c, censored) -> McEstimate:
    """The mean of g and its SE, controlled by c: numpy's two-pass
    regression on n - 2 degrees of freedom, or the plain mean and its
    n - 1 variance when n < 3 or c is constant to rounding."""
    n = g.size
    if n >= 3 and np.var(c) > CONTROL_RTOL * np.mean(c * c):
        g = g - np.cov(g, c)[0, 1] / np.var(c, ddof=1) * c
        se = math.sqrt(np.sum((g - g.mean()) ** 2) / (n - 2) / n)
    else:
        se = float(np.std(g, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return McEstimate(float(g.mean()), se, float(np.mean(censored)))


def estimate_underline_nu(x: float, bstar: float, p: float, params: StrategyParams, spec,
                          horizon: float, n: int, stream) -> McEstimate:
    """beta-scaled discounted randomized passage clock started at x, on the
    exact engine: the strict passage below 0 with probability p and the
    weak one otherwise, the randomization taken in closed form, beta * (p
    e^{-q kappa} + (1 - p) e^{-q tau})."""
    kappa, tau, c = clock_readings(replace(params, b=float(bstar)), spec, x, horizon, n, stream)
    g = params.beta * (p * np.exp(-params.q * kappa) + (1 - p) * np.exp(-params.q * tau))
    return controlled_estimate(g, c, (kappa == math.inf) | (tau == math.inf))


def solve_pstar(params: StrategyParams, spec, bstar: float, horizon: float, n: int,
                stream) -> float:
    """Randomization probability making the clock transform hit 1/beta.

    Started at the threshold: if even the strict clock keeps the transform
    at or above 1 (within 3 standard errors), the answer is 1.  Otherwise
    the affine interpolation between the weak and strict transforms is
    solved and clamped to [0, 1].
    """
    kappa, tau, c = clock_readings(replace(params, b=float(bstar)), spec, bstar, horizon, n,
                                   stream)
    strict, weak = (controlled_estimate(np.exp(-params.q * t), c, t == math.inf)
                    for t in (kappa, tau))
    beta, es, ew = params.beta, strict.mean, weak.mean
    if beta * es >= 1.0 - 3.0 * beta * strict.std_error:
        return 1.0
    if abs(ew - es) <= 3.0 * (strict.std_error + weak.std_error):
        raise DegenerateDenominator(
            "weak and strict transforms indistinguishable at this sample size")
    return float(min(1.0, max(0.0, (beta * ew - 1.0) / (beta * (ew - es)))))


def _flag(prop, ts, magnitude, bad):
    """A violation of prop at ts[i], of size magnitude[i], wherever bad[i]."""
    return [Violation(float(t), prop, float(m)) for t, m in zip(ts[bad], magnitude[bad])]


@dataclass(frozen=True)
class ShapeReport(_Checked):
    CHECKED = ("value_cap", "value_affine_below", "value_slope_cap", "value_concavity",
               "value_slope_below_one_inside", "value_slope_above_one_beyond")
    violations: tuple


def value_shape_check(xs, means, ses, params: StrategyParams, bstar: float,
                      slack_se: float = 3.0) -> ShapeReport:
    """Shape of an estimated value curve on an x grid.

    Checks the global bound alpha/q, concavity of the increments within
    noise, slope bounds (at most beta everywhere, at least 1 up to the
    threshold, at most 1 beyond), and exact affinity with slope beta below
    0 where the estimator extends linearly.
    """
    xs = np.asarray(xs, dtype=float)
    means = np.asarray(means, dtype=float)
    ses = np.asarray(ses, dtype=float)
    cap = params.alpha / params.q if params.alpha != math.inf else math.inf
    over = means - (cap + slack_se * ses)
    out = _flag("value_cap", xs, over, over > 0)
    h = np.diff(xs)
    slopes = np.diff(means) / h
    sse = np.sqrt(ses[1:] ** 2 + ses[:-1] ** 2) / h
    neg = xs[1:] <= 0
    resid = np.abs(slopes[neg] - params.beta)
    out += _flag("value_affine_below", xs[1:][neg], resid, resid > 1e-9)
    over = slopes - (params.beta + slack_se * sse)
    out += _flag("value_slope_cap", xs[1:], over, over > 0)
    dec = np.diff(slopes) - slack_se * np.sqrt(sse[1:] ** 2 + sse[:-1] ** 2)
    out += _flag("value_concavity", xs[2:], dec, dec > 0)
    mid = (xs[1:] + xs[:-1]) * 0.5
    under = (1.0 - slack_se * sse) - slopes
    out += _flag("value_slope_below_one_inside", mid, under,
                 (mid > 0) & (mid <= bstar) & (under > 0))
    over = slopes - (1.0 + slack_se * sse)
    out += _flag("value_slope_above_one_beyond", mid, over, (mid > bstar) & (over > 0))
    return ShapeReport(violations=tuple(out))


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
    rrate = traj.rates[2, traj.seg_branch]
    pinned = rrate > 0
    rest = (traj.seg_branch == BRANCH_FLOOR) & ~pinned
    occ = pinned | rest
    t0 = traj.seg_t[occ]
    t1 = np.append(traj.seg_t[1:], traj.horizon)[occ]
    # driver slope while at the floor: injections accrue at its negative part
    rate = np.where(pinned[occ], -rrate[occ], 0.0)
    init = min(path.x0, 0.0)
    # the top-ups after time 0
    jumps = (traj.seg_rlump > 0) & (traj.seg_t > 0.0)
    jump_t = traj.seg_t[jumps]
    jump_v = -traj.seg_rlump[jumps]
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


def slopes(curve) -> np.ndarray:
    """The slope of each segment of a SegmentCurve, or of a SegmentTable or
    RefractedPath by its branch."""
    if isinstance(curve, SegmentCurve):
        return curve.seg_slope
    return curve.rates[0, curve.seg_branch]


def _index(curve, t):
    return np.clip(np.searchsorted(curve.seg_t, t, side="right") - 1, 0, len(curve.seg_t) - 1)


def value_at(curve, t):
    """The value of a one-path table or a SegmentCurve at t."""
    t = np.asarray(t, dtype=float)
    i = _index(curve, t)
    return curve.seg_v[i] + slopes(curve)[i] * (t - curve.seg_t[i])


def left_limit_at(curve, t):
    t = np.asarray(t, dtype=float)
    i = np.clip(np.searchsorted(curve.seg_t, t, side="left") - 1, 0, len(curve.seg_t) - 1)
    return curve.seg_v[i] + slopes(curve)[i] * (t - curve.seg_t[i])


def end_value(curve) -> float:
    return float(curve.seg_v[-1] + slopes(curve)[-1] * (curve.horizon - curve.seg_t[-1]))


def running_inf_of_neg_part(curve, ts):
    """inf over [0, t] of (value(s) and 0), exactly, for ascending ts.

    Linear pieces attain extrema at endpoints, so the running infimum is
    the cumulative minimum over segment starts/ends plus the partial
    current segment.
    """
    slope = slopes(curve)
    starts = curve.seg_v
    ends = np.append(curve.seg_v[:-1] + slope[:-1] * np.diff(curve.seg_t), end_value(curve))
    closed = np.minimum.accumulate(np.minimum(np.minimum(starts, ends), 0.0))
    ts = np.asarray(ts, dtype=float)
    i = _index(curve, ts)
    partial = np.minimum(curve.seg_v[i], curve.seg_v[i] + slope[i] * (ts - curve.seg_t[i]))
    prev = np.where(i > 0, closed[np.maximum(i - 1, 0)], 0.0)
    return np.minimum(prev, np.minimum(partial, 0.0))


def _cum_rate(traj, rates, lumps, t):
    """The flow at rates per segment with lumps at the knots, up to t."""
    dt = np.append(np.diff(traj.seg_t), traj.horizon - traj.seg_t[-1])
    # the final entry is never indexed; keep an infinite-horizon tail out
    dt = np.where(np.isfinite(dt), dt, 0.0)
    cum = np.concatenate(([0.0], np.cumsum(rates * dt)))
    t = np.asarray(t, dtype=float)
    i = _index(traj, t)
    return cum[i] + rates[i] * (t - traj.seg_t[i]) + np.cumsum(lumps)[i]


def dividends_at(traj, t):
    """Cumulative dividends L_t of a one-path table."""
    return _cum_rate(traj, traj.rates[1, traj.seg_branch], traj.seg_llump, t)


def injections_at(traj, t):
    """Cumulative injections R_t of a one-path table."""
    return _cum_rate(traj, traj.rates[2, traj.seg_branch], traj.seg_rlump, t)


def dividend_integral_path(traj) -> SegmentCurve:
    """The cumulative dividend stream L as a continuous segment curve."""
    lrate = traj.rates[1, traj.seg_branch]
    dt = np.append(np.diff(traj.seg_t), traj.horizon - traj.seg_t[-1])
    cum = np.concatenate(([0.0], np.cumsum(lrate * dt)))[:-1]
    return SegmentCurve(traj.horizon, traj.seg_t, cum, lrate)


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
    a_slope = np.full(len(ts), path.drift) - traj.rates[1, traj.seg_branch]
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


def concatenated_grid_increments(spec, horizon, k, m, rng, tile=TILE_KNOTS):
    """The (m, k) grid increments of m paths in windows of tile steps, each
    jump draw concatenated and binned rightward in one np.add.at: with sigma
    > 0 each window's Gaussians, then the jump draw over its span, which
    ends at its last knot, the horizon for the last; with sigma = 0 the
    whole-horizon jump draw, on the whole matrix.  tile = k is the draw of
    the whole matrix at once."""
    dt = horizon / k
    drift = _compensated_drift(spec) * dt
    parts = []
    spans = [(k, horizon)] if spec.sigma == 0 or tile >= k else [
        (min(tile, k - i0), min(tile, k - i0) * dt) for i0 in range(0, k, tile)]
    for w, span in spans:
        if spec.sigma > 0:
            part = rng.standard_normal((m, w)) * (spec.sigma * math.sqrt(dt)) + drift
        else:
            part = np.full((m, w), drift)
        rows, times, sizes = (np.concatenate(a) for a in zip(
            (np.empty(0, dtype=int), np.empty(0), np.empty(0)), *_jump_draw(spec, span, m, rng)))
        np.add.at(part, (rows, np.clip(np.ceil(times / dt).astype(int) - 1, 0, w - 1)), sizes)
        parts.append(part)
    return np.concatenate(parts, axis=1)


def column_sorted_columns(spec, horizon, m, stream) -> EventColumns:
    """The exact sampler as it was before it sorted path-major rows: the
    whole jump draw concatenated and stably sorted by path, scattered into
    (width, m) columns padded with inf, each column sorted by time.  The
    bytes reference of sample_path(spec, horizon, m, stream)."""
    rows, times, sizes = (np.concatenate(a) for a in zip(
        (np.empty(0, dtype=int), np.empty(0), np.empty(0)),
        *_jump_draw(spec, horizon, m, stream.generator())))
    counts = np.bincount(rows, minlength=m)
    order = np.argsort(rows, kind="stable")
    rows, times, sizes = rows[order], times[order], sizes[order]
    cells = (np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]) * m + rows
    shape = (int(counts.max()) + 1, m)
    t, s = np.full(shape, math.inf), np.zeros(shape)
    np.put(t, cells, times)
    np.put(s, cells, sizes)
    by_time = np.argsort(t, axis=0)
    t, s = np.take_along_axis(t, by_time, 0), np.take_along_axis(s, by_time, 0)
    return EventColumns(horizon, _compensated_drift(spec), counts, np.minimum(t, horizon), s)


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


def reference_config_text(case: int, **keys) -> str:
    """configs/paper_case{case}.cfg with the given keys set: a key the file
    holds keeps its line, a new one is appended."""
    lines = []
    for line in (CONFIGS / ("paper_case%d.cfg" % case)).read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        lines.append("%s = %s" % (key, keys.pop(key)) if key in keys else line)
    return "\n".join(lines + ["%s = %s" % kv for kv in keys.items()]) + "\n"


def euler_exact_gap(columns, params: StrategyParams, x: float, k: int) -> np.ndarray:
    """Sup distance between the Euler recursion and the exact trajectory
    started at x, for each path of columns, over the knots 0..k-1 of a
    k-step grid: one read of the paths' swept table at knots 0..k gives the
    exact surplus and the driver X - x0, whose steps between knots are the
    Euler increments (shared noise), for one recursion pass over all the
    paths."""
    n, dt = columns.counts.size, columns.horizon / k
    (table,) = apply_strategy_exact(columns, x, params)
    (got,), driver = read_segments(
        [table], np.repeat(np.arange(n), k + 1), np.tile(np.arange(k + 1) * dt, n),
        (columns, 0.0))
    driver = driver.reshape(n, k + 1)
    driver[:, 0] = 0.0
    z = _floored_euler(x, params, np.diff(driver, axis=1), dt)[1]
    return np.max(np.abs(z - got.z.reshape(n, k + 1)[:, :k]), axis=1)


def euler_knots(steps, shape, pay):
    """The blocks of strategy_engine.euler_steps read knot by knot: per knot
    (state, dl, dr), each of the lane shape.  The lanes that a block does
    not step have state NaN there, and dl = pay (alpha * dt) for those
    that pay it at every knot.  Every array is new."""
    n = math.prod(shape)
    for _, lanes, *block, above in steps:
        for knot in zip(*block):
            out = (np.full(n, math.nan), np.zeros(n), np.zeros(n))
            out[1][above] = pay
            for o, v in zip(out, knot):
                o[lanes] = v
            yield tuple(o.reshape(shape) for o in out)
