"""Controlled surplus trajectories under the threshold dividend strategy.

A strategy is (b, alpha, beta, q): dividends are paid at the cap rate alpha
while the controlled surplus exceeds b, and capital is injected to keep it
non-negative.  The exact engine delegates to the event sweeps in path_engine:
apply_strategy_exact returns the swept floored path itself, which the
estimators and the property oracle read directly, and only sample-path
samples it onto knots (ControlledTrajectory.from_exact).  The Euler engine
runs the discrete three-branch recursion on a time grid.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .levy_model import (
    EXACT,
    EventPath,
    GridPath,
    Grid,
    InvalidParameter,
    JumpDiffusionSpec,
    RngStream,
    sample_path,
)
from . import path_engine
from .path_engine import (
    BRANCH_ABOVE,
    BRANCH_AT_B,
    BRANCH_FLOOR,
    BRANCH_INTERIOR,
    RefractedPath,
    UnsupportedModel,
)


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
class PassageTimes:
    """kappa_strict: first injection activity; t_weak: first visit to 0.

    t_weak <= kappa_strict always; both are math.inf when the event does not
    occur before the horizon.
    """

    kappa_strict: float
    t_weak: float


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
    horizon: float
    params: StrategyParams
    kind: str  # "exact" or "euler"

    @classmethod
    def from_exact(cls, path: EventPath, traj: RefractedPath,
                   params: StrategyParams) -> "ControlledTrajectory":
        """Sample an exact trajectory and its driver path on the segment
        knots and the (finite) horizon."""
        times = np.append(traj.seg_t, path.horizon)
        branch = np.append(traj.seg_branch, traj.seg_branch[-1])
        return cls(
            times=times,
            z=traj.value_at(times),
            l=traj.dividends_at(times),
            r=traj.injections_at(times),
            branch=branch,
            driver=path.value_at(times),
            horizon=path.horizon,
            params=params,
            kind="exact",
        )

    def budget_residual(self) -> float:
        """Max |Z - (driver - L + R)| over the sample grid."""
        return float(np.max(np.abs(self.z - (self.driver - self.l + self.r))))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,Z,L,R,branch\n")
        for row in zip(self.times, self.z, self.l, self.r, self.branch):
            buf.write("%.17g,%.17g,%.17g,%.17g,%d\n" % row)
        return buf.getvalue()


def apply_strategy_exact(path: EventPath, params: StrategyParams, case) -> RefractedPath:
    """Run the threshold strategy along one event path, exactly: the swept
    floored trajectory.

    Finite alpha refracts above b and reflects at 0; alpha = inf degenerates
    to two-sided reflection on [0, b] with lump dividends.
    """
    if params.alpha == math.inf:
        return path_engine.reflect_two_sided(path, params.b)
    return path_engine.refracted_reflected_exact(path, params.b, params.alpha, case)[0]


def first_passage_times(traj: RefractedPath | ControlledTrajectory) -> PassageTimes:
    """Passage readings off a controlled trajectory.

    Exact engine, read off the swept floored path (a RefractedPath): kappa
    is the first injection lump or the start of the first floor-pinned
    stretch with a positive injection density, which is where the refracted
    path without the floor first goes strictly below 0; t_weak is the first
    lump or knot where the path sits at 0, its first visit.  These are the
    strict and weak clocks of the randomized passage and the splice time
    of the value estimators.  Euler engine (a ControlledTrajectory): the
    step-index analogues in grid time.
    """
    if isinstance(traj, RefractedPath):
        lumps = traj.r_atom_t[traj.r_atom > 0]
        lump = float(lumps[0]) if lumps.size else math.inf
        pinned = np.flatnonzero(traj.seg_rrate > 0)
        kappa = min(lump, float(traj.seg_t[pinned[0]]) if pinned.size else math.inf)
        at_zero = np.flatnonzero(traj.seg_v == 0.0)
        t_weak = min(lump, float(traj.seg_t[at_zero[0]]) if at_zero.size else math.inf)
        return PassageTimes(kappa_strict=kappa, t_weak=min(t_weak, kappa))
    rinc = np.flatnonzero(traj.r > 0)
    kappa = float(traj.times[rinc[0]]) if rinc.size else math.inf
    zzero = np.flatnonzero(traj.z <= 0.0)
    t_weak = float(traj.times[zzero[0]]) if zzero.size else math.inf
    return PassageTimes(kappa_strict=kappa, t_weak=min(t_weak, kappa))


def euler_steps(x: float, increments: np.ndarray, b: float, alpha: float,
                dt: float, floor: bool):
    """Three-branch Euler recursion, vectorised over the rows of increments.

    increments is an (m, k) matrix of driver steps.  The centred driver X-hat
    sits at knots 0..k-1 (a leading 0, then the cumulative increments); the
    dividend account L-hat starts at 0 and the injection account R-hat at
    the top-up max(0, -x).  At each step j = 1..k-1 the state
    x + X-hat_j - L-hat is corrected to s = state + R-hat and takes one
    branch: s < 0 tops R-hat up to -state (only when floor is set); s > b
    pays one dividend step, alpha * dt, or s - b when alpha is infinite;
    otherwise both accounts carry over.  Ties fall to the carry-over branch.

    Before applying step j the generator yields (state, dl, dr): the state
    and the dividend and injection steps.  Without floor, dr stays 0.
    """
    m, k = increments.shape
    xhat = np.cumsum(increments, axis=1)  # column j - 1 is knot j
    lhat = np.zeros(m)
    rhat = np.full(m, max(0.0, -x)) if floor else None
    dr = np.zeros(m)
    for j in range(1, k):
        state = x + xhat[:, j - 1] - lhat
        s = state + rhat if floor else state
        if alpha == math.inf:
            dl = np.where(s > b, s - b, 0.0)
        else:
            dl = np.where(s > b, alpha * dt, 0.0)
        if floor:
            newr = np.where(s < 0.0, -state, rhat)
            dr = newr - rhat
        yield state, dl, dr
        lhat = lhat + dl
        if floor:
            rhat = newr


def simulate_euler(x: float, params: StrategyParams, spec: JumpDiffusionSpec,
                   horizon: float, k: int, stream: RngStream,
                   grid_path: GridPath | None = None) -> ControlledTrajectory:
    """One path of the floored three-branch recursion: euler_steps at m = 1.

    L-hat accumulates the dividend steps.  R-hat is read back as the running
    maximum of the negative part of the state, the reflection identity the
    top-up rule satisfies exactly, so a step is a top-up where R-hat grows.
    """
    if grid_path is None:
        grid_path = sample_path(spec, horizon, Grid(k), stream)
    elif grid_path.k != k:
        raise InvalidParameter("grid_path", "step count mismatch")
    dt = grid_path.dt
    state = np.full(k, float(x))
    dl = np.zeros(k)
    steps = euler_steps(x, grid_path.increments[None, :], params.b, params.alpha,
                        dt, floor=True)
    for j, (state_j, dl_j, _) in enumerate(steps, start=1):
        state[j], dl[j] = state_j[0], dl_j[0]
    lhat = np.cumsum(dl)
    rhat = np.maximum.accumulate(np.where(state < 0.0, -state, 0.0))
    topped = np.diff(rhat, prepend=0.0) > 0
    branch = np.where(topped, BRANCH_FLOOR,
                      np.where(dl > 0, BRANCH_ABOVE, BRANCH_INTERIOR))
    driver = x + grid_path.xhat[:k]
    return ControlledTrajectory(
        times=np.arange(k) * dt,
        z=driver - lhat + rhat,
        l=lhat,
        r=rhat,
        branch=branch,
        driver=driver,
        horizon=horizon,
        params=params,
        kind="euler",
    )


def euler_exact_gap(spec: JumpDiffusionSpec, params: StrategyParams, case,
                    x: float, horizon: float, k: int, stream: RngStream) -> float:
    """Sup distance between the Euler recursion and the exact trajectory
    driven by the same sampled path, discretized with shared noise."""
    path = sample_path(spec, horizon, EXACT, stream)
    shifted = path.shifted(-path.x0)
    gp = shifted.to_grid(k)
    euler = simulate_euler(x, params, spec, horizon, k, stream, grid_path=gp)
    zex = apply_strategy_exact(shifted.shifted(x), params, case).value_at(euler.times)
    return float(np.max(np.abs(euler.z - zex)))
