"""Pathwise properties of the construction, run as checks over sampled paths.

The couplings here drive several controlled trajectories with one sampled
driver and verify order, budget, and support relations that the exact
construction must satisfy path by path: shifted starts stay ordered with a
conserved shift budget, trajectories under growing rate caps are ordered
and converge to the reflected limit, and the empirical characteristic
function matches the analytic exponent.  Exact-engine checks use absolute
tolerance 1e-9; they draw the event columns of levy_model.sample_path,
which raises ExactModeUnavailable for a model with sigma > 0, and the
characteristic-function check draws X_t by levy_model.grid_increments.

Each run sweeps all its roles (two starts, or every rung floored and
refracted) over its one draw of X - x0 in one event_steps pass, and reads
the tables BLOCK paths at a time, each block in one call of
path_engine.read_knots at the knots of its paths, the horizon and the
midpoints between them, so no result depends on how paths fall into
blocks (nor, for the alpha ladder, into runs of LADDER_RUN paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levy_model import (
    InvalidParameter,
    JumpDiffusionSpec,
    RngStream,
    characteristic_exponent,
    grid_increments,
    sample_path,
)
from .path_engine import read_knots, trajectory_table
from .strategy_engine import StrategyParams, apply_strategy_exact

EXACT_TOL = 1e-9
CHAR_FALSE_ALARM = 1e-6  # family-wise false-alarm rate of the char-function test

PAIR_PROPS = (
    "pair_budget", "pair_gap_range", "pair_gap_monotone",
    "pair_div_range", "pair_div_monotone", "pair_div_support",
    "pair_inj_range", "pair_inj_monotone", "pair_inj_support",
    "budget",
)

LADDER_PROPS = ("ladder_refracted", "ladder_surplus", "ladder_dividends", "ladder_injections")


class InvalidLadder(ValueError):
    """Rate-cap ladder must be strictly increasing and positive."""


@dataclass(frozen=True)
class Violation:
    time: float
    prop: str
    magnitude: float


class _Checked:
    """A report of violations, with CHECKED the properties it checked."""

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class CoupledPairReport(_Checked):
    CHECKED = PAIR_PROPS
    n_paths: int
    shift: float
    violations: tuple


@dataclass(frozen=True)
class AlphaLadderReport(_Checked):
    CHECKED = LADDER_PROPS
    n_paths: int
    alphas: tuple
    violations: tuple
    sup_gap_to_limit: tuple


@dataclass(frozen=True)
class CharReport:
    lambdas: np.ndarray
    empirical: np.ndarray
    target: np.ndarray
    tolerance: np.ndarray  # (2, m): bounds on the real and imaginary gaps

    @property
    def worst_ratio(self) -> float:
        """Largest |gap| / tolerance over the real and imaginary parts."""
        gap = self.empirical - self.target
        return float(np.max(np.abs(np.stack((gap.real, gap.imag)))
                            / self.tolerance))

    @property
    def ok(self) -> bool:
        """Every real and imaginary part of the gap within its tolerance.

        Each part is a mean of n draws of cos or sin(lambda X_t), which lie
        in [-1, 1], and its tolerance is the Bernstein bound at rate
        CHAR_FALSE_ALARM / 2m with the variance the model gives.  A correct
        sampler therefore fails with probability at most CHAR_FALSE_ALARM,
        for every model, n and set of m frequencies: the bound holds at
        finite n, lattice jump laws included, and a direction without
        variation (lambda = 0, a model without jumps or diffusion) is held
        to the range term 4 log(4m / CHAR_FALSE_ALARM) / 3n.
        """
        return self.worst_ratio <= 1.0


# Paths checked at once: a block's probe tables grow with it.
BLOCK = 32
# Paths the alpha ladder sweeps at once, a multiple of BLOCK: its 2m tables grow with it.
LADDER_RUN = 6 * BLOCK


class _Block:
    """The trajectories of a block of paths, read at every path's probes at
    once: tables[r] is the SegmentTable of role r on the block's paths, and
    drivers, if given, their EventColumns and start.  t and path hold the
    probes of path_engine.read_knots, readings[r] the SegmentReading of role
    r there (of z alone from role full on), and driver the drivers' values.
    """

    def __init__(self, tables, drivers=None, full=None):
        (self.path, self.t), self.readings, self.driver = read_knots(tables, drivers, full)
        self.same = self.path[1:] == self.path[:-1]  # probes j and j + 1 on one path

    def violations(self, rows):
        """The Violations of rows (prop, magnitude, bad) by path, row, time;
        a row on the increments between probes is charged at the later."""
        found = []
        for k, (prop, mag, bad) in enumerate(rows):
            if bad.size < self.t.size:
                bad, mag = np.append(False, bad & self.same), np.append(0.0, mag)
            found += [(p, k, j, prop, m) for p, j, m in zip(
                self.path[bad].tolist(), np.flatnonzero(bad).tolist(), mag[bad].tolist())]
        return [Violation(float(self.t[j]), prop, m) for _, _, j, prop, m in sorted(found)]


def check_pair(tablek, tablel, shift: float, b: float, drivers=None):
    """Order/budget/support relations between coupled trajectories, for a
    block of paths at once: path i of the SegmentTables tablek and tablel is
    swept on one driver from starts a constant shift >= 0 apart.  Given
    drivers, the EventColumns of tablek and its start x as a pair, the
    budget row also checks z = x + X - L + R at the knots of tablek, X
    being the driver.  The tolerance is EXACT_TOL.

    Returns the violations by path, then property, then time.  The support
    conditions are checked with one-knot slack: an increment between
    consecutive probe times is charged only if its condition fails at both
    endpoints.  The dividend support reads the gap or its left limit: at
    alpha = inf a jump that lifts both paths past b pays the gap it closes.
    """
    if shift < 0:
        raise InvalidParameter("shift", "upper start must not be below lower start")
    tol = EXACT_TOL
    blk = _Block((tablek, tablel), drivers)
    rk, rl = blk.readings
    dz, dl, dr = rl.z - rk.z, rl.l - rk.l, rl.r - rk.r
    inc, dec, rinc = np.diff(dz), np.diff(dl), np.diff(dr)
    resid = np.abs(dz + dl - dr - shift)
    gap = np.maximum(dz, rl.z_left - rk.z_left)
    cond_l = (rk.z <= b + tol) & (rl.z >= b - tol) & (gap > tol)
    cond_r = np.minimum(rk.z, rk.z_left) <= tol
    rows = [
        # (1) conserved budget of the initial shift
        ("pair_budget", resid, resid > tol),
        # (2) ordering gap shrinks, stays in [0, shift]
        ("pair_gap_range", np.maximum(-dz, dz - shift), (dz < -tol) | (dz > shift + tol)),
        ("pair_gap_monotone", inc, inc > tol),
        # (3) dividend difference: range, monotone, support
        ("pair_div_range", np.maximum(-dl, dl - shift), (dl < -tol) | (dl > shift + tol)),
        ("pair_div_monotone", -dec, dec < -tol),
        ("pair_div_support", dec, (dec > tol) & ~(cond_l[:-1] | cond_l[1:])),
        # (4) injection difference: range, monotone, support at the floor
        ("pair_inj_range", np.maximum(dr, -shift - dr), (dr > tol) | (dr < -shift - tol)),
        ("pair_inj_monotone", rinc, rinc > tol),
        ("pair_inj_support", -rinc, (rinc < -tol) & ~(cond_r[:-1] | cond_r[1:])),
    ]
    if drivers is not None:
        budget = np.abs(rk.z - (blk.driver - rk.l + rk.r))
        rows.append(("budget", budget, (budget > tol) & rk.knot))
    return blk.violations(rows)


def coupled_pair_run(spec: JumpDiffusionSpec, params: StrategyParams, x: float,
                     k: float, l: float, horizon: float, n: int,
                     stream: RngStream, relaxed: bool = False) -> CoupledPairReport:
    """Drive the strategy from starts x+k and x+l with one driver per path.

    The shift l - k must lie strictly inside (0, b); relaxed lifts that to
    any l >= k, including the degenerate equal-start pair.
    """
    shift = l - k
    if shift < 0 or (not relaxed and not (0 < shift < params.b)):
        raise InvalidParameter("l", "shift must lie in (0, b); pass relaxed to lift")
    cols = sample_path(spec, horizon, n, stream)
    lower = 0.0 + (x + k)  # the draws' 0 shifted by x + k: a -0.0 start is 0.0
    tk, tl = apply_strategy_exact(cols, [lower, 0.0 + (x + l)], params)  # one sweep of both
    viol = []
    for start in range(0, n, BLOCK):
        stop = start + BLOCK
        viol += check_pair(tk.block(start, stop), tl.block(start, stop), shift, params.b,
                           (cols.block(start, stop), lower))
    return CoupledPairReport(n_paths=n, shift=shift, violations=tuple(viol))


def alpha_ladder_run(spec: JumpDiffusionSpec, b: float, alphas, x: float,
                     horizon: float, n: int, stream: RngStream) -> AlphaLadderReport:
    """Order of trajectories under a strictly increasing rate-cap ladder.

    Checks, pairwise along the ladder on shared noise: the refracted driver
    is pointwise ordered, the floored surplus is ordered, cumulative
    dividends and injections grow with the cap.  The sup gap of each
    surplus to the reflected limit is recorded when the last rung is
    math.inf, and is nan otherwise.  The threshold b must be at least 0.
    """
    alphas = tuple(float(a) for a in alphas)
    if len(alphas) < 2 or any(a <= 0 for a in alphas):
        raise InvalidLadder("need at least two positive rungs")
    if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise InvalidLadder("rungs must be strictly increasing")
    if not (b >= 0):
        raise InvalidParameter("b", "threshold must be >= 0")
    m = len(alphas)
    viol = []
    sup_gap = np.full(m, 0.0 if alphas[-1] == math.inf else math.nan)
    cols = sample_path(spec, horizon, n, stream)
    for r0 in range(0, n, LADDER_RUN):
        tables = trajectory_table(  # the floored rungs, then the refracted ones, all from x
            cols.block(r0, r0 + LADDER_RUN), x, b, alphas + alphas, [True] * m + [False] * m)
        for start in range(0, tables[0].counts.size, BLOCK):
            blk = _Block([table.block(start, start + BLOCK) for table in tables], full=m)
            zs, ys = blk.readings[:m], blk.readings[m:]
            if alphas[-1] == math.inf:
                for j in range(m):
                    sup_gap[j] = max(sup_gap[j], float(np.max(zs[j].z - zs[-1].z)))
            rows = []
            for j in range(m - 1):
                # as the cap rises the refracted paths and the surpluses do
                # not rise, and the dividends and injections do not fall
                dy, dz = ys[j].z - ys[j + 1].z, zs[j].z - zs[j + 1].z
                dl, dr = zs[j].l - zs[j + 1].l, zs[j].r - zs[j + 1].r
                rows += [("ladder_refracted", -dy, dy < -EXACT_TOL),
                         ("ladder_surplus", -dz, dz < -EXACT_TOL),
                         ("ladder_dividends", dl, dl > EXACT_TOL),
                         ("ladder_injections", dr, dr > EXACT_TOL)]
            viol += blk.violations(rows)
        del tables, blk  # before the next run's tables are swept
    return AlphaLadderReport(n_paths=n, alphas=alphas, violations=tuple(viol),
                             sup_gap_to_limit=tuple(sup_gap))


def char_function_check(spec: JumpDiffusionSpec, t: float, lambdas, n: int,
                        stream: RngStream) -> CharReport:
    """Empirical characteristic function of X_t against the analytic
    exponent, with the tolerances of CharReport.ok."""
    lambdas = np.asarray(lambdas, dtype=float)
    # X_t - x0 as the one-step grid of the Euler engine's sampler
    xt = grid_increments(spec, t, 1, n, stream)[:, 0]
    emp = np.array([np.exp(1j * lam * xt).mean() for lam in lambdas])
    target = np.exp(-t * characteristic_exponent(spec, lambdas))
    # E cos^2 = (1 + Re phi(2 lambda)) / 2 and E sin^2 = (1 - Re phi(2 lambda)) / 2
    double = np.exp(-t * characteristic_exponent(spec, 2.0 * lambdas)).real
    var = np.maximum(np.stack(((1.0 + double) / 2.0 - target.real ** 2,
                               (1.0 - double) / 2.0 - target.imag ** 2)), 0.0)
    # Bernstein: a mean of n draws at most 2 from their mean and of variance
    # var strays by eps with probability <= 2 exp(-n eps^2 / (2 var + 4 eps / 3))
    log_term = math.log(4 * len(lambdas) / CHAR_FALSE_ALARM)
    a = 4.0 * log_term / 3.0
    tol = (a + np.sqrt(a * a + 8.0 * n * var * log_term)) / (2.0 * n)
    return CharReport(lambdas=lambdas, empirical=emp, target=target,
                      tolerance=tol)
