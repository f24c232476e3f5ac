"""Pure reference readers of swept trajectories, one path at a time, and
test-only checks.

path_engine.read_segments reads a block of RefractedPaths at once; these
read one path, or a SegmentCurve, with a searchsorted and a cumsum per
call, and the tests hold the block reader to them bit for bit.  The
construction identity residual recomputes a floored trajectory from its
driver and dividends, independently of the sweep's injection bookkeeping.
"""

from dataclasses import dataclass

import numpy as np

from levyrefract.properties_oracle import EXACT_TOL, _Block


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
    blk = _Block(([traj],))
    resid = np.abs(blk.readings[0].l - alpha * blk.t)
    return blk.violations([("cap_rate_dividends", resid, resid > tol)])
