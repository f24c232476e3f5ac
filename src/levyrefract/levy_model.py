"""Driving process definition: finite-activity jump diffusions.

A model is a drift, an optional Gaussian coefficient, and a finite list of
compound-Poisson jump components with signed marks.  This module validates
models, computes the bounded-variation net drift and the regime it puts a
refracted path in for a dividend cap (is_case2, one predicate of the drift
and the cap), and the mean drift E[X_1] that centres the estimators'
control (mean_drift), evaluates the characteristic exponent, and samples
m paths of X - x0 at once, whatever start a reader gives them, with one
sampler per engine: sample_path draws them exactly (sigma = 0) as
EventColumns, the padded event columns that the lane stepper of
path_engine reads, and grid_windows on a uniform grid as the windows of an
(m, k) increment matrix, TILE_KNOTS steps each (grid_increments puts them
side by side).  Both read the jump draw of _jump_draw: Poisson counts of
the m paths, uniform times and signed marks.  grid_windows bins it into
steps, a draw per window when sigma > 0 and one for the whole horizon
when sigma = 0; sample_path scatters the whole-horizon draw into the
columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


TILE_KNOTS = 256  # steps per window of the Euler draw, a multiple of strategy_engine.BLOCK_KNOTS


class InvalidParameter(ValueError):
    """A model or distribution parameter is outside its legal range."""

    def __init__(self, field_name, message=None):
        self.field_name = field_name
        super().__init__(message or f"invalid parameter: {field_name}")

    def __reduce__(self):
        # raised in a worker process, it comes back with its field name
        return type(self), (self.field_name, str(self))


class QuadratureFailure(RuntimeError):
    """A quadrature rule could not reach the requested tolerance."""


class ExactModeUnavailable(RuntimeError):
    """Exact path sampling requested for a model with sigma > 0."""


def _require(cond: bool, field_name: str, message: str):
    if not cond:
        raise InvalidParameter(field_name, message)


def _require_draw(horizon, m):
    """Every sampler draws m >= 1 paths on [0, horizon], 0 < horizon < inf."""
    _require(0.0 < horizon < math.inf, "horizon", "horizon must be positive and finite")
    _require(m >= 1, "m", "path count must be >= 1")


def _finite(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and math.isfinite(x)


def _require_finite_mean(marks, field_name: str):
    try:
        mean = marks.mean()
    except OverflowError:
        mean = math.inf
    _require(math.isfinite(mean), field_name, "the mark mean overflows a float")


# ---------------------------------------------------------------------------
# mark distributions


class MarkDistribution:
    """Law of a positive jump size, before the component sign is applied.

    Subclasses provide the mean, the truncated mean E[M 1{M<1}] used by the
    drift compensation, the characteristic function E[exp(iuM)], and
    inverse-CDF sampling.
    """

    def mean(self) -> float:
        raise NotImplementedError

    def truncated_mean(self) -> float:
        """E[M 1{M < 1}]."""
        raise NotImplementedError

    def char(self, u):
        """E[exp(i u M)] for real u (scalar or array)."""
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(MarkDistribution):
    a: float
    b: float

    def __post_init__(self):
        _require(_finite(self.a) and self.a >= 0, "a",
                 "Uniform lower bound must be finite and >= 0")
        _require(_finite(self.b) and self.b > self.a, "b",
                 "Uniform upper bound must be finite and exceed the lower")
        _require_finite_mean(self, "b")

    def mean(self):
        return 0.5 * (self.a + self.b)

    def truncated_mean(self):
        if self.a >= 1.0:
            return 0.0
        hi = min(self.b, 1.0)
        return (hi * hi - self.a * self.a) / (2.0 * (self.b - self.a))

    def char(self, u):
        u = np.asarray(u, dtype=float)
        out = np.ones(u.shape, dtype=complex)
        nz = u != 0
        iu = 1j * u[nz]
        out[nz] = (np.exp(iu * self.b) - np.exp(iu * self.a)) / (iu * (self.b - self.a))
        return out if out.shape else complex(out)

    def sample(self, n, rng):
        return self.a + (self.b - self.a) * rng.random(n)


@dataclass(frozen=True)
class Exponential(MarkDistribution):
    rho: float

    def __post_init__(self):
        _require(_finite(self.rho) and self.rho > 0, "rho",
                 "Exponential rate must be positive and finite")
        _require_finite_mean(self, "rho")

    def mean(self):
        return 1.0 / self.rho

    def truncated_mean(self):
        r = self.rho
        return (1.0 - math.exp(-r) * (1.0 + r)) / r

    def char(self, u):
        u = np.asarray(u, dtype=float)
        out = self.rho / (self.rho - 1j * u)
        return out if out.shape else complex(out)

    def sample(self, n, rng):
        # inverse CDF keeps the draw count per mark fixed at one uniform
        return -np.log1p(-rng.random(n)) / self.rho


@dataclass(frozen=True)
class Weibull(MarkDistribution):
    shape: float
    scale: float

    def __post_init__(self):
        _require(_finite(self.shape) and self.shape > 0, "shape",
                 "Weibull shape must be positive and finite")
        _require(_finite(self.scale) and self.scale > 0, "scale",
                 "Weibull scale must be positive and finite")
        _require_finite_mean(self, "shape")

    def mean(self):
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def truncated_mean(self):
        # E[M 1{M<1}] = scale * lower_incomplete_gamma(1 + 1/k, (1/scale)^k)
        a = 1.0 + 1.0 / self.shape
        try:
            z = (1.0 / self.scale) ** self.shape
        except OverflowError:  # every mark lies below 1
            z = math.inf
        return self.scale * math.gamma(a) * _gammainc(a, z)

    def char(self, u):
        scalar = np.isscalar(u)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.array([self._char_one(ui) for ui in u], dtype=complex)
        return out[0] if scalar else out

    def _char_one(self, u):
        # M = scale * S^(1/k) with S ~ Exp(1) on [0, 41.5] (e^-41.5 < 1e-18),
        # by a tanh-sinh rule on t in [-4, 4] that clusters its nodes at the
        # branch point of s^(1/k) at 0.  Each halving of h adds the odd nodes;
        # dividing by the rule's own mass makes char(0) exactly 1.
        re, im, mass, val = 0.0, 0.0, 0.0, None
        for level in range(_TS_LEVELS + 1):
            h = 2.0 ** -level
            t = np.arange(h - 4.0, 4.0, 2 * h) if level else np.arange(-4.0, 4.5)
            y = math.pi * np.sinh(t)
            s = 41.5 / (1.0 + np.exp(-y))
            p = s / (1.0 + np.exp(y)) * math.pi * np.cosh(t) * np.exp(-s)
            arg = u * self.scale * s ** (1.0 / self.shape)
            re += (p * np.cos(arg)).sum()
            im += (p * np.sin(arg)).sum()
            mass += p.sum()
            prev, val = val, complex(re / mass, im / mass)
            if prev is not None and abs(val - prev) <= _TS_TOL:
                return val
        raise QuadratureFailure(f"tanh-sinh levels differ by {abs(val - prev):.2e} at u = {u}")

    def sample(self, n, rng):
        return self.scale * (-np.log1p(-rng.random(n))) ** (1.0 / self.shape)


@dataclass(frozen=True)
class HyperExponential(MarkDistribution):
    """Mixture of exponentials with strictly increasing rates."""

    weights: tuple
    rates: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        _require(len(self.weights) == len(self.rates) and len(self.rates) > 0,
                 "weights", "weights and rates must be equal-length and non-empty")
        _require(all(_finite(w) and w > 0 for w in self.weights), "weights",
                 "mixture weights must be positive and finite")
        _require(abs(sum(self.weights) - 1.0) <= 1e-9, "weights",
                 "mixture weights must sum to 1")
        _require(all(_finite(r) and r > 0 for r in self.rates), "rates",
                 "mixture rates must be positive and finite")
        _require(all(r1 < r2 for r1, r2 in zip(self.rates, self.rates[1:])),
                 "rates", "mixture rates must be strictly increasing")
        _require_finite_mean(self, "rates")

    def mean(self):
        return sum(w / r for w, r in zip(self.weights, self.rates))

    def truncated_mean(self):
        return sum(w * Exponential(r).truncated_mean()
                   for w, r in zip(self.weights, self.rates))

    def char(self, u):
        u = np.asarray(u, dtype=float)
        out = sum(w * (r / (r - 1j * u)) for w, r in zip(self.weights, self.rates))
        return out if np.shape(out) else complex(out)

    def sample(self, n, rng):
        comp = rng.choice(len(self.rates), size=n, p=np.asarray(self.weights))
        rates = np.asarray(self.rates)[comp]
        return -np.log1p(-rng.random(n)) / rates


@dataclass(frozen=True)
class PointMass(MarkDistribution):
    c: float

    def __post_init__(self):
        _require(_finite(self.c) and self.c > 0, "c", "point mass must be positive and finite")

    def mean(self):
        return self.c

    def truncated_mean(self):
        return self.c if self.c < 1.0 else 0.0

    def char(self, u):
        u = np.asarray(u, dtype=float)
        out = np.exp(1j * u * self.c)
        return out if out.shape else complex(out)

    def sample(self, n, rng):
        return np.full(n, self.c)


_TS_LEVELS = 13     # finest step 2^-13 of Weibull.char's rule: 65,536 nodes
_TS_TOL = 1e-12     # two successive levels of the rule must agree this closely
_EPS = 2.0 ** -53   # unit roundoff: the gamma series and fraction stop below it


def _gammainc(a, z):
    """Regularized lower incomplete gamma P(a, z) for a > 0 and z >= 0.

    The power series for z <= a + 1 (Cephes igam_series), else one minus the
    continued fraction for Q(a, z), evaluated by the modified Lentz method.
    """
    if z == 0.0 or z == math.inf:  # P(a, 0) = 0 and P(a, inf) = 1
        return float(z > 0.0)
    fac = math.exp(a * math.log(z) - z - math.lgamma(a))  # z^a e^-z / Gamma(a)
    if z <= a + 1.0:
        r, term, total = a, 1.0, 1.0
        while term > _EPS * total:
            r += 1.0
            term *= z / r
            total += term
        return total * fac / a
    b, n, c = z + 1.0 - a, 0, math.inf
    frac = step = d = 1.0 / b
    while abs(step - 1.0) > _EPS:
        n += 1
        an = -n * (n - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = d * c
        frac *= step
    return 1.0 - frac * fac


# ---------------------------------------------------------------------------
# model spec


@dataclass(frozen=True)
class JumpComponent:
    rate: float
    sign: int
    marks: MarkDistribution


@dataclass(frozen=True)
class JumpDiffusionSpec:
    """Drift gamma, Gaussian coefficient sigma, finite jump components, start x0.

    gamma is the truncated-drift coefficient of the characteristic exponent,
    not the slope seen between jumps; the two differ by the compensation of
    marks below 1 (see net_drift).
    """

    gamma: float
    sigma: float = 0.0
    jump_components: tuple = ()
    x0: float = 0.0

    def __post_init__(self):
        comps = tuple(
            c if isinstance(c, JumpComponent) else JumpComponent(*c)
            for c in self.jump_components
        )
        object.__setattr__(self, "jump_components", comps)


@dataclass(frozen=True)
class ValidationReport:
    negative_jump_mean: float


def validate_spec(spec: JumpDiffusionSpec) -> ValidationReport:
    """Check all model invariants; raises InvalidParameter naming the field.

    Returns a report carrying the total negative-jump mean, the quantity
    whose finiteness admissible strategies require.
    """
    _require(_finite(spec.gamma), "gamma", "gamma must be finite")
    _require(_finite(spec.sigma) and spec.sigma >= 0, "sigma", "sigma must be >= 0")
    _require(_finite(spec.x0), "x0", "x0 must be finite")
    neg_mean = 0.0
    for i, comp in enumerate(spec.jump_components):
        _require(_finite(comp.rate) and comp.rate > 0, f"jump_components[{i}].rate",
                 "rate must be positive and finite")
        _require(comp.sign in (-1, 1), f"jump_components[{i}].sign", "sign must be +1 or -1")
        _require(isinstance(comp.marks, MarkDistribution), "marks",
                 f"component {i}: marks must be a MarkDistribution")
        m = comp.marks.mean()
        _require(math.isfinite(m), f"jump_components[{i}]", "the mark mean must be finite")
        if comp.sign < 0:
            neg_mean += comp.rate * m
            _require(math.isfinite(neg_mean), f"jump_components[{i}]",
                     "the total negative-jump mean overflows a float")
    return ValidationReport(negative_jump_mean=neg_mean)


def _compensated_drift(spec: JumpDiffusionSpec) -> float:
    """Slope of the path between jumps: gamma minus the small-mark compensation.

    Defined for every sigma; equals the net drift when sigma = 0.
    """
    comp = sum(c.rate * c.sign * c.marks.truncated_mean() for c in spec.jump_components)
    return spec.gamma - comp


def net_drift(spec: JumpDiffusionSpec):
    """Net drift delta of a bounded-variation model, or None when sigma > 0."""
    if spec.sigma > 0:
        return None
    return _compensated_drift(spec)


def mean_drift(spec: JumpDiffusionSpec) -> float:
    """mu = E[X_1 - x0]: the slope between jumps plus the mean jump flow
    sum rate * sign * mean; exactly the slope when there are no jumps."""
    return _compensated_drift(spec) + sum(c.rate * c.sign * c.marks.mean()
                                          for c in spec.jump_components)


def is_case2(delta, alpha) -> bool:
    """Case 2, where a refracted path sticks at b: a net drift delta (None
    when sigma > 0) in [0, alpha], for 0 < alpha <= inf.  Otherwise Case 1,
    where the path crosses b."""
    return delta is not None and 0.0 <= delta <= alpha


def characteristic_exponent(spec: JumpDiffusionSpec, lam):
    """Levy exponent Psi with E[exp(-t Psi(lam))] = E[exp(i lam (X_t - x0))]."""
    scalar = np.isscalar(lam)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    psi = -1j * spec.gamma * lam + 0.5 * spec.sigma ** 2 * lam ** 2
    for comp in spec.jump_components:
        cf = np.atleast_1d(np.asarray(comp.marks.char(comp.sign * lam)))
        trunc = comp.marks.truncated_mean()
        psi = psi + comp.rate * (1.0 - cf + 1j * lam * comp.sign * trunc)
    return complex(psi[0]) if scalar else psi


# ---------------------------------------------------------------------------
# deterministic parallel RNG streams


@dataclass(frozen=True)
class RngStream:
    """Counter-based stream keyed by (seed, tag, index).

    generator() builds a fresh Philox generator every call, so a stream is
    stateless: sampling twice from the same stream repeats the draw.  Distinct
    (tag, index) pairs give statistically independent streams regardless of
    the order or thread they are consumed in.
    """

    seed: int
    tag: int = 0
    index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.tag, self.index))
        return np.random.Generator(np.random.Philox(ss))

    def with_tag(self, tag: int) -> "RngStream":
        return RngStream(self.seed, tag, self.index)

    def for_path(self, i: int) -> "RngStream":
        return RngStream(self.seed, self.tag, self.index + i)

    @property
    def id(self) -> str:
        return f"{self.seed}/{self.tag}/{self.index}"


# ---------------------------------------------------------------------------
# sampled paths


@dataclass(frozen=True)
class EventColumns:
    """The events of m exact paths of X - x0, which share drift and horizon,
    as padded columns: path i jumps by sizes[e, i] at times[e, i] for e <
    counts[i], and the lanes that sweep it carry its start.  The rows after
    its events, (ncol + 1, m) in all, are (horizon, 0): row counts[i] is its
    drift to the horizon, and the zero jumps after it change nothing."""

    horizon: float
    drift: float
    counts: np.ndarray
    times: np.ndarray
    sizes: np.ndarray

    def block(self, start: int, stop: int) -> "EventColumns":
        """Paths start to stop - 1 as EventColumns, with the rows they use."""
        cols = slice(start, stop)
        counts = self.counts[cols]
        rows = slice(counts.max(initial=0) + 1)
        return EventColumns(self.horizon, self.drift, counts,
                            self.times[rows, cols], self.sizes[rows, cols])

    @classmethod
    def side_by_side(cls, parts, m) -> "EventColumns":
        """The m paths of the stream parts, which share drift and horizon, in
        order, as one EventColumns padded to the tallest.  Each part is
        copied in before the next is read, into rows that start a sixth
        above the first part's height and grow, by one copy, only for a
        taller part; the result is their view."""
        times = sizes = np.empty((0, m))
        counts, blocks = [], []  # each part's counts and (rows, columns)
        for c in parts:
            h, end = len(c.times), sum(n.size for n in counts)
            if h > len(times):
                top = max((r.stop for r, _ in blocks), default=0)
                grown = np.empty((2, h + h // 6 + 4, m))
                grown[0, :top, :end], grown[1, :top, :end] = times[:top, :end], sizes[:top, :end]
                times, sizes = grown
            blocks.append((slice(h), slice(end, end + c.counts.size)))
            times[blocks[-1]], sizes[blocks[-1]] = c.times, c.sizes
            counts.append(c.counts)
            horizon, drift = c.horizon, c.drift
            del c  # the next part is drawn without this one
        top = max(r.stop for r, _ in blocks)
        for r, cols in blocks:
            times[r.stop:top, cols], sizes[r.stop:top, cols] = horizon, 0.0
        return cls(horizon, drift, np.concatenate(counts), times[:top], sizes[:top])


def _jump_draw(spec: JumpDiffusionSpec, horizon: float, m: int, rng: np.random.Generator):
    """Yield the jumps of m paths on [0, horizon] as (path, time, size)
    arrays, one triple per jump component as it is drawn.

    Per jump component, in order and skipping a component none of the m
    paths jumps in: the Poisson counts of the m paths, uniform jump times
    and signed marks.  Every sampler reads this one draw.
    """
    for comp in spec.jump_components:
        counts = rng.poisson(comp.rate * horizon, m)
        tot = int(counts.sum())
        if tot == 0:
            continue
        yield (np.repeat(np.arange(m), counts), rng.uniform(0.0, horizon, tot),
               comp.marks.sample(tot, rng) * comp.sign)


def grid_windows(spec: JumpDiffusionSpec, horizon: float, k: int, m: int,
                 stream: RngStream):
    """The Euler engine's draw: the (m, k) step increments of m grid paths of
    X - x0 on [0, horizon], jumps binned rightward, as an iterator of its
    windows, the (m, w) columns of TILE_KNOTS steps each but the last.
    Deterministic in stream, whose one generator the windows read in order.

    Each step holds the compensated drift, the Gaussian part, and the jumps
    in (t_{j-1}, t_j].  With sigma > 0 each window draws its Gaussians, then
    its own _jump_draw over its span, each component binned as it is drawn;
    a window ends at its last knot, the horizon for the last.  With sigma =
    0 the whole-horizon _jump_draw comes first, as sample_path reads it, and
    each window bins its share, in the order of the draw.  So k <=
    TILE_KNOTS is one window, the draw of the whole matrix at once.
    """
    _require_draw(horizon, m)
    _require(k >= 1, "k", "grid steps must be >= 1")
    return _windows(spec, horizon, k, m, stream.generator())


def _windows(spec, horizon, k, m, rng):
    dt = horizon / k
    shares = [] if spec.sigma > 0 else _shares(spec, horizon, k, m, rng)
    for tau, i0 in enumerate(range(0, k, TILE_KNOTS)):
        w = min(TILE_KNOTS, k - i0)
        if spec.sigma > 0:
            span = horizon if w == k else w * dt
            jumps = ((rows, np.clip(np.ceil(times / dt).astype(int) - 1, 0, w - 1), sizes)
                     for rows, times, sizes in _jump_draw(spec, span, m, rng))
        else:
            jumps = ((rows[c[tau]:c[tau + 1]], bins[c[tau]:c[tau + 1]] - i0,
                      sizes[c[tau]:c[tau + 1]]) for rows, bins, sizes, c in shares)
        yield _window(spec, m, w, dt, rng, jumps)  # held by no frame here once yielded


def _shares(spec, horizon, k, m, rng):
    """The whole-horizon _jump_draw as (rows, bins, sizes, cuts) per
    component: its jumps binned into the k steps, by window and in draw
    order within one, window tau's at cuts[tau]:cuts[tau + 1]."""
    shares = []
    for rows, times, sizes in _jump_draw(spec, horizon, m, rng):
        bins = np.clip(np.ceil(times / (horizon / k)).astype(int) - 1, 0, k - 1)
        if k > TILE_KNOTS:  # one window takes them as they are
            order = np.argsort(bins // TILE_KNOTS, kind="stable")
            rows, bins, sizes = rows[order], bins[order], sizes[order]
        cuts = np.searchsorted(bins // TILE_KNOTS, np.arange(-(-k // TILE_KNOTS) + 1))
        shares.append((rows, bins, sizes, cuts.tolist()))
    return shares


def _window(spec, m, w, dt, rng, jumps):
    """One (m, w) window: the compensated drift and, with sigma > 0, the
    Gaussians drawn on rng, then the (rows, bins, sizes) of jumps binned
    into its steps, each component as it comes."""
    incs = np.empty((m, w))
    if spec.sigma > 0:
        rng.standard_normal(out=incs)
        incs *= spec.sigma * math.sqrt(dt)
        incs += _compensated_drift(spec) * dt
    else:
        incs.fill(_compensated_drift(spec) * dt)
    flat = incs.reshape(-1)  # a view: the adds of the 2-D call, in its order
    for rows, bins, sizes in jumps:
        np.add.at(flat, rows * w + bins, sizes)
    return incs


def grid_increments(spec: JumpDiffusionSpec, horizon: float, k: int, m: int,
                    stream: RngStream) -> np.ndarray:
    """The (m, k) increment matrix of grid_windows, its windows side by side."""
    windows = list(grid_windows(spec, horizon, k, m, stream))
    return windows[0] if len(windows) == 1 else np.concatenate(windows, axis=1)


def sample_path(spec: JumpDiffusionSpec, horizon: float, m: int, stream: RngStream):
    """The EventColumns of m exact paths of X - x0 on [0, horizon]: the exact
    engine's draw, which needs sigma = 0.  Deterministic in stream.

    _jump_draw is scattered into the padded columns of the m paths.
    """
    _require_draw(horizon, m)
    if spec.sigma > 0:
        raise ExactModeUnavailable("exact sampling needs sigma = 0")
    parts = list(_jump_draw(spec, horizon, m, stream.generator()))
    per = [np.bincount(rows, minlength=m) for rows, _, _ in parts]
    counts = sum(per, np.zeros(m, dtype=int))
    width = int(counts.max()) + 1
    # path i's events in row i of (m, width) tables, each component freed
    # once scattered, padded with inf so that no event ties with the padding
    # (uniform(0, horizon) can return the horizon): a sort of the rows by
    # time and a take by its transposed index give the (width, m) columns
    t, s = np.full((m, width), math.inf), np.zeros((m, width))
    first = np.arange(m) * width  # each path's next free cell
    while parts:
        (rows, times, sizes), n = parts.pop(0), per.pop(0)
        cells = np.take(first - (np.cumsum(n) - n), rows, out=rows)  # rows, overwritten
        cells += np.arange(cells.size)
        t.put(cells, times)
        s.put(cells, sizes)
        first += n
        del rows, times, sizes, cells
    by_time = np.argsort(t, axis=1)
    by_time += np.arange(0, m * width, width)[:, None]
    t = t.take(by_time.T)
    s = s.take(by_time.T)
    return EventColumns(horizon, _compensated_drift(spec), counts,
                        np.minimum(t, horizon, out=t), s)
