"""Driving process definition: finite-activity jump diffusions.

A model is a drift, an optional Gaussian coefficient, and a finite list of
compound-Poisson jump components with signed marks.  This module validates
models, computes the bounded-variation net drift and the regime it puts a
refracted path in for a dividend cap (is_case2, one predicate of the drift
and the cap), evaluates the characteristic exponent, and samples m paths
at once, in one draw format per engine: exactly (sigma = 0) as
EventColumns, the padded event columns that the lane stepper of
path_engine reads, or on a uniform grid as an (m, k) increment matrix.
Both samplers read one jump draw per stream (_jump_draw): Poisson counts
of the m paths, uniform times and signed marks.  The grid bins it into
steps; the exact mode scatters it into the columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def _require_horizon(horizon):
    """Every sampler draws on [0, horizon] for a horizon in (0, inf)."""
    _require(0.0 < horizon < math.inf, "horizon", "horizon must be positive and finite")


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
        _require(_finite(comp.rate) and comp.rate > 0, "rate",
                 f"component {i}: rate must be positive")
        _require(comp.sign in (-1, 1), "sign", f"component {i}: sign must be +1 or -1")
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
    """The events of m exact paths, which share drift and horizon, as padded
    columns: path i starts at x0[i] and jumps by sizes[e, i] at times[e, i]
    for e < counts[i].  The rows after its events, (ncol + 1, m) in all, are
    (horizon, 0): row counts[i] is its drift to the horizon, and the zero
    jumps after it change nothing."""

    x0: np.ndarray
    horizon: float
    drift: float
    counts: np.ndarray
    times: np.ndarray
    sizes: np.ndarray

    def block(self, start: int, stop: int) -> "EventColumns":
        """Paths start to stop - 1 as EventColumns, with all the rows."""
        cols = slice(start, stop)
        return EventColumns(self.x0[cols], self.horizon, self.drift, self.counts[cols],
                            self.times[:, cols], self.sizes[:, cols])

    @classmethod
    def side_by_side(cls, parts) -> "EventColumns":
        """The paths of parts, which share drift and horizon, in order, as
        one EventColumns: the copy of each part padded to the tallest."""
        ends = np.cumsum([c.counts.size for c in parts]).tolist()
        times = np.full((max(len(c.times) for c in parts), ends[-1]), float(parts[0].horizon))
        sizes = np.zeros(times.shape)
        for c, end in zip(parts, ends):
            block = (slice(len(c.times)), slice(end - c.counts.size, end))
            times[block], sizes[block] = c.times, c.sizes
        return cls(np.concatenate([c.x0 for c in parts]), parts[0].horizon, parts[0].drift,
                   np.concatenate([c.counts for c in parts]), times, sizes)


class Exact:
    """Sampling mode marker: exact event-driven path (requires sigma = 0)."""


@dataclass(frozen=True)
class Grid:
    """Sampling mode marker: uniform grid with k steps."""

    k: int


EXACT = Exact()


def _jump_draw(spec: JumpDiffusionSpec, horizon: float, m: int, rng: np.random.Generator):
    """The jumps of m paths on [0, horizon] as (path, time, size) arrays.

    Per jump component, in order and skipping a component none of the m
    paths jumps in: the Poisson counts of the m paths, uniform jump times
    and signed marks.  Every sampler reads this one draw.
    """
    rows, times, sizes = [np.empty(0, dtype=int)], [np.empty(0)], [np.empty(0)]
    for comp in spec.jump_components:
        counts = rng.poisson(comp.rate * horizon, m)
        tot = int(counts.sum())
        if tot == 0:
            continue
        rows.append(np.repeat(np.arange(m), counts))
        times.append(rng.uniform(0.0, horizon, tot))
        sizes.append(comp.marks.sample(tot, rng) * comp.sign)
    return tuple(np.concatenate(a) for a in (rows, times, sizes))


def _grid_increment_matrix(spec: JumpDiffusionSpec, horizon: float, k: int, m: int,
                           rng: np.random.Generator, out=None) -> np.ndarray:
    """(m, k) step increments of m grid paths; jumps binned rightward.

    Each step holds the compensated drift, the Gaussian part, and the jumps
    in (t_{j-1}, t_j].  The draws come in a fixed order: all Gaussians, then
    _jump_draw.  This is the only grid sampler: sample_path(Grid) and every
    Euler estimator draw through it.  out, a C-contiguous (m, k) array such
    as a block of rows of a batch matrix, is filled and returned.
    """
    _require_horizon(horizon)
    dt = horizon / k
    incs = np.empty((m, k)) if out is None else out
    if spec.sigma > 0:
        rng.standard_normal(out=incs)
        incs *= spec.sigma * math.sqrt(dt)
        incs += _compensated_drift(spec) * dt
    else:
        incs.fill(_compensated_drift(spec) * dt)
    rows, times, sizes = _jump_draw(spec, horizon, m, rng)
    bins = np.clip(np.ceil(times / dt).astype(int) - 1, 0, k - 1)
    np.add.at(incs, (rows, bins), sizes)
    return incs


def sample_path(spec: JumpDiffusionSpec, horizon: float, mode, stream: RngStream,
                m: int = 1):
    """Draw m paths of X on [0, horizon] from the one stream.  Deterministic
    in stream.

    Exact mode scatters _jump_draw into the EventColumns of the m paths;
    Grid(k) mode returns the (m, k) increment matrix of
    _grid_increment_matrix.
    """
    _require_horizon(horizon)
    if m < 1:
        raise InvalidParameter("m", "path count must be >= 1")
    rng = stream.generator()
    if isinstance(mode, Grid):
        if mode.k < 1:
            raise InvalidParameter("k", "grid steps must be >= 1")
        return _grid_increment_matrix(spec, horizon, mode.k, m, rng)
    if not isinstance(mode, Exact):
        raise InvalidParameter("mode", "mode must be Exact or Grid(k)")
    if spec.sigma > 0:
        raise ExactModeUnavailable("exact sampling needs sigma = 0")
    rows, times, sizes = _jump_draw(spec, horizon, m, rng)
    counts = np.bincount(rows, minlength=m)
    order = np.argsort(rows, kind="stable")  # by path, in draw order
    rows = rows[order]
    times = times[order]
    sizes = sizes[order]
    # one scatter: event e of path i, in draw order, to row e of column
    # i, padded with inf while sorting so that no event ties with the
    # padding (uniform(0, horizon) can return the horizon); then each
    # column is sorted by time.  The dels keep one copy of the draw.
    cells = (np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]) * m + rows
    del order, rows
    shape = (int(counts.max()) + 1, m)
    t, s = np.full(shape, math.inf), np.zeros(shape)
    np.put(t, cells, times)
    np.put(s, cells, sizes)
    del times, sizes, cells
    by_time = np.argsort(t, axis=0)
    t, s = np.take_along_axis(t, by_time, 0), np.take_along_axis(s, by_time, 0)
    return EventColumns(np.full(m, float(spec.x0)), horizon, _compensated_drift(spec),
                        counts, np.minimum(t, horizon, out=t), s)
