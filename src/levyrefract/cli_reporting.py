"""Config-driven experiment runner with CSV and SVG emission.

Config files are flat `section.key = value` documents; the grammar is
documented in the README.  Each value is parsed and checked once, when
load_config reads it into ExperimentConfig: _KEYS declares every key
outside model. with its field, parse, legal values and default, and the
subcommands read typed fields only.  Every run writes its outputs plus a
run_manifest.json recording the config hash, seed, engine, version, and
file digests.  Reruns with the same config and seed produce byte-identical
CSVs regardless of thread count.  Every output format is written here: the
estimators, engines and oracle return data, and csv_text and verdict_lines
print every CSV and PASS/FAIL line.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .levy_model import (
    Exponential,
    HyperExponential,
    InvalidParameter,
    JumpDiffusionSpec,
    PointMass,
    QuadratureFailure,
    RngStream,
    Uniform,
    Weibull,
    grid_increments,
    is_case2,
    net_drift,
    sample_path,
    validate_spec,
)
from .strategy_engine import (
    ControlledTrajectory,
    StrategyParams,
    apply_strategy_exact,
    simulate_euler,
)
from .estimation import (
    NoCrossing,
    _engine_for,
    find_bstar,
    nu_curve,
    value_curve,
)
from . import properties_oracle as oracle

OUT_DIR_ENV = "LEVYREFRACT_OUT"
DESK_N = 10_000
DESK_K = 2_000
DESK_VALUE_N = 2_000  # reproduce-paper's value curves at desk scale
DESK_X_STEP = 0.25  # and their x step, over the range of task.x_grid
_MAX_RANGE_POINTS = 10 ** 6  # most points a lo:step:hi grid may hold

SUBCOMMANDS = ("validate", "sample-path", "nu-curve", "bstar", "value-curve",
               "alpha-convergence", "check-properties", "reproduce-paper")

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#8c564b", "#9467bd", "#7f7f7f")


class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    def __init__(self, field_name: str, message: str = ""):
        self.field = field_name
        super().__init__(f"{field_name}: {message}" if message else field_name)


# config grammar ------------------------------------------------------------

_MODEL_KEYS = {"gamma", "sigma", "x0"}
_JUMP_KEYS = {"rate", "sign", "dist", "params"}

_DISTS = {
    "uniform": (Uniform, 2),
    "exponential": (Exponential, 1),
    "weibull": (Weibull, 2),
    "pointmass": (PointMass, 1),
    "hyperexponential": (HyperExponential, -1),
}


def _to_float(key: str, val: str) -> float:
    try:
        return float(val)
    except ValueError:
        raise ValidationError(key, f"not a number: {val!r}")


def _to_int(key: str, val: str) -> int:
    f = _to_float(key, val)
    if not f.is_integer():
        raise ValidationError(key, f"not an integer: {val!r}")
    return int(f)


def _to_floats(key: str, val: str) -> tuple:
    return tuple(_to_float(key, p) for p in val.split(","))


def _lowered(key: str, val: str) -> str:
    return val.lower()


def _range_grid(lo: float, step: float, hi: float) -> np.ndarray:
    """lo, lo + step, ... up to hi inclusive, rounded to 10 decimals."""
    # + 0.0 turns the -0.0 that rounding leaves at a zero crossing into 0.0
    return np.round(np.arange(lo, hi + step * 0.5, step), 10) + 0.0


def parse_grid(key: str, val: str) -> np.ndarray:
    """lo:step:hi inclusive range, or a comma list; finite and strictly
    increasing."""
    ranged = ":" in val
    nums = [_to_float(key, p) for p in val.split(":" if ranged else ",")]
    if ranged and len(nums) != 3:
        raise ValidationError(key, "range must be lo:step:hi")
    if not all(map(math.isfinite, nums)):
        raise ValidationError(key, "every number must be finite")
    if ranged:
        lo, step, hi = nums
        if step <= 0 or hi < lo:
            raise ValidationError(key, "need step > 0 and hi >= lo")
        # checked before arange, which would overflow or allocate the range
        if not (math.isfinite(hi + step * 0.5) and (hi - lo) / step + 1 <= _MAX_RANGE_POINTS):
            raise ValidationError(key, "a range holds at most %d points" % _MAX_RANGE_POINTS)
        grid = _range_grid(lo, step, hi)
    else:
        grid = np.asarray(nums)
    if grid.size == 0 or (grid.size > 1 and np.any(np.diff(grid) <= 0)):
        raise ValidationError(key, "grid must be non-empty and strictly increasing")
    return grid


_REQUIRED = object()


class _Key(NamedTuple):
    """One config key outside model.: the name errors give it, the
    ExperimentConfig field it fills, its parse, its default (_REQUIRED if it
    has none), and its legal values."""
    name: str
    field: str
    parse: Callable  # (name, text) -> value, raising ValidationError(name)
    default: object
    ok: Callable = lambda value: True  # whether a parsed value is legal
    rule: str = ""  # what a legal value is


_KEYS = {key.name.lower(): key for key in (
    _Key("control.alpha", "alpha", _to_float, _REQUIRED, lambda a: a > 0,
         "must be > 0 (inf allowed)"),
    _Key("control.beta", "beta", _to_float, _REQUIRED, lambda b: 1 < b < math.inf,
         "must be > 1 and finite"),
    _Key("control.q", "q", _to_float, _REQUIRED, lambda q: 0 < q < math.inf,
         "must be positive and finite"),
    _Key("grid.T", "horizon", _to_float, _REQUIRED, lambda t: 0 < t < math.inf,
         "must be positive and finite"),
    _Key("grid.K", "k", _to_int, _REQUIRED, lambda k: k >= 1, "must be >= 1"),
    _Key("mc.N", "n", _to_int, _REQUIRED, lambda n: n >= 1, "must be >= 1"),
    _Key("mc.seed", "seed", _to_int, _REQUIRED, lambda s: s >= 0, "must be >= 0"),
    _Key("task.b", "b", _to_float, None, lambda b: 0 <= b < math.inf,
         "must be finite and >= 0"),
    _Key("task.x", "x", _to_float, None, math.isfinite, "must be finite"),
    _Key("task.b_grid", "b_grid", parse_grid, None),
    _Key("task.x_grid", "x_grid", parse_grid, None),
    _Key("task.alphas", "alphas", _to_floats, None, lambda al: all(a > 0 for a in al),
         "each rate cap must be > 0 (inf allowed)"),
    _Key("task.competing_b", "competing_b", _to_floats, (),
         lambda bs: all(0 <= b < math.inf for b in bs), "each must be finite and >= 0"),
    _Key("task.method", "method", _lowered, "spliced", lambda m: m in ("direct", "spliced"),
         "must be direct or spliced"),
    # load_config checks and resolves it against the model with _engine_for
    _Key("task.engine", "engine", _lowered, "auto"),
)}


def _parse_items(text: str):
    items = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if not key or not val:
            raise ParseError(f"line {lineno}: expected key = value")
        if key in items:
            raise ParseError(f"line {lineno}: duplicate key {key}")
        items[key] = val
    for key in items:
        if key in _KEYS:
            continue
        parts = key.split(".")
        if parts[0] == "model":
            if len(parts) == 2 and parts[1] in _MODEL_KEYS:
                continue
            if (len(parts) == 3 and parts[1].startswith("jump")
                    and parts[1][4:].isdigit() and parts[2] in _JUMP_KEYS):
                continue
        raise ParseError(f"unknown key {key}")
    return items


def _build_marks(prefix: str, items: dict):
    dist = items.get(prefix + ".dist")
    if dist is None:
        raise ValidationError(prefix + ".dist", "missing")
    dist = dist.lower()
    if dist not in _DISTS:
        raise ValidationError(prefix + ".dist", f"unknown distribution {dist!r}")
    cls, npar = _DISTS[dist]
    params = _to_floats(prefix + ".params", items.get(prefix + ".params", ""))
    if npar >= 0 and len(params) != npar:
        raise ValidationError(prefix + ".params", f"{dist} takes {npar} parameters")
    if dist == "hyperexponential":
        if len(params) < 4 or len(params) % 2:
            raise ValidationError(prefix + ".params",
                                  "need weight,rate pairs (at least two)")
        params = [tuple(params[0::2]), tuple(params[1::2])]
    try:
        return cls(*params)
    except InvalidParameter as err:
        raise ValidationError(prefix + ".params", str(err))


def _build_spec(items: dict) -> JumpDiffusionSpec:
    if "model.gamma" not in items:
        raise ValidationError("model.gamma", "missing")
    gamma = _to_float("model.gamma", items["model.gamma"])
    sigma = _to_float("model.sigma", items.get("model.sigma", "0"))
    x0 = _to_float("model.x0", items.get("model.x0", "0"))
    comps = []
    blocks = sorted({key.split(".")[1] for key in items if key.startswith("model.jump")},
                    key=lambda name: (int(name[4:]), name))
    for block in blocks:
        prefix = "model." + block
        # a missing rate or sign is one validate_spec refuses
        rate = _to_float(prefix + ".rate", items.get(prefix + ".rate", "nan"))
        sign = _to_int(prefix + ".sign", items.get(prefix + ".sign", "0"))
        comps.append((rate, sign, _build_marks(prefix, items)))
    spec = JumpDiffusionSpec(gamma=gamma, sigma=sigma,
                             jump_components=tuple(comps), x0=x0)
    try:
        validate_spec(spec)
    except InvalidParameter as err:
        field = err.field_name
        if field.startswith("jump_components["):
            i, _, suffix = field[16:].partition("]")
            field = blocks[int(i)] + suffix  # component i is the i-th block
        raise ValidationError("model." + field, str(err))
    return spec


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's model, strategy, sizes and task values, each parsed and
    checked once by load_config.  A key the config leaves out takes its
    _KEYS default, None where a subcommand may need it; engine is exact or
    euler."""
    spec: JumpDiffusionSpec
    alpha: float
    beta: float
    q: float
    horizon: float
    k: int
    n: int
    seed: int
    b: float | None
    x: float | None
    b_grid: np.ndarray | None
    x_grid: np.ndarray | None
    alphas: tuple | None
    competing_b: tuple
    method: str
    engine: str
    text_sha256: str

    def params_for(self, b: float) -> StrategyParams:
        return StrategyParams(b=b, alpha=self.alpha, beta=self.beta, q=self.q)

    def need(self, name: str):
        """Task value name; a run that needs it refuses a config without it."""
        value = getattr(self, name)
        if value is None:
            raise ValidationError("task." + name, "missing")
        return value


def load_config(source: str) -> ExperimentConfig:
    """Read a config from a file path or directly from config text."""
    if "\n" not in source and (os.path.isfile(source) or "=" not in source):
        if not os.path.isfile(source):
            raise ParseError(f"no such config file: {source}")
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source
    items = _parse_items(text)
    spec = _build_spec(items)
    values = {}
    for item, key in _KEYS.items():
        if item not in items:
            if key.default is _REQUIRED:
                raise ValidationError(key.name, "missing")
            values[key.field] = key.default
            continue
        values[key.field] = key.parse(key.name, items[item])
        if not key.ok(values[key.field]):
            raise ValidationError(key.name, key.rule)
    try:
        values["engine"] = _engine_for(spec, values["engine"])
    except InvalidParameter as err:
        raise ValidationError("task.engine", str(err))
    return ExperimentConfig(spec=spec, **values,
                            text_sha256=hashlib.sha256(text.encode()).hexdigest())


# SVG plots -----------------------------------------------------------------

def _nice_ticks(lo: float, hi: float, target: int = 5):
    if hi <= lo:
        return [lo]
    # (hi - lo) / target, halved first so that no finite range overflows
    raw = (hi / 2 - lo / 2) / target * 2
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= min(hi + step * 1e-9, sys.float_info.max):
        ticks.append(round(t, 12) + 0.0)
        t += step
    return ticks


class SvgPlot:
    """Minimal deterministic line/marker plot writer."""

    W, H = 720, 460
    ML, MR, MT, MB = 64, 18, 36, 50

    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series = []
        self.hlines = []
        self.markers = []
        self.xticks = None

    def line(self, xs, ys, color: str, label=None, dashed=False, width=1.7):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        self.series.append((xs[keep], ys[keep], color, label, dashed, width))

    def hline(self, y: float, color: str = "#888888", label=None):
        self.hlines.append((y, color, label))

    def marker(self, x: float, y: float, color: str = "#000000", label=None):
        self.markers.append((x, y, color, label))

    def _bounds(self):
        xs = [s[0] for s in self.series if s[0].size]
        ys = [s[1] for s in self.series if s[1].size]
        if self.markers:
            xs.append(np.asarray([m[0] for m in self.markers]))
            ys.append(np.asarray([m[1] for m in self.markers]))
        if self.hlines:
            ys.append(np.asarray([h[0] for h in self.hlines]))
        if not xs or not ys:
            return 0.0, 1.0, 0.0, 1.0
        ax = np.concatenate(xs)
        ay = np.concatenate(ys)
        x0, x1 = float(ax.min()), float(ax.max())
        y0, y1 = float(ay.min()), float(ay.max())
        if x1 <= x0:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 <= y0:
            y0, y1 = y0 - 0.5, y1 + 0.5
        # pad by 4 % and 6 % of the spans, from half spans so that no finite
        # range overflows, and keep the padded bounds finite
        px, py = 0.08 * (x1 / 2 - x0 / 2), 0.12 * (y1 / 2 - y0 / 2)
        big = sys.float_info.max
        return max(x0 - px, -big), min(x1 + px, big), max(y0 - py, -big), min(y1 + py, big)

    def render(self) -> str:
        x0, x1, y0, y1 = self._bounds()
        iw = self.W - self.ML - self.MR
        ih = self.H - self.MT - self.MB

        # ratios of half differences: the same quotients, and none overflows
        def tx(x):
            return self.ML + (x / 2 - x0 / 2) / (x1 / 2 - x0 / 2) * iw

        def ty(y):
            return self.MT + (y1 / 2 - y / 2) / (y1 / 2 - y0 / 2) * ih

        out = io.StringIO()
        out.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.W}" '
                  f'height="{self.H}" viewBox="0 0 {self.W} {self.H}">\n')
        out.write(f'<rect width="{self.W}" height="{self.H}" fill="#ffffff"/>\n')
        out.write(f'<text x="{self.W / 2:.1f}" y="22" text-anchor="middle" '
                  f'font-family="sans-serif" font-size="15">{self.title}</text>\n')
        out.write(f'<rect x="{self.ML}" y="{self.MT}" width="{iw}" height="{ih}" '
                  'fill="none" stroke="#000000" stroke-width="1"/>\n')
        xticks = self.xticks or [(v, "%g" % v) for v in _nice_ticks(x0, x1)]
        for v, lab in xticks:
            if not (x0 <= v <= x1):
                continue
            px = tx(v)
            out.write(f'<line x1="{px:.2f}" y1="{self.MT + ih}" x2="{px:.2f}" '
                      f'y2="{self.MT + ih + 5}" stroke="#000000"/>\n')
            out.write(f'<text x="{px:.2f}" y="{self.MT + ih + 19}" '
                      'text-anchor="middle" font-family="sans-serif" '
                      f'font-size="11">{lab}</text>\n')
        for v in _nice_ticks(y0, y1):
            py = ty(v)
            out.write(f'<line x1="{self.ML - 5}" y1="{py:.2f}" x2="{self.ML}" '
                      f'y2="{py:.2f}" stroke="#000000"/>\n')
            out.write(f'<text x="{self.ML - 9}" y="{py + 4:.2f}" '
                      'text-anchor="end" font-family="sans-serif" '
                      f'font-size="11">{"%g" % v}</text>\n')
            out.write(f'<line x1="{self.ML}" y1="{py:.2f}" x2="{self.ML + iw}" '
                      f'y2="{py:.2f}" stroke="#dddddd" stroke-width="0.6"/>\n')
        out.write(f'<text x="{self.ML + iw / 2:.1f}" y="{self.H - 12}" '
                  'text-anchor="middle" font-family="sans-serif" '
                  f'font-size="13">{self.xlabel}</text>\n')
        out.write(f'<text x="16" y="{self.MT + ih / 2:.1f}" text-anchor="middle" '
                  f'transform="rotate(-90 16 {self.MT + ih / 2:.1f})" '
                  f'font-family="sans-serif" font-size="13">{self.ylabel}</text>\n')
        for y, color, _ in self.hlines:
            py = ty(y)
            out.write(f'<line x1="{self.ML}" y1="{py:.2f}" x2="{self.ML + iw}" '
                      f'y2="{py:.2f}" stroke="{color}" stroke-width="1.1" '
                      'stroke-dasharray="7 5"/>\n')
        for xs, ys, color, _, dashed, width in self.series:
            if not xs.size:
                continue
            pts = " ".join(f"{tx(a):.2f},{ty(b):.2f}" for a, b in zip(xs, ys))
            dash = ' stroke-dasharray="2.5 4.5"' if dashed else ""
            out.write(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                      f'stroke-width="{width}"{dash}/>\n')
        for x, y, color, _ in self.markers:
            out.write(f'<circle cx="{tx(x):.2f}" cy="{ty(y):.2f}" r="4.2" '
                      f'fill="{color}" stroke="#000000" stroke-width="0.8"/>\n')
        labeled = [(c, lab, d) for _, _, c, lab, d, _ in self.series if lab]
        labeled += [(c, lab, True) for _, c, lab in self.hlines if lab]
        labeled += [(c, lab, None) for _, _, c, lab in self.markers if lab]
        for i, (color, lab, dashed) in enumerate(labeled):
            ly = self.MT + 14 + 17 * i
            lx = self.ML + iw - 170
            if dashed is None:
                out.write(f'<circle cx="{lx + 12}" cy="{ly - 4}" r="4.2" '
                          f'fill="{color}" stroke="#000000" stroke-width="0.8"/>\n')
            else:
                dash = ' stroke-dasharray="2.5 4.5"' if dashed else ""
                out.write(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" '
                          f'y2="{ly - 4}" stroke="{color}" stroke-width="2"{dash}/>\n')
            out.write(f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
                      f'font-size="11">{lab}</text>\n')
        out.write("</svg>\n")
        return out.getvalue()


# output formats ------------------------------------------------------------

def _cell(value) -> str:
    return "%.17g" % value if isinstance(value, float) else str(value)


def csv_text(header: str, rows) -> str:
    """header, then one line per row: a float cell as %.17g (numpy's
    float64 is a float), any other cell as str."""
    return "".join([header + "\n"] + [",".join(map(_cell, row)) + "\n" for row in rows])


def verdict_lines(report) -> list:
    """PASS p, or FAIL p with its violation count and worst magnitude, for
    each property p that report checked (its CHECKED), in order."""
    lines = []
    for prop in report.CHECKED:
        mags = [v.magnitude for v in report.violations if v.prop == prop]
        lines.append("FAIL %s  violations=%d  max=%.3g" % (prop, len(mags), max(mags))
                     if mags else "PASS " + prop)
    return lines


def _violations_csv(violations) -> str:
    return csv_text("time,property,magnitude", ((v.time, v.prop, v.magnitude)
                                                for v in violations))


# output collection ---------------------------------------------------------

class _OutputSet:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.records = []

    def write(self, name: str, text: str):
        os.makedirs(self.out_dir, exist_ok=True)
        data = text.encode()
        with open(os.path.join(self.out_dir, name), "wb") as fh:
            fh.write(data)
        self.records.append({"file": name,
                             "sha256": hashlib.sha256(data).hexdigest(),
                             "bytes": len(data)})

    def discard_all(self):
        for rec in self.records:
            try:
                os.unlink(os.path.join(self.out_dir, rec["file"]))
            except OSError:
                pass
        self.records = []


def emit_outputs(outs: _OutputSet, base: str, csv_text: str, plot: SvgPlot):
    """Write one result as CSV and SVG."""
    outs.write(base + ".csv", csv_text)
    outs.write(base + ".svg", plot.render())


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    config_sha256: str
    seed: int
    engine: str
    desk_scale: bool
    version: str
    status: str
    outputs: tuple

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


# subcommands ---------------------------------------------------------------

def _run_validate(cfg, outs, threads, desk):
    rep = validate_spec(cfg.spec)
    delta = net_drift(cfg.spec)
    lines = [
        "ok = true",  # validate_spec raises on every failed check
        "case = Case%d" % (2 if is_case2(delta, cfg.alpha) else 1),
        "net_drift = %s" % ("none" if delta is None else "%.17g" % delta),
        "negative_jump_mean = %.17g" % rep.negative_jump_mean,
        "engine = %s" % cfg.engine,
    ]
    outs.write("validation.txt", "\n".join(lines) + "\n")
    return "none", "pass"


def _run_sample_path(cfg, outs, threads, desk):
    params = cfg.params_for(cfg.need("b"))
    stream = RngStream(cfg.seed, tag=1)
    if cfg.engine == "exact":
        columns = sample_path(cfg.spec, cfg.horizon, 1, stream)
        (table,) = apply_strategy_exact(columns, cfg.spec.x0, params)
        traj = ControlledTrajectory.from_exact(columns, cfg.spec.x0, table)
    else:
        incs = grid_increments(cfg.spec, cfg.horizon, cfg.k, 1, stream)[0]
        traj = simulate_euler(cfg.spec.x0, params, incs, cfg.horizon / cfg.k)
    plot = SvgPlot("Controlled surplus sample path", "t", "level")
    plot.line(traj.times, traj.z, _PALETTE[0], label="surplus")
    plot.line(traj.times, traj.l, _PALETTE[2], label="dividends", dashed=True)
    plot.line(traj.times, traj.r, _PALETTE[1], label="injections", dashed=True)
    plot.hline(params.b, label="threshold b")
    plot.hline(0.0, color="#bbbbbb")
    emit_outputs(outs, "sample_path", csv_text("t,Z,L,R,branch", zip(
        traj.times, traj.z, traj.l, traj.r, traj.branch)), plot)
    return cfg.engine, "pass"


def _emit_nu(outs, curve, beta, title):
    """Write nu_curve.csv and its plot."""
    plot = SvgPlot(title, "b", "passage transform")
    grid = curve.grid
    plot.line(grid, curve.values, _PALETTE[0], label="nu estimate")
    plot.hline(1.0 / beta, label="1/beta")
    cross = (grid > 0) & (beta * curve.values < 1.0)
    if np.any(cross):
        i = int(np.argmax(cross))
        plot.marker(float(grid[i]), float(curve.values[i]), _PALETTE[1],
                    label="(b*, nu(b*))")
    emit_outputs(outs, "nu_curve", csv_text("b,nu,se", zip(grid, curve.values,
                                                            curve.std_errors)), plot)


def _run_nu_curve(cfg, outs, threads, desk):
    curve = nu_curve(cfg.params_for(0.0), cfg.spec, cfg.need("b_grid"), cfg.horizon,
                     cfg.k, cfg.n, RngStream(cfg.seed, tag=2), engine=cfg.engine,
                     threads=threads)
    _emit_nu(outs, curve, cfg.beta, "Passage transform over thresholds")
    return cfg.engine, "pass"


def _bstar(cfg, outs, threads) -> float:
    """Write bstar.csv and the nu curve it was read from; return b*."""
    stream = RngStream(cfg.seed, tag=2)
    res = find_bstar(cfg.params_for(0.0), cfg.spec, cfg.need("b_grid"), cfg.horizon,
                     cfg.k, cfg.n, stream, engine=cfg.engine, threads=threads)
    outs.write("bstar.csv", csv_text("b_star,interval_low,interval_high,n,seed", [
        (res.bstar_hat, res.interval_low, res.interval_high, cfg.n, stream.id)]))
    _emit_nu(outs, res.curve, cfg.beta, "Threshold estimate")
    return res.bstar_hat


def _run_bstar(cfg, outs, threads, desk):
    _bstar(cfg, outs, threads)
    return cfg.engine, "pass"


def _emit_value_curves(cfg, outs, threads, bs, principal, xs):
    """Write value_curves.csv, every curve of bs over xs, from one value_curve
    job, and its plot, marked at x = b for each b inside the x range."""
    marked = [b for b in bs if xs[0] <= b <= xs[-1]]
    got = value_curve(np.concatenate((np.tile(xs, len(bs)), marked)),
                      np.concatenate((np.repeat(bs, xs.size), marked)),
                      cfg.params_for(principal), cfg.spec, cfg.horizon, cfg.k, cfg.n,
                      RngStream(cfg.seed, tag=3), method=cfg.method, engine=cfg.engine,
                      threads=threads)
    curves = [got[i * xs.size:(i + 1) * xs.size] for i in range(len(bs))]
    marks = dict(zip(marked, got[len(bs) * xs.size:]))
    rows = [(x, float(b), est.mean, est.std_error, cfg.method)
            for b, curve in zip(bs, curves) for x, est in curve]
    plot = SvgPlot("Value curves by threshold", "x", "value")
    ci = 0
    for b, curve in zip(bs, curves):
        vx = [r[0] for r in curve]
        vy = [r[1].mean for r in curve]
        if abs(b - principal) < 1e-12:
            plot.line(vx, vy, _PALETTE[1], label="b = %g (principal)" % b,
                      width=2.3)
        else:
            ci += 1
            plot.line(vx, vy, _PALETTE[(1 + ci) % len(_PALETTE)],
                      label="b = %g" % b, dashed=True, width=1.3)
        if b in marks:
            plot.marker(float(b), marks[b][1].mean,
                        _PALETTE[1] if abs(b - principal) < 1e-12 else "#555555")
    emit_outputs(outs, "value_curves", csv_text("x,b,v,se,method", rows), plot)


def _run_value_curve(cfg, outs, threads, desk):
    b = cfg.need("b")
    _emit_value_curves(cfg, outs, threads, [b, *cfg.competing_b], b, cfg.need("x_grid"))
    return cfg.engine, "pass"


def _run_alpha_convergence(cfg, outs, threads, desk):
    if cfg.spec.sigma != 0.0:
        raise ValidationError("model.sigma", "the cap ladder needs sigma = 0")
    alphas, x, b = cfg.need("alphas"), cfg.need("x"), cfg.need("b")
    horizon, n, stream = min(cfg.horizon, 30.0), min(cfg.n, 2000), RngStream(cfg.seed, tag=4)
    try:
        rep = oracle.alpha_ladder_run(cfg.spec, b, alphas, x, horizon, n, stream)
    except oracle.InvalidLadder as err:
        raise ValidationError("task.alphas", str(err))
    # each rung's direct value, dividends less beta-weighted injections to the horizon
    vals = [value_curve([x], b, replace(cfg.params_for(b), alpha=a), cfg.spec, horizon,
                        cfg.k, n, stream, method="direct", engine="exact",
                        threads=threads)[0][1] for a in rep.alphas]
    plot = SvgPlot("Value along the rate-cap ladder", "ladder rung", "value")
    idx = np.arange(1, len(rep.alphas) + 1, dtype=float)
    plot.line(idx, np.array([est.mean for est in vals]), _PALETTE[0], label="v estimate")
    plot.xticks = [(float(i), "%g" % a) for i, a in zip(idx, rep.alphas)]
    if rep.alphas[-1] == math.inf:
        plot.hline(vals[-1].mean, label="reflected limit")
    emit_outputs(outs, "alpha_ladder", csv_text("alpha,v,se,sup_gap_to_limit", [
        ("%g" % a, est.mean, est.std_error, g)
        for a, est, g in zip(rep.alphas, vals, rep.sup_gap_to_limit)]), plot)
    if rep.violations:
        outs.write("violations.csv", _violations_csv(rep.violations))
    outs.write("alpha_ladder.txt", "\n".join(verdict_lines(rep)) + "\n")
    return "exact", "pass" if rep.ok else "fail"


def _run_check_properties(cfg, outs, threads, desk):
    if cfg.spec.sigma != 0.0:
        raise ValidationError("model.sigma", "property checks need sigma = 0")
    b, x = cfg.need("b"), cfg.need("x")
    horizon = min(cfg.horizon, 20.0)
    n_pair = min(cfg.n, 300)
    shift = 0.5 * b if b > 0 else 0.5
    pair = oracle.coupled_pair_run(cfg.spec, cfg.params_for(b), x, 0.0, shift,
                                   horizon, n_pair, RngStream(cfg.seed, tag=5),
                                   relaxed=b == 0.0)
    reports = [pair]
    # alpha = inf leaves one distinct rate cap and no ladder to climb
    rungs = sorted({cfg.alpha, 2 * cfg.alpha, math.inf})
    if len(rungs) > 1:
        reports.append(oracle.alpha_ladder_run(cfg.spec, b, rungs, x, horizon,
                                               min(n_pair, 150), RngStream(cfg.seed, tag=6)))
    char = oracle.char_function_check(cfg.spec, 1.0, [0.5, 1.0, 2.0],
                                      max(cfg.n, 40_000), RngStream(cfg.seed, tag=7))
    # negative control: a correct pair must break the budget of a mis-stated shift
    cols = sample_path(cfg.spec, horizon, 1, RngStream(cfg.seed, tag=8))
    # the draw's 0 shifted by x (a -0.0 start is 0.0), and by shift more
    tk, tl = apply_strategy_exact(cols, [0.0 + x, 0.0 + x + shift], cfg.params_for(b))
    control = oracle.check_pair(tk, tl, 0.5 * shift, b)
    lines = [line for rep in reports for line in verdict_lines(rep)]
    if len(rungs) == 1:
        lines.append("SKIP alpha_ladder (control.alpha = inf leaves one rate cap)")
    lines.append(("PASS" if char.ok else "FAIL") + " char_function")
    lines.append("PASS negative_control (fired %d violations)" % len(control)
                 if control else "FAIL negative_control (silent)")
    outs.write("properties.txt", "\n".join(lines) + "\n")
    viols = [v for rep in reports for v in rep.violations]
    outs.write("violations.csv", _violations_csv(viols))
    ok = all(rep.ok for rep in reports) and char.ok and bool(control)
    return "exact", "pass" if ok else "fail"


def _run_reproduce(cfg, outs, threads, desk):
    """bstar, then the value curves of thresholds b* x {1/3, ..., 5/3}."""
    xs = cfg.need("x_grid")
    bst = _bstar(cfg, outs, threads)
    bs = sorted({round(bst * f, 2) for f in (1 / 3, 2 / 3, 1.0, 4 / 3, 5 / 3)})
    if desk:
        xs = _range_grid(xs[0], DESK_X_STEP, xs[-1])
        cfg = replace(cfg, n=min(cfg.n, DESK_VALUE_N))
    _emit_value_curves(cfg, outs, threads, bs, round(bst, 2), xs)
    return cfg.engine, "pass"


_SUBS = {
    "validate": _run_validate,
    "sample-path": _run_sample_path,
    "nu-curve": _run_nu_curve,
    "bstar": _run_bstar,
    "value-curve": _run_value_curve,
    "alpha-convergence": _run_alpha_convergence,
    "check-properties": _run_check_properties,
    "reproduce-paper": _run_reproduce,
}


def run_experiment(cfg: ExperimentConfig, subcommand: str, out_dir: str = ".",
                   seed=None, threads: int = 1,
                   desk_scale: bool = False) -> RunManifest:
    """Execute one subcommand and write its outputs plus run_manifest.json.

    Partial outputs are removed if the run raises.  The manifest lists every
    file written with its digest; thread count never changes output bytes.
    """
    from levyrefract import __version__
    if subcommand not in _SUBS:
        raise ValueError("subcommand must be one of " + ", ".join(SUBCOMMANDS))
    cfg = replace(cfg, seed=cfg.seed if seed is None else int(seed))
    if cfg.seed < 0:
        raise ValidationError("--seed", "must be >= 0")
    if threads < 1:
        raise ValidationError("--threads", "must be >= 1")
    if desk_scale:
        cfg = replace(cfg, n=min(cfg.n, DESK_N), k=min(cfg.k, DESK_K))
    outs = _OutputSet(out_dir)
    try:
        engine, status = _SUBS[subcommand](cfg, outs, threads, desk_scale)
    except BaseException:
        outs.discard_all()
        raise
    manifest = RunManifest(subcommand=subcommand, config_sha256=cfg.text_sha256,
                           seed=cfg.seed, engine=engine, desk_scale=desk_scale,
                           version=__version__, status=status,
                           outputs=tuple(outs.records))
    with open(os.path.join(out_dir, "run_manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(manifest.to_json())
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levy-refract",
        description="Simulation and estimation for rate-capped dividend "
                    "strategies with capital injection.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--desk-scale", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "levyrefract-out"
    try:
        cfg = load_config(args.config)
        manifest = run_experiment(cfg, args.subcommand, out_dir=out_dir,
                                  seed=args.seed, threads=args.threads,
                                  desk_scale=args.desk_scale)
    except (ParseError, ValidationError) as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    except (NoCrossing, QuadratureFailure) as err:
        print("no result: %s" % err, file=sys.stderr)
        return 1
    for rec in manifest.outputs:
        print("wrote %s" % os.path.join(out_dir, rec["file"]))
    print("wrote %s" % os.path.join(out_dir, "run_manifest.json"))
    for rec in manifest.outputs:
        if rec["file"] in ("properties.txt", "bstar.csv", "validation.txt",
                           "alpha_ladder.txt"):
            with open(os.path.join(out_dir, rec["file"]), encoding="utf-8") as fh:
                sys.stdout.write(fh.read())
    if manifest.status != "pass":
        return 1
    return 0
