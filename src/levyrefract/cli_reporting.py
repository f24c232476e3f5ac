"""Config-driven experiment runner with CSV and SVG emission.

Config files are flat `section.key = value` documents; the grammar is
documented in the README.  Every run writes its outputs plus a
run_manifest.json recording the config hash, seed, engine, version, and
file digests.  Reruns with the same config and seed produce byte-identical
CSVs regardless of thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .levy_model import (
    EXACT,
    Exponential,
    Grid,
    HyperExponential,
    InvalidParameter,
    JumpDiffusionSpec,
    PointMass,
    RngStream,
    Uniform,
    Weibull,
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
    value_curve_csv,
)
from . import properties_oracle as oracle

OUT_DIR_ENV = "LEVYREFRACT_OUT"
DESK_N = 10_000
DESK_K = 2_000

# Truncated-drift coefficient for the built-in reference experiments: the
# value that puts the slope between jumps at exactly 0.6 for unit-rate
# Uniform(0,1) up-jumps against unit-rate Weibull(2,1) down-jumps.
REFERENCE_GAMMA = 0.7210553083590153

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
_CONTROL_KEYS = {"alpha", "beta", "q"}
_GRID_KEYS = {"t", "k"}
_MC_KEYS = {"n", "seed"}
_TASK_KEYS = {"b_grid", "x_grid", "alphas", "competing_b", "b", "x",
              "engine", "method"}

_DISTS = {
    "uniform": (Uniform, 2),
    "exponential": (Exponential, 1),
    "weibull": (Weibull, 2),
    "pointmass": (PointMass, 1),
    "hyperexponential": (HyperExponential, -1),
}


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
        parts = key.split(".")
        if parts[0] == "model":
            if len(parts) == 2 and parts[1] in _MODEL_KEYS:
                continue
            if (len(parts) == 3 and parts[1].startswith("jump")
                    and parts[1][4:].isdigit() and parts[2] in _JUMP_KEYS):
                continue
        elif parts[0] == "control" and len(parts) == 2 and parts[1] in _CONTROL_KEYS:
            continue
        elif parts[0] == "grid" and len(parts) == 2 and parts[1] in _GRID_KEYS:
            continue
        elif parts[0] == "mc" and len(parts) == 2 and parts[1] in _MC_KEYS:
            continue
        elif parts[0] == "task" and len(parts) == 2 and parts[1] in _TASK_KEYS:
            continue
        raise ParseError(f"unknown key {key}")
    return items


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


def parse_grid(key: str, val: str) -> np.ndarray:
    """lo:step:hi inclusive range, or a comma list; strictly increasing."""
    if ":" in val:
        parts = val.split(":")
        if len(parts) != 3:
            raise ValidationError(key, "range must be lo:step:hi")
        lo, step, hi = (_to_float(key, p) for p in parts)
        if step <= 0 or hi < lo:
            raise ValidationError(key, "need step > 0 and hi >= lo")
        # + 0.0 turns the -0.0 that rounding leaves at a zero crossing into 0.0
        grid = np.round(np.arange(lo, hi + step * 0.5, step), 10) + 0.0
    else:
        grid = np.asarray([_to_float(key, p) for p in val.split(",")])
    if grid.size == 0 or (grid.size > 1 and np.any(np.diff(grid) <= 0)):
        raise ValidationError(key, "grid must be non-empty and strictly increasing")
    return grid


def _to_list(key: str, val: str):
    return [_to_float(key, p) for p in val.split(",")]


def _build_marks(prefix: str, items: dict):
    dist = items.get(prefix + ".dist")
    if dist is None:
        raise ValidationError(prefix + ".dist", "missing")
    dist = dist.lower()
    if dist not in _DISTS:
        raise ValidationError(prefix + ".dist", f"unknown distribution {dist!r}")
    cls, npar = _DISTS[dist]
    params = _to_list(prefix + ".params", items.get(prefix + ".params", ""))
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
    if sigma < 0:
        raise ValidationError("model.sigma", "must be >= 0")
    x0 = _to_float("model.x0", items.get("model.x0", "0"))
    comps = []
    blocks = sorted({key.split(".")[1] for key in items if key.startswith("model.jump")},
                    key=lambda name: (int(name[4:]), name))
    for block in blocks:
        prefix = "model." + block
        rate = _to_float(prefix + ".rate", items.get(prefix + ".rate", "nan"))
        if not rate > 0:
            raise ValidationError(prefix + ".rate", "must be > 0")
        sign = _to_int(prefix + ".sign", items.get(prefix + ".sign", "0"))
        if sign not in (1, -1):
            raise ValidationError(prefix + ".sign", "must be +1 or -1")
        comps.append((rate, sign, _build_marks(prefix, items)))
    spec = JumpDiffusionSpec(gamma=gamma, sigma=sigma,
                             jump_components=tuple(comps), x0=x0)
    try:
        validate_spec(spec)
    except InvalidParameter as err:
        field = err.field_name
        if field.startswith("jump_components["):
            field = blocks[int(field[16:-1])]  # component i is the i-th block
        raise ValidationError("model." + field, str(err))
    return spec


@dataclass(frozen=True)
class ExperimentConfig:
    spec: JumpDiffusionSpec
    alpha: float
    beta: float
    q: float
    horizon: float
    k: int
    n: int
    seed: int
    task: dict = field(default_factory=dict)
    text_sha256: str = ""

    def params_for(self, b: float) -> StrategyParams:
        return StrategyParams(b=b, alpha=self.alpha, beta=self.beta, q=self.q)

    def task_float(self, key: str, default=None):
        if key not in self.task:
            return default
        return _to_float("task." + key, self.task[key])

    def task_grid(self, key: str):
        if key not in self.task:
            raise ValidationError("task." + key, "missing")
        return parse_grid("task." + key, self.task[key])

    def task_list(self, key: str):
        if key not in self.task:
            raise ValidationError("task." + key, "missing")
        return _to_list("task." + key, self.task[key])

    def task_str(self, key: str, default: str) -> str:
        return self.task.get(key, default).lower()


def load_config(source: str) -> ExperimentConfig:
    """Read a config from a file path or directly from config text."""
    if "\n" not in source and "=" not in source:
        if not os.path.exists(source):
            raise ParseError(f"no such config file: {source}")
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source
    items = _parse_items(text)
    spec = _build_spec(items)
    for key in ("control.alpha", "control.beta", "control.q"):
        if key not in items:
            raise ValidationError(key, "missing")
    alpha = _to_float("control.alpha", items["control.alpha"])
    if not alpha > 0:
        raise ValidationError("control.alpha", "must be > 0 (inf allowed)")
    beta = _to_float("control.beta", items["control.beta"])
    if not beta > 1:
        raise ValidationError("control.beta", "must be > 1")
    q = _to_float("control.q", items["control.q"])
    if not (q > 0 and math.isfinite(q)):
        raise ValidationError("control.q", "must be positive and finite")
    if "grid.t" not in items:
        raise ValidationError("grid.T", "missing")
    horizon = _to_float("grid.T", items["grid.t"])
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValidationError("grid.T", "must be positive and finite")
    if "grid.k" not in items:
        raise ValidationError("grid.K", "missing")
    k = _to_int("grid.K", items["grid.k"])
    if k < 1:
        raise ValidationError("grid.K", "must be >= 1")
    if "mc.n" not in items:
        raise ValidationError("mc.N", "missing")
    n = _to_int("mc.N", items["mc.n"])
    if n < 1:
        raise ValidationError("mc.N", "must be >= 1")
    if "mc.seed" not in items:
        raise ValidationError("mc.seed", "missing")
    seed = _to_int("mc.seed", items["mc.seed"])
    if seed < 0:
        raise ValidationError("mc.seed", "must be >= 0")
    task = {key.split(".", 1)[1]: val for key, val in items.items()
            if key.startswith("task.")}
    if "x" in task and not math.isfinite(_to_float("task.x", task["x"])):
        raise ValidationError("task.x", "must be finite")
    if "b" in task and not 0 <= _to_float("task.b", task["b"]) < math.inf:
        raise ValidationError("task.b", "must be finite and >= 0")
    if "competing_b" in task and not all(
            0 <= b < math.inf for b in _to_list("task.competing_b", task["competing_b"])):
        raise ValidationError("task.competing_b", "each must be finite and >= 0")
    if "alphas" in task and not all(a > 0 for a in _to_list("task.alphas", task["alphas"])):
        raise ValidationError("task.alphas", "each rate cap must be > 0 (inf allowed)")
    for key in ("b_grid", "x_grid"):
        if key in task:
            parse_grid("task." + key, task[key])
    engine = task.get("engine", "auto").lower()
    if engine not in ("auto", "exact", "euler"):
        raise ValidationError("task.engine", "must be auto, exact, or euler")
    if engine == "exact" and spec.sigma != 0.0:
        raise ValidationError("task.engine", "the exact engine needs model.sigma = 0")
    if "method" in task and task["method"].lower() not in ("direct", "spliced"):
        raise ValidationError("task.method", "must be direct or spliced")
    return ExperimentConfig(
        spec=spec, alpha=alpha, beta=beta, q=q, horizon=horizon, k=k, n=n,
        seed=seed, task=task,
        text_sha256=hashlib.sha256(text.encode()).hexdigest())


# reference experiment factories -------------------------------------------

def reference_case1_spec() -> JumpDiffusionSpec:
    """Bounded-variation reference model: slope 0.6 between jumps, unit-rate
    Uniform(0,1) up-jumps, unit-rate Weibull(2,1) down-jumps."""
    return JumpDiffusionSpec(
        gamma=REFERENCE_GAMMA, sigma=0.0,
        jump_components=((1.0, 1, Uniform(0.0, 1.0)),
                         (1.0, -1, Weibull(2.0, 1.0))))


def reference_case2_spec() -> JumpDiffusionSpec:
    """Same jumps with a unit Gaussian part (unbounded variation)."""
    return replace(reference_case1_spec(), sigma=1.0)


# SVG plots -----------------------------------------------------------------

def _nice_ticks(lo: float, hi: float, target: int = 5):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
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
        if x1 - x0 <= 0:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 - y0 <= 0:
            y0, y1 = y0 - 0.5, y1 + 0.5
        px, py = 0.04 * (x1 - x0), 0.06 * (y1 - y0)
        return x0 - px, x1 + px, y0 - py, y1 + py

    def render(self) -> str:
        x0, x1, y0, y1 = self._bounds()
        iw = self.W - self.ML - self.MR
        ih = self.H - self.MT - self.MB

        def tx(x):
            return self.ML + (x - x0) / (x1 - x0) * iw

        def ty(y):
            return self.MT + (y1 - y) / (y1 - y0) * ih

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


# output collection ---------------------------------------------------------

class _OutputSet:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.records = []

    def write(self, name: str, text: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        data = text.encode()
        with open(path, "wb") as fh:
            fh.write(data)
        self.records.append({"file": name,
                             "sha256": hashlib.sha256(data).hexdigest(),
                             "bytes": len(data)})
        return path

    def discard_all(self):
        for rec in self.records:
            try:
                os.unlink(os.path.join(self.out_dir, rec["file"]))
            except OSError:
                pass
        self.records = []


def emit_outputs(outs: _OutputSet, base: str, csv_text: str, plot: SvgPlot | None):
    """Write one result as CSV and SVG; a missing plot (empty result)
    writes the CSV file only."""
    outs.write(base + ".csv", csv_text)
    if plot is not None:
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
        doc = {"subcommand": self.subcommand, "config_sha256": self.config_sha256,
               "seed": self.seed, "engine": self.engine,
               "desk_scale": self.desk_scale, "version": self.version,
               "status": self.status, "outputs": list(self.outputs)}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _version() -> str:
    from levyrefract import __version__
    return __version__


# subcommands ---------------------------------------------------------------

def _run_validate(cfg, outs, seed, n, k, threads, desk):
    rep = validate_spec(cfg.spec)
    delta = net_drift(cfg.spec)
    lines = [
        "ok = true",  # validate_spec raises on every failed check
        "case = Case%d" % (2 if is_case2(delta, cfg.alpha) else 1),
        "net_drift = %s" % ("none" if delta is None else "%.17g" % delta),
        "negative_jump_mean = %.17g" % rep.negative_jump_mean,
        "engine = %s" % _engine_for(cfg.spec, cfg.task_str("engine", "auto")),
    ]
    outs.write("validation.txt", "\n".join(lines) + "\n")
    return "none", "pass"


def _run_sample_path(cfg, outs, seed, n, k, threads, desk):
    b = cfg.task_float("b")
    if b is None:
        raise ValidationError("task.b", "missing")
    params = cfg.params_for(b)
    stream = RngStream(seed, tag=1)
    eng = _engine_for(cfg.spec, cfg.task_str("engine", "auto"))
    if eng == "exact":
        columns = sample_path(cfg.spec, cfg.horizon, EXACT, stream, 1)
        traj = ControlledTrajectory.from_exact(columns, apply_strategy_exact(columns, params))
    else:
        incs = sample_path(cfg.spec, cfg.horizon, Grid(k), stream)[0]
        traj = simulate_euler(cfg.spec.x0, params, incs, cfg.horizon / k)
    plot = SvgPlot("Controlled surplus sample path", "t", "level")
    plot.line(traj.times, traj.z, _PALETTE[0], label="surplus")
    plot.line(traj.times, traj.l, _PALETTE[2], label="dividends", dashed=True)
    plot.line(traj.times, traj.r, _PALETTE[1], label="injections", dashed=True)
    plot.hline(params.b, label="threshold b")
    plot.hline(0.0, color="#bbbbbb")
    emit_outputs(outs, "sample_path", traj.to_csv(), plot)
    return eng, "pass"


def _nu_plot(curve, beta, title):
    plot = SvgPlot(title, "b", "passage transform")
    grid = curve.grid
    plot.line(grid, curve.values, _PALETTE[0], label="nu estimate")
    plot.hline(1.0 / beta, label="1/beta")
    cross = (grid > 0) & (beta * curve.values < 1.0)
    if grid.size and np.any(cross):
        i = int(np.argmax(cross))
        plot.marker(float(grid[i]), float(curve.values[i]), _PALETTE[1],
                    label="(b*, nu(b*))")
    return plot


def _run_nu_curve(cfg, outs, seed, n, k, threads, desk):
    bgrid = cfg.task_grid("b_grid")
    eng = _engine_for(cfg.spec, cfg.task_str("engine", "auto"))
    curve = nu_curve(cfg.params_for(0.0), cfg.spec, bgrid, cfg.horizon, k, n,
                     RngStream(seed, tag=2), engine=eng, threads=threads)
    plot = _nu_plot(curve, cfg.beta, "Passage transform over thresholds") \
        if bgrid.size else None
    emit_outputs(outs, "nu_curve", curve.to_csv(), plot)
    return eng, "pass"


def _run_bstar(cfg, outs, seed, n, k, threads, desk):
    bgrid = cfg.task_grid("b_grid")
    eng = _engine_for(cfg.spec, cfg.task_str("engine", "auto"))
    res = find_bstar(cfg.params_for(0.0), cfg.spec, bgrid, cfg.horizon, k, n,
                     RngStream(seed, tag=2), engine=eng, threads=threads)
    outs.write("bstar.csv", res.to_csv())
    plot = _nu_plot(res.curve, cfg.beta, "Threshold estimate")
    emit_outputs(outs, "nu_curve", res.curve.to_csv(), plot)
    return eng, "pass"


def _assemble_value_curves(cfg, seed, n, k, threads, bs, principal, xs, method):
    """Every curve of bs over xs, and the plot marker at x = b of each b
    inside the x range, from one value_curve job."""
    eng = _engine_for(cfg.spec, cfg.task_str("engine", "auto"))
    marked = [b for b in bs if xs.size and xs[0] <= b <= xs[-1]]
    got = value_curve(np.concatenate((np.tile(xs, len(bs)), marked)),
                      np.concatenate((np.repeat(bs, xs.size), marked)),
                      cfg.params_for(principal), cfg.spec, cfg.horizon, k, n,
                      RngStream(seed, tag=3), method=method, engine=eng,
                      threads=threads)
    curves = [got[i * xs.size:(i + 1) * xs.size] for i in range(len(bs))]
    marks = dict(zip(marked, got[len(bs) * xs.size:]))
    rows = [(x, float(b), est, method) for b, curve in zip(bs, curves)
            for x, est in curve]
    plot = SvgPlot("Value curves by threshold", "x", "value") if xs.size else None
    if plot is not None:
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
    return rows, plot, eng


def _run_value_curve(cfg, outs, seed, n, k, threads, desk):
    b = cfg.task_float("b")
    if b is None:
        raise ValidationError("task.b", "missing")
    xs = cfg.task_grid("x_grid")
    competing = []
    if "competing_b" in cfg.task:
        competing = cfg.task_list("competing_b")
    method = cfg.task_str("method", "spliced")
    bs = [float(b)] + [float(c) for c in competing]
    rows, plot, eng = _assemble_value_curves(cfg, seed, n, k, threads, bs,
                                             float(b), xs, method)
    emit_outputs(outs, "value_curves", value_curve_csv(rows), plot)
    return eng, "pass"


def _run_alpha_convergence(cfg, outs, seed, n, k, threads, desk):
    if cfg.spec.sigma != 0.0:
        raise ValidationError("model.sigma", "the cap ladder needs sigma = 0")
    alphas = cfg.task_list("alphas")
    x = cfg.task_float("x")
    if x is None:
        raise ValidationError("task.x", "missing")
    b = cfg.task_float("b")
    if b is None:
        raise ValidationError("task.b", "missing")
    n_paths = min(n, 2000)
    horizon = min(cfg.horizon, 30.0)
    try:
        rep = oracle.alpha_ladder_run(cfg.spec, float(b), alphas, float(x), horizon,
                                      n_paths, RngStream(seed, tag=4),
                                      beta=cfg.beta, q=cfg.q)
    except oracle.InvalidLadder as err:
        raise ValidationError("task.alphas", str(err))
    lines = ["alpha,v,se,sup_gap_to_limit"]
    for a, v, s, g in zip(rep.alphas, rep.value_means, rep.value_ses,
                          rep.sup_gap_to_limit):
        lines.append("%s,%.17g,%.17g,%.17g" % ("inf" if a == math.inf else "%g" % a,
                                               v, s, g))
    csv_text = "\n".join(lines) + "\n"
    plot = SvgPlot("Value along the rate-cap ladder", "ladder rung", "value")
    idx = np.arange(1, len(rep.alphas) + 1, dtype=float)
    plot.line(idx, np.asarray(rep.value_means), _PALETTE[0], label="v estimate")
    plot.xticks = [(float(i), "inf" if a == math.inf else "%g" % a)
                   for i, a in zip(idx, rep.alphas)]
    if rep.alphas[-1] == math.inf:
        plot.hline(rep.value_means[-1], label="reflected limit")
    emit_outputs(outs, "alpha_ladder", csv_text, plot)
    if rep.violations:
        outs.write("violations.csv", oracle.violations_csv(rep.violations))
    outs.write("alpha_ladder.txt", "\n".join(rep.summary_lines()) + "\n")
    return "exact", "pass" if rep.ok else "fail"


def _run_check_properties(cfg, outs, seed, n, k, threads, desk):
    if cfg.spec.sigma != 0.0:
        raise ValidationError("model.sigma", "property checks need sigma = 0")
    b = cfg.task_float("b", 1.0)
    x = cfg.task_float("x", 0.5)
    horizon = min(cfg.horizon, 20.0)
    n_pair = min(n, 300)
    shift = 0.5 * b if b > 0 else 0.5
    pair = oracle.coupled_pair_run(cfg.spec, cfg.params_for(b), x, 0.0, shift,
                                   horizon, n_pair, RngStream(seed, tag=5),
                                   relaxed=b == 0.0)
    reports = [pair]
    # alpha = inf leaves one distinct rate cap and no ladder to climb
    rungs = sorted({cfg.alpha, 2 * cfg.alpha, math.inf})
    if len(rungs) > 1:
        reports.append(oracle.alpha_ladder_run(cfg.spec, b, rungs, x, horizon,
                                               min(n_pair, 150), RngStream(seed, tag=6),
                                               beta=cfg.beta, q=cfg.q))
    char = oracle.char_function_check(cfg.spec, 1.0, [0.5, 1.0, 2.0],
                                      max(n, 40_000), RngStream(seed, tag=7))
    # negative control: a correct coupled pair checked against a mis-stated
    # shift must break the budget relation on any model
    cols = sample_path(replace(cfg.spec, x0=0.0), horizon, EXACT, RngStream(seed, tag=8), 1)
    lower = replace(cols, x0=cols.x0 + x)
    tk = apply_strategy_exact(lower, cfg.params_for(b))
    tl = apply_strategy_exact(replace(lower, x0=lower.x0 + shift), cfg.params_for(b))
    control = oracle.check_pair(tk, tl, 0.5 * shift, b)
    lines = [line for rep in reports for line in rep.summary_lines()]
    if len(rungs) == 1:
        lines.append("SKIP alpha_ladder (control.alpha = inf leaves one rate cap)")
    lines.append(("PASS" if char.ok else "FAIL") + " char_function")
    lines.append("PASS negative_control (fired %d violations)" % len(control)
                 if control else "FAIL negative_control (silent)")
    outs.write("properties.txt", "\n".join(lines) + "\n")
    viols = [v for rep in reports for v in rep.violations]
    outs.write("violations.csv", oracle.violations_csv(viols))
    ok = all(rep.ok for rep in reports) and char.ok and bool(control)
    return "exact", "pass" if ok else "fail"


def _run_reproduce(cfg, outs, seed, n, k, threads, desk):
    engines = []
    for tag_base, name, spec, bhi in ((10, "case1", reference_case1_spec(), 3.49),
                                      (20, "case2", reference_case2_spec(), 3.99)):
        sub = ExperimentConfig(spec=spec, alpha=0.5, beta=1.5, q=0.05,
                               horizon=cfg.horizon, k=cfg.k, n=cfg.n,
                               seed=seed, task={},
                               text_sha256=cfg.text_sha256)
        eng = _engine_for(spec, "auto")
        engines.append(eng)
        bgrid = parse_grid("task.b_grid", f"-1:0.01:{bhi}")
        res = find_bstar(sub.params_for(0.0), spec, bgrid, sub.horizon, k, n,
                         RngStream(seed, tag=tag_base), engine=eng,
                         threads=threads)
        outs.write(f"bstar_{name}.csv", res.to_csv())
        emit_outputs(outs, f"nu_curve_{name}", res.curve.to_csv(),
                     _nu_plot(res.curve, sub.beta,
                              f"Passage transform ({name})"))
        bst = res.bstar_hat
        bs = sorted({round(bst * f, 2) for f in
                     (1 / 3, 2 / 3, 1.0, 4 / 3, 5 / 3)})
        step = 0.25 if desk else 0.01
        xs = parse_grid("task.x_grid", f"-1:{step}:{bhi}")
        n_val = min(n, 2000) if desk else n
        rows, plot, _ = _assemble_value_curves(
            sub, seed + tag_base, n_val, k, threads, bs, round(bst, 2), xs,
            "spliced")
        if plot is not None:
            plot.title = f"Value curves ({name})"
        emit_outputs(outs, f"value_curves_{name}", value_curve_csv(rows), plot)
    return "+".join(engines), "pass"


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
    if subcommand not in _SUBS:
        raise ValueError("subcommand must be one of " + ", ".join(SUBCOMMANDS))
    eff_seed = cfg.seed if seed is None else int(seed)
    if eff_seed < 0:
        raise ValidationError("--seed", "must be >= 0")
    if threads < 1:
        raise ValidationError("--threads", "must be >= 1")
    n, k = cfg.n, cfg.k
    if desk_scale:
        n = min(n, DESK_N)
        k = min(k, DESK_K)
    outs = _OutputSet(out_dir)
    try:
        engine, status = _SUBS[subcommand](cfg, outs, eff_seed, n, k,
                                           threads, desk_scale)
    except BaseException:
        outs.discard_all()
        raise
    manifest = RunManifest(subcommand=subcommand, config_sha256=cfg.text_sha256,
                           seed=eff_seed, engine=engine, desk_scale=desk_scale,
                           version=_version(), status=status,
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
    except NoCrossing as err:
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


if __name__ == "__main__":
    raise SystemExit(main())
