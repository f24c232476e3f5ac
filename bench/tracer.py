"""In-process span tracer for the six levyrefract modules.

`Tracer.install()` wraps every public function of the six modules and
rebinds the wrapper wherever the original is bound at module level, so
`from .levy_model import sample_path` in `estimation` is traced as well as
`levy_model.sample_path`.  Calls that resolve a module attribute at call
time (`path_engine.refract_exact`, or `estimation` importing
`apply_strategy_exact` inside a function) see the wrapper too.  Nothing
under `src/` changes; `uninstall()` restores every binding.

Spans (name, start, end, parent) stay in memory until the caller writes
them out.  `layer_metrics()` derives calls, self time and counts from them.
Only a single process is traced: run the program with threads = 1.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time

MODULES = ("levy_model", "path_engine", "strategy_engine", "estimation",
           "properties_oracle", "cli_reporting")

# The path transforms whose trajectories are counted in segments_per_call.
PATH_TRANSFORMS = ("refract_exact", "refracted_reflected_exact", "reflect_two_sided",
                   "reflect_from_above")

# Functions with per-function stats in the per-layer metrics.
FUNCTION_STATS = {
    "levy_model": (("sample_path", ("calls", "self_s", "ms_per_call")),),
    "path_engine": tuple((f, ("calls", "self_s", "ms_per_call")) for f in PATH_TRANSFORMS),
    "strategy_engine": (("apply_strategy_exact", ("calls", "self_s", "ms_per_call")),),
    "estimation": tuple((f, ("calls", "self_s")) for f in (
        "nu_curve", "find_bstar", "estimate_value", "value_curve")),
    "properties_oracle": tuple((f, ("calls", "self_s")) for f in (
        "coupled_pair_run", "alpha_ladder_run", "check_pair", "char_function_check")),
    "cli_reporting": (("run_experiment", ("self_s",)),),
}

# Counts and ratios measured at the traced boundaries.
DERIVED = (
    ("levy_model.events_per_path", "count", "lower"),
    ("levy_model.resample_ratio", "ratio", "lower"),
    ("path_engine.segments_per_call", "count", "lower"),
    ("estimation.nu_ms_per_path", "ms", "lower"),
    ("estimation.value_ms_per_start_path", "ms", "lower"),
    ("estimation.euler_ns_per_path_step", "ns", "lower"),
    ("cli_reporting.bytes_written", "bytes", "lower"),
    ("cli_reporting.outputs_identical", "count", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)

_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
          "ms_per_call": ("ms", "lower")}


def per_layer_catalog():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for mod in MODULES:
        for fn, stats in FUNCTION_STATS[mod]:
            out += [("%s.%s.%s" % (mod, fn, s),) + _UNITS[s] for s in stats]
        out.append(("%s.self_s" % mod, "s", "lower"))
    out.append(("untraced.self_s", "s", "lower"))
    out += list(DERIVED)
    return out


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Wrap, record and restore.  One instance traces one process."""

    def __init__(self, package):
        self.package = package
        self.modules = {m: getattr(package, m) for m in MODULES}
        self.names = []  # span name per span-name index
        self.spans = []  # (name index, start, end, parent span index or -1)
        self._stack = []
        self._saved = []  # (module, attribute, original)
        self.counts = {"events": 0, "segments": 0, "streams": set(),
                       "nu_paths": 0, "value_paths": 0, "euler_path_steps": 0}

    # binding -------------------------------------------------------------

    def public_functions(self):
        """{original function: 'module.function'} for every public function
        defined in one of the six modules."""
        found = {}
        prefix = self.package.__name__ + "."
        for mod_name, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == prefix + mod_name):
                    found[obj] = "%s.%s" % (mod_name, attr)
        return found

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(fn, name)
                    for fn, name in self.public_functions().items()}
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = self._counter(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[me] = (idx, t0, t1, parent)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def _counter(self, name):
        c = self.counts
        if name == "levy_model.sample_path":
            def count(args, kwargs, path):
                st = _arg(args, kwargs, 3, "stream")
                c["streams"].add((st.seed, st.tag, st.index))
                times = getattr(path, "times", None)  # grid paths have none
                c["events"] += 0 if times is None else times.size
            return count
        if name in ["path_engine." + f for f in PATH_TRANSFORMS]:
            def count(args, kwargs, traj):
                traj = traj[0] if isinstance(traj, tuple) else traj
                c["segments"] += traj.seg_t.size
            return count
        if name in ("estimation.estimate_value", "estimation.nu_curve"):
            value = name == "estimation.estimate_value"

            def count(args, kwargs, result):
                if value:
                    # estimate_value(x, b, params, spec, horizon, k, n, ...)
                    x = _arg(args, kwargs, 0, "x")
                    spec = _arg(args, kwargs, 3, "spec")
                    horizon = _arg(args, kwargs, 4, "horizon")
                    k, n = _arg(args, kwargs, 5, "k"), _arg(args, kwargs, 6, "n")
                    engine = _arg(args, kwargs, 9, "engine", "auto")
                    # below 0 or at infinite horizon no path is simulated here
                    if x < 0 or horizon == math.inf:
                        return
                    c["value_paths"] += n
                else:
                    # nu_curve(params, spec, bgrid, horizon, k, n, stream, mode, engine)
                    spec = _arg(args, kwargs, 1, "spec")
                    k, n = _arg(args, kwargs, 4, "k"), _arg(args, kwargs, 5, "n")
                    if _arg(args, kwargs, 7, "mode", "crn") != "crn":
                        return  # the per-point calls count themselves
                    engine = _arg(args, kwargs, 8, "engine", "auto")
                    c["nu_paths"] += n
                if engine == "euler" or (engine == "auto" and spec.sigma != 0.0):
                    c["euler_path_steps"] += n * k
            return count
        return None

    # reduction -----------------------------------------------------------

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)

    def self_times(self):
        """(per-name self seconds, per-name inclusive seconds of outermost
        spans, per-name calls, total seconds of top-level spans)."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        selfs, outer, calls = {}, {}, {}
        top = 0.0
        for i, (idx, t0, t1, parent) in enumerate(self.spans):
            name = self.names[idx]
            selfs[name] = selfs.get(name, 0.0) + (t1 - t0) - child[i]
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                top += t1 - t0
            if parent < 0 or self.names[self.spans[parent][0]] != name:
                outer[name] = outer.get(name, 0.0) + (t1 - t0)
        return selfs, outer, calls, top

    def layer_metrics(self, traced_wall: float) -> dict:
        """Per-layer values from the spans of one traced interval of
        traced_wall seconds; the interval's time outside every span is
        reported as untraced.self_s."""
        selfs, outer, calls, top = self.self_times()
        m = {}
        for mod in MODULES:
            for fn, stats in FUNCTION_STATS[mod]:
                name = "%s.%s" % (mod, fn)
                n = calls.get(name, 0)
                got = {"calls": n, "self_s": selfs.get(name, 0.0),
                       "ms_per_call": 1e3 * outer.get(name, 0.0) / n if n else 0.0}
                for s in stats:
                    m["%s.%s" % (name, s)] = got[s]
            m["%s.self_s" % mod] = sum(v for k, v in selfs.items()
                                       if k.split(".")[0] == mod)
        m["untraced.self_s"] = traced_wall - top
        c = self.counts
        n_sample = calls.get("levy_model.sample_path", 0)
        n_seg = sum(calls.get("path_engine." + f, 0) for f in PATH_TRANSFORMS)
        m["levy_model.events_per_path"] = c["events"] / n_sample if n_sample else 0.0
        m["levy_model.resample_ratio"] = (n_sample / len(c["streams"])
                                          if c["streams"] else 0.0)
        m["path_engine.segments_per_call"] = c["segments"] / n_seg if n_seg else 0.0
        m["estimation.nu_ms_per_path"] = (1e3 * outer.get("estimation.nu_curve", 0.0)
                                          / c["nu_paths"] if c["nu_paths"] else 0.0)
        m["estimation.value_ms_per_start_path"] = (
            1e3 * outer.get("estimation.estimate_value", 0.0) / c["value_paths"]
            if c["value_paths"] else 0.0)
        m["estimation.euler_ns_per_path_step"] = (
            1e9 * m["estimation.self_s"] / c["euler_path_steps"]
            if c["euler_path_steps"] else 0.0)
        return m
