"""One benchmark process: run a plan of operations and report them as JSON.

`run.py` starts this file in a fresh interpreter with a JSON plan:

    {"workload": NAME, "root": CHECKOUT, "work": DIR, "check": true,
     "calibrate": false,
     "ops": [{"seed": S, "threads": T, "traced": false, "n": null}, ...]}

Each operation writes a config with mc.seed = S, loads it, then runs the
workload's subcommands back to back through `cli_reporting.run_experiment`.
Only the subcommand calls are timed.  With "calibrate", a calibration unit
is timed before the first operation and after each one.  Outputs are read
back, checked against `reference.json` and deleted.  The last line of
stdout is one JSON object with the per-operation results, the peak RSS of
the processes that ran the estimators and the machine facts.
"""

import json
import math
import os
import resource
import shutil
import sys
import time


def _cpu():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _peak_rss_mb(threads):
    """Peak resident set of the processes that ran the estimators: the
    largest reaped pool worker at 2 or more workers (ru_maxrss of CHILDREN),
    this process at 1 worker.  ru_maxrss is in KiB on Linux."""
    who = resource.RUSAGE_CHILDREN if threads > 1 else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# Calibration: a fixed piece of work that shares no code with the program
# but has the instruction mix of the workload's engine.  Timed between
# operations, it tracks how fast the host runs that kind of work at that
# moment.  The exact engine (case 1) is many small numpy calls and scalar
# event sweeps over numpy values into Python lists; its unit keeps its
# arrays small, so it adds nothing to the peak resident set of a 1-worker
# run.  The Euler recursion (case 2) is whole-array passes over (m x K)
# chunks; its unit uses one chunk's shape, in processes whose memory
# peak_rss_mb does not read at 2 workers.

def _regime(z, b, alpha):
    if z > b:
        return 0.5 - alpha, 1
    return 0.5, 0


def _scalar_unit(np, calls=4000, paths=200):
    acc = 0.0
    small = [np.arange(i, i + 200, dtype=float) * 0.01 for i in range(64)]
    for i in range(calls):
        a = np.cumsum(small[i & 63])
        j = int(np.searchsorted(a, 50.0))
        acc += float(np.where(a > 10.0, a, 0.0)[j % 200]) + math.log1p(j)
    for p in range(paths):
        rng = np.random.default_rng(p)
        times = np.cumsum(rng.exponential(0.5, 200))
        sizes = rng.uniform(-1.0, 0.9, 200)
        ts, vs, branch = [], [], []
        t, z = 0.0, 0.3
        for te, sz in zip(times, sizes):
            slope, k = _regime(z, 1.2, 0.4)
            ts.append(t)
            vs.append(z)
            branch.append(k)
            z = max(z + slope * (te - t) + sz, 0.0)
            t = te
        acc += float(np.asarray(vs).sum()) + float(np.asarray(branch, dtype=int).sum())
    return acc


def _vector_unit(np, m=256, k=2000, passes=6):
    acc = 0.0
    x = np.linspace(0.0, 1.0, m * k).reshape(m, k)
    for _ in range(passes):
        y = np.cumsum(x * 0.5 - 0.2, axis=1)
        top = np.maximum.accumulate(y, axis=1)
        x = np.where(top > y + 0.1, x, -x) * 0.999
        acc += float(x[:, -1].sum())
    return acc


def calibrate(case):
    """Seconds for one calibration unit of case `case` in this process."""
    import numpy as np
    t0 = time.perf_counter()
    acc = (_vector_unit if case == 2 else _scalar_unit)(np)
    if not math.isfinite(acc):
        raise RuntimeError("calibration lost its value")
    return time.perf_counter() - t0


def _calibration_helper(conn, case, units):
    while conn.recv():
        conn.send(sum(calibrate(case) for _ in range(units)))


class Calibrator:
    """Runs `units` calibration units of `case` on `procs` processes at
    once, as many as the operations use workers, and returns the mean time
    of one unit.  The helpers sleep while an operation runs; they are
    reaped only by close(), so they add nothing to the CPU or peak-memory
    figures read before it."""

    def __init__(self, procs, case, units):
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        self.case, self.units = case, units
        self.helpers = []
        for _ in range(procs - 1):
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_calibration_helper, args=(theirs, case, units),
                               daemon=True)
            proc.start()
            theirs.close()
            self.helpers.append((proc, mine))

    def __call__(self):
        for _, conn in self.helpers:
            conn.send(True)
        times = [sum(calibrate(self.case) for _ in range(self.units))]
        times += [conn.recv() for _, conn in self.helpers]
        return sum(times) / len(times) / self.units

    def close(self):
        for proc, conn in self.helpers:
            conn.send(False)
            proc.join()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main():
    plan = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(plan["root"], "src"))
    import levyrefract
    from levyrefract import cli_reporting

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import workloads
    w = workloads.WORKLOADS[plan["workload"]]
    work = plan["work"]
    os.makedirs(work, exist_ok=True)

    # set-up ends when the first config is loaded
    paths = []
    for i, op in enumerate(plan["ops"]):
        paths.append(os.path.join(work, "op%d.cfg" % i))
        _write(paths[-1], w.config_text(op["seed"], op.get("n")))
    configs = [cli_reporting.load_config(paths[0])]
    setup_end = time.perf_counter()
    configs += [cli_reporting.load_config(p) for p in paths[1:]]

    if not os.path.realpath(levyrefract.__file__).startswith(
            os.path.realpath(plan["root"]) + os.sep):
        raise SystemExit("imported levyrefract from %s, outside the checkout"
                         % levyrefract.__file__)
    reference = None
    if plan.get("check", True):
        with open(os.path.join(here, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)

    results = []
    threads = max(op["threads"] for op in plan["ops"])
    calibrator = Calibrator(threads, w.case, w.cal_units) if plan.get("calibrate") else None
    cal = calibrator() if calibrator else None
    for i, (op, cfg) in enumerate(zip(plan["ops"], configs)):
        tracer = None
        if op.get("traced"):
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer(levyrefract)
            tracer.install()
        outs, runs = [], []
        cpu0 = _cpu()
        t0 = time.perf_counter()
        try:
            for j, sub in enumerate(w.subcommands):
                out = os.path.join(work, "op%d-%d" % (i, j))
                outs.append(out)
                try:
                    man = cli_reporting.run_experiment(cfg, sub, out_dir=out,
                                                       threads=op["threads"])
                    runs.append({"status": man.status, "outputs": list(man.outputs)})
                except Exception as err:  # a raising subcommand is a failed op
                    runs.append({"status": "raised", "error": repr(err)})
        finally:
            t1 = time.perf_counter()
            cpu1 = _cpu()
            if tracer is not None:
                tracer.uninstall()
        res = {"seed": op["seed"], "threads": op["threads"],
               "traced": bool(tracer), "wall_s": t1 - t0, "cpu_s": cpu1 - cpu0,
               "subcommands": []}
        if cal is not None:
            # host speed during the operation: the calibrations either side
            after = calibrator()
            res["cal_s"] = [cal, after]
            cal = after
        for sub, out, run in zip(w.subcommands, outs, runs):
            rec = {"name": sub, "status": run["status"], "problems": []}
            if run["status"] == "raised":
                rec["problems"] = ["raised " + run["error"]]
            else:
                data = workloads.extract(sub, out)
                rec["se_max"] = workloads.se_max(sub, data)
                rec["digests"] = workloads.digests(out, run["outputs"])
                rec["bytes"] = (sum(r["bytes"] for r in run["outputs"])
                                + os.path.getsize(os.path.join(out, "run_manifest.json")))
                if reference is not None:
                    rec["problems"] = workloads.check(w, sub, data, run["status"],
                                                      reference, n=cfg.n)
                if op.get("keep_data"):
                    rec["data"] = data
            res["subcommands"].append(rec)
            shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            res["layers"] = tracer.layer_metrics(res["wall_s"])
            tracer.dump(os.path.join(work, "spans-op%d.json" % i))
        results.append(res)

    peak_rss_mb = _peak_rss_mb(threads)
    if calibrator:
        calibrator.close()
    import multiprocessing
    import numpy
    import scipy
    print(json.dumps({
        "setup_end": setup_end,
        "ops": results,
        "peak_rss_mb": peak_rss_mb,
        "machine": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                    "scipy": scipy.__version__,
                    "start_method": multiprocessing.get_start_method()},
    }))


if __name__ == "__main__":
    main()
