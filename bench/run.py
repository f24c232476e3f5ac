"""levyrefract benchmark: one command, four Monte Carlo workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --check [--seed N]       # 1- vs 2-worker byte identity
    python3 bench/run.py --make-reference          # rewrite reference.json

Run from anywhere; the checkout is the parent of this directory and the
program is imported from its `src/`.  With --trace 0 the run prints the
end-to-end metrics, with --trace 1 the per-layer metrics of one traced
operation.  The last line of stdout is the result object; the line before
it holds the machine facts and per-operation detail, which are also written
to `bench/.work/results/`.  See README.md here for the workloads.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracer import per_layer_catalog  # noqa: E402

WORK = os.path.join(HERE, ".work")
DEADLINE_S = 170.0  # a run must end within 180 s
# fresh interpreters timed for setup_s besides the worker: half before it and
# half after, so that one slow spell of the host does not take every sample
SETUP_PROBES = 4

# Host speed drifts by up to 2x on a shared machine, and whole runs fall into
# slow spells.  The worker times a fixed calibration unit between operations
# (worker.calibrate), and wall_s, cpu_s and setup_s are seconds scaled to a
# host on which that unit takes CAL_REF_S: seconds at reference speed.
CAL_REF_S = 0.08

# interpreter start until the config is loaded: import levyrefract, load_config
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import levyrefract; "
         "from levyrefract.cli_reporting import load_config; load_config(sys.argv[2]); "
         "print(time.perf_counter())")


class BenchError(RuntimeError):
    pass


def _env(work):
    env = dict(os.environ)
    env["TMPDIR"] = work  # keep every temporary file inside the checkout
    env.pop("PYTHONPATH", None)
    return env


def _run(cmd, work, deadline):
    """Run cmd in its own process group and return (stdout, perf_counter
    just before the start).  At the deadline the whole group, pool workers
    included, is killed and reaped."""
    os.makedirs(work, exist_ok=True)
    t0 = time.perf_counter()
    if t0 >= deadline:
        raise BenchError("out of time")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_env(work), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=deadline - t0)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("out of time: %s" % " ".join(cmd[:2]))
    if proc.returncode != 0:
        raise BenchError("%s failed (exit %d):\n%s" % (cmd[1], proc.returncode, err[-4000:]))
    return out, t0


def setup_probe(work, cfg_path, deadline):
    out, t0 = _run([sys.executable, "-c", PROBE, os.path.join(ROOT, "src"), cfg_path],
                   work, deadline)
    return float(out.split()[-1]) - t0


def run_worker(plan, work, deadline):
    """Run worker.py on plan; returns (its report, seconds from the start of
    its interpreter to its first loaded config)."""
    plan = dict(plan, root=ROOT, work=work)
    out, t0 = _run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(plan)],
                   work, deadline)
    report = json.loads(out.strip().splitlines()[-1])
    return report, report["setup_end"] - t0


def machine_facts(report):
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    facts.update(report["machine"])
    return facts


def _subruns(ops):
    return [s for op in ops for s in op["subcommands"]]


def timed_metrics(w, seed, work, deadline, seconds):
    os.makedirs(work, exist_ok=True)
    cfg_path = os.path.join(work, "probe.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(w.config_text(workloads.op_seed(seed, 0)))
    setups = [setup_probe(work, cfg_path, deadline) for _ in range(SETUP_PROBES // 2)]
    ops = [{"seed": workloads.op_seed(seed, i), "threads": w.threads}
           for i in range(w.ops_for(seconds))]
    report, worker_setup = run_worker({"workload": w.name, "ops": ops, "calibrate": True},
                                      work, deadline)
    setups.append(worker_setup)
    setups += [setup_probe(work, cfg_path, deadline) for _ in range(SETUP_PROBES // 2)]
    runs = _subruns(report["ops"])
    failed = sum(1 for s in runs if s["problems"])
    # check-properties writes verdicts, no estimate: its se_max is fixed at 1
    op_se = [max([s["se_max"] for s in op["subcommands"] if s.get("se_max") is not None],
                 default=1.0) for op in report["ops"]]
    # each operation against the mean of the calibrations either side of it;
    # the set-up samples, taken around the worker, against all of them
    speed = [CAL_REF_S / statistics.mean(op["cal_s"]) for op in report["ops"]]
    cal_samples = [report["ops"][0]["cal_s"][0]] + [op["cal_s"][1] for op in report["ops"]]
    setup_speed = CAL_REF_S / statistics.median(cal_samples)
    metrics = {
        "wall_s": (statistics.median(op["wall_s"] * f for op, f in zip(report["ops"], speed)),
                   "s"),
        "cpu_s": (statistics.median(op["cpu_s"] * f for op, f in zip(report["ops"], speed)),
                  "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MiB"),
        "setup_s": (statistics.median(setups) * setup_speed, "s"),
        # deterministic per operation seed, so no outlier to set aside: the
        # mean varies less from seed to seed than the median
        "se_max": (statistics.mean(op_se), "1"),
        # the share of subcommand runs that passed: 1 - failed / attempted,
        # reported this way round because a relative bound needs a figure
        # that is not 0 when nothing fails
        "ops_ok_frac": (1.0 - failed / len(runs), "frac"),
    }
    detail = {"setup_samples": setups, "cal_s": [op["cal_s"] for op in report["ops"]],
              "cpu_s_per_op": [op["cpu_s"] for op in report["ops"]]}
    return report, runs, failed, metrics, detail


def traced_metrics(w, seed, work, deadline):
    # untraced, traced, untraced at threads = 1 on the same seed: the traced
    # wall over the mean of the two untraced ones cancels a linear drift in
    # host speed.  Then one operation at the reference seed for the digests.
    s0 = workloads.op_seed(seed, 0)
    ops = [{"seed": s0, "threads": 1},
           {"seed": s0, "threads": 1, "traced": True},
           {"seed": s0, "threads": 1},
           {"seed": workloads.REF_SEED, "threads": w.threads}]
    report, _ = run_worker({"workload": w.name, "ops": ops}, work, deadline)
    before, traced, after, probe = report["ops"]
    for plain in (before, after):
        for a, b in zip(plain["subcommands"], traced["subcommands"]):
            if a.get("digests") != b.get("digests"):
                b["problems"].append("traced outputs differ from untraced outputs")
    runs = _subruns(report["ops"])
    failed = sum(1 for s in runs if s["problems"])
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref_digests = json.load(fh)["digests"][w.name]
    identical = sum(1 for s in probe["subcommands"]
                    for f, h in s.get("digests", {}).items()
                    if ref_digests.get(s["name"], {}).get(f) == h)
    untraced_wall = (before["wall_s"] + after["wall_s"]) / 2
    layers = dict(traced["layers"])
    layers["cli_reporting.bytes_written"] = sum(s.get("bytes", 0) for s in traced["subcommands"])
    layers["cli_reporting.outputs_identical"] = identical
    layers["trace.overhead_frac"] = traced["wall_s"] / untraced_wall - 1.0
    units = {name: unit for name, unit, _ in per_layer_catalog()}
    metrics = {name: (layers[name], units[name]) for name in units}
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    shutil.copyfile(os.path.join(work, "spans-op1.json"),
                    os.path.join(WORK, "traces", "%s-seed%d.json" % (w.name, seed)))
    detail = {"traced_wall_s": traced["wall_s"], "untraced_wall_s": untraced_wall,
              "reference_outputs": sum(len(v) for v in ref_digests.values())}
    return report, runs, failed, metrics, detail


def bench(args):
    w = workloads.WORKLOADS[args.workload]
    deadline = time.perf_counter() + DEADLINE_S
    work = os.path.join(WORK, "%s-%d-%d-%d" % (w.name, args.seed, args.trace, os.getpid()))
    try:
        if args.trace:
            report, runs, failed, metrics, detail = traced_metrics(w, args.seed, work, deadline)
        else:
            report, runs, failed, metrics, detail = timed_metrics(w, args.seed, work, deadline,
                                                                  args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts(report),
              "wall_s_per_op": [op["wall_s"] for op in report["ops"]],
              "problems": [p for s in runs for p in s["problems"]], **detail}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", "%s-seed%d-trace%d.json"
                           % (w.name, args.seed, args.trace)), "w", encoding="utf-8") as fh:
        json.dump(dict(record, metrics=metrics), fh, indent=1)
    if record["problems"]:
        sys.stderr.write("output check failed:\n" + workloads.format_problems(record["problems"]))
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def check_threads(args):
    """Every workload at 1 and 2 workers must write byte-identical files and
    pass its output check."""
    deadline = time.perf_counter() + 3600
    bad = 0
    for w in workloads.WORKLOADS.values():
        work = os.path.join(WORK, "check-%s-%d" % (w.name, os.getpid()))
        seed = workloads.op_seed(args.seed, 0)
        try:
            report, _ = run_worker({"workload": w.name,
                                    "ops": [{"seed": seed, "threads": 1},
                                            {"seed": seed, "threads": 2}]}, work, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        one, two = report["ops"]
        for a, b in zip(one["subcommands"], two["subcommands"]):
            same = a.get("digests") is not None and a.get("digests") == b.get("digests")
            problems = a["problems"] + b["problems"]
            ok = same and not problems
            bad += not ok
            print("%s %s %s: %d files %s at 1 and 2 workers (%.1f s, %.1f s)"
                  % ("PASS" if ok else "FAIL", w.name, a["name"], len(a.get("digests", {})),
                     "identical" if same else "DIFFER", one["wall_s"], two["wall_s"]))
            if problems:
                print(workloads.format_problems(problems), end="")
    return 1 if bad else 0


def make_reference(args):
    """High-N estimates for the output check, and the digests of one
    benchmark-sized operation at the reference seed."""
    deadline = time.perf_counter() + 3600
    ref = {"seed": workloads.REF_SEED, "workloads": {}, "digests": {}}
    for w in workloads.WORKLOADS.values():
        work = os.path.join(WORK, "reference-%s-%d" % (w.name, os.getpid()))
        try:
            report, _ = run_worker({"workload": w.name, "check": False, "ops": [
                {"seed": workloads.REF_SEED, "threads": 2, "n": w.ref_n, "keep_data": True},
                {"seed": workloads.REF_SEED, "threads": w.threads}]}, work, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        high, probe = report["ops"]
        entry = {"n": w.ref_n}
        for s in high["subcommands"]:
            if s["status"] != "pass":
                raise BenchError("%s %s: status %s" % (w.name, s["name"], s["status"]))
            entry.update({k: v for k, v in s["data"].items() if k != "lines"})
        ref["workloads"][w.name] = entry
        ref["digests"][w.name] = {s["name"]: s["digests"] for s in probe["subcommands"]}
        print("%s: reference at N = %d took %.1f s" % (w.name, w.ref_n, high["wall_s"]))
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true")
    p.add_argument("--make-reference", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "levyrefract", "__init__.py")):
        sys.stderr.write("no levyrefract sources under %s\n" % os.path.join(ROOT, "src"))
        return 2
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    try:
        if args.make_reference:
            return make_reference(args)
        if args.check:
            return check_threads(args)
        if args.workload is None:
            p.error("--workload is required")
        return bench(args)
    except (BenchError, subprocess.TimeoutExpired) as err:
        sys.stderr.write("benchmark failed: %s\n" % err)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
