"""Benchmark workloads: generated configs, output checks and se_max.

Each workload is a closed loop with one caller: one operation runs the
workload's subcommands back to back through `cli_reporting.run_experiment`
and the next operation starts when it returns.  The inputs are pinned here
rather than read from `configs/`, so that editing a shipped config cannot
change what the benchmark measures; the model lines repeat
`configs/paper_case1.cfg` and `configs/paper_case2.cfg`.

This module is standard library only: `run.py` imports it without numpy.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass

# Reference experiments: case 1 is bounded variation (sigma = 0, exact
# event sweep), case 2 adds a unit Gaussian part (Euler recursion).
_MODEL = (
    "model.gamma = 0.7210553083590153",
    "model.jump1.rate = 1.0",
    "model.jump1.sign = +1",
    "model.jump1.dist = uniform",
    "model.jump1.params = 0, 1",
    "model.jump2.rate = 1.0",
    "model.jump2.sign = -1",
    "model.jump2.dist = weibull",
    "model.jump2.params = 2, 1",
    "control.alpha = 0.5",
    "control.beta = 1.5",
    "control.q = 0.05",
    "grid.T = 100",
)

# Seed of the one-off high-N reference run and of the digest probe.  It is
# far from the seeds a benchmark run derives, so no run re-uses its paths.
REF_SEED = 918273645

# A run derives the seed of its operation i as seed * OP_SEED_STRIDE + i, so
# operations of one run never repeat the same paths (a result cache in the
# program cannot turn repeated operations into no-ops).
OP_SEED_STRIDE = 1000

# Estimates must lie within this many combined standard errors of the
# high-N reference.  Six keeps chance failures below one in 10^8 per
# estimate while a biased estimator or a wrong stream still fails.
CHECK_SES = 6.0


@dataclass(frozen=True)
class Workload:
    name: str
    case: int
    subcommands: tuple
    threads: int
    n: int
    k: int
    task: tuple
    op_seconds: float  # nominal wall of one operation at the baseline
    ref_n: int  # sample size of the one-off high-N reference

    def config_text(self, seed: int, n: int | None = None) -> str:
        lines = list(_MODEL)
        lines.insert(1, "model.sigma = %d" % (0 if self.case == 1 else 1))
        lines += ["grid.K = %d" % self.k,
                  "mc.N = %d" % (self.n if n is None else n),
                  "mc.seed = %d" % seed]
        lines += ["task.%s = %s" % kv for kv in self.task]
        return "\n".join(lines) + "\n"

    @property
    def cal_units(self) -> int:
        """Calibration units timed either side of an operation: about one
        per 1.5 s of operation, so that a long operation is not judged by
        a calibration too short to average out the host's jitter."""
        return max(1, round(self.op_seconds / 1.5))

    def ops_for(self, seconds: float) -> int:
        """Operations one run makes: a fixed count per --seconds, so both
        sides of a comparison do the same work and the failure share has
        the same base on every run.  At least three, so the median of the
        operations sets aside one slow outlier."""
        return max(3, round(seconds / self.op_seconds))


WORKLOADS = {w.name: w for w in (
    Workload("bstar-exact", 1, ("bstar",), 2, 4096, 10000,
             (("b_grid", "-1:0.01:3.49"), ("b", "1.66")),
             op_seconds=1.8, ref_n=65536),
    # N = 512 is two chunks of estimation.CHUNK paths, so at 2 workers both
    # pool workers compute and --check compares merged chunks
    Workload("value-exact", 1, ("value-curve",), 2, 512, 10000,
             (("x_grid", "-1:1.2:3.49"), ("b", "1.66"),
              ("competing_b", "1.1, 2.2")),
             op_seconds=5.9, ref_n=2048),
    Workload("value-euler", 2, ("value-curve",), 2, 512, 2000,
             (("x_grid", "-1:0.75:3.99"), ("b", "2.15"),
              ("competing_b", "1.45, 2.9")),
             op_seconds=4.0, ref_n=4096),
    # alpha-convergence is left out: at this commit its ladder_value_monotone
    # verdict fails on about half of all seeds at these inputs (README.md)
    Workload("oracle-exact", 1, ("check-properties",), 1, 300, 10000,
             (("x", "0.5"), ("b", "1.66")),
             op_seconds=0.57, ref_n=300),
)}


def op_seed(seed: int, i: int) -> int:
    return seed * OP_SEED_STRIDE + i


# reading outputs -----------------------------------------------------------

def read_csv(path: str):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def extract(subcommand: str, out_dir: str) -> dict:
    """The numbers a check looks at, read back from the written files."""
    p = lambda name: os.path.join(out_dir, name)  # noqa: E731
    if subcommand == "bstar":
        row = read_csv(p("bstar.csv"))[0]
        return {"window": [float(row["interval_low"]), float(row["interval_high"])],
                "nu": [[float(r["b"]), float(r["nu"]), float(r["se"])]
                       for r in read_csv(p("nu_curve.csv"))]}
    if subcommand == "value-curve":
        return {"value": [[float(r["x"]), float(r["b"]), float(r["v"]), float(r["se"])]
                          for r in read_csv(p("value_curves.csv"))]}
    if subcommand == "check-properties":
        with open(p("properties.txt"), encoding="utf-8") as fh:
            return {"lines": fh.read().splitlines()}
    raise ValueError("no extractor for " + subcommand)


def se_max(subcommand: str, data: dict) -> float | None:
    """Largest standard error a subcommand wrote; None if it writes none."""
    rows = {"bstar": "nu", "value-curve": "value"}
    key = rows.get(subcommand)
    if key is None:
        return None
    return max(r[-1] for r in data[key])


def digests(out_dir: str, manifest_outputs) -> dict:
    """sha256 of every file the manifest lists, plus the manifest itself."""
    out = {rec["file"]: rec["sha256"] for rec in manifest_outputs}
    with open(os.path.join(out_dir, "run_manifest.json"), "rb") as fh:
        out["run_manifest.json"] = hashlib.sha256(fh.read()).hexdigest()
    return out


# output checks -------------------------------------------------------------

def _close(got, ref, n, ref_n, label):
    """Problems where an estimate strays from the reference by more than
    CHECK_SES combined standard errors.  The run's own SE is floored at the
    reference SE scaled to the run's N, so a point where no sampled path
    contributed (SE 0) is judged by the SE it should have had."""
    if len(got) != len(ref):
        return ["%s: %d rows, reference has %d" % (label, len(got), len(ref))]
    scale = math.sqrt(ref_n / n)
    problems = []
    for g, r in zip(got, ref):
        if g[:-2] != r[:-2]:
            return ["%s: grid %r differs from reference %r" % (label, g[:-2], r[:-2])]
        se = math.hypot(max(g[-1], r[-1] * scale), r[-1])
        if not abs(g[-2] - r[-2]) <= CHECK_SES * se + 1e-12:
            problems.append("%s at %r: %.6g vs reference %.6g (SE %.3g)"
                            % (label, g[:-2], g[-2], r[-2], se))
    return problems


def _bstar_band(ref_nu, n, ref_n, beta=1.5):
    """Thresholds the reference cannot tell from b* at the run's precision:
    |beta nu(b) - 1| within CHECK_SES combined SEs, b > 0."""
    scale = math.sqrt(ref_n / n)
    band = [b for b, nu, se in ref_nu
            if b > 0 and abs(beta * nu - 1) <= CHECK_SES * beta * se * math.hypot(1, scale)]
    return (min(band), max(band)) if band else None


def check(workload: Workload, subcommand: str, data: dict, status: str,
          reference: dict, n: int | None = None) -> list:
    """Every way the outputs of one subcommand run differ from what the
    reference admits; empty when the run is correct."""
    n = workload.n if n is None else n
    ref = reference["workloads"][workload.name]
    problems = [] if status == "pass" else ["status is %r" % status]
    if subcommand == "bstar":
        problems += _close(data["nu"], ref["nu"], n, ref["n"], "nu")
        band = _bstar_band(ref["nu"], n, ref["n"])
        lo, hi = data["window"]
        if band is None or hi < band[0] or lo > band[1]:
            problems.append("b* window [%g, %g] misses reference band %r" % (lo, hi, band))
    elif subcommand == "value-curve":
        problems += _close(data["value"], ref["value"], n, ref["n"], "value")
    elif subcommand == "check-properties":
        lines = data["lines"]
        if any(line.startswith("FAIL") for line in lines):
            problems.append("a property check failed")
        if not any(line.startswith("PASS negative_control (fired") for line in lines):
            problems.append("negative control did not fire")
    return problems


def format_problems(problems, limit=5) -> str:
    lines = ["  " + p for p in problems[:limit]]
    if len(problems) > limit:
        lines.append("  ... %d more" % (len(problems) - limit))
    return "\n".join(lines) + "\n"
