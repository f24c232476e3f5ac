"""Golden output digests and the worker-count determinism gate.

Each case runs one subcommand at desk size through run_experiment and
compares the sha256 of every CSV and text report it writes with
tests/golden/digests.json.
Output bytes depend on the numpy version (its generators and reductions),
so the digest comparison runs only under the version the file names; the
1- against 2-worker byte comparison runs under any version.

After a deliberate change of output bytes, re-record with

    PYTHONPATH=src python tests/test_golden.py

and give the reason in CHANGES.md.
"""

import hashlib
import json
import os
import tempfile

import numpy as np
import pytest

from levyrefract.cli_reporting import load_config, run_experiment

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "digests.json")

_MODEL = """\
model.gamma = 0.7210553083590153
model.sigma = %d
model.jump1.rate = 1.0
model.jump1.sign = +1
model.jump1.dist = uniform
model.jump1.params = 0, 1
model.jump2.rate = 1.0
model.jump2.sign = -1
model.jump2.dist = weibull
model.jump2.params = 2, 1
control.alpha = %s
control.beta = 1.5
control.q = 0.05
grid.T = 20
grid.K = 200
mc.N = 300
mc.seed = 20260101
task.b_grid = -1:0.05:3.5
task.x_grid = -0.5:0.5:2.5
task.b = 1.66
task.competing_b = 1.1
task.alphas = 0.5, 1, inf
task.x = 0.5
"""

# name -> (sigma, alpha, subcommand); sigma 0 runs the exact engine, sigma 1
# the Euler engine.  N = 300 is two estimator chunks, so two workers merge.
# The alpha = inf exact cases and the two oracle subcommands cover the
# two-sided and from-above reflections.
CASES = {
    "exact-nu-curve": (0, "0.5", "nu-curve"),
    "exact-bstar": (0, "0.5", "bstar"),
    "exact-value-curve": (0, "0.5", "value-curve"),
    "exact-sample-path": (0, "0.5", "sample-path"),
    "exact-value-curve-inf": (0, "inf", "value-curve"),
    "exact-sample-path-inf": (0, "inf", "sample-path"),
    "check-properties": (0, "0.5", "check-properties"),
    "alpha-convergence": (0, "0.5", "alpha-convergence"),
    "euler-nu-curve": (1, "0.5", "nu-curve"),
    "euler-nu-curve-inf": (1, "inf", "nu-curve"),
    "euler-bstar": (1, "0.5", "bstar"),
    "euler-value-curve": (1, "0.5", "value-curve"),
    "euler-value-curve-inf": (1, "inf", "value-curve"),
    "euler-sample-path": (1, "0.5", "sample-path"),
}

THREAD_CHECKED = ("euler-nu-curve", "euler-value-curve", "euler-value-curve-inf")


def run_case(name, out_dir, threads=1):
    """{file name: bytes} of everything one case writes."""
    sigma, alpha, sub = CASES[name]
    run_experiment(load_config(_MODEL % (sigma, alpha)), sub, out_dir=out_dir,
                   threads=threads)
    out = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            out[fname] = fh.read()
    return out


def output_digests(files):
    return {f: hashlib.sha256(b).hexdigest() for f, b in files.items()
            if f.endswith((".csv", ".txt"))}


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_digests_match_the_record(name, tmp_path):
    golden = load_golden()
    if golden["numpy"] != np.__version__:
        pytest.skip("digests recorded under numpy %s, running %s"
                    % (golden["numpy"], np.__version__))
    assert output_digests(run_case(name, str(tmp_path))) == golden["digests"][name]


@pytest.mark.parametrize("name", THREAD_CHECKED)
def test_two_workers_write_the_same_bytes(name, tmp_path):
    one = run_case(name, str(tmp_path / "one"), threads=1)
    two = run_case(name, str(tmp_path / "two"), threads=2)
    assert sorted(one) == sorted(two)
    for fname in one:
        assert one[fname] == two[fname], fname


def record():
    digests = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            digests[name] = output_digests(run_case(name, d))
    doc = {"numpy": np.__version__, "digests": digests}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    record()
