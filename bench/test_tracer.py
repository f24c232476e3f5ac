"""Self-tests of the benchmark's tracer, on every workload at a small N.

    python3 -m pytest -q bench/test_tracer.py
"""

import inspect
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import levyrefract  # noqa: E402
from levyrefract import cli_reporting  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_N = {"bstar-exact": 64, "value-exact": 8, "value-euler": 8, "oracle-exact": 20}


def _bindings():
    return {(m, attr): obj for m in tracer.MODULES
            for attr, obj in vars(getattr(levyrefract, m)).items()
            if inspect.isfunction(obj)}


def _run(name, out_dir):
    """One small operation of workload name at threads = 1; returns the
    bytes of every file written, by subcommand and file name."""
    w = workloads.WORKLOADS[name]
    cfg = cli_reporting.load_config(w.config_text(7, SMALL_N[name]))
    files = {}
    for sub in w.subcommands:
        d = os.path.join(out_dir, sub)
        cli_reporting.run_experiment(cfg, sub, out_dir=d, threads=1)
        for f in sorted(os.listdir(d)):
            with open(os.path.join(d, f), "rb") as fh:
                files[sub, f] = fh.read()
    return files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_is_transparent_and_accounted(name, tmp_path):
    before = _bindings()
    plain = _run(name, str(tmp_path / "plain"))
    t = tracer.Tracer(levyrefract)
    with t:
        wrapped = _bindings()
        t0 = time.perf_counter()
        traced = _run(name, str(tmp_path / "traced"))
        wall = time.perf_counter() - t0

    # every rebinding is restored, and there was something to restore
    assert _bindings() == before
    changed = [k for k in before if wrapped[k] is not before[k]]
    assert ("estimation", "sample_path") in changed
    assert ("properties_oracle", "apply_strategy_exact") in changed
    assert ("estimation", "_run_chunks") not in changed

    # the tracer does not change a single output byte
    assert traced == plain

    # module self times and the untraced remainder add up to the wall time
    m = t.layer_metrics(wall)
    total = sum(m["%s.self_s" % mod] for mod in tracer.MODULES) + m["untraced.self_s"]
    assert total == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert m["untraced.self_s"] >= 0
    assert all(s is not None and s[1] <= s[2] for s in t.spans)
    # the Euler workload never samples an event path
    assert (m["levy_model.sample_path.calls"] == 0) == (name == "value-euler")


def test_catalog_matches_layer_metrics():
    t = tracer.Tracer(levyrefract)
    reported = set(t.layer_metrics(0.0))
    derived_elsewhere = {"cli_reporting.bytes_written", "cli_reporting.outputs_identical",
                         "trace.overhead_frac"}
    assert reported | derived_elsewhere == {n for n, _, _ in tracer.per_layer_catalog()}
