import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from levyrefract import cli_reporting
from levyrefract.cli_reporting import (
    ExperimentConfig, ParseError, SUBCOMMANDS, SvgPlot, ValidationError, csv_text, load_config,
    main, parse_grid, run_experiment, verdict_lines,
)
from levyrefract.estimation import NoCrossing, nu_curve
from levyrefract.levy_model import MarkDistribution, RngStream, net_drift
from levyrefract.properties_oracle import CoupledPairReport, PAIR_PROPS, Violation

from oracles import CONFIGS, reference_config_text

BASE = """\
model.gamma = -1.0
control.alpha = 0.5
control.beta = 1.5
control.q = 0.05
grid.T = 20
grid.K = 100
mc.N = 64
mc.seed = 77
"""


def base_cfg(extra=""):
    return load_config(BASE + extra)


class TestGrammar:
    def test_sections_comments_and_case(self):
        cfg = load_config(BASE.replace("grid.T", "GRID.t")
                          + "# trailing comment\n\ntask.b = 1.0  # inline\n")
        assert cfg.spec.gamma == -1.0
        assert cfg.horizon == 20.0
        assert cfg.n == 64 and cfg.seed == 77
        assert cfg.params_for(2.0).b == 2.0
        assert cfg.b == 1.0

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            load_config(BASE + "just words\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            load_config(BASE + "mc.N = 9\n")

    @pytest.mark.parametrize("line", ["mc.paths = 9", "task.mode = crn"])
    def test_unknown_key(self, line):
        with pytest.raises(ParseError, match="unknown key"):
            load_config(BASE + line + "\n")

    def test_readme_grammar_shows_every_key(self):
        """Every key the parser accepts appears in README's config grammar
        block, the block is itself a valid config, and the section names
        every distribution as the parser spells it."""
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8") as fh:
            grammar = fh.read().split("## Config grammar", 1)[1].split("\n## ", 1)[0]
        block = grammar.split("```")[1]
        load_config(block)
        shown = {re.sub(r"^model\.jump\d+\.", "model.jump.", key)
                 for key in cli_reporting._parse_items(block)}
        accepted = {"%s.%s" % (section, key) for section, keys in (
            ("model", cli_reporting._MODEL_KEYS), ("model.jump", cli_reporting._JUMP_KEYS))
            for key in keys} | set(cli_reporting._KEYS)
        assert accepted - shown == set()
        assert [d for d in cli_reporting._DISTS if not re.search(r"`%s\b" % d, grammar)] == []

    def test_every_key_fills_one_config_field(self):
        """The declaration of the keys outside model. and ExperimentConfig
        agree: each key fills its own field, and each field but the model
        and the text digest has a key."""
        filled = [key.field for key in cli_reporting._KEYS.values()]
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert len(filled) == len(set(filled))
        assert set(filled) == fields - {"spec", "text_sha256"}
        assert all(name == key.name.lower() for name, key in cli_reporting._KEYS.items())

    def test_unknown_distribution(self):
        text = BASE + ("model.jump1.rate = 1\nmodel.jump1.sign = 1\n"
                       "model.jump1.dist = cauchy\nmodel.jump1.params = 1\n")
        with pytest.raises(ValidationError) as err:
            load_config(text)
        assert err.value.field == "model.jump1.dist"

    @pytest.mark.parametrize("mangle,field", [
        (("mc.seed = 77", "# no seed"), "mc.seed"),
        (("grid.K = 100", "grid.K = 0"), "grid.K"),
        (("grid.T = 20", "# gone"), "grid.T"),
        (("mc.N = 64", "mc.N = 0"), "mc.N"),
        (("control.beta = 1.5", "control.beta = 1.0"), "control.beta"),
        (("control.beta = 1.5", "control.beta = inf"), "control.beta"),
        (("control.alpha = 0.5", "control.alpha = -1"), "control.alpha"),
        (("control.q = 0.05", "control.q = inf"), "control.q"),
        (("mc.seed = 77", "mc.seed = -5"), "mc.seed"),
    ])
    def test_validation_field_addresses(self, mangle, field):
        old, new = mangle
        with pytest.raises(ValidationError) as err:
            load_config(BASE.replace(old, new))
        assert err.value.field == field

    @pytest.mark.parametrize("line,field", [
        ("task.b = -0.5", "task.b"),
        ("task.b = nan", "task.b"),
        ("task.b = inf", "task.b"),
        ("task.competing_b = 0.5, -1", "task.competing_b"),
        ("task.competing_b = nan", "task.competing_b"),
        ("task.x = nan", "task.x"),
        ("task.x = -inf", "task.x"),
        ("task.alphas = 0.5, nan", "task.alphas"),
        ("task.alphas = 0, 1", "task.alphas"),
        ("task.alphas = -inf, 1", "task.alphas"),
        ("task.engine = gpu", "task.engine"),
        ("task.method = magic", "task.method"),
    ])
    def test_task_field_addresses(self, line, field):
        with pytest.raises(ValidationError) as err:
            load_config(BASE + line + "\n")
        assert err.value.field == field

    def test_every_jump_block_is_read_in_numeric_order(self):
        text = BASE
        for i, rate in ((2, 1.0), (10, 50.0), (3, 2.0)):
            text += ("model.jump%d.rate = %g\nmodel.jump%d.sign = -1\n"
                     "model.jump%d.dist = pointmass\nmodel.jump%d.params = 1\n"
                     % (i, rate, i, i, i))
        comps = load_config(text).spec.jump_components
        assert [c.rate for c in comps] == [1.0, 2.0, 50.0]

    @pytest.mark.parametrize("dist,params", [
        ("uniform", "-1, 1"),
        # legal parameters whose mean overflows a float
        ("weibull", "0.001, 1"), ("exponential", "1e-320")])
    def test_bad_mark_parameter_names_the_field(self, dist, params, tmp_path, capsys):
        text = BASE + ("model.jump1.rate = 1\nmodel.jump1.sign = 1\n"
                       "model.jump1.dist = %s\nmodel.jump1.params = %s\n" % (dist, params))
        with pytest.raises(ValidationError) as err:
            load_config(text)
        assert err.value.field == "model.jump1.params"
        p = tmp_path / "c.cfg"
        p.write_text(text)
        assert main(["validate", "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 2
        assert "model.jump1.params" in capsys.readouterr().err

    def test_file_and_text_sources_agree(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(BASE)
        a = load_config(str(p))
        b = load_config(BASE)
        assert a.text_sha256 == b.text_sha256
        assert a.spec == b.spec

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_config("/no/such/file.cfg")

    def test_a_path_with_an_equals_sign_is_read_as_a_file(self, tmp_path):
        p = tmp_path / "a=b" / "c.cfg"
        p.parent.mkdir()
        p.write_text(BASE)
        assert load_config(str(p)).text_sha256 == load_config(BASE).text_sha256
        assert main(["validate", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        with pytest.raises(ParseError, match="unknown key"):
            load_config(str(p.parent / "missing.cfg"))


class TestParseGrid:
    def test_range_form(self):
        np.testing.assert_allclose(parse_grid("g", "0:0.5:2"),
                                   [0, 0.5, 1.0, 1.5, 2.0])

    def test_list_form(self):
        np.testing.assert_allclose(parse_grid("g", "1, 2, 3.5"), [1, 2, 3.5])

    def test_zero_crossing_is_positive_zero(self, tmp_path):
        """Rounding arange's tiny negative value at the zero crossing leaves
        -0.0, which nu-curve would write as -0."""
        grid = parse_grid("g", "-0.09:0.01:0.02")
        assert grid[9] == 0.0 and not np.signbit(grid[grid == 0.0]).any()
        run_experiment(base_cfg("task.b_grid = -0.09:0.01:0.02\n"), "nu-curve",
                       out_dir=str(tmp_path))
        rows = (tmp_path / "nu_curve.csv").read_text().splitlines()
        assert rows[10].split(",")[0] == "0"

    @pytest.mark.parametrize("bad", ["2:0.5:1", "1:0:2", "1:2", "3,2", "",
                                     "0, nan, 1", "0, inf", "0.5, inf", "0:0.5:inf",
                                     "-inf:1:0", "0:inf:1", "nan:1:2",
                                     # overflowing ranges, then 1e300 and 2e6 points
                                     "0:1e308:1.7e308", "-1e308:1:1e308", "0:1e-300:1",
                                     "0:5e-7:1"])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_grid("g", bad)

    def test_a_range_holds_at_most_a_million_points(self):
        assert parse_grid("g", "0:1:999999").size == 10 ** 6
        with pytest.raises(ValidationError, match="at most 1000000 points"):
            parse_grid("g", "0:1:1000000")

    def test_reference_grids_have_the_advertised_sizes(self):
        c1 = load_config(reference_config_text(1))
        c2 = load_config(reference_config_text(2))
        assert c1.b_grid.size == 450
        assert c2.b_grid.size == 500
        assert c1.b_grid[0] == -1.0
        assert c1.b_grid[-1] == pytest.approx(3.49)


class TestReferenceConfigs:
    def test_reference_models(self):
        """The shipped configs: the same jumps, sigma 0 and 1, and a slope of
        0.6 between the jumps of case 1."""
        s1, s2 = (load_config(str(CONFIGS / ("paper_case%d.cfg" % c))).spec for c in (1, 2))
        assert s1.sigma == 0.0 and s2.sigma == 1.0
        assert dataclasses.replace(s2, sigma=0.0) == s1
        assert net_drift(s1) == pytest.approx(0.6, abs=1e-12)
        assert net_drift(s2) is None

    def test_reference_text_loads(self):
        cfg = load_config(reference_config_text(1, **{"mc.N": 500, "grid.K": 100}))
        assert cfg.n == 500 and cfg.k == 100
        assert cfg.alpha == 0.5 and cfg.beta == 1.5 and cfg.q == 0.05
        assert cfg.b == 1.66

    def test_shipped_configs_load(self):
        c1 = load_config(str(CONFIGS / "paper_case1.cfg"))
        c2 = load_config(str(CONFIGS / "paper_case2.cfg"))
        assert c1.n == 100_000 and c1.k == 10_000
        assert c1.spec.sigma == 0.0 and c2.spec.sigma == 1.0
        assert c2.b == 2.15

    def test_no_subcommand_imports_scipy(self, tmp_path):
        """scipy is a test-only reference: a fresh interpreter that imports
        levyrefract and runs the subcommands at tiny N on the shipped configs,
        on both engines, never loads a scipy module."""
        import subprocess
        import sys
        import levyrefract
        src = os.path.dirname(os.path.dirname(levyrefract.__file__))
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        runs = [(1, "validate"), (1, "sample-path"), (1, "nu-curve"), (1, "bstar"),
                (2, "bstar"), (2, "value-curve"), (1, "check-properties")]
        script = "\n".join([
            "import re, sys",
            "sys.path.insert(0, %r)" % src,
            "import levyrefract",
            "from levyrefract.cli_reporting import load_config, run_experiment",
            "for i, sub in %r:" % runs,
            "    text = open(%r %% i).read()" % os.path.join(root, "paper_case%d.cfg"),
            "    text = text.replace('mc.N = 100000', 'mc.N = 64')",
            "    text = text.replace('grid.K = 10000', 'grid.K = 100')",
            "    cfg = load_config(re.sub(r'task.x_grid = .*', 'task.x_grid = 0:0.5:1', text))",
            "    assert cfg.n == 64 and cfg.k == 100 and cfg.x_grid.size == 3",
            "    run_experiment(cfg, sub, out_dir=%r %% (i, sub))" % str(tmp_path / "%d-%s"),
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
        ])
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"
        assert sorted(os.listdir(tmp_path)) == sorted("%d-%s" % r for r in runs)


    def test_python_m_runs_the_command_line(self, tmp_path):
        """python -m levyrefract is the levy-refract command: a validate
        run exits 0, and no RuntimeWarning of runpy (turned into an error)
        stops it."""
        import subprocess
        import sys
        import levyrefract
        src = os.path.dirname(os.path.dirname(levyrefract.__file__))
        cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "paper_case1.cfg")
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "levyrefract",
                              "validate", "--config", cfg, "--out", str(tmp_path)],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        assert os.path.exists(tmp_path / "validation.txt")


class TestRunValidate:
    def test_writes_report_and_manifest(self, tmp_path):
        man = run_experiment(base_cfg(), "validate", out_dir=str(tmp_path))
        assert man.status == "pass"
        text = (tmp_path / "validation.txt").read_text()
        assert "ok = true" in text
        assert "net_drift = -1" in text
        assert "case = Case1" in text
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["subcommand"] == "validate"
        assert doc["seed"] == 77
        assert doc["outputs"][0]["file"] == "validation.txt"
        import hashlib
        digest = hashlib.sha256((tmp_path / "validation.txt").read_bytes()).hexdigest()
        assert doc["outputs"][0]["sha256"] == digest

    def test_diffusion_model_reports_no_net_drift(self, tmp_path):
        cfg = load_config(reference_config_text(2, **{"mc.N": 10, "grid.K": 10}))
        run_experiment(cfg, "validate", out_dir=str(tmp_path))
        text = (tmp_path / "validation.txt").read_text()
        assert "net_drift = none" in text
        assert "engine = euler" in text


class TestRunSamplePath:
    def test_outputs(self, tmp_path):
        man = run_experiment(base_cfg("task.b = 1.0\n"), "sample-path",
                             out_dir=str(tmp_path))
        names = {r["file"] for r in man.outputs}
        assert names == {"sample_path.csv", "sample_path.svg"}
        svg = (tmp_path / "sample_path.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polyline" in svg
        csv = (tmp_path / "sample_path.csv").read_text()
        assert csv.splitlines()[0] == "t,Z,L,R,branch"

    def test_missing_threshold_leaves_no_files(self, tmp_path):
        with pytest.raises(ValidationError):
            run_experiment(base_cfg(), "sample-path", out_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []


class TestDeterminism:
    CFG = "task.b_grid = 0:0.5:2\nmc.seed = 77\n"

    def run_once(self, d, threads):
        cfg = load_config(BASE.replace("mc.seed = 77", "") + self.CFG)
        return run_experiment(cfg, "nu-curve", out_dir=str(d), threads=threads)

    def test_reruns_and_thread_counts_are_byte_identical(self, tmp_path):
        d1, d2, d3 = (tmp_path / x for x in ("a", "b", "c"))
        self.run_once(d1, 1)
        self.run_once(d2, 1)
        self.run_once(d3, 4)
        for name in ("nu_curve.csv", "nu_curve.svg", "run_manifest.json"):
            b1 = (d1 / name).read_bytes()
            assert b1 == (d2 / name).read_bytes()
            assert b1 == (d3 / name).read_bytes()

    def test_manifest_accounts_for_every_file(self, tmp_path):
        man = self.run_once(tmp_path, 1)
        listed = {r["file"] for r in man.outputs} | {"run_manifest.json"}
        assert set(os.listdir(tmp_path)) == listed

    def test_the_curve_file_reads_back_the_estimates_bit_for_bit(self, tmp_path):
        self.run_once(tmp_path, 1)
        cfg = load_config(BASE.replace("mc.seed = 77", "") + self.CFG)
        curve = nu_curve(cfg.params_for(0.0), cfg.spec, cfg.b_grid, cfg.horizon, cfg.k, cfg.n,
                         RngStream(cfg.seed, tag=2), engine=cfg.engine)
        lines = (tmp_path / "nu_curve.csv").read_text().splitlines()
        assert lines[0] == "b,nu,se"
        got = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        want = np.stack((curve.grid, curve.values, curve.std_errors), axis=1)
        assert got.tobytes() == want.tobytes()


class TestRunBstar:
    def test_deterministic_threshold(self, tmp_path):
        cfg = base_cfg("task.b_grid = 7:0.05:9\n")
        man = run_experiment(cfg, "bstar", out_dir=str(tmp_path))
        assert man.status == "pass"
        lines = (tmp_path / "bstar.csv").read_text().splitlines()
        assert lines[0] == "b_star,interval_low,interval_high,n,seed"
        assert float(lines[1].split(",")[0]) == pytest.approx(8.15)
        # the run's path count and the threshold search's stream
        assert lines[1].split(",")[3:] == ["64", RngStream(77, tag=2).id]

    def test_no_crossing_cleans_up(self, tmp_path):
        cfg = base_cfg("task.b_grid = 0:0.5:3\n")
        with pytest.raises(NoCrossing):
            run_experiment(cfg, "bstar", out_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []


class TestRunValueCurve:
    def test_curves_markers_and_files(self, tmp_path):
        cfg = base_cfg("task.b = 1\ntask.x_grid = -0.5:0.25:1.5\n"
                       "task.competing_b = 0.5, 1.5\n")
        man = run_experiment(cfg, "value-curve", out_dir=str(tmp_path))
        names = {r["file"] for r in man.outputs}
        assert names == {"value_curves.csv", "value_curves.svg"}
        text = (tmp_path / "value_curves.csv").read_text()
        assert text.splitlines()[0] == "x,b,v,se,method"
        bs = {float(row.split(",")[1]) for row in text.splitlines()[1:]}
        assert bs == {0.5, 1.0, 1.5}

    def test_workers_fork_without_a_process_pool(self, tmp_path):
        """A fresh interpreter that imports levyrefract and runs a 2-worker
        value-curve on a shipped config, two chunks at N = 300, is worker 0
        and forks the other itself: no concurrent.futures or multiprocessing
        module is ever loaded."""
        import subprocess
        import sys
        import levyrefract
        src = os.path.dirname(os.path.dirname(levyrefract.__file__))
        cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "paper_case2.cfg")
        script = "\n".join([
            "import os, re, sys",
            "sys.path.insert(0, %r)" % src,
            "import levyrefract",
            "from levyrefract.cli_reporting import load_config, run_experiment",
            "fork, forks = os.fork, []",
            "os.fork = lambda: forks.append(1) or fork()",
            "text = open(%r).read()" % cfg,
            "text = text.replace('mc.N = 100000', 'mc.N = 300')",
            "text = text.replace('grid.K = 10000', 'grid.K = 100')",
            "cfg = load_config(re.sub(r'task.x_grid = .*', 'task.x_grid = 0:0.5:1', text))",
            "assert cfg.n == 300 and cfg.k == 100",
            "run_experiment(cfg, 'value-curve', out_dir=%r, threads=2)" % str(tmp_path),
            "print(len(forks), sorted(m for m in sys.modules",
            "                        if m.startswith(('concurrent', 'multiprocessing'))))",
        ])
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True).stdout
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert out.strip() == "%d []" % (1 if cpus >= 2 else 0)
        assert (tmp_path / "value_curves.csv").is_file()

    def test_one_chunked_job_serves_every_curve_and_marker(self, tmp_path,
                                                           monkeypatch):
        from levyrefract import estimation
        calls = []
        run_chunks = estimation._run_chunks

        def counted(n, worker, threads, draws=1):
            calls.append(n)
            return run_chunks(n, worker, threads, draws)

        monkeypatch.setattr(estimation, "_run_chunks", counted)
        cfg = base_cfg("task.b = 1\ntask.x_grid = -0.5:0.25:1.5\n"
                       "task.competing_b = 0.6, 1.3\n")
        run_experiment(cfg, "value-curve", out_dir=str(tmp_path))
        assert calls == [64]


    NOISY = ("model.gamma = 0.7210553083590153\nmodel.sigma = %d\n"
             "model.jump1.rate = 1.0\nmodel.jump1.sign = -1\n"
             "model.jump1.dist = weibull\nmodel.jump1.params = 2, 1\n")
    TASK = "task.b = 1\ntask.x_grid = -0.5:0.5:1.5\ntask.competing_b = 0.5\n"

    @pytest.mark.parametrize("method", ["spliced", "direct"])
    def test_a_model_without_noise_writes_the_uncontrolled_bytes(self, tmp_path,
                                                               monkeypatch, method):
        """On a drift-only model every lane's control is 0, so theta is 0
        and value-curve writes the bytes of the estimator without the
        control; on a model with jumps the control moves them."""
        from levyrefract import estimation
        estimate = estimation._estimate

        def uncontrolled(sums, *args):
            return estimate(np.concatenate((sums[:5], np.zeros(4))), *args)

        def run(text, out):
            run_experiment(load_config(text), "value-curve", out_dir=str(tmp_path / out))
            return (tmp_path / out / "value_curves.csv").read_bytes()

        drift = BASE + self.TASK + "task.method = %s\n" % method
        noisy = BASE.replace("model.gamma = -1.0\n", self.NOISY % 0) + self.TASK
        controlled = run(drift, "a"), run(noisy, "b")
        monkeypatch.setattr(estimation, "_estimate", uncontrolled)
        assert run(drift, "c") == controlled[0]
        assert run(noisy, "d") != controlled[1]

    @pytest.mark.parametrize("n", [64, 300, 1000])
    @pytest.mark.parametrize("engine", ["exact", "euler"])
    @pytest.mark.parametrize("method", ["spliced", "direct"])
    def test_paths_that_stop_before_any_jump_write_the_uncontrolled_bytes(
            self, tmp_path, monkeypatch, engine, method, n):
        """With jumps too rare to occur, every lane stops before its first
        jump at a time it shares with every path: its control is the same
        nonzero compensator on every path, so its sample variance is
        rounding noise, theta is 0 and value-curve writes the bytes of the
        estimator without the control."""
        from levyrefract import estimation
        estimate, controls = estimation._estimate, []

        def uncontrolled(sums, *args):
            return estimate(np.concatenate((sums[:5], np.zeros(4))), *args)

        def recorded(sums, *args):
            controls.append(sums[5])
            return estimate(sums, *args)

        def run(out):
            text = (BASE.replace("model.gamma = -1.0\n", self.NOISY % 0)
                    .replace("jump1.rate = 1.0", "jump1.rate = 1e-9").replace("mc.N = 64", "mc.N = %d" % n)
                    + self.TASK + "task.method = %s\ntask.engine = %s\n" % (method, engine))
            run_experiment(load_config(text), "value-curve", out_dir=str(tmp_path / out))
            return (tmp_path / out / "value_curves.csv").read_bytes()

        monkeypatch.setattr(estimation, "_estimate", recorded)
        controlled = run("a")
        assert controls and all(c != 0.0 for c in controls)
        monkeypatch.setattr(estimation, "_estimate", uncontrolled)
        assert run("b") == controlled

    @pytest.mark.parametrize("sigma", [0, 1])
    @pytest.mark.parametrize("n", [1, 2])
    def test_one_or_two_paths_give_finite_errors(self, tmp_path, n, sigma):
        """mc.N = 1 and 2 are legal: below three paths theta is 0, and
        value-curve exits 0 with a finite standard error at every point."""
        p = tmp_path / "c.cfg"
        p.write_text(BASE.replace("model.gamma = -1.0\n", self.NOISY % sigma)
                     .replace("mc.N = 64", "mc.N = %d" % n) + self.TASK)
        assert main(["value-curve", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "value_curves.csv").read_text().splitlines()[1:]
        assert len(rows) == 10  # five starts on each of two thresholds
        assert all(math.isfinite(float(r.split(",")[3])) for r in rows)


class TestRunAlphaConvergence:
    def test_ladder_outputs(self, tmp_path):
        cfg = base_cfg("task.alphas = 0.5, 1, inf\ntask.b = 1\ntask.x = 0.5\n")
        man = run_experiment(cfg, "alpha-convergence", out_dir=str(tmp_path))
        assert man.status == "pass"
        names = {r["file"] for r in man.outputs}
        assert "alpha_ladder.csv" in names and "alpha_ladder.txt" in names
        header = (tmp_path / "alpha_ladder.csv").read_text().splitlines()[0]
        assert header == "alpha,v,se,sup_gap_to_limit"
        assert all(line.startswith("PASS")
                   for line in (tmp_path / "alpha_ladder.txt").read_text().splitlines())

    def test_deterministic_values_from_the_threshold(self, tmp_path):
        """Drift 2 from x = b = 1 to T = 5: each finite rung pays alpha for
        good and the band limit pays the drift, so every value is in closed
        form, with standard error 0."""
        cfg = load_config(BASE.replace("gamma = -1.0", "gamma = 2.0")
                          .replace("grid.T = 20", "grid.T = 5").replace("mc.N = 64", "mc.N = 3")
                          + "task.alphas = 0.5, 1, inf\ntask.b = 1\ntask.x = 1\n")
        assert run_experiment(cfg, "alpha-convergence", out_dir=str(tmp_path)).status == "pass"
        rows = [row.split(",") for row in
                (tmp_path / "alpha_ladder.csv").read_text().splitlines()[1:]]
        w = (1.0 - math.exp(-0.05 * 5.0)) / 0.05
        assert [row[0] for row in rows] == ["0.5", "1", "inf"]
        np.testing.assert_allclose([float(row[1]) for row in rows], [0.5 * w, w, 2.0 * w],
                                   rtol=1e-12)
        np.testing.assert_allclose([float(row[2]) for row in rows], 0.0, atol=1e-12)
        np.testing.assert_allclose([float(row[3]) for row in rows], [7.5, 5.0, 0.0],
                                   atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_the_case1_config_passes_at_desk_scale(self, seed, tmp_path):
        """At a fixed b the value need not rise with the cap, and no row
        says it must: the shipped case-1 ladder passes every row."""
        out = tmp_path / "out"
        assert main(["alpha-convergence", "--config", str(CONFIGS / "paper_case1.cfg"),
                     "--desk-scale", "--seed", str(seed), "--out", str(out)]) == 0
        lines = (out / "alpha_ladder.txt").read_text().splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    @pytest.mark.parametrize("alphas", ["0.5, 2", "0.5, 2, inf"])
    def test_the_gap_column_reads_nan_without_an_infinite_rung(self, alphas, tmp_path):
        """A ladder without an infinite rung measures no gap to the limit:
        its rows write nan there, not 0."""
        cfg = load_config(reference_config_text(1, **{"mc.N": 40, "task.alphas": alphas}))
        run_experiment(cfg, "alpha-convergence", out_dir=str(tmp_path))
        rows = (tmp_path / "alpha_ladder.csv").read_text().splitlines()[1:]
        gaps = [row.split(",")[3] for row in rows]
        if alphas.endswith("inf"):
            assert "nan" not in gaps and gaps[-1] == "0" and float(gaps[0]) > 0.0
        else:
            assert gaps == ["nan", "nan"]

    @pytest.mark.parametrize("alphas", ["2, 1", "2"])
    def test_a_ladder_of_fewer_than_two_rising_caps_exits_two(self, alphas, tmp_path,
                                                              capsys):
        p = tmp_path / "c.cfg"
        p.write_text(BASE + "task.alphas = %s\ntask.b = 1\ntask.x = 0.5\n" % alphas)
        code = main(["alpha-convergence", "--config", str(p), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert "task.alphas" in capsys.readouterr().err


    def test_a_start_that_is_not_a_number_exits_two(self, tmp_path, capsys):
        """alpha-convergence from task.x = nan used to pass every row on
        all-zero values."""
        p = tmp_path / "c.cfg"
        p.write_text(BASE + "task.alphas = 0.5, 1, inf\ntask.b = 1\ntask.x = nan\n")
        code = main(["alpha-convergence", "--config", str(p), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert "task.x" in capsys.readouterr().err
        assert not (tmp_path / "out" / "alpha_ladder.csv").exists()


class TestRunCheckProperties:
    def test_all_properties_pass_and_control_fires(self, tmp_path):
        cfg = base_cfg("task.b = 1\ntask.x = 0.5\n")
        man = run_experiment(cfg, "check-properties", out_dir=str(tmp_path))
        assert man.status == "pass"
        text = (tmp_path / "properties.txt").read_text()
        assert "PASS negative_control (fired" in text
        assert "FAIL" not in text

    def test_a_zero_threshold_passes_on_the_case1_model(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(reference_config_text(1, **{"task.b": 0}))
        assert main(["check-properties", "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("key", ["task.b", "task.x"])
    def test_a_config_without_threshold_or_start_exits_two(self, key, tmp_path, capsys):
        """check-properties used to run at b = 1 and from x = 0.5 when the
        config set neither, and exit 0."""
        text = reference_config_text(1, **{"mc.N": 200})
        p = tmp_path / "c.cfg"
        p.write_text("".join(line for line in text.splitlines(True)
                             if line.split("=")[0].strip() != key))
        out = tmp_path / "out"
        assert main(["check-properties", "--config", str(p), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists() or os.listdir(out) == []

    def test_an_infinite_cap_skips_the_ladder(self, tmp_path):
        cfg = load_config(BASE.replace("control.alpha = 0.5", "control.alpha = inf")
                          + "task.b = 1\ntask.x = 0.5\n")
        man = run_experiment(cfg, "check-properties", out_dir=str(tmp_path))
        assert man.status == "pass"
        lines = (tmp_path / "properties.txt").read_text().splitlines()
        assert "SKIP alpha_ladder (control.alpha = inf leaves one rate cap)" in lines
        assert not [line for line in lines if "ladder_" in line]

    def test_an_infinite_cap_passes_on_the_case1_model(self, tmp_path, capsys):
        # jumps that lift both coupled paths past b pay the gap they close
        p = tmp_path / "c.cfg"
        p.write_text(reference_config_text(1, **{"mc.N": 200, "control.alpha": "inf"}))
        assert main(["check-properties", "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 0
        assert "PASS pair_div_support" in capsys.readouterr().out


class TestMain:
    def test_exit_zero_and_echo(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text(BASE)
        code = main(["validate", "--config", str(p), "--out",
                     str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "validation.txt" in out
        assert "ok = true" in out

    def test_bad_config_exits_two(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text(BASE.replace("mc.seed = 77", ""))
        code = main(["validate", "--config", str(p), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert "mc.seed" in capsys.readouterr().err

    def test_an_infinite_injection_cost_exits_two(self, tmp_path, capsys):
        """value-curve with control.beta = inf once ran and wrote the value
        dl - inf * 0 = NaN, then died plotting it with exit 1."""
        p = tmp_path / "c.cfg"
        p.write_text(BASE.replace("control.beta = 1.5", "control.beta = inf")
                     + "task.b = 1.0\ntask.x_grid = 0:0.5:1\n")
        code = main(["value-curve", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "control.beta" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("task.x", "inf"), ("task.b", "-1"), ("task.competing_b", "1,inf"),
        ("task.alphas", "0.5,0"), ("task.engine", "fast"), ("task.method", "mixed"),
        ("task.b_grid", "3:1:0"), ("task.x_grid", "a,b"), ("task.x_grid", "0, nan, 1"),
        ("task.x_grid", "0, inf"), ("task.b_grid", "0.5, inf"), ("task.b_grid", "0:0.5:inf"),
        ("task.b_grid", "0:1e308:1.7e308"), ("task.b_grid", "-1e308:1:1e308"),
        ("task.b_grid", "0:1e-300:1")])
    def test_a_malformed_task_key_exits_two(self, key, value, tmp_path, capsys):
        """validate reads every task key it is given, used by its subcommand
        or not, and refuses a malformed one by name."""
        p = tmp_path / "c.cfg"
        p.write_text(BASE + "%s = %s\n" % (key, value))
        code = main(["validate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("sub,key", [
        ("sample-path", "b"), ("nu-curve", "b_grid"), ("bstar", "b_grid"),
        ("value-curve", "b"), ("value-curve", "x_grid"), ("alpha-convergence", "alphas"),
        ("alpha-convergence", "x"), ("alpha-convergence", "b")])
    def test_a_missing_task_key_exits_two(self, sub, key, tmp_path, capsys):
        """A subcommand run without a task key it needs names the key and
        writes nothing."""
        task = {"b": "1", "x": "0.5", "b_grid": "0:0.5:2", "x_grid": "0:0.5:1",
                "alphas": "0.5, 1, inf"}
        del task[key]
        p = tmp_path / "c.cfg"
        p.write_text(BASE + "".join("task.%s = %s\n" % kv for kv in task.items()))
        assert main([sub, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "task.%s: missing" % key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [("model.gamma", "inf"), ("model.sigma", "inf"),
                                           ("model.x0", "nan")])
    def test_non_finite_model_value_exits_two(self, key, value, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("".join(line + "\n" for line in BASE.splitlines()
                             if not line.startswith(key)) + "%s = %s\n" % (key, value))
        code = main(["validate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("model.jump1.rate", "inf"), ("model.jump1.rate", "nan"), ("model.jump1.rate", "-1"),
        ("model.jump1.rate", None), ("model.jump1.sign", "2"), ("model.jump1.sign", None),
        ("model.jump3.rate", "inf"), ("model.jump3.sign", None), ("model.sigma", "-1")])
    def test_a_bad_jump_or_sigma_value_exits_two(self, key, value, tmp_path, capsys):
        """A jump block's rate or sign, bad or missing, is named as its own
        key, in a config of one block and as the second of two."""
        blocks = ("jump1", "jump3") if key.startswith("model.jump3") else ("jump1",)
        lines = ["model.%s.%s = %s" % (j, k, v) for j in blocks for k, v in
                 (("rate", "1"), ("sign", "-1"), ("dist", "exponential"), ("params", "2"))]
        lines = [line for line in lines if not line.startswith(key + " ")]
        if value is not None:
            lines.append("%s = %s" % (key, value))
        p = tmp_path / "c.cfg"
        p.write_text(BASE + "".join(line + "\n" for line in lines))
        code = main(["validate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "%s: " % key in capsys.readouterr().err

    def test_a_huge_finite_axis_range_is_plotted(self, tmp_path):
        """Axis spans near the largest double used to overflow to inf."""
        p = tmp_path / "c.cfg"
        p.write_text(BASE + "task.x_grid = 1e300, 1.7e308\ntask.b = 1\n")
        assert main(["value-curve", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        svg = (tmp_path / "out" / "value_curves.svg").read_text()
        assert svg_numbers(svg) and all(map(math.isfinite, svg_numbers(svg)))

    def test_property_checks_on_a_diffusion_exit_two(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text(BASE + "model.sigma = 1\n")
        code = main(["check-properties", "--config", str(p), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert "model.sigma" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")

    @pytest.mark.parametrize("sub", ["sample-path", "nu-curve"])
    def test_exact_engine_on_a_diffusion_exits_two(self, sub, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text(BASE + "model.sigma = 1\ntask.engine = exact\n"
                     "task.b = 1.0\ntask.b_grid = 0:0.5:2\n")
        code = main([sub, "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "task.engine" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")

    def test_a_weibull_cutoff_past_a_float_validates(self, tmp_path):
        # (1/scale)^shape overflows, and every mark lies below 1
        p = tmp_path / "c.cfg"
        p.write_text(reference_config_text(1, **{"model.jump2.params": "40, 1e-10"}))
        assert main(["validate", "--config", str(p), "--out", str(tmp_path / "out")]) == 0

    def test_an_infinite_negative_jump_mean_exits_two(self, tmp_path, capsys):
        # each mark mean is finite, and their rate-weighted sum is not
        p = tmp_path / "c.cfg"
        p.write_text(reference_config_text(1, **{"model.jump2.rate": 10,
                                                 "model.jump2.params": "1, 1e308"}))
        assert main(["validate", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "model.jump2:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_a_non_finite_point_mass_says_finite(self, value, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text(reference_config_text(1, **{"model.jump2.dist": "pointmass",
                                                 "model.jump2.params": value}))
        assert main(["validate", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "model.jump2.params" in err and "finite" in err

    @pytest.mark.parametrize("sign", ["+1", "-1"])
    def test_an_infinite_mark_mean_exits_two(self, sign, tmp_path, capsys, monkeypatch):
        """A mark law whose mean is not finite, which no built-in family
        has, is refused naming its jump block."""
        class HeavyTail(MarkDistribution):
            def mean(self):
                return float("inf")

        build = cli_reporting._build_marks
        monkeypatch.setattr(cli_reporting, "_build_marks", lambda prefix, items: (
            HeavyTail() if prefix == "model.jump2" else build(prefix, items)))
        p = tmp_path / "c.cfg"
        p.write_text(reference_config_text(1, **{"model.jump2.sign": sign}))
        assert main(["validate", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "model.jump2:" in err and "finite" in err

    def test_no_crossing_exits_one_with_the_reason(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text(BASE + "task.b_grid = 0:0.5:3\n")
        assert main(["bstar", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        assert "beta * nu stays >= 1 on the whole grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")

    def test_a_char_function_that_cannot_converge_exits_one(self, tmp_path, capsys):
        """A Weibull down-jump law of shape 0.3 is legal, but the quadrature
        of its characteristic function does not converge: check-properties
        says so, exits 1 and writes nothing, where it ended in a traceback."""
        p = tmp_path / "c.cfg"
        p.write_text(reference_config_text(1, **{"model.jump2.params": "0.3, 1", "mc.N": 200}))
        out = tmp_path / "out"
        assert main(["check-properties", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("no result: tanh-sinh levels differ") and "Traceback" not in err
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--threads", "0")])
    def test_bad_run_numbers_exit_two(self, flag, value, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text(BASE + "task.b_grid = 0:0.5:2\n")
        code = main(["nu-curve", "--config", str(p), flag, value, "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_override(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(BASE)
        main(["validate", "--config", str(p), "--seed", "123", "--out",
              str(tmp_path / "out")])
        doc = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert doc["seed"] == 123

    def test_subcommand_list_is_stable(self):
        assert SUBCOMMANDS == ("validate", "sample-path", "nu-curve", "bstar",
                               "value-curve", "alpha-convergence",
                               "check-properties", "reproduce-paper")


def svg_numbers(svg):
    """Every number in every attribute of an SVG text, inf and nan included."""
    return [float(v) for attr in re.findall(r'="([^"]*)"', svg)
            for v in re.findall(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan", attr)]


class TestOutputFormats:
    def test_float_cells_read_back_bit_for_bit(self):
        floats = [-0.0, 0.0, math.inf, -math.inf, 0.1, 1 / 3, -2.5e-300, 5e-324,
                  1.7976931348623157e308, 8.15]
        rows = [(v, np.float64(v)) for v in floats] + [(math.nan, np.float64(math.nan))]
        lines = csv_text("a,b", rows).splitlines()
        assert lines[0] == "a,b" and len(lines) == len(rows) + 1
        back = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        assert back[:-1].tobytes() == np.array(rows[:-1]).tobytes()
        assert lines[-1] == "nan,nan" and np.isnan(back[-1]).all()
        assert lines[1] == "-0,-0" and lines[3] == "inf,inf"

    def test_other_cells_print_as_before(self):
        """An int, a str and a branch code of np.int8 print as %d and %s did."""
        cells = (300, "pair_budget", np.int8(2), np.int8(-1), np.int64(7), "inf")
        assert csv_text("n,p,b,c,d,alpha", [cells]) == \
            "n,p,b,c,d,alpha\n%d,%s,%d,%d,%d,%s\n" % cells
        assert csv_text("h", []) == "h\n"

    def test_a_fail_verdict_line_is_pinned(self):
        rep = CoupledPairReport(n_paths=2, shift=0.5, violations=(
            Violation(1.0, "pair_budget", 0.25), Violation(2.0, "pair_gap_range", 1e-7),
            Violation(3.0, "pair_budget", 1.23456789)))
        lines = verdict_lines(rep)
        assert len(lines) == len(PAIR_PROPS)
        assert lines[0] == "FAIL pair_budget  violations=2  max=1.23"
        assert lines[1] == "FAIL pair_gap_range  violations=1  max=1e-07"
        assert lines[2:] == ["PASS " + p for p in PAIR_PROPS[2:]]
        assert not rep.ok


class TestSvgPlot:
    @pytest.mark.parametrize("lo,hi", [(-1.7e308, 1.7e308), (0.0, 1.7976931348623157e308)])
    def test_a_huge_finite_range_has_finite_coordinates(self, lo, hi):
        p = SvgPlot("wide", "x", "y")
        p.line(np.array([lo, hi]), np.array([hi, lo]), "#336699", label="a")
        p.hline(lo)
        p.marker(hi, hi)
        numbers = svg_numbers(p.render())
        assert len(numbers) > 20 and all(map(math.isfinite, numbers))

    def test_render_is_deterministic_and_self_contained(self):
        def build():
            p = SvgPlot("demo", "x", "y")
            p.line(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 2.0]),
                   "#336699", label="a")
            p.line(np.array([0.0, 2.0]), np.array([2.0, 0.0]), "#993366",
                   label="b", dashed=True)
            p.hline(1.0, label="level")
            p.marker(1.0, 0.5, "#119911", label="pt")
            return p.render()

        one, two = build(), build()
        assert one == two
        assert one.startswith("<svg")
        assert "stroke-dasharray" in one
        assert "demo" in one and "http://" not in one.replace(
            "http://www.w3.org/2000/svg", "")


class TestReproduceTiny:
    def test_case1_desk_run(self, tmp_path):
        cfg = load_config(reference_config_text(
            1, **{"mc.N": 80, "grid.K": 200, "mc.seed": 5, "grid.T": 20}))
        man = run_experiment(cfg, "reproduce-paper", out_dir=str(tmp_path),
                             desk_scale=True)
        assert man.status == "pass" and man.engine == "exact"
        names = {r["file"] for r in man.outputs}
        assert names == {"bstar.csv", "nu_curve.csv", "nu_curve.svg",
                         "value_curves.csv", "value_curves.svg"}
        bstar = float((tmp_path / "bstar.csv").read_text().splitlines()[1].split(",")[0])
        assert 0.5 < bstar < 3.0


# small enough for a test, large enough for beta * nu to cross 1 on both engines
SMALL_REPRODUCE = {"grid.T": 20, "grid.K": 200, "mc.N": 300,
                   "task.b_grid": "-1:0.05:3.5", "task.x_grid": "-0.5:0.5:2.5"}


def run_outputs(text, sub, out_dir, threads=1):
    """{file name: bytes} of the outputs of one desk-scale run."""
    man = run_experiment(load_config(text), sub, out_dir=str(out_dir), threads=threads,
                         desk_scale=True)
    return {r["file"]: (out_dir / r["file"]).read_bytes() for r in man.outputs}


class TestReproduceReadsItsConfig:
    """reproduce-paper is bstar on its config, then value curves around the
    b* it found, on both engines."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", [1, 2])
    def test_its_threshold_search_is_bstar(self, case, threads, tmp_path):
        text = reference_config_text(case, **SMALL_REPRODUCE)
        bstar = run_outputs(text, "bstar", tmp_path / "bstar", threads)
        both = run_outputs(text, "reproduce-paper", tmp_path / "both", threads)
        assert set(bstar) == {"bstar.csv", "nu_curve.csv", "nu_curve.svg"}
        assert {name: both[name] for name in bstar} == bstar
        assert set(both) - set(bstar) == {"value_curves.csv", "value_curves.svg"}

    @pytest.mark.parametrize("case", [1, 2])
    def test_a_changed_rate_cap_changes_every_output(self, case, tmp_path):
        one, other = (run_outputs(reference_config_text(case, **SMALL_REPRODUCE,
                                                        **{"control.alpha": alpha}),
                                  "reproduce-paper", tmp_path / alpha)
                      for alpha in ("0.5", "0.7"))
        assert set(one) == set(other)
        assert all(one[name] != other[name] for name in one)

    @pytest.mark.parametrize("key", ["task.b_grid", "task.x_grid"])
    @pytest.mark.parametrize("case", [1, 2])
    def test_a_missing_grid_exits_two_naming_it(self, case, key, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("".join(line + "\n" for line in
                             reference_config_text(case, **SMALL_REPRODUCE).splitlines()
                             if not line.startswith(key)))
        assert main(["reproduce-paper", "--config", str(p), "--desk-scale",
                     "--out", str(tmp_path / "out")]) == 2
        assert key + ": missing" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")
