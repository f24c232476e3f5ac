import json
import os
import re

import numpy as np
import pytest

from levyrefract import cli_reporting
from levyrefract.cli_reporting import (
    ParseError, SUBCOMMANDS, SvgPlot, ValidationError, load_config, main,
    parse_grid, reference_case1_spec, reference_case2_spec, run_experiment,
)
from levyrefract.estimation import NoCrossing
from levyrefract.levy_model import MarkDistribution, net_drift

from oracles import reference_config_text

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
        assert cfg.task_float("b") == 1.0

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
        block, and the block is itself a valid config."""
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8") as fh:
            block = fh.read().split("## Config grammar", 1)[1].split("```")[1]
        load_config(block)
        shown = {re.sub(r"^model\.jump\d+\.", "model.jump.", key)
                 for key in cli_reporting._parse_items(block)}
        accepted = {"%s.%s" % (section, key) for section, keys in (
            ("model", cli_reporting._MODEL_KEYS), ("model.jump", cli_reporting._JUMP_KEYS),
            ("control", cli_reporting._CONTROL_KEYS), ("grid", cli_reporting._GRID_KEYS),
            ("mc", cli_reporting._MC_KEYS), ("task", cli_reporting._TASK_KEYS))
            for key in keys}
        assert accepted - shown == set()

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

    @pytest.mark.parametrize("bad", ["2:0.5:1", "1:0:2", "1:2", "3,2", ""])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_grid("g", bad)

    def test_reference_grids_have_the_advertised_sizes(self):
        c1 = load_config(reference_config_text(1))
        c2 = load_config(reference_config_text(2))
        assert c1.task_grid("b_grid").size == 450
        assert c2.task_grid("b_grid").size == 500
        assert c1.task_grid("b_grid")[0] == -1.0
        assert c1.task_grid("b_grid")[-1] == pytest.approx(3.49)


class TestReferenceConfigs:
    def test_reference_models(self):
        s1 = reference_case1_spec()
        s2 = reference_case2_spec()
        assert s1.sigma == 0.0 and s2.sigma == 1.0
        assert net_drift(s1) == pytest.approx(0.6, abs=1e-12)
        assert net_drift(s2) is None

    def test_reference_text_loads(self):
        cfg = load_config(reference_config_text(1, n=500, k=100))
        assert cfg.n == 500 and cfg.k == 100
        assert cfg.alpha == 0.5 and cfg.beta == 1.5 and cfg.q == 0.05
        assert cfg.task_float("b") == 1.66

    def test_shipped_configs_load(self):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        c1 = load_config(os.path.join(root, "paper_case1.cfg"))
        c2 = load_config(os.path.join(root, "paper_case2.cfg"))
        assert c1.n == 100_000 and c1.k == 10_000
        assert c1.spec.sigma == 0.0 and c2.spec.sigma == 1.0
        assert c2.task_float("b") == 2.15

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
            "    assert cfg.n == 64 and cfg.k == 100 and cfg.task_grid('x_grid').size == 3",
            "    run_experiment(cfg, sub, out_dir=%r %% (i, sub))" % str(tmp_path / "%d-%s"),
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
        ])
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"
        assert sorted(os.listdir(tmp_path)) == sorted("%d-%s" % r for r in runs)


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
        cfg = load_config(reference_config_text(2, n=10, k=10))
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


class TestRunBstar:
    def test_deterministic_threshold(self, tmp_path):
        cfg = base_cfg("task.b_grid = 7:0.05:9\n")
        man = run_experiment(cfg, "bstar", out_dir=str(tmp_path))
        assert man.status == "pass"
        lines = (tmp_path / "bstar.csv").read_text().splitlines()
        assert lines[0].startswith("b_star,")
        assert float(lines[1].split(",")[0]) == pytest.approx(8.15)

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

    def test_one_chunked_job_serves_every_curve_and_marker(self, tmp_path,
                                                           monkeypatch):
        from levyrefract import estimation
        calls = []
        run_chunks = estimation._run_chunks

        def counted(n, worker, threads):
            calls.append(n)
            return run_chunks(n, worker, threads)

        monkeypatch.setattr(estimation, "_run_chunks", counted)
        cfg = base_cfg("task.b = 1\ntask.x_grid = -0.5:0.25:1.5\n"
                       "task.competing_b = 0.6, 1.3\n")
        run_experiment(cfg, "value-curve", out_dir=str(tmp_path))
        assert calls == [64]


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
        p.write_text(reference_config_text(1, n=200).replace("control.alpha = 0.5",
                                                             "control.alpha = inf"))
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

    @pytest.mark.parametrize("key,value", [
        ("task.x", "inf"), ("task.b", "-1"), ("task.competing_b", "1,inf"),
        ("task.alphas", "0.5,0"), ("task.engine", "fast"), ("task.method", "mixed"),
        ("task.b_grid", "3:1:0"), ("task.x_grid", "a,b")])
    def test_a_malformed_task_key_exits_two(self, key, value, tmp_path, capsys):
        """validate reads every task key it is given, used by its subcommand
        or not, and refuses a malformed one by name."""
        p = tmp_path / "c.cfg"
        p.write_text(BASE + "%s = %s\n" % (key, value))
        code = main(["validate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("model.gamma", "inf"), ("model.sigma", "inf"),
                                           ("model.x0", "nan")])
    def test_non_finite_model_value_exits_two(self, key, value, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("".join(line + "\n" for line in BASE.splitlines()
                             if not line.startswith(key)) + "%s = %s\n" % (key, value))
        code = main(["validate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 2
        assert key in capsys.readouterr().err

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
        p.write_text(reference_config_text(1).replace("model.jump2.params = 2, 1",
                                                      "model.jump2.params = 40, 1e-10"))
        assert main(["validate", "--config", str(p), "--out", str(tmp_path / "out")]) == 0

    def test_an_infinite_negative_jump_mean_exits_two(self, tmp_path, capsys):
        # each mark mean is finite, and their rate-weighted sum is not
        p = tmp_path / "c.cfg"
        p.write_text(reference_config_text(1)
                     .replace("model.jump2.rate = 1.0", "model.jump2.rate = 10")
                     .replace("model.jump2.params = 2, 1", "model.jump2.params = 1, 1e308"))
        assert main(["validate", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "model.jump2:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_a_non_finite_point_mass_says_finite(self, value, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text(reference_config_text(1)
                     .replace("model.jump2.dist = weibull", "model.jump2.dist = pointmass")
                     .replace("model.jump2.params = 2, 1", "model.jump2.params = " + value))
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
        p.write_text(reference_config_text(1).replace("model.jump2.sign = -1",
                                                      "model.jump2.sign = " + sign))
        assert main(["validate", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "model.jump2:" in err and "finite" in err

    def test_no_crossing_exits_one_with_the_reason(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text(BASE + "task.b_grid = 0:0.5:3\n")
        assert main(["bstar", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        assert "beta * nu stays >= 1 on the whole grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")

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


class TestSvgPlot:
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
        cfg = load_config(
            reference_config_text(1, n=80, k=200, seed=5)
            .replace("grid.T = 100", "grid.T = 20"))
        man = run_experiment(cfg, "reproduce-paper", out_dir=str(tmp_path),
                             desk_scale=True)
        assert man.status == "pass"
        names = {r["file"] for r in man.outputs}
        assert {"bstar_case1.csv", "nu_curve_case1.csv", "nu_curve_case1.svg",
                "value_curves_case1.csv", "value_curves_case1.svg"} <= names
        bstar = float((tmp_path / "bstar_case1.csv")
                      .read_text().splitlines()[1].split(",")[0])
        assert 0.5 < bstar < 3.0
