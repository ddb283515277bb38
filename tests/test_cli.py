"""Command-line surface: argument handling, files written, error exits."""

import json
import math
import os
import re
import subprocess
import sys

import pytest

import chainsim
from chainsim.cli import main
from chainsim.io import load_gdp, load_panel

from conftest import steady_chain_csvs


def run(argv):
    return main(argv)


def gen_dir(tmp_path, *extra, name="data"):
    out = tmp_path / name
    code = run(["generate", "--out-dir", str(out), "--firms", "6",
                "--seed", "19", *extra])
    assert code == 0
    return out


def put_long_cell(panel, quoted):
    """Make line 5 of a written panel (its second data line) carry a
    200,000-character revenue cell past csv's field limit."""
    lines = panel.read_text().split("\n")
    cells = lines[4].split(",")
    cells[2] = f'"{"9" * 200_000}"' if quoted else "9" * 200_000
    lines[4] = ",".join(cells)
    panel.write_text("\n".join(lines))


def keep_first_period(data, periods=1):
    """Cut a written panel and its GDP file down to their first periods,
    period 0 alone by default."""
    for name, column in (("panel.csv", 1), ("gdp.csv", 0)):
        path = data / name
        lines = path.read_text().splitlines(keepends=True)
        header = next(i for i, line in enumerate(lines)
                      if not line.startswith("#"))
        path.write_text("".join(
            line for i, line in enumerate(lines)
            if i <= header or int(line.split(",")[column]) < periods))


def config_echo(path):
    """The object of a written CSV's '# config: ' line."""
    line = next(line for line in path.read_text().splitlines()
                if line.startswith("# config: "))
    return json.loads(line[len("# config: "):])


class TestGenerate:
    def test_writes_the_four_files(self, tmp_path, capsys):
        out = gen_dir(tmp_path)
        for name in ("panel.csv", "edges.csv", "gdp.csv", "params.csv"):
            assert (out / name).exists()
        assert "generated 6 firms" in capsys.readouterr().out

    def test_reproducible_byte_for_byte(self, tmp_path):
        a = gen_dir(tmp_path, name="a")
        b = gen_dir(tmp_path, name="b")
        for name in ("panel.csv", "edges.csv", "gdp.csv", "params.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_config_file_feeds_the_generator(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"n_firms": 3, "horizon": 5, "seed": 2}))
        out = tmp_path / "out"
        assert run(["generate", "--out-dir", str(out),
                    "--config", str(cfg)]) == 0
        panel = load_panel(str(out / "panel.csv"))
        assert len(panel.firm_ids) == 3
        assert panel.n_periods == 5

    def test_unknown_config_key_fails_clean(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"firmz": 3}))
        out = tmp_path / "out"
        assert run(["generate", "--out-dir", str(out),
                    "--config", str(cfg)]) == 2
        assert "firmz" in capsys.readouterr().err
        assert not (out / "panel.csv").exists()

    @pytest.mark.parametrize("cfg", [
        {"seed": 1.5}, {"seed": True}, {"n_firms": 7.9}, {"horizon": 5.9},
        {"gdp_growth": -1.5}, {"gdp_growth": -1.0}, {"gdp_volatility": -0.01},
        {"mean_out_degree": math.nan}, {"mean_out_degree": -1.0},
        {"elasticity_sum_max": 0.2},
        {"alpha_range": [0.1, math.nan]}, {"revenue_range": [150.0, 50.0]},
        {"equity_frac_range": [0.05, math.inf]}, {"strength_range": 0.3},
        {"gdp_start": math.nan}, {"gdp_start": -1.0},
        {"interest_rate": "0.05"}, {"noise_sigma": "0.02"},
        {"start_jitter": "0.2"}, {"decision_jitter": "0.8"},
        {"decision_jitter": -0.5},
        # a string "false" ran with noise and echoed true
        {"noise_on": "false"}, {"noise_on": 0},
        # true drew GDP with volatility 1.0 and echoed true
        {"gdp_volatility": True}, {"gdp_growth": True},
        {"mean_out_degree": True}, {"elasticity_sum_max": True},
    ])
    def test_bad_config_value_fails_clean(self, tmp_path, capsys, cfg):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"n_firms": 3, **cfg}))
        out = tmp_path / "out"
        assert run(["generate", "--out-dir", str(out),
                    "--config", str(path)]) == 2
        assert next(iter(cfg)) in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_noise_on_from_config(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"noise_on": False}))
        by_cfg = gen_dir(tmp_path, "--config", str(cfg), name="cfg")
        by_flag = gen_dir(tmp_path, "--no-noise", name="flag")
        text = (by_cfg / "panel.csv").read_text()
        assert '"noise_on": false' in text
        assert text == (by_flag / "panel.csv").read_text()

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config {path}: [Errno 2] No such file or "
               "directory: '{path}'"),
        ("not json", "cannot read config {path}: Expecting value: line 1 "
                     "column 1 (char 0)"),
        ("[3]", "config {path} must hold a JSON object"),
    ])
    def test_unreadable_config_fails_clean(self, tmp_path, capsys, text,
                                           message):
        path = tmp_path / "gen.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "out"
        assert run(["generate", "--out-dir", str(out),
                    "--config", str(path)]) == 2
        assert capsys.readouterr().err == \
            f"chainsim: {message.format(path=path)}\n"
        assert not out.exists()

    def test_missing_required_flag_exits_via_parser(self):
        with pytest.raises(SystemExit):
            run(["generate"])  # no --out-dir


class TestCalibrate:
    def test_noiseless_panel_fits_to_machine_precision(self, tmp_path, capsys):
        data = gen_dir(tmp_path, "--no-noise")
        out = tmp_path / "fit"
        code = run(["calibrate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "fit_report.json").read_text())
        assert doc["firms"]
        for rec in doc["firms"].values():
            assert rec["average_error"] < 1e-6
        assert (f"calibrated {len(doc['firms'])} firms "
                f"({len(doc['failures'])} failures, 0 not converged) -> "
                in capsys.readouterr().out)

    @pytest.mark.parametrize("flags", [
        ["--tol", "-1"], ["--tol", "0"], ["--tol", "nan"], ["--tol", "inf"],
        ["--max-iter", "-1"]])
    def test_out_of_range_solver_setting_fails_clean(self, tmp_path, capsys,
                                                      flags):
        data = gen_dir(tmp_path)
        out = tmp_path / "fit"
        assert run(["calibrate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--out-dir", str(out), *flags]) == 2
        assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
        assert not (out / "fit_report.json").exists()

    def test_fractional_max_iter_in_config_fails_clean(self, tmp_path, capsys):
        data = gen_dir(tmp_path)
        cfg = tmp_path / "calibrate_cfg.json"
        cfg.write_text(json.dumps({"max_iter": 2.5}))
        out = tmp_path / "fit"
        assert run(["calibrate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--out-dir", str(out), "--config", str(cfg)]) == 2
        assert "max_iter" in capsys.readouterr().err
        assert not (out / "fit_report.json").exists()

    # a numeric string was parsed and a bool read as 1.0
    @pytest.mark.parametrize("tol", [None, [1e-8], {"v": 1e-8}, "1e-3", True])
    def test_config_tol_of_wrong_type_fails_clean(self, tmp_path, capsys, tol):
        data = gen_dir(tmp_path)
        cfg = tmp_path / "calibrate_cfg.json"
        cfg.write_text(json.dumps({"tol": tol}))
        out = tmp_path / "fit"
        assert run(["calibrate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--out-dir", str(out), "--config", str(cfg)]) == 2
        assert "tol" in capsys.readouterr().err
        assert not (out / "fit_report.json").exists()

    def test_unknown_config_key_fails_clean(self, tmp_path, capsys):
        data = gen_dir(tmp_path)
        cfg = tmp_path / "calibrate_cfg.json"
        cfg.write_text(json.dumps({"tl": 1e-3}))
        out = tmp_path / "fit"
        assert run(["calibrate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--out-dir", str(out), "--config", str(cfg)]) == 2
        assert "'tl'" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("quoted", [False, True])
    def test_over_long_panel_cell_fails_clean(self, tmp_path, capsys, quoted):
        data = gen_dir(tmp_path)
        put_long_cell(data / "panel.csv", quoted)
        out = tmp_path / "fit"
        assert run(["calibrate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"chainsim: {data / 'panel.csv'} line 5: "
            "field larger than field limit (131072)\n")
        assert not (out / "fit_report.json").exists()

    def test_panel_not_utf8_fails_clean(self, tmp_path, capsys):
        # the second data line's id starts with a byte UTF-8 never uses
        data = gen_dir(tmp_path)
        panel = data / "panel.csv"
        lines = panel.read_bytes().split(b"\n")
        lines[4] = b"\xff" + lines[4]
        panel.write_bytes(b"\n".join(lines))
        out = tmp_path / "fit"
        assert run(["calibrate", "--panel", str(panel),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"chainsim: {panel} line 5: not UTF-8: 'utf-8' codec can't "
            "decode byte 0xff in position 0: invalid start byte\n")
        assert not (out / "fit_report.json").exists()

    @pytest.mark.parametrize("periods", [1, 2])
    def test_panel_no_firm_can_be_fitted_on_fails_clean(self, tmp_path,
                                                        capsys, periods):
        # it exited 0 with a report of "calibrated 0 firms (6 failures)"
        data = gen_dir(tmp_path)
        keep_first_period(data, periods)
        out = tmp_path / "fit"
        assert run(["calibrate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "chainsim: no firm could be fitted (6 failures; firm 'F0000': "
            f"need at least 3 periods, got {periods})\n")
        assert not out.exists()

    def test_integer_tol_from_config_echoes_as_a_float(self, tmp_path):
        data = gen_dir(tmp_path)
        cfg = tmp_path / "calibrate_cfg.json"
        cfg.write_text(json.dumps({"tol": 1}))
        out = tmp_path / "fit"
        assert run(["calibrate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--out-dir", str(out), "--config", str(cfg)]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert repr(report["config"]["tol"]) == "1.0"

    def test_histograms_regenerate_from_report(self, tmp_path):
        data = gen_dir(tmp_path)
        fit = tmp_path / "fit"
        assert run(["calibrate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--out-dir", str(fit)]) == 0
        rep = tmp_path / "rep"
        assert run(["report", "--fit-report", str(fit / "fit_report.json"),
                    "--out-dir", str(rep)]) == 0
        doc = json.loads((rep / "histograms.json").read_text())
        assert set(doc["histograms"]) == {"alpha", "beta", "alpha_plus_beta",
                                          "strength", "average_error"}
        assert doc["n_firms"] > 0
        fitted = json.loads((fit / "fit_report.json").read_text())
        assert doc["histograms"] == fitted["histograms"]

    def test_seed_from_config_file(self, tmp_path):
        data = gen_dir(tmp_path)
        cfg = tmp_path / "calibrate_cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        files = ["--panel", str(data / "panel.csv"),
                 "--edges", str(data / "edges.csv"),
                 "--gdp", str(data / "gdp.csv")]
        by_flag, by_cfg = tmp_path / "flag", tmp_path / "cfg"
        assert run(["calibrate", *files, "--out-dir", str(by_flag),
                    "--seed", "5"]) == 0
        assert run(["calibrate", *files, "--out-dir", str(by_cfg),
                    "--config", str(cfg)]) == 0
        written = (by_cfg / "fit_report.json").read_bytes()
        assert written == (by_flag / "fit_report.json").read_bytes()
        assert json.loads(written)["seed"] == 5

    def test_report_refuses_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"firms": {}}))
        assert run(["report", "--fit-report", str(empty),
                    "--out-dir", str(tmp_path / "rep")]) == 2
        assert "no firm results" in capsys.readouterr().err


CHAIN_DOT = """digraph money_flow {
  "A";
  "B" [bankrupt=1, generation=1];
  "C" [bankrupt=1, generation=0];
  "B" -> "A" [k=0.5];
  "C" -> "B" [k=0.5];
}
"""


class TestCascade:
    def base_args(self, paths, out):
        return ["cascade",
                "--panel", paths["panel.csv"],
                "--edges", paths["edges.csv"],
                "--gdp", paths["gdp.csv"],
                "--params", paths["params.csv"],
                "--out-dir", str(out)]

    def test_chain_scenario_and_expected_graphs(self, tmp_path, capsys):
        paths = steady_chain_csvs(tmp_path)
        out = tmp_path / "cascade"
        code = run(self.base_args(paths, out) + ["--trigger", "C"])
        assert code == 0
        doc = json.loads((out / "cascade.json").read_text())
        assert doc["bankrupt"] == {"B": 1, "C": 0}
        assert doc["survivors"] == {"A": "equity-sufficient"}
        assert (out / "network.dot").read_text() == CHAIN_DOT
        gml = (out / "network.graphml").read_text()
        assert '<edge source="C" target="B">' in gml
        assert "cascade: 2 bankrupt" in capsys.readouterr().out

    def test_product_flow_flag(self, tmp_path):
        paths = steady_chain_csvs(tmp_path)
        out = tmp_path / "cascade"
        assert run(self.base_args(paths, out)
                   + ["--trigger", "C", "--product-flow"]) == 0
        text = (out / "network.dot").read_text()
        assert text.startswith("digraph product_flow {")
        assert '"A" -> "B"' in text

    def test_format_selection(self, tmp_path):
        paths = steady_chain_csvs(tmp_path)
        out = tmp_path / "jsononly"
        assert run(self.base_args(paths, out)
                   + ["--trigger", "C", "--format", "json"]) == 0
        assert (out / "cascade.json").exists()
        assert not (out / "network.dot").exists()
        assert not (out / "network.graphml").exists()

    def test_unknown_trigger_fails_without_output(self, tmp_path, capsys):
        paths = steady_chain_csvs(tmp_path)
        out = tmp_path / "cascade"
        assert run(self.base_args(paths, out) + ["--trigger", "Z"]) == 2
        assert "Z" in capsys.readouterr().err
        assert not (out / "cascade.json").exists()

    def test_failing_export_keeps_earlier_results(self, tmp_path, capsys):
        # the loaders read an id ending in a backslash, the cascade and
        # its JSON succeed, and then DOT refuses the id
        data = gen_dir(tmp_path)
        for name in ("panel.csv", "edges.csv", "params.csv"):
            path = data / name
            path.write_text(re.sub(r"\bF0001\b", r"F0001\\",
                                   path.read_text()))
        out = tmp_path / "shock"
        out.mkdir()
        (out / "cascade.json").write_bytes(b'{"earlier": true}\n')
        paths = {name: str(data / name)
                 for name in ("panel.csv", "edges.csv", "gdp.csv", "params.csv")}
        assert run(self.base_args(paths, out) + ["--trigger", "F0000"]) == 2
        assert "backslash" in capsys.readouterr().err
        assert os.listdir(out) == ["cascade.json"]
        assert (out / "cascade.json").read_bytes() == b'{"earlier": true}\n'

    def test_trigger_required(self, tmp_path, capsys):
        paths = steady_chain_csvs(tmp_path)
        assert run(self.base_args(paths, tmp_path / "x")) == 2
        assert "--trigger" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("gdp_ratio", None), ("gdp_ratio", [1.0]),
        ("max_generations", {"n": 2}), ("max_generations", [2]),
        ("max_generations", 1.7), ("max_generations", True),
        ("seed", 1.5), ("seed", "7"),
        ("format", 5), ("format", ["json", 2]), ("format", {"json": 1}),
        ("format", []),
    ])
    def test_config_value_of_wrong_type_fails_clean(self, tmp_path, capsys,
                                                    key, value):
        paths = steady_chain_csvs(tmp_path)
        cfg = tmp_path / "cascade_cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "cascade"
        assert run(self.base_args(paths, out)
                   + ["--trigger", "C", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("flags,message", [
        (["--gdp-ratio", "nan"], "gdp_ratio must be finite"),
        (["--gdp-ratio", "inf"], "gdp_ratio must be finite"),
        (["--max-generations", "-2"], "max_generations must be None or"),
    ])
    def test_out_of_range_setting_fails_clean(self, tmp_path, capsys, flags,
                                              message):
        paths = steady_chain_csvs(tmp_path)
        out = tmp_path / "cascade"
        assert run(self.base_args(paths, out) + ["--trigger", "C", *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_seed_from_config_file(self, tmp_path):
        paths = steady_chain_csvs(tmp_path)
        cfg = tmp_path / "cascade_cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        by_flag, by_cfg, unset = (tmp_path / n for n in ("flag", "cfg", "unset"))
        assert run(self.base_args(paths, by_flag)
                   + ["--trigger", "C", "--seed", "5"]) == 0
        assert run(self.base_args(paths, by_cfg)
                   + ["--trigger", "C", "--config", str(cfg)]) == 0
        assert run(self.base_args(paths, unset) + ["--trigger", "C"]) == 0
        written = (by_cfg / "cascade.json").read_bytes()
        assert written == (by_flag / "cascade.json").read_bytes()
        assert json.loads(written)["seed"] == 5
        assert json.loads((unset / "cascade.json").read_text())["seed"] is None

    def test_string_trigger_from_config_is_one_firm(self, tmp_path):
        data = gen_dir(tmp_path)
        paths = {n: str(data / n) for n in
                 ("panel.csv", "edges.csv", "gdp.csv", "params.csv")}
        cfg = tmp_path / "cascade_cfg.json"
        cfg.write_text(json.dumps({"trigger": "F0001"}))
        by_flag, by_cfg = tmp_path / "flag", tmp_path / "cfg"
        assert run(self.base_args(paths, by_flag)
                   + ["--trigger", "F0001"]) == 0
        assert run(self.base_args(paths, by_cfg)
                   + ["--config", str(cfg)]) == 0
        assert ((by_cfg / "cascade.json").read_bytes()
                == (by_flag / "cascade.json").read_bytes())

    def test_unknown_config_key_fails_clean(self, tmp_path, capsys):
        paths = steady_chain_csvs(tmp_path)
        cfg = tmp_path / "cascade_cfg.json"
        cfg.write_text(json.dumps({"triggers": ["C"]}))
        out = tmp_path / "cascade"
        assert run(self.base_args(paths, out)
                   + ["--trigger", "C", "--config", str(cfg)]) == 2
        assert "'triggers'" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_string_format_from_config_is_one_format(self, tmp_path):
        paths = steady_chain_csvs(tmp_path)
        cfg = tmp_path / "cascade_cfg.json"
        cfg.write_text(json.dumps({"format": "json"}))
        out = tmp_path / "cascade"
        assert run(self.base_args(paths, out)
                   + ["--trigger", "C", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["cascade.json"]

    @pytest.mark.parametrize("trigger", [5, {"C": 1}, ["C", 2], [["C"]]])
    def test_trigger_of_wrong_type_fails_clean(self, tmp_path, capsys,
                                               trigger):
        paths = steady_chain_csvs(tmp_path)
        cfg = tmp_path / "cascade_cfg.json"
        cfg.write_text(json.dumps({"trigger": trigger}))
        out = tmp_path / "cascade"
        assert run(self.base_args(paths, out) + ["--config", str(cfg)]) == 2
        assert "trigger" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["cascade", "simulate"])
    def test_fitted_elasticities_summing_near_one_run(self, tmp_path, command):
        # F0000's interior point (..)**(1/(1-alpha-beta)) passes float range
        data = tmp_path / "data"
        assert run(["generate", "--out-dir", str(data), "--firms", "12",
                    "--seed", "19"]) == 0
        report = tmp_path / "fit_report.json"
        report.write_text(json.dumps({"firms": {
            "F0000": {"alpha": 0.5, "beta": 0.499, "average_error": 0.0}}}))
        args = [command, "--fit-report", str(report),
                "--out-dir", str(tmp_path / "out")]
        for name in ("panel", "edges", "gdp", "params"):
            args += [f"--{name}", str(data / f"{name}.csv")]
        if command == "cascade":
            args += ["--trigger", "F0003"]
        assert run(args) == 0

    @pytest.mark.parametrize("record", [
        {"alpha": 400.0, "beta": 0.3}, {"alpha": 0.3, "beta": -0.1},
        {"alpha": math.nan, "beta": 0.3}, {"alpha": 0.3, "beta": math.inf},
        {"alpha": 0.3, "beta": 0.3, "strengths": {"F0001": math.nan}},
    ])
    @pytest.mark.parametrize("command", ["cascade", "simulate"])
    def test_fitted_values_outside_the_fit_box_fail_clean(self, tmp_path, capsys,
                                                          command, record):
        # alpha = 400 overflowed the best response's interior point
        data = tmp_path / "data"
        assert run(["generate", "--out-dir", str(data), "--firms", "12",
                    "--seed", "19"]) == 0
        report = tmp_path / "fit_report.json"
        report.write_text(json.dumps({"firms": {
            "F0000": {"average_error": 0.0, **record}}}))
        out = tmp_path / "out"
        args = [command, "--fit-report", str(report), "--out-dir", str(out)]
        for name in ("panel", "edges", "gdp", "params"):
            args += [f"--{name}", str(data / f"{name}.csv")]
        if command == "cascade":
            args += ["--trigger", "F0003"]
        capsys.readouterr()
        assert run(args) == 2
        assert "F0000" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_multiple_triggers_union(self, tmp_path):
        paths = steady_chain_csvs(tmp_path, equity_a=1000.0)
        out = tmp_path / "multi"
        assert run(self.base_args(paths, out)
                   + ["--trigger", "C", "--trigger", "B"]) == 0
        doc = json.loads((out / "cascade.json").read_text())
        assert doc["bankrupt"]["C"] == 0 and doc["bankrupt"]["B"] == 0
        assert "A" in doc["survivors"]


class TestSimulate:
    def test_continues_the_panel(self, tmp_path):
        data = gen_dir(tmp_path)
        out = tmp_path / "fwd"
        code = run(["simulate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--params", str(data / "params.csv"),
                    "--horizon", "5", "--seed", "3",
                    "--out-dir", str(out)])
        assert code == 0
        sim = load_panel(str(out / "panel_sim.csv"))
        gdp = load_gdp(str(out / "gdp_sim.csv"))
        assert sim.n_periods == 5
        assert len(gdp) == 5
        # the forward run picks up at the observed panel's last period
        base = load_panel(str(data / "panel.csv"))
        assert gdp.periods[0] == base.periods[-1]

    @pytest.mark.parametrize("fid", ["#X", "A,B"])
    def test_id_the_panel_file_cannot_carry_fails_clean(self, tmp_path,
                                                       capsys, fid):
        # the loaders read a quoted id; written bare, "#X" would be
        # skipped as a comment and "A,B" would split into two fields
        data = gen_dir(tmp_path)
        for name in ("panel.csv", "edges.csv", "params.csv"):
            path = data / name
            path.write_text(re.sub(r"\bF0001\b", f'"{fid}"', path.read_text()))
        out = tmp_path / "fwd"
        assert run(["simulate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--params", str(data / "params.csv"),
                    "--horizon", "3", "--out-dir", str(out)]) == 2
        assert repr(fid) in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_short_horizon_rejected(self, tmp_path, capsys):
        data = gen_dir(tmp_path)
        assert run(["simulate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--params", str(data / "params.csv"),
                    "--horizon", "2",
                    "--out-dir", str(tmp_path / "x")]) == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("horizon", None), ("horizon", [5]),
        ("seed", None), ("seed", {"s": 3}),
        ("decision_jitter", None), ("decision_jitter", [0.1]),
        ("gdp_growth", None), ("gdp_volatility", [0.01]),
        ("horizon", 5.9), ("seed", 2.5), ("seed", False),
        # true ran with jitter 1.0; a numeric string was parsed
        ("decision_jitter", True), ("gdp_growth", "0.02"),
        ("gdp_volatility", False),
    ])
    def test_config_value_of_wrong_type_fails_clean(self, tmp_path, capsys,
                                                    key, value):
        data = gen_dir(tmp_path)
        cfg = tmp_path / "simulate_cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "fwd"
        assert run(["simulate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--params", str(data / "params.csv"),
                    "--out-dir", str(out), "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_unknown_config_key_fails_clean(self, tmp_path, capsys):
        data = gen_dir(tmp_path)
        cfg = tmp_path / "simulate_cfg.json"
        cfg.write_text(json.dumps({"horizn": 5}))
        out = tmp_path / "fwd"
        assert run(["simulate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--params", str(data / "params.csv"),
                    "--out-dir", str(out), "--config", str(cfg)]) == 2
        assert "'horizn'" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_integer_config_numbers_echo_as_floats(self, tmp_path):
        data = gen_dir(tmp_path)
        cfg = tmp_path / "simulate_cfg.json"
        keys = ("gdp_growth", "decision_jitter", "gdp_volatility")
        cfg.write_text(json.dumps(dict.fromkeys(keys, 0)))
        out = tmp_path / "fwd"
        assert run(["simulate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--params", str(data / "params.csv"),
                    "--out-dir", str(out), "--config", str(cfg)]) == 0
        for name in ("panel_sim.csv", "gdp_sim.csv"):
            echo = config_echo(out / name)
            assert [repr(echo[key]) for key in keys] == ["0.0"] * 3

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_fails_clean(self, tmp_path, capsys, source):
        # numpy refused it with a bare "expected non-negative integer"
        data = gen_dir(tmp_path)
        cfg = tmp_path / "simulate_cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        extra = (["--seed", "-1"] if source == "flag"
                 else ["--config", str(cfg)])
        out = tmp_path / "fwd"
        assert run(["simulate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--params", str(data / "params.csv"),
                    "--out-dir", str(out), *extra]) == 2
        assert "seed must be an int >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_decision_jitter_fails_clean(self, tmp_path, capsys):
        # it ran with no jitter at all
        data = gen_dir(tmp_path)
        out = tmp_path / "fwd"
        assert run(["simulate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--params", str(data / "params.csv"),
                    "--out-dir", str(out), "--decision-jitter", "-0.5"]) == 2
        assert "decision_jitter" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("flags", [
        ["--gdp-growth", "-2"], ["--gdp-growth", "nan"],
        ["--gdp-volatility", "-0.5"], ["--gdp-volatility", "inf"],
    ])
    def test_gdp_path_that_cannot_stay_positive_fails_clean(self, tmp_path,
                                                             capsys, flags):
        data = gen_dir(tmp_path)
        out = tmp_path / "fwd"
        assert run(["simulate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--params", str(data / "params.csv"),
                    "--out-dir", str(out), *flags]) == 2
        assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


MALFORMED_FIT_REPORTS = [
    {"firms": {"A": {"beta": 0.3}}},
    [1, 2],
    {"firms": [1, 2]},
    {"nothing": {}},
    {"firms": {"A": 0.3}},
    {"firms": {"A": {"alpha": "0.3", "beta": 0.3, "average_error": 0.1}}},
    {"firms": {"A": {"alpha": 0.3, "beta": None, "average_error": 0.1}}},
    {"firms": {"A": {"alpha": 0.3, "beta": 0.3}}},
    {"firms": {"A": {"alpha": 0.3, "beta": 0.3, "average_error": 0.1,
                     "strengths": [0.5]}}},
    {"firms": {"A": {"alpha": 0.3, "beta": 0.3, "average_error": 0.1,
                     "strengths": {"B": "0.5"}}}},
    {"firms": {"A": {"alpha": 0.3, "beta": 0.3, "average_error": 0.1}},
     "failures": 5},
    {"firms": {"A": {"alpha": True, "beta": 0.3, "average_error": 0.1}}},
]


class TestFitReportShape:
    """cascade, simulate and report refuse a malformed fit report alike."""

    def command(self, name, paths, report, out):
        if name == "report":
            return ["report", "--fit-report", report, "--out-dir", str(out)]
        extra = ["--trigger", "C"] if name == "cascade" else []
        return [name, "--panel", paths["panel.csv"],
                "--edges", paths["edges.csv"], "--gdp", paths["gdp.csv"],
                "--params", paths["params.csv"], "--fit-report", report,
                "--out-dir", str(out), *extra]

    @pytest.mark.parametrize("doc", MALFORMED_FIT_REPORTS)
    @pytest.mark.parametrize("name", ["cascade", "simulate", "report"])
    def test_malformed_report_fails_clean(self, tmp_path, capsys, name, doc):
        paths = steady_chain_csvs(tmp_path)
        report = tmp_path / "fit_report.json"
        report.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(self.command(name, paths, str(report), out)) == 2
        assert "fit report" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("name", ["cascade", "simulate", "report"])
    def test_report_not_utf8_fails_clean(self, tmp_path, capsys, name):
        paths = steady_chain_csvs(tmp_path)
        report = tmp_path / "fit_report.json"
        report.write_bytes(b'{"firms": {"\xff": {}}}')
        out = tmp_path / "out"
        assert run(self.command(name, paths, str(report), out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"chainsim: cannot read fit report {report}: ")
        assert "can't decode byte 0xff" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("name", ["cascade", "simulate", "report"])
    def test_well_formed_report_is_read(self, tmp_path, name):
        paths = steady_chain_csvs(tmp_path)
        report = tmp_path / "fit_report.json"
        report.write_text(json.dumps({"firms": {
            "A": {"alpha": 0.3, "beta": 0.35, "average_error": 0.0},
            "B": {"alpha": 0.3, "beta": 0.35, "average_error": 0,
                  "strengths": {"C": 0.5}},
        }}))
        out = tmp_path / "out"
        assert run(self.command(name, paths, str(report), out)) == 0
        assert any(out.iterdir())


    @pytest.mark.parametrize("name", ["cascade", "simulate", "report"])
    def test_int_beyond_float_range_fails_clean(self, tmp_path, capsys, name):
        # math.isfinite raised OverflowError on it
        paths = steady_chain_csvs(tmp_path)
        report = tmp_path / "fit_report.json"
        report.write_text(json.dumps({"firms": {"A": {
            "alpha": 10 ** 400, "beta": 0.35, "average_error": 0.0}}}))
        out = tmp_path / "out"
        assert run(self.command(name, paths, str(report), out)) == 2
        assert "fit report" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

# Reports over firms or links the chain of steady_chain_csvs lacks
FOREIGN_FIT_REPORTS = [
    ({"Z": {"alpha": 0.3, "beta": 0.35, "average_error": 0.0}}, "'Z'"),
    ({"A": {"alpha": 0.3, "beta": 0.35, "average_error": 0.0,
            "strengths": {"C": 0.1}}}, "('A', 'C')"),
]


class TestFitReportOfAnotherEconomy:
    """cascade and simulate refuse a fit report that names firms or
    links their inputs lack, instead of dropping them silently."""

    def args(self, command, data, report, out):
        args = [command, "--fit-report", str(report), "--out-dir", str(out)]
        for name in ("panel", "edges", "gdp", "params"):
            args += [f"--{name}", str(data[f"{name}.csv"])]
        if command == "cascade":
            args += ["--trigger", load_panel(data["panel.csv"]).firm_ids[0]]
        return args

    @pytest.mark.parametrize("firms, named", FOREIGN_FIT_REPORTS,
                             ids=["firm", "link"])
    @pytest.mark.parametrize("command", ["cascade", "simulate"])
    def test_unknown_firm_or_link_fails_clean(self, tmp_path, capsys,
                                              command, firms, named):
        data = steady_chain_csvs(tmp_path)
        report = tmp_path / "fit_report.json"
        report.write_text(json.dumps({"firms": firms}))
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(self.args(command, data, report, out)) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cascade", "simulate"])
    def test_report_fitted_on_another_seed_fails_clean(self, tmp_path,
                                                       capsys, command):
        # the fit of a seed-19 economy, applied to a seed-2 economy of
        # the same size, overwrote the elasticities and dropped most of
        # the report's links
        one, two = gen_dir(tmp_path, name="one"), tmp_path / "two"
        assert run(["generate", "--out-dir", str(two), "--firms", "6",
                    "--seed", "2"]) == 0
        fit = tmp_path / "fit"
        assert run(["calibrate", "--panel", str(one / "panel.csv"),
                    "--edges", str(one / "edges.csv"),
                    "--gdp", str(one / "gdp.csv"),
                    "--out-dir", str(fit)]) == 0
        data = {f"{name}.csv": str(two / f"{name}.csv")
                for name in ("panel", "edges", "gdp", "params")}
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(self.args(command, data, fit / "fit_report.json",
                             out)) == 2
        assert "is not in the network" in capsys.readouterr().err
        assert not out.exists()


class TestEndToEnd:
    def test_generate_calibrate_cascade_pipeline(self, tmp_path):
        data = gen_dir(tmp_path, "--no-noise")
        fit = tmp_path / "fit"
        assert run(["calibrate", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--out-dir", str(fit)]) == 0
        panel = load_panel(str(data / "panel.csv"))
        trigger = panel.firm_ids[0]
        out = tmp_path / "casc"
        assert run(["cascade", "--panel", str(data / "panel.csv"),
                    "--edges", str(data / "edges.csv"),
                    "--gdp", str(data / "gdp.csv"),
                    "--params", str(data / "params.csv"),
                    "--fit-report", str(fit / "fit_report.json"),
                    "--trigger", trigger,
                    "--out-dir", str(out)]) == 0
        doc = json.loads((out / "cascade.json").read_text())
        assert doc["bankrupt"][trigger] == 0
        assert (out / "network.dot").read_text().startswith("digraph money_flow {")


class TestEntryPoint:
    """python -m chainsim and python -m chainsim.cli go through
    cli.entry_point to a process exit."""

    def _run(self, *argv, module="chainsim"):
        src = os.path.dirname(os.path.dirname(chainsim.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        return subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    def test_generate_exits_zero_with_the_four_files(self, tmp_path):
        out = tmp_path / "data"
        proc = self._run("generate", "--firms", "20", "--seed", "1",
                         "--out-dir", str(out))
        assert proc.returncode == 0, proc.stderr
        assert sorted(os.listdir(out)) == [
            "edges.csv", "gdp.csv", "panel.csv", "params.csv"]

    def test_cli_module_runs_a_command(self, tmp_path):
        out = tmp_path / "data"
        proc = self._run("generate", "--out-dir", str(out), "--firms", "10",
                         "--seed", "3", module="chainsim.cli")
        assert proc.returncode == 0, proc.stderr
        assert (out / "panel.csv").is_file()

    def test_cli_module_refuses_an_unknown_flag(self, tmp_path):
        proc = self._run("generate", "--out-dir", str(tmp_path / "data"),
                         "--no-such-flag", module="chainsim.cli")
        assert proc.returncode == 2
        assert "--no-such-flag" in proc.stderr

    def test_bad_firm_count_exits_two_and_leaves_nothing(self, tmp_path):
        out = tmp_path / "data"
        proc = self._run("generate", "--firms", "0", "--seed", "1",
                         "--out-dir", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("chainsim:")
        assert list(tmp_path.iterdir()) == []

    def test_over_long_cell_exits_two_without_a_traceback(self, tmp_path):
        data = tmp_path / "data"
        assert self._run("generate", "--firms", "6", "--seed", "19",
                         "--out-dir", str(data)).returncode == 0
        put_long_cell(data / "panel.csv", quoted=False)
        proc = self._run("calibrate", "--panel", str(data / "panel.csv"),
                         "--edges", str(data / "edges.csv"),
                         "--gdp", str(data / "gdp.csv"),
                         "--out-dir", str(tmp_path / "fit"))
        assert proc.returncode == 2
        assert proc.stderr == (f"chainsim: {data / 'panel.csv'} line 5: "
                               "field larger than field limit (131072)\n")

    @pytest.mark.parametrize("extra", [[], ["--gdp-ratio", "1.0"]])
    def test_one_period_cascade_exits_two_and_writes_nothing(self, tmp_path,
                                                             extra):
        data = tmp_path / "data"
        assert self._run("generate", "--firms", "6", "--seed", "19",
                         "--out-dir", str(data)).returncode == 0
        keep_first_period(data)
        out = tmp_path / "shock"
        proc = self._run("cascade", "--panel", str(data / "panel.csv"),
                         "--edges", str(data / "edges.csv"),
                         "--gdp", str(data / "gdp.csv"),
                         "--params", str(data / "params.csv"),
                         "--trigger", "F0001", "--out-dir", str(out), *extra)
        assert proc.returncode == 2
        assert proc.stderr == ("chainsim: panel needs two periods for the "
                               "growth ratio\n")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, key", [
        ("generate", "mean_out_degree"), ("calibrate", "tol"),
        ("cascade", "gdp_ratio"), ("simulate", "gdp_growth"),
    ])
    def test_int_setting_beyond_float_range_exits_two(self, tmp_path,
                                                      command, key):
        # float() or math.isfinite raised OverflowError on these
        data = tmp_path / "data"
        assert self._run("generate", "--firms", "6", "--seed", "19",
                         "--out-dir", str(data)).returncode == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: 10 ** 400}))
        files = [] if command == "generate" else [
            "--panel", str(data / "panel.csv"),
            "--edges", str(data / "edges.csv"), "--gdp", str(data / "gdp.csv")]
        if command in ("cascade", "simulate"):
            files += ["--params", str(data / "params.csv")]
        if command == "cascade":
            files += ["--trigger", "F0001"]
        out = tmp_path / "out"
        proc = self._run(command, *files, "--config", str(config),
                         "--out-dir", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("chainsim: ") and key in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists() or not any(out.iterdir())
