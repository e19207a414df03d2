import os
import subprocess
import sys

import numpy as np
import pytest

from burstlab import cli
from burstlab.bifurcation import read_curves, write_curves
from burstlab.config import UsageError, check_keys, get_span, parse_config
from burstlab.features import FeatureVector


def test_parse_config_basics():
    cfg = parse_config("# comment\nmodel = driven4d\npath.d = 1.5\n\n")
    assert cfg == {"model": "driven4d", "path.d": "1.5"}


def test_parse_config_rejects_garbage():
    with pytest.raises(UsageError, match="line 1"):
        parse_config("not a key value\n")
    with pytest.raises(UsageError, match="duplicate"):
        parse_config("a = 1\na = 2\n")


def test_check_keys_lists_unknown():
    with pytest.raises(UsageError, match="bogus.one, bogus.two"):
        check_keys({"bogus.two": "1", "bogus.one": "2", "ok": "3"},
                   ["ok"])


def test_get_span_rejects_empty_and_degenerate():
    with pytest.raises(UsageError, match="missing or empty"):
        get_span({"sim.t_span": ""}, "sim.t_span")
    with pytest.raises(UsageError, match="t1 > t0"):
        get_span({"sim.t_span": "5:5"}, "sim.t_span")


def test_simulate_empty_t_span_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = reduced4d\nsim.t_span =\n")
    rc = cli.main(["simulate", "--config", str(cfg)])
    assert rc == cli.EXIT_USAGE


def test_simulate_unknown_key_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = reduced4d\nsim.t_span = 0:10\nwhat = 1\n")
    rc = cli.main(["simulate", "--config", str(cfg)])
    assert rc == cli.EXIT_USAGE


def test_simulate_missing_model_is_usage_error(tmp_path):
    rc = cli.main(["simulate", "--t_span", "0:10",
                   "--out", str(tmp_path / "t.csv")])
    assert rc == cli.EXIT_USAGE


def test_simulate_deterministic_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--model", "driven4d", "--ca_c", "0.15",
            "--na_c", "5.85", "--d", "1", "--ca0", "0", "--eps", "0.004",
            "--t_span", "0:120"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b1.splitlines()[0] == b"t,v,n,Ca,Na"


def test_bifcurves_and_features_pipeline(tmp_path, curves2):
    # export session curves, then run the features command against them
    curves_csv = tmp_path / "curves.csv"
    write_curves(curves_csv, *curves2)
    feat_csv = tmp_path / "features.csv"
    stages_csv = tmp_path / "stages.csv"
    rc = cli.main(["features", "--model", "driven4d", "--ca_c", "0.15",
                   "--na_c", "5.85", "--d", "1", "--ca0", "0",
                   "--eps", "0.004", "--curves", str(curves_csv),
                   "--out", str(feat_csv), "--stages_out", str(stages_csv)])
    assert rc == 0
    fv = FeatureVector.from_csv(feat_csv)
    assert fv.period == pytest.approx(2 * np.pi / 0.004)
    lines = stages_csv.read_text().splitlines()
    assert lines[0] == "stage,t0,t1"
    assert len(lines) == 6


def test_features_classification_failure_exit_code(tmp_path, curves2):
    curves_csv = tmp_path / "curves.csv"
    write_curves(curves_csv, *curves2)
    rc = cli.main(["features", "--model", "driven4d", "--ca_c", "-0.05",
                   "--na_c", "5.5", "--d", "2", "--ca0", "-0.08",
                   "--eps", "0.01", "--curves", str(curves_csv),
                   "--out", str(tmp_path / "f.csv")])
    assert rc == cli.EXIT_CLASSIFICATION


def test_bifcurves_command(tmp_path):
    out = tmp_path / "curves.csv"
    rc = cli.main(["bifcurves", "--model", "reduced4d",
                   "--na_range", "5.3:5.5", "--step", "0.05",
                   "--out", str(out)])
    assert rc == 0
    curves = read_curves(out)
    assert set(curves) == {"SNIC", "AH"}


@pytest.mark.parametrize("step", ["0", "-0.01", "nan"])
def test_bifcurves_rejects_bad_step(tmp_path, step):
    rc = cli.main(["bifcurves", "--na_range", "5.3:5.5", "--step", step,
                   "--out", str(tmp_path / "curves.csv")])
    assert rc == cli.EXIT_USAGE


def test_landscape_command_small(tmp_path):
    field = tmp_path / "field.csv"
    cont = tmp_path / "contours.csv"
    svg_out = tmp_path / "plot.svg"
    rc = cli.main(["landscape", "--model", "reduced4d", "--kind", "relambda",
                   "--window", "0.1:0.4:5.4:5.8", "--grid", "7x6",
                   "--levels", "0.0,0.02",
                   "--field_out", str(field), "--contours_out", str(cont),
                   "--svg_out", str(svg_out)])
    assert rc == 0
    assert field.read_text().startswith("Ca,Na,value")
    assert cont.read_text().startswith("level,segment,Ca,Na")
    assert svg_out.read_text().startswith("<svg")


@pytest.mark.parametrize("args, code", [
    (["--kind", "relambda", "--grid", "1x5"], cli.EXIT_USAGE),
    (["--kind", "relambda", "--window", "0.4:0.1:4.8:5.8"], cli.EXIT_USAGE),
    (["--kind", "relambda", "--levels", "a,b"], cli.EXIT_USAGE),
    # every node quiescent: the field is written, no contour can be drawn
    (["--kind", "period", "--window", "1.2:1.5:4.8:5.0", "--grid", "3x3"],
     cli.EXIT_NUMERICAL),
], ids=["grid_1x5", "window_reversed", "levels_text", "all_quiescent"])
def test_landscape_bad_input_exit_codes(tmp_path, capsys, args, code):
    field = tmp_path / "field.csv"
    rc = cli.main(["landscape", *args, "--field_out", str(field),
                   "--contours_out", str(tmp_path / "contours.csv")])
    assert rc == code
    assert field.exists() == (code == cli.EXIT_NUMERICAL)
    if code == cli.EXIT_NUMERICAL:
        assert "quiescent 9" in capsys.readouterr().err


def _fit_config(tmp_path, curves2, fig4_d1_trace, extra="", budget=12,
                d_bounds="0.7:1.4"):
    from burstlab.features import burst_features
    curves_csv = tmp_path / "curves.csv"
    write_curves(curves_csv, *curves2)
    target_csv = tmp_path / "target.csv"
    burst_features(fig4_d1_trace).to_csv(target_csv)
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(
        "fit.model = driven4d\n"
        f"fit.target = {target_csv}\n"
        f"fit.bounds.d = {d_bounds}\n"
        f"fit.budget = {budget}\n"
        "fit.seed = 5\n" + extra)
    return cfg, curves_csv


@pytest.mark.parametrize("extra", [
    # a free name that is not a path parameter
    "fit.free = d,ca0,bogus\nfit.bounds.ca0 = -0.05:0.08\n"
    "path.ca_c = 0.15\npath.na_c = 5.85\npath.eps = 0.004\n",
    # a start point off the centre, which every fitted path has
    "fit.free = d\npath.ca_c = 0.15\npath.na_c = 5.85\npath.na0 = 6.1\n"
    "path.ca0 = 0\npath.eps = 0.004\n",
    # bounds for na0, which is not a fit parameter
    "fit.free = d\nfit.bounds.na0 = 5.0:6.0\npath.ca_c = 0.15\n"
    "path.na_c = 5.85\npath.ca0 = 0\npath.eps = 0.004\n",
], ids=["unknown_free", "na0_off_centre", "na0_bounds"])
def test_fit_rejects_ignored_config(tmp_path, curves2, fig4_d1_trace, extra):
    cfg, curves_csv = _fit_config(tmp_path, curves2, fig4_d1_trace, extra)
    log_csv = tmp_path / "log.csv"
    rc = cli.main(["fit", "--config", str(cfg), "--curves", str(curves_csv),
                   "--out", str(log_csv),
                   "--best_out", str(tmp_path / "best.cfg")])
    assert rc == cli.EXIT_USAGE
    assert not log_csv.exists()


_CENTRED_D = ("fit.free = d\npath.ca_c = 0.15\npath.na_c = 5.85\n"
              "path.ca0 = 0\npath.eps = 0.004\n")


@pytest.mark.parametrize("keys, extra, code", [
    ({"budget": 3}, _CENTRED_D, cli.EXIT_USAGE),
    ({"budget": "inf"}, _CENTRED_D, cli.EXIT_USAGE),
    ({"d_bounds": "-1:2"}, _CENTRED_D, cli.EXIT_USAGE),
    # every phase-1 path lies left of both curves and crosses none
    ({"budget": 9}, "fit.bounds.ca0 = -0.52:-0.51\npath.ca_c = -0.5\n"
     "path.na_c = 5.85\npath.eps = 0.004\n", cli.EXIT_CLASSIFICATION),
], ids=["budget_too_small", "budget_not_finite", "d_bounds_not_positive",
        "no_db_point"])
def test_fit_bad_problem_exit_codes(tmp_path, curves2, fig4_d1_trace, keys,
                                    extra, code):
    cfg, curves_csv = _fit_config(tmp_path, curves2, fig4_d1_trace, extra,
                                  **keys)
    log_csv = tmp_path / "log.csv"
    rc = cli.main(["fit", "--config", str(cfg), "--curves", str(curves_csv),
                   "--out", str(log_csv),
                   "--best_out", str(tmp_path / "best.cfg")])
    assert rc == code
    assert not log_csv.exists()


def test_fit_command(tmp_path, curves2, fig4_d1_trace):
    cfg, curves_csv = _fit_config(
        tmp_path, curves2, fig4_d1_trace,
        "fit.free = d\npath.ca_c = 0.15\npath.na_c = 5.85\npath.ca0 = 0\n"
        "path.eps = 0.004\n")
    log_csv = tmp_path / "log.csv"
    best_cfg = tmp_path / "best.cfg"
    rc = cli.main(["fit", "--config", str(cfg), "--curves", str(curves_csv),
                   "--out", str(log_csv), "--best_out", str(best_cfg)])
    assert rc == 0
    best = parse_config(best_cfg.read_text())
    assert 0.7 <= float(best["path.d"]) <= 1.4
    assert best["path.na0"] == best["path.na_c"]
    assert log_csv.read_text().splitlines()[0] == "d,distance,db,status,seconds,sequence"
    # the best path, na0 included, loads as the fixed part of a new fit
    again = tmp_path / "again.cfg"
    again.write_text(cfg.read_text().split("fit.free")[0]
                     + "fit.free = d\n" + best_cfg.read_text())
    rc = cli.main(["fit", "--config", str(again), "--curves", str(curves_csv),
                   "--out", str(tmp_path / "log2.csv"),
                   "--best_out", str(tmp_path / "best2.cfg")])
    assert rc == 0


@pytest.mark.parametrize("command", ["features", "fit"])
def test_curve_file_without_ah_rows_is_usage_error(tmp_path, curves2,
                                                   fig4_d1_trace, command):
    from burstlab.features import burst_features
    curves_csv = tmp_path / "curves.csv"
    write_curves(curves_csv, curves2[0])
    target_csv = tmp_path / "target.csv"
    burst_features(fig4_d1_trace).to_csv(target_csv)
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"fit.target = {target_csv}\nfit.free = d\n"
                   "fit.bounds.d = 0.7:1.4\npath.ca_c = 0.15\n"
                   "path.na_c = 5.85\npath.ca0 = 0\npath.eps = 0.004\n")
    args = {"features": ["--model", "driven4d", "--ca_c", "0.15",
                         "--na_c", "5.85", "--d", "1", "--ca0", "0",
                         "--eps", "0.004"],
            "fit": ["--config", str(cfg)]}[command]
    rc = cli.main([command, *args, "--curves", str(curves_csv),
                   "--out", str(tmp_path / "out.csv")])
    assert rc == cli.EXIT_USAGE


def test_unknown_figure_rejected():
    rc = cli.main(["figure", "fig99"])
    assert rc == cli.EXIT_USAGE


def test_console_entry_point_help():
    # the child imports burstlab from where this process found it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-m", "burstlab.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
