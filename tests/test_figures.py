import dataclasses

import pytest

from burstlab import svg
from burstlab.features import FeatureVector, burst_features, run_autonomous
from burstlab.figures import PRESETS, model_for, run_figure
from burstlab.svg import MARGIN, SvgCanvas


def test_preset_table_complete():
    assert set(PRESETS) == {f"fig{i}" for i in range(1, 8)}
    for name, preset in PRESETS.items():
        assert preset.name == name
        if preset.model.startswith("driven"):
            assert len(preset.paths) == len(preset.labels) >= 2


def test_fig4_preset_parameters():
    p = PRESETS["fig4"]
    assert [path.d for path in p.paths] == [0.2, 1.0, 50.0]
    for path in p.paths:
        assert (path.ca_c, path.na_c, path.ca0, path.eps) == \
            (0.15, 5.85, 0.0, 0.004)
        assert path.na0 == path.na_c


def test_fig3_preset_parameters():
    p = PRESETS["fig3"]
    assert [path.d for path in p.paths] == [0.5, 2.0, 20.0]
    for path in p.paths:
        assert (path.ca_c, path.na_c, path.ca0, path.eps) == \
            (0.7, 5.35, 0.0, 0.009)


def test_fig5_fig6_fig7_parameters():
    assert [p.eps for p in PRESETS["fig5"].paths] == [0.002, 0.006, 0.01]
    blue, red = PRESETS["fig6"].paths
    assert (blue.ca_c, blue.na_c, blue.d, blue.ca0) == (0.15, 5.2, 0.1, 0.0)
    assert (red.ca_c, red.na_c, red.d, red.ca0) == (0.1, 5.1, 1.0, -0.1)
    assert blue.eps == red.eps == 0.009
    fig7 = PRESETS["fig7"]
    assert [p.d for p in fig7.paths] == [0.1, 0.2, 0.4]
    assert all((p.ca_c, p.na_c, p.ca0, p.eps) == (0.19, 5.75, 0.04, 0.004)
               for p in fig7.paths)
    assert len(fig7.levels) == 15
    assert fig7.levels[0] == pytest.approx(-0.05)
    assert fig7.levels[-1] == pytest.approx(0.09)


def test_model_for_rejects_unknown():
    with pytest.raises(ValueError):
        model_for("banana")


def test_run_figure_fig4_artifacts(tmp_path, curves2):
    summary = run_figure("fig4", tmp_path, curves=curves2)
    assert all(t["db"] for t in summary["traces"])
    for suffix in ("curves", "features", "trace0", "trace1", "trace2"):
        assert (tmp_path / f"fig4_{suffix}.csv").exists()
    svg_text = (tmp_path / "fig4_overlay.svg").read_text()
    assert svg_text.startswith("<svg") and svg_text.rstrip().endswith("</svg>")
    lines = (tmp_path / "fig4_features.csv").read_text().splitlines()
    assert lines[0] == "label," + ",".join(FeatureVector.COLUMNS)
    assert len(lines) == 4


def test_overlay_draws_contours_then_curves_then_paths(tmp_path, curves2,
                                                      monkeypatch):
    # the fig7 preset on a coarse window: its contours lie beneath the SNIC
    # and AH curves, drawn once each, and beneath every path and marker
    fig7 = PRESETS["fig7"]
    coarse = dataclasses.replace(fig7.window, n_ca=5, n_na=5)
    monkeypatch.setitem(PRESETS, "fig7",
                        dataclasses.replace(fig7, window=coarse))
    run_figure("fig7", tmp_path, workers=1, curves=curves2)
    lines = (tmp_path / "fig7_overlay.svg").read_text().splitlines()

    def where(pred):
        return [i for i, line in enumerate(lines) if pred(line)]

    contours = where(lambda line: f'stroke="{svg.CONTOUR_COLOR}"' in line)
    curves = where(lambda line: f'stroke="{svg.CURVE_COLOR}"' in line)
    paths = where(lambda line: "<polyline" in line and any(
        f'stroke="{c}"' in line for c in svg.PATH_COLORS))
    marks = where(lambda line: "<circle" in line)
    assert contours and len(paths) == 3 and marks
    assert len(curves) == len({lines[i] for i in curves}) == 2
    assert max(contours) < min(curves)
    assert max(curves) < min(paths) < min(marks)


def test_fig1_features_are_the_autonomous_cycle(tmp_path, full, curves5):
    # fig1 runs run_autonomous as it stands: no warm-up of its own
    run_figure("fig1", tmp_path, curves=curves5)
    row = burst_features(run_autonomous(full, *curves5)).row()
    lines = (tmp_path / "fig1_features.csv").read_text().splitlines()
    assert lines[1] == f"full7d,{row}"


def test_run_figure_rejects_unknown(tmp_path):
    with pytest.raises(ValueError):
        run_figure("fig99", tmp_path)


def test_svg_canvas_mapping():
    c = SvgCanvas(0.0, 2.0, 10.0, 20.0)
    # corners land on the frame, y axis flipped
    assert c.x(0.0) == pytest.approx(MARGIN)
    assert c.x(2.0) == pytest.approx(800 - MARGIN)
    assert c.y(10.0) == pytest.approx(600 - MARGIN)
    assert c.y(20.0) == pytest.approx(MARGIN)
    c.polyline([0.0, 1.0], [10.0, 15.0], color="#123456")
    c.circle(1.0, 15.0, "#ff0000")
    text = c.render()
    assert "polyline" in text and "#123456" in text
    assert text.count("<svg") == 1
