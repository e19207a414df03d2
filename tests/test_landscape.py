import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from burstlab import StepSizeError, landscape
from burstlab.landscape import (PERIOD, RE_LAMBDA, ContourSet, GridSpec,
                                ScalarField, build_field, extract_contours,
                                orbit_period, relambda)

from burstlab.figures import FIG6_WINDOW

from oracles import relambda_level_ca_oracle


def _analytic_field(fn, grid):
    cas, nas = grid.ca_axis(), grid.na_axis()
    vals = np.array([[fn(ca, na) for na in nas] for ca in cas])
    return ScalarField(grid=grid, values=vals, kind="TEST")


def test_contour_vertical_line():
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 11, 11)
    field = _analytic_field(lambda x, y: x, grid)
    cset = extract_contours(field, [0.55])
    polys = cset.polylines[0.55]
    assert len(polys) == 1
    assert np.allclose(polys[0][:, 0], 0.55, atol=1e-12)
    assert len(polys[0]) == 11


def test_contour_circle_against_analytic():
    grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 61, 61)
    field = _analytic_field(lambda x, y: x * x + y * y, grid)
    cset = extract_contours(field, [1.0])
    polys = cset.polylines[1.0]
    assert len(polys) == 1
    poly = polys[0]
    assert np.allclose(poly[0], poly[-1])   # closed loop
    radii = np.hypot(poly[:, 0], poly[:, 1])
    assert np.abs(radii - 1.0).max() < grid.cell_diag


def test_contour_constant_field_empty():
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 5, 5)
    field = _analytic_field(lambda x, y: 2.0, grid)
    cset = extract_contours(field, [1.0])
    assert cset.polylines[1.0] == []


def test_contour_vertices_interpolate_field():
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 21, 21)
    field = _analytic_field(lambda x, y: x + 2 * y, grid)
    cset = extract_contours(field, [1.3])
    for poly in cset.polylines[1.3]:
        for ca, na in poly:
            assert ca + 2 * na == pytest.approx(1.3, abs=1e-9)


def test_contour_skips_undefined_cells():
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 11, 11)
    field = _analytic_field(lambda x, y: x, grid)
    field.values[:, 4] = math.nan
    cset = extract_contours(field, [0.55])
    for poly in cset.polylines[0.55]:
        assert not np.isnan(poly).any()


def test_contour_refinement_stability():
    coarse = GridSpec(-1.5, 1.5, -1.5, 1.5, 31, 31)
    fine = GridSpec(-1.5, 1.5, -1.5, 1.5, 61, 61)
    f = lambda x, y: x * x + 0.5 * y * y
    c1 = extract_contours(_analytic_field(f, coarse), [1.0]).polylines[1.0]
    c2 = extract_contours(_analytic_field(f, fine), [1.0]).polylines[1.0]
    all_fine = np.vstack(c2)
    for poly in c1:
        for p in poly:
            d = np.hypot(*(all_fine - p).T).min()
            assert d < coarse.cell_diag


def test_extract_requires_defined_block():
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 5, 5)
    field = _analytic_field(lambda x, y: x, grid)
    field.values[:] = math.nan
    with pytest.raises(ValueError):
        extract_contours(field, [0.5])


def test_orbit_period_defined_between_curves(reduced, curves2):
    snic, ah = curves2
    na = 5.2
    mid = 0.5 * (snic.ca_at(na) + ah.ca_at(na))
    p = orbit_period(reduced, (mid, na))
    assert p is not None and 5.0 < p < 40.0


def test_orbit_period_undefined_right_of_ah(reduced, curves2):
    _, ah = curves2
    assert orbit_period(reduced, (ah.ca_at(5.2) + 0.05, 5.2)) is None


def test_orbit_period_undefined_left_of_snic(reduced, curves2):
    snic, _ = curves2
    assert orbit_period(reduced, (snic.ca_at(5.5) - 0.05, 5.5)) is None


def test_orbit_period_grows_toward_fold(reduced, curves2):
    snic, _ = curves2
    fold = snic.ca_at(5.2)
    periods = [orbit_period(reduced, (fold + off, 5.2), t_measure=3000.0)
               for off in (0.02, 0.01, 0.005)]
    assert all(p is not None for p in periods)
    assert periods[0] < periods[1] < periods[2]
    assert periods[-1] > 40.0


def test_period_monotone_along_ray_before_fold(reduced, curves2):
    # along Na = 5.2 from AH toward SNIC, the last samples before the fold
    # increase monotonically (non-monotonicity is allowed near AH only)
    snic, _ = curves2
    fold = snic.ca_at(5.2)
    cas = fold + np.array([0.05, 0.04, 0.03, 0.02, 0.01])
    periods = [orbit_period(reduced, (ca, 5.2)) for ca in cas]
    assert all(p is not None for p in periods)
    assert all(b > a for a, b in zip(periods, periods[1:]))


def test_relambda_signs_and_zero(reduced, curves2):
    _, ah = curves2
    na = 5.85
    ca = ah.ca_at(na)
    assert abs(relambda(reduced, (ca, na))) < 1e-6
    assert relambda(reduced, (ca + 0.05, na)) < 0
    assert relambda(reduced, (ca - 0.05, na)) > 0


def test_relambda_against_level_oracle(reduced, curves2):
    _, ah = curves2
    na = 5.85
    ca_level = relambda_level_ca_oracle(reduced, na, -0.05,
                                        ah.ca_at(na), 1.2)
    assert ca_level is not None
    assert relambda(reduced, (ca_level, na)) == pytest.approx(-0.05, abs=1e-4)


def test_build_field_constant_stub(reduced):
    # every lane integrates one harmonic oscillator about the -20 mV level
    # with period 12.5 ms; the lanes do identical arithmetic, so every node
    # gets the same value, which the integration gives to rel_tol
    w = 2.0 * math.pi / 12.5

    class Oscillator(type(reduced)):
        def lane_rhs(self, slows):
            def rhs(t, y):
                v, n = y
                return -w * n, w * (v + 20.0)
            return rhs

    grid = GridSpec(0.0, 0.3, 5.0, 5.4, 4, 4)
    field = build_field(PERIOD, grid, Oscillator(reduced.params), workers=1)
    assert (field.values == field.values[0, 0]).all()
    assert field.values[0, 0] == pytest.approx(12.5, rel=1e-6)
    assert (field.status == landscape.DEFINED).all()


def test_build_field_uses_the_model_it_is_given(reduced):
    class Counting(type(reduced)):
        calls = 0

        def lane_rhs(self, slows):
            rhs = super().lane_rhs(slows)

            def counted(t, y):
                Counting.calls += 1
                return rhs(t, y)
            return counted

    grid = GridSpec(0.1, 0.3, 5.0, 5.4, 2, 2)
    build_field(PERIOD, grid, Counting(reduced.params), workers=1)
    assert Counting.calls > 0


def _failing_model(reduced, exc):
    class Failing(type(reduced)):
        def frozen_rhs(self, slow):
            def rhs(t, y):
                raise exc
            return rhs

        def lane_rhs(self, slows):
            return self.frozen_rhs(None)

    return Failing(reduced.params)


def test_build_field_propagates_programming_errors(reduced):
    grid = GridSpec(0.1, 0.3, 5.0, 5.4, 2, 2)
    with pytest.raises(TypeError, match="forced"):
        build_field(PERIOD, grid, _failing_model(reduced, TypeError("forced")),
                    workers=1)


def test_period_lanes_match_orbit_period(reduced):
    # the lockstep lanes against the tuple engine, node by node; they differ
    # by the ulps of the array sigmoid and cosh, which can flip a step's
    # accept decision
    grid = replace(FIG6_WINDOW, n_ca=21, n_na=21)
    field = build_field(PERIOD, grid, reduced, workers=1)
    scalar = np.array([[orbit_period(reduced, (ca, na)) or math.nan
                        for na in grid.na_axis()] for ca in grid.ca_axis()])
    defined = np.isfinite(scalar)
    assert np.array_equal(field.defined_mask(), defined)
    assert defined.sum() > 100
    rel = np.abs(field.values[defined] / scalar[defined] - 1.0)
    assert rel.max() < 1e-6
    assert np.array_equal(field.status == landscape.DEFINED, defined)


def test_period_field_independent_of_chunks_and_workers(reduced):
    grid = replace(FIG6_WINDOW, n_ca=6, n_na=5)
    one = build_field(PERIOD, grid, reduced, workers=1)
    two = build_field(PERIOD, grid, reduced, workers=2)
    nodes = [(ca, na) for ca in grid.ca_axis() for na in grid.na_axis()]
    parts = [landscape._period_lanes(reduced, nodes[:11]),
             landscape._period_lanes(reduced, nodes[11:])]
    by_hand = [np.concatenate(p).reshape(one.values.shape)
               for p in zip(*parts)]
    assert np.isfinite(one.values).sum() >= 4
    for values, status in ((two.values, two.status), tuple(by_hand)):
        assert np.array_equal(values, one.values, equal_nan=True)
        assert np.array_equal(status, one.status)


def test_period_lane_status_at_known_points(reduced, curves2):
    snic, ah = curves2
    points = [(snic.ca_at(5.5) - 0.05, 5.5),             # left of SNIC
              (ah.ca_at(5.2) + 0.0015, 5.2),             # just right of AH
              (0.5 * (snic.ca_at(5.2) + ah.ca_at(5.2)), 5.2)]
    values, status = landscape._period_lanes(reduced, points)
    assert list(status) == [landscape.QUIESCENT, landscape.DECAYED,
                            landscape.DEFINED]
    assert np.isnan(values[:2]).all() and 5.0 < values[2] < 40.0


def test_period_lane_step_failure_is_local(reduced):
    grid = replace(FIG6_WINDOW, n_ca=4, n_na=4)
    bad = (float(grid.ca_axis()[2]), float(grid.na_axis()[1]))

    class NotANumber(type(reduced)):
        def lane_rhs(self, slows):
            rhs = super().lane_rhs(slows)
            broken = np.array([slow == bad for slow in slows])

            def rhs_nan(t, y):
                return tuple(np.where(broken, math.nan, d) for d in rhs(t, y))
            return rhs_nan

    good = build_field(PERIOD, grid, reduced, workers=1)
    field = build_field(PERIOD, grid, NotANumber(reduced.params), workers=1)
    assert field.status[2, 1] == landscape.STEP_FAILURE
    assert np.isnan(field.values[2, 1])
    assert good.status[2, 1] != landscape.STEP_FAILURE
    others = np.ones(grid.n_ca * grid.n_na, dtype=bool).reshape(4, 4)
    others[2, 1] = False
    assert np.array_equal(field.values[others], good.values[others],
                          equal_nan=True)
    assert np.array_equal(field.status[others], good.status[others])


def test_period_lane_step_budget(reduced, monkeypatch):
    # a window that spends the step budget ends its lane as a step failure,
    # as integrate's StepSizeError makes orbit_period undefined; a 500 ms
    # transient at steps of at most 1 ms needs more than 400 steps
    monkeypatch.setattr(landscape, "MAX_STEPS", 400)
    values, status = landscape._period_lanes(reduced, [(0.2, 5.3), (0.0, 5.0)])
    assert list(status) == [landscape.STEP_FAILURE] * 2
    assert np.isnan(values).all()


def test_orbit_period_step_failure_is_undefined(reduced):
    assert orbit_period(_failing_model(reduced, StepSizeError("forced", 0.0)),
                        (0.2, 5.3)) is None


def test_build_field_rejects_unknown_kind(reduced):
    with pytest.raises(ValueError):
        build_field("BOGUS", GridSpec(0, 1, 5, 6, 2, 2), reduced)


def test_build_field_relambda_small(reduced, curves2):
    _, ah = curves2
    grid = GridSpec(0.1, 0.45, 5.4, 5.8, 6, 5)
    field = build_field(RE_LAMBDA, grid, reduced, workers=1)
    assert field.defined_mask().all()
    # sign agrees with the AH side at every node
    for i, ca in enumerate(grid.ca_axis()):
        for j, na in enumerate(grid.na_axis()):
            off = ah.horizontal_offset(ca, na)
            if abs(off) > 5e-3:
                assert np.sign(field.values[i, j]) == -np.sign(off)


def test_field_csv_round_trip(tmp_path):
    # Ca-major rows, 17 significant digits and an empty value for NaN, so
    # every defined value reads back exactly
    grid = GridSpec(0.0, 0.2, 5.0, 5.2, 3, 4)
    vals = np.arange(12, dtype=float).reshape(3, 4) / 3.0
    vals[1, 2] = math.nan
    out = tmp_path / "field.csv"
    ScalarField(grid=grid, values=vals, kind=PERIOD).to_csv(out)
    assert out.read_text() == (
        "Ca,Na,value\n"
        "0,5,0\n"
        "0,5.0666666666666664,0.33333333333333331\n"
        "0,5.1333333333333337,0.66666666666666663\n"
        "0,5.2000000000000002,1\n"
        "0.10000000000000001,5,1.3333333333333333\n"
        "0.10000000000000001,5.0666666666666664,1.6666666666666667\n"
        "0.10000000000000001,5.1333333333333337,\n"
        "0.10000000000000001,5.2000000000000002,2.3333333333333335\n"
        "0.20000000000000001,5,2.6666666666666665\n"
        "0.20000000000000001,5.0666666666666664,3\n"
        "0.20000000000000001,5.1333333333333337,3.3333333333333335\n"
        "0.20000000000000001,5.2000000000000002,3.6666666666666665\n")
    back = [float(row.split(",")[2] or "nan")
            for row in out.read_text().splitlines()[1:]]
    np.testing.assert_array_equal(back, vals.ravel())


def test_contours_csv(tmp_path):
    cset = ContourSet(levels=(1.0,), polylines={
        1.0: [np.array([[0.0, 5.0], [0.1, 5.1]])]})
    out = tmp_path / "contours.csv"
    cset.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "level,segment,Ca,Na"
    assert lines[1] == "1,0,0,5"


def test_sweep_workers_env(monkeypatch, caplog):
    monkeypatch.setenv("BURSTLAB_THREADS", "3")
    assert landscape.sweep_workers() == 3
    monkeypatch.setenv("BURSTLAB_THREADS", "bogus")
    with caplog.at_level(logging.WARNING, logger="burstlab.landscape"):
        assert landscape.sweep_workers() >= 1
    assert "BURSTLAB_THREADS" in caplog.text and "'bogus'" in caplog.text
    monkeypatch.delenv("BURSTLAB_THREADS")
    assert landscape.sweep_workers() >= 1
