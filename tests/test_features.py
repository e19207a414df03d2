import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from oracles import rhs_fast4

from burstlab import FULL7D, REDUCED4D, EllipsePath, FullFast, ReducedFast
from burstlab.features import (SPIKE_REFRACTORY, SPIKE_THRESHOLD,
                               ClassificationError, FeatureVector,
                               _spikes_in_window, burst_features,
                               crossing_events, feature_distance,
                               min_oscillation_amplitude, path_crossings,
                               run_autonomous, run_driven, segment_stages)
from burstlab.figures import PRESETS
from burstlab.integrate import detect_events, integrate


def _trace_of(dv, v0, t_end):
    # v(t) with v' = dv(t), as the integrator's trajectory
    return integrate(lambda t, y: (dv(t),), (v0,), (0.0, t_end))


def test_detect_spikes_constant_below_threshold():
    traj = _trace_of(lambda t: 0.0, -50.0, 100.0)
    assert _spikes_in_window(traj, 0.0, 100.0) == ()


def test_detect_spikes_sine():
    # v = -30 cos t starts below threshold and peaks at pi, 3 pi, 5 pi
    traj = _trace_of(lambda t: 30.0 * math.sin(t), -30.0, 6 * math.pi)
    spikes = _spikes_in_window(traj, 0.0, 6 * math.pi)
    assert len(spikes) == 3
    for i, sp in enumerate(spikes):
        assert sp.t == pytest.approx(math.pi * (2 * i + 1), abs=1e-6)
        assert sp.v == pytest.approx(30.0, abs=1e-6)


def _humps(t, centers, heights):
    return sum(-2.0 * a * (t - c) / 0.04 * math.exp(-((t - c) / 0.2) ** 2)
               for c, a in zip(centers, heights))


def test_detect_spikes_refractory_merge():
    # two humps 1 ms apart merge within SPIKE_REFRACTORY (the larger peak
    # wins); 3 ms apart they are two spikes
    assert SPIKE_REFRACTORY == 2.0
    traj = _trace_of(lambda t: _humps(t, (4.0, 5.0), (50.0, 55.0)), -60.0, 10.0)
    merged = _spikes_in_window(traj, 0.0, 10.0)
    assert len(merged) == 1
    assert merged[0].t == pytest.approx(5.0, abs=1e-3)
    assert merged[0].v == pytest.approx(-5.0, abs=0.5)
    traj = _trace_of(lambda t: _humps(t, (4.0, 7.0), (50.0, 55.0)), -60.0, 10.0)
    assert len(_spikes_in_window(traj, 0.0, 10.0)) == 2


def test_rippling_plateau_above_threshold_is_one_spike():
    # v climbs to a plateau at -19.8 mV and ripples there by 0.1 mV every
    # 11 ms, always above SPIKE_THRESHOLD: one excursion, one spike, though
    # it has eight maxima above threshold
    def dv(t):
        return (40.2 * 0.25 / math.cosh((t - 10.0) / 2.0) ** 2
                + 0.1 * 2.0 * math.pi / 11.0 * math.cos(2.0 * math.pi * t / 11.0))
    traj = _trace_of(dv, -60.0 + 40.2 * 0.5 * (1.0 + math.tanh(-5.0)), 100.0)
    t, v, kind = traj.extrema(0.0, 100.0)
    assert ((kind > 0) & (v > SPIKE_THRESHOLD)).sum() >= 8
    assert len(_spikes_in_window(traj, 0.0, 100.0)) == 1


def _fv(period=1000.0, delay=20.0, isis=(10.0, 11.0), amp_min=5.0,
        amp_max=30.0, ah=200.0, count=3, floor=-80.0):
    return FeatureVector(period=period, first_spike_delay=delay, isis=isis,
                         amp_min=amp_min, amp_max=amp_max, ah_interval=ah,
                         stage_v_count=count, v_floor=floor)


def test_distance_identity_and_symmetry():
    a = _fv()
    b = _fv(period=1100.0, isis=(9.0, 12.0, 14.0))
    assert feature_distance(a, a) == 0.0
    assert feature_distance(a, b) == pytest.approx(feature_distance(b, a))
    assert feature_distance(a, b) > 0.0


@settings(max_examples=80, deadline=None)
@given(st.floats(100, 5000), st.floats(0.1, 200),
       st.lists(st.floats(2, 60), min_size=1, max_size=12),
       st.floats(100, 5000), st.floats(0.1, 200),
       st.lists(st.floats(2, 60), min_size=1, max_size=12))
def test_distance_symmetry_property(p1, d1, i1, p2, d2, i2):
    a = _fv(period=p1, delay=d1, isis=tuple(i1))
    b = _fv(period=p2, delay=d2, isis=tuple(i2))
    assert feature_distance(a, b) == pytest.approx(feature_distance(b, a),
                                                   rel=1e-12)


def test_distance_weight_bilinearity():
    a = _fv()
    b = _fv(period=1500.0)
    w1 = {"period": 1.0}
    w2 = {"period": 2.0}
    d1 = feature_distance(a, b, w1)
    d2 = feature_distance(a, b, w2)
    assert d2 ** 2 == pytest.approx(2.0 * d1 ** 2, rel=1e-12)


def test_distance_zero_iff_weighted_components_equal():
    a = _fv()
    b = _fv(count=7)    # differs only in the zero-weighted spike count
    assert feature_distance(a, b) == 0.0
    assert feature_distance(a, b, {"stage_v_count": 1.0}) > 0.0


def test_distance_rejects_bad_weights():
    a = _fv()
    with pytest.raises(ValueError):
        feature_distance(a, a, {"bogus": 1.0})
    with pytest.raises(ValueError):
        feature_distance(a, a, {"period": -1.0})


def test_distance_isi_resampling_is_scale_free():
    # identical ISI profiles sampled at different lengths are close
    long = tuple(np.linspace(20.0, 10.0, 21))
    short = tuple(np.linspace(20.0, 10.0, 11))
    a = _fv(isis=long)
    b = _fv(isis=short)
    assert feature_distance(a, b) < 0.02


def test_distance_one_sided_isi_counts_fully():
    a = _fv(isis=(10.0, 12.0))
    b = _fv(isis=())
    d = feature_distance(a, b)
    assert d == pytest.approx(1.0)  # only the isi component differs


def test_features_csv_round_trip(tmp_path):
    fv = _fv()
    out = tmp_path / "features.csv"
    fv.to_csv(out)
    back = FeatureVector.from_csv(out)
    assert back == fv


def test_features_csv_round_trip_missing_values(tmp_path):
    fv = FeatureVector(period=500.0, first_spike_delay=None, isis=(),
                       amp_min=None, amp_max=None, ah_interval=100.0,
                       stage_v_count=0, v_floor=-70.0)
    out = tmp_path / "features.csv"
    fv.to_csv(out)
    assert FeatureVector.from_csv(out) == fv


def test_classification_error_left_of_snic(reduced, curves2):
    # a path entirely in the quiescent region has no crossings
    snic, ah = curves2
    path = EllipsePath.centered(-0.05, 5.5, 2.0, -0.08, 0.01)
    trace = run_driven(reduced, path, snic, ah)
    with pytest.raises(ClassificationError, match="no crossings"):
        segment_stages(trace)


def test_db_cycle_stage_partition(fig4_d1_trace):
    trace = fig4_d1_trace
    assert trace.sequence_str() == "SNIC+,AH+,AH-,SNIC-"
    stages = segment_stages(trace)
    # stages (ii)..(v) then the wrapped silent stage tile one period
    assert stages.ii[0] == trace.t_start
    assert stages.ii[1] == stages.iii[0]
    assert stages.iii[1] == stages.iv[0]
    assert stages.iv[1] == stages.v[0]
    assert stages.v[1] == stages.i[0]
    total = sum(stages.duration(k) for k in ("i", "ii", "iii", "iv", "v"))
    assert total == pytest.approx(trace.period, rel=1e-9)


def test_driven_burst_features(fig4_d1_trace):
    fv = burst_features(fig4_d1_trace)
    assert fv.period == pytest.approx(2 * math.pi / 0.004, rel=1e-12)
    assert fv.first_spike_delay > 0.0
    assert len(fv.isis) >= 10
    assert fv.amp_min < fv.amp_max
    assert fv.v_floor < -60.0
    assert fv.ah_interval > 0.0


def test_fig4_short_db_phase_relative_to_spiking(reduced, curves2):
    # the d = 50 path spends only a short arc right of AH, so the approach
    # to and away from depolarization block is brief next to stage (ii)
    snic, ah = curves2
    path = EllipsePath.centered(0.15, 5.85, 50.0, 0.0, 0.004)
    stages = segment_stages(run_driven(reduced, path, snic, ah))
    assert stages.duration("iii") + stages.duration("iv") < stages.duration("ii")


def test_spike_count_stable_under_tolerance_halving(reduced, curves2,
                                                    fig4_d1_path,
                                                    fig4_d1_trace):
    snic, ah = curves2
    finer = run_driven(reduced, fig4_d1_path, snic, ah,
                       rel_tol=5e-9, abs_tol=5e-9)
    assert len(finer.spikes) == len(fig4_d1_trace.spikes)


def test_loose_tolerance_runs_finish_db(reduced, full, curves2, curves5,
                                       fig4_d1_path):
    # math's cosh overflows in trial stages of attempts that are then
    # rejected; the step shrinks and the run goes on
    runs = [run_driven(reduced, fig4_d1_path, *curves2,
                       rel_tol=1e-3, abs_tol=1e-3),
            run_autonomous(full, *curves5, rel_tol=1e-3, abs_tol=1e-3)]
    for trace in runs:
        assert trace.sequence_str() == "SNIC+,AH+,AH-,SNIC-"


def test_min_oscillation_amplitude_monotone_segment(fig4_d1_trace):
    stages = segment_stages(fig4_d1_trace)
    amp = min_oscillation_amplitude(fig4_d1_trace, *stages.i)
    # silence has no oscillation to speak of next to the DB phase
    db = min_oscillation_amplitude(fig4_d1_trace, stages.iii[0], stages.v[0])
    assert amp == pytest.approx(0.0, abs=2.0) or amp < db


@pytest.fixture(scope="module")
def fig3_d2_trace(full, curves5):
    return run_driven(full, PRESETS["fig3"].paths[1], *curves5)


@pytest.mark.parametrize("name", ["fig4_d1_trace", "fig3_d2_trace"])
def test_driven_slow_columns_follow_the_path(name, request):
    # the integration stops at the window end, the slow pair is the path's
    # closed form at the knots, the ellipse invariant holds to rounding, and
    # the dense output of the slow columns meets the path at every crossing
    trace = request.getfixturevalue(name)
    path, traj = trace.path, trace.trajectory
    assert traj.t1 == trace.t_end
    exact = np.column_stack(path.point(traj.ts))
    np.testing.assert_allclose(traj.ys[:, -2:], exact, rtol=0.0, atol=1e-14)
    q = path.conserved((traj.ys[:, -2], traj.ys[:, -1]))
    assert np.abs(q - q[0]).max() / q[0] <= 1e-12
    assert len(trace.events) == 4
    for e in trace.events:
        gap = np.hypot(*(traj.sample(e.t)[-2:] - np.array(path.point(e.t))))
        assert gap <= 1e-10 * path.delta
        assert e.y == tuple(traj.sample(e.t))


@pytest.fixture(scope="module")
def off_centre_trace(reduced, curves2):
    # fig5's eps = 0.006 path with its start moved off the centre line,
    # na0 != na_c, so every term of the closed form counts
    path = dataclasses.replace(PRESETS["fig5"].paths[1], na0=6.35)
    return run_driven(reduced, path, *curves2)


@pytest.mark.parametrize("name,cls,params,curves", [
    ("fig4_d1_trace", ReducedFast, REDUCED4D, "curves2"),
    ("fig3_d2_trace", FullFast, FULL7D, "curves5"),
    ("off_centre_trace", ReducedFast, REDUCED4D, "curves2")])
def test_fused_step_is_the_generic_step(name, cls, params, curves, request):
    # run_driven runs path_rhs's fused loop; the same run with the rhs
    # wrapped in a lambda, which carries no loop, takes integrate's generic
    # loop and must give the same bits, on both models and on a path whose
    # start is off its centre line
    trace = request.getfixturevalue(name)
    fast = cls(params)
    path_rhs = fast.path_rhs
    assert callable(path_rhs(trace.path).solve)
    fast.path_rhs = lambda path: (lambda t, y, rhs=path_rhs(path): rhs(t, y))
    generic = run_driven(fast, trace.path, *request.getfixturevalue(curves))
    for attr in ("ts", "ys", "_dense"):
        assert np.array_equal(getattr(generic.trajectory, attr),
                              getattr(trace.trajectory, attr)), attr
    assert generic.trajectory.stats == trace.trajectory.stats
    assert generic.spikes == trace.spikes


_DRIVEN_PATHS = [(name, i) for name in ("fig3", "fig4", "fig5", "fig7")
                 for i in range(len(PRESETS[name].paths))]


@pytest.mark.parametrize("name,i", _DRIVEN_PATHS)
def test_path_crossings_match_integrated_events(name, i, request):
    # independent check: the crossings found on the closed-form path against
    # detect_events on the full driven state, whose slow pair is integrated
    # through the rotation field
    full = PRESETS[name].model == "driven7d"
    fast = request.getfixturevalue("full" if full else "reduced")
    snic, ah = request.getfixturevalue("curves5" if full else "curves2")
    path = PRESETS[name].paths[i]
    crossings = path_crossings(path, snic, ah, 2.0 * path.period)
    t_end = next(t for t, index, direction in crossings
                 if index == 0 and direction > 0) + path.period
    fns, labels = crossing_events(snic, ah)
    _, events = detect_events(fast.driven_rhs(path),
                              fast.slaved(-60.0) + (path.ca0, path.na0),
                              (0.0, t_end), fns, labels=labels)
    got = [c for c in crossings if c[0] < t_end - 1e-6]
    want = [e for e in events if e.t < t_end - 1e-6]
    assert [(index, direction) for _, index, direction in got] == \
        [(e.index, e.direction) for e in want]
    for (t, _, _), e in zip(got, want):
        assert t == pytest.approx(e.t, rel=1e-9)


def test_late_snic_crossing_takes_one_integration(reduced, curves2,
                                                  fig4_d1_path, fig4_d1_trace):
    # started just past its upward SNIC crossing, the path meets the next
    # one almost a period later; the window still holds one DB cycle and the
    # integration stops at its end
    p = fig4_d1_path
    ca0, na0 = p.point(fig4_d1_trace.t_start + 5.0)
    late = EllipsePath(ca_c=p.ca_c, na_c=p.na_c, d=p.d, ca0=ca0, na0=na0,
                       eps=p.eps)
    trace = run_driven(reduced, late, *curves2)
    assert trace.t_start > 0.6 * late.period
    assert trace.sequence_str() == "SNIC+,AH+,AH-,SNIC-"
    segment_stages(trace)
    assert trace.trajectory.t1 == trace.t_end
    assert not trace.start_fallback


def test_start_fallback_is_flagged(reduced, curves2, fig4_d1_trace, caplog):
    # the path of test_classification_error_left_of_snic never crosses SNIC
    path = EllipsePath.centered(-0.05, 5.5, 2.0, -0.08, 0.01)
    with caplog.at_level(logging.DEBUG, logger="burstlab.features"):
        trace = run_driven(reduced, path, *curves2)
    assert trace.start_fallback
    assert trace.t_start == 0.0
    assert "no upward SNIC crossing" in caplog.text
    assert not fig4_d1_trace.start_fallback


def test_spike_peaks_and_v_floor_match_a_tight_dop853_run(fig4_d1_trace):
    # independent oracle: scipy's DOP853 at 1e-12 on the oracle rhs along the
    # path's closed form, from the trace's first knot, with v' = 0 as event
    trace = fig4_d1_trace
    traj, path = trace.trajectory, trace.path

    def rhs(t, y):
        return rhs_fast4(y, path.point(t), REDUCED4D)

    def dv(t, y):
        return rhs(t, y)[0]

    sol = solve_ivp(rhs, (traj.t0, traj.t1), traj.ys[0, :2], method="DOP853",
                    rtol=1e-12, atol=1e-12, events=dv, dense_output=True)
    t_ext, v_ext = sol.t_events[0], sol.y_events[0][:, 0]
    peaks = [(t, v) for t, v in zip(t_ext, v_ext) if v > -20.0]
    assert trace.spikes
    for sp in trace.spikes:
        t, v = min(peaks, key=lambda p: abs(p[0] - sp.t))
        assert abs(sp.t - t) <= 1e-4
        assert abs(sp.v - v) <= 1e-4
    inside = (t_ext > trace.t_start) & (t_ext < trace.t_end)
    floor = min(v_ext[inside].min(),
                sol.sol(trace.t_start)[0], sol.sol(trace.t_end)[0])
    assert abs(burst_features(trace).v_floor - floor) <= 1e-9
