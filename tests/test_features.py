import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstlab import EllipsePath
from burstlab.features import (ClassificationError, FeatureVector,
                               burst_features, crossing_events, detect_spikes,
                               feature_distance, min_oscillation_amplitude,
                               path_crossings, run_driven, segment_stages)
from burstlab.figures import PRESETS
from burstlab.integrate import detect_events


def test_detect_spikes_constant_below_threshold():
    t = np.linspace(0, 100, 1001)
    v = np.full_like(t, -50.0)
    assert detect_spikes(t, v) == []


def test_detect_spikes_sine():
    t = np.linspace(0, 6 * math.pi, 4000)
    v = 30.0 * np.sin(t)
    spikes = detect_spikes(t, v, threshold=0.0, refractory=1.0)
    assert len(spikes) == 3
    for i, sp in enumerate(spikes):
        assert sp.t == pytest.approx(math.pi / 2 + 2 * math.pi * i, abs=1e-3)
        assert sp.v == pytest.approx(30.0, abs=1e-4)


def test_detect_spikes_refractory_merge():
    # two humps 1 ms apart merge under a 2 ms refractory window
    t = np.linspace(0, 10, 5001)
    v = np.full_like(t, -60.0)
    v += 50 * np.exp(-((t - 4.0) / 0.2) ** 2)
    v += 55 * np.exp(-((t - 5.0) / 0.2) ** 2)
    merged = detect_spikes(t, v, threshold=-20.0, refractory=2.0)
    assert len(merged) == 1
    assert merged[0].v == pytest.approx(-5.0, abs=0.5)
    split = detect_spikes(t, v, threshold=-20.0, refractory=0.5)
    assert len(split) == 2


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
    exact = np.column_stack(path.point(traj.ts, np.cos, np.sin))
    np.testing.assert_allclose(traj.ys[:, -2:], exact, rtol=0.0, atol=1e-14)
    q = path.conserved((traj.ys[:, -2], traj.ys[:, -1]))
    assert np.abs(q - q[0]).max() / q[0] <= 1e-12
    assert len(trace.events) == 4
    for e in trace.events:
        gap = np.hypot(*(traj.sample(e.t)[-2:] - np.array(path.point(e.t))))
        assert gap <= 1e-10 * path.delta
        assert e.y == tuple(traj.sample(e.t))


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
