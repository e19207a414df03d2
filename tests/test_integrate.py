import io
import math

import numpy as np
import pytest

from oracles import rk4

from burstlab import EllipsePath, StepSizeError, detect_events, integrate


def test_exponential_decay():
    traj = integrate(lambda t, y: (-y[0],), (1.0,), (0.0, 1.0),
                     rel_tol=1e-9, abs_tol=1e-12)
    assert traj.ys[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-7)


def test_harmonic_oscillator_round_trip():
    traj = integrate(lambda t, y: (y[1], -y[0]), (1.0, 0.0),
                     (0.0, 2 * math.pi), rel_tol=1e-9, abs_tol=1e-12)
    assert np.abs(traj.ys[-1] - (1.0, 0.0)).max() < 1e-6


def test_dense_output_accuracy():
    traj = integrate(lambda t, y: (y[1], -y[0]), (1.0, 0.0),
                     (0.0, 2 * math.pi), rel_tol=1e-9, abs_tol=1e-12)
    ts = np.linspace(0.0, 2 * math.pi, 757)
    vals = traj.sample(ts)
    assert np.abs(vals[:, 0] - np.cos(ts)).max() < 1e-7


def test_sample_outside_span_raises():
    traj = integrate(lambda t, y: (-y[0],), (1.0,), (0.0, 1.0))
    with pytest.raises(ValueError):
        traj.sample(2.0)


def test_ellipse_conservation_drift():
    path = EllipsePath.centered(0.15, 5.85, 1.0, 0.0, 0.004)
    traj = integrate(lambda t, y: path.rhs(y), (path.ca0, path.na0),
                     (0.0, path.period), rel_tol=1e-9, abs_tol=1e-9)
    q0 = path.conserved((path.ca0, path.na0))
    qs = np.array([path.conserved(y) for y in traj.ys])
    assert np.abs(qs - q0).max() / q0 < 1e-6


def test_linear_event():
    traj, events = detect_events(lambda t, y: (1.0,), (-1.0,), (0.0, 3.0),
                                 [lambda t, y: y[0]])
    assert len(events) == 1
    assert events[0].t == pytest.approx(1.0, abs=1e-9)
    assert events[0].direction == 1


def test_harmonic_event_first_downward_crossing():
    traj, events = detect_events(lambda t, y: (y[1], -y[0]), (1.0, 0.0),
                                 (0.0, 4.0), [lambda t, y: y[0]],
                                 rel_tol=1e-10, abs_tol=1e-12)
    down = [e for e in events if e.direction < 0]
    assert down and down[0].t == pytest.approx(math.pi / 2, abs=1e-8)


def test_multiple_event_functions_and_labels():
    traj, events = detect_events(
        lambda t, y: (1.0,), (-1.0,), (0.0, 3.0),
        [lambda t, y: y[0], lambda t, y: y[0] - 1.0],
        labels=["zero", "one"])
    assert [e.label for e in events] == ["zero", "one"]
    assert events[1].t == pytest.approx(2.0, abs=1e-9)
    assert events[1].index == 1


def test_step_size_underflow_diagnostic():
    # finite-time blow-up y' = y^2 from y(0) = 1 explodes at t = 1
    def rhs(t, y):
        return (y[0] * y[0],)
    with pytest.raises((StepSizeError, OverflowError)) as err:
        integrate(rhs, (1.0,), (0.0, 2.0), rel_tol=1e-8, abs_tol=1e-8)
    if isinstance(err.value, StepSizeError):
        assert 0.9 < err.value.t_last <= 1.05


def test_tolerance_validation():
    with pytest.raises(ValueError):
        integrate(lambda t, y: (0.0,), (1.0,), (0.0, 1.0), rel_tol=0.5)
    with pytest.raises(ValueError):
        integrate(lambda t, y: (0.0,), (1.0,), (1.0, 1.0))


def test_rk4_oracle_on_harmonic():
    ts, ys = rk4(lambda t, y: (y[1], -y[0]), (1.0, 0.0), (0.0, 2 * math.pi),
                 1e-3)
    assert np.abs(ys[-1] - (1.0, 0.0)).max() < 1e-10


def test_rk4_agrees_with_adaptive_on_fast_subsystem(reduced):
    # 500 ms run of the reduced fast subsystem at a depolarization-block
    # point (right of AH): the trajectory is a decaying oscillation
    slow = (0.45, 5.85)
    rhs = reduced.frozen_rhs(slow)
    y0 = reduced.slaved(-30.0)
    traj = integrate(rhs, y0, (0.0, 500.0), rel_tol=1e-10, abs_tol=1e-10)
    ts, ys = rk4(rhs, y0, (0.0, 500.0), 1e-3)
    sel = np.arange(0, len(ts), 1000)   # compare every 1 ms
    dense = traj.sample(ts[sel])
    assert np.abs(dense[:, 0] - ys[sel, 0]).max() < 1e-4


def test_max_step_honored():
    traj = integrate(lambda t, y: (0.0,), (1.0,), (0.0, 10.0), max_step=1.0)
    assert np.diff(traj.ts).max() <= 1.0 + 1e-12


def test_csv_export_format_and_determinism(tmp_path):
    traj = integrate(lambda t, y: (-y[0], -2.0 * y[1]), (1.0, 2.0),
                     (0.0, 1.0))
    buf1, buf2 = io.StringIO(), io.StringIO()
    traj.write_csv(buf1, columns=["a", "b"])
    traj.write_csv(buf2, columns=["a", "b"])
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().splitlines()
    assert lines[0] == "t,a,b"
    assert lines[1].startswith("0,1,2")
    # 17 significant digits round-trip
    t_back = float(lines[-1].split(",")[0])
    assert t_back == traj.ts[-1]


def test_event_times_tolerance_convergence(reduced, curves2, fig4_d1_path):
    # halving rel_tol moves driven-run event times by less than
    # 10 x the smaller tolerance, relatively
    from burstlab.features import crossing_events
    snic, ah = curves2
    fns, labels = crossing_events(snic, ah)
    path = fig4_d1_path
    rhs = reduced.driven_rhs(path)
    y0 = reduced.slaved(-60.0) + (path.ca0, path.na0)
    _, ev_a = detect_events(rhs, y0, (0.0, path.period), fns,
                            rel_tol=1e-8, abs_tol=1e-8, labels=labels)
    _, ev_b = detect_events(rhs, y0, (0.0, path.period), fns,
                            rel_tol=5e-9, abs_tol=5e-9, labels=labels)
    assert len(ev_a) == len(ev_b)
    for a, b in zip(ev_a, ev_b):
        assert (a.label, a.direction) == (b.label, b.direction)
        assert abs(a.t - b.t) / max(a.t, 1.0) < 10 * 5e-9
