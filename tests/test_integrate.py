import io
import math

import numpy as np
import pytest

from oracles import dopri_step, rk4

import burstlab
from burstlab import EllipsePath, StepSizeError, detect_events
import burstlab.integrate as integrate_module
from burstlab.integrate import (LANES, MAX_STEPS, SolverStats, Trajectory,
                                _dense_coefficients, _dopri_step, _solver,
                                initial_step, integrate, lane_crossings,
                                step_lanes)


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


def test_event_on_a_knot_is_reported_once():
    # a root exactly at an accepted step: g reaches 0 at the end of one step
    # and leaves 0 at the start of the next, and only the first counts
    span, tols = (0.0, 20.0), dict(rel_tol=1e-6, abs_tol=1e-8)
    traj = integrate(_van_der_pol, (2.0, 0.0), span, **tols)
    k = len(traj.ts) // 2
    t_k = traj.ts[k]
    again, events = detect_events(_van_der_pol, (2.0, 0.0), span,
                                  [lambda t, y: t - t_k], **tols)
    assert np.array_equal(again.ts, traj.ts)
    assert [(e.t, e.direction) for e in events] == [(t_k, 1)]


def test_event_states_lie_on_the_dense_output():
    traj, events = detect_events(_van_der_pol, (2.0, 0.0), (0.0, 30.0),
                                 [lambda t, y: y[0], lambda t, y: y[1] - 0.5],
                                 rel_tol=1e-6, abs_tol=1e-8)
    assert len(events) > 10
    for e in events:
        np.testing.assert_allclose(e.y, traj.sample(e.t), rtol=0, atol=1e-12)


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
    traj = integrate(lambda t, y: (0.0,), (1.0,), (0.0, 10.0))
    assert np.diff(traj.ts).max() <= 1.0 + 1e-12


def test_csv_export_format_and_determinism(fig4_d1_trace):
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
    # a 4-column driven trace renders as each value formatted on its own
    driven = fig4_d1_trace.trajectory
    buf = io.StringIO()
    driven.write_csv(buf, columns=["v", "n", "Ca", "Na"])
    want = ["t,v,n,Ca,Na\n"]
    for t, row in zip(driven.ts, driven.ys):
        want.append(f"{t:.17g}," + ",".join(f"{val:.17g}" for val in row)
                    + "\n")
    assert buf.getvalue() == "".join(want)


def test_stats_count_the_solver_work(reduced, fig4_d1_path, fig4_d1_trace):
    calls = [0]
    rhs = reduced.path_rhs(fig4_d1_path)

    def counted(t, y):
        calls[0] += 1
        return rhs(t, y)

    traj = integrate(counted, reduced.slaved(-60.0), (0.0, 400.0))
    steps, rejected, rhs_evals = traj.stats
    assert steps == len(traj.ts) - 1
    assert rejected > 0
    assert rhs_evals == calls[0]
    calls[0] = 0
    traj, _ = detect_events(counted, reduced.slaved(-60.0), (0.0, 100.0),
                            [lambda t, y: y[0] + 50.0])
    assert traj.stats.steps == len(traj.ts) - 1
    assert traj.stats.rhs_evals == calls[0]
    # a driven trace keeps the stats of its fast solve
    driven = fig4_d1_trace.trajectory
    assert driven.dim == 4
    assert driven.stats.steps == len(driven.ts) - 1
    assert driven.stats.rhs_evals == 2 + 6 * (driven.stats.steps
                                              + driven.stats.rejected)


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


def test_package_attribute_is_the_module():
    import burstlab.integrate as m
    assert m.Trajectory is burstlab.Trajectory


def _step_cases(reduced, full):
    # each h makes err far above 1 (a step the controller would reject):
    # smaller steps leave err to cancellation among the stage derivatives,
    # where either side's rounding shows above 1e-12 of it
    rng = np.random.default_rng(13)
    p2 = EllipsePath.centered(0.15, 5.85, 1.0, 0.0, 0.004)
    p5 = EllipsePath.centered(0.7, 5.35, 2.0, 0.0, 0.009)
    forced2, forced5 = reduced.path_rhs(p2), full.path_rhs(p5)
    cases = [
        ("frozen 2D", reduced.frozen_rhs((0.2, 5.3)), (-30.0, 0.3), 0.1),
        # a lambda carries no fused step: path_rhs by the generic step
        ("path_rhs 2D", lambda t, y: forced2(t, y), (-50.0, 0.1), 2.0),
        ("path_rhs 5D", lambda t, y: forced5(t, y), full.slaved(-40.0), 0.5),
        # the driven kernels take one step of their loop, which clips h to
        # MAX_STEP
        ("driven kernel 2D", forced2, (-50.0, 0.1), 1.0),
        ("driven kernel 5D", forced5, full.slaved(-40.0), 0.5),
        ("autonomous 4D", reduced.autonomous_rhs(),
         reduced.slaved(-40.0) + (0.1, 5.0), 0.5),
        ("autonomous 7D", full.autonomous_rhs(),
         full.slaved(-40.0) + (0.7, 5.35), 0.5),
    ]
    for dim in (1, 3, 6):
        m = rng.normal(size=(dim, dim))
        cases.append((f"linear {dim}D", lambda t, y, m=m: tuple(m @ y),
                      tuple(rng.normal(size=dim)), 0.5))
    return cases


def _one_solve_step(rhs, t, y, f, h):
    # the first step of rhs.solve over [t, t + h], accepted whatever its
    # error under tolerances too loose to reject it: (y_new, k_step)
    ts, ys, ks, _ = rhs.solve(rhs, t, t + h, y, f, h, 0.0, MAX_STEPS,
                              1e300, 1e300)
    assert ts == [t, t + h]
    return ys[len(y):], np.reshape(ks, (7, len(y)))


def test_generated_step_matches_reference_tableau(reduced, full):
    # one unrolled step per dimension 1-7, and one step of the driven
    # kernels' loops, against the numpy step built on scipy's RK45 tableau:
    # checks the transcription and the generators. The driven loops give no
    # err; their error norm is the generic step's source, and
    # test_fused_step_is_the_generic_step (test_features.py) checks every
    # accept decision of theirs against the generic loop
    dims = set()
    for name, rhs, y, h in _step_cases(reduced, full):
        t, y = 120.0, tuple(float(v) for v in y)
        f = tuple(rhs(t, y))
        y_ref, k_ref, err_ref = dopri_step(rhs, t, y, f, h, 1e-6, 1e-8)
        if hasattr(rhs, "solve"):
            y_new, k_step = _one_solve_step(rhs, t, y, f, h)
        else:
            y_new, k_step, err = _dopri_step(len(y))(rhs, t, y, f, h, 1e-6,
                                                     1e-8)
            assert err == pytest.approx(err_ref, rel=1e-12, abs=0), name
        np.testing.assert_allclose(y_new, y_ref, rtol=1e-13, atol=0, err_msg=name)
        np.testing.assert_allclose(np.array(k_step), k_ref, rtol=1e-13,
                                   atol=0, err_msg=name)
        dims.add(len(y))
    assert dims == set(range(1, 8))


def _stepwise(rhs, y0, t_span, rel_tol=1e-8, abs_tol=1e-8):
    # integrate's accept/reject control written out by hand around one
    # _dopri_step call per attempt: the reference for the generated loop
    m = integrate_module
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = tuple(float(v) for v in y0)
    f = tuple(rhs(t0, y))
    h = initial_step(rhs, t0, y, f, rel_tol, abs_tol)
    h_min = 1e-14 * max(abs(t0), abs(t1), t1 - t0)
    step = _dopri_step(len(y))
    ts, ys, ks = [t0], [y], []
    t, rejected = t0, 0
    while t < t1:
        h = min(h, m.MAX_STEP, t1 - t)
        if h < h_min:
            raise StepSizeError(f"step size underflow at t = {t:.6g} ms", t)
        while True:
            y_new, k_step, err = step(rhs, t, y, f, h, rel_tol, abs_tol)
            if err <= 1.0:
                break
            rejected += 1
            h *= max(m._MIN_FACTOR, m._SAFETY * err ** -0.2)
            if h < h_min:
                raise StepSizeError(
                    f"step size underflow at t = {t:.6g} ms", t)
        factor = m._MAX_FACTOR if err == 0.0 else min(
            m._MAX_FACTOR, m._SAFETY * err ** -0.2)
        t += h
        y, f = y_new, k_step[6]
        ts.append(t)
        ys.append(y)
        ks.append(k_step)
        h *= factor
        if len(ts) > m.MAX_STEPS:
            raise StepSizeError(
                f"step budget ({m.MAX_STEPS}) exceeded at t = {t:.6g} ms; "
                "the problem is far stiffer than this engine expects", t)
    n = len(ks)
    return Trajectory(np.array(ts), np.array(ys), _dense_coefficients(
        np.array(ks)), rel_tol, abs_tol,
        SolverStats(n, rejected, 2 + 6 * (n + rejected)))


def _nan_after(t, y):
    # van der Pol, not a number from t = 3 on
    return (math.nan, math.nan) if t >= 3.0 else _van_der_pol(t, y)


def test_generated_loop_is_the_stepwise_control(reduced, curves2,
                                                monkeypatch):
    snic, ah = curves2
    between = (0.5 * (snic.ca_at(5.2) + ah.ca_at(5.2)), 5.2)
    period_tols = dict(rel_tol=1e-6, abs_tol=1e-8)     # orbit_period's
    cases = [
        (_van_der_pol, (2.0, 0.0), (0.0, 30.0), {}),
        (reduced.frozen_rhs(between), reduced.slaved(-20.0), (0.0, 500.0),
         period_tols),
        (reduced.autonomous_rhs(), reduced.slaved(-40.0) + (0.1, 5.0),
         (0.0, 300.0), {}),
    ]
    for rhs, y0, span, tols in cases:
        want = _stepwise(rhs, y0, span, **tols)
        got = integrate(rhs, y0, span, **tols)
        for attr in ("ts", "ys", "_dense"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
        assert got.stats == want.stats and want.stats.rejected > 0
    # the failures: a NaN err shrinks the step until it underflows, and an
    # exhausted budget stops the loop, with the same message and time
    for rhs, budget, what in ((_nan_after, MAX_STEPS, "underflow"),
                              (_van_der_pol, 50, "budget (50)")):
        monkeypatch.setattr(integrate_module, "MAX_STEPS", budget)
        with pytest.raises(StepSizeError) as want:
            _stepwise(rhs, (2.0, 0.0), (0.0, 30.0))
        with pytest.raises(StepSizeError) as got:
            integrate(rhs, (2.0, 0.0), (0.0, 30.0))
        assert what in str(want.value)
        assert str(got.value) == str(want.value)
        assert got.value.t_last == want.value.t_last


def test_integrate_takes_the_step_an_rhs_carries():
    # integrate runs rhs.solve where the rhs has one, and gets the generic
    # loop's trajectory when that loop is the generic one
    calls = []

    def solve(*args):
        calls.append(args[1])
        return _solver(2)(*args)

    def rhs(t, y):
        return _van_der_pol(t, y)

    plain = integrate(rhs, (2.0, 0.0), (0.0, 5.0))
    rhs.solve = solve
    carried = integrate(rhs, (2.0, 0.0), (0.0, 5.0))
    assert calls == [0.0]
    for attr in ("ts", "ys", "_dense"):
        assert np.array_equal(getattr(carried, attr), getattr(plain, attr))
    assert carried.stats == plain.stats


def _van_der_pol(t, y):
    # + and * only: floats and numpy arrays round it alike
    v, w = y
    return w, -v - 0.5 * w * (v * v - 1.0)


def test_lane_step_is_the_tuple_step():
    # one source, two namespaces: each lane does the tuple step's arithmetic
    starts = [(2.0, 0.0), (0.5, 0.1), (-1.0, 1.0)]
    hs = [0.3, 0.01, 1.0]
    y = tuple(np.array(c) for c in zip(*starts))
    lanes = _dopri_step(2, LANES)(_van_der_pol, np.zeros(3), y,
                                  _van_der_pol(0.0, y), np.array(hs),
                                  1e-6, 1e-8)
    for i, (y0, h) in enumerate(zip(starts, hs)):
        y_new, k_step, err = _dopri_step(2)(_van_der_pol, 0.0, y0,
                                            _van_der_pol(0.0, y0), h,
                                            1e-6, 1e-8)
        assert [float(c[i]) for c in lanes[0]] == list(y_new)
        assert [[float(c[i]) for c in k] for k in lanes[1]] == \
            [list(k) for k in k_step]
        assert float(lanes[2][i]) == err


def test_lanes_follow_the_tuple_engine():
    # every lane of step_lanes retraces integrate(): the same accepted steps
    # and the same end state but for rounding, since numpy's pow (in the
    # initial step and the step-size factor) is not CPython's
    starts = [(2.0, 0.0), (0.5, 0.1), (-1.0, 1.0), (0.0, -3.0)]
    t_end = np.full(len(starts), 20.0)
    y = tuple(np.array(c) for c in zip(*starts))
    t = np.zeros(len(starts))
    f = _van_der_pol(t, y)
    h = initial_step(_van_der_pol, t, y, f, 1e-6, 1e-8, LANES)
    steps = np.zeros(len(starts), dtype=int)
    with np.errstate(divide="ignore"):      # finished lanes step by 0
        while (t < t_end).any():
            h_used, y_new, k, acc, h, under = step_lanes(
                _van_der_pol, t, y, f, h, t_end, 1e-6, 1e-8)
            acc &= t < t_end
            assert not (under & (t < t_end)).any()
            steps += acc
            t = np.where(acc, t + h_used, t)
            y = tuple(np.where(acc, a, b) for a, b in zip(y_new, y))
            f = tuple(np.where(acc, a, b) for a, b in zip(k[6], f))
    for i, y0 in enumerate(starts):
        ref = integrate(_van_der_pol, y0, (0.0, 20.0), rel_tol=1e-6,
                        abs_tol=1e-8)
        assert steps[i] == len(ref.ts) - 1
        np.testing.assert_allclose([c[i] for c in y], ref.ys[-1], rtol=1e-12)


def test_lane_crossings_match_the_dense_interpolant():
    # upward crossings of v = 0 refined on lanes against Brent's method on
    # the tuple engine's interpolant
    traj = integrate(_van_der_pol, (2.0, 0.0), (0.0, 30.0), rel_tol=1e-6,
                     abs_tol=1e-8)
    _, events = detect_events(_van_der_pol, (2.0, 0.0), (0.0, 30.0),
                              [lambda t, y: y[0]], rel_tol=1e-6, abs_tol=1e-8)
    ups = [e.t for e in events if e.direction > 0]
    v = traj.ys[:, 0]
    rising = np.flatnonzero((v[:-1] < 0.0) & (v[1:] >= 0.0))
    assert len(rising) == len(ups) >= 3
    ts, h = traj.ts[rising], np.diff(traj.ts)[rising]
    # the stage derivatives of v in each rising step, stepped again
    step = _dopri_step(2)
    stages = np.array([[k[0] for k in step(
        _van_der_pol, ts[j], tuple(traj.ys[i]), _van_der_pol(0.0, traj.ys[i]),
        h[j], 1e-6, 1e-8)[1]] for j, i in enumerate(rising)]).T
    found = lane_crossings(ts, h, v[rising], stages, 0.0)
    np.testing.assert_allclose(found, ups, rtol=0, atol=1e-11)


@pytest.mark.parametrize("c,roots,kinds", [
    # v' = (x - 0.3)(x - 0.7): positive at both knots
    ((0.21, -0.5, 1.0 / 3.0, 0.0), (0.3, 0.7), (1, -1)),
    # v' = (x - 0.2)(x - 0.5)(x - 0.8): one sign change between the knots
    ((-0.08, 0.33, -0.5, 0.25), (0.2, 0.5, 0.8), (-1, 1, -1)),
])
def test_extrema_inside_one_step(c, roots, kinds):
    # a single 2 ms step from t = 5 whose v' is the given polynomial in the
    # step fraction x: every root of v' is an extremum, found at its time
    h = 2.0
    c = np.array(c)

    def v(x):
        return h * x * (c[0] + x * (c[1] + x * (c[2] + x * c[3])))

    traj = Trajectory(np.array([5.0, 5.0 + h]), np.array([[0.0], [v(1.0)]]),
                      c.reshape(1, 4, 1), 1e-8, 1e-8, SolverStats(1, 0, 8))
    t, vals, kind = traj.extrema(5.0, 5.0 + h)
    x = np.array(roots)
    np.testing.assert_allclose(t, 5.0 + h * x, rtol=0, atol=1e-14)
    np.testing.assert_allclose(vals, v(x), rtol=0, atol=1e-14)
    assert kind.tolist() == list(kinds)
    # a window cut inside the step keeps only the extrema inside it
    t, _, kind = traj.extrema(5.0 + h * 0.25, 5.0 + h * 0.75)
    assert t.tolist() == [tk for tk, xk in zip(5.0 + h * x, x)
                          if 0.25 <= xk <= 0.75]


def test_extrema_match_a_fine_sampling():
    # every extremum of v on a van der Pol trajectory against the turning
    # points of the dense output sampled every 1e-4 ms
    traj = integrate(_van_der_pol, (2.0, 0.0), (0.0, 30.0), rel_tol=1e-8,
                     abs_tol=1e-8)
    t, v, kind = traj.extrema(0.0, 30.0)
    ts = np.linspace(0.0, 30.0, 300_001)
    vs = traj.sample(ts)[:, 0]
    dv = np.diff(vs)
    turns = np.flatnonzero(dv[:-1] * dv[1:] < 0) + 1
    assert len(t) == len(turns) >= 4
    np.testing.assert_allclose(t, ts[turns], rtol=0, atol=1e-4)
    np.testing.assert_allclose(v, vs[turns], rtol=0, atol=1e-8)
    assert (kind == np.where(dv[turns] < 0, 1, -1)).all()
