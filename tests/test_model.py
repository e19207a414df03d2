import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (currents, fd_jacobian, gate_tau_dv, jac_fast4,
                     oracle_jacobian, reduced_fast_state, rhs_fast4,
                     rhs_fast7, rhs_slow7)

import burstlab
from burstlab import FULL7D, REDUCED4D, EllipsePath, InvalidParameterError
from burstlab.bifurcation import DEFAULT_CA_WINDOW, DEFAULT_NA_RANGE
from burstlab.integrate import integrate
from burstlab.model import (FullFast, can_activation, can_calcium, gate_inf,
                            gate_tau, phi, s_slaved)


def test_gate_inf_midpoint():
    assert gate_inf(-30.0, -30.0, -5.0) == pytest.approx(0.5)
    assert gate_inf(-30.0, -30.0, 5.0) == pytest.approx(0.5)


def test_gate_inf_scalar_value():
    # logistic one slope-unit above the half-activation
    assert gate_inf(-25.0, -30.0, -5.0) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)),
                                                         abs=1e-12)
    assert gate_inf(-25.0, -30.0, -5.0) == pytest.approx(0.731059, abs=1e-6)


def test_gate_inf_rejects_zero_slope():
    with pytest.raises(InvalidParameterError):
        gate_inf(-30.0, -30.0, 0.0)
    with pytest.raises(InvalidParameterError):
        gate_tau(-30.0, 30.0, -30.0, 0.0)


@given(st.floats(-90, 30), st.floats(-60, 20),
       st.floats(0.5, 12) | st.floats(-12, -0.5))
def test_gate_inf_in_unit_interval(v, theta, sigma):
    x = gate_inf(v, theta, sigma)
    assert 0.0 <= x <= 1.0
    if abs((v - theta) / sigma) < 30:   # strict until float saturation
        assert 0.0 < x < 1.0


@given(st.floats(-80, 10), st.floats(0.5, 10))
def test_gate_inf_monotone_direction(v, dv):
    # increasing for negative slope, decreasing for positive slope
    assert gate_inf(v + dv, -30.0, -5.0) > gate_inf(v, -30.0, -5.0)
    assert gate_inf(v + dv, -30.0, 5.0) < gate_inf(v, -30.0, 5.0)


def test_gate_tau_peak_and_value():
    assert gate_tau(-30.0, 30.0, -30.0, -5.0) == pytest.approx(30.0)
    # direct scalar evaluation: 30 / cosh(-1) = 19.4416...
    assert gate_tau(-20.0, 30.0, -30.0, -5.0) == pytest.approx(30.0 / math.cosh(-1.0),
                                                               abs=1e-10)
    assert gate_tau(-20.0, 30.0, -30.0, -5.0) == pytest.approx(19.44, abs=5e-3)


@given(st.floats(0.1, 30))
def test_gate_tau_even_about_theta(a):
    assert gate_tau(-30.0 + a, 30.0, -30.0, -5.0) == pytest.approx(
        gate_tau(-30.0 - a, 30.0, -30.0, -5.0), rel=1e-12)


def test_currents_zero_driving_force():
    p = FULL7D
    state = (p.e_l, 0.3, 0.2, 0.5, 0.1)
    cur = currents(state, (0.5, 5.0), p)
    assert cur.i_l == 0.0


def test_pump_zero_at_baseline():
    p = FULL7D
    cur = currents((-50.0, 0.1, 0.1, 0.5, 0.0), (0.5, p.na_b), p)
    assert cur.i_pump == pytest.approx(0.0, abs=1e-12)


def test_phi_half_saturation():
    assert phi(10.0, 10.0) == pytest.approx(0.5)


def test_relaxation_fixed_points():
    p = FULL7D
    v = -42.0
    state = (v,
             gate_inf(v, p.theta_n, p.sigma_n),
             gate_inf(v, p.theta_m, p.sigma_m),
             gate_inf(v, p.theta_h, p.sigma_h),
             s_slaved(v, p))
    d = FullFast(p).rhs(state, (0.3, 5.2))
    assert d[1] == pytest.approx(0.0, abs=1e-15)
    assert d[2] == pytest.approx(0.0, abs=1e-15)
    assert d[3] == pytest.approx(0.0, abs=1e-15)
    assert d[4] == pytest.approx(0.0, abs=1e-15)


def test_slow_balance_points():
    p = FULL7D
    # Ca' = 0 at the algebraic balance for given s
    s = 0.2
    ca = p.ca_b + p.k_ip3 * s / p.k_ca
    rhs = FullFast(p).autonomous_rhs()
    dca = rhs(0.0, (-50.0, 0.1, 0.1, 0.5, s, ca, 5.4))[5]
    assert dca == pytest.approx(0.0, abs=1e-12)
    # both Ca' terms vanish at s = 0, Ca = Ca_b
    dca0 = rhs(0.0, (-50.0, 0.1, 0.1, 0.5, 0.0, p.ca_b, 5.4))[5]
    assert dca0 == 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(-80, 20), st.floats(0, 1), st.floats(-0.2, 1.6),
       st.floats(4.5, 6.5))
def test_substitution_identity(v, n, ca, na):
    # v' of the reduced system equals v' of the five-variable system
    # evaluated at the slaved substitutions
    p = REDUCED4D
    lifted = reduced_fast_state(v, n, p)
    dv7 = rhs_fast7(lifted, (ca, na), p)[0]
    dv4 = rhs_fast4((v, n), (ca, na), p)[0]
    assert dv4 == pytest.approx(dv7, rel=1e-14, abs=1e-14)
    # and the n equations are identical in form
    assert rhs_fast4((v, n), (ca, na), p)[1] == pytest.approx(
        rhs_fast7(lifted, (ca, na), p)[1], rel=1e-14, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.floats(-75, 15), st.floats(0.01, 0.99), st.floats(-0.1, 1.5),
       st.floats(4.6, 6.4))
def test_analytic_jacobian_matches_fd(v, n, ca, na):
    p = REDUCED4D
    jac = np.array(jac_fast4((v, n), (ca, na), p))
    fd = np.array(fd_jacobian(lambda y: rhs_fast4(y, (ca, na), p), (v, n),
                              step=1e-6))
    assert np.allclose(jac, fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("theta,sigma", [(-30.0, -5.0), (-36.0, -8.5),
                                         (-30.0, 5.0), (15.0, -3.0)])
def test_gate_derivatives_match_fd(theta, sigma):
    # centered differences at step 1e-5 agree with the analytic form
    h = 1e-5
    for v in np.linspace(-80, 20, 23):
        d_tau = (gate_tau(v + h, 30.0, theta, sigma)
                 - gate_tau(v - h, 30.0, theta, sigma)) / (2 * h)
        assert d_tau == pytest.approx(gate_tau_dv(v, 30.0, theta, sigma),
                                      rel=1e-6, abs=1e-9)


def _sample_states(fast, seed, n=200):
    # slow points over the tracing window, v over the physiological range,
    # gates anywhere in the unit box
    rng = np.random.default_rng(seed)
    ca = rng.uniform(*DEFAULT_CA_WINDOW, size=n)
    na = rng.uniform(*DEFAULT_NA_RANGE, size=n)
    v = rng.uniform(-80.0, 20.0, size=n)
    gates = rng.uniform(0.0, 1.0, size=(n, fast.dim - 1))
    return [((float(v[i]), *map(float, gates[i])), (float(ca[i]), float(na[i])))
            for i in range(n)]


@pytest.mark.parametrize("model", ["reduced", "full"])
def test_jacobian_matches_oracle(model, request):
    # the complex-step Jacobian against the hand-derived one (reduced) and
    # against a centred difference of the six-current reference (full),
    # whose own error is about 2e-10 of max|J| on these states
    fast = request.getfixturevalue(model)
    for y, slow in _sample_states(fast, 13):
        jac = np.array(fast.jacobian(y, slow))
        ref = np.array(oracle_jacobian(fast, y, slow))
        if fast.dim == 2:
            np.testing.assert_allclose(jac, ref, rtol=1e-12)
        else:
            assert np.abs(jac - ref).max() <= 1e-8 * np.abs(ref).max(), (y, slow)


def _assert_close(got, ref):
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("model", ["reduced", "full"])
def test_every_rhs_form_matches_oracle(model, request):
    # each form derived from the model's core against the six-current
    # reference of tests/oracles.py
    fast = request.getfixturevalue(model)
    p = fast.params
    path = EllipsePath.centered(0.3, 5.6, 1.5, 0.1, 0.006)
    driven, auto = fast.driven_rhs(path), fast.autonomous_rhs()
    for y, slow in _sample_states(fast, 11):
        if fast.dim == 2:
            ref = rhs_fast4(y, slow, p)
            lifted = reduced_fast_state(y[0], y[1], p)
            g_ref = rhs_fast4((y[0], gate_inf(y[0], p.theta_n, p.sigma_n)),
                              slow, p)[0]
        else:
            ref = rhs_fast7(y, slow, p)
            lifted = y
            g_ref = rhs_fast7(fast.slaved(y[0]), slow, p)[0]
        _assert_close(fast.rhs(y, slow), ref)
        _assert_close(fast.frozen_rhs(slow)(0.0, y), ref)
        drv = driven(0.0, y + slow)
        _assert_close(drv[:fast.dim], ref)
        _assert_close(drv[fast.dim:], path.rhs(slow))
        aut = auto(0.0, y + slow)
        _assert_close(aut[:fast.dim], ref)
        _assert_close(aut[fast.dim:], rhs_slow7(lifted, slow, p))
        _assert_close(fast.g_array(np.array([y[0]]), slow), [g_ref])


@pytest.mark.parametrize("model", ["reduced", "full"])
def test_can_branch_points_are_equilibria(model, request):
    # at Ca = can_calcium(a(v)) the gate-slaved state at v is an equilibrium
    # of the six-current reference
    fast = request.getfixturevalue(model)
    p = fast.params
    vs = np.linspace(-110.0, 30.0, 1401)
    checked = 0
    for na in (4.8, 5.6, 6.4):
        a = fast.can_branch(vs, na)
        for v, a_v in zip(vs, a):
            if not 1e-6 < a_v / p.g_can < 1.0 - 1e-6:
                continue
            slow = (float(can_calcium(a_v, p)), na)
            if fast.dim == 2:
                g = rhs_fast4((v, gate_inf(v, p.theta_n, p.sigma_n)), slow, p)[0]
            else:
                g = rhs_fast7(fast.slaved(v), slow, p)[0]
            assert abs(g) < 1e-9, (v, na, g)
            checked += 1
    assert checked > 20


@pytest.mark.parametrize("model", ["reduced", "full"])
def test_model_pickle_round_trip(model, request):
    fast = request.getfixturevalue(model)
    copy = pickle.loads(pickle.dumps(fast))
    assert type(copy) is type(fast) and copy.params == fast.params
    for y, slow in _sample_states(fast, 12, n=20):
        assert copy.rhs(y, slow) == fast.rhs(y, slow)


def test_exports_resolve():
    missing = [name for name in burstlab.__all__ if not hasattr(burstlab, name)]
    assert not missing


def _gates_stay_in_box(fast, rng, t_end, n_states):
    lo, hi = -1e-6, 1.0 + 1e-6
    for _ in range(n_states):
        v = rng.uniform(-80, 20)
        gates = rng.uniform(0, 1, size=fast.dim - 1)
        slow = (rng.uniform(-0.2, 1.6), rng.uniform(4.5, 6.5))
        rhs = fast.frozen_rhs(slow)
        traj = integrate(rhs, (v, *gates), (0.0, t_end),
                         rel_tol=1e-6, abs_tol=1e-8)
        g = traj.ys[:, 1:]
        assert g.min() >= lo and g.max() <= hi


def test_gate_box_forward_invariance_sample(reduced, full):
    rng = np.random.default_rng(7)
    _gates_stay_in_box(reduced, rng, 200.0, 25)
    _gates_stay_in_box(full, rng, 200.0, 25)


@pytest.mark.slow
def test_gate_box_forward_invariance_full_scale(reduced, full):
    # full-scale sweep: 1e4 random states, 500 ms each
    rng = np.random.default_rng(7)
    _gates_stay_in_box(reduced, rng, 500.0, 5000)
    _gates_stay_in_box(full, rng, 500.0, 5000)


def test_can_activation_switch():
    p = REDUCED4D
    assert can_activation(p.k_can, p) == pytest.approx(0.5)
    assert can_activation(p.k_can + 0.5, p) > 0.999
    assert can_activation(p.k_can - 0.5, p) < 0.001
