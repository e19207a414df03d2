import ast
import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (currents, fd_jacobian, gate_tau, gate_tau_dv,
                     jac_fast4, oracle_jacobian, reduced_fast_state,
                     rhs_fast4, rhs_fast7, rhs_slow7, slaved_state)

import burstlab
from burstlab import FULL7D, REDUCED4D, EllipsePath
from burstlab.bifurcation import DEFAULT_CA_WINDOW, DEFAULT_NA_RANGE
from burstlab.integrate import integrate, solve_source
from burstlab import model
from burstlab.model import FullFast, ReducedFast, can_calcium


def _sig_reference(x):
    # the guarded logistic 1/(1 + e^x), written out
    if x >= 0.0:
        if x > 700.0:
            return 0.0
        z = math.exp(-x)
        return z / (1.0 + z)
    if x < -700.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(x))


# the tuple form inlines every sig; here one nests in another and one
# repeats, so the walrus temporaries of one must not leak into another
_INLINE = model._compile(
    "def f(x):\n    return sig(x), sig(sig(x) - x) + sig(-x)\n", "tuple", "f")
_SIG_EDGES = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, math.inf, -math.inf,
              math.nan] + [e for x in (700.0, -700.0) for e in (
                  x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf))]


def _bits(x):
    return struct.pack("<d", x)


@settings(max_examples=400, deadline=None)
@given(st.floats() | st.sampled_from(_SIG_EDGES))
def test_inline_sigmoid_is_sig_bit_for_bit(x):
    assert "sig" not in _INLINE.__code__.co_names
    one, two = _INLINE(x)
    ref = _sig_reference
    assert _bits(one) == _bits(model._sig(x)) == _bits(ref(x))
    assert _bits(two) == _bits(ref(ref(x) - x) + ref(-x))


def test_complex_sigmoid_is_guarded_and_exact():
    # the complex form's inline sig is guarded on the real part, and its
    # complex step is the logistic's derivative -sig(x)(1 - sig(x))
    f = model._compile("def f(x):\n    return sig(x)\n", "complex", "f")
    assert "sig" not in f.__code__.co_names
    for x in (-745.0, -700.5, 700.5, 745.0):
        assert f(complex(x, 1e-30)) == _sig_reference(x)
    for x in np.linspace(-30.0, 30.0, 61):
        z, s = f(complex(x, 1e-30)), _sig_reference(x)
        assert z.real == pytest.approx(s, rel=1e-15)
        assert z.imag / 1e-30 == pytest.approx(-s * (1.0 - s), rel=1e-12)


# The gate functions stand inline in the compiled sources: the steady
# states are read off the slaved state, the time constant off the n
# equation of the balance. In FULL7D the n gate has theta -30, sigma -5 and
# t 30, the h gate theta -30 and sigma 5.
_FULL = FullFast(FULL7D)


def _n_tau(v):
    # the time constant of n at v: (n_inf - n)/n' at n = 0
    return _FULL.slaved(v)[1] / _FULL.rhs((v, 0.0, 0.0, 0.0, 0.0),
                                          (0.0, FULL7D.na_b))[1]


def test_gate_inf_midpoint():
    assert _FULL.slaved(-30.0)[1] == pytest.approx(0.5)
    assert _FULL.slaved(-30.0)[3] == pytest.approx(0.5)


def test_gate_inf_scalar_value():
    # logistic one slope-unit above the half-activation
    assert _FULL.slaved(-25.0)[1] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)),
                                                   abs=1e-12)
    assert _FULL.slaved(-25.0)[1] == pytest.approx(0.731059, abs=1e-6)


@settings(deadline=None)
@given(st.floats(-90, 30), st.floats(-60, 20),
       st.floats(0.5, 12) | st.floats(-12, -0.5))
def test_gate_inf_in_unit_interval(v, theta, sigma):
    x = FullFast(FULL7D.override(theta_n=theta, sigma_n=sigma)).slaved(v)[1]
    assert 0.0 <= x <= 1.0
    if abs((v - theta) / sigma) < 30:   # strict until float saturation
        assert 0.0 < x < 1.0


@given(st.floats(-80, 10), st.floats(0.5, 10))
def test_gate_inf_monotone_direction(v, dv):
    # increasing for negative slope (n), decreasing for positive slope (h)
    assert _FULL.slaved(v + dv)[1] > _FULL.slaved(v)[1]
    assert _FULL.slaved(v + dv)[3] < _FULL.slaved(v)[3]


def test_gate_tau_peak_and_value():
    assert _n_tau(-30.0) == pytest.approx(30.0)
    # direct scalar evaluation: 30 / cosh(-1) = 19.4416...
    assert _n_tau(-20.0) == pytest.approx(30.0 / math.cosh(-1.0), abs=1e-10)
    assert _n_tau(-20.0) == pytest.approx(19.44, abs=5e-3)


@given(st.floats(0.1, 30))
def test_gate_tau_even_about_theta(a):
    assert _n_tau(-30.0 + a) == pytest.approx(_n_tau(-30.0 - a), rel=1e-12)


@pytest.mark.parametrize("model", ["reduced", "full"])
def test_slaved_states_match_oracle(model, request):
    # the slaving source compiled for tuples against the oracle's gate
    # functions, and compiled for arrays against the tuples
    fast = request.getfixturevalue(model)
    vs = np.linspace(-110.0, 30.0, 14001)
    slaved = np.array([fast.slaved(float(v)) for v in vs])
    ref = np.array([slaved_state(float(v), fast.params, fast.dim) for v in vs])
    np.testing.assert_allclose(slaved, ref, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(np.column_stack(fast._slaved_array(vs)),
                               slaved, rtol=1e-15, atol=0.0)


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
    # i_pump = r_pump (phi(Na) - phi(Na_b)), with the saturation
    # phi(Na) = Na^3/(Na^3 + k_Na^3) one half at k_Na
    p = FULL7D
    phi_b = p.na_b ** 3 / (p.na_b ** 3 + p.k_na ** 3)
    i_pump = _FULL._slow_currents(0.0, p.k_na)[1]
    assert i_pump == pytest.approx(p.r_pump * (0.5 - phi_b))


def test_relaxation_fixed_points():
    p = FULL7D
    state = FullFast(p).slaved(-42.0)
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
    forced = fast.path_rhs(path)
    # path_rhs evaluates the forcing at every call: repeated times with
    # another state, a step back in time and a return would show a forcing
    # kept from an earlier call
    times = (0.0, 40.0, 40.0, 15.0, 15.0, 40.0, 900.0, 0.0)
    for i, (y, slow) in enumerate(_sample_states(fast, 11)):
        t = times[i % len(times)]
        if fast.dim == 2:
            forced_ref = rhs_fast4(y, path.point(t), p)
        else:
            forced_ref = rhs_fast7(y, path.point(t), p)
        _assert_close(forced(t, y), forced_ref)
        if fast.dim == 2:
            ref = rhs_fast4(y, slow, p)
            lifted = reduced_fast_state(y[0], y[1], p)
            g_ref = rhs_fast4(slaved_state(y[0], p, 2), slow, p)[0]
        else:
            ref = rhs_fast7(y, slow, p)
            lifted = y
            g_ref = rhs_fast7(slaved_state(y[0], p, 5), slow, p)[0]
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
def test_driven_kernel_evaluates_the_forcing_once_per_stage_time(model,
                                                                  request):
    # the driven loop inlines the path's closed-form source; a source that
    # calls a counting hook shows the fused step evaluates the path point
    # at the five distinct stage times of each attempt, stages 6 and 7
    # sharing t + h
    fast = request.getfixturevalue(model)
    times = []
    source = EllipsePath.closed_form_source.replace(
        "    def point(t):\n",
        "    count = path.count\n\n    def point(t):\n        count(t)\n")
    assert source != EllipsePath.closed_form_source

    class CountedPath(EllipsePath):
        closed_form_source = source
        count = staticmethod(times.append)

    counted, plain = (
        integrate(fast.path_rhs(cls.centered(0.3, 5.6, 1.5, 0.1, 0.006)),
                  fast.slaved(-60.0), (0.0, 200.0))
        for cls in (CountedPath, EllipsePath))
    # f at t0 and initial_step's trial step are rhs calls
    assert len(times) == 2 + 5 * (counted.stats.steps + counted.stats.rejected)
    assert np.array_equal(counted.ys, plain.ys)


def _calls(tree):
    # the names called inside the function solve of a syntax tree
    solve = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "solve")
    return {call.func.id if isinstance(call.func, ast.Name) else
            call.func.attr for call in ast.walk(solve)
            if isinstance(call, ast.Call)}


@pytest.mark.parametrize("model_cls", [ReducedFast, FullFast])
def test_driven_loop_calls_only_elementary_functions(model_cls):
    # the balance, the forcing, every sigmoid, the path and the step
    # control stand inline: a driven step calls no Python function, and
    # the generic loop calls only the rhs
    src = model._driven_source(model_cls._balance,
                               EllipsePath.closed_form_source)
    assert _calls(model._tree(src, "tuple")) == {
        "exp", "cosh", "cos", "sin", "sqrt", "append", "StepSizeError"}
    assert _calls(ast.parse(solve_source(model_cls.dim))) == {
        "rhs", "sqrt", "append", "StepSizeError"}


def test_driven_loop_rejects_a_path_prelude_that_rebinds_a_name():
    # the path's constants share one scope with the balance's parameters
    # and the loop: a path binding k, the balance's, would change the run
    source = EllipsePath.closed_form_source.replace(
        "eps, ca_c, na_c = path.eps", "k, ca_c, na_c = path.eps")
    with pytest.raises(ValueError, match=r"\['k'\] twice"):
        model._driven_source(model._FAST2, source)


def test_driven_loop_compiles_once_per_balance_and_path_class(reduced):
    # a new path or a new parameter set binds in the prelude; the loop's
    # code is shared
    paths = [EllipsePath.centered(0.3, 5.6, 1.5, 0.1, 0.006),
             EllipsePath(0.1, 5.1, 1.0, -0.1, 5.3, 0.009)]
    models = (reduced, ReducedFast(dataclasses.replace(REDUCED4D, g_l=2.9)))
    codes = {fast.path_rhs(path).solve.__code__ for path in paths
             for fast in models}
    assert len(codes) == 1


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
            state = slaved_state(float(v), p, fast.dim)
            if fast.dim == 2:
                g = rhs_fast4(state, slow, p)[0]
            else:
                g = rhs_fast7(state, slow, p)[0]
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
    # the CAN conductance of the forcing is g_CAN times a calcium gate
    p = REDUCED4D
    slow_currents = ReducedFast(p)._slow_currents
    assert slow_currents(p.k_can, 5.0)[0] / p.g_can == pytest.approx(0.5)
    assert slow_currents(p.k_can + 0.5, 5.0)[0] / p.g_can > 0.999
    assert slow_currents(p.k_can - 0.5, 5.0)[0] / p.g_can < 0.001
