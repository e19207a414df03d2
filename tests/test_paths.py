import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstlab import EllipsePath, InvalidParameterError, integrate

PATH = EllipsePath.centered(0.7, 5.35, 2.0, 0.0, 0.009)


def test_initial_point():
    assert PATH.point(0.0) == pytest.approx((0.0, 5.35))


def test_antipodal_point():
    t = math.pi / PATH.eps
    ca, na = PATH.point(t)
    assert ca == pytest.approx(2 * 0.7 - 0.0, abs=1e-9)
    assert na == pytest.approx(2 * 5.35 - 5.35, abs=1e-9)


def test_quarter_turn():
    t = 0.5 * math.pi / PATH.eps
    ca, na = PATH.point(t)
    assert ca == pytest.approx(PATH.ca_c, abs=1e-9)
    assert na == pytest.approx(PATH.na_c + (PATH.ca0 - PATH.ca_c) / PATH.d,
                               abs=1e-9)


def test_extent_na0_equal_na_c():
    (_, _, delta) = PATH.extent()
    assert delta == pytest.approx(abs(PATH.ca0 - PATH.ca_c))


def test_extent_fig3_path():
    p = EllipsePath.centered(0.7, 5.35, 0.5, 0.0, 0.009)
    (ca_rng, _, _) = p.extent()
    assert ca_rng == pytest.approx((0.0, 1.4))


def test_extent_fig4_path():
    p = EllipsePath.centered(0.15, 5.85, 1.0, 0.0, 0.004)
    (_, na_rng, delta) = p.extent()
    assert delta == pytest.approx(0.15)
    assert na_rng == pytest.approx((5.70, 6.00))


def test_rhs_center_is_equilibrium():
    assert PATH.rhs((PATH.ca_c, PATH.na_c)) == (0.0, 0.0)


def test_rhs_counter_clockwise_at_rightmost():
    r = 0.3
    dca, dna = PATH.rhs((PATH.ca_c + r, PATH.na_c))
    assert dca == pytest.approx(0.0)
    assert dna == pytest.approx(PATH.eps * r / PATH.d)
    assert dna > 0.0


@given(st.floats(-0.5, 1.5), st.floats(4.5, 6.5))
def test_conserved_quantity_derivative_vanishes(ca, na):
    dca, dna = PATH.rhs((ca, na))
    dq = 2 * (ca - PATH.ca_c) * dca + 2 * PATH.d ** 2 * (na - PATH.na_c) * dna
    assert dq == pytest.approx(0.0, abs=1e-12)


def test_validation():
    with pytest.raises(InvalidParameterError):
        EllipsePath.centered(0.7, 5.35, 0.0, 0.0, 0.009)
    with pytest.raises(InvalidParameterError):
        EllipsePath.centered(0.7, 5.35, 1.0, 0.0, -0.009)
    with pytest.raises(InvalidParameterError):
        EllipsePath.centered(0.7, 5.35, 1.0, 0.7, 0.009)


def test_integrated_ellipse_closes_and_conserves():
    path = PATH
    rhs = lambda t, y: path.rhs(y)
    y0 = (path.ca0, path.na0)
    traj = integrate(rhs, y0, (0.0, path.period), rel_tol=1e-9, abs_tol=1e-9)
    q0 = path.conserved(y0)
    scale = math.hypot(*y0)
    assert np.hypot(*(traj.ys[-1] - y0)) / scale < 1e-6
    qs = np.array([path.conserved(y) for y in traj.ys])
    assert np.abs(qs - q0).max() / q0 < 1e-6


def test_closed_form_matches_integration_pointwise():
    path = PATH
    rhs = lambda t, y: path.rhs(y)
    traj = integrate(rhs, (path.ca0, path.na0), (0.0, path.period),
                     rel_tol=1e-9, abs_tol=1e-9)
    ts = np.linspace(0.0, path.period, 100)
    got = traj.sample(ts)
    want = np.array([path.point(t) for t in ts])
    assert np.abs(got - want).max() < 1e-6


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 20), st.floats(-0.5, 0.6), st.floats(1e-3, 0.02))
def test_period_and_extent_consistency(d, ca0, eps):
    ca_c, na_c = 0.2, 5.5
    if abs(ca0 - ca_c) < 1e-6:
        ca0 = ca_c + 0.1
    p = EllipsePath.centered(ca_c, na_c, d, ca0, eps)
    (ca_rng, na_rng, delta) = p.extent()
    assert delta == pytest.approx(abs(ca0 - ca_c))
    assert ca_rng[1] - ca_rng[0] == pytest.approx(2 * delta)
    assert na_rng[1] - na_rng[0] == pytest.approx(2 * delta / d)
    # closed form stays inside the stated ranges over a full period
    for t in np.linspace(0, p.period, 37):
        ca, na = p.point(t)
        assert ca_rng[0] - 1e-9 <= ca <= ca_rng[1] + 1e-9
        assert na_rng[0] - 1e-9 <= na <= na_rng[1] + 1e-9
    # rotation field matches the time derivative of the closed form
    t = 0.3 * p.period
    h = 1e-6
    fd = (np.array(p.point(t + h)) - np.array(p.point(t - h))) / (2 * h)
    assert np.allclose(p.rhs(p.point(t)), fd,
                       rtol=1e-5, atol=1e-8)
