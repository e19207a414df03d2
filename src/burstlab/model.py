"""Gating functions, the current balance and the right-hand sides of the
bursting models.

Two fast subsystems are implemented: the five-variable one with state
(v, n, m, h, s) and its two-variable quasi-steady-state reduction with state
(v, n), obtained by setting m = m_inf(v), s = s_inf(v)/(s_inf(v) + k) and
h = 1 - 1.08 n. The slow pair (Ca, Na) enters each fast subsystem only
through the CAN conductance and the pump current. So each subsystem's current
balance is written once, as a core that takes those two numbers, and every
form is derived from it: frozen (Ca, Na) for the equilibria and landscapes,
an imposed elliptic path for the driven models (the fast state alone against
the path's closed form, or the full state with the path's rotation field),
the biological slow equations for the autonomous models, a numpy form for
the equilibrium scan and for the equilibrium branch that the bifurcation
curves are traced on, and a complex form whose complex step gives the
Jacobian. The readable six-current reference lives in tests/oracles.py,
apart from this code.

State is passed as plain tuples of floats, which is the fastest
representation for systems of this size.
"""
from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import expit

from .params import ModelParams, InvalidParameterError


def _sig(x: float) -> float:
    # logistic 1/(1+e^x), overflow-safe on both sides
    if x >= 0.0:
        if x > 700.0:
            return 0.0
        z = math.exp(-x)
        return z / (1.0 + z)
    if x < -700.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(x))


def _sig_array(x):
    # _sig on numpy arrays
    return expit(-x)


def _csig(x: complex) -> complex:
    # _sig for the complex step, guarded on the real part
    if x.real > 700.0:
        return 0.0
    if x.real < -700.0:
        return 1.0
    return 1.0 / (1.0 + cmath.exp(x))


def gate_inf(v: float, theta: float, sigma: float) -> float:
    """Steady-state activation 1/(1 + exp((v - theta)/sigma)).

    Strictly increasing in v for sigma < 0, decreasing for sigma > 0.
    """
    if sigma == 0:
        raise InvalidParameterError("gate slope sigma must be nonzero")
    return _sig((v - theta) / sigma)


def gate_tau(v: float, t_x: float, theta: float, sigma: float) -> float:
    """Voltage-dependent time constant t_x / cosh((v - theta)/(2 sigma)).

    Peaks at v = theta with value t_x and is even about theta.
    """
    if sigma == 0:
        raise InvalidParameterError("gate slope sigma must be nonzero")
    if t_x <= 0:
        raise InvalidParameterError("gate time constant must be > 0")
    x = (v - theta) / (2.0 * sigma)
    if abs(x) > 700.0:
        return 0.0
    return t_x / math.cosh(x)


def phi(na: float, k_na: float) -> float:
    """Pump saturation Na^3 / (Na^3 + k_Na^3); phi(k_Na) = 1/2."""
    na3 = na * na * na
    return na3 / (na3 + k_na * k_na * k_na)


def can_activation(ca: float, p: ModelParams) -> float:
    """Calcium gate of the CAN current, 1/(1 + exp((Ca - k_CAN)/sigma_CAN))."""
    return _sig((ca - p.k_can) / p.sigma_can)


def s_slaved(v: float, p: ModelParams) -> float:
    """Fixed point of the s equation at frozen v: s_inf/(s_inf + k)."""
    si = gate_inf(v, p.theta_s, p.sigma_s)
    return si / (si + p.k)


# ---------------------------------------------------------------------------
# The current balance, written once per fast subsystem. Each builder captures
# the parameters as closure locals, the fastest lookup in CPython, and takes
# the sigmoid and cosh as arguments: _sig and math.cosh for the integrator's
# tuples, _sig_array and np.cosh for numpy arrays, _csig and cmath.cosh for
# the complex-step Jacobian. The operation order in the cores and in
# _slow_currents fixes driven and autonomous runs to the last digit;
# reordering it changes every stored trace.

def _fast2_core(p: ModelParams, sig=_sig, cosh=math.cosh):
    """(v, n, a_can, i_pump) -> (v', n') of the reduced fast subsystem."""
    g_l, e_l, g_k, e_k, g_na, e_na, g_syn, e_syn = (
        p.g_l, p.e_l, p.g_k, p.e_k, p.g_na, p.e_na, p.g_syn, p.e_syn)
    inv_c, e_can = 1.0 / p.c, p.e_can
    th_m, inv_sm = p.theta_m, 1.0 / p.sigma_m
    th_s, inv_ss = p.theta_s, 1.0 / p.sigma_s
    th_n, inv_sn = p.theta_n, 1.0 / p.sigma_n
    t_n, k = p.t_n, p.k

    def core(v, n, a_can, i_pump):
        m = sig((v - th_m) * inv_sm)
        si = sig((v - th_s) * inv_ss)
        h = 1.0 - 1.08 * n
        n2 = n * n
        dv = -inv_c * (g_l * (v - e_l)
                       + g_k * n2 * n2 * (v - e_k)
                       + g_na * m * m * m * h * (v - e_na)
                       + g_syn * si / (si + k) * (v - e_syn)
                       + a_can * (v - e_can)
                       + i_pump)
        dn = (sig((v - th_n) * inv_sn) - n) / (t_n / cosh((v - th_n) * inv_sn * 0.5))
        return dv, dn

    return core


def _fast5_core(p: ModelParams, sig=_sig, cosh=math.cosh):
    """(v, n, m, h, s, a_can, i_pump) -> the five fast derivatives."""
    g_l, e_l, g_k, e_k, g_na, e_na, g_syn, e_syn = (
        p.g_l, p.e_l, p.g_k, p.e_k, p.g_na, p.e_na, p.g_syn, p.e_syn)
    inv_c, e_can = 1.0 / p.c, p.e_can
    th_n, inv_sn, t_n = p.theta_n, 1.0 / p.sigma_n, p.t_n
    th_m, inv_sm, t_m = p.theta_m, 1.0 / p.sigma_m, p.t_m
    th_h, inv_sh, t_h = p.theta_h, 1.0 / p.sigma_h, p.t_h
    th_s, inv_ss = p.theta_s, 1.0 / p.sigma_s
    inv_tau_s, k = 1.0 / p.tau_s, p.k

    def core(v, n, m, h, s, a_can, i_pump):
        n2 = n * n
        dv = -inv_c * (g_l * (v - e_l)
                       + g_k * n2 * n2 * (v - e_k)
                       + g_na * m * m * m * h * (v - e_na)
                       + g_syn * s * (v - e_syn)
                       + a_can * (v - e_can)
                       + i_pump)
        dn = (sig((v - th_n) * inv_sn) - n) / (t_n / cosh((v - th_n) * inv_sn * 0.5))
        dm = (sig((v - th_m) * inv_sm) - m) / (t_m / cosh((v - th_m) * inv_sm * 0.5))
        dh = (sig((v - th_h) * inv_sh) - h) / (t_h / cosh((v - th_h) * inv_sh * 0.5))
        ds = ((1.0 - s) * sig((v - th_s) * inv_ss) - k * s) * inv_tau_s
        return dv, dn, dm, dh, ds

    return core


def _slow_currents(p: ModelParams):
    """(Ca, Na) -> (a_can, i_pump): the CAN conductance g_CAN x_CAN(Ca) and
    the pump current, zero at the baseline Na_b."""
    g_can, k_can, inv_scan = p.g_can, p.k_can, 1.0 / p.sigma_can
    r_pump, kna3, phi_b = p.r_pump, p.k_na ** 3, phi(p.na_b, p.k_na)
    sig = _sig

    def slow_currents(ca, na):
        na3 = na * na * na
        return (g_can * sig((ca - k_can) * inv_scan),
                r_pump * (na3 / (na3 + kna3) - phi_b))

    return slow_currents


def can_calcium(a_can, p: ModelParams):
    """Ca at which the CAN conductance g_CAN x_CAN(Ca) equals a_can, for
    0 < a_can < g_CAN: the inverse of the CAN gate in _slow_currents.
    Takes floats or numpy arrays."""
    return p.k_can + p.sigma_can * np.log(p.g_can / a_can - 1.0)


def _slow_rhs(p: ModelParams):
    """(v, s, Ca, a_can, i_pump) -> (Ca', Na') of the biological slow
    equations: IP3-driven calcium release and sodium entry through CAN
    against the pump."""
    eps, k_ip3, k_ca, ca_b = p.eps, p.k_ip3, p.k_ca, p.ca_b
    alpha, e_can = p.alpha, p.e_can

    def slow_rhs(v, s, ca, a_can, i_pump):
        return (eps * (k_ip3 * s - k_ca * (ca - ca_b)),
                alpha * (-(a_can * (v - e_can)) - i_pump))

    return slow_rhs


_STEP = 1e-30     # complex step of the Jacobian


class _FastSubsystem:
    """What both fast subsystems derive from their core alone."""

    def __init__(self, params: ModelParams):
        self.params = params
        self._core = self._make_core(params)
        self._array_core = self._make_core(params, sig=_sig_array, cosh=np.cosh)
        self._complex_core = self._make_core(params, sig=_csig, cosh=cmath.cosh)
        self._slow_currents = _slow_currents(params)

    def __reduce__(self):
        # the cores are closures, which do not pickle: rebuild from params
        return type(self), (self.params,)

    def rhs(self, y, slow):
        return self._core(*y, *self._slow_currents(*slow))

    def path_rhs(self, path):
        """Fast state only; (Ca, Na) is the path's closed form at time t.
        This is what run_driven integrates."""
        core, slow_currents, point = self._core, self._slow_currents, path.point

        def rhs(t, y):
            return core(*y, *slow_currents(*point(t)))

        return rhs

    def driven_rhs(self, path):
        """State (fast..., Ca, Na); the slow pair follows the path's rotation
        field and does not feel the fast variables."""
        core, slow_currents, field = self._core, self._slow_currents, path.rhs

        def rhs(t, y):
            slow = y[-2:]
            return core(*y[:-2], *slow_currents(*slow)) + field(slow)

        return rhs

    def jacobian(self, y, slow):
        """Jacobian of the fast rhs at y, (Ca, Na) frozen, as row tuples.
        Like g_array, this bypasses rhs."""
        return self._jacobian(y, *self._slow_currents(*slow))

    def _jacobian(self, y, a_can, i_pump):
        # complex step: column j is Im core(y + ih e_j) / h, exact to rounding
        # because nothing is subtracted
        core = self._complex_core
        cols = [core(*y[:j], complex(yj, _STEP), *y[j + 1:], a_can, i_pump)
                for j, yj in enumerate(y)]
        return tuple(tuple(d.imag / _STEP for d in row) for row in zip(*cols))

    def g_array(self, vs, slow):
        """v' at the gate-slaved states of a voltage array, (Ca, Na) frozen.

        The equilibrium scan calls this instead of rhs, so a subclass that
        changes the rhs must change this too.
        """
        return self._array_core(*self._slaved_array(vs),
                                *self._slow_currents(*slow))[0]

    def can_branch(self, vs, na: float):
        """The CAN conductance a at which the gate-slaved state of each
        voltage is an equilibrium, Na frozen.

        v' is affine in a, so a(v) = G(v; 0) / (G(v; 0) - G(v; 1)) with
        G(v; a) = v' at the gate-slaved state. The pole at v = E_CAN, where
        a drops out of v', reads as +-inf. Like g_array, this bypasses rhs.
        """
        y = self._slaved_array(vs)
        i_pump = self._slow_currents(0.0, na)[1]    # independent of Ca
        g0 = self._array_core(*y, 0.0, i_pump)[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return g0 / (g0 - self._array_core(*y, 1.0, i_pump)[0])


class ReducedFast(_FastSubsystem):
    """Two-variable fast subsystem with (Ca, Na) as parameters."""

    dim = 2
    name = "reduced"
    _make_core = staticmethod(_fast2_core)

    def frozen_rhs(self, slow):
        core = self._core
        a_can, i_pump = self._slow_currents(*slow)

        def rhs(t, y):
            v, n = y
            return core(v, n, a_can, i_pump)

        return rhs

    def slaved(self, v: float):
        p = self.params
        return (v, gate_inf(v, p.theta_n, p.sigma_n))

    def _slaved_array(self, vs):
        p = self.params
        return vs, _sig_array((vs - p.theta_n) / p.sigma_n)

    def autonomous_rhs(self):
        """State (v, n, Ca, Na); the Ca equation sees the slaved s."""
        p = self.params
        core, slow_currents, slow_rhs = self._core, self._slow_currents, _slow_rhs(p)
        th_s, inv_ss, k = p.theta_s, 1.0 / p.sigma_s, p.k
        sig = _sig

        def rhs(t, y):
            v, n, ca, na = y
            a_can, i_pump = slow_currents(ca, na)
            dv, dn = core(v, n, a_can, i_pump)
            si = sig((v - th_s) * inv_ss)
            dca, dna = slow_rhs(v, si / (si + k), ca, a_can, i_pump)
            return (dv, dn, dca, dna)

        return rhs


class FullFast(_FastSubsystem):
    """Five-variable fast subsystem with (Ca, Na) as parameters."""

    dim = 5
    name = "full"
    _make_core = staticmethod(_fast5_core)

    def frozen_rhs(self, slow):
        core = self._core
        a_can, i_pump = self._slow_currents(*slow)

        def rhs(t, y):
            v, n, m, h, s = y
            return core(v, n, m, h, s, a_can, i_pump)

        return rhs

    def slaved(self, v: float):
        p = self.params
        return (v,
                gate_inf(v, p.theta_n, p.sigma_n),
                gate_inf(v, p.theta_m, p.sigma_m),
                gate_inf(v, p.theta_h, p.sigma_h),
                s_slaved(v, p))

    def _slaved_array(self, vs):
        p = self.params
        n, m, h, si = (_sig_array((vs - theta) / sigma) for theta, sigma in (
            (p.theta_n, p.sigma_n), (p.theta_m, p.sigma_m),
            (p.theta_h, p.sigma_h), (p.theta_s, p.sigma_s)))
        return vs, n, m, h, si / (si + p.k)

    def autonomous_rhs(self):
        """State (v, n, m, h, s, Ca, Na)."""
        core, slow_currents, slow_rhs = self._core, self._slow_currents, _slow_rhs(self.params)

        def rhs(t, y):
            v, n, m, h, s, ca, na = y
            a_can, i_pump = slow_currents(ca, na)
            dv, dn, dm, dh, ds = core(v, n, m, h, s, a_can, i_pump)
            dca, dna = slow_rhs(v, s, ca, a_can, i_pump)
            return (dv, dn, dm, dh, ds, dca, dna)

        return rhs
