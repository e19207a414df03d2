"""Right-hand sides, currents and gating functions for the bursting models.

Two fast subsystems are implemented: the five-variable one with state
(v, n, m, h, s) and its two-variable quasi-steady-state reduction with state
(v, n), obtained by setting m = m_inf(v), s = s_inf(v)/(s_inf(v) + k) and
h = 1 - 1.08 n. The slow pair (Ca, Na) acts as the fast subsystem's
parameters; the autonomous models append the biological slow equations and
the driven models append the imposed elliptic path dynamics.

All functions are pure; state is passed as plain tuples of floats, which is
the fastest representation for systems of this size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


def gate_inf(v: float, theta: float, sigma: float) -> float:
    """Steady-state activation 1/(1 + exp((v - theta)/sigma)).

    Strictly increasing in v for sigma < 0, decreasing for sigma > 0.
    """
    if sigma == 0:
        raise InvalidParameterError("gate slope sigma must be nonzero")
    return _sig((v - theta) / sigma)


def gate_inf_dv(v: float, theta: float, sigma: float) -> float:
    """d/dv of gate_inf."""
    x = gate_inf(v, theta, sigma)
    return -x * (1.0 - x) / sigma


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


def gate_tau_dv(v: float, t_x: float, theta: float, sigma: float) -> float:
    """d/dv of gate_tau."""
    x = (v - theta) / (2.0 * sigma)
    tau = gate_tau(v, t_x, theta, sigma)
    return -tau * math.tanh(x) / (2.0 * sigma)


def phi(na: float, k_na: float) -> float:
    """Pump saturation Na^3 / (Na^3 + k_Na^3); phi(k_Na) = 1/2."""
    na3 = na * na * na
    return na3 / (na3 + k_na * k_na * k_na)


def can_activation(ca: float, p: ModelParams) -> float:
    """Calcium gate of the CAN current, 1/(1 + exp((Ca - k_CAN)/sigma_CAN))."""
    return _sig((ca - p.k_can) / p.sigma_can)


@dataclass(frozen=True)
class Currents:
    """Membrane currents (pA) at a given state and slow point."""

    i_l: float
    i_k: float
    i_na: float
    i_syn: float
    i_can: float
    i_pump: float

    @property
    def total(self) -> float:
        return self.i_l + self.i_k + self.i_na + self.i_syn + self.i_can + self.i_pump


def currents(state, slow, p: ModelParams) -> Currents:
    """Evaluate all six currents for a five-variable fast state (v,n,m,h,s)."""
    v, n, m, h, s = state
    ca, na = slow
    return Currents(
        i_l=p.g_l * (v - p.e_l),
        i_k=p.g_k * n ** 4 * (v - p.e_k),
        i_na=p.g_na * m ** 3 * h * (v - p.e_na),
        i_syn=p.g_syn * s * (v - p.e_syn),
        i_can=p.g_can * (v - p.e_can) * can_activation(ca, p),
        i_pump=p.r_pump * (phi(na, p.k_na) - phi(p.na_b, p.k_na)),
    )


def s_slaved(v: float, p: ModelParams) -> float:
    """Fixed point of the s equation at frozen v: s_inf/(s_inf + k)."""
    si = gate_inf(v, p.theta_s, p.sigma_s)
    return si / (si + p.k)


def reduced_fast_state(v: float, n: float, p: ModelParams):
    """Lift a reduced (v, n) state to the five-variable representation."""
    return (v, n, gate_inf(v, p.theta_m, p.sigma_m), 1.0 - 1.08 * n, s_slaved(v, p))


def rhs_fast7(state, slow, p: ModelParams):
    """Five-variable fast subsystem right-hand side, d(v,n,m,h,s)/dt."""
    v, n, m, h, s = state
    cur = currents(state, slow, p)
    dv = -cur.total / p.c
    dn = (gate_inf(v, p.theta_n, p.sigma_n) - n) / gate_tau(v, p.t_n, p.theta_n, p.sigma_n)
    dm = (gate_inf(v, p.theta_m, p.sigma_m) - m) / gate_tau(v, p.t_m, p.theta_m, p.sigma_m)
    dh = (gate_inf(v, p.theta_h, p.sigma_h) - h) / gate_tau(v, p.t_h, p.theta_h, p.sigma_h)
    ds = ((1.0 - s) * gate_inf(v, p.theta_s, p.sigma_s) - p.k * s) / p.tau_s
    return (dv, dn, dm, dh, ds)


def rhs_slow7(state, slow, p: ModelParams):
    """Biological slow dynamics d(Ca, Na)/dt for a five-variable fast state."""
    v = state[0]
    s = state[4]
    ca, na = slow
    i_can = p.g_can * (v - p.e_can) * can_activation(ca, p)
    i_pump = p.r_pump * (phi(na, p.k_na) - phi(p.na_b, p.k_na))
    dca = p.eps * (p.k_ip3 * s - p.k_ca * (ca - p.ca_b))
    dna = p.alpha * (-i_can - i_pump)
    return (dca, dna)


def rhs_fast4(state, slow, p: ModelParams):
    """Two-variable reduced fast subsystem right-hand side, d(v, n)/dt."""
    v, n = state
    lifted = reduced_fast_state(v, n, p)
    cur = currents(lifted, slow, p)
    dv = -cur.total / p.c
    dn = (gate_inf(v, p.theta_n, p.sigma_n) - n) / gate_tau(v, p.t_n, p.theta_n, p.sigma_n)
    return (dv, dn)


def jac_fast4(state, slow, p: ModelParams):
    """Analytic 2x2 Jacobian of rhs_fast4 at (v, n) with (Ca, Na) frozen."""
    v, n = state
    ca, _na = slow
    m = gate_inf(v, p.theta_m, p.sigma_m)
    dm = -m * (1.0 - m) / p.sigma_m
    si = gate_inf(v, p.theta_s, p.sigma_s)
    dsi = -si * (1.0 - si) / p.sigma_s
    s_al = si / (si + p.k)
    ds_al = p.k * dsi / (si + p.k) ** 2
    h = 1.0 - 1.08 * n
    a_can = p.g_can * can_activation(ca, p)

    f_v = -(p.g_l
            + p.g_k * n ** 4
            + p.g_na * (3.0 * m * m * dm * h * (v - p.e_na) + m ** 3 * h)
            + p.g_syn * (ds_al * (v - p.e_syn) + s_al)
            + a_can) / p.c
    f_n = -(p.g_k * 4.0 * n ** 3 * (v - p.e_k)
            - 1.08 * p.g_na * m ** 3 * (v - p.e_na)) / p.c

    ninf = gate_inf(v, p.theta_n, p.sigma_n)
    dninf = -ninf * (1.0 - ninf) / p.sigma_n
    tau = gate_tau(v, p.t_n, p.theta_n, p.sigma_n)
    dtau = gate_tau_dv(v, p.t_n, p.theta_n, p.sigma_n)
    g_v = dninf / tau - (ninf - n) * dtau / (tau * tau)
    g_n = -1.0 / tau
    return ((f_v, f_n), (g_v, g_n))


def fd_jacobian(f, y, step: float = 1e-6):
    """Centered finite-difference Jacobian of a tuple-valued f(y)."""
    y = list(y)
    n = len(y)
    cols = []
    for j in range(n):
        yj = y[j]
        y[j] = yj + step
        fp = f(tuple(y))
        y[j] = yj - step
        fm = f(tuple(y))
        y[j] = yj
        cols.append([(a - b) / (2.0 * step) for a, b in zip(fp, fm)])
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


class ReducedFast:
    """Two-variable fast subsystem with (Ca, Na) as parameters."""

    dim = 2
    name = "reduced"

    def __init__(self, params: ModelParams):
        self.params = params

    def rhs(self, y, slow):
        return rhs_fast4(y, slow, self.params)

    def jacobian(self, y, slow):
        return jac_fast4(y, slow, self.params)

    def slaved(self, v: float):
        p = self.params
        return (v, gate_inf(v, p.theta_n, p.sigma_n))

    def g_array(self, vs, slow):
        """v' at the gate-slaved states of a voltage array, (Ca, Na) frozen.

        The equilibrium scan calls this instead of rhs, so a subclass that
        changes the rhs must change this too.
        """
        p = self.params
        rhs = make_fast4_rhs(p, slow[0], slow[1], sig=_sig_array, cosh=np.cosh)
        return rhs(0.0, (vs, _sig_array((vs - p.theta_n) / p.sigma_n)))[0]

    def frozen_rhs(self, slow):
        return make_fast4_rhs(self.params, slow[0], slow[1])

    def driven_rhs(self, path):
        return make_driven4_rhs(self.params, path)

    def autonomous_rhs(self):
        return make_auto4_rhs(self.params)


class FullFast:
    """Five-variable fast subsystem with (Ca, Na) as parameters."""

    dim = 5
    name = "full"

    def __init__(self, params: ModelParams):
        self.params = params

    def rhs(self, y, slow):
        return rhs_fast7(y, slow, self.params)

    def jacobian(self, y, slow, step: float = 1e-6):
        return fd_jacobian(lambda yy: rhs_fast7(yy, slow, self.params), y, step)

    def slaved(self, v: float):
        p = self.params
        return (v,
                gate_inf(v, p.theta_n, p.sigma_n),
                gate_inf(v, p.theta_m, p.sigma_m),
                gate_inf(v, p.theta_h, p.sigma_h),
                s_slaved(v, p))

    def g_array(self, vs, slow):
        """v' at the gate-slaved states of a voltage array, (Ca, Na) frozen.

        The equilibrium scan calls this instead of rhs, so a subclass that
        changes the rhs must change this too.
        """
        p = self.params
        n, m, h, si = (_sig_array((vs - theta) / sigma) for theta, sigma in (
            (p.theta_n, p.sigma_n), (p.theta_m, p.sigma_m),
            (p.theta_h, p.sigma_h), (p.theta_s, p.sigma_s)))
        rhs = make_fast7_rhs(p, slow[0], slow[1], sig=_sig_array, cosh=np.cosh)
        return rhs(0.0, (vs, n, m, h, si / (si + p.k)))[0]

    def frozen_rhs(self, slow):
        return make_fast7_rhs(self.params, slow[0], slow[1])

    def driven_rhs(self, path):
        return make_driven7_rhs(self.params, path)

    def autonomous_rhs(self):
        return make_auto7_rhs(self.params)


# ---------------------------------------------------------------------------
# Specialized closures for the integrator hot loop. These inline the same
# formulas as the rhs_* functions above with parameters captured as locals;
# the generic functions remain the reference implementation and the tests
# assert both paths agree. The frozen closures take the sigmoid and cosh as
# arguments, so that with _sig_array and np.cosh they act on numpy arrays.

def make_fast4_rhs(p: ModelParams, ca: float, na: float, sig=_sig,
                   cosh=math.cosh):
    g_l, e_l, g_k, e_k, g_na, e_na, g_syn, e_syn = (
        p.g_l, p.e_l, p.g_k, p.e_k, p.g_na, p.e_na, p.g_syn, p.e_syn)
    inv_c = 1.0 / p.c
    th_m, inv_sm = p.theta_m, 1.0 / p.sigma_m
    th_s, inv_ss = p.theta_s, 1.0 / p.sigma_s
    th_n, inv_sn = p.theta_n, 1.0 / p.sigma_n
    inv_2sn = 0.5 * inv_sn
    t_n, k = p.t_n, p.k
    a_can = p.g_can * can_activation(ca, p)
    e_can = p.e_can
    i_pump = p.r_pump * (phi(na, p.k_na) - phi(p.na_b, p.k_na))

    def rhs(t, y):
        v, n = y
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
        dn = (sig((v - th_n) * inv_sn) - n) / (t_n / cosh((v - th_n) * inv_2sn))
        return (dv, dn)

    return rhs


def make_fast7_rhs(p: ModelParams, ca: float, na: float, sig=_sig,
                   cosh=math.cosh):
    g_l, e_l, g_k, e_k, g_na, e_na, g_syn, e_syn = (
        p.g_l, p.e_l, p.g_k, p.e_k, p.g_na, p.e_na, p.g_syn, p.e_syn)
    inv_c = 1.0 / p.c
    th_n, inv_sn, t_n = p.theta_n, 1.0 / p.sigma_n, p.t_n
    th_m, inv_sm, t_m = p.theta_m, 1.0 / p.sigma_m, p.t_m
    th_h, inv_sh, t_h = p.theta_h, 1.0 / p.sigma_h, p.t_h
    th_s, inv_ss = p.theta_s, 1.0 / p.sigma_s
    inv_tau_s, k = 1.0 / p.tau_s, p.k
    a_can = p.g_can * can_activation(ca, p)
    e_can = p.e_can
    i_pump = p.r_pump * (phi(na, p.k_na) - phi(p.na_b, p.k_na))

    def rhs(t, y):
        v, n, m, h, s = y
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
        return (dv, dn, dm, dh, ds)

    return rhs


def make_driven4_rhs(p: ModelParams, path):
    """Reduced fast subsystem driven by an imposed elliptic slow path.

    State layout (v, n, Ca, Na); the slow pair follows the path's rotation
    field and does not feel the fast variables.
    """
    g_l, e_l, g_k, e_k, g_na, e_na, g_syn, e_syn = (
        p.g_l, p.e_l, p.g_k, p.e_k, p.g_na, p.e_na, p.g_syn, p.e_syn)
    inv_c = 1.0 / p.c
    th_m, inv_sm = p.theta_m, 1.0 / p.sigma_m
    th_s, inv_ss = p.theta_s, 1.0 / p.sigma_s
    th_n, inv_sn = p.theta_n, 1.0 / p.sigma_n
    t_n, k = p.t_n, p.k
    g_can_, e_can = p.g_can, p.e_can
    k_can, inv_scan = p.k_can, 1.0 / p.sigma_can
    r_pump, k_na = p.r_pump, p.k_na
    phi_b = phi(p.na_b, p.k_na)
    kna3 = k_na ** 3
    eps, d = path.eps, path.d
    ca_c, na_c = path.ca_c, path.na_c
    eps_d = eps * d
    eps_over_d = eps / d
    sig = _sig
    cosh = math.cosh

    def rhs(t, y):
        v, n, ca, na = y
        m = sig((v - th_m) * inv_sm)
        si = sig((v - th_s) * inv_ss)
        h = 1.0 - 1.08 * n
        n2 = n * n
        na3 = na * na * na
        dv = -inv_c * (g_l * (v - e_l)
                       + g_k * n2 * n2 * (v - e_k)
                       + g_na * m * m * m * h * (v - e_na)
                       + g_syn * si / (si + k) * (v - e_syn)
                       + g_can_ * sig((ca - k_can) * inv_scan) * (v - e_can)
                       + r_pump * (na3 / (na3 + kna3) - phi_b))
        dn = (sig((v - th_n) * inv_sn) - n) / (t_n / cosh((v - th_n) * inv_sn * 0.5))
        return (dv, dn, -eps_d * (na - na_c), eps_over_d * (ca - ca_c))

    return rhs


def make_driven7_rhs(p: ModelParams, path):
    """Five-variable fast subsystem driven by an imposed elliptic slow path.

    State layout (v, n, m, h, s, Ca, Na).
    """
    base = _make_fast7_core(p)
    eps_d = path.eps * path.d
    eps_over_d = path.eps / path.d
    ca_c, na_c = path.ca_c, path.na_c

    def rhs(t, y):
        dv, dn, dm, dh, ds = base(y)
        return (dv, dn, dm, dh, ds,
                -eps_d * (y[6] - na_c), eps_over_d * (y[5] - ca_c))

    return rhs


def make_auto4_rhs(p: ModelParams):
    """Autonomous reduced model: Eq-(3)-style fast pair plus biological slow
    dynamics with s replaced by its slaved value. State (v, n, Ca, Na)."""
    th_s, inv_ss, k = p.theta_s, 1.0 / p.sigma_s, p.k
    eps, k_ip3, k_ca, ca_b, alpha = p.eps, p.k_ip3, p.k_ca, p.ca_b, p.alpha
    g_can_, e_can = p.g_can, p.e_can
    k_can, inv_scan = p.k_can, 1.0 / p.sigma_can
    r_pump, kna3 = p.r_pump, p.k_na ** 3
    phi_b = phi(p.na_b, p.k_na)
    core = _make_fast4_core(p)
    sig = _sig

    def rhs(t, y):
        v, n, ca, na = y
        dv, dn = core(v, n, ca, na)
        si = sig((v - th_s) * inv_ss)
        s_al = si / (si + k)
        na3 = na * na * na
        i_can = g_can_ * sig((ca - k_can) * inv_scan) * (v - e_can)
        i_pump = r_pump * (na3 / (na3 + kna3) - phi_b)
        dca = eps * (k_ip3 * s_al - k_ca * (ca - ca_b))
        dna = alpha * (-i_can - i_pump)
        return (dv, dn, dca, dna)

    return rhs


def make_auto7_rhs(p: ModelParams):
    """Autonomous 7D model: five fast variables plus (Ca, Na)."""
    base = _make_fast7_core(p)
    eps, k_ip3, k_ca, ca_b, alpha = p.eps, p.k_ip3, p.k_ca, p.ca_b, p.alpha
    g_can_, e_can = p.g_can, p.e_can
    k_can, inv_scan = p.k_can, 1.0 / p.sigma_can
    r_pump, kna3 = p.r_pump, p.k_na ** 3
    phi_b = phi(p.na_b, p.k_na)
    sig = _sig

    def rhs(t, y):
        dv, dn, dm, dh, ds = base(y)
        v, s, ca, na = y[0], y[4], y[5], y[6]
        na3 = na * na * na
        i_can = g_can_ * sig((ca - k_can) * inv_scan) * (v - e_can)
        i_pump = r_pump * (na3 / (na3 + kna3) - phi_b)
        dca = eps * (k_ip3 * s - k_ca * (ca - ca_b))
        dna = alpha * (-i_can - i_pump)
        return (dv, dn, dm, dh, ds, dca, dna)

    return rhs


def _make_fast4_core(p: ModelParams):
    # (v, n, ca, na) -> (dv, dn) with per-call Ca/Na current evaluation
    g_l, e_l, g_k, e_k, g_na, e_na, g_syn, e_syn = (
        p.g_l, p.e_l, p.g_k, p.e_k, p.g_na, p.e_na, p.g_syn, p.e_syn)
    inv_c = 1.0 / p.c
    th_m, inv_sm = p.theta_m, 1.0 / p.sigma_m
    th_s, inv_ss = p.theta_s, 1.0 / p.sigma_s
    th_n, inv_sn = p.theta_n, 1.0 / p.sigma_n
    t_n, k = p.t_n, p.k
    g_can_, e_can = p.g_can, p.e_can
    k_can, inv_scan = p.k_can, 1.0 / p.sigma_can
    r_pump, kna3 = p.r_pump, p.k_na ** 3
    phi_b = phi(p.na_b, p.k_na)
    sig = _sig
    cosh = math.cosh

    def core(v, n, ca, na):
        m = sig((v - th_m) * inv_sm)
        si = sig((v - th_s) * inv_ss)
        h = 1.0 - 1.08 * n
        n2 = n * n
        na3 = na * na * na
        dv = -inv_c * (g_l * (v - e_l)
                       + g_k * n2 * n2 * (v - e_k)
                       + g_na * m * m * m * h * (v - e_na)
                       + g_syn * si / (si + k) * (v - e_syn)
                       + g_can_ * sig((ca - k_can) * inv_scan) * (v - e_can)
                       + r_pump * (na3 / (na3 + kna3) - phi_b))
        dn = (sig((v - th_n) * inv_sn) - n) / (t_n / cosh((v - th_n) * inv_sn * 0.5))
        return dv, dn

    return core


def _make_fast7_core(p: ModelParams):
    # y[(v, n, m, h, s, ca, na)] -> five fast derivatives
    g_l, e_l, g_k, e_k, g_na, e_na, g_syn, e_syn = (
        p.g_l, p.e_l, p.g_k, p.e_k, p.g_na, p.e_na, p.g_syn, p.e_syn)
    inv_c = 1.0 / p.c
    th_n, inv_sn, t_n = p.theta_n, 1.0 / p.sigma_n, p.t_n
    th_m, inv_sm, t_m = p.theta_m, 1.0 / p.sigma_m, p.t_m
    th_h, inv_sh, t_h = p.theta_h, 1.0 / p.sigma_h, p.t_h
    th_s, inv_ss = p.theta_s, 1.0 / p.sigma_s
    inv_tau_s, k = 1.0 / p.tau_s, p.k
    g_can_, e_can = p.g_can, p.e_can
    k_can, inv_scan = p.k_can, 1.0 / p.sigma_can
    r_pump, kna3 = p.r_pump, p.k_na ** 3
    phi_b = phi(p.na_b, p.k_na)
    sig = _sig
    cosh = math.cosh

    def core(y):
        v, n, m, h, s, ca, na = y
        n2 = n * n
        na3 = na * na * na
        dv = -inv_c * (g_l * (v - e_l)
                       + g_k * n2 * n2 * (v - e_k)
                       + g_na * m * m * m * h * (v - e_na)
                       + g_syn * s * (v - e_syn)
                       + g_can_ * sig((ca - k_can) * inv_scan) * (v - e_can)
                       + r_pump * (na3 / (na3 + kna3) - phi_b))
        dn = (sig((v - th_n) * inv_sn) - n) / (t_n / cosh((v - th_n) * inv_sn * 0.5))
        dm = (sig((v - th_m) * inv_sm) - m) / (t_m / cosh((v - th_m) * inv_sm * 0.5))
        dh = (sig((v - th_h) * inv_sh) - h) / (t_h / cosh((v - th_h) * inv_sh * 0.5))
        ds = ((1.0 - s) * sig((v - th_s) * inv_ss) - k * s) * inv_tau_s
        return dv, dn, dm, dh, ds

    return core
