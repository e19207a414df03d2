"""Independent brute-force oracles used by the tests.

The model reference writes the gate functions with math.exp and math.cosh
and the six membrane currents out one by one from them (Currents,
currents), and builds the fast and slow right-hand sides from those, apart
from the cores and gate functions in burstlab.model; the tests compare
every derived rhs form with it.

These deliberately avoid the production algorithms: fold locations come
from bisection on the equilibrium count, Hopf locations from a sign scan of
the eigenvalue real part, and contour points from one-dimensional bisection
along a fixed-Na ray. Scans run at 1e-4 steps inside a coarse bracket.
Equilibria are bracketed by a scalar scan, one rhs call per grid voltage,
rather than by the models' array form of G, and solved by Newton on the
full fast rhs rather than by Brent on G. The Jacobian is the oracle's own,
not the models' complex step: the hand-derived jac_fast4 for the reduced
subsystem and a centred finite difference of rhs_fast7 for the full one,
with eigenvalues from numpy's QR iteration. The reference Dormand-Prince
step takes its tableau from scipy's RK45, not from burstlab.integrate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import RK45

from burstlab.bifurcation import _V_GRID, Equilibrium
from burstlab.params import ModelParams


def gate_inf(v: float, theta: float, sigma: float) -> float:
    """Steady-state activation 1/(1 + exp((v - theta)/sigma))."""
    return 1.0 / (1.0 + math.exp((v - theta) / sigma))


def gate_tau(v: float, t_x: float, theta: float, sigma: float) -> float:
    """Gate time constant t_x / cosh((v - theta)/(2 sigma))."""
    return t_x / math.cosh((v - theta) / (2.0 * sigma))


def can_activation(ca: float, p: ModelParams) -> float:
    """Calcium gate of the CAN current, 1/(1 + exp((Ca - k_CAN)/sigma_CAN))."""
    return 1.0 / (1.0 + math.exp((ca - p.k_can) / p.sigma_can))


def phi(na: float, k_na: float) -> float:
    """Pump saturation Na^3 / (Na^3 + k_Na^3)."""
    return na ** 3 / (na ** 3 + k_na ** 3)


def s_slaved(v: float, p: ModelParams) -> float:
    """Fixed point of the s equation at frozen v: s_inf/(s_inf + k)."""
    si = gate_inf(v, p.theta_s, p.sigma_s)
    return si / (si + p.k)


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
    s = state[4]
    ca, _na = slow
    cur = currents(state, slow, p)
    dca = p.eps * (p.k_ip3 * s - p.k_ca * (ca - p.ca_b))
    dna = p.alpha * (-cur.i_can - cur.i_pump)
    return (dca, dna)


def rhs_fast4(state, slow, p: ModelParams):
    """Two-variable reduced fast subsystem right-hand side, d(v, n)/dt."""
    v, n = state
    lifted = reduced_fast_state(v, n, p)
    cur = currents(lifted, slow, p)
    dv = -cur.total / p.c
    dn = (gate_inf(v, p.theta_n, p.sigma_n) - n) / gate_tau(v, p.t_n, p.theta_n, p.sigma_n)
    return (dv, dn)


def gate_tau_dv(v: float, t_x: float, theta: float, sigma: float) -> float:
    """d/dv of gate_tau."""
    x = (v - theta) / (2.0 * sigma)
    tau = gate_tau(v, t_x, theta, sigma)
    return -tau * math.tanh(x) / (2.0 * sigma)


def jac_fast4(state, slow, p: ModelParams):
    """Analytic 2x2 Jacobian of the reduced fast subsystem at (v, n),
    (Ca, Na) frozen."""
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


def oracle_jacobian(fast, state, slow):
    """jac_fast4 for the reduced subsystem, the FD of rhs_fast7 for the
    full one."""
    p = fast.params
    if fast.dim == 2:
        return jac_fast4(state, slow, p)
    return fd_jacobian(lambda y: rhs_fast7(y, slow, p), state)


def _eigvals(fast, state, slow):
    return tuple(complex(z) for z in np.linalg.eigvals(
        np.array(oracle_jacobian(fast, state, slow))))


def _g(fast, v, slow):
    # v' at the gate-slaved state
    return fast.rhs(fast.slaved(v), slow)[0]


def _g_dv(fast, v, slow, step=1e-6):
    return (_g(fast, v + step, slow) - _g(fast, v - step, slow)) / (2.0 * step)


def scalar_root_brackets(fast, slow):
    """Voltage brackets of the sign changes of G over the scan grid."""
    g = np.array([_g(fast, v, slow) for v in _V_GRID])
    sgn = np.sign(g)
    idx = np.nonzero(sgn[1:] * sgn[:-1] < 0)[0]
    return [(_V_GRID[i], _V_GRID[i + 1]) for i in idx]


def newton_equilibrium(fast, v0: float, slow, tol: float = 1e-12,
                       max_iter: int = 60) -> Optional[tuple]:
    """Newton iteration on the full fast rhs from a gate-slaved seed.

    Steps are damped to 20 mV in voltage; iterates leaving the physically
    sensible box are treated as divergence.
    """
    y = list(fast.slaved(v0))
    for _ in range(max_iter):
        try:
            f = fast.rhs(tuple(y), slow)
            jac = np.array(oracle_jacobian(fast, tuple(y), slow))
            dy = np.linalg.solve(jac, np.negative(f))
        except (np.linalg.LinAlgError, ZeroDivisionError, OverflowError):
            return None
        if not np.all(np.isfinite(dy)):
            return None
        scale = min(1.0, 20.0 / abs(dy[0])) if dy[0] != 0.0 else 1.0
        for i, d in enumerate(dy):
            y[i] += scale * d
        if not (-150.0 < y[0] < 80.0):
            return None
        if max(abs(x) for x in f) < tol and np.abs(dy).max() < 1e-9:
            return tuple(y)
    return None


def scalar_relambda(fast, slow):
    """Re of the complex pair at the depolarized equilibrium, or None."""
    brackets = scalar_root_brackets(fast, slow)
    if not brackets:
        return None
    lo, hi = brackets[-1]
    y = newton_equilibrium(fast, 0.5 * (lo + hi), slow)
    if y is None or not (lo - 1.0 <= y[0] <= hi + 1.0):
        return None
    pairs = [z.real for z in _eigvals(fast, y, slow) if abs(z.imag) > 1e-9]
    return max(pairs) if pairs else None


def fold_equilibrium(fast, slow):
    """The degenerate (double-root) equilibrium at a fold point.

    Newton on the full rhs cannot converge there (the Jacobian is singular),
    so the fold voltage is located as the simple root of dG/dv instead.
    """
    vs = _V_GRID
    gv = [_g_dv(fast, v, slow) for v in vs]
    candidates = []
    for i in range(len(vs) - 1):
        if gv[i] == 0.0 or gv[i] * gv[i + 1] < 0:
            lo, hi = vs[i], vs[i + 1]
            glo = gv[i]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                gm = _g_dv(fast, mid, slow)
                if gm == 0.0:
                    lo = hi = mid
                    break
                if (gm > 0) == (glo > 0):
                    lo, glo = mid, gm
                else:
                    hi = mid
            v = 0.5 * (lo + hi)
            candidates.append((abs(_g(fast, v, slow)), v))
    if not candidates:
        return None
    res_g, v = min(candidates)
    state = fast.slaved(v)
    ev = _eigvals(fast, state, slow)
    return Equilibrium(state=state, slow=tuple(slow), eigenvalues=ev,
                       stable=max(z.real for z in ev) < 0.0, branch=-1,
                       residual=res_g)


def fold_ca_oracle(fast, na, ca_window=(-0.2, 1.6), fine_step=1e-4):
    """Ca of the 3 -> 1 equilibrium-count change, scanned at fine_step."""
    count = lambda ca: len(scalar_root_brackets(fast, (ca, na)))
    lo, hi = ca_window
    grid = np.arange(lo, hi, 0.01)
    counts = [count(ca) for ca in grid]
    for i in range(len(grid) - 1):
        if counts[i] >= 3 and counts[i + 1] < 3:
            a, b = grid[i], grid[i + 1]
            fine = np.arange(a, b + fine_step, fine_step)
            prev = a
            for ca in fine:
                if count(ca) < 3:
                    return 0.5 * (prev + ca)
                prev = ca
    return None


def hopf_ca_oracle(fast, na, ca_window=(0.0, 1.6), fine_step=1e-4):
    """Ca where Re of the depolarized complex pair changes sign."""
    grid = np.arange(ca_window[0], ca_window[1], 0.01)
    prev = None
    for ca in grid:
        r = scalar_relambda(fast, (ca, na))
        if r is None:
            prev = None
            continue
        if prev is not None and prev[1] > 0 >= r:
            fine = np.arange(prev[0], ca + fine_step, fine_step)
            last = prev[0]
            for cf in fine:
                rf = scalar_relambda(fast, (cf, na))
                if rf is None or rf <= 0:
                    return 0.5 * (last + cf)
                last = cf
        prev = (ca, r)
    return None


def relambda_level_ca_oracle(fast, na, level, ca_start, ca_stop,
                             tol=1e-6):
    """Ca where Re(lambda) crosses a level, by bisection along fixed Na."""
    lo, hi = ca_start, ca_stop
    r_lo = scalar_relambda(fast, (lo, na))
    r_hi = scalar_relambda(fast, (hi, na))
    if r_lo is None or r_hi is None or (r_lo - level) * (r_hi - level) > 0:
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        r = scalar_relambda(fast, (mid, na))
        if r is None:
            return None
        if (r - level) * (r_lo - level) > 0:
            lo, r_lo = mid, r
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rk4(rhs, y0, t_span, h: float):
    """Fixed-step classical Runge-Kutta solution, the accuracy oracle for
    the adaptive integrator.

    Returns (ts, ys) as numpy arrays including both endpoints; the final
    step is shortened to land exactly on t1.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = tuple(float(v) for v in y0)
    ts = [t0]
    ys = [y]
    t = t0
    while t < t1 - 1e-12:
        step = min(h, t1 - t)
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * step, tuple(yi + 0.5 * step * a for yi, a in zip(y, k1)))
        k3 = rhs(t + 0.5 * step, tuple(yi + 0.5 * step * a for yi, a in zip(y, k2)))
        k4 = rhs(t + step, tuple(yi + step * a for yi, a in zip(y, k3)))
        y = tuple(yi + step / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                  for yi, a, b, c, d in zip(y, k1, k2, k3, k4))
        t += step
        ts.append(t)
        ys.append(y)
    return np.array(ts), np.array(ys)


def dopri_step(rhs, t, y, f, h, rel_tol: float, abs_tol: float):
    """One Dormand-Prince 5(4) step in numpy, from the tableau scipy
    publishes on RK45 (attributes A, B, C, E), not from burstlab's constants.

    Returns (y_new, K, err): the fifth-order solution, the (7, dim) stage
    derivatives (K[0] = f, K[6] = rhs at y_new) and the RMS norm of the
    local error estimate scaled by abs_tol + rel_tol max(|y|, |y_new|).
    """
    y = np.asarray(y, dtype=float)
    K = np.empty((7, y.size))
    K[0] = f
    for s in range(1, 6):
        K[s] = rhs(t + RK45.C[s] * h, tuple(y + h * (RK45.A[s, :s] @ K[:s])))
    y_new = y + h * (RK45.B @ K[:6])
    K[6] = rhs(t + h, tuple(y_new))
    scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
    err = math.sqrt(np.mean((h * (RK45.E @ K) / scale) ** 2))
    return y_new, K, err
