"""Reference model and correctness checks, written apart from burstlab.model.

The formulas follow the model equations of the paper: six membrane currents,
logistic gates with cosh time constants, and an imposed elliptic slow path.
Only the parameter values come from burstlab (they are data, not code).
Equilibria are found on a fine voltage grid, Jacobians by central finite
differences, and trajectories by scipy's DOP853.

Every check returns a list of failure messages; an empty list is a pass.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

SPIKE_LEVEL = -20.0
V_GRID = np.linspace(-110.0, 30.0, 14001)      # 0.01 mV spacing


class RefModel:
    """One fast subsystem: 'reduced' (v, n) or 'full' (v, n, m, h, s)."""

    def __init__(self, params, which: str):
        if which not in ("reduced", "full"):
            raise ValueError(which)
        self.p = params
        self.which = which
        self.dim = 2 if which == "reduced" else 5

    # gates, written for numpy arrays or floats through the exp argument
    def _inf(self, v, theta, sigma, exp):
        return 1.0 / (1.0 + exp((v - theta) / sigma))

    def _tau(self, v, t_x, theta, sigma, exp):
        x = (v - theta) / (2.0 * sigma)
        return t_x * 2.0 / (exp(x) + exp(-x))

    def _s_slaved(self, v, exp):
        si = self._inf(v, self.p.theta_s, self.p.sigma_s, exp)
        return si / (si + self.p.k)

    def _i_slow(self, v, ca, na, exp):
        p = self.p
        a_can = 1.0 / (1.0 + exp((ca - p.k_can) / p.sigma_can))
        pump = p.r_pump * (na ** 3 / (na ** 3 + p.k_na ** 3)
                           - p.na_b ** 3 / (p.na_b ** 3 + p.k_na ** 3))
        return p.g_can * a_can * (v - p.e_can) + pump

    def _dv(self, v, n, m, h, s, ca, na, exp):
        p = self.p
        i_ion = (p.g_l * (v - p.e_l) + p.g_k * n ** 4 * (v - p.e_k)
                 + p.g_na * m ** 3 * h * (v - p.e_na)
                 + p.g_syn * s * (v - p.e_syn))
        return -(i_ion + self._i_slow(v, ca, na, exp)) / p.c

    def g(self, v, ca, na):
        """dv/dt with every gate at its voltage-slaved value (arrays)."""
        p, e = self.p, np.exp
        with np.errstate(over="ignore"):
            n = self._inf(v, p.theta_n, p.sigma_n, e)
            m = self._inf(v, p.theta_m, p.sigma_m, e)
            h = (1.0 - 1.08 * n if self.which == "reduced"
                 else self._inf(v, p.theta_h, p.sigma_h, e))
            return self._dv(v, n, m, h, self._s_slaved(v, e), ca, na, e)

    def slaved(self, v: float):
        p, e = self.p, math.exp
        n = self._inf(v, p.theta_n, p.sigma_n, e)
        if self.which == "reduced":
            return (v, n)
        return (v, n, self._inf(v, p.theta_m, p.sigma_m, e),
                self._inf(v, p.theta_h, p.sigma_h, e), self._s_slaved(v, e))

    def fast(self, y, ca, na):
        """Fast-subsystem derivative at a state, (Ca, Na) frozen (floats)."""
        p, e = self.p, math.exp
        if self.which == "reduced":
            v, n = y[0], y[1]
            m = self._inf(v, p.theta_m, p.sigma_m, e)
            dv = self._dv(v, n, m, 1.0 - 1.08 * n, self._s_slaved(v, e),
                          ca, na, e)
            return [dv, self._gate_rate(v, n, p.theta_n, p.sigma_n, p.t_n)]
        v, n, m, h, s = y[0], y[1], y[2], y[3], y[4]
        dv = self._dv(v, n, m, h, s, ca, na, e)
        ds = ((1.0 - s) * self._inf(v, p.theta_s, p.sigma_s, e)
              - p.k * s) / p.tau_s
        return [dv, self._gate_rate(v, n, p.theta_n, p.sigma_n, p.t_n),
                self._gate_rate(v, m, p.theta_m, p.sigma_m, p.t_m),
                self._gate_rate(v, h, p.theta_h, p.sigma_h, p.t_h), ds]

    def _gate_rate(self, v, x, theta, sigma, t_x):
        e = math.exp
        return ((self._inf(v, theta, sigma, e) - x)
                / self._tau(v, t_x, theta, sigma, e))

    def frozen(self, ca, na):
        return lambda t, y: self.fast(y, ca, na)

    def driven(self, path):
        """Fast variables plus the imposed ellipse; state (..., Ca, Na)."""
        k = self.dim
        ed, eod = path.eps * path.d, path.eps / path.d

        def rhs(t, y):
            ca, na = y[k], y[k + 1]
            return self.fast(y, ca, na) + [-ed * (na - path.na_c),
                                           eod * (ca - path.ca_c)]
        return rhs

    # equilibria and linearization
    def roots(self, ca, na):
        """Voltages of all equilibria, from sign changes on V_GRID."""
        gv = self.g(V_GRID, ca, na)
        idx = np.nonzero(np.sign(gv[1:]) * np.sign(gv[:-1]) < 0)[0]
        return [brentq(lambda v: float(self.g(np.array(v), ca, na)),
                       V_GRID[i], V_GRID[i + 1], xtol=1e-13) for i in idx]

    def count(self, ca, na) -> int:
        gv = self.g(V_GRID, ca, na)
        return int(np.count_nonzero(np.sign(gv[1:]) * np.sign(gv[:-1]) < 0))

    def jacobian(self, y, ca, na):
        y = np.asarray(y, dtype=float)
        cols = []
        for j in range(len(y)):
            h = 1e-6 * max(1.0, abs(y[j]))
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            cols.append((np.array(self.fast(yp, ca, na))
                         - np.array(self.fast(ym, ca, na))) / (2.0 * h))
        return np.column_stack(cols)

    def re_lambda(self, ca, na):
        """Re of the complex pair at the highest-voltage equilibrium."""
        vs = self.roots(ca, na)
        if not vs:
            return None
        ev = np.linalg.eigvals(self.jacobian(self.slaved(vs[-1]), ca, na))
        pair = [z.real for z in ev if abs(z.imag) > 1e-9]
        return max(pair) if pair else None

    def period(self, ca, na, t_transient=600.0, t_measure=300.0, gaps=5):
        """Orbit period at a frozen slow point by DOP853 and crossing times.

        The measured window doubles, up to 4.8 s, until it holds gaps + 1
        upward crossings, so long periods next to SNIC are measured too.
        """
        ev = lambda t, y: y[0] - SPIKE_LEVEL
        ev.direction = 1.0
        while True:
            sol = solve_ivp(self.frozen(ca, na),
                            (0.0, t_transient + t_measure),
                            list(self.slaved(SPIKE_LEVEL)), method="DOP853",
                            rtol=1e-9, atol=1e-9, events=ev, max_step=2.0)
            ups = sol.t_events[0]
            ups = ups[ups > t_transient]
            if len(ups) > gaps:
                return float(np.mean(np.diff(ups)[-gaps:]))
            if t_measure >= 4800.0:
                return None
            t_measure *= 2.0


def polyline_distance(points, ca, na) -> np.ndarray:
    """Euclidean distance from each point to the polyline (ca, na)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    a = np.column_stack([ca[:-1], na[:-1]])
    u = np.column_stack([np.diff(ca), np.diff(na)])
    w = pts[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("pik,ik->pi", w, u) / np.einsum("ik,ik->i", u, u),
                0.0, 1.0)
    d = w - t[:, :, None] * u[None, :, :]
    return np.sqrt((d ** 2).sum(-1)).min(axis=1)


# --------------------------------------------------------------- curves

FOLD_OFFSET = 2e-3      # Ca offset on each side of a traced point
HOPF_RE_TOL = 1e-4      # |Re lambda| at a traced Hopf point


def check_fold_points(ref: RefModel, ca, na, idx) -> list:
    """3 or more equilibria just left of each fold point, 1 just right."""
    bad = []
    for i in idx:
        left = ref.count(ca[i] - FOLD_OFFSET, na[i])
        right = ref.count(ca[i] + FOLD_OFFSET, na[i])
        if left < 3 or right != 1:
            bad.append(f"{ref.which} fold ({ca[i]:.6g}, {na[i]:.6g}): "
                       f"{left} equilibria left, {right} right")
    return bad


def check_hopf_points(ref: RefModel, ca, na, idx) -> list:
    """Re lambda near 0 at each Hopf point and changing sign across it."""
    bad = []
    for i in idx:
        r0 = ref.re_lambda(ca[i], na[i])
        rl = ref.re_lambda(ca[i] - FOLD_OFFSET, na[i])
        rr = ref.re_lambda(ca[i] + FOLD_OFFSET, na[i])
        if None in (r0, rl, rr) or abs(r0) > HOPF_RE_TOL or rl * rr >= 0:
            bad.append(f"{ref.which} Hopf ({ca[i]:.6g}, {na[i]:.6g}): "
                       f"Re = {rl}, {r0}, {rr} across the point")
    return bad


def check_ah_right_of_snic(snic, ah) -> list:
    lo, hi = max(snic.na[0], ah.na[0]), min(snic.na[-1], ah.na[-1])
    nas = np.concatenate([snic.na, ah.na])
    nas = nas[(nas >= lo) & (nas <= hi)]
    if len(nas) == 0:
        return ["SNIC and AH share no Na range"]
    gap = np.interp(nas, ah.na, ah.ca) - np.interp(nas, snic.na, snic.ca)
    if gap.min() <= 0.0:
        k = int(np.argmin(gap))
        return [f"AH not right of SNIC at Na {nas[k]:.6g} (gap {gap[k]:.3g})"]
    return []


def check_curves(ref: RefModel, snic, ah, rng, n_sample: int) -> list:
    """The fold and Hopf conditions at seeded points, and the ordering."""
    fi = rng.choice(len(snic.ca), size=min(n_sample, len(snic.ca)),
                    replace=False)
    hi = rng.choice(len(ah.ca), size=min(n_sample, len(ah.ca)),
                    replace=False)
    return (check_fold_points(ref, snic.ca, snic.na, sorted(fi))
            + check_hopf_points(ref, ah.ca, ah.na, sorted(hi))
            + check_ah_right_of_snic(snic, ah))


# --------------------------------------------------------------- fields

FIELD_REL_TOL = 1e-3


def _axes(grid):
    return (np.linspace(grid.ca_min, grid.ca_max, grid.n_ca),
            np.linspace(grid.na_min, grid.na_max, grid.n_na))


def sample_nodes(values, rng, n: int, defined: bool = True):
    """Seeded node indices, among the defined ones when asked."""
    mask = np.isfinite(values) if defined else np.ones(values.shape, bool)
    nodes = np.argwhere(mask)
    if len(nodes) == 0:
        return []
    pick = rng.choice(len(nodes), size=min(n, len(nodes)), replace=False)
    return [tuple(int(x) for x in nodes[k]) for k in sorted(pick)]


def check_relambda_nodes(ref: RefModel, grid, values, nodes) -> list:
    cas, nas = _axes(grid)
    bad = []
    for i, j in nodes:
        r = ref.re_lambda(cas[i], nas[j])
        got = values[i, j]
        if r is None or not math.isfinite(got):
            if (r is None) != (not math.isfinite(got)):
                bad.append(f"RE_LAMBDA node ({cas[i]:.4g}, {nas[j]:.4g}): "
                           f"field {got}, reference {r}")
            continue
        if abs(got - r) > FIELD_REL_TOL * max(abs(r), 1e-4):
            bad.append(f"RE_LAMBDA node ({cas[i]:.4g}, {nas[j]:.4g}): "
                       f"field {got:.6g}, reference {r:.6g}")
    return bad


def check_zero_contour(grid, zero_polylines, ah) -> list:
    """Every vertex of the Re lambda = 0 contour lies within one cell
    diagonal of the traced AH curve."""
    pts = [p for poly in zero_polylines for p in poly]
    if not pts:
        return ["RE_LAMBDA field has no zero contour"]
    diag = math.hypot((grid.ca_max - grid.ca_min) / (grid.n_ca - 1),
                      (grid.na_max - grid.na_min) / (grid.n_na - 1))
    dist = polyline_distance(pts, ah.ca, ah.na)
    if dist.max() > diag:
        return [f"zero contour strays {dist.max():.4g} from AH "
                f"(cell diagonal {diag:.4g})"]
    return []


def check_period_region(grid, values, snic, ah) -> list:
    """Defined nodes lie between SNIC and AH, within one cell. Below and
    above the SNIC curve's Na range there is no fold, so no left bound."""
    cas, nas = _axes(grid)
    dca = cas[1] - cas[0]
    bad = []
    for i, j in np.argwhere(np.isfinite(values)):
        lo = (np.interp(nas[j], snic.na, snic.ca) - dca
              if snic.na[0] <= nas[j] <= snic.na[-1] else -math.inf)
        hi = np.interp(nas[j], ah.na, ah.ca) + dca
        if not lo <= cas[i] <= hi:
            bad.append(f"PERIOD defined outside the curves at "
                       f"({cas[i]:.4g}, {nas[j]:.4g})")
    return bad


def check_period_near_snic(grid, values, snic) -> list:
    """The period diverges at SNIC: in every row inside the SNIC range, the
    defined node nearest SNIC has the row's largest period."""
    cas, nas = _axes(grid)
    bad, rows = [], 0
    for j, na in enumerate(nas):
        if not snic.na[0] <= na <= snic.na[-1]:
            continue
        row = values[:, j]
        defined = np.nonzero(np.isfinite(row))[0]
        if len(defined) == 0:
            continue
        rows += 1
        first = defined[0]
        if row[first] < np.nanmax(row):
            bad.append(f"period {row[first]:.4g} ms next to SNIC at "
                       f"({cas[first]:.4g}, {na:.4g}) is below the row's "
                       f"largest, {np.nanmax(row):.4g} ms")
    if not rows:
        bad.append("no defined PERIOD node inside the SNIC range")
    return bad


def check_period_nodes(ref: RefModel, grid, values, nodes) -> list:
    cas, nas = _axes(grid)
    bad = []
    for i, j in nodes:
        r = ref.period(cas[i], nas[j])
        if r is None or abs(values[i, j] - r) > FIELD_REL_TOL * r:
            bad.append(f"PERIOD node ({cas[i]:.4g}, {nas[j]:.4g}): "
                       f"field {values[i, j]:.6g}, reference {r}")
    return bad


# --------------------------------------------------------------- driven

DB_SEQUENCE = "SNIC+,AH+,AH-,SNIC-"
Q_DRIFT_TOL = 1e-6
CLOSURE_TOL = 1e-6      # relative to the ellipse's half-width
SPIKE_T_TOL = 0.01      # ms


def check_trace_shape(label, trace) -> list:
    """DB crossing sequence; period 2 pi/eps, after which the slow pair is
    back where it started; the ellipse invariant Q conserved."""
    bad = []
    path = trace.path
    seq = ",".join(f"{e.label}{'+' if e.direction > 0 else '-'}"
                   for e in trace.events)
    if seq != DB_SEQUENCE:
        bad.append(f"{label}: crossing sequence {seq or 'none'}")
    traj = trace.trajectory
    ends = traj.sample([trace.t_start, trace.t_start + trace.period])[:, -2:]
    gap = float(np.hypot(*(ends[1] - ends[0])))
    if (not math.isclose(trace.period, 2.0 * math.pi / path.eps,
                         rel_tol=1e-12) or gap > CLOSURE_TOL * path.delta):
        bad.append(f"{label}: period {trace.period} is not 2 pi/eps, or the "
                   f"slow orbit misses its start by {gap:.3g} after it")
    ys = traj.ys
    ca, na = ys[:, -2], ys[:, -1]
    q = (ca - path.ca_c) ** 2 + path.d ** 2 * (na - path.na_c) ** 2
    drift = float(np.abs(q - q[0]).max() / q[0])
    if drift >= Q_DRIFT_TOL:
        bad.append(f"{label}: ellipse invariant drifts {drift:.3g}")
    return bad


def reference_spikes(ref: RefModel, trace, t0: float, t1: float):
    """Spike peak times in [t0, t1) from a DOP853 run of the reference
    driven system, started from the trace's last knot before t0."""
    traj = trace.trajectory
    k = max(0, int(np.searchsorted(traj.ts, t0, side="right")) - 1)
    rhs = ref.driven(trace.path)
    peak = lambda t, y: rhs(t, y)[0]
    peak.direction = -1.0
    sol = solve_ivp(rhs, (float(traj.ts[k]), t1 + 1.0), list(traj.ys[k]),
                    method="DOP853", rtol=1e-10, atol=1e-10, events=peak,
                    max_step=1.0)
    return [float(t) for t, y in zip(sol.t_events[0], sol.y_events[0])
            if t0 <= t < t1 and y[0] > SPIKE_LEVEL]


def check_stage2_spikes(ref: RefModel, label, trace) -> list:
    """Stage-(ii) spike count and times against the reference integration."""
    ups = [e.t for e in trace.events if e.direction > 0]
    if len(ups) < 2:
        return [f"{label}: no stage (ii) window"]
    t0, t1 = ups[0], ups[1]
    mine = [s.t for s in trace.spikes if t0 <= s.t < t1]
    theirs = reference_spikes(ref, trace, t0, t1)
    if len(mine) != len(theirs):
        return [f"{label}: {len(mine)} stage-(ii) spikes, reference "
                f"{len(theirs)}"]
    if mine:
        err = max(abs(a - b) for a, b in zip(mine, theirs))
        if err > SPIKE_T_TOL:
            return [f"{label}: stage-(ii) spike times differ by {err:.3g} ms"]
    return []


def check_fit_improves(result, n_phase1: int) -> list:
    """The fit's best distance is below its best phase-1 distance."""
    p1 = [tr.distance for tr in result.trials[:n_phase1] if tr.db]
    if not p1:
        return ["fit: no DB trial in phase 1"]
    if not result.best_distance < min(p1):
        return [f"fit: best distance {result.best_distance:.4g} is not "
                f"below the phase-1 best {min(p1):.4g}"]
    return []


def check_fit_recovers(result, truth: dict, tol: dict) -> list:
    """The best path's free parameters lie within tol of the truth."""
    bad = []
    for name, want in truth.items():
        got = getattr(result.best_path, name)
        if abs(got - want) > tol[name]:
            bad.append(f"fit: recovered {name} = {got:.5g}, true {want:g}")
    return bad
