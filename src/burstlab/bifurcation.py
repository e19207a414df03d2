"""Equilibria, eigenvalues and bifurcation curves of a fast subsystem.

All equilibria of both fast subsystems have their gate variables slaved to
the voltage, so the equilibrium set is the zero set of a scalar function
G(v; Ca, Na) = v' evaluated at the gate-slaved state. At such a state the
Jacobian determinant is a positive multiple of dG/dv, so folds are located
as simultaneous roots of (G, dG/dv); this is the determinant form of the
extended fold system. Hopf points are roots in Ca of the real part of the
complex eigenvalue pair at the depolarized equilibrium.

Roots of G are bracketed by its sign changes on a fixed voltage grid, which
the model evaluates in one numpy pass (g_array); Newton on the full rhs,
the eigenvalues and the fold and Hopf solvers stay scalar.

The computed fold curve is labeled SNIC; the invariant-cycle property is
checked separately by period divergence (verify_snic) rather than by
homoclinic continuation.
"""
from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

log = logging.getLogger(__name__)

# voltage grid for root scanning; the hyperpolarized equilibrium can sit
# below -80 mV at low Ca, so this is wider than the Newton seed grid
_V_GRID = np.linspace(-110.0, 30.0, 281)

DEFAULT_NA_RANGE = (4.8, 6.4)
DEFAULT_CA_WINDOW = (-0.2, 1.6)


class ContinuationError(RuntimeError):
    """A curve point could not be located or polished."""


@dataclass(frozen=True)
class Equilibrium:
    """A fast-subsystem equilibrium with its linearization."""

    state: tuple
    slow: tuple
    eigenvalues: tuple
    stable: bool
    branch: int
    residual: float

    @property
    def v(self) -> float:
        return self.state[0]


def _scalar_g(fast, v: float, slow) -> float:
    return fast.rhs(fast.slaved(v), slow)[0]


def _scalar_g_dv(fast, v: float, slow, step: float = 1e-6) -> float:
    return (_scalar_g(fast, v + step, slow)
            - _scalar_g(fast, v - step, slow)) / (2.0 * step)


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
            jac = np.array(fast.jacobian(tuple(y), slow))
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


def eigen(fast, state, slow):
    """Eigenvalues of the fast-subsystem Jacobian at a state.

    Closed form for the two-variable reduction; QR iteration (numpy) for
    the five-variable subsystem.
    """
    jac = fast.jacobian(state, slow)
    if fast.dim == 2:
        (a, b), (c, d) = jac
        tr = 0.5 * (a + d)
        disc = tr * tr - (a * d - b * c)
        if disc >= 0.0:
            root = math.sqrt(disc)
            return (complex(tr + root), complex(tr - root))
        root = math.sqrt(-disc)
        return (complex(tr, root), complex(tr, -root))
    ev = np.linalg.eigvals(np.array(jac))
    return tuple(complex(x) for x in sorted(ev, key=lambda z: (z.real, z.imag)))


def find_equilibria(fast, slow, v_seeds=None, merge_tol: float = 1e-6):
    """All distinct equilibria found by Newton from a deterministic seed grid.

    Seeds run over v in [-80, 20] mV with gates at their voltage-slaved
    fixed points. Duplicates are merged by state-space distance; results are
    ordered by voltage and carry branch ids in that order (0 is the most
    hyperpolarized).
    """
    if v_seeds is None:
        v_seeds = [-80.0 + 2.5 * i for i in range(41)]
    roots: list[tuple] = []
    for v0 in v_seeds:
        y = newton_equilibrium(fast, v0, slow)
        if y is None:
            continue
        if not (-150.0 < y[0] < 60.0):
            continue
        if all(math.dist(y, r) > merge_tol for r in roots):
            roots.append(y)
    roots.sort(key=lambda r: r[0])
    out = []
    for i, y in enumerate(roots):
        ev = eigen(fast, y, slow)
        res = max(abs(x) for x in fast.rhs(y, slow))
        out.append(Equilibrium(
            state=y, slow=tuple(slow), eigenvalues=ev,
            stable=max(z.real for z in ev) < 0.0, branch=i, residual=res))
    if not out:
        log.debug("no equilibria converged at slow=%s", slow)
    return out


def _root_brackets(fast, slow):
    vs = _V_GRID
    sgn = np.sign(fast.g_array(vs, slow))
    idx = np.nonzero(sgn[1:] * sgn[:-1] < 0)[0]
    return [(vs[i], vs[i + 1]) for i in idx]


def equilibrium_count(fast, slow) -> int:
    """Number of equilibria via sign changes of the scalar reduction."""
    return len(_root_brackets(fast, slow))


def depolarized_equilibrium(fast, slow) -> Optional[Equilibrium]:
    """The equilibrium with the largest voltage, or None."""
    brackets = _root_brackets(fast, slow)
    if not brackets:
        return None
    lo, hi = brackets[-1]
    y = newton_equilibrium(fast, 0.5 * (lo + hi), slow)
    if y is None or not (lo - 1.0 <= y[0] <= hi + 1.0):
        return None
    ev = eigen(fast, y, slow)
    res = max(abs(x) for x in fast.rhs(y, slow))
    return Equilibrium(state=y, slow=tuple(slow), eigenvalues=ev,
                       stable=max(z.real for z in ev) < 0.0,
                       branch=len(brackets) - 1, residual=res)


def hopf_test(fast, slow) -> Optional[float]:
    """Re of the complex pair at the depolarized equilibrium, or None."""
    eq = depolarized_equilibrium(fast, slow)
    if eq is None:
        return None
    pairs = [z for z in eq.eigenvalues if abs(z.imag) > 1e-9]
    if not pairs:
        return None
    return max(z.real for z in pairs)


@dataclass
class BifCurve:
    """A tagged polyline in the (Ca, Na)-plane, ordered by increasing Na."""

    kind: str                   # "SNIC" or "AH"
    ca: np.ndarray
    na: np.ndarray
    residual: np.ndarray
    truncated_low: bool = False
    truncated_high: bool = False
    _na_list: list = field(init=False, repr=False, compare=False)
    _ca_list: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.ca = np.asarray(self.ca, dtype=float)
        self.na = np.asarray(self.na, dtype=float)
        self.residual = np.asarray(self.residual, dtype=float)
        if len(self.ca) >= 2 and np.any(np.diff(self.na) <= 0):
            raise ValueError("curve points must be ordered by increasing Na")
        self._na_list = [float(x) for x in self.na]
        self._ca_list = [float(x) for x in self.ca]

    def __len__(self) -> int:
        return len(self.ca)

    def ca_at(self, na: float) -> float:
        """Ca on the polyline at the given Na; the first and last segments
        extend linearly beyond the traced range."""
        nas, cas = self._na_list, self._ca_list
        n = len(nas)
        if n == 1:
            return cas[0]
        i = bisect_right(nas, na) - 1
        if i < 0:
            i = 0
        elif i > n - 2:
            i = n - 2
        frac = (na - nas[i]) / (nas[i + 1] - nas[i])
        return cas[i] + frac * (cas[i + 1] - cas[i])

    def horizontal_offset(self, ca: float, na: float) -> float:
        """Signed horizontal distance Ca - Ca_curve(Na).

        Positive on the larger-Ca side, which for both curves here is the
        side containing the AH curve and the depolarization-block region.
        Shares its zero set and sign with signed_distance, and is the event
        test function used for crossing detection.
        """
        return ca - self.ca_at(na)

    def signed_distance(self, point) -> float:
        """Signed Euclidean distance to the polyline (positive right of it).

        The nearest segment decides the sign; the two end segments are
        extended past their outer endpoints so the function stays smooth
        beyond the traced range.
        """
        p = np.asarray(point, dtype=float)
        pts = np.column_stack([self.ca, self.na])
        if len(pts) == 1:
            return float(np.hypot(*(p - pts[0])))
        a = pts[:-1]
        u = pts[1:] - a
        w = p[None, :] - a
        tproj = np.einsum("ij,ij->i", w, u) / np.einsum("ij,ij->i", u, u)
        if len(u) == 1:
            tclamp = tproj.copy()
        else:
            tclamp = np.clip(tproj, 0.0, 1.0)
            tclamp[0] = min(tproj[0], 1.0)
            tclamp[-1] = max(tproj[-1], 0.0)
        closest = a + tclamp[:, None] * u
        dist = np.hypot(*(p[None, :] - closest).T)
        i = int(np.argmin(dist))
        cross = u[i, 0] * (p[1] - a[i, 1]) - u[i, 1] * (p[0] - a[i, 0])
        return float(dist[i]) * (1.0 if -cross >= 0 else -1.0)

    def write_rows(self, fh) -> None:
        for i in range(len(self.ca)):
            fh.write(f"{self.kind},{self.ca[i]:.17g},{self.na[i]:.17g},"
                     f"{self.residual[i]:.17g}\n")


def write_curves(path, *curves: BifCurve) -> None:
    with open(path, "w") as fh:
        fh.write("kind,Ca,Na,residual\n")
        for c in curves:
            c.write_rows(fh)


def read_curves(path) -> dict:
    """Read a curve CSV back into {kind: BifCurve}."""
    rows: dict[str, list] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "kind,Ca,Na,residual":
            raise ValueError(f"unexpected curve CSV header: {header!r}")
        for line in fh:
            kind, ca, na, res = line.strip().split(",")
            rows.setdefault(kind, []).append((float(na), float(ca), float(res)))
    out = {}
    for kind, pts in rows.items():
        pts.sort()
        out[kind] = BifCurve(
            kind=kind,
            ca=np.array([p[1] for p in pts]),
            na=np.array([p[0] for p in pts]),
            residual=np.array([p[2] for p in pts]))
    return out


def _fold_newton(fast, v0: float, ca0: float, na: float, max_iter: int = 40):
    """Newton on (G, dG/dv) = 0 in unknowns (v, Ca) at fixed Na.

    The dG/dv residual is finite-differenced, with a noise floor around
    1e-10, so convergence accepts either small residuals or a stalled step.
    """
    v, ca = v0, ca0
    hv, hc = 1e-6, 1e-7
    for _ in range(max_iter):
        g = _scalar_g(fast, v, (ca, na))
        gv = _scalar_g_dv(fast, v, (ca, na))
        if abs(g) < 1e-11 and abs(gv) < 5e-9:
            return v, ca
        g_vp = _scalar_g(fast, v + hv, (ca, na))
        g_vm = _scalar_g(fast, v - hv, (ca, na))
        g_cp = _scalar_g(fast, v, (ca + hc, na))
        g_cm = _scalar_g(fast, v, (ca - hc, na))
        gv_cp = _scalar_g_dv(fast, v, (ca + hc, na))
        gv_cm = _scalar_g_dv(fast, v, (ca - hc, na))
        j11 = (g_vp - g_vm) / (2.0 * hv)           # dG/dv
        j12 = (g_cp - g_cm) / (2.0 * hc)           # dG/dCa
        j21 = (_scalar_g_dv(fast, v + hv, (ca, na))
               - _scalar_g_dv(fast, v - hv, (ca, na))) / (2.0 * hv)
        j22 = (gv_cp - gv_cm) / (2.0 * hc)
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            return None
        dv = (-g * j22 + gv * j12) / det
        dca = (-gv * j11 + g * j21) / det
        v += dv
        ca += dca
        if not (-150.0 < v < 80.0):
            return None
        if abs(dv) < 1e-9 and abs(dca) < 1e-12 and abs(g) < 1e-10:
            return v, ca
    return None


def _fold_seed(fast, na: float, ca_window) -> Optional[tuple]:
    """Bracket the 3<->1 equilibrium-count change in Ca and seed the fold."""
    lo, hi = ca_window
    grid = np.linspace(lo, hi, 91)
    counts = [equilibrium_count(fast, (ca, na)) for ca in grid]
    for i in range(len(grid) - 1):
        if counts[i] >= 3 and counts[i + 1] < 3:
            a, b = grid[i], grid[i + 1]
            for _ in range(30):
                mid = 0.5 * (a + b)
                if equilibrium_count(fast, (mid, na)) >= 3:
                    a = mid
                else:
                    b = mid
            ca = 0.5 * (a + b)
            # merging pair: the two closest roots of G
            brackets = _root_brackets(fast, (a, na))
            if len(brackets) < 3:
                return None
            mids = [0.5 * (x + y) for x, y in brackets]
            gaps = [mids[i + 1] - mids[i] for i in range(len(mids) - 1)]
            j = int(np.argmin(gaps))
            v = 0.5 * (mids[j] + mids[j + 1])
            return v, ca
    return None


def trace_fold_curve(fast, na_range=DEFAULT_NA_RANGE, step: float = 0.01,
                     ca_window=DEFAULT_CA_WINDOW) -> BifCurve:
    """Trace the fold (SNIC candidate) curve as a graph over Na.

    Sweeps Na upward; each point solves the determinant-form extended fold
    system seeded from the previous point. The curve is truncated, with the
    corresponding flag set, where the fold leaves the Ca window or no longer
    exists (the three-equilibria wedge closes at low Na).
    """
    na_lo, na_hi = na_range
    nas = np.arange(na_lo, na_hi + 0.5 * step, step)
    pts = []
    truncated_low = False
    prev = None
    for na in nas:
        sol = None
        if prev is not None:
            sol = _fold_newton(fast, prev[0], prev[1], na)
        if sol is None:
            seed = _fold_seed(fast, na, ca_window)
            if seed is not None:
                sol = _fold_newton(fast, seed[0], seed[1], na)
        if sol is None:
            if not pts:
                truncated_low = True
                continue
            log.info("fold lost at Na=%.4g; truncating", na)
            break
        v, ca = sol
        if not (ca_window[0] <= ca <= ca_window[1]):
            if not pts:
                truncated_low = True
                prev = sol
                continue
            break
        state = fast.slaved(v)
        jac = np.array(fast.jacobian(state, (ca, na)))
        det = float(np.linalg.det(jac))
        pts.append((na, ca, abs(det)))
        prev = sol
    if not pts:
        raise ContinuationError("no fold found anywhere in the window")
    truncated_high = pts[-1][0] < na_hi - 0.5 * step
    return BifCurve(kind="SNIC",
                    ca=np.array([p[1] for p in pts]),
                    na=np.array([p[0] for p in pts]),
                    residual=np.array([p[2] for p in pts]),
                    truncated_low=truncated_low,
                    truncated_high=truncated_high)


def _hopf_bisect(fast, na: float, ca_lo: float, ca_hi: float,
                 r_lo: float) -> Optional[float]:
    lo, hi = ca_lo, ca_hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        r = hopf_test(fast, (mid, na))
        if r is None:
            return None
        if abs(r) < 1e-9 or hi - lo < 1e-13:
            return mid
        if (r > 0) == (r_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def trace_hopf_curve(fast, na_range=DEFAULT_NA_RANGE, step: float = 0.01,
                     ca_window=DEFAULT_CA_WINDOW) -> BifCurve:
    """Trace the Andronov-Hopf curve as a graph over Na.

    For each Na the sign change of Re of the complex pair on the depolarized
    branch is bracketed (seeded from the previous point) and polished by
    bisection. Truncates where the pair becomes real or leaves the window.
    """
    na_lo, na_hi = na_range
    nas = np.arange(na_lo, na_hi + 0.5 * step, step)
    pts = []
    truncated_low = False
    prev_ca = None
    for na in nas:
        ca_star = None
        if prev_ca is not None:
            # expand a small bracket around the previous point
            width = 0.02
            while width <= 0.3:
                lo = prev_ca - width
                hi = prev_ca + width
                r_lo = hopf_test(fast, (lo, na))
                r_hi = hopf_test(fast, (hi, na))
                if r_lo is not None and r_hi is not None and (r_lo > 0) != (r_hi > 0):
                    ca_star = _hopf_bisect(fast, na, lo, hi, r_lo)
                    break
                width *= 2.0
        if ca_star is None:
            ca_star = _hopf_scan(fast, na, ca_window)
        if ca_star is None:
            if not pts:
                truncated_low = True
                continue
            log.info("Hopf lost at Na=%.4g; truncating", na)
            break
        if not (ca_window[0] <= ca_star <= ca_window[1]):
            if not pts:
                truncated_low = True
                prev_ca = ca_star
                continue
            break
        r = hopf_test(fast, (ca_star, na))
        pts.append((na, ca_star, abs(r) if r is not None else math.nan))
        prev_ca = ca_star
    if not pts:
        raise ContinuationError("no Hopf point found anywhere in the window")
    truncated_high = pts[-1][0] < na_hi - 0.5 * step
    return BifCurve(kind="AH",
                    ca=np.array([p[1] for p in pts]),
                    na=np.array([p[0] for p in pts]),
                    residual=np.array([p[2] for p in pts]),
                    truncated_low=truncated_low,
                    truncated_high=truncated_high)


def _hopf_scan(fast, na: float, ca_window) -> Optional[float]:
    grid = np.arange(ca_window[0], ca_window[1], 0.02)
    prev = None
    for ca in grid:
        r = hopf_test(fast, (ca, na))
        if r is None:
            prev = None
            continue
        if prev is not None and (prev[1] > 0) != (r > 0):
            return _hopf_bisect(fast, na, prev[0], ca, prev[1])
        prev = (ca, r)
    return None


@dataclass(frozen=True)
class SnicCheck:
    """Result of the period-divergence test at a fold point."""

    ok: bool
    periods: tuple
    reason: str = ""


def verify_snic(fast, fold_point, offsets=(8e-3, 4e-3, 2e-3, 1e-3),
                period_min: float = 100.0, t_measure: float = 6000.0,
                rel_tol: float = 1e-6) -> SnicCheck:
    """Check the invariant-cycle property of a fold point.

    Measures the attracting-orbit period at small Ca offsets on the
    periodic-orbit side of the fold; returns ok only when the periods grow
    monotonically toward the fold and the largest exceeds period_min, the
    infinite-period signature of a SNIC.
    """
    from .landscape import orbit_period

    ca0, na0 = fold_point
    periods = []
    for off in offsets:
        p = orbit_period(fast, (ca0 + off, na0), t_measure=t_measure,
                         rel_tol=rel_tol)
        if p is None:
            return SnicCheck(ok=False, periods=tuple(periods),
                             reason=f"no periodic orbit at offset {off:g}")
        periods.append(p)
    increasing = all(b > a for a, b in zip(periods, periods[1:]))
    if not increasing:
        return SnicCheck(ok=False, periods=tuple(periods),
                         reason="periods not monotone toward the fold")
    if periods[-1] <= period_min:
        return SnicCheck(ok=False, periods=tuple(periods),
                         reason=f"max period {periods[-1]:.3g} <= {period_min:g}")
    return SnicCheck(ok=True, periods=tuple(periods))
