"""Equilibria, eigenvalues and bifurcation curves of a fast subsystem.

All equilibria of both fast subsystems have their gate variables slaved to
the voltage, so the equilibrium set is the zero set of a scalar function
G(v; Ca, Na) = v' evaluated at the gate-slaved state. Roots of G are
bracketed by its sign changes on a fixed voltage grid, which the model
evaluates in one numpy pass (g_array), and each bracket holds one
equilibrium voltage, polished by Brent on G; the state is the gate-slaved
state there. The eigenvalues stay scalar, from the model's complex-step
Jacobian.

Ca enters G only through the CAN conductance a = g_CAN x_CAN(Ca), and G is
affine in a. So at fixed Na the equilibria of every Ca lie on one explicit
branch a(v) (the model's can_branch), and Ca follows from a by inverting
the CAN gate. Both curves are traced on it, each Na node on its own: the
fold is the hyperpolarized local maximum of a(v), where two equilibria
merge (at a fold the Jacobian determinant, a nonzero multiple of dG/dv,
vanishes); the Hopf point is where Re of the complex eigenvalue pair
changes sign along the depolarized part of the branch.

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
from scipy.optimize import brentq

from .model import can_activation, can_calcium

log = logging.getLogger(__name__)

# voltage grid for root scanning; wide enough to hold the hyperpolarized
# equilibrium, which can sit below -80 mV at low Ca
_V_GRID = np.linspace(-110.0, 30.0, 281)
_V_TOL = 1e-13          # mV, Brent tolerance of every equilibrium voltage
_HOPF_SAMPLES = 17      # Re(lambda) samples along the depolarized branch

DEFAULT_NA_RANGE = (4.8, 6.4)
DEFAULT_CA_WINDOW = (-0.2, 1.6)


class ContinuationError(RuntimeError):
    """No point of a curve could be located anywhere in the window."""


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


def _root_brackets(fast, slow):
    vs = _V_GRID
    sgn = np.sign(fast.g_array(vs, slow))
    idx = np.nonzero(sgn[1:] * sgn[:-1] < 0)[0]
    return [(vs[i], vs[i + 1]) for i in idx]


def _bracket_root(fast, bracket, slow) -> float:
    """The equilibrium voltage inside a scan bracket: the root of G."""
    return brentq(fast.g_array, *bracket, args=(slow,), xtol=_V_TOL)


def equilibrium_count(fast, slow) -> int:
    """Number of equilibria via sign changes of the scalar reduction."""
    return len(_root_brackets(fast, slow))


def find_equilibria(fast, slow) -> list:
    """All equilibria, one per sign change of G on the scan grid.

    Each is the gate-slaved state at the root of G in its bracket. Results
    are ordered by voltage and carry branch ids in that order (0 is the
    most hyperpolarized); the residual is the largest |component| of the
    fast rhs there.
    """
    out = []
    for i, bracket in enumerate(_root_brackets(fast, slow)):
        y = fast.slaved(_bracket_root(fast, bracket, slow))
        ev = eigen(fast, y, slow)
        res = max(abs(x) for x in fast.rhs(y, slow))
        out.append(Equilibrium(
            state=y, slow=tuple(slow), eigenvalues=ev,
            stable=max(z.real for z in ev) < 0.0, branch=i, residual=res))
    return out


def _pair_real(eigenvalues) -> Optional[float]:
    """Re of the complex pair among the eigenvalues, or None if none."""
    pairs = [z.real for z in eigenvalues if abs(z.imag) > 1e-9]
    return max(pairs) if pairs else None


def hopf_test(fast, slow) -> Optional[float]:
    """Re of the complex pair at the depolarized equilibrium, or None."""
    brackets = _root_brackets(fast, slow)
    if not brackets:
        return None
    v = _bracket_root(fast, brackets[-1], slow)
    return _pair_real(eigen(fast, fast.slaved(v), slow))


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

    def ca_at_array(self, na):
        """ca_at on a numpy array of Na values."""
        nas, cas = self.na, self.ca
        if len(nas) == 1:
            return np.full(np.shape(na), cas[0])
        i = np.clip(np.searchsorted(nas, na, side="right") - 1, 0, len(nas) - 2)
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


def _fold_point(fast, na: float, ca_window) -> Optional[tuple]:
    """(v, Ca) of the fold at this Na, or None if it is not in the window.

    The fold is the hyperpolarized local maximum of the equilibrium branch
    a(v): the CAN conductance above which the lower two of the three
    equilibria are gone. The grid maximum is polished as the root of det J
    along the branch, taken at a(v) itself: Ca(a) is undefined where a(v)
    leaves (0, g_CAN).
    """
    a = fast.can_branch(_V_GRID, na)
    peaks = np.nonzero((a[1:-1] > a[:-2]) & (a[1:-1] >= a[2:]))[0]
    if not len(peaks):
        return None
    i = peaks[0] + 1
    i_pump = fast._slow_currents(0.0, na)[1]

    def det(v):
        jac = fast._jacobian(fast.slaved(v), float(fast.can_branch(v, na)), i_pump)
        return np.linalg.det(np.array(jac))

    v = brentq(det, _V_GRID[i - 1], _V_GRID[i + 1], xtol=_V_TOL)
    a_fold = fast.can_branch(v, na)
    a_lo, a_hi = sorted(fast.params.g_can * can_activation(ca, fast.params)
                        for ca in ca_window)
    if not a_lo <= a_fold <= a_hi:
        return None
    return v, float(can_calcium(a_fold, fast.params))


def _hopf_point(fast, na: float, ca_window) -> Optional[tuple]:
    """(v, Ca) of the Hopf point at this Na, or None if there is none in
    the window.

    The depolarized equilibria over the window form one branch of a(v),
    between the depolarized equilibria at the window's two ends, along
    which Ca is monotone. Re of the complex pair is sampled along it in v
    and its first sign change polished by Brent. Ca(v) is so steep there
    (the branch spans under 1 mV) that the search runs in v, not in Ca.
    """
    ends = []
    for ca in ca_window:
        brackets = _root_brackets(fast, (ca, na))
        if not brackets:
            return None
        ends.append(_bracket_root(fast, brackets[-1], (ca, na)))

    def pair_real(v):
        ca = float(can_calcium(fast.can_branch(v, na), fast.params))
        r = _pair_real(eigen(fast, fast.slaved(v), (ca, na)))
        return math.nan if r is None else r

    vs = np.linspace(*ends, _HOPF_SAMPLES)
    r = np.array([pair_real(v) for v in vs])
    flips = np.nonzero(np.sign(r[1:]) * np.sign(r[:-1]) < 0)[0]
    if not len(flips):
        return None
    v = brentq(pair_real, vs[flips[0]], vs[flips[0] + 1], xtol=_V_TOL)
    return v, float(can_calcium(fast.can_branch(v, na), fast.params))


def _trace(kind: str, locate, fast, na_range, step: float,
           ca_window) -> BifCurve:
    """Locate a curve point at each node of the Na grid, independently.

    Nodes without a point before the first one found are skipped and flag
    the curve truncated_low; the first such node after it ends the curve.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"curve step must be a positive number, not {step!r}")
    na_lo, na_hi = na_range
    pts = []
    truncated_low = False
    for na in np.arange(na_lo, na_hi + 0.5 * step, step):
        point = locate(fast, na, ca_window)
        if point is None:
            if pts:
                log.info("%s lost at Na=%.4g; truncating", kind, na)
                break
            truncated_low = True
            continue
        v, ca = point
        state, slow = fast.slaved(v), (ca, na)
        if kind == "SNIC":
            res = abs(float(np.linalg.det(np.array(fast.jacobian(state, slow)))))
        else:
            r = _pair_real(eigen(fast, state, slow))
            res = math.nan if r is None else abs(r)
        pts.append((na, ca, res))
    if not pts:
        raise ContinuationError(f"no {kind} point found anywhere in the window")
    return BifCurve(kind=kind,
                    ca=np.array([p[1] for p in pts]),
                    na=np.array([p[0] for p in pts]),
                    residual=np.array([p[2] for p in pts]),
                    truncated_low=truncated_low,
                    truncated_high=pts[-1][0] < na_hi - 0.5 * step)


def trace_fold_curve(fast, na_range=DEFAULT_NA_RANGE, step: float = 0.01,
                     ca_window=DEFAULT_CA_WINDOW) -> BifCurve:
    """Trace the fold (SNIC candidate) curve as a graph over Na.

    Each Na node is solved on its own, as the hyperpolarized maximum of the
    equilibrium branch a(v); the residual column is |det J| there. The
    curve is truncated, with the corresponding flag set, where the fold
    leaves the Ca window or no longer exists (the three-equilibria wedge
    closes at low Na).
    """
    return _trace("SNIC", _fold_point, fast, na_range, step, ca_window)


def trace_hopf_curve(fast, na_range=DEFAULT_NA_RANGE, step: float = 0.01,
                     ca_window=DEFAULT_CA_WINDOW) -> BifCurve:
    """Trace the Andronov-Hopf curve as a graph over Na.

    Each Na node is solved on its own, as the first sign change of Re of
    the complex pair along the depolarized branch of a(v); the residual
    column is |Re| there. Truncates where no sign change lies in the window.
    """
    return _trace("AH", _hopf_point, fast, na_range, step, ca_window)


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
