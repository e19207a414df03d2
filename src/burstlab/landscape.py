"""Scalar fields over the (Ca, Na)-plane and contour extraction.

Two field kinds are supported: PERIOD, the period of the attracting
periodic orbit measured by direct simulation and spike-time averaging, and
RE_LAMBDA, the real part of the complex eigenvalue pair at the depolarized
equilibrium. Contours come from marching squares with linear edge
interpolation; cells touching undefined nodes are skipped.
"""
from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bifurcation
from .integrate import StepSizeError, detect_events, integrate

log = logging.getLogger(__name__)

PERIOD = "PERIOD"
RE_LAMBDA = "RE_LAMBDA"


def sweep_workers() -> int:
    """Concurrency cap for grid sweeps: BURSTLAB_THREADS or the CPU count."""
    env = os.environ.get("BURSTLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            log.warning("ignoring BURSTLAB_THREADS=%r: not an integer", env)
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid over the slow plane."""

    ca_min: float
    ca_max: float
    na_min: float
    na_max: float
    n_ca: int = 121
    n_na: int = 121

    def __post_init__(self):
        if self.n_ca < 2 or self.n_na < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        if not (self.ca_max > self.ca_min and self.na_max > self.na_min):
            raise ValueError("grid extents must be increasing")

    def ca_axis(self) -> np.ndarray:
        return np.linspace(self.ca_min, self.ca_max, self.n_ca)

    def na_axis(self) -> np.ndarray:
        return np.linspace(self.na_min, self.na_max, self.n_na)

    @property
    def cell(self):
        return ((self.ca_max - self.ca_min) / (self.n_ca - 1),
                (self.na_max - self.na_min) / (self.n_na - 1))

    @property
    def cell_diag(self) -> float:
        dca, dna = self.cell
        return math.hypot(dca, dna)


@dataclass
class ScalarField:
    """Grid values with NaN marking undefined nodes; values[i, j] belongs to
    (ca_axis[i], na_axis[j])."""

    grid: GridSpec
    values: np.ndarray
    kind: str

    def defined_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    def write_csv(self, fh) -> None:
        fh.write("Ca,Na,value\n")
        cas = self.grid.ca_axis()
        nas = self.grid.na_axis()
        for i, ca in enumerate(cas):
            for j, na in enumerate(nas):
                v = self.values[i, j]
                sval = "" if not np.isfinite(v) else f"{v:.17g}"
                fh.write(f"{ca:.17g},{na:.17g},{sval}\n")

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            self.write_csv(fh)

    @classmethod
    def from_csv(cls, path, kind: str = "") -> "ScalarField":
        cas, nas, vals = [], [], []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "Ca,Na,value":
                raise ValueError(f"unexpected field CSV header: {header!r}")
            for line in fh:
                ca, na, v = line.rstrip("\n").split(",")
                cas.append(float(ca))
                nas.append(float(na))
                vals.append(float(v) if v else math.nan)
        ca_ax = np.unique(cas)
        na_ax = np.unique(nas)
        grid = GridSpec(ca_ax[0], ca_ax[-1], na_ax[0], na_ax[-1],
                        len(ca_ax), len(na_ax))
        values = np.full((len(ca_ax), len(na_ax)), math.nan)
        for ca, na, v in zip(cas, nas, vals):
            i = int(np.searchsorted(ca_ax, ca))
            j = int(np.searchsorted(na_ax, na))
            values[i, j] = v
        return cls(grid=grid, values=values, kind=kind)


def orbit_period(fast, slow, *, level: float = -20.0, t_transient: float = 500.0,
                 t_measure: float = 400.0, n_gaps: int = 5,
                 spread_tol: float = 1e-3, rel_tol: float = 1e-6,
                 abs_tol: float = 1e-8, _retry: bool = True) -> Optional[float]:
    """Period (ms) of the attracting periodic orbit at a frozen slow point.

    Integrates from the standard seed (v = level, gates slaved) through a
    transient, then averages the gaps between upward level crossings. Returns
    None when fewer than 3 crossings occur (quiescent or steady state), when
    the gap spread does not settle after one retry with a doubled transient,
    when the oscillation amplitude keeps decaying (slowly converging
    focus right of the Hopf curve rather than an orbit), or when the step
    size underflows (StepSizeError). Any other exception propagates.
    """
    rhs = fast.frozen_rhs(slow)
    y0 = fast.slaved(level)
    try:
        tr = integrate(rhs, y0, (0.0, t_transient), rel_tol=rel_tol, abs_tol=abs_tol)
        y1 = tuple(tr.ys[-1])
        traj, evs = detect_events(rhs, y1, (t_transient, t_transient + t_measure),
                                  [lambda t, y: y[0] - level],
                                  rel_tol=rel_tol, abs_tol=abs_tol)
    except StepSizeError:
        return None
    ups = [e.t for e in evs if e.direction > 0]
    if len(ups) < 3:
        return None
    gaps = np.diff(ups)[-n_gaps:]
    mean = float(np.mean(gaps))
    spread = float((gaps.max() - gaps.min()) / mean)
    decayed = _amplitude_decayed(traj, ups)
    if spread >= spread_tol or decayed:
        if _retry:
            return orbit_period(fast, slow, level=level,
                                t_transient=2.0 * t_transient,
                                t_measure=t_measure, n_gaps=n_gaps,
                                spread_tol=spread_tol, rel_tol=rel_tol,
                                abs_tol=abs_tol, _retry=False)
        return None
    return mean


def _amplitude_decayed(traj, ups, ratio: float = 0.8) -> bool:
    # compare the v-amplitude of the first and last measured cycles
    if len(ups) < 3:
        return False
    ts_a = np.linspace(ups[0], ups[1], 80)
    ts_b = np.linspace(ups[-2], ups[-1], 80)
    va = traj.sample(ts_a)[:, 0]
    vb = traj.sample(ts_b)[:, 0]
    amp_a = float(va.max() - va.min())
    amp_b = float(vb.max() - vb.min())
    if amp_a <= 0.0:
        return False
    return amp_b < ratio * amp_a


def relambda(fast, slow) -> Optional[float]:
    """Re of the complex pair at the depolarized equilibrium, or None."""
    return bifurcation.hopf_test(fast, slow)


def _eval_node(args):
    kind, fast, ca, na, opts = args
    if kind == PERIOD:
        return orbit_period(fast, (ca, na), **opts)
    return relambda(fast, (ca, na))


def build_field(kind: str, grid: GridSpec, fast, workers: Optional[int] = None,
                **opts) -> ScalarField:
    """Evaluate a field on every grid node.

    Node evaluations are independent; with workers > 1 they run in a process
    pool, which receives the model object pickled. Assembly order is fixed
    by node index, so the result does not depend on scheduling. Per-node
    failures are recorded as undefined.
    """
    if kind not in (PERIOD, RE_LAMBDA):
        raise ValueError(f"unknown field kind {kind!r}")
    if workers is None:
        workers = sweep_workers()
    cas = grid.ca_axis()
    nas = grid.na_axis()
    tasks = [(kind, fast, float(ca), float(na), opts)
             for ca in cas for na in nas]
    if workers > 1:
        chunk = max(1, len(tasks) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_eval_node, tasks, chunksize=chunk))
    else:
        results = [_eval_node(t) for t in tasks]
    values = np.full((grid.n_ca, grid.n_na), math.nan)
    it = iter(results)
    for i in range(grid.n_ca):
        for j in range(grid.n_na):
            r = next(it)
            if r is not None:
                values[i, j] = r
    return ScalarField(grid=grid, values=values, kind=kind)


@dataclass
class ContourSet:
    """Level values and the polylines extracted for each of them."""

    levels: tuple
    polylines: dict     # level -> list of (N, 2) arrays of (Ca, Na)

    def write_csv(self, fh) -> None:
        fh.write("level,segment,Ca,Na\n")
        for level in self.levels:
            for si, poly in enumerate(self.polylines.get(level, [])):
                for ca, na in poly:
                    fh.write(f"{level:.17g},{si},{ca:.17g},{na:.17g}\n")

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            self.write_csv(fh)


def extract_contours(field: ScalarField, levels: Sequence[float]) -> ContourSet:
    """Marching squares on the defined cells of a field.

    Edge crossings are linearly interpolated; segments are chained into
    polylines through shared cell edges. Cells with any undefined corner are
    skipped, as are levels outside the field's range.
    """
    if int(field.defined_mask().sum()) < 4:
        raise ValueError("field needs at least a 2x2 block of defined nodes")
    cas = field.grid.ca_axis()
    nas = field.grid.na_axis()
    vals = field.values
    out = {}
    for level in levels:
        segments = _cells_segments(vals, cas, nas, float(level))
        out[float(level)] = _chain_segments(segments)
    return ContourSet(levels=tuple(float(l) for l in levels), polylines=out)


def _cells_segments(vals, cas, nas, level):
    """Per-cell contour segments keyed by the crossed grid edges."""
    n_ca, n_na = vals.shape
    segments = []
    for i in range(n_ca - 1):
        for j in range(n_na - 1):
            f = (vals[i, j], vals[i + 1, j], vals[i + 1, j + 1], vals[i, j + 1])
            if not all(math.isfinite(x) for x in f):
                continue
            above = [x > level for x in f]
            if all(above) or not any(above):
                continue
            # cell corners 0:(i,j) 1:(i+1,j) 2:(i+1,j+1) 3:(i,j+1);
            # edge k connects corner k and (k+1) % 4
            corners = ((cas[i], nas[j]), (cas[i + 1], nas[j]),
                       (cas[i + 1], nas[j + 1]), (cas[i], nas[j + 1]))
            edge_ids = (("na", i, j), ("ca", i + 1, j),
                        ("na", i, j + 1), ("ca", i, j))
            crossed = []
            for k in range(4):
                a, b = k, (k + 1) % 4
                if above[a] != above[b]:
                    denom = f[b] - f[a]
                    t = 0.5 if denom == 0.0 else (level - f[a]) / denom
                    t = min(max(t, 0.0), 1.0)
                    x = corners[a][0] + t * (corners[b][0] - corners[a][0])
                    y = corners[a][1] + t * (corners[b][1] - corners[a][1])
                    crossed.append((edge_ids[k], (x, y)))
            if len(crossed) == 2:
                segments.append((crossed[0], crossed[1]))
            elif len(crossed) == 4:
                # saddle cell: disambiguate by the center value
                center = 0.25 * sum(f)
                if (center > level) == above[0]:
                    segments.append((crossed[0], crossed[3]))
                    segments.append((crossed[1], crossed[2]))
                else:
                    segments.append((crossed[0], crossed[1]))
                    segments.append((crossed[2], crossed[3]))
    return segments


def _chain_segments(segments):
    """Join segments sharing grid edges into polylines."""
    coords = {}
    adj = {}
    for (ea, pa), (eb, pb) in segments:
        coords[ea] = pa
        coords[eb] = pb
        adj.setdefault(ea, []).append(eb)
        adj.setdefault(eb, []).append(ea)
    used = set()
    polylines = []
    for start in coords:
        if start in used or len(adj[start]) != 1:
            continue
        chain = _walk(start, adj, used)
        polylines.append(np.array([coords[e] for e in chain]))
    # closed loops: remaining unused edges
    for start in coords:
        if start in used:
            continue
        chain = _walk(start, adj, used)
        if len(chain) > 2:
            chain.append(chain[0])
        polylines.append(np.array([coords[e] for e in chain]))
    return polylines


def _walk(start, adj, used):
    chain = [start]
    used.add(start)
    cur = start
    while True:
        nxt = [e for e in adj[cur] if e not in used]
        if not nxt:
            break
        cur = nxt[0]
        chain.append(cur)
        used.add(cur)
    return chain
