"""Scalar fields over the (Ca, Na)-plane and contour extraction.

Two field kinds are supported: PERIOD, the period of the attracting
periodic orbit measured by direct simulation and spike-time averaging, and
RE_LAMBDA, the real part of the complex eigenvalue pair at the depolarized
equilibrium. A PERIOD field integrates all its nodes together, each node a
numpy lane of one lockstep Dormand-Prince loop with its own time, step size
and accept decision, and gives every node a status; orbit_period measures
one point on the tuple engine, and both decide the period alike;
orbit_period reads its cycle amplitudes off the extrema of v. Contours come
from marching squares with linear edge interpolation; cells touching
undefined nodes are skipped.
"""
from __future__ import annotations

import functools
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bifurcation
from .features import SPIKE_THRESHOLD, v_range
from .integrate import (LANES, MAX_STEPS, StepSizeError, detect_events,
                        initial_step, integrate, lane_crossings, step_lanes)

log = logging.getLogger(__name__)

PERIOD = "PERIOD"
RE_LAMBDA = "RE_LAMBDA"

# the period measurement of orbit_period and the PERIOD lanes
T_TRANSIENT = 500.0     # ms, doubled on the one retry
T_MEASURE = 400.0       # ms of upward SPIKE_THRESHOLD crossings
N_GAPS = 5              # the period is the mean of the last N_GAPS gaps
SPREAD_TOL = 1e-3       # their largest spread, relative to the mean
DECAY_RATIO = 0.8       # last to first cycle amplitude below it: a focus
REL_TOL = 1e-6
ABS_TOL = 1e-8

# the status of a PERIOD node: a period, or why there is none
DEFINED = "defined"
QUIESCENT = "quiescent"         # fewer than 3 upward level crossings
UNCONVERGED = "unconverged"     # the gap spread did not settle
DECAYED = "decayed"             # the amplitude kept decaying: a focus
STEP_FAILURE = "step_failure"   # the step size underflowed, or the step
                                # budget of a window ran out


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
    (ca_axis[i], na_axis[j]). A PERIOD field built here also carries each
    node's status (DEFINED, QUIESCENT, UNCONVERGED, DECAYED, STEP_FAILURE)."""

    grid: GridSpec
    values: np.ndarray
    kind: str
    status: Optional[np.ndarray] = None

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


def orbit_period(fast, slow, *,
                 t_measure: float = T_MEASURE) -> Optional[float]:
    """Period (ms) of the attracting periodic orbit at a frozen slow point.

    Integrates from the standard seed (v = SPIKE_THRESHOLD, gates slaved)
    through a transient, then averages the gaps between upward crossings of
    that level over t_measure ms. Returns None when fewer than 3 crossings
    occur (quiescent or steady state), when the gap spread does not settle
    after one retry with a doubled transient, when the oscillation amplitude
    keeps decaying (slowly converging focus right of the Hopf curve rather
    than an orbit), or when the step size underflows or the step budget
    runs out (StepSizeError). Any other exception propagates.
    """
    rhs = fast.frozen_rhs(slow)
    y0 = fast.slaved(SPIKE_THRESHOLD)
    for t_warm in (T_TRANSIENT, 2.0 * T_TRANSIENT):
        try:
            tr = integrate(rhs, y0, (0.0, t_warm), rel_tol=REL_TOL,
                           abs_tol=ABS_TOL)
            traj, evs = detect_events(rhs, tuple(tr.ys[-1]),
                                      (t_warm, t_warm + t_measure),
                                      [lambda t, y: y[0] - SPIKE_THRESHOLD],
                                      rel_tol=REL_TOL, abs_tol=ABS_TOL)
        except StepSizeError:
            return None
        ups = [e.t for e in evs if e.direction > 0]
        status, period = _period_verdict(ups, *_cycle_amplitudes(traj, ups))
        if status not in (UNCONVERGED, DECAYED):
            break
    return period


def _cycle_amplitudes(traj, ups):
    # the v-amplitudes (max - min) of the first and last measured cycles
    if len(ups) < 3:
        return 0.0, 0.0
    return tuple(hi - lo for lo, hi in (v_range(traj, ups[0], ups[1]),
                                        v_range(traj, ups[-2], ups[-1])))


def _period_verdict(ups, amp_first, amp_last):
    """(status, period) of one measurement window from its upward crossing
    times (at least the last N_GAPS + 1, in order) and the v-amplitudes of
    its first and last cycles. The period is the mean of the last N_GAPS
    gaps; UNCONVERGED and DECAYED earn orbit_period's one retry."""
    if len(ups) < 3:
        return QUIESCENT, None
    gaps = np.diff(ups)[-N_GAPS:]
    mean = float(np.mean(gaps))
    if amp_first > 0.0 and amp_last < DECAY_RATIO * amp_first:
        return DECAYED, None
    if float((gaps.max() - gaps.min()) / mean) >= SPREAD_TOL:
        return UNCONVERGED, None
    return DEFINED, mean


def _period_lanes(fast, slows):
    """orbit_period's measurement at every slow point, each point a lane of
    one lockstep loop: (periods with NaN where undefined, statuses).

    Every lane follows orbit_period: the transient from the seed, then a
    T_MEASURE window restarted with a fresh initial step, then the one
    retry with a doubled transient, which restarts the lane from the seed
    in place. Upward crossings are stored per lane in a ring of the last
    N_GAPS + 1 steps that crossed and refined when the window ends; the
    cycle amplitudes come from the running extremes of v at the accepted
    step ends. A lane that underflows its step size, or spends integrate's
    step budget on one window, ends as STEP_FAILURE, where orbit_period
    catches StepSizeError. Finished lanes are compacted out. No lane's
    arithmetic involves another lane, so the results do not depend on the
    batch.
    """
    slows = list(slows)
    n = len(slows)
    values = np.full(n, math.nan)
    status = np.full(n, STEP_FAILURE, dtype="<U12")
    if not n:
        return values, status
    ring_len = N_GAPS + 1
    # per point, indexed by point number
    rhs = fast.lane_rhs(slows)
    t = np.zeros(n)
    y_seed = tuple(np.full(n, c) for c in fast.slaved(SPIKE_THRESHOLD))
    f_seed = rhs(t, y_seed)
    h_seed = initial_step(rhs, t, y_seed, f_seed, REL_TOL, ABS_TOL, LANES)
    retried = np.zeros(n, dtype=bool)
    n_ups = np.zeros(n, dtype=int)
    ring = np.zeros((n, ring_len, 10))      # t, h, v and the 7 v-stages
    amp_first = np.zeros(n)
    amp_last = np.zeros(n)
    # per lane, compacted as lanes finish
    ids = np.arange(n)
    y, f, h = y_seed, f_seed, h_seed
    t_end = np.full(n, T_TRANSIENT)
    measuring = np.zeros(n, dtype=bool)
    live = np.ones(n, dtype=bool)
    n_steps = np.zeros(n, dtype=int)    # accepted steps in the window
    top = np.zeros(n)
    bot = np.zeros(n)

    def finish(loc, verdict, period=None):
        values[ids[loc]] = math.nan if period is None else period
        status[ids[loc]] = verdict
        live[loc] = False

    def end_windows(loc):
        # decide the lanes whose measurement window ended; return those
        # that earn the retry
        pts = ids[loc]
        counts = n_ups[pts]
        valid = np.arange(ring_len) < np.minimum(counts, ring_len)[:, None]
        rows = ring[pts][valid]
        times = np.full(valid.shape, math.nan)
        times[valid] = lane_crossings(rows[:, 0], rows[:, 1], rows[:, 2],
                                      rows[:, 3:].T, SPIKE_THRESHOLD)
        retry = []
        for j, (lane, pt, count) in enumerate(zip(loc, pts, counts)):
            kept = min(count, ring_len)     # in time order:
            ups = times[j, [(count - kept + i) % ring_len for i in range(kept)]]
            verdict, period = _period_verdict(ups, amp_first[pt], amp_last[pt])
            if verdict in (UNCONVERGED, DECAYED) and not retried[pt]:
                retry.append(lane)
            else:
                finish(lane, verdict, period)
        return np.array(retry, dtype=int)

    with np.errstate(all="ignore"):     # finished lanes step on garbage
        while ids.size:
            h_used, y_new, k, acc, h, failed = step_lanes(
                rhs, t, y, f, h, t_end, REL_TOL, ABS_TOL)
            n_steps += acc
            failed = live & (failed | (n_steps >= MAX_STEPS))
            if failed.any():
                finish(failed, STEP_FAILURE)
            acc &= live
            # upward crossings and running extremes on measuring lanes
            v = y_new[0]
            m = acc & measuring
            up = m & (y[0] < SPIKE_THRESHOLD) & (v >= SPIKE_THRESHOLD)
            if up.any():
                loc = np.flatnonzero(up)
                pts = ids[loc]
                amp = top[loc] - bot[loc]
                n_ups[pts] += 1
                ring[pts, (n_ups[pts] - 1) % ring_len] = np.stack(
                    (t, h_used, y[0]) + tuple(ks[0] for ks in k), axis=-1)[loc]
                amp_last[pts] = amp
                first = n_ups[pts] == 2
                amp_first[pts[first]] = amp[first]
                top[loc] = SPIKE_THRESHOLD
                bot[loc] = SPIKE_THRESHOLD
            top = np.where(m, np.maximum(top, v), top)
            bot = np.where(m, np.minimum(bot, v), bot)
            t = np.where(acc, t + h_used, t)
            y = tuple(np.where(acc, a, b) for a, b in zip(y_new, y))
            f = tuple(np.where(acc, a, b) for a, b in zip(k[6], f))
            ended = acc & (t >= t_end)
            if ended.any():
                loc = np.flatnonzero(ended)
                sel = loc[~measuring[loc]]      # transients: start measuring
                if sel.size:
                    h[sel] = initial_step(
                        fast.lane_rhs([slows[i] for i in ids[sel]]), t[sel],
                        tuple(c[sel] for c in y), tuple(c[sel] for c in f),
                        REL_TOL, ABS_TOL, LANES)
                    t_end[sel] += T_MEASURE
                    n_ups[ids[sel]] = 0
                sel = loc[measuring[loc]]
                if sel.size:
                    sel = end_windows(sel)      # retries: from the seed
                    pts = ids[sel]
                    retried[pts] = True
                    t[sel] = 0.0
                    for c, c0 in zip(y + f, y_seed + f_seed):
                        c[sel] = c0[pts]
                    h[sel] = h_seed[pts]
                    t_end[sel] = 2.0 * T_TRANSIENT
                measuring[loc] = ~measuring[loc]
                n_steps[loc] = 0
            # compact once an eighth of the lanes have finished: each
            # compaction rebuilds the rhs
            n_dead = ids.size - int(live.sum())
            if n_dead and 8 * n_dead >= ids.size:
                keep = live
                ids = ids[keep]
                t, h, t_end, measuring = t[keep], h[keep], t_end[keep], measuring[keep]
                top, bot = top[keep], bot[keep]
                n_steps = n_steps[keep]
                y = tuple(c[keep] for c in y)
                f = tuple(c[keep] for c in f)
                live = live[keep]
                if ids.size:
                    rhs = fast.lane_rhs([slows[i] for i in ids])
    return values, status


def relambda(fast, slow) -> Optional[float]:
    """Re of the complex pair at the depolarized equilibrium, or None."""
    return bifurcation.hopf_test(fast, slow)


def _map(fn, workers, items, chunksize=1):
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))
    return [fn(item) for item in items]


def build_field(kind: str, grid: GridSpec, fast,
                workers: Optional[int] = None) -> ScalarField:
    """Evaluate a field on every grid node.

    A PERIOD field runs its nodes as the lanes of one lockstep loop, with
    orbit_period's measurement and a status per node; with workers > 1
    the nodes are split into that many contiguous chunks, one loop per
    worker process. RE_LAMBDA nodes are evaluated one by one, in a process
    pool with workers > 1. Workers receive the model object pickled. Lanes
    and nodes do not interact and results are assembled in node order, so
    the field does not depend on the worker count. Per-node failures are
    recorded as undefined.
    """
    if kind not in (PERIOD, RE_LAMBDA):
        raise ValueError(f"unknown field kind {kind!r}")
    if workers is None:
        workers = sweep_workers()
    shape = (grid.n_ca, grid.n_na)
    nodes = [(float(ca), float(na))
             for ca in grid.ca_axis() for na in grid.na_axis()]
    if kind == PERIOD:
        size = -(-len(nodes) // workers)
        chunks = _map(functools.partial(_period_lanes, fast), workers,
                      [nodes[i:i + size] for i in range(0, len(nodes), size)])
        values, status = (np.concatenate(parts).reshape(shape)
                          for parts in zip(*chunks))
        return ScalarField(grid=grid, values=values, kind=kind, status=status)
    results = _map(functools.partial(relambda, fast), workers, nodes,
                   chunksize=max(1, len(nodes) // (workers * 8)))
    values = np.array([math.nan if r is None else r for r in results])
    return ScalarField(grid=grid, values=values.reshape(shape), kind=kind)


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
