"""Burst traces: spike detection, stage segmentation and feature extraction.

A BurstTrace is one full burst cycle of a driven or autonomous model,
annotated with its SNIC/AH curve crossings and detected spikes. Spike
peaks, v_floor and every other extremum of v come from Trajectory.extrema.
The DB (depolarization-block) pattern crosses the curves in the order SNIC,
AH, AH, SNIC once per slow period; anything else raises ClassificationError.

Stage labels follow the six-stage description of the bursting cycle:
(i) silence, (ii) sustained spiking, (iii) frequency rise and amplitude
attenuation, (iv) approach to depolarization block, (v) re-emergence of
spiking, (vi) the return to quiescence at the second SNIC crossing, which
is the boundary event starting stage (i).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .bifurcation import BifCurve, find_equilibria
from .integrate import (MAX_STEP, EventRecord, Trajectory,
                        append_closed_form, detect_events, integrate,
                        sign_changes)
from .paths import EllipsePath

log = logging.getLogger(__name__)

SPIKE_THRESHOLD = -20.0     # mV; spike peaks separate cleanly from
SPIKE_REFRACTORY = 2.0      # subthreshold oscillation above this level
ENVELOPE_MARGIN = 5.0       # mV; the (iii)/(iv) split, see segment_stages
_LABELS = ("SNIC", "AH")


class ClassificationError(RuntimeError):
    """The observed crossing sequence is not the DB pattern."""


@dataclass(frozen=True)
class Spike:
    t: float
    v: float


@dataclass(frozen=True)
class BurstTrace:
    """One burst cycle with curve-crossing events and spikes."""

    trajectory: Trajectory
    t_start: float
    t_end: float
    period: float
    events: tuple          # EventRecords inside [t_start, t_end), by time
    spikes: tuple          # Spikes inside [t_start, t_end), by time
    model: str = ""
    path: Optional[EllipsePath] = None
    start_fallback: bool = False   # no upward SNIC crossing: t_start is 0

    def sequence(self) -> tuple:
        return tuple((e.label, e.direction) for e in self.events)

    def sequence_str(self) -> str:
        return _sequence_str(self.sequence())


def _sequence_str(sequence) -> str:
    arrow = {1: "+", -1: "-"}
    return ",".join(f"{label}{arrow[direction]}"
                    for label, direction in sequence)


def crossing_events(snic: BifCurve, ah: BifCurve):
    """Event test functions and labels for curve-crossing detection.

    The slow pair is assumed to occupy the last two state components. The
    test functions are the curves' signed horizontal offsets, which share
    zeros and sign with the signed Euclidean distance.
    """
    fns = [lambda t, y: snic.horizontal_offset(y[-2], y[-1]),
           lambda t, y: ah.horizontal_offset(y[-2], y[-1])]
    return fns, list(_LABELS)


def path_crossings(path: EllipsePath, snic: BifCurve, ah: BifCurve,
                   t_end: float):
    """(t, index, direction) of every SNIC (index 0) and AH (index 1)
    crossing of the closed-form path over [0, t_end], by time.

    The curves' horizontal offsets are scanned on a uniform grid no coarser
    than the integrator's largest step, and each sign change is refined by
    Brent's method on the scalar offset, as detect_events refines one on the
    dense output.
    """
    ts = np.linspace(0.0, t_end, math.ceil(t_end / MAX_STEP) + 1)
    ca, na = path.point(ts, np.cos, np.sin)
    point = path.closed_form()
    found = []
    for index, curve in enumerate((snic, ah)):
        offset = lambda t: curve.horizontal_offset(*point(t))
        for k, direction in sign_changes(ca - curve.ca_at_array(na)):
            te = brentq(offset, ts[k], ts[k + 1], xtol=1e-12, rtol=8.9e-16)
            found.append((te, index, direction))
    return sorted(found)


def _in_window(t, t0, t1):
    return t0 - 1e-9 <= t < t1 - 1e-6


def _window_events(events, t0, t1):
    return tuple(e for e in events if _in_window(e.t, t0, t1))


def _spikes_in_window(traj, t0, t1):
    """The spikes of v over [t0, t1]: the largest maximum of each excursion
    above SPIKE_THRESHOLD, which closes at a minimum at or below it. One
    already open at t0 does not count, one still open at t1 does; a spike
    within SPIKE_REFRACTORY of the one before merges into it (larger wins)."""
    t, v, kind = traj.extrema(t0, t1)
    excursion = np.cumsum((kind < 0) & (v <= SPIKE_THRESHOLD))
    peaks = np.flatnonzero((kind > 0) & (v > SPIKE_THRESHOLD))
    if traj.sample(t0)[0] > SPIKE_THRESHOLD:
        peaks = peaks[excursion[peaks] > 0]
    # the largest maximum of each excursion, the first on a tie
    peaks = peaks[np.lexsort((-v[peaks], excursion[peaks]))]
    peaks = peaks[np.diff(excursion[peaks], prepend=-1) > 0]
    spikes: list[Spike] = []
    for tp, vp in zip(t[peaks].tolist(), v[peaks].tolist()):
        if spikes and tp - spikes[-1].t < SPIKE_REFRACTORY:
            if vp > spikes[-1].v:
                spikes[-1] = Spike(t=tp, v=vp)
            continue
        spikes.append(Spike(t=tp, v=vp))
    return tuple(spikes)


def v_range(traj, t0, t1):
    """(smallest, largest) v over [t0, t1]: the extremes of its extrema
    there and of its values at the two ends."""
    v = np.append(traj.extrema(t0, t1)[1], traj.sample([t0, t1])[:, 0])
    return float(v.min()), float(v.max())


def _rest_state(fast, slow):
    eqs = find_equilibria(fast, slow)
    for eq in eqs:
        if eq.stable:
            return eq.state
    return fast.slaved(-60.0)


@dataclass(frozen=True)
class CycleWindow:
    """The cycle window of an imposed path, known before any integration."""

    t_start: float
    t_end: float
    crossings: tuple       # (t, index, direction) inside [t_start, t_end)
    fallback: bool         # no upward SNIC crossing: t_start is 0

    def sequence(self) -> tuple:
        return tuple((_LABELS[index], direction)
                     for _, index, direction in self.crossings)


def cycle_window(path: EllipsePath, snic: BifCurve,
                 ah: BifCurve) -> CycleWindow:
    """One slow period of the path from its first upward SNIC crossing,
    with the SNIC and AH crossings inside it, from the path alone.

    The crossings are found over two periods, so a DB path shows exactly
    one SNIC, AH, AH, SNIC sequence in its window; a path without an
    upward SNIC crossing starts the window at 0 and sets fallback.
    """
    period = path.period
    crossings = path_crossings(path, snic, ah, 2.0 * period)
    t1 = next((t for t, index, direction in crossings
               if index == 0 and direction > 0), None)
    fallback = t1 is None
    if fallback:
        log.debug("%s has no upward SNIC crossing; the window starts at 0",
                  path)
        t1 = 0.0
    t2 = t1 + period
    return CycleWindow(
        t_start=t1, t_end=t2, fallback=fallback,
        crossings=tuple(c for c in crossings if _in_window(c[0], t1, t2)))


def run_driven(fast, path: EllipsePath, snic: BifCurve, ah: BifCurve,
               rel_tol: float = 1e-8, abs_tol: float = 1e-8) -> BurstTrace:
    """Simulate the driven system over its cycle window and annotate it.

    The slow pair follows the path in closed form, so the window and its
    SNIC and AH crossings come from cycle_window, before any integration.
    One integration of the fast variables alone, from the rest state at
    the path's initial point, runs to the window end, stepped by the fused
    kernel of fast.path_rhs, which reads (Ca, Na) from the path's
    closed_form function; the path's (Ca, Na) is then appended as the last
    two columns of the trajectory. Any path runs, DB or not.
    """
    window = cycle_window(path, snic, ah)
    t1, t2 = window.t_start, window.t_end
    fast_traj = integrate(fast.path_rhs(path),
                          _rest_state(fast, (path.ca0, path.na0)), (0.0, t2),
                          rel_tol=rel_tol, abs_tol=abs_tol)
    point = path.closed_form(np.cos, np.sin)
    traj = append_closed_form(fast_traj, point, lambda t: path.rhs(point(t)))
    events = tuple(
        EventRecord(index=index, t=te, y=tuple(traj.sample(te).tolist()),
                    direction=direction, label=_LABELS[index])
        for te, index, direction in window.crossings)
    return BurstTrace(
        trajectory=traj, t_start=t1, t_end=t2, period=path.period,
        events=events, spikes=_spikes_in_window(traj, t1, t2),
        model=f"driven-{fast.name}", path=path,
        start_fallback=window.fallback)


def _autonomous_run(fast, snic, ah, t_transient, t_budget, rel_tol, abs_tol,
                    seed=None, slow0=(0.1, 5.0)):
    """The autonomous model past a warm-up of t_transient ms, with every curve
    crossing of the next t_budget ms: (Trajectory, events). Without a seed
    the run starts from the gates slaved at -60 mV and (Ca, Na) = slow0."""
    rhs = fast.autonomous_rhs()
    if seed is None:
        seed = fast.slaved(-60.0) + tuple(slow0)
    warm = integrate(rhs, seed, (0.0, t_transient), rel_tol=rel_tol,
                     abs_tol=abs_tol)
    fns, labels = crossing_events(snic, ah)
    return detect_events(rhs, tuple(warm.ys[-1]),
                         (t_transient, t_transient + t_budget), fns,
                         rel_tol=rel_tol, abs_tol=abs_tol, labels=labels)


def run_autonomous(fast, snic: BifCurve, ah: BifCurve, seed=None,
                   t_transient: float = 2000.0, t_budget: float = 8000.0,
                   rel_tol: float = 1e-8, abs_tol: float = 1e-8,
                   slow0=(0.1, 5.0), depth_frac: float = 0.14) -> BurstTrace:
    """Simulate the autonomous model and cut out one full burst cycle.

    The biological slow variables wobble with every spike, so the orbit can
    dance back and forth across a curve near a genuine crossing. Crossing
    pairs whose excursion beyond the curve stays shallower than depth_frac
    times the local SNIC-AH separation are cancelled before the cycle is
    selected; genuine stage dwells reach beyond that in both models while
    spike wobbles stay under a tenth of the separation. The window then
    runs between two consecutive surviving upward SNIC crossings and the
    measured recurrence time is the burst period.
    """
    traj, events = _autonomous_run(fast, snic, ah, t_transient, t_budget,
                                   rel_tol, abs_tol, seed, slow0)
    events = _debounce_events(events, traj, snic, ah, depth_frac)
    snic_ups = [e.t for e in events if e.label == "SNIC" and e.direction > 0]
    if len(snic_ups) < 2:
        raise ClassificationError(
            "autonomous run shows fewer than two upward SNIC crossings "
            f"in the budget (sequence {[e.label for e in events]})")
    t1, t2 = snic_ups[0], snic_ups[1]
    return BurstTrace(
        trajectory=traj, t_start=t1, t_end=t2, period=t2 - t1,
        events=_window_events(events, t1, t2),
        spikes=_spikes_in_window(traj, t1, t2),
        model=f"autonomous-{fast.name}")


def _debounce_events(events, traj, snic, ah, depth_frac: float):
    """Drop adjacent same-curve crossing pairs with shallow excursions."""
    curves = {"SNIC": snic, "AH": ah}
    evs = list(events)
    changed = True
    while changed:
        changed = False
        for i in range(len(evs) - 1):
            a, b = evs[i], evs[i + 1]
            if a.label != b.label or a.direction + b.direction != 0:
                continue
            curve = curves[a.label]
            ts = np.linspace(a.t, b.t, 64)
            ys = traj.sample(ts)
            depth = max(abs(curve.horizontal_offset(ca, na))
                        for ca, na in zip(ys[:, -2], ys[:, -1]))
            mid_na = 0.5 * (a.y[-1] + b.y[-1])
            sep = ah.ca_at(mid_na) - snic.ca_at(mid_na)
            if depth < depth_frac * abs(sep):
                del evs[i + 1]
                del evs[i]
                changed = True
                break
    return evs


_DB_SEQUENCE = (("SNIC", 1), ("AH", 1), ("AH", -1), ("SNIC", -1))


def require_db(sequence) -> None:
    """Raise ClassificationError unless the crossing sequence, (label,
    direction) pairs by time, is SNIC, AH, AH, SNIC (up, up, down, down)."""
    if tuple(sequence) != _DB_SEQUENCE:
        seq = _sequence_str(sequence) or "no crossings"
        raise ClassificationError(f"crossing sequence {seq} is not DB")


@dataclass(frozen=True)
class Stages:
    """Half-open stage intervals of one DB cycle, in ms.

    Stage (i) wraps past the end of the trace window: its interval ends at
    the next cycle's first SNIC crossing, t_start + period.
    """

    ii: tuple
    iii: tuple
    iv: tuple
    v: tuple
    i: tuple

    def duration(self, name: str) -> float:
        lo, hi = getattr(self, name)
        return hi - lo


def segment_stages(trace: BurstTrace) -> Stages:
    """Partition one DB cycle into stages against its curve crossings.

    Raises ClassificationError when the crossing sequence is not
    SNIC, AH, AH, SNIC. The (iii)/(iv) split is the time of the last spike
    whose peak rises at least ENVELOPE_MARGIN above the highest v of the
    silent stage; it is reported for completeness but is heuristic.
    """
    require_db(trace.sequence())
    t_s1, t_a1, t_a2, t_s2 = (e.t for e in trace.events)
    quiet_max = v_range(trace.trajectory, t_s2, trace.t_start + trace.period)[1]
    split = t_a1
    for sp in trace.spikes:
        if t_a1 <= sp.t < t_a2 and sp.v >= quiet_max + ENVELOPE_MARGIN:
            split = sp.t
    return Stages(
        ii=(t_s1, t_a1),
        iii=(t_a1, split),
        iv=(split, t_a2),
        v=(t_a2, t_s2),
        i=(t_s2, trace.t_start + trace.period),
    )


@dataclass(frozen=True)
class FeatureVector:
    """Quantitative burst features of one DB cycle."""

    period: float               # ms; 2 pi/eps for driven traces
    first_spike_delay: Optional[float]   # ms after the first SNIC crossing
    isis: tuple                 # stage-(ii) interspike intervals, ms
    amp_min: Optional[float]    # smallest stage-(ii) spike peak, mV
    amp_max: Optional[float]    # largest stage-(ii) spike peak, mV
    ah_interval: float          # time between the AH crossings, ms
    stage_v_count: int          # full spikes in stage (v)
    v_floor: float              # deepest hyperpolarization, mV

    # CSV column order; the variable-length ISI sequence is one
    # semicolon-joined field so the row stays flat
    COLUMNS = ("period", "first_spike_delay", "isis", "amp_min", "amp_max",
               "ah_interval", "stage_v_count", "v_floor")

    def header(self) -> str:
        return ",".join(self.COLUMNS)

    def row(self) -> str:
        def fmt(x):
            return "" if x is None else f"{x:.17g}"
        vals = [fmt(self.period), fmt(self.first_spike_delay),
                ";".join(f"{x:.17g}" for x in self.isis),
                fmt(self.amp_min), fmt(self.amp_max), fmt(self.ah_interval),
                str(self.stage_v_count), fmt(self.v_floor)]
        return ",".join(vals)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.header() + "\n" + self.row() + "\n")

    @classmethod
    def from_csv(cls, path) -> "FeatureVector":
        with open(path) as fh:
            header = fh.readline().strip()
            if header != ",".join(cls.COLUMNS):
                raise ValueError(f"unexpected features CSV header: {header!r}")
            parts = fh.readline().strip().split(",")
        if len(parts) != len(cls.COLUMNS):
            raise ValueError("features CSV row has the wrong arity")
        opt = lambda s: None if s == "" else float(s)
        return cls(
            period=float(parts[0]),
            first_spike_delay=opt(parts[1]),
            isis=tuple(float(x) for x in parts[2].split(";") if x),
            amp_min=opt(parts[3]),
            amp_max=opt(parts[4]),
            ah_interval=float(parts[5]),
            stage_v_count=int(parts[6]),
            v_floor=float(parts[7]),
        )


def burst_features(trace: BurstTrace) -> FeatureVector:
    """Extract the feature vector from a segmented DB trace."""
    stages = segment_stages(trace)
    t_s1, t_a1 = stages.ii
    t_a2, t_s2 = stages.v
    stage2 = [sp for sp in trace.spikes if t_s1 <= sp.t < t_a1]
    return FeatureVector(
        period=trace.period,
        first_spike_delay=(stage2[0].t - t_s1) if stage2 else None,
        isis=tuple(b.t - a.t for a, b in zip(stage2, stage2[1:])),
        amp_min=min((sp.v for sp in stage2), default=None),
        amp_max=max((sp.v for sp in stage2), default=None),
        ah_interval=t_a2 - t_a1,
        stage_v_count=sum(t_a2 <= sp.t < t_s2 for sp in trace.spikes),
        v_floor=v_range(trace.trajectory, trace.t_start, trace.t_end)[0],
    )


DEFAULT_WEIGHTS = {
    "period": 1.0,
    "first_spike_delay": 1.0,
    "isi": 1.0,
    "amp_min": 1.0,
    "amp_max": 1.0,
    "ah_interval": 1.0,
    "stage_v_count": 0.0,   # integer-valued; reported, not optimized
    "v_floor": 1.0,
}

_ISI_SAMPLES_MIN = 2


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return (a - b) / scale


def _resample_isis(isis, n: int) -> np.ndarray:
    arr = np.asarray(isis, dtype=float)
    if len(arr) == 1:
        return np.full(n, arr[0])
    x = np.linspace(0.0, 1.0, len(arr))
    return np.interp(np.linspace(0.0, 1.0, n), x, arr)


def feature_distance(a: FeatureVector, b: FeatureVector,
                     weights: Optional[dict] = None) -> float:
    """Weighted relative Euclidean distance between two feature vectors.

    Each scalar component is compared relative to the larger magnitude of
    the pair, so the distance is symmetric and zero exactly when all
    weighted components agree. ISI sequences are resampled to a common
    length by linear interpolation of the interval-versus-index curve and
    enter as the mean of squared relative differences. A component defined
    on one side only contributes its full weight.
    """
    w = dict(DEFAULT_WEIGHTS)
    if weights:
        unknown = set(weights) - set(w)
        if unknown:
            raise ValueError(f"unknown weight keys: {sorted(unknown)}")
        w.update(weights)
    if any(val < 0 for val in w.values()):
        raise ValueError("weights must be nonnegative")
    total = 0.0
    scalar_pairs = [
        ("period", a.period, b.period),
        ("first_spike_delay", a.first_spike_delay, b.first_spike_delay),
        ("amp_min", a.amp_min, b.amp_min),
        ("amp_max", a.amp_max, b.amp_max),
        ("ah_interval", a.ah_interval, b.ah_interval),
        ("stage_v_count", float(a.stage_v_count), float(b.stage_v_count)),
        ("v_floor", a.v_floor, b.v_floor),
    ]
    for key, xa, xb in scalar_pairs:
        if w[key] == 0.0:
            continue
        if xa is None and xb is None:
            continue
        if xa is None or xb is None:
            total += w[key]
            continue
        total += w[key] * _rel(xa, xb) ** 2
    if w["isi"] > 0.0:
        if a.isis and b.isis:
            n = max(len(a.isis), len(b.isis), _ISI_SAMPLES_MIN)
            ra = _resample_isis(a.isis, n)
            rb = _resample_isis(b.isis, n)
            sc = np.maximum(np.maximum(np.abs(ra), np.abs(rb)), 1e-300)
            total += w["isi"] * float(np.mean(((ra - rb) / sc) ** 2))
        elif a.isis or b.isis:
            total += w["isi"]
    return math.sqrt(total)


def min_oscillation_amplitude(trace: BurstTrace, t0: float, t1: float) -> float:
    """Smallest peak-to-trough swing of v between consecutive local extrema
    in [t0, t1]; zero when v has fewer than two extrema there."""
    v = trace.trajectory.extrema(t0, t1)[1]
    return float(np.abs(np.diff(v)).min()) if len(v) > 1 else 0.0
