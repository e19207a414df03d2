"""Spans, counts and microbenchmarks for the traced run.

Everything is measured from outside burstlab: spans around calls into its
public functions, patched at the module attribute that the caller looks up;
counting wrappers on the rhs callables and model objects the benchmark
passes in; and microbenchmarks on fixed inputs. The integrator's self time
is its spans' duration minus the time spent inside the rhs calls it made.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import Counter

import numpy as np

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans cost one attribute lookup, models pass through."""

    def __init__(self):
        self.counts: Counter = Counter()

    def span(self, name):
        return _NULL

    def model(self, fast):
        return fast


class Tracer:
    """Spans as [name, parent index, start, end], kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.rhs_seconds = 0.0
        self._stack: list = []
        self._undo: list = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # ------------------------------------------------------------ wrappers

    def model(self, fast):
        """The same fast subsystem, counting its scalar rhs calls."""
        base, counts = type(fast), self.counts

        class Counting(base):
            def rhs(self, y, slow):
                counts["bifurcation.g_evals"] += 1
                return base.rhs(self, y, slow)

        return Counting(fast.params)

    def _counted_rhs(self, rhs, cell):
        pc = time.perf_counter

        def counted(t, y):
            t0 = pc()
            out = rhs(t, y)
            cell[1] += pc() - t0
            cell[0] += 1
            return out
        return counted

    def _integrator(self, fn):
        def wrapper(rhs, *args, **kwargs):
            cell = [0, 0.0]
            try:
                with self.span("integrate"):
                    out = fn(self._counted_rhs(rhs, cell), *args, **kwargs)
            except Exception:
                if self.inside("landscape.orbit_period"):
                    self.counts["landscape.node_errors"] += 1
                raise
            finally:
                self.counts["integrate.rhs_evals"] += cell[0]
                self.rhs_seconds += cell[1]
            traj = out[0] if isinstance(out, tuple) else out
            self.counts["integrate.steps"] += len(traj.ts) - 1
            if isinstance(out, tuple):
                self.counts["integrate.events"] += len(out[1])
            return out
        return wrapper

    def _spanned(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out
        return wrapper

    def _patch(self, owner, attr, make):
        if not hasattr(owner, attr):
            return
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def install(self, bl):
        """Patch the burstlab modules in the namespace bl."""
        def spikes(trace):
            self.counts["features.spikes"] += len(trace.spikes)

        for mod in (bl.landscape, bl.features):
            for attr in ("integrate", "detect_events"):
                self._patch(mod, attr, self._integrator)
        self._patch(bl.bifurcation, "hopf_test",
                    lambda f: self._spanned("bifurcation.hopf_test", f))
        self._patch(bl.landscape, "orbit_period",
                    lambda f: self._spanned("landscape.orbit_period", f))
        self._patch(bl.landscape, "relambda",
                    lambda f: self._spanned("landscape.relambda", f))
        self._patch(bl.features, "find_equilibria",
                    lambda f: self._spanned("bifurcation.rest_state", f))
        for mod in (bl.figures, bl.fit):
            self._patch(mod, "run_driven", lambda f: self._spanned(
                "features.run_driven", f, spikes))
            self._patch(mod, "burst_features", lambda f: self._spanned(
                "features.burst_features", f))
        self._patch(bl.figures, "write_curves",
                    lambda f: self._spanned("figures.write", f))
        for cls in (bl.integrate.Trajectory, bl.landscape.ScalarField,
                    bl.landscape.ContourSet, bl.svg.SvgCanvas):
            attr = "save" if cls is bl.svg.SvgCanvas else "to_csv"
            self._patch(cls, attr,
                        lambda f: self._spanned("figures.write", f))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------- metrics

    def _named(self, name):
        """(index, span) pairs of the spans with this name."""
        return [(i, s) for i, s in enumerate(self.spans) if s[0] == name]

    def _durs(self, name):
        return [s[3] - s[2] for _, s in self._named(name)]

    def total(self, name) -> float:
        return sum(self._durs(name))

    def to_json(self, path, metrics: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"metrics": metrics, "counts": dict(self.counts),
                       "rhs_seconds": self.rhs_seconds,
                       "spans": self.spans}, fh)

    def layer_metrics(self, fit_phase1: int) -> dict:
        """Every per-layer metric that comes from spans and counts."""
        c = self.counts
        ms = lambda xs: 1e3 * statistics.fmean(xs) if xs else 0.0
        ratio = lambda a, b: a / b if b else 0.0
        dur = lambda s: s[3] - s[2]

        hopf = self._durs("bifurcation.hopf_test")
        orbit = self._named("landscape.orbit_period")
        orbit_ids = {i for i, _ in orbit}
        top = [s for _, s in orbit if s[1] not in orbit_ids]
        nodes = [dur(s) for s in top] + self._durs("landscape.relambda")
        drives = self._named("features.run_driven")
        drive_ids = {i for i, _ in drives}
        drive_integrations = sum(1 for _, s in self._named("integrate")
                                 if s[1] in drive_ids)
        fits = self._named("fit.fit_path")
        fit_ids = {i for i, _ in fits}
        fit_drives = [s for _, s in drives if s[1] in fit_ids]
        trials = c["fit.evals"]
        phase1 = phase2 = 0.0
        if fits:
            f0, f1 = fits[0][1][2], fits[0][1][3]
            split = (fit_drives[fit_phase1][2]
                     if len(fit_drives) > fit_phase1 else f1)
            phase1, phase2 = split - f0, f1 - split
        steps = c["integrate.steps"]
        return {
            "integrate.steps": steps,
            "integrate.rhs_evals": c["integrate.rhs_evals"],
            "integrate.rhs_per_step": ratio(c["integrate.rhs_evals"], steps),
            "integrate.events": c["integrate.events"],
            "integrate.self_s": self.total("integrate") - self.rhs_seconds,
            "bifurcation.fold2_s": self.total("bifurcation.fold2"),
            "bifurcation.hopf2_s": self.total("bifurcation.hopf2"),
            "bifurcation.fold5_s": self.total("bifurcation.fold5"),
            "bifurcation.hopf5_s": self.total("bifurcation.hopf5"),
            "bifurcation.g_evals": c["bifurcation.g_evals"],
            "bifurcation.hopf_tests": len(hopf),
            "bifurcation.hopf_test_ms": ms(hopf),
            "bifurcation.points": c["bifurcation.points"],
            "bifurcation.rest_state_ms": ms(
                self._durs("bifurcation.rest_state")),
            "landscape.field_s": self.total("landscape.field"),
            "landscape.node_ms_p50": _pct(nodes, 50),
            "landscape.node_ms_p90": _pct(nodes, 90),
            "landscape.contour_s": self.total("landscape.contour"),
            "landscape.retries": len(orbit) - len(top),
            "landscape.retry_ratio": ratio(len(orbit) - len(top), len(top)),
            "landscape.node_errors": c["landscape.node_errors"],
            "features.run_driven_s": sum(dur(s) for _, s in drives),
            "features.integrations_per_trace": ratio(drive_integrations,
                                                     len(drives)),
            "features.burst_features_ms": ms(
                self._durs("features.burst_features")),
            "features.spikes": c["features.spikes"],
            "fit.evals": trials,
            "fit.eval_s": ratio(self.total("fit.fit_path"), trials),
            "fit.db_ratio": ratio(c["fit.db"], trials),
            "fit.eval_errors": c["fit.eval_errors"],
            "fit.phase1_s": phase1,
            "fit.phase2_s": phase2,
            "figures.write_s": self.total("figures.write"),
        }


def _pct(seconds, q) -> float:
    """q-th percentile in ms, 0 when the workload has no such span."""
    return 1e3 * float(np.percentile(seconds, q)) if seconds else 0.0


# ------------------------------------------------------- microbenchmarks

def _per_call_us(fn, calls: int, repeats: int = 5) -> float:
    best = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(best) / calls


def _per_step_us(run, repeats: int = 3) -> float:
    times, steps = [], 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        traj = run()
        times.append(time.perf_counter() - t0)
        steps = len(traj.ts) - 1
    return 1e6 * statistics.median(times) / steps


def microbench(bl, red, full, curves) -> dict:
    """Per-call costs on fixed inputs: scalar G, rhs calls, DOPRI steps."""
    slow = (0.2, 5.5)
    g2 = lambda: red.rhs(red.slaved(-40.0), slow)
    g5 = lambda: full.rhs(full.slaved(-40.0), slow)
    rhs2 = red.frozen_rhs(slow)
    y2 = red.slaved(-40.0)
    p4 = bl.EllipsePath.centered(0.15, 5.85, 1.0, 0.0, 0.004)
    p7 = bl.EllipsePath.centered(0.7, 5.35, 2.0, 0.0, 0.009)
    rhs4, rhs7 = red.driven_rhs(p4), full.driven_rhs(p7)
    y4 = red.slaved(-60.0) + (p4.ca0, p4.na0)
    y7 = full.slaved(-60.0) + (p7.ca0, p7.na0)
    ev2, lab = bl.features.crossing_events(*curves["reduced"])
    ev5, _ = bl.features.crossing_events(*curves["full"])
    # the 4D and 7D windows end just past the first AH crossing, so both
    # event functions fire and spiking steps are included
    return {
        "model.g2_us": _per_call_us(g2, 2000),
        "model.g5_us": _per_call_us(g5, 2000),
        "model.rhs2_us": _per_call_us(lambda: rhs2(0.0, y2), 5000),
        "model.rhs4_us": _per_call_us(lambda: rhs4(0.0, y4), 5000),
        "model.rhs7_us": _per_call_us(lambda: rhs7(0.0, y7), 5000),
        "integrate.step2_us": _per_step_us(lambda: bl.integrate.integrate(
            rhs2, y2, (0.0, 200.0), rel_tol=1e-6, abs_tol=1e-8)),
        "integrate.step4_us": _per_step_us(lambda: bl.integrate.detect_events(
            rhs4, y4, (0.0, 700.0), ev2, labels=lab)[0]),
        "integrate.step7_us": _per_step_us(lambda: bl.integrate.detect_events(
            rhs7, y7, (0.0, 230.0), ev5, labels=lab)[0]),
    }
