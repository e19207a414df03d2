#!/usr/bin/env python3
"""burstlab benchmark: three workloads, each loading a different layer.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 30 --trace 0

Workloads (why each one is there: README.md):
  curves        fold and Hopf tracing of both models, then a RE_LAMBDA field
  period_field  a PERIOD field over the fig6 window
  driven_fit    the fig3 and fig5 presets, then the self-consistency fit

A run builds the models and loads the input curves (set-up), then repeats
the workload's fixed work in whole rounds for about --seconds, with tracing
off, and checks the outputs of the last round against the reference in
reference.py. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. run_s is the median round
time, corrected for the machine's speed as sampled by speed.py during the
round; the line before the result gives the wall times as well.

With --trace 1 the run makes one untraced and one traced round instead,
writes the spans and counts to perfbench/out/trace-<workload>-<seed>.json
and reports the per-layer metrics and the tracing overhead.

burstlab is imported from src/ of the checkout holding this directory; the
run exits with status 1, printing no result, when it is not there.
"""
import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one process and one thread: burstlab starts no pool with workers=1 and
# BURSTLAB_THREADS=1, and BLAS stays single-threaded
for _var in ("BURSTLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

# Sizes: a run of 30 s holds three rounds of curves, four of period_field
# and one of driven_fit (the fit alone takes about 22 s)
CURVE_STEP = {"reduced": 0.05, "full": 0.1}     # Na step of traced curves
FULL_NA = (5.0, 5.7)        # full-model sub-range covering the fig3 paths
RE_N = 21                   # RE_LAMBDA grid nodes per axis (FIG7_WINDOW)
PERIOD_N = 13               # PERIOD grid nodes per axis (FIG6_WINDOW)
FIT_BUDGET = 45
FIT_BOUNDS = {"d": (0.5, 2.0), "ca0": (-0.05, 0.08)}
FIT_TOL = {"d": 0.5, "ca0": 5e-3}

# Seeded verification samples per run
LOAD_SAMPLE = 3             # points per input curve
CURVE_SAMPLE = 6            # points per traced curve
FIELD_SAMPLE = 8            # RE_LAMBDA nodes
PERIOD_SAMPLE = 2           # PERIOD nodes (each one a DOP853 run)


class Ops:
    """Operations attempted and failed; a failed operation yields None."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, n, fn, *args, **kwargs):
        self.attempted += n
        try:
            return fn(*args, **kwargs)
        except Exception as exc:    # counted and reported, never hidden
            self.failed += n
            self.errors.append(f"{fn.__name__}: {exc!r}")
            return None


def load_burstlab():
    """burstlab and its modules, imported from the checkout's src/."""
    sys.path.insert(0, str(SRC))
    names = ("bifurcation", "features", "figures", "fit", "integrate",
             "landscape", "svg")
    try:
        import burstlab
        mods = {n: importlib.import_module(f"burstlab.{n}") for n in names}
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import burstlab from {SRC}: {exc}")
    if Path(burstlab.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: burstlab imported from {burstlab.__file__}, "
                 f"not from {SRC}")
    return SimpleNamespace(pkg=burstlab, EllipsePath=burstlab.EllipsePath,
                           **mods)


# ----------------------------------------------------------------- set-up

def setup(workload: str):
    bl = load_burstlab()
    pkg = bl.pkg
    st = SimpleNamespace(red=pkg.ReducedFast(pkg.REDUCED4D),
                         full=pkg.FullFast(pkg.FULL7D))
    st.curves, st.target = inputs.load(bl)
    # warm-up: one call into the layer the workload loads
    if workload == "curves":
        bl.bifurcation.hopf_test(st.red, (0.3, 5.5))
        bl.bifurcation.hopf_test(st.full, (0.7, 5.35))
    elif workload == "period_field":
        bl.landscape.orbit_period(st.red, (0.2, 5.3))
    else:
        path = bl.EllipsePath.centered(0.15, 5.85, 0.1, 0.0, 0.01)
        bl.features.burst_features(bl.features.run_driven(
            st.red, path, *st.curves["reduced"]))
    return bl, st


# ----------------------------------------------------------------- rounds

def field_and_contours(bl, tr, ops, kind, grid, fast, levels, outdir):
    """The field CSV and contour CSV that `burstlab landscape` writes."""
    with tr.span("landscape.field"):
        field = ops.call(grid.n_ca * grid.n_na, bl.landscape.build_field,
                         kind, grid, fast, workers=1)
    if field is None:
        return None, None
    field.to_csv(outdir / "field.csv")
    with tr.span("landscape.contour"):
        cset = bl.landscape.extract_contours(field, levels)
    cset.to_csv(outdir / "contours.csv")
    return field, cset


def round_curves(bl, st, tr, outdir, seed):
    ops, out = Ops(), {}
    ranges = {"reduced": bl.figures.CURVE_RANGES["reduced"],
              "full": {"snic": FULL_NA, "ah": FULL_NA}}
    for key, fast in (("2", st.red), ("5", st.full)):
        rng, model = ranges[fast.name], tr.model(fast)
        with tr.span("bifurcation.fold" + key):
            snic = ops.call(1, bl.bifurcation.trace_fold_curve, model,
                            na_range=rng["snic"], step=CURVE_STEP[fast.name])
        with tr.span("bifurcation.hopf" + key):
            ah = ops.call(1, bl.bifurcation.trace_hopf_curve, model,
                          na_range=rng["ah"], step=CURVE_STEP[fast.name])
        if snic is not None and ah is not None:
            tr.counts["bifurcation.points"] += len(snic) + len(ah)
            with tr.span("figures.write"):
                bl.bifurcation.write_curves(outdir / f"curves_{fast.name}.csv",
                                            snic, ah)
        out[fast.name] = (snic, ah)
    grid = replace(bl.figures.FIG7_WINDOW, n_ca=RE_N, n_na=RE_N)
    out["field"] = field_and_contours(bl, tr, ops, bl.landscape.RE_LAMBDA,
                                      grid, st.red, bl.figures.RE_LEVELS,
                                      outdir)
    return ops, out


def round_period_field(bl, st, tr, outdir, seed):
    ops = Ops()
    grid = replace(bl.figures.FIG6_WINDOW, n_ca=PERIOD_N, n_na=PERIOD_N)
    out = {"field": field_and_contours(bl, tr, ops, bl.landscape.PERIOD,
                                       grid, st.red, bl.figures.PERIOD_LEVELS,
                                       outdir)}
    return ops, out


def fit_problem(bl, st, seed):
    fixed = {k: v for k, v in inputs.TRUE_PATH.items() if k not in FIT_BOUNDS}
    snic, ah = st.curves["reduced"]
    return bl.fit.FitProblem(
        target=st.target, bounds=FIT_BOUNDS, fixed=fixed,
        params=bl.pkg.REDUCED4D, snic=snic, ah=ah, budget=FIT_BUDGET,
        seed=seed)


def round_driven_fit(bl, st, tr, outdir, seed):
    ops, traces = Ops(), []
    run_driven = bl.figures.run_driven

    def keep(*args, **kwargs):
        trace_ = run_driven(*args, **kwargs)
        traces.append(trace_)
        return trace_

    bl.figures.run_driven = keep
    try:
        for fig, model in (("fig3", "full"), ("fig5", "reduced")):
            n = len(bl.figures.PRESETS[fig].paths)
            ops.call(n, bl.figures.run_figure, fig, outdir / fig, workers=1,
                     curves=st.curves[model])
    finally:
        bl.figures.run_driven = run_driven
    with tr.span("fit.fit_path"):
        result = ops.call(FIT_BUDGET, bl.fit.fit_path,
                          fit_problem(bl, st, seed), workers=1)
    if result is not None:
        trials = result.trials
        errors = sum(t.sequence.startswith("error:") for t in trials)
        ops.attempted += len(trials) - FIT_BUDGET
        ops.failed += errors
        tr.counts["fit.evals"] += len(trials)
        tr.counts["fit.db"] += sum(t.db for t in trials)
        tr.counts["fit.eval_errors"] += errors
        with tr.span("figures.write"):
            result.to_csv(outdir / "fit_log.csv")
    return ops, {"traces": traces, "fit": result}


ROUNDS = {"curves": round_curves, "period_field": round_period_field,
          "driven_fit": round_driven_fit}


def timed_round(bl, st, tr, workload, seed, probe=None):
    """(wall, corrected) seconds, ops and outputs of one round.

    Without a probe both times are the wall time.
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        mark = probe.mark() if probe else time.perf_counter()
        ops, out = ROUNDS[workload](bl, st, tr, Path(tmp), seed)
        if probe:
            wall, dt = probe.corrected(mark)
        else:
            wall = dt = time.perf_counter() - mark
        return wall, dt, ops, out


# ----------------------------------------------------------------- checks

def check_inputs(ref, refs, st, rng):
    bad = []
    for model, (snic, ah) in st.curves.items():
        bad += ref.check_curves(refs[model], snic, ah, rng, LOAD_SAMPLE)
    return [f"input curves: {b}" for b in bad]


def check_round(ref, refs, st, workload, out, rng):
    bad = []
    if workload == "curves":
        for model in ("reduced", "full"):
            snic, ah = out[model]
            if snic is not None and ah is not None:
                bad += ref.check_curves(refs[model], snic, ah, rng,
                                        CURVE_SAMPLE)
        field, cset = out["field"]
        ah = out["reduced"][1]
        if field is not None:
            grid = field.grid
            nodes = ref.sample_nodes(field.values, rng, FIELD_SAMPLE,
                                     defined=False)
            bad += ref.check_relambda_nodes(refs["reduced"], grid,
                                            field.values, nodes)
            zero = min(cset.levels, key=abs)
            if ah is not None:
                bad += ref.check_zero_contour(grid, cset.polylines[zero], ah)
    elif workload == "period_field":
        field, _ = out["field"]
        snic, ah = st.curves["reduced"]
        if field is not None:
            grid, vals = field.grid, field.values
            bad += ref.check_period_region(grid, vals, snic, ah)
            bad += ref.check_period_near_snic(grid, vals, snic)
            bad += ref.check_period_nodes(
                refs["reduced"], grid, vals,
                ref.sample_nodes(vals, rng, PERIOD_SAMPLE))
    else:
        traces = out["traces"]
        for k, tr_ in enumerate(traces):
            bad += ref.check_trace_shape(f"trace {k}", tr_)
        if traces:
            k = int(rng.integers(len(traces)))
            model = "reduced" if traces[k].trajectory.dim == 4 else "full"
            bad += ref.check_stage2_spikes(refs[model], f"trace {k}",
                                           traces[k])
        if out["fit"] is not None:
            truth = {k: inputs.TRUE_PATH[k] for k in FIT_BOUNDS}
            bad += ref.check_fit_improves(out["fit"],
                                          math.ceil(FIT_BUDGET / 3))
            bad += ref.check_fit_recovers(out["fit"], truth, FIT_TOL)
    return bad


# ------------------------------------------------------------------ main

def declared_metrics(key: str) -> dict:
    """name -> unit for the metrics BENCHMARK.json declares under key."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def report(values: dict, key: str) -> dict:
    units = declared_metrics(key)
    if set(units) != set(values):
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                 f"disagree with BENCHMARK.json")
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bl, st = setup(args.workload)
    setup_s = time.perf_counter() - _T0

    # the reference (scipy.integrate) loads after the set-up is timed
    import numpy as np
    import reference as ref
    rng = np.random.default_rng(args.seed)
    refs = {"reduced": ref.RefModel(st.red.params, "reduced"),
            "full": ref.RefModel(st.full.params, "full")}
    bad = check_inputs(ref, refs, st, rng)

    attempted = failed = 0
    walls, times, errors = [], [], []
    tracer = tracing.NullTracer()
    # the speed probe runs only with --trace 0: a traced run compares its
    # two rounds by wall time and keeps calibration slices out of its spans
    probe = None if args.trace else speed.SpeedProbe()
    start = time.perf_counter()
    with probe or contextlib.nullcontext():
        while True:
            wall, dt, ops, out = timed_round(bl, st, tracer, args.workload,
                                             args.seed, probe)
            if not times:
                # set-up plus one round: later rounds raise ru_maxrss by
                # heap growth, so a peak over all rounds would depend on
                # their count
                peak_rss_mib = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            walls.append(wall)
            times.append(dt)
            attempted, failed = attempted + ops.attempted, failed + ops.failed
            errors += ops.errors
            if args.trace or time.perf_counter() - start + wall > args.seconds:
                break
    run_s = statistics.median(times)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(bl)
        try:
            traced_s, _, ops, out = timed_round(bl, st, tracer,
                                                args.workload, args.seed)
        finally:
            tracer.uninstall()
        attempted, failed = attempted + ops.attempted, failed + ops.failed
        errors += ops.errors
        values = tracer.layer_metrics(math.ceil(FIT_BUDGET / 3))
        values.update(tracing.microbench(bl, st.red, st.full, st.curves))
        values["trace.run_s"] = traced_s
        values["trace.overhead_pct"] = 100.0 * (traced_s - run_s) / run_s
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.to_json(dump, values)
        print(f"spans and counts written to {dump.relative_to(ROOT)}")
        metrics = report(values, "per_layer")
    else:
        metrics = report({"setup_s": setup_s, "run_s": run_s,
                          "peak_rss_mib": peak_rss_mib}, "end_to_end")

    bad += check_round(ref, refs, st, args.workload, out, rng)
    if multiprocessing.active_children() or threading.active_count() > 1:
        bad.append("a child process or extra thread is alive at the end")
    for msg in errors:
        print(f"FAILED OPERATION: {msg}")
    for msg in bad:
        print(f"CHECK FAILED: {msg}")
    print(f"{args.workload} seed {args.seed}: rounds, wall "
          + ", ".join(f"{t:.3f}" for t in walls) + " s; corrected "
          + ", ".join(f"{t:.3f}" for t in times) + " s")
    if probe and probe.slices:
        print(f"speed probe: {len(probe.slices)} slices, median "
              f"{1e3 * statistics.median(probe.slices):.3f} ms "
              f"(reference {1e3 * speed.REF_SLICE_S:g} ms)")
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
