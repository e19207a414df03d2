"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/mutations.py

Each check in reference.py is run twice: on an output of burstlab, where it
must pass, and on a deliberately wrong copy of that output, where it must
fail. Exits with status 1 when any check passes a wrong input or fails a
right one. Takes about 20 s on one core.
"""
from __future__ import annotations

import copy
import math
import sys
from dataclasses import replace

import numpy as np

import inputs
import reference as ref
from run import FIT_BOUNDS, FIT_TOL, load_burstlab


def shifted(curve, dca):
    return replace(curve, ca=curve.ca + dca)


def main() -> int:
    bl = load_burstlab()
    pkg = bl.pkg
    red = pkg.ReducedFast(pkg.REDUCED4D)
    rred = ref.RefModel(pkg.REDUCED4D, "reduced")
    curves, target = inputs.load(bl)
    snic, ah = curves["reduced"]
    cases = []      # (check, wrong input, messages on right, on wrong)

    def case(name, wrong, right_fn, wrong_fn):
        cases.append((name, wrong, right_fn(), wrong_fn()))

    k = [len(snic) // 3]
    case("fold points", "a curve point shifted by 0.01 in Ca",
         lambda: ref.check_fold_points(rred, snic.ca, snic.na, k),
         lambda: ref.check_fold_points(rred, snic.ca + 0.01, snic.na, k))
    case("Hopf points", "a curve point shifted by 0.01 in Ca",
         lambda: ref.check_hopf_points(rred, ah.ca, ah.na, k),
         lambda: ref.check_hopf_points(rred, ah.ca + 0.01, ah.na, k))
    case("AH right of SNIC", "the two curves swapped",
         lambda: ref.check_ah_right_of_snic(snic, ah),
         lambda: ref.check_ah_right_of_snic(ah, snic))

    grid7 = replace(bl.figures.FIG7_WINDOW, n_ca=9, n_na=9)
    f7 = bl.landscape.build_field(bl.landscape.RE_LAMBDA, grid7, red,
                                  workers=1)
    nodes = ref.sample_nodes(f7.values, np.random.default_rng(0), 4)
    case("RE_LAMBDA nodes", "field values scaled by 1.01",
         lambda: ref.check_relambda_nodes(rred, grid7, f7.values, nodes),
         lambda: ref.check_relambda_nodes(rred, grid7, 1.01 * f7.values,
                                          nodes))
    zero = bl.landscape.extract_contours(f7, [0.0]).polylines[0.0]
    case("zero contour on AH", "AH shifted by two cell diagonals in Ca",
         lambda: ref.check_zero_contour(grid7, zero, ah),
         lambda: ref.check_zero_contour(grid7, zero,
                                        shifted(ah, 2 * grid7.cell_diag)))

    grid6 = replace(bl.figures.FIG6_WINDOW, n_ca=9, n_na=9)
    f6 = bl.landscape.build_field(bl.landscape.PERIOD, grid6, red, workers=1)
    outside = f6.values.copy()
    outside[0, -1] = 30.0       # lowest Ca, highest Na: left of SNIC
    flat = f6.values.copy()
    j = next(j for j in range(grid6.n_na)
             if snic.na[0] <= grid6.na_axis()[j] <= snic.na[-1]
             and np.isfinite(flat[:, j]).sum() >= 2)
    first = int(np.nonzero(np.isfinite(flat[:, j]))[0][0])
    flat[first, j] = 0.5 * np.nanmin(flat[:, j])
    node = ref.sample_nodes(f6.values, np.random.default_rng(0), 1)
    case("PERIOD between the curves", "a node left of SNIC defined",
         lambda: ref.check_period_region(grid6, f6.values, snic, ah),
         lambda: ref.check_period_region(grid6, outside, snic, ah))
    case("PERIOD largest next to SNIC", "the node next to SNIC halved",
         lambda: ref.check_period_near_snic(grid6, f6.values, snic),
         lambda: ref.check_period_near_snic(grid6, flat, snic))
    case("PERIOD nodes", "field values scaled by 1.01",
         lambda: ref.check_period_nodes(rred, grid6, f6.values, node),
         lambda: ref.check_period_nodes(rred, grid6, 1.01 * f6.values, node))

    path = bl.EllipsePath.centered(0.15, 5.85, 0.1, 0.0, 0.01)
    trace = bl.features.run_driven(red, path, snic, ah)
    drifted = copy.copy(trace.trajectory)
    drifted.ys = trace.trajectory.ys.copy()
    drifted.ys[len(drifted.ys) // 2, -2] += 1e-3
    case("DB sequence", "a trace with an event dropped",
         lambda: ref.check_trace_shape("trace", trace),
         lambda: ref.check_trace_shape(
             "trace", replace(trace, events=trace.events[1:])))
    case("period 2 pi/eps", "a trace period scaled by 1.01",
         lambda: ref.check_trace_shape("trace", trace),
         lambda: ref.check_trace_shape(
             "trace", replace(trace, period=1.01 * trace.period)))
    case("ellipse invariant", "a slow state moved by 1e-3 in Ca",
         lambda: ref.check_trace_shape("trace", trace),
         lambda: ref.check_trace_shape(
             "trace", replace(trace, trajectory=drifted)))
    late = tuple(replace(s, t=s.t + 0.1) for s in trace.spikes)
    case("stage-(ii) spike count", "a trace with its first spike dropped",
         lambda: ref.check_stage2_spikes(rred, "trace", trace),
         lambda: ref.check_stage2_spikes(
             rred, "trace", replace(trace, spikes=trace.spikes[1:])))
    case("stage-(ii) spike times", "spike times moved by 0.1 ms",
         lambda: ref.check_stage2_spikes(rred, "trace", trace),
         lambda: ref.check_stage2_spikes(
             rred, "trace", replace(trace, spikes=late)))

    budget, seed = 24, 4
    fixed = {k: v for k, v in inputs.TRUE_PATH.items() if k not in FIT_BOUNDS}
    problem = bl.fit.FitProblem(target=target, bounds=FIT_BOUNDS, fixed=fixed,
                                params=pkg.REDUCED4D, snic=snic, ah=ah,
                                budget=budget, seed=seed)
    result = bl.fit.fit_path(problem, workers=1)
    n1 = math.ceil(budget / 3)
    p1 = min((t for t in result.trials[:n1] if t.db), key=lambda t: t.distance)
    swapped = bl.fit.FitResult(best_path=problem.make_path(p1.values),
                               best_distance=p1.distance,
                               trials=result.trials)
    truth = {k: inputs.TRUE_PATH[k] for k in FIT_BOUNDS}
    case("fit improves on phase 1", "best point swapped for the phase-1 best",
         lambda: ref.check_fit_improves(result, n1),
         lambda: ref.check_fit_improves(swapped, n1))
    far = replace(result, best_path=replace(result.best_path, d=2.0))
    case("fit recovers the truth", "best path with d = 2",
         lambda: ref.check_fit_recovers(result, truth, FIT_TOL),
         lambda: ref.check_fit_recovers(far, truth, FIT_TOL))

    ok = True
    for name, wrong, right_msgs, wrong_msgs in cases:
        good = not right_msgs and bool(wrong_msgs)
        ok &= good
        print(f"{'ok ' if good else 'BAD'} {name}: right input "
              f"{'passes' if not right_msgs else 'FAILS'}; {wrong}: "
              f"{wrong_msgs[0] if wrong_msgs else 'PASSES'}")
        for msg in right_msgs:
            print(f"    {msg}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
