"""Command-line interface.

Subcommands: simulate, bifcurves, landscape, features, fit, figure.
Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 classification
failure. BURSTLAB_THREADS caps sweep concurrency.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import figures, svg
from .bifurcation import (ContinuationError, read_curves, trace_fold_curve,
                          trace_hopf_curve, write_curves)
from .config import UsageError, check_keys, get_float, get_span, load_config
from .features import (DEFAULT_WEIGHTS, ClassificationError, FeatureVector,
                       burst_features, run_autonomous, run_driven,
                       segment_stages)
from .fit import PATH_PARAMS, FitProblem, fit_path
from .integrate import StepSizeError, integrate
from .landscape import PERIOD, RE_LAMBDA, GridSpec, build_field, extract_contours
from .paths import EllipsePath

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_CLASSIFICATION = 4

PATH_KEYS = ("ca_c", "na_c", "d", "ca0", "na0", "eps")

_SIM_KEYS = tuple(f"path.{k}" for k in PATH_KEYS) + (
    "model", "sim.t_span", "sim.rel_tol", "sim.abs_tol", "out.trajectory")
_FIT_KEYS = tuple(f"path.{k}" for k in PATH_KEYS) + (
    "fit.model", "fit.target", "fit.budget", "fit.seed", "fit.free",
    "fit.rel_tol", "fit.abs_tol",
) + tuple(f"fit.bounds.{k}" for k in PATH_PARAMS) \
  + tuple(f"fit.weights.{k}" for k in DEFAULT_WEIGHTS)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ClassificationError as exc:
        print(f"classification failure: {exc}", file=sys.stderr)
        return EXIT_CLASSIFICATION
    except (StepSizeError, ContinuationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burstlab",
        description="Fast-slow bursting models: simulation, bifurcation "
                    "curves, landscapes, burst features and path fitting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a model, write a trace CSV")
    _add_common(p_sim)
    p_sim.add_argument("--t_span", help="t0:t1 in ms")
    p_sim.add_argument("--out", default="trajectory.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_bif = sub.add_parser("bifcurves", help="trace SNIC and AH curves, write CSV")
    p_bif.add_argument("--model", choices=("full7d", "reduced4d"),
                       default="reduced4d")
    p_bif.add_argument("--na_range", default="4.8:6.4", help="na0:na1")
    p_bif.add_argument("--step", type=float, default=0.01)
    p_bif.add_argument("--out", default="curves.csv")
    p_bif.set_defaults(func=cmd_bifcurves)

    p_land = sub.add_parser("landscape", help="build a scalar field and contours")
    p_land.add_argument("--model", choices=("full7d", "reduced4d"),
                        default="reduced4d")
    p_land.add_argument("--kind", choices=("period", "relambda"),
                        required=True)
    p_land.add_argument("--window", default="-0.1:0.45:4.8:6.4",
                        help="ca0:ca1:na0:na1")
    p_land.add_argument("--grid", default="121x121", help="NCAxNNA")
    p_land.add_argument("--levels", default="",
                        help="comma-separated contour levels")
    p_land.add_argument("--field_out", default="field.csv")
    p_land.add_argument("--contours_out", default="contours.csv")
    p_land.add_argument("--svg_out", default="")
    p_land.add_argument("--curves", default="",
                        help="curve CSV for the SVG overlay")
    p_land.set_defaults(func=cmd_landscape)

    p_feat = sub.add_parser("features", help="drive a model along a path, "
                            "classify and extract burst features")
    _add_common(p_feat)
    p_feat.add_argument("--curves", default="",
                        help="reuse curves from a bifcurves CSV")
    p_feat.add_argument("--out", default="features.csv")
    p_feat.add_argument("--stages_out", default="")
    p_feat.set_defaults(func=cmd_features)

    p_fit = sub.add_parser("fit", help="fit path parameters to target features")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--out", default="fit_log.csv")
    p_fit.add_argument("--best_out", default="best_path.cfg")
    p_fit.add_argument("--curves", default="")
    p_fit.set_defaults(func=cmd_fit)

    p_figure = sub.add_parser("figure", help="run a named end-to-end preset")
    p_figure.add_argument("name", choices=sorted(figures.PRESETS))
    p_figure.add_argument("--outdir", default="figures")
    p_figure.add_argument("--rel_tol", type=float, default=1e-8)
    p_figure.add_argument("--abs_tol", type=float, default=1e-8)
    p_figure.set_defaults(func=cmd_figure)
    return parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default="")
    p.add_argument("--model",
                   choices=("full7d", "reduced4d", "driven7d", "driven4d"))
    for key in PATH_KEYS:
        p.add_argument(f"--{key}", type=float, default=None)
    p.add_argument("--rel_tol", type=float, default=None)
    p.add_argument("--abs_tol", type=float, default=None)


def _merged_config(args, allowed) -> dict:
    cfg = load_config(args.config) if args.config else {}
    check_keys(cfg, allowed)
    if getattr(args, "model", None):
        cfg["model"] = args.model
    for key in PATH_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[f"path.{key}"] = repr(val)
    for key in ("rel_tol", "abs_tol"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[f"sim.{key}"] = repr(val)
    if getattr(args, "t_span", None):
        cfg["sim.t_span"] = args.t_span
    return cfg


def _path_from(cfg: dict) -> EllipsePath:
    ca_c = get_float(cfg, "path.ca_c")
    na_c = get_float(cfg, "path.na_c")
    return EllipsePath(
        ca_c=ca_c, na_c=na_c,
        d=get_float(cfg, "path.d"),
        ca0=get_float(cfg, "path.ca0"),
        na0=get_float(cfg, "path.na0", na_c),
        eps=get_float(cfg, "path.eps"))


def _tols(cfg: dict):
    return (get_float(cfg, "sim.rel_tol", 1e-8),
            get_float(cfg, "sim.abs_tol", 1e-8))


def _curves(path: str, fast):
    """SNIC and AH curves from a bifcurves CSV, or traced if path is empty."""
    if not path:
        return figures.compute_curves(fast)
    curves = read_curves(path)
    try:
        return curves["SNIC"], curves["AH"]
    except KeyError as exc:
        raise UsageError(f"curve file lacks {exc} rows") from None


def cmd_simulate(args) -> int:
    cfg = _merged_config(args, _SIM_KEYS)
    model = cfg.get("model", "")
    if model not in ("full7d", "reduced4d", "driven7d", "driven4d"):
        raise UsageError(f"model must be set to one of full7d, reduced4d, "
                         f"driven7d, driven4d (got {model!r})")
    fast = figures.model_for(model)
    rel_tol, abs_tol = _tols(cfg)
    t_span = get_span(cfg, "sim.t_span")
    if model.startswith("driven"):
        path = _path_from(cfg)
        rhs = fast.driven_rhs(path)
        y0 = fast.slaved(-60.0) + (path.ca0, path.na0)
    else:
        rhs = fast.autonomous_rhs()
        y0 = fast.slaved(-60.0) + (0.1, 5.0)
    traj = integrate(rhs, y0, t_span, rel_tol=rel_tol, abs_tol=abs_tol)
    out = cfg.get("out.trajectory", args.out)
    traj.to_csv(out, columns=figures._state_columns(model))
    print(f"wrote {out} ({len(traj.ts)} samples)")
    return EXIT_OK


def cmd_bifcurves(args) -> int:
    fast = figures.model_for(args.model)
    na_range = _parse_pair(args.na_range, "na_range")
    try:
        snic = trace_fold_curve(fast, na_range=na_range, step=args.step)
    except ValueError as exc:       # a step that is not a positive number
        raise UsageError(str(exc)) from None
    ah = trace_hopf_curve(fast, na_range=na_range, step=args.step)
    write_curves(args.out, snic, ah)
    print(f"wrote {args.out} (SNIC {len(snic)} pts, AH {len(ah)} pts)")
    return EXIT_OK


def cmd_landscape(args) -> int:
    fast = figures.model_for(args.model)
    kind = PERIOD if args.kind == "period" else RE_LAMBDA
    levels = figures.PERIOD_LEVELS if kind == PERIOD else figures.RE_LEVELS
    try:
        ca0, ca1, na0, na1 = (float(x) for x in args.window.split(":"))
        n_ca, n_na = (int(x) for x in args.grid.lower().split("x"))
        grid = GridSpec(ca0, ca1, na0, na1, n_ca, n_na)
        if args.levels:
            levels = [float(x) for x in args.levels.split(",")]
    except ValueError as exc:       # also a wrong number of fields
        raise UsageError(f"bad --window, --grid or --levels: {exc}") from None
    field = build_field(kind, grid, fast)
    field.to_csv(args.field_out)
    print(f"wrote {args.field_out}")
    try:
        contours = extract_contours(field, levels)
    except ValueError as exc:       # fewer than 4 defined nodes
        status = field.status if kind == PERIOD else np.where(
            field.defined_mask(), "defined", "undefined")
        counts = zip(*np.unique(status, return_counts=True))
        print(f"numerical failure: {exc}; nodes: "
              + ", ".join(f"{n} {c}" for n, c in counts), file=sys.stderr)
        return EXIT_NUMERICAL
    contours.to_csv(args.contours_out)
    print(f"wrote {args.contours_out}")
    if args.svg_out:
        canvas = svg.SvgCanvas(ca0, ca1, na0, na1)
        for level in contours.levels:
            for poly in contours.polylines.get(level, []):
                canvas.polyline(poly[:, 0], poly[:, 1],
                                color=svg.CONTOUR_COLOR, width=0.8)
        if args.curves:
            for curve in read_curves(args.curves).values():
                canvas.polyline(curve.ca, curve.na, color=svg.CURVE_COLOR,
                                width=2.0)
        canvas.save(args.svg_out)
        print(f"wrote {args.svg_out}")
    return EXIT_OK


def cmd_features(args) -> int:
    cfg = _merged_config(args, _SIM_KEYS)
    model = cfg.get("model", "")
    if model not in ("driven7d", "driven4d", "full7d", "reduced4d"):
        raise UsageError(f"model must be set (got {model!r})")
    fast = figures.model_for(model)
    rel_tol, abs_tol = _tols(cfg)
    snic, ah = _curves(args.curves, fast)
    if model.startswith("driven"):
        trace = run_driven(fast, _path_from(cfg), snic, ah,
                           rel_tol=rel_tol, abs_tol=abs_tol)
    else:
        trace = run_autonomous(fast, snic, ah, rel_tol=rel_tol,
                               abs_tol=abs_tol)
    fv = burst_features(trace)
    fv.to_csv(args.out)
    print(f"wrote {args.out} (sequence {trace.sequence_str()})")
    if args.stages_out:
        stages = segment_stages(trace)
        with open(args.stages_out, "w") as fh:
            fh.write("stage,t0,t1\n")
            for name in ("i", "ii", "iii", "iv", "v"):
                lo, hi = getattr(stages, name)
                fh.write(f"{name},{lo:.17g},{hi:.17g}\n")
        print(f"wrote {args.stages_out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = load_config(args.config)
    check_keys(cfg, _FIT_KEYS)
    model = cfg.get("fit.model", "driven4d")
    if model not in ("driven4d", "driven7d"):
        raise UsageError("fit.model must be driven4d or driven7d")
    fast = figures.model_for(model)
    target_path = cfg.get("fit.target", "")
    if not target_path:
        raise UsageError("fit.target (a features CSV) is required")
    free = [k.strip() for k in cfg.get("fit.free", "d,ca0").split(",") if k.strip()]
    if not set(free) <= set(PATH_PARAMS):
        raise UsageError(f"fit.free = {', '.join(free)}: each name must be "
                         f"one of {', '.join(PATH_PARAMS)}")
    if "path.na0" in cfg and (get_float(cfg, "path.na0")
                              != get_float(cfg, "path.na_c")):
        raise UsageError("path.na0 must equal path.na_c: fitted paths are centred")
    target = FeatureVector.from_csv(target_path)
    snic, ah = _curves(args.curves, fast)
    bounds = {}
    fixed = {}
    for key in PATH_PARAMS:
        bkey = f"fit.bounds.{key}"
        if key in free:
            if bkey not in cfg:
                raise UsageError(f"free parameter {key} needs {bkey}")
            bounds[key] = _parse_pair(cfg[bkey], bkey)
        else:
            fixed[key] = get_float(cfg, f"path.{key}")
    weights = {}
    for key in DEFAULT_WEIGHTS:
        wkey = f"fit.weights.{key}"
        if wkey in cfg:
            weights[key] = get_float(cfg, wkey)
    try:
        problem = FitProblem(
            target=target, bounds=bounds, fixed=fixed,
            params=fast.params, snic=snic, ah=ah,
            model=fast.name, weights=weights or None,
            budget=int(get_float(cfg, "fit.budget", 300)),
            seed=int(get_float(cfg, "fit.seed", 0)),
            rel_tol=get_float(cfg, "fit.rel_tol", 1e-8),
            abs_tol=get_float(cfg, "fit.abs_tol", 1e-8))
    except (ValueError, OverflowError) as exc:
        # a box or budget FitProblem rejects, or a budget or seed that is
        # infinite or NaN
        raise UsageError(str(exc)) from None
    result = fit_path(problem)
    result.to_csv(args.out)
    best = result.best_path
    with open(args.best_out, "w") as fh:
        for key in PATH_KEYS:
            fh.write(f"path.{key} = {getattr(best, key):.17g}\n")
    print(f"best distance {result.best_distance:.6g} after "
          f"{len(result.trials)} trials; wrote {args.out}, {args.best_out}")
    return EXIT_OK


def cmd_figure(args) -> int:
    summary = figures.run_figure(args.name, args.outdir,
                                 rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    failed = [t for t in summary["traces"] if not t.get("db")]
    for t in summary["traces"]:
        status = "DB" if t.get("db") else f"NOT DB ({t.get('error', '')})"
        print(f"{summary['figure']} {t['label']}: {t['sequence']} -> {status}")
    print(f"artifacts in {summary['outdir']}")
    if failed and figures.PRESETS[args.name].model.startswith("driven"):
        # driven presets are expected to burst; the autonomous ones report
        # whatever the biological slow dynamics produced
        raise ClassificationError(
            f"{len(failed)} trace(s) failed DB classification")
    return EXIT_OK


def _parse_pair(raw: str, what: str):
    parts = raw.split(":")
    if len(parts) != 2:
        raise UsageError(f"{what} must be lo:hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"{what}: {raw!r} is not a pair of numbers") from None
    if not hi > lo:
        raise UsageError(f"{what}: need hi > lo")
    return (lo, hi)


if __name__ == "__main__":
    sys.exit(main())
