"""Named end-to-end figure presets (fig1..fig7).

Each preset reproduces one published panel setup: the autonomous models
(fig1, fig2), the driven models with three aspect ratios (fig3, fig4), the
traversal-speed comparison (fig5), the period landscape with two contrasting
paths (fig6) and the eigenvalue landscape with three aspect ratios (fig7).
Presets are read-only; runners write CSV artifacts and an overlay SVG.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import svg
from .bifurcation import trace_fold_curve, trace_hopf_curve, write_curves
from .features import (BurstTrace, ClassificationError, FeatureVector,
                       _autonomous_run, _spikes_in_window, burst_features,
                       run_autonomous, run_driven)
from .landscape import (PERIOD, RE_LAMBDA, GridSpec, build_field,
                        extract_contours)
from .model import FullFast, ReducedFast
from .params import FULL7D, REDUCED4D
from .paths import EllipsePath


@dataclass(frozen=True)
class FigurePreset:
    name: str
    model: str                  # full7d | reduced4d | driven7d | driven4d
    paths: tuple = ()           # EllipsePaths for driven presets
    labels: tuple = ()
    field_kind: Optional[str] = None
    window: Optional[GridSpec] = None
    levels: tuple = ()


def _paths(ca_c, na_c, ca0, eps, ds):
    return tuple(EllipsePath.centered(ca_c, na_c, d, ca0, eps) for d in ds)


AUTONOMOUS_TRANSIENT = 3000.0   # ms of warm-up of fig1 and fig2
AUTONOMOUS_BUDGET = 9000.0      # ms recorded after it

FIG6_WINDOW = GridSpec(-0.1, 0.45, 4.8, 5.8, 121, 121)
FIG7_WINDOW = GridSpec(0.0, 0.5, 4.8, 6.4, 121, 121)
RE_LEVELS = tuple(np.linspace(-0.05, 0.09, 15))
PERIOD_LEVELS = (40.0, 30.0, 24.0, 20.0, 16.0, 13.0, 11.0, 10.3, 10.1,
                 10.0, 9.95)

PRESETS = {
    "fig1": FigurePreset(name="fig1", model="full7d"),
    "fig2": FigurePreset(name="fig2", model="reduced4d"),
    "fig3": FigurePreset(
        name="fig3", model="driven7d",
        paths=_paths(0.7, 5.35, 0.0, 0.009, (0.5, 2.0, 20.0)),
        labels=("d=1/2", "d=2", "d=20")),
    "fig4": FigurePreset(
        name="fig4", model="driven4d",
        paths=_paths(0.15, 5.85, 0.0, 0.004, (0.2, 1.0, 50.0)),
        labels=("d=1/5", "d=1", "d=50")),
    "fig5": FigurePreset(
        name="fig5", model="driven4d",
        paths=tuple(EllipsePath.centered(0.15, 5.85, 0.1, 0.0, e)
                    for e in (0.002, 0.006, 0.01)),
        labels=("eps=0.002", "eps=0.006", "eps=0.01")),
    "fig6": FigurePreset(
        name="fig6", model="driven4d",
        paths=(EllipsePath.centered(0.15, 5.2, 0.1, 0.0, 0.009),
               EllipsePath(ca_c=0.1, na_c=5.1, d=1.0, ca0=-0.1, na0=5.1,
                           eps=0.009)),
        labels=("blue d=0.1", "red d=1"),
        field_kind=PERIOD, window=FIG6_WINDOW, levels=PERIOD_LEVELS),
    "fig7": FigurePreset(
        name="fig7", model="driven4d",
        paths=_paths(0.19, 5.75, 0.04, 0.004, (0.1, 0.2, 0.4)),
        labels=("d=0.1", "d=0.2", "d=0.4"),
        field_kind=RE_LAMBDA, window=FIG7_WINDOW, levels=RE_LEVELS),
}

# Na ranges over which the two curves exist and cover every preset path
CURVE_RANGES = {
    "reduced": {"snic": (4.8, 7.4), "ah": (4.2, 7.4)},
    "full": {"snic": (4.8, 7.0), "ah": (4.0, 7.0)},
}


def model_for(name: str):
    if name in ("full7d", "driven7d"):
        return FullFast(FULL7D)
    if name in ("reduced4d", "driven4d"):
        return ReducedFast(REDUCED4D)
    raise ValueError(f"unknown model {name!r}")


def compute_curves(fast) -> tuple:
    rng = CURVE_RANGES[fast.name]
    snic = trace_fold_curve(fast, na_range=rng["snic"])
    ah = trace_hopf_curve(fast, na_range=rng["ah"])
    return snic, ah


def run_figure(name: str, outdir, rel_tol: float = 1e-8,
               abs_tol: float = 1e-8, workers: Optional[int] = None,
               curves=None) -> dict:
    """Run one preset end to end; returns a summary dict and writes
    curves/trace/feature CSVs plus an overlay SVG into outdir.

    Pass precomputed (snic, ah) as curves to skip the tracing step."""
    if name not in PRESETS:
        raise ValueError(f"unknown figure {name!r}; choose from "
                         f"{sorted(PRESETS)}")
    preset = PRESETS[name]
    os.makedirs(outdir, exist_ok=True)
    fast = model_for(preset.model)
    snic, ah = curves if curves is not None else compute_curves(fast)
    write_curves(os.path.join(outdir, f"{name}_curves.csv"), snic, ah)
    summary = {"figure": name, "model": preset.model, "traces": []}

    traces: list[tuple[str, BurstTrace]] = []
    if preset.model in ("driven7d", "driven4d"):
        for label, path in zip(preset.labels, preset.paths):
            tr = run_driven(fast, path, snic, ah, rel_tol=rel_tol,
                            abs_tol=abs_tol)
            traces.append((label, tr))
    else:
        try:
            tr = run_autonomous(fast, snic, ah, AUTONOMOUS_TRANSIENT,
                                AUTONOMOUS_BUDGET, rel_tol, abs_tol)
        except ClassificationError:
            # no clean cycle (e.g. the reduced model dances across AH);
            # fall back to a raw window so the artifacts still get written
            tr = _autonomous_raw(fast, snic, ah, rel_tol, abs_tol)
        traces.append((preset.model, tr))

    contours = None
    if preset.field_kind is not None:
        field = build_field(preset.field_kind, preset.window, fast,
                            workers=workers)
        field.to_csv(os.path.join(outdir, f"{name}_field.csv"))
        contours = extract_contours(field, preset.levels)
        contours.to_csv(os.path.join(outdir, f"{name}_contours.csv"))
    canvas = _overlay_canvas(preset, snic, ah, traces, contours)

    with open(os.path.join(outdir, f"{name}_features.csv"), "w") as fh:
        fh.write("label," + ",".join(FeatureVector.COLUMNS) + "\n")
        for i, (label, tr) in enumerate(traces):
            tr.trajectory.to_csv(
                os.path.join(outdir, f"{name}_trace{i}.csv"),
                columns=_state_columns(preset.model))
            entry = {"label": label, "sequence": tr.sequence_str(),
                     "spikes": len(tr.spikes)}
            try:
                fv = burst_features(tr)
                fh.write(f"{label},{fv.row()}\n")
                entry["db"] = True
                entry["stage_v_count"] = fv.stage_v_count
            except ClassificationError as exc:
                entry["db"] = False
                entry["error"] = str(exc)
            summary["traces"].append(entry)

    canvas.save(os.path.join(outdir, f"{name}_overlay.svg"))
    summary["outdir"] = str(outdir)
    return summary


def _state_columns(model: str):
    if model in ("reduced4d", "driven4d"):
        return ["v", "n", "Ca", "Na"]
    return ["v", "n", "m", "h", "s", "Ca", "Na"]


def _autonomous_raw(fast, snic, ah, rel_tol, abs_tol):
    traj, events = _autonomous_run(fast, snic, ah, AUTONOMOUS_TRANSIENT,
                                   AUTONOMOUS_BUDGET, rel_tol, abs_tol)
    return BurstTrace(trajectory=traj, t_start=traj.t0, t_end=traj.t1,
                      period=traj.t1 - traj.t0, events=tuple(events),
                      spikes=_spikes_in_window(traj, traj.t0, traj.t1),
                      model=f"autonomous-{fast.name}")


def _overlay_canvas(preset, snic, ah, traces, contours):
    """The overlay, bottom layer first: contours (when there is a field),
    the SNIC and AH curves, then the paths with their crossing markers."""
    all_ca = list(snic.ca) + list(ah.ca)
    all_na = list(snic.na) + list(ah.na)
    for label, tr in traces:
        ys = tr.trajectory.ys
        all_ca += [float(ys[:, -2].min()), float(ys[:, -2].max())]
        all_na += [float(ys[:, -1].min()), float(ys[:, -1].max())]
    if preset.window is not None:
        g = preset.window
        x0, x1, y0, y1 = g.ca_min, g.ca_max, g.na_min, g.na_max
    else:
        pad_x = 0.05 * (max(all_ca) - min(all_ca))
        pad_y = 0.05 * (max(all_na) - min(all_na))
        x0, x1 = min(all_ca) - pad_x, max(all_ca) + pad_x
        y0, y1 = min(all_na) - pad_y, max(all_na) + pad_y
    canvas = svg.SvgCanvas(x0, x1, y0, y1)
    if contours is not None:
        for level in contours.levels:
            for poly in contours.polylines.get(level, []):
                canvas.polyline(poly[:, 0], poly[:, 1],
                                color=svg.CONTOUR_COLOR, width=0.8)
    canvas.polyline(snic.ca, snic.na, color=svg.CURVE_COLOR, width=2.0)
    canvas.polyline(ah.ca, ah.na, color=svg.CURVE_COLOR, width=2.0)
    canvas.text(float(snic.ca[-1]), float(snic.na[-1]), "SNIC")
    canvas.text(float(ah.ca[-1]), float(ah.na[-1]), "AH")
    for i, (label, tr) in enumerate(traces):
        color = svg.PATH_COLORS[i % len(svg.PATH_COLORS)]
        ys = tr.trajectory.ys
        stride = max(1, len(ys) // 4000)
        canvas.polyline(ys[::stride, -2], ys[::stride, -1], color=color,
                        width=1.2)
        for e in tr.events:
            mark = svg.SNIC_MARK if e.label == "SNIC" else svg.AH_MARK
            canvas.circle(e.y[-2], e.y[-1], mark)
    return canvas
