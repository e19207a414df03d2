"""Optimization of imposed-path parameters against target burst features.

Two-phase derivative-free search: a Latin-hypercube sample of the parameter
box keeps the trials that classify as DB bursting, then a Nelder-Mead
simplex descends from the best of them. Trials that fail DB classification
are penalized, never returned as best. The objective is piecewise smooth
(spike counts are integers), hence the derivative-free choice; spike-count
terms carry zero weight by default and are reported, not optimized.
"""
from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from .bifurcation import BifCurve
from .features import (ClassificationError, FeatureVector, burst_features,
                       feature_distance, run_driven)
from .integrate import StepSizeError
from .landscape import sweep_workers
from .model import FullFast, ReducedFast
from .params import InvalidParameterError, ModelParams
from .paths import EllipsePath

PENALTY = 1e6

PATH_PARAMS = ("ca_c", "na_c", "d", "ca0", "eps")


@dataclass(frozen=True)
class FitProblem:
    """Target features plus the search box for a driven-model path fit."""

    target: FeatureVector
    bounds: dict                    # name -> (lo, hi) for free parameters
    fixed: dict                     # name -> value for the rest
    params: ModelParams
    snic: BifCurve
    ah: BifCurve
    model: str = "reduced"          # "reduced" or "full"
    weights: Optional[dict] = None
    budget: int = 300
    seed: int = 0
    rel_tol: float = 1e-8
    abs_tol: float = 1e-8

    def __post_init__(self):
        names = set(self.bounds) | set(self.fixed)
        missing = set(PATH_PARAMS) - names
        if missing:
            raise ValueError(f"unconstrained path parameters: {sorted(missing)}")
        unknown = names - set(PATH_PARAMS)
        if unknown:
            raise ValueError(f"unknown path parameters: {sorted(unknown)}")
        for name, (lo, hi) in self.bounds.items():
            if not (hi > lo):
                raise ValueError(f"empty bounds for {name}")
            if name in ("d", "eps") and lo <= 0:
                raise ValueError(f"{name} bounds must be strictly positive")
        if self.budget < 6:
            raise ValueError("budget too small for the two-phase search")

    def make_path(self, values: dict) -> EllipsePath:
        kw = dict(self.fixed)
        kw.update(values)
        return EllipsePath.centered(
            ca_c=kw["ca_c"], na_c=kw["na_c"], d=kw["d"],
            ca0=kw["ca0"], eps=kw["eps"])


@dataclass(frozen=True)
class Trial:
    values: dict
    distance: float
    db: bool
    sequence: str


@dataclass
class FitResult:
    best_path: EllipsePath
    best_distance: float
    trials: list = field(default_factory=list)

    def best_so_far(self):
        """Running minimum of the DB-classified distances, per trial index."""
        out = []
        best = math.inf
        for tr in self.trials:
            if tr.db and tr.distance < best:
                best = tr.distance
            out.append(best)
        return out

    def write_csv(self, fh) -> None:
        names = sorted({k for tr in self.trials for k in tr.values})
        fh.write(",".join(names) + ",distance,db,sequence\n")
        for tr in self.trials:
            row = ",".join(f"{tr.values[n]:.17g}" for n in names)
            fh.write(f"{row},{tr.distance:.17g},{int(tr.db)},{tr.sequence}\n")

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            self.write_csv(fh)


def _evaluate(problem: FitProblem, values: dict):
    fast = ReducedFast(problem.params) if problem.model == "reduced" \
        else FullFast(problem.params)
    try:
        path = problem.make_path(values)
        trace = run_driven(fast, path, problem.snic, problem.ah,
                           rel_tol=problem.rel_tol, abs_tol=problem.abs_tol)
        fv = burst_features(trace)
    except ClassificationError as exc:
        seq = str(exc)
        return Trial(values=values, distance=PENALTY, db=False, sequence=seq)
    except (StepSizeError, InvalidParameterError) as exc:
        return Trial(values=values, distance=PENALTY, db=False,
                     sequence=f"error: {exc}")
    dist = feature_distance(fv, problem.target, problem.weights)
    return Trial(values=values, distance=dist, db=True, sequence="DB")


def _eval_task(args):
    problem, values = args
    return _evaluate(problem, values)


def latin_hypercube(bounds: dict, n: int, seed: int):
    """Deterministic Latin-hypercube sample of the box."""
    rng = random.Random(seed)
    names = sorted(bounds)
    columns = {}
    for name in names:
        lo, hi = bounds[name]
        cells = list(range(n))
        rng.shuffle(cells)
        columns[name] = [lo + (c + rng.random()) * (hi - lo) / n for c in cells]
    return [{name: columns[name][i] for name in names} for i in range(n)]


def nelder_mead(f, x0, bounds, max_evals: int, init_scale: float = 0.1,
                f0: Optional[float] = None):
    """Bounded Nelder-Mead minimization of f over parameter dicts.

    Points are clipped into the box before evaluation, so the simplex cannot
    leave it. Deterministic: the initial simplex steps each coordinate by
    init_scale of its box width. Returns (best_x, best_f, n_evals).
    """
    names = sorted(x0)
    lo = [bounds[n][0] for n in names]
    hi = [bounds[n][1] for n in names]

    def clip(x):
        return [min(max(v, l), h) for v, l, h in zip(x, lo, hi)]

    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        return f({n: v for n, v in zip(names, x)})

    dim = len(names)
    x0v = clip([x0[n] for n in names])
    simplex = [x0v]
    fvals = [f0 if f0 is not None else call(x0v)]
    for i in range(dim):
        x = list(x0v)
        step = init_scale * (hi[i] - lo[i])
        x[i] = x[i] + step if x[i] + step <= hi[i] else x[i] - step
        x = clip(x)
        simplex.append(x)
        fvals.append(call(x))

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    while evals < max_evals:
        order = sorted(range(dim + 1), key=lambda i: fvals[i])
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        if abs(fvals[-1] - fvals[0]) < 1e-14 * max(1.0, abs(fvals[0])):
            break
        centroid = [sum(s[i] for s in simplex[:-1]) / dim for i in range(dim)]
        xr = clip([c + alpha * (c - w) for c, w in zip(centroid, simplex[-1])])
        fr = call(xr)
        if fvals[0] <= fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
            continue
        if fr < fvals[0]:
            if evals >= max_evals:
                simplex[-1], fvals[-1] = xr, fr
                break
            xe = clip([c + gamma * (r - c) for c, r in zip(centroid, xr)])
            fe = call(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
            continue
        if evals >= max_evals:
            break
        xc = clip([c + rho * (w - c) for c, w in zip(centroid, simplex[-1])])
        fc = call(xc)
        if fc < fvals[-1]:
            simplex[-1], fvals[-1] = xc, fc
            continue
        for i in range(1, dim + 1):
            if evals >= max_evals:
                break
            simplex[i] = clip([a + sigma * (b - a)
                               for a, b in zip(simplex[0], simplex[i])])
            fvals[i] = call(simplex[i])
    order = sorted(range(dim + 1), key=lambda i: fvals[i])
    best = simplex[order[0]]
    return {n: v for n, v in zip(names, best)}, fvals[order[0]], evals


def fit_path(problem: FitProblem, workers: Optional[int] = None) -> FitResult:
    """Two-phase fit of the free path parameters.

    Phase 1 evaluates a Latin-hypercube sample of ceil(budget/3) points
    (concurrently when workers > 1) and keeps the DB-classified ones; phase
    2 runs Nelder-Mead from the best sample with non-DB trials penalized.
    Deterministic for a fixed seed and problem.

    Raises RuntimeError listing the observed crossing sequences when no
    phase-1 point classifies as DB.
    """
    if workers is None:
        workers = sweep_workers()
    n_sample = math.ceil(problem.budget / 3)
    samples = latin_hypercube(problem.bounds, n_sample, problem.seed)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            phase1 = list(pool.map(_eval_task,
                                   [(problem, s) for s in samples]))
    else:
        phase1 = [_evaluate(problem, s) for s in samples]
    trials = list(phase1)
    db_trials = [tr for tr in phase1 if tr.db]
    if not db_trials:
        seqs = sorted({tr.sequence for tr in phase1})
        raise RuntimeError(
            "no DB-classified point in the initial sample; observed "
            f"sequences: {seqs}")
    best0 = min(db_trials, key=lambda tr: tr.distance)

    def objective(values):
        tr = _evaluate(problem, values)
        trials.append(tr)
        return tr.distance

    remaining = problem.budget - n_sample
    nelder_mead(objective, best0.values, problem.bounds, remaining,
                f0=best0.distance)
    best = min((tr for tr in trials if tr.db), key=lambda tr: tr.distance)
    return FitResult(best_path=problem.make_path(best.values),
                     best_distance=best.distance, trials=trials)
