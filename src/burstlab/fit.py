"""Optimization of imposed-path parameters against target burst features.

Two-phase derivative-free search: a Latin-hypercube sample of the parameter
box keeps the trials that classify as DB bursting, then SciPy's Nelder-Mead
simplex descends from the best of them, on the evaluations the sample left
of the budget, never more. Trials that fail DB classification
are penalized, never returned as best. A trial is classified from its
path's crossings before any integration, and only a DB-windowed trial runs
the driven model. The objective is piecewise smooth (spike counts are
integers), hence the derivative-free choice; spike-count terms carry zero
weight by default and are reported, not optimized.
"""
from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .bifurcation import BifCurve
from .features import (ClassificationError, FeatureVector, burst_features,
                       cycle_window, feature_distance, require_db, run_driven)
from .integrate import StepSizeError
from .landscape import STEP_FAILURE, _map, sweep_workers
from .model import FullFast, ReducedFast
from .params import InvalidParameterError, ModelParams
from .paths import EllipsePath

PENALTY = 1e6
INIT_SCALE = 0.1    # Nelder-Mead's first simplex step, of the box width

PATH_PARAMS = ("ca_c", "na_c", "d", "ca0", "eps")

# the status of a trial: DB-classified, or why it scores the penalty
DB = "db"
NOT_DB = "not_db"               # the crossing sequence is not SNIC, AH, AH, SNIC
INVALID = "invalid"             # the parameters make no valid path or model


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
    """One evaluation of the objective. sequence is "DB", the crossing
    sequence of a non-DB path's cycle window, or "error: ..." for a step
    failure or an invalid path; status names the class (DB, NOT_DB,
    STEP_FAILURE or INVALID). seconds, the wall time of the evaluation (of
    the classification alone for NOT_DB), is left out of comparisons, so
    equal fits compare equal."""

    values: dict
    distance: float
    db: bool
    sequence: str
    status: str
    seconds: float = field(compare=False)


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
        # sequence goes last: a crossing sequence holds commas
        fh.write(",".join(names) + ",distance,db,status,seconds,sequence\n")
        for tr in self.trials:
            row = ",".join(f"{tr.values[n]:.17g}" for n in names)
            fh.write(f"{row},{tr.distance:.17g},{int(tr.db)},{tr.status},"
                     f"{tr.seconds:.6f},{tr.sequence}\n")

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            self.write_csv(fh)


def _evaluate(problem: FitProblem, values: dict):
    start = time.perf_counter()
    distance = PENALTY
    try:
        path = problem.make_path(values)
        # the class follows from the path's crossings: only a DB window
        # is worth an integration
        require_db(cycle_window(path, problem.snic, problem.ah).sequence())
        fast = ReducedFast(problem.params) if problem.model == "reduced" \
            else FullFast(problem.params)
        trace = run_driven(fast, path, problem.snic, problem.ah,
                           rel_tol=problem.rel_tol, abs_tol=problem.abs_tol)
        fv = burst_features(trace)
    except ClassificationError as exc:
        status, seq = NOT_DB, str(exc)
    except StepSizeError as exc:
        status, seq = STEP_FAILURE, f"error: {exc}"
    except InvalidParameterError as exc:
        status, seq = INVALID, f"error: {exc}"
    else:
        distance = feature_distance(fv, problem.target, problem.weights)
        status, seq = DB, "DB"
    return Trial(values=values, distance=distance, db=status == DB,
                 sequence=seq, status=status,
                 seconds=time.perf_counter() - start)


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


def nelder_mead(f, x0, bounds, max_evals: int, f0: Optional[float] = None):
    """Bounded Nelder-Mead minimization of f over parameter dicts: SciPy's
    Nelder-Mead (scipy.optimize.minimize), which clips every vertex into
    the box, so the simplex cannot leave it.

    Deterministic: the initial simplex is x0 clipped into the box plus one
    vertex per coordinate, stepped by INIT_SCALE of its box width (down
    where up would pass the upper bound). f is called at most max_evals
    times; a given f0 is taken as f(x0), which saves that call. The search
    stops early once the simplex's f values agree to 1e-14. Returns
    (best_x, best_f, n_evals): the best point evaluated, f0 at x0
    included, its value and the number of calls of f.
    """
    names = sorted(x0)
    lo = np.array([bounds[n][0] for n in names])
    hi = np.array([bounds[n][1] for n in names])
    start = np.clip([x0[n] for n in names], lo, hi)
    simplex = [start]
    for i, step in enumerate(INIT_SCALE * (hi - lo)):
        x = start.copy()
        x[i] = x[i] + step if x[i] + step <= hi[i] else x[i] - step
        simplex.append(np.clip(x, lo, hi))
    free = [] if f0 is None else [f0]
    best_x, best_f = start, math.inf

    def objective(x):
        # SciPy evaluates the first vertex, x0, first. It can stop at the
        # budget without keeping the last point in the simplex, so the best
        # point is kept here.
        nonlocal best_x, best_f
        fx = free.pop() if free else f(dict(zip(names, x.tolist())))
        if fx < best_f:
            best_x, best_f = x, fx
        return fx

    res = minimize(objective, start, method="Nelder-Mead",
                   bounds=list(zip(lo, hi)),
                   options={"initial_simplex": simplex,
                            "maxfev": max_evals + (f0 is not None),
                            "xatol": math.inf, "fatol": 1e-14})
    return (dict(zip(names, best_x.tolist())), best_f,
            res.nfev - (f0 is not None))


def fit_path(problem: FitProblem, workers: Optional[int] = None) -> FitResult:
    """Two-phase fit of the free path parameters.

    Phase 1 evaluates a Latin-hypercube sample of ceil(budget/3) points
    (concurrently when workers > 1) and keeps the DB-classified ones; phase
    2 runs Nelder-Mead from the best sample with non-DB trials penalized.
    Every trial is classified from its path's crossings before it is
    integrated: a not_db trial runs no integration, its seconds is the
    classification time, and step_failure arises only for DB-windowed
    paths. Deterministic for a fixed seed and problem.

    Raises ClassificationError listing the observed crossing sequences when
    no phase-1 point classifies as DB.
    """
    if workers is None:
        workers = sweep_workers()
    n_sample = math.ceil(problem.budget / 3)
    samples = latin_hypercube(problem.bounds, n_sample, problem.seed)
    phase1 = _map(functools.partial(_evaluate, problem), workers, samples)
    trials = list(phase1)
    db_trials = [tr for tr in phase1 if tr.db]
    if not db_trials:
        seqs = sorted({tr.sequence for tr in phase1})
        raise ClassificationError(
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
