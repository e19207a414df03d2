"""Adaptive ODE integration with dense output and event detection.

A single Dormand-Prince 5(4) engine serves every simulation in the package.
States are plain tuples of floats: for systems of dimension 1 to 7 this is
considerably faster in CPython than array-based steppers, and the landscape
sweeps need that throughput. The tableau is written once, as data. A solve
is generated from it on first use, per dimension, as one function: the
accept/reject loop with the step inlined as straight-line code over local
floats, so the state never leaves local variables and a step calls nothing
but its stages and sqrt. The step control and the error norm are
conditional expressions, not min, max and abs calls. CPython charges for
every call, loop iteration and tuple it builds, and a step that loops over
components costs about a quarter more.
Dense output uses the standard fourth-order interpolant of the pair. Events
are localized after the solve: the test functions are evaluated at the
accepted steps of the finished trajectory and each sign change is refined
on that step's interpolant by Brent's method, so event times do not depend
on step-size control. Trajectory.extrema finds every extremum of v on the
interpolant itself, as a root of v', with no sampling grid.

The stages and error norm are generated once, as source, and serve three
functions: the solve loop (solve_source), and the single step (step_source)
compiled for tuple states or for lanes. A lane state is a tuple of numpy
arrays, one element per independent problem, advanced in lockstep by
step_lanes with a step size and accept decision of its own per lane. Only
the namespace the step is compiled in differs (TUPLES or LANES), so each
lane does the tuple step's arithmetic in the same order. The solve loop
alone writes the error scale's max(abs(y), abs(z)) as a conditional
expression, which takes floats only and picks the same operand.

The generator takes each stage as source, by default one rhs call. An rhs
may carry its own loop as rhs.solve, generated by solve_source with other
stages, and integrate then runs it; the driven loop of model.py is one,
with the current balance, the path's closed form and the forcing inlined
into every stage and every sigmoid an inline expression, so a driven step
makes no Python call at all, only calls of math's exp, cosh, cos, sin and
sqrt.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

# Dormand-Prince 5(4) tableau. Stage s + 2 evaluates at t + _C[s + 1] h on
# y + h sum_j _A[s][j] k_j; the pair is FSAL: the fifth-order weights _B give
# the new point, where stage 7 evaluates. _E = b - b_hat weighs the error.
_C = (0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
)
_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
      11.0 / 84.0)
_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0,
      22.0 / 525.0, -1.0 / 40.0)

# Interpolant coefficients: y(t0 + x h) = y0 + h sum_j x^(j+1) (K^T P)[:, j]
_P = np.array([
    [1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0],
    [0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0],
    [0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0],
    [0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0],
    [0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0,
     69997945.0 / 29380423.0],
])

# the stage times of a step, as fractions of h
_NODES = np.array(_C)

_MAX_FACTOR = 10.0
_MIN_FACTOR = 0.2
_SAFETY = 0.9

MAX_STEP = 1.0          # ms, the largest step: no spike is skipped
MAX_STEPS = 400_000     # the accepted-step budget of one solve


class StepSizeError(RuntimeError):
    """Step size underflow (stiffness or blow-up); carries the last good time."""

    def __init__(self, message: str, t_last: float):
        super().__init__(message)
        self.t_last = t_last


@dataclass(frozen=True)
class EventRecord:
    """One localized sign change of an event test function."""

    index: int              # position of the test function in the event list
    t: float
    y: tuple
    direction: int          # +1 upward crossing, -1 downward
    label: str = ""


class SolverStats(NamedTuple):
    """The work of one solve."""

    steps: int          # accepted steps
    rejected: int       # rejected step attempts
    rhs_evals: int      # stage evaluations: rhs calls in the generic loop


class Trajectory:
    """Solution samples at the accepted steps plus a dense interpolant."""

    def __init__(self, ts: np.ndarray, ys: np.ndarray, dense: np.ndarray,
                 rel_tol: float, abs_tol: float, stats: SolverStats):
        self.ts = ts            # (n,)
        self.ys = ys            # (n, dim)
        self._dense = dense     # (n-1, 4, dim)
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self.stats = stats

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    @property
    def dim(self) -> int:
        return self.ys.shape[1]

    def sample(self, t):
        """Evaluate the dense interpolant at scalar or array times."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        tq = np.atleast_1d(t_arr)
        if tq.size and (tq.min() < self.ts[0] - 1e-9 or tq.max() > self.ts[-1] + 1e-9):
            raise ValueError("sample time outside the integrated span")
        idx = np.clip(np.searchsorted(self.ts, tq, side="right") - 1,
                      0, len(self.ts) - 2)
        h = self.ts[idx + 1] - self.ts[idx]
        x = (tq - self.ts[idx]) / h
        out = _interpolant(self.ys[idx], h[:, None], x[:, None],
                           self._dense[idx].transpose(1, 0, 2))
        return out[0] if scalar else out

    def extrema(self, t0: float, t1: float):
        """(t, v, kind) arrays of every local extremum of v (column 0) in
        [t0, t1], clipped to the span, by time; kind is +1 at a maximum.

        On a step, v' is a cubic in the step fraction x. The roots of v'',
        in closed form, split it into pieces on which v' is monotone, so each
        sign change of v' over a piece brackets one extremum, however many
        the step holds; _rising_root refines it on v'.
        """
        ts = self.ts
        t0, t1 = max(t0, ts[0]), min(t1, ts[-1])
        first = max(int(np.searchsorted(ts, t0, side="right")) - 1, 0)
        stop = min(int(np.searchsorted(ts, t1)), len(ts) - 1)
        if stop <= first:
            return np.empty(0), np.empty(0), np.empty(0, dtype=int)
        h = ts[first + 1:stop + 1] - ts[first:stop]
        c = self._dense[first:stop, :, 0].T
        x_lo, x_hi = np.zeros_like(h), np.ones_like(h)
        x_lo[0], x_hi[-1] = (t0 - ts[first]) / h[0], (t1 - ts[stop - 1]) / h[-1]
        # the roots of v''/2 = 6 c3 x^2 + 3 c2 x + c1, cancellation-free; one
        # that is not a number or lies off the window becomes x_lo
        qa, qb = 6.0 * c[3], 3.0 * c[2]
        with np.errstate(all="ignore"):
            q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * c[1]), qb))
            splits = np.stack([q / qa, c[1] / q])
        splits = np.where((splits > x_lo) & (splits < x_hi), splits, x_lo)
        lo = np.vstack([x_lo, np.sort(splits, axis=0)])     # (3, steps)
        hi = np.vstack([lo[1:], x_hi])
        # v' at every piece start, then at the window end: a knot's value
        # comes from the step that starts there
        g = np.append(_slope(lo, c).T.ravel(), _slope(x_hi[-1], c[:, -1]))
        piece, rising = np.array(sign_changes(g), dtype=int).reshape(-1, 2).T
        step = piece // 3
        c = c[:, step]
        x = _rising_root(
            lambda x: rising * _slope(x, c),
            lambda x: rising * (2.0 * c[1] + x * (6.0 * c[2] + x * 12.0 * c[3])),
            lo.T.ravel()[piece], hi.T.ravel()[piece])
        h = h[step]
        return (ts[first + step] + x * h,
                _interpolant(self.ys[first + step, 0], h, x, c), -rising)

    def write_csv(self, fh, columns: Optional[Sequence[str]] = None) -> None:
        """t and every column, one row per accepted step, each value with 17
        significant digits, so it reads back exactly."""
        names = columns or [f"y{i}" for i in range(self.dim)]
        fh.write("t," + ",".join(names) + "\n")
        row = ",".join(["%.17g"] * (self.dim + 1)) + "\n"
        fh.writelines(row % tuple(r) for r in
                      np.column_stack([self.ts, self.ys]).tolist())

    def to_csv(self, path, columns: Optional[Sequence[str]] = None) -> None:
        with open(path, "w") as fh:
            self.write_csv(fh, columns)


class _Ops(NamedTuple):
    """The elementary functions that differ between tuple states and lanes."""

    sqrt: Callable
    maximum: Callable
    minimum: Callable
    where: Callable


def _pick(cond, a, b):
    return a if cond else b


TUPLES = _Ops(math.sqrt, max, min, _pick)
LANES = _Ops(np.sqrt, np.maximum, np.minimum, np.where)


def initial_step(rhs, t0, y0, f0, rel_tol, abs_tol, ops=TUPLES):
    """The first step size of a solve from (t0, y0) with f0 = rhs(t0, y0),
    after Hairer, Norsett and Wanner (Solving ODEs I, II.4); on lanes with
    ops=LANES, one per lane."""
    sqrt, maximum, minimum, where = ops
    scale = [abs_tol + rel_tol * abs(yi) for yi in y0]
    d0 = sqrt(sum((yi / si) ** 2 for yi, si in zip(y0, scale)) / len(y0))
    d1 = sqrt(sum((fi / si) ** 2 for fi, si in zip(f0, scale)) / len(y0))
    # np.where evaluates both branches, so every divisor is bounded away
    # from zero by a bound that never changes the branch taken
    h0 = where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / maximum(d1, 1e-5))
    y1 = tuple(yi + h0 * fi for yi, fi in zip(y0, f0))
    f1 = rhs(t0 + h0, y1)
    d2 = sqrt(sum(((a - b) / si) ** 2
                  for a, b, si in zip(f1, f0, scale)) / len(y0)) / h0
    h1 = where((d1 <= 1e-15) & (d2 <= 1e-15), maximum(1e-6, h0 * 1e-3),
               (0.01 / maximum(maximum(d1, d2), 1e-15)) ** 0.2)
    return minimum(minimum(100.0 * h0, h1), MAX_STEP)


def _weighted(weights, i):
    # h times the weighted sum of component i of the stage derivatives k_j,
    # over the nonzero weights in stage order; a lone term is not bracketed,
    # so it rounds as (h w) k, like the textbook stage-2 formula
    terms = [f"{w!r} * k{j}_{i}" for j, w in enumerate(weights) if w]
    return "h * " + (terms[0] if len(terms) == 1 else f"({' + '.join(terms)})")


def _rhs_stage(t, k, fresh):
    # the generic stage: one call of the rhs
    z = ", ".join(f"z{i}" for i in range(len(k)))
    return [f"{', '.join(k)}, = rhs({t}, ({z},))"]


# max(abs(a), abs(b)), the error scale's magnitude, as a call for any
# state and as a conditional expression for floats. The expression picks
# the operand max picks, the first of equal values; a sign it leaves on a
# zero or a NaN does not change the scale or the norm.
_LARGER_CALL = "max(abs({a}), abs({b}))"
_LARGER_FLOAT = ("(_b if (_b := ({b} if {b} >= 0.0 else -{b}))"
                 " > (_a := ({a} if {a} >= 0.0 else -{a})) else _a)")


def _attempt(dim, stage, larger=_LARGER_CALL):
    """Source lines of one Dormand-Prince attempt, unrolled from the
    tableau, from the state y0, y1, ... and its derivative k0_0, k0_1, ...
    at t with step h: the stage derivatives k1_* to k6_*, the new state z0,
    z1, ... (k6_* is the derivative there) and err, the RMS norm of the
    local error scaled by the tolerances.

    stage(t, k, fresh) gives the source lines of one stage: they assign to
    the names k the derivative at the time expression t and the stage state
    z0, z1, .... fresh is False where the stage shares the time of the one
    before, as the FSAL pair's last two do (c6 = c7 = 1), so what depends
    on the time alone is still bound. The default stage calls rhs(t, z).
    larger is the form of max(abs(a), abs(b)) in the error scale.
    """
    comps = range(dim)
    src = []
    for s, (c, weights) in enumerate(zip(_C[1:], _A + (_B,)), 1):
        src += [f"z{i} = y{i} + {_weighted(weights, i)}" for i in comps]
        src += stage(f"t + {c!r} * h", [f"k{s}_{i}" for i in comps],
                     c != _C[s - 1])
    # square as r * r, which is correctly rounded; the C pow() behind r ** 2
    # can be 1 ulp off, and a 1-ulp err moves the step size
    src += [f"r{i} = {_weighted(_E, i)} / (abs_tol + rel_tol * "
            f"{larger.format(a=f'y{i}', b=f'z{i}')})" for i in comps]
    squares = " + ".join(f"r{i} * r{i}" for i in comps)
    return src + [f"err = sqrt(({squares}) * {1.0 / dim!r})"]


def _names(fmt, dim, stages=(0,)):
    # fmt for every stage s and component i, as a tuple display
    return "(" + ", ".join(fmt.format(s=s, i=i) for s in stages
                           for i in range(dim)) + ",)"


def _indented(lines, depth):
    return "\n".join(" " * (4 * depth) + line for line in lines)


def step_source(dim):
    """Source of the Dormand-Prince step for states of dimension dim, with
    the default stage: step(rhs, t, y, f, h, rel_tol, abs_tol) -> (y_new,
    k_step, err), with k_step the 7 stage derivatives (f first, f at y_new
    last) and err the RMS norm of the local error scaled by the
    tolerances."""
    stages = ", ".join(_names("k{s}_{i}", dim, [s]) for s in range(1, 7))
    return (f"def step(rhs, t, y, f, h, rel_tol, abs_tol):\n"
            f"    {_names('y{i}', dim)} = y\n"
            f"    {_names('k0_{i}', dim)} = f\n"
            f"{_indented(_attempt(dim, _rhs_stage), 1)}\n"
            f"    return {_names('z{i}', dim)}, (f, {stages}), err\n")


# integrate's accept/reject loop (Hairer, Norsett and Wanner, Solving ODEs
# I, II.4) around the attempt, which stands in for {attempt}. The step
# control is written in conditional expressions, each picking the operand
# that min(h, max_step, t1 - t), max(min_factor, q) and min(max_factor, q)
# pick: the first of equal values, and min_factor where q is not a number.
# So, as np.fmax in step_lanes, a NaN err is ignored, and a step whose rhs
# is not a number shrinks until it underflows. An attempt whose arithmetic
# overflows (math's exp and cosh raise where numpy gives inf) is rejected
# like one with a huge error, so a wild trial stage only shrinks the step.
_SOLVE = """\
def solve(rhs, t, t1, y, f, h, h_min, max_steps, rel_tol, abs_tol):
    {y} = y
    {k0} = f
    ts = [t]
    ys = [*y]
    ks = []
    steps = rejected = 0
    while t < t1:
        h = {max_step!r} if {max_step!r} < h else h
        h = _d if (_d := t1 - t) < h else h
        if h < h_min:
            raise StepSizeError(f"step size underflow at t = {{t:.6g}} ms", t)
        while True:
            try:
{attempt}
            except OverflowError:
                err = 1e300
            if err <= 1.0:
                break
            rejected += 1
            h *= (_q if (_q := {safety!r} * err ** -0.2) > {min_factor!r}
                  else {min_factor!r})
            if h < h_min:
                raise StepSizeError(
                    f"step size underflow at t = {{t:.6g}} ms", t)
        factor = {max_factor!r} if err == 0.0 else (
            _q if (_q := {safety!r} * err ** -0.2) < {max_factor!r}
            else {max_factor!r})
        t += h
        ts.append(t)
        ys += {z}
        ks += {k}
{handover}
        h *= factor
        steps += 1
        if steps >= max_steps:
            raise StepSizeError(
                f"step budget ({{max_steps}}) exceeded at t = {{t:.6g}} ms; "
                "the problem is far stiffer than this engine expects", t)
    return ts, ys, ks, rejected
"""


def solve_source(dim, stage=_rhs_stage):
    """Source of integrate's accept/reject loop with the Dormand-Prince
    step inlined, its stages given by stage as for _attempt: solve(rhs, t,
    t1, y, f, h, h_min, max_steps, rel_tol, abs_tol) -> (ts, ys, ks,
    rejected) integrates from (t, y), with f the derivative there and h the
    first step size, to t1.

    ts holds the accepted times, ys the states at them and ks each step's 7
    stage derivatives, the last two as flat lists of floats; rejected counts
    the rejected attempts. The state lives in local floats, and the FSAL
    hand-over is a renaming. StepSizeError is raised when a step falls below
    h_min, or when the accepted steps exceed max_steps.
    """
    return _SOLVE.format(
        y=_names("y{i}", dim), k0=_names("k0_{i}", dim),
        z=_names("z{i}", dim), k=_names("k{s}_{i}", dim, range(7)),
        attempt=_indented(_attempt(dim, stage, _LARGER_FLOAT), 4),
        handover=_indented([f"y{i} = z{i}" for i in range(dim)]
                           + [f"k0_{i} = k6_{i}" for i in range(dim)], 2),
        max_step=MAX_STEP, min_factor=_MIN_FACTOR, max_factor=_MAX_FACTOR,
        safety=_SAFETY)


@functools.cache
def _dopri_step(dim, ops=TUPLES):
    """The step of step_source with the default stage, compiled for tuple
    states, or with ops=LANES for tuples of arrays, t and h per lane."""
    namespace = {"sqrt": ops.sqrt, "max": ops.maximum}
    exec(compile(step_source(dim), f"<DOPRI step, dim {dim}>", "exec"),
         namespace)
    return namespace["step"]


@functools.cache
def _solver(dim):
    """The loop of solve_source with the default stage, for tuple states."""
    namespace = {"sqrt": math.sqrt, "StepSizeError": StepSizeError}
    exec(compile(solve_source(dim), f"<DOPRI solve, dim {dim}>", "exec"),
         namespace)
    return namespace["solve"]


def step_lanes(rhs, t, y, f, h, t_end, rel_tol, abs_tol):
    """Attempt one Dormand-Prince step on every lane of a lockstep batch.

    t, h and t_end are arrays of one shape, y and f tuples of such arrays,
    and rhs(t, y) maps them alike. Each lane integrates its own window
    [t0, t_end] with t0 >= 0 and follows integrate's control: the step is
    clipped to MAX_STEP and to the window end, accepted when err <= 1, and
    the next step size comes from err.

    Returns (h_used, y_new, k_step, accepted, h_next, underflow). underflow
    marks the lanes whose clipped step fell below integrate's bound, or is
    not a number; integrate raises StepSizeError there instead of stepping.
    """
    h_used = np.minimum(np.minimum(h, MAX_STEP), t_end - t)
    # integrate's 1e-14 max(|t0|, |t1|, t1 - t0) for 0 <= t0 < t1
    underflow = ~(h_used >= 1e-14 * t_end)
    y_new, k_step, err = _dopri_step(len(y), LANES)(rhs, t, y, f, h_used,
                                                    rel_tol, abs_tol)
    accepted = err <= 1.0
    q = _SAFETY * err ** -0.2
    # fmax, like max(), ignores a NaN err: a lane whose rhs is not a number
    # shrinks its step until it underflows
    h_next = h_used * np.where(accepted, np.minimum(_MAX_FACTOR, q),
                               np.fmax(_MIN_FACTOR, q))
    return h_used, y_new, k_step, accepted, h_next, underflow


def lane_crossings(t, h, y0, k, level):
    """Times at which one component's dense interpolant rises through level,
    one step per lane.

    t, h and y0 (the component at the step start) are arrays of one shape
    (lanes,), k the component's 7 stage derivatives as a (7, lanes) array;
    each step must rise through level. The root is refined by _rising_root.
    """
    c = _dense_coefficients(k.T[:, :, None])[:, :, 0].T
    x = _rising_root(lambda x: _interpolant(y0, h, x, c) - level,
                     lambda x: h * _slope(x, c),
                     np.zeros_like(h), np.ones_like(h))
    return t + x * h


def _rising_root(g, slope, lo, hi):
    """Per lane, the root in [lo, hi] of g, which rises through zero there,
    by Newton's method with slope = g' from the secant guess, kept inside
    the bracket by bisection, to rounding. A lane stops once its own root
    has converged, so its root does not depend on the other lanes.
    """
    g_lo, g_hi = g(lo), g(hi)
    x = lo + (hi - lo) * np.clip(np.nan_to_num(g_lo / (g_lo - g_hi), nan=0.5),
                                 0.0, 1.0)
    active = np.ones(x.shape, dtype=bool)
    for _ in range(100):
        gx = g(x)
        lo = np.where(gx < 0.0, x, lo)
        hi = np.where(gx < 0.0, hi, x)
        x_new = x - gx / slope(x)
        x_new = np.where((x_new >= lo) & (x_new <= hi), x_new, 0.5 * (lo + hi))
        x_new = np.where(active, x_new, x)
        active &= np.abs(x_new - x) > 1e-15
        x = x_new
        if not active.any():
            break
    return x


def _interpolant(y0, h, x, c):
    """The dense output at the fraction x of a step of size h from y0, with
    c the four interpolant coefficients stacked on the first axis, as
    _dense_coefficients gives them per step; the arguments broadcast."""
    c0, c1, c2, c3 = c
    return y0 + h * x * (c0 + x * (c1 + x * (c2 + x * c3)))


def _slope(x, c):
    """The time derivative of _interpolant, whatever y0 and h."""
    c0, c1, c2, c3 = c
    return c0 + x * (2.0 * c1 + x * (3.0 * c2 + x * 4.0 * c3))


def _dense_coefficients(k):
    """(n-1, 7, dim) stage derivatives -> (n-1, 4, dim) interpolant
    coefficients."""
    return np.einsum("sj,nsi->nji", _P, k)


def append_closed_form(traj: Trajectory, y: Callable, dy: Callable) -> Trajectory:
    """traj with columns appended for components known in closed form.

    y and dy map a numpy array of times to a tuple of the components, or of
    their time derivatives, each an array of the times' shape. The knots take
    y exactly; the dense coefficients come from dy at the stage times of each
    step, contracted as for the integrated columns, so sample() treats every
    column alike.
    """
    ts = traj.ts
    h = np.diff(ts)
    stage_ts = ts[:-1, None] + h[:, None] * _NODES       # (n-1, 7)
    k = np.stack(dy(stage_ts), axis=-1)                   # (n-1, 7, cols)
    return Trajectory(
        ts, np.hstack([traj.ys, np.column_stack(y(ts))]),
        np.concatenate([traj._dense, _dense_coefficients(k)], axis=2),
        traj.rel_tol, traj.abs_tol, traj.stats)


def integrate(rhs: Callable, y0, t_span, rel_tol: float = 1e-8,
              abs_tol: float = 1e-8) -> Trajectory:
    """Integrate y' = rhs(t, y) over t_span with dense output.

    Parameters
    ----------
    rhs : callable(t, y) -> tuple of derivatives
    y0 : initial state (sequence of floats)
    t_span : (t0, t1) with t1 > t0, in ms
    rel_tol, abs_tol : local error tolerances, each in (0, 1e-2]

    Steps are at most MAX_STEP long, so no spike is skipped, and at most
    MAX_STEPS are accepted, which guards memory on runaway problems. The
    trajectory's stats count the accepted steps, the rejected attempts and
    the stage evaluations: two to start (f at t0 and the trial step of
    initial_step), then six per attempt, the first stage being the last
    one of the step before. For the generic loop each is one rhs call.

    An rhs with a solve attribute is integrated by that function in place
    of the generic loop for its dimension; it takes the generic loop's
    arguments and must give its results (see solve_source). rhs itself
    still gives f at t0 and the trial step of initial_step.

    Raises
    ------
    StepSizeError
        on step-size underflow or an exhausted step budget; the exception
        carries the last good time.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (t1 > t0):
        raise ValueError("t_span must satisfy t1 > t0")
    if not (0.0 < rel_tol <= 1e-2) or not (0.0 < abs_tol <= 1e-2):
        raise ValueError("tolerances must lie in (0, 1e-2]")
    y = tuple(float(v) for v in y0)
    dim = len(y)
    f = tuple(rhs(t0, y))
    if len(f) != dim:
        raise ValueError("rhs dimension does not match the initial state")
    h = initial_step(rhs, t0, y, f, rel_tol, abs_tol)
    h_min = 1e-14 * max(abs(t0), abs(t1), t1 - t0)
    solve = getattr(rhs, "solve", None) or _solver(dim)
    ts, ys, ks, rejected = solve(rhs, t0, t1, y, f, h, h_min, MAX_STEPS,
                                 rel_tol, abs_tol)
    n = len(ts) - 1
    ks = np.array(ks, float).reshape(n, 7, dim)
    return Trajectory(np.array(ts), np.array(ys, float).reshape(n + 1, dim),
                      _dense_coefficients(ks), rel_tol, abs_tol,
                      SolverStats(n, rejected, 2 + 6 * (n + rejected)))


def sign_changes(g):
    """(k, direction) for every k at which the samples g change sign from
    g[k] to g[k + 1]: upward (+1) when g[k] < 0 <= g[k + 1], downward (-1)
    when g[k] > 0 >= g[k + 1]. A zero sample counts once, on the interval
    that reaches it."""
    g = np.asarray(g, dtype=float)
    g0, g1 = g[:-1], g[1:]
    ks = np.flatnonzero(((g0 < 0.0) & (g1 >= 0.0)) | ((g0 > 0.0) & (g1 <= 0.0)))
    return [(int(k), 1 if g1[k] > g0[k] else -1) for k in ks]


def detect_events(rhs: Callable, y0, t_span, event_fns: Sequence[Callable],
                  rel_tol: float = 1e-8, abs_tol: float = 1e-8,
                  labels: Optional[Sequence[str]] = None):
    """Integrate and localize every sign change of the scalar test functions.

    After the solve, each event function fn(t, y) is evaluated at the
    accepted steps; a sign change over a step is refined on that step's
    dense interpolant with Brent's method, so event accuracy does not depend
    on step-size control decisions.

    Returns (Trajectory, list of EventRecord sorted by time).
    """
    traj = integrate(rhs, y0, t_span, rel_tol, abs_tol)
    ts = traj.ts.tolist()
    knots = [tuple(y) for y in traj.ys.tolist()]
    found = sorted((k, index, direction)
                   for index, fn in enumerate(event_fns)
                   for k, direction in sign_changes(
                       [fn(t, y) for t, y in zip(ts, knots)]))
    events = []
    for k, index, direction in found:
        fn, t, h = event_fns[index], ts[k], ts[k + 1] - ts[k]
        at = functools.partial(_interpolant, traj.ys[k], h, c=traj._dense[k])
        x = brentq(lambda x: fn(t + x * h, at(x)), 0.0, 1.0,
                   xtol=1e-12, rtol=8.9e-16)
        events.append(EventRecord(index=index, t=t + x * h,
                                  y=tuple(at(x).tolist()), direction=direction,
                                  label=labels[index] if labels else ""))
    events.sort(key=lambda e: e.t)
    return traj, events
