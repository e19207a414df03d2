"""The current balance, the gate-slaved states and the right-hand sides of
the bursting models.

Two fast subsystems are implemented: the five-variable one with state
(v, n, m, h, s) and its two-variable quasi-steady-state reduction with state
(v, n), obtained by setting m = m_inf(v), s = s_inf(v)/(s_inf(v) + k) and
h = 1 - 1.08 n. The slow pair (Ca, Na) enters each fast subsystem only
through the CAN conductance and the pump current. So each subsystem's current
balance is written once, as source, and so are its gate-slaved state, whose
voltages carry the equilibria, and the map from (Ca, Na) to those two
numbers. Every form is compiled or derived from them: frozen (Ca, Na) for
the equilibria and landscapes, an imposed path for the driven models (the
fast state alone against the path's closed form, or the full state with the
path's rotation field), the biological slow equations for the autonomous
models, a numpy form for the equilibrium scan, for the equilibrium branch
that the bifurcation curves are traced on and for the lanes of a PERIOD
field, and a complex form whose complex step gives the Jacobian. Every
sigmoid stands inline in all three forms. Driven runs run a generated loop:
integrate's accept/reject loop with the Dormand-Prince step inlined, and the
balance, the path's closed form and the forcing inlined into every stage, so
a step makes no Python call. The readable six-current reference lives in
tests/oracles.py, apart from this code.

State is passed as plain tuples of floats, which is the fastest
representation for systems of this size.
"""
from __future__ import annotations

import ast
import cmath
import functools
import math
import textwrap

import numpy as np
from scipy.special import expit

from .integrate import StepSizeError, solve_source
from .params import ModelParams


# The guarded logistic 1/(1 + e^x), overflow-safe on both sides, written once
# as an expression over its argument ARG. Its temporaries are walrus names,
# so it can stand inline for every sig(...) of a source compiled for tuples
# (below); _sig is that same expression as a function. The temporaries are
# used only after their own assignment and before any other sig is
# evaluated, so nested and repeated sigs do not disturb each other.
_SIG = ("((0.0 if _x > 700.0 else (_e := exp(-_x)) / (1.0 + _e))"
        " if (_x := ARG) >= 0.0 else"
        " (1.0 if _x < -700.0 else 1.0 / (1.0 + exp(_x))))")

# the same logistic on numpy arrays, where expit does not overflow
_SIG_ARRAY = "expit(-(ARG))"

# the same logistic for the complex step of the Jacobian, guarded on the
# real part, with exp the complex exponential
_SIG_COMPLEX = ("(0.0 if (_x := ARG).real > 700.0 else"
                " 1.0 if _x.real < -700.0 else 1.0 / (1.0 + exp(_x)))")


class _InlineSig(ast.NodeTransformer):
    """Replaces every call sig(arg) by the expression sig, over arg."""

    def __init__(self, sig):
        self.sig = sig

    def visit_Call(self, node):
        self.generic_visit(node)
        if not (isinstance(node.func, ast.Name) and node.func.id == "sig"):
            return node
        return _Substitute({"ARG": node.args[0]}).visit(
            ast.parse(self.sig, mode="eval").body)


class _Substitute(ast.NodeTransformer):
    """Replaces names: by another name where the mapping holds a string,
    else by the mapped expression."""

    def __init__(self, mapping):
        self.mapping = mapping

    def visit_Name(self, node):
        new = self.mapping.get(node.id)
        if new is None:
            return node
        return ast.Name(new, node.ctx) if isinstance(new, str) else new


# The namespaces the sources of the package compile in, and the expression
# every sig stands inline as: for the integrator's tuples of floats, _SIG;
# for numpy arrays, _SIG_ARRAY; for the complex step of the Jacobian,
# _SIG_COMPLEX.
_FORMS = {
    "tuple": {"exp": math.exp, "cosh": math.cosh, "sqrt": math.sqrt,
              "cos": math.cos, "sin": math.sin},
    "array": {"expit": expit, "cosh": np.cosh, "cos": np.cos, "sin": np.sin},
    "complex": {"exp": cmath.exp, "cosh": cmath.cosh},
}
_INLINE_SIG = {"tuple": _SIG, "array": _SIG_ARRAY, "complex": _SIG_COMPLEX}


def _tree(src: str, form: str):
    """The syntax tree of src as it compiles for form: with every sig
    inline as the form's expression for it."""
    return ast.fix_missing_locations(
        _InlineSig(_INLINE_SIG[form]).visit(ast.parse(src)))


def _compile(src: str, form: str, name: str, **names):
    """The function name that src defines, compiled in the namespace of
    form and the given names."""
    namespace = dict(_FORMS[form], **names)
    exec(compile(_tree(src, form), f"<{name}, {form}>", "exec"), namespace)
    return namespace[name]


_SIG_FUNCTION = "def _sig(x):\n    return sig(x)\n"
_sig = _compile(_SIG_FUNCTION, "tuple", "_sig")


# ---------------------------------------------------------------------------
# The current balance and the gate-slaved state, each written once per fast
# subsystem as source, and the forcing (Ca, Na) -> (a_can, i_pump) likewise.
# Each source defines make(p), which binds the parameters as closure locals,
# the fastest lookup in CPython, and returns the function. The code compiles
# once per source and form (_maker); parameters bind per call of make, so a
# new parameter set costs a closure, not a compile. The forms: tuples of
# floats, with sig inline as _SIG and math.cosh; numpy arrays, with sig
# inline as _SIG_ARRAY and np.cosh, so the lane core makes no Python call
# per gate; complex numbers for the Jacobian, with sig inline as
# _SIG_COMPLEX and cmath.cosh. Each gate's argument is computed once, for its
# sigmoid and its cosh alike. The slaving sources divide by the slopes where
# the balances multiply by their inverses; the curves rest on those bits.
# _driven_solver inlines the function bodies, and the path's closed form
# (paths.py), into the stages of integrate's loop. The operation order in
# these sources fixes driven and autonomous runs to the last digit;
# reordering it changes every stored trace.

_FAST2 = """
def make(p):
    g_l, e_l, g_k, e_k, g_na, e_na, g_syn, e_syn = (
        p.g_l, p.e_l, p.g_k, p.e_k, p.g_na, p.e_na, p.g_syn, p.e_syn)
    inv_c, e_can = 1.0 / p.c, p.e_can
    th_m, inv_sm = p.theta_m, 1.0 / p.sigma_m
    th_s, inv_ss = p.theta_s, 1.0 / p.sigma_s
    th_n, inv_sn = p.theta_n, 1.0 / p.sigma_n
    t_n, k = p.t_n, p.k

    def core(v, n, a_can, i_pump):
        # (v, n, a_can, i_pump) -> (v', n') of the reduced fast subsystem
        m = sig((v - th_m) * inv_sm)
        si = sig((v - th_s) * inv_ss)
        h = 1.0 - 1.08 * n
        n2 = n * n
        dv = -inv_c * (g_l * (v - e_l)
                       + g_k * n2 * n2 * (v - e_k)
                       + g_na * m * m * m * h * (v - e_na)
                       + g_syn * si / (si + k) * (v - e_syn)
                       + a_can * (v - e_can)
                       + i_pump)
        x_n = (v - th_n) * inv_sn
        dn = (sig(x_n) - n) / (t_n / cosh(x_n * 0.5))
        return dv, dn

    return core
"""

_FAST5 = """
def make(p):
    g_l, e_l, g_k, e_k, g_na, e_na, g_syn, e_syn = (
        p.g_l, p.e_l, p.g_k, p.e_k, p.g_na, p.e_na, p.g_syn, p.e_syn)
    inv_c, e_can = 1.0 / p.c, p.e_can
    th_n, inv_sn, t_n = p.theta_n, 1.0 / p.sigma_n, p.t_n
    th_m, inv_sm, t_m = p.theta_m, 1.0 / p.sigma_m, p.t_m
    th_h, inv_sh, t_h = p.theta_h, 1.0 / p.sigma_h, p.t_h
    th_s, inv_ss = p.theta_s, 1.0 / p.sigma_s
    inv_tau_s, k = 1.0 / p.tau_s, p.k

    def core(v, n, m, h, s, a_can, i_pump):
        # (v, n, m, h, s, a_can, i_pump) -> the five fast derivatives
        n2 = n * n
        dv = -inv_c * (g_l * (v - e_l)
                       + g_k * n2 * n2 * (v - e_k)
                       + g_na * m * m * m * h * (v - e_na)
                       + g_syn * s * (v - e_syn)
                       + a_can * (v - e_can)
                       + i_pump)
        x_n = (v - th_n) * inv_sn
        x_m = (v - th_m) * inv_sm
        x_h = (v - th_h) * inv_sh
        dn = (sig(x_n) - n) / (t_n / cosh(x_n * 0.5))
        dm = (sig(x_m) - m) / (t_m / cosh(x_m * 0.5))
        dh = (sig(x_h) - h) / (t_h / cosh(x_h * 0.5))
        ds = ((1.0 - s) * sig((v - th_s) * inv_ss) - k * s) * inv_tau_s
        return dv, dn, dm, dh, ds

    return core
"""

_SLAVED2 = """
def make(p):
    th_n, sigma_n = p.theta_n, p.sigma_n

    def slaved(v):
        # v -> the gate-slaved state (v, n) of the reduced fast subsystem
        n = sig((v - th_n) / sigma_n)
        return v, n

    return slaved
"""

_SLAVED5 = """
def make(p):
    th_n, sigma_n = p.theta_n, p.sigma_n
    th_m, sigma_m = p.theta_m, p.sigma_m
    th_h, sigma_h = p.theta_h, p.sigma_h
    th_s, sigma_s, k = p.theta_s, p.sigma_s, p.k

    def slaved(v):
        # v -> the gate-slaved state (v, n, m, h, s), s at the fixed point
        # s_inf/(s_inf + k) of its equation
        n = sig((v - th_n) / sigma_n)
        m = sig((v - th_m) / sigma_m)
        h = sig((v - th_h) / sigma_h)
        si = sig((v - th_s) / sigma_s)
        return v, n, m, h, si / (si + k)

    return slaved
"""

_SLOW_CURRENTS = """
def make(p):
    g_can, k_can, inv_scan = p.g_can, p.k_can, 1.0 / p.sigma_can
    na_b, k_na = p.na_b, p.k_na
    r_pump, kna3 = p.r_pump, k_na ** 3
    # the pump's saturation Na^3/(Na^3 + k_Na^3) at the baseline Na_b
    phi_b = na_b * na_b * na_b / (na_b * na_b * na_b + k_na * k_na * k_na)

    def slow_currents(ca, na):
        # (Ca, Na) -> (a_can, i_pump): the CAN conductance g_CAN x_CAN(Ca)
        # and the pump current, zero at the baseline Na_b
        na3 = na * na * na
        a_can = g_can * sig((ca - k_can) * inv_scan)
        i_pump = r_pump * (na3 / (na3 + kna3) - phi_b)
        return a_can, i_pump

    return slow_currents
"""


@functools.cache
def _maker(src: str, form: str):
    # each source compiles once per form
    return _compile(src, form, "make")


def _parts(src: str):
    """(prelude, arguments, body, results) of a source's make: the
    statements that bind the parameters, and the inner function's argument
    names, statements and returned names."""
    make = ast.parse(src).body[0]
    *prelude, inner, _ = make.body
    *body, ret = inner.body
    return (prelude, [a.arg for a in inner.args.args], body,
            [e.id for e in ret.value.elts])


def _stored(stmts):
    # the names the statements assign to
    return {node.id for stmt in stmts for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def _inline(src: str, args, results):
    """The inner function's statements as source lines, its arguments and
    results renamed to the given names and its other locals suffixed with
    an underscore, so they cannot collide with the step's names."""
    _, names, body, returned = _parts(src)
    mapping = {name: name + "_" for name in _stored(body)}
    mapping.update(zip(names, args))
    mapping.update(zip(returned, results))
    return [ast.unparse(_Substitute(mapping).visit(stmt)) for stmt in body]


def _driven_source(balance: str, path: str) -> str:
    """Source of integrate's loop for a fast subsystem driven along a path,
    given the balance and the path's closed_form_source: make(p, path) ->
    solve(rhs, t, t1, y, f, h, h_min, max_steps, rel_tol, abs_tol), like
    integrate's generic loop, which it matches bit for bit. Each stage
    inlines the balance; each distinct stage time inlines the path's point
    at that time, bound to tau first, and the forcing, _SLOW_CURRENTS, at
    that point. The preludes bind the parameters and the path's constants
    once per run. Neither rhs nor the path is called."""
    args = _parts(balance)[1]
    dim = len(args) - 2
    forcing = args[dim:]
    z = [f"z{i}" for i in range(dim)]

    def stage(t, k, fresh):
        lines = []
        if fresh:
            lines += [f"tau = {t}"]
            lines += _inline(path, ["tau"], ["ca", "na"])
            lines += _inline(_SLOW_CURRENTS, ["ca", "na"], forcing)
        return lines + _inline(balance, z + forcing, k)

    sources = (path, _SLOW_CURRENTS, balance)
    # the preludes share one scope with the loop: no name may be bound twice
    seen = {node.id for node in ast.walk(ast.parse(solve_source(dim)))
            if isinstance(node, ast.Name)} | {"tau", "ca", "na"}
    for bound in (_stored(_parts(src)[0]) for src in sources):
        if seen & bound:
            raise ValueError(
                f"the driven loop would bind {sorted(seen & bound)} twice")
        seen |= bound
    prelude = "".join(ast.unparse(stmt) + "\n" for src in sources
                      for stmt in _parts(src)[0])
    body = textwrap.indent(prelude + solve_source(dim, stage), "    ")
    return f"def make(p, path):\n{body}\n    return solve\n"


@functools.cache
def _driven_solver(balance: str, path: str):
    # _driven_source compiled, once per balance and path source
    return _compile(_driven_source(balance, path), "tuple", "make",
                    StepSizeError=StepSizeError)


def can_calcium(a_can, p: ModelParams):
    """Ca at which the CAN conductance g_CAN x_CAN(Ca) equals a_can, for
    0 < a_can < g_CAN: the inverse of the CAN gate in _SLOW_CURRENTS.
    Takes floats or numpy arrays."""
    return p.k_can + p.sigma_can * np.log(p.g_can / a_can - 1.0)


def _slow_rhs(p: ModelParams):
    """(v, s, Ca, a_can, i_pump) -> (Ca', Na') of the biological slow
    equations: IP3-driven calcium release and sodium entry through CAN
    against the pump."""
    eps, k_ip3, k_ca, ca_b = p.eps, p.k_ip3, p.k_ca, p.ca_b
    alpha, e_can = p.alpha, p.e_can

    def slow_rhs(v, s, ca, a_can, i_pump):
        return (eps * (k_ip3 * s - k_ca * (ca - ca_b)),
                alpha * (-(a_can * (v - e_can)) - i_pump))

    return slow_rhs


_STEP = 1e-30     # complex step of the Jacobian


class _FastSubsystem:
    """What both fast subsystems derive from their core alone."""

    def __init__(self, params: ModelParams):
        self.params = params
        self._core = _maker(self._balance, "tuple")(params)
        self._array_core = _maker(self._balance, "array")(params)
        self._complex_core = _maker(self._balance, "complex")(params)
        self._slow_currents = _maker(_SLOW_CURRENTS, "tuple")(params)
        # the gate-slaved state of a voltage, and of a voltage array
        self.slaved = _maker(self._slaving, "tuple")(params)
        self._slaved_array = _maker(self._slaving, "array")(params)

    def __reduce__(self):
        # the cores are closures, which do not pickle: rebuild from params
        return type(self), (self.params,)

    def rhs(self, y, slow):
        return self._core(*y, *self._slow_currents(*slow))

    def path_rhs(self, path):
        """rhs(t, y) of the fast state alone, with (Ca, Na) the path's
        closed form at time t. This is what run_driven integrates.

        The rhs carries its fused loop as rhs.solve, which integrate runs in
        place of its generic one: the balance, the path's closed form and
        the forcing inlined into every stage, the path point and the forcing
        evaluated once per distinct stage time. It gives the generic loop's
        bits, so a wrapped rhs, which loses the attribute, integrates to the
        same trajectory.
        """
        core, slow_currents = self._core, self._slow_currents
        point = path.closed_form()

        def rhs(t, y):
            return core(*y, *slow_currents(*point(t)))

        rhs.solve = _driven_solver(self._balance, path.closed_form_source)(
            self.params, path)
        return rhs

    def lane_rhs(self, slows):
        """rhs(t, y) of the frozen fast system at many slow points at once,
        one numpy lane per (Ca, Na) point: y is a tuple of arrays, element k
        belonging to slows[k]. This is what PERIOD fields integrate."""
        core = self._array_core
        a_can, i_pump = (np.array(c) for c in
                         zip(*(self._slow_currents(*slow) for slow in slows)))

        def rhs(t, y):
            return core(*y, a_can, i_pump)

        return rhs

    def driven_rhs(self, path):
        """State (fast..., Ca, Na); the slow pair follows the path's rotation
        field and does not feel the fast variables."""
        core, slow_currents, field = self._core, self._slow_currents, path.rhs

        def rhs(t, y):
            slow = y[-2:]
            return core(*y[:-2], *slow_currents(*slow)) + field(slow)

        return rhs

    def jacobian(self, y, slow):
        """Jacobian of the fast rhs at y, (Ca, Na) frozen, as row tuples.
        Like g_array, this bypasses rhs."""
        return self._jacobian(y, *self._slow_currents(*slow))

    def _jacobian(self, y, a_can, i_pump):
        # complex step: column j is Im core(y + ih e_j) / h, exact to rounding
        # because nothing is subtracted
        core = self._complex_core
        cols = [core(*y[:j], complex(yj, _STEP), *y[j + 1:], a_can, i_pump)
                for j, yj in enumerate(y)]
        return tuple(tuple(d.imag / _STEP for d in row) for row in zip(*cols))

    def g_array(self, vs, slow):
        """v' at the gate-slaved states of a voltage array, (Ca, Na) frozen.

        The equilibrium scan calls this instead of rhs, so a subclass that
        changes the rhs must change this too.
        """
        return self._array_core(*self._slaved_array(vs),
                                *self._slow_currents(*slow))[0]

    def can_branch(self, vs, na: float):
        """The CAN conductance a at which the gate-slaved state of each
        voltage is an equilibrium, Na frozen.

        v' is affine in a, so a(v) = G(v; 0) / (G(v; 0) - G(v; 1)) with
        G(v; a) = v' at the gate-slaved state. The pole at v = E_CAN, where
        a drops out of v', reads as +-inf. Like g_array, this bypasses rhs.
        """
        y = self._slaved_array(vs)
        i_pump = self._slow_currents(0.0, na)[1]    # independent of Ca
        g0 = self._array_core(*y, 0.0, i_pump)[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return g0 / (g0 - self._array_core(*y, 1.0, i_pump)[0])


class ReducedFast(_FastSubsystem):
    """Two-variable fast subsystem with (Ca, Na) as parameters."""

    dim = 2
    name = "reduced"
    _balance = _FAST2
    _slaving = _SLAVED2

    def frozen_rhs(self, slow):
        core = self._core
        a_can, i_pump = self._slow_currents(*slow)

        def rhs(t, y):
            v, n = y
            return core(v, n, a_can, i_pump)

        return rhs

    def autonomous_rhs(self):
        """State (v, n, Ca, Na); the Ca equation sees the slaved s."""
        p = self.params
        core, slow_currents, slow_rhs = self._core, self._slow_currents, _slow_rhs(p)
        th_s, inv_ss, k = p.theta_s, 1.0 / p.sigma_s, p.k
        sig = _sig

        def rhs(t, y):
            v, n, ca, na = y
            a_can, i_pump = slow_currents(ca, na)
            dv, dn = core(v, n, a_can, i_pump)
            si = sig((v - th_s) * inv_ss)
            dca, dna = slow_rhs(v, si / (si + k), ca, a_can, i_pump)
            return (dv, dn, dca, dna)

        return rhs


class FullFast(_FastSubsystem):
    """Five-variable fast subsystem with (Ca, Na) as parameters."""

    dim = 5
    name = "full"
    _balance = _FAST5
    _slaving = _SLAVED5

    def frozen_rhs(self, slow):
        core = self._core
        a_can, i_pump = self._slow_currents(*slow)

        def rhs(t, y):
            v, n, m, h, s = y
            return core(v, n, m, h, s, a_can, i_pump)

        return rhs

    def autonomous_rhs(self):
        """State (v, n, m, h, s, Ca, Na)."""
        core, slow_currents, slow_rhs = self._core, self._slow_currents, _slow_rhs(self.params)

        def rhs(t, y):
            v, n, m, h, s, ca, na = y
            a_can, i_pump = slow_currents(ca, na)
            dv, dn, dm, dh, ds = core(v, n, m, h, s, a_can, i_pump)
            dca, dna = slow_rhs(v, s, ca, a_can, i_pump)
            return (dv, dn, dm, dh, ds, dca, dna)

        return rhs
