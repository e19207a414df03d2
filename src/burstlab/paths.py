"""Imposed elliptic slow paths in the (Ca, Na)-plane.

A path is an ellipse with principal axes along the coordinate axes, traced
counter-clockwise at constant angular speed eps. It can be evaluated in
closed form or integrated as the linear rotation field EllipsePath.rhs; both
views agree and the quadratic form Q below is conserved along the flow.
The closed form is written once, as source (_CLOSED_FORM, in the style of
model.py's sources): make(path) binds the path's constants and returns
point(t). EllipsePath.closed_form compiles it for floats (math cos and sin)
or numpy arrays of times, and EllipsePath.point evaluates it. Driven runs
use the closed form: they integrate only the fast variables, and the
driven loop (model.py) inlines the body of point at each distinct stage
time, with the constants bound once per run, so a step reads no path
attribute and makes no call to the path. The rotation field remains for
the full-state driven rhs of the fast subsystems, and it gives the path's
velocity at any point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _maker
from .params import InvalidParameterError

# The closed-form position, counter-clockwise from t = 0. The ellipse's
# constants bind once per path; the driven loop inlines the body of point
# with t the stage time, so its operation order fixes every driven trace.
_CLOSED_FORM = """
def make(path):
    eps, ca_c, na_c = path.eps, path.ca_c, path.na_c
    dca = path.ca0 - ca_c
    dna = path.na0 - na_c
    d_dna, dca_d = path.d * dna, dca / path.d

    def point(t):
        c = cos(eps * t)
        s = sin(eps * t)
        ca = ca_c + dca * c - d_dna * s
        na = na_c + dna * c + dca_d * s
        return ca, na

    return point
"""


@dataclass(frozen=True)
class EllipsePath:
    """Six-parameter imposed path: center (ca_c, na_c), aspect ratio d,
    initial point (ca0, na0) and angular speed eps (1/ms)."""

    ca_c: float
    na_c: float
    d: float
    ca0: float
    na0: float
    eps: float

    def __post_init__(self):
        if self.d <= 0:
            raise InvalidParameterError("aspect ratio d must be > 0")
        if self.eps <= 0:
            raise InvalidParameterError("angular speed eps must be > 0")
        if self.ca0 == self.ca_c and self.na0 == self.na_c:
            raise InvalidParameterError("initial point must differ from the center")

    @classmethod
    def centered(cls, ca_c: float, na_c: float, d: float, ca0: float,
                 eps: float) -> "EllipsePath":
        """Default construction with na0 = na_c; ca0 tunes the path width."""
        return cls(ca_c=ca_c, na_c=na_c, d=d, ca0=ca0, na0=na_c, eps=eps)

    @property
    def delta(self) -> float:
        return math.hypot(self.ca0 - self.ca_c, self.d * (self.na0 - self.na_c))

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.eps

    # the source of point(t), read by the driven loop; a path class with
    # another closed form gives its own
    closed_form_source = _CLOSED_FORM

    def closed_form(self, form: str = "tuple"):
        """The closed-form position as a function point(t) over the path's
        constants taken once: for float times, or with form="array" for a
        numpy array of times."""
        return _maker(self.closed_form_source, form)(self)

    def point(self, t):
        """Closed-form position at time t, a float or a numpy array of
        times."""
        return self.closed_form("array" if isinstance(t, np.ndarray)
                                else "tuple")(t)

    def rhs(self, slow):
        """Rotation field whose solutions are this family of ellipses."""
        ca, na = slow
        return (-self.eps * self.d * (na - self.na_c),
                self.eps / self.d * (ca - self.ca_c))

    def conserved(self, slow) -> float:
        """Quadratic invariant Q = (Ca-Ca_c)^2 + d^2 (Na-Na_c)^2."""
        ca, na = slow
        return (ca - self.ca_c) ** 2 + self.d ** 2 * (na - self.na_c) ** 2

    def extent(self):
        """((Ca_min, Ca_max), (Na_min, Na_max), delta)."""
        de = self.delta
        return ((self.ca_c - de, self.ca_c + de),
                (self.na_c - de / self.d, self.na_c + de / self.d),
                de)
