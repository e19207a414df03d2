"""Imposed elliptic slow paths in the (Ca, Na)-plane.

A path is an ellipse with principal axes along the coordinate axes, traced
counter-clockwise at constant angular speed eps. It can be evaluated in
closed form or integrated as the linear rotation field EllipsePath.rhs; both
views agree and the quadratic form Q below is conserved along the flow.
The closed form is written once, as the function EllipsePath.closed_form
returns over the path's constants; EllipsePath.point evaluates it at one
time. Driven runs use the closed form: they integrate only the fast
variables, and the driven loop (model.py) calls a closed_form function
taken once per run at each distinct stage time, so it reads no path
attribute. The rotation field remains for the full-state
driven rhs of the fast subsystems, and it gives the path's velocity at any
point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .params import InvalidParameterError


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

    def closed_form(self, cos=math.cos, sin=math.sin):
        """The closed-form position as a function point(t), counter-clockwise
        from t = 0, over the path's constants taken once.

        The driven loop calls it once per distinct stage time of every
        step, five times a step, so it reads no attribute per call. Any
        path whose position has a closed form can drive a run through such
        a function. Pass np.cos and np.sin for a point(t) that takes a numpy
        array of times.
        """
        eps, ca_c, na_c = self.eps, self.ca_c, self.na_c
        dca = self.ca0 - ca_c
        dna = self.na0 - na_c
        d_dna, dca_d = self.d * dna, dca / self.d

        def point(t):
            c = cos(eps * t)
            s = sin(eps * t)
            return (ca_c + dca * c - d_dna * s, na_c + dna * c + dca_d * s)

        return point

    def point(self, t, cos=math.cos, sin=math.sin):
        """Closed-form position at time t (counter-clockwise from t = 0).

        Pass np.cos and np.sin to evaluate a numpy array of times.
        """
        return self.closed_form(cos, sin)(t)

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
