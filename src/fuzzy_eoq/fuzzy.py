"""Triangular fuzzy numbers, alpha-cut intervals, and signed-distance ranking.

A triangular fuzzy number collects three ordered parameters: left support
end, peak, right support end.  Its alpha-cuts are closed intervals that
shrink linearly from the full support at level 0 to the peak at level 1.
Addition, subtraction and ``scale`` act on the three parameters, and each
commutes with taking cuts: the cut of a sum is the sum of the cuts.  A
quotient is not triangular, so it is carried on the cuts alone, by the
interval rule for positive operands.

Ranking uses the signed distance to the zero fuzzy point: the mean of the
cut midpoints over all membership levels.  For triangular shapes it
collapses to ``(left + 2 * peak + right) / 4``; the numerical route that
integrates the cut endpoints directly is kept alongside as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable

from .errors import DomainError
from .quadrature import DEFAULT_TOL, gauss_kronrod


def _require_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite (got {value!r})")
    return value


def _require_positive(name: str, value: float) -> None:
    _require_finite(name, value)
    if not value > 0.0:
        raise DomainError(f"{name} > 0 violated (got {value!r})")


def _require_positive_operands(operation: str, a: Interval, b: Interval) -> None:
    if not (a.lo > 0.0 and b.lo > 0.0):
        raise DomainError(f"interval {operation} requires lo > 0 on both operands "
                          f"(got lo={a.lo!r} and lo={b.lo!r})")


def _along(start: float, stop: float, t: float) -> float:
    """``start + (stop - start) t``; where the width overflows, the same from the halves,
    which are exact at that size, doubled."""
    width = stop - start
    if math.isfinite(width):
        return start + width * t
    return 2.0 * (start / 2.0 + (stop / 2.0 - start / 2.0) * t)


def _value_type(cls: type) -> type:
    """Declare ``cls`` one of the package's value types: a frozen, slotted
    dataclass whose ``__init__`` takes every field, in order and by the
    field's name and annotation, stores each through its slot's
    ``__set__`` and then runs ``__post_init__`` if the class has one.

    Only the store differs from the ``__init__`` that dataclasses writes,
    which goes through ``object.__setattr__`` and so the frozen class's
    attribute lookup; equality, hashing, repr, pickling,
    ``FrozenInstanceError`` and the ``dataclasses`` helpers are the
    dataclass's own.  No field has a default: the ``__init__`` asks for
    every one, and a default would raise ``TypeError`` here rather than
    be dropped.
    """
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    declared = fields(cls)
    if any(f.default is not MISSING or f.default_factory is not MISSING or not f.init
           for f in declared):
        raise TypeError(f"{cls.__qualname__}: a value type's fields take no default")
    names = [f.name for f in declared]
    setters = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
    body = [f"{setter}(self, {name})" for setter, name in zip(setters, names)]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    # the setters are closed over, as dataclasses closes over its helpers
    source = (f"def make({', '.join(setters)}):\n"
              f"    def __init__(self, {', '.join(names)}):\n"
              + "".join(f"        {line}\n" for line in body)
              + "    return __init__\n")
    namespace: dict = {}
    exec(source, {}, namespace)
    init = namespace["make"](**setters)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = {f.name: f.type for f in declared} | {"return": None}
    cls.__init__ = init
    return cls


@_value_type
class Interval:
    """A closed real interval [lo, hi]; the alpha-cut carrier.

    Products and quotients follow the positive-operand rules used by the
    inventory model: both operands must have strictly positive lower
    bounds.  That keeps endpoint monotonicity trivial and is all the model
    needs; no extended sign-case arithmetic is attempted.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        _require_finite("lo", self.lo)
        _require_finite("hi", self.hi)
        if not self.lo <= self.hi:
            raise DomainError(f"lo <= hi violated (got [{self.lo!r}, {self.hi!r}])")

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def __add__(self, other: "Interval") -> "Interval":
        if not isinstance(other, Interval):
            return NotImplemented
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        if not isinstance(other, Interval):
            return NotImplemented
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def scale(self, k: float) -> "Interval":
        """[k lo, k hi] for k > 0, [k hi, k lo] for k < 0, [0, 0] for k == 0."""
        _require_finite("k", k)
        if k > 0.0:
            return Interval(k * self.lo, k * self.hi)
        if k < 0.0:
            return Interval(k * self.hi, k * self.lo)
        return Interval(0.0, 0.0)

    def __mul__(self, other: "Interval") -> "Interval":
        if not isinstance(other, Interval):
            return NotImplemented
        _require_positive_operands("multiplication", self, other)
        return Interval(self.lo * other.lo, self.hi * other.hi)

    def __truediv__(self, other: "Interval") -> "Interval":
        if not isinstance(other, Interval):
            return NotImplemented
        _require_positive_operands("division", self, other)
        return Interval(self.lo / other.hi, self.hi / other.lo)


@_value_type
class TriangularFuzzyNumber:
    """Fuzzy quantity (beta1, beta2, beta3): support ends around a peak.

    Any finite ``beta1 <= beta2 <= beta3`` is accepted.  A flank may
    collapse onto the peak, and ``beta1 == beta3`` models a crisp value as
    a fuzzy point.
    """

    beta1: float
    beta2: float
    beta3: float

    def __post_init__(self) -> None:
        for name in ("beta1", "beta2", "beta3"):
            _require_finite(name, getattr(self, name))
        if not self.beta1 <= self.beta2 <= self.beta3:
            raise DomainError(
                "beta1 <= beta2 <= beta3 violated "
                f"(got ({self.beta1!r}, {self.beta2!r}, {self.beta3!r}))"
            )

    def alpha_cut(self, a: float) -> Interval:
        """Closed interval of values whose membership is at least ``a`` in [0, 1]:
        ``[beta1 + (beta2 - beta1) a, beta2 + (beta3 - beta2) (1 - a)]``,
        each a parameter plus a nonnegative term, so neither cancels on
        positive numbers.  The lower end is capped at ``beta2``, which a
        rounded-up ``beta2 - beta1`` can pass below a negative peak.  An end
        whose flank is wider than binary64 holds is formed from halves."""
        _require_finite("alpha", a)
        if not 0.0 <= a <= 1.0:
            raise DomainError(f"0 <= alpha <= 1 violated (got {a!r})")
        return Interval(min(_along(self.beta1, self.beta2, a), self.beta2),
                        _along(self.beta2, self.beta3, 1.0 - a))

    def signed_distance(self) -> float:
        """Signed distance to the zero fuzzy point: (b1 + 2 b2 + b3) / 4.

        Equals the mean midpoint of the alpha-cuts; cross-checked against
        ``signed_distance_quadrature`` in the test suite.  Where the sum
        ``b1 + 2 b2 + b3`` overflows, the exact quarters are summed instead,
        rounded once; quartering first everywhere would lose subnormal bits.
        """
        total = self.beta1 + 2.0 * self.beta2 + self.beta3
        if math.isfinite(total):
            return total / 4.0
        return math.fsum((0.25 * self.beta1, 0.5 * self.beta2, 0.25 * self.beta3))

    def __add__(self, other: "TriangularFuzzyNumber") -> "TriangularFuzzyNumber":
        if not isinstance(other, TriangularFuzzyNumber):
            return NotImplemented
        return TriangularFuzzyNumber(
            self.beta1 + other.beta1,
            self.beta2 + other.beta2,
            self.beta3 + other.beta3,
        )

    def __sub__(self, other: "TriangularFuzzyNumber") -> "TriangularFuzzyNumber":
        if not isinstance(other, TriangularFuzzyNumber):
            return NotImplemented
        return TriangularFuzzyNumber(
            self.beta1 - other.beta3,
            self.beta2 - other.beta2,
            self.beta3 - other.beta1,
        )

    def scale(self, k: float) -> "TriangularFuzzyNumber":
        """k (.) B: componentwise for k > 0, order-reversing for k < 0,
        the zero fuzzy point for k == 0."""
        _require_finite("k", k)
        if k > 0.0:
            return TriangularFuzzyNumber(k * self.beta1, k * self.beta2, k * self.beta3)
        if k < 0.0:
            return TriangularFuzzyNumber(k * self.beta3, k * self.beta2, k * self.beta1)
        return TriangularFuzzyNumber(0.0, 0.0, 0.0)


# The oracle clamps each cut pole's distance into [_POLE_FLOOR, 1 / _POLE_FLOOR].
# On a leak fraction only the lower cut's pole comes nearer (the upper one is
# at least 2**-54 away, since a lower spread is at least an ulp below its
# rate): no level within an ulp of a = 1 resolves it, and the lower cut there
# is below its value at a = 1, so what the oracle can miss is below 1e-15 of
# the signed distance.  A farther pole, or one at infinity where a cut's
# slope rounds to 0, makes the substitution a = u to rounding.
_POLE_FLOOR = 2.0**-60


def _pole_distance(offset: float, slope: float) -> float:
    """``offset / slope``, the distance from the end of [0, 1] to the pole
    of a cut whose denominator is ``offset + slope * (distance from that
    end)``, clamped into ``[_POLE_FLOOR, 1 / _POLE_FLOOR]``."""
    if not slope > offset * _POLE_FLOOR:  # also a slope that rounds to 0
        return 1.0 / _POLE_FLOOR
    return max(offset / slope, _POLE_FLOOR)


def _stop(lo_half: float, hi_half: float) -> float:
    """The oracle's absolute tolerance from the cut endpoints at ``a = 1/2``:
    ``DEFAULT_TOL`` relative to the mean of their sizes, and absolute where
    that is 0.  The size is taken from the endpoints, not the midpoint,
    which cancels when they lie on either side of zero: the stop must not
    ask for more than the endpoints' rounding allows."""
    size = 0.5 * (abs(lo_half) + abs(hi_half))
    return DEFAULT_TOL * size if size > 0.0 else DEFAULT_TOL


def _quotient_distance(num: tuple[float, float, float],
                       den: tuple[float, float, float]) -> float:
    """Signed distance of ``num / den`` for positive triangular operands,
    each given as its ``(beta1, beta2, beta3)``, by one ``gauss_kronrod``
    pass over both cuts with each pole flattened.  The caller guarantees
    finite, ordered parameters and a positive ``den``; nothing is checked.

    The lower cut has its pole ``w = d2 / d_fall`` right of ``a = 1``, the
    upper cut ``v = d1 / d_rise`` left of ``a = 0``.  Each cut is integrated
    over ``u`` in [0, 1] instead of ``a``: the lower with
    ``1 - a = w (exp(u L) - 1)`` and ``L = log(1 + 1/w)``, the upper with
    ``a = v (exp(u L) - 1)`` and ``L = log(1 + 1/v)``.  Either substitution
    maps [0, 1] onto itself for any positive distance and so leaves its
    cut's integral unchanged, while it cancels the pole against the
    Jacobian ``(t + w) L``: the integrand is smooth whether the pole is
    an ulp away or at infinity.  Both cuts are evaluated inline, one call
    per node, and summed under one stop, sized from the plain cuts.
    """
    # alpha_cut's parameters and nonnegative slopes for both operands
    n1, n2, n3 = num
    d1, d2, d3 = den
    n_rise, n_fall, d_rise, d_fall = n2 - n1, n3 - n2, d2 - d1, d3 - d2
    w, v = _pole_distance(d2, d_fall), _pole_distance(d1, d_rise)
    l_lo, l_hi = math.log1p(1.0 / w), math.log1p(1.0 / v)
    expm1 = math.expm1

    def midpoint(u: float) -> float:
        t = w * expm1(u * l_lo)  # 1 - a on the lower cut, from 0 to 1
        a = v * expm1(u * l_hi)  # a on the upper cut, from 0 to 1
        return 0.5 * ((n1 + n_rise * (1.0 - t)) / (d2 + d_fall * t) * (t + w) * l_lo
                      + (n2 + n_fall * (1.0 - a)) / (d1 + d_rise * a) * (a + v) * l_hi)

    # the plain cuts at a = 1/2, as Interval division of the alpha-cuts gives them
    tol = _stop((n1 + n_rise * 0.5) / (d2 + d_fall * 0.5),
                (n2 + n_fall * 0.5) / (d1 + d_rise * 0.5))
    return gauss_kronrod(midpoint, 0.0, 1.0, tol=tol)


def signed_distance_quadrature(
    cut_lo: Callable[[float], float],
    cut_hi: Callable[[float], float],
) -> float:
    """Signed distance to zero from alpha-cut endpoint functions.

    Integrates the cut midpoint ``(cut_lo(a) + cut_hi(a)) / 2`` over the
    membership levels in [0, 1] by ``gauss_kronrod``.  Callers
    supply continuous endpoint functions with ``cut_lo <= cut_hi``
    pointwise; this is the oracle route for every closed-form signed
    distance in the package.  The stop is ``DEFAULT_TOL`` relative to
    ``size``, the mean of ``|cut_lo(1/2)|`` and ``|cut_hi(1/2)|``, and
    absolute where ``size`` is 0.  An exception that a cut function
    raises propagates unchanged, as in ``gauss_kronrod``.
    """
    return gauss_kronrod(lambda a: 0.5 * (cut_lo(a) + cut_hi(a)), 0.0, 1.0,
                         tol=_stop(cut_lo(0.5), cut_hi(0.5)))
