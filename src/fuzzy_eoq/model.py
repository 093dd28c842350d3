"""Lot-size optimization for an inventory that loses stock to leakage.

Crisp model: stock depletes at the demand rate ``phi`` plus a leakage
rate ``psi``, but only the demanded share earns anything, so ordering
lots of size q costs, per unit time,

    q h / 2  +  phi s / q  +  psi q h / (2 (phi + psi))

(plain holding, ordering, and the holding surcharge attributable to the
leaked share).  The fuzzy model keeps this shape and replaces phi by the
defuzzified demand ``delta`` and the leakage fraction psi / (phi + psi)
by its defuzzified counterpart ``zeta``:

    Z(q) = q h / 2 + (s / q) delta + (q h / 2) zeta

Both versions are minimized in closed form by balancing the holding-like
terms against the ordering term.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from typing import Callable, Optional

from .defuzzify import FuzzySpreads, _closed_form
from .errors import DomainError
from .fuzzy import _require_finite, _require_positive, _value_type

_MIN_NORMAL = sys.float_info.min
_MAX = sys.float_info.max
_INF = math.inf


@_value_type
class CrispParams:
    """Crisp model inputs: demand rate, leakage rate, holding and setup cost."""

    phi: float
    psi: float
    h: float
    s: float

    def __post_init__(self) -> None:
        for name in ("phi", "psi", "h", "s"):
            _require_finite(name, getattr(self, name))
        _require_positive("phi", self.phi)
        if not self.psi >= 0.0:
            raise DomainError(f"psi >= 0 violated (got {self.psi!r})")
        # eta = phi + psi divides every leakage term
        _require_finite("phi + psi", self.phi + self.psi)
        _require_positive("h", self.h)
        _require_positive("s", self.s)


@_value_type
class CycleQuantities:
    """Timing of one replenishment cycle and the stock lost during it.

    ``t`` is the cycle length a lot would last if leakage served demand,
    ``t1`` the time until the lot is actually exhausted, ``leaked`` the
    stock lost to leakage over the cycle.
    """

    t: float
    t1: float
    leaked: float

    def __post_init__(self) -> None:
        for name in ("t", "t1", "leaked"):
            _require_finite(name, getattr(self, name))
        if not self.t1 <= self.t:
            raise DomainError(f"t1 <= t violated (got t1={self.t1!r}, t={self.t!r})")
        if not self.leaked >= 0.0:
            raise DomainError(f"leaked >= 0 violated (got {self.leaked!r})")


@_value_type
class SolutionRecord:
    """One solved instance: defuzzified inputs, the optimum, and the
    percent deviations from the crisp baseline."""

    delta: float
    zeta: float
    q_star: float
    z_star: float
    rel_q: float
    rel_z: float

    def __post_init__(self) -> None:
        # one test on the row path: a nan or inf field makes the sum nan or
        # inf, and only then are the fields named in order; a sum that
        # overflows from finite fields passes the loop
        if not math.isfinite(
            self.delta + self.zeta + self.q_star + self.z_star + self.rel_q + self.rel_z
        ):
            for name in ("delta", "zeta", "q_star", "z_star", "rel_q", "rel_z"):
                _require_finite(name, getattr(self, name))
        if not (self.q_star > 0.0 and self.z_star > 0.0):
            _require_positive("q_star", self.q_star)
            _require_positive("z_star", self.z_star)


def lot_cost(q: float, s: float, h: float, delta: float, zeta_value: float) -> float:
    """Cost per unit time of lot size q given defuzzified inputs.

    ``delta`` and ``zeta_value`` normally come from ``defuzzified_rates``
    but may be replayed from any external source.  ``q``, ``s``, ``h`` and
    ``delta`` must be positive and finite, ``zeta_value`` finite with
    1 + zeta > 0 as ``optimal_lot_size`` requires, and the cost finite.
    """
    # one chain on the baseline path; the checks name the first bad input.
    # 1 + zeta > 0 exactly when zeta > -1: rounding keeps the sign of a
    # nonzero sum, and the sum is 0 only at zeta = -1
    if not (0.0 < q < _INF and 0.0 < s < _INF and 0.0 < h < _INF and 0.0 < delta < _INF
            and -1.0 < zeta_value < _INF):
        for name, value in (("q", q), ("s", s), ("h", h), ("delta", delta)):
            _require_positive(name, value)
        _require_finite("zeta", zeta_value)
        raise DomainError(f"1 + zeta > 0 violated (got zeta={zeta_value!r})")
    cost = q * h / 2.0 + (s / q) * delta + (q * h / 2.0) * zeta_value
    if not cost < _INF:
        _require_finite("z_star", cost)
    return cost


def optimal_lot_size(s: float, h: float, delta: float, zeta_value: float) -> float:
    """Cost-minimizing lot size sqrt(2 s delta / (h (1 + zeta))).

    Stationary point of ``lot_cost`` in q; the second derivative
    2 s delta / q^3 is strictly positive there, so it is the minimum.
    Every lot size that binary64 can hold is returned, also when
    2 s delta or h (1 + zeta) alone cannot be held; one that overflows or
    rounds to 0 raises the solve path's ``DomainError``.
    """
    _require_positive("s", s)
    _require_positive("h", h)
    _require_positive("delta", delta)
    _require_finite("zeta", zeta_value)
    w = 1.0 + zeta_value
    if not w > 0.0:
        raise DomainError(f"1 + zeta > 0 violated (got zeta={zeta_value!r})")
    return _lot_size(s, h, delta, w)


def _lot_size(s: float, h: float, delta: float, w: float) -> float:
    """sqrt(2 s delta / (h w)) for the positive, finite inputs that
    ``optimal_lot_size`` checks and every internal caller guarantees."""
    num, den = 2.0 * s * delta, h * w
    ratio = num / den
    if num >= _MIN_NORMAL and den >= _MIN_NORMAL and _MIN_NORMAL <= ratio <= _MAX:
        # for speed only: ``_scaled_lot_size`` gives the same bits here, at
        # more than twice the cost of this line
        return math.sqrt(ratio)
    return _scaled_lot_size(s, h, delta, w)


def _scaled_lot_size(s: float, h: float, delta: float, w: float) -> float:
    """sqrt(2 s delta / (h w)) from the quotient of the significands, which
    lies in (0.5, 8), and half the exponent, so no step overflows or
    underflows.  Scaling by powers of two does not move a rounding, so
    where every step of the plain formula stays normal the bits are its.
    A lot size that overflows or rounds to 0 raises its error here."""
    (ms, es), (md, ed) = math.frexp(s), math.frexp(delta)
    (mh, eh), (mw, ew) = math.frexp(h), math.frexp(w)
    m, e = 2.0 * ms * md / (mh * mw), es + ed - eh - ew
    if e % 2:
        m, e = 2.0 * m, e - 1
    try:
        q = math.ldexp(math.sqrt(m), e // 2)
    except OverflowError:
        q = _INF
    _require_positive("q", q)
    return q


def crisp_optimal(p: CrispParams) -> SolutionRecord:
    """Closed-form minimizer of the crisp cost.

    The lot size of ``optimal_lot_size`` and its ``lot_cost``, taken at
    delta = phi and zeta = psi / (phi + psi); expanding gives the familiar
    sqrt(2 s phi (phi + psi) / (h (phi + 2 psi))).  The relative columns
    are zero by definition: this record is its own baseline.
    """
    return SolutionRecord(p.phi, p.psi / (p.phi + p.psi), *_baseline(p, False), 0.0, 0.0)


def cycle_quantities(q: float, p: CrispParams) -> CycleQuantities:
    """Cycle length, exhaustion time, and leaked stock for lot size q."""
    _require_positive("q", q)
    eta = p.phi + p.psi
    return CycleQuantities(t=q / p.phi, t1=q / eta, leaked=q * (p.psi / eta))


def truncated_baseline(record: SolutionRecord) -> SolutionRecord:
    """The crisp baseline truncated to whole units.

    Matches the published reference values, which report the worked
    example's optimum as 108 units at cost 1104 (truncation, not
    arithmetic rounding: the exact values are 108.657 and 1104.388).
    An optimum or cost below one unit would truncate to zero and is
    rejected.
    """
    q, z = _whole_units(record.q_star, record.z_star)
    return SolutionRecord(record.delta, record.zeta, q, z, record.rel_q, record.rel_z)


def _whole_units(q_star: float, z_star: float) -> tuple[float, float]:
    """``truncated_baseline``'s lot size and cost, or its error."""
    if not (q_star >= 1.0 and z_star >= 1.0):
        raise DomainError(
            "the whole-unit baseline needs a crisp optimum and cost of at least one unit "
            f"(got q_star={q_star!r}, z_star={z_star!r})"
        )
    return float(math.floor(q_star)), float(math.floor(z_star))


def percent_deviation(value: float, base: float) -> float:
    """Deviation of ``value`` from ``base`` in percent of ``base``.  Both must be
    finite, ``base`` nonzero, and the deviation finite."""
    deviation = (value - base) / base * 100.0 if base else math.nan
    # a nan or inf input makes the deviation nan or inf; only then are the inputs named
    if not -_INF < deviation < _INF:
        _require_finite("value", value)
        _require_finite("base", base)
        if not base:
            raise DomainError(f"base != 0 violated (got {base!r})")
        raise DomainError(f"percent deviation of {value!r} from {base!r} must be finite "
                          f"(got {deviation!r})")
    return deviation


def _baseline(p: CrispParams, paper_baseline: bool) -> tuple[float, float]:
    """The crisp baseline that fuzzy deviations are measured against:
    ``crisp_optimal``'s lot size and cost ``(q*, Z*)``, truncated to whole
    units with ``paper_baseline`` as the published reference table used
    them.  The errors come in the order that record would raise them: the
    lot size's, ``lot_cost``'s of a cost that overflows, then one of a cost
    that underflows to 0; its other fields are finite and positive."""
    zeta_value = p.psi / (p.phi + p.psi)
    q = _lot_size(p.s, p.h, p.phi, 1.0 + zeta_value)
    z = lot_cost(q, p.s, p.h, p.phi, zeta_value)
    if not z > 0.0:
        _require_positive("z_star", z)
    return _whole_units(q, z) if paper_baseline else (q, z)


def _lot_rule(
    p: CrispParams,
    delta: float,
    zeta_value: float,
    baseline: Callable[[], tuple[float, float]],
    delta4: Optional[float] = None,
) -> SolutionRecord:
    """The record of the optimal lot size at (delta, zeta_value), its cost,
    and their percent deviations from ``baseline()``'s lot size and cost
    ``(q*, Z*)``: the step every fuzzy row and both audit modes take.  Every
    caller passes a positive, finite ``delta`` and a finite ``zeta_value``
    above -1, and the lot size is checked where it is formed, before the
    baseline is asked for, so a row's own error comes before the
    baseline's; the record checks the rest.  The cost and the deviations
    are the formulas of ``lot_cost`` and ``percent_deviation``, written
    here so that a row calls no function for them.  The paper audit passes
    the published zeta, which the record then holds; an audit reads only
    the lot size, the cost and the deviations.

    ``delta4``, which ``_solve`` passes where ``delta`` is subnormal, is
    4 delta formed without that grid's rounding.  The lot size and cost are
    then formed from it, as sqrt(2 s (4 delta) / (h 4 (1 + zeta))) and (s/q) (4 delta) / 4,
    so the rounding of ``delta`` to the subnormal grid does not reach them;
    the record still holds the rounded ``delta``."""
    s, h = p.s, p.h
    if delta4 is None:
        q = _lot_size(s, h, delta, 1.0 + zeta_value)
    else:
        q = _scaled_lot_size(s, h, delta4, 4.0 * (1.0 + zeta_value))
    ordering = (s / q) * delta if delta4 is None else (s / q) * delta4 / 4.0
    z_star = q * h / 2.0 + ordering + (q * h / 2.0) * zeta_value
    base_q, base_z = baseline()
    return SolutionRecord(delta, zeta_value, q, z_star,
                          (q - base_q) / base_q * 100.0, (z_star - base_z) / base_z * 100.0)


def _solve(
    p: CrispParams,
    spreads: FuzzySpreads,
    baseline: Callable[[], tuple[float, float]],
    relax_bounds: bool,
) -> SolutionRecord:
    """One row solved against ``baseline()``: the step ``fuzzy_optimal``,
    ``run_sweep`` and the CLI's ``fuzzy`` command share.  It checks the
    spreads once and forms ``delta`` and ``zeta`` as ``defuzzified_rates``
    does, then takes the lot-rule step.  Where ``delta`` is subnormal, and
    so rounded to the subnormal grid, the step also gets 4 delta =
    4 phi + (d2 - d1): every operand is then below 2**-1020, so it is exact
    where it is itself subnormal, and a normal number otherwise."""
    phi, psi = p.phi, p.psi
    spreads.validate_against(phi, psi, relax_bounds=relax_bounds)
    d = spreads.d2 - spreads.d1
    delta = phi + d / 4.0
    zeta_value = _closed_form(phi, psi, spreads)
    if delta < _MIN_NORMAL:
        return _lot_rule(p, delta, zeta_value, baseline, 4.0 * phi + d)
    return _lot_rule(p, delta, zeta_value, baseline)


def fuzzy_optimal(
    p: CrispParams,
    spreads: FuzzySpreads,
    *,
    paper_baseline: bool = False,
    relax_bounds: bool = False,
) -> SolutionRecord:
    """Minimize the defuzzified cost and report deviations from crisp.

    With ``paper_baseline`` the deviations are taken against the crisp
    optimum truncated to whole units, the baseline the published
    reference table used; otherwise against the exact crisp optimum.
    The result is the only record built: the baseline is its lot size and
    cost alone, computed once the row's own checks pass, so an error of
    the row comes before one of the baseline.
    """
    return _solve(p, spreads, partial(_baseline, p, paper_baseline), relax_bounds)
