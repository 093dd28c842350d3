"""Defuzzified model quantities: mean demand and mean leakage fraction.

The inventory model replaces its crisp demand and leakage rates with
triangular fuzzy numbers spread around them.  Exactly two scalars carry
the fuzziness into the cost function:

* ``delta``, the signed distance of the fuzzy demand rate, which
  collapses to ``phi + (d2 - d1) / 4``;
* ``zeta``, the signed distance of the fuzzy leakage fraction
  ``leakage / (demand + leakage)``, an exact antiderivative in logarithms
  written through ``h(t) = (log1p(t)/t - 1)/t`` and arranged so that
  little cancels.  One band still does: just above ``_SERIES_LIMIT``,
  ``_h`` computes ``log1p(t) / t - 1`` directly and loses about 7 bits,
  so ``g(t) = t h(t)`` at ``t = -0.01023`` is 3.6e-14 off a 60-digit
  ``decimal`` evaluation (ROADMAP item 8, part B).

``defuzzified_rates`` returns both for one spread row; every audit row
calls it, ``zeta`` returns its second, and the solve step takes its two
steps inline.  Each public route checks its input once, in
``FuzzySpreads.validate_against``: the rates, then the spread bounds, then
the largest cut sum.
``zeta_quadrature`` integrates the alpha-cut endpoints of that quotient
adaptively instead, each cut's pole flattened by one change of variable on
every input.  It reads the operands as the six floats that
``leakage_fuzzy`` and ``demand_fuzzy + leakage_fuzzy`` hold, formed by the
same operations, and builds no fuzzy number on the way.
It shares no code with ``zeta``: it is the independent oracle that tests
and the CLI report check the closed form against, and no solve calls it.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .fuzzy import (TriangularFuzzyNumber, _quotient_distance, _require_finite,
                    _require_positive, _value_type)

# Below this |t|, (log1p(t)/t - 1)/t is summed as a series: computed
# directly it would subtract two nearly equal numbers.
_SERIES_LIMIT = 1e-2

_INF = math.inf


@_value_type
class FuzzySpreads:
    """Spreads around the crisp rates chosen by the decision maker.

    ``d1``/``d2`` widen the demand rate downward/upward, ``d3``/``d4`` do
    the same for the leakage rate.  All four must be strictly positive;
    how large they may grow is checked against the paired crisp rates by
    ``validate_against``.
    """

    d1: float
    d2: float
    d3: float
    d4: float

    def __post_init__(self) -> None:
        # one chain on the row path; the loop names the first bad spread
        if not (0.0 < self.d1 < _INF and 0.0 < self.d2 < _INF
                and 0.0 < self.d3 < _INF and 0.0 < self.d4 < _INF):
            for name in ("d1", "d2", "d3", "d4"):
                _require_positive(name, getattr(self, name))

    @property
    def d5(self) -> float:
        """Combined downward spread of demand plus leakage."""
        return self.d1 + self.d3

    @property
    def d6(self) -> float:
        """Combined upward spread of demand plus leakage."""
        return self.d2 + self.d4

    def validate_against(self, phi: float, psi: float, *, relax_bounds: bool = False) -> None:
        """Check the crisp rates, then the spread bounds against them.

        ``phi``, ``psi`` and ``phi + psi`` must be finite.  The lower-spread
        bounds ``d1 < phi`` and ``d3 < psi`` keep every quantity in the
        model well defined (positive rates at membership level 0) and are
        always enforced.  The mirror bounds ``d2 < phi`` and ``d4 < psi``
        belong to the model statement but are not mathematically necessary;
        ``relax_bounds`` lifts exactly those.  Last, the largest sum the
        oracle's cut endpoints form, ``(phi + d2) + (psi + d4)`` rounded as
        the oracle rounds it, must be finite, so ``zeta`` and the oracle
        reject the same inputs.  It is reported as ``phi + psi + d2 + d4``.
        """
        # a nan or inf rate, or a sum that overflows, makes phi + psi nan or
        # inf: one test on the row path, and only then are the rates named
        eta = phi + psi
        if not -_INF < eta < _INF:
            _require_finite("phi", phi)
            _require_finite("psi", psi)
            _require_finite("phi + psi", eta)
        if not self.d1 < phi:
            raise DomainError(f"d1 < phi violated (d1={self.d1!r}, phi={phi!r})")
        if not relax_bounds and not self.d2 < phi:
            raise DomainError(f"d2 < phi violated (d2={self.d2!r}, phi={phi!r})")
        if not self.d3 < psi:
            raise DomainError(f"d3 < psi violated (d3={self.d3!r}, psi={psi!r})")
        if not relax_bounds and not self.d4 < psi:
            raise DomainError(f"d4 < psi violated (d4={self.d4!r}, psi={psi!r})")
        # the bounds passed make every term positive, so only inf can fail
        total = (phi + self.d2) + (psi + self.d4)
        if not total < _INF:
            _require_finite("phi + psi + d2 + d4", total)


def demand_fuzzy(phi: float, spreads: FuzzySpreads) -> TriangularFuzzyNumber:
    """The fuzzy demand rate (phi - d1, phi, phi + d2)."""
    return TriangularFuzzyNumber(phi - spreads.d1, phi, phi + spreads.d2)


def leakage_fuzzy(psi: float, spreads: FuzzySpreads) -> TriangularFuzzyNumber:
    """The fuzzy leakage rate (psi - d3, psi, psi + d4)."""
    return TriangularFuzzyNumber(psi - spreads.d3, psi, psi + spreads.d4)


def _leak_fraction(
    phi: float, psi: float, spreads: FuzzySpreads, relax_bounds: bool
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """The leak fraction ``leakage / (demand + leakage)``'s numerator and
    denominator, validated, as ``(lo, peak, hi)`` triples: the parameters
    of ``leakage_fuzzy(psi, spreads)`` and of
    ``demand_fuzzy(phi, spreads) + leakage_fuzzy(psi, spreads)``, formed by
    the same operations.  ``validate_against`` makes them finite and
    ordered, so no fuzzy number is built to check them again.

    The quotient is scale-free, so rates with ``phi + psi`` below 1/2 are
    first scaled up by a power of two, which is exact.  At deep-subnormal
    rates the cut coefficients would otherwise be a few multiples of the
    smallest subnormal, and the integrand a staircase.  The rates and
    spreads are scaled before the endpoints are formed: scaling the
    endpoints afterwards rounds differently at subnormal rates."""
    spreads.validate_against(phi, psi, relax_bounds=relax_bounds)
    d1, d2, d3, d4 = spreads.d1, spreads.d2, spreads.d3, spreads.d4
    k = -math.frexp(phi + psi)[1]
    # only upward, and only while the denominator's upper end stays finite
    if k > 0 and math.frexp((phi + d2) + (psi + d4))[1] + k <= 1024:
        ldexp = math.ldexp
        phi, psi = ldexp(phi, k), ldexp(psi, k)
        d1, d2, d3, d4 = ldexp(d1, k), ldexp(d2, k), ldexp(d3, k), ldexp(d4, k)
    lo, hi = psi - d3, psi + d4
    return (lo, psi, hi), ((phi - d1) + lo, phi + psi, (phi + d2) + hi)


def _h(t: float) -> float:
    """(log1p(t)/t - 1)/t for t > -1, without the cancellation of computing
    it directly near t = 0, where it tends to -1/2."""
    if abs(t) < _SERIES_LIMIT:
        # sum of (-t)^k / (k + 2) for k = 0..8 in Horner form; the first
        # term left out is below 2e-19 of the sum
        return -1 / 2 + t * (1 / 3 + t * (-1 / 4 + t * (1 / 5 + t * (
            -1 / 6 + t * (1 / 7 + t * (-1 / 8 + t * (1 / 9 - t / 10)))))))
    return (math.log1p(t) / t - 1.0) / t


def _closed_form(phi: float, psi: float, spreads: FuzzySpreads) -> float:
    # With x = d6/eta, y = d5/eta, w = psi/eta and h(t) = (log1p(t)/t - 1)/t
    # the antiderivative is
    #   zeta = 1/2 [w (2 + x h(x) - y h(-y)) + (d3/eta) h(x) - (d4/eta) h(-y)].
    # The spread terms are over eta, not (d3/d6) g(x) and (d4/d5) g(-y)
    # with g(t) = t h(t): where x or y underflows, g rounds to 0 while
    # d3/d6 or d4/d5 can overflow, and h(0) = -1/2 keeps the term.
    # Only w x h(x) > -w and (d3/eta) h(x) > -w/2 are negative, against
    # w (2 - y h(-y)) >= 2w, so the bracket stays above w/2 and at most a
    # couple of bits cancel.  Nothing is squared, so tiny or huge rates do
    # not underflow or overflow on the way; only relaxed upper spreads that
    # dwarf tiny rates can overflow d6/eta, and that is rejected.
    eta = phi + psi
    x = (spreads.d2 + spreads.d4) / eta
    hx = _h(x)
    d5 = spreads.d1 + spreads.d3
    y = d5 / eta
    if y < 0.5:
        hy = _h(-y)
        gy, ty = -y * hy, -spreads.d4 / eta * hy
    else:
        # 1 - y cancels as d1 -> phi and d3 -> psi; each residual is one
        # rounding of exact inputs (exact there, by Sterbenz), and the
        # bounds keep their sum positive
        gy = math.log(((phi - spreads.d1) + (psi - spreads.d3)) / eta) / -y - 1.0
        ty = spreads.d4 / d5 * gy
    value = 0.5 * (psi / eta * (2.0 + x * hx + gy) + spreads.d3 / eta * hx + ty)
    if not -_INF < value < _INF:
        _require_finite("zeta", value)
    return value


def zeta_quadrature(
    phi: float,
    psi: float,
    spreads: FuzzySpreads,
    *,
    relax_bounds: bool = False,
) -> float:
    """Mean leakage fraction by adaptive quadrature over the cut endpoints.

    Independent of ``zeta`` by construction; the two must agree to the
    quadrature tolerance on every valid input.

    Both cuts of the leak fraction have a pole just outside [0, 1]: the
    lower one ``(phi + psi) / d6`` right of ``a = 1``, a spike there when
    relaxed upper spreads dwarf the rates, and the upper one
    ``((phi - d1) + (psi - d3)) / d5`` left of ``a = 0``, a spike there when
    the lower spreads near their bounds.  ``_quotient_distance`` flattens
    both by a change of variable that leaves each cut's integral unchanged,
    on every input, so an ordinary input settles in one panel.
    """
    return _quotient_distance(*_leak_fraction(phi, psi, spreads, relax_bounds))


def zeta(
    phi: float,
    psi: float,
    spreads: FuzzySpreads,
    *,
    relax_bounds: bool = False,
) -> float:
    """Mean leakage fraction by the exact antiderivative: the second value
    of ``defuzzified_rates``, with its one input check.

    Integrating the quotient's cut endpoints over the membership levels
    gives logarithms of 1 + x and 1 - y, with x = d6/eta and y = d5/eta,
    written through ``h(t) = (log1p(t)/t - 1)/t``, which is summed as a
    series for ``|t| < _SERIES_LIMIT`` and tends to -1/2 at t = 0.  Each
    spread's term is its spread over eta times ``h``, so it is kept where
    x or y underflows.  Nothing is squared, so the result holds from
    near-degenerate spreads up to the bounds and at both ends of the
    binary64 range.  The one valid input rejected is a relaxed upper
    spread so far above tiny rates that d6/eta overflows.  It is not free
    of cancellation: just above ``_SERIES_LIMIT``, ``h`` is computed
    directly and loses about 7 bits (``t h(t)`` at ``t = -0.01023`` is
    3.6e-14 off a 60-digit ``decimal`` evaluation), which reaches ``zeta``
    where that term dominates (ROADMAP item 8, part B).
    """
    return defuzzified_rates(phi, psi, spreads, relax_bounds=relax_bounds)[1]


def defuzzified_rates(
    phi: float,
    psi: float,
    spreads: FuzzySpreads,
    *,
    relax_bounds: bool = False,
) -> tuple[float, float]:
    """``delta`` and ``zeta`` together, checking the rates and spreads once."""
    spreads.validate_against(phi, psi, relax_bounds=relax_bounds)
    return phi + (spreads.d2 - spreads.d1) / 4.0, _closed_form(phi, psi, spreads)
