"""Defuzzified model quantities: mean demand and mean leakage fraction.

The inventory model replaces its crisp demand and leakage rates with
triangular fuzzy numbers spread around them.  Exactly two scalars carry
the fuzziness into the cost function:

* ``delta_signed_demand``, the signed distance of the fuzzy demand rate,
  which collapses to ``phi + (d2 - d1) / 4``;
* ``zeta``, the signed distance of the fuzzy leakage fraction
  ``leakage / (demand + leakage)``, available both as a closed form (an
  exact antiderivative in logarithms) and as adaptive quadrature over the
  quotient's alpha-cut endpoints.

The two zeta routes share no code, so each validates the other; the
``zeta`` front end picks the closed form except in a near-degenerate
regime where its log terms cancel catastrophically.  ``defuzzified_rates``
returns both scalars for one spread row and validates the spreads once;
the solver uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError
from .fuzzy import TriangularFuzzyNumber, _require_finite, signed_distance_quadrature
from .quadrature import DEFAULT_MAX_DEPTH, DEFAULT_TOL

# Below this combined-spread to combined-rate ratio the closed form loses
# most of its significant digits and the quadrature route takes over.
NEAR_SINGULAR_RATIO = 1e-8


@dataclass(frozen=True)
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
        for name in ("d1", "d2", "d3", "d4"):
            value = getattr(self, name)
            _require_finite(name, value)
            if not value > 0.0:
                raise DomainError(f"{name} > 0 violated (got {value!r})")

    @property
    def d5(self) -> float:
        """Combined downward spread of demand plus leakage."""
        return self.d1 + self.d3

    @property
    def d6(self) -> float:
        """Combined upward spread of demand plus leakage."""
        return self.d2 + self.d4

    def validate_against(
        self,
        phi: Optional[float] = None,
        psi: Optional[float] = None,
        *,
        relax_bounds: bool = False,
    ) -> None:
        """Check the spread bounds against the crisp rates.

        The lower-spread bounds ``d1 < phi`` and ``d3 < psi`` keep every
        quantity in the model well defined (positive rates at membership
        level 0) and are always enforced.  The mirror bounds ``d2 < phi``
        and ``d4 < psi`` belong to the model statement but are not
        mathematically necessary; ``relax_bounds`` lifts exactly those.
        """
        if phi is not None:
            if not self.d1 < phi:
                raise DomainError(f"d1 < phi violated (d1={self.d1!r}, phi={phi!r})")
            if not relax_bounds and not self.d2 < phi:
                raise DomainError(f"d2 < phi violated (d2={self.d2!r}, phi={phi!r})")
        if psi is not None:
            if not self.d3 < psi:
                raise DomainError(f"d3 < psi violated (d3={self.d3!r}, psi={psi!r})")
            if not relax_bounds and not self.d4 < psi:
                raise DomainError(f"d4 < psi violated (d4={self.d4!r}, psi={psi!r})")


def demand_fuzzy(phi: float, spreads: FuzzySpreads) -> TriangularFuzzyNumber:
    """The fuzzy demand rate (phi - d1, phi, phi + d2)."""
    return TriangularFuzzyNumber(phi - spreads.d1, phi, phi + spreads.d2)


def leakage_fuzzy(psi: float, spreads: FuzzySpreads) -> TriangularFuzzyNumber:
    """The fuzzy leakage rate (psi - d3, psi, psi + d4)."""
    return TriangularFuzzyNumber(psi - spreads.d3, psi, psi + spreads.d4)


def _signed_demand(phi: float, spreads: FuzzySpreads) -> float:
    return phi + (spreads.d2 - spreads.d1) / 4.0


def _validate_rates(
    phi: float, psi: float, spreads: FuzzySpreads, relax_bounds: bool
) -> None:
    _require_finite("phi", phi)
    _require_finite("psi", psi)
    spreads.validate_against(phi=phi, psi=psi, relax_bounds=relax_bounds)


def delta_signed_demand(
    phi: float,
    spreads: FuzzySpreads,
    *,
    relax_bounds: bool = False,
) -> float:
    """Signed distance of the fuzzy demand rate: phi + (d2 - d1) / 4."""
    _require_finite("phi", phi)
    spreads.validate_against(phi=phi, relax_bounds=relax_bounds)
    return _signed_demand(phi, spreads)


def leak_fraction_cuts(
    phi: float,
    psi: float,
    spreads: FuzzySpreads,
    *,
    relax_bounds: bool = False,
) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """Alpha-cut endpoint functions of the fuzzy leakage fraction.

    The fraction is the positive interval quotient of the leakage cut by
    the combined-rate cut, so its lower endpoint divides the leakage lower
    endpoint by the combined upper endpoint, and vice versa.
    """
    _validate_rates(phi, psi, spreads, relax_bounds)
    eta = phi + psi
    d3, d4 = spreads.d3, spreads.d4
    d5, d6 = spreads.d5, spreads.d6
    lo_num = psi - d3
    hi_num = psi + d4
    lo_den = eta + d6
    hi_den = eta - d5

    def cut_lo(a: float) -> float:
        return (lo_num + d3 * a) / (lo_den - d6 * a)

    def cut_hi(a: float) -> float:
        return (hi_num - d4 * a) / (hi_den + d5 * a)

    return cut_lo, cut_hi


def zeta_closed_form(
    phi: float,
    psi: float,
    spreads: FuzzySpreads,
    *,
    relax_bounds: bool = False,
) -> float:
    """Mean leakage fraction by the exact antiderivative.

    Integrating the quotient's cut endpoints over the membership levels
    gives a logarithmic expression.  It is strictly positive wherever the
    bounds hold, but it loses precision when the combined spreads are tiny
    against the combined rate (the log terms then cancel almost exactly
    against d3/d6 + d4/d5); use ``zeta`` for the dispatching front end.
    """
    _validate_rates(phi, psi, spreads, relax_bounds)
    return _log_form(phi, psi, spreads)


def _log_form(phi: float, psi: float, spreads: FuzzySpreads) -> float:
    eta = phi + psi
    d3, d4 = spreads.d3, spreads.d4
    d5, d6 = spreads.d5, spreads.d6
    up = (psi * d6 + eta * d3) / (d6 * d6) * math.log((eta + d6) / eta)
    down = (psi * d5 + eta * d4) / (d5 * d5) * math.log(eta / (eta - d5))
    return 0.5 * (up + down - d3 / d6 - d4 / d5)


def zeta_quadrature(
    phi: float,
    psi: float,
    spreads: FuzzySpreads,
    *,
    relax_bounds: bool = False,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> float:
    """Mean leakage fraction by adaptive quadrature over the cut endpoints.

    Independent of ``zeta_closed_form`` by construction; the two must
    agree to the quadrature tolerance on every valid input.
    """
    cut_lo, cut_hi = leak_fraction_cuts(phi, psi, spreads, relax_bounds=relax_bounds)
    return signed_distance_quadrature(cut_lo, cut_hi, tol=tol, max_depth=max_depth)


def uses_quadrature_fallback(phi: float, psi: float, spreads: FuzzySpreads) -> bool:
    """Whether ``zeta`` routes this input to quadrature instead of the
    closed form (combined spreads nearly degenerate against the rates)."""
    eta = phi + psi
    return spreads.d5 < NEAR_SINGULAR_RATIO * eta or spreads.d6 < NEAR_SINGULAR_RATIO * eta


def zeta(
    phi: float,
    psi: float,
    spreads: FuzzySpreads,
    *,
    relax_bounds: bool = False,
) -> float:
    """Mean leakage fraction: closed form, with a quadrature fallback.

    The closed form is exact outside the near-degenerate regime flagged by
    ``uses_quadrature_fallback``; inside it, cancellation would leave few
    significant digits and the quadrature route is used instead.
    """
    _validate_rates(phi, psi, spreads, relax_bounds)
    return _leak_fraction(phi, psi, spreads, relax_bounds)


def _leak_fraction(
    phi: float, psi: float, spreads: FuzzySpreads, relax_bounds: bool
) -> float:
    # spreads already validated; the quadrature route validates again
    if uses_quadrature_fallback(phi, psi, spreads):
        return zeta_quadrature(phi, psi, spreads, relax_bounds=relax_bounds)
    return _log_form(phi, psi, spreads)


def defuzzified_rates(
    phi: float,
    psi: float,
    spreads: FuzzySpreads,
    *,
    relax_bounds: bool = False,
) -> tuple[float, float]:
    """``delta_signed_demand`` and ``zeta`` together, validating the spreads
    once against both rates."""
    _validate_rates(phi, psi, spreads, relax_bounds)
    return _signed_demand(phi, spreads), _leak_fraction(phi, psi, spreads, relax_bounds)
