"""Adaptive Simpson integration on a finite interval.

This is the package's independent numerical route: every closed-form
integral elsewhere in the library is checked against this integrator,
never the other way around, so it deliberately shares no code with the
closed forms it validates.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError, QuadratureError

DEFAULT_TOL = 1e-12
# Evaluations one integration may spend; zeta's cuts take up to ~1.5e5 near their pole.
EVALUATION_BUDGET = 250_000
_ROUNDING = 64 * 2.0**-52  # 64 ulps, relative to a panel's estimate
_MAX_DEPTH = 60  # bisections of a panel; keeps the recursion inside Python's stack


def adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, *, tol: float = DEFAULT_TOL
) -> float:
    """Integrate ``f`` over ``[a, b]`` to tolerance ``tol``.

    Classic recursive bisection with Richardson extrapolation: a panel is
    accepted when refining it moves the Simpson estimate by at most
    ``15 * tol``, and the extrapolated value is returned.  Each half
    inherits half the tolerance, so the accepted panels sum to within
    ``tol`` overall.  ``tol`` is absolute, but multiplied by ``M / 2``,
    ``M = (b - a) |f((a + b) / 2)|``, when ``M`` is above 1, so rounding
    noise in a large integrand cannot keep every panel refining (Gander &
    Gautschi, BIT 40, 2000).  ``M`` uses the midpoint alone because an
    integrable pole at an end would inflate a Simpson estimate; the half
    covers a steep end that the midpoint underrates.  A panel is also
    accepted when the change is within 64 ulps of its estimate: its
    correction ``err / 15`` is then rounding, whatever its share of ``tol``.

    Raises:
        QuadratureError: if the tolerance is not reached within
            ``EVALUATION_BUDGET`` integrand evaluations and 60 bisections.
    """
    if a == b:
        return 0.0
    if not a < b:
        raise DomainError(f"a <= b violated (got a={a!r}, b={b!r})")
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    size = (b - a) * abs(fm)
    if 1.0 < size < math.inf:  # NaN and inf leave tol absolute
        tol *= 0.5 * size
    remaining = EVALUATION_BUDGET - 5  # the 3 points above and the first refinement's 2

    def refine(a, b, fa, fm, fb, whole, tol, depth):
        nonlocal remaining
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
        right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
        err = left + right - whole
        # NaN fails these comparisons and falls through to the limits.
        if abs(err) <= 15.0 * tol or abs(err) <= _ROUNDING * abs(left + right):
            return left + right + err / 15.0
        if depth <= 0:
            raise QuadratureError(
                f"tolerance {tol:g} not reached on [{a:g}, {b:g}] after {_MAX_DEPTH} bisections")
        remaining -= 4  # the two halves evaluate two points each
        if remaining < 0:
            raise QuadratureError(f"tolerance {tol:g} not reached on [{a:g}, {b:g}] within "
                                  f"the budget of {EVALUATION_BUDGET} integrand evaluations")
        half = 0.5 * tol
        return refine(a, m, fa, flm, fm, left, half, depth - 1) + refine(
            m, b, fm, frm, fb, right, half, depth - 1
        )

    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    return refine(a, b, fa, fm, fb, whole, tol, _MAX_DEPTH)
