"""Reference values of the model's outputs, from the exact binary64 inputs.

``zeta(phi, psi, spreads)`` evaluates the antiderivative of the mean leakage
fraction in stdlib ``decimal``.  With ``x = d6/eta``, ``y = d5/eta`` and
``w = psi/eta`` it is

    zeta = 1/2 [w (2 + x h(x) - y h(-y)) + (d3/eta) h(x) - (d4/eta) h(-y)]

through ``h(t) = (ln(1 + t)/t - 1)/t``, summed as its series where
``|t| < 1e-20``.  Every step rounds to the working precision, so the value is
evaluated at 60 digits, then at twice as many, and so on, until two
evaluations round to the same float (Ziv's strategy: A. Ziv, "Fast evaluation
of elementary mathematical functions with correctly rounded last bit", ACM
TOMS 17(3), 1991).

The module imports only the standard library, so a script outside the test
suite can load it by path; ``spreads`` is anything with the attributes ``d1``
to ``d4``.  No input is checked: the caller passes a valid one.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

_SERIES_LIMIT = Decimal("1e-20")
# the first precision, in digits, and the last one tried
_FIRST, _LAST = 60, 60 * 2**8


def _h(t: Decimal) -> Decimal:
    """(ln(1 + t)/t - 1)/t; below ``_SERIES_LIMIT`` the sum of
    -(-t)^k / (k + 2) over k >= 0, up to the first term that adds nothing."""
    if abs(t) >= _SERIES_LIMIT:
        return ((1 + t).ln() / t - 1) / t
    total, power, k = Decimal(0), Decimal(-1), 2
    while True:
        step = power / k
        if total + step == total:
            return total
        total, power, k = total + step, -power * t, k + 1


def _zeta_at(digits: int, phi, psi, d1, d2, d3, d4) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = digits
        eta = phi + psi
        x, y = (d2 + d4) / eta, (d1 + d3) / eta
        hx, hy = _h(x), _h(-y)
        return (psi / eta * (2 + x * hx - y * hy) + d3 / eta * hx - d4 / eta * hy) / 2


def zeta(phi: float, psi: float, spreads) -> float:
    """The mean leakage fraction, rounded from digits enough that doubling
    them moves no bit."""
    exact = [Decimal(v) for v in (phi, psi, spreads.d1, spreads.d2, spreads.d3, spreads.d4)]
    digits, last = _FIRST, None
    while digits <= _LAST:
        value = float(_zeta_at(digits, *exact))
        if value == last:
            return value
        digits, last = 2 * digits, value
    raise ArithmeticError(f"zeta did not settle at {_LAST} digits: {exact}")
