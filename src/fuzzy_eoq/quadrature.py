"""Globally adaptive Gauss–Kronrod integration on a finite interval.

This is the package's independent numerical route: every closed-form
integral elsewhere in the library is checked against this integrator,
never the other way around, so it deliberately shares no code with the
closed forms it validates.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from .errors import DomainError, QuadratureError

DEFAULT_TOL = 1e-12
# Evaluations one integration may spend: about 44 times the most (225) the zeta
# oracle took on 30,000 draws of each tests/domain.py family.
EVALUATION_BUDGET = 10_000
_ROUNDING = 64 * 2.0**-52  # 64 ulps, relative to a panel's estimate

# QUADPACK qk15 (Piessens et al., 1983): the 15-point Kronrod rule and its
# embedded 7-point Gauss rule on [-1, 1], as (abscissa, Kronrod weight,
# Gauss weight) for the nodes both rules share and (abscissa, Kronrod
# weight) for the nodes only Kronrod adds; the centre is a shared node.
_GAUSS_NODES = (
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
)
_KRONROD_NODES = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649),
)
_CENTRE_KRONROD = 0.209482141084727828012999174891714
_CENTRE_GAUSS = 0.417959183673469387755102040816327
_OUTER_NODE = _KRONROD_NODES[0][0]
_PANEL_EVALUATIONS = 15


def _panel(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """K15 estimate of the integral over ``[lo, hi]`` and ``|K15 - G7|``."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(centre)
    kronrod = _CENTRE_KRONROD * fc
    gauss = _CENTRE_GAUSS * fc
    for x, wk, wg in _GAUSS_NODES:
        pair = f(centre - half * x) + f(centre + half * x)
        kronrod += wk * pair
        gauss += wg * pair
    for x, wk in _KRONROD_NODES:
        kronrod += wk * (f(centre - half * x) + f(centre + half * x))
    estimate, err = kronrod * half, abs(kronrod - gauss) * half
    if not (math.isfinite(estimate) and math.isfinite(err)):
        raise QuadratureError(f"non-finite estimate {estimate!r} on [{lo:g}, {hi:g}]")
    return estimate, err


def _nodes_inside(lo: float, hi: float) -> bool:
    """Whether ``_panel``'s outermost nodes on ``[lo, hi]`` round strictly inside it."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return lo < centre - half * _OUTER_NODE and centre + half * _OUTER_NODE < hi


def _closes(estimate: float, err: float) -> bool:
    """Whether a panel is closed: its error is within 64 ulps of its
    estimate, so the rest is rounding."""
    return err <= _ROUNDING * abs(estimate)


def gauss_kronrod(
    f: Callable[[float], float], a: float, b: float, *, tol: float = DEFAULT_TOL
) -> float:
    """Integrate ``f`` over ``[a, b]`` to the absolute tolerance ``tol``.

    One globally adaptive pass, QUADPACK's QAG strategy (Piessens et al.,
    1983): each panel carries a 15-point Kronrod estimate and its error
    ``|K15 - G7|`` against the embedded 7-point Gauss rule, and the open
    panel with the largest error is halved until the open panels' errors
    sum to at most ``tol``.  As in QAG, the first panel is tested before
    any list is set up: if it closes or its error is within ``tol``, its
    estimate is the result.  Past it, the sum is recounted with
    ``math.fsum`` before stopping, because a running sum cancels once the
    large early errors are taken out.  A panel closes when its error is
    within 64 ulps of its estimate: the rest is rounding.  A panel is
    halved only where every node of both halves rounds strictly inside
    them, so an integrable pole at an end of ``[a, b]`` is never
    evaluated; an ``[a, b]`` only a few ulps wide, whose own outer nodes
    would round onto its ends, is refused before ``f`` is called.

    Raises:
        DomainError: if ``a`` or ``b`` is not finite, if ``a > b``, or if
            ``tol`` is negative or nan.
        QuadratureError: if an estimate is not finite, if a panel that
            must be halved cannot be, if ``[a, b]`` is too narrow to hold
            every node inside it, or if the tolerance is not reached
            within ``EVALUATION_BUDGET`` integrand evaluations.
        Any exception ``f`` raises, unchanged: it is the caller's own.
    """
    if not tol >= 0.0:
        raise DomainError(f"tol must be non-negative (got {tol!r})")
    if not (math.isfinite(a) and math.isfinite(b)):
        name, bound = ("b", b) if math.isfinite(a) else ("a", a)
        raise DomainError(f"{name} must be finite (got {bound!r})")
    if a == b:
        return 0.0
    if not a < b:
        raise DomainError(f"a <= b violated (got a={a!r}, b={b!r})")
    if not _nodes_inside(a, b):
        raise QuadratureError(f"[{a!r}, {b!r}] is too narrow to hold every node inside it")
    estimate, err = _panel(f, a, b)
    # one open panel: its error is the whole sum, and needs no recount
    if _closes(estimate, err) or err <= tol:
        return estimate
    remaining = EVALUATION_BUDGET - _PANEL_EVALUATIONS
    closed = []
    heap = [(-err, a, b, estimate)]  # open panels as (-err, lo, hi, estimate): the worst first
    total = err  # running sum of the open panels' errors
    while heap:
        if total <= tol:
            total = math.fsum(-panel[0] for panel in heap)
            if total <= tol:
                break
        remaining -= 2 * _PANEL_EVALUATIONS
        neg_err, lo, hi, _ = heapq.heappop(heap)
        if remaining < 0:
            raise QuadratureError(f"tolerance {tol:g} not reached on [{lo:g}, {hi:g}] within "
                                  f"the budget of {EVALUATION_BUDGET} integrand evaluations")
        total += neg_err
        mid = 0.5 * (lo + hi)
        if not (_nodes_inside(lo, mid) and _nodes_inside(mid, hi)):
            raise QuadratureError(f"tolerance {tol:g} not reached: [{lo!r}, {hi!r}] cannot be "
                                  f"halved with every node inside")
        for lo, hi in ((lo, mid), (mid, hi)):
            estimate, err = _panel(f, lo, hi)
            if _closes(estimate, err):
                closed.append(estimate)
            else:
                heapq.heappush(heap, (-err, lo, hi, estimate))
                total += err
    return math.fsum([*closed, *(panel[3] for panel in heap)])
