"""Valid model inputs from every region of the domain.

``valid_input(rng, family)`` draws ``(params, spreads, relax_bounds)`` from
one family of ``FAMILIES``, or from their weighted mix when ``family`` is
``None``; the README's testing notes give each family's ranges.  Every
input it returns is in the domain by its definition: the params and
spreads construct, ``FuzzySpreads.validate_against`` passes, and
``d6/eta`` is finite, ``zeta``'s one documented exclusion.  A draw that
rounds out of the domain is drawn again, at most ``_TRIES`` times.  No
solve route is asked, so a route that rejects a valid input fails its
test instead of having the draw replaced.  ``ordinary`` draws ``phi``,
``psi/phi``, ``h``, ``s`` and then ``d1`` to ``d4``, always in that
order, so a fixed seed keeps its inputs.
``reference_solve`` solves one row from the public pieces alone, the
reference every solve path is checked against.

The module imports only the standard library and ``fuzzy_eoq``, so a
script outside the test suite can load it by path.  The tests hand it
hypothesis's ``st.randoms(use_true_random=False)``, whose ``uniform(a, b)``
is a float strategy on ``[a, b]``: every draw is recorded, so a failure
shrinks and prints a blob that replays it.
"""

from __future__ import annotations

import math
import random
import sys

from fuzzy_eoq import (CrispParams, DomainError, FuzzySpreads, SolutionRecord, crisp_optimal,
                       defuzzified_rates, lot_cost, optimal_lot_size, truncated_baseline)
from fuzzy_eoq.model import percent_deviation

# a family whose draws round out of the domain this often is broken
_TRIES = 100


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    """10 to a power drawn uniformly in ``lo..hi``."""
    return 10.0 ** rng.uniform(lo, hi)


def log_uniform_share(rng: random.Random, rate: float, lo: float, hi: float) -> float:
    """``rate`` times 10 to a power drawn uniformly in ``lo..hi``, floored at the
    smallest subnormal.  The power is formed in two halves, which neither underflow
    nor overflow, so the share keeps its bits where ``10**u`` alone would be 0 or
    subnormal."""
    half = 10.0 ** (rng.uniform(lo, hi) / 2.0)
    return max(rate * half * half, 5e-324)


def _costs(rng: random.Random) -> tuple[float, float]:
    return rng.uniform(0.5, 50.0), rng.uniform(5.0, 2000.0)


def _shares(rng: random.Random, phi: float, psi: float,
            lo: float = 0.01, hi: float = 0.95) -> tuple[float, ...]:
    """``d1`` to ``d4``, each a ``lo..hi`` share of its rate."""
    return (phi * rng.uniform(lo, hi), phi * rng.uniform(lo, hi),
            psi * rng.uniform(lo, hi), psi * rng.uniform(lo, hi))


def _nine_decades(rng: random.Random) -> tuple[float, float]:
    """``phi`` log-uniform in 1e-3..1e6 and ``psi/phi`` in 1e-3..0.9."""
    phi = _log_uniform(rng, -3.0, 6.0)
    return phi, phi * rng.uniform(1e-3, 0.9)


def _ulps_below(rng: random.Random, rate: float) -> float:
    for _ in range(rng.randint(1, 4)):
        rate = math.nextafter(rate, 0.0)
    return rate


def _ordinary(rng):
    phi = rng.uniform(50.0, 5000.0)
    psi = phi * rng.uniform(0.005, 0.5)
    return phi, psi, *_costs(rng), _shares(rng, phi, psi)


def _near_degenerate(rng):
    phi, psi = _nine_decades(rng)
    ratio = _log_uniform(rng, -12.0, math.log10(0.5))
    return phi, psi, *_costs(rng), _shares(rng, phi * ratio, psi * ratio, 0.01, 1.0)


def _near_bound(rng):
    phi, psi = _nine_decades(rng)
    _, d2, _, d4 = _shares(rng, phi, psi)
    return phi, psi, *_costs(rng), (phi * (1.0 - _log_uniform(rng, -15.0, -1.0)), d2,
                                    psi * (1.0 - _log_uniform(rng, -15.0, -1.0)), d4)


def _ulps_below_both(rng):
    phi = _log_uniform(rng, -323.0, 308.0)
    psi = phi * rng.uniform(1e-3, 0.9)
    _, d2, _, d4 = _shares(rng, phi, psi)
    return phi, psi, *_costs(rng), (_ulps_below(rng, phi), d2, _ulps_below(rng, psi), d4)


def _small_fraction(rng):
    phi = _log_uniform(rng, -3.0, 6.0)
    psi = phi * _log_uniform(rng, -16.0, -3.0)
    return phi, psi, *_costs(rng), _shares(rng, phi, psi, 0.01, 0.99)


def _tiny_rate(rng):
    eta = _log_uniform(rng, -323.0, -300.0)
    ratio = rng.uniform(0.005, 0.5)
    phi = eta / (1.0 + ratio)
    psi = phi * ratio
    return phi, psi, *_costs(rng), _shares(rng, phi, psi)


def _huge_rate(rng):
    def lower(rate):
        return _ulps_below(rng, rate) if rng.randint(0, 1) else rate * rng.uniform(1e-6, 0.99)

    phi, psi = _log_uniform(rng, -323.0, 308.0), _log_uniform(rng, -323.0, 308.0)
    return phi, psi, *_costs(rng), (lower(phi), phi * _log_uniform(rng, -3.0, 15.0),
                                    lower(psi), psi * _log_uniform(rng, -3.0, 15.0))


def _relaxed_huge_upper(rng):
    phi, psi = _nine_decades(rng)
    d1, d2, d3, _ = _shares(rng, phi, psi)
    return phi, psi, *_costs(rng), (d1, d2, d3, psi * _log_uniform(rng, 0.0, 15.0))


def _lopsided(rng):
    # a spread that overflows is out of the domain and drawn again
    def spread(rate, top):
        return log_uniform_share(rng, rate, -330.0, top)

    phi, psi = _log_uniform(rng, -300.0, 300.0), _log_uniform(rng, -300.0, 300.0)
    bound = math.log10(0.999)
    upper = 15.0 if rng.randint(0, 1) else bound
    return phi, psi, *_costs(rng), (spread(phi, bound), spread(phi, upper),
                                    spread(psi, bound), spread(psi, upper))


# name: (draw returning phi, psi, h, s and the spreads, relax_bounds, weight in the mix)
FAMILIES = {
    "ordinary": (_ordinary, False, 4),
    "near-degenerate": (_near_degenerate, False, 1),
    "near-bound": (_near_bound, False, 1),
    "ulps-below": (_ulps_below_both, False, 1),
    "small-fraction": (_small_fraction, False, 1),
    "tiny-rate": (_tiny_rate, False, 1),
    "huge-rate": (_huge_rate, True, 1),
    "relaxed-huge-upper": (_relaxed_huge_upper, True, 1),
    "lopsided": (_lopsided, True, 1),
}


def valid_input(rng: random.Random,
                family: str | None = None) -> tuple[CrispParams, FuzzySpreads, bool]:
    """``(params, spreads, relax_bounds)`` drawn from ``family``, or from
    the weighted mix of every family when ``family`` is ``None``."""
    if family is None:
        family = rng.choices(list(FAMILIES), [weight for *_, weight in FAMILIES.values()])[0]
    draw, relax_bounds, _ = FAMILIES[family]
    for _ in range(_TRIES):
        phi, psi, h, s, spreads = draw(rng)
        try:
            params, spreads = CrispParams(phi, psi, h, s), FuzzySpreads(*spreads)
            spreads.validate_against(phi, psi, relax_bounds=relax_bounds)
        except DomainError:
            continue
        if spreads.d6 / (phi + psi) < math.inf:
            return params, spreads, relax_bounds
    raise RuntimeError(f"no valid {family} input in {_TRIES} draws")


def reference_solve(p: CrispParams, spreads: FuzzySpreads, paper_baseline: bool,
                    relax_bounds: bool) -> SolutionRecord:
    """One row solved from the public pieces, in the order a lone solve
    checks them: spreads, lot rule, then the baseline.  Where ``delta`` is
    subnormal, its rounding to the subnormal grid stays out of the lot size
    and cost: they come from 4 delta = 4 phi + (d2 - d1), which is not
    rounded to that grid, and 4 h, which leave the lot size as it is and
    make the cost 4 Z*."""
    d, z = defuzzified_rates(p.phi, p.psi, spreads, relax_bounds=relax_bounds)
    if d >= sys.float_info.min:
        q = optimal_lot_size(p.s, p.h, d, z)
        z_star = lot_cost(q, p.s, p.h, d, z)
    else:
        d4, h4 = 4.0 * p.phi + (spreads.d2 - spreads.d1), 4.0 * p.h
        q = optimal_lot_size(p.s, h4, d4, z)
        z_star = lot_cost(q, p.s, h4, d4, z) / 4.0
    base = crisp_optimal(p)
    if paper_baseline:
        base = truncated_baseline(base)
    rel_q = percent_deviation(q, base.q_star)
    rel_z = percent_deviation(z_star, base.z_star)
    return SolutionRecord(d, z, q, z_star, rel_q, rel_z)
