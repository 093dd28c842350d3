"""Shared samplers and hypothesis settings for the test suite."""

from __future__ import annotations

import random

from hypothesis import HealthCheck, settings

from fuzzy_eoq import CrispParams, FuzzySpreads, TriangularFuzzyNumber

# based on the default profile, so that where CI is set the ci profile's
# derandomize=True is not inherited and every run draws fresh examples;
# a failing draw prints the blob that reproduces it
settings.register_profile(
    "package",
    parent=settings.get_profile("default"),
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("package")


def random_tfn(rng: random.Random, lo: float = -500.0, hi: float = 500.0) -> TriangularFuzzyNumber:
    """A triangular fuzzy number with peaks in [lo, hi] and side gaps
    well above the rounding floor."""
    peak = rng.uniform(lo, hi)
    left = rng.uniform(1e-3, 0.25 * (hi - lo))
    right = rng.uniform(1e-3, 0.25 * (hi - lo))
    return TriangularFuzzyNumber(peak - left, peak, peak + right)


def random_dyadic_tfn(rng: random.Random) -> TriangularFuzzyNumber:
    """An integer-valued triangular fuzzy number.

    Integers up to ~1e6 and dyadic membership levels evaluate exactly in
    binary64, which is what the exact-equality cut identities need.
    """
    base = rng.randint(-10**6, 10**6)
    left_gap = rng.randint(1, 1000)
    right_gap = rng.randint(1, 1000)
    return TriangularFuzzyNumber(
        float(base), float(base + left_gap), float(base + left_gap + right_gap)
    )


def random_dyadic_alpha(rng: random.Random) -> float:
    return rng.randint(0, 1024) / 1024.0


def random_params(rng: random.Random) -> CrispParams:
    """Crisp parameters with the leakage a 0.5%..50% share of demand."""
    phi = rng.uniform(50.0, 5000.0)
    return CrispParams(
        phi=phi,
        psi=phi * rng.uniform(0.005, 0.5),
        h=rng.uniform(0.5, 50.0),
        s=rng.uniform(5.0, 2000.0),
    )


def random_spreads(rng: random.Random, phi: float, psi: float) -> FuzzySpreads:
    """Valid spreads for the given rates (1%..95% of each rate)."""
    return FuzzySpreads(
        d1=phi * rng.uniform(0.01, 0.95),
        d2=phi * rng.uniform(0.01, 0.95),
        d3=psi * rng.uniform(0.01, 0.95),
        d4=psi * rng.uniform(0.01, 0.95),
    )
