"""Shared samplers, hypothesis settings, the oracle's evaluation counter and
an empty CLI keep for the test suite; the model inputs come from
``domain.valid_input``."""

from __future__ import annotations

import math
import random
import sys

import pytest
from hypothesis import HealthCheck, assume, settings

from domain import valid_input
import fuzzy_eoq.cli
import fuzzy_eoq.fuzzy
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


@pytest.fixture(autouse=True)
def empty_keep(monkeypatch):
    """No CLI answer kept by an earlier test: a test that patches what a
    command calls sees the command run, whatever argv an earlier test used."""
    monkeypatch.setattr(fuzzy_eoq.cli, "_KEPT", {})


def random_tfn(rng: random.Random) -> TriangularFuzzyNumber:
    """A triangular fuzzy number with its peak in [-500, 500] and side gaps
    well above the rounding floor."""
    peak = rng.uniform(-500.0, 500.0)
    left, right = rng.uniform(1e-3, 250.0), rng.uniform(1e-3, 250.0)
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


def drawn_input(case, family: str | None = None) -> tuple[CrispParams, FuzzySpreads, bool]:
    """``valid_input`` from a hypothesis rng, or an ``@example``'s input as
    written.  Hypothesis may replay a draw that rounds out of the domain on
    every try; that example is rejected, as a filter would reject it."""
    if not isinstance(case, random.Random):
        return case
    try:
        return valid_input(case, family)
    except RuntimeError:
        assume(False)


def rates_and_spreads(p: CrispParams, spreads: FuzzySpreads) -> tuple[float, ...]:
    """The six operands of the leak fraction: phi, psi and d1 to d4."""
    return (p.phi, p.psi, spreads.d1, spreads.d2, spreads.d3, spreads.d4)


def all_normal(values) -> bool:
    """Every value positive, finite and in the normal range: there scaling
    by a power of two moves no rounding."""
    return all(sys.float_info.min <= x < math.inf for x in values)


def count_evaluations(monkeypatch) -> list[int]:
    """Count the integrand evaluations of every oracle quadrature from here
    on: one entry per ``gauss_kronrod`` call."""
    calls = []
    plain = fuzzy_eoq.fuzzy.gauss_kronrod

    def counting(f, a, b, **kwargs):
        calls.append(0)

        def g(x):
            calls[-1] += 1
            return f(x)

        return plain(g, a, b, **kwargs)

    monkeypatch.setattr(fuzzy_eoq.fuzzy, "gauss_kronrod", counting)
    return calls
