"""Tests for the globally adaptive Gauss–Kronrod integrator."""

import math
import time

import pytest

from fuzzy_eoq import DomainError, QuadratureError, gauss_kronrod, quadrature


def counted(f):
    """``f`` wrapped to count its calls in ``.calls``."""

    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


@pytest.mark.parametrize("f, a, b, exact", [
    (lambda x: x**13, 0.0, 1.0, 1.0 / 14.0),
    (lambda x: x**13 - 3.0 * x**6 + 1.0, -1.0, 2.0, 15651.0 / 14.0),
], ids=["monomial", "mixed"])
def test_one_panel_is_exact_to_degree_13(f, a, b, exact):
    # G7 is exact to degree 13 and K15 beyond it, so their difference is
    # rounding and the first panel's 15 evaluations are the whole integration
    g = counted(f)
    got = gauss_kronrod(g, a, b)
    assert got == pytest.approx(exact, rel=1e-14)
    assert g.calls == 15
    # a pass that ends on its first panel returns that panel's estimate
    assert got == quadrature._panel(f, a, b)[0]


def test_constant_and_linear():
    assert gauss_kronrod(lambda x: 7.0, 2.0, 5.0) == pytest.approx(21.0, abs=1e-12)
    assert gauss_kronrod(lambda x: x, 0.0, 10.0) == pytest.approx(50.0, abs=1e-12)


def test_smooth_transcendental():
    got = gauss_kronrod(math.exp, 0.0, 1.0)
    assert abs(got - (math.e - 1.0)) < 1e-12


def test_reciprocal_meets_tolerance():
    got = gauss_kronrod(lambda x: 1.0 / (1.0 + x), 0.0, 1.0)
    assert abs(got - math.log(2.0)) < 1e-12


def test_oscillatory():
    got = gauss_kronrod(math.sin, 0.0, math.pi)
    assert abs(got - 2.0) < 1e-11


def test_degenerate_interval_is_zero():
    assert gauss_kronrod(math.exp, 3.0, 3.0) == 0.0


def test_reversed_bounds_rejected():
    with pytest.raises(DomainError):
        gauss_kronrod(math.exp, 1.0, 0.0)


@pytest.mark.parametrize("a, b, message", [
    (0.0, math.inf, "b must be finite (got inf)"),
    (math.inf, math.inf, "a must be finite (got inf)"),  # not the empty interval's 0.0
    (-math.inf, 0.0, "a must be finite (got -inf)"),
    (-math.inf, math.inf, "a must be finite (got -inf)"),
    (math.nan, 1.0, "a must be finite (got nan)"),
    (0.0, math.nan, "b must be finite (got nan)"),
])
def test_non_finite_bound_named(a, b, message):
    def f(x):
        raise AssertionError("integrand called")

    with pytest.raises(DomainError) as excinfo:
        gauss_kronrod(f, a, b)
    assert str(excinfo.value) == message


def test_evaluation_budget_exhaustion_raises(monkeypatch):
    # Around a jump the error shrinks only with the width of the panel
    # holding it, so a small budget must fail loudly instead of lying.
    monkeypatch.setattr(quadrature, "EVALUATION_BUDGET", 100)
    step = lambda x: 0.0 if x < 1.0 / 3.0 else 1.0
    with pytest.raises(QuadratureError, match="budget of 100 integrand evaluations"):
        gauss_kronrod(step, 0.0, 1.0)


def test_a_budget_spent_to_the_last_evaluation_suffices(monkeypatch):
    # |x - 1/2| takes one open panel and one split: 15 + 2 * 15 = 45 evaluations
    kink = lambda x: abs(x - 0.5)
    monkeypatch.setattr(quadrature, "EVALUATION_BUDGET", 45)
    assert gauss_kronrod(kink, 0.0, 1.0) == 0.25
    monkeypatch.setattr(quadrature, "EVALUATION_BUDGET", 44)
    with pytest.raises(QuadratureError, match="budget of 44 integrand evaluations"):
        gauss_kronrod(kink, 0.0, 1.0)


def test_step_function_converges_with_default_budget():
    # With the full budget the panel holding the jump shrinks until its
    # error is within tolerance.
    step = lambda x: 0.0 if x < 1.0 / 3.0 else 1.0
    assert abs(gauss_kronrod(step, 0.0, 1.0) - 2.0 / 3.0) < 1e-12


def test_nan_integrand_raises_instead_of_propagating():
    bad = lambda x: float("nan") if 0.4 < x < 0.6 else 1.0
    with pytest.raises(QuadratureError):
        gauss_kronrod(bad, 0.0, 1.0)


def test_loose_tolerance_is_honored():
    # the first panel's error, about 6.7e-10, is far above rounding but
    # within the tolerance: the pass stops on it, with that panel's estimate
    f = lambda x: 1.0 / (1.0 + x * x)
    estimate, err = quadrature._panel(f, 0.0, 1.0)
    assert quadrature._ROUNDING * estimate < err <= 1e-6
    g = counted(f)
    got = gauss_kronrod(g, 0.0, 1.0, tol=1e-6)
    assert got == estimate
    assert g.calls == 15
    assert abs(got - math.pi / 4.0) < 1e-6


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_negative_or_nan_tolerance_rejected(tol):
    with pytest.raises(DomainError, match="tol must be non-negative"):
        gauss_kronrod(math.exp, 0.0, 1.0, tol=tol)


@pytest.mark.parametrize("f, a, b, match", [
    (lambda x: 1.0 / math.sqrt(1.0 - x), 0.0, 1.0, "cannot be halved"),
    (lambda x: 1.0 / math.sqrt(x - 1.0), 1.0, 2.0, "cannot be halved"),
    (lambda x: 1.0 / math.sqrt(x - 1.0), 1.0, 1.0000000000000004, "too narrow"),
], ids=["pole-at-b", "pole-at-a", "few-ulps"])
def test_pole_next_to_one_never_evaluated_at_an_end(f, a, b, match):
    # near 1 the float spacing is 1.1e-16, so the outer nodes of a panel
    # about 1e-14 wide would round onto the end; such a panel is not
    # halved, an [a, b] that narrow is not integrated at all, and the
    # tolerance is reported as not reached
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    with pytest.raises(QuadratureError, match=match):
        gauss_kronrod(g, a, b)
    assert a not in seen and b not in seen


def test_large_integrand_stops_relative_to_its_size():
    # The absolute stop is met well below 1e-12 of the integral, because
    # a panel whose error is within 64 ulps of its estimate closes: in an
    # integrand near 1e12 that is every panel, at once.
    f = counted(lambda x: 1e12 * math.exp(x))
    got = gauss_kronrod(f, 0.0, 1.0)
    assert abs(got - 1e12 * (math.e - 1.0)) <= 1e-12 * got
    assert f.calls < 1000


@pytest.mark.parametrize("f", [
    lambda x: 0.0 if x < 1.0 / 3.0 else 1.0,
    lambda x: float("nan") if 0.4 < x < 0.6 else 1.0,
    lambda x: float("nan"),
    lambda x: float("inf") if x == 0.25 else 1.0,
    lambda x: math.sin(1e6 * x),
    lambda x: 1e300 * math.sin(1e6 * x),
    lambda x: 1.0 / math.sqrt(x) if x > 0.0 else 0.0,
], ids=["step", "nan-patch", "nan", "inf-point", "oscillating", "huge-oscillating", "pole"])
def test_every_integrand_ends_within_budget(f):
    f = counted(f)
    start = time.perf_counter()
    try:
        gauss_kronrod(f, 0.0, 1.0)
    except QuadratureError:
        pass
    assert f.calls <= quadrature.EVALUATION_BUDGET
    assert time.perf_counter() - start < 1.0
