"""Tests for triangular fuzzy numbers, alpha-cuts, and signed distance."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzy_eoq import (
    DomainError,
    Interval,
    TriangularFuzzyNumber,
    signed_distance_quadrature,
)
from fuzzy_eoq.fuzzy import _value_type

from conftest import random_dyadic_alpha, random_dyadic_tfn, random_tfn


# the conftest samplers, drawn through hypothesis so a failure shrinks and replays
tfns = st.randoms(use_true_random=False).map(random_tfn)
dyadic_tfns = st.randoms(use_true_random=False).map(random_dyadic_tfn)
dyadic_alphas = st.randoms(use_true_random=False).map(random_dyadic_alpha)


class TestConstruction:
    def test_value_type_refuses_a_field_default(self):
        # the generated __init__ asks for every field, so a default would be dropped
        class WithDefault:
            x: float = 0.0

        with pytest.raises(TypeError, match="take no default"):
            _value_type(WithDefault)

    def test_strict_ordering_accepted(self):
        b = TriangularFuzzyNumber(1.0, 2.0, 4.0)
        assert (b.beta1, b.beta2, b.beta3) == (1.0, 2.0, 4.0)

    def test_point_accepted(self):
        b = TriangularFuzzyNumber(3.0, 3.0, 3.0)
        assert b.alpha_cut(0.0) == b.alpha_cut(1.0) == Interval(3.0, 3.0)

    @pytest.mark.parametrize("triple, half_cut", [
        ((1.0, 1.0, 2.0), Interval(1.0, 1.5)),
        ((1.0, 2.0, 2.0), Interval(1.5, 2.0)),
    ])
    def test_collapsed_flank_accepted(self, triple, half_cut):
        b = TriangularFuzzyNumber(*triple)
        assert b.alpha_cut(0.0) == Interval(1.0, 2.0)
        assert b.alpha_cut(0.5) == half_cut
        assert b.alpha_cut(1.0) == Interval(b.beta2, b.beta2)

    @pytest.mark.parametrize(
        "triple",
        [(2.0, 1.0, 3.0), (1.0, 3.0, 2.0), (2.0, 2.0, 1.0), (2.0, 1.0, 1.0), (3.0, 2.0, 1.0)],
    )
    def test_partial_or_reversed_ordering_rejected(self, triple):
        message = re.escape(f"beta1 <= beta2 <= beta3 violated (got {triple!r})")
        with pytest.raises(DomainError, match=f"^{message}$"):
            TriangularFuzzyNumber(*triple)

    def test_non_finite_rejected(self):
        # nan and +-inf in each position of an ordered triple
        for position in range(3):
            for bad in (math.nan, math.inf, -math.inf):
                triple = [1.0, 2.0, 3.0]
                triple[position] = bad
                message = rf"^beta{position + 1} must be finite \(got {bad!r}\)$"
                with pytest.raises(DomainError, match=message):
                    TriangularFuzzyNumber(*triple)
        # the first non-finite parameter is named, before the ordering is checked
        with pytest.raises(DomainError, match=r"^beta2 must be finite \(got nan\)$"):
            TriangularFuzzyNumber(3.0, math.nan, -math.inf)
        with pytest.raises(DomainError, match=r"^beta3 must be finite \(got inf\)$"):
            TriangularFuzzyNumber(3.0, 2.0, math.inf)


class TestAlphaCut:
    def test_worked_levels(self):
        b = TriangularFuzzyNumber(500.0, 600.0, 700.0)
        assert b.alpha_cut(0.0) == Interval(500.0, 700.0)
        assert b.alpha_cut(0.5) == Interval(550.0, 650.0)
        assert b.alpha_cut(1.0) == Interval(600.0, 600.0)

    def test_upper_end_does_not_cancel(self):
        # beta3 - (beta3 - beta2) a gave 16.0 here
        b = TriangularFuzzyNumber(0.0, 1.0, 1e17)
        assert b.alpha_cut(1.0 - 2.0**-53).hi == 12.102230246251565

    def test_lower_end_capped_at_the_peak(self):
        # beta2 - beta1 rounds up by more than an ulp of beta2, so
        # beta1 + (beta2 - beta1) overshoots beta2 at a = 1
        b = TriangularFuzzyNumber(-31.344, 7.243, 8.0)
        assert b.beta1 + (b.beta2 - b.beta1) > b.beta2
        assert b.alpha_cut(1.0) == Interval(7.243, 7.243)

    @pytest.mark.parametrize("b, a, cut", [
        # beta2 - beta1 overflows: the lower end was beta2 at a = 1/4 and nan at a = 0
        ((-1.7e308, 1.7e308, 1.7e308), 0.25, (-8.5e307, 1.7e308)),
        ((-1.7e308, 1.7e308, 1.7e308), 0.0, (-1.7e308, 1.7e308)),
        ((-1.7e308, 1.7e308, 1.7e308), 1.0, (1.7e308, 1.7e308)),
        # beta3 - beta2 overflows: the upper end was nan at every level
        ((-1.7e308, -1.7e308, 1.7e308), 0.0, (-1.7e308, 1.7e308)),
        ((-1.7e308, -1.7e308, 1.7e308), 0.5, (-1.7e308, 0.0)),
        ((-1.7e308, -1.7e308, 1.7e308), 1.0, (-1.7e308, -1.7e308)),
    ])
    def test_ends_where_a_flank_width_overflows(self, b, a, cut):
        assert TriangularFuzzyNumber(*b).alpha_cut(a) == Interval(*cut)

    LEVEL_ERRORS = {
        -0.1: r"^0 <= alpha <= 1 violated \(got -0\.1\)$",
        1.1: r"^0 <= alpha <= 1 violated \(got 1\.1\)$",
    }

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_out_of_range_level_rejected(self, bad):
        b = TriangularFuzzyNumber(1.0, 2.0, 4.0)
        message = self.LEVEL_ERRORS.get(bad, r"^alpha must be finite \(got nan\)$")
        with pytest.raises(DomainError, match=message):
            b.alpha_cut(bad)

    @given(dyadic_tfns, dyadic_alphas, dyadic_alphas)
    def test_monotone_nesting_exact(self, b, a1, a2):
        # exact in binary64 on integer parameters and dyadic levels
        lo_level, hi_level = min(a1, a2), max(a1, a2)
        inner = b.alpha_cut(hi_level)
        outer = b.alpha_cut(lo_level)
        assert outer.lo <= inner.lo <= inner.hi <= outer.hi

    @given(dyadic_tfns, dyadic_alphas)
    def test_cut_endpoints_have_that_membership(self, b, a):
        # each end sits on its flank at height a: exact in this regime
        cut = b.alpha_cut(a)
        assert (cut.lo - b.beta1) / (b.beta2 - b.beta1) == a
        assert (b.beta3 - cut.hi) / (b.beta3 - b.beta2) == a


class TestIntervalOps:
    def test_invalid_interval_rejected(self):
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
        with pytest.raises(DomainError):
            Interval(math.nan, 1.0)

    def test_containment(self):
        p = Interval(1.0, 3.0)
        assert 1.0 in p and 2.0 in p and 3.0 in p
        assert 0.999 not in p and 3.001 not in p

    def test_add_sub(self):
        assert Interval(1.0, 2.0) + Interval(3.0, 4.0) == Interval(4.0, 6.0)
        assert Interval(1.0, 2.0) - Interval(3.0, 4.0) == Interval(-3.0, -1.0)

    def test_scale(self):
        p = Interval(1.0, 3.0)
        assert p.scale(2.0) == Interval(2.0, 6.0)
        assert p.scale(-2.0) == Interval(-6.0, -2.0)
        assert p.scale(0.0) == Interval(0.0, 0.0)

    def test_mul_positive(self):
        assert Interval(1.0, 2.0) * Interval(3.0, 4.0) == Interval(3.0, 8.0)

    def test_div_positive(self):
        assert Interval(1.0, 2.0) / Interval(4.0, 5.0) == Interval(0.2, 0.5)

    @pytest.mark.parametrize(
        "p, q",
        [
            (Interval(0.0, 2.0), Interval(3.0, 4.0)),
            (Interval(1.0, 2.0), Interval(0.0, 4.0)),
            (Interval(-1.0, 2.0), Interval(3.0, 4.0)),
        ],
    )
    def test_mul_div_require_positive_lo(self, p, q):
        with pytest.raises(DomainError):
            p * q
        with pytest.raises(DomainError):
            p / q

    @given(
        st.floats(-100, 100, allow_nan=False), st.floats(0, 50, allow_nan=False),
        st.floats(-100, 100, allow_nan=False), st.floats(0, 50, allow_nan=False),
        st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False),
    )
    def test_add_sub_soundness_sampled(self, lo1, w1, lo2, w2, u, v):
        p = Interval(lo1, lo1 + w1)
        q = Interval(lo2, lo2 + w2)
        x = p.lo + u * (p.hi - p.lo)
        y = q.lo + v * (q.hi - q.lo)
        if x in p and y in q:
            assert (x + y) in (p + q)
            assert (x - y) in (p - q)

    @given(
        st.floats(0.001, 100, allow_nan=False), st.floats(0, 50, allow_nan=False),
        st.floats(0.001, 100, allow_nan=False), st.floats(0, 50, allow_nan=False),
        st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False),
    )
    def test_mul_div_soundness_sampled(self, lo1, w1, lo2, w2, u, v):
        p = Interval(lo1, lo1 + w1)
        q = Interval(lo2, lo2 + w2)
        x = p.lo + u * (p.hi - p.lo)
        y = q.lo + v * (q.hi - q.lo)
        if x in p and y in q:
            assert (x * y) in (p * q)
            assert (x / y) in (p / q)


class TestTfnArithmetic:
    def test_add_componentwise(self):
        a = TriangularFuzzyNumber(500.0, 600.0, 700.0)
        b = TriangularFuzzyNumber(9.0, 10.0, 11.0)
        assert a + b == TriangularFuzzyNumber(509.0, 610.0, 711.0)

    def test_sub_crosswise(self):
        a = TriangularFuzzyNumber(5.0, 7.0, 9.0)
        b = TriangularFuzzyNumber(1.0, 2.0, 3.0)
        assert a - b == TriangularFuzzyNumber(2.0, 5.0, 8.0)

    def test_scale_cases(self):
        b = TriangularFuzzyNumber(1.0, 2.0, 4.0)
        assert b.scale(2.0) == TriangularFuzzyNumber(2.0, 4.0, 8.0)
        assert b.scale(-1.0) == TriangularFuzzyNumber(-4.0, -2.0, -1.0)
        assert b.scale(0.0) == TriangularFuzzyNumber(0.0, 0.0, 0.0)

    def test_zero_point_is_additive_identity(self):
        b = TriangularFuzzyNumber(1.0, 2.0, 4.0)
        assert b + TriangularFuzzyNumber(0.0, 0.0, 0.0) == b

    @given(dyadic_tfns, dyadic_tfns, dyadic_alphas)
    def test_add_cut_homomorphism_exact(self, a, b, alpha):
        # cut(a + b) == cut(a) + cut(b), bitwise, in the exact regime
        assert (a + b).alpha_cut(alpha) == a.alpha_cut(alpha) + b.alpha_cut(alpha)

    @given(dyadic_tfns, dyadic_tfns, dyadic_alphas)
    def test_sub_cut_homomorphism_exact(self, a, b, alpha):
        assert (a - b).alpha_cut(alpha) == a.alpha_cut(alpha) - b.alpha_cut(alpha)

    @given(dyadic_tfns, st.integers(-64, 64), dyadic_alphas)
    def test_scale_cut_homomorphism_exact(self, b, k, alpha):
        scaled = b.scale(float(k))
        cut = b.alpha_cut(alpha)
        assert scaled.alpha_cut(alpha) == cut.scale(float(k))


class TestSignedDistance:
    def test_closed_form_values(self):
        assert TriangularFuzzyNumber(500.0, 600.0, 700.0).signed_distance() == 600.0
        assert TriangularFuzzyNumber(1.0, 2.0, 3.0).signed_distance() == 2.0
        assert TriangularFuzzyNumber(1.0, 2.0, 4.0).signed_distance() == 2.25
        assert TriangularFuzzyNumber(5.0, 5.0, 5.0).signed_distance() == 5.0

    @pytest.mark.parametrize("triple", [(1e308, 1.5e308, 1.7e308), (-1.7e308, -1.5e308, -1e308),
                                        (1.7e308, 1.7e308, 1.7e308)])
    def test_finite_where_the_sum_overflows(self, triple):
        # b1 + 2 b2 + b3 overflows; the quarter is the exact value, rounded once
        exact = (Fraction(triple[0]) + 2 * Fraction(triple[1]) + Fraction(triple[2])) / 4
        assert TriangularFuzzyNumber(*triple).signed_distance() == float(exact)

    @pytest.mark.parametrize("triple", [(5e-324, 5e-324, 1e-323), (1e-323, 1.5e-323, 2.5e-323),
                                        (-1.0, 0.1, 0.7), (1e307, 2e307, 4e307)])
    def test_same_bits_where_the_sum_is_finite(self, triple):
        # the sum quartered, as ever: quartering each term first would lose
        # subnormal bits ((5e-324, 5e-324, 1e-323) would give 0.0)
        b1, b2, b3 = triple
        assert TriangularFuzzyNumber(*triple).signed_distance() == (b1 + 2.0 * b2 + b3) / 4.0

    def test_quadrature_route_matches_on_examples(self):
        for triple in [(1.0, 2.0, 3.0), (1.0, 2.0, 4.0), (-3.0, 0.5, 10.0)]:
            b = TriangularFuzzyNumber(*triple)
            got = signed_distance_quadrature(
                lambda a: b.alpha_cut(a).lo, lambda a: b.alpha_cut(a).hi
            )
            assert abs(got - b.signed_distance()) < 1e-10

    def test_quadrature_on_constant_cuts(self):
        got = signed_distance_quadrature(lambda a: 5.0, lambda a: 5.0)
        assert abs(got - 5.0) < 1e-12

    @given(tfns)
    def test_quadrature_agrees_everywhere(self, b):
        got = signed_distance_quadrature(
            lambda a: b.alpha_cut(a).lo, lambda a: b.alpha_cut(a).hi
        )
        assert abs(got - b.signed_distance()) < 1e-9

    @given(tfns, tfns)
    def test_linear_under_add(self, a, b):
        lhs = (a + b).signed_distance()
        rhs = a.signed_distance() + b.signed_distance()
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)

    @given(tfns, tfns)
    def test_linear_under_sub(self, a, b):
        lhs = (a - b).signed_distance()
        rhs = a.signed_distance() - b.signed_distance()
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)

    @given(
        tfns,
        st.one_of(st.just(0.0), st.floats(1e-6, 8), st.floats(-8, -1e-6)),
    )
    def test_linear_under_scale(self, b, k):
        # |k| stays above the underflow regime where scaled parameters
        # would collapse together
        lhs = b.scale(k).signed_distance()
        rhs = k * b.signed_distance()
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)
