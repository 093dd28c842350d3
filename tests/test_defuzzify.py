"""Tests for the defuzzified demand and leakage-fraction quantities."""

import math
import random
import re
import sys
from dataclasses import astuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fuzzy_eoq.fuzzy
from fuzzy_eoq import (
    CrispParams,
    DomainError,
    FuzzySpreads,
    TriangularFuzzyNumber,
    defuzzified_rates,
    demand_fuzzy,
    fuzzy_optimal,
    leakage_fuzzy,
    zeta,
    zeta_quadrature,
)
from fuzzy_eoq.defuzzify import _leak_fraction
from fuzzy_eoq.quadrature import DEFAULT_TOL
from fuzzy_eoq.sensitivity import load_reference_table

import reference
from conftest import all_normal, count_evaluations, drawn_input, rates_and_spreads
from domain import FAMILIES, log_uniform_share, valid_input

# frozen from a high-precision evaluation of the antiderivative
ZETA_100_100_1_1 = 0.01663775852707594
ZETA_150_200_1_1 = 0.01665802942376451
ZETA_NEAR_CRISP = 0.01639344262296175
PSI_OVER_ETA = 0.01639344262295082

RNGS = st.randoms(use_true_random=False)
# a result below the normal range keeps no relative precision; the oracle's
# panel sums are each rounded to the subnormal spacing 2**-1074
SUBNORMAL_SLACK = 64 * 2.0**-1074


def leak_fraction_cuts(phi, psi, spreads, *, relax_bounds=False):
    """The leak fraction's alpha-cut as a function of the level, as the
    paper defines it: ``Interval`` division of the operands' cuts.  The
    operands are built from ``_leak_fraction``'s triples, so the oracle's
    input checks hold here too."""
    num, den = _leak_fraction(phi, psi, spreads, relax_bounds)
    num, den = TriangularFuzzyNumber(*num), TriangularFuzzyNumber(*den)
    return lambda a: num.alpha_cut(a) / den.alpha_cut(a)


# The oracle's largest cut end is (phi + d2) + (psi + d4).  On FORWARD_EDGE
# it overflows while (phi + psi) + (d2 + d4) does not: zeta and the solve
# returned values while the oracle raised "beta3 must be finite".  On
# REVERSE_EDGE only (phi + psi) + (d2 + d4) overflows, and every route
# rejected an input that both zeta routes evaluate to 1.1691318070078538.
FORWARD_EDGE = (6.944734121350037e+306, 9.500246318569825e+307,
                FuzzySpreads(6.8893123283304e+306, 5.596106290158956e+307,
                             6.267241213306131e+307, 2.1861053277593728e+307))
REVERSE_EDGE = (2.759687991538873e+307, 3.290291951548212e+307,
                FuzzySpreads(1.3798439957694365e+307, 1.3896026207872683e+307,
                             1.645145975774106e+307, 1.0537348784748804e+308))


class TestSpreads:
    def test_positivity_enforced(self):
        for bad in ("d1", "d2", "d3", "d4"):
            kwargs = {"d1": 1.0, "d2": 1.0, "d3": 1.0, "d4": 1.0, bad: 0.0}
            with pytest.raises(DomainError, match=f"{bad} > 0"):
                FuzzySpreads(**kwargs)

    def test_combined_spreads(self):
        sp = FuzzySpreads(100.0, 200.0, 1.0, 2.0)
        assert sp.d5 == 101.0
        assert sp.d6 == 202.0

    def test_bounds_against_rates(self):
        sp = FuzzySpreads(100.0, 100.0, 1.0, 1.0)
        sp.validate_against(600.0, 10.0)
        with pytest.raises(DomainError, match="d1 < phi"):
            FuzzySpreads(700.0, 100.0, 1.0, 1.0).validate_against(600.0, 10.0)
        with pytest.raises(DomainError, match="d3 < psi"):
            FuzzySpreads(100.0, 100.0, 15.0, 1.0).validate_against(600.0, 10.0)

    def test_relax_bounds_lifts_only_upper_spreads(self):
        high_up = FuzzySpreads(100.0, 900.0, 1.0, 12.0)
        with pytest.raises(DomainError, match="d2 < phi"):
            high_up.validate_against(600.0, 10.0)
        high_up.validate_against(600.0, 10.0, relax_bounds=True)
        low_down = FuzzySpreads(100.0, 100.0, 15.0, 1.0)
        with pytest.raises(DomainError, match="d3 < psi"):
            low_down.validate_against(600.0, 10.0, relax_bounds=True)

    @pytest.mark.parametrize("relax", [False, True], ids=["strict", "relaxed"])
    @pytest.mark.parametrize("name, rate", [("d1", "phi"), ("d2", "phi"), ("d3", "psi"),
                                            ("d4", "psi")])
    def test_a_spread_equal_to_its_rate(self, name, rate, relax):
        # d1 == phi and d3 == psi are always rejected, d2 == phi and d4 == psi
        # unless the upper bounds are relaxed
        rates = {"phi": 600.0, "psi": 10.0}
        sp = FuzzySpreads(**{"d1": 1.0, "d2": 1.0, "d3": 1.0, "d4": 1.0, name: rates[rate]})
        if relax and name in ("d2", "d4"):
            sp.validate_against(600.0, 10.0, relax_bounds=True)
            return
        value = rates[rate]
        with pytest.raises(DomainError, match=re.escape(
                f"{name} < {rate} violated ({name}={value!r}, {rate}={value!r})")):
            sp.validate_against(600.0, 10.0, relax_bounds=relax)

    def test_fuzzy_rate_constructors(self):
        sp = FuzzySpreads(100.0, 100.0, 1.0, 1.0)
        assert demand_fuzzy(600.0, sp).signed_distance() == 600.0
        assert leakage_fuzzy(10.0, sp).signed_distance() == 10.0

    def test_spread_below_an_ulp_of_its_rate(self):
        # psi - d3 rounds to psi: the fuzzy leakage has a collapsed lower
        # flank, and the oracle built from it still solves the row
        sp = FuzzySpreads(100.0, 100.0, 1e-17, 1.0)
        assert leakage_fuzzy(10.0, sp) == TriangularFuzzyNumber(10.0, 10.0, 11.0)
        assert zeta(600.0, 10.0, sp) == 0.01699820800965739
        assert _rel(zeta_quadrature(600.0, 10.0, sp), zeta(600.0, 10.0, sp)) <= 1e-12


def _delta(spreads):
    """delta at the reference rates phi = 600, psi = 10."""
    return defuzzified_rates(600.0, 10.0, spreads)[0]


class TestDelta:
    def test_reference_blocks(self):
        assert _delta(FuzzySpreads(100, 100, 1, 1)) == 600.0
        assert _delta(FuzzySpreads(150, 200, 1, 1)) == 612.5
        assert _delta(FuzzySpreads(200, 300, 1, 1)) == 625.0

    def test_equals_signed_distance_of_fuzzy_demand(self):
        sp = FuzzySpreads(150.0, 200.0, 1.0, 1.0)
        assert _delta(sp) == demand_fuzzy(600.0, sp).signed_distance()

    def test_bound_violation_raises(self):
        with pytest.raises(DomainError, match="d1 < phi"):
            _delta(FuzzySpreads(700.0, 100.0, 1.0, 1.0))


class TestZetaRoutes:
    def test_closed_form_frozen_values(self):
        got = zeta(600.0, 10.0, FuzzySpreads(100, 100, 1, 1))
        assert math.isclose(got, ZETA_100_100_1_1, rel_tol=1e-12)
        got = zeta(600.0, 10.0, FuzzySpreads(150, 200, 1, 1))
        assert math.isclose(got, ZETA_150_200_1_1, rel_tol=1e-12)

    def test_quadrature_frozen_values(self):
        got = zeta_quadrature(600.0, 10.0, FuzzySpreads(100, 100, 1, 1))
        assert math.isclose(got, ZETA_100_100_1_1, rel_tol=1e-10)

    def test_routes_agree_on_reference_rows(self):
        for row in load_reference_table():
            closed = zeta(600.0, 10.0, row.spreads)
            quad = zeta_quadrature(600.0, 10.0, row.spreads)
            assert math.isclose(closed, quad, rel_tol=1e-12)

    @given(RNGS)
    def test_positive_within_cut_hull(self, rng):
        # the upper cut is at least psi / eta, so zeta is at least half of it,
        # and the mean of the cut midpoints cannot leave the level-0 hull
        p, spreads, relax = drawn_input(rng)
        hull = leak_fraction_cuts(p.phi, p.psi, spreads, relax_bounds=relax)(0.0)
        value = zeta(p.phi, p.psi, spreads, relax_bounds=relax)
        assert value > 0.0 or p.psi / (p.phi + p.psi) < 2.0 * sys.float_info.min
        assert hull.lo - 1e-12 <= value <= hull.hi + 1e-12

    def test_cut_ordering_and_peak(self):
        cut = leak_fraction_cuts(600.0, 10.0, FuzzySpreads(100, 100, 7, 6))
        for k in range(11):
            a = k / 10.0
            assert cut(a).lo <= cut(a).hi + 1e-15
        assert math.isclose(cut(1.0).lo, 10.0 / 610.0, rel_tol=1e-12)
        assert math.isclose(cut(1.0).hi, 10.0 / 610.0, rel_tol=1e-12)

    def test_near_crisp_limit_approaches_fraction(self):
        sp = FuzzySpreads(6e-4, 6e-4, 1e-5, 1e-5)
        got = zeta(600.0, 10.0, sp)
        assert math.isclose(got, ZETA_NEAR_CRISP, rel_tol=1e-9)
        assert abs(got - PSI_OVER_ETA) < 1e-6

    def test_bound_violation_raises(self):
        with pytest.raises(DomainError, match="d3 < psi"):
            zeta(600.0, 10.0, FuzzySpreads(100.0, 100.0, 15.0, 1.0))
        with pytest.raises(DomainError, match="d4 < psi"):
            zeta_quadrature(600.0, 10.0, FuzzySpreads(100.0, 100.0, 1.0, 15.0))

    def test_relax_bounds_passthrough(self):
        sp = FuzzySpreads(100.0, 100.0, 1.0, 15.0)
        closed = zeta(600.0, 10.0, sp, relax_bounds=True)
        quad = zeta_quadrature(600.0, 10.0, sp, relax_bounds=True)
        assert math.isclose(closed, quad, rel_tol=1e-8)
        assert closed > 0.0


def _rel(got, want):
    return abs(got - want) / abs(want)


class TestOracle:
    """The quadrature oracle matches the closed form within 1e-12 on every
    family of ``tests/domain.py``."""

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=300)
    @given(case=RNGS)
    # a small leak fraction: the oracle's stop was absolute and left 1.0e-12
    @example(case=(CrispParams(1.0, 0.001, 1.0, 1.0),
                   FuzzySpreads(0.025, 0.0859375, 1.25e-05, 0.0001), False))
    # printed 4.7e-5 apart by the CLI while the oracle's stop was absolute
    @example(case=(CrispParams(1.0, 1e-10, 1.0, 1.0), FuzzySpreads(0.5, 0.5, 5e-11, 5e-11), False))
    # a recursive Simpson stop relative to M, not M / 2, left these
    # 1.07e-12 and 1.09e-12 off
    @example(case=(CrispParams(1.0, 0.5, 1.0, 1.0),
                   FuzzySpreads(0.01, 0.5, 0.005859375, 8891397050.194614), True))
    @example(case=(CrispParams(1.0, 0.0078125, 1.0, 1.0),
                   FuzzySpreads(0.01, 0.5, 0.0009765625, 138928078.90929085), True))
    # rates at both ends of the binary64 range, where squaring a spread or
    # multiplying a rate by a spread under- or overflows
    @example(case=(CrispParams(1e-300, 1e-300, 1.0, 1.0),
                   FuzzySpreads(1e-301, 1e-301, 1e-301, 1e-301), False))
    @example(case=(CrispParams(1e300, 1e300, 1.0, 1.0),
                   FuzzySpreads(5e299, 5e299, 5e299, 5e299), False))
    @example(case=(CrispParams(1e308, 1e307, 1.0, 1.0),
                   FuzzySpreads(5e307, 5e307, 5e306, 5e306), False))
    # d2 1e11 times phi: the lower cut's spike of width eta/d6 at a = 1 fell
    # between the nodes, and the oracle was 1.6e-10 off
    @example(case=(CrispParams(600.0, 10.0, 10.0, 100.0),
                   FuzzySpreads(100.0, 6e13, 1.0, 1.0), True))
    # the oracle's largest cut end is finite, (phi + psi) + (d2 + d4) is not:
    # once rejected by every route
    @example(case=(CrispParams(*REVERSE_EDGE[:2], 1.0, 1.0), REVERSE_EDGE[2], True))
    def test_matches_closed_form(self, family, case):
        p, spreads, relax = drawn_input(case, family)
        # a QuadratureError here would be the evaluation budget running out
        got = zeta_quadrature(p.phi, p.psi, spreads, relax_bounds=relax)
        want = zeta(p.phi, p.psi, spreads, relax_bounds=relax)
        assert abs(got - want) <= 1e-12 * want + SUBNORMAL_SLACK


class TestNoCancellation:
    """The closed form keeps full precision where the spreads are tiny
    against the rates; quadrature is the oracle."""

    def test_near_degenerate_spreads_match_quadrature(self):
        # combined spreads below 1e-8 of the combined rate
        sp = FuzzySpreads(3e-6, 100.0, 1e-7, 1.0)
        assert _rel(zeta(600.0, 10.0, sp), zeta_quadrature(600.0, 10.0, sp)) <= 1e-12

    def test_near_degenerate_value_within_cut_hull(self):
        sp = FuzzySpreads(3e-6, 100.0, 1e-7, 1.0)
        got = zeta(600.0, 10.0, sp)
        assert got in leak_fraction_cuts(600.0, 10.0, sp)(0.0)

    @pytest.mark.parametrize("route", [zeta, zeta_quadrature, leak_fraction_cuts])
    def test_overflowing_combined_rate_rejected(self, route):
        # the true fraction is about 0.5; with eta = inf both routes gave 0.0
        with pytest.raises(DomainError, match=r"phi \+ psi must be finite \(got inf\)"):
            route(1e308, 1e308, FuzzySpreads(1.0, 1.0, 1.0, 1.0))


class TestUnderflowingRatios:
    """Where x = d6/eta or y = d5/eta underflows, the closed form keeps each
    spread's term as (d3/eta) h(x) or (d4/eta) h(-y), with h(0) = -1/2.
    Formed as (d3/d6) g(x) or (d4/d5) g(-y), a huge ratio met a g that
    rounded to 0: the term was lost, or inf * 0 made zeta nan."""

    def test_term_of_an_underflowing_x_is_kept(self):
        # x underflows to 0: zeta returned 1.1931471805599455e-300
        phi, psi, sp = 1e300, 1.0, FuzzySpreads(0.5e300, 1e-30, 0.5, 1e-30)
        assert zeta(phi, psi, sp) == 1.0681471805599455e-300
        assert _rel(zeta(phi, psi, sp), zeta_quadrature(phi, psi, sp)) <= 1e-12

    def test_underflow_draws_are_accepted_and_match_the_oracle(self):
        # rates log-uniform in 1e-300..1e300, d1 and d3 a 0.01..0.99 share of
        # theirs, d2 and d4 a log-uniform share down to 1e-330 of theirs: of an
        # earlier 3,000 such draws, 52 were rejected with nan, and 18 more were
        # over 1e-12 off the oracle
        rng = random.Random(5)
        for _ in range(3000):
            phi, psi = 10.0 ** rng.uniform(-300.0, 300.0), 10.0 ** rng.uniform(-300.0, 300.0)
            sp = FuzzySpreads(phi * rng.uniform(0.01, 0.99),
                              log_uniform_share(rng, phi, -330.0, 0.0),
                              psi * rng.uniform(0.01, 0.99),
                              log_uniform_share(rng, psi, -330.0, 0.0))
            got, want = zeta(phi, psi, sp), zeta_quadrature(phi, psi, sp)
            assert abs(got - want) <= 1e-12 * want + SUBNORMAL_SLACK, (phi, psi, sp)


# d1 and d3 one ulp below their rates, at ordinary, tiny, huge and
# subnormal rates; the first is the input whose d1 + d3 rounds to phi + psi
ONE_ULP_BELOW_BOTH_BOUNDS = [
    (phi, psi, FuzzySpreads(
        math.nextafter(phi, 0.0), 0.5 * phi, math.nextafter(psi, 0.0), 0.5 * psi))
    for phi, psi in [(1.0, 1e-16), (600.0, 10.0), (1e-300, 1e-300), (1e300, 1e299),
                     (3.5e-323, 1.5e-323)]
]


class TestNearLowerBounds:
    """Lower spreads next to their bounds d1 < phi and d3 < psi, where
    1 - (d1 + d3) / (phi + psi) cancels, and the lopsided draws; the decimal
    evaluation of ``tests/reference.py`` is the reference."""

    def test_decimal_reference_matches_frozen_values(self):
        assert reference.zeta(600.0, 10.0, FuzzySpreads(100.0, 100.0, 1.0, 1.0)) == ZETA_100_100_1_1
        assert reference.zeta(600.0, 10.0, FuzzySpreads(150.0, 200.0, 1.0, 1.0)) == ZETA_150_200_1_1

    @pytest.mark.parametrize("family", ["near-bound", "ulps-below", "lopsided"])
    @settings(max_examples=300)
    @given(RNGS)
    def test_matches_decimal_reference(self, family, rng):
        p, spreads, relax = drawn_input(rng, family)
        want = reference.zeta(p.phi, p.psi, spreads)
        got = zeta(p.phi, p.psi, spreads, relax_bounds=relax)
        # a subnormal result keeps no relative precision
        assert abs(got - want) <= 1e-14 * want + SUBNORMAL_SLACK

    @pytest.mark.parametrize("phi, psi, spreads", ONE_ULP_BELOW_BOTH_BOUNDS)
    def test_one_ulp_below_both_bounds(self, phi, psi, spreads):
        got = zeta(phi, psi, spreads)
        assert math.isfinite(got)
        assert _rel(got, reference.zeta(phi, psi, spreads)) <= 1e-14

    @pytest.mark.parametrize("phi, psi, spreads", ONE_ULP_BELOW_BOTH_BOUNDS)
    def test_oracle_one_ulp_below_both_bounds(self, phi, psi, spreads):
        # the pole of the upper cut sits an ulp left of a = 0; a local
        # recursion that halves its tolerance per level ran out of
        # bisections on four of these
        assert _rel(zeta_quadrature(phi, psi, spreads), zeta(phi, psi, spreads)) <= 1e-12

    def test_cut_denominator_positive_one_ulp_below_both_bounds(self):
        # d1 + d3 rounds to phi + psi here, so eta - d5 would be 0
        phi, psi, spreads = ONE_ULP_BELOW_BOTH_BOUNDS[0]
        assert spreads.d5 == phi + psi
        hull = leak_fraction_cuts(phi, psi, spreads)(0.0)
        assert math.isfinite(hull.hi) and hull.hi > hull.lo


# every route that checks the rates and spreads against each other
EVERY_ROUTE = [
    zeta, defuzzified_rates, zeta_quadrature, leak_fraction_cuts,
    pytest.param(lambda phi, psi, sp, **kw: sp.validate_against(phi, psi, **kw),
                 id="validate_against"),
    pytest.param(lambda phi, psi, sp, **kw: fuzzy_optimal(CrispParams(phi, psi, 10.0, 100.0),
                                                          sp, **kw), id="fuzzy_optimal"),
]


class TestBoundedQuadrature:
    """The oracle ends in bounded time on every valid input: its stop is
    relative to the size of the cut endpoints, and one evaluation budget
    covers the whole integration."""

    @pytest.mark.parametrize("phi, psi, spreads, relax, low, high", [
        (1.0, 1e-10, FuzzySpreads(0.5, 0.5, 5e-11, 5e-11), False, 1e-11, 1e-9),
        (10.0, 10.0, FuzzySpreads(5.0, 5.0, 5.0, 5.0), False, 0.25, 1.0),
        (600.0, 10.0, FuzzySpreads(1.0, 1.0, 1.0, 1e10), True, 16.0, math.inf),
    ], ids=["psi-1e-10", "half", "relaxed-d4-1e10"])
    def test_stop_is_default_tol_times_endpoint_size(
        self, phi, psi, spreads, relax, low, high, monkeypatch
    ):
        tols = []
        monkeypatch.setattr(fuzzy_eoq.fuzzy, "gauss_kronrod",
                            lambda f, a, b, *, tol: tols.append(tol) or 0.0)
        cut = leak_fraction_cuts(phi, psi, spreads, relax_bounds=relax)
        fuzzy_eoq.fuzzy.signed_distance_quadrature(lambda a: cut(a).lo, lambda a: cut(a).hi)
        # the oracle integrates the flattened cuts, but sizes its stop from the plain ones
        zeta_quadrature(phi, psi, spreads, relax_bounds=relax)
        half = cut(0.5)
        size = 0.5 * (abs(half.lo) + abs(half.hi))
        assert low < size < high
        assert tols == [DEFAULT_TOL * size] * 2

    def test_stop_is_absolute_at_size_zero(self, monkeypatch):
        tols = []
        monkeypatch.setattr(fuzzy_eoq.fuzzy, "gauss_kronrod",
                            lambda f, a, b, *, tol: tols.append(tol) or 0.0)
        fuzzy_eoq.fuzzy.signed_distance_quadrature(lambda a: 0.0, lambda a: 0.0)
        assert tols == [DEFAULT_TOL]

    def test_reference_row_evaluation_counts(self, monkeypatch):
        calls = count_evaluations(monkeypatch)
        for row in load_reference_table():
            zeta_quadrature(600.0, 10.0, row.spreads)
        assert calls == [15] * 18

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_takes_a_few_hundred_evaluations(self, family, monkeypatch):
        # both cut poles are flattened, so no family needs many panels: the
        # most on 10,000 draws of each, over three seeds, was 225
        # (near-bound, ulps-below, huge-rate); the bound leaves a third more
        calls = count_evaluations(monkeypatch)
        rng = random.Random(7)
        for _ in range(500):
            p, spreads, relax = valid_input(rng, family)
            zeta_quadrature(p.phi, p.psi, spreads, relax_bounds=relax)
        assert max(calls) <= 300

    @pytest.mark.parametrize("k", [1e-5, 1e-6, 1e-7])
    def test_lower_spreads_at_the_pole_return_a_value(self, k):
        # d1 and d3 a fraction k below their rates: the upper cut has a
        # pole just left of a = 0, which the oracle flattens; it takes 105
        # evaluations at k = 1e-7
        sp = FuzzySpreads(600.0 * (1.0 - k), 1.0, 10.0 * (1.0 - k), 1.0)
        assert _rel(zeta_quadrature(600.0, 10.0, sp), zeta(600.0, 10.0, sp)) <= 1e-12

    @pytest.mark.parametrize("d4", [1e9, 1e10, 1e11, 1e17, 1e100])
    def test_huge_relaxed_upper_spread_finishes(self, d4, monkeypatch):
        calls = count_evaluations(monkeypatch)
        sp = FuzzySpreads(1.0, 1.0, 1.0, d4)
        got = zeta_quadrature(600.0, 10.0, sp, relax_bounds=True)
        assert _rel(got, zeta(600.0, 10.0, sp, relax_bounds=True)) <= 1e-12
        assert calls == [15]

    def test_pole_at_infinity_is_clamped(self, monkeypatch):
        # upper spreads of 1e-300 make the lower cut's slope round to nothing
        # beside its offset: its pole distance is clamped to 1 / _POLE_FLOOR,
        # where the change of variable is a = u to rounding, and one panel settles
        calls = count_evaluations(monkeypatch)
        sp = FuzzySpreads(0.5, 1e-300, 0.5, 1e-300)
        got = zeta_quadrature(1.0, 1.0, sp)
        assert calls == [15]
        assert abs(got - zeta(1.0, 1.0, sp)) <= 1e-15

    def test_lower_cut_is_the_crisp_fraction_at_the_peak(self):
        # (eta + d6) - d6 * a used to cancel to 0 at a = 1 once d6 swamped eta
        sp = FuzzySpreads(1.0, 1.0, 1.0, 1e100)
        cut = leak_fraction_cuts(600.0, 10.0, sp, relax_bounds=True)
        assert cut(1.0).lo == 10.0 / 610.0
        assert cut(0.0).lo > 0.0 and cut(0.0).hi > cut(0.5).hi

    @pytest.mark.parametrize("route", [zeta_quadrature, leak_fraction_cuts])
    def test_overflowing_cut_denominator_rejected(self, route):
        # eta + d6 overflows; integrating it gave 0.04545 against 0.07779
        sp = FuzzySpreads(1.0, 1e308, 1.0, 1.0)
        with pytest.raises(
            DomainError, match=r"phi \+ psi \+ d2 \+ d4 must be finite \(got inf\)"
        ):
            route(1e308, 1e307, sp, relax_bounds=True)

    @pytest.mark.parametrize("route", EVERY_ROUTE)
    def test_overflowing_upper_spreads_rejected_by_every_route(self, route):
        # d2 + d4 overflows; zeta gave nan (g(inf) is inf/inf) with no error
        sp = FuzzySpreads(0.5, 1e308, 0.5, 1e308)
        with pytest.raises(
            DomainError, match=r"phi \+ psi \+ d2 \+ d4 must be finite \(got inf\)"
        ):
            route(1.0, 1.0, sp, relax_bounds=True)

    @pytest.mark.parametrize("route", EVERY_ROUTE)
    def test_overflowing_cut_end_rejected_by_every_route(self, route):
        # only the oracle's (phi + d2) + (psi + d4) overflows: every route
        # checks that sum, so zeta no longer solves what the oracle rejects
        phi, psi, sp = FORWARD_EDGE
        with pytest.raises(
            DomainError, match=r"^phi \+ psi \+ d2 \+ d4 must be finite \(got inf\)$"
        ):
            route(phi, psi, sp, relax_bounds=True)

    @pytest.mark.parametrize("route", EVERY_ROUTE)
    def test_finite_cut_end_accepted_by_every_route(self, route):
        # (phi + psi) + (d2 + d4) overflows, the oracle's sum does not
        phi, psi, sp = REVERSE_EDGE
        route(phi, psi, sp, relax_bounds=True)

    @pytest.mark.parametrize("route", [zeta, defuzzified_rates])
    def test_overflowing_spread_ratio_rejected(self, route):
        # every sum is finite, but d6/eta and d4/d5 overflow: zeta gave nan
        lower = math.nextafter(1e-300, 0.0)
        sp = FuzzySpreads(lower, 1.0, lower, 1e300)
        with pytest.raises(DomainError, match=r"zeta must be finite \(got nan\)"):
            route(1e-300, 1e-300, sp, relax_bounds=True)


class TestTinyRates:
    """At deep-subnormal rates the oracle scales the rates and spreads up by
    a power of two before building its cuts: unscaled, their coefficients
    are a few multiples of 5e-324 and the integrand is a staircase."""

    def test_staircase_example(self):
        # unscaled, the oracle returned 0.40254 against 0.39832 with no error
        sp = FuzzySpreads(2e-323, 2e-323, 1e-323, 1e-323)
        assert zeta_quadrature(3.5e-323, 1.5e-323, sp) == 0.39832202392438676
        assert _rel(zeta_quadrature(3.5e-323, 1.5e-323, sp), zeta(3.5e-323, 1.5e-323, sp)) <= 1e-12

    @pytest.mark.parametrize("phi, psi", [(0.3, 0.1), (1e-3, 1e-4), (1e-200, 3e-201)])
    def test_scaling_moves_no_rounding_at_normal_rates(self, phi, psi):
        sp = FuzzySpreads(0.1 * phi, 0.7 * phi, 0.3 * psi, 0.9 * psi)
        leakage = leakage_fuzzy(psi, sp)
        plain = fuzzy_eoq.fuzzy._quotient_distance(astuple(leakage),
                                                   astuple(demand_fuzzy(phi, sp) + leakage))
        assert zeta_quadrature(phi, psi, sp) == plain

    def test_scaled_while_the_upper_end_stays_finite(self):
        # scaled, the denominator's upper end has binary exponent 1024: just
        # below 2**1024, so the cuts are scaled; unscaled, the oracle gave 0.29733
        sp = FuzzySpreads(2e-323, math.ldexp(0.6, -46), 1e-323, 1e-323)
        assert _rel(zeta_quadrature(4e-323, 2e-323, sp, relax_bounds=True),
                    zeta(4e-323, 2e-323, sp, relax_bounds=True)) <= 1e-12

    def test_huge_relaxed_spreads_are_not_scaled_past_binary64(self):
        # scaling up would overflow phi + psi + d2 + d4: the cuts stay unscaled
        sp = FuzzySpreads(1e-301, 1e307, 1e-301, 1.0)
        cut = leak_fraction_cuts(1e-300, 1e-300, sp, relax_bounds=True)
        assert math.isfinite(cut(0.0).lo) and cut(1.0).lo == 0.5


class TestOracleOperands:
    """``_leak_fraction`` hands the oracle six floats, not fuzzy numbers:
    they are the paper's fuzzy leakage and fuzzy demand plus leakage, bit
    for bit, and ``validate_against`` alone makes them valid operands."""

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=200)
    @given(case=RNGS)
    @example(case=(CrispParams(3.5e-323, 1.5e-323, 1.0, 1.0),
                   FuzzySpreads(2e-323, 2e-323, 1e-323, 1e-323), False))
    @example(case=(CrispParams(*REVERSE_EDGE[:2], 1.0, 1.0), REVERSE_EDGE[2], True))
    def test_triples_are_the_paper_fuzzy_numbers(self, family, case):
        p, sp, relax = drawn_input(case, family)
        num, den = _leak_fraction(p.phi, p.psi, sp, relax)
        phi, psi = p.phi, p.psi
        if phi + psi < 0.5:
            # the oracle's power-of-two scaling, applied to the rates and spreads
            k = -math.frexp(phi + psi)[1]
            phi, psi = math.ldexp(phi, k), math.ldexp(psi, k)
            sp = FuzzySpreads(*(math.ldexp(d, k) for d in astuple(sp)))
        leakage = leakage_fuzzy(psi, sp)
        assert num == astuple(leakage)
        assert den == astuple(demand_fuzzy(phi, sp) + leakage)
        # the finiteness and ordering checks the oracle no longer makes hold
        TriangularFuzzyNumber(*num)
        TriangularFuzzyNumber(*den)

    @pytest.mark.parametrize("phi, psi, spreads", [
        (600.0, 10.0, FuzzySpreads(100.0, 100.0, 1.0, 1.0)),
        # the subnormal rates take the scaling branch
        (3.5e-323, 1.5e-323, FuzzySpreads(2e-323, 2e-323, 1e-323, 1e-323)),
    ], ids=["ordinary", "subnormal"])
    def test_oracle_builds_no_value_objects(self, phi, psi, spreads, monkeypatch):
        def refuse(self):
            raise AssertionError(f"{type(self).__name__} built on the oracle path")

        monkeypatch.setattr(TriangularFuzzyNumber, "__post_init__", refuse)
        monkeypatch.setattr(FuzzySpreads, "__post_init__", refuse)
        got = zeta_quadrature(phi, psi, spreads)
        monkeypatch.undo()
        assert _rel(got, zeta(phi, psi, spreads)) <= 1e-12


class TestScaleLaw:
    """Both zeta routes are scale-free: scaling the rates and spreads by a
    power of two leaves their bits as they were, wherever the six operands
    and their scaled copies are normal and the largest cut end stays
    finite (Chen et al.'s metamorphic testing: no oracle is needed)."""

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=100)
    @given(case=RNGS)
    def test_power_of_two_scaling_keeps_the_bits(self, family, case):
        p, sp, relax = drawn_input(case, family)
        operands = rates_and_spreads(p, sp)
        if not all_normal(operands):
            return
        closed = zeta(p.phi, p.psi, sp, relax_bounds=relax)
        oracle = zeta_quadrature(p.phi, p.psi, sp, relax_bounds=relax)
        for k in (-3, -1, 1, 2, 5):
            phi, psi, *spreads = (x * 2.0**k for x in operands)
            if not all_normal((phi, psi, *spreads, (phi + spreads[1]) + (psi + spreads[3]))):
                continue
            scaled = FuzzySpreads(*spreads)
            assert zeta(phi, psi, scaled, relax_bounds=relax) == closed, k
            assert zeta_quadrature(phi, psi, scaled, relax_bounds=relax) == oracle, k


class TestHullLaw:
    """Both zeta routes lie in the hull of the leak fraction's cuts: no
    lower than the least leakage over the largest total, no higher than the
    largest leakage over the least total, each formed as the oracle forms
    its cut ends.  Checked wherever the six operands are normal (Chen et
    al.'s metamorphic testing).  The hull is not widened for ``zeta``.  The
    oracle is held to it within its own stop, ``DEFAULT_TOL`` of the upper
    end, plus ``SUBNORMAL_SLACK``: it sums panels to 1e-12, so it sat one
    ulp above the hull at ``zeta_quadrature(1.0, 10.0, FuzzySpreads(1e-16,
    1e-16, 1.0000000000000001e-16, 1.0000000000000001e-16), relax_bounds=True)``,
    and where normal operands give a subnormal fraction it returned 0.0
    against a lower end of 5e-324.  With that allowance the law held on
    5,000 examples of each family."""

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=100)
    @given(case=RNGS)
    def test_both_routes_lie_in_the_hull(self, family, case):
        p, sp, relax = drawn_input(case, family)
        if not all_normal(rates_and_spreads(p, sp)):
            return
        phi, psi = p.phi, p.psi
        lo = (psi - sp.d3) / ((phi + sp.d2) + (psi + sp.d4))
        hi = (psi + sp.d4) / ((phi - sp.d1) + (psi - sp.d3))
        assert lo <= zeta(phi, psi, sp, relax_bounds=relax) <= hi
        slack = DEFAULT_TOL * hi + SUBNORMAL_SLACK
        assert lo - slack <= zeta_quadrature(phi, psi, sp, relax_bounds=relax) <= hi + slack


class TestLotRuleInputs:
    """The lot rule takes ``delta`` and ``zeta`` unchecked from
    ``defuzzified_rates`` and from the published table: ``delta`` must be
    positive and finite, ``zeta`` finite and above -1."""

    @settings(max_examples=1000)
    @given(case=RNGS)
    @example(case=(CrispParams(1e-323, 1e-323, 1.0, 1.0),
                   FuzzySpreads(5e-324, 5e-324, 5e-324, 5e-324), True))
    @example(case=(CrispParams(1e308, 1e307, 1.0, 1.0),
                   FuzzySpreads(math.nextafter(1e308, 0.0), 1e307,
                                math.nextafter(1e307, 0.0), 1e306), True))
    def test_defuzzified_rates_across_binary64(self, case):
        p, spreads, relax = drawn_input(case, "huge-rate")
        delta, zeta_value = defuzzified_rates(p.phi, p.psi, spreads, relax_bounds=relax)
        assert 0.0 < delta < math.inf
        assert 0.0 <= zeta_value < math.inf

    def test_published_zeta_values(self):
        assert all(-1.0 < row.zeta < math.inf for row in load_reference_table())


def _validate_against(phi, psi, spreads):
    spreads.validate_against(phi, psi)


class TestPublicChecks:
    """Every public route checks the rates before the spreads, with the same
    messages: each makes its one input check in ``validate_against``, the
    check the solver and the audit make too."""

    @pytest.mark.parametrize("route", [_validate_against, defuzzified_rates, zeta,
                                       zeta_quadrature, leak_fraction_cuts])
    @pytest.mark.parametrize("phi, psi, d1, message", [
        (math.nan, math.nan, 700.0, r"^phi must be finite \(got nan\)$"),
        (600.0, math.inf, 700.0, r"^psi must be finite \(got inf\)$"),
        (1e308, 1e308, 700.0, r"^phi \+ psi must be finite \(got inf\)$"),
        (600.0, 10.0, 700.0, r"^d1 < phi violated \(d1=700.0, phi=600.0\)$"),
    ])
    def test_rates_checked_before_spreads(self, route, phi, psi, d1, message):
        with pytest.raises(DomainError, match=message):
            route(phi, psi, FuzzySpreads(d1, 100.0, 1.0, 1.0))
