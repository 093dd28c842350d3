"""Tests for the crisp and fuzzy lot-size models."""

import dataclasses
import math
import operator
import random
import re
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzy_eoq.model
from fuzzy_eoq import (
    AUDIT_COLUMNS,
    CrispParams,
    CycleQuantities,
    DomainError,
    FuzzySpreads,
    Interval,
    SolutionRecord,
    TriangularFuzzyNumber,
    audit_table,
    crisp_optimal,
    cycle_quantities,
    defuzzified_rates,
    fuzzy_optimal,
    lot_cost,
    optimal_lot_size,
    truncated_baseline,
)
from fuzzy_eoq.model import _scaled_lot_size, percent_deviation

from conftest import all_normal, drawn_input, rates_and_spreads
from domain import FAMILIES, reference_solve, valid_input

PARAMS = CrispParams(600.0, 10.0, 10.0, 100.0)
ROW1 = FuzzySpreads(100.0, 100.0, 1.0, 1.0)

# frozen from a high-precision evaluation of the closed forms
Q_STAR_CRISP = 108.65749680948493
Z_STAR_CRISP = 1104.3876724898466
TC_AT_1 = 60005.08196721312
TC_AT_108_657 = 1104.3876725013906
EOQ_PSI0 = 109.54451150103323
COST_PSI0 = 1095.4451150103323
LEAKED_AT_QSTAR = 1.7812704394997527
Q_STAR_FUZZY_ROW1 = 108.64443987280576
Z_STAR_FUZZY_ROW1 = 1104.5203982871892
COST_AT_108_64_ROW1 = 1104.5203992095219


class TestParams:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(phi=0.0, psi=10.0, h=10.0, s=100.0), "phi > 0"),
            (dict(phi=600.0, psi=-1.0, h=10.0, s=100.0), "psi >= 0"),
            (dict(phi=600.0, psi=10.0, h=0.0, s=100.0), "h > 0"),
            (dict(phi=600.0, psi=10.0, h=10.0, s=-5.0), "s > 0"),
        ],
    )
    def test_validation_messages(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            CrispParams(**kwargs)

    def test_zero_leakage_allowed(self):
        CrispParams(600.0, 0.0, 10.0, 100.0)

    def test_overflowing_combined_rate_rejected(self):
        # each rate is finite but eta = phi + psi is inf, which would turn
        # the leakage fraction psi / eta into a silent 0
        with pytest.raises(DomainError, match=r"phi \+ psi must be finite \(got inf\)"):
            CrispParams(1e308, 1e308, 1.0, 1e-320)


def crisp_cost(q, p):
    """The crisp cost of lot size q: the fuzzy cost at delta = phi and
    zeta = psi / (phi + psi)."""
    return lot_cost(q, p.s, p.h, p.phi, p.psi / (p.phi + p.psi))


class TestCrispCost:
    def test_worked_values(self):
        assert math.isclose(crisp_cost(1.0, PARAMS), TC_AT_1, rel_tol=1e-12)
        assert math.isclose(
            crisp_cost(108.657, PARAMS), TC_AT_108_657, rel_tol=1e-12
        )

    def test_nonpositive_lot_rejected(self):
        with pytest.raises(DomainError, match="q > 0"):
            crisp_cost(0.0, PARAMS)
        with pytest.raises(DomainError, match="q > 0"):
            crisp_cost(-3.0, PARAMS)

    def test_is_the_fuzzy_cost_at_the_crisp_rates(self):
        # crisp_optimal takes the fuzzy lot rule at delta = phi, bit for bit
        rng = random.Random(5)
        for _ in range(50):
            p = valid_input(rng, "ordinary")[0]
            rec = crisp_optimal(p)
            zeta_value = p.psi / (p.phi + p.psi)
            assert rec.zeta == zeta_value
            assert rec.q_star == optimal_lot_size(p.s, p.h, p.phi, zeta_value)
            assert rec.z_star == crisp_cost(rec.q_star, p)

    def test_leak_term_kept_at_huge_combined_rate(self):
        # eta = 1.1e308: the leak term once divided by 2 * eta = inf and vanished
        p = CrispParams(1e308, 1e307, 1.0, 1e-307)
        want = 0.5 + 10.0 + 0.5 / 11.0
        assert math.isclose(crisp_cost(1.0, p), want, rel_tol=1e-15)


class TestCrispOptimal:
    def test_worked_example(self):
        rec = crisp_optimal(PARAMS)
        assert math.isclose(rec.q_star, Q_STAR_CRISP, rel_tol=1e-12)
        assert math.isclose(rec.z_star, Z_STAR_CRISP, rel_tol=1e-12)
        assert rec.delta == PARAMS.phi
        assert math.isclose(rec.zeta, 10.0 / 610.0, rel_tol=1e-15)
        assert rec.rel_q == 0.0 and rec.rel_z == 0.0

    def test_no_leakage_reduces_to_classical_eoq(self):
        rec = crisp_optimal(CrispParams(600.0, 0.0, 10.0, 100.0))
        assert math.isclose(rec.q_star, EOQ_PSI0, rel_tol=1e-12)
        assert math.isclose(rec.z_star, COST_PSI0, rel_tol=1e-12)

    def test_is_a_minimum(self):
        rec = crisp_optimal(PARAMS)
        for factor in (0.9, 0.99, 1.01, 1.1):
            assert crisp_cost(factor * rec.q_star, PARAMS) > rec.z_star

    def test_random_instances_satisfy_first_order_condition(self):
        rng = random.Random(7)
        for _ in range(50):
            p = valid_input(rng, "ordinary")[0]
            rec = crisp_optimal(p)
            eps = 1e-6 * rec.q_star
            slope = (
                crisp_cost(rec.q_star + eps, p)
                - crisp_cost(rec.q_star - eps, p)
            ) / (2.0 * eps)
            # curvature 2 s phi / q^3 scales the tolerance
            assert abs(slope) < 1e-4 * p.s * p.phi / rec.q_star**2


    def test_huge_rates_solve(self):
        # psi * q overflowed on the way to the cost, so no baseline could be built
        p = CrispParams(1e300, 1e300, 10.0, 100.0)
        rec = crisp_optimal(p)
        assert rec.q_star == math.sqrt(2.0 * 100.0 * 1e300 / (10.0 * 1.5))
        assert math.isclose(rec.z_star, 15.0 * rec.q_star, rel_tol=1e-15)
        assert cycle_quantities(rec.q_star, p).leaked == 0.5 * rec.q_star


class TestCycle:
    def test_worked_example(self):
        cyc = cycle_quantities(610.0, PARAMS)
        assert math.isclose(cyc.t, 610.0 / 600.0, rel_tol=1e-15)
        assert cyc.t1 == 1.0
        assert math.isclose(cyc.leaked, 10.0, rel_tol=1e-15)

    def test_leaked_at_crisp_optimum(self):
        rec = crisp_optimal(PARAMS)
        cyc = cycle_quantities(rec.q_star, PARAMS)
        assert math.isclose(cyc.leaked, LEAKED_AT_QSTAR, rel_tol=1e-12)

    def test_no_leakage_cycle(self):
        cyc = cycle_quantities(100.0, CrispParams(600.0, 0.0, 10.0, 100.0))
        assert cyc.t == cyc.t1
        assert cyc.leaked == 0.0

    def test_leaked_equals_rate_times_overshoot(self):
        rng = random.Random(11)
        for _ in range(50):
            p = valid_input(rng, "ordinary")[0]
            q = rng.uniform(1.0, 500.0)
            cyc = cycle_quantities(q, p)
            assert cyc.t1 <= cyc.t
            assert math.isclose(
                cyc.leaked, p.phi * (cyc.t - cyc.t1), rel_tol=1e-12, abs_tol=1e-12
            )


class TestLotFormulas:
    def test_zero_zeta_is_classical_eoq(self):
        assert math.isclose(
            optimal_lot_size(100.0, 10.0, 600.0, 0.0), EOQ_PSI0, rel_tol=1e-12
        )

    def test_replayed_reference_value(self):
        # first published row: given its zeta, the lot rule lands on the
        # printed lot size to print precision
        got = optimal_lot_size(100.0, 10.0, 600.0, 0.00162)
        assert abs(got - 109.456) < 5e-4

    def test_negative_zeta_above_minus_one_accepted(self):
        assert optimal_lot_size(100.0, 10.0, 600.0, -0.5) > 0.0
        with pytest.raises(DomainError, match="1 \\+ zeta > 0"):
            optimal_lot_size(100.0, 10.0, 600.0, -1.0)



def _lot_size_decimal(s, h, delta, zeta_value):
    """sqrt(2 s delta / (h (1 + zeta))) in 60-digit stdlib decimal, taken from
    the exact binary64 inputs, where no step overflows or underflows."""
    with localcontext() as ctx:
        ctx.prec = 60
        s, h, delta, zeta_value = map(Decimal, (s, h, delta, zeta_value))
        return (2 * s * delta / (h * (1 + zeta_value))).sqrt()


class TestLotSizeRange:
    """Every lot size binary64 can hold is returned, whatever 2 s delta and
    h (1 + zeta) do on the way; a larger one raises the solve path's error."""

    @pytest.mark.parametrize("s, h, delta, zeta_value", [
        (1e306, 1.0, 600.0, 10.0 / 610.0),  # 2 s delta overflows
        (1.7976931348623157e308, 1e-300, 1e-300, 0.5),  # so does s / h
        (1e300, 1e300, 1e300, 0.0),  # h (1 + zeta) stays finite, 2 s delta does not
        (1e308, 1.5e308, 2.0, 1.0),  # h (1 + zeta) overflows
        (1e-320, 1e-300, 612.3456, 0.01),  # 2 s delta is subnormal
        (1e-200, 1e-200, 1e-200, 0.25),  # so is the quotient
        (1e-300, 5e-324, 1e-10, 0.0),  # and h (1 + zeta)
    ])
    def test_representable_lot_size_solves(self, s, h, delta, zeta_value):
        q = optimal_lot_size(s, h, delta, zeta_value)
        want = _lot_size_decimal(s, h, delta, zeta_value)
        assert abs(Decimal(q) - want) <= Decimal("1e-15") * want

    def test_lot_size_beyond_binary64_raises(self):
        with pytest.raises(DomainError, match=r"^q must be finite \(got inf\)$"):
            optimal_lot_size(1.7976931348623157e308, 5e-324, 1e10, 0.0)

    def test_matches_decimal_reference_across_the_range(self):
        # s and h log-uniform over 1e-323..1e308; below the normal range
        # binary64 keeps fewer digits, so there the bound is one spacing
        rng = random.Random(20261018)
        largest, tiny = Decimal(sys.float_info.max), Decimal(sys.float_info.min)
        for _ in range(20_000):
            s, h = (10.0 ** rng.uniform(-323.0, 308.0) for _ in range(2))
            delta, zeta_value = 10.0 ** rng.uniform(-3.0, 6.0), rng.uniform(0.0, 1.0)
            want = _lot_size_decimal(s, h, delta, zeta_value)
            if want > largest:
                with pytest.raises(DomainError, match=r"^q must be finite \(got inf\)$"):
                    optimal_lot_size(s, h, delta, zeta_value)
                continue
            q = optimal_lot_size(s, h, delta, zeta_value)
            if want >= tiny:
                assert abs(Decimal(q) - want) <= Decimal("1e-15") * want, (s, h, delta, zeta_value)
            else:
                assert abs(Decimal(q) - want) <= Decimal(2) ** -1074, (s, h, delta, zeta_value)

    def test_scaled_form_is_the_plain_formula_inside_the_normal_range(self):
        # wherever 2 s delta, h (1 + zeta) and their quotient are normal
        # numbers, the significand form gives the plain formula bit for bit,
        # so the lot size may take either
        rng = random.Random(7)
        kept = 0
        for _ in range(20_000):
            s, h = (10.0 ** rng.uniform(-323.0, 308.0) for _ in range(2))
            delta, w = 10.0 ** rng.uniform(-3.0, 6.0), 1.0 + rng.uniform(-0.5, 1.0)
            num, den = 2.0 * s * delta, h * w
            if all(sys.float_info.min <= x <= sys.float_info.max for x in (num, den, num / den)):
                kept += 1
                assert _scaled_lot_size(s, h, delta, w) == math.sqrt(num / den)
        assert kept > 10_000


def fuzzy_cost(q, p, spreads):
    """The defuzzified cost of lot size q at the spreads' delta and zeta."""
    return lot_cost(q, p.s, p.h, *defuzzified_rates(p.phi, p.psi, spreads))


class TestFuzzyCost:
    def test_frozen_value(self):
        got = fuzzy_cost(108.64, PARAMS, ROW1)
        assert math.isclose(got, COST_AT_108_64_ROW1, rel_tol=1e-12)

    def test_matches_crisp_as_spreads_vanish(self):
        sp = FuzzySpreads(6e-4, 6e-4, 1e-5, 1e-5)
        for q in (50.0, 108.657, 200.0):
            assert math.isclose(
                fuzzy_cost(q, PARAMS, sp), crisp_cost(q, PARAMS), rel_tol=1e-6
            )

    def test_convex_away_from_optimum(self):
        rec = fuzzy_optimal(PARAMS, ROW1)
        assert fuzzy_cost(2.0 * rec.q_star, PARAMS, ROW1) > rec.z_star
        assert fuzzy_cost(0.5 * rec.q_star, PARAMS, ROW1) > rec.z_star


class TestFuzzyOptimal:
    def test_worked_example(self):
        rec = fuzzy_optimal(PARAMS, ROW1)
        assert rec.delta == 600.0
        assert math.isclose(rec.q_star, Q_STAR_FUZZY_ROW1, rel_tol=1e-11)
        assert math.isclose(rec.z_star, Z_STAR_FUZZY_ROW1, rel_tol=1e-11)
        # narrow symmetric spreads barely move the optimum
        assert abs(rec.rel_q) < 0.05
        assert abs(rec.rel_z) < 0.05

    def test_paper_baseline_uses_truncated_units(self):
        rec = fuzzy_optimal(PARAMS, ROW1, paper_baseline=True)
        expected_rel_q = (rec.q_star - 108.0) / 108.0 * 100.0
        expected_rel_z = (rec.z_star - 1104.0) / 1104.0 * 100.0
        assert math.isclose(rec.rel_q, expected_rel_q, rel_tol=1e-12)
        assert math.isclose(rec.rel_z, expected_rel_z, rel_tol=1e-12)

    def test_relax_bounds_passthrough(self):
        wide = FuzzySpreads(100.0, 900.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="d2 < phi"):
            fuzzy_optimal(PARAMS, wide)
        rec = fuzzy_optimal(PARAMS, wide, relax_bounds=True)
        assert rec.delta == 600.0 + 800.0 / 4.0

    def test_balance_identity(self):
        rng = random.Random(23)
        for _ in range(100):
            p, sp, _ = valid_input(rng, "ordinary")
            rec = fuzzy_optimal(p, sp)
            holding = rec.q_star * p.h / 2.0 * (1.0 + rec.zeta)
            ordering = p.s * rec.delta / rec.q_star
            assert math.isclose(holding, ordering, rel_tol=1e-9)
            assert math.isclose(
                rec.z_star,
                math.sqrt(2.0 * p.s * rec.delta * p.h * (1.0 + rec.zeta)),
                rel_tol=1e-9,
            )

    def test_second_order_condition(self):
        rng = random.Random(29)
        for _ in range(50):
            p, sp, _ = valid_input(rng, "ordinary")
            rec = fuzzy_optimal(p, sp)
            eps = 0.01 * rec.q_star
            assert fuzzy_cost(rec.q_star + eps, p, sp) > rec.z_star
            assert fuzzy_cost(rec.q_star - eps, p, sp) > rec.z_star

    def test_monotone_in_delta_and_zeta(self):
        rng = random.Random(31)
        for _ in range(100):
            s = rng.uniform(5.0, 2000.0)
            h = rng.uniform(0.5, 50.0)
            d1, d2 = sorted((rng.uniform(50.0, 5000.0), rng.uniform(50.0, 5000.0)))
            z1, z2 = sorted((rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)))
            if d1 < d2:
                assert optimal_lot_size(s, h, d1, z1) < optimal_lot_size(s, h, d2, z1)
            if z1 < z2:
                assert optimal_lot_size(s, h, d1, z2) < optimal_lot_size(s, h, d1, z1)

    def test_crisp_consistency_in_the_limit(self):
        rng = random.Random(37)
        for _ in range(20):
            p = valid_input(rng, "ordinary")[0]
            sp = FuzzySpreads(
                1e-6 * p.phi, 1e-6 * p.phi, 1e-6 * p.psi, 1e-6 * p.psi
            )
            rec = fuzzy_optimal(p, sp)
            base = crisp_optimal(p)
            assert math.isclose(rec.q_star, base.q_star, rel_tol=1e-4)

    def test_huge_lot_size_solves(self):
        # q* is about 1.4e150; its cube would be beyond binary64
        p = CrispParams(1e100, 1.0, 1e-100, 1e100)
        rec = fuzzy_optimal(p, FuzzySpreads(1e99, 1e99, 0.5, 0.5))
        assert rec.q_star == optimal_lot_size(p.s, p.h, rec.delta, rec.zeta)
        assert math.isclose(rec.q_star, 1.4142135623730951e150, rel_tol=1e-6)


class TestBaselines:
    def test_truncation_matches_published_baseline(self):
        base = truncated_baseline(crisp_optimal(PARAMS))
        assert base.q_star == 108.0
        assert base.z_star == 1104.0

    def test_whole_unit_baseline_at_exactly_one_unit(self):
        # q* = sqrt(2 s phi / h) = 1 and Z* = sqrt(2 s phi h) = 1, both exact
        base = truncated_baseline(crisp_optimal(CrispParams(1.0, 0.0, 1.0, 0.5)))
        assert (base.q_star, base.z_star) == (1.0, 1.0)

    @pytest.mark.parametrize("p", [
        CrispParams(600.0, 10.0, 10.0, 1e-6),  # q* about 0.011, cost about 0.11
        CrispParams(600.0, 10.0, 1e6, 1e-3),  # q* about 0.0011, cost about 1104
    ])
    def test_whole_unit_baseline_below_one_unit_rejected(self, p):
        message = r"^the whole-unit baseline needs a crisp optimum and cost of at least one unit"
        with pytest.raises(DomainError, match=message):
            truncated_baseline(crisp_optimal(p))
        with pytest.raises(DomainError, match=message):
            fuzzy_optimal(p, ROW1, paper_baseline=True)

    @pytest.mark.parametrize("p, spreads, message", [
        # the crisp lot sqrt(2 s phi / (h (1 + zeta))) is about 1.84e308; the
        # row's, at delta about 1.32e16, is about 1.62e308
        (CrispParams(1.7e16, 1.0, 1e-300, 1e300), FuzzySpreads(1.53e16, 1.0, 0.5, 0.5),
         r"q must be finite \(got inf\)"),
        # the crisp cost sqrt(2 s phi h (1 + zeta)) is about 1.84e308; the
        # row's, at delta about 7.5e299, is about 1.60e308
        (CrispParams(1e300, 1.0, 1e300, 1.7e16), FuzzySpreads(0.99e300, 1.0, 0.5, 0.5),
         r"z_star must be finite \(got inf\)"),
    ], ids=["lot", "cost"])
    def test_crisp_optimum_beyond_binary64_rejected(self, p, spreads, message):
        # only the baseline fails: the row's own checks pass
        with pytest.raises(DomainError, match="^held baseline$"):
            _solve(p, spreads)
        with pytest.raises(DomainError, match=f"^{message}$"):
            crisp_optimal(p)
        with pytest.raises(DomainError, match=f"^{message}$"):
            fuzzy_optimal(p, spreads)

    def test_rel_metrics_identity_is_zero(self):
        rec = crisp_optimal(PARAMS)
        assert percent_deviation(rec.q_star, rec.q_star) == 0.0
        assert percent_deviation(rec.z_star, rec.z_star) == 0.0

    @pytest.mark.parametrize("paper_baseline", [False, True])
    @given(case=st.randoms(use_true_random=False))
    def test_is_the_reference_solve(self, paper_baseline, case):
        # fuzzy_optimal builds no baseline record, yet returns the record the
        # public pieces give, or raises the same error
        p, spreads, relax = drawn_input(case)
        try:
            expected = reference_solve(p, spreads, paper_baseline, relax)
        except DomainError as exc:
            with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                fuzzy_optimal(p, spreads, paper_baseline=paper_baseline, relax_bounds=relax)
        else:
            assert fuzzy_optimal(p, spreads, paper_baseline=paper_baseline,
                                 relax_bounds=relax) == expected

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=200)
    @given(case=st.randoms(use_true_random=False))
    def test_four_times_the_setup_cost_doubles_the_optimum(self, family, case):
        # exact: the lot size is sqrt of a ratio that scales by 4, and each
        # cost term scales by 2, wherever the rates and spreads are normal
        p, spreads, relax = drawn_input(case, family)
        if not all_normal(rates_and_spreads(p, spreads)):
            return
        rec = fuzzy_optimal(p, spreads, relax_bounds=relax)
        scaled = fuzzy_optimal(CrispParams(p.phi, p.psi, p.h, 4.0 * p.s), spreads,
                               relax_bounds=relax)
        assert (scaled.q_star, scaled.z_star) == (2.0 * rec.q_star, 2.0 * rec.z_star)
        assert (scaled.rel_q, scaled.rel_z) == (rec.rel_q, rec.rel_z)

    def test_rel_metrics_replayed_reference_row(self):
        # replay the first published row's zeta, compare against the
        # truncated baseline: both printed rel columns come back
        q = optimal_lot_size(100.0, 10.0, 600.0, 0.00162)
        z = lot_cost(q, 100.0, 10.0, 600.0, 0.00162)
        base = truncated_baseline(crisp_optimal(PARAMS))
        rel_q = percent_deviation(q, base.q_star)
        rel_z = percent_deviation(z, base.z_star)
        assert abs(rel_q - 1.3478) < 1e-3
        assert abs(rel_z - (-0.6943)) < 1e-3


def _failing_baseline():
    raise DomainError("held baseline")


def _solve(p, spreads, relax_bounds=False):
    """The solve step against a baseline that raises, which it asks for only
    once the row's own checks pass."""
    return fuzzy_eoq.model._solve(p, spreads, _failing_baseline, relax_bounds)


_NAN, _INF = math.nan, math.inf
_TINY = math.nextafter(1e-300, 0.0)

# Each check's message and the order the checks run in; a message of None
# marks an accepted input.  The row path tests each value with one
# comparison and names it through the same helper only when that fails.
CHECK_CASES = [
    # optimal_lot_size checks s, h, delta, zeta, then 1 + zeta
    (optimal_lot_size, (_NAN, _NAN, _NAN, _NAN), r"s must be finite \(got nan\)"),
    (optimal_lot_size, (0.0, _NAN, _NAN, _NAN), r"s > 0 violated \(got 0.0\)"),
    (optimal_lot_size, (1.0, _INF, _NAN, _NAN), r"h must be finite \(got inf\)"),
    (optimal_lot_size, (1.0, -1.0, _NAN, _NAN), r"h > 0 violated \(got -1.0\)"),
    (optimal_lot_size, (1.0, 1.0, _NAN, _NAN), r"delta must be finite \(got nan\)"),
    (optimal_lot_size, (1.0, 1.0, _INF, 0.5), r"delta must be finite \(got inf\)"),
    (optimal_lot_size, (1.0, 1.0, -_INF, 0.5), r"delta must be finite \(got -inf\)"),
    (optimal_lot_size, (1.0, 1.0, 0.0, _NAN), r"delta > 0 violated \(got 0.0\)"),
    (optimal_lot_size, (1.0, 1.0, -0.0, 0.5), r"delta > 0 violated \(got -0.0\)"),
    (optimal_lot_size, (1.0, 1.0, -1.0, 0.5), r"delta > 0 violated \(got -1.0\)"),
    (optimal_lot_size, (1.0, 1.0, 1.0, _NAN), r"zeta must be finite \(got nan\)"),
    (optimal_lot_size, (1.0, 1.0, 1.0, _INF), r"zeta must be finite \(got inf\)"),
    (optimal_lot_size, (1.0, 1.0, 1.0, -_INF), r"zeta must be finite \(got -inf\)"),
    (optimal_lot_size, (1.0, 1.0, 1.0, 0.0), None),
    (optimal_lot_size, (1.0, 1.0, 1.0, -0.5), None),
    (optimal_lot_size, (1.0, 1.0, 1.0, -1.0), r"1 \+ zeta > 0 violated \(got zeta=-1.0\)"),
    (optimal_lot_size, (1.0, 1.0, 1.0, -2.0), r"1 \+ zeta > 0 violated \(got zeta=-2.0\)"),
    # then the lot size, with the solve path's messages: it overflows, or its
    # true value, about 1.4e-450, rounds to 0
    (optimal_lot_size, (1.7976931348623157e308, 5e-324, 1e10, 0.0),
     r"q must be finite \(got inf\)"),
    (optimal_lot_size, (1e-300, 1e300, 1e-300, 0.0), r"q > 0 violated \(got 0.0\)"),
    # lot_cost checks q, then s, h, delta, zeta and 1 + zeta as optimal_lot_size does,
    # then the cost finite
    (lot_cost, (_NAN, 100.0, 10.0, 600.0, 0.1), r"q must be finite \(got nan\)"),
    (lot_cost, (_INF, 100.0, 10.0, 600.0, 0.1), r"q must be finite \(got inf\)"),
    (lot_cost, (-_INF, 100.0, 10.0, 600.0, 0.1), r"q must be finite \(got -inf\)"),
    (lot_cost, (0.0, 100.0, 10.0, 600.0, 0.1), r"q > 0 violated \(got 0.0\)"),
    (lot_cost, (-1.0, 100.0, 10.0, 600.0, 0.1), r"q > 0 violated \(got -1.0\)"),
    (lot_cost, (1.0, 100.0, 10.0, 600.0, 0.1), None),
    (lot_cost, (1.0, _NAN, 1.0, 1.0, 0.0), r"s must be finite \(got nan\)"),
    (lot_cost, (1.0, 0.0, _NAN, 1.0, 0.0), r"s > 0 violated \(got 0.0\)"),
    (lot_cost, (1.0, 1.0, -1.0, 1.0, 0.0), r"h > 0 violated \(got -1.0\)"),
    (lot_cost, (1.0, 1.0, _INF, 1.0, 0.0), r"h must be finite \(got inf\)"),
    (lot_cost, (1.0, 1.0, 1.0, -0.0, _NAN), r"delta > 0 violated \(got -0.0\)"),
    (lot_cost, (1.0, 1.0, 1.0, _INF, 0.0), r"delta must be finite \(got inf\)"),
    (lot_cost, (1.0, 1.0, 1.0, 1.0, _NAN), r"zeta must be finite \(got nan\)"),
    (lot_cost, (1.0, 1.0, 1.0, 1.0, -_INF), r"zeta must be finite \(got -inf\)"),
    (lot_cost, (1.0, 1.0, 1.0, 1.0, -0.5), None),
    (lot_cost, (1.0, 1.0, 1.0, 1.0, -1.0), r"1 \+ zeta > 0 violated \(got zeta=-1.0\)"),
    (lot_cost, (1.0, 1.0, 1.0, 1.0, -5.0), r"1 \+ zeta > 0 violated \(got zeta=-5.0\)"),
    (lot_cost, (6.07908246689861e-239, 5.378832340062271e+211, 8.745498592846944e+158,
                8.882909583464342e-163, 0.49543508709194095), r"z_star must be finite \(got inf\)"),
    # percent_deviation checks value and base finite, base nonzero, then the deviation
    (percent_deviation, (_NAN, 1.0), r"value must be finite \(got nan\)"),
    (percent_deviation, (_INF, 0.0), r"value must be finite \(got inf\)"),
    (percent_deviation, (1.0, _INF), r"base must be finite \(got inf\)"),
    (percent_deviation, (1.0, 0.0), r"base != 0 violated \(got 0.0\)"),
    (percent_deviation, (1.0, -0.0), r"base != 0 violated \(got -0.0\)"),
    (percent_deviation, (1e308, -1e308),
     r"percent deviation of 1e\+308 from -1e\+308 must be finite \(got -inf\)"),
    (percent_deviation, (1.0, 1e-308),
     r"percent deviation of 1.0 from 1e-308 must be finite \(got inf\)"),
    (percent_deviation, (1e-320, 5e-324), None),
    # the solve step: the row's spread, zeta and q checks come before the
    # baseline's error; q* = sqrt(2 1e300 1e300 / 1e-300) is about 1.4e450
    (_solve, (PARAMS, FuzzySpreads(700.0, 1.0, 1.0, 1.0)),
     r"d1 < phi violated \(d1=700.0, phi=600.0\)"),
    (_solve, (CrispParams(1e-300, 1e-300, 1.0, 1.0), FuzzySpreads(_TINY, 1.0, _TINY, 1e300), True),
     r"zeta must be finite \(got nan\)"),
    (_solve, (CrispParams(1e300, 10.0, 1e-300, 1e300), FuzzySpreads(1.0, 1.0, 1.0, 1.0)),
     r"q must be finite \(got inf\)"),
    (_solve, (PARAMS, ROW1), r"held baseline"),
    # SolutionRecord names the first non-finite field, then checks the optimum
    (SolutionRecord, (600.0, 0.1, 1e308, 1e308, 0.0, 0.0), None),
    (SolutionRecord, (600.0, _NAN, 10.0, 10.0, 0.0, _INF), r"zeta must be finite \(got nan\)"),
    (SolutionRecord, (_INF, 0.1, 10.0, 10.0, 0.0, 0.0), r"delta must be finite \(got inf\)"),
    (SolutionRecord, (600.0, _NAN, 10.0, 10.0, 0.0, 0.0), r"zeta must be finite \(got nan\)"),
    (SolutionRecord, (600.0, 0.1, _INF, 10.0, 0.0, 0.0), r"q_star must be finite \(got inf\)"),
    (SolutionRecord, (600.0, 0.1, 10.0, -_INF, 0.0, 0.0), r"z_star must be finite \(got -inf\)"),
    (SolutionRecord, (600.0, 0.1, 10.0, 10.0, _NAN, 0.0), r"rel_q must be finite \(got nan\)"),
    (SolutionRecord, (600.0, 0.1, 10.0, 10.0, 0.0, _INF), r"rel_z must be finite \(got inf\)"),
    (SolutionRecord, (600.0, 0.1, 10.0, 10.0, _INF, -_INF), r"rel_q must be finite \(got inf\)"),
    (SolutionRecord, (600.0, 0.1, 0.0, 10.0, 0.0, _NAN), r"rel_z must be finite \(got nan\)"),
    (SolutionRecord, (600.0, 0.1, 0.0, 10.0, 0.0, 0.0), r"q_star > 0 violated \(got 0.0\)"),
    (SolutionRecord, (600.0, 0.1, 10.0, -1.0, 0.0, 0.0), r"z_star > 0 violated \(got -1.0\)"),
    # CrispParams checks each field finite, then phi, psi, phi + psi, h, s
    (CrispParams, (0.0, 10.0, 10.0, 100.0), r"phi > 0 violated \(got 0.0\)"),
    (CrispParams, (600.0, -0.5, 10.0, 100.0), r"psi >= 0 violated \(got -0.5\)"),
    (CrispParams, (600.0, 10.0, -1.0, 100.0), r"h > 0 violated \(got -1.0\)"),
    (CrispParams, (600.0, 10.0, 10.0, 0.0), r"s > 0 violated \(got 0.0\)"),
    (CrispParams, (1e308, 1e308, 10.0, 100.0), r"phi \+ psi must be finite \(got inf\)"),
    (CrispParams, (_NAN, 10.0, 0.0, 100.0), r"phi must be finite \(got nan\)"),
    # FuzzySpreads checks d1..d4 in order, each finite and then positive
    (FuzzySpreads, (_NAN, 0.0, 1.0, 1.0), r"d1 must be finite \(got nan\)"),
    (FuzzySpreads, (0.0, _NAN, 1.0, 1.0), r"d1 > 0 violated \(got 0.0\)"),
    (FuzzySpreads, (1.0, -_INF, 1.0, 1.0), r"d2 must be finite \(got -inf\)"),
    (FuzzySpreads, (1.0, 1.0, -1.0, _INF), r"d3 > 0 violated \(got -1.0\)"),
    (FuzzySpreads, (1.0, 1.0, 0.0, 1.0), r"d3 > 0 violated \(got 0.0\)"),
    (FuzzySpreads, (1.0, 1.0, 1.0, _INF), r"d4 must be finite \(got inf\)"),
    (FuzzySpreads, (1.0, 1.0, 1.0, 5e-324), None),
]


class TestCheckOrder:
    @pytest.mark.parametrize("route, args, message", CHECK_CASES)
    def test_message_and_order(self, route, args, message):
        if message is None:
            route(*args)
        else:
            with pytest.raises(DomainError, match=f"^{message}$"):
                route(*args)


def _cells_reversed(audit):
    row = dataclasses.replace(audit.rows[0], cells=audit.rows[0].cells[::-1])
    return dataclasses.replace(audit, rows=(row, *audit.rows[1:]))


# each fuzzy-arithmetic operator with a plain number as its right operand
_WITH_A_NUMBER = [
    *[(Interval(1.0, 2.0), op)
      for op in (operator.add, operator.sub, operator.mul, operator.truediv)],
    *[(TriangularFuzzyNumber(1.0, 2.0, 3.0), op) for op in (operator.add, operator.sub)],
]

# checks that no solve, sweep or audit reaches: a value type built wrong, an
# unknown audit column, and arithmetic with a plain number
UNREACHED_CHECKS = [
    pytest.param(lambda: CycleQuantities(1.0, 2.0, 0.0), DomainError,
                 r"t1 <= t violated \(got t1=2.0, t=1.0\)", id="cycle-t1-above-t"),
    pytest.param(lambda: CycleQuantities(1.0, 0.5, -1.0), DomainError,
                 r"leaked >= 0 violated \(got -1.0\)", id="cycle-negative-leak"),
    pytest.param(lambda: dataclasses.replace(audit_table(), rows=audit_table().rows[:17]),
                 DomainError, r"expected 18 audit rows \(got 17\)", id="audit-17-rows"),
    pytest.param(lambda: _cells_reversed(audit_table()), DomainError,
                 re.escape(f"row 0 does not cover {AUDIT_COLUMNS}"), id="audit-cells-reversed"),
    pytest.param(lambda: audit_table().rows[0].cell("nope"), DomainError,
                 r"unknown audit column 'nope'", id="audit-unknown-column"),
    *[pytest.param(lambda value=value, op=op: op(value, 1), TypeError,
                   r"unsupported operand type\(s\)",
                   id=f"{type(value).__name__}-{op.__name__}-number")
      for value, op in _WITH_A_NUMBER],
]


@pytest.mark.parametrize("make, error, message", UNREACHED_CHECKS)
def test_checks_no_solve_reaches(make, error, message):
    with pytest.raises(error, match=f"^{message}"):
        make()
