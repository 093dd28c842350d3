"""Acceptance gate: every criterion at its stated tolerance.

Each test prints exactly one pass/fail line; run with
``pytest tests/test_acceptance.py -v -s`` to see them all.
"""

import math
import random
import time

from fuzzy_eoq import (
    REFERENCE_PARAMS,
    CrispParams,
    Interval,
    audit_table,
    crisp_optimal,
    defuzzified_rates,
    fuzzy_optimal,
    load_reference_table,
    lot_cost,
    optimal_lot_size,
    signed_distance_quadrature,
    truncated_baseline,
    zeta,
    zeta_quadrature,
)

from conftest import random_dyadic_alpha, random_dyadic_tfn, random_tfn
from domain import valid_input


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {number} [{'PASS' if ok else 'FAIL'}] {name} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_crisp_worked_example():
    t0 = time.perf_counter()
    record = crisp_optimal(CrispParams(600.0, 10.0, 10.0, 100.0))
    in_range = 108.0 <= record.q_star <= 109.5
    # independent brute-force oracle over the crisp cost expression
    qs = [50.0 + i * 1e-3 for i in range(150_001)]  # 50 to 200 in steps of 1e-3
    grid_min = min(
        q * 10.0 / 2.0 + 600.0 * 100.0 / q + 10.0 * q * 10.0 / (2.0 * 610.0) for q in qs
    )
    cost_close = abs(record.z_star - grid_min) / grid_min < 1e-3
    rounded = truncated_baseline(record)
    whole_units = rounded.q_star == 108.0 and rounded.z_star == 1104.0
    elapsed = time.perf_counter() - t0
    ok = in_range and cost_close and whole_units and elapsed < 1.0
    _report(
        1,
        "crisp worked example",
        ok,
        f"q*={record.q_star:.6f}, grid rel dev={abs(record.z_star - grid_min) / grid_min:.2e}, "
        f"whole units {rounded.q_star:.0f}/{rounded.z_star:.0f}, {elapsed:.2f}s",
    )


def test_criterion_2_delta_column_blocks():
    t0 = time.perf_counter()
    expected = [600.0] * 6 + [612.5] * 6 + [625.0] * 6
    max_dev = 0.0
    for row, want in zip(load_reference_table(), expected):
        record = fuzzy_optimal(REFERENCE_PARAMS, row.spreads)
        max_dev = max(max_dev, abs(record.delta - want))
    elapsed = time.perf_counter() - t0
    ok = max_dev <= 1e-9 and elapsed < 1.0
    _report(2, "delta column blocks", ok, f"max abs dev={max_dev:.2e}, {elapsed:.2f}s")


def test_criterion_3_zeta_oracle_equivalence():
    t0 = time.perf_counter()
    max_rel = 0.0
    cases = [(REFERENCE_PARAMS.phi, REFERENCE_PARAMS.psi, row.spreads) for row in load_reference_table()]
    rng = random.Random(2024)
    for p, sp, _ in (valid_input(rng, "ordinary") for _ in range(1000)):
        cases.append((p.phi, p.psi, sp))
    for phi, psi, spreads in cases:
        closed = zeta(phi, psi, spreads)
        quad = zeta_quadrature(phi, psi, spreads)
        max_rel = max(max_rel, abs(closed - quad) / max(abs(closed), abs(quad)))
    elapsed = time.perf_counter() - t0
    ok = max_rel < 1e-8 and elapsed < 10.0
    _report(
        3,
        "zeta closed form vs quadrature",
        ok,
        f"{len(cases)} cases, max rel dev={max_rel:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_positivity_and_sign_flags():
    rng = random.Random(15)
    min_zeta = math.inf
    for _ in range(1000):
        p, sp, _ = valid_input(rng, "ordinary")
        min_zeta = min(min_zeta, zeta(p.phi, p.psi, sp))
    all_positive = min_zeta > 0.0
    audit = audit_table()
    flagged_paper_values = {
        audit.rows[i].cell("zeta").paper for i in audit.sign_contradictions
    }
    named_entries_flagged = {-0.01199, -0.0144} <= flagged_paper_values
    flags_match_signs = all(
        row.zeta_sign_contradiction == (row.cell("zeta").paper <= 0.0)
        for row in audit.rows
    )
    ok = (
        all_positive
        and named_entries_flagged
        and flags_match_signs
        and len(audit.sign_contradictions) == 13
    )
    _report(
        4,
        "zeta positivity, table sign contradictions flagged",
        ok,
        f"min sampled zeta={min_zeta:.3e}, {len(audit.sign_contradictions)} rows flagged",
    )


def test_criterion_5_signed_distance_properties():
    rng = random.Random(99)
    max_abs = 0.0
    for _ in range(1000):
        b = random_tfn(rng)
        quad = signed_distance_quadrature(
            lambda a: b.alpha_cut(a).lo, lambda a: b.alpha_cut(a).hi
        )
        max_abs = max(max_abs, abs(quad - b.signed_distance()))
    routes_agree = max_abs < 1e-9

    linear_ok = True
    for _ in range(1000):
        a = random_tfn(rng)
        b = random_tfn(rng)
        k = rng.choice([0.0, rng.uniform(1e-6, 8.0), -rng.uniform(1e-6, 8.0)])
        checks = (
            ((a + b).signed_distance(), a.signed_distance() + b.signed_distance()),
            ((a - b).signed_distance(), a.signed_distance() - b.signed_distance()),
            (a.scale(k).signed_distance(), k * a.signed_distance()),
        )
        for lhs, rhs in checks:
            if not math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12):
                linear_ok = False
    ok = routes_agree and linear_ok
    _report(
        5,
        "signed distance: quadrature agreement and linearity",
        ok,
        f"max abs route dev={max_abs:.2e}, linearity {'holds' if linear_ok else 'violated'}",
    )


def test_criterion_6_lot_rule_optimality():
    t0 = time.perf_counter()
    rng = random.Random(606)
    grid_ok = True
    max_balance_rel = 0.0
    worst_steps = 0.0
    for _ in range(200):
        p, sp, _ = valid_input(rng, "ordinary")
        record = fuzzy_optimal(p, sp)
        q_star = record.q_star
        step = q_star / 999.0
        qs = [0.5 * q_star + i * step for i in range(1000)]
        costs = [lot_cost(q, p.s, p.h, *defuzzified_rates(p.phi, p.psi, sp)) for q in qs]
        best = qs[costs.index(min(costs))]
        steps_off = abs(best - q_star) / step
        worst_steps = max(worst_steps, steps_off)
        if steps_off > 1.0 + 1e-9:
            grid_ok = False
        balance = math.sqrt(2.0 * p.s * record.delta * p.h * (1.0 + record.zeta))
        max_balance_rel = max(
            max_balance_rel, abs(record.z_star - balance) / balance
        )
    elapsed = time.perf_counter() - t0
    ok = grid_ok and max_balance_rel < 1e-9 and elapsed < 30.0
    _report(
        6,
        "lot rule optimality and balance identity",
        ok,
        f"200 cases, argmin within {worst_steps:.3f} steps, "
        f"max balance rel dev={max_balance_rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_conditional_table_reproduction():
    params = REFERENCE_PARAMS
    base = truncated_baseline(crisp_optimal(params))
    max_q_dev = 0.0
    max_rel_q_dev = 0.0
    for row in load_reference_table():
        q = optimal_lot_size(params.s, params.h, row.delta, row.zeta)
        max_q_dev = max(max_q_dev, abs(q - row.q_star))
        rel_q = (q - base.q_star) / base.q_star * 100.0
        max_rel_q_dev = max(max_rel_q_dev, abs(rel_q - row.rel_q))
    audit = audit_table(paper_baseline=True)
    ok = (
        max_q_dev <= 0.01
        and max_rel_q_dev <= 0.01
        and base.q_star == 108.0
        and audit.hard_pass
    )
    _report(
        7,
        "conditional table reproduction from published zeta",
        ok,
        f"max q dev={max_q_dev:.5f} units, max rel_q dev={max_rel_q_dev:.5f} pp, "
        f"paper-baseline audit hard columns {'pass' if audit.hard_pass else 'fail'}",
    )


def test_criterion_8_cut_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(808)
    homomorphism_ok = True
    for _ in range(1000):
        a = random_dyadic_tfn(rng)
        b = random_dyadic_tfn(rng)
        alpha = random_dyadic_alpha(rng)
        k = float(rng.randint(-64, 64))
        if (a + b).alpha_cut(alpha) != a.alpha_cut(alpha) + b.alpha_cut(alpha):
            homomorphism_ok = False
        if (a - b).alpha_cut(alpha) != a.alpha_cut(alpha) - b.alpha_cut(alpha):
            homomorphism_ok = False
        if a.scale(k).alpha_cut(alpha) != a.alpha_cut(alpha).scale(k):
            homomorphism_ok = False

    soundness_ok = True
    for _ in range(1000):
        lo1 = rng.uniform(0.001, 100.0)
        lo2 = rng.uniform(0.001, 100.0)
        p = Interval(lo1, lo1 + rng.uniform(0.0, 50.0))
        q = Interval(lo2, lo2 + rng.uniform(0.0, 50.0))
        x = p.lo + rng.uniform(0.0, 1.0) * (p.hi - p.lo)
        y = q.lo + rng.uniform(0.0, 1.0) * (q.hi - q.lo)
        if x not in p or y not in q:
            continue
        k = rng.uniform(-10.0, 10.0)
        checks = (
            (x + y) in (p + q),
            (x - y) in (p - q),
            (x * y) in (p * q),
            (x / y) in (p / q),
            (k * x) in p.scale(k),
        )
        if not all(checks):
            soundness_ok = False
    elapsed = time.perf_counter() - t0
    ok = homomorphism_ok and soundness_ok and elapsed < 10.0
    _report(
        8,
        "alpha-cut homomorphism and interval soundness suites",
        ok,
        f"1000 exact + 1000 sampled instances, {elapsed:.2f}s",
    )
