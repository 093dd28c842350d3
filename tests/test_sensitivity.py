"""Tests for the sweep runner and the reference-table audit."""

import dataclasses
import gc
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drawn_input
from domain import FAMILIES, reference_solve, valid_input
from fuzzy_eoq import (
    AUDIT_COLUMNS,
    REFERENCE_PARAMS,
    CrispParams,
    DomainError,
    FuzzySpreads,
    ReferenceRow,
    SweepSpec,
    audit_table,
    crisp_optimal,
    defuzzified_rates,
    fuzzy_optimal,
    load_reference_table,
    lot_cost,
    optimal_lot_size,
    run_sweep,
    truncated_baseline,
    zeta_quadrature,
)
from fuzzy_eoq.cli import main
from fuzzy_eoq.model import percent_deviation
from fuzzy_eoq.sensitivity import _audit, _audit_cell

NEGATIVE_ZETA_ROWS = (2, 3, 4, 5, 6, 9, 10, 11, 12, 15, 16, 17, 18)  # 1-based
CONFIG_ROWS = tuple(
    FuzzySpreads(**row)
    for row in json.loads((Path(__file__).parent / "golden" / "configs" / "sweep.json")
                          .read_text())["sweep"])
# the crisp optimum of these params is below one unit, so the whole-unit
# baseline cannot be built
BELOW_ONE_UNIT = CrispParams(600.0, 10.0, 10.0, 1e-6)
# a crisp cost of 1.78e308, so some reference rows' costs overflow
COST_EDGE = CrispParams(600.0, 10.0, 5.1e306, 5.1e306)
RNGS = st.randoms(use_true_random=False)


class TestReferenceTable:
    def test_shape(self):
        table = load_reference_table()
        assert len(table) == 18
        assert all(row.spreads.d1 in (100.0, 150.0, 200.0) for row in table)

    def test_blocks(self):
        table = load_reference_table()
        assert [row.delta for row in table[:6]] == [600.0] * 6
        assert [row.delta for row in table[6:12]] == [612.5] * 6
        assert [row.delta for row in table[12:]] == [625.0] * 6

    def test_spot_values(self):
        table = load_reference_table()
        assert table[0].zeta == 0.00162
        assert table[0].q_star == 109.456
        assert table[5].rel_q == 2.8410
        assert table[17].z_star == 1114.12

    def test_spreads_are_the_row_spreads(self):
        for row in load_reference_table():
            assert row.spreads == FuzzySpreads(row.d1, row.d2, row.d3, row.d4)

    def test_rows_are_still_plain_values(self):
        fields = (100.0, 100.0, 1.0, 1.0, 600.0, 0.00162, 109.456, 1099.76, 1.3478, -0.6943)
        row = load_reference_table()[0]
        row.spreads  # a property, no field: nothing below sees it
        fresh = ReferenceRow(*fields)
        assert row == fresh and hash(row) == hash(fresh)
        assert repr(row) == repr(fresh) == (
            "ReferenceRow(d1=100.0, d2=100.0, d3=1.0, d4=1.0, delta=600.0, zeta=0.00162, "
            "q_star=109.456, z_star=1099.76, rel_q=1.3478, rel_z=-0.6943)")
        assert dataclasses.astuple(row) == fields
        assert dataclasses.asdict(row) == dict(zip(
            ("d1", "d2", "d3", "d4", "delta", "zeta", "q_star", "z_star", "rel_q", "rel_z"),
            fields))
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.d1 = 1.0


def _seeded_rows(rng, p, n):
    """Valid spreads, bound violations of each kind, and spreads tiny
    against the rates."""
    rows = []
    for _ in range(n):
        sp = FuzzySpreads(*(rate * rng.uniform(0.01, 0.95)
                            for rate in (p.phi, p.phi, p.psi, p.psi)))
        kind = rng.randrange(6)
        if kind == 1:
            sp = FuzzySpreads(p.phi * rng.uniform(1.0, 1.5), sp.d2, sp.d3, sp.d4)
        elif kind == 2:
            sp = FuzzySpreads(sp.d1, p.phi * rng.uniform(1.0, 3.0), sp.d3, sp.d4)
        elif kind == 3:
            sp = FuzzySpreads(sp.d1, sp.d2, p.psi * rng.uniform(1.0, 1.5), sp.d4)
        elif kind == 4:
            sp = FuzzySpreads(sp.d1, sp.d2, sp.d3, p.psi * rng.uniform(1.0, 50.0))
        elif kind == 5:
            tiny = (p.phi + p.psi) * 1e-10
            sp = FuzzySpreads(tiny, tiny, tiny * 0.5, tiny * 0.5)
        rows.append(sp)
    return tuple(rows)


def _family_rows(rng, family, n):
    """``n`` spread rows under one ``CrispParams`` drawn from ``family``, and
    the family's ``relax_bounds``.  The first row is the draw's own spreads;
    each other row is another draw's spreads taken as the same shares of
    these rates, which may round out of the domain.  A share that over- or
    underflows at these rates builds no row."""
    p, spreads, relax = drawn_input(rng, family)
    rows = [spreads]
    for _ in range(n - 1):
        q, other, _ = drawn_input(rng, family)
        try:
            rows.append(FuzzySpreads(p.phi * (other.d1 / q.phi), p.phi * (other.d2 / q.phi),
                                     p.psi * (other.d3 / q.psi), p.psi * (other.d4 / q.psi)))
        except DomainError:
            pass
    return p, tuple(rows), relax


def _bits(record):
    return [getattr(record, field.name).hex() for field in dataclasses.fields(record)]


class TestSweep:
    def test_reference_rows_match_single_solves(self):
        rng = random.Random(20220218)
        cases = [(REFERENCE_PARAMS, tuple(row.spreads for row in load_reference_table()))]
        for _ in range(4):
            p = valid_input(rng, "ordinary")[0]
            cases.append((p, _seeded_rows(rng, p, 60)))
        for (n, (p, rows)), paper_baseline, relax_bounds in itertools.product(
            enumerate(cases), (False, True), (False, True)
        ):
            results = run_sweep(
                SweepSpec(p, rows), paper_baseline=paper_baseline, relax_bounds=relax_bounds
            )
            assert [res.spreads for res in results] == list(rows)
            if n == 0:  # every published row solves
                assert all(res.error is None for res in results)
            for res in results:
                try:
                    expected = reference_solve(p, res.spreads, paper_baseline, relax_bounds)
                except DomainError as exc:
                    assert res.record is None
                    assert res.error == str(exc)
                else:
                    assert res.error is None
                    assert res.record == expected

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=40)
    @given(case=RNGS)
    def test_every_family_matches_reference_solve(self, family, case):
        p, rows, relax = _family_rows(case, family, 6)
        for paper_baseline in (False, True):
            results = run_sweep(SweepSpec(p, rows), paper_baseline=paper_baseline,
                                relax_bounds=relax)
            assert [res.spreads for res in results] == list(rows)
            for res in results:
                try:
                    expected = reference_solve(p, res.spreads, paper_baseline, relax)
                except DomainError as exc:
                    assert (res.record, res.error) == (None, str(exc))
                else:
                    assert res.error is None
                    assert _bits(res.record) == _bits(expected)

    def test_unbuildable_baseline_reported_after_row_errors(self):
        # the crisp optimum of these params is below one unit, so the
        # whole-unit baseline cannot be built
        p = CrispParams(600, 10, 10, 1e-6)
        rows = (FuzzySpreads(1, 1, 1, 1), FuzzySpreads(700, 1, 1, 1))
        results = run_sweep(SweepSpec(p, rows), paper_baseline=True)
        baseline_error = ("the whole-unit baseline needs a crisp optimum and cost of at least "
                          "one unit (got q_star=0.010865749680948491, z_star=0.11043876724898467)")
        assert [res.record for res in results] == [None, None]
        assert [res.error for res in results] == [
            baseline_error,
            "d1 < phi violated (d1=700, phi=600)",
        ]
        with pytest.raises(DomainError, match=r"^d1 < phi violated"):
            fuzzy_optimal(p, rows[1], paper_baseline=True)
        with pytest.raises(DomainError) as raised:
            fuzzy_optimal(p, rows[0], paper_baseline=True)
        assert str(raised.value) == baseline_error

    def test_tiny_rates_return_rows(self):
        # squares of these rates and spreads would underflow binary64
        p = CrispParams(1e-300, 1e-300, 1.0, 1.0)
        sp = FuzzySpreads(1e-301, 1e-301, 1e-301, 1e-301)
        (res,) = run_sweep(SweepSpec(p, (sp,)))
        assert res.error is None
        assert math.isclose(res.record.zeta, zeta_quadrature(p.phi, p.psi, sp), rel_tol=1e-12)

    def test_near_degenerate_rows_never_run_quadrature(self, monkeypatch):
        p = REFERENCE_PARAMS
        tiny = (p.phi + p.psi) * 1e-10
        rows = (
            FuzzySpreads(3e-6, 100.0, 1e-7, 1.0),
            FuzzySpreads(tiny, tiny, tiny * 0.5, tiny * 0.5),
            FuzzySpreads(1e-9, 1e-9, 1e-12, 1e-12),
        )
        oracle = [zeta_quadrature(p.phi, p.psi, sp) for sp in rows]

        def refuse(*args, **kwargs):
            raise AssertionError("a solve ran quadrature")

        monkeypatch.setattr("fuzzy_eoq.fuzzy.gauss_kronrod", refuse)
        for paper_baseline in (False, True):
            results = run_sweep(SweepSpec(p, rows), paper_baseline=paper_baseline)
            for sp, res, want in zip(rows, results, oracle):
                assert res.record == fuzzy_optimal(p, sp, paper_baseline=paper_baseline)
                assert math.isclose(res.record.zeta, want, rel_tol=1e-12)

    def test_delta_blocks_exact(self):
        rows = tuple(row.spreads for row in load_reference_table())
        results = run_sweep(SweepSpec(REFERENCE_PARAMS, rows))
        deltas = [res.record.delta for res in results]
        assert deltas == [600.0] * 6 + [612.5] * 6 + [625.0] * 6

    def test_error_rows_collected_without_aborting(self):
        rows = (
            FuzzySpreads(100.0, 100.0, 1.0, 1.0),
            FuzzySpreads(100.0, 100.0, 15.0, 1.0),  # d3 >= psi for these params
            FuzzySpreads(150.0, 200.0, 1.0, 1.0),
        )
        results = run_sweep(SweepSpec(REFERENCE_PARAMS, rows))
        assert [res.error is None for res in results] == [True, False, True]
        assert "d3 < psi" in results[1].error
        assert results[2].record is not None

    def test_empty_spec_yields_empty_results(self):
        assert run_sweep(SweepSpec(REFERENCE_PARAMS, ())) == ()

    def test_deterministic_and_order_preserving(self):
        rows = tuple(row.spreads for row in load_reference_table())
        first = run_sweep(SweepSpec(REFERENCE_PARAMS, rows))
        second = run_sweep(SweepSpec(REFERENCE_PARAMS, rows))
        assert first == second
        reversed_results = run_sweep(SweepSpec(REFERENCE_PARAMS, rows[::-1]))
        assert [r.record for r in reversed_results] == [
            r.record for r in first[::-1]
        ]

    def test_paper_baseline_changes_only_rel_columns(self):
        rows = (FuzzySpreads(100.0, 100.0, 1.0, 1.0),)
        plain = run_sweep(SweepSpec(REFERENCE_PARAMS, rows))[0].record
        rounded = run_sweep(SweepSpec(REFERENCE_PARAMS, rows), paper_baseline=True)[0].record
        assert plain.q_star == rounded.q_star
        assert plain.z_star == rounded.z_star
        assert plain.rel_q != rounded.rel_q


class TestCollectorPause:
    """``run_sweep`` pauses the cyclic collector while it builds its rows and
    restores its state on every exit; the rows it builds hold no cycle."""

    # (params, rows, paper_baseline, which rows solve; None: the sweep raises)
    SWEEPS = {
        "clean": (REFERENCE_PARAMS, CONFIG_ROWS[:1], False, [True]),
        "row-errors": (REFERENCE_PARAMS, CONFIG_ROWS, False, [True, False, True, False]),
        "whole-unit-baseline": (BELOW_ONE_UNIT, CONFIG_ROWS, True, [False] * 4),
        "not-spreads": (REFERENCE_PARAMS, (CONFIG_ROWS[0], (100.0, 100.0, 1.0, 1.0)), False,
                        None),
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_state_is_restored(self, sweep, enabled):
        p, rows, paper_baseline, solved = self.SWEEPS[sweep]
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if solved is None:
                with pytest.raises(AttributeError):
                    run_sweep(SweepSpec(p, rows), paper_baseline=paper_baseline)
            else:
                results = run_sweep(SweepSpec(p, rows), paper_baseline=paper_baseline)
                assert [res.error is None for res in results] == solved
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_sweep_leaves_no_cyclic_garbage(self):
        p = REFERENCE_PARAMS
        sweeps = (
            (p, tuple(row.spreads for row in load_reference_table())),
            # d1 < phi, then d3 < psi broken
            (p, (FuzzySpreads(700.0, 1.0, 1.0, 1.0), FuzzySpreads(1.0, 1.0, 15.0, 1.0))),
            (BELOW_ONE_UNIT, CONFIG_ROWS),
        )
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for (params, rows), paper_baseline in itertools.product(sweeps, (False, True)):
                results = run_sweep(SweepSpec(params, rows), paper_baseline=paper_baseline)
                assert len(results) == len(rows)
            del results
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestAuditStructure:
    def test_dimensions(self):
        audit = audit_table()
        assert len(audit.rows) == 18
        for row in audit.rows:
            assert tuple(cell.column for cell in row.cells) == AUDIT_COLUMNS

    def test_default_params_are_the_worked_example(self):
        audit = audit_table()
        assert audit.params == REFERENCE_PARAMS
        assert audit_table(CrispParams(600.0, 10.0, 10.0, 100.0)) == audit


class TestAuditDefaultMode:
    def test_delta_column_reproduces(self):
        audit = audit_table()
        for row in audit.rows:
            cell = row.cell("delta")
            assert cell.passed is True
            assert cell.abs_dev <= 1e-9

    def test_zeta_column_deviates_informationally(self):
        audit = audit_table()
        for row in audit.rows:
            cell = row.cell("zeta")
            assert cell.passed is None
            assert cell.abs_dev > 1e-3  # nowhere near the published values

    def test_sign_contradictions_flagged(self):
        audit = audit_table()
        flagged = tuple(i + 1 for i in audit.sign_contradictions)
        assert flagged == NEGATIVE_ZETA_ROWS
        for row in audit.rows:
            assert row.zeta_sign_contradiction == (row.cell("zeta").paper <= 0.0)

    def test_hard_pass_with_deviations(self):
        audit = audit_table()
        assert audit.hard_pass
        assert len(audit.deviations) == 90  # all informational cells deviate
        assert all(column != "delta" for _, column in audit.deviations)


class TestAuditPaperBaselineMode:
    def test_replayed_columns_reproduce_within_tolerance(self):
        audit = audit_table(paper_baseline=True)
        assert audit.hard_pass
        for row in audit.rows:
            assert row.cell("q_star").passed is True
            assert row.cell("q_star").abs_dev < 0.01
            assert row.cell("z_star").passed is True
            assert row.cell("rel_q").passed is True
            assert row.cell("rel_q").abs_dev < 0.01

    def test_lot_sizes_land_on_print_precision(self):
        # everything but the known cost typo reproduces to ~print scale
        audit = audit_table(paper_baseline=True)
        for row in audit.rows:
            assert row.cell("q_star").abs_dev < 1e-3

    def test_known_cost_typo_is_the_only_large_cost_deviation(self):
        audit = audit_table(paper_baseline=True)
        devs = [row.cell("z_star").abs_dev for row in audit.rows]
        assert devs[0] > 1.0  # first row's published cost is off by ~3.4
        assert all(dev < 0.05 for dev in devs[1:])

    def test_zeta_still_informational(self):
        audit = audit_table(paper_baseline=True)
        assert len(audit.deviations) == 36  # zeta and rel_z cells
        columns = {column for _, column in audit.deviations}
        assert columns == {"zeta", "rel_z"}


class TestAuditCells:
    """Every cell against the public pieces, at params beyond the goldens."""

    # (tolerance, relative) per column, as the README states them
    TOLERANCES = {
        False: {
            "delta": (1e-9, False), "zeta": (None, False), "q_star": (None, False),
            "z_star": (None, False), "rel_q": (None, False), "rel_z": (None, False),
        },
        True: {
            "delta": (1e-9, False), "zeta": (None, False), "q_star": (0.005, True),
            "z_star": (0.005, True), "rel_q": (0.01, False), "rel_z": (None, False),
        },
    }

    @pytest.mark.parametrize("paper_baseline", [False, True])
    @pytest.mark.parametrize(
        "p",
        [REFERENCE_PARAMS, CrispParams(900.0, 30.0, 2.5, 40.0), CrispParams(1e6, 50.0, 1e-3, 1e4)],
    )
    def test_cells_are_the_lot_rule_against_the_baseline(self, p, paper_baseline):
        # paper mode replays the published zeta through the lot rule
        base = crisp_optimal(p)
        if paper_baseline:
            base = truncated_baseline(base)
        audit = audit_table(p, paper_baseline=paper_baseline)
        assert audit.params == p and audit.paper_baseline == paper_baseline
        for ref, row in zip(load_reference_table(), audit.rows, strict=True):
            d, z = defuzzified_rates(p.phi, p.psi, ref.spreads)
            zeta_value = ref.zeta if paper_baseline else z
            q = optimal_lot_size(p.s, p.h, d, zeta_value)
            z_star = lot_cost(q, p.s, p.h, d, zeta_value)
            want = (
                d, z, q, z_star,
                percent_deviation(q, base.q_star), percent_deviation(z_star, base.z_star),
            )
            assert [cell.recomputed.hex() for cell in row.cells] == [v.hex() for v in want]
            assert [cell.paper for cell in row.cells] == [
                getattr(ref, column) for column in AUDIT_COLUMNS
            ]
            assert {
                cell.column: (cell.tolerance, cell.relative) for cell in row.cells
            } == self.TOLERANCES[paper_baseline]
            for cell in row.cells:
                abs_dev = abs(cell.recomputed - cell.paper)
                rel_dev = abs_dev / abs(cell.paper)  # no published value is zero
                assert (cell.abs_dev.hex(), cell.rel_dev.hex()) == (abs_dev.hex(), rel_dev.hex())
                tolerance, relative = self.TOLERANCES[paper_baseline][cell.column]
                passed = None if tolerance is None else (
                    (rel_dev if relative else abs_dev) <= tolerance)
                assert cell.passed is passed
            assert row.spreads == ref.spreads
            assert row.zeta_sign_contradiction == (ref.zeta <= 0.0)

    def test_relative_deviation_from_a_published_zero(self):
        # the bundled table has no zero, so the rule is pinned on the cell itself
        for recomputed, paper, tolerance, relative, want in [
            (0.0, 0.0, None, False, (0.0, 0.0, None)),
            (0.0, -0.0, 0.005, True, (0.0, 0.0, True)),
            (1e-300, 0.0, 0.005, True, (1e-300, math.inf, False)),
            (1e-300, 0.0, 0.01, False, (1e-300, math.inf, True)),
            # exact deviations equal to the tolerance pass
            (1.5, 1.0, 0.5, False, (0.5, 0.5, True)),
            (1.25, 1.0, 0.25, True, (0.25, 0.25, True)),
        ]:
            cell = _audit_cell("rel_z", recomputed, paper, tolerance, relative)
            assert (cell.abs_dev, cell.rel_dev, cell.passed) == want


class TestAuditErrors:
    def test_params_incompatible_with_table_raise(self):
        # psi below the table's leakage spreads cannot replay the rows
        with pytest.raises(DomainError, match="d3 < psi"):
            audit_table(CrispParams(600.0, 5.0, 10.0, 100.0))

    def test_overflowing_row_cost_raises_as_its_solve_does(self):
        # the crisp cost is 1.78e308; row 7's is past the largest float
        assert crisp_optimal(COST_EDGE).z_star < math.inf
        row = load_reference_table()[6]
        with pytest.raises(DomainError) as solve:
            fuzzy_optimal(COST_EDGE, row.spreads)
        with pytest.raises(DomainError) as audit:
            audit_table(COST_EDGE)
        assert str(audit.value) == str(solve.value) == "z_star must be finite (got inf)"


class TestAuditCache:
    """Each (params, mode) audit is computed once per process and kept."""

    def test_same_audit_on_every_call(self):
        assert audit_table() is audit_table()
        assert audit_table(REFERENCE_PARAMS) is audit_table()
        assert audit_table(CrispParams(600.0, 10.0, 10.0, 100.0)) is audit_table()
        assert audit_table(paper_baseline=True) is audit_table(paper_baseline=True)

    def test_mode_is_kept_as_a_bool(self):
        assert audit_table(paper_baseline=1) is audit_table(paper_baseline=True)
        assert audit_table(paper_baseline=1).paper_baseline is True

    def test_modes_are_kept_apart(self):
        default, paper = audit_table(), audit_table(paper_baseline=True)
        assert default is not paper
        assert (default.paper_baseline, paper.paper_baseline) == (False, True)

    @pytest.mark.parametrize("p, paper_baseline, message", [
        # a row's error
        (CrispParams(600.0, 5.0, 10.0, 100.0), False, r"d3 < psi violated"),
        # the baseline's errors come before any row's: row 1 breaks d1 < phi here
        (CrispParams(50.0, 10.0, 10.0, 1e-6), True,
         r"the whole-unit baseline needs a crisp optimum and cost of at least one unit"),
        (CrispParams(1.7e16, 1.0, 1e-300, 1e300), False, r"q must be finite \(got inf\)$"),
        # the baseline's cost is finite and a row's overflows: the row's
        # record rejects it, as a solve of that row does
        (COST_EDGE, False, r"z_star must be finite \(got inf\)$"),
        (COST_EDGE, True, r"z_star must be finite \(got inf\)$"),
    ], ids=["row", "whole-unit-baseline", "baseline-overflow", "row-cost-overflow",
            "paper-row-cost-overflow"])
    def test_failures_are_not_kept(self, p, paper_baseline, message):
        size = _audit.cache_info().currsize
        errors = []
        for _ in range(2):
            with pytest.raises(DomainError, match=f"^{message}") as info:
                audit_table(p, paper_baseline=paper_baseline)
            errors.append(info.value)
        assert errors[0] is not errors[1]
        assert _audit.cache_info().currsize == size

    def test_at_most_eight_audits_are_kept(self):
        for h in range(1, 11):
            audit_table(CrispParams(600.0, 10.0, float(h), 100.0))
        assert _audit.cache_info().currsize == 8

    def test_replace_leaves_the_kept_audit_unchanged(self):
        audit = audit_table()
        rows = tuple(dataclasses.replace(row, zeta_sign_contradiction=False) for row in audit.rows)
        changed = dataclasses.replace(audit, rows=rows)
        assert changed.sign_contradictions == ()
        assert audit_table() is audit
        assert len(audit.sign_contradictions) == len(NEGATIVE_ZETA_ROWS)
        assert all(row.zeta_sign_contradiction for row in audit.rows
                   if row.index + 1 in NEGATIVE_ZETA_ROWS)

    @pytest.mark.parametrize("mode", [[], ["--paper-baseline"]], ids=["default", "paper"])
    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_verify_table_writes_the_same_bytes_twice(self, capsys, fmt, mode):
        _audit.cache_clear()
        outputs = []
        for _ in range(2):
            code = main(["verify-table", *mode, "--format", fmt])
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 1
