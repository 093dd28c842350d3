"""End-to-end tests for the command-line interface."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fuzzy_eoq.cli
import fuzzy_eoq.model
import fuzzy_eoq.sensitivity
from fuzzy_eoq import (
    REFERENCE_PARAMS,
    CrispParams,
    DomainError,
    FuzzySpreads,
    QuadratureError,
    SweepSpec,
    audit_table,
    crisp_optimal,
    fuzzy_optimal,
    load_reference_table,
    run_sweep,
    zeta_quadrature,
)
from fuzzy_eoq.cli import _RENDERERS, _SWEEP_ROW_JSON, main

from conftest import drawn_input

ROW1_FLAGS = ["--d1", "100", "--d2", "100", "--d3", "1", "--d4", "1"]
PARAM_KEYS = ("phi", "psi", "h", "s")
SPREAD_KEYS = ("d1", "d2", "d3", "d4")
RECORD_KEYS = ("delta", "zeta", "q_star", "z_star", "rel_q", "rel_z")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(argv):
    """``main(argv)`` with its output captured, for tests that take no capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def generic_sweep_outputs(entries, paper, relax):
    """Exit code, JSON, CSV and stderr of a config sweep, written the generic
    way: a dict per row through ``json.dumps(indent=2)``, and ``csv.writer``
    over ``repr(float(value))`` cells."""
    spreads = tuple(FuzzySpreads(*(float(e[k]) for k in SPREAD_KEYS)) for e in entries)
    results = run_sweep(SweepSpec(REFERENCE_PARAMS, spreads), paper_baseline=paper,
                        relax_bounds=relax)
    solved = [r for r in results if r.record is not None]
    failed = [r for r in results if r.record is None]
    payload = {
        "params": dataclasses.asdict(REFERENCE_PARAMS),
        "paper_baseline": paper,
        "relax_bounds": relax,
        "rows": [{"row": r.index + 1, "spreads": dataclasses.asdict(r.spreads),
                  **dataclasses.asdict(r.record)} for r in solved],
        "errors": [{"row": r.index + 1, "error": r.error} for r in failed],
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*SPREAD_KEYS, *RECORD_KEYS])
    writer.writerows(
        [repr(float(v)) for v in (*dataclasses.astuple(r.spreads), *dataclasses.astuple(r.record))]
        for r in solved
    )
    err = "".join(f"row {r.index + 1}: {r.error}\n" for r in failed)
    return 1 if failed else 0, json.dumps(payload, indent=2) + "\n", buf.getvalue(), err


# spread values across the domain: ordinary, int-valued, subnormal, and huge
# enough that the relaxed upper spreads overflow phi + psi + d2 + d4
SPREAD_VALUES = st.one_of(
    st.floats(1e-3, 700.0),
    st.integers(1, 700),
    st.sampled_from([5e-324, 2.5e-320, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308]),
)
VALID_ROW = {"d1": 100, "d2": 100.5, "d3": 1, "d4": 1e-310}
FAILING_ROW = {"d1": 700.0, "d2": 1, "d3": 1, "d4": 1}


class TestCrisp:
    def test_default_params_human(self, capsys):
        code, out, err = run(capsys, ["crisp"])
        assert code == 0
        assert "108.657" in out
        assert "1104.38" in out
        assert err == ""

    def test_json_round_trips_exactly(self, capsys):
        code, out, _ = run(capsys, ["crisp", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        rec = crisp_optimal(REFERENCE_PARAMS)
        assert payload["record"]["q_star"] == rec.q_star
        assert payload["record"]["z_star"] == rec.z_star
        assert payload["params"] == {"phi": 600.0, "psi": 10.0, "h": 10.0, "s": 100.0}

    def test_csv_round_trips_exactly(self, capsys):
        code, out, _ = run(capsys, ["crisp", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 1
        rec = crisp_optimal(REFERENCE_PARAMS)
        assert float(rows[0]["q_star"]) == rec.q_star

    def test_param_overrides(self, capsys):
        code, out, _ = run(capsys, ["crisp", "--psi", "0", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert math.isclose(payload["record"]["q_star"], math.sqrt(12000.0), rel_tol=1e-12)

    def test_invalid_params_exit_2(self, capsys):
        code, out, err = run(capsys, ["crisp", "--h", "0"])
        assert code == 2
        assert "h > 0 violated" in err
        assert out == ""

    def test_overflowing_combined_rate_exits_2(self, capsys):
        argv = ["crisp", "--phi", "1e308", "--psi", "1e308", "--h", "1", "--s", "1e-300"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: phi + psi must be finite (got inf)\n"

    def test_huge_setup_cost_solves(self, capsys):
        # 2 s phi overflows; q* is about 3.4e154 and its cost about 3.5e154
        code, out, err = run(capsys, ["crisp", "--s", "1e306", "--h", "1", "--format", "json"])
        assert (code, err) == (0, "")
        record = json.loads(out)["record"]
        p = CrispParams(600.0, 10.0, 1.0, 1e306)
        assert record == dataclasses.asdict(crisp_optimal(p))
        q_star = math.sqrt(1200.0 / (1.0 + 10.0 / 610.0)) * 1e153
        assert math.isclose(record["q_star"], q_star, rel_tol=1e-15)

    def test_huge_rates_solve(self, capsys):
        # the cost term psi * q * h overflowed, giving exit 2 on a valid problem
        code, out, err = run(capsys, ["crisp", "--phi", "1e300", "--psi", "1e300"])
        assert (code, err) == (0, "")
        assert "cost: 5.47722557505e+151" in out


class TestFuzzy:
    def test_human_report_shows_both_zeta_routes(self, capsys):
        code, out, _ = run(capsys, ["fuzzy", *ROW1_FLAGS])
        assert code == 0
        sp = FuzzySpreads(100, 100, 1, 1)
        closed = fuzzy_optimal(REFERENCE_PARAMS, sp).zeta
        quad = zeta_quadrature(600.0, 10.0, sp)
        assert math.isclose(closed, quad, rel_tol=1e-12)
        assert f"zeta closed form: {closed:.12g}\n" in out
        assert f"zeta quadrature:  {quad:.12g}\n" in out
        assert "zeta route" not in out
        assert "108.644" in out

    def test_json_round_trips_exactly(self, capsys):
        code, out, _ = run(capsys, ["fuzzy", *ROW1_FLAGS, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        rec = fuzzy_optimal(REFERENCE_PARAMS, FuzzySpreads(100, 100, 1, 1))
        assert payload["record"] == dataclasses.asdict(rec)
        assert payload["zeta_closed_form"] == rec.zeta
        assert math.isclose(rec.zeta, payload["zeta_quadrature"], rel_tol=1e-12)
        assert "zeta_route" not in payload

    def test_missing_spreads_exit_2(self, capsys):
        code, _, err = run(capsys, ["fuzzy"])
        assert code == 2
        assert "requires spreads" in err

    def test_partial_spreads_exit_2(self, capsys):
        code, _, err = run(capsys, ["fuzzy", "--d1", "100"])
        assert code == 2
        assert "missing" in err

    def test_spread_bound_violation_exit_2(self, capsys):
        code, _, err = run(capsys, ["fuzzy", "--d1", "100", "--d2", "100", "--d3", "15", "--d4", "1"])
        assert code == 2
        assert "d3 < psi violated" in err

    def test_relax_bounds_lifts_upper_spread(self, capsys):
        argv = ["fuzzy", "--d1", "100", "--d2", "900", "--d3", "1", "--d4", "1"]
        code, _, err = run(capsys, argv)
        assert code == 2 and "d2 < phi" in err
        code, out, _ = run(capsys, [*argv, "--relax-bounds", "--format", "json"])
        assert code == 0
        assert json.loads(out)["record"]["delta"] == 800.0

    def test_paper_baseline_reports_truncated_units(self, capsys):
        code, out, _ = run(capsys, ["fuzzy", *ROW1_FLAGS, "--paper-baseline", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["baseline"] == {"q_star": 108.0, "z_star": 1104.0}

    def test_near_degenerate_spreads_match_quadrature(self, capsys):
        argv = ["fuzzy", "--d1", "3e-6", "--d2", "100", "--d3", "1e-7", "--d4", "1"]
        code, out, _ = run(capsys, [*argv, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["zeta_closed_form"] == payload["record"]["zeta"]
        assert math.isclose(
            payload["zeta_closed_form"], payload["zeta_quadrature"], rel_tol=1e-12
        )

    def test_lower_spreads_next_to_the_bounds_solve(self, capsys):
        # d1 and d3 a fraction about 1e-9 below their rates: per-panel
        # tolerances fell below rounding noise and the oracle exited 2
        argv = ["fuzzy", "--d1", "599.999999", "--d2", "1", "--d3", "9.99999999", "--d4", "1"]
        code, out, err = run(capsys, [*argv, "--format", "json"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert math.isclose(
            payload["zeta_quadrature"], payload["zeta_closed_form"], rel_tol=1e-12
        )

    # At rates near 1e300 the crisp baseline's cost term psi * q * h
    # overflows for the default h and s, so the two large-rate inputs set
    # h = 1 and a tiny s to keep the baseline in range.
    @pytest.mark.parametrize("argv", [
        ["--phi", "1e-300", "--psi", "1e-300",
         "--d1", "1e-301", "--d2", "1e-301", "--d3", "1e-301", "--d4", "1e-301"],
        ["--phi", "1e300", "--psi", "1e300", "--h", "1", "--s", "1e-290",
         "--d1", "5e299", "--d2", "5e299", "--d3", "5e299", "--d4", "5e299"],
        ["--phi", "1e308", "--psi", "1e307", "--h", "1", "--s", "1e-307",
         "--d1", "5e307", "--d2", "5e307", "--d3", "5e306", "--d4", "5e306"],
        # a leak fraction of 1e-10: the oracle's stop is scaled from the cut endpoints
        ["--phi", "1", "--psi", "1e-10", "--d1", "0.5", "--d2", "0.5",
         "--d3", "5e-11", "--d4", "5e-11"],
        # x = d6/eta underflows to 0 while d3/d6 overflows: (d3/d6) g(x) was
        # inf * 0, and the call exited 2 with "zeta must be finite (got nan)"
        ["--phi", "1469516.8582250515", "--psi", "9.689232406243604e+134",
         "--d1", "5.583931377191346e-172", "--d2", "3.3213145525315674e-277",
         "--d3", "2.1019611373856962e+98", "--d4", "5e-324"],
    ])
    def test_binary64_extreme_rates_solve(self, capsys, argv):
        code, out, err = run(capsys, ["fuzzy", *argv, "--format", "json"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        closed = payload["zeta_closed_form"]
        assert math.isfinite(closed)
        assert math.isclose(closed, payload["zeta_quadrature"], rel_tol=1e-12)

    @pytest.mark.parametrize("d4", ["1e9", "1e10", "1e11", "1e17", "1e100"])
    def test_huge_relaxed_upper_spread_finishes(self, capsys, d4):
        # an absolute quadrature stop never settled on these (killed after
        # 20 s), and at 1e100 a cut denominator cancelled to 0
        argv = ["fuzzy", "--relax-bounds", "--d1", "1", "--d2", "1", "--d3", "1",
                "--d4", d4, "--format", "json"]
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert math.isclose(
            payload["zeta_quadrature"], payload["zeta_closed_form"], rel_tol=1e-12
        )

    def test_overflowing_cut_denominator_exits_2(self, capsys):
        # phi + psi + d2 + d4 overflows; the oracle once printed 0.04545
        # against the closed form's 0.07779
        argv = ["fuzzy", "--phi", "1e308", "--psi", "1e307", "--h", "1", "--s", "1e-307",
                "--d1", "1", "--d2", "1e308", "--d3", "1", "--d4", "1", "--relax-bounds"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: phi + psi + d2 + d4 must be finite (got inf)\n"

    # the oracle's largest cut end (phi + d2) + (psi + d4): it overflows on the
    # first, and the command exited 2 with "beta3 must be finite" after its
    # solve succeeded; only (phi + psi) + (d2 + d4) overflows on the second,
    # which every route rejected
    FORWARD_EDGE = ["--phi", "6.944734121350037e+306", "--psi", "9.500246318569825e+307",
                    "--d1", "6.8893123283304e+306", "--d2", "5.596106290158956e+307",
                    "--d3", "6.267241213306131e+307", "--d4", "2.1861053277593728e+307"]
    REVERSE_EDGE = ["--phi", "2.759687991538873e+307", "--psi", "3.290291951548212e+307",
                    "--d1", "1.3798439957694365e+307", "--d2", "1.3896026207872683e+307",
                    "--d3", "1.645145975774106e+307", "--d4", "1.0537348784748804e+308"]

    def test_overflowing_cut_end_exits_2(self, capsys):
        code, out, err = run(capsys, ["fuzzy", *self.FORWARD_EDGE, "--relax-bounds"])
        assert (code, out) == (2, "")
        assert err == "error: phi + psi + d2 + d4 must be finite (got inf)\n"

    def test_finite_cut_end_solves(self, capsys):
        argv = ["fuzzy", *self.REVERSE_EDGE, "--relax-bounds", "--format", "json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["zeta_closed_form"] == payload["zeta_quadrature"] == 1.1691318070078538

    def test_overflowing_lot_size_exits_2(self, capsys):
        # q* = sqrt(2 * 1e300 * 1e300 / 1e-300) is about 1.4e450
        argv = ["fuzzy", "--phi", "1e300", "--s", "1e300", "--h", "1e-300",
                "--d1", "1", "--d2", "1", "--d3", "1", "--d4", "1"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: q must be finite (got inf)\n"

    def test_lot_size_past_an_overflowing_product_solves(self, capsys):
        # 2 s delta overflows, but q* = sqrt(2e600 / 10) = sqrt(0.2) 1e300
        argv = ["fuzzy", "--phi", "1e300", "--s", "1e300",
                "--d1", "1", "--d2", "1", "--d3", "1", "--d4", "1", "--format", "json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        record = json.loads(out)["record"]
        q_star = math.sqrt(0.2) * 1e300
        assert math.isclose(record["q_star"], q_star, rel_tol=1e-15)
        assert math.isclose(record["z_star"], 10.0 * q_star, rel_tol=1e-12)

    def test_subnormal_delta_is_not_rounded_into_the_optimum(self, capsys):
        # delta = 7.5 * 2**-1074 rounds to 8 * 2**-1074, printed 4e-323, 6.7 % above it;
        # q* and Z* come from 4 delta = 30 * 2**-1074, which is exact.  The references
        # are 60-digit evaluations from the exact delta and the printed zeta
        argv = ["fuzzy", "--phi", "4e-323", "--psi", "1e-323", "--h", "18.09589962483555",
                "--s", "54.72878854872085", "--d1", "1.5e-323", "--d2", "5e-324",
                "--d3", "5e-324", "--d4", "5e-324", "--format", "csv"]
        code, out, _ = run(capsys, argv)
        row = next(csv.DictReader(out.splitlines()))
        assert (code, row["delta"], row["zeta"]) == (0, "4e-323", "0.23140213775779034")
        assert math.isclose(float(row["q_star"]), 1.349136321407059e-161, rel_tol=1e-15)
        assert math.isclose(float(row["z_star"]), 3.0063249166954765e-160, rel_tol=1e-15)


class TestSweep:
    def test_reference_csv(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--reference", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 18
        assert [float(r["delta"]) for r in rows[:6]] == [600.0] * 6
        # csv cells round-trip binary64 exactly
        rec = fuzzy_optimal(REFERENCE_PARAMS, FuzzySpreads(100, 100, 1, 1))
        assert float(rows[0]["q_star"]) == rec.q_star
        assert float(rows[0]["zeta"]) == rec.zeta

    def test_config_rows_with_failures_exit_1(self, capsys, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "sweep": [
                {"d1": 100, "d2": 100, "d3": 1, "d4": 1},
                {"d1": 100, "d2": 100, "d3": 15, "d4": 1},
                {"d1": 150, "d2": 200, "d3": 1, "d4": 1},
            ]
        }))
        code, out, err = run(capsys, ["sweep", "--config", str(config), "--format", "csv"])
        assert code == 1
        assert "row 2: d3 < psi violated" in err
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 2  # failing row omitted from the data

    def test_json_payload_reports_errors(self, capsys, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "sweep": [
                {"d1": 100, "d2": 100, "d3": 1, "d4": 1},
                {"d1": 100, "d2": 100, "d3": 15, "d4": 1},
            ]
        }))
        code, out, _ = run(capsys, ["sweep", "--config", str(config), "--format", "json"])
        assert code == 1
        payload = json.loads(out)
        assert len(payload["rows"]) == 1
        assert payload["errors"][0]["row"] == 2

    def test_no_rows_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["sweep"])
        assert code == 2
        assert "sweep requires rows" in err
        config = tmp_path / "empty.json"
        config.write_text(json.dumps({"sweep": []}))
        code, _, err = run(capsys, ["sweep", "--config", str(config)])
        assert code == 2

    def test_config_params_honored_and_flags_override(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "params": {"phi": 600, "psi": 20, "h": 10, "s": 100},
            "sweep": [{"d1": 100, "d2": 100, "d3": 15, "d4": 1}],
        }))
        # psi=20 from config makes d3=15 valid
        code, _, err = run(capsys, ["sweep", "--config", str(config)])
        assert code == 0
        # flag override back to psi=10 re-breaks it
        code, _, err = run(capsys, ["sweep", "--config", str(config), "--psi", "10"])
        assert code == 1
        assert "d3 < psi" in err

    def test_malformed_row_is_config_error(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"sweep": [{"d1": -1, "d2": 100, "d3": 1, "d4": 1}]}))
        code, _, err = run(capsys, ["sweep", "--config", str(config)])
        assert code == 2
        assert "sweep[0]" in err

    def test_reference_plus_config_sweep_conflict(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sweep": [{"d1": 100, "d2": 100, "d3": 1, "d4": 1}]}))
        code, _, err = run(capsys, ["sweep", "--reference", "--config", str(config)])
        assert code == 2
        assert "not both" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, ["sweep", "--reference", "--format", "csv", "--out", str(target)])
        assert code == 0
        assert out == ""
        rows = list(csv.DictReader(target.read_text().splitlines()))
        assert len(rows) == 18


class TestSweepOutputBytes:
    """The sweep writes its solved rows from one template per format; the
    bytes equal those of the generic renderers, ``json.dumps(indent=2)`` and
    ``csv.writer``."""

    @given(
        entries=st.lists(st.fixed_dictionaries({k: SPREAD_VALUES for k in SPREAD_KEYS}),
                         min_size=1, max_size=8),
        paper=st.booleans(),
        relax=st.booleans(),
    )
    @example(entries=[VALID_ROW, VALID_ROW], paper=False, relax=False)  # no errors
    @example(entries=[FAILING_ROW], paper=True, relax=True)  # "rows": []
    def test_json_and_csv_equal_the_generic_route(self, tmp_path_factory, entries, paper, relax):
        config = tmp_path_factory.mktemp("sweep") / "sweep.json"
        config.write_text(json.dumps({"sweep": entries}))
        flags = ["--paper-baseline"] * paper + ["--relax-bounds"] * relax
        code, json_text, csv_text, err = generic_sweep_outputs(entries, paper, relax)
        for fmt, expected in (("json", json_text), ("csv", csv_text)):
            argv = ["sweep", "--config", str(config), *flags, "--format", fmt]
            assert run_captured(argv) == (code, expected, err)

    @pytest.mark.parametrize("entries, error", [
        ([VALID_ROW, FAILING_ROW, VALID_ROW], None),  # solved and failed rows
        ([FAILING_ROW, FAILING_ROW], None),  # "rows": []
        ([VALID_ROW, VALID_ROW], None),  # "errors": []
        ([FAILING_ROW, VALID_ROW, FAILING_ROW],
         'say "100%" %r %s back\\slash Ωmega – ü \U0001f600'),
        ([VALID_ROW, FAILING_ROW], "\x00"),  # the text that stands for "rows" until its splice
        *(([FAILING_ROW, VALID_ROW], text) for text in [
            "", 'say "hi"', "back\\slash", "100%", "%r %s %%", "nul\x00byte", "\x01 \x1f \x7f",
            "Ωmega – ü", "\U0001f600", "\ud800",
        ]),
    ])
    def test_json_is_json_dumps_of_the_rows(self, monkeypatch, tmp_path, entries, error):
        if error is not None:  # each failing row's message replaced by error
            def solve(*args, real=fuzzy_eoq.sensitivity._solve):
                try:
                    return real(*args)
                except DomainError:
                    raise DomainError(error) from None
            monkeypatch.setattr(fuzzy_eoq.sensitivity, "_solve", solve)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"sweep": entries}))
        code, json_text, _, err = generic_sweep_outputs(entries, False, False)
        errors = json.loads(json_text)["errors"]
        assert len(errors) == entries.count(FAILING_ROW)
        assert error is None or all(e["error"] == error for e in errors)
        argv = ["sweep", "--config", str(config), "--format", "json"]
        assert run_captured(argv) == (code, json_text, err)

    @pytest.mark.parametrize("value", [
        0, -7, 10**20, 0.0, -0.0, 0.1, 1e-09, 5e-324, 1e-310, 2.2250738585072014e-308,
        1.7976931348623157e308,
    ])
    def test_row_template_writes_each_value_as_json(self, value):
        # each slot of the solved row's template holds a finite float or an int
        # (the row number); json writes either as its repr
        row = {"row": value, "spreads": dict.fromkeys(SPREAD_KEYS, value),
               **dict.fromkeys(RECORD_KEYS, value)}
        filled = _SWEEP_ROW_JSON % ((value,) * (1 + len(SPREAD_KEYS) + len(RECORD_KEYS)))
        assert '{\n  "rows": [\n    ' + filled + "\n  ]\n}" == json.dumps({"rows": [row]}, indent=2)

    def test_large_config_parses_back_bit_for_bit(self, tmp_path):
        rng = random.Random(7)
        entries = [
            {"d1": 600.0 * rng.uniform(1.0, 1.5) if rng.random() < 0.05
             else 600.0 * rng.uniform(0.01, 0.95),
             "d2": 600.0 * rng.uniform(0.01, 0.95),
             "d3": 10.0 * rng.uniform(0.01, 0.95),
             "d4": 10.0 * rng.uniform(0.01, 0.95)}
            for _ in range(20_000)
        ]
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"sweep": entries}))
        results = run_sweep(SweepSpec(REFERENCE_PARAMS, tuple(FuzzySpreads(**e) for e in entries)))
        solved = [r for r in results if r.record is not None]
        failed = [r.index + 1 for r in results if r.record is None]
        expected = [[*dataclasses.astuple(r.spreads), *dataclasses.astuple(r.record)]
                    for r in solved]
        assert solved and failed

        code, out, err = run_captured(["sweep", "--config", str(config), "--format", "csv"])
        assert code == 1 and len(err.splitlines()) == len(failed)
        table = list(csv.reader(out.splitlines()))
        assert table[0] == [*SPREAD_KEYS, *RECORD_KEYS]
        assert [[float(cell) for cell in line] for line in table[1:]] == expected

        code, out, _ = run_captured(["sweep", "--config", str(config), "--format", "json"])
        payload = json.loads(out)
        assert code == 1 and [e["row"] for e in payload["errors"]] == failed
        assert [row["row"] for row in payload["rows"]] == [r.index + 1 for r in solved]
        assert [[*row["spreads"].values(), *(row[k] for k in RECORD_KEYS)]
                for row in payload["rows"]] == expected


# parameters under which every command solves, the audit included: the rates
# exceed every reference spread, and the crisp optimum and cost exceed one unit
LAYOUT_PARAMS = st.builds(
    CrispParams,
    phi=st.floats(301.0, 1e5), psi=st.floats(8.0, 300.0), h=st.floats(0.1, 100.0),
    s=st.floats(1.0, 1e4),
)
FLAG_SETS = ([], ["--paper-baseline"], ["--relax-bounds"], ["--paper-baseline", "--relax-bounds"])


def as_indented_json(text):
    """``text`` as ``json.dumps(indent=2)`` writes what it holds."""
    return json.dumps(json.loads(text), indent=2) + "\n"


class TestJsonLayout:
    """Every JSON answer is the text ``json.dumps(indent=2)`` gives for what it holds."""

    @given(
        p=LAYOUT_PARAMS,
        fractions=st.tuples(*[st.floats(0.01, 0.95)] * 4),
        rows=st.lists(st.booleans(), min_size=1, max_size=4),  # False: a failing row
        flags=st.sampled_from(FLAG_SETS),
    )
    @example(p=REFERENCE_PARAMS, fractions=(0.5,) * 4, rows=[False], flags=[])  # "rows": []
    @example(p=REFERENCE_PARAMS, fractions=(0.5,) * 4, rows=[True], flags=[])  # "errors": []
    def test_every_command_writes_indented_json(self, tmp_path_factory, p, fractions, rows, flags):
        sp = dict(zip(SPREAD_KEYS, (p.phi * fractions[0], p.phi * fractions[1],
                                    p.psi * fractions[2], p.psi * fractions[3])))
        config = tmp_path_factory.mktemp("layout") / "sweep.json"
        entries = [sp if valid else {**sp, "d1": p.phi * 1.5} for valid in rows]
        config.write_text(json.dumps({"params": dataclasses.asdict(p), "sweep": entries}))
        params = [arg for key, value in dataclasses.asdict(p).items()
                  for arg in (f"--{key}", repr(value))]
        spreads = [arg for key, value in sp.items() for arg in (f"--{key}", repr(value))]
        commands = (["crisp", *params], ["fuzzy", *params, *spreads],
                    ["sweep", "--reference", *params], ["sweep", "--config", str(config)],
                    ["verify-table", *params])
        for argv in commands:
            code, out, err = run_captured([*argv, *flags, "--format", "json"])
            assert code in (0, 1), err
            assert out == as_indented_json(out)
        mode = "paper-baseline" if "--paper-baseline" in flags else "recomputed"
        assert json.loads(out)["mode"] == mode

    def test_audit_without_contradictions_writes_an_empty_list(self, monkeypatch):
        def no_contradictions(*args, **kwargs):
            audit = audit_table(*args, **kwargs)
            rows = tuple(dataclasses.replace(row, zeta_sign_contradiction=False)
                         for row in audit.rows)
            return dataclasses.replace(audit, rows=rows)

        monkeypatch.setattr("fuzzy_eoq.cli.audit_table", no_contradictions)
        code, out, _ = run_captured(["verify-table", "--format", "json"])
        assert code == 1
        assert '\n  "sign_contradiction_rows": [],\n' in out
        assert out == as_indented_json(out)

    @pytest.mark.parametrize("paper", [False, True])
    def test_audit_cells_match_the_audit_at_other_params(self, paper):
        params = CrispParams(phi=700.0, psi=20.0, h=10.0, s=100.0)
        flags = ["--phi", "700", "--psi", "20"] + (["--paper-baseline"] if paper else [])
        code, out, _ = run_captured(["verify-table", *flags, "--format", "json"])
        audit = audit_table(params, paper_baseline=paper)
        assert code == (0 if audit.hard_pass and not audit.deviations else 1)
        rows = json.loads(out)["rows"]
        assert len(rows) == len(audit.rows)
        for row, audit_row in zip(rows, audit.rows):
            assert len(row["cells"]) == len(audit_row.cells)
            for cell, expected in zip(row["cells"], audit_row.cells):
                for key in ("column", "tolerance", "relative", "passed", "recomputed", "paper"):
                    value = getattr(expected, key)
                    assert cell[key] == value and type(cell[key]) is type(value), key


class TestVerifyTable:
    def test_default_mode_exits_1_with_deviations(self, capsys):
        code, out, _ = run(capsys, ["verify-table"])
        assert code == 1
        assert "hard checks: PASS" in out
        assert "sign contradictions: 13 rows" in out

    def test_paper_baseline_hard_columns_pass(self, capsys):
        code, out, _ = run(capsys, ["verify-table", "--paper-baseline"])
        assert code == 1  # zeta column still deviates informationally
        assert "hard checks: PASS" in out
        assert "18/18 pass" in out

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, ["verify-table", "--format", "csv"])
        assert code == 1
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 18
        first = rows[0]
        for column in ("delta", "zeta", "q_star", "z_star", "rel_q", "rel_z"):
            assert column in first
            assert f"paper_{column}" in first
            assert f"{column}_abs_dev" in first
        assert first["paper_zeta"] == "0.00162"
        assert first["zeta_sign_contradiction"] == "false"
        assert rows[1]["zeta_sign_contradiction"] == "true"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, ["verify-table", "--format", "json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["hard_pass"] is True
        assert payload["sign_contradiction_rows"] == [2, 3, 4, 5, 6, 9, 10, 11, 12, 15, 16, 17, 18]
        assert len(payload["rows"]) == 18
        assert payload["rows"][0]["cells"][0]["column"] == "delta"

    def test_incompatible_params_exit_2(self, capsys):
        code, _, err = run(capsys, ["verify-table", "--psi", "5"])
        assert code == 2
        assert "d3 < psi" in err


# what a call may build, parse, solve, audit or sweep, by the object it is looked up on
COUNTED = {
    fuzzy_eoq.cli: ("crisp_optimal", "_solve", "_baseline", "zeta_quadrature", "audit_table",
                    "run_sweep", "_audit_texts"),
    fuzzy_eoq.model: ("lot_cost",),
    argparse.ArgumentParser: ("__init__", "parse_known_args"),
}
COMMANDS = {"crisp": ["crisp"], "fuzzy": ["fuzzy", *ROW1_FLAGS],
            "sweep": ["sweep", "--reference"], "verify-table": ["verify-table"]}
# every command, format and flag set at one parameter set: as many argvs as are kept
EVERY_ARGV = [[*command, "--format", fmt, *flags]
              for command in COMMANDS.values() for fmt in _RENDERERS for flags in FLAG_SETS]


def counting(monkeypatch) -> list:
    """Record by name, from here on, each parser the CLI builds, each parse, solve, audit
    and sweep it makes, and each render."""
    calls = []

    def counted(name, make):
        return lambda *args, **kwargs: calls.append(name) or make(*args, **kwargs)

    for owner, names in COUNTED.items():
        for name in names:
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    for name, render in list(_RENDERERS.items()):
        monkeypatch.setitem(_RENDERERS, name, counted("render", render))
    return calls


class TestKeptAnswer:
    """A call without ``--config`` is kept by its argv, at most 48 of them: a repeated argv
    writes the kept stdout and stderr, returns the kept code, and parses, solves, audits
    and renders nothing.  A call with ``--config`` reads its file on every call."""

    @pytest.mark.parametrize("fmt", list(_RENDERERS))
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_a_repeat_parses_solves_and_renders_nothing(self, monkeypatch, command, fmt):
        argvs = [[*COMMANDS[command], "--format", fmt, *flags] for flags in FLAG_SETS]
        first = [run_captured(argv) for argv in argvs]
        calls = counting(monkeypatch)
        assert [run_captured(argv) for argv in argvs] == first
        assert calls == []

    def test_at_most_48_answers_are_kept(self, monkeypatch):
        # one argv more than are kept drops the least recently used: the first
        argvs = [*EVERY_ARGV, ["crisp", "--phi", "700"]]
        first = [run_captured(argv) for argv in argvs]
        calls = counting(monkeypatch)
        assert [run_captured(argv) for argv in argvs[1:]] == first[1:]
        assert calls == []
        assert run_captured(argvs[0]) == first[0]
        # a new argv builds one parser, the top-level one and one per command
        assert calls == [*["__init__"] * 5, *["parse_known_args"] * 2, "crisp_optimal",
                         "lot_cost", "render"]
        assert len(fuzzy_eoq.cli._KEPT) == 48

    @pytest.mark.parametrize("fmt", list(_RENDERERS))
    def test_row_errors_are_replayed(self, tmp_path, fmt):
        # phi = 150 is not above d1 in rows 7-18: twelve rows fail, six solve
        argv = ["sweep", "--reference", "--phi", "150", "--format", fmt]
        code, out, err = first = run_captured(argv)
        assert code == 1
        assert [line.partition(":")[0] for line in err.splitlines()] == [
            f"row {i}" for i in range(7, 19)]
        assert run_captured(argv) == first
        path = tmp_path / "answer"
        for _ in range(2):  # the second answer is kept, and --out is written again
            path.unlink(missing_ok=True)
            assert run_captured([*argv, "--out", str(path)]) == (code, "", err)
            assert path.read_text() == out

    @pytest.mark.parametrize("order", [("0.0", "-0.0"), ("-0.0", "0.0")])
    def test_signed_zero_psi_is_its_own_key(self, order):
        # both zeros fail every row, and each prints its own sign
        def call(psi):
            return run_captured(["sweep", "--reference", "--psi", psi, "--format", "json"])

        alone = {}
        for psi in order:
            fuzzy_eoq.cli._KEPT.clear()
            alone[psi] = call(psi)
        fuzzy_eoq.cli._KEPT.clear()
        assert [call(psi) for psi in order * 2] == [alone[psi] for psi in order * 2]
        code, out, err = alone["-0.0"]
        assert code == 1 and '"psi": -0.0' in out
        assert err.count("psi=-0.0)\n") == 18 and "psi=0.0" not in err

    def test_each_flag_set_is_its_own_key(self, monkeypatch):
        argvs = [["sweep", "--reference", *flags, "--format", "json"] for flags in FLAG_SETS]
        alone = []
        for argv in argvs:
            fuzzy_eoq.cli._KEPT.clear()
            alone.append(run_captured(argv))
        assert len(set(alone)) == len(FLAG_SETS)
        fuzzy_eoq.cli._KEPT.clear()
        calls = counting(monkeypatch)
        assert [run_captured(argv) for argv in argvs * 2] == alone * 2
        assert calls.count("run_sweep") == len(FLAG_SETS)

    def test_a_failing_call_keeps_nothing(self):
        for _ in range(2):
            code, out, err = run_captured(["verify-table", "--psi", "5"])
            assert (code, out) == (2, "") and "d3 < psi" in err
        assert fuzzy_eoq.cli._KEPT == {}

    @pytest.mark.parametrize("command", ["crisp", "fuzzy", "sweep"])
    def test_a_rewritten_config_gives_its_new_answer(self, tmp_path, command):
        config = tmp_path / "cfg.json"
        argv = [command, "--config", str(config), "--format", "json"]
        spreads = {"d1": 100, "d2": 100, "d3": 1, "d4": 1}
        section = {"fuzzy": {"spreads": spreads}, "sweep": {"sweep": [spreads]}}.get(command, {})
        for phi in (600, 700, 600):
            config.write_text(json.dumps({"params": {"phi": phi}, **section}))
            assert json.loads(run_captured(argv)[1])["params"]["phi"] == phi
        assert fuzzy_eoq.cli._KEPT == {}

    def test_nothing_carries_over_to_the_next_call(self):
        crisp = run_captured(["crisp", "--format", "json"])
        assert run_captured(["fuzzy", *ROW1_FLAGS])[0] == 0
        assert run_captured(["fuzzy"]) == (2, "", "error: fuzzy solve requires spreads "
                                                  "d1, d2, d3, d4 (flags or config)\n")
        assert run_captured(["crisp", "--s", "200", "--paper-baseline", "--format", "csv"])[0] == 0
        fuzzy_eoq.cli._KEPT.clear()
        assert run_captured(["crisp", "--format", "json"]) == crisp


def _reference_sweep(paper):
    spec = SweepSpec(REFERENCE_PARAMS, tuple(row.spreads for row in load_reference_table()))
    assert all(row.record for row in run_sweep(spec, paper_baseline=paper))


def _fuzzy_call(fmt):
    def call(paper):
        argv = ["fuzzy", *ROW1_FLAGS, "--format", fmt, *(["--paper-baseline"] if paper else [])]
        assert run_captured(argv)[0] == 0
    return call


# each batch or command whose baseline is computed once
BASELINE_ONCE = {
    "sweep-reference": _reference_sweep,
    **{f"fuzzy-{fmt}": _fuzzy_call(fmt) for fmt in ("human", "csv", "json")},
    # the audit function behind audit_table's cache: a first audit
    "first-audit": lambda paper: fuzzy_eoq.sensitivity._audit.__wrapped__(REFERENCE_PARAMS, paper),
}


class TestBaselineComputedOnce:
    @pytest.mark.parametrize("paper", [False, True], ids=["default", "paper"])
    @pytest.mark.parametrize("case", list(BASELINE_ONCE))
    def test_one_crisp_optimum(self, case, paper, monkeypatch):
        # only the baseline calls lot_cost, at the crisp s, h and delta = phi
        calls = []
        lot_cost = fuzzy_eoq.model.lot_cost

        def counting(q, s, h, delta, zeta_value):
            calls.append((s, h, delta))
            return lot_cost(q, s, h, delta, zeta_value)

        monkeypatch.setattr(fuzzy_eoq.model, "lot_cost", counting)
        BASELINE_ONCE[case](paper)
        p = REFERENCE_PARAMS
        assert calls == [(p.s, p.h, p.phi)]


class TestConfigHandling:
    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"paramz": {}}))
        code, _, err = run(capsys, ["crisp", "--config", str(config)])
        assert code == 2
        assert "unknown key" in err

    def test_non_numeric_param_rejected(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"params": {"phi": "six hundred"}}))
        code, _, err = run(capsys, ["crisp", "--config", str(config)])
        assert code == 2
        assert "must be a number" in err

    def test_invalid_json_rejected(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("{not json")
        code, _, err = run(capsys, ["crisp", "--config", str(config)])
        assert code == 2
        assert "not valid JSON" in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, ["crisp", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read" in err

    def test_config_spreads_used_by_fuzzy(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"spreads": {"d1": 100, "d2": 100, "d3": 1, "d4": 1}}))
        code, out, _ = run(capsys, ["fuzzy", "--config", str(config), "--format", "json"])
        assert code == 0
        rec = fuzzy_optimal(REFERENCE_PARAMS, FuzzySpreads(100, 100, 1, 1))
        assert json.loads(out)["record"] == dataclasses.asdict(rec)

    def test_spread_flag_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"spreads": {"d1": 100, "d2": 100, "d3": 1, "d4": 1}}))
        code, out, _ = run(
            capsys,
            ["fuzzy", "--config", str(config), "--d2", "200", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["spreads"]["d2"] == 200.0

    @pytest.mark.parametrize(
        "command, section, where",
        [
            ("crisp", {"params": {"phi": 10**400}}, "params.phi"),
            ("fuzzy", {"spreads": {"d1": 10**400, "d2": 1, "d3": 1, "d4": 1}}, "spreads.d1"),
            ("sweep", {"sweep": [{"d1": 1, "d2": 1, "d3": 1, "d4": 1},
                                 {"d1": -(10**400), "d2": 1, "d3": 1, "d4": 1}]},
             "sweep[1].d1"),
        ],
    )
    def test_integer_past_the_float_range_rejected(self, capsys, tmp_path, command, section, where):
        # json reads the literal exactly; float() of it once raised OverflowError
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(section))
        code, out, err = run(capsys, [command, "--config", str(config)])
        assert (code, out) == (2, "")
        assert err == (f"error: config: {where} is out of the float range "
                       f"(got an integer of 401 digits)\n")

    def test_integer_past_the_digit_limit_rejected(self, capsys, tmp_path):
        # json refuses to convert it; the ValueError once escaped as a traceback
        config = tmp_path / "cfg.json"
        config.write_text('{"params": {"phi": 1' + "0" * 5000 + "}}")
        code, out, err = run(capsys, ["crisp", "--config", str(config)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config: {str(config)!r} is not valid JSON: ")
        assert err.count("\n") == 1

    def test_nesting_past_the_recursion_limit_rejected(self, capsys, tmp_path):
        # json recursed past the limit, and the RecursionError escaped as a
        # traceback with exit code 1; the message wording varies by Python
        config = tmp_path / "deep.json"
        config.write_text("[" * 2000 + "]" * 2000)
        code, out, err = run(capsys, ["crisp", "--config", str(config)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config: {str(config)!r} is not valid JSON: ")
        assert "Traceback" not in err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestRuntimeFailures:
    """Failures after the inputs were accepted also exit 2 with one error line."""

    def test_quadrature_failure_exits_2_without_traceback(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise QuadratureError("budget exhausted")

        monkeypatch.setattr("fuzzy_eoq.cli.zeta_quadrature", failing)
        code, out, err = run(capsys, ["fuzzy", *ROW1_FLAGS])
        assert (code, out) == (2, "")
        assert err == "error: quadrature failed: budget exhausted\n"

    def test_lower_spreads_one_ulp_below_both_bounds(self, capsys):
        # d1 + d3 rounds to phi + psi, and the oracle printed beside the solve
        # integrates next to its pole: a recursion that ran out of bisections
        # there made this valid input exit 2; it is solved and printed
        argv = ["fuzzy", "--phi", "1", "--psi", "1e-16", "--h", "1", "--s", "1",
                "--d1", "0.9999999999999999", "--d2", "0.5",
                "--d3", "9.999999999999999e-17", "--d4", "5e-17", "--format", "json"]
        sp = FuzzySpreads(0.9999999999999999, 0.5, 9.999999999999999e-17, 5e-17)
        rec = fuzzy_optimal(CrispParams(1.0, 1e-16, 1.0, 1.0), sp)
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["record"] == dataclasses.asdict(rec)
        assert payload["zeta_closed_form"] == rec.zeta
        assert math.isclose(payload["zeta_quadrature"], rec.zeta, rel_tol=1e-12)

    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, fmt):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run(capsys, ["crisp", "--format", fmt, "--out", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {str(target)!r}: ")
        assert err.count("\n") == 1
        assert not target.parent.exists()


# values no model input may take; the largest float makes any sum of two overflow
INVALID_VALUES = ("nan", "inf", "-inf", "0", "-0.0", "1.7976931348623157e+308")
NON_FINITE = re.compile(r"\b(nan|inf(inity)?)\b", re.IGNORECASE)


class TestContract:
    """A ``crisp`` or ``fuzzy`` call on any input, valid or not, exits 0, 1 or
    2 within a bounded time and prints no non-finite number; nothing escapes
    ``main`` but argparse's usage error."""

    @settings(max_examples=200)
    @given(
        rng=st.randoms(use_true_random=False),
        command=st.sampled_from(["crisp", "fuzzy"]),
        invalid=st.dictionaries(st.sampled_from(PARAM_KEYS + SPREAD_KEYS),
                                st.sampled_from(INVALID_VALUES), max_size=2),
        fmt=st.sampled_from(["human", "csv", "json"]),
        paper=st.booleans(),
    )
    def test_any_input_ends_in_an_exit_code(self, rng, command, invalid, fmt, paper):
        p, sp, relax = drawn_input(rng)
        values = {**dataclasses.asdict(p), **(dataclasses.asdict(sp) if command == "fuzzy" else {})}
        # --flag=value, so that "-inf" reaches the value checks, not argparse's option parser
        argv = [command, *(f"--{key}={invalid.get(key, repr(value))}"
                           for key, value in values.items()),
                "--format", fmt, *["--relax-bounds"] * relax, *["--paper-baseline"] * paper]
        start = time.perf_counter()
        try:
            code, out, _ = run_captured(argv)
        except SystemExit as exc:
            code, out = exc.code, ""
            assert code == 2
        assert time.perf_counter() - start < 10.0
        assert code in (0, 1, 2)
        assert not NON_FINITE.search(out), out
