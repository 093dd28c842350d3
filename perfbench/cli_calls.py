"""cli-calls: cold ``python -m fuzzy_eoq.cli`` subprocesses, one at a time.

The fixed mix covers ``crisp``, ``fuzzy``, ``sweep --reference`` and
``verify-table`` in human, csv and json, with default flags and
``--paper-baseline``, plus ``fuzzy --relax-bounds``; interpreter start,
import, argparse and rendering dominate those.  Two ``sweep --config`` calls
on a seeded config of 2*10^4 rows (5 % of them invalid) are the only
solve-heavy calls, and there the renderers handle many rows.  Each cycle
also runs the small mix in-process through ``main(argv)``.

Every csv and json answer is parsed and compared bit-for-bit with the
library's in-process results (the package prints floats as shortest
round-trip reprs); human output is checked for its key lines; exit codes
are checked on every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import fuzzy_eoq.cli as cli
import fuzzy_eoq.defuzzify as defuzzify
import fuzzy_eoq.model as model
import fuzzy_eoq.sensitivity as sensitivity

import tracing
from common import INVALID_SHARE, CheckoutError, Report, peak_rss_mb
from timing import Meter, percentile

CONFIG_ROWS = 20_000
MIN_CYCLES = 4  # at least 100 cold calls, so the p90 has ten samples beyond it
PROBE_REPEATS = 5
IN_PROCESS_REPEATS = 3
CHILD_CHUNK = 3  # cold calls between two calibrations
# Nominal (normalised) per-call deadline.
DEADLINE_S = 60.0

REF = sensitivity.REFERENCE_PARAMS
ROW1 = defuzzify.FuzzySpreads(100.0, 100.0, 1.0, 1.0)
WIDE = defuzzify.FuzzySpreads(100.0, 100.0, 1.0, 1000.0)
RECORD_FIELDS = ("delta", "zeta", "q_star", "z_star", "rel_q", "rel_z")
SPREAD_KEYS = ("d1", "d2", "d3", "d4")

IMPORT_PROBE = "import time; t = time.perf_counter(); import fuzzy_eoq.cli; print(time.perf_counter() - t)"


def _spread_flags(sp: defuzzify.FuzzySpreads) -> list:
    return [arg for key in SPREAD_KEYS for arg in (f"--{key}", repr(getattr(sp, key)))]


def _small_mix() -> list:
    """(argv, expectation key) for every single-answer call of one cycle."""
    mix = []
    for fmt in ("human", "csv", "json"):
        for paper in (False, True):
            flags = ["--paper-baseline"] if paper else []
            mix += [
                (["crisp", *flags, "--format", fmt], ("crisp", fmt)),
                (["fuzzy", *_spread_flags(ROW1), *flags, "--format", fmt], ("fuzzy", fmt, paper, False)),
                (["sweep", "--reference", *flags, "--format", fmt], ("sweep-ref", fmt, paper)),
                (["verify-table", *flags, "--format", fmt], ("verify", fmt, paper)),
            ]
        mix.append((["fuzzy", *_spread_flags(WIDE), "--relax-bounds", "--format", fmt], ("fuzzy", fmt, False, True)))
    return mix


@dataclass
class Inputs:
    root: Path
    config_rows: int
    expected: dict
    small: list
    sweeps: list


def setup(seed: int, seconds: float, root: Path, workdir: Path) -> Inputs:
    """Write the seeded sweep config and compute every expected answer in-process."""
    rng = random.Random(seed)
    rows = []
    for _ in range(CONFIG_ROWS):
        bad = rng.random() < INVALID_SHARE
        rows.append({
            "d1": REF.phi * (rng.uniform(1.0, 1.5) if bad else rng.uniform(0.01, 0.95)),
            "d2": REF.phi * rng.uniform(0.01, 0.95),
            "d3": REF.psi * rng.uniform(0.01, 0.95),
            "d4": REF.psi * rng.uniform(0.01, 0.95),
        })
    _check_child_import(root)
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / f"sweep-{seed}.json"
    config.write_text(json.dumps({"sweep": rows}))
    reference = tuple(r.spreads for r in sensitivity.load_reference_table())
    crisp = model.crisp_optimal(REF)
    expected = {
        "crisp": (crisp, model.cycle_quantities(crisp.q_star, REF)),
        "config": sensitivity.run_sweep(
            sensitivity.SweepSpec(REF, tuple(defuzzify.FuzzySpreads(**r) for r in rows))
        ),
        ("fuzzy", False, True): (WIDE, model.fuzzy_optimal(REF, WIDE, relax_bounds=True)),
    }
    for paper in (False, True):
        expected[("fuzzy", paper, False)] = (ROW1, model.fuzzy_optimal(REF, ROW1, paper_baseline=paper))
        expected[("sweep-ref", paper)] = sensitivity.run_sweep(
            sensitivity.SweepSpec(REF, reference), paper_baseline=paper
        )
        expected[("verify", paper)] = sensitivity.audit_table(REF, paper_baseline=paper)
    sweeps = [
        (["sweep", "--config", str(config), "--format", fmt], ("config", fmt))
        for fmt in ("csv", "json")
    ]
    return Inputs(root, CONFIG_ROWS, expected, _small_mix(), sweeps)


# -- output checks ------------------------------------------------------------


def _same(values, expected) -> bool:
    """Bit-for-bit: floats parsed from shortest-repr text equal the library's."""
    values, expected = list(values), list(expected)
    return len(values) == len(expected) and all(float(a) == b for a, b in zip(values, expected))


def _record(rec) -> list:
    return [getattr(rec, f) for f in RECORD_FIELDS]


def _spreads(sp) -> list:
    return [getattr(sp, k) for k in SPREAD_KEYS]


def _sweep_ok(fmt: str, code: int, out: str, err: str, results) -> bool:
    solved = [r for r in results if r.record is not None]
    errors = [r for r in results if r.record is None]
    if code != (1 if errors else 0) or len(err.splitlines()) != len(errors):
        return False
    if fmt == "csv":
        table = list(csv.reader(out.splitlines()))
        return (
            table[0] == [*SPREAD_KEYS, *RECORD_FIELDS]
            and len(table) == len(solved) + 1
            and all(_same(line, _spreads(r.spreads) + _record(r.record)) for line, r in zip(table[1:], solved))
        )
    if fmt == "json":
        payload = json.loads(out)
        return (
            [e["row"] for e in payload["errors"]] == [r.index + 1 for r in errors]
            and len(payload["rows"]) == len(solved)
            and all(
                row["row"] == r.index + 1
                and _same([row[f] for f in RECORD_FIELDS], _record(r.record))
                and _same([row["spreads"][k] for k in SPREAD_KEYS], _spreads(r.spreads))
                for row, r in zip(payload["rows"], solved)
            )
        )
    return f"rows solved: {len(solved)}/{len(results)}" in out


def _verify_ok(fmt: str, code: int, out: str, audit) -> bool:
    if code != (0 if audit.hard_pass and not audit.deviations else 1):
        return False
    recomputed = [[c.recomputed for c in row.cells] for row in audit.rows]
    if fmt == "csv":
        table = list(csv.DictReader(out.splitlines()))
        return (
            len(table) == 18
            and all(v == "true" for line in table for k, v in line.items() if k.endswith("_pass") and v)
            and sum(line["zeta_sign_contradiction"] == "true" for line in table) == 13
            and all(
                _same([line[c] for c in sensitivity.AUDIT_COLUMNS], values)
                for line, values in zip(table, recomputed)
            )
        )
    if fmt == "json":
        payload = json.loads(out)
        return (
            payload["hard_pass"] is True
            and len(payload["sign_contradiction_rows"]) == 13
            and all(
                _same([c["recomputed"] for c in row["cells"]], values)
                for row, values in zip(payload["rows"], recomputed)
            )
        )
    return "hard checks: PASS" in out and "published zeta sign contradictions: 13 rows" in out


def _crisp_ok(fmt: str, code: int, out: str, expected) -> bool:
    rec, cyc = expected
    values = [REF.phi, REF.psi, REF.h, REF.s, rec.q_star, rec.z_star, cyc.t, cyc.t1, cyc.leaked]
    if code != 0:
        return False
    if fmt == "csv":
        return _same(list(csv.reader(out.splitlines()))[1], values)
    if fmt == "json":
        payload = json.loads(out)
        record, cycle = payload["record"], payload["cycle"]
        return _same(
            [*(payload["params"][k] for k in ("phi", "psi", "h", "s")), record["q_star"], record["z_star"],
             cycle["t"], cycle["t1"], cycle["leaked"]],
            values,
        )
    return f"q*: {rec.q_star:.12g}" in out and f"cost: {rec.z_star:.12g}" in out


def _fuzzy_ok(fmt: str, code: int, out: str, expected, paper: bool, relax: bool) -> bool:
    spreads, rec = expected
    if code != 0:
        return False
    if fmt == "csv":
        return _same(list(csv.reader(out.splitlines()))[1], _spreads(spreads) + _record(rec))
    if fmt == "json":
        payload = json.loads(out)
        baseline = model.crisp_optimal(REF)
        if paper:
            baseline = model.truncated_baseline(baseline)
        return (
            _same([payload["record"][f] for f in RECORD_FIELDS], _record(rec))
            and _same([payload["spreads"][k] for k in SPREAD_KEYS], _spreads(spreads))
            and _same([payload["baseline"]["q_star"], payload["baseline"]["z_star"]],
                      [baseline.q_star, baseline.z_star])
            and payload["paper_baseline"] is paper
            and payload["relax_bounds"] is relax
        )
    return f"q*: {rec.q_star:.12g}" in out and f"Z*: {rec.z_star:.12g}" in out


def _answer_ok(key: tuple, code: int, out: str, err: str, inputs: Inputs) -> bool:
    kind, fmt = key[0], key[1]
    exp = inputs.expected
    if kind == "crisp":
        return _crisp_ok(fmt, code, out, exp["crisp"])
    if kind == "fuzzy":
        return _fuzzy_ok(fmt, code, out, exp[("fuzzy", key[2], key[3])], key[2], key[3])
    if kind == "sweep-ref":
        return _sweep_ok(fmt, code, out, err, exp[("sweep-ref", key[2])])
    if kind == "verify":
        return _verify_ok(fmt, code, out, exp[("verify", key[2])])
    return _sweep_ok(fmt, code, out, err, exp["config"])


# -- calls --------------------------------------------------------------------


def _env(root: Path) -> dict:
    """This process's environment with the checkout's ``src/`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def _check_child_import(root: Path) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", "import fuzzy_eoq; print(fuzzy_eoq.__file__)"],
        cwd=root, env=_env(root), capture_output=True, text=True, timeout=60,
    )
    where = Path(proc.stdout.strip() or ".").resolve().parent
    if where != (root / "src" / "fuzzy_eoq").resolve():
        raise CheckoutError(f"a CLI child imports fuzzy_eoq from {where}, not from {root / 'src'}")


def _cold_call(argv: list, key: tuple, inputs: Inputs, meter: Meter, report: Report) -> float:
    """One checked CLI subprocess; returns its wall seconds (the limit if it timed out)."""
    limit = meter.wall(DEADLINE_S)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzy_eoq.cli", *argv],
            cwd=inputs.root, env=_env(inputs.root), capture_output=True, text=True, timeout=limit,
        )
        elapsed = time.perf_counter() - t0
    except subprocess.TimeoutExpired:
        report.outcomes.fail("deadline", detail=" ".join(argv))
        return limit
    _check_answer(argv, key, proc, inputs, report)
    return elapsed


def _check_answer(argv: list, key: tuple, proc, inputs: Inputs, report: Report) -> None:
    try:
        good = _answer_ok(key, proc.returncode, proc.stdout, proc.stderr, inputs)
    except (ValueError, KeyError, IndexError, TypeError):
        good = False
    if good:
        report.outcomes.ok()
    else:
        report.outcomes.fail(
            "cli_mismatch", detail=f"{' '.join(argv)} -> exit {proc.returncode}: {proc.stderr[-200:]}"
        )


def _in_process(main, argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def run(inputs: Inputs, seconds: float, timing_cycles: bool) -> Report:
    """Whole cycles of the mix until ``seconds`` have passed (at least
    ``MIN_CYCLES``; one when only the checked pass is wanted)."""
    report = Report()
    meter = report.meter = Meter()
    stop = time.perf_counter() + seconds
    cycles = 0
    while cycles < (MIN_CYCLES if timing_cycles else 1) or (timing_cycles and time.perf_counter() < stop):
        for i, (argv, key) in enumerate(inputs.small):
            meter.add("call", _cold_call(argv, key, inputs, meter, report))
            if i % CHILD_CHUNK == CHILD_CHUNK - 1:
                meter.checkpoint()
        # csv and json cost differently: one sample per cycle covers both
        spent = sum(_cold_call(argv, key, inputs, meter, report) for argv, key in inputs.sweeps)
        meter.add("sweep_row", spent, inputs.config_rows * len(inputs.sweeps))
        meter.checkpoint()
        for _ in range(IN_PROCESS_REPEATS):
            t0 = time.perf_counter()
            for argv, _ in inputs.small:
                _in_process(cli.main, argv)
            meter.add("main", time.perf_counter() - t0, len(inputs.small))
            meter.checkpoint()
        cycles += 1

    norm, raw = meter.norm, meter.raw
    report.metrics = {
        "throughput_per_s": statistics.median(1.0 / s for s in norm["sweep_row"]),
        "call_p50_us": percentile(norm["call"], 50) * 1e6,
        "call2_us": statistics.median(norm["main"]) * 1e6,
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    m = report.metrics
    report.lines += [
        f"cli.call_p50_ms = {m['call_p50_us'] / 1e3:.6g} ms, cli.call_p90_ms = {percentile(norm['call'], 90) * 1e3:.6g} ms "
        f"(raw p50 {percentile(raw['call'], 50) * 1e3:.6g}; {len(norm['call'])} calls)",
        f"cli.sweep_rows_per_s = {m['throughput_per_s']:.6g} rows/s "
        f"(raw {statistics.median(1.0 / s for s in raw['sweep_row']):.6g}; "
        f"median over {cycles} cycles of a csv and a json call of {inputs.config_rows} rows)",
        f"cli.main_us = {m['call2_us']:.6g} us per in-process call "
        f"(raw {statistics.median(raw['main']) * 1e6:.6g}; median over {len(raw['main'])} passes of the mix)",
    ]
    return report


def _probe(root: Path, code: str) -> float:
    """Median normalised seconds a fresh interpreter prints (or its wall time)."""
    meter = Meter()
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=_env(root),
            capture_output=True, text=True, timeout=60,
        )
        wall = time.perf_counter() - t0
        printed = proc.stdout.split()
        meter.add("probe", float(printed[0]) if printed else wall)
        meter.checkpoint()
    return statistics.median(meter.norm["probe"])


def trace(inputs: Inputs, report: Report) -> None:
    """The whole mix once in-process through a traced ``main(argv)``, the same
    untraced for the overhead, and fresh-interpreter start and import probes."""
    argvs = [argv for argv, _ in inputs.small + inputs.sweeps]
    t0 = time.perf_counter()
    for argv in argvs:
        _in_process(cli.main, argv)
    untraced = time.perf_counter() - t0
    meter = Meter()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        main = tracer.wrap_main(cli.main)
        t0 = time.perf_counter()
        for argv in argvs:
            _in_process(main, argv)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    meter.checkpoint()
    report.layer.update(tracer.layer_metrics(meter.factor))
    report.layer["cli.interp_start_ms"] = _probe(inputs.root, "pass") * 1e3
    report.layer["cli.import_ms"] = _probe(inputs.root, IMPORT_PROBE) * 1e3
    report.layer["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
