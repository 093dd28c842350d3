"""sweep-shared: one 10^5-row ``run_sweep`` at the reference params, and
``audit_table`` in both modes.

Every row shares the params and so the crisp baseline, which the package
rebuilds per row today; that repeated work lives here.  Spreads are 1-95 %
of each rate, so no row falls below the ratio where ``zeta`` falls back to
quadrature: a quadrature change must show no change on this workload.
About 5 % of rows break ``d1 < phi`` and must come back as row errors.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time
from dataclasses import dataclass

import fuzzy_eoq.defuzzify as defuzzify
import fuzzy_eoq.sensitivity as sensitivity
from fuzzy_eoq.errors import QuadratureError

import tracing
from common import GAP_REL, INVALID_SHARE, Report, peak_rss_mb, rel
from timing import Deadline, DeadlineExceeded, Meter, percentile

ROWS = 100_000
RECHECK_SAMPLE = 200
AUDITS_PER_CYCLE = 300
TRACE_ROWS = 10_000
TRACE_AUDITS = 20
# Nominal (normalised) per-operation deadlines.
SWEEP_DEADLINE_S = 60.0
AUDIT_DEADLINE_S = 5.0


@dataclass
class Inputs:
    spec: sensitivity.SweepSpec
    valid: list
    sample: list


def setup(seed: int, seconds: float, root, workdir) -> Inputs:
    rng = random.Random(seed)
    p = sensitivity.REFERENCE_PARAMS
    rows, valid = [], []
    for _ in range(ROWS):
        bad = rng.random() < INVALID_SHARE
        d1 = p.phi * (rng.uniform(1.0, 1.5) if bad else rng.uniform(0.01, 0.95))
        rows.append(defuzzify.FuzzySpreads(
            d1,
            p.phi * rng.uniform(0.01, 0.95),
            p.psi * rng.uniform(0.01, 0.95),
            p.psi * rng.uniform(0.01, 0.95),
        ))
        valid.append(not bad)
    sample = rng.sample([i for i, ok in enumerate(valid) if ok], RECHECK_SAMPLE)
    return Inputs(sensitivity.SweepSpec(params=p, rows=tuple(rows)), valid, sample)


def _check_rows(rows, inputs: Inputs, report: Report) -> None:
    out = report.outcomes
    if len(rows) != len(inputs.valid):
        out.fail("wrong_output", len(inputs.valid), detail=f"{len(rows)} rows returned")
        return
    for row, valid in zip(rows, inputs.valid):
        if valid and row.record is not None:
            out.ok()
        elif not valid and row.record is None and "d1 < phi" in (row.error or ""):
            out.ok()
        else:
            out.fail("wrong_accept_reject", detail=f"row {row.index}: {row.error}")


def _recheck_sample(rows, inputs: Inputs, report: Report) -> None:
    """Sampled rows against the quadrature oracle and the lot rule."""
    p = inputs.spec.params
    out = report.outcomes
    for i in inputs.sample:
        sp, rec = rows[i].spreads, rows[i].record
        try:
            zq = defuzzify.zeta_quadrature(p.phi, p.psi, sp)
        except QuadratureError as exc:
            out.fail("quadrature_error", detail=f"row {i}: {exc}", counted=True)
            continue
        gap = rel(rec.zeta, zq)
        report.max_gap = max(report.max_gap, gap)
        delta = p.phi + (sp.d2 - sp.d1) / 4.0
        q = math.sqrt(2.0 * p.s * rec.delta / (p.h * (1.0 + rec.zeta)))
        if gap > GAP_REL:
            out.fail("gap", detail=f"row {i}: gap {gap:.3g}", counted=True)
        elif rel(rec.delta, delta) > 1e-12 or rel(rec.q_star, q) > 1e-12:
            out.fail("wrong_output", detail=f"row {i}: q*={rec.q_star!r}, lot rule {q!r}", counted=True)


def _timed_audit(meter: Meter, paper: bool, report: Report, key: str) -> None:
    out = report.outcomes
    limit = meter.wall(AUDIT_DEADLINE_S)
    try:
        with Deadline(limit):
            t0 = time.perf_counter()
            audit = sensitivity.audit_table(sensitivity.REFERENCE_PARAMS, paper_baseline=paper)
            elapsed = time.perf_counter() - t0
    except DeadlineExceeded:
        out.fail("deadline", detail=f"audit_table paper_baseline={paper}")
        meter.add(key, limit)
        return
    except Exception as exc:
        out.fail("unexpected_exception", detail=repr(exc))
        meter.add(key, limit)
        return
    meter.add(key, elapsed)
    contradictions = len(audit.sign_contradictions)
    if len(audit.rows) == 18 and audit.hard_pass and contradictions == 13:
        out.ok()
    else:
        out.fail("wrong_output", detail=(
            f"audit_table paper_baseline={paper}: hard_pass={audit.hard_pass}, "
            f"{contradictions} sign contradictions"
        ))


def run(inputs: Inputs, seconds: float, timing_cycles: bool) -> Report:
    """Sweep, then a block of audits, until ``seconds`` have passed; every
    sweep's rows are checked, the sample is rechecked after the first."""
    report = Report()
    out = report.outcomes
    meter = report.meter = Meter()
    n = len(inputs.valid)
    stop = time.perf_counter() + seconds
    first = True
    while first or (timing_cycles and time.perf_counter() < stop):
        limit = meter.wall(SWEEP_DEADLINE_S)
        rows = None
        try:
            with Deadline(limit):
                t0 = time.perf_counter()
                rows = sensitivity.run_sweep(inputs.spec)
                elapsed = time.perf_counter() - t0
            meter.add("sweep", elapsed, n)
        except DeadlineExceeded:
            out.fail("deadline", n, detail="run_sweep")
            meter.add("sweep", limit, n)
        except Exception as exc:
            out.fail("unexpected_exception", n, detail=repr(exc))
            meter.add("sweep", limit, n)
        meter.checkpoint()
        if rows is not None:
            _check_rows(rows, inputs, report)
            if first:
                _recheck_sample(rows, inputs, report)
        del rows
        for _ in range(AUDITS_PER_CYCLE):
            _timed_audit(meter, False, report, "audit_default")
            _timed_audit(meter, True, report, "audit_paper")
        meter.checkpoint()
        first = False

    norm, raw = meter.norm, meter.raw
    report.metrics = {
        "throughput_per_s": statistics.median(1.0 / s for s in norm["sweep"]),
        "call_p50_us": percentile(norm["audit_default"], 50) * 1e6,
        "call2_us": percentile(norm["audit_paper"], 50) * 1e6,
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
    }
    m = report.metrics
    report.lines += [
        f"sweep.rows_per_s = {m['throughput_per_s']:.6g} rows/s "
        f"(raw {statistics.median(1.0 / s for s in raw['sweep']):.6g}; "
        f"median of {len(norm['sweep'])} sweeps of {n} rows)",
        f"audit.default_us = {m['call_p50_us']:.6g} us p50, {percentile(norm['audit_default'], 90) * 1e6:.6g} us p90 "
        f"(raw p50 {percentile(raw['audit_default'], 50) * 1e6:.6g}; {len(norm['audit_default'])} calls)",
        f"audit.paper_us = {m['call2_us']:.6g} us p50 "
        f"(raw {percentile(raw['audit_paper'], 50) * 1e6:.6g}; {len(norm['audit_paper'])} calls)",
        f"zeta.max_rel_gap = {report.max_gap:.6g} (over {len(inputs.sample)} rechecked rows)",
    ]
    return report


def trace(inputs: Inputs, report: Report) -> None:
    """Traced ``run_sweep`` over the first rows and traced audits; the same
    rows untraced give the tracing overhead."""
    spec = sensitivity.SweepSpec(inputs.spec.params, inputs.spec.rows[:TRACE_ROWS])
    t0 = time.perf_counter()
    sensitivity.run_sweep(spec)
    untraced = time.perf_counter() - t0
    meter = Meter()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_sweep = tracer.wrap(tracing.RUN_SWEEP, sensitivity.run_sweep)
        audit = tracer.wrap_audit(sensitivity.audit_table)
        t0 = time.perf_counter()
        run_sweep(spec)
        traced = time.perf_counter() - t0
        for _ in range(TRACE_AUDITS):
            audit(sensitivity.REFERENCE_PARAMS, paper_baseline=False)
            audit(sensitivity.REFERENCE_PARAMS, paper_baseline=True)
    finally:
        tracer.uninstall()
    meter.checkpoint()
    report.layer.update(tracer.layer_metrics(meter.factor))
    report.layer["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
