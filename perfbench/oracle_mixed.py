"""oracle-mixed: unshared params; each operation solves with ``fuzzy_optimal``,
computes ``zeta_quadrature`` and checks the gap between the two.

Quadrature does almost all the work and no work is shared between
operations, so a params-keyed cache can gain nothing here and any overhead
it adds shows.  Spreads come from three families in fixed shares:

* narrow: combined-spread ratio log-uniform in 1e-12..1e-2, which exercises
  the quadrature fallback of ``zeta`` and the cancellation band above it;
* ordinary: 1-95 % of each rate;
* wide: ``relax_bounds`` with d4/psi log-uniform in 1..1e9, which exercises
  runaway refinement and ``QuadratureError`` in the oracle.

The number of operations is fixed by ``--seconds`` (``OPS_PER_S`` each), not
by the clock, so every count repeats exactly for a given seed.
"""

from __future__ import annotations

import random
import resource
import time
from collections import Counter
from dataclasses import dataclass

import fuzzy_eoq.defuzzify as defuzzify
import fuzzy_eoq.model as model
from fuzzy_eoq.errors import DomainError, QuadratureError

import tracing
from common import GAP_REL, Report, peak_rss_mb, rel
from timing import Deadline, DeadlineExceeded, Meter, percentile

OPS_PER_S = 150
CHUNK = 25
FAMILIES = ("narrow", "ordinary", "wide")
# Nominal (normalised) per-operation deadline.
DEADLINE_S = 0.1


@dataclass(frozen=True)
class Op:
    family: str
    params: model.CrispParams
    spreads: defuzzify.FuzzySpreads

    @property
    def relax(self) -> bool:
        return self.family == "wide"


def _stratified(rng: random.Random, n: int) -> list:
    """``n`` uniform draws in [0, 1), one in each of ``n`` equal strata, shuffled."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def _op(family: str, u: list) -> Op:
    """Params in the test suite's ``random_params`` ranges, spreads by family."""
    phi = 50.0 + 4950.0 * u[0]
    p = model.CrispParams(phi=phi, psi=phi * (0.005 + 0.495 * u[1]), h=0.5 + 49.5 * u[2], s=5.0 + 1995.0 * u[3])
    if family == "narrow":
        ratio = 10.0 ** (-12.0 + 10.0 * u[4])
        shares = [ratio * (0.01 + 0.99 * x) for x in u[5:]]
    else:
        shares = [0.01 + 0.94 * x for x in u[5:]]
        if family == "wide":
            shares[3] = 10.0 ** (9.0 * u[4])
    sp = defuzzify.FuzzySpreads(p.phi * shares[0], p.phi * shares[1], p.psi * shares[2], p.psi * shares[3])
    return Op(family, p, sp)


def setup(seed: int, seconds: float, root, workdir) -> list:
    """Families in turn.  Each family's nine draws per operation form a Latin
    hypercube, so the share of inputs in any band (such as the runaway band
    of d4/psi) hardly varies between seeds."""
    rng = random.Random(seed)
    n = int(OPS_PER_S * seconds)
    draws = {}
    for k, family in enumerate(FAMILIES):
        count = len(range(k, n, len(FAMILIES)))
        draws[family] = list(zip(*(_stratified(rng, count) for _ in range(9))))
    return [_op(FAMILIES[i % 3], draws[FAMILIES[i % 3]][i // 3]) for i in range(n)]


def _pass(ops: list, report: Report, fuzzy_optimal, zeta_quadrature, tracer=None):
    """One checked pass over ``ops``.  Returns the meter and the raw seconds
    of each operation that succeeded, by index."""
    out = report.outcomes
    meter = Meter()
    ok_spent = {}
    for i, op in enumerate(ops):
        p, sp = op.params, op.spreads
        limit = meter.wall(DEADLINE_S)
        solved = done = None
        cause = ""
        t0 = time.perf_counter()
        try:
            with Deadline(limit):
                t0 = time.perf_counter()
                rec = fuzzy_optimal(p, sp, relax_bounds=op.relax)
                solved = time.perf_counter()
                zq = zeta_quadrature(p.phi, p.psi, sp, relax_bounds=op.relax)
                done = time.perf_counter()
        except DeadlineExceeded:
            cause = "deadline"
        except QuadratureError:
            cause = "quadrature_error"
        except DomainError:
            cause = "wrong_accept_reject"
        except Exception:
            cause = "unexpected_exception"
        spent = time.perf_counter() - t0
        if tracer is not None:
            tracer.settle()
        if not cause:
            gap = rel(rec.zeta, zq)
            report.max_gap = max(report.max_gap, gap)
            if gap > GAP_REL:
                cause = "gap"
        if cause:
            out.fail(cause, family=op.family, detail=f"op {i} ({op.family}) {p} {sp}")
        else:
            out.ok()
            ok_spent[i] = spent
        meter.add("solve", solved - t0 if solved is not None else limit)
        meter.add("op", limit if cause else done - t0)
        if cause != "deadline":
            meter.add("spent", spent)
        if i % CHUNK == CHUNK - 1:
            meter.checkpoint()
    meter.checkpoint()
    return meter, ok_spent


def run(ops: list, seconds: float, timing_cycles: bool) -> Report:
    """One checked pass; the number of operations, not the clock, sets its length."""
    report = Report()
    meter, report.untraced = _pass(ops, report, model.fuzzy_optimal, defuzzify.zeta_quadrature)
    report.meter = meter
    norm, raw = meter.norm, meter.raw
    # an operation stopped at its deadline cost exactly the (normalised) deadline
    stopped = report.outcomes.causes["deadline"] * DEADLINE_S
    report.metrics = {
        "throughput_per_s": len(ops) / (sum(norm["spent"]) + stopped),
        "call_p50_us": percentile(norm["solve"], 50) * 1e6,
        "call2_us": percentile(norm["op"], 50) * 1e6,
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
    }
    m = report.metrics
    families = Counter(op.family for op in ops)
    report.lines += [
        f"families: {dict(families)}",
        f"oracle.ops_per_s = {m['throughput_per_s']:.6g} ops/s "
        f"(raw {len(ops) / (sum(raw['spent']) + stopped / meter.factor):.6g}; {len(ops)} ops)",
        f"solve.p50_us = {m['call_p50_us']:.6g} us, solve.p99_us = {percentile(norm['solve'], 99) * 1e6:.6g} us "
        f"(raw p50 {percentile(raw['solve'], 50) * 1e6:.6g}; {len(norm['solve'])} solves)",
        f"oracle.p50_us = {m['call2_us']:.6g} us "
        f"(raw {percentile(raw['op'], 50) * 1e6:.6g}; a failed op counts as its deadline)",
        f"zeta.max_rel_gap = {report.max_gap:.6g}",
    ]
    return report


def trace(ops: list, report: Report) -> None:
    """A second, traced pass over the same operations; the overhead is taken
    over the operations that succeeded in both passes."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fuzzy_optimal = tracer.wrap(tracing.FUZZY_OPTIMAL, model.fuzzy_optimal)
        meter, traced = _pass(ops, Report(), fuzzy_optimal, defuzzify.zeta_quadrature, tracer)
    finally:
        tracer.uninstall()
    report.layer.update(tracer.layer_metrics(meter.factor))
    both = traced.keys() & report.untraced.keys()
    # each pass normalised by its own calibrations: they run ~30 s apart
    traced_s = sum(traced[i] for i in both) * meter.factor
    untraced_s = sum(report.untraced[i] for i in both) * report.meter.factor
    report.layer["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
