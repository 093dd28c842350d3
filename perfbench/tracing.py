"""Span wrappers for the traced run, installed from outside the package.

Each wrapper replaces a public name that one package module imports from
the module below it (``fuzzy_eoq.sensitivity.fuzzy_optimal``,
``fuzzy_eoq.model.crisp_optimal``, ...), so a call crossing that boundary
opens a span.  The integrand handed to ``adaptive_simpson`` is wrapped too,
which counts quadrature evaluations without a span per evaluation.  Names
the package no longer has are skipped, so the same tracer runs on later
versions of the code.

Spans are kept in memory for one top-level operation at a time and folded
into per-name aggregates when it ends.  A span's self time is its duration
minus the time its direct children cover (spans nest; there is one thread).
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

import fuzzy_eoq.cli as cli
import fuzzy_eoq.defuzzify as defuzzify
import fuzzy_eoq.fuzzy as fuzzy
import fuzzy_eoq.model as model
import fuzzy_eoq.sensitivity as sensitivity

# Span names, by the package module whose code runs inside the span.
SIMPSON = "quadrature.adaptive_simpson"
SIGNED_DISTANCE = "fuzzy.signed_distance_quadrature"
VALIDATE = "defuzzify.validate"
DELTA = "defuzzify.delta"
ZETA = "defuzzify.zeta"
ZETA_CLOSED = "defuzzify.zeta_closed_form"
ZETA_QUAD = "defuzzify.zeta_quadrature"
FUZZY_OPTIMAL = "model.fuzzy_optimal"
CRISP_OPTIMAL = "model.crisp_optimal"
LOT_RULE = "model.lot_rule"
RECORD = "model.record"
RUN_SWEEP = "sensitivity.run_sweep"
AUDIT_DEFAULT = "sensitivity.audit_table.default"
AUDIT_PAPER = "sensitivity.audit_table.paper"
CLI_MAIN = "cli.main"
CLI_FUZZY = "cli.main.fuzzy"

_ZETA_ROUTES = (ZETA, ZETA_CLOSED, ZETA_QUAD)
_ROOTS = (FUZZY_OPTIMAL, CLI_FUZZY)

# (owner, attribute, span name) for every boundary the tracer wraps.
_BOUNDARIES = (
    (fuzzy, "adaptive_simpson", SIMPSON),
    (defuzzify, "signed_distance_quadrature", SIGNED_DISTANCE),
    (defuzzify, "zeta_closed_form", ZETA_CLOSED),
    (defuzzify, "zeta_quadrature", ZETA_QUAD),
    (model, "delta_signed_demand", DELTA),
    (model, "zeta", ZETA),
    (model, "crisp_optimal", CRISP_OPTIMAL),
    (model, "optimal_lot_size", LOT_RULE),
    (model, "lot_cost", LOT_RULE),
    (sensitivity, "fuzzy_optimal", FUZZY_OPTIMAL),
    (sensitivity, "crisp_optimal", CRISP_OPTIMAL),
    (sensitivity, "delta_signed_demand", DELTA),
    (sensitivity, "zeta", ZETA),
    (sensitivity, "optimal_lot_size", LOT_RULE),
    (sensitivity, "lot_cost", LOT_RULE),
    (cli, "fuzzy_optimal", FUZZY_OPTIMAL),
    (cli, "crisp_optimal", CRISP_OPTIMAL),
    (cli, "delta_signed_demand", DELTA),
    (cli, "zeta_closed_form", ZETA_CLOSED),
    (cli, "zeta_quadrature", ZETA_QUAD),
    (cli, "run_sweep", RUN_SWEEP),
    (cli, "audit_table", AUDIT_DEFAULT),
    (defuzzify.FuzzySpreads, "validate_against", VALIDATE),
    (model.SolutionRecord, "__post_init__", RECORD),
)

# Fields of a span record.
_NAME, _PARENT, _START, _END, _CHILD, _STATUS, _EVALS = range(7)


def _audit_name(args, kwargs) -> str:
    return AUDIT_PAPER if kwargs.get("paper_baseline") else AUDIT_DEFAULT


def _main_name(args, kwargs) -> str:
    return f"{CLI_MAIN}.{args[0][0]}"


def _ancestor(spans: list, span: list, names: tuple) -> Optional[list]:
    p = span[_PARENT]
    while p >= 0:
        if spans[p][_NAME] in names:
            return spans[p]
        p = spans[p][_PARENT]
    return None


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self) -> None:
        # [name, parent index, start, end, child time, status, evaluations]
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.ok_durations: dict[str, list[float]] = defaultdict(list)
        self.self_times: dict[str, list[float]] = defaultdict(list)
        self.status: Counter = Counter()  # (name, status) -> spans
        self.child_of: Counter = Counter()  # (parent name, name) -> spans
        self.under_ok: Counter = Counter()  # (root name, name) -> spans inside a root that succeeded
        self.evals: list[int] = []  # per quadrature ending in a value or QuadratureError
        self.evals_ok = 0
        self.evals_ok_s = 0.0
        self.fuzzy_cmd_zeta: list[int] = []
        self.fuzzy_cmd_crisp: list[int] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([name, parent, time.perf_counter(), 0.0, 0.0, "ok", 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, status: str, evals: int = 0) -> None:
        end = time.perf_counter()
        span = self._spans[idx]
        span[_END], span[_STATUS], span[_EVALS] = end, status, evals
        self._stack.pop()
        if span[_PARENT] >= 0:
            self._spans[span[_PARENT]][_CHILD] += end - span[_START]
        if not self._stack:
            self._fold()

    def settle(self) -> None:
        """Close spans left open when a deadline fired inside the tracer itself."""
        while self._stack:
            self._close(self._stack[-1], "DeadlineExceeded")

    def wrap(self, name: str, fn: Callable, name_of: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name_of(args, kwargs) if name_of else name)
            status = "ok"
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                self._close(idx, status)

        return traced

    def _wrap_simpson(self, fn: Callable) -> Callable:
        def traced(f, a, b, **kwargs):
            count = 0

            def counted(x):
                nonlocal count
                count += 1
                return f(x)

            idx = self._open(SIMPSON)
            status = "ok"
            try:
                return fn(counted, a, b, **kwargs)
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                self._close(idx, status, count)

        return traced

    def wrap_audit(self, fn: Callable) -> Callable:
        return self.wrap(AUDIT_DEFAULT, fn, _audit_name)

    def wrap_main(self, fn: Callable) -> Callable:
        return self.wrap(CLI_MAIN, fn, _main_name)

    def _fold(self) -> None:
        spans, self._spans = self._spans, []
        for span in spans:
            name, status = span[_NAME], span[_STATUS]
            dur = span[_END] - span[_START]
            self.self_times[name].append(dur - span[_CHILD])
            self.status[(name, status)] += 1
            if status == "ok":
                self.ok_durations[name].append(dur)
            if span[_PARENT] >= 0:
                self.child_of[(spans[span[_PARENT]][_NAME], name)] += 1
            root = _ancestor(spans, span, _ROOTS)
            if root is not None and root[_STATUS] == "ok":
                self.under_ok[(root[_NAME], name)] += 1
            if name == SIMPSON and status in ("ok", "QuadratureError"):
                self.evals.append(span[_EVALS])
                if status == "ok":
                    self.evals_ok += span[_EVALS]
                    self.evals_ok_s += dur
        if spans[0][_NAME] == CLI_FUZZY:
            # zeta computations the command starts, not one route inside another
            self.fuzzy_cmd_zeta.append(sum(
                1 for s in spans if s[_NAME] in _ZETA_ROUTES and _ancestor(spans, s, _ZETA_ROUTES) is None
            ))
            self.fuzzy_cmd_crisp.append(sum(1 for s in spans if s[_NAME] == CRISP_OPTIMAL))

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in ``_BOUNDARIES`` that the code still has."""
        special = {SIMPSON: self._wrap_simpson, AUDIT_DEFAULT: self.wrap_audit}
        for owner, attr, name in _BOUNDARIES:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = special[name](original) if name in special else self.wrap(name, original)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-layer figures -------------------------------------------------

    def layer_metrics(self, scale: float) -> dict:
        """Per-layer figures, times multiplied by the host normalisation
        ``scale``.  A layer the workload never entered reads 0."""
        solves = self.status[(FUZZY_OPTIMAL, "ok")]
        zetas = sum(n for (name, _), n in self.status.items() if name == ZETA)
        rows = self.child_of[(RUN_SWEEP, FUZZY_OPTIMAL)]
        main_self = [v for name, values in self.self_times.items()
                     if name.startswith(CLI_MAIN) for v in values]

        def median_us(table: dict, name: str) -> float:
            values = table.get(name)
            return statistics.median(values) * scale * 1e6 if values else 0.0

        def per_solve(name: str) -> float:
            return self.under_ok[(FUZZY_OPTIMAL, name)] / solves if solves else 0.0

        def ok_us(name: str) -> float:
            return median_us(self.ok_durations, name)

        def self_us(name: str) -> float:
            return median_us(self.self_times, name)

        return {
            "cli.main_self_ms": statistics.median(main_self) * scale * 1e3 if main_self else 0.0,
            "cli.fuzzy.zeta_calls": statistics.mean(self.fuzzy_cmd_zeta) if self.fuzzy_cmd_zeta else 0.0,
            "cli.fuzzy.crisp_calls": statistics.mean(self.fuzzy_cmd_crisp) if self.fuzzy_cmd_crisp else 0.0,
            "sensitivity.run_sweep_self_us_per_row": (
                sum(self.self_times[RUN_SWEEP]) * scale * 1e6 / rows if rows else 0.0
            ),
            "sensitivity.audit_self_us.default": self_us(AUDIT_DEFAULT),
            "sensitivity.audit_self_us.paper": self_us(AUDIT_PAPER),
            "model.fuzzy_optimal_self_us": self_us(FUZZY_OPTIMAL),
            "model.crisp_calls_per_solve": per_solve(CRISP_OPTIMAL),
            "model.crisp_optimal_us": ok_us(CRISP_OPTIMAL),
            "model.records_per_solve": per_solve(RECORD),
            "model.lot_rule_us": ok_us(LOT_RULE),
            "defuzzify.validate_calls_per_solve": per_solve(VALIDATE),
            "defuzzify.validate_us": ok_us(VALIDATE),
            "defuzzify.delta_us": ok_us(DELTA),
            "defuzzify.zeta_closed_form_us": ok_us(ZETA_CLOSED),
            "defuzzify.quadrature_route_share": self.child_of[(ZETA, ZETA_QUAD)] / zetas if zetas else 0.0,
            "defuzzify.zeta_quadrature_us": ok_us(ZETA_QUAD),
            "fuzzy.signed_distance_quadrature_self_us": self_us(SIGNED_DISTANCE),
            "quadrature.evals_per_call.p50": statistics.median(self.evals) if self.evals else 0.0,
            "quadrature.evals_per_call.max": float(max(self.evals)) if self.evals else 0.0,
            "quadrature.us_per_eval": self.evals_ok_s * scale * 1e6 / self.evals_ok if self.evals_ok else 0.0,
            "quadrature.errors": float(self.status[(SIMPSON, "QuadratureError")]),
            "quadrature.deadline_hits": float(self.status[(SIMPSON, "DeadlineExceeded")]),
        }
