"""Batch solves over spread grids and an audit of the shipped results table.

The package bundles the published sensitivity table for the worked
example (demand 600, leakage 10, holding cost 10, setup cost 100):
eighteen spread combinations with the reported defuzzified demand, mean
leakage fraction, optimum, and percent deviations from a whole-unit
crisp baseline.

``run_sweep`` re-solves any sequence of spread rows, collecting per-row
failures instead of aborting.  ``audit_table`` re-derives the table and
compares column by column.  A sweep computes the crisp baseline once, at
its first row that passes its own checks, and an audit before any row;
both validate each row's spreads once.  The package keeps three things, each
for what needs it: ``cli._KEPT`` (``cli-calls`` ``call2_us``), ``_audit``
behind ``audit_table`` (``sweep-shared`` ``call_p50_us`` and ``call2_us``) and
``load_reference_table`` (the package's one data file, read once).  Two modes:

* default: every column recomputed from the spreads by this package's
  own pipeline (exact crisp baseline);
* ``paper_baseline``: the published mean-leakage-fraction values are
  replayed through the lot-size formula, and deviations are taken
  against the truncated baseline the published table used.  In this mode
  the lot-size, cost, and rel-lot-size columns carry hard tolerances.

The published zeta column disagrees in sign and magnitude with both
independent routes computed here; the audit reports that per row instead
of failing, and flags each non-positive published value as contradicting
the positivity of the recomputed fraction.
"""

from __future__ import annotations

import csv
import gc
import math
from functools import cache, lru_cache, partial
from pathlib import Path
from typing import NamedTuple, Optional

from .defuzzify import FuzzySpreads, defuzzified_rates
from .errors import DomainError
from .fuzzy import _value_type
from .model import CrispParams, SolutionRecord, _baseline, _lot_rule, _solve

REFERENCE_PARAMS = CrispParams(phi=600.0, psi=10.0, h=10.0, s=100.0)

AUDIT_COLUMNS = ("delta", "zeta", "q_star", "z_star", "rel_q", "rel_z")

# Informational cells count as deviations above this floor.
DEVIATION_FLOOR = 1e-9

# Per audit mode, and per AUDIT_COLUMNS entry: the cell's tolerance (None:
# informational) and whether it bounds the relative deviation.
_AUDIT_MODES = {
    False: ((1e-9, None, None, None, None, None), (False,) * 6),
    True: ((1e-9, None, 0.005, 0.005, 0.01, None), (False, False, True, True, False, False)),
}


@_value_type
class SweepSpec:
    """A batch of spread rows to solve under one parameter set."""

    params: CrispParams
    rows: tuple[FuzzySpreads, ...]


@_value_type
class SweepRow:
    """Outcome for one sweep row: a record, or the error that stopped it."""

    index: int
    spreads: FuzzySpreads
    record: Optional[SolutionRecord]
    error: Optional[str]


def run_sweep(
    spec: SweepSpec,
    *,
    paper_baseline: bool = False,
    relax_bounds: bool = False,
) -> tuple[SweepRow, ...]:
    """Solve every row of ``spec`` in order.

    A row whose spreads violate the bounds for ``spec.params`` yields a
    ``SweepRow`` carrying the error message; remaining rows still run.
    The crisp baseline's lot size and cost are computed once, at the first
    row that passes its own checks; if they cannot be, each row that passes
    its own checks carries that error, as a solve of that row alone would.

    The cyclic garbage collector is paused while the rows are built and
    restored to its prior state on every exit, an exception included.  A
    sweep makes no reference cycles: a row holds its index, the caller's
    spreads, a record of floats and a message string.  So a collection
    during the sweep would free nothing; it would only walk the rows built
    so far again.  The trade-off: cyclic garbage that another thread makes
    meanwhile is not collected until the sweep returns.

    The pause ends with one young collection, which walks the rows once and
    frees nothing: the collector counts the objects made while it was off,
    so the first allocation after ``gc.enable`` runs it.  That cost is
    inherent.  Building the result tuple while the collector is still off
    only moves the collection to the caller's next allocation; it does not
    remove it.
    """
    p = spec.params
    # cache keeps no exception, so a failing baseline raises afresh per row
    baseline = cache(partial(_baseline, p, paper_baseline))
    out = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i, spreads in enumerate(spec.rows):
            try:
                record = _solve(p, spreads, baseline, relax_bounds)
            except DomainError as exc:
                out.append(SweepRow(i, spreads, None, str(exc)))
            else:
                out.append(SweepRow(i, spreads, record, None))
    finally:
        if was_enabled:
            gc.enable()
    return tuple(out)


@_value_type
class ReferenceRow:
    """One published table row, exactly as printed."""

    d1: float
    d2: float
    d3: float
    d4: float
    delta: float
    zeta: float
    q_star: float
    z_star: float
    rel_q: float
    rel_z: float

    @property
    def spreads(self) -> FuzzySpreads:
        return FuzzySpreads(self.d1, self.d2, self.d3, self.d4)


@lru_cache(maxsize=1)
def load_reference_table() -> tuple[ReferenceRow, ...]:
    """The published sensitivity table: the package's one data file, read once."""
    text = (Path(__file__).parent / "data" / "reference_table.csv").read_text()
    rows = []
    for raw in csv.DictReader(text.splitlines()):
        rows.append(ReferenceRow(**{key: float(val) for key, val in raw.items()}))
    return tuple(rows)


class AuditCell(NamedTuple):
    """One recomputed-vs-published comparison, with its deviations and
    verdict as ``audit_table`` computed them.

    ``tolerance`` of None marks the cell informational: its deviation is
    reported but never fails the audit, and ``passed`` is None.  Otherwise
    the tolerance applies to ``rel_dev`` when ``relative`` is set, else to
    ``abs_dev``.  Against a published zero, ``rel_dev`` is 0 for an exact
    match and inf for any other value.
    """

    column: str
    recomputed: float
    paper: float
    tolerance: Optional[float]
    relative: bool
    abs_dev: float
    rel_dev: float
    passed: Optional[bool]


def _audit_cell(
    column: str, recomputed: float, paper: float, tolerance: Optional[float], relative: bool
) -> AuditCell:
    abs_dev = abs(recomputed - paper)
    if paper == 0.0:
        rel_dev = math.inf if abs_dev > 0.0 else 0.0
    else:
        rel_dev = abs_dev / abs(paper)
    passed = None if tolerance is None else (rel_dev if relative else abs_dev) <= tolerance
    return AuditCell(column, recomputed, paper, tolerance, relative, abs_dev, rel_dev, passed)


@_value_type
class AuditRow:
    """One audited table row: its index and spreads, one cell per column of
    ``AUDIT_COLUMNS`` in that order, and whether its published zeta is not
    positive, which contradicts the strictly positive recomputed fraction."""

    index: int
    spreads: FuzzySpreads
    cells: tuple[AuditCell, ...]
    zeta_sign_contradiction: bool

    def cell(self, column: str) -> AuditCell:
        for cell in self.cells:
            if cell.column == column:
                return cell
        raise DomainError(f"unknown audit column {column!r}")


@_value_type
class TableAudit:
    """Full audit: one row per published row, one cell per compared column.
    Its summaries are computed from the rows on every read."""

    params: CrispParams
    paper_baseline: bool
    rows: tuple[AuditRow, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != 18:
            raise DomainError(f"expected 18 audit rows (got {len(self.rows)})")
        for row in self.rows:
            if tuple(cell.column for cell in row.cells) != AUDIT_COLUMNS:
                raise DomainError(f"row {row.index} does not cover {AUDIT_COLUMNS}")

    @property
    def hard_pass(self) -> bool:
        return all(
            cell.passed for row in self.rows for cell in row.cells
            if cell.passed is not None
        )

    @property
    def deviations(self) -> tuple[tuple[int, str], ...]:
        """(row index, column) of informational cells that do not reproduce."""
        return tuple(
            (row.index, cell.column)
            for row in self.rows
            for cell in row.cells
            if cell.tolerance is None and cell.abs_dev > DEVIATION_FLOOR
        )

    @property
    def sign_contradictions(self) -> tuple[int, ...]:
        return tuple(row.index for row in self.rows if row.zeta_sign_contradiction)


def audit_table(
    params: Optional[CrispParams] = None,
    *,
    paper_baseline: bool = False,
) -> TableAudit:
    """Re-derive the published table and compare it column by column.

    The defuzzified-demand column must reproduce to 1e-9 in every mode.
    With ``paper_baseline`` the published zeta values are replayed through
    the lot rule, and its lot size, cost and relative lot size against the
    truncated baseline become hard checks.  The zeta column itself is always
    informational: it does not reproduce from the spreads, and each
    non-positive published value is flagged as a sign contradiction (the
    recomputed fraction is strictly positive).

    The result depends only on ``params``, the mode and the bundled table,
    so each ``(params, paper_baseline)`` audit is computed once per process
    and kept, eight at most: a later call returns the same ``TableAudit``.
    Calls with equal params share it, so its ``params`` is the object the
    first of them passed (``CrispParams(600, 10, 10, 100)`` gets the
    reference floats back once ``audit_table()`` has run).  A call that
    raises keeps nothing and raises afresh every time.
    """
    return _audit(REFERENCE_PARAMS if params is None else params, bool(paper_baseline))


@lru_cache(maxsize=8)
def _audit(p: CrispParams, paper_baseline: bool) -> TableAudit:
    """``audit_table``'s work, kept for ``sweep-shared`` ``call_p50_us`` and ``call2_us``."""
    base = _baseline(p, paper_baseline)  # its error comes before any row's
    tolerances, relative = _AUDIT_MODES[paper_baseline]
    audit_rows = []
    for i, ref in enumerate(load_reference_table()):
        spreads = ref.spreads
        d, z = defuzzified_rates(p.phi, p.psi, spreads)
        lot = _lot_rule(p, d, ref.zeta if paper_baseline else z, lambda: base)
        recomputed = (d, z, lot.q_star, lot.z_star, lot.rel_q, lot.rel_z)
        published = (ref.delta, ref.zeta, ref.q_star, ref.z_star, ref.rel_q, ref.rel_z)
        cells = tuple(map(_audit_cell, AUDIT_COLUMNS, recomputed, published, tolerances, relative))
        audit_rows.append(AuditRow(i, spreads, cells, zeta_sign_contradiction=ref.zeta <= 0.0))
    return TableAudit(params=p, paper_baseline=paper_baseline, rows=tuple(audit_rows))
