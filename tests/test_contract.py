"""The error contract on every public callable.

On any arguments, each callable in ``fuzzy_eoq.__all__`` and each public
method of ``Interval``, ``TriangularFuzzyNumber``, ``CrispParams`` and
``FuzzySpreads`` returns within ``TIME_BOUND`` seconds, and then either
returns only finite floats, read through dataclass fields, tuples and
lists, or raises ``DomainError`` or ``QuadratureError``.  ``CONTRACT``
holds one entry per callable: the call, and a strategy for its arguments
whose every float is drawn from the whole binary64 range, ±0, subnormals,
±max, ±inf and nan included.  An entry that may return a non-finite float
names why; ``tests/test_public_api.py`` fails while a public callable has
no entry.

An integrand or cut function that the caller passes raises nothing here:
an exception it raises is the caller's, and ``gauss_kronrod`` lets it
through unchanged.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, fields, is_dataclass
from typing import Callable, NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drawn_input
from fuzzy_eoq import (
    AUDIT_COLUMNS,
    AuditCell,
    AuditRow,
    CrispParams,
    CycleQuantities,
    DomainError,
    FuzzySpreads,
    Interval,
    QuadratureError,
    ReferenceRow,
    SolutionRecord,
    SweepRow,
    SweepSpec,
    TableAudit,
    TriangularFuzzyNumber,
    audit_table,
    crisp_optimal,
    cycle_quantities,
    defuzzified_rates,
    demand_fuzzy,
    fuzzy_optimal,
    gauss_kronrod,
    leakage_fuzzy,
    load_reference_table,
    lot_cost,
    optimal_lot_size,
    run_sweep,
    signed_distance_quadrature,
    truncated_baseline,
    zeta,
    zeta_quadrature,
)

# a call that takes longer has hung: a quadrature that spends its whole
# evaluation budget takes a few milliseconds
TIME_BOUND = 5.0

# all of binary64, ±0, subnormals, ±max, ±inf and nan, with half the draws
# positive, as most rules ask for a positive value
F = st.floats() | st.floats(min_value=0.0, exclude_min=True)
B = st.booleans()


def floats(n: int) -> st.SearchStrategy[tuple[float, ...]]:
    return st.tuples(*[F] * n)


class Model(NamedTuple):
    """One model input as drawn: the rates, costs, spreads and both flags.
    The params and spreads are built inside the call, so that an error
    they raise is the call's."""

    phi: float
    psi: float
    h: float
    s: float
    d1: float
    d2: float
    d3: float
    d4: float
    paper: bool
    relax: bool

    def params(self) -> CrispParams:
        return CrispParams(self.phi, self.psi, self.h, self.s)

    def spreads(self) -> FuzzySpreads:
        return FuzzySpreads(self.d1, self.d2, self.d3, self.d4)


@st.composite
def _near_valid(draw) -> Model:
    """A valid input from ``domain.valid_input`` with up to two of its eight
    floats replaced by any binary64: arbitrary floats alone seldom pass
    the rate and spread checks, so the deep steps would go untested."""
    p, sp, relax = drawn_input(draw(st.randoms(use_true_random=False)))
    values = [*astuple(p), *astuple(sp)]
    for i, value in draw(st.dictionaries(st.integers(0, 7), F, max_size=2)).items():
        values[i] = value
    return Model(*values, draw(B), relax)


MODEL = st.builds(Model, *[F] * 8, B, B) | _near_valid()

# an audit cell's fields after its column: recomputed, paper, tolerance, relative,
# abs_dev, rel_dev and passed
_CELL_FIELDS = (F, F, st.none() | F, B, F, F, st.none() | B)


def _audit_row(index: int, d: tuple[float, ...], cell: tuple, contradiction: bool) -> AuditRow:
    """An audit row whose every column holds the one drawn cell."""
    return AuditRow(index, FuzzySpreads(*d),
                    tuple(AuditCell(column, *cell) for column in AUDIT_COLUMNS), contradiction)


_AUDIT_ROW = st.tuples(st.integers(), floats(4), st.tuples(*_CELL_FIELDS), B)

# a record of what the audit compares keeps the floats it is given, unchecked:
# audit_table and load_reference_table form them
HOLDS = "holds the floats it is given, unchecked"


class Entry(NamedTuple):
    """A public callable's call, the strategy of its arguments, and why it
    may return a non-finite float, if it may: then each one it returns must
    be one of its arguments'."""

    call: Callable
    args: st.SearchStrategy[tuple]
    non_finite: Optional[str] = None


def _model(call: Callable[[Model], object]) -> Entry:
    return Entry(call, st.tuples(MODEL))


def _interval_op(op: Callable[[Interval, Interval], object]) -> Entry:
    return Entry(lambda a, b, c, d: op(Interval(a, b), Interval(c, d)), floats(4))


def _tfn_op(op: Callable[[TriangularFuzzyNumber, TriangularFuzzyNumber], object]) -> Entry:
    return Entry(lambda a, b, c, d, e, f: op(TriangularFuzzyNumber(a, b, c),
                                             TriangularFuzzyNumber(d, e, f)), floats(6))


CONTRACT = {
    "AuditCell": Entry(AuditCell, st.tuples(st.sampled_from(AUDIT_COLUMNS), *_CELL_FIELDS),
                       HOLDS),
    "AuditRow": Entry(_audit_row, _AUDIT_ROW, HOLDS),
    "CrispParams": Entry(CrispParams, floats(4)),
    "CycleQuantities": Entry(CycleQuantities, floats(3)),
    "DomainError": Entry(DomainError, st.tuples(st.text())),
    "FuzzySpreads": Entry(FuzzySpreads, floats(4)),
    "FuzzySpreads.d5": Entry(lambda *d: FuzzySpreads(*d).d5, floats(4)),
    "FuzzySpreads.d6": Entry(lambda *d: FuzzySpreads(*d).d6, floats(4)),
    "FuzzySpreads.validate_against": _model(
        lambda m: m.spreads().validate_against(m.phi, m.psi, relax_bounds=m.relax)),
    "Interval": Entry(Interval, floats(2)),
    "Interval.__add__": _interval_op(lambda x, y: x + y),
    "Interval.__contains__": Entry(lambda lo, hi, x: x in Interval(lo, hi), floats(3)),
    "Interval.__mul__": _interval_op(lambda x, y: x * y),
    "Interval.__sub__": _interval_op(lambda x, y: x - y),
    "Interval.__truediv__": _interval_op(lambda x, y: x / y),
    "Interval.scale": Entry(lambda lo, hi, k: Interval(lo, hi).scale(k), floats(3)),
    "QuadratureError": Entry(QuadratureError, st.tuples(st.text())),
    "ReferenceRow": Entry(ReferenceRow, floats(10), HOLDS),
    "SolutionRecord": Entry(SolutionRecord, floats(6)),
    "SweepRow": Entry(
        lambda i, d, record, error: SweepRow(
            i, FuzzySpreads(*d), record and SolutionRecord(*record), error),
        st.tuples(st.integers(), floats(4), st.none() | floats(6), st.none() | st.text())),
    "SweepSpec": Entry(
        lambda p, rows: SweepSpec(CrispParams(*p), tuple(FuzzySpreads(*d) for d in rows)),
        st.tuples(floats(4), st.lists(floats(4), max_size=3))),
    "TableAudit": Entry(
        lambda m, n, row: TableAudit(m.params(), m.paper, (_audit_row(*row),) * n),
        st.tuples(MODEL, st.integers(17, 19), _AUDIT_ROW), HOLDS),
    "TriangularFuzzyNumber": Entry(TriangularFuzzyNumber, floats(3)),
    "TriangularFuzzyNumber.__add__": _tfn_op(lambda x, y: x + y),
    "TriangularFuzzyNumber.__sub__": _tfn_op(lambda x, y: x - y),
    "TriangularFuzzyNumber.alpha_cut": Entry(
        lambda a, b, c, alpha: TriangularFuzzyNumber(a, b, c).alpha_cut(alpha), floats(4)),
    "TriangularFuzzyNumber.scale": Entry(
        lambda a, b, c, k: TriangularFuzzyNumber(a, b, c).scale(k), floats(4)),
    "TriangularFuzzyNumber.signed_distance": Entry(
        lambda *b: TriangularFuzzyNumber(*b).signed_distance(), floats(3)),
    "audit_table": _model(lambda m: audit_table(m.params(), paper_baseline=m.paper)),
    "crisp_optimal": _model(lambda m: crisp_optimal(m.params())),
    "cycle_quantities": Entry(lambda q, m: cycle_quantities(q, m.params()), st.tuples(F, MODEL)),
    "defuzzified_rates": _model(
        lambda m: defuzzified_rates(m.phi, m.psi, m.spreads(), relax_bounds=m.relax)),
    "demand_fuzzy": _model(lambda m: demand_fuzzy(m.phi, m.spreads())),
    "fuzzy_optimal": _model(lambda m: fuzzy_optimal(m.params(), m.spreads(),
                                                    paper_baseline=m.paper,
                                                    relax_bounds=m.relax)),
    "gauss_kronrod": Entry(
        lambda c0, c1, a, b, tol: gauss_kronrod(lambda x: c0 + c1 * x, a, b, tol=tol),
        floats(5)),
    "leakage_fuzzy": _model(lambda m: leakage_fuzzy(m.psi, m.spreads())),
    "load_reference_table": Entry(load_reference_table, st.just(())),
    "lot_cost": Entry(lot_cost, floats(5)),
    "optimal_lot_size": Entry(optimal_lot_size, floats(4)),
    "run_sweep": _model(lambda m: run_sweep(SweepSpec(m.params(), (m.spreads(),)),
                                            paper_baseline=m.paper, relax_bounds=m.relax)),
    "signed_distance_quadrature": Entry(
        lambda l0, l1, h0, h1: signed_distance_quadrature(lambda a: l0 + l1 * a,
                                                          lambda a: h0 - h1 * a), floats(4)),
    "truncated_baseline": Entry(lambda *r: truncated_baseline(SolutionRecord(*r)), floats(6)),
    "zeta": _model(lambda m: zeta(m.phi, m.psi, m.spreads(), relax_bounds=m.relax)),
    "zeta_quadrature": _model(
        lambda m: zeta_quadrature(m.phi, m.psi, m.spreads(), relax_bounds=m.relax)),
}


def floats_in(value: object):
    """Every float in ``value``, read through dataclass fields, tuples and lists."""
    if isinstance(value, float):
        yield value
    elif is_dataclass(value) and not isinstance(value, type):
        for field in fields(value):
            yield from floats_in(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from floats_in(item)


def _non_finite(value: object) -> set[str]:
    return {repr(x) for x in floats_in(value) if not math.isfinite(x)}


@pytest.mark.parametrize("name", CONTRACT)
@settings(max_examples=50)
@given(data=st.data())
def test_call_returns_finite_floats_or_raises_the_contract_errors(name, data):
    entry = CONTRACT[name]
    args = data.draw(entry.args, label="args")
    start = time.perf_counter()
    try:
        result = entry.call(*args)
    except (DomainError, QuadratureError):
        result = None
    assert time.perf_counter() - start < TIME_BOUND
    allowed = _non_finite(args) if entry.non_finite else set()
    assert _non_finite(result) <= allowed, result
