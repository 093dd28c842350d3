"""Lot sizing for leaky inventories under triangular fuzzy rates.

The package models a stock point whose inventory is drained by demand and
by a leakage rate, both of which may be known only fuzzily.  Fuzzy demand
and leakage are triangular fuzzy numbers; signed-distance defuzzification
turns them into two scalars (a mean demand and a mean leakage fraction)
that slot into a closed-form lot-size rule.  Every closed form ships with
an independent quadrature route that validates it, a sweep runner for
spread grids, and an audit of the bundled published results table.
"""

from .defuzzify import (
    FuzzySpreads,
    defuzzified_rates,
    demand_fuzzy,
    leakage_fuzzy,
    zeta,
    zeta_quadrature,
)
from .errors import DomainError, QuadratureError
from .fuzzy import (
    Interval,
    TriangularFuzzyNumber,
    signed_distance_quadrature,
)
from .model import (
    CrispParams,
    CycleQuantities,
    SolutionRecord,
    crisp_optimal,
    cycle_quantities,
    fuzzy_optimal,
    lot_cost,
    optimal_lot_size,
    truncated_baseline,
)
from .quadrature import gauss_kronrod
from .sensitivity import (
    AUDIT_COLUMNS,
    REFERENCE_PARAMS,
    AuditCell,
    AuditRow,
    ReferenceRow,
    SweepRow,
    SweepSpec,
    TableAudit,
    audit_table,
    load_reference_table,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AuditCell",
    "AuditRow",
    "AUDIT_COLUMNS",
    "CrispParams",
    "CycleQuantities",
    "DomainError",
    "FuzzySpreads",
    "Interval",
    "QuadratureError",
    "REFERENCE_PARAMS",
    "ReferenceRow",
    "SolutionRecord",
    "SweepRow",
    "SweepSpec",
    "TableAudit",
    "TriangularFuzzyNumber",
    "audit_table",
    "crisp_optimal",
    "cycle_quantities",
    "defuzzified_rates",
    "demand_fuzzy",
    "fuzzy_optimal",
    "gauss_kronrod",
    "leakage_fuzzy",
    "load_reference_table",
    "lot_cost",
    "optimal_lot_size",
    "run_sweep",
    "signed_distance_quadrature",
    "truncated_baseline",
    "zeta",
    "zeta_quadrature",
    "__version__",
]
