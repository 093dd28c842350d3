"""The package root exports one name per quantity, and nothing else."""

import fuzzy_eoq

PUBLIC_NAMES = {
    "AUDIT_COLUMNS", "AuditCell", "AuditRow", "CrispParams",
    "CycleQuantities", "DomainError", "FuzzySpreads", "Interval", "QuadratureError",
    "REFERENCE_PARAMS", "ReferenceRow", "SolutionRecord", "SweepRow", "SweepSpec",
    "TableAudit", "TriangularFuzzyNumber", "__version__",
    "audit_table", "crisp_optimal",
    "cycle_quantities", "defuzzified_rates", "demand_fuzzy", "fuzzy_optimal",
    "gauss_kronrod", "leakage_fuzzy", "load_reference_table",
    "lot_cost", "optimal_lot_size", "run_sweep", "signed_distance_quadrature",
    "truncated_baseline", "zeta", "zeta_quadrature",
}


def test_all_is_exactly_the_public_names():
    assert len(fuzzy_eoq.__all__) == len(PUBLIC_NAMES) == 33
    assert set(fuzzy_eoq.__all__) == PUBLIC_NAMES
    for name in fuzzy_eoq.__all__:
        assert getattr(fuzzy_eoq, name) is not None


def test_every_public_class_has_its_own_docstring():
    # dataclasses and NamedTuple give a class without one a generated "Name(...)" line
    for name in fuzzy_eoq.__all__:
        obj = getattr(fuzzy_eoq, name)
        if isinstance(obj, type):
            doc = obj.__dict__.get("__doc__")
            assert doc and not doc.startswith(f"{name}("), name
