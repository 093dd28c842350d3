"""The package root exports one name per quantity, and nothing else, and every
public callable has an entry in the error contract's table."""

import inspect

import fuzzy_eoq
from fuzzy_eoq import CrispParams, FuzzySpreads, Interval, TriangularFuzzyNumber

from test_contract import CONTRACT

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


def _written_members(cls: type) -> set[str]:
    """The methods and properties of ``cls`` that its own body defines and a
    caller may use: its public names and its operators, not ``__post_init__``
    and not what dataclasses generates from a string."""
    names = set()
    for name, member in vars(cls).items():
        func = member.fget if isinstance(member, property) else member
        if (inspect.isfunction(func) and func.__code__.co_filename == inspect.getfile(cls)
                and name != "__post_init__" and (name[0] != "_" or name.startswith("__"))):
            names.add(name)
    return names


def test_every_public_callable_has_a_contract_entry():
    expected = {name for name in fuzzy_eoq.__all__ if callable(getattr(fuzzy_eoq, name))}
    for cls in (Interval, TriangularFuzzyNumber, CrispParams, FuzzySpreads):
        expected |= {f"{cls.__name__}.{name}" for name in _written_members(cls)}
    assert set(CONTRACT) == expected
