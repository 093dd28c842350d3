"""The package's value types are frozen, slotted dataclasses that behave as
plain frozen dataclasses do: equality, hashing, repr, pickling, copying and
``dataclasses`` helpers.  None keeps a cached value: a ``ReferenceRow``'s
``spreads`` and a ``TableAudit``'s summaries are computed when read.  What
the package does keep per process is three things, each for what needs it:
``cli._KEPT`` (``cli-calls`` ``call2_us``), ``sensitivity._audit``
(``sweep-shared`` ``call_p50_us`` and ``call2_us``) and
``sensitivity.load_reference_table`` (the package's one data file, read once).

Written with the standard library alone, so any interpreter runs it:

    PYTHONPATH=src python -m unittest discover -s tests -p 'test_value_type*.py'
"""

import copy
import dataclasses
import pickle
import unittest
import weakref

from fuzzy_eoq import (
    AuditRow,
    CrispParams,
    CycleQuantities,
    FuzzySpreads,
    Interval,
    ReferenceRow,
    SolutionRecord,
    SweepRow,
    SweepSpec,
    TableAudit,
    TriangularFuzzyNumber,
    audit_table,
    crisp_optimal,
    cycle_quantities,
    load_reference_table,
)
from fuzzy_eoq.sensitivity import REFERENCE_PARAMS


def _samples():
    p = REFERENCE_PARAMS
    sp = FuzzySpreads(100.0, 100.0, 1.0, 1.0)
    record = crisp_optimal(p)
    return [
        sp,
        p,
        record,
        cycle_quantities(record.q_star, p),
        SweepSpec(p, (sp, FuzzySpreads(150.0, 200.0, 1.0, 1.0))),
        SweepRow(0, sp, record, None),
        SweepRow(1, sp, None, "d1 < phi violated (d1=700.0, phi=600.0)"),
        audit_table().rows[0],
        audit_table(),
        load_reference_table()[0],
        Interval(1.0, 2.5),
        TriangularFuzzyNumber(500.0, 600.0, 700.0),
    ]


SLOTTED = (FuzzySpreads, CrispParams, SolutionRecord, CycleQuantities, SweepSpec, SweepRow,
           AuditRow, TableAudit, ReferenceRow, Interval, TriangularFuzzyNumber)


def _rebuild(like, data):
    """The value shaped like ``like`` rebuilt through its constructors from
    the plain data ``asdict`` or ``astuple`` made of it."""
    if dataclasses.is_dataclass(like):
        items = data.values() if isinstance(data, dict) else data
        return type(like)(*(_rebuild(getattr(like, f.name), item)
                            for f, item in zip(dataclasses.fields(like), items)))
    if type(like) is tuple:
        return tuple(_rebuild(x, item) for x, item in zip(like, data))
    return data


def _dict_backed_twin(value):
    """The same fields in a frozen dataclass without slots."""
    cls = type(value)
    twin = dataclasses.make_dataclass(
        cls.__qualname__, [(f.name, f.type) for f in dataclasses.fields(cls)], frozen=True)
    return twin(*(getattr(value, f.name) for f in dataclasses.fields(cls)))


class TestSlottedValueTypes(unittest.TestCase):
    def test_samples_cover_every_slotted_type(self):
        self.assertEqual({type(v) for v in _samples()}, set(SLOTTED))

    def test_no_instance_dict_or_weakref(self):
        for value in _samples():
            with self.subTest(type(value).__name__):
                self.assertIn("__slots__", type(value).__dict__)
                self.assertFalse(hasattr(value, "__dict__"))
                with self.assertRaises(TypeError):
                    weakref.ref(value)

    def test_assignment_raises(self):
        for value in _samples():
            name = dataclasses.fields(value)[0].name
            with self.subTest(type(value).__name__):
                with self.assertRaises(dataclasses.FrozenInstanceError):
                    setattr(value, name, getattr(value, name))
                with self.assertRaises(dataclasses.FrozenInstanceError):
                    delattr(value, name)

    def test_round_trips(self):
        for value in _samples():
            with self.subTest(type(value).__name__):
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                    self.assertEqual(pickle.loads(pickle.dumps(value, protocol)), value)
                self.assertEqual(copy.deepcopy(value), value)
                self.assertEqual(copy.copy(value), value)
                self.assertEqual(dataclasses.replace(value), value)
                self.assertEqual(_rebuild(value, dataclasses.asdict(value)), value)
                self.assertEqual(_rebuild(value, dataclasses.astuple(value)), value)

    def test_replace_changes_one_field(self):
        sp = FuzzySpreads(100.0, 100.0, 1.0, 1.0)
        self.assertEqual(dataclasses.replace(sp, d4=2.0), FuzzySpreads(100.0, 100.0, 1.0, 2.0))

    def test_eq_hash_and_repr_match_a_dict_backed_dataclass(self):
        for value in _samples():
            twin = _dict_backed_twin(value)
            with self.subTest(type(value).__name__):
                self.assertEqual(repr(value), repr(twin))
                self.assertEqual(hash(value), hash(twin))
                self.assertNotEqual(value, twin)
                self.assertEqual(value, copy.deepcopy(value))

    def test_repr_text(self):
        self.assertEqual(repr(FuzzySpreads(100.0, 100.0, 1.0, 1.0)),
                         "FuzzySpreads(d1=100.0, d2=100.0, d3=1.0, d4=1.0)")
        self.assertEqual(repr(Interval(1.0, 2.5)), "Interval(lo=1.0, hi=2.5)")


if __name__ == "__main__":
    unittest.main()
