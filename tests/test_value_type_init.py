"""Every value type's constructor takes its fields in order, by position or
by keyword, with no defaults, and ``dataclasses.replace`` runs the same
checks, in the same order, as a direct call.

Written with the standard library alone, so any interpreter runs it:

    PYTHONPATH=src python -m unittest discover -s tests -p test_value_type_init.py
"""

import dataclasses
import inspect
import math
import unittest

from fuzzy_eoq import (
    CrispParams,
    CycleQuantities,
    DomainError,
    FuzzySpreads,
    Interval,
    SolutionRecord,
    TriangularFuzzyNumber,
)

from test_value_types import SLOTTED, _samples

VALIDATED = (FuzzySpreads, CrispParams, SolutionRecord, CycleQuantities,
             Interval, TriangularFuzzyNumber)


def _field_values(value):
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


class TestConstructor(unittest.TestCase):
    def test_signature_lists_the_fields(self):
        for cls in SLOTTED:
            with self.subTest(cls.__name__):
                params = list(inspect.signature(cls).parameters.values())
                self.assertEqual([(p.name, p.annotation) for p in params],
                                 [(f.name, f.type) for f in dataclasses.fields(cls)])
                for p in params:
                    self.assertIs(p.kind, inspect.Parameter.POSITIONAL_OR_KEYWORD)
                    self.assertIs(p.default, inspect.Parameter.empty)
                self.assertEqual(cls.__init__.__qualname__, f"{cls.__qualname__}.__init__")
                self.assertEqual(cls.__init__.__module__, cls.__module__)

    def test_keywords_and_positions_agree(self):
        for value in _samples():
            cls, kwargs = type(value), _field_values(value)
            with self.subTest(cls.__name__):
                by_keyword, by_position = cls(**kwargs), cls(*kwargs.values())
                self.assertEqual(by_keyword, by_position)
                self.assertEqual(by_keyword, value)
                # reversed keywords land in the same fields
                self.assertEqual(cls(**dict(reversed(kwargs.items()))), value)

    def test_missing_and_extra_arguments_raise(self):
        for value in _samples():
            cls, args = type(value), list(_field_values(value).values())
            with self.subTest(cls.__name__):
                with self.assertRaises(TypeError):
                    cls(*args[:-1])
                with self.assertRaises(TypeError):
                    cls(*args, args[-1])

    def test_replace_runs_the_constructor_checks(self):
        samples = [v for v in _samples() if type(v) in VALIDATED]
        self.assertEqual({type(v) for v in samples}, set(VALIDATED))
        for value in samples:
            cls = type(value)
            for name in _field_values(value):
                with self.subTest(cls.__name__, field=name):
                    bad = {**_field_values(value), name: math.nan}
                    with self.assertRaises(DomainError) as direct:
                        cls(**bad)
                    with self.assertRaises(DomainError) as replaced:
                        dataclasses.replace(value, **{name: math.nan})
                    self.assertEqual(str(replaced.exception), str(direct.exception))
                    self.assertIn(f"{name} must be finite", str(direct.exception))


if __name__ == "__main__":
    unittest.main()
