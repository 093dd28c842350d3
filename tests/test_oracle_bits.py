"""The zeta oracle's bits, pinned: ``golden/oracle-bits.json`` holds 16
seeded draws from every ``tests/domain.py`` family, each with the ``repr``
of ``zeta_quadrature`` on it.  A change that only makes the oracle faster
leaves every one of them bit for bit the same.

The draws cover the power-of-two scaling of ``tiny-rate`` inputs and the
multi-panel integrations of ``near-bound`` and ``ulps-below`` ones.  The
inputs are stored with the values, so a change to ``domain.py`` does not
move them.  ``python tests/test_oracle_bits.py`` rewrites the file from
the current code; do that only with a named correctness fix, and the diff
then shows exactly which values it moved.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from conftest import count_evaluations
from domain import FAMILIES, valid_input
from fuzzy_eoq import FuzzySpreads, zeta_quadrature

GOLDEN = Path(__file__).parent / "golden" / "oracle-bits.json"
DRAWS = 16


def _load():
    return json.loads(GOLDEN.read_text())


def _value(phi, psi, d1, d2, d3, d4, relax):
    return repr(zeta_quadrature(phi, psi, FuzzySpreads(d1, d2, d3, d4), relax_bounds=relax))


def test_every_family_is_pinned():
    assert {family: len(rows) for family, rows in _load().items()} == dict.fromkeys(FAMILIES, DRAWS)


@pytest.mark.parametrize("family", FAMILIES)
def test_oracle_bits_match_golden(family):
    for *inputs, want in _load()[family]:
        assert _value(*inputs) == want, inputs


@pytest.mark.parametrize("family", ["near-bound", "ulps-below"])
def test_golden_reaches_past_one_panel(family, monkeypatch):
    # one panel is 15 evaluations; these draws must exercise the refinement
    calls = count_evaluations(monkeypatch)
    for *inputs, _ in _load()[family]:
        _value(*inputs)
    assert max(calls) > 15


def test_golden_reaches_the_scaled_rates():
    # the oracle scales rates whose sum is below 1/2 by a power of two
    assert all(phi + psi < 0.5 for phi, psi, *_ in _load()["tiny-rate"])


def _regenerate() -> None:
    golden = {}
    for family in FAMILIES:
        rng = random.Random(f"oracle-bits:{family}")
        rows = []
        for _ in range(DRAWS):
            p, sp, relax = valid_input(rng, family)
            inputs = [p.phi, p.psi, sp.d1, sp.d2, sp.d3, sp.d4, relax]
            rows.append([*inputs, _value(*inputs)])
        golden[family] = rows
    # one draw a line, so a diff names the draws that moved
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(family)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
        for family, rows in golden.items()) + "\n}\n")


if __name__ == "__main__":
    _regenerate()
