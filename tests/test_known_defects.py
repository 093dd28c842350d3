"""Known defects, one test per input that shows one, each asserting the correct answer.

Each test is a strict xfail naming the ROADMAP item that describes its defect, so tier-1
lists the defects that remain (``pytest -rxX``), and a change that mends one fails here
until its mark is deleted.  Each pins its failure to the ``AssertionError`` of a wrong
answer.
"""

import csv
import io
import math

import pytest

from fuzzy_eoq.cli import main


def known_defect(item):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}", raises=AssertionError)


@known_defect(9)
def test_percent_deviations_keep_their_sign(capsys):
    # rel_q and rel_z come from two rounded, nearly equal optima: 0.0 and
    # -1.438634515545249e-14 are printed, where a 1,200-digit evaluation from the exact
    # binary64 inputs gives -1.2943374162904067e-25 and +1.2943374162904067e-25
    argv = ["fuzzy", "--phi", "2.81241364387871e+18", "--psi", "4.820320440123735e+162",
            "--h", "10", "--s", "100", "--d1", "1.534506297421002e-195",
            "--d2", "3.113440099072677e-81", "--d3", "8.49581962898839e+149",
            "--d4", "6.763333221912292e-145", "--format", "csv"]
    assert main(argv) == 0
    row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert math.isclose(float(row["rel_q"]), -1.2943374162904067e-25, rel_tol=1e-12)
    assert math.isclose(float(row["rel_z"]), 1.2943374162904067e-25, rel_tol=1e-12)
