"""Known defects, one test per input that shows one, each asserting the correct answer.

Each test is an xfail naming the ROADMAP item that describes its defect, so every run
lists the defects that remain (``-rxX`` is in pytest's ``addopts``).  ``pyproject.toml``
sets ``xfail_strict``, so a change that mends one fails here until its mark is deleted.
Each pins its failure to the ``AssertionError`` of a wrong answer.
"""

import csv
import io
import math

import pytest

import reference
from fuzzy_eoq import FuzzySpreads, zeta
from fuzzy_eoq.cli import main


def known_defect(item):
    return pytest.mark.xfail(reason=f"ROADMAP item {item}", raises=AssertionError)


@known_defect(8)
def test_zeta_keeps_its_bits_just_above_the_series_limit():
    # part B: y = d5/eta is just above the series limit, where h(-y) is formed directly and
    # loses about 7 bits; zeta returns 32222.30786537877, where the reference gives
    # 32222.307865377832, 2.9e-14 relative
    phi, psi = 1.0117409504616682e-157, 8003175.981221273
    sp = FuzzySpreads(1.011740950461668e-157, 1.1074852349356327e-144, 87457.31425458548,
                      1023985468637.4556)
    want = reference.zeta(phi, psi, sp)
    assert abs(zeta(phi, psi, sp, relax_bounds=True) - want) <= 1e-15 * want


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
