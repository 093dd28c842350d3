"""Known defects, one test per input that shows one, each asserting the correct answer.

Each test is a strict xfail naming the ROADMAP item that describes its defect, so tier-1
lists the defects that remain (``pytest -rxX``), and a change that mends one fails here
until its mark is deleted.  ``raises`` pins the failure each test is expected to show.
"""

import csv
import io
import math

import pytest

from fuzzy_eoq import DomainError, FuzzySpreads, lot_cost, zeta, zeta_quadrature
from fuzzy_eoq.cli import main


def known_defect(item, raises=AssertionError):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}", raises=raises)


@known_defect(8)
def test_zeta_keeps_the_term_of_an_underflowing_x():
    # x = d6/eta underflows to 0, and the term (d3/d6) g(x) is lost: zeta returns
    # 1.1931471805599455e-300, the oracle 1.0681471805599453e-300
    phi, psi, spreads = 1e300, 1.0, FuzzySpreads(0.5e300, 1e-30, 0.5, 1e-30)
    assert math.isclose(zeta(phi, psi, spreads), zeta_quadrature(phi, psi, spreads),
                        rel_tol=1e-12)


@known_defect(8)
def test_fuzzy_solves_where_d4_over_d5_meets_a_zero_g():
    # y = d5/eta underflows, so (d4/d5) g(-y) is inf * 0: "zeta must be finite (got nan)"
    # and exit 2, while the oracle gives zeta = 1.0
    argv = ["fuzzy", "--phi", "1469516.8582250515", "--psi", "9.689232406243604e+134",
            "--d1", "5.583931377191346e-172", "--d2", "3.3213145525315674e-277",
            "--d3", "2.1019611373856962e+98", "--d4", "5e-324"]
    assert main(argv) == 0


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


@known_defect(18, raises=pytest.fail.Exception)
def test_lot_cost_rejects_a_cost_that_overflows():
    # returns inf: the solve path checks its cost, and lot_cost does not
    with pytest.raises(DomainError):
        lot_cost(6.07908246689861e-239, 5.378832340062271e+211, 8.745498592846944e+158,
                 8.882909583464342e-163, 0.49543508709194095)


@known_defect(18, raises=pytest.fail.Exception)
def test_lot_cost_rejects_one_plus_zeta_below_zero():
    # returns -1.0, a negative cost; optimal_lot_size rejects 1 + zeta <= 0
    with pytest.raises(DomainError):
        lot_cost(1.0, 1.0, 1.0, 1.0, -5.0)
