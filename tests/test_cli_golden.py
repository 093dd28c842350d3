"""Golden outputs of the command-line interface, compared byte for byte.

Every case runs ``main(argv)`` in-process from ``tests/golden`` (so the
config paths under ``configs/`` appear in messages as written here) and
checks stdout, stderr and the exit code against the committed files:
``golden/<case>.out`` holds stdout, and ``golden/status.json`` the exit
code and stderr of every case, by case name; it is written with sorted
keys, so a new case adds only its own lines.  argparse ends ``--help`` and
a bad command line with ``SystemExit``; its code is recorded as the exit
code, and ``COLUMNS`` is fixed so the usage and help text wrap the same on
every terminal.  argparse
words and lays out that text, and a newer Python may change either, so for
those cases only what fuzzy-eoq decides is compared with the files: the exit
code, the stream written, the program named in the usage line and the error
up to the value it quotes.  Every other case also runs twice in one process,
from nothing kept, and both calls must match the files.

An output change is intended only with a named correctness fix.  After
such a fix, ``python tests/test_cli_golden.py`` rewrites the files from
the current code; the diff then shows exactly what changed.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from fuzzy_eoq.cli import main

GOLDEN = Path(__file__).parent / "golden"
STATUS = GOLDEN / "status.json"
COLUMNS = "80"

ROW1 = ["--d1", "100", "--d2", "100", "--d3", "1", "--d4", "1"]

COMMANDS = {
    "crisp": ["crisp"],
    "fuzzy-row1": ["fuzzy", *ROW1],
    # d2 and d4 break their upper bounds, so only --relax-bounds solves it
    "fuzzy-wide": ["fuzzy", "--d1", "100", "--d2", "900", "--d3", "1", "--d4", "1000"],
    "fuzzy-tiny": ["fuzzy", "--d1", "3e-6", "--d2", "100", "--d3", "1e-7", "--d4", "1"],
    "sweep-reference": ["sweep", "--reference"],
    # rows: reference row 1, d3 >= psi, tiny spreads, d2 and d4 above their bounds
    "sweep-config": ["sweep", "--config", "configs/sweep.json"],
    "verify-table": ["verify-table"],
}

FLAGS = {
    "default": [],
    "paper": ["--paper-baseline"],
    "relax": ["--relax-bounds"],
    "paper-relax": ["--paper-baseline", "--relax-bounds"],
}

ERRORS = {
    "error-fuzzy-no-spreads": ["fuzzy"],
    "error-fuzzy-partial-spreads": ["fuzzy", "--d1", "100"],
    "error-fuzzy-partial-config-spreads": ["fuzzy", "--config", "configs/partial-spreads.json"],
    "error-crisp-h-zero": ["crisp", "--h", "0"],
    # phi + psi overflows although each rate is finite
    "error-crisp-rate-overflow": [
        "crisp", "--phi", "1e308", "--psi", "1e308", "--h", "1", "--s", "1e-300",
    ],
    "error-verify-psi-5": ["verify-table", "--psi", "5"],
    "error-sweep-reference-and-config": [
        "sweep", "--reference", "--config", "configs/sweep.json",
    ],
    "error-sweep-no-rows": ["sweep"],
    "error-sweep-empty-config": ["sweep", "--config", "configs/empty-sweep.json"],
    "error-config-bad-key": ["crisp", "--config", "configs/bad-key.json"],
    "error-config-bad-params-key": ["crisp", "--config", "configs/bad-params-key.json"],
    "error-config-params-not-object": ["crisp", "--config", "configs/params-not-object.json"],
    "error-config-non-number": ["crisp", "--config", "configs/non-number.json"],
    "error-config-non-object": ["crisp", "--config", "configs/non-object.json"],
    "error-config-invalid-json": ["crisp", "--config", "configs/invalid.json"],
    "error-config-missing-file": ["crisp", "--config", "configs/missing.json"],
    "error-config-row-value": ["sweep", "--config", "configs/bad-row-value.json"],
    "error-config-row-non-number": ["sweep", "--config", "configs/row-non-number.json"],
    "error-config-row-keys": ["sweep", "--config", "configs/bad-row-keys.json"],
    "error-config-sweep-not-list": ["sweep", "--config", "configs/sweep-not-list.json"],
    # the crisp optimum, about 0.011 units, would truncate to no whole unit
    "error-fuzzy-paper-baseline-below-one-unit": [
        "fuzzy", "--s", "1e-6", *ROW1, "--paper-baseline",
    ],
    # the crisp lot overflows to inf, while the row's, at a larger zeta, does not
    "error-fuzzy-crisp-baseline-overflow": [
        "fuzzy", "--phi", "1.7e16", "--psi", "1", "--h", "1e-300", "--s", "1e300",
        "--d1", "1.53e16", "--d2", "1", "--d3", "0.5", "--d4", "0.5",
    ],
    "error-verify-paper-baseline-below-one-unit": [
        "verify-table", "--s", "1e-6", "--paper-baseline",
    ],
}

# outcomes argparse decides before any solve: help exits 0, the rest 2
ARGPARSE = {
    "argparse-help": ["--help"],
    "argparse-crisp-help": ["crisp", "--help"],
    "argparse-no-command": [],
    "argparse-crisp-bogus": ["crisp", "--bogus"],
    "argparse-crisp-format-xml": ["crisp", "--format", "xml"],
    "argparse-fuzzy-d1-abc": ["fuzzy", "--d1", "abc"],
}

SOLVES = {
    # 2 s delta overflows, yet q* (about 3.4e154) and its cost are finite
    "crisp-huge-setup-cost": ["crisp", "--s", "1e306", "--h", "1", "--format", "json"],
    # the whole-unit baseline fails; rows 2 and 4 fail their own checks first,
    # and rows 1 and 3 carry the baseline's error
    "sweep-config-paper-baseline-below-one-unit": [
        "sweep", "--config", "configs/sweep.json", "--s", "1e-6", "--paper-baseline",
        "--format", "json",
    ],
}

CASES = {
    **{f"{command}.{fmt}.{flags}": [*argv, *FLAGS[flags], "--format", fmt]
       for command, argv in COMMANDS.items()
       for fmt in ("human", "csv", "json")
       for flags in FLAGS},
    **ERRORS, **ARGPARSE, **SOLVES,
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _owned(code: int, out: str, err: str) -> tuple:
    """The parts of an argparse outcome that fuzzy-eoq decides."""
    usage = (out or err).partition(" [")[0]  # e.g. "usage: fuzzy-eoq crisp"
    error = err.splitlines()[-1].partition("'")[0].partition("(")[0] if code else ""
    return code, bool(out), bool(err), usage, error


@pytest.fixture(scope="module")
def status() -> dict:
    return json.loads(STATUS.read_text())


def test_every_case_has_a_golden_file(status):
    assert sorted(status) == sorted(CASES)
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(name, status, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    code, out, err = _run(CASES[name])
    want_out = (GOLDEN / f"{name}.out").read_text()
    want_code, want_err = status[name]["code"], status[name]["stderr"]
    if name in ARGPARSE:
        assert _owned(code, out, err) == _owned(want_code, want_out, want_err)
        return
    assert out == want_out
    assert err == want_err
    assert code == want_code


@pytest.mark.parametrize("name", [name for name in CASES if name not in ARGPARSE])
def test_repeated_call_writes_the_golden_again(name, status, monkeypatch):
    # with nothing kept yet, so the first call computes and renders what a
    # second call in the same process may write from what the first kept
    monkeypatch.chdir(GOLDEN)
    want = (status[name]["code"], (GOLDEN / f"{name}.out").read_text(), status[name]["stderr"])
    assert _run(CASES[name]) == _run(CASES[name]) == want


def _regenerate() -> None:
    import os

    os.chdir(GOLDEN)
    os.environ["COLUMNS"] = COLUMNS
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    status = {}
    for name, argv in CASES.items():
        code, out, err = _run(argv)
        (GOLDEN / f"{name}.out").write_text(out)
        status[name] = {"code": code, "stderr": err}
    STATUS.write_text(json.dumps(status, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
