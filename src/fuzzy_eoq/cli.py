"""Command-line front end: crisp solves, fuzzy solves, sweeps, table audit.

``main`` merges the config file and the flags once; each command returns one ``_Result``,
and one renderer per output format turns it into text.  A JSON answer is
``json.dumps(payload, indent=2)`` of plain dicts and lists, except that a sweep lays out
its ``rows`` list from one per-row template: ``json.dumps`` takes about 2.5 times as long
over those rows, several times what solving them takes.  ``main(argv)`` may be called many
times in one process.  A call without ``--config`` reads nothing but its argv and the
bundled table, so its answer is kept by its argv: a repeated call writes the kept stdout and
stderr, returns the kept exit code, and parses, solves and renders nothing.  At most 48
answers are kept, the least recently used dropped first.  An answer that ends in an error is
not kept, and ``--out`` is written on every call.  The package keeps three things, each for
what needs it: ``_KEPT`` (``cli-calls`` ``call2_us``), ``sensitivity._audit``
(``sweep-shared`` ``call_p50_us`` and ``call2_us``) and ``load_reference_table`` (the
package's one data file, read once).

Exit codes: 0 on success, 1 when a sweep had failing rows or the table
audit found deviations, 2 on invalid parameters, spreads, or config, on a
failed quadrature, or when ``--out`` cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from functools import cache, partial
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional

from .defuzzify import FuzzySpreads, zeta_quadrature
from .errors import DomainError, QuadratureError
from .model import (CrispParams, CycleQuantities, SolutionRecord, _baseline, _solve,
                    crisp_optimal, cycle_quantities)
from .sensitivity import (AUDIT_COLUMNS, REFERENCE_PARAMS, AuditRow, SweepSpec, audit_table,
                          load_reference_table, run_sweep)

_KEYS = [tuple(field.name for field in fields(cls))
         for cls in (CrispParams, FuzzySpreads, SolutionRecord, CycleQuantities)]
_PARAM_KEYS, _SPREAD_KEYS, _RECORD_KEYS, _CYCLE_KEYS = _KEYS
_param_values, _spread_values, _record_values, _cycle_values = (attrgetter(*k) for k in _KEYS)
_SPREAD_SET = frozenset(_SPREAD_KEYS)
_SOLUTION_HEADER = [*_SPREAD_KEYS, *_RECORD_KEYS]
# the audit cell's fields in JSON order, each with its CSV column ("{}": the audit column),
# or None: JSON only, fixed per column by the audit mode
_AUDIT_CELL_FIELDS = {"column": None, "recomputed": "{}", "paper": "paper_{}",
                      "abs_dev": "{}_abs_dev", "rel_dev": "{}_rel_dev", "tolerance": None,
                      "relative": None, "passed": "{}_pass"}
_AUDIT_CSV = {name: template for name, template in _AUDIT_CELL_FIELDS.items() if template}
_AUDIT_HEADER = ["row", *_SPREAD_KEYS, *(template.format(column) for column in AUDIT_COLUMNS
                 for template in _AUDIT_CSV.values()), "zeta_sign_contradiction"]
_audit_values, _audit_json_values = attrgetter(*_AUDIT_CSV), attrgetter(*_AUDIT_CELL_FIELDS)


def _text_table(*columns: tuple[str, int, str]) -> tuple[str, list[str]]:
    """A human table's heading and cell templates, from each column declared
    once as (heading, width, number format)."""
    return ("  " + " ".join(f"{heading:>{width}}" for heading, width, _ in columns),
            [f"{{:>{width}{spec}}}" for _, width, spec in columns])


_SWEEP_HEADING, _SWEEP_CELLS = _text_table(
    ("row", 4, ""), ("d1", 8, "g"), ("d2", 8, "g"), ("d3", 6, "g"), ("d4", 6, "g"),
    ("delta", 10, "g"), ("zeta", 14, ".10f"), ("q*", 14, ".6f"), ("Z*", 14, ".6f"),
    ("rel_q%", 10, ".4f"), ("rel_z%", 10, ".4f"))
_SWEEP_ROW, _SWEEP_FAILED = "  " + " ".join(_SWEEP_CELLS), f"  {_SWEEP_CELLS[0]} failed: {{}}"
# the audit's zeta table; each row ends in its sign flag
_ZETA_HEADING, _ZETA_CELLS = _text_table(
    ("row", 4, ""), ("d1", 6, "g"), ("d2", 6, "g"), ("d3", 4, "g"), ("d4", 4, "g"),
    ("zeta recomputed", 16, ".10f"), ("zeta published", 15, ".5f"))
_ZETA_ROW = "  " + " ".join(_ZETA_CELLS) + "  {}"
# the CSV text of True, False and None, keyed by their reprs
_CSV_WORDS = {"True": "true", "False": "false", "None": ""}
# a sweep's solved row in its JSON list, with %r at each value: json writes a finite
# float or an int as its repr
_SWEEP_ROW_JSON = json.dumps({"row": "%r", "spreads": dict.fromkeys(_SPREAD_KEYS, "%r"),
                              **dict.fromkeys(_RECORD_KEYS, "%r")},
                             indent=2).replace('"%r"', "%r").replace("\n", "\n    ")
# the sweep payload's "rows" until its list is spliced in: json writes it as "\u0000",
# and only the params and flags come before it, which are numbers and booleans
_ROWS_MARK = "\x00"


def _audit_texts(row: AuditRow) -> Iterable[str]:
    """Each CSV field of the row's cells as text: a float's repr, or the word for a bool or None."""
    texts = [*map(repr, chain.from_iterable(map(_audit_values, row.cells)))]
    return map(_CSV_WORDS.get, texts, texts)


class _Result(NamedTuple):
    """What one command produced: a lazy builder per output form, and the exit code.
    Only the requested builder runs, so a large csv sweep builds no JSON payload.
    The json builder gives the answer's JSON text: ``json.dumps(payload, indent=2)`` of
    plain dicts and lists, into which a sweep splices its rows.  Table cells need no csv
    quoting: they are float reprs, integers, names, true, false or empty.  ``err`` is what
    the command writes to stderr before its output."""

    json: Callable[[], str]
    table: Callable[[], tuple[list[str], Iterable[Iterable[str]]]]
    lines: Callable[[], Iterable[str]]
    code: int = 0
    err: str = ""


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _cells(values: Iterable[float]) -> Iterable[str]:
    # shortest digit string that round-trips binary64: every value is a float,
    # as the config and flag parsers convert numbers
    return map(repr, values)


def _pairs(obj: object, keys: tuple[str, ...]) -> str:
    return " ".join(f"{key}={_fmt(getattr(obj, key))}" for key in keys)


def _solution_values(spreads: FuzzySpreads, record: SolutionRecord) -> tuple:
    return (*_spread_values(spreads), *_record_values(record))


def _render_csv(result: _Result) -> str:
    header, rows = result.table()
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


_RENDERERS: dict[str, Callable[[_Result], str]] = {
    "human": lambda result: "\n".join(result.lines()) + "\n",
    "csv": _render_csv,
    "json": lambda result: result.json() + "\n",
}


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise DomainError(f"cannot write {out!r}: {exc}") from exc


def _load_config(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DomainError(f"config: cannot read {path!r}: {exc}") from exc
    # a JSONDecodeError, an integer past the digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"config: {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"config: top level of {path!r} must be an object")
    for key in data:
        if key not in ("params", "spreads", "sweep"):
            raise DomainError(f"config: unknown key {key!r}")
    return data


def _number(value: object, section: str, key: str) -> float:
    """A config number as a float; ``section`` and ``key`` name it in errors."""
    if type(value) not in (int, float):  # json gives these exact types; a bool is no number
        raise DomainError(f"config: {section}.{key} must be a number (got {value!r})")
    try:
        return float(value)
    except OverflowError:  # json reads any integer literal exactly
        raise DomainError(f"config: {section}.{key} is out of the float range "
                          f"(got an integer of {len(str(abs(value)))} digits)") from None


def _merged(cfg: dict, args: argparse.Namespace, section: str,
            keys: tuple[str, ...], defaults: dict) -> dict:
    """``defaults``, then the numbers under ``cfg[section]``, then every flag
    in ``keys`` that was given.  The result is empty or holds every key."""
    values = cfg.get(section, {})
    if not isinstance(values, dict):
        raise DomainError(f"config: {section} must be an object")
    merged = dict(defaults)
    for key, value in values.items():
        if key not in keys:
            raise DomainError(f"config: unknown {section} key {key!r}")
        merged[key] = _number(value, section, key)
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    if merged and len(merged) < len(keys):
        missing = ", ".join(key for key in keys if key not in merged)
        raise DomainError(f"{section} require {', '.join(keys)} (missing: {missing})")
    return merged


def _sweep_rows(cfg: dict, args: argparse.Namespace) -> tuple[FuzzySpreads, ...]:
    section = cfg.get("sweep")
    if getattr(args, "reference", False):
        if section is not None:
            raise DomainError("config: give either --reference or a config sweep list, not both")
        return tuple(row.spreads for row in load_reference_table())
    if section is None:
        return ()
    if not isinstance(section, list):
        raise DomainError("config: sweep must be a list of objects")
    rows = []
    for i, entry in enumerate(section):
        where = f"sweep[{i}]"
        if not isinstance(entry, dict) or entry.keys() != _SPREAD_SET:
            raise DomainError(f"config: {where} must be an object with exactly d1, d2, d3, d4")
        # in d1..d4 order, so a row with several bad values names the first of them
        values = [_number(entry[key], where, key) for key in _SPREAD_KEYS]
        try:
            rows.append(FuzzySpreads(*values))
        except DomainError as exc:
            raise DomainError(f"config: {where}: {exc}") from exc
    return tuple(rows)


def _crisp(args: argparse.Namespace) -> _Result:
    p = args.params
    record = crisp_optimal(p)
    cycle = cycle_quantities(record.q_star, p)
    return _Result(
        json=lambda: json.dumps({"params": asdict(p), "record": asdict(record),
                                 "cycle": asdict(cycle)}, indent=2),
        table=lambda: ([*_PARAM_KEYS, "q_star", "z_star", *_CYCLE_KEYS],
                       [_cells((*_param_values(p), record.q_star, record.z_star,
                                *_cycle_values(cycle)))]),
        lines=lambda: [
            "crisp solve",
            f"  params: {_pairs(p, _PARAM_KEYS)}",
            f"  q*: {_fmt(record.q_star)}",
            f"  cost: {_fmt(record.z_star)}",
            f"  cycle: {_pairs(cycle, _CYCLE_KEYS)}",
        ],
    )


def _fuzzy(args: argparse.Namespace) -> _Result:
    p, sp = args.params, args.spreads
    if sp is None:
        raise DomainError("fuzzy solve requires spreads d1, d2, d3, d4 (flags or config)")
    baseline = cache(partial(_baseline, p, args.paper_baseline))
    record = _solve(p, sp, baseline, args.relax_bounds)
    base_q, base_z = baseline()
    z_quad = zeta_quadrature(p.phi, p.psi, sp, relax_bounds=args.relax_bounds)
    baseline_label = "baseline (truncated)" if args.paper_baseline else "baseline (crisp)"
    return _Result(
        json=lambda: json.dumps({
            "params": asdict(p), "spreads": asdict(sp),
            "paper_baseline": args.paper_baseline, "relax_bounds": args.relax_bounds,
            "zeta_closed_form": record.zeta, "zeta_quadrature": z_quad,
            "baseline": {"q_star": base_q, "z_star": base_z},
            "record": asdict(record),
        }, indent=2),
        table=lambda: (_SOLUTION_HEADER, [_cells(_solution_values(sp, record))]),
        lines=lambda: [
            "fuzzy solve",
            f"  params: {_pairs(p, _PARAM_KEYS)}",
            f"  spreads: {_pairs(sp, _SPREAD_KEYS)}",
            f"  delta (signed-distance demand): {_fmt(record.delta)}",
            f"  zeta closed form: {_fmt(record.zeta)}",
            f"  zeta quadrature:  {_fmt(z_quad)}",
            f"  q*: {_fmt(record.q_star)}",
            f"  Z*: {_fmt(record.z_star)}",
            f"  {baseline_label}: q*={_fmt(base_q)} Z*={_fmt(base_z)}",
            f"  rel_q: {_fmt(record.rel_q)}%  rel_z: {_fmt(record.rel_z)}%",
        ],
    )


def _sweep(args: argparse.Namespace) -> _Result:
    if not args.rows:
        raise DomainError("sweep requires rows: pass --reference or a config "
                          "with a non-empty sweep list")
    p, paper, relax = args.params, args.paper_baseline, args.relax_bounds
    results = run_sweep(SweepSpec(params=p, rows=args.rows), paper_baseline=paper,
                        relax_bounds=relax)
    solved = [row for row in results if row.record is not None]
    failed = [row for row in results if row.record is None]

    def rows_json() -> str:
        rows = [_SWEEP_ROW_JSON % (row.index + 1, *_solution_values(row.spreads, row.record))
                for row in solved]
        return "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"

    def lines() -> Iterable[str]:
        yield from (f"sweep ({_pairs(p, _PARAM_KEYS)})", _SWEEP_HEADING)
        for row in results:
            yield (_SWEEP_FAILED.format(row.index + 1, row.error) if row.record is None else
                   _SWEEP_ROW.format(row.index + 1, *_solution_values(row.spreads, row.record)))
        yield f"  rows solved: {len(solved)}/{len(results)}"

    return _Result(
        json=lambda: json.dumps({
            "params": asdict(p), "paper_baseline": paper, "relax_bounds": relax,
            "rows": _ROWS_MARK,
            "errors": [{"row": row.index + 1, "error": row.error} for row in failed],
        }, indent=2).replace(json.dumps(_ROWS_MARK), rows_json(), 1),
        table=lambda: (_SOLUTION_HEADER,
                       (_cells(_solution_values(row.spreads, row.record)) for row in solved)),
        lines=lines,
        code=1 if failed else 0,
        err="".join(f"row {row.index + 1}: {row.error}\n" for row in failed),
    )


def _verify_table(args: argparse.Namespace) -> _Result:
    audit = audit_table(args.params, paper_baseline=args.paper_baseline)
    hard_pass, deviations = audit.hard_pass, audit.deviations

    def lines() -> Iterable[str]:
        mode = ("replayed published zeta, truncated baseline" if audit.paper_baseline
                else "recomputed pipeline, exact baseline")
        yield from ("reference table audit", f"  params: {_pairs(audit.params, _PARAM_KEYS)}",
                    f"  mode: {mode}", "")
        yield f"{_ZETA_HEADING}  flag"
        for row in audit.rows:
            cell = row.cell("zeta")
            flag = "contradicts zeta > 0" if row.zeta_sign_contradiction else ""
            yield _ZETA_ROW.format(row.index + 1, *_spread_values(row.spreads),
                                   cell.recomputed, cell.paper, flag).rstrip()
        yield from ("", "  column summary")
        for column in AUDIT_COLUMNS:
            cells = [row.cell(column) for row in audit.rows]
            max_abs = _fmt(max(cell.abs_dev for cell in cells))
            if cells[0].tolerance is None:
                above = sum(deviating == column for _, deviating in deviations)
                yield (f"    {column:<7} informational: max abs dev {max_abs} "
                       f"({above}/{len(cells)} rows deviate)")
            else:
                kind = "rel" if cells[0].relative else "abs"
                passed = sum(bool(cell.passed) for cell in cells)
                yield (f"    {column:<7} hard {cells[0].tolerance:g} {kind}: "
                       f"{passed}/{len(cells)} pass, max abs dev {max_abs}")
        contradictions = audit.sign_contradictions
        yield from (
            "",
            f"  hard checks: {'PASS' if hard_pass else 'FAIL'}",
            f"  informational deviations: {len(deviations)} cells",
            "  published zeta sign contradictions: "
            f"{len(contradictions)} rows ({', '.join(str(i + 1) for i in contradictions)})",
        )

    return _Result(
        json=lambda: json.dumps({
            "params": asdict(audit.params),
            "mode": "paper-baseline" if audit.paper_baseline else "recomputed",
            "hard_pass": hard_pass, "deviation_count": len(deviations),
            "sign_contradiction_rows": [i + 1 for i in audit.sign_contradictions],
            "rows": [{"row": row.index + 1, "spreads": asdict(row.spreads),
                      "zeta_sign_contradiction": row.zeta_sign_contradiction,
                      "cells": [dict(zip(_AUDIT_CELL_FIELDS, _audit_json_values(cell)))
                                for cell in row.cells]}
                     for row in audit.rows],
        }, indent=2),
        table=lambda: (_AUDIT_HEADER, ([str(row.index + 1), *_cells(_spread_values(row.spreads)),
                                        *_audit_texts(row),
                                        _CSV_WORDS[repr(row.zeta_sign_contradiction)]]
                                       for row in audit.rows)),
        lines=lines,
        code=0 if hard_pass and not deviations else 1,
    )


_COMMON_FLAGS = {
    "--config": {"help": "JSON config file (params/spreads/sweep)"},
    "--format": {"choices": tuple(_RENDERERS), "default": "human",
                 "help": "output format (default: human)"},
    "--out": {"help": "write output to this file instead of stdout"},
    "--paper-baseline": {"action": "store_true",
                         "help": "use the crisp optimum truncated to whole units as the baseline"},
    "--relax-bounds": {"action": "store_true",
                       "help": "lift the upper-spread bounds d2 < phi and d4 < psi"},
    **{f"--{key}": {"type": float, "help": f"override {key}"} for key in _PARAM_KEYS},
}
# name: (help, handler, flags beyond the common ones)
_COMMANDS = {
    "crisp": ("solve the crisp model", _crisp, {}),
    "fuzzy": ("solve the fuzzy model for one spread set", _fuzzy,
              {f"--{key}": {"type": float, "help": f"spread {key}"} for key in _SPREAD_KEYS}),
    "sweep": ("solve the fuzzy model over many spread rows", _sweep,
              {"--reference": {"action": "store_true",
                               "help": "sweep the spread rows of the bundled reference table"}}),
    "verify-table": ("audit the bundled reference table against recomputation", _verify_table, {}),
}


def _build_parser() -> argparse.ArgumentParser:
    description = "Lot sizing for leaky inventories with fuzzy demand and leakage rates."
    parser = argparse.ArgumentParser(prog="fuzzy-eoq", description=description)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, extra) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        for flag, options in {**_COMMON_FLAGS, **extra}.items():
            sub.add_argument(flag, **options)
        sub.set_defaults(handler=handler)
    return parser


# the answer of each call without --config by its argv, most recently used last, for
# cli-calls call2_us; at most one per command, format and flag set at one parameter set
_KEPT: dict[tuple[str, ...], tuple[str, str, int, Optional[str]]] = {}
_KEPT_MAX = len(_COMMANDS) * len(_RENDERERS) * 4


def _answer(argv: tuple[str, ...]) -> tuple[str, str, int, Optional[str]]:
    """The call's stderr, output text, exit code and ``--out`` path, kept by its argv."""
    args = _build_parser().parse_args(argv)
    cfg = _load_config(args.config) if args.config else {}
    defaults = dict(zip(_PARAM_KEYS, _param_values(REFERENCE_PARAMS)))
    args.params = CrispParams(**_merged(cfg, args, "params", _PARAM_KEYS, defaults))
    spreads = _merged(cfg, args, "spreads", _SPREAD_KEYS, {})
    args.spreads = FuzzySpreads(**spreads) if spreads else None
    args.rows = _sweep_rows(cfg, args)
    del cfg  # a parsed 10^4-row sweep config is megabytes; free it before solving
    result = args.handler(args)
    answer = result.err, _RENDERERS[args.format](result), result.code, args.out
    if not args.config:  # a config file may change between calls
        _KEPT[argv] = answer
        if len(_KEPT) > _KEPT_MAX:
            del _KEPT[next(iter(_KEPT))]
    return answer


def main(argv: Optional[list[str]] = None) -> int:
    key = tuple(sys.argv[1:] if argv is None else argv)
    try:
        if kept := _KEPT.pop(key, None):
            _KEPT[key] = kept  # most recently used last
        err, text, code, out = kept or _answer(key)
        sys.stderr.write(err)
        _emit(text, out)
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"error: quadrature failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
