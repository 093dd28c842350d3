"""Command-line front end: crisp solves, fuzzy solves, sweeps, table audit.

Exit codes: 0 on success, 1 when a sweep had failing rows or the table
audit found deviations, 2 on invalid parameters, spreads, or config.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .defuzzify import (
    FuzzySpreads,
    delta_signed_demand,
    zeta_quadrature,
)
from .errors import DomainError, QuadratureError
from .model import (
    CrispParams,
    SolutionRecord,
    crisp_optimal,
    cycle_quantities,
    held_baseline,
    solve_against,
)
from .sensitivity import (
    AUDIT_COLUMNS,
    REFERENCE_PARAMS,
    SweepSpec,
    TableAudit,
    audit_table,
    load_reference_table,
    run_sweep,
)

_PARAM_KEYS = ("phi", "psi", "h", "s")
_SPREAD_KEYS = ("d1", "d2", "d3", "d4")


@dataclass(frozen=True)
class RunConfig:
    """One merged invocation: config file values overridden by flags."""

    params: CrispParams
    spreads: Optional[FuzzySpreads]
    sweep_rows: Optional[tuple[FuzzySpreads, ...]]
    fmt: str
    out: Optional[str]
    paper_baseline: bool
    relax_bounds: bool


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _cell(value: float) -> str:
    # shortest digit string that round-trips binary64
    return repr(float(value))


def _emit(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise DomainError(f"cannot write {out!r}: {exc}") from exc


def _number(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"config: {where} must be a number (got {value!r})")
    return float(value)


def _load_config_file(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DomainError(f"config: cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"config: {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"config: top level of {path!r} must be an object")
    for key in data:
        if key not in ("params", "spreads", "sweep"):
            raise DomainError(f"config: unknown key {key!r}")
    return data


def _merged_params(cfg: dict, args: argparse.Namespace) -> CrispParams:
    merged = {
        "phi": REFERENCE_PARAMS.phi,
        "psi": REFERENCE_PARAMS.psi,
        "h": REFERENCE_PARAMS.h,
        "s": REFERENCE_PARAMS.s,
    }
    section = cfg.get("params", {})
    if not isinstance(section, dict):
        raise DomainError("config: params must be an object")
    for key, value in section.items():
        if key not in _PARAM_KEYS:
            raise DomainError(f"config: unknown params key {key!r}")
        merged[key] = _number(value, f"params.{key}")
    for key in _PARAM_KEYS:
        override = getattr(args, key)
        if override is not None:
            merged[key] = override
    return CrispParams(**merged)


def _merged_spreads(cfg: dict, args: argparse.Namespace) -> Optional[FuzzySpreads]:
    merged: dict[str, float] = {}
    section = cfg.get("spreads", {})
    if not isinstance(section, dict):
        raise DomainError("config: spreads must be an object")
    for key, value in section.items():
        if key not in _SPREAD_KEYS:
            raise DomainError(f"config: unknown spreads key {key!r}")
        merged[key] = _number(value, f"spreads.{key}")
    for key in _SPREAD_KEYS:
        override = getattr(args, key, None)
        if override is not None:
            merged[key] = override
    if not merged:
        return None
    missing = [key for key in _SPREAD_KEYS if key not in merged]
    if missing:
        raise DomainError(f"spreads require d1, d2, d3, d4 (missing: {', '.join(missing)})")
    return FuzzySpreads(**merged)


def _sweep_rows(cfg: dict, args: argparse.Namespace) -> Optional[tuple[FuzzySpreads, ...]]:
    section = cfg.get("sweep")
    use_reference = getattr(args, "reference", False)
    if use_reference and section is not None:
        raise DomainError("config: give either --reference or a config sweep list, not both")
    if use_reference:
        return tuple(row.spreads for row in load_reference_table())
    if section is None:
        return None
    if not isinstance(section, list):
        raise DomainError("config: sweep must be a list of objects")
    rows = []
    for i, entry in enumerate(section):
        if not isinstance(entry, dict) or set(entry) != set(_SPREAD_KEYS):
            raise DomainError(
                f"config: sweep[{i}] must be an object with exactly d1, d2, d3, d4"
            )
        try:
            rows.append(
                FuzzySpreads(**{key: _number(entry[key], f"sweep[{i}].{key}") for key in _SPREAD_KEYS})
            )
        except DomainError as exc:
            raise DomainError(f"config: sweep[{i}]: {exc}") from exc
    return tuple(rows)


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = _load_config_file(args.config) if args.config else {}
    return RunConfig(
        params=_merged_params(cfg, args),
        spreads=_merged_spreads(cfg, args),
        sweep_rows=_sweep_rows(cfg, args),
        fmt=args.format,
        out=args.out,
        paper_baseline=args.paper_baseline,
        relax_bounds=args.relax_bounds,
    )


def _params_dict(p: CrispParams) -> dict[str, float]:
    return {"phi": p.phi, "psi": p.psi, "h": p.h, "s": p.s}


def _spreads_dict(sp: FuzzySpreads) -> dict[str, float]:
    return {"d1": sp.d1, "d2": sp.d2, "d3": sp.d3, "d4": sp.d4}


def _params_line(p: CrispParams) -> str:
    return f"phi={_fmt(p.phi)} psi={_fmt(p.psi)} h={_fmt(p.h)} s={_fmt(p.s)}"


def _spreads_line(sp: FuzzySpreads) -> str:
    return f"d1={_fmt(sp.d1)} d2={_fmt(sp.d2)} d3={_fmt(sp.d3)} d4={_fmt(sp.d4)}"


def _cmd_crisp(args: argparse.Namespace) -> int:
    rc = _build_config(args)
    record = crisp_optimal(rc.params)
    cycle = cycle_quantities(record.q_star, rc.params)
    if rc.fmt == "json":
        payload = {
            "params": _params_dict(rc.params),
            "record": record.to_dict(),
            "cycle": {"t": cycle.t, "t1": cycle.t1, "leaked": cycle.leaked},
        }
        text = json.dumps(payload, indent=2)
    elif rc.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["phi", "psi", "h", "s", "q_star", "z_star", "t", "t1", "leaked"])
        writer.writerow(
            [_cell(v) for v in (
                rc.params.phi, rc.params.psi, rc.params.h, rc.params.s,
                record.q_star, record.z_star, cycle.t, cycle.t1, cycle.leaked,
            )]
        )
        text = buf.getvalue()
    else:
        text = "\n".join([
            "crisp solve",
            f"  params: {_params_line(rc.params)}",
            f"  q*: {_fmt(record.q_star)}",
            f"  cost: {_fmt(record.z_star)}",
            f"  cycle: t={_fmt(cycle.t)} t1={_fmt(cycle.t1)} leaked={_fmt(cycle.leaked)}",
        ])
    _emit(text, rc.out)
    return 0


def _cmd_fuzzy(args: argparse.Namespace) -> int:
    rc = _build_config(args)
    if rc.spreads is None:
        raise DomainError("fuzzy solve requires spreads d1, d2, d3, d4 (flags or config)")
    p, sp = rc.params, rc.spreads
    baseline = held_baseline(p, rc.paper_baseline)
    record = solve_against(p, sp, baseline, relax_bounds=rc.relax_bounds)
    z_quad = zeta_quadrature(p.phi, p.psi, sp, relax_bounds=rc.relax_bounds)
    if rc.fmt == "json":
        payload = {
            "params": _params_dict(p),
            "spreads": _spreads_dict(sp),
            "paper_baseline": rc.paper_baseline,
            "relax_bounds": rc.relax_bounds,
            "zeta_closed_form": record.zeta,
            "zeta_quadrature": z_quad,
            "baseline": {"q_star": baseline.q_star, "z_star": baseline.z_star},
            "record": record.to_dict(),
        }
        text = json.dumps(payload, indent=2)
    elif rc.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(_SPREAD_KEYS) + ["delta", "zeta", "q_star", "z_star", "rel_q", "rel_z"])
        writer.writerow(
            [_cell(v) for v in (
                sp.d1, sp.d2, sp.d3, sp.d4,
                record.delta, record.zeta, record.q_star, record.z_star,
                record.rel_q, record.rel_z,
            )]
        )
        text = buf.getvalue()
    else:
        baseline_label = "baseline (truncated)" if rc.paper_baseline else "baseline (crisp)"
        text = "\n".join([
            "fuzzy solve",
            f"  params: {_params_line(p)}",
            f"  spreads: {_spreads_line(sp)}",
            f"  delta (signed-distance demand): {_fmt(record.delta)}",
            f"  zeta closed form: {_fmt(record.zeta)}",
            f"  zeta quadrature:  {_fmt(z_quad)}",
            f"  q*: {_fmt(record.q_star)}",
            f"  Z*: {_fmt(record.z_star)}",
            f"  {baseline_label}: q*={_fmt(baseline.q_star)} Z*={_fmt(baseline.z_star)}",
            f"  rel_q: {_fmt(record.rel_q)}%  rel_z: {_fmt(record.rel_z)}%",
        ])
    _emit(text, rc.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    rc = _build_config(args)
    if not rc.sweep_rows:
        raise DomainError(
            "sweep requires rows: pass --reference or a config with a non-empty sweep list"
        )
    spec = SweepSpec(params=rc.params, rows=rc.sweep_rows)
    results = run_sweep(
        spec, paper_baseline=rc.paper_baseline, relax_bounds=rc.relax_bounds
    )
    failed = [row for row in results if row.error is not None]
    for row in failed:
        print(f"row {row.index + 1}: {row.error}", file=sys.stderr)
    if rc.fmt == "json":
        payload = {
            "params": _params_dict(rc.params),
            "paper_baseline": rc.paper_baseline,
            "relax_bounds": rc.relax_bounds,
            "rows": [
                {"row": row.index + 1, "spreads": _spreads_dict(row.spreads), **row.record.to_dict()}
                for row in results
                if row.record is not None
            ],
            "errors": [
                {"row": row.index + 1, "error": row.error} for row in failed
            ],
        }
        text = json.dumps(payload, indent=2)
    elif rc.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(_SPREAD_KEYS) + ["delta", "zeta", "q_star", "z_star", "rel_q", "rel_z"])
        for row in results:
            if row.record is None:
                continue
            rec = row.record
            writer.writerow(
                [_cell(v) for v in (
                    row.spreads.d1, row.spreads.d2, row.spreads.d3, row.spreads.d4,
                    rec.delta, rec.zeta, rec.q_star, rec.z_star, rec.rel_q, rec.rel_z,
                )]
            )
        text = buf.getvalue()
    else:
        lines = [
            f"sweep ({_params_line(rc.params)})",
            f"  {'row':>4} {'d1':>8} {'d2':>8} {'d3':>6} {'d4':>6} "
            f"{'delta':>10} {'zeta':>14} {'q*':>14} {'Z*':>14} {'rel_q%':>10} {'rel_z%':>10}",
        ]
        for row in results:
            if row.record is None:
                lines.append(f"  {row.index + 1:>4} failed: {row.error}")
                continue
            rec = row.record
            lines.append(
                f"  {row.index + 1:>4} {row.spreads.d1:>8g} {row.spreads.d2:>8g} "
                f"{row.spreads.d3:>6g} {row.spreads.d4:>6g} {rec.delta:>10g} "
                f"{rec.zeta:>14.10f} {rec.q_star:>14.6f} {rec.z_star:>14.6f} "
                f"{rec.rel_q:>10.4f} {rec.rel_z:>10.4f}"
            )
        lines.append(f"  rows solved: {len(results) - len(failed)}/{len(results)}")
        text = "\n".join(lines)
    _emit(text, rc.out)
    return 1 if failed else 0


def _audit_json(audit: TableAudit) -> str:
    payload = {
        "params": _params_dict(audit.params),
        "mode": "paper-baseline" if audit.paper_baseline else "recomputed",
        "hard_pass": audit.hard_pass,
        "deviation_count": len(audit.deviations),
        "sign_contradiction_rows": [i + 1 for i in audit.sign_contradictions],
        "rows": [
            {
                "row": row.index + 1,
                "spreads": _spreads_dict(row.spreads),
                "zeta_sign_contradiction": row.zeta_sign_contradiction,
                "cells": [
                    {
                        "column": cell.column,
                        "recomputed": cell.recomputed,
                        "paper": cell.paper,
                        "abs_dev": cell.abs_dev,
                        "rel_dev": cell.rel_dev,
                        "tolerance": cell.tolerance,
                        "relative": cell.relative,
                        "passed": cell.passed,
                    }
                    for cell in row.cells
                ],
            }
            for row in audit.rows
        ],
    }
    return json.dumps(payload, indent=2)


def _audit_csv(audit: TableAudit) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["row", "d1", "d2", "d3", "d4"]
    for column in AUDIT_COLUMNS:
        header += [
            column,
            f"paper_{column}",
            f"{column}_abs_dev",
            f"{column}_rel_dev",
            f"{column}_pass",
        ]
    header.append("zeta_sign_contradiction")
    writer.writerow(header)
    for row in audit.rows:
        sp = row.spreads
        fields = [str(row.index + 1), _cell(sp.d1), _cell(sp.d2), _cell(sp.d3), _cell(sp.d4)]
        for cell in row.cells:
            fields += [
                _cell(cell.recomputed),
                _cell(cell.paper),
                _cell(cell.abs_dev),
                _cell(cell.rel_dev),
                "" if cell.passed is None else str(cell.passed).lower(),
            ]
        fields.append(str(row.zeta_sign_contradiction).lower())
        writer.writerow(fields)
    return buf.getvalue()


def _audit_human(audit: TableAudit) -> str:
    mode = (
        "replayed published zeta, truncated baseline"
        if audit.paper_baseline
        else "recomputed pipeline, exact baseline"
    )
    lines = [
        "reference table audit",
        f"  params: {_params_line(audit.params)}",
        f"  mode: {mode}",
        "",
        f"  {'row':>4} {'d1':>6} {'d2':>6} {'d3':>4} {'d4':>4} "
        f"{'zeta recomputed':>16} {'zeta published':>15}  flag",
    ]
    for row in audit.rows:
        cell = row.cell("zeta")
        flag = "contradicts zeta > 0" if row.zeta_sign_contradiction else ""
        lines.append(
            f"  {row.index + 1:>4} {row.spreads.d1:>6g} {row.spreads.d2:>6g} "
            f"{row.spreads.d3:>4g} {row.spreads.d4:>4g} "
            f"{cell.recomputed:>16.10f} {cell.paper:>15.5f}  {flag}".rstrip()
        )
    lines.append("")
    lines.append("  column summary")
    for column in AUDIT_COLUMNS:
        cells = [row.cell(column) for row in audit.rows]
        max_abs = max(cell.abs_dev for cell in cells)
        if cells[0].tolerance is None:
            above = sum(cell.abs_dev > 1e-9 for cell in cells)
            lines.append(
                f"    {column:<7} informational: max abs dev {_fmt(max_abs)} "
                f"({above}/18 rows deviate)"
            )
        else:
            kind = "rel" if cells[0].relative else "abs"
            passed = sum(bool(cell.passed) for cell in cells)
            lines.append(
                f"    {column:<7} hard {cells[0].tolerance:g} {kind}: "
                f"{passed}/18 pass, max abs dev {_fmt(max_abs)}"
            )
    lines.append("")
    lines.append(f"  hard checks: {'PASS' if audit.hard_pass else 'FAIL'}")
    lines.append(f"  informational deviations: {len(audit.deviations)} cells")
    contradictions = audit.sign_contradictions
    lines.append(
        "  published zeta sign contradictions: "
        f"{len(contradictions)} rows ({', '.join(str(i + 1) for i in contradictions)})"
    )
    return "\n".join(lines)


def _cmd_verify_table(args: argparse.Namespace) -> int:
    rc = _build_config(args)
    audit = audit_table(rc.params, paper_baseline=rc.paper_baseline)
    if rc.fmt == "json":
        text = _audit_json(audit)
    elif rc.fmt == "csv":
        text = _audit_csv(audit)
    else:
        text = _audit_human(audit)
    _emit(text, rc.out)
    return 0 if audit.hard_pass and not audit.deviations else 1


def _add_common(sub: argparse.ArgumentParser, *, spreads: bool, sweep: bool) -> None:
    sub.add_argument("--config", help="JSON config file (params/spreads/sweep)")
    sub.add_argument(
        "--format", choices=("human", "csv", "json"), default="human",
        help="output format (default: human)",
    )
    sub.add_argument("--out", help="write output to this file instead of stdout")
    sub.add_argument(
        "--paper-baseline", action="store_true",
        help="use the crisp optimum truncated to whole units as the baseline",
    )
    sub.add_argument(
        "--relax-bounds", action="store_true",
        help="lift the upper-spread bounds d2 < phi and d4 < psi",
    )
    for key in _PARAM_KEYS:
        sub.add_argument(f"--{key}", type=float, help=f"override {key}")
    if spreads:
        for key in _SPREAD_KEYS:
            sub.add_argument(f"--{key}", type=float, help=f"spread {key}")
    if sweep:
        sub.add_argument(
            "--reference", action="store_true",
            help="sweep the spread rows of the bundled reference table",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzy-eoq",
        description="Lot sizing for leaky inventories with fuzzy demand and leakage rates.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    crisp = commands.add_parser("crisp", help="solve the crisp model")
    _add_common(crisp, spreads=False, sweep=False)
    crisp.set_defaults(handler=_cmd_crisp)

    fuzzy = commands.add_parser("fuzzy", help="solve the fuzzy model for one spread set")
    _add_common(fuzzy, spreads=True, sweep=False)
    fuzzy.set_defaults(handler=_cmd_fuzzy)

    sweep = commands.add_parser("sweep", help="solve the fuzzy model over many spread rows")
    _add_common(sweep, spreads=False, sweep=True)
    sweep.set_defaults(handler=_cmd_sweep)

    verify = commands.add_parser(
        "verify-table", help="audit the bundled reference table against recomputation"
    )
    _add_common(verify, spreads=False, sweep=False)
    verify.set_defaults(handler=_cmd_verify_table)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"error: quadrature failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
