"""fuzzy-eoq benchmark: one workload per invocation, one JSON line at the end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-shared --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload's checked pass untraced, then again with
span wrappers installed on the package's module boundaries, and reports the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.

The package is imported from ``src/`` of the checkout this file sits in,
in this process and in every CLI child; the run refuses to start when that
is not where ``fuzzy_eoq`` resolves from.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts
every failed operation; ``correct`` is false when any of them is not one of
the open defects listed in ``common.KNOWN_DEFECTS``.  Each workload lives in
the module of the same name (``sweep_shared``, ``oracle_mixed``,
``cli_calls``); ``common`` describes what each end-to-end slot measures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(__file__).resolve().parent / ".work"
WORKLOADS = ("sweep-shared", "oracle-mixed", "cli-calls")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def _import_checkout():
    """Import ``fuzzy_eoq`` from this checkout's ``src/``; None if it is elsewhere."""
    sys.path.insert(0, str(SRC))
    import fuzzy_eoq

    where = Path(fuzzy_eoq.__file__).resolve().parent
    return fuzzy_eoq if where == (SRC / "fuzzy_eoq").resolve() else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fuzzy_eoq" / "__init__.py").is_file():
        return _fail(f"no package source at {SRC / 'fuzzy_eoq'}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    package = _import_checkout()
    if package is None:
        return _fail("fuzzy_eoq does not resolve to this checkout's src/")

    import common
    import timing

    workload = importlib.import_module(args.workload.replace("-", "_"))
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  trace: {args.trace}")
    print(f"fuzzy_eoq: {Path(package.__file__).resolve()}")
    print(f"commit: {_git_commit()}")
    print(f"python: {platform.python_version()} ({sys.executable})  platform: {platform.platform()}  "
          f"nproc: {os.cpu_count()}")

    previous_handler = timing.install_deadline_handler()
    try:
        setup_s, inputs = common.measure_setup(workload.setup, args.seed, args.seconds, ROOT, WORKDIR)
        report = workload.run(inputs, args.seconds, timing_cycles=not args.trace)
        if args.trace:
            workload.trace(inputs, report)
    except common.CheckoutError as exc:
        return _fail(str(exc))
    finally:
        timing.remove_deadline_handler(previous_handler)
        for leftover in WORKDIR.glob("sweep-*.json"):
            leftover.unlink()

    out = report.outcomes
    failed_share = out.failed / out.attempted
    print(f"attempted: {out.attempted}  failed: {out.failed}  failed_share: {failed_share:.6g}")
    for cause, n in sorted(out.causes.items()):
        kind = "open defect" if out.known[cause] == n else "UNEXPECTED" if not out.known[cause] else "mixed"
        print(f"  failures[{cause}] = {n} ({kind})")
    for cause, detail in sorted(out.examples.items()):
        print(f"  first unexpected {cause}: {detail}")
    cals = sorted(report.meter.calibrations)
    print(f"host calibration: median {cals[len(cals) // 2] * 1e3:.4g} ms over {len(cals)} loops "
          f"(reference {timing.CALIBRATION_REF_S * 1e3:g} ms; fastest {cals[0] * 1e3:.4g}, slowest {cals[-1] * 1e3:.4g})")
    for line in report.lines:
        print(line)
    print(f"setup_s = {setup_s:.6g} s (median of {common.SETUP_REPEATS}, normalised)")

    if args.trace:
        values = dict(report.layer)
        values["zeta.max_rel_gap"] = report.max_gap
        wanted = spec["per_layer"]
    else:
        values = dict(report.metrics, setup_s=setup_s, ok_share=1.0 - failed_share)
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            return _fail(f"workload produced no value for {name}")
        metrics[name] = {"value": float(values[name]), "unit": metric["unit"]}
        if args.trace:
            print(f"{name} = {values[name]:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": out.unexpected == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
