"""Command line driver for the verification scenario suite.

Two subcommands: ``list`` prints the registered scenarios with their
one-line descriptions, ``run`` executes a selection (default: all) and
prints an aligned report table, optionally writing the same data as
JSON.  Exit codes: 0 when every line item is within tolerance, 1 for
failures under ``--check``, 2 for configuration errors such as an
unknown scenario name, 3 for numerical failures outside ``--check`` and
for any other typed error a scenario raises, 4 when the JSON report path
cannot be written.  A process that imports this module skips the teardown
collection at exit (``gc.freeze``, about 20 ms over numpy's objects), so
cyclic garbage still uncollected then is not finalized.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import sys
from typing import Optional, Sequence

from .errors import ConfigError, VerificationError
from .scenarios import (
    Config,
    ScenarioReport,
    all_scenarios,
    get_scenario,
    run_scenario,
    scenarios_for,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REPORT_PATH = 4

atexit.register(gc.freeze)


def list_scenarios(module: Optional[str] = None) -> list:
    """Registered (name, description) pairs, optionally filtered by module.

    Ordering follows the registry, so repeated calls agree.  An unknown
    module name yields an empty list rather than an error.
    """
    scens = scenarios_for(module) if module else all_scenarios()
    return [(s.name, s.description) for s in scens]


def report_payload(reports: Sequence[ScenarioReport], config: Config) -> dict:
    """JSON-ready report: suite config, per-scenario items, summary counts.

    Each item carries its ``margin``, error / tol, null where that is
    undefined (see :attr:`cgbv.scenarios.Item.margin`).
    """
    scenarios = []
    items_total = items_passed = 0
    for rep in reports:
        items = []
        for it in rep.items:
            items.append({
                "identity": it.identity,
                "computed": it.computed,
                "expected": it.expected,
                "error": it.error,
                "tol": it.tol,
                "margin": it.margin,
                "provenance": it.provenance,
                "pass": it.passed,
            })
            items_total += 1
            items_passed += int(it.passed)
        scenarios.append({
            "name": rep.name,
            "items": items,
            "wall_ms": round(rep.wall_ms, 3),
        })
    passed = sum(1 for r in reports if r.passed)
    return {
        "suite": {
            "name": "cgb-verify",
            "seed": config.seed,
            "count": config.count,
        },
        "scenarios": scenarios,
        "summary": {
            "total": len(reports),
            "passed": passed,
            "failed": len(reports) - passed,
            "items_total": items_total,
            "items_passed": items_passed,
            "items_failed": items_total - items_passed,
        },
    }


def _text_table(reports: Sequence[ScenarioReport]) -> str:
    head = ("scenario", "identity", "computed", "expected", "error",
            "tol", "margin", "provenance", "status")
    rows = []
    for rep in reports:
        for it in rep.items:
            margin = "-" if it.margin is None else f"{it.margin:.2e}"
            rows.append((rep.name, it.identity, f"{it.computed:.10g}",
                         f"{it.expected:.10g}", f"{it.error:.3e}",
                         f"{it.tol:g}", margin, it.provenance,
                         "pass" if it.passed else "FAIL"))
    widths = [max(len(head[c]), *(len(r[c]) for r in rows)) if rows
              else len(head[c]) for c in range(len(head))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(head, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    n_pass = sum(1 for r in reports if r.passed)
    items = sum(len(r.items) for r in reports)
    items_pass = sum(1 for r in reports for it in r.items if it.passed)
    wall = sum(r.wall_ms for r in reports)
    lines.append(f"summary: {n_pass}/{len(reports)} scenarios passed, "
                 f"{items_pass}/{items} items, {wall:.0f} ms")
    return "\n".join(lines)


def emit_report(reports: Sequence[ScenarioReport], format: str = "text",
                path: Optional[str] = None,
                config: Optional[Config] = None) -> str:
    """Render reports as an aligned table or JSON; write to path if given.

    Raises OSError when the path is unwritable; the caller maps that to
    exit code 4.
    """
    if format == "json":
        text = json.dumps(report_payload(reports, config or Config()),
                          indent=2) + "\n"
    elif format == "text":
        text = _text_table(reports) + "\n"
    else:
        raise ConfigError(f"unknown report format {format!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgb-verify",
        description="numerical verification suite for curvature integrals, "
                    "transgressions, and duality pairings")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("--filter", metavar="MODULE", default=None,
                        help="only scenarios exercising this module")

    p_run = sub.add_parser("run", help="run scenarios and report")
    p_run.add_argument("names", nargs="*", metavar="NAME",
                       help="scenario names (default: every scenario)")
    p_run.add_argument("--filter", metavar="MODULE", default=None,
                       help="only scenarios exercising this module")
    p_run.add_argument("--seed", type=int, default=0,
                       help="seed for random test forms (default 0)")
    p_run.add_argument("--count", type=int, default=50,
                       help="random forms per identity (default 50)")
    p_run.add_argument("--json", dest="json_path", metavar="PATH",
                       default=None, help="also write the report as JSON")
    p_run.add_argument("--check", action="store_true",
                       help="exit 0/1 on pass/fail instead of reporting "
                            "numerical failures as exit 3")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    pairs = list_scenarios(args.filter)
    width = max((len(n) for n, _ in pairs), default=0)
    for name, desc in pairs:
        print(f"{name.ljust(width)}  {desc}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = Config(seed=args.seed, count=args.count)
        if args.names:
            scens = [get_scenario(n) for n in args.names]
        else:
            scens = list(scenarios_for(args.filter) if args.filter
                         else all_scenarios())
        if args.names and args.filter:
            scens = [s for s in scens if args.filter in s.modules]
        reports = []
        for scen in scens:
            reports.append(run_scenario(scen, config))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except VerificationError as exc:
        # only a runner raises anything but ConfigError, so scen is bound
        print(f"numerical failure: {scen.name}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL

    sys.stdout.write(emit_report(reports, "text", None, config))
    if args.json_path is not None:
        try:
            emit_report(reports, "json", args.json_path, config)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_REPORT_PATH

    failing = [(rep.name, it) for rep in reports for it in rep.items
               if not it.passed]
    if args.check:
        return EXIT_OK if not failing else EXIT_CHECK_FAILED
    if failing:
        for name, it in failing:
            reason = (f"error={it.error:.3e} exceeds tol={it.tol:g}"
                      if math.isfinite(it.computed)
                      else f"computed value {it.computed} is not finite")
            print(f"numerical failure: {name}:{it.identity} {reason}",
                  file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
