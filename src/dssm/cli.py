"""Command line entry point.

    dssm-sim run <scenario-file> [--seed N] [--trace out.csv]
                 [--metrics out.csv|out.json] [--compare-static]

<scenario-file> is a path or the name of a bundled scenario
(churn50, two_domain, bandwidth_sweep, agent_crash).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .core import IoError
from .metrics import export_metrics
from .scenario import (
    AssertionFailure,
    BUNDLED_SCENARIOS,
    ComparisonSummary,
    ParseError,
    ValidationError,
    load_scenario,
    resolve_scenario_path,
    run_scenario,
)
from .simnet import export_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dssm-sim",
        description="Deterministic simulator for the two-tier storage "
                    "management protocol (membership, election, discovery).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser(
        "run",
        help="execute a scenario",
        description="Execute a scenario file. Bundled scenarios: "
                    + ", ".join(BUNDLED_SCENARIOS),
    )
    run.add_argument("scenario", help="scenario file path or bundled scenario name")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario's seed")
    run.add_argument("--trace", metavar="OUT.CSV", default=None,
                     help="write the event trace as CSV")
    run.add_argument("--metrics", metavar="OUT.CSV|OUT.JSON", default=None,
                     help="write metrics; format chosen by the extension")
    run.add_argument("--compare-static", action="store_true",
                     help="also run with pinned agents and print the "
                          "static/dynamic comparison table")
    return parser


def _check_writable(path: str) -> None:
    """Raise IoError unless `path` can be opened for writing: an existing
    writable file, or a new name in an existing writable directory.
    Creates and truncates nothing."""
    target = Path(path)
    if target.is_dir():
        raise IoError(f"cannot write {path}: is a directory")
    if not target.parent.is_dir():
        raise IoError(f"cannot write {path}: no directory {target.parent}")
    if not os.access(target if target.exists() else target.parent, os.W_OK):
        raise IoError(f"cannot write {path}: permission denied")


def _run(args) -> int:
    scenario = load_scenario(resolve_scenario_path(args.scenario))
    if args.seed is not None:
        scenario.seed = args.seed
    # A bad output path fails here, before the run and before any output.
    for out in (args.trace, args.metrics):
        if out:
            _check_writable(out)

    result = run_scenario(scenario)
    print(f"scenario {scenario.name}: {len(result.trace)} trace events, "
          f"{len(result.metrics)} metric records, "
          f"clock {result.net.now:.3f} ms")

    if args.trace:
        export_trace(result.trace, args.trace)
        print(f"trace written to {args.trace}")
    if args.metrics:
        fmt = "json" if args.metrics.lower().endswith(".json") else "csv"
        export_metrics(result.metrics, fmt, args.metrics)
        print(f"metrics written to {args.metrics} ({fmt})")

    if args.compare_static:
        print(ComparisonSummary.of(run_scenario(scenario, static_mode=True), result).table())
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ParseError, ValidationError, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionFailure as exc:
        print(f"consistency assertion failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
