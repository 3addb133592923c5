#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, checked and summarized.

    python3 scripts/bench_pairs.py PARENT_REV --pairs N --seed S --seconds T
        [--trace-pairs K] [--grid 160x1 40x8]
        [--out BENCH_<n>.json --description TEXT]

The parent is the committed tree of PARENT_REV, exported with `git archive`
into a temporary directory that is removed on exit; an export, unlike a
worktree, leaves nothing in the repository's own `.git` when the script is
killed. The change is the checkout that holds this script, as it stands on
disk. Before the first pair, `python -m compileall -q src perfbench` runs
in both checkouts, so that no run compiles what it imports: a process that
compiles, as each does under PYTHONDONTWRITEBYTECODE=1, has a peak RSS that
moves with the source text. compileall writes bytecode whatever that
variable says, and the runs read it.

Each command runs in alternating pairs, the parent first in even pairs:
`perfbench/run.py --workload all --seed S --seconds T` N times, then K
times with `--trace 1`, then with --grid `scripts/bench_grid.py` over the
given points (NxD, or NxD@policy) N times, each point a workload; the
parent runs this checkout's `bench_grid.py` over its own `src/`. A run's
checked outputs are each workload's trace and metrics SHA-256,
`ops_attempted` and `ops_failed` and each bundled scenario's digest, or
each point's trace rows and consistency check.

The rule: every run of a side must match that side's first run, and the
two sides' first runs must match each other unless the checkouts'
`tests/golden/digests.json` differ byte for byte (a missing file
differs), as after a change that alters output on purpose. A run that
breaks the rule or exits non-zero stops the script with exit status 1,
naming each output that differs.

Per workload and metric it prints the medians, the parent's quartiles, the
change/parent ratio of the medians and the pairs the change won: for the
end-to-end metrics (directions from BENCHMARK.json), and under the grid's
`summary` for a point's `wall_s`, `process_s`, `export_s`,
`scaled_wall_s` and `scaled_export_s` (lower is better; see
`bench_grid.py`). --out writes it all as one JSON document, shaped as the
committed BENCH_*.json files: `goldens_differ` says which rule held (if
true, no gain can be claimed, since a claim needs identical digests);
`checked_outputs`, for the benchmark and for the grid, holds each side's
first run's; final JSON lines go by side and workload in pair order, a
grid point's as `{"metrics": {name: {"value": v}}}`.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("perfbench") / "run.py"
GRID = Path("scripts") / "bench_grid.py"
GOLDENS = Path("tests") / "golden" / "digests.json"
# A workload's checked outputs in a `perfbench/run.py` output.
CHECKED = ("trace_sha256", "metrics_sha256", "ops_attempted", "ops_failed")
# A grid point's checked outputs, and its figures that bench_pairs summarizes.
GRID_CHECKED = ("trace_rows", "violation")
GRID_METRICS = ("wall_s", "process_s", "export_s", "scaled_wall_s", "scaled_export_s")
# The wall figure printed as each run ends: a plain run's, a traced run's, a grid point's.
WALLS = ("wall_s_per_sim_s", "trace.wall_s", "wall_s")
COMPILE = ["-m", "compileall", "-q", "src", "perfbench"]


class Mismatch(Exception):
    """A run failed, or its checked outputs break the agreement rule."""


def parse_run(stdout: str) -> tuple[dict, dict]:
    """From one `perfbench/run.py` output: its checked outputs, each
    workload's CHECKED lines and, under "bundled", each bundled scenario's
    digest; and each workload's final JSON line."""
    checked, finals, current = {"bundled": {}}, {}, None
    for line in stdout.splitlines():
        if line.startswith("bundled "):
            _, name, detail = line.split(None, 2)
            checked["bundled"][name] = detail
        elif line.startswith("== "):
            current = line.split()[1]
            checked.setdefault(current, {})
        elif line.startswith("{") and current is not None:
            finals[current] = json.loads(line)
        elif current is not None and line[:1].isalpha():
            key, _, value = line.partition(" ")
            if key in CHECKED:
                checked[current][key] = value.strip()
    return checked, finals


def check_same(want: dict, got: dict, label: str) -> None:
    """Raise Mismatch under `label` naming each checked output of `got`
    unlike `want`'s."""
    diffs = []
    for name in sorted(want.keys() | got.keys()):
        a, b = want.get(name, {}), got.get(name, {})
        diffs += [f"{name} {key}: {a.get(key)} != {b.get(key)}"
                  for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
    if diffs:
        raise Mismatch(f"{label}:\n  " + "\n  ".join(diffs))


def goldens_differ(sides: dict[str, Path]) -> bool:
    """Whether the two checkouts' golden digests differ, byte for byte; a
    missing file counts as differing."""
    try:
        return (sides["parent"] / GOLDENS).read_bytes() != (sides["change"] / GOLDENS).read_bytes()
    except FileNotFoundError:
        return True


def _sig(value: float) -> float:
    return float(f"{value:.4g}")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: dict[str, list[dict]], change: dict[str, list[dict]],
              better: dict[str, str]) -> dict:
    """Per workload and end-to-end metric: medians and quartiles of both
    sides, change/parent ratio of the medians, and the pairs the change won.
    `parent` and `change` map a workload to its final JSON lines in pair
    order; `better` maps a metric to "lower" or "higher"."""
    summary = {}
    for workload, parent_lines in parent.items():
        change_lines = change[workload]
        rows = summary[workload] = {}
        for metric, direction in better.items():
            p = [line["metrics"][metric]["value"] for line in parent_lines]
            c = [line["metrics"][metric]["value"] for line in change_lines]
            p1, pm, p3 = _quartiles(p)
            c1, cm, c3 = _quartiles(c)
            wins = sum((b < a) if direction == "lower" else (b > a) for a, b in zip(p, c))
            rows[metric] = {
                "parent_median": _sig(pm), "parent_q1": _sig(p1), "parent_q3": _sig(p3),
                "change_median": _sig(cm), "change_q1": _sig(c1), "change_q3": _sig(c3),
                "change_over_parent": round(cm / pm, 3) if pm else None,
                "change_wins": f"{wins}/{len(p)}",
            }
    return summary


def format_summary(summary: dict) -> str:
    lines = [f"{'workload':<12} {'metric':<18} {'parent median [q1, q3]':>34} "
             f"{'change median':>14} {'ratio':>6} {'wins':>6}"]
    for workload, rows in summary.items():
        for metric, r in rows.items():
            spread = f"{r['parent_median']:.4g} [{r['parent_q1']:.4g}, {r['parent_q3']:.4g}]"
            lines.append(f"{workload:<12} {metric:<18} {spread:>34} {r['change_median']:>14.4g} "
                         f"{r['change_over_parent']!s:>6} {r['change_wins']:>6}")
    return "\n".join(lines)


def export_rev(rev: str, dest: Path) -> None:
    """Write the committed tree of `rev` into `dest`."""
    proc = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest)
    if proc.wait() != 0:
        raise SystemExit(f"bench_pairs: git archive {rev} failed")


def run_side(checkout: Path, args: list[str], timeout_s: float) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=checkout, capture_output=True,
                          text=True, timeout=timeout_s)
    if proc.returncode != 0:
        raise Mismatch(f"{checkout}: {' '.join(args)} exited {proc.returncode}\n"
                       f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.stdout


def compile_sides(sides: dict[str, Path]) -> None:
    """Write the bytecode of each checkout's src/ and perfbench/."""
    for checkout in sides.values():
        run_side(checkout, COMPILE, 600)


def run_pairs(count: int, sides: dict[str, Path], command: list[str], timeout_s: float,
              parse, differ: bool, first: dict[str, dict]) -> dict[str, dict[str, list[dict]]]:
    """Run `command` in `count` alternating pairs and hold each run to the
    module docstring's rule: `differ` says whether the goldens differ, and
    `first` keeps each side's first run across calls. `parse(stdout)` gives
    a run's checked outputs, in `parse_run`'s shape, and its final lines by
    workload. Returns each side's final lines by workload, in pair order."""
    lines = {"parent": {}, "change": {}}
    for k in range(count):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            run, finals = parse(run_side(sides[side], command, timeout_s))
            first.setdefault(side, run)
            against = side if differ else "parent"
            check_same(first[against], run,
                       f"{side} run of pair {k} differs from the first {against} run")
            walls = []
            for workload, final in finals.items():
                lines[side].setdefault(workload, []).append(final)
                metrics = final["metrics"]
                wall = next(name for name in WALLS if name in metrics)
                walls.append(f"{workload}={metrics[wall]['value']:.4g}")
            print(f"pair {k} {side:<6} " + " ".join(walls), flush=True)
    return lines


def bench_pairs(args, sides: dict[str, Path], differ: bool) -> dict:
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    command = [str(RUN), "--workload", "all", "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    timeout_s = 60 * args.seconds + 600
    first = {}
    lines = run_pairs(args.pairs, sides, command, timeout_s, parse_run, differ, first)
    summary = summarize(lines["parent"], lines["change"], better)
    print(format_summary(summary), flush=True)
    doc = {
        "command": "python3 " + " ".join(command),
        "pairs": f"{args.pairs} alternating parent/change pairs (parent first in even pairs)",
        "parent": {"commit": args.parent_commit, "final_json_lines": lines["parent"]},
        "change": {"final_json_lines": lines["change"]},
        "end_to_end_summary": summary,
        "checked_outputs": first,
    }
    if args.trace_pairs:
        final = run_pairs(args.trace_pairs, sides, [*command, "--trace", "1"], timeout_s,
                          parse_run, differ, first)
        counts = {w: {name: {side: final[side][w][0]["metrics"][name]["value"]
                             for side in final}
                      for name, m in final["parent"][w][0]["metrics"].items()
                      if m["unit"] == "count"}
                  for w in final["parent"]}
        doc["traced"] = {"command": doc["command"] + " --trace 1", "pairs": args.trace_pairs,
                         "counts_first_pair": counts, "final_json_lines": final}
    return doc


def grid_pairs(args, sides: dict[str, Path], differ: bool) -> dict:
    from bench_grid import point_name

    names = [point_name(*point) for point in args.grid]
    command = [str(GRID), *names]

    def parse(stdout):
        points = dict(zip(names, json.loads(stdout.strip().splitlines()[-1])["points"]))
        return ({name: {k: p[k] for k in GRID_CHECKED} for name, p in points.items()},
                {name: {"metrics": {k: {"value": v} for k, v in p.items()
                                    if k not in GRID_CHECKED + ("n", "d", "policy")}}
                 for name, p in points.items()})

    first = {}
    lines = run_pairs(args.pairs, sides, command, 3600, parse, differ, first)
    summary = summarize(lines["parent"], lines["change"], dict.fromkeys(GRID_METRICS, "lower"))
    print(format_summary(summary), flush=True)
    return {"command": "python3 " + " ".join(command),
            "pairs": f"{args.pairs} alternating parent/change pairs",
            **lines, "checked_outputs": first, "summary": summary}


def main() -> int:
    sys.path.insert(0, str(ROOT / "scripts"))
    from bench_grid import parse_point

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-pairs", type=int, default=0)
    parser.add_argument("--grid", nargs="*", type=parse_point, default=[])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--description", default="")
    args = parser.parse_args()
    if args.pairs < 1 or args.trace_pairs < 0 or args.seconds <= 0:
        parser.error("--pairs must be >= 1, --trace-pairs >= 0 and --seconds > 0")
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                         capture_output=True, text=True)
    if rev.returncode != 0:
        parser.error(f"unknown revision {args.parent!r}")
    args.parent_commit = rev.stdout.strip()

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs."))
    try:
        export_rev(args.parent_commit, tmp)
        sides = {"parent": tmp, "change": ROOT}
        differ = goldens_differ(sides)
        print(f"goldens {'differ' if differ else 'agree'}", flush=True)
        compile_sides(sides)
        doc = {"description": args.description,
               "host": f"{platform.machine()}, {platform.python_implementation()} "
                       f"{platform.python_version()}",
               "goldens_differ": differ}
        doc.update(bench_pairs(args, sides, differ))
        if args.grid:
            shutil.copy(ROOT / GRID, tmp / GRID)
            doc["grid"] = grid_pairs(args, sides, differ)
    except Mismatch as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
