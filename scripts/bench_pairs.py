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
variable says, and the runs read it. Pair k runs
`perfbench/run.py --workload all --seed S --seconds T` in both, the parent
first when k is even.

Both sides must print the same trace and metrics SHA-256, `ops_attempted`
and `ops_failed` for every workload and the same digest for every bundled
scenario, in every run; otherwise, or when a run exits non-zero, the script
stops with exit status 1. Per workload and end-to-end metric it prints the
medians, the parent's quartiles, the change/parent ratio of the medians and
the pairs the change won (the direction comes from BENCHMARK.json).

--trace-pairs adds K alternating `--trace 1` pairs, and --grid runs the
given points (NxD, or NxD@policy) of `scripts/bench_grid.py` in each
checkout, N alternating pairs; both sides must report the same trace rows
and consistency check. The parent runs this checkout's `bench_grid.py`
over its own `src/`, so that both sides read the same points. Per point,
`wall_s`, `process_s` and `export_s` are summarized as the end-to-end
metrics are, under the grid's `summary` key.
--out writes all of it as one JSON document, in the shape of the committed
BENCH_*.json files.
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
# The grid point figures that bench_pairs summarizes, all lower-is-better.
GRID_METRICS = ("wall_s", "process_s", "export_s")
COMPILE = ["-m", "compileall", "-q", "src", "perfbench"]


class Mismatch(Exception):
    """The two sides disagree on an output that must not change."""


def parse_run(stdout: str) -> dict:
    """The checked outputs and final JSON line of each workload, and the
    digest of each bundled scenario, from one `perfbench/run.py` output."""
    bundled, workloads, current = {}, {}, None
    for line in stdout.splitlines():
        if line.startswith("bundled "):
            _, name, detail = line.split(None, 2)
            bundled[name] = detail
        elif line.startswith("== "):
            current = workloads.setdefault(line.split()[1], {})
        elif line.startswith("{") and current is not None:
            current["final"] = json.loads(line)
        elif current is not None and line[:1].isalpha():
            key, _, value = line.partition(" ")
            if key in ("trace_sha256", "metrics_sha256", "ops_attempted", "ops_failed"):
                current[key] = value.strip()
    return {"bundled": bundled, "workloads": workloads}


def checked(run: dict) -> dict:
    """What both sides must agree on: everything `parse_run` keeps except
    the final JSON lines."""
    return {"bundled": run["bundled"],
            "workloads": {name: {k: v for k, v in w.items() if k != "final"}
                          for name, w in run["workloads"].items()}}


def check_same(reference: dict, run: dict, label: str) -> None:
    """Raise Mismatch naming each output of `run` that differs from `reference`."""
    want, got = checked(reference), checked(run)
    diffs = [f"bundled {name}: {want['bundled'].get(name)} != {detail}"
             for name, detail in got["bundled"].items() if want["bundled"].get(name) != detail]
    for name in sorted(want["workloads"].keys() | got["workloads"].keys()):
        a, b = want["workloads"].get(name, {}), got["workloads"].get(name, {})
        diffs += [f"{name} {key}: {a.get(key)} != {b.get(key)}"
                  for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
    if diffs:
        raise Mismatch(f"{label} differs from the first parent run:\n  " + "\n  ".join(diffs))


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


def alternate(pairs: int, sides: dict[str, Path], args: list[str], timeout_s: float,
              check) -> dict[str, list[str]]:
    """Run `args` in both checkouts `pairs` times, the parent first in even
    pairs; `check(side, pair, stdout)` sees each output as it arrives."""
    out = {"parent": [], "change": []}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            stdout = run_side(sides[side], args, timeout_s)
            out[side].append(stdout)
            check(side, k, stdout)
    return out


def bench_pairs(args, sides: dict[str, Path]) -> dict:
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    command = [str(RUN), "--workload", "all", "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    timeout_s = 60 * args.seconds + 600
    reference = {}

    def check(side, k, stdout):
        run = parse_run(stdout)
        reference.setdefault("run", run)
        check_same(reference["run"], run, f"{side} run of pair {k}")
        # wall_s_per_sim_s of a plain run, the traced instance's wall time of a traced one.
        walls = {}
        for workload, w in run["workloads"].items():
            metrics = w["final"]["metrics"]
            name = "wall_s_per_sim_s" if "wall_s_per_sim_s" in metrics else "trace.wall_s"
            walls[workload] = metrics[name]["value"]
        print(f"pair {k} {side:<6} " + " ".join(f"{w}={v:.4g}" for w, v in walls.items()),
              flush=True)

    runs = alternate(args.pairs, sides, command, timeout_s, check)
    lines = {side: {} for side in runs}
    for side, outputs in runs.items():
        for stdout in outputs:
            for workload, w in parse_run(stdout)["workloads"].items():
                lines[side].setdefault(workload, []).append(w["final"])
    summary = summarize(lines["parent"], lines["change"], better)
    print(format_summary(summary), flush=True)
    doc = {
        "command": "python3 " + " ".join(command),
        "pairs": f"{args.pairs} alternating parent/change pairs (parent first in even pairs)",
        "parent": {"commit": args.parent_commit, "final_json_lines": lines["parent"]},
        "change": {"final_json_lines": lines["change"]},
        "end_to_end_summary": summary,
        "checked_outputs": checked(reference["run"]),
    }
    if args.trace_pairs:
        traced = alternate(args.trace_pairs, sides, [*command, "--trace", "1"], timeout_s, check)
        final = {side: {w: [parse_run(s)["workloads"][w]["final"] for s in outputs]
                        for w in parse_run(outputs[0])["workloads"]}
                 for side, outputs in traced.items()}
        counts = {w: {name: {side: final[side][w][0]["metrics"][name]["value"]
                             for side in final}
                      for name, m in final["parent"][w][0]["metrics"].items()
                      if m["unit"] == "count"}
                  for w in final["parent"]}
        doc["traced"] = {"command": doc["command"] + " --trace 1", "pairs": args.trace_pairs,
                         "counts_first_pair": counts, "final_json_lines": final}
    return doc


def grid_pairs(args, sides: dict[str, Path]) -> dict:
    from bench_grid import point_name

    points = [point_name(*point) for point in args.grid]
    command = [str(GRID), *points]
    reference = {}

    def check(side, k, stdout):
        result = json.loads(stdout.strip().splitlines()[-1])["points"]
        shape = [(p["n"], p["d"], p.get("policy"), p["trace_rows"], p["violation"])
                 for p in result]
        reference.setdefault("shape", shape)
        if shape != reference["shape"]:
            raise Mismatch(f"grid: {side} run of pair {k} gives {shape}, "
                           f"the first parent run {reference['shape']}")
        print(f"grid pair {k} {side:<6} " + " ".join(
            f"{name}={p['wall_s']:.3f}s export={p['export_s']:.3f}s"
            for name, p in zip(points, result)), flush=True)

    runs = alternate(args.pairs, sides, command, 3600, check)
    results = {side: [json.loads(s.strip().splitlines()[-1])["points"] for s in outputs]
               for side, outputs in runs.items()}
    summary = summarize_grid(points, results["parent"], results["change"])
    print(format_summary(summary), flush=True)
    return {"command": "python3 " + " ".join(command),
            "pairs": f"{args.pairs} alternating parent/change pairs",
            **results, "summary": summary}


def summarize_grid(points: list[str], parent: list[list[dict]],
                   change: list[list[dict]]) -> dict:
    """`summarize` over grid runs, each point a workload with the lower-is-
    better metrics GRID_METRICS. `parent` and `change` hold each run's
    points in `points` order, in pair order."""
    def lines(runs):
        return {name: [{"metrics": {m: {"value": run[i][m]} for m in GRID_METRICS}}
                       for run in runs]
                for i, name in enumerate(points)}

    return summarize(lines(parent), lines(change), dict.fromkeys(GRID_METRICS, "lower"))


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
        compile_sides(sides)
        doc = {"description": args.description,
               "host": f"{platform.machine()}, {platform.python_implementation()} "
                       f"{platform.python_version()}"}
        doc.update(bench_pairs(args, sides))
        if args.grid:
            shutil.copy(ROOT / GRID, tmp / GRID)
            doc["grid"] = grid_pairs(args, sides)
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
