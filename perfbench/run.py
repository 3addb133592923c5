"""The dssm benchmark: host cost per simulated second on seeded workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is loaded from its `src/`.
Each workload instance runs in a fresh process (`worker.py`), one after the
other, until about --seconds of host time is used (at least two instances,
so determinism can be checked). The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end figures (see `end_to_end`); with --trace 1
instances alternate untraced and traced, and the metrics are the per-layer
figures of the median traced instance.

Exit status: 0 when every output is deterministic and correct, 1 when two
instances of one invocation (or a traced and an untraced one) disagree or
a bundled scenario fails, 2 when the program cannot be found or run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from worker import import_dssm, sha256
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"
WORKER = HERE / "worker.py"
MIN_INSTANCES = 2
# About the time of worker.reference() between pieces on a quiet host
# (2-vCPU Intel Xeon, Python 3.11); timed pieces are scaled to a host where
# it takes this long.
REFERENCE_S = 2.5e-3
INSTANCE_TIMEOUT_S = 120

# Outputs that must be identical in every instance of one invocation.
DETERMINISTIC = ("trace_sha256", "metrics_sha256", "trace_rows", "measured_slice_events",
                 "attempted", "failed", "failures", "query_mean_ms")


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def bundled_pass(dssm) -> bool:
    """Run every bundled scenario twice, untimed; print digest and verdict."""
    scenario = dssm.scenario
    ok = True
    for name in scenario.BUNDLED_SCENARIOS:
        doc = json.loads(scenario.bundled_scenario_path(name).read_text())
        digests, error = set(), None
        for _ in range(2):
            try:
                result = scenario.run_scenario(scenario.scenario_from_json(doc, name))
            except scenario.AssertionFailure as exc:
                error = str(exc)
                break
            trace, metrics = OUT / f"bundled.{name}.csv", OUT / f"bundled.{name}.json"
            dssm.simnet.export_trace(result.trace, trace)
            dssm.metrics.export_metrics(result.metrics, "json", metrics)
            digests.add(f"trace {sha256(trace)} metrics {sha256(metrics)}")
            trace.unlink()
            metrics.unlink()
        passed = error is None and len(digests) == 1
        ok = ok and passed
        detail = error or ("nondeterministic" if len(digests) > 1 else next(iter(digests)))
        print(f"bundled {name:<16} {'pass' if passed else 'FAIL'}  {detail}")
    return ok


def spawn_instance(workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--out", str(OUT)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=INSTANCE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} instance exceeded {INSTANCE_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} instance exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_instances(workload: str, seed: int, seconds: float, trace: bool) -> list[tuple[bool, dict]]:
    """Instances one after another until the next would overrun `seconds`.
    With tracing, untraced and traced instances alternate."""
    deadline = time.perf_counter() + seconds
    runs, durations = [], []
    while True:
        traced = trace and len(runs) % 2 == 1
        t0 = time.perf_counter()
        runs.append((traced, spawn_instance(workload, seed, traced)))
        durations.append(time.perf_counter() - t0)
        if len(runs) >= MIN_INSTANCES and time.perf_counter() + max(durations[-2:]) > deadline:
            return runs


def end_to_end(plain: list[dict]) -> dict[str, tuple[float, str]]:
    """End-to-end figures of one invocation, as {name: (value, unit)}.

    Each build, each 200 ms slice of virtual time and each part of the
    export is a timed piece, stored with the mean time of
    `worker.reference()` run around it.
    Interference on a shared host slows both alike, so a piece's cost is
    taken as its host time scaled to a quiet host: t * REFERENCE_S / ref.
    Every instance does the same work in the same piece, so each piece is
    charged its median cost over the instances, and the costs are summed.
    """
    def seconds(label: str) -> float:
        columns = zip(*(r["pieces"][label] for r in plain))
        return sum(statistics.median(t * REFERENCE_S / ref for t, ref in column)
                   for column in columns)

    measured_s = seconds("measured")
    events = sum(plain[0]["measured_slice_events"])
    return {
        "wall_s_per_sim_s": (measured_s / plain[0]["sim_s"], "s/s"),
        "events_per_s": (events / measured_s, "1/s"),
        "setup_s": (seconds("setup"), "s"),
        "export_s": (seconds("export"), "s"),
        "peak_rss_mb": (statistics.median(r["rss_end_kb"] for r in plain) / 1024.0, "MB"),
    }


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload: str, seed: int, runs: list[tuple[bool, dict]], trace: bool,
           bundled_ok: bool) -> dict:
    plain = [r for traced, r in runs if not traced]
    first = plain[0]
    mismatched = sorted({key for _, r in runs for key in DETERMINISTIC if r[key] != first[key]})
    print(f"== {workload} seed={seed} instances={len(plain)} untraced"
          + (f", {len(runs) - len(plain)} traced" if trace else ""))
    print(f"trace_sha256   {first['trace_sha256']}")
    print(f"metrics_sha256 {first['metrics_sha256']}")
    print(f"ops_attempted  {first['attempted']}")
    print(f"ops_failed     {first['failed']}  {json.dumps(first['failures'])}")
    if first["query_mean_ms"] is None:
        print("query_mean_ms  n/a (no queries in this workload)")
    else:
        print(f"query_mean_ms  {fmt(first['query_mean_ms'])} ms  "
              f"(simulated, mean of {first['queries_answered']} answered queries)")
    correct = bundled_ok and not mismatched
    if mismatched:
        print(f"NONDETERMINISTIC: instances disagree on {', '.join(mismatched)}")

    metrics = {}
    if not trace:
        for name, (value, unit) in end_to_end(plain).items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<18} {fmt(value):>12} {unit}")
        totals = sorted(sum(t for t, _ in r["pieces"]["measured"]) for r in plain)
        refs = [ref for r in plain for pieces in r["pieces"].values() for _, ref in pieces]
        print(f"measured phase ({plain[0]['sim_s']} simulated s), unscaled host s per instance: "
              f"{' '.join(fmt(t) for t in totals)}; reference median {fmt(statistics.median(refs))} s "
              f"(quiet host: {REFERENCE_S} s)")
    else:
        traced = sorted((r for t, r in runs if t), key=lambda r: r["wall_s"])
        chosen = traced[(len(traced) - 1) // 2]
        layers = {name: tuple(v) for name, v in chosen["layers"].items()}
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        layers["trace.overhead_s"] = (chosen["wall_s"] - untraced_wall, "s")
        rss = statistics.median(r["rss_end_kb"] - r["rss_start_kb"] for r in plain)
        layers["simnet.rss_bytes_per_row"] = (rss * 1024.0 / first["trace_rows"], "B/row")
        accounted = (sum(layers[f"{layer}.self_s"][0] for layer in LAYERS)
                     + layers["trace.unspanned_s"][0])
        if abs(accounted - layers["trace.wall_s"][0]) > 1e-6 * max(1.0, accounted):
            print(f"ACCOUNTING: layer self times + unspanned = {accounted}, "
                  f"traced wall = {layers['trace.wall_s'][0]}")
            correct = False
        for name, (value, unit) in layers.items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<40} {fmt(value):>14} {unit}")
    return {"correct": correct, "attempted": first["attempted"], "failed": first["failed"],
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    dssm = import_dssm()

    OUT.mkdir(exist_ok=True)
    bundled_ok = bundled_pass(dssm)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            runs = run_instances(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        result = report(workload, args.seed, runs, bool(args.trace), bundled_ok)
        print(json.dumps(result))
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
