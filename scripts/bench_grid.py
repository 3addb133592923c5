#!/usr/bin/env python3
"""Steady-state scaling grid: host cost as nodes per domain (N) and domains
(D) grow.

    python3 scripts/bench_grid.py              # every point of GRID
    python3 scripts/bench_grid.py 10x1 160x8   # chosen NxD points
    python3 scripts/bench_grid.py 160x1@highest_connectivity  # another policy

A point is D domains of N nodes on 1 ms intra-domain links. Every domain
starts its joins at 0 ms, one node each 25 ms, and the run lasts 10 s of
virtual time with 200 ms heartbeats and nothing else scripted. Each point
runs in a fresh process, because peak RSS is a process-wide high-water
mark, and reports its wall time (building the world plus the run), the
process time of the same span (the CPU time of this process, which leaves
out time spent waiting while other processes run),
the time of one `export_trace` of the whole trace to a temporary file
(what a `--trace` user pays on top), trace rows, peak RSS before the
export and the consistency check at the end. After the peak RSS is read,
the point times `reference()`, a fixed computation, as `ref_s`, and
reports `wall_s` and `export_s` also scaled to a quiet host where it
takes REFERENCE_S: `t * REFERENCE_S / ref_s`, as `scaled_wall_s` and
`scaled_export_s`. Other work on the host that lasts through the point
slows the point and the reference alike, and the scaled figures divide
it out. A point elects by max_power unless it names another election
policy after an `@`; such a point's JSON also holds its `policy`. A table goes to standard output, and
the last line is one JSON object holding every point.

The program is loaded from the `src/` directory of the checkout that holds
this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dssm.election import ElectionPolicy  # noqa: E402
from dssm.scenario import ScenarioWorld, scenario_from_json  # noqa: E402
from dssm.simnet import export_trace  # noqa: E402

GRID = [(n, d) for d in (1, 8) for n in (10, 40, 160)]
END_MS = 10_000.0
JOIN_GAP_MS = 25.0
INTRA = {"delay_ms": 1.0, "drop_probability": 0.0, "bandwidth_mbps": 100.0}
INTER = {"delay_ms": 20.0, "drop_probability": 0.0, "bandwidth_mbps": 100.0}
PARAMS = {"accept_window_ms": 20.0, "heartbeat_period_ms": 200.0,
          "failure_timeout_ms": 600.0, "response_window_ms": 100.0}
POWERS_MHZ = (2000.0, 2400.0, 2660.0, 2800.0, 3000.0, 3200.0)
POINT_TIMEOUT_S = 900
DEFAULT_POLICY = ElectionPolicy.MAX_POWER.value
# The median time of reference() on a quiet host (2-vCPU x86_64, Python 3.11);
# scaled figures are what the point would take on a host where it takes this long.
REFERENCE_S = 2.0e-3
REFERENCE_RUNS = 10


def grid_doc(n: int, d: int, policy: str = DEFAULT_POLICY) -> dict:
    """The scenario document of point NxD under `policy`. Node k of domain
    j has id (j-1)*N + k, address 10.j.(k >> 8).(k & 255), so 10.j.0.k up to
    k = 255, and joins at (k-1)*25 ms."""
    nodes, joins = [], []
    for domain in range(1, d + 1):
        for k in range(1, n + 1):
            node = (domain - 1) * n + k
            nodes.append({"id": node, "domain": domain, "ip": f"10.{domain}.{k >> 8}.{k & 255}",
                          "capacity_mb": 1024.0, "power_mhz": POWERS_MHZ[node % len(POWERS_MHZ)]})
            joins.append({"time_ms": (k - 1) * JOIN_GAP_MS, "action": "join", "node": node})
    # Scenario.validate refuses script times that go down, and the domains
    # join side by side, so their joins are merged into one timeline.
    joins.sort(key=lambda action: action["time_ms"])
    return {"name": f"grid{n}x{d}", "seed": 1, "intra_domain_link": INTRA,
            "inter_domain_link": INTER, "params": PARAMS,
            "election_policy": policy, "nodes": nodes, "script": joins}


def reference() -> float:
    """The median seconds of REFERENCE_RUNS runs of a fixed computation that
    waits on the interpreter, caches and memory as the simulator does: a
    dict fold and sorts of 3,000 ints, and a sum of 200,000 boxed floats
    in shuffled order. Its data are built here, not at import, so that it
    moves no peak RSS read before it; the collector is off while it runs."""
    ints = [(i * 7919) % 10007 for i in range(3000)]
    floats = [float(i) for i in range(200_000)]
    random.Random(0).shuffle(floats)
    collecting, runs = gc.isenabled(), []
    gc.disable()
    try:
        for _ in range(REFERENCE_RUNS):
            start = time.perf_counter()
            table = {}
            for i in ints:
                table[i & 255] = table.get(i & 255, 0) + i
            for _ in range(4):
                sorted(ints)
            sum(floats)
            runs.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(runs)


def run_point(n: int, d: int, policy: str = DEFAULT_POLICY) -> dict:
    """Run point NxD under `policy` in this process."""
    start, cpu_start = time.perf_counter(), time.process_time()
    world = ScenarioWorld(scenario_from_json(grid_doc(n, d, policy)))
    world.run()
    world.net.run_until(END_MS)
    wall_s = time.perf_counter() - start
    process_s = time.process_time() - cpu_start
    peak_rss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    ref_s = reference()
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        export_trace(world.net.trace, Path(tmp) / "trace.csv")
        export_s = time.perf_counter() - start
    scale = REFERENCE_S / ref_s
    point = {"n": n, "d": d, "wall_s": round(wall_s, 3), "process_s": round(process_s, 3),
             "export_s": round(export_s, 3), "ref_s": round(ref_s, 6),
             "scaled_wall_s": round(wall_s * scale, 3),
             "scaled_export_s": round(export_s * scale, 3),
             "trace_rows": len(world.net.trace), "peak_rss_mb": peak_rss_mb,
             "violation": world.check_consistency()}
    return point if policy == DEFAULT_POLICY else {**point, "policy": policy}


def parse_point(text: str) -> tuple[int, int, str]:
    """NxD, or NxD@policy with an election policy's name."""
    size, at, policy = text.partition("@")
    n, sep, d = size.partition("x")
    if not (sep and n.isdigit() and d.isdigit() and int(n) > 0 and int(d) > 0):
        raise argparse.ArgumentTypeError(f"expected NxD with positive N and D, got {text!r}")
    if at and policy not in {p.value for p in ElectionPolicy}:
        raise argparse.ArgumentTypeError(f"unknown election policy {policy!r} in {text!r}")
    return int(n), int(d), policy or DEFAULT_POLICY


def point_name(n: int, d: int, policy: str) -> str:
    return f"{n}x{d}" if policy == DEFAULT_POLICY else f"{n}x{d}@{policy}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("points", nargs="*", type=parse_point,
                        help="NxD or NxD@policy points (default: the grid)")
    parser.add_argument("--in-process", action="store_true",
                        help="run the single point given here and print its JSON")
    args = parser.parse_args()
    if args.in_process:
        if len(args.points) != 1:
            parser.error("--in-process takes exactly one point")
        print(json.dumps(run_point(*args.points[0])))
        return
    results = []
    names = [point_name(*point) for point in args.points or
             [(n, d, DEFAULT_POLICY) for n, d in GRID]]
    width = max(6, *map(len, names))
    print(f"{'NxD':>{width}} {'wall_s':>8} {'process_s':>9} {'export_s':>8} {'scaled_wall':>11} "
          f"{'scaled_exp':>10} {'rows':>10} {'peak_rss_mb':>12}  violation")
    for name in names:
        out = subprocess.run([sys.executable, __file__, "--in-process", name],
                             capture_output=True, text=True, timeout=POINT_TIMEOUT_S, check=True)
        point = json.loads(out.stdout.splitlines()[-1])
        results.append(point)
        print(f"{name:>{width}} {point['wall_s']:>8.3f} {point['process_s']:>9.3f} "
              f"{point['export_s']:>8.3f} {point['scaled_wall_s']:>11.3f} "
              f"{point['scaled_export_s']:>10.3f} {point['trace_rows']:>10} "
              f"{point['peak_rss_mb']:>12.1f}  {point['violation'] or '-'}", flush=True)
    print(json.dumps({"points": results}))


if __name__ == "__main__":
    main()
