"""Run one workload instance in this process and print its figures as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--traced]

`run.py` starts one fresh process per instance, because `ru_maxrss` is a
process-wide high-water mark. The instance loads `dssm` from the `src/`
directory of the checkout that holds this file and nothing else.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import importlib
import json
import random
import resource
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
EXPORT_PARTS = 10


def import_dssm():
    """Import the checkout's own dssm package and the modules the benchmark
    uses, or exit 2 when the package is absent."""
    if not (SRC / "dssm" / "__init__.py").is_file():
        print(f"perfbench: no dssm package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import dssm

    if Path(dssm.__file__).resolve().parent != (SRC / "dssm").resolve():
        print(f"perfbench: imported dssm from {dssm.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    for layer in LAYERS:
        importlib.import_module(f"dssm.{layer}")
    return dssm


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Stepper:
    """Steps a ScenarioWorld through its script in segments, stopping at the
    benchmark's checkpoints and allocation ticks.

    A segment runs through the public `ScenarioWorld.run()` with the script
    cut to the actions due up to the next stop. Events are processed in
    (time, seq) order either way, so the trace equals that of one
    uninterrupted run.
    """

    def __init__(self, dssm, world, plan, slice_ends):
        self.world = world
        self.plan = plan
        self.discovery = dssm.discovery
        self.query_kind = dssm.metrics.KIND_QUERY_RESPONSE
        self.ledger = dssm.discovery.AllocationLedger(world.nodes, world.net)
        self.base = world.scenario
        self.actions = list(self.base.script)
        self.next_action = 0
        specs = self.base.node_specs
        self.domains = {
            d: replace(self.base, node_specs=[s for s in specs if s.domain == d])
            for d in sorted({s.domain for s in specs})
        }
        self.view = copy.copy(world)
        stops = set(plan.checkpoints) | set(slice_ends)
        if plan.tick_ms:
            t = plan.bootstrap_end_ms
            while t <= plan.end_ms:
                stops.add(t)
                t += plan.tick_ms
        self.stops = sorted(stops)
        self.checkpoints = set(plan.checkpoints)
        self.next_stop = 0
        self.metrics_seen = 0
        self.holds: list = []  # (release time, allocation), in time order
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.query_ms: list[float] = []

    def advance_to(self, time_ms: float) -> None:
        while self.next_stop < len(self.stops) and self.stops[self.next_stop] <= time_ms:
            stop = self.stops[self.next_stop]
            self.next_stop += 1
            self._run_segment(stop)
            if self.plan.tick_ms:
                self._allocate(stop)
            if stop in self.checkpoints:
                self._check()

    def _run_segment(self, stop: float) -> None:
        first = self.next_action
        while self.next_action < len(self.actions) and self.actions[self.next_action].time_ms <= stop:
            self.next_action += 1
        self.world.scenario = replace(self.base, script=self.actions[first:self.next_action])
        self.world.run()
        self.world.net.run_until(stop)

    def _allocate(self, now: float) -> None:
        while self.holds and self.holds[0][0] <= now:
            self.ledger.release(self.holds.pop(0)[1])
        records = self.world.metrics
        for record in records[self.metrics_seen:]:
            if record.kind != self.query_kind:
                continue
            outcome = record.labels["outcome"]
            unanswered = outcome in ("no_agent", "not_found")
            self._count("query", unanswered, outcome)
            if unanswered:
                continue
            self.query_ms.append(record.value)
            size = self.plan.query_sizes[int(record.labels["query_id"]) - 1]
            try:
                alloc = self.ledger.allocate(int(record.labels["candidate"]), size)
            except self.discovery.InsufficientCapacity:
                self._count("allocation", True, "insufficient-capacity")
            else:
                self._count("allocation", False, "")
                self.holds.append((now + self.plan.hold_ms, alloc))
        self.metrics_seen = len(records)

    def _check(self) -> None:
        for scenario in self.domains.values():
            self.view.scenario = scenario
            violation = self.view.check_consistency()
            self._count("check", violation is not None,
                        violation.split(" ", 1)[0] if violation else "")

    def _count(self, op: str, failed: bool, reason: str) -> None:
        self.attempted += 1
        if failed:
            self.failed += 1
            self.failures[f"{op}:{reason}"] += 1


def slice_ends(plan, slice_ms: float) -> tuple[list[float], list[float]]:
    """Ends of the virtual-time slices of set-up (through bootstrap_end_ms)
    and of the measured phase (through end_ms)."""
    def ends(t: float, stop: float) -> list[float]:
        out = []
        while t + slice_ms < stop:
            t += slice_ms
            out.append(t)
        return out + [stop]

    return ends(0.0, plan.bootstrap_end_ms), ends(plan.bootstrap_end_ms, plan.end_ms)


_INTS = [(i * 7919) % 10007 for i in range(3000)]
# Boxed floats visited in shuffled order, about 6 MB in all, so that the
# reference also waits on caches and memory the way walks over the
# simulator's heap do.
_FLOATS = [float(i) for i in range(200_000)]
random.Random(0).shuffle(_FLOATS)


def reference() -> None:
    """A fixed computation whose time says how fast the host runs at the
    moment. It allocates almost nothing the collector tracks."""
    table = {}
    for i in _INTS:
        table[i & 255] = table.get(i & 255, 0) + i
    for _ in range(4):
        sorted(_INTS)
    sum(_FLOATS)


class Stopwatch:
    """Times named pieces of work, each between two runs of `reference()`,
    and stores it as (seconds, mean reference seconds around it)."""

    def __init__(self):
        self.pieces: dict[str, list[tuple[float, float]]] = {}

    def time(self, label: str, fn, *args):
        before = _reference_s()
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        self.pieces.setdefault(label, []).append((seconds, (before + _reference_s()) / 2))
        return result


def _reference_s() -> float:
    collecting = gc.isenabled()
    gc.disable()  # a collection of the program's heap must not land here
    t0 = time.perf_counter()
    reference()
    seconds = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return seconds


def run_slices(watch: Stopwatch, label: str, stepper, ends: list[float], trace: list) -> list[int]:
    """Advance through each slice as a timed piece; return the simulated
    events (deliveries and fired timers) of each, counted untimed."""
    events = []
    for end in ends:
        rows = len(trace)
        watch.time(label, stepper.advance_to, end)
        events.append(sum(1 for row in trace[rows:] if row.kind != "send"))
    return events


def run_instance(dssm, name: str, seed: int, out: Path) -> dict:
    # Every call into dssm goes through a module attribute, so names that
    # the tracer wraps are the ones this function reaches.
    rss_start = maxrss_kb()
    start = time.perf_counter()
    watch = Stopwatch()

    def build():
        plan = workloads.build(name, seed)
        world = dssm.scenario.ScenarioWorld(dssm.scenario.scenario_from_json(plan.doc, name))
        ends = slice_ends(plan, workloads.SLICE_MS)
        return plan, world, ends, Stepper(dssm, world, plan, ends[0] + ends[1])

    plan, world, (setup_ends, measured_ends), stepper = watch.time("setup", build)
    trace = world.net.trace
    run_slices(watch, "setup", stepper, setup_ends, trace)
    measured_events = run_slices(watch, "measured", stepper, measured_ends, trace)

    # The digested files come from one whole export. The timed export then
    # writes the same rows again in EXPORT_PARTS row ranges, one timed piece
    # each, so that the reference scaling can follow it like the slices.
    trace_path, metrics_path = out / f"{name}.trace.csv", out / f"{name}.metrics.json"
    dssm.simnet.export_trace(trace, trace_path)
    watch.time("export", dssm.metrics.export_metrics, world.metrics, "json", metrics_path)
    part_path = out / f"{name}.part.csv"
    size = -(-len(trace) // EXPORT_PARTS)
    for part in [trace[i:i + size] for i in range(0, len(trace), size)]:
        watch.time("export", dssm.simnet.export_trace, part, part_path)
    part_path.unlink()
    wall_s = time.perf_counter() - start
    rss_end = maxrss_kb()

    kinds = Counter(row.kind for row in trace)
    result = {
        "pieces": watch.pieces,
        "measured_slice_events": measured_events,
        "sim_s": (plan.end_ms - plan.bootstrap_end_ms) / 1000.0,
        "wall_s": wall_s,
        "rss_start_kb": rss_start,
        "rss_end_kb": rss_end,
        "trace_rows": len(trace),
        "timer_rows": kinds["timer"],
        "event_rows": kinds["deliver"] + kinds["timer"],
        "trace_sha256": sha256(trace_path),
        "metrics_sha256": sha256(metrics_path),
        "attempted": stepper.attempted,
        "failed": stepper.failed,
        "failures": dict(sorted(stepper.failures.items())),
        "queries_answered": len(stepper.query_ms),
        "query_mean_ms": (sum(stepper.query_ms) / len(stepper.query_ms)
                          if stepper.query_ms else None),
    }
    trace_path.unlink()
    metrics_path.unlink()
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    dssm = import_dssm()
    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install(dssm)
    args.out.mkdir(parents=True, exist_ok=True)
    result = run_instance(dssm, args.workload, args.seed, args.out)
    if tracer is not None:
        result["layers"] = tracer.report(result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
