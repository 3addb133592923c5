"""Seeded scenario documents for the benchmark workloads.

`build(name, seed)` returns a Plan: the scenario document that the program
receives through `dssm.scenario.scenario_from_json`, plus the benchmark's
own schedule around it (when bootstrap ends, where the consistency
checkpoints fall, and for query_grid the size of each scripted query and
how long its allocation is held). The same (name, seed) always gives the
same Plan. Every workload is an open loop in virtual time: the script
fires on a fixed schedule whatever the protocol does.

The document never holds `assert_quiescent_consistency` actions, because
those abort the run on the first violation; the benchmark checks each
domain at each checkpoint itself and counts what fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

INTRA = {"delay_ms": 1.0, "drop_probability": 0.0, "bandwidth_mbps": 100.0}
INTER = {"delay_ms": 20.0, "drop_probability": 0.0, "bandwidth_mbps": 100.0}
PARAMS = {"accept_window_ms": 20.0, "heartbeat_period_ms": 200.0,
          "failure_timeout_ms": 600.0, "response_window_ms": 100.0}
POWERS_MHZ = (2000.0, 2400.0, 2660.0, 2800.0, 3000.0, 3200.0)
# Joins within one domain are spaced wider than the accept window, so each
# newcomer meets members only; domains join in parallel.
JOIN_GAP_MS = 25.0
# After the last join, two heartbeat periods let every AIT and every agent
# view settle before the first checkpoint.
SETTLE_MS = 400.0
CHECK_EVERY_MS = 1000.0
# Host time is taken per slice of this much virtual time; every instance of
# one (workload, seed) does the same work in the same slice.
SLICE_MS = 200.0


@dataclass
class Plan:
    doc: dict
    bootstrap_end_ms: float  # first checkpoint; set-up ends here
    end_ms: float            # end of the measured phase
    checkpoints: list[float]  # consistency checks, bootstrap_end_ms first
    tick_ms: float = 0.0     # allocation tick (query_grid only)
    hold_ms: float = 0.0     # allocation hold (query_grid only)
    query_sizes: list[float] = field(default_factory=list)  # by query id - 1


def _nodes(rng: random.Random, domains: int, per_domain: int, capacity) -> list[dict]:
    nodes = []
    for d in range(1, domains + 1):
        for k in range(1, per_domain + 1):
            nodes.append({
                "id": (d - 1) * per_domain + k, "domain": d, "ip": f"10.{d}.0.{k}",
                "capacity_mb": round(capacity(rng, d, k), 1),
                "power_mhz": rng.choice(POWERS_MHZ),
            })
    return nodes


def _joins(domains: int, per_domain: int) -> tuple[list[dict], float]:
    """Staggered join actions and the time the last one starts."""
    script = []
    for k in range(per_domain):
        for d in range(domains):
            script.append({"time_ms": k * JOIN_GAP_MS, "action": "join",
                           "node": d * per_domain + k + 1})
    return script, (per_domain - 1) * JOIN_GAP_MS


def _doc(name, rng, nodes, script, intra=INTRA) -> dict:
    return {"name": name, "seed": rng.randrange(2**31), "intra_domain_link": intra,
            "inter_domain_link": INTER, "params": PARAMS,
            "election_policy": "max_power", "nodes": nodes, "script": script}


def hb_dense(seed: int) -> Plan:
    # Chosen to isolate the O(N^2) heartbeat fan-out and the full-AIT
    # election on every delivery: one domain of N=64 with mixed power and
    # capacity, heartbeats only, no loss, no queries. Election caching and
    # fan-out batching must show here.
    rng = random.Random(f"hb_dense/{seed}")
    n = 64
    nodes = _nodes(rng, 1, n, lambda r, d, k: r.uniform(1000.0, 8000.0))
    script, last_join = _joins(1, n)
    boot = last_join + SETTLE_MS
    end = boot + 3 * CHECK_EVERY_MS
    return Plan(_doc("hb_dense", rng, nodes, script), boot, end,
                _every(boot, end, CHECK_EVERY_MS))


def query_grid(seed: int) -> Plan:
    # Chosen to stress discovery, VIRTUAL multicast and timers at a small
    # |AIT| where election is cheap: D=16 domains of N=10, no loss, 250
    # queries per simulated second. Small queries are answered inside the
    # requester's domain; large ones only where a domain holds a depot
    # node, so about half of them cross the virtual domain. Each answer is
    # allocated on the chosen node and released after a fixed hold, so
    # capacities really change and heartbeats carry new entries (writes
    # beside reads). Depots are large enough that no allocation fails.
    rng = random.Random(f"query_grid/{seed}")
    domains, n = 16, 10
    depots = set(rng.sample(range(1, domains + 1), domains // 2))

    def capacity(r, d, k):
        if d in depots and k == 1:
            return r.uniform(1.5e6, 2.5e6)
        return r.uniform(2000.0, 8000.0)

    nodes = _nodes(rng, domains, n, capacity)
    script, last_join = _joins(domains, n)
    boot = last_join + SETTLE_MS
    end = boot + 6 * CHECK_EVERY_MS
    tick, hold, gap = 50.0, 300.0, 4.0
    sizes = []
    t = boot + tick
    # Stop early enough that the last remote answer lands before `end`.
    while t < end - PARAMS["response_window_ms"] - 2 * tick:
        if rng.random() < 0.6:
            size = round(rng.uniform(10.0, 500.0), 1)
        else:
            size = round(rng.uniform(10000.0, 30000.0), 1)
        sizes.append(size)
        script.append({"time_ms": t, "action": "query",
                       "node": rng.randrange(1, domains * n + 1), "required_mb": size})
        t += gap
    return Plan(_doc("query_grid", rng, nodes, script), boot, end,
                _every(boot, end, CHECK_EVERY_MS), tick_ms=tick, hold_ms=hold,
                query_sizes=sizes)


def churn_lossy(seed: int) -> Plan:
    # Chosen to exercise join, ACCEPT, LEAVE, failure detection, real agent
    # changes, register_agent and the drop path: D=4 domains of N=24 with
    # 1% intra-domain loss. Each cycle three random nodes leave and the
    # most powerful node of one domain (usually its agent) crashes; all of
    # them rejoin, the crashed one after the failure timeout has expired.
    # Each domain is checked once failure_timeout plus two heartbeat periods
    # have passed since the last churn event. The failure share is reported
    # as measured (agent disagreement under loss is a known defect); the
    # loss rate is part of the workload and must not be lowered to hide it.
    rng = random.Random(f"churn_lossy/{seed}")
    domains, n = 4, 24
    nodes = _nodes(rng, domains, n, lambda r, d, k: r.uniform(1000.0, 8000.0))
    script, last_join = _joins(domains, n)
    boot = last_join + SETTLE_MS
    cycle, cycles = 2500.0, 8
    quiet = PARAMS["failure_timeout_ms"] + 2 * PARAMS["heartbeat_period_ms"]
    checkpoints = [boot]
    for c in range(cycles):
        t0 = boot + 100.0 + c * cycle
        domain = c % domains + 1
        members = [x for x in nodes if x["domain"] == domain]
        victim = max(members, key=lambda x: (x["power_mhz"], -x["id"]))["id"]
        leavers = rng.sample([x["id"] for x in nodes if x["id"] != victim], 3)
        for i, node in enumerate(leavers):
            script.append({"time_ms": t0 + 10.0 * i, "action": "leave", "node": node})
        script.append({"time_ms": t0 + 30.0, "action": "crash", "node": victim})
        for i, node in enumerate(leavers):
            script.append({"time_ms": t0 + 300.0 + 10.0 * i, "action": "join", "node": node})
        last = t0 + 30.0 + PARAMS["failure_timeout_ms"] + 2 * PARAMS["heartbeat_period_ms"]
        script.append({"time_ms": last, "action": "join", "node": victim})
        checkpoints.append(last + quiet + 50.0)
    end = boot + 100.0 + cycles * cycle
    intra = dict(INTRA, drop_probability=0.01)
    return Plan(_doc("churn_lossy", rng, nodes, script, intra), boot, end, checkpoints)


def _every(start: float, end: float, step: float) -> list[float]:
    count = int(round((end - start) / step))
    return [start + i * step for i in range(count + 1)]


WORKLOADS = {"hb_dense": hb_dense, "query_grid": query_grid, "churn_lossy": churn_lossy}


def build(name: str, seed: int) -> Plan:
    return WORKLOADS[name](seed)
