#!/usr/bin/env python3
"""Regenerate the bundled scenario files in src/dssm/scenarios/.

The files are committed; run this only when changing the experiment
definitions, then review the diff.
"""

import json
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "src" / "dssm" / "scenarios"

INTRA = {"delay_ms": 1.0, "drop_probability": 0.0, "bandwidth_mbps": 100.0}
INTER = {"delay_ms": 20.0, "drop_probability": 0.0, "bandwidth_mbps": 100.0}
PARAMS = {
    "accept_window_ms": 20.0,
    "heartbeat_period_ms": 200.0,
    "failure_timeout_ms": 600.0,
    "response_window_ms": 100.0,
}


def churn50():
    # Three equal-power devices in one domain;each cycle one leaves and
    # rejoins, consistency asserted after each settle window.
    nodes = [
        {"id": n, "domain": 1, "ip": f"192.168.16.{9 + n}",
         "capacity_mb": 1024.0, "power_mhz": 2800.0}
        for n in (1, 2, 3)
    ]
    script = [
        {"time_ms": 0.0, "action": "join", "node": 1},
        {"time_ms": 50.0, "action": "join", "node": 2},
        {"time_ms": 100.0, "action": "join", "node": 3},
        {"time_ms": 1000.0, "action": "assert_quiescent_consistency"},
    ]
    for k in range(50):
        base = 2000.0 + k * 1000.0
        node = (k % 3) + 1
        script += [
            {"time_ms": base, "action": "leave", "node": node},
            {"time_ms": base + 200.0, "action": "join", "node": node},
            {"time_ms": base + 900.0, "action": "assert_quiescent_consistency"},
        ]
    return {
        "name": "churn50",
        "seed": 42,
        "intra_domain_link": INTRA,
        "inter_domain_link": INTER,
        "params": PARAMS,
        "nodes": nodes,
        "script": script,
    }


def two_domain():
    # First domain has two devices, the second one; a query the first
    # domain cannot satisfy is answered by the second domain's agent.
    nodes = [
        {"id": 1, "domain": 1, "ip": "192.168.16.10",
         "capacity_mb": 1024.0, "power_mhz": 2800.0},
        {"id": 2, "domain": 1, "ip": "192.168.16.12",
         "capacity_mb": 2048.0, "power_mhz": 2660.0},
        {"id": 3, "domain": 2, "ip": "192.168.16.20",
         "capacity_mb": 8192.0, "power_mhz": 2800.0},
    ]
    script = [
        {"time_ms": 0.0, "action": "join", "node": 1},
        {"time_ms": 50.0, "action": "join", "node": 2},
        {"time_ms": 100.0, "action": "join", "node": 3},
        {"time_ms": 1500.0, "action": "assert_quiescent_consistency"},
        {"time_ms": 2000.0, "action": "query", "node": 1, "required_mb": 1500.0},
        {"time_ms": 2500.0, "action": "query", "node": 1, "required_mb": 4096.0},
        {"time_ms": 4000.0, "action": "assert_quiescent_consistency"},
    ]
    return {
        "name": "two_domain",
        "seed": 42,
        "intra_domain_link": INTRA,
        "inter_domain_link": INTER,
        "params": PARAMS,
        "nodes": nodes,
        "script": script,
    }


def bandwidth_sweep():
    # One device per domain; sweep the inter-domain delay and transfer a
    # range of file sizes at each setting.
    nodes = [
        {"id": 1, "domain": 1, "ip": "10.0.1.1",
         "capacity_mb": 4096.0, "power_mhz": 2800.0},
        {"id": 2, "domain": 2, "ip": "10.0.2.1",
         "capacity_mb": 4096.0, "power_mhz": 2800.0},
    ]
    script = [
        {"time_ms": 0.0, "action": "join", "node": 1},
        {"time_ms": 50.0, "action": "join", "node": 2},
        {"time_ms": 1000.0, "action": "assert_quiescent_consistency"},
    ]
    t = 1000.0
    for delay in (0.0, 10.0, 50.0, 100.0):
        t += 100.0
        script.append({"time_ms": t, "action": "set_link", "scope": "inter",
                       "delay_ms": delay})
        for size in (1.0, 10.0, 100.0):
            t += 100.0
            script.append({"time_ms": t, "action": "transfer",
                           "from": 1, "to": 2, "size_mb": size})
    script.append({"time_ms": 12000.0, "action": "assert_quiescent_consistency"})
    return {
        "name": "bandwidth_sweep",
        "seed": 42,
        "intra_domain_link": INTRA,
        "inter_domain_link": INTER,
        "params": PARAMS,
        "nodes": nodes,
        "script": script,
    }


def agent_crash():
    # The first domain's agent crashes mid-run; later queries succeed only
    # if agency is re-elected. Fodder for the static/dynamic comparison.
    nodes = [
        {"id": 1, "domain": 1, "ip": "192.168.16.10",
         "capacity_mb": 512.0, "power_mhz": 2800.0},
        {"id": 2, "domain": 1, "ip": "192.168.16.12",
         "capacity_mb": 1024.0, "power_mhz": 2660.0},
        {"id": 3, "domain": 2, "ip": "192.168.16.20",
         "capacity_mb": 8192.0, "power_mhz": 2800.0},
    ]
    script = [
        {"time_ms": 0.0, "action": "join", "node": 1},
        {"time_ms": 50.0, "action": "join", "node": 2},
        {"time_ms": 100.0, "action": "join", "node": 3},
        {"time_ms": 1500.0, "action": "assert_quiescent_consistency"},
        {"time_ms": 2000.0, "action": "query", "node": 2, "required_mb": 4096.0},
        {"time_ms": 2500.0, "action": "crash", "node": 1},
        {"time_ms": 4000.0, "action": "query", "node": 2, "required_mb": 4096.0},
        {"time_ms": 4500.0, "action": "query", "node": 2, "required_mb": 4096.0},
        {"time_ms": 5000.0, "action": "query", "node": 2, "required_mb": 4096.0},
        {"time_ms": 6000.0, "action": "assert_quiescent_consistency"},
    ]
    return {
        "name": "agent_crash",
        "seed": 42,
        "intra_domain_link": INTRA,
        "inter_domain_link": INTER,
        "params": PARAMS,
        "nodes": nodes,
        "script": script,
    }


def rendered():
    """Yield (file name, file text) for each bundled scenario."""
    for build in (churn50, two_domain, bandwidth_sweep, agent_crash):
        doc = build()
        yield f"{doc['name']}.json", json.dumps(doc, indent=2) + "\n"


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, text in rendered():
        path = OUT / name
        path.write_text(text)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
