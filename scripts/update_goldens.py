#!/usr/bin/env python3
"""Regenerate the golden run digests in tests/golden/digests.json.

    python3 scripts/update_goldens.py

Each case is a bundled scenario, as shipped or with one change (5% loss on
both link classes, or another election policy), a generated mixed run
under one election policy (see `generated_doc`), or the document of one
benchmark workload at seed 1, as `perfbench/workloads.py` builds it, so
the runs the benchmark times are pinned too. Each benchmark workload is
also pinned under the other two policies: `churn_lossy` is the only case
with loss, crashes and rejoins at 96 nodes, `hb_dense` the only 64-node
join ramp, and `query_grid` the only one that queries and allocates at
scale. A case's record holds the
SHA-256 of the trace CSV, of the metrics JSON and of the `--compare-static`
table, plus the consistency-assertion text when the run raises one; the
trace and metrics then cover the run up to the failed assertion.
tests/test_golden.py recomputes every record with `case_digests`.

Run this only for a change that alters run output on purpose, review the
diff, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib.util
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dssm.metrics import export_metrics  # noqa: E402
from dssm.scenario import (  # noqa: E402
    AssertionFailure,
    BUNDLED_SCENARIOS,
    ComparisonSummary,
    ScenarioWorld,
    bundled_scenario_path,
    run_scenario,
    scenario_from_json,
)
from dssm.simnet import export_trace  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "digests.json"
LOSS = 0.05
POLICY_CASES = {"agent_crash": ("lowest_id", "highest_connectivity"),
                "churn50": ("lowest_id", "highest_connectivity")}
PERFBENCH_POLICY_CASES = {"churn_lossy": ("lowest_id", "highest_connectivity"),
                          "hb_dense": ("lowest_id", "highest_connectivity"),
                          "query_grid": ("lowest_id", "highest_connectivity")}
POLICIES = ("max_power", "lowest_id", "highest_connectivity")
PERFBENCH_SEED = 1
LINK = {"delay_ms": 1.0, "drop_probability": 0.02, "bandwidth_mbps": 100.0}
PARAMS = {"accept_window_ms": 20.0, "heartbeat_period_ms": 200.0,
          "failure_timeout_ms": 600.0, "response_window_ms": 100.0}


def generated_doc(policy: str, draw: str = "golden") -> dict:
    """A mixed run under `policy`, drawn from the seed `draw/policy`: 2-3
    domains of four nodes on lossy links (2% intra, 5% inter), then leaves,
    crashes, rejoins (a crashed node included), local and remote queries
    and transfers, and one consistency assertion at the end. The golden
    cases use the default `draw`; tests draw other runs of the same shape.

    The bundled scenarios never rejoin after a crash and never query under
    lowest_id or highest_connectivity. Only live members that have finished
    joining leave, query or send a transfer, so every action fits the
    node's state when it runs.
    """
    rng = random.Random(f"{draw}/{policy}")
    domains = rng.choice((2, 3))
    ids = range(1, 4 * domains + 1)
    nodes = [{"id": nid, "domain": (nid - 1) // 4 + 1, "ip": f"10.0.{(nid - 1) // 4 + 1}.{nid}",
              "capacity_mb": rng.choice((512.0, 1024.0, 2048.0, 4096.0)),
              "power_mhz": rng.choice((2500.0, 2660.0, 2800.0))} for nid in ids]
    script = [{"time_ms": 20.0 * i, "action": "join", "node": nid} for i, nid in enumerate(ids)]
    joined = {nid: 20.0 * i for i, nid in enumerate(ids)}  # live member -> join time
    down = []
    t = 1000.0
    for _ in range(48):
        t += rng.choice((100.0, 150.0, 250.0))
        live = [nid for nid, since in joined.items() if t - since >= 100.0]
        r = rng.random()
        if r < 0.35 and live:
            script.append({"time_ms": t, "action": "query", "node": rng.choice(live),
                           "required_mb": rng.choice((200.0, 1000.0, 2500.0, 4000.0))})
        elif r < 0.5 and live:
            script.append({"time_ms": t, "action": "transfer", "from": rng.choice(live),
                           "to": rng.choice(ids), "size_mb": rng.choice((1.0, 10.0))})
        elif r < 0.8 and len(live) > 2:
            nid = rng.choice(live)
            action = "leave" if r < 0.65 else "crash"
            script.append({"time_ms": t, "action": action, "node": nid})
            del joined[nid]
            down.append(nid)
        elif down:
            nid = down.pop(rng.randrange(len(down)))
            script.append({"time_ms": t, "action": "join", "node": nid})
            joined[nid] = t
    script.append({"time_ms": t + 2000.0, "action": "assert_quiescent_consistency"})
    return {"name": f"generated@{policy}", "seed": 7, "election_policy": policy,
            "intra_domain_link": LINK, "inter_domain_link": dict(LINK, drop_probability=0.05),
            "params": PARAMS, "nodes": nodes, "script": script}


def perfbench_workloads():
    """`perfbench/workloads.py`, loaded by file path: `perfbench` is a
    directory of scripts, not a package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def case_docs() -> dict[str, dict]:
    """Scenario document of every golden case, by case name."""
    docs = {}
    for name in BUNDLED_SCENARIOS:
        doc = json.loads(bundled_scenario_path(name).read_text())
        docs[name] = doc
        lossy = copy.deepcopy(doc)
        for link in ("intra_domain_link", "inter_domain_link"):
            lossy[link]["drop_probability"] = LOSS
        docs[f"{name}@drop{LOSS}"] = lossy
        for policy in POLICY_CASES.get(name, ()):
            docs[f"{name}@{policy}"] = dict(doc, election_policy=policy)
    for policy in POLICIES:
        docs[f"generated@{policy}"] = generated_doc(policy)
    workloads = perfbench_workloads()
    for name in workloads.WORKLOADS:
        doc = workloads.build(name, PERFBENCH_SEED).doc
        docs[f"perfbench:{name}@seed{PERFBENCH_SEED}"] = doc
        for policy in PERFBENCH_POLICY_CASES.get(name, ()):
            docs[f"perfbench:{name}@seed{PERFBENCH_SEED}@{policy}"] = dict(doc, election_policy=policy)
    return docs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def case_digests(doc: dict, name: str) -> dict:
    """Digests of one run of `doc`, as stored in the golden file."""
    scenario = scenario_from_json(doc, name)
    world = ScenarioWorld(scenario)
    failure = None
    try:
        world.run()
    except AssertionFailure as exc:
        failure = str(exc)
    if failure is None:
        compare = ComparisonSummary.of(run_scenario(scenario, static_mode=True), world).table()
    else:  # as `compare_static_dynamic` would raise it
        compare = f"AssertionFailure: {failure}"
    with tempfile.TemporaryDirectory() as tmp:
        trace, metrics = Path(tmp) / "trace.csv", Path(tmp) / "metrics.json"
        export_trace(world.net.trace, trace)
        export_metrics(world.metrics, "json", metrics)
        return {
            "trace_csv": _sha256(trace.read_bytes()),
            "metrics_json": _sha256(metrics.read_bytes()),
            "compare_static": _sha256(compare.encode()),
            "failure": failure,
        }


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = {name: case_digests(doc, name) for name, doc in case_docs().items()}
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            print(f"changed: {name}")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"{len(new)} cases written to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
