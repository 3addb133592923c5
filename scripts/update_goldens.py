#!/usr/bin/env python3
"""Regenerate the golden run digests in tests/golden/digests.json.

    python3 scripts/update_goldens.py

Each case is a bundled scenario, as shipped or with one change (5% loss on
both link classes, or another election policy). A case's record holds the
SHA-256 of the trace CSV, of the metrics JSON and of the `--compare-static`
table, plus the consistency-assertion text when the run raises one; the
trace and metrics then cover the run up to the failed assertion.
tests/test_golden.py recomputes every record with `case_digests`.

Run this only for a change that alters run output on purpose, review the
diff, and say why in CHANGES.md.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dssm.metrics import export_metrics  # noqa: E402
from dssm.scenario import (  # noqa: E402
    AssertionFailure,
    BUNDLED_SCENARIOS,
    ScenarioWorld,
    bundled_scenario_path,
    compare_static_dynamic,
    scenario_from_json,
)
from dssm.simnet import export_trace  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "digests.json"
LOSS = 0.05
POLICY_CASES = {"agent_crash": ("lowest_id", "highest_connectivity"),
                "churn50": ("lowest_id", "highest_connectivity")}


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
    try:
        compare = compare_static_dynamic(scenario).table()
    except AssertionFailure as exc:
        compare = f"AssertionFailure: {exc}"
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


def main() -> int:
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
