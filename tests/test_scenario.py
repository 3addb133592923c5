import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest

from dssm.cli import main as cli_main
from dssm.core import AitEntry
from dssm.metrics import (
    KIND_ELECTION_LATENCY,
    KIND_JOIN_LATENCY,
    KIND_QUERY_RESPONSE,
    KIND_THROUGHPUT,
    MetricsRecord,
    export_metrics,
    load_metrics_json,
)
from dssm.scenario import (
    ACTIONS,
    NODE,
    Action,
    AssertionFailure,
    ParseError,
    QueryAction,
    Scenario,
    ScenarioWorld,
    ValidationError,
    bundled_scenario_path,
    compare_static_dynamic,
    load_scenario,
    resolve_scenario_path,
    run_scenario,
    scenario_from_json,
)
from dssm.simnet import LinkConfig, Topology, export_trace

ROOT = Path(__file__).resolve().parent.parent


def minimal_doc(**overrides):
    doc = {
        "name": "mini",
        "seed": 1,
        "intra_domain_link": {"delay_ms": 1.0, "drop_probability": 0.0,
                              "bandwidth_mbps": 100.0},
        "inter_domain_link": {"delay_ms": 10.0, "drop_probability": 0.0,
                              "bandwidth_mbps": 100.0},
        "params": {"accept_window_ms": 20.0, "heartbeat_period_ms": 200.0,
                   "failure_timeout_ms": 600.0, "response_window_ms": 100.0},
        "nodes": [
            {"id": 1, "domain": 1, "ip": "10.0.1.1",
             "capacity_mb": 100.0, "power_mhz": 2800.0},
            {"id": 2, "domain": 1, "ip": "10.0.1.2",
             "capacity_mb": 100.0, "power_mhz": 2800.0},
        ],
        "script": [
            {"time_ms": 0.0, "action": "join", "node": 1},
            {"time_ms": 50.0, "action": "join", "node": 2},
            {"time_ms": 500.0, "action": "assert_quiescent_consistency"},
        ],
    }
    doc.update(overrides)
    return doc


# -- loading ----------------------------------------------------------------


def test_bundled_churn50_shape():
    s = load_scenario(bundled_scenario_path("churn50"))
    assert len(s.node_specs) == 3
    assert len({spec.domain for spec in s.node_specs}) == 1
    powers = {spec.power_mhz for spec in s.node_specs}
    assert powers == {2800.0}
    leaves = [a for a in s.script if type(a).__name__ == "LeaveNode"]
    assert len(leaves) == 50


def test_bundled_two_domain_shape():
    s = load_scenario(bundled_scenario_path("two_domain"))
    by_domain = {}
    for spec in s.node_specs:
        by_domain.setdefault(spec.domain, []).append(spec.node_id)
    assert sorted(len(v) for v in by_domain.values()) == [1, 2]
    assert any(isinstance(a, QueryAction) for a in s.script)


def test_decreasing_times_rejected():
    doc = minimal_doc()
    doc["script"].append({"time_ms": 10.0, "action": "join", "node": 1})
    with pytest.raises(ValidationError):
        scenario_from_json(doc)


def test_unknown_node_reference_rejected():
    doc = minimal_doc()
    doc["script"].append({"time_ms": 600.0, "action": "leave", "node": 9})
    with pytest.raises(ValidationError):
        scenario_from_json(doc)


def test_bad_json_is_parse_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"name": "x",\n  "seed": }')
    with pytest.raises(ParseError) as info:
        load_scenario(p)
    assert "broken.json:2" in str(info.value)


def test_missing_field_named(tmp_path):
    doc = minimal_doc()
    del doc["nodes"][0]["ip"]
    p = tmp_path / "noip.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as info:
        load_scenario(p)
    assert "'ip'" in str(info.value)


def test_unknown_action_rejected():
    doc = minimal_doc()
    doc["script"].append({"time_ms": 600.0, "action": "explode"})
    with pytest.raises(ParseError):
        scenario_from_json(doc)


# A method of ProtocolParams is not a parameter: "from_links" used to pass
# the name check and raise TypeError.
@pytest.mark.parametrize("key", ["beat_ms", "from_links"])
def test_unknown_param_rejected(key):
    doc = minimal_doc()
    doc["params"][key] = 1.0
    with pytest.raises(ParseError, match=f"unknown parameter '{key}'"):
        scenario_from_json(doc)


def _join(**fields):
    return {"time_ms": 600.0, "action": "join", "node": 1, **fields}


def _query(**fields):
    return {"time_ms": 600.0, "action": "query", "node": 1, "required_mb": 1.0, **fields}


def _transfer(**fields):
    return {"time_ms": 600.0, "action": "transfer", "from": 1, "to": 2,
            "size_mb": 1.0, **fields}


def _set_link(**fields):
    return {"time_ms": 600.0, "action": "set_link", "scope": "inter", **fields}


def _without(action, key):
    return {k: v for k, v in action.items() if k != key}


# Every load-time error a script action can raise, with its exact text. The
# appended action is script[3] of minimal_doc(); where one action has two
# faults, the row pins which is reported.
SCRIPT_ERRORS = [
    (_without(_join(), "time_ms"), ParseError, "script[3]: missing field 'time_ms'"),
    (_without(_join(), "action"), ParseError, "script[3]: missing field 'action'"),
    (_without(_join(), "node"), ParseError, "script[3]: missing field 'node'"),
    (_without(_query(), "required_mb"), ParseError, "script[3]: missing field 'required_mb'"),
    (_without(_transfer(), "from"), ParseError, "script[3]: missing field 'from'"),
    (_without(_transfer(), "to"), ParseError, "script[3]: missing field 'to'"),
    (_without(_transfer(), "size_mb"), ParseError, "script[3]: missing field 'size_mb'"),
    (_without(_set_link(), "scope"), ParseError, "script[3]: missing field 'scope'"),
    (_without(_without(_transfer(), "from"), "to"), ParseError,
     "script[3]: missing field 'from'"),
    (_without(_join(action="explode"), "time_ms"), ParseError,
     "script[3]: missing field 'time_ms'"),
    (_join(time_ms="600"), ParseError, "script[3]: field 'time_ms' has wrong type str"),
    (_join(time_ms=True), ParseError, "script[3]: field 'time_ms' has wrong type bool"),
    (_join(action=7), ParseError, "script[3]: field 'action' has wrong type int"),
    (_join(node=1.5), ParseError, "script[3]: field 'node' has wrong type float"),
    (_join(node=True), ParseError, "script[3]: field 'node' has wrong type bool"),
    (_join(node="1"), ParseError, "script[3]: field 'node' has wrong type str"),
    (_query(required_mb="big"), ParseError,
     "script[3]: field 'required_mb' has wrong type str"),
    (_transfer(**{"from": "1"}), ParseError, "script[3]: field 'from' has wrong type str"),
    (_transfer(size_mb=None), ParseError, "script[3]: field 'size_mb' has wrong type NoneType"),
    (_set_link(scope=1), ParseError, "script[3]: field 'scope' has wrong type int"),
    (_set_link(delay_ms="slow"), ParseError, "script[3]: field 'delay_ms' has wrong type str"),
    (_set_link(bandwidth_mbps=False), ParseError,
     "script[3]: field 'bandwidth_mbps' has wrong type bool"),
    (_join(action="explode"), ParseError, "script[3]: unknown action 'explode'"),
    (_without(_join(action="explode"), "node"), ParseError,
     "script[3]: unknown action 'explode'"),
    ("join", ParseError, "scenario 'mini'.script[3]: expected an object"),
    (_join(node=9), ValidationError, "script references unknown node 9"),
    ({"time_ms": 600.0, "action": "leave", "node": 9}, ValidationError,
     "script references unknown node 9"),
    ({"time_ms": 600.0, "action": "crash", "node": 9}, ValidationError,
     "script references unknown node 9"),
    (_query(node=9), ValidationError, "script references unknown node 9"),
    (_transfer(**{"from": 9}), ValidationError, "script references unknown node 9"),
    (_transfer(to=8), ValidationError, "script references unknown node 8"),
    (_transfer(**{"from": 9, "to": 8}), ValidationError, "script references unknown node 9"),
    (_join(time_ms=10.0), ValidationError,
     "script times must be non-decreasing: 10.0 after 500.0"),
    (_join(time_ms=10, node=9), ValidationError,
     "script times must be non-decreasing: 10.0 after 500.0"),
    (_query(required_mb=0), ValidationError, "query required_mb 0.0 must be > 0"),
    (_query(required_mb=-1.5), ValidationError, "query required_mb -1.5 must be > 0"),
    (_query(node=9, required_mb=0), ValidationError, "script references unknown node 9"),
    (_transfer(size_mb=0.0), ValidationError, "transfer size_mb 0.0 must be > 0"),
    (_transfer(to=9, size_mb=-2), ValidationError, "script references unknown node 9"),
    (_set_link(scope="wan"), ValidationError, "set_link scope must be intra or inter, got wan"),
]


@pytest.mark.parametrize("action,error,message", SCRIPT_ERRORS)
def test_script_action_load_errors_keep_their_text(action, error, message):
    doc = minimal_doc()
    doc["script"].append(action)
    with pytest.raises(error) as info:
        scenario_from_json(doc)
    assert type(info.value) is error
    assert str(info.value) == message


def _section_case(section, key, value):
    doc = minimal_doc()
    doc[section][key] = value
    return doc


def _script_case(action):
    doc = minimal_doc()
    doc["script"].append(action)
    return doc


def _node_case(key, value):
    doc = minimal_doc()
    doc["nodes"][0][key] = value
    return doc


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("doc,error,message", [
    (_script_case(_join(time_ms=INF)), ParseError, "script[3]: field 'time_ms' must be finite"),
    (_script_case(_join(time_ms=10**400)), ParseError,
     "script[3]: field 'time_ms' must be finite"),
    (_script_case(_query(required_mb=NAN)), ParseError,
     "script[3]: field 'required_mb' must be finite"),
    (_script_case(_set_link(delay_ms=NAN)), ParseError,
     "script[3]: field 'delay_ms' must be finite"),
    (_section_case("intra_domain_link", "delay_ms", NAN), ParseError,
     "scenario 'mini'.intra_domain_link: field 'delay_ms' must be finite"),
    (_section_case("inter_domain_link", "bandwidth_mbps", INF), ParseError,
     "scenario 'mini'.inter_domain_link: field 'bandwidth_mbps' must be finite"),
    (_section_case("params", "heartbeat_period_ms", INF), ParseError,
     "scenario 'mini'.params: field 'heartbeat_period_ms' must be finite"),
    (_node_case("capacity_mb", -INF), ParseError,
     "scenario 'mini'.nodes[0]: field 'capacity_mb' must be finite"),
    (_section_case("intra_domain_link", "delay_ms", "slow"), ParseError,
     "scenario 'mini'.intra_domain_link: field 'delay_ms' has wrong type str"),
    (_section_case("intra_domain_link", "drop_probability", 2.0), ValidationError,
     "scenario 'mini'.intra_domain_link: drop_probability 2.0 must be in [0, 1]"),
    (_script_case(_set_link(drop_probability=1.5)), ValidationError,
     "set_link drop_probability 1.5 must be in [0, 1]"),
    (_script_case(_set_link(scope="intra", delay_ms=-1)), ValidationError,
     "set_link delay_ms -1.0 must be >= 0"),
    (_script_case(_set_link(delay_ms=5, bandwidth_mbps=0)), ValidationError,
     "set_link bandwidth_mbps 0.0 must be > 0"),
])
def test_non_finite_and_out_of_range_numbers_fail_at_load(doc, error, message):
    with pytest.raises(error) as info:
        scenario_from_json(doc)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("bad,named", [
    (["accept_window_ms"], "accept_window_ms"),
    (["heartbeat_period_ms"], "heartbeat_period_ms"),
    (["failure_timeout_ms"], "failure_timeout_ms"),
    (["response_window_ms"], "response_window_ms"),
    (["response_window_ms", "heartbeat_period_ms"], "heartbeat_period_ms"),
    (["response_window_ms", "failure_timeout_ms", "accept_window_ms"], "accept_window_ms"),
])
def test_the_first_param_not_above_zero_is_named(bad, named):
    doc = minimal_doc()
    for name in bad:
        doc["params"][name] = 0.0
    with pytest.raises(ValidationError) as info:
        scenario_from_json(doc)
    assert str(info.value) == f"param {named} must be > 0"


def test_every_action_subclass_is_in_the_table():
    assert set(Action.__subclasses__()) == set(ACTIONS.values())
    assert all(kind == cls.KIND for kind, cls in ACTIONS.items())


@pytest.mark.parametrize("kind", sorted(ACTIONS))
def test_every_action_parses_and_checks_its_node_fields(kind):
    cls = ACTIONS[kind]
    example = {"time_ms": 600.0, "action": kind}
    for i, (key, field) in enumerate(cls.FIELDS):
        example[key] = {"scope": "inter"}.get(key, 1 + i % 2 if field is NODE else 0.25 * (i + 1))
    parsed = scenario_from_json(_script_case(example)).script[-1]
    assert type(parsed) is cls
    assert [getattr(parsed, f.name) for f in fields(cls)] == [
        example[key] for key in ["time_ms"] + [key for key, _ in cls.FIELDS]]
    for key, field in cls.FIELDS:
        if field is NODE:
            with pytest.raises(ValidationError) as info:
                scenario_from_json(_script_case({**example, key: 9}))
            assert str(info.value) == "script references unknown node 9"


def test_set_link_is_checked_on_its_own_scope_as_the_script_leaves_it():
    # Two intra set_links that each pass on the loaded link but not in turn.
    doc = _script_case(_set_link(scope="intra", delay_ms=1.7e308))
    doc["script"].append(_set_link(time_ms=700.0, scope="intra", bandwidth_mbps=1e-308))
    with pytest.raises(ValidationError) as info:
        scenario_from_json(doc)
    assert str(info.value) == (
        "set_link delay_ms 1.7e+308 and bandwidth_mbps 1e-308 give a 73-byte message "
        "a transit time that is not finite")
    # An inter delay that the intra link's bandwidth could not carry in
    # finite time, though the inter link (100 Mbps) does.
    doc = minimal_doc()
    doc["intra_domain_link"]["bandwidth_mbps"] = 1e-308
    doc["script"] = doc["script"][:2] + [_set_link(delay_ms=1.7e308)]
    world = run_scenario(scenario_from_json(doc))
    assert world.net.inter_link == LinkConfig(1.7e308, 0.0, 100.0)
    # And the reverse: each scope keeps its own link through the script.
    doc = minimal_doc()
    doc["script"] += [_set_link(bandwidth_mbps=1e-308),
                      _set_link(time_ms=700.0, scope="intra", delay_ms=1.7e308)]
    world = run_scenario(scenario_from_json(doc))
    assert world.net.intra_link == LinkConfig(1.7e308, 0.0, 100.0)
    assert world.net.inter_link == LinkConfig(10.0, 0.0, 1e-308)


def test_set_link_changes_only_the_given_fields():
    doc = _script_case(_set_link(scope="intra", drop_probability=0.5, bandwidth_mbps=10))
    doc["script"].append(_set_link(time_ms=700.0, delay_ms=30))
    world = run_scenario(scenario_from_json(doc))
    assert world.net.intra_link == LinkConfig(1.0, 0.5, 10.0)
    assert world.net.inter_link == LinkConfig(30.0, 0.0, 100.0)


def test_generator_reproduces_the_bundled_scenarios():
    spec = importlib.util.spec_from_file_location(
        "generate_scenarios", ROOT / "scripts" / "generate_scenarios.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    bundled = {p.name: p.read_bytes() for p in generate.OUT.glob("*.json")}
    assert {name: text.encode() for name, text in generate.rendered()} == bundled


def test_resolve_accepts_bundled_names(tmp_path):
    assert resolve_scenario_path("churn50").exists()
    assert resolve_scenario_path("two_domain.json").exists()
    with pytest.raises(ParseError):
        resolve_scenario_path("no_such_thing")


# -- running -----------------------------------------------------------------


def test_churn50_runs_clean():
    s = load_scenario(bundled_scenario_path("churn50"))
    result = run_scenario(s)  # raises AssertionFailure on any violation
    assert result.net.now >= 50_000.0


def test_two_domain_query_results():
    s = load_scenario(bundled_scenario_path("two_domain"))
    result = run_scenario(s)
    assert len(result.registry) == 2
    assert result.query_results[1].node_id == 2  # local
    assert result.query_results[2].node_id == 3  # remote
    outcomes = [r.labels["outcome"] for r in result.metrics
                if r.kind == KIND_QUERY_RESPONSE]
    assert outcomes == ["local", "remote"]


def test_bandwidth_sweep_throughput_grid():
    s = load_scenario(bundled_scenario_path("bandwidth_sweep"))
    result = run_scenario(s)
    rows = [r for r in result.metrics if r.kind == KIND_THROUGHPUT]
    assert len(rows) == 12  # 4 delays x 3 sizes
    by_size = {}
    for r in rows:
        by_size.setdefault(r.labels["size_mb"], []).append(
            (float(r.labels["delay_ms"]), r.value))
    assert len(by_size) == 3
    for series in by_size.values():
        ordered = [v for _, v in sorted(series)]
        assert ordered == sorted(ordered, reverse=True)


def test_consistency_assertion_fires_on_violation():
    # Nodes 1 and 2 joined 50 ms apart, so their failure detectors tick out
    # of phase. Crash node 3 and assert in the window where node 1 has
    # already dropped it but node 2 has not: genuine AIT divergence.
    doc = minimal_doc()
    doc["nodes"].append({"id": 3, "domain": 1, "ip": "10.0.1.3",
                         "capacity_mb": 100.0, "power_mhz": 2900.0})
    doc["script"] = [
        {"time_ms": 0.0, "action": "join", "node": 1},
        {"time_ms": 50.0, "action": "join", "node": 2},
        {"time_ms": 500.0, "action": "join", "node": 3},
        {"time_ms": 1000.0, "action": "crash", "node": 3},
        {"time_ms": 1650.0, "action": "assert_quiescent_consistency"},
    ]
    s = scenario_from_json(doc)
    with pytest.raises(AssertionFailure) as info:
        run_scenario(s)
    assert "ait-divergence" in str(info.value)


def five_node_doc(policy):
    # Two domains whose lowest ids are not their most powerful nodes.
    doc = minimal_doc(election_policy=policy)
    doc["nodes"] = [
        {"id": nid, "domain": dom, "ip": f"10.0.{dom}.{nid}",
         "capacity_mb": 100.0, "power_mhz": power}
        for nid, dom, power in [(1, 1, 2660.0), (2, 1, 2800.0), (3, 1, 2660.0),
                                (4, 2, 2500.0), (5, 2, 3000.0)]
    ]
    doc["script"] = [{"time_ms": 50.0 * i, "action": "join", "node": nid}
                     for i, nid in enumerate((1, 2, 3, 4, 5))]
    doc["script"].append({"time_ms": 3000.0, "action": "assert_quiescent_consistency"})
    return doc


@pytest.mark.parametrize("policy", ["max_power", "lowest_id", "highest_connectivity"])
def test_consistency_check_follows_the_policy(policy):
    result = run_scenario(scenario_from_json(five_node_doc(policy)))
    expected = {"max_power": {1: 2, 2: 5}}.get(policy, {1: 1, 2: 4})
    assert {d: e.node_id for d, e in result.registry.agents().items()} == expected
    assert result.check_consistency() is None


@pytest.mark.parametrize("policy,message", [
    ("max_power", "agent-not-argmax domain=1: agent 3 has 2660.0 MHz, max is 2800.0"),
    ("lowest_id", "agent-not-selected domain=1: agent 3, lowest_id selects 1"),
    ("highest_connectivity", "agent-not-selected domain=1: agent 3, highest_connectivity selects 1"),
])
def test_consistency_check_flags_an_agent_the_policy_would_not_pick(policy, message):
    world = run_scenario(scenario_from_json(five_node_doc(policy)))
    for node in world.live_members(1):
        node.agent = 3
    assert world.check_consistency() == message


def test_determinism_byte_identical(tmp_path):
    s = load_scenario(bundled_scenario_path("agent_crash"))
    files = []
    for tag in ("a", "b"):
        result = run_scenario(s)
        t, m = tmp_path / f"trace_{tag}.csv", tmp_path / f"metrics_{tag}.json"
        export_trace(result.trace, t)
        export_metrics(result.metrics, "json", m)
        files.append((t.read_bytes(), m.read_bytes()))
    assert files[0] == files[1]
    assert files[0][0]


# -- static vs dynamic ----------------------------------------------------------


def test_agent_crash_dynamic_beats_static():
    s = load_scenario(bundled_scenario_path("agent_crash"))
    summary = compare_static_dynamic(s)
    assert summary.dynamic.success_rate > summary.static.success_rate
    assert summary.dynamic.queries == summary.static.queries == 4


def test_no_churn_modes_agree():
    s = load_scenario(bundled_scenario_path("two_domain"))
    static = run_scenario(s, static_mode=True)
    dynamic = run_scenario(s, static_mode=False)
    static_picks = {q: (c.node_id if c else None) for q, c in static.query_results.items()}
    dynamic_picks = {q: (c.node_id if c else None) for q, c in dynamic.query_results.items()}
    assert static_picks == dynamic_picks


def test_static_mode_queries_go_to_the_pinned_agent():
    # Node 2 never joins, so only the static baseline knows its agent.
    doc = minimal_doc()
    doc["script"] = [_join(time_ms=0.0), _query(time_ms=500.0, node=2, required_mb=50.0)]
    static = run_scenario(scenario_from_json(doc), static_mode=True)
    dynamic = run_scenario(scenario_from_json(doc))
    assert static.query_results[1].node_id == 1
    assert dynamic.query_results == {1: None}


def test_comparison_table_has_two_rows():
    s = load_scenario(bundled_scenario_path("two_domain"))
    table = compare_static_dynamic(s).table()
    lines = table.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("static,")
    assert lines[2].startswith("dynamic,")


# -- metrics export ----------------------------------------------------------------


def test_empty_csv_is_header_only(tmp_path):
    p = tmp_path / "empty.csv"
    export_metrics([], "csv", p)
    assert p.read_text() == "kind,value,unit,time_ms,labels\n"


def test_export_is_byte_stable(tmp_path):
    records = [
        MetricsRecord(KIND_QUERY_RESPONSE, 12.5, "ms", 100.0, {"outcome": "local"}),
        MetricsRecord(KIND_THROUGHPUT, 99.25, "Mbps", 200.0, {"size_mb": "10.0"}),
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_metrics(records, "csv", a)
    export_metrics(records, "csv", b)
    assert a.read_bytes() == b.read_bytes()


def test_json_round_trip(tmp_path):
    records = [
        MetricsRecord(KIND_QUERY_RESPONSE, 12.5, "ms", 100.0,
                      {"outcome": "local", "query_id": "1"}),
        MetricsRecord(KIND_THROUGHPUT, 99.25, "Mbps", 200.5, {}),
    ]
    p = tmp_path / "m.json"
    export_metrics(records, "json", p)
    assert load_metrics_json(p) == records


@pytest.mark.parametrize("time_ms", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_metric_time_is_refused(time_ms):
    # JSON has no Infinity or NaN: such a time could not be exported.
    with pytest.raises(ValueError, match="time_ms"):
        MetricsRecord(KIND_QUERY_RESPONSE, 0.1, "ms", time_ms, {"n": "1"})


def _json_dump_bytes(records) -> bytes:
    """The reference the JSON export must match byte for byte."""
    fh = io.StringIO()
    json.dump([{"kind": r.kind, "value": r.value, "unit": r.unit, "time_ms": r.time_ms,
                "labels": r.labels} for r in records], fh, indent=2, sort_keys=True)
    fh.write("\n")
    return fh.getvalue().encode("ascii")


ODD_LABELS = {"quote": 'say "hi"', "back\\slash": "a\\b", "control": "bell\x07tab\tnl\n",
              "accent": "caf\u00e9", "snow\u2603man": "\u2603", "emoji": "\U0001f600",
              "": "", "Zeta": "upper sorts first"}


@pytest.mark.parametrize("records", [
    [],
    [MetricsRecord(KIND_THROUGHPUT, 99.25, "Mbps", 200.5, {})],
    [MetricsRecord(KIND_QUERY_RESPONSE, 12.5, "ms", 100.0, dict(ODD_LABELS)),
     MetricsRecord(KIND_THROUGHPUT, 1.0, "Mbps", 100.0, {"outcome": "caf\u00e9"})],
    [MetricsRecord(KIND_JOIN_LATENCY, 3, "ms", 7, {"node": "1"}),
     MetricsRecord(KIND_JOIN_LATENCY, -0.0, "ms", -0.0, {}),
     MetricsRecord(KIND_ELECTION_LATENCY, 5e-324, "ms", 1e16, {"node": "2"}),
     MetricsRecord(KIND_ELECTION_LATENCY, 1e16, "ms", 5e-324, {}),
     MetricsRecord(KIND_QUERY_RESPONSE, 0.1, "ms", 1e308, {"n": "1"})],
    # More records than one write holds.
    [MetricsRecord(KIND_QUERY_RESPONSE, k / 7, "ms", k * 0.5, {"query_id": str(k)} if k % 3 else {})
     for k in range(700)],
], ids=["empty", "empty_labels", "escaped_labels", "numbers", "many"])
def test_json_export_is_the_bytes_of_json_dump(tmp_path, records):
    p = tmp_path / "m.json"
    export_metrics(records, "json", p)
    assert p.read_bytes() == _json_dump_bytes(records)


# -- CLI -----------------------------------------------------------------------


def test_cli_run_with_exports(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    metrics = tmp_path / "metrics.csv"
    code = cli_main(["run", "two_domain", "--trace", str(trace),
                     "--metrics", str(metrics)])
    assert code == 0
    assert trace.read_text().startswith("time_ms,seq,kind,from,to,msg_kind,size_bytes")
    assert metrics.read_text().startswith("kind,value,unit,time_ms,labels")
    out = capsys.readouterr().out
    assert "scenario two_domain" in out


def test_cli_seed_reaches_the_run(tmp_path):
    # At 5% loss on both links the drop draws follow the seed, so the trace shows it.
    doc = json.loads(bundled_scenario_path("two_domain").read_text())
    for link in ("intra_domain_link", "inter_domain_link"):
        doc[link]["drop_probability"] = 0.05
    p = tmp_path / "lossy.json"
    p.write_text(json.dumps(doc))
    traces = {}
    for seed in (9, 10):
        traces[seed] = tmp_path / f"trace_{seed}.csv"
        assert cli_main(["run", str(p), "--seed", str(seed), "--trace", str(traces[seed])]) == 0
    expected = tmp_path / "expected.csv"
    export_trace(run_scenario(replace(load_scenario(p), seed=9)).trace, expected)
    assert traces[9].read_bytes() == expected.read_bytes()
    assert traces[10].read_bytes() != traces[9].read_bytes()


@pytest.mark.parametrize("name", ["metrics.JSON", "metrics.Json"])
def test_cli_metrics_extension_is_case_insensitive(tmp_path, capsys, name):
    metrics = tmp_path / name
    assert cli_main(["run", "two_domain", "--metrics", str(metrics)]) == 0
    assert f"metrics written to {metrics} (json)" in capsys.readouterr().out
    assert len(load_metrics_json(metrics)) > 0


def test_cli_compare_static(capsys):
    code = cli_main(["run", "agent_crash", "--compare-static"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mode,queries,successes,success_rate,mean_response_ms" in out
    assert "\nstatic," in out and "\ndynamic," in out


def _count_calls(monkeypatch, methods):
    """Wrap each (class, method name) so that its calls are counted, by
    'Class.name'."""
    calls = Counter()
    for owner, name in methods:
        def counted(*args, _method=getattr(owner, name), _key=f"{owner.__name__}.{name}",
                    **kwargs):
            calls[_key] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_cli_compare_static_loads_checks_and_builds_each_entry_once(monkeypatch, capsys):
    # The load validates, each world's Network checks its topology, and the
    # comparison reuses the dynamic run: two runs, three entries for three nodes.
    calls = _count_calls(monkeypatch, [(Scenario, "validate"), (Topology, "validate"),
                                       (AitEntry, "__post_init__"), (ScenarioWorld, "run")])
    assert cli_main(["run", "two_domain", "--compare-static"]) == 0
    assert calls == {"Scenario.validate": 1, "Topology.validate": 3,
                     "AitEntry.__post_init__": 3, "ScenarioWorld.run": 2}
    table = compare_static_dynamic(load_scenario(bundled_scenario_path("two_domain"))).table()
    assert capsys.readouterr().out.endswith(f"\n{table}\n")


def test_a_scenario_built_in_code_is_refused_by_its_own_validate():
    # ScenarioWorld runs what it is given: the maker of a Scenario that did
    # not come from scenario_from_json calls validate itself.
    loaded = load_scenario(bundled_scenario_path("two_domain"))
    built = replace(loaded, script=[replace(loaded.script[0], node=99), *loaded.script[1:]])
    with pytest.raises(ValidationError, match="unknown node 99"):
        built.validate()


def test_cli_bad_scenario_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{")
    assert cli_main(["run", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def _python(*args, **env):
    """Run the interpreter on `args` over this checkout's src/, with `env`
    added to the environment, so that a traceback reaches stderr as it does
    for a user and the exit status is the interpreter's."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100000], ids=["not_utf8", "too_deep"])
def test_cli_bad_scenario_bytes_exit_2_without_a_traceback(tmp_path, content):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    proc = _python("-m", "dssm.cli", "run", str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_load_scenario_reads_utf8_under_an_ascii_locale(tmp_path):
    p = tmp_path / "utf8.json"
    p.write_bytes(json.dumps(minimal_doc(name="caf\u00e9"), ensure_ascii=False).encode())
    proc = _python("-c", "import sys; from dssm.scenario import load_scenario; "
                   "print(ascii(load_scenario(sys.argv[1]).name))", str(p),
                   LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert (proc.returncode, proc.stdout) == (0, "'caf\\xe9'\n"), proc.stderr


SET_LINK_OUT_OF_RANGE = {"set_link_drop_probability": 1.5, "set_link_delay_ms": -1.0,
                         "set_link_bandwidth_mbps": 0.0}


@pytest.mark.parametrize("case", ["bad_ip", "non_numeric_param", "leave_before_join",
                                  "leave_after_crash", "transfer_after_crash",
                                  *SET_LINK_OUT_OF_RANGE, "infinite_transit",
                                  "set_link_infinite_transit",
                                  "set_link_infinite_transit_together",
                                  "set_link_infinite_transit_in_turn", "nan_required_mb",
                                  "unwritable_trace", "unwritable_metrics",
                                  "trace_is_a_directory", "good_trace_bad_metrics"])
def test_cli_bad_input_exits_2_with_one_line(tmp_path, capsys, case):
    doc, flags = minimal_doc(), []
    # Output files that exist already: a bad path must leave them as they are.
    kept = {tmp_path / "kept.csv": "trace kept\n", tmp_path / "kept.json": "metrics kept\n"}
    for out, text in kept.items():
        out.write_text(text)
    crash = {"time_ms": 1000.0, "action": "crash", "node": 1}
    if case == "bad_ip":
        doc["nodes"][0]["ip"] = "10.0.1"
    elif case == "non_numeric_param":
        doc["params"]["heartbeat_period_ms"] = "fast"
    elif case == "leave_before_join":
        doc["script"].insert(0, {"time_ms": 0.0, "action": "leave", "node": 2})
    elif case == "leave_after_crash":
        doc["script"] += [crash, {"time_ms": 1100.0, "action": "leave", "node": 1}]
    elif case == "infinite_transit":
        doc["intra_domain_link"]["bandwidth_mbps"] = 1e-320
    elif case == "set_link_infinite_transit":
        doc["script"].append(_set_link(bandwidth_mbps=1e-320))
    elif case == "set_link_infinite_transit_together":
        # Each field passes alone; together the transit time is inf.
        doc["script"].append(_set_link(delay_ms=1.7e308, bandwidth_mbps=1e-308))
    elif case == "set_link_infinite_transit_in_turn":
        # Each set_link passes on the intra link as it was; the second fails
        # on the link as the first left it.
        doc["script"] += [_set_link(scope="intra", delay_ms=1.7e308),
                          _set_link(time_ms=700.0, scope="intra", bandwidth_mbps=1e-308)]
    elif case in SET_LINK_OUT_OF_RANGE:
        doc["script"].append(_set_link(**{case.removeprefix("set_link_"):
                                          SET_LINK_OUT_OF_RANGE[case]}))
    elif case == "nan_required_mb":
        doc["script"].append(_query(required_mb=float("nan")))
    elif case.startswith("unwritable_"):
        flags = ["--" + case.removeprefix("unwritable_"), str(tmp_path / "missing" / "out.csv")]
    elif case == "trace_is_a_directory":
        flags = ["--trace", str(tmp_path), "--metrics", str(tmp_path / "kept.json")]
    elif case == "good_trace_bad_metrics":
        flags = ["--trace", str(tmp_path / "kept.csv"),
                 "--metrics", str(tmp_path / "missing" / "out.json")]
    else:
        doc["script"] += [crash, {"time_ms": 1100.0, "action": "transfer",
                                  "from": 1, "to": 2, "size_mb": 1.0}]
    p = tmp_path / f"{case}.json"
    p.write_text(json.dumps(doc))
    assert cli_main(["run", str(p), *flags]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "scenario " not in out
    assert {path: path.read_text() for path in kept} == kept
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("case", ["size_mb_1e308", "bandwidth_1e-305", "zero_time"])
def test_cli_transfer_that_cannot_arrive_exits_2_with_one_line(tmp_path, capsys, case):
    # bandwidth_sweep with one edit; each case used to end in a traceback:
    # an infinite response time or a division by a zero one. At 1e-305 Mbps
    # a control message still arrives in finite time (a link where none
    # does is refused at load), but a 1 MB DATA does not.
    doc = json.loads(bundled_scenario_path("bandwidth_sweep").read_text())
    links = (doc["intra_domain_link"], doc["inter_domain_link"])
    if case == "size_mb_1e308":
        next(a for a in doc["script"] if a["action"] == "transfer")["size_mb"] = 1e308
    elif case == "bandwidth_1e-305":
        for link in links:
            link["bandwidth_mbps"] = 1e-305
    else:
        for link in links:
            link.update(delay_ms=0.0, bandwidth_mbps=1e306)
    p = tmp_path / f"{case}.json"
    p.write_text(json.dumps(doc))
    trace = tmp_path / "trace.csv"
    assert cli_main(["run", str(p), "--trace", str(trace)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: script at t=1200.0: transfer of ") and err.count("\n") == 1
    assert "Traceback" not in err and "scenario " not in out
    assert not trace.exists()


def test_cli_transfer_of_a_subnormal_response_time_exits_2_before_the_data_is_sent(
        tmp_path, capsys, monkeypatch):
    # 1e-27 MB at 1e300 Mbps without delay takes 1e-323 ms: a response time
    # > 0 whose seconds underflow to 0, so the throughput is not finite.
    doc = json.loads(bundled_scenario_path("two_domain").read_text())
    for link in (doc["intra_domain_link"], doc["inter_domain_link"]):
        link.update(delay_ms=0.0, bandwidth_mbps=1e300)
    doc["script"].append({"time_ms": 4000.0, "action": "transfer", "from": 1, "to": 2,
                          "size_mb": 1e-27})
    p = tmp_path / "subnormal.json"
    p.write_text(json.dumps(doc))
    worlds, run = [], ScenarioWorld.run
    monkeypatch.setattr(ScenarioWorld, "run", lambda world: run(worlds.append(world) or world))
    assert cli_main(["run", str(p)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: script at t=4000.0: transfer of 1e-27 MB")
    assert err.count("\n") == 1 and "Traceback" not in err and "scenario " not in out
    [world] = worlds
    assert [row for row in world.trace if row.msg_kind == "DATA"] == []


@pytest.mark.parametrize("timeout", [1.0, 200.0])
def test_cli_rejects_a_failure_timeout_of_at_most_one_heartbeat_period(tmp_path, capsys, timeout):
    doc = minimal_doc()
    doc["params"]["failure_timeout_ms"] = timeout
    p = tmp_path / "timeout.json"
    p.write_text(json.dumps(doc))
    assert cli_main(["run", str(p)]) == 2
    assert capsys.readouterr().err == (
        "error: param failure_timeout_ms must be > heartbeat_period_ms\n")


# A period that does not advance the clock at the last script time: 1e-300
# ms at 500 ms, 200 ms at 1e20 ms, and half the float spacing at 2^53 ms,
# which rounds back to 2^53 itself. Each used to re-arm a heartbeat at one
# instant without end.
@pytest.mark.parametrize("period, last_t", [(1e-300, 500.0), (200.0, 1e20), (1.0, 2.0**53)],
                         ids=["tiny_period", "late_script", "half_spacing"])
def test_cli_heartbeat_period_that_cannot_advance_the_clock_exits_2(tmp_path, period, last_t):
    doc = minimal_doc()
    doc["params"]["heartbeat_period_ms"] = period
    doc["script"].append({"time_ms": last_t, "action": "assert_quiescent_consistency"})
    p = tmp_path / "period.json"
    p.write_text(json.dumps(doc))
    proc = _python("-m", "dssm.cli", "run", str(p))
    assert proc.returncode == 2
    assert proc.stderr == (f"error: param heartbeat_period_ms {period} does not advance "
                           f"the clock at t={last_t}\n")


def test_smallest_period_that_advances_the_clock_is_accepted():
    doc = minimal_doc()
    # 2^53 + 2 has an odd mantissa, so t + 1 rounds up there but not at 2^53.
    doc["script"].append({"time_ms": 2.0**53 + 2, "action": "assert_quiescent_consistency"})
    doc["params"]["heartbeat_period_ms"] = 1.0
    with pytest.raises(ValidationError, match="does not advance the clock"):
        scenario_from_json(doc)
    doc["params"]["heartbeat_period_ms"] = 2.0
    assert scenario_from_json(doc).params.heartbeat_period_ms == 2.0


@pytest.mark.parametrize("period", [200.0, 5000.0])
def test_an_omitted_failure_timeout_is_three_heartbeat_periods(tmp_path, capsys, period):
    doc = minimal_doc(params={"heartbeat_period_ms": period})
    assert scenario_from_json(doc).params.failure_timeout_ms == 3 * period
    p = tmp_path / "period.json"
    p.write_text(json.dumps(doc))
    assert cli_main(["run", str(p)]) == 0
    assert capsys.readouterr().err == ""


def test_an_omitted_heartbeat_period_keeps_the_default_and_its_timeout():
    params = scenario_from_json(minimal_doc(params={})).params
    assert (params.heartbeat_period_ms, params.failure_timeout_ms) == (1000.0, 3000.0)


def test_cli_seed_override(tmp_path):
    t1, t2 = tmp_path / "1.csv", tmp_path / "2.csv"
    assert cli_main(["run", "two_domain", "--seed", "9", "--trace", str(t1)]) == 0
    assert cli_main(["run", "two_domain", "--seed", "9", "--trace", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()
