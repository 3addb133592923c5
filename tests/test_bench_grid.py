import argparse
import gc

import pytest

from conftest import load_script
from dssm.scenario import scenario_from_json

bench_grid = load_script("bench_grid")


def test_every_grid_point_is_a_valid_scenario():
    for n, d in bench_grid.GRID:
        scenario = scenario_from_json(bench_grid.grid_doc(n, d))
        scenario.validate()
        assert len(scenario.node_specs) == n * d
        assert len(scenario.script) == n * d


def test_node_addresses_are_valid_past_255_and_unchanged_up_to_it():
    scenario = scenario_from_json(bench_grid.grid_doc(300, 1))
    scenario.validate()
    ips = {node["id"]: node["ip"] for node in bench_grid.grid_doc(300, 2)["nodes"]}
    assert len(set(ips.values())) == 600
    assert [ips[k] for k in (1, 255, 256, 300)] == ["10.1.0.1", "10.1.0.255", "10.1.1.0",
                                                     "10.1.1.44"]
    assert ips[300 + 7] == "10.2.0.7"
    # Every grid point keeps its 10.j.0.k addresses, so its document is as before.
    for n, d in bench_grid.GRID:
        assert all(node["ip"] == f"10.{node['domain']}.0.{node['id'] - (node['domain'] - 1) * n}"
                   for node in bench_grid.grid_doc(n, d)["nodes"])


def test_smallest_grid_point_runs_clean():
    point = bench_grid.run_point(10, 1)
    assert point["violation"] is None
    assert point["trace_rows"] > 0
    # Process time is reported beside wall time.
    assert point["process_s"] >= 0.0
    assert point["ref_s"] > 0.0


def test_a_point_scales_wall_and_export_time_by_its_reference(monkeypatch):
    # A host that runs the reference in twice the quiet time reports half
    # its raw times as scaled; the reference is timed after the peak RSS read.
    calls = []
    monkeypatch.setattr(bench_grid, "reference",
                        lambda: calls.append("reference") or 2 * bench_grid.REFERENCE_S)
    monkeypatch.setattr(bench_grid.resource, "getrusage",
                        lambda who: calls.append("rss") or type("Usage", (), {"ru_maxrss": 1024})())
    point = bench_grid.run_point(10, 1)
    assert calls == ["rss", "reference"]
    assert point["ref_s"] == round(2 * bench_grid.REFERENCE_S, 6)
    for name in ("wall_s", "export_s"):
        assert abs(point[f"scaled_{name}"] - point[name] / 2) <= 0.001


def test_the_reference_takes_a_positive_time_and_leaves_the_collector_as_it_was():
    assert bench_grid.reference() > 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        bench_grid.reference()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_point_times_one_export_of_its_whole_trace(monkeypatch):
    exports = []
    monkeypatch.setattr(bench_grid, "export_trace",
                        lambda trace, path: exports.append(len(trace)))
    point = bench_grid.run_point(10, 1)
    assert exports == [point["trace_rows"]]
    assert point["export_s"] >= 0.0


def test_a_point_may_name_its_election_policy():
    assert bench_grid.parse_point("160x8") == (160, 8, "max_power")
    assert bench_grid.parse_point("160x1@highest_connectivity") == (160, 1,
                                                                  "highest_connectivity")
    assert bench_grid.point_name(160, 8, "max_power") == "160x8"
    assert bench_grid.point_name(160, 1, "lowest_id") == "160x1@lowest_id"
    for bad in ("160x1@", "160x1@fastest", "0x1@lowest_id", "160@lowest_id"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_grid.parse_point(bad)
    assert bench_grid.grid_doc(10, 2, "lowest_id")["election_policy"] == "lowest_id"
    assert bench_grid.grid_doc(10, 2)["election_policy"] == "max_power"


def test_a_policy_point_runs_clean_and_says_its_policy():
    # The default point's JSON is as it always was, without a policy key.
    assert "policy" not in bench_grid.run_point(10, 1)
    point = bench_grid.run_point(10, 1, "highest_connectivity")
    assert point["violation"] is None and point["policy"] == "highest_connectivity"
    assert point["trace_rows"] > 0
