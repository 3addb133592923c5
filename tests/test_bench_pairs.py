import json

import pytest

from conftest import load_script

bench_pairs = load_script("bench_pairs")
BETTER = {"wall_s_per_sim_s": "lower", "events_per_s": "higher"}


def final_line(wall, events):
    return {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {"wall_s_per_sim_s": {"value": wall, "unit": "s/s"},
                        "events_per_s": {"value": events, "unit": "1/s"}}}


def run_output(wall, events, trace_sha="aa", failed="0  {}"):
    """What `perfbench/run.py --workload all` prints, cut to one workload."""
    return "\n".join([
        "bundled churn50          pass  trace 11 metrics 22",
        "== hb_dense seed=5 instances=3 untraced",
        f"trace_sha256   {trace_sha}",
        "metrics_sha256 bb",
        "ops_attempted  4",
        f"ops_failed     {failed}",
        "query_mean_ms  n/a (no queries in this workload)",
        f"wall_s_per_sim_s   {wall} s/s",
        json.dumps(final_line(wall, events)),
    ]) + "\n"


def test_parse_run_keeps_the_checked_outputs_and_the_final_line():
    run = bench_pairs.parse_run(run_output(0.01, 2e6))
    assert run["bundled"] == {"churn50": "pass  trace 11 metrics 22"}
    hb = run["workloads"]["hb_dense"]
    assert hb["final"] == final_line(0.01, 2e6)
    assert bench_pairs.checked(run)["workloads"] == {"hb_dense": {
        "trace_sha256": "aa", "metrics_sha256": "bb", "ops_attempted": "4",
        "ops_failed": "0  {}"}}


@pytest.mark.parametrize("change", [{"trace_sha": "ab"}, {"failed": "1  {\"check\": 1}"}])
def test_check_same_fails_on_a_changed_digest_or_operation_count(change):
    parent = bench_pairs.parse_run(run_output(0.01, 2e6))
    bench_pairs.check_same(parent, bench_pairs.parse_run(run_output(0.02, 1e6)), "same")
    with pytest.raises(bench_pairs.Mismatch):
        bench_pairs.check_same(parent, bench_pairs.parse_run(run_output(0.01, 2e6, **change)),
                               "changed")


def test_summarize_gives_medians_quartiles_ratio_and_wins():
    parent = [0.010, 0.012, 0.011, 0.013, 0.009]
    change = [0.006, 0.007, 0.012, 0.005, 0.006]
    lines = {side: {"hb_dense": [final_line(w, 1.0 / w) for w in walls]}
             for side, walls in (("parent", parent), ("change", change))}
    summary = bench_pairs.summarize(lines["parent"], lines["change"], BETTER)
    wall = summary["hb_dense"]["wall_s_per_sim_s"]
    assert wall["parent_median"] == 0.011 and wall["change_median"] == 0.006
    assert (wall["parent_q1"], wall["parent_q3"]) == (0.01, 0.012)
    assert wall["change_over_parent"] == round(0.006 / 0.011, 3)
    assert wall["change_wins"] == "4/5"  # pair 2: 0.012 is not below 0.011
    assert summary["hb_dense"]["events_per_s"]["change_wins"] == "4/5"
    table = bench_pairs.format_summary(summary)
    assert "hb_dense" in table and "4/5" in table
