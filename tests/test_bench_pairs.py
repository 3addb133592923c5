import json
import os

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


def grid_output(*points):
    """What `scripts/bench_grid.py` prints: a table, then the JSON line."""
    return "   NxD   wall_s ...\n" + json.dumps({"points": [
        {"n": n, "d": d, "wall_s": wall, "process_s": wall, "export_s": export,
         "trace_rows": rows, "peak_rss_mb": 20.0, "violation": None}
        for n, d, wall, export, rows in points]}) + "\n"


def test_grid_pairs_summarize_each_point_as_a_workload(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(bench_pairs.ROOT / "scripts"))
    # Per side, in pair order: 160x1's export falls, 40x8's wall time does not.
    canned = {"parent": [grid_output((160, 1, 0.20, 0.44, 1000), (40, 8, 0.30, 0.30, 800)),
                         grid_output((160, 1, 0.22, 0.46, 1000), (40, 8, 0.31, 0.28, 800)),
                         grid_output((160, 1, 0.21, 0.42, 1000), (40, 8, 0.29, 0.32, 800))],
              "change": [grid_output((160, 1, 0.21, 0.33, 1000), (40, 8, 0.33, 0.20, 800)),
                         grid_output((160, 1, 0.20, 0.34, 1000), (40, 8, 0.31, 0.21, 800)),
                         grid_output((160, 1, 0.23, 0.43, 1000), (40, 8, 0.32, 0.19, 800))]}
    sides = {"parent": "parent", "change": "change"}
    monkeypatch.setattr(bench_pairs, "run_side",
                        lambda checkout, args, timeout_s: canned[checkout].pop(0))
    args = type("Args", (), {"grid": [(160, 1, "max_power"), (40, 8, "max_power")],
                             "pairs": 3})()
    doc = bench_pairs.grid_pairs(args, sides)
    out = capsys.readouterr().out
    assert "grid pair 0 parent 160x1=0.200s export=0.440s" in out
    assert [p["export_s"] for p in doc["change"][2]] == [0.43, 0.19]
    summary = doc["summary"]
    assert list(summary) == ["160x1", "40x8"]
    assert list(summary["160x1"]) == ["wall_s", "process_s", "export_s"]
    export = summary["160x1"]["export_s"]
    assert (export["parent_median"], export["change_median"]) == (0.44, 0.34)
    assert (export["parent_q1"], export["parent_q3"]) == (0.43, 0.45)
    assert export["change_over_parent"] == round(0.34 / 0.44, 3)
    assert export["change_wins"] == "2/3"  # pair 2: 0.43 is not below 0.42
    assert summary["40x8"]["wall_s"]["change_wins"] == "0/3"
    assert summary["40x8"]["export_s"]["change_wins"] == "3/3"
    assert bench_pairs.format_summary(summary) in out


def test_grid_pairs_stop_when_the_trace_rows_differ(monkeypatch):
    monkeypatch.syspath_prepend(str(bench_pairs.ROOT / "scripts"))
    canned = {"parent": [grid_output((160, 1, 0.2, 0.4, 1000))],
              "change": [grid_output((160, 1, 0.2, 0.3, 999))]}
    monkeypatch.setattr(bench_pairs, "run_side",
                        lambda checkout, args, timeout_s: canned[checkout].pop(0))
    args = type("Args", (), {"grid": [(160, 1, "max_power")], "pairs": 1})()
    with pytest.raises(bench_pairs.Mismatch):
        bench_pairs.grid_pairs(args, {"parent": "parent", "change": "change"})


def test_compile_sides_writes_bytecode_that_a_run_imports(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    sides = {side: tmp_path / side for side in ("parent", "change")}
    for checkout in sides.values():
        for part in ("src", "perfbench"):
            (checkout / part).mkdir(parents=True)
            (checkout / part / f"{part}_mod.py").write_text("VALUE = 1\n")
    bench_pairs.compile_sides(sides)
    for checkout in sides.values():
        assert len(list((checkout / "perfbench" / "__pycache__").glob("perfbench_mod.*.pyc"))) == 1
        # A source of the same size and mtime passes the bytecode's check, so
        # a run that reads the bytecode prints the compiled value.
        source = checkout / "src" / "src_mod.py"
        stat = source.stat()
        source.write_text("VALUE = 2\n")
        os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        out = bench_pairs.run_side(checkout, ["-c", "import sys; sys.path[:0] = ['src']; "
                                              "import src_mod; print(src_mod.VALUE)"], 60)
        assert out == "1\n"
