import json
import os

import pytest

from conftest import load_script

bench_pairs = load_script("bench_pairs")
BETTER = {"wall_s_per_sim_s": "lower", "events_per_s": "higher"}


def final_line(wall, events):
    """A workload's final JSON line, with every end-to-end metric."""
    return {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {"wall_s_per_sim_s": {"value": wall, "unit": "s/s"},
                        "events_per_s": {"value": events, "unit": "1/s"},
                        "setup_s": {"value": 0.05, "unit": "s"},
                        "export_s": {"value": 0.2, "unit": "s"},
                        "peak_rss_mb": {"value": 30.0, "unit": "MB"}}}


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
    checked, finals = bench_pairs.parse_run(run_output(0.01, 2e6))
    assert checked == {"bundled": {"churn50": "pass  trace 11 metrics 22"},
                       "hb_dense": {"trace_sha256": "aa", "metrics_sha256": "bb",
                                    "ops_attempted": "4", "ops_failed": "0  {}"}}
    assert finals == {"hb_dense": final_line(0.01, 2e6)}


@pytest.mark.parametrize("change", [{"trace_sha": "ab"}, {"failed": "1  {\"check\": 1}"}])
def test_check_same_fails_on_a_changed_digest_or_operation_count(change):
    parent, _ = bench_pairs.parse_run(run_output(0.01, 2e6))
    bench_pairs.check_same(parent, bench_pairs.parse_run(run_output(0.02, 1e6))[0], "same")
    with pytest.raises(bench_pairs.Mismatch):
        bench_pairs.check_same(parent, bench_pairs.parse_run(run_output(0.01, 2e6, **change))[0],
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
    """What `scripts/bench_grid.py` prints: a table, then the JSON line. The
    scaled figures are the raw ones on a host at half the reference speed."""
    return "   NxD   wall_s ...\n" + json.dumps({"points": [
        {"n": n, "d": d, "wall_s": wall, "process_s": wall, "export_s": export,
         "ref_s": 0.008, "scaled_wall_s": wall / 2, "scaled_export_s": export / 2,
         "trace_rows": rows, "peak_rss_mb": 20.0, "violation": None}
        for n, d, wall, export, rows in points]}) + "\n"


def canned_sides(monkeypatch, canned):
    """Sides whose runs print, in turn, the outputs `canned` lists for them."""
    monkeypatch.setattr(bench_pairs, "run_side",
                        lambda checkout, args, timeout_s: canned[checkout].pop(0))
    return {"parent": "parent", "change": "change"}


def bench_args(pairs, trace_pairs=0):
    return type("Args", (), {"pairs": pairs, "trace_pairs": trace_pairs, "seed": 5,
                             "seconds": 2.0, "parent_commit": "8010a60"})()


def test_sides_that_differ_stop_at_pair_0_while_the_goldens_agree(monkeypatch):
    sides = canned_sides(monkeypatch, {"parent": [run_output(0.01, 2e6)],
                                       "change": [run_output(0.01, 2e6, trace_sha="ab")]})
    with pytest.raises(bench_pairs.Mismatch) as info:
        bench_pairs.bench_pairs(bench_args(1), sides, False)
    assert str(info.value) == ("change run of pair 0 differs from the first parent run:\n"
                               "  hb_dense trace_sha256: aa != ab")


def test_when_the_goldens_differ_the_document_holds_both_sides(monkeypatch, capsys):
    # Two plain pairs, then one traced pair; each side agrees with itself.
    canned = {"parent": [run_output(wall, 2e6) for wall in (0.010, 0.012, 0.011)],
              "change": [run_output(wall, 2e6, trace_sha="ab", failed="1  {}")
                         for wall in (0.008, 0.009, 0.007)]}
    outputs = {side: bench_pairs.parse_run(runs[0])[0] for side, runs in canned.items()}
    sides = canned_sides(monkeypatch, canned)
    doc = bench_pairs.bench_pairs(bench_args(2, trace_pairs=1), sides, True)
    assert doc["checked_outputs"] == outputs
    assert outputs["parent"]["hb_dense"]["trace_sha256"] == "aa"
    assert outputs["change"]["hb_dense"]["ops_failed"] == "1  {}"
    assert [line["metrics"]["wall_s_per_sim_s"]["value"]
            for line in doc["change"]["final_json_lines"]["hb_dense"]] == [0.008, 0.009]
    assert doc["traced"]["final_json_lines"]["parent"]["hb_dense"][0] == final_line(0.011, 2e6)
    wall = doc["end_to_end_summary"]["hb_dense"]["wall_s_per_sim_s"]
    assert (wall["parent_median"], wall["change_median"], wall["change_wins"]) == (
        0.011, 0.0085, "2/2")
    out = capsys.readouterr().out
    assert "pair 0 parent hb_dense=0.01\npair 0 change hb_dense=0.008\n" in out
    assert "pair 1 change hb_dense=0.009\npair 1 parent hb_dense=0.012\n" in out


@pytest.mark.parametrize("differ", [False, True])
def test_a_side_whose_own_runs_disagree_stops_under_either_rule(monkeypatch, differ):
    # When the goldens differ the change keeps its own trace; its second run
    # changes an operation count.
    sha = "ab" if differ else "aa"
    sides = canned_sides(monkeypatch, {
        "parent": [run_output(0.01, 2e6)] * 2,
        "change": [run_output(0.01, 2e6, trace_sha=sha),
                   run_output(0.01, 2e6, trace_sha=sha, failed="1  {}")]})
    against = "change" if differ else "parent"
    with pytest.raises(bench_pairs.Mismatch) as info:
        bench_pairs.bench_pairs(bench_args(2), sides, differ)
    assert str(info.value) == (f"change run of pair 1 differs from the first {against} run:\n"
                               "  hb_dense ops_failed: 0  {} != 1  {}")


@pytest.mark.parametrize("parent, change, differ", [
    ("{}\n", "{}\n", False), ("{}\n", "{}", True), (None, "{}\n", True), ("{}\n", None, True)])
def test_goldens_differ_compares_the_golden_files_byte_for_byte(tmp_path, parent, change,
                                                                differ):
    sides = {side: tmp_path / side for side in ("parent", "change")}
    for side, text in (("parent", parent), ("change", change)):
        if text is not None:
            golden = sides[side] / bench_pairs.GOLDENS
            golden.parent.mkdir(parents=True)
            golden.write_text(text)
    assert bench_pairs.goldens_differ(sides) is differ


def test_grid_pairs_summarize_each_point_as_a_workload(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(bench_pairs.ROOT / "scripts"))
    # Per side, in pair order: 160x1's export falls, 40x8's wall time does not.
    sides = canned_sides(monkeypatch, {
        "parent": [grid_output((160, 1, 0.20, 0.44, 1000), (40, 8, 0.30, 0.30, 800)),
                   grid_output((160, 1, 0.22, 0.46, 1000), (40, 8, 0.31, 0.28, 800)),
                   grid_output((160, 1, 0.21, 0.42, 1000), (40, 8, 0.29, 0.32, 800))],
        "change": [grid_output((160, 1, 0.21, 0.33, 1000), (40, 8, 0.33, 0.20, 800)),
                   grid_output((160, 1, 0.20, 0.34, 1000), (40, 8, 0.31, 0.21, 800)),
                   grid_output((160, 1, 0.23, 0.43, 1000), (40, 8, 0.32, 0.19, 800))]})
    args = type("Args", (), {"grid": [(160, 1, "max_power"), (40, 8, "max_power")],
                             "pairs": 3})()
    doc = bench_pairs.grid_pairs(args, sides, False)
    out = capsys.readouterr().out
    assert "pair 0 parent 160x1=0.2 40x8=0.3\n" in out
    assert [doc["change"][point][2]["metrics"]["export_s"]["value"]
            for point in ("160x1", "40x8")] == [0.43, 0.19]
    assert doc["checked_outputs"]["change"] == {
        "160x1": {"trace_rows": 1000, "violation": None},
        "40x8": {"trace_rows": 800, "violation": None}}
    summary = doc["summary"]
    assert list(summary) == ["160x1", "40x8"]
    assert list(summary["160x1"]) == ["wall_s", "process_s", "export_s", "scaled_wall_s",
                                      "scaled_export_s"]
    scaled = summary["160x1"]["scaled_export_s"]
    assert (scaled["parent_median"], scaled["change_median"]) == (0.22, 0.17)
    assert scaled["change_wins"] == "2/3"
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
    sides = canned_sides(monkeypatch, {"parent": [grid_output((160, 1, 0.2, 0.4, 1000))],
                                       "change": [grid_output((160, 1, 0.2, 0.3, 999))]})
    args = type("Args", (), {"grid": [(160, 1, "max_power")], "pairs": 1})()
    with pytest.raises(bench_pairs.Mismatch, match="160x1 trace_rows: 1000 != 999"):
        bench_pairs.grid_pairs(args, sides, False)


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
