from conftest import load_script
from dssm.scenario import scenario_from_json

bench_grid = load_script("bench_grid")


def test_every_grid_point_is_a_valid_scenario():
    for n, d in bench_grid.GRID:
        scenario = scenario_from_json(bench_grid.grid_doc(n, d))
        scenario.validate()
        assert len(scenario.node_specs) == n * d
        assert len(scenario.script) == n * d


def test_smallest_grid_point_runs_clean():
    point = bench_grid.run_point(10, 1)
    assert point["violation"] is None
    assert point["trace_rows"] > 0
