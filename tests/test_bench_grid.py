import importlib.util
from pathlib import Path

from dssm.scenario import scenario_from_json

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_grid.py"


def load_bench_grid():
    spec = importlib.util.spec_from_file_location("bench_grid", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_grid_point_is_a_valid_scenario():
    grid = load_bench_grid()
    for n, d in grid.GRID:
        scenario = scenario_from_json(grid.grid_doc(n, d))
        scenario.validate()
        assert len(scenario.node_specs) == n * d
        assert len(scenario.script) == n * d


def test_smallest_grid_point_runs_clean():
    point = load_bench_grid().run_point(10, 1)
    assert point["violation"] is None
    assert point["trace_rows"] > 0
