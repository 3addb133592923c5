"""The traced benchmark still wraps the program: `perfbench/tracer.py`
replaces named functions and methods of dssm, so one that a refactor
renames or drops makes `Tracer.install` fail. Run in a subprocess, since
installing the tracer rebinds names for the whole process."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import dssm
from tracer import Tracer
from dssm.scenario import bundled_scenario_path, load_scenario, run_scenario

tracer = Tracer()
tracer.install(dssm)
run_scenario(load_scenario(bundled_scenario_path("two_domain")))
print(len(tracer.spans))
"""


def test_traced_bundled_scenario_runs():
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0
