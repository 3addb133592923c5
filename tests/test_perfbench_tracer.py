"""The traced benchmark still wraps the program: `perfbench/tracer.py`
replaces named functions and methods of dssm, so one that a refactor
renames or drops makes `Tracer.install` fail. Run in a subprocess, since
installing the tracer rebinds names for the whole process."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import dssm
from tracer import Tracer
from dssm.scenario import bundled_scenario_path, load_scenario, run_scenario

tracer = Tracer()
tracer.install(dssm)
"""


def _traced(body: str) -> str:
    """The standard output of `body` run after the tracer is installed."""
    done = subprocess.run(
        [sys.executable, "-c", TRACED + body, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_traced_bundled_scenario_runs():
    out = _traced("""
run_scenario(load_scenario(bundled_scenario_path("two_domain")))
print(len(tracer.spans))
""")
    assert int(out) > 0


def test_the_tracer_sees_every_unicast():
    # Every unicast passes the wrapped send_unicast, a take's replies
    # included, so the tracer counts one attempt per unicast send row.
    out = _traced("""
trace = run_scenario(load_scenario(bundled_scenario_path("churn50"))).trace
sends = sum(row.kind == "send" and not row.dst.startswith(("domain", "virtual"))
            for row in trace)
print(tracer.counts["simnet.unicast.attempts"], sends)
""")
    attempts, sends = map(int, out.split())
    assert sends > 0
    assert attempts == sends
