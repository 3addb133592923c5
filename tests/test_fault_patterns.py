"""The protocol's promises over every small fault pattern, not over sampled
seeds: each run drops exactly the chosen lossy attempts (ScriptedDraws)."""

import pytest

from conftest import ScriptedDraws, drop_patterns
from dssm.scenario import AssertionFailure, ScenarioWorld, scenario_from_json

# Every attempt before this instant is delivered.
FAULTS_FROM_MS = 1000.0
CHECK_AT_MS = 6000.0
ATTEMPTS, MOST_DROPS = 24, 3


def three_nodes(policy):
    """One domain of three nodes at 2000, 3000 and 3000 MHz, joining 25 ms
    apart, with 200 ms heartbeats and a 600 ms timeout. The intra-domain link
    is lossy, so every heartbeat attempt is a choice point; the inter-domain
    link is lossless."""
    powers = {1: 2000.0, 2: 3000.0, 3: 3000.0}
    return scenario_from_json({
        "name": "three_nodes", "seed": 0,
        "intra_domain_link": {"delay_ms": 1.0, "drop_probability": 0.5, "bandwidth_mbps": 100.0},
        "inter_domain_link": {"delay_ms": 20.0, "drop_probability": 0.0, "bandwidth_mbps": 100.0},
        "params": {"accept_window_ms": 20.0, "heartbeat_period_ms": 200.0,
                   "failure_timeout_ms": 600.0, "response_window_ms": 100.0},
        "election_policy": policy,
        "nodes": [{"id": nid, "domain": 1, "ip": f"10.0.1.{nid}", "capacity_mb": 1024.0,
                   "power_mhz": power} for nid, power in powers.items()],
        "script": [{"time_ms": 25.0 * i, "action": "join", "node": nid}
                   for i, nid in enumerate(powers)]
                  + [{"time_ms": CHECK_AT_MS, "action": "assert_quiescent_consistency"}],
    })


# max_power is left out: some patterns of three drops leave its members
# disagreeing on the agent for good (ROADMAP, item 1).
@pytest.mark.parametrize("policy", ["lowest_id", "highest_connectivity"])
def test_every_pattern_of_up_to_three_drops_is_consistent_at_six_seconds(policy):
    world_scenario = three_nodes(policy)
    runs, violations = 0, {}
    for drops in drop_patterns(ATTEMPTS, MOST_DROPS):
        world = ScenarioWorld(world_scenario)
        draws = world.net.rng = ScriptedDraws(world.net, FAULTS_FROM_MS, drops)
        try:
            world.run()
        except AssertionFailure as exc:
            violations[drops] = str(exc)
        # Each chosen attempt took place, so the pattern is the run's faults.
        assert draws.attempts >= ATTEMPTS
        runs += 1
    assert runs == 2325
    assert violations == {}
