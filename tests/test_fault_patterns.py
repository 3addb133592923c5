"""The protocol's promises over every small fault pattern, not over sampled
seeds: each run drops exactly the chosen lossy attempts (ScriptedDraws)."""

import pytest

from conftest import ScriptedDraws, drop_patterns
from dssm.membership import GosNode
from dssm.scenario import AssertionFailure, ScenarioWorld, scenario_from_json

# Every attempt before this instant is delivered.
FAULTS_FROM_MS = 1000.0
CHECK_AT_MS = 6000.0
ATTEMPTS, MOST_DROPS = 24, 3


def one_domain(name, powers, policy, intra_drop, script=()):
    """One domain of nodes at the given powers (id -> MHz), joining 25 ms
    apart in id order, with 200 ms heartbeats and a 600 ms timeout, and
    checked at CHECK_AT_MS. The inter-domain link is lossless."""
    return scenario_from_json({
        "name": name, "seed": 0,
        "intra_domain_link": {"delay_ms": 1.0, "drop_probability": intra_drop,
                              "bandwidth_mbps": 100.0},
        "inter_domain_link": {"delay_ms": 20.0, "drop_probability": 0.0, "bandwidth_mbps": 100.0},
        "params": {"accept_window_ms": 20.0, "heartbeat_period_ms": 200.0,
                   "failure_timeout_ms": 600.0, "response_window_ms": 100.0},
        "election_policy": policy,
        "nodes": [{"id": nid, "domain": 1, "ip": f"10.0.1.{nid}", "capacity_mb": 1024.0,
                   "power_mhz": power} for nid, power in powers.items()],
        "script": [{"time_ms": 25.0 * i, "action": "join", "node": nid}
                   for i, nid in enumerate(powers)]
                  + list(script)
                  + [{"time_ms": CHECK_AT_MS, "action": "assert_quiescent_consistency"}],
    })


def three_nodes(policy):
    """Three nodes at 2000, 3000 and 3000 MHz. The intra-domain link is
    lossy, so every heartbeat attempt is a choice point."""
    return one_domain("three_nodes", {1: 2000.0, 2: 3000.0, 3: 3000.0}, policy, intra_drop=0.5)


# Under max_power four patterns of three drops leave the members disagreeing
# on the agent for good, (2, 8, 14) among them (the reproducers below).
@pytest.mark.parametrize("policy", [
    pytest.param("max_power", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="ROADMAP item 1")),
    "lowest_id", "highest_connectivity"])
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


# The join ramp: faults from 0 ms, over the first 40 attempts. Under
# max_power 42 of the 821 patterns fail with agent-disagreement, the
# single drop (10,) among them: {1: 2, 2: 2, 3: 3} at six seconds.
@pytest.mark.parametrize("policy", [
    pytest.param("max_power", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="ROADMAP item 1")),
    "lowest_id", "highest_connectivity"])
def test_every_pattern_of_up_to_two_drops_in_the_join_ramp_is_consistent(policy):
    world_scenario = three_nodes(policy)
    runs, violations = 0, {}
    for drops in drop_patterns(40, 2):
        world = ScenarioWorld(world_scenario)
        draws = world.net.rng = ScriptedDraws(world.net, 0.0, drops)
        try:
            world.run()
        except AssertionFailure as exc:
            violations[drops] = str(exc)
        assert draws.attempts >= 40
        runs += 1
    assert runs == 821
    assert violations == {}


def _outputs(world_scenario, drops):
    """Trace rows, metrics and any assertion text of one run of the pattern."""
    world = ScenarioWorld(world_scenario)
    world.net.rng = ScriptedDraws(world.net, FAULTS_FROM_MS, drops)
    try:
        world.run()
    except AssertionFailure as exc:
        return list(world.net.trace), world.metrics, str(exc)
    return list(world.net.trace), world.metrics, None


@pytest.mark.parametrize("policy", ["max_power", "lowest_id", "highest_connectivity"])
def test_absorb_changes_no_run_output_under_any_pattern_of_up_to_two_drops(monkeypatch, policy):
    # The same runs with GosNode.absorb deleted send every delivery through
    # on_message, so no node reads a heard board.
    world_scenario, patterns = three_nodes(policy), list(drop_patterns(ATTEMPTS, 2))
    absorb, taken = GosNode.absorb, []

    def counted(node, net, recipients, msg):
        took = absorb(node, net, recipients, msg)
        taken.append(took is not None)
        return took

    monkeypatch.setattr(GosNode, "absorb", counted)
    batched = [_outputs(world_scenario, drops) for drops in patterns]
    monkeypatch.delattr(GosNode, "absorb")
    one_by_one = [_outputs(world_scenario, drops) for drops in patterns]
    assert len(patterns) == 301 and any(taken)
    assert [drops for drops, a, b in zip(patterns, batched, one_by_one) if a != b] == []


# MAX_POWER keeps the incumbent on a power tie, and nothing repairs members
# whose beliefs drifted apart. Each reproducer fails today; the change that
# mends it drops the mark.
ITEM_1 = pytest.mark.xfail(strict=True, raises=AssertionFailure, reason="ROADMAP item 1")


def three_heartbeats_lost_on_one_link():
    # Pattern (2, 8, 14): node 2's heartbeats to node 1 at 1045, 1245 and
    # 1445 ms. Node 1 times node 2 out and elects node 3, then keeps node 3
    # on the power tie once node 2 is heard again: {1: 3, 2: 2, 3: 2}.
    world = ScenarioWorld(three_nodes("max_power"))
    world.net.rng = ScriptedDraws(world.net, FAULTS_FROM_MS, (2, 8, 14))
    return world


def two_second_partition():
    # Every intra-domain attempt drops from 1 s to 3 s: {1: 2, 2: 2, 3: 3,
    # 4: 2, 5: 2}.
    powers = {1: 2000.0, 2: 3000.0, 3: 3000.0, 4: 2000.0, 5: 2000.0}
    return ScenarioWorld(one_domain(
        "five_nodes", powers, "max_power", intra_drop=0.0,
        script=[{"time_ms": t, "action": "set_link", "scope": "intra", "drop_probability": p}
                for t, p in ((1000.0, 1.0), (3000.0, 0.0))]))


# The reproducers' worlds, before they run.
REPRODUCERS = (three_heartbeats_lost_on_one_link, two_second_partition)


@ITEM_1
def test_max_power_agrees_after_three_heartbeats_lost_on_one_link():
    three_heartbeats_lost_on_one_link().run()


@ITEM_1
def test_max_power_agrees_after_a_two_second_partition():
    two_second_partition().run()
