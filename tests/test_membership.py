import itertools
import json
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import PARAMS, World, load_script
from dssm import election, membership
from dssm.core import (NO_NODE, Ait, Message, MessageKind, message_size_bytes,
                       transit_size_bytes)
from dssm.election import ElectionPolicy
from dssm.membership import (AlreadyMember, GosNode, HeardBoard, NotMember, Phase,
                             ProtocolParams)
from dssm.metrics import export_metrics
from dssm.scenario import (AssertionFailure, BUNDLED_SCENARIOS, ScenarioWorld,
                           bundled_scenario_path, scenario_from_json)
from dssm.simnet import LinkConfig, export_trace

update_goldens = load_script("update_goldens")

THREE = [(1, 1, 1024.0, 2800.0), (2, 1, 1024.0, 2800.0), (3, 1, 1024.0, 2800.0)]


def test_first_node_of_empty_domain_becomes_agent():
    w = World([(1, 1, 1024.0, 2800.0)])
    w.join(1, at=0.0)
    w.settle(100.0)
    node = w.nodes[1]
    assert node.phase is Phase.MEMBER
    assert node.agent == 1
    assert node.ait.ids() == {1}
    assert w.delivers() == []  # nobody to talk to: no peer traffic at all


def test_joiner_collects_accepts():
    w = World(THREE)
    w.join(1, at=0.0)
    w.join(2, at=100.0)
    w.settle(200.0)
    w.join(3, at=200.0)
    w.settle(400.0)
    assert len(w.sends("ACCEPT")) == 1 + 2  # one for node 2's join, two for node 3's
    for node in w.nodes.values():
        assert node.phase is Phase.MEMBER
        assert node.ait.ids() == {1, 2, 3}


def test_join_while_member_raises():
    w = World(THREE)
    w.join(1, at=0.0)
    w.settle(100.0)
    with pytest.raises(AlreadyMember):
        w.nodes[1].initiate_join(w.net)


def test_duplicate_join_reaccepted_without_growth():
    w = World(THREE)
    w.join_all()
    w.settle(500.0)
    accepts_before = len(w.sends("ACCEPT"))
    size_before = len(w.nodes[1].ait)
    # replay node 2's JOIN at node 1
    w.nodes[1].on_message(w.net, Message(MessageKind.JOIN, w.nodes[2].self_entry))
    assert len(w.nodes[1].ait) == size_before
    assert len(w.sends("ACCEPT")) == accepts_before + 1


def test_join_received_while_joining_is_ignored():
    w = World(THREE)
    w.join(1, at=0.0)
    joiner = w.nodes[1]
    assert joiner.phase is Phase.JOINING
    joiner.on_message(w.net, Message(MessageKind.JOIN, w.nodes[2].self_entry))
    assert joiner.ait.ids() == {1}


def test_nonagent_leave_shrinks_aits_keeps_agent():
    w = World([(1, 1, 100.0, 2800.0), (2, 1, 100.0, 2660.0), (3, 1, 100.0, 2660.0)])
    w.join_all()
    w.settle(500.0)
    assert all(n.agent == 1 for n in w.members())
    w.leave(3, at=500.0)
    w.settle(600.0)
    for node in w.members():
        assert node.ait.ids() == {1, 2}
        assert node.agent == 1
    assert w.nodes[3].phase is Phase.LEFT
    assert len(w.nodes[3].ait) == 0
    assert w.nodes[3].agent == 0


def test_agent_leave_triggers_reelection():
    w = World([(1, 1, 100.0, 2800.0), (2, 1, 100.0, 2660.0), (3, 1, 100.0, 2500.0)])
    w.join_all()
    w.settle(500.0)
    w.leave(1, at=500.0)
    w.settle(600.0)
    for node in w.members():
        assert node.ait.ids() == {2, 3}
        assert node.agent == 2  # highest power among the remainder


def test_leave_while_offline_raises():
    w = World(THREE)
    with pytest.raises(NotMember):
        w.nodes[1].initiate_leave(w.net)


def test_unknown_leaver_is_noop(monkeypatch):
    # Node 3 never joined, so member 1 has never heard it: no election, no record.
    w = World(THREE)
    w.join(1, at=0.0)
    w.settle(100.0)
    before = Ait(w.nodes[1].ait.entries())
    elections = []
    monkeypatch.setattr(election, "reevaluate_agent",
                        lambda node, net, evidence_ms=None: elections.append(node.node_id))
    w.nodes[1].on_message(w.net, Message(MessageKind.LEAVE, w.nodes[3].self_entry))
    assert w.nodes[1].ait == before
    assert elections == [] and w.nodes[1]._own == {}
    assert 3 not in w.net.heard_boards[1].pinned


def test_a_repeated_leave_runs_no_second_election(monkeypatch):
    w = World(THREE)
    w.join_all()
    w.settle(500.0)
    w.leave(3, at=500.0)
    w.settle(600.0)
    own = dict(w.nodes[1]._own)
    elections = []
    monkeypatch.setattr(election, "reevaluate_agent",
                        lambda node, net, evidence_ms=None: elections.append(node.node_id))
    w.nodes[1].on_message(w.net, Message(MessageKind.LEAVE, w.nodes[3].self_entry))
    assert elections == [] and w.nodes[1]._own == own


def test_no_resurrection_until_rejoin():
    w = World(THREE)
    w.join_all()
    w.settle(500.0)
    w.leave(2, at=500.0)
    w.settle(2000.0)  # many heartbeat periods
    assert all(n.ait.ids() == {1, 3} for n in w.members())
    w.nodes[2].reset_offline()
    w.join(2, at=2000.0)
    w.settle(2500.0)
    assert all(n.ait.ids() == {1, 2, 3} for n in w.members())


def test_heartbeat_propagates_capacity_change():
    w = World(THREE)
    w.join_all()
    w.settle(500.0)
    w.nodes[1].adjust_capacity(-512.0)
    assert w.nodes[1].self_entry.storage_capacity_mb == 512.0
    w.settle(500.0 + 2 * PARAMS.heartbeat_period_ms)
    for node in w.members():
        assert node.ait.get(1).storage_capacity_mb == 512.0


def test_heartbeats_carry_the_entry_of_their_send_time(monkeypatch):
    # Six settled members; node 3 allocates between two of its ticks and
    # releases between the next two. Its ticks fall at 120 + 200k ms.
    w = World([(nid, 1, 1024.0, 2800.0) for nid in range(1, 7)])
    w.join_all()
    w.settle(1000.0)
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[0])
        return Message(*args, **kwargs)

    monkeypatch.setattr(membership, "Message", counted)
    send = w.net.send_multicast

    def checked_send(src, group, msg):
        assert msg.sender is w.nodes[src].self_entry
        send(src, group, msg)

    monkeypatch.setattr(w.net, "send_multicast", checked_send)
    w.settle(1200.0)
    assert builds == []  # a settled heartbeat period builds no message
    node = w.nodes[3]
    for tick, delta in ((1320.0, -512.0), (1520.0, 512.0), (1720.0, 0.0)):
        if delta:
            w.settle(tick - 50.0)
            node.adjust_capacity(delta)
        w.settle(tick + 5.0)
        for peer in w.members():
            assert peer.ait.get(3) is node.self_entry
    assert builds == [MessageKind.HEARTBEAT] * 2


def test_crashed_peer_removed_within_bound():
    w = World(THREE)
    w.join_all()
    w.settle(1000.0)
    w.crash(2, at=1000.0)
    last_hb = max(r.time_ms for r in w.sends("HEARTBEAT", src=2))
    bound = (last_hb + PARAMS.heartbeat_period_ms + PARAMS.failure_timeout_ms
             + w.net.intra_link.transit_ms(33))
    w.settle(bound + 0.001)
    for node in w.members():
        assert 2 not in node.ait
        assert 2 not in node.last_heard_ms


def test_crashed_agent_replaced():
    w = World([(1, 1, 100.0, 2800.0), (2, 1, 100.0, 2660.0), (3, 1, 100.0, 2500.0)])
    w.join_all()
    w.settle(1000.0)
    assert all(n.agent == 1 for n in w.members())
    w.crash(1, at=1000.0)
    w.settle(1000.0 + PARAMS.heartbeat_period_ms + PARAMS.failure_timeout_ms + 10.0)
    for node in w.members():
        assert node.ait.ids() == {2, 3}
        assert node.agent == 2


def test_healthy_domain_never_removes():
    w = World(THREE)
    w.join_all()
    w.settle(10_000.0)  # ~50 heartbeat periods
    for node in w.members():
        assert node.ait.ids() == {1, 2, 3}


def test_total_loss_removes_everyone():
    w = World(THREE)
    w.join_all()
    w.settle(500.0)
    lossy = LinkConfig(delay_ms=1.0, drop_probability=1.0, bandwidth_mbps=100.0)
    w.net.intra_link = lossy
    w.net.inter_link = lossy
    w.settle(500.0 + PARAMS.failure_timeout_ms + 2 * PARAMS.heartbeat_period_ms)
    for node in w.members():
        assert node.ait.ids() == {node.node_id}
        assert node.agent == node.node_id


def test_late_accept_treated_as_update():
    # Accept window shorter than the link delay: ACCEPTs land after the
    # deadline and are folded in as ordinary AIT updates.
    slow = LinkConfig(delay_ms=30.0, drop_probability=0.0, bandwidth_mbps=100.0)
    params = ProtocolParams(accept_window_ms=20.0, heartbeat_period_ms=200.0,
                            failure_timeout_ms=600.0, response_window_ms=100.0)
    w = World(THREE, intra=slow, params=params)
    w.join(1, at=0.0)
    w.join(2, at=100.0)
    w.settle(121.0)  # node 2's deadline passed, ACCEPT still in flight
    assert w.nodes[2].phase is Phase.MEMBER
    assert w.nodes[2].ait.ids() == {2}
    w.settle(200.0)
    assert w.nodes[2].ait.ids() == {1, 2}


def test_rejoin_after_crash_via_reset():
    w = World(THREE)
    w.join_all()
    w.settle(1000.0)
    w.crash(3, at=1000.0)
    w.settle(2000.0)
    w.net.revive(3)
    w.nodes[3].reset_offline()
    w.join(3, at=2000.0)
    w.settle(2500.0)
    assert all(n.ait.ids() == {1, 2, 3} for n in w.members())


def test_fifty_cycle_churn_converges():
    w = World(THREE)
    w.join_all(start=0.0, gap=50.0)
    w.settle(1000.0)
    t = 1000.0
    for cycle in range(50):
        victim = (cycle % 3) + 1
        w.leave(victim, at=t)
        t += 200.0
        w.nodes[victim].reset_offline()
        w.join(victim, at=t)
        t += 800.0
        w.settle(t)
        live = w.members()
        assert len(live) == 3
        key_sets = {frozenset(n.ait.ids()) for n in live}
        assert key_sets == {frozenset({1, 2, 3})}, f"cycle {cycle}: {key_sets}"
        agents = {n.agent for n in live}
        assert len(agents) == 1, f"cycle {cycle}: {agents}"


def test_convergence_after_random_staggered_churn():
    rng = random.Random(1234)
    for trial in range(20):
        w = World(THREE, seed=trial)
        w.join_all()
        w.settle(500.0)
        t = 500.0
        alive = {1, 2, 3}
        for _ in range(rng.randint(1, 8)):
            t += rng.choice([150.0, 250.0, 400.0])
            if len(alive) > 1 and rng.random() < 0.5:
                victim = rng.choice(sorted(alive))
                w.leave(victim, at=t)
                alive.discard(victim)
            else:
                offline = {1, 2, 3} - alive
                if not offline:
                    continue
                joiner = rng.choice(sorted(offline))
                w.nodes[joiner].reset_offline()
                w.join(joiner, at=t)
                alive.add(joiner)
        w.settle(t + PARAMS.heartbeat_period_ms + PARAMS.failure_timeout_ms + 100.0)
        live = w.members()
        assert {n.node_id for n in live} == alive
        for node in live:
            assert node.ait.ids() == alive, f"trial {trial}"
        assert len({n.agent for n in live}) == 1, f"trial {trial}"


def test_member_ait_always_contains_self():
    w = World(THREE)
    w.join_all()
    w.settle(500.0)
    for node in w.members():
        assert node.node_id in node.ait
        entry = node.ait.get(node.node_id)
        assert entry == node.self_entry


def test_accept_outside_join_ignored():
    w = World(THREE)
    node = w.nodes[1]
    node.on_message(w.net, Message(MessageKind.ACCEPT, w.nodes[2].self_entry))
    assert len(node.ait) == 0
    assert node.phase is Phase.OFFLINE


def _node_in(phase):
    """Node 1 (2660 MHz) in `phase`; when a member it is alone and its own agent."""
    w = World([(1, 1, 1024.0, 2660.0), (2, 1, 1024.0, 2800.0), (3, 1, 1024.0, 2500.0)])
    if phase is not Phase.OFFLINE:
        w.join(1, at=0.0)
    if phase in (Phase.MEMBER, Phase.LEFT):
        w.settle(100.0)
    if phase is Phase.LEFT:
        w.leave(1)
    assert w.nodes[1].phase is phase
    return w


J, A, H, N = (MessageKind.JOIN, MessageKind.ACCEPT, MessageKind.HEARTBEAT,
              MessageKind.AGENT_ANNOUNCE)


# (phase, kind, sender, learned, unicasts node 1 sends back, node 1's agent after)
# Sender 2 outpowers node 1, sender 3 does not. RESENT is node 2 after node 1
# has learned it from a HEARTBEAT, now sending its entry with only the
# capacity changed.
RESENT = "2-capacity"
PEER_TABLE = [
    (Phase.OFFLINE, J, 2, False, [], 0),
    (Phase.OFFLINE, A, 2, False, [], 0),
    (Phase.OFFLINE, H, 2, False, [], 0),
    (Phase.OFFLINE, N, 2, False, [], 0),
    (Phase.JOINING, J, 2, False, [], 0),
    (Phase.JOINING, A, 2, True, [], 0),
    (Phase.JOINING, H, 2, True, [], 0),
    (Phase.JOINING, N, 2, True, [], 2),
    (Phase.JOINING, N, 3, True, [], 3),
    (Phase.MEMBER, J, 2, True, ["ACCEPT"], 2),
    (Phase.MEMBER, A, 2, True, [], 2),
    (Phase.MEMBER, H, 2, True, [], 2),
    (Phase.MEMBER, N, 2, True, [], 2),
    (Phase.MEMBER, J, 3, True, ["ACCEPT", "AGENT_ANNOUNCE"], 1),
    (Phase.MEMBER, A, 3, True, [], 1),
    (Phase.MEMBER, H, 3, True, [], 1),
    (Phase.MEMBER, N, 3, True, [], 1),
    (Phase.JOINING, A, RESENT, True, [], 0),
    (Phase.JOINING, H, RESENT, True, [], 0),
    (Phase.MEMBER, J, RESENT, True, ["ACCEPT"], 2),
    (Phase.MEMBER, A, RESENT, True, [], 2),
    (Phase.MEMBER, H, RESENT, True, [], 2),
    (Phase.MEMBER, N, RESENT, True, [], 2),
    (Phase.LEFT, J, 2, False, [], 0),
    (Phase.LEFT, A, 2, False, [], 0),
    (Phase.LEFT, H, 2, False, [], 0),
    (Phase.LEFT, N, 2, False, [], 0),
]


PEER_IDS = [f"{p.value}-{k.name}-from{s}" for p, k, s, *_ in PEER_TABLE]


@pytest.mark.parametrize("phase,kind,sender,learned,replies,agent", PEER_TABLE, ids=PEER_IDS)
def test_peer_entry_handling(phase, kind, sender, learned, replies, agent):
    _check_peer_entry(phase, kind, sender, learned, replies, agent, "on_message")


@pytest.mark.parametrize("phase,kind,sender,learned,replies,agent", PEER_TABLE, ids=PEER_IDS)
def test_peer_entry_handling_through_the_network(phase, kind, sender, learned, replies, agent):
    # A unicast through the network loop: an entry of one recipient, written
    # as one record and handed straight to on_message, never to absorb.
    _check_peer_entry(phase, kind, sender, learned, replies, agent, "network")


def _check_peer_entry(phase, kind, sender, learned, replies, agent, via):
    w = _node_in(phase)
    node = w.nodes[1]
    if sender == RESENT:
        sender = 2
        node.on_message(w.net, Message(H, w.nodes[2].self_entry))
        entry = replace(w.nodes[2].self_entry, storage_capacity_mb=512.0)
    else:
        entry = w.nodes[sender].self_entry
    msg = Message(kind, entry)
    if via == "on_message":
        rows = len(w.net.trace)
        node.on_message(w.net, msg)
    else:
        w.net.send_unicast(sender, 1, msg)
        rows = len(w.net.trace)
        offered, absorb = [], GosNode.absorb

        def recorded(node, net, recipients, msg):
            offered.append(msg)
            return absorb(node, net, recipients, msg)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GosNode, "absorb", recorded)
            w.net.run_until(w.net.now + w.net.intra_link.transit_ms(message_size_bytes(kind)))
        assert not any(offer is msg for offer in offered)  # a unicast is never offered
        assert ("deliver", "1", kind.name) in {(r.kind, r.dst, r.msg_kind)
                                               for r in w.net.trace[rows:]}
    assert (sender in node.ait) is learned
    assert (sender in node.last_heard_ms) is learned
    if learned:
        assert node.ait.get(sender) == entry
    sent = [r for r in w.net.trace[rows:] if r.kind == "send"]
    assert [(r.msg_kind, r.dst) for r in sent] == [(k, str(sender)) for k in replies]
    assert node.agent == agent
    assert node.phase is phase


# (phase, node 2 still held, node 1's sends after, node 1's agent after). A
# joining node holds node 2 from an ACCEPT, a member from a HEARTBEAT.
LEAVE_TABLE = [
    (Phase.OFFLINE, False, [], 0),
    (Phase.JOINING, True, [], 0),
    (Phase.MEMBER, False, [("AGENT_ANNOUNCE", "domain1")], 1),
    (Phase.LEFT, False, [], 0),
]


@pytest.mark.parametrize("via", ["on_message", "network"])
@pytest.mark.parametrize("phase,held,sends,agent", LEAVE_TABLE,
                         ids=[p.value for p, *_ in LEAVE_TABLE])
def test_only_a_member_acts_on_a_leave(phase, held, sends, agent, via):
    w = _node_in(phase)
    node = w.nodes[1]
    if phase is Phase.JOINING:
        node.on_message(w.net, Message(A, w.nodes[2].self_entry))
    elif phase is Phase.MEMBER:
        node.on_message(w.net, Message(H, w.nodes[2].self_entry))
        assert node.agent == 2
    before = (node.ait.ids(), node.last_heard_ms, node.agent)
    rows = len(w.net.trace)
    leave = Message(MessageKind.LEAVE, w.nodes[2].self_entry)
    if via == "on_message":
        node.on_message(w.net, leave)
    else:
        w.net.send_multicast(2, 1, leave)
        w.net.run_until(w.net.now + w.net.intra_link.transit_ms(message_size_bytes(leave.kind)))
        assert ("deliver", "1", "LEAVE") in {(r.kind, r.dst, r.msg_kind)
                                             for r in w.net.trace[rows:]}
    assert (2 in node.ait) is held
    assert (2 in node.last_heard_ms) is held
    assert [(r.msg_kind, r.dst) for r in w.net.trace[rows:]
            if r.kind == "send" and r.src == "1"] == sends
    assert node.agent == agent
    assert node.phase is phase
    if phase is not Phase.MEMBER:
        assert (node.ait.ids(), node.last_heard_ms, node.agent) == before


MP, LI, HC = (ElectionPolicy.MAX_POWER, ElectionPolicy.LOWEST_ID,
              ElectionPolicy.HIGHEST_CONNECTIVITY)
# What settled member 5 (2660 MHz, alone and its own agent) hears in turn,
# as HEARTBEATs. Node 2 (2800 MHz) is first new, then unchanged, then
# changed in capacity, then in power. The newcomers are weaker (node 7,
# 2500 MHz), equal in power (node 6, 2660 MHz) and stronger (node 2): only
# node 2 beats node 5, on power and on id.
KNOWN = (2, 2, "capacity", "power")
REELECT_ROWS = [
    (MP, KNOWN, [1, 0, 0, 1], 5),
    (LI, KNOWN, [1, 0, 0, 1], 2),
    (HC, KNOWN, [1, 0, 0, 0], 2),
    (MP, (7,), [0], 5), (MP, (6,), [0], 5), (MP, (2,), [1], 2),
    (LI, (7,), [0], 5), (LI, (6,), [0], 5), (LI, (2,), [1], 2),
    (HC, (7,), [0], 5), (HC, (6,), [0], 5), (HC, (2,), [1], 2),
]


def _moves_election(node, entry, now):
    """`election.moves_election` on what member `node` holds when entry
    reaches it at `now`, read from its AIT and `last_heard_ms`."""
    agent = node.agent
    return election.moves_election(node.policy, node.ait.get(entry.node_id), entry,
                                   node.ait.get(agent), node.last_heard_ms.get(agent, now), now,
                                   node.params.failure_timeout_ms)


@pytest.mark.parametrize("policy,heard,expected,agent", REELECT_ROWS,
                         ids=[f"{p.value}-{'-'.join(map(str, h))}" for p, h, *_ in REELECT_ROWS])
def test_member_reelects_only_when_the_entry_moves_the_election(monkeypatch, policy, heard,
                                                               expected, agent):
    w = World([(5, 1, 1024.0, 2660.0), (2, 1, 1024.0, 2800.0), (6, 1, 1024.0, 2660.0),
               (7, 1, 1024.0, 2500.0)], policy=policy)
    w.join(5, at=0.0)
    w.settle(100.0)
    node, base = w.nodes[5], w.nodes[2].self_entry
    sent = {"capacity": replace(base, storage_capacity_mb=512.0),
            "power": replace(base, storage_capacity_mb=512.0, processing_power_mhz=2500.0)}
    calls = []
    real = election.select_agent
    monkeypatch.setattr(election, "select_agent",
                        lambda *args: calls.append(args) or real(*args))
    counts, derived = [], []
    for key in heard:
        entry = sent.get(key) or w.nodes[key].self_entry
        before = len(calls)
        derived.append(int(_moves_election(node, entry, w.net.now)))
        node.on_message(w.net, Message(H, entry))
        assert node.ait.get(entry.node_id) is entry
        counts.append(len(calls) - before)
    assert counts == expected == derived
    assert node.agent == agent


# Node 6's entry (2800 MHz) reaches member 5 (2660 MHz) new, or after a
# HEARTBEAT with it. The other newcomers are node 7 at 2500 MHz and node 2
# at 3000 MHz: node 6 beats node 5 on power only, node 7 on neither, node 2
# on both power and id.
CHANGES = {
    "new": lambda base: base,
    "weaker new": lambda base: replace(base, node_id=7, processing_power_mhz=2500.0),
    "stronger new": lambda base: replace(base, node_id=2, processing_power_mhz=3000.0),
    "same": lambda base: base,
    "equal copy": replace,
    "capacity": lambda base: replace(base, storage_capacity_mb=512.0),
    "power": lambda base: replace(base, processing_power_mhz=2500.0),
}


@pytest.mark.parametrize("policy", list(ElectionPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", [J, A, H, N], ids=lambda k: k.name)
@pytest.mark.parametrize("change", CHANGES)
def test_the_board_takes_a_fan_out_only_when_it_moves_no_recipient(policy, kind, change):
    # Settled member 5 and the sender follow the domain's board; nodes 2, 6,
    # 7 and 8 but the sender are offline. The sender's fan-out reaches every
    # other node: an entry new to node 5, or, after a HEARTBEAT with node 6's
    # base entry, the same object, an equal copy or a change.
    w = World([(5, 1, 1024.0, 2660.0), (6, 1, 1024.0, 2800.0), (2, 1, 1024.0, 3000.0),
               (7, 1, 1024.0, 2500.0), (8, 1, 1024.0, 2500.0)], policy=policy)
    w.join(5, at=0.0)
    w.settle(100.0)
    node, base = w.nodes[5], w.nodes[6].self_entry
    if "new" not in change:
        node.on_message(w.net, Message(H, base))
    entry = CHANGES[change](base)
    sid = entry.node_id
    sender = w.nodes[sid]
    sender.phase, sender.agent = Phase.MEMBER, sid
    membership._board(w.net, sender).follow(sender)
    held = node.ait.get(sid), node.last_heard_ms.get(sid)
    refused = _moves_election(node, entry, w.net.now)
    to = tuple(nid for nid in sorted(w.nodes) if nid != sid)
    taken = node.absorb(w.net, to, Message(kind, entry))
    assert (taken is None) is refused
    if change == "stronger new":
        assert taken is None
    if taken is not None:
        assert node.ait.get(sid) is entry and node.last_heard_ms[sid] == w.net.now
    else:
        assert (node.ait.get(sid), node.last_heard_ms.get(sid)) == held
    assert all(w.nodes[nid].ait.ids() == set() for nid in to if nid != 5)


def test_absorb_takes_past_crashed_recipients_and_a_wrapped_follower():
    w = World([(nid, 1, 1024.0, 2800.0) for nid in (1, 2, 3, 4, 5)])
    w.join_all()
    w.settle(500.0)
    w.crash(2)
    msg = Message(H, w.nodes[5].self_entry)
    assert w.nodes[1].absorb(w.net, (1, 2, 3, 4), msg) == ()
    assert [w.nodes[n].last_heard_ms[5] for n in (1, 3, 4)] == [500.0] * 3
    assert w.nodes[2].last_heard_ms[5] < 500.0
    # Follower 5's JOIN is a peer entry like any other: taken, with each live
    # member's replies and none from the crashed one.
    w.net.now = 550.0
    agent = w.nodes[1].agent
    replies = w.nodes[1].absorb(w.net, (1, 2, 3, 4), Message(J, w.nodes[5].self_entry))
    assert [[reply.kind for reply in sent] for sent in replies] == [
        [] if nid == 2 else [A, N] if nid == agent else [A] for nid in (1, 2, 3, 4)]
    assert [w.nodes[n].last_heard_ms[5] for n in (1, 3, 4)] == [550.0] * 3
    views = {nid: (node.ait.by_id, node.last_heard_ms) for nid, node in w.nodes.items()}
    w.net.now = 600.0  # so that a take would show in last_heard_ms
    for kind in (MessageKind.LEAVE, MessageKind.QUERY, MessageKind.DATA):
        assert w.nodes[1].absorb(w.net, (1, 2, 3, 4), Message(kind, w.nodes[5].self_entry)) is None
    assert {nid: (node.ait.by_id, node.last_heard_ms) for nid, node in w.nodes.items()} == views
    # The board reads no handler: it takes the entry for follower 4 past its wrapper.
    w.net.register_handler(4, _CheckAfterEachEvent(w.nodes[4], lambda: None))
    assert w.nodes[1].absorb(w.net, (1, 2, 3, 4), msg) == ()
    assert [w.nodes[n].last_heard_ms[5] for n in (1, 3, 4)] == [600.0] * 3


@pytest.mark.parametrize("policy", list(ElectionPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("to", [(1,), (1, 3)], ids=["one_of_four", "two_of_four"])
def test_the_board_takes_a_fan_out_that_misses_most_followers(monkeypatch, policy, to):
    # Five settled members of equal power follow the board. Node 5's
    # HEARTBEAT, its capacity changed, reaches fewer than half of the four
    # other followers and moves no election. The board takes it, and each
    # follower it missed keeps its previous view in an own record. Run output
    # and every node's view equal those of the same delivery through on_message.
    outputs, offered = [], []
    absorb = GosNode.absorb

    def counted(node, net, recipients, msg):
        taken = absorb(node, net, recipients, msg)
        if msg.sender is entry:
            offered.append(taken)
        return taken

    for via in ("absorb", "on_message"):
        w = World([(nid, 1, 1024.0, 2800.0) for nid in (1, 2, 3, 4, 5)], policy=policy)
        w.settle(w.join_all() + PARAMS.accept_window_ms + 2 * PARAMS.heartbeat_period_ms)
        w.net.now += 1.0  # so that the delivery shows in last_heard_ms
        before = {nid: (node.ait.by_id, node.last_heard_ms) for nid, node in w.nodes.items()}
        entry = replace(w.nodes[5].self_entry, storage_capacity_mb=512.0)
        with monkeypatch.context() as patch:
            if via == "absorb":
                patch.setattr(GosNode, "absorb", counted)
            else:
                patch.delattr(GosNode, "absorb")
            start = len(w.net.trace)
            _push_sent(w.net, to, Message(H, entry))
            w.net.run_until(w.net.now)
        views = {nid: (node.ait.by_id, node.last_heard_ms, node.agent, node.phase)
                 for nid, node in w.nodes.items()}
        outputs.append((list(w.net.trace[start:]), views))
        missed = [nid for nid in (2, 3, 4) if nid not in to]
        assert all(views[nid][:2] == before[nid] for nid in missed)
        if via == "absorb":
            assert all(5 in w.nodes[nid]._own for nid in missed)
        assert all(w.nodes[nid].ait.get(5) is entry
                   and w.nodes[nid].last_heard_ms[5] == w.net.now for nid in to)
    assert outputs[0] == outputs[1]
    assert offered == [()]


def _push_sent(net, to, msg):
    """Queue a delivery entry of msg to `to` now, after its send record, as
    send_multicast queues one whose other attempts were lost."""
    sid = msg.sender.node_id
    net._trace_send(sid, net._labels[net._require(sid)], msg, transit_size_bytes(msg))
    net._push_delivery(net.now, to, msg)


def _refusal_cause(board, net, recipients, msg):
    """The cause `HeardBoard.take` checks for refusing this entry, read after
    the refusal, or None."""
    sender, followers = msg.sender, board.followers
    sid = sender.node_id
    reached = [m for m in recipients if m != sid and m not in net.crashed]
    if any(followers[m]._moves(sender, net.now) for m in reached if m in followers):
        return "moves"
    return None


def test_the_board_refuses_an_entry_only_for_a_remaining_cause(monkeypatch):
    # The bundled scenarios at drop 0 and at drop 0.05, and the golden
    # generator's run under each policy. Each entry the board refuses has a
    # reached follower whose election it moves.
    take, causes = HeardBoard.take, Counter()

    def checked(board, net, recipients, msg):
        took = take(board, net, recipients, msg)
        if not took:
            causes[_refusal_cause(board, net, recipients, msg)] += 1
        return took

    docs = [update_goldens.generated_doc(policy.value) for policy in ElectionPolicy]
    for name in BUNDLED_SCENARIOS:
        doc = json.loads(bundled_scenario_path(name).read_text())
        docs += [dict(doc, **{link: dict(doc[link], drop_probability=drop)
                              for link in ("intra_domain_link", "inter_domain_link")})
                 for drop in (0.0, 0.05)]
    monkeypatch.setattr(HeardBoard, "take", checked)
    for doc in docs:
        try:
            ScenarioWorld(scenario_from_json(doc)).run()
        except AssertionFailure:
            pass
    assert set(causes) == {"moves"}, causes


PEERS = range(2, 10)


def _board_world(timeout=600.0):
    """Node 1 and PEERS, equal in power, as members that follow their
    domain's heard board and have heard nothing yet. Each is its own agent,
    so no entry moves an election."""
    w = World([(nid, 1, 1024.0, 2800.0) for nid in (1, *PEERS)],
              params=replace(PARAMS, failure_timeout_ms=timeout))
    for nid, node in w.nodes.items():
        node.phase, node.agent = Phase.MEMBER, nid
        membership._board(w.net, node).follow(node)
    return w


def _heartbeat_at(w, peer, t, board):
    """Peer's HEARTBEAT reaches every other member at time t as a fan-out,
    which goes on the board; or node 1 alone hears it, in its own record."""
    w.net.now = t
    msg = Message(H, w.nodes[peer].self_entry)
    if not board:
        w.nodes[1].on_message(w.net, msg)
        return
    to = tuple(nid for nid in sorted(w.nodes) if nid != peer)
    assert w.nodes[to[0]].absorb(w.net, to, msg) == ()
    board = w.net.heard_boards[1]
    assert board.heard[peer] == t and board.entries[peer] is msg.sender


@settings(max_examples=200, deadline=None)
@given(heard=st.dictionaries(st.sampled_from(PEERS),
                             st.tuples(st.floats(0.0, 5000.0), st.booleans())),
       now=st.floats(0.0, 5000.0), timeout=st.floats(1.0, 2000.0))
@example(heard={2: (102.1, True)}, now=702.1, timeout=600.0)  # 702.1 - 102.1 == 600.0
@example(heard={2: (102.1, False), 3: (102.0, True)}, now=702.1, timeout=600.0)
def test_heartbeat_tick_drops_exactly_the_silent_peers(heard, now, timeout):
    # Each peer is heard on the board or in node 1's own record, in time order.
    w = _board_world(timeout)
    for peer, (t, board) in sorted(heard.items(), key=lambda item: item[1][0]):
        _heartbeat_at(w, peer, t, board)
    w.net.now = now
    node = w.nodes[1]
    node.heartbeat_tick(w.net)
    kept = {peer for peer, (t, _) in heard.items() if not now - t > timeout}
    assert set(node.last_heard_ms) == kept
    assert node.ait.ids() == kept | {1}


def test_heartbeat_tick_keeps_a_board_peer_heard_exactly_one_timeout_ago():
    # 702.1 - 102.1 == 600.0, so peer 2 is not silent, though 102.1 < 702.1 - 600.
    w = _board_world(timeout=600.0)
    _heartbeat_at(w, 2, 102.1, board=True)
    node = w.nodes[1]
    assert node._own == {} and node.last_heard_ms == {2: 102.1}
    w.net.now = 702.1
    node.heartbeat_tick(w.net)
    assert node.last_heard_ms == {2: 102.1} and 2 in node.ait
    w.net.now = 702.2
    node.heartbeat_tick(w.net)
    assert node.last_heard_ms == {} and node._own == {2: None}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), drop=st.floats(0.0, 0.1),
       policy=st.sampled_from(ElectionPolicy),
       script=st.lists(st.tuples(st.sampled_from((150.0, 250.0, 700.0)),
                                 st.sampled_from(("leave", "crash", "rejoin")),
                                 st.integers(0, 5)), max_size=12))
def test_oldest_heard_is_the_least_last_heard_time(seed, drop, policy, script):
    # heartbeat_tick scans the peers only when `_oldest_heard` is silent, so
    # it must be the least of `last_heard_ms` at every tick: own records,
    # dropped ones and board records pinned by an own record included.
    lossy = LinkConfig(delay_ms=1.0, drop_probability=drop, bandwidth_mbps=100.0)
    w = World([(nid, 1, 1024.0, 2500.0 + 100.0 * (nid % 3)) for nid in range(1, 7)],
              seed=seed, intra=lossy, policy=policy)
    tick, ticks = GosNode.heartbeat_tick, []

    def checked(node, net):
        for member in w.nodes.values():
            if member.is_member:
                assert member._oldest_heard() == min(member.last_heard_ms.values(),
                                                     default=None), member
        ticks.append(node.node_id)
        tick(node, net)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GosNode, "heartbeat_tick", checked)
        t, live, down = w.join_all(), set(w.nodes), []
        for gap, op, k in script:
            t += gap
            w.settle(t)
            if down and (op == "rejoin" or len(live) < 3):
                nid = down.pop(k % len(down))
                w.net.revive(nid)
                w.nodes[nid].reset_offline()
                w.join(nid)
                live.add(nid)
            elif op != "rejoin":
                nid = sorted(live)[k % len(live)]
                if op == "leave":
                    w.leave(nid)
                else:
                    w.crash(nid)
                live.discard(nid)
                down.append(nid)
        w.settle(t + 2000.0)
    assert ticks


@pytest.mark.parametrize("crashed", [(), (8,)], ids=["all_up", "8_crashed"])
@pytest.mark.parametrize("policy", list(ElectionPolicy), ids=lambda p: p.value)
def test_a_settled_lossless_domain_takes_each_heartbeat_fan_out_in_one_write(monkeypatch,
                                                                            policy, crashed):
    # Once the join ramp and one failure timeout have passed, no follower
    # holds an own record and no pinned set is non-empty. A follower that
    # crashes then misses a heartbeat period of fan-outs, after which it
    # holds an own record of each live sender, the one holder in that
    # sender's pinned set. Either way each heartbeat fan-out misses exactly
    # the holders, so it is the board write alone: it leaves the sender's
    # pinned set be and writes no own record.
    ids = range(1, 11)
    w = World([(nid, 1, 1000.0 + nid, 2500.0 + 100.0 * (nid % 4)) for nid in ids],
              policy=policy)
    settled = w.join_all() + PARAMS.accept_window_ms + PARAMS.failure_timeout_ms
    w.settle(settled)
    board = w.net.heard_boards[1]
    assert sorted(board.followers) == list(ids)
    assert all(node._own == {} for node in w.nodes.values())
    assert not any(board.pinned.values())
    for nid in crashed:
        w.crash(nid)
        settled += PARAMS.heartbeat_period_ms + 10.0
        w.settle(settled)
    live = [nid for nid in ids if nid not in crashed]
    assert all(board.pinned.get(sid, set()) == set(crashed) for sid in live)
    take, one_write = HeardBoard.take, []

    def counted(board, net, recipients, msg):
        sid = msg.sender.node_id
        pinned = board.pinned.get(sid)
        owns = {peer: dict(node._own) for peer, node in board.followers.items()}
        took = take(board, net, recipients, msg)
        one_write.append(took and board.pinned.get(sid) is pinned
                         and list(board.heard)[-1] == sid and board.heard[sid] == net.now
                         and all(node._own.keys() == owns[peer].keys()
                                 and all(node._own[p] is record for p, record in owns[peer].items())
                                 for peer, node in board.followers.items()))
        return took

    monkeypatch.setattr(HeardBoard, "take", counted)
    start, periods = len(w.net.trace), 5
    w.settle(settled + periods * PARAMS.heartbeat_period_ms)
    heartbeats = [row for row in w.net.trace[start:]
                  if row.kind == "send" and row.msg_kind == "HEARTBEAT"]
    assert len(heartbeats) == periods * len(live)
    assert one_write == [True] * len(heartbeats)
    # The live followers have dropped the crashed one, on a failure timeout.
    assert all(w.nodes[nid]._own == dict.fromkeys(crashed) for nid in live)
    assert all(board.pinned.get(sid, set()) == set(crashed) for sid in live)


@pytest.mark.parametrize("to", [(1, 2, 3, 4, 6), (1, 2, 3, 4)], ids=["whole", "one_missed"])
def test_the_board_asks_each_highest_connectivity_follower_about_a_fan_out(to):
    # In a settled domain every follower's agent is node 1. Follower 3 last
    # heard node 1 just over a failure timeout ago, in its own record, and
    # has not ticked since, so node 5's HEARTBEAT moves its election. The
    # board must not take the fan-out, neither as the one write (every
    # follower gets it) nor through the bookkeeping (node 6 misses it), so
    # absorb refuses it and no view changes.
    w = World([(nid, 1, 1024.0, 2800.0) for nid in range(1, 7)], policy=HC)
    w.settle(w.join_all() + PARAMS.accept_window_ms + PARAMS.failure_timeout_ms)
    board, node = w.net.heard_boards[1], w.nodes[3]
    assert [n.agent for n in w.nodes.values()] == [1] * 6 and not board.pinned.get(5)
    node._hear(1, (w.net.now - PARAMS.failure_timeout_ms - 1.0, w.nodes[1].self_entry))
    last = board.heard[5]
    assert w.nodes[1].absorb(w.net, to, Message(H, w.nodes[5].self_entry)) is None
    assert board.heard[5] == last
    assert [w.nodes[n].last_heard_ms[5] for n in (1, 2, 3, 4, 6)] == [last] * 5


def _join_world(policy, newcomer, power, history):
    """Members 3 (2660 MHz), 5 (2800 MHz) and 8 follow the board of a settled
    domain, member 9 has crashed, node 6 is joining and the rest (7, and 2 or
    10) are offline. The newcomer, 2 or 10 at `power`, has just sent its JOIN.
    With `history` "new" the board holds no entry of it; with "left" it was a
    member at 2500 MHz and left, so the board holds that entry and each
    follower a dropped record of it."""
    w = World([(2, 1, 1024.0, 2500.0), (3, 1, 1024.0, 2660.0), (5, 1, 1024.0, 2800.0),
               (6, 1, 1024.0, 2500.0), (7, 1, 1024.0, 2500.0), (8, 1, 1024.0, 2500.0),
               (9, 1, 1024.0, 2500.0), (10, 1, 1024.0, 2500.0)], policy=policy)
    early = (3, 5, 8, 9, newcomer) if history == "left" else (3, 5, 8, 9)
    t = 0.0
    for nid in early:
        w.join(nid, at=t)
        t += 50.0
    w.settle(t + PARAMS.failure_timeout_ms)
    if history == "left":
        w.leave(newcomer)
        w.settle(w.net.now + 50.0)
    w.crash(9)
    w.join(6)
    node = w.nodes[newcomer]
    node.phase = Phase.OFFLINE
    node.self_entry = replace(node.self_entry, processing_power_mhz=power)
    node.initiate_join(w.net)
    return w


@pytest.mark.parametrize("missed", [False, True], ids=["all_reached", "8_missed"])
@pytest.mark.parametrize("stale", [False, True], ids=["fresh", "8_stale"])
@pytest.mark.parametrize("history", ["new", "left"])
@pytest.mark.parametrize("power", [2500.0, 2800.0, 3000.0], ids=lambda p: f"{p:.0f}")
@pytest.mark.parametrize("newcomer", [2, 10], ids=lambda n: f"from{n}")
@pytest.mark.parametrize("policy", list(ElectionPolicy), ids=lambda p: p.value)
def test_the_board_takes_a_join_exactly_when_it_moves_no_reached_follower(
        monkeypatch, policy, newcomer, power, history, stale, missed):
    # A JOIN delivery entry to every node but the newcomer, or to all but
    # follower 8. With `stale`, follower 8 last heard its agent over a
    # failure timeout ago, which moves its election under HIGHEST_CONNECTIVITY.
    # The board takes the JOIN, naming an ACCEPT from each live member and an
    # AGENT_ANNOUNCE from the agent, exactly when no follower it reaches would
    # re-elect; crashed, joining and offline recipients send nothing. Run
    # output and every node's view equal those of the same delivery through
    # on_message.
    outputs, offered = [], []
    absorb = GosNode.absorb

    def counted(node, net, recipients, msg):
        taken = absorb(node, net, recipients, msg)
        offered.append(taken)
        return taken

    for via in ("absorb", "on_message"):
        w = _join_world(policy, newcomer, power, history)
        if stale:
            follower = w.nodes[8]
            agent = w.nodes[follower.agent]
            follower._hear(agent.node_id, (w.net.now - PARAMS.failure_timeout_ms - 1.0,
                                           agent.self_entry))
        entry = w.nodes[newcomer].self_entry
        to = tuple(nid for nid in sorted(w.nodes) if nid != newcomer and not (missed and nid == 8))
        live = [w.nodes[nid] for nid in to if w.nodes[nid].is_member and nid not in w.net.crashed]
        moved = any(_moves_election(node, entry, w.net.now) for node in live)
        with monkeypatch.context() as patch:
            if via == "absorb":
                patch.setattr(GosNode, "absorb", counted)
            else:
                patch.delattr(GosNode, "absorb")
            start = len(w.net.trace)
            _push_sent(w.net, to, Message(J, entry))
            w.net.run_until(w.net.now)
        outputs.append((list(w.net.trace[start:]), moved,
                        {nid: (node.ait.by_id, node.last_heard_ms, node.agent, node.phase)
                         for nid, node in w.nodes.items()}))
    assert outputs[0] == outputs[1]
    (taken,) = offered
    assert (taken is None) is moved
    if policy is LI and newcomer == 2 or policy is MP and power > 2800.0:
        assert moved  # a lower id moves LOWEST_ID, and a stronger node MAX_POWER
    if newcomer == 10 and power <= 2800.0 and not stale:
        assert not moved
    if taken is not None:
        agents = {node.agent for node in live}
        assert [[reply.kind.name for reply in sent] for sent in taken] == [
            ["ACCEPT", "AGENT_ANNOUNCE"] if nid in agents else ["ACCEPT"] if node in live else []
            for nid, node in zip(to, map(w.nodes.get, to))]
        assert all(reply.sender == w.nodes[nid].self_entry
                   for nid, sent in zip(to, taken) for reply in sent)


def test_a_joiner_learns_nothing_from_takes_while_crashed_or_after_a_reset(monkeypatch):
    # Node 4 crashes inside its accept window, stays down for a heartbeat
    # period, is revived and reset to offline, and never joins again. The
    # board goes on taking the members' fan-outs, which reach node 4 too:
    # while crashed it keeps what it learned before, and once reset it stays
    # offline with an empty view.
    take, takes = HeardBoard.take, []

    def counted(board, net, recipients, msg):
        took = take(board, net, recipients, msg)
        if took and 4 in recipients:
            takes.append(net.now)
        return took

    monkeypatch.setattr(HeardBoard, "take", counted)
    w = World([(nid, 1, 1024.0, 2800.0) for nid in (1, 2, 3, 4)])
    for nid in (1, 2, 3):
        w.join(nid, at=50.0 * nid)
    w.join(4, at=150.0 + PARAMS.heartbeat_period_ms)
    w.crash(4, at=w.net.now + PARAMS.accept_window_ms / 2)
    node = w.nodes[4]
    learned, before = dict(node._own), len(takes)
    w.settle(w.net.now + PARAMS.heartbeat_period_ms)
    assert len(takes) > before
    assert node.phase is Phase.JOINING and node._own == learned
    w.net.revive(4)
    node.reset_offline()
    before = len(takes)
    w.settle(w.net.now + 3 * PARAMS.heartbeat_period_ms)
    assert len(takes) > before
    assert node.phase is Phase.OFFLINE and node._own == {} and node.agent == NO_NODE
    assert node.ait.ids() == set() and node.last_heard_ms == {}
    assert [n.node_id for n in w.members()] == [1, 2, 3]


# Sender 5's power against members 2 (2800 MHz), 4 (2660 MHz) and 6 (2700 MHz).
SENDER_POWERS = {"weaker": 2500.0, "middle": 2750.0, "stronger": 3000.0}
# The (sender phase, kind) pairs that a rule by kind kept off the board: a
# member's JOIN, and any other peer entry from a node that is not a member.
NEWLY_TAKEN = {(Phase.MEMBER, J)} | {(phase, kind) for phase in (Phase.JOINING, Phase.OFFLINE,
                                                                 Phase.LEFT) for kind in (H, N)}


def _sender_world(policy, phase, power):
    """Members 2, 4 and 6 of a settled domain, sender 5 at `power` in `phase`,
    node 7 joining and node 8 offline. The JOIN of node 7, and of a joining
    sender, is in flight; a sender that left sent its LEAVE, also in flight."""
    w = World([(2, 1, 1024.0, 2800.0), (4, 1, 1024.0, 2660.0), (5, 1, 1024.0, power),
               (6, 1, 1024.0, 2700.0), (7, 1, 1024.0, 2500.0), (8, 1, 1024.0, 2500.0)],
              policy=policy)
    t = 0.0
    for nid in (2, 4, 5, 6) if phase in (Phase.MEMBER, Phase.LEFT) else (2, 4, 6):
        w.join(nid, at=t)
        t += 50.0
    w.settle(t + PARAMS.failure_timeout_ms)
    if phase is Phase.LEFT:
        w.leave(5)
    elif phase is Phase.JOINING:
        w.join(5)
    w.join(7)
    assert w.nodes[5].phase is phase and w.nodes[7].phase is Phase.JOINING
    return w


@pytest.mark.parametrize("policy", list(ElectionPolicy), ids=lambda p: p.value)
def test_the_board_takes_a_peer_entry_whatever_its_kind_and_sender(monkeypatch, policy):
    # Sender 5, in each phase and at each power, sends each kind of peer
    # entry to every other node, as one delivery entry. The run output and
    # every node's view equal those of the same delivery through on_message,
    # and the board takes at least one entry of each newly allowed pair.
    take, taken = HeardBoard.take, set()
    for phase, kind, power in itertools.product((Phase.MEMBER, Phase.JOINING, Phase.OFFLINE,
                                                 Phase.LEFT), (J, H, N), SENDER_POWERS.values()):
        outputs = []

        def counted(board, net, recipients, msg):
            took = take(board, net, recipients, msg)
            if took:
                taken.add((phase, kind))
            return took

        for via in ("absorb", "on_message"):
            w = _sender_world(policy, phase, power)
            with monkeypatch.context() as patch:
                if via == "absorb":
                    patch.setattr(HeardBoard, "take", counted)
                else:
                    patch.delattr(GosNode, "absorb")
                start = len(w.net.trace)
                _push_sent(w.net, (2, 4, 6, 7, 8), Message(kind, w.nodes[5].self_entry))
                w.net.run_until(w.net.now)
            outputs.append((list(w.net.trace[start:]), dict(w.registry._agents),
                            {nid: (node.ait.by_id, node.last_heard_ms, node.agent, node.phase)
                             for nid, node in w.nodes.items()}))
        assert outputs[0] == outputs[1], (phase, kind, power)
    assert NEWLY_TAKEN <= taken


class _CheckAfterEachEvent:
    """Runs a node's handlers and then `check`, so a test sees the state
    after every event the node handles."""

    def __init__(self, node, check):
        self.node, self.check = node, check

    def on_message(self, net, msg):
        self.node.on_message(net, msg)
        self.check()

    def on_timer(self, net, tag):
        self.node.on_timer(net, tag)
        self.check()


class _CheckAfterEachTake(_CheckAfterEachEvent):
    """Also offers each delivery entry to the node's `absorb`, and runs `check`
    after each entry the board takes, noting its time in `takes`."""

    def __init__(self, node, check, takes):
        super().__init__(node, check)
        self.takes = takes

    def absorb(self, net, recipients, msg):
        taken = self.node.absorb(net, recipients, msg)
        if taken is not None:
            self.takes.append(net.now)
            self.check()
        return taken


def _check_through_lossy_churn(policy, wrapper):
    """Run six nodes through lossy churn, each behind a `wrapper` of itself
    that checks every node's view, and return the times of the checks."""
    lossy = LinkConfig(delay_ms=1.0, drop_probability=0.05, bandwidth_mbps=100.0)
    ids = range(1, 7)
    w = World([(nid, 1, 1024.0, 2500.0 + 100.0 * (nid % 3)) for nid in ids],
              seed=5, intra=lossy, policy=policy)
    checks = []

    def check():
        for node in w.nodes.values():
            assert set(node.last_heard_ms) == node.ait.ids() - {node.node_id}, node
            assert (node._board is not None) is node.is_member, node
        checks.append(w.net.now)

    for nid, node in w.nodes.items():
        w.net.register_handler(nid, wrapper(node, check))
    w.join_all()
    rng = random.Random(5)
    t, live, down = 1000.0, set(ids), []
    for _ in range(40):
        t += rng.choice((150.0, 250.0, 700.0))
        w.settle(t)
        if down and (len(live) < 3 or rng.random() < 0.4):
            nid = down.pop(rng.randrange(len(down)))
            w.net.revive(nid)
            w.nodes[nid].reset_offline()
            w.join(nid)
            live.add(nid)
        else:
            nid = rng.choice(sorted(live))
            if rng.random() < 0.5:
                w.leave(nid)
            else:
                w.crash(nid)
            live.discard(nid)
            down.append(nid)
        check()
    w.settle(t + 2000.0)
    assert any(n.is_member for n in w.nodes.values())
    return checks


@pytest.mark.parametrize("policy", list(ElectionPolicy), ids=lambda p: p.value)
def test_last_heard_keys_are_the_peers_in_the_ait_through_lossy_churn(policy):
    # election.heard_members relies on this under HIGHEST_CONNECTIVITY. Every
    # member, crashed or not, follows its domain's heard board, and no other node does.
    assert len(_check_through_lossy_churn(policy, _CheckAfterEachEvent)) > 1000


@pytest.mark.parametrize("policy", list(ElectionPolicy), ids=lambda p: p.value)
def test_last_heard_keys_are_the_peers_in_the_ait_after_each_take(policy):
    # The same run with each node's absorb offered every delivery entry: the
    # board takes entries for the wrapped nodes, and the views hold after each.
    takes = []
    checks = _check_through_lossy_churn(
        policy, lambda node, check: _CheckAfterEachTake(node, check, takes))
    assert takes and len(checks) > 500


VIEW_EVERY_MS = 50.0
# After the last join of a generated run has settled, and more than one
# heartbeat period before its first other action.
CHANGE_AT_MS = 700.0


def _change_entries(world):
    """Node 1's power changes, and every other node's capacity alone."""
    for nid, node in world.nodes.items():
        if nid == 1:
            node.self_entry = replace(node.self_entry, processing_power_mhz=(
                node.self_entry.processing_power_mhz + 100.0))
        else:
            node.adjust_capacity(-1.0)


def _run_outputs(doc, out):
    """Trace and metrics bytes, assertion text, and every node's AIT,
    `last_heard_ms`, agent and phase each VIEW_EVERY_MS of virtual time and
    before each script action, in one run of `doc`, whose entries change
    (`_change_entries`) at the first view from CHANGE_AT_MS on."""
    world = ScenarioWorld(scenario_from_json(doc))
    views, failure, t, changed = [], None, 0.0, False
    for action in world.scenario.script:
        while t < action.time_ms:
            t = min(t + VIEW_EVERY_MS, action.time_ms)
            world.net.run_until(t)
            views.append({nid: (node.ait.by_id, node.last_heard_ms, node.agent, node.phase)
                          for nid, node in world.nodes.items()})
            if not changed and t >= CHANGE_AT_MS:
                _change_entries(world)
                changed = True
        try:
            action.apply(world)
        except AssertionFailure as exc:
            failure = str(exc)
            break
    export_trace(world.net.trace, out / "trace.csv")
    export_metrics(world.metrics, "json", out / "metrics.json")
    return ((out / "trace.csv").read_bytes(), (out / "metrics.json").read_bytes(),
            failure, views)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), drop=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
       draw=st.integers(0, 2**16), policy=st.sampled_from(ElectionPolicy))
@example(seed=3, drop=0.0, draw=1, policy=ElectionPolicy.MAX_POWER)
@example(seed=3, drop=0.05, draw=1, policy=ElectionPolicy.MAX_POWER)
def test_absorb_changes_no_run_output(tmp_path_factory, seed, drop, draw, policy):
    # A join/leave/crash/rejoin script with queries and transfers, from the
    # golden generator; the same run with GosNode.absorb deleted sends every
    # delivery through on_message, so no node reads a heard board. At any
    # drop, some JOIN fan-out goes on the board with its replies. At drop 0
    # every domain multicast shares one recipients tuple per sender, and
    # settled fan-outs go on the board with no follower missing them: a
    # capacity-only change that no follower holds a record of asks nobody
    # (unless the policy reads heard times), and node 1's power change asks
    # every follower it reached, since each reads that power from the board.
    # The board reads no kind, so a JOIN is asked as any other entry is.
    doc = update_goldens.generated_doc(policy.value, draw=f"absorb{draw}")
    doc["seed"] = seed
    doc["intra_domain_link"] = dict(doc["intra_domain_link"], drop_probability=drop)
    taken, boarded, changes, joins, asks = [], [], [], [], []
    absorb, take, moves = GosNode.absorb, HeardBoard.take, HeardBoard._moves

    def counted(node, net, recipients, msg):
        took = absorb(node, net, recipients, msg)
        taken.append(took)
        if msg.kind is J:
            joins.append(took is not None and any(took))
        return took

    def counted_moves(board, sender, now, asked):
        asks.append(set(asked))
        return moves(board, sender, now, asked)

    def counted_take(board, net, recipients, msg):
        sid, power = msg.sender.node_id, msg.sender.processing_power_mhz
        stored, holders = board.entries.get(sid), board.pinned.get(sid) or ()
        # The followers the entry reaches alive, the sender among them, and
        # the reached holders whose own record lacks the sender's power.
        reached = {p for p in board.followers
                   if p == sid or p in recipients and p not in net.crashed}
        lacking = {p for p in holders if p in reached and (
            not (record := board.followers[p]._own[sid]) or record[1].processing_power_mhz != power)}
        asks.clear()
        took = take(board, net, recipients, msg)
        boarded.append(took and not board.pinned.get(sid))
        if took and stored is not None and stored is not msg.sender:
            changed = stored.processing_power_mhz != power
            asked = set().union(*asks)
            changes.append((changed, asked == (reached if changed or board.timed else lacking)))
        return took

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GosNode, "absorb", counted)
        patch.setattr(HeardBoard, "take", counted_take)
        patch.setattr(HeardBoard, "_moves", counted_moves)
        batched = _run_outputs(doc, tmp_path_factory.mktemp("absorb"))
    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(GosNode, "absorb")
        one_by_one = _run_outputs(doc, tmp_path_factory.mktemp("on_message"))
    assert any(took is not None for took in taken)
    assert any(joins)  # a JOIN was taken, naming the members' replies
    assert any(boarded)  # a fan-out that no follower missed went on the board
    # A taken power change or change under a policy that reads heard times
    # asked every follower it reached; any other taken capacity-only change
    # asked exactly the reached holders whose record lacks the power, none
    # when there are no holders.
    assert all(asked_right for _, asked_right in changes)
    if drop == 0.0:
        assert (False, True) in changes and (True, True) in changes
    assert batched == one_by_one


WINDOWS = (600.0, 900.0, 1500.0)
# Case -> (the policies and the failure timeouts each node draws from, None
# for the world's: HIGHEST_CONNECTIVITY and PARAMS; the seeds run).
MIXED_RULES = {"policies": (tuple(ElectionPolicy), None, range(40)),
               "windows": (None, WINDOWS, range(100)),
               "both": (tuple(ElectionPolicy), WINDOWS, range(40))}


def _mixed_rule_run(seed, policies, windows):
    """Five nodes of one domain, each built with its own election policy and
    failure timeout, joining 50 ms apart; then leaves, crashes and rejoins.
    The trace, the metrics and every node's agent, phase and AIT at the end."""
    rng = random.Random(seed)
    specs = [(nid, 1, 1024.0, rng.choice((2500.0, 2660.0, 2800.0))) for nid in range(1, 6)]
    rules = {}
    for nid in range(1, 6):
        rule = rules[nid] = {}
        if policies:
            rule["policy"] = rng.choice(policies)
        if windows:
            rule["params"] = replace(PARAMS, failure_timeout_ms=rng.choice(windows))
    w, metrics = World(specs, seed=seed, policy=HC, overrides=rules), []
    for node in w.nodes.values():
        node.metrics_cb = metrics.append
    t, down = w.join_all(), []
    for _ in range(12):
        t += rng.choice((50.0, 150.0, 400.0, 900.0))
        w.settle(t)
        live, r = w.members(), rng.random()
        if r < 0.6 and len(live) > 2:
            node = rng.choice(live)
            if r < 0.3:
                node.initiate_leave(w.net)
            else:
                w.net.crash(node.node_id)
            down.append(node)
        elif down:
            node = down.pop(rng.randrange(len(down)))
            w.net.revive(node.node_id)
            node.reset_offline()
            node.initiate_join(w.net)
    w.settle(t + 2000.0)
    return list(w.net.trace), metrics, {nid: (node.agent, node.phase, node.ait.by_id)
                                        for nid, node in w.nodes.items()}


@pytest.mark.parametrize("case", MIXED_RULES)
def test_absorb_changes_no_run_output_of_a_domain_of_mixed_rules(monkeypatch, case):
    # A library user may build each GosNode with its own policy and failure
    # window. The board keeps neither and asks each follower under its own,
    # so every run equals the one with GosNode.absorb deleted, metrics too,
    # while it takes entries in domains of mixed rules. It shares an answer
    # only among followers of one agent, policy and window: under
    # HIGHEST_CONNECTIVITY one may see its agent out of its window and
    # re-elect where another does not, which shows only in ElectionLatency.
    policies, windows, seeds = MIXED_RULES[case]
    take, taken = HeardBoard.take, Counter()

    def checked(board, net, recipients, msg):
        took = take(board, net, recipients, msg)
        rules = {(node.policy, node.params.failure_timeout_ms) for node in board.followers.values()}
        taken[len(rules) > 1, took] += 1
        return took

    with monkeypatch.context() as patch:
        patch.setattr(HeardBoard, "take", checked)
        batched = [_mixed_rule_run(seed, policies, windows) for seed in seeds]
    with monkeypatch.context() as patch:
        patch.delattr(GosNode, "absorb")
        one_by_one = [_mixed_rule_run(seed, policies, windows) for seed in seeds]
    assert [seed for seed, a, b in zip(seeds, batched, one_by_one) if a != b] == []
    assert taken[False, True] > 0 and taken[True, False] > 0 and taken[True, True] > 0


def test_a_nodes_policy_is_fixed_when_it_is_built():
    w = World([(1, 1, 1024.0, 2800.0), (2, 1, 1024.0, 2500.0)], policy=LI)
    node = w.nodes[2]
    with pytest.raises(AttributeError):
        node.policy = MP
    w.join_all()
    w.settle(500.0)
    assert w.net.heard_boards[1].followers[2] is node
    with pytest.raises(AttributeError):
        node.policy = HC
    assert node.policy is LI
