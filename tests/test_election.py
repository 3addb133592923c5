import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import World
from dssm import election
from dssm.core import NO_NODE, Ait, AitEntry
from dssm.discovery import best_fit
from dssm.election import (
    ElectionPolicy,
    EmptyDomain,
    heard_members,
    moves_election,
    select_agent,
)


def ait_from_powers(powers: dict) -> Ait:
    return Ait(
        AitEntry(nid, "10.1.1.1", 100.0, power) for nid, power in powers.items()
    )


def oracle_max_power(powers: dict, current: int) -> int:
    """Independent route: sort-based argmax with retention/lowest-id rules."""
    ranked = sorted(powers.items(), key=lambda kv: (-kv[1], kv[0]))
    top_power = ranked[0][1]
    argmax = [nid for nid, p in ranked if p == top_power]
    if current in argmax:
        return current
    return argmax[0]


def test_table2_powers_pick_the_xeon():
    ait = ait_from_powers({1: 2800.0, 2: 2660.0, 3: 2660.0})
    for current in (0, 1, 2, 3):
        assert select_agent(ait, current) == 1


def test_tie_keeps_incumbent():
    ait = ait_from_powers({1: 2800.0, 2: 2800.0})
    assert select_agent(ait, 2) == 2


def test_fresh_tie_breaks_by_lowest_id():
    ait = ait_from_powers({1: 2800.0, 2: 2800.0})
    assert select_agent(ait, 0) == 1
    # dead incumbent not in the table behaves like a fresh election
    assert select_agent(ait, 9) == 1


def test_single_node_domain():
    ait = ait_from_powers({7: 1000.0})
    assert select_agent(ait, 0) == 7


def test_empty_domain_raises():
    with pytest.raises(EmptyDomain):
        select_agent(Ait(), 0)


def test_lowest_id_policy():
    ait = ait_from_powers({5: 100.0, 2: 900.0, 9: 500.0})
    assert select_agent(ait, 9, ElectionPolicy.LOWEST_ID) == 2


def test_highest_connectivity_policy():
    ait = ait_from_powers({1: 100.0, 2: 100.0, 3: 100.0})
    hc = ElectionPolicy.HIGHEST_CONNECTIVITY
    # node 1 went unheard: the lowest id among the heard members wins
    assert select_agent(ait, 1, hc, {2, 3}) == 2
    # a heard id outside the AIT is never picked
    assert select_agent(ait, 1, hc, {3, 9}) == 3
    # no peer heard, only the node itself: lowest id of the AIT
    assert select_agent(ait, 3, hc, {3}) == 1
    assert select_agent(ait, 3, hc) == 1


def test_oracle_sweep_1000_random_aits():
    rng = random.Random(20240817)
    power_pool = [2500.0, 2660.0, 2800.0, 3000.0, 3200.0]
    for _ in range(1000):
        size = rng.randint(1, 20)
        ids = rng.sample(range(1, 100), size)
        powers = {nid: rng.choice(power_pool) for nid in ids}
        current = rng.choice([0] + ids)
        ait = ait_from_powers(powers)
        got = select_agent(ait, current)
        assert got == oracle_max_power(powers, current)
        assert got in ait
        # tie-retention spelled out
        top = max(powers.values())
        if current in powers and powers[current] == top:
            assert got == current


def test_result_is_stable_under_repetition():
    rng = random.Random(7)
    for _ in range(50):
        powers = {nid: rng.choice([1.0, 2.0]) for nid in rng.sample(range(1, 30), 5)}
        current = rng.choice(sorted(powers))
        ait = ait_from_powers(powers)
        first = select_agent(ait, current)
        assert all(select_agent(ait, current) == first for _ in range(5))


def test_identical_views_agree():
    rng = random.Random(8)
    for _ in range(200):
        powers = {nid: rng.choice([2660.0, 2800.0]) for nid in rng.sample(range(1, 50), 6)}
        current = rng.choice([0] + sorted(powers))
        a = select_agent(ait_from_powers(powers), current)
        b = select_agent(ait_from_powers(powers), current)
        assert a == b


@given(
    powers=st.dictionaries(st.integers(1, 60), st.sampled_from([2660.0, 2800.0, 3000.0]),
                           min_size=1, max_size=20),
    data=st.data(),
)
def test_elected_agent_is_a_fixed_point(powers, data):
    # What lets a member skip re-election on an entry that moves_election
    # rejects: the incumbent select_agent produced is its own result, also
    # after a capacity-only re-upsert of any entry, and after learning a
    # newcomer exactly when moves_election rejects it.
    ait = ait_from_powers(powers)
    incumbent = data.draw(st.sampled_from([NO_NODE, *sorted(powers)]))
    changed = data.draw(st.sampled_from(sorted(powers)))
    capacity = data.draw(st.floats(0.0, 1e6))
    new_id = data.draw(st.integers(1, 80).filter(lambda nid: nid not in powers))
    newcomer = AitEntry(new_id, "10.1.1.1", 100.0,
                        data.draw(st.sampled_from([2500.0, 2660.0, 2800.0, 3000.0, 3200.0])))
    for policy in (ElectionPolicy.MAX_POWER, ElectionPolicy.LOWEST_ID):
        agent = select_agent(ait, incumbent, policy)
        assert select_agent(ait, agent, policy) == agent
        entry = replace(ait.get(changed), storage_capacity_mb=capacity)
        # Neither policy reads when the agent was heard.
        assert not moves_election(policy, ait.get(changed), entry, ait.get(agent), 0.0, 1e9, 1.0)
        updated = Ait(ait.entries())
        updated.upsert(entry)
        assert select_agent(updated, agent, policy) == agent
        grown = Ait(ait.entries())
        grown.upsert(newcomer)
        moves = moves_election(policy, None, newcomer, ait.get(agent), 0.0, 1e9, 1.0)
        assert moves == (select_agent(grown, agent, policy) != agent)
    for policy in ElectionPolicy:
        assert moves_election(policy, None, newcomer, None, 0.0, 0.0, 1.0)


def _highest_connectivity_agent(ait, node_id, heard, now, window):
    """What `reevaluate_agent` elects under HIGHEST_CONNECTIVITY for member
    `node_id` of `ait` that last heard each peer at `heard[peer]`."""
    node = SimpleNamespace(policy=ElectionPolicy.HIGHEST_CONNECTIVITY, node_id=node_id,
                           last_heard_ms=heard,
                           params=SimpleNamespace(failure_timeout_ms=window))
    return select_agent(ait, NO_NODE, node.policy, heard_members(node, now))


@given(
    heard=st.dictionaries(st.integers(1, 30), st.floats(0.0, 1000.0), max_size=12),
    node_id=st.integers(1, 30),
    sender=st.integers(1, 40),
    elected=st.floats(0.0, 1000.0),
    later=st.floats(0.0, 1000.0),
    window=st.floats(1.0, 600.0),
)
# 702.1 - 102.1 == 600.0: agent 2 is still in the window.
@example(heard={2: 102.1}, node_id=5, sender=7, elected=0.0, later=600.0, window=600.0)
def test_highest_connectivity_moves_exactly_when_the_sender_or_a_silent_agent_decides(
        heard, node_id, sender, elected, later, window):
    # A member elects at `elected` (after every heard time), hears nothing
    # until `later` ms after, and then an entry from `sender`. Skipping the
    # election is sound when moves_election rejects the entry, and exact
    # unless the sender is the agent itself: its fresh entry may bring a
    # silent agent back into the window.
    assume(sender != node_id)
    heard.pop(node_id, None)
    elected += max(heard.values(), default=0.0)
    now = elected + later
    ait = Ait(AitEntry(nid, "10.1.1.1", 100.0, 2800.0) for nid in (*heard, node_id))
    agent = _highest_connectivity_agent(ait, node_id, heard, elected, window)
    assert agent <= node_id
    entry = AitEntry(sender, "10.1.1.2", 50.0, 2500.0)
    moves = moves_election(ElectionPolicy.HIGHEST_CONNECTIVITY, ait.get(sender), entry,
                           ait.get(agent), heard.get(agent, now), now, window)
    ait.upsert(entry)
    changed = _highest_connectivity_agent(ait, node_id, {**heard, sender: now}, now,
                                          window) != agent
    assert moves or not changed
    if sender != agent:
        assert moves == changed


ENTRY_IDS = st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True)


@given(ids=ENTRY_IDS, data=st.data())
def test_answers_do_not_depend_on_the_ait_insertion_order(ids, data):
    # select_agent and best_fit read the AIT's dict unsorted; powers and
    # capacities come from small sets so that ties are common.
    entries = [AitEntry(nid, "10.1.1.1", data.draw(st.sampled_from([0.0, 100.0, 500.0])),
                        data.draw(st.sampled_from([2660.0, 2800.0, 3000.0])))
               for nid in ids]
    shuffled = data.draw(st.permutations(entries))
    by_id, other = Ait(sorted(entries, key=lambda e: e.node_id)), Ait(shuffled)
    incumbent = data.draw(st.sampled_from([NO_NODE, *ids]))
    heard = data.draw(st.frozensets(st.sampled_from(ids)))
    for policy in ElectionPolicy:
        assert (select_agent(other, incumbent, policy, heard)
                == select_agent(by_id, incumbent, policy, heard))
    required = data.draw(st.sampled_from([0.0, 50.0, 100.0, 500.0, 600.0]))
    assert best_fit(other, required) == best_fit(by_id, required)


# -- integration with membership ------------------------------------------------


def test_stronger_joiner_takes_over_agency():
    w = World([(1, 1, 100.0, 2660.0), (2, 1, 100.0, 2660.0), (3, 1, 100.0, 2800.0)])
    w.join(1, at=0.0)
    w.join(2, at=100.0)
    w.settle(300.0)
    assert all(n.agent == 1 for n in w.members())
    w.join(3, at=300.0)
    w.settle(600.0)
    assert all(n.agent == 3 for n in w.members())
    assert 3 in w.net.virtual_members


def test_equal_power_joiner_leaves_agent_unchanged():
    w = World([(1, 1, 100.0, 2800.0), (2, 1, 100.0, 2800.0), (3, 1, 100.0, 2800.0)])
    w.join(1, at=0.0)
    w.join(2, at=100.0)
    w.settle(300.0)
    w.join(3, at=300.0)
    w.settle(600.0)
    assert all(n.agent == 1 for n in w.members())


def test_join_ramp_runs_one_election_per_joiner(monkeypatch):
    # Each joiner is weaker than every member, so it cannot move their
    # election: only its own end of join elects, not every member per JOIN
    # (about N^2/2 elections).
    n = 40
    w = World([(nid, 1, 100.0, 4000.0 - 10 * nid) for nid in range(1, n + 1)])
    calls = []
    real = election.select_agent
    monkeypatch.setattr(election, "select_agent",
                        lambda *args: calls.append(args) or real(*args))
    end = w.join_all()
    w.settle(end + 100.0)
    assert len(w.members()) == n
    assert all(node.agent == 1 for node in w.members())
    assert len(calls) <= 3 * n


def test_agent_crash_survivors_match_oracle():
    rng = random.Random(99)
    for trial in range(10):
        powers = {nid: rng.choice([2500.0, 2660.0, 2800.0]) for nid in (1, 2, 3, 4)}
        w = World([(nid, 1, 100.0, p) for nid, p in powers.items()], seed=trial)
        w.join_all()
        w.settle(1000.0)
        agent = w.nodes[1].agent
        assert agent == oracle_max_power(powers, 0)
        w.crash(agent, at=1000.0)
        w.settle(1000.0 + 200.0 + 600.0 + 50.0)  # period + timeout + slack
        survivors = {nid: p for nid, p in powers.items() if nid != agent}
        expected = oracle_max_power(survivors, 0)
        for node in w.members():
            assert node.agent == expected, f"trial {trial}"


def test_lowest_id_policy_end_to_end():
    w = World([(3, 1, 100.0, 2800.0), (5, 1, 100.0, 2900.0), (8, 1, 100.0, 3000.0)],
              policy=ElectionPolicy.LOWEST_ID)
    w.join_all()
    w.settle(1000.0)
    assert all(n.agent == 3 for n in w.members())  # power ignored
    assert w.registry.agent_of(1).node_id == 3


def test_highest_connectivity_policy_end_to_end():
    # full multicast domain: every live member ties on degree, lowest id wins
    w = World([(2, 1, 100.0, 2500.0), (4, 1, 100.0, 2900.0), (6, 1, 100.0, 2800.0)],
              policy=ElectionPolicy.HIGHEST_CONNECTIVITY)
    w.join_all()
    w.settle(2000.0)
    assert all(n.agent == 2 for n in w.members())
    assert w.registry.agent_of(1).node_id == 2
    assert 2 in w.net.virtual_members


def test_announcement_matches_local_computation():
    # Members never disagree with what the announcing agent claims.
    w = World([(1, 1, 100.0, 2800.0), (2, 1, 100.0, 2660.0), (3, 1, 100.0, 2800.0)])
    w.join_all()
    w.settle(1000.0)
    announcers = {r.src for r in w.sends("AGENT_ANNOUNCE")}
    final_agent = {n.agent for n in w.members()}
    assert final_agent == {1}
    assert str(1) in announcers


def test_highest_connectivity_reelects_before_lowest_id():
    # HIGHEST_CONNECTIVITY is not an alias of LOWEST_ID: once the crashed
    # agent falls out of the failure window, the next delivery re-elects,
    # while LOWEST_ID waits for each survivor's own heartbeat tick to drop
    # the agent from its AIT.
    agents = {}
    for policy in (ElectionPolicy.HIGHEST_CONNECTIVITY, ElectionPolicy.LOWEST_ID):
        w = World([(nid, 1, 100.0, 2800.0) for nid in (1, 2, 3, 4)], policy=policy)
        w.join_all()
        w.settle(1000.0)
        assert all(n.agent == 1 for n in w.members())
        w.crash(1, at=1000.0)
        w.settle(1500.0)
        agents[policy] = [n.agent for n in w.members()]
    assert agents[ElectionPolicy.HIGHEST_CONNECTIVITY] == [2, 2, 2]
    assert set(agents[ElectionPolicy.LOWEST_ID]) != {2}
