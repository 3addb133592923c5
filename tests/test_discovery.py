import json
import random
from collections import Counter
from dataclasses import replace
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import INTER, INTRA, PARAMS, World, load_script
from dssm import discovery, scenario
from dssm.core import Ait, AitEntry, InvalidValue, Message, MessageKind, fit_rank
from dssm.discovery import (
    AllocationLedger,
    AlreadyReleased,
    InsufficientCapacity,
    NoAgent,
    ServiceKind,
    StorageQuery,
    VirtualDomain,
    best_fit,
    finalize_query,
    find_storage,
    handle_query_resp,
    parse_endpoint_url,
    standard_endpoints,
    transfer_file,
)
from dssm.election import ElectionPolicy, heard_members, select_agent
from dssm.membership import GosNode
from dssm.metrics import KIND_THROUGHPUT, KIND_TRANSFER_RESPONSE
from dssm.simnet import LinkConfig, NodeCrashed, UnknownNode, export_trace

TWO_DOMAIN = [
    (1, 1, 1024.0, 2800.0),
    (2, 1, 2048.0, 2660.0),
    (3, 2, 8192.0, 2800.0),
]


def _ignore(query, candidate, elapsed_ms, route):
    """An on_complete for queries whose completion the test does not read."""


def entry(nid, cap=100.0, power=2800.0, ip="192.168.16.10"):
    return AitEntry(nid, ip, cap, power)


# -- endpoints -------------------------------------------------------------


def test_endpoint_url_format():
    eps = standard_endpoints(entry(1, ip="192.168.16.10"))
    urls = {ep.kind: ep.url for ep in eps}
    assert urls[ServiceKind.STORAGE] == "http://192.168.16.10:8080/srmd/services/storservice"
    assert urls[ServiceKind.MANAGEMENT] == "http://192.168.16.10:8080/srmd/services/mgtservice"
    assert urls[ServiceKind.SECURITY] == "http://192.168.16.10:8080/srmd/services/secservice"
    assert urls[ServiceKind.COMMUNICATION] == "http://192.168.16.10:8080/srmd/services/comservice"


def test_endpoint_urls_parse_back():
    agent = entry(4, ip="10.20.30.40")
    for ep in standard_endpoints(agent):
        ip, port, kind = parse_endpoint_url(ep.url)
        assert ip == str(agent.ip)
        assert port == 8080
        assert kind is ep.kind


@pytest.mark.parametrize("url", [
    "http://10.0.0.1:8080/other/services/storservice",
    "ftp://10.0.0.1:8080/srmd/services/storservice",
    "http://10.0.0.1:8080/srmd/services/bogus",
    "http://10.0.0.1:99999/srmd/services/storservice",
    "http://10.0.0.1:port/srmd/services/storservice",
    "http://10.0.0.1/srmd/services/storservice",
    "http://:8080/srmd/services/storservice",
    "http:///srmd/services/storservice",
    "http://[10.0.0.1:8080/srmd/services/storservice",
])
def test_parse_rejects_foreign_urls(url):
    with pytest.raises(InvalidValue):
        parse_endpoint_url(url)


# -- registry ---------------------------------------------------------------


def test_two_domains_register_two_agents():
    reg = VirtualDomain()
    a1, a2 = entry(1), entry(5, ip="10.0.2.1")
    reg.register_agent(a1, domain=1)
    reg.register_agent(a2, domain=2)
    assert len(reg) == 2
    assert reg.agent_of(1) == a1


def test_reregistration_replaces_same_domain():
    reg = VirtualDomain()
    old = entry(1, power=2660.0)
    new = entry(2, power=2800.0, ip="10.0.1.2")
    reg.register_agent(old, domain=1)
    reg.register_agent(new, domain=1)
    assert len(reg) == 1
    assert reg.agent_of(1) == new


def test_lookup_service_ordered_by_domain():
    reg = VirtualDomain()
    a2 = entry(5, ip="10.0.2.1")
    a1 = entry(1, ip="10.0.1.1")
    reg.register_agent(a2, domain=2)
    reg.register_agent(a1, domain=1)
    eps = reg.lookup_service(ServiceKind.STORAGE)
    assert [ep.agent for ep in eps] == [1, 5]
    assert all(ep.kind is ServiceKind.STORAGE for ep in eps)
    assert reg.lookup_service(ServiceKind.SECURITY) != []
    empty = VirtualDomain()
    assert empty.lookup_service(ServiceKind.STORAGE) == []


def test_registry_is_the_virtual_group_through_leaves_and_crashes():
    w = World([(1, 1, 100.0, 2800.0), (2, 1, 100.0, 2660.0), (3, 1, 100.0, 2500.0),
               (4, 2, 100.0, 2800.0), (5, 2, 100.0, 2660.0)])

    def registered():
        return {e.node_id for e in w.registry.agents().values()}

    w.join_all()
    w.settle(1000.0)
    assert registered() == set(w.net.virtual_members) == {1, 4}
    w.leave(1, at=1000.0)
    w.settle(1500.0)
    assert registered() == set(w.net.virtual_members) == {2, 4}
    w.leave(2, at=1500.0)
    w.settle(2000.0)
    w.leave(3, at=2000.0)
    assert w.registry.agent_of(1) is None
    assert registered() == set(w.net.virtual_members) == {4}
    # A crashed agent stays registered until its domain re-elects.
    w.crash(4, at=2500.0)
    assert 4 in w.net.virtual_members
    w.settle(3500.0)
    assert registered() == set(w.net.virtual_members) == {5}
    w.leave(5, at=3500.0)
    assert w.registry.agent_of(2) is None
    assert len(w.registry) == len(w.net.virtual_members) == 0


def test_virtual_group_iterates_node_ids_in_ascending_order():
    reg = VirtualDomain()
    reg.register_agent(entry(9), domain=1)
    reg.register_agent(entry(3, ip="10.0.2.1"), domain=2)
    reg.register_agent(entry(5, ip="10.0.3.1"), domain=3)
    assert list(reg) == [3, 5, 9]
    assert 5 in reg and 1 not in reg
    reg.deregister(5, domain=1)  # not domain 1's agent: no change
    assert list(reg) == [3, 5, 9]


def test_virtual_group_ids_follow_every_change_of_the_registry():
    # Iteration, `in` and len() read the registry, so they follow each change.
    reg = VirtualDomain()

    def group_is(ids):
        assert list(reg) == ids == sorted(e.node_id for e in reg.agents().values())
        assert len(reg) == len(ids)
        assert [nid for nid in range(1, 12) if nid in reg] == ids

    group_is([])
    a9, a3, a7 = entry(9), entry(3, ip="10.0.2.1"), entry(7, ip="10.0.1.7")
    reg.register_agent(a9, domain=1)
    group_is([9])
    reg.register_agent(a3, domain=2)
    group_is([3, 9])
    reg.register_agent(a7, domain=1)  # replaces 9
    group_is([3, 7])
    reg.deregister(3, domain=1)  # not domain 1's agent
    group_is([3, 7])
    reg.deregister(7, domain=1)
    group_is([3])
    reg.register_agent(entry(5, ip="10.0.3.1"), domain=3)
    group_is([3, 5])


def test_every_registrant_is_its_elections_pick(monkeypatch):
    # The registry checks nothing, so each registration of a run is checked
    # here: the registrant is an agent of the domain it names, and its
    # election over its view keeps it. Thirty generated draws under each
    # policy, run to their end; their closing consistency assertion, which
    # two of them fail (ROADMAP item 1), is left out.
    update_goldens, register = load_script("update_goldens"), VirtualDomain.register_agent
    calls = []

    def checked(registry, agent, *, domain):
        node = world.nodes[agent.node_id]
        assert node.is_agent and node.domain == domain
        heard = heard_members(node, world.net.now)
        assert select_agent(node.ait, node.node_id, node.policy, heard) == node.node_id
        calls.append(agent.node_id)
        register(registry, agent, domain=domain)

    monkeypatch.setattr(VirtualDomain, "register_agent", checked)
    for policy in ElectionPolicy:
        for i in range(30):
            doc = update_goldens.generated_doc(policy.value, f"d{i}")
            end = doc["script"].pop()
            assert end["action"] == "assert_quiescent_consistency"
            world = scenario.ScenarioWorld(scenario.scenario_from_json(doc))
            world.run().net.run_until(end["time_ms"])
    assert len(calls) == 842


# -- best fit ------------------------------------------------------------------


def test_best_fit_prefers_largest_then_lowest_id():
    ait = Ait([entry(1, cap=100.0), entry(2, cap=300.0, ip="10.0.0.2"),
               entry(3, cap=300.0, ip="10.0.0.3")])
    assert best_fit(ait, 50.0).node_id == 2
    assert best_fit(ait, 301.0) is None
    assert best_fit(ait, 300.0).node_id == 2


# -- find_storage over the wire ---------------------------------------------


def run_query(w, requester, required, at):
    w.settle(at)
    agent = w.nodes[w.nodes[requester].agent]
    done = []
    q = StorageQuery(requester, required, query_id=random.getrandbits(32))
    find_storage(agent, w.net, q, lambda *a: done.append(a))
    w.settle(at + 500.0)
    assert done, "query never completed"
    _, candidate, elapsed, route = done[0]
    return candidate, elapsed, route


def joined_two_domain():
    w = World(TWO_DOMAIN)
    w.join(1, at=0.0)
    w.join(2, at=50.0)
    w.join(3, at=100.0)
    w.settle(1000.0)
    return w


def test_local_query_sends_no_interdomain_traffic():
    w = joined_two_domain()
    before = len(w.sends("QUERY"))
    candidate, elapsed, route = run_query(w, 1, 1500.0, 1000.0)
    assert candidate.node_id == 2  # 2048 MB remaining wins locally
    assert route == "local"
    assert elapsed == 0.0
    assert len(w.sends("QUERY")) == before


def test_remote_query_one_round():
    w = joined_two_domain()
    candidate, elapsed, route = run_query(w, 1, 4096.0, 1000.0)
    assert candidate.node_id == 3
    assert route == "remote"
    assert elapsed == w.nodes[1].params.response_window_ms
    assert len(w.sends("QUERY")) == 1
    assert len(w.sends("QUERY_RESP")) == 1


def test_unsatisfiable_query_returns_none():
    w = joined_two_domain()
    candidate, _, route = run_query(w, 1, 10_000_000.0, 1000.0)
    assert candidate is None
    assert route == "remote"


def test_query_on_non_agent_raises():
    w = joined_two_domain()
    q = StorageQuery(2, 10.0, query_id=1)
    with pytest.raises(NoAgent):
        find_storage(w.nodes[2], w.net, q, _ignore)  # node 2 is not the agent


def test_query_requires_positive_size():
    with pytest.raises(InvalidValue):
        StorageQuery(1, 0.0, query_id=1)


def test_a_query_the_network_refuses_is_not_left_pending():
    w = World([(1, 1, 1024.0, 2800.0), (2, 1, 2048.0, 2500.0),
               (3, 2, 4096.0, 2800.0), (4, 2, 512.0, 2500.0)])
    w.join_all()
    w.settle(2000.0)
    agent = w.nodes[1]
    assert agent.is_agent
    w.net.crash(1)  # still an agent, but it cannot send
    with pytest.raises(NodeCrashed):
        find_storage(agent, w.net, StorageQuery(1, 100000.0, 7), _ignore)
    assert agent.pending_queries == {}


@pytest.mark.parametrize("window", [-1.0, float("inf"), float("nan")])
def test_a_bad_response_window_refuses_a_remote_query_before_it_is_sent(window):
    w = World(TWO_DOMAIN, overrides={1: {"params": replace(PARAMS, response_window_ms=window)}})
    w.join_all()
    w.settle(1000.0)
    rows = len(w.net.trace)
    with pytest.raises(InvalidValue, match="response window"):
        find_storage(w.nodes[1], w.net, StorageQuery(1, 4096.0, 7), _ignore)
    assert len(w.net.trace) == rows and w.nodes[1].pending_queries == {}
    # A query answered in the domain needs no window.
    done = []
    find_storage(w.nodes[1], w.net, StorageQuery(1, 100.0, 8), lambda *a: done.append(a))
    assert done[0][1].node_id == 2 and done[0][3] == "local"


def test_the_requesters_pick_does_not_depend_on_arrival_order():
    # Answers from remote agents 7 and 8: equal-capacity candidates 5 and 4,
    # a smaller one 6, and no candidate. Node 4, the lowest id of the
    # largest capacity, is the pick in every order, highest id first too.
    w = joined_two_domain()
    agent, done = w.nodes[1], []
    candidates = {5: entry(5, cap=8192.0), 4: entry(4, cap=8192.0),
                  6: entry(6, cap=4096.0), None: None}
    for query_id, order in enumerate(permutations(candidates)):
        find_storage(agent, w.net, StorageQuery(1, 4096.0, query_id), lambda *a: done.append(a))
        for key in order:
            handle_query_resp(agent, w.net, Message(MessageKind.QUERY_RESP, entry(7 + query_id % 2),
                                                    query_id, 0.0, candidates[key]))
        pending = agent.pending_queries[query_id]
        assert pending.best is candidates[4] and pending.best_rank == fit_rank(candidates[4])
        finalize_query(agent, w.net, query_id)
        # An answer after the window closed is ignored.
        handle_query_resp(agent, w.net, Message(MessageKind.QUERY_RESP, entry(9), query_id,
                                                0.0, entry(3, cap=1e6)))
        assert query_id not in agent.pending_queries
    assert len(done) == 24
    assert all(candidate is candidates[4] and route == "remote"
               for _, candidate, _, route in done)


def oracle_two_stage(live, requester_domain, required):
    """Direct scan honoring the local-first contract."""
    def best(cands):
        qualified = [(cap, -nid) for nid, (dom, cap) in cands if cap >= required]
        return -max(qualified)[1] if qualified else None

    items = list(live.items())
    local = best([(n, v) for n, v in items if v[0] == requester_domain])
    if local is not None:
        return local
    return best([(n, v) for n, v in items if v[0] != requester_domain])


def test_random_topologies_match_oracle():
    rng = random.Random(5150)
    for trial in range(60):
        n_domains = rng.randint(1, 3)
        n_nodes = rng.randint(1, 10)
        specs = []
        for nid in range(1, n_nodes + 1):
            dom = rng.randint(1, n_domains)
            cap = rng.choice([64.0, 256.0, 1024.0, 4096.0])
            power = rng.choice([2500.0, 2660.0, 2800.0])
            specs.append((nid, dom, cap, power))
        w = World(specs, seed=trial)
        t = w.join_all(start=0.0, gap=50.0)
        w.settle(t + 1000.0)
        live = {nid: (dom, cap) for nid, dom, cap, _ in specs}
        for _ in range(10):
            requester = rng.randint(1, n_nodes)
            required = rng.choice([32.0, 128.0, 512.0, 2048.0, 8192.0])
            agent_id = w.nodes[requester].agent
            done = []
            q = StorageQuery(requester, required, query_id=rng.getrandbits(32))
            find_storage(w.nodes[agent_id], w.net, q, lambda *a: done.append(a))
            w.settle(w.net.now + 500.0)
            got = done[0][1].node_id if done[0][1] else None
            want = oracle_two_stage(live, w.nodes[requester].domain, required)
            assert got == want, f"trial {trial}: got {got}, want {want}"


# -- answers from the heard board ------------------------------------------------

# Domain 1's agent is node 1 (the most power); node 2 has the most capacity.
BOARD_DOMAIN = [
    (1, 1, 1024.0, 2800.0),
    (2, 1, 4096.0, 2660.0),
    (3, 1, 2048.0, 2500.0),
]


def board_world(specs=BOARD_DOMAIN):
    w = World(specs)
    w.join_all()
    w.settle(1000.0)
    agent = w.nodes[1]
    assert agent.is_agent and not agent._own  # it reads the board alone
    return w, agent, AllocationLedger(w.nodes, w.net)


def answer(node, required_mb):
    """The node's answer, checked against best_fit over its AIT."""
    got = node.best_fit(required_mb)
    assert got == best_fit(node.ait, required_mb)
    return got


def test_an_allocation_on_the_top_node_is_answered_after_its_next_taken_heartbeat():
    w, agent, ledger = board_world()
    board = agent._board
    assert answer(agent, 100.0) is board.entries[2]
    ledger.allocate(2, 3000.0)
    # Until node 2's next heartbeat the board, and so the answer, is stale.
    assert answer(agent, 100.0).storage_capacity_mb == 4096.0
    w.settle(w.net.now + w.nodes[2].params.heartbeat_period_ms + 5.0)
    assert board.entries[2] is w.nodes[2].self_entry and not agent._own  # taken
    assert answer(agent, 100.0).node_id == 3
    assert board.ranked() == [board.entries[3], board.entries[2], board.entries[1]]
    assert answer(agent, 2049.0) is None


def test_an_agent_answers_with_its_live_entry_over_its_stale_board_entry():
    _, agent, ledger = board_world([(1, 1, 4096.0, 2800.0), (2, 1, 1024.0, 2660.0),
                                    (3, 1, 2048.0, 2500.0)])
    ledger.allocate(1, 3500.0)  # 596 MB left; the board still reads 4096
    assert agent._board.ranked()[0].node_id == 1
    assert answer(agent, 100.0).node_id == 3
    assert answer(agent, 3000.0) is None
    ledger.release(ledger.allocations[1])
    assert answer(agent, 3000.0) is agent.self_entry


def test_a_member_with_own_records_answers_from_its_own_view():
    # A LEAVE: the board keeps node 2's entry, the agent drops it.
    w, agent, _ = board_world()
    w.leave(2)
    w.settle(w.net.now + 5.0)
    assert agent._own == {2: None} and agent._board.ranked()[0].node_id == 2
    assert answer(agent, 100.0).node_id == 3
    # Missed fan-outs: node 1, crashed, misses node 2's heartbeat with its
    # new capacity, which the board takes.
    w, agent, ledger = board_world()
    ledger.allocate(2, 3000.0)
    w.crash(1)
    w.settle(w.net.now + w.nodes[2].params.heartbeat_period_ms + 5.0)
    w.net.revive(1)
    assert agent._own[2][1].storage_capacity_mb == 4096.0
    assert agent._board.entries[2].storage_capacity_mb == 1096.0
    assert answer(agent, 100.0).storage_capacity_mb == 4096.0


@pytest.mark.parametrize("reader, peer, other", permutations((1, 2, 3)))
def test_a_three_way_tie_of_self_own_record_and_board_goes_to_the_lowest_id(reader, peer, other):
    # The reader's live self_entry, its own record of `peer` (peer's heartbeat
    # after an allocation reached the board while the reader was crashed) and
    # the board's first entry it reads (`other`) all hold 1024 MB.
    specs = [(nid, 1, 1024.0, 2800.0 - 100.0 * nid) for nid in (1, 2, 3, 4)]
    w, _, ledger = board_world(specs)
    node, board = w.nodes[reader], w.nodes[reader]._board
    ledger.allocate(4, 1.0)  # off the top of the board, for every reader
    w.settle(w.net.now + PARAMS.heartbeat_period_ms)
    ledger.allocate(peer, 512.0)
    # The reader misses the peer's next heartbeat alone: the four nodes'
    # heartbeats are 50 ms apart.
    beat = w.sends("HEARTBEAT", src=peer)[-1].time_ms + PARAMS.heartbeat_period_ms
    w.crash(reader, at=beat - 10.0)
    w.settle(beat + 10.0)
    w.net.revive(reader)
    assert set(node._own) == {peer}
    assert node._own[peer][1].storage_capacity_mb == 1024.0
    assert board.entries[peer].storage_capacity_mb == 512.0
    readable = [e for e in board.ranked() if e.node_id not in node._own and e.node_id != reader]
    assert readable[0] is board.entries[other]
    # The board's top entry is the reader itself when it has the lower id.
    assert (board.ranked()[0].node_id == reader) is (reader < other)
    assert answer(node, 100.0).node_id == 1
    assert answer(node, 1024.0).node_id == 1
    assert answer(node, 1024.5) is None


def test_a_tie_with_the_boards_top_entry_dropped_by_an_own_record():
    # Node 1 leaves: the board keeps its entry, the top at equal capacity,
    # and each follower holds an own None record of it.
    w, _, _ = board_world([(nid, 1, 1024.0, 2800.0 - 100.0 * nid) for nid in (1, 2, 3, 4)])
    w.leave(1)
    w.settle(w.net.now + 5.0)
    for reader in (2, 3, 4):
        node = w.nodes[reader]
        assert node._own == {1: None} and node._board.ranked()[0].node_id == 1
        assert answer(node, 100.0).node_id == 2


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**16), loss=st.floats(0.0, 0.1),
       policy=st.sampled_from(list(ElectionPolicy)))
def test_every_answer_is_the_best_fit_of_the_answering_agents_ait(seed, loss, policy):
    # Each agent's answer, to its own query or a remote one, equals best_fit
    # over its AIT when it is given, through joins, leaves, crashes, rejoins,
    # allocations and releases.
    rng = random.Random(seed)
    specs = [(nid, (nid - 1) // 4 + 1, rng.choice((512.0, 1024.0, 2048.0, 4096.0)),
              rng.choice((2500.0, 2660.0, 2800.0))) for nid in range(1, 13)]
    w = World(specs, seed=seed, intra=replace(INTRA, drop_probability=loss),
              inter=replace(INTER, drop_probability=loss), policy=policy)
    ledger = AllocationLedger(w.nodes, w.net)
    answers, held, down, fit = [], [], [], GosNode.best_fit

    def checked(node, required_mb):
        got = fit(node, required_mb)
        assert got == best_fit(node.ait, required_mb)
        answers.append(got)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GosNode, "best_fit", checked)
        t = w.join_all() + 500.0
        for query_id in range(60):
            w.settle(t)
            t += rng.choice((50.0, 100.0, 250.0))
            live, r = w.members(), rng.random()
            if r < 0.4 and live:
                requester = rng.choice(live)
                agent = w.nodes.get(requester.agent)
                if agent is not None and agent.is_agent and agent.node_id not in w.net.crashed:
                    required = rng.choice((200.0, 1000.0, 2500.0, 4000.0))
                    find_storage(agent, w.net, StorageQuery(requester.node_id, required, query_id),
                                 _ignore)
            elif r < 0.6 and live:
                node, size = rng.choice(live), rng.choice((100.0, 500.0, 1500.0))
                if node.self_entry.storage_capacity_mb >= size:
                    held.append(ledger.allocate(node.node_id, size))
            elif r < 0.7 and held:
                ledger.release(held.pop(rng.randrange(len(held))))
            elif r < 0.85 and len(live) > 4:
                node = rng.choice(live)
                if r < 0.775:
                    node.initiate_leave(w.net)
                else:
                    w.net.crash(node.node_id)
                down.append(node)
            elif down:
                node = down.pop(rng.randrange(len(down)))
                w.net.revive(node.node_id)
                node.reset_offline()
                node.initiate_join(w.net)
        w.settle(t + 500.0)
    assert answers


def test_no_storage_answer_scans_an_ait(monkeypatch):
    # The golden agent_crash and generated cases, each run and its two
    # --compare-static runs. Their agents come to hold own records of
    # dropped peers, yet every answer, to a local query or a remote one,
    # reads the board and those records: none calls best_fit or builds an AIT.
    update_goldens = load_script("update_goldens")
    answering, answers, scans = [], Counter(), Counter()

    def answers_with(name, fn):
        def wrapped(*args, **kwargs):
            answers[name] += 1
            answering.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                answering.pop()
        return wrapped

    def scans_with(name, fn):
        def wrapped(*args, **kwargs):
            scans[name] += bool(answering)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(scenario, "find_storage", answers_with("find_storage", find_storage))
    monkeypatch.setattr(discovery, "handle_query",
                        answers_with("handle_query", discovery.handle_query))
    monkeypatch.setattr(discovery, "best_fit", scans_with("best_fit", best_fit))
    monkeypatch.setattr(GosNode, "ait", property(scans_with("ait", GosNode.ait.fget)))
    docs = {"agent_crash": json.loads(scenario.bundled_scenario_path("agent_crash").read_text())}
    docs.update((f"generated@{policy.value}", update_goldens.generated_doc(policy.value))
                for policy in ElectionPolicy)
    for name, doc in docs.items():
        update_goldens.case_digests(doc, name)
    assert answers["find_storage"] > 0 and answers["handle_query"] > 0
    assert +scans == Counter()


# -- allocation ----------------------------------------------------------------


def allocation_world():
    w = World(TWO_DOMAIN)
    w.join_all()
    w.settle(500.0)
    return w, AllocationLedger(w.nodes, w.net)


def test_allocate_reduces_capacity():
    w, ledger = allocation_world()
    alloc = ledger.allocate(1, 512.0)
    assert ledger.allocations == {alloc.allocation_id: alloc}
    assert w.nodes[1].self_entry.storage_capacity_mb == 512.0


def test_allocate_exact_boundary():
    w, ledger = allocation_world()
    ledger.allocate(1, 1024.0)
    assert w.nodes[1].self_entry.storage_capacity_mb == 0.0
    with pytest.raises(InsufficientCapacity):
        ledger.allocate(1, 0.001)


def test_overallocation_rejected_capacity_unchanged():
    w, ledger = allocation_world()
    with pytest.raises(InsufficientCapacity):
        ledger.allocate(1, 1024.5)
    assert w.nodes[1].self_entry.storage_capacity_mb == 1024.0


def test_release_restores_and_double_release_fails():
    w, ledger = allocation_world()
    alloc = ledger.allocate(2, 1000.0)
    ledger.release(alloc)
    assert w.nodes[2].self_entry.storage_capacity_mb == 2048.0
    with pytest.raises(AlreadyReleased):
        ledger.release(alloc)


def test_allocate_unknown_or_dead_node():
    w, ledger = allocation_world()
    with pytest.raises(UnknownNode):
        ledger.allocate(42, 1.0)
    w.crash(3)
    with pytest.raises(UnknownNode):
        ledger.allocate(3, 1.0)


def test_interleaved_allocations_conserve_capacity():
    w, ledger = allocation_world()
    rng = random.Random(13)
    initial = {nid: n.self_entry.storage_capacity_mb for nid, n in w.nodes.items()}
    open_allocs = []
    for _ in range(300):
        if open_allocs and rng.random() < 0.45:
            ledger.release(open_allocs.pop(rng.randrange(len(open_allocs))))
        else:
            target = rng.choice([1, 2, 3])
            size = rng.choice([16.0, 64.0, 128.0])
            try:
                open_allocs.append(ledger.allocate(target, size))
            except InsufficientCapacity:
                pass
        for nid, node in w.nodes.items():
            held = sum(a.size_mb for a in open_allocs if a.node == nid)
            assert node.self_entry.storage_capacity_mb + held == initial[nid]


def test_the_ledger_holds_exactly_the_unreleased_allocations():
    w, ledger = allocation_world()
    rng = random.Random(29)
    live, released = [], []
    for _ in range(200):
        if live and rng.random() < 0.5:
            alloc = live.pop(rng.randrange(len(live)))
            ledger.release(alloc)
            released.append(alloc)
        else:
            try:
                live.append(ledger.allocate(rng.choice([1, 2, 3]), rng.choice([16.0, 64.0])))
            except InsufficientCapacity:
                pass
    assert released and live
    assert ledger.allocations == {a.allocation_id: a for a in live}
    # A released allocation is gone from the ledger and still refused again.
    with pytest.raises(AlreadyReleased):
        ledger.release(released[0])
    assert ledger.allocations == {a.allocation_id: a for a in live}


def test_allocation_propagates_via_heartbeat():
    w, ledger = allocation_world()
    ledger.allocate(3, 4096.0)
    w.settle(w.net.now + 2 * w.nodes[3].params.heartbeat_period_ms)
    # domain peers of node 3: none; its own table reflects it immediately
    assert w.nodes[3].ait.get(3).storage_capacity_mb == 4096.0


# -- transfers -------------------------------------------------------------------


def transfer_world(inter_delay, inter_mbps=100.0):
    inter = LinkConfig(delay_ms=inter_delay, drop_probability=0.0, bandwidth_mbps=inter_mbps)
    w = World([(1, 1, 4096.0, 2800.0), (2, 2, 4096.0, 2800.0)], inter=inter)
    w.join_all()
    w.settle(500.0)
    return w


def test_transfer_100mb_at_100mbps():
    w = transfer_world(inter_delay=0.0)
    resp, thr = transfer_file(w.net, w.nodes[1].self_entry, 2, 100.0)
    assert resp.kind == KIND_TRANSFER_RESPONSE and resp.unit == "ms"
    assert thr.kind == KIND_THROUGHPUT and thr.unit == "Mbps"
    assert resp.value == pytest.approx(8388.608, abs=1e-9)
    # with zero delay the MB->bits factor cancels: exactly the link rate
    assert thr.value == pytest.approx(100.0, rel=1e-12)


def test_transfer_delay_is_additive():
    flat = transfer_file(transfer_world(0.0).net, entry(1, ip="10.0.1.2"), 2, 100.0)[0]
    delayed = transfer_file(transfer_world(50.0).net, entry(1, ip="10.0.1.2"), 2, 100.0)[0]
    assert delayed.value == pytest.approx(flat.value + 50.0, abs=1e-9)


def test_throughput_non_increasing_in_delay():
    values = []
    for delay in (0.0, 10.0, 50.0, 100.0, 500.0):
        w = transfer_world(delay)
        values.append(transfer_file(w.net, w.nodes[1].self_entry, 2, 10.0)[1].value)
    assert values == sorted(values, reverse=True)


def test_transfer_unknown_node():
    w = transfer_world(0.0)
    with pytest.raises(UnknownNode):
        transfer_file(w.net, w.nodes[1].self_entry, 99, 1.0)


@pytest.mark.parametrize("size_mb, delay_ms, bandwidth_mbps", [
    (1e308, 20.0, 100.0),   # the byte count overflows
    (1.0, 20.0, 1e-305),    # the DATA's serialization time overflows, a control message's not
    (1.0, 0.0, 1e306),      # no time at all: the throughput divides by zero
    (1e-27, 0.0, 1e300),    # 1e-323 ms, whose seconds underflow to zero
])
def test_transfer_of_non_finite_or_zero_response_time_is_refused(size_mb, delay_ms,
                                                                 bandwidth_mbps):
    w = transfer_world(delay_ms, bandwidth_mbps)
    rows, pending = len(w.net.trace), w.net.pending()
    with pytest.raises(InvalidValue, match="response time"):
        transfer_file(w.net, w.nodes[1].self_entry, 2, size_mb)
    assert (len(w.net.trace), w.net.pending()) == (rows, pending)


def test_a_transfer_of_int_megabytes_writes_a_float_size(tmp_path):
    # A message row's size is a float (README), whatever type size_mb has.
    w = transfer_world(0.0)
    transfer_file(w.net, w.nodes[1].self_entry, 2, 5)
    w.settle(w.net.now + 100_000.0)
    export_trace(w.net.trace, tmp_path / "trace.csv")
    rows = [line for line in (tmp_path / "trace.csv").read_text().splitlines()
            if ",DATA," in line]
    assert [row.split(",", 2)[2] for row in rows] == [
        "send,1,2,DATA,5242880.0", "deliver,1,2,DATA,5242880.0"]


def test_transfer_rides_the_trace():
    w = transfer_world(0.0)
    resp, _ = transfer_file(w.net, w.nodes[1].self_entry, 2, 1.0)
    sent_at = w.net.now
    w.settle(w.net.now + 100_000.0)
    data = w.delivers("DATA")
    assert len(data) == 1
    assert data[0].time_ms == pytest.approx(sent_at + resp.value, abs=1e-9)
