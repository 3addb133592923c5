"""`ScenarioWorld.check_consistency` against its reference, which builds
every live member's AIT view: the same text, or None, in every state."""

from dataclasses import replace

from conftest import load_script
from dssm.election import ElectionPolicy, heard_members, select_agent
from dssm.membership import GosNode
from dssm.scenario import AssertConsistency, ScenarioWorld, scenario_from_json
from test_fault_patterns import REPRODUCERS, one_domain


def reference_check(self) -> str | None:
    """`check_consistency` as it was when it built every live member's view."""
    domains = sorted({spec.domain for spec in self.scenario.node_specs})
    for domain in domains:
        live = self.live_members(domain)
        if not live:
            continue
        ref, ref_ait = live[0], live[0].ait  # a view, built on each read
        ref_keys = ref_ait.ids()
        for node in live[1:]:
            if node.ait.ids() != ref_keys:
                return (f"ait-divergence domain={domain}: node {node.node_id} "
                        f"sees {sorted(node.ait.ids())}, node {ref.node_id} "
                        f"sees {sorted(ref_keys)}")
        agents = {node.agent for node in live}
        if len(agents) != 1:
            views = {node.node_id: node.agent for node in live}
            return f"agent-disagreement domain={domain}: {views}"
        agent = agents.pop()
        agent_entry = ref_ait.get(agent)
        if agent_entry is None:
            return f"agent-not-in-ait domain={domain}: agent {agent}"
        expected = select_agent(ref_ait, agent, ref.policy, heard_members(ref, self.net.now))
        if expected == agent:
            continue
        if ref.policy is ElectionPolicy.MAX_POWER:
            top = max(e.processing_power_mhz for e in ref_ait.entries())
            return (f"agent-not-argmax domain={domain}: agent {agent} has "
                    f"{agent_entry.processing_power_mhz} MHz, max is {top}")
        return (f"agent-not-selected domain={domain}: agent {agent}, "
                f"{ref.policy.value} selects {expected}")
    return None


def checked(world) -> str | None:
    """The check's result, which must be the reference's."""
    got = world.check_consistency()
    assert got == reference_check(world), world.net.now
    return got


def checked_every(world, period_ms: float, until_ms: float):
    """Run the world's script, its own assertions left out, through
    `until_ms`, checking the world every `period_ms` from 0 on; yield each
    check's result."""
    base = world.scenario
    script = [action for action in base.script if not isinstance(action, AssertConsistency)]
    done, t = 0, 0.0
    while t <= until_ms:
        due = done
        while due < len(script) and script[due].time_ms <= t:
            due += 1
        world.scenario = replace(base, script=script[done:due])
        world.run()
        world.net.run_until(t)
        done = due
        yield checked(world)
        t += period_ms
    world.scenario = base


def test_the_check_reads_like_its_reference_over_generated_runs():
    # Thirty draws of the golden generator's shape, ten under each policy:
    # joins, leaves, crashes, rejoins and queries over lossy links.
    update_goldens = load_script("update_goldens")
    policies = list(ElectionPolicy)
    results = []
    for i in range(30):
        doc = update_goldens.generated_doc(policies[i % 3].value, f"d{i}")
        world = ScenarioWorld(scenario_from_json(doc))
        results += list(checked_every(world, 37.0, doc["script"][-1]["time_ms"]))
    violations = [result for result in results if result is not None]
    assert len(results) > 5000 and len(violations) > 100
    assert {v.split(" ", 1)[0] for v in violations} >= {"ait-divergence", "agent-disagreement"}


def test_the_check_reads_like_its_reference_over_the_reproducers():
    for world in (make() for make in REPRODUCERS):
        results = list(checked_every(world, 37.0, 6000.0))
        assert results[-1] is not None and results[-1].startswith("agent-disagreement")


def _domain(powers, script=()):
    """One lossless domain of nodes at the given powers, joining in the
    order of `powers`, 25 ms apart."""
    return ScenarioWorld(one_domain("hand_built", powers, "max_power", 0.0, script))


def test_the_check_reads_like_its_reference_with_own_records():
    world = _domain({nid: 2000.0 + nid for nid in range(1, 6)})
    assert list(checked_every(world, 50.0, 1500.0))[-1] is None
    board, now = world.net.heard_boards[1], world.net.now
    # An own record newer than the board's, of another capacity: the view's
    # ids are unchanged.
    newer = replace(board.entries[2], storage_capacity_mb=512.0)
    world.nodes[3]._hear(2, (now, newer))
    assert checked(world) is None
    # An own None record: the member has dropped a peer the board holds,
    # first a member past the first, then the first itself.
    world.nodes[4]._hear(5, None)
    assert checked(world).startswith("ait-divergence domain=1: node 4 ")
    world.nodes[1]._hear(2, None)
    assert checked(world).startswith("ait-divergence domain=1: node 2 ")


def _off_board(world, *peers):
    """Take the peers' fan-outs off their settled domain's board, as if the
    board had refused them, and return what it held of each."""
    board = world.net.heard_boards[1]
    board._ranked = None
    return {peer: (board.heard.pop(peer), board.entries.pop(peer)) for peer in peers}


def test_the_check_reads_like_its_reference_for_members_not_yet_on_the_board():
    # Node 2 is off the board and every other member but node 3 holds an
    # own record of it, as after a refused JOIN: node 2 reads the board
    # alone and sees what node 1 sees, though the board lacks it; node 3
    # does not, until it holds a record of node 2 too.
    world = _domain({nid: 2000.0 + nid for nid in range(1, 6)})
    assert list(checked_every(world, 50.0, 1500.0))[-1] is None
    record = _off_board(world, 2)[2]
    for nid in (1, 4, 5):
        world.nodes[nid]._hear(2, record)
    assert 2 in world.net.heard_boards[1].plain_readers(world.nodes[1].ait.ids())
    assert checked(world).startswith("ait-divergence domain=1: node 3 ")
    world.nodes[3]._hear(2, record)
    assert checked(world) is None
    # Nodes 1 and 2 off the board, and no record of either: node 2 sees
    # itself and not node 1, as many ids as node 1 sees.
    world = _domain({nid: 2000.0 + nid for nid in range(1, 6)})
    list(checked_every(world, 50.0, 1500.0))
    _off_board(world, 1, 2)
    assert checked(world).startswith("ait-divergence domain=1: node 2 ")
    # Node 1 has dropped node 4 and holds a record of node 5, which is off
    # the board: it sees as many ids as the board holds, other ones.
    world = _domain({nid: 2000.0 + nid for nid in range(1, 6)})
    list(checked_every(world, 50.0, 1500.0))
    world.nodes[1]._hear(5, _off_board(world, 5)[5])
    world.nodes[1]._hear(4, None)
    assert checked(world).startswith("ait-divergence domain=1: node 2 ")


def test_the_check_reads_like_its_reference_for_a_lone_or_crashed_member():
    # Node 1, the first live member, crashes at 1500 ms, then node 3; the
    # others time them out 600 ms later. Then all but node 5 crash.
    crashes = [{"time_ms": t, "action": "crash", "node": nid}
               for t, nid in ((1500.0, 1), (1600.0, 3), (3000.0, 2), (3000.0, 4))]
    world = _domain({nid: 2000.0 + nid for nid in range(1, 6)}, crashes)
    results = list(checked_every(world, 13.0, 4000.0))
    assert any(results) and results[-1] is None
    assert [node.node_id for node in world.live_members(1)] == [5]
    # A domain whose one node joined alone.
    world = _domain({7: 2000.0})
    assert list(checked_every(world, 50.0, 500.0))[-1] is None


def test_a_settled_domain_checkpoint_builds_the_first_members_view_alone(monkeypatch):
    # Sixty-four settled members that hold no own record: the check builds
    # node 1's AIT and reads the board for the others. A member holding an
    # own record is checked through its view.
    world = _domain({nid: 1000.0 + 37.0 * nid for nid in range(1, 65)})
    world.run()
    reads, ait = [], GosNode.ait.fget

    def counted(node):
        reads.append(node.node_id)
        return ait(node)

    monkeypatch.setattr(GosNode, "ait", property(counted))
    assert world.check_consistency() is None and reads == [1]
    board, node = world.net.heard_boards[1], world.nodes[40]
    node._hear(7, (board.heard[7], board.entries[7]))
    reads.clear()
    assert world.check_consistency() is None and reads == [1, 40]
