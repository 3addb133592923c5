import heapq
import random
from collections import Counter
from dataclasses import replace
from operator import is_

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import ScriptedDraws, load_script
from dssm import scenario
from dssm.core import (AitEntry, InvalidValue, KIND_NAMES, Message, MessageKind,
                       transit_size_bytes)
from dssm.discovery import VirtualDomain
from dssm.metrics import export_metrics
from dssm.simnet import (
    InvalidTopology,
    LinkConfig,
    Network,
    NodeCrashed,
    TRACE_HEADER,
    Topology,
    Trace,
    TraceRow,
    UnknownNode,
    VIRTUAL,
    export_trace,
)

FAST = LinkConfig(delay_ms=10.0, drop_probability=0.0, bandwidth_mbps=100.0)


def topo(nodes, intra=FAST, inter=FAST):
    return Topology(dict(nodes), intra, inter)


def entry(node_id, cap=100.0, power=2800.0):
    return AitEntry(node_id, "10.0.0.%d" % (node_id % 250 + 1), cap, power)


class Recorder:
    """Collects everything delivered to one node."""

    def __init__(self):
        self.messages = []
        self.timers = []

    def on_message(self, net, msg):
        self.messages.append((net.now, msg))

    def on_timer(self, net, tag):
        self.timers.append((net.now, tag))


def wire(net, node_ids):
    recs = {}
    for n in node_ids:
        recs[n] = Recorder()
        net.register_handler(n, recs[n])
    return recs


def test_create_network_starts_empty():
    net = Network(topo({1: 1, 2: 1, 3: 1}), seed=42)
    assert net.now == 0.0
    assert net.pending() == 0


def test_node_without_domain_rejected():
    with pytest.raises(InvalidTopology):
        Network(topo({1: 1, 2: None}), seed=0)


def test_ids_that_are_not_exact_ints_rejected():
    # They pass the range checks, but a trace would print `send,3.0,...` or
    # `domainTrue`, while its deliver rows print the sender entry's int id.
    for nodes, message in [({1: 1, 3.0: 1}, "node id 3.0 is not an int"),
                           ({2: 1, True: 2}, "node id True is not an int"),
                           ({1: 1, 2: 1.0}, "domain 1.0 is not an int"),
                           ({1: 1, 2: True}, "domain True is not an int")]:
        with pytest.raises(InvalidTopology) as info:
            Network(topo(nodes), seed=0)
        assert str(info.value) == message
    net = Network(topo({1: 1, 3: 1, 2**32 - 1: 0, 4: 65535}), seed=0)
    assert net.domain_members(1) == (1, 3)


def test_bad_link_config_rejected():
    with pytest.raises(InvalidTopology):
        LinkConfig(delay_ms=-1.0, drop_probability=0.0, bandwidth_mbps=1.0)
    with pytest.raises(InvalidTopology):
        LinkConfig(delay_ms=0.0, drop_probability=1.5, bandwidth_mbps=1.0)
    with pytest.raises(InvalidTopology):
        LinkConfig(delay_ms=0.0, drop_probability=0.0, bandwidth_mbps=0.0)


NON_FINITE_LINKS = [
    *[(field, value, f"{field} {value} must be finite")
      for value in (float("nan"), float("inf"), float("-inf"))
      for field in ("delay_ms", "bandwidth_mbps")],
    # 73 bytes (QUERY_RESP) at 1e-320 Mbps take 584 / 1e-317 ms, which is inf.
    ("bandwidth_mbps", 1e-320, "delay_ms 10.0 and bandwidth_mbps 1e-320 give a 73-byte "
                               "message a transit time that is not finite"),
]


@pytest.mark.parametrize("field,value,message", NON_FINITE_LINKS,
                         ids=[f"{value}-{field}" for field, value, _ in NON_FINITE_LINKS])
def test_non_finite_link_value_rejected(field, value, message):
    # By transit_ms a delivery over such a link would be queued at a NaN or
    # infinite time, which has no place in the heap's (time, seq) order.
    with pytest.raises(InvalidTopology) as info:
        replace(FAST, **{field: value})
    assert str(info.value) == message


LOSSY = LinkConfig(delay_ms=10.0, drop_probability=0.5, bandwidth_mbps=100.0)


def _leaves_nothing(net, error, send):
    """send() raises error, and the trace, the queue and the generator are
    as they were before it."""
    before = len(net.trace), net.pending(), net.rng.getstate()
    with pytest.raises(error):
        send()
    assert (len(net.trace), net.pending(), net.rng.getstate()) == before


def _accepted_sends(net):
    """One lossy unicast and one lossy multicast from node 1, then drain."""
    net.send_unicast(1, 2, Message(MessageKind.HEARTBEAT, entry(1)))
    net.send_multicast(1, 1, Message(MessageKind.HEARTBEAT, entry(1)))
    net.run_until_quiescent(1000.0)


def _same_as_without_the_rejected(net, seed):
    """net ran `_accepted_sends` once before some refused calls; run it
    again, and check that net holds the rows (so the seqs) and generator
    state of a twin that ran it twice with no refused call between."""
    twin = Network(net.topology, seed=seed)
    wire(twin, net.topology.nodes)
    _accepted_sends(twin)
    _accepted_sends(twin)
    _accepted_sends(net)
    assert list(net.trace) == list(twin.trace)
    assert net.rng.getstate() == twin.rng.getstate()


def test_unknown_node_errors():
    net = Network(topo({1: 1, 2: 1, 3: 1}, intra=LOSSY, inter=LOSSY), seed=0)
    wire(net, (1, 2, 3))
    _accepted_sends(net)
    msg = Message(MessageKind.HEARTBEAT, entry(1))
    _leaves_nothing(net, UnknownNode, lambda: net.send_unicast(1, 99, msg))
    _leaves_nothing(net, UnknownNode, lambda: net.send_unicast(99, 1, msg))
    _leaves_nothing(net, UnknownNode, lambda: net.send_unicast(98, 99, msg))
    _leaves_nothing(net, UnknownNode, lambda: net.send_multicast(99, 1, msg))
    _leaves_nothing(net, UnknownNode, lambda: net.set_timer(99, "t", 5.0))
    _leaves_nothing(net, UnknownNode, lambda: net.crash(99))
    _leaves_nothing(net, UnknownNode, lambda: net.revive(99))
    _leaves_nothing(net, UnknownNode, lambda: net.cancel_timer(99, "t"))
    assert net.crashed == set() and net._timers == {}
    _same_as_without_the_rejected(net, seed=0)


def test_unicast_delivery_time():
    # 33-byte HEARTBEAT, 10 ms delay, 100 Mbps: 10 + 264/100000 ms.
    net = Network(topo({1: 1, 2: 1}), seed=0)
    recs = wire(net, [1, 2])
    net.send_unicast(1, 2, Message(MessageKind.HEARTBEAT, entry(1)))
    net.run_until_quiescent(1000.0)
    assert len(recs[2].messages) == 1
    t, msg = recs[2].messages[0]
    assert t == 10.0 + 33 * 8 / (100 * 1000)
    assert msg.kind is MessageKind.HEARTBEAT


def test_drop_probability_zero_always_delivers():
    net = Network(topo({1: 1, 2: 1}), seed=7)
    recs = wire(net, [1, 2])
    for _ in range(100):
        net.send_unicast(1, 2, Message(MessageKind.HEARTBEAT, entry(1)))
    net.run_until_quiescent(1000.0)
    assert len(recs[2].messages) == 100


def test_drop_probability_one_never_delivers():
    lossy = LinkConfig(delay_ms=1.0, drop_probability=1.0, bandwidth_mbps=100.0)
    net = Network(topo({1: 1, 2: 1}, intra=lossy), seed=7)
    recs = wire(net, [1, 2])
    for _ in range(100):
        net.send_unicast(1, 2, Message(MessageKind.HEARTBEAT, entry(1)))
    net.run_until_quiescent(1000.0)
    assert recs[2].messages == []
    sends = [r for r in net.trace if r.kind == "send"]
    delivers = [r for r in net.trace if r.kind == "deliver"]
    assert len(sends) == 100 and delivers == []


def test_multicast_fans_out_to_peers_only():
    net = Network(topo({1: 1, 2: 1, 3: 1, 4: 2}), seed=0)
    recs = wire(net, [1, 2, 3, 4])
    net.send_multicast(1, 1, Message(MessageKind.JOIN, entry(1)))
    net.run_until_quiescent(1000.0)
    assert len(recs[1].messages) == 0  # sender excluded
    assert len(recs[2].messages) == 1
    assert len(recs[3].messages) == 1
    assert len(recs[4].messages) == 0  # other domain


def test_multicast_single_member_domain():
    net = Network(topo({1: 1, 2: 2}), seed=0)
    recs = wire(net, [1, 2])
    net.send_multicast(1, 1, Message(MessageKind.JOIN, entry(1)))
    net.run_until_quiescent(1000.0)
    assert recs[1].messages == [] and recs[2].messages == []
    assert [r.kind for r in net.trace] == ["send"]


def test_multicast_p1_no_deliveries():
    lossy = LinkConfig(delay_ms=1.0, drop_probability=1.0, bandwidth_mbps=100.0)
    net = Network(topo({1: 1, 2: 1, 3: 1}, intra=lossy), seed=0)
    recs = wire(net, [1, 2, 3])
    net.send_multicast(1, 1, Message(MessageKind.JOIN, entry(1)))
    net.run_until_quiescent(1000.0)
    assert all(r.messages == [] for r in recs.values())


def test_multicast_draws_once_per_attempt_in_member_order():
    # An independent generator replays the drop draws: one per member except
    # the sender, ascending id order, each survivor one pending delivery.
    half = LinkConfig(delay_ms=1.0, drop_probability=0.5, bandwidth_mbps=100.0)
    ids = [9, 3, 7, 1, 5, 2, 8, 4, 6]
    net = Network(topo({n: 1 for n in ids}, intra=half), seed=11)
    recs = wire(net, ids)
    net.send_multicast(5, 1, Message(MessageKind.JOIN, entry(5)))
    ref = random.Random(11)
    survivors = [n for n in sorted(ids) if n != 5 and ref.random() >= 0.5]
    assert 0 < len(survivors) < 8
    assert net.pending() == len(survivors)
    net.run_until_quiescent(1000.0)
    delivered = [r for r in net.trace if r.kind == "deliver"]
    assert [int(r.dst) for r in delivered] == survivors
    assert [r.seq for r in delivered] == list(range(2, 2 + len(survivors)))
    assert all(len(recs[n].messages) == (n in survivors) for n in ids)


class Quiet(Recorder):
    """A Recorder whose absorb takes every multicast entry silently, so
    each entry's deliveries are one record holding its recipients tuple."""

    def absorb(self, net, recipients, msg):
        return ()


def test_lossy_records_share_the_fan_out_and_each_nodes_one_tuple():
    # Scripted drops on a lossy link: attempts 0-3 are node 1's fan-out,
    # 4-7 node 2's (it loses 3 and 5), 8-11 node 1's again; the unicasts to
    # node 1 draw 12 and 13.
    lossy = LinkConfig(delay_ms=1.0, drop_probability=0.5, bandwidth_mbps=100.0)
    net = Network(topo({n: 1 for n in range(1, 6)}, intra=lossy), seed=0)
    for n in range(1, 6):
        net.register_handler(n, Quiet())
    net.rng = ScriptedDraws(net, 0.0, drops={5, 7})
    for sender in (1, 2, 1):
        attempts = net.rng.attempts
        net.send_multicast(sender, 1, Message(MessageKind.HEARTBEAT, entry(sender)))
        assert net.rng.attempts == attempts + 4  # one draw per member but the sender
    net.set_timer(1, "a", 0.5)
    net.run_until(0.5)
    net.send_unicast(3, 1, Message(MessageKind.ACCEPT, entry(3)))
    net.send_unicast(4, 1, Message(MessageKind.ACCEPT, entry(4)))
    net.set_timer(1, "b", 3.0)
    net.run_until_quiescent(10.0)
    assert net.rng.attempts == 14
    records = net.trace._records
    delivered = {src: [r[4] for r in records if r[2] == "deliver" and r[3] == src]
                 for src in (1, 2, 3, 4)}
    # A fan-out that lost nothing is its sender's fan-out tuple itself.
    assert delivered[1] == [(2, 3, 4, 5)] * 2
    assert all(dsts is net._fanouts[(1, 1)] for dsts in delivered[1])
    # One that lost attempts holds the survivors in member order.
    assert delivered[2] == [(1, 4)]
    assert delivered[2][0] is not net._fanouts[(1, 2)]
    # Node 1's timer rows and the unicasts to it share one (1,).
    ones = [r[4] for r in records if r[2] == "timer" or r[3] in (3, 4)]
    assert len(ones) == 2 + 2 + 2 and ones[0] == (1,)
    assert all(dsts is ones[0] for dsts in ones)


class DrawPerLossyAttempt(Network):
    """The reference drop rule: an attempt over a lossy link draws once, in
    send and member order, and one over a lossless link never draws. No
    fan-out is cached, and each unicast is queued as a unicast entry of its
    own, never joining another."""

    def send_unicast(self, src, dst, msg):
        # Every unicast, whether a handler's or a reply of absorb's.
        self._require_live(src)
        self._require(dst)
        size = transit_size_bytes(msg)
        self._trace_send(src, (dst,), msg, size)
        link = self.link_between(src, dst)
        drop = link.drop_probability
        if not drop or self.rng.random() >= drop:
            self._seq += 1
            self._pending += 1
            heapq.heappush(self._heap, (self.now + link.transit_ms(size), self._seq, (dst,),
                                        None, [(self._seq, msg)]))

    def send_multicast(self, src, group, msg):
        self._require_live(src)
        if group == VIRTUAL:
            members, link = self.virtual_members, self.inter_link
        else:
            members, link = self.domain_members(group), self.intra_link
        size = transit_size_bytes(msg)
        self._trace_send(src, self._labels.get(group) or (f"domain{group}",), msg, size)
        drop, draw = link.drop_probability, self.rng.random
        recipients = tuple([m for m in members if m != src and (not drop or draw() >= drop)])
        if recipients:
            self._push_delivery(self.now + link.transit_ms(size), recipients, msg)


def _scenario_outputs(doc, out):
    """Trace and metrics bytes and assertion text of one run of `doc`."""
    try:
        result = scenario.run_scenario(scenario.scenario_from_json(doc))
        trace, metrics, failure = result.trace, result.metrics, None
    except scenario.AssertionFailure as exc:
        trace, metrics, failure = None, None, str(exc)
    if trace is not None:
        export_trace(trace, out / "trace.csv")
        export_metrics(metrics, "json", out / "metrics.json")
        return (out / "trace.csv").read_bytes(), (out / "metrics.json").read_bytes(), None
    return None, None, failure


SWITCH = st.tuples(st.floats(0.0, 14000.0), st.sampled_from(["intra", "inter"]), st.booleans())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), p=st.floats(0.01, 0.5), lossy=st.tuples(st.booleans(),
       st.booleans()), switches=st.lists(SWITCH, max_size=8))
@example(seed=1, p=0.2, lossy=(False, False),
         switches=[(3000.0, "intra", True), (5000.0, "inter", True), (8000.0, "intra", False)])
def test_drop_draws_give_the_trace_of_one_draw_per_lossy_attempt(tmp_path_factory, seed, p,
                                                                  lossy, switches):
    # A join/leave/crash/rejoin run with queries and transfers whose links
    # start lossless or at drop p and switch between the two mid-run. The
    # reference queues every unicast on its own, so the run also shows that
    # joining unicast entries changes no byte of trace or metrics.
    doc = load_script("update_goldens").generated_doc("max_power", draw=f"drops{seed}")
    doc["seed"] = seed
    for scope, loses in zip(("intra", "inter"), lossy):
        link = f"{scope}_domain_link"
        doc[link] = dict(doc[link], drop_probability=p if loses else 0.0)
    doc["script"] = sorted(doc["script"] + [
        {"time_ms": t, "action": "set_link", "scope": scope,
         "drop_probability": p if loses else 0.0}
        for t, scope, loses in switches], key=lambda action: action["time_ms"])
    drawn = _scenario_outputs(doc, tmp_path_factory.mktemp("drawn"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "Network", DrawPerLossyAttempt)
        reference = _scenario_outputs(doc, tmp_path_factory.mktemp("reference"))
    assert drawn == reference


def test_lossless_attempts_draw_nothing():
    ids = range(1, 11)
    net = Network(topo({n: 1 for n in ids}), seed=4)
    wire(net, ids)
    untouched = net.rng.getstate()
    for _ in range(1000):  # 9,000 lossless attempts
        net.send_multicast(1, 1, Message(MessageKind.HEARTBEAT, entry(1)))
    assert net.rng.getstate() == untouched
    net.intra_link = replace(net.intra_link, drop_probability=0.5)
    net.send_unicast(2, 3, Message(MessageKind.ACCEPT, entry(2)))
    reference = random.Random(4)
    reference.random()
    assert net.rng.getstate() == reference.getstate()


def test_same_instant_events_scheduled_by_a_recipient_run_after_the_fan_out():
    # With a 0 ms delay link, the first recipient's 0 ms timer is due at the
    # same instant as the rest of the fan-out, and its unicast right after.
    # Both were scheduled later, so both run after every other recipient.
    instant = LinkConfig(delay_ms=0.0, drop_probability=0.0, bandwidth_mbps=100.0)
    net = Network(topo({n: 1 for n in range(1, 6)}, intra=instant), seed=0)
    log = []

    class Probe:
        def __init__(self, me):
            self.me = me

        def on_message(self, net, msg):
            log.append((net.now, net.trace[-1].seq, msg.kind.name, self.me, net.pending()))
            if self.me == 2 and msg.kind is MessageKind.JOIN:
                net.set_timer(2, "zero", 0.0)
                net.send_unicast(2, 3, Message(MessageKind.HEARTBEAT, entry(2)))

        def on_timer(self, net, tag):
            log.append((net.now, net.trace[-1].seq, tag, self.me, net.pending()))

    for n in range(1, 6):
        net.register_handler(n, Probe(n))
    net.send_multicast(1, 1, Message(MessageKind.JOIN, entry(1)))
    net.run_until_quiescent(1000.0)
    assert [(kind, me) for _, _, kind, me, _ in log] == [
        ("JOIN", 2), ("JOIN", 3), ("JOIN", 4), ("JOIN", 5), ("zero", 2), ("HEARTBEAT", 3)]
    assert log[4][0] == log[0][0] < log[5][0]
    times = [t for t, *_ in log]
    assert times == sorted(times)
    seqs = [seq for _, seq, *_ in log]
    assert all(a < b for a, b in zip(seqs, seqs[1:]))
    # pending() counts queued events, taken off before each handler runs.
    assert [p for *_, p in log] == [3, 4, 3, 2, 1, 0]


class Logging:
    """Logs (trace[-1], pending()) for every message and timer, and calls
    `act(net, me, tag)` on each timer."""

    def __init__(self, me, log, act):
        self.me, self.log, self.act = me, log, act

    def on_message(self, net, msg):
        self.log.append((net.trace[-1], net.pending()))

    def on_timer(self, net, tag):
        self.log.append((net.trace[-1], net.pending()))
        self.act(net, self.me, tag)


def _unicast_entries(net):
    """The seqs of each queued unicast entry's deliveries, by first seq."""
    return sorted([seq for seq, _ in deliveries] for *_, deliveries in net._heap
                  if deliveries.__class__ is list)


HEARTBEAT_1 = Message(MessageKind.HEARTBEAT, entry(1))


def _drop_one_unicast(net):
    kept, net.intra_link = net.intra_link, replace(net.intra_link, drop_probability=1.0)
    net.send_unicast(1, 2, HEARTBEAT_1)
    net.intra_link = kept


# What node 1 does between its two unicasts to node 2, and the second one.
BETWEEN = {
    "nothing": (None, HEARTBEAT_1),
    "zero_timer": (lambda net: net.set_timer(1, "zero", 0.0), HEARTBEAT_1),
    "multicast": (lambda net: net.send_multicast(1, 1, HEARTBEAT_1), HEARTBEAT_1),
    "dropped_unicast": (_drop_one_unicast, HEARTBEAT_1),
    "later_arrival": (None, Message(MessageKind.DATA, entry(1), size_mb=1.0)),
}


@pytest.mark.parametrize("between", BETWEEN)
def test_a_unicast_joins_the_last_entry_only_at_its_time_with_no_seq_between(between):
    # Node 1's timer sends node 2 a HEARTBEAT, does `between`, and sends
    # node 2 a second unicast. Only with nothing between and the same
    # arrival time do the two share an entry. A 0 ms timer, a multicast
    # (whose recipients include node 2 at that same time) or a dropped
    # unicast's send row each takes a seq, so the second one opens its own
    # entry, as does a second unicast that arrives later. Either way rows,
    # seqs, the handlers' logs and the generator match the reference, which
    # queues every unicast on its own.
    action, second = BETWEEN[between]
    sides = []
    for net_class in (Network, DrawPerLossyAttempt):
        net = net_class(topo({1: 1, 2: 1, 3: 1}), seed=5)
        log, queued = [], []

        def act(net, me, tag):
            if tag == "go":
                net.send_unicast(1, 2, HEARTBEAT_1)
                if action is not None:
                    action(net)
                net.send_unicast(1, 2, second)
                queued.extend(_unicast_entries(net))

        for n in (1, 2, 3):
            net.register_handler(n, Logging(n, log, act))
        net.set_timer(1, "go", 5.0)
        net.run_until_quiescent(1000.0)
        sides.append((net, log, queued))
    (net, log, queued), (ref, ref_log, ref_queued) = sides
    assert list(net.trace) == list(ref.trace)
    assert log == ref_log and net.pending() == ref.pending() == 0
    assert net.rng.getstate() == ref.rng.getstate()
    assert len(ref_queued) == 2
    assert len(queued) == (1 if between == "nothing" else 2)
    assert sorted(sum(queued, [])) == sorted(sum(ref_queued, []))


def test_unicasts_of_consecutive_same_time_steps_do_not_join():
    # Over a link of zero transit time a unicast arrives at the instant it
    # is sent, where an entry may already have been taken: two 0 ms timers
    # that each send one, then two sends between run_until(5.0) calls, the
    # first taken before the second is sent. No unicast joins an entry at
    # the current time, so rows and the handlers' logs match the reference.
    instant = LinkConfig(0.0, 0.0, 1e300)
    sides = []
    for net_class in (Network, DrawPerLossyAttempt):
        net = net_class(topo({1: 1, 2: 1, 3: 1}, intra=instant), seed=5)
        log, sizes = [], []

        def send(net, me, tag=None):
            net.send_unicast(me, 2, Message(MessageKind.HEARTBEAT, entry(me)))
            if net._unicast is not None:
                sizes.append(len(net._unicast[4]))

        for n in (1, 2, 3):
            net.register_handler(n, Logging(n, log, send))
        net.run_until(5.0)
        assert net.now + instant.transit_ms(transit_size_bytes(
            Message(MessageKind.HEARTBEAT, entry(1)))) == net.now == 5.0
        net.set_timer(1, "a", 0.0)
        net.set_timer(3, "b", 0.0)
        net.run_until(5.0)
        send(net, 1)
        net.run_until(5.0)
        send(net, 3)
        net.run_until_quiescent(10.0)
        sides.append((net, log, sizes))
    (net, log, sizes), (ref, ref_log, _) = sides
    assert list(net.trace) == list(ref.trace)
    assert log == ref_log and net.pending() == ref.pending() == 0
    assert sizes == [1, 1, 1, 1]
    assert sum(row.kind == "deliver" for row in net.trace) == 4


def test_domain_members_ascending_and_unknown_domain_empty():
    net = Network(topo({7: 2, 3: 1, 9: 1, 1: 2, 5: 1}), seed=0)
    assert list(net.domain_members(1)) == [3, 5, 9]
    assert list(net.domain_members(2)) == [1, 7]
    assert list(net.domain_members(4)) == []


def test_virtual_multicast_targets_agents_over_inter_link():
    slow = LinkConfig(delay_ms=50.0, drop_probability=0.0, bandwidth_mbps=100.0)
    net = Network(topo({1: 1, 2: 2, 3: 3}, inter=slow), seed=0)
    recs = wire(net, [1, 2, 3])
    registry = VirtualDomain(net)
    registry.register_agent(entry(1), domain=1)
    registry.register_agent(entry(2), domain=2)
    net.send_multicast(1, VIRTUAL, Message(MessageKind.QUERY, entry(1), query_id=1, required_mb=5.0))
    net.run_until_quiescent(1000.0)
    assert len(recs[2].messages) == 1
    assert recs[3].messages == []
    assert recs[2].messages[0][0] == 50.0 + 49 * 8 / (100 * 1000)


def test_timer_fires_at_deadline():
    net = Network(topo({1: 1}), seed=0)
    recs = wire(net, [1])
    net.set_timer(1, "ping", 1000.0)
    net.run_until_quiescent(5000.0)
    assert recs[1].timers == [(1000.0, "ping")]


@pytest.mark.parametrize("fire_in_ms", [-30.0, float("nan"), float("inf"), float("-inf")])
def test_timer_of_negative_or_non_finite_delay_is_refused(fire_in_ms):
    # At -30 ms after run_until(50.0) the timer would fire at 20 ms, with the
    # clock running backwards. The twin makes the same calls but the refused one.
    sides = []
    for refuse in (True, False):
        net = Network(topo({1: 1, 2: 1, 3: 1}, intra=LOSSY, inter=LOSSY), seed=7)
        recs = wire(net, (1, 2, 3))
        _accepted_sends(net)
        net.run_until(50.0)
        net.set_timer(1, "neg", 5.0)
        if refuse:
            _leaves_nothing(net, InvalidValue,
                            lambda: net.set_timer(1, "neg", fire_in_ms))
        net.set_timer(2, "tick", 0.0)
        _accepted_sends(net)
        sides.append((net, recs))
    (net, recs), (twin, _) = sides
    # No seq taken, and the pending timer it would have replaced still fires.
    assert list(net.trace) == list(twin.trace)
    assert net.rng.getstate() == twin.rng.getstate()
    assert recs[1].timers == [(55.0, "neg")]


def test_timer_reset_replaces():
    net = Network(topo({1: 1}), seed=0)
    recs = wire(net, [1])
    net.set_timer(1, "ping", 500.0)
    net.set_timer(1, "ping", 800.0)
    net.run_until_quiescent(5000.0)
    assert recs[1].timers == [(800.0, "ping")]


def test_same_tag_different_owners_independent():
    net = Network(topo({1: 1, 2: 1}), seed=0)
    recs = wire(net, [1, 2])
    net.set_timer(1, "ping", 100.0)
    net.set_timer(2, "ping", 200.0)
    net.run_until_quiescent(5000.0)
    assert recs[1].timers == [(100.0, "ping")]
    assert recs[2].timers == [(200.0, "ping")]


def test_cancel_timer():
    net = Network(topo({1: 1}), seed=0)
    recs = wire(net, [1])
    net.set_timer(1, "ping", 100.0)
    net.cancel_timer(1, "ping")
    net.run_until_quiescent(5000.0)
    assert recs[1].timers == []


def test_empty_queue_quiescent():
    net = Network(topo({1: 1}), seed=0)
    assert net.run_until_quiescent(1000.0) == []
    assert net.now == 0.0


def test_quiescence_horizon_leaves_future_events_pending():
    net = Network(topo({1: 1}), seed=0)
    recs = wire(net, [1])
    net.set_timer(1, "late", 1000.0)
    net.run_until_quiescent(500.0)
    assert recs[1].timers == []
    assert net.pending() == 1
    net.run_until_quiescent(1000.0)
    assert recs[1].timers == [(1000.0, "late")]


def test_crashed_node_receives_nothing():
    # Node 3 is crashed and sits in the middle of the multicast's recipients:
    # every packet addressed to it is still traced, but no handler runs.
    net = Network(topo({1: 1, 2: 1, 3: 1, 4: 1}), seed=0)
    recs = wire(net, [1, 2, 3, 4])
    net.crash(3)
    msg = Message(MessageKind.HEARTBEAT, entry(1))
    net.send_unicast(1, 3, msg)
    net.set_timer(3, "ping", 5.0)
    net.send_multicast(1, 1, msg)
    net.run_until_quiescent(1000.0)
    assert recs[3].messages == [] and recs[3].timers == []
    assert len(recs[2].messages) == 1 and len(recs[4].messages) == 1
    assert [r.dst for r in net.trace if r.kind == "deliver"] == ["3", "2", "3", "4"]
    assert net.pending() == 0


def test_crashed_node_cannot_send():
    net = Network(topo({1: 1, 2: 1, 3: 1}, intra=LOSSY, inter=LOSSY), seed=2)
    recs = wire(net, (1, 2, 3))
    _accepted_sends(net)
    net.crash(1)
    msg = Message(MessageKind.LEAVE, entry(1))
    _leaves_nothing(net, NodeCrashed, lambda: net.send_unicast(1, 2, msg))
    _leaves_nothing(net, NodeCrashed, lambda: net.send_multicast(1, 1, msg))
    # A crashed sender is refused before its destination is looked up.
    _leaves_nothing(net, NodeCrashed, lambda: net.send_unicast(1, 99, msg))
    net.revive(1)
    heard = len(recs[2].messages)
    _same_as_without_the_rejected(net, seed=2)
    assert len(recs[2].messages) > heard


@pytest.mark.parametrize("size_mb", [-1.0, -5e-324, float("inf"), float("-inf"), float("nan"),
                                     1e308])  # finite, but not in bytes
def test_data_of_negative_or_non_finite_size_is_refused(size_mb):
    # At -1 MB over a 10 ms, 100 Mbps link the delivery would land at
    # 50 + 10 - 83.9 ms: before the send, with the clock running backwards.
    net = Network(topo({1: 1, 2: 1, 3: 1}, intra=LOSSY, inter=LOSSY), seed=7)
    wire(net, (1, 2, 3))
    _accepted_sends(net)
    net.run_until(50.0)
    data = Message(MessageKind.DATA, entry(1), size_mb=size_mb)
    _leaves_nothing(net, InvalidValue, lambda: net.send_unicast(1, 2, data))
    _leaves_nothing(net, InvalidValue, lambda: net.send_multicast(1, 1, data))
    with pytest.raises(InvalidValue):
        transit_size_bytes(data)
    twin = Network(net.topology, seed=7)
    wire(twin, (1, 2, 3))
    _accepted_sends(twin)
    twin.run_until(50.0)
    for side in (net, twin):
        side.send_unicast(1, 2, Message(MessageKind.DATA, entry(1), size_mb=0.0))
        side.run_until_quiescent(1000.0)
    assert list(net.trace) == list(twin.trace)
    assert net.rng.getstate() == twin.rng.getstate()
    assert all(row.time_ms >= 50.0 for row in net.trace if row.msg_kind == "DATA")


def _chatter(seed):
    lossy = LinkConfig(delay_ms=3.0, drop_probability=0.3, bandwidth_mbps=10.0)
    net = Network(topo({1: 1, 2: 1, 3: 1, 4: 2}, intra=lossy, inter=lossy), seed=seed)

    class Echo:
        def on_message(self, net, msg):
            if msg.kind is MessageKind.JOIN:
                net.send_unicast(self.me, msg.sender.node_id, Message(MessageKind.ACCEPT, entry(self.me)))

        def on_timer(self, net, tag):
            net.send_multicast(self.me, 1, Message(MessageKind.JOIN, entry(self.me)))

    for n in (1, 2, 3, 4):
        echo = Echo()
        echo.me = n
        net.register_handler(n, echo)
        net.set_timer(n, "kick", float(n))
        net.set_timer(n, "kick2", 10.0 + n)
    net.run_until_quiescent(10000.0)
    return net.trace


def test_identical_seeds_identical_traces(tmp_path):
    a, b = _chatter(99), _chatter(99)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    export_trace(a, pa)
    export_trace(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert pa.read_bytes() != b""


def test_different_seeds_differ():
    assert _chatter(1) != _chatter(2)


def test_causality_and_seq_monotonic():
    trace = _chatter(5)
    times = [r.time_ms for r in trace]
    assert times == sorted(times)
    seqs = [r.seq for r in trace]
    assert len(set(seqs)) == len(seqs)


def test_transfer_time_monotonic_in_size_and_delay():
    base = LinkConfig(delay_ms=5.0, drop_probability=0.0, bandwidth_mbps=50.0)
    sizes = [10, 100, 1000, 10000]
    assert [base.transit_ms(s) for s in sizes] == sorted(base.transit_ms(s) for s in sizes)
    for d1, d2 in [(0.0, 1.0), (1.0, 10.0)]:
        l1 = LinkConfig(d1, 0.0, 50.0)
        l2 = LinkConfig(d2, 0.0, 50.0)
        assert l1.transit_ms(500) < l2.transit_ms(500)


def _interleaved_run(seed, drop, reference=False, inter_drop=None):
    """Two domains whose handlers, in the middle of a fan-out, sometimes reply
    by unicast, multicast, or set a 0 ms timer, and sometimes send one of the
    sends `odd_send` makes. Each handler's seeded `absorb` takes some whole
    delivery entries, which traces nothing, takes some naming replies (an
    ACCEPT or two to the sender from some live recipients), and refuses the
    rest. With `reference`, it refuses the entries it would take with
    replies, and each of their recipients sends its replies from on_message
    instead and does nothing else. Every handler checks the row trace[-1]
    shows it, that every record is complete (their rows add up to
    len(trace)) and that pending() counts what is queued, and logs
    (len(trace), that row, pending()), but for those reference replies, and
    keeps a copy of the list of records it saw; `absorb` checks that it is
    asked by the first recipient's handler while pending() still counts
    every recipient of the entry, and the run checks that every multicast's
    entry, and no unicast entry, was offered to it once.
    Node 4 crashes after its JOIN, and the VIRTUAL group is nodes 1, 2 and 5,
    so the replies to a QUERY from node 1 or 2 can arrive at two times: the
    intra-domain link takes 1 ms and drops at `drop`, the inter-domain link
    2 ms and drops at `inter_drop` (`drop` if None).
    Returns the network, that log, the (seqs, recipients) of every queued
    multicast's or unicast entry, one recipient per seq (a unicast entry's
    are its one destination, repeated), the first seq of every entry absorb
    took silently, (trace index of its first row, recipients, replies) of
    every entry absorb took with replies (or would have), those copies of
    the records, and the recipients of every entry absorb was offered."""
    link = LinkConfig(delay_ms=1.0, drop_probability=drop, bandwidth_mbps=100.0)
    inter = replace(link, delay_ms=2.0, drop_probability=drop if inter_drop is None else inter_drop)
    net = Network(topo({1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2}, intra=link, inter=inter), seed=seed)
    net.virtual_members = (1, 2, 5)
    seen, multicasts, unicasts, taken_at, replied, held, offered = [], [], [], [], [], [], []
    stash = []  # (member, replies) still to send from on_message, in `reference`
    budget = [60]

    push, send_unicast = net._push_delivery, net.send_unicast

    def logged_push(at, recipients, msg):
        multicasts.append((tuple(range(net._seq + 1, net._seq + 1 + len(recipients))), recipients))
        push(at, recipients, msg)

    def logged_send_unicast(src, dst, msg):
        # Each unicast entry is logged once, as it is queued; the entry's
        # list of deliveries grows while unicasts join it.
        send_unicast(src, dst, msg)
        if net._unicast is not None and (not unicasts or net._unicast is not unicasts[-1]):
            unicasts.append(net._unicast)

    net._push_delivery, net.send_unicast = logged_push, logged_send_unicast

    def entries():
        return multicasts + [(tuple(seq for seq, _ in deliveries), to * len(deliveries))
                             for _, _, to, _, deliveries in unicasts]

    def queued(net):
        # A multicast's entry holds its recipients, a unicast entry its list
        # of deliveries, and a timer entry, tagged by a string, one event.
        return sum(len(to) if msg is not None else 1 if isinstance(tag, str) else len(tag)
                   for _, _, to, msg, tag in net._heap)

    def check_pending(net, row):
        # Every queued event, plus the deliveries after this one in the
        # entry being taken, which no record holds yet.
        assert sum(len(record[4]) for record in net.trace._records) == len(net.trace)
        held.append(list(net.trace._records))
        untaken = 0
        if row.kind == "deliver":
            seqs = next(seqs for seqs, _ in entries() if row.seq in seqs)
            untaken = len(seqs) - seqs.index(row.seq) - 1
        assert net.pending() == queued(net) + untaken

    def odd_send(net, me, which):
        if which == 0:
            net.send_multicast(me, VIRTUAL, Message(MessageKind.QUERY, entry(me),
                                                     query_id=me, required_mb=5.0))
        elif which == 1:
            # Every draw drops: a send row with no delivery record.
            kept, net.intra_link = net.intra_link, replace(net.intra_link, drop_probability=1.0)
            pending = net.pending()
            net.send_multicast(me, net.topology.nodes[me], Message(MessageKind.HEARTBEAT, entry(me)))
            assert net.pending() == pending
            net.intra_link = kept
        elif which == 2:
            net.send_multicast(me, 9, Message(MessageKind.HEARTBEAT, entry(me)))  # no members
        else:
            net.send_unicast(me, 4, Message(MessageKind.DATA, entry(me),
                                            size_mb=round(random.Random(me).random(), 3)))

    class Chatter:
        def __init__(self, me):
            self.me = me
            self.rng = random.Random(seed * 7 + me)
            self.taking = random.Random(seed * 11 + me)

        def on_message(self, net, msg):
            row = net.trace[-1]
            assert row[:5] == (net.now, row.seq, "deliver", str(msg.sender.node_id), str(self.me))
            assert row.msg_kind == msg.kind.name
            rows = list(net.trace)
            assert len(rows) == len(net.trace) and rows[-1] == row
            check_pending(net, row)
            if stash and stash[0][0] == self.me:
                for reply in stash.pop(0)[1]:
                    net.send_unicast(self.me, msg.sender.node_id, reply)
                return
            seen.append((len(net.trace), row, net.pending()))
            self.act(net, msg.sender.node_id)

        def on_timer(self, net, tag):
            row = net.trace[-1]
            assert row == (net.now, row.seq, "timer", "", str(self.me), tag, 0)
            check_pending(net, row)
            seen.append((len(net.trace), row, net.pending()))
            self.act(net, None)

        def absorb(self, net, recipients, msg):
            # No recipient of the entry is counted off yet, so none has a row.
            assert recipients[0] == self.me
            assert net.pending() == queued(net) + len(recipients)
            offered.append(recipients)
            r = self.taking.random()
            if r < 0.25:
                taken_at.append(len(net.trace))
                return ()
            if r >= 0.5:
                return None
            # A crashed recipient runs no handler, so it sends nothing.
            replies = [() if member in net.crashed else
                       (Message(MessageKind.ACCEPT, entry(member)),) * self.taking.randrange(3)
                       for member in recipients]
            replied.append((len(net.trace), recipients, replies))
            if not reference:
                return replies
            stash.extend((member, sent) for member, sent in zip(recipients, replies)
                         if member not in net.crashed)
            return None

        def act(self, net, sender):
            if budget[0] <= 0:
                return
            budget[0] -= 1
            r = self.rng.random()
            if r < 0.35 and sender is not None and sender != self.me:
                net.send_unicast(self.me, sender, Message(MessageKind.ACCEPT, entry(self.me)))
            elif r < 0.55:
                net.set_timer(self.me, f"t{budget[0]}", 0.0)
            elif r < 0.75:
                net.send_multicast(self.me, net.topology.nodes[self.me],
                                   Message(MessageKind.HEARTBEAT, entry(self.me)))
            else:
                odd_send(net, self.me, int((r - 0.75) * 16))

    for n in range(1, 7):
        net.register_handler(n, Chatter(n))
        net.send_multicast(n, net.topology.nodes[n], Message(MessageKind.JOIN, entry(n)))
    net.crash(4)
    for which in range(4):
        odd_send(net, 1, which)
    net.run_until_quiescent(10_000.0)
    assert not stash
    # The same tuple is offered once per entry that holds it.
    assert Counter(map(id, offered)) == Counter(id(to) for _, to in multicasts)
    return (net, seen, entries(), [net.trace[k].seq for k in taken_at], replied, held,
            offered)


def _deliveries(entries):
    """(seq, str(recipient)) of each delivery of the logged entries."""
    return [(seq, str(member)) for seqs, to in entries for seq, member in zip(seqs, to)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), drop=st.floats(0.0, 0.3), data=st.data())
def test_trace_reads_like_the_list_of_its_rows(tmp_path_factory, seed, drop, data):
    net, seen, entries, *_ = _interleaved_run(seed, drop)
    trace = net.trace
    rows = list(trace)
    assert all(type(row) is TraceRow for row in rows)
    assert net.pending() == 0
    # Node 1's odd sends are the last rows at 0 ms.
    assert [r[2:6] for r in rows if r.time_ms == 0.0][-4:] == [
        ("send", "1", "virtual", "QUERY"), ("send", "1", "domain1", "HEARTBEAT"),
        ("send", "1", "domain9", "HEARTBEAT"), ("send", "1", "4", "DATA")]
    assert len(trace) == len(rows) and trace == rows and rows == trace
    # The row each handler saw as trace[-1] is the row at that position.
    assert all(rows[n - 1] == row for n, row, _ in seen)
    # Each delivery's row, taken by a handler or by absorb, appears exactly
    # once, and an entry's rows appear in seq order.
    delivered = [(r.seq, r.dst) for r in rows if r.kind == "deliver"]
    assert sorted(delivered) == sorted(_deliveries(entries))
    at = {seq: n for n, (seq, _) in enumerate(delivered)}
    for seqs, _ in entries:
        spots = [at[seq] for seq in seqs]
        assert spots == sorted(spots)
    assert len({r.seq for r in rows}) == len(rows)
    for i in range(len(rows)):
        assert trace[i] == rows[i] and trace[-i - 1] == rows[-i - 1]
    with pytest.raises(IndexError):
        trace[len(rows)]
    with pytest.raises(IndexError):
        trace[-len(rows) - 1]
    # Every cut point, so bounds fall inside delivery batches too.
    for i in range(len(rows) + 2):
        assert list(trace[i:]) == rows[i:] and list(trace[:i]) == rows[:i]
    out = tmp_path_factory.mktemp("trace")
    export_trace(trace, out / "all.csv")
    # Both export formatters, one-row and batch, write what TraceRow.csv does.
    assert (out / "all.csv").read_bytes() == (
        TRACE_HEADER + "\n" + "".join(row.csv() + "\n" for row in rows)).encode()
    lines = (out / "all.csv").read_text().splitlines(keepends=True)
    bound = st.integers(-len(rows) - 3, len(rows) + 3)
    for _ in range(4):
        a, b = data.draw(bound), data.draw(bound)
        part = trace[a:b]
        assert isinstance(part, Trace) and part == rows[a:b]
        c, d = data.draw(bound), data.draw(bound)
        assert list(part[c:d]) == rows[a:b][c:d]
        assert list(trace[a:b:2]) == rows[a:b:2]
        export_trace(part, out / "part.csv")
        lo, hi, _ = slice(a, b).indices(len(rows))
        assert (out / "part.csv").read_text() == lines[0] + "".join(lines[1 + lo:1 + hi])


def _row_by_row(trace) -> bytes:
    """The reference the trace export must match byte for byte."""
    return (TRACE_HEADER + "\n" + "".join(row.csv() + "\n" for row in trace)).encode()


def _reply_cuts_a_batch():
    # Node 3 replies inside node 1's fan-out, so the batch continues in a
    # record after the reply's send row.
    net = Network(topo({n: 1 for n in range(1, 6)}), seed=3)
    recs = wire(net, range(1, 6))
    recs[3].on_message = lambda net, msg: net.send_unicast(3, 1, Message(MessageKind.ACCEPT, entry(3)))
    net.send_multicast(1, 1, Message(MessageKind.HEARTBEAT, entry(1)))
    net.run_until_quiescent(1000.0)
    kinds = [(row.kind, row.src) for row in net.trace]
    assert kinds[:6] == [("send", "1"), ("deliver", "1"), ("deliver", "1"), ("send", "3"),
                         ("deliver", "1"), ("deliver", "1")]
    return net.trace


class DataTimer:
    """Node 1's timer is tagged DATA, so its row's msg_kind and size (the int
    0) equal those of a DATA message of size 0.0 but print differently."""

    def on_message(self, net, msg):
        pass

    def on_timer(self, net, tag):
        for size_mb in (0.0, -0.0, 0.0):
            net.send_unicast(1, 2, Message(MessageKind.DATA, entry(1), size_mb=size_mb))
        if net.now < 20.0:
            net.set_timer(1, "DATA", 10.0)


def _data_timer_next_to_zero_size_data():
    net = Network(topo({1: 1, 2: 1}), seed=3)
    net.register_handler(1, DataTimer())
    net.register_handler(2, DataTimer())
    net.set_timer(1, "DATA", 10.0)
    net.run_until_quiescent(1000.0)
    assert {(row.kind, row.msg_kind, repr(row.size_bytes)) for row in net.trace} == {
        ("timer", "DATA", "0"), ("send", "DATA", "0.0"), ("send", "DATA", "-0.0"),
        ("deliver", "DATA", "0.0"), ("deliver", "DATA", "-0.0")}
    return net.trace


def _run_until_an_int_leaves_a_float_clock():
    # run_until(5) leaves the clock at the float 5.0 when no event is due
    # then, so a send and a 0 ms timer at that instant print it alike.
    net = Network(topo({1: 1, 2: 1}), seed=3)
    wire(net, (1, 2))
    net.run_until(5)
    assert type(net.now) is float and net.now == 5.0
    net.send_unicast(1, 2, Message(MessageKind.HEARTBEAT, entry(1)))
    net.set_timer(1, "tick", 0.0)
    net.run_until_quiescent(1000.0)
    assert [repr(row.time_ms) for row in net.trace][:2] == ["5.0", "5.0"]
    return net.trace


def _longer_than_one_write():
    net = Network(topo({1: 1, 2: 1, 3: 1}), seed=3)
    recs = wire(net, (1, 2, 3))

    def tick(net, tag):
        net.send_multicast(1, 1, Message(MessageKind.HEARTBEAT, entry(1)))
        if net.now < 900.0:
            net.set_timer(1, tag, 0.5)

    recs[1].on_timer = tick
    net.set_timer(1, "tick", 0.5)
    net.run_until_quiescent(10_000.0)
    assert len(net.trace._records) > 2_000
    return net.trace


@pytest.mark.parametrize("make", [
    lambda: Network(topo({1: 1}), seed=3).trace,
    _reply_cuts_a_batch,
    lambda: _reply_cuts_a_batch()[2:5],
    lambda: _reply_cuts_a_batch()[1::2],
    _data_timer_next_to_zero_size_data,
    _run_until_an_int_leaves_a_float_clock,
    _longer_than_one_write,
], ids=["empty", "reply_cuts_a_batch", "mid_record_slice", "strided_slice",
        "data_timer_next_to_zero_size_data", "run_until_an_int_leaves_a_float_clock",
        "longer_than_one_write"])
def test_trace_export_is_the_bytes_of_its_rows(tmp_path, make):
    trace = make()
    export_trace(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == _row_by_row(trace)


# Fields with the `%`-format's and the f-string's special characters.
_FIELD_TEXT = st.one_of(st.sampled_from(["%", "%s", "%%", "%d", "%(x)s", "{", "}", "{}"]),
                        st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6))
_TIME = st.one_of(st.sampled_from([2.0, 5.0]), st.floats(0.0, 3.0))
_NODE = st.integers(1, 2**32 - 1)
# The shapes a Network writes. A record of one row (a send, a timer or one
# delivery) takes any text, since the f-string path writes any fields; a
# record of more rows is a delivery run of int node ids.
_ONE_ROW = st.tuples(
    _TIME,
    _FIELD_TEXT,  # kind
    st.one_of(_NODE, st.just("")),  # src
    st.lists(st.one_of(_NODE, _FIELD_TEXT), min_size=1, max_size=1),
    _FIELD_TEXT,  # msg_kind
    st.one_of(st.sampled_from([0.0, -0.0, 0, 33.0]), st.floats()),  # size_bytes
)
_DELIVERY_RUN = st.tuples(
    _TIME,
    st.just("deliver"),
    _NODE,  # src
    st.lists(_NODE, min_size=2, max_size=200),
    st.sampled_from(sorted(KIND_NAMES.values())),
    st.one_of(st.sampled_from([0.0, -0.0, 33.0]), st.floats()),  # size_bytes
)
_RECORD = st.one_of(_ONE_ROW, _DELIVERY_RUN)


def _hand_built(records) -> Trace:
    """A Trace of records (time_ms, kind, src, dsts, msg_kind, size), with
    consecutive seqs from 1."""
    built, seq = [], 1
    for time_ms, kind, src, dsts, msg_kind, size in records:
        built.append((time_ms, seq, kind, src, tuple(dsts), msg_kind, size))
        seq += len(dsts)
    return Trace(built)


@settings(max_examples=60, deadline=None)
@given(records=st.lists(_RECORD, max_size=8), cut=st.tuples(st.floats(0, 1), st.floats(0, 1)))
# A 160x1 grid's heartbeat fan-out: one record of 159 recipients.
@example(records=[(1000.0, "send", 1, ["domain1"], "HEARTBEAT", 33.0),
                  (1001.00264, "deliver", 1, list(range(2, 161)), "HEARTBEAT", 33.0)],
         cut=(0.3, 0.6))
def test_trace_export_of_hand_built_records_is_the_bytes_of_its_rows(tmp_path_factory,
                                                                     records, cut):
    trace = _hand_built(records)
    lo, hi = sorted(round(f * len(trace)) for f in cut)
    out = tmp_path_factory.mktemp("export") / "trace.csv"
    for view in (trace, trace[lo:hi]):
        export_trace(view, out)
        assert out.read_bytes() == _row_by_row(view)


@pytest.mark.parametrize("seed", range(5))
def test_records_are_runs_of_taken_entries_and_rows_of_refused_ones(seed):
    # A taken entry is one record per run of recipients that ends at a
    # replying one, then one for the rest, so it shares its recipients tuple
    # when none replies. A refused entry is one record per recipient, and a
    # unicast entry one per delivery; each such one-row record shares its
    # node's (node,), the tuple of the network's `_ones`.
    net, _, entries, taken, replied, held, _ = _interleaved_run(seed, 0.1)
    records = net.trace._records
    where = {seq: (seqs[0], k) for seqs, _ in entries for k, seq in enumerate(seqs)}
    pieces = {}
    for _, first, kind, _, dsts, _, _ in records:
        if kind == "deliver":
            entry, k = where[first]
            pieces.setdefault(entry, []).append((k, dsts))
    replies = {net.trace[at].seq: sent for at, _, sent in replied}
    for seqs, to in entries:
        first = seqs[0]
        if first in taken or first in replies:
            ends = [i + 1 for i, sent in enumerate(replies.get(first, ())) if sent]
            bounds = sorted({0, *ends, len(to)})
        else:
            bounds = range(len(to) + 1)
        assert pieces[first] == [(lo, to[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        if first in taken or first in replies:
            if len(pieces[first]) == 1:
                assert pieces[first][0][1] is to
        else:
            assert all(dsts is net._ones[dsts[0]] for _, dsts in pieces[first])
    assert any(len(to) > 1 and seqs[0] not in taken and seqs[0] not in replies
               for seqs, to in entries)
    # No record changes once appended: every record a handler saw is still
    # the same object at the end of the run.
    assert all(len(seen) <= len(records) and all(map(is_, seen, records)) for seen in held)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), drop=st.floats(0.0, 0.3), inter_drop=st.floats(0.0, 0.3))
# Each has a take whose replies arrive at two times, and a reply dropped.
@example(seed=0, drop=0.2, inter_drop=0.2)
@example(seed=9, drop=0.0, inter_drop=0.2)
@example(seed=3, drop=0.2, inter_drop=0.0)
def test_replies_absorb_names_are_the_sends_of_on_message(seed, drop, inter_drop):
    # The same run with every reply sent from on_message instead: rows, seqs,
    # the handlers' logs of trace[-1] and pending(), and the draws of the
    # seeded generator are equal, and so are the deliveries. Both send the
    # replies with send_unicast, so they join unicast entries alike.
    net, seen, entries, _, replied, _, _ = _interleaved_run(seed, drop, inter_drop=inter_drop)
    ref, ref_seen, ref_entries, _, ref_replied, _, _ = _interleaved_run(
        seed, drop, reference=True, inter_drop=inter_drop)
    assert list(net.trace) == list(ref.trace)
    assert seen == ref_seen and replied == ref_replied
    assert sorted(_deliveries(entries)) == sorted(_deliveries(ref_entries))
    assert net.rng.getstate() == ref.rng.getstate()
    assert net.pending() == ref.pending() == 0
    # Each recipient's deliver row is followed by its replies' send rows.
    rows = list(net.trace)
    for at, recipients, replies in replied:
        sender = rows[at].src
        for member, sent in zip(recipients, replies):
            assert rows[at][2:5] == ("deliver", sender, str(member))
            assert [row[2:6] for row in rows[at + 1:at + 1 + len(sent)]] == [
                ("send", str(member), sender, "ACCEPT")] * len(sent)
            at += 1 + len(sent)


def _reply_arrivals(net, replied):
    """For each take with replies, the times its delivered replies arrive."""
    rows = list(net.trace)
    delivered = {row.seq: row.time_ms for row in rows if row.kind == "deliver"}
    times = []
    for at, _, replies in replied:
        sends = rows[at:at + len(replies) + sum(map(len, replies))]
        times.append({delivered[row.seq + 1] for row in sends
                      if row.kind == "send" and row.seq + 1 in delivered})
    return times


def test_every_record_has_the_shape_export_trace_relies_on():
    # export_trace shares one time's repr among records of an equal time,
    # and writes a multi-row record with one bytes `%d` pattern: its dsts
    # are exact ints, and its other fields are a delivery run's.
    traces = [_interleaved_run(seed, 0.1)[0].trace for seed in range(5)]
    for policy in ("max_power", "lowest_id"):
        doc = load_script("update_goldens").generated_doc(policy, draw="drops1")
        traces.append(scenario.run_scenario(scenario.scenario_from_json(doc)).trace)
    records = [record for trace in traces for record in trace._records]
    assert all(type(time_ms) is float for time_ms, *_ in records)
    multi = [record for record in records if len(record[4]) > 1]
    assert multi and all(type(dst) is int for *_, dsts, _, _ in multi for dst in dsts)
    names = set(KIND_NAMES.values())
    assert all(kind == "deliver" and type(src) is int and msg_kind in names
               for _, _, kind, src, _, msg_kind, _ in multi)


def test_absorb_is_offered_every_multicast_entry():
    # Each run checks that absorb was offered every multicast's entry once
    # and no unicast entry; these seeds make sure the runs also hold
    # one-recipient entries that absorb is offered, entries it takes whole,
    # entries it takes with replies from a recipient other than the last, so
    # that other rows fall inside a taken entry, a take whose replies arrive
    # at two times, and unicasts that joined an entry.
    runs = [_interleaved_run(seed, 0.1) for seed in range(5)]
    assert any(len(to) == 1 for *_, offered in runs for to in offered)
    assert any(taken for _, _, _, taken, *_ in runs)
    assert any(any(replies[:-1]) for *_, replied, _, _ in runs for _, _, replies in replied)
    assert any(len(times) > 1 for net, *_, replied, _, _ in runs
               for times in _reply_arrivals(net, replied))
    assert any(len(seqs) > 1 and to[0] == to[1] for _, _, entries, *_ in runs
               for seqs, to in entries)
