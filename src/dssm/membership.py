"""Per-node membership state machine: join, leave and heartbeat-based
failure detection over the node's Adjacent Information Table.

Join: the newcomer multicasts JOIN with its own entry, members add it to
their AIT and answer ACCEPT by unicast; the newcomer builds its AIT from
the answers it collects during a fixed accept window, then becomes a
member and runs an election. Leave: a clean LEAVE multicast lets peers
drop the entry immediately. Failure: every member multicasts HEARTBEAT
each period and drops any peer silent for longer than the failure
timeout (three periods by default).

JOIN, ACCEPT, HEARTBEAT and AGENT_ANNOUNCE each carry the sender's entry
and share one handler: a joining node learns the entry (ignoring JOIN,
and taking an announcing sender as its agent); a member learns it,
answers a JOIN with ACCEPT and re-elects; other phases ignore it.
A member re-elects on such an entry only when it can move the election
(`election.moves_election`: a changed power, a new sender that beats the
agent or finds none, or HIGHEST_CONNECTIVITY); finishing its own join, a
peer's LEAVE and a failure timeout always re-elect.

Most deliveries of a heartbeat fan-out change nothing but the recipient's
AIT and `last_heard_ms`. `GosNode.absorb` (the `simnet` batch hand-off)
handles a run of such recipients of one delivery entry in one call, with
no call per recipient, and stops at the first that needs `on_message`.
It takes:
  - crashed recipients, and OFFLINE and LEFT ones (nothing happens);
  - JOINING recipients of any of the four kinds (JOIN is ignored);
  - MEMBER recipients of ACCEPT, HEARTBEAT or AGENT_ANNOUNCE whose entry
    cannot move the election, under MAX_POWER or LOWEST_ID: a known sender
    with an unchanged power, or a new sender that cannot beat the agent.
A JOIN to a member (it answers ACCEPT), an entry that moves the election,
every member delivery under HIGHEST_CONNECTIVITY, other message kinds and
recipients whose handler is not a plain GosNode go through `on_message`.

Two departures from the bare message set keep elections convergent:
the current agent answers a JOIN with a directed AGENT_ANNOUNCE so the
newcomer learns the incumbent (power ties would otherwise leave it
guessing), and a node that elects itself announces domain-wide.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from enum import Enum

from . import discovery, election
from .core import (
    Ait,
    AitEntry,
    DomainId,
    DssmError,
    Message,
    MessageKind,
    NO_NODE,
    NodeId,
    message_size_bytes,
)
from .metrics import KIND_ELECTION_LATENCY, KIND_JOIN_LATENCY, MetricsRecord
from .simnet import LinkConfig, Network

log = logging.getLogger(__name__)

TIMER_JOIN_DEADLINE = "join_deadline"
TIMER_HEARTBEAT = "heartbeat"
PEER_ENTRY_KINDS = frozenset({MessageKind.JOIN, MessageKind.ACCEPT,
                              MessageKind.HEARTBEAT, MessageKind.AGENT_ANNOUNCE})


class AlreadyMember(DssmError):
    pass


class NotMember(DssmError):
    pass


class Phase(Enum):
    OFFLINE = "offline"
    JOINING = "joining"
    MEMBER = "member"
    LEFT = "left"


# Enum members bound once to module names, for the delivery path. On Python
# 3.11 a class attribute read such as `Phase.MEMBER` goes through
# EnumType.__getattr__: about 0.18 us, against 0.02 us for a global.
_OFFLINE, _JOINING, _MEMBER, _LEFT = (Phase.OFFLINE, Phase.JOINING, Phase.MEMBER,
                                      Phase.LEFT)
_JOIN, _ACCEPT, _LEAVE = MessageKind.JOIN, MessageKind.ACCEPT, MessageKind.LEAVE
_HEARTBEAT, _AGENT_ANNOUNCE = MessageKind.HEARTBEAT, MessageKind.AGENT_ANNOUNCE
_QUERY, _QUERY_RESP = MessageKind.QUERY, MessageKind.QUERY_RESP
_HIGHEST_CONNECTIVITY = election.ElectionPolicy.HIGHEST_CONNECTIVITY


@dataclass
class ProtocolParams:
    accept_window_ms: float = 50.0
    heartbeat_period_ms: float = 1000.0
    failure_timeout_ms: float = 3000.0
    response_window_ms: float = 100.0

    @classmethod
    def from_links(cls, intra: LinkConfig, inter: LinkConfig,
                   heartbeat_period_ms: float = 1000.0) -> "ProtocolParams":
        """Defaults derived from the link model: the accept window covers a
        round trip on the slow path, the response window two inter-domain
        round trips, and the failure timeout is three missed heartbeats."""
        join_rt = 2 * intra.transit_ms(message_size_bytes(MessageKind.JOIN))
        query_rt = 2 * inter.transit_ms(message_size_bytes(MessageKind.QUERY_RESP))
        return cls(
            accept_window_ms=max(10.0, join_rt),
            heartbeat_period_ms=heartbeat_period_ms,
            failure_timeout_ms=3 * heartbeat_period_ms,
            response_window_ms=max(10.0, 2 * query_rt),
        )


class GosNode:
    """A Grid Oriented Storage device: one protocol endpoint.

    Owned and mutated only by the network event loop. The node's
    `self_entry` is its live resource snapshot; capacity changes replace
    it and ride out on the next heartbeat.
    """

    def __init__(
        self,
        entry: AitEntry,
        domain: DomainId,
        params: ProtocolParams | None = None,
        policy: election.ElectionPolicy = election.ElectionPolicy.MAX_POWER,
        registry=None,
    ):
        self.self_entry = entry
        self.domain = domain
        self.params = params or ProtocolParams()
        self.policy = policy
        self.registry = registry

        self.phase = _OFFLINE
        self.ait = Ait()
        self.agent: NodeId = NO_NODE
        # When each peer's entry last arrived. Its keys are always the AIT's
        # ids other than this node's own, so it is written and dropped
        # together with the AIT.
        self.last_heard_ms: dict[NodeId, float] = {}
        self.pending_queries: dict[int, discovery.PendingQuery] = {}

        # Wired by the scenario runner; None outside scenarios.
        self.metrics_cb = None
        # Static-comparison mode: the agent is pinned to this id instead of
        # elected. Only election.reevaluate_agent reads it.
        self.static_pin: NodeId | None = None

        self._join_started_ms: float | None = None

    @property
    def node_id(self) -> NodeId:
        return self.self_entry.node_id

    @property
    def is_member(self) -> bool:
        return self.phase is _MEMBER

    @property
    def is_agent(self) -> bool:
        return self.phase is _MEMBER and self.agent == self.node_id

    # -- membership operations ----------------------------------------------

    def initiate_join(self, net: Network) -> None:
        """Multicast JOIN and start collecting ACCEPTs for the window."""
        if self.phase is not _OFFLINE:
            raise AlreadyMember(f"node {self.node_id} is {self.phase.value}, not offline")
        self.phase = _JOINING
        self.ait = Ait([self.self_entry])
        self.last_heard_ms = {}
        self._join_started_ms = net.now
        net.send_multicast(self.node_id, self.domain, Message(_JOIN, self.self_entry))
        net.set_timer(self.node_id, TIMER_JOIN_DEADLINE, self.params.accept_window_ms)

    def initiate_leave(self, net: Network) -> None:
        """Multicast LEAVE and forget all domain state."""
        if self.phase is not _MEMBER:
            raise NotMember(f"node {self.node_id} is {self.phase.value}, not a member")
        net.send_multicast(self.node_id, self.domain, Message(_LEAVE, self.self_entry))
        self.phase = _LEFT
        self.ait.clear()
        self.agent = NO_NODE
        self.last_heard_ms.clear()
        net.cancel_timer(self.node_id, TIMER_HEARTBEAT)
        if self.registry is not None:
            self.registry.deregister(self.node_id, self.domain)

    def reset_offline(self) -> None:
        """Return a Left (or crashed-and-revived) node to Offline so it can
        join again. Scenario-level convenience; protocol state is cleared."""
        self.phase = _OFFLINE
        self.ait.clear()
        self.agent = NO_NODE
        self.last_heard_ms.clear()
        self.pending_queries.clear()

    def adjust_capacity(self, delta_mb: float) -> None:
        """Apply an allocation (negative) or release (positive) locally.
        Peers learn the new capacity from the next heartbeat."""
        new_cap = self.self_entry.storage_capacity_mb + delta_mb
        self.self_entry = replace(self.self_entry, storage_capacity_mb=new_cap)
        if self.phase is _JOINING or self.phase is _MEMBER:
            self.ait.upsert(self.self_entry)

    # -- event-loop entry points ---------------------------------------------

    def on_message(self, net: Network, msg: Message) -> None:
        kind = msg.kind
        if kind in PEER_ENTRY_KINDS:
            self._on_peer(net, kind, msg.sender)
        elif kind is _LEAVE:
            self._on_leave(net, msg.sender.node_id)
        elif kind is _QUERY:
            discovery.handle_query(self, net, msg)
        elif kind is _QUERY_RESP:
            discovery.handle_query_resp(self, net, msg)
        # DATA is a sink: it models bulk payload, nothing to do.

    def absorb(self, net: Network, recipients: tuple[NodeId, ...], i: int,
               msg: Message) -> int:
        """Handle recipients i.. of a delivery entry up to the first that
        needs `on_message` (see the module docstring), and return its index,
        or len(recipients) when all were taken. A taken recipient gets what
        `_on_peer` would do, with `Ait.upsert` written inline; only a new
        sender or a changed power costs a call (`election.moves_election`)."""
        kind = msg.kind
        if kind not in PEER_ENTRY_KINDS:
            return i
        handlers, crashed, now = net.handlers, net.crashed, net.now
        sender = msg.sender
        sid, power = sender.node_id, sender.processing_power_mhz
        join, announce = kind is _JOIN, kind is _AGENT_ANNOUNCE
        cls, member_phase, joining, hc = GosNode, _MEMBER, _JOINING, _HIGHEST_CONNECTIVITY
        for member in recipients[i:]:
            if member in crashed:
                continue
            node = handlers.get(member)
            if node.__class__ is not cls:
                return recipients.index(member, i)
            phase = node.phase
            if phase is member_phase:
                # A JOIN is answered with ACCEPT. HIGHEST_CONNECTIVITY always,
                # and a known sender with an unchanged power never, moves it.
                if join or node.policy is hc:
                    return recipients.index(member, i)
                entries = node.ait.by_id
                stored = entries.get(sid)
                if (stored is not sender
                        and (stored is None or stored.processing_power_mhz != power)
                        and election.moves_election(node.policy, stored, sender,
                                                    entries.get(node.agent))):
                    return recipients.index(member, i)
                entries[sid] = sender
                node.last_heard_ms[sid] = now
            elif phase is joining and not join:
                node.ait.by_id[sid] = sender
                node.last_heard_ms[sid] = now
                if announce:
                    node.agent = sid
        return len(recipients)

    def on_timer(self, net: Network, tag: str) -> None:
        if tag == TIMER_JOIN_DEADLINE:
            self._finish_join(net)
        elif tag == TIMER_HEARTBEAT:
            self.heartbeat_tick(net)
        elif tag.startswith(discovery.QUERY_TIMER_PREFIX):
            discovery.finalize_query(self, net, int(tag[len(discovery.QUERY_TIMER_PREFIX):]))

    # -- handlers --------------------------------------------------------------

    def _on_peer(self, net: Network, kind: MessageKind, sender: AitEntry) -> None:
        phase = self.phase
        if phase is _MEMBER:
            agent_entry = self.ait.by_id.get(self.agent)
            stored = self.ait.upsert(sender)
            self.last_heard_ms[sender.node_id] = net.now
            if kind is _JOIN:
                net.send_unicast(self.node_id, sender.node_id,
                                 Message(_ACCEPT, self.self_entry))
            if election.moves_election(self.policy, stored, sender, agent_entry):
                election.reevaluate_agent(self, net)
            if kind is _JOIN and self.agent == self.node_id:
                # Directed announce so the newcomer learns the incumbent.
                net.send_unicast(self.node_id, sender.node_id,
                                 Message(_AGENT_ANNOUNCE, self.self_entry))
        elif phase is _JOINING and kind is not _JOIN:
            self.ait.upsert(sender)
            self.last_heard_ms[sender.node_id] = net.now
            if kind is _AGENT_ANNOUNCE:
                self.agent = sender.node_id

    def _finish_join(self, net: Network) -> None:
        if self.phase is not _JOINING:
            return
        self.phase = _MEMBER
        if self.metrics_cb is not None and self._join_started_ms is not None:
            self.metrics_cb(MetricsRecord(
                KIND_JOIN_LATENCY, net.now - self._join_started_ms, "ms", net.now,
                {"node": str(self.node_id)},
            ))
        election.reevaluate_agent(self, net)
        net.set_timer(self.node_id, TIMER_HEARTBEAT, self.params.heartbeat_period_ms)

    def _on_leave(self, net: Network, leaver: NodeId) -> None:
        if self.phase is not _MEMBER:
            log.debug("node %d: LEAVE from %d ignored in phase %s",
                      self.node_id, leaver, self.phase.value)
            return
        if leaver == self.agent:
            self.agent = NO_NODE
        self.ait.remove(leaver)
        self.last_heard_ms.pop(leaver, None)
        election.reevaluate_agent(self, net)

    def heartbeat_tick(self, net: Network) -> None:
        """Multicast a fresh self entry, drop silent peers, re-arm.

        A peer is silent when `now - heard > failure_timeout_ms`. The
        peers are scanned only when the one heard longest ago is silent:
        for a fixed `now`, rounded float subtraction never grows as
        `heard` grows, so that test is exact. Keep the subtraction form:
        the cutoff form `heard < now - timeout` differs where a rounding
        lands on the timeout (now 702.1, heard 102.1, timeout 600 gives
        exactly 600.0, so the peer is kept, yet 102.1 < 702.1 - 600).
        """
        if self.phase is not _MEMBER:
            return
        net.send_multicast(self.node_id, self.domain,
                           Message(_HEARTBEAT, self.self_entry))
        now, timeout, last_heard = net.now, self.params.failure_timeout_ms, self.last_heard_ms
        oldest = min(last_heard.values(), default=None)
        if oldest is not None and now - oldest > timeout:
            timed_out = [peer for peer, heard in last_heard.items() if now - heard > timeout]
            agent_lost = False
            for peer in timed_out:
                self.ait.remove(peer)
                del last_heard[peer]
                if peer == self.agent:
                    agent_lost = True
            if agent_lost:
                self.agent = NO_NODE
            election.reevaluate_agent(self, net, evidence_ms=oldest)
        net.set_timer(self.node_id, TIMER_HEARTBEAT, self.params.heartbeat_period_ms)

    # -- election plumbing ------------------------------------------------------

    def announce_agency(self, net: Network) -> None:
        """Called when this node elected itself: tell the domain and, when
        it has a registry, join the virtual domain."""
        net.send_multicast(self.node_id, self.domain,
                           Message(_AGENT_ANNOUNCE, self.self_entry))
        if self.registry is not None:
            self.registry.register_agent(
                self.self_entry,
                domain=self.domain,
                ait=self.ait,
                policy=self.policy,
                heard=election.heard_members(self, net.now),
            )

    def record_election(self, net: Network, old: NodeId, new: NodeId, since_ms: float) -> None:
        self.metrics_cb(MetricsRecord(
            KIND_ELECTION_LATENCY, since_ms, "ms", net.now,
            {"node": str(self.node_id), "old": str(old), "new": str(new)},
        ))

    def __repr__(self) -> str:
        return (f"GosNode(id={self.node_id}, domain={self.domain}, "
                f"phase={self.phase.value}, agent={self.agent}, |ait|={len(self.ait)})")
