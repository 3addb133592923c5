"""Per-node membership state machine: join, leave and heartbeat-based
failure detection over the node's Adjacent Information Table.

Join: the newcomer multicasts JOIN with its own entry, members add it to
their AIT and answer ACCEPT by unicast; the newcomer builds its AIT from
the answers it collects during a fixed accept window, then becomes a
member and runs an election. Leave: a clean LEAVE multicast lets peers
drop the entry immediately. Failure: every member multicasts HEARTBEAT
each period and drops any peer silent for longer than the failure
timeout (three periods by default).

JOIN, ACCEPT, LEAVE, HEARTBEAT and AGENT_ANNOUNCE carry only the sender's
entry. A node builds each such immutable message once per `self_entry`,
on the first send after it was replaced, and every send shares it.

JOIN, ACCEPT, HEARTBEAT and AGENT_ANNOUNCE share one handler: a joining
node learns the entry (ignoring JOIN, and taking an announcing sender as
its agent); a member learns it, answers a JOIN with ACCEPT and re-elects
if the entry can move the election (`election.moves_election`); other
phases ignore it. Finishing its own join, a failure timeout and a LEAVE
from a peer in its view re-elect a member; other LEAVEs change nothing.

A node's AIT and `last_heard_ms` are read views of what it heard: the
records peer -> (time, entry) in its own dict `_own`, over, while it is a
member, its domain's `HeardBoard` of each sender's last fan-out that the
board took. A follower's own record of a peer (None: dropped) exists only
where its view departs from the board: it missed a fan-out (dropped, or
crashed), learned the entry through `on_message`, or dropped the peer on a
timeout or LEAVE. Its own id reads its `self_entry`.

The board also keeps its entries ranked by `core.fit_rank`
(`HeardBoard.ranked`), sorted on the first read and cleared only where
`take` writes an entry that is not the one it replaces. A member answers a
storage query, its own or a remote one, from its view without building
it (`GosNode.best_fit`): from its live `self_entry` on, it keeps the best
entry so far and its rank, and compares in place each of its own records
and then the first ranked entry that it reads from the board, with no
list of candidates. An allocation or release replaces `self_entry`
through `AitEntry.with_capacity`, which checks the new capacity alone.

Most deliveries of a heartbeat fan-out change nothing but the recipient's
view. `GosNode.absorb` (the `simnet` hand-off of a whole multicast
delivery entry) returns None, or the replies when the domain's
`HeardBoard` takes an entry of a peer entry. The board reads no message
kind, as a peer entry teaches a member only its sender's entry, and no
handler: it reaches nodes only through the followers and the joiners
(nodes that started a join and follow no board yet) that it holds. It
refuses an entry under one rule only: the entry can move the election of a
follower it reaches, each follower asked answering under its own election
policy and failure window (the board keeps none). A take teaches the
followers it reaches, and each joiner it reaches that is live and still
joining; offline and left nodes ignore peer entries. A follower that the
entry misses (not reached, or crashed) keeps, in an own record, what it
last read. A take writes the board, and own records only where the
followers it missed are not those that held one, so a settled heartbeat
period (every member is up and hears every fan-out, and no power changes)
costs the board write alone per fan-out, after one pass over the followers
while one runs HIGHEST_CONNECTIVITY; so does one where the same crashed
followers miss each fan-out. Only a taken JOIN has replies: each live
member's ACCEPT, and the agent's directed AGENT_ANNOUNCE (`GosNode.absorb`),
which the network sends after that member's deliver row. Every refused
entry goes through `on_message`, one recipient at a time.

Two departures from the bare message set keep elections convergent:
the current agent answers a JOIN with a directed AGENT_ANNOUNCE so the
newcomer learns the incumbent (power ties would otherwise leave it
guessing), and a node that elects itself announces domain-wide.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
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
    fit_rank,
    message_size_bytes,
)
from .metrics import KIND_JOIN_LATENCY, MetricsRecord
from .simnet import LinkConfig, Network

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


# Enum members bound once to module names, for the delivery path: on Python 3.11 a
# read such as `Phase.MEMBER` goes through EnumType.__getattr__ (0.18 us, 0.02 for a global).
_OFFLINE, _JOINING, _MEMBER, _LEFT = (Phase.OFFLINE, Phase.JOINING, Phase.MEMBER,
                                      Phase.LEFT)
_JOIN, _ACCEPT, _LEAVE = MessageKind.JOIN, MessageKind.ACCEPT, MessageKind.LEAVE
_HEARTBEAT, _AGENT_ANNOUNCE = MessageKind.HEARTBEAT, MessageKind.AGENT_ANNOUNCE
_QUERY, _QUERY_RESP = MessageKind.QUERY, MessageKind.QUERY_RESP
_NO_HOLDERS: frozenset[NodeId] = frozenset()  # `HeardBoard.take`'s holders of an unpinned sender


@dataclass
class ProtocolParams:
    accept_window_ms: float = 50.0
    heartbeat_period_ms: float = 1000.0
    failure_timeout_ms: float = 3000.0
    response_window_ms: float = 100.0

    @classmethod
    def from_links(cls, intra: LinkConfig, inter: LinkConfig, **given: float) -> "ProtocolParams":
        """The `given` params, and defaults derived from the link model for
        the others: the accept window covers a round trip on the slow path,
        the response window two inter-domain round trips, the heartbeat
        period keeps the class default, and the failure timeout is three
        heartbeat periods."""
        join_rt = 2 * intra.transit_ms(message_size_bytes(MessageKind.JOIN))
        query_rt = 2 * inter.transit_ms(message_size_bytes(MessageKind.QUERY_RESP))
        period = given.get("heartbeat_period_ms", cls.heartbeat_period_ms)
        return cls(**{"accept_window_ms": max(10.0, join_rt),
                      "response_window_ms": max(10.0, 2 * query_rt),
                      "failure_timeout_ms": 3 * period, **given})


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
        self.node_id: NodeId = entry.node_id
        self.domain = domain
        self.params = params or ProtocolParams()
        self._policy = policy
        self.registry = registry

        self.phase = _OFFLINE
        self.agent: NodeId = NO_NODE
        # Own records, peer -> (time, entry) or None (module docstring).
        self._own: dict[NodeId, tuple[float, AitEntry] | None] = {}
        self._board: HeardBoard | None = None
        # kind -> the entry-only message last sent (see `_message`).
        self._messages: dict[MessageKind, Message] = {}
        self.pending_queries: dict[int, discovery.PendingQuery] = {}

        # Wired by the scenario runner; None outside scenarios.
        self.metrics_cb = None
        # Static-comparison mode: the agent is pinned to this id instead of
        # elected. election.reevaluate_agent and scenario.QueryAction read it.
        self.static_pin: NodeId | None = None

        self._join_started_ms = 0.0  # set by initiate_join, the only way into JOINING

    @property
    def ait(self) -> Ait:
        """The AIT, built on read: every peer heard, plus this node's own
        `self_entry` while it is joining or a member."""
        ait = Ait()
        ait.by_id = self._view(self._board and self._board.entries, 1)
        if self.phase is _JOINING or self.phase is _MEMBER:
            ait.by_id[self.node_id] = self.self_entry
        return ait

    @property
    def last_heard_ms(self) -> dict[NodeId, float]:
        """When each peer's entry last arrived, built on read. Its keys are
        the AIT's ids other than this node's own."""
        return self._view(self._board and self._board.heard, 0)

    @property
    def policy(self) -> election.ElectionPolicy:
        """The election policy, fixed when the node is built."""
        return self._policy

    @property
    def is_member(self) -> bool:
        return self.phase is _MEMBER

    @property
    def is_agent(self) -> bool:
        return self.phase is _MEMBER and self.agent == self.node_id

    # -- membership operations ----------------------------------------------

    def initiate_join(self, net: Network) -> None:
        """Multicast JOIN and collect ACCEPTs for the window into `_own`, empty while offline."""
        if self.phase is not _OFFLINE:
            raise AlreadyMember(f"node {self.node_id} is {self.phase.value}, not offline")
        self.phase = _JOINING
        self._join_started_ms = net.now
        _board(net, self).joining[self.node_id] = self
        net.send_multicast(self.node_id, self.domain, self._message(_JOIN))
        net.set_timer(self.node_id, TIMER_JOIN_DEADLINE, self.params.accept_window_ms)

    def initiate_leave(self, net: Network) -> None:
        """Multicast LEAVE and forget all domain state."""
        if self.phase is not _MEMBER:
            raise NotMember(f"node {self.node_id} is {self.phase.value}, not a member")
        net.send_multicast(self.node_id, self.domain, self._message(_LEAVE))
        self.phase = _LEFT
        self._unfollow()
        net.cancel_timer(self.node_id, TIMER_HEARTBEAT)
        if self.registry is not None:
            self.registry.deregister(self.node_id, self.domain)

    def reset_offline(self) -> None:
        """Return a Left (or crashed-and-revived) node to Offline so it can
        join again. Scenario-level convenience; protocol state is cleared."""
        self.phase = _OFFLINE
        self._unfollow()
        self.pending_queries.clear()

    def adjust_capacity(self, delta_mb: float) -> None:
        """Apply an allocation (negative) or release (positive) locally.
        Peers learn the new capacity from the next heartbeat; this node's
        own AIT entry is its `self_entry`."""
        entry = self.self_entry
        self.self_entry = entry.with_capacity(entry.storage_capacity_mb + delta_mb)

    def _message(self, kind: MessageKind) -> Message:
        """The message of an entry-only kind (JOIN, ACCEPT, LEAVE, HEARTBEAT,
        AGENT_ANNOUNCE) carrying `self_entry`: built on the first send after
        the entry was replaced, and shared by every send until the next."""
        msg = self._messages.get(kind)
        if msg is None or msg.sender is not self.self_entry:
            msg = self._messages[kind] = Message(kind, self.self_entry)
        return msg

    # -- event-loop entry points ---------------------------------------------

    def on_message(self, net: Network, msg: Message) -> None:
        kind = msg.kind
        if kind in PEER_ENTRY_KINDS:
            self._on_peer(net, kind, msg.sender)
        elif kind is _LEAVE and self.phase is _MEMBER:  # other phases ignore a LEAVE
            if self._heard(peer := msg.sender.node_id)[0] is not None:  # a peer in the view
                self._drop(net, (peer,))
        elif kind is _QUERY:
            discovery.handle_query(self, net, msg)
        elif kind is _QUERY_RESP:
            discovery.handle_query_resp(self, net, msg)
        # DATA is a sink: it models bulk payload, nothing to do.

    def absorb(self, net: Network, recipients: tuple[NodeId, ...],
               msg: Message) -> Sequence[tuple[Message, ...]] | None:
        """Take a delivery entry whole, in one write of the domain's
        `HeardBoard`, and return the replies, or refuse it and return None
        (the module docstring says which). Only a taken JOIN has replies,
        one tuple for each recipient to the sender."""
        kind = msg.kind
        if kind not in PEER_ENTRY_KINDS:
            return None
        board = self._board or _board(net, self)
        if not board.take(net, recipients, msg):
            return None
        if kind is not _JOIN:
            return ()
        followers, crashed = board.followers, net.crashed
        return [() if member in crashed or (node := followers.get(member)) is None
                else node._join_replies() for member in recipients]

    def on_timer(self, net: Network, tag: str) -> None:
        if tag == TIMER_HEARTBEAT:  # by far the most frequent
            self.heartbeat_tick(net)
        elif tag == TIMER_JOIN_DEADLINE:
            self._finish_join(net)
        elif tag.startswith(discovery.QUERY_TIMER_PREFIX):
            discovery.finalize_query(self, net, int(tag[len(discovery.QUERY_TIMER_PREFIX):]))

    # -- handlers --------------------------------------------------------------

    def _on_peer(self, net: Network, kind: MessageKind, sender: AitEntry) -> None:
        phase = self.phase
        if phase is _MEMBER:
            moves = self._moves(sender, net.now)
            self._hear(sender.node_id, (net.now, sender))
            if kind is _JOIN:
                net.send_unicast(self.node_id, sender.node_id, self._message(_ACCEPT))
            if moves:
                election.reevaluate_agent(self, net)
            if kind is _JOIN and self.agent == self.node_id:
                # Directed announce so the newcomer learns the incumbent.
                net.send_unicast(self.node_id, sender.node_id, self._message(_AGENT_ANNOUNCE))
        elif phase is _JOINING:
            self._learn_joining(kind, (net.now, sender))

    def _join_replies(self) -> tuple[Message, ...]:
        """What this member sends a newcomer whose JOIN moves no election:
        ACCEPT, and the agent's directed AGENT_ANNOUNCE (see `_on_peer`)."""
        if self.agent == self.node_id:
            return self._message(_ACCEPT), self._message(_AGENT_ANNOUNCE)
        return (self._message(_ACCEPT),)

    def _learn_joining(self, kind: MessageKind, record: tuple[float, AitEntry]) -> None:
        """A joining node learns a peer entry other than JOIN, and takes an
        announcing sender as its agent. It follows no board yet."""
        if kind is not _JOIN:
            self._own[record[1].node_id] = record
            if kind is _AGENT_ANNOUNCE:
                self.agent = record[1].node_id

    def _finish_join(self, net: Network) -> None:
        if self.phase is not _JOINING:
            return
        self.phase = _MEMBER
        _board(net, self).follow(self)
        if self.metrics_cb is not None:
            self.metrics_cb(MetricsRecord(
                KIND_JOIN_LATENCY, net.now - self._join_started_ms, "ms", net.now,
                {"node": str(self.node_id)},
            ))
        election.reevaluate_agent(self, net)
        net.set_timer(self.node_id, TIMER_HEARTBEAT, self.params.heartbeat_period_ms)

    def heartbeat_tick(self, net: Network) -> None:
        """Multicast a fresh self entry, drop silent peers, re-arm.

        A peer is silent when `now - heard > failure_timeout_ms`. The peers
        are scanned only when the one heard longest ago (`_oldest_heard`) is
        silent: for a fixed `now`, rounded float subtraction never grows as
        `heard` grows, so that test is exact. Keep the subtraction form:
        the cutoff form `heard < now - timeout` differs where a rounding
        lands on the timeout (now 702.1, heard 102.1, timeout 600 gives
        exactly 600.0, so the peer is kept, yet 102.1 < 702.1 - 600).
        """
        if self.phase is not _MEMBER:
            return
        net.send_multicast(self.node_id, self.domain, self._message(_HEARTBEAT))
        now, timeout = net.now, self.params.failure_timeout_ms
        oldest = self._oldest_heard()
        if oldest is not None and now - oldest > timeout:
            self._drop(net, [peer for peer, heard in self.last_heard_ms.items()
                             if now - heard > timeout], evidence_ms=oldest)
        net.set_timer(self.node_id, TIMER_HEARTBEAT, self.params.heartbeat_period_ms)

    def _drop(self, net: Network, peers: Sequence[NodeId],
              evidence_ms: float | None = None) -> None:
        """Drop each peer from what this member heard, forget the agent if it
        is among them, and re-elect (`evidence_ms` as in `reevaluate_agent`)."""
        for peer in peers:
            self._hear(peer, None)
        if self.agent in peers:
            self.agent = NO_NODE
        election.reevaluate_agent(self, net, evidence_ms)

    # -- what this node heard ---------------------------------------------------

    def best_fit(self, required_mb: float) -> AitEntry | None:
        """`discovery.best_fit(self.ait, required_mb)` of a member, without building
        the AIT: the best `fit_rank` of its live `self_entry`, its own records and
        the first ranked board entry it reads, if that covers the request. It keeps
        the best so far and its rank, and compares each of those entries in place."""
        own, node_id = self._own, self.node_id
        best = self.self_entry
        rank = fit_rank(best)
        for record in own.values():
            if record is not None and (entry_rank := fit_rank(record[1])) > rank:
                best, rank = record[1], entry_rank
        for entry in self._board.ranked():
            if entry.node_id not in own and entry.node_id != node_id:
                if fit_rank(entry) > rank:
                    best = entry
                break
        return best if best.storage_capacity_mb >= required_mb else None

    def _view(self, board: dict | None, field: int) -> dict:
        """Field 0 (time) or 1 (entry) of what this node heard from each
        peer: the board's dict of that field, overridden by the own records."""
        view = dict(board) if board is not None else {}
        view.pop(self.node_id, None)
        for peer, record in self._own.items():
            if record is None:
                view.pop(peer, None)
            else:
                view[peer] = record[field]
        return view

    def _heard(self, peer: NodeId) -> tuple[float | None, AitEntry | None]:
        """(time, entry) of what this member last heard from a peer, or (None, None)."""
        if peer in self._own:
            return self._own[peer] or (None, None)
        return self._board.heard.get(peer), self._board.entries.get(peer)

    def _moves(self, entry: AitEntry, now: float) -> bool:
        """Whether learning entry at `now` can move this member's election."""
        agent = self.agent
        heard, held = (now, self.self_entry) if agent == self.node_id else self._heard(agent)
        return election.moves_election(self._policy, self._heard(entry.node_id)[1], entry, held,
                                       heard, now, self.params.failure_timeout_ms)

    def _hear(self, peer: NodeId, record: tuple[float, AitEntry] | None) -> None:
        """Set what this member heard from peer: (time, entry), or None to drop it."""
        self._own[peer] = record
        self._board.pinned[peer].add(self.node_id)

    def _oldest_heard(self) -> float | None:
        """`min(self.last_heard_ms.values(), default=None)`, from the own
        records and the first board record in time order that this node reads."""
        own, oldest = self._own, None
        for peer, heard in self._board.heard.items():
            if peer not in own and peer != self.node_id:
                oldest = heard
                break
        for record in own.values():
            if record is not None and (oldest is None or record[0] < oldest):
                oldest = record[0]
        return oldest

    def _unfollow(self) -> None:
        """Forget everything heard and the agent, and stop following the board."""
        if self._board is not None:
            self._board.unfollow(self)
        self._own, self.agent = {}, NO_NODE

    # -- election plumbing ------------------------------------------------------

    def announce_agency(self, net: Network) -> None:
        """Called when this node elected itself (`election.reevaluate_agent`):
        tell the domain and, when it has a registry, join the virtual domain."""
        net.send_multicast(self.node_id, self.domain, self._message(_AGENT_ANNOUNCE))
        if self.registry is not None:
            self.registry.register_agent(self.self_entry, domain=self.domain)

    def __repr__(self) -> str:
        return (f"GosNode(id={self.node_id}, domain={self.domain}, "
                f"phase={self.phase.value}, agent={self.agent}, |ait|={len(self.ait)})")


def _board(net: Network, node: GosNode) -> HeardBoard:
    if node.domain not in net.heard_boards:
        net.heard_boards[node.domain] = HeardBoard(net.domain_members(node.domain))
    return net.heard_boards[node.domain]


class HeardBoard:
    """One domain's heard board (module docstring); it keeps no election
    policy. For each sender whose fan-out it took, `heard` holds the time
    of the last one, oldest first, and `entries` its entry. `followers` are
    the members that read it, and `pinned[peer]` those with an own record
    of peer. `joining` holds each node that started a join (`initiate_join`)
    until it follows; one reset while joining stays until it joins again.
    `_ranked` memoizes `ranked()` until `take` writes a new entry."""

    def __init__(self, members: tuple[NodeId, ...]):
        self.members = members
        self.heard: dict[NodeId, float] = {}
        self.entries: dict[NodeId, AitEntry] = {}
        self.followers: dict[NodeId, GosNode] = {}
        self.pinned: defaultdict[NodeId, set[NodeId]] = defaultdict(set)
        self.joining: dict[NodeId, GosNode] = {}
        self._ranked: list[AitEntry] | None = None
        # Does a follower's policy read heard times (`take` then asks all reached)?
        self.timed = False

    def follow(self, node: GosNode) -> None:
        """Let a node whose `_own` is its whole view read the board: the
        senders on the board that it has not heard become dropped records."""
        node._own = {**dict.fromkeys([p for p in self.heard if p != node.node_id]), **node._own}
        for peer in node._own:
            self.pinned[peer].add(node.node_id)
        self.followers[node.node_id] = node
        self.joining.pop(node.node_id, None)
        self.timed = self.timed or election.reads_heard_times(node._policy)
        node._board = self

    def unfollow(self, node: GosNode) -> None:
        for peer in node._own:
            self.pinned[peer].discard(node.node_id)
        del self.followers[node.node_id]
        self.timed = any(election.reads_heard_times(f._policy) for f in self.followers.values())
        node._board = None

    def take(self, net: Network, recipients: tuple[NodeId, ...], msg: Message) -> bool:
        """Take a delivery entry of a peer entry, whatever its kind and
        sender, in one write, unless the one rule (module docstring) refuses
        it; return whether it did, changing nothing if not. Only
        `_learn_joining` reads `msg.kind`. An entry that holds every member
        but the sender is its fan-out.

        One pass: (1) find the followers that missed the entry (not reached,
        or crashed) and the holders of an own record of the sender; (2) ask
        every follower reached if `timed` (a follower's policy reads heard
        times) or the board lacks the sender's power, which its readers then
        read, and otherwise each reached holder whose record lacks it; (3)
        refuse if one would re-elect under its own policy; (4) unless the
        followers that missed it are the holders, give each that missed it an
        own record of the entry it last read, drop the own record of each
        holder that got it, and store the missed as the holders; (5) teach
        each joiner reached, live and still joining; (6) write the board. A
        settled fan-out (module docstring) does nothing in step 4, and asks
        only while `timed`."""
        sender, followers = msg.sender, self.followers
        sid, now = sender.node_id, net.now
        crashed, holders = net.crashed, self.pinned.get(sid, _NO_HOLDERS)
        stored, power = self.entries.get(sid), sender.processing_power_mhz
        lacks = stored is None or stored.processing_power_mhz != power
        whole = len(recipients) == len(self.members) - 1
        missed = set() if whole else followers.keys() - {sid, *recipients}
        if crashed:
            missed.update([m for m in crashed if m in followers and m != sid])
        if self.timed or lacks:  # no set to build when none missed it
            asked = followers.keys() - missed if missed else followers
        else:
            asked = [p for p in holders - missed if not (record := followers[p]._own[sid])
                     or record[1].processing_power_mhz != power] if holders else ()
        if asked and self._moves(sender, now, asked):
            return False
        if missed != holders:  # else the own records already fit
            old = stored and (self.heard[sid], stored)
            for peer in holders - missed:
                del followers[peer]._own[sid]
            for peer in missed - holders:
                followers[peer]._own[sid] = old
            self.pinned[sid] = missed
        for nid, node in self.joining.items():
            if (node.phase is _JOINING and nid != sid and nid not in crashed
                    and (whole or nid in recipients)):
                node._learn_joining(msg.kind, (now, sender))
        heard = self.heard
        heard.pop(sid, None)
        heard[sid], self.entries[sid] = now, sender
        if sender is not stored:
            self._ranked = None
        return True

    def plain_readers(self, ids: set[NodeId]) -> set[NodeId]:
        """The followers whose AIT ids are `ids`, told from the board without
        building a view. A follower holding no own record, a member, sees the
        board's senders and itself. That is `ids` when the board's senders are
        all in `ids`, so is the follower, and `ids` holds one id beyond them
        exactly when the board lacks the follower. A follower holding an own
        record is left out, whatever it sees."""
        entries = self.entries
        if not ids.issuperset(entries):
            return set()
        extra = len(ids) - len(entries)
        return {peer for peer, node in self.followers.items()
                if not node._own and peer in ids and extra == (peer not in entries)}

    def ranked(self) -> list[AitEntry]:
        """The board's entries, highest `fit_rank` first."""
        if self._ranked is None:
            self._ranked = sorted(self.entries.values(), key=fit_rank, reverse=True)
        return self._ranked

    def _moves(self, sender: AitEntry, now: float, asked) -> bool:
        """Whether sender's entry at `now` moves a follower in `asked` but the sender. Those reading
        it and their agent (another node) from the board ask once per agent, policy and window."""
        sid, answered = sender.node_id, set()
        for peer in asked:
            node = self.followers[peer]
            agent, own = node.agent, node._own
            rule = agent != peer and agent not in own and sid not in own and (
                agent, node._policy, node.params.failure_timeout_ms)
            if peer == sid or rule in answered:
                continue
            if node._moves(sender, now):
                return True
            if rule:
                answered.add(rule)
        return False
