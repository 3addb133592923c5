"""Deterministic discrete-event network.

Unicast, domain-scoped multicast, one-shot timers and a link model with
configurable delay, drop probability and bandwidth. The event loop is
single-threaded; (topology, seed) fully determine the run, so traces
from identical inputs are byte-identical.

A delivery attempt over a lossy link draws one `random()` from the seeded
generator, in send order and, within a multicast, in member order, and is
dropped if the draw is below the link's drop_probability. An attempt over
a lossless link (drop_probability 0) draws nothing.

Delivery latency for a message of s bytes over a link is

    delay_ms + s * 8 / (bandwidth_mbps * 1000)   [ms]

where a DATA message's s is size_mb * 1024 * 1024, and its size_mb must be
finite and >= 0 (core.transit_size_bytes raises InvalidValue otherwise),
so no delivery lands before its send.

A send is checked before it leaves any mark. A unicast raises, in this
order: UnknownNode for an unknown src, NodeCrashed for a crashed src,
UnknownNode for an unknown dst, then InvalidValue for a bad DATA size; a
multicast the first two and the last, and set_timer UnknownNode for an
unknown owner, then InvalidValue for a negative or non-finite delay. A
refused call adds no trace row, takes no seq, draws nothing and queues
nothing.

The event queue is a heap of plain tuples ordered by (time_ms, seq); seq
strictly increases with scheduling order, so simultaneity ties break
deterministically. A timer is (time_ms, seq, owner, None, tag). A
multicast's delivery is (time_ms, first_seq, recipients, msg, sent), one
entry per call: recipients are the members that survived their drop
draws, in ascending id order, and recipient i takes seq first_seq + i from
a block reserved at send time. sent is the call's send record, whose kind
name and size the deliver rows repeat, so neither is worked out again
when the entry is taken. All recipients share one link and one message
size, so they arrive at the same instant, and one step takes them in
turn. No other event can fall between two of them: the block is
consecutive, and an event a handler schedules gets a larger seq at a time
no earlier than now. Whether a recipient is crashed is checked as it is
taken.

A unicast entry is (time_ms, first_seq, (dst,), None, deliveries): unicasts
to dst arriving at time_ms, as a list of (seq, msg) in seq order, first_seq
being the first. A unicast's delivery joins the unicast entry queued last
when that entry is to the same dst at the same arrival time, that time is
still ahead of now, and no seq was taken since the entry's last delivery;
else it is queued as a new entry. The joining unicast's own send row
then takes the only seq between the two deliveries, so no other event can
fall between them. One step takes
the deliveries in turn, each with its deliver row, as a record of one row,
and then dst's on_message if dst is not crashed.

Trace rows record sends (one row per unicast or multicast call), actual
deliveries, and fired timers. Deliveries addressed to a crashed node are
still traced (the packet arrived) but no handler runs; timers owned by a
crashed node vanish silently. A crashed node cannot send: sending from it
raises NodeCrashed.

Network.trace is a Trace, a read-only sequence of TraceRow stored as an
append-only list of complete records of one shape, (time_ms, first_seq,
kind, src, dsts, msg_kind, size_bytes): row j of a record has seq
first_seq + j, from str(src) and to str(dsts[j]), and is built only when
read. Network appends each record to that list itself; the row count and
the index of each record's first row are worked out from the records on
read. A send or fired timer is one row: dsts is a unicast's (dst,), a
multicast's group label ("domain3",) or ("virtual",), or a timer's
(owner,) with src "". A record of more rows is a run of one multicast
entry's deliveries: kind "deliver", an int src, a KIND_NAMES name and
int node-id dsts. Every record's time is a float, as the clock always is
(run_until advances it to float(time_ms)). export_trace relies on these
shapes. A record never changes once appended, so records share dsts: a
node's (node,) is one tuple for all its timer rows, the rows of unicasts
to it and its deliver rows of refused multicast entries, and a domain
multicast that lost no attempt delivers its sender's cached fan-out tuple
itself. While a recipient's handler runs, trace[-1] is its deliver row.

A handler may also have absorb(net, recipients, msg), which returns None
or the replies. The loop asks the first recipient's handler once per
multicast's delivery entry, if it has one; a unicast entry is never
offered. None refuses the entry: absorb changed nothing, and each
recipient in turn gets its deliver row, as a record of one row, and then
its on_message. The replies take the whole entry: a sequence of tuples of
messages, one per recipient in recipient order, and recipients past its
end send nothing, so () takes it silently. The loop writes each replying
recipient's deliver row, after the rows not yet written before it, as one
record, then sends that recipient's messages to the entry's sender with
send_unicast, as on_message would have sent them (so none from a crashed
recipient). The rest of the entry is one record, so a silent take is one
record sharing the entry's recipients tuple.
absorb may take an entry only when handling it sends those replies and
changes the recipients' own state, and nothing else: no other send, no
timer, no trace row, no metric, and for each recipient the state
on_message would leave (none for a crashed one, since no handler runs for
it). It answers for the recipients as it knows them: the loop asks no
other recipient's handler about a taken entry. Either way rows keep their
order and seqs, draws theirs, and pending() is what it would be had every
recipient gone through on_message. absorb is optional.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from bisect import bisect_right
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from operator import index as as_index
from typing import NamedTuple

from .core import (
    DomainId,
    DssmError,
    KIND_NAMES,
    InvalidValue,
    IoError,
    Message,
    MessageKind,
    NodeId,
    _MAX_DOMAIN_ID,
    _MAX_NODE_ID,
    message_size_bytes,
    transit_size_bytes,
)

# Distinguished multicast group holding the current domain agents.
VIRTUAL: DomainId = -1

# The largest message but DATA, whose transit size is its payload's: every
# link must carry it in finite time.
_CONTROL_BYTES = max(message_size_bytes(kind) for kind in MessageKind
                     if kind is not MessageKind.DATA)


class UnknownNode(DssmError):
    """A node id that is not part of the topology."""


class InvalidTopology(DssmError):
    pass


class NodeCrashed(DssmError):
    """A crashed node was asked to send."""


@dataclass
class LinkConfig:
    delay_ms: float
    drop_probability: float
    bandwidth_mbps: float

    def __post_init__(self):
        for name in ("delay_ms", "bandwidth_mbps"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidTopology(f"{name} {getattr(self, name)} must be finite")
        if self.delay_ms < 0:
            raise InvalidTopology(f"delay_ms {self.delay_ms} must be >= 0")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise InvalidTopology(
                f"drop_probability {self.drop_probability} must be in [0, 1]"
            )
        if self.bandwidth_mbps <= 0:
            raise InvalidTopology(f"bandwidth_mbps {self.bandwidth_mbps} must be > 0")
        # Else every send over the link is queued for delivery at time inf.
        if not math.isfinite(self.transit_ms(_CONTROL_BYTES)):
            raise InvalidTopology(
                f"delay_ms {self.delay_ms} and bandwidth_mbps {self.bandwidth_mbps} give a "
                f"{_CONTROL_BYTES}-byte message a transit time that is not finite")

    def transit_ms(self, size_bytes: float) -> float:
        """Propagation plus serialization time for size_bytes."""
        return self.delay_ms + size_bytes * 8.0 / (self.bandwidth_mbps * 1000.0)


@dataclass
class Topology:
    """Node -> domain assignment plus the two link classes."""

    nodes: dict[NodeId, DomainId]
    intra_domain_link: LinkConfig
    inter_domain_link: LinkConfig

    def validate(self) -> None:
        for node, domain in self.nodes.items():
            for name, value in (("node id", node), ("domain", domain)):
                if type(value) is not int:  # the trace prints 3.0 or True as such
                    raise InvalidTopology(f"{name} {value!r} is not an int")
            if not 0 <= domain <= _MAX_DOMAIN_ID:
                raise InvalidTopology(f"domain {domain} outside 0..65535")
            if not 1 <= node <= _MAX_NODE_ID:
                raise InvalidTopology(f"node id {node} outside 1..2^32-1")


class TraceRow(NamedTuple):
    time_ms: float
    seq: int
    kind: str  # "send" | "deliver" | "timer"
    src: str
    dst: str
    msg_kind: str
    size_bytes: float

    def csv(self) -> str:
        # Sizes are floats, or the int 0 of a timer row: repr gives both.
        time_ms, seq, kind, src, dst, msg_kind, size_bytes = self
        return f"{time_ms!r},{seq},{kind},{src},{dst},{msg_kind},{size_bytes!r}"


TRACE_HEADER = "time_ms,seq,kind,from,to,msg_kind,size_bytes"

# export_trace writes once it has joined this many rows. It counts rows,
# not records: a delivery batch is one record of up to N rows.
_ROWS_PER_WRITE = 512

# Builds a TraceRow from a tuple of its fields without the Python-level
# __new__ of NamedTuple, which costs about 2.5 times as much per row.
_new_row = tuple.__new__


def _cut(record, start: int, stop: int):
    """The rows start..stop-1 of a record, as a record."""
    time_ms, first, kind, src, dsts, msg_kind, size = record
    if start == 0 and stop >= len(dsts):
        return record
    return (time_ms, first + start, kind, src, dsts[start:stop], msg_kind, size)


class Trace(Sequence):
    """A read-only sequence of TraceRow; see the module docstring for the
    records behind it. Only Network appends, straight to `_records`. A
    slice is a Trace sharing the records of its range, not a list of rows
    (`_slice`)."""

    __slots__ = ("_records", "_starts")

    def __init__(self, records: list | None = None):
        self._records = [] if records is None else records
        # The row index of each record's first row, then the row count,
        # filled in on read.
        self._starts = array("q", [0])

    def __len__(self) -> int:
        return self._index()[-1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._slice(index)
        record, j = self._find(index)
        time_ms, first, kind, src, dsts, msg_kind, size = record
        return _new_row(TraceRow, (time_ms, first + j, kind, str(src), str(dsts[j]),
                                   msg_kind, size))

    def __iter__(self):
        for time_ms, first, kind, src, dsts, msg_kind, size in self._records:
            src = str(src)
            for seq, dst in enumerate(dsts, first):
                yield _new_row(TraceRow, (time_ms, seq, kind, src, str(dst), msg_kind, size))

    def __eq__(self, other):
        if not isinstance(other, (Trace, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    # -- reading internals ----------------------------------------------------

    def _index(self) -> array:
        """The row index, extended to the records appended since the last read."""
        starts, records = self._starts, self._records
        # Records never change once appended, so each start is found once.
        for k in range(len(starts) - 1, len(records)):
            starts.append(starts[k] + len(records[k][4]))
        return starts

    def _find(self, index) -> tuple:
        """The record holding row `index` (negative from the end), and its offset."""
        i, n = as_index(index), len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace index out of range")
        k = bisect_right(self._starts, i) - 1
        return self._records[k], i - self._starts[k]

    def _slice(self, s: slice) -> Trace:
        lo, hi, step = s.indices(len(self))
        if step != 1:
            return Trace([_cut(record, j, j + 1)
                          for record, j in map(self._find, range(lo, hi, step))])
        if lo >= hi:
            return Trace()
        starts = self._starts
        first, last = bisect_right(starts, lo) - 1, bisect_right(starts, hi - 1) - 1
        records = self._records[first:last + 1]
        records[-1] = _cut(records[-1], 0, hi - starts[last])
        records[0] = _cut(records[0], lo - starts[first], hi - starts[first])
        return Trace(records)


def export_trace(trace: Trace, path) -> None:
    """Write a trace that a Network wrote as CSV; an unwritable path raises
    IoError.

    Every record's time is a float, so a run of records with an equal time
    shares its repr. A record of one row is written with one f-string,
    which takes any fields. A record of n > 1 rows is a run of deliveries
    (module docstring): kind "deliver", an int src, a KIND_NAMES name and
    int node-id dsts (Topology.validate), so no constant part holds a `%`.
    Its rows differ only in seq and dst, and it is written with one bytes
    `%`-format: the pattern `{time},%d,deliver,{src},%d,{msg_kind},{size}`
    repeated n times, formatted with the interleaved (seq, dst) values,
    then decoded. Bytes `%d` writes an exact int's digits, its str(), with
    no str per value."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(TRACE_HEADER + "\n")
            lines, rows = [], 0
            last_time = head = None
            for time_ms, first, kind, src, dsts, msg_kind, size in trace._records:
                if time_ms != last_time:
                    head, last_time = f"{time_ms!r},", time_ms
                n = len(dsts)
                if n == 1:
                    lines.append(f"{head}{first},{kind},{src},{dsts[0]},{msg_kind},{size!r}\n")
                else:
                    args = [None] * (2 * n)
                    args[::2] = range(first, first + n)
                    args[1::2] = dsts
                    lines.append((f"{head}%d,{kind},{src},%d,{msg_kind},{size!r}\n".encode() * n
                                  % tuple(args)).decode())
                rows += n
                if rows >= _ROWS_PER_WRITE:
                    fh.write("".join(lines))
                    lines.clear()
                    rows = 0
            fh.write("".join(lines))
    except OSError as exc:
        raise IoError(str(exc)) from exc


class Network:
    """The simulated network. Never shared across threads."""

    def __init__(self, topology: Topology, seed: int):
        topology.validate()
        self.topology = topology
        self.intra_link = topology.intra_domain_link
        self.inter_link = topology.inter_domain_link
        self.rng = random.Random(seed)
        self.now = 0.0
        self.handlers: dict[NodeId, object] = {}
        self.crashed: set[NodeId] = set()
        # The VIRTUAL group: node ids in ascending order on iteration. Empty
        # until a discovery.VirtualDomain registry attaches itself here.
        self.virtual_members: Collection[NodeId] = ()
        # Each domain's membership.HeardBoard, made by membership on first use.
        self.heard_boards: dict[DomainId, object] = {}
        self.trace = Trace()
        # Timer, multicast and unicast entries (module docstring).
        self._heap: list[tuple[float, int, tuple[NodeId, ...] | NodeId,
                               Message | None, str | list | None]] = []
        # The unicast entry queued last, which the next unicast may join.
        self._unicast: tuple | None = None
        self._seq = 0
        # Queued events: one per recipient or unicast still to be taken, plus
        # timer entries.
        self._pending = 0
        self._timers: dict[tuple[NodeId, str], int] = {}
        # Per-domain members, built once: the topology never changes in a run.
        members: dict[DomainId, list[NodeId]] = {}
        for node, domain in sorted(topology.nodes.items()):
            members.setdefault(domain, []).append(node)
        self._members = {domain: tuple(ids) for domain, ids in members.items()}
        # The `dsts` of a multicast's send record: its group's label.
        self._labels = {domain: (f"domain{domain}",) for domain in members}
        self._labels[VIRTUAL] = ("virtual",)
        # (group, src) -> the members of a domain multicast but its sender,
        # over a lossless link its recipients, over a lossy one its attempts.
        self._fanouts: dict[tuple[DomainId, NodeId], tuple[NodeId, ...]] = {}
        # Each node's (node,): the dsts of its timer rows, of unicasts to it
        # and of its deliver rows of refused multicast entries.
        self._ones = {node: (node,) for node in topology.nodes}

    # -- wiring ------------------------------------------------------------

    def register_handler(self, node_id: NodeId, handler) -> None:
        """Attach the protocol object that receives this node's events.

        The handler must expose on_message(net, msg) and on_timer(net, tag),
        and may expose absorb(net, recipients, msg), which returns None or
        the replies (module docstring). An absorbing handler answers for the
        recipients as it knows them, not through the handlers registered
        for them, so registering another handler for one changes no take.
        """
        self._require(node_id)
        self.handlers[node_id] = handler

    def crash(self, node_id: NodeId) -> None:
        """Silence a node: it stops receiving and ticking, and sending from
        it raises NodeCrashed."""
        self._require(node_id)
        self.crashed.add(node_id)

    def revive(self, node_id: NodeId) -> None:
        self._require(node_id)
        self.crashed.discard(node_id)

    def domain_members(self, domain: DomainId) -> tuple[NodeId, ...]:
        """The domain's node ids in ascending order; () for an unknown domain."""
        return self._members.get(domain, ())

    def link_between(self, a: NodeId, b: NodeId) -> LinkConfig:
        same = self._require(a) == self._require(b)
        return self.intra_link if same else self.inter_link

    # -- traffic -----------------------------------------------------------

    def send_unicast(self, src: NodeId, dst: NodeId, msg: Message) -> None:
        """One delivery attempt over the link between src and dst; over a
        lossy link it draws once (module docstring). The delivery joins the
        last unicast entry when nothing can fall between them."""
        domain = self._require_live(src)
        link = self.intra_link if domain == self._require(dst) else self.inter_link
        size = transit_size_bytes(msg)
        at = self.now + link.transit_ms(size)
        last, dsts = self._unicast, self._ones[dst]
        joins = (last is not None and last[2] is dsts and last[0] == at > self.now
                 and last[4][-1][0] == self._seq)
        self._trace_send(src, dsts, msg, size)
        if link.drop_probability and self.rng.random() < link.drop_probability:
            return
        self._seq += 1
        self._pending += 1
        if joins:
            last[4].append((self._seq, msg))
        else:
            self._unicast = (at, self._seq, dsts, None, [(self._seq, msg)])
            heapq.heappush(self._heap, self._unicast)

    def send_multicast(self, src: NodeId, group: DomainId, msg: Message) -> None:
        """One independent delivery attempt per group member except the
        sender; over a lossy link each draws once (module docstring). VIRTUAL
        targets the current agents over the inter-domain link."""
        if src in self.crashed or src not in self.topology.nodes:
            self._require_live(src)  # raises
        link = self.inter_link if group == VIRTUAL else self.intra_link
        size = transit_size_bytes(msg)
        recipients = self._fanouts.get((group, src))
        if recipients is None:
            if group == VIRTUAL:  # the agents change; a domain does not
                recipients = tuple([m for m in self.virtual_members if m != src])
            else:
                recipients = self._fanouts[(group, src)] = tuple(
                    [m for m in self._members.get(group, ()) if m != src])
        self._seq += 1
        self.trace._records.append((self.now, self._seq, "send", src,
                                    self._labels.get(group) or (f"domain{group}",),
                                    KIND_NAMES[msg.kind], size))
        drop = link.drop_probability
        if drop:
            # One draw per attempt, in member order; a new tuple only if one drops.
            draw = self.rng.random
            kept = [m for m in recipients if draw() >= drop]
            if len(kept) < len(recipients):
                recipients = tuple(kept)
        if recipients:
            self._push_delivery(self.now + link.transit_ms(size), recipients, msg)

    def set_timer(self, owner: NodeId, tag: str, fire_in_ms: float) -> None:
        """Schedule a one-shot timer; re-setting (owner, tag) replaces any
        pending one. A delay that is negative or not finite raises
        InvalidValue."""
        if owner not in self.topology.nodes:
            self._require(owner)  # raises
        if not 0.0 <= fire_in_ms < math.inf:
            raise InvalidValue(f"timer delay {fire_in_ms} must be finite and >= 0")
        self._seq += 1
        seq = self._timers[(owner, tag)] = self._seq
        self._pending += 1
        heapq.heappush(self._heap, (self.now + fire_in_ms, seq, owner, None, tag))

    def cancel_timer(self, owner: NodeId, tag: str) -> None:
        self._require(owner)
        self._timers.pop((owner, tag), None)

    # -- event loop --------------------------------------------------------

    def pending(self) -> int:
        """Queued events: undelivered recipients and unicasts plus timer
        entries (a replaced or cancelled timer counts until its deadline
        passes)."""
        return self._pending

    def run_until(self, time_ms: float) -> None:
        """Process every event due at or before time_ms, then advance the
        clock to float(time_ms), so the clock, and every record's time, is
        always a float."""
        self.run_until_quiescent(time_ms)
        self.now = max(self.now, float(time_ms))

    def run_until_quiescent(self, max_time_ms: float) -> Trace:
        """Drain the queue, stopping once it is empty or the next event lies
        beyond max_time_ms. Returns the full trace collected so far."""
        heap, step = self._heap, self._step
        while heap and heap[0][0] <= max_time_ms:
            step()
        return self.trace

    # -- internals ----------------------------------------------------------

    def _require(self, node_id: NodeId) -> DomainId:
        """The node's domain; an unknown node raises UnknownNode."""
        domain = self.topology.nodes.get(node_id)
        if domain is None:
            raise UnknownNode(f"node {node_id} not in topology")
        return domain

    def _require_live(self, node_id: NodeId) -> DomainId:
        """The domain of a node that may send: an unknown node raises
        UnknownNode, a crashed one NodeCrashed."""
        domain = self.topology.nodes.get(node_id)
        if domain is None or node_id in self.crashed:
            self._require(node_id)
            raise NodeCrashed(f"node {node_id} is crashed and cannot send")
        return domain

    def _trace_send(self, src: NodeId, dsts: tuple, msg: Message, size: float) -> None:
        self._seq += 1
        self.trace._records.append((self.now, self._seq, "send", src, dsts,
                                    KIND_NAMES[msg.kind], size))

    def _push_delivery(self, at: float, recipients: tuple[NodeId, ...], msg: Message) -> None:
        """Queue a multicast's delivery entry, right after its send record:
        the record appended last, whose kind name and size its rows repeat."""
        first = self._seq + 1
        self._seq += len(recipients)
        self._pending += len(recipients)
        heapq.heappush(self._heap, (at, first, recipients, msg, self.trace._records[-1]))

    def _step(self) -> None:
        # `to` is the recipients tuple of a multicast's entry, the (dst,) of a
        # unicast entry, or the owner of a timer; `tag` is a multicast's send
        # record or a unicast entry's deliveries.
        time_ms, seq, to, msg, tag = heapq.heappop(self._heap)
        self.now = time_ms
        if msg is not None:
            crashed, handlers = self.crashed, self.handlers
            src, kind, size = msg.sender.node_id, tag[5], tag[6]
            absorb = getattr(handlers.get(to[0]), "absorb", None)
            taken = absorb(self, to, msg) if absorb else None
            if taken is not None:
                # Each recipient's replies follow its deliver row.
                self._pending -= len(to)
                append, start = self.trace._records.append, 0
                if taken:  # most takes are silent, (); they skip the loop's set-up
                    for i, replies in enumerate(taken):
                        if replies:
                            append((time_ms, seq + start, "deliver", src, to[start:i + 1],
                                    kind, size))
                            start = i + 1
                            for reply in replies:
                                self.send_unicast(to[i], src, reply)
                if start < len(to):
                    append((time_ms, seq + start, "deliver", src, to[start:], kind, size))
                return
            # A counter costs less than enumerate.
            i, ones, append = 0, self._ones, self.trace._records.append
            for member in to:
                append((time_ms, seq + i, "deliver", src, ones[member], kind, size))
                i += 1
                self._pending -= 1
                handler = handlers.get(member)
                if handler is not None and member not in crashed:
                    handler.on_message(self, msg)
            return
        if tag.__class__ is list:
            # A unicast entry: each delivery in seq order, a record of one row.
            append, handlers, crashed = self.trace._records.append, self.handlers, self.crashed
            dst = to[0]
            for seq, msg in tag:
                append((time_ms, seq, "deliver", msg.sender.node_id, to,
                        KIND_NAMES[msg.kind], transit_size_bytes(msg)))
                self._pending -= 1
                handler = handlers.get(dst)
                if handler is not None and dst not in crashed:
                    handler.on_message(self, msg)
            return
        self._pending -= 1
        key = (to, tag)
        if self._timers.get(key) != seq:
            return  # replaced or cancelled
        del self._timers[key]
        if to in self.crashed:
            return
        self.trace._records.append((time_ms, seq, "timer", "", self._ones[to], tag, 0))
        handler = self.handlers.get(to)
        if handler is not None:
            handler.on_timer(self, tag)
