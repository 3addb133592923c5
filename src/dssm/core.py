"""Core domain types shared by every layer: node identity, the Adjacent
Information Table (AIT), and the protocol message set with its fixed-width
wire encoding.

Wire format summary (all integers and floats big-endian):

  AIT entry, 32 bytes:
    bytes  0-3   node id, uint32
    bytes  4-7   IPv4 address, four octets in textual order
    bytes  8-15  remaining storage capacity in MB, IEEE-754 binary64
    bytes 16-23  processing power in MHz, IEEE-754 binary64
    bytes 24-31  reserved, zero on write, ignored on read

  Message = 1 kind byte + 32-byte sender entry + kind-specific payload:
    JOIN/ACCEPT/LEAVE/HEARTBEAT/AGENT_ANNOUNCE  no payload        (33 bytes)
    QUERY        uint64 query id + float64 required MB            (49 bytes)
    QUERY_RESP   uint64 query id + 32-byte candidate entry,
                 all-zero when the responder has no candidate     (73 bytes)
    DATA         float64 size in MB standing in for the body      (41 bytes)
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from ipaddress import IPv4Address

NodeId = int
DomainId = int

NO_NODE: NodeId = 0  # reserved "no node" sentinel
AIT_ENTRY_SIZE = 32

_MAX_NODE_ID = 2**32 - 1
_MAX_DOMAIN_ID = 2**16 - 1

_ENTRY_STRUCT = struct.Struct(">I4sdd")  # + 8 reserved bytes = 32


class DssmError(Exception):
    """Base class for all protocol and simulator errors."""


class WrongLength(DssmError):
    """A binary block has the wrong number of bytes for its type."""


class InvalidValue(DssmError):
    """A field value violates its type invariant."""


class IoError(DssmError):
    """An output file could not be written."""


class MessageKind(IntEnum):
    JOIN = 0x01
    ACCEPT = 0x02
    LEAVE = 0x03
    HEARTBEAT = 0x04
    AGENT_ANNOUNCE = 0x05
    QUERY = 0x06
    QUERY_RESP = 0x07
    DATA = 0x08


@dataclass(frozen=True)
class AitEntry:
    """One row of the Adjacent Information Table.

    Capacity is the *remaining* storage on the node and may shrink or grow
    over its lifetime; the entry itself is immutable, updates replace it.
    """

    node_id: NodeId
    ip: IPv4Address
    storage_capacity_mb: float
    processing_power_mhz: float

    def __post_init__(self):
        if isinstance(self.ip, str):
            object.__setattr__(self, "ip", IPv4Address(self.ip))
        if not (1 <= self.node_id <= _MAX_NODE_ID):
            raise InvalidValue(f"node id {self.node_id} outside 1..2^32-1")
        _check_capacity(self.storage_capacity_mb)
        power = self.processing_power_mhz
        if math.isnan(power) or math.isinf(power) or power <= 0:
            raise InvalidValue(f"processing power {power} must be finite and > 0")

    def with_capacity(self, capacity_mb: float) -> AitEntry:
        """This entry with `capacity_mb` remaining. Only the new capacity is
        checked: the other fields are copied, and were checked when this
        entry was built."""
        _check_capacity(capacity_mb)
        entry = object.__new__(AitEntry)
        entry.__dict__.update(self.__dict__, storage_capacity_mb=capacity_mb)
        return entry


def _check_capacity(cap: float) -> None:
    if math.isnan(cap) or math.isinf(cap) or cap < 0:
        raise InvalidValue(f"storage capacity {cap} must be finite and >= 0")


def fit_rank(entry: AitEntry) -> tuple[float, int]:
    """The storage fit order, higher is better: most capacity left, then lowest id."""
    return entry.storage_capacity_mb, -entry.node_id


def encode_ait_entry(entry: AitEntry) -> bytes:
    """Serialize an entry to its fixed 32-byte block."""
    return _ENTRY_STRUCT.pack(
        entry.node_id,
        entry.ip.packed,
        entry.storage_capacity_mb,
        entry.processing_power_mhz,
    ) + b"\x00" * 8


def decode_ait_entry(block: bytes) -> AitEntry:
    """Parse a 32-byte block back into an entry.

    Reserved bytes are ignored. Raises WrongLength on a short or long
    block, InvalidValue when the decoded fields violate entry invariants.
    """
    if len(block) != AIT_ENTRY_SIZE:
        raise WrongLength(f"AIT entry block must be 32 bytes, got {len(block)}")
    node_id, ip_packed, cap, power = _ENTRY_STRUCT.unpack(block[:24])
    if node_id == NO_NODE:
        raise InvalidValue("node id 0 is the reserved sentinel")
    return AitEntry(node_id, IPv4Address(ip_packed), cap, power)


class Ait:
    """Adjacent Information Table: node id -> entry, one entry per node.

    `by_id` is the table itself, a dict from node id to entry; every key
    must be the node_id of its entry. A node's `GosNode.ait` is a view: an
    Ait built on each read from what the node heard, its own records over
    its domain's heard board (see `membership`). Writing to it changes
    nothing in the node.
    """

    def __init__(self, entries=()):
        self.by_id: dict[NodeId, AitEntry] = {entry.node_id: entry for entry in entries}

    def upsert(self, entry: AitEntry) -> AitEntry | None:
        """Insert or replace the entry for entry.node_id; return the entry
        it replaced, or None if the node is new."""
        stored = self.by_id.get(entry.node_id)
        self.by_id[entry.node_id] = entry
        return stored

    def remove(self, node_id: NodeId) -> None:
        """Drop the entry for node_id; removing an absent id is a no-op."""
        self.by_id.pop(node_id, None)

    def get(self, node_id: NodeId) -> AitEntry | None:
        return self.by_id.get(node_id)

    def ids(self) -> set[NodeId]:
        return set(self.by_id)

    def entries(self) -> list[AitEntry]:
        """Entries in ascending node-id order."""
        return [self.by_id[i] for i in sorted(self.by_id)]

    def size_bytes(self) -> int:
        """Serialized size: 32 bytes per entry."""
        return AIT_ENTRY_SIZE * len(self.by_id)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self.by_id

    def __len__(self) -> int:
        return len(self.by_id)

    def __iter__(self):
        return iter(sorted(self.by_id))

    def __eq__(self, other) -> bool:
        return isinstance(other, Ait) and self.by_id == other.by_id

    def __repr__(self) -> str:
        return f"Ait({self.entries()!r})"


# Payload sizes per message kind, excluding the 1 + 32 byte header.
_PAYLOAD_SIZE = {
    MessageKind.JOIN: 0,
    MessageKind.ACCEPT: 0,
    MessageKind.LEAVE: 0,
    MessageKind.HEARTBEAT: 0,
    MessageKind.AGENT_ANNOUNCE: 0,
    MessageKind.QUERY: 16,
    MessageKind.QUERY_RESP: 40,
    MessageKind.DATA: 8,
}

_ZERO_ENTRY = b"\x00" * AIT_ENTRY_SIZE


@dataclass(frozen=True)
class Message:
    """A protocol datagram. Only the fields relevant to `kind` are set."""

    kind: MessageKind
    sender: AitEntry
    query_id: int = 0
    required_mb: float = 0.0
    candidate: AitEntry | None = field(default=None)
    size_mb: float = 0.0


def message_size_bytes(kind: MessageKind) -> int:
    """Encoded size of a message of the given kind."""
    return 1 + AIT_ENTRY_SIZE + _PAYLOAD_SIZE[kind]


def encode_message(msg: Message) -> bytes:
    head = bytes([msg.kind]) + encode_ait_entry(msg.sender)
    kind = msg.kind
    if kind is MessageKind.QUERY:
        return head + struct.pack(">Qd", msg.query_id, msg.required_mb)
    if kind is MessageKind.QUERY_RESP:
        cand = encode_ait_entry(msg.candidate) if msg.candidate else _ZERO_ENTRY
        return head + struct.pack(">Q", msg.query_id) + cand
    if kind is MessageKind.DATA:
        return head + struct.pack(">d", msg.size_mb)
    return head


def decode_message(block: bytes) -> Message:
    """Parse a datagram; the kind byte fixes the expected length exactly."""
    if len(block) < 1:
        raise WrongLength("empty message block")
    try:
        kind = MessageKind(block[0])
    except ValueError:
        raise InvalidValue(f"unknown message kind byte 0x{block[0]:02x}") from None
    if len(block) != message_size_bytes(kind):
        raise WrongLength(
            f"{kind.name} must be {message_size_bytes(kind)} bytes, got {len(block)}"
        )
    sender = decode_ait_entry(block[1:33])
    payload = block[33:]
    if kind is MessageKind.QUERY:
        query_id, required_mb = struct.unpack(">Qd", payload)
        if math.isnan(required_mb) or required_mb <= 0:
            raise InvalidValue(f"required_mb {required_mb} must be > 0")
        return Message(kind, sender, query_id=query_id, required_mb=required_mb)
    if kind is MessageKind.QUERY_RESP:
        (query_id,) = struct.unpack(">Q", payload[:8])
        cand_block = payload[8:]
        candidate = None if cand_block == _ZERO_ENTRY else decode_ait_entry(cand_block)
        return Message(kind, sender, query_id=query_id, candidate=candidate)
    if kind is MessageKind.DATA:
        (size_mb,) = struct.unpack(">d", payload)
        return Message(kind, sender, size_mb=size_mb)
    return Message(kind, sender)


# Built once for the send and delivery paths: on Python 3.11 a member's
# `.name` and a class attribute read such as `MessageKind.DATA` both run
# Python-level Enum code, about ten times the cost of a dict or global lookup.
KIND_NAMES: dict[MessageKind, str] = {kind: kind.name for kind in MessageKind}
_TRANSIT_SIZE = {kind: float(message_size_bytes(kind)) for kind in MessageKind}
_DATA = MessageKind.DATA


def transit_size_bytes(msg: Message) -> float:
    """Size that occupies the link: the encoded datagram, except DATA whose
    8-byte size field stands in for a body of size_mb megabytes. Always a
    float, for an int size_mb too. A DATA size that is negative, or whose
    byte count is not finite (an int size_mb beyond float range too), raises
    InvalidValue: its transit time would be negative or undefined."""
    kind = msg.kind
    if kind is _DATA:
        try:
            size = msg.size_mb * 1048576.0
        except OverflowError:  # an int size_mb beyond float range
            size = math.inf
        if not 0.0 <= size < math.inf:
            raise InvalidValue(f"DATA size_mb {msg.size_mb} must be >= 0 "
                               "with a finite byte count")
        return size
    return _TRANSIT_SIZE[kind]
