"""Upper-level virtual domain: agent registry, service endpoint directory,
cross-domain storage discovery, capacity allocation and bulk transfer.

Discovery is two-stage. The requester's domain agent first looks in its
own AIT for a candidate with enough remaining capacity, preferring the
largest remainder (lowest id on ties). Only when the domain cannot satisfy
the request does it multicast QUERY to the virtual group and collect
QUERY_RESP answers for a response window, applying the same best-fit rule
across the remote candidates.

An agent finds its domain's candidate, for its own query or a remote one,
with `domain_best_fit`. An agent that follows its domain's heard board and
holds no own record (`membership` module docstring) sees the board but its
own id, plus its live `self_entry`, so it answers from the board's two
entries of highest fit rank (`HeardBoard.top`), a memo that the board
clears only when `take` writes a new entry; it builds no AIT. Any other
node scans its AIT with `best_fit`.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterator
from dataclasses import dataclass
from enum import Enum
from urllib.parse import urlparse

from .core import (
    Ait,
    AitEntry,
    DomainId,
    DssmError,
    InvalidValue,
    Message,
    MessageKind,
    NodeId,
)
from .election import ElectionPolicy, select_agent
from .metrics import KIND_THROUGHPUT, KIND_TRANSFER_RESPONSE, MetricsRecord
from .simnet import Network, UnknownNode, VIRTUAL

# Bound once, as in membership: an Enum member read costs a metaclass lookup.
_QUERY, _QUERY_RESP = MessageKind.QUERY, MessageKind.QUERY_RESP

QUERY_TIMER_PREFIX = "query:"
SERVICE_PORT = 8080


class NotAnAgent(DssmError):
    pass


class NoAgent(DssmError):
    """The requester's domain has no live agent to serve the query."""


class InsufficientCapacity(DssmError):
    pass


class AlreadyReleased(DssmError):
    pass


class ServiceKind(Enum):
    STORAGE = "storservice"
    MANAGEMENT = "mgtservice"
    SECURITY = "secservice"
    COMMUNICATION = "comservice"


@dataclass(frozen=True)
class ServiceEndpoint:
    agent: NodeId
    kind: ServiceKind
    url: str


def endpoint_url(ip, kind: ServiceKind) -> str:
    return f"http://{ip}:{SERVICE_PORT}/srmd/services/{kind.value}"


def parse_endpoint_url(url: str) -> tuple[str, int, ServiceKind]:
    """Split an endpoint url back into (ip, port, kind)."""
    parts = urlparse(url)
    prefix, _, kind = parts.path.rpartition("/")
    if parts.scheme != "http" or prefix != "/srmd/services":
        raise InvalidValue(f"not an SRMD endpoint url: {url}")
    return parts.hostname, parts.port, ServiceKind(kind)


def standard_endpoints(agent: AitEntry) -> list[ServiceEndpoint]:
    """The four service endpoints every agent exposes."""
    return [
        ServiceEndpoint(agent.node_id, kind, endpoint_url(agent.ip, kind))
        for kind in ServiceKind
    ]


class VirtualDomain:
    """Registry of the currently elected agent of each physical domain.

    It is also the network's VIRTUAL multicast group: iteration yields the
    registered agents' node ids in ascending order, and `in` and `len()`
    see the same members. The ids are kept as a sorted tuple, rebuilt on
    each change of the registry.
    """

    def __init__(self, net: Network | None = None):
        self._agents: dict[DomainId, AitEntry] = {}
        self._ids: tuple[NodeId, ...] = ()
        if net is not None:
            net.virtual_members = self

    def register_agent(self, agent: AitEntry, *, domain: DomainId, ait: Ait,
                       policy: ElectionPolicy = ElectionPolicy.MAX_POWER,
                       heard: Collection[NodeId] = ()) -> None:
        """Admit an agent, replacing any previous agent of the same domain.

        The claim is checked against the registrant's own AIT (and, under
        HIGHEST_CONNECTIVITY, the members it heard); a node that the
        election would not pick is refused.
        """
        if agent.node_id not in ait or select_agent(ait, agent.node_id, policy, heard) != agent.node_id:
            raise NotAnAgent(f"node {agent.node_id} is not the computed agent of domain {domain}")
        self.register_pinned(agent, domain=domain)

    def register_pinned(self, agent: AitEntry, *, domain: DomainId) -> None:
        """Unchecked registration for the static-comparison baseline."""
        self._agents[domain] = agent
        self._sort_ids()

    def deregister(self, node_id: NodeId, domain: DomainId) -> None:
        """Drop the domain's entry if `node_id` holds it (a clean leave)."""
        agent = self._agents.get(domain)
        if agent is not None and agent.node_id == node_id:
            del self._agents[domain]
            self._sort_ids()

    def _sort_ids(self) -> None:
        self._ids = tuple(sorted(entry.node_id for entry in self._agents.values()))

    def agent_of(self, domain: DomainId) -> AitEntry | None:
        return self._agents.get(domain)

    def agents(self) -> dict[DomainId, AitEntry]:
        return dict(sorted(self._agents.items()))

    def lookup_service(self, kind: ServiceKind) -> list[ServiceEndpoint]:
        """All endpoints of a kind across registered agents, by domain id."""
        return [ep for _, agent in sorted(self._agents.items())
                for ep in standard_endpoints(agent) if ep.kind is kind]

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._ids)

    def __contains__(self, node_id) -> bool:
        return node_id in self._ids


@dataclass(frozen=True)
class StorageQuery:
    requester: NodeId
    required_mb: float
    query_id: int

    def __post_init__(self):
        if math.isnan(self.required_mb) or self.required_mb <= 0:
            raise InvalidValue(f"required_mb {self.required_mb} must be > 0")


@dataclass
class PendingQuery:
    query: StorageQuery
    started_ms: float
    best: AitEntry | None = None
    on_complete: object = None


def _fit_rank(entry: AitEntry) -> tuple[float, int]:
    return entry.storage_capacity_mb, -entry.node_id


def best_fit(ait: Ait, required_mb: float) -> AitEntry | None:
    """Largest remaining capacity >= required_mb, lowest node id on ties."""
    candidates = [e for e in ait.by_id.values() if e.storage_capacity_mb >= required_mb]
    if not candidates:
        return None
    return max(candidates, key=_fit_rank)


def domain_best_fit(node, required_mb: float) -> AitEntry | None:
    """`best_fit(node.ait, required_mb)`: from the heard board's top two when
    the node follows it with no own record (module docstring), else by scan."""
    board = node._board
    if board is None or node._own:
        return best_fit(node.ait, required_mb)
    best = node.self_entry
    for entry in board.top():
        if entry.node_id != best.node_id:
            if _fit_rank(entry) > _fit_rank(best):
                best = entry
            break
    return best if best.storage_capacity_mb >= required_mb else None


def find_storage(agent_node, net: Network, query: StorageQuery, on_complete=None) -> None:
    """Run a storage query on the requester's domain agent.

    Completion is asynchronous: `on_complete(query, candidate, elapsed_ms,
    route)` fires immediately for a locally satisfied query (route
    "local") or at the end of the response window (route "remote",
    candidate None when no domain qualifies).
    """
    if not agent_node.is_agent:
        raise NoAgent(f"node {agent_node.node_id} does not hold agency")
    local = domain_best_fit(agent_node, query.required_mb)
    if local is not None:
        if on_complete is not None:
            on_complete(query, local, 0.0, "local")
        return
    agent_node.pending_queries[query.query_id] = PendingQuery(query, net.now, on_complete=on_complete)
    net.send_multicast(
        agent_node.node_id,
        VIRTUAL,
        Message(_QUERY, agent_node.self_entry,
                query_id=query.query_id, required_mb=query.required_mb),
    )
    net.set_timer(agent_node.node_id, f"{QUERY_TIMER_PREFIX}{query.query_id}",
                  agent_node.params.response_window_ms)


def handle_query(node, net: Network, msg: Message) -> None:
    """A remote agent answers with its domain's best candidate (or none)."""
    if not node.is_agent:
        return
    candidate = domain_best_fit(node, msg.required_mb)
    net.send_unicast(
        node.node_id,
        msg.sender.node_id,
        Message(_QUERY_RESP, node.self_entry,
                query_id=msg.query_id, candidate=candidate),
    )


def handle_query_resp(node, net: Network, msg: Message) -> None:
    pending = node.pending_queries.get(msg.query_id)
    if pending is None:
        return  # late or unsolicited answer
    candidate = msg.candidate
    if candidate is not None and (pending.best is None
                                  or _fit_rank(candidate) > _fit_rank(pending.best)):
        pending.best = candidate


def finalize_query(node, net: Network, query_id: int) -> None:
    pending = node.pending_queries.pop(query_id, None)
    if pending is not None and pending.on_complete is not None:
        pending.on_complete(pending.query, pending.best,
                            net.now - pending.started_ms, "remote")


@dataclass
class Allocation:
    allocation_id: int
    node: NodeId
    size_mb: float


class AllocationLedger:
    """Tracks live allocations and applies them to the hosting nodes.

    Discovery answers from possibly stale AITs; allocation re-validates
    against the target's actual remaining capacity.
    """

    def __init__(self, nodes, net: Network):
        self._nodes = nodes
        self._net = net
        self._next_id = 1
        self.allocations: dict[int, Allocation] = {}

    def allocate(self, target: NodeId, size_mb: float) -> Allocation:
        if math.isnan(size_mb) or size_mb <= 0:
            raise InvalidValue(f"size_mb {size_mb} must be > 0")
        node = self._nodes.get(target)
        if node is None or self._net.is_crashed(target):
            raise UnknownNode(f"node {target} unknown or dead")
        if node.self_entry.storage_capacity_mb < size_mb:
            raise InsufficientCapacity(
                f"node {target} has {node.self_entry.storage_capacity_mb} MB, "
                f"needs {size_mb}"
            )
        node.adjust_capacity(-size_mb)
        alloc = Allocation(self._next_id, target, size_mb)
        self._next_id += 1
        self.allocations[alloc.allocation_id] = alloc
        return alloc

    def release(self, alloc: Allocation) -> None:
        held = self.allocations.pop(alloc.allocation_id, None)
        if held is None:
            raise AlreadyReleased(f"allocation {alloc.allocation_id} already released")
        node = self._nodes.get(held.node)
        if node is not None:
            node.adjust_capacity(held.size_mb)


def transfer_file(net: Network, sender: AitEntry, to: NodeId, size_mb: float
                  ) -> tuple[MetricsRecord, MetricsRecord]:
    """Push a size_mb file from sender to `to` over the governing link.

    Returns (response-time record, achieved-throughput record); the DATA
    message itself rides the event queue so the transfer shows up in the
    trace at exactly the computed response time. A response time that is
    not finite and > 0 raises InvalidValue before anything is sent.
    """
    if math.isnan(size_mb) or size_mb <= 0:
        raise InvalidValue(f"size_mb {size_mb} must be > 0")
    link = net.link_between(sender.node_id, to)
    size_bytes = size_mb * 1024 * 1024
    response_ms = link.transit_ms(size_bytes)
    if not 0.0 < response_ms < math.inf:
        raise InvalidValue(f"transfer of {size_mb!r} MB at {link.bandwidth_mbps!r} Mbps: "
                           f"response time {response_ms!r} ms must be finite and > 0")
    achieved_mbps = size_bytes * 8 / (response_ms / 1000.0) / 1e6
    labels = {
        "from": str(sender.node_id),
        "to": str(to),
        "size_mb": repr(size_mb),
        "delay_ms": repr(link.delay_ms),
        "bandwidth_mbps": repr(link.bandwidth_mbps),
    }
    net.send_unicast(sender.node_id, to,
                     Message(MessageKind.DATA, sender, size_mb=size_mb))
    return (
        MetricsRecord(KIND_TRANSFER_RESPONSE, response_ms, "ms", net.now, dict(labels)),
        MetricsRecord(KIND_THROUGHPUT, achieved_mbps, "Mbps", net.now, dict(labels)),
    )
