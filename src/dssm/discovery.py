"""Upper-level virtual domain: agent registry, service endpoint directory,
cross-domain storage discovery, capacity allocation and bulk transfer.

Discovery is two-stage. The requester's domain agent first looks in its
own AIT for a candidate with enough remaining capacity, preferring the
largest remainder (lowest id on ties). Only when the domain cannot satisfy
the request does it multicast QUERY to the virtual group and collect
QUERY_RESP answers for a response window, applying the same best-fit rule
across the remote candidates.

An agent finds its domain's candidate, for its own query or a remote one,
with `GosNode.best_fit`, which compares in place what it heard, without
building its AIT or a candidate list (`membership` module docstring).
`best_fit` is the same answer by a scan over a whole AIT; both rank
candidates by `core.fit_rank`. The requester ranks each QUERY_RESP
candidate once, against the rank it keeps of the best so far.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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
    fit_rank,
)
from .metrics import KIND_THROUGHPUT, KIND_TRANSFER_RESPONSE, MetricsRecord
from .simnet import Network, UnknownNode, VIRTUAL

# Bound once, as in membership: an Enum member read costs a metaclass lookup.
_QUERY, _QUERY_RESP = MessageKind.QUERY, MessageKind.QUERY_RESP

QUERY_TIMER_PREFIX = "query:"
SERVICE_PORT = 8080


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
    """Split an endpoint url back into (ip, port, kind); any other url raises InvalidValue."""
    try:  # a malformed host, a port out of range and an unknown kind raise ValueError
        parts = urlparse(url)
        host, port, (prefix, _, kind) = parts.hostname, parts.port, parts.path.rpartition("/")
        if parts.scheme == "http" and prefix == "/srmd/services" and host and port is not None:
            return host, port, ServiceKind(kind)
    except ValueError:
        pass
    raise InvalidValue(f"not an SRMD endpoint url: {url}")


def standard_endpoints(agent: AitEntry) -> list[ServiceEndpoint]:
    """The four service endpoints every agent exposes."""
    return [
        ServiceEndpoint(agent.node_id, kind, endpoint_url(agent.ip, kind))
        for kind in ServiceKind
    ]


class VirtualDomain:
    """Registry of the currently elected agent of each physical domain.

    It admits whatever node registers: a member registers only once its
    election picked it, and the static baseline registers its pins.

    It is also the network's VIRTUAL multicast group: iteration yields the
    registered agents' node ids in ascending order, and `in` and `len()`
    see the same members. All three read the registry itself, so the group
    follows each change of it.
    """

    def __init__(self, net: Network | None = None):
        self._agents: dict[DomainId, AitEntry] = {}
        if net is not None:
            net.virtual_members = self

    def register_agent(self, agent: AitEntry, *, domain: DomainId) -> None:
        """Admit an agent, replacing any previous agent of the same domain."""
        self._agents[domain] = agent

    def deregister(self, node_id: NodeId, domain: DomainId) -> None:
        """Drop the domain's entry if `node_id` holds it (a clean leave)."""
        if (agent := self._agents.get(domain)) is not None and agent.node_id == node_id:
            del self._agents[domain]

    def agent_of(self, domain: DomainId) -> AitEntry | None:
        return self._agents.get(domain)

    def agents(self) -> dict[DomainId, AitEntry]:
        return dict(sorted(self._agents.items()))

    def lookup_service(self, kind: ServiceKind) -> list[ServiceEndpoint]:
        """All endpoints of a kind across registered agents, by domain id."""
        return [ep for _, agent in sorted(self._agents.items())
                for ep in standard_endpoints(agent) if ep.kind is kind]

    def __len__(self) -> int:
        return len(self._agents)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(sorted([entry.node_id for entry in self._agents.values()]))

    def __contains__(self, node_id) -> bool:
        return any(entry.node_id == node_id for entry in self._agents.values())


@dataclass(frozen=True)
class StorageQuery:
    requester: NodeId
    required_mb: float
    query_id: int

    def __post_init__(self):
        if math.isnan(self.required_mb) or self.required_mb <= 0:
            raise InvalidValue(f"required_mb {self.required_mb} must be > 0")


# Below the `fit_rank` of every entry, whose capacity is finite and >= 0.
_NO_RANK = (-math.inf, 0)


@dataclass
class PendingQuery:
    """A remote query awaiting answers. `best_rank` is the `fit_rank` of
    `best`, kept so that each answer is ranked once, and `_NO_RANK` while
    `best` is None."""

    query: StorageQuery
    started_ms: float
    on_complete: object
    best: AitEntry | None = None
    best_rank: tuple[float, int] = _NO_RANK


def best_fit(ait: Ait, required_mb: float) -> AitEntry | None:
    """Largest remaining capacity >= required_mb, lowest node id on ties."""
    candidates = [e for e in ait.by_id.values() if e.storage_capacity_mb >= required_mb]
    if not candidates:
        return None
    return max(candidates, key=fit_rank)


def find_storage(agent_node, net: Network, query: StorageQuery, on_complete) -> None:
    """Run a storage query on the requester's domain agent.

    Completion is asynchronous: `on_complete(query, candidate, elapsed_ms,
    route)` fires immediately for a locally satisfied query (route
    "local") or at the end of the response window (route "remote",
    candidate None when no domain qualifies). A remote query whose response
    window is negative or not finite raises InvalidValue before anything is
    sent, and one that the network refuses is not left pending.
    """
    if not agent_node.is_agent:
        raise NoAgent(f"node {agent_node.node_id} does not hold agency")
    local = agent_node.best_fit(query.required_mb)
    if local is not None:
        on_complete(query, local, 0.0, "local")
        return
    window = agent_node.params.response_window_ms
    if not 0.0 <= window < math.inf:
        raise InvalidValue(f"response window {window} ms must be finite and >= 0")
    net.send_multicast(
        agent_node.node_id,
        VIRTUAL,
        Message(_QUERY, agent_node.self_entry,
                query_id=query.query_id, required_mb=query.required_mb),
    )
    net.set_timer(agent_node.node_id, f"{QUERY_TIMER_PREFIX}{query.query_id}", window)
    agent_node.pending_queries[query.query_id] = PendingQuery(query, net.now, on_complete)


def handle_query(node, net: Network, msg: Message) -> None:
    """A remote agent answers with its domain's best candidate (or none)."""
    if not node.is_agent:
        return
    candidate = node.best_fit(msg.required_mb)
    # Positional: kind, sender, query_id, required_mb, candidate.
    net.send_unicast(node.node_id, msg.sender.node_id,
                     Message(_QUERY_RESP, node.self_entry, msg.query_id, 0.0, candidate))


def handle_query_resp(node, net: Network, msg: Message) -> None:
    """Keep the answer's candidate if it ranks above the best so far. The
    rank ends in the node id, so the pick does not depend on arrival order."""
    pending = node.pending_queries.get(msg.query_id)
    if pending is None:
        return  # late or unsolicited answer
    candidate = msg.candidate
    if candidate is not None:
        rank = fit_rank(candidate)
        if rank > pending.best_rank:
            pending.best, pending.best_rank = candidate, rank


def finalize_query(node, net: Network, query_id: int) -> None:
    pending = node.pending_queries.pop(query_id, None)
    if pending is not None:
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
        if node is None or target in self._net.crashed:
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
    not finite and > 0, or one so small that the throughput is not finite,
    raises InvalidValue before anything is sent.
    """
    if not size_mb > 0:  # NaN too
        raise InvalidValue(f"size_mb {size_mb} must be > 0")
    link = net.link_between(sender.node_id, to)
    try:
        size_bytes = size_mb * 1048576.0
    except OverflowError:  # an int size_mb beyond float range
        size_bytes = math.inf
    response_ms = link.transit_ms(size_bytes)
    if not 0.0 < response_ms < math.inf:
        raise InvalidValue(f"transfer of {size_mb!r} MB at {link.bandwidth_mbps!r} Mbps: "
                           f"response time {response_ms!r} ms must be finite and > 0")
    seconds = response_ms / 1000.0  # 0.0 once a subnormal response time underflows
    achieved_mbps = size_bytes * 8 / seconds / 1e6 if seconds else math.inf
    if achieved_mbps == math.inf:
        raise InvalidValue(f"transfer of {size_mb!r} MB at {link.bandwidth_mbps!r} Mbps: "
                           f"response time {response_ms!r} ms gives no finite throughput")
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
