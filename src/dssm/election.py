"""Agent selection within a physical domain.

The default policy picks the member with the highest processing power and
keeps the incumbent on ties; the two classic alternatives (lowest id,
highest connectivity) sit behind the same interface. A fresh election with
no incumbent breaks power ties by lowest node id so that every member
computes the same agent without extra rounds.
"""

from __future__ import annotations

from collections.abc import Collection
from enum import Enum

from .core import Ait, AitEntry, DssmError, NodeId
from .metrics import KIND_ELECTION_LATENCY, MetricsRecord


class EmptyDomain(DssmError):
    """Election over an AIT with no entries."""


class ElectionPolicy(Enum):
    MAX_POWER = "max_power"
    LOWEST_ID = "lowest_id"
    HIGHEST_CONNECTIVITY = "highest_connectivity"


# Members bound once to module names, for the delivery path: on Python 3.11
# `ElectionPolicy.LOWEST_ID` goes through EnumType.__getattr__.
_LOWEST_ID = ElectionPolicy.LOWEST_ID
_HIGHEST_CONNECTIVITY = ElectionPolicy.HIGHEST_CONNECTIVITY


def select_agent(
    ait: Ait,
    current_agent: NodeId,
    policy: ElectionPolicy = ElectionPolicy.MAX_POWER,
    heard: Collection[NodeId] = (),
) -> NodeId:
    """Pick the domain agent from the given AIT.

    MAX_POWER: member with the greatest processing power; the incumbent is
    kept when it ties for the maximum, otherwise the lowest id among the
    tied maxima wins. LOWEST_ID: minimum node id. HIGHEST_CONNECTIVITY:
    `heard` (see `heard_members`) holds the members with the most
    neighbours; the lowest id among them wins, or the lowest id of the AIT
    when no peer was heard. The result is always a key of `ait`.
    """
    if len(ait) == 0:
        raise EmptyDomain("cannot select an agent from an empty AIT")

    if policy is _LOWEST_ID:
        return min(ait.by_id)

    if policy is _HIGHEST_CONNECTIVITY:
        connected = [n for n in heard if n in ait] if len(heard) > 1 else ()
        return min(connected or ait.by_id)

    entries = ait.by_id.values()
    top = max(e.processing_power_mhz for e in entries)
    argmax = [e.node_id for e in entries if e.processing_power_mhz == top]
    if current_agent in argmax:
        return current_agent
    return min(argmax)


def moves_election(policy: ElectionPolicy, stored: AitEntry | None, entry: AitEntry,
                   agent: AitEntry | None, agent_heard_ms: float, now_ms: float,
                   window_ms: float) -> bool:
    """Whether learning `entry` at `now_ms` over `stored` (the AIT's previous
    entry for that node, None if new) can change what `select_agent` returns,
    given `agent`: the AIT's entry, or None, for an incumbent `select_agent`
    produced, heard at `agent_heard_ms` (`now_ms` if it is the node itself).

    MAX_POWER reads only the ids and powers in the AIT, LOWEST_ID only the
    ids, and the incumbent either chose is in the argmax of its own AIT. So
    a known node moves them only with a changed power, and a new node only
    when there is no agent entry or it beats the agent: more power under
    MAX_POWER (a tie keeps the incumbent), a lower id under LOWEST_ID.

    HIGHEST_CONNECTIVITY elects the lowest id among the node and the peers
    heard within `window_ms` (`heard_members`). The entry puts its sender in
    that set, so it moves the election only with no agent, a sender id below
    the agent's, or an agent other than the node out of the window (`now_ms -
    agent_heard_ms > window_ms`, as in `heard_members`). A peer below the
    agent in the window was in the heard set already: its last entry moved
    the election to it or lower, found it there, or preceded the election
    that ended the join, and each election since had it in its heard set.
    """
    if policy is _HIGHEST_CONNECTIVITY:
        return agent is None or entry.node_id < agent.node_id or now_ms - agent_heard_ms > window_ms
    if stored is not None or agent is None:  # a known node, or no agent to beat
        return stored is None or stored.processing_power_mhz != entry.processing_power_mhz
    if policy is _LOWEST_ID:
        return entry.node_id < agent.node_id
    return entry.processing_power_mhz > agent.processing_power_mhz


def reads_heard_times(policy: ElectionPolicy) -> bool:
    """Whether `select_agent` reads `heard_members`: then a held entry can move it."""
    return policy is _HIGHEST_CONNECTIVITY


def heard_members(node, now_ms: float) -> frozenset[NodeId]:
    """HIGHEST_CONNECTIVITY's input: the node itself plus the AIT members it
    heard within the failure window (every key of `last_heard_ms` is an AIT
    member). Empty under the other policies, which need no input, so the
    scan runs only when it is used.

    Within a multicast domain every live member hears every other, so each
    of these members has the same degree, the highest in the domain.
    """
    if not reads_heard_times(node.policy):
        return frozenset()
    window = node.params.failure_timeout_ms
    return frozenset([peer for peer, heard in node.last_heard_ms.items()
                      if now_ms - heard <= window] + [node.node_id])


def reevaluate_agent(node, net, evidence_ms: float | None = None) -> None:
    """Recompute the agent after an AIT mutation and act on a change.

    A change is recorded as an ElectionLatency metric when the node has a
    metrics callback. When this node elects itself it announces to its
    domain and registers with the virtual domain, which admits it unchecked.
    The node is a member, so its view holds its own entry. `evidence_ms` is
    the timestamp of the last evidence for the previous agent (used for the
    election-latency metric); defaults to now for changes triggered by an
    explicit message. A node with a static
    pin (the static-comparison baseline) takes the pin as its agent and
    never elects.
    """
    if node.static_pin is not None:
        node.agent = node.static_pin
        return
    new_agent = select_agent(node.ait, node.agent, node.policy, heard_members(node, net.now))
    if new_agent == node.agent:
        return
    old, node.agent = node.agent, new_agent
    if node.metrics_cb is not None:
        since = 0.0 if evidence_ms is None else net.now - evidence_ms
        node.metrics_cb(MetricsRecord(
            KIND_ELECTION_LATENCY, since, "ms", net.now,
            {"node": str(node.node_id), "old": str(old), "new": str(new_agent)},
        ))
    if new_agent == node.node_id:
        node.announce_agency(net)


__all__ = [
    "ElectionPolicy",
    "EmptyDomain",
    "heard_members",
    "moves_election",
    "reevaluate_agent",
    "select_agent",
]
