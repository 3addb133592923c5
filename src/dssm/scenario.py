"""Scenario loading, the experiment driver, and metrics aggregation.

A scenario is a JSON document:

    {
      "name": "two_domain",
      "seed": 42,
      "intra_domain_link": {"delay_ms": 1.0, "drop_probability": 0.0,
                            "bandwidth_mbps": 100.0},
      "inter_domain_link": {"delay_ms": 20.0, "drop_probability": 0.0,
                            "bandwidth_mbps": 100.0},
      "params": {"accept_window_ms": 20.0, "heartbeat_period_ms": 200.0,
                 "failure_timeout_ms": 600.0, "response_window_ms": 100.0},
      "election_policy": "max_power",
      "nodes": [
        {"id": 1, "domain": 1, "ip": "192.168.16.10",
         "capacity_mb": 1024.0, "power_mhz": 2800.0}
      ],
      "script": [
        {"time_ms": 0, "action": "join", "node": 1},
        {"time_ms": 500, "action": "leave", "node": 1},
        {"time_ms": 500, "action": "crash", "node": 1},
        {"time_ms": 600, "action": "query", "node": 1, "required_mb": 512.0},
        {"time_ms": 700, "action": "transfer", "from": 1, "to": 2,
         "size_mb": 100.0},
        {"time_ms": 800, "action": "set_link", "scope": "inter",
         "delay_ms": 50.0},
        {"time_ms": 900, "action": "assert_quiescent_consistency"}
      ]
    }

ACTIONS maps each "action" name to its class; the class's FIELDS say how
each key is read and checked. Script times must be non-decreasing and every
referenced node must appear in "nodes". Every number must be finite: JSON
NaN and Infinity are rejected. "params" fields are optional; absent ones
default from the link model. "set_link" reconfigures a link class mid-run
(the WAN emulator knob); omitted set_link fields keep their current value,
and the link must stay in range (LinkConfig): each set_link is checked at
load against its own scope's link as the script leaves it at that point.
`scenario_from_json` (so `load_scenario`) is the one check: ScenarioWorld runs
what it is given, and a Scenario built in code calls `Scenario.validate` itself.

The consistency assertion checks, per domain with live members: equal AIT
key sets, agent agreement, and that the agent is the one the scenario's
election policy selects from the first live member's view (for max_power:
a member of the power argmax). Script actions that do not fit a node's
state at run time, such as a leave before the node joined, a leave or
transfer by a crashed node, or a transfer whose response time over its link
is not finite and > 0 or gives no finite throughput, raise ValidationError
like any other bad input.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property
from ipaddress import AddressValueError
from pathlib import Path

from .core import AitEntry, DomainId, DssmError, InvalidValue, NodeId
from .discovery import (
    StorageQuery,
    VirtualDomain,
    find_storage,
    transfer_file,
)
from .election import ElectionPolicy, heard_members, select_agent
from .membership import AlreadyMember, GosNode, NotMember, Phase, ProtocolParams
from .metrics import KIND_QUERY_RESPONSE, MetricsRecord
from .simnet import InvalidTopology, LinkConfig, Network, NodeCrashed, Topology, Trace

SCENARIO_DIR = Path(__file__).parent / "scenarios"
BUNDLED_SCENARIOS = ("churn50", "two_domain", "bandwidth_sweep", "agent_crash")


class ParseError(DssmError):
    pass


class ValidationError(DssmError):
    pass


class AssertionFailure(DssmError):
    pass


@dataclass(frozen=True)
class NodeSpec:
    node_id: NodeId
    domain: DomainId
    ip: str
    capacity_mb: float
    power_mhz: float

    @cached_property  # built once: validation and every world share it
    def entry(self) -> AitEntry:
        return AitEntry(self.node_id, self.ip, self.capacity_mb, self.power_mhz)


# -- JSON fields ----------------------------------------------------------------


_REQUIRED = object()
_NUMBER = (int, float)  # a JSON number, read as a finite float
_FLOAT_MAX = sys.float_info.max


def _get(obj: dict, key: str, types, ctx: str, default=_REQUIRED):
    try:
        value = obj[key]
    except KeyError:
        if default is not _REQUIRED:
            return default
        raise ParseError(f"{ctx}: missing field {key!r}") from None
    if not isinstance(value, types) or isinstance(value, bool):
        raise ParseError(f"{ctx}: field {key!r} has wrong type {type(value).__name__}")
    if types is _NUMBER:
        if not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # NaN fails both comparisons
            raise ParseError(f"{ctx}: field {key!r} must be finite")
        return float(value)
    return value


# -- script actions --------------------------------------------------------------


def _check_node(action, name, value, known):
    if value not in known:
        raise ValidationError(f"script references unknown node {value}")


def _check_positive(action, name, value, known):
    if value <= 0:
        raise ValidationError(f"{action.KIND} {name} {value} must be > 0")


def _check_scope(action, name, value, known):
    if value not in ("intra", "inter"):
        raise ValidationError(f"{action.KIND} {name} must be intra or inter, got {value}")


# Field kinds: (accepted JSON types, default when absent or _REQUIRED, check).
# A check is called as check(action, attribute, value, known ids);
# a link value is checked with its link (Scenario.validate).
NODE = (int, _REQUIRED, _check_node)
SIZE = (_NUMBER, _REQUIRED, _check_positive)
SCOPE = (str, _REQUIRED, _check_scope)
LINK_VALUE = (_NUMBER, None, None)


@dataclass(frozen=True)
class Action:
    """One script action. A subclass names its "action" value in JSON as
    `kind` and lists in `fields` each JSON key after time_ms with its field
    kind, in the order of its own attributes. It runs through apply(world)."""

    time_ms: float

    def __init_subclass__(cls, kind: str, fields: tuple = ()):
        cls.KIND, cls.FIELDS = kind, fields
        # Pair each attribute with its check once, not per action.
        own = cls.__dict__.get("__annotations__", {})
        cls.CHECKS = tuple((name, check) for name, (_, (_, _, check)) in zip(own, fields)
                           if check is not None)

    def check(self, known: set[NodeId]) -> None:
        for name, check in self.CHECKS:
            check(self, name, getattr(self, name), known)


@dataclass(frozen=True)
class JoinNode(Action, kind="join", fields=(("node", NODE),)):
    node: NodeId

    def apply(self, world: ScenarioWorld) -> None:
        node = world.nodes[self.node]
        if self.node in world.net.crashed:
            world.net.revive(self.node)
            node.reset_offline()
        elif node.phase is Phase.LEFT:
            node.reset_offline()
        node.initiate_join(world.net)


@dataclass(frozen=True)
class LeaveNode(Action, kind="leave", fields=(("node", NODE),)):
    node: NodeId

    def apply(self, world: ScenarioWorld) -> None:
        world.nodes[self.node].initiate_leave(world.net)


@dataclass(frozen=True)
class CrashNode(Action, kind="crash", fields=(("node", NODE),)):
    node: NodeId

    def apply(self, world: ScenarioWorld) -> None:
        world.net.crash(self.node)


@dataclass(frozen=True)
class QueryAction(Action, kind="query", fields=(("node", NODE), ("required_mb", SIZE))):
    node: NodeId
    required_mb: float

    def apply(self, world: ScenarioWorld) -> None:
        query = StorageQuery(self.node, self.required_mb, world._next_query_id)
        world._next_query_id += 1
        node = world.nodes[self.node]
        agent_id = node.static_pin if world.static_mode else node.agent
        agent = world.nodes.get(agent_id)
        if agent is None or not agent.is_agent or agent_id in world.net.crashed:
            world._record_query(query, None, 0.0, "no_agent")
        else:
            find_storage(agent, world.net, query, world._record_query)


@dataclass(frozen=True)
class TransferAction(Action, kind="transfer",
                     fields=(("from", NODE), ("to", NODE), ("size_mb", SIZE))):
    src: NodeId
    dst: NodeId
    size_mb: float

    def apply(self, world: ScenarioWorld) -> None:
        sender = world.nodes[self.src].self_entry
        world.metrics.extend(transfer_file(world.net, sender, self.dst, self.size_mb))


@dataclass(frozen=True)
class SetLink(Action, kind="set_link",
              fields=(("scope", SCOPE), ("delay_ms", LINK_VALUE),
                      ("drop_probability", LINK_VALUE), ("bandwidth_mbps", LINK_VALUE))):
    scope: str  # "intra" | "inter"
    delay_ms: float | None = None
    drop_probability: float | None = None
    bandwidth_mbps: float | None = None

    def applied(self, link: LinkConfig) -> LinkConfig:
        """The link with the given fields replaced; LinkConfig refuses a bad
        one with InvalidTopology."""
        return replace(link, **{f.name: getattr(self, f.name) for f in fields(LinkConfig)
                                if getattr(self, f.name) is not None})

    def apply(self, world: ScenarioWorld) -> None:
        name = f"{self.scope}_link"
        setattr(world.net, name, self.applied(getattr(world.net, name)))


@dataclass(frozen=True)
class AssertConsistency(Action, kind="assert_quiescent_consistency"):
    def apply(self, world: ScenarioWorld) -> None:
        if not world.static_mode:  # pinned agents break dynamic invariants
            violation = world.check_consistency()
            if violation is not None:
                raise AssertionFailure(f"{violation} at t={world.net.now}")


ACTIONS = {cls.KIND: cls for cls in (JoinNode, LeaveNode, CrashNode, QueryAction,
                                     TransferAction, SetLink, AssertConsistency)}


@dataclass
class Scenario:
    name: str
    seed: int
    intra_domain_link: LinkConfig
    inter_domain_link: LinkConfig
    node_specs: list[NodeSpec]
    params: ProtocolParams
    policy: ElectionPolicy
    script: list[Action]

    def topology(self) -> Topology:
        return Topology(
            {spec.node_id: spec.domain for spec in self.node_specs},
            self.intra_domain_link,
            self.inter_domain_link,
        )

    def validate(self) -> None:
        """Raise ValidationError unless node ids are unique, the script is in time order
        and names only listed nodes, and every link, param and node entry is in range.
        `scenario_from_json` calls it and nothing later does: a Scenario built in code must."""
        ids = [spec.node_id for spec in self.node_specs]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate node ids in node specs")
        known = set(ids)
        last_t = 0.0
        # Each link as the script leaves it, for the set_link actions in turn.
        links = {"intra": self.intra_domain_link, "inter": self.inter_domain_link}
        for action in self.script:
            if action.time_ms < last_t:
                raise ValidationError(
                    f"script times must be non-decreasing: {action.time_ms} after {last_t}"
                )
            last_t = action.time_ms
            action.check(known)
            if isinstance(action, SetLink):
                try:
                    links[action.scope] = action.applied(links[action.scope])
                except DssmError as exc:
                    raise ValidationError(f"{action.KIND} {exc}") from exc
        for field in fields(ProtocolParams):
            if getattr(self.params, field.name) <= 0:
                raise ValidationError(f"param {field.name} must be > 0")
        # A timeout of one period or less drops a live peer after a single
        # lost heartbeat, or between two heartbeats without any loss.
        if self.params.failure_timeout_ms <= self.params.heartbeat_period_ms:
            raise ValidationError("param failure_timeout_ms must be > heartbeat_period_ms")
        # A heartbeat re-arms its timer one period after it fires, and a
        # period with t + period == t re-arms it at t forever. The clock never
        # passes the last script time T, float spacing only shrinks below T,
        # and half a spacing rounds back to an even t: so a period over half
        # the spacing at T moves every timer.
        period = self.params.heartbeat_period_ms
        if 2 * period <= math.ulp(last_t):
            raise ValidationError(
                f"param heartbeat_period_ms {period} does not advance the clock at t={last_t}")
        try:
            self.topology().validate()
        except DssmError as exc:
            raise ValidationError(str(exc)) from exc
        for spec in self.node_specs:
            try:
                spec.entry  # built here, then kept for every world
            except (DssmError, AddressValueError) as exc:
                raise ValidationError(f"node {spec.node_id}: {exc}") from exc


# -- JSON loading --------------------------------------------------------------


def _link_from_json(obj: dict, ctx: str) -> LinkConfig:
    values = {f.name: _get(obj, f.name, _NUMBER, ctx) for f in fields(LinkConfig)}
    try:
        return LinkConfig(**values)
    except DssmError as exc:
        raise ValidationError(f"{ctx}: {exc}") from exc


def _action_from_json(obj: dict, index: int) -> Action:
    ctx = f"script[{index}]"
    args = [_get(obj, "time_ms", _NUMBER, ctx)]
    kind = _get(obj, "action", str, ctx)
    cls = ACTIONS.get(kind)
    if cls is None:
        raise ParseError(f"{ctx}: unknown action {kind!r}")
    for key, (types, default, _) in cls.FIELDS:
        args.append(_get(obj, key, types, ctx, default))
    return cls(*args)


def scenario_from_json(doc: dict, name_hint: str = "scenario") -> Scenario:
    name = _get(doc, "name", str, name_hint, default=name_hint)
    ctx = f"scenario {name!r}"
    intra = _link_from_json(_get(doc, "intra_domain_link", dict, ctx), f"{ctx}.intra_domain_link")
    inter = _link_from_json(_get(doc, "inter_domain_link", dict, ctx), f"{ctx}.inter_domain_link")

    specs = []
    for i, node in enumerate(_get(doc, "nodes", list, ctx)):
        nctx = f"{ctx}.nodes[{i}]"
        if not isinstance(node, dict):
            raise ParseError(f"{nctx}: expected an object")
        specs.append(NodeSpec(
            node_id=_get(node, "id", int, nctx),
            domain=_get(node, "domain", int, nctx),
            ip=_get(node, "ip", str, nctx),
            capacity_mb=_get(node, "capacity_mb", _NUMBER, nctx),
            power_mhz=_get(node, "power_mhz", _NUMBER, nctx),
        ))

    raw_params = _get(doc, "params", dict, ctx, default={})
    known = {field.name for field in fields(ProtocolParams)}
    for key in raw_params:
        if key not in known:
            raise ParseError(f"{ctx}.params: unknown parameter {key!r}")
    params = ProtocolParams.from_links(intra, inter, **{
        k: _get(raw_params, k, _NUMBER, f"{ctx}.params") for k in raw_params})

    policy_name = _get(doc, "election_policy", str, ctx, default="max_power")
    try:
        policy = ElectionPolicy(policy_name)
    except ValueError:
        raise ParseError(f"{ctx}: unknown election_policy {policy_name!r}") from None

    script = []
    for i, action in enumerate(_get(doc, "script", list, ctx)):
        if not isinstance(action, dict):
            raise ParseError(f"{ctx}.script[{i}]: expected an object")
        script.append(_action_from_json(action, i))

    scenario = Scenario(
        name=name,
        seed=_get(doc, "seed", int, ctx, default=0),
        intra_domain_link=intra,
        inter_domain_link=inter,
        node_specs=specs,
        params=params,
        policy=policy,
        script=script,
    )
    scenario.validate()
    return scenario


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file, read as UTF-8."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return scenario_from_json(doc, name_hint=path.stem)


def bundled_scenario_path(name: str) -> Path:
    return SCENARIO_DIR / f"{name}.json"


def resolve_scenario_path(name_or_path) -> Path:
    """Accept a filesystem path or the bare name of a bundled scenario."""
    p = Path(name_or_path)
    if p.exists():
        return p
    bundled = bundled_scenario_path(p.stem if p.suffix == ".json" else str(name_or_path))
    if bundled.exists():
        return bundled
    raise ParseError(f"no such scenario file or bundled scenario: {name_or_path}")


# -- execution -------------------------------------------------------------------


class ScenarioWorld:
    """One scenario execution: network, nodes, registry, scripted actions. It runs its
    scenario unchecked: one not from `scenario_from_json` is validated by its maker."""

    def __init__(self, scenario: Scenario, static_mode: bool = False):
        self.scenario = scenario
        self.static_mode = static_mode
        self.net = Network(scenario.topology(), scenario.seed)
        self.registry = VirtualDomain(self.net)
        self.metrics: list[MetricsRecord] = []
        self.query_results: dict[int, AitEntry | None] = {}
        self._next_query_id = 1

        self.nodes: dict[NodeId, GosNode] = {}
        for spec in scenario.node_specs:
            node = GosNode(spec.entry, spec.domain, scenario.params,
                           scenario.policy, self.registry)
            node.metrics_cb = self.metrics.append
            self.nodes[spec.node_id] = node
            self.net.register_handler(spec.node_id, node)

        if static_mode:  # the first listed node of each domain
            pins = {spec.domain: spec.node_id for spec in reversed(scenario.node_specs)}
            for domain, agent_id in sorted(pins.items()):
                self.registry.register_agent(self.nodes[agent_id].self_entry, domain=domain)
            for node in self.nodes.values():
                node.static_pin = pins[node.domain]

    @property
    def trace(self) -> Trace:
        return self.net.trace

    def run(self) -> ScenarioWorld:
        for action in self.scenario.script:
            self.net.run_until(action.time_ms)
            try:
                action.apply(self)
            except (AlreadyMember, NotMember, NodeCrashed, InvalidValue, InvalidTopology) as exc:
                # e.g. a leave before the join or a transfer that cannot arrive;
                # a bad set_link raises here only if its scenario skipped validate
                raise ValidationError(f"script at t={action.time_ms}: {exc}") from exc
        return self

    def _record_query(self, query: StorageQuery, candidate, elapsed_ms, route) -> None:
        self.query_results[query.query_id] = candidate
        outcome = "not_found" if candidate is None and route == "remote" else route
        self.metrics.append(MetricsRecord(
            KIND_QUERY_RESPONSE, elapsed_ms, "ms", self.net.now,
            {"query_id": str(query.query_id), "requester": str(query.requester),
             "outcome": outcome,
             "candidate": str(candidate.node_id) if candidate else ""},
        ))

    # -- consistency --------------------------------------------------------------

    def live_members(self, domain: DomainId) -> list[GosNode]:
        """The domain's members that are not crashed, in ascending id order."""
        nodes, crashed = self.nodes, self.net.crashed
        return [node for nid in self.net.domain_members(domain)
                if (node := nodes[nid]).is_member and nid not in crashed]

    def check_consistency(self) -> str | None:
        """First violated quiescent-consistency check, None when clean.

        Only the first live member's AIT is built up front. A member that
        holds no own record reads its domain's heard board alone, so its
        ids are the board's senders and itself, and
        `HeardBoard.plain_readers` tells from the board alone whether those
        are the first member's ids. Only the members it does not name have
        their view built and compared. It names a member only when the ids
        are equal, so the first violation and its text are those of
        comparing every view."""
        for domain in sorted({spec.domain for spec in self.scenario.node_specs}):
            live = self.live_members(domain)
            if not live:
                continue
            ref, ref_ait = live[0], live[0].ait  # a view, built on each read
            ref_keys = ref_ait.ids()
            plain = self.net.heard_boards[domain].plain_readers(ref_keys)  # a member follows it
            for node in live[1:]:
                if node.node_id not in plain and node.ait.ids() != ref_keys:
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


def run_scenario(scenario: Scenario, static_mode: bool = False) -> ScenarioWorld:
    """Execute a validated scenario (see ScenarioWorld); return its world. Identical scenarios,
    seed included, give identical traces and metrics; `dataclasses.replace` sets another seed."""
    return ScenarioWorld(scenario, static_mode=static_mode).run()


@dataclass(frozen=True)
class ComparisonRow:
    mode: str
    queries: int
    successes: int
    success_rate: float
    mean_response_ms: float


@dataclass
class ComparisonSummary:
    static: ComparisonRow
    dynamic: ComparisonRow

    @classmethod
    def of(cls, static: ScenarioWorld, dynamic: ScenarioWorld) -> ComparisonSummary:
        """Query outcomes of a run with pinned agents and one of the full protocol."""
        rows = []
        for mode, world in (("static", static), ("dynamic", dynamic)):
            responses = [r for r in world.metrics if r.kind == KIND_QUERY_RESPONSE]
            hits = [r for r in responses if r.labels.get("outcome") in ("local", "remote")]
            rate = len(hits) / len(responses) if responses else 0.0
            mean = statistics.fmean(r.value for r in hits) if hits else 0.0
            rows.append(ComparisonRow(mode, len(responses), len(hits), rate, mean))
        return cls(*rows)

    def table(self) -> str:
        rows = (f"{r.mode},{r.queries},{r.successes},{r.success_rate:.4f},{r.mean_response_ms:.4f}"
                for r in (self.static, self.dynamic))
        return "\n".join(("mode,queries,successes,success_rate,mean_response_ms", *rows))


def compare_static_dynamic(scenario: Scenario) -> ComparisonSummary:
    """Run a validated scenario (see ScenarioWorld) with pinned agents and
    with the full protocol, and summarize query outcomes for both."""
    return ComparisonSummary.of(run_scenario(scenario, static_mode=True), run_scenario(scenario))


__all__ = [
    "ACTIONS",
    "Action",
    "AssertConsistency",
    "AssertionFailure",
    "BUNDLED_SCENARIOS",
    "ComparisonRow",
    "ComparisonSummary",
    "CrashNode",
    "JoinNode",
    "LeaveNode",
    "NodeSpec",
    "ParseError",
    "QueryAction",
    "Scenario",
    "ScenarioWorld",
    "SetLink",
    "TransferAction",
    "ValidationError",
    "bundled_scenario_path",
    "compare_static_dynamic",
    "load_scenario",
    "resolve_scenario_path",
    "run_scenario",
    "scenario_from_json",
]
