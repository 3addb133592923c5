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

Script times must be non-decreasing and every referenced node must appear
in "nodes". "params" fields are optional; absent ones default from the
link model. "set_link" reconfigures a link class mid-run (the WAN
emulator knob); omitted set_link fields keep their current value.

The consistency assertion checks, per domain with live members: equal AIT
key sets, agent agreement, and that the agent is the one the scenario's
election policy selects from the first live member's view (for max_power:
a member of the power argmax). Script actions that do not fit a node's
state at run time, such as a leave before the node joined or a leave or
transfer by a crashed node, raise ValidationError like any other bad input.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, replace
from ipaddress import AddressValueError
from pathlib import Path

from .core import AitEntry, DomainId, DssmError, NodeId
from .discovery import (
    StorageQuery,
    VirtualDomain,
    find_storage,
    transfer_file,
)
from .election import ElectionPolicy, heard_members, select_agent
from .membership import AlreadyMember, GosNode, NotMember, Phase, ProtocolParams
from .metrics import KIND_QUERY_RESPONSE, MetricsRecord, export_metrics
from .simnet import LinkConfig, Network, NodeCrashed, Topology, Trace, export_trace

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

    def entry(self) -> AitEntry:
        return AitEntry(self.node_id, self.ip, self.capacity_mb, self.power_mhz)


@dataclass(frozen=True)
class JoinNode:
    time_ms: float
    node: NodeId


@dataclass(frozen=True)
class LeaveNode:
    time_ms: float
    node: NodeId


@dataclass(frozen=True)
class CrashNode:
    time_ms: float
    node: NodeId


@dataclass(frozen=True)
class QueryAction:
    time_ms: float
    node: NodeId
    required_mb: float


@dataclass(frozen=True)
class TransferAction:
    time_ms: float
    src: NodeId
    dst: NodeId
    size_mb: float


@dataclass(frozen=True)
class AssertConsistency:
    time_ms: float


@dataclass(frozen=True)
class SetLink:
    time_ms: float
    scope: str  # "intra" | "inter"
    delay_ms: float | None = None
    drop_probability: float | None = None
    bandwidth_mbps: float | None = None


@dataclass
class Scenario:
    name: str
    seed: int
    intra_domain_link: LinkConfig
    inter_domain_link: LinkConfig
    node_specs: list[NodeSpec]
    params: ProtocolParams
    policy: ElectionPolicy
    script: list

    def topology(self) -> Topology:
        return Topology(
            {spec.node_id: spec.domain for spec in self.node_specs},
            self.intra_domain_link,
            self.inter_domain_link,
        )

    def validate(self) -> None:
        ids = [spec.node_id for spec in self.node_specs]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate node ids in node specs")
        known = set(ids)
        last_t = 0.0
        for action in self.script:
            if action.time_ms < last_t:
                raise ValidationError(
                    f"script times must be non-decreasing: {action.time_ms} after {last_t}"
                )
            last_t = action.time_ms
            for ref in _referenced_nodes(action):
                if ref not in known:
                    raise ValidationError(f"script references unknown node {ref}")
            if isinstance(action, QueryAction) and action.required_mb <= 0:
                raise ValidationError(f"query required_mb {action.required_mb} must be > 0")
            if isinstance(action, TransferAction) and action.size_mb <= 0:
                raise ValidationError(f"transfer size_mb {action.size_mb} must be > 0")
            if isinstance(action, SetLink) and action.scope not in ("intra", "inter"):
                raise ValidationError(f"set_link scope must be intra or inter, got {action.scope}")
        for p in ("accept_window_ms", "heartbeat_period_ms",
                  "failure_timeout_ms", "response_window_ms"):
            if getattr(self.params, p) <= 0:
                raise ValidationError(f"param {p} must be > 0")
        try:
            self.topology().validate()
        except DssmError as exc:
            raise ValidationError(str(exc)) from exc
        for spec in self.node_specs:
            try:
                spec.entry()
            except (DssmError, AddressValueError) as exc:
                raise ValidationError(f"node {spec.node_id}: {exc}") from exc


def _referenced_nodes(action):
    if isinstance(action, (JoinNode, LeaveNode, CrashNode, QueryAction)):
        return (action.node,)
    if isinstance(action, TransferAction):
        return (action.src, action.dst)
    return ()


# -- JSON loading --------------------------------------------------------------


_REQUIRED = object()


def _get(obj: dict, key: str, types, ctx: str, default=_REQUIRED):
    if key not in obj:
        if default is not _REQUIRED:
            return default
        raise ParseError(f"{ctx}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ParseError(f"{ctx}: field {key!r} has wrong type {type(value).__name__}")
    return value


def _link_from_json(obj: dict, ctx: str) -> LinkConfig:
    try:
        return LinkConfig(
            delay_ms=float(_get(obj, "delay_ms", (int, float), ctx)),
            drop_probability=float(_get(obj, "drop_probability", (int, float), ctx)),
            bandwidth_mbps=float(_get(obj, "bandwidth_mbps", (int, float), ctx)),
        )
    except DssmError as exc:
        raise ValidationError(f"{ctx}: {exc}") from exc


def _action_from_json(obj: dict, index: int):
    ctx = f"script[{index}]"
    t = float(_get(obj, "time_ms", (int, float), ctx))
    kind = _get(obj, "action", str, ctx)
    if kind == "join":
        return JoinNode(t, _get(obj, "node", int, ctx))
    if kind == "leave":
        return LeaveNode(t, _get(obj, "node", int, ctx))
    if kind == "crash":
        return CrashNode(t, _get(obj, "node", int, ctx))
    if kind == "query":
        return QueryAction(t, _get(obj, "node", int, ctx),
                           float(_get(obj, "required_mb", (int, float), ctx)))
    if kind == "transfer":
        return TransferAction(t, _get(obj, "from", int, ctx), _get(obj, "to", int, ctx),
                              float(_get(obj, "size_mb", (int, float), ctx)))
    if kind == "assert_quiescent_consistency":
        return AssertConsistency(t)
    if kind == "set_link":
        def opt(key):
            v = _get(obj, key, (int, float), ctx, default=None)
            return None if v is None else float(v)
        return SetLink(t, _get(obj, "scope", str, ctx), opt("delay_ms"),
                       opt("drop_probability"), opt("bandwidth_mbps"))
    raise ParseError(f"{ctx}: unknown action {kind!r}")


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
            capacity_mb=float(_get(node, "capacity_mb", (int, float), nctx)),
            power_mhz=float(_get(node, "power_mhz", (int, float), nctx)),
        ))

    base = ProtocolParams.from_links(intra, inter)
    raw_params = _get(doc, "params", dict, ctx, default={})
    for key in raw_params:
        if not hasattr(base, key):
            raise ParseError(f"{ctx}.params: unknown parameter {key!r}")
    params = replace(base, **{k: float(_get(raw_params, k, (int, float), f"{ctx}.params"))
                              for k in raw_params})

    policy_name = _get(doc, "election_policy", str, ctx, default="max_power")
    try:
        policy = ElectionPolicy(policy_name)
    except ValueError:
        raise ParseError(f"{ctx}: unknown election_policy {policy_name!r}") from None

    raw_script = _get(doc, "script", list, ctx)
    script = [_action_from_json(a, i) if isinstance(a, dict)
              else _raise_parse(f"{ctx}.script[{i}]: expected an object")
              for i, a in enumerate(raw_script)]

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


def _raise_parse(msg):
    raise ParseError(msg)


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
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


@dataclass
class ScenarioResult:
    scenario: Scenario
    trace: Trace
    metrics: list[MetricsRecord]
    world: "ScenarioWorld"

    @property
    def query_results(self):
        return self.world.query_results

    @property
    def registry(self) -> VirtualDomain:
        return self.world.registry


class ScenarioWorld:
    """One scenario execution: network, nodes, registry, scripted actions."""

    def __init__(self, scenario: Scenario, static_mode: bool = False):
        scenario.validate()
        self.scenario = scenario
        self.static_mode = static_mode
        self.net = Network(scenario.topology(), scenario.seed)
        self.registry = VirtualDomain(self.net)
        self.metrics: list[MetricsRecord] = []
        self.query_results: dict[int, AitEntry | None] = {}
        self._next_query_id = 1

        self.nodes: dict[NodeId, GosNode] = {}
        for spec in scenario.node_specs:
            node = GosNode(spec.entry(), spec.domain, scenario.params,
                           scenario.policy, self.registry)
            node.metrics_cb = self.metrics.append
            self.nodes[spec.node_id] = node
            self.net.register_handler(spec.node_id, node)

        self._pins: dict[DomainId, NodeId] = {}
        if static_mode:
            for spec in scenario.node_specs:  # first listed node per domain
                self._pins.setdefault(spec.domain, spec.node_id)
            for domain, agent_id in sorted(self._pins.items()):
                self.registry.register_pinned(self.nodes[agent_id].self_entry, domain=domain)
            for node in self.nodes.values():
                node.static_pin = self._pins[node.domain]

    def run(self) -> ScenarioResult:
        for action in self.scenario.script:
            self.net.run_until(action.time_ms)
            try:
                self._apply(action)
            except (AlreadyMember, NotMember, NodeCrashed) as exc:  # e.g. leave before join
                raise ValidationError(f"script at t={action.time_ms}: {exc}") from exc
        return ScenarioResult(self.scenario, self.net.trace, self.metrics, self)

    # -- actions -----------------------------------------------------------------

    def _apply(self, action) -> None:
        if isinstance(action, JoinNode):
            node = self.nodes[action.node]
            if self.net.is_crashed(action.node):
                self.net.revive(action.node)
                node.reset_offline()
            elif node.phase is Phase.LEFT:
                node.reset_offline()
            node.initiate_join(self.net)
        elif isinstance(action, LeaveNode):
            self.nodes[action.node].initiate_leave(self.net)
        elif isinstance(action, CrashNode):
            self.net.crash(action.node)
        elif isinstance(action, QueryAction):
            self._query(action)
        elif isinstance(action, TransferAction):
            sender = self.nodes[action.src].self_entry
            self.metrics.extend(
                transfer_file(self.net, sender, action.dst, action.size_mb))
        elif isinstance(action, SetLink):
            self._set_link(action)
        elif isinstance(action, AssertConsistency):
            if not self.static_mode:  # pinned agents break dynamic invariants
                violation = self.check_consistency()
                if violation is not None:
                    raise AssertionFailure(f"{violation} at t={self.net.now}")
        else:
            raise ValidationError(f"unhandled action {action!r}")

    def _query(self, action: QueryAction) -> None:
        qid = self._next_query_id
        self._next_query_id += 1
        query = StorageQuery(action.node, action.required_mb, qid)
        if self.static_mode:
            agent_id = self._pins[self.nodes[action.node].domain]
        else:
            agent_id = self.nodes[action.node].agent
        agent = self.nodes.get(agent_id)
        if agent is None or not agent.is_agent or self.net.is_crashed(agent_id):
            self.query_results[qid] = None
            self.metrics.append(MetricsRecord(
                KIND_QUERY_RESPONSE, 0.0, "ms", self.net.now,
                {"query_id": str(qid), "requester": str(action.node),
                 "outcome": "no_agent", "candidate": ""},
            ))
            return
        find_storage(agent, self.net, query, self._record_query)

    def _record_query(self, query: StorageQuery, candidate, elapsed_ms, route) -> None:
        self.query_results[query.query_id] = candidate
        outcome = route if candidate is not None else "not_found"
        self.metrics.append(MetricsRecord(
            KIND_QUERY_RESPONSE, elapsed_ms, "ms", self.net.now,
            {"query_id": str(query.query_id), "requester": str(query.requester),
             "outcome": outcome,
             "candidate": str(candidate.node_id) if candidate else ""},
        ))

    def _set_link(self, action: SetLink) -> None:
        current = self.net.intra_link if action.scope == "intra" else self.net.inter_link
        new = LinkConfig(
            action.delay_ms if action.delay_ms is not None else current.delay_ms,
            action.drop_probability if action.drop_probability is not None
            else current.drop_probability,
            action.bandwidth_mbps if action.bandwidth_mbps is not None
            else current.bandwidth_mbps,
        )
        if action.scope == "intra":
            self.net.intra_link = new
        else:
            self.net.inter_link = new

    # -- consistency --------------------------------------------------------------

    def live_members(self, domain: DomainId) -> list[GosNode]:
        return [node for _, node in sorted(self.nodes.items())
                if node.domain == domain and node.is_member
                and not self.net.is_crashed(node.node_id)]

    def check_consistency(self) -> str | None:
        """First violated quiescent-consistency check, None when clean."""
        domains = sorted({spec.domain for spec in self.scenario.node_specs})
        for domain in domains:
            live = self.live_members(domain)
            if not live:
                continue
            ref = live[0]
            ref_keys = ref.ait.ids()
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
            agent_entry = ref.ait.get(agent)
            if agent_entry is None:
                return f"agent-not-in-ait domain={domain}: agent {agent}"
            expected = select_agent(ref.ait, agent, ref.policy, heard_members(ref, self.net.now))
            if expected == agent:
                continue
            if ref.policy is ElectionPolicy.MAX_POWER:
                top = max(e.processing_power_mhz for e in ref.ait.entries())
                return (f"agent-not-argmax domain={domain}: agent {agent} has "
                        f"{agent_entry.processing_power_mhz} MHz, max is {top}")
            return (f"agent-not-selected domain={domain}: agent {agent}, "
                    f"{ref.policy.value} selects {expected}")
        return None


def run_scenario(scenario: Scenario, static_mode: bool = False,
                 seed: int | None = None) -> ScenarioResult:
    """Execute a scenario. Identical (scenario, seed) pairs give identical
    traces and metrics, byte for byte."""
    if seed is not None:
        scenario = replace(scenario, seed=seed)
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

    def rows(self) -> list[ComparisonRow]:
        return [self.static, self.dynamic]

    def table(self) -> str:
        lines = ["mode,queries,successes,success_rate,mean_response_ms"]
        for row in self.rows():
            lines.append(f"{row.mode},{row.queries},{row.successes},"
                         f"{row.success_rate:.4f},{row.mean_response_ms:.4f}")
        return "\n".join(lines)


def _summarize(mode: str, result: ScenarioResult) -> ComparisonRow:
    responses = [r for r in result.metrics if r.kind == KIND_QUERY_RESPONSE]
    hits = [r for r in responses if r.labels.get("outcome") in ("local", "remote")]
    rate = len(hits) / len(responses) if responses else 0.0
    mean = statistics.fmean(r.value for r in hits) if hits else 0.0
    return ComparisonRow(mode, len(responses), len(hits), rate, mean)


def compare_static_dynamic(scenario: Scenario) -> ComparisonSummary:
    """Run the scenario with pinned agents and with the full protocol, and
    summarize query outcomes for both."""
    static = _summarize("static", run_scenario(scenario, static_mode=True))
    dynamic = _summarize("dynamic", run_scenario(scenario, static_mode=False))
    return ComparisonSummary(static=static, dynamic=dynamic)


__all__ = [
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
    "ScenarioResult",
    "ScenarioWorld",
    "SetLink",
    "TransferAction",
    "ValidationError",
    "bundled_scenario_path",
    "compare_static_dynamic",
    "export_metrics",
    "export_trace",
    "load_scenario",
    "resolve_scenario_path",
    "run_scenario",
    "scenario_from_json",
]
