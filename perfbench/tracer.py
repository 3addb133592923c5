"""Per-layer spans recorded from outside the program.

`Tracer.install(dssm)` replaces the public entry points of each dssm module
with wrappers that record a span (name, start, end, parent span) in memory
and, for a few of them, a count taken at the boundary. A function is
replaced under every module-level name that refers to it, so callers that
imported it (`dssm.discovery.select_agent`) and callers that look it up on
its module (`dssm.election.select_agent`) both reach the wrapper. Methods
are replaced on their class. Layers are named after the modules.

The codec (`encode_message`/`decode_message`) is not wrapped: messages
travel between nodes as objects, so it never runs during a simulation.

A span's self time is its duration minus the durations of its direct
children. Summed over all spans, self times equal the time covered by
top-level spans; the rest of the instance's wall time is reported as
`trace.unspanned_s` (benchmark code and the program code that runs
outside any wrapped call).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

LAYERS = ("core", "election", "membership", "simnet", "discovery", "scenario", "metrics")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._domain_sizes: dict = {}

    # -- wrapping ----------------------------------------------------------

    def install(self, dssm) -> None:
        core, election, membership = dssm.core, dssm.election, dssm.membership
        simnet, discovery, scenario, metrics = dssm.simnet, dssm.discovery, dssm.scenario, dssm.metrics
        counts = self.counts

        def ait_len(ait, *args, **kwargs):
            counts["election.ait_len_sum"] += len(ait)

        def agent_before(node, *args, **kwargs):
            return node.agent

        def agent_after(before, node, *args, **kwargs):
            if node.agent != before:
                counts["election.changes"] += 1

        heartbeat = core.MessageKind.HEARTBEAT

        def on_message(node, net, msg):
            if msg.kind is heartbeat:
                counts["membership.heartbeat"] += 1
                if node.ait.get(msg.sender.node_id) == msg.sender:
                    counts["membership.heartbeat_unchanged"] += 1

        def multicast_before(net, src, group, msg):
            counts["simnet.multicast.attempts"] += self._fanout(net, src, group, simnet.VIRTUAL)
            return net.pending()

        def unicast_before(net, src, dst, msg):
            counts["simnet.unicast.attempts"] += 1
            return net.pending()

        def scheduled(pending, net, *args):
            counts["simnet.scheduled"] += net.pending() - pending

        def find_after(_, agent_node, net, query, *args, **kwargs):
            if query.query_id not in agent_node.pending_queries:
                counts["discovery.local"] += 1

        self._method("core.ait.entries", core.Ait, "entries")
        self._method("core.ait.upsert", core.Ait, "upsert")
        self._method("core.ait.remove", core.Ait, "remove")
        self._function("election.select_agent", election.select_agent, before=ait_len)
        self._function("election.reevaluate", election.reevaluate_agent,
                       before=agent_before, after=agent_after)
        self._method("membership.on_message", membership.GosNode, "on_message", before=on_message)
        self._method("membership.on_timer", membership.GosNode, "on_timer")
        self._method("membership.initiate_join", membership.GosNode, "initiate_join")
        self._method("membership.initiate_leave", membership.GosNode, "initiate_leave")
        self._method("simnet.run_until", simnet.Network, "run_until")
        self._method("simnet.multicast", simnet.Network, "send_multicast",
                     before=multicast_before, after=scheduled)
        self._method("simnet.unicast", simnet.Network, "send_unicast",
                     before=unicast_before, after=scheduled)
        self._method("simnet.timer.set", simnet.Network, "set_timer")
        self._function("simnet.export_trace", simnet.export_trace)
        self._function("discovery.find_storage", discovery.find_storage, after=find_after)
        self._function("discovery.handle_query", discovery.handle_query)
        self._function("discovery.handle_query_resp", discovery.handle_query_resp)
        self._function("discovery.finalize_query", discovery.finalize_query)
        self._function("discovery.best_fit", discovery.best_fit)
        self._method("discovery.register_agent", discovery.VirtualDomain, "register_agent")
        self._method("discovery.allocate", discovery.AllocationLedger, "allocate")
        self._method("discovery.release", discovery.AllocationLedger, "release")
        self._function("scenario.scenario_from_json", scenario.scenario_from_json)
        self._method("scenario.world_init", scenario.ScenarioWorld, "__init__")
        self._method("scenario.run", scenario.ScenarioWorld, "run")
        self._method("scenario.check", scenario.ScenarioWorld, "check_consistency")
        self._function("metrics.export_metrics", metrics.export_metrics)

    def _function(self, name, fn, **hooks) -> None:
        wrapper = self._wrap(name, fn, **hooks)
        for module_name, module in list(sys.modules.items()):
            if module_name == "dssm" or module_name.startswith("dssm."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def _method(self, name, cls, attr, **hooks) -> None:
        setattr(cls, attr, self._wrap(name, getattr(cls, attr), **hooks))

    def _wrap(self, name, fn, before=None, after=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(*args, **kwargs) if before is not None else None
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent)
                if after is not None:
                    after(ctx, *args, **kwargs)

        return wrapper

    def _fanout(self, net, src, group, virtual) -> int:
        if group == virtual:
            return len(net.virtual_members) - (src in net.virtual_members)
        sizes = self._domain_sizes.get(id(net))
        if sizes is None:
            sizes = self._domain_sizes[id(net)] = Counter(net.topology.nodes.values())
        return sizes[group] - (net.topology.nodes.get(src) == group)

    # -- report ------------------------------------------------------------

    def report(self, instance: dict) -> dict:
        """Per-layer metrics of one traced instance, as {name: (value, unit)}."""
        n = len(self.names)
        calls, total, own = [0] * n, [0.0] * n, [0.0] * n
        child = [0.0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        top = 0.0
        for slot, (index, start, end, parent) in enumerate(self.spans):
            duration = end - start
            calls[index] += 1
            total[index] += duration
            own[index] += duration - child[slot]
            if parent < 0:
                top += duration
        by = {name: i for i, name in enumerate(self.names)}
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        def k(name):
            return calls[by[name]]

        def s(name):
            return total[by[name]]

        def self_s(name):
            return own[by[name]]

        attempts = c["simnet.multicast.attempts"] + c["simnet.unicast.attempts"]
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            layer_self[name.split(".", 1)[0]] += own[i]
        m = {
            "election.reevaluate.calls": (k("election.reevaluate"), "count"),
            "election.reevaluate.self_s": (self_s("election.reevaluate"), "s"),
            "election.select_agent.calls": (k("election.select_agent"), "count"),
            "election.select_agent.s": (s("election.select_agent"), "s"),
            "election.ait_len_mean": (ratio(c["election.ait_len_sum"], k("election.select_agent")), "entries"),
            "election.change_ratio": (ratio(c["election.changes"], k("election.reevaluate")), "ratio"),
            "core.ait.entries.calls": (k("core.ait.entries"), "count"),
            "core.ait.entries.s": (s("core.ait.entries"), "s"),
            "core.ait.upsert.calls": (k("core.ait.upsert"), "count"),
            "membership.on_message.calls": (k("membership.on_message"), "count"),
            "membership.heartbeat.calls": (c["membership.heartbeat"], "count"),
            "membership.on_message.self_s": (self_s("membership.on_message"), "s"),
            "membership.on_timer.self_s": (self_s("membership.on_timer"), "s"),
            "membership.heartbeat_unchanged_ratio": (
                ratio(c["membership.heartbeat_unchanged"], c["membership.heartbeat"]), "ratio"),
            "simnet.events": (instance["event_rows"], "count"),
            "simnet.loop_self_s": (self_s("simnet.run_until"), "s"),
            "simnet.multicast.calls": (k("simnet.multicast"), "count"),
            "simnet.multicast.s": (s("simnet.multicast"), "s"),
            "simnet.multicast.fanout": (
                ratio(c["simnet.multicast.attempts"], k("simnet.multicast")), "attempts/call"),
            "simnet.unicast.calls": (k("simnet.unicast"), "count"),
            "simnet.unicast.s": (s("simnet.unicast"), "s"),
            "simnet.timer.set": (k("simnet.timer.set"), "count"),
            "simnet.timer.fired": (instance["timer_rows"], "count"),
            "simnet.drop_ratio": (ratio(attempts - c["simnet.scheduled"], attempts), "ratio"),
            "simnet.trace_rows": (instance["trace_rows"], "count"),
            "simnet.export_trace.s": (s("simnet.export_trace"), "s"),
            "discovery.find_storage.calls": (k("discovery.find_storage"), "count"),
            "discovery.local_ratio": (ratio(c["discovery.local"], k("discovery.find_storage")), "ratio"),
            "discovery.handle_query.calls": (k("discovery.handle_query"), "count"),
            "discovery.handle_query.self_s": (self_s("discovery.handle_query"), "s"),
            "discovery.best_fit.calls": (k("discovery.best_fit"), "count"),
            "discovery.best_fit.s": (s("discovery.best_fit"), "s"),
            "discovery.register_agent.calls": (k("discovery.register_agent"), "count"),
            "discovery.register_agent.s": (s("discovery.register_agent"), "s"),
            "scenario.check.calls": (k("scenario.check"), "count"),
            "scenario.check.s": (s("scenario.check"), "s"),
            "metrics.export_metrics.s": (s("metrics.export_metrics"), "s"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        m["trace.wall_s"] = (instance["wall_s"], "s")
        m["trace.unspanned_s"] = (instance["wall_s"] - top, "s")
        m["trace.spans"] = (len(self.spans), "count")
        return m
