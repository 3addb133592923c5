"""Shared helpers: hand-wired protocol worlds without the scenario layer,
scripted drop decisions, and the scripts under scripts/ loaded as
modules."""

import importlib.util
from itertools import chain, combinations
from pathlib import Path

from dssm.core import AitEntry
from dssm.discovery import VirtualDomain
from dssm.election import ElectionPolicy
from dssm.membership import GosNode, ProtocolParams
from dssm.simnet import LinkConfig, Network, Topology

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """scripts/<name>.py as a module: the scripts are not a package."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INTRA = LinkConfig(delay_ms=1.0, drop_probability=0.0, bandwidth_mbps=100.0)
INTER = LinkConfig(delay_ms=20.0, drop_probability=0.0, bandwidth_mbps=100.0)
PARAMS = ProtocolParams(
    accept_window_ms=20.0,
    heartbeat_period_ms=200.0,
    failure_timeout_ms=600.0,
    response_window_ms=100.0,
)


class World:
    """A network plus protocol nodes, wired like the scenario runner but
    driven directly from tests. `overrides` maps a node id to the `params`
    or `policy` it is built with instead of the world's."""

    def __init__(self, specs, seed=42, intra=INTRA, inter=INTER, params=PARAMS,
                 policy=ElectionPolicy.MAX_POWER, overrides=None):
        self.topology = Topology({nid: dom for nid, dom, _, _ in specs}, intra, inter)
        self.net = Network(self.topology, seed)
        self.registry = VirtualDomain(self.net)
        self.nodes = {}
        for nid, dom, cap, power in specs:
            entry = AitEntry(nid, f"10.0.{dom}.{nid % 250 + 1}", cap, power)
            given = {"params": params, "policy": policy, **(overrides or {}).get(nid, {})}
            node = GosNode(entry, dom, registry=self.registry, **given)
            self.nodes[nid] = node
            self.net.register_handler(nid, node)

    def join(self, node_id, at=None):
        if at is not None:
            self.net.run_until(at)
        self.nodes[node_id].initiate_join(self.net)

    def join_all(self, start=0.0, gap=50.0):
        t = start
        for nid in sorted(self.nodes):
            self.join(nid, at=t)
            t += gap
        return t

    def leave(self, node_id, at=None):
        if at is not None:
            self.net.run_until(at)
        self.nodes[node_id].initiate_leave(self.net)

    def crash(self, node_id, at=None):
        if at is not None:
            self.net.run_until(at)
        self.net.crash(node_id)

    def settle(self, until):
        self.net.run_until(until)

    def members(self, domain=None):
        return [
            n for _, n in sorted(self.nodes.items())
            if n.is_member and n.node_id not in self.net.crashed
            and (domain is None or n.domain == domain)
        ]

    def sends(self, kind_name, src=None):
        return [
            r for r in self.net.trace
            if r.kind == "send" and r.msg_kind == kind_name
            and (src is None or r.src == str(src))
        ]

    def delivers(self, kind_name=None):
        return [
            r for r in self.net.trace
            if r.kind == "deliver" and (kind_name is None or r.msg_kind == kind_name)
        ]


class ScriptedDraws:
    """Stands in for Network.rng to choose which lossy attempts drop: each
    random() call is the drop draw of one attempt over a lossy link (simnet's
    link model). Every attempt before `from_ms` is delivered; from then on,
    the attempt of index i, counted from 0, drops if i is in `drops`."""

    # DELIVER survives any drop_probability below 0.99, DROP any above 0.
    DELIVER, DROP = 0.99, 0.0

    def __init__(self, net, from_ms, drops):
        self.net, self.from_ms, self.drops = net, from_ms, frozenset(drops)
        # Attempts drawn at or after from_ms.
        self.attempts = 0

    def random(self):
        if self.net.now < self.from_ms:
            return self.DELIVER
        i, self.attempts = self.attempts, self.attempts + 1
        return self.DROP if i in self.drops else self.DELIVER


def drop_patterns(attempts, most):
    """Every set of at most `most` of the indices range(attempts), as sorted
    tuples, smaller sets first; the empty set is the first."""
    return chain.from_iterable(combinations(range(attempts), k) for k in range(most + 1))
