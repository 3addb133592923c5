"""Two-tier grid storage management on a deterministic simulated network.

Bottom tier: multicast domains of storage nodes maintaining Adjacent
Information Tables through join/leave/heartbeat traffic. Upper tier: a
virtual domain of per-domain agents (elected by processing power) that
answer cross-domain storage discovery queries.
"""

from .core import (
    Ait,
    AitEntry,
    DomainId,
    DssmError,
    InvalidValue,
    Message,
    MessageKind,
    NO_NODE,
    NodeId,
    WrongLength,
    decode_ait_entry,
    decode_message,
    encode_ait_entry,
    encode_message,
)
from .discovery import (
    Allocation,
    AllocationLedger,
    ServiceEndpoint,
    ServiceKind,
    StorageQuery,
    VirtualDomain,
    best_fit,
    find_storage,
    standard_endpoints,
    transfer_file,
)
from .election import ElectionPolicy, select_agent
from .membership import GosNode, Phase, ProtocolParams
from .metrics import MetricsRecord, export_metrics, load_metrics_json
from .scenario import (
    Scenario,
    ScenarioWorld,
    compare_static_dynamic,
    load_scenario,
    run_scenario,
)
from .simnet import (
    LinkConfig,
    Network,
    Topology,
    Trace,
    TraceRow,
    VIRTUAL,
    export_trace,
)

__version__ = "0.1.0"
