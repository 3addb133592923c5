"""Per-operation measurement records and their CSV/JSON export."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .core import IoError

KIND_JOIN_LATENCY = "JoinLatency"
KIND_ELECTION_LATENCY = "ElectionLatency"
KIND_QUERY_RESPONSE = "QueryResponse"
KIND_TRANSFER_RESPONSE = "TransferResponse"
KIND_THROUGHPUT = "Throughput"

METRIC_KINDS = (
    KIND_JOIN_LATENCY,
    KIND_ELECTION_LATENCY,
    KIND_QUERY_RESPONSE,
    KIND_TRANSFER_RESPONSE,
    KIND_THROUGHPUT,
)

CSV_HEADER = "kind,value,unit,time_ms,labels"


@dataclass
class MetricsRecord:
    kind: str
    value: float
    unit: str  # "ms" or "Mbps"
    time_ms: float
    labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if math.isnan(self.value) or math.isinf(self.value) or self.value < 0:
            raise ValueError(f"metric value {self.value} must be finite and >= 0")


def _labels_csv(labels: dict[str, str]) -> str:
    # Sorted k=v pairs joined by ';' -- label values must not contain
    # ',', ';' or '='.
    return ";".join(f"{k}={labels[k]}" for k in sorted(labels))


def export_metrics(records: list[MetricsRecord], format: str, path) -> None:
    """Write records as CSV or JSON. Identical inputs give identical bytes."""
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    try:
        with open(path, "w", newline="") as fh:
            if format == "csv":
                fh.write(CSV_HEADER + "\n")
                for r in records:
                    fh.write(f"{r.kind},{r.value!r},{r.unit},{r.time_ms!r},{_labels_csv(r.labels)}\n")
            else:
                payload = [
                    {
                        "kind": r.kind,
                        "value": r.value,
                        "unit": r.unit,
                        "time_ms": r.time_ms,
                        "labels": r.labels,
                    }
                    for r in records
                ]
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc


def load_metrics_json(path) -> list[MetricsRecord]:
    """Parse a JSON metrics export back into records."""
    with open(path) as fh:
        raw = json.load(fh)
    return [
        MetricsRecord(r["kind"], r["value"], r["unit"], r["time_ms"], dict(r["labels"]))
        for r in raw
    ]
