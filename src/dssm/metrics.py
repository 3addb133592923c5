"""Per-operation measurement records and their CSV/JSON export."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import islice
from json.encoder import encode_basestring_ascii as _escape

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

# Records that export_metrics joins into one write.
_RECORDS_PER_WRITE = 256


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
        if not math.isfinite(self.time_ms):
            raise ValueError(f"metric time_ms {self.time_ms} must be finite")


def _labels_csv(labels: dict[str, str]) -> str:
    # Sorted k=v pairs joined by ';' -- label values must not contain
    # ',', ';' or '='.
    return ";".join(f"{k}={labels[k]}" for k in sorted(labels))


def _csv_record(r: MetricsRecord) -> str:
    return f"{r.kind},{r.value!r},{r.unit},{r.time_ms!r},{_labels_csv(r.labels)}\n"


def _json_value(value) -> str:
    """value as json.dumps writes it: strings through the C escaper and
    finite floats through float.__repr__, the cases every record holds."""
    if type(value) is str:
        return _escape(value)
    if type(value) is float and value - value == 0.0:
        return float.__repr__(value)
    return json.dumps(value)


def _json_record(r: MetricsRecord) -> str:
    # The layout of json.dump(..., indent=2, sort_keys=True) for one record
    # at depth 1 of the array; its keys in sorted order.
    labels = r.labels
    if labels:
        pairs = ",\n      ".join([f"{_escape(k)}: {_json_value(labels[k])}"
                                   for k in sorted(labels)])
        labels_json = f"{{\n      {pairs}\n    }}"
    else:
        labels_json = "{}"
    return (f'{{\n    "kind": {_json_value(r.kind)},\n    "labels": {labels_json},'
            f'\n    "time_ms": {_json_value(r.time_ms)},\n    "unit": {_json_value(r.unit)},'
            f'\n    "value": {_json_value(r.value)}\n  }}')


def _batches(records):
    """The records in lists of at most _RECORDS_PER_WRITE: a write holds a
    few hundred records, never the whole document."""
    records = iter(records)
    while batch := list(islice(records, _RECORDS_PER_WRITE)):
        yield batch


def export_metrics(records: list[MetricsRecord], format: str, path) -> None:
    """Write records as CSV or JSON. Identical inputs give identical bytes:
    the JSON is that of json.dump(records, indent=2, sort_keys=True) plus a
    newline, each record an object of kind, labels, time_ms, unit, value."""
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    try:
        with open(path, "w", newline="") as fh:
            if format == "csv":
                fh.write(CSV_HEADER + "\n")
                for batch in _batches(records):
                    fh.write("".join(map(_csv_record, batch)))
            else:
                sep = "[\n  "
                for batch in _batches(records):
                    fh.write(sep + ",\n  ".join(map(_json_record, batch)))
                    sep = ",\n  "
                fh.write("\n]\n" if sep == ",\n  " else "[]\n")
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
