"""Deterministic aggregation of per-process telemetry into run files.

The flush protocol (:mod:`repro.obs.context`) leaves a run directory
holding one span JSONL and one metrics dump per process that produced
telemetry::

    <run_dir>/obs/main-<pid>.spans.jsonl
    <run_dir>/obs/worker-<pid>.spans.jsonl
    <run_dir>/obs/{main,worker}-<pid>.metrics.json

:func:`merge_run` collates them into two run-level artefacts:

* ``trace_merged.json`` — one Chrome-trace file whose events carry the
  *writing* process's pid (so Perfetto renders the parent and every
  worker as separate process tracks), plus ``process_name`` metadata
  events naming each track ``main-<pid>`` / ``worker-<pid>``;
* ``metrics_merged.prom`` — one Prometheus text exposition aggregating
  every process's registry dump: counters sum, gauges take the maximum
  (a per-process "current value" has no meaningful cross-process sum),
  histograms sum counts, sums and per-bucket tallies.

Both writers are **deterministic**: events sort by ``(start, pid, tid,
name, args)``, series by ``(name, labels)``, JSON keys are sorted, and
no timestamp or environment detail is embedded — merging the same
sink files twice produces byte-identical output, which is what the
merge tests pin.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.errors import ReproError
from repro.obs.context import obs_dir
from repro.obs.metrics import _format_labels, _format_number, _NAME_RE
from repro.utils.atomic import atomic_write

#: Merged artefact names, written at the run-dir root.
TRACE_MERGED = "trace_merged.json"
METRICS_MERGED = "metrics_merged.prom"


# -- reading the per-process sinks ------------------------------------------


def read_span_files(run_dir) -> List[dict]:
    """Every span record flushed under ``run_dir``, file order stable.

    Tolerant of a torn final line (a worker killed mid-append): lines
    that fail to parse are skipped, everything before them is kept.
    """
    records: List[dict] = []
    sink = obs_dir(run_dir)
    if not sink.is_dir():
        return records
    for path in sorted(sink.glob("*.spans.jsonl")):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def read_metric_dumps(run_dir) -> List[dict]:
    """Every per-process registry dump under ``run_dir``, path order."""
    dumps: List[dict] = []
    sink = obs_dir(run_dir)
    if not sink.is_dir():
        return dumps
    for path in sorted(sink.glob("*.metrics.json")):
        try:
            dump = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(dump, dict) and isinstance(dump.get("series"), list):
            dumps.append(dump)
    return dumps


# -- Chrome-trace merge -----------------------------------------------------


def _event_sort_key(event: dict):
    return (
        event.get("ts", 0.0),
        event.get("pid", 0),
        event.get("tid", 0),
        event.get("name", ""),
        json.dumps(event.get("args", {}), sort_keys=True, default=str),
    )


def merged_chrome_trace(spans: List[dict]) -> Dict:
    """Span records (from any number of processes) as one Chrome trace."""
    processes: Dict[int, str] = {}
    events: List[dict] = []
    for record in spans:
        pid = int(record.get("pid", 0))
        role = str(record.get("role", "main"))
        processes.setdefault(pid, f"{role}-{pid}")
        args = dict(record.get("attrs", {}))
        if "error" in record:
            args["error"] = record["error"]
        events.append(
            {
                "name": record.get("name", "?"),
                "cat": "repro",
                "ph": "X",
                "ts": record.get("start_us", 0.0),
                "dur": record.get("dur_us", 0.0),
                "pid": pid,
                "tid": record.get("thread", 0),
                "args": args,
            }
        )
    events.sort(key=_event_sort_key)
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": label},
        }
        for pid, label in sorted(processes.items())
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


# -- metrics merge ----------------------------------------------------------


def _merge_series(dumps: List[dict]) -> List[dict]:
    """Aggregate per-process series dumps into one sorted series list."""
    merged: Dict[Tuple[str, tuple], dict] = {}
    for dump in dumps:
        for entry in dump.get("series", []):
            name = entry.get("name")
            kind = entry.get("kind")
            labels = entry.get("labels") or {}
            key = (name, tuple(sorted(labels.items())))
            slot = merged.get(key)
            if slot is None:
                slot = merged[key] = {
                    "name": name,
                    "kind": kind,
                    "labels": dict(labels),
                    "value": 0.0,
                    "max": 0.0,
                    "count": 0,
                    "sum": 0.0,
                    "buckets": {},
                }
            if slot["kind"] != kind:
                raise ReproError(
                    f"metric {name!r} dumped as both {slot['kind']} and "
                    f"{kind}; refusing to merge"
                )
            if kind == "counter":
                slot["value"] += float(entry.get("value", 0.0))
            elif kind == "gauge":
                slot["value"] = max(slot["value"], float(entry.get("value", 0.0)))
                slot["max"] = max(slot["max"], float(entry.get("max", 0.0)))
            else:
                slot["count"] += int(entry.get("count", 0))
                slot["sum"] += float(entry.get("sum", 0.0))
                for upper, count in (entry.get("buckets") or {}).items():
                    slot["buckets"][upper] = (
                        slot["buckets"].get(upper, 0) + int(count)
                    )
    return [
        merged[key]
        for key in sorted(merged, key=lambda k: (k[0], k[1]))
    ]


def render_prometheus(series: List[dict]) -> str:
    """Merged series as Prometheus text exposition 0.0.4 (deterministic)."""
    lines: List[str] = []
    seen_types = set()
    for entry in series:
        name = _NAME_RE.sub("_", entry["name"])
        labels = tuple(sorted(
            (str(k), str(v)) for k, v in entry["labels"].items()
        ))
        if entry["name"] not in seen_types:
            seen_types.add(entry["name"])
            lines.append(f"# TYPE {name} {entry['kind']}")
        if entry["kind"] in ("counter", "gauge"):
            lines.append(
                f"{name}{_format_labels(labels)} "
                f"{_format_number(entry['value'])}"
            )
        else:
            cumulative = 0
            for upper, count in sorted(
                entry["buckets"].items(), key=lambda item: float(item[0])
            ):
                cumulative += count
                bucket_labels = labels + (("le", upper),)
                lines.append(
                    f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
                )
            inf_labels = labels + (("le", "+Inf"),)
            lines.append(
                f"{name}_bucket{_format_labels(inf_labels)} {entry['count']}"
            )
            lines.append(
                f"{name}_sum{_format_labels(labels)} "
                f"{_format_number(entry['sum'])}"
            )
            lines.append(
                f"{name}_count{_format_labels(labels)} {entry['count']}"
            )
    return "\n".join(lines) + "\n"


def merge_metrics(run_dir, out_path=None) -> Tuple[Path, List[dict]]:
    """Write ``metrics_merged.prom`` for ``run_dir``; returns (path, series)."""
    run_dir = Path(run_dir)
    series = _merge_series(read_metric_dumps(run_dir))
    path = Path(out_path) if out_path is not None else run_dir / METRICS_MERGED
    atomic_write(path, render_prometheus(series))
    return path, series


def merge_run(run_dir) -> Dict:
    """Merge every per-process sink under ``run_dir`` into run artefacts.

    Returns a summary dict: artefact paths, span/series totals, and the
    set of contributing process labels (``main-<pid>``/``worker-<pid>``)
    — handy for asserting that worker spans actually crossed the
    process boundary.
    """
    run_dir = Path(run_dir)
    spans = read_span_files(run_dir)
    trace = merged_chrome_trace(spans)
    trace_path = run_dir / TRACE_MERGED
    atomic_write(trace_path, json.dumps(trace, sort_keys=True) + "\n")
    metrics_path, series = merge_metrics(run_dir)
    processes = sorted(
        {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event.get("ph") == "M" and event.get("name") == "process_name"
        }
    )
    return {
        "trace_path": trace_path,
        "metrics_path": metrics_path,
        "spans": len(spans),
        "series": len(series),
        "processes": processes,
    }
