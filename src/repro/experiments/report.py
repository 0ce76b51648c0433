"""Run reports: one view model of a run directory, three thin renderers.

* :func:`format_table` — an aligned monospace table, used by the CLI to
  print result dicts;
* :func:`collect_run` — reads a run directory once and returns a
  JSON-ready view model: per-experiment progress, a summary line and an
  ordered list of ``{title, headers, rows}`` tables, plus run-level
  tables for the event bus and the merged trace;
* :func:`render_markdown`, :func:`render_html` (optionally
  auto-refreshing) and :func:`render_text` — each loops over the view's
  tables and knows nothing about queues, traces or Table 2 pivots;
* :func:`write_run_report` — ``report.md`` + ``report.html``.

Every source in the directory is optional — ``<name>_manifest.json``,
``<name>_result.json``, the ``queue/<name>/`` job records of resumable
runs, ``events.jsonl`` and the merged Chrome trace — so the view builds
equally from a completed run, a live one and a half-finished directory
whose process was killed mid-grid (the one you most want to inspect).
The live dashboard (:mod:`repro.obs.dashboard`) serves the same view.

``python -m repro.experiments <name> --run-dir DIR`` (or ``--resume
DIR``) emits ``report.md`` and ``report.html`` automatically at the end
of the run; ``python -m repro.experiments report --run-dir DIR``
re-renders on demand.
"""

from __future__ import annotations

import html
import json
import statistics
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import agg as obs_agg
from repro.obs import events as obs_events
from repro.utils.atomic import atomic_write

#: How many of the newest bus events the view keeps.
EVENTS_TAIL = 15


def _fmt(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: Optional[str] = None,
) -> str:
    """Render an aligned monospace table."""
    cells = [[str(h) for h in headers]] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# -- collection --------------------------------------------------------------


def _read_json(path: Path) -> Optional[Dict]:
    """Best-effort read of a JSON object: a partial run may hold anything."""
    try:
        value = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return value if isinstance(value, dict) else None


def _table(title: str, headers: Sequence[str], rows: List[List]) -> Dict:
    return {"title": title, "headers": list(headers), "rows": rows}


def _label(attrs: Dict) -> str:
    """``k=v, ...`` for a cell's spec or span attributes."""
    return ", ".join(
        f"{key}={attrs[key]}"
        for key in sorted(attrs)
        if key not in ("experiment", "seed", "error") and attrs[key] is not None
    )


def _read_queue(queue_root: Path) -> Optional[Tuple[Dict, List[Dict]]]:
    """One experiment's queue metadata and job records, index order.

    Done jobs get their stored result attached (``record["result"]``) so
    a partial run shows accuracy-so-far tables before
    ``<name>_result.json`` exists.
    """
    meta = _read_json(queue_root / "queue.json")
    jobs = [
        record
        for record in map(_read_json, sorted(queue_root.glob("jobs/*.json")))
        if record is not None
    ]
    if meta is None and not jobs:
        return None
    jobs.sort(key=lambda r: (r.get("index", 0), r.get("job_id", "")))
    for record in jobs:
        if record.get("status") == "done" and record.get("job_id"):
            stored = _read_json(queue_root / "results" / f"{record['job_id']}.json")
            if stored is not None and "result" in stored:
                record["result"] = stored["result"]
    return meta or {}, jobs


def _progress(meta: Dict, jobs: List[Dict], workers: int) -> Dict:
    """Done/failed/remaining counts, median cell time, throughput, ETA.

    ETA = median completed-cell duration × remaining cells ÷ workers.
    """
    done = [r for r in jobs if r.get("status") == "done"]
    remaining = sum(r.get("status") in ("pending", "running") for r in jobs)
    progress: Dict = {
        "total": len(jobs),
        "done": len(done),
        "remaining": remaining,
        "failed": sum(r.get("status") == "failed" for r in jobs),
        "workers": workers,
    }
    durations = [
        float(r["duration_s"]) for r in done
        if isinstance(r.get("duration_s"), (int, float))
    ]
    if durations:
        median = statistics.median(durations)
        progress["median_cell_s"] = round(median, 4)
        progress["eta_s"] = round(median * remaining / workers, 2)
    started = meta.get("created_unix")
    stamps = [
        r["updated_unix"] for r in done
        if isinstance(r.get("updated_unix"), (int, float))
    ]
    if isinstance(started, (int, float)) and stamps:
        elapsed = max(max(stamps) - started, 1e-9)
        progress["cells_per_min"] = round(60.0 * len(done) / elapsed, 3)
    return progress


def _fmt_eta(seconds) -> str:
    if not isinstance(seconds, (int, float)):
        return "—"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def _summary(progress: Dict, manifest: Optional[Dict], result) -> str:
    bits = []
    if progress:
        bits.append(f"{progress['done']}/{progress['total']} cells done")
        if progress["failed"]:
            bits.append(f"{progress['failed']} failed")
        if "median_cell_s" in progress:
            bits.append(f"median cell {progress['median_cell_s']:.1f}s")
        if "cells_per_min" in progress:
            bits.append(f"{progress['cells_per_min']:.2f} cells/min")
        if progress["remaining"]:
            bits.append(
                f"ETA {_fmt_eta(progress.get('eta_s'))} ({progress['remaining']}"
                f" left × {progress['workers']} workers)"
            )
    if manifest is not None:
        bits.append(f"last invocation {manifest.get('duration_s', 0.0):.1f}s")
        workers = manifest.get("workers") or {}
        if workers:
            bits.append(
                f"workers {workers.get('requested')} requested / "
                f"{workers.get('resolved')} resolved"
            )
    if result is None:
        bits.append(
            "no result yet (partial run); result tables show the rows so far"
            if progress else "no result yet (partial run)"
        )
    return "; ".join(bits)


def _pivot_table2(rows: List[Dict]) -> Optional[Dict]:
    """Table 2 in the paper's layout: rounds down, targets across."""
    targets = sorted({row.get("target") for row in rows if row.get("target")})
    rounds = sorted(
        {row.get("rounds") for row in rows if row.get("rounds") is not None}
    )
    if not targets or not rounds:
        return None
    by_cell = {(row.get("target"), row.get("rounds")): row for row in rows}
    body = []
    for r in rounds:
        line = [r]
        for t in targets:
            row = by_cell.get((t, r))
            line.append(
                None if row is None
                else f"{_fmt(row.get('measured'))} ({_fmt(row.get('paper'))})"
            )
        body.append(line)
    headers = ["Rounds"] + [f"Gimli-{str(t).capitalize()} (paper)" for t in targets]
    return _table("Accuracy (paper layout)", headers, body)


def _result_tables(name: str, rows: List) -> List[Dict]:
    """Result rows as tables, the paper's layout first where defined."""
    if not rows or not all(isinstance(row, dict) for row in rows):
        return []
    tables = []
    pivot = _pivot_table2(rows) if name == "table2" else None
    if pivot is not None:
        tables.append(pivot)
    if name == "table3":
        keys = ("network", "parameters", "paper_parameters", "measured",
                "paper", "training_time_s")
        tables.append(_table(
            "Architecture search (paper layout)",
            ["Network", "Params", "Params (paper)", "Accuracy",
             "Accuracy (paper)", "Train s"],
            [[row.get(key) for key in keys] for row in rows],
        ))
    headers = list(rows[0].keys())
    tables.append(_table(
        "All rows", headers, [[row.get(h) for h in headers] for row in rows]
    ))
    return tables


def _experiment(name: str, manifest, result, queue) -> Dict:
    """One experiment's view: progress, summary line, cells and tables."""
    meta, jobs = queue if queue is not None else ({}, [])
    progress = {}
    if queue is not None:
        workers = (manifest or {}).get("workers") or {}
        progress = _progress(meta, jobs, max(workers.get("resolved") or 1, 1))
    cells = [
        {
            "index": record.get("index"),
            "cell": _label(record.get("spec") or {}) or record.get("job_id"),
            "status": record.get("status", "unknown"),
            "attempts": record.get("attempts"),
            "duration_s": record.get("duration_s"),
            "error_type": record.get("error_type"),
        }
        for record in jobs
    ]
    tables = []
    if cells:
        tables.append(_table(
            "Cells", ["#", "Cell", "Status", "Attempts", "Seconds", "Error"],
            [list(cell.values()) for cell in cells],
        ))
    timings = [
        [cell.get("span"), _label(cell.get("attrs") or {}),
         cell.get("wall_clock_s")]
        for cell in (manifest or {}).get("cells") or []
    ]
    if timings:
        tables.append(_table(
            "Cell timings (this invocation)",
            ["Span", "Cell", "Wall-clock s"], timings,
        ))
    if result is not None:
        rows = result.get("rows") or []
    else:
        rows = [
            record["result"] for record in jobs
            if record.get("status") == "done"
            and isinstance(record.get("result"), dict)
        ]
    return {
        "name": name,
        "complete": result is not None,
        "partial_tables": result is None and queue is not None,
        "progress": progress,
        "summary": _summary(progress, manifest, result),
        "cells": cells,
        "tables": tables + _result_tables(name, rows),
    }


def _trace_tables(trace_doc: Optional[Dict]) -> List[Dict]:
    """The merged trace's ``*.cell`` timeline and its process list.

    One timeline row per ``*.cell`` span, whichever process it ran in,
    ordered by start time relative to the first.
    """
    if trace_doc is None:
        return []
    entries = trace_doc.get("traceEvents") or []
    names: Dict = {
        entry.get("pid"): (entry.get("args") or {}).get("name", str(entry.get("pid")))
        for entry in entries
        if entry.get("ph") == "M" and entry.get("name") == "process_name"
    }
    spans = sorted(
        (
            entry for entry in entries
            if entry.get("ph") == "X"
            and str(entry.get("name", "")).endswith(".cell")
        ),
        key=lambda entry: entry.get("ts", 0),
    )
    origin = spans[0].get("ts", 0) if spans else 0
    timeline = [
        [
            entry.get("name"),
            _label(entry.get("args") or {}),
            names.get(entry.get("pid"), str(entry.get("pid"))),
            round((entry.get("ts", 0) - origin) / 1e6, 6),
            entry.get("dur", 0) / 1e6,
        ]
        for entry in spans
    ]
    tables = []
    if timeline:
        tables.append(_table(
            "Cell timeline (merged trace)",
            ["Span", "Cell", "Process", "Start s", "Wall-clock s"], timeline,
        ))
    if names:
        tables.append(_table(
            "Trace processes", ["Process"],
            [[name] for name in sorted(set(names.values()))],
        ))
    return tables


def collect_run(run_dir) -> Dict:
    """The view model of one run directory, JSON-ready.

    Reads every source once (``events.jsonl`` included) and is safe
    against concurrent writers — all run artefacts are atomic or
    append-only — so it is equally valid for in-flight, killed and
    completed runs.  Keys: ``run_dir``, ``generated_unix``, ``summary``,
    ``experiments`` (a list, by name), ``event_counts``, ``events_tail``
    and the run-level ``tables``.
    """
    run_dir = Path(run_dir)
    sources: Dict[str, Dict] = {}
    for suffix in ("manifest", "result"):
        for path in sorted(run_dir.glob(f"*_{suffix}.json")):
            name = path.name[: -len(f"_{suffix}.json")]
            sources.setdefault(name, {})[suffix] = _read_json(path)
    queue_base = run_dir / "queue"
    if queue_base.is_dir():
        for queue_root in sorted(p for p in queue_base.iterdir() if p.is_dir()):
            queue = _read_queue(queue_root)
            if queue is not None:
                sources.setdefault(queue_root.name, {})["queue"] = queue
    experiments = [
        _experiment(name, found.get("manifest"), found.get("result"),
                    found.get("queue"))
        for name, found in sorted(sources.items())
    ]

    events = obs_events.read_events(run_dir)
    counts: Dict[str, int] = {}
    for record in events:
        name = str(record.get("event", "?"))
        counts[name] = counts.get(name, 0) + 1
    tail = events[-EVENTS_TAIL:]
    hidden = ("ts", "event", "run_id")
    tables = []
    if counts:
        tables.append(_table(
            "Run events", ["Event", "Count"],
            [[name, counts[name]] for name in sorted(counts)],
        ))
        tables.append(_table(
            "Latest events", ["Time", "Event", "Fields"],
            [
                [
                    time.strftime("%H:%M:%S", time.localtime(record.get("ts", 0))),
                    record.get("event"),
                    json.dumps(
                        {k: v for k, v in record.items() if k not in hidden},
                        sort_keys=True, default=str,
                    ),
                ]
                for record in tail
            ],
        ))
    tables += _trace_tables(_read_json(run_dir / obs_agg.TRACE_MERGED))
    return {
        "run_dir": str(run_dir),
        "generated_unix": round(time.time(), 3),
        "summary": (f"{len(experiments)} experiment(s)" if experiments
                    else "(no experiments yet)"),
        "experiments": experiments,
        "event_counts": counts,
        "events_tail": tail,
        "tables": tables,
    }


# -- rendering ---------------------------------------------------------------


def _sections(view: Dict) -> Iterator[Tuple[str, str, List[Dict]]]:
    """``(heading, summary, tables)``: each experiment, then the run."""
    for exp in view["experiments"]:
        yield exp["name"], exp["summary"], exp["tables"]
    if view["tables"]:
        yield "Observability", "", view["tables"]


def _stamp(view: Dict) -> str:
    when = time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(view["generated_unix"])
    )
    return f"Collected {when}: {view['summary']}."


def render_markdown(view: Dict) -> str:
    """The view as GitHub-flavoured markdown."""
    lines = [f"# Run report — `{view['run_dir']}`", "", _stamp(view)]
    for heading, summary, tables in _sections(view):
        lines += ["", f"## {heading}"]
        if summary:
            lines += ["", f"{summary}."]
        for table in tables:
            lines += ["", f"### {table['title']}", ""]
            lines.append("| " + " | ".join(map(str, table["headers"])) + " |")
            lines.append("|" + "|".join(" --- " for _ in table["headers"]) + "|")
            lines += [
                "| " + " | ".join(_fmt(v) for v in row) + " |"
                for row in table["rows"]
            ]
    return "\n".join(lines) + "\n"


def render_text(view: Dict) -> str:
    """The view as plain text (``dashboard --watch`` and ``--once``)."""
    lines = [f"Run report — {view['run_dir']}", _stamp(view)]
    for heading, summary, tables in _sections(view):
        lines += ["", f"{heading}: {summary}" if summary else f"{heading}:"]
        for table in tables:
            lines += ["", format_table(
                table["headers"], table["rows"], title=f"{table['title']}:"
            )]
    return "\n".join(lines) + "\n"


_HTML_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto;
       max-width: 64rem; color: #1a1a1a; }
h1 { border-bottom: 2px solid #444; padding-bottom: .3rem; }
h2 { margin-top: 2rem; border-bottom: 1px solid #bbb; }
table { border-collapse: collapse; margin: .5rem 0 1rem; }
th, td { border: 1px solid #ccc; padding: .25rem .6rem;
         text-align: left; font-size: .9rem; }
th { background: #f0f0f0; }
td.status-done { color: #14691b; }
td.status-failed { color: #9c1111; font-weight: bold; }
td.status-pending, td.status-running { color: #8a6d00; }
.meta { color: #555; }
code { background: #f5f5f5; padding: 0 .2rem; }
"""


def render_html(view: Dict, refresh_s: Optional[float] = None) -> str:
    """The view as one standalone HTML page (no external assets).

    With ``refresh_s`` the page is the live sweep dashboard and reloads
    itself every ``refresh_s`` seconds.  A ``Status`` column's cells get
    a ``status-<value>`` class for colour.
    """
    name = "Sweep dashboard" if refresh_s else "Run report"
    run_dir = html.escape(view["run_dir"])
    parts = ["<!doctype html>", "<html><head><meta charset='utf-8'>"]
    if refresh_s:
        parts.append(f"<meta http-equiv='refresh' content='{refresh_s:g}'>")
    parts += [
        f"<title>{name} — {run_dir}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>{name} — <code>{run_dir}</code></h1>",
        f"<p class='meta'>{html.escape(_stamp(view))}</p>",
    ]
    for heading, summary, tables in _sections(view):
        parts.append(f"<h2>{html.escape(heading)}</h2>")
        if summary:
            parts.append(f"<p>{html.escape(summary)}.</p>")
        for table in tables:
            status_col = (table["headers"].index("Status")
                          if "Status" in table["headers"] else None)
            parts += [f"<h3>{html.escape(table['title'])}</h3>", "<table>", "<tr>"]
            parts += [f"<th>{html.escape(str(h))}</th>" for h in table["headers"]]
            parts.append("</tr>")
            for row in table["rows"]:
                parts.append("<tr>")
                for col, value in enumerate(row):
                    text = html.escape(_fmt(value))
                    css = f' class="status-{text}"' if col == status_col else ""
                    parts.append(f"<td{css}>{text}</td>")
                parts.append("</tr>")
            parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def write_run_report(run_dir) -> List[Path]:
    """Render and atomically write ``report.md`` + ``report.html``.

    Works on any run directory, complete or partial; returns the paths
    written.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    view = collect_run(run_dir)
    md_path = run_dir / "report.md"
    html_path = run_dir / "report.html"
    atomic_write(md_path, render_markdown(view))
    atomic_write(html_path, render_html(view))
    return [md_path, html_path]
