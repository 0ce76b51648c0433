"""Run reports: plain-text tables plus HTML/markdown run summaries.

Two layers:

* table helpers (:func:`format_table`, :func:`paper_vs_measured`) used
  by the CLI to print result dicts — unchanged legacy surface;
* the run report (:func:`collect_run`, :func:`render_markdown`,
  :func:`render_html`, :func:`write_run_report`): a self-contained
  summary of one run directory assembled from whatever is there —
  ``<name>_manifest.json`` + ``<name>_result.json`` files and the
  ``queue/<name>/`` job records of resumable runs.  Every source is
  optional, so the report renders equally from a completed run and
  from a half-finished directory whose process was killed mid-grid
  (that is the directory you most want to inspect).

``python -m repro.experiments <name> --run-dir DIR`` (or ``--resume
DIR``) emits ``report.md`` and ``report.html`` automatically at the end
of the run; ``python -m repro.experiments report --run-dir DIR``
re-renders on demand.
"""

from __future__ import annotations

import html
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.utils.atomic import atomic_write

# -- plain-text tables (legacy surface) ------------------------------------


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: Optional[str] = None,
) -> str:
    """Render an aligned monospace table."""
    cells = [[str(h) for h in headers]] + [[_render(v) for v in row] for row in rows]
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


def _render(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def paper_vs_measured(
    rows: Sequence[Dict],
    key: str,
    paper_field: str = "paper",
    measured_field: str = "measured",
) -> List[Dict]:
    """Annotate result rows with the measured-minus-paper delta."""
    annotated = []
    for row in rows:
        entry = dict(row)
        paper = row.get(paper_field)
        measured = row.get(measured_field)
        if isinstance(paper, (int, float)) and isinstance(measured, (int, float)):
            entry["delta"] = measured - paper
        annotated.append(entry)
    del key
    return annotated


# -- run-report collection --------------------------------------------------


def _read_json(path: Path):
    """Best-effort JSON read: a partial run may hold anything."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def _collect_queue(queue_root: Path) -> Optional[Dict]:
    """One experiment's queue state: metadata plus per-job records.

    Done jobs get their stored result attached (``record["result"]``) so
    a partial run's report can synthesize accuracy-so-far tables without
    waiting for ``<name>_result.json``.
    """
    meta = _read_json(queue_root / "queue.json")
    jobs = []
    jobs_dir = queue_root / "jobs"
    if jobs_dir.is_dir():
        jobs = [
            record
            for record in (
                _read_json(path) for path in sorted(jobs_dir.glob("*.json"))
            )
            if record is not None
        ]
    if meta is None and not jobs:
        return None
    jobs.sort(key=lambda r: (r.get("index", 0), r.get("job_id", "")))
    counts: Dict[str, int] = {}
    for record in jobs:
        status = record.get("status", "unknown")
        counts[status] = counts.get(status, 0) + 1
        if record.get("status") == "done" and record.get("job_id"):
            stored = _read_json(
                queue_root / "results" / f"{record['job_id']}.json"
            )
            if isinstance(stored, dict) and "result" in stored:
                record["result"] = stored["result"]
    return {"meta": meta, "jobs": jobs, "counts": counts}


def _collect_obs(run_dir: Path) -> Optional[Dict]:
    """Cross-process telemetry for the run, when any of it exists.

    Returns ``{"events": {counts, tail}, "timeline": [...],
    "processes": [...]}`` built from ``events.jsonl`` and the merged
    Chrome trace.  The timeline keeps one entry per ``*.cell`` span —
    whichever process it ran in — ordered by start time.
    """
    from repro.obs import agg as obs_agg
    from repro.obs import events as obs_events

    events = obs_events.read_events(run_dir)
    trace_doc = _read_json(Path(run_dir) / obs_agg.TRACE_MERGED)
    if not events and trace_doc is None:
        return None
    counts: Dict[str, int] = {}
    for record in events:
        name = str(record.get("event", "?"))
        counts[name] = counts.get(name, 0) + 1
    timeline: List[Dict] = []
    processes: List[str] = []
    if isinstance(trace_doc, dict):
        names: Dict[int, str] = {}
        for entry in trace_doc.get("traceEvents") or []:
            if entry.get("ph") == "M" and entry.get("name") == "process_name":
                names[entry.get("pid")] = (entry.get("args") or {}).get(
                    "name", str(entry.get("pid"))
                )
        processes = sorted(set(names.values()))
        for entry in trace_doc.get("traceEvents") or []:
            if entry.get("ph") != "X":
                continue
            if not str(entry.get("name", "")).endswith(".cell"):
                continue
            timeline.append(
                {
                    "span": entry.get("name"),
                    "process": names.get(entry.get("pid"),
                                         str(entry.get("pid"))),
                    "start_s": entry.get("ts", 0) / 1e6,
                    "wall_clock_s": entry.get("dur", 0) / 1e6,
                    "attrs": {
                        k: v for k, v in (entry.get("args") or {}).items()
                        if k != "error"
                    },
                }
            )
        timeline.sort(key=lambda c: c["start_s"])
        if timeline:
            origin = timeline[0]["start_s"]
            for cell in timeline:
                cell["start_s"] = round(cell["start_s"] - origin, 6)
    return {
        "events": {"counts": counts, "tail": events[-12:]},
        "timeline": timeline,
        "processes": processes,
    }


def collect_run(run_dir) -> Dict:
    """Gather everything a run directory knows about its experiments.

    Returns ``{"run_dir", "experiments": {name: {"manifest", "result",
    "queue"}}}`` where each of the three sources is ``None`` when the
    directory doesn't (yet) hold it — a killed run typically has queue
    state but no result, a plain ``--run-dir`` run the reverse.
    """
    run_dir = Path(run_dir)
    experiments: Dict[str, Dict] = {}

    def entry(name: str) -> Dict:
        return experiments.setdefault(
            name, {"manifest": None, "result": None, "queue": None}
        )

    for path in sorted(run_dir.glob("*_manifest.json")):
        name = path.name[: -len("_manifest.json")]
        entry(name)["manifest"] = _read_json(path)
    for path in sorted(run_dir.glob("*_result.json")):
        name = path.name[: -len("_result.json")]
        entry(name)["result"] = _read_json(path)
    queue_base = run_dir / "queue"
    if queue_base.is_dir():
        for queue_root in sorted(p for p in queue_base.iterdir() if p.is_dir()):
            state = _collect_queue(queue_root)
            if state is not None:
                entry(queue_root.name)["queue"] = state
    return {
        "run_dir": str(run_dir),
        "experiments": experiments,
        "obs": _collect_obs(run_dir),
    }


# -- rendering --------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _md_table(headers: Sequence[str], rows: Sequence[Sequence]) -> List[str]:
    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
    return lines


def _pivot_table2(rows: List[Dict]):
    """Table 2 in the paper's layout: rounds down, targets across."""
    targets = sorted({row.get("target") for row in rows if row.get("target")})
    rounds = sorted(
        {row.get("rounds") for row in rows if row.get("rounds") is not None}
    )
    if not targets or not rounds:
        return None
    by_cell = {(row.get("target"), row.get("rounds")): row for row in rows}
    headers = ["Rounds"] + [
        f"Gimli-{str(t).capitalize()} (paper)" for t in targets
    ]
    body = []
    for r in rounds:
        line = [r]
        for t in targets:
            row = by_cell.get((t, r))
            if row is None:
                line.append(None)
            else:
                line.append(
                    f"{_fmt(row.get('measured'))} ({_fmt(row.get('paper'))})"
                )
        body.append(line)
    return headers, body


def _experiment_tables(name: str, result: Dict):
    """Result rows as (headers, rows) pairs, paper layout where defined."""
    rows = result.get("rows") or []
    tables = []
    if name == "table2" and rows:
        pivot = _pivot_table2(rows)
        if pivot is not None:
            tables.append(("Accuracy (paper layout)", pivot[0], pivot[1]))
    if name == "table3" and rows:
        headers = [
            "Network", "Params", "Params (paper)", "Accuracy",
            "Accuracy (paper)", "Train s",
        ]
        body = [
            [
                row.get("network"),
                row.get("parameters"),
                row.get("paper_parameters"),
                row.get("measured"),
                row.get("paper"),
                row.get("training_time_s"),
            ]
            for row in rows
        ]
        tables.append(("Architecture search (paper layout)", headers, body))
    if rows and all(isinstance(row, dict) for row in rows):
        headers = list(rows[0].keys())
        body = [[row.get(h) for h in headers] for row in rows]
        tables.append(("All rows", headers, body))
    return tables


def _cell_status_rows(state: Dict) -> List[List]:
    rows = []
    for record in state["jobs"]:
        spec = record.get("spec") or {}
        label = ", ".join(
            f"{key}={spec[key]}"
            for key in sorted(spec)
            if key not in ("experiment", "seed") and spec[key] is not None
        )
        rows.append(
            [
                record.get("index"),
                label or record.get("job_id"),
                record.get("status"),
                record.get("attempts"),
                record.get("duration_s"),
                record.get("error_type"),
            ]
        )
    return rows


def _timing_rows(manifest: Dict) -> List[List]:
    rows = []
    for cell in manifest.get("cells") or []:
        attrs = cell.get("attrs") or {}
        label = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        rows.append([cell.get("span"), label, cell.get("wall_clock_s")])
    return rows


def _partial_rows(state: Dict) -> List[Dict]:
    """Accuracy-so-far rows recovered from a partial run's done cells."""
    return [
        record["result"]
        for record in state["jobs"]
        if record.get("status") == "done"
        and isinstance(record.get("result"), dict)
    ]


def _timeline_rows(obs: Dict) -> List[List]:
    rows = []
    for cell in obs.get("timeline") or []:
        attrs = cell.get("attrs") or {}
        label = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        rows.append(
            [
                cell.get("span"),
                label,
                cell.get("process"),
                cell.get("start_s"),
                cell.get("wall_clock_s"),
            ]
        )
    return rows


def _event_count_rows(obs: Dict) -> List[List]:
    counts = (obs.get("events") or {}).get("counts") or {}
    return [[name, counts[name]] for name in sorted(counts)]


def render_markdown(run: Dict) -> str:
    """The run report as GitHub-flavoured markdown."""
    lines = [f"# Run report — `{run['run_dir']}`", ""]
    lines.append(
        f"Generated {time.strftime('%Y-%m-%d %H:%M:%S')} from "
        f"{len(run['experiments'])} experiment(s)."
    )
    if not run["experiments"]:
        lines += ["", "_The directory holds no results, manifests or "
                  "queue state yet._"]
        return "\n".join(lines) + "\n"
    for name, sources in sorted(run["experiments"].items()):
        manifest = sources["manifest"]
        result = sources["result"]
        state = sources["queue"]
        lines += ["", f"## {name}", ""]
        status_bits = []
        if state is not None:
            total = len(state["jobs"])
            done = state["counts"].get("done", 0)
            status_bits.append(f"queue: {done}/{total} cells done")
            for status in ("failed", "running", "pending"):
                count = state["counts"].get(status, 0)
                if count:
                    status_bits.append(f"{count} {status}")
        if manifest is not None:
            status_bits.append(
                f"last invocation {manifest.get('duration_s', 0.0):.1f}s"
            )
            workers = manifest.get("workers") or {}
            if workers:
                status_bits.append(
                    f"workers {workers.get('requested')} requested / "
                    f"{workers.get('resolved')} resolved"
                )
        if result is None:
            status_bits.append("no result yet (partial run)")
        lines.append("; ".join(status_bits) + "." if status_bits else "")
        if state is not None and state["jobs"]:
            lines += ["", "### Cells", ""]
            lines += _md_table(
                ["#", "Cell", "Status", "Attempts", "Seconds", "Error"],
                _cell_status_rows(state),
            )
        if manifest is not None and manifest.get("cells"):
            lines += ["", "### Cell timings (this invocation)", ""]
            lines += _md_table(
                ["Span", "Cell", "Wall-clock s"], _timing_rows(manifest)
            )
        if result is not None:
            for title, headers, body in _experiment_tables(name, result):
                lines += ["", f"### {title}", ""]
                lines += _md_table(headers, body)
        elif state is not None:
            partial = _partial_rows(state)
            for title, headers, body in _experiment_tables(
                name, {"rows": partial}
            ):
                lines += ["", f"### {title} — rows so far", ""]
                lines += _md_table(headers, body)
    obs = run.get("obs")
    if obs:
        lines += ["", "## Observability", ""]
        processes = obs.get("processes") or []
        if processes:
            lines.append(
                "Merged trace covers processes: "
                + ", ".join(f"`{p}`" for p in processes) + "."
            )
        count_rows = _event_count_rows(obs)
        if count_rows:
            lines += ["", "### Run events", ""]
            lines += _md_table(["Event", "Count"], count_rows)
        timeline = _timeline_rows(obs)
        if timeline:
            lines += ["", "### Cell timeline (merged trace)", ""]
            lines += _md_table(
                ["Span", "Cell", "Process", "Start s", "Wall-clock s"],
                timeline,
            )
    return "\n".join(lines) + "\n"


_HTML_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto;
       max-width: 60rem; color: #1a1a1a; }
h1 { border-bottom: 2px solid #444; padding-bottom: .3rem; }
h2 { margin-top: 2rem; border-bottom: 1px solid #bbb; }
table { border-collapse: collapse; margin: .5rem 0 1rem; }
th, td { border: 1px solid #ccc; padding: .25rem .6rem;
         text-align: left; font-size: .9rem; }
th { background: #f0f0f0; }
td.status-done { color: #14691b; }
td.status-failed { color: #9c1111; font-weight: bold; }
td.status-pending, td.status-running { color: #8a6d00; }
code { background: #f5f5f5; padding: 0 .2rem; }
"""


def _html_table(headers: Sequence[str], rows: Sequence[Sequence],
                status_col: Optional[int] = None) -> List[str]:
    lines = ["<table>", "<tr>"]
    lines += [f"<th>{html.escape(str(h))}</th>" for h in headers]
    lines.append("</tr>")
    for row in rows:
        lines.append("<tr>")
        for col, value in enumerate(row):
            css = ""
            if status_col is not None and col == status_col:
                css = f' class="status-{html.escape(_fmt(value))}"'
            lines.append(f"<td{css}>{html.escape(_fmt(value))}</td>")
        lines.append("</tr>")
    lines.append("</table>")
    return lines


def render_html(run: Dict) -> str:
    """The run report as a standalone HTML page (no external assets)."""
    parts = [
        "<!doctype html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>Run report — {html.escape(run['run_dir'])}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>Run report — <code>{html.escape(run['run_dir'])}</code></h1>",
        f"<p>Generated {time.strftime('%Y-%m-%d %H:%M:%S')} from "
        f"{len(run['experiments'])} experiment(s).</p>",
    ]
    if not run["experiments"]:
        parts.append(
            "<p><em>The directory holds no results, manifests or queue "
            "state yet.</em></p>"
        )
    for name, sources in sorted(run["experiments"].items()):
        manifest, result, state = (
            sources["manifest"], sources["result"], sources["queue"]
        )
        parts.append(f"<h2>{html.escape(name)}</h2>")
        summary = []
        if state is not None:
            total = len(state["jobs"])
            done = state["counts"].get("done", 0)
            summary.append(f"queue: {done}/{total} cells done")
            for status in ("failed", "running", "pending"):
                count = state["counts"].get(status, 0)
                if count:
                    summary.append(f"{count} {status}")
        if manifest is not None:
            summary.append(
                f"last invocation {manifest.get('duration_s', 0.0):.1f}s"
            )
        if result is None:
            summary.append("no result yet (partial run)")
        if summary:
            parts.append(f"<p>{html.escape('; '.join(summary))}.</p>")
        if state is not None and state["jobs"]:
            parts.append("<h3>Cells</h3>")
            parts += _html_table(
                ["#", "Cell", "Status", "Attempts", "Seconds", "Error"],
                _cell_status_rows(state),
                status_col=2,
            )
        if manifest is not None and manifest.get("cells"):
            parts.append("<h3>Cell timings (this invocation)</h3>")
            parts += _html_table(
                ["Span", "Cell", "Wall-clock s"], _timing_rows(manifest)
            )
        if result is not None:
            for title, headers, body in _experiment_tables(name, result):
                parts.append(f"<h3>{html.escape(title)}</h3>")
                parts += _html_table(headers, body)
        elif state is not None:
            partial = _partial_rows(state)
            for title, headers, body in _experiment_tables(
                name, {"rows": partial}
            ):
                parts.append(
                    f"<h3>{html.escape(title)} — rows so far</h3>"
                )
                parts += _html_table(headers, body)
    obs = run.get("obs")
    if obs:
        parts.append("<h2>Observability</h2>")
        processes = obs.get("processes") or []
        if processes:
            parts.append(
                "<p>Merged trace covers processes: "
                + ", ".join(
                    f"<code>{html.escape(p)}</code>" for p in processes
                )
                + ".</p>"
            )
        count_rows = _event_count_rows(obs)
        if count_rows:
            parts.append("<h3>Run events</h3>")
            parts += _html_table(["Event", "Count"], count_rows)
        timeline = _timeline_rows(obs)
        if timeline:
            parts.append("<h3>Cell timeline (merged trace)</h3>")
            parts += _html_table(
                ["Span", "Cell", "Process", "Start s", "Wall-clock s"],
                timeline,
            )
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def write_run_report(run_dir) -> List[Path]:
    """Render and atomically write ``report.md`` + ``report.html``.

    Works on any run directory, complete or partial; returns the paths
    written.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    run = collect_run(run_dir)
    md_path = run_dir / "report.md"
    html_path = run_dir / "report.html"
    atomic_write(md_path, render_markdown(run))
    atomic_write(html_path, render_html(run))
    return [md_path, html_path]
