"""Live sweep dashboard: watch a run directory while the run is running.

``python -m repro.obs.dashboard --run-dir DIR`` serves a small
auto-refreshing HTML page (the stdlib server of :mod:`repro.utils.http`,
no assets, no dependencies) summarising whatever the directory holds
*right now*:

* per-cell status / attempts / durations from the job queue;
* throughput (done cells per minute) and an ETA — median completed-cell
  duration × remaining cells ÷ resolved workers;
* accuracy-so-far tables recovered from done cells' stored results, so
  a half-finished (or killed) Table 2 sweep already shows its rows;
* the tail of the run event bus (``events.jsonl``).

Everything is re-collected from disk on each request, so the page is
always consistent with what a resume would see — the dashboard holds no
state of its own and can be pointed at a live run, a killed run, or a
finished one.

Modes:

* default        — serve HTTP (``/`` HTML, ``/api/status`` JSON,
  ``/api/events?n=K`` the newest K events);
* ``--watch``    — redraw a plain-text summary in the terminal every
  ``--interval`` seconds (for ssh sessions without a browser);
* ``--once``     — collect once and print (or ``--out FILE`` the HTML),
  then exit; this is what CI uses to smoke-test rendering.
"""

from __future__ import annotations

import argparse
import html
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional
from urllib.parse import parse_qs, urlsplit

from repro.experiments import report as run_report
from repro.obs import events as obs_events
from repro.utils.http import HttpError, HttpServer, JsonHandler

DEFAULT_INTERVAL_S = 2.0


# -- collection --------------------------------------------------------------


def _cell_rows(jobs: List[Dict]) -> List[Dict]:
    rows = []
    for record in jobs:
        spec = record.get("spec") or {}
        label = ", ".join(
            f"{key}={spec[key]}"
            for key in sorted(spec)
            if key not in ("experiment", "seed") and spec[key] is not None
        )
        rows.append(
            {
                "index": record.get("index"),
                "cell": label or record.get("job_id"),
                "status": record.get("status", "unknown"),
                "attempts": record.get("attempts"),
                "duration_s": record.get("duration_s"),
                "error_type": record.get("error_type"),
            }
        )
    return rows


def _progress(state: Optional[Dict], manifest: Optional[Dict]) -> Dict:
    """Throughput and ETA from queue records (empty dict without a queue)."""
    if state is None:
        return {}
    jobs = state["jobs"]
    counts = state["counts"]
    done = [r for r in jobs if r.get("status") == "done"]
    durations = [
        float(r["duration_s"]) for r in done
        if isinstance(r.get("duration_s"), (int, float))
    ]
    remaining = counts.get("pending", 0) + counts.get("running", 0)
    workers = 1
    if manifest is not None:
        workers = (manifest.get("workers") or {}).get("resolved") or 1
    progress: Dict = {
        "total": len(jobs),
        "done": len(done),
        "remaining": remaining,
        "failed": counts.get("failed", 0),
        "workers": workers,
    }
    if durations:
        median = statistics.median(durations)
        progress["median_cell_s"] = round(median, 4)
        progress["eta_s"] = round(median * remaining / max(workers, 1), 2)
    meta = state.get("meta") or {}
    started = meta.get("created_unix")
    stamps = [
        r.get("updated_unix") for r in done
        if isinstance(r.get("updated_unix"), (int, float))
    ]
    if isinstance(started, (int, float)) and stamps:
        elapsed = max(max(stamps) - started, 1e-9)
        progress["cells_per_min"] = round(60.0 * len(done) / elapsed, 3)
    return progress


def collect_dashboard(run_dir) -> Dict:
    """Everything the dashboard shows, as one JSON-ready dict.

    Re-reads the run directory from scratch — safe against concurrent
    writers (all run artefacts are atomic or append-only) and therefore
    equally valid for in-flight, killed and completed runs.
    """
    run = run_report.collect_run(run_dir)
    experiments = []
    for name, sources in sorted(run["experiments"].items()):
        manifest = sources["manifest"]
        result = sources["result"]
        state = sources["queue"]
        if result is not None:
            tables = run_report._experiment_tables(name, result)
            partial = False
        elif state is not None:
            rows = run_report._partial_rows(state)
            tables = run_report._experiment_tables(name, {"rows": rows})
            partial = True
        else:
            tables, partial = [], result is None
        experiments.append(
            {
                "name": name,
                "complete": result is not None,
                "partial_tables": partial,
                "progress": _progress(state, manifest),
                "cells": _cell_rows(state["jobs"]) if state else [],
                "tables": [
                    {"title": title, "headers": list(headers), "rows": body}
                    for title, headers, body in tables
                ],
            }
        )
    events_tail = obs_events.read_events(run_dir, limit=15)
    return {
        "run_dir": run["run_dir"],
        "generated_unix": round(time.time(), 3),
        "experiments": experiments,
        "event_counts": obs_events.event_counts(run_dir),
        "events_tail": events_tail,
        "obs": run.get("obs"),
    }


# -- rendering ---------------------------------------------------------------

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 1.5rem auto;
       max-width: 64rem; color: #1a1a1a; }
h1 { border-bottom: 2px solid #444; padding-bottom: .3rem; }
h2 { margin-top: 1.5rem; border-bottom: 1px solid #bbb; }
table { border-collapse: collapse; margin: .5rem 0 1rem; }
th, td { border: 1px solid #ccc; padding: .2rem .55rem;
         text-align: left; font-size: .85rem; }
th { background: #f0f0f0; }
td.status-done { color: #14691b; }
td.status-failed { color: #9c1111; font-weight: bold; }
td.status-pending, td.status-running { color: #8a6d00; }
.meta { color: #555; font-size: .85rem; }
code { background: #f5f5f5; padding: 0 .2rem; }
pre { background: #f7f7f7; padding: .5rem; font-size: .8rem;
      overflow-x: auto; }
"""


def _fmt_eta(seconds) -> str:
    if not isinstance(seconds, (int, float)):
        return "—"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def _progress_line(exp: Dict) -> str:
    progress = exp.get("progress") or {}
    if not progress:
        return "complete" if exp.get("complete") else "no queue state"
    bits = [f"{progress['done']}/{progress['total']} cells done"]
    if progress.get("failed"):
        bits.append(f"{progress['failed']} failed")
    if progress.get("median_cell_s") is not None:
        bits.append(f"median cell {progress['median_cell_s']:.1f}s")
    if progress.get("cells_per_min") is not None:
        bits.append(f"{progress['cells_per_min']:.2f} cells/min")
    if progress.get("remaining"):
        bits.append(
            f"ETA {_fmt_eta(progress.get('eta_s'))} "
            f"({progress['remaining']} left × {progress['workers']} workers)"
        )
    return "; ".join(bits)


def render_dashboard_html(
    data: Dict, interval_s: float = DEFAULT_INTERVAL_S
) -> str:
    """The dashboard as one standalone auto-refreshing HTML page."""
    parts = [
        "<!doctype html>",
        "<html><head><meta charset='utf-8'>",
        f"<meta http-equiv='refresh' content='{max(interval_s, 0.5):g}'>",
        f"<title>Sweep dashboard — {html.escape(data['run_dir'])}</title>",
        f"<style>{_STYLE}</style></head><body>",
        "<h1>Sweep dashboard — "
        f"<code>{html.escape(data['run_dir'])}</code></h1>",
        "<p class='meta'>Collected "
        f"{time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(data['generated_unix']))}"
        f"; refreshes every {max(interval_s, 0.5):g}s.</p>",
    ]
    if not data["experiments"]:
        parts.append("<p><em>No experiments in this directory yet.</em></p>")
    for exp in data["experiments"]:
        parts.append(f"<h2>{html.escape(exp['name'])}</h2>")
        parts.append(f"<p>{html.escape(_progress_line(exp))}.</p>")
        if exp["cells"]:
            parts += run_report._html_table(
                ["#", "Cell", "Status", "Attempts", "Seconds", "Error"],
                [
                    [c["index"], c["cell"], c["status"], c["attempts"],
                     c["duration_s"], c["error_type"]]
                    for c in exp["cells"]
                ],
                status_col=2,
            )
        for table in exp["tables"]:
            suffix = " — rows so far" if exp["partial_tables"] else ""
            parts.append(
                f"<h3>{html.escape(table['title'] + suffix)}</h3>"
            )
            parts += run_report._html_table(
                table["headers"], table["rows"]
            )
    if data["event_counts"]:
        parts.append("<h2>Run events</h2>")
        parts += run_report._html_table(
            ["Event", "Count"],
            [[name, data["event_counts"][name]]
             for name in sorted(data["event_counts"])],
        )
        tail_lines = [
            json.dumps(record, sort_keys=True, default=str)
            for record in data["events_tail"]
        ]
        parts.append("<h3>Latest events</h3>")
        parts.append(f"<pre>{html.escape(chr(10).join(tail_lines))}</pre>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def render_watch(data: Dict) -> str:
    """The dashboard as plain text for ``--watch`` terminal mode."""
    lines = [
        f"sweep dashboard — {data['run_dir']}",
        time.strftime(
            "collected %Y-%m-%d %H:%M:%S",
            time.localtime(data["generated_unix"]),
        ),
    ]
    if not data["experiments"]:
        lines.append("  (no experiments yet)")
    for exp in data["experiments"]:
        lines += ["", f"{exp['name']}: {_progress_line(exp)}"]
        if exp["cells"]:
            lines.append(
                run_report.format_table(
                    ["#", "Cell", "Status", "Attempts", "Seconds"],
                    [
                        [c["index"], c["cell"], c["status"], c["attempts"],
                         "—" if c["duration_s"] is None
                         else f"{c['duration_s']:.2f}"]
                        for c in exp["cells"]
                    ],
                )
            )
        for table in exp["tables"]:
            suffix = " — rows so far" if exp["partial_tables"] else ""
            lines += [
                "",
                run_report.format_table(
                    table["headers"], table["rows"],
                    title=table["title"] + suffix,
                ),
            ]
    if data["event_counts"]:
        counts = ", ".join(
            f"{name}={data['event_counts'][name]}"
            for name in sorted(data["event_counts"])
        )
        lines += ["", f"events: {counts}"]
    return "\n".join(lines) + "\n"


# -- HTTP serving ------------------------------------------------------------


class _DashboardHandler(JsonHandler):
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        # The dashboard must not die on a request: errors answer as JSON.
        self.respond(self._get)

    def _get(self) -> None:
        server = self.server  # type: ignore[assignment]
        parts = urlsplit(self.path)
        if parts.path in ("/", "/index.html"):
            page = render_dashboard_html(
                collect_dashboard(server.run_dir), server.interval_s
            )
            self.send_text(200, page, "text/html; charset=utf-8")
        elif parts.path == "/api/status":
            self.send_json(200, collect_dashboard(server.run_dir))
        elif parts.path == "/api/events":
            query = parse_qs(parts.query)
            try:
                limit = int(query.get("n", ["50"])[-1])
            except ValueError:
                limit = 50
            events = obs_events.read_events(server.run_dir, limit=max(limit, 0))
            self.send_json(200, {"events": events})
        else:
            raise HttpError(404, f"unknown path {self.path!r}")


class DashboardServer(HttpServer):
    """HTTP server bound to one run directory (``port=0`` = ephemeral)."""

    def __init__(self, run_dir, host: str = "127.0.0.1", port: int = 0,
                 interval_s: float = DEFAULT_INTERVAL_S):
        super().__init__((host, port), _DashboardHandler)
        self.run_dir = Path(run_dir)
        self.interval_s = float(interval_s)


# -- CLI ---------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dashboard",
        description="Live dashboard over an experiment run directory.",
    )
    parser.add_argument("--run-dir", required=True,
                        help="run directory to watch")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8377,
                        help="HTTP port (0 = ephemeral)")
    parser.add_argument("--interval", type=float, default=DEFAULT_INTERVAL_S,
                        help="refresh/redraw period in seconds")
    parser.add_argument("--watch", action="store_true",
                        help="redraw a terminal summary instead of serving")
    parser.add_argument("--once", action="store_true",
                        help="collect and render once, then exit")
    parser.add_argument("--out", default=None,
                        help="with --once: write the HTML page here")
    args = parser.parse_args(argv)

    if args.once:
        data = collect_dashboard(args.run_dir)
        if args.out:
            Path(args.out).write_text(
                render_dashboard_html(data, args.interval), encoding="utf-8"
            )
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(render_watch(data))
        return 0
    if args.watch:
        try:
            while True:
                data = collect_dashboard(args.run_dir)
                sys.stdout.write("\x1b[2J\x1b[H" + render_watch(data))
                sys.stdout.flush()
                time.sleep(max(args.interval, 0.2))
        except KeyboardInterrupt:
            return 0
    server = DashboardServer(
        args.run_dir, host=args.host, port=args.port,
        interval_s=args.interval,
    )
    print(f"dashboard for {args.run_dir} at {server.url} (Ctrl-C stops)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
