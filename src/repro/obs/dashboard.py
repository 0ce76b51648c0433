"""Live sweep dashboard: watch a run directory while the run is running.

``python -m repro.obs.dashboard --run-dir DIR`` serves the run report's
view model (:func:`repro.experiments.report.collect_run`) as a small
auto-refreshing HTML page (the stdlib server of :mod:`repro.utils.http`,
no assets, no dependencies): per-cell status, throughput and ETA,
accuracy-so-far tables recovered from done cells, the tail of the run
event bus and the merged-trace timeline.

Everything is re-collected from disk on each request, so the page is
always consistent with what a resume would see — the dashboard holds no
state of its own and can be pointed at a live run, a killed run, or a
finished one.

Modes:

* default        — serve HTTP (``/`` HTML, ``/api/status`` the view
  model as JSON, ``/api/events?n=K`` the newest K events);
* ``--watch``    — redraw the plain-text view in the terminal every
  ``--interval`` seconds (for ssh sessions without a browser);
* ``--once``     — collect once and print the text view (or ``--out
  FILE`` the HTML page), then exit; this is what CI uses to smoke-test
  rendering.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional
from urllib.parse import parse_qs, urlsplit

from repro.experiments.report import collect_run, render_html, render_text
from repro.obs import events as obs_events
from repro.utils.atomic import atomic_write
from repro.utils.http import HttpError, HttpServer, JsonHandler

DEFAULT_INTERVAL_S = 2.0


def render_page(view: Dict, refresh_s: float = DEFAULT_INTERVAL_S) -> str:
    """The dashboard page: the report's HTML, reloading every ``refresh_s``."""
    return render_html(view, refresh_s=max(refresh_s, 0.5))


class _DashboardHandler(JsonHandler):
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        # The dashboard must not die on a request: errors answer as JSON.
        self.respond(self._get)

    def _get(self) -> None:
        server = self.server  # type: ignore[assignment]
        parts = urlsplit(self.path)
        if parts.path in ("/", "/index.html"):
            page = render_page(collect_run(server.run_dir), server.interval_s)
            self.send_text(200, page, "text/html; charset=utf-8")
        elif parts.path == "/api/status":
            self.send_json(200, collect_run(server.run_dir))
        elif parts.path == "/api/events":
            raw = parse_qs(parts.query).get("n", ["50"])[-1]
            try:
                limit = int(raw)
            except ValueError:
                raise HttpError(400, f"n must be an integer, got {raw!r}") from None
            if limit < 0:
                raise HttpError(400, f"n must be >= 0, got {limit}")
            events = obs_events.read_events(server.run_dir, limit=limit)
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
        view = collect_run(args.run_dir)
        if args.out:
            atomic_write(args.out, render_page(view, args.interval))
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(render_text(view))
        return 0
    if args.watch:
        try:
            while True:
                view = collect_run(args.run_dir)
                sys.stdout.write("\x1b[2J\x1b[H" + render_text(view))
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
