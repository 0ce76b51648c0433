"""The stdlib HTTP server and JSON handler base shared by ``serve`` and ``obs``.

Both the serving front (:mod:`repro.serve.http`) and the live sweep
dashboard (:mod:`repro.obs.dashboard`) are small JSON-over-HTTP/1.1
services on a ``ThreadingHTTPServer``.  This module owns what they have
in common:

* **No Nagle stall.**  Every accepted socket gets ``TCP_NODELAY`` and a
  response leaves in one ``sendall`` (status line, headers and body
  together).  With Nagle on and the headers and body written apart, the
  body of each keep-alive response waits for the client's delayed ACK:
  about 40 ms per request on Linux loopback, whatever the payload.
* **JSON responses and error mapping.**  :meth:`JsonHandler.respond`
  runs a route; an :class:`HttpError` becomes its status with a
  ``{"error": ...}`` body, any other exception a 500 with the same shape.
* **Quiet, stoppable servers.**  Per-request stderr logging is off, and
  :meth:`HttpServer.stop` shuts down, joins the serving thread and
  closes the socket (idempotent).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Iterable, Optional, Tuple

Headers = Iterable[Tuple[str, str]]


class HttpError(Exception):
    """A request failure that maps to ``status`` with a JSON error body."""

    def __init__(self, status: int, message: str, headers: Headers = ()):
        super().__init__(message)
        self.status = status
        self.headers = tuple(headers)


class JsonHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 keep-alive handler with one-write JSON/text responses."""

    protocol_version = "HTTP/1.1"
    #: ``StreamRequestHandler.setup`` sets ``TCP_NODELAY`` when true.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        del format, args

    def send_bytes(
        self, status: int, body: bytes, content_type: str, headers: Headers = ()
    ) -> None:
        """Send a complete response in a single write to the socket."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        # end_headers() would flush the header block on its own; queue the
        # blank line and the body behind it so all of it leaves at once.
        if self.request_version == "HTTP/0.9":  # no status line or headers
            self._headers_buffer = [body]
        else:
            self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def send_json(self, status: int, payload, headers: Headers = ()) -> None:
        self.send_bytes(
            status,
            json.dumps(payload, default=str).encode(),
            "application/json",
            headers,
        )

    def send_text(self, status: int, text: str, content_type: str) -> None:
        self.send_bytes(status, text.encode(), content_type)

    def respond(self, route: Callable[..., None], *args) -> None:
        """Run ``route(*args)``, answering any exception it raises as JSON."""
        try:
            route(*args)
        except HttpError as exc:
            self.send_json(exc.status, {"error": str(exc)}, exc.headers)
        except Exception as exc:  # never leak a stack trace as a hang
            self.send_json(500, {"error": f"internal error: {exc}"})


class HttpServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that serves from a background thread.

    ``port=0`` binds an ephemeral port (the resolved one is in
    :attr:`url`).  As a context manager it starts on entry and stops on
    exit.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], handler: type):
        super().__init__(address, handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self):
        """Serve from a daemon thread (idempotent); returns ``self``."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name=type(self).__name__, daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, join the serving thread and close the socket."""
        if self._thread is not None:
            self.shutdown()
            self._thread.join()
            self._thread = None
        self.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
