"""CLI entry point: ``python -m repro.serve --registry DIR``.

Starts the HTTP serving endpoint over a model registry directory and
blocks until interrupted (SIGINT triggers a graceful shutdown: pending
requests drain before the process exits).
"""

from __future__ import annotations

import argparse

from repro.serve.engine import DEFAULT_MAX_BATCH, DEFAULT_MAX_WAIT_MS
from repro.serve.http import create_server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serve registered distinguishers over HTTP"
    )
    parser.add_argument(
        "--registry",
        default="./serve-registry",
        help="model registry directory (default: ./serve-registry)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8151)
    parser.add_argument(
        "--max-batch", type=int, default=DEFAULT_MAX_BATCH,
        help=f"micro-batch row cap (default: {DEFAULT_MAX_BATCH})",
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=DEFAULT_MAX_WAIT_MS,
        help=f"batch coalescing window in ms (default: {DEFAULT_MAX_WAIT_MS})",
    )
    args = parser.parse_args(argv)
    server = create_server(
        args.registry,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
    )
    server.start()
    models = len(server.service.registry.list())
    print(f"serving {models} model(s) from {args.registry} at {server.url}")
    print("endpoints: /healthz /v1/models /v1/metrics /v1/classify /v1/distinguish")
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        print("shutting down (draining pending requests)...")
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
