"""Run ``python -m repro.serve`` for the serve-online workload.

Usage::

    python3 e2ebench/server.py --registry DIR [--trace-out FILE]

Starts the stock serving CLI on an ephemeral loopback port; its first
output line names the URL.  SIGINT shuts it down gracefully.  With
``--trace-out`` the layer wrappers of :mod:`layers` are installed first
and every span is written to ``FILE`` on exit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--registry", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    harness.use_source()
    from repro.obs import log as obs_log
    from repro.serve.__main__ import main as serve_main

    # The parent reads the URL line through a pipe; logs go to stderr.
    sys.stdout.reconfigure(line_buffering=True)
    obs_log.configure(stream=sys.stderr)
    recorder = None
    if args.trace_out:
        recorder = layers.Recorder()
        layers.install(recorder)
        recorder.recording = True
    code = serve_main(["--registry", args.registry, "--port", "0"])
    if recorder is not None:
        recorder.recording = False
        layers.dump_spans(recorder.spans, args.trace_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
