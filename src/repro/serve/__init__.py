"""Online-phase serving: turn trained distinguishers into a service.

The paper's online phase is service-shaped — a trained classifier
answers streams of oracle queries and accumulates an accuracy-based
CIPHER/RANDOM verdict.  This package supplies the missing deployment
layer on top of :mod:`repro.nn` and :mod:`repro.core`:

* :mod:`repro.serve.registry` — content-addressed, versioned model
  store (``.npz`` weights + JSON manifest with the online-phase
  parameters);
* :mod:`repro.serve.engine` — micro-batching inference engine (bounded
  queue, coalesced fused predicts, backpressure, per-request timeouts);
* :mod:`repro.serve.sessions` — Algorithm 2's online loop as an
  incremental session API;
* :mod:`repro.serve.http` / :mod:`repro.serve.client` — stdlib JSON
  HTTP server and client (``/v1/models``, ``/v1/classify``,
  ``/v1/distinguish``, ``/healthz``);
* :mod:`repro.serve.metrics` — latency percentiles, throughput, batch
  shape telemetry (``GET /v1/metrics``, ``BENCH_serve.json``).

Quickstart::

    from repro.serve import ModelRegistry, ServeServer, ServeClient

    registry = ModelRegistry("./registry")
    registry.register(distinguisher.model, "gimli-hash-r8",
                      scenario=scenario, report=report)
    with ServeServer(registry) as server:
        client = ServeClient(server.url)
        state = client.run_online_phase(
            "gimli-hash-r8", scenario, scenario.cipher_oracle(), 4000)
        print(state["verdict"])
"""

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.engine import MicroBatchEngine
from repro.serve.http import ServeServer, ServeService, create_server
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import ModelRecord, ModelRegistry, model_digest
from repro.serve.sessions import OnlineSession, SessionStore

__all__ = [
    "MicroBatchEngine",
    "ModelRecord",
    "ModelRegistry",
    "OnlineSession",
    "ServeClient",
    "ServeClientError",
    "ServeMetrics",
    "ServeServer",
    "ServeService",
    "SessionStore",
    "create_server",
    "model_digest",
]
