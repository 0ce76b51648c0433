"""Serving walkthrough: train, register, serve, distinguish over HTTP.

Runs the paper's offline phase once (a 5-round Gimli-Hash
distinguisher), registers the trained model in an on-disk
``repro.serve`` registry, starts the loopback HTTP service, and then
plays the online distinguishing game twice through the client — once
against the real cipher oracle (expected verdict: CIPHER) and once
against a random oracle (expected verdict: RANDOM).  Takes ~20 seconds
on a laptop.

Usage::

    python examples/serve_demo.py [--rounds 5] [--samples 6000]
"""

import argparse
import tempfile
import time

from repro import GimliHashScenario, MLDistinguisher
from repro.core.statistics import required_online_samples
from repro.nn.architectures import build_mlp
from repro.serve import ModelRegistry, ServeClient, ServeServer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=5,
                        help="round-reduced Gimli rounds")
    parser.add_argument("--samples", type=int, default=6_000,
                        help="offline training samples")
    parser.add_argument("--registry", default=None,
                        help="registry directory (default: a temp dir)")
    parser.add_argument("--seed", type=int, default=31)
    args = parser.parse_args()

    print(f"== Offline phase: {args.rounds}-round Gimli-Hash, "
          f"{args.samples} samples ==")
    scenario = GimliHashScenario(rounds=args.rounds)
    distinguisher = MLDistinguisher(
        scenario, model=build_mlp([64, 128], "relu"),
        epochs=3, rng=args.seed,
    )
    start = time.perf_counter()
    report = distinguisher.train(num_samples=args.samples)
    print(f"validation accuracy : {report.validation_accuracy:.4f} "
          f"({time.perf_counter() - start:.1f}s)")

    registry_dir = args.registry or tempfile.mkdtemp(prefix="repro-registry-")
    registry = ModelRegistry(registry_dir)
    record = registry.register(
        distinguisher.model,
        f"gimli-hash-r{args.rounds}",
        scenario=scenario,
        report=report,
    )
    print(f"\n== Registered {record.name} v{record.version} ==")
    print(f"model id  : {record.model_id}")
    print(f"threshold : {record.threshold:.4f}  (= (a + 1/t) / 2)")
    print(f"registry  : {registry_dir}")

    n_online = max(
        256,
        required_online_samples(report.validation_accuracy, 2,
                                error_probability=0.01),
    )
    with ServeServer(registry) as server:
        client = ServeClient(server.url)
        print(f"\n== Serving at {server.url} ==")
        for model in client.models():
            print(f"GET /v1/models -> {model['name']} v{model['version']}")

        print(f"\n== Online phase over HTTP: {n_online} samples/oracle ==")
        for label, oracle, rng in [
            ("cipher oracle", scenario.cipher_oracle(), args.seed + 1),
            ("random oracle",
             scenario.random_oracle(rng=args.seed + 2),
             args.seed + 3),
        ]:
            state = client.run_online_phase(
                record.name, scenario, oracle, n_online, rng=rng,
            )
            print(f"{label}: accuracy {state['accuracy']:.4f} "
                  f"(threshold {state['threshold']:.4f}) "
                  f"-> {state['verdict']}")

        snapshot = client.metrics()
        batches = snapshot["batches"]
        print(f"\n== Server metrics ==")
        print(f"requests : {snapshot['requests']['count']} "
              f"({snapshot['requests']['rows']} rows)")
        print(f"batches  : {batches['count']} "
              f"(mean size {batches['mean_size']:.1f}, "
              f"histogram {batches['size_histogram']})")


if __name__ == "__main__":
    main()
