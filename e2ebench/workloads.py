"""The four workloads of the end-to-end benchmark.

Constructing a workload is its set-up; ``measure(seconds)`` runs its
operations for that long and checks every output; ``close()`` releases
what set-up acquired.  Inputs come from the seed alone.

Run as a script, this module performs one workload's set-up in a fresh
interpreter and tears it down again; ``run.py`` times set-up that way so
that imports and everything else a user waits for before the first
operation are counted::

    python3 e2ebench/workloads.py table2-paper 0
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import math
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.client import HTTPConnection
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402

#: The paper's Table 2 budget: 2^17.6 offline and 2^14.3 online samples.
PAPER_OFFLINE = int(round(2 ** 17.6))
PAPER_ONLINE = int(round(2 ** 14.3))


@dataclass
class Checks:
    """Operations attempted and the descriptions of those that failed."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failures += other.failures


@dataclass
class Measurement:
    latencies_s: List[float]  # one per operation
    rows: int  # rows (samples) the operations processed
    start: float  # perf_counter at the first operation
    wall_s: float  # first operation start to last operation end
    busy_s: float  # loop time summed over client threads
    checks: Checks
    #: per-layer counters read from the program rather than the trace
    counters: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Set-up in ``__init__``; sequential operations through :meth:`op`."""

    def __init__(self, seed: int, smoke: bool, recorder=None):
        del smoke  # read by the subclasses that size their inputs
        self.seed = int(seed)
        self.recorder = recorder
        self.server_spans: Optional[List[layers.Span]] = None

    def op(self, index: int, checks: Checks) -> int:
        """Run operation ``index``; returns the rows it processed."""
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        checks = Checks()
        latencies = []
        rows = 0
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < seconds:
            began = time.perf_counter()
            try:
                rows += self.op(index, checks)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                traceback.print_exc(file=sys.stderr)
                checks.expect(False, f"op {index}: {type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - began)
            index += 1
        wall = time.perf_counter() - start
        return Measurement(latencies, rows, start, wall, wall, checks)

    def close(self) -> None:
        pass


class Table2Paper(Workload):
    """Algorithm 2 as one Table 2 cell per operation, at the paper's budget.

    Each operation trains MLP II (batch 256, float32, significance 0.05)
    on 2^17.6 samples for 2 epochs, then runs the online phase on 2^14.3
    samples against the cipher oracle and a memoised random oracle.
    Operations cycle through Gimli-Hash and Gimli-Cipher at 6 and 7
    rounds.
    """

    CELLS = (("hash", 6), ("cipher", 6), ("cipher", 7), ("hash", 7))

    def __init__(self, seed, smoke, recorder=None):
        super().__init__(seed, smoke, recorder)
        from repro.core.scenario import GimliCipherScenario, GimliHashScenario

        self.offline, self.online, self.epochs = (
            (2 ** 14, 2 ** 11, 1) if smoke else (PAPER_OFFLINE, PAPER_ONLINE, 2)
        )
        self.scenarios = [
            GimliHashScenario(rounds=r) if target == "hash"
            else GimliCipherScenario(total_rounds=r)
            for target, r in self.CELLS
        ]

    def op(self, index, checks):
        import numpy as np

        from repro.core.distinguisher import MLDistinguisher
        from repro.errors import DistinguisherAborted
        from repro.nn.architectures import mlp_ii

        cell = index % len(self.CELLS)
        target, rounds = self.CELLS[cell]
        name = f"{target} r{rounds}"
        scenario = self.scenarios[cell]
        distinguisher = MLDistinguisher(
            scenario, model=mlp_ii(), epochs=self.epochs, batch_size=256,
            rng=np.random.SeedSequence([self.seed, cell]), workers=1,
            dtype="float32",
        )
        try:
            report = distinguisher.train(self.offline, significance=0.05)
        except DistinguisherAborted as exc:
            checks.expect(False, f"{name}: offline phase aborted: {exc}")
            return 0
        # The paper's 6-round cells reach 0.95-0.97 validation accuracy.
        checks.expect(
            rounds != 6 or report.validation_accuracy >= 0.95,
            f"{name}: validation accuracy {report.validation_accuracy:.4f} "
            "< 0.95",
        )
        cipher = distinguisher.test(scenario.cipher_oracle(), self.online)
        random = distinguisher.test(
            scenario.random_oracle(
                rng=np.random.SeedSequence([self.seed, cell, 1])),
            self.online,
        )
        checks.expect(cipher.verdict == "CIPHER",
                      f"{name}: cipher oracle judged {cipher.verdict}")
        checks.expect(random.verdict == "RANDOM",
                      f"{name}: random oracle judged {random.verdict}")
        return report.num_samples + cipher.num_samples + random.num_samples


class Table3Trio(Workload):
    """``run_table3`` over MLP III, LSTM I and CNN I on 8-round Gimli-Cipher.

    One operation is the whole trio: a shared dataset of 2^12 samples,
    each network trained for 2 epochs and evaluated.
    """

    NETWORKS = ("MLP III", "LSTM I", "CNN I")

    def __init__(self, seed, smoke, recorder=None):
        super().__init__(seed, smoke, recorder)
        from repro.core.scenario import GimliCipherScenario
        from repro.nn.architectures import get_table3_network

        self.samples, self.epochs = (2 ** 9, 1) if smoke else (2 ** 12, 2)
        bits = GimliCipherScenario().feature_bits
        self.parameters = {
            name: get_table3_network(name).build((bits,), rng=0).count_params()
            for name in self.NETWORKS
        }

    def op(self, index, checks):
        from repro.experiments import table3

        result = table3.run_table3(
            networks=list(self.NETWORKS), total_rounds=8,
            num_samples=self.samples, epochs=self.epochs, workers=1,
            dtype="float32", rng=self.seed,
        )
        rows = result["rows"]
        checks.expect(len(rows) == len(self.NETWORKS),
                      f"table3: {len(rows)} rows for {len(self.NETWORKS)} networks")
        for name, row in zip(self.NETWORKS, rows):
            accuracy = row["measured"]
            checks.expect(
                row["network"] == name
                and row["parameters"] == self.parameters[name]
                and math.isfinite(accuracy) and 0.0 <= accuracy <= 1.0,
                f"table3 {name}: row {row}",
            )
        return result["num_samples"] * len(rows)


class SearchSweep(Workload):
    """``run_sweep`` of five scenario specs through a job queue and registry.

    Gimli-Hash and Gimli-Cipher at 5 and 6 rounds and GIFT-64 at 3 rounds:
    each spec searches its differences (population 48, 8 generations,
    8192 samples per candidate) and trains on 8000 samples for 2 epochs.
    Every operation repeats the same seeded sweep, so each must reproduce
    the first one exactly.
    """

    SPECS = (
        ("gimli-hash-r5", "gimli-hash", {"rounds": 5}),
        ("gimli-hash-r6", "gimli-hash", {"rounds": 6}),
        ("gimli-cipher-r5", "gimli-cipher", {"total_rounds": 5}),
        ("gimli-cipher-r6", "gimli-cipher", {"total_rounds": 6}),
        # GIFT-64 at 4 rounds aborts training on about 1 seed in 20: the
        # bias-ranked differences need not separate from each other.
        ("gift64-r3", "gift64", {"rounds": 3}),
    )

    def __init__(self, seed, smoke, recorder=None):
        super().__init__(seed, smoke, recorder)
        from repro.search.config import ScenarioSpec

        population, generations, samples, train, epochs = (
            (8, 2, 1024, 2000, 1) if smoke else (48, 8, 8192, 8000, 2)
        )
        self.raws = [
            {
                "name": name,
                "scenario": scenario,
                "params": params,
                "search": {"population_size": population,
                           "generations": generations,
                           "n_samples": samples, "seed": self.seed},
                "train": {"num_samples": train, "epochs": epochs,
                          "seed": self.seed + 1},
            }
            for name, scenario, params in self.SPECS
        ]
        for raw in self.raws:
            ScenarioSpec.from_dict(raw)
        self.reference = None

    def op(self, index, checks):
        from repro.search import pipeline

        harness.OUT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=harness.OUT) as tmp:
            summaries = pipeline.run_sweep(
                self.raws, registry_dir=str(Path(tmp) / "registry"),
                queue_dir=str(Path(tmp) / "queue"),
            )
        if self.reference is None:
            self.reference = summaries
        rows = 0
        for raw, summary, first in zip(self.raws, summaries, self.reference):
            checks.expect(
                summary["name"] == raw["name"] and summary == first,
                f"sweep cell {raw['name']} differs from the first sweep of "
                "this seed",
            )
            rows += (summary["search"]["evaluations"]
                     * raw["search"]["n_samples"]
                     + summary["training"]["num_samples"])
        checks.expect(len(summaries) == len(self.raws),
                      f"sweep returned {len(summaries)} of {len(self.raws)} cells")
        return rows


class ServeOnline(Workload):
    """The online phase as a service: 2 closed-loop clients over HTTP.

    Set-up trains MLP II on Gimli-Hash at 6 rounds (2^14 samples, 2
    epochs), registers it, pre-generates cipher-oracle and random-oracle
    query pools and starts ``python -m repro.serve`` in its own process.
    Each client iteration is one online phase (open a session, then
    4 x 512-row ``/v1/distinguish`` calls from one pool, alternating
    pools) followed by 4 x 64-row ``/v1/classify`` calls.
    """

    CLIENTS = 2
    PHASE_CALLS, PHASE_ROWS = 4, 512
    CLASSIFY_CALLS, CLASSIFY_ROWS = 4, 64
    POOL_PHASES = 4  # distinct query sets per pool
    #: Engine counters read from ``/v1/metrics`` over the measured window.
    COUNTERS = ("serve.engine.mean_batch_rows", "serve.engine.mean_queue_depth",
                "serve.engine.rejected", "serve.engine.timeouts")

    def __init__(self, seed, smoke, recorder=None):
        super().__init__(seed, smoke, recorder)
        import numpy as np

        from repro.core.distinguisher import MLDistinguisher
        from repro.core.scenario import GimliHashScenario
        from repro.nn.architectures import mlp_ii
        from repro.serve import ModelRegistry

        harness.OUT.mkdir(parents=True, exist_ok=True)
        self._tmp = Path(tempfile.mkdtemp(dir=harness.OUT))
        self._server = None
        try:
            scenario = GimliHashScenario(rounds=6)
            distinguisher = MLDistinguisher(
                scenario, model=mlp_ii(), epochs=1 if smoke else 2,
                batch_size=256, rng=np.random.SeedSequence([self.seed, 0]),
                workers=1, dtype="float32",
            )
            report = distinguisher.train(
                2 ** 13 if smoke else 2 ** 14, significance=0.05)
            registry = ModelRegistry(str(self._tmp / "registry"))
            self.model_id = registry.register(
                distinguisher.model, "gimli-hash-r6", scenario=scenario,
                report=report,
            ).model_id
            phase_rows = self.PHASE_CALLS * self.PHASE_ROWS
            per_class = phase_rows * self.POOL_PHASES // scenario.num_classes
            oracles = (
                ("CIPHER", scenario.cipher_oracle()),
                ("RANDOM", scenario.random_oracle(
                    rng=np.random.SeedSequence([self.seed, 1]))),
            )
            # Request bodies are encoded once here so the clients spend
            # their time waiting on the server, not building JSON.
            self.pools = []
            for stream, (verdict, oracle) in enumerate(oracles, start=2):
                x, y = scenario.generate_dataset(
                    per_class, rng=np.random.SeedSequence([self.seed, stream]),
                    oracle=oracle)
                bodies = [
                    self._tail(x[i:i + self.PHASE_ROWS], y[i:i + self.PHASE_ROWS])
                    for i in range(0, x.shape[0], self.PHASE_ROWS)
                ]
                self.pools.append((verdict, bodies))
            x, _ = scenario.generate_dataset(
                self.CLASSIFY_CALLS * self.CLASSIFY_ROWS,
                rng=np.random.SeedSequence([self.seed, 4]))
            probabilities = distinguisher.model.predict_proba(x)
            # Only labels the model decides by a clear margin are checked:
            # coalesced batches may round the last float32 digit differently.
            self.classify = []
            for i in range(0, x.shape[0], self.CLASSIFY_ROWS):
                rows = slice(i, i + self.CLASSIFY_ROWS)
                top = np.sort(probabilities[rows], axis=1)
                self.classify.append((
                    json.dumps({"model": self.model_id,
                                "features": x[rows].astype(int).tolist()}
                               ).encode(),
                    probabilities[rows].argmax(axis=1),
                    top[:, -1] - top[:, -2] > 1e-3,
                ))
            self._start_server()
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _tail(features, labels) -> bytes:
        return (
            b', "features": ' + json.dumps(features.astype(int).tolist()).encode()
            + b', "labels": ' + json.dumps(labels.tolist()).encode() + b"}"
        )

    def _start_server(self) -> None:
        argv = [sys.executable, str(harness.BENCH_DIR / "server.py"),
                "--registry", str(self._tmp / "registry")]
        if self.recorder is not None:
            argv += ["--trace-out", str(self._tmp / "server-spans.json")]
        self._server = subprocess.Popen(
            argv, cwd=harness.ROOT, env=harness.child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self._server.stdout], [], [], 60)
        line = self._server.stdout.readline() if ready else ""
        if " at http://" not in line:
            raise RuntimeError(f"serve process did not start: {line!r}")
        host, port = line.rsplit("http://", 1)[1].strip().split(":")
        self.address = (host, int(port))
        # One request loads the model into its engine before timing starts.
        connection = HTTPConnection(*self.address, timeout=60)
        try:
            status, _ = self._call(connection, "/v1/classify",
                                   self.classify[0][0])
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"warm-up classify returned HTTP {status}")

    @staticmethod
    def _call(connection, path, body=None):
        connection.request(
            "POST" if body is not None else "GET", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()

    def _client(self, index: int, start: float, seconds: float) -> dict:
        clock = time.perf_counter
        recorder = self.recorder
        checks = Checks()
        phases, rows = [], 0
        open_body = json.dumps({
            "model": self.model_id,
            "target_samples": self.PHASE_CALLS * self.PHASE_ROWS,
        }).encode()
        connection = HTTPConnection(*self.address, timeout=60)

        def call(path, body, part):
            began = clock()
            status, payload = self._call(connection, path, body)
            if recorder is not None:
                recorder.add("serve.transport", part, began, clock())
            checks.expect(200 <= status < 300, f"{path}: HTTP {status}")
            return status, payload

        try:
            iteration = 0
            while iteration == 0 or clock() - start < seconds:
                verdict, bodies = self.pools[(index + iteration) % 2]
                chunk = iteration % self.POOL_PHASES
                began = clock()
                status, payload = call("/v1/distinguish", open_body, "open")
                if status == 200:
                    prefix = (
                        b'{"model": "' + self.model_id.encode()
                        + b'", "session": "'
                        + json.loads(payload)["session"].encode() + b'"'
                    )
                    for k in range(self.PHASE_CALLS):
                        body = prefix + bodies[chunk * self.PHASE_CALLS + k]
                        status, payload = call("/v1/distinguish", body,
                                               "distinguish")
                    state = json.loads(payload) if status == 200 else {}
                    checks.expect(
                        state.get("verdict") == verdict,
                        f"{verdict.lower()} pool judged {state.get('verdict')}",
                    )
                phases.append(clock() - began)
                rows += self.PHASE_CALLS * self.PHASE_ROWS
                for k in range(self.CLASSIFY_CALLS):
                    body, expected, decided = self.classify[
                        (iteration * self.CLASSIFY_CALLS + k) % len(self.classify)]
                    status, payload = call("/v1/classify", body, "classify")
                    if status == 200:
                        labels = json.loads(payload)["labels"]
                        checks.expect(
                            len(labels) == len(expected) and all(
                                label == want or not sure for label, want, sure
                                in zip(labels, expected, decided)),
                            f"classify returned labels {labels}, expected "
                            f"{expected.tolist()}",
                        )
                    rows += self.CLASSIFY_ROWS
                iteration += 1
        finally:
            connection.close()
        end = clock()
        return {"phases": phases, "rows": rows, "checks": checks,
                "busy_s": end - start, "end": end}

    def _engine_counters(self) -> dict:
        connection = HTTPConnection(*self.address, timeout=60)
        try:
            status, payload = self._call(connection, "/v1/metrics")
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"/v1/metrics returned HTTP {status}")
        snapshot = json.loads(payload)
        batches = snapshot["batches"]["count"]
        return {
            "batches": batches,
            "batch_rows": snapshot["batches"]["mean_size"] * batches,
            "depth_sum": snapshot["queue"]["mean_depth"] * batches,
            "rejected": snapshot["requests"]["rejected"],
            "timeouts": snapshot["requests"]["timeouts"],
        }

    def measure(self, seconds):
        before = self._engine_counters()
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=self.CLIENTS) as pool:
            futures = [pool.submit(self._client, index, start, seconds)
                       for index in range(self.CLIENTS)]
            results = [future.result() for future in futures]
        after = self._engine_counters()
        delta = {key: after[key] - before[key] for key in before}
        batches = max(delta["batches"], 1)
        checks = Checks()
        for result in results:
            checks.merge(result["checks"])
        return Measurement(
            latencies_s=[s for result in results for s in result["phases"]],
            rows=sum(result["rows"] for result in results),
            start=start,
            wall_s=max(result["end"] for result in results) - start,
            busy_s=sum(result["busy_s"] for result in results),
            checks=checks,
            counters={
                "serve.engine.mean_batch_rows": delta["batch_rows"] / batches,
                "serve.engine.mean_queue_depth": delta["depth_sum"] / batches,
                "serve.engine.rejected": delta["rejected"],
                "serve.engine.timeouts": delta["timeouts"],
            },
        )

    def close(self):
        server, self._server = self._server, None
        if server is not None:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            server.stdout.close()
            spans = self._tmp / "server-spans.json"
            if spans.exists():
                self.server_spans = layers.load_spans(spans)
        shutil.rmtree(self._tmp, ignore_errors=True)


WORKLOADS = {
    "table2-paper": Table2Paper,
    "table3-trio": Table3Trio,
    "serve-online": ServeOnline,
    "search-sweep": SearchSweep,
}


def create(name: str, seed: int, smoke: bool = False, recorder=None) -> Workload:
    return WORKLOADS[name](seed, smoke, recorder)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Set one workload up and tear it down")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    faulthandler.dump_traceback_later(120, exit=True)
    harness.use_source()
    from repro.obs import log as obs_log

    obs_log.configure(stream=sys.stderr)
    create(args.workload, args.seed, args.smoke).close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
