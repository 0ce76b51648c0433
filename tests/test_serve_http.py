"""Tests for the HTTP serving endpoint, client, and the end-to-end game."""

import json
from http.client import HTTPConnection

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import GimliHashScenario, MLDistinguisher
from repro.core.statistics import required_online_samples
from repro.errors import ServeError
from repro.nn import Dense, ReLU, Sequential, Softmax
from repro.nn import quantize_model
from repro.nn.architectures import build_mlp
from repro.serve import (
    ModelRegistry,
    ServeClient,
    ServeClientError,
    ServeServer,
)


def make_model(rng, features=6, classes=2):
    model = Sequential([Dense(8), ReLU(), Dense(classes), Softmax()])
    return model.build((features,), rng).compile(dtype="float32")


@pytest.fixture
def served(rng, tmp_path):
    """A running server over a registry with one registered model."""
    registry = ModelRegistry(str(tmp_path))
    model = make_model(rng)
    record = registry.register(
        model,
        "unit",
        report={
            "validation_accuracy": 0.8,
            "training_accuracy": 0.8,
            "num_samples": 100,
            "num_classes": 2,
        },
    )
    with ServeServer(registry, max_wait_ms=1.0) as server:
        yield ServeClient(server.url), model, record


class TestEndpoints:
    def test_healthz(self, served):
        client, _, _ = served
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["models"] == 1

    def test_models_listing(self, served):
        client, _, record = served
        models = client.models()
        assert len(models) == 1
        assert models[0]["model_id"] == record.model_id
        assert models[0]["name"] == "unit"
        assert models[0]["threshold"] == pytest.approx(0.65)

    def test_classify_matches_local_predictions(self, served, rng_factory):
        client, model, record = served
        x = rng_factory(9).random((12, 6)).astype(np.float32)
        response = client.classify(record.model_id, x)
        local = model.predict_proba(x, batch_size=12)
        assert response["labels"] == local.argmax(axis=1).tolist()
        assert np.allclose(
            np.asarray(response["probabilities"]), local, atol=1e-6
        )

    def test_classify_by_name(self, served, rng_factory):
        client, _, _ = served
        x = rng_factory(9).random((3, 6)).astype(np.float32)
        assert len(client.classify("unit", x)["labels"]) == 3

    def test_unknown_model_404(self, served):
        client, _, _ = served
        with pytest.raises(ServeClientError) as excinfo:
            client.classify("ghost", [[0.0] * 6])
        assert excinfo.value.status == 404

    def test_wrong_feature_width_400(self, served):
        client, _, _ = served
        with pytest.raises(ServeClientError) as excinfo:
            client.classify("unit", [[0.0] * 3])
        assert excinfo.value.status == 400

    def test_malformed_body_400(self, served):
        client, _, _ = served
        with pytest.raises(ServeClientError) as excinfo:
            client._request("POST", "/v1/classify", {"model": "unit"})
        assert excinfo.value.status == 400

    def test_unknown_path_404(self, served):
        client, _, _ = served
        with pytest.raises(ServeClientError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404

    def test_metrics_snapshot_shape(self, served, rng_factory):
        client, _, _ = served
        client.classify("unit", rng_factory(1).random((2, 6)).tolist())
        snapshot = client.metrics()
        assert snapshot["requests"]["count"] >= 1
        assert snapshot["batches"]["count"] >= 1


class TestPrometheusEndpoint:
    @staticmethod
    def _fetch_text(client, path):
        import urllib.request

        with urllib.request.urlopen(
            f"{client.base_url}{path}", timeout=10.0
        ) as response:
            return response.headers.get("Content-Type"), response.read().decode()

    def test_prometheus_exposition(self, served, rng_factory):
        client, _, _ = served
        client.classify("unit", rng_factory(1).random((2, 6)).tolist())
        content_type, text = self._fetch_text(
            client, "/v1/metrics?format=prometheus"
        )
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        lines = text.splitlines()
        assert "# TYPE repro_serve_requests_total counter" in lines
        assert any(
            line.startswith("repro_serve_batch_latency_seconds_bucket")
            for line in lines
        )
        # A sample value line, parseable as "name value".
        (value_line,) = [
            line for line in lines if line.startswith("repro_serve_requests_total ")
        ]
        assert float(value_line.split()[-1]) >= 1.0

    def test_per_route_http_series_recorded(self, served, rng_factory):
        client, _, _ = served
        client.classify("unit", rng_factory(1).random((2, 6)).tolist())
        client.healthz()
        _, text = self._fetch_text(client, "/v1/metrics?format=prometheus")
        assert (
            'repro_http_requests_total{method="POST",'
            'route="/v1/classify",status="200"} 1'
        ) in text.splitlines()
        assert any(
            'route="/healthz"' in line and "repro_http_requests_total" in line
            for line in text.splitlines()
        )
        assert any(
            line.startswith("repro_http_request_duration_seconds_bucket")
            and 'route="/v1/classify"' in line
            for line in text.splitlines()
        )

    def test_unknown_route_collapses_to_other_label(self, served):
        client, _, _ = served
        with pytest.raises(ServeClientError):
            client._request("GET", "/v1/nope")
        _, text = self._fetch_text(client, "/v1/metrics?format=prometheus")
        assert (
            'repro_http_requests_total{method="GET",route="other",status="404"} 1'
        ) in text.splitlines()

    def test_unknown_format_400(self, served):
        client, _, _ = served
        with pytest.raises(ServeClientError) as excinfo:
            client._request("GET", "/v1/metrics?format=xml")
        assert excinfo.value.status == 400

    def test_json_format_matches_snapshot_route(self, served):
        client, _, _ = served
        explicit = client._request("GET", "/v1/metrics?format=json")
        assert set(explicit) == {"uptime_s", "requests", "batches", "queue"}


class TestDistinguishEndpoint:
    def test_session_lifecycle(self, served, rng_factory):
        client, model, _ = served
        state = client.open_session("unit", target_samples=8)
        assert state["samples"] == 0 and state["verdict"] is None
        x = rng_factory(4).random((8, 6)).astype(np.float32)
        labels = model.predict_classes(x)  # feed its own predictions:
        state = client.distinguish_batch("unit", x, labels, state["session"])
        assert state["samples"] == 8
        assert state["done"] is True
        assert state["accuracy"] == pytest.approx(1.0)
        assert state["verdict"] == "CIPHER"  # accuracy 1.0 > 0.65

    def test_unknown_session_404(self, served):
        client, _, _ = served
        with pytest.raises(ServeClientError) as excinfo:
            client.distinguish_batch("unit", [[0.0] * 6], [0], session="s999")
        assert excinfo.value.status == 404

    def test_update_without_labels_400(self, served):
        client, _, _ = served
        state = client.open_session("unit", target_samples=8)
        with pytest.raises(ServeClientError) as excinfo:
            client._request(
                "POST",
                "/v1/distinguish",
                {
                    "model": "unit",
                    "session": state["session"],
                    "features": [[0.0] * 6],
                },
            )
        assert excinfo.value.status == 400

    def test_untrained_model_needs_explicit_accuracy(self, rng, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        registry.register(make_model(rng), "bare")
        with ServeServer(registry, max_wait_ms=1.0) as server:
            client = ServeClient(server.url)
            with pytest.raises(ServeClientError) as excinfo:
                client.open_session("bare")
            assert excinfo.value.status == 400
            state = client.open_session(
                "bare", training_accuracy=0.9, target_samples=4
            )
            assert state["threshold"] == pytest.approx((0.9 + 0.5) / 2)


class TestShutdown:
    def test_graceful_shutdown_then_unreachable(self, rng, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        registry.register(make_model(rng), "unit")
        server = ServeServer(registry, max_wait_ms=1.0).start()
        client = ServeClient(server.url, timeout_s=5.0)
        assert client.healthz()["status"] == "ok"
        server.stop()
        with pytest.raises(ServeError):
            client.healthz()
        server.stop()  # idempotent


class TestEndToEndGame:
    """ISSUE acceptance: train → register → serve → distinguish over HTTP."""

    def test_online_phase_over_http_reaches_both_verdicts(self, tmp_path):
        scenario = GimliHashScenario(rounds=5)
        distinguisher = MLDistinguisher(
            scenario, model=build_mlp([64, 128], "relu"), epochs=3, rng=31
        )
        report = distinguisher.train(num_samples=6000)
        assert report.validation_accuracy > 0.8

        registry = ModelRegistry(str(tmp_path))
        record = registry.register(
            distinguisher.model,
            "gimli-hash-r5",
            scenario=scenario,
            report=report,
        )
        n_online = max(
            200,
            required_online_samples(
                report.validation_accuracy, 2, error_probability=0.01
            ),
        )
        with ServeServer(registry) as server:
            client = ServeClient(server.url)
            assert client.models()[0]["model_id"] == record.model_id

            cipher_state = client.run_online_phase(
                "gimli-hash-r5",
                scenario,
                scenario.cipher_oracle(),
                n_online,
                rng=18,
            )
            random_state = client.run_online_phase(
                "gimli-hash-r5",
                scenario,
                scenario.random_oracle(rng=19),
                n_online,
                rng=20,
            )
        assert cipher_state["verdict"] == "CIPHER"
        assert random_state["verdict"] == "RANDOM"
        assert cipher_state["accuracy"] > cipher_state["threshold"]
        assert random_state["accuracy"] <= random_state["threshold"]
        # The server-side accuracy estimate must agree with a local
        # online phase through the very same model.
        local = distinguisher.test(
            scenario.cipher_oracle(), n_online, rng=18
        )
        assert cipher_state["accuracy"] == pytest.approx(
            local.accuracy, abs=0.05
        )

    def test_quantized_variant_reaches_same_verdicts_as_parent(self, tmp_path):
        """ISSUE acceptance: serving the int8 variant of the Gimli-Hash
        r5 distinguisher over ``/v1/classify`` reaches the same verdicts
        as its float parent on both oracles."""
        scenario = GimliHashScenario(rounds=5)
        distinguisher = MLDistinguisher(
            scenario, model=build_mlp([64, 128], "relu"), epochs=3, rng=31
        )
        report = distinguisher.train(num_samples=6000)

        registry = ModelRegistry(str(tmp_path))
        registry.register(
            distinguisher.model, "gimli-hash-r5", scenario=scenario, report=report
        )
        holdout, labels = scenario.generate_dataset(500, rng=41)
        quantized = quantize_model(distinguisher.model, min_weight_elems=0)
        record = registry.register_quantized(
            quantized, "gimli-hash-r5", holdout=(holdout, labels)
        )
        assert record.name == "gimli-hash-r5-int8"
        # Weight rounding must not move the held-out accuracy by more
        # than half a percentage point.
        assert abs(record.manifest["quantization"]["accuracy_delta_pp"]) <= 0.5

        n_online = max(
            200,
            required_online_samples(
                report.validation_accuracy, 2, error_probability=0.01
            ),
        )
        with ServeServer(registry) as server:
            client = ServeClient(server.url)
            verdicts = {}
            for name in ("gimli-hash-r5", "gimli-hash-r5-int8"):
                cipher_state = client.run_online_phase(
                    name, scenario, scenario.cipher_oracle(), n_online, rng=18
                )
                random_state = client.run_online_phase(
                    name,
                    scenario,
                    scenario.random_oracle(rng=19),
                    n_online,
                    rng=20,
                )
                verdicts[name] = (
                    cipher_state["verdict"], random_state["verdict"]
                )
        assert verdicts["gimli-hash-r5"] == ("CIPHER", "RANDOM")
        assert verdicts["gimli-hash-r5-int8"] == verdicts["gimli-hash-r5"]


# -- request validation and fuzzing ------------------------------------------

#: Arbitrary JSON values: scalars (non-finite floats included, as
#: ``json.loads`` accepts ``NaN``/``Infinity``), lists and objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=10,
)
FEATURE_ROWS = st.lists(
    st.lists(st.floats() | st.integers(0, 1), min_size=6, max_size=6),
    min_size=1, max_size=3,
)
SESSION = "s00000001"  # the first session a fresh server mints

#: Malformed bodies that must answer 400.  Unvalidated, they produce a
#: 500, a 200 carrying ``NaN`` tokens, a 200 computed from strings or
#: booleans read as numbers, or a silently wrong session update.
BAD_CLASSIFY = {
    "timeout_not_a_number": {"model": "unit", "features": [[0] * 6],
                             "timeout_s": "x"},
    "timeout_overflows": {"model": "unit", "features": [[0] * 6],
                          "timeout_s": 10 ** 400},
    "nan_features": {"model": "unit", "features": [[float("nan")] * 6]},
    "inf_features": {"model": "unit", "features": [[float("inf")] + [0] * 5]},
    "huge_int_features": {"model": "unit", "features": [[10 ** 400] * 6]},
    "string_features": {"model": "unit", "features": [["1", "0"] * 3]},
    "boolean_features": {"model": "unit", "features": [[True, False] * 3]},
}
BAD_LABELS = {
    "strings": ["a", "b"],
    "out_of_range": [7, 9],
    "nested": [[0], [1]],
    "ragged": [[0], [1, 0]],
    "fractional": [0.5, 1],
    "negative": [-1, 0],
    "nan": [float("nan"), 0],
    "booleans": [True, False],
    "too_few": [0],
}


def _post_raw(url, path, raw: bytes):
    """``(status, body)`` of one POST on a fresh connection.

    A dropped connection raises (``RemoteDisconnected``) instead of
    returning, so the property below also pins "never drops".
    """
    host, port = url.removeprefix("http://").split(":")
    connection = HTTPConnection(host, int(port), timeout=10)
    try:
        connection.request(
            "POST", path, body=raw, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _strict_json(payload: bytes):
    def reject(token):
        raise AssertionError(f"response carries non-JSON token {token}")

    return json.loads(payload, parse_constant=reject)


def _check_answer(status, payload, body=None):
    """A 4xx with a JSON error, or a success in strict JSON — never a 500.

    504 is the documented answer to a positive ``timeout_s`` the queue
    could not meet, so it is allowed only when the body set one.
    """
    document = _strict_json(payload)
    if status >= 400:
        assert status < 500 or (
            status == 504 and isinstance(body, dict) and "timeout_s" in body
        ), (status, document)
        assert isinstance(document.get("error"), str)
    else:
        assert status == 200, status


@pytest.fixture(scope="module")
def fuzz_server(tmp_path_factory):
    """One server for every example, with one open session."""
    registry = ModelRegistry(str(tmp_path_factory.mktemp("fuzz")))
    registry.register(
        make_model(np.random.default_rng(0)),
        "unit",
        report={"validation_accuracy": 0.8, "training_accuracy": 0.8,
                "num_samples": 100, "num_classes": 2},
    )
    with ServeServer(registry, max_wait_ms=0.0) as server:
        state = ServeClient(server.url).open_session("unit", target_samples=10 ** 9)
        assert state["session"] == SESSION
        yield server.url


class TestRequestValidation:
    @pytest.mark.parametrize("case", sorted(BAD_CLASSIFY))
    def test_bad_classify_body_400(self, fuzz_server, case):
        raw = json.dumps(BAD_CLASSIFY[case]).encode()
        status, payload = _post_raw(fuzz_server, "/v1/classify", raw)
        assert status == 400, payload
        assert "error" in _strict_json(payload)

    @pytest.mark.parametrize("case", sorted(BAD_LABELS))
    def test_bad_labels_400_and_session_untouched(self, fuzz_server, case):
        client = ServeClient(fuzz_server)
        before = client._request("POST", "/v1/distinguish", {"session": SESSION})
        body = {"model": "unit", "session": SESSION,
                "features": [[0] * 6, [1] * 6], "labels": BAD_LABELS[case]}
        status, payload = _post_raw(
            fuzz_server, "/v1/distinguish", json.dumps(body).encode()
        )
        assert status == 400, payload
        after = client._request("POST", "/v1/distinguish", {"session": SESSION})
        assert after["samples"] == before["samples"]

    def test_valid_float_labels_accepted(self, fuzz_server):
        body = {"model": "unit", "session": SESSION,
                "features": [[0] * 6, [1] * 6], "labels": [0.0, 1]}
        status, payload = _post_raw(
            fuzz_server, "/v1/distinguish", json.dumps(body).encode()
        )
        assert status == 200, payload


_FIELDS = {
    "model": JSON_VALUES | st.just("unit"),
    "features": JSON_VALUES | FEATURE_ROWS,
    "labels": JSON_VALUES | st.lists(st.integers(-1, 2), max_size=3),
    "session": JSON_VALUES | st.just(SESSION),
    "timeout_s": JSON_VALUES,
}
FUZZ_BODIES = st.fixed_dictionaries({}, optional=_FIELDS)


class TestFuzzPostRoutes:
    @settings(max_examples=200, deadline=None)
    @given(body=FUZZ_BODIES, path=st.sampled_from(["/v1/classify", "/v1/distinguish"]))
    @example(body=BAD_CLASSIFY["timeout_not_a_number"], path="/v1/classify")
    @example(body=BAD_CLASSIFY["nan_features"], path="/v1/classify")
    @example(body={"model": "unit", "session": SESSION,
                   "features": [[0] * 6, [1] * 6], "labels": ["a", "b"]},
             path="/v1/distinguish")
    @example(body={"model": "unit", "session": SESSION,
                   "features": [[0] * 6, [1] * 6], "labels": [7, 9]},
             path="/v1/distinguish")
    @example(body={"model": "unit", "session": SESSION,
                   "features": [[0] * 6, [1] * 6], "labels": [[0], [1]]},
             path="/v1/distinguish")
    def test_object_bodies_never_500(self, fuzz_server, body, path):
        status, payload = _post_raw(fuzz_server, path, json.dumps(body).encode())
        _check_answer(status, payload, body)

    @settings(max_examples=60, deadline=None)
    @given(
        raw=st.binary(min_size=1, max_size=64)
        | JSON_VALUES.filter(lambda v: not isinstance(v, dict)).map(
            lambda v: json.dumps(v).encode()
        ),
        path=st.sampled_from(["/v1/classify", "/v1/distinguish"]),
    )
    @example(raw=b"[" * 100_000, path="/v1/classify")
    @example(raw=b'"\xff"', path="/v1/distinguish")
    def test_non_object_bodies_400(self, fuzz_server, raw, path):
        status, payload = _post_raw(fuzz_server, path, raw)
        if raw.strip().startswith(b"{"):  # random bytes may still parse
            _check_answer(status, payload)
        else:
            assert status == 400, payload
            assert isinstance(_strict_json(payload).get("error"), str)


class TestCli:
    """``python -m repro.serve`` is the deployment surface of the knobs."""

    def _create_server_kwargs(self, monkeypatch, argv):
        from repro.serve import __main__ as cli

        class Captured(Exception):
            pass

        captured = {}

        def create_server(registry_root, **kwargs):
            captured.update(kwargs, registry_root=registry_root)
            raise Captured  # stop before main() starts serving

        monkeypatch.setattr(cli, "create_server", create_server)
        with pytest.raises(Captured):
            cli.main(argv)
        return captured

    def test_batching_flags_reach_the_engine(self, rng, tmp_path,
                                             monkeypatch):
        from repro.serve.http import ServeService

        ModelRegistry(str(tmp_path)).register(make_model(rng), "unit")
        kwargs = self._create_server_kwargs(monkeypatch, [
            "--registry", str(tmp_path), "--port", "0",
            "--max-batch", "8", "--max-wait-ms", "0.5",
        ])
        service = ServeService(
            ModelRegistry(kwargs["registry_root"]),
            max_batch=kwargs["max_batch"],
            max_wait_ms=kwargs["max_wait_ms"],
        )
        try:
            engine, _ = service.engine_for("unit")
            assert engine.max_batch == 8
            assert engine.max_wait_s == pytest.approx(0.5e-3)
        finally:
            service.stop()

    def test_batching_defaults(self, tmp_path, monkeypatch):
        kwargs = self._create_server_kwargs(
            monkeypatch, ["--registry", str(tmp_path)]
        )
        assert kwargs["max_batch"] == 256
        assert kwargs["max_wait_ms"] == 2.0
