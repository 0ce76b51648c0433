"""Request-body decoding: the compiled feature-matrix path vs the stdlib.

:func:`repro.serve.body.decode_body` must return what ``json.loads``
returns — the same keys in the same order, the same values, and a
``features`` matrix bitwise equal to ``np.asarray(features, float64)``
— and raise the same error for every body it cannot decode.
"""

import codecs
import json
from http.client import HTTPConnection

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nn_helpers import compiled_kernels_expected
from repro.nn import Dense, ReLU, Sequential, Softmax
from repro.serve import ModelRegistry, ServeServer
from repro.serve import body as serve_body
from repro.serve.body import decode_body

needs_kernel = pytest.mark.skipif(
    serve_body._MATRIX_KERNEL.get() is None,
    reason="compiled body kernel unavailable",
)


def _outcome(decode, raw):
    """What ``_read_body`` makes of ``raw``: the value, or its 400 text."""
    try:
        return "ok", decode(raw)
    except (ValueError, RecursionError) as exc:
        return "400", f"{type(exc).__name__}: {exc}"


def _assert_same(raw):
    got_kind, got = _outcome(decode_body, raw)
    want_kind, want = _outcome(json.loads, raw)
    assert got_kind == want_kind, (got, want)
    if got_kind == "400":
        assert got == want
        return
    if not isinstance(want, dict):
        assert json.dumps(got) == json.dumps(want)
        return
    assert list(got) == list(want)
    for key, value in got.items():
        if isinstance(value, np.ndarray):
            assert key == "features"
            reference = np.asarray(want[key], dtype=np.float64)
            assert value.dtype == np.float64
            assert value.shape == reference.shape
            assert np.array_equal(value.view(np.uint64),
                                  reference.view(np.uint64))
        else:
            # json.dumps tells 1 from 1.0 and -0.0 from 0.0, and NaN
            # equals NaN in it.
            assert json.dumps(value) == json.dumps(want[key])


# -- generated bodies --------------------------------------------------------

WS = st.text(alphabet=" \t\n\r", max_size=2)
#: Tokens the kernel takes: integers of up to 15 digits, zero fractions.
EXACT_TOKENS = st.one_of(
    st.integers(0, 1).map(str),
    st.integers(-10 ** 15 + 1, 10 ** 15 - 1).map(str),
    st.sampled_from(["-0", "-0.0", "0.0", "1.0", "-1.00", "999999999999999.000"]),
)
NUMBER_TOKENS = EXACT_TOKENS | st.one_of(
    st.integers(-10 ** 17, 10 ** 17).map(str),
    st.floats().map(json.dumps),
    st.sampled_from([
        "1e3", "1E-2", "-0e0", "2.5", "0.01", "NaN", "Infinity", "-Infinity",
        "01", "-01", "1.", ".5", "-", "+1", "true", "null", '"1"', "[]", "[1]",
        "{}",
    ]),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=10,
)


@st.composite
def matrix_texts(draw):
    """Arrays of rows of number-ish tokens, whitespace anywhere; mostly
    equal-length rows, sometimes ragged, empty or 1-D."""
    tokens = draw(st.sampled_from([EXACT_TOKENS, NUMBER_TOKENS]))
    cols = draw(st.sampled_from([0, 1, 2, 3, 4, 4, 4, 4]))
    row = (st.lists(tokens, max_size=4) if draw(st.integers(0, 3)) == 0
           else st.lists(tokens, min_size=cols, max_size=cols))
    rows = draw(st.lists(row, min_size=draw(st.sampled_from([0, 1, 1, 1])),
                         max_size=4))

    def seq(items):
        return "[" + draw(WS) + ",".join(
            draw(WS) + item + draw(WS) for item in items) + "]"

    if draw(st.integers(0, 3)) == 0 and rows:
        return seq(rows[0])  # 1-D
    return seq([seq(row) for row in rows])


KEYS = st.sampled_from(
    ['"features"', '"feat\\u0075res"', '"model"', '"labels"']
) | st.text(max_size=4).map(json.dumps)
VALUES = (
    matrix_texts()
    | JSON_VALUES.map(json.dumps)
    | st.text(max_size=4).map(lambda text: json.dumps(text, ensure_ascii=False))
)


@st.composite
def body_texts(draw):
    """Objects of arbitrary members, half of them with a feature matrix,
    whitespace anywhere, sometimes followed by garbage."""
    pairs = draw(st.lists(st.tuples(KEYS, VALUES), max_size=4))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(pairs)))
        pairs.insert(at, ('"features"', draw(matrix_texts())))
    members = ",".join(
        draw(WS) + key + draw(WS) + ":" + draw(WS) + value + draw(WS)
        for key, value in pairs
    )
    tail = draw(st.sampled_from(["", "x", ",", "}", "]", "{}"] + [""] * 10))
    return (draw(WS) + "{" + draw(WS) + members + "}" + draw(WS) + tail).encode()


@st.composite
def exact_matrices(draw):
    """Non-empty equal-length rows of tokens the kernel takes."""
    cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(EXACT_TOKENS, min_size=cols, max_size=cols),
                         min_size=1, max_size=6))
    return "[" + draw(WS) + ",".join(
        draw(WS) + "[" + ",".join(draw(WS) + token + draw(WS) for token in row)
        + "]" + draw(WS) for row in rows) + "]"


class TestMatchesStdlib:
    @settings(max_examples=400, deadline=None)
    @given(raw=body_texts() | st.binary(max_size=64))
    @example(raw=b'{"features": [[1, 0], [0, 1]]}')
    def test_decode_body_equals_json_loads(self, raw):
        _assert_same(raw)

    @settings(max_examples=200, deadline=None)
    @given(matrix=exact_matrices())
    def test_exact_matrices_equal_json_loads(self, matrix):
        raw = ('{"model": "m", "features": ' + matrix + ', "labels": [1]}').encode()
        _assert_same(raw)
        if serve_body._MATRIX_KERNEL.get() is not None:
            assert isinstance(decode_body(raw)["features"], np.ndarray)

    @pytest.mark.parametrize("raw", [
        b' \n{ \t"model" : "m" ,\r\n "features" :\n[ [ 1 , 0 ] ,[0,1] ]'
        b' , "labels":[0,1] } \n',
        b'{"feat\\u0075res": [[1, 0]]}',
        b'{"features": [[1, 2]], "model": "m", "features": [[3, 4], [5, 6]]}',
        b'{"features": [[1, 2]], "features": [3, 4]}',
        b'{"features": [[-0, -0.0, 1.0, -1.0, 0.000]]}',
        b'{"features": [[999999999999999, -999999999999999]]}',
        b'{"features": [[1234567890123456, 1]]}',
        b'{"features": [[9007199254740993, 1]]}',
        b'{"features": [[1e3, 1E-2], [1, 2]]}',
        b'{"features": [1, 0, 1]}',
        b'{"features": []}',
        b'{"features": [[]]}',
        b'{"features": [[1], [1, 0]]}',
        b'{"features": [[[1]]]}',
        b'{"features": [[NaN, 1]]}',
        b'{"features": [[1]]} x',
        b'{"features": [[1]]}}',
        b'{"features": [[1]],}',
        b'{"features": [[1]]',
        b'{"features" [[1]]}',
        '{"model": "ü", "features": [[1]]}'.encode(),
        codecs.BOM_UTF8 + b'{"features": [[1]]}',
        '{"features": [[1]]}'.encode("utf-16"),
        '{"features": [[1]]}'.encode("utf-16-le"),
        '{"features": [[1]]}'.encode("utf-16-be"),
        '{"features": [[1]]}'.encode("utf-32"),
        b"[" * 100_000,
        b'{"features": ' + b"[" * 100_000,
        b'{"model": ' + b"[" * 100_000,
        b"{}",
        b" {} ",
        b"[[1]]",
    ])
    def test_explicit_case(self, raw):
        _assert_same(raw)


def test_kernel_loads_where_a_compiler_is_available():
    if compiled_kernels_expected():
        assert serve_body._MATRIX_KERNEL.get() is not None


@needs_kernel
class TestCompiledPath:
    def test_matrix_arrives_as_float64_array(self):
        body = decode_body(b'{"feat\\u0075res": [[1, 0], [0, 1]], "labels": [0]}')
        assert isinstance(body["features"], np.ndarray)
        assert body["features"].dtype == np.float64
        assert body["labels"] == [0]

    def test_signed_zeros(self):
        features = decode_body(b'{"features": [[-0, -0.0, 0, 0.0]]}')["features"]
        assert np.signbit(features).tolist() == [[False, True, False, False]]

    @pytest.mark.parametrize("value", [
        b"[[1e3]]", b"[[1.5]]", b"[[1234567890123456]]", b"[[NaN]]",
        b"[1, 0]", b"[]", b"[[1], [1, 0]]",
    ])
    def test_refused_matrix_goes_to_the_scanner(self, value):
        assert not isinstance(
            decode_body(b'{"features": ' + value + b"}")["features"], np.ndarray
        )

    def test_only_the_top_level_features_key(self):
        body = decode_body(b'{"x": {"features": [[1]]}, "labels": [[1]]}')
        assert body == {"x": {"features": [[1]]}, "labels": [[1]]}

    def test_self_test_is_cheap(self):
        import time

        fn = serve_body._MATRIX_KERNEL.get()
        start = time.perf_counter()
        assert serve_body._matrix_self_test(fn)
        assert time.perf_counter() - start < 0.05


# -- the served online phase with and without the kernel ---------------------

FEATURES, ROWS, CALLS = 128, 64, 4


def _post(address, path, raw):
    connection = HTTPConnection(*address, timeout=30)
    try:
        connection.request("POST", path, body=raw,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _served_phase(address, pools, classify):
    """e2ebench's serve-online client, once: one session over integer
    feature bodies posted as raw bytes, then a few classify calls."""
    status, state = _post(address, "/v1/distinguish", json.dumps(
        {"model": "unit", "target_samples": ROWS * CALLS}).encode())
    assert status == 200, state
    prefix = b'{"model": "unit", "session": "' + state["session"].encode() + b'"'
    states = []
    for features, labels in pools:
        status, state = _post(address, "/v1/distinguish", prefix
                              + b', "features": ' + json.dumps(features).encode()
                              + b', "labels": ' + json.dumps(labels).encode()
                              + b"}")
        assert status == 200, state
        state.pop("session")
        states.append(state)
    outputs = []
    for features in classify:
        status, answer = _post(address, "/v1/classify", json.dumps(
            {"model": "unit", "features": features}).encode())
        assert status == 200, answer
        outputs.append(answer)
    return states, outputs


def test_online_phase_identical_with_kernel_forced_off(tmp_path, monkeypatch):
    rng = np.random.default_rng(2041)
    model = Sequential([Dense(32), ReLU(), Dense(2), Softmax()])
    model.build((FEATURES,), rng).compile(dtype="float32")
    registry = ModelRegistry(str(tmp_path))
    registry.register(model, "unit", report={
        "validation_accuracy": 0.6, "training_accuracy": 0.6,
        "num_samples": 100, "num_classes": 2,
    })
    pools = [(rng.integers(0, 2, (ROWS, FEATURES)).tolist(),
              rng.integers(0, 2, ROWS).tolist()) for _ in range(CALLS)]
    classify = [rng.integers(0, 2, (ROWS, FEATURES)).tolist() for _ in range(2)]
    with ServeServer(registry, max_wait_ms=0.0) as server:
        compiled = _served_phase(server.address, pools, classify)
        with monkeypatch.context() as patch:
            patch.setattr(serve_body._MATRIX_KERNEL, "get", lambda: None)
            fallback = _served_phase(server.address, pools, classify)
    assert compiled == fallback
    assert compiled[0][-1]["done"]
