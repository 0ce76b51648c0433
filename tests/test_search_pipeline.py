"""Tests for the declarative scenario config, pipeline and CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import DistinguisherError, SearchError
from repro.search.config import (
    SCENARIO_BUILDERS,
    ScenarioBuilder,
    ScenarioSpec,
    get_scenario_builder,
    register_scenario_builder,
)
from repro.search.pipeline import run_search, run_search_pipeline

FAST_SEARCH = {
    "population_size": 12,
    "generations": 2,
    "elite": 4,
    "n_samples": 512,
    "seed": 0,
}
FAST_TRAIN = {
    "num_samples": 2000,
    "epochs": 2,
    "hidden": [16],
    "seed": 0,
    "significance": 0.2,
}


def _spec(**overrides):
    raw = {
        "name": "toyspeck-test",
        "scenario": "toyspeck",
        "params": {"rounds": 2},
        "search": dict(FAST_SEARCH),
        "train": dict(FAST_TRAIN),
    }
    raw.update(overrides)
    return ScenarioSpec.from_dict(raw)


class TestScenarioSpec:
    def test_minimal_with_differences(self):
        spec = ScenarioSpec.from_dict(
            {"scenario": "toyspeck", "differences": [[0x00, 0x40], [0x20, 0x00]]}
        )
        assert spec.name == "toyspeck"
        assert spec.differences.shape == (2, 2)
        assert spec.search is None

    def test_requires_differences_or_search(self):
        with pytest.raises(SearchError, match="differences"):
            ScenarioSpec.from_dict({"scenario": "toyspeck"})

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SearchError, match="unknown scenario"):
            ScenarioSpec.from_dict({"scenario": "nope", "search": {}})

    def test_rejects_unknown_top_level_key(self):
        with pytest.raises(SearchError, match="unknown scenario-config keys"):
            ScenarioSpec.from_dict(
                {"scenario": "toyspeck", "search": {}, "bogus": 1}
            )

    def test_rejects_unknown_search_key(self):
        with pytest.raises(SearchError, match="unknown search keys"):
            ScenarioSpec.from_dict(
                {"scenario": "toyspeck", "search": {"pop": 4}}
            )

    def test_rejects_unknown_train_key(self):
        with pytest.raises(SearchError, match="unknown train keys"):
            ScenarioSpec.from_dict(
                {"scenario": "toyspeck", "search": {}, "train": {"lr": 0.1}}
            )

    def test_rejects_1d_differences(self):
        with pytest.raises(SearchError, match="2-D"):
            ScenarioSpec.from_dict(
                {"scenario": "toyspeck", "differences": [1, 2]}
            )

    def test_from_json_roundtrip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"scenario": "toyspeck", "search": FAST_SEARCH})
        )
        spec = ScenarioSpec.from_json(str(path))
        assert spec.scenario == "toyspeck"

    def test_from_json_missing_file(self, tmp_path):
        with pytest.raises(SearchError, match="no scenario config"):
            ScenarioSpec.from_json(str(tmp_path / "nope.json"))

    def test_builder_registry_rejects_duplicates(self):
        builder = SCENARIO_BUILDERS["toyspeck"]
        with pytest.raises(SearchError, match="already registered"):
            register_scenario_builder(builder)

    def test_every_builder_has_working_prototype(self):
        for name in SCENARIO_BUILDERS:
            prototype = get_scenario_builder(name).prototype()
            assert prototype.difference_masks.ndim == 2, name
            assert prototype.num_classes >= 2, name


#: Differences that a plain cast turned into other differences.
SILENTLY_CAST = {
    "gimli-hash-2**32+1": {
        "scenario": "gimli-hash",
        "differences": [[0, 2**32 + 1, 0, 0], [0, 0, 0, 1]],
    },
    "toyspeck-320": {"scenario": "toyspeck", "differences": [[0, 320], [32, 0]]},
    "gimli-cipher-1.9": {
        "scenario": "gimli-cipher",
        "differences": [[0, 1.9, 0, 0], [0, 0, 0, 1]],
    },
}


class TestSpecDifferences:
    @pytest.mark.parametrize("raw", SILENTLY_CAST.values(), ids=SILENTLY_CAST)
    def test_rejects_values_that_would_change(self, raw):
        with pytest.raises(SearchError, match="integers in"):
            ScenarioSpec.from_dict(raw)

    @pytest.mark.parametrize(
        "differences",
        [[[0, float("nan")], [32, 0]], [[0, -64], [32, 0]],
         [[0, "0x40"], [32, 0]], [[0, 64], [32]], [[0, 64, 0], [32, 0, 0]]],
        ids=["nan", "negative", "string", "ragged", "wrong-width"],
    )
    def test_rejects_malformed(self, differences):
        with pytest.raises(SearchError):
            ScenarioSpec.from_dict(
                {"scenario": "toyspeck", "differences": differences}
            )

    def test_keeps_word_dtype(self):
        spec = ScenarioSpec.from_dict(
            {"scenario": "gift16", "differences": [[0xFFFF], [1.0]]}
        )
        assert spec.differences.dtype == np.uint16
        assert spec.differences.tolist() == [[0xFFFF], [1]]


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=6)
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
_PARAM_NAMES = ["rounds", "total_rounds", "block_len", "warmup",
                "output_bits", "observe_words"]
_WORDS = st.lists(
    st.lists(st.integers(0, 2**33) | _JSON_LEAVES, max_size=17), max_size=4
)


def _section(known):
    return st.dictionaries(
        st.sampled_from(known) | st.text(max_size=6), _JSON, max_size=3
    ) | _JSON


_SPECS = st.fixed_dictionaries(
    {"scenario": st.sampled_from(sorted(SCENARIO_BUILDERS)) | st.text(max_size=6)},
    optional={
        "name": _JSON,
        "params": _section(_PARAM_NAMES),
        "differences": _WORDS | _JSON,
        "num_differences": _JSON,
        "search": _section(["population_size", "generations", "n_samples"]),
        "train": _section(["num_samples", "epochs", "hidden"]),
        "register": _JSON,
    },
)


class TestFuzzScenarioSpec:
    """Arbitrary JSON configs fail only with the library's own errors."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw=_SPECS)
    @example(raw=SILENTLY_CAST["gimli-hash-2**32+1"])
    @example(raw=SILENTLY_CAST["toyspeck-320"])
    @example(raw=SILENTLY_CAST["gimli-cipher-1.9"])
    @example(raw={"scenario": "toyspeck", "differences": [[64], [32]]})
    @example(raw={"scenario": "gimli-permutation", "params": {"rounds": -1},
                  "search": {}})
    @example(raw={"scenario": "gift64", "params": {"rounds": "x"},
                  "search": {}})
    def test_builds_or_raises_library_error(self, raw):
        try:
            spec = ScenarioSpec.from_dict(raw)
            if spec.differences is not None:
                spec.build_scenario(spec.differences)
            spec.prototype()
        except (SearchError, DistinguisherError):
            pass


@pytest.mark.parametrize(
    "scenario, params",
    [
        ("toyspeck", {"rounds": -1}),
        ("toyspeck", {"rounds": 0}),
        ("gimli-hash", {"rounds": -1}),
        ("gimli-hash", {"rounds": 25}),
        ("gimli-cipher", {"total_rounds": -1}),
        ("gimli-cipher", {"total_rounds": 49}),
    ],
    ids=lambda value: value if isinstance(value, str) else "-".join(
        f"{k}={v}" for k, v in value.items()
    ),
)
def test_out_of_range_rounds_fail_at_construction(scenario, params):
    """A round count the cipher would reject at generation is rejected
    when the prototype is built, as GIFT-16/64 already do."""
    spec = ScenarioSpec.from_dict(
        {"scenario": scenario, "params": params, "search": {}}
    )
    with pytest.raises(DistinguisherError, match="rounds must be in"):
        spec.prototype()


class TestRunSearch:
    def test_search_stage_alone(self):
        result = run_search(_spec())
        assert result.ranked_masks.shape[0] >= 2
        assert result.best_score > 0

    def test_spec_without_search_section_raises(self):
        spec = ScenarioSpec.from_dict(
            {"scenario": "toyspeck", "differences": [[0x00, 0x40], [0x20, 0x00]]}
        )
        with pytest.raises(SearchError, match="no 'search' section"):
            run_search(spec)


class TestPipeline:
    def test_fixed_differences_skip_search(self):
        spec = ScenarioSpec.from_dict(
            {
                "name": "fixed",
                "scenario": "toyspeck",
                "params": {"rounds": 2},
                "differences": [[0x00, 0x40], [0x20, 0x00]],
                "train": dict(FAST_TRAIN),
            }
        )
        summary = run_search_pipeline(spec)
        assert summary["search"] is None
        assert summary["differences"] == [[0x00, 0x40], [0x20, 0x00]]
        assert 0.0 <= summary["training"]["validation_accuracy"] <= 1.0

    def test_search_then_train_then_register(self, tmp_path):
        from repro.serve import ModelRegistry

        registry = ModelRegistry(str(tmp_path / "registry"))
        summary = run_search_pipeline(_spec(), registry=registry)
        assert summary["search"] is not None
        assert "model_id" in summary

        record = registry.resolve("toyspeck-test")
        manifest = record.manifest
        # the manifest records the discovered difference set
        assert manifest["search"]["ranked_differences"]
        assert manifest["scenario"]["input_differences"] == summary["differences"]
        assert record.summary()["searched"] is True

        model, _record = registry.load("toyspeck-test")
        probe = np.zeros((3, manifest["input_shape"][0]), dtype=np.float32)
        assert model.forward(probe).shape == (3, 2)


class TestCLI:
    def test_search_only_json(self, capsys):
        from repro.search.__main__ import main

        code = main(
            [
                "--scenario", "toyspeck", "--rounds", "2",
                "--population", "12", "--generations", "2",
                "--samples", "512", "--seed", "0",
                "--search-only", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "evolutionary-bias"
        assert len(payload["ranked_differences"]) >= 2

    def test_config_file_end_to_end(self, tmp_path, capsys):
        from repro.search.__main__ import main

        config = {
            "name": "cli-e2e",
            "scenario": "toyspeck",
            "params": {"rounds": 2},
            "search": FAST_SEARCH,
            "train": FAST_TRAIN,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        code = main(
            [str(path), "--registry", str(tmp_path / "reg"), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model_id"]
        assert payload["search"]["ranked_differences"]

    def test_error_reported_not_raised(self, tmp_path, capsys):
        from repro.search.__main__ import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": "nope", "search": {}}))
        code = main([str(path), "--search-only"])
        assert code == 1
        assert "unknown scenario" in capsys.readouterr().err


@pytest.fixture(autouse=True)
def _fresh_obs_stream():
    # The CLI tests above configure the obs logger onto a per-test
    # captured stderr; repoint it at the live stdout so later tests
    # never write to a closed capture stream.
    import sys

    from repro.obs import log as obs_log

    obs_log.configure(stream=sys.stdout)
    yield


class TestNewScenarioFamilies:
    """The gimli-cipher and toygift builder families."""

    def test_toygift_exhaustive_search_space(self):
        builder = get_scenario_builder("toygift")
        prototype = builder.prototype()
        assert prototype.difference_masks.dtype == np.uint8
        assert prototype.input_words == 1

    def test_toygift_search_finds_nonzero_bias(self):
        spec = ScenarioSpec.from_dict(
            {
                "scenario": "toygift",
                "search": {**FAST_SEARCH, "n_samples": 1024},
            }
        )
        result = run_search(spec)
        assert result.best_score > result.noise_floor

    def test_gimli_cipher_prototype_and_build(self):
        builder = get_scenario_builder("gimli-cipher")
        prototype = builder.prototype(total_rounds=6)
        assert prototype.difference_masks.shape[1] == 4
        masks = np.zeros((2, 4), dtype=np.uint32)
        masks[0, 1] = 1
        masks[1, 3] = 1
        spec = ScenarioSpec.from_dict(
            {
                "scenario": "gimli-cipher",
                "params": {"total_rounds": 6},
                "differences": masks.tolist(),
            }
        )
        scenario = spec.build_scenario(spec.differences)
        assert scenario.num_classes == 2


class TestSweep:
    def _cfgs(self, tmp_path):
        cfgs = [
            {
                "name": "gift-a",
                "scenario": "toygift",
                "differences": [[0x23], [0x01]],
                "train": {"num_samples": 1500, "epochs": 2, "hidden": [16],
                          "seed": 0, "significance": 0.9},
            },
            {
                "name": "gift-b",
                "scenario": "toygift",
                "differences": [[0x40], [0x02]],
                "train": {"num_samples": 1500, "epochs": 2, "hidden": [16],
                          "seed": 1, "significance": 0.9},
            },
        ]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfgs))
        return path

    def test_load_sweep_validates_and_returns_raw(self, tmp_path):
        from repro.search.pipeline import load_sweep

        raws = load_sweep([str(self._cfgs(tmp_path))])
        assert [r["name"] for r in raws] == ["gift-a", "gift-b"]

    def test_load_sweep_rejects_duplicate_names(self, tmp_path):
        from repro.search.pipeline import load_sweep

        path = tmp_path / "dup.json"
        path.write_text(json.dumps([
            {"scenario": "toygift", "differences": [[0x23], [0x01]]},
            {"scenario": "toygift", "differences": [[0x40], [0x02]]},
        ]))
        with pytest.raises(SearchError, match="unique"):
            load_sweep([str(path)])

    def test_sweep_resume_is_bit_identical(self, tmp_path, monkeypatch):
        from repro.errors import JobError
        from repro.search.pipeline import load_sweep, run_sweep

        raws = load_sweep([str(self._cfgs(tmp_path))])
        straight = run_sweep(raws, queue_dir=tmp_path / "q1")

        monkeypatch.setenv("REPRO_JOBS_MAX_CELLS", "1")
        with pytest.raises(JobError, match="not processed"):
            run_sweep(raws, queue_dir=tmp_path / "q2")
        monkeypatch.delenv("REPRO_JOBS_MAX_CELLS")
        resumed = run_sweep(raws, queue_dir=tmp_path / "q2")
        assert resumed == straight

    def test_compiled_kernels_do_not_change_a_sweep(self, tmp_path, monkeypatch):
        """A seeded search -> train -> register sweep through the Gimli
        and bit-count kernels equals the same sweep on their numpy
        spellings: differences, scores, evaluations, accuracies and
        model ids."""
        from repro.ciphers import gimli
        from repro.search import oracle
        from repro.search.pipeline import run_sweep

        search = dict(FAST_SEARCH, population_size=8, n_samples=1024, seed=3)
        train = dict(FAST_TRAIN, epochs=1, seed=4)
        raws = [
            {"name": name, "scenario": scenario, "params": params,
             "search": search, "train": train}
            for name, scenario, params in (
                ("hash", "gimli-hash", {"rounds": 4}),
                ("cipher", "gimli-cipher", {"total_rounds": 4}),
                ("gift", "gift64", {"rounds": 3}),
            )
        ]
        compiled = run_sweep(raws, registry_dir=str(tmp_path / "r1"),
                             queue_dir=tmp_path / "q1")
        for kernel in (gimli._GIMLI_KERNEL, oracle._COUNT_KERNEL):
            monkeypatch.setattr(kernel, "get", lambda: None)
        fallback = run_sweep(raws, registry_dir=str(tmp_path / "r2"),
                             queue_dir=tmp_path / "q2")
        assert fallback == compiled


class TestTrainThreads:
    """The training stage runs on ``TRAIN_BLAS_THREADS`` BLAS threads,
    and the pool size never changes what a sweep trains."""

    @pytest.fixture(autouse=True)
    def _controllable(self):
        from repro.nn.backend import blas

        if not blas.controllable():
            pytest.skip("the loaded BLAS has no thread-count control")

    def test_training_is_pinned_and_the_pool_restored(self, monkeypatch):
        from repro.core.distinguisher import MLDistinguisher
        from repro.nn.backend import blas
        from repro.search import pipeline

        seen = []
        train = MLDistinguisher.train

        def spy(self, *args, **kwargs):
            seen.append(blas.get_blas_threads())
            return train(self, *args, **kwargs)

        monkeypatch.setattr(MLDistinguisher, "train", spy)
        before = blas.get_blas_threads()
        run_search_pipeline(_spec())
        assert seen == [pipeline.TRAIN_BLAS_THREADS]
        assert blas.get_blas_threads() == before

    def test_thread_count_does_not_change_a_sweep(self, tmp_path, monkeypatch):
        """The same seeded sweep trained on one BLAS thread and, through
        ``REPRO_BLAS_THREADS_TRAIN``, on two: equal summaries and model
        ids."""
        from repro.search.pipeline import run_sweep

        search = dict(FAST_SEARCH, population_size=8, n_samples=1024, seed=5)
        train = dict(FAST_TRAIN, epochs=1, hidden=[64, 128], seed=6)
        raws = [
            {"name": name, "scenario": scenario, "params": params,
             "search": search, "train": train}
            for name, scenario, params in (
                ("hash", "gimli-hash", {"rounds": 4}),
                ("gift", "gift64", {"rounds": 3}),
            )
        ]
        pinned = run_sweep(raws, registry_dir=str(tmp_path / "r1"),
                           queue_dir=tmp_path / "q1")
        monkeypatch.setenv("REPRO_BLAS_THREADS_TRAIN", "2")
        two = run_sweep(raws, registry_dir=str(tmp_path / "r2"),
                        queue_dir=tmp_path / "q2")
        assert two == pinned
