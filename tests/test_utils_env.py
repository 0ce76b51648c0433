"""Every numeric ``REPRO_*`` knob: default, bound and error type.

Each knob is read through its real call site, so the table pins what
the program does, not just what :func:`repro.utils.env.env_number` can
do.
"""

import numpy as np
import pytest

from repro.core.parallel import stall_factor_from_env, stall_poll_from_env
from repro.errors import (
    DistinguisherError,
    ExperimentError,
    JobError,
    SearchError,
    ServeError,
    TrainingError,
)
from repro.experiments.config import get_scale, get_workers
from repro.jobs.runner import JobRunner
from repro.nn import Dense, Sequential, Softmax
from repro.nn.backend.blas import domain_threads
from repro.search.evolve import SearchConfig
from repro.serve import MicroBatchEngine
from repro.serve.metrics import SloPolicy
from repro.utils.env import env_number


def _engine():
    model = Sequential([Dense(2), Softmax()])
    model.build((3,), np.random.default_rng(0))
    engine = MicroBatchEngine(model, autostart=False)
    engine.stop()
    return engine


# (knob, read, default, error type, boundary value, values just outside)
KNOBS = [
    ("REPRO_JOBS_RETRIES", lambda: JobRunner(None).max_attempts, 2,
     JobError, "1", ["0"]),
    ("REPRO_JOBS_BACKOFF", lambda: JobRunner(None).backoff_s, 0.05,
     JobError, "0", ["-0.001"]),
    ("REPRO_JOBS_MAX_CELLS", lambda: JobRunner(None).max_jobs, None,
     JobError, "1", ["0"]),
    ("REPRO_SEARCH_POPULATION",
     lambda: SearchConfig.from_env(elite=1).population_size, 32,
     SearchError, "2", ["1"]),
    ("REPRO_SEARCH_GENERATIONS", lambda: SearchConfig.from_env().generations,
     8, SearchError, "1", ["0"]),
    ("REPRO_SEARCH_SAMPLES", lambda: SearchConfig.from_env().n_samples,
     SearchConfig.n_samples, SearchError, "2", ["1"]),
    ("REPRO_SEARCH_SEED", lambda: SearchConfig.from_env().seed, 0,
     SearchError, "0", ["-1"]),
    ("REPRO_SEARCH_TOP_K", lambda: SearchConfig.from_env().top_k, 4,
     SearchError, "1", ["0"]),
    ("REPRO_OBS_SLO_ERROR_RATE", lambda: SloPolicy.from_env().error_rate,
     0.05, ServeError, "1", ["0", "1.001"]),
    ("REPRO_OBS_SLO_P99_MS", lambda: SloPolicy.from_env().p99_ms, 250.0,
     ServeError, "1e-09", ["0"]),
    ("REPRO_OBS_SLO_MIN_SAMPLES", lambda: SloPolicy.from_env().min_samples,
     20, ServeError, "1", ["0"]),
    ("REPRO_SERVE_MAX_BATCH", lambda: _engine().max_batch, 256,
     ServeError, "1", ["0"]),
    ("REPRO_SERVE_MAX_WAIT_MS", lambda: _engine().max_wait_s * 1e3, 2.0,
     ServeError, "1e-09", ["0"]),
    ("REPRO_SCALE", get_scale, 0.05, ExperimentError, "1", ["0", "1.001"]),
    ("REPRO_WORKERS", get_workers, None, ExperimentError, "1", ["0"]),
    ("REPRO_OBS_STALL_FACTOR", stall_factor_from_env, 4.0,
     DistinguisherError, "-1e300", []),
    ("REPRO_OBS_STALL_POLL_S", stall_poll_from_env, 1.0,
     DistinguisherError, "1e-09", ["0"]),
    ("REPRO_BLAS_THREADS_TRAIN", lambda: domain_threads("train"), None,
     TrainingError, "1", ["0"]),
    ("REPRO_BLAS_THREADS_SERVE", lambda: domain_threads("serve"), None,
     TrainingError, "1", ["0"]),
]


@pytest.fixture(params=KNOBS, ids=[knob[0] for knob in KNOBS])
def knob(request, monkeypatch):
    for name, *_ in KNOBS:
        monkeypatch.delenv(name, raising=False)
    return request.param


class TestKnobs:
    def test_unset_or_empty_gives_default(self, knob, monkeypatch):
        name, read, default, *_ = knob
        assert read() == default
        monkeypatch.setenv(name, "")
        assert read() == default

    def test_garbage_raises_naming_the_knob(self, knob, monkeypatch):
        name, read, _, error, *_ = knob
        monkeypatch.setenv(name, "lots")
        with pytest.raises(error, match=f"{name} must be .*'lots'"):
            read()

    def test_boundary_accepted(self, knob, monkeypatch):
        name, read, _, _, boundary, _ = knob
        monkeypatch.setenv(name, boundary)
        assert read() == pytest.approx(float(boundary), rel=1e-9)

    def test_one_step_outside_rejected(self, knob, monkeypatch):
        name, read, _, error, _, outside = knob
        for raw in outside:
            monkeypatch.setenv(name, raw)
            with pytest.raises(error, match=f"{name} must be .*{raw!r}"):
                read()


class TestEnvNumber:
    def test_message_states_the_bounds(self, monkeypatch):
        monkeypatch.setenv("REPRO_T", "7")
        with pytest.raises(ValueError, match=r"REPRO_T must be > 0 and <= 1, got '7'"):
            env_number("REPRO_T", 1.0, float, error=ValueError, above=0, maximum=1)

    def test_nan_fails_every_bound(self, monkeypatch):
        monkeypatch.setenv("REPRO_T", "nan")
        with pytest.raises(ValueError, match="REPRO_T"):
            env_number("REPRO_T", 1.0, float, error=ValueError, minimum=0)

    def test_int_knob_rejects_fractions(self, monkeypatch):
        monkeypatch.setenv("REPRO_T", "1.5")
        with pytest.raises(ValueError, match="REPRO_T must be an integer"):
            env_number("REPRO_T", 1, error=ValueError, minimum=1)
