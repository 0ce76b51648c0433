"""Every numeric ``REPRO_*`` knob: default, bound and error type.

Each knob is read through its real call site, so the table pins what
the program does, not just what :func:`repro.utils.env.env_number` can
do.  The knob tables of EXPERIMENTS.md must list exactly the knobs
``src/`` reads.
"""

import re
from pathlib import Path

import pytest

from repro.errors import ExperimentError, JobError, TrainingError
from repro.experiments.config import get_scale, get_workers
from repro.jobs.runner import JobRunner
from repro.nn.backend.blas import domain_threads
from repro.utils.env import env_number

ROOT = Path(__file__).resolve().parents[1]


# (knob, read, default, error type, boundary value, values just outside)
KNOBS = [
    ("REPRO_JOBS_MAX_CELLS", lambda: JobRunner(None).max_jobs, None,
     JobError, "1", ["0"]),
    ("REPRO_SCALE", get_scale, 0.05, ExperimentError, "1", ["0", "1.001"]),
    ("REPRO_WORKERS", get_workers, 1, ExperimentError, "1", ["0"]),
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


class TestKnobDocs:
    def test_read_knobs_match_documented_knobs(self):
        read = set()
        for path in (ROOT / "src").rglob("*.py"):
            read.update(re.findall(r'"(REPRO_[A-Z0-9_]+)"',
                                   path.read_text(encoding="utf-8")))
        # The knob-table rows and bullets of EXPERIMENTS.md.
        documented = set(re.findall(
            r"^(?:\| |\* )`(REPRO_[A-Z0-9_]+)",
            (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8"),
            flags=re.MULTILINE,
        ))
        assert read == documented
