"""Tests for the per-run event bus (``events.jsonl``)."""

import json

from repro.obs import context as obs_context
from repro.obs import events as obs_events


class TestEmit:
    def test_explicit_run_dir(self, tmp_path):
        assert obs_events.emit(
            "cell.done", run_dir=tmp_path, job_id="j1", duration_s=0.5
        )
        records = obs_events.read_events(tmp_path)
        assert len(records) == 1
        assert records[0]["event"] == "cell.done"
        assert records[0]["job_id"] == "j1"
        assert records[0]["pid"] > 0
        assert records[0]["ts"] > 0

    def test_ambient_context(self, tmp_path):
        with obs_context.run_context(tmp_path) as ctx:
            assert obs_events.emit("run.start", experiment="t")
        records = obs_events.read_events(tmp_path)
        assert records[0]["run_id"] == ctx.run_id

    def test_noop_without_context(self, tmp_path):
        assert obs_context.current() is None
        assert obs_events.emit("fit.epoch", epoch=1) is False
        assert not (tmp_path / obs_events.EVENTS_FILENAME).exists()

    def test_appends_preserve_order(self, tmp_path):
        for i in range(5):
            obs_events.emit("tick", run_dir=tmp_path, i=i)
        assert [r["i"] for r in obs_events.read_events(tmp_path)] == list(
            range(5)
        )


class TestRead:
    def test_torn_final_line_is_skipped(self, tmp_path):
        obs_events.emit("ok", run_dir=tmp_path)
        path = obs_events.events_path(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "torn", "ts"')
        records = obs_events.read_events(tmp_path)
        assert [r["event"] for r in records] == ["ok"]

    def test_filter_and_limit(self, tmp_path):
        for i in range(4):
            obs_events.emit("a", run_dir=tmp_path, i=i)
        obs_events.emit("b", run_dir=tmp_path)
        only_a = obs_events.read_events(tmp_path, event="a")
        assert len(only_a) == 4
        newest = obs_events.read_events(tmp_path, event="a", limit=2)
        assert [r["i"] for r in newest] == [2, 3]

    def test_missing_file_reads_empty(self, tmp_path):
        assert obs_events.read_events(tmp_path) == []

    def test_lines_are_sorted_json(self, tmp_path):
        obs_events.emit("z", run_dir=tmp_path, beta=1, alpha=2)
        line = obs_events.events_path(tmp_path).read_text().strip()
        assert line == json.dumps(json.loads(line), sort_keys=True)
