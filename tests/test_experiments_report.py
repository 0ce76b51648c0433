"""Tests for the HTML/markdown run report (complete and partial runs)."""

import json
import re

import pytest
from test_obs_dashboard import killed_run  # noqa: F401 - shared fixture

from repro.errors import JobError
from repro.experiments.report import (
    collect_run,
    render_html,
    render_markdown,
    render_text,
    write_run_report,
)
from repro.experiments.table2 import run_table2
from repro.obs import events as obs_events

TINY = dict(
    rounds=(3,),
    targets=("hash", "cipher"),
    offline_samples=1000,
    online_samples=300,
    epochs=1,
    rng=13,
)


def _complete_run(run_dir):
    result = run_table2(queue_dir=run_dir / "queue" / "table2", **TINY)
    (run_dir / "table2_result.json").write_text(json.dumps(result))
    return result


class TestCompleteRun:
    def test_collect_sees_result_and_queue(self, tmp_path):
        _complete_run(tmp_path)
        view = collect_run(tmp_path)
        [exp] = view["experiments"]
        assert exp["name"] == "table2"
        assert exp["complete"] is True
        assert exp["progress"]["done"] == 2
        assert exp["progress"]["total"] == 2
        assert len(exp["cells"]) == 2

    def test_markdown_has_status_and_accuracy(self, tmp_path):
        _complete_run(tmp_path)
        text = render_markdown(collect_run(tmp_path))
        assert "2/2 cells done" in text
        assert "table2" in text
        assert "hash" in text and "cipher" in text

    def test_html_renders_standalone_page(self, tmp_path):
        _complete_run(tmp_path)
        page = render_html(collect_run(tmp_path))
        assert page.startswith("<!DOCTYPE html>" ) or "<html" in page
        assert "table2" in page

    def test_write_run_report_emits_both_files(self, tmp_path):
        _complete_run(tmp_path)
        paths = write_run_report(tmp_path)
        names = {p.name for p in paths}
        assert names == {"report.md", "report.html"}
        for path in paths:
            assert path.read_text()


class TestPartialRun:
    def test_renders_from_killed_run_queue_state(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_JOBS_MAX_CELLS", "1")
        with pytest.raises(JobError):
            run_table2(queue_dir=tmp_path / "queue" / "table2", **TINY)
        view = collect_run(tmp_path)
        [exp] = view["experiments"]
        assert exp["complete"] is False
        assert exp["partial_tables"] is True
        assert (exp["progress"]["done"], exp["progress"]["total"]) == (1, 2)
        assert "partial run" in exp["summary"]
        text = render_markdown(view)
        assert "1/2 cells done" in text
        assert "partial run" in text
        # both files still render without any *_result.json present
        paths = write_run_report(tmp_path)
        assert all(p.exists() for p in paths)

    def test_empty_run_dir_renders(self, tmp_path):
        text = render_markdown(collect_run(tmp_path))
        assert "report" in text.lower() or text  # renders, never raises


def _with_manifest(run_dir):
    """Give the killed run the manifest an earlier invocation wrote."""
    manifest = {"duration_s": 3.5, "workers": {"requested": 2, "resolved": 2}}
    (run_dir / "table2_manifest.json").write_text(json.dumps(manifest))
    return run_dir


class TestViewModel:
    def test_parses_the_event_bus_once(self, killed_run, monkeypatch):
        calls = []
        read_events = obs_events.read_events

        def counting(*args, **kwargs):
            calls.append(args)
            return read_events(*args, **kwargs)

        monkeypatch.setattr(obs_events, "read_events", counting)
        view = collect_run(killed_run)
        assert len(calls) == 1
        assert view["event_counts"] == {"run.start": 1, "cell.done": 2}
        assert len(view["events_tail"]) == 3

    def test_event_counts_by_name(self, tmp_path):
        obs_events.emit("a", run_dir=tmp_path)
        obs_events.emit("a", run_dir=tmp_path)
        obs_events.emit("b", run_dir=tmp_path)
        view = collect_run(tmp_path)
        assert view["event_counts"] == {"a": 2, "b": 1}
        counts = next(t for t in view["tables"] if t["title"] == "Run events")
        assert counts["rows"] == [["a", 2], ["b", 1]]

    def test_empty_directory(self, tmp_path):
        view = collect_run(tmp_path)
        assert view["experiments"] == []
        assert view["event_counts"] == {}
        assert view["events_tail"] == []
        assert view["tables"] == []

    def test_view_is_json_ready(self, killed_run):
        view = collect_run(_with_manifest(killed_run))
        assert json.loads(json.dumps(view)) == view

    def test_manifest_workers_drive_eta(self, killed_run):
        [exp] = collect_run(_with_manifest(killed_run))["experiments"]
        assert exp["progress"]["workers"] == 2
        # median 1.3 s x 2 remaining cells / 2 workers
        assert exp["progress"]["eta_s"] == pytest.approx(1.3)


class TestRenderersAgree:
    def test_three_renderers_show_the_same_view(self, killed_run):
        view = collect_run(_with_manifest(killed_run))
        titles = [
            table["title"]
            for section in view["experiments"] + [view]
            for table in section["tables"]
        ]
        assert "Cells" in titles and "Accuracy (paper layout)" in titles
        assert "Run events" in titles
        outputs = {
            "markdown": render_markdown(view),
            "html": render_html(view),
            "text": render_text(view),
        }
        for kind, text in outputs.items():
            assert "2/5 cells done" in text, kind
            assert "workers 2 requested / 2 resolved" in text, kind
            assert "rows so far" in text, kind
        found = {
            "markdown": re.findall(r"^### (.+)$", outputs["markdown"], re.M),
            "html": re.findall(r"<h3>(.+)</h3>", outputs["html"]),
            "text": re.findall(r"^(.+):$", outputs["text"], re.M),
        }
        for kind, rendered in found.items():
            assert [t for t in rendered if t in titles] == titles, kind

    def test_only_a_refreshing_page_refreshes(self, killed_run):
        view = collect_run(killed_run)
        assert "http-equiv" not in render_html(view)
        assert "content='5'" in render_html(view, refresh_s=5)
