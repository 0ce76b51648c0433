"""Tests for the live sweep dashboard over a partial (killed) run dir.

The directory under test mimics a ``kill -9``'d Table 2 sweep: some
cells done (with stored results), one mid-flight, one pending, one
failed — no ``<name>_result.json``, no manifest.  That is exactly the
directory the dashboard exists for.
"""

import json
import threading
import urllib.error
import urllib.request
from http.client import HTTPConnection
from urllib.parse import quote, urlencode

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.jobs.queue import JobQueue
from repro.obs import events as obs_events
from repro.experiments.report import collect_run as collect_dashboard
from repro.experiments.report import render_text as render_watch
from repro.obs.dashboard import DashboardServer, main
from repro.obs.dashboard import render_page as render_dashboard_html


@pytest.fixture
def killed_run(tmp_path):
    """A run directory whose process died mid-grid."""
    queue = JobQueue(tmp_path / "queue" / "table2")
    queue.bind("table2", {"rounds": [3, 4]}, 7)
    specs = [
        {"experiment": "table2", "target": target, "rounds": rounds,
         "seed": 7}
        for target in ("hash", "cipher") for rounds in (3, 4)
    ] + [{"experiment": "table2", "target": "hash", "rounds": 5, "seed": 7}]
    ids = [queue.submit(spec, index=i) for i, spec in enumerate(specs)]
    queue.mark_done(
        ids[0],
        {"target": "hash", "rounds": 3, "measured": 0.97, "paper": 0.52},
        1.2, 1,
    )
    queue.mark_done(
        ids[1],
        {"target": "hash", "rounds": 4, "measured": 0.61, "paper": 0.51},
        1.4, 1,
    )
    queue.update(ids[2], status="running")
    queue.mark_failed(ids[3], error="boom", error_type="ValueError",
                      duration_s=0.3, attempts=2)
    # ids[4] stays pending.
    obs_events.emit("run.start", run_dir=tmp_path, experiment="table2")
    obs_events.emit("cell.done", run_dir=tmp_path, job_id=ids[0],
                    duration_s=1.2)
    obs_events.emit("cell.done", run_dir=tmp_path, job_id=ids[1],
                    duration_s=1.4)
    return tmp_path


class TestCollect:
    def test_progress_and_eta_from_partial_queue(self, killed_run):
        data = collect_dashboard(killed_run)
        assert len(data["experiments"]) == 1
        exp = data["experiments"][0]
        assert exp["name"] == "table2"
        assert exp["complete"] is False
        progress = exp["progress"]
        assert progress["total"] == 5
        assert progress["done"] == 2
        assert progress["failed"] == 1
        assert progress["remaining"] == 2  # pending + running
        assert progress["median_cell_s"] == pytest.approx(1.3)
        # ETA = median * remaining / workers (no manifest => 1 worker).
        assert progress["eta_s"] == pytest.approx(2.6)
        assert progress["cells_per_min"] > 0

    def test_accuracy_so_far_tables(self, killed_run):
        exp = collect_dashboard(killed_run)["experiments"][0]
        assert exp["partial_tables"] is True
        titles = [t["title"] for t in exp["tables"]]
        assert "Accuracy (paper layout)" in titles
        all_rows = next(t for t in exp["tables"] if t["title"] == "All rows")
        assert len(all_rows["rows"]) == 2  # only the done cells

    def test_events_tail(self, killed_run):
        data = collect_dashboard(killed_run)
        assert data["event_counts"]["cell.done"] == 2
        assert data["events_tail"][-1]["event"] == "cell.done"

    def test_empty_directory(self, tmp_path):
        data = collect_dashboard(tmp_path)
        assert data["experiments"] == []
        assert data["event_counts"] == {}


class TestRender:
    def test_html_shows_statuses_and_partial_rows(self, killed_run):
        page = render_dashboard_html(collect_dashboard(killed_run))
        assert "rows so far" in page
        assert "status-failed" in page
        assert "status-running" in page
        assert "http-equiv='refresh'" in page
        assert "ValueError" in page

    def test_watch_text(self, killed_run):
        text = render_watch(collect_dashboard(killed_run))
        assert "table2: 2/5 cells done" in text
        assert "ETA" in text
        assert "events:" in text

    def test_watch_text_empty_dir(self, tmp_path):
        assert "(no experiments yet)" in render_watch(
            collect_dashboard(tmp_path)
        )


class TestHttp:
    @pytest.fixture
    def served(self, killed_run):
        server = DashboardServer(killed_run, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()

    def test_index_renders_html(self, served):
        with urllib.request.urlopen(served.url + "/") as resp:
            assert resp.status == 200
            assert b"Sweep dashboard" in resp.read()

    def test_api_status(self, served):
        with urllib.request.urlopen(served.url + "/api/status") as resp:
            data = json.loads(resp.read())
        assert data["experiments"][0]["progress"]["done"] == 2

    def test_api_events_limit(self, served):
        with urllib.request.urlopen(served.url + "/api/events?n=1") as resp:
            data = json.loads(resp.read())
        assert len(data["events"]) == 1
        assert data["events"][0]["event"] == "cell.done"

    def test_unknown_path_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(served.url + "/nope")
        assert excinfo.value.code == 404


class TestCli:
    def test_once_writes_html(self, killed_run, tmp_path, capsys):
        out = tmp_path / "dash.html"
        assert main([
            "--run-dir", str(killed_run), "--once", "--out", str(out)
        ]) == 0
        assert "rows so far" in out.read_text()

    def test_once_prints_watch_text(self, killed_run, capsys):
        assert main(["--run-dir", str(killed_run), "--once"]) == 0
        assert "cells done" in capsys.readouterr().out


def _get_raw(url, path):
    """``(status, body)`` of one GET on a fresh connection."""
    host, port = url.removeprefix("http://").split(":")
    connection = HTTPConnection(host, int(port), timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@pytest.fixture(scope="module")
def fuzz_server(tmp_path_factory):
    """One dashboard for every example, over a run with queue and events."""
    run_dir = tmp_path_factory.mktemp("dash")
    queue = JobQueue(run_dir / "queue" / "table2")
    queue.bind("table2", {"rounds": [3]}, 7)
    job = queue.submit({"experiment": "table2", "target": "hash",
                        "rounds": 3, "seed": 7}, index=0)
    queue.mark_done(job, {"target": "hash", "rounds": 3, "measured": 0.9,
                          "paper": 0.5}, 1.0, 1)
    for i in range(3):
        obs_events.emit("tick", run_dir=run_dir, i=i)
    with DashboardServer(run_dir, port=0) as server:
        yield server.url


ROUTES = ["/", "/index.html", "/api/status", "/api/events", "/nope", "//"]


class TestHttpValidation:
    @pytest.mark.parametrize("query", ["n=abc", "n=-3", "n=1.5", "n=1&n=x"])
    def test_bad_event_limit_400(self, fuzz_server, query):
        status, payload = _get_raw(fuzz_server, "/api/events?" + query)
        assert status == 400
        assert "n must be" in json.loads(payload)["error"]

    @pytest.mark.parametrize("query,count", [("n=0", 0), ("n=2", 2),
                                             ("n=99", 3), ("", 3)])
    def test_good_event_limit(self, fuzz_server, query, count):
        status, payload = _get_raw(fuzz_server, "/api/events?" + query)
        assert status == 200
        assert len(json.loads(payload)["events"]) == count

    @settings(max_examples=150, deadline=None)
    @given(
        route=st.sampled_from(ROUTES),
        suffix=st.text(max_size=12),
        query=st.lists(
            st.tuples(st.sampled_from(["n", "x", ""]), st.text(max_size=8)),
            max_size=3,
        ),
    )
    @example(route="/api/events", suffix="", query=[("n", "abc")])
    @example(route="/api/events", suffix="", query=[("n", "-3")])
    def test_get_routes_never_500(self, fuzz_server, route, suffix, query):
        path = route + quote(suffix)
        if query:
            path += "?" + urlencode(query)
        status, payload = _get_raw(fuzz_server, path)
        assert status in (200, 400, 404), (path, status, payload)
        if status != 200:
            assert isinstance(json.loads(payload)["error"], str)
        # ...and the server keeps serving afterwards.
        assert _get_raw(fuzz_server, "/api/status")[0] == 200
