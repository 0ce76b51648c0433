"""Outside-in layer tracing for the end-to-end benchmark.

:func:`install` wraps the public entry points of each layer of ``repro``
(class methods and the module attributes callers look them up through)
with a timer that appends one span per call to a :class:`Recorder`.
Nothing in ``src/`` changes; spans stay in memory until the run ends.

A layer's *self time* is the duration of its spans minus the part covered
by their direct child spans on the same thread (:func:`self_times`).  A
span may carry a *weight*: the engine's coalesced batch is waited for by
every request in it, so its time (and that of every span inside it) counts
once per request when serving time is split into layers.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

#: Every layer the benchmark attributes time to, in report order.
LAYERS = (
    "ciphers.pipeline",
    "utils.encoding",
    "core.datagen",
    "core.random_oracle",
    "core.distinguisher",
    "nn.fit",
    "nn.dense",
    "nn.lstm",
    "nn.conv1d",
    "nn.activation",
    "nn.other",
    "nn.optimizer",
    "nn.predict",
    "serve.transport",
    "serve.service",
    "serve.engine",
    "serve.registry",
    "search.pipeline",
    "search.evolve",
    "search.score",
    "jobs.queue",
    "experiments.table3",
)

#: Layers whose forward and backward time are also reported apart.
SPLIT_LAYERS = ("nn.dense", "nn.lstm", "nn.conv1d", "nn.activation")


class Span(NamedTuple):
    layer: str
    part: str
    tid: int
    start: float
    end: float
    weight: int = 0  # 0: inherit from the enclosing span (1 at the top)
    units: int = 0  # rows, candidates or retries, depending on the layer


class Recorder:
    """In-memory span sink; records only while :attr:`recording` is set."""

    def __init__(self):
        self.spans: List[Span] = []
        self.recording = False

    def add(self, layer, part, start, end, weight=0, units=0) -> None:
        if self.recording:
            self.spans.append(
                Span(layer, part, threading.get_ident(), start, end, weight,
                     units)
            )

    def wrap(
        self,
        fn: Callable,
        layer: str,
        part: str,
        weight_of: Optional[Callable] = None,
        units_of: Optional[Callable] = None,
    ) -> Callable:
        spans = self.spans
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append(Span(
                    layer, part, get_ident(), start, clock(),
                    weight_of(args) if weight_of is not None else 0,
                    units_of(args, kwargs) if units_of is not None else 0,
                ))

        return traced


def _rows(args, kwargs):
    del kwargs
    return len(args[1])


def _retries(args, kwargs):
    attempts = args[4] if len(args) > 4 else kwargs.get("attempts", 1)
    return max(0, int(attempts) - 1)


def _subclasses(cls) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _targets():
    """``(owner, attribute, layer, part, weight_of, units_of)`` to wrap."""
    from repro.core import distinguisher, oracle, parallel, scenario
    from repro.core.scenario import DifferentialScenario
    from repro.experiments import table3
    from repro.jobs import queue, runner
    from repro.nn import conv, layers, model, optimizers, recurrent
    from repro.search import config  # noqa: F401 - imports every scenario family
    from repro.search import pipeline
    from repro.search import oracle as search_oracle
    from repro.serve import engine, http, registry

    targets = []
    for cls in _subclasses(DifferentialScenario):
        if "pipeline" in vars(cls):
            targets.append((cls, "pipeline", "ciphers.pipeline", "call",
                            None, None))
    targets += [
        (scenario, "state_to_bits", "utils.encoding", "call", None, None),
        (search_oracle, "words_to_bits", "utils.encoding", "call", None, None),
        (DifferentialScenario, "generate_dataset", "core.datagen", "call",
         None, None),
        (parallel, "generate_dataset_sharded", "core.datagen", "call",
         None, None),
        (oracle.RandomOracle, "query", "core.random_oracle", "call", None,
         _rows),
        (distinguisher.MLDistinguisher, "train", "core.distinguisher",
         "train", None, None),
        (distinguisher.MLDistinguisher, "test", "core.distinguisher", "test",
         None, None),
        (model.Sequential, "fit", "nn.fit", "call", None, None),
        (model.Sequential, "predict", "nn.predict", "call", None, _rows),
        (optimizers.Adam, "update", "nn.optimizer", "call", None, None),
        (optimizers.SGD, "update", "nn.optimizer", "call", None, None),
        (http.ServeService, "classify", "serve.service", "classify", None,
         None),
        (http.ServeService, "distinguish", "serve.service", "distinguish",
         None, None),
        (engine.MicroBatchEngine, "classify", "serve.engine", "wait", None,
         None),
        # Every request coalesced into a batch waits for all of it.
        (engine.MicroBatchEngine, "_run_batch", "serve.engine", "batch",
         lambda args: len(args[1]), None),
        (registry.ModelRegistry, "register", "serve.registry", "register",
         None, None),
        (registry.ModelRegistry, "load", "serve.registry", "load", None,
         None),
        (pipeline, "run_search_pipeline", "search.pipeline", "call", None,
         None),
        (pipeline, "evolve_differences", "search.evolve", "call", None, None),
        (search_oracle.BiasScoringOracle, "score_batch", "search.score",
         "call", None, _rows),
        (runner.JobRunner, "run", "jobs.queue", "run", None, None),
        (queue.JobQueue, "mark_done", "jobs.queue", "mark_done", None,
         _retries),
        (queue.JobQueue, "mark_failed", "jobs.queue", "mark_failed", None,
         None),
        (table3, "run_table3", "experiments.table3", "call", None, None),
    ]
    for name in ("bind", "submit", "load", "update", "result", "jobs",
                 "counts", "reset_interrupted"):
        targets.append((queue.JobQueue, name, "jobs.queue", name, None, None))
    layer_groups = (
        ("nn.dense", (layers.Dense,)),
        ("nn.lstm", (recurrent.LSTM,)),
        ("nn.conv1d", (conv.Conv1D,)),
        ("nn.activation", (layers.ReLU, layers.LeakyReLU, layers.Sigmoid,
                           layers.Tanh, layers.Softmax)),
        ("nn.other", (layers.Dropout, layers.Flatten, layers.Reshape,
                      conv.MaxPool1D, conv.GlobalAveragePool1D)),
    )
    for layer, classes in layer_groups:
        for cls in classes:
            for part in ("forward", "backward"):
                targets.append((cls, part, layer, part, None, None))
    return targets


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point of ``repro`` so it reports to ``recorder``."""
    for owner, attribute, layer, part, weight_of, units_of in _targets():
        fn = vars(owner)[attribute] if isinstance(owner, type) else getattr(
            owner, attribute)
        setattr(owner, attribute,
                recorder.wrap(fn, layer, part, weight_of, units_of))


def self_times(spans: Iterable[Span]) -> Dict[tuple, dict]:
    """Weighted self time, call count and units per ``(layer, part)``.

    Spans of one thread either nest or are disjoint.  Each span's self time
    is its duration minus its direct children's durations; it counts
    ``weight`` times, where a span without its own weight takes that of
    the nearest enclosing span that has one.
    """
    by_thread = defaultdict(list)
    for span in spans:
        by_thread[span.tid].append(span)
    totals: Dict[tuple, dict] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "units": 0}
    )

    def close(stack):
        span, children_s, weight = stack.pop()
        duration = span.end - span.start
        entry = totals[(span.layer, span.part)]
        entry["self_s"] += (duration - children_s) * weight
        entry["calls"] += 1
        entry["units"] += span.units
        if stack:
            stack[-1][1] += duration

    for items in by_thread.values():
        items.sort(key=lambda s: (s.start, -s.end))
        stack: list = []
        for span in items:
            while stack and stack[-1][0].end <= span.start:
                close(stack)
            inherited = stack[-1][2] if stack else 1
            stack.append([span, 0.0, span.weight or inherited])
        while stack:
            close(stack)
    return dict(totals)


def layer_metrics(
    spans: List[Span],
    wall_s: float,
    server_spans: Iterable[Span] = (),
    span_cost: float = 0.0,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``wall_s`` is the traced wall: the time of the measured loop summed
    over the threads that ran it.  Spans of a serving process arrive in
    ``server_spans``: a request's time in its handler is taken out of the
    client's transport span, and the engine's weighted batch time out of
    the handlers' wait for it, so every second of the traced wall is
    counted once.  Whatever no layer claims is ``trace.untraced_remainder_s``.
    """
    server_spans = list(server_spans)
    totals = self_times(spans)
    for key, entry in self_times(server_spans).items():
        merged = totals.setdefault(key, {"self_s": 0.0, "calls": 0, "units": 0})
        for name, value in entry.items():
            merged[name] += value
    overlap = {
        "serve.transport": sum(s.end - s.start for s in server_spans
                               if s.layer == "serve.service"),
        "serve.engine": sum((s.end - s.start) * s.weight for s in server_spans
                            if (s.layer, s.part) == ("serve.engine", "batch")),
    }

    def pick(layer, part=None, stat="self_s"):
        return sum(entry[stat] for (name, p), entry in totals.items()
                   if name == layer and part in (None, p))

    metrics: Dict[str, float] = {}
    claimed = 0.0
    for layer in LAYERS:
        self_s = pick(layer) - overlap.get(layer, 0.0)
        claimed += self_s
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / wall_s
        metrics[f"{layer}.calls"] = pick(layer, stat="calls")
    for layer in SPLIT_LAYERS:
        metrics[f"{layer}.forward_s"] = pick(layer, "forward")
        metrics[f"{layer}.backward_s"] = pick(layer, "backward")
    oracle_s = metrics["core.random_oracle.self_s"]
    metrics["core.random_oracle.rows_per_s"] = (
        pick("core.random_oracle", stat="units") / oracle_s if oracle_s else 0.0
    )
    metrics["nn.predict.rows"] = pick("nn.predict", stat="units")
    metrics["search.score.candidates"] = pick("search.score", stat="units")
    metrics["serve.registry.register_s"] = pick("serve.registry", "register")
    metrics["serve.registry.load_s"] = pick("serve.registry", "load")
    metrics["jobs.queue.cells_failed"] = pick("jobs.queue", "mark_failed",
                                              "calls")
    metrics["jobs.queue.retries"] = pick("jobs.queue", "mark_done", "units")
    count = len(spans) + len(server_spans)
    metrics["trace.wall_s"] = wall_s
    metrics["trace.spans"] = count
    metrics["trace.untraced_remainder_s"] = wall_s - claimed
    metrics["trace.untraced_remainder_share"] = (wall_s - claimed) / wall_s
    metrics["trace.overhead_pct"] = 100.0 * count * span_cost / wall_s
    return metrics


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one recorded span over an unwrapped call."""
    recorder = Recorder()
    recorder.recording = True

    def noop():
        return None

    traced = recorder.wrap(noop, "calibration", "call")
    clock = time.perf_counter
    start = clock()
    for _ in range(samples):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(samples):
        traced()
    wrapped = clock() - start
    return max(wrapped - bare, 0.0) / samples


def chrome_trace(tracks: Dict[str, List[Span]], origin: float) -> dict:
    """Spans of each named process track as Chrome trace-event JSON."""
    events = []
    for pid, (track, spans) in enumerate(sorted(tracks.items()), start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": track}})
        for span in spans:
            events.append({
                "name": f"{span.layer}.{span.part}",
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": pid,
                "tid": span.tid,
                "args": {"weight": span.weight, "units": span.units},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump_spans(spans: List[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([list(span) for span in spans], handle)


def load_spans(path) -> List[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return [Span(*row) for row in json.load(handle)]
