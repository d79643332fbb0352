"""Self-tests of the benchmark's own helpers, on small hand-made inputs."""

from __future__ import annotations

import dataclasses
import itertools
import json
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


# -- percentile rule ---------------------------------------------------------


def test_nearest_rank_counts_samples_beyond():
    samples = list(range(1, 1001))
    assert stats.nearest_rank(samples, 99.0) == (990, 10)
    assert stats.nearest_rank(samples[:999], 99.0) == (990, 9)
    assert stats.nearest_rank([5.0], 50.0) == (5.0, 0)
    assert stats.nearest_rank([3, 1, 2], 100.0) == (3, 0)


def test_highest_percentile_keeps_ten_samples_beyond():
    assert stats.highest_percentile(list(range(10_000))) == 99.9
    assert stats.highest_percentile(list(range(1000))) == 99.0
    assert stats.highest_percentile(list(range(999))) == 95.0
    assert stats.highest_percentile(list(range(200))) == 95.0
    assert stats.highest_percentile(list(range(199))) == 90.0
    assert stats.highest_percentile(list(range(20))) == 50.0
    assert stats.highest_percentile(list(range(19))) is None
    assert stats.highest_percentile([]) is None


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50.0)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 0.0)


# -- self time ---------------------------------------------------------------


def span(id, start, end, parent=None, name="x"):
    return Span(id, name, start, end, parent, "q", 1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, 0, 100),
        span(1, 10, 40, parent=0),
        span(2, 20, 30, parent=1),
        span(3, 50, 70, parent=0),
    ]
    assert self_times(spans) == {0: 50, 1: 20, 2: 10, 3: 20}
    assert sum(self_times(spans).values()) == spans[0].duration_ns


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, 0, 100), span(1, 10, 40, parent=0), span(2, 30, 60, parent=0)]
    assert self_times(spans)[0] == 50


def test_self_time_ignores_child_time_outside_parent():
    spans = [span(0, 10, 20), span(1, 5, 15, parent=0)]
    assert self_times(spans)[0] == 5


def test_tracer_nests_spans_per_thread():
    tracer = Tracer()
    calls = SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(record):
        return calls.inner(calls.inner(0))

    calls.inner, calls.outer = inner, outer
    tracer.wrap(calls, "inner", "inner")
    tracer.wrap(calls, "outer", "outer", query_arg=0)
    barrier = threading.Barrier(2)

    def client(n):
        barrier.wait()
        for i in range(200):
            calls.outer(SimpleNamespace(id=f"{n}-{i}"))

    threads = [threading.Thread(target=client, args=(n,)) for n in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    tracer.uninstall()
    assert calls.inner is inner and calls.outer is outer

    by_id = {s.id: s for s in tracer.spans}
    outers = [s for s in tracer.spans if s.name == "outer"]
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(outers) == 400 and len(inners) == 800
    for child in inners:
        parent = by_id[child.parent]
        assert parent.name == "outer"
        assert parent.thread == child.thread and parent.query == child.query
        assert parent.start_ns <= child.start_ns <= child.end_ns <= parent.end_ns
    own = self_times(tracer.spans)
    assert sum(own.values()) == sum(s.duration_ns for s in outers)


def test_tracer_records_a_call_that_raises():
    tracer = Tracer()
    calls = SimpleNamespace(fail=lambda: 1 / 0)
    tracer.wrap(calls, "fail", "fail", observe=lambda *args: {"seen": 1})
    with pytest.raises(ZeroDivisionError):
        calls.fail()
    tracer.uninstall()
    assert [(s.name, s.info) for s in tracer.spans] == [("fail", None)]


# -- failure counting --------------------------------------------------------


def trace(query_id, error=None):
    return SimpleNamespace(query_id=query_id, error=error)


def test_failed_count_counts_errors_and_missing_traces():
    sent = ["q1", "q2", "q3", "q4"]
    traces = [trace("q1"), trace("q2", error="q2: backend down"), trace("q4")]
    assert stats.failed_count(sent, traces) == 2
    assert stats.failed_count(sent, [trace(q) for q in sent]) == 0
    assert stats.failed_count(sent, []) == 4
    assert stats.ratio(stats.failed_count(sent, traces), len(sent)) == 0.5
    assert stats.ratio(0, 0) == 0.0


def test_trace_problems_needs_one_trace_per_query_in_order():
    sent = ["q1", "q2"]
    assert stats.trace_problems(sent, [trace("q1"), trace("q2")]) == []
    assert stats.trace_problems(sent, [trace("q1")]) == ["1 traces for 2 queries"]
    assert stats.trace_problems(sent, [trace("q2"), trace("q1")]) == [
        "2 traces do not match their query id"
    ]
    assert "a query id has more than one trace" in stats.trace_problems(
        sent, [trace("q1"), trace("q1")]
    )


# -- generated inputs --------------------------------------------------------


@pytest.mark.parametrize("spec", list(workloads.WORKLOADS.values()), ids=lambda s: s.name)
def test_query_stream_is_seeded_and_reaches_every_route(spec):
    def first(seed, n=64):
        return [(g.record.id, g.record.text) for g in itertools.islice(
            workloads.query_stream(spec, seed), n)]

    assert first(7) == first(7)
    assert first(7) != first(8)
    block = [g.template for g in itertools.islice(workloads.query_stream(spec, 3), 8)]
    assert sorted(block, key=workloads.TEMPLATES.index) == list(workloads.TEMPLATES)


def test_corpus_is_seeded():
    spec = workloads.WORKLOADS["kb5k-adaptive"]
    small = dataclasses.replace(spec, distractors=50)
    corpus = workloads.make_corpus(small, 1)
    assert len(corpus) == 58
    assert corpus == workloads.make_corpus(small, 1)
    assert corpus != workloads.make_corpus(small, 2)


def test_benchmark_runs_and_prints_its_result_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "toy-fixed3",
         "--seed", "1", "--seconds", "0.2", "--trace", "1"],
        capture_output=True, text=True, timeout=120, cwd=HERE.parent,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["backends.chat_calls"]["unit"] == "calls/query"
