"""Tests for the benchmark's own code.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.stream_manager import Subscription

from perfbench.harness import (
    END_TO_END,
    Bench,
    children_cpu_seconds,
    cpu_seconds,
    digest,
    failed_packets,
    percentile,
)
from perfbench import probe as probe_module
from perfbench.layers import PER_LAYER
from perfbench.probe import PROBE_NOMINAL_S, Stopwatch
from perfbench.spans import Recorder, Span, patched, self_time, tree_self_times
from perfbench.workloads import WORKLOADS, e2_trace, zipf_trace

ROOT = Path(__file__).resolve().parents[2]


def packet_tuples(packets):
    return [(p.timestamp, p.data, p.interface) for p in packets]


@pytest.mark.parametrize("make", [e2_trace, zipf_trace])
def test_trace_is_identical_for_a_seed(make):
    assert packet_tuples(make(7, 3000)) == packet_tuples(make(7, 3000))
    assert packet_tuples(make(7, 3000)) != packet_tuples(make(8, 3000))


def test_self_time_subtracts_child_coverage():
    # Overlapping and out-of-span children count once, clipped to the span.
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) \
        == pytest.approx(10.0 - 3.0 - 1.0)
    tree = Span("root", 0.0, 10.0, [
        Span("a", 1.0, 5.0, [Span("b", 2.0, 3.0), Span("b", 3.5, 4.0)]),
        Span("c", 6.0, 8.0),
    ])
    assert tree_self_times(tree) == pytest.approx(
        {"root": 4.0, "a": 2.5, "b": 1.5, "c": 2.0})


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_recorder_matches_the_span_tree():
    """The online recorder gives the same self times as the tree."""
    clock = FakeClock()
    recorder = Recorder(clock=clock)
    leaf = recorder.wrap("b", lambda seconds: clock.advance(seconds))

    def middle():
        clock.advance(1.0)
        leaf(1.0)
        clock.advance(0.5)
        leaf(0.5)
        clock.advance(1.0)

    middle = recorder.wrap("a", middle)
    with recorder.span("root"):
        clock.advance(1.0)
        middle()
        clock.advance(1.0)
        recorder.wrap("c", clock.advance)(2.0)
        clock.advance(2.0)
    tree = Span("root", 0.0, 10.0, [
        Span("a", 1.0, 5.0, [Span("b", 2.0, 3.0), Span("b", 3.5, 4.0)]),
        Span("c", 6.0, 8.0),
    ])
    assert dict(recorder.self_s) == pytest.approx(tree_self_times(tree))
    assert sum(recorder.self_s.values()) == pytest.approx(10.0)
    assert recorder.calls == {"root": 1, "a": 1, "b": 2, "c": 1}


def test_generator_spans_cover_only_resumptions():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def produce():
        for _ in range(3):
            clock.advance(1.0)
            yield None

    with recorder.span("root"):
        for _ in recorder.wrap_generator("gen", produce)():
            clock.advance(2.0)
    assert recorder.self_s["gen"] == pytest.approx(3.0)
    assert recorder.self_s["root"] == pytest.approx(6.0)


def test_patched_restores_inherited_attributes():
    class Base:
        def method(self):
            return "base"

    class Child(Base):
        pass

    registry = {"kept": 1}
    with patched([(Child, "method", lambda self: "patched"),
                  (registry, "kept", 2), (registry, "added", 3)]):
        assert Child().method() == "patched"
        assert registry == {"kept": 2, "added": 3}
    assert "method" not in vars(Child)
    assert Child().method() == "base"
    assert registry == {"kept": 1}


def test_cpu_accounting_includes_children():
    burn = "import time\nend = time.process_time() + 0.3\n" \
           "while time.process_time() < end: pass\n"
    total_before = cpu_seconds()
    children_before = children_cpu_seconds()
    subprocess.run([sys.executable, "-c", burn], check=True)
    assert children_cpu_seconds() - children_before >= 0.25
    assert cpu_seconds() - total_before >= 0.25


def test_stopwatch_scales_intervals_to_the_nominal_speed(monkeypatch):
    # The host runs at half speed, then one probe reads an outlier.
    readings = iter([2 * PROBE_NOMINAL_S] * (Stopwatch.WINDOW + 1)
                    + [PROBE_NOMINAL_S / 10])
    monkeypatch.setattr(probe_module, "probe", lambda: next(readings))
    watch = Stopwatch()
    assert watch.add(1.0, 0.5) == pytest.approx(0.5)
    assert watch.add(1.0) == pytest.approx(0.5)
    assert watch.wall_raw == pytest.approx(2.0)
    assert watch.wall == pytest.approx(1.0)
    assert watch.cpu == pytest.approx(0.25)
    raw = Stopwatch(calibrate=False)
    assert raw.add(1.0, 0.5) == 1.0
    assert (raw.wall, raw.wall_raw, raw.cpu) == (1.0, 1.0, 0.5)


def test_percentile_keeps_ten_samples_beyond_it():
    values = list(range(1, 2001))
    assert percentile(values, 50) == 1000
    assert percentile(values, 99) == 1980
    # Too few samples for a p99: the highest rank ten samples below the top.
    assert percentile(list(range(1, 31)), 99) == 20
    assert percentile([5.0, 6.0, 7.0], 99) == 6.0  # not even that: median


def test_a_mismatched_round_fails_every_packet():
    rows = [(0, 10, 100), (1, 20, 200)]
    reference = digest(rows)
    perturbed = [rows[0], (1, 20, 201)]
    assert failed_packets(digest(rows), reference, 0, 500) == 0
    assert failed_packets(digest(perturbed), reference, 0, 500) == 500
    assert failed_packets(digest(rows), reference, 7, 500) == 7


@pytest.fixture(scope="module")
def small_e2():
    workload = WORKLOADS["e2_merge"]
    return Bench(workload, e2_trace(3, 6000))


def test_a_perturbed_output_row_is_counted_as_failed(small_e2):
    assert small_e2.round().failed == 0
    poll = Subscription.poll

    def perturbed(self):
        rows = poll(self)
        return [row[:-1] + (row[-1] + 1,) for row in rows]

    with patched([(Subscription, "poll", perturbed)]):
        result = small_e2.round()
    assert result.failed == len(small_e2.packets)


@pytest.mark.parametrize("name", ["e2_merge", "zipf_flows", "sharded_e2"])
def test_traced_round_runs_the_production_path(name):
    workload = WORKLOADS[name]
    bench = Bench(workload, workload.trace(5, 6000))
    plain = bench.round(count_pumps=True)
    traced = bench.round(Recorder())
    assert plain.failed == traced.failed == 0
    assert plain.signature == traced.signature
    if not workload.sharded:
        assert traced.signature["batches_fed"] > 0
        assert all(traced.signature["columnar_blocks"].values())
    layers = traced.layers
    assert set(layers) == {metric for metric, _ in PER_LAYER}
    assert layers["ledger.coverage"] == pytest.approx(1.0, abs=0.01)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
