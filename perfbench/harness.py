"""Rounds, the capture loop, correctness and the reported figures.

One *round* builds a fresh engine (timed as set-up), replays the whole
trace through it, flushes, and checks the output against the reference.
The capture loop is closed: the next chunk is handed over only when
``feed`` returns, with no pacing, so the engine sets the rate and the
time each ``feed`` call takes is how long a capture ring would go
undrained.

The reference is the single-process scalar run (``batch_size=1``,
``columnar=False``) of the same trace -- the project's definition of
correct.  A round whose output differs counts every one of its packets
as failed.

Reported times are calibrated to a nominal host speed with a probe
kernel timed between intervals, except the sharded workers' (see
:mod:`perfbench.probe`); the raw figures go to the run's detail line.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.layers import PER_LAYER, layer_metrics, patches_for
from perfbench.probe import Stopwatch
from perfbench.spans import Recorder, patched
from perfbench.workloads import CHUNK_PACKETS, Engine, Workload

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("pps", "packets/s"),
    ("cpu_us_per_pkt", "us"),
    ("chunk_ms_p50", "ms"),
    ("chunk_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("delivered_frac", "ratio"),
]

#: rounds measured even when ``--seconds`` runs out first
MIN_ROUNDS = 3

#: extra set-ups (engine construction through start) per run, on top
#: of the one each round makes; set-up takes milliseconds
SETUP_SAMPLES = 10


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for.

    ``RUSAGE_CHILDREN`` covers the sharded runtime's workers once they
    are joined; without it a sharded round reads as nearly free.
    """
    return time.process_time() + children_cpu_seconds()


def children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def digest(rows: Sequence[tuple]) -> str:
    return hashlib.sha256(repr(list(rows)).encode("utf-8")).hexdigest()


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile, capped so ten samples lie beyond it.

    With fewer than 1000 samples a p99 would rest on fewer than ten, so
    the highest rank that still has ten above it is reported instead,
    and never less than the median.
    """
    ordered = sorted(values)
    count = len(ordered)
    rank = math.ceil(pct / 100.0 * count)
    rank = max(min(rank, count - 10), min(rank, (count + 1) // 2))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def host_fingerprint() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def dropped_packets(engine: Engine, sharded: bool, packets: int) -> int:
    """Packets the engine lost: shed, overflowed, quarantined, dropped."""
    gs = engine.gs
    if sharded:
        if gs.quarantined or gs.shard_report()["worker_quarantined"]:
            return packets
        return (sum(gs.shard_channel_dropped)
                + sum(gs.shard_dropped_packets))
    rts = gs.rts
    if rts.nodes_quarantined:
        return packets
    lost = rts.fault_dropped
    lost += sum(getattr(node, "shed_packets", 0)
                for _, node in rts.iter_nodes())
    lost += sum(channel.stats.dropped for channel in rts.channels())
    return lost


def failed_packets(rows_digest: str, reference: str, dropped: int,
                   packets: int) -> int:
    """A mismatched output fails the whole round; else count the drops."""
    if rows_digest != reference:
        return packets
    return min(dropped, packets)


@dataclass
class Round:
    """One round's figures; times are calibrated (see perfbench.probe)."""

    setup_s: float
    wall_s: float
    wall_raw_s: float
    cpu_s: float
    chunk_s: List[float]
    digest: str
    failed: int
    #: what must not differ between a traced and an untraced round
    signature: Dict[str, Any] = field(default_factory=dict)
    layers: Optional[Dict[str, float]] = None


def signature(engine: Engine, sharded: bool, rows_digest: str,
              pumps: Optional[int]) -> Dict[str, Any]:
    gs = engine.gs
    sig: Dict[str, Any] = {"digest": rows_digest, "stats": gs.stats()}
    if not sharded:
        rts = gs.rts
        sig["batches_fed"] = rts.batches_fed
        sig["columnar_blocks"] = {
            name: node.columnar_blocks for name, node in rts.iter_nodes()
            if hasattr(node, "columnar_blocks")}
        sig["pumps"] = pumps
    return sig


def _count_pumps(rts) -> List[int]:
    """Count pump cycles through an instance attribute, without timing."""
    count = [0]
    pump = rts.pump

    def counted():
        count[0] += 1
        return pump()

    rts.pump = counted
    return count


class Bench:
    """One workload's trace, chunks and reference, ready for rounds."""

    def __init__(self, workload: Workload, packets: list) -> None:
        self.workload = workload
        self.packets = packets
        if workload.sharded:
            self.chunks = [packets]
        else:
            self.chunks = [packets[i:i + CHUNK_PACKETS]
                           for i in range(0, len(packets), CHUNK_PACKETS)]
        self.reference = self._reference()

    def _reference(self) -> str:
        engine = self.workload.build_reference()
        engine.gs.feed(self.packets)
        engine.gs.flush()
        return digest(engine.sub.poll())

    def _setup(self, recorder: Optional[Recorder]) -> Tuple[Engine, float]:
        """Engine construction through ``start``; calibrated seconds."""
        watch = Stopwatch()
        began = perf_counter()
        with recorder.span("setup") if recorder else nullcontext():
            engine = self.workload.build()
        watch.add(perf_counter() - began)
        return engine, watch.wall

    def setup_once(self) -> float:
        return self._setup(None)[1]

    def round(self, recorder: Optional[Recorder] = None,
              count_pumps: bool = False) -> Round:
        """Build, replay the trace closed-loop, flush, check.

        With a ``recorder`` the layer wrappers are installed for the
        round, before the engine is built.
        """
        if recorder is None:
            return self._replay(*self._setup(None), None, count_pumps)
        with patched(patches_for(recorder, self.workload.sharded)):
            return self._replay(*self._setup(recorder), recorder, count_pumps)

    def _replay(self, engine: Engine, setup_s: float,
                recorder: Optional[Recorder], count_pumps: bool) -> Round:
        sharded = self.workload.sharded
        gs, sub = engine.gs, engine.sub
        pumps = _count_pumps(gs.rts) if count_pumps and not sharded else None
        packets = len(self.packets)
        rows: List[tuple] = []
        chunk_s: List[float] = []
        children_before = children_cpu_seconds()
        # One span per interval: the probes between intervals belong to
        # the benchmark, not to the capture loop's ledger.
        span = recorder.span if recorder else (lambda name: nullcontext())
        watch = Stopwatch(calibrate=not sharded)

        def step(call, *args) -> float:
            """Call, then poll; returns the call's calibrated seconds."""
            cpu_began = cpu_seconds()
            with span("capture"):
                began = perf_counter()
                call(*args)
                called = perf_counter()
                rows.extend(sub.poll())
                ended = perf_counter()
            factor = watch.add(ended - began, cpu_seconds() - cpu_began)
            return (called - began) * factor

        for chunk in self.chunks:
            chunk_s.append(step(gs.feed, chunk, CHUNK_PACKETS))
        step(gs.flush)
        rows_digest = digest(rows)
        failed = failed_packets(rows_digest, self.reference,
                                dropped_packets(engine, sharded, packets),
                                packets)
        result = Round(setup_s, watch.wall, watch.wall_raw, watch.cpu,
                       chunk_s, rows_digest, failed)
        if count_pumps:
            result.signature = signature(engine, sharded, rows_digest,
                                         pumps[0] if pumps else None)
        if recorder is not None:
            result.layers = layer_metrics(
                recorder, engine, sharded, watch.wall_raw,
                children_cpu_seconds() - children_before)
            result.signature = signature(
                engine, sharded, rows_digest,
                recorder.calls.get("pump", 0) if not sharded else None)
        return result


def _rounds_until(deadline: float, make) -> list:
    done = []
    while len(done) < MIN_ROUNDS or time.monotonic() < deadline:
        done.append(make())
    return done


def measure(bench: Bench, seconds: float) -> Dict[str, Any]:
    """The untraced run: every end-to-end metric, from rounds."""
    setups = [bench.setup_once() for _ in range(SETUP_SAMPLES)]
    rounds = _rounds_until(time.monotonic() + seconds, bench.round)
    packets = len(bench.packets)
    pps = [packets / r.wall_s for r in rounds]
    cpu = [r.cpu_s / packets * 1e6 for r in rounds]
    chunks_ms = [s * 1e3 for r in rounds for s in r.chunk_s]
    setups += [r.setup_s for r in rounds]
    attempted = packets * len(rounds)
    failed = sum(r.failed for r in rounds)
    values = {
        "pps": statistics.median(pps),
        "cpu_us_per_pkt": statistics.median(cpu),
        "chunk_ms_p50": percentile(chunks_ms, 50),
        "chunk_ms_p99": percentile(chunks_ms, 99),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "delivered_frac": 1.0 - failed / attempted,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END},
        "detail": {
            "rounds": len(rounds),
            "chunk_samples": len(chunks_ms),
            "setup_samples": len(setups),
            "spread": {"pps": spread(pps), "cpu_us_per_pkt": spread(cpu),
                       "setup_s": spread(setups)},
            "pps_rounds": pps,
            # uncalibrated, and the host's speed against nominal
            "raw_pps": statistics.median(packets / r.wall_raw_s
                                         for r in rounds),
            "host_speed": statistics.median(r.wall_s / r.wall_raw_s
                                            for r in rounds),
        },
    }


def measure_layers(bench: Bench, seconds: float) -> Dict[str, Any]:
    """The traced run: per-layer metrics, interleaved with untraced rounds.

    Each pair is an untraced round then a traced one on fresh engines.
    Their output digest, ``rts.batches_fed``, every LFTA's
    ``columnar_blocks``, the pump count and the engine statistics must
    be equal, which shows the wrappers left the production path alone.
    """
    pairs = _rounds_until(
        time.monotonic() + seconds,
        lambda: (bench.round(count_pumps=True), bench.round(Recorder())))
    packets = len(bench.packets)
    diverged = sum(plain.signature != traced.signature
                   for plain, traced in pairs)
    rounds = [r for pair in pairs for r in pair]
    attempted = packets * len(rounds)
    failed = min(attempted,
                 sum(r.failed for r in rounds) + packets * diverged)
    plain_wall = statistics.median(plain.wall_s for plain, _ in pairs)
    traced_wall = statistics.median(traced.wall_s for _, traced in pairs)
    values = {name: statistics.median(traced.layers[name]
                                      for _, traced in pairs)
              for name, _ in PER_LAYER if name != "trace.overhead"}
    values["trace.overhead"] = traced_wall / plain_wall - 1.0
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER},
        "detail": {
            "pairs": len(pairs),
            "diverged_pairs": diverged,
            "untraced_pps": packets / plain_wall,
            "traced_pps": packets / traced_wall,
            "raw_untraced_pps": packets / statistics.median(
                plain.wall_raw_s for plain, _ in pairs),
            "coverage_rounds": [traced.layers["ledger.coverage"]
                                for _, traced in pairs],
        },
    }
