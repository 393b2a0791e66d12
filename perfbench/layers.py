"""Which engine entry points make up each layer, and the ledger they give.

Every wrapper is installed at class, module or registry level *before*
the engine is built (the columnar decoders are bound into the schema
registry at construction, the RTS caches bound ``accept_batch`` methods
in its dispatch plans) and removed after the round.  Nothing here uses
``Gigascope.enable_tracing``: that forces the scalar path, and the
point of the ledger is to time the production block/columnar path.

Per-layer metrics (:data:`PER_LAYER`) are per round, one round being
one replay of the workload's trace; times are seconds of self time.
"""

from __future__ import annotations

import types
from typing import Dict, List, Tuple

from repro.core import engine as engine_module
from repro.core.channels import Channel
from repro.core.stream_manager import RuntimeSystem, Subscription
from repro.gsql.codegen import ExprCompiler
from repro.net import columnar
from repro.operators import lfta_table as lfta_table_module
from repro.operators.aggregation import AggregationNode
from repro.operators.lfta import LftaNode
from repro.operators.lfta_table import DirectMappedTable
from repro.operators.merge import MergeNode
from repro.replication import shipper as shipper_module
from repro.replication.shipper import ReplicationShipper
from repro.shard import runtime as shard_runtime
from repro.shard.runtime import ShardedGigascope

from perfbench.spans import Recorder

#: (name, unit) of every per-layer metric, in report order
PER_LAYER: List[Tuple[str, str]] = [
    # the ledger itself
    ("ledger.wall_s", "s"),
    ("ledger.coverage", "ratio"),
    ("capture.self_s", "s"),
    ("trace.overhead", "ratio"),
    # set-up: engine construction through start
    ("setup.self_s", "s"),
    ("gsql.parse_s", "s"),
    ("gsql.analyze_s", "s"),
    ("gsql.plan_s", "s"),
    ("gsql.codegen_s", "s"),
    # packet path
    ("feed.self_s", "s"),
    ("feed.blocks", "count"),
    ("feed.heartbeats", "count"),
    ("columnar.decode_s", "s"),
    ("columnar.packets", "count"),
    ("lfta.self_s", "s"),
    ("lfta.tuples_in", "count"),
    ("lfta.tuples_out", "count"),
    ("lfta.reduction", "ratio"),
    ("lfta_table.upsert_s", "s"),
    ("lfta_table.evict_s", "s"),
    ("lfta_table.ejections", "count"),
    ("lfta_table.collision_rate", "ratio"),
    ("stable_hash.calls", "count"),
    ("stable_hash.s", "s"),
    # post-LFTA path
    ("channel.push_s", "s"),
    ("channel.pop_s", "s"),
    ("channel.items", "count"),
    ("channel.peak_depth", "count"),
    ("channel.overflow", "count"),
    ("pump.self_s", "s"),
    ("pump.cycles", "count"),
    ("pump.items", "count"),
    ("merge.s", "s"),
    ("merge.tuples_in", "count"),
    ("merge.peak_buffered", "count"),
    ("aggregation.s", "s"),
    ("aggregation.tuples_in", "count"),
    ("aggregation.rows_out", "count"),
    ("flush.self_s", "s"),
    ("poll.s", "s"),
    ("poll.rows", "count"),
    # replication
    ("replication.cut_s", "s"),
    ("replication.encode_s", "s"),
    ("replication.frames", "count"),
    ("replication.bytes", "bytes"),
    ("replication.skipped_unquiescent", "count"),
    # shard, parent side
    ("shard.feed_self_s", "s"),
    ("shard.spawn_s", "s"),
    ("shard.wait_s", "s"),
    ("shard.frame_decode_s", "s"),
    ("shard.combine_s", "s"),
    ("shard.frames", "count"),
    ("shard.bytes", "bytes"),
    ("shard.skew", "ratio"),
    ("shard.worker_cpu_s", "s"),
]

#: span name -> per-layer metric carrying its self time
SELF_TIME_METRIC: Dict[str, str] = {
    "capture": "capture.self_s",
    "setup": "setup.self_s",
    "gsql.parse": "gsql.parse_s",
    "gsql.analyze": "gsql.analyze_s",
    "gsql.plan": "gsql.plan_s",
    "gsql.codegen": "gsql.codegen_s",
    "feed": "feed.self_s",
    "columnar.decode": "columnar.decode_s",
    "lfta": "lfta.self_s",
    "lfta_table.upsert": "lfta_table.upsert_s",
    "lfta_table.evict": "lfta_table.evict_s",
    "stable_hash": "stable_hash.s",
    "channel.push": "channel.push_s",
    "channel.pop": "channel.pop_s",
    "pump": "pump.self_s",
    "merge": "merge.s",
    "aggregation": "aggregation.s",
    "flush": "flush.self_s",
    "poll": "poll.s",
    "replication.cut": "replication.cut_s",
    "replication.encode": "replication.encode_s",
    "shard.feed": "shard.feed_self_s",
    "shard.spawn": "shard.spawn_s",
    "shard.wait": "shard.wait_s",
    "shard.frame_decode": "shard.frame_decode_s",
    "shard.combine": "shard.combine_s",
}

#: spans that belong to set-up, not to the capture loop's ledger
SETUP_SPANS = ("setup", "gsql.parse", "gsql.analyze", "gsql.plan",
               "gsql.codegen")


def _count_len(counter: str, of_result: bool = False):
    def tally(recorder: Recorder, args, result) -> None:
        recorder.count(counter, len(result if of_result else args[0]))
    return tally


def _count_pump_items(recorder: Recorder, args, result) -> None:
    recorder.count("pump.items", result)


def _merge_buffered(recorder: Recorder, args, result) -> None:
    recorder.peak("merge.peak_buffered", args[0].buffered)


def _frame_bytes(recorder: Recorder, args, result) -> None:
    recorder.count("shard.frames")
    recorder.count("shard.bytes", len(args[0]))


def setup_patches(recorder: Recorder) -> list:
    """GSQL parse, analysis, planning and code generation."""
    wrap = recorder.wrap
    patches = [
        (engine_module, "parse_queries",
         wrap("gsql.parse", engine_module.parse_queries)),
        (engine_module, "parse_query",
         wrap("gsql.parse", engine_module.parse_query)),
        (engine_module, "analyze",
         wrap("gsql.analyze", engine_module.analyze)),
        (engine_module, "plan_query",
         wrap("gsql.plan", engine_module.plan_query)),
    ]
    for name, member in vars(ExprCompiler).items():
        if isinstance(member, types.FunctionType) and (
                name == "__init__" or not name.startswith("_")):
            patches.append((ExprCompiler, name, wrap("gsql.codegen", member)))
    return patches


def packet_path_patches(recorder: Recorder) -> list:
    """The single-process engine, LFTA side through the HFTAs."""
    wrap = recorder.wrap
    patches = [
        (RuntimeSystem, "feed", wrap("feed", RuntimeSystem.feed)),
        (RuntimeSystem, "pump",
         wrap("pump", RuntimeSystem.pump, _count_pump_items)),
        (RuntimeSystem, "flush_all", wrap("flush", RuntimeSystem.flush_all)),
        (LftaNode, "accept_batch", wrap("lfta", LftaNode.accept_batch)),
        (DirectMappedTable, "upsert",
         wrap("lfta_table.upsert", DirectMappedTable.upsert)),
        (DirectMappedTable, "upsert_slices",
         recorder.wrap_generator("lfta_table.upsert",
                                 DirectMappedTable.upsert_slices)),
        (DirectMappedTable, "evict_if",
         wrap("lfta_table.evict", DirectMappedTable.evict_if)),
        (DirectMappedTable, "evict_all",
         wrap("lfta_table.evict", DirectMappedTable.evict_all)),
        (lfta_table_module, "stable_hash",
         wrap("stable_hash", lfta_table_module.stable_hash)),
        (Channel, "push_many", wrap("channel.push", Channel.push_many)),
        (Channel, "pop_many",
         wrap("channel.pop", Channel.pop_many,
              _count_len("channel.items", of_result=True))),
        (MergeNode, "dispatch",
         wrap("merge", MergeNode.dispatch, _merge_buffered)),
        (MergeNode, "dispatch_batch",
         wrap("merge", MergeNode.dispatch_batch, _merge_buffered)),
        (AggregationNode, "dispatch",
         wrap("aggregation", AggregationNode.dispatch)),
        (AggregationNode, "dispatch_batch",
         wrap("aggregation", AggregationNode.dispatch_batch)),
        (ReplicationShipper, "on_pump_end",
         wrap("replication.cut", ReplicationShipper.on_pump_end)),
        (shipper_module, "encode_snapshot",
         wrap("replication.encode", shipper_module.encode_snapshot)),
    ]
    for protocol, decode in columnar._DECODERS.items():
        patches.append((columnar._DECODERS, protocol,
                        wrap("columnar.decode", decode,
                             _count_len("columnar.packets"))))
    return patches


def shard_patches(recorder: Recorder) -> list:
    """The sharded runtime's parent: spawn, wait, frame decode, combine.

    Worker processes are forked from the traced parent; only parent-side
    entry points are wrapped, so the workers run unwrapped code.
    """
    wrap = recorder.wrap
    timed_connection = types.SimpleNamespace(
        wait=wrap("shard.wait", shard_runtime.connection.wait))
    return [
        (ShardedGigascope, "feed", wrap("shard.feed", ShardedGigascope.feed)),
        (ShardedGigascope, "_spawn",
         wrap("shard.spawn", ShardedGigascope._spawn)),
        (ShardedGigascope, "flush",
         wrap("shard.combine", ShardedGigascope.flush)),
        (shard_runtime, "connection", timed_connection),
        (shard_runtime, "decode_frame",
         wrap("shard.frame_decode", shard_runtime.decode_frame,
              _frame_bytes)),
        (shard_runtime, "unpack_rows",
         wrap("shard.frame_decode", shard_runtime.unpack_rows)),
    ]


def patches_for(recorder: Recorder, sharded: bool) -> list:
    poll = (Subscription, "poll",
            recorder.wrap("poll", Subscription.poll,
                          _count_len("poll.rows", of_result=True)))
    path = shard_patches(recorder) if sharded else packet_path_patches(recorder)
    return setup_patches(recorder) + path + [poll]


# -- the ledger of one traced round ---------------------------------------------

def layer_metrics(recorder: Recorder, engine, sharded: bool,
                  wall_s: float, worker_cpu_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced round (``trace.overhead`` aside)."""
    out = {name: 0.0 for name, _ in PER_LAYER}
    for span, total in recorder.self_s.items():
        out[SELF_TIME_METRIC[span]] = total
    capture_total = sum(total for span, total in recorder.self_s.items()
                        if span not in SETUP_SPANS)
    out["ledger.wall_s"] = wall_s
    out["ledger.coverage"] = capture_total / wall_s
    out["pump.cycles"] = recorder.calls.get("pump", 0)
    out["stable_hash.calls"] = recorder.calls.get("stable_hash", 0)
    out.update(recorder.counts)
    out.update(recorder.peaks)
    gs = engine.gs
    if sharded:
        packets = gs.shard_packets
        mean = sum(packets) / len(packets)
        out["shard.skew"] = max(packets) / mean if mean else 0.0
        out["shard.worker_cpu_s"] = worker_cpu_s
        return out
    rts = gs.rts
    out["feed.blocks"] = rts.batches_fed
    out["feed.heartbeats"] = rts.heartbeats_sent
    nodes = [node for _, node in rts.iter_nodes()]
    lftas = [node for node in nodes if isinstance(node, LftaNode)]
    tuples_in = sum(node.stats.tuples_in for node in lftas)
    out["lfta.tuples_in"] = tuples_in
    out["lfta.tuples_out"] = sum(node.stats.tuples_out for node in lftas)
    out["lfta.reduction"] = (out["lfta.tuples_out"] / tuples_in
                             if tuples_in else 0.0)
    tables = [node.table for node in lftas if node.table is not None]
    lookups = sum(table.lookups for table in tables)
    out["lfta_table.ejections"] = sum(table.collisions for table in tables)
    out["lfta_table.collision_rate"] = (
        out["lfta_table.ejections"] / lookups if lookups else 0.0)
    channels = list(rts.channels())
    out["channel.peak_depth"] = max(
        (channel.stats.max_depth for channel in channels), default=0)
    out["channel.overflow"] = sum(channel.stats.dropped for channel in channels)
    out["merge.tuples_in"] = sum(node.stats.tuples_in for node in nodes
                                 if isinstance(node, MergeNode))
    aggregations = [node for node in nodes
                    if isinstance(node, AggregationNode)]
    out["aggregation.tuples_in"] = sum(node.stats.tuples_in
                                       for node in aggregations)
    out["aggregation.rows_out"] = sum(node.stats.tuples_out
                                      for node in aggregations)
    shipper = engine.shipper
    if shipper is not None:
        out["replication.frames"] = shipper.frames_full + shipper.frames_delta
        out["replication.bytes"] = shipper.bytes_total
        out["replication.skipped_unquiescent"] = shipper.skipped_unquiescent
    return out
