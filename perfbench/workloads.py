"""The benchmark's workloads: a seeded trace, a query set, an engine.

Each workload generates its packet trace from the ``--seed`` argument
alone (the engine receives only the packets), and builds its engine
through the public facades.  The comment at each definition says why
the workload exists and which layers it loads or bypasses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, List, Optional

from repro import Gigascope
from repro.net.packet import CapturedPacket
from repro.replication import DEFAULT_CADENCE
from repro.replication.shipper import ReplicationShipper
from repro.shard import ShardedGigascope
from repro.workloads.flows import ZipfFlowWorkload
from repro.workloads.generators import (
    http_port80_pool,
    merge_streams,
    packet_stream,
)

#: packets per round; one round replays the whole trace once
TRACE_PACKETS = 200_000

#: packets the capture loop hands to one ``feed`` call
CHUNK_PACKETS = 512

#: worker processes of the sharded workload
SHARDS = 2

E2_QUERIES = """
    DEFINE query_name link0;
    Select time, destIP, len From eth0.tcp Where destPort = 80;

    DEFINE query_name link1;
    Select time, destIP, len From eth1.tcp Where destPort = 80;

    DEFINE query_name both;
    Merge link0.time : link1.time From link0, link1;

    DEFINE query_name appmon;
    Select tb, count(*), sum(len) From both Group by time/10 as tb
"""

ZIPF_QUERY = """
    DEFINE query_name flows;
    Select tb, srcIP, destIP, count(*), sum(len)
    From tcp
    Group by time/1 as tb, srcIP, destIP
"""


def e2_trace(seed: int, count: int = TRACE_PACKETS) -> List[CapturedPacket]:
    """The E2 trace: two links of port-80 pools at 25 Mbit/s each."""
    seeds = random.Random(seed)
    pool0 = http_port80_pool(seed=seeds.randrange(2**31))
    pool1 = http_port80_pool(seed=seeds.randrange(2**31))
    # Unbounded duration, truncated at ``count``: the rate fixes the
    # virtual-time span, the count fixes the work.
    link0 = packet_stream(pool0, rate_mbps=25.0, duration_s=float("inf"),
                          interface="eth0", seed=seeds.randrange(2**31))
    link1 = packet_stream(pool1, rate_mbps=25.0, duration_s=float("inf"),
                          interface="eth1", seed=seeds.randrange(2**31))
    return list(islice(merge_streams(link0, link1), count))


def zipf_trace(seed: int, count: int = TRACE_PACKETS) -> List[CapturedPacket]:
    """Zipf(1.1) popularity over 20k TCP flows on one link."""
    workload = ZipfFlowWorkload(num_flows=20_000, alpha=1.1,
                                seed=random.Random(seed).randrange(2**31))
    return list(workload.packets(count, pps=10_000.0))


@dataclass
class Engine:
    """One built engine: the facade, the result subscription, extras."""

    gs: object
    sub: object
    shipper: Optional[ReplicationShipper] = None


def build_single(queries: str, output: str, batch_size: Optional[int] = None,
                 columnar: Optional[bool] = None) -> Engine:
    gs = Gigascope(heartbeat_interval=1.0, batch_size=batch_size,
                   columnar=columnar)
    gs.add_queries(queries)
    sub = gs.subscribe(output)
    gs.start()
    return Engine(gs, sub)


def build_shipping(queries: str, output: str) -> Engine:
    """A replication primary shipping frames into an in-memory log."""
    gs = Gigascope(heartbeat_interval=1.0)
    gs.add_queries(queries)
    sub = gs.subscribe(output)
    log: list = []
    shipper = ReplicationShipper(gs.rts, DEFAULT_CADENCE, log.append)
    gs.rts.replicator = shipper
    gs.start()
    return Engine(gs, sub, shipper=shipper)


def build_sharded(queries: str, output: str) -> Engine:
    gs = ShardedGigascope(SHARDS, heartbeat_interval=1.0)
    gs.add_queries(queries)
    sub = gs.subscribe(output)
    gs.start()
    return Engine(gs, sub)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trace: Callable[[int], List[CapturedPacket]]
    queries: str
    output: str
    build: Callable[[], Engine]
    #: the runtime forks workers per ``feed`` call, so the trace goes in
    #: as one feed per round instead of CHUNK_PACKETS chunks
    sharded: bool = False

    def build_reference(self) -> Engine:
        """The definition of correct: single-process, scalar, row-based."""
        return build_single(self.queries, self.output,
                            batch_size=1, columnar=False)


WORKLOADS: Dict[str, Workload] = {}


def _register(workload: Workload) -> None:
    WORKLOADS[workload.name] = workload


# e2_merge -- the E2 headline query on the E2 trace, unchanged.  Every
# packet passes the port-80 LFTA selections, so the channels, the MERGE
# of the two links and the time/10 aggregation carry one tuple per
# packet and do most of the work; no LFTA aggregates, so lfta_table and
# stable_hash stay idle.  Blockwise merge, pushdown and a faster HFTA
# must show here (pps, cpu_us_per_pkt), and should not move zipf_flows.
_register(Workload(
    name="e2_merge",
    why="E2 two-link port-80 merge: channels, merge and HFTA aggregation "
        "carry every packet; the LFTA table is idle",
    trace=e2_trace,
    queries=E2_QUERIES,
    output="appmon",
    build=lambda: build_single(E2_QUERIES, "appmon"),
))

# zipf_flows -- E17's production arm.  Zipf(1.1) over 20k flows is a
# working set larger than the LFTA's 4096-slot DirectMappedTable, so
# columnar decode, the LFTA kernel, stable_hash slot placement and
# ejections dominate; there is no merge and the HFTA sees only ejected
# partials (far fewer tuples than packets).  A ReplicationShipper cuts
# frames at DEFAULT_CADENCE into an in-memory log, so the table is
# serialized once per frame beside its per-packet updates: a table
# change that speeds updates but slows snapshots shows in chunk_ms_p99.
_register(Workload(
    name="zipf_flows",
    why="Zipf(1.1) over 20k flows with frame shipping: LFTA decode, "
        "table and stable_hash dominate; no merge, light HFTA",
    trace=zipf_trace,
    queries=ZIPF_QUERY,
    output="flows",
    build=lambda: build_shipping(ZIPF_QUERY, "flows"),
))

# sharded_e2 -- the e2_merge trace and queries on ShardedGigascope(2),
# two workers for two cores.  The only workload that runs shard
# partition, pipe transport, fork and the parent's combine; the
# single-process packet path runs inside the workers, out of the
# parent's ledger.  The runtime forks a new worker set per feed call,
# so the trace goes in as one feed per round.
_register(Workload(
    name="sharded_e2",
    why="e2_merge on two forked shard workers: the only workload that "
        "runs partition, pipe transport, fork and combine",
    trace=e2_trace,
    queries=E2_QUERIES,
    output="appmon",
    build=lambda: build_sharded(E2_QUERIES, "appmon"),
    sharded=True,
))
