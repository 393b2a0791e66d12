"""Run the trace-replay benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload e2_merge --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

The process generates the workload's trace from ``--seed``, replays it
once through the single-process scalar engine to get the reference
output, then measures rounds for ``--seconds`` seconds:

* ``--trace 0`` -- untraced rounds; reports every end-to-end metric.
* ``--trace 1`` -- untraced and traced rounds in pairs; reports every
  per-layer metric (self time per layer, counts at the layer
  boundaries, and the tracing overhead) and checks that tracing left
  the production path unchanged.

For each workload it prints the metrics by name and unit, a JSON line
with the host fingerprint and the spread of the rounds, and, last, the
result object ``{"correct", "attempted", "failed", "metrics"}``.  It
exits 1 when any round's output differs from the reference (or a
traced round's path differs from its untraced twin), 2 on bad usage or
when the engine's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload, seed: int, seconds: float, trace: bool) -> bool:
    from perfbench.harness import Bench, host_fingerprint, measure, measure_layers

    bench = Bench(workload, workload.trace(seed))
    result = (measure_layers if trace else measure)(bench, seconds)
    for name, metric in result["metrics"].items():
        print(f"{workload.name:<11} {name:<34} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    print(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "packets_per_round": len(bench.packets),
        "host": host_fingerprint(),
        **result["detail"],
    }))
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed",
                                  "metrics")}))
    sys.stdout.flush()
    return result["correct"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: engine sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    correct = True
    for workload in chosen:
        correct &= run_workload(workload, args.seed, args.seconds,
                                bool(args.trace))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
