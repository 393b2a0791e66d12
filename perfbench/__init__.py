"""Closed-loop trace-replay benchmark with a per-layer time ledger.

Run it from the repository root::

    python3 perfbench/run.py --workload e2_merge --seed 1 --seconds 10 --trace 0

See :mod:`perfbench.run` for the command line and the result format.
"""
