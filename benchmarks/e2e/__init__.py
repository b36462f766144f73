"""Closed-loop end-to-end benchmark for the DD-DGMS reproduction.

One harness, four workloads, the whole pipeline from raw visit rows to an
OLAP answer and back through guidance and recovery.  See ``README.md`` in
this directory; ``BENCHMARK.json`` at the repository root is the contract.
"""
