"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --help`` from the repository root; the
benchmark's own tests run with ``python -m pytest perfbench``.
"""
