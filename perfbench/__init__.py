"""End-to-end and per-layer benchmark of the temporal-alignment engine.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0``
from the repository root; see ``perfbench/README.md``.
"""
