"""End-to-end and per-layer benchmark of the LiBRA reproduction.

``python3 perfbench/run.py --workload <campaign|grid|replay|live>`` runs
one workload; see ``perfbench/README.md``.
"""
