"""The repository's benchmark: seeded workloads timed end to end and by layer.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
