"""The repo benchmark: four workloads, end-to-end metrics, a traced per-layer run.

Entry points: ``python3 benchmarks/layered/run.py`` (or ``python -m
benchmarks.layered.run``) and ``python -m benchmarks.layered.compare``.
See ``README.md`` in this directory for the catalogue and the protocol.
"""
