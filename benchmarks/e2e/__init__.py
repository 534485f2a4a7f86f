"""End-to-end benchmark spine (see README.md in this directory).

One harness drives engine verbs only, closed loop, one client thread:
``run.py`` is the entry point ``BENCHMARK.json`` names, ``python -m
benchmarks.e2e`` the interactive one.  Nothing here is imported by
``src/repro`` or collected by the tier-1 test run.
"""
