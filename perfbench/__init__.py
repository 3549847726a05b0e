"""Benchmark for polylab: seeded sweep and audit workloads, timed per trial.

`run.py` is the entry point; see README.md in this directory.
"""
