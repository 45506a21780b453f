"""Benchmark for the lasutility_ray engine; entry point: run.py."""
