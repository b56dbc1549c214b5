"""Benchmark harness for specls; see README.md."""
