"""Benchmark for chainsim; see README.md in this directory."""
