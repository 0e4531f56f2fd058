"""Benchmark of the relational matrix algebra: workloads, tracing, metrics."""
