"""Benchmark harness for rdcn-throughput: workloads, span tracing and layer metrics."""
