"""The repository's benchmark: workloads, runner and per-layer tracing."""
