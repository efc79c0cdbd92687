"""QuCAD end-to-end benchmark: workloads, output checks, tracing."""
