"""The repository benchmark: end-to-end and per-layer performance of
the coupled model, the distributed dycore, the ensemble engine and the
forecast service.  Run ``python3 perfbench/run.py --help``; see
``perfbench/README.md`` for the workloads and metrics."""
