"""Metric declarations and small statistics helpers.

Every workload prints every metric below: the end-to-end set from an
untraced run (``--trace 0``) and the per-layer set from a traced run
(``--trace 1``).  A per-layer metric of a layer the workload does not
reach in the benchmark process reads 0 (see the README's table for
which workload measures what).  ``BENCHMARK.json`` declares the same
names and units; ``perfbench/tests`` checks that the two agree.
"""

from __future__ import annotations

import numpy as np

#: name -> unit.  What each means per workload is in the README.
END_TO_END: dict[str, str] = {
    "sdpd": "d/d",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: The ``dycore.operators`` facade functions timed one by one.
DYCORE_OPS = (
    "divergence", "gradient", "curl", "cell_to_edge",
    "laplacian_edge", "laplacian_cell",
)

#: Non-registry kernels of ``dycore.tendencies`` timed one by one.
DYCORE_KERNELS = (
    "calc_coriolis_term", "tend_grad_ke_at_edge", "pressure_gradient_force",
    "vertical_advection_edge", "primal_normal_flux_edge",
)

PER_LAYER: dict[str, str] = {
    "dycore.step_ms": "ms",
    "dycore.rk_stage_ms": "ms",
    **{f"dycore.op.{op}.ms_per_step": "ms" for op in DYCORE_OPS},
    **{f"dycore.op.{op}.calls_per_step": "count" for op in DYCORE_OPS},
    **{f"dycore.kernel.{k}.ms_per_step": "ms" for k in DYCORE_KERNELS},
    "dycore.tracer_ms_per_step": "ms",
    "dycore.vertical_ms_per_step": "ms",
    "dycore.unattributed_ms_per_step": "ms",
    "dycore.step.coverage": "share",
    "dycore.stencil.computed_bytes_per_step": "bytes",
    "dycore.plan_compiles": "count",
    "physics.suite_ms_per_call": "ms",
    "physics.radiation_ms_per_call": "ms",
    "model.coupler_ms_per_call": "ms",
    "resilience.validate_ms_per_step": "ms",
    "ml.suite_ms_per_call": "ms",
    "ml.tendency_ms_per_call": "ms",
    "ml.radiation_ms_per_call": "ms",
    "parallel.exchange_ms_per_call": "ms",
    "parallel.round_ms_per_call": "ms",
    "parallel.sponge_round_ms": "ms",
    "parallel.driver_self_ms_per_step": "ms",
    "parallel.step_ms_p90": "ms",
    "parallel.step.coverage": "share",
    "parallel.scatter_s": "s",
    "partition.build_s": "s",
    "comm.messages_per_step": "count",
    "comm.bytes_per_step": "bytes",
    "ensemble.run_s": "s",
    "ensemble.products_ms": "ms",
    "ensemble.plan_compiles": "count",
    "serve.queue_wait_ms_p50": "ms",
    "serve.pool.acquire_ms_p50": "ms",
    "serve.pool.build_ms": "ms",
    "serve.pool.reuse_ratio": "share",
    "serve.pool.evictions": "count",
    "serve.cache.hit_ratio": "share",
    "serve.model_run_ms_per_step": "ms",
    "serve.reset_ms": "ms",
    "serve.batcher.mean_batch_size": "count",
    "serve.batcher.stacked_fraction": "share",
    "serve.worker_busy_fraction": "share",
    "serve.generator_late_ms_max": "ms",
    "serve.request.coverage": "share",
    "serve.request.unattributed_ms": "ms",
    "serve.slo_attainment": "share",
    "obs.trace_overhead_frac": "share",
    "obs.reconcile_flagged": "count",
}


def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 if empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def result_line(
    correct: bool, attempted: int, failed: int, values: dict, units: dict
) -> dict:
    """The benchmark's final JSON object, metrics in declaration order."""
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
