"""What the traced run wraps, layer by layer, and the per-layer metrics
derived from the recorded spans.

Targets name public functions and methods of the program; the wrappers
live here and in :mod:`perfbench.tracing`, never inside ``src/``.
"""

from __future__ import annotations

from perfbench.metrics import DYCORE_KERNELS, DYCORE_OPS, mean, pct
from perfbench.tracing import SpanIndex, Target


def _nbytes(args, result):
    return getattr(result, "nbytes", None)


def _steps(args, result):
    """``GristModel.run(self, state, n_dyn_steps)`` -> n_dyn_steps."""
    return args[2] if len(args) > 2 else None


def dycore_targets() -> tuple:
    from repro.dycore.stencil import STENCILS

    return (
        Target("repro.dycore.solver:DynamicalCore.step", "dycore.step"),
        Target("repro.dycore.solver:DynamicalCore.compute_tendencies",
               "dycore.rk_stage"),
        # Every registry operator, so computed bytes cover the whole
        # stencil layer; only DYCORE_OPS get their own time metrics.
        *(Target(f"repro.dycore.operators:{op}", f"dycore.op.{op}", _nbytes)
          for op in STENCILS),
        *(Target(f"repro.dycore.tendencies:{k}", f"dycore.kernel.{k}")
          for k in DYCORE_KERNELS),
        Target("repro.dycore.tracer:tracer_transport_hori_flux_limiter",
               "dycore.tracer.flux_limiter"),
        Target("repro.dycore.tracer:vertical_tracer_transport",
               "dycore.tracer.vertical"),
        Target("repro.dycore.vertical:geopotential_interfaces",
               "dycore.vertical.geopotential"),
    )


MODEL = (
    Target("repro.model.grist:GristModel.run", "model.run", _steps),
    Target("repro.model.grist:GristModel.step_physics", "model.physics_step"),
    Target("repro.model.coupler:CouplingInterface.extract",
           "model.coupler.extract"),
    Target("repro.model.coupler:CouplingInterface.apply_tendencies",
           "model.coupler.apply"),
    Target("repro.physics.column:PhysicsSuite.compute", "physics.suite"),
    Target("repro.physics.radiation:RadiationScheme.compute",
           "physics.radiation"),
    Target("repro.resilience.recovery:state_is_finite", "resilience.validate"),
)

ML = (
    Target("repro.ml.suite:MLPhysicsSuite.compute_from_coupler", "ml.suite"),
    Target("repro.ml.tendency_net:TendencyCNN.predict", "ml.tendency"),
    Target("repro.ml.radiation_net:RadiationMLP.predict", "ml.radiation"),
)

#: Distributed set-up: partitioning and the scatter that forks workers.
PARTITION = (
    Target("repro.partition.graph:mesh_cell_graph", "partition.cell_graph"),
    Target("repro.partition.metis:partition_graph", "partition.partition_graph"),
    Target("repro.partition.decomposition:decompose", "partition.decompose"),
    Target("repro.parallel.localmesh:build_local_meshes",
           "partition.local_meshes"),
    Target("repro.parallel.driver:DistributedDycore.scatter", "parallel.scatter"),
)

#: Parent-side calls of the distributed step (workers are forked before
#: these are installed, so they run untraced code).
PARALLEL = (
    Target("repro.parallel.driver:DistributedDycore.step", "parallel.step"),
    Target("repro.parallel.exchange:EdgeCellExchanger.exchange",
           "parallel.exchange"),
    Target("repro.parallel.executor:ProcessRankExecutor.compute_tendencies",
           "parallel.round"),
    Target("repro.parallel.executor:ProcessRankExecutor.sponge",
           "parallel.sponge_round"),
)

ENSEMBLE = (
    Target("repro.ensemble.runner:EnsembleRunner.run", "ensemble.run"),
    Target("repro.ensemble.products:ensemble_products", "ensemble.products"),
)

SERVE = (
    Target("repro.serve.cache:ResultCache.get", "serve.cache.get"),
    Target("repro.serve.cache:ResultCache.put", "serve.cache.put"),
    Target("repro.serve.pool:ModelPool.acquire", "serve.pool.acquire"),
    Target("repro.serve.pool:ModelPool.release", "serve.pool.release"),
    Target("repro.serve.pool:build_forecast_model", "serve.pool.build"),
    Target("repro.serve.pool:make_member_state", "serve.member_state"),
    Target("repro.serve.request:MemberResult.from_state", "serve.member_result"),
    Target("repro.model.grist:GristModel.reset", "model.reset"),
)


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def dycore_metrics(idx: SpanIndex, backend: str) -> dict:
    """Per-step dycore numbers over every ``dycore.step`` span."""
    from repro.dycore.stencil import STENCILS

    steps = idx.named("dycore.step")
    n = len(steps)
    if not n:
        return {}

    def per_step(name: str) -> float:
        return _ms(sum(s.dur for s in idx.under(name, "dycore.step"))) / n

    out = {
        "dycore.step_ms": _ms(mean([s.dur for s in steps])),
        "dycore.rk_stage_ms": _ms(mean(
            [s.dur for s in idx.under("dycore.rk_stage", "dycore.step")]
        )),
        "dycore.tracer_ms_per_step": per_step("dycore.tracer.flux_limiter")
        + per_step("dycore.tracer.vertical"),
        "dycore.vertical_ms_per_step": per_step("dycore.vertical.geopotential"),
    }
    for op in DYCORE_OPS:
        out[f"dycore.op.{op}.ms_per_step"] = per_step(f"dycore.op.{op}")
        out[f"dycore.op.{op}.calls_per_step"] = (
            len(idx.under(f"dycore.op.{op}", "dycore.step")) / n
        )
    for k in DYCORE_KERNELS:
        out[f"dycore.kernel.{k}.ms_per_step"] = per_step(f"dycore.kernel.{k}")
    covered = sum(idx.child_seconds(s) for s in steps)
    total = sum(s.dur for s in steps)
    out["dycore.unattributed_ms_per_step"] = _ms(total - covered) / n
    out["dycore.step.coverage"] = covered / total
    # "Computed" bytes: declared passes over output-sized arrays per
    # call x the output's size -- not a measurement of memory traffic.
    passes = {
        name: spec.fused_passes if backend == "fused" else spec.ref_passes
        for name, spec in STENCILS.items()
    }
    computed = 0.0
    for name, p in passes.items():
        for s in idx.under(f"dycore.op.{name}", "dycore.step"):
            computed += p * (s.value or 0)
    out["dycore.stencil.computed_bytes_per_step"] = computed / n
    return out


def model_metrics(idx: SpanIndex) -> dict:
    """Physics, coupler, validation and ML numbers."""
    physics_steps = len(idx.named("model.physics_step"))
    dyn_steps = len(idx.named("dycore.step"))
    coupler = sum(
        s.dur for s in idx.named("model.coupler.extract")
        + idx.named("model.coupler.apply")
    )
    out = {
        "physics.suite_ms_per_call": _ms(mean(
            [s.dur for s in idx.named("physics.suite")])),
        "physics.radiation_ms_per_call": _ms(mean(
            [s.dur for s in idx.named("physics.radiation")])),
        "model.coupler_ms_per_call": (
            _ms(coupler) / physics_steps if physics_steps else 0.0),
        "resilience.validate_ms_per_step": (
            _ms(sum(s.dur for s in idx.named("resilience.validate")))
            / dyn_steps if dyn_steps else 0.0),
    }
    for key, name in (("suite", "ml.suite"), ("tendency", "ml.tendency"),
                      ("radiation", "ml.radiation")):
        out[f"ml.{key}_ms_per_call"] = _ms(mean(
            [s.dur for s in idx.named(name)]))
    return out


def parallel_metrics(idx: SpanIndex) -> dict:
    steps = idx.named("parallel.step")
    n = len(steps)
    setup = [s for s in idx.spans
             if s.name.startswith("partition.") and s.parent is None]
    out = {
        "partition.build_s": sum(s.dur for s in setup),
        "parallel.scatter_s": sum(s.dur for s in idx.named("parallel.scatter")),
    }
    if not n:
        return out
    covered = sum(idx.child_seconds(s) for s in steps)
    total = sum(s.dur for s in steps)
    out.update({
        "parallel.exchange_ms_per_call": _ms(mean(
            [s.dur for s in idx.under("parallel.exchange", "parallel.step")])),
        "parallel.round_ms_per_call": _ms(mean(
            [s.dur for s in idx.under("parallel.round", "parallel.step")])),
        "parallel.sponge_round_ms": _ms(mean(
            [s.dur for s in idx.under("parallel.sponge_round", "parallel.step")])),
        "parallel.driver_self_ms_per_step": _ms(total - covered) / n,
        "parallel.step_ms_p90": _ms(pct([s.dur for s in steps], 90)),
        "parallel.step.coverage": covered / total,
    })
    return out


def span_reconciliation(idx: SpanIndex) -> dict:
    """``(parent seconds, children seconds)`` per parent span, for the
    parents reconciled from recorded spans."""
    return {
        name: [(s.dur, idx.child_seconds(s)) for s in idx.named(name)]
        for name in ("model.run", "dycore.step", "parallel.step")
    }
