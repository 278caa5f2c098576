"""The time-boxed workloads (``coupled_g4``, ``distributed_g4``,
``ensemble_g4``), plus what every workload shares; ``serve_g3`` is in
:mod:`perfbench.serving`.

Each workload runs in its own process and returns an :class:`Outcome`:
the end-to-end metrics of an untraced run (``trace=False``) or the
per-layer metrics of a traced run (``trace=True``), the attempted and
failed operation counts, and the result of its output checks.

A time-boxed workload repeats a fixed *unit* of work — 36 dynamics
steps (one radiation period of the G4 cadence) or one ensemble forecast
— and starts another unit only while it is expected to end within half
a unit of ``--seconds``.  Every unit starts from the same initial state
(``reset()`` between units, untimed), so every unit is the same
computation whatever the host speed: a run never integrates past the
36 steps the output check covers, and the cost of a step does not
depend on how many units came before it.  ``serve_g3`` is an open loop: requests are due
on a seeded schedule spread over ``--seconds`` and are sent on time
whatever the service is doing.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import layers
from perfbench.checks import (
    check_against_reference,
    field_summaries,
    scenario_seed,
)
from perfbench.metrics import PER_LAYER, mean, pct, ratio
from perfbench.tracing import CallTracer, SpanIndex, reconcile

#: Set-ups timed before the first unit of an untraced run; one more is
#: timed after every unit, so the samples spread over the window (host
#: speed drifts over seconds).  ``setup_s`` is the median of them all.
SETUP_BEFORE = 4
#: Dynamics steps per unit of the stepped workloads: one radiation
#: period of the G4 cadence (tracer every 6, physics every 12).
UNIT_STEPS = 36


@dataclass
class Outcome:
    values: dict
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    tracer: CallTracer | None = None
    extra_events: list = field(default_factory=list)
    reconciliation: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of its reaped
    children (forked ranks and ensemble shards)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def timed(build):
    """``(wall seconds, result)`` of one ``build()`` after a collection."""
    gc.collect()
    t0 = time.perf_counter()
    obj = build()
    return time.perf_counter() - t0, obj


def run_units(seconds: float, unit, min_units: int) -> list:
    """Call ``unit(i)`` (which returns its own wall time) until the
    window is used; a unit starts only if it should end within half a
    unit of ``seconds``."""
    walls: list = []
    spent = 0.0
    while len(walls) < min_units or spent + 0.5 * mean(walls) <= seconds:
        w = unit(len(walls))
        walls.append(w)
        spent += w
    return walls


def per_layer_values(measured: dict) -> dict:
    """Every per-layer metric, 0 where this workload does not reach the
    layer in the benchmark process."""
    unknown = set(measured) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: measured.get(name, 0.0) for name in PER_LAYER}


def overhead(traced: list, untraced: list) -> float:
    """Traced against untraced median of the same unit of work."""
    return statistics.median(traced) / statistics.median(untraced) - 1.0


def _timed_workload(
    name: str, seed: int, seconds: float, trace: bool, make,
    targets: tuple, setup_targets: tuple = (),
) -> Outcome:
    """Shared driver of the time-boxed workloads.

    ``make()`` builds the workload object (see :class:`CoupledRun`);
    each unit is ``run.calls_per_unit`` calls of ``run.step()``, each
    advancing ``run.steps_per_call`` (member-)steps of ``run.dt``
    seconds and counting ``run.ops_per_call`` operations, after a
    ``run.reset()`` to the initial state.  The output check runs after
    every unit.  In a traced run the units
    alternate untraced/traced: per-layer numbers come from the traced
    units, ``obs.trace_overhead_frac`` from the two medians.
    """
    from repro.dycore.stencil import default_backend, plan_compile_count

    tracer = CallTracer() if trace else None
    setup_times: list = []

    def setup_sample() -> None:
        t, obj = timed(make)
        obj.close()
        setup_times.append(t)

    if not trace:
        for _ in range(SETUP_BEFORE - 1):
            setup_sample()
    c0 = plan_compile_count()
    if tracer is not None:
        tracer.install(setup_targets)
    try:
        t, run = timed(make)
        setup_times.append(t)
    finally:
        if tracer is not None:
            tracer.uninstall()
    compiles = plan_compile_count() - c0
    step_ms: list = []
    problems: list = []
    traced_walls, plain_walls = [], []
    attempted = 0

    def unit(i: int) -> float:
        nonlocal attempted
        if i:
            run.reset()
        traced = trace and i % 2 == 1
        if traced:
            tracer.install(targets)
        t_unit = time.perf_counter()
        try:
            for _ in range(run.calls_per_unit):
                attempted += run.ops_per_call
                t0 = time.perf_counter()
                run.step()
                step_ms.append(
                    1e3 * (time.perf_counter() - t0) / run.steps_per_call)
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - t_unit
        (traced_walls if traced else plain_walls).append(wall)
        if not problems:
            problems.extend(check_against_reference(name, seed, run.summarise()))
        if not trace:
            setup_sample()
        return wall

    walls: list = []
    try:
        walls = run_units(seconds, unit, 2 if trace else 1)
        final = run.summarise()
        if not all(np.isfinite(v) for v in final.values()):
            problems.append(f"non-finite state at the end of the run: {final}")
    except Exception as exc:
        problems.append(f"operation {attempted} raised {type(exc).__name__}: {exc}")
    finally:
        run.close()
    out = Outcome(values={}, attempted=attempted,
                  failed=attempted if problems else 0,
                  problems=problems, tracer=tracer)
    if not trace:
        out.values = {
            "sdpd": ratio(len(step_ms) * run.steps_per_call * run.dt,
                          sum(walls)),
            "step_ms_p50": pct(step_ms, 50),
            "step_ms_p90": pct(step_ms, 90),
            "latency_p50_s": pct(walls, 50),
            "latency_p90_s": pct(walls, 90),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        out.notes.append(
            f"{len(step_ms)} calls of {run.steps_per_call} step(s) in "
            f"{len(walls)} units; window {sum(walls):.2f} s; "
            f"{len(setup_times)} set-ups"
        )
        return out
    idx = SpanIndex(tracer.spans)
    out.reconciliation = reconcile(layers.span_reconciliation(idx))
    out.values = per_layer_values({
        **layers.dycore_metrics(idx, default_backend()),
        **layers.model_metrics(idx),
        **layers.parallel_metrics(idx),
        "dycore.plan_compiles": compiles,
        **run.layer_metrics(idx, attempted),
        "obs.trace_overhead_frac": (
            overhead(traced_walls, plain_walls)
            if traced_walls and plain_walls else 0.0),
        "obs.reconcile_flagged": sum(r["flagged"] for r in out.reconciliation),
    })
    return out


def dt_dyn(level: int, nlev: int) -> float:
    from repro.model.config import scaled_grid_config

    return scaled_grid_config(level, nlev).dt_dyn


class SteppedRun:
    """Defaults of a workload object whose ``step()`` is one dynamics
    step: 36 of them per unit, one operation each."""

    calls_per_unit = UNIT_STEPS
    steps_per_call = 1
    ops_per_call = 1

    def reset(self) -> None:
        """Return to the initial state before the next unit."""

    def layer_metrics(self, idx: SpanIndex, ops: int) -> dict:
        """Workload-specific per-layer metrics of a traced run."""
        return {}

    def close(self) -> None:
        pass


# -- coupled_g4 --------------------------------------------------------------

class CoupledRun(SteppedRun):
    """One GristModel (tropical, G4 L10, DP-PHY), member 0 of the
    scenario seed, stepped serially in-process."""

    def __init__(self, sc_seed: int):
        from repro.ensemble.scenarios import build_scenario_model, get_scenario

        self.model = build_scenario_model("tropical", 4, 10, "DP-PHY")
        self.initial = get_scenario("tropical").member_state(
            self.model.mesh, self.model.vcoord, 0, sc_seed
        )
        self.state = self.initial.copy()
        self.dt = self.model.grid_config.dt_dyn

    def reset(self) -> None:
        self.model.reset()
        self.state = self.initial.copy()

    def step(self) -> None:
        self.state = self.model.run(self.state, 1)

    def summarise(self) -> dict:
        """Prognostics, moisture, and the radiation and surface
        diagnostics of every physics step so far."""
        s, hist = self.state, self.model.history
        return field_summaries(
            {"ps": s.ps, "u": s.u, "theta": s.theta, "qv": s.tracers["qv"]},
            {"gsw.mean": float(np.mean(hist.gsw)),
             "glw.mean": float(np.mean(hist.glw)),
             "tskin.mean": float(np.mean(hist.tskin_mean))},
        )


def coupled_g4(seed: int, seconds: float, trace: bool) -> Outcome:
    return _timed_workload(
        "coupled_g4", seed, seconds, trace,
        lambda: CoupledRun(scenario_seed(seed)),
        targets=layers.dycore_targets() + layers.MODEL + layers.ML,
    )


# -- distributed_g4 -----------------------------------------------------------

class DistributedRun(SteppedRun):
    """DistributedDycore (G4 L10, 8 ranks, 2 forked workers, lockstep)
    scattered from the ``baroclinic`` scenario's member 0."""

    def __init__(self, sc_seed: int):
        from repro.dycore.solver import DycoreConfig
        from repro.dycore.vertical import VerticalCoordinate
        from repro.ensemble.scenarios import get_scenario
        from repro.grid import build_mesh
        from repro.parallel.driver import DistributedDycore

        self.dt = dt_dyn(4, 10)
        mesh = build_mesh(4)
        vc = VerticalCoordinate.stretched(10)
        self.dd = DistributedDycore(
            mesh, vc, DycoreConfig(dt=self.dt), nparts=8, workers=2
        )
        self.initial = get_scenario("baroclinic").member_state(
            mesh, vc, 0, sc_seed)
        self.dd.scatter(self.initial)
        self.comm_start = self.dd.comm_stats()
        self.comm_end = None

    def reset(self) -> None:
        """Scatter the initial state again (this re-forks the workers).

        Without it the run integrates on for as many steps as the window
        allows, and this dycore-only baroclinic state turns non-finite
        after some 330 steps at G4.
        """
        self.dd.scatter(self.initial)

    def step(self) -> None:
        self.dd.step()

    def summarise(self) -> dict:
        return field_summaries(dict(zip(("ps", "u", "theta"), self.dd.gather())))

    def layer_metrics(self, idx: SpanIndex, ops: int) -> dict:
        """Exact message and byte counts per step from comm_stats()."""
        if not ops or self.comm_end is None:
            return {}
        return {
            metric: (self.comm_end[key] - self.comm_start[key]) / ops
            for key, metric in (("messages", "comm.messages_per_step"),
                                ("bytes", "comm.bytes_per_step"))
        }

    def close(self) -> None:
        if self.comm_end is None:
            self.comm_end = self.dd.comm_stats()
        self.dd.close()


def distributed_g4(seed: int, seconds: float, trace: bool) -> Outcome:
    return _timed_workload(
        "distributed_g4", seed, seconds, trace,
        lambda: DistributedRun(scenario_seed(seed)),
        targets=layers.PARALLEL, setup_targets=layers.PARTITION,
    )


# -- ensemble_g4 ---------------------------------------------------------------

ENSEMBLE_MEMBERS = 4
ENSEMBLE_STEPS = 36


def ensemble_summaries(result) -> dict:
    """Prognostics and moisture over all members; ``qv`` carries the
    ML physics tendencies (no rain forms within the checked run)."""
    return field_summaries({
        name: np.concatenate([m.fields[key] for m in result.members])
        for name, key in (("ps", "ps"), ("u", "u"), ("theta", "theta"),
                          ("qv", "tracer.qv"))
    })


def make_runner(sc_seed: int, steps: int = ENSEMBLE_STEPS):
    from repro.ensemble.runner import EnsembleRunner

    return EnsembleRunner(
        "typhoon_family", n_members=ENSEMBLE_MEMBERS, level=4, nlev=10,
        steps=steps, scheme="MIX-ML", seed=sc_seed, workers=2,
    )


class EnsembleRun(SteppedRun):
    """EnsembleRunner: 4 typhoon_family members, MIX-ML, 36 steps,
    2 forked shards; ``step()`` is one whole ensemble forecast.

    Every ``run()`` forks its shards, and each shard builds its own
    model before stepping, so the set-up a run pays is measured as a
    zero-step ``run()`` of the same runner configuration: fork, shard
    model builds (mesh, surface, seeded nets, stencil plan), member
    initial states and products.
    """

    calls_per_unit = 1
    steps_per_call = ENSEMBLE_MEMBERS * ENSEMBLE_STEPS
    ops_per_call = ENSEMBLE_MEMBERS

    def __init__(self, sc_seed: int):
        make_runner(sc_seed, steps=0).run()
        self.runner = make_runner(sc_seed)
        self.dt = dt_dyn(4, 10)
        self.first_digests = None
        self.summary = None
        self.plan_compiles: list = []

    def step(self) -> None:
        res = self.runner.run()
        self.plan_compiles.append(res.plan_compiles)
        # Keep digests and summaries, not results: member fields held in
        # the parent would be counted again in every shard forked later.
        if self.first_digests is None:
            self.first_digests = res.member_digests()
        elif res.member_digests() != self.first_digests:
            raise RuntimeError("an ensemble run differs from the first")
        self.summary = ensemble_summaries(res)

    def summarise(self) -> dict:
        return self.summary

    def layer_metrics(self, idx: SpanIndex, ops: int) -> dict:
        return {
            "ensemble.run_s": mean([s.dur for s in idx.named("ensemble.run")]),
            "ensemble.products_ms": 1e3 * mean(
                [s.dur for s in idx.named("ensemble.products")]),
            "ensemble.plan_compiles": mean(self.plan_compiles),
        }


def ensemble_g4(seed: int, seconds: float, trace: bool) -> Outcome:
    return _timed_workload(
        "ensemble_g4", seed, seconds, trace,
        lambda: EnsembleRun(scenario_seed(seed)),
        targets=layers.ENSEMBLE,
    )


RUNS = {"coupled_g4": CoupledRun, "distributed_g4": DistributedRun,
        "ensemble_g4": EnsembleRun}


def reference_summaries(name: str, sc_seed: int) -> dict:
    """The checked summary of ``name``'s unit for a scenario seed."""
    run = RUNS[name](sc_seed)
    try:
        for _ in range(run.calls_per_unit):
            run.step()
        return run.summarise()
    finally:
        run.close()
