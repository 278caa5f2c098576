"""The benchmark's own tests: declared metrics, output checks, tracing
and seeded generation.  Run with ``python3 -m pytest -q perfbench/tests``
from the repository root."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.tracing import CallTracer, SpanIndex, Target

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_declared_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == PER_LAYER
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace, declared", [
    ("0", BENCH["end_to_end"]), ("1", BENCH["per_layer"]),
])
def test_smoke_printed_metrics_match_benchmark_json(trace, declared):
    proc = _run("--workload", "serve_g3", "--seed", "1", "--seconds", "2",
                "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert "fingerprint " in proc.stdout


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "coupled_g4", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_summaries_pass_unperturbed_and_fail_perturbed():
    ref = checks.load_reference()
    for name, entry in ref["workloads"].items():
        for seed, values in entry["seeds"].items():
            assert checks.check_against_reference(name, int(seed), values) == []
            for key in values:
                bad = dict(values)
                scale = checks.summary_scale(key, values) or 1.0
                bad[key] = values[key] + 10 * entry["rtol"] * scale + 1e-12
                problems = checks.check_against_reference(name, int(seed), bad)
                assert problems and key in problems[0], (name, seed, key)


class _ScaledPhysics:
    """Scales one field of a physics suite's output tendencies."""

    def __init__(self, primary, name, factor):
        self.primary, self.name, self.factor = primary, name, factor

    def _scaled(self, tend):
        return dataclasses.replace(
            tend, **{self.name: getattr(tend, self.name) * self.factor})

    def compute(self, state, wind_speed_sfc):
        return self._scaled(self.primary.compute(state, wind_speed_sfc))

    def compute_from_coupler(self, state, fields):
        return self._scaled(self.primary.compute_from_coupler(state, fields))


@pytest.mark.parametrize("name, factor", [
    (None, None), ("dqv", 1 + 1e-4), ("dtheta", 1 + 1e-4), ("gsw", 1 + 1e-6),
    ("tskin", 1 + 1e-6),
])
def test_coupled_check_catches_a_wrong_physics_output(name, factor):
    from perfbench.workloads import CoupledRun

    run = CoupledRun(0)
    if name is not None:
        run.model.physics = _ScaledPhysics(run.model.physics, name, factor)
    for _ in range(run.calls_per_unit):
        run.step()
    problems = checks.check_against_reference("coupled_g4", 0, run.summarise())
    assert bool(problems) == (name is not None), problems


def test_ensemble_check_catches_a_wrong_ml_physics_output(monkeypatch):
    from repro.ml.suite import MLPhysicsSuite

    from perfbench.workloads import EnsembleRun

    original = MLPhysicsSuite.compute_from_coupler

    def scaled(self, state, fields):
        tend = original(self, state, fields)
        return dataclasses.replace(tend, dqv=tend.dqv * (1 + 1e-4))

    # Patched on the class, so the forked member shards inherit it.
    monkeypatch.setattr(MLPhysicsSuite, "compute_from_coupler", scaled)
    run = EnsembleRun(0)
    run.step()
    problems = checks.check_against_reference("ensemble_g4", 0, run.summarise())
    assert any("qv." in p for p in problems), problems


@pytest.mark.parametrize("name", ["coupled_g4", "distributed_g4"])
def test_every_unit_after_reset_passes_the_check(name):
    """Units restart from the initial state, so the second unit repeats
    the first (checked) one whatever the host speed."""
    from perfbench.workloads import RUNS

    run = RUNS[name](1)
    try:
        for unit in range(2):
            if unit:
                run.reset()
            for _ in range(run.calls_per_unit):
                run.step()
            assert checks.check_against_reference(name, 1, run.summarise()) == []
    finally:
        run.close()


def test_serve_stats_are_read_from_the_end_of_the_warm_up():
    from perfbench.serving import stats_since

    base = {"submitted": 8, "pool": {"built": 3, "batchers": {
        "k": {"tendency": {"name": "tendency", "stacking": False, "items": 5}}}}}
    now = {"submitted": 83, "pool": {"built": 10, "batchers": {
        "k": {"tendency": {"name": "tendency", "stacking": False, "items": 9}},
        "j": {"radiation": {"name": "radiation", "stacking": None, "items": 2}}}}}
    assert stats_since(now, base) == {"submitted": 75, "pool": {"built": 7, "batchers": {
        "k": {"tendency": {"name": "tendency", "stacking": False, "items": 4}},
        "j": {"radiation": {"name": "radiation", "stacking": None, "items": 2}}}}}


def test_check_rejects_non_finite_and_missing_summaries():
    ref = {"ps.mean": 1e5, "ps.rms": 1e5}
    assert checks.compare({"ps.mean": float("nan"), "ps.rms": 1e5}, ref, 1e-9, 0)
    assert checks.compare({"ps.mean": 1e5}, ref, 1e-9, 0)


def test_mean_near_zero_is_judged_against_the_field_rms():
    ref = {"u.mean": 1e-4, "u.rms": 10.0}
    assert checks.compare({"u.mean": 1e-4 + 1e-9, "u.rms": 10.0}, ref, 1e-9, 0) == []
    assert checks.compare({"u.mean": 1e-4 + 1e-6, "u.rms": 10.0}, ref, 1e-9, 0)


def test_tracer_records_parented_spans_and_restores_originals():
    from repro.dycore import operators, solver, tendencies
    from repro.dycore.vertical import geopotential_interfaces

    originals = (solver.DynamicalCore.compute_tendencies, operators.divergence,
                 solver.geopotential_interfaces)
    tracer = CallTracer()
    tracer.install((
        Target("repro.dycore.tendencies:calc_coriolis_term", "kernel"),
        Target("repro.dycore.operators:curl", "curl"),
        Target("repro.dycore.vertical:geopotential_interfaces", "geo"),
        Target("repro.dycore.solver:DynamicalCore.compute_tendencies", "rk"),
    ))
    try:
        assert solver.geopotential_interfaces is not geopotential_interfaces
        from repro.ensemble.scenarios import build_scenario_model, get_scenario

        model = build_scenario_model("tropical", 2, 4, "DP-PHY")
        state = get_scenario("tropical").member_state(
            model.mesh, model.vcoord, 0, 0)
        model.dycore.compute_tendencies(state)
    finally:
        tracer.uninstall()
    assert (solver.DynamicalCore.compute_tendencies, operators.divergence,
            solver.geopotential_interfaces) == originals
    assert tendencies.calc_coriolis_term.__name__ == "calc_coriolis_term"
    assert not tracer.installed
    idx = SpanIndex(tracer.spans)
    (rk,) = idx.named("rk")
    (kernel,) = idx.named("kernel")
    (curl,) = idx.named("curl")
    assert kernel.parent == rk.sid and curl.parent == kernel.sid
    assert idx.has_ancestor(curl, "rk")
    assert idx.named("geo") and all(s.parent == rk.sid for s in idx.named("geo"))
    assert idx.child_seconds(rk) <= rk.dur


def test_serve_generation_is_seeded_and_stratified():
    from perfbench import serving

    dues_a, reqs_a = serving.generate(7, 20)
    dues_b, reqs_b = serving.generate(7, 20)
    _, reqs_c = serving.generate(8, 20)
    assert list(dues_a) == list(dues_b) and reqs_a == reqs_b
    assert reqs_a != reqs_c
    n = len(reqs_a)
    assert n == round(serving.RATE * 20)
    keys = [r.cache_key() for r in reqs_a]
    repeats = n - len(set(keys))
    assert repeats == round(serving.REPEAT_SHARE * n)
    distinct = {r.cache_key(): r for r in reqs_a}.values()
    m = len(distinct)
    assert sum(r.scheme == "MIX-ML" for r in distinct) == round(serving.ML_SHARE * m)
    assert sum(r.ensemble_size == 2 for r in distinct) == round(serving.ENS2_SHARE * m)
    assert sum(r.scheme == "MIX-ML" and r.ensemble_size == 2 for r in distinct) \
        == round(serving.ML_SHARE * serving.ENS2_SHARE * m)
    assert all(0 <= r.seed < serving.SEED_RANGE for r in reqs_a)
    # A repeat is due at least REPEAT_MIN_AGE_S after its original.
    first_due = {}
    for due, key in zip(dues_a, keys):
        if key in first_due:
            assert due - first_due[key] >= serving.REPEAT_MIN_AGE_S
        else:
            first_due[key] = due
