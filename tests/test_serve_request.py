"""Cache-correctness of the forecast request schema (repro.serve.request).

The satellite contract: content-addressed keys collide exactly when the
requests are equal, every addressable field changes the key (including
the precision policy carried by the scheme label), and keys are stable
across processes so a persisted cache or a second server instance agrees
on identity.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace

import pytest

from repro.serve import ForecastRequest
from repro.serve.request import CACHE_SCHEMA, SCENARIOS, SCHEMES


class TestValidation:
    def test_defaults_valid(self):
        r = ForecastRequest()
        assert r.scenario in SCENARIOS and r.scheme in SCHEMES

    @pytest.mark.parametrize("kwargs", [
        {"scenario": "nope"},
        {"scheme": "FP-PHY"},
        {"steps": 0},
        {"nlev": 0},
        {"level": -1},
        {"ensemble_size": 0},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ForecastRequest(**kwargs)

    def test_scheme_properties(self):
        assert not ForecastRequest(scheme="DP-PHY").mixed_precision
        assert ForecastRequest(scheme="MIX-ML").mixed_precision
        assert ForecastRequest(scheme="DP-ML").ml_physics
        assert not ForecastRequest(scheme="MIX-PHY").ml_physics


class TestCacheKey:
    def test_equal_requests_equal_keys(self):
        a = ForecastRequest(level=3, steps=12, seed=7)
        b = ForecastRequest(level=3, steps=12, seed=7)
        assert a == b
        assert a.cache_key() == b.cache_key()

    @pytest.mark.parametrize("change", [
        {"level": 2},
        {"nlev": 10},
        {"steps": 24},                  # lead time
        {"scenario": "baroclinic"},
        {"ensemble_size": 4},
        {"seed": 1},
        {"scheme": "MIX-PHY"},          # precision policy flips
        {"scheme": "DP-ML"},            # physics suite flips
        {"perturbation": 0.5},
    ])
    def test_every_field_changes_key(self, change):
        base = ForecastRequest()
        assert replace(base, **change).cache_key() != base.cache_key()

    def test_no_pairwise_collisions_across_grid(self):
        requests = [
            ForecastRequest(level=lv, nlev=nl, steps=st, seed=sd,
                            scheme=sc, scenario=scn)
            for lv in (2, 3)
            for nl in (8, 10)
            for st in (6, 12)
            for sd in (0, 1)
            for sc in SCHEMES
            for scn in SCENARIOS
        ]
        keys = {r.cache_key() for r in requests}
        assert len(keys) == len(requests)

    def test_key_includes_schema_version(self):
        assert ForecastRequest().canonical()["schema"] == CACHE_SCHEMA

    def test_key_is_hex_sha256(self):
        key = ForecastRequest().cache_key()
        assert len(key) == 64
        int(key, 16)

    def test_key_stable_across_processes(self):
        """A fresh interpreter derives the same key — no salted hashing,
        no dict-order dependence, no id()-derived content."""
        req = ForecastRequest(level=3, nlev=8, steps=12, seed=42,
                              scheme="MIX-ML", scenario="baroclinic",
                              ensemble_size=2)
        code = (
            "from repro.serve import ForecastRequest;"
            "print(ForecastRequest(level=3, nlev=8, steps=12, seed=42,"
            "scheme='MIX-ML', scenario='baroclinic',"
            "ensemble_size=2).cache_key())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == req.cache_key()

    def test_key_covers_stencil_backend(self, monkeypatch):
        """Fused and reference bytes differ, so a shared cache must
        never answer one backend's request with the other's result;
        each backend's key is stable across processes."""
        keys = {}
        for backend in ("reference", "fused"):
            monkeypatch.setenv("REPRO_STENCIL_BACKEND", backend)
            assert ForecastRequest(seed=3).canonical()["stencil_backend"] == backend
            keys[backend] = ForecastRequest(seed=3).cache_key()
            out = subprocess.run(
                [sys.executable, "-c",
                 "from repro.serve import ForecastRequest;"
                 "print(ForecastRequest(seed=3).cache_key())"],
                capture_output=True, text=True, check=True,
            )
            assert out.stdout.strip() == keys[backend]
        assert keys["reference"] != keys["fused"]

    def test_model_key_excludes_state_only_fields(self):
        """Lead time, seed, ensemble size live in the state — requests
        differing only there share a pooled model."""
        a = ForecastRequest(steps=6, seed=0, ensemble_size=1)
        b = ForecastRequest(steps=24, seed=9, ensemble_size=3)
        assert a.model_key() == b.model_key()
        assert a.cache_key() != b.cache_key()
