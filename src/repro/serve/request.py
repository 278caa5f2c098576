"""Forecast request/result schema and content addressing.

A :class:`ForecastRequest` is the unit of service: everything that
determines the bits of a forecast — grid level, vertical levels, lead
time in dynamics steps, initial-condition scenario, ensemble size, seed,
and the Table 3 scheme (which carries the precision policy and the
physics suite choice).  Two requests with equal fields are the *same*
forecast, so :meth:`ForecastRequest.cache_key` hashes the canonical
field encoding (plus a schema version and the process's resolved
stencil backend, whose kernels round differently) with SHA-256: the key
is stable across processes and hosts, and any field change — including
the precision policy — changes the key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.dycore.stencil import default_backend
from repro.ensemble.scenarios import scenario_names

#: Bump when the request encoding or the result contents change shape —
#: old cache entries must never satisfy new requests.
CACHE_SCHEMA = "forecast/2"

#: Initial-condition scenarios the serving layer can build — the
#: ensemble layer's scenario registry (legacy ``tropical``/
#: ``baroclinic`` first; their canonical encodings, and therefore every
#: pre-registry cache key, are unchanged).
SCENARIOS = scenario_names()

#: Table 3 scheme labels accepted by the server.
SCHEMES = ("DP-PHY", "MIX-PHY", "DP-ML", "MIX-ML")


@dataclass(frozen=True)
class ForecastRequest:
    """One forecast job: what to run, not how to run it."""

    level: int = 3            # icosahedral grid level
    nlev: int = 8             # vertical levels
    steps: int = 12           # lead time in dynamics steps
    scenario: str = "tropical"
    ensemble_size: int = 1
    seed: int = 0
    scheme: str = "DP-PHY"    # Table 3 label: precision x physics suite
    perturbation: float = 0.3  # initial theta perturbation amplitude [K]

    def __post_init__(self):
        # Checked against the *live* registry, not the import-time
        # SCENARIOS snapshot: scenarios registered later are servable.
        if self.scenario not in scenario_names():
            raise ValueError(
                f"unknown scenario {self.scenario!r}; "
                f"known: {scenario_names()}"
            )
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; known: {SCHEMES}"
            )
        if self.level < 0 or self.nlev < 1 or self.steps < 1:
            raise ValueError("level/nlev/steps out of range")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")

    @property
    def mixed_precision(self) -> bool:
        return self.scheme.startswith("MIX")

    @property
    def ml_physics(self) -> bool:
        return self.scheme.endswith("ML")

    def model_key(self) -> tuple:
        """The warm-pool sharing key: requests with equal keys can run
        on the same pooled model instance (lead time, seed and ensemble
        size live in the *state*, not the model)."""
        return (self.level, self.nlev, self.scheme, self.scenario)

    def canonical(self) -> dict:
        """The content-addressed encoding behind :meth:`cache_key`."""
        return {
            "schema": CACHE_SCHEMA,
            "level": self.level,
            "nlev": self.nlev,
            "steps": self.steps,
            "scenario": self.scenario,
            "ensemble_size": self.ensemble_size,
            "seed": self.seed,
            "scheme": self.scheme,
            # The scheme label implies these, but spelling them out makes
            # the key's coverage of the precision policy explicit and
            # survives any future scheme-label aliasing.
            "mixed_precision": self.mixed_precision,
            "ml_physics": self.ml_physics,
            "perturbation": float(self.perturbation),
            # Not a request field: the server builds every model on the
            # process default, and fused and reference bytes differ.
            "stencil_backend": default_backend(),
        }

    def cache_key(self) -> str:
        """SHA-256 over the canonical encoding — stable across processes
        (sorted keys, no floats-as-repr ambiguity beyond ``float()``)."""
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def state_digest(state) -> str:
    """SHA-256 over every prognostic field of a ``ModelState``."""
    h = hashlib.sha256()
    for a in (state.ps, state.u, state.theta, state.w, state.phi):
        h.update(np.ascontiguousarray(a).tobytes())
    for k in sorted(state.tracers):
        h.update(k.encode())
        h.update(np.ascontiguousarray(state.tracers[k]).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class MemberResult:
    """Final prognostics + diagnostics of one ensemble member."""

    member: int
    fields: dict               # name -> np.ndarray (final prognostics)
    digest: str                # sha256 over the fields, cheap to compare
    max_wind: float
    mean_precip: float         # time-mean, area-mean [kg/m^2/s]

    @staticmethod
    def from_state(member: int, state, model) -> "MemberResult":
        fields = {
            "ps": state.ps.copy(),
            "u": state.u.copy(),
            "theta": state.theta.copy(),
            "w": state.w.copy(),
            "phi": state.phi.copy(),
        }
        for k, v in state.tracers.items():
            fields[f"tracer.{k}"] = v.copy()
        precip = (
            float(model.history.mean_precip().mean())
            if model.history.precip else 0.0
        )
        return MemberResult(
            member=member,
            fields=fields,
            digest=state_digest(state),
            max_wind=float(np.abs(state.u).max()),
            mean_precip=precip,
        )


@dataclass(frozen=True)
class ForecastError:
    """Structured failure report attached to an errored request."""

    code: str                  # "FAULT" | "CANCELLED" | "INTERNAL"
    message: str
    faults: dict = field(default_factory=dict)   # injector summary, if any


@dataclass(frozen=True)
class ForecastResult:
    """The server's answer to one :class:`ForecastRequest`."""

    request: ForecastRequest
    key: str                   # the request's cache key
    status: str                # "ok" | "error" | "cancelled"
    members: tuple = ()        # MemberResult per ensemble member
    error: ForecastError | None = None
    cache_hit: bool = False
    wall_seconds: float = 0.0  # execution wall time (0.0 for cache hits)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def digest(self) -> str:
        """One digest over all members — the response identity."""
        h = hashlib.sha256()
        for m in self.members:
            h.update(m.digest.encode())
        return h.hexdigest()
