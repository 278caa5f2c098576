"""The dynamical core driver: explicit horizontal RK + implicit vertical.

One :meth:`DynamicalCore.step` advances the prognostic state by the
dynamics timestep using a 2-stage SSP Runge–Kutta over the horizontally
explicit terms, followed (in nonhydrostatic mode) by the implicit
acoustic w–phi adjustment of :mod:`repro.dycore.hevi`.  Tracers advance
on a longer timestep from accumulated mass fluxes (Table 2 uses
dyn:trac = 4 s : 30 s at G12).

The precision policy threads through every term so the MIX
configurations (Table 3) run genuinely reduced precision with the
sensitive terms (PGF, gravity/implicit solve, mass-flux accumulation)
pinned to double.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.dycore import operators as ops
from repro.dycore import tendencies as tend
from repro.dycore.hevi import implicit_w_solve
from repro.dycore.state import ModelState
from repro.dycore.tracer import (
    MassFluxAccumulator,
    tracer_transport_hori_flux_limiter,
    vertical_tracer_transport,
)
from repro.dycore.vertical import VerticalCoordinate, geopotential_interfaces
from repro.grid.mesh import Mesh
from repro.obs import SpanKind, get_metrics, get_tracer
from repro.precision.policy import PrecisionPolicy


@dataclass
class DycoreConfig:
    """Numerical configuration of the core.

    ``tracer_ratio`` dynamics sub-steps form one tracer step (Table 2's
    Dyn=4 s / Trac=30 s gives 7.5; we round to integers).
    """

    dt: float = 300.0
    nonhydrostatic: bool = False
    tracer_ratio: int = 6
    #: Nondimensional horizontal diffusion strength (nu = C * de^2 / dt).
    diffusion_coeff: float = 0.04
    #: Divergence damping: the simplified (non-TRSK) tangential-velocity
    #: reconstruction makes the nonlinear Coriolis term weakly
    #: energy-inconsistent, pumping a slow grid-scale divergent mode in
    #: strongly stratified columns; strong divergence damping (plus the
    #: top sponge) is the standard countermeasure and kills it.
    divergence_damping: float = 0.15
    policy: PrecisionPolicy = field(default_factory=PrecisionPolicy)
    #: 3 = SSP-RK3 (default; stable for the oscillatory inertia-gravity
    #: modes Heun's RK2 weakly amplifies), 2 = Heun, 1 = forward Euler.
    rk_stages: int = 3
    #: Rayleigh sponge at the model top: number of damped levels and the
    #: damping timescale at the lid (relaxing winds and theta anomalies;
    #: every real core carries one — grid-scale divergent modes otherwise
    #: amplify in the thin uppermost layers).
    sponge_levels: int = 3
    sponge_timescale: float = 1.0e4
    #: Stencil backend the core's operators compile to ("fused" — the
    #: default — or "reference", the bitwise oracle; ``None`` keeps the
    #: mesh/env default).  Bound to the mesh at construction, so the distributed
    #: driver's rank-local cores inherit the same backend through the
    #: shared config.  See :mod:`repro.dycore.stencil`.
    stencil_backend: str | None = None


@dataclass
class Tendencies:
    ps: np.ndarray
    u: np.ndarray
    theta_mass: np.ndarray   # d(dpi * theta)/dt
    flux_edge: np.ndarray    # the mass flux used (for accumulation)


class DynamicalCore:
    """GRIST-style hexagonal C-grid solver on one global mesh."""

    def __init__(self, mesh: Mesh, vcoord: VerticalCoordinate, config: DycoreConfig | None = None):
        self.mesh = mesh
        self.vcoord = vcoord
        self.config = config or DycoreConfig()
        if self.config.stencil_backend is not None:
            ops.bind_stencil_backend(mesh, self.config.stencil_backend)
        # Compile this mesh's kernel plan up front (idempotent): the hot
        # loop never pays first-call compilation, and forked rank workers
        # inherit a fully built, immutable-after-publish plan.
        ops.compiled_kernels(mesh)
        self.flux_acc = MassFluxAccumulator(mesh.ne, vcoord.nlev)
        # Diffusion scales with the *global* grid spacing of this level
        # (not the instance's mean edge length) so a rank-local submesh
        # uses exactly the same coefficient as the serial solver.
        from repro.grid.icosahedral import grid_mean_spacing_km

        de = grid_mean_spacing_km(mesh.level, mesh.radius) * 1000.0
        self._nu = self.config.diffusion_coeff * de**2 / self.config.dt
        self._nu_div = self.config.divergence_damping * de**2 / self.config.dt
        self._steps = 0

    # -- tendency evaluation ------------------------------------------------
    def compute_tendencies(self, state: ModelState) -> Tendencies:
        mesh, vc, pol = self.mesh, self.vcoord, self.config.policy
        dpi = state.dpi()
        p_mid = state.p_mid()

        # Geopotential: prognostic in NH mode, hydrostatic otherwise.
        if self.config.nonhydrostatic:
            phi = state.phi
        else:
            p_int = vc.pressure_interfaces(state.ps)
            phi = geopotential_interfaces(state.phi_surface, state.theta, p_int)
        phi_mid = 0.5 * (phi[:, :-1] + phi[:, 1:])

        # Mass flux and continuity.
        F = tend.primal_normal_flux_edge(mesh, dpi, state.u, pol)
        D = ops.divergence(mesh, F)                       # (nc, nlev)
        ps_tend = -D.sum(axis=1)
        M = tend.vertical_mass_flux(mesh, vc.b_interfaces, D)

        # Momentum.
        u_tend = tend.calc_coriolis_term(mesh, state.u, policy=pol)
        u_tend = u_tend + tend.tend_grad_ke_at_edge(mesh, state.u, pol)
        u_tend = u_tend + tend.pressure_gradient_force(
            mesh, state.theta, p_mid, phi_mid, pol
        )
        u_tend = u_tend + tend.vertical_advection_edge(mesh, M, dpi, state.u)
        u_tend = u_tend + self._nu * ops.laplacian_edge(mesh, state.u)
        u_tend = u_tend + self._nu_div * ops.gradient(mesh, ops.divergence(mesh, state.u))

        # Potential temperature in flux form.
        theta_e = ops.cell_to_edge(mesh, state.theta.astype(pol.ns))
        theta_div = ops.divergence(mesh, F * theta_e)
        theta_mass_tend = -theta_div + tend.vertical_advection_cell(M, state.theta)
        theta_mass_tend = theta_mass_tend + self._nu * dpi * ops.laplacian_cell(
            mesh, state.theta
        )
        return Tendencies(
            ps=np.asarray(ps_tend, dtype=np.float64),
            u=np.asarray(u_tend, dtype=np.float64),
            theta_mass=np.asarray(theta_mass_tend, dtype=np.float64),
            flux_edge=np.asarray(F, dtype=np.float64),
        )

    def _apply(self, state: ModelState, tds: Tendencies, dt: float) -> ModelState:
        new = state.copy()
        dpi_old = state.dpi()
        new.ps = state.ps + dt * tds.ps
        new.u = state.u + dt * tds.u
        dpi_new = new.dpi()
        new.theta = (dpi_old * state.theta + dt * tds.theta_mass) / dpi_new
        new.time = state.time + dt
        return new

    @staticmethod
    def _combine(t_list: list, weights: list) -> Tendencies:
        """Weighted combination of tendency sets."""
        return Tendencies(
            ps=sum(w * t.ps for w, t in zip(weights, t_list)),
            u=sum(w * t.u for w, t in zip(weights, t_list)),
            theta_mass=sum(w * t.theta_mass for w, t in zip(weights, t_list)),
            flux_edge=sum(w * t.flux_edge for w, t in zip(weights, t_list)),
        )

    # -- time stepping -------------------------------------------------------
    def step(self, state: ModelState) -> ModelState:
        """Advance one dynamics step (SSP-RK + implicit vertical).

        SSP-RK3 (default) in its equivalent increment form: the final
        update is ``state + dt * (1/6 L(s0) + 1/6 L(s1) + 2/3 L(s2))``
        with ``s1 = s0 + dt L(s0)`` and
        ``s2 = s0 + dt/4 (L(s0) + L(s1))`` — stable for the oscillatory
        inertia-gravity modes that plain Heun weakly amplifies.
        """
        dt = self.config.dt
        tracer = get_tracer()
        wall0 = time.perf_counter()
        with tracer.span("dycore.step", SpanKind.DYN_STEP, step=self._steps):
            def stage(k: int, st: ModelState) -> Tendencies:
                with tracer.span("dycore.rk_stage", SpanKind.RK_STAGE, stage=k):
                    return self.compute_tendencies(st)

            t1 = stage(1, state)
            if self.config.rk_stages >= 3:
                s1 = self._apply(state, t1, dt)
                t2 = stage(2, s1)
                half = self._combine([t1, t2], [0.5, 0.5])
                s2 = self._apply(state, half, 0.5 * dt)
                t3 = stage(3, s2)
                used = self._combine([t1, t2, t3], [1 / 6, 1 / 6, 2 / 3])
                s1 = self._apply(state, used, dt)
            elif self.config.rk_stages == 2:
                s1 = self._apply(state, t1, dt)
                t2 = stage(2, s1)
                used = self._combine([t1, t2], [0.5, 0.5])
                s1 = self._apply(state, used, dt)
            else:
                used = t1
                s1 = self._apply(state, t1, dt)
            # Accumulate the mass flux for the tracer step — always double.
            self.flux_acc.add(used.flux_edge)

            if self.config.nonhydrostatic:
                with tracer.span("dycore.implicit_w", SpanKind.VERTICAL_SOLVE):
                    dpi_new = s1.dpi()
                    s1.w, s1.phi = implicit_w_solve(
                        s1.w, s1.phi, dpi_new, s1.theta, dt
                    )
            else:
                with tracer.span("dycore.hydrostatic_phi", SpanKind.VERTICAL_SOLVE):
                    p_int = self.vcoord.pressure_interfaces(s1.ps)
                    s1.phi = geopotential_interfaces(
                        s1.phi_surface, s1.theta, p_int
                    )

            if self.config.sponge_levels > 0:
                with tracer.span("dycore.sponge", SpanKind.SPONGE):
                    self._apply_sponge(s1, dt)

            self._steps += 1
            if self._steps % self.config.tracer_ratio == 0:
                with tracer.span(
                    "dycore.tracer_step", SpanKind.TRACER_STEP,
                    n_tracers=len(s1.tracers),
                ):
                    self._tracer_step(state, s1)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("dycore.steps")
            metrics.observe("dycore.step_wall_seconds", time.perf_counter() - wall0)
        return s1

    def _apply_sponge(self, state: ModelState, dt: float) -> None:
        """Scale-selective sponge on the top ``sponge_levels`` layers.

        Applies extra Laplacian diffusion to winds and theta, ramping
        from full strength at the lid to zero at the sponge base.  Being
        diffusive (not Rayleigh-to-zero), it leaves smooth balanced flow
        untouched while killing the grid-scale modes that amplify in the
        thin uppermost layers.
        """
        nsp = min(self.config.sponge_levels, self.vcoord.nlev - 1)
        from repro.grid.icosahedral import grid_mean_spacing_km

        de2 = (grid_mean_spacing_km(self.mesh.level, self.mesh.radius) * 1000.0) ** 2
        u_sp = state.u[:, :nsp]
        th_sp = state.theta[:, :nsp]
        ramp = (1.0 - np.arange(nsp) / nsp)[None, :]
        nu = de2 / self.config.sponge_timescale * ramp
        state.u[:, :nsp] = u_sp + dt * nu * ops.laplacian_edge(self.mesh, u_sp)
        state.theta[:, :nsp] = th_sp + dt * nu * ops.laplacian_cell(self.mesh, th_sp)

    def _tracer_step(self, old: ModelState, new: ModelState) -> None:
        """Advance all tracers over the elapsed tracer window."""
        dt_trac = self.config.dt * self.flux_acc.steps
        F = self.flux_acc.mean()
        self.flux_acc.reset()
        mesh, vc = self.mesh, self.vcoord
        D = ops.divergence(mesh, F)
        M = tend.vertical_mass_flux(mesh, vc.b_interfaces, D)
        # Layer masses consistent with the mean flux over the window.
        dpi_old = old.dpi()
        ps_mid = old.ps - dt_trac * D.sum(axis=1)
        dpi_new = vc.dpi(ps_mid)
        for name, q in new.tracers.items():
            q1 = tracer_transport_hori_flux_limiter(
                mesh, q, F, dpi_old, dpi_new, dt_trac, self.config.policy
            )
            q2 = vertical_tracer_transport(q1, M, dpi_new, dpi_new, dt_trac)
            new.tracers[name] = np.maximum(q2, 0.0)

    # -- diagnostics -----------------------------------------------------------
    def diagnostics(self, state: ModelState) -> dict:
        """The paper's observation points: ps and relative vorticity."""
        zeta = ops.curl(self.mesh, state.u)
        return {
            "ps": state.ps.copy(),
            "vor": zeta,
            "max_wind": float(np.abs(state.u).max()),
            "total_dry_mass": state.total_dry_mass(),
        }

    def run(self, state: ModelState, n_steps: int) -> ModelState:
        for _ in range(n_steps):
            state = self.step(state)
            if not np.isfinite(state.ps).all():
                raise FloatingPointError(
                    f"surface pressure became non-finite at t={state.time}"
                )
        return state
