"""Compiled stencil layer: backend equivalence, contracts, and the
operator-cache/hot-loop bugfix regressions.

* the ``reference`` backend is pinned **bitwise** against inline copies
  of the pre-refactor eager-NumPy operators (the goldens);
* the ``fused`` backend is pinned against ``reference`` per kernel under
  its declared contract — bitwise for the linear gather/arithmetic
  kernels, a scaled-inf-norm tolerance where the fused form folds a
  normalisation into the weights or reorders a summation;
* the mimetic identities re-run per backend;
* the operator cache compiles exactly once under thread hammering and is
  immutable after publish;
* the three named hot-loop bugfixes each carry a regression test.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dycore import operators as ops
from repro.dycore import stencil as stc
from repro.dycore import tendencies as tend
from repro.grid.mesh import PAD, build_mesh
from repro.precision.policy import NS, PrecisionPolicy

BACKENDS = sorted(stc.BACKENDS)


@pytest.fixture(scope="module")
def mesh3():
    return build_mesh(3)


@pytest.fixture(scope="module")
def mesh4():
    return build_mesh(4)


def _fields(mesh, seed, nlev):
    rng = np.random.default_rng(seed)
    shape = (nlev,) if nlev else ()
    return {
        "edge": rng.normal(size=(mesh.ne,) + shape),
        "cell": rng.normal(size=(mesh.nc,) + shape),
        "vertex": rng.normal(size=(mesh.nv,) + shape),
    }


#: public operator -> (input staggering kinds)
OPERATORS = {
    "divergence": ("edge",),
    "gradient": ("cell",),
    "curl": ("edge",),
    "cell_to_edge": ("cell",),
    "cell_to_edge_upwind": ("cell", "edge"),
    "vertex_to_edge": ("vertex",),
    "vertex_to_cell": ("vertex",),
    "reconstruct_cell_vectors": ("edge",),
    "tangential_velocity": ("edge",),
    "kinetic_energy": ("edge",),
    "laplacian_cell": ("cell",),
    "laplacian_edge": ("edge",),
}


def _call(name, mesh, fields, backend):
    fn = getattr(ops, name)
    args = [fields[kind] for kind in OPERATORS[name]]
    return fn(mesh, *args, backend=backend)


def _assert_contract(name, ref, fused):
    spec = stc.STENCILS[name]
    if spec.bitwise:
        assert np.array_equal(ref, fused), f"{name}: fused not bitwise"
    else:
        bound = spec.tolerance * max(float(np.abs(ref).max()), 1e-300)
        err = float(np.abs(fused - ref).max())
        assert err <= bound, f"{name}: |fused-ref|={err:.3e} > {bound:.3e}"


# -- pre-refactor goldens (the old eager implementations, verbatim) --------

def _legacy_gather_edges(mesh, edge_field):
    c = ops.mesh_ops(mesh)
    out = edge_field[c.cell_edges_idx]
    out[c.cell_edges_pad] = 0.0
    return out


def _legacy_divergence(mesh, flux_edge):
    gathered = _legacy_gather_edges(mesh, flux_edge)
    w = ops.mesh_ops(mesh).div_w
    extra = gathered.ndim - 2
    w = w.reshape(w.shape + (1,) * extra)
    acc = (gathered * w).sum(axis=1)
    area = mesh.cell_area.reshape((-1,) + (1,) * extra)
    return acc / area


def _legacy_curl(mesh, u_edge):
    c = ops.mesh_ops(mesh)
    ue = u_edge[c.vertex_edges_idx]
    w = c.curl_w
    extra = ue.ndim - 2
    w = w.reshape(w.shape + (1,) * extra)
    acc = (ue * w).sum(axis=1)
    area = mesh.vertex_area.reshape((-1,) + (1,) * extra)
    return acc / area


def _legacy_vertex_to_cell(mesh, vertex_field):
    c = ops.mesh_ops(mesh)
    vals = vertex_field[c.cell_vertices_idx]
    mask = c.cell_vertices_valid.astype(vals.dtype)
    cnt = np.maximum(mask.sum(axis=1), 1.0)
    extra = vals.ndim - 2
    mask = mask.reshape(mask.shape + (1,) * extra)
    s = (vals * mask).sum(axis=1)
    return s / cnt.reshape(cnt.shape + (1,) * extra)


def _legacy_reconstruct(mesh, u_edge):
    c = ops.mesh_ops(mesh)
    ug = u_edge[c.cell_edges_idx]
    valid = c.cell_edges_valid
    ug = np.where(valid.reshape(valid.shape + (1,) * (ug.ndim - 2)), ug, 0.0)
    if ug.ndim == 2:
        return np.einsum("nik,nk->ni", mesh.cell_recon, ug)
    return np.einsum("nik,nkl->nil", mesh.cell_recon, ug)


class TestReferenceMatchesPreRefactorGoldens:
    """The reference backend is the pre-stencil eager path, bitwise."""

    @pytest.mark.parametrize("nlev", [0, 5])
    def test_gather_reduce_operators(self, mesh3, nlev):
        f = _fields(mesh3, 11, nlev)
        np.testing.assert_array_equal(
            ops.divergence(mesh3, f["edge"], backend="reference"),
            _legacy_divergence(mesh3, f["edge"]),
        )
        np.testing.assert_array_equal(
            ops.curl(mesh3, f["edge"], backend="reference"),
            _legacy_curl(mesh3, f["edge"]),
        )
        np.testing.assert_array_equal(
            ops.vertex_to_cell(mesh3, f["vertex"], backend="reference"),
            _legacy_vertex_to_cell(mesh3, f["vertex"]),
        )
        np.testing.assert_array_equal(
            ops.reconstruct_cell_vectors(mesh3, f["edge"], backend="reference"),
            _legacy_reconstruct(mesh3, f["edge"]),
        )

    @pytest.mark.parametrize("nlev", [0, 5])
    def test_point_operators(self, mesh3, nlev):
        f = _fields(mesh3, 12, nlev)
        c = ops.mesh_ops(mesh3)
        de = mesh3.de.reshape((-1,) + (1,) * (f["cell"].ndim - 1))
        np.testing.assert_array_equal(
            ops.gradient(mesh3, f["cell"], backend="reference"),
            (f["cell"][c.edge_c2] - f["cell"][c.edge_c1]) / de,
        )
        np.testing.assert_array_equal(
            ops.cell_to_edge(mesh3, f["cell"], backend="reference"),
            0.5 * (f["cell"][c.edge_c1] + f["cell"][c.edge_c2]),
        )
        np.testing.assert_array_equal(
            ops.cell_to_edge_upwind(mesh3, f["cell"], f["edge"], backend="reference"),
            np.where(f["edge"] >= 0.0, f["cell"][c.edge_c1], f["cell"][c.edge_c2]),
        )
        np.testing.assert_array_equal(
            ops.vertex_to_edge(mesh3, f["vertex"], backend="reference"),
            0.5 * (f["vertex"][c.edge_v1] + f["vertex"][c.edge_v2]),
        )


class TestBackendEquivalence:
    """Fused vs reference under each kernel's declared contract."""

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    @pytest.mark.parametrize("nlev", [0, 6])
    def test_g3(self, mesh3, name, nlev):
        f = _fields(mesh3, 21, nlev)
        _assert_contract(
            name,
            _call(name, mesh3, f, "reference"),
            _call(name, mesh3, f, "fused"),
        )

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_g4(self, mesh4, name):
        f = _fields(mesh4, 22, 8)
        _assert_contract(
            name,
            _call(name, mesh4, f, "reference"),
            _call(name, mesh4, f, "fused"),
        )

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_property_randomized(self, seed):
        mesh = build_mesh(2)
        f = _fields(mesh, seed, 4)
        for name in OPERATORS:
            _assert_contract(
                name,
                _call(name, mesh, f, "reference"),
                _call(name, mesh, f, "fused"),
            )

    def test_fused_returns_fresh_arrays(self, mesh3):
        """Consecutive calls return distinct arrays (the solver keeps
        stage tendencies)."""
        f = _fields(mesh3, 23, 6)
        a = ops.divergence(mesh3, f["edge"], backend="fused")
        b = ops.divergence(mesh3, 2.0 * f["edge"], backend="fused")
        assert a is not b
        assert not np.shares_memory(a, b)
        np.testing.assert_allclose(2.0 * a, b, rtol=1e-12)

    def test_non_f64_dtypes_delegate_to_reference(self, mesh3):
        f32 = _fields(mesh3, 24, 5)["cell"].astype(np.float32)
        ref = ops.cell_to_edge(mesh3, f32, backend="reference")
        fused = ops.cell_to_edge(mesh3, f32, backend="fused")
        assert fused.dtype == np.float32
        np.testing.assert_array_equal(ref, fused)

    def test_optional_accelerators_degrade_silently(self, mesh3):
        """numexpr/numba availability is a boolean, and the fused
        backend works either way (pure NumPy when absent)."""
        assert isinstance(stc.NUMEXPR_AVAILABLE, bool)
        assert isinstance(stc.NUMBA_AVAILABLE, bool)
        f = _fields(mesh3, 25, 4)
        out = ops.laplacian_edge(mesh3, f["edge"], backend="fused")
        assert np.isfinite(out).all()


class TestMimeticIdentitiesPerBackend:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_area_weighted_divergence_sums_to_zero(self, mesh3, backend):
        rng = np.random.default_rng(31)
        flux = rng.normal(size=(mesh3.ne, 4))
        div = ops.divergence(mesh3, flux, backend=backend)
        total = (div * mesh3.cell_area[:, None]).sum(axis=0)
        np.testing.assert_allclose(
            total, 0.0, atol=1e-6 * mesh3.cell_area.mean()
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_curl_of_gradient_vanishes(self, mesh3, backend):
        rng = np.random.default_rng(32)
        psi = rng.normal(size=mesh3.nc)
        g = ops.gradient(mesh3, psi, backend=backend)
        zeta = ops.curl(mesh3, g, backend=backend)
        scale = np.abs(g).max() / mesh3.de.mean()
        np.testing.assert_allclose(zeta, 0.0, atol=1e-10 * scale)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_constant_fields(self, mesh3, backend):
        np.testing.assert_allclose(
            ops.gradient(mesh3, np.full(mesh3.nc, 7.5), backend=backend),
            0.0, atol=1e-18,
        )
        np.testing.assert_allclose(
            ops.vertex_to_cell(mesh3, np.full(mesh3.nv, 2.0), backend=backend),
            2.0,
        )
        np.testing.assert_allclose(
            ops.cell_to_edge(mesh3, np.full(mesh3.nc, 3.0), backend=backend),
            3.0,
        )


class TestOperatorCacheThreadSafety:
    """Bugfix: lazy unsynchronized compile raced under ``repro.serve``."""

    def test_thread_hammer_single_compilation(self, monkeypatch):
        builds = []
        real_init = stc.OperatorCache.__init__

        def counting_init(self, mesh):
            builds.append(id(self))
            real_init(self, mesh)

        monkeypatch.setattr(stc.OperatorCache, "__init__", counting_init)
        mesh = build_mesh(2)
        n = 16
        barrier = threading.Barrier(n)
        results, errors = [], []

        def hammer(i):
            try:
                barrier.wait()
                cache = ops.mesh_ops(mesh)
                plan = stc.compiled_kernels(
                    mesh, "fused" if i % 2 else "reference"
                )
                w64 = cache.v2c_weights(np.float64)
                w32 = cache.v2c_weights(np.float32)
                results.append((id(cache), plan.backend, id(w64[0]), id(w32[0])))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(builds) == 1, "OperatorCache compiled more than once"
        assert len({cache_id for cache_id, *_ in results}) == 1
        # v2c weights are the same published objects for every thread.
        assert len({w for *_, w, _ in results}) == 1
        assert len({w for *_, w in results}) == 1
        # Exactly one plan per backend was published.
        assert sorted(mesh._stencil_plans) == ["fused", "reference"]

    def test_v2c_cache_immutable_after_publish(self, mesh3):
        cache = ops.mesh_ops(mesh3)
        published = dict(cache._v2c_weights)
        # Exotic dtype: computed fresh, never cached.
        mask16, cnt16 = cache.v2c_weights(np.float16)
        assert mask16.dtype == np.float16
        assert cache._v2c_weights == published
        # The policy dtypes were built eagerly at compile time.
        assert np.dtype(np.float64) in published
        assert np.dtype(np.float32) in published

    def test_plan_reused_across_calls(self, mesh3):
        p1 = stc.compiled_kernels(mesh3, "fused")
        ops.divergence(mesh3, np.zeros(mesh3.ne), backend="fused")
        assert stc.compiled_kernels(mesh3, "fused") is p1


class TestSharedMeshConcurrency:
    """A published fused plan keeps no per-call state: many threads may
    call every kernel on one mesh at once."""

    KERNELS = {"gather_edges": ("edge",), **OPERATORS}

    def test_threads_bitwise_equal_to_single_thread(self, mesh3):
        n, rounds = 8, 3
        plan = stc.compiled_kernels(mesh3, "fused")
        inputs = [_fields(mesh3, 300 + i, (0, 6)[i % 2]) for i in range(n)]

        def call(name, fields):
            return getattr(plan, name)(*[fields[k] for k in self.KERNELS[name]])

        expected = [
            {name: call(name, f) for name in self.KERNELS} for f in inputs
        ]
        barrier = threading.Barrier(n)
        mismatches, errors = [], []

        def worker(i):
            try:
                barrier.wait(timeout=30)
                for _ in range(rounds):
                    for name in self.KERNELS:
                        if not np.array_equal(call(name, inputs[i]), expected[i][name]):
                            mismatches.append((i, name))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert mismatches == []


class TestPlanLifetime:
    """Plans hold the mesh's arrays, not the mesh: a discarded model's
    mesh is freed by reference counting, without the cyclic GC."""

    @pytest.mark.parametrize("scheme", ["DP-PHY", "MIX-ML"])
    def test_mesh_freed_without_cyclic_gc(self, scheme):
        import gc
        import weakref

        from repro.serve.pool import build_forecast_model, make_member_state
        from repro.serve.request import ForecastRequest

        req = ForecastRequest(level=2, nlev=6, steps=2, scheme=scheme)
        gc.collect()
        gc.disable()
        try:
            model = build_forecast_model(req.model_key())
            model.run(make_member_state(model, req, 0), req.steps)
            assert model.mesh._stencil_plans
            mesh_ref = weakref.ref(model.mesh)
            del model
            assert mesh_ref() is None, "mesh kept alive by a reference cycle"
        finally:
            gc.enable()


class TestGatherEdgesPadWeight:
    """Bugfix: clamp-gather + boolean-scatter replaced by pad-weight."""

    @pytest.mark.parametrize("nlev", [0, 5])
    def test_matches_legacy_scatter(self, mesh3, nlev):
        f = _fields(mesh3, 41, nlev)
        got = ops._gather_edges(mesh3, f["edge"])
        np.testing.assert_array_equal(got, _legacy_gather_edges(mesh3, f["edge"]))

    def test_pad_lanes_read_zero(self, mesh3):
        rng = np.random.default_rng(42)
        # Edge 0 carries a huge value: the old clamp gathered it into
        # pad lanes before zeroing; the weight must annihilate it.
        field = rng.normal(size=mesh3.ne)
        field[0] = 1e300
        got = ops._gather_edges(mesh3, field)
        pad = mesh3.cell_edges == PAD
        assert pad.any()
        np.testing.assert_array_equal(got[pad], 0.0)

    def test_cached_pad_weight_matches_validity(self, mesh3):
        c = ops.mesh_ops(mesh3)
        np.testing.assert_array_equal(
            c.edge_gather_w, (mesh3.cell_edges >= 0).astype(np.float64)
        )


class TestPrimalFluxHalfConstant:
    """Bugfix: the runtime ``0.5 * de / de`` division is gone."""

    @pytest.mark.parametrize("mixed", [False, True])
    def test_bitwise_vs_old_expression(self, mesh3, mixed):
        policy = PrecisionPolicy(mixed=mixed)
        rng = np.random.default_rng(51)
        dpi = rng.lognormal(size=(mesh3.nc, 6)) * 1e3
        u = rng.normal(size=(mesh3.ne, 6))
        dt = policy.dtype_of("mass_divergence")
        c1, c2 = mesh3.edge_cells[:, 0], mesh3.edge_cells[:, 1]
        w1 = (0.5 * mesh3.de / mesh3.de)[:, None].astype(dt)  # the old form
        old = (
            w1 * dpi[c1].astype(dt) + (1.0 - w1) * dpi[c2].astype(dt)
        ) * u.astype(dt)
        new = tend.primal_normal_flux_edge(mesh3, dpi, u, policy)
        assert new.dtype == old.dtype
        np.testing.assert_array_equal(new, old)

    def test_degenerate_zero_length_edge_stays_finite(self):
        mesh = build_mesh(1)
        mesh.de[0] = 0.0  # a degenerate edge NaN-poisoned the old form
        rng = np.random.default_rng(52)
        dpi = rng.lognormal(size=(mesh.nc, 4)) * 1e3
        u = rng.normal(size=(mesh.ne, 4))
        F = tend.primal_normal_flux_edge(mesh, dpi, u, NS)
        assert np.isfinite(F).all()


class TestBackendSelection:
    def test_unknown_backend_rejected(self, mesh3):
        with pytest.raises(ValueError, match="unknown stencil backend"):
            ops.divergence(mesh3, np.zeros(mesh3.ne), backend="magic")
        with pytest.raises(ValueError, match="unknown stencil backend"):
            stc.bind_stencil_backend(mesh3, "magic")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(stc.BACKEND_ENV, "reference")
        assert stc.default_backend() == "reference"
        mesh = build_mesh(1)
        assert stc.bound_backend(mesh) == "reference"
        ops.curl(mesh, np.zeros(mesh.ne))
        assert stc.compiled_kernels(mesh).backend == "reference"
        monkeypatch.delenv(stc.BACKEND_ENV)
        assert stc.default_backend() == "fused"

    def test_mesh_binding_and_unbinding(self, monkeypatch):
        monkeypatch.delenv(stc.BACKEND_ENV, raising=False)
        mesh = build_mesh(1)
        assert stc.bound_backend(mesh) == "fused"
        stc.bind_stencil_backend(mesh, "reference")
        assert stc.bound_backend(mesh) == "reference"
        assert stc.compiled_kernels(mesh).backend == "reference"
        stc.bind_stencil_backend(mesh, None)
        assert stc.bound_backend(mesh) == "fused"

    def test_solver_config_binds_mesh(self):
        from repro.dycore.solver import DycoreConfig, DynamicalCore
        from repro.dycore.vertical import VerticalCoordinate

        mesh = build_mesh(1)
        DynamicalCore(
            mesh, VerticalCoordinate.uniform(4),
            DycoreConfig(dt=600.0, stencil_backend="fused"),
        )
        assert stc.bound_backend(mesh) == "fused"
        # Plans were compiled eagerly at construction.
        assert "fused" in mesh._stencil_plans


class TestSolverPerBackend:
    def test_fused_step_tracks_reference_step(self):
        from repro.dycore.solver import DycoreConfig, DynamicalCore
        from repro.dycore.state import solid_body_rotation_state
        from repro.dycore.vertical import VerticalCoordinate

        vc = VerticalCoordinate.uniform(6)
        states = {}
        for backend in BACKENDS:
            mesh = build_mesh(2)
            core = DynamicalCore(
                mesh, vc, DycoreConfig(dt=300.0, stencil_backend=backend)
            )
            state = solid_body_rotation_state(mesh, vc)
            for _ in range(3):
                state = core.step(state)
            states[backend] = state
        ref, fus = states["reference"], states["fused"]
        for name in ("ps", "u", "theta"):
            a, b = getattr(ref, name), getattr(fus, name)
            scale = max(float(np.abs(a).max()), 1e-300)
            assert float(np.abs(a - b).max()) <= 1e-9 * scale, name


def _coupled_run(scheme, backend, steps):
    from repro.serve.pool import build_forecast_model, make_member_state
    from repro.serve.request import ForecastRequest

    req = ForecastRequest(level=3, nlev=8, steps=steps, scheme=scheme)
    model = build_forecast_model(req.model_key(), stencil_backend=backend)
    state = model.run(make_member_state(model, req, 0), steps)
    return {
        "u": state.u, "theta": state.theta, "ps": state.ps,
        "qv": state.tracers["qv"],
        "precip": np.array([model.history.mean_precip().mean()]),
    }


class TestCoupledBackendContract:
    """End to end: a coupled G3 run on the fused backend stays within
    :data:`COUPLED_BACKEND_CONTRACT` of the reference run (dt 524 s)."""

    def _check(self, scheme, steps):
        from repro.parallel.overlap import COUPLED_BACKEND_CONTRACT

        ref = _coupled_run(scheme, "reference", steps)
        fused = _coupled_run(scheme, "fused", steps)
        for name, tol in COUPLED_BACKEND_CONTRACT.items():
            bound = tol * max(float(np.abs(ref[name]).max()), 1e-300)
            err = float(np.abs(fused[name] - ref[name]).max())
            assert err <= bound, f"{scheme} {name}: {err:.3e} > {bound:.3e}"

    @pytest.mark.parametrize("scheme", ["DP-PHY", "MIX-PHY"])
    def test_36_steps(self, scheme):
        self._check(scheme, 36)

    @pytest.mark.slow
    @pytest.mark.parametrize("scheme", ["DP-PHY", "MIX-PHY"])
    def test_one_model_day(self, scheme):
        self._check(scheme, 165)


class TestKernelAnnotationsPerBackend:
    """The registered kernels' declared access patterns hold on both
    backends (same index tables), and the static lint stays clean."""

    def test_registered_kernels_agree_across_backends(self, mesh3):
        from repro.dycore.kernels import MAJOR_KERNELS, sample_fields

        fields = sample_fields(mesh3, nlev=6)
        for name, reg in MAJOR_KERNELS.items():
            stc.bind_stencil_backend(mesh3, "reference")
            ref = reg.run(mesh3, fields)
            stc.bind_stencil_backend(mesh3, "fused")
            try:
                fused = reg.run(mesh3, fields)
            finally:
                stc.bind_stencil_backend(mesh3, None)
            scale = max(float(np.abs(ref).max()), 1e-300)
            assert float(np.abs(fused - ref).max()) <= 1e-11 * scale, name

    def test_static_lint_clean_for_both_backends(self):
        from repro.analysis.report import lint_kernels

        # The offload-plan annotations are backend-independent (both
        # backends drive the same declared index tables), so the kernel
        # lint must stay clean regardless of the active default.
        errors = [d for d in lint_kernels() if d.severity.name == "ERROR"]
        assert errors == []


class TestPerfModelStencilHook:
    def test_traffic_factors(self):
        assert stc.traffic_factor("divergence", "reference") == 1.0
        assert stc.traffic_factor("divergence", "fused") < 1.0
        assert stc.traffic_factor("calc_coriolis_term", "fused") < 1.0
        assert stc.traffic_factor("compute_rrr", "fused") == 1.0
        for name, spec in stc.STENCILS.items():
            assert spec.fused_passes <= spec.ref_passes, name

    def test_fused_backend_never_predicts_slower(self):
        from repro.model.config import TABLE2_GRIDS, TABLE3_SCHEMES
        from repro.perf.model import PerformanceModel

        grid = next(iter(TABLE2_GRIDS.values()))
        scheme = next(iter(TABLE3_SCHEMES.values()))
        ref = PerformanceModel(stencil_backend="reference")
        fus = PerformanceModel(stencil_backend="fused")
        c_ref = ref.step_cost(grid, scheme, 64)
        c_fus = fus.step_cost(grid, scheme, 64)
        assert c_fus.kernels <= c_ref.kernels
        assert c_fus.total <= c_ref.total

    def test_unknown_backend_rejected(self):
        from repro.perf.model import PerformanceModel

        with pytest.raises(ValueError):
            PerformanceModel(stencil_backend="magic")


class TestServeWarmPlansReuse:
    """Warm pooled models reuse one immutable compiled plan set."""

    def test_pool_reuses_plans_and_stays_bitwise(self, monkeypatch):
        monkeypatch.setenv(stc.BACKEND_ENV, "fused")
        from repro.serve.pool import ModelPool, make_member_state
        from repro.serve.request import ForecastRequest

        req = ForecastRequest(level=2, nlev=8, steps=3)
        pool = ModelPool(max_models=1)
        model = pool.acquire(req)
        assert stc.bound_backend(model.mesh) == "fused"
        plans_first = model.mesh._stencil_plans["fused"]
        first = model.run(make_member_state(model, req, 0), req.steps)
        pool.release(req, model)

        again = pool.acquire(req)
        assert again is model, "expected the warm instance back"
        assert again.mesh._stencil_plans["fused"] is plans_first, (
            "compiled plans must survive reset() and be reused warm"
        )
        second = again.run(make_member_state(again, req, 0), req.steps)
        pool.release(req, again)
        assert pool.built == 1 and pool.reused == 1
        for name in ("ps", "u", "theta"):
            assert np.array_equal(
                getattr(first, name), getattr(second, name)
            ), f"warm fused rerun not bitwise for {name}"
