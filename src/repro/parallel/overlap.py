"""Interior/boundary tendency split for communication overlap.

The paper's year-scale stepping rate rests on hiding halo traffic behind
interior compute.  This module derives, per rank, the largest set of
owned entities whose tendency evaluation cannot observe any halo entry —
the **interior** — and restricts the rank's local mesh to two pass
sub-meshes:

* the *interior* pass touches owned entities only, so it can run while
  the halo exchange for the same RK stage is still in flight;
* the *boundary* pass covers the remaining owned entities and runs after
  the exchange completes, exactly like a lockstep evaluation.

Why distance 3
--------------
``owned_cell_halo_distance`` labels every owned cell with its cell-hop
distance to the nearest non-owned (halo) cell.  The dycore's horizontal
stencils reach at most two cell hops (Laplacians, gradient-of-divergence
— the same radius the two-ring halo of
:func:`~repro.parallel.localmesh.build_local_meshes` was sized for), so
a cell at distance >= 3 has its entire dependency cone inside the owned
set: its two closure rings are at distance >= 1, i.e. still owned.  An
owned edge follows its ``c1`` cell (the same c1-ownership rule the
global decomposition uses), so interior edges inherit the guarantee.

The sub-meshes are built with the exact closure recipe of
``build_local_meshes`` — targets first, plus two neighbour rings of
cells, all edges incident to targets+ring1, vertices of targets+ring1 —
so the proven "valid on owned entities after one exchange" contract
applies verbatim with the pass targets playing the role of owned cells.

Equality contract
-----------------
With the ``reference`` stencil backend every per-row gather preserves
lane order under the restriction, so pass outputs at target rows are
**bitwise identical** to the full-mesh evaluation (and hence to the
serial oracle at owned entities).  The ``fused`` backend accumulates
through ``np.bincount`` whose summation order follows the mesh
numbering; restricting/renumbering reorders those reductions, so fused
overlap runs carry the explicit per-field :data:`TOLERANCE_CONTRACT`
instead of bitwise equality.  The race analyzer enforces the same line:
overlapped compute ops are declared ``order_sensitive`` under the fused
backend and must carry a tolerance (RD005 otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dycore.solver import DycoreConfig, DynamicalCore
from repro.dycore.state import ModelState
from repro.dycore.vertical import VerticalCoordinate
from repro.grid.mesh import PAD, Mesh
from repro.parallel.localmesh import LocalMesh, _remap

#: Horizontal stencil radius of one tendency evaluation, in cell hops.
#: Matches the two-ring halo contract of ``build_local_meshes``.
STENCIL_RADIUS = 2

#: Per-field relative tolerances of the overlapped fused-backend run
#: against the serial oracle.  ``None`` entries mean bitwise (the
#: reference backend's contract).  The bounds are generous multiples of
#: the reordering round-off observed at G3/G4 — they gate *contract*
#: violations (wrong indices, stale halos), not accumulation noise.
TOLERANCE_CONTRACT: dict[str, dict[str, float | None]] = {
    "reference": {"ps": None, "u": None, "theta": None},
    "fused": {"ps": 1e-11, "u": 1e-9, "theta": 1e-10},
}


#: Per-field relative tolerances (``max|fused - ref| <= tol * max|ref|``)
#: of a coupled ``GristModel`` run on the fused stencil backend against
#: the same run on the reference backend, for up to one model day at G3
#: (DP-PHY and MIX-PHY).  Measured at 1 day: u 2e-13, qv 3e-14, precip
#: 2e-14, theta 9e-16, ps 4e-16; the bounds leave ~500x for host BLAS
#: and summation-order differences.
COUPLED_BACKEND_CONTRACT: dict[str, float] = {
    "u": 1e-10, "theta": 1e-12, "ps": 1e-12, "qv": 1e-11, "precip": 1e-11,
}


def contract_for(backend: str) -> dict[str, float | None]:
    """The per-field tolerance contract for a stencil backend name."""
    return TOLERANCE_CONTRACT.get(backend, TOLERANCE_CONTRACT["fused"])


def owned_cell_halo_distance(lm: LocalMesh) -> np.ndarray:
    """Cell-hop distance of every local cell to the nearest halo cell.

    Halo (non-owned) cells are at distance 0; owned cells get the BFS
    distance through ``cell_neighbors``.  Distances are capped at
    ``STENCIL_RADIUS + 1`` — everything at the cap is interior.  A rank
    with no halo at all (``nparts == 1``) returns the cap everywhere.
    """
    cap = STENCIL_RADIUS + 1
    n = lm.n_cells
    dist = np.full(n, cap, dtype=np.int64)
    frontier = np.arange(lm.n_owned_cells, n, dtype=np.int64)
    dist[frontier] = 0
    nbrs = lm.mesh.cell_neighbors
    for d in range(1, cap):
        if frontier.size == 0:
            break
        cand = nbrs[frontier]
        cand = np.unique(cand[cand != PAD])
        frontier = cand[dist[cand] > d]
        dist[frontier] = d
    return dist


@dataclass
class PassMesh:
    """One pass's restricted sub-mesh plus parent-local index maps.

    ``cells``/``edges``/``vertices`` map sub-local -> parent-local ids;
    the pass targets lead the numbering (``n_target_cells`` /
    ``n_target_edges`` prefixes), mirroring the owned-first layout of
    :class:`~repro.parallel.localmesh.LocalMesh`.
    """

    mesh: Mesh
    cells: np.ndarray
    edges: np.ndarray
    vertices: np.ndarray
    n_target_cells: int
    n_target_edges: int

    @property
    def target_cells(self) -> np.ndarray:
        """Parent-local cell indices this pass produces tendencies for."""
        return self.cells[: self.n_target_cells]

    @property
    def target_edges(self) -> np.ndarray:
        return self.edges[: self.n_target_edges]


@dataclass
class OverlapSplit:
    """One rank's interior/boundary decomposition of its owned entities.

    ``interior`` is ``None`` when no owned cell is deep enough (tiny
    subdomains); ``boundary`` is ``None`` only when the rank has no halo
    at all.  Together the pass targets partition the owned cells and
    owned edges exactly.
    """

    rank: int
    dist: np.ndarray
    interior: PassMesh | None
    boundary: PassMesh | None

    def pass_meshes(self) -> dict[str, PassMesh | None]:
        return {"interior": self.interior, "boundary": self.boundary}


def _restrict(lm: LocalMesh, targets: np.ndarray) -> PassMesh:
    """Restrict ``lm.mesh`` to ``targets`` plus the two-ring closure.

    The exact recipe of ``build_local_meshes`` with ``targets`` as the
    owned set: ring1 = their neighbours, ring2 = ring1's neighbours,
    edges of targets+ring1 (target-``c1`` edges first), vertices of
    targets+ring1.  Guarantees tendency outputs at target entities match
    the parent-mesh evaluation (bitwise for the reference backend).
    """
    mesh = lm.mesh
    in_t = np.zeros(lm.n_cells, dtype=bool)
    in_t[targets] = True
    nbrs1 = mesh.cell_neighbors[targets]
    nbrs1 = np.unique(nbrs1[nbrs1 != PAD])
    ring1 = nbrs1[~in_t[nbrs1]]
    in_01 = in_t.copy()
    in_01[ring1] = True
    nbrs2 = mesh.cell_neighbors[ring1] if ring1.size else np.empty(0, np.int64)
    nbrs2 = np.unique(nbrs2[nbrs2 != PAD]) if ring1.size else nbrs2
    ring2 = nbrs2[~in_01[nbrs2]] if ring1.size else nbrs2
    cells = np.concatenate([targets, ring1, ring2]).astype(np.int64)
    cell_l = {int(g): i for i, g in enumerate(cells)}

    ring01 = np.concatenate([targets, ring1]).astype(np.int64)
    e_all = mesh.cell_edges[ring01]
    e_all = np.unique(e_all[e_all != PAD])
    # Target edges follow their c1 cell (the global c1-ownership rule).
    tgt_mask = in_t[mesh.edge_cells[e_all, 0]]
    edges = np.concatenate([e_all[tgt_mask], e_all[~tgt_mask]])
    edge_l = {int(g): i for i, g in enumerate(edges)}
    n_target_edges = int(tgt_mask.sum())

    v_all = mesh.cell_vertices[ring01]
    vertices = np.unique(v_all[v_all != PAD])
    vert_l = {int(g): i for i, g in enumerate(vertices)}

    cell_edges = _remap(edge_l, mesh.cell_edges[cells], PAD)
    cell_sign = mesh.cell_edge_sign[cells].copy()
    cell_sign[cell_edges == PAD] = 0.0
    cell_neighbors = _remap(cell_l, mesh.cell_neighbors[cells], PAD)
    cell_vertices = _remap(vert_l, mesh.cell_vertices[cells], PAD)
    edge_cells = _remap(cell_l, mesh.edge_cells[edges], 0)
    edge_vertices = _remap(vert_l, mesh.edge_vertices[edges], 0)
    vertex_cells = _remap(cell_l, mesh.vertex_cells[vertices], 0)
    vertex_edges = _remap(edge_l, mesh.vertex_edges[vertices], PAD)
    vertex_sign = mesh.vertex_edge_sign[vertices].copy()
    vertex_sign[vertex_edges == PAD] = 0.0

    sub = Mesh(
        level=mesh.level,
        radius=mesh.radius,
        nc=cells.size,
        ne=edges.size,
        nv=vertices.size,
        cell_xyz=mesh.cell_xyz[cells],
        vertex_xyz=mesh.vertex_xyz[vertices],
        edge_xyz=mesh.edge_xyz[edges],
        cell_lat=mesh.cell_lat[cells],
        cell_lon=mesh.cell_lon[cells],
        edge_normal=mesh.edge_normal[edges],
        edge_tangent=mesh.edge_tangent[edges],
        de=mesh.de[edges],
        le=mesh.le[edges],
        cell_area=mesh.cell_area[cells],
        vertex_area=mesh.vertex_area[vertices],
        edge_cells=edge_cells,
        edge_vertices=edge_vertices,
        cell_ne=mesh.cell_ne[cells],
        cell_edges=cell_edges,
        cell_edge_sign=cell_sign,
        cell_neighbors=cell_neighbors,
        cell_vertices=cell_vertices,
        vertex_cells=vertex_cells,
        vertex_edges=vertex_edges,
        vertex_edge_sign=vertex_sign,
        cell_recon=mesh.cell_recon[cells],
        f_cell=mesh.f_cell[cells],
        f_edge=mesh.f_edge[edges],
        f_vertex=mesh.f_vertex[vertices],
    )
    return PassMesh(
        mesh=sub, cells=cells, edges=edges, vertices=vertices,
        n_target_cells=int(targets.size), n_target_edges=n_target_edges,
    )


def build_overlap_split(lm: LocalMesh) -> OverlapSplit:
    """Split one rank's owned entities into interior/boundary passes."""
    dist = owned_cell_halo_distance(lm)
    owned = np.arange(lm.n_owned_cells, dtype=np.int64)
    interior_cells = owned[dist[owned] > STENCIL_RADIUS]
    boundary_cells = owned[dist[owned] <= STENCIL_RADIUS]
    interior = (
        _restrict(lm, interior_cells) if interior_cells.size else None
    )
    boundary = (
        _restrict(lm, boundary_cells) if boundary_cells.size else None
    )
    return OverlapSplit(
        rank=lm.rank, dist=dist, interior=interior, boundary=boundary,
    )


def build_overlap_splits(locals_: list[LocalMesh]) -> list[OverlapSplit]:
    return [build_overlap_split(lm) for lm in locals_]


class PassRunner:
    """Executes one pass of one rank: gather, evaluate, scatter targets.

    Owns a private sub-:class:`ModelState` (reused across calls — the
    per-call work is two ``np.take`` gathers, one tendency evaluation on
    the sub-mesh, and four target-prefix scatters into the shared slot
    arrays).  The interior runner's gathers read owned parent entries
    only, which is what makes it safe to run while an exchange is
    writing halo entries of the same parent arrays.
    """

    def __init__(
        self,
        pm: PassMesh,
        vcoord: VerticalCoordinate,
        config: DycoreConfig,
    ):
        self.pm = pm
        self.core = DynamicalCore(pm.mesh, vcoord, config)
        nlev = vcoord.nlev
        nc, ne = pm.mesh.nc, pm.mesh.ne
        self._state = ModelState(
            mesh=pm.mesh,
            vcoord=vcoord,
            ps=np.empty(nc),
            u=np.empty((ne, nlev)),
            theta=np.empty((nc, nlev)),
            w=np.zeros((nc, nlev + 1)),
            phi=np.zeros((nc, nlev + 1)),
            phi_surface=np.empty(nc),
            tracers={},
        )

    def run(self, parent: ModelState, slot) -> None:
        """One pass: evaluate tendencies, scatter the target prefixes
        into ``slot`` (a shared :class:`_TendencySlot`) at parent-local
        indices."""
        pm, st = self.pm, self._state
        np.take(parent.ps, pm.cells, axis=0, out=st.ps)
        np.take(parent.u, pm.edges, axis=0, out=st.u)
        np.take(parent.theta, pm.cells, axis=0, out=st.theta)
        np.take(parent.phi_surface, pm.cells, axis=0, out=st.phi_surface)
        td = self.core.compute_tendencies(st)
        tc, te = pm.n_target_cells, pm.n_target_edges
        cells, edges = pm.cells[:tc], pm.edges[:te]
        slot.ps[cells] = td.ps[:tc]
        slot.u[edges] = td.u[:te]
        slot.theta_mass[cells] = td.theta_mass[:tc]
        slot.flux_edge[edges] = td.flux_edge[:te]


def build_pass_runners(
    splits: list[OverlapSplit],
    vcoord: VerticalCoordinate,
    config: DycoreConfig,
) -> tuple[list[PassRunner | None], list[PassRunner | None]]:
    """Per-rank (interior, boundary) runners; ``None`` for empty passes."""
    interior = [
        PassRunner(s.interior, vcoord, config) if s.interior else None
        for s in splits
    ]
    boundary = [
        PassRunner(s.boundary, vcoord, config) if s.boundary else None
        for s in splits
    ]
    return interior, boundary


__all__ = [
    "STENCIL_RADIUS", "TOLERANCE_CONTRACT", "COUPLED_BACKEND_CONTRACT",
    "contract_for",
    "owned_cell_halo_distance", "PassMesh", "OverlapSplit",
    "build_overlap_split", "build_overlap_splits",
    "PassRunner", "build_pass_runners",
]
