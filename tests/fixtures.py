"""Building blocks the tests share and no product code uses.

The smallest tetrahedral meshes, the structural invariant checks of a
global and a rank-local mesh, an element-quality measure, the analytic
flow fields the solver, adaptor and framework tests start from, the causal
record of one traced ``RunResult``, the partition store's statistics, and
weighted graphs from edge lists and their CSR rows.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.dist.localmesh import LocalMesh
from repro.mesh.build import build_faces
from repro.mesh.geometry import tet_volumes
from repro.mesh.tetmesh import TetMesh
from repro.mesh.topology import LOCAL_EDGES
from repro.obs.causal import CausalRun
from repro.obs.metrics import MetricsRegistry
from repro.partition import multilevel
from repro.partition.graph import Graph
from repro.solver.state import conservative


def single_tet() -> TetMesh:
    """The reference tetrahedron — smallest possible mesh."""
    coords = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    elems = np.array([[0, 1, 2, 3]])
    return TetMesh.from_elems(coords, elems)


def two_tets() -> TetMesh:
    """Two tetrahedra sharing a face — smallest mesh with an interior face."""
    coords = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0],
        ]
    )
    elems = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    return TetMesh.from_elems(coords, elems)


def check_mesh(mesh: TetMesh) -> None:
    """Assert every structural invariant of ``mesh`` — O(ne log ne)."""
    assert mesh.elems.shape == (mesh.ne, 4)
    assert np.all(mesh.edges[:, 0] < mesh.edges[:, 1]), "edge order"
    keys = mesh.edges[:, 0] * mesh.nv + mesh.edges[:, 1]
    assert np.all(np.diff(keys) > 0), "edges sorted & unique"
    vols = mesh.volumes()
    assert np.all(vols > 0), f"non-positive volumes: {np.sum(vols <= 0)}"
    # elem2edge consistency with local edge table
    pairs = np.sort(mesh.elems[:, LOCAL_EDGES], axis=2)
    assert np.array_equal(mesh.edges[mesh.elem2edge], pairs), "elem2edge"
    # every element has 4 distinct vertices
    assert np.all(
        np.diff(np.sort(mesh.elems, axis=1), axis=1) > 0
    ), "degenerate element"
    # the boundary and the dual pairs are what one sort of every face gives
    bnd_faces, dual_pairs = build_faces(mesh.elems, mesh.nv)
    assert np.array_equal(mesh.bnd_faces, bnd_faces), "boundary faces"
    assert np.array_equal(mesh.dual_pairs, dual_pairs), "dual pairs"


def check_local_mesh(local: LocalMesh, global_mesh: TetMesh) -> None:
    """Assert ``local``'s local↔global maps agree with ``global_mesh``."""
    mesh = local.mesh
    assert local.elem_l2g.shape == (local.ne,)
    assert local.vert_l2g.shape == (local.nv,)
    assert local.edge_l2g.shape == (mesh.nedges,)
    # local elements are the global elements' vertex sets
    gv = np.sort(global_mesh.elems[local.elem_l2g], axis=1)
    lv = np.sort(local.vert_l2g[mesh.elems], axis=1)
    assert np.array_equal(gv, lv), "element vertex sets"
    # local coords come from the global coords
    assert np.array_equal(mesh.coords, global_mesh.coords[local.vert_l2g]), "coords"
    # local edges map onto global edges with the same endpoints
    ge = global_mesh.edges[local.edge_l2g]
    le = np.sort(local.vert_l2g[mesh.edges], axis=1)
    assert np.array_equal(ge, le), "edge endpoints"
    # SPLs never contain the owning rank and are sorted
    ptr = local.vert_spl_ptr
    for v in range(min(local.nv, 64)):
        spl = local.vert_spl_dat[ptr[v] : ptr[v + 1]]
        assert local.rank not in spl
        assert np.all(np.diff(spl) > 0)
        assert bool(local.vert_shared[v]) == (spl.size > 0)


def aspect_ratios(coords: np.ndarray, elems: np.ndarray) -> np.ndarray:
    """Crude element quality: longest edge cubed over volume, normalised so
    a regular tetrahedron scores 1.  Larger is worse; inf for degenerate."""
    p = coords[elems]  # (ne, 4, 3)
    ev = p[:, LOCAL_EDGES[:, 1]] - p[:, LOCAL_EDGES[:, 0]]  # (ne, 6, 3)
    lmax = np.sqrt((ev**2).sum(axis=2)).max(axis=1)
    vol = np.abs(tet_volumes(coords, elems))
    # regular tet: V = L^3 / (6*sqrt(2))  =>  L^3 / V = 6*sqrt(2)
    with np.errstate(divide="ignore"):
        return (lmax**3 / vol) / (6.0 * np.sqrt(2.0))


def uniform_flow(
    coords: np.ndarray,
    rho: float = 1.0,
    vel: tuple[float, float, float] = (0.5, 0.0, 0.0),
    p: float = 1.0,
) -> np.ndarray:
    """Constant free-stream state at every vertex."""
    n = coords.shape[0]
    return conservative(
        np.full(n, rho), np.tile(np.asarray(vel, dtype=np.float64), (n, 1)),
        np.full(n, p),
    )


def spherical_blast_field(
    coords: np.ndarray,
    center: tuple[float, float, float],
    radius: float,
    strength: float = 4.0,
) -> np.ndarray:
    """Sod-like spherical blast: hot dense ball in quiescent gas.

    The contact/shock structure expands through the mesh, exercising
    refinement *and* coarsening as features move.
    """
    pts = np.asarray(coords, dtype=np.float64)
    r = np.linalg.norm(pts - np.asarray(center), axis=1)
    inside = 0.5 * (1.0 - np.tanh((r - radius) / (0.15 * radius)))
    rho = 1.0 + (strength - 1.0) * inside
    p = 1.0 + (strength - 1.0) * inside
    vel = np.zeros((pts.shape[0], 3))
    return conservative(rho, vel, p)


def nodes_of(result) -> list | None:
    """The happens-before nodes a traced
    :class:`~repro.parallel.runtime.RunResult` keeps (None untraced): the
    VM's columnar record, or a measured backend's merged streams."""
    if result._nodes is None and result._record is not None:
        result._nodes = result._record.causal_nodes()
    return result._nodes


def msgs_of(result) -> list | None:
    """The messages of a traced run's result, as :func:`nodes_of`."""
    if result._msgs is None and result._record is not None:
        result._msgs = result._record.causal_msgs()
    return result._msgs


def run_from_result(result) -> CausalRun:
    """The causal run of a traced :class:`~repro.parallel.runtime.RunResult`."""
    assert nodes_of(result) is not None, "run the VM with trace=True"
    return CausalRun(
        id=0,
        base=0.0,
        nranks=len(result.clocks),
        makespan=result.makespan,
        nodes=list(nodes_of(result)),
        msgs=list(msgs_of(result)),
    )


class CacheInfo(NamedTuple):
    """``functools.lru_cache``'s statistics for ``multilevel_kway``'s
    partition store; both sizes are in bytes."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


def store_info() -> CacheInfo:
    """Hits, misses and bytes of the partition store ``multilevel_kway``
    and ``repartition`` share (both kinds counted together)."""
    store = multilevel._STORE
    return CacheInfo(store._hits, store._misses, store.maxbytes,
                     store._nbytes)


def metric_value(reg: MetricsRegistry, name: str, labels: dict | None = None,
                 cycle: int | None = None, rank: int | None = None):
    """The value ``reg`` stores under the exact key ``(name, labels,
    cycle, rank)``, or None."""
    frozen = tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))
    for s in reg.samples():
        if (s.name, s.labels, s.cycle, s.rank) == (name, frozen, cycle, rank):
            return s.value
    return None


def row(graph: Graph, v: int) -> tuple[np.ndarray, np.ndarray]:
    """``v``'s neighbours and the weights of its edges: one CSR row."""
    lo, hi = graph.ptr[v], graph.ptr[v + 1]
    return graph.adj[lo:hi], graph.ewgt[lo:hi]


def weighted_graph(pairs, n: int, vwgt=None, ewgt=None) -> Graph:
    """``Graph.from_pairs(pairs, n)`` weighted: ``vwgt`` per vertex, and
    ``ewgt`` per listed pair, an edge listed more than once (in either
    orientation) weighing the sum of its listings."""
    g = Graph.from_pairs(pairs, n)
    if ewgt is not None:
        a, b = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        w = np.asarray(ewgt, dtype=np.int64)
        keep = a != b
        a, b, w = a[keep], b[keep], w[keep]
        # rows ascend, so the (src, dst) keys of the CSR are sorted
        src = np.repeat(np.arange(n), np.diff(g.ptr))
        slot = np.searchsorted(src * n + g.adj, np.concatenate([a * n + b, b * n + a]))
        summed = np.zeros(g.adj.shape[0], dtype=np.int64)
        np.add.at(summed, slot, np.concatenate([w, w]))
        g = Graph(ptr=g.ptr, adj=g.adj, vwgt=g.vwgt, ewgt=summed)
    return g if vwgt is None else g.with_vwgt(vwgt)
