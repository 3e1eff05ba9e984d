"""Building blocks the tests share and no product code uses.

The smallest tetrahedral meshes, the structural invariant checks of a
global and a rank-local mesh, a subdivision's provenance, an
element-quality measure, the analytic
flow fields the solver, adaptor and framework tests start from, the causal
record of one traced ``RunResult`` or tracer (and the stride-6 arrays the
halo digests are pinned on, and a phase's payload traffic), the partition
store's statistics, and
weighted graphs from edge lists and their CSR rows.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.adapt.patterns import NUM_CHILDREN
from repro.dist.localmesh import LocalMesh
from repro.mesh.build import build_faces
from repro.mesh.geometry import tet_volumes
from repro.mesh.tetmesh import TetMesh
from repro.mesh.topology import LOCAL_EDGES
from repro.obs.causal import CausalRun, runs_from_tracer
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


class Provenance(NamedTuple):
    """Where each piece of a refined mesh came from, per
    :func:`refine_provenance`."""

    parent: np.ndarray  #: (ne_new,) old element id of each new element
    child_count: np.ndarray  #: (ne_old,) children per old element
    midpoint_of: np.ndarray  #: (nedges_old,) midpoint vertex id, -1 if whole
    #: (nedges_old, 2) new ids of the halves (a, m) then (m, b), -1 rows if whole
    edge_children: np.ndarray
    edge_survivor: np.ndarray  #: (nedges_old,) new id of a whole edge, -1 else


def refine_provenance(mesh_before: TetMesh, marking, refined: TetMesh) -> Provenance:
    """Derive the provenance of ``refined = subdivide(mesh_before,
    marking).mesh`` from the three: children are numbered parent-major,
    midpoints after the old vertices in bisected-edge order, and every
    half or surviving edge is found in ``refined``'s sorted edge table."""
    child_count = NUM_CHILDREN[np.asarray(marking.patterns, dtype=np.int64)]
    assert child_count.sum() == refined.ne
    parent = np.repeat(np.arange(mesh_before.ne), child_count)
    marked = np.flatnonzero(marking.edge_marked)
    kept = np.flatnonzero(~np.asarray(marking.edge_marked, dtype=bool))
    midpoint_of = np.full(mesh_before.nedges, -1, dtype=np.int64)
    midpoint_of[marked] = mesh_before.nv + np.arange(marked.size)
    nv = refined.nv
    table = refined.edges[:, 0] * nv + refined.edges[:, 1]

    def lookup(a, b):
        keys = np.minimum(a, b) * nv + np.maximum(a, b)
        pos = np.searchsorted(table, keys)
        assert np.array_equal(table[np.minimum(pos, table.size - 1)], keys), \
            "every half and survivor is an edge of the refined mesh"
        return pos

    (a, b), m = mesh_before.edges[marked].T, midpoint_of[marked]
    edge_children = np.full((mesh_before.nedges, 2), -1, dtype=np.int64)
    edge_children[marked, 0] = lookup(a, m)
    edge_children[marked, 1] = lookup(m, b)
    edge_survivor = np.full(mesh_before.nedges, -1, dtype=np.int64)
    edge_survivor[kept] = lookup(*mesh_before.edges[kept].T)
    return Provenance(parent, child_count, midpoint_of, edge_children,
                      edge_survivor)


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
    :class:`~repro.parallel.runtime.RunResult` keeps (None untraced),
    derived from its :class:`~repro.obs.causal.CausalRecord`."""
    return None if result._record is None else result._record.objects()[0]


def msgs_of(result) -> list | None:
    """The messages of a traced run's result, as :func:`nodes_of`."""
    return None if result._record is None else result._record.objects()[1]


def causal_nodes(tracer) -> list:
    """Every causal node a tracer holds, run after run."""
    return [n for rec in tracer.causal_records for n in rec.objects()[0]]


def causal_msgs(tracer) -> list:
    """Every causal message a tracer holds, run after run."""
    return [m for rec in tracer.causal_records for m in rec.objects()[1]]


#: Tags at or above this value belong to the communicator's collectives.
COLLECTIVE_TAGS = 1 << 20


def payload(tracer, phase: str) -> tuple[int, int]:
    """``(messages, words)`` a tracer's VM runs under ``phase`` sent on the
    programs' own tags: data, not the collectives' synchronisation."""
    msgs = [m for run in runs_from_tracer(tracer) if run.phase == phase
            for m in run.msgs if m.tag < COLLECTIVE_TAGS]
    return len(msgs), sum(m.nwords for m in msgs)


def stride6(record) -> tuple[np.ndarray, np.ndarray]:
    """A virtual run's record as the flat stride-6 arrays the halo-cycle
    digests are pinned on: float64 ``kind, rank, msg, t_start, t_end,
    wait`` per node (``msg`` -1 where none) and int64 ``src, dst, tag,
    nwords, send_node, recv_node`` per message (``recv_node`` -1 when
    unconsumed), derived with numpy from the record's columns."""
    nd, ms = record.columns()
    a = np.array([nd["kind"], nd["rank"], nd["msg"]], dtype=np.float64).T
    kind, rank, seq = a.T
    t_end = np.array(nd["t_end"], dtype=np.float64)
    recv = seq > 0
    msg = np.where(recv, seq - 1.0, -1.0)
    send = kind == 2
    msg[send] = np.arange(np.count_nonzero(send))
    # t_start: the previous t_end of the same rank, 0.0 for its first
    order = np.argsort(rank, kind="stable")
    t_start = np.empty_like(t_end)
    t_start[order[1:]] = t_end[order[:-1]]
    first = np.ones(len(order), dtype=bool)
    first[1:] = rank[order[1:]] != rank[order[:-1]]
    t_start[order[first]] = 0.0
    wait = np.zeros_like(t_end)
    wait[recv] = t_end[recv] - (t_start[recv] + record.t_setup)
    nodes = np.column_stack((kind, rank, msg, t_start, t_end, wait)).ravel()
    ints = a[:, :3].astype(np.int64)  # kind, rank, msg
    sends = np.flatnonzero(ints[:, 0] == 2)
    recvs = np.flatnonzero(ints[:, 2] > 0)
    m = np.array([ms["dst"], ms["tag"], ms["nwords"]],
                 dtype=np.int64).reshape(3, -1).T
    recv_node = np.full(len(m), -1, dtype=np.int64)
    recv_node[ints[recvs, 2] - 1] = recvs
    msgs = np.column_stack((ints[sends, 1], m, sends, recv_node)).ravel()
    return nodes, msgs


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
