"""AMG-style mesh agglomeration driven by a TPFA strength matrix.

A two-point flux approximation of the Darcy operator provides the
coupling strengths between neighbouring cells.  Intersection traces are
treated as boundaries, so no coupling ever crosses a trace and coarse
cells cannot straddle one.  Cells flanking an immersed trace tip are
promoted to coarse seeds a priori, which keeps the two sides of the tip
in different coarse cells.  The split/merge sweep is repeated
``c_depth`` times.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import DegenerateCell
from .meshing import PolyMesh

__all__ = [
    "StrengthMatrix",
    "CoarsePartition",
    "tpfa_matrix",
    "cf_split",
    "agglomerate",
    "agglomerate_network",
]


@dataclass
class StrengthMatrix:
    """TPFA matrix with lazily computed strong-coupling sets."""

    A: sparse.csr_matrix
    _strong: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def strong_sets(self, eps_str: float):
        """``S[i]``: ascending tuple of the columns j with
        ``-A_ij >= eps_str * max_k(-A_ik)``.

        Computed once per ``eps_str``; callers share the returned list.
        """
        if eps_str not in self._strong:
            A = self.A
            row = np.repeat(np.arange(self.n), np.diff(A.indptr))
            neg = A.data < 0
            most = np.zeros(self.n)
            np.maximum.at(most, row, np.where(neg, -A.data, 0.0))
            thresh = eps_str * most
            strong = neg & (-A.data >= thresh[row]) & (A.indices != row)
            cols = A.indices[strong].tolist()
            ptr = np.searchsorted(row[strong], np.arange(self.n + 1)).tolist()
            self._strong[eps_str] = [tuple(cols[a:b])
                                     for a, b in zip(ptr[:-1], ptr[1:])]
        return self._strong[eps_str]


def _cell_lambda(lam, centroids: np.ndarray) -> np.ndarray:
    n = len(centroids)
    if callable(lam):
        out = np.asarray(lam(centroids), float)
        if out.shape != (n, 2, 2):
            raise ValueError("permeability callback must return (n, 2, 2)")
        return out
    lam = np.asarray(lam, float)
    if lam.shape == (2, 2):
        return np.broadcast_to(lam, (n, 2, 2))
    return lam


def tpfa_matrix(mesh: PolyMesh, lam, dirichlet_boundary: bool = True) -> StrengthMatrix:
    """Two-point flux approximation matrix of one fracture mesh.

    Half transmissibilities are ``|e| (n . lam d) / |d|^2`` with ``d``
    from the cell centroid to the edge midpoint, harmonically averaged
    across interior edges.  Trace edges always act as Dirichlet-like
    closures contributing to the diagonal only; outer boundary edges do
    so when ``dirichlet_boundary`` is set, otherwise they are no-flow.
    Triplets are laid out edge by edge, and each diagonal sums its
    contributions in edge order.
    """
    n = mesh.n_cells
    lam_c = _cell_lambda(lam, mesh.cell_centroids)
    if (mesh.cell_areas <= 0).any():
        raise DegenerateCell("mesh contains non-positive cell areas")
    ec = mesh.edge_cells
    inner = (ec[:, 1] >= 0) & (mesh.edge_trace < 0)
    closed = (mesh.edge_trace >= 0) | dirichlet_boundary
    # (edge, side) slots that need a half transmissibility, in loop order.
    need = (ec >= 0) & (inner | closed)[:, None]
    e, side = np.nonzero(need)
    cell = ec[e, side]
    d = mesh.edge_mid[e] - mesh.cell_centroids[cell]
    dd = np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]
    if (dd <= 0.0).any():
        i = np.flatnonzero(dd <= 0.0)[0]
        raise DegenerateCell(
            f"cell {cell[i]}: centroid coincides with edge {e[i]} midpoint")
    nrm = mesh.outward_normals(mesh.edge_entry[e, side])
    flux = np.matmul(nrm[:, None, :],
                     np.matmul(lam_c[cell], d[:, :, None]))[:, 0, 0]
    elen = mesh.edge_len[e]
    # Non-convex agglomerates can produce non-positive contributions;
    # clamp so the strength graph stays usable.
    alpha = np.zeros(need.shape)
    alpha[e, side] = np.maximum(elen * flux / dd, 1e-12 * elen)
    a0, a1 = alpha[inner, 0], alpha[inner, 1]
    T = a0 * a1 / (a0 + a1)
    alpha[inner] = T[:, None]
    diag = np.bincount(cell, weights=alpha[e, side], minlength=n)
    pair = ec[inner]
    rows = np.concatenate([pair.ravel(), np.arange(n)])
    cols = np.concatenate([pair[:, ::-1].ravel(), np.arange(n)])
    vals = np.concatenate([np.repeat(-T, 2), diag])
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    A.sum_duplicates()
    return StrengthMatrix(A=A)


def cf_split(strength: StrengthMatrix, eps_str: float = 0.25,
             premark_c=()) -> np.ndarray:
    """Coarse/fine labelling by strong negative couplings.

    Repeatedly picks the undecided cell maximizing
    ``#(S_i^T & U) + 2 #(S_i^T & F)`` (ties to the lowest index), marks
    it coarse and its strong dependents fine.  Cells without strong
    couplings in either direction become coarse.  Returns 1 for C, 0
    for F.
    """
    if not 0.0 < eps_str < 1.0:
        raise ValueError("eps_str must lie in (0, 1)")
    n = strength.n
    S = strength.strong_sets(eps_str)
    ST = [[] for _ in range(n)]   # ascending, as i runs upwards
    for i in range(n):
        for j in S[i]:
            ST[j].append(i)
    UNDECIDED, FINE, COARSE = -1, 0, 1
    labels = np.full(n, UNDECIDED, np.int8)
    lam = np.array([len(ST[i]) for i in range(n)], float)

    def mark_coarse(i):
        labels[i] = COARSE
        for k in S[i]:
            if labels[k] == UNDECIDED:
                lam[k] -= 1.0
                heapq.heappush(heap, (-lam[k], k))
        for j in ST[i]:
            if labels[j] == UNDECIDED:
                mark_fine(j)

    def mark_fine(j):
        labels[j] = FINE
        for k in S[j]:
            if labels[k] == UNDECIDED:
                lam[k] += 1.0
                heapq.heappush(heap, (-lam[k], k))

    heap = []
    for i in np.where([len(S[i]) == 0 and len(ST[i]) == 0 for i in range(n)])[0]:
        labels[i] = COARSE
    premark = [int(i) for i in sorted(set(premark_c)) if labels[i] == UNDECIDED]
    for i in premark:
        labels[i] = COARSE
    for i in premark:
        mark_coarse(i)
    for i in sorted(np.where(labels == UNDECIDED)[0]):
        heapq.heappush(heap, (-lam[i], int(i)))
    while heap:
        neg, i = heapq.heappop(heap)
        if labels[i] != UNDECIDED or -neg != lam[i]:
            continue
        mark_coarse(i)
    # Anything untouched (only positive couplings) becomes coarse.
    labels[labels == UNDECIDED] = COARSE
    return labels.astype(int)


def _cell_trace_sides(mesh: PolyMesh):
    """``{cell: set of (trace id, side)}`` for the cells with trace edges."""
    out = {}
    e, slot = np.nonzero((mesh.edge_cells >= 0)
                         & (mesh.edge_trace >= 0)[:, None])
    cell = mesh.edge_cells[e, slot]
    ends = mesh.nodes[mesh.edge_nodes[e]]
    t = ends[:, 1] - ends[:, 0]
    d = mesh.cell_centroids[cell] - mesh.edge_mid[e]
    side = np.where(t[:, 0] * d[:, 1] - t[:, 1] * d[:, 0] > 0, 1, -1)
    for c, gid, s in zip(cell.tolist(), mesh.edge_trace[e].tolist(),
                         side.tolist()):
        out.setdefault(c, set()).add((gid, s))
    return out


_NO_SIDES = frozenset()


def _attach_fine(strength: StrengthMatrix, S, labels, trace_sides) -> np.ndarray:
    """Merge each F cell into a C neighbour without mixing trace sides.

    ``trace_sides`` and the coarse cells' labels omit empty label sets.
    """
    n = strength.n
    A = strength.A
    part = np.full(n, -1, int)
    group_sides = {}
    next_id = 0
    for i in np.where(labels == 1)[0]:
        part[i] = next_id
        if i in trace_sides:
            group_sides[next_id] = set(trace_sides[i])
        next_id += 1

    def conflict(gid_set, add):
        s = gid_set | add
        return any((g, 1) in s and (g, -1) in s for g, _ in s)

    for i in np.where(labels == 0)[0]:
        i = int(i)
        cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
        vals = A.data[A.indptr[i]:A.indptr[i + 1]]
        cand = []
        for j, v in zip(cols, vals):
            j = int(j)
            if j == i or labels[j] != 1 or v >= 0:
                continue
            in_strong = 1 if j in S[i] else 0
            cand.append((-in_strong, v, j))  # strong first, then most negative
        cand.sort()
        sides = trace_sides.get(i, _NO_SIDES)
        placed = False
        for _, _, j in cand:
            g = part[j]
            if conflict(group_sides.get(g, _NO_SIDES), sides):
                continue
            part[i] = g
            if sides:
                group_sides[g] = group_sides.get(g, _NO_SIDES) | sides
            placed = True
            break
        if not placed:
            part[i] = next_id
            if sides:
                group_sides[next_id] = set(sides)
            next_id += 1
    # Renumber by first appearance for determinism.
    _, first, inverse = np.unique(part, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _tip_cells(mesh: PolyMesh, tips_local) -> list:
    """Cells sharing an immersed tip node and owning a trace edge."""
    if tips_local is None or len(tips_local) == 0:
        return []
    tips_local = np.atleast_2d(np.asarray(tips_local, float))
    tol = 1e-9 * max(mesh.cell_diameters.max(), 1.0)
    has_trace = np.zeros(mesh.n_cells, bool)
    has_trace[mesh.entry_cell[mesh.edge_trace[mesh.cell_edge] >= 0]] = True
    entries = np.flatnonzero(has_trace[mesh.entry_cell])
    pts = mesh.nodes[mesh.edge_nodes[mesh.cell_edge[entries]]]
    d = np.linalg.norm(pts[:, :, None, :] - tips_local[None, None], axis=3)
    near = np.zeros(mesh.n_cells, bool)
    near[mesh.entry_cell[entries[(d < tol).any(axis=(1, 2))]]] = True
    return np.flatnonzero(near).tolist()


def _build_coarse_mesh(mesh: PolyMesh, part: np.ndarray) -> PolyMesh:
    """Agglomerate cells; internal edges vanish, hanging nodes remain."""
    ec = mesh.edge_cells
    on_trace = mesh.edge_trace >= 0
    pc = np.where(ec >= 0, part[ec], -1)
    keep = np.flatnonzero((ec[:, 1] < 0) | on_trace | (pc[:, 0] != pc[:, 1]))
    new_eid = -np.ones(mesh.n_edges, int)
    new_eid[keep] = np.arange(len(keep))
    n_coarse = part.max() + 1
    # An entry survives unless the cell across its edge (the other slot)
    # joins the same coarse cell off a trace.
    first = mesh.edge_entry[mesh.cell_edge, 0] == np.arange(len(mesh.cell_edge))
    across = pc[mesh.cell_edge, first.astype(int)]
    group = part[mesh.entry_cell]
    kept = np.flatnonzero((across != group) | on_trace[mesh.cell_edge])
    kept = kept[np.argsort(group[kept], kind="stable")]
    bounds = np.searchsorted(group[kept], np.arange(n_coarse + 1))
    edges = new_eid[mesh.cell_edge[kept]]
    signs = mesh.cell_sign[kept]
    areas = np.zeros(n_coarse)
    centroids = np.zeros((n_coarse, 2))
    np.add.at(areas, part, mesh.cell_areas)
    np.add.at(centroids, part, mesh.cell_areas[:, None] * mesh.cell_centroids)
    centroids /= areas[:, None]

    # Node renumbering restricted to kept edges.
    old_nodes = mesh.edge_nodes[keep]
    used = np.unique(old_nodes)
    nid = -np.ones(mesh.n_nodes, int)
    nid[used] = np.arange(len(used))
    edge_nodes = nid[old_nodes]

    # Try to order each coarse cell's edges into a single boundary loop.
    order = np.arange(len(kept))
    chained = np.zeros(n_coarse, bool)
    for k, (a, b) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        loop = _chain_loop(edge_nodes, edges[a:b], signs[a:b])
        if loop is not None:
            order[a:b] = a + loop
            chained[k] = True
    return PolyMesh(
        mesh.nodes[used], edge_nodes, bounds, edges[order], signs[order],
        frame=mesh.frame,
        edge_trace=mesh.edge_trace[keep],
        edge_trace_elem=mesh.edge_trace_elem[keep],
        edge_trace_side=mesh.edge_trace_side[keep],
        areas=areas, centroids=centroids, chained=chained,
    )


def _chain_loop(edge_nodes, es, ss):
    """Order edges into one closed walk; None if pinched or multi-loop."""
    if len(es) == 0:
        return None
    ends = edge_nodes[es]
    tails = np.where(ss > 0, ends[:, 0], ends[:, 1]).tolist()
    heads = np.where(ss > 0, ends[:, 1], ends[:, 0]).tolist()
    start = {tail: pos for pos, tail in enumerate(tails)}
    if len(start) < len(tails):
        return None
    order, seen = [0], {0}
    for _ in range(len(es) - 1):
        pos = start.get(heads[order[-1]])
        if pos is None or pos in seen:
            return None
        order.append(pos)
        seen.add(pos)
    if heads[order[-1]] != tails[0]:
        return None
    return np.asarray(order, int)


@dataclass
class CoarsePartition:
    """Composed fine-to-coarse map across all sweeps."""

    cell_to_coarse: np.ndarray
    levels: int

    @property
    def n_coarse(self) -> int:
        return int(self.cell_to_coarse.max()) + 1


def agglomerate(mesh: PolyMesh, tips_local=None, c_depth: int = 1,
                eps_str: float = 0.25, lam=np.eye(2)):
    """Apply ``c_depth`` coarsening sweeps to a fracture mesh.

    ``tips_local`` holds frame coordinates of trace tips immersed in this
    fracture; the flanking cells are pre-marked coarse on every sweep.
    ``lam`` is a constant 2x2 tensor or a callback
    ``centroids -> (n, 2, 2)`` re-evaluated on each coarse level.
    Returns ``(coarse_mesh, CoarsePartition)``.
    """
    if c_depth < 0:
        raise ValueError("c_depth must be non-negative")
    total = np.arange(mesh.n_cells)
    current = mesh
    for _ in range(c_depth):
        strength = tpfa_matrix(current, lam)
        S = strength.strong_sets(eps_str)
        labels = cf_split(strength, eps_str,
                          premark_c=_tip_cells(current, tips_local))
        part = _attach_fine(strength, S, labels, _cell_trace_sides(current))
        if part.max() + 1 >= current.n_cells:
            break
        current = _build_coarse_mesh(current, part)
        total = part[total]
    return current, CoarsePartition(cell_to_coarse=total, levels=c_depth)


def agglomerate_network(network, meshes: dict, c_depth: int,
                        eps_str: float = 0.25) -> dict:
    """Agglomerate every fracture mesh of a network.

    A trace endpoint farther than ``100 * tol`` from its fracture's
    boundary is an immersed tip; the strength matrix uses the fracture's
    effective permeability ``aperture * k_tangential``.  Each coarse mesh
    gets its fracture's frame.  Returns ``{fid: (coarse_mesh,
    CoarsePartition)}`` in the order of ``meshes``.
    """
    out = {}
    for fid, mesh in meshes.items():
        frac = network.fracture(fid)
        tips = [frac.frame.to_local(p)
                for ln in network.traces_of(fid) for p in (ln.p0, ln.p1)
                if frac.boundary_distance(p) > 100 * frac.tol]
        coarse, part = agglomerate(mesh, tips_local=tips, c_depth=c_depth,
                                   eps_str=eps_str,
                                   lam=frac.effective_permeability)
        coarse.frame = frac.frame
        out[fid] = coarse, part
    return out
