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
from dataclasses import dataclass
from functools import cached_property

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
    """TPFA matrix whose negative couplings give the strength graph.

    ``A`` is in canonical CSR form: sorted column indices, no duplicates.
    """

    A: sparse.csr_matrix

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index of each entry of ``A.data``."""
        return np.repeat(np.arange(self.n), np.diff(self.A.indptr))

    def strong_sets(self, eps_str: float) -> np.ndarray:
        """Mask over ``A.data`` of the strong couplings: the off-diagonal
        ``A_ij`` with ``-A_ij >= eps_str * max_k(-A_ik)``."""
        A = self.A
        row = self.rows
        neg = A.data < 0
        most = np.zeros(self.n)
        np.maximum.at(most, row, np.where(neg, -A.data, 0.0))
        return neg & (-A.data >= eps_str * most[row]) & (A.indices != row)


def _cell_lambda(lam, centroids: np.ndarray) -> np.ndarray:
    """The ``(n, 2, 2)`` tensors of a callback, else ``lam`` as an array:
    one ``(2, 2)`` tensor for every cell, or one per cell."""
    if callable(lam):
        out = np.asarray(lam(centroids), float)
        if out.shape != (len(centroids), 2, 2):
            raise ValueError("permeability callback must return (n, 2, 2)")
        return out
    return np.asarray(lam, float)


def tpfa_matrix(mesh: PolyMesh, lam) -> StrengthMatrix:
    """Two-point flux approximation matrix of one fracture mesh.

    Half transmissibilities are ``|e| (n . lam d) / |d|^2`` with ``d``
    from the cell centroid to the edge midpoint, harmonically averaged
    across interior edges.  Trace edges and outer boundary edges act as
    Dirichlet-like closures contributing to the diagonal only.
    Triplets are laid out edge by edge, and each diagonal sums its
    contributions in edge order.
    """
    n = mesh.n_cells
    lam_c = _cell_lambda(lam, mesh.cell_centroids)
    if (mesh.cell_areas <= 0).any():
        raise DegenerateCell("mesh contains non-positive cell areas")
    ec = mesh.edge_cells
    inner = (ec[:, 1] >= 0) & (mesh.edge_trace < 0)
    # Every (edge, side) slot with a cell, in loop order.
    e, side = np.nonzero(ec >= 0)
    cell = ec[e, side]
    d = mesh.edge_mid.take(e, axis=0) - mesh.cell_centroids.take(cell, axis=0)
    dd = np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]
    if (dd <= 0.0).any():
        i = np.flatnonzero(dd <= 0.0)[0]
        raise DegenerateCell(
            f"cell {cell[i]}: centroid coincides with edge {e[i]} midpoint")
    nrm = mesh.outward_normals(mesh.edge_entry[e, side])
    # A (2, 2) tensor broadcasts through the same per-slot products.
    lam_e = lam_c if lam_c.ndim == 2 else lam_c.take(cell, axis=0)
    flux = np.matmul(nrm[:, None, :], np.matmul(lam_e, d[:, :, None]))[:, 0, 0]
    elen = mesh.edge_len[e]
    # Non-convex agglomerates can produce non-positive contributions;
    # clamp so the strength graph stays usable.
    alpha = np.maximum(elen * flux / dd, 1e-12 * elen)
    # An inner edge's two slots are consecutive, side 0 first.
    k = np.flatnonzero(inner[e] & (side == 0))
    a0, a1 = alpha[k], alpha[k + 1]
    T = a0 * a1 / (a0 + a1)
    alpha[k] = alpha[k + 1] = T
    diag = np.bincount(cell, weights=alpha, minlength=n)
    pair = np.column_stack([cell[k], cell[k + 1]])
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

    Keys ``i - lam[i] * n`` order by largest weight, then lowest index,
    and are distinct across cells.  The candidates are the keys after
    the premarks, sorted once into ``queue``, and the raised keys, pushed
    on ``heap`` as they are raised; a lowered weight pushes nothing.  So
    every undecided cell keeps a key no larger than its current one in
    ``queue[q:]`` or ``heap``, and the least candidate, when current, is
    the least current key of all: the pick an exact priority queue would
    make.  A least candidate below its cell's current key is pushed
    again as current.
    """
    if not 0.0 < eps_str < 1.0:
        raise ValueError("eps_str must lie in (0, 1)")
    n = strength.n
    A = strength.A
    strong = strength.strong_sets(eps_str)
    # S: the strong couplings by row; ST: by column, rows ascending.
    S = sparse.csr_matrix(
        (np.ones(strong.sum()), A.indices[strong],
         np.concatenate([[0], np.cumsum(strong)])[A.indptr]), shape=(n, n))
    ST = S.tocsc()
    n_s, n_st = np.diff(S.indptr), np.diff(ST.indptr)
    s_ptr, s_col = S.indptr.tolist(), S.indices.tolist()
    st_ptr, st_row = ST.indptr.tolist(), ST.indices.tolist()
    UNDECIDED, FINE, COARSE = -1, 0, 1
    labels = np.where((n_s == 0) & (n_st == 0), COARSE, UNDECIDED).tolist()
    lam = n_st.tolist()
    top = n * n + n                 # above every key
    heap = [top]
    push, pop = heapq.heappush, heapq.heappop

    def mark_coarse(i):
        labels[i] = COARSE
        for k in s_col[s_ptr[i]:s_ptr[i + 1]]:
            lam[k] -= 1
        fine = [j for j in st_row[st_ptr[i]:st_ptr[i + 1]]
                if labels[j] == UNDECIDED]
        for j in fine:
            labels[j] = FINE
        for j in fine:
            for k in s_col[s_ptr[j]:s_ptr[j + 1]]:
                if labels[k] == UNDECIDED:
                    lam[k] += 1
                    push(heap, k - lam[k] * n)

    premark = [int(i) for i in sorted(set(premark_c)) if labels[i] == UNDECIDED]
    for i in premark:
        labels[i] = COARSE
    for i in premark:
        mark_coarse(i)
    und = np.flatnonzero(np.array(labels) == UNDECIDED)
    queue = np.sort(und - np.array(lam)[und] * n).tolist() + [top]
    q = 0
    while True:
        if queue[q] < heap[0]:
            key = queue[q]
            q += 1
        elif heap[0] < top:
            key = pop(heap)
        else:
            break
        i = key % n
        if labels[i] != UNDECIDED:
            continue
        if key == i - lam[i] * n:
            mark_coarse(i)
        else:                           # lowered since it was pushed
            push(heap, i - lam[i] * n)
    return np.array(labels)


def _cell_trace_sides(mesh: PolyMesh):
    """``{cell: set of (trace id, side)}`` for the cells with trace edges."""
    out = {}
    e, slot = np.nonzero((mesh.edge_cells >= 0)
                         & (mesh.edge_trace >= 0)[:, None])
    cell = mesh.edge_cells[e, slot]
    ends = mesh.nodes.take(mesh.edge_nodes.take(e, axis=0), axis=0)
    t = ends[:, 1] - ends[:, 0]
    d = mesh.cell_centroids.take(cell, axis=0) - mesh.edge_mid.take(e, axis=0)
    side = np.where(t[:, 0] * d[:, 1] - t[:, 1] * d[:, 0] > 0, 1, -1)
    for c, gid, s in zip(cell.tolist(), mesh.edge_trace[e].tolist(),
                         side.tolist()):
        out.setdefault(c, set()).add((gid, s))
    return out


_NO_SIDES = frozenset()


def _mixes_sides(sides) -> bool:
    """Whether a set of (trace id, side) holds both sides of one trace."""
    return any((g, -s) in sides for g, s in sides)


def _attach_fine(strength: StrengthMatrix, labels, trace_sides) -> np.ndarray:
    """Merge each F cell into a C neighbour without mixing trace sides.

    The candidates of an F cell are its C neighbours with a negative
    coupling, ranked most negative first (so the strong couplings come
    first), then lowest index; the cell joins the first whose group it
    can join without the group holding both sides of one trace, or else
    forms its own group.

    ``trace_sides`` omits the cells without trace edges.  Such a cell
    never changes a group's sides, and an accepted cell never makes a
    group mix sides, so the cells without sides only avoid the C seeds
    that mix sides themselves and are placed all at once; the F cells
    with sides follow one at a time, in index order.
    """
    n = strength.n
    A = strength.A
    coarse = labels == 1
    part = np.where(coarse, np.cumsum(coarse) - 1, -1)
    group_sides = {part[c]: sides for c, sides in trace_sides.items()
                   if coarse[c]}
    split_seed = np.zeros(n, bool)
    split_seed[[c for c, sides in trace_sides.items()
                if coarse[c] and _mixes_sides(sides)]] = True
    has_sides = np.zeros(n, bool)
    has_sides[list(trace_sides)] = True
    row = strength.rows
    col = A.indices
    # Candidates by row, then value; ``cand`` starts in (row, col) order
    # and the stable value sort keeps it among equal values.
    cand = np.flatnonzero((A.data < 0) & (labels[row] == 0) & coarse[col])
    rank = np.empty(len(cand), int)
    rank[np.argsort(A.data[cand], kind="stable")] = np.arange(len(cand))
    cand = cand[np.argsort(row[cand] * len(cand) + rank)]
    # A cell without sides takes its first candidate that is no split seed.
    ok = cand[~has_sides[row[cand]] & ~split_seed[col[cand]]]
    cells, best = np.unique(row[ok], return_index=True)
    part[cells] = part[col[ok[best]]]
    bounds = np.searchsorted(row[cand], np.arange(n + 1))
    for i in sorted(c for c in trace_sides if labels[c] == 0):
        sides = trace_sides[i]
        for j in col[cand[bounds[i]:bounds[i + 1]]].tolist():
            g = part[j]
            joined = group_sides.get(g, _NO_SIDES) | sides
            if not _mixes_sides(joined):
                part[i] = g
                group_sides[g] = joined
                break
    # The F cells left over form groups of their own.
    alone = np.flatnonzero(part < 0)
    part[alone] = n + alone
    # Renumber by first appearance for determinism.
    _, first, inverse = np.unique(part, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _tip_cells(mesh: PolyMesh, tips_local) -> list:
    """Cells sharing an immersed tip node and owning a trace edge.

    A node is the tip's when within 1e-9 of the nodes' bounding-box
    diagonal, the scale of ``Fracture.tol``, so the pick is the same at
    every scale.
    """
    if tips_local is None or len(tips_local) == 0:
        return []
    tips_local = np.atleast_2d(np.asarray(tips_local, float))
    tol = 1e-9 * np.linalg.norm(mesh.nodes.max(0) - mesh.nodes.min(0))
    has_trace = np.zeros(mesh.n_cells, bool)
    has_trace[mesh.entry_cell[mesh.edge_trace[mesh.cell_edge] >= 0]] = True
    entries = np.flatnonzero(has_trace[mesh.entry_cell])
    pts = mesh.nodes.take(
        mesh.edge_nodes.take(mesh.cell_edge[entries], axis=0), axis=0)
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
    areas = np.bincount(part, mesh.cell_areas, n_coarse)
    moments = mesh.cell_areas[:, None] * mesh.cell_centroids
    centroids = np.column_stack([np.bincount(part, moments[:, 0], n_coarse),
                                 np.bincount(part, moments[:, 1], n_coarse)])
    centroids /= areas[:, None]

    # Node renumbering restricted to kept edges.
    old_nodes = mesh.edge_nodes.take(keep, axis=0)
    used = np.zeros(mesh.n_nodes, bool)
    used[old_nodes] = True
    used = np.flatnonzero(used)
    nid = -np.ones(mesh.n_nodes, int)
    nid[used] = np.arange(len(used))
    edge_nodes = nid[old_nodes]

    order, chained = _chain_loops(edge_nodes, edges, signs, bounds)
    # A kept edge keeps every entry, so its coarse slots are its fine
    # entries' new positions, ascending; ``at[-1]`` marks an absent slot.
    at = np.full(len(mesh.cell_edge) + 1, -1)
    at[kept[order]] = np.arange(len(kept))
    slots = at[mesh.edge_entry.take(keep, axis=0)]
    slots = np.where(slots[:, 1:] < 0, slots, np.sort(slots, axis=1))
    return PolyMesh(
        mesh.nodes.take(used, axis=0), edge_nodes, bounds, edges[order],
        signs[order],
        frame=mesh.frame,
        edge_trace=mesh.edge_trace[keep],
        edge_trace_elem=mesh.edge_trace_elem[keep],
        edge_trace_side=mesh.edge_trace_side[keep],
        areas=areas, centroids=centroids, chained=chained, edge_entry=slots,
    )


def _chain_loops(edge_nodes, edges, signs, bounds):
    """Order every cell's edges into one closed walk, all cells at once.

    Cell ``k`` owns the entries ``bounds[k]:bounds[k + 1]`` of ``edges``
    and ``signs``.  Each entry's successor is an entry of its cell whose
    tail node is its head node.  A cell is chained when the walk along
    the successors from its first entry visits all its entries and
    closes; a repeated tail leaves an entry that no walk reaches.  The
    walk is found by pointer jumping, cut before each first entry.
    Pinched, multi-loop, open and empty cells keep their entry order.
    Returns ``(order, chained)``: the permutation of the entries and one
    flag per cell.
    """
    n_cells = len(bounds) - 1
    count = np.diff(bounds)
    cell = np.repeat(np.arange(n_cells), count)
    m = len(cell)
    ends = edge_nodes.take(edges, axis=0)
    fwd = signs > 0
    width = int(edge_nodes.max(initial=-1)) + 1
    tail = cell * width + np.where(fwd, ends[:, 0], ends[:, 1])
    head = cell * width + np.where(fwd, ends[:, 1], ends[:, 0])
    by_tail = np.argsort(tail)
    at = np.minimum(np.searchsorted(tail[by_tail], head), m - 1)
    succ = by_tail[at]
    found = tail[succ] == head
    # Steps from each entry to the one before its cell's first entry.  An
    # entry without successor counts as farther than any cell is long,
    # and so do the entries on loops that miss the first entry.
    stop = succ == bounds[cell]
    nxt = np.where(found & ~stop, succ, np.arange(m))
    dist = np.where(found, ~stop, m)
    for _ in range(int(count.max(initial=1) - 1).bit_length()):
        dist += dist[nxt]
        nxt = nxt[nxt]
    chained = count > 0
    chained[chained] = dist[bounds[:-1][chained]] == count[chained] - 1
    pos = np.where(chained[cell], count[cell] - 1 - dist,
                   np.arange(m) - bounds[cell])
    order = np.empty(m, int)
    order[bounds[cell] + pos] = np.arange(m)
    return order, chained


@dataclass
class CoarsePartition:
    """Composed fine-to-coarse map across all sweeps."""

    cell_to_coarse: np.ndarray

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
        labels = cf_split(strength, eps_str,
                          premark_c=_tip_cells(current, tips_local))
        part = _attach_fine(strength, labels, _cell_trace_sides(current))
        if part.max() + 1 >= current.n_cells:
            break
        current = _build_coarse_mesh(current, part)
        total = part[total]
    return current, CoarsePartition(cell_to_coarse=total)


def agglomerate_network(network, meshes: dict, c_depth: int,
                        eps_str: float = 0.25) -> dict:
    """Agglomerate every fracture mesh of a network.

    A trace endpoint farther than ``100 * tol`` from its fracture's
    boundary is an immersed tip; the strength matrix uses the fracture's
    effective permeability ``aperture * k_tangential``.  Each coarse mesh
    keeps its fine mesh's frame, which must be its fracture's; where no
    sweep coarsens, the coarse mesh is the fine one.  Returns ``{fid:
    (coarse_mesh, CoarsePartition)}`` in the order of ``meshes``.
    """
    out = {}
    for fid, mesh in meshes.items():
        frac = network.fracture(fid)
        ends = np.array([p for ln in network.traces_of(fid)
                         for p in (ln.p0, ln.p1)]).reshape(-1, 3)
        # Each end maps to the frame as it would alone (see to_local).
        tips = frac.frame.to_local(ends[:, None])[:, 0][
            frac.boundary_distance(ends) > 100 * frac.tol]
        coarse, part = agglomerate(mesh, tips_local=tips, c_depth=c_depth,
                                   eps_str=eps_str,
                                   lam=frac.effective_permeability)
        out[fid] = coarse, part
    return out
