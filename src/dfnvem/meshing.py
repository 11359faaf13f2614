"""Per-fracture polygonal meshes and the conforming-but-nonmatching glue.

Each fracture is meshed independently in its own 2D frame, all of a
network's fractures in one batched pass; intersection traces enter the
triangulation as internal constraint polylines.  Trace
partitions shared by several fractures are then co-refined to the union
of breakpoints, and finally every edge lying on a trace is duplicated
into a plus and a minus side copy so that interface fluxes can jump.

Meshes are edge-based: cells reference edges with a traversal sign, so
hanging nodes and agglomerated (possibly non star-shaped) cells from the
coarsening module are representable without special cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    ConstraintConflict,
    EmptyDomain,
    InconsistentEndpoints,
    MeshError,
)
from .geometry import (
    Frame,
    IntersectionLine,
    _box_pairs,
    _by_group,
    _dots,
    _even_odd,
    _first_kept,
    _merge_targets,
    _norms,
    _ranges,
    point_segment_distance,
    polygon_area,
    segments_cross,
)

__all__ = [
    "PolyMesh",
    "TraceMesh",
    "cartesian_mesh",
    "random_mesh",
    "triangulate",
    "triangulate_fracture",
    "triangulate_network",
    "corefine_network",
    "split_interface_dofs",
    "mesh_stats",
    "save_mesh",
]


_RIGHT = np.array([1, -1], np.int8)
_FIELDS = ("nodes", "edge_nodes", "cell_ptr", "cell_edge", "cell_sign", "frame",
           "edge_trace", "edge_trace_elem", "edge_trace_side", "chained")


def _bucket_width(d):
    """The width a cell of ``d`` edges is padded to in
    ``PolyMesh.cell_buckets``: ``d`` itself up to 8, then the next
    multiple of 8; ``d`` is an int or an integer array."""
    return d + (d > 8) * (-d % 8)


def _entry_next(ptr) -> np.ndarray:
    """Per entry of the cells ``ptr[k]:ptr[k + 1]``, the position of the
    following entry in the same cell; the last wraps to the first."""
    nxt = np.arange(1, ptr[-1] + 1, dtype=np.int32)
    full = ptr[1:] > ptr[:-1]
    nxt[ptr[1:][full] - 1] = ptr[:-1][full]
    return nxt


class PolyMesh:
    """Polygonal tessellation of one fracture in frame coordinates.

    Every cell's edges are stored end to end, one entry per (cell, edge)
    pair: entries ``cell_ptr[k]:cell_ptr[k + 1]`` are cell ``k``'s, with
    edge ids ``cell_edge`` and traversal signs ``cell_sign``.  Sign +1
    means edge ``(a, b)`` is walked a->b in the cell's counterclockwise
    boundary, so its outward normal is the right-hand side of a->b.
    Agglomerated cells may carry an unordered edge set; their area and
    centroid are then supplied explicitly, and so may ``edge_entry``.
    The cell arrays ``cell_ptr`` and ``cell_edge`` are int32, the edge
    arrays ``edge_nodes``, ``edge_trace`` and ``edge_trace_elem`` int64.
    A mesh is a value: nothing writes into it after construction.
    Derived data is computed on first use and kept, supplied data kept as
    given (``given_geometry``); every per-cell sum over entries runs in
    entry order.
    """

    def __init__(self, nodes, edge_nodes, cell_ptr, cell_edge, cell_sign,
                 frame=None, edge_trace=None, edge_trace_elem=None,
                 edge_trace_side=None, areas=None, centroids=None, chained=None,
                 edge_entry=None):
        self.nodes = np.asarray(nodes, float)
        self.edge_nodes = np.asarray(edge_nodes, int)
        self.cell_ptr = np.asarray(cell_ptr, np.int32)
        self.cell_edge = np.asarray(cell_edge, np.int32)
        self.cell_sign = np.asarray(cell_sign, np.int8)
        self.frame = frame
        ne = len(self.edge_nodes)
        self.edge_trace = (np.full(ne, -1, int) if edge_trace is None
                           else np.asarray(edge_trace, int))
        self.edge_trace_elem = (np.full(ne, -1, int) if edge_trace_elem is None
                                else np.asarray(edge_trace_elem, int))
        self.edge_trace_side = (np.zeros(ne, np.int8) if edge_trace_side is None
                                else np.asarray(edge_trace_side, np.int8))
        self.chained = (np.ones(self.n_cells, bool) if chained is None
                        else np.asarray(chained, bool))
        given = self.given_geometry = {}
        if areas is not None:
            given["areas"] = self.cell_areas = np.asarray(areas, float)
        if centroids is not None:
            given["centroids"] = self.cell_centroids = np.asarray(centroids, float)
        if edge_entry is not None:
            self.edge_entry = np.asarray(edge_entry, np.int32)

    # -------------------------------------------------------------- #
    # construction helpers
    # -------------------------------------------------------------- #

    @classmethod
    def from_cells(cls, nodes, cell_nodes, frame=None):
        """Build from per-cell node loops, deduplicating edges.

        Clockwise loops are reversed.  Edges are numbered in order of first
        appearance along the loops, each stored as (lower, higher) node.
        ``cell_nodes`` is a list of loops, or an array with one per row.
        """
        nodes = np.asarray(nodes, float)
        if isinstance(cell_nodes, np.ndarray):
            counts = np.full(len(cell_nodes), cell_nodes.shape[1])
            loop = cell_nodes.astype(int).ravel()
        else:
            counts = np.fromiter(map(len, cell_nodes), int, len(cell_nodes))
            loop = np.fromiter(chain.from_iterable(cell_nodes), int, counts.sum())
        ptr = np.zeros(len(counts) + 1, int)
        np.cumsum(counts, out=ptr[1:])
        cell = np.repeat(np.arange(len(counts)), counts)
        nxt = _entry_next(ptr)
        pts = nodes.take(loop, axis=0)
        q = pts.take(nxt, axis=0)
        cw = np.bincount(cell, pts[:, 0] * q[:, 1] - q[:, 0] * pts[:, 1],
                         len(counts)) < 0
        # A clockwise loop's entries are read back to front.
        at = np.arange(len(loop))
        loop = loop[np.where(cw[cell], (ptr[:-1] + ptr[1:] - 1)[cell] - at, at)]
        head = loop[nxt]
        lo, hi = np.minimum(loop, head), np.maximum(loop, head)
        _, first, inverse = np.unique(lo * len(nodes) + hi, return_index=True,
                                      return_inverse=True)
        edge_id = np.empty(len(first), int)
        edge_id[np.argsort(first)] = np.arange(len(first))
        edge_nodes = np.column_stack([lo, hi]).take(np.sort(first), axis=0)
        return cls(nodes, edge_nodes, ptr, edge_id[inverse],
                   np.where(loop <= head, 1, -1), frame=frame)

    # -------------------------------------------------------------- #
    # derived data, computed on first use
    # -------------------------------------------------------------- #

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_edges(self):
        return len(self.edge_nodes)

    @property
    def n_cells(self):
        return len(self.cell_ptr) - 1

    @cached_property
    def entry_cell(self):
        """Cell id of each entry."""
        return np.repeat(np.arange(self.n_cells, dtype=np.int32),
                         np.diff(self.cell_ptr))

    @cached_property
    def entry_tail(self):
        """Node each entry's edge is walked from.  A chained cell's polygon
        is ``nodes[entry_tail]`` over its entries."""
        ends = self.edge_nodes.take(self.cell_edge, axis=0)
        return np.where(self.cell_sign > 0, ends[:, 0],
                        ends[:, 1]).astype(np.int32)

    @cached_property
    def entry_next(self):
        """Position of the following entry in the same cell; the last
        wraps to the first."""
        return _entry_next(self.cell_ptr)

    @cached_property
    def cell_buckets(self):
        """The cells in fixed-width blocks: per ``_bucket_width`` ``w``,
        increasing, cell ids ``(n,)`` by edge count and then id, their
        entry positions ``(n, w)`` and the mask of real slots ``(n, w)``,
        None where no cell of the bucket is padded.  A padding slot
        repeats its cell's last entry; a cell without entries is in no
        bucket."""
        counts = np.diff(self.cell_ptr)
        width = _bucket_width(counts)
        buckets = []
        for w in np.unique(width[counts > 0]).tolist():
            ids = np.flatnonzero(width == w)
            ids = ids[np.argsort(counts[ids], kind="stable")]
            count = counts[ids][:, None]
            slot = np.arange(w)
            real = None if (count == w).all() else slot < count
            buckets.append((ids, self.cell_ptr[ids][:, None]
                            + np.minimum(slot, count - 1), real))
        return tuple(buckets)

    @cached_property
    def edge_len(self):
        ends = self.nodes.take(self.edge_nodes, axis=0)
        return np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)

    @cached_property
    def edge_mid(self):
        ends = self.nodes.take(self.edge_nodes, axis=0)
        return 0.5 * (ends[:, 0] + ends[:, 1])

    @cached_property
    def edge_entry(self):
        """(E, 2) entry of each ``edge_cells`` cell, -1 where absent: slot
        0 is an edge's first entry, slot 1 its second; a third entry is an
        error."""
        ce = self.cell_edge
        count = np.bincount(ce, minlength=self.n_edges)
        if (count > 2).any():
            third = [(np.flatnonzero(ce == e)[2], e)
                     for e in np.flatnonzero(count > 2).tolist()]
            raise MeshError(f"edge {min(third)[1]} bounds more than two cells")
        pos = np.arange(len(ce), dtype=np.int32)
        first = np.full(self.n_edges, len(ce), np.int32)
        last = np.full(self.n_edges, -1, np.int32)
        np.minimum.at(first, ce, pos)
        np.maximum.at(last, ce, pos)
        return np.column_stack([np.where(count > 0, first, -1),
                                np.where(count > 1, last, -1)])

    @cached_property
    def edge_cells(self):
        """(E, 2) adjacent cell ids, -1 where absent."""
        entry = self.edge_entry
        return np.where(entry >= 0, self.entry_cell[entry], -1).astype(int)

    def outward_normals(self, entries) -> np.ndarray:
        """Outward unit normals of entries, shape ``entries.shape + (2,)``."""
        # The unit tangent t = (b - a) / |e| of each edge a->b; (t1, t0) *
        # (s, -s) is the right-hand normal (t1, -t0) times the sign s, bit
        # for bit.
        edges = self.cell_edge[entries]
        ends = self.nodes.take(self.edge_nodes.take(edges, axis=0), axis=0)
        t = ((ends[..., 1, :] - ends[..., 0, :])
             / self.edge_len[edges][..., None])
        s = self.cell_sign[entries][..., None]
        return t[..., ::-1] * (s * _RIGHT)

    @cached_property
    def _loop_sums(self):
        """Per cell, twice the signed shoelace area and the first moment
        ``sum((p + q) (p x q))`` over its entries' edges ``p -> q``, summed
        in entry order, from one pass that the areas and the centroids
        share."""
        p = self.nodes.take(self.entry_tail, axis=0)
        q = p.take(self.entry_next, axis=0)
        cross = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
        cell, n = self.entry_cell, self.n_cells
        first = np.column_stack([
            np.bincount(cell, (p[:, k] + q[:, k]) * cross, n) for k in (0, 1)])
        return np.bincount(cell, cross, n), first

    @cached_property
    def cell_areas(self):
        return 0.5 * self._loop_sums[0]

    @cached_property
    def cell_centroids(self):
        twice, first = self._loop_sums
        zero = np.flatnonzero(np.abs(twice) < 1e-300)
        if len(zero):
            raise MeshError(f"cell {zero[0]} has zero area")
        return first / (3 * twice)[:, None]

    @cached_property
    def cell_diameters(self):
        """Largest vertex distance per cell.  Every node of a cell bounded
        by closed walks is the tail of one of its entries."""
        diam = np.zeros(self.n_cells)
        for ids, pos, _ in self.cell_buckets:
            pts = self.nodes.take(self.entry_tail[pos], axis=0)
            a, b = np.triu_indices(pos.shape[1], 1)
            dx = pts[:, a, 0] - pts[:, b, 0]
            dy = pts[:, a, 1] - pts[:, b, 1]
            diam[ids] = np.sqrt((dx * dx + dy * dy).max(axis=1, initial=0.0))
        return diam

    @property
    def boundary_edges(self):
        """Outer-boundary edges: one adjacent cell and not on a trace."""
        return np.where((self.edge_cells[:, 1] < 0) & (self.edge_trace < 0))[0]

    # -------------------------------------------------------------- #
    # refinement (used by co-refinement)
    # -------------------------------------------------------------- #

    @property
    def fields(self) -> dict:
        """The constructor arguments that build this mesh again."""
        return {**{name: getattr(self, name) for name in _FIELDS},
                **self.given_geometry}


def _split_fields(mesh, eids, counts, points) -> dict:
    """``mesh.fields`` with edge ``eids[i]`` (each edge at most once) cut
    at ``counts[i] >= 1`` interior points, the next rows of ``points``
    from node a to node b.  The edge keeps its first piece and the others
    are appended, numbered as if the edges were split one by one in
    ``eids`` order.  A new edge takes its parent's trace tags, and given
    geometry carries over, since a split moves no cell."""
    eids = np.asarray(eids, int)
    n_pts = np.asarray(counts, int)
    fields = mesh.fields
    if not len(eids):
        return fields
    # Split i adds nodes and edges k0[i] .. k0[i] + n_pts[i] - 1 past
    # the current counts; its pieces are eid, then those new edges.
    k0 = np.cumsum(n_pts) - n_pts
    tails = mesh.n_nodes + np.arange(n_pts.sum())
    heads = tails + 1
    heads[k0 + n_pts - 1] = mesh.edge_nodes[eids, 1]
    # Every entry of a split edge becomes its pieces, reversed where
    # the cell walks the edge b -> a.
    entries = mesh.edge_entry[eids]
    split_of = np.nonzero(entries >= 0)[0]
    entries = entries[entries >= 0]
    m = n_pts[split_of] + 1
    reps = np.ones(len(mesh.cell_edge), int)
    reps[entries] = m
    end = np.cumsum(reps)
    k = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
    piece = np.where(np.repeat(mesh.cell_sign[entries] > 0, m), k,
                     np.repeat(m - 1, m) - k)
    i = np.repeat(split_of, m)
    cell_edge = np.repeat(mesh.cell_edge, reps)
    cell_edge[np.repeat(end[entries] - m, m) + k] = np.where(
        piece == 0, eids[i], mesh.n_edges + k0[i] + piece - 1)
    edge_nodes = np.vstack([mesh.edge_nodes, np.column_stack([tails, heads])])
    edge_nodes[eids, 1] = tails[k0]
    parent = np.concatenate([np.arange(mesh.n_edges), np.repeat(eids, n_pts)])
    fields.update(
        nodes=np.vstack([mesh.nodes, np.reshape(points, (-1, 2))]),
        edge_nodes=edge_nodes, cell_ptr=np.concatenate([[0], end])[mesh.cell_ptr],
        cell_edge=cell_edge, cell_sign=np.repeat(mesh.cell_sign, reps),
        edge_trace=mesh.edge_trace[parent],
        edge_trace_elem=mesh.edge_trace_elem[parent],
        edge_trace_side=mesh.edge_trace_side[parent])
    return fields


# ------------------------------------------------------------------ #
# structured generators (unit square in frame coordinates)
# ------------------------------------------------------------------ #

def cartesian_mesh(n: int, ny: int | None = None, frame: Frame | None = None,
                   bounds=((0.0, 0.0), (1.0, 1.0))) -> PolyMesh:
    """Cartesian grid, by default n x n on the unit square."""
    ny = n if ny is None else ny
    (x0, y0), (x1, y1) = bounds
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    # Cell (i, j) has corner (i, j) at node i * (ny + 1) + j.
    corner = (np.arange(n)[:, None] * (ny + 1) + np.arange(ny)).reshape(-1, 1)
    loops = corner + np.array([0, ny + 1, ny + 2, 1])
    return PolyMesh.from_cells(nodes, loops, frame=frame)


def random_mesh(n: int, seed: int, frame: Frame | None = None) -> PolyMesh:
    """Cartesian grid with randomly moved internal nodes.

    Each interior node is displaced uniformly within ``0.3 h`` per axis;
    a validity check keeps every quad simple and star-shaped with respect
    to its centroid, resampling offending nodes.
    """
    mesh = cartesian_mesh(n, frame=frame)
    rng = np.random.default_rng(seed)
    reach = 0.3 * (1.0 / n)   # 0.3 h, with h = 1 / n rounded first
    nodes = mesh.nodes.copy()
    interior = np.where(
        (nodes[:, 0] > 1e-12) & (nodes[:, 0] < 1 - 1e-12)
        & (nodes[:, 1] > 1e-12) & (nodes[:, 1] < 1 - 1e-12)
    )[0]
    base = nodes.take(interior, axis=0)
    nodes[interior] = base + rng.uniform(-reach, reach, (len(interior), 2))

    # A quad must be simple and star-shaped with respect to its vertex mean.
    loops = mesh.entry_tail.reshape(-1, 4)
    is_interior = np.zeros(len(nodes), bool)
    is_interior[interior] = True
    for _ in range(50):
        pts = nodes.take(loops, axis=0)
        c = pts.mean(axis=1)[:, None, :]
        d = np.roll(pts, -1, axis=1) - pts
        cr = d[..., 0] * (c[..., 1] - pts[..., 1]) - d[..., 1] * (c[..., 0] - pts[..., 0])
        bad = np.unique(loops[(cr <= 1e-12).any(axis=1)])
        bad = bad[is_interior[bad]]
        if not len(bad):
            break
        for i in bad:
            j = np.searchsorted(interior, i)
            nodes[i] = base[j] + rng.uniform(-reach, reach, 2)
    else:
        raise MeshError("random mesh validity check failed to converge")
    return PolyMesh(nodes, mesh.edge_nodes, mesh.cell_ptr, mesh.cell_edge,
                    mesh.cell_sign, frame=frame)


# ------------------------------------------------------------------ #
# constrained triangulation
# ------------------------------------------------------------------ #
#
# Every stage below runs on the polygons of several fractures at once:
# their points, traces and segments are concatenated fracture after
# fracture and keyed by a fracture index ``fid``, and no stage mixes two
# fractures.  A fracture's arrays, and so its mesh, are those of a batch
# holding it alone.  Of the stages, only the Delaunay calls loop over the
# fractures; the polygons' checks and the final cut into per-fracture
# meshes take one short step each.

class _Failed(Exception):
    """Fracture ``index`` of a batch fails with ``error``."""

    def __init__(self, index: int, error: Exception):
        super().__init__(index, error)
        self.index, self.error = index, error


def _aranges(start, stop, step):
    """``np.arange(start[k], stop[k], step)`` over ``k``, end to end, bit
    for bit: numpy fills ``start + i * ((start + step) - start)`` past its
    first two values.  Returns the ``k`` and ``i`` of each value, and the
    values."""
    count = np.maximum(np.ceil((stop - start) / step), 0).astype(int)
    k, i = _ranges(np.zeros(len(count), int), count)
    out = start[k] + i * ((start + step) - start)[k]
    out[i == 0] = start[k[i == 0]]
    out[i == 1] = start[k[i == 1]] + step
    return k, i, out


def _lattice(lo, hi, s, seed):
    """Hexagonal lattice points over each box ``lo[f]``-``hi[f]`` grown by
    ``s``, each moved by up to ``0.15 s`` per axis, and their box, box
    after box.  Rows are ``s * sqrt(3) / 2`` apart; even rows take the x
    run from ``lo[f, 0] - s``, odd rows the one offset by ``s / 2``.
    Every box takes the same draws."""
    rfid, r, rows = _aranges(lo[:, 1] - s, hi[:, 1] + s, s * np.sqrt(3) / 2)
    # Run 2 f + p is box f's x run of parity p.
    runs = np.column_stack([lo[:, 0] - s + 0.0, lo[:, 0] - s + 0.5 * s]).ravel()
    run, _, xs = _aranges(runs, np.repeat(hi[:, 0] + s, 2), s)
    count = np.bincount(run, minlength=len(runs))
    row_run = 2 * rfid + r % 2
    row, at = _ranges((np.cumsum(count) - count)[row_run], count[row_run])
    fid = rfid[row]
    pts = np.column_stack([xs[at], rows[row]])
    if len(pts):
        local = np.arange(len(pts)) - np.searchsorted(fid, fid)
        pts = pts + np.random.default_rng(seed).uniform(
            -0.15 * s, 0.15 * s, (np.bincount(fid).max(), 2))[local]
    return pts, fid


class _PointPool:
    """Deduplicating point registries of one or more fractures.

    Fracture ``f``'s points are rows ``ptr[f]:ptr[f + 1]`` of ``pts``, in
    the order they were registered, and a point's id is its row within
    its fracture.  Rows passed in one call are grouped by ascending
    fracture.
    """

    def __init__(self, tol):
        self.tol = np.atleast_1d(np.asarray(tol, float))
        self.pts = np.zeros((0, 2))
        self.ptr = np.zeros(len(self.tol) + 1, int)

    def extend(self, pts: np.ndarray, fid=None) -> None:
        """Register the rows of ``pts`` without deduplication."""
        fid = np.zeros(len(pts), int) if fid is None else fid
        counts = np.bincount(fid, minlength=len(self.tol))
        self.pts = np.insert(self.pts, np.repeat(self.ptr[1:], counts), pts,
                             axis=0)
        self.ptr[1:] += np.cumsum(counts)

    def ids(self, pts: np.ndarray, fid=None) -> np.ndarray:
        """Id of each row of ``pts``, of fracture ``fid[i]``, as if the rows
        were added in turn: the first point within ``tol`` of the row,
        else a new point."""
        pts = np.asarray(pts, float).reshape(-1, 2)
        fid = np.zeros(len(pts), int) if fid is None else np.asarray(fid)
        size, m = np.diff(self.ptr), len(pts)
        # The lowest id wins, which keeps the numbering deterministic.
        ids = np.full(m, len(self.pts) + m)
        # Only the points of the rows' fractures can be near them.
        f = np.unique(fid)
        _, rows = _ranges(self.ptr[f], size[f])
        i, j = self._near(pts, fid, self.pts.take(rows, axis=0),
                          np.repeat(f, size[f]))
        np.minimum.at(ids, i, rows[j] - self.ptr[fid[i]])
        # A row near no earlier point merges into the first earlier row
        # near it that was itself registered, else it is registered
        # (``_merge_targets``' rule).
        new = np.flatnonzero(ids == len(self.pts) + m)
        i, j = self._near(pts[new], fid[new], pts[new], fid[new])
        target = _merge_targets(len(new), j[j < i], i[j < i])
        kept = target == np.arange(len(new))
        # A kept row's id follows its fracture's points and the rows of
        # the same fracture kept before it.
        f = fid[new]
        before = np.cumsum(np.bincount(f[kept], minlength=len(size))) \
            - np.bincount(f[kept], minlength=len(size))
        rank = np.cumsum(kept) - 1 - before[f]
        ids[new] = (size[f] + rank)[target]
        self.extend(pts[new[kept]], f[kept])
        return ids

    def _near(self, a, fa, b, fb):
        """Index pairs ``(i, j)`` with ``a[i]`` within ``tol`` of ``b[j]``
        and of the same fracture."""
        # Boxes of half-side twice the reach, for rounding.
        reach = 2 * self.tol[fa, None]
        i, j = _box_pairs(a - reach, a + reach, b, b, fa, fb)
        # The distance is np.linalg.norm's, rounding for rounding.
        d = a.take(i, axis=0) - b.take(j, axis=0)
        near = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) <= self.tol[fa[i]]
        return i[near], j[near]


def _trace_pieces(fid, gid, p0, p1, tol):
    """Split traces at their mutual crossings so constraints never cross.

    Trace ``k`` runs from ``p0[k]`` to ``p1[k]`` in fracture ``fid[k]``,
    ascending.  Returns the fracture, the trace id and the two end points
    of every piece longer than ``tol[fid]`` in parameter, trace by trace
    and along each trace.
    """
    counts = np.bincount(fid, minlength=len(tol))
    start = np.cumsum(counts) - counts
    # Trace j of the same fracture meets trace i at s along i and u
    # along j.
    i, j = _ranges(start[fid], counts[fid])
    d = p1 - p0
    d1, d2, r = d[i], d[j], p0[j] - p0[i]
    den = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / den
        u = (r[:, 0] * d1[:, 1] - r[:, 1] * d1[:, 0]) / den
    # |den| is |d1| |d2| sin(angle), so parallel is judged by the angle
    # alone, at every scale.
    length = _norms(d)
    cross = ((gid[i] != gid[j])
             & (np.abs(den) >= 1e-14 * length[i] * length[j])
             & (-1e-12 <= s) & (s <= 1 + 1e-12) & (-1e-12 <= u) & (u <= 1 + 1e-12))
    n = len(gid)
    owner = np.concatenate([np.arange(n), np.arange(n), i[cross]])
    # + 0.0 turns a clipped -0.0 into the 0.0 it repeats.
    at = np.concatenate([np.zeros(n), np.ones(n),
                         np.clip(s[cross], 0.0, 1.0) + 0.0])
    order = _by_group(owner, at)
    owner, at = owner[order], at[order]
    k = np.flatnonzero((owner[1:] == owner[:-1])
                       & (at[1:] - at[:-1] > tol[fid[owner[1:]]]))
    own = owner[k]
    return (fid[own], gid[own], p0[own] + at[k, None] * d[own],
            p0[own] + at[k + 1, None] * d[own])


def _constraint_points(seg0, seg1, hard, k, v, tol, h_target):
    """Points of the constraint segments ``seg0[k]``-``seg1[k]``.

    Each segment is split at the hard vertices ``hard[v]`` of the pairs
    ``(k, v)`` that lie inside it by more than ``tol[k]``, then every
    piece into equal parts no longer than ``h_target``.  Returns the rows
    of every segment, one segment after the other, each from its first
    end, and the row count of each segment.
    """
    d = seg1 - seg0
    length = _norms(d)
    u = d / length[:, None]
    t = _dots(hard[v] - seg0[k], u[k])
    inner = (tol[k] < t) & (t < length[k] - tol[k])
    n_seg = len(seg0)
    seg = np.concatenate([np.arange(n_seg), np.arange(n_seg), k[inner]])
    at = np.concatenate([np.zeros(n_seg), length, t[inner]])
    order = _by_group(seg, at)
    seg, at = seg[order], at[order]
    # Consecutive distinct cuts of one segment bound a piece.
    piece = np.flatnonzero((seg[1:] == seg[:-1]) & (at[1:] > at[:-1]))
    ks = seg[piece]
    q0 = seg0[ks] + at[piece, None] * u[ks]
    q1 = seg0[ks] + at[piece + 1, None] * u[ks]
    n = np.maximum(1, np.ceil(_norms(q1 - q0) / h_target - 1e-12)).astype(int)
    counts = 1 + np.bincount(ks, n, n_seg).astype(int)
    start = np.cumsum(counts) - counts
    out = np.empty((counts.sum(), 2))
    out[start] = seg0
    # A piece's rows follow its segment's first end and earlier pieces.
    first = np.cumsum(n) - n + ks + 1
    for m in np.unique(n):
        sel = np.flatnonzero(n == m)
        steps = np.linspace(0.0, 1.0, m + 1)[1:, None]
        out[first[sel, None] + np.arange(m)] = (
            q0[sel, None] + steps * (q1 - q0)[sel, None])
    return out, counts


def _near_segments(pts, pts_fid, seg0, seg1, seg_fid, reach):
    """Segments ``k``, points ``j`` of the same fracture and the distance
    of each pair, over every pair that may lie within ``reach[k]``.

    Only the points inside a segment's bounding box grown by ``2 *
    reach[k]`` are measured against it: a point outside is farther than
    ``reach[k]`` with room to spare for rounding.
    """
    grow = 2 * reach[:, None]
    k, j = _box_pairs(np.minimum(seg0, seg1) - grow,
                      np.maximum(seg0, seg1) + grow, pts, pts, seg_fid, pts_fid)
    return k, j, point_segment_distance(pts[j], seg0[k], seg1[k])


def _close_pieces(fid, tol, ends0, ends1, i, j):
    """The pairs of pieces among the candidates ``(i, j)`` that lie
    between ``tol`` and ``100 * tol`` apart, with that distance, in the
    order of ``np.triu_indices`` over each fracture's pieces.  The
    candidates must hold every such pair, in either order."""
    n = len(ends0)
    key = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    i, j = key // n, key % n
    a0, a1, b0, b1 = ends0[i], ends1[i], ends0[j], ends1[j]
    d = point_segment_distance(np.stack([a0, a1, b0, b1]),
                               np.stack([b0, b0, a0, a0]),
                               np.stack([b1, b1, a1, a1])).min(axis=0)
    close = (tol[fid[i]] < d) & (d < 100 * tol[fid[i]])
    return i[close], j[close], d[close]


def _triangulate_all(polygons, traces, h_target, frames, seed=1234) -> list:
    """Meshes of ``polygons``, with the traces ``(fid, gid, p0, p1)`` of
    polygon ``fid``, or the error that meshing them one after another
    would raise first: the lowest failing polygon's, at its first stage
    that fails."""
    try:
        return _triangulate_batch(polygons, traces, h_target, frames, seed)
    except _Failed as failed:
        k = failed.index
        if k:
            # The polygons before the failing one may fail at a later
            # stage; their error comes first.
            keep = traces[0] < k
            _triangulate_all(polygons[:k], tuple(a[keep] for a in traces),
                             h_target, frames[:k], seed)
        raise failed.error from None


def _triangulate_batch(polygons, traces, h_target, frames, seed) -> list:
    """``_triangulate_all`` in one pass; raises ``_Failed`` with a failing
    polygon, the lowest of those that fail at the first failing stage."""
    # Imported here so that commands which never triangulate skip it.
    from scipy.spatial import Delaunay

    n_f = len(polygons)
    polys, diag = [], np.empty(n_f)
    for f, polygon in enumerate(polygons):
        polygon = np.asarray(polygon, float)
        area = polygon_area(polygon)
        if area < 0:
            polygon = polygon[::-1]
            area = -area
        if area <= 1e-300:
            raise _Failed(f, EmptyDomain("polygon has no area"))
        if h_target <= 0:
            raise _Failed(f, EmptyDomain("h_target must be positive"))
        diag[f] = np.linalg.norm(polygon.max(0) - polygon.min(0))
        polys.append(polygon)
    tol = 1e-9 * diag
    # Polygon vertex e of fracture vfid[e] is followed by vertex nxt[e].
    vptr = np.concatenate([[0], np.cumsum([len(p) for p in polys])])
    vfid = np.repeat(np.arange(n_f), np.diff(vptr))
    poly = np.vstack(polys)
    nxt = np.arange(1, len(poly) + 1)
    nxt[vptr[1:] - 1] = vptr[:-1]

    pfid, gids, ends0, ends1 = _trace_pieces(*traces, tol)
    n_p = len(gids)

    # Hard vertices: polygon corners and trace piece endpoints.  Any
    # constraint segment passing through one (a trace ending mid-edge on
    # the boundary, a T-junction between traces) is split there first so
    # consecutive constraint points are always Delaunay-connectable.
    # Constraint segments: the polygon's edges, then the trace pieces.
    # Both run fracture after fracture; ``*_piece`` is the piece of each,
    # -1 on the polygon.
    hfid = np.concatenate([vfid, pfid, pfid])
    order = np.argsort(hfid, kind="stable")
    hfid, hard = hfid[order], np.vstack([poly, ends0, ends1])[order]
    hard_piece = np.concatenate([np.full(len(poly), -1), np.arange(n_p),
                                 np.arange(n_p)])[order]
    sfid = np.concatenate([vfid, pfid])
    order = np.argsort(sfid, kind="stable")
    sfid = sfid[order]
    seg0 = np.vstack([poly, ends0])[order]
    seg1 = np.vstack([poly[nxt], ends1])[order]
    seg_piece = np.concatenate([np.full(len(poly), -1), np.arange(n_p)])[order]
    chain_gid = np.concatenate([np.full(len(poly), -1), gids])[order]
    stol = tol[sfid]

    # One sweep serves two tests.  Conflict detection: pieces of two
    # traces closer than 100 tol without meeting; a piece end lies within
    # that reach of the other piece.  Hard-vertex marks: the vertices
    # within tol of each segment.
    k, v, dist = _near_segments(hard, hfid, seg0, seg1, sfid, 100 * stol)
    a, b = hard_piece[v], seg_piece[k]
    near = (a >= 0) & (b >= 0) & (dist < 100 * stol[k])
    near[near] = gids[a[near]] != gids[b[near]]
    i, j, d = _close_pieces(pfid, tol, ends0, ends1, a[near], b[near])
    apart = np.flatnonzero(~segments_cross(ends0[i], ends1[i], ends0[j],
                                           ends1[j], tol[pfid[i]]))
    if len(apart):
        i, j, d = i[apart[0]], j[apart[0]], d[apart[0]]
        raise _Failed(pfid[i], ConstraintConflict(
            f"traces {gids[i]} and {gids[j]} are {d:.3e} apart "
            f"without meeting"))
    on = dist <= stol[k]

    # Chains of point ids whose consecutive pairs must become edges, one
    # per segment, end to end in ``chain``; ``ptr`` bounds them and
    # ``chain_gid`` is the trace id each carries (-1 on the polygon).
    pool = _PointPool(np.maximum(tol, 1e-12 * diag))
    points, counts = _constraint_points(seg0, seg1, hard, k[on], v[on], stol,
                                        h_target)
    chain = pool.ids(points, np.repeat(sfid, counts))
    ptr = np.concatenate([[0], np.cumsum(counts)])
    chain_fid = np.repeat(sfid, counts)

    # Hexagonal interior lattice with deterministic jitter.
    s = h_target
    lo = np.minimum.reduceat(poly, vptr[:-1])
    hi = np.maximum.reduceat(poly, vptr[:-1])
    cand, cfid = _lattice(lo, hi, s, seed)
    # Even-odd only: the distance test below drops boundary points.
    inside = _even_odd(cand, cfid, poly, vptr, nxt)
    cand, cfid = cand[inside], cfid[inside]
    k, j, dist = _near_segments(cand, cfid, seg0, seg1, sfid,
                                np.full(len(seg0), 0.5 * s))
    clear = np.ones(len(cand), bool)
    clear[j[dist < 0.5 * s]] = False
    # Lattice points are well separated; skip dedup.  Fracture f's are
    # its points lattice[f] to lattice[f] + n_lattice[f].
    lattice = np.diff(pool.ptr)
    pool.extend(cand[clear], cfid[clear])
    n_lattice = np.diff(pool.ptr) - lattice

    # Delaunay with constraint-edge recovery by midpoint insertion.  Four
    # distant padding points keep every real point off the convex hull,
    # which prevents zero-area slivers between collinear boundary points.
    center = 0.5 * (lo + hi)
    pad = center[:, None] + 10 * diag[:, None, None] * np.array(
        [(-1, -1), (1, -1), (1, 1), (-1, 1)])
    simplices, keys = [None] * n_f, [None] * n_f
    pending = range(n_f)
    for _ in range(12):
        n_real = np.diff(pool.ptr)
        stride = n_real + len(pad[0])
        for f in pending:
            if n_real[f] < 3:
                raise _Failed(f, EmptyDomain("not enough points to triangulate"))
            pts = pool.pts[pool.ptr[f]:pool.ptr[f + 1]]
            simplices[f] = Delaunay(np.vstack([pts, pad[f]])).simplices
            ends = np.sort(simplices[f], axis=1).astype(int)
            keys[f] = f + 1j * np.sort(ends[:, [0, 1, 0]] * stride[f]
                                       + ends[:, [1, 2, 2]], None)
        edge_keys = np.concatenate(keys)
        link = np.ones(len(chain) - 1, bool)
        link[ptr[1:-1] - 1] = False
        pairs = np.column_stack([chain[:-1], chain[1:]])[link]
        pair_fid = chain_fid[:-1][link]
        want = pair_fid + 1j * (pairs.min(axis=1) * stride[pair_fid]
                                + pairs.max(axis=1))
        found = edge_keys[np.searchsorted(edge_keys, want)
                          % len(edge_keys)] == want
        if found.all():
            break
        # Split each missing pair at its midpoint, in chain order.
        at = np.flatnonzero(link)[~found] + 1
        miss = pair_fid[~found]
        rows = pool.ptr[miss, None] + pairs[~found]
        pair_pts = pool.pts.take(rows, axis=0)
        mids = 0.5 * (pair_pts[:, 0] + pair_pts[:, 1])
        chain = np.insert(chain, at, pool.ids(mids, miss))
        chain_fid = np.insert(chain_fid, at, miss)
        ptr = ptr + np.searchsorted(at, ptr)
        pending = np.unique(miss).tolist()
    else:
        raise _Failed(pending[0], MeshError("constraint recovery did not converge"))

    # Keep real triangles inside the polygon.  After recovery constraints
    # are unions of Delaunay edges, so no triangle crosses the polygon:
    # one with a lattice point, at least s / 2 inside, is inside, and
    # the centroid test decides the others.  Triangles are numbered by
    # the pool's rows, across fractures.
    tri_fid = np.repeat(np.arange(n_f), [len(t) for t in simplices])
    tris = np.concatenate(simplices)
    real = (tris < n_real[tri_fid, None]).all(axis=1)
    tri_fid, tris = tri_fid[real], tris[real]
    inside = ((tris >= lattice[tri_fid, None])
              & (tris < (lattice + n_lattice)[tri_fid, None])).any(axis=1)
    tris = tris + pool.ptr[tri_fid, None]
    test = np.flatnonzero(~inside)
    centers = pool.pts.take(tris[test], axis=0).mean(axis=1)
    inside[test] = _even_odd(centers, tri_fid[test], poly, vptr, nxt)
    # The tol band, measured only for the centers still outside.
    out = ~inside[test]
    test, centers = test[out], centers[out]
    k, j, dist = _near_segments(centers, tri_fid[test], poly, poly[nxt], vfid,
                                tol[vfid])
    inside[test[j[dist <= tol[vfid[k]]]]] = True
    tris, tri_fid = tris[inside], tri_fid[inside]
    cell_ptr = np.concatenate([[0], np.cumsum(np.bincount(tri_fid,
                                                          minlength=n_f))])
    empty = np.flatnonzero(cell_ptr[1:] == cell_ptr[:-1])
    if len(empty):
        raise _Failed(empty[0], EmptyDomain("no triangles inside the polygon"))
    used = np.flatnonzero(np.bincount(tris.ravel(), minlength=len(pool.pts)))
    renum = -np.ones(len(pool.pts), int)
    renum[used] = np.arange(len(used))
    # One mesh of every fracture: their nodes, cells and edges (numbered
    # by first appearance) are runs, fracture after fracture.
    whole = PolyMesh.from_cells(pool.pts.take(used, axis=0), renum[tris])

    # Tag trace edges: every consecutive pair of a trace chain is one.
    gids = np.repeat(chain_gid, np.diff(ptr) - 1)
    pairs = np.sort(renum[pool.ptr[pair_fid, None] + pairs][gids >= 0], axis=1)
    pair_fid, gids = pair_fid[gids >= 0], gids[gids >= 0]
    n = len(used)
    keys = whole.edge_nodes[:, 0] * n + whole.edge_nodes[:, 1]
    order = np.argsort(keys)
    want = pairs[:, 0] * n + pairs[:, 1]
    at = order[np.searchsorted(keys, want, sorter=order) % len(keys)]
    bad = np.flatnonzero(keys[at] != want)
    if len(bad):
        raise _Failed(pair_fid[bad[0]], MeshError(
            f"trace {gids[bad[0]]} not covered by mesh edges"))
    edge_trace = np.full(whole.n_edges, -1)
    edge_trace[at] = gids

    node_ptr = np.searchsorted(used, pool.ptr)
    edge_fid = np.searchsorted(node_ptr, whole.edge_nodes[:, 0], "right") - 1
    edge_ptr = np.concatenate([[0], np.cumsum(np.bincount(edge_fid,
                                                          minlength=n_f))])
    entry_ptr = whole.cell_ptr[cell_ptr]
    meshes = []
    for f in range(n_f):
        n0, n1 = node_ptr[f], node_ptr[f + 1]
        e0, e1 = edge_ptr[f], edge_ptr[f + 1]
        c0, c1 = cell_ptr[f], cell_ptr[f + 1]
        entries = slice(entry_ptr[f], entry_ptr[f + 1])
        meshes.append(PolyMesh(
            whole.nodes[n0:n1], whole.edge_nodes[e0:e1] - n0,
            whole.cell_ptr[c0:c1 + 1] - entry_ptr[f],
            whole.cell_edge[entries] - e0, whole.cell_sign[entries],
            frame=frames[f], edge_trace=edge_trace[e0:e1]))
    return meshes


def triangulate(polygon: np.ndarray, traces=None, h_target: float = 0.1,
                frame: Frame | None = None, seed: int = 1234) -> PolyMesh:
    """Constrained Delaunay triangulation of a polygon with trace segments.

    ``polygon`` is the CCW boundary in frame coordinates and ``traces`` a
    list of ``(gid, p0, p1)`` constraint segments (frame coordinates).
    All constraints are subdivided to ``h_target`` and recovered exactly:
    every trace is covered by a chain of mesh edges tagged with its id.
    Interior points come from a lightly jittered hexagonal lattice, so
    the result is deterministic but unstructured.  This is
    ``triangulate_network``'s pass on one polygon.
    """
    traces = [] if traces is None else traces
    gid = np.array([g for g, _, _ in traces], int)
    p0 = np.array([a for _, a, _ in traces], float).reshape(-1, 2)
    p1 = np.array([b for _, _, b in traces], float).reshape(-1, 2)
    return _triangulate_all([polygon], (np.zeros(len(gid), int), gid, p0, p1),
                            h_target, [frame], seed)[0]


def _triangulate_fractures(fractures: list, lines: list, h_target) -> list:
    """Meshes of ``fractures[f]`` honoring the traces ``lines[f]``."""
    fid = np.repeat(np.arange(len(fractures)), [len(ls) for ls in lines])
    ls = list(chain.from_iterable(lines))
    gid = np.array([ln.id for ln in ls], int)
    origin, t1, t2 = (np.array([getattr(f.frame, a) for f in fractures])
                      .reshape(-1, 3)[fid] for a in ("origin", "t1", "t2"))
    # Frame.to_local of each end alone, bit for bit (see _dots).
    ends = [np.column_stack([_dots(q, t1), _dots(q, t2)]) for q in (
        np.array([ln.p0 for ln in ls]).reshape(-1, 3) - origin,
        np.array([ln.p1 for ln in ls]).reshape(-1, 3) - origin)]
    return _triangulate_all([f.local_polygon for f in fractures],
                            (fid, gid, *ends), h_target,
                            [f.frame for f in fractures])


def triangulate_fracture(fracture, lines, h_target) -> PolyMesh:
    """Triangulate a fracture honoring its intersection traces: the pass
    of ``triangulate_network`` on one fracture."""
    return _triangulate_fractures([fracture], [list(lines)], h_target)[0]


def triangulate_network(network, h_target) -> dict:
    """Fracture id -> the triangulation of that fracture honoring its
    traces, for every fracture of ``network``, in one pass.

    Each mesh is the one ``triangulate_fracture`` gives.  On failure the
    error is the one meshing the fractures one after another, by id,
    would raise first.
    """
    fractures = sorted(network.fractures, key=lambda f: f.id)
    lines = {f.id: [] for f in fractures}
    for ln in network.lines:
        for fid in ln.parents:
            if fid in lines:
                lines[fid].append(ln)
    meshes = _triangulate_fractures(fractures, list(lines.values()), h_target)
    return {f.id: mesh for f, mesh in zip(fractures, meshes)}


# ------------------------------------------------------------------ #
# trace co-refinement
# ------------------------------------------------------------------ #

@dataclass
class TraceMesh:
    """Shared 1D partition of one intersection line.

    ``edges[fid]`` maps each 1D element to the single covering mesh edge
    of that fracture (before side splitting); the side copies are found
    through the split mesh's ``edge_trace``, ``edge_trace_elem`` and
    ``edge_trace_side`` tags.  ``xi_breaks`` lists forced breakpoints at
    two-codimensional intersection points, as ``(breakpoint, point id)``.
    """

    gamma: int
    line: IntersectionLine
    breakpoints: np.ndarray
    edges: dict = field(default_factory=dict)
    xi_breaks: list = field(default_factory=list)

    @property
    def n_elems(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def elem_len(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    @property
    def elem_mid(self) -> np.ndarray:
        return 0.5 * (self.breakpoints[:-1] + self.breakpoints[1:])

    def elem_mid_3d(self) -> np.ndarray:
        return self.line.p0 + np.outer(self.elem_mid, self.line.direction)


def _searcher(line, breaks):
    """``searchsorted`` over breaks sorted by line, then value: ``find(l,
    t, side)`` places each query ``t[k]`` among the breaks of line
    ``l[k]`` as ``np.searchsorted`` would in that line's run alone, and
    returns the position in ``breaks``.  The breaks' values are ranked
    once, so the queries compare floats as themselves, with no offset,
    and then integer keys."""
    values = np.unique(breaks)
    keys = line * len(values) + np.searchsorted(values, breaks)

    def find(l, t, side="left"):
        return np.searchsorted(keys, l * len(values)
                               + np.searchsorted(values, t, side))
    return find


def _to_global(uv, f, origin, t1, t2):
    """``Frame.to_global`` of each point ``uv[k]`` (leading axes ``k``)
    in the frame ``origin[f[k]], t1[f[k]], t2[f[k]]``, bit for bit."""
    return origin[f] + uv[..., :1] * t1[f] + uv[..., 1:] * t2[f]


def _corefine_lines(ts, counts, draft_line, length, tol):
    """Union of each line's parents' breakpoints, merged within ``tol``.

    Draft ``d`` is the next ``counts[d] >= 1`` values of ``ts`` and
    partitions line ``draft_line[d]`` (nondecreasing) of length
    ``length[l]``; a draft that does not span ``[0, length]`` raises
    ``InconsistentEndpoints``.  Returns the union partitions line after
    line and their bounds ``ptr``.  One sort by (line, t) lines up every
    line's values, and in that order each merges into the first kept
    value of its line within ``tol`` (``_merge_targets``' rule, by
    ``_first_kept``), so duplicates resolve toward the smaller value.
    """
    counts = np.asarray(counts)
    start = np.cumsum(counts) - counts
    lo, hi = np.minimum.reduceat(ts, start), np.maximum.reduceat(ts, start)
    span = length[draft_line]
    bad = np.flatnonzero((np.abs(lo) > tol) | (np.abs(hi - span) > tol))
    if len(bad):
        d = bad[0]
        raise InconsistentEndpoints(
            f"trace draft spans [{lo[d]:.3e}, {hi[d]:.3e}], "
            f"expected [0, {span[d]:.3e}]")
    line = np.repeat(draft_line, counts)
    order = _by_group(line, ts)
    t, line = ts[order], line[order]
    keep = _first_kept(t, line, tol)
    t, line = t[keep], line[keep]
    ptr = np.searchsorted(line, np.arange(len(length) + 1))
    full = ptr[1:] > ptr[:-1]
    t[ptr[:-1][full]] = 0.0
    t[ptr[1:][full] - 1] = length[full]
    return ptr, t


def _nearest(breaks, find, ptr, line, t):
    """Per query ``k``, the position of the break of line ``line[k]``
    nearest ``t[k]`` (the first of two as near, as ``np.argmin``) and its
    distance ``|break - t[k]|``.  The breaks run line after line, line
    ``l``'s in ``ptr[l]:ptr[l + 1]``, and ``find`` is their ``_searcher``."""
    pos = find(line, t)
    last = len(breaks) - 1
    left = np.where(pos > ptr[line], np.abs(breaks[np.maximum(pos - 1, 0)] - t),
                    np.inf)
    right = np.where(pos < ptr[line + 1],
                     np.abs(breaks[np.minimum(pos, last)] - t), np.inf)
    return np.where(left <= right, pos - 1, pos), np.minimum(left, right)


def _trace_entries(meshes: list, gids, pair_key, n_f: int):
    """Every edge of ``meshes`` (``PolyMesh.fields``) on a line that the
    mesh's fracture parents, found by one pass over their trace tags.

    Draft pair ``p`` of line ``l`` (the line of id ``gids[l]``) and mesh
    ``f`` has key ``pair_key[p] = l * n_f + f``.  Returns the nodes of all
    meshes end to end and the mesh of each, then per entry its pair, its
    edge id in its mesh and its two end nodes as rows of those nodes.
    Entries are sorted by mesh, then pair, then edge, so each mesh's and
    each pair's entries are one run.
    """
    n_nodes = np.array([len(m["nodes"]) for m in meshes])
    n_edges = np.array([len(m["edge_nodes"]) for m in meshes])
    node_frac = np.repeat(np.arange(n_f), n_nodes)
    edge_frac = np.repeat(np.arange(n_f), n_edges)
    tags = np.concatenate([m["edge_trace"] for m in meshes])
    on = np.flatnonzero(tags >= 0)
    by_id = np.argsort(gids)
    line = by_id[np.searchsorted(gids, tags[on], sorter=by_id) % len(gids)]
    key = line * n_f + edge_frac[on]
    by_key = np.argsort(pair_key)
    pair = by_key[np.searchsorted(pair_key, key, sorter=by_key) % len(pair_key)]
    ok = (gids[line] == tags[on]) & (pair_key[pair] == key)
    on, pair = on[ok], pair[ok]
    order = np.lexsort((on, pair, edge_frac[on]))
    on, pair, f = on[order], pair[order], edge_frac[on[order]]
    ends = (np.concatenate([m["edge_nodes"] for m in meshes])[on]
            + (np.cumsum(n_nodes) - n_nodes)[f, None])
    return (np.concatenate([m["nodes"] for m in meshes]), node_frac, pair,
            on - (np.cumsum(n_edges) - n_edges)[f], ends)


def corefine_network(meshes: dict, network) -> tuple[dict, dict]:
    """Co-refine every trace across its parent fractures.

    Returns ``(trace_meshes, refined)``: a ``TraceMesh`` per line id,
    and per fracture id its mesh with the trace edges split and tagged
    with their elements (a fracture without trace edges keeps its own);
    neither argument changes.  Intersection points are forced into every
    partition.  Breakpoints closer than ``100 * network.tol`` merge, a
    tolerance relative to the network's size.

    Every line is co-refined at once, on arrays keyed by (line, parent)
    pairs: the drafts come from one pass over every mesh's trace tags,
    their union from one sort by (line, t), and the edge splits and
    element tags from ``searchsorted`` over every line's breaks; only the
    split and the refined mesh's construction run once per fracture.
    Each comparison is the one of the line-by-line rule, so the
    partitions, splits and tags are that rule's bit for bit.
    """
    lines, fids, ms = network.lines, list(meshes), list(meshes.values())
    if not lines:
        return {}, dict(meshes)
    tol = 100 * network.tol
    n_l, n_f = len(lines), len(fids)
    at = {fid: k for k, fid in enumerate(fids)}
    # Draft pair p: line pair_line[p] in mesh pair_frac[p], line after
    # line, each line's parents in its order.
    pair_line, pair_frac = np.array(
        [(l, at[f]) for l, ln in enumerate(lines) for f in ln.parents
         if f in at], int).reshape(-1, 2).T
    gids = np.array([ln.id for ln in lines])
    p0, u = (np.array([getattr(ln, a) for ln in lines]).reshape(-1, 3)
             for a in ("p0", "direction"))
    length = np.array([ln.length for ln in lines], float)
    frame = [np.array([getattr(m.frame, a) for m in ms]).reshape(-1, 3)
             for a in ("origin", "t1", "t2")]
    pair_key = pair_line * n_f + pair_frac
    if not len(pair_key):
        raise InconsistentEndpoints(f"mesh has no edges on trace {gids[0]}")

    # Each pair's draft: the parameters of the nodes of its edges.
    nodes, node_frac, pair, edge, ends = _trace_entries(
        [m.fields for m in ms], gids, pair_key, n_f)
    key = np.unique(pair[:, None] * len(nodes) + ends)
    dpair, node = key // len(nodes), key % len(nodes)
    count = np.bincount(dpair, minlength=len(pair_line))
    # The first line without edges in one of its meshes, or without a
    # mesh, fails after the drafts of the lines before it are checked.
    lost = np.union1d(pair_line[count == 0],
                      np.flatnonzero(np.bincount(pair_line, minlength=n_l) == 0))
    n_ok = np.searchsorted(pair_line, lost[0]) if len(lost) else len(count)
    if n_ok:
        m = np.searchsorted(dpair, n_ok)
        dl = pair_line[dpair[:m]]
        ts = _dots(_to_global(nodes[node[:m]], node_frac[node[:m]], *frame)
                   - p0[dl], u[dl])
        ptr, breaks = _corefine_lines(ts, count[:n_ok], pair_line[:n_ok],
                                      length, tol)
    if len(lost):
        raise InconsistentEndpoints(
            f"mesh has no edges on trace {gids[lost[0]]}")

    # Intersection points, each once per line, in the network's order;
    # those not within tol of a break merge by ``_merge_targets``' rule,
    # and each kept one is inserted.
    row = {gid: l for l, gid in enumerate(gids.tolist())}
    points = network.points
    pt, pt_line = np.array(
        [(k, row[g]) for k, p in enumerate(points) for g in set(p.parent_lines)
         if g in row], int).reshape(-1, 2).T
    loc = np.array([p.location for p in points]).reshape(-1, 3)
    t_pt = _dots(loc[pt] - p0[pt_line], u[pt_line])
    line = np.repeat(np.arange(n_l), np.diff(ptr))
    new = _nearest(breaks, _searcher(line, breaks), ptr, pt_line,
                   t_pt)[1] > tol
    c = np.flatnonzero(new)
    new[c] = _first_kept(t_pt[c], pt_line[c], tol)
    line = np.concatenate([line, pt_line[new]])
    breaks = np.concatenate([breaks, t_pt[new]])
    o = _by_group(line, breaks)
    line, breaks = line[o], breaks[o]
    ptr = np.searchsorted(line, np.arange(n_l + 1))
    find = _searcher(line, breaks)
    xi = [[] for _ in lines]
    near = _nearest(breaks, find, ptr, pt_line, t_pt)[0] - ptr[pt_line]
    for k, l, i in zip(pt.tolist(), pt_line.tolist(), near.tolist()):
        xi[l].append((i, points[k].id))

    # Each trace edge is cut at the breaks strictly inside it, from its
    # node a.  A stacked (2, 3) @ (3, 1) product per edge rounds each end
    # as the matrix-vector product over a line's edge ends does, and the
    # (m, 3) point sets map to each frame as ``Frame.to_local`` maps them.
    el = pair_line[pair]
    ts = ((_to_global(nodes[ends], node_frac[ends], *frame) - p0[el][:, None])
          @ u[el][:, :, None])[..., 0]
    first = find(el, ts.min(axis=1) + tol, "right")
    n_cut = np.maximum(find(el, ts.max(axis=1) - tol) - first, 0)
    cut = np.flatnonzero(n_cut)
    bound = np.concatenate([[0], np.cumsum(n_cut[cut])])
    pts = np.empty((bound[-1], 2))
    origin, t1, t2 = frame
    for m in np.unique(n_cut[cut]).tolist():
        sel = np.flatnonzero(n_cut[cut] == m)
        e = cut[sel]
        idx = first[e, None] + np.arange(m)
        idx = np.where((ts[e, 1] < ts[e, 0])[:, None], idx[:, ::-1], idx)
        f = pair_frac[pair[e]]
        q = (p0[el[e]][:, None] + breaks[idx][..., None] * u[el[e]][:, None]
             - origin[f][:, None])
        pts[bound[sel, None] + np.arange(m)] = np.concatenate(
            [q @ t1[f][:, :, None], q @ t2[f][:, :, None]], axis=-1)
    # An edge lies on one trace only, so the lines' splits are disjoint
    # and one batch per fracture numbers them as line after line would.
    mesh_of = pair_frac[pair[cut]]
    run = np.searchsorted(mesh_of, np.arange(n_f + 1))
    split = [_split_fields(mesh, edge[cut[a:b]], n_cut[cut[a:b]],
                           pts[bound[a]:bound[b]])
             for mesh, a, b in zip(ms, run[:-1], run[1:])]

    # Element tags from the split edges' midpoints.
    nodes, node_frac, pair, edge, ends = _trace_entries(split, gids, pair_key,
                                                        n_f)
    el = pair_line[pair]
    mid = 0.5 * (nodes[ends[:, 0]] + nodes[ends[:, 1]])
    t_mid = _dots(_to_global(mid, node_frac[ends[:, 0]], *frame) - p0[el],
                  u[el])
    elem = find(el, t_mid) - ptr[el] - 1
    o = np.lexsort((elem, pair))
    n_elems = np.diff(ptr)[pair_line] - 1
    count = np.bincount(pair, minlength=len(pair_line))
    step = np.ones(len(o), bool)
    step[1:] = (pair[o][1:] != pair[o][:-1]) | (elem[o][1:] != elem[o][:-1])
    distinct = np.bincount(pair[o][step], minlength=len(pair_line))
    bad = np.flatnonzero((count != n_elems) | (distinct != n_elems))
    if len(bad):
        raise MeshError(f"trace {gids[pair_line[bad[0]]]}: partition "
                        f"mismatch after corefinement")
    run = np.searchsorted(pair_frac[pair], np.arange(n_f + 1))
    refined = dict(meshes)
    for fid, fields, a, b in zip(fids, split, run[:-1], run[1:]):
        if a < b:
            tags = fields["edge_trace_elem"].copy()
            tags[edge[a:b]] = elem[a:b]
            refined[fid] = PolyMesh(**{**fields, "edge_trace_elem": tags})

    gids = gids.tolist()
    out = {gid: TraceMesh(gamma=gid, line=ln, breakpoints=b, xi_breaks=x)
           for gid, ln, b, x in zip(gids, lines, np.split(breaks, ptr[1:-1]),
                                    xi)}
    for l, f, eids in zip(pair_line.tolist(), pair_frac.tolist(),
                          np.split(edge[o], np.cumsum(count)[:-1])):
        out[gids[l]].edges[fids[f]] = eids
    return out, refined


def split_interface_dofs(mesh: PolyMesh, trace_meshes: dict,
                         fid: int) -> PolyMesh:
    """Duplicate every trace edge into a plus and a minus side copy.

    A cell's side label is the sign of ``(n x s (b - a)) . (n x t)``:
    ``n x s (b - a)`` points into the cell that walks edge ``a -> b``
    with sign ``s``, and ``n x t`` is the trace's side direction.  For
    vectors in the fracture plane this is ``s (b - a) . t``, which holds
    for any polygon, agglomerated ones whose centroid lies across the
    trace too, and is deterministic and frame independent.  Edges where
    the trace runs along the fracture boundary keep a single copy on
    their only side.  Tip nodes are shared, never duplicated.  One pass
    serves all of the fracture's trace edges; the copies are appended
    trace by trace in element order and inherit the trace and element
    tags, with their own ``edge_trace_side``.  A fracture without trace
    edges keeps ``mesh`` itself.
    """
    traces = [tm for tm in trace_meshes.values() if fid in tm.edges]
    if not traces:
        return mesh
    # Duplication changes no cell geometry: the areas and centroids stay
    # valid for the split mesh.
    centroids, areas = mesh.cell_centroids, mesh.cell_areas
    edge_cells, edge_entry = mesh.edge_cells, mesh.edge_entry
    count = [len(tm.edges[fid]) for tm in traces]
    eids = np.concatenate([tm.edges[fid] for tm in traces]).astype(int)
    gids = np.repeat([tm.gamma for tm in traces], count)
    t = np.repeat([tm.line.direction for tm in traces], count, axis=0)
    a, b = mesh.nodes[mesh.edge_nodes[eids, 0]], mesh.nodes[mesh.edge_nodes[eids, 1]]
    along = _dots(mesh.frame.vector_to_global(b - a), t)
    cells = edge_cells[eids]
    walk = mesh.cell_sign[edge_entry[eids]] * along[:, None]
    side = np.where(walk > 0, 1, -1).astype(np.int8)
    n_adj = (cells >= 0).sum(axis=1)
    two = n_adj == 2
    bad = np.flatnonzero((n_adj == 0) | (two & (side[:, 0] == side[:, 1])))
    if len(bad):
        k = bad[0]
        if n_adj[k] == 0:
            raise MeshError(f"trace edge {eids[k]} has no adjacent cell")
        raise MeshError(
            f"trace {gids[k]}: cells on the same side of edge {eids[k]}")
    # The second cell of an interior edge moves to an appended copy.
    sources = eids[two]
    parent = np.concatenate([np.arange(mesh.n_edges), sources])
    sides = np.concatenate([mesh.edge_trace_side, side[two, 1]])
    sides[eids] = side[:, 0]
    cell_edge = mesh.cell_edge.copy()
    cell_edge[edge_entry[sources, 1]] = mesh.n_edges + np.arange(len(sources))
    return PolyMesh(**{
        **mesh.fields, "edge_nodes": mesh.edge_nodes[parent],
        "cell_edge": cell_edge, "edge_trace": mesh.edge_trace[parent],
        "edge_trace_elem": mesh.edge_trace_elem[parent],
        "edge_trace_side": sides, "areas": areas, "centroids": centroids})


# ------------------------------------------------------------------ #
# statistics and text IO
# ------------------------------------------------------------------ #

def mesh_stats(mesh: PolyMesh) -> dict:
    """Cell/edge counts, diameter statistics and edges-per-cell range.

    A cell counts as non-star when its edges do not chain into one loop,
    or when the loop is not star-shaped with respect to its centroid.
    """
    epc = np.diff(mesh.cell_ptr)
    star = mesh.chained.copy()
    if star.any():
        p = mesh.nodes[mesh.entry_tail]
        d = p[mesh.entry_next] - p
        c = mesh.cell_centroids[mesh.entry_cell]
        cross = d[:, 0] * (c[:, 1] - p[:, 1]) - d[:, 1] * (c[:, 0] - p[:, 0])
        ok = cross > -1e-12 * mesh.cell_diameters[mesh.entry_cell] ** 2
        star &= np.bincount(mesh.entry_cell[~ok], minlength=mesh.n_cells) == 0
    return {
        "n_cells": mesh.n_cells,
        "n_edges": mesh.n_edges,
        "n_nodes": mesh.n_nodes,
        "h_max": float(mesh.cell_diameters.max()),
        "h_avg": float(mesh.cell_diameters.mean()),
        "edges_per_cell_min": int(epc.min()),
        "edges_per_cell_avg": float(epc.mean()),
        "edges_per_cell_max": int(epc.max()),
        "n_non_star": int((~star).sum()),
    }


def save_mesh(mesh: PolyMesh, path) -> None:
    """Minimal text format: node, edge and signed-cell tables."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# dfnvem mesh 1\n")
        fh.write(f"nodes {mesh.n_nodes}\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"edges {mesh.n_edges}\n")
        for e in range(mesh.n_edges):
            a, b = mesh.edge_nodes[e]
            fh.write(f"{a} {b} {mesh.edge_trace[e]} "
                     f"{mesh.edge_trace_elem[e]} {mesh.edge_trace_side[e]}\n")
        fh.write(f"cells {mesh.n_cells}\n")
        signed = (mesh.cell_sign * (mesh.cell_edge.astype(int) + 1)).tolist()
        ptr = mesh.cell_ptr.tolist()
        for a, b in zip(ptr[:-1], ptr[1:]):
            fh.write(" ".join(str(v) for v in signed[a:b]) + "\n")
