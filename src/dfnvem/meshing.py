"""Per-fracture polygonal meshes and the conforming-but-nonmatching glue.

Each fracture is meshed independently in its own 2D frame; intersection
traces enter the triangulation as internal constraint polylines.  Trace
partitions shared by several fractures are then co-refined to the union
of breakpoints, and finally every edge lying on a trace is duplicated
into a plus and a minus side copy so that interface fluxes can jump.

Meshes are edge-based: cells reference edges with a traversal sign, so
hanging nodes and agglomerated (possibly non star-shaped) cells from the
coarsening module are representable without special cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    _dots,
    _norms,
    _ranges,
    point_in_polygon,
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
    "corefine",
    "corefine_network",
    "split_interface_dofs",
    "mesh_stats",
    "save_mesh",
    "load_mesh",
]


_RIGHT = np.array([1, -1], np.int8)


class PolyMesh:
    """Polygonal tessellation of one fracture in frame coordinates.

    Every cell's edges are stored end to end, one entry per (cell, edge)
    pair: entries ``cell_ptr[k]:cell_ptr[k + 1]`` are cell ``k``'s, with
    edge ids ``cell_edge`` and traversal signs ``cell_sign``.  Sign +1
    means edge ``(a, b)`` is walked a->b in the cell's counterclockwise
    boundary, so its outward normal is the right-hand side of a->b.
    Agglomerated cells may carry an unordered edge set; their area and
    centroid are then supplied explicitly, and so may ``edge_entry``.
    Index arrays are int32.  Derived data is computed from these arrays
    and cached until the mesh is mutated.
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
        self._areas = None if areas is None else np.asarray(areas, float)
        self._centroids = None if centroids is None else np.asarray(centroids, float)
        self.chained = (np.ones(self.n_cells, bool) if chained is None
                        else np.asarray(chained, bool))
        self._cache = {}
        if edge_entry is not None:
            self._set_edge_entry(np.asarray(edge_entry, np.int32))

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
        head = np.empty_like(loop)
        for d in np.unique(counts):
            pos = ptr[:-1][counts == d][:, None] + np.arange(d)
            pts = nodes[loop[pos]]
            nxt = np.roll(pts, -1, axis=1)
            cw = (pts[..., 0] * nxt[..., 1] - nxt[..., 0] * pts[..., 1]).sum(axis=1) < 0
            loop[pos[cw]] = loop[pos[cw, ::-1]]
            head[pos] = loop[np.roll(pos, -1, axis=1)]
        lo, hi = np.minimum(loop, head), np.maximum(loop, head)
        _, first, inverse = np.unique(lo * len(nodes) + hi, return_index=True,
                                      return_inverse=True)
        edge_id = np.empty(len(first), int)
        edge_id[np.argsort(first)] = np.arange(len(first))
        edge_nodes = np.column_stack([lo, hi])[np.sort(first)]
        return cls(nodes, edge_nodes, ptr, edge_id[inverse],
                   np.where(loop <= head, 1, -1), frame=frame)

    def copy(self) -> "PolyMesh":
        return PolyMesh(
            self.nodes.copy(), self.edge_nodes.copy(), self.cell_ptr.copy(),
            self.cell_edge.copy(), self.cell_sign.copy(),
            frame=self.frame, edge_trace=self.edge_trace.copy(),
            edge_trace_elem=self.edge_trace_elem.copy(),
            edge_trace_side=self.edge_trace_side.copy(),
            areas=None if self._areas is None else self._areas.copy(),
            centroids=None if self._centroids is None else self._centroids.copy(),
            chained=self.chained.copy(),
        )

    # -------------------------------------------------------------- #
    # cached geometry
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

    def _invalidate(self):
        self._cache.clear()

    @property
    def entry_cell(self):
        """Cell id of each entry."""
        if "entry_cell" not in self._cache:
            self._cache["entry_cell"] = np.repeat(
                np.arange(self.n_cells, dtype=np.int32), np.diff(self.cell_ptr))
        return self._cache["entry_cell"]

    @property
    def entry_tail(self):
        """Node each entry's edge is walked from.  A chained cell's polygon
        is ``nodes[entry_tail]`` over its entries."""
        if "entry_tail" not in self._cache:
            ends = self.edge_nodes[self.cell_edge]
            self._cache["entry_tail"] = np.where(
                self.cell_sign > 0, ends[:, 0], ends[:, 1]).astype(np.int32)
        return self._cache["entry_tail"]

    @property
    def entry_next(self):
        """Position of the following entry in the same cell; the last
        wraps to the first."""
        if "entry_next" not in self._cache:
            ptr = self.cell_ptr
            nxt = np.arange(1, ptr[-1] + 1, dtype=np.int32)
            full = ptr[1:] > ptr[:-1]
            nxt[ptr[1:][full] - 1] = ptr[:-1][full]
            self._cache["entry_next"] = nxt
        return self._cache["entry_next"]

    @property
    def cell_groups(self):
        """Per edge count ``d``, increasing: cell ids ``(n,)`` and their
        entry positions ``(n, d)``.  A sum over ``axis=1`` of a gathered
        group adds in the order a per-cell sum over its entries would."""
        if "cell_groups" not in self._cache:
            counts = np.diff(self.cell_ptr)
            groups = []
            for d in np.unique(counts[counts > 0]):
                ids = np.flatnonzero(counts == d).astype(np.int32)
                groups.append((ids, self.cell_ptr[ids][:, None] + np.arange(d)))
            self._cache["cell_groups"] = tuple(groups)
        return self._cache["cell_groups"]

    @property
    def edge_len(self):
        if "edge_len" not in self._cache:
            d = self.nodes[self.edge_nodes[:, 1]] - self.nodes[self.edge_nodes[:, 0]]
            self._cache["edge_len"] = np.linalg.norm(d, axis=1)
        return self._cache["edge_len"]

    @property
    def edge_mid(self):
        if "edge_mid" not in self._cache:
            self._cache["edge_mid"] = 0.5 * (
                self.nodes[self.edge_nodes[:, 0]] + self.nodes[self.edge_nodes[:, 1]]
            )
        return self._cache["edge_mid"]

    def _edge_slots(self):
        # Slot 0 of an edge is its first entry, slot 1 the second; a third
        # entry is an error.
        if "edge_cells" not in self._cache:
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
            entry = np.column_stack([np.where(count > 0, first, -1),
                                     np.where(count > 1, last, -1)])
            self._set_edge_entry(entry)
        return self._cache["edge_cells"], self._cache["edge_entry"]

    def _set_edge_entry(self, entry):
        self._cache["edge_entry"] = entry
        self._cache["edge_cells"] = np.where(
            entry >= 0, self.entry_cell[entry], -1).astype(int)

    @property
    def edge_cells(self):
        """(E, 2) adjacent cell ids, -1 where absent."""
        return self._edge_slots()[0]

    @property
    def edge_entry(self):
        """(E, 2) entry of each ``edge_cells`` cell, -1 where absent."""
        return self._edge_slots()[1]

    def outward_normals(self, entries) -> np.ndarray:
        """Outward unit normals of entries, shape ``entries.shape + (2,)``."""
        # The unit tangent t = (b - a) / |e| of each edge a->b; (t1, t0) *
        # (s, -s) is the right-hand normal (t1, -t0) times the sign s, bit
        # for bit.
        edges = self.cell_edge[entries]
        a, b = self.edge_nodes[edges, 0], self.edge_nodes[edges, 1]
        t = (self.nodes[b] - self.nodes[a]) / self.edge_len[edges][..., None]
        s = self.cell_sign[entries][..., None]
        return t[..., ::-1] * (s * _RIGHT)

    def _loop_sums(self):
        """Per cell, twice the signed shoelace area and the first moment
        ``sum((p + q) (p x q))`` over its entries' edges ``p -> q``."""
        p = self.nodes[self.entry_tail]
        q = p[self.entry_next]
        cross = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
        moment = (p + q) * cross[:, None]
        twice = np.zeros(self.n_cells)
        first = np.zeros((self.n_cells, 2))
        for ids, pos in self.cell_groups:
            twice[ids] = cross[pos].sum(axis=1)
            first[ids] = moment[pos].sum(axis=1)
        return twice, first

    @property
    def cell_areas(self):
        if "areas" not in self._cache:
            if self._areas is not None:
                self._cache["areas"] = self._areas
            else:
                self._cache["areas"] = 0.5 * self._loop_sums()[0]
        return self._cache["areas"]

    @property
    def cell_centroids(self):
        if "centroids" not in self._cache:
            if self._centroids is not None:
                self._cache["centroids"] = self._centroids
            else:
                twice, first = self._loop_sums()
                zero = np.flatnonzero(np.abs(twice) < 1e-300)
                if len(zero):
                    raise MeshError(f"cell {zero[0]} has zero area")
                self._cache["centroids"] = first / (3 * twice)[:, None]
                if self._areas is None:
                    self._cache["areas"] = 0.5 * twice
        return self._cache["centroids"]

    @property
    def cell_diameters(self):
        """Largest vertex distance per cell.  Every node of a cell bounded
        by closed walks is the tail of one of its entries."""
        if "diameters" not in self._cache:
            diam = np.zeros(self.n_cells)
            for ids, pos in self.cell_groups:
                pts = self.nodes[self.entry_tail[pos]]
                a, b = np.triu_indices(pos.shape[1], 1)
                dx = pts[:, a, 0] - pts[:, b, 0]
                dy = pts[:, a, 1] - pts[:, b, 1]
                diam[ids] = np.sqrt((dx * dx + dy * dy).max(axis=1, initial=0.0))
            self._cache["diameters"] = diam
        return self._cache["diameters"]

    @property
    def boundary_edges(self):
        """Outer-boundary edges: one adjacent cell and not on a trace."""
        return np.where((self.edge_cells[:, 1] < 0) & (self.edge_trace < 0))[0]

    # -------------------------------------------------------------- #
    # mutation (used by co-refinement)
    # -------------------------------------------------------------- #

    def split_edges(self, splits):
        """Split edges at interior points, all in one batch.

        ``splits`` lists ``(eid, points)`` pairs, each edge at most once
        and with at least one point, the points ordered from node a to
        node b of the edge.  Edge ``eid`` keeps its first piece and the
        others are appended; nodes and edges are numbered as if the edges
        were split one after the other in list order.
        """
        splits = [(e, np.atleast_2d(p)) for e, p in splits]
        if not splits:
            return
        eids = np.array([e for e, _ in splits], int)
        n_pts = np.array([len(p) for _, p in splits], int)
        # Split i adds nodes and edges k0[i] .. k0[i] + n_pts[i] - 1 past
        # the current counts; its pieces are eid, then those new edges.
        k0 = np.cumsum(n_pts) - n_pts
        tails = self.n_nodes + np.arange(n_pts.sum())
        heads = tails + 1
        heads[k0 + n_pts - 1] = self.edge_nodes[eids, 1]
        # Every entry of a split edge becomes its pieces, reversed where
        # the cell walks the edge b -> a.
        entries = self.edge_entry[eids]
        split_of = np.nonzero(entries >= 0)[0]
        entries = entries[entries >= 0]
        m = n_pts[split_of] + 1
        reps = np.ones(len(self.cell_edge), int)
        reps[entries] = m
        end = np.cumsum(reps)
        k = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
        piece = np.where(np.repeat(self.cell_sign[entries] > 0, m), k,
                         np.repeat(m - 1, m) - k)
        i = np.repeat(split_of, m)
        cell_edge = np.repeat(self.cell_edge, reps)
        cell_edge[np.repeat(end[entries] - m, m) + k] = np.where(
            piece == 0, eids[i], self.n_edges + k0[i] + piece - 1)
        self.cell_ptr = np.concatenate([[0], end])[self.cell_ptr].astype(np.int32)
        self.cell_edge = cell_edge
        self.cell_sign = np.repeat(self.cell_sign, reps)
        self.edge_nodes[eids, 1] = tails[k0]
        self.nodes = np.vstack([self.nodes, *(p for _, p in splits)])
        self.edge_nodes = np.vstack([self.edge_nodes,
                                     np.column_stack([tails, heads])])
        self._append_edge_tags(np.repeat(eids, n_pts))
        self._invalidate()

    def _append_edge_tags(self, parents, side=None):
        """Append the trace tags of edges ``parents`` for new edges."""
        parents = np.asarray(parents, int)
        self.edge_trace = np.concatenate(
            [self.edge_trace, self.edge_trace[parents]])
        self.edge_trace_elem = np.concatenate(
            [self.edge_trace_elem, self.edge_trace_elem[parents]])
        side = self.edge_trace_side[parents] if side is None else side
        self.edge_trace_side = np.concatenate(
            [self.edge_trace_side, side]).astype(np.int8)


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
    base = nodes[interior].copy()
    nodes[interior] = base + rng.uniform(-reach, reach, (len(interior), 2))

    # A quad must be simple and star-shaped with respect to its vertex mean.
    loops = mesh.entry_tail.reshape(-1, 4)
    is_interior = np.zeros(len(nodes), bool)
    is_interior[interior] = True
    for _ in range(50):
        pts = nodes[loops]
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

class _PointPool:
    """Deduplicating point registry for the PSLG.

    Points are looked up on a grid of square cells of side ``2 * tol``:
    two points within ``tol`` of each other lie in the same or in
    neighbouring cells, even after the rounding of the cell index.
    """

    def __init__(self, tol):
        self.tol = tol
        self._side = 2.0 * tol
        self.pts = np.zeros((0, 2))

    def extend(self, pts: np.ndarray) -> None:
        """Register the rows of ``pts`` without deduplication."""
        self.pts = np.vstack([self.pts, pts])

    def add(self, p) -> int:
        """Id of the first point within ``tol`` of ``p``, else a new id."""
        return self.add_rows(np.reshape(p, (1, 2)))[0]

    def add_rows(self, pts: np.ndarray) -> list:
        """``add`` of each row of ``pts`` in turn."""
        pts = np.asarray(pts, float).reshape(-1, 2)
        n0, m = len(self.pts), len(pts)
        # The lowest id wins, which keeps the numbering deterministic.
        ids = np.full(m, n0 + m)
        np.minimum.at(ids, *self._near(pts, self.pts))
        # A row near no earlier point merges into the first earlier row
        # near it that was itself registered, else it is registered.  A
        # row is settled once every earlier row near it is.
        new = np.flatnonzero(ids == n0 + m)
        i, j = self._near(pts[new], pts[new])
        later, earlier = i[j < i], j[j < i]
        target = np.arange(len(new))
        pending = np.zeros(len(new), bool)
        pending[later] = True
        while pending.any():
            blocked = np.zeros(len(new), bool)
            blocked[later[pending[earlier]]] = True
            ready = pending & ~blocked
            hit = np.full(len(new), len(new))
            sel = ready[later] & (target[earlier] == earlier)
            np.minimum.at(hit, later[sel], earlier[sel])
            merged = ready & (hit < len(new))
            target[merged] = hit[merged]
            pending[ready] = False
        kept = target == np.arange(len(new))
        ids[new] = n0 + (np.cumsum(kept) - 1)[target]
        self.pts = np.vstack([self.pts, pts[new[kept]]])
        return ids.tolist()

    def _near(self, a, b):
        """Index pairs ``(i, j)`` with ``a[i]`` within ``tol`` of ``b[j]``."""
        if not len(a) or not len(b):
            return np.zeros(0, int), np.zeros(0, int)
        # Complex keys order cells by x, then y: the three cells of one
        # column around a point are one run of the sorted keys.
        cell = np.floor(b / self._side)
        key = cell[:, 0] + 1j * cell[:, 1]
        order = np.argsort(key)
        key = key[order]
        cell = np.floor(a / self._side)
        x = (cell[:, 0] + np.array([[-1.0], [0.0], [1.0]])).ravel()
        y = np.tile(cell[:, 1], 3)
        lo = np.searchsorted(key, x + 1j * (y - 1.0), "left")
        hi = np.searchsorted(key, x + 1j * (y + 1.0), "right")
        i, at = _ranges(lo, hi - lo)
        i, j = i % len(a), order[at]
        # The distance is np.linalg.norm's, rounding for rounding.
        d = a[i] - b[j]
        near = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) <= self.tol
        return i[near], j[near]


def _trace_pieces(traces, tol):
    """Split traces at their mutual crossings so constraints never cross.

    Returns the trace id and the two end points of every piece longer
    than ``tol`` in parameter, trace by trace and along each trace.
    """
    gid = np.array([g for g, _, _ in traces], int)
    p0 = np.array([a for _, a, _ in traces], float).reshape(-1, 2)
    p1 = np.array([b for _, _, b in traces], float).reshape(-1, 2)
    d = p1 - p0
    # Trace j meets trace i at s along i and u along j.
    d1, d2 = d[:, None], d[None, :]
    r = p0[None, :] - p0[:, None]
    den = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (r[..., 0] * d2[..., 1] - r[..., 1] * d2[..., 0]) / den
        u = (r[..., 0] * d1[..., 1] - r[..., 1] * d1[..., 0]) / den
    # |den| is |d1| |d2| sin(angle), so parallel is judged by the angle
    # alone, at every scale.
    length = _norms(d)
    cross = ((gid[:, None] != gid[None, :])
             & (np.abs(den) >= 1e-14 * length[:, None] * length[None, :])
             & (-1e-12 <= s) & (s <= 1 + 1e-12) & (-1e-12 <= u) & (u <= 1 + 1e-12))
    i, j = np.nonzero(cross)
    n = len(traces)
    owner = np.concatenate([np.arange(n), np.arange(n), i])
    # + 0.0 turns a clipped -0.0 into the 0.0 it repeats.
    at = np.concatenate([np.zeros(n), np.ones(n), np.clip(s[i, j], 0.0, 1.0) + 0.0])
    order = np.lexsort((at, owner))
    owner, at = owner[order], at[order]
    k = np.flatnonzero((owner[1:] == owner[:-1]) & (at[1:] - at[:-1] > tol))
    own = owner[k]
    return (gid[own], p0[own] + at[k, None] * d[own],
            p0[own] + at[k + 1, None] * d[own])


def _constraint_points(seg0, seg1, hard, on_seg, tol, h_target):
    """Points of the constraint segments ``seg0[k]``-``seg1[k]``.

    Each segment is split at the hard vertices ``on_seg[k]`` marks inside
    it, then every piece into equal parts no longer than ``h_target``.
    Returns the rows of every segment, one segment after the other, each
    from its first end, and the row count of each segment.
    """
    d = seg1 - seg0
    length = _norms(d)
    u = d / length[:, None]
    k, v = np.nonzero(on_seg)
    t = _dots(hard[v] - seg0[k], u[k])
    inner = (tol < t) & (t < length[k] - tol)
    n_seg = len(seg0)
    seg = np.concatenate([np.arange(n_seg), np.arange(n_seg), k[inner]])
    at = np.concatenate([np.zeros(n_seg), length, t[inner]])
    order = np.lexsort((at, seg))
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


def _clear_of_segments(pts, seg0, seg1, reach):
    """Mask of the points at least ``reach`` from every segment."""
    j, dist = _near_segments(pts, seg0, seg1, reach)
    clear = np.ones(len(pts), bool)
    clear[j[dist < reach]] = False
    return clear


def _near_segments(pts, seg0, seg1, reach):
    """Points ``j`` and their distances to segment ``seg0[k]``-``seg1[k]``,
    over every pair that may lie within ``reach``.

    Only the points inside a segment's bounding box grown by ``2 *
    reach`` are measured against it: a point outside is farther than
    ``reach`` with room to spare for rounding.
    """
    order = np.argsort(pts[:, 0], kind="stable")
    lo = np.minimum(seg0, seg1) - 2 * reach
    hi = np.maximum(seg0, seg1) + 2 * reach
    start = np.searchsorted(pts[order, 0], lo[:, 0], "left")
    stop = np.searchsorted(pts[order, 0], hi[:, 0], "right")
    k, at = _ranges(start, stop - start)
    j = order[at]
    box = (lo[k, 1] <= pts[j, 1]) & (pts[j, 1] <= hi[k, 1])
    k, j = k[box], j[box]
    return j, point_segment_distance(pts[j], seg0[k], seg1[k])


def triangulate(polygon: np.ndarray, traces=None, h_target: float = 0.1,
                tol: float | None = None, frame: Frame | None = None,
                jitter: float = 0.15, seed: int = 1234) -> PolyMesh:
    """Constrained Delaunay triangulation of a polygon with trace segments.

    ``polygon`` is the CCW boundary in frame coordinates and ``traces`` a
    list of ``(gid, p0, p1)`` constraint segments (frame coordinates).
    All constraints are subdivided to ``h_target`` and recovered exactly:
    every trace is covered by a chain of mesh edges tagged with its id.
    Interior points come from a lightly jittered hexagonal lattice, so
    the result is deterministic but unstructured.
    """
    # Imported here so that commands which never triangulate skip it.
    from scipy.spatial import Delaunay

    polygon = np.asarray(polygon, float)
    if traces is None:
        traces = []
    area = polygon_area(polygon)
    if area < 0:
        polygon = polygon[::-1]
        area = -area
    if area <= 1e-300:
        raise EmptyDomain("polygon has no area")
    if h_target <= 0:
        raise EmptyDomain("h_target must be positive")
    diag = np.linalg.norm(polygon.max(0) - polygon.min(0))
    if tol is None:
        tol = 1e-9 * diag

    gids, ends0, ends1 = _trace_pieces(traces, tol)

    # Conflict detection: non-touching constraints closer than tol.
    i, j = np.triu_indices(len(gids), 1)
    pair = gids[i] != gids[j]
    i, j = i[pair], j[pair]
    a0, a1, b0, b1 = ends0[i], ends1[i], ends0[j], ends1[j]
    d = point_segment_distance(np.stack([a0, a1, b0, b1]),
                               np.stack([b0, b0, a0, a0]),
                               np.stack([b1, b1, a1, a1])).min(axis=0)
    for k in np.flatnonzero((tol < d) & (d < 100 * tol)):
        if not segments_cross(a0[k], a1[k], b0[k], b1[k], tol):
            raise ConstraintConflict(
                f"traces {gids[i[k]]} and {gids[j[k]]} are {d[k]:.3e} apart "
                f"without meeting"
            )

    pool = _PointPool(max(tol, 1e-12 * diag))
    nbv = len(polygon)
    # Hard vertices: polygon corners and trace piece endpoints.  Any
    # constraint segment passing through one (a trace ending mid-edge on
    # the boundary, a T-junction between traces) is split there first so
    # consecutive constraint points are always Delaunay-connectable.
    hard = np.vstack([polygon, ends0, ends1])
    # Constraint segments: the polygon's edges, then the trace pieces.
    seg0 = np.vstack([polygon, ends0])
    seg1 = np.vstack([np.roll(polygon, -1, 0), ends1])
    on_seg = point_segment_distance(hard, seg0[:, None], seg1[:, None]) <= tol

    # Chains of point ids whose consecutive pairs must become edges, one
    # per segment, end to end in ``chain``; ``ptr`` bounds them and
    # ``chain_gid`` is the trace id each carries (-1 on the polygon).
    points, counts = _constraint_points(seg0, seg1, hard, on_seg, tol, h_target)
    chain = np.array(pool.add_rows(points), int)
    ptr = np.concatenate([[0], np.cumsum(counts)])
    chain_gid = np.concatenate([np.full(nbv, -1), gids])

    # Hexagonal interior lattice with deterministic jitter.
    rng = np.random.default_rng(seed)
    s = h_target
    lo, hi = polygon.min(0), polygon.max(0)
    rows = np.arange(lo[1] - s, hi[1] + s, s * np.sqrt(3) / 2)
    # Even rows take the first x run, odd rows the one offset by s / 2.
    xs = [np.arange(lo[0] - s + off, hi[0] + s, s) for off in (0.0, 0.5 * s)]
    per_row = np.resize([len(xs[0]), len(xs[1])], len(rows))
    cand = np.column_stack([np.resize(np.concatenate(xs), per_row.sum()),
                            np.repeat(rows, per_row)])
    if len(cand):
        cand = cand + rng.uniform(-jitter * s, jitter * s, cand.shape)
        # Even-odd only: the distance test below drops boundary points.
        cand = cand[point_in_polygon(cand, polygon, -1.0)]
        # Lattice points are well separated; skip dedup.
        pool.extend(cand[_clear_of_segments(cand, seg0, seg1, 0.5 * s)])

    # Delaunay with constraint-edge recovery by midpoint insertion.  Four
    # distant padding points keep every real point off the convex hull,
    # which prevents zero-area slivers between collinear boundary points.
    center = 0.5 * (lo + hi)
    pad = np.array([center + 10 * diag * np.array(d)
                    for d in ((-1, -1), (1, -1), (1, 1), (-1, 1))])
    for _ in range(12):
        pts = pool.pts
        n_real = len(pts)
        if n_real < 3:
            raise EmptyDomain("not enough points to triangulate")
        tri = Delaunay(np.vstack([pts, pad]))
        stride = n_real + len(pad)
        ends = np.sort(tri.simplices, axis=1).astype(int)
        keys = np.sort(ends[:, [0, 1, 0]] * stride + ends[:, [1, 2, 2]], None)
        link = np.ones(len(chain) - 1, bool)
        link[ptr[1:-1] - 1] = False
        pairs = np.column_stack([chain[:-1], chain[1:]])[link]
        want = pairs.min(axis=1) * stride + pairs.max(axis=1)
        found = keys[np.searchsorted(keys, want) % len(keys)] == want
        if found.all():
            break
        # Split each missing pair at its midpoint, in chain order.
        at = np.flatnonzero(link)[~found] + 1
        mids = 0.5 * (pts[pairs[~found, 0]] + pts[pairs[~found, 1]])
        chain = np.insert(chain, at, pool.add_rows(mids))
        ptr = ptr + np.searchsorted(at, ptr)
    else:
        raise MeshError("constraint recovery did not converge")

    # Keep real triangles inside the polygon; after recovery constraints
    # are unions of Delaunay edges, so the centroid test is sufficient.
    real = tri.simplices[(tri.simplices < n_real).all(axis=1)]
    all_pts = np.vstack([pts, pad])
    centers = all_pts[real].mean(axis=1)
    # point_in_polygon(centers, polygon, tol), measuring the tol band
    # only near each edge.
    inside = point_in_polygon(centers, polygon, -1.0)
    j, dist = _near_segments(centers, polygon, np.roll(polygon, -1, 0), tol)
    inside[j[dist <= tol]] = True
    keep = real[inside]
    if not len(keep):
        raise EmptyDomain("no triangles inside the polygon")
    used = np.flatnonzero(np.bincount(keep.ravel(), minlength=len(pts)))
    renum = -np.ones(len(pts), int)
    renum[used] = np.arange(len(used))
    loops = renum[keep]
    mesh = PolyMesh.from_cells(pts[used], loops, frame=frame)

    # Tag trace edges: every consecutive pair of a trace chain is one.
    gids = np.repeat(chain_gid, np.diff(ptr) - 1)
    pairs = np.sort(renum[pairs[gids >= 0]], axis=1)
    gids = gids[gids >= 0]
    n = len(used)
    keys = mesh.edge_nodes[:, 0] * n + mesh.edge_nodes[:, 1]
    order = np.argsort(keys)
    want = pairs[:, 0] * n + pairs[:, 1]
    at = order[np.searchsorted(keys, want, sorter=order) % len(keys)]
    bad = keys[at] != want
    if bad.any():
        raise MeshError(f"trace {gids[bad][0]} not covered by mesh edges")
    mesh.edge_trace[at] = gids
    return mesh


def triangulate_fracture(fracture, lines, h_target) -> PolyMesh:
    """Triangulate a fracture honoring its intersection traces."""
    poly = fracture.local_polygon
    traces = []
    for ln in lines:
        q0 = fracture.frame.to_local(ln.p0)
        q1 = fracture.frame.to_local(ln.p1)
        traces.append((ln.id, q0, q1))
    return triangulate(poly, traces, h_target, frame=fracture.frame)


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


def _edges_by_trace(mesh: PolyMesh) -> dict:
    """Trace id -> the ids of the mesh's edges on that trace, ascending."""
    on = np.flatnonzero(mesh.edge_trace >= 0)
    on = on[np.argsort(mesh.edge_trace[on], kind="stable")]
    gids, start = np.unique(mesh.edge_trace[on], return_index=True)
    return dict(zip(gids.tolist(), np.split(on, start[1:])))


def _trace_draft(mesh: PolyMesh, nodes3: np.ndarray, eids: np.ndarray,
                line: IntersectionLine) -> np.ndarray:
    """Breakpoint parameters of the partition of ``line`` by the mesh's
    edges ``eids``; ``nodes3`` holds the mesh's nodes in 3D."""
    nodes = np.unique(mesh.edge_nodes[eids])
    return np.sort(_dots(nodes3[nodes] - line.p0, line.direction))


def corefine(drafts: list, length: float, tol: float) -> np.ndarray:
    """Union of parents' breakpoints merged within tolerance.

    Every draft must span ``[0, length]``; duplicates are resolved toward
    the smaller coordinate.  Raises ``InconsistentEndpoints`` when the
    parents disagree on the segment endpoints.
    """
    for ts in drafts:
        if abs(ts[0]) > tol or abs(ts[-1] - length) > tol:
            raise InconsistentEndpoints(
                f"trace draft spans [{ts[0]:.3e}, {ts[-1]:.3e}], "
                f"expected [0, {length:.3e}]"
            )
    allts = np.sort(np.concatenate([np.asarray(d, float) for d in drafts]))
    merged = [allts[0]]
    for t in allts[1:]:
        if t - merged[-1] > tol:
            merged.append(t)
    merged[0], merged[-1] = 0.0, length
    return np.asarray(merged)


def _trace_splits(mesh: PolyMesh, nodes3: np.ndarray, eids: np.ndarray,
                  line: IntersectionLine, breaks: np.ndarray, tol: float) -> list:
    """``split_edges`` pairs that cut the mesh's edges ``eids`` on ``line``
    at the breakpoints strictly inside them, in edge order."""
    ends = nodes3[mesh.edge_nodes[eids].ravel()]
    ts = ((ends - line.p0) @ line.direction).reshape(-1, 2)
    first = np.searchsorted(breaks, ts.min(axis=1) + tol, "right")
    count = np.searchsorted(breaks, ts.max(axis=1) - tol, "left") - first
    local = [None] * len(eids)
    for m in np.unique(count[count > 0]):
        sel = np.flatnonzero(count == m)
        idx = first[sel, None] + np.arange(m)
        idx = np.where((ts[sel, 1] < ts[sel, 0])[:, None], idx[:, ::-1], idx)
        pts3 = line.p0 + breaks[idx][..., None] * line.direction
        for k, pts in zip(sel.tolist(), mesh.frame.to_local(pts3)):
            local[k] = pts
    return [(e, pts) for e, pts in zip(eids.tolist(), local) if pts is not None]


def _assign_elements(mesh: PolyMesh, mids3: np.ndarray, eids: np.ndarray,
                     line: IntersectionLine, breaks: np.ndarray) -> np.ndarray:
    """Tag the mesh's edges ``eids`` on ``line`` with their 1D element
    from their midpoints ``mids3[eids]``; returns them in element order."""
    elems = np.searchsorted(breaks, _dots(mids3[eids] - line.p0,
                                          line.direction)) - 1
    if len(np.unique(elems)) != len(breaks) - 1 or len(eids) != len(breaks) - 1:
        raise MeshError(
            f"trace {line.id}: partition mismatch after corefinement"
        )
    mesh.edge_trace_elem[eids] = elems
    return eids[np.argsort(elems)]


def corefine_network(meshes: dict, network) -> dict:
    """Co-refine every trace across its parent fractures.

    Returns a ``TraceMesh`` per intersection line; the per-fracture meshes
    are modified in place (edge splits only).  Intersection points are
    forced into every partition.
    """
    tol = 100 * max(network.tol, 1e-12)
    points = {}
    for pt in network.points:
        for gid in set(pt.parent_lines):
            points.setdefault(gid, []).append(pt)
    on_trace = {fid: _edges_by_trace(mesh) for fid, mesh in meshes.items()}
    nodes3 = {fid: mesh.frame.to_global(mesh.nodes)
              for fid, mesh in meshes.items()}
    out = {}
    splits = {fid: [] for fid in meshes}
    for ln in network.lines:
        parents = [f for f in ln.parents if f in meshes]
        for f in parents:
            if ln.id not in on_trace[f]:
                raise InconsistentEndpoints(
                    f"mesh has no edges on trace {ln.id}")
        breaks = corefine([_trace_draft(meshes[f], nodes3[f],
                                        on_trace[f][ln.id], ln)
                           for f in parents], ln.length, tol)
        on_line = [(ln.param_of(pt.location), pt.id)
                   for pt in points.get(ln.id, ())]
        for t, _ in on_line:
            if np.min(np.abs(breaks - t)) > tol:
                breaks = np.sort(np.append(breaks, t))
        out[ln.id] = TraceMesh(
            gamma=ln.id, line=ln, breakpoints=breaks,
            xi_breaks=[(int(np.argmin(np.abs(breaks - t))), pid)
                       for t, pid in on_line])
        for f in parents:
            splits[f] += _trace_splits(meshes[f], nodes3[f], on_trace[f][ln.id],
                                       ln, breaks, tol)
    # An edge lies on one trace only, so the lines' splits are disjoint
    # and one batch per fracture numbers them as line after line would.
    mids3 = {}
    for fid, mesh in meshes.items():
        mesh.split_edges(splits[fid])
        on_trace[fid] = _edges_by_trace(mesh)
        mids3[fid] = mesh.frame.to_global(mesh.edge_mid)
    for tm in out.values():
        for f in tm.line.parents:
            if f in meshes:
                tm.edges[f] = _assign_elements(
                    meshes[f], mids3[f], on_trace[f][tm.gamma], tm.line,
                    tm.breakpoints)
    return out


def split_interface_dofs(mesh: PolyMesh, trace_meshes: dict,
                         fid: int) -> PolyMesh:
    """Duplicate every trace edge into a plus and a minus side copy.

    Side labels come from the sign of ``(cell centroid - trace point) .
    (n x t)`` evaluated in 3D, which is deterministic and frame
    independent.  Edges where the trace runs along the fracture boundary
    keep a single copy on their only side.  Tip nodes are shared, never
    duplicated.  One pass serves all of the fracture's trace edges; the
    copies are appended trace by trace in element order and inherit the
    trace and element tags, with their own ``edge_trace_side``.
    """
    mesh = mesh.copy()
    traces = [tm for tm in trace_meshes.values() if fid in tm.edges]
    if not traces:
        return mesh
    # Duplication changes no cell geometry: the areas and centroids stay
    # valid for the split mesh.
    edge_cells, edge_entry = mesh.edge_cells, mesh.edge_entry
    centroids = mesh.cell_centroids
    count = [len(tm.edges[fid]) for tm in traces]
    eids = np.concatenate([tm.edges[fid] for tm in traces]).astype(int)
    gids = np.repeat([tm.gamma for tm in traces], count)
    side_vec = np.repeat(np.cross(mesh.frame.n, [tm.line.direction
                                                 for tm in traces]),
                         count, axis=0)
    cells = edge_cells[eids]
    offset = (mesh.frame.to_global(centroids)[cells]
              - mesh.frame.to_global(mesh.edge_mid)[eids, None])
    side = np.where(np.einsum("eck,ek->ec", offset, side_vec) > 0,
                    1, -1).astype(np.int8)
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
    mesh.edge_trace_side[eids] = side[:, 0]
    mesh._append_edge_tags(sources, side[two, 1])
    mesh.cell_edge[edge_entry[sources, 1]] = mesh.n_edges + np.arange(len(sources))
    return PolyMesh(
        mesh.nodes, np.vstack([mesh.edge_nodes, mesh.edge_nodes[sources]]),
        mesh.cell_ptr, mesh.cell_edge, mesh.cell_sign, frame=mesh.frame,
        edge_trace=mesh.edge_trace, edge_trace_elem=mesh.edge_trace_elem,
        edge_trace_side=mesh.edge_trace_side, areas=mesh.cell_areas,
        centroids=centroids, chained=mesh.chained)


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
        for ids, pos in mesh.cell_groups:
            star[ids] &= ok[pos].all(axis=1)
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


def load_mesh(path, frame: Frame | None = None) -> PolyMesh:
    """Read a mesh written by ``save_mesh``; ``MeshError`` if malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# dfnvem mesh"):
        raise MeshError(f"{path}: not a dfnvem mesh file")
    at = 1

    def section(tag, convert, width=None):
        # Parses the rows of section ``tag`` and moves past them; returns
        # the rows and the index of the first row's line.
        nonlocal at
        head = lines[at].split() if at < len(lines) else []
        if len(head) != 2 or head[0] != tag or not head[1].isdigit():
            raise MeshError(f"{path}, line {at + 1}: expected '{tag} <count>'")
        first, n = at + 1, int(head[1])
        rows = []
        for i in range(first, first + n):
            try:
                row = [convert(v) for v in lines[i].split()]
            except (IndexError, ValueError, OverflowError):
                row = None
            if not row or (width and len(row) != width):
                raise MeshError(f"{path}, line {i + 1}: malformed '{tag}' row")
            rows.append(row)
        at = first + n
        return rows, first

    def reject(bad_rows, first, what):
        if len(bad_rows):
            raise MeshError(f"{path}, line {first + int(bad_rows.min()) + 1}: {what}")

    nodes = np.array(section("nodes", float, 2)[0], float).reshape(-1, 2)
    rows, edge_line = section("edges", np.int64, 5)
    rows = np.array(rows, int).reshape(-1, 5)
    cells, cell_line = section("cells", np.int64)
    counts = np.fromiter(map(len, cells), int, len(cells))
    ptr = np.zeros(len(cells) + 1, int)
    np.cumsum(counts, out=ptr[1:])
    signed = np.fromiter(chain.from_iterable(cells), int, ptr[-1])
    n_nodes, n_edges = len(nodes), len(rows)
    reject(np.flatnonzero(((rows[:, :2] < 0) | (rows[:, :2] >= n_nodes)).any(axis=1)),
           edge_line, f"edge node outside 0..{n_nodes - 1}")
    # Range tests, not abs(): abs(-2**63) wraps to a negative int64.
    reject(np.flatnonzero((rows[:, 4] < -1) | (rows[:, 4] > 1)), edge_line,
           "side tag not in {-1, 0, 1}")
    reject(np.repeat(np.arange(len(cells)), counts)[
               (signed == 0) | (signed < -n_edges) | (signed > n_edges)],
           cell_line, f"cell entry not in -{n_edges}..-1 or 1..{n_edges}")
    return PolyMesh(nodes, rows[:, :2], ptr, np.abs(signed) - 1,
                    np.where(signed > 0, 1, -1), frame=frame,
                    edge_trace=rows[:, 2], edge_trace_elem=rows[:, 3],
                    edge_trace_side=rows[:, 4])
