"""Planar fractures in 3D, local frames, and intersection geometry.

A fracture is a planar simple polygon embedded in 3D carrying an aperture
and a tangential permeability tensor expressed in its local frame.
Fracture pairs meet in line segments (the one-codimensional intersections),
and those segments may meet each other in points (two-codimensional
intersections).  All functions here are pure, and the network's pairs
of fractures, of lines and of close points are each found and handled
in one batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CollinearOverlap,
    CollinearVertices,
    ConfigError,
    CoplanarOverlap,
    GeometryError,
    NonPlanarPolygon,
)

__all__ = [
    "Frame",
    "Fracture",
    "IntersectionLine",
    "IntersectionPoint",
    "FractureNetwork",
    "build_frame",
    "intersect_fractures",
    "build_network",
    "load_network",
]

_PARALLEL_TOL = 1e-8


# ------------------------------------------------------------------ #
# 2D polygon helpers (shared with the meshing module)
# ------------------------------------------------------------------ #

def polygon_area(pts: np.ndarray) -> float:
    """Signed shoelace area of a 2D polygon (positive if CCW)."""
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def point_segment_distance(p, a, b):
    """Distance from points ``p`` to segments ``a``-``b``.

    Broadcasts over leading axes, with coordinates (2D or 3D) on the last
    axis.  A zero-length segment gives ``|p - a|``.  Returns a float when
    every input is a single point.
    """
    p, a, b = np.asarray(p, float), np.asarray(a, float), np.asarray(b, float)
    d = b - a
    L2 = (d * d).sum(-1)
    t = ((p - a) * d).sum(-1) / np.where(L2 == 0.0, 1.0, L2)
    t = np.minimum(np.maximum(t, 0.0), 1.0)[..., None]
    # np.linalg.norm(x, axis=-1) is this sum, without its call overhead.
    x = p - (a + t * d)
    dist = np.sqrt((x * x).sum(-1))
    return float(dist) if dist.ndim == 0 else dist


def _even_odd(pts, fid, poly, ptr, nxt):
    """Even-odd test, with no boundary band, of each point ``pts[i]``
    against polygon ``fid[i]``, rows ``ptr[f]:ptr[f + 1]`` of ``poly``
    whose vertex ``e`` is followed by ``nxt[e]``, for points sorted by
    ``fid``.  A point flips at each edge that spans its ``y`` and meets
    that level at an ``x`` beyond it.  One pass per edge number, with
    each polygon's edge repeated over its points."""
    n, count = np.bincount(fid, minlength=len(ptr) - 1), np.diff(ptr)
    # Edge e of polygon f runs from vertex a[f, e] to b[f, e]; a polygon
    # with fewer edges repeats its last one, masked out by ``real``.
    e = np.arange(count.max(initial=0))
    a = ptr[:-1, None] + np.minimum(e, count[:, None] - 1)
    b = nxt[a]
    real = e < count[:, None]
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), bool)
    for k in e:
        # Only the points level with an edge can see it cross their ray.
        i = np.flatnonzero(np.repeat(real[:, k], n)
                           & ((np.repeat(poly[a[:, k], 1], n) > y)
                              != (np.repeat(poly[b[:, k], 1], n) > y)))
        (x0, y0), (x1, y1) = poly[a[fid[i], k]].T, poly[b[fid[i], k]].T
        xc = x0 + (y[i] - y0) * (x1 - x0) / (y1 - y0)
        inside[i[xc > x[i]]] ^= True
    return inside


def segments_cross(a0, a1, b0, b1, tol):
    """Whether the open interiors of the 2D segments ``a0[k]``-``a1[k]``
    and ``b0[k]``-``b1[k]`` cross transversally, row by row, each row
    with its own ``tol[k]`` or one ``tol`` for all.

    Segments whose directions meet at a sine of at most ``_PARALLEL_TOL``
    count as parallel and do not cross, at any scale."""
    d1, d2 = a1 - a0, b1 - b0
    den = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    L1, L2 = _norms(d1), _norms(d2)
    parallel = np.abs(den) <= _PARALLEL_TOL * L1 * L2
    den = np.where(parallel, 1.0, den)
    r = b0 - a0
    t = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / den
    u = (r[:, 0] * d1[:, 1] - r[:, 1] * d1[:, 0]) / den
    eps_t = tol / np.maximum(L1, tol)
    eps_u = tol / np.maximum(L2, tol)
    return (~parallel & (eps_t < t) & (t < 1 - eps_t)
            & (eps_u < u) & (u < 1 - eps_u))


def polygon_is_simple(pts: np.ndarray, tol: float) -> bool:
    """True unless two edges of ``pts`` that share no vertex cross."""
    n = len(pts)
    nxt = (np.arange(n) + 1) % n
    i, j = np.divmod(np.arange(n * n), n)
    apart = (i + 1 < j) & (nxt[j] != i)
    i, j = i[apart], j[apart]
    return not segments_cross(pts[i], pts[nxt[i]], pts[j], pts[nxt[j]],
                              tol).any()


# ------------------------------------------------------------------ #
# Frames and fractures
# ------------------------------------------------------------------ #

@dataclass(frozen=True)
class Frame:
    """Orthonormal right-handed tangent frame of a planar polygon."""

    origin: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    n: np.ndarray

    def to_local(self, pts: np.ndarray) -> np.ndarray:
        """Map 3D points (shape ``(..., 3)``) to in-plane (u, v)
        coordinates.  A stack of point sets maps each set as a call on it
        alone would, bit for bit: the matrix-vector product runs per set."""
        q = np.atleast_2d(pts) - self.origin
        out = np.stack([q @ self.t1, q @ self.t2], axis=-1)
        return out[0] if np.ndim(pts) == 1 else out

    def to_global(self, uv: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(uv)
        out = self.origin + np.outer(q[:, 0], self.t1) + np.outer(q[:, 1], self.t2)
        return out[0] if np.ndim(uv) == 1 else out

    def vector_to_global(self, vec2: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(vec2)
        out = np.outer(q[:, 0], self.t1) + np.outer(q[:, 1], self.t2)
        return out[0] if np.ndim(vec2) == 1 else out


def build_frame(vertices: np.ndarray, tol_plane: float | None = None) -> Frame:
    """Best-fit plane frame of a polygon.

    The first tangent is the first nondegenerate edge direction so that
    local 2D coordinates are reproducible across runs; the second tangent
    is ``n x t1``.

    Raises ``CollinearVertices`` or ``NonPlanarPolygon``.
    """
    pts = np.asarray(vertices, float)
    if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 3:
        raise CollinearVertices("need at least 3 three-dimensional points")
    center = pts.mean(axis=0)
    diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    if tol_plane is None:
        tol_plane = 1e-9 * max(diag, 1e-300)
    u, s, vt = np.linalg.svd(pts - center, full_matrices=False)
    if diag == 0.0 or s[1] <= 1e-12 * s[0]:
        raise CollinearVertices("vertices are collinear")
    n = vt[2]
    # Deterministic sign: largest-magnitude component positive.
    k = int(np.argmax(np.abs(n)))
    if n[k] < 0:
        n = -n
    dev = np.abs((pts - center) @ n)
    if dev.max() > tol_plane:
        raise NonPlanarPolygon(
            f"max deviation {dev.max():.3e} exceeds tolerance {tol_plane:.3e}"
        )
    t1 = None
    for i in range(len(pts)):
        e = pts[(i + 1) % len(pts)] - pts[i]
        e = e - (e @ n) * n
        L = np.linalg.norm(e)
        if L > 1e-12 * diag:
            t1 = e / L
            break
    if t1 is None:
        raise CollinearVertices("no nondegenerate edge")
    t2 = np.cross(n, t1)
    return Frame(origin=pts[0].copy(), t1=t1, t2=t2 / np.linalg.norm(t2), n=n)


@dataclass
class Fracture:
    """Planar polygonal fracture with aperture and tangential permeability.

    ``k_tangential`` is a symmetric positive definite 2x2 tensor expressed
    in the fracture frame; the effective permeability entering the flow
    model is ``aperture * k_tangential``.
    """

    id: int
    vertices: np.ndarray
    aperture: float = 1.0
    k_tangential: np.ndarray = field(default_factory=lambda: np.eye(2))
    frame: Frame = None
    tol: float = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, float)
        self.k_tangential = np.asarray(self.k_tangential, float)
        if self.aperture <= 0.0:
            raise GeometryError(f"fracture {self.id}: aperture must be positive")
        if not np.allclose(self.k_tangential, self.k_tangential.T):
            raise GeometryError(f"fracture {self.id}: permeability not symmetric")
        if np.linalg.eigvalsh(self.k_tangential).min() <= 0.0:
            raise GeometryError(f"fracture {self.id}: permeability not SPD")
        if self.frame is None:
            self.frame = build_frame(self.vertices, self.tol)
        if self.tol is None:
            diag = np.linalg.norm(self.vertices.max(0) - self.vertices.min(0))
            self.tol = 1e-9 * diag
        n = len(self.vertices)
        edge_len = np.linalg.norm(np.roll(self.vertices, -1, 0) - self.vertices,
                                  axis=1)
        short = np.flatnonzero(edge_len < self.tol)
        if len(short):
            i = int(short[0])
            raise GeometryError(
                f"fracture {self.id}: the edge from vertex {i} to vertex "
                f"{(i + 1) % n} is shorter than the tolerance {self.tol:.3e}")
        local = self.frame.to_local(self.vertices)
        if not polygon_is_simple(local, self.tol):
            raise GeometryError(f"fracture {self.id}: polygon is not simple")
        if polygon_area(local) < 0:
            # Store a CCW copy in local coordinates for clipping queries.
            local = local[::-1]
        self.local_polygon = local

    @property
    def effective_permeability(self) -> np.ndarray:
        return self.aperture * self.k_tangential

    def boundary_distance(self, p3: np.ndarray) -> np.ndarray:
        """In-plane distance of each of the points ``p3`` (shape ``(n, 3)``)
        to the polygon's boundary.  Each point maps to the frame as it
        would alone, so a point's distance does not depend on the others."""
        q = self.frame.to_local(p3[:, None])
        poly = self.local_polygon
        return point_segment_distance(q, poly, np.roll(poly, -1, 0)).min(1)


@dataclass
class IntersectionLine:
    """One-codimensional intersection segment between fractures.

    ``k_hat`` is the tangential permeability of the intersection and
    ``k_tilde`` the normal one; the effective values are
    ``lambda_hat = d_i * d_j * k_hat`` and ``lambda_tilde_m = k_tilde / d_m``
    per parent fracture ``m``.
    """

    id: int
    p0: np.ndarray
    p1: np.ndarray
    parents: tuple
    k_hat: float = 1.0
    k_tilde: float = 1.0

    def __post_init__(self):
        self.p0 = np.asarray(self.p0, float)
        self.p1 = np.asarray(self.p1, float)
        # Computed once: the end points are not reassigned after this.
        self.length = float(np.linalg.norm(self.p1 - self.p0))
        self.direction = (self.p1 - self.p0) / self.length

    def effective_tangential(self, apertures: dict) -> float:
        d = [apertures[f] for f in self.parents[:2]]
        return d[0] * d[1] * self.k_hat

    def effective_normal(self, aperture: float) -> float:
        return self.k_tilde / aperture


@dataclass
class IntersectionPoint:
    """Two-codimensional meeting point of intersection lines."""

    id: int
    location: np.ndarray
    parent_lines: tuple

    def __post_init__(self):
        self.location = np.asarray(self.location, float)


# ------------------------------------------------------------------ #
# Intersections
# ------------------------------------------------------------------ #

def _coplanar_intersection(a: Fracture, b: Fracture, tol: float):
    """Shared boundary segment of two coplanar fractures, if any.

    Positive-area overlap is rejected: the flow model only supports line
    intersections.
    """
    pa = a.local_polygon
    pb = a.frame.to_local(b.vertices)
    if polygon_area(pb) < 0:
        pb = pb[::-1]
    # Edge i of a against edge j of b in row i * len(pb) + j.
    i, j = np.divmod(np.arange(len(pa) * len(pb)), len(pb))
    a0, a1 = pa[i], np.roll(pa, -1, 0)[i]
    b0, b1 = pb[j], np.roll(pb, -1, 0)[j]
    if segments_cross(a0, a1, b0, b1, tol).any():
        raise CoplanarOverlap(
            f"fractures {a.id} and {b.id} are coplanar and overlap"
        )
    for q, poly in ((pb, pa), (pa, pb)):
        # A vertex strictly inside the other polygon, off its boundary band.
        off_boundary = point_segment_distance(
            q[:, None], poly, np.roll(poly, -1, 0)).min(1) > tol
        n = len(poly)
        inside = _even_odd(q, np.zeros(len(q), int), poly, np.array([0, n]),
                           (np.arange(n) + 1) % n)
        if (inside & off_boundary).any():
            raise CoplanarOverlap(
                f"fractures {a.id} and {b.id} are coplanar and overlap"
            )
    # Collinear overlaps of boundary edges: b's edge within tol of the
    # line of a's edge, grown to three times its length, and overlapping
    # the edge by more than tol.
    La = _norms(a1 - a0)
    ua = (a1 - a0) / La[:, None]
    grow = 2 * La[:, None] * ua
    on = ((point_segment_distance(b0, a0 - grow, a1 + grow) <= tol)
          & (point_segment_distance(b1, a0 - grow, a1 + grow) <= tol))
    t = np.sort(np.column_stack([_dots(b0 - a0, ua), _dots(b1 - a0, ua)]), 1)
    lo, hi = np.maximum(0.0, t[:, 0]), np.minimum(La, t[:, 1])
    piece = on & (hi - lo > tol)
    if not piece.any():
        return None
    ends = np.stack([a0 + lo[:, None] * ua, a0 + hi[:, None] * ua],
                    1)[piece].reshape(-1, 2)
    far = int(np.argmax(np.linalg.norm(ends - ends[0], axis=1)))
    u = ends[far] - ends[0]
    u = u / np.linalg.norm(u)
    ts = (ends - ends[0]) @ u
    perp = ends - ends[0] - np.outer(ts, u)
    if np.linalg.norm(perp, axis=1).max() > 10 * tol:
        raise CoplanarOverlap(
            f"fractures {a.id} and {b.id} share non-collinear boundary pieces"
        )
    q0 = ends[0] + ts.min() * u
    q1 = ends[0] + ts.max() * u
    return a.frame.to_global(q0), a.frame.to_global(q1)


def intersect_fractures(a: Fracture, b: Fracture, tol: float | None = None):
    """Intersection segment of two fractures, clipped to both polygons.

    Returns an ``IntersectionLine`` (id -1, to be assigned by the network
    builder) or ``None`` for disjoint, parallel or point-contact pairs.
    Coplanar pairs sharing a boundary segment are supported; coplanar
    pairs overlapping with positive area raise ``CoplanarOverlap``.
    This is the one-pair call of ``_intersect_pairs``.
    """
    if tol is None:
        tol = max(a.tol, b.tol)
    return _intersect_pairs([a, b], np.array([0]), np.array([1]), tol)[0]


def _ranges(start, count):
    """Concatenated ``arange(start[k], start[k] + count[k])`` over ``k``:
    the ``k`` of each position, and the positions."""
    k = np.repeat(np.arange(len(start)), count)
    return k, np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())


def _clip_lines(polygons: list, q0: np.ndarray, d2: np.ndarray,
                tol: float) -> list:
    """Parameter intervals of each line ``q0[g] + t * d2[g]`` inside the 2D
    polygon ``polygons[g]``, for every ``g`` in one batch.

    ``d2`` holds unit vectors.  Works for non-convex polygons; boundary
    runs count as inside.  One array expression crosses every line with
    every edge of its polygon, and one even-odd test with a boundary band
    of ``tol`` takes every gap between consecutive crossings.  Each
    line's crossing parameters, in ascending order, merge by
    ``_merge_targets``' rule (``_first_kept``).  An
    edge is parallel to its line when their sine is at most
    ``_PARALLEL_TOL``, at any scale.  Returns, per line, a list of
    ``[t0, t1]`` with ``t0 < t1``.
    """
    m = np.array([len(v) for v in polygons])
    first = np.cumsum(m) - m
    ea = np.concatenate(polygons)
    nxt = np.arange(len(ea)) + 1
    nxt[first + m - 1] = first
    eb = ea[nxt]

    g, e = _ranges(first, m)
    a, b, u, v = ea[e], eb[e], d2[g], q0[g]
    ed, r = b - a, a - v
    le = _norms(ed)
    den = u[:, 0] * ed[:, 1] - u[:, 1] * ed[:, 0]
    par = np.abs(den) <= _PARALLEL_TOL * le
    den = np.where(par, 1.0, den)
    t = (r[:, 0] * ed[:, 1] - r[:, 1] * ed[:, 0]) / den
    w = (r[:, 0] * u[:, 1] - r[:, 1] * u[:, 0]) / den * le
    # An edge on the line adds both its end points' parameters.
    on = par & (np.abs(u[:, 0] * r[:, 1] - u[:, 1] * r[:, 0]) <= tol)
    uu = _dots(u, u)
    ts = np.column_stack([np.where(on, _dots(r, u) / uu, t),
                          _dots(b - v, u) / uu])
    keep = np.column_stack([on | (~par & (-tol <= w) & (w <= le + tol)), on])
    tg = np.broadcast_to(g[:, None], keep.shape)[keep]
    ts = ts[keep]
    order = _by_group(tg, ts)
    order = order[_first_kept(ts[order], tg[order], tol)]
    tg, ts = tg[order], ts[order]
    gap = np.flatnonzero(tg[1:] == tg[:-1])
    ig, lo, hi = tg[gap], ts[gap], ts[gap + 1]
    inside = []
    if len(ig):
        mid = q0[ig] + 0.5 * (lo + hi)[:, None] * d2[ig]
        odd = _even_odd(mid, ig, ea, np.append(first, len(ea)), nxt)
        k, e = _ranges(first[ig], m[ig])
        near = np.logical_or.reduceat(
            point_segment_distance(mid[k], ea[e], eb[e]) <= tol,
            np.cumsum(m[ig]) - m[ig])
        inside = (odd | near).tolist()
    # Fuse the inside gaps that share an end.
    out: list = [[] for _ in polygons]
    for gk, t0, t1, ok in zip(ig.tolist(), lo.tolist(), hi.tolist(), inside):
        row = out[gk]
        if ok and row and abs(row[-1][1] - t0) <= tol:
            row[-1][1] = t1
        elif ok:
            row.append([t0, t1])
    return out


def _intersect_pairs(fractures: list, i: np.ndarray, j: np.ndarray,
                     tol: float) -> list:
    """``intersect_fractures(fractures[i[k]], fractures[j[k]], tol)`` for
    every ``k``, as one batch over the pairs.

    Coplanar pairs go through ``_coplanar_intersection`` in pair order,
    so the first error raised is the first failing pair's; no other pair
    raises.  Every other pair's line of planes is clipped to both parent
    polygons in one ``_clip_lines`` call.
    """
    out: list = [None] * len(i)
    frame = np.array([[f.frame.origin, f.frame.t1, f.frame.t2, f.frame.n]
                      for f in fractures]).reshape(-1, 4, 3)
    origin, t1, t2, normal = frame.transpose(1, 0, 2)
    cross = np.cross(normal[i], normal[j])
    cn = _norms(cross)
    flat = cn < _PARALLEL_TOL
    for k in np.flatnonzero(flat).tolist():
        a, b = fractures[i[k]], fractures[j[k]]
        if abs((b.frame.origin - a.frame.origin) @ a.frame.n) > 10 * tol:
            continue
        seg = _coplanar_intersection(a, b, tol)
        if seg is not None:
            out[k] = IntersectionLine(id=-1, p0=seg[0], p1=seg[1],
                                      parents=(a.id, b.id))
    pair = np.flatnonzero(~flat)
    if not len(pair):
        return out
    ia, ib = i[pair], j[pair]
    d = cross[pair] / cn[pair, None]
    # The point of both planes nearest the origin, pair by pair: a
    # batched closed form rounds differently.
    rhs = np.column_stack([_dots(normal[ia], origin[ia]),
                           _dots(normal[ib], origin[ib])])
    p0 = np.array([np.linalg.lstsq(A, r, rcond=None)[0] for A, r in
                   zip(np.stack([normal[ia], normal[ib]], 1), rhs)])

    # Line 2k + s is pair k's line in the frame of parent s.  It lies in
    # that plane, so its direction keeps unit length there up to
    # rounding, and its parameter stays the 3D arclength.
    fg = np.column_stack([ia, ib]).ravel()
    pg = np.repeat(np.arange(len(pair)), 2)
    q = p0[pg] - origin[fg]
    q0 = np.column_stack([_dots(q, t1[fg]), _dots(q, t2[fg])])
    d2 = np.column_stack([_dots(d[pg], t1[fg]), _dots(d[pg], t2[fg])])
    ivs = _clip_lines([fractures[f].local_polygon for f in fg.tolist()],
                      q0, d2 / _norms(d2)[:, None], tol)

    # The longest overlap of the two parents' intervals.
    hit, ends = [], []
    for k in range(len(pair)):
        best = None
        for ta0, ta1 in ivs[2 * k]:
            for tb0, tb1 in ivs[2 * k + 1]:
                lo, hi = max(ta0, tb0), min(ta1, tb1)
                if hi - lo > tol and (best is None or hi - lo > best[1] - best[0]):
                    best = (lo, hi)
        if best is not None:
            hit.append(k)
            ends.append(best)
    if not hit:
        return out
    ends = np.array(ends)[:, :, None] * d[hit][:, None] + p0[hit][:, None]
    for n, k in enumerate(hit):
        out[pair[k]] = IntersectionLine(
            id=-1, p0=ends[n, 0], p1=ends[n, 1],
            parents=(fractures[ia[k]].id, fractures[ib[k]].id))
    return out


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise ``u[k] @ v[k]``, bit for bit: a stacked ``(1, n) @ (n, 1)``
    product runs numpy's 1-D dot on each row, as ``@`` does on vectors."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _norms(v: np.ndarray) -> np.ndarray:
    """Row-wise ``np.linalg.norm``, bit for bit (see ``_dots``)."""
    return np.sqrt(_dots(v, v))


def _crossings(a0, a1, b0, b1, tol: float):
    """Crossings of the rows of segment pairs ``a0-a1``, ``b0-b1``.

    Returns a mask of the (near-)parallel pairs, which this does not
    decide, and the common interior point of every other pair, nan
    where there is none: crossings at segment endpoints are not
    reported, since the model requires points interior to each parent
    line.
    """
    d1, d2 = a1 - a0, b1 - b0
    L1, L2 = _norms(d1), _norms(d2)
    r = b0 - a0
    parallel = _norms(np.cross(d1 / L1[:, None], d2 / L2[:, None])) < _PARALLEL_TOL
    loc = np.full(a0.shape, np.nan)
    k = np.flatnonzero(~parallel)
    if not len(k):      # no stacked solve on an empty batch
        return parallel, loc
    d1, d2, r, L1, L2 = d1[k], d2[k], r[k], L1[k], L2[k]
    d12 = _dots(d1, d2)
    M = np.stack([_dots(d1, d1), -d12, -d12, _dots(d2, d2)], 1).reshape(-1, 2, 2)
    rhs = np.stack([_dots(r, d1), -_dots(r, d2)], 1)
    s, u = np.linalg.solve(M, rhs[:, :, None])[:, :, 0].T
    pa = a0[k] + s[:, None] * d1
    pb = b0[k] + u[:, None] * d2
    eps1, eps2 = tol / L1, tol / L2
    ok = ((_norms(pa - pb) <= tol) & (eps1 < s) & (s < 1 - eps1)
          & (eps2 < u) & (u < 1 - eps2))
    loc[k[ok]] = 0.5 * (pa[ok] + pb[ok])
    return parallel, loc


def _check_collinear(a: IntersectionLine, b: IntersectionLine, tol: float):
    """Raise ``CollinearOverlap`` if parallel segments overlap on a line."""
    d1 = a.p1 - a.p0
    L1 = np.linalg.norm(d1)
    if point_segment_distance([b.p0, b.p1], a.p0, a.p1).min() < tol:
        u = d1 / L1
        t0, t1 = sorted([float((b.p0 - a.p0) @ u), float((b.p1 - a.p0) @ u)])
        if min(L1, t1) - max(0.0, t0) > tol:
            raise CollinearOverlap(
                f"intersection lines {a.id} and {b.id} overlap"
            )


# ------------------------------------------------------------------ #
# Network assembly
# ------------------------------------------------------------------ #

@dataclass
class FractureNetwork:
    """Fractures plus computed intersection lines and points."""

    fractures: list
    lines: list
    points: list
    tol: float

    def fracture(self, fid: int) -> Fracture:
        return self._by_id[fid]

    def __post_init__(self):
        self._by_id = {f.id: f for f in self.fractures}

    def traces_of(self, fid: int) -> list:
        return [ln for ln in self.lines if fid in ln.parents]

    def line(self, gid: int) -> IntersectionLine:
        return self.lines[gid]


# A unit vector along no axis, whose first two entries serve 2D boxes: a
# network's lines and a fracture's traces mostly run along axes, and so
# do their grids of crossing points.
_SWEEP = np.array([0.6, 0.48, 0.64])


def _box_pairs(alo, ahi, blo, bhi, agroup=None, bgroup=None):
    """Index pairs ``(i, j)`` of boxes ``[alo[i], ahi[i]]`` and ``[blo[j],
    bhi[j]]`` that meet, closed in every coordinate, and, if groups are
    given, have ``agroup[i] == bgroup[j]``; boxes have ``lo <= hi``, and a
    point is a box with ``lo == hi``.  The pairs come by ascending ``i``.

    One sort of the ``b`` boxes by group, then by the projection of their
    low corners on ``_SWEEP``, gives each ``a`` box a run of them (sort and
    sweep): from the first whose running maximum of projected high corners
    reaches the ``a`` box's low corner, to the last whose low corner does
    not pass its high corner.  The box test then runs one coordinate at a
    time on the run.  Every corner is projected by the same sum of
    products with positive weights, and rounding is monotone, so boxes
    that meet project onto ranges that meet.
    """
    w = _SWEEP[:blo.shape[1]]
    if agroup is None:
        agroup, bgroup = np.zeros(len(alo)), np.zeros(len(blo))
    key = bgroup + 1j * (blo * w).sum(1)
    order = np.argsort(key, kind="stable")
    top = np.maximum.accumulate(bgroup[order] + 1j * (bhi[order] * w).sum(1))
    start = np.searchsorted(top, agroup + 1j * (alo * w).sum(1), "left")
    stop = np.searchsorted(key[order], agroup + 1j * (ahi * w).sum(1), "right")
    i, at = _ranges(start, stop - start)
    # Gathers from contiguous columns are the cheapest.
    for a0, a1, b0, b1 in zip(alo.T.copy(), ahi.T.copy(),
                              blo[order].T.copy(), bhi[order].T.copy()):
        meet = (a0[i] <= b1[at]) & (b0[at] <= a1[i])
        i, at = i[meet], at[meet]
    return i, order[at]


def _merge_targets(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The entries ``0 .. n - 1`` merged in order: entry ``q`` merges into
    the first kept entry ``p < q`` of a close pair ``(i[k], j[k]) = (p,
    q)``, and is kept if there is none.  Returns each entry's target, the
    entry itself if kept.

    An entry that is no pair's ``q`` is kept, so an entry whose first
    partner is such a one merges into it; only the others are decided
    one by one, in order, and they are rare.
    """
    order = np.lexsort((i, j))
    p, q = i[order], j[order]
    target = np.arange(n)
    head = np.flatnonzero(np.diff(q, prepend=-1) != 0)
    root = np.ones(n, bool)
    root[q[head]] = False
    easy = root[p[head]]
    target[q[head[easy]]] = p[head[easy]]
    stop = np.append(head[1:], len(q))
    for a, b in zip(head[~easy].tolist(), stop[~easy].tolist()):
        for pp in p[a:b].tolist():
            if target[pp] == pp:
                target[q[a]] = pp
                break
    return target


def _by_group(group: np.ndarray, value: np.ndarray) -> np.ndarray:
    """``np.lexsort((value, group))`` for integer groups and finite
    values, from one complex key: the same stable permutation, several
    times faster on the small arrays of set-up and meshing."""
    return np.argsort(group + 1j * value, kind="stable")


def _first_kept(t: np.ndarray, group: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the values ``t`` that ``_merge_targets`` keeps, in index
    order, two values being close when they share a group and lie at
    most ``tol`` apart.

    In (group, value) order every close pair lies inside a run of
    neighbours at most ``tol`` apart, so only the pairs within runs are
    measured.
    """
    order = _by_group(group, t)
    s, g = t[order], group[order]
    cut = np.append(np.flatnonzero((g[1:] != g[:-1]) | (s[1:] - s[:-1] > tol))
                    + 1, len(s))
    k = np.arange(len(s))
    a, b = _ranges(k + 1, cut[np.searchsorted(cut, k, "right")] - k - 1)
    close = s[b] - s[a] <= tol
    p, q = order[a[close]], order[b[close]]
    return _merge_targets(len(s), np.minimum(p, q), np.maximum(p, q)) == k


def build_network(fractures: list, tol: float | None = None,
                  intersection_props: dict | None = None) -> FractureNetwork:
    """Compute all fracture intersections and assemble the network.

    Segments produced by different fracture pairs that coincide within
    tolerance are merged into a single line carrying every parent, so
    more than two fractures may meet along one intersection.

    ``intersection_props`` maps a frozenset of parent ids to a dict with
    ``k_hat`` / ``k_tilde`` overriding the unit defaults.

    Only pairs whose bounding boxes come within ``2 * merge_tol`` are
    intersected.  A fracture pair's segment lies within ``tol`` of both
    polygons and a line pair's point within ``merge_tol`` of both
    segments, so every skipped pair would have given ``None`` without
    raising.  Near-parallel fracture pairs closer than ``20 * tol`` are
    always intersected, since the coplanar test projects one polygon
    onto the other's plane.
    """
    fractures = sorted(fractures, key=lambda f: f.id)
    if tol is None:
        pts = np.vstack([f.vertices for f in fractures])
        tol = 1e-9 * float(np.linalg.norm(pts.max(0) - pts.min(0)))
    merge_tol = max(tol * 1e3, tol)
    box = np.array([[f.vertices.min(0), f.vertices.max(0)]
                    for f in fractures]).reshape(-1, 2, 3)
    frame = np.array([[f.frame.origin, f.frame.n]
                      for f in fractures]).reshape(-1, 2, 3)
    lo, hi = box[:, 0] - merge_tol, box[:, 1] + merge_tol
    meet = np.zeros((len(fractures),) * 2, bool)
    meet[_box_pairs(lo, hi, lo, hi)] = True
    i, j = np.triu_indices(len(fractures), 1)
    origin, normal = frame[:, 0], frame[:, 1]
    near = meet[i, j] | (
        (np.linalg.norm(np.cross(normal[i], normal[j]), axis=1)
         < 2 * _PARALLEL_TOL)
        & (np.abs(((origin[j] - origin[i]) * normal[i]).sum(1)) <= 20 * tol))
    segs = [s for s in _intersect_pairs(fractures, i[near], j[near], tol)
            if s is not None]
    ends = np.array([(s.p0, s.p1) for s in segs]).reshape(-1, 2, 3)
    # A segment within merge_tol of a kept one, end to end, merges into
    # the first such; the two midpoints are then within merge_tol / 2,
    # and the search reaches twice that for rounding.
    mid = ends.sum(1) / 2
    a, b = _box_pairs(mid - merge_tol, mid + merge_tol, mid, mid)
    ea, eb = ends[a], ends[b]
    close = (a < b) & (np.minimum(
        _norms(ea[:, 0] - eb[:, 0]) + _norms(ea[:, 1] - eb[:, 1]),
        _norms(ea[:, 0] - eb[:, 1]) + _norms(ea[:, 1] - eb[:, 0])) < merge_tol)
    target = _merge_targets(len(segs), a[close], b[close])
    kept = target == np.arange(len(segs))
    for k in np.flatnonzero(~kept).tolist():
        ln = segs[target[k]]
        ln.parents = tuple(sorted(set(ln.parents) | set(segs[k].parents)))
    lines = [segs[k] for k in np.flatnonzero(kept).tolist()]
    ends = ends[kept]
    for k, ln in enumerate(lines):
        ln.id = k
        props = None
        if intersection_props:
            props = intersection_props.get(frozenset(ln.parents))
            if props is None and len(ln.parents) > 2:
                for key, val in intersection_props.items():
                    if key <= set(ln.parents):
                        props = val
                        break
        if props:
            ln.k_hat = float(props.get("k_hat", ln.k_hat))
            ln.k_tilde = float(props.get("k_tilde", ln.k_tilde))

    # The line pairs in np.triu_indices order, so the first collinear
    # overlap raised is the lowest pair's.
    lo, hi = ends.min(1) - merge_tol, ends.max(1) + merge_tol
    a, b = _box_pairs(lo, hi, lo, hi)
    a, b = np.divmod(np.sort((a * len(lines) + b)[a < b]), len(lines))
    parallel, found = _crossings(ends[a, 0], ends[a, 1], ends[b, 0], ends[b, 1],
                                 merge_tol)
    for k in np.flatnonzero(parallel).tolist():
        _check_collinear(lines[a[k]], lines[b[k]], merge_tol)
    # A crossing within merge_tol of a kept one merges into the first such.
    hit = np.flatnonzero(~np.isnan(found[:, 0]))
    loc, a, b = found[hit], a[hit], b[hit]
    i, j = _box_pairs(loc - 2 * merge_tol, loc + 2 * merge_tol, loc, loc)
    close = (i < j) & (_norms(loc[i] - loc[j]) < merge_tol)
    target = _merge_targets(len(hit), i[close], j[close])
    # Each kept crossing's lines, with those of the crossings merged in.
    key = np.unique(np.tile(target, 2) * len(lines) + np.concatenate([a, b]))
    owner, member = np.divmod(key, len(lines))
    run = np.flatnonzero(np.diff(owner, prepend=-1)).tolist() + [len(key)]
    member = member.tolist()
    points = [IntersectionPoint(id=n, location=loc[k],
                                parent_lines=tuple(member[s:e]))
              for n, (k, s, e) in enumerate(zip(owner[run[:-1]].tolist(),
                                                run[:-1], run[1:]))]
    return FractureNetwork(fractures=fractures, lines=lines, points=points,
                           tol=tol)


def is_json_int(value) -> bool:
    """True for an integral JSON number; a bool is not one."""
    return ((isinstance(value, int) and not isinstance(value, bool))
            or (isinstance(value, float) and value.is_integer()))


def json_list(data: dict, key: str, where: str = "") -> list:
    """``data[key]``, default ``[]``; ``ConfigError`` unless a JSON array.

    ``where`` prefixes the error message, such as the file's path.
    """
    items = data.get(key, [])
    if not isinstance(items, list):
        raise ConfigError(f"{where}{key}: expected a list, "
                          f"not {type(items).__name__}")
    return items


def json_keys(item, known: tuple, where: str) -> None:
    """``ConfigError`` at ``where`` for the first key of the object ``item``
    that is not in ``known``: a misspelt optional key would otherwise be
    ignored.  A non-object ``item`` is left to the caller's checks."""
    for key in item if isinstance(item, dict) else ():
        if key not in known:
            raise ConfigError(f"{where}: unknown key {key!r}; expected one "
                              f"of {', '.join(known)}")


def json_numbers(item, keys: tuple, where: str) -> None:
    """``ConfigError`` at ``where`` for the first of ``keys`` whose value in
    the object ``item`` is or holds a JSON boolean, which Python would
    read as a number.  A non-object ``item`` is left to the caller."""
    def boolean(v):
        return isinstance(v, bool) or (isinstance(v, list)
                                       and any(map(boolean, v)))
    for key in keys if isinstance(item, dict) else ():
        if boolean(item.get(key)):
            raise ConfigError(f"{where}.{key}: {item[key]!r} is a boolean, "
                              f"not a number")


def load_network(path) -> tuple:
    """Read a network from the JSON input format.

    Returns ``(network, raw_dict)``; boundary condition selectors in the
    file are interpreted by the assembly module.  An unknown top-level
    key, a malformed fracture or intersection entry (a boolean where a
    number is expected included), or an intersection entry naming
    fractures that do not meet, raises ``ConfigError`` naming its JSON
    path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: cannot read network JSON: {exc}") from None
    if not isinstance(data, dict) or not data.get("fractures"):
        raise ConfigError(f"{path}: network file lacks a non-empty "
                          f"'fractures' array")
    json_keys(data, ("fractures", "intersections", "boundary_conditions",
                     "intersection_conditions"), f"{path}: top level")
    fractures = []
    for i, spec in enumerate(json_list(data, "fractures", f"{path}: ")):
        json_keys(spec, ("id", "vertices", "aperture", "k_tangential"),
                  f"{path}: fractures[{i}]")
        json_numbers(spec, ("vertices", "aperture", "k_tangential"),
                     f"{path}: fractures[{i}]")
        try:
            k = spec.get("k_tangential", [1.0, 0.0, 1.0])
            kxx, kxy, kyy = (float(v) for v in k)
            if not is_json_int(spec["id"]):
                raise ConfigError(f"{path}: fractures[{i}].id: "
                                  f"{spec['id']!r} is not an integer")
            fid = int(spec["id"])
            vertices = np.asarray(spec["vertices"], float)
            aperture = float(spec.get("aperture", 1.0))
            if not np.isfinite([kxx, kxy, kyy, aperture, *vertices.flat]).all():
                raise ValueError("vertices, aperture and k_tangential "
                                 "must be finite")
            if fid in {f.id for f in fractures}:
                raise ValueError(f"duplicate fracture id {fid}")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"{path}: fractures[{i}]: {type(exc).__name__}: {exc}"
            ) from None
        fractures.append(
            Fracture(
                id=fid, vertices=vertices, aperture=aperture,
                k_tangential=np.array([[kxx, kxy], [kxy, kyy]]),
            )
        )
    fids = {f.id for f in fractures}
    props = {}
    keys = []
    for i, isec in enumerate(json_list(data, "intersections", f"{path}: ")):
        json_keys(isec, ("fractures", "k_hat", "k_tilde"),
                  f"{path}: intersections[{i}]")
        json_numbers(isec, ("k_hat", "k_tilde"), f"{path}: intersections[{i}]")
        try:
            for k, v in enumerate(isec["fractures"]):
                if not is_json_int(v):
                    raise ConfigError(f"{path}: intersections[{i}].fractures"
                                      f"[{k}]: {v!r} is not an integer")
            key = frozenset(int(v) for v in isec["fractures"])
            keys.append(key)
            if len(key) < 2 or not key <= fids:
                raise ValueError("'fractures' must name two or more of the "
                                 "network's fracture ids")
            props[key] = {k: float(isec.get(k, 1.0))
                          for k in ("k_hat", "k_tilde")}
            if not np.isfinite(list(props[key].values())).all():
                raise ValueError("k_hat and k_tilde must be finite")
            for k, v in props[key].items():
                if v <= 0.0:
                    raise ConfigError(f"{path}: intersections[{i}].{k}: {v!r} "
                                      "is not positive")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"{path}: intersections[{i}]: {type(exc).__name__}: {exc}"
            ) from None
    network = build_network(fractures, intersection_props=props)
    for i, key in enumerate(keys):
        if not any(key <= set(ln.parents) for ln in network.lines):
            raise ConfigError(f"{path}: intersections[{i}]: fractures "
                              f"{sorted(key)} do not meet")
    return network, data
