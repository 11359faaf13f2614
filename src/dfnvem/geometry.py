"""Planar fractures in 3D, local frames, and intersection geometry.

A fracture is a planar simple polygon embedded in 3D carrying an aperture
and a tangential permeability tensor expressed in its local frame.
Fracture pairs meet in line segments (the one-codimensional intersections),
and those segments may meet each other in points (two-codimensional
intersections).  All functions here are pure; fracture pairs can be
processed in parallel.
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


def point_in_polygon(pts, poly: np.ndarray, tol: float):
    """Even-odd test of 2D points ``pts`` (shape ``(..., 2)``) in a polygon.

    A point within ``tol`` of the boundary counts as inside, so ``tol = 0``
    still takes points lying exactly on an edge; a negative ``tol`` means
    no boundary band.  Returns a bool for a single point, else a bool
    array of shape ``pts.shape[:-1]``.
    """
    pts = np.asarray(pts, float)
    poly = np.asarray(poly, float)
    nxt = np.roll(poly, -1, axis=0)
    x, y = pts[..., 0], pts[..., 1]
    inside = np.zeros(x.shape, bool)
    for (x0, y0), (x1, y1) in zip(poly, nxt):
        if y1 != y0:
            xc = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            inside ^= ((y0 > y) != (y1 > y)) & (xc > x)
    if tol >= 0:
        # One edge at a time keeps memory linear in the number of points.
        for a, b in zip(poly, nxt):
            inside |= point_segment_distance(pts, a, b) <= tol
    return bool(inside) if inside.ndim == 0 else inside


def _even_odd(pts, fid, poly, ptr, nxt):
    """``point_in_polygon(pts[i], polygon, -1.0)`` against polygon
    ``fid[i]``, rows ``ptr[f]:ptr[f + 1]`` of ``poly`` whose vertex ``e``
    is followed by ``nxt[e]``, for points sorted by ``fid``.  One pass per
    edge number, as ``point_in_polygon`` makes one per edge, with each
    polygon's edge repeated over its points."""
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


def segments_cross(a0, a1, b0, b1, tol: float) -> bool:
    """True if the open interiors of two 2D segments cross transversally.

    Segments whose directions meet at a sine of at most ``_PARALLEL_TOL``
    count as parallel and do not cross, at any scale."""
    a0, a1, b0, b1 = (np.asarray(v, float) for v in (a0, a1, b0, b1))
    d1, d2 = a1 - a0, b1 - b0
    den = d1[0] * d2[1] - d1[1] * d2[0]
    L1, L2 = np.linalg.norm(d1), np.linalg.norm(d2)
    if abs(den) <= _PARALLEL_TOL * L1 * L2:
        return False
    r = b0 - a0
    t = (r[0] * d2[1] - r[1] * d2[0]) / den
    u = (r[0] * d1[1] - r[1] * d1[0]) / den
    eps_t = tol / max(L1, tol)
    eps_u = tol / max(L2, tol)
    return eps_t < t < 1 - eps_t and eps_u < u < 1 - eps_u


def polygon_is_simple(pts: np.ndarray, tol: float) -> bool:
    n = len(pts)
    for i in range(n):
        a0, a1 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if segments_cross(a0, a1, pts[j], pts[(j + 1) % n], tol):
                return False
    return True


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

    def param_of(self, p3: np.ndarray) -> float:
        return float((np.asarray(p3, float) - self.p0) @ self.direction)

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
    na, nb = len(pa), len(pb)
    for i in range(na):
        for j in range(nb):
            if segments_cross(pa[i], pa[(i + 1) % na], pb[j], pb[(j + 1) % nb], tol):
                raise CoplanarOverlap(
                    f"fractures {a.id} and {b.id} are coplanar and overlap"
                )
    for q, poly in ((pb, pa), (pa, pb)):
        # A vertex strictly inside the other polygon, off its boundary band.
        off_boundary = point_segment_distance(
            q[:, None], poly, np.roll(poly, -1, 0)).min(1) > tol
        if (point_in_polygon(q, poly, -1.0) & off_boundary).any():
            raise CoplanarOverlap(
                f"fractures {a.id} and {b.id} are coplanar and overlap"
            )
    # Collect collinear overlaps of boundary edges.
    pieces = []
    for i in range(na):
        a0, a1 = pa[i], pa[(i + 1) % na]
        da = a1 - a0
        La = np.linalg.norm(da)
        ua = da / La
        for j in range(nb):
            b0, b1 = pb[j], pb[(j + 1) % nb]
            if (
                point_segment_distance(b0, a0 - 2 * La * ua, a1 + 2 * La * ua) > tol
                or point_segment_distance(b1, a0 - 2 * La * ua, a1 + 2 * La * ua) > tol
            ):
                continue
            t0, t1 = sorted([float((b0 - a0) @ ua), float((b1 - a0) @ ua)])
            lo, hi = max(0.0, t0), min(La, t1)
            if hi - lo > tol:
                pieces.append((a0 + lo * ua, a0 + hi * ua))
    if not pieces:
        return None
    ends = np.array([q for seg in pieces for q in seg])
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
    of ``tol`` takes every gap between consecutive crossings; only each
    line's few crossing parameters are sorted and merged as floats.  An
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
    order = np.lexsort((ts, tg))      # stable: equal values keep edge order
    merged: list = [[] for _ in polygons]
    for gk, tk in zip(tg[order].tolist(), ts[order].tolist()):
        row = merged[gk]
        if not row or tk - row[-1] > tol:
            row.append(tk)

    ig = [gk for gk, row in enumerate(merged) for _ in row[1:]]
    lo = [tk for row in merged for tk in row[:-1]]
    hi = [tk for row in merged for tk in row[1:]]
    inside = []
    if ig:
        mid = q0[ig] + 0.5 * np.add(lo, hi)[:, None] * d2[ig]
        odd = _even_odd(mid, np.array(ig), ea, np.append(first, len(ea)), nxt)
        k, e = _ranges(first[ig], m[ig])
        near = np.logical_or.reduceat(
            point_segment_distance(mid[k], ea[e], eb[e]) <= tol,
            np.cumsum(m[ig]) - m[ig])
        inside = (odd | near).tolist()
    # Fuse the inside gaps that share an end.
    out: list = [[] for _ in polygons]
    for gk, t0, t1, ok in zip(ig, lo, hi, inside):
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


def _boxes_meet(lo: np.ndarray, hi: np.ndarray, i, j, pad: float):
    """Whether boxes ``[lo[i], hi[i]]`` and ``[lo[j], hi[j]]`` overlap
    once each is grown by ``pad``."""
    return ((lo[i] - pad <= hi[j] + pad) & (lo[j] - pad <= hi[i] + pad)).all(axis=1)


def _first_below(values: np.ndarray, bound: float):
    """Index of the first entry of ``values`` below ``bound``, or None."""
    hits = np.flatnonzero(values < bound)
    return int(hits[0]) if len(hits) else None


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
    i, j = np.triu_indices(len(fractures), 1)
    origin, normal = frame[:, 0], frame[:, 1]
    near = _boxes_meet(box[:, 0], box[:, 1], i, j, merge_tol) | (
        (np.linalg.norm(np.cross(normal[i], normal[j]), axis=1)
         < 2 * _PARALLEL_TOL)
        & (np.abs(((origin[j] - origin[i]) * normal[i]).sum(1)) <= 20 * tol))
    ends = np.empty((near.sum(), 2, 3))
    lines: list[IntersectionLine] = []
    for seg in _intersect_pairs(fractures, i[near], j[near], tol):
        if seg is None:
            continue
        kept = ends[:len(lines)]
        k = _first_below(np.minimum(
            _norms(kept[:, 0] - seg.p0) + _norms(kept[:, 1] - seg.p1),
            _norms(kept[:, 0] - seg.p1) + _norms(kept[:, 1] - seg.p0)),
            merge_tol)
        if k is None:
            ends[len(lines)] = seg.p0, seg.p1
            lines.append(seg)
        else:
            lines[k].parents = tuple(sorted(set(lines[k].parents)
                                            | set(seg.parents)))
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

    ends = ends[:len(lines)]
    a, b = np.triu_indices(len(lines), 1)
    near = _boxes_meet(ends.min(1), ends.max(1), a, b, merge_tol)
    a, b = a[near], b[near]
    parallel, found = _crossings(ends[a, 0], ends[a, 1], ends[b, 0], ends[b, 1],
                                 merge_tol)
    locations = np.empty((len(a), 3))
    points: list[IntersectionPoint] = []
    for la, lb, par, loc in zip(a.tolist(), b.tolist(), parallel, found):
        if par:
            _check_collinear(lines[la], lines[lb], merge_tol)
        if np.isnan(loc[0]):
            continue
        k = _first_below(_norms(locations[:len(points)] - loc), merge_tol)
        if k is None:
            locations[len(points)] = loc
            points.append(IntersectionPoint(id=len(points), location=loc,
                                            parent_lines=(la, lb)))
        else:
            points[k].parent_lines = tuple(
                sorted(set(points[k].parent_lines) | {la, lb}))
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


def load_network(path) -> tuple:
    """Read a network from the JSON input format.

    Returns ``(network, raw_dict)``; boundary condition selectors in the
    file are interpreted by the assembly module.  An unknown top-level
    key, a malformed fracture or intersection entry, or an intersection
    entry naming fractures that do not meet, raises ``ConfigError``
    naming its JSON path.
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
