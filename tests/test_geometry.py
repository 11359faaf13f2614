import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfnvem import geometry as geo
from dfnvem.errors import (CollinearOverlap, CollinearVertices, CoplanarOverlap,
                           GeometryError)

from _util import (build_network_ref, fracture_contains, import_network_dict,
                   intersect_fractures_ref, intersect_lines, merge_targets_ref,
                   network_outcome, normal_projector, perfbench_network_dict,
                   point_in_polygon, point_in_polygon_ref,
                   point_segment_distance_ref, segments_cross_ref,
                   tangent_projector)

RNG = np.random.default_rng(20240811)


def unit_square(z=0.0, fid=0):
    verts = np.array([[0, 0, z], [1, 0, z], [1, 1, z], [0, 1, z]], float)
    return geo.Fracture(id=fid, vertices=verts)


def octagon(center_y=0.5, plane="z", fid=0):
    ang = np.arange(8) * np.pi / 4
    if plane == "z":
        verts = np.column_stack(
            [np.cos(ang), center_y + 0.5 * np.sin(ang), np.zeros(8)]
        )
    else:
        verts = np.column_stack(
            [np.zeros(8), center_y + 0.5 * np.sin(ang), np.cos(ang)]
        )
    return geo.Fracture(id=fid, vertices=verts)


class TestBuildFrame:
    def test_axis_aligned_square(self):
        f = geo.build_frame(unit_square().vertices)
        assert np.allclose(np.abs(f.n), [0, 0, 1])

    def test_rotated_square_normal(self):
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        verts = np.array([[0, 0, 0], [1, 0, 0], [1, c, s], [0, c, s]])
        f = geo.build_frame(verts)
        expected = np.array([0.0, -np.sqrt(2) / 2, np.sqrt(2) / 2])
        assert min(
            np.linalg.norm(f.n - expected), np.linalg.norm(f.n + expected)
        ) < 1e-12

    def test_collinear_raises(self):
        pts = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]], float)
        with pytest.raises(CollinearVertices):
            geo.build_frame(pts)

    @pytest.mark.parametrize("trial", range(20))
    def test_frame_orthonormal_random_polygons(self, trial):
        n = RNG.integers(3, 9)
        ang = np.sort(RNG.uniform(0, 2 * np.pi, n))
        r = RNG.uniform(0.5, 2.0, n)
        pts2 = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        # Random plane embedding.
        axis = RNG.normal(size=3)
        axis /= np.linalg.norm(axis)
        b1 = np.cross(axis, [1.0, 0.3, -0.2])
        b1 /= np.linalg.norm(b1)
        b2 = np.cross(axis, b1)
        pts3 = RNG.normal(size=3) + np.outer(pts2[:, 0], b1) + np.outer(pts2[:, 1], b2)
        f = geo.build_frame(pts3)
        assert abs(f.t1 @ f.t2) < 1e-12
        assert abs(f.t1 @ f.n) < 1e-12
        assert abs(np.linalg.norm(f.n) - 1) < 1e-12
        # Right-handed triad.
        assert np.allclose(np.cross(f.t1, f.t2), f.n, atol=1e-12)
        # Projector identities.
        N = normal_projector(f)
        T = tangent_projector(f)
        assert np.allclose(T + N, np.eye(3), atol=1e-12)
        assert np.allclose(T @ T, T, atol=1e-12)


# Non-convex: (2, 1) is a reflex vertex.  Integer corners make every
# vertex and edge midpoint lie exactly on the boundary.
NOTCHED = np.array([[0, 0], [4, 0], [4, 4], [2, 1], [0, 4]], float)


def polygon_probes(poly):
    """Vertices, edge midpoints, a lattice whose rows pass through every
    vertex, and random points around ``poly``."""
    mids = 0.5 * (poly + np.roll(poly, -1, 0))
    xs = np.arange(-1.0, 5.25, 0.25)
    ys = np.union1d(poly[:, 1], np.arange(-1.0, 5.25, 0.5))
    grid = np.stack(np.meshgrid(xs, ys), -1).reshape(-1, 2)
    return np.vstack([poly, mids, grid, RNG.uniform(-1, 5, (200, 2))])


class TestPredicates:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_distance_equals_scalar_reference(self, dim):
        a, b = RNG.normal(size=(2, 8, dim))
        b[0] = a[0]                                   # zero-length segment
        pts = np.vstack([RNG.normal(size=(30, dim)), a, b, 0.5 * (a + b)])
        got = geo.point_segment_distance(pts[:, None], a, b)
        ref = [[point_segment_distance_ref(p, a[j], b[j]) for j in range(8)]
               for p in pts]
        assert got.shape == (len(pts), 8)
        # The kernel sums the dot products in another order than ``@``
        # does, so the two agree to rounding, not bit for bit.
        assert np.allclose(got, ref, rtol=0, atol=1e-14)
        assert np.array_equal(got[:, 0], np.linalg.norm(pts - a[0], axis=1))

    def test_distance_of_single_points_is_a_float(self):
        d = geo.point_segment_distance([3, 4, 0], [0, 0, 0], [0, 0, 0])
        assert type(d) is float and d == 5.0
        assert geo.point_segment_distance([0.5, 2], [0, 0], [1, 0]) == 2.0

    @pytest.mark.parametrize("tol", [-0.1, 0.0, 0.1])
    def test_in_polygon_equals_scalar_reference(self, tol):
        probes = polygon_probes(NOTCHED)
        got = point_in_polygon(probes, NOTCHED, tol)
        ref = [point_in_polygon_ref(p, NOTCHED, tol) for p in probes]
        assert np.array_equal(got, ref)
        assert np.array_equal(
            point_in_polygon(probes[:, None], NOTCHED, tol), got[:, None])
        if tol < 0:
            # The batched even-odd test, the notch alone and then the
            # notch after a square, is the one-polygon test without band.
            square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
            poly = np.vstack([square, NOTCHED])
            ptr = np.array([0, 4, len(poly)])
            nxt = np.append(np.roll(np.arange(4), -1),
                            4 + np.roll(np.arange(len(NOTCHED)), -1))
            fid = np.repeat([0, 1], len(probes))
            both = geo._even_odd(np.vstack([probes, probes]), fid, poly, ptr,
                                 nxt)
            assert np.array_equal(both[len(probes):], got)
            assert np.array_equal(both[:len(probes)],
                                  point_in_polygon(probes, square, tol))

    def test_in_polygon_boundary_band(self):
        mids = 0.5 * (NOTCHED + np.roll(NOTCHED, -1, 0))
        on_boundary = np.vstack([NOTCHED, mids])
        assert point_in_polygon(on_boundary, NOTCHED, 0.0).all()
        # Without the band the even-odd test splits boundary points.
        bare = point_in_polygon(on_boundary, NOTCHED, -1.0)
        assert bare.any() and not bare.all()
        assert point_in_polygon([2, 0.5], NOTCHED, -1.0) is True
        assert point_in_polygon([2, 1.05], NOTCHED, 0.0) is False
        assert point_in_polygon([2, 1.05], NOTCHED, 0.1) is True


def segment_pairs():
    """Rows ``a0, a1, b0, b1`` of 2D segment pairs: random pairs, pairs
    turned from parallel by sines around ``_PARALLEL_TOL``, and pairs
    whose crossing lies at, near or past an end of either segment."""
    rng = np.random.default_rng(7)
    rows = [rng.normal(size=(4, 300, 2))]
    sine = np.array([0.0, 1e-9, 9.9e-9, 1e-8, 1.01e-8, 1e-7, 1e-3, 0.5])
    turn = np.column_stack([np.sqrt(1 - sine ** 2), sine])
    turn = np.vstack([turn, turn * [1, -1]])
    # b turned about the middle of a = (0, 0)-(1, 0).
    a0, a1 = np.zeros((len(turn), 2)), np.tile([1.0, 0.0], (len(turn), 1))
    rows.append(np.stack([a0, a1, [0.5, 0] - 0.5 * turn,
                          [0.5, 0] + 0.5 * turn]))
    # b upright at x from y0 to y1, against the same a.
    x = np.array([0.0, 1e-12, 1e-9, 1e-3 * (1 - 1e-9), 1e-3,
                  1e-3 * (1 + 1e-9), 0.2, 0.5, 1 - 1e-3, 1 - 1e-9, 1.0, 1.1])
    y = np.array([(-1.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (1e-9, 1.0),
                  (-1e-3, 1.0), (-1.0, 1e-3)])
    x, (y0, y1) = np.repeat(x, len(y)), np.tile(y.T, len(x))
    a0, a1 = np.zeros((len(x), 2)), np.tile([1.0, 0.0], (len(x), 1))
    rows.append(np.stack([a0, a1, np.column_stack([x, y0]),
                          np.column_stack([x, y1])]))
    return np.concatenate(rows, axis=1)


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e4])
def test_segments_cross_equals_pair_by_pair(scale):
    a0, a1, b0, b1 = segment_pairs() * scale
    for tol in (1e-12, 1e-9, 1e-3, 0.2, 0.6):
        ref = [segments_cross_ref(*row, tol * scale)
               for row in zip(a0, a1, b0, b1)]
        assert geo.segments_cross(a0, a1, b0, b1, tol * scale).tolist() == ref
    # One tolerance per row, each row's outcome as if alone.
    tol = np.resize([1e-12, 1e-3, 0.2], len(a0)) * scale
    ref = [segments_cross_ref(*row) for row in zip(a0, a1, b0, b1, tol)]
    assert geo.segments_cross(a0, a1, b0, b1, tol).tolist() == ref
    assert 50 < sum(ref) < len(ref) - 50


GRID = [-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]


@st.composite
def box_sets(draw):
    """2D or 3D ``a`` and ``b`` boxes, with or without groups.  Corners and
    sizes come from a coarse grid, so some boxes meet only at a face or a
    corner and some have zero size; the ``b`` boxes may all be points.  One
    row of ``b`` corners runs across the sweep direction, so they share
    one projection up to rounding, and one long ``b`` box may start at the
    grid's lowest corner, first in projection order, so the running
    maximum of the high corners decides where the ``a`` boxes' runs
    start."""
    dim = draw(st.sampled_from([2, 3]))
    point = st.tuples(*[st.sampled_from(GRID)] * dim)
    size = st.sampled_from([0.0, 0.0, 0.12, 0.25, 0.5, 1.5])

    def grown(lo, sizes=size):
        return lo + np.reshape([draw(sizes) for _ in range(lo.size)], lo.shape)

    blo = np.reshape(draw(st.lists(point, max_size=25)), (-1, dim))
    across = np.array([0.48, -0.6, 0.0])[:dim] * 0.25
    steps = draw(st.lists(st.integers(-3, 3), max_size=8))
    row = np.array(draw(point)) + np.multiply.outer(steps, across)
    blo = np.vstack([blo, row])
    bhi = grown(blo) if draw(st.booleans()) else blo
    if draw(st.booleans()):
        long = np.full((1, dim), -1.0)
        blo = np.vstack([long, blo])
        bhi = np.vstack([grown(long, st.sampled_from([0.0, 2.0])), bhi])
    n_box = draw(st.integers(0, 12))
    alo = np.reshape([draw(point) for _ in range(n_box)], (-1, dim))
    # Some boxes start at a point of the row.
    at = [draw(st.integers(0, len(row) - 1)) for _ in range(len(row) and 3)]
    alo = np.vstack([alo, row[at]])
    ahi = grown(alo)
    n_group = draw(st.sampled_from([None, 1, 3]))
    if n_group is None:
        return alo, ahi, blo, bhi, None, None
    group = st.integers(0, n_group - 1)
    return (alo, ahi, blo, bhi, np.array([draw(group) for _ in alo], int),
            np.array([draw(group) for _ in blo], int))


NO_BOXES = np.zeros((0, 3))
SOME_BOXES = (np.array([[0.0, 0, 0], [1, 1, 1]]), np.array([[1.0, 1, 1]] * 2))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(box_sets())
@example((NO_BOXES, NO_BOXES, *SOME_BOXES, None, None))
@example((*SOME_BOXES, NO_BOXES, NO_BOXES, None, None))
def test_box_pairs_equals_brute_force(case):
    alo, ahi, blo, bhi, agroup, bgroup = case
    meet = ((alo[:, None] <= bhi) & (blo <= ahi[:, None])).all(-1)
    if agroup is not None:
        meet &= agroup[:, None] == bgroup
    i, j = geo._box_pairs(alo, ahi, blo, bhi, agroup, bgroup)
    pairs = list(zip(i.tolist(), j.tolist()))
    assert len(pairs) == len(set(pairs)) and (np.diff(i) >= 0).all()
    assert set(pairs) == set(zip(*np.nonzero(meet)))


def intersect_pair(a, b):
    """``geometry._intersect_pairs`` of the one pair ``(a, b)``."""
    return geo._intersect_pairs([a, b], np.array([0]), np.array([1]),
                                max(a.tol, b.tol))[0]


class TestIntersectFractures:
    def test_orthogonal_ellipses(self):
        a = octagon(center_y=0.0, plane="x", fid=0)
        b = octagon(center_y=0.0, plane="z", fid=1)
        ln = intersect_pair(a, b)
        assert ln is not None
        lo, hi = sorted([ln.p0[1], ln.p1[1]])
        assert np.allclose([lo, hi], [-0.5, 0.5], atol=1e-9)
        assert np.allclose(ln.p0[[0, 2]], 0, atol=1e-9)

    def test_parallel_squares_disjoint(self):
        a = unit_square(z=0.0, fid=0)
        b = unit_square(z=0.5, fid=1)
        assert intersect_pair(a, b) is None

    def test_coplanar_overlap_raises(self):
        a = unit_square(fid=0)
        verts = np.array([[0.5, 0.5, 0], [1.5, 0.5, 0], [1.5, 1.5, 0], [0.5, 1.5, 0]])
        b = geo.Fracture(id=1, vertices=verts)
        with pytest.raises(CoplanarOverlap):
            intersect_pair(a, b)
        # A plus sign: no vertex of either lies inside the other, but
        # their edges cross.
        tall = geo.Fracture(id=2, vertices=np.array(
            [[0.4, -1, 0], [0.6, -1, 0], [0.6, 2, 0], [0.4, 2, 0]]))
        with pytest.raises(CoplanarOverlap, match="coplanar and overlap"):
            intersect_pair(a, tall)

    def test_coplanar_shared_edge(self):
        a = unit_square(fid=0)
        verts = np.array([[1, 0, 0], [2, 0, 0], [2, 1, 0], [1, 1, 0]], float)
        b = geo.Fracture(id=1, vertices=verts)
        ln = intersect_pair(a, b)
        assert ln is not None
        assert abs(ln.length - 1.0) < 1e-9
        assert np.allclose(sorted([ln.p0[1], ln.p1[1]]), [0, 1], atol=1e-9)

    def test_coplanar_overlap_between_tol_and_twice_tol(self):
        """Two coplanar squares whose shared boundary piece is 1.5 tol
        long: it is a line, as in the pair-by-pair reference."""
        a = unit_square(fid=0)
        gap = 1.5 * a.tol
        b = geo.Fracture(id=1, vertices=np.array(
            [[1, 1 - gap, 0], [2, 1 - gap, 0], [2, 2 - gap, 0],
             [1, 2 - gap, 0]]))
        ln = intersect_pair(a, b)
        assert ln is not None
        assert max(a.tol, b.tol) < ln.length < 2 * max(a.tol, b.tol)
        ref = intersect_fractures_ref(a, b)
        assert (ln.p0.tobytes(), ln.p1.tobytes()) == (ref.p0.tobytes(),
                                                      ref.p1.tobytes())

    def test_symmetry(self):
        a = octagon(plane="x", fid=0)
        b = octagon(plane="z", fid=1)
        ab = intersect_pair(a, b)
        ba = intersect_pair(b, a)
        ends_ab = sorted(map(tuple, np.round([ab.p0, ab.p1], 9)))
        ends_ba = sorted(map(tuple, np.round([ba.p0, ba.p1], 9)))
        assert ends_ab == ends_ba

    def test_point_contact_returns_none(self):
        a = unit_square(fid=0)
        # Tilted square touching the plane z=0 at exactly one point.
        verts = np.array(
            [[0.5, 0.5, 0], [1.5, 0.5, 1], [1.5, 1.5, 2], [0.5, 1.5, 1]], float
        )
        b = geo.Fracture(id=1, vertices=verts)
        res = intersect_pair(a, b)
        assert res is None

    def test_endpoints_inside_both_parents(self):
        a = octagon(center_y=0.5, plane="x", fid=0)
        b = octagon(center_y=0.5, plane="z", fid=1)
        ln = intersect_pair(a, b)
        for p in (ln.p0, ln.p1):
            assert fracture_contains(a, p, tol=1e-8)
            assert fracture_contains(b, p, tol=1e-8)


    @pytest.mark.parametrize("pair", [
        (("x", 0.0), ("z", 0.0)), (("x", 0.5), ("z", 0.5)),
        (("x", 0.5), ("z", 1.2)), (("z", 0.5), ("x", 0.0))])
    def test_one_pair_call_equals_reference(self, pair):
        (pa, ya), (pb, yb) = pair
        a, b = octagon(ya, pa, fid=0), octagon(yb, pb, fid=1)
        want = intersect_fractures_ref(a, b)
        got = intersect_pair(a, b)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.p0.tobytes() == want.p0.tobytes()
            assert got.p1.tobytes() == want.p1.tobytes()
            assert got.parents == want.parents


class TestIntersectLines:
    def line(self, p0, p1, lid=0):
        return geo.IntersectionLine(id=lid, p0=p0, p1=p1, parents=(0, 1))

    def test_perpendicular_cross(self):
        a = self.line([-1, 0, 0], [1, 0, 0], 0)
        b = self.line([0, -1, 0], [0, 1, 0], 1)
        pt = intersect_lines(a, b, tol=1e-9)
        assert pt is not None
        assert np.allclose(pt.location, 0, atol=1e-12)

    def test_disjoint_skew(self):
        a = self.line([0, 0, 0], [1, 0, 0], 0)
        b = self.line([0, 1, 1], [1, 1, 2], 1)
        assert intersect_lines(a, b, tol=1e-9) is None

    def test_collinear_overlap_raises(self):
        a = self.line([0, 0, 0], [1, 0, 0], 0)
        b = self.line([0.5, 0, 0], [2, 0, 0], 1)
        with pytest.raises(CollinearOverlap):
            intersect_lines(a, b, tol=1e-9)

    def test_three_fracture_arrangement(self):
        # Three mutually intersecting rectangles whose traces meet once.
        f0 = geo.Fracture(id=0, vertices=[[-1, -1, 0], [1, -1, 0],
                                          [1, 1, 0], [-1, 1, 0]])
        f1 = geo.Fracture(id=1, vertices=[[-1, 0, -1], [1, 0, -1],
                                          [1, 0, 1], [-1, 0, 1]])
        f2 = geo.Fracture(id=2, vertices=[[0, -1, -1], [0, 1, -1],
                                          [0, 1, 1], [0, -1, 1]])
        net = geo.build_network([f0, f1, f2])
        assert len(net.lines) == 3
        assert len(net.points) == 1
        assert np.allclose(net.points[0].location, 0, atol=1e-9)
        assert len(net.points[0].parent_lines) == 3


class TestNetwork:
    def test_merged_parents_on_common_line(self):
        # Three planes sharing the z-axis: one line, three parents.
        f0 = geo.Fracture(id=0, vertices=[[0, -1, 0], [0, 1, 0],
                                          [0, 1, 1], [0, -1, 1]])
        f1 = geo.Fracture(id=1, vertices=[[-1, 0, 0], [1, 0, 0],
                                          [1, 0, 1], [-1, 0, 1]])
        f2 = geo.Fracture(id=2, vertices=[[-1, -1, 0], [1, 1, 0],
                                          [1, 1, 1], [-1, -1, 1]])
        net = geo.build_network([f0, f1, f2])
        assert len(net.lines) == 1
        assert net.lines[0].parents == (0, 1, 2)

    def test_intersection_props_applied(self):
        a = octagon(plane="x", fid=0)
        b = octagon(plane="z", fid=1)
        net = geo.build_network(
            [a, b],
            intersection_props={frozenset({0, 1}): {"k_hat": 2.5, "k_tilde": 8.0}},
        )
        assert net.lines[0].k_hat == 2.5
        assert net.lines[0].k_tilde == 8.0
        assert net.lines[0].effective_tangential({0: 1.0, 1: 1.0}) == 2.5
        assert net.lines[0].effective_normal(2.0) == 4.0

    def test_json_roundtrip(self, tmp_path):
        data = {
            "fractures": [
                {"id": 0,
                 "vertices": [[0, -1, 0], [0, 1, 0], [0, 1, 1], [0, -1, 1]],
                 "aperture": 0.01, "k_tangential": [2.0, 0.0, 1.0]},
                {"id": 1,
                 "vertices": [[-1, 0, 0], [1, 0, 0], [1, 0, 1], [-1, 0, 1]]},
            ],
            "intersections": [{"fractures": [0, 1], "k_hat": 3.0, "k_tilde": 7.0}],
        }
        path = tmp_path / "net.json"
        path.write_text(__import__("json").dumps(data))
        net, raw = geo.load_network(path)
        assert len(net.fractures) == 2
        assert net.fractures[0].aperture == 0.01
        assert net.lines[0].k_hat == 3.0
        assert raw["fractures"][0]["id"] == 0


def rectangle(fid, corner, size, normal=2):
    """Axis-aligned rectangle with the given normal axis."""
    u, v = np.eye(3)[(normal + 1) % 3], np.eye(3)[(normal + 2) % 3]
    c = np.asarray(corner, float)
    return geo.Fracture(id=fid, vertices=[c, c + size[0] * u,
                                          c + size[0] * u + size[1] * v,
                                          c + size[1] * v])


class TestPrunedNetworkAgainstReference:
    """``build_network`` intersects only the pairs whose bounding boxes
    meet; it must decide exactly what every pair decides."""

    def test_collinear_overlapping_lines_raise(self):
        # Lines on the x axis from (0, 1.5), (1, 2) and (1, 1.5) overlap.
        f0 = geo.Fracture(id=0, vertices=[[0, -1, 0], [2, -1, 0],
                                          [2, 1, 0], [0, 1, 0]])
        f1 = geo.Fracture(id=1, vertices=[[0, 0, -1], [1.5, 0, -1],
                                          [1.5, 0, 1], [0, 0, 1]])
        f2 = geo.Fracture(id=2, vertices=[[1, -1, -1], [2, -1, -1],
                                          [2, 1, 1], [1, 1, 1]])
        got = network_outcome(geo.build_network, [f0, f1, f2])
        assert got == network_outcome(build_network_ref, [f0, f1, f2])
        assert got[0] is CollinearOverlap

    def test_coplanar_fractures_sharing_an_edge(self):
        fracs = [rectangle(0, [0, 0, 0], [1, 1]), rectangle(1, [1, 0, 0], [1, 1]),
                 rectangle(2, [3, 0, 0], [1, 1])]
        got = network_outcome(geo.build_network, fracs)
        assert got == network_outcome(build_network_ref, fracs)
        assert len(got[0]) == 1 and got[0][0][3] == (0, 1)

    def test_three_fractures_on_one_line_merge(self):
        f0 = geo.Fracture(id=0, vertices=[[0, -1, 0], [0, 1, 0],
                                          [0, 1, 1], [0, -1, 1]])
        f1 = geo.Fracture(id=1, vertices=[[-1, 0, 0], [1, 0, 0],
                                          [1, 0, 1], [-1, 0, 1]])
        f2 = geo.Fracture(id=2, vertices=[[-1, -1, 0], [1, 1, 0],
                                          [1, 1, 1], [-1, -1, 1]])
        got = network_outcome(geo.build_network, [f2, f0, f1])
        assert got == network_outcome(build_network_ref, [f2, f0, f1])
        assert [ln[3] for ln in got[0]] == [(0, 1, 2)]

    def test_point_where_six_lines_meet(self):
        # Planes x = 0, y = 0, z = 0 and x + y + z = 0 meet in six lines
        # through the origin.
        fracs = [rectangle(0, [0, -1, -1], [2, 2], normal=0),
                 rectangle(1, [-1, 0, -1], [2, 2], normal=1),
                 rectangle(2, [-1, -1, 0], [2, 2], normal=2),
                 geo.Fracture(id=3, vertices=[[1, -1, 0], [1, 0, -1],
                                              [-1, 1, 0], [-1, 0, 1]])]
        got = network_outcome(geo.build_network, fracs)
        assert got == network_outcome(build_network_ref, fracs)
        lines, points, _ = got
        assert len(lines) == 6
        assert len(points) == 1 and points[0][2] == tuple(range(6))

    def test_boxes_touching_at_the_pad_are_paired(self):
        lo = np.array([[0.0, 0, 0], [1.5, 0, 0], [1.5 + 2**-20, 0, 0]])
        hi = lo + [1.0, 1, 1]
        i, j = geo._box_pairs(lo - 0.25, hi + 0.25, lo - 0.25, hi + 0.25)
        # Box 1 is 0.5 = 2 * pad from box 0; box 2 is just beyond.
        assert [(a, b) for a, b in zip(i.tolist(), j.tolist()) if a < b] == [
            (0, 1), (1, 2)]

    @pytest.mark.parametrize("gap", [0.5e-6, 1e-6, 2e-6, 2e-6 * (1 + 1e-9),
                                     3e-6])
    def test_fracture_boxes_near_merge_tol(self, gap):
        # merge_tol is 1e3 * tol = 1e-6; the boxes are ``gap`` apart.
        fracs = [rectangle(0, [0, 0, 0], [1, 1]),
                 rectangle(1, [1 + gap, 0, -0.5], [1, 1], normal=0),
                 rectangle(2, [0.5, 0, -0.5], [1, 1], normal=0),
                 rectangle(3, [0, 0.5 + gap, -0.5], [1, 1], normal=1)]
        for f in fracs:
            f.tol = 1e-9
        got = network_outcome(geo.build_network, fracs, tol=1e-9)
        assert got == network_outcome(build_network_ref, fracs, tol=1e-9)

    @pytest.mark.parametrize("gap", [0.0, 0.5e-9, 0.9e-9])
    def test_contact_across_a_gap_below_tol(self, gap):
        # Fracture 1 stands on fracture 0 with its lower edge ``gap`` above
        # it: their boxes are apart, yet they meet within tol = 1e-9.
        fracs = [rectangle(0, [0, 0, 0], [1, 1]),
                 rectangle(1, [0.5, 0.2, gap], [0.6, 1], normal=0)]
        got = network_outcome(geo.build_network, fracs, tol=1e-9)
        assert got == network_outcome(build_network_ref, fracs, tol=1e-9)
        assert len(got[0]) == 1

    def test_point_within_merge_tol_of_two_points(self):
        # The x axis (planes z = 0 and y = z) is crossed at x = 0, 1.5e-6
        # and 0.75e-6, in that order, by the traces of three upright
        # planes at 90, 60 and 120 degrees.  merge_tol is 1e-6, so the
        # third crossing merges into the first point, not the second.
        fracs = [rectangle(0, [-1, -1, 0], [2, 2]),
                 geo.Fracture(id=1, vertices=[[-1, -1, -1], [1, -1, -1],
                                              [1, 1, 1], [-1, 1, 1]])]
        for k, (x, deg) in enumerate([(0.0, 90), (1.5e-6, 60), (0.75e-6, 120)]):
            d = np.array([np.cos(np.radians(deg)), np.sin(np.radians(deg)), 0])
            c, up = np.array([x, 0, 0]), np.array([0, 0, 1.0])
            fracs.append(geo.Fracture(id=2 + k, vertices=[
                c - d - up, c + d - up, c + d + up, c - d + up]))
        got = network_outcome(geo.build_network, fracs, tol=1e-9)
        assert got == network_outcome(build_network_ref, fracs, tol=1e-9)
        on_axis = sorted(x for x, y, z in (np.frombuffer(p[1]) for p in got[1])
                         if abs(x) < 2e-6 and abs(y) + abs(z) < 1e-12)
        assert np.allclose(on_axis, [0.0, 1.5e-6], rtol=0, atol=1e-12)

    def test_near_coplanar_pair_with_boxes_apart(self):
        # Fracture 1 turns by 7e-10 rad out of fracture 0's plane
        # x + z = 0, so its edge over fracture 0's edge x = 1 lies 1e-9
        # off that plane and their boxes are 7e-10 apart, more than
        # 2 * merge_tol = 2e-12 for tol = 1e-15.  Projected onto the plane,
        # the two share that edge.
        n = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        f0 = geo.Fracture(id=0, vertices=[[0, 0, 0], [1, 0, -1], [1, 1, -1],
                                          [0, 1, 0]])
        f1 = geo.Fracture(id=1, vertices=[[2, 0, -2], [2, 1, -2],
                                          np.add([1, 1, -1], 1e-9 * n),
                                          np.add([1, 0, -1], 1e-9 * n)])
        got = network_outcome(geo.build_network, [f0, f1], tol=1e-15)
        assert got == network_outcome(build_network_ref, [f0, f1], tol=1e-15)
        assert len(got[0]) == 1

    @pytest.mark.parametrize("n_lines", [0, 1])
    def test_networks_with_few_lines(self, n_lines):
        fracs = [rectangle(0, [0, 0, 0], [1, 1]),
                 rectangle(1, [0, 0, 1], [1, 1])]
        if n_lines:
            fracs.append(rectangle(2, [0.5, 0, -0.5], [1, 1], normal=0))
        got = network_outcome(geo.build_network, fracs)
        assert got == network_outcome(build_network_ref, fracs)
        assert len(got[0]) == n_lines and got[1] == ()
        single = network_outcome(geo.build_network, fracs[:1])
        assert single == network_outcome(build_network_ref, fracs[:1])

    def test_imported_network_with_fewer_pairs(self, monkeypatch):
        fracs = [geo.Fracture(id=f["id"], vertices=f["vertices"])
                 for f in import_network_dict()["fractures"]]
        batches = []
        real = geo._intersect_pairs
        monkeypatch.setattr(geo, "_intersect_pairs",
                            lambda fr, i, j, tol: batches.append(len(i))
                            or real(fr, i, j, tol))
        got = network_outcome(geo.build_network, fracs)
        monkeypatch.undo()
        assert got == network_outcome(build_network_ref, fracs)
        assert (len(got[0]), len(got[1])) == (45, 50)
        assert len(batches) == 1 and batches[0] < 66 * 3 // 4


THREE_PLANES = [
    [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
    [[0.5, 0, -0.5], [0.5, 1, -0.5], [0.5, 1, 0.5], [0.5, 0, 0.5]],
    [[0, 0.3, -0.5], [1, 0.3, -0.5], [1, 0.3, 0.5], [0, 0.3, 0.5]],
]
BOW_TIE = np.array([[0, 0, 0], [1, 1, 0], [1, 0, 0], [0, 1, 0]], float)
SCALES = [-8, -5, -3, 0, 3, 6]


def scalable_network(name):
    """Vertex arrays of a unit-sized network: the unit square cut by the
    planes x = 0.5 and y = 0.3, or a ``perfbench/network.py`` seed."""
    if name == "three-planes":
        return [np.array(v, float) for v in THREE_PLANES]
    seed = int(name.removeprefix("perfbench-"))
    return [np.array(f["vertices"], float)
            for f in perfbench_network_dict(seed)["fractures"]]


@pytest.mark.parametrize("seed", range(4))
def test_merge_targets_decide_in_order(seed):
    # Random points on a line closer than tol in chains: a point whose
    # first close partner was itself merged is decided in order.
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, 300)
    i, j = np.triu_indices(len(x), 1)
    close = np.abs(x[i] - x[j]) < 0.004
    want = merge_targets_ref(len(x), zip(i[close], j[close]))
    got = geo._merge_targets(len(x), i[close], j[close])
    assert got.tolist() == want
    chained = [q for q, p in enumerate(want)
               if p == q and any(i[close][j[close] == q] < q)]
    assert chained
    # The 1D form keeps the same set from the unsorted values, with one
    # group and with two, pairs closed at tol.
    for group in (np.zeros(len(x), int), rng.integers(0, 2, len(x))):
        close = (group[i] == group[j]) & (np.abs(x[i] - x[j]) <= 0.004)
        want = merge_targets_ref(len(x), zip(i[close], j[close]))
        assert (geo._first_kept(x, group, 0.004).tolist()
                == [p == q for q, p in enumerate(want)])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.sampled_from(GRID)] * 3), max_size=30),
       st.sampled_from([0.0, 0.1, 0.25, 0.6, 2.0]))
def test_box_pairs_hold_every_close_pair(points, reach):
    """Every pair within ``reach`` (points on a coarse grid, so many
    coincide or sit exactly ``reach`` apart), once each as ``i < j``,
    from the points against their boxes of half-side ``reach``, as the
    merges search them."""
    pts = np.reshape(points, (-1, 3))
    i, j = geo._box_pairs(pts - reach, pts + reach, pts, pts)
    i, j = i[i < j], j[i < j]
    pairs = list(zip(i.tolist(), j.tolist()))
    assert len(pairs) == len(set(pairs))
    a, b = np.triu_indices(len(pts), 1)
    near = np.linalg.norm(pts[a] - pts[b], axis=1) <= reach
    assert set(zip(a[near].tolist(), b[near].tolist())) <= set(pairs)


def test_segments_half_merge_tol_apart_merge():
    """Four fractures through the line x = y = 0.5: the pairs among 0 and
    1 end at z = 0 and 1, the pair (2, 3) at z = delta and 1 + delta,
    and the others at z = delta and 1.  (2, 3)'s only kept close
    partner is (0, 1), whose midpoint is 0.49 merge_tol away along z,
    more than 0.3 merge_tol on every measure a search could take; their
    ends are 0.98 merge_tol apart in sum, so the four make one line."""
    merge_tol = 1e3 * 1e-9 * np.sqrt(3.0)
    delta = 0.49 * merge_tol
    low, high = [0.0, 0.0, 1.0, 1.0], [delta, delta, 1 + delta, 1 + delta]
    planes = [([0.5, 0.5, 0.5, 0.5], [0, 1, 1, 0], low),
              ([0, 1, 1, 0], [0.5, 0.5, 0.5, 0.5], low),
              ([0, 1, 1, 0], [1, 0, 0, 1], high),
              ([0, 1, 1, 0], [0, 1, 1, 0], high)]
    fractures = [geo.Fracture(id=k, vertices=np.column_stack(xyz))
                 for k, xyz in enumerate(planes)]
    net = geo.build_network(fractures)
    assert 1e3 * net.tol == pytest.approx(merge_tol, rel=1e-6)
    assert [ln.parents for ln in net.lines] == [(0, 1, 2, 3)]
    assert (network_outcome(geo.build_network, fractures)
            == network_outcome(build_network_ref, fractures))


class TestScaleInvariance:
    """Parallel and crossing tests are relative: a network scaled by
    10^k has the unit network's lines and points, with line ends scaled
    to relative 1e-9."""

    @pytest.mark.parametrize("k", SCALES)
    @pytest.mark.parametrize("name", ["three-planes", "perfbench-0",
                                      "perfbench-1"])
    def test_network_scales(self, name, k):
        def build(scale):
            return geo.build_network([geo.Fracture(id=i, vertices=v * scale)
                                      for i, v in enumerate(
                                          scalable_network(name))])
        unit, net = build(1.0), build(10.0 ** k)
        assert len(unit.lines) >= 3 and len(unit.points) >= 1
        assert len(net.lines) == len(unit.lines)
        assert len(net.points) == len(unit.points)
        assert [ln.parents for ln in net.lines] == [ln.parents for ln in unit.lines]
        assert ([pt.parent_lines for pt in net.points]
                == [pt.parent_lines for pt in unit.points])
        ends = np.array([[ln.p0, ln.p1] for ln in net.lines])
        want = np.array([[ln.p0, ln.p1] for ln in unit.lines])
        assert np.allclose(ends / 10.0 ** k, want, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("k", SCALES)
    def test_bow_tie_raises(self, k):
        with pytest.raises(GeometryError, match="not simple"):
            geo.Fracture(id=0, vertices=BOW_TIE * 10.0 ** k)


class TestFractureEdges:
    @pytest.mark.parametrize("verts, names", [
        ([[0, 0, 0], [1, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
         "edge from vertex 1 to vertex 2"),
        ([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 0]],
         "edge from vertex 4 to vertex 0"),
        ([[0, 0, 0], [1, 0, 0], [1, 1e-10, 0], [1, 1, 0], [0, 1, 0]],
         "edge from vertex 1 to vertex 2"),
    ])
    def test_edge_shorter_than_tol_is_rejected(self, verts, names):
        with pytest.raises(GeometryError, match=f"fracture 7: the {names} "):
            geo.Fracture(id=7, vertices=verts)

    def test_edge_of_tol_is_kept(self):
        # tol is 1e-9 times the diagonal, here 1e-9 * sqrt(2).
        short = 1e-9 * np.sqrt(2) * 1.01
        geo.Fracture(id=0, vertices=[[0, 0, 0], [1, 0, 0], [1, short, 0],
                                     [1, 1, 0], [0, 1, 0]])
