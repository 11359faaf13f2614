import functools
import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from dfnvem import assembly as asm
from dfnvem import cases
from dfnvem import coarsening as coa
from dfnvem import geometry as geo
from dfnvem import meshing as msh
from dfnvem import vem
from dfnvem.errors import ConstraintConflict, InconsistentEndpoints, MeshError

from _util import (ORACLE_MESHES, ORACLE_NETWORKS, cell_of, copy_mesh,
                   corefine_ref, corefine_network_ref, crossing_rectangles,
                   grid_dict, load_network_dict, oracle_meshes, oracle_network,
                   outward_normals_of_cell, perfbench_network_dict,
                   point_pool_ref, side_edges_of, split_edges_ref,
                   trace_edges_ref, traced_triangulations)

UNIT_SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)


def euler_characteristic(mesh):
    return mesh.n_nodes - mesh.n_edges + mesh.n_cells


def total_area(mesh):
    return mesh.cell_areas.sum()


class TestCartesian:
    def test_counts_2x2(self):
        mesh = msh.cartesian_mesh(2)
        stats = msh.mesh_stats(mesh)
        assert stats["n_cells"] == 4
        assert stats["n_edges"] == 12
        assert abs(stats["h_avg"] - np.sqrt(2) / 2) < 1e-14
        assert abs(stats["h_max"] - np.sqrt(2) / 2) < 1e-14

    def test_geometry(self):
        mesh = msh.cartesian_mesh(5)
        assert abs(total_area(mesh) - 1.0) < 1e-12
        assert euler_characteristic(mesh) == 1
        assert len(mesh.boundary_edges) == 20
        # Outward normals sum to zero around every cell.
        for k in range(mesh.n_cells):
            nrm = outward_normals_of_cell(mesh, k)
            ln = mesh.edge_len[cell_of(mesh, k)[0]]
            assert np.allclose((nrm * ln[:, None]).sum(0), 0, atol=1e-13)


class TestRandom:
    def test_valid_and_deterministic(self):
        m1 = msh.random_mesh(8, seed=3)
        m2 = msh.random_mesh(8, seed=3)
        assert np.array_equal(m1.nodes, m2.nodes)
        assert abs(total_area(m1) - 1.0) < 1e-12
        assert (m1.cell_areas > 0).all()
        # Boundary untouched.
        b = msh.cartesian_mesh(8)
        onb = (b.nodes[:, 0] < 1e-12) | (b.nodes[:, 0] > 1 - 1e-12) | \
              (b.nodes[:, 1] < 1e-12) | (b.nodes[:, 1] > 1 - 1e-12)
        assert np.allclose(m1.nodes[onb], b.nodes[onb])

    def test_moves_interior(self):
        m = msh.random_mesh(6, seed=1)
        b = msh.cartesian_mesh(6)
        assert not np.allclose(m.nodes, b.nodes)


class TestTriangulate:
    def test_unit_square_no_traces(self):
        mesh = msh.triangulate(UNIT_SQUARE, h_target=0.5)
        assert mesh.n_cells >= 2
        assert mesh.cell_diameters.max() <= 1.0 + 1e-12
        assert abs(total_area(mesh) - 1.0) < 1e-10
        assert euler_characteristic(mesh) == 1
        # Every square edge is covered by boundary edges.
        bmid = mesh.edge_mid[mesh.boundary_edges]
        dist = geo.point_segment_distance(
            bmid[:, None], UNIT_SQUARE, np.roll(UNIT_SQUARE, -1, 0)).min(1)
        assert dist.max() < 1e-12
        blen = mesh.edge_len[mesh.boundary_edges].sum()
        assert abs(blen - 4.0) < 1e-10

    def test_octagon_with_diameter_trace(self):
        ang = np.arange(8) * np.pi / 4
        poly = np.column_stack([np.cos(ang), 0.5 + 0.5 * np.sin(ang)])
        mesh = msh.triangulate(poly, traces=[(0, [0, 0], [0, 1])], h_target=0.2)
        eids = np.where(mesh.edge_trace == 0)[0]
        assert len(eids) >= 5
        pts = mesh.nodes[np.unique(mesh.edge_nodes[eids])]
        assert np.abs(pts[:, 0]).max() < 1e-12
        assert abs(total_area(mesh) - abs(geo.polygon_area(poly))) < 1e-10

    def test_partial_trace_endpoints_are_nodes(self):
        mesh = msh.triangulate(
            UNIT_SQUARE, traces=[(0, [0.25, 0.5], [0.75, 0.5])], h_target=0.25
        )
        eids = np.where(mesh.edge_trace == 0)[0]
        assert len(eids) >= 2
        pts = mesh.nodes[np.unique(mesh.edge_nodes[eids])]
        assert np.abs(pts[:, 1] - 0.5).max() < 1e-12
        for endpoint in ([0.25, 0.5], [0.75, 0.5]):
            assert np.linalg.norm(mesh.nodes - endpoint, axis=1).min() < 1e-12
        # Trace edges are interior: two adjacent cells each.
        assert (mesh.edge_cells[eids] >= 0).all()

    def test_crossing_traces_split_at_xi(self):
        mesh = msh.triangulate(
            UNIT_SQUARE,
            traces=[(0, [0.1, 0.5], [0.9, 0.5]), (1, [0.5, 0.1], [0.5, 0.9])],
            h_target=0.2,
        )
        assert np.linalg.norm(mesh.nodes - [0.5, 0.5], axis=1).min() < 1e-12
        assert (mesh.edge_trace == 0).sum() >= 4
        assert (mesh.edge_trace == 1).sum() >= 4

    def test_crossing_split_is_scale_free(self):
        # At this scale the traces' direction cross product is about 4e-17:
        # an absolute parallel bound skipped the crossing split, and the
        # crossing constraints made recovery fail to converge.
        s = 1e-8
        traces = [(0, [0.2 * s, 0.5 * s], [0.8 * s, 0.5 * s]),
                  (1, [0.43 * s, 0.17 * s], [0.43 * s, 0.83 * s])]
        mesh = msh.triangulate(UNIT_SQUARE * s, traces, h_target=0.1 * s)
        xi = np.array([0.43, 0.5]) * s
        assert np.linalg.norm(mesh.nodes - xi, axis=1).min() < 1e-12 * s
        ref = trace_edges_ref(mesh, UNIT_SQUARE * s, traces)
        assert np.array_equal(mesh.edge_trace, ref)
        assert set(ref) == {-1, 0, 1}
        assert abs(total_area(mesh) - s * s) < 1e-10 * s * s

    def test_trace_tags_match_geometry(self):
        for name, (mesh, polygon, traces) in traced_triangulations().items():
            ref = trace_edges_ref(mesh, polygon, traces)
            assert np.array_equal(mesh.edge_trace, ref), name
            assert set(ref) == {-1} | {gid for gid, _, _ in traces}, name

    def test_conflicting_traces_raise(self):
        with pytest.raises(ConstraintConflict):
            msh.triangulate(
                UNIT_SQUARE,
                traces=[(0, [0.2, 0.5], [0.8, 0.5]),
                        (1, [0.2, 0.5 + 1e-7], [0.8, 0.5 + 1e-7])],
                h_target=0.25,
            )

    def test_conflict_names_the_first_pair(self):
        # tol is 1.4e-9 here, so pairs 1e-7 and 5e-8 apart conflict and
        # traces 1 and 0, 1.5e-7 apart, do not.  The first pair in piece
        # order is reported, not the closest one or the lowest ids.
        traces = [(2, [0.2, 0.5], [0.8, 0.5]),
                  (1, [0.2, 0.5 + 1e-7], [0.8, 0.5 + 1e-7]),
                  (0, [0.2, 0.5 - 5e-8], [0.8, 0.5 - 5e-8])]
        with pytest.raises(ConstraintConflict,
                           match=r"^traces 2 and 1 are 1\.000e-07 apart"):
            msh.triangulate(UNIT_SQUARE, traces=traces, h_target=0.25)
        with pytest.raises(ConstraintConflict,
                           match=r"^traces 2 and 0 are 5\.000e-08 apart"):
            msh.triangulate(UNIT_SQUARE, traces=[traces[0], traces[2]],
                            h_target=0.25)

    def test_point_pool_matches_scan(self):
        # Reference: scan the pool in order and take the first point
        # within tolerance.
        rng = np.random.default_rng(0)
        base = rng.uniform(size=(400, 2))
        pts = base[rng.integers(0, 400, 1000)]
        pts = pts + rng.uniform(-1e-13, 1e-13, pts.shape)
        pool, ref = msh._PointPool(1e-12), []
        for p in pts:
            hits = [i for i, q in enumerate(ref) if np.linalg.norm(q - p) <= 1e-12]
            if not hits:
                ref.append(p)
            assert pool.ids(p).tolist() == [hits[0] if hits else len(ref) - 1]
        assert np.array_equal(pool.pts, ref)

    @pytest.mark.parametrize("tol", [1e-12, 0.1, 1.0])
    def test_point_pool_matches_reference(self, tol):
        # Points within tol of two earlier points, on and across the
        # grid's cell borders (cells are 2 * tol wide), and far apart.
        side = 2 * tol
        probes = [[0, 0], [1.5 * tol, 0], [0.75 * tol, 0], [tol, 0],
                  [side, side], [side - tol, side], [side + 0.5 * tol, side],
                  [-side, 3 * side], [-side - tol, 3 * side + tol * 1e-3],
                  [5 * side, 5 * side], [5 * side + tol, 5 * side]]
        rng = np.random.default_rng(3)
        walk = np.cumsum(rng.uniform(-1.1 * tol, 1.1 * tol, (300, 2)), axis=0)
        pts = np.vstack([np.array(probes, float), walk,
                         rng.uniform(-4 * side, 4 * side, (300, 2))])
        pool, ref = msh._PointPool(tol), point_pool_ref(tol)
        pool.extend(pts[:5])
        for p in pts[:5]:
            ref.append(p)
        got = [int(pool.ids(p)[0]) for p in pts[5:300]] + pool.ids(
            pts[300:]).tolist()
        assert got == [ref.add(p) for p in pts[5:]]
        assert np.array_equal(pool.pts, ref.pts)
        # Both outcomes occur: merged into an earlier point, and new.
        assert 100 < len(set(got)) < len(got)

    def test_deterministic(self):
        m1 = msh.triangulate(UNIT_SQUARE, h_target=0.3)
        m2 = msh.triangulate(UNIT_SQUARE, h_target=0.3)
        assert np.array_equal(m1.nodes, m2.nodes)
        assert np.array_equal(m1.edge_nodes, m2.edge_nodes)


def two_fracture_network():
    ang = np.arange(8) * np.pi / 4
    f0 = geo.Fracture(id=0, vertices=np.column_stack(
        [np.zeros(8), 0.5 + 0.5 * np.sin(ang), np.cos(ang)]))
    f1 = geo.Fracture(id=1, vertices=np.column_stack(
        [np.cos(ang), 0.5 + 0.5 * np.sin(ang), np.zeros(8)]))
    return geo.build_network([f0, f1])


class TestCorefine:
    def test_union_rule(self):
        got = msh.corefine([np.array([0, 0.5, 1.0]), np.array([0, 0.3, 1.0])],
                           1.0, 1e-9)
        assert np.allclose(got, [0, 0.3, 0.5, 1.0])

    def test_idempotent(self):
        a = np.array([0, 0.25, 0.5, 1.0])
        assert np.allclose(msh.corefine([a, a.copy()], 1.0, 1e-9), a)

    def test_tolerance_merge(self):
        got = msh.corefine(
            [np.array([0, 0.5, 1.0]), np.array([0, 0.5 + 1e-12, 1.0])],
            1.0, 1e-9,
        )
        assert np.allclose(got, [0, 0.5, 1.0])
        assert len(got) == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_chains_merge_value_by_value(self, seed):
        # Runs of breakpoints each within tol of the next but longer than
        # tol keep every value more than tol past the last one kept.
        rng = np.random.default_rng(seed)
        tol = 1e-3
        drafts = [np.sort(np.concatenate([
            [0.0, 1.0], rng.uniform(0.0, 1.0, 20),
            rng.uniform(0.2, 0.21, 30), rng.uniform(0.7, 0.7 + 3 * tol, 10)]))
            for _ in range(3)]
        got = msh.corefine(drafts, 1.0, tol)
        want = corefine_ref(drafts, 1.0, tol)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert len(want) > 25

    def test_inconsistent_endpoints(self):
        with pytest.raises(InconsistentEndpoints):
            msh.corefine([np.array([0, 0.9]), np.array([0, 1.0])], 1.0, 1e-9)

    def test_network_corefine_matches_partitions(self):
        net = two_fracture_network()
        meshes = {
            0: msh.triangulate_fracture(net.fractures[0], net.traces_of(0), 0.33),
            1: msh.triangulate_fracture(net.fractures[1], net.traces_of(1), 0.21),
        }
        tms, meshes = msh.corefine_network(meshes, net)
        tm = tms[0]
        line = net.lines[0]
        # Both parents now carry identical trace partitions.
        lens = {}
        for fid in (0, 1):
            eids = np.where(meshes[fid].edge_trace == line.id)[0]
            lens[fid] = np.sort(meshes[fid].edge_len[eids])
            assert len(eids) == tm.n_elems
        assert np.allclose(lens[0], lens[1], atol=1e-12)
        assert np.allclose(np.sort(tm.elem_len), lens[0], atol=1e-12)
        # Union contains every original breakpoint of each parent.
        assert abs(tm.breakpoints[0]) < 1e-12
        assert abs(tm.breakpoints[-1] - line.length) < 1e-12
        # Meshes remain geometrically consistent after edge splits.
        for fid in (0, 1):
            area = abs(geo.polygon_area(net.fractures[fid].local_polygon))
            assert abs(meshes[fid].cell_areas.sum() - area) < 1e-10 * area


def assert_corefine_matches_ref(net, meshes):
    """``corefine_network`` on ``meshes`` gives the meshes and trace meshes
    of ``corefine_network_ref`` on copies of them, bit for bit."""
    got_tm, got = msh.corefine_network(meshes, net)
    ref_tm, ref = corefine_network_ref(meshes, net)
    for fid, mesh in got.items():
        for name in ("nodes", "edge_nodes", "cell_ptr", "cell_edge", "cell_sign",
                     "edge_trace", "edge_trace_elem", "edge_trace_side"):
            a, b = getattr(mesh, name), getattr(ref[fid], name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (fid, name)
    assert got_tm.keys() == ref_tm.keys()
    for gid, tm in got_tm.items():
        assert np.array_equal(tm.breakpoints, ref_tm[gid].breakpoints)
        assert tm.xi_breaks == ref_tm[gid].xi_breaks
        assert list(tm.edges) == list(ref_tm[gid].edges)
        for fid, eids in tm.edges.items():
            assert np.array_equal(eids, ref_tm[gid].edges[fid])
    return got_tm


@pytest.mark.parametrize("name", ORACLE_NETWORKS)
def test_network_corefine_equals_line_by_line(tmp_path, name):
    # One pass over every line numbers nodes and edges as the per-line
    # splits did, and the array parameters round as param_of and the
    # per-line matrix-vector products.  Turned, no line runs along an
    # axis, so a product that rounds differently would show.
    net = oracle_network(tmp_path, name)
    got = assert_corefine_matches_ref(net, msh.triangulate_network(net, 0.14))
    assert any(tm.xi_breaks for tm in got.values())


class _Counted:
    """A numpy callable that counts its calls, and its callable
    attributes (``np.minimum.reduceat``) too."""

    def __init__(self, fn, spy):
        self.fn, self.spy = fn, spy

    def __call__(self, *args, **kwargs):
        self.spy.calls += 1
        return self.fn(*args, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self.fn, name)
        return _Counted(attr, self.spy) if callable(attr) else attr


class NumpySpy:
    """Stands in for a module's ``np`` and counts the calls made through
    it; types (``np.int8``) pass through uncounted."""

    calls = 0

    def __getattr__(self, name):
        obj = getattr(np, name)
        if callable(obj) and not isinstance(obj, type):
            return _Counted(obj, self)
        return obj


def test_corefine_numpy_calls_grow_with_fractures(tmp_path, monkeypatch):
    # From k = 4 to k = 8 the grid network goes from 12 to 24 fractures
    # and from 48 to 192 lines: a few calls per fracture, none per line.
    # Each fracture's refined mesh is built once, which takes the
    # constructor's nine calls; a second build would exceed the bound.
    count = {}
    for k in (4, 8):
        net = load_network_dict(tmp_path, grid_dict(k, 0))
        meshes = msh.triangulate_network(net, 0.25)
        spy = NumpySpy()
        monkeypatch.setattr(msh, "np", spy)
        msh.corefine_network(meshes, net)
        monkeypatch.undo()
        count[k] = spy.calls, len(net.fractures), len(net.lines)
    (n4, f4, l4), (n8, f8, l8) = count[4], count[8]
    assert (f4, l4, f8, l8) == (12, 48, 24, 192)
    assert n8 - n4 <= 13 * (f8 - f4)


class TestSplitInterface:
    def build(self):
        net = two_fracture_network()
        meshes = {
            0: msh.triangulate_fracture(net.fractures[0], net.traces_of(0), 0.3),
            1: msh.triangulate_fracture(net.fractures[1], net.traces_of(1), 0.3),
        }
        tms, meshes = msh.corefine_network(meshes, net)
        return net, meshes, tms

    def test_duplication_counts(self):
        net, meshes, tms = self.build()
        tm = tms[0]
        for fid in (0, 1):
            before = meshes[fid].n_edges
            split = msh.split_interface_dofs(meshes[fid], tms, fid)
            assert split.n_edges == before + tm.n_elems
            sides = side_edges_of(SimpleNamespace(meshes={fid: split},
                                                  traces=tms), 0)
            for side in (1, -1):
                eids = sides[(fid, side)]
                assert len(eids) == tm.n_elems
                # Each duplicated edge has exactly one adjacent cell.
                assert (split.edge_cells[eids, 0] >= 0).all()
                assert (split.edge_cells[eids, 1] < 0).all()
                assert (split.edge_trace_side[eids] == side).all()

    def test_agglomerated_mesh_keeps_its_geometry(self):
        net = two_fracture_network()
        fine = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), 0.2)
                for f in net.fractures}
        meshes = {fid: coarse for fid, (coarse, _)
                  in coa.agglomerate_network(net, fine, 2).items()}
        tms, meshes = msh.corefine_network(meshes, net)
        for fid, mesh in meshes.items():
            split = msh.split_interface_dofs(mesh, tms, fid)
            assert split.n_edges > mesh.n_edges
            assert np.array_equal(split.cell_areas, mesh.cell_areas)
            assert np.array_equal(split.cell_centroids, mesh.cell_centroids)
            assert np.array_equal(split.chained, mesh.chained)

    def test_no_traces_identity(self):
        mesh = msh.cartesian_mesh(3)
        mesh.frame = geo.build_frame(
            np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float))
        out = msh.split_interface_dofs(mesh, {}, 0)
        assert out.n_edges == mesh.n_edges
        assert out.n_cells == mesh.n_cells

    def test_points_within_tol_of_each_other(self):
        # Two crossings of one line closer than the co-refinement tol:
        # only the first is forced in, and both name its breakpoint.
        f = geo.Fracture(id=0, vertices=np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float))
        line = geo.IntersectionLine(
            id=0, p0=[0.0, 0.5, 0.0], p1=[1.0, 0.5, 0.0], parents=(0, 1))
        tol = 1e-9

        class FakeNet:
            lines = [line]
            points = [geo.IntersectionPoint(id=k, location=[x, 0.5, 0.0],
                                            parent_lines=(0,))
                      for k, x in enumerate([0.37, 0.37 + 50 * tol,
                                             0.37 + 150 * tol, 0.61])]

        FakeNet.tol = tol
        mesh = msh.triangulate(f.local_polygon, [(0, [0.0, 0.5], [1.0, 0.5])],
                               0.3, frame=f.frame)
        got, got_meshes = msh.corefine_network({0: mesh}, FakeNet())
        want, ref = corefine_network_ref({0: mesh}, FakeNet())
        got, want = got[0], want[0]
        assert np.array_equal(got.breakpoints, want.breakpoints)
        assert got.xi_breaks == want.xi_breaks
        assert np.array_equal(got_meshes[0].edge_trace_elem,
                              ref[0].edge_trace_elem)
        assert [k for k, _ in got.xi_breaks][:2] == [got.xi_breaks[0][0]] * 2
        assert len(set(k for k, _ in got.xi_breaks)) == 3

    def test_immersed_tip_not_duplicated(self):
        # Partial trace: tip node stays shared, non-trace edges untouched.
        f = geo.Fracture(id=0, vertices=np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float))
        line = geo.IntersectionLine(
            id=0, p0=[0.0, 0.5, 0.0], p1=[0.6, 0.5, 0.0], parents=(0, 1))
        mesh = msh.triangulate(
            f.local_polygon, [(0, [0.0, 0.5], [0.6, 0.5])], 0.3, frame=f.frame)
        n_nodes = mesh.n_nodes

        class FakeNet:
            lines = [line]
            points = []
            tol = 1e-9

        tms, refined = msh.corefine_network({0: mesh}, FakeNet())
        mesh = refined[0]
        split = msh.split_interface_dofs(mesh, tms, 0)
        assert split.n_nodes == n_nodes
        n_tr = tms[0].n_elems
        assert split.n_edges == mesh.n_edges + n_tr


def split_one_edge_at_a_time(mesh, trace_meshes, fid):
    """Reference splitter: one edge per step, geometry rebuilt each time.

    Returns the split mesh and ``{(gid, fid, side): edge ids}``.
    """
    mesh = copy_mesh(mesh)
    side_edges = {}
    for tm in trace_meshes.values():
        if fid not in tm.edges:
            continue
        side_vec = np.cross(mesh.frame.n, tm.line.direction)
        plus = np.full(tm.n_elems, -1, int)
        minus = np.full(tm.n_elems, -1, int)
        for elem, e in enumerate(tm.edges[fid]):
            cells = [int(c) for c in mesh.edge_cells[e] if c >= 0]
            mid3 = mesh.frame.to_global(mesh.edge_mid[e])
            sides = [1 if (mesh.frame.to_global(mesh.cell_centroids[c]) - mid3)
                     @ side_vec > 0 else -1 for c in cells]
            mesh.edge_trace_side[e] = sides[0]
            pair = [e]
            if len(cells) == 2:
                assert sides[0] != sides[1]
                dup = mesh.n_edges
                mesh.edge_nodes = np.vstack([mesh.edge_nodes, mesh.edge_nodes[e]])
                mesh.edge_trace = np.append(mesh.edge_trace, mesh.edge_trace[e])
                mesh.edge_trace_elem = np.append(mesh.edge_trace_elem,
                                                 mesh.edge_trace_elem[e])
                mesh.edge_trace_side = np.append(mesh.edge_trace_side,
                                                 np.int8(sides[1]))
                es, _ = cell_of(mesh, cells[1])
                es[np.where(es == e)[0][0]] = dup
                mesh = copy_mesh(mesh)
                pair.append(dup)
            for s, edge in zip(sides, pair):
                (plus if s > 0 else minus)[elem] = edge
        for side, arr in ((1, plus), (-1, minus)):
            if (arr >= 0).any():
                side_edges[(tm.gamma, fid, side)] = arr
    return mesh, side_edges


def import_network(tmp_path):
    from _util import import_network_dict
    path = tmp_path / "net.json"
    path.write_text(json.dumps(import_network_dict()))
    return geo.load_network(path)[0]


class TestSplitMatchesReference:
    def check(self, net, h):
        meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), h)
                  for f in net.fractures}
        tms, meshes = msh.corefine_network(meshes, net)
        n_split = 0
        for fid, mesh in meshes.items():
            ref, ref_sides = split_one_edge_at_a_time(mesh, tms, fid)
            got = msh.split_interface_dofs(mesh, tms, fid)
            split = SimpleNamespace(meshes={fid: got}, traces=tms)
            got_sides = {(gid, f, side): arr for gid in tms
                         for (f, side), arr in side_edges_of(split, gid).items()}
            assert np.array_equal(got.edge_nodes, ref.edge_nodes)
            assert np.array_equal(got.edge_trace, ref.edge_trace)
            assert np.array_equal(got.edge_trace_elem, ref.edge_trace_elem)
            assert np.array_equal(got.edge_trace_side, ref.edge_trace_side)
            assert got.edge_trace_side.dtype == ref.edge_trace_side.dtype
            for name in ("cell_ptr", "cell_edge", "cell_sign"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))
            assert got_sides.keys() == ref_sides.keys()
            for key, arr in ref_sides.items():
                assert np.array_equal(got_sides[key], arr)
            assert np.array_equal(got.cell_centroids, ref.cell_centroids)
            assert np.array_equal(got.cell_areas, ref.cell_areas)
            n_split += got.n_edges - mesh.n_edges
        assert n_split > 0

    def test_two_fractures(self):
        self.check(two_fracture_network(), 0.3)

    def test_import_network(self, tmp_path):
        self.check(import_network(tmp_path), 0.3)

    def test_geometry_built_once(self, tmp_path, monkeypatch):
        net = import_network(tmp_path)
        meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), 0.3)
                  for f in net.fractures}
        tms, meshes = msh.corefine_network(meshes, net)
        calls = []
        loop_sums = msh.PolyMesh._loop_sums.func

        def counted(self):
            calls.append(self)
            return loop_sums(self)

        spy = functools.cached_property(counted)
        spy.__set_name__(msh.PolyMesh, "_loop_sums")
        monkeypatch.setattr(msh.PolyMesh, "_loop_sums", spy)
        for fid, mesh in meshes.items():
            calls.clear()
            msh.split_interface_dofs(mesh, tms, fid)
            assert len(calls) == 1


def points_on(mesh, e, ts):
    """Points at parameters ``ts`` from node a to node b of edge ``e``."""
    a, b = mesh.nodes[mesh.edge_nodes[e]]
    return a + np.outer(ts, b - a)


class TestSplitEdgesMatchesReference:
    FIELDS = ("cell_ptr", "cell_edge", "cell_sign", "edge_nodes", "nodes",
              "edge_trace", "edge_trace_elem", "edge_trace_side")

    def check(self, mesh, splits):
        ref = split_edges_ref(mesh, splits)
        got = mesh.split_edges([e for e, _ in splits],
                               [len(np.atleast_2d(p)) for _, p in splits],
                               np.vstack([np.atleast_2d(p) for _, p in splits]))
        for name in self.FIELDS:
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
            assert getattr(got, name).dtype == getattr(ref, name).dtype, name
        assert np.allclose(got.cell_areas, mesh.cell_areas, rtol=0, atol=1e-15)
        return got

    def test_one_cell_two_edges_of_both_signs(self):
        mesh = msh.cartesian_mesh(2)
        es, ss = cell_of(mesh, 0)
        one_cell = mesh.edge_cells[es, 1] < 0
        # A boundary trace edge walked forward, an interior one backward.
        fwd = int(es[(ss > 0) & one_cell][0])
        back = int(es[(ss < 0) & ~one_cell][0])
        mesh.edge_trace[[fwd, back]] = [3, 5]
        mesh.edge_trace_side[fwd] = -1
        got = self.check(mesh, [(fwd, points_on(mesh, fwd, [0.2, 0.7])),
                                (back, points_on(mesh, back, [0.4]))])
        assert got.n_edges == mesh.n_edges + 3
        assert np.diff(got.cell_ptr).tolist()[:2] == [7, 5]

    def test_boundary_edges_of_both_signs(self):
        mesh = msh.cartesian_mesh(3)
        edges = mesh.boundary_edges
        mesh.edge_trace[edges] = 0
        splits = [(int(e), points_on(mesh, e, np.linspace(0, 1, n + 2)[1:-1]))
                  for e, n in zip(edges[::-1], [1, 2, 3] * len(edges))]
        signs = {int(mesh.cell_sign[mesh.edge_entry[e, 0]]) for e, _ in splits}
        assert signs == {1, -1}
        self.check(mesh, splits)

    def test_triangulation_trace_edges_in_shuffled_order(self):
        mesh = msh.triangulate(
            UNIT_SQUARE,
            traces=[(0, [0.1, 0.5], [0.9, 0.5]), (1, [0.5, 0.1], [0.5, 0.9])],
            h_target=0.2)
        rng = np.random.default_rng(3)
        edges = rng.permutation(np.flatnonzero(mesh.edge_trace >= 0))
        splits = [(int(e), points_on(mesh, e, np.sort(rng.uniform(0.1, 0.9, n))))
                  for e, n in zip(edges, rng.integers(1, 4, len(edges)))]
        self.check(mesh, splits)


class TestMeshIO:
    def test_roundtrip(self, tmp_path):
        mesh = msh.triangulate(UNIT_SQUARE, traces=[(0, [0.25, 0.5], [0.75, 0.5])],
                               h_target=0.3)
        path = tmp_path / "mesh.txt"
        msh.save_mesh(mesh, path)
        back = msh.load_mesh(path)
        assert np.array_equal(back.edge_nodes, mesh.edge_nodes)
        assert np.allclose(back.nodes, mesh.nodes)
        assert np.array_equal(back.edge_trace, mesh.edge_trace)
        assert back.n_cells == mesh.n_cells
        assert np.allclose(back.cell_areas, mesh.cell_areas)

    @pytest.mark.parametrize("tag, fault, expected", [
        ("edges", lambda head, row: ("egdes" + head[5:], row),
         "expected 'edges <count>'"),
        ("edges", lambda head, row: (head, row[:-2]), "malformed 'edges' row"),
        ("edges", lambda head, row: (head, "x" + row[1:]),
         "malformed 'edges' row"),
        ("edges", lambda head, row: (head, "99" + row[1:]),
         "edge node outside 0..8"),
        ("edges", lambda head, row: (head, row[:-1] + "2"),
         "side tag not in"),
        ("cells", lambda head, row: (head, "0" + row[1:]),
         "cell entry not in"),
        ("cells", lambda head, row: (head, "999" + row[1:]),
         "cell entry not in"),
        ("edges", lambda head, row: (head, "99999999999999999999" + row[1:]),
         "malformed 'edges' row"),
        ("cells", lambda head, row: (head, "99999999999999999999" + row[1:]),
         "malformed 'cells' row"),
        ("edges", lambda head, row: (head, row[:-1] + "-9223372036854775808"),
         "side tag not in"),
        ("cells", lambda head, row: (head, "-9223372036854775808" + row[1:]),
         "cell entry not in"),
    ])
    def test_malformed_file_raises(self, tmp_path, tag, fault, expected):
        mesh = msh.cartesian_mesh(2)
        path = tmp_path / "mesh.txt"
        msh.save_mesh(mesh, path)
        lines = path.read_text().splitlines()
        at = lines.index(f"{tag} {getattr(mesh, 'n_' + tag)}")
        lines[at], lines[at + 1] = fault(lines[at], lines[at + 1])
        path.write_text("\n".join(lines) + "\n")
        line = at + 1 if "<count>" in expected else at + 2
        with pytest.raises(MeshError, match=f"line {line}: {expected}"):
            msh.load_mesh(path)

    @pytest.mark.parametrize("name, digest", [
        ("cartesian-4",
         "03cda7e95f99ebcf9492cb95ac3706ca83c44323f833e7cb046e7635500f1914"),
        ("split-0",
         "3b565bf31f305f6c93872fde1bf7912da1e662c3dcfa3aaf28e00e142bd72172"),
        ("agglomerated-0",
         "8b86c79cfb4d4796d995d4d2586bb8498e8548226885b01236939ec9c5310878"),
        ("triangulated-crossing",
         "511586c5e7ce2e6968ab93c99ca7eca822802045d90c7785c264502998761591"),
        ("corefined-network",
         "86acb025f84a9a2df32f7178a13268f07bfc913891068ff1c29a744a571744a5"),
    ])
    def test_file_bytes_are_pinned(self, tmp_path, name, digest):
        # Any renumbering of nodes, edges or cell entries changes the
        # bytes; the digests were taken from list-per-cell storage, the
        # triangulated one from trace tags kept per point, the co-refined
        # network one from one batch of edge splits per line.
        if name == "cartesian-4":
            mesh = msh.cartesian_mesh(4)
        elif name == "corefined-network":
            # The slanted fracture of the benchmark network, nine traces.
            net = oracle_network(tmp_path, "network-0")
            meshes = msh.triangulate_network(net, 0.1)
            mesh = msh.corefine_network(meshes, net)[1][11]
        elif name == "triangulated-crossing":
            net = crossing_rectangles()
            mesh = msh.triangulate_fracture(net.fractures[1],
                                            net.traces_of(1), 0.17)
        else:
            net = import_network(tmp_path)
            meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), 0.3)
                      for f in net.fractures}
            tms, meshes = msh.corefine_network(meshes, net)
            mesh = msh.split_interface_dofs(meshes[0], tms, 0)
            if name == "agglomerated-0":
                mesh = coa.agglomerate_network(net, {0: mesh}, 2)[0][0]
        path = tmp_path / "mesh.txt"
        msh.save_mesh(mesh, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_imported_mesh_solves(self, tmp_path):
        # Externally generated triangulations enter through the text
        # format and run through the full pipeline unchanged.
        from _util import run
        frac = geo.Fracture(id=0, vertices=np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float))
        net = geo.build_network([frac])
        mesh = msh.triangulate(frac.local_polygon, h_target=0.3,
                               frame=frac.frame)
        path = tmp_path / "external.mesh.txt"
        msh.save_mesh(mesh, path)
        imported = msh.load_mesh(path, frame=frac.frame)
        g = lambda fid, x: 1.0 + 2.0 * np.asarray(x)[..., 0]
        problem, dofs, system, sol, rep = run(net, {0: imported}, g=g)
        c3 = imported.frame.to_global(imported.cell_centroids)
        assert np.abs(sol.pressure[0] - g(0, c3)).max() < 1e-10


class TestBatchedGeometry:
    def test_meshes_cover_the_hard_cases(self):
        meshes = oracle_meshes()
        assert sorted(meshes) == sorted(ORACLE_MESHES)
        counts = {name: set(np.diff(m.cell_ptr)) for name, m in meshes.items()}
        assert max(counts["corefined-split"]) > 3   # hanging nodes
        assert max(counts["agglomerated-4-bare"]) > 9   # pairwise summation
        assert not meshes["agglomerated-4"].chained.all()

    @pytest.mark.parametrize("name", ORACLE_MESHES)
    def test_equals_per_cell_reference(self, name):
        from _util import (cell_diameters_ref, cell_outward_normals_ref,
                           edge_cells_ref, geometry_ref, local_matrices_2d_ref,
                           project_velocity_ref, velocity_ref)

        mesh = oracle_meshes()[name]
        areas, centroids = geometry_ref(mesh)
        assert np.array_equal(mesh.cell_areas, areas)
        assert np.array_equal(mesh.cell_centroids, centroids)
        diam = cell_diameters_ref(mesh)
        assert np.array_equal(mesh.cell_diameters, diam)
        assert np.array_equal(mesh.edge_cells, edge_cells_ref(mesh))
        normals = [cell_outward_normals_ref(mesh, k)
                   for k in range(mesh.n_cells)]
        for k in range(mesh.n_cells):
            assert np.array_equal(outward_normals_of_cell(mesh, k), normals[k])
        # Each cell in one bucket, by (width, edge count, id); a padding
        # slot repeats the cell's last entry.
        ptr, counts = mesh.cell_ptr, np.diff(mesh.cell_ptr)
        want = sorted(range(mesh.n_cells), key=lambda k: (
            msh._bucket_width(int(counts[k])), counts[k], k))
        buckets = mesh.cell_buckets
        assert np.concatenate([ids for ids, _, _ in buckets]).tolist() == want
        widths = [pos.shape[1] for _, pos, _ in buckets]
        assert widths == sorted(set(widths))
        for ids, pos, real in buckets:
            w = pos.shape[1]
            assert (msh._bucket_width(counts[ids]) == w).all()
            for k, row in zip(ids.tolist(), pos.tolist()):
                entries = list(range(ptr[k], ptr[k + 1]))
                assert row == entries + entries[-1:] * (w - len(entries))
            mask = np.arange(w) < counts[ids][:, None]
            assert (real is None) == mask.all()
            assert real is None or np.array_equal(real, mask)
        # The flat velocity, cell by cell in entry order, and the VEM
        # projection lam Pi u / h (unit lam) to rounding.
        fluxes = np.random.default_rng(3).normal(size=len(mesh.cell_edge))
        vel = vem.project_velocity(
            mesh.cell_areas, mesh.cell_centroids, mesh.entry_cell,
            mesh.edge_mid.take(mesh.cell_edge, axis=0), fluxes)
        assert np.array_equal(vel, velocity_ref(mesh, fluxes))
        for k in range(mesh.n_cells):
            es = mesh.cell_edge[ptr[k]:ptr[k + 1]]
            u = fluxes[ptr[k]:ptr[k + 1]]
            mid = mesh.edge_mid[es]
            elem = local_matrices_2d_ref(areas[k], centroids[k], diam[k],
                                         mesh.edge_len[es], normals[k], mid,
                                         np.eye(2))
            scale = np.abs(mid - centroids[k]).max() * np.abs(u).sum()
            assert np.abs(vel[k] - project_velocity_ref(elem, u)).max() <= (
                1e-13 * scale / abs(areas[k]))

    def test_from_cells_orients_and_numbers_edges_by_first_appearance(self):
        nodes = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [2, 0]], float)
        mesh = msh.PolyMesh.from_cells(nodes, [[0, 3, 2, 1], [1, 4, 2]])
        # The clockwise first loop is walked as 1, 2, 3, 0.
        assert mesh.edge_nodes.tolist() == [[1, 2], [2, 3], [0, 3], [0, 1],
                                            [1, 4], [2, 4]]
        assert mesh.cell_ptr.tolist() == [0, 4, 7]
        assert mesh.cell_edge.tolist() == [0, 1, 2, 3, 4, 5, 0]
        assert mesh.cell_sign.tolist() == [1, 1, -1, 1, 1, -1, -1]
        assert np.allclose(mesh.cell_areas, [1.0, 0.5])

    def test_edge_with_three_cells_raises(self):
        nodes = np.array([[0, 0], [1, 0], [0, 1], [0, -1], [1, 1]], float)
        mesh = msh.PolyMesh.from_cells(nodes, [[0, 1, 2], [0, 3, 1], [0, 1, 4]])
        with pytest.raises(MeshError, match="edge 0 bounds more than two"):
            mesh.edge_cells


@pytest.mark.parametrize("first", ["cell_areas", "cell_centroids"])
def test_areas_and_centroids_share_one_loop_pass(monkeypatch, first):
    # Whichever is read first, both come from one pass of the loop sums,
    # bit for bit.
    mesh = msh.random_mesh(4, seed=1)
    twice, moment = mesh._loop_sums
    mesh = msh.PolyMesh(mesh.nodes, mesh.edge_nodes, mesh.cell_ptr,
                        mesh.cell_edge, mesh.cell_sign)
    passes = []
    entry_next = msh.PolyMesh.entry_next     # read once per pass

    def counted(self):
        passes.append(1)
        return entry_next.func(self)
    monkeypatch.setattr(msh.PolyMesh, "entry_next", property(counted))
    getattr(mesh, first)
    areas, centroids = mesh.cell_areas, mesh.cell_centroids
    assert len(passes) == 1
    assert areas.tobytes() == (0.5 * twice).tobytes()
    assert centroids.tobytes() == (moment / (3 * twice)[:, None]).tobytes()


@pytest.mark.parametrize("stage", ["corefine", "agglomerate", "solve-cc",
                                   "solve-dc"])
def test_callers_meshes_are_left_alone(tmp_path, stage):
    # Meshes are values: a stage returns new meshes and leaves the dict it
    # is given, its meshes and every array they store as they were.
    path = tmp_path / "network.json"
    path.write_text(json.dumps(perfbench_network_dict(1)))
    net, raw = geo.load_network(path)
    meshes = msh.triangulate_network(net, 0.2)
    assert net.lines
    items = list(meshes.items())
    stored = {(fid, name): value.copy() for fid, mesh in items
              for name, value in vars(mesh).items()
              if isinstance(value, np.ndarray)}
    if stage == "corefine":
        msh.corefine_network(meshes, net)
    elif stage == "agglomerate":
        # Depth 0 hands every mesh back as its own coarse mesh.
        for depth in (0, 2):
            coa.agglomerate_network(net, meshes, depth)
    else:
        cases.solve_meshes(net, meshes, asm.boundary_spec_from_json(raw, net),
                           stage.removeprefix("solve-"))
    assert [(fid, id(mesh)) for fid, mesh in meshes.items()] == [
        (fid, id(mesh)) for fid, mesh in items]
    for (fid, name), before in stored.items():
        now = vars(meshes[fid])[name]
        assert now.dtype == before.dtype and now.shape == before.shape, name
        assert now.tobytes() == before.tobytes(), (fid, name)
