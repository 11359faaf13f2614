"""The batched triangulation of a whole network against one fracture at a
time and against the all-pairs constraint tests it replaces.

``triangulate_network`` meshes every fracture in one pass; each mesh must
be the one ``triangulate_fracture`` gives, whatever the other fractures
and their ids, and a failing network must raise the error that meshing
its fractures one after another would raise first.
"""

import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from dfnvem import geometry as geo
from dfnvem import meshing as msh
from dfnvem.errors import ConstraintConflict

from _util import (close_pieces_ref, grid_dict, on_segments_ref,
                   perfbench_network_dict, point_pool_ref, triangulate_ref)

UNIT_SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
MESH_FIELDS = ("nodes", "edge_nodes", "cell_ptr", "cell_edge", "cell_sign",
               "edge_trace")


def load(tmp_path, payload):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(payload))
    return geo.load_network(path)[0]


def mesh_bytes(mesh):
    return tuple((a.dtype.str, a.shape, a.tobytes())
                 for a in (getattr(mesh, name) for name in MESH_FIELDS))


def test_aranges_equal_numpy():
    rng = np.random.default_rng(5)
    start = rng.uniform(-2, 2, 400)
    stop = start + rng.choice([0.0, 1e-3, 0.05, 0.3, 1.7], 400)
    for step in (0.1, 0.1 * np.sqrt(3) / 2, 0.05, 0.3):
        k, i, values = msh._aranges(start, stop, step)
        want = [np.arange(a, b, step) for a, b in zip(start, stop)]
        assert np.array_equal(k, np.repeat(np.arange(400), list(map(len, want))))
        assert np.array_equal(i, np.concatenate([np.arange(len(w)) for w in want]))
        assert np.concatenate(want).tobytes() == values.tobytes()


def test_pool_of_several_fractures_equals_one_pool_each():
    # Three fractures of different tolerances, with points that coincide
    # across fractures: each keeps its own ids.
    rng = np.random.default_rng(2)
    tols = [1e-3, 0.05, 0.2]
    pts = [np.cumsum(rng.uniform(-1.1 * t, 1.1 * t, (200, 2)), axis=0)
           for t in tols]
    pts[2][:50] = pts[1][:50]
    pool = msh._PointPool(tols)
    pool.extend(np.vstack([p[:5] for p in pts]), np.repeat([0, 1, 2], 5))
    got = pool.ids(np.vstack([p[5:] for p in pts]), np.repeat([0, 1, 2], 195))
    for f, (tol, p) in enumerate(zip(tols, pts)):
        ref = point_pool_ref(tol)
        for q in p[:5]:
            ref.append(q)
        assert got[195 * f:195 * (f + 1)].tolist() == [ref.add(q) for q in p[5:]]
        assert np.array_equal(pool.pts[pool.ptr[f]:pool.ptr[f + 1]], ref.pts)


@pytest.mark.parametrize("payload, h", [(perfbench_network_dict(0), 0.15),
                                        (grid_dict(3, 1), 0.2)])
def test_network_equals_fracture_by_fracture(tmp_path, payload, h):
    net = load(tmp_path, payload)
    meshes = msh.triangulate_network(net, h)
    assert list(meshes) == sorted(f.id for f in net.fractures)
    for f in net.fractures:
        one = msh.triangulate_fracture(f, net.traces_of(f.id), h)
        assert mesh_bytes(meshes[f.id]) == mesh_bytes(one)
        assert meshes[f.id].frame is f.frame


def non_convex_cases():
    """An L, a notched square and a ten-point star with crossing traces,
    one ending on the notch's tip."""
    ang = np.linspace(0, 2 * np.pi, 11)[:-1]
    radius = np.where(np.arange(10) % 2, 0.45, 1.0)
    shapes = {
        "ell": (np.array([[0, 0], [1, 0], [1, .4], [.4, .4], [.4, 1], [0, 1]]),
                [(0, [.1, .2], [.9, .3]), (1, [.2, .1], [.3, .9])]),
        "notch": (np.array([[0, 0], [1, 0], [1, 1], [.5, .3], [0, 1]]),
                  [(0, [.1, .1], [.9, .2]), (1, [.5, .3], [.5, 0])]),
        "star": (np.column_stack([radius * np.cos(ang), radius * np.sin(ang)]),
                 [(0, [-.4, 0], [.4, 0]), (1, [0, -.4], [0, .4])]),
    }
    return [pytest.param(np.asarray(poly, float), traces, h, id=f"{name}-{h}")
            for name, (poly, traces) in shapes.items() for h in (0.06, 0.15)]


@pytest.mark.parametrize("poly, traces, h", non_convex_cases())
def test_non_convex_polygons_equal_reference(poly, traces, h):
    # The inside test keeps every triangle with a lattice point without
    # its centroid test; on non-convex polygons too, the kept triangles
    # are the reference's.
    def outcome(fn):
        try:
            return mesh_bytes(fn(poly, traces, h_target=h))
        except Exception as exc:  # the error type is the outcome
            return type(exc)
    assert outcome(msh.triangulate) == outcome(triangulate_ref)


def permuted(net, perm):
    """``net`` with fracture ``f`` renamed ``perm[f]``; lines keep their
    ids and order, so every fracture keeps its traces."""
    fractures = [geo.Fracture(id=perm[f.id], vertices=f.vertices)
                 for f in net.fractures]
    lines = [SimpleNamespace(id=ln.id, p0=ln.p0, p1=ln.p1,
                             parents=tuple(perm[p] for p in ln.parents))
             for ln in net.lines]
    return SimpleNamespace(fractures=fractures, lines=lines)


def test_permuted_ids_leave_meshes_byte_identical(tmp_path):
    net = load(tmp_path, grid_dict(3, 4))
    base = msh.triangulate_network(net, 0.2)
    perm = np.random.default_rng(0).permutation(len(net.fractures)).tolist()
    meshes = msh.triangulate_network(permuted(net, perm), 0.2)
    for fid, mesh in base.items():
        assert mesh_bytes(meshes[perm[fid]]) == mesh_bytes(mesh)


# ------------------------------------------------------------------ #
# the sort and sweep against the all-pairs tests
# ------------------------------------------------------------------ #

# tol is 1.4e-9 on the unit square: traces 1e-7 and 5e-8 apart conflict,
# a T-junction 5e-10 short of its stem meets it, 3e-7 apart is clear.
NEAR_MISSES = [(2, [0.2, 0.5], [0.8, 0.5]),
               (1, [0.2, 0.5 + 1e-7], [0.8, 0.5 + 1e-7]),
               (0, [0.2, 0.5 - 5e-8], [0.8, 0.5 - 5e-8]),
               (3, [0.4, 0.1], [0.4, 0.5 - 5e-8 - 5e-10]),
               (4, [0.3, 0.5 + 1e-7 + 3e-7], [0.6, 0.9]),
               (5, [0.0, 0.3], [1.0, 0.7])]


def sweep_cases():
    grid = grid_dict(4, 0)
    bench = perfbench_network_dict(1)
    return {
        "grid-fracture": ("network", grid, 5, 0.2),
        "slanted-fracture": ("network", bench, 11, 0.15),
        "sheet": ("network", bench, 10, 0.15),
        "near-misses": ("polygon", UNIT_SQUARE, NEAR_MISSES, 0.25),
    }


def sweep_outcome(tmp_path, case, monkeypatch):
    """Run one triangulation and capture the pieces, the close pairs and
    the hard-vertex marks it measured."""
    seen = {}
    for name in ("_trace_pieces", "_close_pieces", "_constraint_points"):
        real = getattr(msh, name)

        def spy(*args, _real=real, _name=name):
            out = _real(*args)
            seen[_name] = (args, out)
            return out

        monkeypatch.setattr(msh, name, spy)
    kind, data, arg, h = case
    try:
        if kind == "network":
            net = load(tmp_path, data)
            frac = net.fracture(arg)
            msh.triangulate_fracture(frac, net.traces_of(arg), h)
        else:
            msh.triangulate(data, arg, h_target=h)
    except ConstraintConflict:
        pass
    return seen


@pytest.mark.parametrize("name", list(sweep_cases()))
def test_sweep_equals_all_pairs(tmp_path, monkeypatch, name):
    seen = sweep_outcome(tmp_path, sweep_cases()[name], monkeypatch)
    _, (_, gids, ends0, ends1) = seen["_trace_pieces"]
    (_, tol, *_), close = seen["_close_pieces"]
    want = close_pieces_ref(gids, ends0, ends1, tol[0])
    for got, ref in zip(close, want):
        assert got.tobytes() == ref.tobytes()
    if name == "near-misses":
        assert len(close[0]) >= 3
        # The conflict stops meshing before the marks are needed.
        return
    assert len(gids) > 10
    (seg0, seg1, hard, k, v, stol, _), _ = seen["_constraint_points"]
    on_seg = on_segments_ref(hard, seg0, seg1, stol[0])
    assert set(zip(k.tolist(), v.tolist())) == set(zip(*np.nonzero(on_seg)))
    assert on_seg.sum() > len(gids)


def test_pairs_measured_grow_with_the_pieces(tmp_path, monkeypatch):
    # A fracture of the k = 8 grid has 16 traces cut into 144 pieces; the
    # all-pairs tests measured about 84,000 pairs, 590 per piece.
    net = load(tmp_path, grid_dict(8, 0))
    frac = net.fracture(3)
    sizes, pieces = [], []
    real_distance, real_pieces = msh.point_segment_distance, msh._trace_pieces

    def distance(*args):
        out = real_distance(*args)
        sizes.append(np.size(out))
        return out

    def trace_pieces(*args):
        out = real_pieces(*args)
        pieces.append(len(out[0]))
        return out

    monkeypatch.setattr(msh, "point_segment_distance", distance)
    monkeypatch.setattr(msh, "_trace_pieces", trace_pieces)
    msh.triangulate_fracture(frac, net.traces_of(3), 0.2)
    assert pieces == [144]
    assert sum(sizes) < 30 * pieces[0]


def test_point_searches_examine_few_candidates(tmp_path, monkeypatch):
    # On the k = 12 grid at h 0.1, sorting the points by x alone gave the
    # constraint searches 1,148,124 candidates; the one box-pair search
    # gives them 839,496, and the point pool 92,784 more.
    net = load(tmp_path, grid_dict(12, 0))
    examined = []
    real = geo._ranges

    def ranges(start, count):
        examined.append(int(count.sum()))
        return real(start, count)

    monkeypatch.setattr(geo, "_ranges", ranges)
    msh.triangulate_network(net, 0.1)
    assert 0 < sum(examined) < 1_148_124


# ------------------------------------------------------------------ #
# errors: the lowest failing fracture's, at its first failing stage
# ------------------------------------------------------------------ #

PLANE = geo.Frame(origin=np.zeros(3), t1=np.eye(3)[0], t2=np.eye(3)[1],
                  n=np.eye(3)[2])
# Each fails at a different stage of meshing one fracture: its polygon,
# the constraint conflict check, and the trace tags at the end.
FAULTS = {
    "good": (UNIT_SQUARE, [([0.2, 0.2], [0.8, 0.7])]),
    "flat": (np.array([[0, 0], [1, 0], [2, 0]], float), []),
    "conflict": (UNIT_SQUARE, [([0.2, 0.5], [0.8, 0.5]),
                               ([0.2, 0.5 + 1e-7], [0.8, 0.5 + 1e-7]),
                               ([0.3, 0.5 - 5e-8], [0.7, 0.5 - 5e-8])]),
    "outside": (UNIT_SQUARE, [([0.5, 0.5], [1.5, 0.5])]),
}


def fake_network(kinds):
    """Fracture ``f`` of kind ``kinds[f]`` in the plane z = 0, its traces
    numbered across the network."""
    fractures, lines = [], []
    for fid, kind in enumerate(kinds):
        poly, traces = FAULTS[kind]
        fractures.append(SimpleNamespace(id=fid, local_polygon=poly,
                                         frame=PLANE))
        for p0, p1 in traces:
            lines.append(SimpleNamespace(id=len(lines), p0=np.append(p0, 0.0),
                                         p1=np.append(p1, 0.0),
                                         parents=(fid,)))
    return SimpleNamespace(fractures=fractures[::-1], lines=lines)


def outcome(fn):
    try:
        fn()
    except Exception as exc:  # the error is the outcome under test
        return type(exc), str(exc)
    return None


def one_after_another(net, h):
    for f in sorted(net.fractures, key=lambda f: f.id):
        traces = [(ln.id, ln.p0[:2], ln.p1[:2]) for ln in net.lines
                  if f.id in ln.parents]
        triangulate_ref(f.local_polygon, traces, h_target=h)


@pytest.mark.parametrize("kinds", sorted(set(itertools.permutations(
    ["good", "flat", "conflict", "outside", "good"]))))
def test_error_is_the_first_of_one_after_another(kinds):
    net = fake_network(kinds)
    got = outcome(lambda: msh.triangulate_network(net, 0.3))
    assert got is not None
    assert got == outcome(lambda: one_after_another(net, 0.3))


def test_conflicts_in_two_fractures_name_the_lower_ones_first_pair():
    net = fake_network(["good", "conflict", "conflict"])
    net.lines[-1].p0[1] += 1e-7
    net.lines[-1].p1[1] += 1e-7
    with pytest.raises(ConstraintConflict,
                       match=r"^traces 1 and 2 are 1\.000e-07 apart"):
        msh.triangulate_network(net, 0.3)
