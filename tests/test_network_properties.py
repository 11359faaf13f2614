"""Property checks of the array network code against piecewise oracles.

Random networks of rectangles, or of triangles, rectangles, L-shaped
hexagons and octagons, axis-aligned or turned about a coordinate axis,
with corners on a coarse grid so that traces often cross, end on each
other, share a line or lie in one plane.  ``build_network`` must give
the lines and points of ``build_network_ref``, or raise the same
error.  Random convex polygons with traces on a coarse grid of weights:
``triangulate`` must give the arrays of ``triangulate_ref``, or raise
the same error type.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from dfnvem import geometry as geo
from dfnvem import meshing as msh

from _util import (ORACLE_NETWORKS, boundary_mids, build_network_ref,
                   crossing_rectangles, json_bc_outcomes, network_outcome,
                   oracle_network, perfbench_network_dict, scaled_network_dict,
                   solve_network_dict, triangulate_ref)

STEPS = np.linspace(0.25, 0.75, 17).tolist()
HALF = [0.25, 0.5]
ANGLES = [0.0, 0.0, np.pi / 6, np.pi / 4, np.pi / 2]


def turn(axis: int, angle: float) -> np.ndarray:
    """Rotation by ``angle`` about coordinate axis ``axis``."""
    c, s = np.cos(angle), np.sin(angle)
    i, j = (axis + 1) % 3, (axis + 2) % 3
    r = np.eye(3)
    r[i, i], r[i, j], r[j, i], r[j, j] = c, -s, s, c
    return r


@st.composite
def rectangles(draw):
    """A rectangle about a grid point, turned about an axis through it."""
    center = np.array([draw(st.sampled_from(STEPS)) for _ in range(3)])
    normal = draw(st.integers(0, 2))
    a, b = (draw(st.sampled_from(HALF)) for _ in range(2))
    u, v = np.eye(3)[(normal + 1) % 3], np.eye(3)[(normal + 2) % 3]
    quad = np.array([-a * u - b * v, a * u - b * v, a * u + b * v, -a * u + b * v])
    rot = turn(draw(st.integers(0, 2)), draw(st.sampled_from(ANGLES)))
    return center + quad @ rot.T


@pytest.mark.parametrize("name", ORACLE_NETWORKS)
def test_build_equals_all_pairs_on_benchmark_networks(tmp_path, name):
    # Lines meet in many crossings there, most shared by three lines.
    fractures = oracle_network(tmp_path, name).fractures
    got = network_outcome(geo.build_network, fractures)
    assert got == network_outcome(build_network_ref, fractures)
    assert len(got[1]) > 0


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(rectangles(), min_size=1, max_size=7))
def test_pruned_build_equals_all_pairs(quads):
    fractures = [geo.Fracture(id=i, vertices=q) for i, q in enumerate(quads)]
    assert (network_outcome(geo.build_network, fractures)
            == network_outcome(build_network_ref, fractures))


def shape(kind: str, a: float, b: float) -> np.ndarray:
    """In-plane corners of a polygon of half-sizes ``a`` and ``b``."""
    if kind == "triangle":
        return np.array([[-a, -b], [a, -b], [-a, b]])
    if kind == "rectangle":
        return np.array([[-a, -b], [a, -b], [a, b], [-a, b]])
    if kind == "pentagon":       # a rectangle with two collinear edges
        return np.array([[-a, -b], [0, -b], [a, -b], [a, b], [-a, b]])
    if kind == "ell":            # non-convex: the upper right quarter cut
        return np.array([[-a, -b], [a, -b], [a, 0], [0, 0], [0, b], [-a, b]])
    h, k = a / 2, b / 2          # an octagon: the rectangle's corners cut
    return np.array([[-a, -k], [-h, -b], [h, -b], [a, -k], [a, k], [h, b],
                     [-h, b], [-a, k]])


@st.composite
def polygons(draw):
    """A polygon of 3-8 corners about a grid point, mirrored in its plane
    and turned about an axis through it: edges often lie on other
    fractures' traces, and batches mix polygons of different sizes."""
    center = np.array([draw(st.sampled_from(STEPS)) for _ in range(3)])
    normal = draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["triangle", "rectangle", "pentagon", "ell",
                                 "octagon"]))
    a, b = (draw(st.sampled_from(HALF)) for _ in range(2))
    uv = shape(kind, a, b) * [draw(st.sampled_from([-1, 1])) for _ in range(2)]
    u, v = np.eye(3)[(normal + 1) % 3], np.eye(3)[(normal + 2) % 3]
    rot = turn(draw(st.integers(0, 2)), draw(st.sampled_from(ANGLES)))
    return center + np.outer(uv[:, 0], u) @ rot.T + np.outer(uv[:, 1], v) @ rot.T


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(polygons(), min_size=1, max_size=7))
def test_batched_pairs_equal_one_pair_clipping(corners):
    fractures = [geo.Fracture(id=i, vertices=c) for i, c in enumerate(corners)]
    assert (network_outcome(geo.build_network, fractures)
            == network_outcome(build_network_ref, fractures))


# ------------------------------------------------------------------ #
# triangulate against its one-piece-at-a-time reference
# ------------------------------------------------------------------ #

TURNS = np.linspace(0.0, 2 * np.pi, 12, endpoint=False).tolist()
WEIGHTS = [0.0, 0.25, 0.5, 0.75, 1.0]


@st.composite
def traced_polygons(draw):
    """A convex polygon with 0-4 traces between points inside it, on its
    boundary or on an earlier trace: traces cross, meet in T-junctions,
    end on the boundary, share end points or overlap."""
    turns = sorted(draw(st.lists(st.sampled_from(TURNS), min_size=3,
                                 max_size=7, unique=True)))
    rx, ry = (draw(st.sampled_from([0.5, 1.0])) for _ in range(2))
    poly = np.column_stack([rx * np.cos(turns), ry * np.sin(turns)])
    center = poly.mean(axis=0)

    def point(traces):
        kind = draw(st.sampled_from(["boundary", "inside", "trace", "corner"]))
        w = draw(st.sampled_from(WEIGHTS))
        k = draw(st.integers(0, len(poly) - 1))
        if kind == "inside":  # between the center and a corner
            return center + w * (poly[k] - center)
        if kind == "corner":
            return poly[k]
        if kind == "trace" and traces:
            _, a, b = traces[draw(st.integers(0, len(traces) - 1))]
            return a + w * (b - a)
        return poly[k] + w * (poly[(k + 1) % len(poly)] - poly[k])

    traces = []
    for gid in range(draw(st.sampled_from([2, 3, 4, 1, 0]))):
        a, b = point(traces), point(traces)
        if np.linalg.norm(b - a) > 1e-3:
            traces.append((gid, a, b))
    return poly, traces, draw(st.sampled_from([0.12, 0.2, 0.35]))


def triangulation_outcome(fn, poly, traces, h):
    try:
        mesh = fn(poly, traces, h_target=h)
    except Exception as exc:  # the type is the outcome under test
        return type(exc)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in (
        mesh.nodes, mesh.edge_nodes, mesh.cell_ptr, mesh.cell_edge,
        mesh.cell_sign, mesh.edge_trace))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(traced_polygons())
def test_triangulate_equals_piecewise(case):
    poly, traces, h = case
    assert (triangulation_outcome(msh.triangulate, poly, traces, h)
            == triangulation_outcome(triangulate_ref, poly, traces, h))


# ------------------------------------------------------------------ #
# JSON boundary selectors against their per-midpoint reference
# ------------------------------------------------------------------ #

BOX_GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]


@functools.lru_cache(maxsize=1)
def crossing_pair_mids():
    net = crossing_rectangles()
    meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), 0.25)
              for f in net.fractures}
    return net, boundary_mids(meshes)


@st.composite
def bc_rules(draw):
    """One selector of the crossing pair: a polygon edge or a grid box,
    with the type and value sometimes left to their defaults."""
    rule = {"fracture": draw(st.integers(0, 1))}
    if draw(st.booleans()):
        rule["type"] = draw(st.sampled_from(["dirichlet", "neumann"]))
    if draw(st.booleans()):
        rule["value"] = draw(st.sampled_from([0.0, 1.0, 2.5]))
    if draw(st.booleans()):
        rule["edge"] = draw(st.integers(0, 3))
    else:
        a, b = ([draw(st.sampled_from(BOX_GRID)) for _ in range(3)]
                for _ in range(2))
        rule["box"] = [list(map(min, a, b)), list(map(max, a, b))]
    return rule


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(bc_rules(), min_size=1, max_size=5))
def test_json_bc_masks_equal_pointwise_ref(rules):
    net, mids = crossing_pair_mids()
    got, want = json_bc_outcomes({"boundary_conditions": rules}, net, mids)
    assert got == want


# ------------------------------------------------------------------ #
# Whole solves: scale and fracture-id invariance
# ------------------------------------------------------------------ #

@pytest.mark.parametrize("model", ["cc", "dc"])
@pytest.mark.parametrize("exponent", [-27, -30])
def test_tiny_networks_solve_exactly(tmp_path, exponent, model):
    # network.tol is 1.3e-17 at 2**-27.  An absolute floor of 1e-12 on
    # it set the co-refinement tolerance to 1e-10, a seventh of h, which
    # merged distinct breakpoints: the solve failed with a partition
    # mismatch.  The discretization scales exactly; p = x is exact in cc
    # only, since dc's normal coupling jumps across traces.
    scale = 2.0 ** exponent
    payload = perfbench_network_dict(0)
    unit = solve_network_dict(tmp_path, payload, 0.1, model)[1]
    problem, solution, report = solve_network_dict(
        tmp_path, scaled_network_dict(payload, scale), 0.1 * scale, model)
    assert report.residual <= 1e-8
    assert len(solution.x) == len(unit.x)
    for fid, mesh in problem.meshes.items() if model == "cc" else ():
        x = mesh.frame.to_global(mesh.cell_centroids)[:, 0]
        assert np.abs(solution.pressure[fid] - x).max() <= 1e-9 * scale


def cell_fields(problem, solution, fid) -> tuple:
    """Fracture ``fid``'s cell centroids and pressures, then per cell and
    edge of it the cell centroid and edge midpoint, end to end, and the
    flux out of the cell through the edge: all free of the numbering."""
    mesh = problem.meshes[fid]
    centroids = mesh.frame.to_global(mesh.cell_centroids)
    mids = mesh.frame.to_global(mesh.edge_mid[mesh.cell_edge])
    return (centroids, solution.pressure[fid],
            np.hstack([centroids[mesh.entry_cell], mids]),
            mesh.cell_sign * solution.edge_flux[fid][mesh.cell_edge])


def assert_same_field(at_a, a, at_b, b, size):
    """Values ``a`` at points ``at_a`` are values ``b`` at the same
    points ``at_b``, in some order, to 1e-10 of ``size``."""
    dist, k = cKDTree(at_b).query(at_a)
    assert dist.max() <= 1e-9
    assert len(np.unique(k)) == len(k) == len(b)
    assert np.abs(a - b[k]).max() <= 1e-10 * size


def relabelled_solves(tmp_path, seed: int) -> tuple:
    """Solves of ``perfbench/network.py``'s seed at ``--h 0.2`` in cc,
    as given and with its fracture ids permuted, and the new id of each
    old one.  New ids reorder the fracture pairs, so lines are numbered,
    and may run, the other way."""
    payload = perfbench_network_dict(seed)
    new_id = np.random.default_rng(seed).permutation(
        len(payload["fractures"])).tolist()
    relabelled = json.loads(json.dumps(payload))
    for frac in relabelled["fractures"]:
        frac["id"] = new_id[frac["id"]]
    for bc in relabelled["boundary_conditions"]:
        bc["fracture"] = new_id[bc["fracture"]]
    return (solve_network_dict(tmp_path, payload, 0.2),
            solve_network_dict(tmp_path, relabelled, 0.2), new_id)


def line_key(line) -> frozenset:
    return frozenset(map(tuple, np.round([line.p0, line.p1], 9)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fracture_relabelling_keeps_nodes_and_multipliers(tmp_path, seed):
    (a_problem, a, _), (b_problem, b, _), new_id = relabelled_solves(
        tmp_path, seed)
    for fid, mesh in a_problem.meshes.items():
        other = b_problem.meshes[new_id[fid]]
        dist = cKDTree(other.nodes).query(mesh.nodes)[0]
        assert mesh.n_nodes == other.n_nodes and dist.max() <= 1e-12
    size = max(np.abs(p).max() for p in a.pressure.values())
    lines = {line_key(tm.line): tm for tm in b_problem.traces.values()}
    assert len(lines) == len(a_problem.traces)
    for gid, tm in a_problem.traces.items():
        other = lines[line_key(tm.line)]
        assert {new_id[f] for f in tm.line.parents} == set(other.line.parents)
        assert_same_field(tm.elem_mid_3d(), a.trace_pressure[gid],
                          other.elem_mid_3d(), b.trace_pressure[other.gamma],
                          size)


@pytest.mark.xfail(strict=True, reason=(
    "the triangulation depends on the order of a fracture's traces: "
    "relabelled fractures keep their nodes but qhull breaks ties between "
    "cocircular points by input order, so some cells differ"))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fracture_relabelling_leaves_the_solution(tmp_path, seed):
    (a_problem, a, _), (b_problem, b, _), new_id = relabelled_solves(
        tmp_path, seed)
    got = {fid: cell_fields(a_problem, a, fid) for fid in a_problem.meshes}
    p_size = max(np.abs(f[1]).max() for f in got.values())
    u_size = max(np.abs(f[3]).max() for f in got.values())
    for fid, (centroids, p, entries, flux) in got.items():
        want = cell_fields(b_problem, b, new_id[fid])
        assert_same_field(centroids, p, want[0], want[1], p_size)
        assert_same_field(entries, flux, want[2], want[3], u_size)
