"""Property checks of the array network code against piecewise oracles.

Random networks of rectangles, axis-aligned or turned about a coordinate
axis, with corners on a coarse grid so that traces often cross, end on
each other, share a line or lie in one plane.  ``build_network`` must
give the lines and points of ``build_network_ref``, or raise the same
error.  Random convex polygons with traces on a coarse grid of weights:
``triangulate`` must give the arrays of ``triangulate_ref``, or raise
the same error type.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dfnvem import geometry as geo
from dfnvem import meshing as msh

from _util import (boundary_mids, build_network_ref, crossing_rectangles,
                   json_bc_outcomes, network_outcome, triangulate_ref)

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


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(rectangles(), min_size=1, max_size=7))
def test_pruned_build_equals_all_pairs(quads):
    fractures = [geo.Fracture(id=i, vertices=q) for i, q in enumerate(quads)]
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
