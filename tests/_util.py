"""Shared builders for the assembly/solver/case tests."""

import csv
import functools
import heapq
import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import linalg as spla

from dfnvem import assembly as asm
from dfnvem import cases
from dfnvem import geometry as geo
from dfnvem import meshing as msh
from dfnvem import solver as slv
from dfnvem.errors import (CollinearOverlap, ConfigError, ConflictingBC,
                           ConstraintConflict, DfnError, EmptyDomain,
                           InconsistentEndpoints, MeshError, SingularG)
from dfnvem.geometry import (_PARALLEL_TOL, Frame, IntersectionLine, _dots,
                             point_segment_distance, polygon_area)
from dfnvem.meshing import PolyMesh


def verify_strong_form(case, n_samples: int = 100,
                       seed: int = 42, tol: float = 1e-8) -> float:
    """Residual of -lap(p_ex) - f at random in-plane sample points.

    The case's independently derived tangential Laplacian serves as the
    oracle; a central-difference cross-check guards the Laplacian itself.
    Raises when the manufactured data are inconsistent.
    """
    if case.laplacian_exact is None:
        raise ConfigError(f"case {case.name} has no exact Laplacian oracle")
    net = case.network()
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_fd = 0.0
    eps = 1e-4
    for frac in net.fractures:
        poly = frac.local_polygon
        lo, hi = poly.min(0), poly.max(0)
        pts = []
        while len(pts) < n_samples:
            q = rng.uniform(lo, hi)
            if point_in_polygon(q, poly, -1e-3):
                # Stay away from branch interfaces of the piecewise data
                # (the in-plane coordinate among x and z changes branch).
                p3 = frac.frame.to_global(q)
                if max(abs(p3[0]), abs(p3[2])) > 10 * eps:
                    pts.append(q)
        pts3 = frac.frame.to_global(np.asarray(pts))
        lap = np.asarray(case.laplacian_exact(frac.id, pts3), float)
        f = np.asarray(case.source(frac.id, pts3), float)
        worst = max(worst, float(np.abs(-lap - f).max()))
        for q, lp in zip(pts[:10], lap):
            def p_of(uv):
                vals = case.p_exact(frac.id, frac.frame.to_global(uv)[None])
                return float(np.asarray(vals).ravel()[0])
            fd = 0.0
            for d in (np.array([eps, 0.0]), np.array([0.0, eps])):
                fd += (p_of(q + d) - 2 * p_of(q) + p_of(q - d)) / eps**2
            worst_fd = max(worst_fd, abs(fd - lp))
    if worst > tol:
        raise ConfigError(
            f"case {case.name}: strong-form residual {worst:.3e} > {tol:.1e}"
        )
    if worst_fd > 1e-4:
        raise ConfigError(
            f"case {case.name}: Laplacian oracle disagrees with finite "
            f"differences by {worst_fd:.3e}"
        )
    return worst


def single_fracture_plane(fid=0):
    """Unit square in the z=0 plane; frame coordinates equal (x, y)."""
    return geo.Fracture(id=fid, vertices=np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float))


def crossing_rectangles():
    """Two rectangles meeting along the y-axis segment [0, 1].

    Frame coordinates: fracture 0 (plane x=0) maps (u, v) = (y, z + 1),
    fracture 1 (plane z=0) maps (u, v) = (y, x + 1); the trace runs at
    v = 1 in both.
    """
    f0 = geo.Fracture(id=0, vertices=np.array(
        [[0, 0, -1], [0, 1, -1], [0, 1, 1], [0, 0, 1]], float))
    f1 = geo.Fracture(id=1, vertices=np.array(
        [[-1, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 1, 0]], float))
    return geo.build_network([f0, f1])


def rect_mesh_with_trace(frac, n_along=3, n_across=2, gid=0):
    """Cartesian mesh of a crossing_rectangles fracture.

    The trace (y-axis segment) maps to a grid line in frame coordinates;
    its edges get tagged so the pair can be co-refined.
    """
    poly = frac.local_polygon
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    p0 = frac.frame.to_local(np.array([0.0, 0.0, 0.0]))
    p1 = frac.frame.to_local(np.array([0.0, 1.0, 0.0]))
    axis = 0 if abs(p1[0] - p0[0]) > 1e-12 else 1   # trace runs along axis
    across = 1 - axis
    n = [0, 0]
    n[axis] = n_along
    # Even subdivision across keeps the trace on a grid line (mid-span).
    n[across] = 2 * max(1, n_across // 2)
    mesh = msh.cartesian_mesh(n[0], n[1], frame=frac.frame,
                              bounds=(tuple(lo), tuple(hi)))
    pos = p0[across]
    on_line = (np.abs(mesh.nodes[mesh.edge_nodes[:, 0], across] - pos) < 1e-12) & \
              (np.abs(mesh.nodes[mesh.edge_nodes[:, 1], across] - pos) < 1e-12)
    mesh.edge_trace[on_line] = gid
    return mesh


def run(network, meshes, model="cc", g=None, g_hat=None, f=None, f_hat=None,
        bcs=None, point_sources=()):
    """Full pipeline: prepare, number, assemble, apply BCs, solve."""
    problem = asm.prepare_problem(network, meshes, source=f,
                                  line_source=f_hat,
                                  point_sources=point_sources)
    dofs = asm.build_dof_map(problem, model)
    if bcs is None:
        g = g if g is not None else (lambda fid, x: 0.0)
        bcs = asm.BoundarySpec.dirichlet(g, g_hat)
    assemble = asm.assemble_cc if model == "cc" else asm.assemble_dc
    system = assemble(problem, dofs, bcs)
    report = slv.solve(system)
    return problem, dofs, system, asm.extract_solution(system, report.x), report


def side_edges_of(problem, gid) -> dict:
    """``(fid, side) -> (n_elems,)`` ids of the side copies of trace
    ``gid``'s edges in element order, -1 where a side has no copy,
    rebuilt from the split meshes' edge tags.  ``problem`` needs only
    ``meshes`` (split) and ``traces``."""
    out = {}
    for fid, mesh in sorted(problem.meshes.items()):
        on = np.flatnonzero(mesh.edge_trace == gid)
        for side in (1, -1):
            eids = on[mesh.edge_trace_side[on] == side]
            if len(eids):
                arr = np.full(problem.traces[gid].n_elems, -1)
                arr[mesh.edge_trace_elem[eids]] = eids
                out[(fid, side)] = arr
    return out


def symmetry_error(system) -> float:
    """Largest |A - A^T| entry of an assembled system."""
    d = (system.A - system.A.T).tocoo()
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


def no_flow() -> asm.BoundarySpec:
    """Zero Neumann data on every boundary edge, tips at every end."""
    return asm.BoundarySpec(
        fracture_bc=lambda fid, mids3: (np.zeros(len(mids3), bool),
                                        np.zeros(len(mids3))))


def pointwise_bc(rule) -> asm.BoundarySpec:
    """Boundary data from a per-midpoint ``rule(fid, mid3)`` returning
    ``("dirichlet", g)`` or ``("neumann", q)``."""
    def fracture_bc(fid, mids3):
        pairs = [rule(fid, m) for m in mids3]
        return (np.array([k == "dirichlet" for k, _ in pairs], bool),
                np.array([v for _, v in pairs], float))
    return asm.BoundarySpec(fracture_bc=fracture_bc)


def json_fracture_bc_ref(raw: dict, network):
    """Per-midpoint oracle of ``boundary_spec_from_json``'s fracture data:
    ``f(fid, mid3)`` returns ``("dirichlet" | "neumann", value)`` or raises
    ``ConflictingBC``.  The selectors must already be valid."""
    rules = {}
    for item in raw.get("boundary_conditions", []):
        rules.setdefault(int(item["fracture"]), []).append(item)

    def fracture_bc(fid, mid3):
        frac = network.fracture(fid)
        hit = None
        for item in rules.get(fid, []):
            ok = False
            if "edge" in item:
                i = int(item["edge"])
                a = frac.vertices[i]
                b = frac.vertices[(i + 1) % len(frac.vertices)]
                ok = point_segment_distance(mid3, a, b) <= 100 * frac.tol
            elif "box" in item:
                lo, hi = (np.asarray(v, float) for v in item["box"])
                ok = bool((mid3 >= lo - 1e-12).all()
                          and (mid3 <= hi + 1e-12).all())
            if not ok:
                continue
            rule = (item.get("type", "dirichlet"),
                    float(item.get("value", 0.0)))
            if hit is not None and hit != rule:
                raise ConflictingBC(f"fracture {fid}: conflicting BCs at "
                                    f"{mid3}")
            hit = rule
        return hit if hit is not None else ("neumann", 0.0)

    return fracture_bc


def json_bc_outcomes(raw: dict, network, mids: dict) -> tuple:
    """``boundary_spec_from_json``'s fracture data and its per-midpoint
    oracle's on the ``(n, 3)`` midpoints ``mids[fid]``: per fracture, the
    Dirichlet mask and values as lists, or ``"ConflictingBC"``."""
    spec = asm.boundary_spec_from_json(raw, network)
    ref = json_fracture_bc_ref(raw, network)
    got, want = {}, {}
    for fid, mids3 in mids.items():
        try:
            is_dir, value = spec.fracture_bc(fid, mids3)
            got[fid] = (is_dir.tolist(), value.tolist())
        except ConflictingBC:
            got[fid] = "ConflictingBC"
        try:
            pairs = [ref(fid, m) for m in mids3]
            want[fid] = ([k == "dirichlet" for k, _ in pairs],
                         [v for _, v in pairs])
        except ConflictingBC:
            want[fid] = "ConflictingBC"
    return got, want


def boundary_mids(meshes: dict) -> dict:
    """Fracture id -> the 3D midpoints of its mesh's boundary edges."""
    return {fid: m.frame.to_global(m.edge_mid[m.boundary_edges])
            for fid, m in meshes.items()}


def tangent_projector(frame: Frame) -> np.ndarray:
    return np.eye(3) - normal_projector(frame)


def normal_projector(frame: Frame) -> np.ndarray:
    return np.outer(frame.n, frame.n)


def regression_order(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h)."""
    hs = np.asarray(hs, float)
    errs = np.asarray(errs, float)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def saddle_lu_solve(system) -> np.ndarray:
    """Oracle of the hybridized direct solve: sparse LU (COLAMD) of the
    whole saddle system."""
    return spla.splu(system.A.tocsc(), permc_spec="COLAMD").solve(system.rhs)


def line_ends_ref(problem, first: int) -> dict:
    """Oracle of the dc ``DofMap.line_ends``: each line numbered on its
    own from ``first`` on, in gid order, with two fluxes at a crossing
    breakpoint."""
    line_ends = {}
    for gid in sorted(problem.traces):
        tm = problem.traces[gid]
        width = np.ones(tm.n_elems + 1, int)
        width[[idx for idx, _ in tm.xi_breaks]] = 2
        start = first + np.cumsum(width) - width
        line_ends[gid] = np.column_stack([(start + width - 1)[:-1],
                                          start[1:]])
        first += int(width.sum())
    return line_ends


@functools.lru_cache(maxsize=1)
def _perfbench_network_module():
    file = Path(__file__).resolve().parents[1] / "perfbench" / "network.py"
    spec = importlib.util.spec_from_file_location("perfbench_network", file)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_perfbench_network(path, seed: int) -> None:
    """Write ``perfbench/network.py``'s seeded 12-fracture network to
    ``path``: four x-planes, four y-planes, two z-planes, an immersed
    sheet and a slanted rectangle, with crossings (xi points) and tips."""
    _perfbench_network_module().write_network(path, seed)


def perfbench_network_dict(seed: int) -> dict:
    """The payload that ``write_perfbench_network`` writes."""
    return _perfbench_network_module().network_dict(seed)


def turned(a, b):
    """Rotation by ``a`` about z after rotation by ``b`` about x."""
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    return (np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
            @ np.array([[1, 0, 0], [0, cb, -sb], [0, sb, cb]]))


def load_network_dict(tmp_path, payload: dict, turn=None):
    """``load_network`` of a network file payload, with every vertex
    first multiplied by the matrix ``turn`` if one is given."""
    payload = json.loads(json.dumps(payload))
    if turn is not None:
        for frac in payload["fractures"]:
            frac["vertices"] = (np.array(frac["vertices"]) @ turn.T).tolist()
    path = tmp_path / "network.json"
    path.write_text(json.dumps(payload))
    return geo.load_network(path)[0]


# The networks of the array-against-oracle tests: ``perfbench/network.py``
# seeds 0-7, plain and turned so that no line runs along an axis, and the
# grid networks k = 2-6.
TURN = turned(0.3, 0.7)
ORACLE_NETWORKS = ([f"network-{s}" for s in range(8)]
                   + [f"turned-{s}" for s in range(8)]
                   + [f"grid-{k}" for k in range(2, 7)])


def oracle_network(tmp_path, name: str):
    """The network of an ``ORACLE_NETWORKS`` name."""
    kind, number = name.rsplit("-", 1)
    if kind == "grid":
        return load_network_dict(tmp_path, grid_dict(int(number), 0))
    return load_network_dict(tmp_path, perfbench_network_dict(int(number)),
                             TURN if kind == "turned" else None)


def solve_network_dict(tmp_path, payload: dict, h: float, model: str = "cc"):
    """Solve a network file payload as ``dfnvem solve --network`` does:
    returns its problem, solution and solver report."""
    path = tmp_path / "network.json"
    path.write_text(json.dumps(payload))
    network, raw = geo.load_network(path)
    problem, _, solution, report = cases.solve_meshes(
        network, msh.triangulate_network(network, h),
        asm.boundary_spec_from_json(raw, network), model)
    return problem, solution, report


def scaled_network_dict(payload: dict, scale: float) -> dict:
    """A network file payload with its vertices and Dirichlet values
    multiplied by ``scale``; ``p = x`` stays the exact solution of a
    ``perfbench/network.py`` or ``grid_dict`` payload."""
    payload = json.loads(json.dumps(payload))
    for frac in payload["fractures"]:
        frac["vertices"] = [[scale * v for v in p] for p in frac["vertices"]]
    for bc in payload["boundary_conditions"]:
        bc["value"] *= scale
    return payload


def grid_dict(k: int, seed: int) -> dict:
    """Network file payload of a grid network: k x-, k y- and k z-planes
    across the unit cube at ``(i + 1/2) / k``, each shifted along its
    normal by U(-0.03, 0.03) as in ``perfbench/network.py``, so 3k
    fractures, 3k^2 traces and k^3 crossing points.  Boundary data make
    ``p = x`` exact: Dirichlet ``x`` on the edges at x = 0 and x = 1,
    no flow elsewhere."""
    rng = np.random.default_rng(seed)
    jitter = _perfbench_network_module().JITTER
    rects = []    # (vertices, indices of the edges lying in a plane x = c)
    for c in (np.arange(k) + 0.5) / k:
        a = c + rng.uniform(-jitter, jitter)
        rects.append(([[a, 0, 0], [a, 1, 0], [a, 1, 1], [a, 0, 1]], ()))
    for c in (np.arange(k) + 0.5) / k:
        b = c + rng.uniform(-jitter, jitter)
        rects.append(([[0, b, 0], [1, b, 0], [1, b, 1], [0, b, 1]], (1, 3)))
    for c in (np.arange(k) + 0.5) / k:
        z = c + rng.uniform(-jitter, jitter)
        rects.append(([[0, 0, z], [1, 0, z], [1, 1, z], [0, 1, z]], (1, 3)))
    fractures, bcs = [], []
    for fid, (verts, x_edges) in enumerate(rects):
        verts = [[float(v) for v in p] for p in verts]
        fractures.append({"id": fid, "aperture": 1.0,
                          "k_tangential": [1.0, 0.0, 1.0], "vertices": verts})
        bcs.extend({"fracture": fid, "edge": e, "type": "dirichlet",
                    "value": verts[e][0]} for e in x_edges)
    return {"fractures": fractures, "boundary_conditions": bcs}


# The network file of the README's input-format section.
README_NETWORK = {
    "fractures": [
        {"id": 0, "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
         "aperture": 0.01, "k_tangential": [1.0, 0.0, 1.0]},
        {"id": 1,
         "vertices": [[0.5, 0, -0.5], [0.5, 1, -0.5], [0.5, 1, 0.5],
                      [0.5, 0, 0.5]],
         "aperture": 0.01},
    ],
    "intersections": [{"fractures": [0, 1], "k_hat": 1.0, "k_tilde": 1.0}],
    "boundary_conditions": [
        {"fracture": 0, "edge": 3, "type": "dirichlet", "value": 1.0},
        {"fracture": 0, "box": [[0, 0, 0], [1, 0, 1]], "type": "neumann",
         "value": 0.0},
    ],
    "intersection_conditions": [
        {"gamma": 0, "end": 0, "type": "dirichlet", "value": 0.0}],
}


def import_network_dict():
    """A 12-fracture network file payload for the import pipeline tests.

    Axis-aligned plane families plus a partially immersed sheet (trace
    tips) and a slanted rectangle; pressure 1 and 0 on two far-apart
    boundary edges, no-flow elsewhere.
    """
    fractures = []
    fid = 0
    for a in (0.2, 0.4, 0.6, 0.8):   # planes x = a
        fractures.append({
            "id": fid, "aperture": 1.0, "k_tangential": [1.0, 0.0, 1.0],
            "vertices": [[a, 0, 0], [a, 1, 0], [a, 1, 1], [a, 0, 1]],
        })
        fid += 1
    for b in (0.25, 0.45, 0.65, 0.85):   # planes y = b
        fractures.append({
            "id": fid, "aperture": 1.0, "k_tangential": [1.0, 0.0, 1.0],
            "vertices": [[0, b, 0], [1, b, 0], [1, b, 1], [0, b, 1]],
        })
        fid += 1
    for c in (0.35, 0.72):   # planes z = c
        fractures.append({
            "id": fid, "aperture": 1.0, "k_tangential": [1.0, 0.0, 1.0],
            "vertices": [[0, 0, c], [1, 0, c], [1, 1, c], [0, 1, c]],
        })
        fid += 1
    # Partially immersed sheet: traces with interior tips.
    fractures.append({
        "id": fid, "aperture": 1.0, "k_tangential": [1.0, 0.0, 1.0],
        "vertices": [[0.05, 0.3, 0.55], [0.5, 0.3, 0.55],
                     [0.5, 0.7, 0.55], [0.05, 0.7, 0.55]],
    })
    fid += 1
    # Slanted rectangle x + z = 1.
    fractures.append({
        "id": fid, "aperture": 1.0, "k_tangential": [1.0, 0.0, 1.0],
        "vertices": [[1.0, 0.3, 0.0], [1.0, 0.8, 0.0],
                     [0.0, 0.8, 1.0], [0.0, 0.3, 1.0]],
    })
    return {
        "fractures": fractures,
        "boundary_conditions": [
            {"fracture": 0, "edge": 0, "type": "dirichlet", "value": 1.0},
            {"fracture": 3, "edge": 2, "type": "dirichlet", "value": 0.0},
        ],
    }


@dataclass
class LocalElement2D:
    """Reference element: one polygon's projection matrices, step by step.

    ``local_matrices_2d_ref`` builds G, F, Pi = G^-1 F and D from the
    scaled monomials ``(x - x_E) / h`` exactly as the method defines them;
    the production kernel ``vem.local_matrices_2d`` uses the closed form
    in which ``h`` and ``G`` cancel, and the tests tie the two together.
    """

    area: float
    centroid: np.ndarray
    diameter: float
    edge_len: np.ndarray
    edge_normal: np.ndarray   # outward unit normals, one row per edge dof
    edge_mid: np.ndarray
    lam: np.ndarray           # effective permeability, constant on the cell
    varsigma: float
    G: np.ndarray             # (lam grad m_i, grad m_j)_E
    F: np.ndarray
    Pi: np.ndarray            # projection coefficients, G^{-1} F
    D: np.ndarray             # dof_i(lam grad m_j)
    M: np.ndarray             # local H(div) mass matrix a_h

    @property
    def n_dof(self) -> int:
        return len(self.edge_len)

    def consistency(self) -> np.ndarray:
        return self.Pi.T @ self.G @ self.Pi


def local_matrices_2d_ref(area, centroid, diameter, edge_len, edge_normal,
                          edge_mid, lam, varsigma=1.0) -> LocalElement2D:
    """Scalar reference mixed-VEM matrices of one outward-oriented polygon."""
    lam = np.asarray(lam, float)
    if area <= 0.0 or diameter <= 0.0:
        raise SingularG(f"degenerate cell: area={area}, diameter={diameter}")
    if np.linalg.det(lam) <= 0.0:
        raise SingularG("permeability tensor is not positive definite")
    centroid = np.asarray(centroid, float)
    edge_len = np.asarray(edge_len, float)
    edge_normal = np.asarray(edge_normal, float)
    edge_mid = np.asarray(edge_mid, float)

    G = (area / diameter**2) * lam
    # f_w = -(1/|E|)(1, m)_E + (1/|e_w|)(1, m)_{e_w}; the first term
    # vanishes because the monomials are centred at the centroid.
    F = ((edge_mid - centroid) / diameter).T
    Pi = np.linalg.solve(G, F)
    D = edge_len[:, None] * (edge_normal @ lam) / diameter
    R = np.eye(len(edge_len)) - D @ Pi
    M = Pi.T @ G @ Pi + varsigma * (R.T @ R)
    M = 0.5 * (M + M.T)
    return LocalElement2D(
        area=float(area), centroid=centroid, diameter=float(diameter),
        edge_len=edge_len, edge_normal=edge_normal, edge_mid=edge_mid,
        lam=lam, varsigma=float(varsigma), G=G, F=F, Pi=Pi, D=D, M=M,
    )


def project_velocity_ref(elem: LocalElement2D, fluxes) -> np.ndarray:
    """Reference projected velocity ``lam Pi u / h`` in the 2D frame."""
    return elem.lam @ (elem.Pi @ np.asarray(fluxes, float)) / elem.diameter


def polygon_geometry(pts):
    """Exact area, centroid, diameter, edge lengths, outward normals and
    edge midpoints of a counterclockwise polygon, in the argument order of
    ``local_matrices_2d_ref``."""
    nxt = np.roll(pts, -1, axis=0)
    cross = pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]
    area = 0.5 * cross.sum()
    centroid = ((pts + nxt) * cross[:, None]).sum(axis=0) / (6 * area)
    e = nxt - pts
    elen = np.linalg.norm(e, axis=1)
    normal = np.column_stack([e[:, 1], -e[:, 0]]) / elen[:, None]
    diam = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1).max())
    return area, centroid, diam, elen, normal, 0.5 * (pts + nxt)


@functools.cache
def traced_triangulations():
    """``{name: (mesh, polygon, traces)}`` of triangulations with traces,
    polygon and ``(gid, p0, p1)`` traces in frame coordinates: four
    squares with one partial trace, both fractures of
    ``crossing_rectangles``, and a square with a T-junction and a trace
    along its boundary."""
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    out = {}
    rng = np.random.default_rng(7)
    for seed in range(4):
        y = rng.uniform(0.2, 0.8)
        traces = [(0, [rng.uniform(0, 0.3), y], [rng.uniform(0.6, 1), y])]
        out[f"triangulated-{seed}"] = (msh.triangulate(
            square, traces, h_target=rng.uniform(0.06, 0.2), seed=seed),
            square, traces)
    net = crossing_rectangles()
    for frac, h in zip(net.fractures, (0.3, 0.17)):
        lines = net.traces_of(frac.id)
        traces = [(ln.id, frac.frame.to_local(ln.p0), frac.frame.to_local(ln.p1))
                  for ln in lines]
        out[f"crossing-{frac.id}"] = (msh.triangulate_fracture(frac, lines, h),
                                      frac.local_polygon, traces)
    traces = [(0, [0.2, 0.5], [0.8, 0.5]), (1, [0.5, 0.5], [0.5, 0.9]),
              (2, [0.0, 0.1], [0.0, 0.7])]
    out["t-junction"] = (msh.triangulate(square, traces, h_target=0.15),
                         square, traces)
    return out


def trace_edges_ref(mesh, polygon, traces):
    """Each edge's trace id from geometry alone: ``gid`` when both of its
    nodes lie within ``1e-9 * diag`` of trace ``gid``'s segment, else -1."""
    polygon = np.asarray(polygon, float)
    tol = 1e-9 * np.linalg.norm(polygon.max(0) - polygon.min(0))
    out = np.full(mesh.n_edges, -1)
    for gid, p0, p1 in traces:
        on = np.array([point_segment_distance_ref(p, p0, p1) <= tol
                       for p in mesh.nodes])
        along = on[mesh.edge_nodes].all(axis=1)
        assert (out[along] < 0).all(), "an edge lies on two traces"
        out[along] = gid
    return out


@functools.cache
def oracle_meshes():
    """Triangulations with traces, random quads, corefined meshes with
    hanging nodes, and agglomerated meshes (explicit areas, unchained
    cells), each with the agglomerates also stripped of their explicit
    geometry so their many-edge loops go through the batched sums."""
    from dfnvem import coarsening as coa

    def bare(m):
        return msh.PolyMesh(m.nodes, m.edge_nodes, m.cell_ptr, m.cell_edge,
                            m.cell_sign, edge_trace=m.edge_trace)

    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    out = {name: mesh for name, (mesh, _, _) in traced_triangulations().items()
           if name.startswith("triangulated-")}
    out["random-quads"] = msh.random_mesh(12, seed=5)
    out["cartesian"] = msh.cartesian_mesh(4, 3)
    net = crossing_rectangles()
    meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), h)
              for f, h in zip(net.fractures, (0.3, 0.17))}
    tms, meshes = msh.corefine_network(meshes, net)
    # The split mesh carries its fine geometry; it is dropped so that the
    # loops with hanging nodes go through the batched sums.
    out["corefined-split"] = bare(msh.split_interface_dofs(meshes[0], tms, 0))
    # Seed 9 at depth 4 leaves one coarse cell whose edges do not chain.
    y = np.random.default_rng(9).uniform(0.3, 0.7)
    tips = [[0.2, y], [0.7, y], [0.5, 0.1], [0.5, 0.35]]
    tri = msh.triangulate(square, [(0, tips[0], tips[1]), (1, *tips[2:])],
                          h_target=0.08, seed=9)
    for depth in (2, 4):
        coarse, _ = coa.agglomerate(tri, tips_local=tips, c_depth=depth)
        out[f"agglomerated-{depth}"] = coarse
        out[f"agglomerated-{depth}-bare"] = bare(coarse)
    return out


ORACLE_MESHES = ["triangulated-0", "triangulated-1", "triangulated-2",
                 "triangulated-3", "random-quads", "cartesian",
                 "corefined-split", "agglomerated-2", "agglomerated-2-bare",
                 "agglomerated-4", "agglomerated-4-bare"]


# ------------------------------------------------------------------ #
# Per-cell lists.  ``PolyMesh`` stores its cells as flat arrays; the
# references below read them as one edge array and one sign array per
# cell, so that they stay apart from the array code they check.
# ------------------------------------------------------------------ #

def cell_lists(mesh):
    """Per-cell edge ids and traversal signs, two lists of arrays."""
    ptr = mesh.cell_ptr[1:-1]
    return np.split(mesh.cell_edge, ptr), np.split(mesh.cell_sign, ptr)


def cell_of(mesh, k):
    """Cell ``k``'s edge ids and traversal signs."""
    at = slice(mesh.cell_ptr[k], mesh.cell_ptr[k + 1])
    return mesh.cell_edge[at], mesh.cell_sign[at]


def mesh_from_lists(nodes, edge_nodes, cells, cell_signs, **kw):
    """A ``PolyMesh`` from per-cell edge and sign lists."""
    ptr = np.zeros(len(cells) + 1, int)
    np.cumsum([len(c) for c in cells], out=ptr[1:])
    return msh.PolyMesh(nodes, edge_nodes, ptr,
                        np.concatenate([np.zeros(0, int), *cells]),
                        np.concatenate([np.zeros(0, int), *cell_signs]), **kw)


def copy_mesh(mesh):
    """A mesh equal to ``mesh`` that shares no array with it."""
    return msh.PolyMesh(**{k: v.copy() if isinstance(v, np.ndarray) else v
                           for k, v in mesh.fields.items()})


def outward_normals_of_cell(mesh, k):
    """``PolyMesh.outward_normals`` of cell ``k``'s entries."""
    return mesh.outward_normals(np.arange(mesh.cell_ptr[k], mesh.cell_ptr[k + 1]))


def split_edges_ref(mesh, splits):
    """``meshing._split_fields`` one edge at a time on per-cell lists.

    Returns a new mesh; ``mesh`` is left unchanged.
    """
    cells, cell_signs = cell_lists(mesh)
    nodes, edge_nodes = mesh.nodes.copy(), mesh.edge_nodes.copy()
    edge_cells = mesh.edge_cells
    n_nodes, n_edges = mesh.n_nodes, mesh.n_edges
    new_pts, new_pairs, parents = [], [], []
    for eid, points in splits:
        points = np.atleast_2d(points)
        chain = [edge_nodes[eid, 0]]
        chain += range(n_nodes, n_nodes + len(points))
        chain.append(edge_nodes[eid, 1])
        n_nodes += len(points)
        pairs = list(zip(chain[:-1], chain[1:]))
        edge_nodes[eid] = pairs[0]
        first = n_edges + len(new_pairs)
        sub_edges = [eid, *range(first, first + len(pairs) - 1)]
        new_pts.append(points)
        new_pairs.extend(pairs[1:])
        parents.extend([eid] * (len(pairs) - 1))
        for k in {int(c) for c in edge_cells[eid] if c >= 0}:
            es, ss = cells[k], cell_signs[k]
            pos = int(np.flatnonzero(es == eid)[0])
            sign = int(ss[pos])
            ins_edges = sub_edges if sign > 0 else sub_edges[::-1]
            cells[k] = np.concatenate(
                [es[:pos], ins_edges, es[pos + 1:]]
            ).astype(int)
            cell_signs[k] = np.concatenate(
                [ss[:pos], [sign] * len(ins_edges), ss[pos + 1:]]
            ).astype(np.int8)
    parents = np.asarray(parents, int)
    return mesh_from_lists(
        np.vstack([nodes, *new_pts]),
        np.vstack([edge_nodes, np.reshape(new_pairs, (-1, 2))]),
        cells, cell_signs, frame=mesh.frame,
        edge_trace=np.concatenate([mesh.edge_trace, mesh.edge_trace[parents]]),
        edge_trace_elem=np.concatenate([mesh.edge_trace_elem,
                                        mesh.edge_trace_elem[parents]]),
        edge_trace_side=np.concatenate([mesh.edge_trace_side,
                                        mesh.edge_trace_side[parents]]))


# ------------------------------------------------------------------ #
# Per-cell reference geometry and coarsening.  These are the loops that
# ``meshing.PolyMesh`` and ``coarsening`` replaced with batched array code;
# the tests require the batched results to equal them.
# ------------------------------------------------------------------ #

def loop_nodes_ref(mesh, k):
    """Tail node of each of cell ``k``'s edges, in its stored order."""
    es, ss = cell_of(mesh, k)
    ends = mesh.edge_nodes[es].tolist()
    signs = ss.tolist()
    return [a if s > 0 else b for (a, b), s in zip(ends, signs)]


def in_order_sum(x):
    """The sum over the first axis of ``x``, one term after the other:
    the order in which ``PolyMesh`` sums a cell's entries."""
    return np.cumsum(x, axis=0)[-1]


def loop_ref(mesh, k):
    """Cell ``k``'s loop points ``p``, their successors ``q`` and the
    cross products ``p x q``, in entry order."""
    pts = mesh.nodes[loop_nodes_ref(mesh, k)]
    nxt = np.concatenate([pts[1:], pts[:1]])
    return pts, nxt, pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]


def cell_areas_ref(mesh):
    return np.array([0.5 * in_order_sum(loop_ref(mesh, k)[2])
                     for k in range(mesh.n_cells)])


def cell_centroids_ref(mesh):
    cen = np.empty((mesh.n_cells, 2))
    for k in range(mesh.n_cells):
        pts, nxt, cr = loop_ref(mesh, k)
        cen[k] = (in_order_sum((pts + nxt) * cr[:, None])
                  / (3 * in_order_sum(cr)))
    return cen


def geometry_ref(mesh):
    """Areas and centroids, the explicit ones of an agglomerated mesh."""
    given = mesh.given_geometry
    areas = given["areas"] if "areas" in given else cell_areas_ref(mesh)
    cen = given["centroids"] if "centroids" in given else cell_centroids_ref(mesh)
    return areas, cen


def velocity_ref(mesh, fluxes):
    """Per cell, ``|E|^-1 sum_e (x_e - x_E) u_e`` over its entries in
    entry order, from outward ``fluxes`` per entry."""
    areas, centroids = geometry_ref(mesh)
    vel = np.empty((mesh.n_cells, 2))
    for k in range(mesh.n_cells):
        es, _ = cell_of(mesh, k)
        at = slice(mesh.cell_ptr[k], mesh.cell_ptr[k + 1])
        delta = mesh.edge_mid[es] - centroids[k]
        vel[k] = in_order_sum(delta * fluxes[at, None]) / areas[k]
    return vel


def cell_diameters_ref(mesh):
    cells, _ = cell_lists(mesh)
    diam = np.empty(mesh.n_cells)
    for k in range(mesh.n_cells):
        pts = mesh.nodes[np.unique(mesh.edge_nodes[cells[k]])]
        diam[k] = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1).max())
    return diam


def edge_cells_ref(mesh):
    ec = np.full((mesh.n_edges, 2), -1, int)
    for k, es in enumerate(cell_lists(mesh)[0]):
        for e in es:
            if ec[e, 0] < 0:
                ec[e, 0] = k
            elif ec[e, 1] < 0:
                ec[e, 1] = k
            else:
                raise AssertionError(f"edge {e} bounds more than two cells")
    return ec


def cell_outward_normals_ref(mesh, k):
    es, ss = cell_of(mesh, k)
    a, b = mesh.edge_nodes[es, 0], mesh.edge_nodes[es, 1]
    t = (mesh.nodes[b] - mesh.nodes[a]) / mesh.edge_len[es][:, None]
    nrm = np.column_stack([t[:, 1], -t[:, 0]])
    return nrm * np.asarray(ss, float)[:, None]


def tpfa_matrix_ref(mesh, lam):
    """The TPFA strength matrix, one half transmissibility at a time."""
    from scipy import sparse

    from dfnvem import coarsening as coa

    n = mesh.n_cells
    _, centroids = geometry_ref(mesh)
    lam_c = np.broadcast_to(coa._cell_lambda(lam, centroids), (n, 2, 2))

    def half_trans(cell, eid, nrm):
        d = mesh.edge_mid[eid] - centroids[cell]
        alpha = mesh.edge_len[eid] * float(nrm @ (lam_c[cell] @ d)) / float(d @ d)
        return max(alpha, 1e-12 * mesh.edge_len[eid])

    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    normal_of = {}
    cells, _ = cell_lists(mesh)
    for k in range(n):
        nrm = cell_outward_normals_ref(mesh, k)
        for pos, e in enumerate(cells[k]):
            normal_of[(k, int(e))] = nrm[pos]
    ec = edge_cells_ref(mesh)
    for e in range(mesh.n_edges):
        c0, c1 = ec[e]
        on_trace = mesh.edge_trace[e] >= 0
        if c0 >= 0 and c1 >= 0 and not on_trace:
            a0 = half_trans(int(c0), e, normal_of[(int(c0), e)])
            a1 = half_trans(int(c1), e, normal_of[(int(c1), e)])
            T = a0 * a1 / (a0 + a1)
            rows += [int(c0), int(c1)]
            cols += [int(c1), int(c0)]
            vals += [-T, -T]
            diag[int(c0)] += T
            diag[int(c1)] += T
        else:
            for c in (c0, c1):
                if c >= 0:
                    diag[int(c)] += half_trans(int(c), e, normal_of[(int(c), e)])
    rows += list(range(n))
    cols += list(range(n))
    vals += list(diag)
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    A.sum_duplicates()
    return A


def strong_sets_ref(A, eps_str):
    S = [set() for _ in range(A.shape[0])]
    for i in range(A.shape[0]):
        cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
        vals = A.data[A.indptr[i]:A.indptr[i + 1]]
        neg = vals < 0
        if not neg.any():
            continue
        thresh = eps_str * (-vals[neg]).max()
        for j, v in zip(cols[neg], vals[neg]):
            if -v >= thresh and j != i:
                S[i].add(int(j))
    return S


def aggregate_ref(A):
    """``solver``'s aggregation of ``A`` on a CSR strength pattern, with
    one ``np.maximum.reduceat`` over every row for each maximum: the
    aggregate of each node, and the aggregate count."""
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    d = np.abs(A.diagonal())
    keep = A.data ** 2 >= slv.STRENGTH ** 2 * d[rows] * d[A.indices]
    indptr = np.zeros(n + 1, A.indptr.dtype)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
    indices = A.indices[keep]

    def neighbour_max(v):
        return np.maximum.reduceat(np.take(v, indices), indptr[:-1])

    prio = np.random.default_rng(n).permutation(n).astype(np.int32)
    v = prio.copy()             # undecided: prio, root: n + prio, out: -1
    undecided = np.ones(n, bool)
    while undecided.any():
        m = neighbour_max(neighbour_max(v))
        v[undecided & (m >= n)] = -1
        v[undecided & (m == prio)] += n
        undecided = (v >= 0) & (v < n)
    roots = np.flatnonzero(v >= n)
    agg = np.full(n, -1)
    agg[roots] = np.arange(len(roots))
    node_of = np.argsort(prio)
    while (agg < 0).any():
        best = neighbour_max(np.where(agg >= 0, prio, -1))
        join = (agg < 0) & (best >= 0)
        agg[join] = agg[node_of[best[join]]]
    return agg, len(roots)


def cell_trace_sides_ref(mesh):
    out = [set() for _ in range(mesh.n_cells)]
    ec = edge_cells_ref(mesh)
    _, centroids = geometry_ref(mesh)
    for e in np.where(mesh.edge_trace >= 0)[0]:
        a, b = mesh.edge_nodes[e]
        t = mesh.nodes[b] - mesh.nodes[a]
        for c in ec[e]:
            if c >= 0:
                d = centroids[int(c)] - mesh.edge_mid[e]
                side = 1 if t[0] * d[1] - t[1] * d[0] > 0 else -1
                out[int(c)].add((int(mesh.edge_trace[e]), side))
    return {c: sides for c, sides in enumerate(out) if sides}


def tip_cells_ref(mesh, tips_local):
    if tips_local is None or len(tips_local) == 0:
        return []
    tips_local = np.atleast_2d(np.asarray(tips_local, float))
    tol = 1e-9 * np.linalg.norm(mesh.nodes.max(0) - mesh.nodes.min(0))
    out = []
    cells, _ = cell_lists(mesh)
    for k in range(mesh.n_cells):
        es = cells[k]
        if not (mesh.edge_trace[es] >= 0).any():
            continue
        pts = mesh.nodes[np.unique(mesh.edge_nodes[es])]
        d = np.linalg.norm(pts[:, None, :] - tips_local[None, :, :], axis=2)
        if d.min() < tol:
            out.append(k)
    return out


# ------------------------------------------------------------------ #
# Sequential coarsening pieces.  ``coarsening`` runs the C/F split on
# flat lists and a lazy-decrement queue, the fine-cell attachment as one
# row-wise selection and the loop chaining by pointer jumping over all
# coarse cells; these are the versions they replaced, kept as oracles.
# ------------------------------------------------------------------ #

def _row_lists(n: int, rows: np.ndarray, cols: np.ndarray) -> list:
    """``out[i]``: the ``cols`` of the entries with ``rows == i``, in their
    order; ``rows`` must be sorted."""
    cols = cols.tolist()
    ptr = np.searchsorted(rows, np.arange(n + 1)).tolist()
    return [cols[a:b] for a, b in zip(ptr[:-1], ptr[1:])]


def cf_split_ref(strength, eps_str: float = 0.25,
                 premark_c=()) -> np.ndarray:
    """``coarsening.cf_split`` with one row list per cell and a heap that
    takes a push on every change of weight, raised or lowered."""
    if not 0.0 < eps_str < 1.0:
        raise ValueError("eps_str must lie in (0, 1)")
    n = strength.n
    A = strength.A
    strong = strength.strong_sets(eps_str)
    rows = np.repeat(np.arange(n), np.diff(A.indptr))[strong]
    cols = A.indices[strong]
    S = _row_lists(n, rows, cols)
    by_col = np.argsort(cols, kind="stable")
    ST = _row_lists(n, cols[by_col], rows[by_col])   # ascending rows
    UNDECIDED, FINE, COARSE = -1, 0, 1
    labels = [UNDECIDED] * n
    lam = [len(t) for t in ST]
    # Heap keys i - lam[i] * n order by largest weight, then lowest index.
    heap = []
    push = heapq.heappush

    def mark_coarse(i):
        labels[i] = COARSE
        for k in S[i]:
            if labels[k] == UNDECIDED:
                lam[k] -= 1
                push(heap, k - lam[k] * n)
        for j in ST[i]:
            if labels[j] == UNDECIDED:
                labels[j] = FINE
                for k in S[j]:
                    if labels[k] == UNDECIDED:
                        lam[k] += 1
                        push(heap, k - lam[k] * n)

    for i in range(n):
        if not S[i] and not ST[i]:
            labels[i] = COARSE
    premark = [int(i) for i in sorted(set(premark_c)) if labels[i] == UNDECIDED]
    for i in premark:
        labels[i] = COARSE
    for i in premark:
        mark_coarse(i)
    heap += [i - lam[i] * n for i in range(n) if labels[i] == UNDECIDED]
    heapq.heapify(heap)
    while heap:
        key = heapq.heappop(heap)
        i = key % n
        if labels[i] == UNDECIDED and key == i - lam[i] * n:   # not stale
            mark_coarse(i)
    return np.array(labels)


def cf_split_sets_ref(strength, eps_str: float = 0.25,
                      premark_c=()) -> np.ndarray:
    """Coarse/fine labelling by strong negative couplings.

    Repeatedly picks the undecided cell maximizing
    ``#(S_i^T & U) + 2 #(S_i^T & F)`` (ties to the lowest index), marks
    it coarse and its strong dependents fine.  Cells without strong
    couplings in either direction become coarse.  Returns 1 for C, 0
    for F.
    """
    if not 0.0 < eps_str < 1.0:
        raise ValueError("eps_str must lie in (0, 1)")
    n = strength.n
    S = strength.strong_sets(eps_str)
    ST = [[] for _ in range(n)]   # ascending, as i runs upwards
    for i in range(n):
        for j in S[i]:
            ST[j].append(i)
    UNDECIDED, FINE, COARSE = -1, 0, 1
    labels = np.full(n, UNDECIDED, np.int8)
    lam = np.array([len(ST[i]) for i in range(n)], float)

    def mark_coarse(i):
        labels[i] = COARSE
        for k in S[i]:
            if labels[k] == UNDECIDED:
                lam[k] -= 1.0
                heapq.heappush(heap, (-lam[k], k))
        for j in ST[i]:
            if labels[j] == UNDECIDED:
                mark_fine(j)

    def mark_fine(j):
        labels[j] = FINE
        for k in S[j]:
            if labels[k] == UNDECIDED:
                lam[k] += 1.0
                heapq.heappush(heap, (-lam[k], k))

    heap = []
    for i in np.where([len(S[i]) == 0 and len(ST[i]) == 0 for i in range(n)])[0]:
        labels[i] = COARSE
    premark = [int(i) for i in sorted(set(premark_c)) if labels[i] == UNDECIDED]
    for i in premark:
        labels[i] = COARSE
    for i in premark:
        mark_coarse(i)
    for i in sorted(np.where(labels == UNDECIDED)[0]):
        heapq.heappush(heap, (-lam[i], int(i)))
    while heap:
        neg, i = heapq.heappop(heap)
        if labels[i] != UNDECIDED or -neg != lam[i]:
            continue
        mark_coarse(i)
    # Anything untouched (only positive couplings) becomes coarse.
    labels[labels == UNDECIDED] = COARSE
    return labels.astype(int)


_NO_SIDES = frozenset()


def attach_fine_ref(strength, S, labels, trace_sides) -> np.ndarray:
    """Merge each F cell into a C neighbour without mixing trace sides.

    ``trace_sides`` and the coarse cells' labels omit empty label sets.
    """
    n = strength.n
    A = strength.A
    part = np.full(n, -1, int)
    group_sides = {}
    next_id = 0
    for i in np.where(labels == 1)[0]:
        part[i] = next_id
        if i in trace_sides:
            group_sides[next_id] = set(trace_sides[i])
        next_id += 1

    def conflict(gid_set, add):
        s = gid_set | add
        return any((g, 1) in s and (g, -1) in s for g, _ in s)

    for i in np.where(labels == 0)[0]:
        i = int(i)
        cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
        vals = A.data[A.indptr[i]:A.indptr[i + 1]]
        cand = []
        for j, v in zip(cols, vals):
            j = int(j)
            if j == i or labels[j] != 1 or v >= 0:
                continue
            in_strong = 1 if j in S[i] else 0
            cand.append((-in_strong, v, j))  # strong first, then most negative
        cand.sort()
        sides = trace_sides.get(i, _NO_SIDES)
        placed = False
        for _, _, j in cand:
            g = part[j]
            if conflict(group_sides.get(g, _NO_SIDES), sides):
                continue
            part[i] = g
            if sides:
                group_sides[g] = group_sides.get(g, _NO_SIDES) | sides
            placed = True
            break
        if not placed:
            part[i] = next_id
            if sides:
                group_sides[next_id] = set(sides)
            next_id += 1
    # Renumber by first appearance for determinism.
    _, first, inverse = np.unique(part, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def chain_loop_ref(edge_nodes, es, ss):
    """Order edges into one closed walk; None if pinched or multi-loop."""
    if len(es) == 0:
        return None
    ends = edge_nodes[es]
    tails = np.where(ss > 0, ends[:, 0], ends[:, 1]).tolist()
    heads = np.where(ss > 0, ends[:, 1], ends[:, 0]).tolist()
    start = {tail: pos for pos, tail in enumerate(tails)}
    if len(start) < len(tails):
        return None
    order, seen = [0], {0}
    for _ in range(len(es) - 1):
        pos = start.get(heads[order[-1]])
        if pos is None or pos in seen:
            return None
        order.append(pos)
        seen.add(pos)
    if heads[order[-1]] != tails[0]:
        return None
    return np.asarray(order, int)


def build_coarse_mesh_ref(mesh, part):
    ec = edge_cells_ref(mesh)
    keep = np.asarray([e for e in range(mesh.n_edges)
                       if ec[e, 1] < 0 or mesh.edge_trace[e] >= 0
                       or part[ec[e, 0]] != part[ec[e, 1]]], int)
    new_eid = -np.ones(mesh.n_edges, int)
    new_eid[keep] = np.arange(len(keep))
    n_coarse = part.max() + 1
    cell_edges = [[] for _ in range(n_coarse)]
    cell_signs = [[] for _ in range(n_coarse)]
    fine_cells, fine_signs = cell_lists(mesh)
    for k in range(mesh.n_cells):
        g = part[k]
        for e, s in zip(fine_cells[k], fine_signs[k]):
            c0, c1 = ec[e]
            other = c1 if c0 == k else c0
            if other >= 0 and part[other] == g and mesh.edge_trace[e] < 0:
                continue
            cell_edges[g].append(int(new_eid[e]))
            cell_signs[g].append(int(s))
    fine_areas, fine_centroids = geometry_ref(mesh)
    areas = np.zeros(n_coarse)
    centroids = np.zeros((n_coarse, 2))
    np.add.at(areas, part, fine_areas)
    np.add.at(centroids, part, fine_areas[:, None] * fine_centroids)
    centroids /= areas[:, None]
    used = np.unique(mesh.edge_nodes[keep])
    nid = -np.ones(mesh.n_nodes, int)
    nid[used] = np.arange(len(used))
    edge_nodes = nid[mesh.edge_nodes[keep]]
    ordered_edges, ordered_signs, chained = [], [], []
    for g in range(n_coarse):
        es = np.asarray(cell_edges[g], int)
        ss = np.asarray(cell_signs[g], np.int8)
        loop = chain_loop_ref(edge_nodes, es, ss)
        chained.append(loop is not None)
        ordered_edges.append(es if loop is None else es[loop])
        ordered_signs.append(ss if loop is None else ss[loop])
    return mesh_from_lists(
        mesh.nodes[used], edge_nodes, ordered_edges, ordered_signs,
        frame=mesh.frame, edge_trace=mesh.edge_trace[keep],
        edge_trace_elem=mesh.edge_trace_elem[keep],
        edge_trace_side=mesh.edge_trace_side[keep],
        areas=areas, centroids=centroids, chained=chained,
    )


@dataclass
class RefStrength:
    """A TPFA matrix whose strong sets are ``strong_sets_ref``'s Python
    sets, as the sequential references read them."""

    A: object

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def strong_sets(self, eps_str):
        return strong_sets_ref(self.A, eps_str)


def agglomerate_ref(mesh, tips_local=None, c_depth=1, eps_str=0.25,
                    lam=np.eye(2)):
    """``coarsening.agglomerate`` on the reference pieces above."""
    total = np.arange(mesh.n_cells)
    current = mesh
    for _ in range(c_depth):
        strength = RefStrength(A=tpfa_matrix_ref(current, lam))
        labels = cf_split_sets_ref(strength, eps_str,
                                   premark_c=tip_cells_ref(current, tips_local))
        part = attach_fine_ref(strength, strength.strong_sets(eps_str),
                               labels, cell_trace_sides_ref(current))
        if part.max() + 1 >= current.n_cells:
            break
        current = build_coarse_mesh_ref(current, part)
        total = part[total]
    return current, total


def partition_members(partition):
    """Fine cell ids of each coarse cell of a ``CoarsePartition``."""
    out = [[] for _ in range(partition.n_coarse)]
    for i, g in enumerate(partition.cell_to_coarse):
        out[int(g)].append(i)
    return out


# ------------------------------------------------------------------ #
# Geometric predicates.  ``point_in_polygon`` is the even-odd test with
# a boundary band over arrays of points, one pass per edge, that
# ``geometry._even_odd`` batches over ragged groups of polygons;
# ``segments_cross_ref`` is the one-pair form of the row-wise
# ``geometry.segments_cross``.  The ``_ref`` one-point loops are the
# formulas ``geometry.point_segment_distance`` and ``point_in_polygon``
# replaced.
# ------------------------------------------------------------------ #

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


def segments_cross_ref(a0, a1, b0, b1, tol: float) -> bool:
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


def point_segment_distance_ref(p, a, b) -> float:
    p, a, b = np.asarray(p, float), np.asarray(a, float), np.asarray(b, float)
    d = b - a
    L2 = float(d @ d)
    if L2 == 0.0:
        return float(np.linalg.norm(p - a))
    t = np.clip(float((p - a) @ d) / L2, 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * d)))


def point_on_polygon_boundary_ref(p, poly, tol) -> bool:
    n = len(poly)
    return any(point_segment_distance_ref(p, poly[i], poly[(i + 1) % n]) <= tol
               for i in range(n))


def point_in_polygon_ref(p, poly, tol) -> bool:
    """Even-odd test treating the polygon as closed (boundary counts)."""
    if point_on_polygon_boundary_ref(p, poly, tol):
        return True
    inside = False
    x, y = p
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        if (y0 > y) != (y1 > y):
            xc = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if xc > x:
                inside = not inside
    return inside


# ------------------------------------------------------------------ #
# Network set-up oracles: the pair-by-pair ``build_network`` with its
# one-pair clipping, the scanning point pool of ``triangulate`` and the
# float-by-float VTK writer that the array versions replaced.
# ------------------------------------------------------------------ #

def _same_segment_ref(a, b, tol: float) -> bool:
    d00 = np.linalg.norm(a.p0 - b.p0) + np.linalg.norm(a.p1 - b.p1)
    d01 = np.linalg.norm(a.p0 - b.p1) + np.linalg.norm(a.p1 - b.p0)
    return min(d00, d01) < tol


def fracture_contains(frac, p3, tol: float | None = None) -> bool:
    """True if the 3D point ``p3`` lies in the fracture's plane and polygon,
    within ``tol`` (default the fracture's own)."""
    tol = frac.tol if tol is None else tol
    if abs((np.asarray(p3, float) - frac.frame.origin) @ frac.frame.n) > 10 * tol:
        return False
    return point_in_polygon(frac.frame.to_local(p3), frac.local_polygon, tol)


def intersect_lines(a, b, tol: float = 1e-9):
    """Common interior point of two intersection segments, or ``None``,
    through ``geometry``'s batched crossing test; ``CollinearOverlap``
    when the segments overlap along a line."""
    parallel, loc = geo._crossings(a.p0[None], a.p1[None], b.p0[None],
                                   b.p1[None], tol)
    if parallel[0]:
        geo._check_collinear(a, b, tol)
    if np.isnan(loc[0, 0]):
        return None
    return geo.IntersectionPoint(id=-1, location=loc[0],
                                 parent_lines=(a.id, b.id))


def intersect_lines_ref(a, b, tol: float = 1e-9):
    """Common interior point of two intersection segments, or ``None``.

    Raises ``CollinearOverlap`` when the segments overlap along a line;
    crossings at segment endpoints are not reported (the model requires
    points interior to each parent line).
    """
    d1 = a.p1 - a.p0
    d2 = b.p1 - b.p0
    L1, L2 = np.linalg.norm(d1), np.linalg.norm(d2)
    r = b.p0 - a.p0
    cr = np.cross(d1 / L1, d2 / L2)
    if np.linalg.norm(cr) < geo._PARALLEL_TOL:
        if geo.point_segment_distance([b.p0, b.p1], a.p0, a.p1).min() < tol:
            u = d1 / L1
            t0, t1 = sorted([float((b.p0 - a.p0) @ u), float((b.p1 - a.p0) @ u)])
            if min(L1, t1) - max(0.0, t0) > tol:
                raise CollinearOverlap(
                    f"intersection lines {a.id} and {b.id} overlap"
                )
        return None
    M = np.array([[d1 @ d1, -(d1 @ d2)], [-(d1 @ d2), d2 @ d2]])
    rhs = np.array([r @ d1, -(r @ d2)])
    s, u = np.linalg.solve(M, rhs)
    pa = a.p0 + s * d1
    pb = b.p0 + u * d2
    if np.linalg.norm(pa - pb) > tol:
        return None
    eps1, eps2 = tol / L1, tol / L2
    if not (eps1 < s < 1 - eps1 and eps2 < u < 1 - eps2):
        return None
    return geo.IntersectionPoint(id=-1, location=0.5 * (pa + pb),
                                 parent_lines=(a.id, b.id))


def clip_line_to_polygon_ref(q0, d2, poly: np.ndarray, tol: float):
    """Parameter intervals of the line ``q0 + t*d2`` inside a 2D polygon,
    one edge at a time; ``d2`` is a unit vector.

    Works for non-convex polygons; boundary runs count as inside.
    Returns a list of (t0, t1) with t0 < t1.
    """
    q0 = np.asarray(q0, float)
    d2 = np.asarray(d2, float)
    n = len(poly)
    ts = []
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        e = b - a
        Le = np.linalg.norm(e)
        den = d2[0] * e[1] - d2[1] * e[0]
        r = a - q0
        if abs(den) <= geo._PARALLEL_TOL * Le:
            # Edge parallel to the line: if collinear, its endpoints are
            # crossing parameters.
            if abs(d2[0] * r[1] - d2[1] * r[0]) <= tol:
                for v in (a, b):
                    ts.append(float((v - q0) @ d2) / float(d2 @ d2))
            continue
        t = (r[0] * e[1] - r[1] * e[0]) / den
        u = (r[0] * d2[1] - r[1] * d2[0]) / den
        if -tol <= u * Le <= Le + tol:
            ts.append(t)
    if not ts:
        return []
    ts = sorted(ts)
    merged = [ts[0]]
    for t in ts[1:]:
        if t - merged[-1] > tol:
            merged.append(t)
    mids = q0 + 0.5 * np.add(merged[:-1], merged[1:])[:, None] * d2
    inside = point_in_polygon(mids, poly, tol)
    intervals = [iv for iv, ok in zip(zip(merged[:-1], merged[1:]), inside) if ok]
    # Fuse adjacent intervals sharing an endpoint.
    fused: list[list[float]] = []
    for t0, t1 in intervals:
        if fused and abs(fused[-1][1] - t0) <= tol:
            fused[-1][1] = t1
        else:
            fused.append([t0, t1])
    return [(lo, hi) for lo, hi in fused]


def boundary_distance_ref(frac, p3) -> float:
    """In-plane distance of the one point ``p3`` to the fracture's
    boundary."""
    q = frac.frame.to_local(p3)
    poly = frac.local_polygon
    return float(point_segment_distance(q, poly, np.roll(poly, -1, 0)).min())


def vector_to_local(frame: Frame, vec3: np.ndarray) -> np.ndarray:
    """In-plane (u, v) components of 3D vectors (shape ``(..., 3)``)."""
    q = np.atleast_2d(vec3)
    out = np.column_stack([q @ frame.t1, q @ frame.t2])
    return out[0] if np.ndim(vec3) == 1 else out


def intersect_fractures_ref(a, b, tol: float | None = None):
    """Intersection segment of two fractures, clipped to each polygon in
    turn: the one-pair code that ``geometry._intersect_pairs`` batches."""
    if tol is None:
        tol = max(a.tol, b.tol)
    na, nb = a.frame.n, b.frame.n
    cross = np.cross(na, nb)
    cn = np.linalg.norm(cross)
    if cn < geo._PARALLEL_TOL:
        off = abs((b.frame.origin - a.frame.origin) @ na)
        if off > 10 * tol:
            return None
        seg = geo._coplanar_intersection(a, b, tol)
        if seg is None:
            return None
        p0, p1 = seg
        return IntersectionLine(id=-1, p0=p0, p1=p1, parents=(a.id, b.id))
    d = cross / cn
    # Minimal-norm point on both planes.
    A = np.vstack([na, nb])
    rhs = np.array([na @ a.frame.origin, nb @ b.frame.origin])
    p0 = np.linalg.lstsq(A, rhs, rcond=None)[0]

    def clip(frac):
        q0 = frac.frame.to_local(p0)
        d2 = vector_to_local(frac.frame, d)
        nd = np.linalg.norm(d2)
        if nd < geo._PARALLEL_TOL:
            return []
        # Parameter along d (3D arclength) equals parameter along d2 / |d2|.
        return clip_line_to_polygon_ref(q0, d2 / nd, frac.local_polygon, tol)

    iva = clip(a)
    ivb = clip(b)
    best = None
    for ta0, ta1 in iva:
        for tb0, tb1 in ivb:
            lo, hi = max(ta0, tb0), min(ta1, tb1)
            if hi - lo > tol and (best is None or hi - lo > best[1] - best[0]):
                best = (lo, hi)
    if best is None:
        return None
    return IntersectionLine(id=-1, p0=p0 + best[0] * d, p1=p0 + best[1] * d,
                            parents=(a.id, b.id))


def build_network_ref(fractures: list, tol: float | None = None,
                      intersection_props: dict | None = None):
    """Every fracture pair and every line pair, merged by linear scans."""
    fractures = sorted(fractures, key=lambda f: f.id)
    if tol is None:
        pts = np.vstack([f.vertices for f in fractures])
        tol = 1e-9 * float(np.linalg.norm(pts.max(0) - pts.min(0)))
    raw = []
    for i, fa in enumerate(fractures):
        for fb in fractures[i + 1:]:
            seg = intersect_fractures_ref(fa, fb, tol)
            if seg is not None:
                raw.append(seg)
    merge_tol = max(tol * 1e3, tol)
    lines: list = []
    for seg in raw:
        for ln in lines:
            if _same_segment_ref(seg, ln, merge_tol):
                ln.parents = tuple(sorted(set(ln.parents) | set(seg.parents)))
                break
        else:
            lines.append(seg)
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

    points: list = []
    for i, la in enumerate(lines):
        for lb in lines[i + 1:]:
            pt = intersect_lines_ref(la, lb, merge_tol)
            if pt is None:
                continue
            for known in points:
                if np.linalg.norm(known.location - pt.location) < merge_tol:
                    known.parent_lines = tuple(
                        sorted(set(known.parent_lines) | set(pt.parent_lines))
                    )
                    break
            else:
                points.append(pt)
    for k, pt in enumerate(points):
        pt.id = k
    return geo.FractureNetwork(fractures=fractures, lines=lines, points=points,
                               tol=tol)


class point_pool_ref:
    """Deduplicating point registry that scans every known point."""

    def __init__(self, tol):
        self.tol = tol
        self._buf = np.empty((256, 2))
        self.n = 0

    @property
    def pts(self) -> np.ndarray:
        return self._buf[:self.n]

    def append(self, p) -> int:
        """Register ``p`` without deduplication; returns its id."""
        if self.n == len(self._buf):
            self._buf = np.concatenate([self._buf, np.empty_like(self._buf)])
        self._buf[self.n] = p
        self.n += 1
        return self.n - 1

    def add(self, p) -> int:
        """Id of the first point within ``tol`` of ``p``, else a new id."""
        # The first match wins, which keeps the numbering deterministic.
        hits = np.flatnonzero(np.linalg.norm(self.pts - p, axis=1) <= self.tol)
        return int(hits[0]) if len(hits) else self.append(p)


def _fmt_ref(x) -> str:
    """One float's fixed-width field, which starts with a space."""
    return "%24.15e" % float(x)


def export_vtk_ref(problem, solution, path) -> None:
    """Legacy-ASCII unstructured grid of all fracture meshes in 3D.

    Cells are POLYGONs carrying pressure and the projected velocity.
    Agglomerated cells whose boundary cannot be chained into one loop
    are skipped (their member triangles are only a visual aid anyway).
    """
    points, polys, pvals, vvals = [], [], [], []
    for fid in sorted(problem.meshes):
        mesh = problem.meshes[fid]
        base = len(points)
        pts3 = mesh.frame.to_global(mesh.nodes)
        points.extend(pts3)
        tail = (mesh.entry_tail + base).tolist()
        ptr = mesh.cell_ptr.tolist()
        for k in np.flatnonzero(mesh.chained).tolist():
            polys.append(tail[ptr[k]:ptr[k + 1]])
            pvals.append(float(solution.pressure[fid][k]))
            vvals.append(solution.velocity[fid][k])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("# vtk DataFile Version 4.2\n")
        fh.write("dfnvem fracture fields\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(points)} double\n")
        for p in points:
            fh.write("".join(_fmt_ref(v) for v in p) + "\n")
        total = sum(len(c) + 1 for c in polys)
        fh.write(f"CELLS {len(polys)} {total}\n")
        for c in polys:
            fh.write(" ".join(str(v) for v in [len(c)] + c) + "\n")
        fh.write(f"CELL_TYPES {len(polys)}\n")
        fh.write("\n".join(["7"] * len(polys)) + "\n")
        fh.write(f"CELL_DATA {len(polys)}\n")
        fh.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        fh.write("\n".join(_fmt_ref(v) for v in pvals) + "\n")
        fh.write("VECTORS velocity double\n")
        for v in vvals:
            fh.write("".join(_fmt_ref(c) for c in v) + "\n")


def export_line_vtk_ref(problem, solution, path) -> None:
    """Intersection polylines with their trace pressures."""
    points, lines, vals = [], [], []
    for gid, tm in sorted(problem.traces.items()):
        base = len(points)
        pts = [tm.line.p0 + t * tm.line.direction for t in tm.breakpoints]
        points.extend(pts)
        for j in range(tm.n_elems):
            lines.append((base + j, base + j + 1))
            vals.append(float(solution.trace_pressure[gid][j]))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("# vtk DataFile Version 4.2\n")
        fh.write("dfnvem intersection fields\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(points)} double\n")
        for p in points:
            fh.write("".join(_fmt_ref(v) for v in p) + "\n")
        fh.write(f"CELLS {len(lines)} {3 * len(lines)}\n")
        for a, b in lines:
            fh.write(f"2 {a} {b}\n")
        fh.write(f"CELL_TYPES {len(lines)}\n")
        fh.write("\n".join(["3"] * len(lines)) + "\n")
        fh.write(f"CELL_DATA {len(lines)}\n")
        fh.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        fh.write("\n".join(_fmt_ref(v) for v in vals) + "\n")


def export_partition_csv_ref(partition, path) -> None:
    """cell id -> coarse id map, one ``csv.writer`` row per cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["cell", "coarse"])
        for i, g in enumerate(partition.cell_to_coarse):
            writer.writerow([i, int(g)])


def network_outcome(build, fractures, **kw) -> tuple:
    """Everything ``build`` decides about the network of ``fractures``:
    its lines, points and tolerance, or the type and message it raised."""
    try:
        net = build(fractures, **kw)
    except DfnError as exc:
        return type(exc), str(exc)
    lines = tuple((ln.id, ln.p0.tobytes(), ln.p1.tobytes(), ln.parents,
                   ln.k_hat, ln.k_tilde) for ln in net.lines)
    points = tuple((pt.id, pt.location.tobytes(), pt.parent_lines)
                   for pt in net.points)
    return lines, points, net.tol


# ------------------------------------------------------------------ #
# Constraint meshing and co-refinement one piece at a time: the grid
# point pool that registers points one by one, ``triangulate`` with its
# per-segment subdivision, pairwise trace crossings and per-segment
# lattice filter, and ``corefine_network`` with one edge split and one
# ``param_of`` call per point for each line.  The array versions in
# ``dfnvem.meshing`` must give the same arrays bit for bit.
# ------------------------------------------------------------------ #

class grid_pool_ref:
    """Deduplicating point registry for the PSLG.

    Point ids are hashed on a grid of square cells of side ``2 * tol``:
    two points within ``tol`` of each other lie in the same or in
    neighbouring cells, even after the rounding of the cell index.
    """

    def __init__(self, tol):
        self.tol = tol
        self._side = 2.0 * tol
        self._grid = {}
        self._xy = []  # x0, y0, x1, y1, ...

    @property
    def pts(self) -> np.ndarray:
        return np.array(self._xy, float).reshape(-1, 2)

    def extend(self, pts: np.ndarray) -> None:
        """Register the rows of ``pts`` without deduplication."""
        side, grid = self._side, self._grid
        for i, (x, y) in enumerate(pts.tolist(), start=len(self._xy) // 2):
            grid.setdefault((x // side, y // side), []).append(i)
        self._xy += pts.ravel().tolist()

    def add(self, p) -> int:
        """Id of the first point within ``tol`` of ``p``, else a new id."""
        return self.add_rows(np.reshape(p, (1, 2)))[0]

    def add_rows(self, pts: np.ndarray) -> list:
        """``add`` of each row of ``pts`` in turn."""
        from math import sqrt
        side, grid, xy, tol = self._side, self._grid, self._xy, self.tol
        ids = []
        for x, y in pts.tolist():
            kx, ky = x // side, y // side
            # The lowest id wins, which keeps the numbering deterministic.
            # The distance is np.linalg.norm's, rounding for rounding.
            near = sorted(i for dx in (-1.0, 0.0, 1.0) for dy in (-1.0, 0.0, 1.0)
                          for i in grid.get((kx + dx, ky + dy), ()))
            hit = next((i for i in near
                        if sqrt((xy[2 * i] - x) * (xy[2 * i] - x)
                                + (xy[2 * i + 1] - y) * (xy[2 * i + 1] - y))
                        <= tol), None)
            if hit is None:
                hit = len(xy) // 2
                grid.setdefault((kx, ky), []).append(hit)
                xy += (x, y)
            ids.append(hit)
        return ids


def close_pieces_ref(gids, ends0, ends1, tol):
    """The all-pairs conflict test of one polygon's trace pieces: the
    pairs ``i < j`` of pieces of two traces, in ``np.triu_indices``
    order, that lie between ``tol`` and ``100 * tol`` apart, and that
    distance."""
    i, j = np.triu_indices(len(gids), 1)
    pair = gids[i] != gids[j]
    i, j = i[pair], j[pair]
    a0, a1, b0, b1 = ends0[i], ends1[i], ends0[j], ends1[j]
    d = np.min([point_segment_distance(a0, b0, b1),
                point_segment_distance(a1, b0, b1),
                point_segment_distance(b0, a0, a1),
                point_segment_distance(b1, a0, a1)], axis=0)
    close = (tol < d) & (d < 100 * tol)
    return i[close], j[close], d[close]


def on_segments_ref(hard, seg0, seg1, tol):
    """The all-pairs hard-vertex test of one polygon: ``on_seg[k, v]``
    when hard vertex ``v`` lies within ``tol`` of segment ``k``."""
    return point_segment_distance(hard, seg0[:, None], seg1[:, None]) <= tol


def triangulate_ref(polygon: np.ndarray, traces=None, h_target: float = 0.1,
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

    # Split traces at mutual crossing points so constraints never cross.
    pieces = []  # (gid, q0, q1)
    for gid, p0, p1 in traces:
        p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
        cuts = [0.0, 1.0]
        for gid2, q0, q1 in traces:
            if gid2 == gid:
                continue
            q0, q1 = np.asarray(q0, float), np.asarray(q1, float)
            d1, d2 = p1 - p0, q1 - q0
            den = d1[0] * d2[1] - d1[1] * d2[0]
            if abs(den) < 1e-14:
                continue
            r = q0 - p0
            s = (r[0] * d2[1] - r[1] * d2[0]) / den
            u = (r[0] * d1[1] - r[1] * d1[0]) / den
            if -1e-12 <= s <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
                cuts.append(float(np.clip(s, 0, 1)))
        for s0, s1 in zip(sorted(set(cuts))[:-1], sorted(set(cuts))[1:]):
            if s1 - s0 > tol:
                pieces.append((gid, p0 + s0 * (p1 - p0), p0 + s1 * (p1 - p0)))

    # Conflict detection: non-touching constraints closer than tol.
    gids = np.array([gid for gid, _, _ in pieces], int)
    ends0 = np.array([q0 for _, q0, _ in pieces]).reshape(-1, 2)
    ends1 = np.array([q1 for _, _, q1 in pieces]).reshape(-1, 2)
    for i, j, d in zip(*close_pieces_ref(gids, ends0, ends1, tol)):
        if not segments_cross_ref(ends0[i], ends1[i], ends0[j], ends1[j], tol):
            raise ConstraintConflict(
                f"traces {gids[i]} and {gids[j]} are {d:.3e} apart "
                f"without meeting"
            )

    pool = grid_pool_ref(max(tol, 1e-12 * diag))
    nbv = len(polygon)
    # Hard vertices: polygon corners and trace piece endpoints.  Any
    # constraint segment passing through one (a trace ending mid-edge on
    # the boundary, a T-junction between traces) is split there first so
    # consecutive constraint points are always Delaunay-connectable.
    hard = np.vstack([polygon, ends0, ends1])
    # Constraint segments: the polygon's edges, then the trace pieces.
    seg0 = np.vstack([polygon, ends0])
    seg1 = np.vstack([np.roll(polygon, -1, 0), ends1])
    on_seg = on_segments_ref(hard, seg0, seg1, tol)

    steps = {}  # n -> np.linspace(0, 1, n + 1)[1:] as a column

    def forced_subdivide(a, b, on):
        d = b - a
        L = np.linalg.norm(d)
        u = d / L
        t = _dots(hard[on] - a, u)
        cuts = sorted({0.0, L, *t[(tol < t) & (t < L - tol)].tolist()})
        out = [a[None]]
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            # Split the piece into n parts no longer than h_target.
            p0, p1 = a + t0 * u, a + t1 * u
            n = max(1, int(np.ceil(np.linalg.norm(p1 - p0) / h_target - 1e-12)))
            if n not in steps:
                steps[n] = np.linspace(0.0, 1.0, n + 1)[1:, None]
            out.append(p0 + steps[n] * (p1 - p0))
        return np.vstack(out)

    # Chains of point ids whose consecutive pairs must become edges, with
    # the trace id they carry (-1 on the polygon).
    chains = [(gid, pool.add_rows(forced_subdivide(a, b, on)))
              for gid, a, b, on in zip([-1] * nbv + gids.tolist(), seg0, seg1,
                                       on_seg)]

    # Hexagonal interior lattice with deterministic jitter.
    rng = np.random.default_rng(seed)
    s = h_target
    lo, hi = polygon.min(0), polygon.max(0)
    rows = np.arange(lo[1] - s, hi[1] + s, s * np.sqrt(3) / 2)
    cand = []
    for j, y in enumerate(rows):
        off = 0.5 * s if j % 2 else 0.0
        xs = np.arange(lo[0] - s + off, hi[0] + s, s)
        cand.append(np.column_stack([xs, np.full(len(xs), y)]))
    cand = np.vstack(cand) if cand else np.zeros((0, 2))
    if len(cand):
        cand = cand + rng.uniform(-jitter * s, jitter * s, cand.shape)
        # Even-odd only: the distance test below drops boundary points.
        keep = np.flatnonzero(point_in_polygon(cand, polygon, -1.0))
        # One constraint segment at a time keeps memory linear in the
        # lattice size when a fracture carries many traces.
        for a, b in zip(seg0, seg1):
            keep = keep[point_segment_distance(cand[keep], a, b) >= 0.5 * s]
        # Lattice points are well separated; skip dedup.
        pool.extend(cand[keep])

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
        keys = np.unique(ends[:, [0, 1, 0]] * stride + ends[:, [1, 2, 2]])
        pairs = np.concatenate([np.column_stack([ids[:-1], ids[1:]])
                                for _, ids in chains])
        want = pairs.min(axis=1) * stride + pairs.max(axis=1)
        found = keys[np.searchsorted(keys, want) % len(keys)] == want
        if found.all():
            break
        # Split each missing pair at its midpoint, chain by chain.
        found = iter(found.tolist())
        new_chains = []
        for gid, ids in chains:
            new_ids = ids[:1]
            for a, b in zip(ids[:-1], ids[1:]):
                if not next(found):
                    new_ids.append(pool.add(0.5 * (pts[a] + pts[b])))
                new_ids.append(b)
            new_chains.append((gid, new_ids))
        chains = new_chains
    else:
        raise MeshError("constraint recovery did not converge")

    # Keep real triangles inside the polygon; after recovery constraints
    # are unions of Delaunay edges, so the centroid test is sufficient.
    real = tri.simplices[(tri.simplices < n_real).all(axis=1)]
    all_pts = np.vstack([pts, pad])
    centers = all_pts[real].mean(axis=1)
    inside = point_in_polygon(centers, polygon, tol)
    keep = real[inside]
    if not len(keep):
        raise EmptyDomain("no triangles inside the polygon")
    used = np.unique(keep)
    renum = -np.ones(len(pts), int)
    renum[used] = np.arange(len(used))
    loops = renum[keep]
    mesh = PolyMesh.from_cells(pts[used], loops, frame=frame)

    # Tag trace edges: every consecutive pair of a trace chain is one.
    gids = np.repeat([gid for gid, _ in chains],
                     [len(ids) - 1 for _, ids in chains])
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


def param_of(line: IntersectionLine, p3: np.ndarray) -> float:
    """Parameter of the point ``p3`` along ``line``, from its ``p0``."""
    return float((np.asarray(p3, float) - line.p0) @ line.direction)


def trace_draft_ref(mesh: PolyMesh, line: IntersectionLine) -> np.ndarray:
    """Breakpoint parameters of the mesh's partition of one trace."""
    eids = np.where(mesh.edge_trace == line.id)[0]
    if len(eids) == 0:
        raise InconsistentEndpoints(
            f"mesh has no edges on trace {line.id}"
        )
    nodes = np.unique(mesh.edge_nodes[eids])
    pts3 = mesh.frame.to_global(mesh.nodes[nodes])
    ts = np.sort([param_of(line, p) for p in np.atleast_2d(pts3)])
    return np.asarray(ts, float)


def apply_breakpoints_ref(mesh: PolyMesh, line: IntersectionLine,
                       breaks: np.ndarray, tol: float):
    """The mesh with its trace edges split so they match the union
    partition and tagged with their elements."""
    eids = np.where(mesh.edge_trace == line.id)[0]
    ends = mesh.frame.to_global(mesh.nodes[mesh.edge_nodes[eids].ravel()])
    ts = ((ends - line.p0) @ line.direction).reshape(-1, 2)
    splits = []
    for e, (ta, tb) in zip(eids, ts):
        lo, hi = min(ta, tb), max(ta, tb)
        inner = breaks[(breaks > lo + tol) & (breaks < hi - tol)]
        if len(inner) == 0:
            continue
        if tb < ta:
            inner = inner[::-1]
        pts3 = line.p0 + np.outer(inner, line.direction)
        splits.append((e, mesh.frame.to_local(pts3)))
    mesh = copy_mesh(msh.PolyMesh(**msh._split_fields(
        mesh, [e for e, _ in splits], [len(p) for _, p in splits],
        np.reshape([p for _, pts in splits for p in pts], (-1, 2)))))
    # Assign element indices from edge midpoints.
    eids = np.where(mesh.edge_trace == line.id)[0]
    mids3 = mesh.frame.to_global(mesh.edge_mid[eids])
    tm = np.array([param_of(line, p) for p in np.atleast_2d(mids3)])
    elems = np.searchsorted(breaks, tm) - 1
    if len(np.unique(elems)) != len(breaks) - 1 or len(eids) != len(breaks) - 1:
        raise MeshError(
            f"trace {line.id}: partition mismatch after corefinement"
        )
    mesh.edge_trace_elem[eids] = elems
    return mesh


def corefine_ref(drafts: list, length: float, tol: float) -> np.ndarray:
    """``meshing._corefine_lines`` on one line, value by value: each
    sorted breakpoint is kept when it lies more than ``tol`` past the
    last one kept."""
    for ts in drafts:
        if abs(ts[0]) > tol or abs(ts[-1] - length) > tol:
            raise InconsistentEndpoints(
                f"trace draft spans [{ts[0]:.3e}, {ts[-1]:.3e}], "
                f"expected [0, {length:.3e}]")
    allts = np.sort(np.concatenate([np.asarray(d, float) for d in drafts]))
    merged = [allts[0]]
    for t in allts[1:]:
        if t - merged[-1] > tol:
            merged.append(t)
    merged[0], merged[-1] = 0.0, length
    return np.asarray(merged)


def merge_targets_ref(n: int, pairs) -> list:
    """Entry ``q`` merges into the first kept ``p < q`` with ``(p, q)`` in
    ``pairs``, one entry after the other; each entry's target."""
    close = set(map(tuple, pairs))
    target = []
    for q in range(n):
        target.append(next((p for p in range(q) if target[p] == p
                            and (p, q) in close), q))
    return target


def corefine_network_ref(meshes: dict, network) -> tuple[dict, dict]:
    """Co-refine every trace across its parent fractures.

    Returns a ``TraceMesh`` per intersection line and the refined meshes
    (edge splits only) by fracture id; ``meshes`` is left as it is.
    Intersection points are forced into every partition.
    """
    tol = network.tol
    meshes = dict(meshes)
    out = {}
    for ln in network.lines:
        parents = [f for f in ln.parents if f in meshes]
        drafts = [trace_draft_ref(meshes[f], ln) for f in parents]
        breaks = corefine_ref(drafts, ln.length, 100 * tol)
        for pt in network.points:
            if ln.id in pt.parent_lines:
                t = param_of(ln, pt.location)
                if np.min(np.abs(breaks - t)) > 100 * tol:
                    breaks = np.sort(np.append(breaks, t))
        tm = msh.TraceMesh(gamma=ln.id, line=ln, breakpoints=breaks)
        for pt in network.points:
            if ln.id in pt.parent_lines:
                t = param_of(ln, pt.location)
                idx = int(np.argmin(np.abs(breaks - t)))
                tm.xi_breaks.append((idx, pt.id))
        for f in parents:
            meshes[f] = apply_breakpoints_ref(meshes[f], ln, breaks, 100 * tol)
            eids = np.where(meshes[f].edge_trace == ln.id)[0]
            order = np.argsort(meshes[f].edge_trace_elem[eids])
            tm.edges[f] = eids[order]
        out[ln.id] = tm
    return out, meshes
