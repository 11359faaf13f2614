"""Shared builders for the assembly/solver/case tests."""

from dataclasses import dataclass

import numpy as np

from dfnvem import assembly as asm
from dfnvem import geometry as geo
from dfnvem import meshing as msh
from dfnvem import solver as slv
from dfnvem.errors import SingularG


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
        lam=None, bcs=None, point_sources=(), method="direct"):
    """Full pipeline: prepare, number, assemble, apply BCs, solve."""
    problem = asm.prepare_problem(network, meshes, lam=lam, source=f,
                                  line_source=f_hat,
                                  point_sources=point_sources)
    dofs = asm.build_dof_map(problem, model)
    if bcs is None:
        g = g if g is not None else (lambda fid, x: 0.0)
        bcs = asm.BoundarySpec.dirichlet(g, g_hat)
    assemble = asm.assemble_cc if model == "cc" else asm.assemble_dc
    system = assemble(problem, dofs, bcs)
    report = slv.solve(system, method=method)
    return problem, dofs, system, asm.extract_solution(system, report.x), report


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
