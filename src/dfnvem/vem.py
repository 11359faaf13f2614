"""Lowest-order mixed virtual element local kernels.

Flux degrees of freedom are edge-integrated normal fluxes,
``dof_e(v) = int_e v . n ds``, pressures are cell averages.  Interior
basis functions are never evaluated: the local H(div)-mass matrix is
assembled from the projection onto ``lam * grad(P1)`` plus a dof-based
stabilization.  All quantities live in the 2D fracture frame; mapping to
3D happens through the fracture's ``Frame``.

Cell integrals of linear functions use the centroid rule and edge
integrals the midpoint rule; both are exact for the (linear) monomials,
which makes the algebraic identities below hold to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularG

__all__ = [
    "LocalElement2D",
    "LocalElement1D",
    "local_matrices_2d",
    "local_matrices_1d",
    "project_velocity",
    "stabilization_parameter",
]


@dataclass
class LocalElement2D:
    """Geometry and local matrices of one polygonal face element."""

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


def local_matrices_2d(area: float, centroid: np.ndarray, diameter: float,
                      edge_len: np.ndarray, edge_normal: np.ndarray,
                      edge_mid: np.ndarray, lam: np.ndarray,
                      varsigma: float = 1.0) -> LocalElement2D:
    """Local mixed-VEM matrices for one polygon with outward-oriented dofs.

    ``centroid`` must be the exact area centroid so the interior moment of
    the monomials vanishes.  The local divergence of each basis function
    is ``1/|E|``; the assembly applies orientation signs.

    Raises ``SingularG`` for degenerate geometry.
    """
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
    M = 0.5 * (M + M.T)  # exact symmetry for the global scatter
    return LocalElement2D(
        area=float(area), centroid=centroid, diameter=float(diameter),
        edge_len=edge_len, edge_normal=edge_normal, edge_mid=edge_mid,
        lam=lam, varsigma=float(varsigma), G=G, F=F, Pi=Pi, D=D, M=M,
    )


def project_velocity(elem: LocalElement2D, fluxes: np.ndarray, frame=None):
    """Projected velocity at the cell centre from outward-oriented dofs.

    The projection expands as ``sum_j s_j lam grad m_j`` with
    ``s = Pi @ fluxes``; it is constant on the cell.  With a ``frame`` the
    vector is returned in 3D coordinates, otherwise in the 2D frame.
    """
    s = elem.Pi @ np.asarray(fluxes, float)
    v2 = elem.lam @ s / elem.diameter
    if frame is None:
        return v2
    return frame.vector_to_global(v2)


@dataclass
class LocalElement1D:
    """Local matrices of one intersection segment element.

    Dofs are endpoint values of the tangential flux, oriented outward
    from the element.  The closed forms are

        consistency  = h / (4 lam_hat) [[1, -1], [-1, 1]]
        stabilization = 1/2 [[1, 1], [1, 1]]  scaled by  h / lam_hat.
    """

    h: float
    lam_hat: float
    consistency: np.ndarray
    stabilization: np.ndarray
    varsigma_hat: float
    M: np.ndarray


def local_matrices_1d(h: float, lam_hat: float) -> LocalElement1D:
    """Closed-form 1D mixed-VEM matrices with stabilization h/lam_hat."""
    if h <= 0.0 or lam_hat <= 0.0:
        raise SingularG(f"invalid segment element: h={h}, lam_hat={lam_hat}")
    consistency = (h / (4.0 * lam_hat)) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    stab = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    varsigma_hat = h / lam_hat
    return LocalElement1D(
        h=float(h), lam_hat=float(lam_hat), consistency=consistency,
        stabilization=stab, varsigma_hat=varsigma_hat,
        M=consistency + varsigma_hat * stab,
    )


def stabilization_parameter(lam_cells: np.ndarray) -> float:
    """Fracture-wide scaling: largest eigenvalue of lam^{-1} over cells.

    Realizes the sup-norm recommendation cell by cell; equals one for
    unit permeability.
    """
    lam_cells = np.asarray(lam_cells, float)
    if lam_cells.ndim == 2:
        lam_cells = lam_cells[None]
    mins = np.linalg.eigvalsh(lam_cells)[:, 0]
    if mins.min() <= 0.0:
        raise SingularG("permeability tensor is not positive definite")
    return float(1.0 / mins.min())
