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

With the scaled monomials ``(x - x_E) / h`` the projection matrices are
``G = |E|/h^2 lam``, ``F = Delta^T / h``, ``Pi = G^-1 F`` and
``D = W lam / h``, where the rows of ``Delta`` are ``x_e - x_E`` (edge
midpoint minus centroid) and the rows of ``W`` are ``|e| n_e``.  The
diameter ``h`` cancels everywhere:

    M_E = |E|^-1 Delta lam^-1 Delta^T + varsigma R^T R,
          R = I - |E|^-1 W Delta^T   (= I - D Pi),
    lam Pi u / h = |E|^-1 Delta^T u  (the projected velocity).

So the kernels below need neither ``h`` nor ``G``, and the velocity does
not depend on ``lam``.  Since ``R^T R = I - (Delta W^T + W Delta^T) / |E|
+ Delta W^T W Delta^T / |E|^2``,

    M_E = varsigma I + Delta C Delta^T
          - varsigma (Delta W^T + W Delta^T) / |E|,
    C = |E|^-1 lam^-1 + varsigma |E|^-2 W^T W,

with one 2x2 ``C`` per cell and ``lam^-1`` in closed form, so the 2D
kernel is plain broadcast arithmetic on arrays with the cell axis last
and makes no LAPACK call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularG

__all__ = [
    "LocalElement1D",
    "local_matrices_2d",
    "local_matrices_1d",
    "project_velocity",
    "stabilization_parameter",
]


def local_matrices_2d(area, centroid, edge_len, edge_normal, edge_mid, lam,
                      varsigma=1.0, alone=None) -> np.ndarray:
    """Local H(div) mass matrices of ``n`` polygons with ``d`` edges each.

    Every argument has a leading cell axis: ``area (n,)``, ``centroid
    (n, 2)``, ``edge_len (n, d)``, outward unit ``edge_normal (n, d, 2)``,
    ``edge_mid (n, d, 2)`` and ``lam (n, 2, 2)``; ``varsigma`` is a scalar
    or ``(n,)``.  ``centroid`` must be the exact area centroid.  Returns
    ``M`` of shape ``(n, d, d)`` for outward-oriented dofs; the assembly
    applies orientation signs.  ``M`` is the transposed view of a
    C-contiguous ``(d, d, n)`` array, which ``M.transpose(1, 2, 0)``
    gives back without a copy.  It is formed as ``P + P^T`` plus the
    diagonal (see the module docstring), so it is exactly symmetric.

    A cell may be padded with trailing slots of zero ``edge_len``, their
    ``edge_mid`` at the centroid: its real entries do not change, and the
    padding rows and columns hold only the diagonal ``varsigma``.  The
    sums over a cell's edges run in edge order; ``alone (n,)`` marks the
    cells summed as numpy sums a batch of one cell, pairwise from 8 edges
    on (see ``_edge_sums``), and counts a cell's edges by their nonzero
    lengths.

    Raises ``SingularG`` for a cell with ``area <= 0``, named by its row
    in the batch, and for a tensor that is not positive definite
    (``lam_00 <= 0`` or ``det lam <= 0``).
    """
    area = np.asarray(area, float)
    lam = np.asarray(lam, float)
    bad = np.flatnonzero(area <= 0.0)
    if bad.size:
        raise SingularG(f"degenerate cell {bad[0]}: area={area[bad[0]]}")
    (l00, l01), (l10, l11) = lam.transpose(1, 2, 0)
    det = l00 * l11 - l01 * l10
    if not ((l00 > 0.0) & (det > 0.0)).all():
        raise SingularG("permeability tensor is not positive definite")
    # The x and y columns of Delta and W, (d, n) each: cell axis last.
    d0, d1 = (np.asarray(edge_mid, float)
              - np.asarray(centroid, float)[:, None]).T.copy()
    w0, w1 = (np.asarray(edge_len, float)[..., None]
              * np.asarray(edge_normal, float)).T.copy()
    sig = np.reshape(varsigma, -1)
    inv_a = 1.0 / area
    s = sig * inv_a             # varsigma / |E|
    k = inv_a / det             # lam^-1 / |E| = k adj(lam)
    q = s * inv_a               # varsigma / |E|^2
    pairwise = []
    if alone is not None and len(w0) >= 8:
        count = (np.asarray(edge_len) > 0.0).sum(axis=1)
        pick = np.flatnonzero(alone & (count >= 8))
        pairwise = list(zip(pick.tolist(), count[pick].tolist()))
    w01 = q * _edge_sums(w0 * w1, pairwise)
    c00 = k * l11 + q * _edge_sums(w0 * w0, pairwise)
    c11 = k * l00 + q * _edge_sums(w1 * w1, pairwise)
    c01, c10 = w01 - k * l01, w01 - k * l10
    # P = Delta (C Delta^T / 2 - varsigma W^T / |E|), so that P + P^T is
    # the sum of the last two terms of M_E.
    t0 = 0.5 * (c00 * d0 + c01 * d1) - s * w0
    t1 = 0.5 * (c10 * d0 + c11 * d1) - s * w1
    P = d0[:, None] * t0
    P += d1[:, None] * t1
    M = P + P.transpose(1, 0, 2)
    diag = np.arange(M.shape[0])
    M[diag, diag] += sig
    return M.transpose(2, 0, 1)


def _edge_sums(x, pairwise):
    """Per cell, the sum of the rows of the batch-last ``x (D, n)`` in row
    order, where padding rows add exact zeros; for each ``(cell, count)``
    of ``pairwise``, the sum of its leading ``count`` rows as numpy sums
    a one-dimensional array (pairwise from 8 terms on).  Either way a
    cell's sum depends neither on the other cells of the batch nor on
    its padding."""
    # numpy sums a batch of one cell as a one-dimensional array.
    total = x.sum(axis=0) if x.shape[1] > 1 else np.cumsum(x, axis=0)[-1]
    for i, count in pairwise:
        total[i] = np.add.reduce(x[:count, i])
    return total


def project_velocity(area, centroid, edge_mid, fluxes) -> np.ndarray:
    """Cell velocities ``|E|^-1 (x_e - x_E)^T u`` in the 2D frame, ``(n, 2)``,
    from outward-oriented ``fluxes (n, d)``; see ``local_matrices_2d``."""
    delta = np.asarray(edge_mid, float) - np.asarray(centroid, float)[:, None]
    return np.einsum("nd,ndk->nk", fluxes, delta) / np.asarray(area)[:, None]


@dataclass
class LocalElement1D:
    """Local matrices of intersection segment elements of lengths ``h``.

    Dofs are endpoint values of the tangential flux, oriented outward
    from the element.  The closed forms are

        consistency  = h / (4 lam_hat) [[1, -1], [-1, 1]]
        stabilization = 1/2 [[1, 1], [1, 1]]  scaled by  h / lam_hat.

    A scalar ``h`` gives ``(2, 2)`` matrices, an ``(n,)`` one ``(n, 2, 2)``.
    """

    consistency: np.ndarray
    stabilization: np.ndarray
    varsigma_hat: float
    M: np.ndarray


def local_matrices_1d(h, lam_hat: float) -> LocalElement1D:
    """Closed-form 1D mixed-VEM matrices with stabilization h/lam_hat."""
    h = np.asarray(h, float)
    if (h <= 0.0).any() or lam_hat <= 0.0:
        raise SingularG(f"invalid segment element: h={h.min()}, "
                        f"lam_hat={lam_hat}")
    consistency = (h / (4.0 * lam_hat))[..., None, None] * np.array(
        [[1.0, -1.0], [-1.0, 1.0]])
    stab = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    varsigma_hat = h / lam_hat
    return LocalElement1D(
        consistency=consistency, stabilization=stab,
        varsigma_hat=varsigma_hat,
        M=consistency + varsigma_hat[..., None, None] * stab,
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
