"""Hybridized direct solution of the saddle-point systems.

The solve hybridizes the mixed system (Arnold & Brezzi 1985): every
cell keeps its own copy of its edge fluxes, a multiplier on each shared
edge ties the two copies together, and each cell's local saddle block is
inverted on its own, one batched ``np.linalg.inv`` per (fracture,
edge count) group.  What is left is a symmetric system in the edge
multipliers and the unknowns outside the cells (trace multipliers, 1D
intersection fluxes and pressures, point multipliers), much smaller and
sparser than the saddle system.  It is factored by sparse LU with a
symmetric ordering, the cell unknowns are recovered group by group, and
one step of iterative refinement against the saddle residual follows.
The saddle system stays the definition of the problem: the residual is
reported and gated on it, at ``RESIDUAL_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .assembly import SaddleSystem
from .errors import SingularSystem

__all__ = ["RESIDUAL_TOL", "SolveReport", "solve"]

RESIDUAL_TOL = 1e-8   # largest relative saddle residual a solve may return


@dataclass
class SolveReport:
    x: np.ndarray
    residual: float
    reduced_size: int = 0     # unknowns of the factored hybrid system
    lu_fill: int = 0          # nnz of its L and U factors
    timings: dict = field(default_factory=dict)   # stage -> wall seconds


def _relative_residual(A, x, b) -> float:
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return float(np.linalg.norm(A @ x))
    return float(np.linalg.norm(A @ x - b) / nb)


def _cell_blocks(system: SaddleSystem, link, coef, lam):
    """Per cell group: the global dofs ``(n, m)`` of each cell's local
    block (its fluxes, then its pressure), the inverse blocks, each local
    dof's reduced column and coefficient, and where the cell takes its
    right-hand side from.

    A block is ``[[sMs, -s], [-s^T, 0]]``, where ``M`` carries the dc
    Robin diagonal on side edges.  Fixed dofs get a zero row and column
    and a unit diagonal, as in the assembled system.  The right-hand side
    of a flux shared by two cells goes to the cell in its slot 0
    (``s > 0``); the edge multiplier absorbs either split.
    """
    for g, s, p, M in system.groups:
        n, d = g.shape
        idx = np.concatenate([g, p[:, None]], axis=1)
        L = np.zeros((n, d + 1, d + 1))
        L[:, :d, :d] = M * s[:, :, None] * s[:, None, :]
        L[:, :d, d] = L[:, d, :d] = -s
        diag = np.arange(d + 1)
        mk = system.fixed[idx]
        L[mk[:, :, None] | mk[:, None, :]] = 0.0
        L[:, diag, diag] += mk
        try:
            Linv = np.linalg.inv(L)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"singular cell block: {exc}") from exc
        c = coef[idx]
        c[:, :d] = np.where(lam[g], s, c[:, :d])
        own = np.concatenate([s > 0, np.ones((n, 1), bool)], axis=1)
        yield idx, Linv, link[idx], c, own


def _hybrid_factor(system: SaddleSystem):
    """Condense the cell blocks and factor the reduced system ``K``;
    returns ``(solve, reduced size, LU fill)``, where ``solve(b)`` is the
    solution of ``A x = b``.

    ``z`` holds one multiplier per unfixed flux shared by two cells
    and every dof outside the cell blocks, in dof order.  With ``E`` the
    local links to ``z``, ``K = sum E^T L^-1 E - A_YY`` and the reduced
    right-hand side is ``sum E^T L^-1 r - b_Y``.  A system without cell
    blocks reduces to ``K = -A``.
    """
    A = system.A
    n = A.shape[0]
    count = np.bincount(np.concatenate(
        [np.zeros(0, int)] + [g.ravel() for g, _, _, _ in system.groups]),
        minlength=n)
    in_cell = count > 0
    for _, _, p, _ in system.groups:
        in_cell[p] = True
    lam = (count == 2) & ~system.fixed
    outside = np.flatnonzero(~in_cell)
    z_dofs = np.flatnonzero(lam | ~in_cell)
    nz = len(z_dofs)
    zpos = np.full(n, -1)
    zpos[z_dofs] = np.arange(nz)
    # Each cell dof links to at most one z unknown: its edge multiplier,
    # or the one outside dof (trace multiplier or p-hat) a side edge
    # couples to.  A is symmetric and its fixed rows and columns are the
    # identity's, so the rows A[outside] hold every unfixed link.
    link = np.where(lam, zpos, -1)
    coef = np.zeros(n)
    ypos = zpos[outside]
    A_out = A[outside]
    C = A_out.tocoo()
    keep = in_cell[C.col]
    link[C.col[keep]] = ypos[C.row[keep]]
    coef[C.col[keep]] = C.data[keep]
    A_yy = A_out[:, outside].tocoo()
    rows, cols = [ypos[A_yy.row]], [ypos[A_yy.col]]
    vals = [-A_yy.data]
    blocks = list(_cell_blocks(system, link, coef, lam))
    for _, Linv, col, c, _ in blocks:
        pair = (col[:, :, None] >= 0) & (col[:, None, :] >= 0)
        rows.append(np.broadcast_to(col[:, :, None], Linv.shape)[pair])
        cols.append(np.broadcast_to(col[:, None, :], Linv.shape)[pair])
        vals.append((c[:, :, None] * Linv * c[:, None, :])[pair])
    K = sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nz, nz))
    lu, fill = None, 0
    if nz:
        try:
            lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.01,
                           options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SingularSystem(
                f"direct factorization failed: {exc}") from exc
        fill = lu.L.nnz + lu.U.nnz

    def solve_for(b):
        rhs = np.zeros(nz + 1)      # slot 0 collects column -1: no link
        rhs[ypos + 1] = -b[outside]
        local = []
        for idx, Linv, col, c, own in blocks:
            local.append(np.einsum("kij,kj->ki", Linv, b[idx] * own))
            rhs += np.bincount(col.ravel() + 1, (c * local[-1]).ravel(),
                               minlength=nz + 1)
        z = lu.solve(rhs[1:]) if nz else rhs[1:]
        x = np.empty(n)
        x[outside] = z[ypos]
        z = np.append(z, 0.0)       # the value at column -1
        for (idx, Linv, col, c, _), Lr in zip(blocks, local):
            x[idx] = Lr - np.einsum("kij,kj->ki", Linv, c * z[col])
        return x

    return solve_for, nz, fill


def solve(system: SaddleSystem) -> SolveReport:
    """Solve an assembled system by the hybridized sparse LU and report the
    relative residual.  Raises ``SingularSystem`` on structural or
    numerical rank deficiency.
    """
    A = system.A
    b = system.rhs
    solve_for, size, fill = _hybrid_factor(system)
    x = solve_for(b)
    # One step of iterative refinement.  K weighs the p-hat of a nearly
    # sealed intersection by the inverse of its Robin coefficient, so
    # the first solve leaves that p-hat accurate only to about eps
    # times that coefficient; the saddle residual restores it.
    x += solve_for(b - A @ x)
    if not np.isfinite(x).all():
        raise SingularSystem("solution contains non-finite entries")
    res = _relative_residual(A, x, b)
    if res > RESIDUAL_TOL:
        raise SingularSystem(
            f"direct solve residual {res:.3e} exceeds {RESIDUAL_TOL:.1e}; "
            "system is numerically singular"
        )
    return SolveReport(x=x, residual=res, reduced_size=size, lu_fill=fill)
