"""Hybridized solution of the saddle-point systems.

The solve hybridizes the mixed system (Arnold & Brezzi 1985): every
cell keeps its own copy of its edge fluxes, a multiplier on each shared
edge ties the two copies together, and each cell's local saddle block is
inverted on its own, one batched ``np.linalg.inv`` per (fracture,
edge count) group.  What is left is a symmetric system ``K`` in the edge
multipliers and the unknowns outside the cells (trace multipliers, 1D
intersection fluxes and pressures, point multipliers), much smaller and
sparser than the saddle system.  The cell unknowns are recovered group
by group from its solution, and one step of iterative refinement against
the saddle residual follows.

``K`` is solved one of two ways, chosen from the model and its size:

- a cc system whose ``K`` has more than ``PCG_MIN_SIZE`` unknowns is
  solved by conjugate gradients preconditioned with a smoothed-aggregation
  V-cycle (Vanek, Mandel & Brezina 1996).  The LU factorization of such
  a ``K`` fills in superlinearly and sets the run's peak memory; the
  V-cycle's set-up and each of its iterations cost work linear in the
  unknowns.  CG stops at an absolute residual of ``PCG_RTOL`` times the
  first reduced right-hand side, so the refinement step takes only a few
  iterations; a solve that has not converged after ``PCG_MAX_ITER``
  iterations falls back to the LU;
- every other system, dc included, is factored by sparse LU with a
  symmetric ordering.  A dc ``K`` keeps the saddle blocks of the 1D
  intersection unknowns, is indefinite, and CG does not converge on it.

The saddle system stays the definition of the problem: the residual is
reported and gated on it, at ``RESIDUAL_TOL``, on both paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .assembly import SaddleSystem
from .errors import SingularSystem

__all__ = ["RESIDUAL_TOL", "SolveReport", "solve"]

RESIDUAL_TOL = 1e-8   # largest relative saddle residual a solve may return
PCG_MIN_SIZE = 40_000  # a cc K with more unknowns is solved by PCG
PCG_MAX_ITER = 100    # CG iterations before a solve falls back to the LU
PCG_RTOL = 1e-12      # CG tolerance, times the first reduced rhs norm
STRENGTH = 0.08       # strong coupling: |K_ij| >= STRENGTH sqrt(K_ii K_jj)
COARSEST_SIZE = 2000  # unknowns at or below which a level is factored
JACOBI_WEIGHT = 0.6   # damping of the V-cycle's Jacobi sweeps


@dataclass
class SolveReport:
    x: np.ndarray
    residual: float
    reduced_size: int = 0     # unknowns of the hybrid system K
    lu_fill: int = 0          # nnz of the L and U factors of the LU that ran
    timings: dict = field(default_factory=dict)   # stage -> wall seconds
    # "path" ("lu" or "pcg"), CG "iterations" per solve call, "setup_s"
    # (factorization or hierarchy) and "levels" (unknowns per level).
    solver: dict = field(default_factory=dict)


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


def _factor(K):
    """Sparse LU of ``K`` with a symmetric ordering."""
    try:
        return spla.splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.01,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystem(f"direct factorization failed: {exc}") from exc


def _neighbour_max(S, v):
    """Per row of the CSR pattern ``S = (indptr, indices)``, the largest
    ``v`` over its columns; every row must be non-empty."""
    indptr, indices = S
    return np.maximum.reduceat(np.take(v, indices), indptr[:-1])


def _strength(A):
    """Closed strong neighbourhoods of ``A`` as a CSR pattern: ``j`` is a
    neighbour of ``i`` when ``|A_ij| >= STRENGTH sqrt(A_ii A_jj)``.  The
    stored diagonal passes the test, so every node is its own neighbour
    and no row is empty."""
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    d = np.abs(A.diagonal())
    keep = A.data ** 2 >= STRENGTH ** 2 * d[rows] * d[A.indices]
    indptr = np.zeros(n + 1, A.indptr.dtype)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
    return indptr, A.indices[keep]


def _aggregate(S):
    """Aggregate index of each node of the strength pattern ``S``, and
    the aggregate count.

    The roots form a distance-2 maximal independent set, built in Luby
    rounds with fixed priorities (a permutation seeded by the node
    count).  Each round takes the largest value within distance 2 of
    every node: an undecided node that finds a root there drops out, and
    one that finds its own priority becomes a root.  Every other node
    then joins the aggregate of its highest-priority assigned neighbour,
    first the roots' neighbours, then theirs.
    """
    n = len(S[0]) - 1
    prio = np.random.default_rng(n).permutation(n).astype(np.int32)
    v = prio.copy()             # undecided: prio, root: n + prio, out: -1
    undecided = np.ones(n, bool)
    while undecided.any():
        m = _neighbour_max(S, _neighbour_max(S, v))
        v[undecided & (m >= n)] = -1
        v[undecided & (m == prio)] += n
        undecided = (v >= 0) & (v < n)
    roots = np.flatnonzero(v >= n)
    agg = np.full(n, -1)
    agg[roots] = np.arange(len(roots))
    node_of = np.argsort(prio)
    while (agg < 0).any():
        best = _neighbour_max(S, np.where(agg >= 0, prio, -1))
        join = (agg < 0) & (best >= 0)
        agg[join] = agg[node_of[best[join]]]
    return agg, len(roots)


def _spectral_radius(A, dinv):
    """Estimate of the largest eigenvalue of ``D^-1 A`` from 10 power
    iterations and a Rayleigh quotient, seeded by the size of ``A``."""
    x = np.random.default_rng(A.shape[0]).standard_normal(A.shape[0])
    for _ in range(10):
        x = dinv * (A @ x)
        x /= np.linalg.norm(x)
    return float(x @ (A @ x) / (x @ (x / dinv)))


def _hierarchy(K):
    """Smoothed-aggregation levels ``(A, JACOBI_WEIGHT D^-1, P, P^T)``
    from ``K`` down, and the LU of the coarsest level.

    Each level's tentative prolongator maps an aggregate to the constant
    on its nodes, and one Jacobi step with ``omega = 4 / (3 rho)``
    smooths it; the next level is the Galerkin product ``P^T A P``.  The
    recursion stops at ``COARSEST_SIZE`` unknowns, or where aggregation
    no longer coarsens.
    """
    levels = []
    A = K
    while A.shape[0] > COARSEST_SIZE:
        n = A.shape[0]
        agg, nc = _aggregate(_strength(A))
        if nc == n:
            break
        dinv = 1.0 / A.diagonal()
        T = sparse.csr_matrix((np.ones(n), agg, np.arange(n + 1)),
                              shape=(n, nc))
        AT = A @ T
        AT.data *= np.repeat(4.0 / (3.0 * _spectral_radius(A, dinv)) * dinv,
                             np.diff(AT.indptr))
        P = T - AT
        R = P.T.tocsr()
        levels.append((A, JACOBI_WEIGHT * dinv, P, R))
        A = R @ (A @ P)
    return levels, _factor(A)


def _v_cycle(levels, coarse, b, k=0):
    """One V-cycle on ``A_k x = b`` from ``x = 0``: a damped Jacobi sweep
    before and after the coarse correction, so the cycle is symmetric."""
    if k == len(levels):
        return coarse.solve(b)
    A, wdinv, P, R = levels[k]
    x = wdinv * b
    x += P @ _v_cycle(levels, coarse, R @ (b - A @ x), k + 1)
    x += wdinv * (b - A @ x)
    return x


def _pcg(A, levels, coarse, b, tol):
    """``(x, iterations)`` of CG on ``A x = b``, preconditioned by the
    V-cycle, to an absolute residual ``tol``; ``x`` is None when
    ``PCG_MAX_ITER`` iterations do not reach it."""
    x = np.zeros_like(b)
    r = b.copy()
    if np.linalg.norm(r) <= tol:
        return x, 0
    z = _v_cycle(levels, coarse, r)
    p = z.copy()
    rz = r @ z
    for it in range(1, PCG_MAX_ITER + 1):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= tol:
            return x, it
        z = _v_cycle(levels, coarse, r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return None, PCG_MAX_ITER


class _ReducedSolver:
    """Solves ``K z = r`` on the path the model and the size of ``K``
    choose (see the module docstring), and keeps the solver record and
    the fill of the LU that ran."""

    def __init__(self, coo, model):
        t0 = time.perf_counter()
        n = coo.shape[0]
        self.record = {"path": "lu", "iterations": [], "levels": [n]}
        self.levels, self.lu, self.tol = None, None, None
        self.K = coo.tocsr() if model == "cc" and n > PCG_MIN_SIZE else None
        # A K with a diagonal entry <= 0 is not positive definite, so CG
        # cannot take it, and the strength test and Jacobi divide by it.
        if self.K is not None and (self.K.diagonal() > 0).all():
            self.levels, self.lu = _hierarchy(self.K)
            self.record.update(path="pcg", levels=[
                *(A.shape[0] for A, _, _, _ in self.levels),
                self.lu.shape[0]])
        elif n:
            self.lu = _factor(coo)
        self.record["setup_s"] = time.perf_counter() - t0

    @property
    def fill(self):
        return 0 if self.lu is None else self.lu.L.nnz + self.lu.U.nnz

    def __call__(self, r):
        if self.lu is None:
            return r
        z, its = None, 0
        if self.levels is not None:
            if self.tol is None:
                self.tol = PCG_RTOL * np.linalg.norm(r)
            z, its = _pcg(self.K, self.levels, self.lu, r, self.tol)
            if z is None:       # not converged: the LU from now on
                t0 = time.perf_counter()
                self.levels, self.lu = None, _factor(self.K)
                self.record.update(path="lu", levels=[self.K.shape[0]])
                self.record["setup_s"] += time.perf_counter() - t0
        self.record["iterations"].append(its)
        return self.lu.solve(r) if z is None else z


def _hybrid_factor(system: SaddleSystem):
    """Condense the cell blocks and set up the solve of the reduced
    system ``K``; returns ``(solve, reduced solver)``, where ``solve(b)``
    is the solution of ``A x = b``.

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
    reduced = _ReducedSolver(sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nz, nz)), system.model)

    def solve_for(b):
        rhs = np.zeros(nz + 1)      # slot 0 collects column -1: no link
        rhs[ypos + 1] = -b[outside]
        local = []
        for idx, Linv, col, c, own in blocks:
            local.append(np.einsum("kij,kj->ki", Linv, b[idx] * own))
            rhs += np.bincount(col.ravel() + 1, (c * local[-1]).ravel(),
                               minlength=nz + 1)
        z = reduced(rhs[1:])
        x = np.empty(n)
        x[outside] = z[ypos]
        z = np.append(z, 0.0)       # the value at column -1
        for (idx, Linv, col, c, _), Lr in zip(blocks, local):
            x[idx] = Lr - np.einsum("kij,kj->ki", Linv, c * z[col])
        return x

    return solve_for, reduced


def solve(system: SaddleSystem) -> SolveReport:
    """Solve an assembled system by hybridization and report the relative
    residual.  Raises ``SingularSystem`` on structural or numerical rank
    deficiency.
    """
    A = system.A
    b = system.rhs
    solve_for, reduced = _hybrid_factor(system)
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
            f"solve residual {res:.3e} exceeds {RESIDUAL_TOL:.1e}; "
            "system is numerically singular"
        )
    return SolveReport(x=x, residual=res,
                       reduced_size=reduced.record["levels"][0],
                       lu_fill=reduced.fill, solver=reduced.record)
