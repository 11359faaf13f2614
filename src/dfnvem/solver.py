"""Hybridized solution of the saddle-point systems.

The solve hybridizes the mixed system (Arnold & Brezzi 1985): every
cell keeps its own copy of its edge fluxes, a multiplier on each shared
edge ties the two copies together, and each cell's local saddle block is
inverted on its own, one (fracture, edge count) group at a time with the
cell axis last (``np.einsum`` sums a cell's products in an order that
depends on the shape and layout of its batch, so groups are not joined).
Blocks of at most ``ELIMINATION_MAX`` unknowns go by Gauss-Jordan
elimination over the whole group, which makes no LAPACK call, larger
ones by one batched ``np.linalg.inv``, which is faster on the few large
polygons a group of a coarse mesh holds.  What is left is
a symmetric system ``K`` in the edge multipliers and the unknowns
outside the cells (trace multipliers, 1D intersection fluxes and
pressures, point multipliers), much smaller and sparser than the saddle
system.  The cell unknowns are recovered group
by group from its solution, and one step of iterative refinement against
the saddle residual follows.

``K`` is solved one of two ways, chosen from the model and its size:

- a cc system whose ``K`` has more than ``PCG_MIN_SIZE`` unknowns is
  solved by conjugate gradients preconditioned with a smoothed-aggregation
  V-cycle (Vanek, Mandel & Brezina 1996).  The LU factorization of such
  a ``K`` fills in superlinearly and sets the run's peak memory; the
  V-cycle's set-up and each of its iterations cost work linear in the
  unknowns.  The aggregates come from Luby rounds (Luby 1986) on a
  ``(w, n)`` table of each node's strong neighbours, so that each
  maximum over the neighbourhoods is one gather and one maximum down
  the columns, and the rounds after the first visit only the undecided
  nodes and their neighbours.  ``K``'s triplets are written once into
  arrays sized up front and freed before the hierarchy is built.  CG
  stops at an absolute residual of ``PCG_RTOL`` times the first reduced
  right-hand side, so the refinement step takes only a few iterations;
  a solve that has not converged after ``PCG_MAX_ITER`` iterations
  falls back to the LU;
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
ELIMINATION_MAX = 6   # cell blocks of at most this size: _eliminate


@dataclass
class SolveReport:
    x: np.ndarray
    residual: float
    reduced_size: int = 0     # unknowns of the hybrid system K
    lu_fill: int = 0          # nnz of the L and U factors of the LU that ran
    timings: dict = field(default_factory=dict)   # stage -> wall seconds
    # "path" ("lu" or "pcg"), CG "iterations" per solve call, "setup_s"
    # (factorization or hierarchy), "levels" and "nnz" (unknowns and
    # stored entries per level, K first) and "operator_complexity" (the
    # levels' total nnz over K's; 1 on the LU path).
    solver: dict = field(default_factory=dict)


def _relative_residual(A, x, b) -> float:
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return float(np.linalg.norm(A @ x))
    return float(np.linalg.norm(A @ x - b) / nb)


def _eliminate(L):
    """Invert each block of the batch-last ``L (m, m, n)`` in place by
    Gauss-Jordan elimination, one sweep over every block per pivot, in
    dof order and without pivoting; returns ``L``.

    A cell block's fluxes come first and its pressure last.  The flux
    block is symmetric positive definite, with or without the Robin
    diagonal, so its pivots are positive, and the last pivot is the
    Schur complement ``-s^T B^-1 s`` of the pressure.  A zero pivot raises
    ``SingularSystem`` before anything is divided by it.
    """
    m = L.shape[0]
    scratch = np.empty_like(L)
    for k in range(m):
        pivot = L[k, k].copy()
        if not pivot.all():
            raise SingularSystem(f"singular cell block: zero pivot {k}")
        col = L[:, k].copy()
        col[k] = 0.0
        L[:, k] = 0.0
        L[k, k] = 1.0
        L[k] /= pivot
        np.multiply(col[:, None], L[k], out=scratch)
        L -= scratch
    return L


def _cell_blocks(system: SaddleSystem, link, coef, lam):
    """Per cell group, batch-last: the global dofs ``(m, n)`` of each
    cell's local block (its fluxes, then its pressure), the inverse
    blocks ``(m, m, n)``, each local dof's reduced column and coefficient
    ``(m, n)``, and where the cell takes its right-hand side from.

    A block is ``[[sMs, -s], [-s^T, 0]]``, where ``M`` carries the dc
    Robin diagonal on side edges.  Fixed dofs get a zero row and column
    and a unit diagonal, as in the assembled system.  Blocks of at most
    ``ELIMINATION_MAX`` unknowns are inverted by ``_eliminate``, larger
    ones by one batched ``np.linalg.inv``.  The right-hand side of a flux
    shared by two cells goes to the cell in its slot 0 (``s > 0``); the
    edge multiplier absorbs either split.
    """
    for g, s, p, sMs in system.groups:
        n, d = g.shape
        idx = np.concatenate([g.T, p[None]])
        s = s.T
        L = np.empty((d + 1, d + 1, n))
        L[:d, :d] = sMs.transpose(1, 2, 0)
        L[:d, d] = L[d, :d] = -s
        L[d, d] = 0.0
        mk = system.fixed[idx]
        if mk.any():
            L[mk[:, None] | mk[None]] = 0.0
            L[np.arange(d + 1), np.arange(d + 1)] += mk
        if d + 1 <= ELIMINATION_MAX:
            Linv = _eliminate(L)
        else:
            try:
                Linv = np.linalg.inv(L.transpose(2, 0, 1)).transpose(1, 2, 0)
            except np.linalg.LinAlgError as exc:
                raise SingularSystem(f"singular cell block: {exc}") from exc
        c = coef[idx]
        c[:d] = np.where(lam[g.T], s, c[:d])
        own = np.concatenate([s > 0, np.ones((1, n), bool)])
        yield idx, Linv, link[idx], c, own


def _factor(K):
    """Sparse LU of ``K`` with a symmetric ordering."""
    try:
        return spla.splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.01,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystem(f"direct factorization failed: {exc}") from exc


def _strong_table(A):
    """Closed strong neighbourhoods of ``A`` as the columns of a ``(w, n)``
    table: ``j`` is a neighbour of ``i`` when ``|A_ij| >= STRENGTH
    sqrt(A_ii A_jj)``, and column ``i`` holds row ``i``'s neighbours,
    padded to the widest row with ``i`` itself.  The stored diagonal
    passes the test, so every node is its own neighbour and the padding
    changes no maximum over a column."""
    n = A.shape[0]
    rows = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
    d = np.abs(A.diagonal())
    keep = A.data ** 2 >= STRENGTH ** 2 * d[rows] * d[A.indices]
    rows, cols = rows[keep], A.indices[keep]
    count = np.bincount(rows, minlength=n)
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
    table = np.tile(np.arange(n, dtype=cols.dtype), (count.max(), 1))
    table.reshape(-1)[slot * n + rows] = cols
    return table


def _aggregate(table):
    """Aggregate index of each node of the strong-neighbour ``table`` (see
    ``_strong_table``), and the aggregate count.

    The roots form a distance-2 maximal independent set, built in Luby
    rounds with fixed priorities (a permutation seeded by the node
    count).  Each round takes the largest value within distance 2 of
    every undecided node from each neighbour's largest value within
    distance 1, a gather and a maximum down the table's columns, which
    after the first round is taken again only for the undecided nodes'
    neighbours: an undecided node that finds a root there drops out, and
    one that finds its own priority becomes a root.  Every other node
    then joins the aggregate of its highest-priority assigned neighbour,
    first the roots' neighbours, then theirs.
    """
    n = table.shape[1]
    prio = np.random.default_rng(n).permutation(n).astype(np.int32)
    v = prio.copy()             # undecided: prio, root: n + prio, out: -1
    near = v[table].max(axis=0)     # largest v among a node's neighbours
    todo = np.arange(n)
    while len(todo):
        m = near[table[:, todo]].max(axis=0)
        v[todo[m >= n]] = -1
        v[todo[m == prio[todo]]] += n
        todo = todo[(m < n) & (m != prio[todo])]
        hit = np.zeros(n, bool)
        hit[table[:, todo]] = True
        nbrs = np.flatnonzero(hit)
        near[nbrs] = v[table[:, nbrs]].max(axis=0)
    roots = np.flatnonzero(v >= n)
    agg = np.full(n, -1)
    agg[roots] = np.arange(len(roots))
    node_of = np.argsort(prio)
    todo = np.flatnonzero(agg < 0)
    while len(todo):
        best = np.where(agg >= 0, prio, -1)[table[:, todo]].max(axis=0)
        join = best >= 0
        agg[todo[join]] = agg[node_of[best[join]]]
        todo = todo[~join]
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
    from ``K`` down, and the coarsest level's matrix.

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
        agg, nc = _aggregate(_strong_table(A))
        if nc == n:
            break
        dinv = 1.0 / A.diagonal()
        T = sparse.csr_matrix((np.ones(n), agg, np.arange(n + 1)),
                              shape=(n, nc))
        AT = A @ T
        AT.data *= np.repeat(4.0 / (3.0 * _spectral_radius(A, dinv)) * dinv,
                             np.diff(AT.indptr))
        P = T - AT
        del T, AT       # only A @ P stays alive beside P and R
        R = P.T.tocsr()
        levels.append((A, JACOBI_WEIGHT * dinv, P, R))
        A = R @ (A @ P)
    return levels, A


def _level_record(mats) -> dict:
    """The unknowns and nnz of each matrix of ``mats``, finest first,
    and their operator complexity."""
    nnz = [A.nnz for A in mats]
    return {"levels": [A.shape[0] for A in mats], "nnz": nnz,
            "operator_complexity": sum(nnz) / max(nnz[0], 1)}


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
    the fill of the LU that ran.  ``K`` comes in CSR for the PCG path,
    otherwise in CSC."""

    def __init__(self, K):
        t0 = time.perf_counter()
        n = K.shape[0]
        self.record = {"path": "lu", "iterations": [], **_level_record([K])}
        self.levels, self.lu, self.tol = None, None, None
        self.K = K if K.format == "csr" else None
        # A K with a diagonal entry <= 0 is not positive definite, so CG
        # cannot take it, and the strength test and Jacobi divide by it.
        if self.K is not None and (self.K.diagonal() > 0).all():
            self.levels, coarsest = _hierarchy(self.K)
            self.lu = _factor(coarsest)
            self.record.update(path="pcg", **_level_record(
                [*(A for A, _, _, _ in self.levels), coarsest]))
        elif n:
            self.lu = _factor(K)
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
                self.record.update(path="lu", **_level_record([self.K]))
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
    zpos = np.full(n, -1, np.int32)
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
    blocks = list(_cell_blocks(system, link, coef, lam))
    # K's triplets: -A_YY, then each group's linked pairs (a cell with k
    # linked dofs has k^2), written once into arrays sized up front; they
    # and the COO are freed before the set-up.
    linked = [(col >= 0).sum(axis=0) for _, _, col, _, _ in blocks]
    size = A_yy.nnz + sum(int(k @ k) for k in linked)
    rows, cols = np.empty(size, np.int32), np.empty(size, np.int32)
    vals = np.empty(size)
    end = A_yy.nnz
    rows[:end] = ypos[A_yy.row]
    cols[:end] = ypos[A_yy.col]
    vals[:end] = -A_yy.data
    del A_yy
    for (_, Linv, col, c, _), k in zip(blocks, linked):
        pair = (col[:, None] >= 0) & (col[None] >= 0)
        part = slice(end, end + int(k @ k))
        rows[part] = np.broadcast_to(col[:, None], Linv.shape)[pair]
        cols[part] = np.broadcast_to(col[None], Linv.shape)[pair]
        v = c[:, None] * Linv
        v *= c[None]
        vals[part] = v[pair]
        end = part.stop
        del pair, v
    K = sparse.coo_matrix((vals, (rows, cols)), shape=(nz, nz))
    del rows, cols, vals
    # The format chooses the path: CSR for PCG, CSC for the LU.
    K = (K.tocsr() if system.model == "cc" and nz > PCG_MIN_SIZE
         else K.tocsc())
    reduced = _ReducedSolver(K)
    del K

    def solve_for(b):
        rhs = np.zeros(nz + 1)      # slot 0 collects column -1: no link
        rhs[ypos + 1] = -b[outside]
        local = []
        for idx, Linv, col, c, own in blocks:
            local.append(np.einsum("ijk,jk->ik", Linv, b[idx] * own))
            rhs += np.bincount(col.ravel() + 1, (c * local[-1]).ravel(),
                               minlength=nz + 1)
        z = reduced(rhs[1:])
        x = np.empty(n)
        x[outside] = z[ypos]
        z = np.append(z, 0.0)       # the value at column -1
        for (idx, Linv, col, c, _), Lr in zip(blocks, local):
            x[idx] = Lr - np.einsum("ijk,jk->ik", Linv, c * z[col])
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
