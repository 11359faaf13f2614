"""Hybridized solution of the saddle-point systems.

The solve hybridizes the mixed system (Arnold & Brezzi 1985): every
cell keeps its own copy of its edge fluxes, a multiplier on each shared
edge ties the two copies together, and each cell's local saddle block is
inverted on its own, one kernel bucket at a time with the cell axis last
(``SaddleSystem.groups``: the cells of every fracture whose edge count
pads to one width).  A padding slot is a fixed dof with a unit diagonal
and no link.  Blocks of at most ``ELIMINATION_MAX`` unknowns go by
Gauss-Jordan elimination over the whole bucket, larger ones by a closed
form: the flux block is a diagonal plus a rank-4 term (``vem``), so the
Sherman-Morrison-Woodbury identity (Hager 1989) inverts it in O(d^2)
from the kernel's factors, where elimination costs O(d^3); see
``_woodbury``.  Neither calls LAPACK.  Measured on one Xeon vCPU (best
of 31 or 11): elimination wins by the closed form's fixed cost of about
0.1 ms on a few cells up to 9 unknowns, the closed form from 9 unknowns
on 256 cells and from 7 on 4,096; on the padded buckets of a coarse mesh
it takes 0.16 against 0.21 ms (17 unknowns, 4 cells), 0.77 against 5.1
ms (41, 48) and 0.53 against 10.3 ms (49, 45).  The switch stays at 6,
so that triangles, quads and pentagons keep the elimination; the closed
form's fixed cost on a network's few larger cells is about 0.1 ms.
What is left
is a symmetric system ``K`` in the edge multipliers and the unknowns
outside the cells (trace multipliers, 1D intersection fluxes and
pressures, point multipliers), much smaller and sparser than the saddle
system.  The cell unknowns are recovered bucket by bucket from its
solution, and one step of iterative refinement against the saddle
residual follows.

``K`` is solved one of two ways, chosen from the model and its size:

- a cc system whose ``K`` has more than ``PCG_MIN_SIZE`` unknowns is
  solved by conjugate gradients preconditioned with a smoothed-aggregation
  V-cycle (Vanek, Mandel & Brezina 1996).  The LU factorization of such
  a ``K`` fills in superlinearly and sets the run's peak memory; the
  V-cycle's set-up and each of its iterations cost work linear in the
  unknowns.  The aggregates come from Luby rounds (Luby 1986) on an
  intp ``(w, n)`` table of each node's strong neighbours, so that each
  maximum over the neighbourhoods is one ``take`` and one maximum down
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
_SLAB = 4096          # cells per slab of _eliminate


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
    Gauss-Jordan elimination, in dof order and without pivoting; returns
    ``L``.  The cells go in slabs of ``_SLAB``, each swept once per pivot
    in place, which beats sweeping a large group whole (3.9 against 5.8
    ms, medians of 25, on the 25,600 quads of single random L5, one
    Xeon vCPU); every block is eliminated on its own, so the slabs
    change no bit.

    A cell block's fluxes come first and its pressure last.  The flux
    block is symmetric positive definite, with or without the Robin
    diagonal, so its pivots are positive, and the last pivot is the
    Schur complement ``-s^T B^-1 s`` of the pressure.  A zero pivot raises
    ``SingularSystem`` before anything is divided by it.
    """
    m, _, n = L.shape
    scratch = np.empty((m, m, min(n, _SLAB)))
    for a in range(0, n, _SLAB):
        S = L[:, :, a:a + _SLAB]
        tmp = scratch[:, :, :S.shape[2]]
        for k in range(m):
            pivot = S[k, k].copy()
            if not pivot.all():
                raise SingularSystem(f"singular cell block: zero pivot {k}")
            col = S[:, k].copy()
            col[k] = 0.0
            S[:, k] = 0.0
            S[k, k] = 1.0
            S[k] /= pivot
            np.multiply(col[:, None], S[k], out=tmp)
            S -= tmp
    return L


def _cholesky_2x2(a00, a01, a11):
    """The factor ``[[l00, 0], [l10, l11]]`` of each 2x2 ``[[a00, a01],
    [a01, a11]]``, as ``(l00, l10, l11)``; a non-positive pivot gives 0 or
    nan, which the caller tests."""
    l00 = np.sqrt(np.maximum(a00, 0.0))
    l10 = a01 / l00
    return l00, l10, np.sqrt(np.maximum(a11 - l10 * l10, 0.0))


def _woodbury(mk, s, factors):
    """The inverse blocks ``(m, m, n)`` of the cell blocks ``[[B, -s],
    [-s^T, 0]]`` with fixed dofs ``mk (m, n)``, in closed form from the
    kernel's ``factors`` of ``M`` (see ``SaddleSystem.groups``).

    With ``D`` the diagonal ``varsigma`` plus Robin term, 1 on a fixed
    or padding slot, and ``V = s [Delta W]``, zero on those slots, ``B =
    D + V G V^T``, and by Sherman-Morrison-Woodbury ``B^-1 = D^-1 -
    U (G^-1 + V^T D^-1 V)^-1 U^T`` with ``U = D^-1 V``, where ``G^-1 =
    [[0, -b I], [-b I, -b^2 C]]``, ``b = |E| / varsigma``, is exact.
    The 4x4 capacitance ``[[P, X], [X^T, T]]`` is inverted by blocks:
    ``T = W^T D^-1 W - b^2 C <= -|E| lam^-1 / varsigma^2`` is negative
    definite, and with ``-T = L L^T`` and ``H = L^-1 X^T`` the Schur
    complement is ``S = P + H^T H``, positive definite exactly when the
    block is regular.  So ``B^-1 = D^-1 - Z S^-1 Z^T + Y Y^T`` with ``Y =
    U_W L^-T`` and ``Z = U_Delta + Y H``: with the pressure's ``u u^T /
    gamma``, ``u = B^-1 s`` and ``gamma = s^T B^-1 s``, five symmetric
    rank-1 terms added by one batched product.  A
    capacitance whose 2x2 blocks are not definite, or a free pressure
    whose ``gamma`` is not positive and finite, raises
    ``SingularSystem``.
    """
    (d0, d1), (w0, w1), (c00, c01, c10, c11), a, diag = factors
    d, n = s.shape
    sf = np.where(mk[:d], 0.0, s)
    dinv = np.where(mk[:d], 1.0, 1.0 / diag)
    v = [sf * d0, sf * d1, sf * w0, sf * w1]
    u = [x * dinv for x in v]
    b = 1.0 / a
    cap = [[(v[i] * u[j]).sum(axis=0) for j in range(4)] for i in range(4)]
    # The W block T of the capacitance as -T = L L^T, then H = L^-1 X^T
    # from the rows of X^T, the W-Delta block.
    l00, l10, l11 = _cholesky_2x2(b * b * c00 - cap[2][2],
                                  b * b * (0.5 * (c01 + c10)) - cap[2][3],
                                  b * b * c11 - cap[3][3])
    x0, x1 = cap[2][0] - b, cap[2][1]        # the rows of X^T
    x2, x3 = cap[3][0], cap[3][1] - b
    h0, h1 = x0 / l00, x1 / l00
    h2, h3 = (x2 - l10 * h0) / l11, (x3 - l10 * h1) / l11
    y0 = u[2] / l00
    y1 = (u[3] - l10 * y0) / l11
    m00, m10, m11 = _cholesky_2x2(cap[0][0] + h0 * h0 + h2 * h2,
                                  cap[0][1] + h0 * h1 + h2 * h3,
                                  cap[1][1] + h1 * h1 + h3 * h3)
    z0 = (u[0] + y0 * h0 + y1 * h2) / m00
    z1 = (u[1] + y0 * h1 + y1 * h3 - m10 * z0) / m11
    if not np.isfinite(z0 + z1 + y0 + y1).all():
        raise SingularSystem("singular cell block: singular capacitance")
    # The pressure column -s, zero where the pressure is fixed.
    col = np.where(mk[d], 0.0, -sf)
    r = dinv * col
    for q, sign in ((z0, -1.0), (z1, -1.0), (y0, 1.0), (y1, 1.0)):
        r += sign * (q * col).sum(axis=0) * q
    gamma = (col * r).sum(axis=0)
    if not ((gamma > 0.0) & np.isfinite(gamma) | mk[d]).all():
        raise SingularSystem("singular cell block: the pressure's Schur "
                             "complement is not positive")
    gamma = np.where(mk[d], -1.0, gamma)
    # The five rank-1 terms as one product of (n, d, 5) and (n, 5, d)
    # stacks, which costs a tenth of five broadcast passes over a few
    # dozen cells.
    Q = np.stack([z0, z1, y0, y1, r / np.sqrt(np.abs(gamma))])
    sign = np.array([-1.0, -1.0, 1.0, 1.0, -1.0])[:, None, None]
    L = np.empty((d + 1, d + 1, n))
    L[:d, :d] = np.matmul(Q.transpose(2, 1, 0),
                          (sign * Q).transpose(2, 0, 1)).transpose(1, 2, 0)
    L[np.arange(d), np.arange(d)] += dinv
    L[:d, d] = L[d, :d] = r / gamma
    L[d, d] = -1.0 / gamma
    return L


def _cell_blocks(system: SaddleSystem, link, coef, lam):
    """Per cell group, batch-last: the global dofs ``(m, n)`` of each
    cell's local block (its fluxes, then its pressure), the inverse
    blocks ``(m, m, n)``, each local dof's reduced column and coefficient
    ``(m, n)``, and where the cell takes its right-hand side from.

    A block is ``[[sMs, -s], [-s^T, 0]]``, where ``M`` carries the dc
    Robin diagonal on side edges.  Fixed dofs get a zero row and column
    and a unit diagonal, as in the assembled system, and so does a
    padding slot (dof -1), which reads the one slot appended to each
    per-dof array: fixed, no link, coefficient 0.  Blocks of at most
    ``ELIMINATION_MAX`` unknowns are inverted by ``_eliminate``, larger
    ones by ``_woodbury``.  The right-hand side of a flux shared by two
    cells goes to the cell in its slot 0 (``s > 0``); the edge
    multiplier absorbs either split.
    """
    fixed, link, coef, lam = (np.append(x, v) for x, v in (
        (system.fixed, True), (link, -1), (coef, 0.0), (lam, False)))
    for g, s, p, mass in system.groups:
        n, d = g.shape
        idx = np.concatenate([g.T, p[None]])
        s = s.T
        mk = fixed[idx]
        if d + 1 <= ELIMINATION_MAX:
            L = np.empty((d + 1, d + 1, n))
            L[:d, :d] = mass.transpose(1, 2, 0)
            L[:d, d] = L[d, :d] = -s
            L[d, d] = 0.0
            if mk.any():
                L[mk[:, None] | mk[None]] = 0.0
                L[np.arange(d + 1), np.arange(d + 1)] += mk
            Linv = _eliminate(L)
        else:
            Linv = _woodbury(mk, s, mass)
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
    intp table: ``j`` is a neighbour of ``i`` when ``|A_ij| >= STRENGTH
    sqrt(A_ii A_jj)``, and column ``i`` holds row ``i``'s neighbours,
    padded to the widest row with ``i`` itself.  The stored diagonal
    passes the test, so every node is its own neighbour and the padding
    changes no maximum over a column.

    The table is intp whatever the index dtype of ``A``, so that each
    Luby round of ``_aggregate`` is one ``take`` through it, with no
    cast.  The test takes each row's diagonal by ``np.repeat`` and each
    column's through ``A``'s own indices by fancy indexing: ``take``
    would first copy those indices to intp."""
    n = A.shape[0]
    stored = np.diff(A.indptr)
    rows = np.repeat(np.arange(n, dtype=A.indices.dtype), stored)
    d = np.abs(A.diagonal())
    keep = A.data ** 2 >= np.repeat(STRENGTH ** 2 * d, stored) * d[A.indices]
    rows, cols = rows[keep], A.indices[keep]
    count = np.bincount(rows, minlength=n)
    at = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
    # Each kept entry's flat position slot * n + row, formed in place so
    # that one int64 array of the kept entries is alive, not two.
    at *= n
    at += rows
    table = np.tile(np.arange(n), (count.max(), 1))
    table.reshape(-1)[at] = cols
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
    near = v.take(table).max(axis=0)    # largest v among a node's neighbours
    todo = np.arange(n)
    while len(todo):
        m = near.take(table.take(todo, axis=1)).max(axis=0)
        v[todo[m >= n]] = -1
        v[todo[m == prio[todo]]] += n
        todo = todo[(m < n) & (m != prio[todo])]
        hit = np.zeros(n, bool)
        hit[table.take(todo, axis=1)] = True
        nbrs = np.flatnonzero(hit)
        near[nbrs] = v.take(table.take(nbrs, axis=1)).max(axis=0)
    roots = np.flatnonzero(v >= n)
    agg = np.full(n, -1)
    agg[roots] = np.arange(len(roots))
    node_of = np.argsort(prio)
    todo = np.flatnonzero(agg < 0)
    while len(todo):
        best = np.where(agg >= 0, prio, -1).take(
            table.take(todo, axis=1)).max(axis=0)
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
    # A padding slot's dof -1 counts in the bin dropped.
    count = np.bincount(np.concatenate(
        [np.zeros(0, int)] + [g.ravel() + 1 for g, _, _, _ in system.groups]),
        minlength=n + 1)[1:]
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
            # Fancy indexing keeps the F order of ``idx``, which sets the
            # order einsum sums in; ``take`` would return C order.  A
            # padding slot reads the last dof, which ``own`` zeroes.
            local.append(np.einsum("ijk,jk->ik", Linv, b[idx] * own))
            rhs += np.bincount(col.ravel() + 1, (c * local[-1]).ravel(),
                               minlength=nz + 1)
        z = reduced(rhs[1:])
        x = np.empty(n + 1)         # slot n takes the padding slots' values
        x[outside] = z[ypos]
        z = np.append(z, 0.0)       # the value at column -1
        for (idx, Linv, col, c, _), Lr in zip(blocks, local):
            x[idx] = Lr - np.einsum("ijk,jk->ik", Linv, c * z[col])
        return x[:n]

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
