"""Global saddle-point assembly for both intersection coupling models.

Both models keep one trace pressure per trace element, linked to every
side edge of that element.  In the pressure-continuous model (``cc``) it
is the Lagrange multiplier that enforces flux balance across the element
and the single-valued interface pressure.  The flow-carrying model
(``dc``) adds Robin-type exchange terms weighted by the inverse effective
normal permeability, a 1D mixed-VEM flux along every intersection, and
point multipliers where intersections meet.

Edge flux dofs are integrated normal fluxes oriented outward from the
lower-indexed adjacent cell; duplicated interface edges have a single
adjacent cell, so their dof is that cell's outward flux.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import vem
from .errors import (
    ConfigError,
    ConflictingBC,
    MissingIntersectionProps,
    UnconstrainedPressureWarning,
)
from .geometry import (FractureNetwork, is_json_int, json_keys, json_list,
                       json_numbers, point_segment_distance)
from .meshing import corefine_network, split_interface_dofs

__all__ = [
    "BoundarySpec",
    "DiscreteProblem",
    "DofMap",
    "SaddleSystem",
    "Solution",
    "prepare_problem",
    "build_dof_map",
    "assemble_cc",
    "assemble_dc",
    "apply_bc",
    "extract_solution",
]


# ------------------------------------------------------------------ #
# problem bundle
# ------------------------------------------------------------------ #

@dataclass
class BoundarySpec:
    """Boundary data, evaluated on arrays.

    ``fracture_bc(fid, mids3)`` takes the ``(n, 3)`` midpoints of a
    fracture's boundary edges and returns two ``(n,)`` arrays
    ``(is_dirichlet, value)``: the pressure where ``is_dirichlet``, else
    the outward normal flux density.  ``gamma_end(gid, end, point3)``
    returns the pressure at an intersection end, or ``None`` for a tip.
    """

    fracture_bc: callable
    gamma_end: callable = lambda gid, end, p3: None

    @classmethod
    def dirichlet(cls, g, g_hat=None):
        """All-Dirichlet data from pressure functions of 3D position; a
        scalar ``g`` is broadcast to every edge."""
        def frac(fid, mids3):
            n = len(mids3)
            return (np.ones(n, bool),
                    np.broadcast_to(np.asarray(g(fid, mids3), float), (n,)))

        def gend(gid, end, p3):
            return None if g_hat is None else float(np.ravel(g_hat(gid, p3))[0])

        return cls(fracture_bc=frac, gamma_end=gend)


@dataclass
class DiscreteProblem:
    """Meshed network plus coefficient and source data."""

    network: FractureNetwork
    meshes: dict                      # fid -> PolyMesh (side-split)
    traces: dict                      # gid -> TraceMesh
    lam: dict                         # fid -> (n_cells, 2, 2)
    varsigma: dict                    # fid -> float
    source: callable = None           # (fid, pts3) -> values
    line_source: callable = None      # (gid, pts3) -> values
    point_sources: list = field(default_factory=list)  # (fid, xyz, strength)


def prepare_problem(network: FractureNetwork, meshes: dict, source=None,
                    line_source=None, point_sources=()):
    """Co-refine traces, split interface dofs and bundle the coefficients.

    ``meshes`` maps fracture id to its (not yet split) mesh and is
    modified in place by the co-refinement.  Each cell's permeability is
    its fracture's ``aperture * k_tangential``.
    """
    traces = corefine_network(meshes, network)
    split = {fid: split_interface_dofs(meshes[fid], traces, fid)
             for fid in sorted(meshes)}
    lam_arrays, sigma = {}, {}
    for fid, mesh in split.items():
        perm = network.fracture(fid).effective_permeability
        lam_arrays[fid] = np.broadcast_to(perm, (mesh.n_cells, 2, 2)).copy()
        sigma[fid] = vem.stabilization_parameter(perm)
    return DiscreteProblem(
        network=network, meshes=split, traces=traces, lam=lam_arrays,
        varsigma=sigma, source=source, line_source=line_source,
        point_sources=list(point_sources),
    )


# ------------------------------------------------------------------ #
# dof map
# ------------------------------------------------------------------ #

@dataclass
class DofMap:
    """Global numbering of flux, pressure and multiplier unknowns."""

    model: str
    edge_dof: dict
    cell_dof: dict
    line_ends: dict        # gid -> (n_elems, 2) end dofs of each element's
                           # 1D flux (dc); a crossing breakpoint has two,
                           # the left element's first
    trace_pressure: dict   # gid -> (n_elems,): the cc multiplier, the dc p-hat
    xi_mult: dict          # xi id -> dof      (dc only)
    total: int
    blocks: dict


def build_dof_map(problem: DiscreteProblem, model: str) -> DofMap:
    """Deterministic numbering: fracture fluxes, fracture pressures,
    per-line 1D fluxes (dc), trace pressures, then point multipliers (dc)."""
    if model not in ("cc", "dc"):
        raise ValueError(f"unknown model {model!r}")
    nxt = 0
    edge_dof, cell_dof = {}, {}
    for fid in sorted(problem.meshes):
        ne = problem.meshes[fid].n_edges
        edge_dof[fid] = np.arange(nxt, nxt + ne)
        nxt += ne
    n_frac_flux = nxt
    for fid in sorted(problem.meshes):
        nc = problem.meshes[fid].n_cells
        cell_dof[fid] = np.arange(nxt, nxt + nc)
        nxt += nc
    n_frac_press = nxt
    line_ends, trace_pressure, xi_mult = {}, {}, {}
    if model == "dc":
        # One flux per breakpoint of every line, two at a crossing: the
        # elements' end dofs come from one running sum over all lines.
        gids = sorted(problem.traces)
        start = np.cumsum([0] + [problem.traces[g].n_elems + 1 for g in gids])
        width = np.ones(start[-1], int)
        width[[s + idx for s, g in zip(start, gids)
               for idx, _ in problem.traces[g].xi_breaks]] = 2
        first = nxt + np.cumsum(width) - width
        ends = np.column_stack([(first + width - 1)[:-1], first[1:]])
        for s, e, g in zip(start, start[1:], gids):
            line_ends[g] = ends[s:e - 1]
        nxt += int(width.sum())
    n_line_flux = nxt
    for gid in sorted(problem.traces):
        trace_pressure[gid] = np.arange(nxt, nxt + problem.traces[gid].n_elems)
        nxt += problem.traces[gid].n_elems
    # cc trace pressures are multipliers; dc's are line pressures.
    n_line_press = nxt if model == "dc" else n_line_flux
    if model == "dc":
        for pt in problem.network.points:
            xi_mult[pt.id] = nxt
            nxt += 1
    blocks = {
        "fracture_flux": np.arange(0, n_frac_flux),
        "fracture_pressure": np.arange(n_frac_flux, n_frac_press),
        "line_flux": np.arange(n_frac_press, n_line_flux),
        "line_pressure": np.arange(n_line_flux, n_line_press),
        "multiplier": np.arange(n_line_press, nxt),
    }
    return DofMap(model=model, edge_dof=edge_dof, cell_dof=cell_dof,
                  line_ends=line_ends, trace_pressure=trace_pressure,
                  xi_mult=xi_mult, total=nxt, blocks=blocks)


# ------------------------------------------------------------------ #
# saddle system
# ------------------------------------------------------------------ #

@dataclass
class SaddleSystem:
    """Sparse symmetric indefinite system with block bookkeeping.

    Every dof in ``fixed`` (Neumann fluxes, intersection tips, pinned
    pressures) is eliminated from ``A`` and ``rhs``: its row and column
    are the identity's and its right-hand side is its ``bc_value``.
    ``bc_value`` also holds the pressure of every Dirichlet dof.
    """

    A: sparse.csr_matrix
    rhs: np.ndarray
    dofs: DofMap
    problem: DiscreteProblem
    model: str
    fixed: np.ndarray                                # (size,) bool
    bc_value: np.ndarray                             # (size,)
    pinned: dict = field(default_factory=dict)       # fid -> pinned dof
    # One (flux dofs (n, d), signs (n, d), pressure dofs (n,), mass) per
    # kernel bucket of width d, widths increasing, before the boundary
    # conditions: the solver condenses the cells.  A padding slot has dof
    # -1 and sign 0.  Where the solver eliminates the blocks (d + 1 <=
    # solver.ELIMINATION_MAX), mass is the signed mass matrices s_i s_j
    # M_ij (n, d, d), a view of a (d, d, n) buffer, cell axis last;
    # elsewhere it is the kernel's factors of M (vem._mass_factors), with
    # varsigma plus the Robin term per slot (d, n) in place of varsigma.
    groups: list = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.A.shape[0]

    @property
    def sparsity(self) -> float:
        return self.A.nnz / float(self.size) ** 2


def _cell_source(problem, fid, mesh) -> np.ndarray:
    vals = np.zeros(mesh.n_cells)
    if problem.source is not None:
        centers3 = mesh.frame.to_global(mesh.cell_centroids)
        vals += mesh.cell_areas * np.asarray(
            problem.source(fid, centers3), float
        )
    for sfid, xyz, strength in problem.point_sources:
        if sfid != fid:
            continue
        d = np.linalg.norm(
            mesh.cell_centroids - mesh.frame.to_local(np.asarray(xyz, float)),
            axis=1,
        )
        vals[int(np.argmin(d))] += strength
    return vals


def _joined(parts):
    """``parts`` as one array along the cell axis; a single part is
    returned as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _assemble_fractures(problem, dofs, rhs, robin):
    """Fracture triplets and cell groups: one kernel call per width of
    ``PolyMesh.cell_buckets`` over the whole network, its cells fracture
    by fracture in bucket order.  A cell's sign is +1 where the global
    dof (outward from the first adjacent cell) is its outward flux.  A
    padding slot is inert: zero length, its midpoint at the centroid,
    sign 0, dof -1 and no triplet.  ``robin`` (per dof) adds the dc
    exchange term to the diagonal of each side edge's one cell block."""
    from .solver import ELIMINATION_MAX     # solver imports this module
    pieces = {}
    for fid in sorted(problem.meshes):
        mesh = problem.meshes[fid]
        edof = dofs.edge_dof[fid]
        cdof = dofs.cell_dof[fid]
        rhs[cdof] -= _cell_source(problem, fid, mesh)
        for ids, pos, real in mesh.cell_buckets:
            es = mesh.cell_edge[pos]
            s = np.where(mesh.edge_cells.take(es, axis=0)[..., 0]
                         == ids[:, None], 1.0, -1.0)
            centroid = mesh.cell_centroids.take(ids, axis=0)
            elen, g = mesh.edge_len[es], edof[es]
            mid = mesh.edge_mid.take(es, axis=0)
            if real is not None:
                s[~real] = 0.0
                elen = np.where(real, elen, 0.0)
                mid = np.where(real[..., None], mid, centroid[:, None])
                g = np.where(real, g, -1)
            pieces.setdefault(pos.shape[1], []).append((
                mesh.cell_areas[ids], centroid, elen,
                mesh.outward_normals(pos), mid,
                problem.lam[fid].take(ids, axis=0),
                np.full(len(ids), problem.varsigma[fid]), g, s, cdof[ids]))
    rows, cols, vals, groups = [], [], [], []
    for d in sorted(pieces):
        *geometry, g, s, p = map(_joined, zip(*pieces.pop(d)))
        real = None if s.all() else s != 0
        M = vem.local_matrices_2d(*geometry)
        closed = d + 1 > ELIMINATION_MAX    # the solver's closed form
        if closed:
            *factors, sig = vem._mass_factors(*geometry)
        del geometry
        M[:, np.arange(d), np.arange(d)] += robin[g]
        # s_i s_j M_ij with the cell axis last, as the kernel and the
        # solver lay it out.
        st = np.ascontiguousarray(s.T)
        ss = st[:, None] * st[None]
        ss *= M.transpose(1, 2, 0)
        ss = ss.transpose(2, 0, 1)
        mrow, mcol, mval = (np.repeat(g, d, axis=1).ravel(),
                            np.tile(g, d).ravel(), ss.ravel())
        prow, frow, fval = np.repeat(p, d), g.ravel(), -s.ravel()
        if real is not None:
            pair = (real[:, :, None] & real[:, None, :]).ravel()
            mrow, mcol, mval = mrow[pair], mcol[pair], mval[pair]
            one = real.ravel()
            prow, frow, fval = prow[one], frow[one], fval[one]
        # b(u, q) = -(div u, q): entries -s on (pressure row, flux col).
        rows += [mrow, prow, frow]
        cols += [mcol, frow, prow]
        vals += [mval, fval, fval]
        groups.append((g, s, p, (*factors, sig + robin[g].T) if closed
                       else ss))
    return rows, cols, vals, groups


def _side_entries(problem, dofs, robin):
    """Triplets of the unit symmetric links from every side edge of a
    trace to its 1D element's trace pressure, read from the edge tags.
    In dc each side edge also gets its Robin exchange term in ``robin``."""
    rows, cols = [], []
    lam_tilde = ({gid: _line_props(problem, gid)[1]
                  for gid in sorted(problem.traces)}
                 if dofs.model == "dc" else {})
    for fid in sorted(problem.meshes):
        mesh = problem.meshes[fid]
        on = np.flatnonzero(mesh.edge_trace >= 0)
        gids, elems = mesh.edge_trace[on], mesh.edge_trace_elem[on]
        d, m = dofs.edge_dof[fid][on], np.empty(len(on), int)
        for gid in np.unique(gids).tolist():
            sel = gids == gid
            m[sel] = dofs.trace_pressure[gid][elems[sel]]
            if gid in lam_tilde:
                robin[d[sel]] = 1.0 / (lam_tilde[gid][fid] * problem.traces[
                    gid].elem_len[elems[sel]])
        rows += [d, m]
        cols += [m, d]
    return rows, cols, [np.ones(len(r)) for r in rows]


def _line_props(problem, gid):
    line = problem.network.line(gid)
    apertures = {f.id: f.aperture for f in problem.network.fractures}
    if line.k_hat is None or line.k_tilde is None:
        raise MissingIntersectionProps(f"intersection {gid} lacks k_hat/k_tilde")
    if line.k_hat <= 0 or line.k_tilde <= 0:
        raise MissingIntersectionProps(
            f"intersection {gid}: permeabilities must be positive; model "
            "blocking/conducting limits with extreme finite values"
        )
    lam_hat = line.effective_tangential(apertures)
    lam_tilde = {fid: line.effective_normal(apertures[fid])
                 for fid in line.parents if fid in problem.meshes}
    return lam_hat, lam_tilde


def _line_entries_dc(problem, dofs, rhs):
    """Triplets of the 1D mixed VEM along every intersection, one kernel
    call per line, and of the point multipliers where lines meet."""
    rows, cols, vals = [], [], []
    s = np.array([-1.0, 1.0])   # outward dof = sign * (tangential value)
    for gid in sorted(problem.traces):
        tm = problem.traces[gid]
        ends, p = dofs.line_ends[gid], dofs.trace_pressure[gid]
        M = vem.local_matrices_1d(tm.elem_len, _line_props(problem, gid)[0]).M
        b = np.tile(-s, tm.n_elems)
        # b(u, q) = -(div u, q): entries -s on (pressure row, flux col).
        rows += [np.repeat(ends, 2, axis=1).ravel(), np.repeat(p, 2),
                 ends.ravel()]
        cols += [np.tile(ends, 2).ravel(), ends.ravel(), np.repeat(p, 2)]
        vals += [(M * s * s[:, None]).ravel(), b, b]
        if problem.line_source is not None:
            rhs[p] -= tm.elem_len * np.asarray(
                problem.line_source(gid, tm.elem_mid_3d()), float)
        # Point multipliers: the outward flux of the element left of a
        # crossing is +u(t), of the element right of it -u(t).
        for bp, xi_id in tm.xi_breaks:
            mu = dofs.xi_mult[xi_id]
            d = [ends[bp - 1, 1], ends[bp, 0]]
            rows += [d, [mu, mu]]
            cols += [[mu, mu], d]
            vals += [-s, -s]
    return rows, cols, vals


def _stacked(dtype, *lists) -> np.ndarray:
    """The pieces of ``lists``, in order, as one array of ``dtype``.  The
    lists are emptied as they are copied, so each piece is freed once
    its copy is made."""
    out = np.empty(sum(len(p) for pieces in lists for p in pieces), dtype)
    end = 0
    for pieces in lists:
        pieces.reverse()
        while pieces:
            piece = pieces.pop()
            out[end:end + len(piece)] = piece
            end += len(piece)
    return out


def _assemble(problem, dofs, bcs, model) -> SaddleSystem:
    if dofs.model != model:
        raise ValueError(f"dofs numbered for {dofs.model}, not {model}")
    rhs = np.zeros(dofs.total)
    robin = np.zeros(dofs.total)
    rows, cols, vals = _side_entries(problem, dofs, robin)
    if dofs.model == "dc":
        lrows, lcols, lvals = _line_entries_dc(problem, dofs, rhs)
        rows, cols, vals = rows + lrows, cols + lcols, vals + lvals
        del lrows, lcols, lvals
    frows, fcols, fvals, groups = _assemble_fractures(problem, dofs, rhs,
                                                      robin)
    # Each triplet is copied once, into the arrays the conversion takes.
    A = sparse.csr_matrix(
        (_stacked(float, fvals, vals),
         (_stacked(np.int32, frows, rows), _stacked(np.int32, fcols, cols))),
        shape=(dofs.total, dofs.total))
    system = SaddleSystem(A=A, rhs=rhs, dofs=dofs, problem=problem,
                          model=dofs.model, fixed=np.zeros(dofs.total, bool),
                          bc_value=np.zeros(dofs.total), groups=groups)
    if bcs is not None:
        apply_bc(system, bcs)
    return system


def assemble_cc(problem: DiscreteProblem, dofs: DofMap,
                bcs: BoundarySpec | None = None) -> SaddleSystem:
    """Pressure-continuous coupling: per-element Lagrange multipliers
    enforce total flux balance across every trace element and act as the
    interface pressure."""
    return _assemble(problem, dofs, bcs, "cc")


def assemble_dc(problem: DiscreteProblem, dofs: DofMap,
                bcs: BoundarySpec | None = None) -> SaddleSystem:
    """Discontinuous coupling with tangential intersection flow."""
    return _assemble(problem, dofs, bcs, "dc")


# ------------------------------------------------------------------ #
# boundary conditions
# ------------------------------------------------------------------ #

def apply_bc(system: SaddleSystem, bcs: BoundarySpec) -> SaddleSystem:
    """Impose boundary data on an assembled system, in place.

    Dirichlet pressures add ``-g`` (times the signed dof weight) to the
    boundary flux rows.  Neumann fluxes, intersection tips and one
    pressure per floating component (no Dirichlet data anywhere; with a
    warning) are fixed, and all fixed dofs are eliminated symmetrically
    at once.
    """
    problem, dofs = system.problem, system.dofs
    fixed, value = system.fixed, system.bc_value
    has_dirichlet = {}
    for fid in sorted(problem.meshes):
        mesh = problem.meshes[fid]
        b = mesh.boundary_edges
        d = dofs.edge_dof[fid][b]
        is_dir, g = bcs.fracture_bc(fid, mesh.frame.to_global(mesh.edge_mid[b]))
        system.rhs[d[is_dir]] -= g[is_dir]
        value[d] = np.where(is_dir, g, g * mesh.edge_len[b])
        fixed[d] = ~is_dir
        has_dirichlet[("f", fid)] = bool(is_dir.any())
    if system.model == "dc":
        for gid in sorted(problem.traces):
            tm = problem.traces[gid]
            has_dirichlet[("g", gid)] = False
            ends = dofs.line_ends[gid]
            for end, p3, dof, sgn in ((0, tm.line.p0, ends[0, 0], -1.0),
                                      (1, tm.line.p1, ends[-1, 1], 1.0)):
                g = bcs.gamma_end(gid, end, p3)
                if g is None:
                    fixed[dof] = True
                    continue
                system.rhs[dof] -= sgn * g
                value[dof] = g
                has_dirichlet[("g", gid)] = True
    system.pinned = _pin_floating_components(problem, dofs, has_dirichlet)
    fixed[list(system.pinned.values())] = True
    if fixed.any():
        system.rhs -= system.A @ np.where(fixed, value, 0.0)
        keep = sparse.diags((~fixed).astype(float))
        idx = np.flatnonzero(fixed)
        system.A = ((keep @ system.A @ keep).tocsr() + sparse.csr_matrix(
            (np.ones(len(idx)), (idx, idx)), shape=system.A.shape)).tocsr()
        system.rhs[idx] = value[idx]
    return system


def _pin_floating_components(problem, dofs, has_dirichlet: dict) -> dict:
    """One pressure dof per connected component without Dirichlet data,
    by fracture id: the first cell of its lowest fracture."""
    ids = sorted(problem.meshes)
    comp = {("f", fid): ("f", fid) for fid in ids}
    for gid in sorted(problem.traces):
        comp[("g", gid)] = ("g", gid)

    def find(a):
        while comp[a] != a:
            comp[a] = comp[comp[a]]
            a = comp[a]
        return a

    def union(a, b):
        comp[find(a)] = find(b)

    for gid, tm in problem.traces.items():
        for fid in tm.line.parents:
            if fid in problem.meshes:
                union(("f", fid), ("g", gid))
    for pt in problem.network.points:
        lines = [g for g in pt.parent_lines if g in problem.traces]
        for g in lines[1:]:
            union(("g", lines[0]), ("g", g))
    have = {}
    for key, flag in has_dirichlet.items():
        root = find(key)
        have[root] = have.get(root, False) or flag
    pins = {}
    for fid in ids:
        root = find(("f", fid))
        if have.get(root, False):
            continue
        warnings.warn(
            f"component of fracture {fid} has no Dirichlet data; pinning "
            "one pressure to zero (analysis assumes Dirichlet somewhere)",
            UnconstrainedPressureWarning,
        )
        pins[fid] = int(dofs.cell_dof[fid][0])
        have[root] = True
    return pins


# ------------------------------------------------------------------ #
# solution extraction
# ------------------------------------------------------------------ #

@dataclass
class Solution:
    """Per-fracture and per-intersection fields recovered from a solve."""

    pressure: dict            # fid -> (n_cells,)
    edge_flux: dict           # fid -> (n_edges,)  global orientation
    velocity: dict            # fid -> (n_cells, 3) projected at centroids
    trace_pressure: dict      # gid -> (n_elems,): cc multiplier or dc p-hat
    line_flux: dict           # gid -> (n_bp,) tangential values (dc); the
                              # left side's at a crossing
    x: np.ndarray


def extract_solution(system: SaddleSystem, x: np.ndarray) -> Solution:
    problem, dofs = system.problem, system.dofs
    pressure, edge_flux, velocity = {}, {}, {}
    for fid in sorted(problem.meshes):
        mesh = problem.meshes[fid]
        pressure[fid] = x[dofs.cell_dof[fid]]
        edge_flux[fid] = x[dofs.edge_dof[fid]]
        cell, es = mesh.entry_cell, mesh.cell_edge
        s = np.where(mesh.edge_cells[es, 0] == cell, 1.0, -1.0)
        vel = vem.project_velocity(
            mesh.cell_areas, mesh.cell_centroids, cell,
            mesh.edge_mid.take(es, axis=0), s * edge_flux[fid][es])
        velocity[fid] = mesh.frame.vector_to_global(vel)
    ends = dofs.line_ends
    return Solution(
        pressure=pressure, edge_flux=edge_flux, velocity=velocity,
        trace_pressure={gid: x[dofs.trace_pressure[gid]]
                        for gid in problem.traces},
        line_flux={gid: x[np.append(ends[gid][0, 0], ends[gid][:, 1])]
                   for gid in problem.traces if gid in ends},
        x=x)


# ------------------------------------------------------------------ #
# JSON boundary selectors
# ------------------------------------------------------------------ #

def boundary_spec_from_json(raw: dict, network: FractureNetwork) -> BoundarySpec:
    """Compile the network file's BC selectors into a BoundarySpec.

    Fracture selectors pick boundary edges by polygon-edge index or by an
    axis-aligned box containing the edge midpoint; unselected edges are
    no-flow.  Intersection endpoints default to zero-flux tips.  A
    selector that is not an object or has an unknown key, an unknown
    ``type``, fracture, edge,
    intersection or end, a ``value`` that is not a finite number, a
    ``box`` that is not two finite 3-vectors ``lo <= hi`` (a boolean is
    neither), or a fracture
    selector without exactly one of ``edge`` and ``box`` raises
    ``ConfigError`` naming its JSON path.
    """
    def check(item, path, key, ok, need):
        try:
            if ok(item[key]):
                return
        except (KeyError, TypeError, ValueError):
            pass
        raise ConfigError(f"{path}.{key}: {item.get(key)!r} is not {need}")

    def index(item, path, key, valid, need):
        check(item, path, key, lambda v: is_json_int(v) and int(v) in valid,
              need)
        return int(item[key])

    def finite(v, shape=()):
        v = np.asarray(v, float)
        return v.shape == shape and np.isfinite(v).all()

    def on_edge(a, b, tol):
        return lambda mids3: point_segment_distance(mids3, a, b) <= tol

    def in_box(lo, hi):
        return lambda mids3: ((mids3 >= lo - 1e-12)
                              & (mids3 <= hi + 1e-12)).all(axis=1)

    for key, kinds, known in (
            ("boundary_conditions", ("dirichlet", "neumann"),
             ("fracture", "edge", "box", "type", "value")),
            ("intersection_conditions", ("tip", "dirichlet"),
             ("gamma", "end", "type", "value"))):
        for i, item in enumerate(json_list(raw, key)):
            path = f"{key}[{i}]"
            if not isinstance(item, dict):
                raise ConfigError(f"{path}: {item!r} is not an object")
            json_keys(item, known, path)
            json_numbers(item, ("value", "box"), path)
            if item.get("type", kinds[0]) not in kinds:
                raise ConfigError(f"{path}.type: {item['type']!r} is "
                                  f"not one of {kinds}")
            if "value" in item:
                check(item, path, "value", finite, "a finite number")
            if "box" in item:
                check(item, path, "box", lambda v: finite(v, (2, 3))
                      and np.all(np.diff(v, axis=0) >= 0),
                      "two finite 3-vectors [lo, hi] with lo <= hi")
    fids = {f.id for f in network.fractures}
    frac_rules = {}     # fid -> [(selector (n, 3) -> mask, is_dirichlet, value)]
    for i, item in enumerate(raw.get("boundary_conditions", [])):
        path = f"boundary_conditions[{i}]"
        fid = index(item, path, "fracture", fids, "a fracture id")
        if ("edge" in item) == ("box" in item):
            raise ConfigError(f"{path}: needs exactly one of 'edge' and "
                              "'box' to select boundary edges")
        if "edge" in item:
            frac = network.fracture(fid)
            n = len(frac.vertices)
            e = index(item, path, "edge", range(n),
                      f"a polygon edge index of fracture {fid} (0..{n - 1})")
            select = on_edge(frac.vertices[e], frac.vertices[(e + 1) % n],
                             100 * frac.tol)
        else:
            select = in_box(*np.asarray(item["box"], float))
        frac_rules.setdefault(fid, []).append(
            (select, item.get("type", "dirichlet") == "dirichlet",
             float(item.get("value", 0.0))))
    gids = {line.id for line in network.lines}
    gamma_values = {}
    for i, item in enumerate(raw.get("intersection_conditions", [])):
        path = f"intersection_conditions[{i}]"
        key = (index(item, path, "gamma", gids, "an intersection id"),
               index(item, path, "end", (0, 1), "0 or 1"))
        gamma_values[key] = (float(item.get("value", 0.0))
                             if item.get("type") == "dirichlet" else None)

    def fracture_bc(fid, mids3):
        n = len(mids3)
        hit, is_dir, value = np.zeros(n, bool), np.zeros(n, bool), np.zeros(n)
        for select, d, v in frac_rules.get(fid, []):
            sel = select(mids3)
            clash = sel & hit & ((is_dir != d) | (value != v))
            if clash.any():
                raise ConflictingBC(f"fracture {fid}: conflicting BCs at "
                                    f"{mids3[np.argmax(clash)]}")
            hit |= sel
            is_dir[sel] = d
            value[sel] = v
        return is_dir, value

    return BoundarySpec(fracture_bc=fracture_bc,
                        gamma_end=lambda gid, end, p3: gamma_values.get(
                            (gid, end)))
