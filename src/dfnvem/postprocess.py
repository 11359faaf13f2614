"""Relative errors, convergence orders, and field export.

Errors follow the cell-centred convention: the exact solution is sampled
at cell centroids (element midpoints on intersections) and weighted by
cell measures.  Export targets are legacy-ASCII VTK unstructured grids
(3D-embedded polygons plus intersection polylines) and RFC-4180 CSV
convergence tables.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import MissingExactSolution

__all__ = [
    "ErrorReport",
    "relative_errors",
    "convergence_orders",
    "export_vtk",
    "export_line_vtk",
    "export_csv",
    "export_partition_csv",
]


@dataclass
class ErrorReport:
    level: int
    h_avg: float
    h_max: float
    err_p: float = None
    err_u: float = None
    err_p_hat: float = None
    err_u_hat: float = None
    h_hat: float = None
    order_p: float = None
    order_u: float = None
    order_p_hat: float = None
    order_u_hat: float = None
    min_p: float = None
    max_p: float = None
    size: int = 0
    sparsity: float = None
    n_cells: int = 0
    faces: tuple = (0, 0.0, 0)


def _componentwise_rel(num: np.ndarray, den: np.ndarray) -> float:
    """Root-sum-square of per-component relative errors.

    Each Cartesian component is normalized by its own weighted norm (the
    convention the bundled benchmark values were computed with);
    identically zero components are skipped, components without an exact
    counterpart fall back to the total norm.
    """
    total = float(den.sum())
    out = 0.0
    for nj, dj in zip(num, den):
        if dj > 0.0:
            out += nj / dj
        elif nj > 0.0:
            out += nj / max(total, 1e-300)
    return float(np.sqrt(out))


def relative_errors(problem, system, solution, case, level: int = 0) -> ErrorReport:
    """Cell-centred relative L2 errors of pressure and projected velocity.

    ``case`` provides ``p_exact(fid, pts3)`` / ``u_exact(fid, pts3)`` and,
    for the flow-carrying model, ``p_hat_exact(gid, pts3)`` /
    ``u_hat_exact(gid, pts3)``.  Velocity errors are aggregated component
    by component over the whole network (see ``_componentwise_rel``).
    Intersection errors are computed for dc systems only.
    """
    if getattr(case, "p_exact", None) is None:
        raise MissingExactSolution(f"case {getattr(case, 'name', '?')} has no "
                                   "exact solution")
    wsum, diam = [], []
    pw_num = pw_den = 0.0
    u_num = np.zeros(3)
    u_den = np.zeros(3)
    min_p, max_p = np.inf, -np.inf
    epc = []
    for fid in sorted(problem.meshes):
        mesh = problem.meshes[fid]
        w = mesh.cell_areas
        c3 = mesh.frame.to_global(mesh.cell_centroids)
        p_ex = np.asarray(case.p_exact(fid, c3), float)
        dp = solution.pressure[fid] - p_ex
        pw_num += float(w @ dp**2)
        pw_den += float(w @ p_ex**2)
        if case.u_exact is not None:
            u_ex = np.asarray(case.u_exact(fid, c3), float)
            du = solution.velocity[fid] - u_ex
            u_num += w @ du**2
            u_den += w @ u_ex**2
        min_p = min(min_p, float(solution.pressure[fid].min()))
        max_p = max(max_p, float(solution.pressure[fid].max()))
        wsum.append(w)
        diam.append(mesh.cell_diameters)
        epc.append(np.diff(mesh.cell_ptr))
    diam = np.concatenate(diam)
    epc = np.concatenate(epc)
    report = ErrorReport(
        level=level,
        h_avg=float(diam.mean()),
        h_max=float(diam.max()),
        err_p=float(np.sqrt(pw_num / pw_den)) if pw_den > 0 else float(np.sqrt(pw_num)),
        min_p=min_p, max_p=max_p,
        size=system.size, sparsity=system.sparsity,
        n_cells=int(sum(len(w) for w in wsum)),
        faces=(int(np.min(epc)), float(np.mean(epc)), int(np.max(epc))),
    )
    if case.u_exact is not None:
        report.err_u = _componentwise_rel(u_num, u_den)
    if getattr(case, "p_hat_exact", None) is not None and system.model == "dc":
        hp_num = hp_den = 0.0
        hu_num = np.zeros(3)
        hu_den = np.zeros(3)
        hats = []
        for gid, tm in problem.traces.items():
            w = tm.elem_len
            mid3 = tm.elem_mid_3d()
            p_ex = np.asarray(case.p_hat_exact(gid, mid3), float)
            dp = solution.trace_pressure[gid] - p_ex
            hp_num += float(w @ dp**2)
            hp_den += float(w @ p_ex**2)
            if case.u_hat_exact is not None:
                u_ex = np.asarray(case.u_hat_exact(gid, mid3), float)
                ut = solution.line_flux[gid]
                proj = 0.5 * (ut[:-1] + ut[1:])   # element-wise projection
                got3 = np.outer(proj, tm.line.direction)
                du = got3 - u_ex
                hu_num += w @ du**2
                hu_den += w @ u_ex**2
            hats.append(w)
        report.err_p_hat = float(np.sqrt(hp_num / max(hp_den, 1e-300)))
        if case.u_hat_exact is not None:
            report.err_u_hat = _componentwise_rel(hu_num, hu_den)
        report.h_hat = float(np.concatenate(hats).mean())
    return report


def convergence_orders(reports: list) -> list:
    """Fill log-ratio orders between consecutive ladder levels (h_avg)."""
    for prev, cur in zip(reports[:-1], reports[1:]):
        r = np.log(prev.h_avg / cur.h_avg)
        if r <= 0:
            continue
        for name, hname in (("p", "h_avg"), ("u", "h_avg"),
                            ("p_hat", "h_hat"), ("u_hat", "h_hat")):
            e0 = getattr(prev, f"err_{name}")
            e1 = getattr(cur, f"err_{name}")
            if e0 is None or e1 is None or e0 <= 0 or e1 <= 0:
                continue
            h0, h1 = getattr(prev, hname), getattr(cur, hname)
            if h0 is None or h1 is None or h0 <= h1:
                continue
            setattr(cur, f"order_{name}",
                    float(np.log(e0 / e1) / np.log(h0 / h1)))
    return reports


# ------------------------------------------------------------------ #
# VTK / CSV export
# ------------------------------------------------------------------ #

def _rows(fmt: str, values: np.ndarray) -> str:
    """One ``fmt % row`` per row of ``values``."""
    return (fmt * len(values)) % tuple(values.ravel().tolist())


def _column(values: np.ndarray) -> str:
    """One ``%.16g`` value per line; a lone newline when there are none."""
    return "\n".join(["%.16g"] * len(values)) % tuple(values.tolist()) + "\n"


def export_vtk(problem, solution, path) -> None:
    """Legacy-ASCII unstructured grid of all fracture meshes in 3D.

    Cells are POLYGONs carrying pressure and the projected velocity.
    Agglomerated cells whose boundary cannot be chained into one loop
    are skipped (their member triangles are only a visual aid anyway).
    """
    points, tails, counts, pvals, vvals = [], [], [], [], []
    base = 0
    for fid in sorted(problem.meshes):
        mesh = problem.meshes[fid]
        keep = mesh.chained
        n_edges = np.diff(mesh.cell_ptr)
        points.append(mesh.frame.to_global(mesh.nodes))
        tails.append(mesh.entry_tail[np.repeat(keep, n_edges)] + base)
        counts.append(n_edges[keep])
        pvals.append(solution.pressure[fid][keep])
        vvals.append(solution.velocity[fid][keep])
        base += mesh.n_nodes
    points = np.concatenate(points)
    counts = np.concatenate(counts)
    pvals = np.concatenate(pvals)
    vvals = np.concatenate(vvals)
    # A cell's row is its node count, then its nodes.
    cells = np.insert(np.concatenate(tails), np.cumsum(counts) - counts, counts)
    fmt = {d: "%d" + " %d" * d + "\n" for d in set(counts.tolist())}
    n = len(counts)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("# vtk DataFile Version 4.2\n")
        fh.write("dfnvem fracture fields\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(points)} double\n")
        fh.write(_rows("%.16g %.16g %.16g\n", points))
        fh.write(f"CELLS {n} {len(cells)}\n")
        fh.write("".join([fmt[d] for d in counts.tolist()])
                 % tuple(cells.tolist()))
        fh.write(f"CELL_TYPES {n}\n")
        fh.write("\n".join(["7"] * n) + "\n")
        fh.write(f"CELL_DATA {n}\n")
        fh.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        fh.write(_column(pvals))
        fh.write("VECTORS velocity double\n")
        fh.write(_rows("%.16g %.16g %.16g\n", vvals))


def export_line_vtk(problem, solution, path) -> None:
    """Intersection polylines with their trace pressures: the dc p-hat or
    the cc multipliers."""
    points, first, vals = [np.zeros((0, 3))], [np.zeros(0, int)], [np.zeros(0)]
    base = 0
    for gid, tm in sorted(problem.traces.items()):
        points.append(tm.line.p0 + tm.breakpoints[:, None] * tm.line.direction)
        first.append(base + np.arange(tm.n_elems))
        base += len(tm.breakpoints)
        vals.append(solution.trace_pressure[gid])
    points, first, vals = (np.concatenate(v) for v in (points, first, vals))
    n = len(first)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("# vtk DataFile Version 4.2\n")
        fh.write("dfnvem intersection fields\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(points)} double\n")
        fh.write(_rows("%.16g %.16g %.16g\n", points))
        fh.write(f"CELLS {n} {3 * n}\n")
        fh.write(_rows("2 %d %d\n", np.column_stack([first, first + 1])))
        fh.write(f"CELL_TYPES {n}\n")
        fh.write("\n".join(["3"] * n) + "\n")
        fh.write(f"CELL_DATA {n}\n")
        fh.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        fh.write(_column(vals))


_CSV_COLUMNS = [
    "level", "h", "err_p", "order_p", "err_u", "order_u",
    "faces_min", "faces_avg", "faces_max", "min_p", "max_p",
    "size", "sparsity",
]
_CSV_HAT_COLUMNS = [
    "level", "h", "err_p_hat", "order_p_hat", "err_u_hat", "order_u_hat",
]


def export_csv(reports: list, path, intersection: bool = False) -> None:
    """Convergence table in the reference column layout."""
    cols = _CSV_HAT_COLUMNS if intersection else _CSV_COLUMNS
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(cols)
        for r in reports:
            if intersection:
                row = [r.level, r.h_hat, r.err_p_hat, r.order_p_hat,
                       r.err_u_hat, r.order_u_hat]
            else:
                row = [r.level, r.h_avg, r.err_p, r.order_p, r.err_u,
                       r.order_u, r.faces[0], r.faces[1], r.faces[2],
                       r.min_p, r.max_p, r.size, r.sparsity]
            writer.writerow(["" if v is None else repr(v) if isinstance(v, float)
                             else v for v in row])


def export_partition_csv(partition, path) -> None:
    """cell id -> coarse id map for visualization overlays."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["cell", "coarse"])
        for i, g in enumerate(partition.cell_to_coarse):
            writer.writerow([i, int(g)])
