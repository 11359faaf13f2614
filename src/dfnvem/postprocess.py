"""Relative errors, convergence orders, and field export.

Errors follow the cell-centred convention: the exact solution is sampled
at cell centroids (element midpoints on intersections) and weighted by
cell measures.  Export targets are legacy-ASCII VTK unstructured grids
(3D-embedded polygons plus intersection polylines) and RFC-4180 CSV
convergence tables and partition maps.

Every float of the VTK files is written as ``b"%24.15e" % v``: 16
significant digits, so it parses back to the double of ``'%.16g' % v``,
right-aligned in a 24-byte field that starts with a space.  The fixed
width makes the files 23-66 % larger than shortest text on the
benchmark workloads.  The digits come from an error-free product
(Dekker 1971) of the value with an exact power of ten, as in
fixed-precision printf (Adams 2019, Ryu printf); the rare value this
cannot decide (a near tie, nan, inf, or one outside ``[1e-99, 1e16)``
but 0) is formatted alone by ``%``.  Integers, the cell rows and the
partition CSV, are written by ``%`` format strings.  The files are
written in binary mode, about 8 k values at a time.
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

# Every float is written as ``b"%24.15e" % v``: 16 significant digits,
# right-aligned in a 24-byte field that always starts with a space, so
# the fields of a row need no separator.  A field with a two-digit
# exponent is
#
#   bytes  0-2     3    4    5-19       20   21   22-23
#          "  -"   d    "."  15 digits  "e"  "-"  exponent
#
# The 16 digits are written as four words of four ASCII digits at bytes
# 4-19; the first is then moved to byte 3 and the point put in its
# place.  Integers are written by ``%`` format strings.

_CHUNK = 1 << 13            # values or rows formatted at a time
_SPLIT = 134217729.0        # 2**27 + 1, Dekker's splitting constant
_GUARD = 1e-6               # nearest a scaled value may come to a tie
_EXP_MIN = -99              # least exponent the array path writes


def _split(a):
    """Dekker's split of ``a`` into two halves of 26 bits each."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


# 10^k = _POW[k] + _TAIL[k] to 5e-33 relative; exact, _TAIL 0, to 10^22.
_POW = np.array([float(10**k) for k in range(15 - _EXP_MIN + 1)])
_TAIL = np.array([float(10**k - int(p)) for k, p in enumerate(_POW)])
_POW_HI, _POW_LO = _split(_POW)

# The four ASCII digits of 0..9999 as one native uint32 each.
_DIGITS = (48 + np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1)
           % 10).astype(np.uint8).view(np.uint32).ravel()


def _two_product(m, k):
    """``(hi, lo)`` with ``hi + lo = m 10^k``: exactly (Dekker 1971) for
    ``k <= 22``, to 1e-31 relative above."""
    hi = m * _POW[k]
    m_hi, m_lo = _split(m)
    p_hi, p_lo = _POW_HI[k], _POW_LO[k]
    return hi, (((m_hi * p_hi - hi) + m_hi * p_lo + m_lo * p_hi)
                + m_lo * p_lo + m * _TAIL[k])


def _significand(x):
    """``(q, e, ok)``: each ``|x|`` rounded to 16 significant digits is
    ``q 10^(e - 15)`` with ``10^15 <= q < 10^16``, where ``ok``.

    ``m = |x|`` with ``1e-99 <= m < 1e16`` is scaled by ``10^(15 - e)``,
    ``e = floor(log10 m)``, which gives ``hi + lo`` to 1e-15 of a unit
    of ``q``.  ``hi - floor(hi)`` is exact and its sum with ``lo`` and
    1/2 good to 1e-15 too, so the rounding is decided unless that
    fraction lies within ``_GUARD`` of 1/2.  ``q = 10^16`` is the carry
    of a value that rounds up to the next power of ten.  A ``log10``
    that is one too high shows as a scaled value below ``10^15``, a test
    that is exact where the product is, and elsewhere (``m < 1e-7``)
    safe: no double comes nearer than 1e-18 relative to a power of ten
    below 1e-7.  A ``log10`` one too low shows as ``q > 10^16``.  ``ok``
    is false for those, near ties, zeros, nan, +-inf and values out of
    range; their ``e`` is 0 where ``|x|`` is out of range.
    """
    m = np.abs(x)
    fast = (m >= 1e-99) & (m < 1e16)
    m = np.where(fast, m, 1.0)
    e = np.floor(np.log10(m)).clip(_EXP_MIN, 15).astype(np.intp)
    hi, lo = _two_product(m, 15 - e)
    whole = np.floor(hi)
    t = (hi - whole) + lo + 0.5
    up = np.floor(t)
    t -= up
    q = whole.astype(np.int64) + up.astype(np.int64)
    ok = (fast & (t > _GUARD) & (t < 1.0 - _GUARD) & (q <= 10**16)
          & ((hi > 1e15) | (hi == 1e15) & (lo >= 0.0)))
    carry = q == 10**16
    return np.where(ok & ~carry, q, 10**15), e + carry, ok


def _float_fields(x):
    """``b"%24.15e" % v`` of each float64 ``v`` of ``x``, one row of a
    ``(len(x), 24)`` byte array each: +-0 gets the digits of 0, and
    every other value that ``_significand`` cannot decide is formatted
    alone by ``%``."""
    q, e, ok = _significand(x)
    q = np.where(x == 0, 0, q)
    rows = np.empty((len(x), 24), np.uint8)
    words = rows.view(np.uint32)
    for col in range(4, 0, -1):
        top = q // 10_000
        words[:, col] = _DIGITS[q - top * 10_000]
        q = top
    words[:, 5] = _DIGITS[np.abs(e)]    # "00" and the exponent's digits
    rows[:, 3] = rows[:, 4]
    rows[:, :2] = ord(" ")
    rows[:, 2] = np.where(np.signbit(x), ord("-"), ord(" "))
    rows[:, 4] = ord(".")
    rows[:, 20] = ord("e")
    rows[:, 21] = np.where(e < 0, ord("-"), ord("+"))
    alone = np.flatnonzero(~ok & (x != 0))
    rows[alone] = np.frombuffer(
        b"".join([b"%24.15e" % v for v in x[alone].tolist()]),
        np.uint8).reshape(-1, 24)
    return rows


def _write_floats(fh, values) -> None:
    """Write each row of ``values`` (one value or a row of them) as its
    fields and a newline, ``_CHUNK`` values at a time."""
    if values.ndim == 1:
        values = values[:, None]
    width = values.shape[1]
    step = _CHUNK // width
    for i in range(0, len(values), step):
        chunk = values[i:i + step]
        rows = np.empty((len(chunk), 24 * width + 1), np.uint8)
        rows[:, :-1] = _float_fields(chunk.ravel()).reshape(len(chunk), -1)
        rows[:, -1] = ord("\n")
        fh.write(rows.tobytes())


def _write_ints(fh, values, sizes, formats) -> None:
    """Write the integers ``values`` as rows of ``sizes`` values each,
    a row of ``s`` values by ``formats[s]``, ``_CHUNK`` rows at a time."""
    ends = np.cumsum(sizes)
    for i in range(0, len(sizes), _CHUNK):
        chunk = sizes[i:i + _CHUNK].tolist()
        stop = ends[i + len(chunk) - 1]
        fmt = b"".join([formats[s] for s in chunk])
        fh.write(fmt % tuple(values[stop - sum(chunk):stop].tolist()))


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
    points, tails, counts, pvals, vvals = (
        np.concatenate(v) for v in (points, tails, counts, pvals, vvals))
    n = len(counts)
    # A cell's row is its node count, then its nodes.
    cell_rows = {c: b"%d" % c + b" %d" * c + b"\n"
                 for c in np.unique(counts).tolist()}
    with open(path, "wb") as fh:
        fh.write(b"# vtk DataFile Version 4.2\n"
                 b"dfnvem fracture fields\nASCII\nDATASET UNSTRUCTURED_GRID\n"
                 b"POINTS %d double\n" % len(points))
        _write_floats(fh, points)
        fh.write(b"CELLS %d %d\n" % (n, n + counts.sum()))
        _write_ints(fh, tails, counts, cell_rows)
        fh.write(b"CELL_TYPES %d\n" % n + b"\n".join([b"7"] * n) + b"\n")
        fh.write(b"CELL_DATA %d\n" % n)
        fh.write(b"SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        _write_floats(fh, pvals)
        if not n:
            fh.write(b"\n")        # an empty column is one bare newline
        fh.write(b"VECTORS velocity double\n")
        _write_floats(fh, vvals)


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
    with open(path, "wb") as fh:
        fh.write(b"# vtk DataFile Version 4.2\n"
                 b"dfnvem intersection fields\nASCII\n"
                 b"DATASET UNSTRUCTURED_GRID\n"
                 b"POINTS %d double\n" % len(points))
        _write_floats(fh, points)
        fh.write(b"CELLS %d %d\n" % (n, 3 * n))
        _write_ints(fh, np.column_stack([first, first + 1]).ravel(),
                    np.full(n, 2), {2: b"2 %d %d\n"})
        fh.write(b"CELL_TYPES %d\n" % n + b"\n".join([b"3"] * n) + b"\n")
        fh.write(b"CELL_DATA %d\n" % n)
        fh.write(b"SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        _write_floats(fh, vals)
        if not n:
            fh.write(b"\n")


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
    """cell id -> coarse id map for visualization overlays, as RFC-4180
    CSV with CRLF line ends."""
    ids = partition.cell_to_coarse
    with open(path, "wb") as fh:
        fh.write(b"cell,coarse\r\n")
        _write_ints(fh, np.column_stack([np.arange(len(ids)), ids]).ravel(),
                    np.full(len(ids), 2), {2: b"%d,%d\r\n"})
