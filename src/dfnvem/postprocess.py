"""Relative errors, convergence orders, and field export.

Errors follow the cell-centred convention: the exact solution is sampled
at cell centroids (element midpoints on intersections) and weighted by
cell measures.  Export targets are legacy-ASCII VTK unstructured grids
(3D-embedded polygons plus intersection polylines) and RFC-4180 CSV
convergence tables and partition maps.

Every number of the VTK files and of the partition CSV goes through one
array writer, ``_write``, which gives the bytes of ``'%.16g' % v`` and
``'%d' % v`` exactly.  A float's 16 significant digits come from an
error-free product (Dekker 1971) of the value with an exact power of
ten, as in fixed-precision printf (Adams 2019, Ryu printf); the rare
value this cannot decide (a near tie, nan, inf, or a nonzero one outside
``[1e-280, 1e16)``) is formatted alone by ``%``.  The files are written
in binary mode, about 8 k values at a time.
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

# Every number is written by ``_write``, which gives exactly the bytes of
# ``'%.16g' % v`` for a float and of ``'%d' % v`` for an integer, from
# array operations.  Each value is laid out in a fixed-width byte row
# that holds every character its text may need; a mask looked up by the
# value's layout picks the bytes to keep, and one boolean index over all
# rows joins them.  A float row is
#
#   bytes  0-5     6-21       22   23-38      39-44     45-46
#          "-0.0"  16 digits  "."  16 digits  "e-0281"  separator
#
# from a template row per (exponent, sign) that holds the sign, any
# leading "0.000" and the exponent's text.  The significant digits are
# written twice, so that one mask per (layout class, last nonzero digit,
# sign) can put the point after any of them; the layout classes tell
# the fixed-point exponents apart, and exponent notation with two
# exponent digits from that with three.  An integer row is "-", its
# digits right-aligned in four bytes per group of four, and the
# separator.

_CHUNK = 1 << 13            # values laid out at a time
_SPLIT = 134217729.0        # 2**27 + 1, Dekker's splitting constant
_GUARD = 1e-6               # nearest a scaled value may come to a tie
_EXP_MIN = -281             # least exponent the array path writes
# Layout classes: x + 4 for a fixed-point exponent x in [-4, 15], then
# exponent notation with two or with three exponent digits, then +-0.
_E2, _E3, _ZERO = 20, 21, 22


def _split(a):
    """Dekker's split of ``a`` into two halves of 26 bits each."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


# 10^k = _POW[k] + _TAIL[k] to 5e-33 relative; exact, _TAIL 0, to 10^22.
_POW = np.array([float(10**k) for k in range(15 - _EXP_MIN + 1)])
_TAIL = np.array([float(10**k - int(p)) for k, p in enumerate(_POW)])
_POW_HI, _POW_LO = _split(_POW)

_GROUP = np.arange(10_000, dtype=np.int16)
_TENS = 10 ** np.arange(4, dtype=np.int16)     # 1, 10, 100, 1000
# The four ASCII digits of 0..9999 as one native uint32 each, and how
# many of them are trailing and leading zeros (4 for 0).
_DIGITS = (48 + _GROUP[:, None] // _TENS[::-1] % 10).astype(np.uint8).view(
    np.uint32).ravel()
_TRAILING = (_GROUP[:, None] % (10 * _TENS) == 0).sum(axis=1, dtype=np.int8)
_LEADING = (_GROUP[:, None] < _TENS).sum(axis=1, dtype=np.int8)


def _float_layout():
    """The template row of each ``(exponent - _EXP_MIN, sign)``, +-0
    after the exponents; the layout class of each exponent and of +-0;
    and the keep mask of each ``(class * 16 + last nonzero digit) * 2 +
    sign``."""
    x = np.arange(_EXP_MIN, 17)
    layout = np.append(np.where((x >= -4) & (x < 16), x + 4,
                                _E2 + (x <= -100)), _ZERO)
    template = np.empty((len(layout), 2, 47), np.uint8)
    template[:] = np.frombuffer(b" " * 22 + b"." + b" " * 16 + b"e" + b" " * 7,
                                np.uint8)
    template[:-1, :, 40] = np.where(x < 0, ord("-"), ord("+"))[:, None]
    template[:-1, :, 41:45] = _DIGITS[np.abs(x)].view(np.uint8).reshape(
        -1, 1, 4)
    for c in range(_ZERO + 1):
        zeros = (b"0" if c == _ZERO else b"0." + b"0" * (3 - c)
                 if c < 4 else b"")
        for neg in (0, 1):
            text = b"-" * neg + zeros       # right-aligned before the digits
            template[layout == c, neg, 6 - len(text):6] = np.frombuffer(
                text, np.uint8)
    c, last, neg = np.unravel_index(np.arange(32 * (_ZERO + 1)),
                                    (_ZERO + 1, 16, 2))
    j = np.arange(47)
    c, last, neg = c[:, None], last[:, None], neg[:, None]
    a, b = j - 6, j - 23            # digit index in the first / second copy
    in_a, in_b = (a >= 0) & (a < 16), (b >= 0) & (b < 16)
    small = c < 4                   # 0.000ddd
    expo = (c == _E2) | (c == _E3)
    s = np.where(expo, 0, c - 4)    # digits before the point, less one
    # Where the sign and the leading "0.000" of the template start.
    start = np.where(small, 1 + c, np.where(c == _ZERO, 5, 6)) - neg
    keep = ((j >= start) & (j < 6)
            | small & in_a & (a <= last)
            | (c >= 4) & (c < _ZERO) & (in_a & (a <= s) | (last > s) & (
                (j == 22) | in_b & (b > s) & (b <= last)))
            | expo & ((j == 39) | (j == 40) | (j > 42 - c + _E2) & (j < 45)))
    return template.reshape(-1, 47), layout, keep


_FLOAT_TEMPLATE, _LAYOUT, _FLOAT_KEEP = _float_layout()


def _zero_run(groups, table):
    """Zeros that ``table`` counts in each digit group, summed along
    ``groups`` up to and including the first nonzero group."""
    run = table[groups[0]]
    rest = np.flatnonzero(groups[0] == 0)
    for g in groups[1:]:
        g = g[rest]
        run[rest] += table[g]
        rest = rest[g == 0]
    return run


def _put_digits(rows, starts, groups):
    """Write the four ASCII digits of each group of ``groups`` (one
    array per group, most significant first) from each byte of
    ``starts`` on."""
    words = np.empty((len(rows), len(groups)), np.uint32)
    for col, g in enumerate(groups):
        words[:, col] = _DIGITS[g]
    width = 4 * len(groups)
    for start in starts:
        rows[:, start:start + width].view(f"V{width}")[:, 0] = (
            words.view(f"V{width}")[:, 0])


def _compact(rows, keep, sep):
    """The kept bytes of ``rows``, each row ended by its separator in its
    last two bytes."""
    rows[:, -2:] = sep
    keep[:, -2] = True
    keep[:, -1] = sep[:, 1] != 0
    return rows[keep]


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

    ``m = |x|`` with ``1e-280 <= m < 1e16`` is scaled by ``10^(15 - e)``,
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
    range.
    """
    m = np.abs(x)
    fast = (m >= 1e-280) & (m < 1e16)
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


def _groups(m, n_groups):
    """The ``n_groups`` groups of four decimal digits of each ``m``, most
    significant first."""
    groups = []
    for _ in range(n_groups):
        top = m // 10_000
        groups.insert(0, m - top * 10_000)
        m = top
    return groups


def _float_text(x, sep):
    """``'%.16g' % v`` and its separator for each float64 ``v`` in ``x``:
    +-0 has a layout class of its own, and every value that
    ``_significand`` cannot decide is formatted alone by ``%``."""
    q, e, ok = _significand(x)
    groups = _groups(q, 4)
    last = 15 - _zero_run(groups[::-1], _TRAILING)
    exp = np.where(x == 0, len(_LAYOUT) - 1, e - _EXP_MIN)
    neg = np.signbit(x)
    rows = np.take(_FLOAT_TEMPLATE, exp * 2 + neg, axis=0)
    keep = np.take(_FLOAT_KEEP, (_LAYOUT[exp] * 16 + last) * 2 + neg, axis=0)
    _put_digits(rows, (6, 23), groups)
    alone = np.flatnonzero(~ok & (x != 0))
    text = np.array([b"%.16g" % v for v in x[alone].tolist()], "S45")
    text = text.view(np.uint8).reshape(-1, 45)     # padded with NUL bytes
    rows[alone, :45] = text
    keep[alone, :45] = text != 0
    return _compact(rows, keep, sep)


def _int_text(v, sep):
    """``'%d' % v`` and its separator for each int64 ``v`` in ``v``."""
    m = np.abs(v).view(np.uint64)       # |-2^63| wraps to 2^63
    n_groups = (len(str(m.max())) + 3) // 4
    groups = [g.view(np.int64) for g in _groups(m, n_groups)]
    width = 4 * n_groups
    zeros = np.minimum(_zero_run(groups, _LEADING), width - 1)
    rows = np.zeros((len(v), width + 3), np.uint8)
    rows[:, 0] = ord("-")
    _put_digits(rows, (1,), groups)
    j = np.arange(width + 3)
    keep = (j > zeros[:, None]) & (j <= width) | (j == 0) & (v[:, None] < 0)
    return _compact(rows, keep, sep)


def _write(fh, values, sep) -> None:
    """Write ``values`` to the binary file ``fh``, each float as
    ``'%.16g' % v`` and each integer as ``'%d' % v``, followed by its
    separator: ``sep`` holds one- or two-byte strings and is broadcast
    against ``values``.  Rows are laid out ``_CHUNK`` values at a time."""
    sep = np.broadcast_to(np.asarray(sep, "S2"), values.shape)
    sep = sep.ravel().view(np.uint8).reshape(-1, 2)
    float_kind = values.dtype.kind == "f"
    values = values.astype(np.float64 if float_kind else np.int64,
                           copy=False).ravel()
    text = _float_text if float_kind else _int_text
    for i in range(0, len(values), _CHUNK):
        fh.write(text(values[i:i + _CHUNK], sep[i:i + _CHUNK]))


_XYZ = [b" ", b" ", b"\n"]     # separators of a three-column row


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
    seps = np.full(len(cells), b" ", "S2")
    seps[np.cumsum(counts + 1) - 1] = b"\n"
    n = len(counts)
    with open(path, "wb") as fh:
        fh.write(b"# vtk DataFile Version 4.2\n"
                 b"dfnvem fracture fields\nASCII\nDATASET UNSTRUCTURED_GRID\n"
                 b"POINTS %d double\n" % len(points))
        _write(fh, points, _XYZ)
        fh.write(b"CELLS %d %d\n" % (n, len(cells)))
        _write(fh, cells, seps)
        fh.write(b"CELL_TYPES %d\n" % n + b"\n".join([b"7"] * n) + b"\n")
        fh.write(b"CELL_DATA %d\n" % n)
        fh.write(b"SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        _write(fh, pvals, b"\n")
        if not n:
            fh.write(b"\n")        # an empty column is one bare newline
        fh.write(b"VECTORS velocity double\n")
        _write(fh, vvals, _XYZ)


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
        _write(fh, points, _XYZ)
        fh.write(b"CELLS %d %d\n" % (n, 3 * n))
        _write(fh, np.column_stack([np.full(n, 2), first, first + 1]), _XYZ)
        fh.write(b"CELL_TYPES %d\n" % n + b"\n".join([b"3"] * n) + b"\n")
        fh.write(b"CELL_DATA %d\n" % n)
        fh.write(b"SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        _write(fh, vals, b"\n")
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
        _write(fh, np.column_stack([np.arange(len(ids)), ids]),
               [b",", b"\r\n"])
