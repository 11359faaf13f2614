"""Seeded 12-fracture network for the ``network-cc`` workload.

The layout is four x-planes, four y-planes and two z-planes spanning the
unit cube, plus a partially immersed horizontal sheet (its traces end
inside other fractures) and a slanted rectangle.  The seed shifts each
axis-aligned plane along its normal and translates the sheet and the
slanted rectangle, all by U(-0.03, 0.03).

Boundary data make ``p = x`` the exact solution on every fracture: each
polygon edge that lies in a plane x = const gets that x as its Dirichlet
value, every other edge is no-flow (its outward normal is orthogonal to
the x axis).  The continuous-coupling model reproduces linear pressures,
so the cell pressures match x at the cell centroids to rounding.

This module is self-contained so the workload does not change when the
test helpers do; the program only ever sees the JSON file it writes.
"""

from __future__ import annotations

import json

import numpy as np

JITTER = 0.03


def network_dict(seed: int) -> dict:
    """The network file payload for one workload seed."""
    rng = np.random.default_rng(seed)
    rects = []    # (vertices, indices of the edges lying in a plane x = c)
    for a in (0.2, 0.4, 0.6, 0.8):
        a += rng.uniform(-JITTER, JITTER)
        rects.append(([[a, 0, 0], [a, 1, 0], [a, 1, 1], [a, 0, 1]], ()))
    for b in (0.25, 0.45, 0.65, 0.85):
        b += rng.uniform(-JITTER, JITTER)
        rects.append(([[0, b, 0], [1, b, 0], [1, b, 1], [0, b, 1]], (1, 3)))
    for c in (0.35, 0.72):
        c += rng.uniform(-JITTER, JITTER)
        rects.append(([[0, 0, c], [1, 0, c], [1, 1, c], [0, 1, c]], (1, 3)))
    sheet = np.array([[0.05, 0.3, 0.55], [0.5, 0.3, 0.55],
                      [0.5, 0.7, 0.55], [0.05, 0.7, 0.55]])
    rects.append((sheet + rng.uniform(-JITTER, JITTER, 3), (1, 3)))
    slanted = np.array([[1.0, 0.3, 0.0], [1.0, 0.8, 0.0],
                        [0.0, 0.8, 1.0], [0.0, 0.3, 1.0]])
    rects.append((slanted + rng.uniform(-JITTER, JITTER, 3), (0, 2)))
    fractures, bcs = [], []
    for fid, (verts, x_edges) in enumerate(rects):
        verts = [[float(v) for v in p] for p in verts]
        fractures.append({"id": fid, "aperture": 1.0,
                          "k_tangential": [1.0, 0.0, 1.0], "vertices": verts})
        bcs.extend({"fracture": fid, "edge": e, "type": "dirichlet",
                    "value": verts[e][0]} for e in x_edges)
    return {"fractures": fractures, "boundary_conditions": bcs}


def write_network(path, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_dict(seed), fh, indent=1)
        fh.write("\n")
