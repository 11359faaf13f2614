"""Built-in benchmark cases with analytic data and mesh family ladders.

Each case bundles a fracture network, coefficient and source data,
boundary conditions, exact solutions when available, and the mesh
families used in the convergence studies.  Builders are deterministic;
the random family uses a seeded generator.

The two-ellipse cases place the ellipses so the shared trace spans the
full unit interval along y (the intersection data and exact solutions
vanish at its endpoints); sources are the negative Laplacian of the
exact pressure branch by branch so the strong equations hold exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import assembly as asm
from . import coarsening as coa
from . import meshing as msh
from . import postprocess as post
from . import solver as slv
from .errors import ConfigError
from .geometry import Fracture, build_network, point_segment_distance

__all__ = [
    "BenchmarkCase",
    "case_single_fracture",
    "case_two_fractures",
    "case_intersection_flow",
    "case_four_fractures",
    "get_case",
    "solve_meshes",
    "run_level",
    "run_convergence",
]

CASE_NAMES = ("single", "two-fractures", "intersection-flow", "four-fractures")


@dataclass
class BenchmarkCase:
    """Geometry, data, exact solutions and mesh ladder of one benchmark."""

    name: str
    model: str
    network_builder: callable
    mesh_builder: callable            # (network, family, level) -> {fid: mesh}
    families: tuple
    source: callable = None           # f(fid, pts3)
    line_source: callable = None      # f_hat(gid, pts3)
    point_sources: list = field(default_factory=list)
    bcs_builder: callable = None      # (network) -> BoundarySpec
    p_exact: callable = None
    u_exact: callable = None
    p_hat_exact: callable = None
    u_hat_exact: callable = None
    laplacian_exact: callable = None  # in-plane Laplacian of p_exact
    _network: object = None

    def network(self):
        if self._network is None:
            self._network = self.network_builder()
        return self._network

    def meshes(self, family: str, level: int) -> dict:
        if family not in self.families:
            raise ConfigError(
                f"case {self.name}: unknown family {family!r}; "
                f"choose from {self.families}"
            )
        return self.mesh_builder(self.network(), family, level)

    def bcs(self):
        return self.bcs_builder(self.network())


# ------------------------------------------------------------------ #
# helpers shared by the case builders
# ------------------------------------------------------------------ #

def _rotation(theta: float, axis) -> np.ndarray:
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(theta) * K + (1 - np.cos(theta)) * (K @ K)


def _rotate(points, theta, origin, axis):
    R = _rotation(theta, axis)
    origin = np.asarray(origin, float)
    return (np.asarray(points, float) - origin) @ R.T + origin


def _octagon(plane: str) -> np.ndarray:
    """Eight boundary segments of an ellipse with semi-axes (1, 1/2),
    centred so the minor axis spans y in [0, 1]."""
    ang = np.arange(8) * np.pi / 4
    major = np.cos(ang)
    minor = 0.5 + 0.5 * np.sin(ang)
    if plane == "x":   # ellipse in the x = 0 plane: z^2 + 4 (y-1/2)^2 <= 1
        return np.column_stack([np.zeros(8), minor, major])
    return np.column_stack([major, minor, np.zeros(8)])


# ------------------------------------------------------------------ #
# single fracture (rotated unit square)
# ------------------------------------------------------------------ #

def case_single_fracture() -> BenchmarkCase:
    """Rotated unit square with a smooth manufactured solution.

    Mesh families: cartesian, coarse (depth-2 agglomerated cartesian),
    triangular and random (jiggled cartesian).
    """
    c = s = np.sqrt(2.0) / 2.0

    def network():
        from .geometry import Frame
        verts = np.array([[0, 0, 0], [1, 0, 0], [1, c, s], [0, c, s]])
        # Explicit frame so local coordinates are the reference unit
        # square (the best-fit normal sign is ambiguous at 45 degrees).
        frame = Frame(origin=np.zeros(3), t1=np.array([1.0, 0.0, 0.0]),
                      t2=np.array([0.0, c, s]), n=np.array([0.0, -s, c]))
        return build_network([Fracture(id=0, vertices=verts, frame=frame)])

    def p_exact(fid, x):
        x = np.asarray(x, float)
        return (x[..., 0] ** 2 * x[..., 2]
                + 4 * x[..., 1] ** 2 * np.sin(np.pi * x[..., 1])
                - 3 * x[..., 2] ** 3)

    def u_exact(fid, pts):
        pts = np.atleast_2d(pts)
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        comp = (0.5 * (9 * z**2 - x**2) - 4 * y * np.sin(np.pi * y)
                - 2 * np.pi * y**2 * np.cos(np.pi * y))
        return np.column_stack([-2 * x * z, comp, comp])

    def source(fid, pts):
        pts = np.atleast_2d(pts)
        y, z = pts[:, 1], pts[:, 2]
        return (7 * z - 4 * np.sin(np.pi * y)
                + 2 * np.pi**2 * y**2 * np.sin(np.pi * y)
                - 8 * np.pi * y * np.cos(np.pi * y))

    def laplacian(fid, pts):
        # Tangential Laplacian of p_exact on the plane spanned by
        # (1,0,0) and (0,c,s): H_xx + (H_yy + H_zz)/2 with no cross term.
        pts = np.atleast_2d(pts)
        y, z = pts[:, 1], pts[:, 2]
        h_xx = 2 * z
        h_yy = (8 * np.sin(np.pi * y) + 16 * np.pi * y * np.cos(np.pi * y)
                - 4 * np.pi**2 * y**2 * np.sin(np.pi * y))
        h_zz = -18 * z
        return h_xx + 0.5 * (h_yy + h_zz)

    def meshes(net, family, level):
        frac = net.fractures[0]
        n = 10 * 2 ** (level - 1)
        if family == "cartesian":
            return {0: msh.cartesian_mesh(n, frame=frac.frame)}
        if family == "random":
            return {0: msh.random_mesh(n, seed=900 + level, frame=frac.frame)}
        if family == "triangular":
            h = 0.125 * 2.0 ** (1 - level)
            return {0: msh.triangulate(frac.local_polygon, h_target=h,
                                       frame=frac.frame)}
        base = {0: msh.cartesian_mesh(n, frame=frac.frame)}
        coarse = coa.agglomerate_network(net, base, c_depth=2)
        return {fid: mesh for fid, (mesh, _) in coarse.items()}

    return BenchmarkCase(
        name="single", model="cc", network_builder=network,
        mesh_builder=meshes,
        families=("cartesian", "coarse", "triangular", "random"),
        source=source,
        bcs_builder=lambda net: asm.BoundarySpec.dirichlet(
            lambda fid, x: p_exact(fid, x)),
        p_exact=p_exact, u_exact=u_exact, laplacian_exact=laplacian,
    )


# ------------------------------------------------------------------ #
# two ellipse fractures, pressure-continuous coupling
# ------------------------------------------------------------------ #

def _two_fracture_fields(zeta: float):
    """Exact pressure/velocity/source branches for the ellipse pair.

    Fracture 0 lives in x = 0 with branches in z, fracture 1 in z = 0
    with branches in x (offset by zeta).  The source is the negative
    in-plane Laplacian of the exact pressure.
    """

    def p_exact(fid, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        base = 4 * y * (1 - y)
        if fid == 0:
            w = np.where(z >= 0, z - 1, z + 1)
        else:
            w = np.where(x >= 0, x + zeta, x - zeta)
        return base * w**2

    def source(fid, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        if fid == 0:
            w = np.where(z >= 0, z - 1, z + 1)
        else:
            w = np.where(x >= 0, x + zeta, x - zeta)
        return 8 * w**2 - 8 * y * (1 - y)

    def u_exact(fid, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        dyy = -4 * (1 - 2 * y)
        if fid == 0:
            w = np.where(z >= 0, z - 1, z + 1)
            return np.column_stack([np.zeros_like(x), dyy * w**2,
                                    -8 * y * (1 - y) * w])
        w = np.where(x >= 0, x + zeta, x - zeta)
        return np.column_stack([-8 * y * (1 - y) * w, dyy * w**2,
                                np.zeros_like(x)])

    def laplacian(fid, pts):
        # In-plane: d2/dy2 [4y(1-y)] w^2 + 4y(1-y) d2/dw2 [w^2].
        pts = np.atleast_2d(np.asarray(pts, float))
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        if fid == 0:
            w = np.where(z >= 0, z - 1, z + 1)
        else:
            w = np.where(x >= 0, x + zeta, x - zeta)
        return -8 * w**2 + 8 * y * (1 - y)

    return p_exact, u_exact, source, laplacian


def _ellipse_pair_network(k_hat=1.0, k_tilde=1.0):
    f0 = Fracture(id=0, vertices=_octagon("x"))
    f1 = Fracture(id=1, vertices=_octagon("z"))
    return build_network(
        [f0, f1],
        intersection_props={frozenset({0, 1}): {"k_hat": k_hat,
                                                "k_tilde": k_tilde}},
    )


def _ellipse_meshes(net, family, level):
    h = 0.35 * 2.0 ** (1 - level)
    base = {
        fid: msh.triangulate_fracture(net.fracture(fid), net.traces_of(fid), h)
        for fid in (0, 1)
    }
    if family == "triangular":
        return base
    if family.startswith("coarse"):
        depth = int(family.removeprefix("coarse"))
        coarse = coa.agglomerate_network(net, base, c_depth=depth)
        return {fid: mesh for fid, (mesh, _) in coarse.items()}
    raise ConfigError(f"unknown ellipse family {family!r}")


def case_two_fractures() -> BenchmarkCase:
    """Two orthogonal ellipse fractures with continuous coupling."""
    p_exact, u_exact, source, laplacian = _two_fracture_fields(1.0)
    return BenchmarkCase(
        name="two-fractures", model="cc",
        network_builder=_ellipse_pair_network,
        mesh_builder=_ellipse_meshes,
        families=("triangular", "coarse2", "coarse4", "coarse5"),
        source=source,
        bcs_builder=lambda net: asm.BoundarySpec.dirichlet(
            lambda fid, x: p_exact(fid, x)),
        p_exact=p_exact, u_exact=u_exact, laplacian_exact=laplacian,
    )


# ------------------------------------------------------------------ #
# two fractures with intersection flow (discontinuous coupling)
# ------------------------------------------------------------------ #

def case_intersection_flow() -> BenchmarkCase:
    """Ellipse pair with tangential flow along the intersection.

    Normal effective permeability 8, unit tangential one; the
    intersection pressure 5 y (1 - y) exceeds the fracture traces'
    4 y (1 - y), driving exchange consistent with the Robin conditions.
    """
    zeta = -1.0
    p_exact, u_exact, source, laplacian = _two_fracture_fields(zeta)

    def p_hat_exact(gid, pts):
        y = np.atleast_2d(np.asarray(pts, float))[:, 1]
        return 5 * y * (1 - y)

    def u_hat_exact(gid, pts):
        y = np.atleast_2d(np.asarray(pts, float))[:, 1]
        zero = np.zeros_like(y)
        return np.column_stack([zero, 10 * y - 5, zero])

    def line_source(gid, pts):
        y = np.atleast_2d(np.asarray(pts, float))[:, 1]
        return 10 + 32 * y * (1 - y)

    def bcs(net):
        return asm.BoundarySpec.dirichlet(
            lambda fid, x: p_exact(fid, x),
            g_hat=lambda gid, p: 0.0,
        )

    return BenchmarkCase(
        name="intersection-flow", model="dc",
        network_builder=lambda: _ellipse_pair_network(k_hat=1.0, k_tilde=8.0),
        mesh_builder=_ellipse_meshes,
        families=("triangular", "coarse2", "coarse4"),
        source=source, line_source=line_source, bcs_builder=bcs,
        p_exact=p_exact, u_exact=u_exact, laplacian_exact=laplacian,
        p_hat_exact=p_hat_exact, u_hat_exact=u_hat_exact,
    )


# ------------------------------------------------------------------ #
# four-fracture modeling example
# ------------------------------------------------------------------ #

NU = 1.0 / (5.0 * np.sqrt(2.0))


def _four_fracture_vertices():
    o1 = np.array([[0, 0, 0], [1, 0, 0], [1, 0, 1], [0, 0, 1]], float)
    diamond = np.array([[0, 0, -0.2], [0.5, 0, 0.3],
                        [1, 0, -0.2], [0.5, 0, -0.7]], float)
    o2 = _rotate(diamond, 2 * np.pi / 3, (0.5, 0, 0), (0, 0, 1))
    nu = NU
    rect3 = np.array([[nu, 0, 0.5 + nu], [0.5 - nu, 0, 0.5 + nu],
                      [0.5 - nu, 0, 1 + nu], [nu, 0, 1 + nu]], float)
    o3 = _rotate(rect3, np.pi / 6, (0.5, 0, 0.5), (1, 0, -1))
    # The fourth fracture mirrors the third across the x = 1/2 plane.
    rect4 = rect3.copy()
    rect4[:, 0] = 1.0 - rect4[:, 0]
    o4 = _rotate(rect4, -np.pi / 6, (0.5, 0, 0.5), (1, 0, 1))
    return o1, o2, o3, o4


def case_four_fractures() -> BenchmarkCase:
    """Unit source in the central fracture feeding three neighbours.

    The intersection with fracture 1 is nearly sealed in the normal
    direction; the intersections with fractures 2 and 3 are congruent
    but carry a blocking respectively conducting tangential permeability,
    so flow into fracture 3 channelizes along the intersection.
    """
    o1, o2, o3, o4 = _four_fracture_vertices()

    def network():
        fracs = [Fracture(id=i, vertices=v)
                 for i, v in enumerate((o1, o2, o3, o4))]
        props = {
            frozenset({0, 1}): {"k_hat": 1.0, "k_tilde": 1e-7},
            frozenset({0, 2}): {"k_hat": 1e-10, "k_tilde": 1.0},
            frozenset({0, 3}): {"k_hat": 1e10, "k_tilde": 1.0},
        }
        return build_network(fracs, intersection_props=props)

    def meshes(net, family, level):
        h = 0.08 * 2.0 ** (1 - level)
        return {
            fid: msh.triangulate_fracture(net.fracture(fid),
                                          net.traces_of(fid), h)
            for fid in (0, 1, 2, 3)
        }

    def bcs(net):
        source = np.array([0.5, 0.0, 0.5])
        outlets = {}
        for fid in (1, 2, 3):
            frac = net.fracture(fid)
            far = int(np.argmax(np.linalg.norm(frac.vertices - source, axis=1)))
            nv = len(frac.vertices)
            outlets[fid] = [
                (frac.vertices[far], frac.vertices[(far + 1) % nv]),
                (frac.vertices[far - 1], frac.vertices[far]),
            ]

        def fracture_bc(fid, mids3):
            outlet = np.zeros(len(mids3), bool)
            for a, b in outlets.get(fid, ()):
                outlet |= point_segment_distance(mids3, a, b) < 1e-9
            return outlet, np.zeros(len(mids3))

        return asm.BoundarySpec(fracture_bc=fracture_bc)

    return BenchmarkCase(
        name="four-fractures", model="dc", network_builder=network,
        mesh_builder=meshes, families=("triangular",),
        point_sources=[(0, (0.5, 0.0, 0.5), 1.0)],
        bcs_builder=bcs,
    )


def get_case(name: str) -> BenchmarkCase:
    if name == "single":
        return case_single_fracture()
    if name == "two-fractures":
        return case_two_fractures()
    if name == "intersection-flow":
        return case_intersection_flow()
    if name == "four-fractures":
        return case_four_fractures()
    raise ConfigError(f"unknown case {name!r}; choose from {CASE_NAMES}")


# ------------------------------------------------------------------ #
# harness
# ------------------------------------------------------------------ #

def solve_meshes(network, meshes: dict, bcs, model: str, *, source=None,
                 line_source=None, point_sources=()):
    """Prepare, number, assemble, solve and extract one set of meshes.

    ``meshes`` maps fracture id to its unsplit mesh and is left as it
    is; ``problem.meshes`` holds the co-refined, side-split ones.
    Returns ``(problem, system, solution, report)``; ``report.timings``
    holds each stage's wall seconds.
    """
    clock = [time.perf_counter()]
    problem = asm.prepare_problem(network, meshes, source=source,
                                  line_source=line_source,
                                  point_sources=point_sources)
    clock.append(time.perf_counter())
    dofs = asm.build_dof_map(problem, model)
    clock.append(time.perf_counter())
    assemble = asm.assemble_cc if model == "cc" else asm.assemble_dc
    system = assemble(problem, dofs, bcs)
    clock.append(time.perf_counter())
    report = slv.solve(system)
    clock.append(time.perf_counter())
    solution = asm.extract_solution(system, report.x)
    clock.append(time.perf_counter())
    report.timings = dict(zip(("prepare_s", "dofs_s", "assemble_s", "solve_s",
                               "extract_s"), np.diff(clock).tolist()))
    return problem, system, solution, report


def run_level(case: BenchmarkCase, family: str, level: int,
              model: str | None = None):
    """Mesh, assemble, solve, and post-process one refinement level.

    ``report.timings`` adds ``network_s`` for the network and
    ``mesh_s`` for the meshes and their agglomeration."""
    t0 = time.perf_counter()
    network = case.network()
    t1 = time.perf_counter()
    meshes = case.meshes(family, level)
    mesh_s = time.perf_counter() - t1
    problem, system, solution, report = solve_meshes(
        network, meshes, case.bcs(), model or case.model, source=case.source,
        line_source=case.line_source, point_sources=case.point_sources)
    report.timings = {"network_s": t1 - t0, "mesh_s": mesh_s, **report.timings}
    err = None
    if case.p_exact is not None:
        err = post.relative_errors(problem, system, solution, case, level=level)
    return problem, system, solution, report, err


def run_convergence(case: BenchmarkCase, family: str, levels: int,
                    model: str | None = None):
    """Run a refinement ladder and fill inter-level convergence orders."""
    if case.p_exact is None:
        raise ConfigError(f"case {case.name} has no exact solution; "
                          "convergence study not applicable")
    reports = []
    runs = []
    for level in range(1, levels + 1):
        problem, system, solution, rep, err = run_level(
            case, family, level, model=model)
        reports.append(err)
        runs.append((problem, system, solution, rep))
    post.convergence_orders(reports)
    return reports, runs

