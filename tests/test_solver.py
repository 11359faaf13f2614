import warnings

import numpy as np
import pytest
from scipy import sparse

from dfnvem import assembly as asm
from dfnvem import cases
from dfnvem import geometry as geo
from dfnvem import meshing as msh
from dfnvem import solver as slv
from dfnvem.errors import SingularSystem, UnconstrainedPressureWarning

from _util import (crossing_rectangles, pointwise_bc, rect_mesh_with_trace,
                   saddle_lu_solve, single_fracture_plane,
                   write_perfbench_network)


def toy_system(A, b):
    """Wrap a dense matrix as a SaddleSystem without cell blocks."""
    return asm.SaddleSystem(A=sparse.csr_matrix(np.asarray(A, float)),
                            rhs=np.asarray(b, float), dofs=None,
                            problem=None, model="cc",
                            fixed=np.zeros(len(b), bool),
                            bc_value=np.zeros(len(b)))


class TestDirect:
    def test_identity(self):
        rep = slv.solve(toy_system(np.eye(3), [1, 0, 0]))
        assert np.allclose(rep.x, [1, 0, 0])
        assert rep.residual == 0.0
        # Without cell blocks the reduced system is -A itself.
        assert rep.reduced_size == 3 and rep.lu_fill > 0

    def test_two_by_two_saddle(self):
        rep = slv.solve(toy_system([[1, 1], [1, 0]], [0, 1]))
        assert np.allclose(rep.x, [1, -1], atol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(SingularSystem):
            slv.solve(toy_system([[1, 1], [1, 1]], [1, 0]))

    def test_deterministic(self):
        frac = single_fracture_plane()
        net = geo.build_network([frac])
        problem = asm.prepare_problem(
            net, {0: msh.triangulate(frac.local_polygon, h_target=0.2,
                                     frame=frac.frame)},
            source=lambda fid, x: np.sin(x[..., 0] * 5))
        dofs = asm.build_dof_map(problem, "cc")
        system = asm.assemble_cc(problem, dofs,
                                 asm.BoundarySpec.dirichlet(lambda f, x: 0.0))
        x1 = slv.solve(system).x
        x2 = slv.solve(system).x
        assert np.array_equal(x1, x2)


# ------------------------------------------------------------------ #
# hybridized direct solve against the saddle-point LU
# ------------------------------------------------------------------ #

def assert_matches_saddle_lu(system):
    rep = slv.solve(system)
    ref = saddle_lu_solve(system)
    assert np.abs(ref).max() > 0
    assert np.abs(rep.x - ref).max() <= 1e-10 * np.abs(ref).max()
    assert 0 < rep.reduced_size < system.size
    return rep


BUILT_IN = [(name, family, level, model)
            for name in cases.CASE_NAMES
            for family in cases.get_case(name).families
            for level in (1, 2)
            for model in (("cc",) if name == "single" else ("cc", "dc"))]


@pytest.mark.parametrize("name, family, level, model", BUILT_IN,
                         ids=["-".join(map(str, c)) for c in BUILT_IN])
def test_hybrid_matches_saddle_lu_on_cases(name, family, level, model):
    case = cases.get_case(name)
    _, system, _, _ = cases.solve_meshes(
        case.network(), case.meshes(family, level), case.bcs(), model,
        source=case.source, line_source=case.line_source,
        point_sources=case.point_sources)
    assert_matches_saddle_lu(system)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("h", [0.5, 0.14])
@pytest.mark.parametrize("model", ["cc", "dc"])
def test_hybrid_matches_saddle_lu_on_networks(tmp_path, seed, h, model):
    """Seeded 12-fracture networks with crossings (xi points) and tips."""
    path = tmp_path / "net.json"
    write_perfbench_network(path, seed)
    network, raw = geo.load_network(path)
    bcs = asm.boundary_spec_from_json(raw, network)
    meshes = {f.id: msh.triangulate_fracture(f, network.traces_of(f.id), h)
              for f in network.fractures}
    _, system, _, _ = cases.solve_meshes(network, meshes, bcs, model)
    if model == "dc":
        assert network.points and system.fixed.any()
    assert_matches_saddle_lu(system)


def _inflow_outflow(q_in, q_out, dirichlet=None):
    """Outward flux density -q_in on x = 0 and q_out on x = 1 of the unit
    square, ``dirichlet`` on y = 1 if given, no flow elsewhere."""
    def bc(fid, mid3):
        if mid3[0] < 1e-12:
            return ("neumann", -q_in)
        if mid3[0] > 1 - 1e-12:
            return ("neumann", q_out)
        if dirichlet is not None and mid3[1] > 1 - 1e-12:
            return ("dirichlet", dirichlet)
        return ("neumann", 0.0)
    return pointwise_bc(bc)


def test_hybrid_matches_saddle_lu_pure_neumann_pinned():
    frac = single_fracture_plane()
    net = geo.build_network([frac])
    problem = asm.prepare_problem(
        net, {0: msh.random_mesh(5, seed=3, frame=frac.frame)})
    dofs = asm.build_dof_map(problem, "cc")
    with pytest.warns(UnconstrainedPressureWarning):
        system = asm.assemble_cc(problem, dofs, _inflow_outflow(1.0, 1.0))
    assert system.pinned
    assert_matches_saddle_lu(system)


@pytest.mark.parametrize("mesh", ["triangular", "random"])
def test_hybrid_matches_saddle_lu_nonzero_neumann(mesh):
    """Eliminating a nonzero Neumann flux puts right-hand sides on fluxes
    shared by two cells; each must enter the reduced system once."""
    frac = single_fracture_plane()
    net = geo.build_network([frac])
    m = (msh.triangulate(frac.local_polygon, h_target=0.15, frame=frac.frame)
         if mesh == "triangular"
         else msh.random_mesh(6, seed=5, frame=frac.frame))
    problem = asm.prepare_problem(net, {0: m})
    dofs = asm.build_dof_map(problem, "cc")
    system = asm.assemble_cc(problem, dofs, _inflow_outflow(0.7, -0.3, 2.0))
    rep = assert_matches_saddle_lu(system)
    sol = asm.extract_solution(system, rep.x)
    mesh = problem.meshes[0]
    left = mesh.boundary_edges[mesh.edge_mid[mesh.boundary_edges, 0] < 1e-12]
    assert np.allclose(sol.edge_flux[0][left], -0.7 * mesh.edge_len[left],
                       rtol=0, atol=1e-14)


@pytest.mark.parametrize("model", ["cc", "dc"])
def test_hybrid_matches_saddle_lu_neumann_with_trace(model):
    net = crossing_rectangles()
    meshes = {fid: rect_mesh_with_trace(net.fracture(fid), 4, 4)
              for fid in (0, 1)}
    problem = asm.prepare_problem(net, meshes)
    dofs = asm.build_dof_map(problem, model)

    def bc(fid, mid3):
        if fid == 0 and mid3[2] < -1 + 1e-12:
            return ("neumann", -1.5)
        if fid == 1 and mid3[0] > 1 - 1e-12:
            return ("dirichlet", 0.5)
        return ("neumann", 0.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system = (asm.assemble_cc if model == "cc" else asm.assemble_dc)(
            problem, dofs, pointwise_bc(bc))
    assert_matches_saddle_lu(system)


@pytest.mark.parametrize("model", ["cc", "dc"])
def test_hybrid_matches_saddle_lu_two_pins_nonzero_neumann(model):
    """Two floating components, the crossing pair and a far square, each
    with nonzero Neumann inflow and outflow: two pressures are pinned and
    eliminated with the fluxes in one pass."""
    pair = crossing_rectangles()
    far = geo.Fracture(id=2, vertices=np.array(
        [[3, 0, 5], [4, 0, 5], [4, 1, 5], [3, 1, 5]], float))
    net = geo.build_network([*pair.fractures, far])
    meshes = {fid: rect_mesh_with_trace(net.fracture(fid), 4, 4)
              for fid in (0, 1)}
    meshes[2] = msh.triangulate_fracture(far, [], 0.3)
    problem = asm.prepare_problem(net, meshes)
    dofs = asm.build_dof_map(problem, model)

    def bc(fid, mid3):
        if fid == 0 and mid3[2] < -1 + 1e-12:
            return ("neumann", -1.5)
        if fid == 1 and mid3[0] > 1 - 1e-12:
            return ("neumann", 1.5)
        if fid == 2 and abs(mid3[0] - 3) < 1e-12:
            return ("neumann", -0.7)
        if fid == 2 and abs(mid3[0] - 4) < 1e-12:
            return ("neumann", 0.7)
        return ("neumann", 0.0)

    with pytest.warns(UnconstrainedPressureWarning):
        system = (asm.assemble_cc if model == "cc" else asm.assemble_dc)(
            problem, dofs, pointwise_bc(bc))
    assert system.pinned == {0: dofs.cell_dof[0][0], 2: dofs.cell_dof[2][0]}
    rep = assert_matches_saddle_lu(system)
    fixed = system.fixed
    assert np.array_equal(rep.x[fixed], system.bc_value[fixed])
    mesh = problem.meshes[2]
    b = mesh.boundary_edges
    inflow = b[np.abs(mesh.frame.to_global(mesh.edge_mid[b])[:, 0] - 3) < 1e-12]
    assert len(inflow)
    assert np.allclose(rep.x[dofs.edge_dof[2][inflow]],
                       -0.7 * mesh.edge_len[inflow], rtol=0, atol=1e-14)
