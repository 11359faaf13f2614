import json

import numpy as np
import pytest

from dfnvem import assembly as asm
from dfnvem import cases
from dfnvem import coarsening as coa
from dfnvem import geometry as geo
from dfnvem import meshing as msh
from dfnvem import solver as slv
from dfnvem.errors import MissingIntersectionProps, UnconstrainedPressureWarning

from _util import (
    README_NETWORK,
    boundary_mids,
    cell_of,
    crossing_rectangles,
    json_bc_outcomes,
    line_ends_ref,
    no_flow,
    outward_normals_of_cell,
    pointwise_bc,
    rect_mesh_with_trace,
    run,
    side_edges_of,
    single_fracture_plane,
    symmetry_error,
    write_perfbench_network,
)


def three_planes():
    """The planes z = 0, y = 0 and x = 0 around the origin: three lines
    that cross at one point."""
    return geo.build_network([
        geo.Fracture(id=0, vertices=[[-1, -1, 0], [1, -1, 0],
                                     [1, 1, 0], [-1, 1, 0]]),
        geo.Fracture(id=1, vertices=[[-1, 0, -1], [1, 0, -1],
                                     [1, 0, 1], [-1, 0, 1]]),
        geo.Fracture(id=2, vertices=[[0, -1, -1], [0, 1, -1],
                                     [0, 1, 1], [0, -1, 1]])])


def single_fracture_problem(mesh_builder, **kw):
    frac = single_fracture_plane()
    net = geo.build_network([frac])
    return net, {0: mesh_builder(frac)}, kw


class TestOneCell:
    def test_matches_dense_oracle(self):
        frac = single_fracture_plane()
        net = geo.build_network([frac])
        meshes = {0: msh.cartesian_mesh(1, frame=frac.frame)}
        problem = asm.prepare_problem(net, meshes,
                                      source=lambda fid, x: np.ones(len(x)))
        dofs = asm.build_dof_map(problem, "cc")
        system = asm.assemble_cc(problem, dofs,
                                 asm.BoundarySpec.dirichlet(lambda fid, x: 0.0))
        assert system.size == 5
        A = system.A.toarray()
        x = np.linalg.solve(A, system.rhs)
        rep = slv.solve(system)
        assert np.allclose(rep.x, x, atol=1e-12)
        # Unit source splits into four equal outward fluxes of 1/4 and the
        # square's symmetric mass matrix gives cell pressure 1/4.
        assert abs(rep.x[4] - 0.25) < 1e-12
        assert np.allclose(rep.x[:4], 0.25, atol=1e-12)

    def test_symmetry(self):
        frac = single_fracture_plane()
        net = geo.build_network([frac])
        problem = asm.prepare_problem(net, {0: msh.cartesian_mesh(3,
                                                                  frame=frac.frame)})
        dofs = asm.build_dof_map(problem, "cc")
        system = asm.assemble_cc(problem, dofs,
                                 asm.BoundarySpec.dirichlet(lambda fid, x: 0.0))
        assert symmetry_error(system) == 0.0


def p1_field(a, b, c):
    return lambda fid, x: a + b * np.asarray(x)[..., 0] + c * np.asarray(x)[..., 1]


class TestPatchTest:
    @pytest.mark.parametrize("lam", [np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])])
    @pytest.mark.parametrize("kind", ["cartesian", "triangular", "coarse", "random"])
    def test_linear_pressure_reproduced(self, kind, lam):
        frac = geo.Fracture(id=0, vertices=single_fracture_plane().vertices,
                            k_tangential=lam)
        net = geo.build_network([frac])
        if kind == "cartesian":
            mesh = msh.cartesian_mesh(4, frame=frac.frame)
        elif kind == "triangular":
            mesh = msh.triangulate(frac.local_polygon, h_target=0.3,
                                   frame=frac.frame)
        elif kind == "random":
            mesh = msh.random_mesh(4, seed=5, frame=frac.frame)
        else:
            base = msh.triangulate(frac.local_polygon, h_target=0.15,
                                   frame=frac.frame)
            mesh, _ = coa.agglomerate(base, c_depth=2, lam=lam)
            mesh.frame = frac.frame
        g = p1_field(0.7, 2.0, -3.0)
        problem, dofs, system, sol, rep = run(net, {0: mesh}, g=g)
        centers3 = mesh.frame.to_global(mesh.cell_centroids)
        expected = g(0, centers3)
        assert np.abs(sol.pressure[0] - expected).max() < 1e-10
        # Edge fluxes equal the interpolated -lam grad p.
        grad = np.array([2.0, -3.0])
        vel = -(lam @ grad)
        m = problem.meshes[0]
        for k in range(m.n_cells):
            es, _ = cell_of(m, k)
            nrm = outward_normals_of_cell(m, k)
            s = np.where(m.edge_cells[es, 0] == k, 1.0, -1.0)
            exact = (nrm @ vel) * m.edge_len[es]
            got = s * sol.edge_flux[0][es]
            assert np.abs(got - exact).max() < 1e-10
        # Projected velocities are exact for fields in the local space.
        assert np.abs(sol.velocity[0][:, :2] - vel).max() < 1e-10

    def test_hydrostatic(self):
        # Constant Dirichlet data, no source: p = c, u = 0.
        frac = single_fracture_plane()
        net = geo.build_network([frac])
        mesh = msh.triangulate(frac.local_polygon, h_target=0.4, frame=frac.frame)
        _, _, _, sol, _ = run(net, {0: mesh}, g=lambda fid, x: 3.25)
        assert np.abs(sol.pressure[0] - 3.25).max() < 1e-11
        assert np.abs(sol.edge_flux[0]).max() < 1e-11


class TestLocalConservation:
    def test_cell_balance_matches_source(self):
        frac = single_fracture_plane()
        net = geo.build_network([frac])
        mesh = msh.triangulate(frac.local_polygon, h_target=0.25, frame=frac.frame)

        def f(fid, x):
            return np.sin(3 * x[..., 0]) + x[..., 1] ** 2

        problem, dofs, system, sol, rep = run(net, {0: mesh},
                                              g=lambda fid, x: 0.0, f=f)
        m = problem.meshes[0]
        centers3 = m.frame.to_global(m.cell_centroids)
        target = m.cell_areas * f(0, centers3)
        for k in range(m.n_cells):
            es, _ = cell_of(m, k)
            s = np.where(m.edge_cells[es, 0] == k, 1.0, -1.0)
            total = float(s @ sol.edge_flux[0][es])
            assert abs(total - target[k]) < 1e-10


class TestDofMap:
    def test_counts_cc(self):
        net = crossing_rectangles()
        meshes = {0: rect_mesh_with_trace(net.fractures[0]),
                  1: rect_mesh_with_trace(net.fractures[1])}
        problem = asm.prepare_problem(net, meshes)
        dofs = asm.build_dof_map(problem, "cc")
        tm = problem.traces[0]
        assert tm.n_elems == 3
        n_interface = sum((problem.meshes[f].edge_trace >= 0).sum() for f in (0, 1))
        assert n_interface == 12  # 2 fractures x 2 sides x 3 elements
        assert len(dofs.trace_pressure[0]) == 3
        n_edges = sum(problem.meshes[f].n_edges for f in (0, 1))
        n_cells = sum(problem.meshes[f].n_cells for f in (0, 1))
        assert dofs.total == n_edges + n_cells + 3

    def test_counts_dc(self):
        net = crossing_rectangles()
        meshes = {0: rect_mesh_with_trace(net.fractures[0]),
                  1: rect_mesh_with_trace(net.fractures[1])}
        problem = asm.prepare_problem(net, meshes)
        dofs = asm.build_dof_map(problem, "dc")
        n_edges = sum(problem.meshes[f].n_edges for f in (0, 1))
        n_cells = sum(problem.meshes[f].n_cells for f in (0, 1))
        # 1D: 4 breakpoints (no xi), 3 pressures, no multipliers.
        assert dofs.total == n_edges + n_cells + 4 + 3
        assert len(dofs.blocks["multiplier"]) == 0

    def test_assembler_rejects_the_other_models_dofs(self):
        net = crossing_rectangles()
        meshes = {0: rect_mesh_with_trace(net.fractures[0]),
                  1: rect_mesh_with_trace(net.fractures[1])}
        problem = asm.prepare_problem(net, meshes)
        with pytest.raises(ValueError, match="numbered for dc"):
            asm.assemble_cc(problem, asm.build_dof_map(problem, "dc"))
        with pytest.raises(ValueError, match="numbered for cc"):
            asm.assemble_dc(problem, asm.build_dof_map(problem, "cc"))

    def test_line_ends_number_crossings_twice(self):
        # Three planes meeting at the origin: each line has one crossing
        # breakpoint, whose left and right dofs follow each other.
        net = three_planes()
        meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), 0.4)
                  for f in net.fractures}
        problem = asm.prepare_problem(net, meshes)
        dofs = asm.build_dof_map(problem, "dc")
        flux = np.concatenate([e.ravel() for e in dofs.line_ends.values()])
        assert np.array_equal(np.unique(flux), dofs.blocks["line_flux"])
        for gid, tm in problem.traces.items():
            ends = dofs.line_ends[gid]
            (bp, _), = tm.xi_breaks
            step = ends[1:, 0] - ends[:-1, 1]
            assert step.tolist() == [1 if j + 1 == bp else 0
                                     for j in range(tm.n_elems - 1)]
            assert np.array_equal(ends[:, 1] - ends[:, 0], np.ones(tm.n_elems))

    DC_SOURCES = [(name, family) for name in cases.CASE_NAMES
                  if name != "single"
                  for family in cases.get_case(name).families]

    @pytest.mark.parametrize("name, family", [*DC_SOURCES, ("network", None)],
                             ids=[*map("-".join, DC_SOURCES), "network"])
    def test_line_ends_match_the_per_line_numbering(self, tmp_path, name,
                                                    family):
        if name == "network":
            path = tmp_path / "net.json"
            write_perfbench_network(path, 0)
            net, _ = geo.load_network(path)
            meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id),
                                                     0.14)
                      for f in net.fractures}
            problem = asm.prepare_problem(net, meshes)
            assert any(tm.xi_breaks for tm in problem.traces.values())
        else:
            case = cases.get_case(name)
            problem = asm.prepare_problem(case.network(),
                                          case.meshes(family, 2))
        dofs = asm.build_dof_map(problem, "dc")
        ref = line_ends_ref(problem, int(dofs.blocks["line_flux"][0]))
        assert ref.keys() == dofs.line_ends.keys()
        for gid, ends in ref.items():
            got = dofs.line_ends[gid]
            assert got.dtype == ends.dtype
            assert np.array_equal(got, ends)

    def test_single_fracture_no_traces(self):
        frac = single_fracture_plane()
        net = geo.build_network([frac])
        problem = asm.prepare_problem(net, {0: msh.cartesian_mesh(2,
                                                                  frame=frac.frame)})
        dofs = asm.build_dof_map(problem, "cc")
        assert dofs.total == 12 + 4


class TestStitchedPair:
    def build_pair(self, n=4):
        f0 = geo.Fracture(id=0, vertices=np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float))
        f1 = geo.Fracture(id=1, vertices=np.array(
            [[1, 0, 0], [2, 0, 0], [2, 1, 0], [1, 1, 0]], float))
        net = geo.build_network([f0, f1])
        m0 = msh.cartesian_mesh(n, frame=f0.frame)
        on = (np.abs(m0.nodes[m0.edge_nodes[:, 0], 0] - 1.0) < 1e-12) & \
             (np.abs(m0.nodes[m0.edge_nodes[:, 1], 0] - 1.0) < 1e-12)
        m0.edge_trace[on] = 0
        m1 = msh.cartesian_mesh(n, frame=f1.frame)
        on = (np.abs(m1.nodes[m1.edge_nodes[:, 0], 0]) < 1e-12) & \
             (np.abs(m1.nodes[m1.edge_nodes[:, 1], 0]) < 1e-12)
        m1.edge_trace[on] = 0
        return net, {0: m0, 1: m1}

    def union_mesh(self, n=4):
        frac = geo.Fracture(id=0, vertices=np.array(
            [[0, 0, 0], [2, 0, 0], [2, 1, 0], [0, 1, 0]], float))
        net = geo.build_network([frac])
        mesh = msh.cartesian_mesh(2 * n, n, frame=frac.frame,
                                  bounds=((0.0, 0.0), (2.0, 1.0)))
        return net, {0: mesh}

    def test_matches_union_solve(self):
        def g(fid, x):
            return np.asarray(x)[..., 0] ** 2 + 0.5 * np.asarray(x)[..., 1]

        def f(fid, x):
            return np.cos(x[..., 0] * 2.0) * (1 + x[..., 1])

        n = 4
        net, meshes = self.build_pair(n)
        problem, dofs, system, sol, rep = run(net, meshes, g=g, f=f)
        unet, umeshes = self.union_mesh(n)
        up, ud, us, usol, urep = run(unet, umeshes, g=g, f=f)
        # Map cells by centroid and compare pressures exactly.
        cen = {}
        for fid in (0, 1):
            c3 = problem.meshes[fid].frame.to_global(
                problem.meshes[fid].cell_centroids)
            for k, c in enumerate(c3):
                cen[tuple(np.round(c, 9))] = sol.pressure[fid][k]
        uc3 = up.meshes[0].frame.to_global(up.meshes[0].cell_centroids)
        for k, c in enumerate(uc3):
            assert abs(usol.pressure[0][k] - cen[tuple(np.round(c, 9))]) < 1e-9

    def test_interface_balance(self):
        net, meshes = self.build_pair(4)
        problem, dofs, system, sol, rep = run(
            net, meshes, g=lambda fid, x: x[..., 0], f=None)
        tm = problem.traces[0]
        for elem in range(tm.n_elems):
            total = 0.0
            for (fid, side), eids in side_edges_of(problem, 0).items():
                e = int(eids[elem])
                if e >= 0:
                    total += sol.edge_flux[fid][e]
            assert abs(total) < 1e-11
        # Multipliers approximate the interface pressure x=1.
        assert np.abs(sol.trace_pressure[0] - 1.0).max() < 1e-9


class TestCrossingPair:
    def test_cc_linear_exact_through_interface(self):
        # g linear in y only: continuous across the trace, zero jump.
        net = crossing_rectangles()
        meshes = {0: rect_mesh_with_trace(net.fractures[0], 3, 2),
                  1: rect_mesh_with_trace(net.fractures[1], 3, 2)}
        g = lambda fid, x: 2.0 - 0.5 * np.asarray(x)[..., 1]
        problem, dofs, system, sol, rep = run(net, meshes, g=g)
        for fid in (0, 1):
            m = problem.meshes[fid]
            c3 = m.frame.to_global(m.cell_centroids)
            assert np.abs(sol.pressure[fid] - g(fid, c3)).max() < 1e-10

    def test_dc_missing_props_raise(self):
        net = crossing_rectangles()
        net.lines[0].k_hat = 0.0
        meshes = {0: rect_mesh_with_trace(net.fractures[0]),
                  1: rect_mesh_with_trace(net.fractures[1])}
        problem = asm.prepare_problem(net, meshes)
        dofs = asm.build_dof_map(problem, "dc")
        with pytest.raises(MissingIntersectionProps):
            asm.assemble_dc(problem, dofs)

    def test_dc_standalone_channel_two_point_darcy(self):
        # Nearly sealed channel (tiny k_tilde) with Dirichlet ends:
        # 1D Darcy with linear exact pressure, constant flux.
        net = crossing_rectangles()
        net.lines[0].k_hat = 2.0
        net.lines[0].k_tilde = 1e-12
        meshes = {0: rect_mesh_with_trace(net.fractures[0], 4, 2),
                  1: rect_mesh_with_trace(net.fractures[1], 4, 2)}
        g0, g1 = 1.0, 3.0

        def g_hat(gid, p3):
            return g0 if p3[1] < 0.5 else g1

        problem, dofs, system, sol, rep = run(
            net, meshes, model="dc", g=lambda fid, x: 0.0, g_hat=g_hat)
        lam_hat = 2.0
        tm = problem.traces[0]
        y_mid = tm.elem_mid_3d()[:, 1]
        exact_p = g0 + (g1 - g0) * y_mid
        # Tangential flux along the line's stored direction.
        exact_u = -lam_hat * (g1 - g0) * float(tm.line.direction[1])
        assert np.abs(sol.trace_pressure[0] - exact_p).max() < 1e-9
        assert np.abs(sol.line_flux[0] - exact_u).max() < 1e-9

    def test_dc_limit_matches_cc(self):
        # Huge normal permeability and a negligible channel reduce the
        # discontinuous model to the pressure-continuous one.
        net = crossing_rectangles()
        net.lines[0].k_hat = 1e-6
        net.lines[0].k_tilde = 1e12

        def g(fid, x):
            x = np.asarray(x)
            return x[..., 1] ** 2 + 0.3 * x[..., 0] - 0.1 * x[..., 2]

        def build():
            return {0: rect_mesh_with_trace(net.fractures[0], 4, 3),
                    1: rect_mesh_with_trace(net.fractures[1], 4, 3)}

        _, _, _, sol_dc, _ = run(net, build(), model="dc", g=g,
                                 g_hat=lambda gid, p: float(g(0, p)))
        _, _, _, sol_cc, _ = run(net, build(), model="cc", g=g)
        for fid in (0, 1):
            scale = np.abs(sol_cc.pressure[fid]).max()
            diff = np.abs(sol_dc.pressure[fid] - sol_cc.pressure[fid]).max()
            assert diff < 1e-4 * scale

    def test_three_parents_on_one_trace(self):
        # Three planes sharing the z-axis segment: the per-element balance
        # sums over all six interface dofs and linear data stay exact.
        f0 = geo.Fracture(id=0, vertices=[[0, -1, 0], [0, 1, 0],
                                          [0, 1, 1], [0, -1, 1]])
        f1 = geo.Fracture(id=1, vertices=[[-1, 0, 0], [1, 0, 0],
                                          [1, 0, 1], [-1, 0, 1]])
        f2 = geo.Fracture(id=2, vertices=[[-1, -1, 0], [1, 1, 0],
                                          [1, 1, 1], [-1, -1, 1]])
        net = geo.build_network([f0, f1, f2])
        assert net.lines[0].parents == (0, 1, 2)
        meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), 0.4)
                  for f in net.fractures}

        def g(fid, x):
            return 1.0 + 0.5 * np.asarray(x)[..., 2]

        problem, dofs, system, sol, rep = run(net, meshes, g=g)
        tm = problem.traces[0]
        sides = side_edges_of(problem, 0)
        assert len(sides) == 6  # three parents, two sides each
        for elem in range(tm.n_elems):
            total = sum(sol.edge_flux[fid][int(eids[elem])]
                        for (fid, side), eids in sides.items())
            assert abs(total) < 1e-11
        for fid in (0, 1, 2):
            m = problem.meshes[fid]
            c3 = m.frame.to_global(m.cell_centroids)
            assert np.abs(sol.pressure[fid] - g(fid, c3)).max() < 1e-10

    def test_xi_balance(self):
        # Three planes meeting at the origin: one xi point, three lines.
        net = three_planes()
        assert len(net.points) == 1
        meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), 0.4)
                  for f in net.fractures}

        def g(fid, x):
            x = np.asarray(x)
            return 1.0 + x[..., 0] - 0.5 * x[..., 1] + 0.25 * x[..., 2]

        problem, dofs, system, sol, rep = run(
            net, meshes, model="dc", g=g,
            g_hat=lambda gid, p: float(g(0, p)))
        assert rep.residual < 1e-10
        # Flux balance at the xi point: sum over lines of the jump is zero.
        total = 0.0
        for gid, tm in problem.traces.items():
            for bp_idx, xi_id in tm.xi_breaks:
                left = dofs.line_ends[gid][bp_idx - 1, 1]
                right = dofs.line_ends[gid][bp_idx, 0]
                total += sol.x[left] - sol.x[right]
        assert abs(total) < 1e-10


class TestApplyBC:
    def test_zero_dirichlet_keeps_rhs(self):
        frac = single_fracture_plane()
        net = geo.build_network([frac])
        problem = asm.prepare_problem(net, {0: msh.cartesian_mesh(3,
                                                                  frame=frac.frame)})
        dofs = asm.build_dof_map(problem, "cc")
        system = asm.assemble_cc(problem, dofs)
        before = system.rhs.copy()
        asm.apply_bc(system, asm.BoundarySpec.dirichlet(lambda fid, x: 0.0))
        assert np.array_equal(system.rhs, before)

    def test_neumann_elimination_symmetric(self):
        frac = single_fracture_plane()
        net = geo.build_network([frac])
        problem = asm.prepare_problem(net, {0: msh.cartesian_mesh(3,
                                                                  frame=frac.frame)})
        dofs = asm.build_dof_map(problem, "cc")

        def bc(fid, mid3):
            if mid3[0] < 1e-12:
                return ("dirichlet", 1.0)
            if mid3[0] > 1 - 1e-12:
                return ("dirichlet", 0.0)
            return ("neumann", 0.0)

        system = asm.assemble_cc(problem, dofs, pointwise_bc(bc))
        assert symmetry_error(system) == 0.0
        rep = slv.solve(system)
        sol = asm.extract_solution(system, rep.x)
        # 1D flow: p = 1 - x, flux = 1 per unit width.
        m = problem.meshes[0]
        c3 = m.frame.to_global(m.cell_centroids)
        assert np.abs(sol.pressure[0] - (1 - c3[:, 0])).max() < 1e-10

    def test_pure_neumann_pins_and_warns(self):
        frac = single_fracture_plane()
        net = geo.build_network([frac])
        problem = asm.prepare_problem(net, {0: msh.cartesian_mesh(2,
                                                                  frame=frac.frame)})
        dofs = asm.build_dof_map(problem, "cc")
        with pytest.warns(UnconstrainedPressureWarning):
            system = asm.assemble_cc(problem, dofs, no_flow())
        assert system.pinned == {0: dofs.cell_dof[0][0]}
        rep = slv.solve(system)
        assert rep.residual < 1e-10


class TestJsonBCs:
    def test_selectors(self):
        frac = single_fracture_plane()
        net = geo.build_network([frac])
        raw = {"boundary_conditions": [
            {"fracture": 0, "edge": 3, "type": "dirichlet", "value": 1.0},
            {"fracture": 0, "edge": 1, "type": "dirichlet", "value": 0.0},
        ]}
        spec = asm.boundary_spec_from_json(raw, net)
        is_dir, value = spec.fracture_bc(0, np.array(
            [[0.0, 0.5, 0.0], [1.0, 0.5, 0.0], [0.5, 0.0, 0.0]]))
        assert is_dir.tolist() == [True, True, False]
        assert value.tolist() == [1.0, 0.0, 0.0]

    def test_box_selector_and_gamma(self):
        net = crossing_rectangles()
        raw = {
            "boundary_conditions": [
                {"fracture": 1, "box": [[0.99, -1, -1], [1.01, 2, 1]],
                 "type": "dirichlet", "value": 2.0},
            ],
            "intersection_conditions": [
                {"gamma": 0, "end": 0, "type": "dirichlet", "value": 5.0},
            ],
        }
        spec = asm.boundary_spec_from_json(raw, net)
        is_dir, value = spec.fracture_bc(1, np.array([[1.0, 0.5, 0.0]]))
        assert is_dir.tolist() == [True] and value.tolist() == [2.0]
        assert spec.gamma_end(0, 0, net.lines[0].p0) == 5.0
        assert spec.gamma_end(0, 1, net.lines[0].p1) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_perfbench_networks_match_pointwise_ref(self, tmp_path, seed):
        path = tmp_path / "net.json"
        write_perfbench_network(path, seed)
        net, raw = geo.load_network(path)
        meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), 0.3)
                  for f in net.fractures}
        got, want = json_bc_outcomes(raw, net, boundary_mids(meshes))
        assert got == want
        assert any(any(mask) for mask, _ in got.values())

    def test_one_fracture_bc_call_per_fracture(self, tmp_path):
        path = tmp_path / "net.json"
        write_perfbench_network(path, 0)
        net, raw = geo.load_network(path)
        spec = asm.boundary_spec_from_json(raw, net)
        calls, evaluate = [], spec.fracture_bc
        spec.fracture_bc = lambda fid, mids3: (calls.append(fid)
                                               or evaluate(fid, mids3))
        meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), 0.5)
                  for f in net.fractures}
        problem = asm.prepare_problem(net, meshes)
        asm.assemble_cc(problem, asm.build_dof_map(problem, "cc"), spec)
        assert calls == sorted(f.id for f in net.fractures)

    def test_readme_example_matches_pointwise_ref(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(README_NETWORK))
        net, raw = geo.load_network(path)
        meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), 0.2)
                  for f in net.fractures}
        got, want = json_bc_outcomes(raw, net, boundary_mids(meshes))
        assert got == want
        assert sum(got[0][0]) > 0 and not all(got[0][0])

    def test_conflict_raises_like_pointwise_ref(self):
        net = crossing_rectangles()
        raw = {"boundary_conditions": [
            {"fracture": 1, "edge": 1, "value": 1.0},
            {"fracture": 1, "box": [[0.5, -1, -1], [2, 2, 1]], "value": 2.0},
        ]}
        mids = {1: np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0]])}
        got, want = json_bc_outcomes(raw, net, mids)
        assert got == want == {1: "ConflictingBC"}


def _pinned_system_solve(tmp_path, name):
    """One solve of the pinned-system test: a built-in case level, or
    ``perfbench/network.py`` seed 0 at ``--h 0.5`` as ``solve`` runs it."""
    from dfnvem import cases
    if name.startswith("network-"):
        path = tmp_path / "net.json"
        write_perfbench_network(path, 0)
        net, raw = geo.load_network(path)
        meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), 0.5)
                  for f in net.fractures}
        return cases.solve_meshes(net, meshes,
                                  asm.boundary_spec_from_json(raw, net),
                                  name.removeprefix("network-"))
    case_name, family, level = {
        "four-fractures-L1": ("four-fractures", "triangular", 1),
        "intersection-flow-coarse4-L2": ("intersection-flow", "coarse4", 2),
        "intersection-flow-coarse4-L5": ("intersection-flow", "coarse4", 5),
    }[name]
    return cases.run_level(cases.get_case(case_name), family, level)[:4]


@pytest.mark.parametrize("name, digest", [
    ("four-fractures-L1",
     "15f636e4a1a3d2731a98e71f5d21ac642c9114786ec5f75da816a54fb0362163"),
    ("intersection-flow-coarse4-L2",
     "ff5b94060f5763c4bac54b776238c4ce0646dd1e4a0cd00584d2bd47c825b7d3"),
    # The benchmark's ellipses-dc-coarse system: its large polygons take
    # the kernel's padded buckets and the solver's closed-form inverses.
    ("intersection-flow-coarse4-L5",
     "85c4d1b53f64f6cc053b8c7625848ac1fdf5da59ef2c3428256d7029d545aa21"),
    ("network-cc",
     "7c3593f71fc43d3f80253db171986a7cbc5fa90d1838d7ea97cd5d0d506475fd"),
    ("network-dc",
     "cd87cd76f48482f61900a27f27f01b6ca1fbfbf31ac29f36d1a11601c6738f60"),
])
def test_assembled_systems_are_pinned(tmp_path, name, digest):
    # Any change to the dof numbering, the assembled entries, the boundary
    # data or the solve changes the digest; taken with numpy 2.4.6 and
    # scipy 1.17.1, as the pinned mesh digests in test_meshing.py.
    import hashlib
    _, system, _, report = _pinned_system_solve(tmp_path, name)
    h = hashlib.sha256()
    for a in (system.A.indptr, system.A.indices, system.A.data, system.rhs,
              system.fixed, system.bc_value, report.x):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == digest
