import csv
import gc
import tracemalloc

import numpy as np
import pytest

from dfnvem import cases
from dfnvem import postprocess as post
from dfnvem.errors import MissingExactSolution

from _util import regression_order


@pytest.fixture(scope="module")
def solved_single():
    case = cases.case_single_fracture()
    problem, system, solution, rep, err = cases.run_level(case, "cartesian", 1)
    return case, problem, system, solution, err


class TestRelativeErrors:
    def test_zero_when_exact(self, solved_single):
        case, problem, system, solution, _ = solved_single

        class Shim:
            name = "shim"
            u_exact = None
            p_hat_exact = None

            @staticmethod
            def p_exact(fid, pts):
                mesh = problem.meshes[fid]
                # Return the discrete values themselves.
                return solution.pressure[fid]

        rep = post.relative_errors(problem, system, solution, Shim)
        assert rep.err_p == 0.0

    def test_constant_offset_ratio(self, solved_single):
        case, problem, system, solution, _ = solved_single
        ones = {fid: np.ones_like(p) for fid, p in solution.pressure.items()}

        class Sol:
            pressure = {fid: 1.1 * v for fid, v in ones.items()}
            velocity = solution.velocity
            trace_pressure = {}
            line_flux = {}

        class Shim:
            name = "shim"
            u_exact = None
            p_hat_exact = None

            @staticmethod
            def p_exact(fid, pts):
                return np.ones(len(pts))

        rep = post.relative_errors(problem, system, Sol, Shim)
        assert abs(rep.err_p - 0.1) < 1e-12

    def test_homogeneous_degree_one(self, solved_single):
        case, problem, system, solution, base = solved_single

        class Sol:
            pressure = {
                fid: case.p_exact(
                    fid, problem.meshes[fid].frame.to_global(
                        problem.meshes[fid].cell_centroids))
                + 3.0 * (solution.pressure[fid] - case.p_exact(
                    fid, problem.meshes[fid].frame.to_global(
                        problem.meshes[fid].cell_centroids)))
                for fid in solution.pressure
            }
            velocity = solution.velocity
            trace_pressure = {}
            line_flux = {}

        rep = post.relative_errors(problem, system, Sol, case)
        assert abs(rep.err_p - 3.0 * base.err_p) < 1e-12

    def test_missing_exact_raises(self, solved_single):
        case, problem, system, solution, _ = solved_single

        class NoExact:
            name = "none"
            p_exact = None

        with pytest.raises(MissingExactSolution):
            post.relative_errors(problem, system, solution, NoExact)

    def test_min_max_reported_exactly(self, solved_single):
        case, problem, system, solution, err = solved_single
        assert err.min_p == min(p.min() for p in solution.pressure.values())
        assert err.max_p == max(p.max() for p in solution.pressure.values())


class TestConvergenceOrders:
    def make(self, hs, errs):
        return [post.ErrorReport(level=i + 1, h_avg=h, h_max=h, err_p=e)
                for i, (h, e) in enumerate(zip(hs, errs))]

    def test_order_two(self):
        reports = post.convergence_orders(self.make([0.1, 0.05], [1e-2, 2.5e-3]))
        assert abs(reports[1].order_p - 2.0) < 1e-12

    def test_equal_errors_give_zero(self):
        reports = post.convergence_orders(self.make([0.1, 0.05], [1e-2, 1e-2]))
        assert abs(reports[1].order_p) < 1e-12

    def test_regression_slope(self):
        hs = [0.1, 0.05, 0.025]
        errs = [4e-2 * (h / 0.1) ** 1.5 for h in hs]
        assert abs(regression_order(hs, errs) - 1.5) < 1e-12


class TestExports:
    def test_vtk_structure(self, solved_single, tmp_path):
        case, problem, system, solution, _ = solved_single
        path = tmp_path / "out.vtk"
        post.export_vtk(problem, solution, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 4.2"
        assert "DATASET UNSTRUCTURED_GRID" in lines[3]
        n_cells = problem.meshes[0].n_cells
        cells_line = next(ln for ln in lines if ln.startswith("CELLS"))
        assert int(cells_line.split()[1]) == n_cells
        types = lines[lines.index("CELL_TYPES " + str(n_cells)) + 1:]
        assert types[0] == "7"
        assert any(ln.startswith("SCALARS pressure") for ln in lines)
        assert any(ln.startswith("VECTORS velocity") for ln in lines)

    def test_line_vtk(self, tmp_path):
        case = cases.case_intersection_flow()
        problem, system, solution, rep, err = cases.run_level(
            case, "triangular", 1)
        path = tmp_path / "lines.vtk"
        post.export_line_vtk(problem, solution, path)
        text = path.read_text()
        assert "CELL_TYPES" in text
        n = problem.traces[0].n_elems
        assert f"CELLS {n} {3 * n}" in text

    def test_csv_layout_and_determinism(self, solved_single, tmp_path):
        case, problem, system, solution, err = solved_single
        reports = post.convergence_orders([err])
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        post.export_csv(reports, p1)
        post.export_csv(reports, p2)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["level", "h", "err_p", "order_p", "err_u",
                           "order_u", "faces_min", "faces_avg", "faces_max",
                           "min_p", "max_p", "size", "sparsity"]
        assert len(rows) == 2
        assert float(rows[1][2]) == err.err_p

    def test_partition_csv(self, tmp_path):
        from dfnvem import coarsening as coa
        from dfnvem import meshing as msh
        mesh = msh.triangulate(
            np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float), h_target=0.3)
        coarse, part = coa.agglomerate(mesh, c_depth=1)
        path = tmp_path / "part.csv"
        post.export_partition_csv(part, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cell", "coarse"]
        assert len(rows) == mesh.n_cells + 1

    def test_vtk_with_agglomerated_cells(self, tmp_path):
        # Coarse polygonal cells with hanging nodes export as polygons.
        case = cases.case_single_fracture()
        problem, system, solution, rep, err = cases.run_level(
            case, "coarse", 1)
        path = tmp_path / "coarse.vtk"
        post.export_vtk(problem, solution, path)
        lines = path.read_text().splitlines()
        cells_line = next(ln for ln in lines if ln.startswith("CELLS"))
        n_exported = int(cells_line.split()[1])
        n_chained = int(problem.meshes[0].chained.sum())
        assert n_exported == n_chained
        assert n_exported >= 0.9 * problem.meshes[0].n_cells


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e-300,
                    5e-324, 1 / 3, -2.5, 1e16, 123456789.0])


def special(n, shift=0):
    """``n`` values cycling through nan, +-inf, -0.0, 1e+-300 and others."""
    return np.roll(np.resize(SPECIAL, n), shift)


class TestBatchedExportAgainstReference:
    """The batched writers give the bytes of the per-float reference."""

    @pytest.fixture(scope="class")
    def coarse_single(self):
        case = cases.case_single_fracture()
        problem, _, solution, _, _ = cases.run_level(case, "coarse", 1)
        return problem, solution

    def test_fracture_vtk_with_special_values(self, coarse_single, tmp_path):
        from types import SimpleNamespace
        from _util import export_vtk_ref
        problem, solution = coarse_single
        # Agglomerated cells that do not chain into one loop are skipped.
        mesh = problem.meshes[0].copy()
        mesh.chained[1::3] = False
        far = mesh.copy()
        far.nodes = far.nodes * 1e300
        odd = SimpleNamespace(meshes={0: mesh, 3: far})
        sol = SimpleNamespace(
            pressure={0: special(mesh.n_cells), 3: special(far.n_cells, 5)},
            velocity={0: special(3 * mesh.n_cells, 1).reshape(-1, 3),
                      3: special(3 * far.n_cells, 7).reshape(-1, 3)})
        for name, prob, soln in (("real", problem, solution),
                                 ("odd", odd, sol)):
            post.export_vtk(prob, soln, tmp_path / f"{name}.vtk")
            export_vtk_ref(prob, soln, tmp_path / f"{name}_ref.vtk")
            assert ((tmp_path / f"{name}.vtk").read_bytes()
                    == (tmp_path / f"{name}_ref.vtk").read_bytes())
        assert "nan" in (tmp_path / "odd.vtk").read_text()

    def test_fracture_vtk_without_chained_cells(self, coarse_single, tmp_path):
        from types import SimpleNamespace
        from _util import export_vtk_ref
        problem, solution = coarse_single
        mesh = problem.meshes[0].copy()
        mesh.chained[:] = False
        prob = SimpleNamespace(meshes={0: mesh})
        post.export_vtk(prob, solution, tmp_path / "a.vtk")
        export_vtk_ref(prob, solution, tmp_path / "b.vtk")
        assert (tmp_path / "a.vtk").read_bytes() == (tmp_path / "b.vtk").read_bytes()

    # "line": dc trace pressures; "interface": cc multipliers. Both reach
    # the writer as Solution.trace_pressure.
    @pytest.mark.parametrize("data", ["line", "interface"])
    def test_line_vtk_with_special_values(self, tmp_path, data):
        from types import SimpleNamespace
        from _util import export_line_vtk_ref
        case = cases.case_intersection_flow()
        model = "dc" if data == "line" else "cc"
        problem, _, solution, _, _ = cases.run_level(
            case, "triangular", 1, model=model)
        values = {gid: special(tm.n_elems, gid)
                  for gid, tm in problem.traces.items()}
        odd = SimpleNamespace(trace_pressure=values)
        for name, soln in (("real", solution), ("odd", odd)):
            post.export_line_vtk(problem, soln, tmp_path / f"{name}.vtk")
            export_line_vtk_ref(problem, soln, tmp_path / f"{name}_ref.vtk")
            assert ((tmp_path / f"{name}.vtk").read_bytes()
                    == (tmp_path / f"{name}_ref.vtk").read_bytes())
        assert "nan" in (tmp_path / "odd.vtk").read_text()


def test_partition_csv_against_csv_writer(tmp_path):
    """The array writer gives the bytes of one ``csv.writer`` row per
    cell, CRLF line ends included."""
    from types import SimpleNamespace
    from dfnvem import coarsening as coa
    from dfnvem import meshing as msh
    from _util import export_partition_csv_ref
    mesh = msh.triangulate(
        np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float), h_target=0.1)
    _, part = coa.agglomerate(mesh, c_depth=2)
    ids = np.array([0, 7, 9999, 10_000, -1, 123_456_789, 2**62])
    for name, p in (("real", part),
                    ("empty", SimpleNamespace(cell_to_coarse=np.zeros(0, int))),
                    ("odd", SimpleNamespace(cell_to_coarse=ids))):
        post.export_partition_csv(p, tmp_path / f"{name}.csv")
        export_partition_csv_ref(p, tmp_path / f"{name}_ref.csv")
        assert ((tmp_path / f"{name}.csv").read_bytes()
                == (tmp_path / f"{name}_ref.csv").read_bytes())


def test_export_vtk_on_single_random_l5_is_lean(tmp_path):
    """``export_vtk`` on single random L5, the ``single-random``
    benchmark output, gives the bytes of the per-float reference, and its
    tracemalloc peak stays at or below the 7.9 MiB of the writer that
    formatted each section by one ``%`` over a tuple of its values."""
    from _util import export_vtk_ref
    case = cases.get_case("single")
    problem, _, solution, _ = cases.solve_meshes(
        case.network(), case.meshes("random", 5), case.bcs(), "cc",
        source=case.source)
    gc.collect()
    tracemalloc.start()
    try:
        post.export_vtk(problem, solution, tmp_path / "a.vtk")
        peak_mib = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    export_vtk_ref(problem, solution, tmp_path / "b.vtk")
    assert (tmp_path / "a.vtk").read_bytes() == (tmp_path / "b.vtk").read_bytes()
    assert peak_mib <= 7.9
