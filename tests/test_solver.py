import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from dfnvem import assembly as asm
from dfnvem import cases
from dfnvem import cli
from dfnvem import geometry as geo
from dfnvem import meshing as msh
from dfnvem import solver as slv
from dfnvem import vem
from dfnvem.errors import SingularSystem, UnconstrainedPressureWarning

from _util import (aggregate_ref, crossing_rectangles, grid_dict,
                   pointwise_bc, polygon_geometry, rect_mesh_with_trace,
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


# ------------------------------------------------------------------ #
# smoothed-aggregation PCG on large cc systems
# ------------------------------------------------------------------ #

@pytest.fixture
def pcg(monkeypatch):
    """Send every cc system down the PCG path, with a coarsest level
    small enough that the test systems get more than one level."""
    monkeypatch.setattr(slv, "PCG_MIN_SIZE", 0)
    monkeypatch.setattr(slv, "COARSEST_SIZE", 50)


def assert_pcg_matches_saddle_lu(system):
    rep = assert_matches_saddle_lu(system)
    assert rep.solver["path"] == "pcg"
    assert len(rep.solver["levels"]) > 1
    assert rep.solver["levels"][0] == rep.reduced_size
    assert rep.solver["levels"][-1] <= slv.COARSEST_SIZE
    assert len(rep.solver["iterations"]) == 2
    assert 0 < rep.solver["iterations"][0] < slv.PCG_MAX_ITER
    return rep


def _single_random(level):
    case = cases.get_case("single")
    return cases.solve_meshes(case.network(), case.meshes("random", level),
                              case.bcs(), "cc", source=case.source)[1]


@pytest.mark.parametrize("level", [3, 4])
def test_pcg_matches_saddle_lu_on_single_random(pcg, level):
    assert_pcg_matches_saddle_lu(_single_random(level))


def test_pcg_matches_saddle_lu_on_network_with_traces(pcg, tmp_path):
    path = tmp_path / "net.json"
    write_perfbench_network(path, 1)
    network, raw = geo.load_network(path)
    bcs = asm.boundary_spec_from_json(raw, network)
    meshes = {f.id: msh.triangulate_fracture(f, network.traces_of(f.id), 0.14)
              for f in network.fractures}
    _, system, _, _ = cases.solve_meshes(network, meshes, bcs, "cc")
    assert system.dofs.trace_pressure
    assert_pcg_matches_saddle_lu(system)


def test_pcg_matches_saddle_lu_with_pinned_component(pcg):
    frac = single_fracture_plane()
    net = geo.build_network([frac])
    problem = asm.prepare_problem(
        net, {0: msh.random_mesh(12, seed=3, frame=frac.frame)})
    dofs = asm.build_dof_map(problem, "cc")
    with pytest.warns(UnconstrainedPressureWarning):
        system = asm.assemble_cc(problem, dofs, _inflow_outflow(1.0, 1.0))
    assert system.pinned
    assert_pcg_matches_saddle_lu(system)


def test_pcg_is_deterministic(pcg):
    system = _single_random(3)
    first, second = slv.solve(system), slv.solve(system)
    assert first.solver["path"] == "pcg"
    assert first.x.tobytes() == second.x.tobytes()


def test_pcg_without_convergence_falls_back_to_the_lu(pcg, monkeypatch):
    monkeypatch.setattr(slv, "PCG_MAX_ITER", 1)
    system = _single_random(3)
    rep = assert_matches_saddle_lu(system)
    assert rep.solver["path"] == "lu"
    assert rep.solver["levels"] == [rep.reduced_size]
    assert rep.solver["iterations"] == [1, 0]
    monkeypatch.setattr(slv, "PCG_MIN_SIZE", system.size)
    lu = slv.solve(system)
    assert lu.solver["path"] == "lu" and lu.solver["iterations"] == [0, 0]
    assert rep.lu_fill == lu.lu_fill


def test_solver_record_counts_each_levels_nnz(pcg, monkeypatch):
    """The record lists the nnz of every level, K's first, and the
    operator complexity: their sum over K's nnz.  A PCG solve that falls
    back to the LU records K alone and a complexity of 1."""
    system = _single_random(3)
    _, reduced = slv._hybrid_factor(system)
    record = reduced.record
    A, _, P, R = reduced.levels[-1]
    mats = [*(level[0] for level in reduced.levels), R @ (A @ P)]
    assert record["path"] == "pcg"
    assert record["levels"] == [M.shape[0] for M in mats]
    assert record["nnz"] == [M.nnz for M in mats]
    assert record["nnz"][0] == reduced.K.nnz
    assert record["operator_complexity"] == (
        sum(record["nnz"]) / reduced.K.nnz)
    assert 1.0 < record["operator_complexity"] < 2.0
    monkeypatch.setattr(slv, "PCG_MAX_ITER", 1)
    rep = slv.solve(system)
    assert rep.solver["path"] == "lu"
    assert rep.solver["nnz"] == [reduced.K.nnz]
    assert rep.solver["operator_complexity"] == 1.0


def test_pcg_needs_a_positive_diagonal(pcg):
    """Without cell blocks K = -A; the saddle toy's K has diagonal
    (-1, 0), so it is not positive definite and goes to the LU."""
    rep = slv.solve(toy_system([[1, 1], [1, 0]], [0, 1]))
    assert rep.solver["path"] == "lu" and rep.solver["iterations"] == [0, 0]
    assert np.allclose(rep.x, [1, -1], atol=1e-14)


def test_dc_stays_on_the_lu(pcg):
    case = cases.get_case("intersection-flow")
    _, system, _, rep = cases.solve_meshes(
        case.network(), case.meshes("triangular", 2), case.bcs(), "dc",
        source=case.source, line_source=case.line_source,
        point_sources=case.point_sources)
    assert rep.solver["path"] == "lu"
    assert rep.solver["levels"] == [rep.reduced_size]


def test_dc_lu_fill_stays_low(tmp_path):
    """The dc LU pivots with ``diag_pivot_thresh=0.01``.  On the k = 4
    grid at h 0.2 (2,092 reduced unknowns) it stores 69,390 entries;
    with scipy's default threshold it stores 262,196."""
    network = tmp_path / "grid.json"
    network.write_text(json.dumps(grid_dict(4, 0)))
    out = tmp_path / "out"
    assert cli.main(["solve", "--network", str(network), "--h", "0.2",
                     "--model", "dc", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reduced_size"] == 2092
    assert summary["lu_fill"] <= 100_000


def test_single_random_l5_takes_the_pcg_path():
    """The built-in threshold sends single random L5 (50,880 unknowns in
    K) down the PCG path; the refinement step then needs few iterations."""
    case = cases.get_case("single")
    _, system, _, rep = cases.solve_meshes(
        case.network(), case.meshes("random", 5), case.bcs(), "cc",
        source=case.source)
    assert rep.reduced_size == 50_880 > slv.PCG_MIN_SIZE
    assert rep.solver["path"] == "pcg"
    assert rep.solver["levels"][-1] <= slv.COARSEST_SIZE
    first, refine = rep.solver["iterations"]
    assert first < slv.PCG_MAX_ITER and refine <= 5
    assert rep.residual <= 1e-10


# ------------------------------------------------------------------ #
# aggregation on the strong-neighbour table
# ------------------------------------------------------------------ #

def assert_aggregates_like_ref(A):
    agg, nc = slv._aggregate(slv._strong_table(A))
    ref, ref_nc = aggregate_ref(A)
    assert nc == ref_nc
    assert np.array_equal(agg, ref)


@st.composite
def strength_matrices(draw):
    """A symmetric pattern on ``n`` nodes with a positive diagonal: each
    row draws up to ``width - 1`` random partners, some nodes are
    isolated and one set of nodes is a clique.  Off-diagonal values
    straddle the strength threshold, and some matrices are slightly
    unsymmetric in value, as a Galerkin product can be."""
    n = draw(st.integers(1, 2000))
    width = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = np.repeat(np.arange(n), rng.integers(0, width, n))
    cols = rng.integers(0, n, len(rows))
    clique = rng.permutation(n)[:draw(st.integers(0, min(n, 40)))]
    rows = np.concatenate([rows, np.repeat(clique, len(clique))])
    cols = np.concatenate([cols, np.tile(clique, len(clique))])
    isolated = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    pair = (rows != cols) & ~isolated[rows] & ~isolated[cols]
    rows, cols = rows[pair], cols[pair]
    vals = rng.choice([-1.0, 1.0], len(rows)) * rng.uniform(0.0, 0.3, len(rows))
    B = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))
    A = (B + B.T).tocsr()
    if draw(st.booleans()):
        A.data *= 1.0 + 1e-3 * rng.standard_normal(A.nnz)
    return (A + sparse.diags(rng.uniform(0.5, 2.0, n))).tocsr()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(strength_matrices())
def test_aggregate_equals_reduceat_ref(A):
    assert_aggregates_like_ref(A)


def test_strong_table_is_intp_for_either_index_dtype(pcg):
    # scipy stores a large matrix's indices as int64, a small one's as
    # int32: the table is intp either way and gives the same aggregates.
    A32 = _levels(_single_random(3))[0]
    A64 = A32.copy()
    A64.indices = A64.indices.astype(np.int64)
    A64.indptr = A64.indptr.astype(np.int64)
    assert (A32.indices.dtype, A64.indices.dtype) == (np.int32, np.int64)
    tables = [slv._strong_table(A) for A in (A32, A64)]
    assert all(t.dtype == np.intp for t in tables)
    assert np.array_equal(*tables)
    ref, ref_nc = aggregate_ref(A32)
    for table in tables:
        agg, nc = slv._aggregate(table)
        assert nc == ref_nc and np.array_equal(agg, ref)


def _levels(system):
    """Every level matrix of ``system``'s PCG hierarchy."""
    _, reduced = slv._hybrid_factor(system)
    assert reduced.record["path"] == "pcg"
    return [A for A, _, _, _ in reduced.levels]


@pytest.mark.parametrize("level", [3, 4])
def test_aggregate_equals_ref_on_single_random(pcg, level):
    for A in _levels(_single_random(level)):
        assert_aggregates_like_ref(A)


def test_aggregate_equals_ref_on_grid_network(pcg, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid_dict(4, 0)))
    network, raw = geo.load_network(path)
    _, system, _, _ = cases.solve_meshes(
        network, msh.triangulate_network(network, 0.1),
        asm.boundary_spec_from_json(raw, network), "cc")
    for A in _levels(system):
        assert_aggregates_like_ref(A)


# ------------------------------------------------------------------ #
# set-up memory on single random L5
# ------------------------------------------------------------------ #

def _traced_peak_mib(call, *args):
    """``(result, peak MiB)`` of the allocations that tracemalloc sees
    during ``call(*args)``."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_assembly_and_solve_peaks_stay_low():
    """The tracemalloc peaks of ``assemble_cc`` and ``solve`` on single
    random L5, the ``single-random`` benchmark system, stay at or below
    0.8 of those of the assembly that concatenated its triplet lists and
    the condensation that kept them through the hierarchy set-up: 48.9
    and 45.1 MiB.  (On L4 the solve takes the LU path.  Its peak fell
    from 12.1 to 6.3 MiB when ``lu_fill`` became ``SuperLU.nnz``, the
    factors' stored entries, instead of building L and U as matrices to
    count them.)"""
    case = cases.get_case("single")
    problem = asm.prepare_problem(case.network(), case.meshes("random", 5),
                                  source=case.source)
    dofs = asm.build_dof_map(problem, "cc")
    system, assemble_mib = _traced_peak_mib(asm.assemble_cc, problem, dofs,
                                            case.bcs())
    rep, solve_mib = _traced_peak_mib(slv.solve, system)
    assert rep.solver["path"] == "pcg"
    assert assemble_mib <= 0.8 * 48.9
    assert solve_mib <= 0.8 * 45.1


_L5_CHILD = """
import hashlib, json
from dfnvem import cases, solver as slv
case = cases.get_case("single")
system = cases.solve_meshes(case.network(), case.meshes("random", 5),
                            case.bcs(), "cc", source=case.source)[1]
rep = slv.solve(system)
print(json.dumps({"levels": rep.solver["levels"],
                  "iterations": rep.solver["iterations"],
                  "x": hashlib.sha256(rep.x.tobytes()).hexdigest()}))
"""


@pytest.mark.slow
def test_single_random_l5_solution_is_pinned():
    """The solution, levels and iterations of single random L5: the
    levels and iterations as the reduceat aggregation and the list-held
    triplets gave them, the solution as the closed-form mass matrices
    and the eliminated cell blocks give it.  A threaded BLAS sums the
    CG's dot products in an order that depends on its thread count, so
    the solve runs in a child process with one BLAS thread, the
    variables ``perfbench/run.py`` pins."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(slv.__file__)))
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _L5_CHILD], env=env,
                         capture_output=True, text=True, check=True)
    rec = json.loads(out.stdout)
    assert rec["levels"] == [50_880, 6083, 765]
    assert rec["iterations"] == [29, 0]
    assert rec["x"] == (
        "470c359a11b9a384932f9e68effa38bd102a9c87fce16f024f1bd0a83b5457b0")


# ------------------------------------------------------------------ #
# cell block inversion
# ------------------------------------------------------------------ #

def _polygon_cells(rng, n, d, width):
    """The ``local_matrices_2d`` arguments of ``n`` random star-shaped
    polygons of ``d`` edges, sizes 1e-2..10, with random SPD tensors and
    stabilization parameters, padded to ``width`` with inert slots (zero
    length, midpoint at the centroid)."""
    cells = []
    for _ in range(n):
        ang = np.linspace(0, 2 * np.pi, d, endpoint=False)
        ang = ang + rng.uniform(0, 0.5, d) * 2 * np.pi / d
        r = rng.uniform(0.8, 1.2, d) * 10.0 ** rng.uniform(-2, 1)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        cells.append(polygon_geometry(pts + rng.normal(size=2)))
    area, centroid, _, elen, normal, mid = (np.array(x) for x in zip(*cells))
    X = rng.normal(size=(n, 2, 2))
    lam = X @ X.transpose(0, 2, 1) + 0.1 * np.eye(2)
    pad = width - d
    return (area, centroid, np.pad(elen, ((0, 0), (0, pad))),
            np.pad(normal, ((0, 0), (0, pad), (0, 0))),
            np.concatenate([mid, np.repeat(centroid[:, None], pad, 1)], 1),
            lam, rng.uniform(0.1, 10.0, n))


def _block_system(rng, n, d, fixed_flux=0.3, fixed_pressure=0.3,
                  robin=0.5, width=None):
    """A stand-in for the ``groups`` and ``fixed`` that ``_cell_blocks``
    reads: one bucket of ``n`` cells of ``d`` fluxes, padded to ``width``
    (``d`` by default) with slots of dof -1 and sign 0, with signs, Robin
    diagonals 1e-2..1e3 on a share of the fluxes, and a share of fixed
    fluxes and pressures.  A bucket that ``_cell_blocks`` eliminates gets
    random SPD mass matrices; a larger one the VEM mass matrices of
    random polygons (``_polygon_cells``) and the kernel's factors of
    them, which the closed form reads.  Returns it and the blocks ``(n,
    m, m)`` that ``_cell_blocks`` inverts, built one by one, the padding
    slots fixed."""
    width = d if width is None else width
    closed = width + 1 > slv.ELIMINATION_MAX
    ar = np.arange(d)
    if closed:
        cells = _polygon_cells(rng, n, d, width)
        M = vem.local_matrices_2d(*cells)[:, :d, :d]
    else:
        X = rng.normal(size=(n, d, d))
        M = X @ X.transpose(0, 2, 1) + 0.1 * np.eye(d)
    R = np.where(rng.random((n, d)) < robin,
                 10.0 ** rng.uniform(-2, 3, (n, d)), 0.0)
    M[:, ar, ar] += R
    s = rng.choice([-1.0, 1.0], size=(n, d))
    g = np.arange(n * d).reshape(n, d)
    p = n * d + np.arange(n)
    fixed_q = rng.random((n, d)) < fixed_flux
    # A free pressure needs a free flux (see the singular test below).
    fixed_p = (rng.random(n) < fixed_pressure) | fixed_q.all(axis=1)
    fixed = np.concatenate([fixed_q.ravel(), fixed_p])
    pad = ((0, 0), (0, width - d))
    if closed:
        *factors, sig = vem._mass_factors(*cells)
        mass = (*factors, sig + np.pad(R, pad).T)
    else:
        mass = M * s[:, :, None] * s[:, None, :]
    system = type("Blocks", (), {
        "groups": [(np.pad(g, pad, constant_values=-1), np.pad(s, pad), p,
                    mass)],
        "fixed": fixed})
    L = np.zeros((n, width + 1, width + 1))
    for i in range(n):
        L[i, :d, :d] = M[i] * np.outer(s[i], s[i])
        L[i, :d, width] = L[i, width, :d] = -s[i]
        mk = np.concatenate([fixed[g[i]], np.ones(width - d, bool),
                             fixed[p[i:i + 1]]])
        L[i][mk] = 0.0
        L[i][:, mk] = 0.0
        L[i][mk, mk] = 1.0
    return system, L


def _inverse_blocks(system):
    size = len(system.fixed)
    (_, Linv, _, _, _), = slv._cell_blocks(
        system, np.full(size, -1), np.zeros(size), np.zeros(size, bool))
    return Linv.transpose(2, 0, 1)


def _assert_inverts(got, L):
    want = np.linalg.inv(L)
    scale = np.abs(want).max(axis=(1, 2))
    assert (np.abs(got - want).max(axis=(1, 2)) <= 1e-13 * scale).all()


@pytest.mark.parametrize("d", range(1, slv.ELIMINATION_MAX + 1))
def test_cell_block_inverse_matches_lapack(d):
    # d + 1 unknowns: 2 .. ELIMINATION_MAX by elimination, the next in
    # closed form.
    system, L = _block_system(np.random.default_rng(d), 300, d)
    _assert_inverts(_inverse_blocks(system), L)


@pytest.mark.parametrize("d", [6, 7, 8, 9, 12, 16, 23, 31, 40, 57, 72, 80])
def test_closed_form_inverse_matches_lapack(d):
    # The closed form on the padded buckets of polygons of 6 to 80 edges,
    # with a pinned pressure in a third of the cells.
    system, L = _block_system(np.random.default_rng(d), 60, d,
                              width=msh._bucket_width(d))
    _assert_inverts(_inverse_blocks(system), L)


@pytest.mark.parametrize("d", [slv.ELIMINATION_MAX - 1, slv.ELIMINATION_MAX])
def test_cell_block_with_every_flux_fixed_is_singular(d):
    # The pressure of a cell whose fluxes are all fixed has no equation:
    # its block is singular on either side of the switch.
    system, _ = _block_system(np.random.default_rng(0), 3, d,
                              fixed_flux=0.0, fixed_pressure=0.0)
    g = system.groups[0][0]
    system.fixed[g[1]] = True           # every flux of cell 1
    with pytest.raises(SingularSystem, match="singular cell block"):
        _inverse_blocks(system)


def test_elimination_slabs_invert_each_block_on_its_own(monkeypatch):
    # _eliminate sweeps the cells slab by slab, in place: each block
    # inverts bit for bit as it does in a batch of one, wherever the slab
    # ends fall, and a zero pivot in the last slab still raises.
    monkeypatch.setattr(slv, "_SLAB", 64)
    _, L = _block_system(np.random.default_rng(5), 3 * 64 + 9, 4)
    batch = np.ascontiguousarray(L.transpose(1, 2, 0))
    got = slv._eliminate(batch.copy())
    for i in range(batch.shape[2]):
        alone = slv._eliminate(batch[:, :, i:i + 1].copy())
        assert got[:, :, i:i + 1].tobytes() == alone.tobytes()
    batch[:, 0, -1] = batch[0, :, -1] = 0.0
    with pytest.raises(SingularSystem, match="zero pivot 0"):
        slv._eliminate(batch)


@pytest.mark.parametrize("d", [9, 12, 16])
def test_cell_blocks_of_bucket_views_match_exact_blocks(d):
    # The assembly pads a group to its bucket width, and the solver
    # inverts the padded blocks whole: their real entries match the
    # exact-size blocks' to 1e-13, and the padding is the identity's.
    exact, got = (_inverse_blocks(_block_system(
        np.random.default_rng(d), 50, d, width=w)[0])
        for w in (d, msh._bucket_width(d)))
    real = np.r_[:d, -1]
    scale = np.abs(exact).max(axis=(1, 2))
    assert (np.abs(got[:, real][:, :, real] - exact).max(axis=(1, 2))
            <= 1e-13 * scale).all()
    pad = np.r_[d:got.shape[1] - 1]
    assert (got[:, pad] == np.eye(got.shape[1])[pad]).all()


def _kernel_calls(monkeypatch):
    """The batch arguments of every ``vem.local_matrices_2d`` call."""
    calls = []
    real = vem.local_matrices_2d

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(vem, "local_matrices_2d", spy)
    return calls


def test_kernel_runs_once_per_bucket(monkeypatch):
    calls = _kernel_calls(monkeypatch)
    problem = cases.run_level(cases.get_case("intersection-flow"), "coarse4",
                              2, "dc")[0]
    counts = np.concatenate([np.diff(m.cell_ptr)
                             for m in problem.meshes.values()])
    widths = sorted({msh._bucket_width(d) for d in counts.tolist()})
    assert [args[2].shape[1] for args in calls] == widths
    assert widths == sorted({pos.shape[1] for m in problem.meshes.values()
                             for _, pos, _ in m.cell_buckets})
    # Fewer calls than (fracture, edge count) groups.
    groups = sum(len(np.unique(np.diff(m.cell_ptr)))
                 for m in problem.meshes.values())
    assert len(calls) < groups


def test_single_random_group_arrives_unpadded(monkeypatch):
    calls = _kernel_calls(monkeypatch)
    system = _single_random(3)
    mesh, = system.problem.meshes.values()
    (ids, pos, real), = mesh.cell_buckets
    assert real is None
    assert np.array_equal(ids, np.arange(mesh.n_cells))
    assert np.array_equal(pos.ravel(), np.arange(4 * mesh.n_cells))
    (args,) = calls
    assert args[2].shape == (mesh.n_cells, 4) and (args[2] > 0).all()
    (g, s, _, sMs), = system.groups
    assert g.shape == (mesh.n_cells, 4) and np.abs(s).min() == 1.0
    assert sMs.transpose(1, 2, 0).flags.c_contiguous


def _spy_dense_linalg(monkeypatch):
    """Record the name and matrix shape of every ``np.linalg`` inv, solve
    and det call."""
    calls = []
    for name in ("inv", "solve", "det"):
        def spy(a, *args, _name=name, _real=getattr(np.linalg, name),
                **kwargs):
            calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def test_small_cell_kernels_call_no_dense_lapack(monkeypatch):
    calls = _spy_dense_linalg(monkeypatch)
    _single_random(3)
    assert calls == []


def test_large_cell_blocks_call_no_dense_lapack(monkeypatch):
    # intersection-flow coarse4 L2, polygons of 6 to 25 edges: no
    # np.linalg call, and one _cell_blocks batch per kernel bucket.
    calls = _spy_dense_linalg(monkeypatch)
    batches = []
    real = slv._cell_blocks

    def spy(*args):
        for block in real(*args):
            batches.append(block[1].shape)
            yield block
    monkeypatch.setattr(slv, "_cell_blocks", spy)
    problem = cases.run_level(cases.get_case("intersection-flow"), "coarse4",
                              2)[0]
    assert calls == []
    counts = np.concatenate([np.diff(m.cell_ptr)
                             for m in problem.meshes.values()])
    widths = sorted({msh._bucket_width(d) for d in counts.tolist()})
    assert [m - 1 for m, _, _ in batches] == widths
    assert sum(n for _, _, n in batches) == len(counts)


def test_closed_form_agrees_with_elimination_on_single_random(monkeypatch):
    # With the switch at 0 every block takes the closed form, with the
    # switch at 100 every block the elimination: single random L3 (quads)
    # and intersection-flow coarse4 L4 (50 polygons of 7 to 59 edges)
    # solve alike to 1e-12 either way.
    for name, build in (
            ("single", lambda: _single_random(3)),
            ("coarse", lambda: cases.run_level(cases.get_case(
                "intersection-flow"), "coarse4", 4)[1])):
        x = {}
        for switch in (0, 100):
            monkeypatch.setattr(slv, "ELIMINATION_MAX", switch)
            x[switch] = slv.solve(build()).x
        assert np.linalg.norm(x[0] - x[100]) <= 1e-12 * np.linalg.norm(
            x[100]), name
