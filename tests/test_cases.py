import numpy as np
import pytest

from dfnvem import cases

from _util import side_edges_of, symmetry_error, verify_strong_form


@pytest.fixture(scope="module")
def single():
    return cases.case_single_fracture()


@pytest.fixture(scope="module")
def two_cc():
    return cases.case_two_fractures()


@pytest.fixture(scope="module")
def isect():
    return cases.case_intersection_flow()


class TestSingleFracture:
    def test_p_exact_at_origin(self, single):
        assert single.p_exact(0, np.zeros((1, 3)))[0] == 0.0

    def test_strong_form_residual(self, single):
        assert verify_strong_form(single, n_samples=100) < 1e-8

    def test_p_exact_range_on_fracture(self, single):
        net = single.network()
        frac = net.fractures[0]
        rng = np.random.default_rng(11)
        uv = rng.uniform(0, 1, (4000, 2))
        pts = frac.frame.to_global(uv)
        vals = single.p_exact(0, pts)
        assert vals.min() >= -1e-9
        assert vals.max() <= 1.337 + 1e-3

    def test_families_exist(self, single):
        assert set(single.families) == {"cartesian", "coarse", "triangular",
                                        "random"}

    def test_deterministic_builders(self, single):
        m1 = single.meshes("random", 1)[0]
        m2 = single.meshes("random", 1)[0]
        assert np.array_equal(m1.nodes, m2.nodes)
        t1 = single.meshes("triangular", 1)[0]
        t2 = single.meshes("triangular", 1)[0]
        assert np.array_equal(t1.nodes, t2.nodes)


class TestTwoFractures:
    def test_trace_continuity_for_unit_zeta(self, two_cc):
        y = np.linspace(0.05, 0.95, 11)
        pts = np.column_stack([np.zeros(11), y, np.zeros(11)])
        v0 = two_cc.p_exact(0, pts)
        v1 = two_cc.p_exact(1, pts)
        exact = 4 * y * (1 - y)
        assert np.allclose(v0, exact, atol=1e-14)
        assert np.allclose(v1, exact, atol=1e-14)

    def test_strong_form_residual(self, two_cc):
        assert verify_strong_form(two_cc, n_samples=100) < 1e-8

    def test_exact_maximum_is_four(self, two_cc):
        # Peak at the boundary vertex (1, 1/2, 0) of the second fracture.
        assert abs(two_cc.p_exact(1, np.array([[1.0, 0.5, 0.0]]))[0] - 4.0) < 1e-14
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.uniform(-1, 1, 5000),
                               rng.uniform(0, 1, 5000), np.zeros(5000)])
        assert two_cc.p_exact(1, pts).max() <= 4.0 + 1e-12

    def test_source_vanishes_at_balanced_point(self, two_cc):
        # At (0, 1/2, 1/2) both terms of the source cancel.
        assert abs(two_cc.source(0, np.array([[0.0, 0.5, 0.5]]))[0]) < 1e-14

    def test_network_trace_spans_unit_interval(self, two_cc):
        line = two_cc.network().lines[0]
        ys = sorted([line.p0[1], line.p1[1]])
        assert np.allclose(ys, [0.0, 1.0], atol=1e-9)
        assert np.allclose([line.p0[0], line.p0[2], line.p1[0], line.p1[2]],
                           0.0, atol=1e-9)


class TestIntersectionFlow:
    def test_hat_pressure_midpoint(self, isect):
        val = isect.p_hat_exact(0, np.array([[0.0, 0.5, 0.0]]))[0]
        assert abs(val - 1.25) < 1e-14

    def test_hat_pressure_vanishes_at_ends(self, isect):
        for y in (0.0, 1.0):
            assert abs(isect.p_hat_exact(0, np.array([[0, y, 0.0]]))[0]) < 1e-14

    def test_hat_velocity_is_negative_gradient(self, isect):
        y = np.linspace(0.1, 0.9, 9)
        pts = np.column_stack([np.zeros(9), y, np.zeros(9)])
        u = isect.u_hat_exact(0, pts)
        assert np.allclose(u[:, 1], 10 * y - 5, atol=1e-14)
        assert np.allclose(u[:, [0, 2]], 0.0)

    def test_normal_permeability_is_eight(self, isect):
        line = isect.network().lines[0]
        assert line.k_tilde == 8.0
        assert line.effective_normal(1.0) == 8.0

    def test_discrete_line_balance(self, isect):
        # 1D mass balance per element: flux divergence minus the fracture
        # jump source equals the integrated line source.
        problem, system, solution, rep, err = cases.run_level(
            isect, "triangular", 1)
        gid = 0
        tm = problem.traces[gid]
        u = solution.line_flux[gid]
        for j in range(tm.n_elems):
            div = u[j + 1] - u[j]
            jump = 0.0
            for (fid, side), eids in side_edges_of(problem, gid).items():
                jump += solution.edge_flux[fid][int(eids[j])]
            mid3 = tm.elem_mid_3d()[j][None]
            f_hat = float(np.asarray(isect.line_source(gid, mid3)).ravel()[0])
            res = div - jump - tm.elem_len[j] * f_hat
            assert abs(res) < 1e-9


class TestFourFractures:
    def test_geometry(self):
        case = cases.case_four_fractures()
        net = case.network()
        assert len(net.fractures) == 4
        assert len(net.lines) == 3
        props = {frozenset(ln.parents): (ln.k_hat, ln.k_tilde)
                 for ln in net.lines}
        assert props[frozenset({0, 1})] == (1.0, 1e-7)
        assert props[frozenset({0, 2})] == (1e-10, 1.0)
        assert props[frozenset({0, 3})] == (1e10, 1.0)
        # The second and third neighbour traces are congruent mirrors.
        l13 = next(ln for ln in net.lines if set(ln.parents) == {0, 2})
        l14 = next(ln for ln in net.lines if set(ln.parents) == {0, 3})
        assert abs(l13.length - l14.length) < 1e-12
        mirror = lambda p: np.array([1 - p[0], p[1], p[2]])
        ends14 = sorted(map(tuple, np.round([l14.p0, l14.p1], 9)))
        ends13m = sorted(map(tuple, np.round([mirror(l13.p0), mirror(l13.p1)], 9)))
        assert ends14 == ends13m

    def test_no_exact_solution(self):
        case = cases.case_four_fractures()
        assert case.p_exact is None

    def test_channelization_redistributes_flux(self):
        # The conducting intersection moves inflow toward its far end;
        # the blocking one passes flux straight through element by
        # element.  (The magnitude of the tangential transport depends on
        # the geometry; here the redistribution itself is the signature.)
        case = cases.case_four_fractures()
        net = case.network()
        problem, system, solution, rep, err = cases.run_level(
            case, "triangular", 2)
        for parents, conducting in (({0, 3}, True), ({0, 2}, False)):
            gid = next(ln.id for ln in net.lines
                       if set(ln.parents) == parents)
            tm = problem.traces[gid]
            omega = (set(parents) - {0}).pop()
            supply = np.zeros(tm.n_elems)
            discharge = np.zeros(tm.n_elems)
            for (fid, side), eids in side_edges_of(problem, gid).items():
                for j, e in enumerate(eids):
                    v = solution.edge_flux[fid][int(e)]
                    if fid == 0:
                        supply[j] += v
                    else:
                        discharge[j] += -v
            if conducting:
                assert np.abs(discharge - supply).max() > 1e-3
                assert np.abs(solution.line_flux[gid]).max() > 1e-3
            else:
                assert np.abs(discharge - supply).max() < 1e-8
                assert np.abs(solution.line_flux[gid]).max() < 1e-8


class TestHarness:
    def test_run_level_reports_errors(self, single):
        problem, system, solution, rep, err = cases.run_level(
            single, "cartesian", 1)
        assert rep.residual < 1e-10
        assert err is not None and err.err_p < 0.05

    @pytest.mark.parametrize("family", ["coarse2", "coarse4", "coarse5"])
    def test_deep_coarse_families_solve(self, two_cc, family):
        problem, system, solution, rep, err = cases.run_level(
            two_cc, family, 2)
        assert rep.residual < 1e-10
        assert err.err_p < 0.2
        assert symmetry_error(system) == 0.0
        # Deeper agglomeration grows the edge count per cell.
        if family == "coarse5":
            stats_epc = max(np.diff(m.cell_ptr).max()
                            for m in problem.meshes.values())
            assert stats_epc >= 10

    def test_dc_system_exactly_symmetric(self, isect):
        problem, system, solution, rep, err = cases.run_level(
            isect, "triangular", 1)
        assert symmetry_error(system) == 0.0

    def test_unknown_family_raises(self, single):
        with pytest.raises(Exception):
            single.meshes("hexagonal", 1)

    def test_get_case_names(self):
        for name in cases.CASE_NAMES:
            assert cases.get_case(name).name == name
