"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Convergence rates are least-squares slopes of log(err) vs log(h); for
five-level ladders the slope is fitted over levels 2-5 (the coarsest
level of each family is pre-asymptotic; rates only settle from the
second level on).
"""

import json
import time

import numpy as np

from dfnvem import assembly as asm
from dfnvem import cases
from dfnvem import cli
from dfnvem import coarsening as coa
from dfnvem import geometry as geo
from dfnvem import meshing as msh
from dfnvem import solver as slv
from dfnvem import vem

from _util import (cell_of, import_network_dict, local_matrices_2d_ref,
                   polygon_geometry, regression_order)


def report(num, ok, msg):
    print(f"ACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} ({msg})")
    assert ok, f"criterion {num}: {msg}"


def tail_slope(reports, attr="err_p", hattr="h_avg", skip=1):
    hs = [getattr(r, hattr) for r in reports][skip:]
    es = [getattr(r, attr) for r in reports][skip:]
    return regression_order(hs, es)


def test_criterion_1_cartesian_table_values():
    """Single-fracture Cartesian family reproduces the reference errors."""
    table_p = [4.099e-2, 1.061e-2, 2.682e-3, 6.728e-4]
    table_u = [1.936e-1, 5.923e-2, 1.715e-2, 4.807e-3]
    case = cases.case_single_fracture()
    t0 = time.monotonic()
    reports, _ = cases.run_convergence(case, "cartesian", 4)
    elapsed = time.monotonic() - t0
    msgs = []
    ok = True
    for r, tp, tu in zip(reports, table_p, table_u):
        dev_p = abs(r.err_p - tp) / tp
        dev_u = abs(r.err_u - tu) / tu
        ok &= dev_p <= 0.05 and dev_u <= 0.10
        msgs.append(f"L{r.level}: dp={dev_p:.1%} du={dev_u:.1%}")
    for r in reports[2:]:  # orders from level 3 on
        ok &= abs(r.order_p - 2.0) <= 0.1
        msgs.append(f"O(p)L{r.level}={r.order_p:.3f}")
    ok &= elapsed < 30.0
    report(1, ok, "; ".join(msgs) + f"; runtime={elapsed:.1f}s")


def test_criterion_2_triangular_and_random_orders():
    """Order windows for the unstructured single-fracture families."""
    case = cases.case_single_fracture()
    msgs = []
    ok = True
    for family, win_u in (("triangular", (0.8, 1.2)), ("random", (0.75, 1.1))):
        reports, _ = cases.run_convergence(case, family, 5)
        sp = tail_slope(reports, "err_p")
        su = tail_slope(reports, "err_u")
        ok &= 1.7 <= sp <= 2.2
        ok &= win_u[0] <= su <= win_u[1]
        msgs.append(f"{family}: O(p)={sp:.2f} O(u)={su:.2f}")
    report(2, ok, "; ".join(msgs))


def test_criterion_3_two_fracture_continuous_coupling():
    """Ellipse pair, pressure-continuous model: orders and max-p trend."""
    case = cases.case_two_fractures()
    msgs = []
    ok = True
    for family in ("triangular", "coarse2"):
        reports, _ = cases.run_convergence(case, family, 5)
        sp = tail_slope(reports, "err_p")
        su = tail_slope(reports, "err_u")
        ok &= abs(sp - 2.0) <= 0.25
        ok &= abs(su - 1.0) <= 0.25
        maxp = [r.max_p for r in reports[1:]]
        monotone = all(b >= a - 1e-12 for a, b in zip(maxp[:-1], maxp[1:]))
        # Exact solution peaks at 4 (four times the trace maximum).
        converged = maxp[-1] >= 3.8 and maxp[-1] <= 4.0 + 1e-9
        ok &= monotone and converged
        msgs.append(f"{family}: O(p)={sp:.2f} O(u)={su:.2f} "
                    f"max_p->{maxp[-1]:.3f} monotone={monotone}")
    report(3, ok, "; ".join(msgs))


def test_criterion_4_intersection_flow():
    """Flow-carrying intersections: fracture orders plus hat-variable
    superconvergence on the triangular family."""
    case = cases.case_intersection_flow()
    reports, _ = cases.run_convergence(case, "triangular", 5)
    sp = tail_slope(reports, "err_p")
    su = tail_slope(reports, "err_u")
    sph = tail_slope(reports, "err_p_hat", hattr="h_hat")
    suh = tail_slope(reports, "err_u_hat", hattr="h_hat")
    ok = abs(sp - 2.0) <= 0.25 and abs(su - 1.0) <= 0.25
    ok &= abs(sph - 2.0) <= 0.35
    ok &= suh >= 1.5
    report(4, ok, f"O(p)={sp:.2f} O(u)={su:.2f} O(p_hat)={sph:.2f} "
                  f"O(u_hat)={suh:.2f}")


def test_criterion_5_property_suite():
    """Patch test, consistency identity, conservation, closed forms,
    coarsening properties and the dc->cc limit, all inside 10 s."""
    t0 = time.monotonic()
    msgs = []

    # --- patch test on three mesh types ---------------------------------
    frac = geo.Fracture(id=0, vertices=np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float))
    net = geo.build_network([frac])

    def g(fid, x):
        x = np.asarray(x)
        return 0.4 + 1.7 * x[..., 0] - 2.3 * x[..., 1]

    worst = 0.0
    for kind in ("cartesian", "triangular", "coarse"):
        if kind == "cartesian":
            mesh = msh.cartesian_mesh(4, frame=frac.frame)
        elif kind == "triangular":
            mesh = msh.triangulate(frac.local_polygon, h_target=0.3,
                                   frame=frac.frame)
        else:
            base = msh.triangulate(frac.local_polygon, h_target=0.2,
                                   frame=frac.frame)
            mesh, _ = coa.agglomerate(base, c_depth=2)
            mesh.frame = frac.frame
        problem = asm.prepare_problem(net, {0: mesh})
        dofs = asm.build_dof_map(problem, "cc")
        system = asm.assemble_cc(problem, dofs, asm.BoundarySpec.dirichlet(g))
        x = slv.solve(system).x
        sol = asm.extract_solution(system, x)
        c3 = problem.meshes[0].frame.to_global(problem.meshes[0].cell_centroids)
        worst = max(worst, float(np.abs(sol.pressure[0] - g(0, c3)).max()))
    ok = worst < 1e-10
    msgs.append(f"patch={worst:.1e}")

    # --- consistency identity a_h == a on projected modes ----------------
    rng = np.random.default_rng(99)
    worst_c = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 9))
        ang = np.sort(rng.uniform(0, 2 * np.pi, n))
        while np.min(np.diff(ang, append=ang[0] + 2 * np.pi)) < 0.2:
            ang = np.sort(rng.uniform(0, 2 * np.pi, n))
        r = rng.uniform(0.5, 1.5, n)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        area, centroid, diam, elen, nrm, mid = polygon_geometry(pts)
        ref = local_matrices_2d_ref(area, centroid, diam, elen, nrm, mid,
                                    np.eye(2))
        M = vem.local_matrices_2d([area], [centroid], [elen], [nrm], [mid],
                                  [np.eye(2)])[0]
        u = ref.D @ rng.normal(size=2)
        v = rng.normal(size=n)
        worst_c = max(worst_c, abs(u @ M @ v - u @ ref.consistency() @ v))
    ok &= worst_c < 1e-12
    msgs.append(f"consistency={worst_c:.1e}")

    # --- local conservation and interface balance ------------------------
    from _util import (crossing_rectangles, rect_mesh_with_trace, run,
                       side_edges_of)
    net2 = crossing_rectangles()
    meshes = {0: rect_mesh_with_trace(net2.fractures[0], 4, 2),
              1: rect_mesh_with_trace(net2.fractures[1], 4, 2)}

    def f(fid, x):
        return np.cos(3 * x[..., 1]) + x[..., 0]

    problem, dofs, system, sol, rep = run(
        net2, meshes, g=lambda fid, x: np.asarray(x)[..., 1], f=f)
    worst_cons = 0.0
    for fid in (0, 1):
        m = problem.meshes[fid]
        c3 = m.frame.to_global(m.cell_centroids)
        target = m.cell_areas * f(fid, c3)
        for k in range(m.n_cells):
            es, _ = cell_of(m, k)
            s = np.where(m.edge_cells[es, 0] == k, 1.0, -1.0)
            worst_cons = max(worst_cons,
                             abs(float(s @ sol.edge_flux[fid][es]) - target[k]))
    worst_bal = 0.0
    tm, sides = problem.traces[0], side_edges_of(problem, 0)
    for elem in range(tm.n_elems):
        total = sum(sol.edge_flux[fid][int(eids[elem])]
                    for (fid, side), eids in sides.items())
        worst_bal = max(worst_bal, abs(total))
    ok &= worst_cons < 1e-10 and worst_bal < 1e-10
    msgs.append(f"conservation={worst_cons:.1e} balance={worst_bal:.1e}")

    # --- 1D closed forms for 10 random (h, lam_hat) ----------------------
    exact_1d = True
    for seed in range(10):
        r2 = np.random.default_rng(seed)
        h = float(r2.uniform(0.01, 10))
        lh = float(r2.uniform(0.01, 10))
        elem = vem.local_matrices_1d(h, lh)
        exact_1d &= np.array_equal(
            elem.consistency, (h / (4 * lh)) * np.array([[1, -1], [-1, 1]]))
        exact_1d &= np.array_equal(
            elem.stabilization, 0.5 * np.array([[1, 1], [1, 1]]))
        exact_1d &= elem.varsigma_hat == h / lh
    ok &= exact_1d
    msgs.append(f"1d-closed-forms={exact_1d}")

    # --- coarsening battery on 50 randomized triangulations --------------
    frac_sq = geo.Fracture(id=0, vertices=np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float))
    coarsen_ok = True
    for seed in range(50):
        r3 = np.random.default_rng(4000 + seed)
        y = r3.uniform(0.3, 0.7)
        p0 = np.array([r3.uniform(0.0, 0.25), y])
        p1 = np.array([r3.uniform(0.6, 1.0), y])
        mesh = msh.triangulate(frac_sq.local_polygon, [(0, p0, p1)],
                               h_target=float(r3.uniform(0.18, 0.3)),
                               frame=frac_sq.frame,
                               seed=int(r3.integers(1, 1 << 20)))
        tips = [p for p in (p0, p1) if 0.0 < p[0] < 1.0]
        coarse, part = coa.agglomerate(mesh, tips_local=tips,
                                       c_depth=int(r3.integers(1, 3)),
                                       eps_str=0.25)
        cmap = part.cell_to_coarse
        coarsen_ok &= set(cmap) == set(range(cmap.max() + 1))
        coarsen_ok &= abs(coarse.cell_areas.sum() - mesh.cell_areas.sum()) < 1e-12
        ec = mesh.edge_cells
        for e in np.where(mesh.edge_trace == 0)[0]:
            c0, c1 = ec[e]
            if c0 >= 0 and c1 >= 0:
                coarsen_ok &= cmap[c0] != cmap[c1]
        tip_cells = coa._tip_cells(mesh, tips)
        coarsen_ok &= len({cmap[c] for c in tip_cells}) == len(tip_cells)
    ok &= coarsen_ok
    msgs.append(f"coarsening-50={coarsen_ok}")

    # --- dc -> cc limit ---------------------------------------------------
    from dfnvem.cases import _ellipse_pair_network, _two_fracture_fields
    p_exact, _, source, _ = _two_fracture_fields(-1.0)

    def build(k_hat, k_tilde):
        netw = _ellipse_pair_network(k_hat=k_hat, k_tilde=k_tilde)
        mm = {fid: msh.triangulate_fracture(netw.fracture(fid),
                                            netw.traces_of(fid), 0.175)
              for fid in (0, 1)}
        return netw, mm

    gd = lambda fid, x: p_exact(fid, x)
    netw, mm = build(1.0, 8.0)
    pc = asm.prepare_problem(netw, mm, source=source)
    sys_cc = asm.assemble_cc(pc, asm.build_dof_map(pc, "cc"),
                             asm.BoundarySpec.dirichlet(gd))
    sol_cc = asm.extract_solution(sys_cc, slv.solve(sys_cc).x)
    netw2, mm2 = build(1e-6, 1e12)
    pd = asm.prepare_problem(netw2, mm2, source=source)
    sys_dc = asm.assemble_dc(pd, asm.build_dof_map(pd, "dc"),
                             asm.BoundarySpec.dirichlet(gd))
    sol_dc = asm.extract_solution(sys_dc, slv.solve(sys_dc).x)
    worst_lim = max(
        float(np.abs(sol_cc.pressure[fid] - sol_dc.pressure[fid]).max()
              / np.abs(sol_cc.pressure[fid]).max())
        for fid in (0, 1)
    )
    ok &= worst_lim < 1e-4
    msgs.append(f"dc->cc={worst_lim:.1e}")

    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(5, ok, "; ".join(msgs) + f"; runtime={elapsed:.1f}s")


def test_criterion_6_four_fracture_example():
    """Sealed neighbour, channelized intersection, mirror symmetry."""
    case = cases.case_four_fractures()
    net = case.network()
    problem, system, solution, rep, err = cases.run_level(
        case, "triangular", 3)
    ok = rep.residual < 1e-10
    # (a) the nearly sealed fracture sits at the outlet pressure.
    m1 = problem.meshes[1]
    mean_p2 = abs(float(np.average(solution.pressure[1],
                                   weights=m1.cell_areas)))
    ok &= mean_p2 < 1e-4
    # (b) conducting vs blocking intersection flux ratio.
    gid13 = next(ln.id for ln in net.lines if set(ln.parents) == {0, 2})
    gid14 = next(ln.id for ln in net.lines if set(ln.parents) == {0, 3})
    f13 = float(np.abs(solution.line_flux[gid13]).max())
    f14 = float(np.abs(solution.line_flux[gid14]).max())
    ratio = f14 / max(f13, 1e-300)
    ok &= ratio >= 100.0
    # (c) mirrored sample points agree within 1% of the pressure range.
    rng_p = max(s.max() for s in solution.pressure.values()) - \
        min(s.min() for s in solution.pressure.values())

    def sample(fid, pts3):
        m = problem.meshes[fid]
        loc = m.frame.to_local(np.atleast_2d(pts3))
        out = []
        for q in loc:
            d = np.linalg.norm(m.cell_centroids - q, axis=1)
            idx = np.argsort(d)[:4]
            out.append(float(np.average(solution.pressure[fid][idx],
                                        weights=1 / np.maximum(d[idx], 1e-12))))
        return np.array(out)

    rel = np.array([[0.3, 0.1], [0.7, 0.1], [0.5, 0.2], [0.3, 0.3],
                    [0.7, 0.3], [0.5, 0.4], [0.25, 0.2], [0.75, 0.4]])
    o3 = net.fracture(2)
    lo, hi = o3.local_polygon.min(0), o3.local_polygon.max(0)
    qs3 = o3.frame.to_global(lo + rel * (hi - lo))
    qs4 = qs3.copy()
    qs4[:, 0] = 1.0 - qs4[:, 0]
    sym = float(np.abs(sample(2, qs3) - sample(3, qs4)).max() / rng_p)
    ok &= sym <= 0.01
    report(6, ok, f"mean_p2={mean_p2:.1e}; flux_ratio={ratio:.1e}; "
                  f"mirror_dev={sym:.2%}")


def test_criterion_7_network_import_pipeline(tmp_path):
    """A 12-fracture network file runs end to end."""
    net_path = tmp_path / "network.json"
    net_path.write_text(json.dumps(import_network_dict()))
    out = tmp_path / "run"
    rc = cli.main(["solve", "--network", str(net_path), "--h", "0.15",
                   "--model", "cc", "--out", str(out)])
    ok = rc == 0
    summary = json.loads((out / "summary.json").read_text())
    ok &= summary["residual"] < 1e-10
    imbalance = summary["flux_balance"]["relative_imbalance"]
    ok &= imbalance < 1e-8
    # Coarsening at depth 2 halves the network-wide cell count at least.
    network, raw = geo.load_network(net_path)
    meshes = {
        frac.id: msh.triangulate_fracture(frac, network.traces_of(frac.id), 0.15)
        for frac in network.fractures
    }
    coarse = coa.agglomerate_network(network, meshes, c_depth=2)
    fine_cells = sum(mesh.n_cells for mesh in meshes.values())
    coarse_cells = sum(mesh.n_cells for mesh, _ in coarse.values())
    ratio = coarse_cells / fine_cells
    ok &= ratio <= 0.5
    report(7, ok, f"residual={summary['residual']:.1e}; "
                  f"imbalance={imbalance:.1e}; "
                  f"cells {fine_cells}->{coarse_cells} (ratio {ratio:.2f})")
