import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from dfnvem import cases
from dfnvem import coarsening as coa
from dfnvem import geometry as geo
from dfnvem import meshing as msh

from _util import (ORACLE_MESHES, RefStrength, agglomerate_ref,
                   attach_fine_ref, boundary_distance_ref, cf_split_ref,
                   cf_split_sets_ref, chain_loop_ref, import_network_dict,
                   oracle_meshes, partition_members, strong_sets_ref,
                   tpfa_matrix_ref, write_perfbench_network)


def strength_from_dense(A):
    return coa.StrengthMatrix(A=sparse.csr_matrix(np.asarray(A, float)))


def strong_rows(A, strong):
    """A mask over ``A.data`` as one ascending tuple of columns per row."""
    return [tuple(A.indices[a:b][strong[a:b]].tolist())
            for a, b in zip(A.indptr[:-1], A.indptr[1:])]


class TestTPFA:
    def test_two_unit_squares(self):
        # Hand computation: alpha = 1*(1,0).(0.5,0)/0.25 = 2 per side,
        # T = 2*2/(2+2) = 1 across the shared edge; each cell's three
        # boundary edges close with alpha = 2 each on the diagonal.
        nodes = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]], float)
        mesh = msh.PolyMesh.from_cells(nodes, [[0, 1, 4, 5], [1, 2, 3, 4]])
        A = coa.tpfa_matrix(mesh, np.eye(2)).A.toarray()
        assert np.allclose(A, [[1 + 6, -1], [-1, 1 + 6]], atol=1e-12)

    def test_single_cell_all_boundary(self):
        mesh = msh.cartesian_mesh(1)
        A = coa.tpfa_matrix(mesh, np.eye(2)).A.toarray()
        assert A.shape == (1, 1)
        assert A[0, 0] > 0

    def test_anisotropy_ratio(self):
        mesh = msh.cartesian_mesh(4)
        A = coa.tpfa_matrix(mesh, np.diag([100.0, 1.0])).A
        horizontal, vertical = [], []
        mids = mesh.edge_mid
        ec = mesh.edge_cells
        for e in range(mesh.n_edges):
            c0, c1 = ec[e]
            if c0 < 0 or c1 < 0:
                continue
            val = -A[c0, c1]
            d = mesh.nodes[mesh.edge_nodes[e, 1]] - mesh.nodes[mesh.edge_nodes[e, 0]]
            if abs(d[0]) < 1e-12:   # vertical edge: x-direction coupling
                horizontal.append(val)
            else:
                vertical.append(val)
        assert np.allclose(np.array(horizontal) / np.array(vertical)[0], 100.0)
        # h = 1/4: T = 100 across a vertical edge and 1 across a
        # horizontal one; a boundary edge closes with its half
        # transmissibility, 200 or 2.  A cell with bx vertical and by
        # horizontal boundary edges has diagonal 202 + 100 bx + by.
        ij = np.floor(mesh.cell_centroids * 4).astype(int)
        bx, by = ((ij == 0) | (ij == 3)).T
        assert np.allclose(A.diagonal(), 202 + 100 * bx + by)

    def test_symmetric_pattern_positive_diagonal(self):
        mesh = msh.triangulate(
            np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float), h_target=0.3)
        A = coa.tpfa_matrix(mesh, np.eye(2)).A
        assert (A - A.T).nnz == 0 or abs((A - A.T)).max() < 1e-12
        assert (A.diagonal() > 0).all()


class TestCFSplit:
    def test_three_cell_chain(self):
        A = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
        labels = coa.cf_split(strength_from_dense(A))
        assert list(labels) == [0, 1, 0]

    def test_diagonal_all_coarse(self):
        labels = coa.cf_split(strength_from_dense(np.diag([1.0, 2.0, 3.0])))
        assert list(labels) == [1, 1, 1]

    def test_chain_of_seven_matches_reference(self):
        n = 7
        A = np.diag(np.full(n, 2.0))
        for i in range(n - 1):
            A[i, i + 1] = A[i + 1, i] = -1.0
        labels = coa.cf_split(strength_from_dense(A))

        # Independent brute-force trace of the same selection rules.
        S = [set() for _ in range(n)]
        for i in range(n):
            neg = [j for j in range(n) if A[i, j] < 0]
            m = max(-A[i, j] for j in neg)
            S[i] = {j for j in neg if -A[i, j] >= 0.25 * m}
        ST = [set() for _ in range(n)]
        for i in range(n):
            for j in S[i]:
                ST[j].add(i)
        ref = [-1] * n
        while -1 in ref:
            lam = {
                i: len([j for j in ST[i] if ref[j] == -1])
                + 2 * len([j for j in ST[i] if ref[j] == 0])
                for i in range(n) if ref[i] == -1
            }
            best = max(lam.values())
            i = min(k for k, v in lam.items() if v == best)
            ref[i] = 1
            for j in ST[i]:
                if ref[j] == -1:
                    ref[j] = 0
        assert list(labels) == ref
        assert list(labels) == [0, 1, 0, 1, 0, 1, 0]


def square_fracture():
    return geo.Fracture(id=0, vertices=np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float))


def partition_is_valid(mesh, part):
    """Surjective, and every coarse cell edge-connected off the traces."""
    part = np.asarray(part.cell_to_coarse if hasattr(part, "cell_to_coarse")
                      else part, int)
    assert (part >= 0).all()
    assert set(part) == set(range(part.max() + 1))
    adj = [[] for _ in range(mesh.n_cells)]
    ec = mesh.edge_cells
    for e in range(mesh.n_edges):
        c0, c1 = ec[e]
        if c0 >= 0 and c1 >= 0 and mesh.edge_trace[e] < 0:
            adj[c0].append(c1)
            adj[c1].append(c0)
    for g in range(part.max() + 1):
        members = set(np.where(part == g)[0])
        seed = min(members)
        seen = {seed}
        stack = [seed]
        while stack:
            c = stack.pop()
            for nb in adj[c]:
                if nb in members and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        assert seen == members, f"coarse cell {g} not edge-connected"
    return True


class TestAgglomerate:
    def test_identity_at_depth_zero(self):
        frac = square_fracture()
        mesh = msh.triangulate(frac.local_polygon, h_target=0.3, frame=frac.frame)
        coarse, part = coa.agglomerate(mesh, c_depth=0)
        assert coarse.n_cells == mesh.n_cells
        assert np.array_equal(part.cell_to_coarse, np.arange(mesh.n_cells))

    def test_monotone_decrease_and_validity(self):
        frac = square_fracture()
        mesh = msh.triangulate(frac.local_polygon, h_target=0.12, frame=frac.frame)
        counts = [mesh.n_cells]
        for depth in (1, 3, 5):
            coarse, part = coa.agglomerate(mesh, c_depth=depth)
            counts.append(coarse.n_cells)
            partition_is_valid(mesh, part)
            assert abs(coarse.cell_areas.sum() - mesh.cell_areas.sum()) < 1e-12
        assert counts[0] > counts[1] > counts[2] > counts[3] >= 1

    def test_deterministic(self):
        frac = square_fracture()
        mesh = msh.triangulate(frac.local_polygon, h_target=0.2, frame=frac.frame)
        _, p1 = coa.agglomerate(mesh, c_depth=2)
        _, p2 = coa.agglomerate(mesh, c_depth=2)
        assert np.array_equal(p1.cell_to_coarse, p2.cell_to_coarse)

    def test_anisotropic_cells_align_with_strong_axis(self):
        # Four quadrants with alternating diag(1,100) / diag(100,1).
        frac = square_fracture()
        mesh = msh.triangulate(frac.local_polygon, h_target=0.05, frame=frac.frame)

        def lam(centroids):
            out = np.empty((len(centroids), 2, 2))
            for i, (x, y) in enumerate(centroids):
                top = y > 0.5
                left = x <= 0.5
                if (left and top) or (not left and not top):
                    out[i] = np.diag([1.0, 100.0])
                else:
                    out[i] = np.diag([100.0, 1.0])
            return out

        coarse, part = coa.agglomerate(mesh, c_depth=3, lam=lam)
        members = partition_members(part)
        aligns = []
        for g, mem in enumerate(members):
            if len(mem) < 4:
                continue
            pts = mesh.cell_centroids[mem]
            c = pts.mean(axis=0)
            if min(abs(c[0] - 0.5), abs(c[1] - 0.5)) < 0.07:
                continue  # skip cells straddling the permeability jump
            cov = np.cov((pts - c).T)
            w, v = np.linalg.eigh(cov)
            principal = v[:, -1]
            strong = np.array([0.0, 1.0]) if lam(c[None])[0][1, 1] > 50 \
                else np.array([1.0, 0.0])
            aligns.append(abs(principal @ strong))
        assert len(aligns) > 5
        assert np.mean(aligns) > 0.7

    def test_trace_separation_and_tip_rule(self):
        frac = square_fracture()
        mesh = msh.triangulate(frac.local_polygon, [(0, [0, 0.5], [0.6, 0.5])],
                               h_target=0.12, frame=frac.frame)
        tip = frac.frame.to_local(np.array([0.6, 0.5, 0.0]))
        coarse, part = coa.agglomerate(mesh, tips_local=[tip], c_depth=2)
        cmap = part.cell_to_coarse
        partition_is_valid(mesh, part)
        # Trace separation: the two cells flanking each trace edge end in
        # different coarse cells.
        ec = mesh.edge_cells
        for e in np.where(mesh.edge_trace == 0)[0]:
            c0, c1 = ec[e]
            if c0 >= 0 and c1 >= 0:
                assert cmap[c0] != cmap[c1]
        # Tip rule: flanking tip cells stay in distinct coarse cells.
        tip_cells = coa._tip_cells(mesh, [tip])
        assert len(tip_cells) >= 2
        assert len({cmap[c] for c in tip_cells}) == len(tip_cells)
        assert abs(coarse.cell_areas.sum() - mesh.cell_areas.sum()) < 1e-12



class TestAgglomerateNetwork:
    def test_tips_permeability_and_frame(self, monkeypatch):
        # One trace, boundary-to-interior in each fracture: fracture 0
        # holds its immersed tip at x = 0.6, fracture 1 at x = 0.
        k = np.array([[2.0, 0.5], [0.5, 1.0]])
        f0 = geo.Fracture(id=0, vertices=square_fracture().vertices,
                          aperture=0.5, k_tangential=k)
        f1 = geo.Fracture(id=1, vertices=np.array(
            [[-0.2, 0.5, -1], [0.6, 0.5, -1], [0.6, 0.5, 1], [-0.2, 0.5, 1]],
            float))
        net = geo.build_network([f0, f1])
        meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), 0.2)
                  for f in net.fractures}
        calls = []
        real = coa.agglomerate

        def spy(mesh, **kw):
            calls.append(kw)
            return real(mesh, **kw)

        monkeypatch.setattr(coa, "agglomerate", spy)
        out = coa.agglomerate_network(net, meshes, c_depth=2, eps_str=0.3)
        assert [kw["eps_str"] for kw in calls] == [0.3, 0.3]
        assert np.array_equal(calls[0]["lam"], 0.5 * k)
        assert np.array_equal(calls[1]["lam"], np.eye(2))
        tips = {0: [0.6, 0.5, 0.0], 1: [0.0, 0.5, 0.0]}
        for fid, kw in enumerate(calls):
            frac = net.fracture(fid)
            assert np.allclose(kw["tips_local"],
                               [frac.frame.to_local(np.array(tips[fid]))])
            coarse, part = out[fid]
            assert coarse.frame is frac.frame
            assert coarse.n_cells < meshes[fid].n_cells
            partition_is_valid(meshes[fid], part)


@pytest.mark.parametrize("seed", range(50))
def test_randomized_triangulations_properties(seed):
    """Partition validity, trace separation, tip rule, area conservation."""
    rng = np.random.default_rng(1000 + seed)
    frac = square_fracture()
    # Random interior-or-crossing trace segment.
    y = rng.uniform(0.25, 0.75)
    x0 = rng.uniform(0.0, 0.3)
    x1 = rng.uniform(0.55, 1.0)
    p0 = np.array([x0, y, 0.0])
    p1 = np.array([x1, y, 0.0])
    mesh = msh.triangulate(frac.local_polygon, [(0, p0[:2], p1[:2])],
                           h_target=float(rng.uniform(0.15, 0.3)),
                           frame=frac.frame, seed=int(rng.integers(1, 1e6)))
    tips = [frac.frame.to_local(p) for p in (p0, p1)
            if 0.0 < p[0] < 1.0]
    depth = int(rng.integers(1, 3))
    coarse, part = coa.agglomerate(mesh, tips_local=tips, c_depth=depth)
    cmap = part.cell_to_coarse
    partition_is_valid(mesh, part)
    assert abs(coarse.cell_areas.sum() - mesh.cell_areas.sum()) < 1e-12
    ec = mesh.edge_cells
    for e in np.where(mesh.edge_trace == 0)[0]:
        c0, c1 = ec[e]
        if c0 >= 0 and c1 >= 0:
            assert cmap[c0] != cmap[c1]
    tip_cells = coa._tip_cells(mesh, tips)
    assert len({cmap[c] for c in tip_cells}) == len(tip_cells)


ANISOTROPIC = np.array([[3.0, 0.7], [0.7, 0.4]])


class TestBatchedAgainstReference:
    @pytest.mark.parametrize("name", ORACLE_MESHES)
    @pytest.mark.parametrize("lam", ["eye", "anisotropic"])
    def test_tpfa_entries(self, name, lam):
        mesh = oracle_meshes()[name]
        lam = np.eye(2) if lam == "eye" else ANISOTROPIC
        got = coa.tpfa_matrix(mesh, lam).A
        ref = tpfa_matrix_ref(mesh, lam)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(ref, field))

    @pytest.mark.parametrize("name", ORACLE_MESHES)
    def test_strong_sets(self, name):
        A = tpfa_matrix_ref(oracle_meshes()[name], ANISOTROPIC)
        for eps in (0.25, 0.6, 0.95):
            ref = [tuple(sorted(row)) for row in strong_sets_ref(A, eps)]
            assert strong_rows(A, coa.StrengthMatrix(A=A).strong_sets(eps)) == ref

    def test_strong_sets_of_empty_and_positive_rows(self):
        A = sparse.csr_matrix(np.array([[0, 0, 0], [1.0, 2, -3], [0, -1, 0]]))
        strong = coa.StrengthMatrix(A=A).strong_sets(0.5)
        assert strong_rows(A, strong) == [(), (2,), (1,)]

    @staticmethod
    def check_partitions(network, meshes, c_depth):
        got = coa.agglomerate_network(network, meshes, c_depth)
        for fid, mesh in meshes.items():
            frac = network.fracture(fid)
            tips = [frac.frame.to_local(p)
                    for ln in network.traces_of(fid) for p in (ln.p0, ln.p1)
                    if boundary_distance_ref(frac, p) > 100 * frac.tol]
            coarse_ref, total_ref = agglomerate_ref(
                mesh, tips, c_depth, lam=frac.effective_permeability)
            coarse, part = got[fid]
            assert np.array_equal(part.cell_to_coarse, total_ref)
            assert np.array_equal(coarse.edge_nodes, coarse_ref.edge_nodes)
            assert np.array_equal(coarse.nodes, coarse_ref.nodes)
            assert np.array_equal(coarse.chained, coarse_ref.chained)
            assert np.array_equal(coarse.cell_areas, coarse_ref.cell_areas)
            assert np.array_equal(coarse.cell_centroids,
                                  coarse_ref.cell_centroids)
            for name in ("cell_ptr", "cell_edge", "cell_sign"):
                assert np.array_equal(getattr(coarse, name),
                                      getattr(coarse_ref, name))

    def test_partition_two_fractures_coarse2(self):
        case = cases.get_case("two-fractures")
        self.check_partitions(case.network(), case.meshes("triangular", 1), 2)

    def test_partition_imported_network(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(import_network_dict()))
        net = geo.load_network(path)[0]
        meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), 0.22)
                  for f in net.fractures}
        self.check_partitions(net, meshes, 2)

    def test_no_per_cell_geometry(self, monkeypatch):
        frac = square_fracture()
        mesh = msh.triangulate(frac.local_polygon, [(0, [0, 0.5], [0.6, 0.5])],
                               h_target=0.1, frame=frac.frame)

        def forbidden(*args, **kwargs):
            raise AssertionError("per-cell geometry call")

        monkeypatch.setattr(geo, "polygon_area", forbidden)
        monkeypatch.setattr(msh, "polygon_area", forbidden)
        coarse, _ = coa.agglomerate(mesh, tips_local=[[0.6, 0.5]], c_depth=2)
        assert coarse.n_cells < mesh.n_cells

    def test_strong_sets_once_per_sweep(self, monkeypatch):
        frac = square_fracture()
        mesh = msh.triangulate(frac.local_polygon, h_target=0.1, frame=frac.frame)
        calls = []
        real = coa.StrengthMatrix.strong_sets

        def spy(self, eps_str):
            calls.append(eps_str)
            return real(self, eps_str)

        monkeypatch.setattr(coa.StrengthMatrix, "strong_sets", spy)
        coa.agglomerate(mesh, c_depth=3)
        # Only the C/F split reads the strong couplings.
        assert len(calls) == 3


# Coarse cells as (tail, head) node pairs, one list per cell.
CRAFTED_CELLS = {
    "loop": [(2, 3), (0, 1), (3, 0), (1, 2)],
    "pinched": [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],
    "two-loops": [(0, 1), (5, 6), (1, 2), (6, 7), (2, 0), (7, 5)],
    "open": [(0, 1), (1, 2), (2, 3)],
    "single": [(4, 7)],
    "empty": [],
    "tail-into-loop": [(2, 0), (0, 1), (1, 0)],
    "loop-then-tail": [(0, 1), (1, 0), (2, 0)],
    "self-loop": [(3, 3)],
    "long-loop": [(k, (k + 1) % 11) for k in (4, 9, 0, 7, 2, 10, 5, 1, 8, 3, 6)],
}


def crafted_layout(names, seed=0):
    """Edge nodes, edge ids, signs and cell bounds of the named crafted
    cells, each edge stored in a random direction with the matching sign."""
    rng = np.random.default_rng(seed)
    edge_nodes, edges, signs, bounds = [], [], [], [0]
    for name in names:
        for tail, head in CRAFTED_CELLS[name]:
            forward = bool(rng.integers(2))
            edges.append(len(edge_nodes))
            edge_nodes.append((tail, head) if forward else (head, tail))
            signs.append(1 if forward else -1)
        bounds.append(len(edges))
    return (np.array(edge_nodes, int).reshape(-1, 2), np.array(edges, int),
            np.array(signs, np.int8), np.array(bounds))


class TestChainLoops:
    EXPECTED = {"loop": True, "pinched": False, "two-loops": False,
                "open": False, "single": False, "empty": False,
                "tail-into-loop": False, "loop-then-tail": False,
                "self-loop": True, "long-loop": True}

    @staticmethod
    def check(names, seed):
        edge_nodes, edges, signs, bounds = crafted_layout(names, seed)
        order, chained = coa._chain_loops(edge_nodes, edges, signs, bounds)
        for k, name in enumerate(names):
            a, b = bounds[k], bounds[k + 1]
            loop = chain_loop_ref(edge_nodes, edges[a:b], signs[a:b])
            assert chained[k] == (loop is not None) == TestChainLoops.EXPECTED[name]
            ref = np.arange(a, b) if loop is None else a + loop
            assert np.array_equal(order[a:b], ref), name

    @pytest.mark.parametrize("name", sorted(CRAFTED_CELLS))
    def test_one_cell(self, name):
        self.check([name], seed=1)

    @pytest.mark.parametrize("seed", range(4))
    def test_all_cells_at_once(self, seed):
        names = list(np.random.default_rng(seed).permutation(
            sorted(CRAFTED_CELLS)))
        self.check(names + names[::-1], seed)

    def test_no_cells(self):
        order, chained = coa._chain_loops(np.zeros((0, 2), int),
                                          np.zeros(0, int),
                                          np.zeros(0, np.int8), np.zeros(1, int))
        assert len(order) == 0 and len(chained) == 0

    def test_agglomerate_with_an_unchained_cell(self):
        # The triangulation behind oracle_meshes' agglomerates: at depth 4
        # one coarse cell's edges do not chain into a single loop.
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
        y = np.random.default_rng(9).uniform(0.3, 0.7)
        tips = [[0.2, y], [0.7, y], [0.5, 0.1], [0.5, 0.35]]
        tri = msh.triangulate(square, [(0, tips[0], tips[1]), (1, *tips[2:])],
                              h_target=0.08, seed=9)
        coarse, part = coa.agglomerate(tri, tips_local=tips, c_depth=4)
        coarse_ref, total_ref = agglomerate_ref(tri, tips, 4)
        assert not coarse.chained.all()
        assert np.array_equal(part.cell_to_coarse, total_ref)
        assert np.array_equal(coarse.chained, coarse_ref.chained)
        assert np.array_equal(coarse.cell_edge, coarse_ref.cell_edge)
        assert np.array_equal(coarse.cell_sign, coarse_ref.cell_sign)


def random_strength(seed, n):
    """A seeded sparse matrix with mostly negative off-diagonal couplings,
    some positive ones, a few empty rows and a few all-positive rows."""
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    for i in range(n):
        for j in rng.choice(n, size=rng.integers(1, 6), replace=False):
            if j != i:
                A[i, j] = -rng.choice([1.0, 2.0, rng.uniform(0.1, 3.0)])
    A = np.where(rng.random((n, n)) < 0.5, A, A.T)   # partly symmetric
    A[rng.random((n, n)) < 0.02] = 0.7
    A[np.arange(n), np.arange(n)] = -A.sum(axis=1) + 1.0
    empty = rng.choice(n, size=3, replace=False)
    A[empty] = 0.0
    positive = rng.choice(n, size=3, replace=False)
    A[positive] = np.abs(A[positive])
    return sparse.csr_matrix(A)


class TestSplitAndAttachAgainstSequential:
    @pytest.mark.parametrize("seed", range(12))
    def test_cf_split(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 120))
        A = random_strength(seed, n)
        eps = float(rng.choice([0.1, 0.25, 0.5, 0.9]))
        premark = rng.choice(n, size=int(rng.integers(0, 5)), replace=False)
        got = coa.cf_split(coa.StrengthMatrix(A=A), eps, premark_c=premark)
        ref = cf_split_sets_ref(RefStrength(A=A), eps, premark_c=premark)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("seed", range(12))
    def test_attach_fine(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(5, 120))
        A = random_strength(seed, n)
        strength = coa.StrengthMatrix(A=A)
        # Labels of the C/F split, or random ones that leave F cells
        # without any C neighbour.
        labels = (coa.cf_split(strength) if seed % 2
                  else rng.integers(0, 2, n))
        # Random trace sides; some C seeds get both sides of one trace.
        sides = {}
        for c in rng.choice(n, size=n // 3, replace=False).tolist():
            sides[c] = {(int(rng.integers(3)), int(rng.choice([-1, 1])))
                        for _ in range(rng.integers(1, 4))}
        got = coa._attach_fine(strength, labels, sides)
        # The reference ranks strong couplings first; at any threshold
        # they are the most negative ones, which the attachment ranks first.
        eps = float(rng.choice([0.1, 0.25, 0.9]))
        ref = attach_fine_ref(RefStrength(A=A), strong_sets_ref(A, eps),
                              labels, sides)
        assert np.array_equal(got, ref)

    @staticmethod
    def attach(A, labels, sides):
        A = sparse.csr_matrix(np.asarray(A, float))
        strength = coa.StrengthMatrix(A=A)
        labels = np.asarray(labels)
        got = coa._attach_fine(strength, labels, sides)
        ref = attach_fine_ref(RefStrength(A=A), strong_sets_ref(A, 0.25),
                              labels, sides)
        assert np.array_equal(got, ref)
        return got.tolist()

    def test_strongest_neighbour_across_a_trace(self):
        # F cell 1 lies on side -1 of trace 0; its strongest C neighbour 0
        # holds side +1, so it joins the weaker neighbour 2.
        A = [[3, -2, 0], [-2, 3, -1], [0, -1, 3]]
        part = self.attach(A, [1, 0, 1], {0: {(0, 1)}, 1: {(0, -1)}})
        assert part == [0, 1, 1]

    def test_seed_holding_both_sides_of_a_trace(self):
        # C seed 0 owns both sides of trace 0: F cell 1 (no sides) skips it
        # for neighbour 2, F cell 3 (sides of trace 1) cannot join it.
        A = [[4, -3, 0, -2], [-3, 4, -1, 0], [0, -1, 2, 0], [-2, 0, 0, 2]]
        part = self.attach(A, [1, 0, 1, 0],
                           {0: {(0, 1), (0, -1)}, 3: {(1, 1)}})
        assert part == [0, 1, 1, 2]

    def test_fine_cell_without_admissible_neighbour(self):
        # F cell 2 couples only to F cell 1 and positively to C cell 0.
        A = [[2, -1, 0.5], [-1, 2, -1], [0.5, -1, 2]]
        part = self.attach(A, [1, 0, 0], {})
        assert part == [0, 0, 1]


@st.composite
def tpfa_like(draw):
    """A TPFA-like matrix on an ``r`` by ``c`` grid of cells: symmetric,
    with negative couplings of a few weights, so that weights and
    strengths tie and a coupling can be strong for one of its cells only.
    Some couplings are missing, some cells have no entry at all, and
    some are premarked."""
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    n = r * c
    cell = st.integers(0, n - 1)
    weight = st.sampled_from([0.0, 0.1, 0.3, 1.0, 1.0, 3.0, 10.0])
    A = np.zeros((n, n))
    for i in range(n):
        for j in ([i + 1] if (i + 1) % c else []) + [i + c]:
            if j < n:
                A[i, j] = A[j, i] = -draw(weight)
    A[np.arange(n), np.arange(n)] = 1.0 - A.sum(axis=1)
    empty = draw(st.lists(cell, max_size=3))
    A[empty, :] = 0.0
    A[:, empty] = 0.0
    premark = draw(st.lists(cell, max_size=4))
    eps = draw(st.sampled_from([0.1, 0.25, 0.5, 0.9]))
    return sparse.csr_matrix(A), premark, eps


@settings(derandomize=True, max_examples=80, deadline=None)
@given(tpfa_like())
def test_lazy_split_equals_eager_heap(case):
    A, premark, eps = case
    got = coa.cf_split(coa.StrengthMatrix(A=A), eps, premark_c=premark)
    ref = cf_split_ref(coa.StrengthMatrix(A=A), eps, premark_c=premark)
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref)


def perfbench_network(tmp_path, seed):
    path = tmp_path / f"net{seed}.json"
    write_perfbench_network(path, seed)
    return geo.load_network(path)[0]


def coarse_digest(out: dict) -> str:
    """One digest of ``agglomerate_network``'s coarse meshes and partitions."""
    h = hashlib.sha256()
    for fid in sorted(out):
        mesh, part = out[fid]
        for a in (mesh.nodes, mesh.edge_nodes, mesh.cell_ptr, mesh.cell_edge,
                  mesh.cell_sign, mesh.cell_areas, mesh.cell_centroids,
                  mesh.chained, part.cell_to_coarse):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestPinnedAgglomerates:
    """Every pick of the C/F split and every attachment shows in these
    digests; the partitions must not move."""

    @pytest.mark.parametrize("depth, level, digest", [
        (4, 5, "00927ef0a267cf873ee098051f12cca3e6a43f1f2c7f3876c422a59a2af25108"),
        (2, 3, "ba81b590cf8bf3e82e690af210e9956d008a4edf76cb136e5888754d96821db8"),
        (5, 3, "51b1f946c61a16035d34526c4983c3de971cc04d27565d8899050bcd3e6ef2db"),
    ])
    def test_intersection_flow(self, depth, level, digest):
        case = cases.get_case("intersection-flow")
        out = coa.agglomerate_network(case.network(),
                                      case.meshes("triangular", level), depth)
        assert coarse_digest(out) == digest

    def test_network_with_immersed_tips(self, tmp_path):
        net = perfbench_network(tmp_path, 2)
        meshes = {f.id: msh.triangulate_fracture(f, net.traces_of(f.id), 0.1)
                  for f in net.fractures}
        out = coa.agglomerate_network(net, meshes, 2)
        assert coarse_digest(out) == (
            "6cd13c7d3dc593d3cd274f05aebade0eb007fac32d8fc9fe61e85b18d044343b")

    @pytest.mark.parametrize("name", [n for n in ORACLE_MESHES
                                      if n.startswith("agglomerated-")])
    def test_coarse_edge_slots(self, name):
        # The slots a coarse mesh gets from its fine mesh are the ones its
        # own entries give.
        mesh = oracle_meshes()[name]
        bare = msh.PolyMesh(mesh.nodes, mesh.edge_nodes, mesh.cell_ptr,
                            mesh.cell_edge, mesh.cell_sign)
        assert np.array_equal(mesh.edge_entry, bare.edge_entry)
        assert np.array_equal(mesh.edge_cells, bare.edge_cells)


class TestTipScale:
    """Tip cells are found within 1e-9 of the mesh's extent, so a mesh and
    its tips scaled by a power of two, which scales exactly, keep their
    tip cells and their partition."""

    @staticmethod
    def fracture_zero(tmp_path, scale):
        net = perfbench_network(tmp_path, 2)
        frac = net.fracture(0)
        mesh = msh.triangulate_fracture(frac, net.traces_of(0), 0.1)
        ends = np.array([p for ln in net.traces_of(0) for p in (ln.p0, ln.p1)])
        tips = frac.frame.to_local(ends[:, None])[:, 0][
            frac.boundary_distance(ends) > 100 * frac.tol]
        return msh.PolyMesh(mesh.nodes * scale, mesh.edge_nodes, mesh.cell_ptr,
                            mesh.cell_edge, mesh.cell_sign,
                            edge_trace=mesh.edge_trace), tips * scale

    @pytest.mark.parametrize("k", [-40, -20, 20])
    def test_power_of_two_scales(self, tmp_path, k):
        unit, unit_tips = self.fracture_zero(tmp_path, 1.0)
        mesh, tips = self.fracture_zero(tmp_path, 2.0 ** k)
        want = coa._tip_cells(unit, unit_tips)
        assert len(unit_tips) == 4 and len(want) == 15
        assert coa._tip_cells(mesh, tips) == want
        _, part = coa.agglomerate(mesh, tips_local=tips, c_depth=2)
        _, unit_part = coa.agglomerate(unit, tips_local=unit_tips, c_depth=2)
        assert np.array_equal(part.cell_to_coarse, unit_part.cell_to_coarse)
