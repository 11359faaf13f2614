import numpy as np
import pytest

from dfnvem import vem
from dfnvem.errors import SingularG
from dfnvem.assembly import _bucket_width

from _util import local_matrices_2d_ref, polygon_geometry, project_velocity_ref

RNG = np.random.default_rng(7)


def square_cell(lam=None, varsigma=1.0):
    """Unit square with outward dofs ordered bottom, right, top, left."""
    lam = np.eye(2) if lam is None else lam
    return local_matrices_2d_ref(
        area=1.0,
        centroid=[0.5, 0.5],
        diameter=np.sqrt(2.0),
        edge_len=np.ones(4),
        edge_normal=np.array([[0, -1], [1, 0], [0, 1], [-1, 0]], float),
        edge_mid=np.array([[0.5, 0], [1, 0.5], [0.5, 1], [0, 0.5]], float),
        lam=lam,
        varsigma=varsigma,
    )


def random_polygon_cell(n=None, lam=None, rng=RNG):
    """Star-shaped polygon around the origin with exact geometry."""
    n = int(rng.integers(4, 9)) if n is None else n
    ang = np.sort(rng.uniform(0, 2 * np.pi, n))
    while np.min(np.diff(ang, append=ang[0] + 2 * np.pi)) < 0.2:
        ang = np.sort(rng.uniform(0, 2 * np.pi, n))
    r = rng.uniform(0.5, 1.5, n)
    pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    lam = np.eye(2) if lam is None else lam
    return local_matrices_2d_ref(*polygon_geometry(pts), lam), pts


def interpolate(elem, field):
    """Edge dofs of a 2D field via two-point Gauss (exact for cubics)."""
    a = elem.edge_mid - 0.5 * np.column_stack(
        [elem.edge_normal[:, 1], -elem.edge_normal[:, 0]]
    ) * elem.edge_len[:, None]
    b = 2 * elem.edge_mid - a
    g = 0.5 / np.sqrt(3.0)
    q1 = elem.edge_mid + g * (b - a)
    q0 = elem.edge_mid - g * (b - a)
    vals = 0.5 * (
        np.einsum("ij,ij->i", field(q0), elem.edge_normal)
        + np.einsum("ij,ij->i", field(q1), elem.edge_normal)
    )
    return vals * elem.edge_len


class TestLocalMatrices2D:
    def test_unit_square_G(self):
        elem = square_cell()
        assert np.allclose(elem.G, 0.5 * np.eye(2), atol=1e-14)

    def test_unit_square_right_edge_f(self):
        elem = square_cell()
        assert np.allclose(elem.F[:, 1], [0.5 / np.sqrt(2), 0.0], atol=1e-14)

    def test_projector_reproduces_vspace(self):
        # D Pi restricted to interpolants of lam grad P1 is the identity:
        # Pi @ D == I exactly.
        for _ in range(10):
            lam = RNG.uniform(0.5, 2) * np.eye(2) + RNG.uniform(-0.2, 0.2) * np.array(
                [[0, 1], [1, 0]]
            )
            elem, _ = random_polygon_cell(lam=lam)
            assert np.allclose(elem.Pi @ elem.D, np.eye(2), atol=1e-12)

    def test_consistency_identity(self):
        # Stabilization annihilates interpolated projection-space modes.
        for _ in range(10):
            elem, _ = random_polygon_cell()
            c = RNG.normal(size=2)
            u = elem.D @ c
            v = RNG.normal(size=elem.n_dof)
            lhs = u @ elem.M @ v
            rhs = u @ elem.consistency() @ v
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_M_symmetric_positive_definite(self):
        for _ in range(10):
            elem, _ = random_polygon_cell()
            assert np.allclose(elem.M, elem.M.T, atol=1e-13)
            assert np.linalg.eigvalsh(elem.M).min() > 0

    def test_singular_geometry_raises(self):
        args = ([1.0, 0.0], np.zeros((2, 2)), np.ones((2, 3)),
                np.zeros((2, 3, 2)), np.zeros((2, 3, 2)), [np.eye(2)] * 2)
        with pytest.raises(SingularG, match="cell 1"):
            vem.local_matrices_2d(*args)
        with pytest.raises(SingularG, match="positive definite"):
            vem.local_matrices_2d([1.0, 1.0], *args[1:5],
                                  [np.eye(2), np.diag([1.0, -1.0])])

    @pytest.mark.parametrize("lam", [-np.eye(2), np.diag([-1.0, -2.0])])
    def test_negative_definite_tensor_raises(self, lam):
        # det > 0 alone passes these; the unit square then gets an M with
        # negative eigenvalues.
        sq = square_cell()
        with pytest.raises(SingularG, match="positive definite"):
            vem.local_matrices_2d([1.0], [sq.centroid], [sq.edge_len],
                                  [sq.edge_normal], [sq.edge_mid], [lam])

    def test_spectral_ratio_mesh_independent(self):
        # Stability vs consistency scales stay bounded as cells shrink.
        ratios = []
        for scale in (1.0, 0.1, 0.01):
            elem = local_matrices_2d_ref(
                area=scale**2, centroid=[0.5 * scale] * 2,
                diameter=np.sqrt(2) * scale,
                edge_len=np.full(4, scale),
                edge_normal=np.array([[0, -1], [1, 0], [0, 1], [-1, 0]], float),
                edge_mid=scale * np.array([[0.5, 0], [1, 0.5], [0.5, 1], [0, 0.5]]),
                lam=np.eye(2),
            )
            kc = np.linalg.norm(elem.consistency(), 2)
            ratios.append(np.linalg.eigvalsh(elem.M) / kc)
        ratios = np.array(ratios)
        assert ratios.min() > 1e-2
        assert ratios.max() < 1e2
        assert np.allclose(ratios[0], ratios[1], rtol=1e-10)


class TestProjectVelocity:
    def test_uniform_field(self):
        elem = square_cell()
        dofs = interpolate(elem, lambda x: np.broadcast_to([1.0, 0.0], x.shape))
        got = project_velocity_ref(elem, dofs)
        assert np.allclose(got, [1, 0], atol=1e-13)

    def test_zero_fluxes(self):
        elem = square_cell()
        assert np.allclose(project_velocity_ref(elem, np.zeros(4)), 0.0)

    def test_linear_field_exact(self):
        # Fields in lam grad P1 are reproduced exactly on any polygon.
        for _ in range(5):
            elem, _ = random_polygon_cell()
            grad = RNG.normal(size=2)
            dofs = interpolate(elem, lambda x: np.broadcast_to(grad, x.shape))
            got = project_velocity_ref(elem, dofs)
            assert np.allclose(got, grad, atol=1e-12)

    def test_smooth_field_first_order(self):
        # Sampling an analytic solenoidal-ish field on one shrinking square.
        def field(x):
            return np.column_stack([np.sin(x[:, 1]), x[:, 0] ** 2])

        errs = []
        for scale in (0.2, 0.1, 0.05):
            elem = local_matrices_2d_ref(
                area=scale**2, centroid=[0.5 * scale + 0.3, 0.5 * scale + 0.2],
                diameter=np.sqrt(2) * scale, edge_len=np.full(4, scale),
                edge_normal=np.array([[0, -1], [1, 0], [0, 1], [-1, 0]], float),
                edge_mid=np.array([[0.5 * scale + 0.3, 0.2],
                                   [scale + 0.3, 0.5 * scale + 0.2],
                                   [0.5 * scale + 0.3, scale + 0.2],
                                   [0.3, 0.5 * scale + 0.2]]),
                lam=np.eye(2),
            )
            dofs = interpolate(elem, field)
            got = project_velocity_ref(elem, dofs)
            exact = field(elem.centroid[None])[0]
            errs.append(np.linalg.norm(got - exact))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.05 * 0.05


def kernel_cases(count=240, seed=11):
    """Random polygons of 3-8 edges and sizes 1e-3..10, each with an SPD
    tensor of condition number 1, 1e3, 1e6 or 1e10, grouped by edge
    count as the assembly batches them: ``{d: [(geometry, lam, cond)]}``.
    """
    rng = np.random.default_rng(seed)
    groups = {}
    for i in range(count):
        n = int(rng.integers(3, 9))
        gaps = [0.0]
        # Gaps below pi keep the polygon star-shaped about the origin.
        while min(gaps) < 0.2 or max(gaps) > 0.9 * np.pi:
            ang = np.sort(rng.uniform(0, 2 * np.pi, n))
            gaps = np.diff(ang, append=ang[0] + 2 * np.pi)
        size = 10.0 ** rng.uniform(-3, 1)
        r = size * rng.uniform(0.5, 1.5, n)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        pts += size * rng.uniform(-2, 2, 2)
        cond = (1.0, 1e3, 1e6, 1e10)[i % 4]
        t = rng.uniform(0, np.pi)
        q = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        lam = (10.0 ** rng.uniform(-2, 2)) * (q * [1.0, cond]) @ q.T
        lam = 0.5 * (lam + lam.T)
        groups.setdefault(n, []).append((polygon_geometry(pts), lam, cond))
    return groups


class TestBatchedKernel:
    """The closed-form batched kernel against the scalar reference."""

    def test_matches_reference(self):
        checked = 0
        for d, cases in kernel_cases().items():
            geo = [np.array(x) for x in zip(*(g for g, _, _ in cases))]
            area, centroid, _, elen, normal, mid = geo
            lam = np.array([lam for _, lam, _ in cases])
            sig = np.array([vem.stabilization_parameter(x) for x in lam])
            M = vem.local_matrices_2d(area, centroid, elen, normal, mid,
                                      lam, sig)
            assert M.shape == (len(cases), d, d)
            for i, (g, lam_i, cond) in enumerate(cases):
                ref = local_matrices_2d_ref(*g, lam_i, sig[i]).M
                bound = 1e-14 * cond * np.abs(ref).max()
                assert np.abs(M[i] - ref).max() <= bound
                assert np.array_equal(M[i], M[i].T)
                checked += 1
        assert checked >= 200

    def test_velocity_matches_reference(self):
        rng = np.random.default_rng(5)
        for d, cases in kernel_cases().items():
            geo = [np.array(x) for x in zip(*(g for g, _, _ in cases))]
            area, centroid, _, _, _, mid = geo
            fluxes = rng.normal(size=(len(cases), d))
            got = vem.project_velocity(area, centroid, mid, fluxes)
            for i, (g, lam_i, cond) in enumerate(cases):
                ref = project_velocity_ref(local_matrices_2d_ref(*g, lam_i),
                                           fluxes[i])
                bound = 1e-14 * cond * np.abs(ref).max()
                assert np.abs(got[i] - ref).max() <= bound


class TestLocalMatrices1D:
    def test_paper_unit_values(self):
        elem = vem.local_matrices_1d(1.0, 1.0)
        assert np.allclose(elem.consistency, 0.25 * np.array([[1, -1], [-1, 1]]))
        assert np.allclose(elem.stabilization, 0.5 * np.array([[1, 1], [1, 1]]))
        assert elem.varsigma_hat == 1.0

    def test_scaled_values(self):
        elem = vem.local_matrices_1d(2.0, 4.0)
        assert np.allclose(elem.consistency, (1 / 8) * np.array([[1, -1], [-1, 1]]))
        assert elem.varsigma_hat == 0.5

    @pytest.mark.parametrize("seed", range(10))
    def test_spd_random(self, seed):
        rng = np.random.default_rng(seed)
        h = float(rng.uniform(0.01, 10.0))
        lam_hat = float(rng.uniform(0.01, 10.0))
        elem = vem.local_matrices_1d(h, lam_hat)
        ev = np.linalg.eigvalsh(elem.M)
        assert np.allclose(sorted(ev), sorted([h / (2 * lam_hat), h / lam_hat]))
        assert ev.min() > 0


class TestStabilizationParameter:
    def test_unit(self):
        assert vem.stabilization_parameter(np.eye(2)) == 1.0

    def test_heterogeneous(self):
        lam = np.stack([np.diag([4.0, 2.0]), np.diag([0.5, 1.0])])
        assert vem.stabilization_parameter(lam) == 2.0


def _padded_cells(rng, count, d):
    """``count`` random star-shaped polygons of ``d`` edges with random
    SPD tensors and stabilization parameters, as batch arguments of
    ``local_matrices_2d``, exact and padded to ``_bucket_width(d)`` with
    inert slots (zero length, midpoint at the centroid)."""
    cells = []
    for _ in range(count):
        ang = np.linspace(0, 2 * np.pi, d, endpoint=False)
        ang = ang + rng.uniform(0, 0.5, d) * 2 * np.pi / d
        r = rng.uniform(0.8, 1.2, d) * 10.0 ** rng.uniform(-2, 1)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        cells.append(polygon_geometry(pts + rng.normal(size=2)))
    area, centroid, _, elen, normal, mid = (np.array(x) for x in zip(*cells))
    X = rng.normal(size=(count, 2, 2))
    lam = X @ X.transpose(0, 2, 1) + 0.1 * np.eye(2)
    sig = rng.uniform(0.1, 10.0, count)
    pad = _bucket_width(d) - d
    padded = (area, centroid, np.pad(elen, ((0, 0), (0, pad))),
              np.pad(normal, ((0, 0), (0, pad), (0, 0))),
              np.concatenate([mid, np.repeat(centroid[:, None], pad, 1)], 1),
              lam, sig)
    return (area, centroid, elen, normal, mid, lam, sig), padded


class TestPaddedKernel:
    """The kernel on cells padded to their bucket width."""

    @pytest.mark.parametrize("d", range(3, 41))
    def test_real_entries_are_bit_identical(self, d):
        exact, padded = _padded_cells(np.random.default_rng(d), 40, d)
        alone = np.arange(40) % 3 == 0
        M = vem.local_matrices_2d(*exact, alone=alone)
        P = vem.local_matrices_2d(*padded, alone=alone)
        assert P.shape[1] == _bucket_width(d)
        assert np.ascontiguousarray(P[:, :d, :d]).tobytes() == (
            np.ascontiguousarray(M).tobytes())
        pad = P[:, d:, :]
        assert (pad[:, :, :d] == 0).all() and (P[:, :d, d:] == 0).all()
        ar = np.arange(P.shape[1] - d)
        assert (pad[:, ar, d + ar].T == exact[-1]).all()

    @pytest.mark.parametrize("d", [5, 8, 13, 40, 150])
    def test_cells_do_not_depend_on_their_batch(self, d):
        exact, _ = _padded_cells(np.random.default_rng(d), 6, d)
        alone = np.array([True, False] * 3)
        M = vem.local_matrices_2d(*exact, alone=alone)
        for i in range(6):
            one = vem.local_matrices_2d(*(a[i:i + 1] for a in exact),
                                        alone=alone[i:i + 1])
            assert M[i].tobytes() == np.ascontiguousarray(one[0]).tobytes()


@pytest.mark.parametrize("D", [3, 7, 8, 16, 40, 136, 264])
def test_edge_sums_add_as_numpy_adds_one_cell(D):
    # Where ``pairwise``, as numpy sums a one-dimensional array (and so a
    # batch of one cell); elsewhere in row order, as numpy sums the rows
    # of a batch of several cells.
    rng = np.random.default_rng(D)
    count = np.full(200, D) if D < 8 else rng.integers(1, D + 1, 200)
    x = rng.normal(size=(D, 200)) * 10.0 ** rng.uniform(-3, 3, (D, 200))
    x[np.arange(D)[:, None] >= count] = 0.0
    pairwise = rng.random(200) < 0.5
    got = vem._edge_sums(x, [(i, c) for i, c in enumerate(count.tolist())
                             if pairwise[i]])
    for i in range(200):
        col = np.ascontiguousarray(x[:count[i], i])
        want = np.add.reduce(col) if pairwise[i] else np.add.reduce(
            np.stack([col, col], axis=1), axis=0)[0]
        assert got[i] == want
