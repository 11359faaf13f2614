import numpy as np
import pytest

from dfnvem import vem
from dfnvem.errors import SingularG

RNG = np.random.default_rng(7)


def square_cell(lam=None, varsigma=1.0):
    """Unit square with outward dofs ordered bottom, right, top, left."""
    lam = np.eye(2) if lam is None else lam
    return vem.local_matrices_2d(
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
    nxt = np.roll(pts, -1, axis=0)
    cross = pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]
    area = 0.5 * cross.sum()
    centroid = ((pts + nxt) * cross[:, None]).sum(axis=0) / (6 * area)
    e = nxt - pts
    elen = np.linalg.norm(e, axis=1)
    normal = np.column_stack([e[:, 1], -e[:, 0]]) / elen[:, None]
    mid = 0.5 * (pts + nxt)
    lam = np.eye(2) if lam is None else lam
    diam = max(np.linalg.norm(pts[i] - pts[j]) for i in range(n) for j in range(n))
    return vem.local_matrices_2d(area, centroid, diam, elen, normal, mid, lam), pts


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
        with pytest.raises(SingularG):
            vem.local_matrices_2d(0.0, [0, 0], 1.0, np.ones(3),
                                  np.eye(3, 2), np.zeros((3, 2)), np.eye(2))

    def test_spectral_ratio_mesh_independent(self):
        # Stability vs consistency scales stay bounded as cells shrink.
        ratios = []
        for scale in (1.0, 0.1, 0.01):
            elem = vem.local_matrices_2d(
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
        assert np.allclose(vem.project_velocity(elem, dofs), [1, 0], atol=1e-13)

    def test_zero_fluxes(self):
        elem = square_cell()
        assert np.allclose(vem.project_velocity(elem, np.zeros(4)), 0.0)

    def test_linear_field_exact(self):
        # Fields in lam grad P1 are reproduced exactly on any polygon.
        for _ in range(5):
            elem, _ = random_polygon_cell()
            grad = RNG.normal(size=2)
            dofs = interpolate(elem, lambda x: np.broadcast_to(grad, x.shape))
            assert np.allclose(vem.project_velocity(elem, dofs), grad, atol=1e-12)

    def test_smooth_field_first_order(self):
        # Sampling an analytic solenoidal-ish field on one shrinking square.
        def field(x):
            return np.column_stack([np.sin(x[:, 1]), x[:, 0] ** 2])

        errs = []
        for scale in (0.2, 0.1, 0.05):
            elem = vem.local_matrices_2d(
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
            got = vem.project_velocity(elem, dofs)
            exact = field(elem.centroid[None])[0]
            errs.append(np.linalg.norm(got - exact))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.05 * 0.05


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
