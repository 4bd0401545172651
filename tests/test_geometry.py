import numpy as np
import pytest

from swarmcoord.geometry import (
    BezierPlan,
    Ellipsoid,
    GeometryError,
    build_basis,
    derivative_plan,
    ellipsoid_gap,
    euclidean_project_ellipsoid,
    eval_bezier,
    point_surface_distance,
    scaled_distance,
    surface_distance,
)


def de_casteljau(points, tau):
    """Independent evaluation oracle: repeated linear interpolation."""
    pts = np.array(points, dtype=float)
    while len(pts) > 1:
        pts = (1.0 - tau) * pts[:-1] + tau * pts[1:]
    return pts[0]


def random_plan(rng, l=3, d=5, seg_dur=1.0):
    return BezierPlan(rng.normal(size=(l, d + 1, 3)), seg_dur)


class TestEvalBezier:
    def test_constant_curve(self):
        plan = BezierPlan(np.tile([1.0, 2.0, 3.0], (2, 6, 1)), 0.5)
        for t in [0.0, 0.3, 0.5, 0.99, 1.0]:
            assert np.allclose(eval_bezier(plan, t), [1.0, 2.0, 3.0])

    def test_endpoint_is_first_control_point(self):
        rng = np.random.default_rng(0)
        plan = random_plan(rng)
        assert np.allclose(eval_bezier(plan, 0.0), plan.control_points[0, 0])

    def test_matches_de_casteljau(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            plan = random_plan(rng, l=1, d=5)
            for tau in [0.5, rng.uniform(), rng.uniform()]:
                expected = de_casteljau(plan.control_points[0], tau)
                assert np.allclose(eval_bezier(plan, tau * plan.segment_duration),
                                   expected, atol=1e-12)

    def test_out_of_range(self):
        plan = random_plan(np.random.default_rng(2))
        with pytest.raises(GeometryError):
            eval_bezier(plan, -0.1)
        with pytest.raises(GeometryError):
            eval_bezier(plan, plan.total_duration + 0.1)


class TestBuildBasis:
    def test_constant_control_points(self):
        basis = build_basis(3, 5, 16, 0.2)
        c = np.array([0.5, -1.0, 2.0])
        w = np.tile(c, 3 * 6)
        u = basis.matrix @ w
        assert np.allclose(u.reshape(16, 3), c)

    def test_linear_bezier_interpolates(self):
        basis = build_basis(1, 1, 4, 0.25)
        a, b = np.array([0.0, 0.0, 0.0]), np.array([1.0, 2.0, -1.0])
        w = np.concatenate([a, b])
        u = (basis.matrix @ w).reshape(4, 3)
        for k, t in enumerate(basis.sample_times):
            assert np.allclose(u[k], a + t * (b - a))

    def test_matches_pointwise_eval(self):
        rng = np.random.default_rng(3)
        basis = build_basis(3, 5, 16, 0.2)
        plan = random_plan(rng, seg_dur=basis.segment_duration)
        u = basis.matrix @ plan.flatten()
        direct = np.concatenate([eval_bezier(plan, t) for t in basis.sample_times])
        assert np.max(np.abs(u - direct)) < 1e-12

    def test_partition_of_unity(self):
        basis = build_basis(3, 5, 16, 0.2)
        # each (sample, axis) row sums to 1 over its segment's weights
        row_sums = basis.matrix.sum(axis=1)
        assert np.allclose(row_sums, 1.0, atol=1e-12)

    def test_convex_hull_property(self):
        rng = np.random.default_rng(4)
        basis = build_basis(3, 5, 16, 0.2)
        plan = random_plan(rng, seg_dur=basis.segment_duration)
        u = (basis.matrix @ plan.flatten()).reshape(16, 3)
        for k, t in enumerate(basis.sample_times):
            seg = min(int(np.floor(t / basis.segment_duration)), 2)
            cp = plan.control_points[seg]
            assert np.all(u[k] >= cp.min(axis=0) - 1e-9)
            assert np.all(u[k] <= cp.max(axis=0) + 1e-9)


class TestDerivativePlan:
    def test_constant_segment_zero_derivative(self):
        plan = BezierPlan(np.tile([1.0, 1.0, 1.0], (1, 6, 1)), 2.0)
        dp = derivative_plan(plan, 1)
        assert np.allclose(dp.control_points, 0.0)

    def test_linear_segment_constant_rate(self):
        a, b = np.zeros(3), np.array([2.0, -4.0, 6.0])
        # degree-5 representation of the straight line a -> b
        cp = np.array([a + i / 5 * (b - a) for i in range(6)])[None]
        plan = BezierPlan(cp, 2.0)
        dp = derivative_plan(plan, 1)
        assert np.allclose(dp.control_points, (b - a) / 2.0)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        plan = random_plan(rng, l=1, d=5, seg_dur=1.3)
        dp = derivative_plan(plan, 1)
        h = 1e-6
        for tau in [0.2, 0.5, 0.8]:
            t = tau * plan.segment_duration
            fd = (eval_bezier(plan, t + h) - eval_bezier(plan, t - h)) / (2 * h)
            analytic = eval_bezier(dp, t)
            assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-6

    def test_second_derivative_finite_difference(self):
        rng = np.random.default_rng(6)
        plan = random_plan(rng, l=1, d=5, seg_dur=0.9)
        d2 = derivative_plan(plan, 2)
        h = 1e-4
        for tau in [0.3, 0.6]:
            t = tau * plan.segment_duration
            fd = (eval_bezier(plan, t + h) - 2 * eval_bezier(plan, t)
                  + eval_bezier(plan, t - h)) / h**2
            assert np.linalg.norm(eval_bezier(d2, t) - fd) < 1e-5 * max(1, np.linalg.norm(fd))

    def test_linearity(self):
        rng = np.random.default_rng(7)
        p1, p2 = random_plan(rng), random_plan(rng)
        a, b = 2.0, -0.7
        combo = BezierPlan(a * p1.control_points + b * p2.control_points, 1.0)
        dc = derivative_plan(combo, 1)
        expected = (a * derivative_plan(p1, 1).control_points
                    + b * derivative_plan(p2, 1).control_points)
        assert np.allclose(dc.control_points, expected)

    def test_order_exceeds_degree(self):
        cp = np.zeros((1, 3, 3))
        cp[0, :, 0] = [0.0, 0.0, 1.0]  # x(t) = t^2: second derivative 2
        plan = BezierPlan(cp, 1.0)  # degree 2
        acc = derivative_plan(plan, 2)
        assert type(acc) is BezierPlan and acc.degree == 0
        for t in (0.0, 0.4, 1.0):
            assert np.allclose(eval_bezier(acc, t), [2.0, 0.0, 0.0], atol=1e-12)
        with pytest.raises(GeometryError):
            derivative_plan(plan, 3)


class TestScaledDistance:
    def test_zero_at_equality(self):
        p = np.array([1.0, 2.0, 3.0])
        assert scaled_distance(p, p, np.eye(3)) == 0.0

    def test_euclidean_case(self):
        assert scaled_distance([3.0, 4.0, 0.0], [0.0, 0.0, 0.0], np.eye(3)) == pytest.approx(5.0)

    def test_matches_direct_expansion(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            e = rng.normal(size=(3, 3)) + 3 * np.eye(3)
            p, q = rng.normal(size=3), rng.normal(size=3)
            direct = np.sqrt(np.sum((e @ (p - q)) ** 2))
            assert abs(scaled_distance(p, q, e) - direct) < 1e-12

    def test_singular_matrix_rejected(self):
        with pytest.raises(GeometryError):
            scaled_distance([0, 0, 0], [1, 1, 1], np.zeros((3, 3)))

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(9)
        e = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        for _ in range(50):
            a, b, c = rng.normal(size=(3, 3))
            assert scaled_distance(a, b, e) == pytest.approx(scaled_distance(b, a, e))
            assert scaled_distance(a, c, e) <= (scaled_distance(a, b, e)
                                                + scaled_distance(b, c, e) + 1e-12)


class TestEuclideanProjection:
    def test_inside_returns_point(self):
        obs = Ellipsoid.axis_aligned([0, 0, 0], [2, 1, 3])
        p = np.array([0.5, 0.2, -0.4])
        assert np.allclose(euclidean_project_ellipsoid(obs, p), p)

    def test_projection_beats_sampling(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            obs = Ellipsoid.axis_aligned(rng.normal(size=3), rng.uniform(0.5, 3.0, size=3))
            p = obs.center + rng.normal(size=3) * 5
            if surface_distance(obs, p) <= 0:
                continue
            proj = euclidean_project_ellipsoid(obs, p)
            assert abs(surface_distance(obs, proj)) < 1e-6
            dirs = rng.normal(size=(20_000, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            samples = obs.center + np.linalg.solve(obs.shape_matrix, dirs.T).T
            assert (np.linalg.norm(proj - p)
                    <= np.linalg.norm(samples - p, axis=1).min() + 1e-6)

    def test_agrees_with_point_surface_distance(self):
        rng = np.random.default_rng(16)
        outside = 0
        for _ in range(200):
            rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            obs = Ellipsoid(rng.normal(size=3), np.diag(1.0 / rng.uniform(0.3, 5.0, 3)) @ rot)
            p = obs.center + rng.normal(size=3) * 4.0
            proj = euclidean_project_ellipsoid(obs, p)
            (d,), (eta,) = point_surface_distance([obs], p)
            if surface_distance(obs, p) <= 0:
                assert np.array_equal(proj, p)
                continue
            outside += 1
            assert abs(np.linalg.norm(p - proj) - d) < 1e-12
            assert np.max(np.abs(eta - (p - proj) / d)) < 1e-12
        assert outside > 100


def surface_samples(obs, count, rng):
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return obs.center + np.linalg.solve(obs.shape_matrix, dirs.T).T


class TestPointSurfaceDistance:
    ELONGATED = Ellipsoid.axis_aligned([1.0, -2.0, 0.5], [6.0, 1.0, 3.0])

    @pytest.mark.parametrize("norm", [None, np.diag([1.0, 2.0, 0.5])])
    def test_exact_outside_elongated(self, norm):
        rng = np.random.default_rng(13)
        obs = self.ELONGATED
        m = np.eye(3) if norm is None else norm
        pts = obs.center + rng.normal(size=(30, 3)) * [8.0, 2.0, 4.0]
        pts = pts[[surface_distance(obs, p) > 0.05 for p in pts]]
        d = point_surface_distance([obs], pts, norm)[0][0]
        samples = surface_samples(obs, 200_000, rng)
        for p, d_k in zip(pts, d):
            sampled = np.linalg.norm((samples - p) @ m.T, axis=1).min()
            assert d_k <= sampled + 1e-9
            assert d_k >= sampled - 0.01
            assert point_surface_distance([obs], p, norm)[0][0] == pytest.approx(d_k, abs=1e-9)
        # the radial closest point overstates the distance on this ellipsoid
        e, c = obs.shape_matrix, obs.center
        ys = (pts - c) @ e.T
        radial_pts = c + np.linalg.solve(e, (ys / np.linalg.norm(ys, axis=1, keepdims=True)).T).T
        radial = np.linalg.norm((pts - radial_pts) @ m.T, axis=1)
        assert np.max(radial - d) > 0.1

    def test_inside_never_exceeds_true_signed_distance(self):
        obs = Ellipsoid.axis_aligned([0.0, 0.0, 0.0], [4.0, 2.0, 1.0])
        # from a point on the major axis the nearest surface point lies in
        # the plane of the major and the shortest axis
        theta = np.linspace(0.0, 2.0 * np.pi, 400_001)
        ellipse = np.stack([4.0 * np.cos(theta), np.zeros_like(theta), np.sin(theta)], axis=1)
        xs = np.linspace(-3.9, 3.9, 27)
        pts = np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=1)
        d = point_surface_distance([obs], pts)[0][0]
        for p, d_k in zip(pts, d):
            true_signed = -np.linalg.norm(ellipse - p, axis=1).min()
            assert d_k <= true_signed + 1e-9

    def test_planes_bound_the_distance_everywhere(self):
        rng = np.random.default_rng(15)
        obs = Ellipsoid(np.array([0.5, 0.0, -1.0]),
                        np.diag([1 / 3.0, 1.0, 1 / 1.5]) @ np.linalg.qr(rng.normal(size=(3, 3)))[0])
        pts = obs.center + rng.normal(size=(40, 3)) * 3.0   # inside and outside
        (d,), (eta,) = point_surface_distance([obs], pts)
        queries = obs.center + rng.normal(size=(300, 3)) * 4.0
        queries = queries[[surface_distance(obs, q) > 0 for q in queries]]
        d_q = point_surface_distance([obs], queries)[0][0]   # exact there
        # the plane of each point stays below the distance of every query
        assert np.all(d_q[:, None] >= d[None, :] + np.einsum(
            "qpj,pj->qp", queries[:, None, :] - pts[None, :, :], eta) - 1e-9)
        outside = d > 0
        assert np.allclose(np.linalg.norm(eta[outside], axis=1), 1.0)

    @pytest.mark.parametrize("norm", [None, np.diag([1.0, 0.7, 1.6])])
    def test_one_call_matches_a_call_per_obstacle(self, norm):
        # The stacked Newton iteration holds each obstacle's steps once its
        # own rows converge, so every obstacle gets the bits of a call alone.
        rng = np.random.default_rng(17)
        for _ in range(50):
            obstacles = [Ellipsoid(rng.normal(size=3) * 2.0,
                                   np.diag(1.0 / rng.uniform(0.2, 3.0, 3))
                                   @ np.linalg.qr(rng.normal(size=(3, 3)))[0])
                         for _ in range(int(rng.integers(2, 5)))]
            pts = rng.normal(size=(16, 3)) * 3.0
            pts[0] = obstacles[0].center
            d, eta = point_surface_distance(obstacles, pts, norm)
            for k, obs in enumerate(obstacles):
                (d_k,), (eta_k,) = point_surface_distance([obs], pts, norm)
                assert np.array_equal(d[k], d_k) and np.array_equal(eta[k], eta_k)
        d, eta = point_surface_distance([], pts)
        assert d.shape == (0, 16) and eta.shape == (0, 16, 3)


class TestEllipsoidGap:
    def test_disjoint_spheres(self):
        a = Ellipsoid.axis_aligned([0, 0, 0], [1, 1, 1])
        b = Ellipsoid.axis_aligned([5, 0, 0], [2, 2, 2])
        assert ellipsoid_gap(a, b) == pytest.approx(2.0, abs=1e-6)

    def test_matches_dense_sampling(self):
        rng = np.random.default_rng(12)
        a = Ellipsoid.axis_aligned([0, 0, 0], [2, 1, 1.5])
        b = Ellipsoid.axis_aligned([6, 1, 0], [1.5, 2, 1])
        gap = ellipsoid_gap(a, b)
        dirs = rng.normal(size=(400, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sa = a.center + np.linalg.solve(a.shape_matrix, dirs.T).T
        sb = b.center + np.linalg.solve(b.shape_matrix, dirs.T).T
        sampled = np.min(np.linalg.norm(sa[:, None, :] - sb[None, :, :], axis=2))
        assert gap <= sampled + 1e-9
        assert abs(gap - sampled) < 0.05
