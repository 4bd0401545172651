"""Bezier trajectory parameterization, ellipsoid obstacles, and scaled-norm distances.

Flattening convention for control-point vectors: segment-major, then control
point, then axis, i.e. w = [s0p0x, s0p0y, s0p0z, s0p1x, ..., s(l-1)p(d)z].
Sampled trajectories U are time-major with axis innermost: U[3k:3k+3] is the
3-D setpoint at sample k.

Distances, and who uses them:
  scaled_distance: ||E (p - q)|| between two agents, for the inter-agent
      metrics;
  surface_distance: the scaled ||E (p - C)|| - 1 to an obstacle, for
      scenario starts (a scaled clearance bounds the Euclidean one from
      below);
  point_surface_distance: the exact signed distance to each obstacle in
      the agent norm, with a supporting plane per point, all obstacles in
      one call, for collision probes, obstacle rows, the scenario goal
      check and the obstacle metrics;
  euclidean_project_ellipsoid and ellipsoid_gap: the Euclidean projection
      onto a solid obstacle and the gap between two, for the scenario gap
      check and the benchmark's clearances.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import comb


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class BezierPlan:
    """Piecewise Bezier curve: l segments of degree d, each lasting segment_duration."""

    control_points: np.ndarray  # (l, d+1, 3)
    segment_duration: float

    def __post_init__(self):
        cp = np.asarray(self.control_points, dtype=float)
        if cp.ndim != 3 or cp.shape[2] != 3:
            raise GeometryError(f"control points must be (l, d+1, 3), got {cp.shape}")
        if cp.shape[0] < 1 or cp.shape[1] < 1:
            raise GeometryError("need l >= 1 segments of degree d >= 0")
        if not self.segment_duration > 0:
            raise GeometryError("segment_duration must be positive")
        object.__setattr__(self, "control_points", cp)

    @property
    def num_segments(self):
        return self.control_points.shape[0]

    @property
    def degree(self):
        return self.control_points.shape[1] - 1

    @property
    def total_duration(self):
        return self.num_segments * self.segment_duration

    def flatten(self) -> np.ndarray:
        """Vector w of length 3*l*(d+1) in the documented ordering."""
        return self.control_points.reshape(-1).copy()

    @classmethod
    def from_flat(cls, w, num_segments, degree, segment_duration):
        w = np.asarray(w, dtype=float)
        expected = 3 * num_segments * (degree + 1)
        if w.size != expected:
            raise GeometryError(f"flat vector has {w.size} entries, expected {expected}")
        cp = w.reshape(num_segments, degree + 1, 3)
        return cls(cp, segment_duration)


@dataclass(frozen=True)
class BezierBasis:
    """Linear map F with U = F w for the P sample times of a plan family."""

    matrix: np.ndarray       # (3P, 3l(d+1))
    sample_times: np.ndarray  # (P,)
    num_segments: int
    degree: int
    dt: float

    @property
    def horizon(self):
        return self.sample_times.size

    @property
    def segment_duration(self):
        return self.horizon * self.dt / self.num_segments


@dataclass(frozen=True)
class Ellipsoid:
    """Surface {x : ||E (x - center)||_2 = 1} for an invertible shape matrix E."""

    center: np.ndarray
    shape_matrix: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(3)
        e = np.asarray(self.shape_matrix, dtype=float).reshape(3, 3)
        if abs(np.linalg.det(e)) < 1e-12:
            raise GeometryError("ellipsoid shape matrix must be invertible")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "shape_matrix", e)

    @classmethod
    def axis_aligned(cls, center, semi_axes):
        semi = np.asarray(semi_axes, dtype=float).reshape(3)
        if np.any(semi <= 0):
            raise GeometryError("semi-axes must be positive")
        return cls(np.asarray(center, dtype=float), np.diag(1.0 / semi))

    @cached_property
    def principal_axes(self):
        """(a, V): ascending eigenvalues and orthonormal eigenvectors of EᵀE.

        The semi-axes are a ** -0.5 along the columns of V. Computed once per
        obstacle.
        """
        return np.linalg.eigh(self.shape_matrix.T @ self.shape_matrix)


def bernstein_row(degree, tau):
    """Bernstein basis values (B_{0,d}(tau), ..., B_{d,d}(tau))."""
    i = np.arange(degree + 1)
    return comb(degree, i) * tau**i * (1.0 - tau) ** (degree - i)


def _segment_and_tau(plan_duration, segment_duration, num_segments, t):
    if t < -1e-12 or t > plan_duration + 1e-12:
        raise GeometryError(f"time {t} outside [0, {plan_duration}]")
    seg = int(np.floor(t / segment_duration))
    if seg >= num_segments:  # terminal boundary belongs to the last segment
        seg = num_segments - 1
    tau = t / segment_duration - seg
    return seg, min(max(tau, 0.0), 1.0)


def eval_bezier(plan: BezierPlan, t: float) -> np.ndarray:
    """Position on the plan at absolute time t in [0, l*segment_duration]."""
    seg, tau = _segment_and_tau(plan.total_duration, plan.segment_duration,
                                plan.num_segments, t)
    weights = bernstein_row(plan.degree, tau)
    return weights @ plan.control_points[seg]


def sampling_matrix(num_segments, degree, segment_duration, times) -> np.ndarray:
    """Matrix S with S w = the plan's positions at `times`, stacked time-major.

    w is the flat control-point vector of l segments of the given degree. A
    time on a segment boundary belongs to the later segment, the terminal
    time to the last one.
    """
    n_cp = degree + 1
    weights = np.zeros((len(times), num_segments * n_cp))
    for k, t in enumerate(times):
        seg, tau = _segment_and_tau(num_segments * segment_duration, segment_duration,
                                    num_segments, t)
        weights[k, seg * n_cp:(seg + 1) * n_cp] = bernstein_row(degree, tau)
    return np.kron(weights, np.eye(3))


def build_basis(num_segments, degree, horizon, dt) -> BezierBasis:
    """Sampling matrix for times (1..P)*dt."""
    if num_segments < 1 or degree < 1 or horizon < 1 or dt <= 0:
        raise GeometryError("need l >= 1, d >= 1, P >= 1, dt > 0")
    times = dt * np.arange(1, horizon + 1)
    f = sampling_matrix(num_segments, degree, horizon * dt / num_segments, times)
    return BezierBasis(f, times, num_segments, degree, dt)


def derivative_plan(plan: BezierPlan, order: int = 1) -> BezierPlan:
    """Hodograph of the plan: control points d*(p[i+1]-p[i])/T, applied `order` times."""
    if order not in (1, 2):
        raise GeometryError("only first and second derivatives are supported")
    if order > plan.degree:
        raise GeometryError(f"cannot take order-{order} derivative of degree {plan.degree}")
    cp = plan.control_points
    for _ in range(order):
        d = cp.shape[1] - 1
        cp = d * (cp[:, 1:, :] - cp[:, :-1, :]) / plan.segment_duration
    return BezierPlan(cp, plan.segment_duration)


def scaled_distance(p, q, shape_matrix) -> float:
    """||E (p - q)||_2 for invertible E."""
    e = np.asarray(shape_matrix, dtype=float).reshape(3, 3)
    if abs(np.linalg.det(e)) < 1e-12:
        raise GeometryError("scaled distance needs an invertible matrix")
    return float(np.linalg.norm(e @ (np.asarray(p, float) - np.asarray(q, float))))


def surface_distance(obs: Ellipsoid, p) -> float:
    """Signed scaled distance to the ellipsoid surface: ||E(p-C)|| - 1 (< 0 inside)."""
    return float(np.linalg.norm(obs.shape_matrix @ (np.asarray(p, float) - obs.center)) - 1.0)


def point_surface_distance(obstacles, p, norm_matrix=None):
    """Signed distance from p to each ellipsoid of obstacles in the norm
    ||M x|| (Euclidean when norm_matrix M is None), negative inside, and a
    supporting-plane gradient.

    Returns (d, eta), obstacle-major. p is one point (d is (num obstacles,),
    eta (num obstacles, 3)) or an (n, 3) array of points (d is (num
    obstacles, n), eta (num obstacles, n, 3)). eta is such that
    d(x) >= d + eta @ (x - p) for every x, where d(x) is the true signed
    distance: the obstacle is convex, so the plane through a surface point
    with its outward normal keeps the whole obstacle on one side. Outside the
    obstacle the plane touches at the exact projection of p, so d is exact
    and eta is the gradient of the distance. Inside, the plane touches at the
    radial surface point and d is a lower bound: it overstates the
    penetration depth, which is the safe direction.
    """
    pts = np.asarray(p, dtype=float)
    single = pts.ndim == 1
    pts = pts.reshape(-1, 3)
    m = np.eye(3) if norm_matrix is None else np.asarray(norm_matrix, dtype=float).reshape(3, 3)
    if not np.array_equal(m, np.eye(3)):
        # the norm ||M x|| is Euclidean in the coordinates z = M x
        m_inv = np.linalg.inv(m)
        obstacles = [Ellipsoid(m @ obs.center, obs.shape_matrix @ m_inv) for obs in obstacles]
        pts = pts @ m.T
    surface, normal = _supporting_planes(obstacles, pts)
    d = np.sum(normal * (pts - surface), axis=2)
    eta = normal @ m
    return (d[:, 0], eta[:, 0]) if single else (d, eta)


def _supporting_planes(obstacles, pts):
    """Surface points and outward unit normals, (num obstacles, n, 3) each,
    of a supporting plane per obstacle and row of pts.

    Outside: the exact Euclidean projection, whose normal points at p; one
    Newton iteration projects the outside rows of every obstacle.
    Inside: the radial point, where the ray from the center through p meets
    the surface (the +x-axis point of the sphere frame for the center).
    """
    a = np.array([obs.principal_axes[0] for obs in obstacles]).reshape(-1, 1, 3)
    v = np.array([obs.principal_axes[1] for obs in obstacles]).reshape(-1, 3, 3)
    center = np.array([obs.center for obs in obstacles]).reshape(-1, 1, 3)
    y = (pts - center) @ v              # principal-axis frames
    r2 = np.sum(a * y**2, axis=2)
    r = np.sqrt(r2)
    x = y / np.maximum(r, 1e-12)[..., None]     # the radial points
    # the center itself maps to the +x-axis point of the sphere frame
    for k, i in zip(*np.nonzero(r <= 1e-12)):
        x[k, i] = np.linalg.solve(obstacles[k].shape_matrix, [1.0, 0.0, 0.0]) @ v[k]
    outside = r2 > 1.0
    group = np.nonzero(outside)[0]      # the obstacle of each outside row
    if group.size:
        x[outside] = _project_outside(a[group, 0], y[outside], group)
    normal = a * x
    normal /= np.linalg.norm(normal, axis=2, keepdims=True)
    v_t = v.transpose(0, 2, 1)
    return center + x @ v_t, normal @ v_t


def _project_outside(a, y, group=None):
    """Euclidean projection y / (1 + t a) of each row of y onto its ellipsoid.

    Row i is a point outside the ellipsoid sum_j a_ij y_ij^2 <= 1 in its
    principal-axis frame, a (rows, 3). The Lagrange parameter t solves the
    secular equation g(t) = sum_j a_j y_j^2 / (1 + t a_j)^2 - 1 = 0. g is
    convex and decreasing on t >= 0 and g((r - 1) / max(a)) >= 0 at the
    scaled radius r, so Newton from there rises monotonically to the root.
    The rows of one group (group[i] is row i's obstacle; all rows when
    group is None) stop together, once |g| < 1e-12 on each of them, or after
    128 steps; np.where holds a stopped group's t while the others go on,
    so every group takes the steps it would take alone.
    """
    ay2 = a * y**2
    a2y2 = a * ay2
    t = (np.sqrt(ay2.sum(axis=1)) - 1.0) / a.max(axis=1)
    for _ in range(128):
        inv = 1.0 / (1.0 + t[:, None] * a)
        inv2 = inv * inv
        g = (ay2 * inv2).sum(axis=1) - 1.0
        settled = np.abs(g) < 1e-12
        if settled.all():
            break
        step = t + g / (2.0 * (a2y2 * inv2 * inv).sum(axis=1))
        t = step if group is None else np.where(np.bincount(group, ~settled)[group] > 0, step, t)
    return y / (1.0 + t[:, None] * a)


def euclidean_project_ellipsoid(obs: Ellipsoid, p) -> np.ndarray:
    """Euclidean projection of p onto the solid ellipsoid.

    Returns p itself when sum_i a_i y_i^2 <= 1 + 1e-12 in the principal-axis
    frame of EᵀE (a_i its eigenvalues, y the coordinates of p - center),
    otherwise the touching point of point_surface_distance's plane at p.
    """
    p = np.asarray(p, dtype=float)
    a, v = obs.principal_axes
    y = v.T @ (p - obs.center)
    if float(np.sum(a * y**2)) <= 1.0 + 1e-12:
        return p.copy()
    # the outside branch of _supporting_planes, without its per-call
    # overhead: the scenario gap check projects several hundred times
    return obs.center + v @ _project_outside(a[None], y[None])[0]


def ellipsoid_gap(a: Ellipsoid, b: Ellipsoid) -> float:
    """Euclidean distance between two disjoint ellipsoid surfaces.

    Alternating exact projections onto the two solid (convex) bodies; returns
    0.0 when they intersect. Stops once the distance changes by less than
    1e-9, or after 256 rounds.
    """
    x = b.center.copy()
    prev = np.inf
    for _ in range(256):
        xa = euclidean_project_ellipsoid(a, x)
        xb = euclidean_project_ellipsoid(b, xa)
        d = float(np.linalg.norm(xa - xb))
        if np.allclose(xa, xb, atol=1e-12):
            return 0.0
        if abs(prev - d) < 1e-9:
            return d
        prev = d
        x = xb
    return prev
