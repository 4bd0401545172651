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
      one call (in a non-Euclidean norm, on each obstacle's in_norm frame,
      built once), for collision probes, obstacle rows, the scenario goal
      check and the obstacle metrics;
  distance_lower_bound: (min ||E (p - C)|| - 1) / sigma_max(E M⁻¹) per
      obstacle, a certified lower bound on the agent-norm distance from a
      set of points (the triangle inequality in the frame where the norm
      ||M x|| is Euclidean), for the collision probe to skip the obstacles
      that a plan cannot come near;
  ellipsoid_gap: the Euclidean gap between two solid obstacles, certified
      to 1e-12 by its support-function dual, for the scenario gap check;
  euclidean_project_ellipsoid: the Euclidean projection onto a solid
      obstacle, for the benchmark's clearances and the tests.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import comb


class GeometryError(ValueError):
    pass


_IDENTITY = np.eye(3)
_IDENTITY.flags.writeable = False
_IDENTITY_BYTES = _IDENTITY.tobytes()


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

    def in_norm(self, norm_matrix):
        """This obstacle in the coordinates z = M x, where the norm ||M x|| is
        Euclidean: center M c, shape matrix E M⁻¹. Built once per norm matrix
        and kept, with its principal axes, for the obstacle's life."""
        key = norm_matrix.tobytes()
        scaled = self._in_norm.get(key)
        if scaled is None:
            scaled = self._in_norm[key] = Ellipsoid(
                norm_matrix @ self.center, self.shape_matrix @ np.linalg.inv(norm_matrix))
        return scaled

    @cached_property
    def _in_norm(self):
        return {}


def bernstein_row(degree, tau):
    """Bernstein basis values (B_{0,d}(tau), ..., B_{d,d}(tau))."""
    i = np.arange(degree + 1)
    return _binomials(degree) * tau**i * (1.0 - tau) ** (degree - i)


@lru_cache(maxsize=None)
def _binomials(degree):
    """comb(degree, i) for i = 0..degree, read-only: scipy's comb costs about
    15 us a call, and eval_bezier runs once per plan."""
    out = comb(degree, np.arange(degree + 1))
    out.flags.writeable = False
    return out


def _segment_and_tau(plan_duration, segment_duration, num_segments, t):
    if t < -1e-12 or t > plan_duration + 1e-12:
        raise GeometryError(f"time {t} outside [0, {plan_duration}]")
    seg = math.floor(t / segment_duration)
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
    obstacles, n), eta (num obstacles, n, 3)); no obstacles give empty
    arrays of those shapes without a projection. eta is such that
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
    if len(obstacles) == 0:
        d, eta = np.empty((0, len(pts))), np.empty((0, len(pts), 3))
        return (d[:, 0], eta[:, 0]) if single else (d, eta)
    m = _norm_matrix(norm_matrix)
    if m is not _IDENTITY:
        # the norm ||M x|| is Euclidean in the coordinates z = M x
        obstacles = [obs.in_norm(m) for obs in obstacles]
        pts = pts @ m.T
    surface, normal = _supporting_planes(obstacles, pts)
    d = np.add.reduce(normal * (pts - surface), axis=2)
    eta = normal @ m
    return (d[:, 0], eta[:, 0]) if single else (d, eta)


def distance_lower_bound(obstacles, p, norm_matrix=None):
    """Per obstacle, (min over rows x of p of ||E (x - c)|| - 1) / sigma_max(E M⁻¹):
    a lower bound on the distance ||M (x - z)|| from every x to every z in
    the solid obstacle, negative when some x lies inside, exact for a sphere
    in the Euclidean norm. It holds because E (x - c) = E M⁻¹ M (x - z) +
    E (z - c) with ||E (z - c)|| <= 1. sigma_max comes from the principal
    axes of the in_norm obstacle, computed once.
    """
    pts = np.asarray(p, dtype=float).reshape(-1, 3)
    m = _norm_matrix(norm_matrix)
    bounds = np.empty(len(obstacles))
    for i, obs in enumerate(obstacles):
        y = (pts - obs.center) @ obs.shape_matrix.T
        frame = obs if m is _IDENTITY else obs.in_norm(m)
        sigma_max = math.sqrt(frame.principal_axes[0][-1])
        r2 = min(np.add.reduce(y * y, axis=1).tolist(), default=math.inf)  # inf for no rows
        bounds[i] = (math.sqrt(r2) - 1.0) / sigma_max
    return bounds


def _norm_matrix(norm_matrix):
    """M as a (3, 3) float array; the read-only _IDENTITY itself for the
    Euclidean norm (None or an identity matrix)."""
    if norm_matrix is None:
        return _IDENTITY
    m = np.asarray(norm_matrix, dtype=float).reshape(3, 3)
    # comparing bytes is the fast test; -0.0 entries take the value test
    if m.tobytes() == _IDENTITY_BYTES or not (m != _IDENTITY).any():
        return _IDENTITY
    return m


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
    r2 = np.add.reduce(a * y**2, axis=2)
    r = np.sqrt(r2)
    x = y / np.maximum(r, 1e-12)[..., None]     # the radial points
    # the center itself maps to the +x-axis point of the sphere frame
    for k, i in zip(*(r <= 1e-12).nonzero()):
        x[k, i] = np.linalg.solve(obstacles[k].shape_matrix, [1.0, 0.0, 0.0]) @ v[k]
    outside = r2 > 1.0
    group = outside.nonzero()[0]        # the obstacle of each outside row
    if group.size:
        # one obstacle is one group: its rows stop together without bincount
        x[outside] = _project_outside(a[group, 0], y[outside],
                                      group if len(obstacles) > 1 else None)
    normal = a * x
    normal /= np.sqrt(np.add.reduce(normal * normal, axis=2, keepdims=True))
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
    t = (np.sqrt(np.add.reduce(ay2, axis=1)) - 1.0) / np.maximum.reduce(a, axis=1)
    for _ in range(128):
        inv = 1.0 / (1.0 + t[:, None] * a)
        inv2 = inv * inv
        g = np.add.reduce(ay2 * inv2, axis=1) - 1.0
        settled = np.abs(g) < 1e-12
        if settled.all():
            break
        step = t + g / (2.0 * np.add.reduce(a2y2 * inv2 * inv, axis=1))
        if group is None or not settled.any():
            t = step    # no row has settled, so no group has
        else:
            t = np.where(np.bincount(group, ~settled)[group] > 0, step, t)
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
    return obs.center + v @ _project_outside(a[None], y[None])[0]


GAP_TOL = 1e-12      # relative agreement of the primal witness and the dual value
GAP_STEPS = 64       # Newton steps of the ascent, and of the overlap test
GAP_HALVINGS = 40    # backtracking halvings of one ascent step


def ellipsoid_gap(a: Ellipsoid, b: Ellipsoid) -> float:
    """Euclidean distance between two solid ellipsoids, 0.0 when they share a point.

    The support-function dual (Lin & Han, SIAM J. Optim. 2002): for unit n,
        f(n) = n·(c_b - c_a) - ||E_a⁻ᵀ n|| - ||E_b⁻ᵀ n||
    is the width of the slab with normal n between the bodies, so the gap d
    is at least max(f(n), 0). f is concave and 1-homogeneous, and its
    gradient g = x_b - x_a joins the support points x_a = c_a + S_a n / r_a
    of a and x_b = c_b - S_b n / r_b of b (S = E⁻¹E⁻ᵀ, r = sqrt(nᵀS n)), so
    ||g|| >= d is a primal witness. Newton on the unit sphere from the
    direction c_b - c_a maximises f; a Levenberg shift keeps the tangent
    Hessian at or below minus the tangent gradient's norm (so no step turns
    n by more than 45 degrees), and backtracking keeps every step an ascent.
    It returns max(f, 0), which is never above d, once
    ||g|| - max(f, 0) <= GAP_TOL * max(1, d).

    The ascent gives up at a maximum of f on the sphere where f < 0, or when
    no step along its direction rises. _shares_a_point must then prove that
    the solids overlap, and the gap is exactly 0.0; if neither certificate
    holds within GAP_STEPS steps, GeometryError is raised.
    """
    delta = b.center - a.center
    length = float(np.linalg.norm(delta))
    if length == 0.0:
        return 0.0      # the common center lies in both
    gram_a, gram_b = _support_gram(a), _support_gram(b)

    def slab(n):
        """f(n), g(n) and the two support offsets with their radii."""
        sa, sb = gram_a @ n, gram_b @ n
        ra, rb = np.sqrt(n @ sa), np.sqrt(n @ sb)
        return n @ delta - ra - rb, delta - sa / ra - sb / rb, sa / ra, ra, sb / rb, rb

    n = delta / length
    f, g, ua, ra, ub, rb = slab(n)
    for _ in range(GAP_STEPS):
        witness, dual = np.sqrt(g @ g), max(f, 0.0)
        if witness - dual <= GAP_TOL * max(1.0, dual):
            return dual
        # Newton in an orthonormal basis t of the tangent plane at n: the
        # sphere's Hessian of f is tᵀ∇²f t - f I, with ∇²r = (S - u uᵀ) / r
        t = _tangent_basis(n)
        hess = (np.outer(ua, ua) - gram_a) / ra + (np.outer(ub, ub) - gram_b) / rb
        (p, q), (_, r) = t.T @ hess @ t
        p, r = p - f, r - f
        grad = t.T @ g
        top = 0.5 * (p + r) + np.hypot(0.5 * (p - r), q)
        shift = max(0.0, top + np.sqrt(grad @ grad))
        p, r = shift - p, shift - r        # shift I - h = [[p, -q], [-q, r]] > 0
        step = np.array([r * grad[0] + q * grad[1], q * grad[0] + p * grad[1]]) / (p * r - q * q)
        rise = float(grad @ step)          # the step's first-order ascent
        if f < 0.0 and rise <= GAP_TOL * max(1.0, -f):
            break       # n is a maximum of f on the sphere, and f < 0 there
        for halving in range(GAP_HALVINGS):
            alpha = 0.5**halving
            trial = n + alpha * (t @ step)
            trial /= np.sqrt(trial @ trial)
            support = slab(trial)
            if support[0] >= f + 1e-4 * alpha * rise:
                break
        else:
            break       # no rise along the step
        n, (f, g, ua, ra, ub, rb) = trial, support
    if _shares_a_point(a, b, delta):
        return 0.0
    raise GeometryError(f"ellipsoid gap not certified: f = {f:.3g}, "
                        f"witness {np.sqrt(g @ g):.3g} after the ascent")


def _support_gram(obs: Ellipsoid) -> np.ndarray:
    """S = E⁻¹E⁻ᵀ: the support function of the solid is n·c + sqrt(nᵀS n)."""
    inv = np.linalg.inv(obs.shape_matrix)
    return inv @ inv.T


def _tangent_basis(n):
    """A 3x2 matrix whose orthonormal columns span the plane orthogonal to unit n."""
    axis = np.zeros(3)
    axis[np.argmin(np.abs(n))] = 1.0
    t1 = axis - (axis @ n) * n
    t1 /= np.sqrt(t1 @ t1)
    t2 = n[[1, 2, 0]] * t1[[2, 0, 1]] - n[[2, 0, 1]] * t1[[1, 2, 0]]   # n x t1
    return np.column_stack([t1, t2])


def _shares_a_point(a: Ellipsoid, b: Ellipsoid, delta) -> bool:
    """True once min over s in (0, 1) of K(s) >= 0 is proven: the solids
    share a point (Gilitschenski & Hanebeck, FUSION 2012).

    K(s) = 1 - deltaᵀ (S_a / (1 - s) + S_b / s)⁻¹ delta. With the eigenpairs
    (lam, U) of E_a S_b E_aᵀ and v = Uᵀ E_a delta it is
        K(s) = 1 - sum_i v_i² s (1 - s) / (lam_i + s (1 - lam_i)),
    convex on [0, 1] with K(0) = K(1) = 1. Safeguarded Newton on K' from
    s = 1/2; the tangent line at s bounds K from below on all of [0, 1], so
    K(s) + min(-s K'(s), (1 - s) K'(s)) >= 0 proves the overlap. False when
    some K(s) < 0 proves the solids disjoint, or after GAP_STEPS steps.
    """
    m = a.shape_matrix @ np.linalg.inv(b.shape_matrix)
    lam, u = np.linalg.eigh(m @ m.T)
    v2 = (u.T @ (a.shape_matrix @ delta)) ** 2
    lo, hi, s = 0.0, 1.0, 0.5
    for _ in range(GAP_STEPS):
        den = lam + s * (1.0 - lam)
        k = 1.0 - v2 @ (s * (1.0 - s) / den)
        if k < 0.0:
            return False
        dk = -v2 @ ((lam * (1.0 - s) ** 2 - s * s) / den**2)
        if k + min(-s * dk, (1.0 - s) * dk) >= 0.0:
            return True
        if dk > 0.0:
            hi = s
        else:
            lo = s
        newton = s - dk / (v2 @ (2.0 * lam / den**3))
        s = newton if lo < newton < hi else 0.5 * (lo + hi)
    return False
