"""Per-agent DMPC: build the embedded QP from state, predictions, and obstacles.

Variable layout of every instance is [w | zeta | eps | delta]:
control points, obstacle slacks (one per probed obstacle), inter-agent safety
slacks (neighbor-major, then horizon step), cohesion slacks (same order).

Inequality rows, in this order, each with a label (warm hints match rows and
bounds by label from one tick to the next):
  box:   ("vel" | "acc", i, "hi" | "lo"), the bounds on the velocity and
         acceleration control points that no equality pins, hi before lo;
         constant per config, built once in BasisBundle;
  saf/coh: ("saf", j, k) then ("coh", j, k) per neighbor j (ascending id)
         and step k;
  obs:   ("obs", m, k) per probed obstacle m, one row per step k from its
         probe on.
Variable bounds: every slack is >= 0 through the QP's lb (w has none), not a
row of G. Each bound has a label: ("nnz", m) on zeta of obstacle m, then
("nne", j, k) on eps and ("nnd", j, k) on delta; meta["bound_labels"] holds
one per variable, None on w.
Equality rows: junction continuity, then the initial position, velocity and
acceleration.

Constraint linearization: safety and cohesion rows are first-order expansions
of the scaled distance around the agent's own time-shifted previous plan vs.
the neighbor's predicted trajectory. Obstacle rows are supporting planes of
the (convex) obstacle, taken at every step of the time-shifted previous plan
from the first one that comes within OBSTACLE_BAND of r_min: outside the
obstacle the plane touches at the exact closest point in the agent norm,
inside it at the radial surface point. The collision probe's pass supplies
the planes: detect_first_collision skips each obstacle whose distance lower
bound (min_k ||E (p_k - c)|| - 1) / sigma_max(E M⁻¹) clears the band (the
triangle inequality where the agent norm ||M x|| is Euclidean), projects
every step onto the others in one point_surface_distance call, and each
probe keeps the distances and plane gradients from its first step on. Each
plane is a lower bound of the true signed distance everywhere, so a plan
that satisfies a row keeps at least r_min from the obstacle at that step;
all rows of one obstacle share its slack.

Initial condition: the plan starts from the measured position and velocity;
its acceleration carries over from the previous plan at +dt, the point the
plant has reached while tracking that plan.

Time shift: BasisBundle.shifted is the one map of a plan onto the next tick's
sample times. Its product with the previous plan, meta["prev_traj"], is the
point of every linearization above, and when the solver fails, plan() falls
back to the least-squares fit of that same trajectory.

Warm hints: plan() passes the previous tick's active labels to the solver as
a row hint and a bound hint. A plan with no previous active set
(hint_labels None: an agent's first tick, or the tick after a fallback)
passes a guess instead, no row active and every slack at zero, and reaches
the interior point only if the polish of that guess fails.

build_qp, plan, cost_decomposition and prediction_row_gradients read the
ControllerConfig from their BasisBundle (bundle.cfg). The neighbor set is
the key set of the predictions dict.

QP frames: every part of the QP that depends only on the probe and neighbor
counts is built once per pair of counts by BasisBundle.frame(n_probes,
n_neighbors), read-only, and shared by every plan with those counts: the
dense Q and R, the layout slices, lb, the slack-penalty tail of q, and the
(row, column) indices of the -1 slack entries of the safety and cohesion
rows. Q is a qpcore.CheckedHessian: QpInstance's symmetry and PSD probe
runs on it once, when the bundle builds it, and not again in the
QpInstance that build_qp makes from it. build_qp itself computes only what
changes per tick (the linear part of q, G, h and b) and writes the row
blocks straight into G and h. An agent has at most one probe per obstacle
and at most n - 1 neighbors in a swarm of n, so a swarm fills at most
(obstacles + 1) x n frames; BasisBundle states their memory.

build_qp also returns a meta dict: "labels" (one per inequality row),
"bound_labels" (one per variable), "probes", "neighbors" (ids in ascending
order), "prev_traj" (3P) and the neighbor linearization as arrays over
(neighbor, step), with n_nb = number of neighbors:
  preds (n_nb, P, 3): the predicted neighbor positions p_tilde;
  eta (n_nb, P, 3): the row direction, the gradient of ||E u|| at
      u = p_hat - p_tilde (+x fallback where u = 0);
  scale (n_nb, P): ||E u||;
  degenerate (n_nb, P): eta came from the fallback;
  nb_rows (n_nb, P, 2): the inequality row indices of the (saf, coh) pair,
      the frame's read-only array.
prediction_row_gradients reads these arrays.
"""

import logging
from dataclasses import dataclass, field
from itertools import chain, compress
from types import MappingProxyType

import numpy as np
import scipy.linalg

from .geometry import (
    BezierBasis,
    BezierPlan,
    build_basis,
    eval_bezier,
    derivative_plan,
    distance_lower_bound,
    point_surface_distance,
    sampling_matrix,
)
from .qpcore import (CheckedHessian, QpInstance, SolveStatus, active_set, kkt_residuals,
                     solve)

log = logging.getLogger(__name__)

# An obstacle gets rows once the time-shifted previous plan comes within this
# distance (m) of r_min at some step. The rows are linearized at the previous
# plan, so the band must cover how far a step moves from one plan to the next.
OBSTACLE_BAND = 0.5
# Obstacle rows ask r_min at the first step and r_min + OBSTACLE_RESERVE (m)
# after it. The next plan starts from a measurement that may sit a sensor
# noise (0.004 m per axis by default) closer than this plan's step 1, and
# its pinned initial state leaves its own first step almost no freedom; the
# reserve lets that step still meet r_min without slack.
OBSTACLE_RESERVE = 0.02
# The collision probe skips an obstacle whose distance lower bound clears the
# probe distance by this much (m), far above the rounding of either distance.
CLEARANCE_MARGIN = 1e-9


@dataclass(frozen=True)
class CostWeights:
    q_mig: float = 1.0
    l_saf: float = 1e4
    q_saf: float = 1e2
    l_coh: float = 1e3
    q_coh: float = 10.0
    q_eft: float = 70.0

    def __post_init__(self):
        if min(self.q_mig, self.l_saf, self.q_saf, self.l_coh, self.q_coh, self.q_eft) < 0:
            raise ValueError("cost weights must be nonnegative")


@dataclass(frozen=True)
class MotionLimits:
    v_min: float = -1.5
    v_max: float = 1.5
    a_min: float = -1.0
    a_max: float = 1.0


@dataclass(frozen=True)
class AgentState:
    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float).reshape(3)
        v = np.asarray(self.velocity, dtype=float).reshape(3)
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v))):
            raise ValueError("agent state must be finite")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "velocity", v)


@dataclass(frozen=True)
class CollisionProbe:
    """First step k_coll at which a plan breaches the probe distance to
    obstacle `obstacle`; dist (P - k_coll,) and eta (P - k_coll, 3) are the
    probe pass's point_surface_distance values at steps k_coll..P-1."""

    k_coll: int
    obstacle: int
    dist: np.ndarray
    eta: np.ndarray


@dataclass(frozen=True)
class ControllerConfig:
    """Controller parameters; frozen, since a BasisBundle bakes them in."""

    horizon: int = 16
    dt: float = 0.2
    segments: int = 3
    degree: int = 5
    weights: CostWeights = field(default_factory=CostWeights)
    limits: MotionLimits = field(default_factory=MotionLimits)
    r_min: float = 0.15
    r_coh: float = 2.5
    agent_shape: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        if self.degree < 2:
            # the acceleration rows and the effort term need a degree-2 derivative
            raise ValueError(f"need Bezier degree >= 2, got {self.degree}")
        shape = np.array(self.agent_shape, dtype=float).reshape(3, 3)
        shape.flags.writeable = False
        object.__setattr__(self, "agent_shape", shape)

    def __eq__(self, other):
        # field by field, agent_shape by value
        if not isinstance(other, ControllerConfig):
            return NotImplemented
        mine, theirs = dict(vars(self)), dict(vars(other))
        return (np.array_equal(mine.pop("agent_shape"), theirs.pop("agent_shape"))
                and mine == theirs)


@dataclass
class PlanResult:
    plan: BezierPlan
    trajectory: np.ndarray          # F w*, length 3P
    slack_obstacle: np.ndarray
    slack_safety: np.ndarray
    slack_cohesion: np.ndarray
    costs: dict
    status: SolveStatus
    fallback: bool = False
    # warm hint for the next tick's plan; None (a fallback) means no previous
    # active set, and the next plan polishes from the guess "every slack at zero"
    active_labels: frozenset | None = None

    @property
    def total_cost(self):
        return sum(self.costs.values())


@dataclass(frozen=True)
class QpFrame:
    """The read-only parts of every plan with the same probe and neighbor
    counts, n = n_w + n_probes + 2 P n_neighbors variables.

    - Q (n, n): bundle.hessian on the w-block, 2 q_saf on the zeta and eps
      diagonal, 2 q_coh on the delta diagonal; probed once as a
      CheckedHessian;
    - R (n_eq, n): bundle.eq_rows on the w-block;
    - layout: the slices of w, zeta, eps and delta;
    - lb (n,): -inf on w, 0 on every slack;
    - q_slack (n - n_w,): the slack penalties, the tail of q: l_saf on zeta
      and eps, l_coh on delta;
    - nb_rows, nb_cols (n_neighbors, P, 2): the inequality row of each
      (saf, coh) pair and the column of its slack, eps then delta; G holds
      -1 at each (row, column).
    """

    Q: CheckedHessian
    R: np.ndarray
    layout: MappingProxyType
    lb: np.ndarray
    q_slack: np.ndarray
    nb_rows: np.ndarray
    nb_cols: np.ndarray


class BasisBundle:
    """Every part of the QP that is constant per ControllerConfig, built once.

    - basis (F), a2 and shifted: sampling matrices of a plan w. F gives the
      positions and a2 the accelerations at the P sample times; shifted gives
      the positions at the sample times + dt, clamped to the plan's end: the
      plan on the next tick's horizon. Its users: build_qp (the time-shifted
      previous plan, which plan() also fits when the solver fails), and the
      episode loop (oracle predictions and the trajectories VAE messages
      encode).
    - d1, d2: maps from w to the velocity and acceleration control points.
    - hessian: the w-block of the objective, 2 q_mig FᵀF + 2 q_eft a2ᵀa2.
    - box_rows, box_h, box_labels: the velocity/acceleration bound rows.
    - eq_rows: the junction continuity rows (also `continuity`), then the
      initial-condition rows.
    - the factorized least-squares fitter behind fit_plan.
    - frame(n_probes, n_neighbors): the QpFrame of that pair of counts,
      built and probed on its first use and kept for the bundle's life.
      Memory bound: with M obstacles and n agents, at most (M + 1) n frames
      (n_neighbors runs to n - 1, since comm_graph's union of nearest-
      neighbor picks can give an agent more than max_neighbors neighbors).
      For N = n_w + n_probes + 2 P n_neighbors variables a frame holds
      8 (N + n_eq) N bytes of Q and R, plus at most 32 N bytes of vectors
      and index arrays (lb, the slack tail of q, nb_rows and nb_cols):
      O((M + 1) n^3) bytes in all. At the default ControllerConfig (n_w = 54,
      P = 16, n_eq = 27) and M = 2 that is at most 12 frames and 1.43 MB
      for 4 agents (DESK; a frame with 2 probes and 3 neighbors holds
      185 KB of Q, 33 KB of R and 3.5 KB of the rest), 39 frames and
      25.8 MB for 13, 90 frames and 261 MB for 30; a 30-tick episode of
      the default 13-agent scenario fills 18 to 23 frames, 13 to 18 MB
      (episode seeds 0, 1000 and 7000). A swarm much larger than 13 needs
      frames that keep only the w-blocks and the slack diagonal.
    """

    def __init__(self, cfg: ControllerConfig):
        l, d, horizon, dt = cfg.segments, cfg.degree, cfg.horizon, cfg.dt
        self.cfg = cfg
        self.basis: BezierBasis = build_basis(l, d, horizon, dt)
        self.seg_dur = seg_dur = self.basis.segment_duration
        times = self.basis.sample_times
        self.n_w = n_w = 3 * l * (d + 1)

        def diff_map(count_in, order_degree):
            """Control-point difference map of one derivative level."""
            per_segment = np.kron(np.diff(np.eye(count_in), axis=0), np.eye(3))
            return np.kron(np.eye(l), per_segment) * (order_degree / seg_dur)

        self.d1 = diff_map(d + 1, d)                     # velocity control points
        self.d2 = diff_map(d, d - 1) @ self.d1           # acceleration control points
        # einsum sums each entry over the Bernstein weights in order, as a
        # per-sample evaluation does; a BLAS product may reorder the sums
        # and move the Hessian by an ulp
        self.a2 = np.einsum("ij,jk->ik", sampling_matrix(l, d - 2, seg_dur, times), self.d2)
        self.shifted = sampling_matrix(l, d, seg_dur, np.minimum(times + dt, l * seg_dur))

        f, wts = self.basis.matrix, cfg.weights
        self.hessian = 2 * wts.q_mig * (f.T @ f) + 2 * wts.q_eft * (self.a2.T @ self.a2)

        # velocity/acceleration bound rows skip control points pinned by the
        # initial condition or a junction equality (first point of each segment)
        lim = cfg.limits
        rows, h, self.box_labels = [], [], []
        for name, mat, count, hi, lo in (("vel", self.d1, d, lim.v_max, lim.v_min),
                                         ("acc", self.d2, d - 1, lim.a_max, lim.a_min)):
            free = mat[np.arange(mat.shape[0]) // 3 % count != 0]
            rows.append(np.stack([free, -free], axis=1).reshape(-1, n_w))
            h.append(np.tile([hi, -lo], len(free)))
            self.box_labels += [(name, i, side) for i in range(len(free)) for side in ("hi", "lo")]
        self.box_rows, self.box_h = np.vstack(rows), np.concatenate(h)

        # junction continuity: last minus first point of adjacent segments for
        # positions, velocities, accelerations; initial conditions: first points
        levels = ((np.eye(n_w), d + 1), (self.d1, d), (self.d2, d - 1))
        self.continuity = np.array(
            [mat[3 * (s * count + count - 1) + ax] - mat[3 * (s + 1) * count + ax]
             for s in range(l - 1) for mat, count in levels for ax in range(3)]
        ).reshape(-1, n_w)
        self.eq_rows = np.vstack([self.continuity] + [mat[:3] for mat, _ in levels])

        # fallback fitter: min ||F w - u||^2 + reg ||w||^2  s.t.  continuity = 0
        n_c = self.continuity.shape[0]
        kkt = np.zeros((n_w + n_c, n_w + n_c))
        kkt[:n_w, :n_w] = 2 * (f.T @ f) + 1e-9 * np.eye(n_w)
        kkt[:n_w, n_w:] = self.continuity.T
        kkt[n_w:, :n_w] = self.continuity
        self._fit_lu = scipy.linalg.lu_factor(kkt)
        self._fit_rhs_map = 2 * f.T
        self._frames = {}

    def frame(self, n_probes, n_neighbors) -> QpFrame:
        """The QpFrame of plans with n_probes probes and n_neighbors neighbors."""
        key = (n_probes, n_neighbors)
        if key not in self._frames:
            self._frames[key] = self._build_frame(n_probes, n_neighbors)
        return self._frames[key]

    def _build_frame(self, n_z, n_nb):
        w, n_w, n_eps = self.cfg.weights, self.n_w, n_nb * self.cfg.horizon
        n = n_w + n_z + 2 * n_eps
        qmat = np.zeros((n, n))
        qmat[:n_w, :n_w] = self.hessian
        slacks = np.arange(n_w, n)
        qmat[slacks, slacks] = np.repeat([2 * w.q_saf, 2 * w.q_saf, 2 * w.q_coh],
                                         [n_z, n_eps, n_eps])
        r = np.zeros((self.eq_rows.shape[0], n))
        r[:, :n_w] = self.eq_rows
        layout = MappingProxyType({"w": slice(0, n_w), "zeta": slice(n_w, n_w + n_z),
                                   "eps": slice(n_w + n_z, n_w + n_z + n_eps),
                                   "delta": slice(n_w + n_z + n_eps, n)})
        lb = np.concatenate([np.full(n_w, -np.inf), np.zeros(n - n_w)])
        q_slack = np.repeat([w.l_saf, w.l_saf, w.l_coh], [n_z, n_eps, n_eps])
        nb_rows = len(self.box_labels) + np.arange(2 * n_eps).reshape(n_nb, self.cfg.horizon, 2)
        nb_cols = np.stack([np.arange(n_w + n_z, n_w + n_z + n_eps),
                            np.arange(n_w + n_z + n_eps, n)], axis=1).reshape(nb_rows.shape)
        for array in (r, lb, q_slack, nb_rows, nb_cols):
            array.flags.writeable = False
        return QpFrame(CheckedHessian(qmat), r, layout, lb, q_slack, nb_rows, nb_cols)

    def fit_plan(self, trajectory) -> BezierPlan:
        """C0/C1/C2-continuous least-squares plan through a sampled trajectory."""
        rhs = np.concatenate([self._fit_rhs_map @ np.asarray(trajectory, float),
                              np.zeros(self.continuity.shape[0])])
        w = scipy.linalg.lu_solve(self._fit_lu, rhs)[:self.n_w]
        return BezierPlan.from_flat(w, self.cfg.segments, self.cfg.degree, self.seg_dur)


def hold_position_plan(position, cfg: ControllerConfig) -> BezierPlan:
    cp = np.tile(np.asarray(position, dtype=float), (cfg.segments, cfg.degree + 1, 1))
    return BezierPlan(cp, cfg.horizon * cfg.dt / cfg.segments)


def detect_first_collision(prev_traj, obstacles, r_min,
                           norm_matrix=None) -> list[CollisionProbe]:
    """Earliest step per obstacle at which the trajectory breaches r_min.

    Distance is the signed distance from each trajectory point to the
    obstacle in the agent norm (Euclidean by default), as point_surface_distance
    gives it: exact outside, a lower bound inside. An obstacle whose
    distance_lower_bound, (min ||E (p - c)|| - 1) / sigma_max(E M⁻¹), is at
    least r_min + CLEARANCE_MARGIN is not projected: ||E (p - c)|| <=
    sigma_max(E M⁻¹) ||M (p - z)|| + 1 for every z in it, so no step
    breaches it. One point_surface_distance call, made even when no obstacle
    is left, projects every step of the others, with the bits of a call on
    every obstacle; each probe keeps its obstacle's distances and supporting
    planes from its step on, and build_qp makes the obstacle rows from them.
    """
    pts = np.asarray(prev_traj, dtype=float).reshape(-1, 3)
    bounds = distance_lower_bound(obstacles, pts, norm_matrix)
    near = [m for m, bound in enumerate(bounds.tolist()) if bound < r_min + CLEARANCE_MARGIN]
    dist, eta = point_surface_distance([obstacles[m] for m in near], pts, norm_matrix)
    probes = []
    for m, breach, d_m, eta_m in zip(near, dist < r_min, dist, eta):
        if breach.any():
            k = int(breach.argmax())
            probes.append(CollisionProbe(k, m, d_m[k:], eta_m[k:]))
    return probes


def _scaled_norm_gradient(u, shape_matrix):
    """Gradient of ||E u|| wrt u per row of u (..., 3), with a deterministic +x
    fallback where u = 0.

    Returns (eta, scaled norm of the original u, degenerate flag), per row.
    """
    m = shape_matrix.T @ shape_matrix
    mu = u @ m.T
    s = np.sqrt(np.add.reduce(mu * u, axis=-1))
    degenerate = s < 1e-9
    mu[degenerate] = m[:, 0]  # m @ e_x
    return mu / np.where(degenerate, np.sqrt(m[0, 0]), s)[..., None], s, degenerate


def build_qp(state: AgentState, prev_plan: BezierPlan, neighbor_predictions: dict,
             obstacles, p_mig, bundle: BasisBundle):
    """Assemble the agent's QP. Returns (QpInstance, meta), meta as in the
    module docstring.

    neighbor_predictions maps neighbor id -> predicted trajectory (3P); its
    keys are the neighbor set. The rows follow the layout in the module
    docstring.
    """
    cfg = bundle.cfg
    horizon, n_w = cfg.horizon, bundle.n_w
    w = cfg.weights
    ordered = sorted(neighbor_predictions)
    n_nb = len(ordered)

    prev_traj = bundle.shifted @ prev_plan.flatten()
    prev_pts = prev_traj.reshape(horizon, 3)
    probes = detect_first_collision(prev_traj, obstacles, cfg.r_min + OBSTACLE_BAND,
                                    norm_matrix=cfg.agent_shape)
    frame = bundle.frame(len(probes), n_nb)
    n, n_eps, n_box = frame.lb.size, n_nb * horizon, len(bundle.box_labels)

    f = bundle.basis.matrix
    p_mig = np.asarray(p_mig, dtype=float).reshape(3)
    p_bar = np.tile(p_mig, horizon)
    qvec = np.concatenate([-2 * w.q_mig * (f.T @ p_bar), frame.q_slack])
    const = w.q_mig * horizon * float(p_mig @ p_mig)

    # safety eta'(p - p_tilde) >= r_min - eps and cohesion eta'(p - p_tilde)
    # <= r_coh + delta, for every (neighbor, step) at once, written into their
    # (saf, coh) row pairs of G and h
    f_steps = f.reshape(horizon, 3, n_w)
    preds = np.array([np.asarray(neighbor_predictions[j], dtype=float).reshape(horizon, 3)
                      for j in ordered]).reshape(n_nb, horizon, 3)
    u = prev_pts - preds
    eta, scale, degen = _scaled_norm_gradient(u, cfg.agent_shape)
    grad = np.einsum("jki,kiw->jkw", eta, f_steps)
    reach = np.einsum("jki,jki->jk", eta, preds)
    n_rows = n_box + 2 * n_eps + sum(horizon - probe.k_coll for probe in probes)
    g, h = np.zeros((n_rows, n)), np.empty(n_rows)
    g[:n_box, :n_w], h[:n_box] = bundle.box_rows, bundle.box_h
    g_pairs = g[n_box:n_box + 2 * n_eps].reshape(n_nb, horizon, 2, n)
    np.negative(grad, out=g_pairs[:, :, 0, :n_w])
    g_pairs[:, :, 1, :n_w] = grad
    g[frame.nb_rows, frame.nb_cols] = -1.0
    h_pairs = h[n_box:n_box + 2 * n_eps].reshape(n_nb, horizon, 2)
    h_pairs[..., 0] = -cfg.r_min - reach
    h_pairs[..., 1] = cfg.r_coh + reach
    nb_steps = [(j, k) for j in ordered for k in range(horizon)]
    labels = bundle.box_labels + [(name, j, k) for j, k in nb_steps
                                  for name in ("saf", "coh")]

    row = n_box + 2 * n_eps
    for z_idx, probe in enumerate(probes):
        # a supporting plane at every step from the first one in the band on:
        # eta'(p_k - p_hat_k) + d_k >= r_min (+ reserve after step 0) - zeta
        k0, end = probe.k_coll, row + horizon - probe.k_coll
        steps = np.arange(k0, horizon)
        clearance = cfg.r_min + np.where(steps > 0, OBSTACLE_RESERVE, 0.0)
        np.negative(np.einsum("ki,kiw->kw", probe.eta, f_steps[k0:]), out=g[row:end, :n_w])
        g[row:end, frame.layout["zeta"].start + z_idx] = -1.0
        h[row:end] = (probe.dist - np.add.reduce(probe.eta * prev_pts[k0:], axis=1)
                      - clearance)
        labels += [("obs", probe.obstacle, k) for k in range(k0, horizon)]
        row = end

    bound_labels = ([None] * n_w + [("nnz", probe.obstacle) for probe in probes]
                    + [(name, j, k) for name in ("nne", "nnd") for j, k in nb_steps])

    # equalities: junction continuity plus pinned initial conditions. Position
    # and velocity are the measured state. The plant tracks the committed plan
    # with feed-forward (swarmsim.step_dynamics), so its acceleration is the
    # previous plan's at +dt; acceleration is not measured and carries over.
    lim = cfg.limits
    t_handover = min(cfg.dt, prev_plan.total_duration)
    v0 = np.minimum(np.maximum(state.velocity, lim.v_min), lim.v_max)
    a0 = np.minimum(np.maximum(eval_bezier(derivative_plan(prev_plan, 2), t_handover),
                               lim.a_min), lim.a_max)
    # the two pins determine the second velocity control point
    # q01 = v0 + a0 * seg_dur / (d-1); keep it inside the velocity box or the
    # QP is infeasible when the previous plan rides a bound
    pin_scale = (cfg.degree - 1) / bundle.seg_dur
    a0 = np.minimum(a0, (lim.v_max - v0) * pin_scale)
    a0 = np.maximum(a0, (lim.v_min - v0) * pin_scale)
    b = np.concatenate([np.zeros(bundle.continuity.shape[0]),
                        state.position, v0, a0])

    qp = QpInstance(frame.Q, qvec, g, h, frame.R, b, frame.lb, layout=frame.layout,
                    objective_constant=const)
    return qp, {"probes": probes, "neighbors": ordered, "prev_traj": prev_traj,
                "labels": labels, "bound_labels": bound_labels, "preds": preds,
                "eta": eta, "scale": scale, "degenerate": degen, "nb_rows": frame.nb_rows}


def cost_decomposition(trajectory, slack_obstacle, slack_safety, slack_cohesion,
                       p_mig, bundle: BasisBundle, w_vec):
    """Evaluate the five objective terms of a plan: its control points w_vec,
    its sampled trajectory F w_vec and its slack values."""
    wts = bundle.cfg.weights
    pts = np.asarray(trajectory, float).reshape(bundle.cfg.horizon, 3)
    p_mig = np.asarray(p_mig, float).reshape(3)
    migration = wts.q_mig * float(((pts - p_mig) ** 2).sum())
    acc = bundle.a2 @ np.asarray(w_vec, float)
    effort = wts.q_eft * float(acc @ acc)
    # slacks are nonnegative; the solver returns them to within its tolerance
    zeta = np.maximum(np.asarray(slack_obstacle, float), 0.0)
    eps = np.maximum(np.asarray(slack_safety, float), 0.0)
    delta = np.maximum(np.asarray(slack_cohesion, float), 0.0)
    return {
        "migration": migration,
        "safe_agent": float(wts.l_saf * eps.sum() + wts.q_saf * (eps**2).sum()),
        "safe_obstacle": float(wts.l_saf * zeta.sum() + wts.q_saf * (zeta**2).sum()),
        "cohesion": float(wts.l_coh * delta.sum() + wts.q_coh * (delta**2).sum()),
        "control_effort": effort,
    }


def plan(state: AgentState, prev_plan: BezierPlan, neighbor_predictions: dict,
         obstacles, p_mig, bundle: BasisBundle, hint_labels=None) -> PlanResult:
    """Solve the agent's QP. If the solve fails, the plan is the least-squares
    fit of the time-shifted previous plan, meta["prev_traj"]: the previous
    plan on this tick's horizon, so the agent keeps following it on time.

    hint_labels is the previous tick's PlanResult.active_labels: row and
    bound labels survive changes in neighbor sets and probes, so the hint
    stays usable from one tick to the next. None means there is no previous
    active set (an agent's first tick, or the tick after a fallback); the
    solve then polishes from a guess first: no row active and every slack
    at zero. The slacks are exact penalties, so they are zero wherever the
    hard rows are feasible (Kerrigan & Maciejowski, UKACC Control 2000), and
    the polish adds the few rows that are active. A guess that fails goes on
    to solve's interior point, like a warm hint that fails.
    """
    qp, meta = build_qp(state, prev_plan, neighbor_predictions, obstacles, p_mig, bundle)
    if hint_labels is None:
        hint, bound_hint = np.zeros(qp.num_ineq, dtype=bool), np.isfinite(qp.lb)
    else:
        hint = np.fromiter(map(hint_labels.__contains__, meta["labels"]), bool, qp.num_ineq)
        bound_hint = np.fromiter(map(hint_labels.__contains__, meta["bound_labels"]), bool,
                                 qp.num_vars)
    sol = solve(qp, active_set_hint=hint, bound_hint=bound_hint)

    if sol.status != SolveStatus.OPTIMAL:
        res = kkt_residuals(qp, sol)
        worst = max(res, key=res.get)
        log.warning("DMPC solve returned %s after %d iterations (largest KKT residual %s "
                    "%.3g); falling back to shifted previous plan",
                    sol.status.value, sol.iterations, worst, res[worst])
        fb_plan = bundle.fit_plan(meta["prev_traj"])
        traj = bundle.basis.matrix @ fb_plan.flatten()
        costs = cost_decomposition(traj, [], [], [], p_mig, bundle, w_vec=fb_plan.flatten())
        return PlanResult(fb_plan, traj, np.zeros(0), np.zeros(0), np.zeros(0),
                          costs, sol.status, fallback=True)

    w_vec = sol.x[qp.layout["w"]]
    traj = bundle.basis.matrix @ w_vec
    zeta = sol.x[qp.layout["zeta"]]
    eps = sol.x[qp.layout["eps"]]
    delta = sol.x[qp.layout["delta"]]
    costs = cost_decomposition(traj, zeta, eps, delta, p_mig, bundle, w_vec=w_vec)
    bez = BezierPlan.from_flat(w_vec, bundle.cfg.segments, bundle.cfg.degree, bundle.seg_dur)
    rows, bounds = active_set(qp, sol)
    active_labels = frozenset(chain(compress(meta["labels"], rows.tolist()),
                                    compress(meta["bound_labels"], bounds.tolist())))
    return PlanResult(bez, traj, zeta, eps, delta, costs, sol.status,
                      active_labels=active_labels)


def prediction_row_gradients(meta, d_g, d_h, bundle: BasisBundle):
    """Map KKT-layer gradients on (G, h) back to neighbor-prediction gradients.

    Only the linearized safety/cohesion rows depend on the predictions. The
    safety row of (neighbor j, step k) is -eta'F_k w - eps <= -r_min - eta'p_tilde,
    the cohesion row the same with the signs of eta and r_coh flipped, so
    each pair gives
        dL/deta = c (F_k d_g[row, w] + d_h[row] p_tilde),  c = -1 (saf), +1 (coh),
    and dL/dp_tilde = c d_h[row] eta - J dL/deta, with J = d eta/du =
    (M - eta eta')/s, M = E'E and s = scale; du/dp_tilde = -I. Degenerate
    pairs keep only the direct term, since their eta does not depend on u.
    Computed over all (neighbor, step) pairs at once from the meta arrays.
    Returns {neighbor id: gradient array of len 3P}.
    """
    horizon, n_w = bundle.cfg.horizon, bundle.n_w
    eta, degen = meta["eta"], meta["degenerate"]
    sign = np.array([-1.0, 1.0])                           # (saf, coh)
    c_w = np.einsum("c,jkcw->jkw", sign, d_g[meta["nb_rows"], :n_w])
    c_h = d_h[meta["nb_rows"]] @ sign
    f_steps = bundle.basis.matrix.reshape(horizon, 3, n_w)
    d_eta = np.einsum("kiw,jkw->jki", f_steps, c_w) + c_h[..., None] * meta["preds"]
    m = bundle.cfg.agent_shape.T @ bundle.cfg.agent_shape
    s = np.where(degen, 1.0, meta["scale"])[..., None]
    jac_d_eta = (d_eta @ m - eta * np.sum(eta * d_eta, axis=-1, keepdims=True)) / s
    d_ptilde = c_h[..., None] * eta - np.where(degen[..., None], 0.0, jac_d_eta)
    return dict(zip(meta["neighbors"], d_ptilde.reshape(len(meta["neighbors"]), 3 * horizon)))
