import dataclasses
import logging
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcoord import dmpc, geometry
from swarmcoord.arrayio import read_container
from swarmcoord.dmpc import (
    CLEARANCE_MARGIN,
    OBSTACLE_BAND,
    OBSTACLE_RESERVE,
    AgentState,
    BasisBundle,
    ControllerConfig,
    CostWeights,
    MotionLimits,
    build_qp,
    detect_first_collision,
    hold_position_plan,
    plan,
    prediction_row_gradients,
)
from swarmcoord.geometry import (
    BezierPlan,
    Ellipsoid,
    derivative_plan,
    distance_lower_bound,
    eval_bezier,
    point_surface_distance,
)
from swarmcoord.qpcore import SolveStatus, _try_polish, active_set, kkt_residuals, solve
from swarmcoord.swarmsim import ChannelConfig, ScenarioConfig, episode, run_episode, sample_scenario

from qp_testing import (assert_bound_form_matches_row_form, assert_same_polish, dlb_check,
                        reference_polish)
from test_geometry import ellipsoids


@pytest.fixture(scope="module")
def cfg():
    return ControllerConfig()


@pytest.fixture(scope="module")
def bundle(cfg):
    return BasisBundle(cfg)


def hold_position_trajectory(position, horizon) -> np.ndarray:
    return np.tile(np.asarray(position, dtype=float), horizon)


def two_obstacles():
    return [Ellipsoid.axis_aligned([12.0, 4.0, 0.0], [6.0, 3.5, 5.0]),
            Ellipsoid.axis_aligned([12.0, -4.0, 0.0], [6.0, 3.5, 5.0])]


def unfiltered_first_collision(prev_traj, obstacles, r_min, norm_matrix=None):
    """Reference probe without the distance bound: project every step onto
    every obstacle, then keep each obstacle's first breach.
    Returns (k_coll, obstacle, dist, eta) tuples."""
    pts = np.asarray(prev_traj, dtype=float).reshape(-1, 3)
    dist, eta = point_surface_distance(obstacles, pts, norm_matrix)
    probes = []
    for m, breach in enumerate(dist < r_min):
        if breach.any():
            k = int(breach.argmax())
            probes.append((k, m, dist[m, k:], eta[m, k:]))
    return probes


def point_at_distance(obs, norm, r, rng):
    """A point whose distance to the solid obstacle in the norm ||M x|| is r
    up to rounding (r < 0 inside, along the surface normal): in the frame
    z = M x the obstacle's projection of the point is a surface point."""
    m = np.eye(3) if norm is None else norm
    scaled = obs.in_norm(m)
    u = rng.normal(size=3)
    surface = scaled.center + np.linalg.solve(scaled.shape_matrix, u / np.linalg.norm(u))
    normal = scaled.shape_matrix.T @ scaled.shape_matrix @ (surface - scaled.center)
    return np.linalg.solve(m, surface + r * normal / np.linalg.norm(normal))


# a norm's agent_shape: the identity, a stretched z axis, a rotated anisotropic one
_ROTATION = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
PROBE_NORMS = (None, np.diag([1.0, 1.0, 1.2]), np.diag([0.7, 1.6, 1.0]) @ _ROTATION)
STEP_KINDS = st.sampled_from(["inside", "near", "threshold", "far"])


class TestDetectFirstCollision:
    def test_clear_plan_no_probe(self, cfg):
        traj = hold_position_trajectory([0.0, 0.0, 0.0], cfg.horizon)
        assert detect_first_collision(traj, two_obstacles(), cfg.r_min) == []

    def test_plan_at_center_probes_step_zero(self, cfg):
        obstacles = two_obstacles()
        traj = hold_position_trajectory(obstacles[0].center, cfg.horizon)
        probes = detect_first_collision(traj, obstacles, cfg.r_min)
        assert probes and probes[0].k_coll == 0 and probes[0].obstacle == 0

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(obstacles=st.lists(ellipsoids(), max_size=3),
           moved=st.lists(st.booleans(), min_size=3, max_size=3),
           norm=st.sampled_from(range(len(PROBE_NORMS))),
           r_min=st.sampled_from([0.15, 0.65]),
           kinds=st.one_of(STEP_KINDS.map(lambda kind: [kind] * 16),
                           st.lists(STEP_KINDS, min_size=16, max_size=16)),
           seed=st.integers(0, 2**16))
    def test_equals_the_unfiltered_probe_bitwise(self, obstacles, moved, norm, r_min, kinds,
                                                 seed):
        # the distance bound skips only obstacles that no step breaches, so
        # every probe is bitwise the one of projecting every obstacle. Some
        # obstacles are moved 40 m away from every step, which the bound
        # clears; each step lies inside, near, within 1e-12 of r_min or far
        # (2 to 10 m) from one of the others, all steps alike or mixed
        rng = np.random.default_rng(seed)
        norm = PROBE_NORMS[norm]
        obstacles = [Ellipsoid(obs.center + [40.0 * shift, 0.0, 0.0], obs.shape_matrix)
                     for obs, shift in zip(obstacles, moved)]
        anchors = [obs for obs, shift in zip(obstacles, moved) if not shift]
        if anchors:
            radius = {"inside": lambda: -0.1, "near": lambda: r_min + 1e-6,
                      "threshold": lambda: r_min, "far": lambda: rng.uniform(2.0, 10.0)}
            pts = [point_at_distance(anchors[rng.integers(len(anchors))], norm,
                                     radius[kind](), rng) for kind in kinds]
        else:
            pts = rng.normal(size=(16, 3))
        traj = np.reshape(pts, -1)
        probes = detect_first_collision(traj, obstacles, r_min, norm_matrix=norm)
        expected = unfiltered_first_collision(traj, obstacles, r_min, norm)
        assert len(probes) == len(expected)
        for probe, (k, m, dist, eta) in zip(probes, expected):
            assert (probe.k_coll, probe.obstacle) == (k, m)
            assert probe.dist.tobytes() == dist.tobytes()
            assert probe.eta.tobytes() == eta.tobytes()

    def test_threshold_points_sit_within_1e_12(self, cfg):
        # the helper above places its threshold steps this close to r_min
        rng = np.random.default_rng(23)
        obs = Ellipsoid(np.array([0.3, -0.2, 0.1]),
                        np.diag([1 / 2.0, 1.0, 1 / 0.6]) @ _ROTATION)
        for norm in PROBE_NORMS:
            pts = [point_at_distance(obs, norm, 0.65, rng) for _ in range(50)]
            d = point_surface_distance([obs], pts, norm)[0][0]
            assert np.max(np.abs(d - 0.65)) <= 1e-12

    def test_matches_linear_scan_oracle(self, cfg):
        rng = np.random.default_rng(0)
        obstacles = [Ellipsoid.axis_aligned([2.0, 0.0, 0.0], [1.0, 1.0, 1.0])]
        for _ in range(10):
            start = np.array([-1.0, 0, 0]) + rng.normal(scale=0.2, size=3)
            end = np.array([5.0, 0, 0]) + rng.normal(scale=0.2, size=3)
            pts = start + np.linspace(0, 1, cfg.horizon)[:, None] * (end - start)
            traj = pts.reshape(-1)
            probes = detect_first_collision(traj, obstacles, cfg.r_min)
            # oracle: exhaustive scan
            expected = None
            from swarmcoord.geometry import surface_distance
            for k in range(cfg.horizon):
                if surface_distance(obstacles[0], pts[k]) < cfg.r_min:
                    expected = k
                    break
            if expected is None:
                assert probes == []
            else:
                assert probes[0].k_coll == expected


def random_plan(rng, cfg, bundle):
    cp = rng.normal(scale=2.0, size=(cfg.segments, cfg.degree + 1, 3))
    return BezierPlan(cp, bundle.seg_dur)


class TestBasisBundle:
    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            ControllerConfig(degree=1)

    @pytest.mark.parametrize("make, kwargs", [
        pytest.param(make, kwargs,
                     id=make.__name__ + "-" + ",".join(f"{k}={v}" for k, v in kwargs.items()))
        for make, kwargs in [
            (CostWeights, {"q_eft": np.nan}), (CostWeights, {"l_saf": np.inf}),
            (MotionLimits, {"v_min": 1.0, "v_max": -1.0}),
            (MotionLimits, {"a_min": 1.0, "a_max": 1.0}),
            (MotionLimits, {"a_min": np.nan}), (MotionLimits, {"v_max": np.inf}),
            (ControllerConfig, {"r_min": np.nan}), (ControllerConfig, {"r_coh": np.nan}),
            (ControllerConfig, {"r_min": -0.5}), (ControllerConfig, {"r_min": 3.0}),
            (ControllerConfig, {"r_min": np.inf, "r_coh": np.inf})]])
    def test_nonfinite_negative_or_inverted_config_rejected(self, make, kwargs):
        # each of these planned at all, silently falling back or letting
        # agents overlap, or failed inside the QP with another message
        with pytest.raises(ValueError, match="finite"):
            make(**kwargs)

    def test_shifted_samples_plan_one_tick_ahead(self, cfg, bundle):
        rng = np.random.default_rng(11)
        for _ in range(20):
            prev = random_plan(rng, cfg, bundle)
            direct = np.concatenate([eval_bezier(prev, min(t + cfg.dt, prev.total_duration))
                                     for t in bundle.basis.sample_times])
            assert np.max(np.abs(bundle.shifted @ prev.flatten() - direct)) < 1e-12

    def test_a2_samples_second_derivative(self, cfg, bundle):
        rng = np.random.default_rng(12)
        for _ in range(20):
            prev = random_plan(rng, cfg, bundle)
            acc = derivative_plan(prev, 2)
            direct = np.concatenate([eval_bezier(acc, t) for t in bundle.basis.sample_times])
            assert np.max(np.abs(bundle.a2 @ prev.flatten() - direct)) < 1e-12 * max(
                1.0, np.max(np.abs(direct)))


def crowded_instance(cfg, bundle, p_mig=(6.0, 0.0, 0.0), nudge=None):
    """Three neighbours, one on top of the agent's own plan (u = 0), and two
    probed obstacles plus one far away. nudge maps a neighbour id to an
    offset added to its prediction. Returns (qp, meta, obstacles)."""
    state = AgentState([0.0, 0.0, 0.2], [0.3, 0.1, 0.0])
    prev = hold_position_plan(state.position, cfg)
    obstacles = [Ellipsoid.axis_aligned([0.8, 0.0, 0.2], [0.5, 0.5, 0.5]),
                 Ellipsoid.axis_aligned([-0.9, 0.3, 0.0], [0.4, 0.6, 0.5]),
                 Ellipsoid.axis_aligned([30.0, 0.0, 0.0], [1.0, 1.0, 1.0])]
    preds = {4: hold_position_trajectory([0.5, 0.5, 0.0], cfg.horizon),
             2: hold_position_trajectory([-1.0, 0.2, 0.1], cfg.horizon),
             9: hold_position_trajectory(state.position, cfg.horizon)}
    for j, offset in (nudge or {}).items():
        preds[j] = preds[j] + offset
    qp, meta = build_qp(state, prev, preds, obstacles, p_mig, bundle)
    return qp, meta, obstacles


class TestBuildQp:
    def test_no_neighbors_no_probe_slack_free(self, cfg, bundle):
        state = AgentState([0, 0, 0], [0, 0, 0])
        prev = hold_position_plan(state.position, cfg)
        qp, meta = build_qp(state, prev, {}, two_obstacles(), [20.0, 0, 0], bundle)
        assert qp.layout["zeta"].stop - qp.layout["zeta"].start == 0
        assert qp.layout["eps"].stop - qp.layout["eps"].start == 0
        assert qp.layout["delta"].stop - qp.layout["delta"].start == 0
        sol = solve(qp)
        assert sol.status == SolveStatus.OPTIMAL
        # solution moves toward the migration point
        traj = (bundle.basis.matrix @ sol.x[qp.layout["w"]]).reshape(cfg.horizon, 3)
        assert traj[-1, 0] > 0.1

    def test_labels_unique_one_per_row(self, cfg, bundle):
        qp, meta, _ = crowded_instance(cfg, bundle)
        labels = meta["labels"]
        assert len(meta["probes"]) == 2
        assert np.any(meta["degenerate"][meta["neighbors"].index(9)])
        assert len(labels) == qp.num_ineq == len(set(labels))
        for j_idx, j in enumerate(meta["neighbors"]):
            for k in range(cfg.horizon):
                saf, coh = meta["nb_rows"][j_idx, k]
                assert labels[saf] == ("saf", j, k) and labels[coh] == ("coh", j, k)

    def test_rows_match_per_row_formulas(self, cfg, bundle):
        qp, meta, obstacles = crowded_instance(cfg, bundle)
        f, n_w = bundle.basis.matrix, bundle.n_w
        m = cfg.agent_shape.T @ cfg.agent_shape
        prev_pts = meta["prev_traj"].reshape(cfg.horizon, 3)
        expected = {}  # row -> (w-block, h)
        for j_idx in range(len(meta["neighbors"])):
            for k in range(cfg.horizon):
                p_tilde = meta["preds"][j_idx, k]
                u = prev_pts[k] - p_tilde
                s = np.sqrt(u @ m @ u)
                eta = m[:, 0] / np.sqrt(m[0, 0]) if s < 1e-9 else m @ u / s
                # the arrays prediction_row_gradients reads
                assert meta["degenerate"][j_idx, k] == (s < 1e-9)
                assert abs(meta["scale"][j_idx, k] - s) < 1e-12
                assert np.max(np.abs(meta["eta"][j_idx, k] - eta)) < 1e-12
                f_k = f[3 * k:3 * k + 3]
                saf, coh = meta["nb_rows"][j_idx, k]
                expected[saf] = (-f_k.T @ eta, -cfg.r_min - eta @ p_tilde)
                expected[coh] = (f_k.T @ eta, cfg.r_coh + eta @ p_tilde)
        for row, label in enumerate(meta["labels"]):
            if label[0] == "obs":
                _, ob, k = label
                (dist,), (eta,) = point_surface_distance([obstacles[ob]], prev_pts[k],
                                                          cfg.agent_shape)
                clearance = cfg.r_min + (OBSTACLE_RESERVE if k > 0 else 0.0)
                expected[row] = (-f[3 * k:3 * k + 3].T @ eta,
                                 dist - eta @ prev_pts[k] - clearance)
        assert len(expected) == 2 * 3 * cfg.horizon + sum(
            cfg.horizon - p.k_coll for p in meta["probes"])
        for row, (g_w, rhs) in expected.items():
            assert np.max(np.abs(qp.G[row, :n_w] - g_w)) < 1e-12
            assert abs(qp.h[row] - rhs) < 1e-12
        # box rows have no slack entry, every other row -1 at its own slack,
        # whose bound (lb = 0) carries the matching label
        nb = {j: i for i, j in enumerate(meta["neighbors"])}
        zeta_of = {p.obstacle: z for z, p in enumerate(meta["probes"])}

        def slack_column(label):
            if label[0] in ("obs", "nnz"):
                return qp.layout["zeta"].start + zeta_of[label[1]]
            block = qp.layout["eps" if label[0] in ("saf", "nne") else "delta"]
            return block.start + nb[label[1]] * cfg.horizon + label[2]

        for row, label in enumerate(meta["labels"]):
            slack_row = np.zeros(qp.num_vars - n_w)
            if label[0] not in ("vel", "acc"):
                slack_row[slack_column(label) - n_w] = -1.0
            assert np.array_equal(qp.G[row, n_w:], slack_row), label
        assert meta["bound_labels"][:n_w] == [None] * n_w
        assert np.all(qp.lb[:n_w] == -np.inf) and np.all(qp.lb[n_w:] == 0.0)
        for col, label in enumerate(meta["bound_labels"][n_w:], start=n_w):
            assert label[0] in ("nnz", "nne", "nnd") and slack_column(label) == col, label

    def test_projects_each_obstacle_once(self, cfg, bundle, monkeypatch):
        real = geometry._supporting_planes
        projected = []

        def counting(obstacles, pts):
            projected.extend((tuple(obs.center), k) for obs in obstacles for k in range(len(pts)))
            return real(obstacles, pts)

        monkeypatch.setattr(geometry, "_supporting_planes", counting)
        _, meta, obstacles = crowded_instance(cfg, bundle)
        assert len(obstacles) == 3 and len(meta["probes"]) == 2
        # the probe pass projects every step of each obstacle that the
        # distance bound cannot clear once, and a cleared obstacle never;
        # the obstacle rows reuse it
        band = cfg.r_min + OBSTACLE_BAND
        prev_pts = meta["prev_traj"].reshape(cfg.horizon, 3)
        bounds = distance_lower_bound(obstacles, prev_pts, cfg.agent_shape)
        cleared = bounds >= band + CLEARANCE_MARGIN
        assert cleared.tolist() == [False, False, True]     # the one 30 m away
        assert sorted(projected) == sorted((tuple(obs.center), k)
                                           for obs, skip in zip(obstacles, cleared)
                                           if not skip for k in range(cfg.horizon))
        # a cleared obstacle's exact distance is at least the band at every step
        for obs in (obs for obs, skip in zip(obstacles, cleared) if skip):
            assert np.all(point_surface_distance([obs], prev_pts, cfg.agent_shape)[0] >= band)

    @pytest.mark.parametrize("n_obstacles,n_neighbors", [(0, 0), (1, 1), (2, 3), (3, 2)])
    def test_frame_parts_match_dense_reference(self, cfg, n_obstacles, n_neighbors):
        local_bundle = BasisBundle(cfg)
        state = AgentState([0.0, 0.0, 0.2], [0.3, 0.1, 0.0])
        obstacles = [Ellipsoid.axis_aligned([0.8, 0.0, 0.2], [0.5, 0.5, 0.5]),
                     Ellipsoid.axis_aligned([-0.9, 0.3, 0.0], [0.4, 0.6, 0.5]),
                     Ellipsoid.axis_aligned([0.0, 0.9, 0.2], [0.4, 0.4, 0.4])][:n_obstacles]
        preds = {j: hold_position_trajectory([0.5 * j, -0.4, 0.1], cfg.horizon)
                 for j in range(n_neighbors)}
        p_mig = np.array([6.0, -1.0, 0.5])
        for _ in range(2):  # a fresh frame, then the kept one
            qp, meta = build_qp(state, hold_position_plan(state.position, cfg), preds,
                                obstacles, p_mig, local_bundle)
            assert len(meta["probes"]) == n_obstacles
            # the dense assembly of every plan before frames were kept
            n_w, w = local_bundle.n_w, cfg.weights
            counts = [n_obstacles, n_neighbors * cfg.horizon, n_neighbors * cfg.horizon]
            n = n_w + sum(counts)
            q_ref = np.zeros((n, n))
            q_ref[:n_w, :n_w] = local_bundle.hessian
            q_ref[np.arange(n_w, n), np.arange(n_w, n)] = np.repeat(
                [2 * w.q_saf, 2 * w.q_saf, 2 * w.q_coh], counts)
            lin_ref = np.concatenate([
                -2 * w.q_mig * (local_bundle.basis.matrix.T @ np.tile(p_mig, cfg.horizon)),
                np.repeat([w.l_saf, w.l_saf, w.l_coh], counts)])
            r_ref = np.zeros((local_bundle.eq_rows.shape[0], n))
            r_ref[:, :n_w] = local_bundle.eq_rows
            assert np.array_equal(qp.Q, q_ref)
            assert np.array_equal(qp.q, lin_ref)
            assert np.array_equal(qp.R, r_ref)
            assert qp.Q is local_bundle.frame(n_obstacles, n_neighbors).Q.matrix

    def test_frame_is_read_only(self, cfg, bundle):
        qp, meta, _ = crowded_instance(cfg, bundle)
        frame = bundle.frame(len(meta["probes"]), len(meta["neighbors"]))
        assert qp.Q is frame.Q.matrix and np.shares_memory(qp.R, frame.R)
        for array in (qp.Q, qp.R):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            frame.R = np.zeros_like(frame.R)

    def test_frame_owned_parts_are_shared_and_read_only(self, cfg, bundle):
        qp, meta, _ = crowded_instance(cfg, bundle)
        qp2, meta2, _ = crowded_instance(cfg, bundle)
        frame = bundle.frame(len(meta["probes"]), len(meta["neighbors"]))
        # two build_qp calls on one frame hold the frame's own arrays, or views of them
        for name, owned in (("Q", frame.Q.matrix), ("R", frame.R), ("lb", frame.lb)):
            for built in (qp, qp2):
                assert getattr(built, name) is owned or getattr(built, name).base is owned, name
        assert qp.layout is qp2.layout is frame.layout
        assert meta["nb_rows"] is meta2["nb_rows"] is frame.nb_rows
        assert np.array_equal(qp.q[bundle.n_w:], frame.q_slack)
        assert np.all(qp.G[frame.nb_rows, frame.nb_cols] == -1.0)
        for array in (frame.Q.matrix, frame.R, frame.lb, frame.q_slack, frame.nb_rows,
                      frame.nb_cols):
            assert not array.flags.writeable

        # a write through a built QP fails, and leaves every later plan as it was
        state = AgentState([0.0, 0.0, 0.0], [0.2, 0.0, 0.0])
        args = (state, hold_position_plan(state.position, cfg),
                {1: hold_position_trajectory([1.5, 0.5, 0.0], cfg.horizon)}, two_obstacles(),
                [10.0, 0.0, 0.0], bundle)
        before = plan(*args)
        warm_before = plan(*args, hint_labels=before.active_labels)
        qp, meta = build_qp(*args)
        for array in (qp.Q, qp.R, qp.lb, meta["nb_rows"]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
        with pytest.raises(TypeError):
            qp.layout["w"] = slice(0, 1)
        after = plan(*args)
        warm_after = plan(*args, hint_labels=after.active_labels)
        for first, second in ((before, after), (warm_before, warm_after)):
            assert np.array_equal(first.plan.control_points, second.plan.control_points)
            assert np.array_equal(first.trajectory, second.trajectory)
            assert first.active_labels == second.active_labels

    def test_hessian_probe_once_per_frame_over_an_episode(self, cfg, monkeypatch):
        real_cholesky = scipy.linalg.cholesky
        cholesky_calls, frames, solves = [], set(), []
        real_solve = dmpc.solve

        def counting_cholesky(*args, **kwargs):
            cholesky_calls.append(1)
            return real_cholesky(*args, **kwargs)

        def recording_solve(qp, *args, **kwargs):
            frames.add(id(qp.Q))
            solves.append(qp.num_vars)
            return real_solve(qp, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(dmpc, "solve", recording_solve)
        desk = sample_scenario(0, ScenarioConfig(n_min=4, n_max=5, p_mig=(18.0, 0.0, 0.0)))
        local_bundle = BasisBundle(cfg)
        run_episode(desk, "oracle", controller=cfg, ticks=5, seed=0, bundle=local_bundle)
        assert len(solves) == 5 * desk.n
        assert 0 < len(cholesky_calls) <= len(frames) < len(solves)

    def test_agents_at_r_min_activate_safety(self, cfg, bundle):
        state = AgentState([0, 0, 0], [0, 0, 0])
        prev = hold_position_plan(state.position, cfg)
        neighbor = hold_position_trajectory([cfg.r_min, 0.0, 0.0], cfg.horizon)
        qp, meta = build_qp(state, prev, {1: neighbor}, [], [0.0, 0, 0], bundle)
        sol = solve(qp)
        assert sol.status == SolveStatus.OPTIMAL
        eps = sol.x[qp.layout["eps"]]
        safety_rows = meta["nb_rows"][..., 0].ravel()
        slack = qp.h - qp.G @ sol.x
        active = (sol.ineq_duals[safety_rows] > 1e-6) | (slack[safety_rows] < 1e-6)
        assert np.any(active) or eps.max() > 1e-8

    def test_migration_progress_with_only_q_mig(self, bundle):
        cfg = ControllerConfig(weights=CostWeights(q_mig=1.0, l_saf=0, q_saf=0,
                                                   l_coh=0, q_coh=0, q_eft=0))
        local_bundle = BasisBundle(cfg)
        state = AgentState([0, 0, 0], [0, 0, 0])
        prev = hold_position_plan(state.position, cfg)
        p_mig = np.array([5.0, 0.0, 0.0])
        result = plan(state, prev, {}, [], p_mig, local_bundle)
        start_dist = np.linalg.norm(state.position - p_mig)
        end = result.trajectory.reshape(cfg.horizon, 3)[-1]
        assert np.linalg.norm(end - p_mig) < start_dist

    def test_layout_roundtrip(self, cfg, bundle):
        state = AgentState([1.0, 0.5, -0.2], [0.1, 0, 0])
        prev = hold_position_plan(state.position, cfg)
        nb = hold_position_trajectory([2.0, 0.0, 0.0], cfg.horizon)
        qp, _ = build_qp(state, prev, {3: nb}, [], [5.0, 0, 0], bundle)
        sol = solve(qp)
        w = sol.x[qp.layout["w"]]
        result_traj = bundle.basis.matrix @ w
        assert np.array_equal(result_traj, bundle.basis.matrix @ sol.x[:bundle.n_w])


class TestPlan:
    def test_equilibrium_at_goal(self, cfg, bundle):
        p_mig = np.array([1.0, 2.0, 0.5])
        state = AgentState(p_mig, [0, 0, 0])
        prev = hold_position_plan(p_mig, cfg)
        result = plan(state, prev, {}, [], p_mig, bundle)
        assert result.status == SolveStatus.OPTIMAL
        assert np.max(np.abs(result.trajectory.reshape(cfg.horizon, 3) - p_mig)) < 1e-5
        assert result.costs["control_effort"] < 1e-8

    def test_cost_decomposition_matches_solver_objective(self, cfg, bundle):
        rng = np.random.default_rng(1)
        state = AgentState([0, 0, 0], [0.2, 0, 0])
        prev = hold_position_plan(state.position, cfg)
        preds = {j: hold_position_trajectory(rng.normal(scale=2.0, size=3), cfg.horizon)
                 for j in range(2)}
        qp, meta = build_qp(state, prev, preds, two_obstacles(), [20.0, 0, 0], bundle)
        result = plan(state, prev, preds, two_obstacles(), [20.0, 0, 0], bundle)
        sol = solve(qp)
        assert abs(result.total_cost - (sol.objective + qp.objective_constant)) < 1e-6

    def test_total_equals_component_sum(self, cfg, bundle):
        state = AgentState([0, 0, 0], [0, 0, 0])
        prev = hold_position_plan(state.position, cfg)
        result = plan(state, prev, {}, [], [20.0, 0, 0], bundle)
        assert result.total_cost == pytest.approx(sum(result.costs.values()), abs=1e-9)

    def test_c2_continuity_of_solved_plans(self, cfg, bundle):
        state = AgentState([0, 0, 0], [0.3, -0.1, 0.05])
        prev = hold_position_plan(state.position, cfg)
        result = plan(state, prev, {}, [], [20.0, 0, 0], bundle)
        bez = result.plan
        for order in (0, 1, 2):
            curve = bez if order == 0 else derivative_plan(bez, order)
            for s in range(1, cfg.segments):
                t = s * bundle.seg_dur
                left = curve.control_points[s - 1][-1]
                right = curve.control_points[s][0]
                assert np.max(np.abs(left - right)) < 1e-6, (order, s)

    def test_dynamics_bounds_on_derivative_control_points(self, cfg, bundle):
        state = AgentState([0, 0, 0], [0, 0, 0])
        prev = hold_position_plan(state.position, cfg)
        result = plan(state, prev, {}, [], [20.0, 0, 0], bundle)
        vel_cp = (bundle.d1 @ result.plan.flatten())
        acc_cp = (bundle.d2 @ result.plan.flatten())
        assert vel_cp.max() <= cfg.limits.v_max + 1e-6
        assert vel_cp.min() >= cfg.limits.v_min - 1e-6
        assert acc_cp.max() <= cfg.limits.a_max + 1e-6
        assert acc_cp.min() >= cfg.limits.a_min - 1e-6

    def test_initial_conditions_pinned(self, cfg, bundle):
        state = AgentState([0.5, -0.5, 0.1], [0.4, 0.2, -0.1])
        prev = hold_position_plan(state.position, cfg)
        result = plan(state, prev, {}, [], [20.0, 0, 0], bundle)
        assert np.allclose(eval_bezier(result.plan, 0.0), state.position, atol=1e-7)
        vel = derivative_plan(result.plan, 1)
        assert np.allclose(eval_bezier(vel, 0.0), state.velocity, atol=1e-7)

    def test_slack_soundness_when_separated(self, cfg, bundle):
        state = AgentState([0, 0, 0], [0, 0, 0])
        prev = hold_position_plan(state.position, cfg)
        nb = hold_position_trajectory([4.0, 0.0, 0.0], cfg.horizon)  # within r_coh? 4 > 2.5
        preds = {1: hold_position_trajectory([1.0, 0.0, 0.0], cfg.horizon)}
        result = plan(state, prev, preds, [], state.position, bundle)
        assert result.slack_safety.max(initial=0.0) <= 1e-6

    def test_obstacle_between_start_and_goal_avoided(self, cfg, bundle):
        from swarmcoord.geometry import surface_distance
        obstacles = [Ellipsoid.axis_aligned([3.0, 0.0, 0.0], [1.0, 1.0, 1.0])]
        state = AgentState([0, 0, 0.2], [0, 0, 0])
        prev = hold_position_plan(state.position, cfg)
        min_sd = np.inf
        best_goal_dist = np.inf
        for _ in range(110):
            result = plan(state, prev, {}, obstacles, [6.0, 0, 0], bundle)
            assert result.status == SolveStatus.OPTIMAL
            setpoint = result.trajectory[:3]
            # position controller tracks perfectly for this test
            state = AgentState(setpoint, (result.trajectory[3:6] - setpoint) / cfg.dt)
            prev = result.plan
            min_sd = min(min_sd, surface_distance(obstacles[0], state.position))
            best_goal_dist = min(best_goal_dist,
                                 np.linalg.norm(state.position - [6.0, 0, 0]))
        assert min_sd >= 0.07
        assert best_goal_dist < 0.5

    def test_empty_hint_takes_the_hint_path(self, cfg, bundle, monkeypatch):
        # an isolated agent at rest on its goal holds no row active, so its
        # hint is the empty set; an empty hint is still a hint, and the first
        # plan's guess (no row active, every slack at zero) is already optimal
        iterations = []
        real_solve = dmpc.solve

        def recording_solve(qp, *args, **kwargs):
            sol = real_solve(qp, *args, **kwargs)
            iterations.append(sol.iterations)
            return sol

        monkeypatch.setattr(dmpc, "solve", recording_solve)
        p_mig = np.array([1.0, -2.0, 0.5])
        state = AgentState(p_mig, [0.0, 0.0, 0.0])
        prev, hint = hold_position_plan(p_mig, cfg), None
        for _ in range(4):
            result = plan(state, prev, {}, [], p_mig, bundle, hint_labels=hint)
            assert result.status == SolveStatus.OPTIMAL
            assert result.active_labels == frozenset()
            prev, hint = result.plan, result.active_labels
        assert iterations == [0, 0, 0, 0]

    def test_one_plan_fires_every_benchmark_hook(self, cfg, bundle, monkeypatch):
        # the benchmark's layer tracer times plan() through these module
        # attributes, and fails a workload on which one of them never fires
        calls = dict.fromkeys(["QpInstance", "point_surface_distance", "eval_bezier", "solve"], 0)

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(dmpc, name, counting(name, getattr(dmpc, name)))
        state = AgentState([0.0, 0.0, 0.0], [0.2, 0.0, 0.0])
        preds = {1: hold_position_trajectory([1.5, 0.5, 0.0], cfg.horizon)}
        result = plan(state, hold_position_plan(state.position, cfg), preds, two_obstacles(),
                      [10.0, 0.0, 0.0], bundle)
        assert result.status == SolveStatus.OPTIMAL
        assert all(count > 0 for count in calls.values()), calls

    def test_hint_masks_and_active_labels_match_label_loops(self, cfg, monkeypatch):
        # plan() builds its hint masks and its active labels in C-level
        # passes; on every warm plan of a DESK oracle episode they must be
        # what the label-by-label loops give. A 1 m comm range makes the
        # neighbour sets change along the episode, as the probes do.
        solved = recording_solves(monkeypatch)
        metas, calls = [], []
        real_build, real_plan = dmpc.build_qp, episode.plan

        def recording_build(*args):
            qp, meta = real_build(*args)
            metas.append(meta)
            return qp, meta

        def recording_plan(*args, hint_labels=None):
            calls.append((hint_labels, real_plan(*args, hint_labels=hint_labels)))
            return calls[-1][1]

        monkeypatch.setattr(dmpc, "build_qp", recording_build)
        monkeypatch.setattr(episode, "plan", recording_plan)
        desk = sample_scenario(0, ScenarioConfig(n_min=4, n_max=5, p_mig=(18.0, 0.0, 0.0)))
        run_episode(desk, "oracle", controller=cfg, ticks=30, seed=1000,
                    channel=ChannelConfig(comm_range=1.0))
        assert len(metas) == len(solved) == len(calls) == 30 * desk.n

        warm = []
        for k, ((hint_labels, result), meta, (qp, kwargs, sol)) in enumerate(
                zip(calls, metas, solved)):
            if hint_labels is None:
                continue
            warm.append(k)
            for mask, labels in ((kwargs["active_set_hint"], meta["labels"]),
                                 (kwargs["bound_hint"], meta["bound_labels"])):
                assert mask.dtype == bool
                assert np.array_equal(mask, [lab in hint_labels for lab in labels])
            if result.fallback:
                assert result.active_labels is None
                continue
            rows, bounds = active_set(qp, sol)
            assert result.active_labels == frozenset(
                [lab for lab, a in zip(meta["labels"], rows) if a]
                + [lab for lab, a in zip(meta["bound_labels"], bounds) if a])

        assert len(warm) > 0.9 * len(calls)
        after_tick0 = [(metas[k - desk.n], metas[k]) for k in warm if k >= desk.n]
        assert any(old["neighbors"] != new["neighbors"] for old, new in after_tick0)
        assert any([p.obstacle for p in old["probes"]] != [p.obstacle for p in new["probes"]]
                   for old, new in after_tick0)

    def test_warm_start_and_hint_consistent(self, cfg, bundle):
        state = AgentState([0, 0, 0], [0, 0, 0])
        prev = hold_position_plan(state.position, cfg)
        preds = {1: hold_position_trajectory([1.5, 0.5, 0.0], cfg.horizon)}
        first = plan(state, prev, preds, [], [10.0, 0, 0], bundle)
        second = plan(state, prev, preds, [], [10.0, 0, 0], bundle,
                      hint_labels=first.active_labels)
        assert abs(first.total_cost - second.total_cost) < 1e-6


DATA = Path(__file__).parent / "data"
CROWDED_QPS = DATA / "crowded_qps.bin"
TICK0_QPS = DATA / "tick0_qps.bin"


def fixture_inputs(arrays, key, segment_duration, scenario):
    """The (state, prev_plan, predictions, obstacles, p_mig) of one plan()
    call stored by data/make_crowded_qps.py; scenario is the key prefix of
    its obstacles and p_mig."""
    obstacles = [Ellipsoid(c, e) for c, e in zip(arrays[f"{scenario}obstacle_centers"],
                                                 arrays[f"{scenario}obstacle_shapes"])]
    neighbors = [int(j) for j in arrays[f"{key}.neighbors"]]
    state = AgentState(arrays[f"{key}.position"], arrays[f"{key}.velocity"])
    prev = BezierPlan(arrays[f"{key}.prev_control_points"], segment_duration)
    preds = dict(zip(neighbors, arrays[f"{key}.predictions"]))
    return state, prev, preds, obstacles, arrays[f"{scenario}p_mig"]


def crowded_qps(cfg, bundle):
    """The QPs of the two crowded agent-ticks, which share one scenario."""
    arrays, meta = read_container(CROWDED_QPS, expect_format="swarmcoord-crowded-qps")
    for rec in meta["agent_ticks"]:
        key = f"{rec['tick']}.{rec['agent']}"
        yield build_qp(*fixture_inputs(arrays, key, rec["segment_duration"], ""), bundle)[0]


def tick0_inputs():
    """The plan() inputs of the three tick-0 agent-ticks, each from its own scenario."""
    arrays, meta = read_container(TICK0_QPS, expect_format="swarmcoord-tick0-qps")
    for rec in meta["agent_ticks"]:
        key = f"{rec['scenario_seed']}.{rec['agent']}"
        yield fixture_inputs(arrays, key, rec["segment_duration"], f"{key}.")


def tick0_qps(bundle):
    """The QPs of the three tick-0 agent-ticks."""
    for inputs in tick0_inputs():
        yield build_qp(*inputs, bundle)[0]


class TestCrowdedQps:
    def test_optimal_within_default_budget(self, cfg, bundle):
        # on unscaled data both ran out the default 20000 ADMM iterations
        qps = list(crowded_qps(cfg, bundle))
        assert [qp.num_vars for qp in qps] == [342, 214]
        for qp in qps:
            sol = solve(qp)  # default max_iter
            assert sol.status == SolveStatus.OPTIMAL
            assert all(v <= 1e-6 for v in kkt_residuals(qp, sol).values())

    def test_polish_matches_full_system_reference(self, cfg, bundle):
        # The polish factors only the variables no active slack bound pins;
        # the full-system polish in qp_testing is the reference. Candidates:
        # the solution's active rows and bounds, and the same rows alone.
        qp, _, _ = crowded_instance(cfg, bundle)
        sol = solve(qp)
        assert sol.status == SolveStatus.OPTIMAL
        act, bounds = active_set(qp, sol)
        assert np.count_nonzero(bounds) > 0
        for pinned in (bounds, np.zeros_like(bounds)):
            assert_same_polish(qp, _try_polish(qp, act, pinned, 0),
                               reference_polish(qp, act, pinned)[0])

    def test_every_fixture_within_step_budget(self, cfg, bundle):
        # The tick-0 QPs ran out 20000 iterations of the equilibrated ADMM,
        # and the crowded ones needed 875-1825.
        qps = [*crowded_qps(cfg, bundle), *tick0_qps(bundle)]
        assert [qp.num_vars for qp in qps] == [342, 214, 214, 214, 214]
        for qp in qps:
            sol = solve(qp)
            assert sol.status == SolveStatus.OPTIMAL
            assert all(v <= 1e-6 for v in kkt_residuals(qp, sol).values())
            assert 1 <= sol.iterations <= 50

    def test_bound_form_matches_row_form(self, cfg, bundle):
        # The slack bounds in lb against the same bounds as -I rows of G:
        # the same solution, and dlb against central differences over the
        # bounds whose moves keep the active set.
        rng = np.random.default_rng(11)
        for qp in [*crowded_qps(cfg, bundle), *tick0_qps(bundle)]:
            sol = assert_bound_form_matches_row_form(qp)
            err, compared, finite = dlb_check(qp, sol, rng.normal(size=qp.num_vars))
            assert err <= 1e-9 and compared >= 0.95 * finite

    def test_tick0_fixtures_within_twelve_steps(self, bundle):
        # The multipliers start at the scale of the slack penalties, so the
        # steps run near full length from the first.
        for qp in tick0_qps(bundle):
            sol = solve(qp)
            assert sol.status == SolveStatus.OPTIMAL
            assert sol.iterations <= 12


HOSTILE_POSITION = np.array([1.0, -0.5, 0.3])


def hostile_inputs(case, horizon):
    """(velocity, neighbour predictions, obstacles) of one hostile plan() call
    at HOSTILE_POSITION; every case but one changes a calm baseline."""
    velocity, obstacles = [0.2, 0.0, 0.0], two_obstacles()
    preds = {1: hold_position_trajectory(HOSTILE_POSITION + [1.0, 0.0, 0.0], horizon)}
    if case == "no neighbours":
        preds = {}
    elif case == "1e3 m prediction noise":
        rng = np.random.default_rng(5)
        preds = {j: rng.normal(scale=1e3, size=3 * horizon) for j in (1, 2, 3)}
    elif case == "two neighbours on the agent":
        preds = {j: hold_position_trajectory(HOSTILE_POSITION, horizon) for j in (1, 2)}
    elif case == "at an obstacle's centre":
        obstacles = [Ellipsoid.axis_aligned(HOSTILE_POSITION, [0.5, 0.4, 0.6])]
    elif case == "5 m/s per axis":
        velocity = [5.0, 5.0, 5.0]
    return velocity, preds, obstacles


class TestHostileInputs:
    @pytest.mark.parametrize("case", ["no neighbours", "1e3 m prediction noise",
                                      "two neighbours on the agent", "at an obstacle's centre",
                                      "5 m/s per axis"])
    def test_contract_or_explicit_status(self, cfg, bundle, monkeypatch, case):
        # Either OPTIMAL within the residual contract or a non-OPTIMAL
        # status with a fallback, in both cases within the default budget.
        real_solve, solved = dmpc.solve, []

        def recording(qp, **kwargs):
            solved.append((qp, real_solve(qp, **kwargs)))
            return solved[-1][1]

        monkeypatch.setattr(dmpc, "solve", recording)
        velocity, preds, obstacles = hostile_inputs(case, cfg.horizon)
        result = plan(AgentState(HOSTILE_POSITION, velocity),
                      hold_position_plan(HOSTILE_POSITION, cfg), preds, obstacles,
                      [20.0, 0, 0], bundle)
        ((qp, sol),) = solved
        assert sol.iterations <= 50
        assert result.status == sol.status
        assert result.fallback == (sol.status != SolveStatus.OPTIMAL)
        if not result.fallback:
            assert all(v <= 1e-6 for v in kkt_residuals(qp, sol).values())
        assert np.all(np.isfinite(result.trajectory))


def recording_solves(monkeypatch):
    """Replace dmpc.solve by one that records (qp, its keyword arguments, solution)."""
    real_solve, solved = dmpc.solve, []

    def recording(qp, **kwargs):
        solved.append((qp, kwargs, real_solve(qp, **kwargs)))
        return solved[-1][2]

    monkeypatch.setattr(dmpc, "solve", recording)
    return solved


class TestColdGuess:
    """A plan with no previous active set polishes from the guess "no row
    active, every slack at zero" before it runs the interior point."""

    def test_tick0_fixtures_polish_the_guess(self, bundle, monkeypatch):
        # the three QPs on which the equilibrated ADMM ran out of iterations
        solved = recording_solves(monkeypatch)
        for inputs in tick0_inputs():
            result = plan(*inputs, bundle)
            assert result.status == SolveStatus.OPTIMAL
        assert len(solved) == 3
        for qp, _, sol in solved:
            assert sol.iterations == 0
            assert np.max(np.abs(sol.x - solve(qp).x)) <= 1e-9

    def test_failed_guess_ends_in_the_interior_point(self, cfg, bundle, monkeypatch):
        solved = recording_solves(monkeypatch)
        velocity, preds, obstacles = hostile_inputs("1e3 m prediction noise", cfg.horizon)
        result = plan(AgentState(HOSTILE_POSITION, velocity),
                      hold_position_plan(HOSTILE_POSITION, cfg), preds, obstacles,
                      [20.0, 0, 0], bundle)
        ((qp, kwargs, sol),) = solved
        assert _try_polish(qp, kwargs["active_set_hint"], kwargs["bound_hint"], 0) is None
        assert result.status == sol.status == SolveStatus.OPTIMAL and not result.fallback
        assert sol.iterations > 0

    def test_plan_after_a_fallback_gets_the_guess(self, cfg, bundle, monkeypatch):
        real_solve, calls = dmpc.solve, []

        def first_fails(qp, **kwargs):
            calls.append((qp, kwargs))
            return real_solve(qp, max_iter=1) if len(calls) == 1 else real_solve(qp, **kwargs)

        monkeypatch.setattr(dmpc, "solve", first_fails)
        state = AgentState([0, 0, 0], [0.2, 0, 0])
        first = plan(state, hold_position_plan(state.position, cfg), {}, two_obstacles(),
                     [20.0, 0, 0], bundle)
        assert first.fallback and first.active_labels is None
        second = plan(state, first.plan, {}, two_obstacles(), [20.0, 0, 0], bundle,
                      hint_labels=first.active_labels)
        assert second.status == SolveStatus.OPTIMAL
        qp, kwargs = calls[1]
        assert kwargs["active_set_hint"] is not None and not np.any(kwargs["active_set_hint"])
        assert np.array_equal(kwargs["bound_hint"], np.isfinite(qp.lb))


class TestFallbackWarning:
    def test_names_iterations_and_largest_residual(self, cfg, bundle, monkeypatch, caplog):
        # the fallback is forced by one interior-point step with no hint, so
        # no polish of a hint or of the guess can succeed first
        real_solve = dmpc.solve
        monkeypatch.setattr(dmpc, "solve", lambda qp, **kw: real_solve(qp, max_iter=1))
        state = AgentState([0, 0, 0], [0.2, 0, 0])
        prev = hold_position_plan(state.position, cfg)
        with caplog.at_level(logging.WARNING, logger="swarmcoord.dmpc"):
            result = plan(state, prev, {}, two_obstacles(), [20.0, 0, 0], bundle)
        assert result.fallback and result.status == SolveStatus.MAX_ITER
        (record,) = caplog.records
        message = record.getMessage()
        assert "max-iter after 1 iterations" in message
        assert any(f"largest KKT residual {name}" in message
                   for name in ("stationarity", "primal_eq", "primal_ineq", "complementarity"))

    def test_fits_the_time_shifted_previous_plan(self, cfg, bundle, monkeypatch):
        real_solve, real_build, metas = dmpc.solve, dmpc.build_qp, []
        monkeypatch.setattr(dmpc, "solve", lambda qp, **kw: real_solve(qp, max_iter=1))

        def recording(*args):
            qp, meta = real_build(*args)
            metas.append(meta)
            return qp, meta

        monkeypatch.setattr(dmpc, "build_qp", recording)
        # control points equally spaced in time: a line along +x at 1 m/s
        times = (np.arange(cfg.segments)[:, None]
                 + np.arange(cfg.degree + 1) / cfg.degree) * bundle.seg_dur
        prev = BezierPlan(times[..., None] * [1.0, 0.0, 0.0], bundle.seg_dur)
        state = AgentState(eval_bezier(prev, cfg.dt), [1.0, 0, 0])
        result = plan(state, prev, {}, two_obstacles(), [20.0, 0, 0], bundle)
        assert result.fallback and result.status == SolveStatus.MAX_ITER
        (meta,) = metas
        # on time: one tick after the previous plan started, at t = dt, the
        # fallback reads the previous plan at 2 dt (0.40 m), not 3 dt
        assert abs(result.trajectory[0] - 2 * cfg.dt) < 1e-4
        # the fit follows the shifted plan everywhere; the C2 spline cannot
        # follow the kink where the shift holds the terminal point exactly
        assert np.max(np.abs(result.trajectory - meta["prev_traj"])) < 1e-2


def per_row_gradients(meta, d_g, d_h, cfg, bundle):
    """Reference for prediction_row_gradients: one saf/coh row at a time."""
    f, n_w = bundle.basis.matrix, bundle.n_w
    m = cfg.agent_shape.T @ cfg.agent_shape
    prev_pts = meta["prev_traj"].reshape(cfg.horizon, 3)
    grads = {j: np.zeros(3 * cfg.horizon) for j in meta["neighbors"]}
    for row, (kind, *key) in enumerate(meta["labels"]):
        if kind not in ("saf", "coh"):
            continue
        j, k = key
        p_tilde = meta["preds"][meta["neighbors"].index(j), k]
        u = prev_pts[k] - p_tilde
        s = np.sqrt(u @ m @ u)
        eta = m[:, 0] / np.sqrt(m[0, 0]) if s < 1e-9 else m @ u / s
        c = -1.0 if kind == "saf" else 1.0
        d_eta = c * (f[3 * k:3 * k + 3] @ d_g[row, :n_w]) + c * d_h[row] * p_tilde
        d_ptilde = c * d_h[row] * eta
        if s >= 1e-9:
            d_ptilde -= (m / s - np.outer(m @ u, m @ u) / s**3) @ d_eta
        grads[j][3 * k:3 * k + 3] += d_ptilde
    return grads


class TestPredictionGradients:
    @pytest.mark.parametrize("shape", [np.eye(3), np.diag([1.0, 0.7, 1.6])])
    def test_matches_per_row_reference(self, shape):
        cfg = ControllerConfig(agent_shape=shape)
        bundle = BasisBundle(cfg)
        qp, meta, _ = crowded_instance(cfg, bundle)
        rng = np.random.default_rng(5)
        d_g, d_h = rng.normal(size=qp.G.shape), rng.normal(size=qp.num_ineq)
        got = prediction_row_gradients(meta, d_g, d_h, bundle)
        want = per_row_gradients(meta, d_g, d_h, cfg, bundle)
        assert list(got) == list(want) == [2, 4, 9]
        for j in want:
            assert np.max(np.abs(got[j] - want[j])) <= 1e-12 * np.max(np.abs(want[j]))

    def test_beta_term_gradient_matches_finite_difference(self, cfg, bundle):
        from swarmcoord.qpdiff import backward, factorize

        rng = np.random.default_rng(7)
        state = AgentState([0, 0, 0], [0.1, 0, 0])
        prev = hold_position_plan(state.position, cfg)
        base_pred = hold_position_trajectory([0.8, 0.3, 0.0], cfg.horizon)
        base_pred = base_pred + rng.normal(scale=0.01, size=base_pred.size)
        p_mig = np.array([5.0, 0, 0])

        def solve_u_star(pred):
            qp, meta = build_qp(state, prev, {1: pred}, [], p_mig, bundle)
            sol = solve(qp)
            assert sol.status == SolveStatus.OPTIMAL
            return qp, meta, sol

        target = rng.normal(size=3 * cfg.horizon)

        def beta_loss(pred):
            qp, _, sol = solve_u_star(pred)
            u_star = bundle.basis.matrix @ sol.x[qp.layout["w"]]
            return float(np.sum((u_star - target) ** 2))

        qp, meta, sol = solve_u_star(base_pred)
        u_star = bundle.basis.matrix @ sol.x[qp.layout["w"]]
        dl_du_star = 2 * (u_star - target)
        dl_dx = np.zeros(qp.num_vars)
        dl_dx[qp.layout["w"]] = bundle.basis.matrix.T @ dl_du_star
        grads = backward(factorize(qp, sol), dl_dx)
        pred_grads = prediction_row_gradients(meta, grads["dG"], grads["dh"], bundle)

        step = 1e-5
        check_idx = rng.choice(3 * cfg.horizon, size=12, replace=False)
        fd = np.zeros(len(check_idx))
        for out_i, i in enumerate(check_idx):
            hi = base_pred.copy()
            hi[i] += step
            lo = base_pred.copy()
            lo[i] -= step
            fd[out_i] = (beta_loss(hi) - beta_loss(lo)) / (2 * step)
        analytic = pred_grads[1][check_idx]
        denom = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(analytic - fd)) / denom < 1e-3

    def test_several_neighbours_match_finite_difference(self, cfg, bundle):
        # the saf/coh rows of three neighbours sit between the box rows and
        # the rows of two probed obstacles; neighbour 9 is degenerate (u = 0)
        from swarmcoord.qpdiff import backward, factorize

        p_mig = (6.0, 6.0, 0.0)
        qp, meta, _ = crowded_instance(cfg, bundle, p_mig)
        sol = solve(qp)
        assert sol.status == SolveStatus.OPTIMAL
        hint, bound_hint = active_set(qp, sol)
        f = bundle.basis.matrix
        target = np.random.default_rng(3).normal(size=3 * cfg.horizon)

        def loss(nudge):
            qp_n, _, _ = crowded_instance(cfg, bundle, p_mig, nudge)
            sol_n = solve(qp_n, active_set_hint=hint, bound_hint=bound_hint)
            assert sol_n.status == SolveStatus.OPTIMAL
            return float(np.sum((f @ sol_n.x[qp_n.layout["w"]] - target) ** 2))

        dl_dx = np.zeros(qp.num_vars)
        dl_dx[qp.layout["w"]] = 2 * f.T @ (f @ sol.x[qp.layout["w"]] - target)
        grads = backward(factorize(qp, sol), dl_dx)
        pred_grads = prediction_row_gradients(meta, grads["dG"], grads["dh"], bundle)
        assert sorted(pred_grads) == [2, 4, 9]
        assert [j for j, d in zip(meta["neighbors"], meta["degenerate"]) if d.any()] == [9]
        # neighbour 9's eta is the +x fallback, which does not move with its
        # prediction: only the right-hand side term remains, along x
        assert np.all(np.isfinite(pred_grads[9]))
        assert not np.any(pred_grads[9].reshape(cfg.horizon, 3)[:, 1:])
        # a safety row of neighbour 4 is active, so its check is not 0 = 0
        assert np.max(np.abs(pred_grads[4])) > 1e-3

        step = 1e-5
        for j in (2, 4):
            fd = np.zeros(3 * cfg.horizon)
            for i in range(fd.size):
                offset = np.zeros(fd.size)
                offset[i] = step
                fd[i] = (loss({j: offset}) - loss({j: -offset})) / (2 * step)
            denom = max(1.0, np.max(np.abs(fd)))
            assert np.max(np.abs(pred_grads[j] - fd)) / denom < 1e-3, j
