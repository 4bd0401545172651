import copy
import hashlib
import itertools

import numpy as np
import pytest
import scipy.linalg

from swarmcoord import dmpc, predictor
from swarmcoord.dmpc import (
    AgentState,
    BasisBundle,
    ControllerConfig,
    MotionLimits,
    hold_position_plan,
)
from swarmcoord.geometry import euclidean_project_ellipsoid, surface_distance
from swarmcoord.predictor import (
    CodecCalibration,
    Message,
    PredictorConfig,
    TrajectoryPredictor,
    init_predictor_params,
    shift_trajectory,
)
from swarmcoord.swarmsim import (
    ChannelConfig,
    RunMode,
    ScenarioConfig,
    channel_deliver,
    comm_graph,
    episode,
    make_default_dynamics,
    metrics,
    prediction_error_per_step,
    run_episode,
    sample_scenario,
    step_dynamics,
    validate_scenario,
    write_trace_csvs,
)
from swarmcoord.qpcore import SolveStatus
from swarmcoord.swarmsim.metrics import R_COLL_DEFAULT

DESK_SCENARIO = ScenarioConfig(n_min=4, n_max=5, p_mig=(18.0, 0.0, 0.0))


def no_plan(*args, **kwargs):
    raise AssertionError("planned before the config checks")


class TestScenario:
    def test_deterministic_in_seed(self):
        a = sample_scenario(7)
        b = sample_scenario(7)
        assert np.array_equal(a.positions(), b.positions())
        for oa, ob in zip(a.obstacles, b.obstacles):
            assert np.array_equal(oa.center, ob.center)
            assert np.array_equal(oa.shape_matrix, ob.shape_matrix)

    def test_invariant_sweep(self):
        cfg = ScenarioConfig()
        for seed in range(30):
            sc = sample_scenario(seed, cfg)
            assert validate_scenario(sc, cfg) == [], seed

    def test_goal_clearance_is_exact(self):
        sc = sample_scenario(3)
        obs = sc.obstacles[0]
        sc.p_mig = obs.center.copy()
        assert validate_scenario(sc) == ["migration point inside obstacle clearance"]
        # on the x axis of the axis-aligned obstacle the nearest surface point is
        # its vertex; the scaled distance would reject both goals
        vertex = obs.center + [1.0 / obs.shape_matrix[0, 0], 0.0, 0.0]
        sc.p_mig = vertex + [0.34, 0.0, 0.0]
        assert validate_scenario(sc) == ["migration point inside obstacle clearance"]
        sc.p_mig = vertex + [0.36, 0.0, 0.0]
        assert validate_scenario(sc) == []

    def test_gap_agrees_with_dense_sampling(self):
        rng = np.random.default_rng(0)
        sc = sample_scenario(3)
        a, b = sc.obstacles
        dirs = rng.normal(size=(4000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sa = a.center + np.linalg.solve(a.shape_matrix, dirs.T).T
        sb = b.center + np.linalg.solve(b.shape_matrix, dirs.T).T
        sampled = np.min(np.linalg.norm(sa[:, None, :] - sb[None, :, :], axis=2))
        assert abs(sc.accepted_gap - sampled) < 0.05

    def test_benchmark_scenarios_are_pinned(self):
        # desk-oracle and desk-eg run sample_scenario(0) of the DESK config,
        # swarm13-oracle sample_scenario(3); a change to the sampler or to
        # the gap check must not move them silently
        for sc, digest in (
                (sample_scenario(0, DESK_SCENARIO),
                 "c32b3ddf728899ccd89f572d481b57a7a500dcd4eb1ec87b2b3d127d35f933f2"),
                (sample_scenario(3),
                 "f697ace19b920a45cce72a05d58371a34a1eb8e40e1a23f4486979a9384bde1a")):
            parts = ([a.position for a in sc.agents] + [a.velocity for a in sc.agents]
                     + [x for o in sc.obstacles for x in (o.center, o.shape_matrix)])
            data = b"".join(np.asarray(x, dtype="<f8").tobytes() for x in parts)
            assert hashlib.sha256(data).hexdigest() == digest

    def test_starts_clear_obstacles(self):
        for seed in range(10):
            sc = sample_scenario(seed)
            for agent in sc.agents:
                for obs in sc.obstacles:
                    assert surface_distance(obs, agent.position) >= 0.15 - 1e-9


def hold(setpoint):
    """A held setpoint: the plan that rests at it."""
    return hold_position_plan(setpoint, ControllerConfig())


class TestDynamics:
    def test_hold_setpoint_is_equilibrium(self):
        model = make_default_dynamics()
        p = np.array([1.0, -2.0, 0.5])
        state = AgentState(p, np.zeros(3))
        nxt = step_dynamics(state, hold(p), model)
        assert np.linalg.norm(nxt.position - p) <= 1e-9
        assert np.linalg.norm(nxt.velocity) <= 1e-9

    def test_step_response_converges_within_5s(self):
        model = make_default_dynamics()
        state = AgentState(np.zeros(3), np.zeros(3))
        target = np.array([1.0, 0.0, 0.0])
        errors = []
        for _ in range(25):  # 5 s at dt=0.2
            state = step_dynamics(state, hold(target), model)
            errors.append(np.linalg.norm(state.position - target))
        assert errors[-1] < 1e-2
        # norm error decreases monotonically for the critically damped loop
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_rise_time_in_quadrotor_band(self):
        model = make_default_dynamics()
        state = AgentState(np.zeros(3), np.zeros(3))
        t_90 = None
        for k in range(50):
            state = step_dynamics(state, hold([1.0, 0, 0]), model)
            if t_90 is None and state.position[0] >= 0.9:
                t_90 = (k + 1) * model.dt
        assert t_90 is not None and t_90 <= 0.6

    def test_affine_identity(self):
        model = make_default_dynamics()
        rng = np.random.default_rng(1)
        x1 = AgentState(rng.normal(size=3), rng.normal(size=3))
        x2 = AgentState(rng.normal(size=3), rng.normal(size=3))
        u1, u2 = rng.normal(size=3), rng.normal(size=3)
        lhs = step_dynamics(AgentState(x1.position + x2.position,
                                       x1.velocity + x2.velocity),
                            hold(u1 + u2), model)
        a = step_dynamics(x1, hold(u1), model)
        b = step_dynamics(x2, hold(u2), model)
        zero = step_dynamics(AgentState(np.zeros(3), np.zeros(3)), hold(np.zeros(3)), model)
        assert np.allclose(lhs.position, a.position + b.position - zero.position)
        assert np.allclose(lhs.velocity, a.velocity + b.velocity - zero.velocity)

    def test_spectral_radius_validated(self):
        model = make_default_dynamics()
        assert np.max(np.abs(np.linalg.eigvals(model.A))) <= 1 + 1e-9


class TestCommGraph:
    def test_two_agents_mutual(self):
        adj = comm_graph([[0, 0, 0], [1, 0, 0]])
        assert adj[0, 1] == 1 and adj[1, 0] == 1

    def test_out_of_range_isolated(self):
        adj = comm_graph([[0, 0, 0], [1, 0, 0], [100, 0, 0]])
        assert adj[2].sum() == 0 and adj[:, 2].sum() == 0

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pos = rng.uniform(-4, 4, size=(9, 3))
            adj = comm_graph(pos, comm_range=5.0, max_neighbors=4)
            pre = np.zeros((9, 9))
            for i in range(9):
                d = np.linalg.norm(pos - pos[i], axis=1)
                order = [j for j in np.argsort(d, kind="stable")
                         if j != i and d[j] <= 5.0][:4]
                pre[i, order] = 1
            assert np.array_equal(adj, np.maximum(pre, pre.T))
            assert np.all(pre.sum(axis=1) <= 4)
            assert np.array_equal(adj, adj.T)


class TestChannel:
    def test_full_rate_no_loss(self):
        cfg = ChannelConfig(f_comm=5.0, p_loss=0.0)
        adj = np.ones((3, 3)) - np.eye(3)
        outbox = {i: Message(i, 4, np.zeros(2)) for i in range(3)}
        inboxes, delivered = channel_deliver(outbox, 4, adj, cfg,
                                             np.random.default_rng(0))
        assert len(delivered) == 6
        assert all(len(inboxes[i]) == 2 for i in range(3))

    def test_total_loss(self):
        cfg = ChannelConfig(p_loss=1.0)
        adj = np.ones((2, 2)) - np.eye(2)
        outbox = {0: Message(0, 0, np.zeros(2)), 1: Message(1, 0, np.zeros(2))}
        inboxes, delivered = channel_deliver(outbox, 0, adj, cfg,
                                             np.random.default_rng(0))
        assert delivered == [] and not inboxes[0] and not inboxes[1]

    def test_off_period_tick_delivers_nothing(self):
        cfg = ChannelConfig(f_comm=2.5)  # period 2 ticks
        adj = np.ones((2, 2)) - np.eye(2)
        outbox = {0: Message(0, 3, np.zeros(2))}
        inboxes, delivered = channel_deliver(outbox, 3, adj, cfg,
                                             np.random.default_rng(0))
        assert delivered == []
        inboxes, delivered = channel_deliver(outbox, 4, adj, cfg,
                                             np.random.default_rng(0))
        assert len(delivered) == 1

    def test_monte_carlo_drop_rate(self):
        cfg = ChannelConfig(p_loss=0.25)
        adj = np.ones((2, 2)) - np.eye(2)
        rng = np.random.default_rng(3)
        total = delivered_count = 0
        outbox = {0: Message(0, 0, np.zeros(2))}
        for _ in range(100_000):
            _, delivered = channel_deliver(outbox, 0, adj, cfg, rng)
            total += 1
            delivered_count += len(delivered)
        drop_rate = 1.0 - delivered_count / total
        assert abs(drop_rate - 0.25) < 0.01

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(f_comm=3.0)  # 1/(3*0.2) is not an integer

    @pytest.mark.parametrize("field, value", [("f_comm", -5.0), ("f_comm", 0.0),
                                              ("f_comm", np.nan), ("dt", -0.2),
                                              ("dt", 0.0), ("dt", np.nan)])
    def test_nonpositive_rate_or_step_rejected(self, field, value):
        # a period of -1 ticks would send on every tick (tick % -1 == 0)
        with pytest.raises(ValueError):
            ChannelConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("comm_range", np.nan), ("comm_range", -1.0),
                                              ("max_neighbors", -1)])
    def test_negative_or_nan_range_or_cap_rejected(self, field, value):
        # with a NaN range comm_graph links every pair (dists > nan is never
        # true), and a cap of -1 links none
        with pytest.raises(ValueError):
            ChannelConfig(**{field: value})


@pytest.fixture(scope="module")
def small_oracle_trace():
    sc = sample_scenario(0, DESK_SCENARIO)
    return run_episode(sc, mode="oracle", ticks=25, seed=5)


class TestEpisode:
    def test_oracle_deterministic(self, small_oracle_trace):
        sc = sample_scenario(0, DESK_SCENARIO)
        again = run_episode(sc, mode="oracle", ticks=25, seed=5)
        for a, b in zip(small_oracle_trace.true_states, again.true_states):
            assert np.array_equal(a, b)
        for a, b in zip(small_oracle_trace.plans, again.plans):
            assert np.array_equal(a, b)

    def test_trace_lengths(self, small_oracle_trace):
        tr = small_oracle_trace
        assert tr.ticks == 25
        for attr in (tr.measured_states, tr.plans, tr.costs, tr.adjacency,
                     tr.messages_sent, tr.deliveries, tr.fallback_flags):
            assert len(attr) == 25

    def test_oracle_safe_costs_zero(self, small_oracle_trace):
        m = metrics(small_oracle_trace)
        assert m["fallback_ticks"] == 0  # a fallback plan carries no slack
        assert m["costs"]["safe_agent"] <= 1e-6
        assert m["costs"]["safe_obstacle"] <= 1e-6
        assert not m["collision"]

    def test_oracle_passes_funnel_with_clearance(self):
        # long enough to take the swarm past the narrowest point of the
        # funnel, so a swarm that kept its clearance by stalling fails
        sc = sample_scenario(0, DESK_SCENARIO)
        trace = run_episode(sc, mode="oracle", ticks=50, seed=5)
        for states in trace.true_states:
            pos = states[:, :3]
            for p, obs in itertools.product(pos, sc.obstacles):
                clearance = np.linalg.norm(p - euclidean_project_ellipsoid(obs, p))
                assert clearance >= R_COLL_DEFAULT
            for a, b in itertools.combinations(pos, 2):
                assert np.linalg.norm(a - b) >= R_COLL_DEFAULT
        narrowest_x = max(obs.center[0] for obs in sc.obstacles)
        assert np.all(trace.true_states[-1][:, 0] > narrowest_x)

    def test_single_agent_reaches_goal(self):
        sc = sample_scenario(1, ScenarioConfig(n_min=1, n_max=1,
                                               p_mig=(6.0, 0.0, 0.0),
                                               start_box=((0.0, 1.0), (-1, 1), (-0.5, 0.5))))
        trace = run_episode(sc, mode="oracle", noise_std=0.0, ticks=90, seed=0)
        dists = [np.linalg.norm(s[0, :3] - sc.p_mig) for s in trace.true_states]
        assert min(dists) < 0.1

    def test_bundle_from_other_config_raises(self, monkeypatch):
        sc = sample_scenario(0, DESK_SCENARIO)
        cfg = ControllerConfig()
        other = BasisBundle(ControllerConfig(limits=MotionLimits(v_max=1.0)))
        monkeypatch.setattr(episode, "plan", no_plan)
        with pytest.raises(ValueError, match="ControllerConfig"):
            run_episode(sc, controller=cfg, bundle=other, ticks=1)
        # a config equal in value is the same config
        run_episode(sc, controller=cfg, bundle=BasisBundle(ControllerConfig()), ticks=0)

    def test_dynamics_of_other_tick_length_raises(self, monkeypatch):
        monkeypatch.setattr(episode, "plan", no_plan)
        with pytest.raises(ValueError, match="tick length"):
            run_episode(sample_scenario(0, DESK_SCENARIO), dynamics=make_default_dynamics(0.1),
                        ticks=1)

    def test_predictor_of_other_horizon_raises(self, monkeypatch):
        monkeypatch.setattr(episode, "plan", no_plan)
        pcfg = PredictorConfig(horizon=12, history=6, hidden=12, feature=8, latent=6)
        params = init_predictor_params(np.random.default_rng(0), pcfg)
        with pytest.raises(ValueError, match="horizon"):
            run_episode(sample_scenario(0, DESK_SCENARIO), mode="eg", ticks=1,
                        predictor_factory=lambda: TrajectoryPredictor(params, pcfg))

    def test_mode_parse_aliases(self):
        for mode in RunMode:
            assert RunMode.parse(mode.value) is mode
        assert RunMode.parse("cv") is RunMode.CONSTANT_VELOCITY
        assert RunMode.parse("VAE+EG") is RunMode.EG_VAE
        for name in ("EG+KKT", "ynet"):  # parse folds case
            with pytest.raises(ValueError):
                RunMode.parse(name)


@pytest.fixture(scope="module")
def desk_scenario():
    return sample_scenario(0, DESK_SCENARIO)


def run_short_episode(scenario, mode, ticks=3, channel=None):
    """A short episode in `mode` with seeded random predictor weights."""
    pcfg = PredictorConfig(history=6, hidden=12, feature=8, latent=6)
    params = init_predictor_params(np.random.default_rng(0), pcfg)
    # an untrained codec decodes about 10 m off: its calibrated variance
    calibration = CodecCalibration(np.full(pcfg.traj_dim, 100.0))

    def factory():
        return TrajectoryPredictor(params, pcfg, calibration=calibration)

    return run_episode(scenario, mode=mode, channel=channel, ticks=ticks, seed=0,
                       predictor_factory=factory)


def assert_same_trace(tr, other):
    """True states, plans and predictions of every tick bitwise equal."""
    for a, b in zip(tr.true_states + tr.plans, other.true_states + other.plans):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(tr.predictions, other.predictions):
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])


class TestEveryMode:
    @pytest.mark.parametrize("mode", ["cv", "eg", "vae", "eg+vae"])
    def test_short_episode_invariants(self, desk_scenario, mode):
        tr = run_short_episode(desk_scenario, mode)
        assert tr.ticks == 3
        for attr in (tr.measured_states, tr.plans, tr.predictions, tr.costs,
                     tr.adjacency, tr.messages_sent, tr.deliveries, tr.fallback_flags):
            assert len(attr) == 3
        assert all(np.all(np.isfinite(a)) for a in tr.true_states + tr.plans)
        for adjacency, preds in zip(tr.adjacency, tr.predictions):
            pairs = {(int(i), int(j)) for i, j in zip(*np.nonzero(adjacency))}
            assert {(int(i), int(j)) for i, j in preds} == pairs
            assert all(p.shape == (3 * tr.controller.horizon,) and np.all(np.isfinite(p))
                       for p in preds.values())
        if RunMode.parse(mode).uses_messages:
            assert any(tr.deliveries)
        if mode == "eg":
            assert_same_trace(tr, run_short_episode(desk_scenario, mode))

    @pytest.mark.parametrize("mode", ["eg", "vae", "eg+vae"])
    def test_one_predictor_per_episode(self, desk_scenario, mode, monkeypatch):
        built, real_init = [], TrajectoryPredictor.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(TrajectoryPredictor, "__init__", counting)
        run_short_episode(desk_scenario, mode)
        assert len(built) == 1


class TestSharedEvolution:
    """The episode's one predictor evolves the EG weights once, at the
    episode's first prediction; EvolveGCN-O weights read only the parameters."""

    PCFG = PredictorConfig(history=6, hidden=12, feature=8, latent=6)
    EVOLUTION = PCFG.eg_layers * (PCFG.history - 1)

    @pytest.fixture
    def eg_steps(self, monkeypatch):
        calls, real = [], predictor.eg_step

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(predictor, "eg_step", counting)
        return calls

    def run(self, scenario, factory):
        return run_episode(scenario, mode="eg", ticks=2, seed=0, predictor_factory=factory)

    def params(self):
        return init_predictor_params(np.random.default_rng(0), self.PCFG)

    def test_one_evolution_per_episode(self, desk_scenario, eg_steps):
        assert desk_scenario.n == 4
        params = self.params()
        for _ in range(2):  # no evolution outlives its episode
            eg_steps.clear()
            self.run(desk_scenario, lambda: TrajectoryPredictor(params, self.PCFG))
            assert len(eg_steps) == self.EVOLUTION

    def test_one_prior_batch_per_tick(self, desk_scenario, monkeypatch):
        # the tick's 4 distinct rows run in one batch before any ego plans
        calls = dict.fromkeys(("lstm_step", "gcn_layer"), 0)
        for name in calls:
            def counting(*args, _name=name, _real=getattr(predictor, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(predictor, name, counting)
        params = self.params()
        run_episode(desk_scenario, mode="eg", ticks=1, seed=0,
                    predictor_factory=lambda: TrajectoryPredictor(params, self.PCFG))
        assert calls == {"lstm_step": 2 * self.PCFG.horizon,
                         "gcn_layer": self.PCFG.eg_layers * desk_scenario.n}
        assert tuple(calls.values()) == (32, 8)

    def test_lost_messages_put_a_target_twice_in_one_batch(self, desk_scenario, monkeypatch):
        # desk-eg's PredictorConfig, in eg+vae: lost messages leave the egos
        # different beliefs about one target, so a tick's batch holds that
        # target twice, one row per belief
        pcfg = PredictorConfig()
        params = init_predictor_params(np.random.default_rng(0), pcfg)
        calibration = CodecCalibration(np.full(pcfg.traj_dim, 100.0))
        batches, real_prior = [], predictor.prior_forward

        def recording(params, cfg, targets, *args, **kwargs):
            batches.append(list(targets))
            return real_prior(params, cfg, targets, *args, **kwargs)

        monkeypatch.setattr(predictor, "prior_forward", recording)
        run_episode(desk_scenario, mode="eg+vae", channel=ChannelConfig(p_loss=0.3), ticks=3,
                    seed=1000, predictor_factory=lambda: TrajectoryPredictor(
                        params, pcfg, calibration=calibration))
        assert len(batches) == 3
        assert any(len(set(b)) < len(b) for b in batches)


class TestTickShift:
    """Every neighbour trajectory an agent plans against lies on the current
    tick's horizon: the sender's previous plan shifted one sample."""

    def test_oracle_reads_previous_plans_shifted(self, small_oracle_trace):
        tr = small_oracle_trace
        for t in range(1, tr.ticks):
            shared = {}
            assert tr.predictions[t]
            for (ego, j), pred in tr.predictions[t].items():
                want = shift_trajectory(tr.plans[t - 1][j], tr.controller.horizon)
                assert np.max(np.abs(pred - want)) < 1e-12, (t, ego, j)
                # every ego reads the same snapshot of j's plan
                assert np.array_equal(pred, shared.setdefault(j, pred)), (t, ego, j)

    @pytest.mark.parametrize("mode", ["vae", "eg+vae"])
    def test_message_carries_plan_on_next_horizon(self, desk_scenario, mode, monkeypatch):
        real_encode, sent = TrajectoryPredictor.encode, {}

        def recording(self, traj, tick, sender, **kwargs):
            sent[(tick, sender)] = np.array(traj)
            return real_encode(self, traj, tick, sender, **kwargs)

        monkeypatch.setattr(TrajectoryPredictor, "encode", recording)
        tr = run_short_episode(desk_scenario, mode)
        assert sorted(sent) == [(t + 1, j) for t in range(tr.ticks) for j in range(tr.n)]
        for (tick, sender), traj in sent.items():
            want = shift_trajectory(tr.plans[tick - 1][sender], tr.controller.horizon)
            assert np.max(np.abs(traj - want)) < 1e-12, (tick, sender)

    @pytest.mark.parametrize("channel", [ChannelConfig(f_comm=2.5), ChannelConfig(p_loss=0.3)],
                             ids=["f_comm=2.5", "p_loss=0.3"])
    def test_held_message_shifted_by_its_age(self, desk_scenario, channel, monkeypatch):
        real_decode, decoded = TrajectoryPredictor.decode, {}

        def recording(self, msg):
            decoded[(msg.tick, msg.sender)] = real_decode(self, msg)
            return decoded[(msg.tick, msg.sender)]

        monkeypatch.setattr(TrajectoryPredictor, "decode", recording)
        tr = run_short_episode(desk_scenario, "vae", ticks=6, channel=channel)
        ages = []
        for t in range(tr.ticks):
            for (ego, j), pred in tr.predictions[t].items():
                arrivals = [t0 for t0 in range(t + 1) if (j, ego) in tr.deliveries[t0]]
                if not arrivals:
                    continue
                want = decoded[(arrivals[-1], j)]
                for _ in range(t - arrivals[-1]):
                    want = shift_trajectory(want, tr.controller.horizon)
                assert np.array_equal(pred, want), (t, ego, j)
                ages.append(t - arrivals[-1])
        # fresh messages and messages held for at least one tick were both read
        assert min(ages) == 0 and max(ages) >= 1


def tick_zero_solves(scenario, monkeypatch):
    """Hint-free solves of the QPs of a one-tick oracle episode: the plans
    polish from the guess, and each QP is solved again by the interior point."""
    real_solve, sols = dmpc.solve, []

    def recording(qp, **kwargs):
        sols.append(real_solve(qp))
        return real_solve(qp, **kwargs)

    monkeypatch.setattr(dmpc, "solve", recording)
    run_episode(scenario, mode="oracle", ticks=1, seed=0)
    assert len(sols) == scenario.n
    return sols


class TestColdStart:
    def test_tick_zero_admm_iterations(self, desk_scenario, monkeypatch):
        # Without a hint every QP runs the interior point from its fixed
        # start, and its iterations are Newton steps. Step counts are
        # deterministic: this guards the convergence speed of the cold path
        # without timing anything.
        sols = tick_zero_solves(desk_scenario, monkeypatch)
        assert len(sols) == 4
        for sol in sols:
            assert sol.status == SolveStatus.OPTIMAL
            assert 0 < sol.iterations <= 200

    def test_tick_zero_within_twelve_steps(self, desk_scenario, monkeypatch):
        # The multipliers start at the scale of the slack penalties
        # (l_saf = 1e4), so the steps run near full length from the first.
        for sol in tick_zero_solves(desk_scenario, monkeypatch):
            assert sol.status == SolveStatus.OPTIMAL
            assert sol.iterations <= 12

    def test_tick_zero_polishes_the_guess(self, desk_scenario, monkeypatch):
        # With no previous active set the plan polishes from the guess, no
        # row active and every slack at zero, and each DESK tick-0 QP is
        # solved by that polish alone.
        real_solve, solved = dmpc.solve, []

        def recording(qp, **kwargs):
            solved.append((qp, real_solve(qp, **kwargs)))
            return solved[-1][1]

        monkeypatch.setattr(dmpc, "solve", recording)
        run_episode(desk_scenario, mode="oracle", ticks=1, seed=0)
        assert len(solved) == desk_scenario.n
        for qp, sol in solved:
            assert sol.status == SolveStatus.OPTIMAL and sol.iterations == 0
            assert np.max(np.abs(sol.x - real_solve(qp).x)) <= 1e-9


class TestHintPolish:
    def test_factors_only_free_variables(self, desk_scenario, monkeypatch):
        # The hint polish of a DESK QP factors the free variables, the
        # active rows and the equality rows: n - pinned + rows + p.
        real_solve, hinted = dmpc.solve, []

        def recording(qp, **kwargs):
            if kwargs.get("active_set_hint") is not None:
                hinted.append((qp, kwargs["active_set_hint"], kwargs["bound_hint"]))
            return real_solve(qp, **kwargs)

        monkeypatch.setattr(dmpc, "solve", recording)
        run_episode(desk_scenario, mode="oracle", ticks=2, seed=0)
        qp, hint, bound_hint = hinted[4]    # tick 1's first warm hint
        pinned_vars = np.flatnonzero(bound_hint)
        assert len(pinned_vars) > 0 and np.all(np.isfinite(qp.lb[pinned_vars]))
        general = np.count_nonzero(hint)
        assert general > 0
        dims = []
        real_lu_factor = scipy.linalg.lu_factor

        def lu_factor(a, *args, **kwargs):
            dims.append(a.shape)
            return real_lu_factor(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_factor", lu_factor)
        sol = real_solve(qp, active_set_hint=hint, bound_hint=bound_hint)
        assert sol.status == SolveStatus.OPTIMAL and sol.iterations == 0
        dim = qp.num_vars - len(pinned_vars) + general + qp.num_eq
        assert dims[0] == (dim, dim)


class TestMetrics:
    def test_hand_built_two_tick_totals(self, small_oracle_trace):
        import copy

        tr = copy.copy(small_oracle_trace)
        # truncate to two ticks and recompute by hand
        for attr in ("true_states", "measured_states", "plans", "predictions",
                     "costs", "adjacency", "messages_sent", "deliveries",
                     "fallback_flags"):
            setattr(tr, attr, getattr(small_oracle_trace, attr)[:2])
        m = metrics(tr)
        expected = 0.0
        for t in range(2):
            for agent_costs in tr.costs[t]:
                expected += sum(agent_costs.values())
        assert m["total_cost"] == pytest.approx(expected, abs=1e-9)
        assert m["total_cost"] == pytest.approx(sum(m["costs"].values()), abs=1e-9)

    def test_prediction_error_recomputation(self, small_oracle_trace):
        err = prediction_error_per_step(small_oracle_trace)
        horizon = small_oracle_trace.controller.horizon
        assert len(err) == horizon
        # independent recomputation
        sums = np.zeros(horizon)
        count = 0
        for t in range(small_oracle_trace.ticks):
            for (ego, tgt), pred in small_oracle_trace.predictions[t].items():
                d = (np.asarray(pred) - small_oracle_trace.plans[t][tgt]).reshape(horizon, 3)
                sums += np.sqrt((d**2).sum(axis=1))
                count += 1
        assert np.allclose(err, sums / count)

    def test_stationary_isolated_agent_near_zero_costs(self):
        sc = sample_scenario(2, ScenarioConfig(n_min=1, n_max=1,
                                               p_mig=(0.5, 0.0, 0.0),
                                               start_box=((0.4, 0.6), (-0.1, 0.1),
                                                          (-0.1, 0.1))))
        trace = run_episode(sc, mode="oracle", noise_std=0.0, ticks=20, seed=1)
        m = metrics(trace)
        assert m["total_cost"] < 1.0  # parked at the goal: every term tiny

    def test_csv_export(self, tmp_path, small_oracle_trace):
        written = write_trace_csvs(small_oracle_trace, tmp_path / "out")
        for key in ("states", "costs", "distances", "prediction_errors",
                    "messages", "manifest"):
            assert written[key].exists()
        import json

        manifest = json.loads(written["manifest"].read_text())
        assert manifest["ticks"] == small_oracle_trace.ticks
        assert "config_digest" in manifest
        assert manifest["metrics"]["total_cost"] == pytest.approx(
            metrics(small_oracle_trace)["total_cost"])
