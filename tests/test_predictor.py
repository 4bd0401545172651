import numpy as np
import pytest

from swarmcoord.predictor import (
    CodecCalibration,
    GaussianTrajectoryEstimate,
    Message,
    PredictorConfig,
    PredictorError,
    TrajectoryPredictor,
    fuse,
    init_predictor_params,
)


@pytest.fixture(scope="module")
def cfg():
    return PredictorConfig(horizon=16, history=6, hidden=12, feature=8, latent=6)


@pytest.fixture(scope="module")
def params(cfg):
    return init_predictor_params(np.random.default_rng(0), cfg)


def make_history(rng, n, steps):
    base = rng.normal(scale=2.0, size=(n, 3))
    drift = rng.normal(scale=0.05, size=(n, 3))
    return np.stack([base + k * drift for k in range(steps)])


def ring_adjacency(n):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return adj


class TestPrior:
    def test_untrained_output_contract(self, cfg, params):
        rng = np.random.default_rng(1)
        pred = TrajectoryPredictor(params, cfg)
        history = make_history(rng, 5, cfg.history)
        est = pred.predict_prior(2, history, ring_adjacency(5),
                                 np.array([[10.0, 4, 0], [10.0, -4, 0]]))
        assert np.all(np.isfinite(est.mean))
        assert np.all(est.stddev >= cfg.sigma_floor)
        assert est.mean.size == cfg.traj_dim

    def test_permuting_other_agents_leaves_target_unchanged(self, cfg, params):
        rng = np.random.default_rng(2)
        pred = TrajectoryPredictor(params, cfg)
        n = 5
        history = make_history(rng, n, cfg.history)
        adj = ring_adjacency(n)
        obstacles = np.array([[8.0, 3, 0], [8.0, -3, 0]])
        target = 0
        est = pred.predict_prior(target, history, adj, obstacles)
        # swap agents 2 and 4 everywhere
        perm = np.arange(n)
        perm[[2, 4]] = [4, 2]
        history_p = history[:, perm, :]
        adj_p = adj[np.ix_(perm, perm)]
        est_p = pred.predict_prior(target, history_p, adj_p, obstacles,
                                   prev_prediction=np.tile(history[-1, target],
                                                           cfg.horizon))
        assert np.allclose(est.mean, est_p.mean, atol=1e-10)

    def test_adjacency_history_accepted(self, cfg, params):
        rng = np.random.default_rng(3)
        pred = TrajectoryPredictor(params, cfg)
        n = 4
        history = make_history(rng, n, cfg.history)
        adj_hist = np.stack([ring_adjacency(n)] * cfg.history)
        est = pred.predict_prior(1, history, adj_hist, np.zeros((2, 3)))
        est_flat = pred.predict_prior(1, history, ring_adjacency(n), np.zeros((2, 3)),
                                      prev_prediction=np.tile(history[-1, 1], cfg.horizon))
        assert np.allclose(est.mean, est_flat.mean)


class TestCodec:
    def test_mean_mode_deterministic(self, cfg, params):
        rng = np.random.default_rng(4)
        pred = TrajectoryPredictor(params, cfg)
        traj = rng.normal(size=cfg.traj_dim)
        m1 = pred.encode(traj, tick=3, sender=1, mode="mean")
        m2 = pred.encode(traj, tick=3, sender=1, mode="mean")
        assert np.array_equal(m1.latent, m2.latent)

    def test_sample_mode_with_zero_sigma_equals_mean(self, cfg, params):
        rng = np.random.default_rng(5)
        pred = TrajectoryPredictor(params, cfg)
        logstd_b = params["vae"]["logstd"]["b"].data.copy()
        logstd_w = params["vae"]["logstd"]["W"].data.copy()
        params["vae"]["logstd"]["b"].data[:] = -60.0  # sigma ~ 1e-26
        params["vae"]["logstd"]["W"].data[:] = 0.0
        try:
            traj = rng.normal(size=cfg.traj_dim)
            sampled = pred.encode(traj, tick=0, sender=0, mode="sample",
                                  rng=np.random.default_rng(6))
            mean = pred.encode(traj, tick=0, sender=0, mode="mean")
            assert np.allclose(sampled.latent, mean.latent, atol=1e-12)
        finally:
            params["vae"]["logstd"]["b"].data[:] = logstd_b
            params["vae"]["logstd"]["W"].data[:] = logstd_w

    def test_decode_round_trip_shape(self, cfg, params):
        rng = np.random.default_rng(7)
        pred = TrajectoryPredictor(params, cfg)
        msg = pred.encode(rng.normal(size=cfg.traj_dim), tick=0, sender=2, mode="mean")
        out = pred.decode(msg)
        assert out.shape == (cfg.traj_dim,)

    def test_decode_dimension_mismatch(self, cfg, params):
        pred = TrajectoryPredictor(params, cfg)
        with pytest.raises(PredictorError):
            pred.decode(Message(0, 0, np.zeros(cfg.latent + 1)))


class TestFuse:
    def test_equal_sigmas_arithmetic_mean(self):
        rng = np.random.default_rng(10)
        mu1, mu2 = rng.normal(size=6), rng.normal(size=6)
        prior = GaussianTrajectoryEstimate(mu1, np.full(6, 0.3))
        mean, _ = fuse(prior, mu2, CodecCalibration(np.full(6, 0.09)))
        assert np.allclose(mean, (mu1 + mu2) / 2, atol=1e-12)

    def test_infinite_observation_variance_returns_prior(self):
        rng = np.random.default_rng(11)
        mu1, mu2 = rng.normal(size=4), rng.normal(size=4)
        prior = GaussianTrajectoryEstimate(mu1, np.ones(4))
        mean, _ = fuse(prior, mu2, CodecCalibration(np.full(4, 1e30)))
        assert np.max(np.abs(mean - mu1)) < 1e-6

    def test_tiny_observation_variance_returns_observation(self):
        rng = np.random.default_rng(12)
        mu1, mu2 = rng.normal(size=4), rng.normal(size=4)
        prior = GaussianTrajectoryEstimate(mu1, np.ones(4))
        mean, _ = fuse(prior, mu2, CodecCalibration(np.full(4, 1e-12)))
        assert np.max(np.abs(mean - mu2)) < 1e-6

    def test_map_matches_grid_posterior(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            mu_p, mu_o = rng.normal(scale=2.0, size=2)
            s_p, s_o = rng.uniform(0.1, 2.0, size=2)
            prior = GaussianTrajectoryEstimate([mu_p], [s_p])
            mean, _ = fuse(prior, [mu_o], CodecCalibration([s_o**2]))
            lo = min(mu_p, mu_o) - 1.0
            hi = max(mu_p, mu_o) + 1.0
            grid = np.linspace(lo, hi, 100_000)
            log_post = (-0.5 * ((grid - mu_p) / s_p) ** 2
                        - 0.5 * ((grid - mu_o) / s_o) ** 2)
            cell = grid[1] - grid[0]
            assert abs(grid[np.argmax(log_post)] - mean[0]) <= cell + 1e-12

    def test_map_between_means(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            mu_p, mu_o = rng.normal(size=8), rng.normal(size=8)
            prior = GaussianTrajectoryEstimate(mu_p, rng.uniform(0.1, 1.0, size=8))
            mean, _ = fuse(prior, mu_o, CodecCalibration(rng.uniform(0.01, 1.0, size=8)))
            assert np.all(mean >= np.minimum(mu_p, mu_o) - 1e-12)
            assert np.all(mean <= np.maximum(mu_p, mu_o) + 1e-12)

    def test_role_swap_symmetry(self):
        rng = np.random.default_rng(15)
        mu_p, mu_o = rng.normal(size=5), rng.normal(size=5)
        var_p, var_o = rng.uniform(0.1, 1.0, size=5), rng.uniform(0.1, 1.0, size=5)
        a, _ = fuse(GaussianTrajectoryEstimate(mu_p, np.sqrt(var_p)), mu_o,
                    CodecCalibration(var_o))
        b, _ = fuse(GaussianTrajectoryEstimate(mu_o, np.sqrt(var_o)), mu_p,
                    CodecCalibration(var_p))
        assert np.allclose(a, b, atol=1e-12)

    def test_posterior_variance_dominated(self):
        rng = np.random.default_rng(16)
        var_p, var_o = rng.uniform(0.1, 2.0, size=6), rng.uniform(0.1, 2.0, size=6)
        _, post_var = fuse(GaussianTrajectoryEstimate(np.zeros(6), np.sqrt(var_p)),
                           np.zeros(6), CodecCalibration(var_o))
        assert np.all(post_var <= np.minimum(var_p, var_o) + 1e-15)

    def test_nonpositive_variance_rejected(self):
        prior = GaussianTrajectoryEstimate(np.zeros(3), np.ones(3))
        with pytest.raises(PredictorError):
            fuse(prior, np.zeros(3), CodecCalibration(np.array([1.0, -1.0, 1.0])))


class TestPredict:
    def test_no_message_returns_prior_mean(self, cfg, params):
        rng = np.random.default_rng(17)
        pred = TrajectoryPredictor(params, cfg,
                                   calibration=CodecCalibration(np.ones(cfg.traj_dim)))
        history = make_history(rng, 4, cfg.history)
        adj = ring_adjacency(4)
        obstacles = np.zeros((2, 3))
        out = pred.predict(1, None, history, adj, obstacles, tick=0)
        pred2 = TrajectoryPredictor(params, cfg)
        prior = pred2.predict_prior(1, history, adj, obstacles)
        assert np.allclose(out, prior.mean)

    def test_tiny_codec_variance_tracks_message(self, cfg, params):
        rng = np.random.default_rng(18)
        pred = TrajectoryPredictor(
            params, cfg, calibration=CodecCalibration(np.full(cfg.traj_dim, 1e-12)))
        history = make_history(rng, 4, cfg.history)
        msg = pred.encode(rng.normal(size=cfg.traj_dim), tick=5, sender=1, mode="mean")
        out = pred.predict(1, msg, history, ring_adjacency(4), np.zeros((2, 3)), tick=5)
        assert np.max(np.abs(out - pred.decode(msg))) < 1e-6

    def test_stale_message_discarded_by_default(self, cfg, params):
        rng = np.random.default_rng(19)
        pred = TrajectoryPredictor(
            params, cfg, calibration=CodecCalibration(np.full(cfg.traj_dim, 1e-12)))
        history = make_history(rng, 4, cfg.history)
        msg = pred.encode(rng.normal(size=cfg.traj_dim), tick=2, sender=1, mode="mean")
        out = pred.predict(1, msg, history, ring_adjacency(4), np.zeros((2, 3)), tick=7)
        prior = TrajectoryPredictor(params, cfg).predict_prior(
            1, history, ring_adjacency(4), np.zeros((2, 3)))
        assert np.allclose(out, prior.mean)

    def test_full_pipeline_deterministic(self, cfg, params):
        def run():
            rng = np.random.default_rng(20)
            pred = TrajectoryPredictor(
                params, cfg, calibration=CodecCalibration(np.ones(cfg.traj_dim)))
            outs = []
            for tick in range(3):
                history = make_history(rng, 4, cfg.history)
                msg = pred.encode(rng.normal(size=cfg.traj_dim), tick=tick,
                                  sender=1, mode="sample", rng=rng)
                outs.append(pred.predict(1, msg, history, ring_adjacency(4),
                                         np.zeros((2, 3)), tick=tick))
            return np.concatenate(outs)

        assert np.array_equal(run(), run())

    def test_never_emits_nan(self, cfg, params):
        rng = np.random.default_rng(21)
        pred = TrajectoryPredictor(params, cfg,
                                   calibration=CodecCalibration(np.ones(cfg.traj_dim)))
        for tick in range(4):
            history = make_history(rng, 5, cfg.history) * 10
            out = pred.predict(2, None, history, ring_adjacency(5),
                               np.zeros((2, 3)), tick=tick)
            assert np.all(np.isfinite(out))
