"""Neighbor trajectory prediction: EvolveGCN prior, VAE codec, Bayesian fusion.

All network inputs are expressed relative to the target's current position
(the anchor), which keeps feature magnitudes O(1) across the workspace. The
prior mean is the time-shifted previous prediction plus a learned correction
when cfg.residual is set.

The VAE codec normalizes trajectories with dataset statistics stored next to
the parameters.
"""

from dataclasses import dataclass

import numpy as np

from .dmpc import shift_trajectory
from .nn import (
    EgCellState,
    Tensor,
    concat,
    eg_step,
    fc,
    gcn_layer,
    init_eg_cell,
    init_fc,
    init_lstm,
    init_vae,
    lstm_step,
    lstm_zero_state,
    vae_decode,
    vae_forward,
)


class PredictorError(ValueError):
    pass


@dataclass
class PredictorConfig:
    horizon: int = 16
    history: int = 20
    hidden: int = 128
    feature: int = 16
    latent: int = 24
    eg_layers: int = 2
    sigma_floor: float = 1e-3
    residual: bool = True
    max_obstacles: int = 2

    @property
    def traj_dim(self):
        return 3 * self.horizon

    def __post_init__(self):
        if self.latent >= self.traj_dim:
            raise PredictorError(f"latent dim {self.latent} too large for input {self.traj_dim}")


@dataclass
class GaussianTrajectoryEstimate:
    mean: np.ndarray
    stddev: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        self.stddev = np.asarray(self.stddev, dtype=float).reshape(-1)
        if self.mean.shape != self.stddev.shape:
            raise PredictorError("mean and stddev must have equal length")
        if not np.all(np.isfinite(self.mean)):
            raise PredictorError("estimate mean must be finite")
        if np.any(self.stddev <= 0):
            raise PredictorError("estimate stddev must be strictly positive")


@dataclass(frozen=True)
class Message:
    sender: object
    tick: int
    latent: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "latent", np.asarray(self.latent, dtype=float).reshape(-1))


@dataclass
class CodecCalibration:
    variance: np.ndarray

    def __post_init__(self):
        self.variance = np.asarray(self.variance, dtype=float).reshape(-1)
        if np.any(self.variance <= 0):
            raise PredictorError("calibrated variances must be strictly positive")


def init_predictor_params(rng, cfg: PredictorConfig):
    """Fresh parameter tree for the full predictor (EG pipeline + codec)."""
    feat = cfg.feature
    eg = {}
    n_in = 3
    for layer in range(cfg.eg_layers):
        eg[f"layer{layer}"] = init_eg_cell(rng, n_in, feat)
        n_in = feat
    params = {
        "query": {"lstm": init_lstm(rng, 3, cfg.hidden),
                  "out": init_fc(rng, cfg.hidden, feat)},
        "eg": eg,
        "eg_out": init_fc(rng, feat, feat),
        "obstacle": init_fc(rng, 3 * cfg.max_obstacles, feat),
        "decoder": {"lstm": init_lstm(rng, 3 * feat, cfg.hidden),
                    "mean": init_fc(rng, cfg.hidden, 3, scale=1e-3),
                    "logstd": init_fc(rng, cfg.hidden, 3, scale=1e-3)},
        "vae": init_vae(rng, cfg.traj_dim, cfg.latent, cfg.hidden),
    }
    return params


def prior_forward(params, cfg: PredictorConfig, target, history, adjacency,
                  obstacle_centers, prev_prediction):
    """Graph-building forward pass of the EG prior.

    history: (H, n, 3) positions, oldest first, last row = current tick.
    adjacency: (n, n) or (H, n, n). Returns (mean, sigma) Tensors of shape
    (1, 3P); mean carries gradients, sigma's trunk input is detached so the
    deviation head trains independently of the mean pathway.
    """
    history = np.asarray(history, dtype=float)
    hor, feat = cfg.horizon, cfg.feature
    h_steps, n, _ = history.shape
    adjacency = np.asarray(adjacency, dtype=float)
    if adjacency.ndim == 2:
        adjacency = np.broadcast_to(adjacency, (h_steps, n, n))
    anchor = history[-1, target]

    prev_rel = np.asarray(prev_prediction, dtype=float) - np.tile(anchor, hor)
    state = lstm_zero_state(params["query"]["lstm"]["Wh"].shape[0])
    for tau in range(hor):
        step_in = Tensor(prev_rel[3 * tau:3 * tau + 3].reshape(1, 3))
        q_out, state = lstm_step(step_in, state, params["query"]["lstm"])
    y = fc(q_out, params["query"]["out"], activation="relu")

    eg_states = [EgCellState.initial(params["eg"][f"layer{i}"]["W0"])
                 for i in range(cfg.eg_layers)]
    node_out = None
    for h in range(h_steps):
        feats = Tensor(history[h] - anchor)
        for i in range(cfg.eg_layers):
            feats = gcn_layer(adjacency[h], feats, eg_states[i].weight)
            eg_states[i] = eg_step(eg_states[i], params["eg"][f"layer{i}"])
        node_out = feats
    g = fc(node_out[target:target + 1, :], params["eg_out"], activation="relu")

    centers = np.zeros(3 * cfg.max_obstacles)
    flat = (np.asarray(obstacle_centers, dtype=float) - anchor).reshape(-1)
    centers[:min(flat.size, centers.size)] = flat[:centers.size]
    o = fc(Tensor(centers.reshape(1, -1)), params["obstacle"], activation="relu")

    fused_in = concat([y, o, g], axis=1)
    dec_state = lstm_zero_state(params["decoder"]["lstm"]["Wh"].shape[0])
    means, logstds = [], []
    for tau in range(hor):
        h_t, dec_state = lstm_step(fused_in, dec_state, params["decoder"]["lstm"])
        means.append(fc(h_t, params["decoder"]["mean"]))
        logstds.append(fc(h_t.detach(), params["decoder"]["logstd"]))
    mean_rel = concat(means, axis=1)
    logstd = concat(logstds, axis=1)

    if cfg.residual:
        mean_rel = mean_rel + Tensor(shift_trajectory(prev_rel, hor).reshape(1, -1))
    mean = mean_rel + Tensor(np.tile(anchor, hor).reshape(1, -1))
    sigma = logstd.exp() + cfg.sigma_floor
    return mean, sigma


def codec_encode_forward(traj, params, norm, noise=None):
    """VAE encoder pass over a normalized trajectory; returns the forward dict."""
    mean, std = norm
    x = (np.asarray(traj, dtype=float).reshape(-1) - mean) / std
    return vae_forward(Tensor(x.reshape(1, -1)), params["vae"], noise=noise)


def codec_decode_forward(z, params):
    zt = z if isinstance(z, Tensor) else Tensor(np.asarray(z, float).reshape(1, -1))
    return vae_decode(zt, params["vae"])


def codec_denormalize(out_data, norm):
    mean, std = norm
    return np.asarray(out_data).reshape(-1) * std + mean


def fuse(prior: GaussianTrajectoryEstimate, observation, calib: CodecCalibration):
    """Coordinatewise MAP of the Gaussian product: precision-weighted mean.

    Returns (posterior mean, posterior variance).
    """
    obs = np.asarray(observation, dtype=float).reshape(-1)
    if obs.shape != prior.mean.shape or calib.variance.shape != prior.mean.shape:
        raise PredictorError("fusion inputs disagree in length")
    prior_var = prior.stddev**2
    if np.any(prior_var <= 0) or np.any(calib.variance <= 0):
        raise PredictorError("fusion needs strictly positive variances")
    w_prior = 1.0 / prior_var
    w_obs = 1.0 / calib.variance
    posterior_var = 1.0 / (w_prior + w_obs)
    mean = (prior.mean * w_prior + obs * w_obs) * posterior_var
    return mean, posterior_var


class TrajectoryPredictor:
    """Per-ego predictor state: parameters, codec calibration, prior feedback."""

    def __init__(self, params, cfg: PredictorConfig, calibration=None,
                 norm=None):
        self.params = params
        self.cfg = cfg
        self.calibration = calibration
        self.norm = norm if norm is not None else (np.zeros(cfg.traj_dim),
                                                   np.ones(cfg.traj_dim))
        self.prev_predictions = {}

    def reset(self):
        self.prev_predictions.clear()

    def predict_prior(self, target, history, adjacency, obstacle_centers,
                      prev_prediction=None) -> GaussianTrajectoryEstimate:
        history = np.asarray(history, dtype=float)
        if prev_prediction is None:
            prev_prediction = self.prev_predictions.get(target)
        if prev_prediction is None:
            prev_prediction = np.tile(history[-1, target], self.cfg.horizon)
        mean, sigma = prior_forward(self.params, self.cfg, target, history,
                                    adjacency, obstacle_centers, prev_prediction)
        return GaussianTrajectoryEstimate(mean.data.reshape(-1), sigma.data.reshape(-1))

    def encode(self, traj, tick, sender, mode="sample", rng=None) -> Message:
        out = codec_encode_forward(traj, self.params, self.norm)
        z_mean = out["z_mean"].data
        if mode == "sample":
            if rng is None:
                raise PredictorError("sample mode needs an rng")
            z = z_mean + np.exp(out["z_logstd"].data) * rng.standard_normal(z_mean.shape)
        elif mode == "mean":
            z = z_mean
        else:
            raise PredictorError(f"unknown encode mode {mode!r}")
        return Message(sender, tick, z.reshape(-1))

    def decode(self, msg: Message) -> np.ndarray:
        expected = self.cfg.latent
        if msg.latent.size != expected:
            raise PredictorError(
                f"message latent has {msg.latent.size} entries, expected {expected}")
        out = codec_decode_forward(msg.latent.reshape(1, -1), self.params)
        return codec_denormalize(out.data, self.norm)

    def predict(self, target, message, history, adjacency, obstacle_centers,
                tick) -> np.ndarray:
        """Full pipeline: prior, then fuse with a fresh decoded message if any."""
        prior = self.predict_prior(target, history, adjacency, obstacle_centers)
        msg = message if (message is not None and message.tick == tick) else None
        if msg is not None and self.calibration is not None:
            observation = self.decode(msg)
            result, _ = fuse(prior, observation, self.calibration)
        else:
            result = prior.mean
        self.prev_predictions[target] = result
        return result
