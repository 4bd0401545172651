"""Neighbor trajectory prediction: EvolveGCN prior, VAE codec, Bayesian fusion.

All network inputs are expressed relative to the target's current position
(the anchor), which keeps feature magnitudes O(1) across the workspace. The
prior mean is the time-shifted previous prediction plus a learned correction
when cfg.residual is set.

The prior is batched: one call predicts a list of targets, one output row
each. As in EvolveGCN-O, the GCN weights evolve without looking at the input,
so the history window enters only through its last row; its length fixes how
far the weights have evolved. prior_forward with weights=None evolves them on
the autodiff tape (the training path); TrajectoryPredictor evolves them once,
without a tape, and passes them in.

Work that does not change inside a loop runs once per call. The query
LSTM's inputs are projected for every step before its recurrence, the
decoder projects its constant input once, and each decoder head runs once
over the stacked hidden states. The adjacency is normalised once, and the
last GCN layer computes only the target's row. lstm_step, gcn_layer and
eg_step are called through this module's attributes, where a tracer can
wrap them.

The VAE codec normalizes trajectories with dataset statistics stored next to
the parameters.
"""

from dataclasses import dataclass

import numpy as np

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
    normalize_adjacency,
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


def shift_trajectory(trajectory, horizon) -> np.ndarray:
    """Advance a sampled trajectory one step, holding the terminal point: the
    prior's residual base, the previous prediction on this tick's horizon,
    and a held VAE message on each tick it is held."""
    pts = np.asarray(trajectory, dtype=float).reshape(horizon, 3)
    return np.vstack([pts[1:], pts[-1:]]).reshape(-1)


def evolved_weights(params, cfg: PredictorConfig):
    """GCN weight of each EG layer after cfg.history - 1 evolution steps.

    The evolution reads only the parameters, never the input (EvolveGCN-O), so
    these are the weights the GCN applies at the last history step.
    """
    weights = []
    for i in range(cfg.eg_layers):
        cell = params["eg"][f"layer{i}"]
        state = EgCellState.initial(cell["W0"])
        for _ in range(cfg.history - 1):
            state = eg_step(state, cell)
        weights.append(state.weight)
    return weights


def prior_forward(params, cfg: PredictorConfig, targets, history, adjacency,
                  obstacle_centers, prev_predictions, weights=None):
    """Forward pass of the EG prior, one output row per entry of targets.

    history: (cfg.history, n, 3) positions, oldest first, last row = current
    tick. adjacency: (n, n) or (H, n, n). prev_predictions: (len(targets), 3P)
    rows in target order. History and adjacency enter only through their last
    row, as in EvolveGCN-O: the GCN runs once per target anchor on
    history[-1] with the weights evolved cfg.history - 1 steps. weights=None
    evolves them here, on the tape (the training path); otherwise `weights`
    is the evolved_weights list to apply.

    Returns (mean, sigma) Tensors of shape (len(targets), 3P); mean carries
    gradients, sigma's trunk input is detached so the deviation head trains
    independently of the mean pathway.
    """
    targets = list(targets)
    history = np.asarray(history, dtype=float)
    if history.shape[0] != cfg.history:
        raise PredictorError(
            f"history has {history.shape[0]} steps, the config expects {cfg.history}")
    hor = cfg.horizon
    rows = len(targets)
    adjacency = np.asarray(adjacency, dtype=float)
    adj_now = adjacency if adjacency.ndim == 2 else adjacency[-1]
    anchors = history[-1, targets]
    anchor_traj = np.tile(anchors, hor)

    prev_rel = np.asarray(prev_predictions, dtype=float).reshape(rows, -1) - anchor_traj
    query = params["query"]["lstm"]
    # every step's input projected before the recurrence, in one stacked
    # (hor, rows, 3) product; numpy multiplies each step's (rows, 3) block
    # as a product of its own, so the sums round as step by step
    steps_in = prev_rel.reshape(rows, hor, 3).transpose(1, 0, 2)
    query_xw = Tensor(steps_in) @ query["Wx"]
    state = lstm_zero_state(query["Wh"].shape[0], batch=rows)
    for tau in range(hor):
        q_out, state = lstm_step(query_xw[tau], state, query)
    y = fc(q_out, params["query"]["out"], activation="relu")

    if weights is None:
        weights = evolved_weights(params, cfg)
    a_hat = normalize_adjacency(adj_now)
    node_rows = []
    for target, anchor in zip(targets, anchors):
        feats = Tensor(history[-1] - anchor)
        for w in weights[:-1]:
            feats = gcn_layer(a_hat, feats, w)
        # only the target's row of the last layer is read
        node_rows.append(gcn_layer(a_hat[target:target + 1], feats, weights[-1]))
    g = fc(concat(node_rows, axis=0), params["eg_out"], activation="relu")

    centers = np.zeros((rows, 3 * cfg.max_obstacles))
    flat = (np.asarray(obstacle_centers, dtype=float).reshape(-1, 3)[None]
            - anchors[:, None, :]).reshape(rows, -1)
    used = min(flat.shape[1], centers.shape[1])
    centers[:, :used] = flat[:, :used]
    o = fc(Tensor(centers), params["obstacle"], activation="relu")

    decoder = params["decoder"]
    # the decoder reads the same fused input at every step: project it once
    fused_xw = concat([y, o, g], axis=1) @ decoder["lstm"]["Wx"]
    dec_state = lstm_zero_state(decoder["lstm"]["Wh"].shape[0], batch=rows)
    hiddens = []
    for tau in range(hor):
        h_t, dec_state = lstm_step(fused_xw, dec_state, decoder["lstm"])
        hiddens.append(h_t)
    # each head runs once over the (hor, rows, hidden) stack of steps; its
    # (hor, rows, 3) output re-slices into the (rows, 3P) layout
    h_steps = concat(hiddens, axis=0).reshape(hor, rows, -1)
    mean_rel = fc(h_steps, decoder["mean"]).transpose(1, 0, 2).reshape(rows, 3 * hor)
    logstd = fc(h_steps.detach(), decoder["logstd"]).transpose(1, 0, 2).reshape(rows, 3 * hor)

    if cfg.residual:
        shifted = np.array([shift_trajectory(r, hor) for r in prev_rel])
        mean_rel = mean_rel + Tensor(shifted)
    mean = mean_rel + Tensor(anchor_traj)
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


def _no_grad_views(tree):
    """Same parameter arrays, wrapped in Tensors that record no backward closures."""
    return {key: _no_grad_views(value) if isinstance(value, dict) else Tensor(value.data)
            for key, value in tree.items()}


class TrajectoryPredictor:
    """Per-ego predictor state: parameters, codec calibration, prior feedback.

    The predictor runs on views of the parameter arrays that record no tape.
    The EG weights are evolved from the `eg` parameters at the first
    prediction and kept, so build a new predictor after changing the
    parameters.
    """

    def __init__(self, params, cfg: PredictorConfig, calibration=None,
                 norm=None):
        self.params = _no_grad_views(params)
        self.cfg = cfg
        self.calibration = calibration
        self.norm = norm if norm is not None else (np.zeros(cfg.traj_dim),
                                                   np.ones(cfg.traj_dim))
        self.prev_predictions = {}
        self._weights = None

    def predict_prior(self, targets, history, adjacency, obstacle_centers,
                      prev_predictions=None) -> list[GaussianTrajectoryEstimate]:
        """One prior estimate per target, in the order given.

        prev_predictions maps a target to the prediction its prior is shifted
        from; targets without one use the predictor's own feedback, or hold
        their current position.
        """
        targets = list(targets)
        if not targets:
            return []
        history = np.asarray(history, dtype=float)
        given = prev_predictions or {}
        prev = []
        for target in targets:
            prev_target = given.get(target)
            if prev_target is None:
                prev_target = self.prev_predictions.get(target)
            if prev_target is None:
                prev_target = np.tile(history[-1, target], self.cfg.horizon)
            prev.append(np.asarray(prev_target, dtype=float).reshape(-1))
        if self._weights is None:
            self._weights = evolved_weights(self.params, self.cfg)
        mean, sigma = prior_forward(self.params, self.cfg, targets, history,
                                    adjacency, obstacle_centers, np.array(prev),
                                    weights=self._weights)
        return [GaussianTrajectoryEstimate(m, s) for m, s in zip(mean.data, sigma.data)]

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

    def predict(self, targets, messages, history, adjacency, obstacle_centers,
                tick) -> dict:
        """Full pipeline: {target: trajectory}, the prior of each target fused
        with its sender's decoded message when messages holds a fresh one."""
        targets = list(targets)
        priors = self.predict_prior(targets, history, adjacency, obstacle_centers)
        out = {}
        for target, prior in zip(targets, priors):
            msg = messages.get(target)
            if msg is not None and msg.tick == tick and self.calibration is not None:
                result, _ = fuse(prior, self.decode(msg), self.calibration)
            else:
                result = prior.mean
            self.prev_predictions[target] = result
            out[target] = result
        return out
