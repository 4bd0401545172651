"""Neighbor trajectory prediction: EvolveGCN prior, VAE codec, Bayesian fusion.

All network inputs are expressed relative to the target's current position
(the anchor), which keeps feature magnitudes O(1) across the workspace. The
prior mean is the previous prediction, shifted onto this tick's horizon, plus
a learned correction.

The prior reads the current tick only: the agents' current (n, 3) positions
and the current (n, n) communication graph. It is EvolveGCN-O with a
last-step readout (Pareja et al., AAAI 2020): the GCN weights evolve without
looking at the input, cfg.history - 1 steps, and the GCN runs once on the
current graph with the evolved weights. The prior is batched: one call
predicts a list of targets, one output row each.

A row's bits do not depend on the batch it runs in: every prior batch runs
padded to a multiple of 4 rows (nn.pad_rows, which names the kernels this
was checked on).

There is one prior_forward, and it follows the type of the parameter tree
it is given (see nn.layers): on the Tensors of init_predictor_params it
records the autodiff tape, and with weights=None it evolves the weights on
that tape (the training path); on ndarrays it runs the same numpy
expressions and builds no Tensor. TrajectoryPredictor predicts on the arrays
behind its parameters. It evolves the weights on no-grad Tensor views of
those arrays, lazily at its first prediction, which records no tape either,
and passes the evolved arrays in.

predict_all predicts a tick for every ego at once: every ego reads the same
positions, graph and obstacles, so the tick's prior rows are one batch.
share_prior groups the predictors of one episode on the same parameter
arrays, under equal configs, around one evolved weight list, and
predict_all runs one predict_prior batch per group, each distinct
(target, base) row once. The shared weights die with the predictors: no
cache outlives an episode, so eg_step and lstm_step fire in every episode,
as the benchmark's traced pass requires.

Work that does not change inside a loop runs once per call. The query
LSTM's inputs are projected for every step before its recurrence, the
decoder projects its constant input once, and each decoder head runs once
over the stacked hidden states. The adjacency is normalised once, and the
last GCN layer computes only the target's row. lstm_step, gcn_layer and
eg_step are called through this module's attributes, where a tracer can
wrap them. On the training tape the LSTM cell is one node (nn.lstm_step):
each recurrent step of the query and decoder LSTMs and of the EG weight
evolution records a single node whose backward is the analytic gate
gradient. The no-grad evolution computes the same cell with no node.

The VAE codec normalizes trajectories with dataset statistics stored next to
the parameters.
"""

from dataclasses import astuple, dataclass

import numpy as np

from .nn import (
    EgCellState,
    Tensor,
    concat,
    detach,
    eg_step,
    exp,
    fc,
    flatten_params,
    gcn_layer,
    init_eg_cell,
    init_fc,
    init_lstm,
    init_vae,
    lstm_step,
    normalize_adjacency,
    pad_rows,
    vae_decode,
    vae_encode,
)


class PredictorError(ValueError):
    pass


@dataclass
class PredictorConfig:
    horizon: int = 16
    history: int = 20  # the EG weights evolve history - 1 steps
    hidden: int = 128
    feature: int = 16
    latent: int = 24
    eg_layers: int = 2
    sigma_floor: float = 1e-3
    max_obstacles: int = 2

    @property
    def traj_dim(self):
        return 3 * self.horizon

    def __post_init__(self):
        if self.eg_layers < 1 or self.history < 1:
            raise PredictorError(f"the prior needs eg_layers >= 1 and history >= 1, got "
                                 f"{self.eg_layers} and {self.history}")
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
        if not np.all(self.stddev > 0):
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
        if not np.all(self.variance > 0):
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
    """Advance a sampled trajectory one step, holding the terminal point: a
    prediction ages by one shift per tick, onto the next tick's horizon."""
    pts = np.asarray(trajectory, dtype=float).reshape(horizon, 3)
    return np.vstack([pts[1:], pts[-1:]]).reshape(-1)


def evolved_weights(params, cfg: PredictorConfig):
    """GCN weight of each EG layer after cfg.history - 1 evolution steps.

    The evolution reads only the parameters, never the input (EvolveGCN-O), so
    these are the weights the GCN applies to the current tick.
    """
    weights = []
    for i in range(cfg.eg_layers):
        cell = params["eg"][f"layer{i}"]
        state = EgCellState.initial(cell["W0"])
        for _ in range(cfg.history - 1):
            state = eg_step(state, cell)
        weights.append(state.weight)
    return weights


def prior_forward(params, cfg: PredictorConfig, targets, positions, adjacency,
                  obstacle_centers, prev_predictions, weights=None):
    """Forward pass of the EG prior, one output row per entry of targets.

    positions: (n, 3) current positions. adjacency: (n, n) current
    communication graph. prev_predictions: (len(targets), 3P) rows in target
    order, each on the previous tick's horizon; the prior shifts it once and
    adds the learned correction. The GCN runs once per target anchor on the
    current positions and graph, with the weights evolved cfg.history - 1
    steps (EvolveGCN-O). weights=None evolves them here, on the tape when
    params require grad (the training path); otherwise `weights` is the
    evolved_weights list to apply. A row's bits are those of its target
    computed alone (module docstring).

    Returns (mean, sigma) of shape (len(targets), 3P): Tensors when params or
    weights are Tensors, ndarrays when both are ndarrays. mean carries
    gradients, sigma's trunk input is detached so the deviation head trains
    independently of the mean pathway.
    """
    targets = list(targets)
    positions = np.asarray(positions, dtype=float)
    hor = cfg.horizon
    rows = len(targets)
    anchors = positions[targets]
    anchor_traj = np.tile(anchors, hor)

    prev_rel = np.asarray(prev_predictions, dtype=float).reshape(rows, -1) - anchor_traj
    query = params["query"]["lstm"]
    # every prior batch runs padded to a multiple of 4 rows (nn.pad_rows):
    # `run` rows, sliced back to `rows` at the end. Every step's input is
    # projected before the recurrence, in one stacked (hor, run, 3) product;
    # numpy multiplies each step's (run, 3) block as a product of its own,
    # so the sums round as step by step
    steps_in = pad_rows(prev_rel).reshape(-1, hor, 3).transpose(1, 0, 2)
    run = steps_in.shape[1]
    query_xw = steps_in @ query["Wx"]
    state = (np.zeros((run, query["Wh"].shape[0])),) * 2
    for tau in range(hor):
        q_out, state = lstm_step(query_xw[tau], state, query)
    y = fc(q_out, params["query"]["out"], activation="relu")

    if weights is None:
        weights = evolved_weights(params, cfg)
    a_hat = normalize_adjacency(np.asarray(adjacency, dtype=float))
    node_rows = []
    for target, anchor in zip(targets, anchors):
        feats = positions - anchor
        for w in weights[:-1]:
            feats = gcn_layer(a_hat, feats, w)
        # only the target's row of the last layer is read
        node_rows.append(gcn_layer(a_hat[target:target + 1], feats, weights[-1]))
    g = fc(pad_rows(concat(node_rows, axis=0)), params["eg_out"], activation="relu")

    centers = np.zeros((run, 3 * cfg.max_obstacles))
    flat = (np.asarray(obstacle_centers, dtype=float).reshape(-1, 3)[None]
            - anchors[:, None, :]).reshape(rows, -1)
    used = min(flat.shape[1], centers.shape[1])
    centers[:rows, :used] = flat[:, :used]
    o = fc(centers, params["obstacle"], activation="relu")

    decoder = params["decoder"]
    # the decoder reads the same fused input at every step: project it once
    fused_xw = concat([y, o, g], axis=1) @ decoder["lstm"]["Wx"]
    dec_state = (np.zeros((run, decoder["lstm"]["Wh"].shape[0])),) * 2
    hiddens = []
    for tau in range(hor):
        h_t, dec_state = lstm_step(fused_xw, dec_state, decoder["lstm"])
        hiddens.append(h_t)
    # each head is one fc over the (hor * run, hidden) stack of steps, which
    # is padded to a multiple of 4 rows like every prior batch (nn.pad_rows);
    # its output re-slices into the (rows, 3P) layout
    h_steps = concat(hiddens, axis=0)

    def head(x, fc_params):
        out = fc(x, fc_params).reshape(hor, run, 3)
        return out.transpose(1, 0, 2).reshape(run, 3 * hor)[:rows]

    mean_rel = head(h_steps, decoder["mean"])
    logstd = head(detach(h_steps), decoder["logstd"])

    # shift_trajectory of every row at once: drop the first point, repeat the last
    shifted = np.concatenate([prev_rel[:, 3:], prev_rel[:, -3:]], axis=1)
    mean = mean_rel + shifted + anchor_traj
    sigma = exp(logstd) + cfg.sigma_floor
    return mean, sigma


def fuse(prior: GaussianTrajectoryEstimate, observation, calib: CodecCalibration):
    """Coordinatewise MAP of the Gaussian product: precision-weighted mean.

    Returns (posterior mean, posterior variance).
    """
    obs = np.asarray(observation, dtype=float).reshape(-1)
    if obs.shape != prior.mean.shape or calib.variance.shape != prior.mean.shape:
        raise PredictorError("fusion inputs disagree in length")
    prior_var = prior.stddev**2
    if not (np.all(prior_var > 0) and np.all(calib.variance > 0)):
        raise PredictorError("fusion needs strictly positive variances")
    w_prior = 1.0 / prior_var
    w_obs = 1.0 / calib.variance
    posterior_var = 1.0 / (w_prior + w_obs)
    mean = (prior.mean * w_prior + obs * w_obs) * posterior_var
    return mean, posterior_var


def _map_leaves(fn, tree):
    return {key: _map_leaves(fn, value) if isinstance(value, dict) else fn(value)
            for key, value in tree.items()}


def share_prior(predictors):
    """Let predictors on the same parameter arrays share the prior's work.

    Predictors whose no-grad views share every parameter array (the same
    .data objects) and whose PredictorConfigs are equal compute the same
    prior, so each group gets one evolved weight list, which the first
    prediction fills, and predict_all runs the group's rows in one batch.
    Equal values in distinct arrays are not shared.
    """
    groups = {}
    for pred in predictors:
        arrays = tuple((name, id(t.data)) for name, t in flatten_params(pred.params).items())
        key = (astuple(pred.cfg), arrays)
        pred._weights = groups.setdefault(key, pred._weights)


class TrajectoryPredictor:
    """Per-ego predictor state: parameters, codec calibration, and the belief
    about each neighbour's plan, which predict (eg, eg+vae) and hold (vae)
    read and write.

    beliefs maps a target to (its last prediction, the tick it was made); a
    belief is read aged one shift_trajectory per tick since then. The
    prior and the codec run on the parameter arrays themselves and build no
    Tensor; `params` holds views of the same arrays in Tensors that record no
    tape, on which the EG weights are evolved at the first prediction, into
    a list that share_prior may share. Build new predictors after changing
    the parameters.
    """

    def __init__(self, params, cfg: PredictorConfig, calibration=None,
                 norm=None):
        self.params = _map_leaves(lambda t: Tensor(t.data), params)
        self._arrays = _map_leaves(lambda t: t.data, params)
        self.cfg = cfg
        self.calibration = calibration
        self.norm = norm if norm is not None else (np.zeros(cfg.traj_dim),
                                                   np.ones(cfg.traj_dim))
        self.beliefs = {}
        self._weights = []

    def _aged(self, target, tick):
        """target's belief on tick's horizon."""
        traj, made = self.beliefs[target]
        for _ in range(tick - made):
            traj = shift_trajectory(traj, self.cfg.horizon)
        return traj

    def predict_prior(self, targets, positions, adjacency, obstacle_centers,
                      prev_predictions=None) -> list[GaussianTrajectoryEstimate]:
        """One prior estimate per entry of targets, in the order given, from
        one prior_forward batch.

        prev_predictions holds one base per entry, the prediction its prior
        is shifted from, on the previous tick's horizon: cfg.traj_dim values,
        or None to hold the target's current position; None holds every
        target's. A target may appear twice with two bases. The estimates'
        arrays are read-only.
        """
        targets = list(targets)
        if not targets:
            return []
        positions = np.asarray(positions, dtype=float)
        bases = [None] * len(targets) if prev_predictions is None else list(prev_predictions)
        if len(bases) != len(targets):
            raise PredictorError(f"{len(bases)} bases for {len(targets)} targets")
        prev = [np.tile(positions[t], self.cfg.horizon) if b is None
                else np.asarray(b, dtype=float).reshape(-1) for t, b in zip(targets, bases)]
        if any(p.size != self.cfg.traj_dim for p in prev):
            raise PredictorError(f"every base needs {self.cfg.traj_dim} entries, got "
                                 f"{[p.size for p in prev]}")
        if not self._weights:
            self._weights.extend(w.data for w in evolved_weights(self.params, self.cfg))
        mean, sigma = prior_forward(self._arrays, self.cfg, targets, positions, adjacency,
                                    obstacle_centers, np.array(prev), weights=self._weights)
        mean.flags.writeable = sigma.flags.writeable = False
        return [GaussianTrajectoryEstimate(m, s) for m, s in zip(mean, sigma)]

    def encode(self, traj, tick, sender, mode="sample", rng=None) -> Message:
        mean, std = self.norm
        x = (np.asarray(traj, dtype=float).reshape(1, -1) - mean) / std
        z_mean, z_logstd = vae_encode(x, self._arrays["vae"])
        if mode == "sample":
            if rng is None:
                raise PredictorError("sample mode needs an rng")
            z = z_mean + np.exp(z_logstd) * rng.standard_normal(z_mean.shape)
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
        mean, std = self.norm
        out = vae_decode(msg.latent.reshape(1, -1), self._arrays["vae"])
        return out.reshape(-1) * std + mean

    def predict(self, targets, messages, positions, adjacency, obstacle_centers,
                tick) -> dict:
        """predict_all for this predictor alone: {target: trajectory}."""
        return predict_all([self], [targets], [messages], positions, adjacency,
                           obstacle_centers, tick)[0]

    def hold(self, targets, messages, positions, tick) -> dict:
        """VAE mode, without a prior: {target: trajectory}.

        A fresh message (its tick is this tick) is decoded and replaces the
        target's belief. On a tick without one (off the communication period,
        or the packet lost) the last decoded message is held, shifted one
        sample per tick since it arrived, so it stays on this tick's horizon.
        Before a target's first message its current position is held, and
        not stored.
        """
        out = {}
        for target in targets:
            msg = messages.get(target)
            if msg is not None and msg.tick == tick:
                self.beliefs[target] = (self.decode(msg), tick)
            out[target] = (self._aged(target, tick) if target in self.beliefs
                           else np.tile(positions[target], self.cfg.horizon))
        return out


def predict_all(predictors, target_sets, inboxes, positions, adjacency, obstacle_centers,
                tick) -> list[dict]:
    """The full pipeline for every ego of a tick: {target: trajectory} of
    each target_sets[i], as predictors[i] sees it with inboxes[i].

    Each target's prior is shifted from the ego's belief, aged onto the
    previous tick's horizon, or holds the target's current position when
    the ego has none. It is fused with the sender's decoded message when the
    inbox holds a fresh one, and the result becomes the ego's belief. The
    requests of a share_prior group run in one predict_prior batch, each
    distinct (target, base) once; a row's bits do not depend on its batch.

    Raises PredictorError, before any belief changes, when a fresh message
    arrives at a predictor without a codec calibration to fuse it with.
    """
    # {id(weight list): (a predictor of the group, {(target, base bytes): base})}
    groups, egos = {}, []
    for pred, targets, inbox in zip(predictors, target_sets, inboxes):
        targets = list(targets)
        fresh = {t: inbox[t] for t in targets if t in inbox and inbox[t].tick == tick}
        if fresh and pred.calibration is None:
            sender = next(iter(fresh.values())).sender
            raise PredictorError(f"fresh message from sender {sender!r}, but the predictor "
                                 "has no codec calibration to fuse it with")
        requests = groups.setdefault(id(pred._weights), (pred, {}))[1]
        keys = []
        for t in targets:
            base = pred._aged(t, tick - 1) if t in pred.beliefs else None
            keys.append((t, None if base is None else base.tobytes()))
            requests.setdefault(keys[-1], base)
        egos.append((pred, keys, fresh))
    priors = {}
    for group, (pred, requests) in groups.items():
        estimates = pred.predict_prior([t for t, _ in requests], positions, adjacency,
                                       obstacle_centers, list(requests.values()))
        priors[group] = dict(zip(requests, estimates))
    out = []
    for pred, keys, fresh in egos:
        preds = {}
        for key in keys:
            target, prior = key[0], priors[id(pred._weights)][key]
            msg = fresh.get(target)
            result = (prior.mean if msg is None
                      else fuse(prior, pred.decode(msg), pred.calibration)[0])
            pred.beliefs[target] = (result, tick)
            preds[target] = result
        out.append(preds)
    return out
