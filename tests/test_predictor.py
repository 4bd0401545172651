import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcoord import predictor
from swarmcoord.nn import (
    EgCellState,
    Tensor,
    concat,
    eg_step,
    fc,
    flatten_params,
    gcn_layer,
    lstm_step,
    normalize_adjacency,
    vae_decode,
    vae_encode,
    vae_forward,
    zero_grads,
)
from swarmcoord.predictor import (
    CodecCalibration,
    GaussianTrajectoryEstimate,
    Message,
    PredictorConfig,
    PredictorError,
    TrajectoryPredictor,
    evolved_weights,
    fuse,
    init_predictor_params,
    prior_forward,
    shift_trajectory,
)


def lstm_zero_state(n_hidden, batch=1):
    """A taped LSTM's zero (h, c): the start state of the reference forwards here."""
    return (Tensor(np.zeros((batch, n_hidden))), Tensor(np.zeros((batch, n_hidden))))


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


class TestConfig:
    @pytest.mark.parametrize("field", ["eg_layers", "history"])
    def test_prior_without_layers_or_history_rejected(self, field):
        with pytest.raises(PredictorError, match="eg_layers >= 1 and history >= 1"):
            PredictorConfig(**{field: 0})


class TestShift:
    def test_shift_trajectory(self):
        traj = np.arange(12.0)
        shifted = shift_trajectory(traj, 4)
        assert np.array_equal(shifted[:9], traj[3:])
        assert np.array_equal(shifted[9:], traj[9:])

    def test_shifts_every_row(self):
        rows = np.arange(36.0).reshape(3, 12)
        shifted = shift_trajectory(rows, 4)
        assert shifted.shape == (3, 12)
        for row, want in zip(shifted, rows):
            assert np.array_equal(row, shift_trajectory(want, 4))

    @pytest.mark.parametrize("shape", [(11,), (13,), (2, 11), (12, 3), ()], ids=str)
    def test_wrong_last_axis_rejected(self, shape):
        with pytest.raises(PredictorError, match="12 entries on its last axis"):
            shift_trajectory(np.zeros(shape), 4)


class TestPrior:
    def test_untrained_output_contract(self, cfg, params):
        rng = np.random.default_rng(1)
        pred = TrajectoryPredictor(params, cfg)
        history = make_history(rng, 5, cfg.history)
        est = pred.predict_prior([2], history[-1], ring_adjacency(5),
                                 np.array([[10.0, 4, 0], [10.0, -4, 0]]))[0]
        assert np.all(np.isfinite(est.mean))
        assert np.all(est.stddev >= cfg.sigma_floor)
        assert est.mean.size == cfg.traj_dim

    def test_permuting_other_agents_leaves_target_unchanged(self, cfg, params):
        rng = np.random.default_rng(2)
        pred = TrajectoryPredictor(params, cfg)
        n = 5
        positions = make_history(rng, n, cfg.history)[-1]
        adj = ring_adjacency(n)
        obstacles = np.array([[8.0, 3, 0], [8.0, -3, 0]])
        target = 0
        est = pred.predict_prior([target], positions, adj, obstacles)[0]
        # swap agents 2 and 4 everywhere
        perm = np.arange(n)
        perm[[2, 4]] = [4, 2]
        est_p = pred.predict_prior([target], positions[perm], adj[np.ix_(perm, perm)],
                                   obstacles,
                                   prev_predictions=[np.tile(positions[target],
                                                             cfg.horizon)])[0]
        assert np.allclose(est.mean, est_p.mean, atol=1e-10)

    def test_changing_one_position_recomputes(self, cfg, params):
        rng = np.random.default_rng(111)
        positions, adjacency, obstacles = (make_history(rng, 4, cfg.history)[-1],
                                           ring_adjacency(4), np.zeros((2, 3)))
        pred = TrajectoryPredictor(params, cfg)
        before = pred.predict_prior([1, 3], positions, adjacency, obstacles)
        moved = positions.copy()
        moved[0, 2] += 1e-3  # not a target: only the GCN reads it
        after = pred.predict_prior([1, 3], moved, adjacency, obstacles)
        fresh = TrajectoryPredictor(params, cfg).predict_prior([1, 3], moved, adjacency,
                                                               obstacles)
        for a, b in zip(after, fresh, strict=True):
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.stddev, b.stddev)
        assert not np.array_equal(after[0].mean, before[0].mean)

    @pytest.mark.parametrize("size", [1, 5, "3P+3", "mapping"])
    def test_base_of_the_wrong_length_rejected(self, cfg, params, size):
        # a 1-entry base would broadcast into a whole row and a 5-entry one
        # fail inside numpy; a {target: base} mapping lists its targets
        rng = np.random.default_rng(3)
        positions = make_history(rng, 4, cfg.history)[-1]
        if size == "mapping":
            targets, bases = [2], {2: np.tile(positions[2], cfg.horizon)}
        else:
            targets = [1, 2]
            bases = [None, np.ones(cfg.traj_dim + 3 if size == "3P+3" else size)]
        pred = TrajectoryPredictor(params, cfg)
        with pytest.raises(PredictorError, match=f"every base needs {cfg.traj_dim} entries"):
            pred.predict_prior(targets, positions, ring_adjacency(4), np.zeros((2, 3)), bases)


def reference_prior_forward(params, cfg, target, history, adjacency,
                            obstacle_centers, prev_prediction):
    """The per-target EG prior: every history step through the GCN, on the tape.

    Kept as the oracle the batched prior_forward is compared against: the
    batched prior reads only the last history row and adjacency, and agrees.
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
        q_out, state = lstm_step(step_in @ params["query"]["lstm"]["Wx"], state,
                                 params["query"]["lstm"])
    y = fc(q_out, params["query"]["out"], activation="relu")

    eg_states = [EgCellState.initial(params["eg"][f"layer{i}"]["W0"])
                 for i in range(cfg.eg_layers)]
    node_out = None
    for h in range(h_steps):
        feats = Tensor(history[h] - anchor)
        for i in range(cfg.eg_layers):
            feats = gcn_layer(normalize_adjacency(adjacency[h]), feats, eg_states[i].weight)
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
        h_t, dec_state = lstm_step(fused_in @ params["decoder"]["lstm"]["Wx"], dec_state,
                                   params["decoder"]["lstm"])
        means.append(fc(h_t, params["decoder"]["mean"]))
        logstds.append(fc(h_t.detach(), params["decoder"]["logstd"]))
    mean_rel = concat(means, axis=1)
    logstd = concat(logstds, axis=1)

    mean = (mean_rel + Tensor(shift_trajectory(prev_rel, hor).reshape(1, -1))
            + Tensor(np.tile(anchor, hor).reshape(1, -1)))
    sigma = logstd.exp() + cfg.sigma_floor
    return mean.data.reshape(-1), sigma.data.reshape(-1)


def random_adjacency(rng, n, steps=None):
    shape = (n, n) if steps is None else (steps, n, n)
    upper = np.triu(rng.random(shape) < 0.4, k=1).astype(float)
    return upper + np.swapaxes(upper, -1, -2)


def assert_rel_close(actual, expected, rtol=1e-12):
    scale = max(np.max(np.abs(expected)), 1e-300)
    assert np.max(np.abs(actual - expected)) <= rtol * scale


class TestBatchedPrior:
    @pytest.mark.parametrize("n", [4, 13])
    @pytest.mark.parametrize("adj_steps", [None, "history"])
    def test_matches_per_target_reference(self, cfg, params, n, adj_steps):
        rng = np.random.default_rng(100 + n)
        history = make_history(rng, n, cfg.history)
        adjacency = random_adjacency(
            rng, n, cfg.history if adj_steps == "history" else None)
        adjacency[..., 0, 1:] = adjacency[..., 1:, 0] = 1.0  # ego 0 sees everyone
        obstacles = np.array([[8.0, 3, 0], [8.0, -3, 0]])
        last_adj = adjacency if adjacency.ndim == 2 else adjacency[-1]
        target_sets = [[n - 1],
                       list(np.flatnonzero(last_adj[0])),
                       list(rng.permutation(n)[:min(n, 7)])]
        assert target_sets[2] != sorted(target_sets[2])
        pred = TrajectoryPredictor(params, cfg)
        for targets in target_sets:
            # every other target has a previous prediction, the rest hold position
            prev = {t: np.tile(history[-1, t], cfg.horizon)
                    + rng.normal(scale=0.3, size=cfg.traj_dim) for t in targets[::2]}
            estimates = pred.predict_prior(targets, history[-1], last_adj, obstacles,
                                           prev_predictions=[prev.get(t) for t in targets])
            assert len(estimates) == len(targets)
            for target, est in zip(targets, estimates):
                prev_t = prev.get(target, np.tile(history[-1, target], cfg.horizon))
                mean, sigma = reference_prior_forward(params, cfg, target, history,
                                                      adjacency, obstacles, prev_t)
                assert_rel_close(est.mean, mean)
                assert_rel_close(est.stddev, sigma)

    def test_predict_fuses_fresh_messages(self, cfg, params):
        rng = np.random.default_rng(101)
        n, tick = 6, 4
        history = make_history(rng, n, cfg.history)
        adjacency = random_adjacency(rng, n)
        obstacles = np.array([[8.0, 3, 0], [8.0, -3, 0]])
        calibration = CodecCalibration(rng.uniform(0.05, 2.0, size=cfg.traj_dim))
        pred = TrajectoryPredictor(params, cfg, calibration=calibration)
        targets = [4, 1, 3, 5]
        messages = {4: pred.encode(rng.normal(size=cfg.traj_dim), tick, 4, mode="mean"),
                    1: pred.encode(rng.normal(size=cfg.traj_dim), tick - 1, 1, mode="mean"),
                    5: pred.encode(rng.normal(size=cfg.traj_dim), tick, 5, mode="mean")}
        out = pred.predict_all([targets], [messages], history[-1], adjacency, obstacles,
                               tick)[0]
        assert list(out) == targets
        for target in targets:
            mean, sigma = reference_prior_forward(
                params, cfg, target, history, adjacency, obstacles,
                np.tile(history[-1, target], cfg.horizon))
            expected = mean
            msg = messages.get(target)
            if msg is not None and msg.tick == tick:
                shift, scale = pred.norm
                decoded = (vae_decode(Tensor(msg.latent.reshape(1, -1)), params["vae"])
                           .data.reshape(-1) * scale + shift)
                expected, _ = fuse(GaussianTrajectoryEstimate(mean, sigma), decoded,
                                   calibration)
                assert np.max(np.abs(expected - mean)) > 1e-3
            assert_rel_close(out[target], expected)
            assert pred.beliefs[0, target][0] is out[target]
            assert pred.beliefs[0, target][1] == tick

    def test_evolved_weights_match_explicit_steps(self, cfg, params):
        weights = evolved_weights(params, cfg)
        assert len(weights) == cfg.eg_layers
        for i, w in enumerate(weights):
            cell = params["eg"][f"layer{i}"]
            state = EgCellState.initial(cell["W0"])
            for _ in range(cfg.history - 1):
                state = eg_step(state, cell)
            assert np.array_equal(w.data, state.weight.data)
            assert not np.array_equal(w.data, cell["W0"].data)

    def test_inference_records_no_tape(self, cfg, params):
        pred = TrajectoryPredictor(params, cfg)
        views = flatten_params(pred.params)
        live = flatten_params(params)
        assert all(views[k].data is live[k].data for k in live)
        # an op records a backward closure only when an input requires grad
        assert not any(t.requires_grad for t in views.values())


@st.composite
def prior_cases(draw):
    """1-8 entries in a random order among up to two more agents: distinct
    targets, or one target twice with two beliefs, each other entry with or
    without a belief; the config, and a seed for the positions, graph,
    obstacles and beliefs."""
    entries = draw(st.integers(1, 8))
    twice = entries > 1 and draw(st.booleans())
    n_targets = entries - twice
    n = n_targets + draw(st.integers(0, 2))
    targets = draw(st.permutations(range(n)))[:n_targets]
    believed = draw(st.lists(st.booleans(), min_size=n_targets, max_size=n_targets))
    if twice:
        k = draw(st.integers(0, n_targets - 1))
        believed[k] = True
        at = draw(st.integers(0, n_targets))
        targets.insert(at, targets[k])
        believed.insert(at, True)
    config = draw(st.sampled_from(["small", "default"]))
    return targets, believed, n, config, draw(st.integers(0, 2**32 - 1))


class TestArrayInference:
    """The predictor's prior and codec run on plain arrays; the taped
    prior_forward on parameters that require grad is the reference."""

    @pytest.fixture(scope="class")
    def biased(self, cfg):
        """{config: (cfg, parameters)} whose biases are nonzero too: a zero
        bias would hide a change in the order the gate sums round in."""
        trees = {}
        for name, pcfg in (("small", cfg), ("default", PredictorConfig())):
            tree = init_predictor_params(np.random.default_rng(109), pcfg)
            rng = np.random.default_rng(110)
            for leaf, t in flatten_params(tree).items():
                if leaf.endswith(".b"):
                    t.data[:] = rng.normal(scale=0.5, size=t.shape)
            trees[name] = pcfg, tree
        return trees

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=prior_cases())
    def test_predict_prior_equals_the_tape_bitwise(self, biased, case):
        targets, believed, n, config, seed = case
        cfg, params = biased[config]
        rng = np.random.default_rng(seed)
        positions = rng.normal(scale=2.0, size=(n, 3))
        adjacency = random_adjacency(rng, n)
        obstacles = rng.normal(scale=4.0, size=(rng.integers(0, 3), 3))
        bases = [np.tile(positions[t], cfg.horizon) + rng.normal(scale=0.3, size=cfg.traj_dim)
                 if has else None for t, has in zip(targets, believed)]
        estimates = TrajectoryPredictor(params, cfg).predict_prior(
            targets, positions, adjacency, obstacles, prev_predictions=bases)
        prev = [np.tile(positions[t], cfg.horizon) if b is None else b
                for t, b in zip(targets, bases)]
        mean, sigma = prior_forward(params, cfg, targets, positions, adjacency, obstacles,
                                    np.array(prev))
        assert mean.requires_grad and sigma.requires_grad
        assert len(estimates) == len(targets)
        for est, m, s in zip(estimates, mean.data, sigma.data):
            assert np.array_equal(est.mean, m)
            assert np.array_equal(est.stddev, s)

    def test_inference_after_evolution_builds_no_tensor(self, cfg, params, monkeypatch):
        rng = np.random.default_rng(108)
        positions = make_history(rng, 4, cfg.history)[-1]
        adjacency, obstacles = ring_adjacency(4), np.zeros((2, 3))
        pred = TrajectoryPredictor(params, cfg,
                                   calibration=CodecCalibration(np.ones(cfg.traj_dim)))
        pred.predict_all([[1, 3]], [{}], positions, adjacency, obstacles, tick=0)
        built = []
        real_init = Tensor.__init__

        def tensor_init(tensor, *args, **kwargs):
            built.append(None)
            real_init(tensor, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", tensor_init)
        # the prior, with and without beliefs, and the codec both ways
        msg = pred.encode(rng.normal(size=cfg.traj_dim), tick=1, sender=3, mode="mean")
        out = pred.predict_all([[1, 2, 3]], [{3: msg}], positions, adjacency, obstacles,
                               tick=1)[0]
        assert list(out) == [1, 2, 3]
        assert built == []
        Tensor(np.zeros(1))
        assert len(built) == 1


class TestHookContract:
    """A benchmark tracer wraps lstm_step, gcn_layer and eg_step at the
    predictor module's attributes: the prior calls each through them."""

    @pytest.mark.parametrize("config", ["default", "small"])
    def test_one_prior_call_counts(self, cfg, monkeypatch, config):
        pcfg = PredictorConfig() if config == "default" else cfg
        calls = dict.fromkeys(("lstm_step", "gcn_layer", "eg_step"), 0)
        for name in calls:
            def counting(*args, _name=name, _real=getattr(predictor, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(predictor, name, counting)
        rng = np.random.default_rng(106)
        targets = [1, 2, 3]
        pred = TrajectoryPredictor(init_predictor_params(rng, pcfg), pcfg)
        pred.predict_prior(targets, make_history(rng, 4, pcfg.history)[-1],
                           ring_adjacency(4), np.zeros((2, 3)))
        assert calls == {"lstm_step": 2 * pcfg.horizon,
                         "gcn_layer": pcfg.eg_layers * len(targets),
                         "eg_step": pcfg.eg_layers * (pcfg.history - 1)}
        if config == "default":
            assert tuple(calls.values()) == (32, 6, 38)

    def test_one_predict_fires_every_benchmark_hook(self, cfg, params, monkeypatch):
        # the benchmark also counts Tensor constructions, and fails a learned
        # workload on which any of its predictor hooks never fires
        calls = dict.fromkeys(("lstm_step", "gcn_layer", "eg_step", "Tensor"), 0)
        for name in ("lstm_step", "gcn_layer", "eg_step"):
            def counting(*args, _name=name, _real=getattr(predictor, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(predictor, name, counting)
        real_init = Tensor.__init__

        def tensor_init(tensor, *args, **kwargs):
            calls["Tensor"] += 1
            real_init(tensor, *args, **kwargs)

        rng = np.random.default_rng(107)
        pred = TrajectoryPredictor(params, cfg)
        monkeypatch.setattr(Tensor, "__init__", tensor_init)
        out = pred.predict_all([[1, 3]], [{}], make_history(rng, 4, cfg.history)[-1],
                               ring_adjacency(4), np.zeros((2, 3)), tick=0)[0]
        assert list(out) == [1, 3]
        assert all(count > 0 for count in calls.values()), calls


class TestSharedPrior:
    """Every ego of one predict_all call shares one prior batch, and keeps
    its own beliefs under (ego, target)."""

    @pytest.fixture
    def batches(self, monkeypatch):
        """The (targets, base rows) of each prior_forward call."""
        calls, real = [], predictor.prior_forward

        def recording(params, cfg, targets, positions, adjacency, obstacles, prev, **kw):
            calls.append((list(targets), np.array(prev)))
            return real(params, cfg, targets, positions, adjacency, obstacles, prev, **kw)

        monkeypatch.setattr(predictor, "prior_forward", recording)
        return calls

    @pytest.fixture
    def context(self, cfg):
        rng = np.random.default_rng(111)
        return make_history(rng, 4, cfg.history)[-1], ring_adjacency(4), np.zeros((2, 3))

    def test_stored_rows_are_read_only(self, cfg, params, context):
        pred = TrajectoryPredictor(params, cfg)
        pred.predict_all([[1, 3], [1, 3]], [{}, {}], *context, tick=0)
        mine, theirs = pred.beliefs[0, 1][0], pred.beliefs[1, 1][0]
        assert np.shares_memory(mine, theirs)
        for row in (mine, theirs, pred.predict_prior([1, 3], *context)[1].stddev):
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 0.0

    def test_egos_keep_their_beliefs_apart(self, cfg, params, context):
        positions = context[0]
        pred = TrajectoryPredictor(params, cfg)
        pred.predict_all([[1, 3], [3]], [{}, {}], *context, tick=0)
        # ego 1 comes to believe another plan for 3; ego 0's belief stays
        ego0, made = pred.beliefs[0, 3]
        ego1 = ego0 + 0.1
        pred.beliefs[1, 3] = (ego1, made)
        out = pred.predict_all([[3], [3]], [{}, {}], *context, tick=1)
        want = TrajectoryPredictor(params, cfg).predict_prior([3, 3], *context, [ego0, ego1])
        for ego, (preds, est) in enumerate(zip(out, want)):
            assert np.array_equal(preds[3], est.mean)
            assert pred.beliefs[ego, 3][0] is preds[3]
        assert not np.array_equal(out[0][3], out[1][3])
        # hold: a message to ego 0 alone is ego 0's belief; ego 1 keeps its own
        msg = pred.encode(np.tile(positions[3], cfg.horizon) + 1.0, tick=2, sender=3,
                          mode="mean")
        held = [pred.hold(ego, [3], inbox, positions, tick=2)
                for ego, inbox in ((0, {3: msg}), (1, {}))]
        assert np.array_equal(held[0][3], pred.decode(msg))
        assert np.array_equal(held[1][3], shift_trajectory(out[1][3], cfg.horizon))
        assert pred.beliefs[1, 3][1] == 1

    def test_predict_all_batches_each_group_once(self, cfg, params, context, batches):
        calibration = CodecCalibration(np.full(cfg.traj_dim, 0.5))
        pred = TrajectoryPredictor(params, cfg, calibration=calibration)
        # the four egos of a call are one group, whose rows run in one batch
        targets = [[1, 2, 3], [1, 2, 3], [1, 3], [2, 3]]
        pred.predict_all(targets, [{}] * 4, *context, tick=0)
        # the beliefs diverge: ego 1 sees another plan for 3 and none for 2
        traj, made = pred.beliefs[1, 3]
        pred.beliefs[1, 3] = (traj + 0.1, made)
        del pred.beliefs[1, 2]
        rng = np.random.default_rng(112)
        msg = pred.encode(rng.normal(size=cfg.traj_dim), tick=1, sender=3, mode="mean")
        inboxes = [{3: msg}, {}, {3: msg}, {}]
        twin = copy.deepcopy(pred)
        batches.clear()
        out = pred.predict_all(targets, inboxes, *context, tick=1)
        assert [b[0] for b in batches] == [[1, 2, 3, 2, 3]]
        (batch_targets, rows), = batches
        keys = [(t, row.tobytes()) for t, row in zip(batch_targets, rows)]
        assert len(set(keys)) == len(keys)
        # each ego reads its rows from the batch, recomputed here on the same
        # (target, base) list: the same batch gives the same bits
        estimates = twin.predict_prior(batch_targets, *context, list(rows))
        rows_by_key = dict(zip(keys, estimates))
        positions = context[0]
        for ego, (own, inbox, preds) in enumerate(zip(targets, inboxes, out)):
            assert list(preds) == own
            for t in own:
                base = (twin._aged((ego, t), 0) if (ego, t) in twin.beliefs
                        else np.tile(positions[t], cfg.horizon))
                prior = rows_by_key[t, base.tobytes()]
                want = (prior.mean if t not in inbox
                        else fuse(prior, twin.decode(inbox[t]), twin.calibration)[0])
                assert np.array_equal(preds[t], want)
            assert all(pred.beliefs[ego, t][0] is preds[t] for t in own)
        assert not np.array_equal(out[0][3], out[1][3])

        # a fresh message at the last ego, with no calibration
        pred.calibration = None
        before = {key: (traj.copy(), made) for key, (traj, made) in pred.beliefs.items()}
        with pytest.raises(PredictorError, match="sender 3"):
            pred.predict_all(targets, [{}, {}, {}, {3: msg}], *context, tick=1)
        assert pred.beliefs.keys() == before.keys()
        assert all(np.array_equal(pred.beliefs[key][0], traj) and pred.beliefs[key][1] == made
                   for key, (traj, made) in before.items())


class TestPriorGradients:
    @pytest.mark.parametrize("output, checked", [
        ("mean", ("eg.layer0.W0", "eg.layer1.Wx", "query.lstm.Wx", "decoder.mean.W")),
        ("sigma", ("decoder.logstd.W", "decoder.logstd.b")),
    ], ids=["mean", "sigma"])
    def test_training_path_matches_finite_difference(self, cfg, output, checked):
        rng = np.random.default_rng(105)
        live = init_predictor_params(np.random.default_rng(7), cfg)
        n = 5
        history = make_history(rng, n, cfg.history)
        adjacency = random_adjacency(rng, n, cfg.history)
        obstacles = np.array([[8.0, 3, 0], [8.0, -3, 0]])
        targets = [3, 0, 4]
        prev = np.tile(history[-1, targets], cfg.horizon) + rng.normal(
            scale=0.3, size=(len(targets), cfg.traj_dim))
        probe = rng.normal(size=(len(targets), cfg.traj_dim))

        def loss():
            mean, sigma = prior_forward(live, cfg, targets, history[-1], adjacency[-1],
                                        obstacles, prev)
            return ({"mean": mean, "sigma": sigma}[output] * Tensor(probe)).sum()

        zero_grads(live)
        loss().backward()
        flat = flatten_params(live)
        if output == "sigma":
            # sigma's trunk input is detached: no trunk parameter gets a gradient
            for name in ("eg.layer0.W0", "query.lstm.Wx", "decoder.lstm.Wx", "decoder.mean.W"):
                grad = flat[name].grad
                assert grad is None or not np.any(grad), name
        eps = 1e-6
        for name in checked:
            param = flat[name]
            assert param.grad is not None and param.grad.shape == param.data.shape
            if name.startswith("eg.") or output == "sigma":
                assert np.any(param.grad != 0.0)
            for idx in [tuple(rng.integers(0, s) for s in param.data.shape)
                        for _ in range(3)]:
                saved = param.data[idx]
                param.data[idx] = saved + eps
                up = loss().data
                param.data[idx] = saved - eps
                down = loss().data
                param.data[idx] = saved
                fd = (up - down) / (2 * eps)
                assert abs(param.grad[idx] - fd) <= 1e-6 * max(1.0, abs(fd)), name


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

    def test_norm_wraps_the_vae(self, cfg, params):
        # encode reads the encoder's z_mean on (x - mean) / std, decode
        # returns the decoder's output * std + mean
        rng = np.random.default_rng(8)
        mean, std = rng.normal(size=cfg.traj_dim), rng.uniform(0.5, 2.0, size=cfg.traj_dim)
        pred = TrajectoryPredictor(params, cfg, norm=(mean, std))
        traj = rng.normal(size=cfg.traj_dim)
        msg = pred.encode(traj, tick=0, sender=0, mode="mean")
        z_mean = vae_forward(Tensor(((traj - mean) / std)[None]), params["vae"])["z_mean"]
        assert np.array_equal(msg.latent, z_mean.data.reshape(-1))
        decoded = vae_decode(Tensor(msg.latent[None]), params["vae"]).data.reshape(-1)
        assert np.array_equal(pred.decode(msg), decoded * std + mean)

    def test_encode_reads_the_encoder_alone(self, cfg, params):
        rng = np.random.default_rng(9)
        pred = TrajectoryPredictor(params, cfg)
        traj = rng.normal(size=cfg.traj_dim)
        full = vae_forward(Tensor(traj[None]), params["vae"])
        z_mean, z_logstd = vae_encode(Tensor(traj[None]), params["vae"])
        assert np.array_equal(z_mean.data, full["z_mean"].data)
        assert np.array_equal(z_logstd.data, full["z_logstd"].data)
        msg = pred.encode(traj, tick=0, sender=0, mode="mean")
        assert np.array_equal(msg.latent, full["z_mean"].data.reshape(-1))
        noise = np.random.default_rng(10).standard_normal(z_mean.shape)
        msg = pred.encode(traj, tick=0, sender=0, mode="sample", rng=np.random.default_rng(10))
        want = full["z_mean"].data + np.exp(full["z_logstd"].data) * noise
        assert np.array_equal(msg.latent, want.reshape(-1))

    def test_decode_dimension_mismatch(self, cfg, params):
        pred = TrajectoryPredictor(params, cfg)
        with pytest.raises(PredictorError):
            pred.decode(Message(0, 0, np.zeros(cfg.latent + 1)))

    @pytest.mark.parametrize("size", [1, 5, "3P+3"])
    def test_encode_trajectory_of_the_wrong_length_rejected(self, cfg, params, size):
        # a 1-entry trajectory would broadcast into a whole message and a
        # 5-entry one fail inside numpy
        pred = TrajectoryPredictor(params, cfg)
        traj = np.ones(cfg.traj_dim + 3 if size == "3P+3" else size)
        with pytest.raises(PredictorError, match=f"needs {cfg.traj_dim} entries"):
            pred.encode(traj, tick=0, sender=0, mode="mean")


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

    def test_nan_stddev_rejected(self):
        with pytest.raises(PredictorError, match="stddev must be strictly positive"):
            GaussianTrajectoryEstimate(np.zeros(3), np.array([1.0, np.nan, 1.0]))

    def test_nan_calibration_variance_rejected(self):
        with pytest.raises(PredictorError, match="variances must be strictly positive"):
            CodecCalibration(np.array([1.0, np.nan, 1.0]))

    def test_nonpositive_variance_rejected(self):
        prior = GaussianTrajectoryEstimate(np.zeros(3), np.ones(3))
        with pytest.raises(PredictorError):
            fuse(prior, np.zeros(3), CodecCalibration(np.array([1.0, -1.0, 1.0])))


class TestPredict:
    def test_no_message_returns_prior_mean(self, cfg, params):
        rng = np.random.default_rng(17)
        pred = TrajectoryPredictor(params, cfg,
                                   calibration=CodecCalibration(np.ones(cfg.traj_dim)))
        positions = make_history(rng, 4, cfg.history)[-1]
        adj = ring_adjacency(4)
        obstacles = np.zeros((2, 3))
        out = pred.predict_all([[1]], [{}], positions, adj, obstacles, tick=0)[0][1]
        pred2 = TrajectoryPredictor(params, cfg)
        prior = pred2.predict_prior([1], positions, adj, obstacles)[0]
        assert np.allclose(out, prior.mean)

    def test_tiny_codec_variance_tracks_message(self, cfg, params):
        rng = np.random.default_rng(18)
        pred = TrajectoryPredictor(
            params, cfg, calibration=CodecCalibration(np.full(cfg.traj_dim, 1e-12)))
        positions = make_history(rng, 4, cfg.history)[-1]
        msg = pred.encode(rng.normal(size=cfg.traj_dim), tick=5, sender=1, mode="mean")
        out = pred.predict_all([[1]], [{1: msg}], positions, ring_adjacency(4),
                               np.zeros((2, 3)), tick=5)[0][1]
        assert np.max(np.abs(out - pred.decode(msg))) < 1e-6

    def test_fresh_message_without_calibration_raises(self, cfg, params):
        rng = np.random.default_rng(23)
        pred = TrajectoryPredictor(params, cfg)
        positions = make_history(rng, 4, cfg.history)[-1]
        msg = pred.encode(rng.normal(size=cfg.traj_dim), tick=5, sender=1, mode="mean")
        with pytest.raises(PredictorError, match="sender 1"):
            pred.predict_all([[2, 1]], [{1: msg}], positions, ring_adjacency(4),
                             np.zeros((2, 3)), tick=5)
        assert pred.beliefs == {}
        # a stale message is not fused, so it needs no calibration
        out = pred.predict_all([[1]], [{1: msg}], positions, ring_adjacency(4),
                               np.zeros((2, 3)), tick=6)[0]
        assert pred.beliefs[0, 1][0] is out[1]

    def test_stale_message_discarded_by_default(self, cfg, params):
        rng = np.random.default_rng(19)
        pred = TrajectoryPredictor(
            params, cfg, calibration=CodecCalibration(np.full(cfg.traj_dim, 1e-12)))
        positions = make_history(rng, 4, cfg.history)[-1]
        msg = pred.encode(rng.normal(size=cfg.traj_dim), tick=2, sender=1, mode="mean")
        out = pred.predict_all([[1]], [{1: msg}], positions, ring_adjacency(4),
                               np.zeros((2, 3)), tick=7)[0][1]
        prior = TrajectoryPredictor(params, cfg).predict_prior(
            [1], positions, ring_adjacency(4), np.zeros((2, 3)))[0]
        assert np.allclose(out, prior.mean)

    def test_full_pipeline_deterministic(self, cfg, params):
        def run():
            rng = np.random.default_rng(20)
            pred = TrajectoryPredictor(
                params, cfg, calibration=CodecCalibration(np.ones(cfg.traj_dim)))
            outs = []
            for tick in range(3):
                positions = make_history(rng, 4, cfg.history)[-1]
                msg = pred.encode(rng.normal(size=cfg.traj_dim), tick=tick,
                                  sender=1, mode="sample", rng=rng)
                outs.append(pred.predict_all([[1]], [{1: msg}], positions, ring_adjacency(4),
                                             np.zeros((2, 3)), tick=tick)[0][1])
            return np.concatenate(outs)

        assert np.array_equal(run(), run())

    def test_never_emits_nan(self, cfg, params):
        rng = np.random.default_rng(21)
        pred = TrajectoryPredictor(params, cfg,
                                   calibration=CodecCalibration(np.ones(cfg.traj_dim)))
        for tick in range(4):
            positions = make_history(rng, 5, cfg.history)[-1] * 10
            out = pred.predict_all([[2]], [{}], positions, ring_adjacency(5),
                                   np.zeros((2, 3)), tick=tick)[0][2]
            assert np.all(np.isfinite(out))

    def test_returning_target_base_aged_by_its_gap(self, cfg, params, monkeypatch):
        real_prior, bases = TrajectoryPredictor.predict_prior, {}

        def recording(self, targets, *args):
            bases[len(bases)] = {t: b for t, b in zip(targets, args[-1]) if b is not None}
            return real_prior(self, targets, *args)

        monkeypatch.setattr(TrajectoryPredictor, "predict_prior", recording)
        rng = np.random.default_rng(22)
        pred = TrajectoryPredictor(params, cfg)
        adj = ring_adjacency(4)
        obstacles = np.zeros((2, 3))
        # target 2 is predicted on every tick, target 1 only at ticks 0 and 3
        outs = [pred.predict_all([[1, 2] if tick in (0, 3) else [2]],
                                 [{}], make_history(rng, 4, cfg.history)[-1], adj, obstacles,
                                 tick)[0]
                for tick in range(4)]
        assert bases[0] == {}
        for tick in range(1, 4):
            assert bases[tick][2] is outs[tick - 1][2]  # one tick old: no extra shift
        want = shift_trajectory(shift_trajectory(outs[0][1], cfg.horizon), cfg.horizon)
        assert np.array_equal(bases[3][1], want)


class TestHold:
    def test_fresh_held_and_before_first_message(self, cfg, params):
        rng = np.random.default_rng(23)
        pred = TrajectoryPredictor(params, cfg)
        positions = rng.normal(size=(3, 3))
        msg = pred.encode(rng.normal(size=cfg.traj_dim), tick=2, sender=1, mode="mean")
        decoded = pred.decode(msg)
        # before the first message: the current position, not stored
        out = pred.hold(0, [1, 2], {}, positions, tick=1)
        for target in (1, 2):
            assert np.array_equal(out[target], np.tile(positions[target], cfg.horizon))
        assert pred.beliefs == {}
        # a fresh message replaces the belief; a stale one is not read
        stale = pred.encode(rng.normal(size=cfg.traj_dim), tick=1, sender=2, mode="mean")
        out = pred.hold(0, [1, 2], {1: msg, 2: stale}, positions, tick=2)
        assert np.array_equal(out[1], decoded)
        assert np.array_equal(out[2], np.tile(positions[2], cfg.horizon))
        # a held message is shifted once per tick of its age
        for tick in range(3, 6):
            want = shift_trajectory(want if tick > 3 else decoded, cfg.horizon)
            out = pred.hold(0, [1], {1: msg}, positions, tick=tick)
            assert np.array_equal(out[1], want)
