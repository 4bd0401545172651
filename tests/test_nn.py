import itertools

import numpy as np
import pytest

from swarmcoord.nn import (
    EgCellState,
    ShapeMismatch,
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
    load_checkpoint,
    load_into,
    lstm_step,
    normalize_adjacency,
    relu,
    save_checkpoint,
    vae_decode,
    vae_encode,
    vae_forward,
    vae_kl,
    zero_grads,
)
from swarmcoord.predictor import (
    PredictorConfig,
    TrajectoryPredictor,
    init_predictor_params,
    prior_forward,
)
from test_predictor import lstm_zero_state


def finite_difference(loss_fn, params, step=1e-5):
    """Central-difference gradient of loss_fn() wrt every parameter entry."""
    grads = {}
    for name, tensor in flatten_params(params).items():
        g = np.zeros_like(tensor.data)
        flat = tensor.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_fn()
            flat[i] = orig - step
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * step)
        grads[name] = g
    return grads


def check_grads(loss_builder, params, rel_tol=1e-5):
    """Analytic vs finite-difference gradients for all parameters."""
    zero_grads(params)
    loss_builder().backward()
    fd = finite_difference(lambda: loss_builder().data.item(), params)
    for name, tensor in flatten_params(params).items():
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        denom = max(1.0, np.max(np.abs(fd[name])))
        assert np.max(np.abs(analytic - fd[name])) / denom < rel_tol, name


class TestTensor:
    def test_add_mul_backward(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0, 4.0]], requires_grad=True)
        ((a * b + a).sum()).backward()
        assert np.allclose(a.grad, [[4.0, 5.0]])
        assert np.allclose(b.grad, [[1.0, 2.0]])

    def test_matmul_backward(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        (a @ b).sum().backward()
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, a.data.sum(axis=0)[:, None])

    def test_broadcast_bias_grad(self):
        x = Tensor(np.ones((4, 3)))
        b = Tensor(np.zeros((1, 3)), requires_grad=True)
        (x + b).sum().backward()
        assert np.allclose(b.grad, 4.0)

    def test_diamond_graph_accumulates(self):
        a = Tensor([2.0], requires_grad=True)
        y = a * a + a * 3.0
        y.sum().backward()
        assert np.allclose(a.grad, [2 * 2.0 + 3.0])

    def test_detach_blocks_gradient(self):
        a = Tensor([2.0], requires_grad=True)
        (a.detach() * a).sum().backward()
        assert np.allclose(a.grad, [2.0])

    def test_slice_backward(self):
        a = Tensor(np.arange(8.0).reshape(2, 4), requires_grad=True)
        a[:, 1:3].sum().backward()
        expected = np.zeros((2, 4))
        expected[:, 1:3] = 1.0
        assert np.allclose(a.grad, expected)

    def test_repeated_index_backward_accumulates(self):
        a = Tensor(np.arange(3.0), requires_grad=True)
        a[np.array([0, 0, 2])].sum().backward()
        assert np.array_equal(a.grad, [2.0, 0.0, 1.0])
        b = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        (b[[2, 0, 2], 1] * Tensor([1.0, 2.0, 3.0])).sum().backward()
        assert np.array_equal(b.grad, [[0.0, 2.0], [0.0, 0.0], [0.0, 4.0]])

    def test_basic_key_backward_scatters_the_gradient(self):
        # keys with no index array: each entry of the result comes from one
        # entry of the source, so the gradient is the upstream one put back
        rng = np.random.default_rng(27)
        data = rng.normal(size=(3, 4, 2))
        keys = [1, -1, slice(None, None, -2), (0, slice(1, 3)), (Ellipsis, 1),
                (None, slice(1, None), 2), (np.int64(2), Ellipsis, slice(None, 1)), ()]
        for key in keys:
            a = Tensor(data, requires_grad=True)
            upstream = rng.normal(size=data[key].shape)
            (a[key] * Tensor(upstream)).sum().backward()
            want = np.zeros_like(data)
            want[key] = upstream
            assert np.array_equal(a.grad, want), key

    def test_ndarray_on_the_left_joins_the_tape(self):
        rng = np.random.default_rng(26)
        params = {"t": Tensor(rng.normal(size=(2, 3)), requires_grad=True)}
        left = rng.normal(size=(2, 3))
        ops = {"+": lambda t: left + t, "-": lambda t: left - t,
               "*": lambda t: left * t, "@": lambda t: left.T @ t}
        for name, op in ops.items():
            out = op(params["t"])
            assert isinstance(out, Tensor) and out.requires_grad, name
            probe = Tensor(rng.normal(size=out.shape))
            check_grads(lambda: (op(params["t"]) * probe).sum(), params)

    def test_stacked_matmul_and_transpose_backward(self):
        rng = np.random.default_rng(24)
        params = {"x": Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True),
                  "w": Tensor(rng.normal(size=(3, 5)), requires_grad=True)}
        probe = Tensor(rng.normal(size=(2, 4, 5)))
        check_grads(lambda: ((params["x"] @ params["w"]).transpose(1, 0, 2) * probe).sum(),
                    params)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
            y = (x.tanh() @ Tensor(rng.normal(size=(5, 2)))).sigmoid().sum()
            y.backward()
            return y.data.copy(), x.grad.copy()

        y1, g1 = run()
        y2, g2 = run()
        assert np.array_equal(y1, y2) and np.array_equal(g1, g2)


def out_of_place_backward(root):
    """Reference for Tensor.backward: the same reverse topological order (the
    same stack walk), with every accumulation a fresh array (grads + pg), so
    nothing is written in place."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p.requires_grad and id(p) not in seen)
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None or not node._parents:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if parent.requires_grad and pg is not None:
                grads[id(parent)] = grads[id(parent)] + pg if id(parent) in grads else pg


class TestInPlaceAccumulation:
    """Tensor.backward adds a parent's later contributions into a buffer the
    tape owns; an array a node's backward handed out is never written."""

    def test_taped_prior_gradients_match_out_of_place_reference(self):
        cfg = PredictorConfig()
        params = init_predictor_params(np.random.default_rng(31), cfg)
        rng = np.random.default_rng(32)
        positions = rng.normal(scale=3.0, size=(5, 3))
        adjacency = np.ones((5, 5)) - np.eye(5)
        targets = [0, 1, 3, 4]
        prev = np.tile(positions[targets], cfg.horizon) + rng.normal(size=(4, cfg.traj_dim))
        obstacle_centers = rng.normal(scale=3.0, size=(2, 3))
        probe_mean, probe_sigma = rng.normal(size=(2, 4, cfg.traj_dim))
        grads = []
        for backward in (Tensor.backward, out_of_place_backward):
            zero_grads(params)
            mean, sigma = prior_forward(params, cfg, targets, positions, adjacency,
                                        obstacle_centers, prev)
            backward((mean * Tensor(probe_mean)).sum() + (sigma * Tensor(probe_sigma)).sum())
            grads.append({k: t.grad for k, t in flatten_params(params).items()})
        assert grads[0].keys() == grads[1].keys()
        for name in grads[0]:
            assert np.array_equal(grads[0][name], grads[1][name]), name

    def test_shared_gradient_of_add_is_not_written(self):
        # (x + x) + x: __add__ hands the same array to both of its parents,
        # so x receives that one array three times
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        seed = np.array([0.5, 3.0])
        ((x + x) + x).backward(seed)
        assert np.array_equal(x.grad, 3 * np.array([0.5, 3.0]))
        assert np.array_equal(seed, [0.5, 3.0])

    def test_scalar_node_accumulates(self):
        # products of 0-d arrays are numpy scalars, which cannot be added into
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        s = x.sum()
        (s * s + s * 2.0 + s).backward()
        assert np.array_equal(x.grad, [2 * 3.0 + 3.0] * 2)

    def test_backward_returning_one_array_to_both_parents(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        a, b = x * 1.0, x * 2.0
        handed_out = []

        def backward(grad):
            handed_out.append(grad * 1.0)
            return (handed_out[0], handed_out[0])

        pair = Tensor._make(a.data + b.data, (a, b), backward)
        # a and b each get the shared array, then more from the products
        # below, so both accumulate past their first contribution
        out = (pair + a * a + b * 3.0).sum()
        out.backward()
        assert np.array_equal(handed_out[0], [1.0, 1.0])
        # d/dx of (x + 2x) + x^2 + 6x = 9 + 2x
        assert np.array_equal(x.grad, 9.0 + 2.0 * x.data)


class TestTape:
    """An op joins the tape exactly when at least one input requires grad."""

    @staticmethod
    def assert_taped(out, taped):
        assert out.requires_grad is taped
        assert bool(out._parents) is taped
        assert (out._backward is not None) is taped

    def test_records_exactly_when_an_input_requires_grad(self):
        rng = np.random.default_rng(22)
        for a_grad, b_grad in itertools.product([False, True], repeat=2):
            a = Tensor(rng.normal(size=(2, 3)), requires_grad=a_grad)
            b = Tensor(rng.normal(size=(2, 3)), requires_grad=b_grad)
            for out in (a + b, a * b, a - b, a / (b.square() + 1.0), a @ b.T,
                        concat([a, b], axis=0), concat([b, a, b], axis=1)):
                self.assert_taped(out, a_grad or b_grad)
            for out in (a + 1.0, a * np.ones((1, 3)), a[:, 1:], a[1], a.T,
                        a.transpose(1, 0), a.reshape(3, 2), a.sigmoid()):
                self.assert_taped(out, a_grad)
            cat = concat([a, b], axis=0)
            if a_grad or b_grad:
                assert cat._parents[0] is a and cat._parents[1] is b

    def test_prior_on_no_grad_views_records_no_tape(self):
        cfg = PredictorConfig(history=4, hidden=8, feature=4, latent=6)
        params = init_predictor_params(np.random.default_rng(23), cfg)
        rng = np.random.default_rng(25)
        positions = rng.normal(size=(cfg.history, 3, 3))[-1]
        adjacency = np.ones((3, 3)) - np.eye(3)
        targets = [0, 2]
        prev = np.tile(positions[targets], cfg.horizon)
        args = (cfg, targets, positions, adjacency, np.zeros((2, 3)), prev)
        for out in prior_forward(TrajectoryPredictor(params, cfg).params, *args):
            self.assert_taped(out, False)
        for out in prior_forward(params, *args):
            self.assert_taped(out, True)


class TestArrayInputs:
    """A layer on ndarrays alone returns an ndarray, bitwise equal to the
    values of the same layer on Tensors."""

    def test_layers_follow_their_inputs_type(self):
        rng = np.random.default_rng(33)
        params = {"lstm": init_lstm(rng, 3, 4), "fc": init_fc(rng, 4, 5),
                  "eg": init_eg_cell(rng, 3, 4), "vae": init_vae(rng, 6, 2, 5)}
        for t in flatten_params(params).values():
            t.data[:] = rng.normal(size=t.shape)
        x, h0, c0, traj = (rng.normal(size=shape) for shape in [(2, 3), (2, 4), (2, 4), (2, 6)])
        feats, noise = rng.normal(size=(3, 3)), rng.normal(size=(2, 2))
        a_hat = normalize_adjacency(np.ones((3, 3)) - np.eye(3))[1:]

        def run(p, lift):
            h, (_, c) = lstm_step(lift(x) @ p["lstm"]["Wx"], (lift(h0), lift(c0)), p["lstm"])
            cell = eg_step(EgCellState.initial(p["eg"]["W0"]), p["eg"])
            z_mean, z_logstd = vae_encode(lift(traj), p["vae"])
            return [h, c, fc(h, p["fc"], activation="relu"), relu(h), exp(c), detach(h),
                    concat([h, lift(c0)], axis=1), gcn_layer(a_hat, lift(feats), p["eg"]["W0"]),
                    cell.weight, cell.carry, z_mean, z_logstd, vae_decode(z_mean, p["vae"]),
                    vae_forward(lift(traj), p["vae"], noise=noise)["reconstruction"]]

        def leaf_arrays(tree):
            return {k: leaf_arrays(v) if isinstance(v, dict) else v.data
                    for k, v in tree.items()}

        taped, plain = run(params, Tensor), run(leaf_arrays(params), lambda a: a)
        assert len(taped) == len(plain)
        for k, (t, a) in enumerate(zip(taped, plain)):
            assert isinstance(t, Tensor) and type(a) is np.ndarray, k
            assert np.array_equal(t.data, a), k


class TestFc:
    def test_zero_weights_outputs_bias(self):
        rng = np.random.default_rng(0)
        params = init_fc(rng, 3, 2)
        params["W"].data[:] = 0.0
        params["b"].data[:] = [5.0, -1.0]
        out = fc(Tensor(rng.normal(size=(4, 3))), params)
        assert np.allclose(out.data, [5.0, -1.0])

    def test_identity_relu(self):
        params = {"W": Tensor(np.eye(2), requires_grad=True),
                  "b": Tensor(np.zeros((1, 2)), requires_grad=True)}
        out = fc(Tensor([[-1.0, 2.0]]), params, activation="relu")
        assert np.allclose(out.data, [[0.0, 2.0]])

    def test_gradients_match_finite_difference(self):
        rng = np.random.default_rng(1)
        params = init_fc(rng, 4, 3)
        x = Tensor(rng.normal(size=(2, 4)))
        target = rng.normal(size=(2, 3))
        check_grads(lambda: (fc(x, params, activation="relu") - target).square().sum(),
                    params)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ShapeMismatch):
            fc(Tensor(np.zeros((1, 5))), init_fc(rng, 4, 3))


def composed_lstm_step(xw, state, params):
    """The LSTM cell as composed Tensor ops, about 15 tape nodes a step: the
    reference the fused lstm_step node is compared against."""
    h_prev, c_prev = state
    n_hidden = params["Wh"].shape[0]
    gates = xw + h_prev @ params["Wh"] + params["b"]
    ifo = gates[:, :3 * n_hidden].sigmoid()
    i = ifo[:, :n_hidden]
    f = ifo[:, n_hidden:2 * n_hidden]
    o = ifo[:, 2 * n_hidden:]
    g = gates[:, 3 * n_hidden:].tanh()
    c = f * c_prev + i * g
    h = o * c.tanh()
    return h, (h, c)


class TestLstm:
    def test_zero_params_zero_output(self):
        rng = np.random.default_rng(3)
        params = init_lstm(rng, 3, 4)
        for t in params.values():
            t.data[:] = 0.0
        out, _ = lstm_step(Tensor(rng.normal(size=(2, 3))) @ params["Wx"],
                           lstm_zero_state(4, 2), params)
        assert np.allclose(out.data, 0.0)

    def test_repeated_input_converges(self):
        rng = np.random.default_rng(4)
        params = init_lstm(rng, 3, 6)
        x = Tensor(rng.normal(size=(1, 3)))
        state = lstm_zero_state(6)
        residuals = []
        prev_h = state[0].data.copy()
        for _ in range(100):
            h, state = lstm_step(x @ params["Wx"], state, params)
            residuals.append(np.linalg.norm(h.data - prev_h))
            prev_h = h.data.copy()
        assert residuals[-1] < 1e-6
        assert residuals[-1] <= residuals[10] + 1e-12

    def test_unrolled_gradients(self):
        rng = np.random.default_rng(5)
        params = init_lstm(rng, 2, 3)
        xs = [Tensor(rng.normal(size=(1, 2))) for _ in range(5)]
        target = rng.normal(size=(1, 3))

        def loss():
            state = lstm_zero_state(3)
            for x in xs:
                out, state = lstm_step(x @ params["Wx"], state, params)
            return (out - target).square().sum()

        check_grads(loss, params, rel_tol=1e-4)

    def test_batched_gradients_into_state_and_input(self):
        # batch 3 sums b's gradient over rows; a nonzero initial (h, c) that
        # requires grad checks the gradients the cell passes back to its state
        rng = np.random.default_rng(27)
        lstm = init_lstm(rng, 2, 3)
        params = {"xw": Tensor(rng.normal(size=(4, 3, 12)), requires_grad=True),
                  "h0": Tensor(rng.normal(size=(3, 3)), requires_grad=True),
                  "c0": Tensor(rng.normal(size=(3, 3)), requires_grad=True),
                  "Wh": lstm["Wh"], "b": lstm["b"]}
        params["b"].data[:] = rng.normal(size=(1, 12))
        target = rng.normal(size=(3, 3))

        def loss():
            state = (params["h0"], params["c0"])
            for step in range(4):
                out, state = lstm_step(params["xw"][step], state, params)
            return (out - target).square().sum() + (state[1] * Tensor(target)).sum()

        check_grads(loss, params, rel_tol=1e-6)

    # (batch, n_in, hidden) of the default PredictorConfig's LSTMs at three
    # targets; an EG cell's batch is its weight's columns, its hidden size the
    # weight's rows, and its state the transposed weight and carry
    @pytest.mark.parametrize("batch, n_in, n_hidden, eg", [
        (3, 3, 128, False), (3, 48, 128, False), (16, 3, 3, True), (16, 16, 16, True),
    ], ids=["query", "decoder", "eg-layer0", "eg-layer1"])
    def test_fused_node_matches_composed_reference(self, batch, n_in, n_hidden, eg):
        rng = np.random.default_rng(28)
        params = init_lstm(rng, n_in, n_hidden)
        params["b"].data[:] = rng.normal(scale=0.5, size=params["b"].shape)
        if eg:
            leaves = {"W": Tensor(rng.normal(size=(n_hidden, batch)), requires_grad=True),
                      "carry": Tensor(rng.normal(size=(n_hidden, batch)), requires_grad=True)}
        else:
            leaves = {"x": Tensor(rng.normal(size=(3, batch, n_in)), requires_grad=True),
                      "h0": Tensor(rng.normal(size=(batch, n_hidden)), requires_grad=True),
                      "c0": Tensor(rng.normal(size=(batch, n_hidden)), requires_grad=True)}
        probes = [Tensor(rng.normal(size=(batch, n_hidden))) for _ in range(2)]

        def unrolled(step_fn):
            """Three steps; an EG cell's as in eg_step, the weight evolving."""
            if eg:
                weight, carry = leaves["W"], leaves["carry"]
            else:
                h, c = leaves["h0"], leaves["c0"]
            outs = []
            for k in range(3):
                if eg:
                    w_cols = weight.T
                    h, (_, c) = step_fn(w_cols @ params["Wx"], (w_cols, carry.T), params)
                    weight, carry = h.T, c.T
                else:
                    h, (_, c) = step_fn(leaves["x"][k] @ params["Wx"], (h, c), params)
                outs.append((h.data, c.data))
            loss = (h * probes[0]).sum() + (c * probes[1]).sum()
            zero_grads({**params, **leaves})
            loss.backward()
            grads = {name: t.grad.copy() for name, t in {**params, **leaves}.items()}
            return outs, grads

        fused_outs, fused_grads = unrolled(lstm_step)
        ref_outs, ref_grads = unrolled(composed_lstm_step)
        for (h, c), (h_ref, c_ref) in zip(fused_outs, ref_outs):
            assert np.array_equal(h, h_ref) and np.array_equal(c, c_ref)
        for name, ref in ref_grads.items():
            scale = np.max(np.abs(ref))
            assert scale > 0, name
            assert np.max(np.abs(fused_grads[name] - ref)) <= 1e-12 * scale, name

    def test_one_tape_node_per_step(self):
        rng = np.random.default_rng(29)
        params = init_lstm(rng, 3, 4)
        h, (_, c) = lstm_step(Tensor(rng.normal(size=(2, 3))) @ params["Wx"],
                              lstm_zero_state(4, 2), params)
        cell = h._parents[0]
        assert c._parents[0] is cell
        assert cell.shape == (2, 8)
        assert cell._parents[3] is params["Wh"] and cell._parents[4] is params["b"]

    def test_batch_mismatch_rejected(self):
        rng = np.random.default_rng(30)
        params = init_lstm(rng, 3, 4)
        with pytest.raises(ShapeMismatch):
            lstm_step(Tensor(rng.normal(size=(2, 16))), lstm_zero_state(4, 3), params)


class TestGcn:
    def test_isolated_nodes_self_loop_only(self):
        h = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]))
        w = Tensor(np.eye(2))
        out = gcn_layer(normalize_adjacency(np.zeros((2, 2))), h, w)
        assert np.allclose(out.data, np.maximum(h.data, 0.0))

    def test_identical_connected_nodes_identical_rows(self):
        rng = np.random.default_rng(6)
        feat = rng.normal(size=2)
        h = Tensor(np.vstack([feat, feat]))
        w = Tensor(rng.normal(size=(2, 3)))
        out = gcn_layer(normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]])), h, w)
        assert np.allclose(out.data[0], out.data[1])

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(7)
        n, f_in, f_out = 5, 3, 4
        adj = (rng.uniform(size=(n, n)) < 0.4).astype(float)
        adj = np.maximum(adj, adj.T)
        np.fill_diagonal(adj, 0.0)
        h = rng.normal(size=(n, f_in))
        w = rng.normal(size=(f_in, f_out))
        a_hat = adj + np.eye(n)
        d = np.diag(1.0 / np.sqrt(a_hat.sum(axis=1)))
        expected = np.maximum(d @ a_hat @ d @ h @ w, 0.0)
        out = gcn_layer(normalize_adjacency(adj), Tensor(h), Tensor(w))
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        n = 6
        adj = (rng.uniform(size=(n, n)) < 0.5).astype(float)
        adj = np.maximum(adj, adj.T)
        np.fill_diagonal(adj, 0.0)
        h = rng.normal(size=(n, 3))
        w = Tensor(rng.normal(size=(3, 3)))
        perm = rng.permutation(n)
        out = gcn_layer(normalize_adjacency(adj), Tensor(h), w).data
        out_p = gcn_layer(normalize_adjacency(adj[np.ix_(perm, perm)]), Tensor(h[perm]), w).data
        assert np.allclose(out[perm], out_p)

    def test_gradients(self):
        rng = np.random.default_rng(9)
        adj = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        h = Tensor(rng.normal(size=(3, 2)))
        params = {"W": Tensor(rng.normal(size=(2, 2)), requires_grad=True)}
        check_grads(lambda: gcn_layer(normalize_adjacency(adj), h, params["W"]).square().sum(),
                    params)


class TestEgCell:
    def test_zero_params_evolve_to_zero(self):
        rng = np.random.default_rng(10)
        params = init_eg_cell(rng, 3, 4)
        for name in ("Wx", "Wh", "b"):
            params[name].data[:] = 0.0
        state = EgCellState.initial(Tensor(rng.normal(size=(3, 4))))
        evolved = eg_step(state, params)
        assert np.allclose(evolved.weight.data, 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        params = init_eg_cell(rng, 3, 4)
        state = EgCellState.initial(Tensor(rng.normal(size=(3, 4))))
        w1 = eg_step(state, params).weight.data
        w2 = eg_step(state, params).weight.data
        assert np.array_equal(w1, w2)

    def test_shape_preserved(self):
        rng = np.random.default_rng(12)
        params = init_eg_cell(rng, 3, 5)
        state = EgCellState.initial(params["W0"])
        for _ in range(3):
            state = eg_step(state, params)
            assert state.weight.shape == (3, 5)
            assert state.carry.shape == (3, 5)

    def test_gradient_through_evolution(self):
        rng = np.random.default_rng(13)
        params = init_eg_cell(rng, 2, 3)
        target = rng.normal(size=(2, 3))

        def loss():
            state = EgCellState.initial(params["W0"])
            for _ in range(3):
                state = eg_step(state, params)
            return (state.weight - target).square().sum()

        check_grads(loss, params, rel_tol=1e-4)


class TestVae:
    def test_zero_params_reconstruction_is_bias(self):
        rng = np.random.default_rng(14)
        params = init_vae(rng, 6, 2, 5)
        for t in flatten_params(params).values():
            t.data[:] = 0.0
        params["out"]["b"].data[:] = 0.75
        params["mu"]["b"].data[:] = -0.25
        out = vae_forward(Tensor(rng.normal(size=(1, 6))), params)
        assert np.allclose(out["reconstruction"].data, 0.75)
        assert np.allclose(out["z_mean"].data, -0.25)

    def test_deterministic_mode_equals_mean(self):
        rng = np.random.default_rng(15)
        params = init_vae(rng, 6, 2, 5)
        out = vae_forward(Tensor(rng.normal(size=(1, 6))), params)
        assert np.array_equal(out["z_sample"].data, out["z_mean"].data)

    def test_zero_noise_equals_mean_path(self):
        rng = np.random.default_rng(16)
        params = init_vae(rng, 6, 2, 5)
        x = Tensor(rng.normal(size=(1, 6)))
        out = vae_forward(x, params, noise=np.zeros((1, 2)))
        det = vae_forward(x, params)
        assert np.allclose(out["reconstruction"].data, det["reconstruction"].data)

    def test_elbo_gradients_frozen_noise(self):
        rng = np.random.default_rng(17)
        params = init_vae(rng, 5, 2, 4)
        x = Tensor(rng.normal(size=(2, 5)))
        noise = rng.standard_normal((2, 2))

        def loss():
            out = vae_forward(x, params, noise=noise)
            recon = (out["reconstruction"] - x).square().sum()
            return recon + 0.1 * vae_kl(out["z_mean"], out["z_logstd"])

        check_grads(loss, params, rel_tol=1e-4)

    def test_latent_must_be_smaller(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError):
            init_vae(rng, 4, 4, 8)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        params = {"vae": init_vae(rng, 6, 2, 5), "head": init_fc(rng, 3, 2)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, meta={"hidden": 5})
        flat, meta = load_checkpoint(path)
        assert meta == {"hidden": 5}
        for name, tensor in flatten_params(params).items():
            assert np.array_equal(flat[name].data, tensor.data)

    def test_load_into_shape_checked(self, tmp_path):
        rng = np.random.default_rng(20)
        params = {"head": init_fc(rng, 3, 2)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        other = {"head": init_fc(np.random.default_rng(21), 3, 2)}
        load_into(path, other)
        assert np.array_equal(other["head"]["W"].data, params["head"]["W"].data)
        wrong = {"head": init_fc(rng, 4, 2)}
        with pytest.raises(ValueError):
            load_into(path, wrong)
