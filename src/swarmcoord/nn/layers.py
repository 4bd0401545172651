"""Layers for the trajectory predictor: FC, LSTM cell, GCN, EvolveGCN cell, VAE.

Parameters are nested dicts keyed by short names, so a whole model is one
name->leaf mapping that checkpoints can serialize. The init functions make
Tensor leaves that require grad (the training tree). The layers take the
same tree with ndarray leaves as well: each layer follows its inputs' type,
a Tensor from any Tensor input and an ndarray from ndarrays alone, computed
by the same numpy expressions in the same operand order, so the two agree
bitwise.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeMismatch, Tensor, concat, exp, relu


def _param(rng, shape, scale=None):
    if scale is None:
        scale = 1.0 / np.sqrt(max(1, shape[0]))
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


def init_fc(rng, n_in, n_out, scale=None):
    return {"W": _param(rng, (n_in, n_out), scale),
            "b": Tensor(np.zeros((1, n_out)), requires_grad=True)}


def fc(x, params, activation=None):
    """Affine map x @ W + b with optional relu."""
    if x.shape[-1] != params["W"].shape[0]:
        raise ShapeMismatch(f"fc input {x.shape} vs W {params['W'].shape}")
    out = x @ params["W"] + params["b"]
    if activation == "relu":
        out = relu(out)
    elif activation is not None:
        raise ValueError(f"unknown activation {activation!r}")
    return out


def init_lstm(rng, n_in, n_hidden):
    return {"Wx": _param(rng, (n_in, 4 * n_hidden)),
            "Wh": _param(rng, (n_hidden, 4 * n_hidden)),
            "b": Tensor(np.zeros((1, 4 * n_hidden)), requires_grad=True)}


def lstm_step(xw, state, params):
    """One gated recurrence step; state is (h, c), both (batch, hidden).

    xw is the projected input x @ params["Wx"], (batch, 4 hidden): the input
    projection does not depend on the state, so a caller projects all its
    steps, or a constant input, once outside the recurrence.

    The gate arithmetic runs in numpy, in the same expressions and operand
    order as the composed Tensor ops, so its values are bitwise those of the
    composition. On ndarrays alone it returns ndarrays h and c. When any of
    xw, h_prev, c_prev, Wh and b is a Tensor the cell is one tape node, whose
    backward is the analytic gate gradient into those five (an ndarray among
    them is lifted as a constant); h and c are then the two halves of the
    node's (batch, 2 hidden) output.
    """
    h_prev, c_prev = state
    wh, b = params["Wh"], params["b"]
    inputs = (xw, h_prev, c_prev, wh, b)
    taped = any(isinstance(v, Tensor) for v in inputs)
    n_hidden = wh.shape[0]
    if h_prev.shape[-1] != n_hidden or c_prev.shape[-1] != n_hidden:
        raise ShapeMismatch("lstm state width does not match parameters")
    if xw.shape[-1] != 4 * n_hidden:
        raise ShapeMismatch(f"lstm projected input {xw.shape} vs {4 * n_hidden} gates")
    if len(xw.shape) != 2 or not xw.shape[0] == h_prev.shape[0] == c_prev.shape[0]:
        raise ShapeMismatch(f"lstm batch: input {xw.shape}, state {h_prev.shape} "
                            f"and {c_prev.shape}")
    xw_data, h_prev_data, c_prev_data, wh_data, b_data = (
        [v.data if isinstance(v, Tensor) else v for v in inputs] if taped else inputs)
    gates = (xw_data + h_prev_data @ wh_data) + b_data
    ifo = 1.0 / (1.0 + np.exp(-gates[:, :3 * n_hidden]))
    i = ifo[:, :n_hidden]
    f = ifo[:, n_hidden:2 * n_hidden]
    o = ifo[:, 2 * n_hidden:]
    g = np.tanh(gates[:, 3 * n_hidden:])
    c = f * c_prev_data + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    if not taped:
        return h, (h, c)

    def backward(grad):
        dh, dc = grad[:, :n_hidden], grad[:, n_hidden:]
        dc = dc + dh * o * (1.0 - tanh_c**2)
        d_ifo = np.concatenate([dc * g, dc * c_prev_data, dh * tanh_c], axis=1)
        d_gates = np.concatenate([d_ifo * ifo * (1.0 - ifo), dc * i * (1.0 - g**2)], axis=1)
        return (d_gates, d_gates @ wh_data.T, dc * f, h_prev_data.T @ d_gates,
                d_gates.sum(axis=0).reshape(b.shape))

    cell = Tensor._make(np.concatenate([h, c], axis=1), tuple(map(Tensor._lift, inputs)),
                        backward)
    h = cell[:, :n_hidden]
    return h, (h, cell[:, n_hidden:])


def pad_rows(x):
    """x with zero rows appended along axis 0 up to a multiple of 4; slice a
    product of the padded stack back to x's rows.

    Every batch of the prior runs padded by this rule, and nothing else pads,
    so a row's bits do not depend on the batch it runs in. OpenBLAS 0.3.31
    rounds a row of a product by the number of rows in the product (a 1-row
    product even takes numpy's gemv path), not by the row's place in it.
    Measured at the prior's products (Wh 128x512, the decoder's Wx 48x512,
    the heads 128x3 over 16 r rows, eg_out 16x16, obstacle 6x16, the query's
    Wx 3x512 and out 128x16) with 1-12 real rows: each row of the padded
    product is bitwise that row padded alone under the SkylakeX, Haswell,
    Zen, Sandybridge and Prescott kernels, with 1 and with 2 threads
    (tests/test_nn.py), with one exception. Under Prescott with 2 threads
    the Wh product differs at 9-12 rows. A Tensor is padded by the same
    concatenation as an ndarray.
    """
    rows = x.shape[0]
    padded = -(-rows // 4) * 4
    if padded == rows:
        return x
    return concat([x, np.zeros((padded - rows, *x.shape[1:]))], axis=0)


def normalize_adjacency(adj):
    """Symmetric self-loop normalization D^-1/2 (A+I) D^-1/2 (plain numpy)."""
    adj = np.asarray(adj, dtype=float)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ShapeMismatch(f"adjacency must be square, got {adj.shape}")
    if np.any(adj < 0):
        raise ValueError("adjacency entries must be nonnegative")
    a_hat = adj + np.eye(adj.shape[0])
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def gcn_layer(a_hat, h, w):
    """Graph convolution relu(A_hat h W), one output row per row of a_hat.

    a_hat is an ndarray of rows of normalize_adjacency(adj): normalise once
    per graph, and pass only the rows whose outputs are read.
    """
    if h.shape[-1] != w.shape[0]:
        raise ShapeMismatch(f"gcn features {h.shape} vs weights {w.shape}")
    return relu(a_hat @ h @ w)


@dataclass
class EgCellState:
    """Evolving GCN weight matrix plus the LSTM cell carry, both (rows, cols)."""

    weight: Tensor | np.ndarray
    carry: Tensor | np.ndarray

    @classmethod
    def initial(cls, weight):
        carry = np.zeros(weight.shape)
        return cls(weight, Tensor(carry) if isinstance(weight, Tensor) else carry)


def init_eg_cell(rng, n_in, n_out):
    """EG cell: weight (n_in, n_out) evolved by an LSTM over its columns."""
    return {"W0": _param(rng, (n_in, n_out)), **init_lstm(rng, n_in, n_in)}


def eg_step(state: EgCellState, params) -> EgCellState:
    """Evolve the GCN weight matrix one step (columns as the LSTM batch).

    The weight matrix itself is both the LSTM input and its hidden state; its
    columns are projected by the cell's Wx here and passed to lstm_step.
    """
    w_cols = state.weight.T  # (cols, rows): one batch row per weight column
    h, (_, c) = lstm_step(w_cols @ params["Wx"], (w_cols, state.carry.T), params)
    return EgCellState(h.T, c.T)


def init_vae(rng, n_in, n_latent, n_hidden):
    if n_latent >= n_in:
        raise ValueError(f"latent dim {n_latent} must be below input dim {n_in}")
    return {
        "enc1": init_fc(rng, n_in, n_hidden),
        "mu": init_fc(rng, n_hidden, n_latent),
        "logstd": init_fc(rng, n_hidden, n_latent),
        "dec1": init_fc(rng, n_latent, n_hidden),
        "out": init_fc(rng, n_hidden, n_in),
    }


def vae_encode(traj, params):
    """Encoder alone: (z_mean, z_logstd) of traj, without a decoder pass."""
    hidden = fc(traj, params["enc1"], activation="relu")
    return fc(hidden, params["mu"]), fc(hidden, params["logstd"])


def vae_forward(traj, params, noise=None):
    """Encoder -> reparameterized sample -> decoder.

    Deterministic when noise is None (z = mean); otherwise z = mean +
    exp(logstd) * noise, so a frozen noise array makes gradients
    finite-difference checkable.
    """
    z_mean, z_logstd = vae_encode(traj, params)
    if noise is None:
        z_sample = z_mean
    else:
        z_sample = z_mean + exp(z_logstd) * noise
    dec_hidden = fc(z_sample, params["dec1"], activation="relu")
    reconstruction = fc(dec_hidden, params["out"])
    return {"z_mean": z_mean, "z_logstd": z_logstd, "z_sample": z_sample,
            "reconstruction": reconstruction}


def vae_decode(z, params):
    return fc(fc(z, params["dec1"], activation="relu"), params["out"])


def vae_kl(z_mean, z_logstd):
    """KL(q || N(0, I)) summed over coordinates."""
    var = (z_logstd * 2.0).exp()
    return 0.5 * (var + z_mean.square() - 1.0 - z_logstd * 2.0).sum()


def flatten_params(tree, prefix=""):
    """Flatten nested dicts of Tensors into {dotted.name: Tensor}."""
    flat = {}
    for key, value in tree.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_params(value, prefix=name + "."))
        else:
            flat[name] = value
    return flat


def zero_grads(params):
    for t in flatten_params(params).values():
        t.grad = None
