from .tensor import ShapeMismatch, Tensor, concat, detach, exp, relu
from .layers import (
    EgCellState,
    eg_step,
    fc,
    flatten_params,
    gcn_layer,
    init_eg_cell,
    init_fc,
    init_lstm,
    init_vae,
    lstm_step,
    normalize_adjacency,
    vae_decode,
    vae_encode,
    vae_forward,
    vae_kl,
    zero_grads,
)
from .checkpoint import load_checkpoint, load_into, save_checkpoint

__all__ = [
    "EgCellState", "ShapeMismatch", "Tensor", "concat", "detach", "exp", "relu",
    "eg_step", "fc", "flatten_params", "gcn_layer", "init_eg_cell", "init_fc",
    "init_lstm", "init_vae", "lstm_step", "normalize_adjacency",
    "vae_decode", "vae_encode", "vae_forward", "vae_kl", "zero_grads",
    "load_checkpoint", "load_into", "save_checkpoint",
]
