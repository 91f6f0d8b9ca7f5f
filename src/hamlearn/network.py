"""MLPs as pure functions of an explicit flat parameter vector.

Keeping parameters in one flat array (per layer: weights row-major, then
biases) makes adapted parameters ordinary values that stay differentiable
through further graph construction, and makes layer-restricted updates a
matter of index masks.  The graph forward path builds the network on a
`tape.Graph` with bulk ops; the fast numeric path lives in `fastops`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tape as T

ACTIVATIONS = ("softplus", "tanh", "relu", "sigmoid")

UPDATE_SETS = ("all", "last", "all_but_first")


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden_dims: tuple
    output_dim: int
    activation: str = "softplus"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden dims must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def dims(self) -> tuple:
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    @property
    def n_layers(self) -> int:
        return len(self.hidden_dims) + 1


def hnn_spec(state_dim: int, hidden=(64, 64, 64)) -> NetworkSpec:
    """Scalar-output network H(x); default three hidden layers of 64."""
    return NetworkSpec(state_dim, tuple(hidden), 1, "softplus")


def naive_spec(state_dim: int, hidden=(64, 64, 64)) -> NetworkSpec:
    """Direct field predictor net(x) = xdot-hat, output dim = state dim."""
    return NetworkSpec(state_dim, tuple(hidden), state_dim, "softplus")


@lru_cache(maxsize=64)
def param_count(spec: NetworkSpec) -> int:
    dims = spec.dims
    return int(sum((dims[i] + 1) * dims[i + 1] for i in range(len(dims) - 1)))


@lru_cache(maxsize=64)
def packed_dims(spec: NetworkSpec):
    """(dims, woff, boff) int64 arrays describing the flat param layout."""
    dims = np.array(spec.dims, np.int64)
    L = len(dims) - 1
    woff = np.empty(L, np.int64)
    boff = np.empty(L, np.int64)
    o = 0
    for l in range(L):
        woff[l] = o
        o += dims[l] * dims[l + 1]
        boff[l] = o
        o += dims[l + 1]
    return dims, woff, boff


def layer_slice(spec: NetworkSpec, layer: int) -> slice:
    """Contiguous [weights, biases] range of one layer in the flat vector."""
    dims, woff, boff = packed_dims(spec)
    L = len(dims) - 1
    if not 0 <= layer < L:
        raise IndexError(f"layer {layer} out of range for {L}-layer network")
    return slice(int(woff[layer]), int(boff[layer] + dims[layer + 1]))


def param_indices(spec: NetworkSpec, layers) -> np.ndarray:
    """Sorted flat indices of the selected layers' parameters."""
    layers = sorted(set(int(l) for l in layers))
    if not layers:
        raise ValueError("empty layer selection")
    parts = [np.arange(layer_slice(spec, l).start, layer_slice(spec, l).stop)
             for l in layers]
    return np.concatenate(parts)


def slice_layers(spec: NetworkSpec, params: np.ndarray, layers) -> np.ndarray:
    """Values of the selected layers' parameters (read copy)."""
    return params[param_indices(spec, layers)]


def update_mask(spec: NetworkSpec, update_set: str) -> np.ndarray:
    """Boolean mask over the flat vector for an inner-loop update set."""
    L = spec.n_layers
    if update_set == "all":
        layers = range(L)
    elif update_set == "last":
        layers = [L - 1]
    elif update_set == "all_but_first":
        if L < 2:
            raise ValueError("all_but_first needs at least two layers")
        layers = range(1, L)
    else:
        raise ValueError(f"update_set must be one of {UPDATE_SETS}")
    mask = np.zeros(param_count(spec), bool)
    mask[param_indices(spec, layers)] = True
    return mask


def init_params(spec: NetworkSpec, seed: int) -> np.ndarray:
    """Weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)) per layer, biases 0."""
    rng = np.random.default_rng(seed)
    dims, woff, boff = packed_dims(spec)
    params = np.zeros(param_count(spec))
    for l in range(len(dims) - 1):
        fi, fo = int(dims[l]), int(dims[l + 1])
        bound = 1.0 / np.sqrt(fi)
        params[woff[l] : woff[l] + fi * fo] = rng.uniform(-bound, bound, fi * fo)
    return params


@lru_cache(maxsize=64)
def _block_layout(spec: NetworkSpec) -> tuple:
    """(offset, fan_in, fan_out) of each layer's block in the flat vector."""
    out, o = [], 0
    for fi, fo in zip(spec.dims[:-1], spec.dims[1:]):
        out.append((o, fi, fo))
        o += (fi + 1) * fo
    return tuple(out)


def unpack_blocks(spec: NetworkSpec, params: np.ndarray):
    """Per-layer (fan_in + 1, fan_out) views [W; b] into the flat vector.

    A row of activations with a trailing 1 times a block is that layer's
    pre-activation, bias included.
    """
    if params.shape != (param_count(spec),):
        raise ValueError(f"params length {params.shape} does not match spec "
                         f"(expected {param_count(spec)})")
    return [params[o : o + (fi + 1) * fo].reshape(fi + 1, fo)
            for o, fi, fo in _block_layout(spec)]


def unpack(spec: NetworkSpec, params: np.ndarray):
    """Per-layer (W, b) views into the flat vector; W has shape (fan_in, fan_out)."""
    return [(P[:-1], P[-1]) for P in unpack_blocks(spec, params)]


# -- graph forward ------------------------------------------------------------


def _tree_sum(g: T.Graph, ids: np.ndarray) -> np.ndarray:
    """Pairwise-sum node ids along the last axis; returns ids without it."""
    while ids.shape[-1] > 1:
        k = ids.shape[-1]
        carry = ids[..., -1:] if k % 2 == 1 else None
        left, right = ids[..., 0 : k - (k % 2) : 2], ids[..., 1 : k : 2]
        summed = g.apply_many(T.ADD, left.ravel(), right.ravel()).reshape(left.shape)
        ids = summed if carry is None else np.concatenate([summed, carry], axis=-1)
    return ids[..., 0]


def _activate(g: T.Graph, z_ids: np.ndarray, activation: str) -> np.ndarray:
    flat = z_ids.ravel()
    if activation == "softplus":
        out = g.apply_many(T.SOFTPLUS, flat)
    elif activation == "sigmoid":
        out = g.apply_many(T.SIGMOID, flat)
    elif activation == "tanh":
        # tanh(z) = 2 sigmoid(2z) - 1
        z2 = g.apply_many(T.ADD, flat, flat)
        s = g.apply_many(T.SIGMOID, z2)
        s2 = g.apply_many(T.ADD, s, s)
        one = np.full(flat.shape, g.constant(1.0), np.int64)
        out = g.apply_many(T.SUB, s2, one)
    else:
        raise ValueError(f"activation {activation!r} has no smooth tape form")
    return out.reshape(z_ids.shape)


def forward_graph(g: T.Graph, spec: NetworkSpec, param_ids: np.ndarray,
                  input_ids: np.ndarray) -> np.ndarray:
    """Build the network forward pass on the tape.

    param_ids: (P,) node ids in flat layout; input_ids: (B, input_dim) or
    (input_dim,) node ids.  Returns (B, output_dim) node ids.  The result
    is differentiable w.r.t. both parameter and input nodes.
    """
    param_ids = np.asarray(param_ids, np.int64)
    if param_ids.shape != (param_count(spec),):
        raise ValueError("param id count does not match spec")
    a = np.atleast_2d(np.asarray(input_ids, np.int64))
    if a.shape[1] != spec.input_dim:
        raise ValueError(f"input dim {a.shape[1]} != spec input_dim {spec.input_dim}")
    B = a.shape[0]
    dims, woff, boff = packed_dims(spec)
    L = len(dims) - 1
    for l in range(L):
        fi, fo = int(dims[l]), int(dims[l + 1])
        w_ids = param_ids[woff[l] : woff[l] + fi * fo].reshape(fi, fo)
        b_ids = param_ids[boff[l] : boff[l] + fo]
        # products (B, fi, fo), summed over fi, plus bias
        aa = np.broadcast_to(a[:, :, None], (B, fi, fo))
        ww = np.broadcast_to(w_ids[None, :, :], (B, fi, fo))
        prod = g.apply_many(T.MUL, aa.ravel(), ww.ravel()).reshape(B, fi, fo)
        z = _tree_sum(g, np.swapaxes(prod, 1, 2))  # (B, fo)
        z = g.apply_many(T.ADD, z.ravel(),
                         np.broadcast_to(b_ids[None, :], (B, fo)).ravel()).reshape(B, fo)
        a = _activate(g, z, spec.activation) if l < L - 1 else z
    return a
