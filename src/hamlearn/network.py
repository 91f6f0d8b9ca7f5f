"""Softplus MLPs as pure functions of an explicit flat parameter vector.

Keeping parameters in one flat array (per layer: weights row-major, then
biases) makes adapted parameters ordinary values and layer-restricted
updates a matter of index masks.  The kernels that evaluate and
differentiate the networks live in `fastops`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# The hidden-layer activation of every network.
ACTIVATION = "softplus"

UPDATE_SETS = ("all", "last", "all_but_first")


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden_dims: tuple
    output_dim: int

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden dims must be positive")

    @property
    def dims(self) -> tuple:
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    @property
    def n_layers(self) -> int:
        return len(self.hidden_dims) + 1


def hnn_spec(state_dim: int, hidden=(64, 64, 64)) -> NetworkSpec:
    """Scalar-output network H(x); default three hidden layers of 64."""
    return NetworkSpec(state_dim, tuple(hidden), 1)


def naive_spec(state_dim: int, hidden=(64, 64, 64)) -> NetworkSpec:
    """Direct field predictor net(x) = xdot-hat, output dim = state dim."""
    return NetworkSpec(state_dim, tuple(hidden), state_dim)


@lru_cache(maxsize=64)
def param_count(spec: NetworkSpec) -> int:
    dims = spec.dims
    return int(sum((dims[i] + 1) * dims[i + 1] for i in range(len(dims) - 1)))


@lru_cache(maxsize=64)
def _block_layout(spec: NetworkSpec) -> tuple:
    """(offset, fan_in, fan_out) of each layer's block in the flat vector."""
    out, o = [], 0
    for fi, fo in zip(spec.dims[:-1], spec.dims[1:]):
        out.append((o, fi, fo))
        o += (fi + 1) * fo
    return tuple(out)


def layer_slice(spec: NetworkSpec, layer: int) -> slice:
    """Contiguous [weights, biases] range of one layer in the flat vector."""
    L = spec.n_layers
    if not 0 <= layer < L:
        raise IndexError(f"layer {layer} out of range for {L}-layer network")
    o, fi, fo = _block_layout(spec)[layer]
    return slice(o, o + (fi + 1) * fo)


def update_mask(spec: NetworkSpec, update_set: str) -> np.ndarray:
    """Boolean mask over the flat vector for an inner-loop update set.
    Every update set runs from its first layer to the output: a suffix."""
    L = spec.n_layers
    if update_set not in UPDATE_SETS:
        raise ValueError(f"update_set must be one of {UPDATE_SETS}")
    if update_set == "all_but_first" and L < 2:
        raise ValueError("all_but_first needs at least two layers")
    first = {"all": 0, "last": L - 1, "all_but_first": 1}[update_set]
    mask = np.zeros(param_count(spec), bool)
    mask[layer_slice(spec, first).start :] = True
    return mask


def init_params(spec: NetworkSpec, seed: int) -> np.ndarray:
    """Weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)) per layer, biases 0."""
    rng = np.random.default_rng(seed)
    params = np.zeros(param_count(spec))
    for o, fi, fo in _block_layout(spec):
        bound = 1.0 / np.sqrt(fi)
        params[o : o + fi * fo] = rng.uniform(-bound, bound, fi * fo)
    return params


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
