"""Network layout, initialization, the oracle's graph forward, and layer slicing."""

import numpy as np
import pytest

from hamlearn import network as N
from oracle import graph as G
from oracle import tape as T

RNG = np.random.default_rng


def ref_forward(spec, params, X, activation="softplus"):
    """Independent numpy forward pass used as an oracle."""
    act = {
        "softplus": lambda z: np.logaddexp(0.0, z),
        "tanh": np.tanh,
        "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
        "relu": lambda z: np.maximum(z, 0.0),
    }[activation]
    a = np.atleast_2d(X)
    layers = [(P[:-1], P[-1]) for P in N.unpack_blocks(spec, params)]
    for i, (W, b) in enumerate(layers):
        z = a @ W + b
        a = act(z) if i < len(layers) - 1 else z
    return a


def graph_forward_values(spec, params, X, activation="softplus"):
    g = T.Graph()
    pids = g.leaf_many(params)
    xids = g.leaf_many(np.atleast_2d(X).ravel()).reshape(np.atleast_2d(X).shape)
    out = G.forward_graph(g, spec, pids, xids, activation)
    return g.values(out.ravel()).reshape(out.shape)


def test_param_count_by_independent_summation():
    spec = N.NetworkSpec(2, (64, 64, 64), 1)
    dims = (2, 64, 64, 64, 1)
    total = 0
    for fi, fo in zip(dims[:-1], dims[1:]):
        total += fi * fo + fo
    assert N.param_count(spec) == total == 8577
    assert N.init_params(spec, 0).shape == (total,)


def test_init_deterministic_and_bounded():
    spec = N.NetworkSpec(2, (64, 64, 64), 1)
    p1 = N.init_params(spec, 123)
    p2 = N.init_params(spec, 123)
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, N.init_params(spec, 124))
    for P, fan_in in zip(N.unpack_blocks(spec, p1), spec.dims[:-1]):
        W, b = P[:-1], P[-1]
        bound = 1.0 / np.sqrt(fan_in)
        assert np.all(np.abs(W) <= bound)
        assert np.all(b == 0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        N.NetworkSpec(0, (4,), 1)
    with pytest.raises(ValueError):
        N.NetworkSpec(2, (4, 0), 1)


def test_zero_params_forward_is_zero():
    spec = N.NetworkSpec(2, (5, 4), 1)
    params = np.zeros(N.param_count(spec))
    X = RNG(0).uniform(-3, 3, (7, 2))
    # softplus(0) is nonzero but with zero last-layer weights output is 0
    out = graph_forward_values(spec, params, X)
    assert np.all(out == 0.0)
    np.testing.assert_array_equal(ref_forward(spec, params, X), out)


@pytest.mark.parametrize("activation", ["softplus", "tanh", "sigmoid"])
def test_graph_forward_matches_reference(lane, activation):
    rng = RNG(5)
    spec = N.NetworkSpec(4, (6, 5), 3)
    params = N.init_params(spec, 9) + rng.normal(0, 0.3, N.param_count(spec))
    X = rng.uniform(-2, 2, (8, 4))
    got = graph_forward_values(spec, params, X, activation)
    want = ref_forward(spec, params, X, activation)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    # purity: rebuilding gives identical values
    np.testing.assert_array_equal(got, graph_forward_values(spec, params, X,
                                                            activation))


def test_relu_has_no_graph_form():
    spec = N.NetworkSpec(2, (4,), 1)
    params = N.init_params(spec, 0)
    g = T.Graph()
    pids = g.leaf_many(params)
    xids = g.leaf_many([0.5, -0.5])
    with pytest.raises(ValueError):
        G.forward_graph(g, spec, pids, xids, "relu")


def test_forward_dimension_errors():
    spec = N.NetworkSpec(3, (4,), 1)
    params = N.init_params(spec, 0)
    g = T.Graph()
    pids = g.leaf_many(params)
    with pytest.raises(ValueError):
        G.forward_graph(g, spec, pids, g.leaf_many([1.0, 2.0]))  # wrong input dim
    with pytest.raises(ValueError):
        G.forward_graph(g, spec, pids[:-1], g.leaf_many([1.0, 2.0, 3.0]))


def test_input_gradient_matches_fd():
    rng = RNG(11)
    spec = N.NetworkSpec(2, (8, 8), 1)
    params = N.init_params(spec, 2) + rng.normal(0, 0.2, N.param_count(spec))

    def build(g, xs):
        pids = g.leaf_many(params)
        return int(G.forward_graph(g, spec, pids, np.asarray(xs))[0, 0])

    err = T.check_gradient(build, rng.uniform(-1, 1, 2), h=1e-5)
    assert err < 1e-6


def test_layer_slices_and_indices():
    spec = N.NetworkSpec(2, (64, 64, 64), 1)
    P = N.param_count(spec)
    assert N.layer_slice(spec, 3) == slice(P - 65, P)
    assert N.layer_slice(spec, 1).start == 2 * 64 + 64  # right after layer 0
    with pytest.raises(IndexError):
        N.layer_slice(spec, 4)


def test_update_masks():
    spec = N.NetworkSpec(2, (64, 64, 64), 1)
    P = N.param_count(spec)
    assert N.update_mask(spec, "all").sum() == P
    assert N.update_mask(spec, "last").sum() == 65
    m = N.update_mask(spec, "all_but_first")
    assert m.sum() == P - (2 * 64 + 64)
    assert not m[: 2 * 64 + 64].any()
    with pytest.raises(ValueError):
        N.update_mask(spec, "none_of_them")
    with pytest.raises(ValueError, match="at least two layers"):
        N.update_mask(N.NetworkSpec(2, (), 1), "all_but_first")


def test_masked_update_leaves_complement_bitwise_unchanged():
    spec = N.NetworkSpec(2, (8, 8), 1)
    params = N.init_params(spec, 3)
    mask = N.update_mask(spec, "last")
    before = params.copy()
    params = params - 0.1 * np.where(mask, 1.0, 0.0)
    assert np.array_equal(params[~mask], before[~mask])
    assert not np.array_equal(params[mask], before[mask])
