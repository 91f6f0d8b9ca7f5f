"""Fast kernels vs the tape oracle, finite differences, and structural checks."""

import numpy as np
import pytest

from hamlearn import fastops as F
from hamlearn import network as N
from hamlearn.physics import omega_apply
from oracle import graph as G
from oracle import tape as T

RNG = np.random.default_rng


def rand_net(seed, spec):
    rng = RNG(seed)
    return N.init_params(spec, seed) + rng.normal(0, 0.15, N.param_count(spec))


def fd_grad(f, theta, h=1e-6):
    out = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        out[i] = (f(theta + e) - f(theta - e)) / (2 * h)
    return out


def tape_hnn_field(spec, params, X):
    """Field from the tape route: forward graph + backward to inputs."""
    g = T.Graph()
    pids = g.leaf_many(params)
    X = np.atleast_2d(X)
    xids = g.leaf_many(X.ravel()).reshape(X.shape)
    H = G.forward_graph(g, spec, pids, xids)
    total = G._tree_sum(g, H.reshape(1, -1))[0]  # samples independent
    gids = g.backward(int(total), xids.ravel())
    dH = g.values(gids).reshape(X.shape)
    return omega_apply(dH)


def test_forward_matches_graph(lane):
    spec = N.NetworkSpec(4, (8, 6), 4)
    params = rand_net(1, spec)
    X = RNG(2).uniform(-2, 2, (9, 4))
    fast = F.mlp_forward(spec, params, X)
    g = T.Graph()
    pids = g.leaf_many(params)
    xids = g.leaf_many(X.ravel()).reshape(X.shape)
    out = G.forward_graph(g, spec, pids, xids)
    graphv = g.values(out.ravel()).reshape(out.shape)
    np.testing.assert_allclose(fast, graphv, rtol=1e-13, atol=1e-15)


def test_hnn_field_matches_tape_route(lane):
    spec = N.NetworkSpec(4, (8, 7), 1)
    params = rand_net(3, spec)
    X = RNG(4).uniform(-2, 2, (6, 4))
    np.testing.assert_allclose(F.predicted_field(spec, params, X),
                               tape_hnn_field(spec, params, X),
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("kind,out_mul", [("hnn", None), ("naive", 1)])
def test_loss_grad_matches_fd(lane, kind, out_mul):
    d0 = 4
    spec = N.NetworkSpec(d0, (7, 6), 1 if kind == "hnn" else d0)
    params = rand_net(5, spec)
    rng = RNG(6)
    X = rng.uniform(-1.5, 1.5, (8, d0))
    Xd = rng.uniform(-1.5, 1.5, (8, d0))
    loss, grad, _ = F.loss_grad(spec, params, X, Xd)
    R = F.predicted_field(spec, params, X) - Xd  # the loss of the field
    assert loss == pytest.approx(np.sum(R * R) / len(R), rel=1e-12)
    fd = fd_grad(lambda th: F.loss_grad(spec, th, X, Xd)[0], params)
    rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
    assert rel.max() < 1e-7


@pytest.mark.parametrize("kind", ["hnn", "naive"])
def test_hvp_matches_fd_of_grad(lane, kind):
    d0 = 4
    spec = N.NetworkSpec(d0, (7, 5), 1 if kind == "hnn" else d0)
    params = rand_net(7, spec)
    rng = RNG(8)
    X = rng.uniform(-1.5, 1.5, (6, d0))
    Xd = rng.uniform(-1.5, 1.5, (6, d0))
    v = rng.normal(0, 1, params.size)
    hvp = F.loss_grad(spec, params, X, Xd)[2].hvp(v)
    h = 1e-6
    _, gp, _ = F.loss_grad(spec, params + h * v, X, Xd)
    _, gm, _ = F.loss_grad(spec, params - h * v, X, Xd)
    fd = (gp - gm) / (2 * h)
    rel = np.abs(hvp - fd) / np.maximum(1.0, np.abs(fd))
    assert rel.max() < 1e-7


def _keep_zero_blocks(spec, vec):
    """`fastops._tangent_blocks` without the exact-zero skipping."""
    dP = N.unpack_blocks(spec, vec)
    return dP, [P[:-1] for P in dP]


@pytest.mark.parametrize("update_set", ["all", "last", "all_but_first"])
@pytest.mark.parametrize("kind", ["hnn", "naive"])
def test_hvp_from_linearization_on_update_set_directions(kind, update_set,
                                                        monkeypatch):
    d0 = 4
    spec = N.NetworkSpec(d0, (7, 5), 1 if kind == "hnn" else d0)
    params = rand_net(17, spec)
    rng = RNG(18)
    X = rng.uniform(-1.5, 1.5, (6, d0))
    Xd = rng.uniform(-1.5, 1.5, (6, d0))
    v = N.update_mask(spec, update_set) * rng.normal(0, 1, params.size)
    lin = F.loss_grad(spec, params, X, Xd)[2]
    cached = lin.hvp(v)
    fresh = F.loss_grad(spec, params, X, Xd)[2].hvp(v)
    np.testing.assert_array_equal(cached, fresh)
    # skipping the terms fed only by zero blocks of v changes no bit
    monkeypatch.setattr(F, "_tangent_blocks", _keep_zero_blocks)
    np.testing.assert_array_equal(lin.hvp(v), cached)
    h = 1e-6
    _, gp, _ = F.loss_grad(spec, params + h * v, X, Xd)
    _, gm, _ = F.loss_grad(spec, params - h * v, X, Xd)
    fd = (gp - gm) / (2 * h)
    rel = np.abs(cached - fd) / np.maximum(1.0, np.abs(fd))
    assert rel.max() < 1e-7


def test_hvp_refuses_a_direction_not_the_gradients_length():
    spec = N.NetworkSpec(2, (5,), 1)
    params = rand_net(19, spec)
    rng = RNG(20)
    X = rng.uniform(-1, 1, (5, 2))
    Xd = rng.uniform(-1, 1, (5, 2))
    _, _, lin = F.loss_grad(spec, params, X, Xd)
    v = rng.normal(0, 1, params.size)
    for bad in (v[:-1], np.append(v, 0.0), v[None], v[0]):
        with pytest.raises(ValueError, match="length"):
            lin.hvp(bad)
    assert lin.hvp(list(v)).shape == params.shape  # any sequence of floats


@pytest.mark.parametrize("kind", ["hnn", "naive"])
def test_hessian_symmetry_through_hvp(kind):
    d0 = 2
    spec = N.NetworkSpec(d0, (5,), 1 if kind == "hnn" else d0)
    params = rand_net(9, spec)
    rng = RNG(10)
    X = rng.uniform(-1, 1, (5, d0))
    Xd = rng.uniform(-1, 1, (5, d0))
    u = rng.normal(0, 1, params.size)
    w = rng.normal(0, 1, params.size)
    lin = F.loss_grad(spec, params, X, Xd)[2]
    Hu, Hw = lin.hvp(u), lin.hvp(w)
    assert np.dot(w, Hu) == pytest.approx(np.dot(u, Hw), rel=1e-10)


def test_hnn_last_bias_gradient_is_exactly_zero(lane):
    # H and H + c give the same field, so the output bias never matters
    spec = N.NetworkSpec(2, (8, 8), 1)
    params = rand_net(11, spec)
    rng = RNG(12)
    X = rng.uniform(-2, 2, (10, 2))
    Xd = rng.uniform(-2, 2, (10, 2))
    _, grad, lin = F.loss_grad(spec, params, X, Xd)
    assert grad[-1] == 0.0
    v = rng.normal(0, 1, params.size)
    assert lin.hvp(v)[-1] == 0.0
    shifted = params.copy()
    shifted[-1] += 5.0
    np.testing.assert_array_equal(F.predicted_field(spec, params, X),
                                  F.predicted_field(spec, shifted, X))


def tape_loss_hvp(spec, params, X, Xd, v, kind):
    """Exact H @ v of the graph loss: two reverse sweeps over the tape."""
    g = T.Graph()
    pids = g.leaf_many(params)
    loss = G.GRAPH_LOSSES[kind](g, spec, pids, X, Xd)
    gids = g.backward(loss, pids)
    dot = G._tree_sum(g, g.apply_many(T.MUL, gids, g.leaf_many(v))
                      .reshape(1, -1))[0]
    return g.values(g.backward(int(dot), pids))


def test_backends_agree():
    # the two back ends that compute H @ v: the kernels' tangent pass and
    # the oracle's second reverse sweep over the scalar tape
    d0 = 4
    rng = RNG(14)
    X = rng.uniform(-2, 2, (5, d0))
    Xd = rng.uniform(-2, 2, (5, d0))
    for kind in ("hnn", "naive"):
        spec = N.NetworkSpec(d0, (8, 6), 1 if kind == "hnn" else d0)
        params = rand_net(13, spec)
        v = rng.normal(0, 1, params.size)
        hvp = F.loss_grad(spec, params, X, Xd)[2].hvp(v)
        np.testing.assert_allclose(
            hvp, tape_loss_hvp(spec, params, X, Xd, v, kind),
            rtol=1e-12, atol=1e-14)


def test_single_layer_network_edge_case(lane):
    # no hidden layers: H linear in x, field constant, bias unused
    spec = N.NetworkSpec(2, (), 1)
    params = np.array([0.7, -0.4, 0.9])  # w1, w2, b
    X = RNG(15).uniform(-1, 1, (4, 2))
    Xd = np.zeros((4, 2))
    FF = F.predicted_field(spec, params, X)
    np.testing.assert_allclose(FF, np.tile([-0.4, -0.7], (4, 1)), rtol=1e-15)
    _, grad, _ = F.loss_grad(spec, params, X, Xd)
    fd = fd_grad(lambda th: F.loss_grad(spec, th, X, Xd)[0], params)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


def test_wrapper_validation():
    spec = N.NetworkSpec(2, (4,), 1)
    params = rand_net(16, spec)
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        F.loss_grad(spec, params, X, np.zeros((2, 2)))  # shape mismatch
    with pytest.raises(ValueError):
        F.loss_grad(spec, params[:-1], X, np.zeros((3, 2)))


@pytest.mark.parametrize("name", ["predicted_field", "loss_grad",
                                  "head_features"])
def test_a_head_neither_scalar_nor_field_wide_is_refused(name):
    # the head's width fixes the loss: 1 is a Hamiltonian, input_dim a field;
    # hvp is a method of the linearization that loss_grad refuses to make
    spec = N.NetworkSpec(4, (5,), 3)
    params = rand_net(27, spec)
    X = RNG(28).uniform(-1, 1, (6, 4))
    Xd = np.zeros((6, 4))
    rest = (Xd,) if name == "loss_grad" else ()
    with pytest.raises(ValueError, match="neither a Hamiltonian"):
        getattr(F, name)(spec, params, X, *rest)


# -- head space -------------------------------------------------------------------


@pytest.mark.parametrize("kind,state_dim,hidden", [
    ("hnn", 2, (64, 64, 64)), ("hnn", 4, (7, 5)), ("hnn", 2, ()),
    ("naive", 2, (64, 64, 64)), ("naive", 4, (7,)), ("naive", 2, ()),
])
def test_head_features_agree_with_the_generic_kernels(kind, state_dim, hidden):
    spec = N.NetworkSpec(state_dim, hidden, 1 if kind == "hnn" else state_dim)
    params = rand_net(21, spec)
    rng = RNG(22)
    X = rng.uniform(-1.5, 1.5, (50, state_dim))
    Xd = rng.uniform(-1.5, 1.5, (50, state_dim))
    feats = F.head_features(spec, params, X)
    head = N.layer_slice(spec, spec.n_layers - 1)
    v = np.zeros(params.size)
    v[head] = rng.normal(0, 1, v[head].size)
    # at another head the features still hold
    params[head] += rng.normal(0, 0.3, v[head].size)
    lin = feats.linearize(params, Xd)
    loss, grad, glin = F.loss_grad(spec, params, X, Xd)
    want = glin.hvp(v)
    got = F.loss_hvp(feats, params[head][None], Xd, v[head][None])
    field = F.predicted_field(spec, params, X)
    if kind == "naive":  # the same operations as the generic kernels
        assert lin.loss == loss
        np.testing.assert_array_equal(lin.grad, grad[head])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(feats.field(params), field)
    else:
        assert abs(lin.loss - loss) <= 1e-14 * loss
        assert np.abs(lin.grad - grad[head]).max() <= 1e-14 * np.abs(grad).max()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert np.abs(feats.field(params) - field).max() <= \
            1e-14 * np.abs(field).max()
        assert lin.grad[-1] == 0.0 and got[-1] == 0.0
    grid = F.head_features(spec, params, X, keep_state=False)
    np.testing.assert_array_equal(grid.phi, feats.phi)


def test_grid_head_features_are_built_in_row_blocks():
    spec = N.NetworkSpec(2, (8, 8), 1)
    params = rand_net(23, spec)
    X = RNG(24).uniform(-2, 2, (700, 2))
    grid = F.head_features(spec, params, X, keep_state=False)
    assert grid.S is None
    np.testing.assert_allclose(grid.field(params),
                               F.predicted_field(spec, params, X),
                               rtol=1e-13, atol=1e-15)
    whole = F.head_features(spec, params, X)
    np.testing.assert_array_equal(grid.phi, whole.phi)


def test_head_features_refuse_another_body_or_batch():
    spec = N.NetworkSpec(2, (5,), 1)
    params = rand_net(25, spec)
    rng = RNG(26)
    X = rng.uniform(-1, 1, (6, 2))
    Xd = rng.uniform(-1, 1, (6, 2))
    feats = F.head_features(spec, params, X)
    moved = params.copy()
    moved[0] += 1e-12
    for bad in (moved, params[:-1]):
        with pytest.raises(ValueError, match="body"):
            feats.linearize(bad, Xd)
        with pytest.raises(ValueError, match="body"):
            feats.field(bad)
    with pytest.raises(ValueError, match="Xdot"):
        feats.linearize(params, Xd[:5])
    with pytest.raises(ValueError, match="empty"):
        F.head_features(spec, params, X[:0])


def _head_trace(spec, params, X, steps, rng):
    """`HeadFeatures` of X at params' body, and (steps, m) stacks of heads
    near params' own and of directions, both in the last layer's block."""
    head = N.layer_slice(spec, spec.n_layers - 1)
    shape = (steps, head.stop - head.start)
    return (F.head_features(spec, params, X),
            params[head] + rng.normal(0, 0.3, shape), rng.normal(0, 1, shape))


@pytest.mark.parametrize("kind,state_dim,hidden", [
    ("hnn", 2, (64, 64, 64)), ("hnn", 4, (7, 5)), ("hnn", 2, ()),
    ("naive", 4, (7,)),
])
def test_loss_hvp_sums_a_head_space_trace(kind, state_dim, hidden):
    spec = N.NetworkSpec(state_dim, hidden, 1 if kind == "hnn" else state_dim)
    params = rand_net(27, spec)
    rng = RNG(28)
    X = rng.uniform(-1.5, 1.5, (50, state_dim))
    Xd = rng.uniform(-1.5, 1.5, (50, state_dim))
    feats, heads, vecs = _head_trace(spec, params, X, 3, rng)
    got = F.loss_hvp(feats, heads, Xd, vecs)
    singles = [F.loss_hvp(feats, h[None], Xd, v[None])
               for h, v in zip(heads, vecs)]
    want = np.sum(singles, axis=0)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    if kind == "hnn":
        assert got[-1] == 0.0
    # the head block of H is the features' Gram matrix at every head
    head = N.layer_slice(spec, spec.n_layers - 1)
    G = feats.gram()
    for v, single in zip(vecs, singles):
        hb = G @ v.reshape(G.shape[0], -1)
        assert np.abs(hb.ravel() - single[head]).max() <= \
            1e-13 * np.abs(single[head]).max()


def test_loss_hvp_refuses_stacks_that_do_not_fit_the_features():
    spec = N.NetworkSpec(2, (5, 4), 1)
    params = rand_net(29, spec)
    rng = RNG(30)
    X = rng.uniform(-1, 1, (6, 2))
    Xd = rng.uniform(-1, 1, (6, 2))
    feats, heads, vecs = _head_trace(spec, params, X, 2, rng)
    # one head per direction, each as wide as the last layer's [W; b]
    # block: a full-length stack, body entries and all, is refused
    full = np.zeros((2, params.size))
    for bad_heads, bad_vecs in [(heads[:1], vecs), (heads, vecs[:1]),
                                (heads, vecs[0]), (heads[0], vecs[0]),
                                (heads[:0], vecs[:0]), (full, full),
                                (heads[:, :-1], vecs[:, :-1])]:
        with pytest.raises(ValueError, match="stacks"):
            F.loss_hvp(feats, bad_heads, Xd, bad_vecs)
    with pytest.raises(ValueError, match="Xdot"):
        F.loss_hvp(feats, heads, Xd[:5], vecs)
    grid = F.head_features(spec, params, X, keep_state=False)
    with pytest.raises(ValueError, match="keep_state"):
        F.loss_hvp(grid, heads, Xd, vecs)
