import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from hamlearn import DOF, LEARNER_KINDS, fastops
from hamlearn import evaluation as E
from hamlearn import metalearn as M
from hamlearn.network import (NetworkSpec, init_params, layer_slice,
                              param_count, update_mask)
from hamlearn.physics import integrate, true_field_many
from hamlearn.taskgen import (Task, make_meta_test_suite, make_meta_train,
                              sample_params, sample_states)
from oracle import graph as G
from oracle import tape as T


def spring_task(seed, n_points=6):
    rng = np.random.default_rng(seed)
    params = sample_params("spring_mass", rng)
    X, Xt = (sample_states(params, rng, n_points) for _ in range(2))
    return Task(params, X, true_field_many(params, X),
                Xt, true_field_many(params, Xt))


def synth_task(seed, spec, n_points=5):
    # labels from a frozen random net of the same shape, so losses are small
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n_points, spec.input_dim))
    Xt = rng.uniform(-1, 1, (n_points, spec.input_dim))
    truth = init_params(spec, seed + 1)
    return Task(None, X, fastops.predicted_field(spec, truth, X),
                Xt, fastops.predicted_field(spec, truth, Xt))


# -- adam ----------------------------------------------------------------------


def test_adam_first_step_magnitude():
    rng = np.random.default_rng(0)
    p = rng.normal(size=9)
    g = rng.choice([-1.0, 1.0], 9) * rng.uniform(0.1, 3.0, 9)
    p2, st = M.adam_update(M.adam_init(9), p, g, lr=0.01)
    assert st.t == 1
    assert np.all(np.abs(np.abs(p2 - p) - 0.01) < 1e-6)
    assert np.all(np.sign(p - p2) == np.sign(g))


def test_adam_zero_gradient_is_noop():
    p = np.array([1.0, -2.0, 0.5])
    st = M.adam_init(3)
    for _ in range(5):
        p2, st = M.adam_update(st, p, np.zeros(3), lr=0.1)
        np.testing.assert_array_equal(p2, p)
        p = p2


def test_adam_matches_scalar_reference():
    # same recurrence written independently with python floats
    def oracle(params, grads, lr):
        b1, b2, eps = 0.9, 0.999, 1e-8
        p = [float(x) for x in params]
        m = [0.0] * len(p)
        v = [0.0] * len(p)
        for t, g in enumerate(grads, start=1):
            for i in range(len(p)):
                gi = float(g[i])
                m[i] = b1 * m[i] + (1 - b1) * gi
                v[i] = b2 * v[i] + (1 - b2) * gi * gi
                mh = m[i] / (1 - b1 ** t)
                vh = v[i] / (1 - b2 ** t)
                p[i] -= lr * mh / (math.sqrt(vh) + eps)
        return np.array(p)

    rng = np.random.default_rng(42)
    p = rng.normal(size=7)
    grads = [rng.normal(size=7) for _ in range(25)]
    want = oracle(p, grads, lr=0.003)
    st = M.adam_init(7)
    got = p
    for g in grads:
        got, st = M.adam_update(st, got, g, lr=0.003)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert st.t == 25


def test_adam_shape_mismatch():
    with pytest.raises(ValueError):
        M.adam_update(M.adam_init(3), np.zeros(3), np.zeros(4), 0.1)


# -- inner loop ------------------------------------------------------------------


def test_inner_zero_steps_identity():
    spec = NetworkSpec(2, (4,), 1)
    theta = init_params(spec, 0)
    task = spring_task(1)
    out = M.inner_adapt(spec, theta, task.train_x, task.train_xdot,
                        M.InnerConfig(steps=0))[0]
    np.testing.assert_array_equal(out, theta)
    assert out is not theta


def test_inner_one_step_quadratic():
    # one masked GD step is theta - lr * mask * grad, bit for bit
    spec = NetworkSpec(2, (4, 3), 1)
    theta = init_params(spec, 3)
    task = spring_task(4)
    cfg = M.InnerConfig(steps=1, lr=0.25, update_set="all_but_first")
    out = M.inner_adapt(spec, theta, task.train_x, task.train_xdot, cfg)[0]
    _, grad, _ = fastops.loss_grad(spec, theta, task.train_x, task.train_xdot)
    want = theta - cfg.lr * update_mask(spec, cfg.update_set) * grad
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("update_set,frozen_layers", [
    ("last", (0, 1)),
    ("all_but_first", (0,)),
])
def test_masked_updates_freeze_exactly(update_set, frozen_layers):
    spec = NetworkSpec(2, (6, 5), 1)
    theta = init_params(spec, 7)
    task = spring_task(2)
    cfg = M.InnerConfig(steps=7, lr=0.01, update_set=update_set)
    out = M.inner_adapt(spec, theta, task.train_x, task.train_xdot, cfg)[0]
    for layer in frozen_layers:
        sl = layer_slice(spec, layer)
        np.testing.assert_array_equal(out[sl], theta[sl])
    moved = update_mask(spec, update_set)
    assert not np.array_equal(out[moved], theta[moved])


@pytest.mark.parametrize("kind", LEARNER_KINDS)
def test_one_step_changes_exactly_the_update_mask(kind):
    # one inner GD step and one evaluation Adam step, head space or not
    from hamlearn.evaluation import adapt_params
    learner = M.build_learner(kind, hidden=(5, 4))
    theta = init_params(learner.spec, 3)
    task = spring_task(6)
    mask = update_mask(learner.spec, learner.inner.update_set)
    inner = replace(learner.inner, steps=1)
    for out in (M.inner_adapt(learner.spec, theta, task.train_x,
                              task.train_xdot, inner)[0],
                adapt_params(learner, theta, task.train_x, task.train_xdot,
                             steps=1)):
        assert out[~mask].tobytes() == theta[~mask].tobytes()
        for layer in range(learner.spec.n_layers):
            sl = layer_slice(learner.spec, layer)
            assert np.any(out[sl] != theta[sl]) == bool(mask[sl].all())


def test_masked_updates_freeze_exactly_graph_lane(lane):
    spec = NetworkSpec(2, (3,), 1)
    theta = init_params(spec, 7)
    task = spring_task(2, n_points=3)
    g = T.Graph()
    ids = g.leaf_many(theta)
    out_ids = G.inner_adapt_graph(g, spec, ids, task.train_x, task.train_xdot,
                                  M.InnerConfig(steps=2, update_set="last"))
    body = layer_slice(spec, 0)
    np.testing.assert_array_equal(out_ids[body], ids[body])
    np.testing.assert_array_equal(g.values(out_ids)[body], theta[body])
    head = layer_slice(spec, 1)
    assert not np.array_equal(out_ids[head], ids[head])


def test_nonfinite_inner_loss_names_the_step(monkeypatch):
    spec = NetworkSpec(2, (3,), 1)
    theta = init_params(spec, 0)
    task = spring_task(3)
    real = fastops.loss_grad
    calls = []

    def explode_later(*args):
        calls.append(0)
        loss, grad, lin = real(*args)
        return (float("inf") if len(calls) > 2 else loss), grad, lin

    with monkeypatch.context() as patch:
        patch.setattr(fastops, "loss_grad", explode_later)
        with pytest.raises(FloatingPointError, match="step 2"):
            M.inner_adapt(spec, theta, task.train_x, task.train_xdot,
                          M.InnerConfig(steps=5))
    with pytest.raises(FloatingPointError, match="step 0"):
        M.inner_adapt(spec, theta * 1e200, task.train_x, task.train_xdot,
                      M.InnerConfig(steps=1))


# -- losses ----------------------------------------------------------------------


def test_hnn_loss_zero_parameter_net(lane):
    spec = NetworkSpec(2, (4,), 1)
    task = spring_task(5)
    want = float(np.mean(np.sum(task.train_xdot ** 2, axis=1)))
    g = T.Graph()
    node = G.hnn_loss(g, spec, g.leaf_many(np.zeros(param_count(spec))),
                      task.train_x, task.train_xdot)
    assert abs(g.value(node) - want) < 1e-12 * want
    fast = fastops.loss_grad(spec, np.zeros(param_count(spec)),
                             task.train_x, task.train_xdot)[0]
    assert abs(fast - want) < 1e-12 * want


def test_naive_loss_zero_when_net_matches_labels():
    spec = NetworkSpec(2, (4,), 2)
    theta = init_params(spec, 9)
    X = np.random.default_rng(1).uniform(-1, 1, (6, 2))
    labels = fastops.mlp_forward(spec, theta, X)
    assert fastops.loss_grad(spec, theta, X, labels)[0] == 0.0
    g = T.Graph()
    node = G.naive_loss(g, spec, g.leaf_many(theta), X, labels)
    assert g.value(node) < 1e-25


def test_hnn_loss_vanishes_for_injected_true_hamiltonian(lane):
    # closed-form H built on the tape in place of the network head
    for system in ("spring_mass", "pendulum", "kepler"):
        task = make_meta_train(system, n_tasks=1, n_points=5, seed=11)[0]
        params = task.params
        g = T.Graph()
        x_ids = g.leaf_many(task.train_x.ravel()).reshape(task.train_x.shape)
        h_ids = [G.hamiltonian_graph(g, params, x_ids[b])
                 for b in range(x_ids.shape[0])]
        node = G.hnn_loss_from_H(g, h_ids, x_ids, task.train_xdot)
        assert g.value(node) < 1e-20


def test_hnn_loss_param_gradient_matches_fd(lane):
    spec = NetworkSpec(2, (5,), 1)
    task = spring_task(6, n_points=4)
    X = task.train_x / 10.0  # keep the quadratic loss surface tame for fd
    Xdot = task.train_xdot / 10.0
    err = T.check_gradient(
        lambda g, ids: G.hnn_loss(g, spec, ids, X, Xdot),
        init_params(spec, 1))
    assert err < 1e-5


def test_naive_loss_param_gradient_matches_fd(lane):
    spec = NetworkSpec(2, (4,), 2)
    task = spring_task(8, n_points=4)
    err = T.check_gradient(
        lambda g, ids: G.naive_loss(g, spec, ids, task.train_x / 10.0,
                                    task.train_xdot / 10.0),
        init_params(spec, 2))
    assert err < 1e-6


def test_loss_shape_errors():
    g = T.Graph()
    spec = NetworkSpec(2, (3,), 1)
    ids = g.leaf_many(init_params(spec, 0))
    with pytest.raises(ValueError):
        G.hnn_loss(g, spec, ids, np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        G.hnn_loss(g, spec, ids, np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        G.naive_loss(g, spec, ids, np.zeros((3, 2)), np.zeros((3, 2)))


# -- meta gradient ----------------------------------------------------------------


@pytest.mark.parametrize("update_set", ["all", "last", "all_but_first"])
@pytest.mark.parametrize("second_order", [True, False])
def test_meta_gradient_fast_matches_graph(lane, update_set, second_order):
    spec = NetworkSpec(2, (3,), 1)
    theta = init_params(spec, 21)
    task = spring_task(22, n_points=3)
    cfg = M.InnerConfig(steps=2, lr=0.01, update_set=update_set)
    lf, gf = M._task_meta_grad_fast(spec, theta, task, cfg, second_order)
    lg, gg = G._task_meta_grad_graph(spec, theta, task, cfg, second_order, "hnn")
    assert abs(lf - lg) < 1e-10 * max(1.0, abs(lg))
    np.testing.assert_allclose(gf, gg, rtol=1e-9, atol=1e-12)


def test_meta_gradient_fast_matches_graph_naive(lane):
    spec = NetworkSpec(2, (3,), 2)
    theta = init_params(spec, 4)
    task = spring_task(25, n_points=3)
    cfg = M.InnerConfig(steps=2, lr=0.01)
    lf, gf = M._task_meta_grad_fast(spec, theta, task, cfg, True)
    lg, gg = G._task_meta_grad_graph(spec, theta, task, cfg, True, "naive")
    np.testing.assert_allclose(gf, gg, rtol=1e-9, atol=1e-12)


def test_meta_gradient_matches_fd_of_bilevel_objective():
    # one hidden unit keeps the composed objective cheap to probe
    spec = NetworkSpec(2, (1,), 1)
    theta = init_params(spec, 30)
    tasks = [spring_task(31, n_points=4), spring_task(32, n_points=4)]
    for t in tasks:
        t.train_x /= 10.0
        t.train_xdot /= 10.0
        t.test_x /= 10.0
        t.test_xdot /= 10.0
    cfg = M.InnerConfig(steps=2, lr=0.05)

    def objective(th):
        total = 0.0
        for task in tasks:
            th_s = M.inner_adapt(spec, th, task.train_x, task.train_xdot,
                                 cfg)[0]
            total += fastops.loss_grad(spec, th_s, task.test_x,
                                       task.test_xdot)[0]
        return total

    grad = np.zeros_like(theta)
    for task in tasks:
        _, g = M._task_meta_grad_fast(spec, theta, task, cfg, True)
        grad += g
    h = 1e-5
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        fd = (objective(theta + e) - objective(theta - e)) / (2 * h)
        assert abs(grad[i] - fd) / max(1.0, abs(fd)) < 1e-4


@pytest.mark.parametrize("kind", ["hanil", "hamaml", "hanil_inv"])
def test_meta_gradient_matches_central_differences_at_desk_size(kind):
    # the desk network (2-64-64-64-1) and batch (B=50), two tasks
    learner = M.build_learner(kind, 2, (64, 64, 64))
    spec, inner = learner.spec, learner.inner
    theta = init_params(spec, 0)
    tasks = make_meta_train("spring_mass", 2, 50, 0)

    def objective(th):
        return sum(fastops.loss_grad(
            spec, M.inner_adapt(spec, th, t.train_x, t.train_xdot, inner)[0],
            t.test_x, t.test_xdot)[0] for t in tasks)

    grad = sum(M._task_meta_grad_fast(spec, theta, t, inner, True)[1]
               for t in tasks)
    rng = np.random.default_rng(1)
    h = 1e-4
    for _ in range(3):
        d = rng.normal(0, 1, theta.size)
        d /= np.linalg.norm(d)
        fd = (objective(theta + h * d) - objective(theta - h * d)) / (2 * h)
        assert abs(fd - grad @ d) <= 1e-6 * abs(grad @ d)


def test_first_order_approaches_second_order_for_tiny_alpha():
    spec = NetworkSpec(2, (4,), 1)
    theta = init_params(spec, 40)
    task = spring_task(41, n_points=5)
    cfg = M.InnerConfig(steps=1, lr=1e-6)
    _, g2 = M._task_meta_grad_fast(spec, theta, task, cfg, True)
    _, g1 = M._task_meta_grad_fast(spec, theta, task, cfg, False)
    assert np.linalg.norm(g2 - g1) / np.linalg.norm(g2) < 1e-3


def test_identical_batch_hands_adam_five_times_the_single_task_gradient(
        adam_grads):
    spec = NetworkSpec(2, (4,), 1)
    theta = init_params(spec, 50)
    task = spring_task(51, n_points=5)
    inner = M.InnerConfig(steps=2, lr=0.01)
    outer = M.OuterConfig(episodes=1, task_batch=5, lr=3e-4)
    _, _, loss_many = M.meta_step(spec, theta, [task] * 5, inner, outer,
                                  M.adam_init(theta.size))
    _, _, loss_one = M.meta_step(spec, theta, [task], inner, outer,
                                 M.adam_init(theta.size))
    grad_many, grad_one = adam_grads
    np.testing.assert_allclose(grad_many, 5 * grad_one, rtol=1e-12,
                               atol=1e-15)
    assert abs(loss_many - 5 * loss_one) < 1e-12 * abs(loss_many)


def test_zero_inner_steps_reduces_to_pooled_adam():
    spec = NetworkSpec(2, (4,), 1)
    theta = init_params(spec, 60)
    tasks = [spring_task(s, n_points=5) for s in (61, 62, 63)]
    inner = M.InnerConfig(steps=0)
    outer = M.OuterConfig(episodes=1, task_batch=3, lr=0.002)
    got, _, got_loss = M.meta_step(spec, theta, tasks, inner, outer,
                                   M.adam_init(theta.size))
    total = np.zeros_like(theta)
    pooled = 0.0
    for t in tasks:
        l, g, _ = fastops.loss_grad(spec, theta, t.test_x, t.test_xdot)
        pooled += l
        total += g
    want, _ = M.adam_update(M.adam_init(theta.size), theta, total, 0.002)
    np.testing.assert_array_equal(got, want)
    assert got_loss == pooled


def test_meta_loss_descends_on_fixed_batch():
    spec = NetworkSpec(2, (8,), 2)
    theta = init_params(spec, 70)
    task = spring_task(71, n_points=8)
    fixed = Task(task.params, task.train_x, task.train_xdot,
                 task.train_x, task.train_xdot)
    inner = M.InnerConfig(steps=1, lr=1e-3)
    outer = M.OuterConfig(episodes=1, task_batch=1, lr=1e-3)
    adam = M.adam_init(theta.size)
    losses = []
    for _ in range(10):
        theta, adam, loss = M.meta_step(spec, theta, [fixed], inner, outer,
                                        adam)
        losses.append(loss)
    assert losses[-1] < losses[0]
    drops = sum(b < a for a, b in zip(losses, losses[1:]))
    assert drops >= 7


def test_meta_step_rejects_nonfinite():
    spec = NetworkSpec(2, (3,), 1)
    theta = init_params(spec, 0)
    bad = spring_task(1, n_points=3)
    bad.test_xdot[0, 0] = np.inf
    with pytest.raises(FloatingPointError):
        M.meta_step(spec, theta, [bad], M.InnerConfig(steps=0),
                    M.OuterConfig(episodes=1, task_batch=1),
                    M.adam_init(theta.size))


def test_meta_step_argument_errors():
    spec = NetworkSpec(2, (3,), 1)
    theta = init_params(spec, 0)
    adam = M.adam_init(theta.size)
    inner, outer = M.InnerConfig(), M.OuterConfig()
    with pytest.raises(ValueError):
        M.meta_step(spec, theta, [], inner, outer, adam)


def test_config_validation():
    with pytest.raises(ValueError):
        M.InnerConfig(steps=-1)
    with pytest.raises(ValueError):
        M.InnerConfig(lr=0.0)
    with pytest.raises(ValueError):
        M.InnerConfig(update_set="first")
    with pytest.raises(ValueError):
        M.OuterConfig(episodes=0)
    with pytest.raises(ValueError):
        M.OuterConfig(lr=-1.0)


# -- flows of learned fields -------------------------------------------------------


def test_learned_flow_conserves_learned_energy():
    # symplectic-gradient flows conserve their generator, trained or not
    spec = NetworkSpec(2, (8, 8), 1)
    for seed in (0, 1, 2):
        theta = init_params(spec, seed)
        x0 = np.random.default_rng(seed).uniform(-1, 1, 2)
        field = lambda x: fastops.predicted_field(spec, theta, x[None, :])[0]
        traj, t_failure = integrate(field, x0, 1.0, 20, rtol=1e-8, atol=1e-10)
        assert t_failure is None
        traj = np.vstack([x0, traj])
        H = fastops.mlp_forward(spec, theta, traj)[:, 0]
        tol = 10 * (1e-8 * max(1.0, abs(H[0])) + 1e-10)
        assert np.max(np.abs(H - H[0])) < tol


# -- drivers and wiring -------------------------------------------------------------


def test_meta_train_resume_is_exact():
    spec = NetworkSpec(2, (4,), 1)
    theta0 = init_params(spec, 80)
    pool = [spring_task(s, n_points=5) for s in range(100, 112)]
    inner = M.InnerConfig(steps=2)
    seen = []
    full, full_adam = M.meta_train(
        spec, theta0, pool, inner, M.OuterConfig(episodes=4, task_batch=3),
        seed=5, on_episode=lambda ep, loss: seen.append(ep))
    assert seen == [0, 1, 2, 3]
    half, half_adam = M.meta_train(
        spec, theta0, pool, inner, M.OuterConfig(episodes=2, task_batch=3),
        seed=5)
    resumed, _ = M.meta_train(
        spec, half, pool, inner, M.OuterConfig(episodes=4, task_batch=3),
        seed=5, adam=half_adam, start_episode=2)
    np.testing.assert_array_equal(resumed, full)
    again, _ = M.meta_train(
        spec, theta0, pool, inner, M.OuterConfig(episodes=4, task_batch=3),
        seed=5)
    np.testing.assert_array_equal(again, full)


def test_pretrain_single_task_is_plain_training():
    spec = NetworkSpec(2, (4,), 1)
    theta = init_params(spec, 90)
    task = spring_task(91, n_points=6)
    got = M.pretrain(spec, theta, [task], epochs=5, lr=0.01)
    want = theta.copy()
    adam = M.adam_init(theta.size)
    for _ in range(5):
        _, g, _ = fastops.loss_grad(spec, want, task.train_x, task.train_xdot)
        want, adam = M.adam_update(adam, want, g, 0.01)
    np.testing.assert_array_equal(got, want)


def test_pretrain_pooled_loss_decreases():
    spec = NetworkSpec(2, (8,), 1)
    theta = init_params(spec, 92)
    pool = [spring_task(s, n_points=10) for s in range(200, 210)]
    history = []
    M.pretrain(spec, theta, pool, epochs=5, lr=0.005,
               on_step=lambda i, loss: history.append(loss))
    assert len(history) == 50
    assert np.mean(history[-10:]) < np.mean(history[:10])


def test_pretraining_reports_each_step_as_it_happens(monkeypatch):
    # hnn_pretrained's curve rows, and their wall_time, are written as the
    # steps run: step i has made i + 1 loss_grad calls when it is reported
    calls, seen = [], []
    loss_grad = fastops.loss_grad

    def counted(*args):
        calls.append(1)
        return loss_grad(*args)

    monkeypatch.setattr(fastops, "loss_grad", counted)
    learner = M.build_learner("hnn_pretrained", 2, (8,))
    pool = [spring_task(s, n_points=6) for s in range(3)]
    outer = M.OuterConfig(episodes=2, task_batch=2)
    theta, _, steps = M.train_learner(
        learner, init_params(learner.spec, 5), pool, outer, 5,
        on_episode=lambda i, loss: seen.append((i, len(calls))))
    assert steps == len(seen) == len(calls) > len(pool)
    assert seen == [(i, i + 1) for i in range(steps)]


def test_pretrain_budget_default():
    assert M.pretrain_budget(M.OuterConfig(), M.InnerConfig()) == 6000


def test_pretrain_argument_errors():
    spec = NetworkSpec(2, (3,), 1)
    with pytest.raises(ValueError):
        M.pretrain(spec, init_params(spec, 0), [], epochs=1, lr=0.1)
    with pytest.raises(ValueError):
        M.pretrain(spec, init_params(spec, 0), [spring_task(0)], epochs=0,
                   lr=0.1)


def test_build_learner_wiring():
    for kind in LEARNER_KINDS:
        ld = M.build_learner(kind, state_dim=2)
        assert ld.kind == kind
        if kind in ("naive_maml", "naive_anil"):
            assert ld.spec.output_dim == 2
        else:
            assert ld.spec.output_dim == 1
    assert M.build_learner("hanil").inner.update_set == "last"
    assert M.build_learner("hamaml").inner.update_set == "all"
    assert M.build_learner("hanil_inv").inner.update_set == "all_but_first"
    assert M.build_learner("naive_anil").inner.update_set == "last"
    assert M.build_learner("hnn_scratch").training is None
    assert M.build_learner("hnn_pretrained").training == "pretrain"
    assert M.build_learner("hanil").training == "meta"
    kep = M.build_learner("hamaml", state_dim=4)
    assert kep.spec.input_dim == 4
    with pytest.raises(ValueError):
        M.build_learner("reptile")


# -- head space ---------------------------------------------------------------------


def _generic_meta_grad(spec, theta, task, cfg):
    """The second-order meta-gradient by masked descent on `loss_grad` and
    a reverse sweep of each linearization's `hvp`."""
    mask = update_mask(spec, cfg.update_set)
    th, lins = np.array(theta), []
    for _ in range(cfg.steps):
        _, grad, lin = fastops.loss_grad(spec, th, task.train_x,
                                         task.train_xdot)
        lins.append(lin)
        th = th.copy()
        th[mask] -= cfg.lr * grad[mask]
    loss, v, _ = fastops.loss_grad(spec, th, task.test_x, task.test_xdot)
    for lin in reversed(lins):
        v = v - cfg.lr * lin.hvp(mask * v)
    return loss, v, th


@pytest.mark.parametrize("kind", ["hanil", "naive_anil"])
def test_head_space_meta_gradient_matches_generic_path_at_desk_size(kind):
    learner = M.build_learner(kind, 2, (64, 64, 64))
    spec, inner = learner.spec, learner.inner
    theta = init_params(spec, 0)
    for task in make_meta_train("spring_mass", 2, 50, 0):
        th_s, lins = M.inner_adapt(spec, theta, task.train_x,
                                   task.train_xdot, inner)
        assert all(isinstance(lin, fastops.HeadLinearization)
                   for lin in lins)
        loss, g = M._task_meta_grad_fast(spec, theta, task, inner, True)
        want_loss, want, want_s = _generic_meta_grad(spec, theta, task, inner)
        scale = np.abs(want).max()
        assert np.abs(g - want).max() <= 1e-13 * scale
        assert abs(loss - want_loss) <= 1e-13 * want_loss
        assert np.abs(th_s - want_s).max() <= 1e-13 * np.abs(want_s).max()


def _per_step_meta_grad(spec, theta, task, cfg):
    """The second-order meta-gradient by a reverse sweep of one `loss_hvp`
    per inner step on the head-space trace."""
    theta_s, lins = M.inner_adapt(spec, theta, task.train_x,
                                  task.train_xdot, cfg)
    loss, v, _ = fastops.loss_grad(spec, theta_s, task.test_x, task.test_xdot)
    head = layer_slice(spec, spec.n_layers - 1)
    for lin in reversed(lins):
        v = v - cfg.lr * fastops.loss_hvp(lin.features, lin.params[head][None],
                                          task.train_xdot, v[head][None])
    return loss, v


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("steps", [1, 2, 5])
@pytest.mark.parametrize("system,hidden", [
    ("spring_mass", (64, 64, 64)), ("kepler", (7, 5)), ("spring_mass", ()),
])
@pytest.mark.parametrize("kind", ["hanil", "naive_anil"])
def test_head_only_one_pass_meta_gradient_matches_the_per_step_sweep(
        kind, system, hidden, steps, seed):
    learner = M.build_learner(kind, 2 * DOF[system], hidden,
                              M.InnerConfig(steps=steps))
    spec, inner = learner.spec, learner.inner
    theta = init_params(spec, seed)
    task = make_meta_train(system, 1, 50, seed)[0]
    loss, g = M._task_meta_grad_fast(spec, theta, task, inner, True)
    want_loss, want = _per_step_meta_grad(spec, theta, task, inner)
    assert loss == want_loss
    assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()
    if kind == "hanil":
        assert g[-1] == 0.0  # meta-gradient of b_L


@pytest.mark.parametrize("steps,second_order", [(0, True), (0, False),
                                                (5, False)])
def test_hanil_meta_gradient_without_a_sweep_is_the_test_gradient(
        steps, second_order):
    learner = M.build_learner("hanil", 2, (64, 64, 64),
                              M.InnerConfig(steps=steps))
    spec, inner = learner.spec, learner.inner
    theta = init_params(spec, 8)
    task = make_meta_train("spring_mass", 1, 50, 8)[0]
    theta_s, _ = M.inner_adapt(spec, theta, task.train_x, task.train_xdot,
                               inner)
    want_loss, want, _ = fastops.loss_grad(spec, theta_s, task.test_x,
                                           task.test_xdot)
    loss, g = M._task_meta_grad_fast(spec, theta, task, inner, second_order)
    assert loss == want_loss
    np.testing.assert_array_equal(g, want)


@pytest.mark.parametrize("kind,state_dim,hidden", [
    ("hnn", 2, (3,)), ("hnn", 4, (3, 2)), ("naive", 2, (3,)),
    ("naive", 4, (2, 3)),
])
def test_head_space_meta_gradient_matches_tape(kind, state_dim, hidden):
    out = 1 if kind == "hnn" else state_dim
    spec = NetworkSpec(state_dim, hidden, out)
    theta = init_params(spec, 23)
    rng = np.random.default_rng(24)
    task = Task(None, *(rng.uniform(-1, 1, (3, state_dim)) for _ in range(4)))
    cfg = M.InnerConfig(steps=2, lr=0.05, update_set="last")
    lf, gf = M._task_meta_grad_fast(spec, theta, task, cfg, True)
    lg, gg = G._task_meta_grad_graph(spec, theta, task, cfg, True, kind)
    assert abs(lf - lg) < 1e-12 * lg
    np.testing.assert_allclose(gf, gg, rtol=1e-10, atol=1e-13)


def test_head_space_keeps_the_hnn_output_bias_gradient_exactly_zero():
    learner = M.build_learner("hanil", 2, (64, 64))
    spec, inner = learner.spec, learner.inner
    theta = init_params(spec, 5)
    task = make_meta_train("spring_mass", 1, 50, 5)[0]
    _, lins = M.inner_adapt(spec, theta, task.train_x, task.train_xdot,
                            inner)
    for lin in lins:
        assert lin.grad[-1] == 0.0  # adaptation gradient of b_L
    _, g = M._task_meta_grad_fast(spec, theta, task, inner, True)
    assert g[-1] == 0.0  # meta-gradient of b_L
    assert g[:-1].any()


# -- what callers of meta_step may pass, and what it calls ----------------------


@pytest.mark.parametrize("kind", ["hanil", "naive_anil", "hamaml",
                                  "naive_maml", "hanil_inv"])
def test_meta_step_on_unpickled_inputs_is_bit_identical(kind):
    # an unpickled float64 array carries a dtype object of its own, so
    # np.asarray(x, np.float64) is a new view of it: the sweep must read
    # the arrays its linearizations were made at, not the caller's
    learner = M.build_learner(kind, 2, (8, 8))
    spec, inner = learner.spec, learner.inner
    theta = init_params(spec, 3)
    tasks = list(make_meta_train("spring_mass", 3, 10, 3))
    outer = M.OuterConfig(task_batch=3)
    want = M.meta_step(spec, theta, tasks, inner, outer,
                       M.adam_init(theta.size))
    theta2, tasks2 = pickle.loads(pickle.dumps((theta, tasks)))
    got = M.meta_step(spec, theta2, tasks2, inner, outer,
                      M.adam_init(theta.size))
    assert got[2] == want[2]
    assert got[0].tobytes() == want[0].tobytes()


def _kernel_calls(monkeypatch, kind):
    """(calls, tasks, inner): the positional args and result of each call of
    `fastops.loss_hvp`, `fastops.loss_grad`, `Linearization.hvp` and
    `fastops.predicted_field` in one second-order meta_step of `kind` on
    three tasks, followed by a lattice score of a held-out system and a
    short rollout of task 0's system."""
    learner = M.build_learner(kind, 2, (16, 16))
    spec, inner = learner.spec, learner.inner
    theta = init_params(spec, 4)
    tasks = list(make_meta_train("spring_mass", 3, 50, 4))
    held_out, = make_meta_test_suite("spring_mass", "points", 5, 4, 1)
    calls = {"loss_hvp": [], "loss_grad": [], "hvp": [], "predicted_field": []}
    with monkeypatch.context() as patch:
        for name, seen in calls.items():
            owner = fastops.Linearization if name == "hvp" else fastops
            def spy(*args, _real=getattr(owner, name), _seen=seen, **kwargs):
                result = _real(*args, **kwargs)
                _seen.append((args, result))
                return result
            patch.setattr(owner, name, spy)
        M.meta_step(spec, theta, tasks, inner, M.OuterConfig(task_batch=3),
                    M.adam_init(theta.size))
        E.field_mse(spec, theta, held_out)
        E.rollout_eval(spec, theta, tasks[0].params, tasks[0].test_x[0],
                       T_span=1.0, samples=5)
    return calls, tasks, inner


def test_hanil_meta_step_calls_each_traced_kernel_once_per_task_on_x(
        monkeypatch):
    # a traced benchmark run counts the calls of loss_hvp, loss_grad and
    # predicted_field and reads the batch size of each as len(args[2]):
    # loss_grad's X, loss_hvp's labels Xdot and the states predicted_field
    # scores are the third positional argument
    calls, tasks, _ = _kernel_calls(monkeypatch, "hanil")
    assert calls["hvp"] == []
    split = {"loss_hvp": "train_xdot", "loss_grad": "test_x"}
    for name, attr in split.items():
        seen = calls[name]
        assert len(seen) == len(tasks)
        for (args, _), task in zip(seen, tasks):
            assert len(args[2]) == 50
            np.testing.assert_array_equal(args[2], getattr(task, attr))
    fields = calls["predicted_field"]
    assert len(fields) > 1 and len(fields[0][0][2]) == 2500
    for args, field in fields:
        assert len(args[2]) == len(field)
    # a generic second-order learner multiplies through each of its
    # linearizations' hvp and never calls loss_hvp, so that the traced
    # fastops.loss_hvp.* figures describe the head-space trace alone
    calls, tasks, inner = _kernel_calls(monkeypatch, "hamaml")
    assert calls["loss_hvp"] == []
    assert len(calls["hvp"]) == len(tasks) * inner.steps
    want = [x for task in tasks
            for x in [task.train_x] * inner.steps + [task.test_x]]
    assert len(calls["loss_grad"]) == len(want)
    for (args, _), x in zip(calls["loss_grad"], want):
        np.testing.assert_array_equal(args[2], x)
