"""Bi-level meta-learning: field losses, inner adaptation, outer Adam loop.

Two execution lanes share one objective.  The graph lane builds the whole
bi-level computation on the autodiff tape (inner updates become tape
nodes, so the meta-gradient is an exact derivative of the built
expression).  The fast lane runs the same arithmetic through the
vectorized kernels and recovers the identical meta-gradient by reverse
accumulation over the stored inner trajectory:

    v = grad L_te(theta_S)
    for k = S-1 .. 0:   v <- v - alpha * H_tr(theta_k) @ (mask * v)

because each inner step theta_{k+1} = theta_k - alpha * mask * g(theta_k)
has transposed Jacobian I - alpha * H * diag(mask).

A head-only learner (update set "last": hanil, naive_anil) has a field
linear in its last layer, so its inner loss is exactly quadratic there.
Its inner loop builds the batch's head features once (`fastops.head_features`)
and steps in head space; the reverse sweep is the same loop, with each
`loss_hvp` running on a head-space linearization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fastops, seeding
from . import tape as T
from .network import (UPDATE_SETS, NetworkSpec, _tree_sum, forward_graph,
                      hnn_spec, layer_slice, naive_spec, update_mask)

LEARNER_KINDS = ("hnn_scratch", "hnn_pretrained", "naive_maml", "naive_anil",
                 "hamaml", "hanil", "hanil_inv")

# learner kinds whose head is a scalar Hamiltonian
_HNN_KINDS = ("hnn_scratch", "hnn_pretrained", "hamaml", "hanil", "hanil_inv")
_META_KINDS = ("naive_maml", "naive_anil", "hamaml", "hanil", "hanil_inv")

_UPDATE_FOR = {
    "hamaml": "all", "hanil": "last", "hanil_inv": "all_but_first",
    "naive_maml": "all", "naive_anil": "last",
    "hnn_scratch": "all", "hnn_pretrained": "all",
}

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class InnerConfig:
    """Task-level adaptation: full-batch gradient descent on the train set."""
    steps: int = 5
    lr: float = 0.002
    update_set: str = "all"

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not self.lr > 0:
            raise ValueError("inner lr must be positive")
        if self.update_set not in UPDATE_SETS:
            raise ValueError(f"unknown update set {self.update_set!r}")


@dataclass(frozen=True)
class OuterConfig:
    episodes: int = 100
    task_batch: int = 10
    lr: float = 0.001
    second_order: bool = True

    def __post_init__(self):
        if self.episodes < 1 or self.task_batch < 1:
            raise ValueError("episodes and task_batch must be >= 1")
        if not self.lr > 0:
            raise ValueError("outer lr must be positive")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_init(n_params: int) -> AdamState:
    return AdamState(np.zeros(n_params), np.zeros(n_params), 0)


def adam_update(state: AdamState, params: np.ndarray, grad: np.ndarray,
                lr: float):
    """One bias-corrected Adam step, no weight decay."""
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ValueError("params, grad and moments must share a shape")
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (grad * grad)
    mhat = m / (1.0 - ADAM_BETA1 ** t)
    vhat = v / (1.0 - ADAM_BETA2 ** t)
    return params - lr * mhat / (np.sqrt(vhat) + ADAM_EPS), AdamState(m, v, t)


# -- graph-lane losses ----------------------------------------------------------


def _residual_mean(g: T.Graph, pred_ids: np.ndarray, Xdot) -> int:
    """Node for mean-over-rows squared error between predictions and labels."""
    Xdot = np.atleast_2d(np.asarray(Xdot, np.float64))
    if Xdot.shape != pred_ids.shape:
        raise ValueError("label shape does not match predictions")
    lab = g.leaf_many(Xdot.ravel())
    res = g.apply_many(T.SUB, pred_ids.ravel(), lab)
    total = _tree_sum(g, g.apply_many(T.SQUARE, res))
    return g.apply(T.MUL, total, g.constant(1.0 / Xdot.shape[0]))


def hnn_loss_from_H(g: T.Graph, h_ids, x_ids: np.ndarray, Xdot) -> int:
    """Field-matching loss given per-sample energy nodes h_ids built on x_ids.

    Differentiates sum(H_b) w.r.t. all inputs in one sweep (rows are
    independent, so the slice for row b is dH_b/dx_b), rotates the
    gradient through Omega, and penalizes the mean squared residual
    against the labels.  The emitted gradient nodes keep the result
    differentiable w.r.t. anything upstream, parameters included.
    """
    x_ids = np.asarray(x_ids, np.int64)
    n = x_ids.shape[1] // 2
    total_h = _tree_sum(g, np.asarray(h_ids, np.int64).ravel())
    dh = g.backward(total_h, x_ids.ravel()).reshape(x_ids.shape)
    neg_dq = g.apply_many(T.NEG, dh[:, :n].ravel()).reshape(-1, n)
    pred = np.concatenate([dh[:, n:], neg_dq], axis=1)
    return _residual_mean(g, pred, Xdot)


def hnn_loss(g: T.Graph, spec: NetworkSpec, param_ids, X, Xdot) -> int:
    """Loss node: mean ||xdot - Omega dH/dx||^2 with H the network output."""
    if spec.output_dim != 1:
        raise ValueError("hnn loss needs a scalar-output network")
    X = np.atleast_2d(np.asarray(X, np.float64))
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    if X.shape[1] != spec.input_dim or X.shape[1] % 2 != 0:
        raise ValueError("state dimension does not match the network")
    x_ids = g.leaf_many(X.ravel()).reshape(X.shape)
    h_ids = forward_graph(g, spec, param_ids, x_ids)[:, 0]
    return hnn_loss_from_H(g, h_ids, x_ids, Xdot)


def naive_loss(g: T.Graph, spec: NetworkSpec, param_ids, X, Xdot) -> int:
    """Loss node: mean ||xdot - net(x)||^2 for a field-valued network."""
    if spec.output_dim != spec.input_dim:
        raise ValueError("naive loss needs output_dim == input_dim")
    X = np.atleast_2d(np.asarray(X, np.float64))
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    x_ids = g.leaf_many(X.ravel()).reshape(X.shape)
    pred = forward_graph(g, spec, param_ids, x_ids)
    return _residual_mean(g, pred, Xdot)


GRAPH_LOSSES = {"hnn": hnn_loss, "naive": naive_loss}


# -- inner loop -----------------------------------------------------------------


def _loss_grad_fn(spec, X, Xdot, loss_kind):
    """theta -> (loss, grad, linearization or None)."""
    if callable(loss_kind):
        return lambda th: (*loss_kind(th), None)
    if loss_kind not in GRAPH_LOSSES:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    return lambda th: fastops.loss_grad(spec, th, X, Xdot, loss_kind)


def _adapt(spec, theta, X, Xdot, cfg: InnerConfig, loss_kind):
    """Masked gradient descent; returns (theta_S, [(theta_k, linearization
    at theta_k) for k = 0 .. S-1]).

    A head-only learner (update set "last", a named loss kind) descends in
    head space: the features of X are built once at theta_0, and each step
    is w <- w - lr * (2/B) sum_j phi_j^T R_j on them.
    """
    theta = np.array(theta, np.float64)
    if cfg.steps and cfg.update_set == "last" and not callable(loss_kind):
        features = fastops.head_features(spec, theta, X, loss_kind)

        def fn(th):
            lin = features.linearize(th, Xdot)
            return lin.loss, lin.grad, lin

        # the gradient covers the last layer only
        sel, part = layer_slice(spec, spec.n_layers - 1), slice(None)
    else:
        fn = _loss_grad_fn(spec, X, Xdot, loss_kind)
        sel = part = update_mask(spec, cfg.update_set)
    trace = []
    for k in range(cfg.steps):
        loss, grad, lin = fn(theta)
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite training loss at inner step {k}")
        trace.append((theta, lin))
        theta = theta.copy()
        theta[sel] -= cfg.lr * grad[part]
    return theta, trace


def inner_adapt(spec: NetworkSpec, theta, X, Xdot, cfg: InnerConfig,
                loss_kind="hnn") -> np.ndarray:
    """Adapted parameters after cfg.steps full-batch descent steps."""
    return _adapt(spec, theta, X, Xdot, cfg, loss_kind)[0]


def inner_adapt_graph(g: T.Graph, spec: NetworkSpec, param_ids, X, Xdot,
                      cfg: InnerConfig, loss_kind="hnn") -> np.ndarray:
    """Inner loop built on the tape; returned ids stay differentiable."""
    ids = np.asarray(param_ids, np.int64).copy()
    mask = update_mask(spec, cfg.update_set)
    loss_fn = GRAPH_LOSSES[loss_kind]
    for k in range(cfg.steps):
        loss_id = loss_fn(g, spec, ids, X, Xdot)
        if not np.isfinite(g.value(loss_id)):
            raise FloatingPointError(f"non-finite training loss at inner step {k}")
        grads = g.backward(loss_id, ids)
        upd = ids[mask]
        scale = np.full(upd.shape, g.constant(cfg.lr), np.int64)
        step = g.apply_many(T.MUL, grads[mask], scale)
        ids[mask] = g.apply_many(T.SUB, upd, step)
    return ids


# -- outer loop -----------------------------------------------------------------


def _task_meta_grad_fast(spec, theta, task, cfg: InnerConfig, second_order,
                         loss_kind):
    theta_s, trace = _adapt(spec, theta, task.train_x, task.train_xdot,
                            cfg, loss_kind)
    loss, v, _ = fastops.loss_grad(spec, theta_s, task.test_x, task.test_xdot,
                                   loss_kind)
    if second_order and trace:
        maskf = update_mask(spec, cfg.update_set).astype(np.float64)
        for theta_k, lin in reversed(trace):
            _, _, hv = fastops.loss_hvp(spec, theta_k, task.train_x,
                                        task.train_xdot, maskf * v, loss_kind,
                                        lin)
            v = v - cfg.lr * hv
    return loss, v


def _task_meta_grad_graph(spec, theta, task, cfg: InnerConfig, second_order,
                          loss_kind):
    g = T.Graph()
    ids0 = g.leaf_many(theta)
    ids_s = inner_adapt_graph(g, spec, ids0, task.train_x, task.train_xdot,
                              cfg, loss_kind)
    if not second_order:
        # stop-gradient at the adapted point: restart from fresh leaves
        ids_s = g.leaf_many(g.values(ids_s))
        ids0 = ids_s
    test_id = GRAPH_LOSSES[loss_kind](g, spec, ids_s,
                                      task.test_x, task.test_xdot)
    return g.value(test_id), g.grad_values(test_id, ids0)


def meta_step(spec: NetworkSpec, theta, tasks, inner_cfg: InnerConfig,
              outer_cfg: OuterConfig, adam: AdamState, *, loss_kind="hnn",
              backend="fast", optimizer="adam"):
    """One outer update on a task batch.

    Returns (theta_new, adam_new, meta_loss) where meta_loss is the sum of
    post-adaptation test losses evaluated before the update.
    """
    if len(tasks) == 0:
        raise ValueError("empty task batch")
    if backend == "fast":
        task_grad = _task_meta_grad_fast
    elif backend == "graph":
        task_grad = _task_meta_grad_graph
    else:
        raise ValueError(f"unknown backend {backend!r}")
    theta = np.asarray(theta, np.float64)
    total_grad = np.zeros_like(theta)
    total_loss = 0.0
    for task in tasks:
        loss, gvec = task_grad(spec, theta, task, inner_cfg,
                               outer_cfg.second_order, loss_kind)
        total_loss += loss
        total_grad += gvec
    if not np.isfinite(total_loss) or not np.all(np.isfinite(total_grad)):
        raise FloatingPointError("non-finite meta-gradient")
    if optimizer == "adam":
        theta_new, adam = adam_update(adam, theta, total_grad, outer_cfg.lr)
    elif optimizer == "sgd":
        theta_new = theta - outer_cfg.lr * total_grad
    else:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    return theta_new, adam, float(total_loss)


def meta_train(spec: NetworkSpec, theta, tasks, inner_cfg: InnerConfig,
               outer_cfg: OuterConfig, seed: int, *, adam: AdamState = None,
               loss_kind="hnn", backend="fast", optimizer="adam",
               start_episode: int = 0, on_episode=None):
    """Episode loop: each episode draws task_batch tasks from the pool
    without replacement and applies one meta_step.  The draw for episode
    e depends only on (seed, e), so a run can resume mid-stream."""
    theta = np.asarray(theta, np.float64)
    if adam is None:
        adam = adam_init(theta.shape[0])
    for ep in range(start_episode, outer_cfg.episodes):
        rng = seeding.split(seed, seeding.EPISODE, ep)
        k = min(outer_cfg.task_batch, len(tasks))
        batch = [tasks[i] for i in rng.choice(len(tasks), size=k, replace=False)]
        theta, adam, loss = meta_step(spec, theta, batch, inner_cfg, outer_cfg,
                                      adam, loss_kind=loss_kind,
                                      backend=backend, optimizer=optimizer)
        if on_episode is not None:
            on_episode(ep, loss)
    return theta, adam


def pretrain_budget(outer_cfg: OuterConfig, inner_cfg: InnerConfig) -> int:
    """Loss-evaluation budget matched to one meta-training run."""
    return outer_cfg.episodes * outer_cfg.task_batch * (inner_cfg.steps + 1)


def pretrain(spec: NetworkSpec, theta, tasks, epochs: int, lr: float,
             history=None) -> np.ndarray:
    """Plain Adam on the pooled field loss, one task's train set per step.

    Visiting tasks round robin makes each step an unbiased minibatch of
    the pooled objective (every task contributes the same point count).
    """
    if len(tasks) == 0:
        raise ValueError("empty task pool")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    theta = np.array(theta, np.float64)
    adam = adam_init(theta.shape[0])
    for _ in range(epochs):
        for task in tasks:
            loss, grad, _ = fastops.loss_grad(spec, theta, task.train_x,
                                              task.train_xdot, "hnn")
            if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
                raise FloatingPointError("non-finite pretraining loss or "
                                         "gradient")
            if history is not None:
                history.append(loss)
            theta, adam = adam_update(adam, theta, grad, lr)
    return theta


# -- learner wiring -------------------------------------------------------------


@dataclass(frozen=True)
class LearnerDef:
    kind: str
    spec: NetworkSpec
    inner: InnerConfig
    loss_kind: str
    meta_trained: bool
    pretrained: bool


def build_learner(kind: str, state_dim: int = 2, hidden=(64, 64, 64),
                  inner: InnerConfig = None) -> LearnerDef:
    """Wiring for one learner variant: head shape, loss, inner update set."""
    if kind not in LEARNER_KINDS:
        raise ValueError(f"unknown learner kind {kind!r}")
    is_hnn = kind in _HNN_KINDS
    spec = hnn_spec(state_dim, hidden) if is_hnn else naive_spec(state_dim, hidden)
    cfg = replace(inner or InnerConfig(), update_set=_UPDATE_FOR[kind])
    return LearnerDef(kind, spec, cfg, "hnn" if is_hnn else "naive",
                      meta_trained=kind in _META_KINDS,
                      pretrained=kind == "hnn_pretrained")
