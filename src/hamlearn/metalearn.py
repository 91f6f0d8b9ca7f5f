"""Bi-level meta-learning: inner adaptation, outer Adam loop, training.

The inner loop runs through the vectorized kernels of `fastops`, and the
meta-gradient is recovered by reverse accumulation over the inner loop's
linearizations, each of which holds its theta_k and multiplies by its own
Hessian (`Linearization.hvp`):

    v = grad L_te(theta_S)
    for k = S-1 .. 0:   v <- v - alpha * H_tr(theta_k) @ (mask * v)

because each inner step theta_{k+1} = theta_k - alpha * mask * g(theta_k)
has transposed Jacobian I - alpha * H * diag(mask).  The tests check it
against the exact derivative of the same bi-level expression built on a
scalar autodiff tape.

A head-only learner (update set "last": hanil, naive_anil) has a field
linear in its last layer, so its inner loss is exactly quadratic there.
For it `adaptation_objective` builds a batch's head features once, and the
inner loop steps in head space.  The head block of every H_tr(theta_k) is
then G = (2/B) phi^T phi, so the masked directions u_k = mask * v_{k+1}
follow u_{k-1} = u_k - alpha * G @ u_k in head space (G multiplies each
column of the last layer's [W; b] block, and u_k stays that block), and

    grad = v_S - alpha * sum_k H_tr(theta_k) @ u_k

takes one `loss_hvp` over the trace's stacked heads: one reverse pass
through the features per task, not one per inner step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import LEARNERS, fastops, seeding
from .network import (UPDATE_SETS, NetworkSpec, hnn_spec, layer_slice,
                      naive_spec, update_mask)

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
        if not 0 < self.lr < np.inf:
            raise ValueError("inner lr must be positive and finite")
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
        if not 0 < self.lr < np.inf:
            raise ValueError("outer lr must be positive and finite")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_init(n_params: int) -> AdamState:
    return AdamState(np.zeros(n_params), np.zeros(n_params), 0)


def adam_update(state: AdamState, params: np.ndarray, grad: np.ndarray,
                lr: float):
    """One bias-corrected Adam step, no weight decay.  An overflow gives
    inf or NaN without a warning, for the caller's guard to report."""
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ValueError("params, grad and moments must share a shape")
    t = state.t + 1
    with np.errstate(over="ignore", invalid="ignore"):
        m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (grad * grad)
        mhat = m / (1.0 - ADAM_BETA1 ** t)
        vhat = v / (1.0 - ADAM_BETA2 ** t)
        return (params - lr * mhat / (np.sqrt(vhat) + ADAM_EPS),
                AdamState(m, v, t))


# -- inner loop -----------------------------------------------------------------


def head_only(update_set: str) -> bool:
    """Whether an update set adapts in head space (the last layer only)."""
    return update_set == "last"


def adaptation_objective(spec: NetworkSpec, theta0, X, Xdot, update_set: str):
    """(sel, fn): theta[sel] is what one adaptation step on (X, Xdot)
    writes, and fn(theta) is (loss, gradient on theta[sel], linearization).
    A head-only update set steps in head space, on features of X built once
    at theta0's body."""
    if head_only(update_set):
        features = fastops.head_features(spec, theta0, X)

        def fn(theta):
            lin = features.linearize(theta, Xdot)
            return lin.loss, lin.grad, lin

        return layer_slice(spec, spec.n_layers - 1), fn
    mask = update_mask(spec, update_set)

    def fn(theta):
        loss, grad, lin = fastops.loss_grad(spec, theta, X, Xdot)
        return loss, grad[mask], lin

    return mask, fn


def inner_adapt(spec: NetworkSpec, theta, X, Xdot, cfg: InnerConfig):
    """cfg.steps steps of masked full-batch gradient descent; returns
    (theta_S, lins), lins[k] the linearization at lins[k].params = theta_k."""
    theta = np.array(theta, np.float64)
    lins = []
    if not cfg.steps:
        return theta, lins
    sel, fn = adaptation_objective(spec, theta, X, Xdot, cfg.update_set)
    for k in range(cfg.steps):
        loss, grad, lin = fn(theta)
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite training loss at inner step {k}")
        lins.append(lin)
        theta = theta.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            theta[sel] -= cfg.lr * grad  # the next guard reports an overflow
    return theta, lins


# -- outer loop -----------------------------------------------------------------


def _task_meta_grad_fast(spec, theta, task, cfg: InnerConfig, second_order):
    theta_s, lins = inner_adapt(spec, theta, task.train_x, task.train_xdot,
                                cfg)
    loss, v, _ = fastops.loss_grad(spec, theta_s, task.test_x, task.test_xdot)
    if not (second_order and lins):
        return loss, v
    if head_only(cfg.update_set):
        # directions in head space, one summed pass (see above)
        head = layer_slice(spec, spec.n_layers - 1)
        features = lins[0].features
        G = features.gram()
        u = v[head].reshape(G.shape[0], -1)
        dirs = np.empty((len(lins), u.size))
        for k in reversed(range(len(lins))):
            dirs[k] = u.ravel()
            u = u - cfg.lr * (G @ u)
        hv = fastops.loss_hvp(features, [lin.params[head] for lin in lins],
                              task.train_xdot, dirs)
        return loss, v - cfg.lr * hv
    maskf = update_mask(spec, cfg.update_set).astype(np.float64)
    for lin in reversed(lins):
        v = v - cfg.lr * lin.hvp(maskf * v)
    return loss, v


def meta_step(spec: NetworkSpec, theta, tasks, inner_cfg: InnerConfig,
              outer_cfg: OuterConfig, adam: AdamState):
    """One outer Adam update on a task batch.

    Returns (theta_new, adam_new, meta_loss) where meta_loss is the sum of
    post-adaptation test losses evaluated before the update.
    """
    if len(tasks) == 0:
        raise ValueError("empty task batch")
    theta = np.asarray(theta, np.float64)
    total_grad = np.zeros_like(theta)
    total_loss = 0.0
    for task in tasks:
        loss, gvec = _task_meta_grad_fast(spec, theta, task, inner_cfg,
                                          outer_cfg.second_order)
        total_loss += loss
        total_grad += gvec
    if not np.isfinite(total_loss) or not np.all(np.isfinite(total_grad)):
        raise FloatingPointError("non-finite meta-gradient")
    theta_new, adam = adam_update(adam, theta, total_grad, outer_cfg.lr)
    return theta_new, adam, float(total_loss)


def meta_train(spec: NetworkSpec, theta, tasks, inner_cfg: InnerConfig,
               outer_cfg: OuterConfig, seed: int, *, adam: AdamState = None,
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
                                      adam)
        if on_episode is not None:
            on_episode(ep, loss)
    return theta, adam


def pretrain_budget(outer_cfg: OuterConfig, inner_cfg: InnerConfig) -> int:
    """Loss-evaluation budget matched to one meta-training run."""
    return outer_cfg.episodes * outer_cfg.task_batch * (inner_cfg.steps + 1)


def pretrain(spec: NetworkSpec, theta, tasks, epochs: int, lr: float,
             on_step=None) -> np.ndarray:
    """Plain Adam on the pooled field loss, one task's train set per step;
    on_step(i, loss) is called as step i completes.

    Visiting tasks round robin makes each step an unbiased minibatch of
    the pooled objective (every task contributes the same point count).
    """
    if len(tasks) == 0:
        raise ValueError("empty task pool")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    theta = np.array(theta, np.float64)
    adam = adam_init(theta.shape[0])
    for step in range(epochs * len(tasks)):
        task = tasks[step % len(tasks)]
        loss, grad, _ = fastops.loss_grad(spec, theta, task.train_x,
                                          task.train_xdot)
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise FloatingPointError("non-finite pretraining loss or "
                                     "gradient")
        theta, adam = adam_update(adam, theta, grad, lr)
        if on_step is not None:
            on_step(step, loss)
    return theta


# -- learner wiring -------------------------------------------------------------


@dataclass(frozen=True)
class LearnerDef:
    kind: str
    spec: NetworkSpec
    inner: InnerConfig
    training: str | None  # hamlearn.LEARNERS' training: meta, pretrain, None


def build_learner(kind: str, state_dim: int = 2, hidden=(64, 64, 64),
                  inner: InnerConfig = None) -> LearnerDef:
    """Wiring for one learner variant from `hamlearn.LEARNERS`: head shape
    (which fixes the loss), inner update set and training."""
    if kind not in LEARNERS:
        raise ValueError(f"unknown learner kind {kind!r}")
    head, update_set, training = LEARNERS[kind]
    spec = (hnn_spec if head == "hnn" else naive_spec)(state_dim, hidden)
    update_mask(spec, update_set)  # refuses a net too shallow for the set
    cfg = replace(inner or InnerConfig(), update_set=update_set)
    return LearnerDef(kind, spec, cfg, training)


def train_learner(learner: LearnerDef, theta, tasks, outer_cfg: OuterConfig,
                  seed: int, *, adam: AdamState = None,
                  start_episode: int = 0, on_episode=None):
    """Train a learner from theta on a task pool; returns (theta, adam,
    episode).

    A "meta" learner runs `meta_train` to outer_cfg.episodes.  A "pretrain"
    learner runs `pretrain` at the outer learning rate for the
    loss-evaluation budget of that meta-training, one round-robin pass per
    epoch, and reports each step's loss to on_episode as the step
    completes; its episode count is the number of steps.  A learner whose
    training is None is not trained.
    """
    if learner.training == "meta":
        theta, adam = meta_train(learner.spec, theta, tasks, learner.inner,
                                 outer_cfg, seed, adam=adam,
                                 start_episode=start_episode,
                                 on_episode=on_episode)
        return theta, adam, outer_cfg.episodes
    theta, steps = np.array(theta, np.float64), 0
    if learner.training == "pretrain":
        epochs = max(1, pretrain_budget(outer_cfg, learner.inner) // len(tasks))
        theta = pretrain(learner.spec, theta, tasks, epochs, outer_cfg.lr,
                         on_episode)
        steps = epochs * len(tasks)
    return theta, adam_init(theta.size), steps
