"""The model on the tape: networks, field losses, inner loop, Hamiltonians.

Every quantity here is a tape expression, so its derivatives of any order
come from `Graph.backward`.  The inner loop's updates become tape nodes,
so `_task_meta_grad_graph` is the exact derivative of the built bi-level
expression, the reference for `metalearn._task_meta_grad_fast`.
`hamiltonian_graph` repeats the formulas of `physics.hamiltonian_many`
with tape ops only, so Omega times its gradient is an independent route
to `physics.true_field_many`.
"""

from __future__ import annotations

import numpy as np

from hamlearn.metalearn import InnerConfig
from hamlearn.network import (NetworkSpec, _block_layout, param_count,
                              update_mask)
from hamlearn.physics import (GRAV_ACC, GRAV_CONST, PhysicalParams,
                              omega_apply)

from . import tape as T

# -- network ------------------------------------------------------------------


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
                  input_ids: np.ndarray,
                  activation: str = "softplus") -> np.ndarray:
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
    layout = _block_layout(spec)
    for l, (o, fi, fo) in enumerate(layout):
        w_ids = param_ids[o : o + fi * fo].reshape(fi, fo)
        b_ids = param_ids[o + fi * fo : o + (fi + 1) * fo]
        # products (B, fi, fo), summed over fi, plus bias
        aa = np.broadcast_to(a[:, :, None], (B, fi, fo))
        ww = np.broadcast_to(w_ids[None, :, :], (B, fi, fo))
        prod = g.apply_many(T.MUL, aa.ravel(), ww.ravel()).reshape(B, fi, fo)
        z = _tree_sum(g, np.swapaxes(prod, 1, 2))  # (B, fo)
        z = g.apply_many(T.ADD, z.ravel(),
                         np.broadcast_to(b_ids[None, :], (B, fo)).ravel()).reshape(B, fo)
        a = _activate(g, z, activation) if l < len(layout) - 1 else z
    return a


# -- field losses ---------------------------------------------------------------


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


# -- bi-level objective ---------------------------------------------------------


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


# -- closed-form Hamiltonians ---------------------------------------------------


def hamiltonian_graph(g: T.Graph, params: PhysicalParams, x_ids) -> int:
    """Build the closed-form H on the tape; returns the output node id.

    x_ids are 2n node ids [q..., p...].  This duplicates the formulas in
    `hamiltonian_many` using tape ops only, so Omega * backward() of this
    node can be compared against `true_field_many`.
    """
    x_ids = np.asarray(x_ids, np.int64).ravel()
    n = params.n
    if x_ids.shape[0] != 2 * n:
        raise ValueError("state id count mismatch")
    v = params.values
    q_ids, p_ids = x_ids[:n], x_ids[n:]
    if params.system == "spring_mass":
        kin = g.apply(T.DIV, g.apply(T.SQUARE, int(p_ids[0])),
                      g.constant(2 * v["m"]))
        d = g.apply(T.SUB, int(q_ids[0]), g.constant(v["q0"]))
        pot = g.apply(T.MUL, g.constant(v["k"] / 2), g.apply(T.SQUARE, d))
        return g.apply(T.ADD, kin, pot)
    if params.system == "pendulum":
        kin = g.apply(T.DIV, g.apply(T.SQUARE, int(p_ids[0])),
                      g.constant(2 * v["m"] * v["l"] ** 2))
        d = g.apply(T.SUB, int(q_ids[0]), g.constant(v["q0"]))
        one_minus_cos = g.apply(T.SUB, g.constant(1.0), g.apply(T.COS, d))
        pot = g.apply(T.MUL, g.constant(v["m"] * GRAV_ACC * v["l"]), one_minus_cos)
        return g.apply(T.ADD, kin, pot)
    # kepler: |q - q0| via exp(log(.)/2) since the op set has no sqrt
    p2 = g.apply(T.ADD, g.apply(T.SQUARE, int(p_ids[0])),
                 g.apply(T.SQUARE, int(p_ids[1])))
    kin = g.apply(T.DIV, p2, g.constant(2 * v["m"]))
    dx = g.apply(T.SUB, int(q_ids[0]), g.constant(v["q0x"]))
    dy = g.apply(T.SUB, int(q_ids[1]), g.constant(v["q0y"]))
    r2 = g.apply(T.ADD, g.apply(T.SQUARE, dx), g.apply(T.SQUARE, dy))
    r = g.apply(T.EXP, g.apply(T.MUL, g.constant(0.5), g.apply(T.LOG, r2)))
    pot = g.apply(T.DIV, g.constant(GRAV_CONST * v["M"] * v["m"]), r)
    return g.apply(T.SUB, kin, pot)


def graph_field(params: PhysicalParams, x) -> np.ndarray:
    """Omega * (tape gradient of the tape-built H); cross-check route."""
    x = np.asarray(x, np.float64).ravel()
    g = T.Graph()
    x_ids = g.leaf_many(x)
    h = hamiltonian_graph(g, params, x_ids)
    grad = g.values(g.backward(h, x_ids))
    return omega_apply(grad)
