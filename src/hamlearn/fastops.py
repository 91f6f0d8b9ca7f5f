"""Vectorized kernels for softplus MLP losses and their derivatives.

They are hand-derived closed forms, written in plain numpy over the
per-layer [W; b] views of `network.unpack_blocks`.  The tests cross-check
them against a scalar autodiff tape and against finite differences:

- ``mlp_forward``: batched forward pass.
- ``predicted_field``: the learner's field.  For the Hamiltonian loss it
  is Omega * dH/dx, obtained by backpropagating the scalar output to the
  inputs (one reverse recurrence per batch).
- ``loss_grad``: the primal+adjoint pass.  It returns the batch loss, its
  parameter gradient and a `Linearization` holding the forward state
  (activations A, sigmoids S) and, for the Hamiltonian loss, the
  input-gradient recurrence (U, V) and every layer's adjoints.  For the
  Hamiltonian loss the forward quantity already contains a reverse sweep,
  so its gradient is a second reverse sweep over both phases.
- ``Linearization.hvp``: the tangent pass, Pearlmutter's R-op (Pearlmutter
  1994, "Fast exact multiplication by the Hessian") applied to that
  record: the tangent of every statement of the primal+adjoint pass,
  whose gradient tangent is exactly H @ vec, the one array it returns.  A
  term fed only by an exactly-zero block of ``vec`` is skipped (its value
  would be an exact zero), so a direction confined to the output layer
  runs no forward tangent below it.
- ``head_features``: the head-space path of learners that adapt only the
  last layer.  The field is linear in that layer, F = phi . head, so the
  features phi of a batch are built once (for the Hamiltonian loss, 2n
  forward-mode input tangents through the body, Omega folded in) and
  `HeadFeatures.linearize` gives the loss and the last-layer gradient at
  any head for the cost of a matrix-vector product.
  ``loss_hvp`` takes the features, the labels and (S, m) stacks of one
  inner loop's heads and directions in the last layer's [W; b] block, and
  returns the exact sum_k H(theta_k) @ vec_k: the head block from phi,
  the body by one reverse pass through the construction of phi, which is
  linear in the steps' summed adjoints of phi.  `HeadFeatures.gram` is
  the head block of H, the same at every head.

Each public wrapper runs its kernel with numpy's floating-point warnings
silenced; callers detect a non-finite result and raise
`FloatingPointError`.  Batch layout: X is (B, 2n) rows [q..., p...].
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .network import NetworkSpec, layer_slice, param_count, unpack_blocks
from .physics import omega_apply


def _quiet(fn):
    """Run `fn` with numpy's floating-point warnings off.  A fresh errstate
    per call keeps nested wrappers correct on numpy 1.x as well."""
    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn(*args, **kwargs)
    return quiet


# Fields are evaluated in blocks of this many rows to bound their memory.
# On a 2-core Xeon, hnn (64,64,64), heap thresholds as `__main__` sets them,
# unblocking gained no speed: predicted_field took 8.3-10.7 ms at 2,500 rows
# (blocked: 6.6-10.1) and 40.0-46.2 ms at 10^4 (28.9-41.0), while its peak
# RSS grew by 16 and 55 MB instead of 1, and head_features with
# keep_state=False took 72 ms instead of 38 at 10^4 rows.
_ROW_BLOCK = 128


def _check(spec: NetworkSpec, params, X):
    """(params, per-layer [W; b] blocks, X) as float64 arrays."""
    params = np.asarray(params, np.float64)
    blocks = unpack_blocks(spec, params)  # checks the length
    X = np.atleast_2d(np.asarray(X, np.float64))
    if X.shape[1] != spec.input_dim:
        raise ValueError("input dim mismatch")
    return params, blocks, X


def _loss(spec: NetworkSpec) -> str:
    """The loss the head's width fixes: "hnn" for a scalar Hamiltonian,
    whose field is Omega dH/dx, "naive" for a head that is the field."""
    if spec.output_dim == 1:
        return "hnn"
    if spec.output_dim == spec.input_dim:
        return "naive"
    raise ValueError(f"a head of width {spec.output_dim} is neither a "
                     f"Hamiltonian (1) nor a field ({spec.input_dim})")


def _softplus_sigmoid(z, out):
    """Write softplus(z) into `out` and return sigmoid(z), both from one
    t = exp(-|z|)."""
    t = np.exp(-np.abs(z))
    r = 1.0 / (1.0 + t)
    np.add(np.maximum(z, 0.0), np.log1p(t), out=out)
    return np.where(z >= 0.0, r, t * r)


def _with_ones(B, n):
    """(B, n + 1) buffer whose last column is 1."""
    a = np.empty((B, n + 1))
    a[:, -1] = 1.0
    return a


def _forward(blocks, X):
    """Inputs and hidden activations, each with a trailing column of ones
    (A[0] = [X, 1]), and the hidden sigmoids; indexed by layer."""
    A, S = [_with_ones(*X.shape)], [None]
    A[0][:, :-1] = X
    for P in blocks[:-1]:
        A.append(_with_ones(X.shape[0], P.shape[1]))
        S.append(_softplus_sigmoid(A[-2] @ P, out=A[-1][:, :-1]))
    return A, S


def _by_rows(kernel, blocks, X, axis=0):
    """kernel(blocks, X) evaluated one row block at a time; rows run along
    `axis` of the result.  Each block is copied out before the next one is
    computed, so the blocks' temporaries reuse the same memory."""
    if X.shape[0] <= _ROW_BLOCK:
        return kernel(blocks, X)
    out = None
    for i in range(0, X.shape[0], _ROW_BLOCK):
        part = kernel(blocks, X[i : i + _ROW_BLOCK])
        if out is None:
            out = np.empty(part.shape[:axis] + (X.shape[0],)
                           + part.shape[axis + 1 :])
        np.moveaxis(out, axis, 0)[i : i + _ROW_BLOCK] = \
            np.moveaxis(part, axis, 0)
    return out


def _input_grad(blocks, S, B):
    """(U, V): dH/dz_l and dH/da_l on B rows by the reverse recurrence
    u_L = 1, v_{l-1} = u_l W_l^T, u_{l-1} = v_{l-1} * s_{l-1}; V[0] = dH/dx."""
    L = len(blocks)
    U, V = [None] * (L + 1), [None] * L
    U[L] = np.ones((B, 1))
    V[L - 1] = np.broadcast_to(blocks[-1][:-1].T, (B, blocks[-1].shape[0] - 1))
    for l in range(L - 1, 0, -1):
        U[l] = V[l] * S[l]
        V[l - 1] = U[l] @ blocks[l - 1][:-1].T
    return U, V


def _hnn_field(blocks, X):
    _, S = _forward(blocks, X)
    return omega_apply(_input_grad(blocks, S, X.shape[0])[1][0])


def _mlp(blocks, X):
    A, _ = _forward(blocks, X)
    return A[-1] @ blocks[-1]


_FIELD = {"hnn": _hnn_field, "naive": _mlp}

# Tangent-pass arithmetic in which None stands for an exact zero array.


def _sum(*terms):
    out = None
    for t in terms:
        if t is not None:
            out = t if out is None else out + t
    return out


def _mul(a, b):
    return None if a is None or b is None else a * b


def _mm(a, b):
    return None if a is None or b is None else a @ b


def _t(a):
    return None if a is None else a.T


def _tangent_blocks(spec, vec):
    """Per-layer [dW; db] blocks of `vec` (None where exactly zero), and
    their dW parts."""
    dP = [P if P.any() else None for P in unpack_blocks(spec, vec)]
    return dP, [None if P is None else P[:-1] for P in dP]


class Linearization(NamedTuple):
    """State of one primal+adjoint pass at its params and batch X, which
    `hvp` reuses for tangent passes.  Per-layer lists are indexed by
    layer l = 1..L; blocks[l - 1] is layer l's [W; b].
    """
    spec: NetworkSpec
    params: np.ndarray
    X: np.ndarray
    loss: float
    grad: np.ndarray
    blocks: list      # views into `params`
    A: list           # [a_l, 1]; A[0] = [X, 1]
    S: list           # sigmoid(z_l) of the hidden layers
    barz: list        # adjoint of z_l
    bara: list        # adjoint of a_l through the forward recurrence
    SP: list = None   # hnn: sigmoid'(z_l)
    U: list = None    # hnn: dH/dz_l
    V: list = None    # hnn: dH/da_l; V[0] = dH/dx
    barv: list = None  # hnn: adjoint of V[l]
    baru: list = None  # hnn: adjoint of U[l]

    @_quiet
    def hvp(self, vec) -> np.ndarray:
        """H @ vec, where H is the loss Hessian in params at this
        linearization's params and batch; only the tangent pass runs."""
        vec = np.asarray(vec, np.float64)
        if vec.shape != self.grad.shape:
            raise ValueError("a direction not the length of the gradient")
        return _TANGENT[_loss(self.spec)](self, vec)


# -- Hamiltonian (hnn) loss ----------------------------------------------------


def _hnn_linearize(spec, params, blocks, X, Xdot):
    L = len(blocks)
    B = X.shape[0]
    W = [P[:-1] for P in blocks]
    A, S = _forward(blocks, X)
    U, V = _input_grad(blocks, S, B)
    R = omega_apply(V[0]) - Xdot
    loss = float(np.sum(R * R) / B)

    grad = np.zeros(params.shape[0])
    G = unpack_blocks(spec, grad)
    SP, barv, baru = [None] * L, [None] * L, [None] * L
    barz, bara = [None] * L, [None] * L
    barv[0] = -omega_apply((2.0 / B) * R)  # adjoint of dH/dx
    # phase A: adjoints through the input-gradient recurrence (l ascending)
    for l in range(1, L + 1):
        np.matmul(barv[l - 1].T, U[l], out=G[l - 1][:-1])
        if l < L:
            s = S[l]
            baru[l] = barv[l - 1] @ W[l - 1]
            SP[l] = s * (1.0 - s)
            barz[l] = baru[l] * V[l] * SP[l]  # completed in phase B
            barv[l] = baru[l] * s
    # phase B: adjoints through the forward recurrence (l descending)
    for l in range(L - 1, 0, -1):
        if l < L - 1:
            barz[l] = barz[l] + bara[l] * S[l]
        G[l - 1] += A[l - 1].T @ barz[l]
        if l > 1:
            bara[l - 1] = barz[l] @ W[l - 1].T
    return Linearization(spec, params, X, loss, grad, blocks, A, S, barz,
                         bara, SP, U, V, barv, baru)


def _hnn_tangent(lin: Linearization, vec):
    A, S, SP, U, V = lin.A, lin.S, lin.SP, lin.U, lin.V
    L = len(lin.blocks)
    B = lin.X.shape[0]
    W = [P[:-1] for P in lin.blocks]
    dP, dW = _tangent_blocks(lin.spec, vec)
    dA, dS = [None] * L, [None] * L
    for l in range(1, L):
        dz = _sum(_mm(dA[l - 1], W[l - 1]), _mm(A[l - 1], dP[l - 1]))
        dS[l] = _mul(SP[l], dz)
        dA[l] = _mul(S[l], dz)
    dU, dV = [None] * (L + 1), [None] * L
    if dW[L - 1] is not None:
        dV[L - 1] = np.broadcast_to(dW[L - 1].T, V[L - 1].shape)
    for l in range(L - 1, 0, -1):
        dU[l] = _sum(_mul(dV[l], S[l]), _mul(V[l], dS[l]))
        dV[l - 1] = _sum(_mm(dU[l], W[l - 1].T), _mm(U[l], _t(dW[l - 1])))

    hvp = np.zeros(lin.params.shape[0])
    H = unpack_blocks(lin.spec, hvp)
    dbarv = (None if dV[0] is None
             else -omega_apply((2.0 / B) * omega_apply(dV[0])))
    dbarz = [None] * L
    for l in range(1, L + 1):
        hW = _sum(_mm(_t(dbarv), U[l]), _mm(lin.barv[l - 1].T, dU[l]))
        if hW is not None:
            H[l - 1][:-1] = hW
        if l < L:
            s, ds, baru, v = S[l], dS[l], lin.baru[l], V[l]
            dbaru = _sum(_mm(dbarv, W[l - 1]), _mm(lin.barv[l - 1], dW[l - 1]))
            dsp = None if ds is None else (1.0 - 2.0 * s) * ds
            dbarz[l] = _sum(_mul(_mul(dbaru, v), SP[l]),
                            _mul(_mul(baru, dV[l]), SP[l]),
                            _mul(baru * v, dsp))
            dbarv = _sum(_mul(dbaru, s), _mul(baru, ds))
    dbara = None
    for l in range(L - 1, 0, -1):
        dbz = _sum(dbarz[l], _mul(dbara, S[l]), _mul(lin.bara[l], dS[l]))
        if dbz is not None:
            H[l - 1] += A[l - 1].T @ dbz
        if dA[l - 1] is not None:
            H[l - 1][:-1] += dA[l - 1].T @ lin.barz[l]
        if l > 1:
            dbara = _sum(_mm(dbz, W[l - 1].T), _mm(lin.barz[l], _t(dW[l - 1])))
    return hvp


# -- naive (direct field) loss -------------------------------------------------


def _naive_linearize(spec, params, blocks, X, Xdot):
    L = len(blocks)
    B = X.shape[0]
    A, S = _forward(blocks, X)
    R = A[-1] @ blocks[-1] - Xdot
    loss = float(np.sum(R * R) / B)
    grad = np.zeros(params.shape[0])
    G = unpack_blocks(spec, grad)
    barz, bara = [None] * (L + 1), [None] * L
    barz[L] = (2.0 / B) * R
    for l in range(L, 0, -1):
        np.matmul(A[l - 1].T, barz[l], out=G[l - 1])
        if l > 1:
            bara[l - 1] = barz[l] @ blocks[l - 1][:-1].T
            barz[l - 1] = bara[l - 1] * S[l - 1]
    return Linearization(spec, params, X, loss, grad, blocks, A, S, barz,
                         bara)


def _naive_tangent(lin: Linearization, vec):
    A, S = lin.A, lin.S
    L = len(lin.blocks)
    B = lin.X.shape[0]
    W = [P[:-1] for P in lin.blocks]
    dP, dW = _tangent_blocks(lin.spec, vec)
    dA, dS = [None] * L, [None] * L
    for l in range(1, L + 1):
        dz = _sum(_mm(dA[l - 1], W[l - 1]), _mm(A[l - 1], dP[l - 1]))
        if l < L and dz is not None:
            s = S[l]
            dS[l] = s * (1.0 - s) * dz
            dA[l] = s * dz
    hvp = np.zeros(lin.params.shape[0])
    H = unpack_blocks(lin.spec, hvp)
    dbarz = None if dz is None else (2.0 / B) * dz
    for l in range(L, 0, -1):
        if dbarz is not None:
            np.matmul(A[l - 1].T, dbarz, out=H[l - 1])
        if dA[l - 1] is not None:
            H[l - 1][:-1] += dA[l - 1].T @ lin.barz[l]
        if l > 1:
            dbara = _sum(_mm(dbarz, W[l - 1].T), _mm(lin.barz[l], _t(dW[l - 1])))
            dbarz = _sum(_mul(dbara, S[l - 1]), _mul(lin.bara[l - 1], dS[l - 1]))
    return hvp


# -- head space ----------------------------------------------------------------
#
# When only the last layer adapts, the field is linear in that layer:
#   hnn:   F[b, j] = phi[j, b] @ w_L, where phi[j, b] is the input tangent
#          da_{L-1}/dx_i of the coordinate i that Omega maps onto output j,
#          with Omega's sign; b_L drops out of the field.
#   naive: F = phi @ [W_L; b_L] with phi = [a_{L-1}, 1].
# phi depends on the body alone, so a head-only learner builds it once per
# batch and takes every inner step in head space.


def _hnn_features(blocks, X):
    """(phi, A, S, TZ, T): TZ[l] and T[l] are the (2n, B, h_l) tangents of
    z_l and a_l along the rows of Omega, and phi is T[L-1]."""
    A, S = _forward(blocks, X)
    L = len(blocks)
    B, d = X.shape
    TZ, T = [None] * L, [None] * L
    for l in range(1, L):
        if l == 1:
            W1 = omega_apply(blocks[0][:-1].T).T  # Omega @ W_1
            TZ[l] = np.broadcast_to(W1[:, None, :], (d, B, W1.shape[1]))
        else:
            TZ[l] = (T[l - 1].reshape(d * B, -1)
                     @ blocks[l - 1][:-1]).reshape(d, B, -1)
        T[l] = S[l] * TZ[l]
    if L == 1:
        return (np.broadcast_to(omega_apply(np.eye(d)).T[:, None, :],
                                (d, B, d)), A, S, TZ, T)
    return T[L - 1], A, S, TZ, T


_PHI = {"hnn": lambda blocks, X: _hnn_features(blocks, X)[0],
        "naive": lambda blocks, X: _forward(blocks, X)[0][-1]}


class HeadFeatures(NamedTuple):
    """Features of a batch X: at any parameters that share the body these
    were built at, the learner's field on X is phi times the last layer.

    hnn: phi is (2n, B, h) with Omega folded in and multiplies w_L; naive:
    phi is (B, h + 1) = [a_{L-1}, 1] and multiplies [W_L; b_L].  Unless
    built with keep_state=False, they keep the forward state and the
    tangent chains that `loss_hvp`'s reverse pass runs through.
    """
    spec: NetworkSpec
    body: np.ndarray  # copy of the parameters below the last layer
    X: np.ndarray
    phi: np.ndarray
    A: list = None    # [a_l, 1]; A[0] = [X, 1]
    S: list = None    # sigmoid(z_l) of the hidden layers
    SP: list = None   # hnn: sigmoid'(z_l)
    TZ: list = None   # hnn: tangents of z_l
    T: list = None    # hnn: tangents of a_l

    def _head(self, params):
        """params and its last layer's [W; b] block, once params is known
        to share the body."""
        params = np.asarray(params, np.float64)
        if (params.shape != (param_count(self.spec),)
                or not np.array_equal(params[: self.body.size], self.body)):
            raise ValueError("params do not share the body the features "
                             "were built at")
        return params, params[self.body.size :].reshape(-1,
                                                        self.spec.output_dim)

    def _field(self, P):
        """phi times the last layer's [W; b] block P: the field on X."""
        if _loss(self.spec) == "naive":
            return self.phi @ P
        d, B, h = self.phi.shape
        return (self.phi.reshape(d * B, h) @ P[:-1, 0]).reshape(d, B).T

    @_quiet
    def field(self, params) -> np.ndarray:
        """The field on X at params."""
        return self._field(self._head(params)[1])

    @_quiet
    def gram(self) -> np.ndarray:
        """(2/B) phi^T phi, the loss Hessian in the last layer's [W; b]
        block at every head: it multiplies each column of that block.  For
        the Hamiltonian loss b_L's row and column are 0."""
        B = self.X.shape[0]
        if _loss(self.spec) == "naive":
            return (2.0 / B) * (self.phi.T @ self.phi)
        phi = self.phi.reshape(-1, self.phi.shape[2])
        G = np.zeros((phi.shape[1] + 1,) * 2)
        G[:-1, :-1] = (2.0 / B) * (phi.T @ phi)
        return G

    @_quiet
    def linearize(self, params, Xdot) -> "HeadLinearization":
        """Loss and last-layer gradient at params against the labels
        Xdot."""
        params, P = self._head(params)
        Xdot = self._labels(Xdot)
        B = self.X.shape[0]
        grad = np.zeros(P.size)
        G = grad.reshape(P.shape)
        R = self._field(P) - Xdot
        if _loss(self.spec) == "naive":
            np.matmul(self.phi.T, (2.0 / B) * R, out=G)
        else:  # the gradient of b_L stays exactly 0
            np.matmul(((2.0 / B) * R.T).ravel(),
                      self.phi.reshape(-1, self.phi.shape[2]), out=G[:-1, 0])
        return HeadLinearization(params, float(np.sum(R * R) / B), grad, self)

    def _labels(self, Xdot):
        Xdot = np.atleast_2d(np.asarray(Xdot, np.float64))
        if Xdot.shape != self.X.shape:
            raise ValueError("Xdot shape must match X")
        return Xdot


class HeadLinearization(NamedTuple):
    """One point of a head-space descent, on the batch `features.X`.
    `grad` covers the last layer's [W; b] block only."""
    params: np.ndarray
    loss: float
    grad: np.ndarray
    features: HeadFeatures


@_quiet
def loss_hvp(features: HeadFeatures, heads, Xdot, vecs) -> np.ndarray:
    """The sum over k of H(theta_k) @ vecs[k], where H is the loss Hessian
    in params, along one inner loop's head-space trace.

    theta_k shares the body of `features` and has last layer heads[k]; the
    loss is against the labels Xdot of the features' batch.  heads and
    vecs are (S, m) stacks of last-layer [W; b] blocks, and nothing here
    can be derived from another argument.  The product is exact in every
    parameter: the head block directly, the body by one reverse pass
    through the construction of phi, whose adjoint is linear in each
    step's terms.  A generic `Linearization` multiplies by its own
    Hessian: `hvp`.
    """
    f = features
    if f.S is None:
        raise ValueError("features built with keep_state=False take no "
                         "tangent pass")
    heads = np.asarray(heads, np.float64)
    vecs = np.asarray(vecs, np.float64)
    m = param_count(f.spec) - f.body.size
    if heads.shape[1:] != (m,) or vecs.shape != heads.shape or not len(heads):
        raise ValueError(f"heads and directions must be (S, {m}) stacks of "
                         "one S >= 1")
    Xdot = f._labels(Xdot)
    hvp = np.zeros(param_count(f.spec))
    H = unpack_blocks(f.spec, hvp)
    B, d = f.X.shape
    Ps = [h.reshape(-1, f.spec.output_dim) for h in heads]
    # each step's residual field - Xdot, as `HeadFeatures.linearize` has it
    Rs = [f._field(P) - Xdot for P in Ps]
    if _loss(f.spec) == "naive":
        # adjoint of a_{L-1}: (2/B) sum_k ((phi U_k) W_k^T + R_k U_k^T)
        dbarz = bara = barT = None
        for P, R, vec in zip(Ps, Rs, vecs):
            U = vec.reshape(P.shape)
            dz = (2.0 / B) * (f.phi @ U)
            dbarz = _sum(dbarz, dz)
            bara = _sum(bara, dz @ P[:-1].T + ((2.0 / B) * R) @ U[:-1].T)
        np.matmul(f.phi.T, dbarz, out=H[-1])
    else:  # the b_L entries of H @ vec stay exactly 0
        phi = f.phi.reshape(d * B, -1)
        u = vecs[:, :-1]  # the w_L rows of the directions, (S, h)
        Fu = u @ phi.T
        np.matmul((2.0 / B) * Fu.sum(axis=0), phi, out=H[-1][:-1, 0])
        # adjoint of phi_j: (2/B) sum_k (R_k,j u_k^T + F_u,k,j w_k^T)
        Rt = np.array([R.T.ravel() for R in Rs])
        barT = ((2.0 / B) * (Rt.T @ u + Fu.T @ heads[:, :-1])).reshape(d, B, -1)
        bara = None
    for l in range(len(H) - 1, 0, -1):
        W = f.body[layer_slice(f.spec, l - 1)].reshape(H[l - 1].shape)[:-1]
        if barT is None:
            barz = bara * f.S[l]
        else:
            barz = np.sum(barT * f.TZ[l], axis=0) * f.SP[l]
            if bara is not None:
                barz += bara * f.S[l]
            barTZ = barT * f.S[l]
            if l > 1:
                barTZ = barTZ.reshape(d * B, -1)
                H[l - 1][:-1] = f.T[l - 1].reshape(d * B, -1).T @ barTZ
                barT = (barTZ @ W.T).reshape(d, B, -1)
            else:  # Omega^T = -Omega undoes layer 1's folding
                H[0][:-1] = -omega_apply(barTZ.sum(axis=1).T).T
        H[l - 1] += f.A[l - 1].T @ barz
        if l > 1:
            bara = barz @ W.T
    return hvp


_LINEARIZE = {"hnn": _hnn_linearize, "naive": _naive_linearize}
_TANGENT = {"hnn": _hnn_tangent, "naive": _naive_tangent}


# -- python-facing wrappers ---------------------------------------------------


@_quiet
def mlp_forward(spec: NetworkSpec, params, X) -> np.ndarray:
    _, blocks, X = _check(spec, params, X)
    return _by_rows(_mlp, blocks, X)


@_quiet
def predicted_field(spec: NetworkSpec, params, X) -> np.ndarray:
    """Learner's vector-field prediction at states X."""
    _, blocks, X = _check(spec, params, X)
    return _by_rows(_FIELD[_loss(spec)], blocks, X)


@_quiet
def head_features(spec: NetworkSpec, params, X,
                  keep_state: bool = True) -> HeadFeatures:
    """Features of the batch X at params' body (see `HeadFeatures`).

    keep_state=False builds phi alone, in row blocks, for a batch that is
    only scored, such as an evaluation grid.
    """
    params, blocks, X = _check(spec, params, X)
    loss = _loss(spec)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    body = params[: layer_slice(spec, spec.n_layers - 1).start].copy()
    if not keep_state:
        return HeadFeatures(spec, body, X, _by_rows(_PHI[loss], blocks, X,
                                                    axis=int(loss == "hnn")))
    if loss == "naive":
        A, S = _forward(blocks, X)
        return HeadFeatures(spec, body, X, A[-1], A, S)
    phi, A, S, TZ, T = _hnn_features(blocks, X)
    SP = [None] + [s * (1.0 - s) for s in S[1:]]
    return HeadFeatures(spec, body, X, phi, A, S, SP, TZ, T)


@_quiet
def loss_grad(spec: NetworkSpec, params, X, Xdot):
    """(loss, dloss/dparams, linearization) for one batch; the loss is the
    mean over rows of the squared field error.

    The linearization's `hvp` multiplies by the loss Hessian at these
    arrays with only the tangent pass.  It refers to params and X without
    copying them, so they must not be modified while it is in use.
    """
    params, blocks, X = _check(spec, params, X)
    Xdot = np.atleast_2d(np.asarray(Xdot, np.float64))
    if Xdot.shape != X.shape:
        raise ValueError("Xdot shape must match X")
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    lin = _LINEARIZE[_loss(spec)](spec, params, blocks, X, Xdot)
    return lin.loss, lin.grad, lin
