"""Scalar reverse-mode autodiff on a flat tape, with gradient emission.

This is the reference oracle of the test suite: an independent route to
the quantities that `hamlearn.fastops` computes in closed form.

The graph is a struct-of-arrays tape: per node an opcode, two operand ids
(-1 when unused) and an eagerly computed float value.  `Graph.backward`
does not hand back bare numbers: it appends the adjoint computation to the
tape as ordinary nodes and returns their ids.  Gradients are therefore
differentiable like anything else on the tape, and exact second
derivatives come from sweeping twice.  `Graph.grad_values` is the cheap
value-only variant for consumers that will not differentiate through the
sweep (e.g. the outermost update of a bilevel optimizer).

Node ids are plain ints, ordered topologically by construction: every
operand id is strictly smaller than the id of its consumer.  The emission
sweep preserves this invariant, so repeated sweeps need no re-sorting.
"""

from __future__ import annotations

import math

import numpy as np


class DomainError(ValueError):
    """An op was evaluated outside its domain, or produced a non-finite
    value."""


LEAF = 0
ADD = 1
SUB = 2
MUL = 3
DIV = 4
NEG = 5
SQUARE = 6
COS = 7
SIN = 8
EXP = 9
LOG = 10
SOFTPLUS = 11
SIGMOID = 12

OP_NAMES = (
    "leaf", "add", "sub", "mul", "div", "neg", "square",
    "cos", "sin", "exp", "log", "softplus", "sigmoid",
)

_BINARY = (ADD, SUB, MUL, DIV)
_UNARY = (NEG, SQUARE, COS, SIN, EXP, LOG, SOFTPLUS, SIGMOID)

# Worst-case nodes emitted per visited node during a backward sweep
# (div: 4 on the denominator branch + 2 accumulate adds).
EMIT_PER_NODE = 6


def _stable_sigmoid(v: np.ndarray) -> np.ndarray:
    t = np.exp(-np.abs(v))
    return np.where(v >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def _eval_many(op: int, va: np.ndarray, vb: np.ndarray | None) -> np.ndarray:
    if op == ADD:
        return va + vb
    if op == SUB:
        return va - vb
    if op == MUL:
        return va * vb
    if op == DIV:
        if np.any(vb == 0.0):
            raise DomainError("division by zero")
        return va / vb
    if op == NEG:
        return -va
    if op == SQUARE:
        return va * va
    if op == COS:
        return np.cos(va)
    if op == SIN:
        return np.sin(va)
    if op == EXP:
        return np.exp(va)
    if op == LOG:
        if np.any(va <= 0.0):
            raise DomainError("log of non-positive value")
        return np.log(va)
    if op == SOFTPLUS:
        return np.logaddexp(0.0, va)
    if op == SIGMOID:
        return _stable_sigmoid(va)
    raise ValueError(f"unknown op code {op}")


def _sweep_emit(op, a, b, val, n0, out, lo, wrt):
    """Reverse sweep from `out` down to `lo`, emitting adjoint nodes.

    Mutates the tape arrays in place starting at index n0 (caller
    guarantees capacity).  Returns (new_n, grad_ids) where grad_ids[j] is
    the node holding d(out)/d(wrt[j]).  Unreached wrt entries get a fresh
    zero-valued leaf so callers can treat every gradient uniformly.
    """
    adj = np.full(out + 1, -1, np.int64)
    k = n0

    def emit(k, o, aa, bb, v):
        op[k] = o
        a[k] = aa
        b[k] = bb
        val[k] = v
        return k + 1

    def acc(k, t, gid):
        # add gid into the running adjoint of node t
        cur = adj[t]
        if cur < 0:
            adj[t] = gid
            return k
        adj[t] = k
        return emit(k, ADD, cur, gid, val[cur] + val[gid])

    # seed d(out)/d(out) = 1
    k = emit(k, LEAF, -1, -1, 1.0)
    adj[out] = k - 1

    for i in range(out, lo - 1, -1):
        u = adj[i]
        if u < 0:
            continue
        o = op[i]
        if o == LEAF:
            continue
        aa = a[i]
        bb = b[i]
        uv = val[u]
        if o == ADD:
            if aa >= lo:
                k = acc(k, aa, u)
            if bb >= lo:
                k = acc(k, bb, u)
        elif o == SUB:
            if aa >= lo:
                k = acc(k, aa, u)
            if bb >= lo:
                k = emit(k, NEG, u, -1, -uv)
                k = acc(k, bb, k - 1)
        elif o == MUL:
            if aa >= lo:
                k = emit(k, MUL, u, bb, uv * val[bb])
                k = acc(k, aa, k - 1)
            if bb >= lo:
                k = emit(k, MUL, u, aa, uv * val[aa])
                k = acc(k, bb, k - 1)
        elif o == DIV:
            if aa >= lo:
                k = emit(k, DIV, u, bb, uv / val[bb])
                k = acc(k, aa, k - 1)
            if bb >= lo:
                # d(a/b)/db = -(a/b)/b
                k = emit(k, MUL, u, i, uv * val[i])
                k = emit(k, DIV, k - 1, bb, val[k - 1] / val[bb])
                k = emit(k, NEG, k - 1, -1, -val[k - 1])
                k = acc(k, bb, k - 1)
        elif o == NEG:
            if aa >= lo:
                k = emit(k, NEG, u, -1, -uv)
                k = acc(k, aa, k - 1)
        elif o == SQUARE:
            if aa >= lo:
                k = emit(k, MUL, u, aa, uv * val[aa])
                k = emit(k, ADD, k - 1, k - 1, 2.0 * val[k - 1])
                k = acc(k, aa, k - 1)
        elif o == COS:
            if aa >= lo:
                k = emit(k, SIN, aa, -1, math.sin(val[aa]))
                k = emit(k, MUL, u, k - 1, uv * val[k - 1])
                k = emit(k, NEG, k - 1, -1, -val[k - 1])
                k = acc(k, aa, k - 1)
        elif o == SIN:
            if aa >= lo:
                k = emit(k, COS, aa, -1, math.cos(val[aa]))
                k = emit(k, MUL, u, k - 1, uv * val[k - 1])
                k = acc(k, aa, k - 1)
        elif o == EXP:
            if aa >= lo:
                k = emit(k, MUL, u, i, uv * val[i])
                k = acc(k, aa, k - 1)
        elif o == LOG:
            if aa >= lo:
                k = emit(k, DIV, u, aa, uv / val[aa])
                k = acc(k, aa, k - 1)
        elif o == SOFTPLUS:
            if aa >= lo:
                z = val[aa]
                if z >= 0.0:
                    s = 1.0 / (1.0 + math.exp(-z))
                else:
                    t = math.exp(z)
                    s = t / (1.0 + t)
                k = emit(k, SIGMOID, aa, -1, s)
                k = emit(k, MUL, u, k - 1, uv * s)
                k = acc(k, aa, k - 1)
        elif o == SIGMOID:
            if aa >= lo:
                # sigma' = sigma - sigma^2, reusing node i as sigma
                k = emit(k, SQUARE, i, -1, val[i] * val[i])
                k = emit(k, SUB, i, k - 1, val[i] - val[k - 1])
                k = emit(k, MUL, u, k - 1, uv * val[k - 1])
                k = acc(k, aa, k - 1)

    grad_ids = np.empty(len(wrt), np.int64)
    for j in range(len(wrt)):
        w = wrt[j]
        g = adj[w]
        if g < 0:
            k = emit(k, LEAF, -1, -1, 0.0)
            g = k - 1
        grad_ids[j] = g
    return k, grad_ids


def _sweep_values(op, a, b, val, out, lo):
    """Value-only reverse sweep; returns the adjoint value of every node."""
    adj = np.zeros(out + 1, np.float64)
    adj[out] = 1.0
    for i in range(out, lo - 1, -1):
        u = adj[i]
        if u == 0.0:
            continue
        o = op[i]
        if o == LEAF:
            continue
        aa = a[i]
        bb = b[i]
        if o == ADD:
            adj[aa] += u
            adj[bb] += u
        elif o == SUB:
            adj[aa] += u
            adj[bb] -= u
        elif o == MUL:
            adj[aa] += u * val[bb]
            adj[bb] += u * val[aa]
        elif o == DIV:
            adj[aa] += u / val[bb]
            adj[bb] -= u * val[i] / val[bb]
        elif o == NEG:
            adj[aa] -= u
        elif o == SQUARE:
            adj[aa] += 2.0 * u * val[aa]
        elif o == COS:
            adj[aa] -= u * math.sin(val[aa])
        elif o == SIN:
            adj[aa] += u * math.cos(val[aa])
        elif o == EXP:
            adj[aa] += u * val[i]
        elif o == LOG:
            adj[aa] += u / val[aa]
        elif o == SOFTPLUS:
            z = val[aa]
            if z >= 0.0:
                s = 1.0 / (1.0 + math.exp(-z))
            else:
                t = math.exp(z)
                s = t / (1.0 + t)
            adj[aa] += u * s
        elif o == SIGMOID:
            s = val[i]
            adj[aa] += u * (s - s * s)
    return adj


class Graph:
    """Append-only scalar computation tape (struct of arrays)."""

    def __init__(self, capacity: int = 1024):
        capacity = max(int(capacity), 16)
        self.op = np.empty(capacity, np.int8)
        self.a = np.empty(capacity, np.int64)
        self.b = np.empty(capacity, np.int64)
        self.val = np.empty(capacity, np.float64)
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def _ensure(self, need: int) -> None:
        cap = self.val.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name in ("op", "a", "b", "val"):
            old = getattr(self, name)
            new = np.empty(cap, old.dtype)
            new[: self.n] = old[: self.n]
            setattr(self, name, new)

    # -- construction -----------------------------------------------------

    def leaf(self, value: float) -> int:
        return int(self.leaf_many(np.array([value], np.float64))[0])

    def leaf_many(self, values) -> np.ndarray:
        values = np.asarray(values, np.float64).ravel()
        if not np.all(np.isfinite(values)):
            raise DomainError("leaf values must be finite")
        m = values.shape[0]
        self._ensure(self.n + m)
        ids = np.arange(self.n, self.n + m, dtype=np.int64)
        self.op[self.n : self.n + m] = LEAF
        self.a[self.n : self.n + m] = -1
        self.b[self.n : self.n + m] = -1
        self.val[self.n : self.n + m] = values
        self.n += m
        return ids

    def constant(self, value: float) -> int:
        """Alias for `leaf`; a constant is a leaf nobody differentiates."""
        return self.leaf(value)

    def apply(self, op: int, a: int, b: int | None = None) -> int:
        ids = self.apply_many(
            op,
            np.array([a], np.int64),
            None if b is None else np.array([b], np.int64),
        )
        return int(ids[0])

    def apply_many(self, op: int, a_ids, b_ids=None) -> np.ndarray:
        """Apply one op elementwise over aligned id arrays; returns new ids."""
        a_ids = np.asarray(a_ids, np.int64).ravel()
        if op in _BINARY:
            if b_ids is None:
                raise ValueError(f"op {OP_NAMES[op]} needs two operands")
            b_ids = np.asarray(b_ids, np.int64).ravel()
            if b_ids.shape != a_ids.shape:
                raise ValueError("operand id arrays must have equal length")
        elif op in _UNARY:
            if b_ids is not None:
                raise ValueError(f"op {OP_NAMES[op]} takes one operand")
        else:
            raise ValueError(f"cannot apply op code {op}")
        self._check_ids(a_ids)
        va = self.val[a_ids]
        vb = None
        if b_ids is not None:
            self._check_ids(b_ids)
            vb = self.val[b_ids]
        with np.errstate(over="ignore", invalid="ignore"):
            out = _eval_many(op, va, vb)
        if not np.all(np.isfinite(out)):
            raise DomainError(f"op {OP_NAMES[op]} produced a non-finite value")
        m = a_ids.shape[0]
        self._ensure(self.n + m)
        ids = np.arange(self.n, self.n + m, dtype=np.int64)
        self.op[self.n : self.n + m] = op
        self.a[self.n : self.n + m] = a_ids
        self.b[self.n : self.n + m] = -1 if b_ids is None else b_ids
        self.val[self.n : self.n + m] = out
        self.n += m
        return ids

    def _check_ids(self, ids: np.ndarray) -> None:
        if ids.size and (ids.min() < 0 or ids.max() >= self.n):
            raise IndexError("operand id out of range")

    # -- reads ------------------------------------------------------------

    def value(self, node: int) -> float:
        if not 0 <= node < self.n:
            raise IndexError("node id out of range")
        return float(self.val[node])

    def values(self, nodes) -> np.ndarray:
        nodes = np.asarray(nodes, np.int64).ravel()
        self._check_ids(nodes)
        return self.val[nodes].copy()

    # -- differentiation --------------------------------------------------

    def backward(self, output: int, wrt) -> np.ndarray:
        """Emit d(output)/d(w) for every w in wrt; returns their node ids.

        The emitted nodes are ordinary tape nodes, so a second `backward`
        over one of the returned ids yields exact second derivatives.
        """
        wrt = np.asarray(wrt, np.int64).ravel()
        if wrt.size == 0:
            raise ValueError("wrt must name at least one node")
        self._check_ids(wrt)
        if not 0 <= output < self.n:
            raise IndexError("output id out of range")
        lo = int(wrt.min())
        n0 = self.n
        span = output - lo + 1 if output >= lo else 0
        self._ensure(n0 + 1 + EMIT_PER_NODE * span + wrt.size + 4)
        # an overflowing adjoint is reported as a DomainError below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            new_n, grad_ids = _sweep_emit(
                self.op, self.a, self.b, self.val,
                np.int64(n0), np.int64(output), np.int64(lo), wrt,
            )
        self.n = int(new_n)
        emitted = self.val[n0 : self.n]
        if not np.all(np.isfinite(emitted)):
            raise DomainError("backward emitted a non-finite adjoint")
        return np.asarray(grad_ids, np.int64)

    def grad_values(self, output: int, wrt) -> np.ndarray:
        """Gradient values of output w.r.t. wrt, without emitting nodes."""
        wrt = np.asarray(wrt, np.int64).ravel()
        if wrt.size == 0:
            raise ValueError("wrt must name at least one node")
        self._check_ids(wrt)
        if not 0 <= output < self.n:
            raise IndexError("output id out of range")
        lo = int(wrt.min())
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            adj = _sweep_values(
                self.op, self.a, self.b, self.val,
                np.int64(output), np.int64(lo),
            )
        adj = np.asarray(adj)
        if not np.all(np.isfinite(adj)):
            raise DomainError("reverse sweep produced a non-finite adjoint")
        return adj[wrt].copy()


def check_gradient(build, at, h: float = 1e-5) -> float:
    """Compare emitted gradients against central finite differences.

    `build(graph, leaf_ids) -> output_id` constructs the function under
    test from fresh leaves.  The graph is rebuilt at each perturbed input,
    so `build` must be deterministic.  Returns the max relative error
    max_i |ad_i - fd_i| / max(1, |fd_i|); the floor of 1 makes the measure
    absolute for near-zero gradients.
    """
    at = np.asarray(at, np.float64).ravel()
    g = Graph()
    xs = g.leaf_many(at)
    out = build(g, xs)
    ad = g.values(g.backward(out, xs))

    def f(point: np.ndarray) -> float:
        gg = Graph()
        return gg.value(build(gg, gg.leaf_many(point)))

    fd = np.empty_like(ad)
    for i in range(at.size):
        e = np.zeros_like(at)
        e[i] = h
        fd[i] = (f(at + e) - f(at - e)) / (2.0 * h)
    rel = np.abs(ad - fd) / np.maximum(1.0, np.abs(fd))
    return float(rel.max())
