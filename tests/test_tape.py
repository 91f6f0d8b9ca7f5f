"""Tape autodiff tests: closed-form oracles, finite differences, invariants."""

import math

import numpy as np
import pytest

from oracle import tape as T
from oracle.tape import Graph, DomainError, check_gradient

RNG = np.random.default_rng

# ops that never leave their domain for any finite operand
SAFE_UNARY = [T.NEG, T.SQUARE, T.COS, T.SIN, T.SOFTPLUS, T.SIGMOID]
SAFE_BINARY = [T.ADD, T.SUB, T.MUL]


def random_program(rng, n_leaves, n_ops, base):
    """Pick a replayable op sequence whose values stay finite at `base`.

    Returns a list of (op, i, j) with i, j indices into the growing node
    list; replay with `run_program`. Domain-sensitive ops (div, log, exp)
    are admitted only with a safety margin at the base point so that FD
    perturbations stay in-domain.
    """
    g = Graph()
    ids = list(g.leaf_many(base))
    prog = []
    while len(prog) < n_ops:
        roll = rng.random()
        if roll < 0.15:
            op = T.DIV
        elif roll < 0.25:
            op = T.LOG
        elif roll < 0.3:
            op = T.EXP
        elif roll < 0.65:
            op = SAFE_BINARY[rng.integers(len(SAFE_BINARY))]
        else:
            op = SAFE_UNARY[rng.integers(len(SAFE_UNARY))]
        i = int(rng.integers(len(ids)))
        j = int(rng.integers(len(ids))) if op in (T.ADD, T.SUB, T.MUL, T.DIV) else -1
        va = g.value(ids[i])
        if op == T.DIV and abs(g.value(ids[j])) < 0.3:
            continue
        if op == T.LOG and va < 0.3:
            continue
        if op == T.EXP and va > 3.0:
            continue
        new = g.apply(op, ids[i], ids[j] if j >= 0 else None)
        if abs(g.value(new)) > 1e4:
            continue
        ids.append(new)
        prog.append((op, i, j))
    return prog


def run_program(g, leaf_ids, prog):
    ids = list(leaf_ids)
    for op, i, j in prog:
        ids.append(g.apply(op, ids[i], ids[j] if j >= 0 else None))
    return ids[-1]


# -- frozen single-op facts -------------------------------------------------

def test_constant_facts():
    g = Graph()
    c = g.constant(2.0)
    x = g.leaf(1.5)
    y = g.apply(T.MUL, x, x)
    (dc,) = g.backward(y, [c])
    assert g.value(dc) == 0.0
    z = g.apply(T.ADD, g.constant(0.0), x)
    assert g.value(z) == 1.5
    assert g.value(g.apply(T.COS, g.constant(math.pi))) == pytest.approx(-1.0, abs=1e-15)


def test_forward_values():
    g = Graph()
    assert g.value(g.apply(T.SOFTPLUS, g.leaf(0.0))) == pytest.approx(math.log(2.0), abs=1e-15)
    assert g.value(g.apply(T.COS, g.leaf(0.0))) == 1.0
    assert g.value(g.apply(T.SIN, g.leaf(0.0))) == 0.0
    assert g.value(g.apply(T.SQUARE, g.leaf(3.0))) == 9.0
    assert g.value(g.apply(T.DIV, g.leaf(1.0), g.leaf(4.0))) == 0.25
    assert g.value(g.apply(T.EXP, g.leaf(0.0))) == 1.0
    assert g.value(g.apply(T.LOG, g.leaf(math.e))) == pytest.approx(1.0, abs=1e-15)
    assert g.value(g.apply(T.SIGMOID, g.leaf(0.0))) == 0.5


def test_domain_errors():
    g = Graph()
    with pytest.raises(DomainError):
        g.apply(T.LOG, g.leaf(-1.0))
    with pytest.raises(DomainError):
        g.apply(T.LOG, g.leaf(0.0))
    with pytest.raises(DomainError):
        g.apply(T.DIV, g.leaf(1.0), g.leaf(0.0))
    with pytest.raises(DomainError):
        g.leaf(float("nan"))
    with pytest.raises(DomainError):
        g.apply(T.EXP, g.leaf(1000.0))  # overflows to inf


def test_node_count_of_small_graph():
    # x*y + sin(x): two leaves, mul, sin, add
    g = Graph()
    x, y = g.leaf(1.0), g.leaf(2.0)
    out = g.apply(T.ADD, g.apply(T.MUL, x, y), g.apply(T.SIN, x))
    assert out == 4 and len(g) == 5


# -- backward: closed forms -------------------------------------------------

def test_backward_square():
    g = Graph()
    x = g.leaf(3.0)
    y = g.apply(T.SQUARE, x)
    (dx,) = g.backward(y, [x])
    assert g.value(dx) == 6.0


def test_backward_softplus_twice():
    g = Graph()
    x = g.leaf(0.0)
    y = g.apply(T.SOFTPLUS, x)
    (d1,) = g.backward(y, [x])
    assert g.value(d1) == pytest.approx(0.5, abs=1e-15)
    (d2,) = g.backward(d1, [x])
    assert g.value(d2) == pytest.approx(0.25, abs=1e-15)


def test_backward_cubic_and_second_derivative():
    g = Graph()
    x = g.leaf(2.0)
    y = g.apply(T.MUL, x, g.apply(T.SQUARE, x))
    (d1,) = g.backward(y, [x])
    assert g.value(d1) == pytest.approx(12.0, rel=1e-15)
    (d2,) = g.backward(d1, [x])
    assert g.value(d2) == pytest.approx(12.0, rel=1e-15)  # 6x at x=2


@pytest.mark.parametrize("op,deriv", [
    (T.NEG, lambda v: -1.0),
    (T.SQUARE, lambda v: 2.0 * v),
    (T.COS, lambda v: -math.sin(v)),
    (T.SIN, lambda v: math.cos(v)),
    (T.EXP, lambda v: math.exp(v)),
    (T.LOG, lambda v: 1.0 / v),
    (T.SOFTPLUS, lambda v: 1.0 / (1.0 + math.exp(-v))),
    (T.SIGMOID, lambda v: (s := 1.0 / (1.0 + math.exp(-v))) * (1.0 - s)),
])
def test_unary_adjoints_match_closed_form(op, deriv):
    for v in (0.37, 1.9, 0.08):
        g = Graph()
        x = g.leaf(v)
        y = g.apply(op, x)
        (dx,) = g.backward(y, [x])
        assert g.value(dx) == pytest.approx(deriv(v), rel=1e-14, abs=1e-15)


def test_binary_adjoints_match_closed_form():
    a0, b0 = 1.7, -0.6
    cases = {
        T.ADD: (1.0, 1.0),
        T.SUB: (1.0, -1.0),
        T.MUL: (b0, a0),
        T.DIV: (1.0 / b0, -a0 / b0 ** 2),
    }
    for op, (da, db) in cases.items():
        g = Graph()
        a, b = g.leaf(a0), g.leaf(b0)
        y = g.apply(op, a, b)
        ga, gb = g.backward(y, [a, b])
        assert g.value(ga) == pytest.approx(da, rel=1e-14)
        assert g.value(gb) == pytest.approx(db, rel=1e-14)


def test_unreachable_wrt_gives_zero_node():
    g = Graph()
    x = g.leaf(2.0)
    z = g.leaf(5.0)
    y = g.apply(T.SQUARE, x)
    (dz,) = g.backward(y, [z])
    assert g.value(dz) == 0.0
    assert g.op[dz] == T.LEAF


def test_backward_nonfinite_adjoint_raises():
    g = Graph()
    a, b = g.leaf(1e-8), g.leaf(1e-300)
    y = g.apply(T.DIV, a, b)  # value 1e292, finite
    with pytest.raises(DomainError):
        g.backward(y, [b])  # d/db overflows


# -- check_gradient oracle --------------------------------------------------

def test_check_gradient_cubic():
    def cubic(g, xs):
        return g.apply(T.MUL, xs[0], g.apply(T.SQUARE, xs[0]))
    assert check_gradient(cubic, [2.0], h=1e-5) < 1e-8


def test_check_gradient_sum_of_squares_at_origin():
    def ssq(g, xs):
        sq = g.apply_many(T.SQUARE, xs)
        out = sq[0]
        for s in sq[1:]:
            out = g.apply(T.ADD, out, s)
        return out
    assert check_gradient(ssq, [0.0, 0.0, 0.0], h=1e-5) < 1e-9


def test_check_gradient_two_layer_net(lane):
    # random 2-layer softplus net, gradients w.r.t. all parameters
    rng = RNG(7)
    w1 = rng.uniform(-0.7, 0.7, (2, 8))
    b1 = rng.uniform(-0.2, 0.2, 8)
    w2 = rng.uniform(-0.7, 0.7, 8)
    b2 = rng.uniform(-0.2, 0.2, 1)
    x_in = rng.uniform(-1, 1, 2)
    theta = np.concatenate([w1.ravel(), b1, w2, b2])

    def net(g, ps):
        k = 0
        xs = g.leaf_many(x_in)
        hidden = []
        for j in range(8):
            acc = ps[16 + j]  # bias b1[j]
            for i in range(2):
                acc = g.apply(T.ADD, acc, g.apply(T.MUL, xs[i], ps[i * 8 + j]))
            hidden.append(g.apply(T.SOFTPLUS, acc))
        out = ps[32]  # bias b2
        for j in range(8):
            out = g.apply(T.ADD, out, g.apply(T.MUL, hidden[j], ps[24 + j]))
        return out

    assert check_gradient(net, theta, h=1e-5) < 1e-6


# -- spec invariants ---------------------------------------------------------

def test_linearity_of_backward():
    rng = RNG(11)
    for trial in range(5):
        base = rng.uniform(0.5, 2.0, 4)
        prog_f = random_program(RNG(100 + trial), 4, 20, base)
        prog_g = random_program(RNG(200 + trial), 4, 20, base)
        a, b = rng.uniform(-2, 2, 2)

        g1 = Graph()
        xs = g1.leaf_many(base)
        f_id = run_program(g1, xs, prog_f)
        g_id = run_program(g1, xs, prog_g)
        combo = g1.apply(T.ADD,
                         g1.apply(T.MUL, g1.constant(a), f_id),
                         g1.apply(T.MUL, g1.constant(b), g_id))
        lhs = g1.values(g1.backward(combo, xs))
        gf = g1.values(g1.backward(f_id, xs))
        gg = g1.values(g1.backward(g_id, xs))
        np.testing.assert_allclose(lhs, a * gf + b * gg, rtol=1e-12, atol=1e-12)


def test_mixed_partials_symmetric():
    # f = sin(x*y) + x^2 * y
    def build(g, xs):
        x, y = xs
        return g.apply(T.ADD,
                       g.apply(T.SIN, g.apply(T.MUL, x, y)),
                       g.apply(T.MUL, g.apply(T.SQUARE, x), y))
    for x0, y0 in [(0.8, -0.3), (1.4, 0.9), (-2.0, 0.25)]:
        g = Graph()
        xs = g.leaf_many([x0, y0])
        out = build(g, xs)
        gx, gy = g.backward(out, xs)
        (dxy,) = g.backward(gx, [xs[1]])
        (dyx,) = g.backward(gy, [xs[0]])
        assert g.value(dxy) == pytest.approx(g.value(dyx), rel=1e-9)


def test_replay_determinism(lane):
    base = np.array([0.9, 1.7, 0.4])
    prog = random_program(RNG(42), 3, 30, base)
    tapes = []
    for _ in range(2):
        g = Graph()
        xs = g.leaf_many(base)
        out = run_program(g, xs, prog)
        g.backward(out, xs)
        tapes.append((g.op[:g.n].copy(), g.a[:g.n].copy(),
                      g.b[:g.n].copy(), g.val[:g.n].copy()))
    for x, y in zip(tapes[0], tapes[1]):
        assert np.array_equal(x, y)


def test_backends_produce_identical_tapes():
    # the tape is a pure function of its program: two fresh builds, each
    # swept twice so that the emitted adjoints are differentiated again,
    # store the same ops, operands and values
    base = np.array([1.1, 0.3, 2.2, 0.7])
    prog = random_program(RNG(5), 4, 40, base)
    tapes = []
    for _ in range(2):
        g = Graph()
        xs = g.leaf_many(base)
        out = run_program(g, xs, prog)
        gids = g.backward(out, xs)
        g.backward(gids[0], xs)  # second sweep too
        tapes.append((g.op[:g.n].copy(), g.a[:g.n].copy(),
                      g.b[:g.n].copy(), g.val[:g.n].copy()))
    for x, y in zip(tapes[0], tapes[1]):
        assert np.array_equal(x, y)


def test_topological_order_preserved_after_backward(lane):
    base = np.array([0.6, 1.2, 0.9])
    prog = random_program(RNG(13), 3, 35, base)
    g = Graph()
    xs = g.leaf_many(base)
    out = run_program(g, xs, prog)
    gids = g.backward(out, xs)
    g.backward(gids[1], xs)
    idx = np.arange(g.n)
    nonleaf = g.op[:g.n] != T.LEAF
    assert np.all(g.a[:g.n][nonleaf] < idx[nonleaf])
    assert np.all(g.b[:g.n][nonleaf] < idx[nonleaf])
    assert np.all(g.a[:g.n][nonleaf] >= 0)


def test_emission_bound():
    base = np.array([0.6, 1.2, 0.9, 1.5])
    prog = random_program(RNG(3), 4, 50, base)
    g = Graph()
    xs = g.leaf_many(base)
    out = run_program(g, xs, prog)
    n0 = len(g)
    span = out - int(xs.min()) + 1
    g.backward(out, xs)
    assert len(g) - n0 <= 1 + T.EMIT_PER_NODE * span + len(xs)


def test_grad_values_matches_emitted_backward(lane):
    for trial in range(4):
        base = RNG(60 + trial).uniform(0.5, 1.5, 5)
        prog = random_program(RNG(80 + trial), 5, 45, base)
        g = Graph()
        xs = g.leaf_many(base)
        out = run_program(g, xs, prog)
        gv = g.grad_values(out, xs)
        emitted = g.values(g.backward(out, xs))
        np.testing.assert_allclose(gv, emitted, rtol=1e-13, atol=0)


def test_double_backward_matches_fd_hessian():
    h = 1e-5
    for trial in range(3):
        base = RNG(300 + trial).uniform(0.6, 1.4, 3)
        prog = random_program(RNG(400 + trial), 3, 25, base)

        def grad_at(point):
            g = Graph()
            xs = g.leaf_many(point)
            return g.grad_values(run_program(g, xs, prog), xs)

        g = Graph()
        xs = g.leaf_many(base)
        out = run_program(g, xs, prog)
        g1 = g.backward(out, xs)
        hess = np.empty((3, 3))
        for i in range(3):
            hess[i] = g.values(g.backward(g1[i], xs))
        fd = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[:, j] = (grad_at(base + e) - grad_at(base - e)) / (2 * h)
        np.testing.assert_allclose(hess, fd, rtol=2e-5, atol=2e-6)
        np.testing.assert_allclose(hess, hess.T, rtol=1e-9, atol=1e-12)


def test_apply_many_bulk_matches_scalar():
    rng = RNG(9)
    va = rng.uniform(0.2, 2.0, 64)
    vb = rng.uniform(0.2, 2.0, 64)
    g = Graph()
    ia = g.leaf_many(va)
    ib = g.leaf_many(vb)
    bulk = g.apply_many(T.DIV, ia, ib)
    np.testing.assert_array_equal(g.values(bulk), va / vb)
    one = g.apply(T.DIV, int(ia[3]), int(ib[3]))
    assert g.value(one) == g.value(int(bulk[3]))


def test_apply_many_shape_and_arity_errors():
    g = Graph()
    ids = g.leaf_many([1.0, 2.0])
    with pytest.raises(ValueError):
        g.apply_many(T.ADD, ids)               # missing operand
    with pytest.raises(ValueError):
        g.apply_many(T.NEG, ids, ids)          # extra operand
    with pytest.raises(ValueError):
        g.apply_many(T.ADD, ids, ids[:1])      # length mismatch
    with pytest.raises(IndexError):
        g.apply_many(T.ADD, ids, np.array([0, 99]))
