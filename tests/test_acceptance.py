"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single line with the measured values, so `pytest -v`
gives a one-line pass/fail verdict per criterion.  The desk-scale
training runs (criteria 4-8) share session fixtures; the whole file
targets a few minutes on a desktop CPU.

Criteria 4, 5 and 6 are encoded exactly as stated and currently fail at
the pinned desk scale (100 meta-training episodes, 5 inner GD steps at
lr 0.002, evaluation by 10-50 Adam steps at lr 0.002).  Measured: the
ordering of criterion 4 held on 0 of 3 seeds (seed 0: hanil 211.0,
hamaml 123.7, pretrained 9.0, scratch 345.9); criterion 5 saw hanil
improve 1.36x and scratch 1.82x; criterion 6 saw a hanil factor of 1.058
against a pretrained change of 1.099.  On spring_mass, seed 0, the
meta-trained hanil scores grid MSE 211.0 under the evaluation rule (10
masked Adam steps) but 29.6 under the training rule (5 masked GD steps),
and the meta-loss is still falling at episode 99 (4936 -> 263).  After
1000 episodes the training rule reaches 1.03, below the last-layer least
squares fit on the 100-episode body (7.2), so that fit does not bound a
5-step GD adaptation.  PAPER.md holds only the abstract, so it does not
settle the paper's training budget or test-time optimiser.  The tests
report the shortfall rather than hiding it.
"""

import filecmp
import os

import numpy as np
import pytest

from hamlearn import fastops, seeding
from hamlearn.cli import main
from hamlearn.evaluation import (ablation_tasks, adapt_and_eval, adapt_params,
                                 learning_curve)
from hamlearn.metalearn import (InnerConfig, OuterConfig, adam_init,
                                build_learner, inner_adapt, meta_step,
                                train_learner)
from hamlearn.network import hnn_spec, init_params, param_count, update_mask
from hamlearn.physics import (SYSTEMS, field_fn, hamiltonian_many, integrate,
                              true_field_many)
from hamlearn.taskgen import (make_meta_test_suite, make_meta_train,
                              sample_params, sample_states)
from oracle import tape as T
from oracle.graph import hamiltonian_graph, hnn_loss

DESK_SEEDS = (0, 1, 2)
DESK_TASKS = 1000
DESK_POINTS = 50


def _train(kind, system, seed, n_tasks=DESK_TASKS):
    """Meta-train / pretrain one learner at the desk-run defaults."""
    pool = make_meta_train(system, n_tasks, DESK_POINTS, seed)
    learner = build_learner(kind)
    theta, _, _ = train_learner(learner, init_params(learner.spec, seed),
                                pool, OuterConfig(), seed)
    return learner, theta


@pytest.fixture(scope="session")
def spring_runs():
    """Desk runs on spring-mass for all Table-ordering learners, 3 seeds."""
    runs = {}
    for seed in DESK_SEEDS:
        runs[seed] = {kind: _train(kind, "spring_mass", seed)
                      for kind in ("hanil", "hamaml", "hnn_pretrained",
                                   "hnn_scratch")}
    return runs


@pytest.fixture(scope="session")
def pendulum_hanil():
    return _train("hanil", "pendulum", DESK_SEEDS[0])


def test_criterion_1_autodiff_gradients_match_finite_differences(adam_grads):
    spec = hnn_spec(2)
    n = param_count(spec)
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        theta = init_params(spec, 1000 + i)
        X = rng.uniform(-2.0, 2.0, (16, 2))
        Xdot = rng.uniform(-2.0, 2.0, (16, 2))
        _, grad, _ = fastops.loss_grad(spec, theta, X, Xdot)
        # full coordinate sweep on three nets, a random subset on the rest
        coords = (np.arange(n) if i < 3
                  else rng.choice(n, size=48, replace=False))
        h = 1e-5
        for j in coords:
            e = np.zeros(n)
            e[j] = h
            fd = (fastops.loss_grad(spec, theta + e, X, Xdot)[0]
                  - fastops.loss_grad(spec, theta - e, X, Xdot)[0]) / (2 * h)
            worst = max(worst, abs(grad[j] - fd) / max(1.0, abs(fd)))
    assert worst < 1e-5, f"worst hnn_loss gradient rel err {worst:.3g}"

    # independent route: the scalar-graph backward pass on small nets
    gspec = hnn_spec(2, (6, 5))
    for s in range(3):
        theta = init_params(gspec, 300 + s)
        X = rng.uniform(-2.0, 2.0, (8, 2))
        Xdot = rng.uniform(-2.0, 2.0, (8, 2))
        g = T.Graph()
        ids = g.leaf_many(theta)
        node = hnn_loss(g, gspec, ids, X, Xdot)
        graph_grad = g.grad_values(node, ids)
        _, fast_grad, _ = fastops.loss_grad(gspec, theta, X, Xdot)
        np.testing.assert_allclose(graph_grad, fast_grad, rtol=1e-9)

    # second-order meta-gradient vs finite differences of the composed
    # bi-level objective, one hidden unit
    bspec = hnn_spec(2, (1,))
    bn = param_count(bspec)
    rng2 = np.random.default_rng(7)
    tasks = []
    for _ in range(2):
        params = sample_params("spring_mass", rng2)
        X = sample_states(params, rng2, 6) / 10.0
        Xt = sample_states(params, rng2, 6) / 10.0

        class _Task:
            pass

        t = _Task()
        t.train_x, t.train_xdot = X, true_field_many(params, X)
        t.test_x, t.test_xdot = Xt, true_field_many(params, Xt)
        tasks.append(t)
    inner = InnerConfig(steps=2, lr=0.05, update_set="all")
    outer = OuterConfig(task_batch=2)
    theta0 = init_params(bspec, 5)

    def composed(th):
        total = 0.0
        for t in tasks:
            tp = inner_adapt(bspec, th, t.train_x, t.train_xdot, inner)[0]
            total += fastops.loss_grad(bspec, tp, t.test_x, t.test_xdot)[0]
        return total

    meta_step(bspec, theta0, tasks, inner, outer, adam_init(bn))
    meta_grad, = adam_grads
    h = 1e-6
    worst2 = 0.0
    for j in range(bn):
        e = np.zeros(bn)
        e[j] = h
        fd = (composed(theta0 + e) - composed(theta0 - e)) / (2 * h)
        worst2 = max(worst2, abs(meta_grad[j] - fd) / max(1.0, abs(fd)))
    print(f"criterion 1: loss-grad rel err {worst:.3g} (<1e-5), "
          f"meta-grad rel err {worst2:.3g} (<1e-4)")
    assert worst2 < 1e-4, f"worst meta-gradient rel err {worst2:.3g}"


def test_criterion_2_true_fields_and_energy_conservation():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(1000):
        system = SYSTEMS[rng.integers(len(SYSTEMS))]
        params = sample_params(system, rng)
        x = sample_states(params, rng, 1)[0]
        g = T.Graph()
        x_ids = g.leaf_many(x)
        h_node = hamiltonian_graph(g, params, x_ids)
        dh = g.grad_values(h_node, x_ids)
        n = x.size // 2
        field_ad = np.concatenate([dh[n:], -dh[:n]])
        ref = true_field_many(params, x[None])[0]
        worst = max(worst, float(np.max(
            np.abs(field_ad - ref) / np.maximum(1.0, np.abs(ref)))))
    assert worst < 1e-12, f"worst field rel err {worst:.3g}"

    rng = np.random.default_rng(22)
    params = sample_params("pendulum", rng)
    x0 = sample_states(params, rng, 1)[0]
    X, t_failure = integrate(field_fn(params), x0, 20.0, 200, rtol=1e-8,
                             atol=1e-10)
    assert t_failure is None, f"20s pendulum integration stopped at {t_failure}"
    H = hamiltonian_many(params, X)
    H0 = float(hamiltonian_many(params, x0[None, :])[0])
    drift = float(np.max(np.abs(H - H0))) / max(1.0, abs(H0))
    print(f"criterion 2: field rel err {worst:.3g} (<1e-12), "
          f"20s pendulum energy drift {drift:.3g} (<1e-6)")
    assert drift < 1e-6, f"20s pendulum energy drift {drift:.3g}"


def test_criterion_3_anil_updates_touch_only_their_layers():
    rng = np.random.default_rng(33)
    params = sample_params("spring_mass", rng)
    X = sample_states(params, rng, 50)
    Xdot = true_field_many(params, X)
    for kind in ("hanil", "hanil_inv"):
        learner = build_learner(kind)
        theta = init_params(learner.spec, 4)
        adapted = inner_adapt(learner.spec, theta, X, Xdot, learner.inner)[0]
        mask = update_mask(learner.spec, learner.inner.update_set)
        frozen = ~mask
        assert np.array_equal(adapted[frozen], theta[frozen]), \
            f"{kind}: frozen slice changed"
        assert not np.array_equal(adapted[mask], theta[mask]), \
            f"{kind}: update slice did not move"
    print("criterion 3: hanil body and hanil_inv layer 0 bitwise frozen "
          "after 5 inner steps")


def test_criterion_4_desk_scale_table_ordering(spring_runs):
    rows = {}
    wins = 0
    for seed in DESK_SEEDS:
        suite = make_meta_test_suite("spring_mass", "points", 50, seed, 10)
        mse = {kind: adapt_and_eval(learner, theta, suite, 10, 0.002).mean()
               for kind, (learner, theta) in spring_runs[seed].items()}
        rows[seed] = mse
        if (mse["hanil"] < mse["hamaml"] < mse["hnn_scratch"]
                and mse["hanil"] <= 0.1 * mse["hnn_pretrained"]):
            wins += 1
    detail = "; ".join(
        f"seed {s}: " + " ".join(f"{k}={v:.1f}" for k, v in rows[s].items())
        for s in DESK_SEEDS)
    print(f"criterion 4: ordering held on {wins}/3 seeds ({detail})")
    assert wins >= 2, (
        f"MSE(hanil) < MSE(hamaml) < MSE(scratch) with "
        f"hanil <= 0.1*pretrained held on {wins}/3 seeds. {detail}. "
        f"Measured on spring_mass, seed 0: the second-order meta-gradient "
        f"matches central differences at desk size (relative error <= "
        f"6e-8); hanil scores 211.0 under the eval rule (10 masked Adam "
        f"steps) but 29.6 under the training rule (5 masked GD steps), and "
        f"the meta-loss is still falling at episode 99.")


def test_criterion_5_learning_curve_trends(pendulum_hanil):
    learner, theta = pendulum_hanil
    seed = DESK_SEEDS[0]
    suite = make_meta_test_suite("pendulum", "points", 50, seed, 10)
    hanil_curve = learning_curve(learner, theta, suite, 50, 0.002)
    scratch = build_learner("hnn_scratch")
    scratch_curve = learning_curve(scratch, init_params(scratch.spec, seed),
                                   suite, 50, 0.002)
    f_hanil = hanil_curve[0] / hanil_curve[50]
    f_scratch = scratch_curve[0] / scratch_curve[50]
    print(f"criterion 5: hanil improvement {f_hanil:.2f}x (need >= 10), "
          f"scratch improvement {f_scratch:.2f}x (need < 2)")
    assert f_scratch < 2.0, \
        f"scratch improved {f_scratch:.2f}x over 50 steps, expected < 2x"
    assert f_hanil >= 10.0, (
        f"hanil improved {f_hanil:.2f}x from step 0 ({hanil_curve[0]:.2f}) "
        f"to step 50 ({hanil_curve[50]:.2f}), criterion needs >= 10x. "
        f"Measured on spring_mass, seed 0: hanil scores 211.0 under the eval "
        f"rule (10 masked Adam steps) but 29.6 under the training rule (5 "
        f"masked GD steps), and the meta-loss is still falling at episode "
        f"99.")


def test_criterion_6_task_count_ablation_trend():
    seed = DESK_SEEDS[0]
    table = ablation_tasks(["hanil", "hnn_pretrained"], [50, DESK_TASKS],
                           "pendulum", "points", 50, seed, InnerConfig(),
                           OuterConfig(), n_points=DESK_POINTS)
    h50 = table["hanil"][50].mean()
    h1k = table["hanil"][DESK_TASKS].mean()
    p50 = table["hnn_pretrained"][50].mean()
    p1k = table["hnn_pretrained"][DESK_TASKS].mean()
    f_hanil = h50 / h1k
    f_pre = max(p50, p1k) / min(p50, p1k)
    print(f"criterion 6: hanil 50t {h50:.2f} -> 1000t {h1k:.2f} "
          f"(factor {f_hanil:.3f}), pretrained change {f_pre:.3f}")
    assert h1k < h50, f"hanil MSE at 1000 tasks {h1k:.2f} !< 50 tasks {h50:.2f}"
    assert f_pre < f_hanil, (
        f"pretrained changed {f_pre:.3f}x across task counts, not less than "
        f"hanil's improvement factor {f_hanil:.3f}x. Measured on "
        f"spring_mass, seed 0: over 100 episodes meta-training raises the "
        f"head Hessian's condition number from 2.5e9 to 1.2e11.")


def test_criterion_7_points_beat_matched_trajectories(spring_runs):
    wins = 0
    detail = []
    for seed in DESK_SEEDS:
        learner, theta = spring_runs[seed]["hanil"]
        points = make_meta_test_suite("spring_mass", "points", 25, seed, 10)
        trajs = make_meta_test_suite("spring_mass", "trajectories", 5, seed, 10)
        mp = adapt_and_eval(learner, theta, points, 10, 0.002).mean()
        mt = adapt_and_eval(learner, theta, trajs, 10, 0.002).mean()
        wins += mp <= mt
        detail.append(f"seed {seed}: points {mp:.1f} vs trajectories {mt:.1f}")
    print(f"criterion 7: points <= trajectories on {wins}/3 seeds "
          f"({'; '.join(detail)})")
    assert wins >= 2, "; ".join(detail)


def test_criterion_8_learned_flow_conserves_its_own_hamiltonian(spring_runs):
    learner, theta = spring_runs[DESK_SEEDS[0]]["hanil"]
    suite = make_meta_test_suite("spring_mass", "points", 50, DESK_SEEDS[0], 10)
    s = suite[0]
    adapted = adapt_params(learner, theta, s.train_x, s.train_xdot, 10, 0.002)
    rng = seeding.split(909, seeding.ROLLOUT, 0)
    x0 = sample_states(s.params, rng, 1)[0]

    def learned_field(x):
        return fastops.predicted_field(learner.spec, adapted, x[None, :])[0]

    X, t_failure = integrate(learned_field, x0, 1.0, 100, rtol=1e-8,
                             atol=1e-10)
    assert t_failure is None, f"1s learned rollout stopped at {t_failure}"
    H = fastops.mlp_forward(learner.spec, adapted,
                            np.vstack([x0, X]))[:, 0]
    drift = float(np.max(np.abs(H - H[0]))) / max(1.0, abs(H[0]))
    print(f"criterion 8: learned-H drift over 1s rollout {drift:.3g} (<1e-5)")
    assert drift < 1e-5, f"H_theta drift {drift:.3g} over its own flow"


def test_criterion_9_cli_pipeline_is_byte_reproducible(tmp_path):
    cfg = "\n".join([
        "system = pendulum",
        "seed = 13",
        "learner = hanil",
        "episodes = 4",
        "task_batch = 2",
        "inner_steps = 2",
        "hidden = 8,8",
        "mode = points",
        "k = 10",
        "n_systems = 3",
        "adapt_steps = 3",
        "strict_serial = true",
    ]) + "\n"
    outputs = []
    for name in ("a", "b"):
        root = tmp_path / name
        root.mkdir()
        (root / "run.cfg").write_text(cfg)
        old = os.getcwd()
        os.chdir(root)  # relative out dirs keep provenance text identical
        try:
            assert main(["gen", "--config", "run.cfg", "--tasks", "30",
                         "--points", "10", "--out", "ds"]) == 0
            assert main(["metatrain", "--config", "run.cfg", "--dataset",
                         "ds", "--out", "train"]) == 0
            assert main(["eval", "--config", "run.cfg", "--checkpoint",
                         "train/checkpoint.json", "--out", "ev"]) == 0
        finally:
            os.chdir(old)
        files = sorted(
            os.path.relpath(os.path.join(dirpath, f), root)
            for dirpath, _, fs in os.walk(root) for f in fs)
        outputs.append((root, files))
    (root_a, files_a), (root_b, files_b) = outputs
    assert files_a == files_b
    mismatch = [f for f in files_a
                if not filecmp.cmp(root_a / f, root_b / f, shallow=False)]
    print(f"criterion 9: {len(files_a)} output files byte-identical "
          f"across reruns (gen + metatrain + eval)")
    assert not mismatch, f"files differ between identical runs: {mismatch}"
