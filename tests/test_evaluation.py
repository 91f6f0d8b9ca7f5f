import dataclasses

import numpy as np
import pytest

from hamlearn import evaluation as E
from hamlearn import fastops
from hamlearn import metalearn as M
from hamlearn.network import (NetworkSpec, init_params, layer_slice,
                              param_count, update_mask)
from hamlearn.physics import (PhysicalParams, hamiltonian_many, integrate,
                              sample_times, true_field_many)
from hamlearn.taskgen import (GridTestSet, MetaTestSystem, build_grid,
                              make_meta_test_suite, sample_params)
from oracle.graph import graph_field


def spring(m=1.0, k=1.0, q0=0.0):
    return PhysicalParams("spring_mass", {"m": m, "k": k, "q0": q0})


def fake_system(params, grid, X, Xdot, mode="points"):
    return MetaTestSystem(params, X, Xdot, grid, mode, X.shape[0])


# -- field_mse -------------------------------------------------------------------


def test_field_mse_zero_for_perfect_predictor():
    spec = NetworkSpec(2, (4,), 2)
    theta = init_params(spec, 1)
    states = np.random.default_rng(0).uniform(-1, 1, (30, 2))
    F = fastops.predicted_field(spec, theta, states)
    grid = GridTestSet(states, F, 0)
    assert E.field_mse(spec, theta, grid) == 0.0


def test_field_mse_zero_for_true_hamiltonian_on_tape():
    rng = np.random.default_rng(4)
    params = sample_params("pendulum", rng)
    grid = build_grid(params, per_axis=7)
    pred = np.array([graph_field(params, s) for s in grid.states])
    R = pred - grid.derivatives
    assert float(np.mean(np.sum(R * R, axis=1))) < 1e-20


def test_field_mse_zero_predictor_matches_direct_sum():
    rng = np.random.default_rng(5)
    params = sample_params("spring_mass", rng)
    grid = build_grid(params, per_axis=9)
    spec = NetworkSpec(2, (4,), 1)
    got = E.field_mse(spec, np.zeros(param_count(spec)), grid)
    want = sum(float(v @ v) for v in grid.derivatives) / grid.states.shape[0]
    assert abs(got - want) < 1e-12 * want


def test_field_mse_empty_grid_rejected():
    spec = NetworkSpec(2, (4,), 1)
    grid = GridTestSet(np.zeros((0, 2)), np.zeros((0, 2)), 0)
    with pytest.raises(ValueError):
        E.field_mse(spec, np.zeros(param_count(spec)), grid)


# -- adaptation ------------------------------------------------------------------


def suite_for(system="spring_mass", n_systems=3, K=8, seed=77):
    return make_meta_test_suite(system, "points", K, seed, n_systems)


def test_adapt_and_eval_never_mutates_meta_params():
    learner = M.build_learner("hanil", hidden=(6,))
    theta = init_params(learner.spec, 0)
    frozen = theta.copy()
    systems = suite_for()
    E.adapt_and_eval(learner, theta, systems, adapt_steps=4)
    np.testing.assert_array_equal(theta, frozen)


def test_adapt_and_eval_aggregation_matches_recomputation():
    learner = M.build_learner("hamaml", hidden=(6,))
    theta = init_params(learner.spec, 3)
    systems = suite_for(n_systems=4)
    rep = E.adapt_and_eval(learner, theta, systems, adapt_steps=3)
    per = []
    for s in systems:
        th = E.adapt_params(learner, theta, s.train_x, s.train_xdot, 3)
        per.append(E.field_mse(learner.spec, th, s.grid))
    assert rep.mse_mean == float(np.mean(per))
    assert rep.mse_std == float(np.std(per))  # population convention
    assert rep.n_systems == 4 and rep.adapt_steps == 3
    assert rep.learner == "hamaml" and rep.system == "spring_mass"
    assert rep.mode == "points" and rep.k == 8


def test_adapt_step_zero_evaluates_raw_initialization():
    learner = M.build_learner("hanil", hidden=(5,))
    theta = init_params(learner.spec, 9)
    systems = suite_for(n_systems=2)
    rep = E.adapt_and_eval(learner, theta, systems, adapt_steps=0)
    direct = np.mean([E.field_mse(learner.spec, theta, s.grid)
                      for s in systems])
    assert rep.mse_mean == float(direct)


def test_adapt_respects_update_set():
    learner = M.build_learner("hanil", hidden=(5, 4))
    theta = init_params(learner.spec, 11)
    s = suite_for(n_systems=1)[0]
    th = E.adapt_params(learner, theta, s.train_x, s.train_xdot, steps=6)
    for layer in (0, 1):
        sl = layer_slice(learner.spec, layer)
        np.testing.assert_array_equal(th[sl], theta[sl])
    head = layer_slice(learner.spec, 2)
    assert not np.array_equal(th[head], theta[head])
    full = M.build_learner("hamaml", hidden=(5, 4))
    th2 = E.adapt_params(full, theta, s.train_x, s.train_xdot, steps=6)
    for layer in (0, 1, 2):
        sl = layer_slice(full.spec, layer)
        assert not np.array_equal(th2[sl], theta[sl])


def test_perfectly_fitted_system_stays_at_zero_mse():
    # gradient is exactly zero when labels equal predictions, so any
    # number of adaptation steps leaves the parameters alone
    learner = M.build_learner("naive_maml", hidden=(4,))
    theta = init_params(learner.spec, 13)
    rng = np.random.default_rng(13)
    Xtr = rng.uniform(-1, 1, (10, 2))
    Xg = rng.uniform(-1, 1, (40, 2))
    sysm = fake_system(
        spring(), GridTestSet(Xg, fastops.predicted_field(
            learner.spec, theta, Xg), 0),
        Xtr, fastops.predicted_field(learner.spec, theta, Xtr))
    for steps in (0, 1, 10):
        rep = E.adapt_and_eval(learner, theta, [sysm], adapt_steps=steps)
        assert rep.mse_mean == 0.0


def test_adaptation_reduces_mse_on_real_system():
    learner = M.build_learner("hamaml", hidden=(12,))
    theta = init_params(learner.spec, 21)
    systems = suite_for(n_systems=2, K=20, seed=5)
    r0 = E.adapt_and_eval(learner, theta, systems, adapt_steps=0)
    r40 = E.adapt_and_eval(learner, theta, systems, adapt_steps=40)
    assert r40.mse_mean < r0.mse_mean


def test_report_json_roundtrip():
    import json
    rep = E.EvalReport("hanil", "pendulum", "points", 50, 0.25, 0.1, 10, 10)
    back = json.loads(rep.to_json())
    assert back == {"learner": "hanil", "system": "pendulum",
                    "mode": "points", "k": 50, "mse_mean": 0.25,
                    "mse_std": 0.1, "n_systems": 10, "adapt_steps": 10}


# -- learning curves --------------------------------------------------------------


def test_learning_curve_consistency_with_adapt_and_eval():
    learner = M.build_learner("hanil", hidden=(6,))
    theta = init_params(learner.spec, 31)
    systems = suite_for(n_systems=2, seed=31)
    curve = E.learning_curve(learner, theta, systems, max_steps=5)
    assert curve.shape == (6,)
    for step in (0, 2, 5):
        rep = E.adapt_and_eval(learner, theta, systems, adapt_steps=step)
        assert curve[step] == rep.mse_mean


def test_learning_curve_validation():
    learner = M.build_learner("hanil", hidden=(4,))
    with pytest.raises(ValueError):
        E.learning_curve(learner, init_params(learner.spec, 0),
                         suite_for(n_systems=1), max_steps=0)
    with pytest.raises(ValueError, match="no meta-test systems"):
        E.learning_curve(learner, init_params(learner.spec, 0), [],
                         max_steps=2)


# -- one lattice per suite --------------------------------------------------------


def _with_own_lattice(system):
    """The same system scored on a private copy of its lattice."""
    g = system.grid
    return dataclasses.replace(system, grid=GridTestSet(
        g.states.copy(), g.derivatives, g.per_axis))


@pytest.mark.parametrize("kind", ["hanil", "naive_anil"])
def test_shared_lattice_scores_equal_per_system_lattices(kind):
    learner = M.build_learner(kind, hidden=(8, 8))
    theta = init_params(learner.spec, 51)
    shared = suite_for(n_systems=3, seed=51)
    own = [_with_own_lattice(s) for s in shared]
    assert own[0].grid.states is not own[1].grid.states
    assert (E.adapt_and_eval(learner, theta, shared, adapt_steps=4)
            == E.adapt_and_eval(learner, theta, own, adapt_steps=4))
    assert (E.learning_curve(learner, theta, shared, max_steps=4).tobytes()
            == E.learning_curve(learner, theta, own, max_steps=4).tobytes())


def test_head_features_built_once_per_lattice(monkeypatch):
    rows = []
    real = fastops.head_features

    def counting(spec, params, X, *args, **kw):
        rows.append(X.shape[0])
        return real(spec, params, X, *args, **kw)

    monkeypatch.setattr(fastops, "head_features", counting)
    learner = M.build_learner("hanil", hidden=(6,))
    theta = init_params(learner.spec, 52)
    shared = suite_for(n_systems=10, K=5, seed=52)
    E.adapt_and_eval(learner, theta, shared, adapt_steps=1)
    # one grid build (2500 rows), then one per system's observations
    assert rows == [2500] + [5] * 10
    rows.clear()
    E.adapt_and_eval(learner, theta, [_with_own_lattice(s) for s in shared],
                     adapt_steps=1)
    assert len(rows) == 20


def _generic_adam_path(learner, theta, X, Xdot, steps, lr):
    """theta after 0..steps masked Adam steps on full `loss_grad`s."""
    mask = update_mask(learner.spec, learner.inner.update_set)
    theta = np.array(theta)
    sub = theta[mask]
    adam = M.adam_init(sub.size)
    path = [theta.copy()]
    for _ in range(steps):
        _, grad, _ = fastops.loss_grad(learner.spec, theta, X, Xdot)
        sub, adam = M.adam_update(adam, sub, grad[mask], lr)
        theta[mask] = sub
        path.append(theta.copy())
    return path


@pytest.mark.parametrize("kind", ["hanil", "naive_anil"])
def test_head_space_adaptation_matches_generic_masked_adam(kind):
    learner = M.build_learner(kind, hidden=(16, 16))
    theta = init_params(learner.spec, 41)
    systems = suite_for(n_systems=2, K=20, seed=41)
    steps = 12
    curve = E.learning_curve(learner, theta, systems, max_steps=steps)
    per_step = np.zeros(steps + 1)
    for s in systems:
        path = _generic_adam_path(learner, theta, s.train_x, s.train_xdot,
                                  steps, E.ADAPT_LR)
        got = E.adapt_params(learner, theta, s.train_x, s.train_xdot, steps)
        assert np.abs(got - path[-1]).max() <= 1e-12 * np.abs(path[-1]).max()
        per_step += [E.field_mse(learner.spec, th, s.grid) for th in path]
    want = per_step / len(systems)
    assert np.all(np.abs(curve - want) <= 1e-12 * want)
    assert curve[-1] < curve[0]


def _q_squared_field(spec, params, X):
    return np.stack([X[:, 0] ** 2, np.zeros(X.shape[0])], axis=1)


def test_rollout_keeps_every_sample_the_learned_field_reached(monkeypatch):
    # xdot = (q^2, 0) from q = 1 blows up at t = 1, the tenth sample time
    calls = []

    def counted(field, x0, T_span, samples, **kw):
        calls.append((field, T_span, samples))
        return integrate(field, x0, T_span, samples, **kw)

    monkeypatch.setattr(E, "integrate", counted)
    monkeypatch.setattr(fastops, "predicted_field", _q_squared_field)
    params = spring()
    report = E.rollout_eval(NetworkSpec(2, (1,), 1), None, params,
                            np.array([1.0, 0.5]), T_span=20.0, samples=200)
    Xp, Xt = report.pred_states, report.true_states
    assert report.times.shape == (10,)
    np.testing.assert_array_equal(report.times, sample_times(20.0, 200)[:10])
    assert report.failure_time == 1.0
    learned = [c for c in calls if c[0] is not calls[-1][0]]
    assert [(T, L) for _, T, L in learned] == [(20.0, 200)]
    # q(t) = 1 / (1 - t) before the blow-up at the last sample
    np.testing.assert_allclose(Xp[:9, 0], 1.0 / (1.0 - report.times[:9]),
                               rtol=1e-6)
    assert Xt.shape == (10, 2)


# -- rollouts ---------------------------------------------------------------------


def hnn_fit_to(params, seed=0, steps=400, n=60, hidden=(16,)):
    # small net trained directly on one system's field, for rollout tests
    spec = NetworkSpec(2, hidden, 1)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (n, 2))
    Xdot = true_field_many(params, X)
    theta = init_params(spec, seed)
    adam = M.adam_init(theta.size)
    for _ in range(steps):
        _, g, _ = fastops.loss_grad(spec, theta, X, Xdot)
        theta, adam = M.adam_update(adam, theta, g, 0.01)
    return spec, theta


def test_rollout_true_field_is_noise_level():
    # spec None, the oracle, integrates the analytic field on both sides
    params = spring(m=1.3, k=0.7)
    report = E.rollout_eval(None, None, params, np.array([1.0, 0.0]),
                            T_span=5.0, samples=50)
    assert report.failure_time is None
    assert report.times.shape == (50,)
    assert np.all(report.state_mse < 1e-10)
    assert np.all(report.energy_mse < 1e-10)


def test_rollout_zero_field_matches_harmonic_closed_form():
    params = spring()  # m = k = 1: q(t) = cos t, p(t) = -sin t from (1, 0)
    spec = NetworkSpec(2, (3,), 2)
    theta = np.zeros(param_count(spec))
    report = E.rollout_eval(spec, theta, params, np.array([1.0, 0.0]),
                            T_span=6.0, samples=30)
    t = report.times
    want = (1.0 - np.cos(t)) ** 2 + np.sin(t) ** 2
    np.testing.assert_allclose(report.state_mse, want, atol=1e-8)
    # frozen state has the true energy of x0; truth conserves it
    assert np.all(report.energy_mse < 1e-12)


def test_rollout_fitted_net_tracks_truth_briefly():
    params = spring(m=1.1, k=1.4)
    spec, theta = hnn_fit_to(params, seed=3)
    report = E.rollout_eval(spec, theta, params, np.array([0.8, 0.3]),
                            T_span=2.0, samples=20)
    assert report.failure_time is None
    assert report.state_mse[0] < 1e-2
    assert np.all(np.isfinite(report.energy_mse))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rollout_blowup_reports_failure_time():
    # hand-built naive net: qdot ~ 100 q for q > 0, exponential escape
    spec = NetworkSpec(2, (1,), 2)
    theta = np.zeros(param_count(spec))
    theta[0] = 10.0   # W0[0, 0]
    theta[3] = 10.0   # W1[0, 0] -> qdot
    theta[4] = 10.0   # W1[0, 1] -> pdot
    report = E.rollout_eval(spec, theta, spring(), np.array([1.0, 0.0]),
                            T_span=20.0, samples=100)
    assert report.failure_time is not None
    assert 0.0 < report.failure_time <= 20.0
    assert report.times.shape == report.state_mse.shape == report.energy_mse.shape
    if report.times.size:
        assert report.times[-1] < report.failure_time
        assert np.all(report.state_mse >= 0)  # may overflow near the blow-up


def test_rollout_stops_where_the_true_orbit_fails():
    # a zero network holds x0 still, while the true orbit falls from rest
    # straight into the centre and crosses the evaluation guard near t = 1.1
    params = PhysicalParams("kepler", {"M": 1, "m": 1, "q0x": 0, "q0y": 0})
    spec = NetworkSpec(4, (3,), 1)
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    report = E.rollout_eval(spec, np.zeros(param_count(spec)), params, x0,
                            T_span=5.0, samples=50)
    assert report.failure_time is not None
    assert 1.0 < report.failure_time < 1.2
    n = report.times.size
    assert 0 < n < 50 and report.times[-1] <= report.failure_time
    assert report.true_states.shape == (n, 4)
    np.testing.assert_array_equal(report.pred_states, np.tile(x0, (n, 1)))
    assert report.state_mse.shape == report.energy_mse.shape == (n,)


@pytest.mark.filterwarnings("error")
def test_rollout_stops_before_an_overflowing_energy():
    # H_true(1e308, 1e308) overflows at every sample, although both
    # integrations reach T: nothing is scored, and no warning escapes
    params = PhysicalParams("pendulum", {"m": 1, "l": 10, "q0": 0})
    report = E.rollout_eval(None, None, params, np.array([1e308, 1e308]),
                            T_span=1.0, samples=5)
    assert report.times.size == report.state_mse.size == 0
    assert report.energy_mse.size == report.pred_states.size == 0
    assert report.failure_time == 0.2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("params,x0,velocity,first_bad", [
    # |q| grows without bound while the Kepler H stays finite: the state
    # error overflows first, at t = 1.4
    (PhysicalParams("kepler", {"M": 1, "m": 1, "q0x": 0, "q0y": 0}),
     [1.0, 0.0, 0.0, 1.0], [1e154, 0.0, 0.0, 0.0], 6),
    # a finite spring H whose squared error overflows at t = 1.8
    (spring(), [1.0, 0.0], [1e77, 0.0], 8),
], ids=["state_mse", "energy_mse"])
def test_rollout_stops_before_an_overflowing_error(monkeypatch, params, x0,
                                                   velocity, first_bad):
    # the learned field is a constant drift; both integrations reach T
    monkeypatch.setattr(fastops, "predicted_field", lambda spec, theta, X:
                        np.tile(velocity, (X.shape[0], 1)))
    report = E.rollout_eval(NetworkSpec(len(x0), (1,), 1), None, params,
                            np.array(x0), T_span=2.0, samples=10)
    times = sample_times(2.0, 10)
    np.testing.assert_array_equal(report.times, times[:first_bad])
    assert report.failure_time == times[first_bad]
    for series in (report.state_mse, report.energy_mse, report.pred_states,
                   report.true_states):
        assert len(series) == first_bad and np.isfinite(series).all()


# -- structural property -----------------------------------------------------------


def test_hnn_field_is_symplectically_divergence_free():
    spec = NetworkSpec(2, (10, 8), 1)
    theta = init_params(spec, 8)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-2, 2, (50, 2))
    h = 1e-5
    scale = np.abs(fastops.predicted_field(spec, theta, pts)).max()

    def div(spec_, th_, x):
        eq = np.array([h, 0.0])
        ep = np.array([0.0, h])
        dq = (fastops.predicted_field(spec_, th_, (x + eq)[None])[0, 0]
              - fastops.predicted_field(spec_, th_, (x - eq)[None])[0, 0])
        dp = (fastops.predicted_field(spec_, th_, (x + ep)[None])[0, 1]
              - fastops.predicted_field(spec_, th_, (x - ep)[None])[0, 1])
        return (dq + dp) / (2 * h)

    worst = max(abs(div(spec, theta, x)) for x in pts)
    assert worst < 1e-4 * scale
    # a generic field-valued net has no such structure
    nspec = NetworkSpec(2, (10, 8), 2)
    ntheta = init_params(nspec, 8)
    nworst = max(abs(div(nspec, ntheta, x)) for x in pts)
    assert nworst > 100 * worst


# -- ablation ---------------------------------------------------------------------


def test_ablation_smoke_and_ordering_guard():
    inner = M.InnerConfig(steps=2)
    outer = M.OuterConfig(episodes=2, task_batch=2)
    table = E.ablation_tasks(
        ["hanil", "hnn_scratch"], [2, 4], "spring_mass", "points", K=4,
        seed=17, inner_cfg=inner, outer_cfg=outer, n_points=6, n_systems=2,
        hidden=(5,), adapt_steps=2)
    assert set(table) == {"hanil", "hnn_scratch"}
    for kind in table:
        assert sorted(table[kind]) == [2, 4]
        for rep in table[kind].values():
            assert np.isfinite(rep.mse_mean) and rep.mse_mean >= 0
            assert rep.n_systems == 2
    with pytest.raises(ValueError):
        E.ablation_tasks(["hanil"], [4, 2], "spring_mass", "points", K=4,
                         seed=17, inner_cfg=inner, outer_cfg=outer)
