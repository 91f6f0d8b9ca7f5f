"""Meta-test evaluation: grid MSEs, adaptation protocols, rollouts, ablations.

Adaptation at evaluation time uses Adam (lr 0.002, 10 steps by default) and
respects the learner's update set, so head-only learners stay head-only at
test time.  Energy error along a rollout is always measured with the TRUE
Hamiltonian on both trajectories: the learned one is only defined up to an
additive constant, so comparing H_theta against H_true directly would be
meaningless.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import fastops, seeding
from .metalearn import (InnerConfig, LearnerDef, OuterConfig, adam_init,
                        adam_update, adaptation_objective, build_learner,
                        head_only, train_learner)
from .network import init_params
from .physics import (DOF, IntegrationError, PhysicalParams, field_fn,
                      hamiltonian_many, integrate, sample_times)
from .taskgen import GridTestSet, make_meta_test_suite, make_meta_train

ADAPT_STEPS = 10
ADAPT_LR = 0.002


@dataclass(frozen=True)
class EvalReport:
    learner: str
    system: str
    mode: str
    k: int
    mse_mean: float
    mse_std: float
    n_systems: int
    adapt_steps: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True,
                          allow_nan=False)


@dataclass(frozen=True)
class RolloutReport:
    times: np.ndarray
    state_mse: np.ndarray
    energy_mse: np.ndarray
    pred_states: np.ndarray  # the learner's trajectory at `times`
    true_states: np.ndarray  # the true trajectory at `times`
    failure_time: float | None = None


def field_mse(spec, params, grid: GridTestSet,
              features: fastops.HeadFeatures | None = None) -> float:
    """Mean squared field error over the evaluation lattice.

    `features`, the head features of grid.states at params' body, give the
    field as phi times the last layer instead of a pass through the net.
    """
    if grid.states.shape[0] == 0:
        raise ValueError("empty grid")
    if features is None:
        F = fastops.predicted_field(spec, params, grid.states)
    elif features.X is not grid.states:
        raise ValueError("features were built on another grid")
    else:
        F = features.field(params)
    R = F - grid.derivatives
    mse = float(np.mean(np.sum(R * R, axis=1)))
    if not np.isfinite(mse):
        raise FloatingPointError("non-finite grid MSE")
    return mse


def _adam_path(learner: LearnerDef, theta, X, Xdot, steps: int, lr: float):
    """Yield theta after 0, 1, ..., steps masked Adam steps on one system's
    observations; every yield is the same array, updated in place.  A
    head-only learner steps in head space on features built once."""
    theta = np.array(theta, np.float64)
    sel, fn = adaptation_objective(learner.spec, theta, X, Xdot,
                                   learner.inner.update_set)
    sub = theta[sel]
    adam = adam_init(sub.size)
    yield theta
    for step in range(steps):
        loss, grad = fn(theta)[:2]  # no linearization outlives its step
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise FloatingPointError(
                f"non-finite adaptation loss or gradient at step {step}")
        sub, adam = adam_update(adam, sub, grad, lr)
        theta[sel] = sub
        yield theta


def _with_grid_features(learner: LearnerDef, theta, systems):
    """Yield (system, head features of its lattice) for a head-only learner,
    else (system, None).  Features are rebuilt only when a system's lattice
    is another array object than the one before it."""
    if len(systems) == 0:
        raise ValueError("no meta-test systems")
    features = None
    for s in systems:
        if (head_only(learner.inner.update_set) and s.grid.states.shape[0] > 0
                and (features is None or features.X is not s.grid.states)):
            features = fastops.head_features(learner.spec, theta,
                                             s.grid.states, keep_state=False)
        yield s, features


def adapt_params(learner: LearnerDef, theta, X, Xdot,
                 steps: int = ADAPT_STEPS, lr: float = ADAPT_LR) -> np.ndarray:
    """Adam-adapt a copy of theta on one system's observations."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    for theta in _adam_path(learner, theta, X, Xdot, steps, lr):
        pass
    return theta


def adapt_and_eval(learner: LearnerDef, theta_meta, systems,
                   adapt_steps: int = ADAPT_STEPS,
                   adapt_lr: float = ADAPT_LR) -> EvalReport:
    """Adapt to each held-out system, score on its grid, aggregate.

    theta_meta is never mutated; each system adapts its own copy.  The
    reported spread is the population std of the per-system MSEs.
    """
    per = []
    for s, features in _with_grid_features(learner, theta_meta, systems):
        th = adapt_params(learner, theta_meta, s.train_x, s.train_xdot,
                          adapt_steps, adapt_lr)
        per.append(field_mse(learner.spec, th, s.grid, features))
    per = np.asarray(per)
    return EvalReport(learner.kind, systems[0].params.system, systems[0].mode,
                      int(systems[0].k), float(per.mean()), float(per.std()),
                      len(systems), int(adapt_steps))


def learning_curve(learner: LearnerDef, theta_meta, systems,
                   max_steps: int = 50, adapt_lr: float = ADAPT_LR) -> np.ndarray:
    """Mean grid MSE after 0..max_steps adaptation steps (length max_steps+1)."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    curves = np.empty((len(systems), max_steps + 1))
    for i, (s, features) in enumerate(
            _with_grid_features(learner, theta_meta, systems)):
        path = _adam_path(learner, theta_meta, s.train_x, s.train_xdot,
                          max_steps, adapt_lr)
        for step, theta in enumerate(path):
            curves[i, step] = field_mse(learner.spec, theta, s.grid, features)
    return curves.mean(axis=0)


def _reached(field, x0, T_span: float, samples: int):
    """(states integrate reached, failure time or None)."""
    try:
        return integrate(field, x0, T_span, samples)[1], None
    except IntegrationError as err:
        return err.states, err.t_failure


def rollout_eval(spec, params_adapted, true_params: PhysicalParams, x0,
                 T_span: float = 20.0, samples: int = 200) -> RolloutReport:
    """Integrate the learner's field against the true flow from x0.

    state_mse(t) = ||x_pred(t) - x_true(t)||^2 and energy_mse(t) =
    (H_true(x_pred) - H_true(x_true))^2 at t_k = k * T / samples.  A
    non-finite value ends what can be scored: the series stop at the last
    sample both integrations reached, and before the first sample whose
    states, state_mse or energy_mse are not all finite (the true H is NaN
    inside the Kepler guard).  failure_time is the earliest of that
    sample's time and the two integrations' failure times, None if no
    series stopped early.

    spec None (the oracle) integrates the true field on both sides, which
    bounds the integrator noise floor of the two MSE series.  Both sides
    run at the data-generation tolerances, `integrate`'s defaults, so that
    integrator noise sits far below the 1e-10 scale the reports are read at.
    """
    x0 = np.asarray(x0, np.float64)

    if spec is None:
        pred_field = field_fn(true_params)
    else:
        def pred_field(x):
            return fastops.predicted_field(spec, params_adapted,
                                           x[None, :])[0]

    with np.errstate(all="ignore"):  # a non-finite value ends the series
        Xp, failure = _reached(pred_field, x0, T_span, samples)
        n = Xp.shape[0]
        Xt, true_failure = (_reached(field_fn(true_params), x0,
                                     n * T_span / samples, n)
                            if n else (Xp, None))
        Xp = Xp[: len(Xt)]
        state_mse = np.sum((Xp - Xt) ** 2, axis=1)
        energy_mse = (hamiltonian_many(true_params, Xp)
                      - hamiltonian_many(true_params, Xt)) ** 2
    finite = np.isfinite(np.column_stack([Xp, Xt, state_mse, energy_mse]))
    bad = np.flatnonzero(~finite.all(axis=1))
    kept = int(bad[0]) if bad.size else len(Xt)
    times = sample_times(T_span, samples)
    stops = [t for t in (failure, true_failure) if t is not None]
    stops += [float(times[kept])] if bad.size else []
    return RolloutReport(times[:kept], state_mse[:kept], energy_mse[:kept],
                         Xp[:kept], Xt[:kept], min(stops, default=None))


def ablation_tasks(kinds, task_counts, system: str, mode: str, K: int,
                   seed: int, inner_cfg: InnerConfig, outer_cfg: OuterConfig,
                   n_points: int = 50, n_systems: int = 10,
                   hidden=(64, 64, 64), adapt_steps: int = ADAPT_STEPS,
                   adapt_lr: float = ADAPT_LR):
    """Meta-train each kind at each pool size; score all on one shared suite.

    Returns {kind: {count: EvalReport}}.  Counts must be ascending; each
    (kind, count) cell trains from its own freshly seeded initialization.
    """
    task_counts = list(task_counts)
    if task_counts != sorted(task_counts) or len(set(task_counts)) != len(task_counts):
        raise ValueError("task_counts must be strictly ascending")
    suite = make_meta_test_suite(system, mode, K, seed, n_systems)
    state_dim = 2 * DOF[system]
    table = {}
    for j, kind in enumerate(kinds):
        learner = build_learner(kind, state_dim, hidden, inner_cfg)
        table[kind] = {}
        for i, count in enumerate(task_counts):
            sub_seed = int(seeding.split(seed, seeding.ABLATE, i, j)
                           .integers(2 ** 63))
            pool = make_meta_train(system, count, n_points, seed=sub_seed)
            theta, _, _ = train_learner(learner,
                                        init_params(learner.spec, sub_seed),
                                        pool, outer_cfg, sub_seed)
            table[kind][count] = adapt_and_eval(learner, theta, suite,
                                                adapt_steps, adapt_lr)
    return table
