"""Task sampling and dataset construction.

A task is one physical system: parameters drawn uniformly from the
per-system boxes below, plus train/test sets of exact (x, xdot) pairs.
Meta-test systems come in two observation modes: `points` (K independent
states) and `trajectories` (K short rollouts contributing L samples each,
with derivatives recomputed analytically at the sampled states).  Their
test surface is a full lattice over the sampling region.

Datasets serialize as one CSV per task plus a JSON manifest; floats are
written with repr so a parse round-trips to the exact same doubles.
"""

from __future__ import annotations

import functools
import json
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import SYSTEMS, seeding
from .physics import (DOF, PARAM_NAMES, KEPLER_MIN_SEP_SAMPLE,
                      KEPLER_MIN_SEP_EVAL, IntegrationError, PhysicalParams,
                      field_fn, integrate, true_field_many)

PARAM_RANGES = {
    "spring_mass": ((0.5, 5.0), (0.5, 5.0), (-5.0, 5.0)),
    "pendulum": ((0.5, 5.0), (0.5, 5.0), (-np.pi, np.pi)),
    "kepler": ((0.5, 2.5), (0.5, 2.5), (-2.5, 2.5), (-2.5, 2.5)),
}

STATE_RANGES = {
    "spring_mass": ((-10.0, 10.0), (-10.0, 10.0)),
    "pendulum": ((-2 * np.pi, 2 * np.pi), (-20.0, 20.0)),
    "kepler": ((-5.0, 5.0),) * 4,
}

# lattice resolution per axis for the evaluation grid
GRID_PER_AXIS = {"spring_mass": 50, "pendulum": 50, "kepler": 10}

# a trajectories-mode rollout: TRAJ_SAMPLES samples over TRAJ_SPAN seconds
TRAJ_SAMPLES = 5
TRAJ_SPAN = 1.0

# a meta-test Kepler system must keep every lattice q-point clear of the
# evaluation guard, with margin
_GRID_CLEARANCE = KEPLER_MIN_SEP_EVAL + 0.05

_REJECT_FACTOR = 1000  # rejection budget multiplier for state sampling

DATASET_FORMAT_VERSION = 1


@dataclass
class Task:
    params: PhysicalParams
    train_x: np.ndarray
    train_xdot: np.ndarray
    test_x: np.ndarray
    test_xdot: np.ndarray


@dataclass
class GridTestSet:
    states: np.ndarray       # (G, 2n) lattice over the sampling region
    derivatives: np.ndarray  # true field at each lattice point
    per_axis: int


@dataclass
class MetaTestSystem:
    params: PhysicalParams
    train_x: np.ndarray
    train_xdot: np.ndarray
    grid: GridTestSet
    mode: str
    k: int


def sample_params(system: str, rng: np.random.Generator) -> PhysicalParams:
    """Uniform draw from the per-system parameter box."""
    if system not in PARAM_RANGES:
        raise ValueError(f"unknown system {system!r}")
    vals = [rng.uniform(lo, hi) for lo, hi in PARAM_RANGES[system]]
    return PhysicalParams.from_vector(system, vals)


def _separation(params: PhysicalParams, X: np.ndarray) -> np.ndarray:
    """|q - q0| of each Kepler state (row) of X."""
    return np.hypot(X[:, 0] - params.values["q0x"],
                    X[:, 1] - params.values["q0y"])


def sample_states(params: PhysicalParams, rng: np.random.Generator,
                  count: int) -> np.ndarray:
    """Uniform states (count, 2n); Kepler rejects |q - q0| < 0.5."""
    if count < 1:
        raise ValueError("count must be >= 1")
    ranges = STATE_RANGES[params.system]
    lo = np.array([r[0] for r in ranges])
    hi = np.array([r[1] for r in ranges])
    if params.system != "kepler":
        return rng.uniform(lo, hi, (count, len(ranges)))
    out = np.empty((count, 4))
    have = 0
    budget = _REJECT_FACTOR * count
    while have < count:
        if budget <= 0:
            raise RuntimeError("state sampling rejection budget exceeded")
        draw = rng.uniform(lo, hi, (count - have, 4))
        keep = draw[_separation(params, draw) >= KEPLER_MIN_SEP_SAMPLE]
        out[have : have + keep.shape[0]] = keep
        have += keep.shape[0]
        budget -= count - have
    return out


def make_task(params: PhysicalParams, rng: np.random.Generator,
              n_points: int = 50) -> Task:
    """Independent train/test sets of exact (x, xdot) pairs."""
    train_x = sample_states(params, rng, n_points)
    test_x = sample_states(params, rng, n_points)
    return Task(params, train_x, true_field_many(params, train_x),
                test_x, true_field_many(params, test_x))


def make_meta_train(system: str, n_tasks: int = 10000, n_points: int = 50,
                    seed: int = 0) -> list:
    """Meta-train pool; task i is derived from split(seed, TASK, i)."""
    if n_tasks < 1 or n_points < 1:
        raise ValueError("n_tasks and n_points must be >= 1")
    tasks = []
    for i in range(n_tasks):
        rng = seeding.split(seed, seeding.TASK, i)
        tasks.append(make_task(sample_params(system, rng), rng, n_points))
    return tasks


@functools.lru_cache(maxsize=None)
def _lattice(system: str, per_axis: int) -> np.ndarray:
    """The read-only (per_axis^2n, 2n) lattice, one array per (system,
    per_axis), so every system of a suite scores on the same object."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in STATE_RANGES[system]]
    mesh = np.meshgrid(*axes, indexing="ij")
    states = np.stack([m.ravel() for m in mesh], axis=1)
    states.flags.writeable = False
    return states


def build_grid(params: PhysicalParams, per_axis: int | None = None) -> GridTestSet:
    """Evenly spaced lattice spanning the sampling region, with true fields."""
    per_axis = per_axis or GRID_PER_AXIS[params.system]
    states = _lattice(params.system, per_axis)
    return GridTestSet(states, true_field_many(params, states), per_axis)


def _grid_safe(params: PhysicalParams) -> bool:
    """Kepler only: is every lattice q-point clear of the 1/r guard?"""
    if params.system != "kepler":
        return True
    sep = _separation(params, _lattice("kepler", GRID_PER_AXIS["kepler"]))
    return bool(sep.min() >= _GRID_CLEARANCE)


def _sample_trajectory_pairs(params: PhysicalParams, rng: np.random.Generator,
                             K: int):
    """K short rollouts; analytic labels at the sampled states."""
    xs = []
    f = field_fn(params)
    for _ in range(K):
        for attempt in range(50):
            x0 = sample_states(params, rng, 1)[0]
            try:
                _, X = integrate(f, x0, TRAJ_SPAN, TRAJ_SAMPLES)
            except IntegrationError:
                continue  # blow-up: draw a fresh initial state
            if (params.system == "kepler"
                    and _separation(params, X).min() < KEPLER_MIN_SEP_SAMPLE):
                continue  # passed too close: these are training points
            xs.append(X)
            break
        else:
            raise RuntimeError("trajectory resampling budget exceeded")
    states = np.vstack(xs)
    return states, true_field_many(params, states)


def make_meta_test(system: str, mode: str, K: int,
                   rng: np.random.Generator) -> MetaTestSystem:
    """One held-out system: K-shot observations plus the lattice test set.

    points mode: K independent (x, xdot) pairs.  trajectories mode: K
    rollouts of TRAJ_SPAN seconds, each sampled at t_k = k*T/L for
    L = TRAJ_SAMPLES, so K*L pairs.
    """
    if mode not in ("points", "trajectories"):
        raise ValueError(f"mode must be points|trajectories, got {mode!r}")
    if K < 1:
        raise ValueError("K must be >= 1")
    for attempt in range(200):
        params = sample_params(system, rng)
        if _grid_safe(params):
            break
    else:
        raise RuntimeError("could not sample grid-safe system parameters")
    if mode == "points":
        train_x = sample_states(params, rng, K)
        train_xdot = true_field_many(params, train_x)
    else:
        train_x, train_xdot = _sample_trajectory_pairs(params, rng, K)
    return MetaTestSystem(params, train_x, train_xdot, build_grid(params),
                          mode, K)


def make_meta_test_suite(system: str, mode: str, K: int, seed: int,
                         n_systems: int = 10) -> list:
    """The held-out systems used by one evaluation, independently seeded."""
    return [make_meta_test(system, mode, K,
                           seeding.split(seed, seeding.TEST_SYSTEM, i))
            for i in range(n_systems)]


# -- serialization -------------------------------------------------------------


def _task_header(system: str) -> list:
    n = DOF[system]
    cols = ["split"]
    cols += list(PARAM_NAMES[system])
    cols += [f"q{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
    cols += [f"qdot{i+1}" for i in range(n)] + [f"pdot{i+1}" for i in range(n)]
    return cols


def write_dataset(path: str, system: str, seed: int, tasks: list) -> None:
    """Dataset directory: manifest.json + tasks/task_<i>.csv."""
    os.makedirs(os.path.join(path, "tasks"), exist_ok=True)
    n_points = int(tasks[0].train_x.shape[0]) if tasks else 0
    manifest = {
        "format_version": DATASET_FORMAT_VERSION,
        "system": system,
        "seed": int(seed),
        "n_tasks": len(tasks),
        "n_points": n_points,
        "param_names": list(PARAM_NAMES[system]),
        "param_ranges": [[float(a), float(b)] for a, b in PARAM_RANGES[system]],
        "state_ranges": [[float(a), float(b)] for a, b in STATE_RANGES[system]],
    }
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    header = ",".join(_task_header(system))
    for i, task in enumerate(tasks):
        lines = [header]
        # repr of a Python float is the shortest round-trip string
        pvals = ",".join(map(repr, task.params.as_vector().tolist()))
        for split_name, X, Xd in (("train", task.train_x, task.train_xdot),
                                  ("test", task.test_x, task.test_xdot)):
            prefix = f"{split_name},{pvals},"
            lines += [prefix + ",".join(map(repr, row))
                      for row in np.hstack([X, Xd]).tolist()]
        fname = os.path.join(path, "tasks", f"task_{i:05d}.csv")
        with open(fname, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _read_task(fname: str, system: str, n_points: int) -> Task:
    """Parse one task CSV and check it against the manifest's shape.

    Any malformation is a ValueError that names the file.
    """
    header = _task_header(system)
    n = DOF[system]
    n_par = len(PARAM_NAMES[system])
    rows = {"train": [], "test": []}
    pvec = None
    try:
        with open(fname) as fh:
            lines = fh.read().strip().split("\n")
        if lines[0] != ",".join(header):
            raise ValueError("unexpected header")
        for lineno, line in enumerate(lines[1:], 2):
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"line {lineno} has {len(cells)} columns, "
                                 f"expected {len(header)}")
            if cells[0] not in rows:
                raise ValueError(f"line {lineno} has split label "
                                 f"{cells[0]!r}")
            pvec = [float(c) for c in cells[1 : 1 + n_par]]
            rows[cells[0]].append([float(c) for c in cells[1 + n_par :]])
        for split, got in rows.items():
            if len(got) != n_points:
                raise ValueError(f"{len(got)} {split} rows, the manifest "
                                 f"says {n_points}")
        params = PhysicalParams.from_vector(system, pvec)
        tr = np.array(rows["train"])
        te = np.array(rows["test"])
        if not (np.all(np.isfinite(tr)) and np.all(np.isfinite(te))):
            raise ValueError("non-finite state or derivative")
    except ValueError as err:
        raise ValueError(f"{fname}: {err}") from None
    return Task(params, tr[:, : 2 * n], tr[:, 2 * n :],
                te[:, : 2 * n], te[:, 2 * n :])


class TaskPool(Sequence):
    """Read-only view of a dataset's tasks.

    Every task file must exist when the pool is made.  Task i is parsed on
    first index and cached, so repeated draws see the same Task object and
    a run pays only for the tasks it uses.
    """

    def __init__(self, task_dir: str, system: str, n_tasks: int,
                 n_points: int):
        present = set(os.listdir(task_dir))
        # one of the first len(present) + 1 names is missing if any is
        names = [f"task_{i:05d}.csv" for i in range(min(n_tasks,
                                                        len(present) + 1))]
        missing = [n for n in names if n not in present]
        if missing:
            raise FileNotFoundError(f"dataset is missing "
                                    f"{os.path.join(task_dir, missing[0])}")
        self._files = [os.path.join(task_dir, n) for n in names]
        self._system = system
        self._n_points = n_points
        self._tasks = [None] * n_tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __getitem__(self, i) -> Task:
        i = operator.index(i)
        if i < 0:
            i += len(self._tasks)
        if not 0 <= i < len(self._tasks):
            raise IndexError("task index out of range")
        if self._tasks[i] is None:
            self._tasks[i] = _read_task(self._files[i], self._system,
                                        self._n_points)
        return self._tasks[i]


def load_dataset(path: str):
    """Read back (manifest, tasks); exact float round-trip.

    The manifest is checked and every task file must exist, but a task
    file is parsed only when its task is first indexed (see TaskPool).
    """
    fname = os.path.join(path, "manifest.json")
    with open(fname) as fh:
        manifest = json.load(fh)
    if type(manifest) is not dict or \
            manifest.get("format_version") != DATASET_FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format in {fname}")
    system = manifest.get("system")
    if system not in SYSTEMS:  # a tuple: an unhashable value is no error
        raise ValueError(f"{fname} has unknown system {system!r}")
    n_tasks, n_points = manifest.get("n_tasks"), manifest.get("n_points")
    for key, value in (("n_tasks", n_tasks), ("n_points", n_points)):
        if type(value) is not int or value < 0:
            raise ValueError(f"{fname} has bad {key} {value!r}")
    return manifest, TaskPool(os.path.join(path, "tasks"), system, n_tasks,
                              n_points)
