"""Task sampling and dataset construction.

A task is one physical system: parameters drawn uniformly from the
per-system boxes below, plus train/test sets of exact (x, xdot) pairs.
Meta-test systems come in two observation modes: `points` (K independent
states) and `trajectories` (K short rollouts contributing L samples each,
with derivatives recomputed analytically at the sampled states).  Their
test surface is a full lattice over the sampling region.

A dataset is a JSON manifest plus two .npy arrays of raw float64s, so a
load round-trips to the exact same doubles.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import SYSTEMS, seeding
from .config import read_arrays, write_arrays
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

DATASET_FORMAT_VERSION = 2


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
                    seed: int = 0) -> TaskPool:
    """Meta-train pool; task i is derived from split(seed, TASK, i)."""
    if n_tasks < 1 or n_points < 1:
        raise ValueError("n_tasks and n_points must be >= 1")
    params, points = map(np.empty, _shapes(system, n_tasks, n_points).values())
    for i in range(n_tasks):
        rng = seeding.split(seed, seeding.TASK, i)
        task = make_task(sample_params(system, rng), rng, n_points)
        params[i] = task.params.as_vector()
        points[i] = [np.hstack([task.train_x, task.train_xdot]),
                     np.hstack([task.test_x, task.test_xdot])]
    return TaskPool(system, params, points)


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


def _manifest(system: str, seed, n_tasks, n_points) -> dict:
    """A dataset's manifest, before write_arrays adds each array's sha256."""
    ranges = lambda boxes: [[float(a), float(b)] for a, b in boxes[system]]
    return {"format_version": DATASET_FORMAT_VERSION, "system": system,
            "seed": seed, "n_tasks": n_tasks, "n_points": n_points,
            "param_names": list(PARAM_NAMES[system]),
            "param_ranges": ranges(PARAM_RANGES),
            "state_ranges": ranges(STATE_RANGES)}


def _shapes(system: str, n_tasks: int, n_points: int) -> dict:
    """Each array file and the shape the manifest implies for it."""
    return {"params.npy": (n_tasks, len(PARAM_NAMES[system])),
            "points.npy": (n_tasks, 2, n_points, 4 * DOF[system])}


def write_dataset(path: str, system: str, seed: int, pool: TaskPool) -> None:
    """Dataset directory of a generated pool: manifest.json, params.npy and
    points.npy, written by write_arrays."""
    os.makedirs(path, exist_ok=True)
    write_arrays(os.path.join(path, "manifest.json"),
                 _manifest(system, int(seed), len(pool), pool.points.shape[2]),
                 {"params.npy": pool.params, "points.npy": pool.points})


class TaskPool(Sequence):
    """Tasks over params (n_tasks, n_par) and points (n_tasks, 2, n_points,
    4n): points[i] is task i's train then test split, each row x then xdot.
    Task i is built and checked on first index, then cached, so repeated
    draws see the same Task object; a loaded pool reads it only then
    (_PointsFile).  `files` name the arrays in errors; `digest` is a loaded
    pool's manifest sha256, which covers each array's."""

    def __init__(self, system: str, params: np.ndarray, points,
                 files=("params", "points"), digest: str = None):
        self.params, self.points, self.digest = params, points, digest
        self._system, self._files = system, files
        self._tasks = [None] * len(params)

    def __len__(self) -> int:
        return len(self._tasks)

    def __getitem__(self, i) -> Task:
        i = range(len(self._tasks))[i]  # an int in range, or IndexError
        if self._tasks[i] is None:
            pvals = self.params[i].tolist()  # Python floats
            fname = self._files[0]
            try:
                if not np.all(np.isfinite(pvals)):
                    raise ValueError("non-finite parameter")
                params = PhysicalParams.from_vector(self._system, pvals)
                fname = self._files[1]
                tr, te = self.points[i]  # C-contiguous (n_points, 4n) splits
                if not (np.all(np.isfinite(tr)) and np.all(np.isfinite(te))):
                    raise ValueError("non-finite state or derivative")
            except ValueError as err:
                raise ValueError(f"{fname}: task {i}: {err}") from None
            n2 = 2 * params.n
            self._tasks[i] = Task(params, tr[:, :n2], tr[:, n2:],
                                  te[:, :n2], te[:, n2:])
        return self._tasks[i]


class _PointsFile:
    """Item i: task i's splits in points.npy, by one positioned read."""

    def __init__(self, fname: str, offset: int, shape: tuple):
        self._fname, self._offset, self._split = fname, offset, shape[2:]

    def __getitem__(self, i) -> list:
        splits = [np.empty(self._split), np.empty(self._split)]
        size = 2 * splits[0].nbytes
        with open(self._fname, "rb") as fh:
            if os.preadv(fh.fileno(), splits, self._offset + i * size) < size:
                raise ValueError("short read")
        return splits


def load_dataset(path: str):
    """Read back (manifest, tasks); exact float round-trip.

    The manifest is checked, and then its array files as read_arrays
    checks them, against the shapes the manifest implies.  A task is read
    and checked on first index (TaskPool).
    """
    fname = os.path.join(path, "manifest.json")
    with open(fname, "rb") as fh:
        raw = fh.read()
    manifest = json.loads(raw)
    if type(manifest) is not dict:
        raise ValueError(f"unsupported dataset format in {fname}")
    system = manifest.get("system")
    if system not in SYSTEMS:  # a tuple: an unhashable value is no error
        raise ValueError(f"{fname} has unknown system {system!r}")
    seed, n_tasks, n_points = counts = [manifest.get(key) for key in
                                        ("seed", "n_tasks", "n_points")]
    if not all(type(v) is int and v >= 0 for v in counts):
        raise ValueError(f"{fname} has a bad seed, n_tasks or n_points")
    for key, count in (("n_tasks", n_tasks), ("n_points", n_points)):
        if count < 1:  # as gen refuses, before a command writes anything
            raise ValueError(f"{fname} has {key} {count}; it must be >= 1")
    if manifest.get("format_version") == 1:
        raise ValueError(f"{fname} is a format 1 (CSV) dataset; regenerate "
                         f"it with: hamlearn gen --system {system} --seed "
                         f"{seed} --tasks {n_tasks} --points {n_points} "
                         f"--out {path}")
    want = _manifest(system, seed, n_tasks, n_points)
    bad = [key for key in sorted({*want, *manifest} - {"sha256"})
           if manifest.get(key) != want.get(key)]
    if bad:
        raise ValueError(f"{fname} has a bad {bad[0]!r}")
    shapes = _shapes(system, n_tasks, n_points)
    # memory maps that this call drops: the pool keeps none
    (pfile, params), (xfile, points) = read_arrays(
        fname, manifest.get("sha256"), shapes).items()
    return manifest, TaskPool(system, np.array(params), _PointsFile(
        xfile, points.offset, points.shape), [pfile, xfile],
        hashlib.sha256(raw).hexdigest())
