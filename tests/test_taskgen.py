import os

import numpy as np
import pytest

from hamlearn import seeding, taskgen
from hamlearn.physics import PARAM_NAMES, PhysicalParams, true_field_many
from hamlearn.taskgen import (GRID_PER_AXIS, PARAM_RANGES, STATE_RANGES,
                              build_grid, load_dataset, make_meta_test,
                              make_meta_test_suite, make_meta_train, make_task,
                              sample_params, sample_states, write_dataset)


def test_param_draws_inside_ranges():
    rng = np.random.default_rng(7)
    for system, ranges in PARAM_RANGES.items():
        names = PARAM_NAMES[system]
        for _ in range(500):
            p = sample_params(system, rng)
            for name, (lo, hi) in zip(names, ranges):
                assert lo <= p.values[name] <= hi


def test_param_draw_uniform_mean():
    # E[uniform(0.5, 5)] = 2.75; 1e5 draws put the sample mean well inside 0.02
    rng = np.random.default_rng(123)
    ks = np.array([sample_params("spring_mass", rng).values["k"]
                   for _ in range(100_000)])
    assert abs(ks.mean() - 2.75) < 0.02


def test_unknown_system_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_params("double_pendulum", rng)


def test_state_draws_inside_ranges():
    rng = np.random.default_rng(11)
    for system in STATE_RANGES:
        params = sample_params(system, rng)
        X = sample_states(params, rng, 300)
        assert X.shape == (300, 2 * len(STATE_RANGES[system]) // 2)
        for j, (lo, hi) in enumerate(STATE_RANGES[system]):
            assert X[:, j].min() >= lo and X[:, j].max() <= hi


def test_kepler_rejection_keeps_separation():
    rng = np.random.default_rng(3)
    params = PhysicalParams("kepler", {"M": 1.0, "m": 1.0, "q0x": 0.0, "q0y": 0.0})
    X = sample_states(params, rng, 2000)
    sep = np.hypot(X[:, 0], X[:, 1])
    assert sep.min() >= 0.5


def test_zero_count_rejected():
    rng = np.random.default_rng(0)
    params = sample_params("spring_mass", rng)
    with pytest.raises(ValueError):
        sample_states(params, rng, 0)


def test_task_labels_are_exact_fields():
    rng = np.random.default_rng(19)
    for system in ("spring_mass", "pendulum", "kepler"):
        task = make_task(sample_params(system, rng), rng, n_points=40)
        assert task.train_x.shape == (40, task.train_x.shape[1])
        np.testing.assert_array_equal(
            task.train_xdot, true_field_many(task.params, task.train_x))
        np.testing.assert_array_equal(
            task.test_xdot, true_field_many(task.params, task.test_x))
        # train and test are independent draws
        assert not np.array_equal(task.train_x, task.test_x)


def test_meta_train_pool_distinct_and_deterministic():
    tasks = make_meta_train("spring_mass", n_tasks=20, n_points=5, seed=42)
    assert len(tasks) == 20
    ks = [t.params.values["k"] for t in tasks]
    assert len(set(ks)) == 20
    again = make_meta_train("spring_mass", n_tasks=20, n_points=5, seed=42)
    for a, b in zip(tasks, again):
        assert a.params.values == b.params.values
        np.testing.assert_array_equal(a.train_x, b.train_x)


def test_meta_train_task_indexing_stable():
    # task i depends only on (seed, i), not on how many tasks are requested
    small = make_meta_train("pendulum", n_tasks=3, n_points=4, seed=9)
    large = make_meta_train("pendulum", n_tasks=6, n_points=4, seed=9)
    for a, b in zip(small, large):
        np.testing.assert_array_equal(a.train_x, b.train_x)


def test_grid_covers_region_exactly():
    rng = np.random.default_rng(5)
    for system in ("spring_mass", "pendulum", "kepler"):
        params = sample_params(system, rng)
        grid = build_grid(params)
        per = GRID_PER_AXIS[system]
        dims = len(STATE_RANGES[system])
        assert grid.states.shape == (per ** dims, dims)
        for j, (lo, hi) in enumerate(STATE_RANGES[system]):
            assert grid.states[:, j].min() == lo
            assert grid.states[:, j].max() == hi
        np.testing.assert_array_equal(
            grid.derivatives, true_field_many(params, grid.states))


def test_grid_sizes():
    rng = np.random.default_rng(6)
    assert build_grid(sample_params("spring_mass", rng)).states.shape[0] == 2500
    assert build_grid(sample_params("kepler", rng)).states.shape[0] == 10_000


def test_meta_test_points_mode():
    rng = np.random.default_rng(21)
    sysm = make_meta_test("spring_mass", "points", 25, rng)
    assert sysm.mode == "points" and sysm.k == 25
    assert sysm.train_x.shape == (25, 2)
    np.testing.assert_array_equal(
        sysm.train_xdot, true_field_many(sysm.params, sysm.train_x))


def test_meta_test_trajectories_mode():
    rng = np.random.default_rng(22)
    sysm = make_meta_test("spring_mass", "trajectories", 10, rng)
    # K rollouts x L samples
    assert sysm.train_x.shape == (50, 2)
    np.testing.assert_array_equal(
        sysm.train_xdot, true_field_many(sysm.params, sysm.train_x))


def test_meta_test_trajectory_states_follow_the_flow():
    # consecutive samples of one rollout must nearly conserve the true H
    from hamlearn.physics import hamiltonian_many
    rng = np.random.default_rng(23)
    sysm = make_meta_test("pendulum", "trajectories", 4, rng)
    H = hamiltonian_many(sysm.params, sysm.train_x).reshape(4, 5)
    assert np.ptp(H, axis=1).max() < 1e-6


def test_kepler_trajectory_samples_respect_separation():
    rng = np.random.default_rng(29)
    sysm = make_meta_test("kepler", "trajectories", 3, rng)
    q0 = np.array([sysm.params.values["q0x"], sysm.params.values["q0y"]])
    sep = np.hypot(sysm.train_x[:, 0] - q0[0], sysm.train_x[:, 1] - q0[1])
    assert sep.min() >= 0.5


def test_kepler_meta_test_grid_clear_of_singularity():
    for i in range(6):
        rng = seeding.split(77, seeding.TEST_SYSTEM, i)
        sysm = make_meta_test("kepler", "points", 5, rng)
        q0 = np.array([sysm.params.values["q0x"], sysm.params.values["q0y"]])
        axis = np.linspace(-5.0, 5.0, 10)
        qx, qy = np.meshgrid(axis, axis, indexing="ij")
        sep = np.hypot(qx - q0[0], qy - q0[1])
        assert sep.min() >= 0.15
        assert np.all(np.isfinite(sysm.grid.derivatives))


def test_meta_test_suite_seeding():
    a = make_meta_test_suite("spring_mass", "points", 5, seed=31, n_systems=4)
    b = make_meta_test_suite("spring_mass", "points", 5, seed=31, n_systems=4)
    assert len(a) == 4
    ks = [s.params.values["k"] for s in a]
    assert len(set(ks)) == 4
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.train_x, sb.train_x)


@pytest.mark.parametrize("mode", ["points", "trajectories"])
def test_meta_test_suite_shares_one_read_only_lattice(mode):
    suite = make_meta_test_suite("pendulum", mode, 3, seed=31, n_systems=3)
    states = suite[0].grid.states
    assert all(s.grid.states is states for s in suite)
    assert not states.flags.writeable
    with pytest.raises(ValueError):
        states[0, 0] = 1.0
    # the labels stay per system
    assert not np.array_equal(suite[0].grid.derivatives,
                              suite[1].grid.derivatives)
    for s in suite:
        np.testing.assert_array_equal(s.grid.derivatives,
                                      true_field_many(s.params, states))


def test_meta_test_mode_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        make_meta_test("spring_mass", "lines", 5, rng)
    with pytest.raises(ValueError):
        make_meta_test("spring_mass", "points", 0, rng)


def test_dataset_roundtrip_exact(tmp_path):
    tasks = make_meta_train("kepler", n_tasks=3, n_points=7, seed=13)
    path = str(tmp_path / "ds")
    write_dataset(path, "kepler", 13, tasks)
    manifest, back = load_dataset(path)
    assert manifest["n_tasks"] == 3 and manifest["system"] == "kepler"
    assert manifest["n_points"] == 7
    assert len(back) == 3
    # out of order and from the end, as the episode draws index the pool
    for i in (2, 0, -2):
        a, b = tasks[i], back[i]
        assert a.params.values == b.params.values
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.train_xdot, b.train_xdot)
        np.testing.assert_array_equal(a.test_x, b.test_x)
        np.testing.assert_array_equal(a.test_xdot, b.test_xdot)
    # a repeated draw (or a later epoch, or a resumed run) sees the same task
    assert back[1] is back[-2]
    assert all(t is back[i] for i, t in enumerate(back))
    with pytest.raises(IndexError):
        back[3]
    with pytest.raises(IndexError):
        back[-4]


def test_dataset_parses_a_task_only_when_indexed(tmp_path, monkeypatch):
    tasks = make_meta_train("spring_mass", n_tasks=4, n_points=3, seed=5)
    path = str(tmp_path / "ds")
    write_dataset(path, "spring_mass", 5, tasks)
    opened = []
    real_open = open

    def spy(file, *args, **kwargs):
        opened.append(os.path.basename(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    _, back = load_dataset(path)
    assert opened == ["manifest.json"]
    back[2]
    back[2]
    assert opened == ["manifest.json", "task_00002.csv"]


@pytest.mark.parametrize("corrupt", [
    lambda lines: ["split,m,k,q0,q,p,qdot,pdot"] + lines[1:],
    lambda lines: lines[:2] + [lines[2] + ",1.0"] + lines[3:],
    lambda lines: lines[:2] + ["valid" + lines[2][len("train"):]] + lines[3:],
    lambda lines: [l for l in lines if not l.startswith("test,")],
    lambda lines: lines + [lines[-1]],
    lambda lines: lines[:2] + [lines[2].replace(",", ",x", 1)] + lines[3:],
    lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0] + ",nan"]
    + lines[3:],
    lambda lines: [],
], ids=["header", "columns", "split", "no-test-rows", "extra-row",
        "not-a-float", "nan", "empty"])
def test_corrupt_task_file_names_the_file(tmp_path, corrupt):
    tasks = make_meta_train("spring_mass", n_tasks=2, n_points=3, seed=5)
    path = tmp_path / "ds"
    write_dataset(str(path), "spring_mass", 5, tasks)
    bad = path / "tasks" / "task_00001.csv"
    lines = bad.read_text().strip().split("\n")
    bad.write_text("\n".join(corrupt(lines)) + "\n")
    _, back = load_dataset(str(path))
    back[0]  # the intact task still loads
    with pytest.raises(ValueError, match="task_00001.csv"):
        back[1]


def test_dataset_regeneration_byte_identical(tmp_path):
    for d in ("one", "two"):
        tasks = make_meta_train("pendulum", n_tasks=2, n_points=5, seed=99)
        write_dataset(str(tmp_path / d), "pendulum", 99, tasks)
    for rel in ("manifest.json", "tasks/task_00000.csv", "tasks/task_00001.csv"):
        one = (tmp_path / "one" / rel).read_bytes()
        two = (tmp_path / "two" / rel).read_bytes()
        assert one == two


def test_dataset_bad_version_rejected(tmp_path):
    tasks = make_meta_train("spring_mass", n_tasks=1, n_points=3, seed=1)
    path = str(tmp_path / "ds")
    write_dataset(path, "spring_mass", 1, tasks)
    import json
    mf = tmp_path / "ds" / "manifest.json"
    good = json.loads(mf.read_text())
    # the version, and the other manifest fields the reader relies on
    for key, value in (("format_version", 999), ("system", "rigid_rotor"),
                       ("n_tasks", "1"), ("n_tasks", -1), ("n_points", 1.5)):
        mf.write_text(json.dumps({**good, key: value}))
        with pytest.raises(ValueError):
            load_dataset(path)
