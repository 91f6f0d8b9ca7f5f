import hashlib
import io
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hamlearn import seeding, taskgen
from hamlearn.cli import main
from hamlearn.physics import (PARAM_NAMES, PhysicalParams, field_fn,
                              integrate, true_field_many)
from hamlearn.taskgen import (GRID_PER_AXIS, PARAM_RANGES, STATE_RANGES,
                              Task, load_dataset, make_meta_test,
                              make_meta_test_suite, make_meta_train,
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
    for system in ("spring_mass", "pendulum", "kepler"):
        task = make_meta_train(system, n_tasks=1, n_points=40, seed=19)[0]
        # task 0's draws: its parameters, then train and test states
        rng = seeding.split(19, seeding.TASK, 0)
        assert task.params == sample_params(system, rng)
        np.testing.assert_array_equal(
            task.train_x, sample_states(task.params, rng, 40))
        np.testing.assert_array_equal(
            task.test_x, sample_states(task.params, rng, 40))
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


def test_a_slice_of_a_pool_is_the_list_of_its_cached_tasks():
    pool = make_meta_train("spring_mass", n_tasks=5, n_points=4, seed=9)
    head = pool[:3]
    assert type(head) is list and len(head) == 3
    assert all(a is b for a, b in zip(head, (pool[0], pool[1], pool[2])))
    assert pool[-2:][0] is pool[3] and pool[::2][2] is pool[4]
    assert pool[7:] == []


def test_grid_covers_region_exactly():
    rng = np.random.default_rng(5)
    for system in ("spring_mass", "pendulum", "kepler"):
        sysm = make_meta_test(system, "points", 1, rng)
        per = GRID_PER_AXIS[system]
        dims = len(STATE_RANGES[system])
        assert sysm.test_x.shape == (per ** dims, dims)
        for j, (lo, hi) in enumerate(STATE_RANGES[system]):
            assert sysm.test_x[:, j].min() == lo
            assert sysm.test_x[:, j].max() == hi
        np.testing.assert_array_equal(
            sysm.test_xdot, true_field_many(sysm.params, sysm.test_x))


def test_grid_sizes():
    rng = np.random.default_rng(6)
    assert make_meta_test("spring_mass", "points", 1,
                          rng).test_x.shape[0] == 2500
    assert make_meta_test("kepler", "points", 1, rng).test_x.shape[0] == 10_000


def test_meta_test_points_mode():
    rng = np.random.default_rng(21)
    sysm = make_meta_test("spring_mass", "points", 25, rng)
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


def test_a_trajectory_that_stops_is_drawn_again(monkeypatch):
    # the first rollout reports a stop, as a blow-up would: its samples are
    # dropped and the pairs come from the next two initial states drawn
    params = sample_params("spring_mass", np.random.default_rng(30))
    starts = []

    def first_stops(field, x0, T_span, samples):
        X, t_failure = integrate(field, x0, T_span, samples)
        starts.append(x0)
        return (X[:2], 0.25) if len(starts) == 1 else (X, t_failure)

    monkeypatch.setattr(taskgen, "integrate", first_stops)
    X = taskgen._trajectory_states(params, np.random.default_rng(31), 2)
    rng = np.random.default_rng(31)
    draws = [sample_states(params, rng, 1)[0] for _ in range(3)]
    np.testing.assert_array_equal(starts, draws)
    want = np.vstack([integrate(field_fn(params), x0, taskgen.TRAJ_SPAN,
                                taskgen.TRAJ_SAMPLES)[0] for x0 in draws[1:]])
    assert X.tobytes() == want.tobytes()


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
        assert np.all(np.isfinite(sysm.test_xdot))


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
    states = suite[0].test_x
    assert all(s.test_x is states for s in suite)
    assert not states.flags.writeable
    with pytest.raises(ValueError):
        states[0, 0] = 1.0
    # the labels stay per system
    assert not np.array_equal(suite[0].test_xdot, suite[1].test_xdot)
    for s in suite:
        np.testing.assert_array_equal(s.test_xdot,
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
    built = []

    def spy(*args):
        built.append(args)
        return Task(*args)

    monkeypatch.setattr(taskgen, "Task", spy)
    _, back = load_dataset(path)
    assert built == []
    back[2]
    back[2]
    assert len(built) == 1 and built[0][0].values == tasks[2].params.values


def test_dataset_tasks_have_the_parsed_memory_layout(tmp_path):
    # each split is one C-contiguous (n_points, 4n) array, sliced into
    # x and xdot views, so the kernels see the strides they always saw
    tasks = make_meta_train("kepler", n_tasks=2, n_points=5, seed=3)
    write_dataset(str(tmp_path / "ds"), "kepler", 3, tasks)
    task = load_dataset(str(tmp_path / "ds"))[1][1]
    for x, xdot in ((task.train_x, task.train_xdot),
                    (task.test_x, task.test_xdot)):
        assert x.base is xdot.base and x.base.flags.c_contiguous
        assert type(x.base) is np.ndarray and x.base.shape == (5, 8)
        assert x.strides == xdot.strides == (64, 8)
    assert all(type(v) is float for v in task.params.values.values())


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _rewrite_array(path, name, data, rehash=True):
    """Replace dataset array `name` by `data` (None deletes it); with
    rehash, the manifest records the new bytes' sha256."""
    if data is None:
        (path / name).unlink()
        return
    (path / name).write_bytes(data)
    if rehash:
        mf = path / "manifest.json"
        manifest = json.loads(mf.read_text())
        manifest["sha256"][name] = hashlib.sha256(data).hexdigest()
        mf.write_text(json.dumps(manifest))


def _flip(raw: bytes) -> bytes:
    return raw[:-1] + bytes([raw[-1] ^ 1])


def _set(index, value):
    def corrupt(raw, array):
        array = array.copy()
        array[index] = value
        return _npy(array)
    return corrupt


# How a task file goes bad: the array file, its new bytes from its old
# bytes and array (None deletes it), whether the manifest's sha256 is
# updated to match them, and what indexing task 1 then reports (None: the
# dataset fails at load).
TASK_FILE_FAULTS = {
    "header": ("points.npy", lambda raw, a: b"\x93NUMPX" + raw[6:], True,
               None),
    "columns": ("points.npy", lambda raw, a: _npy(a[..., :-1]), True, None),
    "extra-row": ("points.npy", lambda raw, a: _npy(np.concatenate(
        [a, a[:, :, :1]], axis=2)), True, None),
    "no-test-rows": ("points.npy", lambda raw, a: _npy(a[:, :1]), True, None),
    "empty": ("points.npy", lambda raw, a: b"", True, None),
    "truncated": ("points.npy", lambda raw, a: raw[:-8], True, None),
    "not-a-float": ("params.npy", lambda raw, a: _npy(a.astype(np.int64)),
                    True, None),
    "single": ("params.npy", lambda raw, a: _npy(a.astype("<f4")), True,
               None),
    "big-endian": ("points.npy", lambda raw, a: _npy(a.astype(">f8")), True,
                   None),
    "params-shape": ("params.npy", lambda raw, a: _npy(a[:-1]), True, None),
    "digest": ("points.npy", lambda raw, a: _flip(raw), False, None),
    "params-digest": ("params.npy", lambda raw, a: _flip(raw), False, None),
    "missing": ("points.npy", lambda raw, a: None, False, None),
    "missing-params": ("params.npy", lambda raw, a: None, False, None),
    "nan": ("points.npy", _set((1, 1, 2, 1), np.nan), True,
            "non-finite state"),
    "inf": ("points.npy", _set((1, 0, 0, 0), np.inf), True,
            "non-finite state"),
    "nan-param": ("params.npy", _set((1, 0), np.nan), True,
                  "non-finite parameter"),
    "bad-param": ("params.npy", _set((1, 1), -2.0), True,
                  "k must be strictly positive"),
}


@pytest.mark.parametrize("fault", list(TASK_FILE_FAULTS))
def test_corrupt_task_file_names_the_file(tmp_path, fault):
    name, corrupt, rehash, why = TASK_FILE_FAULTS[fault]
    tasks = make_meta_train("spring_mass", n_tasks=2, n_points=3, seed=5)
    path = tmp_path / "ds"
    write_dataset(str(path), "spring_mass", 5, tasks)
    raw = (path / name).read_bytes()
    _rewrite_array(path, name, corrupt(raw, np.load(path / name)), rehash)
    fname = re.escape(str(path / name))
    if why is None:  # the array files are checked at load
        with pytest.raises((ValueError, FileNotFoundError), match=fname):
            load_dataset(str(path))
        return
    _, back = load_dataset(str(path))  # the digest matches: it loads
    back[0]  # the intact task still loads
    with pytest.raises(ValueError, match=f"{fname}: task 1: {why}"):
        back[1]


def test_dataset_regeneration_byte_identical(tmp_path):
    for d in ("one", "two"):
        tasks = make_meta_train("pendulum", n_tasks=2, n_points=5, seed=99)
        write_dataset(str(tmp_path / d), "pendulum", 99, tasks)
    for rel in ("manifest.json", "params.npy", "points.npy"):
        one = (tmp_path / "one" / rel).read_bytes()
        two = (tmp_path / "two" / rel).read_bytes()
        assert one == two


def test_dataset_bad_version_rejected(tmp_path):
    tasks = make_meta_train("spring_mass", n_tasks=1, n_points=3, seed=1)
    path = str(tmp_path / "ds")
    write_dataset(path, "spring_mass", 1, tasks)
    mf = tmp_path / "ds" / "manifest.json"
    good = json.loads(mf.read_text())
    # the version, and the other manifest fields the reader relies on
    for key, value in (("format_version", 999), ("system", "rigid_rotor"),
                       ("n_tasks", "1"), ("n_tasks", -1), ("n_points", 1.5),
                       ("seed", -1), ("system", "pendulum"),
                       ("param_ranges", [[0.5, 5.0]] * 3),
                       ("sha256", None), ("sha256", {"points.npy": "0"})):
        mf.write_text(json.dumps({**good, key: value}))
        with pytest.raises(ValueError, match=re.escape(str(mf))):
            load_dataset(path)


def test_format_1_dataset_names_the_command_that_regenerates_it(tmp_path):
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "manifest.json").write_text(json.dumps(
        {"format_version": 1, "system": "pendulum", "seed": 4,
         "n_tasks": 30, "n_points": 7}))
    path = str(tmp_path / "old")
    with pytest.raises(ValueError, match=re.escape(
            "hamlearn gen --system pendulum --seed 4 --tasks 30 --points 7 "
            f"--out {path}")):
        load_dataset(path)


# sha256 of what `gen --tasks 20 --points 7 --seed 5` writes, recorded while
# gen still built a list of Task objects and copied it into the arrays, so
# that filling the arrays in place keeps each task's draws in their order.
GEN_SHA256 = {
    "spring_mass": {
        "params.npy": "da8e50f2c286cf492a78f42fcacf14284f71801a5d02b15d26fe6ee9177d3513",
        "points.npy": "59a5e22d3a09ab7cefea451a16128155814a8f3ff4530d395099eefd849ae8ee",
        "manifest.json": "fb9a62fdbabd52e9866d2f67d04c4b9ac45958a42805e6a1f537d9761d03f8df"},
    "pendulum": {
        "params.npy": "4269404ac2e637fdc29c415082dd6a4bfe59a491a52329adab2b08ea537bdc22",
        "points.npy": "f6e60792fd931e6e5e1f3c3869a7dd259b37e93707d929a346981b4374e20044",
        "manifest.json": "16518ed382b35d9f6c6ab74ed8d7d5879c4be325658d2d9b249b084bf4461f59"},
    "kepler": {
        "params.npy": "5409ca1a9499916faf671a0869ba6343bda8bc206b1e643571e0b72ef093bad3",
        "points.npy": "ec025f70328e23c2fb4adcf949368a97d90bfffc6339698da047762512069012",
        "manifest.json": "19abe00abbecbc647e92a8e412fe1b0109045fe25b3c3fc927885d779a069b09"},
}


@pytest.mark.parametrize("system", sorted(GEN_SHA256))
def test_gen_writes_the_pinned_bytes(tmp_path, system, capsys):
    assert main(["gen", "--system", system, "--tasks", "20", "--points", "7",
                 "--seed", "5", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name, digest in GEN_SHA256[system].items():
        raw = (tmp_path / name).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == digest, name


def test_a_loaded_pool_maps_no_file(tmp_path):
    maps = Path("/proc/self/maps")
    if not maps.exists():
        pytest.skip("no /proc/self/maps on this platform")
    path = tmp_path / "ds"
    write_dataset(str(path), "spring_mass", 1,
                  make_meta_train("spring_mass", n_tasks=30, n_points=5,
                                  seed=1))
    _, back = load_dataset(str(path))
    for i in range(10):
        back[3 * i]
    assert str(path / "points.npy") not in maps.read_text()
    assert len(back) == 30  # the pool is still alive


def test_generating_and_writing_a_pool_holds_it_once(tmp_path):
    n_tasks, n_points = 1000, 50
    pool_bytes = 8 * n_tasks * (3 + 2 * n_points * 4)  # 3.22 MB
    tracemalloc.start()  # numpy's buffers are traced too
    try:
        write_dataset(str(tmp_path), "spring_mass", 0,
                      make_meta_train("spring_mass", n_tasks, n_points, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * pool_bytes, peak
