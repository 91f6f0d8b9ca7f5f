"""Config file grammar, resolution order, and checkpoint round-trips."""

import hashlib
import json
import re
import shutil
import tracemalloc

import numpy as np
import pytest

from hamlearn.config import (CHECKPOINT_FORMAT_VERSION, COMMANDS, ENV_SEED,
                             IGNORED, SETTINGS, config_text, load_checkpoint,
                             read_config_file, resolve, save_checkpoint,
                             version_string, write_provenance)
from hamlearn.metalearn import AdamState, build_learner
from hamlearn.network import param_count
from hamlearn.taskgen import load_dataset, make_meta_train, write_dataset


def test_defaults_match_documented_values(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)
    cfg = resolve(SETTINGS, {}, {})
    assert cfg["system"] == "spring_mass"
    assert cfg["learner"] == "hanil"
    assert (cfg["inner_steps"], cfg["inner_lr"]) == (5, 0.002)
    assert (cfg["episodes"], cfg["task_batch"], cfg["outer_lr"]) == \
        (100, 10, 0.001)
    assert cfg["second_order"] is True
    assert cfg["hidden"] == (64, 64, 64)
    assert (cfg["mode"], cfg["k"], cfg["n_systems"]) == ("points", 50, 10)
    assert (cfg["adapt_steps"], cfg["adapt_lr"]) == (10, 0.002)
    assert (cfg["tasks"], cfg["points"], cfg["t_span"], cfg["samples"]) == \
        (10000, 50, 20.0, 200)
    assert cfg["counts"] == (10, 50, 200, 500, 1000)
    assert cfg["learners"] == ("hanil", "hnn_pretrained")
    assert (cfg["seed"], cfg["oracle"], cfg["strict_serial"]) == \
        (0, False, False)
    # not given: each command decides what its absence means
    assert [key for key, value in cfg.items() if value is None] == [
        "dataset", "resume", "checkpoint", "x0", "step_range"]
    # a command's own default replaces the table's
    assert resolve(("adapt_steps",), {}, {}, {"adapt_steps": 50}) == \
        {"adapt_steps": 50}


def test_the_commands_read_settings_of_the_table():
    for command, keys in COMMANDS.items():
        assert len(set(keys)) == len(keys) and set(keys) <= set(SETTINGS)
        assert not {"seed", "out_dir"} & set(keys), command
    assert set(SETTINGS) == {"seed", "out_dir"}.union(*COMMANDS.values())
    # a mode ignores some settings of the command it is a mode of
    assert set(IGNORED["--oracle"]) < set(COMMANDS["rollout"])
    for mode in ("--step-range", "ablate without --step-range"):
        assert set(IGNORED[mode]) < set(COMMANDS["ablate"])
    # each flag belongs to one setting
    flags = [flag for flag, *_ in SETTINGS.values()]
    assert len(set(flags)) == len(flags)


@pytest.mark.parametrize("field,value", [
    ("system", "rigid_rotor"), ("learner", "sgd"), ("mode", "grids")])
def test_bad_enum_values_rejected(tmp_path, field, value):
    path = tmp_path / "c.cfg"
    path.write_text(f"{field} = {value}\n")
    allowed = ", ".join(SETTINGS[field][1])
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:1: {field}: expected one of {allowed}, got {value!r}")):
        read_config_file(str(path))


@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan")])
def test_non_positive_adapt_lr_rejected(tmp_path, value):
    with pytest.raises(ValueError, match="adapt lr must be positive"):
        resolve(("adapt_lr",), {}, {"adapt_lr": value})
    path = tmp_path / "c.cfg"
    path.write_text(f"adapt_lr = {value}\n")
    with pytest.raises(ValueError, match="adapt lr must be positive"):
        resolve(("adapt_lr",), read_config_file(str(path)), {})


def test_config_text_roundtrips_through_parser(tmp_path):
    settings = {"system": "kepler", "learner": "hamaml", "seed": 17,
                "inner_lr": 0.0042, "hidden": (8, 8), "second_order": False,
                "strict_serial": True, "x0": (2.5, 0.6, 0.0, -1e-300),
                "t_span": 0.1, "counts": (4, 8), "learners": ("hanil",),
                "checkpoint": "run/checkpoint.json", "oracle": False,
                "step_range": "0:3", "out_dir": "o", "resume": None}
    text = config_text("ablate", settings)
    assert text.splitlines()[:2] == [f"# version = {version_string()}",
                                     "# command = ablate"]
    # sorted, and a setting that was not given is not written
    assert [line.split(" = ")[0] for line in text.splitlines()[2:]] == \
        sorted(key for key, value in settings.items() if value is not None)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    values = read_config_file(str(path))
    assert values == {k: v for k, v in settings.items() if v is not None}
    assert resolve(settings, values, {}) == {**settings, "resume": None}


def test_parser_handles_comments_blanks_and_types(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# a comment line\n"
        "\n"
        "seed = 5   # trailing comment\n"
        "hidden = 32, 16\n"
        "second_order = false\n"
        "strict_serial = YES\n"
        "inner_lr = 1e-3\n"
        "x0 = 1, -0.5\n"
        "oracle = 1\n"
        "learners = hanil,hamaml\n"
        "t_span = 3\n")
    values = read_config_file(str(path))
    assert values == {"seed": 5, "hidden": (32, 16), "second_order": False,
                      "strict_serial": True, "inner_lr": 1e-3,
                      "x0": (1.0, -0.5), "oracle": True,
                      "learners": ("hanil", "hamaml"), "t_span": 3.0}


@pytest.mark.parametrize("line,frag", [
    ("walrus = 3", "unknown key"),
    ("just some words", "key = value"),
    ("second_order = maybe", "boolean"),
    ("inner_steps = 1.5", "inner_steps: invalid literal"),
    ("seed = -1", "seed: expected a non-negative integer, got '-1'"),
    (b"\xff\xfe = 2", "not UTF-8 text"),
    ("out_dir =", "bad.cfg:2: out_dir: expected non-empty text"),
])
def test_parse_errors_carry_the_line_number(tmp_path, line, frag):
    path = tmp_path / "bad.cfg"
    text = line if isinstance(line, bytes) else line.encode()
    path.write_bytes(b"seed = 1\n" + text + b"\n")
    with pytest.raises(ValueError, match=frag) as err:
        read_config_file(str(path))
    assert ":2" in str(err.value) or "boolean" in str(err.value)


def test_resolution_order_defaults_file_flags(monkeypatch):
    monkeypatch.setenv(ENV_SEED, "8")
    keys = ("seed", "episodes", "k", "x0")
    file_values = {"seed": 3, "episodes": 7, "tasks": 5}
    flags = {"episodes": 9, "k": None, "points": 4}
    cfg = resolve(keys, file_values, flags)
    assert cfg["seed"] == 3          # file beats env and default
    assert cfg["episodes"] == 9      # flag beats file
    assert cfg["k"] == 50            # None flag never overrides
    assert cfg["x0"] is None         # not given
    # what the command does not read is not resolved
    assert set(cfg) == set(keys)


def test_env_seed_is_the_last_fallback(monkeypatch):
    monkeypatch.setenv(ENV_SEED, "123")
    seed = lambda file_values, flags: resolve(("seed",), file_values,
                                              flags)["seed"]
    assert seed({}, {}) == 123
    assert seed({"seed": 4}, {}) == 4
    assert seed({}, {"seed": 5}) == 5
    monkeypatch.setenv(ENV_SEED, "abc")
    with pytest.raises(ValueError, match=f"{ENV_SEED}: invalid literal"):
        seed({}, {})
    assert seed({}, {"seed": 5}) == 5  # not read when a flag sets the seed
    monkeypatch.setenv(ENV_SEED, "-4")
    with pytest.raises(ValueError, match=f"{ENV_SEED}: expected a non-neg"):
        seed({}, {})
    monkeypatch.delenv(ENV_SEED)
    assert seed({}, {}) == 0


def test_write_provenance_is_reloadable(tmp_path):
    settings = {"seed": 11, "out_dir": str(tmp_path / "o"), "tasks": 3,
                "points": 5, "system": "pendulum"}
    write_provenance("gen", settings)
    path = tmp_path / "o" / "config.txt"
    assert path.read_text().startswith("# version = v")
    assert read_config_file(str(path)) == settings


def test_version_string_shape():
    v = version_string()
    assert v.startswith("v0.")
    assert version_string() is v  # cached


def _checkpoint_state(kind="hanil", hidden=(5, 4)):
    learner = build_learner(kind, 2, hidden)
    n = param_count(learner.spec)
    rng = np.random.default_rng(0)
    theta = rng.normal(size=n)
    adam = AdamState(rng.normal(size=n), rng.uniform(size=n), 7)
    return learner, theta, adam


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    learner, theta, adam = _checkpoint_state()
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, learner, theta, adam, 42, 9, "pendulum")
    back, theta2, adam2, blob = load_checkpoint(path)
    assert back.kind == "hanil"
    assert back.inner.update_set == learner.inner.update_set
    assert theta2.tobytes() == theta.tobytes()
    assert adam2.m.tobytes() == adam.m.tobytes()
    assert adam2.v.tobytes() == adam.v.tobytes()
    assert adam2.t == 7
    assert blob["episode"] == 42 and blob["seed"] == 9
    assert blob["system"] == "pendulum"
    assert blob["format_version"] == CHECKPOINT_FORMAT_VERSION
    # the arrays sit in ck.npy beside it, one (3, n) stack
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json", "ck.npy"]
    stack = np.load(tmp_path / "ck.npy")
    assert stack.tobytes() == np.stack([theta, adam.m, adam.v]).tobytes()
    assert blob["sha256"] == {"ck.npy": hashlib.sha256(
        (tmp_path / "ck.npy").read_bytes()).hexdigest()}


def _tampered(tmp_path, mutate=None, array=None):
    """Path of a saved checkpoint whose JSON `mutate` has edited, or whose
    (3, n) array `array` maps to the array file's new contents (with the
    JSON's sha256 updated to match)."""
    learner, theta, adam = _checkpoint_state()
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, learner, theta, adam, 1, 0, "spring_mass")
    blob = json.loads(open(path).read())
    if mutate:
        mutate(blob)
    if array:
        npy = tmp_path / "ck.npy"
        np.save(npy, array(np.load(npy)))
        blob["sha256"]["ck.npy"] = hashlib.sha256(
            npy.read_bytes()).hexdigest()
    with open(path, "w") as fh:
        json.dump(blob, fh)
    return path


@pytest.mark.parametrize("mutate,array", [
    (lambda b: b.update(format_version=99), None),
    (lambda b: b.update(learner="mlp"), None),
    (None, lambda a: a[:, :-1]),
    (None, lambda a: a[:2]),
    (lambda b: b.update(activation="relu"), None),
], ids=["format", "kind", "param-count", "moment-shape", "head"])
def test_corrupt_checkpoints_are_rejected(tmp_path, mutate, array):
    with pytest.raises(ValueError):
        load_checkpoint(_tampered(tmp_path, mutate, array))


def test_checkpoint_floats_roundtrip_exactly(tmp_path):
    learner, _, _ = _checkpoint_state(hidden=(3,))
    n = param_count(learner.spec)
    theta = np.full(n, 0.1) / 3.0  # not representable exactly in decimal
    adam = AdamState(np.zeros(n), np.zeros(n), 0)
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, learner, theta, adam, 0, 0, "spring_mass")
    _, theta2, _, _ = load_checkpoint(path)
    assert theta2.tobytes() == theta.tobytes()


def test_the_array_file_is_named_by_the_path_not_the_json(tmp_path):
    path = _tampered(tmp_path)
    # a copy of the JSON elsewhere has no array file beside it
    (tmp_path / "copy").mkdir()
    shutil.copy(path, tmp_path / "copy")
    with pytest.raises(FileNotFoundError, match=re.escape(
            str(tmp_path / "copy" / "ck.npy"))):
        load_checkpoint(str(tmp_path / "copy" / "ck.json"))
    # the JSON must name exactly <stem>.npy, whatever else exists
    shutil.copy(tmp_path / "ck.npy", tmp_path / "other.npy")
    good = json.load(open(path))
    for digests in (good["sha256"], {}, None,
                    {**good["sha256"], "other.npy": "0"}):
        blob = {**good, "sha256": digests}
        (tmp_path / "other.json").write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="has a bad 'sha256'"):
            load_checkpoint(str(tmp_path / "other.json"))


def _write_checkpoint(path, shift):
    learner, theta, adam = _checkpoint_state()
    save_checkpoint(str(path / "checkpoint.json"), learner, theta + shift,
                    adam, 1 + shift, 0, "spring_mass")


def _write_dataset(path, seed):
    write_dataset(str(path), "spring_mass", seed,
                  make_meta_train("spring_mass", 3, 4, seed))


@pytest.fixture
def torn_writes(monkeypatch):
    """From its call on, every file opened for writing stops halfway
    through its first write, as on a full disk."""
    real_open = open

    class Torn:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError("No space left on device")

    def torn_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return Torn(fh) if "w" in mode else fh

    return lambda: monkeypatch.setattr("builtins.open", torn_open)


def test_a_failed_checkpoint_write_keeps_the_previous_file(tmp_path,
                                                           monkeypatch,
                                                           torn_writes):
    # both writers of JSON with arrays: a checkpoint and a dataset
    for write in (_write_checkpoint, _write_dataset):
        out = tmp_path / write.__name__
        out.mkdir()
        write(out, 1)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        torn_writes()
        with pytest.raises(OSError, match="No space"):
            write(out, 2)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert load_checkpoint(str(tmp_path / "_write_checkpoint" /
                               "checkpoint.json"))[3]["episode"] == 2
    assert load_dataset(str(tmp_path / "_write_dataset"))[0]["seed"] == 1


def test_saving_a_checkpoint_holds_no_second_copy(tmp_path):
    # the desk network: 8,577 parameters, each with two Adam moments
    learner, theta, adam = _checkpoint_state(hidden=(64, 64, 64))
    path = tmp_path / "ck.json"
    version_string()  # cached before the measurement
    tracemalloc.start()
    try:
        save_checkpoint(str(path), learner, theta, adam, 3, 0, "spring_mass")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak
    # the JSON as write_arrays writes every document
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) \
        + "\n"
