"""End-to-end command tests: exit codes, file outputs, reproducibility."""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hamlearn
from hamlearn import seeding, taskgen
from hamlearn.cli import main
from hamlearn.config import RunConfig, version_string

REPORT_SCHEMA = {
    "type": "object",
    "required": ["learner", "system", "mode", "k", "mse_mean", "mse_std",
                 "n_systems", "adapt_steps"],
    "additionalProperties": False,
    "properties": {
        "learner": {"type": "string"},
        "system": {"enum": ["spring_mass", "pendulum", "kepler"]},
        "mode": {"enum": ["points", "trajectories"]},
        "k": {"type": "integer", "minimum": 1},
        "mse_mean": {"type": "number", "minimum": 0},
        "mse_std": {"type": "number", "minimum": 0},
        "n_systems": {"type": "integer", "minimum": 1},
        "adapt_steps": {"type": "integer", "minimum": 0},
    },
}

TRAIN_FLAGS = ["--episodes", "3", "--task-batch", "2", "--inner-steps", "2",
               "--hidden", "6", "--seed", "9", "--strict-serial"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset plus a small trained checkpoint shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    old = os.getcwd()
    os.chdir(root)
    try:
        assert main(["gen", "--system", "spring_mass", "--tasks", "8",
                     "--points", "6", "--seed", "3", "--out", "ds"]) == 0
        assert main(["metatrain", "--dataset", "ds", "--learner", "hanil",
                     "--out", "run", *TRAIN_FLAGS]) == 0
    finally:
        os.chdir(old)
    return root


@pytest.fixture(autouse=True)
def _in_workdir(workdir, monkeypatch):
    monkeypatch.chdir(workdir)


# -- exit codes -------------------------------------------------------------


def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--bogus"],
    ["gen", "--tasks", "0"],
    ["gen", "--points", "-1"],
    ["gen", "--system", "unknown_system"],
    ["metatrain", "--learner", "hnn_scratch"],
    ["metatrain", "--learner", "hanil"],
    ["eval", "--learner", "hanil"],
    ["ablate", "--counts", ""],
    ["ablate", "--counts", "50,10"],
    ["ablate", "--counts", "10,10"],
    ["ablate", "--step-range", "5:2", "--checkpoint", "run/checkpoint.json"],
    ["rollout", "--checkpoint", "run/checkpoint.json", "--x0", "1.0"],
    ["ablate", "--counts", "10,x"],
    ["rollout", "--oracle", "--x0", "1,y"],
    ["ablate", "--counts", "10,20", "--learners", "hanil,foo",
     "--n-systems", "1", "--k", "5"],
    ["metatrain", "--learner", "foo"],
    ["eval", "--learner", "foo"],
])
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv,flag", [
    (["ablate", "--counts", "10,x"], "--counts"),
    (["rollout", "--oracle", "--x0", "1,y"], "--x0"),
    (["eval", "--learner", "hnn_scratch", "--hidden", "6,z"], "--hidden"),
    (["ablate", "--counts", "10,20", "--learners", "hanil,foo"],
     "--learners"),
    (["metatrain", "--dataset", "ds", "--learner", "foo"], "--learner"),
    (["gen", "--tasks", "2", "--seed", "-3"], "--seed"),
    # Adam is the only outer update rule
    (["metatrain", "--dataset", "ds", "--learner", "hanil", *TRAIN_FLAGS,
      "--optimizer", "adam"], "--optimizer"),
    # the oracle is the learner, so a checkpoint has no part in it
    (["rollout", "--oracle", "--checkpoint", "run/checkpoint.json"],
     "--oracle"),
    (["rollout", "--oracle", "--checkpoint", "missing.json"], "--checkpoint"),
    # a flag that the chosen mode ignores: the error names it and the mode
    (["rollout", "--oracle", "--steps", "7", "--k", "3", "--adapt-lr", "0.5",
      "--T", "1", "--samples", "4"], ("--oracle", "--steps", "--k",
                                      "--adapt-lr")),
    (["rollout", "--oracle", "--system", "pendulum", "--k", "3"],
     ("--oracle", "--k")),
    (["ablate", "--step-range", "0:2", "--checkpoint", "run/checkpoint.json",
      "--counts", "4,8", "--learners", "naive_anil", "--episodes", "2"],
     ("--step-range", "--counts", "--learners", "--episodes")),
    (["ablate", "--step-range", "0:2", "--checkpoint", "run/checkpoint.json",
      "--points", "6", "--task-batch", "2", "--inner-steps", "1"],
     ("--step-range", "--points", "--task-batch", "--inner-steps")),
    (["ablate", "--counts", "4", "--learners", "hanil", "--points", "6",
      "--episodes", "1", "--checkpoint", "run/checkpoint.json"],
     ("--checkpoint", "--step-range")),
])
def test_bad_flag_values_name_the_flag(tmp_path, argv, flag, capsys):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(f in err for f in ((flag,) if isinstance(flag, str) else flag))
    assert not out.exists()


def test_runtime_errors_exit_2(capsys):
    assert main(["metatrain", "--dataset", "no/such/dir",
                 "--learner", "hanil"]) == 2
    assert main(["eval", "--checkpoint", "run/checkpoint.json",
                 "--learner", "hamaml"]) == 2
    assert main(["eval", "--checkpoint", "run/checkpoint.json",
                 "--system", "kepler"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("cmd", ["eval", "rollout"])
def test_non_finite_adaptation_exits_2(tmp_path, cmd, capsys):
    out = tmp_path / "nan"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([cmd, "--checkpoint", "run/checkpoint.json", "--k", "6",
                     "--adapt-lr", "1e200", "--seed", "3", "--out",
                     str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    # the error line is the whole report: no numpy warning before it
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    for path in out.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("learner", ["hanil", "naive_anil"])
def test_head_only_learners_exit_2_on_a_huge_learning_rate(tmp_path, learner,
                                                          capsys):
    run = tmp_path / "run"
    assert main(["metatrain", "--dataset", "ds", "--learner", learner,
                 "--out", str(run), *TRAIN_FLAGS]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["metatrain", "--dataset", "ds", "--learner", learner,
                     "--inner-lr", "1e300", "--out", str(tmp_path / "bad"),
                     *TRAIN_FLAGS]) == 2
        assert "non-finite training loss" in capsys.readouterr().err
        assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                     "--k", "6", "--adapt-lr", "1e200", "--seed", "3",
                     "--out", str(tmp_path / "eval")]) == 2
        assert "non-finite" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def test_non_finite_pretraining_exits_2(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["gen", "--system", "spring_mass", "--tasks", "20",
                 "--points", "10", "--seed", "3", "--out", str(ds)]) == 0
    out = tmp_path / "run"
    assert main(["metatrain", "--dataset", str(ds), "--learner",
                 "hnn_pretrained", "--outer-lr", "1e200", "--out", str(out),
                 *TRAIN_FLAGS]) == 2
    assert "non-finite" in capsys.readouterr().err
    ckpt = out / "checkpoint.json"
    if ckpt.exists():
        json.loads(ckpt.read_text(), parse_constant=_reject_constant)


# -- JSON inputs of the wrong shape ------------------------------------------------


def _tampered_input(root, kind, mutate, array=None) -> str:
    """Path of a copy, under root, of the shared checkpoint (kind
    "checkpoint", its JSON and array files) or dataset directory
    ("manifest"), whose JSON file is rewritten as mutate maps it.  For a
    checkpoint, `array` maps its (3, n) array to what the array file then
    holds, with the JSON's sha256 updated to match."""
    if kind == "checkpoint":
        path = target = Path(root) / "checkpoint.json"
        for name in ("checkpoint.json", "checkpoint.npy"):
            shutil.copy(f"run/{name}", root)
    else:
        target = Path(root) / "ds"
        shutil.copytree("ds", target)
        path = target / "manifest.json"
    blob = mutate(json.loads(path.read_text()))
    if array is not None:
        npy = Path(root) / "checkpoint.npy"
        np.save(npy, array(np.load(npy)))
        blob["sha256"][npy.name] = hashlib.sha256(npy.read_bytes()).hexdigest()
    path.write_text(json.dumps(blob))
    return str(target)


def _replace(key, value):
    return lambda blob: {**blob, key: value}


JSON_INPUT_COMMANDS = {
    "eval": ["eval", "--k", "6", "--n-systems", "1", "--steps", "2",
             "--checkpoint"],
    "resume": ["metatrain", "--dataset", "ds", "--learner", "hanil",
               *TRAIN_FLAGS, "--resume"],
    "metatrain": ["metatrain", "--learner", "hanil", *TRAIN_FLAGS,
                  "--episodes", "1", "--dataset"],
}


@pytest.mark.parametrize("cmd,kind,mutate,key", [
    ("eval", "checkpoint", _replace("hidden", 5), "hidden"),
    ("resume", "checkpoint", _replace("hidden", 5), "hidden"),
    ("eval", "checkpoint", _replace("adam", {"t": "3"}), "adam"),
    ("resume", "checkpoint", _replace("episode", "3"), "episode"),
    ("eval", "checkpoint", lambda blob: [blob], None),
    ("metatrain", "manifest", lambda blob: [blob], None),
    ("metatrain", "manifest", _replace("system", ["kepler"]), "system"),
], ids=["eval-hidden-int", "resume-hidden-int", "eval-adam-t-str",
        "resume-episode-str", "checkpoint-array", "manifest-array",
        "manifest-system-list"])
def test_json_input_of_the_wrong_type_exits_2(tmp_path, cmd, kind, mutate,
                                               key, capsys):
    path = _tampered_input(tmp_path, kind, mutate)
    argv = [*JSON_INPUT_COMMANDS[cmd], path, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert path in err and (key is None or key in err)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


# Well-typed checkpoint values that make no sense, by the key they replace.
OUT_OF_RANGE = {
    "episode": st.integers(max_value=-1),
    "adam": st.integers(max_value=-1).map(lambda t: {"t": t}),
    "system": st.sampled_from(hamlearn.SYSTEMS),
    "hidden": st.lists(st.integers(-2, 8), min_size=1, max_size=3),
}


def _run_quietly(argv):
    """main(argv) with stderr and warnings captured: (exit code, stderr
    lines, warnings)."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue().splitlines(), caught


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_any_json_value_in_any_field_exits_0_or_2(data):
    cmd = data.draw(st.sampled_from(sorted(JSON_INPUT_COMMANDS)))
    kind = "manifest" if cmd == "metatrain" else "checkpoint"
    source = "ds/manifest.json" if kind == "manifest" else "run/checkpoint.json"
    blob = json.loads(Path(source).read_text())
    key = data.draw(st.sampled_from(sorted(blob)))
    if kind == "checkpoint" and key in OUT_OF_RANGE and data.draw(st.booleans()):
        value = data.draw(OUT_OF_RANGE[key])
    else:
        value = data.draw(JSON_VALUES)
    with tempfile.TemporaryDirectory() as root:
        path = _tampered_input(root, kind, _replace(key, value))
        code, lines, caught = _run_quietly([*JSON_INPUT_COMMANDS[cmd], path,
                                            "--out", os.path.join(root, "o")])
    assert code in (0, 2)
    assert not caught  # no numpy warning before the error line
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert path in lines[0]


def _with_int(row, col, value):
    """A map of the checkpoint's (3, n) array to a Python-int array with
    `value` at [row, col]: an array file that np.save must pickle."""
    def change(stack):
        out = stack.astype(object)
        out[row, col] = value
        return out
    return change


# A value that makes no sense, in the JSON or in the array file, and what
# the error line says: "checkpoint <path> has a bad '<key>'", or the array
# file's name and what is wrong with it.
@pytest.mark.parametrize("cmd,mutate,array,says", [
    ("resume", lambda b: {**b, "adam": {**b["adam"], "t": -1}}, None,
     "{path} has a bad 'adam'"),
    ("resume", _replace("episode", -4), None, "{path} has a bad 'episode'"),
    # a kepler network has other parameter counts: the shape is wrong
    ("eval", _replace("system", "kepler"), None,
     "{npy} does not hold <f8 values of shape (3, "),
    ("eval", _replace("hidden", [6, 0]), None, "{path} has a bad 'hidden'"),
    # an int no double can hold, where params[0] and adam.m[3] were
    ("eval", dict, _with_int(0, 0, 10 ** 400),
     "{npy}, named in {path}: "),
    ("resume", dict, _with_int(1, 3, -10 ** 400),
     "{npy}, named in {path}: "),
], ids=["adam-t-negative", "episode-negative", "system-kepler",
        "hidden-zero", "params-int-overflow", "adam-m-int-overflow"])
def test_out_of_range_checkpoint_value_names_file_and_key(tmp_path, cmd,
                                                          mutate, array,
                                                          says):
    path = _tampered_input(tmp_path, "checkpoint", mutate, array)
    out = tmp_path / "o"
    code, lines, caught = _run_quietly([*JSON_INPUT_COMMANDS[cmd], path,
                                        "--out", str(out)])
    assert code == 2 and not caught
    npy = tmp_path / "checkpoint.npy"
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert says.format(path=path, npy=npy) in lines[0]
    assert not out.exists()


NON_FINITE_COMMANDS = {
    "eval": JSON_INPUT_COMMANDS["eval"],
    "rollout": ["rollout", "--k", "6", "--steps", "0", "--T", "1",
                "--samples", "4", "--checkpoint"],
    "resume": ["metatrain", "--dataset", "ds", "--learner", "hanil",
               *TRAIN_FLAGS, "--episodes", "4", "--resume"],
}


@pytest.mark.parametrize("field", ["params", "m", "v"])
@pytest.mark.parametrize("cmd", sorted(NON_FINITE_COMMANDS))
def test_a_non_finite_checkpoint_value_exits_2_before_any_output(
        tmp_path, cmd, field):
    # written into the array file with a digest that matches; the last
    # parameter is hanil's output bias, which its field ignores
    row = ["params", "m", "v"].index(field)
    name = ["params", "adam.m", "adam.v"][row]
    for token, value in [("NaN", np.nan), ("Infinity", np.inf),
                         ("-Infinity", -np.inf)]:
        def change(stack):
            stack = stack.copy()
            stack[row, -1] = value
            return stack

        root = tmp_path / token
        root.mkdir()
        path = _tampered_input(root, "checkpoint", dict, change)
        out = root / "o"
        code, lines, caught = _run_quietly([*NON_FINITE_COMMANDS[cmd], path,
                                            "--out", str(out)])
        assert code == 2 and not caught
        assert lines == [f"error: {root / 'checkpoint.npy'} holds a "
                         f"non-finite value in its {name} row"]
        assert not out.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_a_checkpoint_is_read_as_strict_json(tmp_path, token):
    path = _tampered_input(tmp_path, "checkpoint", _replace("seed", 0))
    text = Path(path).read_text().replace('"seed": 0', f'"seed": {token}')
    Path(path).write_text(text)
    out = tmp_path / "o"
    code, lines, caught = _run_quietly([*NON_FINITE_COMMANDS["eval"], path,
                                        "--out", str(out)])
    assert code == 2 and not caught
    assert lines == [f"error: checkpoint {path} holds {token}, which is not "
                     "strict JSON"]
    assert not out.exists()


def test_a_format_1_checkpoint_exits_2_naming_an_older_build(tmp_path):
    # format 1 held the arrays in the JSON, as lists of floats
    path = _tampered_input(tmp_path, "checkpoint", lambda b: {
        **b, "format_version": 1, "params": [0.5] * 3, "sha256": None})
    for cmd in sorted(NON_FINITE_COMMANDS):
        out = tmp_path / cmd
        code, lines, caught = _run_quietly([*NON_FINITE_COMMANDS[cmd], path,
                                            "--out", str(out)])
        assert code == 2 and not caught
        assert lines == [f"error: checkpoint {path} is format 1, which an "
                         "older build of hamlearn wrote; this build reads "
                         "format 2"]
        assert not out.exists()


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_any_damage_to_a_dataset_exits_1_or_2(data):
    manifest = json.loads(Path("ds/manifest.json").read_text())
    fault = data.draw(st.sampled_from(["field", "truncate", "flip"]))
    cmd = "metatrain"
    with tempfile.TemporaryDirectory() as root:
        ds = Path(root) / "ds"
        shutil.copytree("ds", ds)
        if fault == "field":
            key = data.draw(st.sampled_from(sorted(manifest)))
            value = data.draw(JSON_VALUES)
            # the same value, or another seed, describes a valid dataset
            assume(value != manifest[key] and not (
                key == "seed" and type(value) is int and value >= 0))
            (ds / "manifest.json").write_text(json.dumps({**manifest,
                                                          key: value}))
        else:
            name = data.draw(st.sampled_from(["params.npy", "points.npy",
                                              "checkpoint.npy"]))
            if name == "checkpoint.npy":  # the damaged input is a checkpoint
                cmd, ds = "eval", _tampered_input(root, "checkpoint", dict)
                file = Path(root) / name
            else:
                file = ds / name
            raw = bytearray(file.read_bytes())
            if fault == "truncate":
                del raw[data.draw(st.integers(0, len(raw) - 1)):]
            else:
                for i in data.draw(st.sets(st.integers(0, len(raw) - 1),
                                           min_size=1, max_size=4)):
                    raw[i] ^= data.draw(st.integers(1, 255))
            file.write_bytes(raw)
        out = Path(root) / "o"
        code, lines, caught = _run_quietly([*JSON_INPUT_COMMANDS[cmd],
                                            str(ds), "--out", str(out)])
        assert not out.exists()  # refused before anything was written
    assert code in (1, 2) and not caught
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _corrupt_dataset(tmp_path, corrupt):
    """A two-task dataset whose points.npy `corrupt` has changed."""
    ds = tmp_path / "ds"
    assert main(["gen", "--system", "spring_mass", "--tasks", "2",
                 "--points", "6", "--seed", "3", "--out", str(ds)]) == 0
    corrupt(ds / "points.npy")
    return str(ds)


def test_metatrain_drawn_corrupt_task_exits_2(tmp_path, capsys):
    def nan_in_task_1(path):  # with a digest that matches
        points = np.load(path)
        points[1, 1, 0, 0] = np.nan
        np.save(path, points)
        mf = path.parent / "manifest.json"
        manifest = json.loads(mf.read_text())
        manifest["sha256"]["points.npy"] = \
            hashlib.sha256(path.read_bytes()).hexdigest()
        mf.write_text(json.dumps(manifest))

    ds = _corrupt_dataset(tmp_path, nan_in_task_1)
    # a batch of 2 from a pool of 2 draws the corrupt task in episode 0
    assert main(["metatrain", "--dataset", ds, "--learner", "hanil",
                 "--out", str(tmp_path / "run"), *TRAIN_FLAGS]) == 2
    err = capsys.readouterr().err
    assert "points.npy: task 1: non-finite state or derivative" in err


def test_metatrain_missing_task_file_exits_2_at_load(tmp_path, capsys):
    ds = _corrupt_dataset(tmp_path, lambda path: path.unlink())
    out = tmp_path / "run"
    assert main(["metatrain", "--dataset", ds, "--learner", "hanil",
                 "--out", str(out), *TRAIN_FLAGS]) == 2
    assert os.path.join(ds, "manifest.json") + " names " + \
        os.path.join(ds, "points.npy") + ", which is missing" in \
        capsys.readouterr().err
    assert not out.exists()  # refused before anything was written


@pytest.mark.parametrize("key,shapes", [("n_tasks", ((0, 3), (0, 2, 6, 4))),
                                        ("n_points", ((2, 3), (2, 2, 0, 4)))])
def test_an_empty_dataset_leaves_an_existing_run_whole(tmp_path, key, shapes,
                                                       capsys):
    # a dataset with valid digests but no tasks or no points per task
    ds = tmp_path / "empty"
    taskgen.write_dataset(str(ds), "spring_mass", 3, taskgen.TaskPool(
        "spring_mass", *map(np.ones, shapes)))
    run = tmp_path / "run"
    shutil.copytree("run", run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert main(["metatrain", "--dataset", str(ds), "--learner", "hanil",
                 "--out", str(run), *TRAIN_FLAGS]) == 2
    assert f"{ds / 'manifest.json'} has {key} 0; it must be >= 1" in \
        capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_a_short_read_of_a_drawn_task_exits_2(tmp_path, monkeypatch):
    ds = tmp_path / "ds"
    assert main(["gen", "--system", "spring_mass", "--tasks", "30",
                 "--points", "6", "--seed", "3", "--out", str(ds)]) == 0
    points = ds / "points.npy"
    load = taskgen.load_dataset

    def load_then_truncate(path):  # cut all but 10 tasks behind the pool
        loaded = load(path)
        os.truncate(points, points.stat().st_size - 20 * 2 * 6 * 4 * 8)
        return loaded

    monkeypatch.setattr(taskgen, "load_dataset", load_then_truncate)
    # the first task meta_train draws from the part that was cut off
    cut = next(i for ep in range(3) for i in seeding.split(
        9, seeding.EPISODE, ep).choice(30, size=2, replace=False) if i >= 10)
    code, lines, caught = _run_quietly([
        "metatrain", "--dataset", str(ds), "--learner", "hanil", "--out",
        str(tmp_path / "run"), *TRAIN_FLAGS])
    assert code == 2 and not caught
    assert len(lines) == 1 and lines[0].startswith(f"error: {points}: "
                                                   f"task {cut}: ")


def test_format_1_dataset_exits_2_with_the_gen_command(tmp_path, capsys):
    manifest = json.loads(Path("ds/manifest.json").read_text())
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "manifest.json").write_text(
        json.dumps({**manifest, "format_version": 1}))
    out = tmp_path / "run"
    assert main(["metatrain", "--dataset", str(tmp_path / "old"),
                 "--learner", "hanil", "--out", str(out), *TRAIN_FLAGS]) == 2
    assert ("hamlearn gen --system spring_mass --seed 3 --tasks 8 "
            f"--points 6 --out {tmp_path / 'old'}\n") in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("walrus = 3\n")
    assert main(["gen", "--tasks", "2", "--config", str(bad)]) == 2
    capsys.readouterr()


# A config file line: any bytes, or an assignment to a known key of any value.
CONFIG_LINES = st.binary(max_size=16) | st.builds(
    "{} = {}".format, st.sampled_from(sorted(RunConfig.__dataclass_fields__)),
    st.text(max_size=12)).map(str.encode)


@settings(max_examples=80, deadline=None, database=None)
@given(cmd=st.sampled_from(["metatrain", "eval"]),
       lines=st.lists(CONFIG_LINES, max_size=5))
def test_any_config_file_exits_1_or_2(cmd, lines):
    # neither command has a dataset or checkpoint to run on, so each fails
    with tempfile.TemporaryDirectory() as root, contextlib.chdir(root):
        Path("run.cfg").write_bytes(b"\n".join(lines) + b"\n")
        code, err, caught = _run_quietly([cmd, "--config", "run.cfg",
                                          "--out", "o"])
        assert not os.path.exists("o")
    assert code in (1, 2) and not caught
    assert len(err) == 1 and err[0].startswith(("error: ", "usage error: "))


# -- gen ----------------------------------------------------------------------


def test_gen_same_seed_is_byte_identical(tmp_path, capsys):
    for out in ("a", "b"):
        assert main(["gen", "--system", "pendulum", "--tasks", "3",
                     "--points", "5", "--seed", "11",
                     "--out", str(tmp_path / out)]) == 0
    for rel in ("manifest.json", "params.npy", "points.npy"):
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes()
    capsys.readouterr()


def test_gen_writes_provenance(capsys):
    text = open("ds/config.txt").read()
    assert text.startswith("# version = v")
    assert "seed = 3" in text
    assert "system = spring_mass" in text
    capsys.readouterr()


def test_env_seed_reaches_gen(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HAMLEARN_SEED", "77")
    assert main(["gen", "--tasks", "2", "--points", "4",
                 "--out", str(tmp_path / "envseed")]) == 0
    manifest = json.load(open(tmp_path / "envseed" / "manifest.json"))
    assert manifest["seed"] == 77
    capsys.readouterr()


# -- metatrain ------------------------------------------------------------------


def test_metatrain_outputs(capsys):
    lines = open("run/curve.csv").read().strip().split("\n")
    assert lines[0] == "episode,meta_loss,wall_time"
    assert len(lines) == 4  # header + 3 episodes
    for i, line in enumerate(lines[1:]):
        ep, loss, wall = line.split(",")
        assert int(ep) == i
        assert float(loss) > 0 and np.isfinite(float(loss))
        assert wall == "0.0"  # strict-serial zeroes timing
    blob = json.load(open("run/checkpoint.json"))
    assert blob["learner"] == "hanil" and blob["episode"] == 3
    capsys.readouterr()


def test_metatrain_rerun_is_byte_identical(tmp_path, capsys):
    # same out dir both times so even the provenance must reproduce
    out = str(tmp_path / "r")
    snapshots = []
    for _ in range(2):
        assert main(["metatrain", "--dataset", "ds", "--learner",
                     "naive_anil", "--out", out, *TRAIN_FLAGS]) == 0
        snapshots.append({rel: (tmp_path / "r" / rel).read_bytes()
                          for rel in ("curve.csv", "checkpoint.json",
                                      "checkpoint.npy", "config.txt")})
    assert snapshots[0] == snapshots[1]
    capsys.readouterr()


def test_resume_matches_uninterrupted_run(tmp_path, capsys):
    base = ["metatrain", "--dataset", "ds", "--learner", "hanil",
            "--task-batch", "2", "--inner-steps", "2", "--hidden", "6",
            "--seed", "9", "--strict-serial"]
    full, part = str(tmp_path / "full"), str(tmp_path / "part")
    assert main(base + ["--episodes", "4", "--out", full]) == 0
    assert main(base + ["--episodes", "2", "--out", part]) == 0
    assert main(base + ["--episodes", "4", "--out", part,
                        "--resume", part + "/checkpoint.json"]) == 0
    a = json.load(open(full + "/checkpoint.json"))
    b = json.load(open(part + "/checkpoint.json"))
    # params, adam.m and adam.v, bitwise
    assert np.load(full + "/checkpoint.npy").tobytes() == \
        np.load(part + "/checkpoint.npy").tobytes()
    assert a["adam"] == b["adam"]
    assert b["episode"] == 4
    assert open(full + "/curve.csv").read() == open(part + "/curve.csv").read()
    capsys.readouterr()


def test_retried_resume_does_not_repeat_curve_rows(tmp_path, monkeypatch,
                                                   capsys):
    ds = tmp_path / "ds"
    assert main(["gen", "--system", "spring_mass", "--tasks", "30",
                 "--points", "6", "--seed", "3", "--out", str(ds)]) == 0
    base = ["metatrain", "--dataset", str(ds), "--learner", "hanil",
            "--task-batch", "2", "--inner-steps", "2", "--hidden", "6",
            "--seed", "9", "--strict-serial"]

    def drawn(ep):  # the tasks meta_train draws in episode `ep`
        rng = seeding.split(9, seeding.EPISODE, ep)
        return set(rng.choice(30, size=2, replace=False).tolist())

    bad = min(drawn(4) - set().union(*(drawn(ep) for ep in range(4))))
    full, out = tmp_path / "full", tmp_path / "run"
    assert main(base + ["--episodes", "6", "--out", str(full)]) == 0
    assert main(base + ["--episodes", "2", "--out", str(out)]) == 0
    resume = base + ["--episodes", "6", "--out", str(out),
                     "--resume", str(out / "checkpoint.json")]
    read = taskgen.TaskPool.__getitem__

    def unreadable_bad_task(pool, i):
        if range(len(pool))[i] == bad:
            raise ValueError(f"task {bad} is unreadable")
        return read(pool, i)

    with monkeypatch.context() as patch:
        patch.setattr(taskgen.TaskPool, "__getitem__", unreadable_bad_task)
        assert main(resume) == 2  # fails at episode 4, after rows 2 and 3
    assert main(resume) == 0
    curve = (out / "curve.csv").read_text()
    assert [int(l.split(",")[0]) for l in curve.splitlines()[1:]] == \
        [0, 1, 2, 3, 4, 5]
    assert curve == (full / "curve.csv").read_text()
    capsys.readouterr()


def test_metatrain_pretrained_writes_history(tmp_path, capsys):
    out = str(tmp_path / "pre")
    assert main(["metatrain", "--dataset", "ds", "--learner",
                 "hnn_pretrained", "--out", out, *TRAIN_FLAGS]) == 0
    lines = open(out + "/curve.csv").read().strip().split("\n")
    assert len(lines) > 1
    blob = json.load(open(out + "/checkpoint.json"))
    assert blob["learner"] == "hnn_pretrained"
    capsys.readouterr()


def test_resume_of_a_pretrained_learner_is_refused(tmp_path, capsys):
    out = tmp_path / "pre"
    base = ["metatrain", "--dataset", "ds", "--learner", "hnn_pretrained",
            "--out", str(out), *TRAIN_FLAGS]
    assert main(base) == 0
    names = ("curve.csv", "checkpoint.json", "checkpoint.npy")
    before = [(out / name).read_bytes() for name in names]
    assert main(base + ["--resume", str(out / "checkpoint.json")]) == 1
    assert "cannot be resumed" in capsys.readouterr().err
    assert [(out / name).read_bytes() for name in names] == before


# A setting a checkpoint records, and flags that change it from TRAIN_FLAGS,
# or an edit of the checkpoint that a resume must refuse.
RESUME_CHANGES = {
    "seed": ["--seed", "77"],
    "task_batch": ["--task-batch", "3"],
    "inner_steps": ["--inner-steps", "1"],
    "inner_lr": ["--inner-lr", "0.5"],
    "outer_lr": ["--outer-lr", "0.1"],
    "second_order": ["--first-order"],
    # older builds could also train with sgd
    "optimizer": lambda blob: blob.update(optimizer="sgd"),
    # Adam steps once per episode; a wrong step count skews its bias
    # correction
    "adam.t": lambda blob: blob["adam"].update(t=blob["episode"] - 1),
    "hidden": ["--hidden", "5"],
    "episode": ["--episodes", "2"],  # fewer than the checkpoint's 3
}


@pytest.mark.parametrize("key", list(RESUME_CHANGES))
def test_resume_with_a_changed_config_is_refused(tmp_path, key, capsys):
    out = tmp_path / "run"
    base = ["metatrain", "--dataset", "ds", "--learner", "hanil",
            "--out", str(out), *TRAIN_FLAGS]
    assert main(base) == 0
    change = RESUME_CHANGES[key]
    if callable(change):
        blob = json.loads((out / "checkpoint.json").read_text())
        change(blob)
        (out / "checkpoint.json").write_text(json.dumps(blob))
        change = []
    names = ("curve.csv", "config.txt", "checkpoint.json", "checkpoint.npy")
    before = [(out / name).read_bytes() for name in names]
    assert main(base + ["--episodes", "5", "--resume",
                        str(out / "checkpoint.json"), *change]) == 2
    assert key in capsys.readouterr().err
    assert [(out / name).read_bytes() for name in names] == before


@pytest.mark.parametrize("argv", [
    ["metatrain", "--dataset", "ds", *TRAIN_FLAGS, "--episodes", "0"],
    ["metatrain", "--dataset", "ds", *TRAIN_FLAGS, "--task-batch", "0"],
    ["ablate", "--counts", "5", "--learners", "hanil", "--episodes", "0"],
    ["ablate", "--counts", "5", "--learners", "hanil", "--inner-steps", "-1"],
    ["ablate", "--counts", "5", "--learners", "hanil", "--episodes", "1",
     "--k", "0"],
    ["ablate", "--step-range", "0:2", "--checkpoint", "run/checkpoint.json",
     "--n-systems", "0"],
], ids=["metatrain-no-episodes", "metatrain-no-batch", "ablate-no-episodes",
        "ablate-negative-inner-steps", "ablate-k0", "curve-no-systems"])
def test_bad_counts_leave_the_run_directory_untouched(tmp_path, argv, capsys):
    out = tmp_path / "run"
    assert main(["metatrain", "--dataset", "ds", "--learner", "hanil",
                 "--out", str(out), *TRAIN_FLAGS]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main([*argv, "--seed", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_resume_on_another_dataset_is_refused(tmp_path, capsys):
    for seed in ("1", "2"):
        assert main(["gen", "--system", "spring_mass", "--tasks", "20",
                     "--points", "6", "--seed", seed,
                     "--out", str(tmp_path / f"ds{seed}")]) == 0
    out = tmp_path / "run"
    base = ["metatrain", "--learner", "hanil", "--hidden", "6", "--seed", "9",
            "--strict-serial", "--out", str(out)]
    assert main([*base, "--dataset", str(tmp_path / "ds1"),
                 "--episodes", "2"]) == 0
    names = ("curve.csv", "config.txt", "checkpoint.json", "checkpoint.npy")
    before = [(out / name).read_bytes() for name in names]
    resume = [*base, "--episodes", "4", "--resume",
              str(out / "checkpoint.json"), "--dataset"]
    assert main([*resume, str(tmp_path / "ds2")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot resume {out / 'checkpoint.json'}")
    assert "dataset '" in err
    assert [(out / name).read_bytes() for name in names] == before
    # the record names the data, not where it is
    shutil.copytree(tmp_path / "ds1", tmp_path / "moved")
    assert main([*resume, str(tmp_path / "moved")]) == 0
    capsys.readouterr()


def test_checkpoint_without_a_dataset_record_evaluates_but_cannot_resume(
        tmp_path, capsys):
    path = _tampered_input(tmp_path, "checkpoint", lambda blob: {
        k: v for k, v in blob.items() if k != "dataset"})
    assert main([*JSON_INPUT_COMMANDS["resume"], path,
                 "--out", str(tmp_path / "o")]) == 2
    assert "dataset not recorded" in capsys.readouterr().err
    assert main([*JSON_INPUT_COMMANDS["eval"], path,
                 "--out", str(tmp_path / "e")]) == 0
    capsys.readouterr()


CKPT = ["--checkpoint", "run/checkpoint.json"]


@pytest.mark.parametrize("argv", [
    ["eval", *CKPT, "--n-systems", "0"],
    ["eval", *CKPT, "--k", "0"],
    ["rollout", "--oracle", "--samples", "0"],
    ["rollout", "--oracle", "--T", "-1"],
    ["rollout", "--oracle", "--x0", "nan,1"],
    ["eval", *CKPT, "--k", "6", "--n-systems", "2", "--adapt-lr", "nan"],
    ["ablate", "--step-range", "0:2", *CKPT, "--n-systems", "0"],
    ["eval", *CKPT, "--hidden", "4", "--k", "6", "--n-systems", "1"],
    ["rollout", "--oracle", "--T", "nan"],
    ["rollout", "--oracle", "--T", "inf"],
    ["eval", *CKPT, "--k", "6", "--n-systems", "1", "--adapt-lr", "-1"],
    ["eval", *CKPT, "--k", "6", "--n-systems", "1", "--adapt-lr", "0"],
    ["metatrain", "--dataset", "ds", *TRAIN_FLAGS, "--inner-lr", "inf"],
    ["metatrain", "--dataset", "ds", *TRAIN_FLAGS, "--outer-lr", "inf"],
    ["eval", *CKPT, "--k", "6", "--n-systems", "1", "--adapt-lr", "inf"],
    ["eval", *CKPT, "--k", "6", "--n-systems", "1", "--adapt-lr", "1e308"],
], ids=["eval-no-systems", "eval-k0", "rollout-no-samples",
        "rollout-negative-T", "rollout-nan-x0", "eval-nan-lr",
        "curve-no-systems", "eval-hidden-conflict", "rollout-nan-T",
        "rollout-inf-T", "eval-negative-lr", "eval-zero-lr",
        "metatrain-inf-inner-lr", "metatrain-inf-outer-lr", "eval-inf-lr",
        "eval-huge-lr"])
def test_degenerate_input_fails_cleanly(tmp_path, argv):
    # a child process, so that an input that hangs fails the test at the
    # timeout instead of stalling the suite
    code = ("import json, sys, warnings\n"
            "from hamlearn.cli import main\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    code = main(sys.argv[1:])\n"
            "print(json.dumps([str(w.message) for w in caught]))\n"
            "sys.exit(code)\n")
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--seed", "3",
                           "--out", str(out)], capture_output=True,
                          text=True, env=_child_env(), timeout=60)
    err = proc.stderr
    assert proc.returncode == 2
    assert "Traceback" not in err and "Warning" not in err
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    # one error line, and no result file beside the provenance
    assert len(err.splitlines()) == 1 and "error: " in err
    assert {p.name for p in out.rglob("*") if p.is_file()} <= {"config.txt"}


@pytest.mark.parametrize("cmd", [["eval"], ["ablate", "--step-range", "0:2"]])
def test_hidden_conflicting_with_the_checkpoint_exits_2(tmp_path, cmd,
                                                        capsys):
    out = tmp_path / "o"
    argv = [*cmd, *CKPT, "--k", "6", "--n-systems", "1", "--seed", "3",
            "--out", str(out)]
    assert main([*argv, "--hidden", "4,4"]) == 2
    err = capsys.readouterr().err
    assert "hidden 6" in err and "--hidden says 4,4" in err
    # the checkpoint's own sizes are no conflict
    assert main([*argv, "--hidden", "6"]) == 0
    assert "hidden = 6\n" in (out / "config.txt").read_text()
    capsys.readouterr()


# -- eval -----------------------------------------------------------------------


def test_eval_report_matches_schema(tmp_path, capsys):
    out = str(tmp_path / "ev")
    assert main(["eval", "--checkpoint", "run/checkpoint.json", "--mode",
                 "points", "--k", "6", "--steps", "2", "--n-systems", "2",
                 "--seed", "3", "--out", out]) == 0
    rep = json.load(open(out + "/report.json"))
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["learner"] == "hanil" and rep["system"] == "spring_mass"
    assert rep["adapt_steps"] == 2 and rep["n_systems"] == 2
    header, row = open(out + "/report.csv").read().strip().split("\n")
    assert header.split(",") == list(REPORT_SCHEMA["required"])
    assert row.split(",")[0] == "hanil"
    capsys.readouterr()


def test_eval_steps_zero_scores_the_raw_checkpoint(tmp_path, capsys):
    out = str(tmp_path / "ev0")
    assert main(["eval", "--checkpoint", "run/checkpoint.json", "--k", "6",
                 "--steps", "0", "--n-systems", "2", "--seed", "3",
                 "--out", out]) == 0
    assert json.load(open(out + "/report.json"))["adapt_steps"] == 0
    capsys.readouterr()


def test_eval_scratch_needs_no_checkpoint(tmp_path, capsys):
    out = str(tmp_path / "evs")
    assert main(["eval", "--learner", "hnn_scratch", "--k", "6", "--steps",
                 "2", "--n-systems", "2", "--seed", "3", "--hidden", "6",
                 "--out", out]) == 0
    assert json.load(open(out + "/report.json"))["learner"] == "hnn_scratch"
    capsys.readouterr()


# -- rollout ----------------------------------------------------------------------


def test_rollout_oracle_sits_at_the_noise_floor(tmp_path, capsys):
    out = str(tmp_path / "ro")
    assert main(["rollout", "--oracle", "--system", "pendulum", "--seed",
                 "5", "--T", "4", "--samples", "20", "--out", out]) == 0
    lines = open(out + "/rollout.csv").read().strip().split("\n")
    comments = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# x0 = ") for l in comments)
    assert any(l.startswith("# system = pendulum") for l in comments)
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 20
    for k, row in enumerate(rows):
        assert abs(float(row[0]) - (k + 1) * 4.0 / 20) < 1e-12
        assert float(row[1]) < 1e-10  # state mse
        assert float(row[2]) < 1e-10  # energy mse
    capsys.readouterr()


def test_rollout_x0_flag_is_used_verbatim(tmp_path, capsys):
    out = str(tmp_path / "rx")
    assert main(["rollout", "--oracle", "--system", "spring_mass", "--x0",
                 "1.5,-0.25", "--seed", "5", "--T", "2", "--samples", "8",
                 "--out", out]) == 0
    lines = open(out + "/rollout.csv").read().split("\n")
    assert "# x0 = 1.5,-0.25" in lines
    capsys.readouterr()


def test_rollout_from_checkpoint(tmp_path, capsys):
    out = str(tmp_path / "rc")
    assert main(["rollout", "--checkpoint", "run/checkpoint.json", "--seed",
                 "5", "--T", "2", "--samples", "8", "--k", "6", "--steps",
                 "3", "--out", out]) == 0
    lines = [l for l in open(out + "/rollout.csv").read().strip().split("\n")
             if not l.startswith("#")]
    cols = lines[0].split(",")
    assert cols == ["t", "state_mse", "energy_mse", "q1_pred", "p1_pred",
                    "q1_true", "p1_true"]
    assert len(lines) == 9
    capsys.readouterr()


def test_rollout_whose_last_sample_overshoots_T(tmp_path, capsys):
    # 187 * (3 / 187) is one ULP above 3
    out = str(tmp_path / "ov")
    assert main(["rollout", "--oracle", "--system", "spring_mass", "--seed",
                 "5", "--T", "3", "--samples", "187", "--out", out]) == 0
    lines = [l for l in open(out + "/rollout.csv").read().strip().split("\n")
             if not l.startswith("#")]
    assert len(lines) == 1 + 187
    capsys.readouterr()


def test_rollout_of_an_overflowing_energy_writes_no_rows(tmp_path, capsys):
    # both integrations reach T, but the true H overflows at every sample
    out = tmp_path / "ovf"
    code, err, caught = _run_quietly([
        "rollout", "--oracle", "--system", "pendulum", "--x0",
        "1e308,1e308", "--T", "1", "--samples", "5", "--out", str(out)])
    assert (code, err, caught) == (0, [], [])
    lines = (out / "rollout.csv").read_text().splitlines()
    assert "# failure_time = 0.2" in lines
    assert lines[-1].startswith("t,state_mse,")  # the header, no rows
    assert "integration stopped at t=0.2" in capsys.readouterr().out


def test_rollout_non_finite_x0_exits_2(tmp_path, capsys):
    assert main(["rollout", "--oracle", "--system", "spring_mass", "--x0",
                 "nan,0.5", "--seed", "5", "--T", "2", "--samples", "8",
                 "--out", str(tmp_path / "rn")]) == 2
    assert "finite" in capsys.readouterr().err


# -- ablate -----------------------------------------------------------------------


def test_ablate_sweep_table(tmp_path, capsys):
    out = str(tmp_path / "ab")
    assert main(["ablate", "--counts", "2,3", "--learners", "hanil",
                 "--mode", "points", "--k", "6", "--n-systems", "2",
                 "--points", "6", "--episodes", "2", "--task-batch", "2",
                 "--inner-steps", "1", "--hidden", "6", "--seed", "3",
                 "--out", out]) == 0
    lines = open(out + "/ablation.csv").read().strip().split("\n")
    assert lines[0] == "learner,task_count,mse_mean,mse_std"
    assert [l.split(",")[:2] for l in lines[1:]] == \
        [["hanil", "2"], ["hanil", "3"]]
    capsys.readouterr()


def test_ablate_step_range_exports_learning_curve(tmp_path, capsys):
    out = str(tmp_path / "abc")
    assert main(["ablate", "--step-range", "0:3", "--checkpoint",
                 "run/checkpoint.json", "--k", "6", "--n-systems", "2",
                 "--seed", "3", "--out", out]) == 0
    lines = open(out + "/curve.csv").read().strip().split("\n")
    assert lines[0] == "step,mse_mean"
    assert len(lines) == 5  # steps 0..3
    assert [int(l.split(",")[0]) for l in lines[1:]] == [0, 1, 2, 3]
    capsys.readouterr()


# -- config files and the installed entry point ------------------------------------


def test_config_file_drives_a_run_and_flags_win(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("system = pendulum\nseed = 21\n")
    out = str(tmp_path / "cf")
    assert main(["gen", "--config", str(cfgfile), "--tasks", "2",
                 "--points", "4", "--seed", "22", "--out", out]) == 0
    manifest = json.load(open(out + "/manifest.json"))
    assert manifest["system"] == "pendulum"  # from the file
    assert manifest["seed"] == 22            # flag beats file
    capsys.readouterr()


def _child_env():
    # The autouse fixture has moved into a temp directory, so a relative
    # PYTHONPATH inherited from the test command no longer resolves there.
    # Point the child at the package this process imported.
    src = os.path.dirname(os.path.dirname(os.path.abspath(hamlearn.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_module_invocation_works():
    proc = subprocess.run([sys.executable, "-m", "hamlearn", "--version"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("v0.")


def test_importing_the_cli_loads_no_scipy(tmp_path):
    # a meta-path finder sees every import that sys.modules cannot answer
    code = ("import json, sys\n"
            "class Spy:\n"
            "    tried = []\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        self.tried.append(name)\n"
            "sys.meta_path.insert(0, Spy())\n"
            "import hamlearn.cli\n"
            "print(json.dumps({'tried': Spy.tried,\n"
            "                  'loaded': sorted(sys.modules)}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert [m for m in seen["loaded"] if m.split(".")[0] == "scipy"] == []
    assert [m for m in seen["tried"] if m.split(".")[0] == "numba"] == []
    # the autodiff tape is a test oracle, not product code
    oracle = [m for m in seen["tried"] + seen["loaded"]
              if m.split(".")[0] == "oracle"
              or m in ("hamlearn.tape", "hamlearn._backend")]
    assert oracle == []
    # the commands that integrate run with scipy unimportable
    code = ("import sys; sys.modules['scipy'] = None; "
            "from hamlearn.cli import main; sys.exit(main(sys.argv[1:]))")
    for argv in (["rollout", "--oracle", "--system", "pendulum", "--T", "2",
                  "--samples", "8", "--out", str(tmp_path / "ro")],
                 ["eval", "--learner", "hnn_scratch", "--mode",
                  "trajectories", "--k", "6", "--steps", "1", "--n-systems",
                  "1", "--hidden", "6", "--out", str(tmp_path / "ev")]):
        proc = subprocess.run([sys.executable, "-c", code, *argv, "--seed",
                               "3"], capture_output=True, text=True,
                              env=_child_env())
        assert proc.returncode == 0, proc.stderr


# each command imports only what it runs; the child reports sys.modules at exit
_REPORT_MODULES = ("import atexit, json, sys\n"
                   "atexit.register(lambda: sys.stderr.write(\n"
                   "    '\\n' + json.dumps(sorted(sys.modules))))\n"
                   "from hamlearn.cli import main\n"
                   "sys.exit(main(sys.argv[1:]))\n")


def _loaded_modules(argv):
    proc = subprocess.run([sys.executable, "-c", _REPORT_MODULES, *argv],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=60)
    return proc, set(json.loads(proc.stderr.splitlines()[-1]))


def _kernels(*names):
    return {f"hamlearn.{name}" for name in names}


@pytest.mark.parametrize("argv", [["--version"], [], ["bogus"],
                                  ["gen", "--tasks", "x"],
                                  ["gen", "--tasks", "0"],
                                  ["metatrain", "--learner", "hnn_scratch"],
                                  ["metatrain", "--learner", "hanil"],
                                  ["ablate", "--counts", "50,10"],
                                  ["ablate", "--counts", "10,x"],
                                  ["rollout", "--oracle", "--x0", "1,y"],
                                  ["rollout", "--oracle", "--x0", "1,2,3"],
                                  ["ablate", "--learners", "hanil,foo"],
                                  ["metatrain", "--learner", "foo"],
                                  ["eval", "--learner", "foo"],
                                  ["gen", "--seed", "-3"]],
                         ids=["version", "no-command", "bad-command",
                              "bad-flag", "gen-no-tasks", "metatrain-scratch",
                              "metatrain-no-dataset", "ablate-descending",
                              "ablate-bad-count", "rollout-bad-x0",
                              "rollout-x0-length",
                              "ablate-unknown-learner",
                              "metatrain-unknown-learner",
                              "eval-unknown-learner", "negative-seed"])
def test_version_and_usage_errors_load_no_numpy(argv):
    proc, loaded = _loaded_modules(argv)
    assert proc.returncode == (0 if argv == ["--version"] else 1)
    if argv == ["--version"]:
        assert proc.stdout == version_string() + "\n"
    else:
        assert "usage error: " in proc.stderr
    assert "numpy" not in loaded
    assert not loaded & _kernels("fastops", "metalearn", "evaluation",
                                 "network", "physics", "taskgen", "seeding")


def test_gen_loads_no_learner_module(tmp_path):
    proc, loaded = _loaded_modules(["gen", "--tasks", "2", "--points", "4",
                                    "--seed", "3", "--out",
                                    str(tmp_path / "ds")])
    assert proc.returncode == 0, proc.stderr
    assert "hamlearn.taskgen" in loaded
    assert not loaded & _kernels("fastops", "metalearn", "evaluation",
                                 "network")


def test_metatrain_loads_no_evaluation(tmp_path):
    proc, loaded = _loaded_modules(["metatrain", "--dataset", "ds",
                                    "--learner", "hanil", "--out",
                                    str(tmp_path / "run"), *TRAIN_FLAGS])
    assert proc.returncode == 0, proc.stderr
    assert "hamlearn.metalearn" in loaded
    assert "hamlearn.evaluation" not in loaded
