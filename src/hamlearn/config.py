"""Settings, provenance, checkpoint persistence and the array store.

SETTINGS declares each setting of the command line once: its key (the
config file key and the parsed flag's name), its flag, its reader and its
default.  COMMANDS lists the settings each command reads besides `seed`
and `out_dir`, and IGNORED those that a mode of `rollout` or `ablate` does
not.  The parser, the config file grammar and the provenance writer all
come from these tables.

Config files are flat `key = value` text: one assignment per line, `#`
starts a comment, blank lines ignored.  Any key of SETTINGS is accepted,
and its value is parsed by the key's reader (ints, floats, true/false
bools, one of the listed names, comma-separated lists, a non-negative int
for `seed`).  A command uses the keys it reads and ignores the others, so
one file can serve several commands.  CLI flags override file values.
"""

from __future__ import annotations

import os
import subprocess
from typing import TYPE_CHECKING

from . import DOF, LEARNER_KINDS, SYSTEMS, __version__

if TYPE_CHECKING:  # the kernels load only where a method needs them
    import numpy as np

    from .metalearn import AdamState, LearnerDef

CHECKPOINT_FORMAT_VERSION = 2

# Settings that, with the seed and hidden sizes, fix a training run; a
# checkpoint records them so a resume can insist on them.
TRAINING_KEYS = ("inner_steps", "inner_lr", "outer_lr", "task_batch",
                 "second_order")

ENV_SEED = "HAMLEARN_SEED"


def comma_list(kind):
    """Reader of comma-separated `kind` values, blanks skipped."""
    def read(text: str) -> tuple:
        return tuple(kind(v) for v in text.split(",") if v.strip())
    read.__name__ = f"comma-separated {kind.__name__}"  # in usage errors
    return read


def non_negative_int(text: str) -> int:
    """int(text), refusing a negative value: the reader of every seed."""
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return value


def one_line(text: str) -> str:
    """The reader of a path or other free text: refuses it empty, or what
    a line of config.txt, cut at `#` and stripped, cannot give back."""
    if not text:
        raise ValueError("expected non-empty text")
    if any(c in text for c in "#\n\r") or text != text.strip():
        raise ValueError(f"config.txt cannot record {text!r}")
    return text


one_line.__name__ = ("non-empty text (no '#', line break or blank at "
                     "either end)")

# key: (flag, reader, default[, help]).  A reader is a function of the text
# or a tuple of the names allowed.  A bool's flag takes no value and sets
# the opposite of its default; a default of None means "not given".
SETTINGS = {
    "seed": ("--seed", non_negative_int, 0, "run seed (env HAMLEARN_SEED "
             "is the fallback when neither flag nor file sets one)"),
    "out_dir": ("--out", one_line, "out", "output directory"),
    "strict_serial": ("--strict-serial", bool, False, "write 0.0 for "
                      "wall_time, so reruns are byte-identical (nothing "
                      "runs in parallel either way)"),
    "system": ("--system", SYSTEMS, "spring_mass"),
    "tasks": ("--tasks", int, 10000),
    "points": ("--points", int, 50),
    "dataset": ("--dataset", one_line, None, "dataset directory from gen"),
    "resume": ("--resume", one_line, None, "checkpoint to continue from"),
    "learner": ("--learner", LEARNER_KINDS, "hanil"),
    "episodes": ("--episodes", int, 100),
    "task_batch": ("--task-batch", int, 10),
    "inner_steps": ("--inner-steps", int, 5),
    "inner_lr": ("--inner-lr", float, 0.002),
    "outer_lr": ("--outer-lr", float, 0.001),
    "second_order": ("--first-order", bool, True),
    "hidden": ("--hidden", comma_list(int), (64, 64, 64)),
    "checkpoint": ("--checkpoint", one_line, None, "checkpoint.json of a "
                   "trained learner"),
    "oracle": ("--oracle", bool, False, "integrate the analytic field as "
               "the learner"),
    "mode": ("--mode", ("points", "trajectories"), "points"),
    "k": ("--k", int, 50),
    "n_systems": ("--n-systems", int, 10),
    "adapt_steps": ("--steps", int, 10, "adaptation steps (rollout: 50 "
                    "by default)"),
    "adapt_lr": ("--adapt-lr", float, 0.002),
    "x0": ("--x0", comma_list(float), None, "comma-separated initial "
           "state; sampled from the state region when omitted"),
    "t_span": ("--T", float, 20.0),
    "samples": ("--samples", int, 200),
    "counts": ("--counts", comma_list(int), (10, 50, 200, 500, 1000),
               "comma-separated ascending task counts"),
    "learners": ("--learners", comma_list(str), ("hanil", "hnn_pretrained")),
    "step_range": ("--step-range", one_line, None, "0:N  -> export the "
                   "adaptation learning curve for --checkpoint instead of "
                   "sweeping task counts"),
}

# The settings each command reads besides seed and out_dir; every command
# also takes --strict-serial, which only metatrain reads.
COMMANDS = {
    "gen": ("system", "tasks", "points"),
    "metatrain": ("dataset", "learner", "episodes", "task_batch",
                  "inner_steps", "inner_lr", "outer_lr", "second_order",
                  "hidden", "resume", "strict_serial"),
    "eval": ("checkpoint", "learner", "system", "mode", "k", "adapt_steps",
             "adapt_lr", "n_systems", "hidden"),
    "rollout": ("checkpoint", "oracle", "system", "x0", "t_span", "samples",
                "k", "adapt_steps", "adapt_lr"),
    "ablate": ("step_range", "checkpoint", "counts", "learners", "system",
               "mode", "k", "n_systems", "points", "episodes", "task_batch",
               "inner_steps", "inner_lr", "outer_lr", "second_order",
               "adapt_steps", "adapt_lr", "hidden"),
}

# The settings of its command that a mode of rollout or ablate ignores.
IGNORED = {
    "--oracle": ("checkpoint", "k", "adapt_steps", "adapt_lr"),
    "--step-range": ("counts", "learners", "points", "episodes",
                     "task_batch", "inner_steps", "inner_lr", "outer_lr",
                     "second_order", "adapt_steps"),
    "ablate without --step-range": ("checkpoint",),
}


def _parse_value(name: str, kind, text: str):
    """text as a value of `kind`; an error names where it was set, `name`."""
    text = text.strip()
    try:
        if isinstance(kind, tuple):
            if text not in kind:
                raise ValueError(f"expected one of {', '.join(kind)}, "
                                 f"got {text!r}")
            return text
        if kind is not bool:
            return kind(text)
        low = text.lower()
        if low in ("1", "true", "yes"):
            return True
        if low in ("0", "false", "no"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from None


def text_lines(path: str) -> list:
    """The lines of a UTF-8 text file; a line with an undecodable byte,
    read as a lone surrogate, is refused by its number."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.readlines()
    for lineno, line in enumerate(lines, start=1):
        if any("\udc80" <= c <= "\udcff" for c in line):
            raise ValueError(f"{path}:{lineno}: not UTF-8 text")
    return lines


def read_config_file(path: str) -> dict:
    """Parse a flat key = value file into typed values."""
    values = {}
    for lineno, raw in enumerate(text_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(f"{path}:{lineno}: {key}",
                                   SETTINGS[key][1], text)
    return values


def resolve(keys, file_values: dict, flags: dict,
            defaults: dict = None) -> dict:
    """{key: value} for each of `keys`: its default (from `defaults`, else
    the table) <- HAMLEARN_SEED <- file_values <- the flags not None.  The
    env seed is read only when neither a flag nor the file sets one."""
    values = {key: SETTINGS[key][2] for key in keys}
    values.update(defaults or {})
    given = {k: v for k, v in file_values.items() if k in values}
    given.update((k, flags[k]) for k in keys if flags.get(k) is not None)
    if "seed" in values and "seed" not in given and os.environ.get(ENV_SEED):
        values["seed"] = _parse_value(ENV_SEED, non_negative_int,
                                      os.environ[ENV_SEED])
    values.update(given)
    for key in ("inner_lr", "outer_lr", "adapt_lr"):
        if key in values and not 0 < values[key] < float("inf"):
            raise ValueError(f"{key.replace('_', ' ')} must be positive "
                             "and finite")
    return values


def format_value(v) -> str:
    """A setting's text in config.txt, and a number's in the curve, rollout
    and ablation CSV files: a float, numpy's too, as its Python repr."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def config_text(command: str, settings: dict) -> str:
    """The version, `command`, and each of `settings` that is not None, as
    sorted key = value text that read_config_file reloads."""
    lines = [f"# version = {version_string()}", f"# command = {command}"]
    lines += [f"{key} = {format_value(value)}"
              for key, value in sorted(settings.items()) if value is not None]
    return "\n".join(lines) + "\n"


def write_provenance(command: str, settings: dict) -> None:
    """<out_dir>/config.txt: what `command` read, its `settings`."""
    os.makedirs(settings["out_dir"], exist_ok=True)
    with open(os.path.join(settings["out_dir"], "config.txt"), "w") as fh:
        fh.write(config_text(command, settings))


_VERSION = None  # the running `git describe`, then the version string


def start_version() -> None:
    """Start `git describe` in the background, for version_string to
    collect, so that it runs while the caller loads and computes."""
    global _VERSION
    if _VERSION is None:
        try:
            _VERSION = subprocess.Popen(
                ["git", "describe", "--tags", "--always", "--dirty"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        except OSError:
            _VERSION = f"v{__version__}"


def version_string() -> str:
    """git-describe when available, else the package version.  Waits for
    the `git describe` that start_version started, or starts one."""
    global _VERSION
    start_version()
    if isinstance(_VERSION, subprocess.Popen):
        git = _VERSION
        try:
            desc = git.communicate(timeout=10)[0].strip()
        except subprocess.TimeoutExpired:  # a killed git describes nothing
            git.kill()
            desc = git.communicate()[0]
        _VERSION = (f"v{__version__}+g{desc}" if git.returncode == 0
                    and desc else f"v{__version__}")
    return _VERSION


# -- arrays beside a JSON document, and checkpoints ---------------------------


def _sha256(fname: str) -> str:
    import hashlib
    with open(fname, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def write_arrays(path: str, doc: dict, arrays: dict) -> None:
    """`doc` as the JSON file `path`, its "sha256" naming each of `arrays`
    ({file name: array}), saved beside it as .npy.  Each file goes to
    <file>.tmp, and the targets are replaced once all are whole; a failure
    removes the temporaries, so the previous files stay as they were."""
    import json

    import numpy as np
    tmps, digests = [], {}
    try:
        for name, array in arrays.items():
            tmps.append(os.path.join(os.path.dirname(path), name) + ".tmp")
            with open(tmps[-1], "wb") as fh:
                np.save(fh, array)
            digests[name] = _sha256(tmps[-1])
        tmps.append(path + ".tmp")
        with open(tmps[-1], "w") as fh:
            json.dump({**doc, "sha256": digests}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for tmp in tmps:
            os.replace(tmp, tmp[:-len(".tmp")])
    except BaseException:
        for tmp in filter(os.path.exists, tmps):
            os.remove(tmp)
        raise


def read_json(path: str, **kwargs) -> tuple:
    """(raw bytes, value) of the JSON file `path` by json.loads(**kwargs);
    bytes that do not decode or parse are refused naming the file."""
    import json
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw, json.loads(raw, **kwargs)
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ValueError(f"{path}: {err}") from None


def read_arrays(fname: str, digests, shapes: dict) -> dict:
    """{path: read-only memory map} of each .npy file that `shapes` ({file
    name: shape}) names beside the JSON file `fname`, whose "sha256" value
    `digests` must name exactly those files.  Each must exist, match its
    digest and hold <f8 values, in C order, of its shape."""
    import numpy as np
    if type(digests) is not dict or set(digests) != set(shapes):
        raise ValueError(f"{fname} has a bad 'sha256': it must name "
                         f"{', '.join(shapes)} and nothing else")
    arrays = {}
    for name, shape in shapes.items():
        afile = os.path.join(os.path.dirname(fname), name)
        if not os.path.isfile(afile):
            raise FileNotFoundError(f"{fname} names {afile}, which is missing")
        if _sha256(afile) != digests[name]:
            raise ValueError(f"{afile} does not match its sha256 in {fname}")
        try:
            array = arrays[afile] = np.load(afile, mmap_mode="r",
                                            allow_pickle=False)
        except (ValueError, EOFError) as err:
            raise ValueError(f"{afile}, named in {fname}: {err}") from None
        if not isinstance(array, np.ndarray) or not array.flags.c_contiguous \
                or (array.dtype.str, array.shape) != ("<f8", shape):
            raise ValueError(f"{afile} does not hold <f8 values of shape "
                             f"{shape}, in C order, as {fname} implies")
    return arrays


def save_checkpoint(path: str, learner: LearnerDef, theta: np.ndarray,
                    adam: AdamState, episode: int, seed: int,
                    system: str, training: dict = None) -> None:
    """A training state as the JSON file `path` and, beside it as <stem>.npy,
    the (3, n) array of the parameters and Adam's two moments.  The run's
    `training` record (TRAINING_KEYS, optimizer, dataset) is kept."""
    import numpy as np

    from .network import ACTIVATION
    doc = {"format_version": CHECKPOINT_FORMAT_VERSION,
           "learner": learner.kind, "system": system, "seed": int(seed),
           **(training or {}), "episode": int(episode),
           "hidden": list(learner.spec.hidden_dims), "activation": ACTIVATION,
           "adam": {"t": int(adam.t)}, "version": version_string()}
    npy = os.path.splitext(os.path.basename(path))[0] + ".npy"
    write_arrays(path, doc, {npy: np.stack([theta, adam.m, adam.v])})


def load_checkpoint(path: str):
    """Returns (learner_def, theta, adam, blob) rebuilt from disk.  The
    array file, <stem>.npy beside `path` whatever the JSON says, must pass
    read_arrays for the shape the learner implies and be finite."""
    import numpy as np

    from .metalearn import AdamState, build_learner
    from .network import ACTIVATION, param_count

    def refuse(token):  # save_checkpoint writes strict JSON
        raise ValueError(f"checkpoint {path} holds {token}, which is not "
                         "strict JSON")

    _, blob = read_json(path, parse_constant=refuse)
    if type(blob) is not dict:
        raise ValueError(f"unsupported checkpoint format in {path}")
    if blob.get("format_version") == 1:
        raise ValueError(f"checkpoint {path} is format 1, which an older "
                         "build of hamlearn wrote; this build reads format "
                         f"{CHECKPOINT_FORMAT_VERSION}")
    kind, system, hidden, adam = map(blob.get, ("learner", "system",
                                                "hidden", "adam"))
    t = adam.get("t") if type(adam) is dict else None
    count = lambda v: type(v) is int and v >= 0
    bad = [key for key, ok in (
        ("format_version",
         blob.get("format_version") == CHECKPOINT_FORMAT_VERSION),
        ("learner", kind in LEARNER_KINDS), ("system", system in SYSTEMS),
        ("hidden", type(hidden) is list
         and all(type(h) is int and h > 0 for h in hidden)),
        ("activation", blob.get("activation") == ACTIVATION),
        ("episode", count(blob.get("episode"))),
        ("adam", count(t) and adam == {"t": t})) if not ok]
    if bad:
        raise ValueError(f"checkpoint {path} has a bad {bad[0]!r}")
    learner = build_learner(kind, 2 * DOF[system], tuple(hidden))
    npy = os.path.splitext(os.path.basename(path))[0] + ".npy"
    (afile, stack), = read_arrays(path, blob.get("sha256"), {
        npy: (3, param_count(learner.spec))}).items()
    theta, m, v = np.array(stack)
    for name, row in (("params", theta), ("adam.m", m), ("adam.v", v)):
        if not np.isfinite(row).all():
            raise ValueError(f"{afile} holds a non-finite value in its "
                             f"{name} row")
    return learner, theta, AdamState(m, v, t), blob
