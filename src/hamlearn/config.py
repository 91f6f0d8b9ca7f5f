"""Run configuration, checkpoint persistence, and provenance helpers.

Config files are flat `key = value` text: one assignment per line, `#`
starts a comment, blank lines ignored.  Keys are RunConfig field names;
values are parsed by the field's type (ints, floats, true/false bools,
comma-separated ints for `hidden`, a non-negative int for `seed`).  CLI
flags override file values.
"""

from __future__ import annotations

import os
import subprocess
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING

from . import DOF, LEARNER_KINDS, SYSTEMS, __version__

if TYPE_CHECKING:  # the kernels load only where a method needs them
    import numpy as np

    from .metalearn import AdamState, InnerConfig, LearnerDef, OuterConfig

CHECKPOINT_FORMAT_VERSION = 1

# RunConfig fields that, with the seed and hidden sizes, fix a training
# run; a checkpoint records them so a resume can insist on them.
TRAINING_KEYS = ("inner_steps", "inner_lr", "outer_lr", "task_batch",
                 "second_order")

ENV_SEED = "HAMLEARN_SEED"

# What loading reads from a checkpoint: a tuple of allowed values, a range
# of allowed ints, a set of JSON types, a one-item list for a list of those,
# or a nested object.
_COUNT = range(2 ** 63)
_CHECKPOINT_FIELDS = {
    "learner": LEARNER_KINDS, "system": SYSTEMS, "episode": _COUNT,
    "input_dim": {int}, "hidden": [{int}], "output_dim": {int},
    "activation": {str}, "params": [{int, float}],
    "adam": {"m": [{int, float}], "v": [{int, float}], "t": _COUNT}}


@dataclass
class RunConfig:
    system: str = "spring_mass"
    learner: str = "hanil"
    seed: int = 0
    dataset: str = ""
    out_dir: str = "out"
    # inner loop
    inner_steps: int = 5
    inner_lr: float = 0.002
    # outer loop
    episodes: int = 100
    task_batch: int = 10
    outer_lr: float = 0.001
    second_order: bool = True
    # network
    hidden: tuple = (64, 64, 64)
    # meta-test protocol
    mode: str = "points"
    k: int = 50
    n_systems: int = 10
    adapt_steps: int = 10
    adapt_lr: float = 0.002
    # runtime
    strict_serial: bool = False

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}")
        if self.learner not in LEARNER_KINDS:
            raise ValueError(f"unknown learner {self.learner!r}")
        if self.mode not in ("points", "trajectories"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("inner_lr", "outer_lr", "adapt_lr"):
            if not 0 < getattr(self, name) < float("inf"):
                raise ValueError(f"{name.replace('_', ' ')} must be positive "
                                 "and finite")

    def inner_config(self) -> InnerConfig:
        from .metalearn import InnerConfig
        return InnerConfig(self.inner_steps, self.inner_lr)

    def outer_config(self) -> OuterConfig:
        from .metalearn import OuterConfig
        return OuterConfig(self.episodes, self.task_batch, self.outer_lr,
                           self.second_order)

    def learner_def(self) -> LearnerDef:
        from .metalearn import build_learner
        return build_learner(self.learner, 2 * DOF[self.system],
                             tuple(self.hidden),
                             self.inner_config())


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


def _parse_value(name: str, kind, text: str):
    """text as a value of `kind`; an error names where it was set, `name`."""
    text = text.strip()
    try:
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


_FIELD_KINDS = {f.name: type(f.default) for f in fields(RunConfig)}
_FIELD_KINDS.update(hidden=comma_list(int), seed=non_negative_int)


def read_config_file(path: str) -> dict:
    """Parse a flat key = value file into typed values."""
    values = {}
    # an undecodable byte reads as a lone surrogate, whose line is named
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if any("\udc80" <= c <= "\udcff" for c in raw):
                raise ValueError(f"{path}:{lineno}: not UTF-8 text")
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in _FIELD_KINDS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_value(f"{path}:{lineno}: {key}",
                                       _FIELD_KINDS[key], text)
    return values


def resolve_config(file_values: dict = None, overrides: dict = None) -> RunConfig:
    """Defaults <- config file <- CLI flags, with the env seed fallback."""
    merged = {}
    merged.update(file_values or {})
    merged.update({k: v for k, v in (overrides or {}).items() if v is not None})
    if "seed" not in merged and os.environ.get(ENV_SEED):
        merged["seed"] = _parse_value(ENV_SEED, non_negative_int,
                                      os.environ[ENV_SEED])
    unknown = set(merged) - set(_FIELD_KINDS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**merged)


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def config_text(cfg: RunConfig) -> str:
    """Resolved config as reloadable key = value text, plus the version."""
    lines = [f"# version = {version_string()}"]
    for key in sorted(asdict(cfg)):
        lines.append(f"{key} = {_fmt_value(getattr(cfg, key))}")
    return "\n".join(lines) + "\n"


def write_provenance(out_dir: str, cfg: RunConfig) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write(config_text(cfg))


_VERSION_CACHE = None


def version_string() -> str:
    """git-describe when available, else the package version."""
    global _VERSION_CACHE
    if _VERSION_CACHE is None:
        root = os.path.dirname(os.path.abspath(__file__))
        try:
            out = subprocess.run(
                ["git", "describe", "--tags", "--always", "--dirty"],
                cwd=root, capture_output=True, text=True, timeout=10)
            desc = out.stdout.strip()
            _VERSION_CACHE = (f"v{__version__}+g{desc}" if out.returncode == 0
                              and desc else f"v{__version__}")
        except OSError:
            _VERSION_CACHE = f"v{__version__}"
    return _VERSION_CACHE


# -- checkpoints ----------------------------------------------------------------


def _conforms(value, kind) -> bool:
    if isinstance(kind, dict):
        return type(value) is dict and all(_conforms(value.get(k), t)
                                           for k, t in kind.items())
    if isinstance(kind, range):
        return type(value) is int and value in kind
    if isinstance(kind, list):  # each int must round to a finite float
        return type(value) is list and set(map(type, value)) <= kind[0] and \
            all(abs(v) < 2 ** 1024 - 2 ** 970 for v in value if type(v) is int)
    return value in kind if isinstance(kind, tuple) else type(value) in kind


def save_checkpoint(path: str, learner: LearnerDef, theta: np.ndarray,
                    adam: AdamState, episode: int, seed: int,
                    system: str, training: dict = None) -> None:
    """JSON snapshot of a training state; floats round-trip exactly.

    `training`, the run's TRAINING_KEYS settings, optimizer and dataset
    digest, is stored beside the seed.  The text goes to a temporary file
    beside `path` that then replaces it, so a failed write leaves the
    previous checkpoint whole."""
    import json

    from .network import ACTIVATION
    blob = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "learner": learner.kind,
        "system": system,
        "seed": int(seed),
        **(training or {}),
        "episode": int(episode),
        "input_dim": learner.spec.input_dim,
        "hidden": list(learner.spec.hidden_dims),
        "output_dim": learner.spec.output_dim,
        "activation": ACTIVATION,
        "params": [float(v) for v in theta],
        "adam": {"m": [float(v) for v in adam.m],
                 "v": [float(v) for v in adam.v],
                 "t": int(adam.t)},
        "version": version_string(),
    }
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:  # streamed: the text is never whole
            json.dump(blob, fh, allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str):
    """Returns (learner_def, theta, adam, blob) rebuilt from disk."""
    import json

    import numpy as np

    from .metalearn import AdamState, build_learner
    from .network import ACTIVATION, param_count

    def refuse(token):  # save_checkpoint writes strict JSON
        raise ValueError(f"checkpoint {path} holds {token}, which is not "
                         "strict JSON")

    with open(path) as fh:
        blob = json.load(fh, parse_constant=refuse)
    if type(blob) is not dict or \
            blob.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format in {path}")
    bad = [key for key, kind in _CHECKPOINT_FIELDS.items()
           if not _conforms(blob.get(key), kind)]
    if bad:
        raise ValueError(f"checkpoint {path} has a bad or missing {bad[0]!r}")
    if blob["input_dim"] != 2 * DOF[blob["system"]] or \
            min(blob["hidden"], default=1) < 1:
        raise ValueError(f"checkpoint {path} has input_dim "
                         f"{blob['input_dim']} and hidden {blob['hidden']}, "
                         f"which do not fit a {blob['system']} network")
    learner = build_learner(blob["learner"], blob["input_dim"],
                            tuple(blob["hidden"]))
    spec, adam = learner.spec, blob["adam"]
    if spec.output_dim != blob["output_dim"] or \
            blob["activation"] != ACTIVATION:
        raise ValueError(f"checkpoint {path}: head does not match its "
                         "learner kind")
    if {len(blob["params"]), len(adam["m"]), len(adam["v"])} != \
            {param_count(spec)}:
        raise ValueError(f"checkpoint {path}: parameter or moment count "
                         "does not match its shape")
    theta, m, v = (np.asarray(x, np.float64)
                   for x in (blob["params"], adam["m"], adam["v"]))
    return learner, theta, AdamState(m, v, adam["t"]), blob
