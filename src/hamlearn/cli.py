"""Command-line surface: gen, metatrain, eval, rollout, ablate.

Exit codes are a stable scripting contract: 0 on success, 1 for usage
errors (bad flags, missing arguments), 2 for runtime or numeric failures
(bad config files, missing files, corrupt data, non-finite losses).

Each command's flags, and the keys its --config file may set, come from
the settings table in `config`.  Every command writes <out>/config.txt:
the version, the command, and exactly the settings it read, as resolved.
So `hamlearn CMD --config <out>/config.txt --out NEW` replays the run.  A
flag that the chosen mode of a command ignores is a usage error.

Each command imports the modules it runs inside its cmd_* function, so
`--version` and a command line the parser rejects load no numpy and no
kernel module.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import DOF, LEARNERS
from .config import (COMMANDS, IGNORED, SETTINGS, TRAINING_KEYS,
                     format_value, load_checkpoint, read_config_file, resolve,
                     save_checkpoint, text_lines, version_string,
                     write_provenance)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we own the codes
        raise UsageError(message)


def _resolve(args, **defaults):
    """(settings, file values): the settings args.cmd reads, as a
    namespace, from `defaults` or the table's <- HAMLEARN_SEED <- the
    --config file <- the flags given; and what the file set."""
    file_values = read_config_file(args.config) if args.config else {}
    keys = ("seed", "out_dir", *COMMANDS[args.cmd])
    return (argparse.Namespace(**resolve(keys, file_values, vars(args),
                                         defaults)), file_values)


def _refuse(args, cfg, mode: str) -> None:
    """Drop from `cfg` the settings that `mode` ignores; a flag given for
    one is a usage error naming it and `mode`."""
    given = [SETTINGS[key][0] for key in IGNORED[mode]
             if getattr(args, key) is not None]
    if given:
        raise UsageError(f"{mode} ignores {', '.join(given)}")
    for key in IGNORED[mode]:
        delattr(cfg, key)


def build_parser() -> _Parser:
    p = _Parser(prog="hamlearn", description=__doc__)
    p.add_argument("--version", action="version", version=version_string())
    sub = p.add_subparsers(dest="cmd")
    for name, func, about in (
            ("gen", cmd_gen, "generate a task dataset"),
            ("metatrain", cmd_metatrain, "meta-train a learner on a dataset"),
            ("eval", cmd_eval, "adapt to held-out systems and score"),
            ("rollout", cmd_rollout, "integrate a learner against truth"),
            ("ablate", cmd_ablate, "task-count sweep or learning curve")):
        s = sub.add_parser(name, help=about)
        s.set_defaults(func=func)
        s.add_argument("--config", help="flat key = value config file")
        either = s.add_mutually_exclusive_group() if name == "rollout" else s
        for key in dict.fromkeys(("seed", "out_dir", "strict_serial",
                                  *COMMANDS[name])):
            flag, kind, default, *helps = SETTINGS[key]
            how = (dict(action="store_const", const=not default)
                   if kind is bool else dict(choices=kind)
                   if isinstance(kind, tuple) else dict(type=kind))
            (either if key in ("oracle", "checkpoint") else s).add_argument(
                flag, dest=key, help=helps[0] if helps else None, **how)
    return p


# -- commands -------------------------------------------------------------------


def cmd_gen(args) -> int:
    cfg, _ = _resolve(args)
    for flag, value in (("--tasks", cfg.tasks), ("--points", cfg.points)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1")
    from .taskgen import make_meta_train, write_dataset
    tasks = make_meta_train(cfg.system, cfg.tasks, cfg.points, cfg.seed)
    write_dataset(cfg.out_dir, cfg.system, cfg.seed, tasks)
    write_provenance("gen", vars(cfg))
    print(f"wrote {len(tasks)} {cfg.system} tasks to {cfg.out_dir}")
    return 0


def _check_resume(path: str, blob, adam, cfg, system: str,
                  record: dict) -> None:
    """Refuse a checkpoint of another learner or system, or trained with
    other settings or on other data than this run's `record`; only the
    episode count may grow, and Adam has taken one step per episode."""
    want = {"learner": cfg.learner, "system": system, "seed": cfg.seed,
            "hidden": list(cfg.hidden), **record}
    diffs = [f"{key} {blob[key]!r} (this run: {value!r})" if key in blob
             else f"{key} not recorded" for key, value in want.items()
             if blob.get(key) != value]
    if diffs:
        raise ValueError(f"cannot resume {path}, trained with other "
                         "settings: " + "; ".join(diffs))
    if cfg.episodes < blob["episode"]:
        raise ValueError(f"{path} is at episode {blob['episode']}, "
                         f"past --episodes {cfg.episodes}")
    if adam.t != blob["episode"]:
        raise ValueError(f"{path} has adam.t {adam.t} but "
                         f"episode {blob['episode']}")


def _episode(path: str, lineno: int, row: str) -> int:
    """The episode number that begins line `lineno` of a curve file."""
    try:
        return int(row.split(",", 1)[0])
    except ValueError:
        raise ValueError(f"{path}:{lineno}: not an episode row") from None


def cmd_metatrain(args) -> int:
    cfg, file_values = _resolve(args)
    training = LEARNERS[cfg.learner][2]
    if training is None:
        raise UsageError(f"{cfg.learner} has nothing to meta-train")
    if cfg.resume and training == "pretrain":
        # pretraining keeps no optimizer state across runs, so a resume
        # could only restart it
        raise UsageError(f"{cfg.learner} cannot be resumed")
    if not cfg.dataset:
        raise UsageError("--dataset is required")
    from .metalearn import (InnerConfig, OuterConfig, build_learner,
                            train_learner)
    from .network import init_params
    from .taskgen import load_dataset
    manifest, tasks = load_dataset(cfg.dataset)
    system = manifest["system"]
    if file_values.get("system", system) != system:
        raise ValueError(f"dataset holds {system!r} tasks, "
                         f"config says {file_values['system']!r}")
    learner = build_learner(cfg.learner, 2 * DOF[system], cfg.hidden,
                            InnerConfig(cfg.inner_steps, cfg.inner_lr))
    outer = OuterConfig(cfg.episodes, cfg.task_batch, cfg.outer_lr,
                        cfg.second_order)
    # what the checkpoint records for a resume to insist on: older builds
    # also trained with sgd, and the manifest's digest names the data
    record = {**{key: getattr(cfg, key) for key in TRAINING_KEYS},
              "optimizer": "adam", "dataset": tasks.digest}
    start_episode, adam = 0, None
    if cfg.resume:
        _, theta, adam, blob = load_checkpoint(cfg.resume)
        _check_resume(cfg.resume, blob, adam, cfg, system, record)
        start_episode = blob["episode"]
    else:
        theta = init_params(learner.spec, cfg.seed)
    curve_path = os.path.join(cfg.out_dir, "curve.csv")
    ckpt_path = os.path.join(cfg.out_dir, "checkpoint.json")
    lines = ["episode,meta_loss,wall_time\n"]
    if cfg.resume and os.path.exists(curve_path):
        # the rows before the resumed episode, so that a resume retried
        # after a failure does not repeat the failed run's rows
        rows = text_lines(curve_path)
        if rows[:1] != lines:
            raise ValueError(f"{curve_path}:1: expected the header "
                             f"{lines[0].strip()!r}")
        lines += [l for i, l in enumerate(rows[1:], 2)
                  if _episode(curve_path, i, l) < start_episode]
    write_provenance("metatrain", vars(cfg))
    t0 = time.monotonic()
    with open(curve_path, "w") as fh:
        fh.writelines(lines)

        def log(ep, loss):
            wall = 0.0 if cfg.strict_serial else time.monotonic() - t0
            fh.write(f"{ep},{format_value(loss)},{format_value(wall)}\n")

        theta, adam, episode = train_learner(
            learner, theta, tasks, outer, cfg.seed, adam=adam,
            start_episode=start_episode, on_episode=log)
    save_checkpoint(ckpt_path, learner, theta, adam, episode, cfg.seed,
                    system, record)
    print(f"trained {cfg.learner} to episode {episode}; "
          f"checkpoint at {ckpt_path}")
    return 0


def _load_learner_state(args, cfg):
    """Learner + parameters from a checkpoint, or an untrained fresh init.

    The checkpoint's own architecture and system win over config values,
    and replace those of them that `cfg` holds; an explicit conflicting
    flag is an error rather than a silent override.
    """
    from .metalearn import build_learner
    from .network import init_params
    if cfg.checkpoint:
        learner, theta, _, blob = load_checkpoint(cfg.checkpoint)
        have = {"learner": learner.kind, "system": blob["system"],
                "hidden": tuple(blob["hidden"])}
        for key, value in have.items():
            want = getattr(args, key, None)
            if want is not None and want != value:
                say = lambda v: ",".join(map(str, v)) if key == "hidden" else v
                raise ValueError(f"checkpoint has {key} {say(value)}, "
                                 f"--{key} says {say(want)}")
        vars(cfg).update((k, v) for k, v in have.items() if k in vars(cfg))
        return learner, theta
    if "learner" not in vars(cfg):  # rollout and ablate take no --learner
        raise UsageError("--checkpoint is required")
    untrained = [kind for kind, v in LEARNERS.items() if v[2] is None]
    if cfg.learner not in untrained:
        raise UsageError("--checkpoint is required unless the learner is "
                         + " or ".join(untrained))
    learner = build_learner(cfg.learner, 2 * DOF[cfg.system], cfg.hidden)
    return learner, init_params(learner.spec, cfg.seed)


def cmd_eval(args) -> int:
    import json

    from .evaluation import adapt_and_eval
    from .taskgen import make_meta_test_suite
    cfg, _ = _resolve(args)
    learner, theta = _load_learner_state(args, cfg)
    suite = make_meta_test_suite(cfg.system, cfg.mode, cfg.k, cfg.seed,
                                 cfg.n_systems)
    per = adapt_and_eval(learner, theta, suite, cfg.adapt_steps, cfg.adapt_lr)
    write_provenance("eval", vars(cfg))
    rep = dict(learner=learner.kind, system=cfg.system, mode=cfg.mode,
               k=cfg.k, mse_mean=float(per.mean()), mse_std=float(per.std()),
               n_systems=cfg.n_systems, adapt_steps=cfg.adapt_steps)
    with open(os.path.join(cfg.out_dir, "report.json"), "w") as fh:
        fh.write(json.dumps(rep, indent=2, sort_keys=True, allow_nan=False)
                 + "\n")
    with open(os.path.join(cfg.out_dir, "report.csv"), "w") as fh:
        # the columns of report.json; str of a float is its repr
        fh.write(f"{','.join(rep)}\n{','.join(map(str, rep.values()))}\n")
    print(f"{learner.kind} on {cfg.system} ({cfg.mode}, K={cfg.k}): "
          f"mse {rep['mse_mean']:.6g} +- {rep['mse_std']:.6g} "
          f"over {cfg.n_systems} systems")
    return 0


def cmd_rollout(args) -> int:
    # rollouts default to a longer adaptation
    cfg, _ = _resolve(args, adapt_steps=50)
    spec, theta = None, None  # spec None: the oracle
    if cfg.oracle:
        _refuse(args, cfg, "--oracle")
    else:
        learner, theta = _load_learner_state(args, cfg)  # sets cfg.system
        spec = learner.spec
        if cfg.k < 1:
            raise ValueError("K must be >= 1")
    if cfg.x0 is not None and len(cfg.x0) != 2 * DOF[cfg.system]:
        raise UsageError(f"--x0 needs {2 * DOF[cfg.system]} components")
    import numpy as np

    from . import seeding
    from .evaluation import adapt_params, rollout_eval
    from .physics import true_field_many
    from .taskgen import sample_params, sample_states
    rng = seeding.split(cfg.seed, seeding.ROLLOUT, 0)
    params = sample_params(cfg.system, rng)
    if not cfg.oracle:
        X = sample_states(params, rng, cfg.k)
        theta = adapt_params(learner, theta, X, true_field_many(params, X),
                             cfg.adapt_steps, cfg.adapt_lr)
    x0 = sample_states(params, rng, 1)[0] if cfg.x0 is None \
        else np.array(cfg.x0)
    report = rollout_eval(spec, theta, params, x0, cfg.t_span, cfg.samples)
    write_provenance("rollout", vars(cfg))
    cols = ["t", "state_mse", "energy_mse"] + [
        f"{c}{i + 1}_{tag}" for tag in ("pred", "true") for c in "qp"
        for i in range(params.n)]
    path = os.path.join(cfg.out_dir, "rollout.csv")
    with open(path, "w") as fh:
        fh.write(f"# version = {version_string()}\n")
        fh.write(f"# system = {cfg.system}\n")
        for key, values in (("params", params.as_vector()), ("x0", x0)):
            fh.write(f"# {key} = {','.join(map(format_value, values))}\n")
        if report.failure_time is not None:
            fh.write(f"# failure_time = {format_value(report.failure_time)}\n")
        fh.write(",".join(cols) + "\n")
        for i in range(len(report.times)):
            row = [report.times[i], report.state_mse[i], report.energy_mse[i]]
            row += list(report.pred_states[i]) + list(report.true_states[i])
            fh.write(",".join(map(format_value, row)) + "\n")
    if report.failure_time is not None:
        print(f"integration stopped at t={report.failure_time:.3g}; "
              f"partial series in {path}")
    else:
        print(f"rollout complete; series in {path}")
    return 0


def cmd_ablate(args) -> int:
    cfg, _ = _resolve(args)
    if cfg.step_range:
        _refuse(args, cfg, "--step-range")
        lo, _, hi = cfg.step_range.partition(":")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise UsageError("--step-range must look like 0:50")
        if lo != 0 or hi < 1:
            raise UsageError("--step-range must look like 0:50")
        from .evaluation import learning_curve
        from .taskgen import make_meta_test_suite
        learner, theta = _load_learner_state(args, cfg)
        suite = make_meta_test_suite(cfg.system, cfg.mode, cfg.k, cfg.seed,
                                     cfg.n_systems)
        curve = learning_curve(learner, theta, suite, hi, cfg.adapt_lr)
        write_provenance("ablate", vars(cfg))
        path = os.path.join(cfg.out_dir, "curve.csv")
        with open(path, "w") as fh:
            fh.write("step,mse_mean\n")
            for step, mse in enumerate(curve):
                fh.write(f"{step},{format_value(mse)}\n")
        print(f"learning curve (0..{hi}) in {path}")
        return 0
    _refuse(args, cfg, "ablate without --step-range")
    counts, kinds = list(cfg.counts), cfg.learners
    if not counts or counts != sorted(set(counts)) or counts[0] < 1:
        raise UsageError("--counts must be one or more positive, strictly "
                         "ascending task counts")
    if not kinds or len(set(kinds) & set(LEARNERS)) < len(kinds):
        raise UsageError("--learners must be distinct kinds among "
                         + ",".join(LEARNERS))
    from .evaluation import ablation_tasks
    from .metalearn import InnerConfig, OuterConfig
    table = ablation_tasks(kinds, counts, cfg.system, cfg.mode, cfg.k,
                           cfg.seed, InnerConfig(cfg.inner_steps,
                                                 cfg.inner_lr),
                           OuterConfig(cfg.episodes, cfg.task_batch,
                                       cfg.outer_lr, cfg.second_order),
                           n_points=cfg.points, n_systems=cfg.n_systems,
                           hidden=cfg.hidden, adapt_steps=cfg.adapt_steps,
                           adapt_lr=cfg.adapt_lr)
    write_provenance("ablate", vars(cfg))
    path = os.path.join(cfg.out_dir, "ablation.csv")
    with open(path, "w") as fh:
        fh.write("learner,task_count,mse_mean,mse_std\n")
        for kind in kinds:
            for count in counts:
                per = table[kind][count]
                fh.write(f"{kind},{count},{format_value(per.mean())},"
                         f"{format_value(per.std())}\n")
    print(f"ablation table in {path}")
    return 0


def main(argv=None) -> int:
    """The exit code of the command line `argv`; the process entry, which
    `python -m hamlearn` and the installed script share, is __main__.main."""
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("a subcommand is required "
                             "(gen, metatrain, eval, rollout, ablate)")
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, ArithmeticError, RuntimeError,
            MemoryError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 2
