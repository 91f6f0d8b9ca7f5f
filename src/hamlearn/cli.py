"""Command-line surface: gen, metatrain, eval, rollout, ablate.

Exit codes are a stable scripting contract: 0 on success, 1 for usage
errors (bad flags, missing arguments), 2 for runtime or numeric failures
(bad config files, missing files, corrupt data, non-finite losses).

Every command writes <out>/config.txt: the version string and each
RunConfig setting as resolved, whether the command reads it or not.  Flags
outside RunConfig, such as --checkpoint, --tasks or --T, are not in it.
A flag that the chosen mode of a command ignores is a usage error.

Each command imports the modules it runs inside its cmd_* function, so
`--version` and a command line the parser rejects load no numpy and no
kernel module.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import LEARNER_KINDS, SYSTEMS
from .config import (TRAINING_KEYS, RunConfig, comma_list, load_checkpoint,
                     non_negative_int, read_config_file, resolve_config,
                     save_checkpoint, version_string, write_provenance)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we own the codes
        raise UsageError(message)


def _fmt(v: float) -> str:
    return repr(float(v))


def _refuse(args, mode: str, **flags) -> None:
    """Usage error naming `mode` and the `flags` (dest=flag) set it ignores."""
    given = [f for dest, f in flags.items() if getattr(args, dest) is not None]
    if given:
        raise UsageError(f"{mode} ignores {', '.join(given)}")


def _common_flags(sub, func):
    """The flags every command takes, and `func`, which runs it."""
    sub.set_defaults(func=func)
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--seed", type=non_negative_int,
                     help="run seed (env HAMLEARN_SEED is the fallback when "
                     "neither flag nor file sets one)")
    sub.add_argument("--out", dest="out_dir", help="output directory")
    sub.add_argument("--strict-serial", dest="strict_serial",
                     action="store_const", const=True,
                     help="write 0.0 for wall_time, so reruns are "
                     "byte-identical (nothing runs in parallel either way)")


def _resolve(args):
    """RunConfig from defaults <- config file <- set flags, plus the raw
    file values for commands that need to know what the file pinned.  The
    flags are the command's parsed arguments named like RunConfig fields."""
    file_values = read_config_file(args.config) if args.config else {}
    overrides = {k: v for k, v in vars(args).items()
                 if k in RunConfig.__dataclass_fields__}
    return resolve_config(file_values, overrides), file_values


def build_parser() -> _Parser:
    p = _Parser(prog="hamlearn", description=__doc__)
    p.add_argument("--version", action="version", version=version_string())
    sub = p.add_subparsers(dest="cmd")

    g = sub.add_parser("gen", help="generate a task dataset")
    g.add_argument("--system", choices=SYSTEMS)
    g.add_argument("--tasks", type=int, default=10000)
    g.add_argument("--points", type=int, default=50)
    _common_flags(g, cmd_gen)

    m = sub.add_parser("metatrain", help="meta-train a learner on a dataset")
    m.add_argument("--dataset", help="dataset directory from gen")
    m.add_argument("--learner", choices=LEARNER_KINDS)
    m.add_argument("--episodes", type=int)
    m.add_argument("--task-batch", dest="task_batch", type=int)
    m.add_argument("--inner-steps", dest="inner_steps", type=int)
    m.add_argument("--inner-lr", dest="inner_lr", type=float)
    m.add_argument("--outer-lr", dest="outer_lr", type=float)
    m.add_argument("--first-order", dest="second_order", action="store_const",
                   const=False)
    m.add_argument("--hidden", type=comma_list(int))
    m.add_argument("--resume", help="checkpoint to continue from")
    _common_flags(m, cmd_metatrain)

    e = sub.add_parser("eval", help="adapt to held-out systems and score")
    e.add_argument("--checkpoint", help="required unless learner is "
                   "hnn_scratch")
    e.add_argument("--learner", choices=LEARNER_KINDS)
    e.add_argument("--system", choices=SYSTEMS)
    e.add_argument("--mode", choices=("points", "trajectories"))
    e.add_argument("--k", type=int)
    e.add_argument("--steps", dest="adapt_steps", type=int)
    e.add_argument("--adapt-lr", dest="adapt_lr", type=float)
    e.add_argument("--n-systems", dest="n_systems", type=int)
    e.add_argument("--hidden", type=comma_list(int))
    _common_flags(e, cmd_eval)

    r = sub.add_parser("rollout", help="integrate a learner against truth")
    source = r.add_mutually_exclusive_group()
    source.add_argument("--checkpoint", help="required unless --oracle")
    source.add_argument("--oracle", action="store_true",
                        help="integrate the analytic field as the learner")
    r.add_argument("--system", choices=SYSTEMS)
    r.add_argument("--x0", type=comma_list(float), help="comma-separated "
                   "initial state; sampled from the state region when omitted")
    r.add_argument("--T", dest="t_span", type=float, default=20.0)
    r.add_argument("--samples", type=int, default=200)
    r.add_argument("--k", type=int)
    r.add_argument("--steps", dest="adapt_steps", type=int,
                   help="adaptation steps before the rollout (default 50)")
    r.add_argument("--adapt-lr", dest="adapt_lr", type=float)
    _common_flags(r, cmd_rollout)

    a = sub.add_parser("ablate", help="task-count sweep or learning curve")
    a.add_argument("--counts", type=comma_list(int),
                   help="comma-separated ascending task counts")
    a.add_argument("--learners", type=comma_list(str))
    a.add_argument("--step-range", dest="step_range",
                   help="0:N  -> export the adaptation learning curve "
                   "for --checkpoint instead of sweeping task counts")
    a.add_argument("--checkpoint")
    a.add_argument("--system", choices=SYSTEMS)
    a.add_argument("--mode", choices=("points", "trajectories"))
    a.add_argument("--k", type=int)
    a.add_argument("--n-systems", dest="n_systems", type=int)
    a.add_argument("--points", type=int)
    a.add_argument("--episodes", type=int)
    a.add_argument("--task-batch", dest="task_batch", type=int)
    a.add_argument("--inner-steps", dest="inner_steps", type=int)
    a.add_argument("--hidden", type=comma_list(int))
    _common_flags(a, cmd_ablate)
    return p


# -- commands -------------------------------------------------------------------


def cmd_gen(args) -> int:
    for flag, value in (("--tasks", args.tasks), ("--points", args.points)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1")
    from .taskgen import make_meta_train, write_dataset
    cfg, _ = _resolve(args)
    tasks = make_meta_train(cfg.system, args.tasks, args.points, cfg.seed)
    write_dataset(cfg.out_dir, cfg.system, cfg.seed, tasks)
    write_provenance(cfg.out_dir, cfg)
    print(f"wrote {len(tasks)} {cfg.system} tasks to {cfg.out_dir}")
    return 0


def _check_resume(path: str, blob, adam, cfg, record: dict) -> None:
    """Refuse a checkpoint of another learner or system, or trained with
    other settings or on other data than this run's `record`; only the
    episode count may grow, and Adam has taken one step per episode."""
    want = {"learner": cfg.learner, "system": cfg.system, "seed": cfg.seed,
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


def cmd_metatrain(args) -> int:
    cfg, file_values = _resolve(args)
    if cfg.learner == "hnn_scratch":
        raise UsageError("hnn_scratch has nothing to meta-train")
    if args.resume and cfg.learner == "hnn_pretrained":
        # pretraining keeps no optimizer state across runs, so a resume
        # could only restart it
        raise UsageError("hnn_pretrained cannot be resumed")
    if not cfg.dataset:
        raise UsageError("--dataset is required")
    from .metalearn import train_learner
    from .network import init_params
    from .taskgen import load_dataset
    manifest, tasks = load_dataset(cfg.dataset)
    if "system" in file_values and file_values["system"] != manifest["system"]:
        raise ValueError(f"dataset holds {manifest['system']!r} tasks, "
                         f"config says {file_values['system']!r}")
    cfg.system = manifest["system"]
    learner, outer = cfg.learner_def(), cfg.outer_config()
    # what the checkpoint records for a resume to insist on: older builds
    # also trained with sgd, and the manifest's digest names the data
    record = {**{key: getattr(cfg, key) for key in TRAINING_KEYS},
              "optimizer": "adam", "dataset": tasks.digest}
    start_episode, adam = 0, None
    if args.resume:
        _, theta, adam, blob = load_checkpoint(args.resume)
        _check_resume(args.resume, blob, adam, cfg, record)
        start_episode = blob["episode"]
    else:
        theta = init_params(learner.spec, cfg.seed)
    write_provenance(cfg.out_dir, cfg)
    curve_path = os.path.join(cfg.out_dir, "curve.csv")
    ckpt_path = os.path.join(cfg.out_dir, "checkpoint.json")

    lines = ["episode,meta_loss,wall_time\n"]
    if args.resume and os.path.exists(curve_path):
        # the rows before the resumed episode, so that a resume retried
        # after a failure does not repeat the failed run's rows
        with open(curve_path) as fh:
            lines = fh.readlines()
        lines[1:] = [l for l in lines[1:]
                     if int(l.split(",", 1)[0]) < start_episode]
    t0 = time.monotonic()
    with open(curve_path, "w") as fh:
        fh.writelines(lines)

        def log(ep, loss):
            wall = 0.0 if cfg.strict_serial else time.monotonic() - t0
            fh.write(f"{ep},{_fmt(loss)},{_fmt(wall)}\n")

        theta, adam, episode = train_learner(
            learner, theta, tasks, outer, cfg.seed, adam=adam,
            start_episode=start_episode, on_episode=log)
    save_checkpoint(ckpt_path, learner, theta, adam, episode, cfg.seed,
                    cfg.system, record)
    print(f"trained {cfg.learner} to episode {episode}; "
          f"checkpoint at {ckpt_path}")
    return 0


def _load_learner_state(args, cfg):
    """Learner + parameters from a checkpoint, or a fresh scratch init.

    The checkpoint's own architecture and system win over config defaults;
    an explicit conflicting flag is an error rather than a silent override.
    """
    from .network import init_params
    if args.checkpoint:
        learner, theta, _, blob = load_checkpoint(args.checkpoint)
        have = {"learner": learner.kind, "system": blob["system"],
                "hidden": tuple(blob["hidden"])}
        for key, value in have.items():
            want = getattr(args, key, None)
            if want is not None and want != value:
                say = lambda v: ",".join(map(str, v)) if key == "hidden" else v
                raise ValueError(f"checkpoint has {key} {say(value)}, "
                                 f"--{key} says {say(want)}")
        cfg.learner, cfg.system, cfg.hidden = have.values()
        return learner, theta
    if cfg.learner != "hnn_scratch":
        raise UsageError("--checkpoint is required unless the learner is "
                         "hnn_scratch")
    learner = cfg.learner_def()
    return learner, init_params(learner.spec, cfg.seed)


def cmd_eval(args) -> int:
    from .evaluation import adapt_and_eval
    from .taskgen import make_meta_test_suite
    cfg, _ = _resolve(args)
    learner, theta = _load_learner_state(args, cfg)
    suite = make_meta_test_suite(cfg.system, cfg.mode, cfg.k, cfg.seed,
                                 cfg.n_systems)
    rep = adapt_and_eval(learner, theta, suite, cfg.adapt_steps, cfg.adapt_lr)
    write_provenance(cfg.out_dir, cfg)
    with open(os.path.join(cfg.out_dir, "report.json"), "w") as fh:
        fh.write(rep.to_json() + "\n")
    with open(os.path.join(cfg.out_dir, "report.csv"), "w") as fh:
        # the columns of report.json; str of a float is its repr
        fh.write(",".join(vars(rep)) + "\n"
                 + ",".join(map(str, vars(rep).values())) + "\n")
    print(f"{rep.learner} on {rep.system} ({rep.mode}, K={rep.k}): "
          f"mse {rep.mse_mean:.6g} +- {rep.mse_std:.6g} "
          f"over {rep.n_systems} systems")
    return 0


def cmd_rollout(args) -> int:
    if args.oracle:
        _refuse(args, "--oracle", k="--k", adapt_steps="--steps",
                adapt_lr="--adapt-lr")
    import numpy as np

    from . import seeding
    from .evaluation import adapt_params, rollout_eval
    from .physics import true_field_many
    from .taskgen import sample_params, sample_states
    cfg, file_values = _resolve(args)
    if args.adapt_steps is None and "adapt_steps" not in file_values:
        cfg.adapt_steps = 50  # rollouts default to a longer adaptation
    spec, theta = None, None  # spec None: the oracle
    if not args.oracle:
        learner, theta = _load_learner_state(args, cfg)
        spec = learner.spec
    rng = seeding.split(cfg.seed, seeding.ROLLOUT, 0)
    params = sample_params(cfg.system, rng)
    if not args.oracle:
        X = sample_states(params, rng, cfg.k)
        theta = adapt_params(learner, theta, X, true_field_many(params, X),
                             cfg.adapt_steps, cfg.adapt_lr)
    if args.x0:
        x0 = np.array(args.x0)
        if x0.size != 2 * params.n:
            raise UsageError(f"--x0 needs {2 * params.n} components")
    else:
        x0 = sample_states(params, rng, 1)[0]
    report = rollout_eval(spec, theta, params, x0, args.t_span, args.samples)
    write_provenance(cfg.out_dir, cfg)
    cols = ["t", "state_mse", "energy_mse"] + [
        f"{c}{i + 1}_{tag}" for tag in ("pred", "true") for c in "qp"
        for i in range(params.n)]
    path = os.path.join(cfg.out_dir, "rollout.csv")
    with open(path, "w") as fh:
        fh.write(f"# version = {version_string()}\n")
        fh.write(f"# system = {cfg.system}\n")
        fh.write(f"# params = {','.join(_fmt(v) for v in params.as_vector())}\n")
        fh.write(f"# x0 = {','.join(_fmt(v) for v in x0)}\n")
        if report.failure_time is not None:
            fh.write(f"# failure_time = {_fmt(report.failure_time)}\n")
        fh.write(",".join(cols) + "\n")
        for i in range(len(report.times)):
            row = [report.times[i], report.state_mse[i], report.energy_mse[i]]
            row += list(report.pred_states[i]) + list(report.true_states[i])
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    if report.failure_time is not None:
        print(f"integration stopped at t={report.failure_time:.3g}; "
              f"partial series in {path}")
    else:
        print(f"rollout complete; series in {path}")
    return 0


def cmd_ablate(args) -> int:
    cfg, _ = _resolve(args)
    if args.step_range:
        _refuse(args, "--step-range", counts="--counts", points="--points",
                learners="--learners", episodes="--episodes",
                task_batch="--task-batch", inner_steps="--inner-steps")
        lo, _, hi = args.step_range.partition(":")
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
        write_provenance(cfg.out_dir, cfg)
        path = os.path.join(cfg.out_dir, "curve.csv")
        with open(path, "w") as fh:
            fh.write("step,mse_mean\n")
            for step, mse in enumerate(curve):
                fh.write(f"{step},{_fmt(mse)}\n")
        print(f"learning curve (0..{hi}) in {path}")
        return 0
    _refuse(args, "ablate without --step-range", checkpoint="--checkpoint")
    # the defaults of --counts, --learners and --points
    counts = list((10, 50, 200, 500, 1000) if args.counts is None
                  else args.counts)
    kinds = ("hanil", "hnn_pretrained") if args.learners is None \
        else args.learners
    if not counts or counts != sorted(set(counts)) or counts[0] < 1:
        raise UsageError("--counts must be one or more positive, strictly "
                         "ascending task counts")
    if not kinds or not set(kinds) <= set(LEARNER_KINDS):
        raise UsageError("--learners must be among " + ",".join(LEARNER_KINDS))
    from .evaluation import ablation_tasks
    table = ablation_tasks(kinds, counts, cfg.system, cfg.mode, cfg.k,
                           cfg.seed, cfg.inner_config(), cfg.outer_config(),
                           n_points=50 if args.points is None
                           else args.points, n_systems=cfg.n_systems,
                           hidden=tuple(cfg.hidden),
                           adapt_steps=cfg.adapt_steps,
                           adapt_lr=cfg.adapt_lr)
    write_provenance(cfg.out_dir, cfg)
    path = os.path.join(cfg.out_dir, "ablation.csv")
    with open(path, "w") as fh:
        fh.write("learner,task_count,mse_mean,mse_std\n")
        for kind in kinds:
            for count in counts:
                rep = table[kind][count]
                fh.write(f"{kind},{count},{_fmt(rep.mse_mean)},"
                         f"{_fmt(rep.mse_std)}\n")
    print(f"ablation table in {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("a subcommand is required "
                             "(gen, metatrain, eval, rollout, ablate)")
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, ArithmeticError,
            RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
