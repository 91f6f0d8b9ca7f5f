"""The benchmark's workloads: CLI argv sequences and how to read their quality.

Each workload is a set-up (argv lists run once per set-up, in ``setup/``) and
a pass (labelled argv lists run in order, in ``pass/``).  Every argv gets
``--seed <seed> --strict-serial`` appended, so the workload seed is the only
input and a second pass must reproduce the first byte for byte.  Paths are
relative to the directory the argv runs in.

The full sizes are scaled down from the ROADMAP's desk figures so that one
run of every workload fits the benchmark's time budget; the reasons are in
perfbench/README.md.  ``tiny=True`` gives the same command shapes at sizes
that finish in seconds, for the harness self-test.
"""

from __future__ import annotations

from dataclasses import dataclass

CHECKPOINT = "../setup/run/checkpoint.json"


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple     # argv tuples
    commands: tuple  # (label, argv tuple)
    quality: tuple   # (command label, file in its --out, key or CSV column)


# Sizes: full benchmark vs. harness self-test.
_FULL = {"desk_tasks": 1000, "desk_episodes": 12, "n_systems": 10,
         "pool_tasks": 1500, "pool_episodes": 2,
         "ckpt_tasks": 20, "ckpt_episodes": 2, "sweep_systems": 2,
         "curve_steps": 30, "curve_systems": 1, "hidden": "64,64,64"}
_TINY = {"desk_tasks": 12, "desk_episodes": 2, "n_systems": 1,
         "pool_tasks": 20, "pool_episodes": 1,
         "ckpt_tasks": 12, "ckpt_episodes": 1, "sweep_systems": 1,
         "curve_steps": 2, "curve_systems": 1, "hidden": "8"}


def workloads(tiny: bool = False) -> dict:
    z = _TINY if tiny else _FULL
    hidden = ("--hidden", z["hidden"])
    train_batch = ("--task-batch", "2", "--inner-steps", "2") if tiny else ()
    gen = lambda system, n: ("gen", "--system", system, "--tasks", str(n),
                             "--points", "50", "--out", "data")
    desk = Workload(
        "desk",
        setup=(),
        commands=(
            ("gen", gen("spring_mass", z["desk_tasks"])),
            ("metatrain", ("metatrain", "--dataset", "data", "--learner",
                           "hanil", "--episodes", str(z["desk_episodes"]),
                           *train_batch, *hidden, "--out", "run")),
            ("eval", ("eval", "--checkpoint", "run/checkpoint.json", "--k",
                      "50", "--n-systems", str(z["n_systems"]),
                      "--out", "report")),
            ("rollout", ("rollout", "--checkpoint", "run/checkpoint.json",
                         "--x0", "1.0,0.5", "--out", "rollout")),
        ),
        quality=("eval", "report.json", "mse_mean"),
    )
    big_pool = Workload(
        "big_pool",
        setup=(),
        commands=(
            ("gen", gen("pendulum", z["pool_tasks"])),
            ("metatrain", ("metatrain", "--dataset", "data", "--learner",
                           "hamaml", "--episodes", str(z["pool_episodes"]),
                           *train_batch, *hidden, "--out", "run")),
        ),
        quality=("metatrain", "curve.csv", "meta_loss"),
    )
    eval_sweep = Workload(
        "eval_sweep",
        setup=(
            gen("spring_mass", z["ckpt_tasks"]),
            ("metatrain", "--dataset", "data", "--learner", "hanil",
             "--episodes", str(z["ckpt_episodes"]), *train_batch, *hidden,
             "--out", "run"),
        ),
        commands=(
            ("eval", ("eval", "--checkpoint", CHECKPOINT, "--k", "50",
                      "--n-systems", str(z["n_systems"]), "--out", "report")),
            ("eval_traj", ("eval", "--learner", "hnn_scratch", "--system",
                           "pendulum", "--mode", "trajectories", *hidden,
                           "--n-systems", str(z["sweep_systems"]),
                           "--out", "report_traj")),
            ("eval_kepler", ("eval", "--learner", "hnn_scratch", "--system",
                             "kepler", *hidden, "--n-systems",
                             str(z["sweep_systems"]),
                             "--out", "report_kepler")),
            ("curve", ("ablate", "--step-range", f"0:{z['curve_steps']}",
                       "--checkpoint", CHECKPOINT, "--n-systems",
                       str(z["curve_systems"]), "--out", "curve")),
            ("rollout", ("rollout", "--checkpoint", CHECKPOINT,
                         "--out", "rollout")),
        ),
        quality=("eval", "report.json", "mse_mean"),
    )
    return {w.name: w for w in (desk, big_pool, eval_sweep)}


# A fixed, tiny sequence that calls every traced function at least once.
# The traced run executes it before the workload's pass, so every per-layer
# metric is defined on every workload; its share is the same on all of them.
SMOKE = (
    ("gen", ("gen", "--system", "spring_mass", "--tasks", "20", "--points",
             "50", "--out", "data")),
    ("metatrain", ("metatrain", "--dataset", "data", "--learner", "hanil",
                   "--episodes", "1", "--task-batch", "2", "--inner-steps",
                   "2", "--out", "run")),
    ("eval", ("eval", "--checkpoint", "run/checkpoint.json", "--n-systems",
              "1", "--out", "report")),
    ("curve", ("ablate", "--step-range", "0:1", "--checkpoint",
               "run/checkpoint.json", "--n-systems", "1", "--out", "curve")),
    ("rollout", ("rollout", "--checkpoint", "run/checkpoint.json", "--x0",
                 "1.0,0.5", "--T", "1", "--samples", "10", "--out",
                 "rollout")),
)


def out_dir(argv) -> str:
    return argv[list(argv).index("--out") + 1]
