"""Run every command of the CLI at tiny sizes and digest what each writes.

Usage: PYTHONPATH=src python tests/cli_sweep.py DIR

Each command runs as `python -m hamlearn` in DIR, with its own --out
directory DIR/<name>.  DIR/SHA256SUMS then holds the environment's
fingerprint (see `fingerprint`) and, per command in run order, its exit
code and the sha256 of each file in its --out directory.  The version
string is stripped before hashing (the `# version = ` lines and the
checkpoint's "version" value), so two checkouts that should behave alike
give identical SHA256SUMS files: diff them.  The sweep takes about 15
seconds on two cores.

tests/test_sweep.py runs it against tests/sweep.sha256, a copy of the
SHA256SUMS file of the current code.  A change that alters an output on
purpose regenerates that file in the same commit:

    PYTHONPATH=src python tests/cli_sweep.py DIR && \
        cp DIR/SHA256SUMS tests/sweep.sha256
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys

SEED = ["--seed", "5", "--strict-serial"]
TRAIN = ["--episodes", "3", "--task-batch", "2", "--inner-steps", "2",
         "--hidden", "6"]
EVAL = ["--k", "6", "--n-systems", "2", "--steps", "3"]
CKPT = "{}/checkpoint.json"
DATA = "data-spring_mass"


def _commands(root: str):
    """(name, argv without --out, expected to succeed) in run order.  A
    command may read what an earlier one wrote, so run each before drawing
    the next."""
    yield from ((f"data-{s}", ["gen", "--system", s, "--tasks", "30",
                               "--points", "6"], True)
                for s in ("spring_mass", "pendulum", "kepler"))
    for kind in ("naive_maml", "naive_anil", "hamaml", "hanil", "hanil_inv",
                 "hnn_pretrained"):
        yield (f"train-{kind}", ["metatrain", "--dataset", DATA, "--learner",
                                 kind, *TRAIN], True)
    yield ("train-hanil-first-order", ["metatrain", "--dataset", DATA,
                                       "--learner", "hanil", "--first-order",
                                       *TRAIN], True)
    yield ("train-kepler", ["metatrain", "--dataset", "data-kepler",
                            "--learner", "hamaml", *TRAIN], True)
    # a 2-episode run, then resumed in place to episode 3
    yield ("resume", ["metatrain", "--dataset", DATA, "--learner", "hamaml",
                      *TRAIN, "--episodes", "2"], True)
    yield ("resume", ["metatrain", "--dataset", DATA, "--learner", "hamaml",
                      *TRAIN, "--resume", CKPT.format("resume")], True)
    hanil = CKPT.format("train-hanil")
    yield ("eval-points", ["eval", "--checkpoint", hanil, *EVAL], True)
    yield ("eval-trajectories", ["eval", "--checkpoint", hanil,
                                 "--mode", "trajectories", *EVAL], True)
    yield ("eval-kepler", ["eval", "--checkpoint", CKPT.format("train-kepler"),
                           *EVAL], True)
    yield ("eval-scratch", ["eval", "--learner", "hnn_scratch", "--hidden",
                            "6", *EVAL], True)
    yield ("ablate-curve", ["ablate", "--step-range", "0:3", "--checkpoint",
                            hanil, "--k", "6", "--n-systems", "1"], True)
    yield ("ablate-counts", ["ablate", "--counts", "4,8", "--learners",
                             "hanil,hnn_pretrained", "--points", "6",
                             "--episodes", "2", "--task-batch", "2",
                             "--inner-steps", "1", "--hidden", "6", "--k",
                             "6", "--n-systems", "1"], True)
    yield ("rollout", ["rollout", "--checkpoint", hanil, "--k", "6",
                       "--steps", "3", "--T", "2", "--samples", "20"], True)
    yield ("rollout-oracle", ["rollout", "--oracle", "--system", "pendulum",
                              "--T", "2", "--samples", "20"], True)
    # rollouts that stop early: under --seed 5 the Kepler centre is near
    # (2.22, 0.61), so from rest at (2.5, 0.6) the orbit falls through the
    # evaluation guard; the learned one stops where the true orbit does;
    # the true energy of the last overflows at every sample
    kepler_fall = ["--system", "kepler", "--x0", "2.5,0.6,0,0", "--T", "1",
                   "--samples", "20"]
    yield ("rollout-oracle-kepler-guard", ["rollout", "--oracle",
                                           *kepler_fall], True)
    yield ("rollout-kepler-guard", ["rollout", "--checkpoint",
                                    CKPT.format("train-kepler"), "--k", "6",
                                    "--steps", "3", *kepler_fall], True)
    yield ("rollout-oracle-pendulum-x0", ["rollout", "--oracle", "--system",
                                          "pendulum", "--x0", "3,0.5", "--T",
                                          "5", "--samples", "10"], True)
    yield ("rollout-oracle-overflow", ["rollout", "--oracle", "--system",
                                       "pendulum", "--x0", "1e308,1e308",
                                       "--T", "1", "--samples", "5"], True)
    for kind in ("naive_maml", "naive_anil", "hamaml", "hanil_inv"):
        ckpt = CKPT.format(f"train-{kind}")
        yield (f"eval-{kind}", ["eval", "--checkpoint", ckpt, *EVAL], True)
        yield (f"ablate-curve-{kind}", ["ablate", "--step-range", "0:3",
                                        "--checkpoint", ckpt, "--k", "6",
                                        "--n-systems", "1"], True)
        yield (f"rollout-{kind}", ["rollout", "--checkpoint", ckpt, "--k", "6",
                                   "--steps", "3", "--T", "2", "--samples",
                                   "20"], True)
    yield ("ablate-counts-naive", ["ablate", "--counts", "4,8", "--learners",
                                   "naive_anil,naive_maml", "--points", "6",
                                   "--episodes", "2", "--task-batch", "2",
                                   "--inner-steps", "1", "--hidden", "6",
                                   "--k", "6", "--n-systems", "1"], True)
    yield ("fail-gen-no-tasks", ["gen", "--tasks", "0"], False)
    yield ("fail-no-dataset", ["metatrain", "--dataset", "no-such-dir",
                               "--learner", "hanil", *TRAIN], False)
    yield ("fail-no-episodes", ["metatrain", "--dataset", DATA, "--learner",
                                "hanil", *TRAIN, "--episodes", "0"], False)
    yield ("fail-optimizer", ["metatrain", "--dataset", DATA, "--learner",
                              "hanil", *TRAIN, "--optimizer", "adam"], False)
    yield ("fail-resume-other-lr", ["metatrain", "--dataset", DATA,
                                    "--learner", "hanil", *TRAIN,
                                    "--episodes", "4", "--resume", hanil,
                                    "--inner-lr", "0.5"], False)
    yield ("fail-eval-no-checkpoint", ["eval", "--checkpoint", "missing.json",
                                       *EVAL], False)
    yield ("fail-rollout-nan-T", ["rollout", "--oracle", "--T", "nan"], False)
    yield ("fail-rollout-oracle-checkpoint", ["rollout", "--oracle",
                                              "--checkpoint", hanil], False)
    # a copy of the hanil checkpoint, as non-finite.json and .npy, whose
    # array holds an inf where adam.m[0] was, with its digest updated
    import numpy as np
    stack = np.load(os.path.join(root, "train-hanil", "checkpoint.npy"))
    stack[1, 0] = np.inf
    np.save(os.path.join(root, "non-finite.npy"), stack)
    with open(os.path.join(root, hanil)) as fh:
        blob = json.load(fh)
    with open(os.path.join(root, "non-finite.npy"), "rb") as fh:
        blob["sha256"] = {"non-finite.npy": hashlib.file_digest(
            fh, "sha256").hexdigest()}
    with open(os.path.join(root, "non-finite.json"), "w") as fh:
        json.dump(blob, fh)
    yield ("fail-resume-non-finite", ["metatrain", "--dataset", DATA,
                                      "--learner", "hanil", *TRAIN,
                                      "--episodes", "4", "--resume",
                                      "non-finite.json"], False)
    # the hanil checkpoint's JSON alone, without its array file
    os.makedirs(os.path.join(root, "no-npy"), exist_ok=True)
    shutil.copy(os.path.join(root, hanil), os.path.join(root, "no-npy"))
    yield ("fail-eval-missing-npy", ["eval", "--checkpoint",
                                     "no-npy/checkpoint.json", *EVAL], False)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    data = re.sub(rb"(?m)^# version = .*\n", b"", data)
    data = re.sub(rb'"version": "[^"]*"', b'"version": ""', data)
    return hashlib.sha256(data).hexdigest()


def fingerprint() -> str:
    """What the outputs' bytes depend on beyond the code: the Python minor
    version, numpy and its BLAS, and the machine with the SIMD targets
    numpy dispatches to on it."""
    import numpy as np
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]["found"]
    return (f"python {sys.version_info[0]}.{sys.version_info[1]}, numpy "
            f"{np.__version__}, {blas['name']} {blas['version']}, "
            f"{platform.machine()} {'+'.join(simd)}")


def main(root: str) -> int:
    import hamlearn  # the children run the package this process imports
    src = os.path.dirname(os.path.dirname(os.path.abspath(hamlearn.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    os.makedirs(root, exist_ok=True)
    lines, surprises = [f"# fingerprint: {fingerprint()}"], []
    for name, argv, should_pass in _commands(root):
        proc = subprocess.run([sys.executable, "-m", "hamlearn", *argv, *SEED,
                               "--out", name], cwd=root, env=env,
                              capture_output=True, text=True)
        code = proc.returncode
        if (code == 0) != should_pass:
            surprises.append(f"{name} exited {code}: {proc.stderr.strip()}")
        lines.append(f"exit {code}  {name} {json.dumps(argv)}")
        out = os.path.join(root, name)
        for file in sorted(os.listdir(out)) if os.path.isdir(out) else ():
            lines.append(f"{_digest(os.path.join(out, file))}  {name}/{file}")
    with open(os.path.join(root, "SHA256SUMS"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in surprises:
        print(f"unexpected: {line}", file=sys.stderr)
    print(f"{len(lines)} lines in {os.path.join(root, 'SHA256SUMS')}")
    return 1 if surprises else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
