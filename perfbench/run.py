#!/usr/bin/env python3
"""hamlearn benchmark: closed-loop CLI workloads plus an in-process traced run.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing is installed.

``--trace 0`` drives the ``hamlearn`` CLI as one client: one subprocess at a
time, each starting after the previous one exits, BLAS pinned to one thread.
It sets the workload up three times (``setup_s`` is the median), then
repeats passes over the workload's commands while the next pass is expected
to end within ``--seconds`` (at least three passes), and reports the
end-to-end metrics as medians over passes.  A failed set-up command ends the
run early: it prints ``correct: false`` with only the metrics measured.  Every command is checked: exit
code 0, strict JSON outputs (no NaN or Infinity), byte-identical outputs on
every pass after the first, and the quality number within the recorded
reference (perfbench/reference.json).

``--trace 1`` runs the same argv in-process through ``hamlearn.cli.main``,
once untraced and once with every public function of the layer modules
wrapped, and reports the per-layer metrics (see perfbench/README.md).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and the per-command times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import tracer as tr  # noqa: E402
from workloads import SMOKE, out_dir, workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_PASSES = 3
STARTUP_PROBES = 3  # per pass
IMPORT_PROBES = 3
CMD_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here (no program to import, broken probe)."""


def child_env() -> dict:
    """This process's environment, with BLAS pinned to one thread, the
    checkout's src/ as the only PYTHONPATH, and no HAMLEARN_* settings."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HAMLEARN_")}
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def cli_cmd(argv, seed=None):
    """The child command line; a seed also adds ``--strict-serial``."""
    argv = list(argv)
    if seed is not None:
        argv += ["--seed", str(seed), "--strict-serial"]
    return [sys.executable, "-m", "hamlearn", *argv]


def run_child(cmd, cwd: Path, env: dict, log: Path):
    """Run one subprocess to completion: (wall_s, exit_code, peak_rss_mb)."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6  # KiB -> MB


# -- correctness gate ---------------------------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


def strict_json(path: Path):
    """Parse JSON, rejecting NaN and Infinity (not valid strict JSON)."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def digest(directory: Path) -> dict:
    """relative path -> sha256 of every file under `directory`."""
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(directory))] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def read_quality(directory: Path, fname: str, key: str) -> float:
    path = directory / fname
    if fname.endswith(".json"):
        return float(strict_json(path)[key])
    lines = path.read_text().strip().split("\n")
    col = lines[0].split(",").index(key)
    return float(lines[-1].split(",")[col])


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def quality_fault(reference, workload: str, seed: int, value: float):
    """None if `value` agrees with the recorded reference, else a message.

    Seeds recorded in reference.json must match to `rel_tol`; any other seed
    must fall inside the band observed over the recorded seeds.
    """
    if value != value or value in (float("inf"), float("-inf")):
        return f"quality number is {value}"
    ref = reference.get(workload)
    if ref is None:
        return None
    want = ref["values"].get(str(seed))
    if want is not None:
        if abs(value - want) > ref["rel_tol"] * abs(want):
            return f"quality {value!r} drifted from reference {want!r}"
        return None
    lo, hi = ref["band"]
    if not lo <= value <= hi:
        return f"quality {value!r} outside the band [{lo}, {hi}]"
    return None


class Gate:
    """Counts commands attempted and failed, with each failure's reason."""

    def __init__(self, workload, seed, check_reference=True):
        self.workload = workload
        self.seed = seed
        self.reference = load_reference() if check_reference else {}
        self.attempted = 0
        self.faults = []
        self.first = {}    # (phase, label) -> digest of its first run
        self.quality = []  # quality numbers seen

    def check(self, phase, label, argv, rc, cwd: Path, log=""):
        """Record one command; returns True when it passed every check."""
        self.attempted += 1
        fault = None
        if rc != 0:
            fault = f"exit code {rc}: {log.strip()[-300:]}"
        elif "--out" in argv:
            out = cwd / out_dir(argv)
            fault = self._check_outputs(phase, label, out)
            if fault is None and label == self.workload.quality[0] \
                    and phase == "pass":
                _, fname, key = self.workload.quality
                value = read_quality(out, fname, key)
                self.quality.append(value)
                fault = quality_fault(self.reference, self.workload.name,
                                      self.seed, value)
        if fault is not None:
            self.faults.append(f"{phase}/{label}: {fault}")
        return fault is None

    def _check_outputs(self, phase, label, out: Path):
        try:
            for path in out.rglob("*.json"):
                strict_json(path)
        except ValueError as err:
            return f"{err}"
        got = digest(out)
        want = self.first.setdefault((phase, label), got)
        if got != want:
            diff = sorted(k for k in set(got) | set(want)
                          if got.get(k) != want.get(k))
            return f"rerun is not byte-identical: {diff[:3]}"
        return None

    @property
    def failed(self):
        return len(self.faults)


# -- environment --------------------------------------------------------------


PROBE = """
import importlib.util, json, platform, sys
import numpy, scipy, hamlearn
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "numba": importlib.util.find_spec("numba") is not None,
    "hamlearn": hamlearn.__file__,
}))
"""


def environment(env: dict, cwd: Path) -> dict:
    """Interpreter, library and machine facts for the result record."""
    out = subprocess.run([sys.executable, "-c", PROBE], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=CMD_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError(f"cannot import the program from {SRC}: "
                         f"{out.stderr.strip()[-500:]}")
    record = json.loads(out.stdout)
    if not Path(record["hamlearn"]).resolve().is_relative_to(SRC):
        raise BenchError(f"hamlearn imported from {record['hamlearn']}, "
                         f"not from {SRC}")
    record["blas_threads"] = {var: env[var] for var in THREAD_VARS}
    record["nproc"] = os.cpu_count()
    record["cpus_usable"] = len(os.sched_getaffinity(0))
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True,
                         env={**env,
                              "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    record["commit"] = git.stdout.strip() if git.returncode == 0 else "unknown"
    return record


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- end-to-end run (--trace 0) -----------------------------------------------


def run_setup(wl, seed, gate, env, base: Path):
    """One set-up: the workload's set-up commands, or a warm start (which
    also writes the bytecode cache) when it has none.  Returns its wall
    time, or None when a command failed (the gate records why)."""
    setup = fresh(base / "setup")
    t0 = time.perf_counter()
    cmds = [(argv[0], argv, seed) for argv in wl.setup]
    for label, argv, s in cmds or [("version", ("--version",), None)]:
        _, rc, _ = run_child(cli_cmd(argv, s), setup, env, base / "err.log")
        if not gate.check("setup", label, argv, rc, setup,
                          (base / "err.log").read_text()):
            return None
    return time.perf_counter() - t0


def run_pass(wl, seed, gate, env, work: Path):
    """One pass in the new directory `work`: start-up probes, then the
    workload's commands in order.  Returns ([start-up time], {label: wall},
    peak RSS list, bytes written)."""
    work.mkdir()
    log = work / "err.log"
    startups, walls, rss = [], {}, []
    for _ in range(STARTUP_PROBES):
        wall, rc, peak = run_child(cli_cmd(["--version"]), work, env, log)
        gate.check("pass", "version", ("--version",), rc, work,
                   log.read_text())
        startups.append(wall)
        rss.append(peak)
    for label, argv in wl.commands:
        wall, rc, peak = run_child(cli_cmd(argv, seed), work, env, log)
        gate.check("pass", label, argv, rc, work, log.read_text())
        walls[label] = wall
        rss.append(peak)
    log.unlink()
    files = [p for p in work.rglob("*") if p.is_file()]
    for path in files:  # so that writeback of this pass does not slow the next
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return startups, walls, rss, sum(p.stat().st_size for p in files)


def end_to_end(wl, seed, seconds, tiny=False):
    env = child_env()
    base = fresh(WORK / wl.name)
    gate = Gate(wl, seed, check_reference=not tiny)
    record = environment(env, base)
    setups = []
    while len(setups) < SETUP_REPEATS:
        wall = run_setup(wl, seed, gate, env, base)
        if wall is None:  # no passes; the result reports the failure
            break
        setups.append(wall)
    startups, passes, rss, written = [], [], [], []
    t0 = time.perf_counter()
    while len(setups) == SETUP_REPEATS:
        # Each pass writes to its own directory; nothing is deleted until
        # the run ends, so no file removal falls inside a timed command.
        s, walls, r, w = run_pass(wl, seed, gate, env,
                                  base / f"pass{len(passes)}")
        startups += s
        passes.append(walls)
        rss += r
        written.append(w)
        used = time.perf_counter() - t0
        expected_end = used * (1 + 1 / len(passes))
        if len(passes) >= MIN_PASSES and expected_end > seconds:
            break
    shutil.rmtree(base, ignore_errors=True)

    print("# env " + json.dumps(record, sort_keys=True))
    print(f"# {wl.name} seed={seed}: {len(passes)} passes, "
          f"{gate.attempted} commands, {gate.failed} failed")
    for fault in gate.faults:
        print(f"# FAILED {fault}")
    if not passes:  # a set-up failed
        return gate, {}
    per_command = {}
    for label, _ in wl.commands:
        vals = [p[label] for p in passes]
        per_command[label] = statistics.median(vals)
        print(f"#   {label + '_s':<16} {per_command[label]:9.4f} s  "
              f"(min {min(vals):.4f}, max {max(vals):.4f})")
    if gate.quality:
        print(f"#   quality ({wl.quality[2]}) {gate.quality[0]!r}")
    metrics = {
        "setup_s": statistics.median(setups),
        "startup_s": statistics.median(startups),
        "pipeline_s": sum(per_command.values()),
        "peak_rss_mb": max(rss),
        "output_mb": statistics.median(written) / 1e6,
    }
    return gate, metrics


# -- traced run (--trace 1) ---------------------------------------------------


def import_times(env, cwd: Path):
    """(import hamlearn.cli, of which scipy) in seconds, from -X importtime."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import hamlearn.cli"], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=CMD_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError(f"import probe failed: {out.stderr[-300:]}")
    return parse_importtime(out.stderr)


def parse_importtime(text: str):
    """Sum the cumulative times of the outermost hamlearn and scipy imports."""
    rows = []  # (depth, name, cumulative_us) in the order printed (post-order)
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum_us, name = line.split(":", 1)[1].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cum_us)))
    total = {"hamlearn": 0, "scipy": 0}
    # A row's enclosing import is the next row printed at a smaller depth.
    open_names = []  # stack of (depth, name) while walking in pre-order
    for depth, name, cum in reversed(rows):
        while open_names and open_names[-1][0] >= depth:
            open_names.pop()
        top = name.split(".")[0]
        if top in total and all(n.split(".")[0] != top for _, n in open_names):
            total[top] += cum
        open_names.append((depth, name))
    return total["hamlearn"] / 1e6, total["scipy"] / 1e6


def in_process(cli, commands, seed, gate, phase, cwd: Path):
    """Run (label, argv) through cli.main in `cwd`; returns the summed wall
    time of the cli.main calls."""
    old = os.getcwd()
    os.chdir(cwd)
    try:
        wall = 0.0
        for label, argv in commands:
            err = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    rc = cli.main(list(argv) + ["--seed", str(seed),
                                                "--strict-serial"])
            except Exception as exc:  # a traceback is a failed command
                rc = f"uncaught {exc!r}"
            wall += time.perf_counter() - t0
            gate.check(phase, label, argv, rc, cwd, err.getvalue())
        return wall
    finally:
        os.chdir(old)


def notes():
    """Per-function facts recorded with each span, outside its timing."""
    rows = lambda args, kwargs, result: len(args[2])
    return {
        "fastops.loss_hvp": rows,
        "fastops.loss_grad": rows,
        "fastops.predicted_field": rows,
        "taskgen.write_dataset": lambda a, k, r: os.path.abspath(a[0]),
        "taskgen.load_dataset": lambda a, k, r: len(r[1]),
        "metalearn.meta_step": lambda a, k, r: tuple(id(t) for t in a[2]),
    }


def traced(wl, seed, tiny=False):
    env = child_env()
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported in this process
    base = fresh(WORK / f"{wl.name}-trace")
    gate = Gate(wl, seed, check_reference=not tiny)
    record = environment(env, base)
    if run_setup(wl, seed, gate, env, base) is None:
        shutil.rmtree(base, ignore_errors=True)
        print(f"# FAILED {gate.faults[-1]}")
        return gate, {}
    probes = [import_times(env, base) for _ in range(IMPORT_PROBES)]

    sys.path.insert(0, str(SRC))
    import hamlearn.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"hamlearn imported from {cli.__file__}")

    smoke, work = base / "smoke", base / "pass"
    in_process(cli, SMOKE, seed, gate, "smoke", fresh(smoke))
    untraced_s = in_process(cli, wl.commands, seed, gate, "pass", fresh(work))
    t = tr.Tracer(notes())
    with t:
        in_process(cli, SMOKE, seed, gate, "smoke", fresh(smoke))
        traced_s = in_process(cli, wl.commands, seed, gate, "pass",
                              fresh(work))
    # A failed command may leave a traced function uncalled.
    metrics = {} if gate.failed else layer_metrics(t.spans)
    # Untraced passes on both sides of the traced one, so that drift in the
    # machine's speed cancels out of the overhead ratio.
    untraced_s = (untraced_s + in_process(cli, wl.commands, seed, gate,
                                          "pass", fresh(work))) / 2
    metrics["cli.import_s"] = statistics.median(p[0] for p in probes)
    metrics["cli.import_scipy_s"] = statistics.median(p[1] for p in probes)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    shutil.rmtree(base, ignore_errors=True)

    print("# env " + json.dumps(record, sort_keys=True))
    print(f"# {wl.name} seed={seed} traced: {gate.attempted} commands, "
          f"{gate.failed} failed; pass {untraced_s:.3f} s untraced (mean of "
          f"two), {traced_s:.3f} s traced")
    for fault in gate.faults:
        print(f"# FAILED {fault}")
    return gate, metrics


def layer_metrics(spans) -> dict:
    own = tr.self_times(spans)
    agg = tr.by_name(spans, own)

    def get(name):
        if name not in agg:  # the smoke sequence reaches every function
            raise BenchError(f"no calls of {name}: renamed or unreachable")
        return agg[name]

    note = lambda name: [spans[i][tr.NOTE] for i in get(name)["indices"]]
    m = {}
    for f in ("loss_hvp", "loss_grad", "predicted_field"):
        a = get(f"fastops.{f}")
        rows = sum(note(f"fastops.{f}"))
        m[f"fastops.{f}.calls"] = a["calls"]
        m[f"fastops.{f}.s"] = a["s"]
        m[f"fastops.{f}.rows"] = rows
        if f == "predicted_field":
            m[f"fastops.{f}.ns_per_row"] = a["s"] / rows * 1e9
        else:
            m[f"fastops.{f}.us_p50"] = statistics.median(a["durations"]) * 1e6
    a = get("metalearn.meta_step")
    m["metalearn.meta_step.calls"] = a["calls"]
    m["metalearn.meta_step.ms_p50"] = statistics.median(a["durations"]) * 1e3
    m["metalearn.meta_step.ms_p90"] = tr.quantile(a["durations"], 0.9) * 1e3
    m["metalearn.meta_step.self_s"] = a["self_s"]
    m["metalearn.adam_update.calls"] = get("metalearn.adam_update")["calls"]
    m["metalearn.adam_update.s"] = get("metalearn.adam_update")["s"]

    m["taskgen.make_meta_train.s"] = get("taskgen.make_meta_train")["s"]
    m["taskgen.write_dataset.s"] = get("taskgen.write_dataset")["s"]
    written = sum(p.stat().st_size for d in set(note("taskgen.write_dataset"))
                  for p in Path(d).rglob("*") if p.is_file())
    m["taskgen.write_dataset.mb"] = written / 1e6
    parsed = sum(note("taskgen.load_dataset"))
    m["taskgen.load_dataset.s"] = get("taskgen.load_dataset")["s"]
    m["taskgen.load_dataset.tasks_parsed"] = parsed
    # Distinct tasks meta_step received, per metatrain command (task ids are
    # only unique while that command's pool is alive).
    used = {}
    for i in get("metalearn.meta_step")["indices"]:
        cmd = tr.enclosing(spans, i, "cli.cmd_metatrain")
        used.setdefault(cmd, set()).update(spans[i][tr.NOTE])
    m["taskgen.pool.used_ratio"] = sum(len(u) for u in used.values()) / parsed
    m["taskgen.make_meta_test_suite.s"] = \
        get("taskgen.make_meta_test_suite")["s"]

    a = get("physics.integrate")
    m["physics.integrate.calls"] = a["calls"]
    m["physics.integrate.s"] = a["s"]
    m["physics.integrate.failures"] = a["errors"]
    a = get("physics.true_field_many")
    m["physics.true_field_many.calls"] = a["calls"]
    m["physics.true_field_many.s"] = a["s"]
    for f in ("adapt_params", "field_mse", "learning_curve", "rollout_eval"):
        a = get(f"evaluation.{f}")
        m[f"evaluation.{f}.calls"] = a["calls"]
        m[f"evaluation.{f}.s"] = a["s"]
        m[f"evaluation.{f}.self_s"] = a["self_s"]
    for f in ("save_checkpoint", "load_checkpoint", "write_provenance"):
        m[f"config.{f}.s"] = get(f"config.{f}")["s"]

    # metatrain's traced time, and the part of it that is neither a fastops
    # kernel nor meta_step's own work.
    total = attributed = 0.0
    for i in get("cli.cmd_metatrain")["indices"]:
        total += spans[i][tr.END] - spans[i][tr.START]
    for j, s in enumerate(spans):
        in_metatrain = tr.enclosing(spans, j, "cli.cmd_metatrain") >= 0
        if not in_metatrain:
            continue
        if s[tr.NAME].startswith("fastops.") and tr.enclosing(
                spans, j, prefix="fastops.") < 0:
            attributed += s[tr.END] - s[tr.START]
        elif s[tr.NAME] == "metalearn.meta_step":
            attributed += own[j]  # its fastops children are already excluded
    m["cli.metatrain.s"] = total
    m["cli.metatrain.unattributed_s"] = total - attributed
    return m


# -- entry point --------------------------------------------------------------


def result(gate, metrics, units) -> dict:
    """The result record; a run with failed commands may lack metrics."""
    missing = set(units) - set(metrics)
    if missing and not gate.failed:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    return {"correct": gate.failed == 0, "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units if name in metrics}}


def metric_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    table = workloads()
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; one of {sorted(table)}",
              file=sys.stderr)
        return 2
    if not (SRC / "hamlearn" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'hamlearn'} is missing",
              file=sys.stderr)
        return 2
    wl = table[args.workload]
    try:
        units = metric_units(bool(args.trace))
        if args.trace:
            gate, metrics = traced(wl, args.seed)
        else:
            gate, metrics = end_to_end(wl, args.seed, args.seconds)
        out = result(gate, metrics, units)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
