"""Every CLI command of cli_sweep.py against its committed digests, and
replayed from the config.txt it wrote.

tests/sweep.sha256 holds what the sweep wrote for the current code: each
command's exit code, the sha256 of what it printed to stderr and the
sha256 of each file it wrote.  One test per
command compares its lines, so a failure names the command.  The training
outputs depend on the BLAS arithmetic, so on an environment with another
fingerprint (cli_sweep.fingerprint) those tests skip, naming both.  The
replays need no fingerprint: each compares two runs on this machine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cli_sweep

RECORDED = Path(__file__).with_name("sweep.sha256").read_text().splitlines()


def _by_command(lines) -> dict:
    """{command name: its lines}, in run order; lines are `exit CODE  NAME
    ARGV` or `SHA256  NAME/FILE`, where FILE `<stderr>` is what the command
    printed to stderr."""
    out = {}
    for line in lines[1:]:  # after the fingerprint
        name = line.split()[2] if line.startswith("exit ") else \
            line.split()[1].split("/")[0]
        out.setdefault(name, []).append(line)
    return out


@pytest.fixture(scope="module")
def sweep_root(tmp_path_factory):
    """The directory a sweep ran in now."""
    root = tmp_path_factory.mktemp("sweep")
    cli_sweep.main(str(root))
    return root


@pytest.fixture(scope="module")
def swept(sweep_root):
    """The lines of a sweep run now, by command."""
    here = f"# fingerprint: {cli_sweep.fingerprint()}"
    if RECORDED[0] != here:
        pytest.skip(f"digests recorded with {RECORDED[0][2:]}; this is "
                    f"{here[2:]}")
    return _by_command((sweep_root / "SHA256SUMS").read_text().splitlines())


def test_the_sweep_runs_the_recorded_commands(swept):
    assert list(swept) == list(_by_command(RECORDED))


@pytest.mark.parametrize("name", list(_by_command(RECORDED)))
def test_command_writes_the_recorded_bytes(swept, name):
    assert swept.get(name) == _by_command(RECORDED)[name]


# The commands that succeed, by name, with their argv.  `resume` is left
# out: the sweep runs it twice into one directory, and the second run
# reads and overwrites the checkpoint there.
SUCCEEDING = {line.split()[2]: json.loads(line.split(None, 3)[3])
              for line in RECORDED[1:]
              if line.startswith("exit 0 ") and line.split()[2] != "resume"}


def _outputs(out: Path) -> dict:
    """{file name: bytes} of an --out directory, without the out_dir line
    of its config.txt."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    files["config.txt"] = b"".join(
        line for line in files["config.txt"].splitlines(keepends=True)
        if not line.startswith(b"out_dir = "))
    return files


@pytest.mark.parametrize("name", list(SUCCEEDING))
def test_config_txt_replays_the_command(sweep_root, name):
    """`hamlearn CMD --config NAME/config.txt --out NAME-replay` in the
    sweep's directory writes what NAME holds, byte for byte."""
    import hamlearn
    src = os.path.dirname(os.path.dirname(os.path.abspath(hamlearn.__file__)))
    proc = subprocess.run([sys.executable, "-m", "hamlearn",
                           SUCCEEDING[name][0], "--config",
                           f"{name}/config.txt", "--out", f"{name}-replay"],
                          cwd=sweep_root, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _outputs(sweep_root / f"{name}-replay") == \
        _outputs(sweep_root / name)
