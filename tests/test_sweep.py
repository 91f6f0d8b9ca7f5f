"""Every CLI command of cli_sweep.py against its committed digests.

tests/sweep.sha256 holds what the sweep wrote for the current code: each
command's exit code and the sha256 of each file it wrote.  One test per
command compares its lines, so a failure names the command.  The training
outputs depend on the BLAS arithmetic, so on an environment with another
fingerprint (cli_sweep.fingerprint) the tests skip, naming both.
"""

from pathlib import Path

import pytest

import cli_sweep

RECORDED = Path(__file__).with_name("sweep.sha256").read_text().splitlines()


def _by_command(lines) -> dict:
    """{command name: its lines}, in run order; lines are `exit CODE  NAME
    ARGV` or `SHA256  NAME/FILE`."""
    out = {}
    for line in lines[1:]:  # after the fingerprint
        name = line.split()[2] if line.startswith("exit ") else \
            line.split()[1].split("/")[0]
        out.setdefault(name, []).append(line)
    return out


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """The lines of a sweep run now, by command."""
    here = f"# fingerprint: {cli_sweep.fingerprint()}"
    if RECORDED[0] != here:
        pytest.skip(f"digests recorded with {RECORDED[0][2:]}; this is "
                    f"{here[2:]}")
    root = tmp_path_factory.mktemp("sweep")
    cli_sweep.main(str(root))
    return _by_command((root / "SHA256SUMS").read_text().splitlines())


def test_the_sweep_runs_the_recorded_commands(swept):
    assert list(swept) == list(_by_command(RECORDED))


@pytest.mark.parametrize("name", list(_by_command(RECORDED)))
def test_command_writes_the_recorded_bytes(swept, name):
    assert swept.get(name) == _by_command(RECORDED)[name]
