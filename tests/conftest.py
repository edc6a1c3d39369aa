"""Shared fixtures: one big smallest-prime-factor table per session, a
runner for the CLI under a 2 GiB address-space limit, plus a terminal hook
that reprints the acceptance per-criterion verdict lines."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from densediv import build_spf_table

TABLE_LIMIT = 2_000_010

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def table():
    """Session-wide factor table covering every in-process test need."""
    return build_spf_table(TABLE_LIMIT)


CLI_ADDRESS_LIMIT = 2 * 1024**3

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _limit_address_space():
    resource.setrlimit(
        resource.RLIMIT_AS, (CLI_ADDRESS_LIMIT, CLI_ADDRESS_LIMIT)
    )


def run_capped_cli(argv, code, timeout=120, stderr_lines=()):
    """Run ``python -m densediv.cli *argv`` under RLIMIT_AS = 2 GiB and a
    timeout, assert its exit status, and return its stdout (bytes).

    A failing run (code != 0) must print nothing on stdout and exactly one
    stderr line, starting with ``error:``; a successful one exactly
    stderr_lines on stderr (an experiment's verdict line), by default none.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "densediv.cli", *argv],
        capture_output=True,
        env=env,
        preexec_fn=_limit_address_space,
        timeout=timeout,
    )
    stderr = proc.stderr.decode(errors="replace").splitlines()
    assert proc.returncode == code, stderr
    if code:
        assert proc.stdout == b""
        assert len(stderr) == 1 and stderr[0].startswith("error: "), stderr
    else:
        assert stderr == list(stderr_lines)
    return proc.stdout


@pytest.fixture(scope="session")
def capped_cli():
    """The run_capped_cli helper, for tests of CLI refusals and bytes."""
    return run_capped_cli


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
