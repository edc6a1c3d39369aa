"""Shared fixtures: one big smallest-prime-factor table per session, a
runner for the CLI under an address-space limit (2 GiB by default), the
C-kernel fixtures (a fresh _native, both enumerate CSV paths), plus a
terminal hook that reprints the acceptance per-criterion verdict lines."""

import os
import resource
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from densediv import _native, build_spf_table, cli

TABLE_LIMIT = 2_000_010

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def table():
    """Session-wide factor table covering every in-process test need."""
    return build_spf_table(TABLE_LIMIT)


CLI_ADDRESS_LIMIT = 2 * 1024**3

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_capped_cli(argv, code, timeout=120, stderr_lines=(), entry=None,
                   address_limit=CLI_ADDRESS_LIMIT):
    """Run ``python -m densediv.cli *argv`` (or ``python *entry *argv``)
    under RLIMIT_AS = address_limit (2 GiB by default) and a timeout, assert
    its exit status, and return its stdout (bytes).

    A failing run (code != 0) must print nothing on stdout and exactly one
    stderr line of at most 200 characters, starting with ``error:``; a
    successful one exactly stderr_lines on stderr (an experiment's verdict
    line), by default none.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *(entry or ("-m", "densediv.cli")), *argv],
        capture_output=True,
        env=env,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (address_limit, address_limit)
        ),
        timeout=timeout,
    )
    stderr = proc.stderr.decode(errors="replace").splitlines()
    assert proc.returncode == code, stderr
    if code:
        assert proc.stdout == b""
        assert len(stderr) == 1 and stderr[0].startswith("error: "), stderr
        assert len(stderr[0]) <= 200, stderr
    else:
        assert stderr == list(stderr_lines)
    return proc.stdout


@pytest.fixture(scope="session")
def capped_cli():
    """The run_capped_cli helper, for tests of CLI refusals and bytes."""
    return run_capped_cli


def configured_compiler():
    """The interpreter's C compiler if it is on PATH, else None."""
    cc = sysconfig.get_config_var("CC")
    return cc and shutil.which(shlex.split(cc)[0])


needs_compiler = pytest.mark.skipif(
    not configured_compiler(), reason="the configured C compiler is not on PATH"
)


@pytest.fixture
def fresh_native(monkeypatch):
    """_native with no build started or loaded in this process, so the
    test's first kernel is built afresh; the process's own state returns
    after the test."""
    monkeypatch.setattr(_native, "_pending", {})
    monkeypatch.setattr(_native, "_loaded", {})
    return _native


# What the densediv console script runs.
CONSOLE_SCRIPT = "import sys; from densediv.__main__ import main; sys.exit(main())"


def csv_entry(min_x, console=False):
    """The argv prefix of a CLI process, ``python -m densediv.cli`` or the
    console script, whose enumerate uses the C formatter from x = min_x on."""
    run = (
        CONSOLE_SCRIPT if console
        else "import runpy; runpy.run_module('densediv.cli', run_name='__main__')"
    )
    return ["-c", f"import densediv._native as n; n.CSV_MIN_X = {min_x}; {run}"]


@pytest.fixture(params=["c", "percent"])
def csv_fill(request, monkeypatch):
    """Run an enumerate test with the compiled integer-CSV formatter, used
    at every x however small, and with the %-formatting (no build at all).
    Returns the min_x that csv_entry needs for a CLI process to do the
    same."""
    min_x = 10**30
    if request.param == "c":
        if cli._csv_kernel() is None:
            pytest.skip("no C compiler builds the CSV formatter here")
        min_x = 0
    monkeypatch.setattr(_native, "CSV_MIN_X", min_x)
    return min_x


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
