"""Tests of the C-kernel helper (`densediv._native`) on both of its
sources: the density-march row kernel and the integer-CSV formatter."""

import glob
import os
import re
import shlex
import subprocess
import sysconfig
import tempfile
import time

import numpy as np
import pytest

from densediv import (
    ResourceCapError,
    SolverConfig,
    _native,
    cli,
    specfun,
    tabulate_buchstab,
    tabulate_density_kernel,
)
from conftest import needs_compiler

# Each C source and the loader of its kernel.
LOADERS = {
    _native.MARCH_SOURCE: specfun._row_kernel,
    _native.CSV_SOURCE: cli._csv_kernel,
}
SOURCES = list(LOADERS)


def _march_twice(monkeypatch, capsys):
    # Three CPUs, so a build by a march thread would show too.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(_native, "MARCH_MIN_CELLS", 0)
    cfg = SolverConfig(step=1e-2, max_abscissa=30.0)
    w = tabulate_buchstab(cfg)
    for _ in range(2):
        tabulate_density_kernel(cfg, w)


def _enumerate_twice(monkeypatch, capsys):
    monkeypatch.setattr(_native, "CSV_MIN_X", 0)
    for _ in range(2):
        assert cli.main(["enumerate", "--family", "practical", "--x", "3000"]) == 0
    assert capsys.readouterr().out.count("\n") > 100


# An op that loads each source's kernel twice.
TWICE = {_native.MARCH_SOURCE: _march_twice, _native.CSV_SOURCE: _enumerate_twice}


@needs_compiler
@pytest.mark.parametrize("source", SOURCES)
def test_builds_where_the_compiler_is(fresh_native, source):
    assert LOADERS[source]() is not None
    assert fresh_native._pending == {}


@needs_compiler
@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(os.path.dirname(_native.__file__), "*.c")))
)
def test_builds_without_warnings(tmp_path, path):
    # The loader discards compiler output, so warnings only show here.
    built = subprocess.run(
        [*shlex.split(sysconfig.get_config_var("CC")),
         *_native.CFLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "kernel.so"), path],
        capture_output=True,
        text=True,
    )
    assert built.returncode == 0, built.stderr


@needs_compiler
def test_march_fill_uses_hardware_gathers(tmp_path):
    # gcc's generic tune emulates each w lookup with 8 scalar loads; on
    # AVX512-FP16 hosts the pragma in _march_row.c makes gcc gather.
    cc = shlex.split(sysconfig.get_config_var("CC"))
    macros = subprocess.run(
        [*cc, "-march=native", "-dM", "-E", "-x", "c", os.devnull],
        capture_output=True,
        text=True,
    ).stdout
    if "#define __AVX512FP16__ " not in macros or "#define __clang__ " in macros:
        pytest.skip("CC is no gcc, or -march=native defines no __AVX512FP16__")
    assembly = tmp_path / "march.s"
    source = os.path.join(os.path.dirname(_native.__file__), _native.MARCH_SOURCE)
    built = subprocess.run(
        [*cc, *_native.CFLAGS, "-S", "-o", str(assembly), source],
        capture_output=True,
        text=True,
    )
    assert built.returncode == 0, built.stderr
    assert "vgatherdpd" in assembly.read_text()


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize(
    "cc",
    [
        "/nonexistent/cc",
        "sh -c 'echo out; echo err >&2; exit 1' sh",
        "sh -c 'echo out; echo err >&2' sh",  # succeeds, builds nothing
        "cc 'unbalanced",
    ],
)
def test_failed_build_is_quiet(monkeypatch, capfd, fresh_native, cc, source):
    monkeypatch.setattr(
        sysconfig, "get_config_var", lambda name: cc if name == "CC" else None
    )
    assert LOADERS[source]() is None
    assert capfd.readouterr() == ("", "")
    assert fresh_native._pending == {}


@needs_compiler
@pytest.mark.parametrize("source", SOURCES)
def test_built_once(monkeypatch, capsys, fresh_native, source):
    # Every compiler launch is counted, so a second build by the second
    # op, or by a march thread, would show.
    launches = []
    popen = subprocess.Popen

    def counted(*args, **kwargs):
        launches.append(args[0])
        return popen(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", counted)
    TWICE[source](monkeypatch, capsys)
    assert len(launches) == 1 and launches[0][-1].endswith(source)


def _live_group_members(pgid):
    """The pids of the processes in group pgid that have not exited."""
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(pid))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_unloaded_build_is_killed_with_its_group(monkeypatch, fresh_native):
    # A "compiler" whose shell forks a child, as gcc forks cc1: at exit the
    # whole group goes, the driver is reaped and its directory removed.
    cc = "sh -c 'sleep 60; true' sh"
    monkeypatch.setattr(
        sysconfig, "get_config_var", lambda name: cc if name == "CC" else None
    )
    fresh_native.start(_native.CSV_SOURCE)
    compiler, tmp, _ = fresh_native._pending[_native.CSV_SOURCE]
    deadline = time.monotonic() + 10
    while len(_live_group_members(compiler.pid)) < 2:  # sh and sleep
        assert time.monotonic() < deadline
        time.sleep(0.01)
    fresh_native._discard_pending()
    assert compiler.returncode is not None and fresh_native._pending == {}
    assert not os.path.exists(tmp)
    while _live_group_members(compiler.pid):
        assert time.monotonic() < deadline
        time.sleep(0.01)


@needs_compiler
def test_csv_rows_equal_percent_d():
    values = [0, 9, 10, 2**31, 2**63 - 1, -1234567, -(2**63)]
    columns = (
        np.array(values, dtype=np.int64),
        np.array(values[::-1], dtype=np.int64),
    )
    want = "\n".join(f"{a},{b}" for a, b in zip(values, values[::-1]))
    assert list(cli._int_blocks(columns, cli._csv_kernel())) == [want]
    assert list(cli._int_blocks(columns, None)) == [want]


@pytest.mark.parametrize(
    "step, vmax, uses",
    [
        (1e-3, 3.8, False),  # 1.96e6 cells
        (1e-3, 3.9, True),  # 2.10e6 cells
        (1e-3, 32.0, True),
        (1e-2, 29.0, False),  # 1.96e6 cells
        (0.5, 32.0, False),  # step out of range
        (1e-3, float("nan"), False),
        (1e-3, 1e308, False),  # vmax * m overflows: over the grid cap
        (1e-3, 1e9, False),  # over the grid cap
        (5e-324, 4.0, False),  # 1/step overflows: over the grid cap
    ],
)
def test_march_rule(step, vmax, uses):
    assert _native.march_uses_kernel(step, vmax) is uses


def test_grid_point_cap():
    # Refused before any allocation: the cap's edge at m = 1000.
    n_max = _native.GRID_POINTS_CAP
    assert n_max >= 64_001
    assert _native.snap_grid(1e-3, (n_max - 1) / 1000) == (1000, n_max)
    with pytest.raises(ResourceCapError):
        _native.snap_grid(1e-3, n_max / 1000)


def test_snap_grid_takes_the_nearest_reciprocal():
    # 1/step = 3333.3, so 999.9 cells of 1/3333 cover [0, 0.3].
    assert _native.snap_grid(3e-4, 0.3) == (3333, 1001)


@pytest.mark.parametrize(
    "step, shown", [(5e-324, "inf"), (1e-308, "inf"), (1e-300, "4e+300")]
)
def test_tiny_step_refused_at_the_cap(step, shown):
    # 5e-324 has no finite reciprocal; 1e-308 has one, but its grid
    # overflows.  Each is refused with its point count.
    message = re.escape(f"a grid of {shown} points")
    with pytest.raises(ResourceCapError, match=message):
        _native.snap_grid(step, 4.0)


@needs_compiler
@pytest.mark.parametrize("delay", [0.0, 0.02, 0.05])
def test_killed_build_leaves_no_file(monkeypatch, tmp_path, fresh_native, delay):
    # gcc, killed, leaves its own temporary files (cc*.s) where TMPDIR
    # says: the build points TMPDIR into the directory it removes.
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    fresh_native.start(_native.CSV_SOURCE)
    time.sleep(delay)
    fresh_native._discard_pending()
    assert os.listdir(tmp_path) == []


def test_csv_rows_only_on_contiguous_int64():
    # Other columns take the %-formatting, so no pointer reaches C that
    # does not address len(columns[0]) int64 values.
    def refuse(*args):
        raise AssertionError("the C formatter was called")

    base = np.arange(-5, 15, dtype=np.int64)
    want = ["\n".join(str(v) for v in range(-5, 15, 2))]
    for column in (base[::2], base[::2].astype(np.int32)):
        assert list(cli._int_blocks((column,), refuse)) == want
    with pytest.raises(ValueError):  # columns of unequal length
        list(cli._int_blocks((base[:10], base[:9]), refuse))


def test_every_c_source_is_package_data():
    # A source missing from the wheel leaves _native without it, and its
    # kernel silently falls back to numpy.
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
        listed = tomllib.load(handle)["tool"]["setuptools"]["package-data"]
    sources = glob.glob("*.c", root_dir=os.path.join(root, "src", "densediv"))
    assert sources and set(sources) <= set(listed["densediv"])
