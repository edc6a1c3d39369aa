"""Build and load the package's C kernels, and say when each one repays
its build.

A kernel is a C source next to this module, compiled at run time with the
interpreter's C compiler (``sysconfig``'s CC) into a private temporary
directory and loaded with ctypes.  ``start(source)`` launches the compiler
in the background, so a CLI handler can start it before its heavy imports
and the build runs on another CPU while numpy loads (``cli.run`` starts
numpy's OpenBLAS with one thread, so no idle BLAS worker spins on that
CPU); ``kernel(...)`` waits for that build, loads it and caches it per
process, or returns None on any failure (no compiler, a bad CC, a failed
build or load).  Compiler output
is discarded and nothing is cached on disk; every caller has a numpy or
Python path that prints the same bytes.  A build started but never loaded
(an error, a refusal, a closed stdout) is killed at exit with its process
group, reaped, and its directory removed.

Also here, as the CLI decides on the march's build before it imports
numpy: the tabulators' grid rule (``snap_grid``) and its cap.

Only the standard library and ``errors``, and ``subprocess`` and ``shlex``
only inside ``start``, so the ops that build nothing pay nothing for this
module.
"""

from __future__ import annotations

import atexit
import math
import os
import shutil

from .errors import ResourceCapError

# Flags of every build.  A kernel is built in the process that runs it, so
# -march=native code never leaves its host; gcc's -O2 cost model
# vectorises the density-march fill only with -fvect-cost-model=dynamic
# (-O3 does too, but builds in 2 to 3 times as long); -ffp-contract=off
# and no fast-math keep each float operation as the numpy path does it.
# The march's 512-bit vector preference is a pragma in _march_row.c, as
# -mprefer-vector-width is an x86-only flag that other gcc targets reject.
CFLAGS = (
    "-O2", "-march=native", "-fvect-cost-model=dynamic", "-fPIC", "-shared",
    "-ffp-contract=off",
)

#: Most grid points a tabulator builds.  The density march is O(N^2): at
#: the cap (`dfun --vmax 131.071 --step 1e-3`) it takes 3.4-3.9 s end to
#: end on 2 CPUs of an AVX-512 x86-64 box (39 s with the serial numpy row
#: fill).
GRID_POINTS_CAP = 2**17

# The C sources, in this directory.
MARCH_SOURCE = "_march_row.c"
CSV_SOURCE = "_csv_rows.c"

# Fewest quadrature cells (all waves) for which the density march uses
# _march_row.c.  Its build (about 80 ms) runs on another CPU while the
# process imports numpy, so it costs the two CPUs' contention, which swings
# with the box's load.  `dfun --step 1e-3` end to end on a 2-CPU x86-64
# box, kernel minus numpy fill, paired medians of 2-6 batches of 10-24
# alternating runs: +10 to +90 ms at vmax 3 (1.0e6 cells), +58 to +83 at
# 3.5, -49 to +64 at 4 (2.25e6), +43 to +47 at 4.5, +22 to +33 at 5.2
# (4.4e6), -102 to +17 at 6 (6.25e6), -150 to -29 ms at 8 (1.2e7).
MARCH_MIN_CELLS = 2 * 10**6

# Least x for which `enumerate` formats its integer columns with
# _csv_rows.c.  The build (about 70 ms) competes with the process for the
# box above; dense t = 2 end to end, medians of 20-24 alternating runs, C
# against %: 0.143 against 0.138 s at x = 2e5 (21k rows), 0.142 against
# 0.143 s at 2.5e5, 0.143 against 0.145 s at 3e5 (31k rows), 0.145
# against 0.152 s at 4e5, 0.153 against 0.178 s at 1e6 (91k rows).
CSV_MIN_X = 3 * 10**5

_pending: dict[str, tuple] = {}  # source -> (compiler, directory, library)
_loaded: dict[str, object] = {}  # source -> ctypes CDLL, or None


def snap_grid(step: float, span: float) -> tuple[int, int]:
    """(m, points): m the integer nearest 1/step, and the points of the
    grid of step 1/m that covers [0, span].  A grid past GRID_POINTS_CAP,
    such as the infinite one of a step whose reciprocal overflows, is
    refused (ResourceCapError) before anything is allocated."""
    m = round(1.0 / step) if 1.0 / step < math.inf else math.inf
    cells = round(span * m, 6)
    # ceil(cells) + 1 > cap iff cells + 1 > cap (an integer), also at inf.
    if cells + 1 > GRID_POINTS_CAP:
        raise ResourceCapError(
            f"a grid of {cells + 1:.6g} points exceeds the grid-point cap"
            f" {GRID_POINTS_CAP}"
        )
    return m, math.ceil(cells) + 1


def march_uses_kernel(step: float, vmax: float) -> bool:
    """Whether the density march of SolverConfig(step, vmax) repays the
    build of _march_row.c: on its snap_grid of n points, rows m+1..n-1
    hold (i - m)//2 + 1 cells each, at least MARCH_MIN_CELLS in all.  No
    numpy, so the CLI can decide before importing it; invalid options, and
    grids past the cap, give False."""
    if not (0.0 < step <= 0.01 and 3.0 <= vmax):
        return False
    try:
        m, points = snap_grid(step, vmax)
    except ResourceCapError:
        return False
    rows = points - m - 1
    return rows * (rows + 2) // 4 >= MARCH_MIN_CELLS


def start(source: str) -> None:
    """Launch the build of ``source`` in the background, once per process;
    a build that cannot start leaves ``kernel`` to return None."""
    if source in _pending or source in _loaded:
        return
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = sysconfig.get_config_var("CC")
    tmp = None
    try:
        if not cc:
            raise ValueError("no C compiler configured")
        tmp = tempfile.mkdtemp(prefix="densediv-")
        lib = os.path.join(tmp, source.replace(".c", ".so"))
        compiler = subprocess.Popen(
            [*shlex.split(cc), *CFLAGS, "-o", lib,
             os.path.join(os.path.dirname(__file__), source)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            # gcc's own temporary files go with the directory, even if killed
            env=dict(os.environ, TMPDIR=tmp),
            start_new_session=True,  # its own group, killed whole at exit
        )
    except (OSError, ValueError):  # no compiler, a bad CC
        _loaded[source] = None
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        return
    _pending[source] = (compiler, tmp, lib)


def kernel(source: str, symbol: str, argtypes, restype):
    """The function ``symbol`` of the built ``source`` with the given
    ctypes signature, or None where it cannot be built or loaded.  Starts
    the build if ``start`` did not, and waits for it."""
    if source not in _loaded:
        start(source)
    if source in _pending:
        import ctypes

        compiler, tmp, lib = _pending[source]
        code = compiler.wait()  # interrupted, the build stays pending
        del _pending[source]
        try:
            _loaded[source] = ctypes.CDLL(lib) if code == 0 else None
        except OSError:  # the build made no loadable library
            _loaded[source] = None
        finally:  # a loaded library stays mapped
            shutil.rmtree(tmp, ignore_errors=True)
    try:
        function = getattr(_loaded[source], symbol)
    except AttributeError:  # nothing loaded, or no such symbol
        return None
    function.argtypes = argtypes
    function.restype = restype
    return function


@atexit.register
def _discard_pending() -> None:
    """Kill every build not loaded, with its process group (killing only
    the compiler driver would leave cc1 running), reap it and remove its
    directory."""
    while _pending:
        compiler, tmp, _ = _pending.popitem()[1]
        if compiler.poll() is None:  # not reaped, so no other group has its id
            import signal

            os.killpg(compiler.pid, signal.SIGKILL)
        compiler.wait()
        shutil.rmtree(tmp, ignore_errors=True)
