"""Build and load the package's C kernels, and say when each one repays
its build.

A kernel is a C source next to this module, compiled at run time with the
interpreter's C compiler (``sysconfig``'s CC) into a private temporary
directory and loaded with ctypes.  ``start(source)`` launches the compiler
in the background, so a CLI handler can start it before its heavy imports
and the build runs on another CPU while numpy loads; ``kernel(...)`` waits
for that build, loads it and caches it per process, or returns None on any
failure (no compiler, a bad CC, a failed build or load).  Compiler output
is discarded and nothing is cached on disk; every caller has a numpy or
Python path that prints the same bytes.  A build started but never loaded
(an error, a refusal, a closed stdout) is killed at exit with its process
group, reaped, and its directory removed.

Only the standard library, and ``subprocess`` and ``shlex`` only inside
``start``, so the ops that build nothing pay nothing for this module.
"""

from __future__ import annotations

import atexit
import math
import os
import shutil

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

# The C sources, in this directory.
MARCH_SOURCE = "_march_row.c"
CSV_SOURCE = "_csv_rows.c"

# Fewest quadrature cells (all waves) for which the density march uses
# _march_row.c.  Its build takes 100-150 ms, but on another CPU while the
# process imports numpy, so what it costs is the two CPUs' contention.
# `dfun --step 1e-3` end to end on a 2-CPU x86-64 box, medians of 16-20
# alternating runs, kernel against numpy fill: 0.215 against 0.211 s at
# vmax 5.2 (4.4e6 cells), 0.245 against 0.249 s at 5.6 (5.3e6), 0.200
# against 0.225 s at 6 (6.25e6), 0.214 against 0.278 s at 8 (1.2e7).
MARCH_MIN_CELLS = 5 * 10**6

# Least x for which `enumerate` formats its integer columns with
# _csv_rows.c.  The build (about 70 ms) competes with the process for the
# box above; dense t = 2 end to end, medians of 16 alternating runs, C
# against %: 0.185 against 0.172 s at x = 7e5 (66k rows), 0.208 against
# 0.215 s at 1e6 (91k rows), 0.217 against 0.239 s at 1.5e6 (133k rows).
CSV_MIN_X = 10**6

_pending: dict[str, tuple] = {}  # source -> (compiler, directory, library)
_loaded: dict[str, object] = {}  # source -> ctypes CDLL, or None


def march_uses_kernel(step: float, vmax: float) -> bool:
    """Whether the density march of SolverConfig(step, vmax) repays the
    build of _march_row.c: with step snapped to 1/m and n grid points,
    rows m+1..n-1 hold (i - m)//2 + 1 cells each, at least MARCH_MIN_CELLS
    in all.  Integer arithmetic on the two options, so the CLI can decide
    before importing numpy; invalid options give False."""
    if not (0.0 < step <= 0.01 and 3.0 <= vmax):
        return False
    m = max(2, round(1.0 / step))
    span = round(vmax * m, 6)
    if not span < math.inf:  # refused by the grid-point cap
        return False
    rows = math.ceil(span) - m  # n - m - 1
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
