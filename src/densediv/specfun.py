"""Numerical special functions behind the density heuristics.

Two tabulated solutions of delay/Volterra equations:

* Buchstab's function ``w(u)``: ``w(u) = 1/u`` on [1, 2] and
  ``(u w(u))' = w(u - 1)`` beyond, integrated in the stable cumulative form
  ``u w(u) = 1 + integral_1^{u-1} w(s) ds``.  It tends to ``e^{-gamma}``.
* The density kernel ``d(v)``: ``d(v) = 1`` on [0, 1] and

      d(v) = 1 - integral_0^{(v-1)/2} d(u)/(u+1) * w((v-u)/(u+1)) du

  solved by forward marching (the integrand only looks strictly backwards).
  ``(v+1) d(v)`` approaches ``C = 1/(1 - e^{-gamma})``.  On grids of at
  least ``_native.MARCH_MIN_CELLS`` cells, a small C loop
  (``_march_row.c``, built and loaded by ``_native``) marches whole shares
  of rows on threads: it fills each row's integrand, sums it in numpy's
  pairwise order and adds the half cell.  gcc on an AVX-512 host builds
  the fill and the sum with 512-bit vectors; each 8-lane w lookup is one
  vgatherdpd on AVX512-FP16 hosts, 8 scalar loads under gcc's generic
  tune.  Cells are independent, so no float changes.  The CLI starts
  that build before it imports numpy, so it compiles while numpy loads.
  Elsewhere, or where no C compiler builds it, numpy passes fill each row
  and Python finishes it, serially; both give the same floats.

Both solvers snap the grid step to an exact reciprocal 1/m so that the
integral limits ``u - 1`` (for w) and ``(v-1)/2`` (for d) land on grid or
half-grid points; this keeps the quadrature cells exact and the kernel's
jump at argument 1 analytically resolved (``w(1) = 1`` from the right).

Also here: Mertens products over sieved primes and the first-order
approximation to the rough-number count built from both.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import _native
from .arith import check_sieve_bound, primes_up_to
from .constants import DENSITY_SCALE, EULER_GAMMA
from .errors import ConfigurationError, DomainError, ResourceCapError


#: Limit of Buchstab's function: e^{-gamma}.
BUCHSTAB_LIMIT = math.exp(-EULER_GAMMA)

#: Most grid points a tabulator builds.  The density march is O(N^2): at
#: the cap (`dfun --vmax 131.071 --step 1e-3`) it takes 3.4-3.9 s end to
#: end on 2 CPUs of an AVX-512 x86-64 box (39 s with the serial numpy row
#: fill).
GRID_POINTS_CAP = 2**17

# Most threads one density-kernel wave is split over.
_MAX_WORKERS = 8

_TAIL_KINDS = ("constant", "decay")
_QUADRATURES = ("trapezoid", "simpson")


@dataclass(frozen=True)
class TabulatedFunction:
    """Uniformly sampled function with linear interpolation.

    Every field is finite, and a NaN argument raises DomainError.
    Evaluation below ``u_min`` returns 0.0.  Evaluation above
    the last grid point follows the tail rule: ``tail_value`` itself when
    ``tail_kind == "constant"``, or the decaying curve ``tail_value/(u+1)``
    when ``tail_kind == "decay"``.  Linear interpolation is used everywhere
    in between -- the tabulated functions have derivative kinks at small
    integer abscissae, so no higher-order scheme is attempted.
    """

    u_min: float
    step: float
    values: np.ndarray
    tail_kind: str = "constant"
    tail_value: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.step < math.inf:
            raise ConfigurationError(
                f"step must be positive and finite, got {self.step}"
            )
        if not (math.isfinite(self.u_min) and math.isfinite(self.tail_value)):
            raise ConfigurationError(
                f"u_min and tail_value must be finite, got {self.u_min}"
                f" and {self.tail_value}"
            )
        if len(self.values) < 2:
            raise ConfigurationError("need at least two grid values")
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("grid values must be finite")
        if self.tail_kind not in _TAIL_KINDS:
            raise ConfigurationError(f"unknown tail kind {self.tail_kind!r}")

    @property
    def u_max(self) -> float:
        """Abscissa of the last grid point."""
        return self.u_min + self.step * (len(self.values) - 1)

    @property
    def grid(self) -> np.ndarray:
        """All grid abscissae, ascending."""
        return self.u_min + self.step * np.arange(len(self.values))

    def __call__(self, u: float) -> float:
        if math.isnan(u):
            raise DomainError("u must be a number, got nan")
        if u < self.u_min:
            return 0.0
        pos = (u - self.u_min) / self.step
        last = len(self.values) - 1
        if pos >= last:
            if pos <= last + 1e-9:  # float fuzz at the right edge
                return float(self.values[last])
            if self.tail_kind == "constant":
                return self.tail_value
            return self.tail_value / (u + 1.0)
        i = int(pos)
        frac = pos - i
        lo = float(self.values[i])
        return lo + frac * (float(self.values[i + 1]) - lo)


@dataclass(frozen=True)
class SolverConfig:
    """Grid and quadrature choices for the tabulators.

    ``step`` is snapped to the nearest exact reciprocal 1/m by the solvers;
    ``quadrature`` selects the cumulative rule used for the Buchstab
    integral (the density marcher always uses trapezoid cells because its
    partial end cell is handled exactly).
    """

    step: float = 1e-3
    max_abscissa: float = 64.0
    quadrature: str = "trapezoid"

    def __post_init__(self) -> None:
        if not 0.0 < self.step <= 0.01:
            raise ConfigurationError(
                f"step must be in (0, 0.01], got {self.step}"
            )
        if not 3.0 <= self.max_abscissa < math.inf:
            raise ConfigurationError(
                f"max_abscissa must be finite and >= 3, got {self.max_abscissa}"
            )
        if self.quadrature not in _QUADRATURES:
            raise ConfigurationError(
                f"quadrature must be one of {_QUADRATURES}, got {self.quadrature!r}"
            )


def _snap(step: float) -> tuple[int, float]:
    """Snap a step to 1/m with integer m >= 100 (step <= 0.01 guaranteed)."""
    m = max(2, round(1.0 / step))
    return m, 1.0 / m


def tabulate_buchstab(cfg: SolverConfig) -> TabulatedFunction:
    """Tabulate Buchstab's function on [1, max_abscissa].

    The step is snapped to 1/m so the delayed limit ``u - 1`` is always a
    grid point; marching then reads ``w[j] = (1 + I[j-m]) / u[j]`` where I
    is the cumulative integral of w from 1.  Values on [1, 2] are the exact
    reciprocals.

    Row j reads w only below j - m + 1, so the march takes m rows at a time:
    a block's quadrature terms form one array and a cumsum chains them onto
    the integral before the block (Simpson runs one chain for even and one
    for odd k).  Each value is the same float sum, in the same order, as a
    row-by-row march gives.
    """
    m, h = _snap(cfg.step)
    n_pts = _grid_points(cfg.max_abscissa - 1.0, m)
    u = 1.0 + h * np.arange(n_pts)
    w = np.empty(n_pts)
    w[: m + 1] = 1.0 / u[: m + 1]
    # integral[k] = cumulative quadrature of w over [1, u_k]; k = 1 is one
    # trapezoid cell under either rule
    integral = np.zeros(n_pts - m)
    integral[1] = h * 0.5 * (w[0] + w[1])
    w[m + 1] = (1.0 + integral[1]) / u[m + 1]
    simpson = cfg.quadrature == "simpson"
    for lo in range(m + 2, n_pts, m):
        hi = min(lo + m, n_pts)
        a, b = lo - m, hi - m  # the rows' integral indices k
        if simpson:
            integral[a:b] = h / 3.0 * (
                w[a - 2 : b - 2] + 4.0 * w[a - 1 : b - 1] + w[a:b]
            )
            for chain in (integral[a - 2 : b : 2], integral[a - 1 : b : 2]):
                np.cumsum(chain, out=chain)
        else:
            integral[a:b] = h * 0.5 * (w[a - 1 : b - 1] + w[a:b])
            np.cumsum(integral[a - 1 : b], out=integral[a - 1 : b])
        w[lo:hi] = (1.0 + integral[a:b]) / u[lo:hi]
    return TabulatedFunction(
        u_min=1.0,
        step=h,
        values=w,
        tail_kind="constant",
        tail_value=BUCHSTAB_LIMIT,
    )


def _grid_points(span: float, m: int) -> int:
    """Grid points covering [0, span] at step 1/m, refused past
    GRID_POINTS_CAP before anything is allocated."""
    cells = round(span * m, 6)
    # ceil(cells) + 1 > cap iff cells + 1 > cap (an integer), also at inf.
    if cells + 1 > GRID_POINTS_CAP:
        raise ResourceCapError(
            f"a grid of {cells + 1:.6g} points exceeds the grid-point cap"
            f" {GRID_POINTS_CAP}"
        )
    return math.ceil(cells) + 1


def _march_workers() -> int:
    """Threads a density-kernel wave is split over: the usable CPUs,
    capped at _MAX_WORKERS, or 1 where affinity is missing."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS)


def _row_kernel():
    """The compiled row march of the density kernel (``_march_row.c``,
    built by _native), or None where it cannot be built or loaded."""
    import ctypes

    ptr, real = ctypes.c_void_p, ctypes.c_double
    count, index = ctypes.c_int64, ctypes.c_int32
    return _native.kernel(
        _native.MARCH_SOURCE, "march_rows",
        [ptr] * 6 + [real, real, index, count, real] + [count] * 3, None,
    )


def _march_rows(rows, d, scaled, inv_up1, w, m, g, kernel) -> None:
    """March the density-kernel rows ``rows`` (an ascending range), writing
    d[i] and scaled[i]; every row must read only finished entries of d and
    scaled.  Each call allocates its own work buffers, so threads may march
    disjoint ranges at once.

    ``kernel`` (from _row_kernel) marches the whole range in one call,
    which releases the GIL: per row it fills the integrand, sums it in
    numpy's pairwise order and applies the half cell, in the float order of
    the Python row below.  With ``kernel`` None numpy passes fill each row,
    through work buffers allocated once, and Python sums it.
    """
    # manual linear interpolation into the (uniform, u_min = 1) w table;
    # dw[j] is the same float as wv[j + 1] - wv[j] read per cell; the
    # kernel reads wv as a plain float64 buffer
    wv = np.ascontiguousarray(w.values, dtype=np.float64)
    dw = wv[1:] - wv[:-1]
    inv_hw = 1.0 / w.step
    top = float(len(wv) - 1)
    last = len(wv) - 2
    f_buf = np.empty((rows[-1] - m) // 2 + 1)
    if kernel is not None:
        buffers = (inv_up1, d, scaled, wv, dw, f_buf)
        kernel(
            *(a.ctypes.data for a in buffers), inv_hw, top, last, m, g,
            rows.start, rows.stop, rows.step,
        )
        return
    pos_buf = np.empty(len(f_buf))
    floor_buf = np.empty(len(f_buf))
    idx_buf = np.empty(len(f_buf), dtype=np.int64)
    for i in rows:
        v = i * g
        half_cells = i - m  # integral limit U = (v-1)/2 in half-step units
        full, odd = divmod(half_cells, 2)
        c = full + 1  # cells 0..full
        pos, flo, idx, f = pos_buf[:c], floor_buf[:c], idx_buf[:c], f_buf[:c]
        np.multiply(inv_up1[:c], v + 1.0, out=pos)
        np.subtract(pos, 2.0, out=pos)
        np.multiply(pos, inv_hw, out=pos)
        if pos[0] > top or pos[full] < 0.0:  # pos is nonincreasing
            np.clip(pos, 0.0, top, out=pos)
        np.floor(pos, out=flo)
        if flo[0] > last:
            np.minimum(flo, last, out=flo)
        np.copyto(idx, flo, casting="unsafe")
        frac = np.subtract(pos, flo, out=pos)
        # idx is in [0, last] already; mode="clip" only skips the bounds check
        np.take(dw, idx, out=f, mode="clip")
        np.multiply(f, frac, out=f)
        np.add(f, np.take(wv, idx, out=flo, mode="clip"), out=f)
        np.multiply(f, scaled[:c], out=f)
        if full > 0:
            acc = g * (f.sum() - 0.5 * (f[0] + f[full]))
        else:
            acc = 0.0
        if odd:
            upper = 0.5 * (v - 1.0)
            d_mid = 0.5 * (d[full] + d[full + 1])
            f_end = d_mid / (upper + 1.0)  # kernel argument is exactly 1
            acc += 0.25 * g * (f[full] + f_end)
        d[i] = 1.0 - acc
        scaled[i] = d[i] * inv_up1[i]


def _march_wave(rows, workers: int, args: tuple) -> None:
    """March ``rows`` (mutually independent) split over ``workers``
    threads: thread j marches rows[j::workers] into d and scaled, the
    caller marches rows[0::workers] and joins them all.

    The compiled row kernel runs without the GIL (ctypes releases it), so
    the shares march in parallel.  An exception in any share is raised
    here once every thread has ended, so no thread outlives the march and
    rows a share did not write are never returned as 1.0.
    """
    workers = min(workers, len(rows))
    errors = []

    def march(share):
        try:
            _march_rows(share, *args)
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    threads = []
    try:
        for j in range(1, workers):
            thread = threading.Thread(target=march, args=(rows[j::workers],))
            thread.start()
            threads.append(thread)
        march(rows[0::workers])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def tabulate_density_kernel(
    cfg: SolverConfig, w: TabulatedFunction
) -> TabulatedFunction:
    """Tabulate the density kernel d on [0, max_abscissa] by forward marching.

    With step 1/m the integral limit ``(v - 1)/2`` lands on a grid point or
    an exact half-grid midpoint.  Full cells use composite trapezoid; the
    half cell (when present) uses a trapezoid with the analytically known
    endpoint value ``d(U)/(U+1) * w(1)`` where ``w(1) = 1`` -- the kernel
    argument equals 1 exactly at the endpoint, the jump of w resolved from
    the right.  d values at midpoints interpolate linearly.

    Each row evaluates w at ``pos = ((v+1)/(u_k+1) - 2) / h_w`` for its cells
    k, into a preallocated buffer.  The compiled kernel, used when the
    march has at least _native.MARCH_MIN_CELLS cells and w fewer than 2^31
    points, clamps pos and the cell index per cell and truncates.  The
    numpy fill clamps only when a row end is out of range: rounding is
    monotone, so pos never increases with k, only pos[0] can pass the last
    w grid point and only the last pos can fall below 0 (its exact value
    is >= 0); it then floors.  A clamp is the identity on in-range values
    and floor equals truncation for pos >= 0, so both fills give the same
    cell index, fraction and integrand floats.  The kernel sums a row with
    a copy of numpy's pairwise float64 sum, so the row sum is the same
    float as ``sum``.

    Row i reads d and scaled only at indices <= (i - m)//2 + 1 (the method
    of steps for a delay equation), so once d[:k] is final every row in
    [k, 2k + m - 2) can be marched independently.  The march runs in such
    waves; with the compiled kernel each wave is split over the usable
    CPUs by threads (the numpy fill holds the GIL between its passes, so
    it marches serially).  Every row does the same float operations in the
    same order whichever thread runs it, so the values are bit-identical
    to a serial march.

    Parameters
    ----------
    cfg : SolverConfig
        Grid configuration; ``cfg.quadrature`` is ignored here (see class
        docstring).
    w : TabulatedFunction
        A Buchstab table covering at least [1, max_abscissa].

    Raises
    ------
    ResourceCapError
        If the grid exceeds GRID_POINTS_CAP.
    """
    m, g = _snap(cfg.step)
    n_pts = _grid_points(cfg.max_abscissa, m)
    v_max = (n_pts - 1) * g
    if w.u_max < v_max - 1e-9:
        raise ConfigurationError(
            f"Buchstab table reaches {w.u_max}, need {v_max}"
        )
    d = np.ones(n_pts)
    scaled = np.ones(n_pts)  # scaled[i] = d[i] / (u_i + 1)
    grid_u = g * np.arange(n_pts)
    inv_up1 = 1.0 / (grid_u + 1.0)
    scaled[: m + 1] = inv_up1[: m + 1]
    # built before the first wave, so no thread compiles; the kernel's cell
    # index is an int32
    use_kernel = (
        _native.march_uses_kernel(cfg.step, cfg.max_abscissa)
        and len(w.values) < 2**31
    )
    kernel = _row_kernel() if use_kernel else None
    args = (d, scaled, inv_up1, w, m, g, kernel)
    workers = _march_workers() if kernel is not None else 1
    lo = m + 1
    while lo < n_pts:
        hi = min(2 * lo + m - 2, n_pts)
        _march_wave(range(lo, hi), workers, args)
        lo = hi
    return TabulatedFunction(
        u_min=0.0,
        step=g,
        values=d,
        tail_kind="decay",
        tail_value=DENSITY_SCALE,
    )


def mertens_product(y: float) -> float:
    """Product of ``1 - 1/p`` over the primes p <= y, sieved afresh and
    multiplied left to right.

    Raises
    ------
    DomainError
        If y < 2 or y is NaN (no primes -- the empty product is deliberately
        excluded).
    ResourceCapError
        If y exceeds PRIME_SIEVE_CAP.
    """
    if not y >= 2.0:
        raise DomainError(f"y must be >= 2, got {y}")
    check_sieve_bound(y, "y")
    return float(np.multiply.reduce(1.0 - 1.0 / primes_up_to(math.floor(y))))


def rough_count_approx(x: float, y: float, w: TabulatedFunction) -> float:
    """Main-term approximation to the rough-number count.

    Evaluates, with ``u = ln(max(1, x)) / ln y``,

        1_{x>=1} + x * mertens_product(y)
                 + (x/ln y) * (w(u) - e^{-gamma} - [y/x if x >= y])

    and clamps negative results (possible for x < 1 or tiny x/y, where the
    asymptotic is meaningless) to 0.
    """
    if not y >= 2.0:
        raise DomainError(f"y must be >= 2, got {y}")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    return _rough_main_term(x, y, mertens_product(y), w)


def _rough_main_term(
    x: float, y: float, mertens: float, w: TabulatedFunction
) -> float:
    """rough_count_approx(x, y, w) given mertens = mertens_product(y), so a
    grid of x values sieves the primes up to each y once."""
    log_y = math.log(y)
    u = math.log(max(1.0, x)) / log_y
    value = (1.0 if x >= 1.0 else 0.0) + x * mertens
    correction = w(u) - BUCHSTAB_LIMIT - (y / x if x >= y else 0.0)
    value += (x / log_y) * correction
    return max(0.0, value)
