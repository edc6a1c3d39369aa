"""Tabulator tests: exact closed forms on the first intervals, grid
self-convergence, tail rules, and the sieve-product/rough-count helpers."""

import hashlib
import math
import os
import threading

import numpy as np
import pytest

from densediv import (
    BUCHSTAB_LIMIT,
    ConfigurationError,
    DENSITY_SCALE,
    DomainError,
    EULER_GAMMA,
    ResourceCapError,
    SolverConfig,
    TabulatedFunction,
    mertens_product,
    rough_count,
    rough_count_approx,
    tabulate_buchstab,
    tabulate_density_kernel,
)
from densediv import _native, specfun
from densediv.arith import PRIME_SIEVE_CAP
from conftest import needs_compiler


@pytest.fixture(scope="module")
def w_table():
    return tabulate_buchstab(SolverConfig(step=1e-3, max_abscissa=64.0))


@pytest.fixture(scope="module")
def d_table(w_table):
    return tabulate_density_kernel(
        SolverConfig(step=1e-3, max_abscissa=25.0), w_table
    )


class TestTabulatedFunction:
    def make(self, **kw):
        base = dict(
            u_min=1.0,
            step=0.5,
            values=np.array([1.0, 2.0, 4.0]),
            tail_kind="constant",
            tail_value=9.0,
        )
        base.update(kw)
        return TabulatedFunction(**base)

    def test_interpolation(self):
        f = self.make()
        assert f(1.0) == 1.0
        assert f(1.25) == 1.5
        assert f(2.0) == 4.0
        assert f.u_max == 2.0
        assert np.array_equal(f.grid, np.array([1.0, 1.5, 2.0]))

    def test_below_and_tails(self):
        f = self.make()
        assert f(0.5) == 0.0
        assert f(3.0) == 9.0
        g = self.make(tail_kind="decay", tail_value=6.0)
        assert g(5.0) == 1.0
        assert g(11.0) == 0.5

    def test_right_edge_fuzz(self):
        f = self.make()
        assert f(2.0 + 1e-10) == 4.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.make(step=0.0)
        with pytest.raises(ConfigurationError):
            self.make(values=np.array([1.0]))
        with pytest.raises(ConfigurationError):
            self.make(values=np.array([1.0, math.nan]))
        with pytest.raises(ConfigurationError):
            self.make(tail_kind="linear")
        for field in ("u_min", "step", "tail_value"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigurationError):
                    self.make(**{field: bad})
        with pytest.raises(DomainError):
            self.make()(math.nan)


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.step == 1e-3 and cfg.quadrature == "trapezoid"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(step=0.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(step=0.02)
        with pytest.raises(ConfigurationError):
            SolverConfig(max_abscissa=2.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(quadrature="midpoint")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_abscissa_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            SolverConfig(max_abscissa=bad)

    def test_grid_point_cap(self):
        # Refused before any allocation: 10^12 points would need terabytes.
        cfg = SolverConfig(step=1e-3, max_abscissa=1e9)
        with pytest.raises(ResourceCapError):
            tabulate_buchstab(cfg)
        w = TabulatedFunction(u_min=1.0, step=1.0, values=np.ones(2))
        with pytest.raises(ResourceCapError):
            tabulate_density_kernel(cfg, w)
        n_max = specfun.GRID_POINTS_CAP
        assert n_max >= 64_001
        assert specfun._grid_points((n_max - 1) / 1000, 1000) == n_max
        with pytest.raises(ResourceCapError):
            specfun._grid_points(n_max / 1000, 1000)


class TestBuchstab:
    def test_exact_on_first_interval(self, w_table):
        # With the step snapped to 1/m the first m+1 knots are literal
        # reciprocals, so interpolation error only appears between knots.
        m = round(1.0 / w_table.step)
        grid = w_table.grid[: m + 1]
        assert np.array_equal(w_table.values[: m + 1], 1.0 / grid)
        assert w_table(1.4995) == pytest.approx(1 / 1.4995, abs=1e-7)

    def test_closed_form_at_three(self, w_table):
        # On [2, 3] the delayed equation integrates to (1 + ln(u-1)) / u.
        assert abs(w_table(3.0) - (1 + math.log(2)) / 3) < 5e-8
        assert abs(w_table(2.5) - (1 + math.log(1.5)) / 2.5) < 5e-8

    def test_global_range_and_limit(self, w_table):
        assert w_table.values.min() == 0.5
        assert w_table.values.max() == 1.0
        assert abs(w_table(64.0) - BUCHSTAB_LIMIT) < 1e-7
        assert w_table(1000.0) == BUCHSTAB_LIMIT

    def test_quadratures_agree(self):
        cfg_t = SolverConfig(step=2e-3, max_abscissa=16.0, quadrature="trapezoid")
        cfg_s = SolverConfig(step=2e-3, max_abscissa=16.0, quadrature="simpson")
        wt = tabulate_buchstab(cfg_t)
        ws = tabulate_buchstab(cfg_s)
        assert np.max(np.abs(wt.values - ws.values)) < 1e-6

    def test_self_convergence(self):
        coarse = tabulate_buchstab(SolverConfig(step=1e-3, max_abscissa=25.0))
        fine = tabulate_buchstab(SolverConfig(step=5e-4, max_abscissa=25.0))
        gaps = [abs(coarse(u) - fine(u)) for u in np.linspace(1.0, 25.0, 500)]
        assert max(gaps) < 5e-6


def reference_buchstab(cfg):
    """The Buchstab march written row by row: the reference the block
    march must match bit for bit."""
    m = max(2, round(1.0 / cfg.step))
    h = 1.0 / m
    n_pts = math.ceil(round((cfg.max_abscissa - 1.0) * m, 6)) + 1
    u = 1.0 + h * np.arange(n_pts)
    w = np.empty(n_pts)
    w[: m + 1] = 1.0 / u[: m + 1]
    integral = np.zeros(max(n_pts - m, 1))
    simpson = cfg.quadrature == "simpson"
    for j in range(m + 1, n_pts):
        k = j - m
        if simpson and k >= 2:
            integral[k] = integral[k - 2] + h / 3.0 * (
                w[k - 2] + 4.0 * w[k - 1] + w[k]
            )
        else:
            integral[k] = integral[k - 1] + h * 0.5 * (w[k - 1] + w[k])
        w[j] = (1.0 + integral[k]) / u[j]
    return w


@pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
@pytest.mark.parametrize(
    "step, u_max",
    [
        (1e-3, 3.0),  # the smallest table: two delay intervals
        (1e-3, 64.0),
        (5e-4, 26.0),
        (1 / 333, 10.0),  # odd m
        (1e-2, 9.0),
        (1e-3, 5.0),
    ],
)
def test_buchstab_bit_identical_to_reference(step, u_max, quadrature):
    cfg = SolverConfig(step=step, max_abscissa=u_max, quadrature=quadrature)
    new = tabulate_buchstab(cfg).values
    ref = reference_buchstab(cfg)
    assert np.array_equal(new.view(np.int64), ref.view(np.int64))


def reference_density_kernel(cfg, w):
    """The density-kernel march written plainly, one fresh array per
    operation: the reference the buffered march must match bit for bit."""
    m = max(2, round(1.0 / cfg.step))
    g = 1.0 / m
    n_pts = math.ceil(round(cfg.max_abscissa * m, 6)) + 1
    d = np.ones(n_pts)
    inv_up1 = 1.0 / (g * np.arange(n_pts) + 1.0)
    scaled = np.ones(n_pts)
    scaled[: m + 1] = inv_up1[: m + 1]
    wv = w.values
    inv_hw = 1.0 / w.step
    top = float(len(wv) - 1)
    for i in range(m + 1, n_pts):
        v = i * g
        full, odd = divmod(i - m, 2)
        pos = ((v + 1.0) * inv_up1[: full + 1] - 2.0) * inv_hw
        np.clip(pos, 0.0, top, out=pos)
        idx = np.minimum(pos.astype(np.int64), len(wv) - 2)
        frac = pos - idx
        wlo = wv[idx]
        f = scaled[: full + 1] * (wlo + frac * (wv[idx + 1] - wlo))
        acc = g * (f.sum() - 0.5 * (f[0] + f[full])) if full > 0 else 0.0
        if odd:
            d_mid = 0.5 * (d[full] + d[full + 1])
            acc += 0.25 * g * (f[full] + d_mid / (0.5 * (v - 1.0) + 1.0))
        d[i] = 1.0 - acc
        scaled[i] = d[i] * inv_up1[i]
    return d


# sha256 of reference_density_kernel(...).view(np.int64).tobytes(), keyed
# by (w_step, w_max, d_step, d_max), where the plain O(N^2) loop is too slow
# to rerun (about 25 s at vmax 64); recorded from that loop.
REFERENCE_DIGESTS = {
    (1e-3, 64.0, 1e-3, 64.0): (
        "c79040a4774e41f980e77be30e3709938ec19f4badd0fab7f5e7c957e1aa9cef"
    ),
}


def clamp_table():
    """A w table whose last cell makes the index clamp show.

    The last row reads w at its last grid point through the clamped cell
    index, as wlo + 1.0 * (w_last - wlo).  With w_last < wlo / 2 that is
    not w_last itself, and with a large wlo the difference reaches the last
    d value, so an unclamped read would show.
    """
    values = np.full(801, 0.5)
    values[-2:] = [1e4 / 3, 1e3 / 7]
    return TabulatedFunction(u_min=1.0, step=0.01, values=values)


def short_clamp_table():
    """clamp_table's values on a grid ending 5e-10 short of 9, inside the
    1e-9 the march accepts: the last row at v = 9 reads w past its last
    grid point, so only the pos clamp keeps it at w_last."""
    values = clamp_table().values
    return TabulatedFunction(
        u_min=1.0, step=(8.0 - 5e-10) / 800, values=values
    )


@pytest.fixture(params=["kernel", "numpy"])
def row_fill(request, monkeypatch):
    """Run a test with the compiled row kernel, used on every grid however
    small, and with the numpy passes (the loader forced to find no
    kernel)."""
    if request.param == "numpy":
        monkeypatch.setattr(specfun, "_row_kernel", lambda: None)
    elif specfun._row_kernel() is None:
        pytest.skip("no C compiler builds the row kernel here")
    else:
        monkeypatch.setattr(_native, "MARCH_MIN_CELLS", 0)
    return request.param


class TestDensityKernel:
    @pytest.mark.parametrize(
        "w_step, w_max, d_step, d_max",
        [
            (1e-3, 8.0, 1e-3, 8.0),  # v_max = u_max: the index clamp runs
            (5e-4, 26.0, 1e-3, 25.0),
            (5e-4, 13.0, 5e-4, 12.0),
            (1 / 333, 10.0, 1 / 333, 10.0),
            (1e-2, 9.0, 1e-2, 9.0),
            (1e-3, 64.0, 1e-3, 64.0),  # checked against a recorded digest
        ],
    )
    def test_bit_identical_to_reference(
        self, row_fill, w_step, w_max, d_step, d_max
    ):
        w = tabulate_buchstab(SolverConfig(step=w_step, max_abscissa=w_max))
        cfg = SolverConfig(step=d_step, max_abscissa=d_max)
        new = tabulate_density_kernel(cfg, w).values
        digest = REFERENCE_DIGESTS.get((w_step, w_max, d_step, d_max))
        if digest is not None:
            found = hashlib.sha256(new.view(np.int64).tobytes()).hexdigest()
            assert found == digest
            return
        ref = reference_density_kernel(cfg, w)
        assert np.array_equal(new.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("table", [clamp_table, short_clamp_table])
    def test_index_clamp_matches_reference(self, row_fill, table):
        w = table()
        cfg = SolverConfig(step=0.01, max_abscissa=9.0)
        new = tabulate_density_kernel(cfg, w).values
        ref = reference_density_kernel(cfg, w)
        assert np.array_equal(new.view(np.int64), ref.view(np.int64))

    def test_sum_order_matches_reference(self, row_fill):
        # w values spread over 16 decades make each row's sum depend on its
        # order.  At step 0.01 the rows have 1 to 1201 cells, so numpy's
        # plain loop (under 8 terms), its eight accumulators (8 to 128),
        # one split (129 to 256) and nested splits (over 1000) all run.
        rng = np.random.default_rng(20240)
        values = 10.0 ** rng.uniform(-8.0, 8.0, 2401)
        w = TabulatedFunction(u_min=1.0, step=0.01, values=values)
        cfg = SolverConfig(step=0.01, max_abscissa=25.0)
        new = tabulate_density_kernel(cfg, w).values
        ref = reference_density_kernel(cfg, w)
        assert np.array_equal(new.view(np.int64), ref.view(np.int64))

    def test_one_on_unit_interval(self, d_table):
        m = round(1.0 / d_table.step)
        assert np.all(d_table.values[: m + 1] == 1.0)
        assert d_table(0.37) == 1.0

    def test_closed_form_at_two(self, d_table):
        # For 1 <= v <= 3 the marching integral reduces to ln((v+1)/2 * 2/3
        # ...) in elementary form; at v = 2 it is exactly 1 - ln(4/3).
        assert abs(d_table(2.0) - (1 - math.log(4 / 3))) < 5e-8

    def test_monotone_past_one(self, d_table):
        m = round(1.0 / d_table.step)
        assert np.all(np.diff(d_table.values[m:]) <= 0)
        assert np.all(d_table.values > 0)

    def test_scaled_limit(self, d_table):
        gaps = [abs((v + 1) * d_table(v) - DENSITY_SCALE) for v in (6, 12, 24)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] < 0.02
        assert gaps[2] < 0.0015

    def test_decay_tail(self, d_table):
        v = d_table.u_max + 10.0
        assert d_table(v) == DENSITY_SCALE / (v + 1.0)

    def test_self_convergence(self):
        w = tabulate_buchstab(SolverConfig(step=5e-4, max_abscissa=13.0))
        coarse = tabulate_density_kernel(SolverConfig(step=1e-3, max_abscissa=12.0), w)
        fine = tabulate_density_kernel(SolverConfig(step=5e-4, max_abscissa=12.0), w)
        gaps = [abs(coarse(v) - fine(v)) for v in np.linspace(0.0, 12.0, 500)]
        assert max(gaps) < 5e-6

    @pytest.mark.parametrize(
        "cpus", [{0}, {0, 1, 2}], ids=["serial", "split"]
    )
    @pytest.mark.parametrize(
        "step, d_max",
        [
            (1e-2, 30.0),  # m = 100
            (1 / 333, 10.0),  # odd m
            (1e-3, 5.0),  # ends inside the wave [3000, 6998)
            (None, 9.0),  # the index-clamp table
        ],
    )
    def test_waves_match_reference(
        self, monkeypatch, row_fill, cpus, step, d_max
    ):
        # {0} forces the serial march; with the row kernel three CPUs split
        # waves three ways whatever this machine has.
        if step is None:
            w, step = clamp_table(), 0.01
        else:
            w = tabulate_buchstab(SolverConfig(step=step, max_abscissa=d_max))
        cfg = SolverConfig(step=step, max_abscissa=d_max)
        ref = reference_density_kernel(cfg, w)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        new = tabulate_density_kernel(cfg, w).values
        assert np.array_equal(new.view(np.int64), ref.view(np.int64))

    @needs_compiler
    def test_failed_thread_raises_in_caller(self, monkeypatch, capfd):
        march = specfun._march_rows

        def failing_off_main(rows, *args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("share failure")
            march(rows, *args)

        monkeypatch.setattr(specfun, "_march_rows", failing_off_main)
        monkeypatch.setattr(_native, "MARCH_MIN_CELLS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        w = tabulate_buchstab(SolverConfig(step=1e-3, max_abscissa=5.0))
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="share failure"):
            tabulate_density_kernel(
                SolverConfig(step=1e-3, max_abscissa=5.0), w
            )
        assert threading.active_count() == threads
        assert capfd.readouterr().err == ""

    def test_short_w_table_rejected(self):
        w = tabulate_buchstab(SolverConfig(step=1e-3, max_abscissa=8.0))
        with pytest.raises(ConfigurationError):
            tabulate_density_kernel(SolverConfig(step=1e-3, max_abscissa=16.0), w)


def table_mertens(table, y):
    """The reference Mertens product over the session table's primes <= y."""
    primes = table.primes[: np.searchsorted(table.primes, y, side="right")]
    return float(np.multiply.reduce(1.0 - 1.0 / primes))


class TestMertensProduct:
    def test_small_values(self):
        assert mertens_product(2) == 0.5
        assert mertens_product(10) == pytest.approx(8 / 35, rel=1e-15)
        # plateau between consecutive primes
        assert mertens_product(10) == mertens_product(10.9)

    def test_matches_direct_loop(self):
        primes = [p for p in range(2, 1001) if all(p % q for q in range(2, p))]
        direct = 1.0
        for p in primes:
            direct *= 1.0 - 1.0 / p
        assert mertens_product(1000) == pytest.approx(direct, rel=1e-12)

    def test_asymptotic_scale(self):
        # product over p <= y decays like e^-gamma / ln y
        value = mertens_product(1e6) * math.log(1e6)
        assert value == pytest.approx(math.exp(-EULER_GAMMA), rel=1e-3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mertens_product(1.5)
        with pytest.raises(DomainError):
            mertens_product(math.nan)
        with pytest.raises(ResourceCapError):
            mertens_product(PRIME_SIEVE_CAP + 1)

    @pytest.mark.parametrize("y", [2, 2.5, 10, 10.9, 97, 1000.7, 99_999, 1e6])
    def test_without_table(self, table, y):
        assert mertens_product(y) == table_mertens(table, y)


class TestRoughCountApprox:
    def test_tracks_exact_count(self, table, w_table):
        exact = rough_count(100_000, 10, table)
        approx = rough_count_approx(100_000, 10, w_table)
        assert abs(approx - exact) / exact < 1e-3
        exact = rough_count(100_000, 100, table)
        approx = rough_count_approx(100_000, 100, w_table)
        assert abs(approx - exact) / exact < 0.05

    @pytest.mark.parametrize("y", [2, 10, 100, 1000.7])
    def test_without_table(self, table, w_table, y):
        # The main term restated over the table's Mertens product.
        log_y = math.log(y)
        for x in (0.5, 1, 97, 3000, 100_000):
            u = math.log(max(1.0, x)) / log_y
            tail = w_table(u) - BUCHSTAB_LIMIT - (y / x if x >= y else 0.0)
            value = (1.0 if x >= 1.0 else 0.0) + x * table_mertens(table, y)
            value += (x / log_y) * tail
            assert rough_count_approx(x, y, w_table) == max(0.0, value)

    def test_nonnegative_and_validated(self, w_table):
        assert rough_count_approx(0.5, 10, w_table) >= 0.0
        with pytest.raises(DomainError):
            rough_count_approx(100.0, 1.5, w_table)
        with pytest.raises(DomainError):
            rough_count_approx(100.0, math.nan, w_table)
        with pytest.raises(DomainError):
            rough_count_approx(math.nan, 10.0, w_table)
        for bad in (math.inf, -math.inf):
            with pytest.raises(DomainError):
                rough_count_approx(bad, 10.0, w_table)
