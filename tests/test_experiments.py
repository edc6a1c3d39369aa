"""Experiment-harness tests at desk-friendly scales.

Acceptance-scale runs live in the acceptance suite; here the focus is row
structure, verdict logic, hand-checkable small grids, and input validation.
"""

import math
from fractions import Fraction

import pytest

from densediv import (
    ConfigurationError,
    DENSITY_SCALE,
    DomainError,
    ExperimentReport,
    ResourceCapError,
    SolverConfig,
    ThetaFamily,
    concentration_experiment,
    count_ratio_experiment,
    count_members_multi,
    cq_structure_experiment,
    margenstern_tables,
    mean_omega_experiment,
    phi_approx_scan,
    rough_count,
    rough_count_approx,
    tabulate_buchstab,
    tau_normal_order_experiment,
)
from densediv import experiments, specfun


class TestMeanOmega:
    def test_small_grid(self):
        report = mean_omega_experiment(2, [100, 1000])
        omegas = report.rows_for("mean_omega")
        bigs = report.rows_for("mean_big_omega")
        assert [row.x for row in omegas] == [100, 1000]
        # 30 members up to 100 carrying 58 distinct prime factors in total
        assert omegas[0].measured == pytest.approx(1.9310344827, abs=1e-9)
        assert bigs[0].measured == pytest.approx(3.6206896551, abs=1e-9)
        for row in omegas:
            assert row.predicted == pytest.approx(
                DENSITY_SCALE * math.log(math.log(row.x))
                - (DENSITY_SCALE - 1) * math.log(math.log(2)),
                rel=1e-12,
            )
        # at these scales the gap exceeds the gate and grows: honest fail
        assert report.verdict == "fail"

    def test_big_omega_tracks_prediction_closer(self):
        report = mean_omega_experiment(2, [1000])
        omega = report.rows_for("mean_omega")[0]
        big = report.rows_for("mean_big_omega")[0]
        assert big.rel_err < omega.rel_err

    def test_gap_between_moments_bounded(self):
        # mean(Omega) - mean(omega) stays O(1); the 3.2 window is pinned by
        # calibration for ratio-2 grids up to 1e7.
        report = mean_omega_experiment(2, [10_000])
        gap = (
            report.rows_for("mean_big_omega")[0].measured
            - report.rows_for("mean_omega")[0].measured
        )
        assert 2.0 <= gap <= 3.2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            mean_omega_experiment(2, [])
        with pytest.raises(ConfigurationError):
            mean_omega_experiment(2, [1000, 100])
        with pytest.raises(DomainError):
            mean_omega_experiment(2, [100, 10**10])


class TestConcentration:
    def test_wide_band_passes(self):
        report = concentration_experiment(2, [10_000], 50.0)
        frac = report.rows_for("exceedance_fraction")[0]
        assert frac.measured == 0.0
        assert frac.predicted == pytest.approx(3.0 / 2500.0, rel=1e-12)
        assert report.verdict == "pass"

    def test_variance_and_tail_rows(self):
        report = concentration_experiment(2, [10_000], 4.0)
        var = report.rows_for("variance_omega")[0]
        assert var.measured == pytest.approx(0.554588, abs=1e-5)
        assert var.predicted == pytest.approx(3 * math.log(math.log(10_000)), rel=1e-12)
        tail = report.rows_for("big_omega_tail_fraction")[0]
        assert 0.0 <= tail.measured <= 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            concentration_experiment(2, [0], 4.0)
        with pytest.raises(ConfigurationError, match="xi must be >= 1"):
            concentration_experiment(2, [1000], 0.5)
        # xi is checked before the grid, the order the CLI refuses them in.
        with pytest.raises(ConfigurationError, match="xi must be >= 1, got 0.5"):
            concentration_experiment(2, [0], 0.5)


class TestCqStructure:
    def test_small_value(self):
        report = cq_structure_experiment(2, 100, [2])
        rows = report.rows_for("coeff_gap")
        assert rows[0].q == 1 and rows[0].measured == 0.0
        assert rows[1].q == 2
        assert rows[1].predicted == pytest.approx(
            DENSITY_SCALE * math.log(2), rel=1e-12
        )
        assert rows[1].measured == pytest.approx(1.430546, abs=1e-5)
        assert report.verdict == "pass"

    def test_coefficients_from_counts(self):
        # Each coefficient is count * ln(x t) / x, so every row equals the
        # same float operations applied to the exact counts.
        x, qs = 100_000, [2, 3, 5, 7]
        counts = count_members_multi(ThetaFamily.dense(7), x, [1] + qs)
        log_xt = math.log(x) + math.log(7.0)
        c1 = counts[0] * log_xt / x
        rows = cq_structure_experiment(7, x, qs).rows_for("coeff_gap")
        assert [row.q for row in rows] == [1] + qs
        for row, q, count in zip(rows[1:], qs, counts[1:]):
            assert row.measured == q * (count * log_xt / x) - c1
            assert row.predicted == DENSITY_SCALE * math.log(q)

    def test_zero_count_skipped(self, capsys):
        report = cq_structure_experiment(2, 1, [2])
        assert len(report.rows) == 1  # only the q = 1 anchor row
        assert report.verdict == "pass"
        assert "skipping q=2" in capsys.readouterr().err

    def test_validation(self, monkeypatch):
        def walk(*args):
            raise AssertionError("counting walk started")

        # Every refusal comes before the counting walk.
        monkeypatch.setattr(experiments, "count_members_multi", walk)
        with pytest.raises(DomainError):
            cq_structure_experiment(2, 100, [3])  # q exceeds t
        with pytest.raises(DomainError):
            cq_structure_experiment(2, 10**10, [2])
        # A non-prime q is refused as such whether or not it exceeds t.
        for t, qs, match in ((5, [1], "prime"), (5, [4], "prime"),
                             (3, [4], "prime"), (5, [3, 2], "ascending"),
                             (5, [2, 2], "ascending")):
            with pytest.raises(ConfigurationError, match=match):
                cq_structure_experiment(t, 1000, qs)


@pytest.fixture(scope="module")
def w():
    return tabulate_buchstab(SolverConfig())


class TestPhiScan:
    def test_exact_column_and_gating(self, table):
        report = phi_approx_scan([10_000], [10.0])
        assert report.verdict == "report-only"  # shallow regime only
        row = report.rows_for("rough_count")[0]
        assert row.measured == rough_count(10_000, 10.0, table)
        assert row.t == 10.0  # y travels in the t column
        scaled = report.rows_for("scaled_residual")[0]
        assert scaled.measured >= 0.0

    def test_deep_regime_gate(self):
        report = phi_approx_scan([100_000], [100.0])
        assert report.verdict == "pass"
        assert report.rows_for("rough_count")[0].rel_err < 0.05

    def test_without_table(self, table, w):
        # The exact column against the table's rough_count, the prediction
        # against rough_count_approx (checked against the table's primes in
        # test_specfun); only (1e5, 100) lies in the gated regime.
        xs, ys = [1000, 100_000], [2.0, 2.5, 100.0, 1000.7, 99_999.0]
        report = phi_approx_scan(xs, ys)
        rows = report.rows_for("rough_count")
        assert [(row.x, row.t) for row in rows] == [(x, y) for x in xs for y in ys]
        for row in rows:
            assert row.measured == rough_count(row.x, row.t, table)
            assert row.predicted == rough_count_approx(row.x, row.t, w)
        assert report.verdict == "pass"

    def test_sieves_each_y_once(self, monkeypatch):
        bounds = []
        sieve = specfun.primes_up_to

        def counted(limit):
            bounds.append(limit)
            return sieve(limit)

        monkeypatch.setattr(specfun, "primes_up_to", counted)
        xs, ys = [10**3, 10**4, 10**5, 10**6], [100.0, 1000.7, 10_000.0]
        report = phi_approx_scan(xs, ys)
        assert sorted(bounds) == [100, 1000, 10_000]
        assert len(report.rows_for("rough_count")) == 12

    def test_validation(self):
        with pytest.raises(DomainError):
            phi_approx_scan([1000], [1.5])
        with pytest.raises(DomainError):
            phi_approx_scan([1000], [math.nan])
        with pytest.raises(ResourceCapError):
            phi_approx_scan([1000], [math.inf])
        with pytest.raises(ConfigurationError):
            phi_approx_scan([], [10.0])


class TestMargenstern:
    def test_hand_checked_grid(self):
        report = margenstern_tables([20, 100])
        counts = report.rows_for("count")
        assert [row.measured for row in counts] == [9.0, 30.0]
        omega = report.rows_for("mean_omega")[0]
        assert omega.measured == pytest.approx(12 / 9, rel=1e-12)
        tau = report.rows_for("mean_tau")[0]
        assert tau.measured == pytest.approx(37 / 9, rel=1e-12)
        fit = report.rows_for("tau_exponent_fit")[0]
        assert fit.predicted == 0.713
        # slope fitted on two tiny points sits below the asymptotic window
        assert fit.measured == pytest.approx(0.465543, abs=1e-5)
        assert report.verdict == "fail"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            margenstern_tables([1000])
        with pytest.raises(ConfigurationError):
            margenstern_tables([100, 20])
        with pytest.raises(DomainError):  # C ln ln 2 < 0
            margenstern_tables([2, 100])


class TestTauOrder:
    def test_report_only_below_gate_scale(self):
        report = tau_normal_order_experiment(10_000)
        assert report.verdict == "report-only"
        row = report.rows_for("tau_order_median")[0]
        assert row.measured == pytest.approx(1.461968, abs=1e-5)
        assert row.predicted == pytest.approx(DENSITY_SCALE * math.log(2), rel=1e-12)

    def test_median_pinned(self):
        # Recorded from the sorted (n, tau) columns of every member; the
        # median of the unsorted ratios is the same float.
        assert tau_normal_order_experiment(10**6).rows[0].measured == 1.4807661739846987
        assert tau_normal_order_experiment(10**7).rows[0].measured == 1.4761278731585004

    def test_validation(self):
        with pytest.raises(DomainError):
            tau_normal_order_experiment(9_999)
        with pytest.raises(DomainError):
            tau_normal_order_experiment(10**10)


class TestCountRatio:
    def test_small_grid(self):
        report = count_ratio_experiment(2, [20, 40])
        rows = report.rows_for("count_ratio")
        # r(20) = 9 ln 40 / (20 ln 2)
        assert rows[0].measured == pytest.approx(
            9 * math.log(40) / (20 * math.log(2)), rel=1e-12
        )
        assert rows[1].measured == pytest.approx(2.370723, abs=1e-5)
        assert report.verdict == "pass"

    def test_fraction_ratio_accepted(self):
        report = count_ratio_experiment(Fraction(5, 2), [100, 200])
        assert report.rows[0].t == 2.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            count_ratio_experiment(2, [100])


class TestGrid:
    @pytest.mark.parametrize(
        "run",
        [
            lambda xs: mean_omega_experiment(2, xs),
            lambda xs: concentration_experiment(2, xs, 4.0),
            lambda xs: phi_approx_scan(xs, [10.0]),
            # the same grids as y values, at one x
            lambda ys: phi_approx_scan([100_000], ys),
            margenstern_tables,
            lambda xs: count_ratio_experiment(2, xs),
        ],
        ids=["mean-omega", "concentration", "phi-scan", "phi-scan-ys",
             "margenstern", "count-ratio"],
    )
    def test_repeated_point_refused(self, run):
        # A repeated x would pass count-ratio's stability gate trivially
        # and leave margenstern's fit with too few distinct points.
        for xs in ([1000, 1000], [100, 1000, 1000], [100, 100, 1000]):
            with pytest.raises(ConfigurationError, match="strictly ascending"):
                run(xs)


class TestDeterminism:
    def test_reports_reproducible(self):
        a = margenstern_tables([20, 100])
        b = margenstern_tables([20, 100])
        assert a == b

    def test_report_type(self):
        report = count_ratio_experiment(2, [20, 40])
        assert isinstance(report, ExperimentReport)
        assert all(row.metric for row in report.rows)
