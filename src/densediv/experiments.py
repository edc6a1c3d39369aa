"""Desk-scale experiment harness over the enumeration and approximation APIs.

Each experiment runs a deterministic grid, compares a measured statistic
against a closed-form prediction (or an envelope when the theory only gives
an order of magnitude), and returns a tabular report with a verdict:

* ``"pass"`` / ``"fail"`` -- the experiment has a numeric gate;
* ``"report-only"`` -- the grid lies outside the gated regime, so the rows
  are informational.

Every pass/fail threshold that theory leaves inside an implied constant is
pinned by a recorded calibration run at one scale and asserted at a larger
scale; the thresholds are therefore regression gates, not theorems.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import check_sieve_bound, is_prime, rough_counts
from .constants import DENSITY_SCALE, expected_distinct_factors
from .errors import ConfigurationError, DomainError
from .families import ThetaFamily
from .generate import (
    _member_chunks,
    collect_moments,
    count_members_multi,
    deviation_bound,
)

#: Denominator floor for relative errors against near-zero predictions.
_REL_EPS = 1e-12

#: Mean-gap growth slack: the gap at the largest x may exceed the gap at the
#: smallest x by at most this much before the trend counts as growing.
_GAP_GROWTH_SLACK = 0.1

#: Grid ceiling for enumeration-backed experiments.
_MAX_X = 10**9

#: Reference exponent for the divisor-count growth fit (quoted, not asserted).
_TAU_EXPONENT_REFERENCE = 0.713

#: Multiplier for the report-only tail histogram of factor counts with
#: multiplicity: the tail starts at ``3 * ln ln x``.
_BIG_OMEGA_TAIL_FACTOR = 3.0


@dataclass(frozen=True)
class ReportRow:
    """One measurement: grid point, measured value, prediction, label."""

    x: int
    t: float
    q: int
    measured: float
    predicted: float
    rel_err: float
    metric: str


@dataclass(frozen=True)
class ExperimentReport:
    """Named row collection plus the overall verdict."""

    name: str
    rows: tuple[ReportRow, ...]
    verdict: str

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"

    def rows_for(self, metric: str) -> list[ReportRow]:
        """All rows carrying the given metric label, in grid order."""
        return [row for row in self.rows if row.metric == metric]


def _rel_err(measured: float, predicted: float) -> float:
    return abs(measured - predicted) / max(abs(predicted), _REL_EPS)


def _validate_grid(xs: list[int]) -> None:
    if not xs:
        raise ConfigurationError("x grid must be nonempty")
    if any(x < 1 for x in xs):
        raise DomainError(f"grid values must be >= 1, got {xs}")
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise ConfigurationError(f"x grid must be strictly ascending, got {xs}")
    if xs[-1] > _MAX_X:
        raise DomainError(f"grid max {xs[-1]} exceeds the {_MAX_X} ceiling")


def mean_omega_experiment(t: Fraction | int | str, xs: list[int]) -> ExperimentReport:
    """Mean distinct-factor count vs. its predicted value along a grid.

    Per x: measured mean of omega over members <= x (mean of Omega in a
    parallel row) against the prediction ``C ln ln x - (C-1) ln ln t``.
    Passes when the gap at the largest x is at most 1.5 and the gap has not
    grown from the first grid point to the last (slack 0.1); the 1.5 gate is
    calibration-pinned, not theory-derived.
    """
    _validate_grid(xs)
    family = ThetaFamily.dense(t)
    tf = family.t_float
    rows: list[ReportRow] = []
    gaps: list[float] = []
    for x in xs:
        predicted = expected_distinct_factors(x, tf)
        summary = collect_moments(family, x)
        measured = summary.mean_omega
        rows.append(
            ReportRow(
                x, tf, 0, measured, predicted, _rel_err(measured, predicted),
                "mean_omega",
            )
        )
        rows.append(
            ReportRow(
                x, tf, 0, summary.mean_big_omega, predicted,
                _rel_err(summary.mean_big_omega, predicted), "mean_big_omega",
            )
        )
        gaps.append(abs(measured - predicted))
    ok = gaps[-1] <= 1.5 and gaps[-1] <= gaps[0] + _GAP_GROWTH_SLACK
    return ExperimentReport("mean-omega", tuple(rows), "pass" if ok else "fail")


def concentration_experiment(
    t: Fraction | int | str, xs: list[int], xi: float
) -> ExperimentReport:
    """Fraction of members whose omega deviates more than xi standard scales.

    Per x of the grid: measured = fraction with ``|omega - E| > xi sqrt(ln
    ln x)`` against the gate ``min(1, 3/xi^2)`` (the 3 pinned by
    calibration), and two report-only rows with the variance of omega
    (reference ``3 ln ln x``) and the tail fraction with ``Omega >= 3 ln ln
    x``.  Rows come in grid order; fails when any x exceeds its gate.
    An xi below 1 (or NaN) is refused before the grid is checked.
    """
    if not xi >= 1.0:
        raise ConfigurationError(f"xi must be >= 1, got {xi}")
    _validate_grid(xs)
    family = ThetaFamily.dense(t)
    tf = family.t_float
    bound = min(1.0, 3.0 / (xi * xi))
    rows: list[ReportRow] = []
    ok = True
    for x in xs:
        expected = expected_distinct_factors(x, tf)
        summary = collect_moments(family, x)
        fraction = summary.exceed_fraction(expected, deviation_bound(x, xi))
        loglog = math.log(math.log(x))
        tail = sum(
            v for k, v in summary.histogram_big_omega.items()
            if k >= _BIG_OMEGA_TAIL_FACTOR * loglog
        ) / summary.count
        rows += [
            ReportRow(
                x, tf, 0, fraction, bound, _rel_err(fraction, bound),
                "exceedance_fraction",
            ),
            ReportRow(
                x, tf, 0, summary.variance_omega, 3.0 * loglog,
                _rel_err(summary.variance_omega, 3.0 * loglog), "variance_omega",
            ),
            ReportRow(x, tf, 0, tail, 0.0, 0.0, "big_omega_tail_fraction"),
        ]
        ok = ok and fraction <= bound
    return ExperimentReport("concentration", tuple(rows), "pass" if ok else "fail")


def cq_structure_experiment(
    t: Fraction | int | str, x: int, qs: list[int]
) -> ExperimentReport:
    """Structure of divisor-filtered count coefficients across primes q.

    For each prime q the measured ``q * c_hat_q - c_hat_1`` is compared to
    the predicted ``C ln q``.  The difference form cancels the slowly
    converging part shared by both coefficients, so this is the sharpest
    desk-scale view of the filtered-count structure.  Passes when every
    row's relative error is at most 0.30 and the measured values increase
    with q.  Each coefficient is ``c_hat = count * ln(x t) / x``, from the
    asymptotic shape ``count ~ c * x / ln(x t)``.  Before any counting, qs
    must be primes in strictly ascending order (ConfigurationError), then
    each at most t (DomainError), so a non-prime q is refused the same way
    at every t.
    """
    if x < 1 or x > _MAX_X:
        raise DomainError(f"x must be in [1, {_MAX_X}], got {x}")
    family = ThetaFamily.dense(t)
    tf = family.t_float
    if not all(map(is_prime, qs)):
        raise ConfigurationError(f"every q must be prime, got {qs}")
    if any(a >= b for a, b in zip(qs, qs[1:])):
        raise ConfigurationError(f"qs must be strictly ascending, got {qs}")
    if any(q > tf for q in qs):
        raise DomainError(f"every q must be <= t={tf}, got {qs}")
    counts = count_members_multi(family, x, [1] + list(qs))
    log_xt = math.log(x) + math.log(tf)
    c1 = counts[0] * log_xt / x
    rows: list[ReportRow] = [ReportRow(x, tf, 1, 0.0, 0.0, 0.0, "coeff_gap")]
    ok = True
    previous = 0.0
    for q, count in zip(qs, counts[1:]):
        if count == 0:
            print(
                f"cq-structure: skipping q={q} (no members divisible by q)",
                file=sys.stderr,
            )
            continue
        measured = q * (count * log_xt / x) - c1
        predicted = DENSITY_SCALE * math.log(q)
        rel = _rel_err(measured, predicted)
        rows.append(ReportRow(x, tf, q, measured, predicted, rel, "coeff_gap"))
        ok = ok and rel <= 0.30 and measured > previous
        previous = measured
    return ExperimentReport(
        "cq-structure", tuple(rows), "pass" if ok else "fail"
    )


def phi_approx_scan(x_grid: list[int], y_grid: list[float]) -> ExperimentReport:
    """Exact rough-number counts vs. the main-term approximation on a grid.

    The exact counts of each x come from one ``rough_counts`` call and the
    approximation is ``rough_count_approx`` on the default Buchstab table
    (``tabulate_buchstab(SolverConfig())``), with each y's Mertens product
    (see mertens_product) computed once for the whole x grid.  Each
    (x, y) yields a ``rough_count`` row (measured = exact count,
    predicted = approximation) and a report-only ``scaled_residual`` row
    carrying ``|exact - approx| * ln y / (x e^{-u/3})`` -- the residual in
    units of the theoretical error term.  The verdict gates only the deep
    regime y >= 50 and x/y >= 10^3 at 25% relative error; everything else
    is report-only.  The y value is carried in the t column.
    """
    from .specfun import (
        SolverConfig,
        _rough_main_term,
        mertens_product,
        tabulate_buchstab,
    )

    _validate_grid(x_grid)
    if not y_grid or not all(y >= 2 for y in y_grid):
        raise DomainError(f"y grid values must be >= 2, got {y_grid}")
    if any(a >= b for a, b in zip(y_grid, y_grid[1:])):
        raise ConfigurationError(f"y grid must be strictly ascending, got {y_grid}")
    check_sieve_bound(max(y_grid), "y")
    w = tabulate_buchstab(SolverConfig())
    mertens = {y: mertens_product(y) for y in y_grid}
    rows: list[ReportRow] = []
    gated: list[float] = []
    for x in x_grid:
        ys = [math.floor(y) for y in y_grid]
        exact_row = rough_counts(x, [x] * len(ys), ys).tolist()
        for y, exact in zip(y_grid, exact_row):
            approx = _rough_main_term(x, y, mertens[y], w)
            rel = _rel_err(exact, approx)
            u = math.log(max(1, x)) / math.log(y)
            scaled = abs(exact - approx) * math.log(y) / (x * math.exp(-u / 3.0))
            rows.append(ReportRow(x, y, 0, exact, approx, rel, "rough_count"))
            rows.append(ReportRow(x, y, 0, scaled, 0.0, 0.0, "scaled_residual"))
            if y >= 50.0 and x / y >= 1e3:
                gated.append(rel)
    if not gated:
        verdict = "report-only"
    else:
        verdict = "pass" if max(gated) <= 0.25 else "fail"
    return ExperimentReport("phi-scan", tuple(rows), verdict)


def margenstern_tables(xs: list[int]) -> ExperimentReport:
    """Growth tables for the practical-number family along a grid.

    Per x: the member count, the mean distinct-factor count against
    ``C ln ln x``, and the mean divisor count (report-only).  A least-squares
    fit of ``ln(sum tau / x)`` against ``ln ln x`` estimates the exponent of
    the divisor-count total normalized by x (the conjectured form is
    ``sum tau ~ nu * x * (ln x)^delta``; note the per-member mean carries
    exponent delta + 1 because the member count itself decays like
    ``x / ln x``).  The reference value 0.713 is quoted in the fit row but
    the gate is only the wide bracket [0.5, 0.9], together with
    ``mean omega / (C ln ln x)`` within [0.8, 1.2] at the largest x.
    """
    _validate_grid(xs)
    if len(xs) < 2:
        raise ConfigurationError("need at least two grid points for the fit")
    if xs[0] < 3:
        raise DomainError(f"grid values must be >= 3, where C ln ln x > 0; got {xs}")
    family = ThetaFamily("practical")
    rows: list[ReportRow] = []
    loglog = []
    log_tau_density = []
    omega_ratio = 0.0
    for x in xs:
        reference = DENSITY_SCALE * math.log(math.log(x))
        summary = collect_moments(family, x)
        rows.append(
            ReportRow(x, 0.0, 0, float(summary.count), 0.0, 0.0, "count")
        )
        rows.append(
            ReportRow(
                x, 0.0, 0, summary.mean_omega, reference,
                _rel_err(summary.mean_omega, reference), "mean_omega",
            )
        )
        rows.append(
            ReportRow(x, 0.0, 0, summary.mean_tau, 0.0, 0.0, "mean_tau")
        )
        loglog.append(math.log(math.log(x)))
        log_tau_density.append(math.log(summary.sum_tau / x))
        omega_ratio = summary.mean_omega / reference
    slope = float(
        np.polyfit(np.array(loglog), np.array(log_tau_density), 1)[0]
    )
    rows.append(
        ReportRow(
            xs[-1], 0.0, 0, slope, _TAU_EXPONENT_REFERENCE,
            _rel_err(slope, _TAU_EXPONENT_REFERENCE), "tau_exponent_fit",
        )
    )
    ok = 0.5 <= slope <= 0.9 and 0.8 <= omega_ratio <= 1.2
    return ExperimentReport(
        "margenstern", tuple(rows), "pass" if ok else "fail"
    )


def tau_normal_order_experiment(x: int) -> ExperimentReport:
    """Median divisor-count exponent over large practical members.

    measured = median of ``ln tau(n) / ln ln n`` over members in (x/2, x];
    predicted = ``C ln 2 = 1.580577...``.  The convergence is slow, so the
    0.35 gate applies only from x = 10^7 up; smaller runs are report-only.
    """
    if x < 10**4:
        raise DomainError(f"x must be >= 10^4, got {x}")
    if x > _MAX_X:
        raise DomainError(f"x exceeds the {_MAX_X} ceiling")
    # The median needs no sorted members: the ratios are formed chunk by
    # chunk over the leaf-collapsed walk, in its order.
    ratios = np.concatenate([
        np.log(cols["tau"].astype(np.float64))
        / np.log(np.log(cols["n"].astype(np.float64)))
        for _, cols in _member_chunks(
            ThetaFamily("practical"), x, n_min=x // 2, stats=True
        )
    ])
    # np.median's float, the mean of the middle one or two ratios after a
    # partial sort, without the numpy.ma import that np.median costs.
    middle = [(len(ratios) - 1) // 2, len(ratios) // 2]
    ratios.partition(middle)
    measured = float(ratios[middle].mean())
    predicted = DENSITY_SCALE * math.log(2.0)
    row = ReportRow(
        x, 0.0, 0, measured, predicted, _rel_err(measured, predicted),
        "tau_order_median",
    )
    if x < 10**7:
        verdict = "report-only"
    else:
        verdict = "pass" if abs(measured - predicted) <= 0.35 else "fail"
    return ExperimentReport("tau-order", (row,), verdict)


def count_ratio_experiment(t: Fraction | int | str, xs: list[int]) -> ExperimentReport:
    """Member counts in units of their two-sided envelope along a grid.

    Per x: ``r = count * ln(x t) / (x ln t)``, which the two-sided bounds
    confine to a constant window.  Passes when every r lies in [0.3, 5] and
    the ratio between the last two grid points has stabilized to within 10%.
    """
    _validate_grid(xs)
    if len(xs) < 2:
        raise ConfigurationError("need at least two grid points")
    family = ThetaFamily.dense(t)
    tf = family.t_float
    log_t = math.log(tf)
    rows: list[ReportRow] = []
    ratios: list[float] = []
    for x in xs:
        count = count_members_multi(family, x, [1])[0]
        r = count * (math.log(x) + log_t) / (x * log_t)
        rows.append(ReportRow(x, tf, 0, r, 1.0, _rel_err(r, 1.0), "count_ratio"))
        ratios.append(r)
    stable = abs(ratios[-1] / ratios[-2] - 1.0) <= 0.10
    ok = all(0.3 <= r <= 5.0 for r in ratios) and stable
    return ExperimentReport(
        "count-ratio", tuple(rows), "pass" if ok else "fail"
    )
