"""Identity-check tests.

The partition identities are exact integer equalities and act as the
strongest end-to-end oracle: they cross-check the enumerator, the threshold
rule, and the sieve against each other at every x.  The series checks are
truncations with pinned gaps.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from densediv import (
    CheckResult,
    ConfigurationError,
    DomainError,
    EULER_GAMMA,
    ResourceCapError,
    SieveRangeError,
    ThetaFamily,
    check_log_moment_limit,
    check_log_moment_series,
    check_partition_identity,
    check_shifted_partition_identity,
    check_weight_series,
    check_weight_shift,
    iter_members,
    log_moment_gap,
    series_term,
    weight_series_partial_sum,
    weighted_log_moment_sum,
)
import densediv.generate as generate
import densediv.identities as identities
from densediv.arith import PRIME_SIEVE_CAP

DENSE2 = ThetaFamily.dense(2)
DENSE3 = ThetaFamily.dense(3)
DENSE52 = ThetaFamily.dense(Fraction(5, 2))
PRACTICAL = ThetaFamily("practical")

# Families of the table-free parity checks: the four kinds, plus a dense t
# whose thresholds need Python ints (n * t_num >= 2^63 for n >= 2).
SERIES_FAMILIES = [
    DENSE2,
    DENSE52,
    PRACTICAL,
    ThetaFamily("shifted1"),
    ThetaFamily("shifted2"),
    ThetaFamily.dense(Fraction(2**62 + 1, 2**61)),
]
SERIES_IDS = ["dense2", "dense5_2", "practical", "shifted1", "shifted2", "dense_big"]
SERIES_LIMITS = [1, 2, 97, 3000, 10**5]


def table_primes(table, bound):
    """The session table's primes <= bound, the reference prime source."""
    return table.primes[: np.searchsorted(table.primes, bound, side="right")]


def reference_weights(table, family, s, limit):
    """(n, theta, weight, log_moment) over the members n <= limit, ascending
    in n: the members from iter_members, the primes <= theta from the table,
    and the weight and log moment of series_term, vectorised."""
    n, thr = np.array(
        sorted(
            (rec.n, family.threshold_floor(rec.n, rec.sigma))
            for rec in iter_members(family, limit)
        ),
        dtype=np.int64,
    ).T
    primes = table_primes(table, thr.max())
    pf = primes.astype(np.float64)
    ps = pf**s
    prod = np.concatenate(([1.0], np.cumprod(1.0 - 1.0 / ps)))
    mu = np.concatenate(([0.0], np.cumsum(np.log(pf) / (ps - 1.0))))
    idx = np.searchsorted(primes, thr, side="right")
    n_float = n.astype(np.float64)
    return n, thr, n_float ** (-s) * prod[idx], mu[idx] - np.log(n_float)


class TestPartitionIdentity:
    @pytest.mark.parametrize(
        "family", [DENSE2, DENSE52, PRACTICAL], ids=["dense2", "dense5_2", "practical"]
    )
    def test_exact_at_every_small_x(self, table, family):
        for x in range(1, 201):
            res = check_partition_identity(family, x, table)
            assert res.passed and res.lhs == x, x

    def test_exact_at_ten_thousand(self, table):
        res = check_partition_identity(DENSE2, 10_000, table)
        assert res.passed
        assert (res.lhs, res.rhs, res.gap) == (10_000, 10_000, 0)

    def test_domain(self, table):
        with pytest.raises(DomainError):
            check_partition_identity(DENSE2, 0, table)


class TestShiftedPartitionIdentity:
    def test_hand_value(self, table):
        # x = 10, q = 2 on the ratio-2 family: the even members are
        # 2, 4, 6, 8 contributing rough counts 2, 1, 1, 1 -> lhs = 5.
        res = check_shifted_partition_identity(DENSE2, 10, [2], table)
        assert res == CheckResult("shifted_partition", 5, 5, 0, True)

    @pytest.mark.parametrize("qs", [[2], [3], [5], [2, 2], [2, 3], [3, 5]])
    def test_exact_across_x(self, table, qs):
        for x in (1, 7, 50, 500, 2000):
            res = check_shifted_partition_identity(DENSE2, x, qs, table)
            assert res.passed, (x, qs)

    def test_exact_other_families(self, table):
        for family in (DENSE52, PRACTICAL):
            res = check_shifted_partition_identity(family, 3000, [2, 3], table)
            assert res.passed

    @pytest.mark.parametrize("with_table", [False, True], ids=["walk", "table"])
    def test_x_below_one_refused(self, table, with_table):
        with pytest.raises(DomainError, match="x must be >= 1, got 0"):
            check_shifted_partition_identity(
                DENSE2, 0, [2], table if with_table else None
            )

    def test_qs_validation(self, table):
        with pytest.raises(ConfigurationError):
            check_shifted_partition_identity(DENSE2, 100, [], table)
        with pytest.raises(ConfigurationError):
            check_shifted_partition_identity(DENSE2, 100, [4], table)
        with pytest.raises(ConfigurationError):
            check_shifted_partition_identity(DENSE2, 100, [3, 2], table)


class TestFloorQuotientPath:
    """With no table the identities run on the collapsed frontier and
    floor-quotient prime counts; the table loop is the reference."""

    @pytest.mark.parametrize(
        "family", [DENSE2, DENSE3, PRACTICAL], ids=["dense2", "dense3", "practical"]
    )
    def test_matches_table_reference(self, table, family):
        # Criterion 1's grid, thinned above 300 to bound the suite's time.
        for x in itertools.chain(range(1, 301), range(301, 1001, 7), (10**4, 10**5)):
            assert check_partition_identity(family, x) == check_partition_identity(
                family, x, table
            ), x
        for x in (10**3, 10**4):
            for qs in ([2], [3], [5], [2, 2], [2, 3], [3, 5]):
                fast = check_shifted_partition_identity(family, x, qs)
                assert fast == check_shifted_partition_identity(family, x, qs, table)

    @pytest.mark.parametrize(
        "family",
        [
            DENSE2,
            PRACTICAL,
            ThetaFamily("shifted1"),
            ThetaFamily("shifted2"),
            ThetaFamily.dense(Fraction(2**62 + 1, 2**61)),
        ],
        ids=["dense2", "practical", "shifted1", "shifted2", "dense_big"],
    )
    def test_shifted_large_last_prime(self, table, family):
        # The right side takes back its members with theta(n) < q_k, all
        # below q_k, leaves among them when x // q_k < q_k^2; these cases
        # fall on both sides of that square.
        for x in (7, 50, 500, 2000, 20_000):
            for qs in ([7], [2, 13], [31], [97]):
                fast = check_shifted_partition_identity(family, x, qs)
                assert fast == check_shifted_partition_identity(family, x, qs, table)

    @pytest.mark.parametrize("family", [DENSE2, PRACTICAL], ids=["dense2", "practical"])
    def test_partition_exact_at_1e9(self, family):
        x = 10**9
        res = check_partition_identity(family, x)
        assert res == CheckResult("partition", x, x, 0, True)
        assert type(res.lhs) is int

    def test_shifted_exact_at_1e8(self):
        res = check_shifted_partition_identity(DENSE2, 10**8, [2, 3])
        assert res.passed and res.lhs == res.rhs == 16_666_666
        # x // 1009 < 1009^2: the right side takes back leaves too.
        for family in (DENSE2, PRACTICAL):
            for qs in ([1009], [3, 1009]):
                res = check_shifted_partition_identity(family, 10**9, qs)
                assert res.passed and res.lhs == res.rhs, (family, qs)

    def test_q_beyond_x(self):
        res = check_shifted_partition_identity(DENSE2, 10, [11, 13])
        assert res == CheckResult("shifted_partition", 0, 0, 0, True)

    def test_ranges(self):
        with pytest.raises(ResourceCapError):
            check_partition_identity(DENSE2, 10**12 + 1)

    def test_int64_overflowing_t_takes_reference_loop(self, table):
        # n * t_num leaves int64: the frontier takes the thresholds of its
        # small rows in Python ints and must match the table reference loop.
        # At t = 10^12 every n is a member.
        overflowing = ThetaFamily.dense(Fraction(2**62 + 1, 2**61))
        for family in (overflowing, ThetaFamily.dense(10**12)):
            for x in (1, 97, 3000, 10**5):
                res = check_partition_identity(family, x)
                assert res == check_partition_identity(family, x, table)
                assert res.passed
                shifted = check_shifted_partition_identity(family, x, [2, 3])
                assert shifted == check_shifted_partition_identity(
                    family, x, [2, 3], table
                )
        # A prime bound past 2^31 is refused before any allocation.
        with pytest.raises(ResourceCapError):
            check_partition_identity(ThetaFamily.dense(10**7), 10**12)


class TestSeriesTerm:
    def test_first_weights(self, table):
        # theta(1) = 2 forces weight (1 - 1/2); theta(2) = 4 adds the prime 3.
        assert series_term(1, DENSE2, 1.0, table).weight == 0.5
        assert series_term(2, DENSE2, 1.0, table).weight == pytest.approx(
            Fraction(1, 6), rel=1e-15
        )
        assert series_term(3, DENSE2, 1.0, table).weight == 0.0

    def test_validation(self, table):
        with pytest.raises(DomainError):
            series_term(0, DENSE2, 1.0, table)
        with pytest.raises(DomainError):
            series_term(10, DENSE2, 0.9, table)
        with pytest.raises(SieveRangeError):
            series_term(1_500_000, DENSE2, 1.0, table)


class TestWeightSeries:
    def test_matches_termwise_sum(self, table):
        brute = sum(
            series_term(n, DENSE2, 1.0, table).weight for n in range(1, 201)
        )
        assert weight_series_partial_sum(DENSE2, 1.0, 200) == pytest.approx(
            brute, rel=1e-12
        )

    def test_nondecreasing_below_one(self):
        sums = [
            weight_series_partial_sum(DENSE2, 1.0, limit)
            for limit in (10, 100, 1000, 10_000)
        ]
        assert sums == sorted(sums)
        assert sums[-1] <= 1.0 + 1e-9
        assert sums[2] == pytest.approx(0.909572, abs=1e-6)
        assert sums[3] == pytest.approx(0.930375, abs=1e-6)

    def test_validation(self):
        with pytest.raises(DomainError):
            weight_series_partial_sum(DENSE2, 0.5, 100)
        with pytest.raises(DomainError):
            weight_series_partial_sum(DENSE2, 1.0, 0)
        with pytest.raises(DomainError):
            weight_series_partial_sum(DENSE2, math.nan, 100)

    def test_check(self):
        total = weight_series_partial_sum(DENSE2, 1.0, 1000)
        assert check_weight_series(DENSE2, 1.0, 1000) == CheckResult(
            "weight_series", total, 1.0, 1.0 - total, True
        )

    @pytest.mark.parametrize(
        "total, passed",
        [(0.0, True), (1.0 + 1e-9, True), (-1e-300, False),
         (math.nextafter(1.0 + 1e-9, 2.0), False), (math.nan, False)],
    )
    def test_check_passes_on_zero_to_one(self, monkeypatch, total, passed):
        monkeypatch.setattr(
            identities, "weight_series_partial_sum", lambda *args: total
        )
        assert check_weight_series(DENSE2, 1.0, 100).passed is passed

    @pytest.mark.parametrize("limit", SERIES_LIMITS)
    @pytest.mark.parametrize("family", SERIES_FAMILIES, ids=SERIES_IDS)
    def test_weight_chunks_match_iter_members(self, family, limit):
        # The chunks are unsorted: compare (n, theta) as multisets.
        pairs = sorted(
            (rec.n, family.threshold_floor(rec.n, rec.sigma))
            for rec in iter_members(family, limit)
        )
        got = []
        for n, thr, _, _ in identities._weight_chunks(family, 1.0, limit):
            assert n.dtype == thr.dtype == np.int64
            got += zip(n.tolist(), thr.tolist())
        assert sorted(got) == pairs

    @pytest.mark.parametrize("limit", SERIES_LIMITS)
    @pytest.mark.parametrize("family", SERIES_FAMILIES, ids=SERIES_IDS)
    def test_without_table(self, table, family, limit):
        for s in (1.0, 1.5):
            _, _, w, _ = reference_weights(table, family, s, limit)
            assert weight_series_partial_sum(family, s, limit) == math.fsum(w)

    def test_sieve_bounds(self):
        # theta(2^28) = 2^29 passes the bound.
        with pytest.raises(ResourceCapError):
            weight_series_partial_sum(DENSE2, 1.0, PRIME_SIEVE_CAP)

    def test_over_scale_walk_stops_early(self, monkeypatch):
        # theta(2^28) passes the cap: the query is refused before any walk.
        formed = self._count_formed(monkeypatch)
        with pytest.raises(ResourceCapError, match="threshold="):
            weight_series_partial_sum(DENSE2, 1.0, PRIME_SIEVE_CAP)
        assert formed == [0]

    @pytest.mark.parametrize("chunk", [5, 1 << 16])
    def test_refusal_names_largest_threshold(self, monkeypatch, chunk):
        # theta(2^16) = 262,144,000 is under the cap; the first walk runs to
        # its end and names the largest threshold, that of the member
        # 100,000, whatever the chunk order.
        monkeypatch.setattr(generate, "_CHUNK", chunk)
        with pytest.raises(ResourceCapError, match=r"^threshold=400000000 "):
            weight_series_partial_sum(ThetaFamily.dense(4000), 1.0, 100_000)

    @staticmethod
    def _count_formed(monkeypatch):
        """A one-item list counting the members _member_chunks forms."""
        formed = [0]
        chunks = identities._member_chunks

        def counted(*args, **kwargs):
            for level, cols in chunks(*args, **kwargs):
                formed[0] += len(cols["n"])
                yield level, cols

        monkeypatch.setattr(identities, "_member_chunks", counted)
        return formed


class TestWeightShift:
    def test_gap_pinned_and_shrinking(self):
        res = check_weight_shift(DENSE2, 1.0, 10_000, [2, 3])
        assert res.passed  # report-only by design
        assert res.gap == pytest.approx(0.020555, abs=1e-6)
        coarse = check_weight_shift(DENSE2, 1.5, 1000, [2]).gap
        fine = check_weight_shift(DENSE2, 1.5, 100_000, [2]).gap
        assert coarse == pytest.approx(0.002060, abs=1e-6)
        assert fine == pytest.approx(0.000138, abs=1e-6)
        assert fine < coarse

    def test_matches_termwise_sums(self, table):
        limit, qs = 300, [2, 3]
        res = check_weight_shift(DENSE2, 1.0, limit, qs)
        terms = [series_term(n, DENSE2, 1.0, table) for n in range(1, limit + 1)]
        lhs = sum(t.weight for t in terms if t.n % 6 == 0)
        assert res.lhs == pytest.approx(lhs, rel=1e-12)

    @pytest.mark.parametrize("limit", SERIES_LIMITS)
    @pytest.mark.parametrize("family", SERIES_FAMILIES, ids=SERIES_IDS)
    def test_without_table(self, table, family, limit):
        for s in (1.0, 1.5):
            n, thr, w, _ = reference_weights(table, family, s, limit)
            lhs = math.fsum(w[n % 6 == 0])
            rhs = 3.0 ** (-s) * math.fsum(w[(thr >= 3) & (n % 2 == 0)])
            assert check_weight_shift(family, s, limit, [2, 3]) == CheckResult(
                "weight_shift", lhs, rhs, abs(lhs - rhs), True
            )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            check_weight_shift(DENSE2, 1.0, 100, [6])
        with pytest.raises(DomainError):
            check_weight_shift(DENSE2, 0.9, 100, [2])
        with pytest.raises(DomainError):
            check_weight_shift(DENSE2, math.nan, 100, [2])


class TestLogMomentSeries:
    def test_truncation_shrinks(self):
        coarse = weighted_log_moment_sum(DENSE2, 1.5, 1000)
        fine = weighted_log_moment_sum(DENSE2, 1.5, 10_000)
        assert coarse == pytest.approx(0.022671, abs=1e-6)
        assert fine == pytest.approx(0.007669, abs=1e-6)
        assert abs(fine) < abs(coarse)

    def test_matches_termwise_sum(self, table):
        brute = 0.0
        for n in range(1, 201):
            term = series_term(n, DENSE2, 1.5, table)
            brute += term.weight * term.log_moment
        assert weighted_log_moment_sum(DENSE2, 1.5, 200) == pytest.approx(
            brute, rel=1e-12
        )

    @pytest.mark.parametrize("limit", SERIES_LIMITS)
    @pytest.mark.parametrize("family", SERIES_FAMILIES, ids=SERIES_IDS)
    def test_without_table(self, table, family, limit):
        for s in (1.0, 1.5):
            _, _, w, mu = reference_weights(table, family, s, limit)
            assert weighted_log_moment_sum(family, s, limit) == math.fsum(w * mu)

    def test_validation(self):
        with pytest.raises(DomainError):
            weighted_log_moment_sum(DENSE2, 0.9, 100)
        with pytest.raises(DomainError):
            weighted_log_moment_sum(DENSE2, math.nan, 100)


class TestLogMomentChecks:
    def test_series_check(self):
        total = weighted_log_moment_sum(DENSE2, 1.5, 1000)
        assert check_log_moment_series(DENSE2, 1.5, 1000) == CheckResult(
            "log_moment_series", total, 0.0, abs(total), True
        )

    def test_limit_check(self):
        gap = log_moment_gap(100, Fraction(2))
        assert check_log_moment_limit(DENSE2, 100) == CheckResult(
            "log_moment_limit", gap, 0.0, gap, True
        )

    @pytest.mark.parametrize("value", [-5.0, 1e9])
    def test_report_only(self, monkeypatch, value):
        monkeypatch.setattr(identities, "weighted_log_moment_sum", lambda *a: value)
        monkeypatch.setattr(identities, "log_moment_gap", lambda *a: value)
        assert check_log_moment_series(DENSE2, 1.0, 100).passed is True
        assert check_log_moment_limit(DENSE2, 100).passed is True

    @pytest.mark.parametrize("family", [PRACTICAL, ThetaFamily("shifted1")])
    def test_limit_needs_the_dense_family(self, family):
        with pytest.raises(
            ConfigurationError, match="^muapprox applies to the dense family$"
        ):
            check_log_moment_limit(family, 100)


class TestLogMomentGap:
    def test_exact_at_one(self):
        # mu_1 = ln 2 and the target is ln 2 - gamma, so the gap is exactly
        # gamma with no rounding anywhere.
        assert log_moment_gap(1, Fraction(2)) == EULER_GAMMA

    def test_shrinks(self):
        g100 = log_moment_gap(100, Fraction(2))
        g10000 = log_moment_gap(10_000, Fraction(2))
        assert g100 == pytest.approx(0.121665, abs=1e-6)
        assert g10000 == pytest.approx(0.006540, abs=1e-6)
        assert g10000 < g100

    def test_validation(self):
        with pytest.raises(DomainError):
            log_moment_gap(0, Fraction(2))
        with pytest.raises(DomainError):
            log_moment_gap(10, Fraction(3, 2))
        with pytest.raises(ResourceCapError):
            log_moment_gap(PRIME_SIEVE_CAP // 2 + 1, Fraction(2))

    def test_without_table(self, table):
        for n in (1, 2, 97, 3000, 10**5):
            for t in (Fraction(2), Fraction(5, 2), Fraction(10)):
                primes = table_primes(table, n * t).astype(np.float64)
                mu = float(np.sum(np.log(primes) / (primes - 1.0))) - math.log(n)
                target = math.log(t.numerator / t.denominator) - EULER_GAMMA
                assert log_moment_gap(n, t) == abs(mu - target)
