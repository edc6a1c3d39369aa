"""Arithmetic kernel tests: sieve, factorization, divisor statistics, and
the rough-number counter, each checked against brute-force oracles."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from densediv import (
    ConfigurationError,
    DomainError,
    ResourceCapError,
    SieveRangeError,
    SpfTable,
    build_spf_table,
    divisor_ratio_bound,
    factor_stats,
    factorize,
    is_prime,
    primes_up_to,
    rough_count,
    rough_counts,
)
from densediv.arith import prime_counter


def brute_factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


class TestSieve:
    def test_primes_start_at_two(self):
        t = build_spf_table(100)
        assert list(t.primes[:4]) == [2, 3, 5, 7]
        assert len(t.primes) == 25
        assert t.primes[-1] == 97

    @pytest.mark.parametrize(
        "limit", [0, 1, 2, 3, 4, 127, 128, 129, 1001, 10_000, 65537, 2_000_010]
    )
    def test_primes_match_reference_sieve(self, table, limit):
        # The odd-number sieve against the table's separate sieve, at the
        # ends of a 64-bit word of odd numbers and at the table limit.
        got = primes_up_to(limit)
        assert got.dtype == np.int64
        assert np.array_equal(got, table.primes[table.primes <= limit])

    def test_spf_values(self, table):
        assert table.spf[2] == 2
        assert table.spf[91] == 7  # 91 = 7 * 13
        assert table.spf[97] == 97
        assert table.spf[1] == 0

    def test_limit_validation(self):
        with pytest.raises(ConfigurationError):
            build_spf_table(1)

    def test_primes_up_to_small(self):
        assert primes_up_to(1).size == 0
        assert list(primes_up_to(2)) == [2]

    def test_primes_up_to_keeps_one_copy(self):
        # The 5 MB sieve of the odd numbers, pi's 0.6 MB of words and one
        # int64 array of the 664,579 primes (5.3 MB) peak at 10.9 MB; a
        # second copy of the primes would lift the peak past 16 MB.
        tracemalloc.start()
        try:
            primes = primes_up_to(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(primes) == 664_579
        assert peak < 13_000_000


class TestPrimeCounter:
    """pi against np.searchsorted over the session table's primes, which
    come from a separate sieve."""

    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 127, 128, 129, 1000, 65537])
    def test_every_value(self, table, limit):
        # 127..129 and 65537 sit at the ends of a 64-bit word of odd numbers.
        # Above the limit pi stays pi(limit); below 2 it is 0.
        ref = table.primes[table.primes <= limit]
        v = np.arange(-3, limit + 300, dtype=np.int64)
        primes, pi = prime_counter(limit)
        got = pi(v)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.searchsorted(ref, v, "right"))
        assert np.array_equal(primes, ref)

    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 1000])
    def test_scalars_and_far_above(self, table, limit):
        ref = table.primes[table.primes <= limit]
        pi = prime_counter(limit)[1]
        for v in (-1, 0, 1, 2, 3, limit, limit + 1, 2**62):
            want = int(np.searchsorted(ref, v, "right"))
            assert int(pi(v)) == int(pi(np.int64(v))) == want, v
        assert pi(np.array([2**62, 2**63 - 1])).tolist() == [len(ref)] * 2

    def test_random_sample(self, table):
        limit = table.limit
        v = np.random.default_rng(20211).integers(0, limit, 200_000, endpoint=True)
        v[:2] = 0, limit
        got = prime_counter(limit)[1](v)
        assert np.array_equal(got, np.searchsorted(table.primes, v, "right"))


class TestIsPrime:
    def test_matches_sieve(self):
        sieve = set(primes_up_to(20_000).tolist())
        for n in range(20_000 + 1):
            assert is_prime(n) == (n in sieve), n

    def test_large_values(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**61 + 1)
        assert is_prime(1_000_000_007)
        # Carmichael number 561 = 3*11*17 and a strong-pseudoprime classic
        assert not is_prime(561)
        assert not is_prime(3215031751)


class TestFactorize:
    def test_matches_brute_force(self, table):
        for n in range(1, 2001):
            assert list(factorize(n, table)) == brute_factorize(n), n

    def test_spot_values(self, table):
        f = factorize(360, table)
        assert f == ((2, 3), (3, 2), (5, 1))
        st = factor_stats(f)
        assert (st.omega, st.big_omega, st.tau, st.sigma) == (3, 6, 24, 1170)

    def test_stats_match_brute(self, table):
        for n in range(1, 1001):
            st = factor_stats(factorize(n, table))
            divs = brute_divisors(n)
            assert st.tau == len(divs)
            assert st.sigma == sum(divs)
            assert st.omega == len(brute_factorize(n))
            assert st.big_omega == sum(e for _, e in brute_factorize(n))

    def test_range_error(self, table):
        with pytest.raises(SieveRangeError):
            factorize(table.limit + 1, table)


@pytest.mark.parametrize(
    "call, error, text",
    [
        (lambda table: SpfTable(1, table.spf[:2], table.primes[:0]),
         ConfigurationError, "table limit must be >= 2, got 1"),
        (lambda table: factorize(0, table), SieveRangeError,
         "n must be positive, got 0"),
    ],
    ids=["spf-table-limit-1", "factorize-0"],
)
def test_refusals(table, call, error, text):
    with pytest.raises(error, match=text):
        call(table)


class TestDivisorRatioBound:
    def test_ratio_characterization(self, table):
        # bound(n)/n equals the largest consecutive-divisor ratio, so the
        # threshold comparison must agree with the divisor-gap criterion.
        for n in range(1, 5001):
            bound = divisor_ratio_bound(factorize(n, table))
            divs = brute_divisors(n)
            max_ratio = max(
                (Fraction(b, a) for a, b in zip(divs, divs[1:])),
                default=Fraction(1),
            )
            assert Fraction(bound, n) == max_ratio, n

    def test_spot_values(self, table):
        for n, expected in ((1, 1), (2, 4), (4, 8), (6, 12), (9, 27), (360, 720)):
            assert divisor_ratio_bound(factorize(n, table)) == expected


class TestRoughCount:
    def brute(self, x: float, y: float) -> int:
        X = math.floor(x)
        if X < 1:
            return 0
        count = 1  # n = 1
        for n in range(2, X + 1):
            m, least = n, None
            d = 2
            while d * d <= m:
                if m % d == 0:
                    least = d
                    break
                d += 1
            if least is None:
                least = m
            if least > y:
                count += 1
        return count

    def test_matches_brute(self, table):
        for x in (0, 1, 2, 10, 57, 100, 300):
            for y in (0, 1, 2, 3, 5, 10, 19):
                assert rough_count(x, y, table) == self.brute(x, y), (x, y)

    def test_fractional_arguments(self, table):
        assert rough_count(Fraction(5, 2), 8, table) == 1
        assert rough_count(2.5, 2, table) == 1
        assert rough_count(0.5, 2, table) == 0

    def test_y_clamp_beyond_limit(self, table):
        # spf values never exceed the limit, so y above it behaves like y=limit
        assert rough_count(100, table.limit + 100, table) == 1

    def test_x_beyond_limit(self, table):
        with pytest.raises(SieveRangeError):
            rough_count(table.limit + 1, 2, table)


class TestRoughCounts:
    @pytest.mark.parametrize("x", [*range(1, 61), 3000])
    def test_matches_rough_count(self, table, x):
        quotients = sorted({x // k for k in range(1, x + 1)})
        X = np.array([v for v in quotients for _ in range(v + 1)])
        Y = np.array([y for v in quotients for y in range(v + 1)])
        expect = [rough_count(v, y, table) for v, y in zip(X.tolist(), Y.tolist())]
        assert rough_counts(x, X, Y).tolist() == expect

    def test_prime_count_at_1e9(self):
        # Phi(x, sqrt x) = 1 + pi(x) - pi(sqrt x), with pi(1e9) = 50847534.
        x = 10**9
        assert rough_counts(x, np.array([x]), np.array([31622])).tolist() == [
            1 + 50847534 - 3401
        ]

    def test_validation(self):
        with pytest.raises(DomainError):
            rough_counts(100, np.array([30]), np.array([2]))  # 30 is no 100 // k
        with pytest.raises(DomainError):
            rough_counts(0, np.array([1]), np.array([0]))
        with pytest.raises(ResourceCapError):
            rough_counts(10**12 + 1, np.array([1]), np.array([0]))
