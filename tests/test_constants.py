"""Constant-bundle tests.

Every bundle field is recomputed inline from gamma so a regression in the
derivations cannot hide; the quotable decimal expansions are frozen as
literals.
"""

import math

import pytest

from densediv import (
    ConfigurationError,
    DENSITY_SCALE,
    DensedivError,
    DomainError,
    EULER_GAMMA,
    ResourceCapError,
    SieveRangeError,
    constants_bundle,
    expected_distinct_factors,
)


class TestBundle:
    def test_rederived_from_gamma(self):
        b = constants_bundle()
        c = 1.0 / (1.0 - math.exp(-b.gamma))
        assert b.C == pytest.approx(c, rel=1e-15)
        assert b.C_log2 == pytest.approx(c * math.log(2), rel=1e-15)
        assert b.exp_shifted_prime == pytest.approx(
            (c + 1) * math.log(c + 1) - c * math.log(c) + 1, rel=1e-15
        )
        assert b.exp_twin == pytest.approx(2 + 4 * c * math.log(2), rel=1e-15)
        assert b.exp_shifted_prime_e == pytest.approx(
            (math.e + 1) * math.log(math.e + 1) - math.e + 1, rel=1e-15
        )
        assert b.exp_twin_e == pytest.approx(
            2 + 4 * math.e * math.log(2), rel=1e-15
        )
        assert b.e_log2 == pytest.approx(math.e * math.log(2), rel=1e-15)

    def test_quoted_decimals(self):
        b = constants_bundle()
        assert b.gamma == pytest.approx(0.5772156649, abs=1e-10)
        assert b.C == pytest.approx(2.280291, abs=1e-6)
        assert b.C_log2 == pytest.approx(1.580577, abs=1e-6)
        assert b.exp_shifted_prime == pytest.approx(3.01711, abs=1e-5)
        assert b.exp_twin == pytest.approx(8.32230, abs=1e-5)
        # the e-variant exponent is usually quoted truncated, hence 1e-4
        assert b.exp_shifted_prime_e == pytest.approx(3.16470, abs=1e-4)
        assert b.exp_twin_e == pytest.approx(9.53667, abs=1e-5)
        assert DENSITY_SCALE == b.C
        assert EULER_GAMMA == b.gamma


class TestExpectedDistinctFactors:
    def test_collapses_at_t_equals_x(self):
        for x in (10.0, 100.0, 1e6):
            assert expected_distinct_factors(x, x) == pytest.approx(
                math.log(math.log(x)), rel=1e-14
            )

    def test_formula(self):
        c = DENSITY_SCALE
        x, t = 1e7, 2.0
        expect = c * math.log(math.log(x)) - (c - 1) * math.log(math.log(t))
        got = expected_distinct_factors(x, t)
        assert got == pytest.approx(expect, rel=1e-15)
        assert got == pytest.approx(6.808321, abs=1e-6)

    def test_monotonicity(self):
        assert expected_distinct_factors(1e6, 2) < expected_distinct_factors(1e7, 2)
        # smaller ratio bound -> more forced small primes -> larger mean
        assert expected_distinct_factors(1e6, 2) > expected_distinct_factors(1e6, 10)

    def test_domain(self):
        with pytest.raises(DomainError):
            expected_distinct_factors(1.5, 2.0)
        with pytest.raises(DomainError):
            expected_distinct_factors(100.0, 1.5)


class TestErrorTaxonomy:
    def test_hierarchy(self):
        for exc in (
            ConfigurationError,
            DomainError,
            SieveRangeError,
            ResourceCapError,
        ):
            assert issubclass(exc, DensedivError)
            assert issubclass(exc, ValueError)
