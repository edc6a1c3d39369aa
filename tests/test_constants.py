"""Constant-bundle and coefficient-formula tests.

Every bundle field is recomputed inline from gamma so a regression in the
derivations cannot hide; the quotable decimal expansions are frozen as
literals.
"""

import math
from fractions import Fraction

import pytest

from densediv import (
    ConfigurationError,
    CountQuery,
    DENSITY_SCALE,
    DensedivError,
    DomainError,
    EULER_GAMMA,
    EstimateUndefinedError,
    ResourceCapError,
    SieveRangeError,
    ThetaFamily,
    constants_bundle,
    empirical_coeff,
    expected_distinct_factors,
    leading_coeff_asymptotic,
    prime_multiple_coeff,
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


class TestCoeffFormulas:
    def test_leading_coeff(self):
        c = DENSITY_SCALE
        assert leading_coeff_asymptotic(2.0) == pytest.approx(
            c * (math.log(2) - EULER_GAMMA), rel=1e-15
        )
        assert leading_coeff_asymptotic(2.0) > 0
        with pytest.raises(DomainError):
            leading_coeff_asymptotic(1.9)

    def test_prime_multiple(self):
        c_theta = leading_coeff_asymptotic(2.0)
        got = prime_multiple_coeff(2, 2.0, c_theta)
        assert got == pytest.approx(
            (c_theta + DENSITY_SCALE * math.log(2)) / 2, rel=1e-15
        )
        with pytest.raises(ConfigurationError):
            prime_multiple_coeff(4, 10.0, c_theta)
        with pytest.raises(DomainError):
            prime_multiple_coeff(3, 2.0, c_theta)


class TestEmpiricalCoeff:
    DENSE2 = ThetaFamily.dense(2)

    def test_unfiltered(self):
        query = CountQuery(x=100_000, family=self.DENSE2)
        est = empirical_coeff(query, 26_000)
        assert est.c_hat == pytest.approx(
            26_000 * math.log(200_000) / 100_000, rel=1e-15
        )
        assert est.c_formula == pytest.approx(
            leading_coeff_asymptotic(2.0), rel=1e-15
        )
        assert est.rel_err == pytest.approx(
            abs(est.c_hat - est.c_formula) / est.c_formula, rel=1e-15
        )
        assert (est.q, est.t, est.x) == (1, Fraction(2), 100_000)

    def test_prime_filtered(self):
        query = CountQuery(x=100_000, family=self.DENSE2, q=2)
        est = empirical_coeff(query, 20_000)
        assert est.c_formula == pytest.approx(
            prime_multiple_coeff(2, 2.0, leading_coeff_asymptotic(2.0)),
            rel=1e-15,
        )

    def test_rejections(self):
        dense_query = CountQuery(x=1000, family=self.DENSE2)
        with pytest.raises(DomainError):
            empirical_coeff(
                CountQuery(x=1000, family=ThetaFamily.practical()), 100
            )
        with pytest.raises(EstimateUndefinedError):
            empirical_coeff(dense_query, 0)
        with pytest.raises(ConfigurationError):
            empirical_coeff(dense_query, -5)
        with pytest.raises(ConfigurationError):
            empirical_coeff(CountQuery(x=1000, family=self.DENSE2, q=6), 10)


class TestErrorTaxonomy:
    def test_hierarchy(self):
        for exc in (
            ConfigurationError,
            DomainError,
            SieveRangeError,
            ResourceCapError,
            EstimateUndefinedError,
        ):
            assert issubclass(exc, DensedivError)
            assert issubclass(exc, ValueError)
