"""Threshold-family tests: ratio parsing, membership against independent
oracles, and containment relations between families."""

from fractions import Fraction

import pytest

from densediv import (
    ConfigurationError,
    DomainError,
    FAMILY_KINDS,
    ThetaFamily,
    factor_stats,
    factorize,
    is_dense_by_divisor_scan,
    is_dense_by_ratio_bound,
    is_member,
    is_practical_by_subset_sums,
    parse_t,
)


class TestParseT:
    def test_forms(self):
        assert parse_t("2") == Fraction(2)
        assert parse_t("5/2") == Fraction(5, 2)
        assert parse_t("2.5") == Fraction(5, 2)
        assert parse_t(" 7/3 ") == Fraction(7, 3)

    def test_below_two_rejected(self):
        # parse_t only parses; the ratio-bound floor is enforced when the
        # family is constructed.
        for bad in ("1", "1.99", "3/2", "0"):
            with pytest.raises(ConfigurationError):
                ThetaFamily.dense(parse_t(bad))
        with pytest.raises(ConfigurationError):
            ThetaFamily.dense(Fraction(3, 2))

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_t("abc")


class TestThetaFamily:
    def test_kinds(self):
        assert set(FAMILY_KINDS) == {"dense", "practical", "shifted1", "shifted2"}

    def test_threshold_floor(self, table):
        dense = ThetaFamily.dense(Fraction(5, 2))
        assert dense.threshold_floor(5, 0) == 12  # floor(25/2)
        practical = ThetaFamily.practical()
        st = factor_stats(factorize(12, table))
        assert practical.threshold_floor(12, st.sigma) == 29  # sigma(12)+1
        assert ThetaFamily.shifted_one().threshold_floor(10, 0) == 11
        assert ThetaFamily.shifted_two().threshold_floor(10, 0) == 12

    def test_t_float(self):
        assert ThetaFamily.dense(Fraction(5, 2)).t_float == 2.5
        # Only the quotient must fit: the numerator alone is past the range.
        assert ThetaFamily.dense(Fraction(2 * 10**400 + 1, 10**400)).t_float == 2.0
        assert ThetaFamily.practical().t_float == 0.0
        with pytest.raises(DomainError, match="float range"):
            ThetaFamily.dense("1e400").t_float

    def test_dense_requires_ratio(self):
        with pytest.raises(ConfigurationError):
            ThetaFamily(kind="dense", t_num=3, t_den=2)


class TestMembershipOracles:
    @pytest.mark.parametrize("t", ["2", "5/2", "3", "10"])
    def test_dense_against_both_oracles(self, table, t):
        ratio = parse_t(t)
        family = ThetaFamily.dense(ratio)
        num, den = ratio.numerator, ratio.denominator
        for n in range(1, 3001):
            member = is_member(n, family, table)
            assert member == is_dense_by_ratio_bound(n, num, den, table), (n, t)
            assert member == is_dense_by_divisor_scan(n, num, den), (n, t)

    def test_practical_against_subset_sums(self, table):
        for n in range(1, 3001):
            assert is_member(
                n, ThetaFamily.practical(), table
            ) == is_practical_by_subset_sums(n), n

    def test_known_practical_prefix(self, table):
        # classical table of the first practical numbers
        known = [1, 2, 4, 6, 8, 12, 16, 18, 20, 24, 28, 30, 32, 36, 40, 42,
                 48, 54, 56, 60, 64, 66, 72, 78, 80, 84, 88, 90, 96, 100]
        got = [n for n in range(1, 101)
               if is_member(n, ThetaFamily.practical(), table)]
        assert got == known

    def test_known_two_dense_prefix(self, table):
        known = [1, 2, 4, 6, 8, 12, 16, 18, 20, 24]
        got = [n for n in range(1, 25)
               if is_member(n, ThetaFamily.dense(2), table)]
        assert got == known


class TestContainments:
    def test_dense_monotone_in_t(self, table):
        fams = [ThetaFamily.dense(t) for t in (2, Fraction(5, 2), 3, 10)]
        for n in range(1, 2001):
            flags = [is_member(n, f, table) for f in fams]
            # membership can only switch on as t grows
            for a, b in zip(flags, flags[1:]):
                assert (not a) or b, n

    def test_two_dense_subset_of_practical(self, table):
        dense = ThetaFamily.dense(2)
        practical = ThetaFamily.practical()
        for n in range(1, 5001):
            if is_member(n, dense, table):
                assert is_member(n, practical, table), n

    def test_shifted_one_subset_of_shifted_two(self, table):
        one, two = ThetaFamily.shifted_one(), ThetaFamily.shifted_two()
        for n in range(1, 5001):
            if is_member(n, one, table):
                assert is_member(n, two, table), n

    def test_members_above_one_are_even(self, table):
        # theta(1) = 2 for these families, so the first prime must be 2
        for family in (ThetaFamily.dense(2), ThetaFamily.practical(),
                       ThetaFamily.shifted_one()):
            for n in range(3, 2001, 2):
                assert not is_member(n, family, table), (family.kind, n)
