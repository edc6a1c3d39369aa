"""Property tests over random families, divisor filters and bounds.

The frontier's counts and moments equal the tallies of the iter_members
reference (also for dense t = A + r/d with d up to 2^61, whose products
n*t_num leave int64), whose members are exactly the ones
the is_member brute-force filter keeps; and the partition identities give
the same exact CheckResult on the floor-quotient path as on the table
reference loop.  Hypothesis runs derandomized, so every run draws the same
examples.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from densediv import (
    ThetaFamily,
    check_partition_identity,
    check_shifted_partition_identity,
    collect_moments,
    count_members_multi,
    is_member,
    iter_members,
)

PROPERTY_SETTINGS = settings(
    derandomize=True, deadline=None, database=None, max_examples=40
)

# t = A + r/d with 2^55 <= d <= 2^61: x * t_num >= 2^63 once x >= 128.
INT64_UNSAFE_T = st.builds(
    lambda a, d, r: Fraction(a * d + r, d),
    st.integers(min_value=2, max_value=50),
    st.integers(min_value=2**55, max_value=2**61),
    st.integers(min_value=1, max_value=2**55 - 1),
)
FAMILIES = st.one_of(
    st.fractions(min_value=2, max_value=50, max_denominator=100).map(ThetaFamily.dense),
    INT64_UNSAFE_T.map(ThetaFamily.dense),
    st.sampled_from(
        [ThetaFamily.practical(), ThetaFamily.shifted_one(), ThetaFamily.shifted_two()]
    ),
)
XS = st.integers(min_value=1, max_value=10**5)


@PROPERTY_SETTINGS
@given(
    family=FAMILIES,
    x=XS,
    qs=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=3),
)
def test_frontier_equals_reference_tallies(table, family, x, qs):
    records = list(iter_members(family, x))
    members = sorted(rec.n for rec in records)
    assert members == [n for n in range(1, x + 1) if is_member(n, family, table)]
    counts = [sum(1 for n in members if n % q == 0) for q in qs]
    histograms = (
        dict(Counter(rec.omega for rec in records)),
        dict(Counter(rec.big_omega for rec in records)),
        dict(Counter(rec.tau for rec in records)),
    )
    assert count_members_multi(family, x, qs) == counts
    summary = collect_moments(family, x)
    assert (
        summary.histogram_omega,
        summary.histogram_big_omega,
        summary.histogram_tau,
    ) == histograms


@PROPERTY_SETTINGS
@given(
    family=FAMILIES,
    x=XS,
    qs=st.lists(
        st.sampled_from([2, 3, 5, 7, 13, 31, 97]), min_size=1, max_size=3
    ).map(sorted),
)
def test_partition_identities_equal_table_loop(table, family, x, qs):
    res = check_partition_identity(family, x)
    assert res.passed and res == check_partition_identity(family, x, table)
    shifted = check_shifted_partition_identity(family, x, qs)
    assert shifted.passed
    assert shifted == check_shifted_partition_identity(family, x, qs, table)
