"""Enumeration/counting engine tests: DFS vs brute-force filtration, the
int64 frontier (including dense t whose n*t_num leaves int64) against the
DFS reference, and moment summaries.  The library takes no ``threads``; the
CLI's ``--threads`` invariance is tested in test_cli.py."""

import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import densediv.generate as generate
from densediv import (
    ConfigurationError,
    DomainError,
    ResourceCapError,
    ThetaFamily,
    check_partition_identity,
    collect_moments,
    count_members_multi,
    deviation_bound,
    factor_stats,
    factorize,
    is_member,
    is_prime,
    iter_members,
    member_columns,
)
from densediv.arith import prime_counter

DENSE2 = ThetaFamily.dense(2)
DENSE52 = ThetaFamily.dense(Fraction(5, 2))
PRACTICAL = ThetaFamily("practical")
SHIFTED1 = ThetaFamily("shifted1")
SHIFTED2 = ThetaFamily("shifted2")

ALL_FAMILIES = [DENSE2, DENSE52, PRACTICAL, SHIFTED1, SHIFTED2]
COLLAPSE_FAMILIES = [
    DENSE2,
    DENSE52,
    ThetaFamily.dense(Fraction(12, 5)),
    ThetaFamily.dense(Fraction(8, 3)),
    PRACTICAL,
    SHIFTED1,
    SHIFTED2,
]
# x * t_num >= 2^63 for every x >= 2 tested: theta needs Python ints.
INT64_UNSAFE = ThetaFamily.dense(Fraction(2**62 + 1, 2**61))


def _family_id(f):
    return f"{f.kind}{f.t_num}_{f.t_den}" if f.kind == "dense" else f.kind


def _filter_qs(x):
    """q = 1, prime powers, composites, a prime above sqrt(x), and q > x."""
    big_prime = next(p for p in itertools.count(math.isqrt(x) + 1) if is_prime(p))
    return [1, 2, 3, 4, 8, 9, 25, 6, 12, 30, 210, big_prime, x + 1]


def _assert_matches_reference(family, x, qs, xis=(0.5, 1.0, 4.0), expected=2.0):
    """Frontier counts and moments equal plain iter_members tallies."""
    recs = list(iter_members(family, x))
    got = count_members_multi(family, x, qs)
    assert got == [sum(r.n % q == 0 for r in recs) for q in qs]
    s = collect_moments(family, x)
    for xi in xis:
        bound = deviation_bound(x, xi)
        want = sum(abs(r.omega - expected) > bound for r in recs)
        assert s.exceed_count(expected, bound) == want
    assert s.count == len(recs)
    assert s.histogram_omega == Counter(r.omega for r in recs)
    assert s.histogram_big_omega == Counter(r.big_omega for r in recs)
    assert s.histogram_tau == Counter(r.tau for r in recs)
    assert s.sum_omega == sum(r.omega for r in recs)
    assert s.sum_omega_sq == sum(r.omega**2 for r in recs)
    assert s.sum_big_omega == sum(r.big_omega for r in recs)
    assert s.sum_tau == sum(r.tau for r in recs)
    assert s.sum_log_tau == pytest.approx(
        math.fsum(math.log(r.tau) for r in recs), rel=1e-12
    )


def _members_from_blocks(family, x):
    """Multiset of (n, omega, big omega, tau) over every row the collapsed
    frontier yields and every leaf n*primes[j], j in [mid, hi), that it
    tallies; the leaf at j == last is the repeat of the row's largest prime."""
    primes, _, blocks = generate._frontier(family, x, stats=True)
    out = Counter()
    for level, blk, mid, hi in blocks:
        cols = [blk[k].tolist() for k in ("n", "omega", "tau", "e", "last")]
        for n, om, tau, e, last, lo, up in zip(*cols, mid.tolist(), hi.tolist()):
            out[n, om, level, tau] += 1
            for j in range(lo, up):
                leaf = n * int(primes[j])
                if j == last:
                    out[leaf, om, level + 1, tau // (e + 1) * (e + 2)] += 1
                else:
                    out[leaf, om + 1, level + 1, 2 * tau] += 1
    return out


def _assert_divisor_counts_match(family, x):
    """member_columns gives int64 (n, tau) arrays equal to the sorted
    iter_members records."""
    recs = sorted(iter_members(family, x), key=lambda r: r.n)
    ns, taus = member_columns(family, x, ("n", "tau"))
    assert ns.dtype == taus.dtype == np.int64
    assert ns.tolist() == [r.n for r in recs]
    assert taus.tolist() == [r.tau for r in recs]


class TestIterMembers:
    def test_dense2_prefix(self):
        got = sorted(rec.n for rec in iter_members(DENSE2, 20))
        assert got == [1, 2, 4, 6, 8, 12, 16, 18, 20]

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f"{f.kind}{f.t_num}_{f.t_den}" if f.kind == "dense" else f.kind)
    def test_matches_filtration(self, table, family):
        x = 10_000
        enumerated = sorted(rec.n for rec in iter_members(family, x))
        filtered = [n for n in range(1, x + 1) if is_member(n, family, table)]
        assert enumerated == filtered

    def test_each_member_once(self):
        ns = [rec.n for rec in iter_members(PRACTICAL, 5000)]
        assert len(ns) == len(set(ns))

    def test_record_fields(self, table):
        for rec in iter_members(DENSE2, 2000):
            st = factor_stats(factorize(rec.n, table))
            assert (rec.omega, rec.big_omega, rec.tau, rec.sigma) == (
                st.omega,
                st.big_omega,
                st.tau,
                st.sigma,
            ), rec.n

    def test_domain_error(self):
        with pytest.raises(DomainError):
            list(iter_members(DENSE2, 0))


class TestCounts:
    def test_spot_values(self):
        assert count_members_multi(DENSE2, 20, [1, 2, 3]) == [9, 8, 3]
        assert count_members_multi(PRACTICAL, 20, [1]) == [9]

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f"{f.kind}{f.t_num}_{f.t_den}" if f.kind == "dense" else f.kind)
    def test_matches_enumeration(self, family):
        x = 3000
        expect = sum(1 for _ in iter_members(family, x))
        assert count_members_multi(family, x, [1]) == [expect]

    def test_domain_error(self):
        with pytest.raises(DomainError):
            count_members_multi(DENSE2, 0, [1])
        with pytest.raises(DomainError):
            count_members_multi(DENSE2, 20, [1, 0])

    def test_every_q_past_x_walks_nothing(self, monkeypatch):
        # No q <= x: zero counts without a sieve, even past the sieve cap.
        def refuse(*args, **kwargs):
            raise AssertionError("_frontier called")

        monkeypatch.setattr(generate, "_frontier", refuse)
        assert count_members_multi(PRACTICAL, 10**11, [2 * 10**11]) == [0]
        family = ThetaFamily.dense(10**12)
        assert count_members_multi(family, 3 * 10**9, [4 * 10**9, 2**70]) == [0, 0]
        with pytest.raises(AssertionError):
            count_members_multi(DENSE2, 20, [21, 20])

    def test_multi_matches_single(self):
        qs = [1, 3, 4]
        multi = count_members_multi(DENSE52, 50_000, qs)
        for q, c in zip(qs, multi):
            assert count_members_multi(DENSE52, 50_000, [q]) == [c]


class TestCollapsedFrontier:
    """The leaf-collapsing frontier against the reference generator, also
    for a dense t whose thresholds leave int64."""

    @pytest.mark.parametrize("x", [1, 2, 3, 4, 6, 97, 3000, 200_000])
    @pytest.mark.parametrize("family", COLLAPSE_FAMILIES, ids=_family_id)
    def test_matches_reference(self, family, x):
        _assert_matches_reference(family, x, _filter_qs(x))

    @pytest.mark.parametrize("family", [DENSE2, PRACTICAL], ids=_family_id)
    def test_tiny_blocks(self, monkeypatch, family):
        # Blocks of a few rows force every parent block to be expanded in
        # several resumed slices.
        x = 20_000
        monkeypatch.setattr(generate, "_CHUNK", 5)
        _assert_matches_reference(family, x, _filter_qs(x), xis=(1.0,))
        _assert_divisor_counts_match(family, x)

    @pytest.mark.parametrize("x", [97, 3000, 200_000])
    def test_int64_unsafe_family(self, x):
        # n * t_num >= 2^63: the thresholds of the rows n <= x // n are taken
        # in Python ints.
        family = INT64_UNSAFE
        _assert_matches_reference(family, x, _filter_qs(x), xis=(1.0,))
        _assert_divisor_counts_match(family, x)

    @pytest.mark.parametrize("chunk", [5, generate._CHUNK])
    @pytest.mark.parametrize(
        "x", [7, 8, 9, 26, 27, 28, 53, 54, 55, 124, 125, 126, 10**5]
    )
    @pytest.mark.parametrize(
        "family", [*COLLAPSE_FAMILIES, INT64_UNSAFE], ids=_family_id
    )
    def test_blocks_rebuild_members(self, monkeypatch, family, x, chunk):
        # Rows, new-prime leaves and repeat leaves together are the member
        # set, each member once, on both sides of cube boundaries, where a
        # child n = m*p turns terminal (p^2 > x // n).
        monkeypatch.setattr(generate, "_CHUNK", chunk)
        recs = iter_members(family, x)
        want = Counter((r.n, r.omega, r.big_omega, r.tau) for r in recs)
        assert _members_from_blocks(family, x) == want

    @pytest.mark.parametrize("family", [DENSE2, PRACTICAL], ids=_family_id)
    def test_rows_built(self, family):
        # Rows yielded at x = 10^7 (members 776087 / 829157): 16226 for
        # dense t=2 and 16598 for practical, as every child n*p with
        # p^2 > x // n is a leaf: a row whose largest prime p has
        # p^2 > x // n is yielded but never expanded, its repeat n*p tallied
        # as a leaf.  30204 and 30922 when such rows are expanded.
        _, _, blocks = generate._frontier(family, 10**7)
        assert sum(len(blk["n"]) for _, blk, _, _ in blocks) <= 17_000

    @pytest.mark.parametrize("x", [1, 8, 9, 26, 27, 125, 126, 10**5, 10**7])
    @pytest.mark.parametrize(
        "family", [*COLLAPSE_FAMILIES, INT64_UNSAFE], ids=_family_id
    )
    def test_one_leaf_rule(self, family, x):
        # A row's children are all leaves (mid <= last) exactly when its
        # largest prime p has p^2 > x // n; the root has a child unless x = 1.
        primes, _, blocks = generate._frontier(family, x)
        for _, blk, mid, hi in blocks:
            n, last = blk["n"], blk["last"]
            p = primes[np.maximum(last, 0)]
            assert np.array_equal(mid <= last, (last >= 0) & (p * p > x // n))

    def test_childless_rows_leave_the_stack(self):
        # Blocks wait on the stack with their rows that have children only:
        # the peak is 8.3 MiB, and 18.4 MiB when every row waits.
        tracemalloc.start()
        try:
            count_members_multi(PRACTICAL, 10**9, [1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_ratio_bound_above_x(self):
        # t >= x admits every n <= x; the prime sieve stops at x, not sqrt(x t).
        family = ThetaFamily.dense(10**12)
        assert count_members_multi(family, 10**5, [1, 7]) == [100000, 14285]
        assert collect_moments(family, 10**5).count == 100000

    def test_theta_at_most(self):
        # min(theta(n), cap) equals the Python-int value on both sides of the
        # cut n = cap // A (A = floor t), for caps up to 2^61, given as a
        # scalar or as an array.  The last two t have A >= 2^63.
        ts = (2, Fraction(5, 2), Fraction("2.0000000000001"), INT64_UNSAFE.t, 10**12,
              10**19, Fraction(2**64 + 1, 2))
        for t in ts:
            family = ThetaFamily.dense(t)
            a = family.t_num // family.t_den
            for cap in (0, 1, 5, 10**6, 3 * 10**8 + 1, 10**12, 2**61):
                ns = {1, 2, 3, 1000, cap // a, cap // a + 1, 2**61 // a, 2**61}
                ns = sorted(v for v in ns if v >= 1)
                n = np.array(ns, dtype=np.int64)
                want = [min(family.threshold_floor(v, None), cap) for v in ns]
                for c in (cap, np.full(len(n), cap, dtype=np.int64)):
                    got = generate._theta_at_most(family, n, None, c)
                    assert got.dtype == np.int64, (t, cap)
                    assert got.tolist() == want, (t, cap)
        # The admissible bound min(theta(n), x // n) of the frontier.
        family = ThetaFamily.dense(10**12)
        n = np.array([1, 2, 6, 1000, 999_983], dtype=np.int64)
        pi = prime_counter(10**6)[1]
        hi = pi(generate._theta_at_most(family, n, None, 10**6 // n))
        assert hi.tolist() == [78498, 41538, 15225, 168, 0]
        # t >= x: every n <= x is a member.
        assert count_members_multi(family, 10**5, [1]) == [100000]

    def test_pinned_large_counts(self):
        assert count_members_multi(DENSE2, 10**9, [1]) == [60447501]
        assert count_members_multi(DENSE52, 3 * 10**8, [3]) == [13120582]
        assert count_members_multi(PRACTICAL, 3 * 10**8, [1]) == [20615357]

    def test_practical_count_matches_weingartner(self):
        # Weingartner (Math. Comp. 88, 2019): P(x) ~ c x / ln x with
        # c = 1.33607...; at 1e10 the ratio is 1.34194, 0.44% above c.
        x = 10**10
        assert count_members_multi(PRACTICAL, x, [1]) == [582798892]
        assert 582798892 * math.log(x) / x == pytest.approx(1.33607, rel=0.01)


# x with x // n = p^2 - 1, p^2 and p^2 + 1 for the rows n = 1, 2, 6 and the
# primes p <= 13: where the leaf split, the count of primes whose square is
# at most x // n, moves by one.
SQUARE_EDGE_XS = sorted({
    n * (p * p + d)
    for n in (1, 2, 6)
    for p in (2, 3, 5, 7, 11, 13)
    for d in (-1, 0, 1)
})


class TestOnePiSource:
    """Every prime count of the walk and its tallies reads one prime_counter:
    the admissible bound, the leaves above n_min and the divisor filter,
    each against the references at the square edges, where the leaf split
    counts the primes whose square is at most x // n."""

    @pytest.mark.parametrize(
        "family", [*COLLAPSE_FAMILIES, INT64_UNSAFE], ids=_family_id
    )
    def test_tallies_at_square_edges(self, family):
        for x in SQUARE_EDGE_XS:
            recs = list(iter_members(family, x))
            # A prime q past the prime bound divides no member; its filter
            # reads pi above the counter's limit.
            bound = generate._prime_limit(family, x)
            big = next(p for p in itertools.count(bound + 1) if is_prime(p))
            qs = [1, 2, 3, 7, big]
            want = [sum(r.n % q == 0 for r in recs) for q in qs]
            assert count_members_multi(family, x, qs) == want, x
            s = collect_moments(family, x)
            assert s.histogram_omega == Counter(r.omega for r in recs), x
            assert s.histogram_big_omega == Counter(r.big_omega for r in recs), x
            assert s.histogram_tau == Counter(r.tau for r in recs), x
            for n_min in (0, x // 7, x // 2, x - 1):
                ns, taus = member_columns(family, x, ("n", "tau"), n_min=n_min)
                above = sorted((r.n, r.tau) for r in recs if r.n > n_min)
                assert list(zip(ns.tolist(), taus.tolist())) == above, (x, n_min)
            result = check_partition_identity(family, x)
            assert (result.lhs, result.passed) == (x, True), x

    def test_identity_at_large_square_edges(self):
        # x // n = p^2 - 1, p^2 and p^2 + 1 past iter_members' reach: a row
        # wrongly collapsed takes its Phi as 1 and breaks the identity.
        # theta(n) < p for the rows n = 1, 2 of the first three families, so
        # only t = 2*10^4 admits p itself at the split of those rows.
        p = 10007
        for family in (DENSE2, PRACTICAL, SHIFTED1, ThetaFamily.dense(2 * 10**4)):
            for x in (n * (p * p + d) for n in (1, 2) for d in (-1, 0, 1)):
                assert check_partition_identity(family, x).passed, (family, x)


class TestMemberColumns:
    """member_columns, also for a dense t whose thresholds leave int64 and
    in blocks of a few rows, against the sorted reference records."""

    @pytest.mark.parametrize("chunk", [5, generate._CHUNK])
    @pytest.mark.parametrize("x", [1, 2, 97, 3000])
    @pytest.mark.parametrize(
        "family", [*COLLAPSE_FAMILIES, INT64_UNSAFE], ids=_family_id
    )
    def test_matches_sorted_records(self, monkeypatch, family, x, chunk):
        monkeypatch.setattr(generate, "_CHUNK", chunk)
        recs = sorted(iter_members(family, x), key=lambda r: r.n)
        cols = member_columns(family, x, generate.MEMBER_COLUMNS)
        assert all(col.dtype == np.int64 for col in cols)
        assert np.all(np.diff(cols[0]) > 0)
        assert [col.tolist() for col in cols] == [
            [getattr(r, name) for r in recs] for name in generate.MEMBER_COLUMNS
        ]

    def test_peak_holds_one_column_twice(self):
        # The columns are filled in place and reordered one at a time: the
        # peak stays near the five sorted int64 columns plus the sort order
        # and one more column (3.2x them when all were held).
        tracemalloc.start()
        try:
            cols = member_columns(DENSE2, 10**6, generate.MEMBER_COLUMNS)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cols[0]) == 91472
        assert peak < 2.5 * held

    def test_sigma_columns_refused_at_2_60(self, monkeypatch):
        # Robin's bound keeps sigma(n) in int64 only for n < 2^60: a sigma
        # column past it is refused before any sieving.
        def refuse(limit):
            raise AssertionError(f"prime_counter({limit}) called")

        monkeypatch.setattr(generate, "prime_counter", refuse)
        with pytest.raises(ResourceCapError, match="sigma"):
            member_columns(DENSE2, 2**60, ("n", "sigma"))
        with pytest.raises(AssertionError, match="prime_counter"):
            member_columns(DENSE2, 2**60 - 1, ("n", "sigma"))

    def test_domain_error(self, monkeypatch):
        with pytest.raises(DomainError):
            member_columns(DENSE2, 0, ("n",))
        with pytest.raises(DomainError, match="x must be >= 1, got 0"):
            member_columns(DENSE2, 0, generate.MEMBER_COLUMNS)
        # An unknown column name is refused before any sieving.
        def refuse(limit):
            raise AssertionError(f"prime_counter({limit}) called")

        monkeypatch.setattr(generate, "prime_counter", refuse)
        with pytest.raises(ConfigurationError, match="'bogus'"):
            member_columns(DENSE2, 100, ("n", "bogus"))


class TestMemberChunks:
    """The rows of the collapsed walk and their expanded leaves, cut at
    n_min, against the reference records; the cell cap of member_columns."""

    @pytest.mark.parametrize("chunk", [5, generate._CHUNK])
    @pytest.mark.parametrize("x", [1330, 1331, 2196, 2197])  # 11^3, 13^3
    @pytest.mark.parametrize(
        "family", [*COLLAPSE_FAMILIES, INT64_UNSAFE], ids=_family_id
    )
    def test_multiset_matches_reference(self, monkeypatch, family, x, chunk):
        monkeypatch.setattr(generate, "_CHUNK", chunk)
        recs = list(iter_members(family, x))
        for n_min in (0, 1, x // 2, x - 1):
            want = Counter(
                (r.n, r.omega, r.big_omega, r.tau, r.sigma) for r in recs if r.n > n_min
            )
            got = Counter()
            for level, cols in generate._member_chunks(
                family, x, n_min, stats=True, sigma=True
            ):
                got.update(
                    (n, om, level, tau, sig)
                    for n, om, tau, sig in zip(
                        *(cols[k].tolist() for k in ("n", "omega", "tau", "sigma"))
                    )
                )
            assert got == want, n_min

    def test_member_columns_walks_collapsed(self, monkeypatch):
        # 16,598 rows for the practical family at 1e7 in each walk (one
        # sizes the columns, one fills them), against 829,157 when every
        # member is built.
        rows = []
        frontier = generate._frontier

        def counted(*args, **kwargs):
            primes, pi, blocks = frontier(*args, **kwargs)
            rows.append(0)

            def counting():
                for block in blocks:
                    rows[-1] += len(block[1]["n"])
                    yield block

            return primes, pi, counting()

        monkeypatch.setattr(generate, "_frontier", counted)
        (ns,) = member_columns(PRACTICAL, 10**7, ("n",))
        assert len(ns) == 829_157
        assert len(rows) == 2 and max(rows) <= 17_000

    def test_cell_cap(self, monkeypatch):
        # 91,472 members <= 10^6 fill five columns, their sort order and one
        # reordered column to exactly the cap; one cell less refuses them,
        # but not the 91,471 members above 1.
        names = generate.MEMBER_COLUMNS
        monkeypatch.setattr(generate, "_COLUMN_CELL_CAP", 7 * 91_472)
        assert len(member_columns(DENSE2, 10**6, names)[0]) == 91_472
        monkeypatch.setattr(generate, "_COLUMN_CELL_CAP", 7 * 91_472 - 1)
        with pytest.raises(ResourceCapError, match="cap"):
            member_columns(DENSE2, 10**6, names)
        assert len(member_columns(DENSE2, 10**6, names, n_min=1)[0]) == 91_471


class TestMoments:
    def test_histograms_consistent(self):
        s = collect_moments(PRACTICAL, 20_000)
        assert sum(s.histogram_omega.values()) == s.count
        assert sum(s.histogram_big_omega.values()) == s.count
        assert sum(k * v for k, v in s.histogram_omega.items()) == s.sum_omega
        assert sum(k * v for k, v in s.histogram_big_omega.items()) == s.sum_big_omega
        assert s.mean_big_omega >= s.mean_omega
        direct_var = (
            sum(k * k * v for k, v in s.histogram_omega.items()) / s.count
            - s.mean_omega**2
        )
        assert s.variance_omega == pytest.approx(direct_var, rel=1e-12)

    def test_exceedance_extremes(self):
        # A wide band flags nothing; a zero band at expected 0 flags every
        # member except n = 1 (the only member with no prime factor).
        s = collect_moments(DENSE2, 10_000)
        assert s.exceed_count(2.0, deviation_bound(10_000, 100.0)) == 0
        assert s.exceed_count(0.0, 0.0) == s.count - 1
        assert s.exceed_fraction(0.0, 0.0) == pytest.approx(1 - 1 / s.count)

    def test_matches_brute(self, table):
        s = collect_moments(DENSE52, 2000)
        stats = [
            factor_stats(factorize(rec.n, table))
            for rec in iter_members(DENSE52, 2000)
        ]
        assert s.count == len(stats)
        assert s.sum_omega == sum(st.omega for st in stats)
        assert s.sum_tau == sum(st.tau for st in stats)
        assert s.sum_log_tau == pytest.approx(
            sum(math.log(st.tau) for st in stats), rel=1e-12
        )

    def test_domain_error(self):
        with pytest.raises(DomainError, match="x must be >= 1, got 0"):
            collect_moments(DENSE2, 0)


class TestDivisorCounts:
    """The (n, tau) columns of member_columns."""

    def test_ascending_and_exact(self, table):
        ns, taus = member_columns(DENSE2, 10_000, ("n", "tau"))
        assert ns[0] == 1 and taus[0] == 1
        assert np.all(np.diff(ns) > 0)
        for n, tau in zip(ns.tolist(), taus.tolist()):
            assert factor_stats(factorize(n, table)).tau == tau

    def test_n_min_filter(self):
        full_n, full_tau = member_columns(PRACTICAL, 5000, ("n", "tau"))
        tail_n, tail_tau = member_columns(PRACTICAL, 5000, ("n", "tau"), n_min=100)
        assert np.all(tail_n > 100)
        keep = full_n > 100
        assert np.array_equal(tail_n, full_n[keep])
        assert np.array_equal(tail_tau, full_tau[keep])

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            member_columns(DENSE2, 0, ("n", "tau"))
        with pytest.raises(DomainError):
            member_columns(DENSE2, 100, ("n", "tau"), n_min=-1)


class TestDeviationBound:
    def test_formula(self):
        x = 10**6
        assert deviation_bound(x, 4.0) == pytest.approx(
            4.0 * math.sqrt(math.log(math.log(x)))
        )

    def test_clamped_small_x(self):
        # ln ln 2 < 0: the bound clamps at zero rather than going imaginary.
        assert deviation_bound(2, 4.0) == 0.0
        assert deviation_bound(10**6, 0.0) == 0.0
