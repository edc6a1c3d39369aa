"""Exact combinatorial identities and convergence checks over member sets.

The strongest correctness oracle in the package: a two-sided counting
argument shows that for every chain-condition family and every real x >= 1,

    sum over members n of  Phi(x/n, theta(n))  =  floor(x)        (partition)

where Phi is the rough-number count -- every integer up to x factors
uniquely as (member) * (rough part).  A shifted variant equates divisor-
filtered sums on both sides.  Both are exact integer equalities at every
finite x, so they validate the enumerator, the threshold arithmetic, and
the rough-count sieve against each other with zero tolerance.  Without a
table both sums run over the leaf-collapsed frontier and one
floor-quotient prime count table, and a short member walk below the
shifted side's theta bound takes back the members under it; with one they
run the reference loop of rough_count over iter_members.

The weighted analogues replace counting with Dirichlet-type weights

    weight(n, s)     = n^{-s} * prod_{p <= theta(n)} (1 - p^{-s})
    log_moment(n, s) = sum_{p <= theta(n)} ln p / (p^s - 1) - ln n

for members n; the weights sum to 1 over the full (infinite) member set,
the weight * log_moment series sums to 0, and the log moment approaches
``ln t - gamma`` for the fixed-ratio family.  Finite truncations of these
series are checked as trends, not equalities.  They stream unsorted
member chunks, summed by the exactly rounded math.fsum, and their primes
come from one sieve capped at PRIME_SIEVE_CAP.  A limit whose member 2^k
already has its threshold past that cap is refused before any walk;
otherwise a first walk finds the largest threshold, and a refusal names
that one, whatever the order of the chunks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .arith import (
    ROUGH_COUNTS_CAP,
    SpfTable,
    check_sieve_bound,
    factor_stats,
    factorize,
    is_prime,
    prime_counter,
    primes_up_to,
    rough_count,
    rough_counts,
)
from .constants import EULER_GAMMA
from .errors import ConfigurationError, DomainError, ResourceCapError, SieveRangeError
from .families import ThetaFamily, is_member
from .generate import (
    _frontier,
    _member_chunks,
    _tally_counts,
    _theta_at_most,
    iter_members,
)


@dataclass(frozen=True)
class SeriesTerm:
    """Weight and log moment of a single integer at exponent s.

    ``weight`` is 0 for non-members (the membership indicator multiplies
    the product); ``log_moment`` is evaluated from the definition whether
    or not n is a member.
    """

    n: int
    weight: float
    log_moment: float
    s: float


@dataclass(frozen=True)
class CheckResult:
    """Two sides of one identity check plus the verdict.

    For the exact integer identities ``passed`` means lhs == rhs with zero
    tolerance; for truncated-series checks the result is report-only and
    ``passed`` is always True (the interesting output is ``gap``).
    """

    name: str
    lhs: float
    rhs: float
    gap: float
    passed: bool


def _validate_s(s: float, limit: int = 1) -> None:
    if not s >= 1.0:
        raise DomainError(f"series exponent s must be >= 1, got {s}")
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")


def _validate_qs(qs: list[int]) -> None:
    if not qs:
        raise ConfigurationError("qs must be nonempty")
    if any(not is_prime(q) for q in qs):
        raise ConfigurationError(f"every q must be prime, got {qs}")
    if list(qs) != sorted(qs):
        raise ConfigurationError(f"qs must be ascending, got {qs}")


def _prime_weight_arrays(
    s: float, primes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Prefix arrays over ascending primes for O(1) per-member lookups.

    Returns (prod_pad, mu_pad) where prod_pad[k] is the product of
    ``1 - p^{-s}`` over the first k primes and mu_pad[k] the prefix sum of
    ``ln p / (p^s - 1)`` (index 0 = empty product/sum).  Both are built in
    place with no temporary array: p^s is formed twice instead.
    """
    prod_pad, mu_pad = np.ones(len(primes) + 1), np.zeros(len(primes) + 1)
    ps, mu = prod_pad[1:], mu_pad[1:]
    s = float(s)  # p^s in floats, as the int64 power would overflow
    # p^s past the float range is inf, the exact limit: 1/inf = 0 here.
    with np.errstate(over="ignore"):
        np.power(primes, s, out=ps)
        np.divide(np.log(primes, out=mu), np.subtract(ps, 1.0, out=ps), out=mu)
        np.power(primes, s, out=ps)
    np.cumsum(mu, out=mu)
    np.cumprod(np.subtract(1.0, np.divide(1.0, ps, out=ps), out=ps), out=ps)
    return prod_pad, mu_pad


def _weight_chunks(family: ThetaFamily, s: float, limit: int) -> Iterator[tuple]:
    """(n, threshold_floor, weight, log_moment) arrays over the members
    n <= limit, one unsorted _member_chunks chunk at a time.

    The member m = 2^k <= limit (2 <= theta(1) for every rule) is checked
    before any sieve or walk.  That bounds the limit below 2^29, so a
    first walk always finishes quickly and finds the largest threshold,
    whatever the chunk order; check_sieve_bound refuses it past the cap,
    by its exact value.  Else one odd-number sieve (prime_counter) up to
    it gives the primes and their pi words, and a second walk yields the
    terms."""
    m = 1 << (limit.bit_length() - 1)
    check_sieve_bound(family.threshold_floor(m, 2 * m - 1), "threshold")
    # The practical threshold reads sigma, of the leaves too.
    sigma = family.kind == "practical"
    top = 0
    for _, chunk in _member_chunks(family, limit, sigma=sigma):
        # threshold_floor is nondecreasing in n and in sigma, so this is
        # the chunk's largest threshold, exact in Python ints.
        sig = int(chunk["sigma"].max()) if sigma else None
        top = max(top, family.threshold_floor(int(chunk["n"].max()), sig))
    check_sieve_bound(top, "threshold")
    primes, pi = prime_counter(top)
    prod_pad, mu_pad = _prime_weight_arrays(s, primes)
    for _, chunk in _member_chunks(family, limit, sigma=sigma):
        n = chunk["n"]
        theta = _theta_at_most(family, n, chunk.get("sigma"), top)
        idx = pi(theta)
        n_float = n.astype(np.float64)
        yield n, theta, n_float ** (-s) * prod_pad[idx], mu_pad[idx] - np.log(n_float)


def _fsum(parts: Iterable[np.ndarray]) -> float:
    """Exactly rounded sum of the entries of the arrays, in any order."""
    return math.fsum(itertools.chain.from_iterable(p.tolist() for p in parts))


def series_term(
    n: int, family: ThetaFamily, s: float, table: SpfTable
) -> SeriesTerm:
    """Weight and log moment of one integer n, factored with the table and
    weighted over the table's primes <= theta(n).

    Raises
    ------
    DomainError
        If n < 1 or s < 1.
    SieveRangeError
        If theta(n) exceeds the sieve limit.
    """
    _validate_s(s)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    sigma = factor_stats(factorize(n, table)).sigma
    thr = family.threshold_floor(n, sigma)
    if thr > table.limit:
        raise SieveRangeError(f"threshold={thr} exceeds sieve limit {table.limit}")
    primes = table.primes[: np.searchsorted(table.primes, thr, side="right")]
    prod_pad, mu_pad = _prime_weight_arrays(s, primes)
    weight = float(n) ** (-s) * float(prod_pad[-1])
    if not is_member(n, family, table):
        weight = 0.0
    log_moment = float(mu_pad[-1]) - math.log(n)
    return SeriesTerm(n=n, weight=weight, log_moment=log_moment, s=s)


def _rough_sum(
    family: ThetaFamily, x: int, q: int, table: SpfTable | None, theta_min: int = 0
) -> int:
    """Sum of Phi(x // n, theta(n)) over the members n <= x with q | n and
    theta(n) >= theta_min.

    With a table this is the reference loop of ``rough_count`` over
    ``iter_members``.  Without one (x <= 10^12, else ResourceCapError) it
    runs over the leaf-collapsed frontier, whose unbuilt leaves all have
    Phi = 1: a leaf L = n*p has p <= theta(n) <= theta(L) and
    p^2 > x // n, hence x // L < p.  _tally_counts therefore counts every
    member that q divides, built or not, at Phi = 1, and the built rows
    with theta_min <= theta(n) < x // n add Phi - 1.  Each such x // n is
    a floor quotient of x, and one rough_counts table answers them all.
    Theta is taken at most max(x // n, theta_min) (_theta_at_most), which
    keeps it in int64 and leaves both comparisons exact.

    Every rule has theta(n) >= n + 1, so each member with
    theta(n) < theta_min, leaf or row, is below theta_min, and one short
    ``_member_chunks`` walk to min(x, theta_min) takes those back.  On the
    shifted identity's right side that limit, min(x // q_k, q_k), is at
    most the square root of the left side's x, so at most 10^6; with
    theta_min <= 2 (phi0 and every left side) no walk starts.
    """
    if table is None and x > ROUGH_COUNTS_CAP:
        raise ResourceCapError(f"x={x} exceeds the identity cap {ROUGH_COUNTS_CAP}")
    if q > x:
        return 0
    if table is not None:
        total = 0
        for rec in iter_members(family, x):
            thr = family.threshold_floor(rec.n, rec.sigma)
            if rec.n % q == 0 and thr >= theta_min:
                total += rough_count(x // rec.n, thr, table)
        return total
    primes, pi, blocks = _frontier(family, x)
    total = 0
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    for _, blk, mid, hi in blocks:
        n = blk["n"]
        quot = x // n
        theta = _theta_at_most(
            family, n, blk.get("sigma"), np.maximum(quot, theta_min)
        )
        total += _tally_counts(q, primes, pi, n, mid, hi)
        low = (n % q == 0) & (theta >= theta_min) & (theta < quot)
        xs.append(quot[low])
        ys.append(theta[low])
    if theta_min > 2:
        for _, chunk in _member_chunks(family, min(x, theta_min), sigma=True):
            n = chunk["n"]
            theta = _theta_at_most(family, n, chunk["sigma"], theta_min)
            total -= int(np.count_nonzero((n % q == 0) & (theta < theta_min)))
    quot = np.concatenate(xs)
    theta = np.concatenate(ys)
    return total + int(rough_counts(x, quot, theta).sum()) - len(quot)


def check_partition_identity(
    family: ThetaFamily, x: int, table: SpfTable | None = None
) -> CheckResult:
    """Exact check: member-wise rough counts partition the integers up to x.

    lhs sums ``rough_count(x // n, theta_floor(n))`` over members n <= x;
    rhs is x.  Equality is exact -- any mismatch indicates a bug in the
    enumerator, the thresholds, or the sieve.

    Without a table (x <= 10^12) the sum runs over the leaf-collapsed
    frontier with floor-quotient prime counts and no size-x sieve; a prime
    bound past 2^31 is refused (ResourceCapError) before any sieving.  With a
    table it is the reference loop of ``rough_count`` over ``iter_members``.
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    lhs = _rough_sum(family, x, 1, table)
    return CheckResult("partition", lhs, x, abs(lhs - x), lhs == x)


def check_shifted_partition_identity(
    family: ThetaFamily, x: int, qs: list[int], table: SpfTable | None = None
) -> CheckResult:
    """Exact check of the divisor-shifted partition identity.

    With primes q_1 <= ... <= q_k (repeats allowed) and Q their product:

        lhs = sum over members n <= x with Q | n of
                rough_count(x // n, theta_floor(n))
        rhs = sum over members n <= x // q_k with theta(n) >= q_k and
                (Q / q_k) | n of rough_count(x // (n q_k), theta_floor(n))

    Both sides count the same multiples, grouped differently; equality is
    exact at every x.  The table selects the path as in
    ``check_partition_identity``; x // (n q_k) is taken as (x // q_k) // n.
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    _validate_qs(qs)
    q_all = math.prod(qs)
    q_last = qs[-1]
    lhs = _rough_sum(family, x, q_all, table)
    rhs = _rough_sum(family, x // q_last, q_all // q_last, table, theta_min=q_last)
    return CheckResult("shifted_partition", lhs, rhs, abs(lhs - rhs), lhs == rhs)


def weight_series_partial_sum(family: ThetaFamily, s: float, limit: int) -> float:
    """Partial sum of member weights up to the truncation limit.

    The full series sums to exactly 1; the partial sum is nondecreasing in
    the limit and approaches 1 from below (tail roughly proportional to
    1/ln(limit) at s = 1).  The primes are sieved up to the largest member
    threshold, at most PRIME_SIEVE_CAP (ResourceCapError).
    """
    _validate_s(s, limit)
    return _fsum(w for _, _, w, _ in _weight_chunks(family, s, limit))


def check_weight_shift(
    family: ThetaFamily, s: float, limit: int, qs: list[int]
) -> CheckResult:
    """Truncated check of the divisor-shift relation for the weight series.

    The infinite identity states: the sum of weights over members divisible
    by q_1*...*q_k equals ``q_k^{-s}`` times the sum over members with
    theta(n) >= q_k divisible by q_1*...*q_{k-1}.  Both sides are truncated
    at the same limit here, so the result is a shrinking gap, not an exact
    equality; ``passed`` is always True (report-only).  The primes are
    sieved as in weight_series_partial_sum.
    """
    _validate_s(s, limit)
    _validate_qs(qs)
    q_all = math.prod(qs)
    q_last = qs[-1]
    q_rest = q_all // q_last
    lhs, rhs = [], []
    for n, thr, w, _ in _weight_chunks(family, s, limit):
        lhs.append(w[n % q_all == 0])
        rhs.append(w[(thr >= q_last) & (n % q_rest == 0)])
    lhs, rhs = _fsum(lhs), float(q_last) ** (-s) * _fsum(rhs)
    return CheckResult("weight_shift", lhs, rhs, abs(lhs - rhs), True)


def weighted_log_moment_sum(family: ThetaFamily, s: float, limit: int) -> float:
    """Truncated sum of weight * log_moment over members up to the limit.

    The full series sums to exactly 0; the magnitude of the truncated sum
    shrinks as the limit grows.  The primes are sieved as in
    weight_series_partial_sum.
    """
    _validate_s(s, limit)
    return _fsum(w * mu for _, _, w, mu in _weight_chunks(family, s, limit))


def log_moment_gap(n: int, t: Fraction) -> float:
    """Distance of the fixed-ratio log moment from its limit ``ln t - gamma``.

    Evaluates ``|mu_n - (ln t - gamma)|`` at s = 1, where
    ``mu_n = sum_{p <= n t} ln p/(p - 1) - ln n``.  The gap shrinks roughly
    like ``exp(-sqrt(ln(n t)))`` as n grows.

    The primes up to n*t are sieved afresh.

    Raises
    ------
    ResourceCapError
        If n*t exceeds PRIME_SIEVE_CAP.
    """
    t = Fraction(t)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if t < 2:
        raise DomainError(f"t must be >= 2, got {t}")
    thr = n * t.numerator // t.denominator
    check_sieve_bound(thr, "n*t")
    primes = primes_up_to(thr).astype(np.float64)
    mu = float(np.sum(np.log(primes) / (primes - 1.0))) - math.log(n)
    target = math.log(t.numerator / t.denominator) - EULER_GAMMA
    return abs(mu - target)
