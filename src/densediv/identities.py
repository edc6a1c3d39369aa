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
floor-quotient prime count table; with one they run the reference loop of
rough_count over iter_members.

The weighted analogues replace counting with Dirichlet-type weights

    weight(n, s)     = n^{-s} * prod_{p <= theta(n)} (1 - p^{-s})
    log_moment(n, s) = sum_{p <= theta(n)} ln p / (p^s - 1) - ln n

for members n; the weights sum to 1 over the full (infinite) member set,
the weight * log_moment series sums to 0, and the log moment approaches
``ln t - gamma`` for the fixed-ratio family.  Finite truncations of these
series are checked as trends, not equalities.  Their members are
gathered as member_columns gathers its columns, and their primes come
from one sieve capped at PRIME_SIEVE_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (
    PRIME_SIEVE_CAP,
    ROUGH_COUNTS_CAP,
    SpfTable,
    check_sieve_bound,
    factor_stats,
    factorize,
    is_prime,
    rough_count,
    rough_counts,
    sieve_primes,
)
from .constants import EULER_GAMMA
from .errors import ConfigurationError, DomainError, ResourceCapError, SieveRangeError
from .families import ThetaFamily, is_member
from .generate import (
    _frontier,
    _gather_sorted,
    _member_chunks,
    _prime_limit,
    _tally_counts,
    _theta_at_most,
    iter_members,
)

__all__ = [
    "SeriesTerm",
    "CheckResult",
    "series_term",
    "check_partition_identity",
    "check_shifted_partition_identity",
    "weight_series_partial_sum",
    "check_weight_shift",
    "weighted_log_moment_sum",
    "log_moment_gap",
]


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
    ``ln p / (p^s - 1)`` (index 0 = empty product/sum).
    """
    pf = primes.astype(np.float64)
    ps = pf**s
    prod_pad = np.concatenate(([1.0], np.cumprod(1.0 - 1.0 / ps)))
    mu_pad = np.concatenate(([0.0], np.cumsum(np.log(pf) / (ps - 1.0))))
    return prod_pad, mu_pad


def _member_arrays(family: ThetaFamily, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """int64 (n, threshold_floor) arrays over members n <= limit, ascending
    in n, gathered as member_columns gathers (_gather_sorted).  Each chunk's
    thresholds pass check_sieve_bound before they are formed, so an
    over-scale walk stops early."""
    # The walk sieves primes up to _prime_limit, below the threshold of the
    # member 2^k <= limit near the cap: this refuses only what the loop would.
    check_sieve_bound(_prime_limit(family, limit), "prime bound")

    def chunks():
        # The practical threshold reads sigma, of the leaves too.
        practical = family.kind == "practical"
        for level, chunk in _member_chunks(family, limit, sigma=practical):
            n, sigma = chunk["n"], chunk.get("sigma")
            # threshold_floor is nondecreasing in n and in sigma, so this is
            # the chunk's largest threshold, exact in Python ints.
            top = family.threshold_floor(
                int(n.max()), None if sigma is None else int(sigma.max())
            )
            check_sieve_bound(top, "threshold")
            yield level, {"n": n, "theta": _theta_at_most(family, n, sigma, top)}

    m = 1 << (limit.bit_length() - 1)
    if family.threshold_floor(m, 2 * m - 1) > PRIME_SIEVE_CAP:
        # The chunk of the member m = 2^k <= limit is refused: walk up to it
        # with no sizing walk, so the sieve cap, not the cell cap, refuses.
        for _ in chunks():
            pass
    return _gather_sorted(family, limit, 0, ("n", "theta"), chunks())


def _member_weights(
    family: ThetaFamily, s: float, limit: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(n, threshold_floor, weight, log_moment) over members n <= limit,
    ascending in n, with the primes sieved up to the largest threshold."""
    n_arr, thr_arr = _member_arrays(family, limit)
    primes = sieve_primes(int(thr_arr.max()), "threshold")
    prod_pad, mu_pad = _prime_weight_arrays(s, primes)
    idx = np.searchsorted(primes, thr_arr, side="right")
    n_float = n_arr.astype(np.float64)
    weights = n_float ** (-s) * prod_pad[idx]
    return n_arr, thr_arr, weights, mu_pad[idx] - np.log(n_float)


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
    member that q divides, built or not, at Phi = 1; the built rows with
    theta(n) < theta_min are taken back, and those with theta(n) < x // n
    add Phi - 1.  Each such x // n is a floor quotient of x, and one
    rough_counts table answers them all.  Theta is taken at most
    max(x // n, theta_min) (_theta_at_most), which keeps it in int64 and
    leaves both comparisons exact.

    The theta filter passes every unbuilt leaf when x >= theta_min^2: a
    member with theta(n) < theta_min has n < theta(n) < theta_min, while
    an unbuilt leaf L whose last factor is the prime p <= L has L*p > x,
    so L > sqrt(x) >= theta_min.  Below that the sum reads
    ``_member_chunks``, which builds every member, and filters each one.
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
    if x >= theta_min**2:
        primes, blocks = _frontier(family, x)
    else:  # the theta filter may drop a leaf: build each member, leafless
        blocks = ((0, c, None, None) for _, c in _member_chunks(family, x, sigma=True))
    total = [0]
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    for _, blk, mid, hi in blocks:
        n = blk["n"]
        quot = x // n
        theta = _theta_at_most(
            family, n, blk.get("sigma"), np.maximum(quot, theta_min)
        )
        keep = n % q == 0
        if mid is None:
            total[0] += int(np.count_nonzero(keep))
        else:
            _tally_counts(total, [(0, q)], primes, n, mid, hi)
        total[0] -= int(np.count_nonzero(keep & (theta < theta_min)))
        low = keep & (theta >= theta_min) & (theta < quot)
        xs.append(quot[low])
        ys.append(theta[low])
    quot = np.concatenate(xs)
    theta = np.concatenate(ys)
    return total[0] + int(rough_counts(x, quot, theta).sum()) - len(quot)


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
    return float(np.sum(_member_weights(family, s, limit)[2]))


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
    n_arr, thr_arr, w, _ = _member_weights(family, s, limit)
    lhs = float(np.sum(w[n_arr % q_all == 0]))
    keep = (thr_arr >= q_last) & (n_arr % q_rest == 0)
    rhs = float(q_last) ** (-s) * float(np.sum(w[keep]))
    return CheckResult("weight_shift", lhs, rhs, abs(lhs - rhs), True)


def weighted_log_moment_sum(family: ThetaFamily, s: float, limit: int) -> float:
    """Truncated sum of weight * log_moment over members up to the limit.

    The full series sums to exactly 0; the magnitude of the truncated sum
    shrinks as the limit grows.  The primes are sieved as in
    weight_series_partial_sum.
    """
    _validate_s(s, limit)
    _, _, weights, moments = _member_weights(family, s, limit)
    return float(np.sum(weights * moments))


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
    primes = sieve_primes(thr, "n*t").astype(np.float64)
    mu = float(np.sum(np.log(primes) / (primes - 1.0))) - math.log(n)
    target = math.log(t.numerator / t.denominator) - EULER_GAMMA
    return abs(mu - target)
