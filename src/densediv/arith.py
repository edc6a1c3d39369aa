"""Integer substrate: smallest-prime-factor table, factorization,
multiplicative statistics, the divisor-ratio bound F, and the exact
rough-number counter.

Everything here is exact integer arithmetic (Python integers do not
overflow); floats appear only in explicitly approximate helpers elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, ResourceCapError, SieveRangeError

# Largest x for rough_counts: its floor-quotient tables take O(sqrt(x))
# memory (16 MB at the cap) and its sieve O(x^{3/4}) time.
ROUGH_COUNTS_CAP = 10**12

# Largest prime bound (check_sieve_bound) of the odd-number sieve of the
# weight series, Mertens products and phi-scan.  The weight series at the
# cap (dense t=2, N = 1.5e8) peak near 450 MB RSS, set by prefix arrays.
PRIME_SIEVE_CAP = 3 * 10**8

# Largest limit of an int32 SpfTable, and largest prime bound of a frontier
# walk (one byte per odd number sieved: 1 GB at the cap).
SIEVE_LIMIT_CAP = 2**31

# Witness set making Miller-Rabin deterministic for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class SpfTable:
    """Smallest-prime-factor table for 2..limit.

    spf[n] is the smallest prime dividing n (0 for n < 2); primes is the
    ascending array of all primes <= limit, derived once at build time.
    """

    limit: int
    spf: np.ndarray
    primes: np.ndarray

    def __post_init__(self) -> None:
        if self.limit < 2:
            raise ConfigurationError(f"table limit must be >= 2, got {self.limit}")


def build_spf_table(limit: int) -> SpfTable:
    """Sieve smallest prime factors for all n <= limit.

    Parameters
    ----------
    limit : int
        Largest n covered; 2 <= limit <= SIEVE_LIMIT_CAP.
    """
    if not 2 <= limit <= SIEVE_LIMIT_CAP:
        raise ConfigurationError(f"sieve limit must be in [2, 2^31], got {limit}")
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    # Entries still zero after the sieve are exactly the primes.
    primes = np.flatnonzero(spf[2:] == 0) + 2
    spf[primes] = primes
    return SpfTable(limit=limit, spf=spf, primes=primes)


def prime_counter(limit: int) -> tuple[np.ndarray, Callable]:
    """(primes, pi) from one sieve of the odd numbers <= limit, a byte each.

    primes is the ascending int64 array of the primes <= limit, read off
    the flags in one array, with the slot of 1 standing for the prime 2.
    pi(v) equals np.searchsorted(primes, v, "right") for int64 v, an array
    or a scalar, so pi(limit) above the limit.  Its words are the flags
    packed: bit b of word w marks 128*w + 2*b + 1 as prime, before[w]
    counts the odd primes below word w, and pi(v) adds the bits of v's word
    up to v (np.bitwise_count) and the prime 2; limit/8 bytes in all.
    Raises ResourceCapError if the sieve or the primes cannot be allocated.
    """
    try:
        flags = np.zeros(64 * (limit // 128 + 1), dtype=bool)
        flags[1 : (limit + 1) // 2] = True  # the odd numbers 3..limit
        for p in range(3, math.isqrt(limit) + 1, 2):
            if flags[p >> 1]:
                flags[p * p >> 1 :: p] = False
        words = np.packbits(flags, bitorder="little").view("<u8")
        flags[0] = limit >= 2  # the slot of 1 reads as the prime 2, unpacked
        primes = np.flatnonzero(flags)
        del flags
        before = np.cumsum(np.bitwise_count(words), dtype=np.int64)
    except MemoryError:
        raise ResourceCapError(
            f"out of memory sieving the primes up to {limit} (the sieve of "
            f"the odd numbers alone asks for {64 * (limit // 128 + 1)} bytes)"
        ) from None
    primes <<= 1
    primes += 1
    primes[:1] = 2
    before -= np.bitwise_count(words)
    top = max(limit - 1, 0)

    def pi(v):
        # In place, and each name rebound once its array is spent, so that
        # at most three arrays of len(v) are live besides v.
        k = np.minimum(np.maximum(v - 1, 0), top)  # np.clip's wrapper is slower
        two = k > 0  # the prime 2 counts once 2 <= v and 2 <= limit
        k >>= 1  # the odd integer 2k + 1 <= min(v, limit), or 1
        w = k >> 6
        k &= 63
        k ^= 63  # 63 - (k & 63)
        out = words[w]
        out <<= k.view(np.uint64)  # the bits <= 2k + 1
        k = np.bitwise_count(out)
        out = before[w]
        out += k
        out += two
        return out

    return primes, pi


def primes_up_to(limit: int) -> np.ndarray:
    """Ascending array (int64) of all primes <= limit; empty for limit < 2."""
    return prime_counter(limit)[0]


def check_sieve_bound(bound, what: str) -> None:
    """Refuse a prime bound past PRIME_SIEVE_CAP (ResourceCapError)."""
    if bound > PRIME_SIEVE_CAP:
        raise ResourceCapError(
            f"{what}={bound} exceeds the prime-sieve cap {PRIME_SIEVE_CAP}"
        )


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimePowerFactorization:
    """n as an ascending tuple of (prime, exponent) pairs; empty for n = 1."""

    n: int
    factors: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class FactorStats:
    """Multiplicative statistics of one integer.

    omega/big_omega count distinct/with-multiplicity prime factors; tau and
    sigma are the divisor count and divisor sum; p_max is 1 for n = 1.
    """

    omega: int
    big_omega: int
    tau: int
    sigma: int
    p_max: int


def factorize(n: int, table: SpfTable) -> PrimePowerFactorization:
    """Factor n using the smallest-prime-factor table (1 <= n <= limit)."""
    if n < 1:
        raise SieveRangeError(f"n must be positive, got {n}")
    if n > table.limit:
        raise SieveRangeError(f"n={n} exceeds table limit {table.limit}")
    factors: list[tuple[int, int]] = []
    spf = table.spf
    m = n
    while m > 1:
        p = int(spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    return PrimePowerFactorization(n=n, factors=tuple(factors))


def factor_stats(f: PrimePowerFactorization) -> FactorStats:
    """Exact omega, big-omega, tau, sigma and largest prime factor of f.n."""
    omega = len(f.factors)
    big_omega = 0
    tau = 1
    sigma = 1
    for p, e in f.factors:
        big_omega += e
        tau *= e + 1
        sigma *= (p ** (e + 1) - 1) // (p - 1)
    p_max = f.factors[-1][0] if f.factors else 1
    return FactorStats(
        omega=omega, big_omega=big_omega, tau=tau, sigma=sigma, p_max=p_max
    )


def divisor_ratio_bound(f: PrimePowerFactorization) -> int:
    """The functional F(n) = max over j of p_j^2 * p_{j+1} * ... * p_k, with
    the prime factors listed ascending with multiplicity.

    F(n)/n equals the largest ratio of consecutive divisors of n, so n has
    all divisor ratios <= t exactly when F(n) <= n*t.  F(1) = 1 (empty max).
    """
    best = 1
    suffix = 1
    for p, e in reversed(f.factors):
        for _ in range(e):
            cand = p * p * suffix
            if cand > best:
                best = cand
            suffix *= p
    return best


def rough_count(x, y, table: SpfTable) -> int:
    """Count integers in [1, x] with no prime factor <= y.

    Exactly 1_{x>=1} + #{2 <= n <= x : smallest prime factor of n > y}.
    x and y may be int, Fraction, or float; comparisons are exact through
    floors (the counted quantities are integers).
    """
    X = math.floor(x)
    if X < 1:
        return 0
    if X > table.limit:
        raise SieveRangeError(f"x={x} exceeds table limit {table.limit}")
    Y = math.floor(y) if y > 0 else 0
    if Y >= X:
        return 1  # every n in [2, X] has a prime factor <= X <= Y
    if Y < 2:
        return X  # every n >= 2 has smallest prime factor >= 2 > Y; n = 1 counts too
    if Y >= table.limit:
        Y = table.limit  # spf values never exceed limit
    return 1 + int(np.count_nonzero(table.spf[2 : X + 1] > Y))


def rough_counts(x: int, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Vectorised rough_count: the int64 array Phi(X_i, Y_i) of counts of
    integers in [1, X_i] with no prime factor <= Y_i, for X_i in {x // k}.

    One Lucy_Hedgehog sieve runs over the floor quotients v of x.  After
    stage k (primes p_1..p_k struck out) S_k[v] counts the integers in
    [2, v] that are prime or have smallest prime factor > p_k, so for
    Y < X and k = pi(Y)

        Phi(X, Y) - 1 = S_k[X] - pi(Y),

    and S_k[X] stops changing once p_k >= sqrt(x).  Each query is read at
    stage pi(min(Y, sqrt(x))), in one sweep with the queries sorted by
    stage.  Y >= X gives 1 and X < 1 gives 0.  O(x^{3/4}) time; memory is
    O(sqrt(x)) for the tables plus one odd-number sieve (prime_counter) up
    to max(sqrt(x), Y_i) over the queries with Y_i < X_i, whose primes and
    pi words give the sieving primes, pi(Y) and the stage count pi(sqrt(x)).
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if x > ROUGH_COUNTS_CAP:
        raise ResourceCapError(f"x={x} exceeds the rough-count cap {ROUGH_COUNTS_CAP}")
    X = np.asarray(X, dtype=np.int64)
    Y = np.asarray(Y, dtype=np.int64)
    out = (X >= 1).astype(np.int64)
    ask = np.flatnonzero((X >= 1) & (Y < X))
    if len(ask) == 0:
        return out
    Xa, Ya = X[ask], Y[ask]
    r = math.isqrt(x)
    if int(Xa.max()) > x or np.any(x // (x // Xa) != Xa):
        raise DomainError(f"every X must be a floor quotient x // k of x={x}")
    limit = max(r, int(Ya.max()))
    primes, pi = prime_counter(limit)
    pi_y = pi(Ya)
    n_sieve = int(pi(r))
    stage = np.minimum(pi_y, n_sieve)
    order = np.argsort(stage, kind="stable")
    starts = np.searchsorted(stage[order], np.arange(n_sieve + 2))

    # small[v] = S(v) for v <= r; large[k - 1] = S(x // k) for x // k > r.
    small = np.arange(-1, r, dtype=np.int64)
    n_large = x // (r + 1)
    large = x // np.arange(1, n_large + 1, dtype=np.int64) - 1
    for k in range(n_sieve + 1):
        sel = order[starts[k] : starts[k + 1]]
        if len(sel):
            v = Xa[sel]
            is_small = v <= r
            s = np.empty(len(v), dtype=np.int64)
            s[is_small] = small[v[is_small]]
            s[~is_small] = large[x // v[~is_small] - 1]
            out[ask[sel]] = 1 + s - pi_y[sel]
        if k == n_sieve:
            break
        p = int(primes[k])
        sp = k  # S(p - 1): the primes below p
        p2 = p * p
        # S(v) -= S(v // p) - S(p - 1) for every v >= p^2, large first
        # because it reads small; each right side is read before writing.
        top = min(n_large, x // p2)
        mid = min(top, n_large // p)
        large[:mid] -= large[p - 1 : mid * p : p] - sp
        if top > mid:
            d = np.arange(mid + 1, top + 1, dtype=np.int64) * p
            large[mid:top] -= small[x // d] - sp
        if p2 <= r:
            small[p2:] -= small[np.arange(p2, r + 1) // p] - sp
    return out
