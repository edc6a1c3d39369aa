"""Threshold-rule families and exact membership predicates.

A family is a rule theta mapping n to a prime bound; an integer
n = p1^a1 * ... * pk^ak (p1 < ... < pk) is a member when every prime
satisfies p_i <= theta(p1^a1 * ... * p_{i-1}^a_{i-1}), with n = 1 always a
member.  Supported rules:

- dense(t):    theta(n) = n*t for an exact rational t >= 2; members are the
               integers whose consecutive divisors never jump by more than t.
- practical:   theta(n) = sigma(n) + 1; members are the practical numbers
               (every m <= n is a sum of distinct divisors of n).
- shifted1/2:  theta(n) = n+1 / n+2 (sandwich bounds used by experiments).

t is carried as a reduced fraction and all comparisons cross-multiply in
exact integer arithmetic; the boundary case p = n*t occurs (e.g. 2 = 1*2)
and float rounding would corrupt membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import ConfigurationError, DomainError, ResourceCapError

# arith (and numpy with it) loads only in the two oracles that factor, so
# the CLI can parse a family before numpy is imported.
if TYPE_CHECKING:
    from .arith import SpfTable

FAMILY_KINDS = ("dense", "practical", "shifted1", "shifted2")

# Subset-sum oracle scale cap (exhaustive bitset reachability).
SUBSET_SUM_CAP = 10**6


def parse_t(text: str) -> Fraction:
    """Parse an integer, num/den, or decimal string into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"cannot parse ratio bound t from {text!r}") from exc


@dataclass(frozen=True)
class ThetaFamily:
    """One threshold rule; immutable and safely shareable."""

    kind: str
    t_num: int = 0
    t_den: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ConfigurationError(f"unknown family kind {self.kind!r}")
        if self.kind == "dense":
            if self.t_den < 1 or self.t_num < 2 * self.t_den:
                raise ConfigurationError(
                    f"dense ratio bound must satisfy t >= 2, got {self.t_num}/{self.t_den}"
                )
            g = math.gcd(self.t_num, self.t_den)
            if g != 1:
                raise ConfigurationError(
                    f"t must be gcd-reduced, got {self.t_num}/{self.t_den}"
                )
        elif (self.t_num, self.t_den) != (0, 1):
            raise ConfigurationError(f"family {self.kind!r} takes no ratio bound t")

    @classmethod
    def dense(cls, t: Fraction | int | str) -> "ThetaFamily":
        frac = t if isinstance(t, Fraction) else parse_t(str(t))
        return cls(kind="dense", t_num=frac.numerator, t_den=frac.denominator)

    @classmethod
    def practical(cls) -> "ThetaFamily":
        return cls(kind="practical")

    @classmethod
    def shifted_one(cls) -> "ThetaFamily":
        return cls(kind="shifted1")

    @classmethod
    def shifted_two(cls) -> "ThetaFamily":
        return cls(kind="shifted2")

    @property
    def t(self) -> Fraction:
        if self.kind != "dense":
            raise DomainError(f"family {self.kind!r} has no ratio bound t")
        return Fraction(self.t_num, self.t_den)

    @property
    def t_float(self) -> float:
        """t as the nearest float (0.0 for the families without t); a t past
        the float range raises DomainError."""
        try:
            return self.t_num / self.t_den
        except OverflowError:
            raise DomainError("ratio bound t exceeds the float range") from None

    # -- exact threshold comparisons ------------------------------------

    def threshold_floor(self, n: int, sigma_n: int) -> int:
        """floor(theta(n)); a prime p is allowed iff p <= this value.

        Also applies elementwise to arrays n and sigma_n (sigma_n is read
        only by the practical rule and may be None otherwise): int64 ones
        where n*t_num fits in int64, object (Python int) ones otherwise.
        """
        if self.kind == "dense":
            return n * self.t_num // self.t_den
        if self.kind == "practical":
            return sigma_n + 1
        if self.kind == "shifted1":
            return n + 1
        return n + 2


def is_member(n: int, family: ThetaFamily, table: SpfTable) -> bool:
    """Exact chain membership: each distinct prime of n is checked against
    the threshold of the product of all smaller-prime full powers."""
    from .arith import factorize

    if n == 1:
        return True
    f = factorize(n, table)
    m = 1
    sigma_m = 1
    for p, e in f.factors:
        if p > family.threshold_floor(m, sigma_m):
            return False
        m *= p**e
        sigma_m *= (p ** (e + 1) - 1) // (p - 1)
    return True


def _validate_ratio(t_num: int, t_den: int) -> None:
    if t_den < 1 or t_num < 2 * t_den:
        raise DomainError(f"ratio bound must satisfy t >= 2, got {t_num}/{t_den}")


def is_dense_by_ratio_bound(n: int, t_num: int, t_den: int, table: SpfTable) -> bool:
    """Membership via the divisor-ratio bound: F(n)*t_den <= n*t_num."""
    from .arith import divisor_ratio_bound, factorize

    _validate_ratio(t_num, t_den)
    return divisor_ratio_bound(factorize(n, table)) * t_den <= n * t_num


def is_dense_by_divisor_scan(n: int, t_num: int, t_den: int) -> bool:
    """Membership by scanning consecutive divisors: d_{i+1}*t_den <= d_i*t_num.

    Independent oracle -- finds divisors by trial division, no factor table.
    """
    _validate_ratio(t_num, t_den)
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    divs = small + large[::-1]
    return all(b * t_den <= a * t_num for a, b in zip(divs, divs[1:]))


def is_practical_by_subset_sums(n: int) -> bool:
    """Brute-force practicality: the subset sums of the divisors of n must
    cover every integer in [1, n].  Bitset dynamic reachability; bit m of
    reach is set when m is a sum of distinct divisors already considered.
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if n > SUBSET_SUM_CAP:
        raise ResourceCapError(f"subset-sum oracle capped at {SUBSET_SUM_CAP}, got {n}")
    if n == 1:
        return True
    divs = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            divs.append(d)
            if d * d != n:
                divs.append(n // d)
        d += 1
    divs.sort()
    target = (1 << (n + 1)) - 1
    reach = 1
    for d in divs:
        reach |= reach << d
        reach &= target
        if reach == target:
            return True
    return reach == target
