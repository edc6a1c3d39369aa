"""Member generation, exact counting, and streaming moment accumulation.

Every member n > 1 of a family arises from a unique chain
1 -> p1^a1 -> p1^a1*p2^a2 -> ... with strictly increasing primes, each new
prime admissible against the threshold of the partial product.  Walking
those chains depth-first therefore enumerates the member set exactly once
per member, with omega/big-omega/tau/sigma maintained incrementally.

One production traversal and one reference:

- the vectorized frontier (``_frontier``) walks the equivalent "ascending
  primes with repeats" representation (valid because every supported
  threshold rule is nondecreasing along divisibility chains) in blocks
  drawn depth first.  It yields each block with the range of its
  childless leaves n*p, those with p^2 > x // n and p at least the
  largest prime of n, which it never builds as rows.  The leaf split
  counts the primes whose square is at most x // n.  Every other prime
  count of the walk and its tallies, pi(min(theta(n), x // n)) for the
  admissible primes, the leaves above n_min and the divisor filters,
  reads the bit-packed pi of arith.prime_counter, whose one sieve of the
  odd numbers gives the walk's primes and pi's words.  Counts, moment
  histograms and the identity sums tally those ranges in bulk; member
  columns, the tau-order experiment, the weight series and the identity
  sums' take-back below theta_min read ``_member_chunks``, which expands
  them with the walk's own builder ``_children``; member_columns sorts
  them by n, the others read them unsorted.  The walk's columns are
  int64 for every accepted query (the sieve cap keeps x below 2^62, and
  sigma columns stop at x < 2^60); a dense threshold n*t_num past int64
  is formed in Python ints for the few rows that need it.
- ``iter_members`` is a plain pure-Python DFS over arbitrary-precision
  integers, yielding one record per member: the reference oracle the
  frontier is tested against.

A query whose prime bound exceeds 2^31, or that asks for sigma columns
at x >= 2^60, is refused (ResourceCapError) before any sieving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .arith import SIEVE_LIMIT_CAP, prime_counter, primes_up_to
from .errors import ConfigurationError, DomainError, ResourceCapError
from .families import ThetaFamily

# Most rows per block that _children builds, for the walk and the leaves.
# Blocks are drawn depth first, so live rows stay near depth * _CHUNK;
# 2^16 was fastest and smallest among 2^14..2^20 for counts and moments at
# 1e9-1e11.
_CHUNK = 1 << 16

# Robin's unconditional bound sigma(n) < e^gamma n ln ln n + 0.6483 n / ln ln n
# keeps sigma(n) + 1 below 2^63 for n < 2^60: sigma columns stop there.
_SIGMA_X_CAP = 2**60

# int64 cells member_columns may hold, counting its sort order and one
# reordered column as two more columns, before it refuses (ResourceCapError).
# enumerate's 7 cells a member reach it at 19.2M members; under a 2 GiB
# address limit it peaked at 1.4 GB for 25.3M (dense t = 2, x = 4e8).
_COLUMN_CELL_CAP = 2**27


@dataclass(frozen=True)
class MemberRecord:
    """One enumerated member with its multiplicative statistics."""

    n: int
    omega: int
    big_omega: int
    tau: int
    sigma: int


@dataclass
class MomentSummary:
    """Exact integer histograms of omega, big omega and tau over a member set.

    Every integer moment derives exactly from the histograms, so no result
    depends on the order in which members are tallied.
    """

    histogram_omega: dict[int, int]
    histogram_big_omega: dict[int, int]
    histogram_tau: dict[int, int]

    @property
    def count(self) -> int:
        return sum(self.histogram_omega.values())

    @property
    def sum_omega(self) -> int:
        return sum(k * v for k, v in self.histogram_omega.items())

    @property
    def sum_omega_sq(self) -> int:
        return sum(k * k * v for k, v in self.histogram_omega.items())

    @property
    def sum_big_omega(self) -> int:
        return sum(k * v for k, v in self.histogram_big_omega.items())

    @property
    def sum_tau(self) -> int:
        return sum(k * v for k, v in self.histogram_tau.items())

    @property
    def sum_log_tau(self) -> float:
        return math.fsum(v * math.log(k) for k, v in self.histogram_tau.items())

    def exceed_count(self, expected: float, bound: float) -> int:
        """Members with |omega - expected| > bound."""
        return sum(
            v for k, v in self.histogram_omega.items() if abs(k - expected) > bound
        )

    @property
    def mean_omega(self) -> float:
        return self.sum_omega / self.count

    @property
    def mean_big_omega(self) -> float:
        return self.sum_big_omega / self.count

    @property
    def mean_tau(self) -> float:
        return self.sum_tau / self.count

    @property
    def variance_omega(self) -> float:
        mean = self.mean_omega
        return self.sum_omega_sq / self.count - mean * mean

    def exceed_fraction(self, expected: float, bound: float) -> float:
        return self.exceed_count(expected, bound) / self.count


def deviation_bound(x: int, xi: float) -> float:
    """xi * sqrt(max(ln ln x, 0)), with the double log clamped at 0."""
    lx = math.log(x) if x > 1 else 0.0
    return xi * math.sqrt(max(math.log(lx), 0.0)) if lx > 1.0 else 0.0


def _prime_limit(family: ThetaFamily, x: int) -> int:
    """Upper bound for any prime usable in a member <= x: p <= x // n <= x,
    and (proven per rule) p <= theta(n) with n*p <= x forces
    p^2 <= theta(n)*x/n."""
    if x < 2:
        return 2
    if family.kind == "dense":
        bound = math.isqrt(x * family.t_num // family.t_den) + 1
    elif family.kind == "practical":
        # sigma(n)/n <= harmonic(n) <= 1 + ln n, so p^2 <= x*(2 + ln x) + 1
        bound = math.isqrt(x * (2 + math.ceil(math.log(x)))) + 2
    else:
        bound = math.isqrt(2 * x) + 3
    return min(bound, x)


def iter_members(family: ThetaFamily, x: int) -> Iterator[MemberRecord]:
    """Yield every member n <= x exactly once, in deterministic DFS order
    (primes ascending, exponents ascending; not ascending by n)."""
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    yield MemberRecord(1, 0, 0, 1, 1)
    primes = primes_up_to(_prime_limit(family, x)).tolist()
    threshold_floor = family.threshold_floor
    nprimes = len(primes)
    # stack entries: (n, sigma, omega, big_omega, tau, first usable prime index)
    stack: list[tuple[int, int, int, int, int, int]] = [(1, 1, 0, 0, 1, 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        n, sig, om, bo, tau, i0 = pop()
        bound = threshold_floor(n, sig)
        xb = x // n
        if xb < bound:
            bound = xb
        for i in range(i0, nprimes):
            p = primes[i]
            if p > bound:
                break
            m = n * p
            pp = 1 + p
            e = 1
            while m <= x:
                yield MemberRecord(m, om + 1, bo + e, tau * (e + 1), sig * pp)
                push((m, sig * pp, om + 1, bo + e, tau * (e + 1), i + 1))
                m *= p
                pp = pp * p + 1
                e += 1


# ---- frontier engine ----


def _theta_at_most(family: ThetaFamily, n: np.ndarray, sigma, cap) -> np.ndarray:
    """min(threshold_floor(n, sigma), cap) elementwise and exact, as int64,
    for nonempty int64 rows n and a cap (array or scalar) below 2^63."""
    if int(n.max()) * family.t_num < 2**63:
        return np.minimum(family.threshold_floor(n, sigma), cap)
    # Only a dense t gets here.  theta(n) >= n*a > cap once n > cap // a, so
    # only the rows n <= cap // a form theta, in Python ints.  Clamping a to
    # int64 keeps that exact, as every cap is below 2^63.
    a = min(family.t_num // family.t_den, 2**63 - 1)
    out = np.array(np.broadcast_to(cap, n.shape), dtype=np.int64)
    rows = np.flatnonzero(n <= out // a)
    theta = family.threshold_floor(n[rows].astype(object), None)
    out[rows] = np.minimum(theta, out[rows])
    return out


class _Histogram:
    """Growable exact int64 histogram over small nonnegative integer keys."""

    def __init__(self) -> None:
        self.counts = np.zeros(64, dtype=np.int64)

    def add(self, keys: np.ndarray, weights: np.ndarray | None = None) -> None:
        if len(keys) == 0:
            return
        need = int(keys.max()) + 1
        if need > len(self.counts):
            grown = np.zeros(max(need, 2 * len(self.counts)), dtype=np.int64)
            grown[: len(self.counts)] = self.counts
            self.counts = grown
        if weights is None:
            self.counts[:need] += np.bincount(keys, minlength=need)
        else:
            np.add.at(self.counts, keys, weights)

    def as_dict(self) -> dict[int, int]:
        return {int(k): int(self.counts[k]) for k in np.flatnonzero(self.counts)}


def _child_columns(
    blk: dict[str, np.ndarray], par: np.ndarray, j: np.ndarray, primes: np.ndarray
) -> dict[str, np.ndarray]:
    """Columns of the children n[par] * primes[j] of the rows par of blk,
    with j >= last[par]: the same columns as blk.  The child at
    j == last[par] repeats the largest prime of its parent."""
    p = primes[j]
    child = {"n": blk["n"][par] * p, "last": j}
    if "sigma" not in blk and "tau" not in blk:
        return child
    # Few children repeat a prime, so the divisions run on those alone.
    rep = np.flatnonzero(j == blk["last"][par])
    prep = par[rep]
    if "sigma" in blk:
        pp = p + 1
        sigma = blk["sigma"][par] * pp
        pp[rep] = blk["pp"][prep] * p[rep] + 1
        sigma[rep] = blk["sigma"][prep] // blk["pp"][prep] * pp[rep]
        child["pp"] = pp
        child["sigma"] = sigma
    if "tau" in blk:
        e = np.ones(len(j), dtype=np.int64)
        tau = blk["tau"][par] * 2
        omega = blk["omega"][par] + 1
        e_rep = blk["e"][prep]
        e[rep] = e_rep + 1
        tau[rep] = blk["tau"][prep] // (e_rep + 1) * (e_rep + 2)
        omega[rep] -= 1
        child["e"] = e
        child["tau"] = tau
        child["omega"] = omega
    return child


def _child_index(lo, cnt, cum, s: int) -> tuple[np.ndarray, np.ndarray]:
    """(par, j) of the children s..e-1, e = min(s + _CHUNK, cum[-1]), of the
    rows i with children j in [lo[i], lo[i] + cnt[i]); cum = cumsum(cnt)."""
    e = min(s + _CHUNK, int(cum[-1]))
    a, b = np.searchsorted(cum, (s, e - 1), "right") + (0, 1)
    # Rows a..b-1 hold children s..e-1, the end rows only in part.
    first = cum[a:b] - cnt[a:b]
    c = np.minimum(cum[a:b], e) - np.maximum(first, s)
    j = np.repeat(lo[a:b] - first, c) + np.arange(s, e)
    return np.repeat(np.arange(a, b), c), j


def _children(blk, lo, cnt, primes) -> Iterator[dict[str, np.ndarray]]:
    """_child_columns blocks of at most _CHUNK rows, in row order, of the
    children n[i] * primes[j] of the rows i of blk, j in [lo[i], lo[i] +
    cnt[i]).  The index arrays live in the call, not in this frame."""
    cum = np.cumsum(cnt)
    for s in range(0, int(cum[-1]), _CHUNK):
        yield _child_columns(blk, *_child_index(lo, cnt, cum, s), primes)


def _frontier(
    family: ThetaFamily, x: int, stats: bool = False, sigma: bool = False
) -> tuple[np.ndarray, Callable, Iterator[tuple]]:
    """(primes, pi, blocks) for a walk over the members n <= x.  One
    prime_counter sieve gives the primes and pi, after a prime bound past
    SIEVE_LIMIT_CAP is refused.  Every count of primes below a bound, here
    and in the tallies, reads pi; the leaf split counts the primes whose
    square is at most x // n, in the squares of the primes <= isqrt(x).

    blocks yields every built block once, as (level, blk, mid, hi): the
    rows of blk have big omega level, and the unbuilt leaves of row i are
    n[i]*primes[j] for j in [mid[i], hi[i]), one level deeper, with
    hi = pi(min(theta(n), x // n)).  A child n*p, p at least the largest
    prime of n, is a leaf exactly when p^2 > x // n (then n*p*p' > x for
    every p' >= p): with s the number of primes p with p^2 <= x // n, when
    j >= max(s, last).  A row whose largest prime has p^2 > x // n has
    s <= last, so mid <= last: all its children are leaves, its repeat
    n*p at j == last among them.  Every other leaf has a new prime.  The
    stack holds a _children generator over the rows with children of each
    level; each step draws the next block from the top one, which keeps
    the live rows near depth * _CHUNK.  A caller that needs the leaves
    builds them with _children too (_member_chunks).

    blk holds "n" and "last" (the index of the largest prime of n); "sigma"
    and "pp" (the sigma of that prime's full power) with sigma=True or for
    the practical family; "omega", "tau" and "e" (that prime's exponent)
    with stats=True.  Every column is int64.  Sigma columns at x >= 2^60
    are refused before any sieving.
    """
    bound = _prime_limit(family, x)
    if bound > SIEVE_LIMIT_CAP:
        raise ResourceCapError(f"prime bound {bound} exceeds the sieve cap 2^31")
    sigma = sigma or family.kind == "practical"
    if sigma and x >= _SIGMA_X_CAP:
        raise ResourceCapError(f"x={x} exceeds the sigma-column cap 2^60")
    primes, pi = prime_counter(bound)
    squares = primes[: pi(math.isqrt(x))] ** 2  # below 2^62, as x is

    def blocks() -> Iterator[tuple]:
        # Root n = 1: last = -1 marks "no prime used yet".  No column is
        # ever written in place, so the root's may share arrays.
        one = np.array([1], dtype=np.int64)
        root = {"n": one, "last": np.array([-1], dtype=np.int64)}
        if sigma:
            root.update(sigma=one, pp=one)
        if stats:
            zero = np.array([0], dtype=np.int64)
            root.update(e=zero, omega=zero, tau=np.array([1], dtype=np.int64))
        stack = [(0, iter([root]))]
        while stack:
            level, gen = stack[-1]
            if (blk := next(gen, None)) is None:
                stack.pop()
                continue
            n, last = blk["n"], blk["last"]
            quot = x // n  # below 2^62, as the sieve cap bounds x
            # hi = pi(min(theta(n), x // n)) primes are admissible next.
            hi = pi(_theta_at_most(family, n, blk.get("sigma"), quot))
            # j >= max(s, last), s the number of primes with p^2 <= x // n,
            # is a leaf.  s <= last exactly when p_last^2 > x // n.  Each array
            # is dropped once spent, so few of a block's size are live at a
            # time and only the block and its bounds pass the yield.
            mid = np.searchsorted(squares, quot, "right")
            del quot
            np.maximum(mid, last, out=mid)
            np.minimum(mid, hi, out=mid)
            yield level, blk, mid, hi
            # Only the rows with children wait on the stack.
            rows = np.flatnonzero(mid > np.maximum(last, 0))
            if len(rows):
                lo = np.maximum(last[rows], 0)
                kids = {k: v[rows] for k, v in blk.items()}
                stack.append((level + 1, _children(kids, lo, mid[rows] - lo, primes)))

    return primes, pi, blocks()


def _leaves_above(
    pi, n_min: int, n: np.ndarray, mid: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(lo, cnt): the leaves n*primes[j] > n_min of a block's rows are those
    with j in [lo, lo + cnt), as p > n_min // n: j >= pi(n_min // n), which
    is at least hi once n_min // n passes the prime bound."""
    lo = mid
    if n_min:
        lo = np.maximum(mid, pi(n_min // n))
    return lo, np.maximum(hi - lo, 0)


def _member_chunks(
    family: ThetaFamily,
    x: int,
    n_min: int = 0,
    stats: bool = False,
    sigma: bool = False,
) -> Iterator[tuple[int, dict[str, np.ndarray]]]:
    """(level, cols) over the members n_min < n <= x, in unsorted chunks:
    every member once, with big omega level.  cols holds "n" and "last",
    "sigma" and "pp" with sigma=True, and "e", "tau" and "omega" with
    stats=True, as in _frontier's blocks.

    Each block of the collapsed walk gives its rows with n > n_min, then
    its unbuilt leaves from _children, the walk's own child builder.  The
    leaves of row i start at j = max(mid[i], pi(n_min // n[i])), so no leaf
    n*p <= n_min is formed.
    """
    primes, pi, blocks = _frontier(family, x, stats=stats, sigma=sigma)
    # The practical walk carries sigma for its thresholds; the chunks carry
    # only the columns asked for, and their leaves derive no others.
    keys = ["n", "last", *(("sigma", "pp") if sigma else ())]
    keys += ("e", "tau", "omega") if stats else ()
    for level, blk, mid, hi in blocks:
        cols = {k: blk[k] for k in keys}
        n = cols["n"]
        keep = n > n_min
        if keep.all():
            yield level, cols
        elif keep.any():
            yield level, {k: v[keep] for k, v in cols.items()}
        lo, cnt = _leaves_above(pi, n_min, n, mid, hi)
        for child in _children(cols, lo, cnt, primes):
            yield level + 1, child


def _tally_counts(q: int, primes, pi, n, mid, hi) -> int:
    """The rows n and their leaves n*primes[j], j in [mid, hi), that q
    divides; pi counts the primes, both from the walk's prime_counter."""
    leaves = hi - mid
    if q == 1:
        return len(n) + int(leaves.sum())
    # q | n*p  iff  r | p  with r = q / gcd(q, n): a row and all its leaves
    # count when r = 1, and only the leaf p = r when r is a prime in range.
    # The only candidate is j = pi(r - 1), the primes below r: at least hi
    # once r passes the prime bound.
    r = q // np.gcd(n, q)
    idx = pi(r - 1)
    hit = (idx >= mid) & (idx < hi)
    return int((leaves[r == 1] + 1).sum()) + int(
        np.count_nonzero(primes[idx[hit]] == r[hit])
    )


# ---- public counting / moments API ----


def count_members_multi(
    family: ThetaFamily,
    x: int,
    qs: list[int],
) -> list[int]:
    """Counts of members n <= x with q | n, for each q in qs, in one pass."""
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if any(q < 1 for q in qs):
        raise DomainError("every divisor filter q must be >= 1")
    # q > x divides no member; skipping it keeps every q in int64 range,
    # and with no q left there is nothing to sieve or walk.
    live_qs = [(k, q) for k, q in enumerate(qs) if q <= x]
    counts = [0] * len(qs)
    if not live_qs:
        return counts
    primes, pi, blocks = _frontier(family, x)
    for _, blk, mid, hi in blocks:
        for k, q in live_qs:
            counts[k] += _tally_counts(q, primes, pi, blk["n"], mid, hi)
    return counts


def collect_moments(family: ThetaFamily, x: int) -> MomentSummary:
    """One enumeration pass filling every MomentSummary histogram.

    A leaf of a row n adds big omega + 1.  A new-prime leaf adds omega + 1
    and doubles tau; the repeat leaf n*p of a row with mid == last keeps
    omega and has tau * (e + 2) / (e + 1), with e the exponent of p in n.
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    _, _, blocks = _frontier(family, x, stats=True)
    hist_omega = _Histogram()
    hist_tau = _Histogram()
    hist_big: dict[int, int] = {}
    for level, blk, mid, hi in blocks:
        omega, tau = blk["omega"], blk["tau"]
        hist_omega.add(omega)
        hist_tau.add(tau)
        hist_big[level] = hist_big.get(level, 0) + len(omega)
        # New-prime leaves, then the repeat leaves (j == last).
        rows = np.flatnonzero(hi > mid)
        if len(rows):
            leaves = hi[rows] - mid[rows]
            hist_big[level + 1] = hist_big.get(level + 1, 0) + int(leaves.sum())
            is_rep = mid[rows] == blk["last"][rows]
            hist_omega.add(omega[rows] + 1, leaves - is_rep)
            hist_tau.add(tau[rows] * 2, leaves - is_rep)
            rep = rows[is_rep]
            e = blk["e"][rep]
            hist_omega.add(omega[rep])
            hist_tau.add(tau[rep] // (e + 1) * (e + 2))
    return MomentSummary(
        histogram_omega=hist_omega.as_dict(),
        histogram_big_omega=hist_big,
        histogram_tau=hist_tau.as_dict(),
    )


MEMBER_COLUMNS = ("n", "omega", "big_omega", "tau", "sigma")


def member_columns(
    family: ThetaFamily, x: int, names: tuple[str, ...], n_min: int = 0
) -> tuple[np.ndarray, ...]:
    """int64 columns over the members n_min < n <= x, ascending in n, one per
    name in names, each from MEMBER_COLUMNS (big_omega: the chunk's level;
    any other name is refused up front with ConfigurationError).
    A counting walk sizes the columns, so _member_chunks fills them in place,
    and refuses (ResourceCapError) past _COLUMN_CELL_CAP cells before any
    leaf is built; sigma at x >= 2^60 is refused before any sieving."""
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if n_min < 0:
        raise DomainError(f"n_min must be >= 0, got {n_min}")
    for name in names:
        if name not in MEMBER_COLUMNS:
            raise ConfigurationError(f"unknown member column {name!r}")
    sigma = "sigma" in names
    width = len({"n", *names}) + 2
    _, pi, blocks = _frontier(family, x, sigma=sigma)
    size = 0
    for _, blk, mid, hi in blocks:
        n = blk["n"]
        size += int(np.count_nonzero(n > n_min))
        size += int(_leaves_above(pi, n_min, n, mid, hi)[1].sum())
        if size * width > _COLUMN_CELL_CAP:
            raise ResourceCapError(
                f"more than {_COLUMN_CELL_CAP // width} members in ({n_min}, {x}]:"
                f" their columns and sort pass the cap of {_COLUMN_CELL_CAP} cells"
            )
    cols = {name: np.empty(size, dtype=np.int64) for name in ("n", *names)}
    at = 0
    for level, chunk in _member_chunks(family, x, n_min, stats=True, sigma=sigma):
        end = at + len(chunk["n"])
        for name, col in cols.items():
            col[at:end] = level if name == "big_omega" else chunk[name]
        at = end
    # n sorts in place; each other column is reordered and its unsorted
    # copy released before the next, so at most one column is held twice.
    order = np.argsort(cols["n"])
    cols["n"].sort()
    ordered = {"n": cols.pop("n")}
    ordered.update((name, cols.pop(name)[order]) for name in list(cols))
    return tuple(ordered[name] for name in names)
