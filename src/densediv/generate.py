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
  popped depth first.  It yields each block with the range of its
  childless leaves n*p, those with p^2 > x // n and p at least the
  largest prime of n, which it never builds as rows.  Counts, moment
  histograms and the identity sums tally those ranges in bulk; member
  columns, the tau-order experiment and the weight series read
  ``_member_chunks``, which expands them in chunks by the walk's own
  child rule; ``_gather_sorted`` sorts them for the first and last.  The
  walk's columns are int64 for every accepted query (the sieve cap keeps
  x below 2^62, and sigma columns stop at x < 2^60); a dense threshold
  n*t_num past int64 is formed in Python ints for the few rows that need
  it.
- ``iter_members`` is a plain pure-Python DFS over arbitrary-precision
  integers, yielding one record per member: the reference oracle the
  frontier is tested against.

``threads`` has no effect.  A query whose prime bound exceeds 2^31, or
that asks for sigma columns at x >= 2^60, is refused (ResourceCapError)
before any sieving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .arith import (
    SIEVE_LIMIT_CAP,
    SpfTable,
    divisor_ratio_bound,
    factorize,
    primes_up_to,
)
from .errors import DomainError, ResourceCapError
from .families import ThetaFamily

# Target child rows per expansion block in the frontier engine, and leaves
# per chunk where they are built.  Blocks are expanded depth first, so live
# rows stay near depth * _CHUNK; 2^16 was fastest and smallest among
# 2^14..2^20 for counts and moments at 1e9-1e11.
_CHUNK = 1 << 16

# Robin's unconditional bound sigma(n) < e^gamma n ln ln n + 0.6483 n / ln ln n
# keeps sigma(n) + 1 below 2^63 for n < 2^60: sigma columns stop there.
_SIGMA_X_CAP = 2**60

# int64 cells _gather_sorted may hold, counting its sort order and one
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
    p_max: int


@dataclass(frozen=True)
class CountQuery:
    """Count members n <= x with q | n (q = 1 means unrestricted)."""

    x: int
    family: ThetaFamily
    q: int = 1

    def __post_init__(self) -> None:
        if self.x < 1:
            raise DomainError(f"x must be >= 1, got {self.x}")
        if self.q < 1:
            raise DomainError(f"q must be >= 1, got {self.q}")


@dataclass
class MomentSummary:
    """Exact integer histograms of omega, big omega and tau over a member set.

    Every integer moment derives exactly from the histograms, so no result
    depends on the order in which members are tallied.
    exceed_count counts members with |omega - expected| > deviation_bound,
    where deviation_bound = xi * sqrt(max(ln ln x, 0)) is fixed up front.
    """

    expected: float
    deviation_bound: float
    histogram_omega: dict[int, int] = field(default_factory=dict)
    histogram_big_omega: dict[int, int] = field(default_factory=dict)
    histogram_tau: dict[int, int] = field(default_factory=dict)

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

    @property
    def exceed_count(self) -> int:
        return sum(
            v
            for k, v in self.histogram_omega.items()
            if abs(k - self.expected) > self.deviation_bound
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

    @property
    def exceed_fraction(self) -> float:
        return self.exceed_count / self.count


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
    yield MemberRecord(1, 0, 0, 1, 1, 1)
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
                yield MemberRecord(m, om + 1, bo + e, tau * (e + 1), sig * pp, p)
                push((m, sig * pp, om + 1, bo + e, tau * (e + 1), i + 1))
                m *= p
                pp = pp * p + 1
                e += 1


def multiple_vanishing_threshold(
    m: int, t_num: int, t_den: int, table: SpfTable
) -> Fraction:
    """Smallest x at which a member of dense(t) divisible by m can exist:
    max(m, F(m)/t) with F the divisor-ratio bound.  Below this threshold the
    count of such members is exactly zero."""
    if t_den < 1 or t_num < 2 * t_den:
        raise DomainError(f"ratio bound must satisfy t >= 2, got {t_num}/{t_den}")
    bound = divisor_ratio_bound(factorize(m, table))
    return max(Fraction(m), Fraction(bound * t_den, t_num))


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


def _admissible_hi(
    family: ThetaFamily, x: int, primes: np.ndarray, n: np.ndarray, sigma
) -> np.ndarray:
    """Per-node number of primes admissible as the next (>= last) factor."""
    return np.searchsorted(primes, _theta_at_most(family, n, sigma, x // n), "right")


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


def _frontier(
    family: ThetaFamily, x: int, stats: bool = False, sigma: bool = False
) -> tuple[np.ndarray, Iterator[tuple]]:
    """(primes, blocks) for a walk over the members n <= x.  The primes are
    sieved here, and a prime bound past SIEVE_LIMIT_CAP is refused first.

    blocks yields every built block once, when it is first popped, as
    (level, blk, mid, hi): the rows of blk have big omega level, and the
    unbuilt leaves of row i are n[i]*primes[j] for j in [mid[i], hi[i]),
    one level deeper.  A child n*p, p at least the largest prime of n, is
    a leaf exactly when p^2 > x // n (then n*p*p' > x for every p' >= p):
    with s = pi(sqrt(x // n)), when j >= max(s, last).  A row whose
    largest prime has p^2 > x // n has s <= last, so mid <= last: all its
    children are leaves, its repeat n*p at j == last among them.  Every
    other leaf has a new prime.  The other children are built in blocks
    of about _CHUNK rows popped LIFO, which keeps the live rows near
    depth * _CHUNK; a row without children is dropped once yielded.  A
    caller that needs the leaves themselves builds them with
    _child_columns (_member_chunks).

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
    primes = primes_up_to(bound)
    # The cap bounds x below 2^62, so x // n and the squares of the primes
    # <= sqrt(x) (the only ones with p^2 <= x // n) fit in int64.
    prime_sq = primes[: np.searchsorted(primes, math.isqrt(x), side="right")] ** 2

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
        # Stack entries (level, block, first row not yet expanded, expansion
        # plan); the plan is None until the block is first popped.
        stack = [(0, root, 0, None)]
        while stack:
            level, blk, a, plan = stack.pop()
            if plan is None:
                n, last = blk["n"], blk["last"]
                hi = _admissible_hi(family, x, primes, n, blk.get("sigma"))
                # j >= max(s, last) with s = pi(sqrt(x // n)): p^2 > x // n,
                # hence a leaf.  s <= last exactly when p_last^2 > x // n.
                s = np.searchsorted(prime_sq, x // n, side="right")
                mid = np.minimum(np.maximum(s, last), hi)
                yield level, blk, mid, hi
                # Only the rows with children wait on the stack.
                rows = np.flatnonzero(mid > np.maximum(last, 0))
                if len(rows) == 0:
                    continue
                blk = {k: v[rows] for k, v in blk.items()}
                lo = np.maximum(blk["last"], 0)
                cnt = mid[rows] - lo
                plan = (lo, cnt, np.cumsum(cnt))
            lo, cnt, cum = plan
            base = int(cum[a - 1]) if a else 0
            b = max(a + 1, int(np.searchsorted(cum, base + _CHUNK, side="right")))
            if b < len(cnt):
                stack.append((level, blk, b, plan))
            c = cnt[a:b]
            tot = int(cum[b - 1]) - base
            par = np.repeat(np.arange(a, b), c)
            offs = np.arange(tot) - np.repeat(np.cumsum(c) - c, c)
            j = lo[par] + offs
            stack.append((level + 1, _child_columns(blk, par, j, primes), 0, None))

    return primes, blocks()


def _leaves_above(
    primes: np.ndarray, n_min: int, n: np.ndarray, mid: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(lo, cnt): the leaves n*primes[j] > n_min of a block's rows are those
    with j in [lo, lo + cnt), as p > n_min // n."""
    lo = mid
    if n_min:
        lo = np.maximum(mid, np.searchsorted(primes, n_min // n, "right"))
    return lo, np.maximum(hi - lo, 0)


def _terminal_first(blocks: Iterator[tuple]) -> Iterator[tuple]:
    """_frontier's blocks, each split in two: the rows with mid <= last
    (no child built) first, then the rest.  The chunk order fixes which
    threshold a refused weight series names (_member_arrays)."""
    for level, blk, mid, hi in blocks:
        term = mid <= blk["last"]
        for part in (term, ~term):
            if part.any():
                yield level, {k: v[part] for k, v in blk.items()}, mid[part], hi[part]


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
    its unbuilt leaves in chunks of at most _CHUNK, built by the same child
    rule as the walk.  The leaves of row i start at j = max(mid[i],
    pi(n_min // n[i])), so no leaf n*p <= n_min is formed.
    """
    primes, blocks = _frontier(family, x, stats=stats, sigma=sigma)
    # The practical walk carries sigma for its thresholds; the chunks carry
    # only the columns asked for, and their leaves derive no others.
    keys = ["n", "last", *(("sigma", "pp") if sigma else ())]
    keys += ("e", "tau", "omega") if stats else ()
    for level, blk, mid, hi in _terminal_first(blocks):
        cols = {k: blk[k] for k in keys}
        n = cols["n"]
        keep = n > n_min
        if keep.all():
            yield level, cols
        elif keep.any():
            yield level, {k: v[keep] for k, v in cols.items()}
        lo, cnt = _leaves_above(primes, n_min, n, mid, hi)
        # Leaf k of the block (in row order) is leaf k - first[i] of row i.
        cum = np.cumsum(cnt)
        first = cum - cnt
        tot = int(cum[-1])
        for s in range(0, tot, _CHUNK):
            e = min(s + _CHUNK, tot)
            a = int(np.searchsorted(cum, s, "right"))
            b = int(np.searchsorted(cum, e - 1, "right")) + 1
            # Rows a..b-1 hold leaves s..e-1, the end rows only in part.
            c = np.minimum(cum[a:b], e) - np.maximum(first[a:b], s)
            par = np.repeat(np.arange(a, b), c)
            j = lo[par] + (np.arange(s, e) - first[par])
            yield level + 1, _child_columns(cols, par, j, primes)


def _tally_counts(
    counts: list[int], live_qs: list[tuple[int, int]], primes, n, mid, hi
) -> None:
    """Add to counts[k], for each (k, q) in live_qs, the rows n and their
    leaves n*primes[j], j in [mid, hi), that q divides."""
    leaves = hi - mid
    for k, q in live_qs:
        if q == 1:
            counts[k] += len(n) + int(leaves.sum())
            continue
        # q | n*p  iff  r | p  with r = q / gcd(q, n): a row and all its
        # leaves count when r = 1, and only the leaf p = r when r is a prime
        # in range.
        r = q // np.gcd(n, q)
        idx = np.searchsorted(primes, r)
        hit = (idx >= mid) & (idx < hi)
        counts[k] += int((leaves[r == 1] + 1).sum()) + int(
            np.count_nonzero(primes[idx[hit]] == r[hit])
        )


# ---- public counting / moments API ----


def count_members_multi(
    family: ThetaFamily,
    x: int,
    qs: list[int],
    threads: int = 1,
) -> list[int]:
    """Counts of members n <= x with q | n, for each q in qs, in one pass.
    threads has no effect on the walk or the result."""
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if any(q < 1 for q in qs):
        raise DomainError("every divisor filter q must be >= 1")
    primes, blocks = _frontier(family, x)
    # q > x divides no member; skipping it keeps every q in int64 range.
    live_qs = [(k, q) for k, q in enumerate(qs) if q <= x]
    counts = [0] * len(qs)
    for _, blk, mid, hi in blocks:
        _tally_counts(counts, live_qs, primes, blk["n"], mid, hi)
    return counts


def count_members(query: CountQuery, threads: int = 1) -> int:
    """Exact |{members n <= x : q | n}| for the query's family."""
    return count_members_multi(query.family, query.x, [query.q], threads=threads)[0]


def collect_moments(
    family: ThetaFamily,
    x: int,
    xi: float,
    expected: float,
    threads: int = 1,
) -> MomentSummary:
    """One enumeration pass filling every MomentSummary field.

    expected and xi define the exceedance rule |omega - expected| >
    xi*sqrt(max(ln ln x, 0)); both are supplied by the caller.  threads is
    as in count_members_multi.

    A leaf of a row n adds big omega + 1.  A new-prime leaf adds omega + 1
    and doubles tau; the repeat leaf n*p of a row with mid == last keeps
    omega and has tau * (e + 2) / (e + 1), with e the exponent of p in n.
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    _, blocks = _frontier(family, x, stats=True)
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
        expected=expected,
        deviation_bound=deviation_bound(x, xi),
        histogram_omega=hist_omega.as_dict(),
        histogram_big_omega=hist_big,
        histogram_tau=hist_tau.as_dict(),
    )


MEMBER_COLUMNS = ("n", "omega", "big_omega", "tau", "sigma")


def _gather_sorted(
    family: ThetaFamily, x: int, n_min: int, names: tuple[str, ...], chunks: Iterator
) -> tuple[np.ndarray, ...]:
    """int64 columns, one per name, ascending in n, over the members
    n_min < n <= x that chunks (_member_chunks(family, x, n_min), not yet
    started) yields; big_omega is the chunk's level.  A counting walk sizes
    the columns first, so they are filled in place and no chunk outlives
    its copy, and refuses (ResourceCapError) past _COLUMN_CELL_CAP."""
    width = len({"n", *names}) + 2
    primes, blocks = _frontier(family, x, sigma="sigma" in names)
    size = 0
    for _, blk, mid, hi in blocks:
        n = blk["n"]
        size += int(np.count_nonzero(n > n_min))
        size += int(_leaves_above(primes, n_min, n, mid, hi)[1].sum())
        if size * width > _COLUMN_CELL_CAP:
            raise ResourceCapError(
                f"more than {_COLUMN_CELL_CAP // width} members in ({n_min}, {x}]:"
                f" their columns and sort pass the cap of {_COLUMN_CELL_CAP} cells"
            )
    cols = {name: np.empty(size, dtype=np.int64) for name in ("n", *names)}
    at = 0
    for level, chunk in chunks:
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


def member_columns(
    family: ThetaFamily, x: int, names: tuple[str, ...], n_min: int = 0
) -> tuple[np.ndarray, ...]:
    """Columns over the members with n_min < n <= x, ascending in n, one per
    name in names, each drawn from MEMBER_COLUMNS.

    Every column is int64; sigma is refused at x >= 2^60 (ResourceCapError),
    before any sieving.  Columns past _COLUMN_CELL_CAP cells are refused
    (ResourceCapError) by the counting walk, before any leaf is built.
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if n_min < 0:
        raise DomainError(f"n_min must be >= 0, got {n_min}")
    chunks = _member_chunks(family, x, n_min, stats=True, sigma="sigma" in names)
    return _gather_sorted(family, x, n_min, names, chunks)
