"""Member generation, exact counting, and streaming moment accumulation.

Every member n > 1 of a family arises from a unique chain
1 -> p1^a1 -> p1^a1*p2^a2 -> ... with strictly increasing primes, each new
prime admissible against the threshold of the partial product.  Walking
those chains depth-first therefore enumerates the member set exactly once
per member, with omega/big-omega/tau/sigma maintained incrementally.

Two engines:

- a reference pure-Python DFS (any visitor, arbitrary-precision integers),
  partitionable at the first level (one task per admissible first prime
  power) across processes with a deterministic ordered merge;
- a vectorized numpy frontier used automatically for counting and moment
  collection at large x.  It walks the equivalent "ascending primes with
  repeats" representation (valid because every supported threshold rule is
  nondecreasing along divisibility chains) in int64 blocks popped depth
  first, tallies the childless leaves n*p with a new prime p > sqrt(x/n)
  in bulk per parent instead of building them, and guards int64 overflow
  by falling back to the Python engine.

Engine choice is a deterministic function of the query alone -- never of
the thread count -- so identical queries produce identical output bytes.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .arith import SpfTable, divisor_ratio_bound, factorize, primes_up_to
from .errors import DomainError
from .families import ThetaFamily

# Below this x the reference engine is used even in auto mode (numpy setup
# overhead dominates there) -- keep deterministic, never tune at runtime.
_NUMPY_MIN_X = 100_000

# Target child rows per expansion block in the frontier engine.  Blocks are
# expanded depth first, so live rows stay near depth * _CHUNK; 2^16 was
# fastest and smallest among 2^14..2^20 for counts and moments at 1e9-1e11.
_CHUNK = 1 << 16


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

    Every moment derives from the histograms, so merging two summaries is
    histogram addition and no result depends on summation order.
    exceed_count counts members with |omega - expected| > deviation_bound,
    where deviation_bound = xi * sqrt(max(ln ln x, 0)) is fixed up front.
    """

    expected: float
    deviation_bound: float
    histogram_omega: dict[int, int] = field(default_factory=dict)
    histogram_big_omega: dict[int, int] = field(default_factory=dict)
    histogram_tau: dict[int, int] = field(default_factory=dict)

    def add(self, omega: int, big_omega: int, tau: int) -> None:
        h = self.histogram_omega
        h[omega] = h.get(omega, 0) + 1
        h = self.histogram_big_omega
        h[big_omega] = h.get(big_omega, 0) + 1
        h = self.histogram_tau
        h[tau] = h.get(tau, 0) + 1

    def merge(self, other: "MomentSummary") -> None:
        for mine, theirs in (
            (self.histogram_omega, other.histogram_omega),
            (self.histogram_big_omega, other.histogram_big_omega),
            (self.histogram_tau, other.histogram_tau),
        ):
            for k, v in theirs.items():
                mine[k] = mine.get(k, 0) + v

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
    def sum_big_omega_sq(self) -> int:
        return sum(k * k * v for k, v in self.histogram_big_omega.items())

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
    """Upper bound for any prime usable in a member <= x (proven per rule:
    p <= theta(n) and n*p <= x force p^2 <= theta(n)*x/n)."""
    if x < 2:
        return 2
    if family.kind == "dense":
        return math.isqrt(x * family.t_num // family.t_den) + 1
    if family.kind == "practical":
        # sigma(n)/n <= harmonic(n) <= 1 + ln n, so p^2 <= x*(2 + ln x) + 1
        return math.isqrt(x * (2 + math.ceil(math.log(x)))) + 2
    return math.isqrt(2 * x) + 3


def iter_members(family: ThetaFamily, x: int) -> Iterator[MemberRecord]:
    """Yield every member n <= x exactly once, in deterministic DFS order
    (primes ascending, exponents ascending; not ascending by n)."""
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    yield MemberRecord(1, 0, 0, 1, 1, 1)
    primes = primes_up_to(_prime_limit(family, x)).tolist()
    kind = family.kind
    tn, td = family.t_num, family.t_den
    nprimes = len(primes)
    # stack entries: (n, sigma, omega, big_omega, tau, first usable prime index)
    stack: list[tuple[int, int, int, int, int, int]] = [(1, 1, 0, 0, 1, 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        n, sig, om, bo, tau, i0 = pop()
        if kind == "dense":
            bound = n * tn // td
        elif kind == "practical":
            bound = sig + 1
        elif kind == "shifted1":
            bound = n + 1
        else:
            bound = n + 2
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


def enumerate_members(
    family: ThetaFamily, x: int, visitor: Callable[[MemberRecord], None]
) -> None:
    """Invoke visitor exactly once per member n <= x (streaming; nothing
    retained unless the visitor retains it)."""
    for rec in iter_members(family, x):
        visitor(rec)


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


# ---- first-level partition (shared by both Python paths) ----


def _top_branches(family: ThetaFamily, x: int) -> list[tuple[int, int]]:
    """Admissible first prime powers (p, a), ordered; the branch roots."""
    theta1 = family.threshold_floor(1, 1)
    branches: list[tuple[int, int]] = []
    for p in primes_up_to(min(theta1, x)).tolist():
        pa = p
        a = 1
        while pa <= x:
            branches.append((p, a))
            pa *= p
            a += 1
    return branches


def _branch_root(p: int, a: int) -> tuple[int, int, int, int, int]:
    """(n, sigma, omega, big_omega, tau) of the branch root p^a."""
    n = p**a
    sigma = (n * p - 1) // (p - 1)
    return n, sigma, 1, a, a + 1


def _moments_branch_task(args) -> MomentSummary:
    family, x, p, a, expected, dev = args
    primes = primes_up_to(_prime_limit(family, x)).tolist()
    acc = MomentSummary(expected=expected, deviation_bound=dev)
    n0, sig0, om0, bo0, tau0 = _branch_root(p, a)
    acc.add(om0, bo0, tau0)
    i0 = primes.index(p) + 1
    kind = family.kind
    tn, td = family.t_num, family.t_den
    nprimes = len(primes)
    stack = [(n0, sig0, om0, bo0, tau0, i0)]
    while stack:
        n, sig, om, bo, tau, i0 = stack.pop()
        if kind == "dense":
            bound = n * tn // td
        elif kind == "practical":
            bound = sig + 1
        elif kind == "shifted1":
            bound = n + 1
        else:
            bound = n + 2
        xb = x // n
        if xb < bound:
            bound = xb
        for i in range(i0, nprimes):
            pr = primes[i]
            if pr > bound:
                break
            m = n * pr
            pp = 1 + pr
            e = 1
            while m <= x:
                acc.add(om + 1, bo + e, tau * (e + 1))
                stack.append((m, sig * pp, om + 1, bo + e, tau * (e + 1), i + 1))
                m *= pr
                pp = pp * pr + 1
                e += 1
    return acc


def _counts_branch_task(args) -> list[int]:
    family, x, p, a, qs = args
    primes = primes_up_to(_prime_limit(family, x)).tolist()
    res = [0] * len(qs)
    n0, sig0, _, _, _ = _branch_root(p, a)

    def tally(value: int) -> None:
        for k, q in enumerate(qs):
            if value % q == 0:
                res[k] += 1

    tally(n0)
    i0 = primes.index(p) + 1
    kind = family.kind
    tn, td = family.t_num, family.t_den
    nprimes = len(primes)
    stack = [(n0, sig0, i0)]
    while stack:
        n, sig, i0 = stack.pop()
        if kind == "dense":
            bound = n * tn // td
        elif kind == "practical":
            bound = sig + 1
        elif kind == "shifted1":
            bound = n + 1
        else:
            bound = n + 2
        xb = x // n
        if xb < bound:
            bound = xb
        for i in range(i0, nprimes):
            pr = primes[i]
            if pr > bound:
                break
            m = n * pr
            pp = 1 + pr
            while m <= x:
                tally(m)
                stack.append((m, sig * pp, i + 1))
                m *= pr
                pp = pp * pr + 1
    return res


def _tau_branch_task(args) -> tuple[list[int], list[int]]:
    family, x, p, a, n_min = args
    primes = primes_up_to(_prime_limit(family, x)).tolist()
    ns: list[int] = []
    taus: list[int] = []
    n0, sig0, _, _, tau0 = _branch_root(p, a)
    if n0 > n_min:
        ns.append(n0)
        taus.append(tau0)
    i0 = primes.index(p) + 1
    kind = family.kind
    tn, td = family.t_num, family.t_den
    nprimes = len(primes)
    stack = [(n0, sig0, tau0, i0)]
    while stack:
        n, sig, tau, i0 = stack.pop()
        if kind == "dense":
            bound = n * tn // td
        elif kind == "practical":
            bound = sig + 1
        elif kind == "shifted1":
            bound = n + 1
        else:
            bound = n + 2
        xb = x // n
        if xb < bound:
            bound = xb
        for i in range(i0, nprimes):
            pr = primes[i]
            if pr > bound:
                break
            m = n * pr
            pp = 1 + pr
            e = 1
            while m <= x:
                tau_m = tau * (e + 1)
                if m > n_min:
                    ns.append(m)
                    taus.append(tau_m)
                stack.append((m, sig * pp, tau_m, i + 1))
                m *= pr
                pp = pp * pr + 1
                e += 1
    return ns, taus


def _run_branches(tasks, worker, threads: int):
    """Evaluate branch tasks, in order, optionally across processes.

    Results are merged by the caller strictly in task order, so the output
    is bitwise independent of the worker count.
    """
    if threads <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, tasks))


# ---- numpy frontier engine ----


def _numpy_safe(family: ThetaFamily, x: int) -> bool:
    """int64 headroom for every product the frontier engine forms."""
    if family.kind == "dense":
        return x * family.t_num < 2**62
    return x < 2**50  # sigma(n)*p <= x*(1+ln x)*p stays below 2^62


def _admissible_hi(
    family: ThetaFamily, x: int, primes: np.ndarray, n: np.ndarray, sigma
) -> np.ndarray:
    """Per-node number of primes admissible as the next (>= last) factor."""
    b = np.minimum(family.threshold_floor(n, sigma), x // n)
    return np.searchsorted(primes, b, side="right")


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


def _frontier_run(
    family: ThetaFamily,
    x: int,
    qs: list[int] | None,
    moments: MomentSummary | None,
    row_hook: Callable[[dict[str, np.ndarray]], None] | None = None,
    collapse: bool = True,
) -> list[int] | MomentSummary:
    """Depth-first vectorized walk over blocks of frontier rows.

    Exactly one of qs / moments selects the mode.  A child n*p whose prime
    p is new and exceeds sqrt(x/n) is a leaf (n*p*p' > x for every p' >= p)
    and its statistics depend on the parent alone, so such leaves are
    tallied in bulk per parent and never built.  The other children are
    materialized in blocks of about _CHUNK rows popped LIFO, which keeps
    the live rows near depth * _CHUNK.  row_hook (optional) receives every
    materialized block: its "n" column, "sigma" for the practical family,
    and "tau" in moments mode.  With collapse off every member is
    materialized, so the hook sees them all.
    """
    want_moments = moments is not None
    primes = primes_up_to(_prime_limit(family, x))
    prime_sq = primes * primes  # below 2^63 under the _numpy_safe guard
    practical = family.kind == "practical"
    # q > x divides no member; skipping it keeps every q in int64 range.
    live_qs = [(k, q) for k, q in enumerate(qs or []) if q <= x]
    counts_out = [0] * len(qs) if qs is not None else None
    hist_omega = _Histogram()
    hist_tau = _Histogram()
    hist_big: dict[int, int] = {}

    def tally_rows(level: int, blk: dict[str, np.ndarray]) -> None:
        """Tally every materialized row of one block (all at one level)."""
        n = blk["n"]
        if row_hook is not None:
            row_hook(blk)
        if want_moments:
            hist_omega.add(blk["omega"])
            hist_tau.add(blk["tau"])
            hist_big[level] = hist_big.get(level, 0) + len(n)
            return
        for k, q in live_qs:
            counts_out[k] += len(n) if q == 1 else int(np.count_nonzero(n % q == 0))

    def tally_leaves(level: int, blk: dict[str, np.ndarray], mid, hi) -> None:
        """Tally the leaves n*primes[j], j in [mid, hi), of every row."""
        rows = np.flatnonzero(hi > mid)
        if len(rows) == 0:
            return
        mid, hi = mid[rows], hi[rows]
        leaves = hi - mid
        if want_moments:
            hist_omega.add(blk["omega"][rows] + 1, leaves)
            hist_tau.add(blk["tau"][rows] * 2, leaves)
            hist_big[level] = hist_big.get(level, 0) + int(leaves.sum())
            return
        n = blk["n"][rows]
        for k, q in live_qs:
            if q == 1:
                counts_out[k] += int(leaves.sum())
                continue
            # q | n*p  iff  r | p  with r = q / gcd(q, n): every leaf counts
            # when r = 1, and only the leaf p = r when r is a prime in range.
            r = q // np.gcd(n, q)
            idx = np.searchsorted(primes, r)
            hit = (idx >= mid) & (idx < hi)
            counts_out[k] += int(leaves[r == 1].sum()) + int(
                np.count_nonzero(primes[idx[hit]] == r[hit])
            )

    # Root n = 1: last = -1 marks "no prime used yet".
    root = {
        "n": np.array([1], dtype=np.int64),
        "last": np.array([-1], dtype=np.int64),
    }
    if practical:
        root["sigma"] = np.array([1], dtype=np.int64)
        root["pp"] = np.array([1], dtype=np.int64)
    if want_moments:
        root["e"] = np.array([0], dtype=np.int64)
        root["tau"] = np.array([1], dtype=np.int64)
        root["omega"] = np.array([0], dtype=np.int64)
    tally_rows(0, root)

    # Stack entries (level, block, first row not yet expanded).
    stack = [(0, root, 0)]
    while stack:
        level, blk, a = stack.pop()
        n = blk["n"]
        last = blk["last"]
        if a == 0:
            hi = _admissible_hi(family, x, primes, n, blk.get("sigma"))
            lo = np.maximum(last, 0)
            mid = hi
            if collapse:
                # j >= max(s, last+1) with s = pi(sqrt(x // n)): a new prime
                # whose square exceeds x // n, hence a leaf.
                s = np.searchsorted(prime_sq, x // n, side="right")
                mid = np.minimum(np.maximum(s, last + 1), hi)
                tally_leaves(level + 1, blk, mid, hi)
            cnt = np.maximum(mid - lo, 0)
            blk["lo"] = lo
            blk["cnt"] = cnt
            blk["cum"] = np.cumsum(cnt)
        lo = blk["lo"]
        cum = blk["cum"]
        base = int(cum[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(cum, base + _CHUNK, side="right")))
        if b < len(n):
            stack.append((level, blk, b))
        c = blk["cnt"][a:b]
        tot = int(cum[b - 1]) - base
        if tot == 0:
            continue
        par = np.repeat(np.arange(a, b), c)
        offs = np.arange(tot) - np.repeat(np.cumsum(c) - c, c)
        j = lo[par] + offs
        p = primes[j]
        child: dict[str, np.ndarray] = {"n": n[par] * p, "last": j}
        same = j == last[par]
        if practical:
            sigma = blk["sigma"]
            pp_par = blk["pp"][par]
            new_pp = np.where(same, pp_par * p + 1, p + 1)
            sig_base = np.where(same, sigma[par] // pp_par, sigma[par])
            child["pp"] = new_pp
            child["sigma"] = sig_base * new_pp
        if want_moments:
            e_par = blk["e"][par]
            tau_par = blk["tau"][par]
            child["e"] = np.where(same, e_par + 1, 1)
            child["tau"] = np.where(
                same, tau_par // (e_par + 1) * (e_par + 2), tau_par * 2
            )
            child["omega"] = blk["omega"][par] + ~same
        tally_rows(level + 1, child)
        stack.append((level + 1, child, 0))

    if want_moments:
        moments.histogram_omega = hist_omega.as_dict()
        moments.histogram_big_omega = hist_big
        moments.histogram_tau = hist_tau.as_dict()
        return moments
    return counts_out


# ---- public counting / moments API ----


def _resolve_engine(engine: str, family: ThetaFamily, x: int) -> str:
    if engine not in ("auto", "python", "numpy"):
        raise DomainError(f"unknown engine {engine!r}")
    if engine == "numpy":
        if not _numpy_safe(family, x):
            raise DomainError("query exceeds the vector engine's int64 range")
        return "numpy"
    if engine == "auto" and x >= _NUMPY_MIN_X and _numpy_safe(family, x):
        return "numpy"
    return "python"


def count_members_multi(
    family: ThetaFamily,
    x: int,
    qs: list[int],
    threads: int = 1,
    engine: str = "auto",
) -> list[int]:
    """Counts of members n <= x with q | n, for each q in qs, in one pass."""
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if any(q < 1 for q in qs):
        raise DomainError("every divisor filter q must be >= 1")
    if _resolve_engine(engine, family, x) == "numpy":
        return _frontier_run(family, x, qs=qs, moments=None)
    tasks = [(family, x, p, a, qs) for p, a in _top_branches(family, x)]
    partials = _run_branches(tasks, _counts_branch_task, threads)
    totals = [1 if q == 1 else 0 for q in qs]  # root member n = 1
    for part in partials:
        for k, v in enumerate(part):
            totals[k] += v
    return totals


def count_members(query: CountQuery, threads: int = 1, engine: str = "auto") -> int:
    """Exact |{members n <= x : q | n}| for the query's family."""
    return count_members_multi(
        query.family, query.x, [query.q], threads=threads, engine=engine
    )[0]


def collect_moments(
    family: ThetaFamily,
    x: int,
    xi: float,
    expected: float,
    threads: int = 1,
    engine: str = "auto",
) -> MomentSummary:
    """One enumeration pass filling every MomentSummary field.

    expected and xi define the exceedance rule |omega - expected| >
    xi*sqrt(max(ln ln x, 0)); both are supplied by the caller.
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    dev = deviation_bound(x, xi)
    if _resolve_engine(engine, family, x) == "numpy":
        return _frontier_run(
            family, x, qs=None, moments=MomentSummary(expected=expected, deviation_bound=dev)
        )
    total = MomentSummary(expected=expected, deviation_bound=dev)
    total.add(0, 0, 1)  # root member n = 1
    tasks = [(family, x, p, a, expected, dev) for p, a in _top_branches(family, x)]
    for part in _run_branches(tasks, _moments_branch_task, threads):
        total.merge(part)
    return total


def collect_divisor_counts(
    family: ThetaFamily,
    x: int,
    n_min: int = 0,
    threads: int = 1,
    engine: str = "auto",
) -> tuple[np.ndarray, np.ndarray]:
    """(n, tau) arrays over members with n_min < n <= x, ascending in n.

    The ascending sort makes the output a pure function of the query, bit
    identical across engines and worker counts.
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if n_min < 0:
        raise DomainError(f"n_min must be >= 0, got {n_min}")
    if _resolve_engine(engine, family, x) == "numpy":
        n_blocks: list[np.ndarray] = []
        tau_blocks: list[np.ndarray] = []

        def sink(blk: dict[str, np.ndarray]) -> None:
            keep = blk["n"] > n_min
            if keep.any():
                n_blocks.append(blk["n"][keep])
                tau_blocks.append(blk["tau"][keep])

        _frontier_run(
            family,
            x,
            qs=None,
            moments=MomentSummary(expected=0.0, deviation_bound=math.inf),
            row_hook=sink,
            collapse=False,
        )
        n_all = (
            np.concatenate(n_blocks) if n_blocks else np.empty(0, dtype=np.int64)
        )
        tau_all = (
            np.concatenate(tau_blocks) if tau_blocks else np.empty(0, dtype=np.int64)
        )
    else:
        ns: list[int] = [1] if n_min < 1 else []
        taus: list[int] = [1] if n_min < 1 else []
        tasks = [(family, x, p, a, n_min) for p, a in _top_branches(family, x)]
        for part_n, part_tau in _run_branches(tasks, _tau_branch_task, threads):
            ns.extend(part_n)
            taus.extend(part_tau)
        n_all = np.asarray(ns, dtype=np.int64)
        tau_all = np.asarray(taus, dtype=np.int64)
    order = np.argsort(n_all, kind="stable")
    return n_all[order], tau_all[order]
