"""Supporting experiments: density scans over n, six-prime short-interval
witnesses, small-order prime censuses, smooth-divisor statistics, and
prime-gap probes.

All fractional-exponent thresholds (interval width r**0.61, order bound
r**0.3, pairwise-gcd bound r**0.001, lcm bound r**5.194) are carried as
integer exponent pairs and decided by exact big-integer comparison.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from math import gcd, lcm
from typing import Optional

from .certify import CERTIFICATE_KINDS, Integral, _check_instance, classify
from .exact import ceil_power, floor_power, power_compare
from .ntheory import U64_LIMIT, is_prime, next_prime, order2, primes_in, smooth_divisor
from .records import CLASSIFICATION_KINDS, classification_kind

TUPLE_SIZE = 6
_PAIRS = tuple(combinations(range(TUPLE_SIZE), 2))  # (i, j), i < j, lexicographic
LCM_PREFIX = 4  # the lcm bound uses the four smallest primes of the tuple

CENSUS_LIMIT = 10**7
SCAN_RANGE_LIMIT = 10**7
SMOOTH_WORK_LIMIT = 10**7

# Exponent thresholds of the six-prime witness search, as (num, den) pairs:
# x passes "x < r**(num/den)" iff x**den < r**num, etc.
INTERVAL_EXP = (61, 100)  # primes drawn from (r, r + r**0.61]
ORDER_EXP = (3, 10)       # require order2(p) > r**0.3
GCD_EXP = (1, 1000)       # require gcd(p-1, q-1) < r**0.001; the one callers vary
LCM_EXP = (2597, 500)     # check lcm bound M > r**5.194


@dataclass(frozen=True)
class TupleWitness:
    """Six primes from a short interval above r, with the data needed to
    re-check every selection condition from scratch."""

    r: int
    primes: tuple[int, ...]     # strictly increasing
    orders: tuple[int, ...]     # order2 of each prime
    pair_gcds: tuple[int, ...]  # gcd(p_i - 1, p_j - 1), i < j, lexicographic
    lcm_m: int                  # lcm of the four smallest primes and their orders


@dataclass(frozen=True)
class TupleSearch:
    """Outcome of a six-prime search: the witness when one exists, plus
    diagnostics either way."""

    r: int
    witness: Optional[TupleWitness]
    interval: tuple[int, int]  # inclusive search window [r+1, r+width]
    interval_primes: int
    order_passed: int


def find_tuple(r: int, gcd_exp: tuple[int, int] = GCD_EXP) -> TupleSearch:
    """Search (r, r + floor(r**0.61)] for six primes whose orders of 2 all
    beat the order threshold and whose shifted values p - 1 are pairwise
    nearly coprime.

    Candidates that pass the order filter are extended greedily in
    ascending order, backtracking on pairwise-gcd conflicts.  Absence is a
    result, not an error: with the default thresholds the gcd condition
    gcd(p_i - 1, p_j - 1) < r**0.001 needs r > 2**1000 because both
    shifted values are even, so every feasible r reports no witness.
    """
    if r < 2:
        raise ValueError(f"find_tuple needs r >= 2: got {r}")
    width = floor_power(r, *INTERVAL_EXP)
    lo, hi = r + 1, r + width
    primes = primes_in(lo, hi)
    candidates = [p for p in primes if power_compare(order2(p), r, *ORDER_EXP) > 0]
    witness = _select_tuple(r, candidates, gcd_exp)
    return TupleSearch(
        r=r,
        witness=witness,
        interval=(lo, hi),
        interval_primes=len(primes),
        order_passed=len(candidates),
    )


def _select_tuple(r: int, candidates: list[int], gcd_exp: tuple[int, int]) -> Optional[TupleWitness]:
    gcd_bound = ceil_power(r, *gcd_exp)  # g < r**(num/den) iff g < gcd_bound
    chosen: list[int] = []

    def extend(start: int) -> bool:
        if len(chosen) == TUPLE_SIZE:
            return True
        for i in range(start, len(candidates)):
            p = candidates[i]
            if all(gcd(p - 1, q - 1) < gcd_bound for q in chosen):
                chosen.append(p)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    if not extend(0):
        return None
    primes = tuple(chosen)
    orders = tuple(order2(p) for p in primes)
    pair_gcds = tuple(gcd(primes[i] - 1, primes[j] - 1) for i, j in _PAIRS)
    lcm_m = lcm(*primes[:LCM_PREFIX], *orders[:LCM_PREFIX])
    return TupleWitness(r=r, primes=primes, orders=orders, pair_gcds=pair_gcds, lcm_m=lcm_m)


@dataclass(frozen=True)
class TupleCheck:
    """verify_tuple outcome; the lcm bound is reported separately because
    it is a consequence of the other conditions, not a selection filter."""

    conditions_ok: bool
    bound_ok: bool
    failures: tuple[str, ...]


def verify_tuple(w: TupleWitness, gcd_exp: tuple[int, int] = GCD_EXP) -> TupleCheck:
    """Re-check the witness from scratch.  Its shape (r >= 2, six increasing
    primes, six orders, fifteen pair gcds) is checked first and reported
    alone when it fails; then each prime's primality, interval and order, the
    pair gcds, the stored lcm, and apart from these M > r**(LCM_EXP)."""
    r, primes = w.r, w.primes
    fails: list[str] = []
    if r < 2:
        fails.append(f"r={r} out of range")
    if len(primes) != TUPLE_SIZE:
        fails.append(f"expected {TUPLE_SIZE} primes, got {len(primes)}")
    if any(p >= q for p, q in zip(primes, primes[1:])):
        fails.append("primes not strictly increasing")
    if (len(w.orders), len(w.pair_gcds)) != (TUPLE_SIZE, len(_PAIRS)):
        fails.append(f"expected {TUPLE_SIZE} orders, {len(_PAIRS)} pair gcds: got {len(w.orders)}, {len(w.pair_gcds)}")
    bound_ok = r >= 1 and w.lcm_m >= 1 and power_compare(w.lcm_m, r, *LCM_EXP) > 0
    if fails:
        return TupleCheck(conditions_ok=False, bound_ok=bound_ok, failures=tuple(fails))

    inum, iden = INTERVAL_EXP
    orders: list[int] = []  # recomputed, never read from w.orders
    for p, stored in zip(primes, w.orders):
        if p <= 2 or p >= U64_LIMIT or not is_prime(p):
            fails.append(f"p={p} is not an odd prime")
            continue
        if p <= r or power_compare(p - r, r, inum, iden) > 0:
            fails.append(f"p={p} outside (r, r + r**({inum}/{iden})]")
        orders.append(t := order2(p))
        if stored != t:
            fails.append(f"stored order {stored} != order2({p}) = {t}")
        if power_compare(t, r, *ORDER_EXP) <= 0:
            fails.append(f"order2({p}) = {t} fails the order threshold")

    if not fails:  # then every prime passed, and orders holds all six
        for (i, j), stored in zip(_PAIRS, w.pair_gcds):
            g = gcd(primes[i] - 1, primes[j] - 1)
            if stored != g:
                fails.append(f"stored gcd {stored} != gcd for pair ({i},{j}) = {g}")
            if power_compare(g, r, *gcd_exp) >= 0:
                fails.append(f"gcd {g} for pair ({i},{j}) fails the gcd threshold")
        expected_lcm = lcm(*primes[:LCM_PREFIX], *orders[:LCM_PREFIX])
        if w.lcm_m != expected_lcm:
            fails.append(f"stored lcm {w.lcm_m} != recomputed {expected_lcm}")
    return TupleCheck(conditions_ok=not fails, bound_ok=bound_ok, failures=tuple(fails))


@dataclass
class ScanReport:
    """Aggregated classification tallies over one (r, n)-range."""

    r: int
    n_lo: int
    n_hi: int
    counts: dict[str, int] = field(default_factory=dict)
    cert_counts: dict[str, int] = field(default_factory=dict)
    integral_witnesses: list[int] = field(default_factory=list)


def scan_density(r: int, n_lo: int, n_hi: int) -> ScanReport:
    """Classify every n in [n_lo, n_hi] and tally the outcomes.

    The aggregate is deterministic: splitting the range and summing the
    parts' counts gives the counts of the whole.
    """
    if n_lo > n_hi:
        raise ValueError(f"empty scan range [{n_lo}, {n_hi}]")
    _check_instance(r, n_lo)
    _check_instance(r, n_hi)
    if n_hi - n_lo + 1 > SCAN_RANGE_LIMIT:
        raise ValueError(f"scan range size {n_hi - n_lo + 1} exceeds limit {SCAN_RANGE_LIMIT}")
    counts = {k: 0 for k in CLASSIFICATION_KINDS}
    cert_counts = {k: 0 for k in CERTIFICATE_KINDS}
    integral: list[int] = []
    for n in range(n_lo, n_hi + 1):
        outcome = classify(r, n)
        counts[classification_kind(outcome)] += 1
        if isinstance(outcome, Integral):
            integral.append(n)
        else:
            cert_counts[outcome.kind] += 1
    return ScanReport(
        r=r,
        n_lo=n_lo,
        n_hi=n_hi,
        counts=counts,
        cert_counts=cert_counts,
        integral_witnesses=integral,
    )


def small_order_census(t: int) -> tuple[int, list[int]]:
    """Count (and list) the odd primes q <= t whose order of 2 is at most
    q**0.3, i.e. order2(q)**10 <= q**3.

    Each prime costs one reduced power: with K = floor(t**0.3) and
    L = lcm(1, ..., K), computed once, q is kept only if
    pow(2, L mod (q - 1), q) == 1, and order2 decides the few it keeps.  No
    hit is lost.  If order2(q)**10 <= q**3 <= t**3, then order2(q) <= K, so
    order2(q) | L and 2**L == 1 (mod q).  By Fermat, 2**(q - 1) == 1 (mod q),
    so 2**L == 2**(L mod (q - 1)) (mod q).  At CENSUS_LIMIT, K = 125 and L
    has 176 bits.
    """
    if t < 1:
        raise ValueError(f"census bound must be >= 1: got {t}")
    if t > CENSUS_LIMIT:
        raise ValueError(f"census bound {t} exceeds limit {CENSUS_LIMIT}")
    if t < 3:
        return 0, []
    big_l = lcm(*range(1, floor_power(t, 3, 10) + 1))
    hits = [
        q
        for q in primes_in(3, t)
        if pow(2, big_l % (q - 1), q) == 1 and power_compare(order2(q), q, 3, 10) <= 0
    ]
    return len(hits), hits


@dataclass(frozen=True)
class SmoothStats:
    """Empirical maximum of the windowed smooth-divisor minimum M_r(n)
    over 1 <= n <= n_max."""

    r: int
    n_max: int
    m_max: int
    argmax_n: int       # least n attaining m_max
    exceeds_log: bool   # 2**m_max > r


def m_of_r(r: int, n_max: int) -> SmoothStats:
    """Maximize M_r(n) = min_{1<=j<=r} s_r(n+j) over 1 <= n <= n_max.

    Computed with a sliding window minimum so each of the n_max + r - 1
    smooth divisors s_r(2), ..., s_r(n_max + r) is evaluated once; that
    count is what SMOOTH_WORK_LIMIT bounds.
    """
    _check_instance(r, n_max)
    if n_max + r - 1 > SMOOTH_WORK_LIMIT:
        raise ValueError(f"n_max + r - 1 = {n_max + r - 1} smooth divisors exceed work limit {SMOOTH_WORK_LIMIT}")
    best_m, best_n = 0, 0
    window: deque[tuple[int, int]] = deque()  # (i, s_r(i)), s-values increasing
    for i in range(2, n_max + r + 1):
        s = smooth_divisor(r, i)
        while window and window[-1][1] >= s:
            window.pop()
        window.append((i, s))
        n = i - r
        if n >= 1:
            while window[0][0] < n + 1:
                window.popleft()
            m = window[0][1]
            if m > best_m:
                best_m, best_n = m, n
    return SmoothStats(
        r=r,
        n_max=n_max,
        m_max=best_m,
        argmax_n=best_n,
        exceeds_log=best_m >= r.bit_length(),  # 2**m_max > r
    )


@dataclass(frozen=True)
class GapProbe:
    """Next prime above n, with the gap sized against n**(1/20) and
    n**(1/11) by exact comparison (-1 / 0 / +1 = below / at / above)."""

    n: int
    next_prime: int
    gap: int
    gap20_vs_n: int  # sign of gap**20 - n
    gap11_vs_n: int  # sign of gap**11 - n


def gap_probe(n: int) -> GapProbe:
    """Least prime above n (next_prime) and the resulting gap, for
    1 <= n < 2**64; raises ValueError when (n, 2**64) holds no prime."""
    if not 1 <= n < U64_LIMIT:
        raise ValueError(f"gap_probe needs 1 <= n < 2**64: got {n}")
    x = next_prime(n)
    if x is None:
        raise ValueError(f"no prime in ({n}, 2**64)")
    gap = x - n
    return GapProbe(
        n=n,
        next_prime=x,
        gap=gap,
        gap20_vs_n=power_compare(gap, n, 1, 20),
        gap11_vs_n=power_compare(gap, n, 1, 11),
    )
