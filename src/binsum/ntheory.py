"""Integer primality, factorization, and prime-window primitives.

Everything here is exact and deterministic.  The supported domain for
primality and factorization is m < 2**64; that bound is what makes the
fixed Miller-Rabin witness set unconditional, so out-of-range inputs are
rejected rather than answered probabilistically.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

U64_LIMIT = 1 << 64

# Default cap on the width of a primes_in() request (memory guard, not a
# correctness bound).
WINDOW_LIMIT = 10**8

# Deterministic Miller-Rabin witnesses for every m < 3.3 * 10**24 > 2**64.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 1000          # trial-divide by all primes below this first
_SEGMENT = 1 << 18           # segment width for windowed sieving
_DENSE_ROOT_LIMIT = 1 << 22  # sieve windows when isqrt(b) fits below this
_NARROW_FACTOR = 4           # see primes_in: the per-candidate switch

_small_primes: list[int] = []
_small_limit = 0


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending.  Backed by a growing cached sieve."""
    global _small_primes, _small_limit
    if n > _small_limit:
        limit = max(2048, 1 << n.bit_length())
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        primes = [i for i, f in enumerate(sieve) if f]
        # publish the list before raising the limit so concurrent readers
        # never see a short list with a high limit
        _small_primes = primes
        _small_limit = limit
    return _small_primes[: bisect_right(_small_primes, n)]


def is_prime(m: int) -> bool:
    """Deterministic primality test for 1 <= m < 2**64."""
    if not 1 <= m < U64_LIMIT:
        raise ValueError(f"is_prime domain is [1, 2**64): got {m}")
    for p in _TINY_PRIMES:
        if m % p == 0:
            return m == p
    if m < 41 * 41:
        return m > 1
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        a %= m
        if a == 0:
            continue
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _brent_rho(m: int, c: int) -> int:
    """One Brent cycle-finding pass on x -> x*x + c mod m; returns a divisor
    of m, possibly the trivial one (m itself)."""
    y, r, q = 2, 1, 1
    g, x, ys = 1, 0, 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % m
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % m
                q = q * abs(x - y) % m
            g = math.gcd(q, m)
            k += 128
        r *= 2
    if g == m:
        while True:
            ys = (ys * ys + c) % m
            g = math.gcd(abs(x - ys), m)
            if g > 1:
                break
    return g


def _rho_factor(m: int) -> int:
    """Nontrivial factor of an odd composite m.  The polynomial constant is
    swept deterministically so repeated runs factor identically."""
    for c in range(1, 10000):
        g = _brent_rho(m, c)
        if 1 < g < m:
            return g
    raise ArithmeticError(f"rho parameter sweep exhausted on {m}")


@lru_cache(maxsize=1 << 16)
def _factorize(m: int) -> tuple[tuple[int, int], ...]:
    factors: dict[int, int] = {}
    for p in primes_upto(_TRIAL_LIMIT):
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    if m > 1:
        stack = [m]
        while stack:
            v = stack.pop()
            if is_prime(v):
                factors[v] = factors.get(v, 0) + 1
            else:
                d = _rho_factor(v)
                stack.append(d)
                stack.append(v // d)
    return tuple(sorted(factors.items()))


def factorize(m: int) -> list[tuple[int, int]]:
    """Complete prime factorization of 2 <= m < 2**64 as ascending
    (prime, exponent) pairs."""
    if not 2 <= m < U64_LIMIT:
        raise ValueError(f"factorize domain is [2, 2**64): got {m}")
    return list(_factorize(m))


def largest_prime_factor(m: int) -> int:
    """Largest prime dividing m (m >= 2)."""
    if m < 2:
        raise ValueError(f"largest_prime_factor needs m >= 2: got {m}")
    return factorize(m)[-1][0]


@lru_cache(maxsize=1 << 16)
def order2(p: int) -> int:
    """Multiplicative order of 2 modulo an odd prime p: the least t >= 1
    with 2**t == 1 (mod p).

    Computed by factoring p - 1 and peeling prime factors off the exponent
    while the power stays at 1.
    """
    if p == 2:
        raise ValueError("the order of 2 is undefined modulo 2")
    if not is_prime(p):
        raise ValueError(f"order2 needs an odd prime: got {p}")
    t = p - 1
    for q, _ in _factorize(p - 1):
        while t % q == 0 and pow(2, t // q, p) == 1:
            t //= q
    return t


@dataclass(frozen=True)
class PrimeRecord:
    """An odd prime bundled with the order of 2 and the factored p - 1."""

    p: int
    order2: int
    pminus1: tuple[tuple[int, int], ...]


def prime_record(p: int) -> PrimeRecord:
    return PrimeRecord(p=p, order2=order2(p), pminus1=_factorize(p - 1))


def smooth_divisor(r: int, m: int) -> int:
    """Largest divisor of m with all prime factors <= r; 1 when none."""
    if r < 1:
        raise ValueError(f"smooth_divisor needs r >= 1: got {r}")
    if not 1 <= m < U64_LIMIT:
        raise ValueError(f"smooth_divisor domain is [1, 2**64): got {m}")
    if m == 1 or r < 2:
        return 1
    if r <= 4096:
        s = 1
        for p in primes_upto(r):
            if p > m:
                break
            while m % p == 0:
                m //= p
                s *= p
        return s
    return math.prod(p**e for p, e in _factorize(m) if p <= r)


def primes_in(a: int, b: int, *, window_limit: int = WINDOW_LIMIT) -> list[int]:
    """All primes p with a <= p <= b, ascending.

    Selection rule, from (a, b) alone: with root = isqrt(b), each odd
    candidate gets its own is_prime test when root > _DENSE_ROOT_LIMIT or
    the window is narrow, (b - a) * 4 * root.bit_length() < root; otherwise
    the window is sieved with the primes <= root.

    Why: a sieve pass visits every base prime once, so its cost grows with
    pi(root) ~ root / (0.69 * root.bit_length()) whatever the width, while
    testing costs a few microseconds per odd candidate.  So the switch width
    root / (4 * root.bit_length()) is about pi(root) / 6.  Timed on a
    2-vCPU x86 VM, the two paths break even near width 16 at root 10**2,
    64 at 10**3, 350 at 10**4, 1000-2000 at 10**5 and 6000-12000 at 10**6,
    where one sieve pass costs ~30 ms.  The rule switches at 3, 24, 178,
    1470 and 12499: at the crossover for roots >= 10**5, and earlier
    (keeping the sieve) below, where both paths cost under a millisecond
    and a call's fixed costs favour testing.  Classifying r = 7 at
    n = 10**12 tests width-6 windows; r = 23 at n <= 10**5 sieves its
    width-22 windows (root <= 322).
    """
    if not 1 <= a <= b < U64_LIMIT:
        raise ValueError(f"primes_in needs 1 <= a <= b < 2**64: got [{a}, {b}]")
    if b - a > window_limit:
        raise ValueError(f"window width {b - a} exceeds limit {window_limit}")
    a = max(a, 2)
    if b < 2:
        return []
    root = math.isqrt(b)
    if root > _DENSE_ROOT_LIMIT or (b - a) * _NARROW_FACTOR * root.bit_length() < root:
        return _test_window(a, b)
    return _sieve_window(a, b, root)


def _test_window(a: int, b: int) -> list[int]:
    """Primes in [a, b] (2 <= a <= b < 2**64) by one is_prime per odd candidate."""
    out = [2] if a == 2 else []
    for x in range(a | 1, b + 1, 2):
        if is_prime(x):
            out.append(x)
    return out


def _sieve_window(a: int, b: int, root: int) -> list[int]:
    """Primes in [a, b] (2 <= a <= b, root = isqrt(b)) by a segmented sieve
    with the base primes <= root."""
    base = primes_upto(root)
    out = []
    lo = a
    while lo <= b:
        hi = min(lo + _SEGMENT - 1, b)
        seg = bytearray([1]) * (hi - lo + 1)
        for p in base:
            if p * p > hi:
                break
            start = max(p * p, (lo + p - 1) // p * p)
            if start > hi:
                continue
            seg[start - lo :: p] = bytearray((hi - start) // p + 1)
        out.extend(lo + i for i, f in enumerate(seg) if f)
        lo = hi + 1
    return out


def iter_primes(a: int, b: int):
    """Yield primes in [a, b] ascending, sieving one segment at a time.

    Unlike primes_in this has no window cap, so it suits early-exit
    searches over potentially wide ranges.
    """
    lo = a
    while lo <= b:
        hi = min(lo + _SEGMENT - 1, b)
        yield from primes_in(lo, hi)
        lo = hi + 1
