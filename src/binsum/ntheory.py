"""Integer primality, factorization, and prime-window primitives.

Everything here is exact and deterministic.  The supported domain for
primality and factorization is m < 2**64; that bound is what makes the
fixed Miller-Rabin witness set unconditional, so out-of-range inputs are
rejected rather than answered probabilistically.  primes_in bounds its
memory: it sieves [a, b] only when isqrt(b) <= 2**22, b - a <= WINDOW_LIMIT.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import compress
from typing import Optional

U64_LIMIT = 1 << 64

# primes_in's domain, memory guards rather than correctness bounds: the
# width b - a of a window and isqrt(b), which caps its base primes.
WINDOW_LIMIT = 10**8
_DENSE_ROOT_LIMIT = 1 << 22

# Sinclair's seven Miller-Rabin bases, deterministic for every m < 2**64.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_TRIAL_LIMIT = 1000          # trial-divide by all primes below this first
_SEGMENT = 1 << 18           # segment width for windowed sieving

# primes_upto's cache: every prime <= _small_limit, ascending
_small_primes = [2, 3, 5, 7]
_small_limit = 10
_SMALL_CEILING = 1 << 26


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending, for every n < 2**26; any larger n raises
    ValueError, whatever the cache holds.  From an unwarmed cache, growing
    to 2**27 would sieve a window wider than WINDOW_LIMIT, so the answer for
    2**26 <= n < 2**27 would otherwise depend on earlier calls.  A call above
    the cache grows it to the next power of two, limit, by
    primes_in(_small_limit + 1, limit).  That call may grow the cache first,
    which is safe: the old list is read before primes_in runs, and primes_in
    needs only the primes <= isqrt(limit), so the nested calls end at the
    seeded primes <= 10."""
    global _small_primes, _small_limit
    if n >= _SMALL_CEILING:
        raise ValueError(f"primes_upto serves n < 2**26: got {n}")
    if n > _small_limit:
        limit = 1 << n.bit_length()
        _small_primes = _small_primes + primes_in(_small_limit + 1, limit)
        _small_limit = limit
    return _small_primes[: bisect_right(_small_primes, n)]


def is_prime(m: int) -> bool:
    """Deterministic primality test for 1 <= m < 2**64.  It keeps no
    cache: the scans that walk integers do so through next_prime's memo.

    Miller-Rabin runs only on m >= 10**6 with no prime factor below
    _TRIAL_LIMIT = 1000.  The tiny primes 2..37 go first, one remainder
    each, cheaper than the gcd below on the many m they divide; an m they
    pass has no prime factor below 41.  Then g = gcd(m, _TRIAL_PRODUCT), the
    product of the primes below 1000.  If g != 1, a prime p < 1000 divides
    m: an m < 1000 is prime, as a composite would be >= 41**2 > 1000, and an
    m >= 1000 is not, as p < m divides it.  If g = 1, m has no prime factor
    below 1000.  A composite m has a prime factor <= isqrt(m), so such a
    composite is >= 1009**2 (1009 is the least prime above 1000) > 10**6.
    Hence every m < 10**6 with g = 1 is 1 or a prime.  Above that,
    Miller-Rabin to the seven bases of _MR_WITNESSES is exact: Sinclair's
    set has no strong pseudoprime below 2**64.
    """
    if not 1 <= m < U64_LIMIT:
        raise ValueError(f"is_prime domain is [1, 2**64): got {m}")
    for p in _TINY_PRIMES:
        if m % p == 0:
            return m == p
    if math.gcd(m, _TRIAL_PRODUCT) != 1:
        return m < _TRIAL_LIMIT
    if m < _TRIAL_LIMIT**2:
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


# next_prime's memo (n0, P, window).  window = (w, p1, ..., pk): p1 < ... < pk
# are all the primes in (w, pk], except that pk may be U64_LIMIT, which stands
# for "none below 2**64".  (n0, P) are consecutive entries of window, so
# (n0, P) holds no prime.
_next_prime_memo: tuple[int, int, tuple[int, ...]] = (0, 2, (0, 2))

# next_prime sieves the window (n, n + _PRIME_WINDOW] while its base primes
# are the primes below _PRIME_WINDOW, that is while n + _PRIME_WINDOW < 2**24.
_PRIME_WINDOW = 1 << 12


def next_prime(n: int) -> Optional[int]:
    """Least prime above n, for 0 <= n < 2**64; None when (n, 2**64) holds
    no prime (n >= 2**64 - 59, the largest prime below 2**64).

    The memo (n0, P, window) answers every n with n0 <= n < P at once: no
    prime lies in (n0, P), so none lies in (n, P) either.  An n that window
    covers, w <= n < pk, takes by bisection the least p_i above n, which is
    the answer as window holds every prime in (w, pk]; the memo's (n0, P)
    become that p_i and the entry before it.  Any other n fills a new window
    from n.  For n + W < W**2 (W = _PRIME_WINDOW = 4096, so
    n < 2**24 - 4096) that is (n, *primes_in(n + 1, n + W)), when the
    sieved window holds a prime.  Otherwise a walk tests n+1, n+2, ... with
    is_prime and makes the window (n, P') of the prime P' it finds, or
    (n, 2**64) when it finds none.  Each memo keeps the invariants above,
    so the answer depends on n alone, whatever was asked before.  A scan
    over increasing n sieves or tests each integer once: it leaves a window
    only at n = pk, and the next window starts there.

    Why the window and its rule: a sieve pass costs a slice per base prime,
    whatever the window's width, and then a fraction of a microsecond per
    integer, against about a microsecond per is_prime test of the walk.
    Under the rule the base primes are the 564 primes below 4096, and a
    4096-wide window costs less than the walk over its integers.  A
    65 536-wide window was not measurably faster on scans, and it slowed
    callers that ask for scattered n, each of which pays for a whole
    window.  Above the rule the base primes grow with sqrt(n): near 10**12
    a window this narrow costs several times the walk, so larger n keep
    the walk.
    """
    global _next_prime_memo
    n0, p, window = _next_prime_memo
    if not n0 <= n < p:
        if not window[0] <= n < window[-1]:
            if not 0 <= n < U64_LIMIT:
                raise ValueError(f"next_prime domain is [0, 2**64): got {n}")
            window = (n, *primes_in(n + 1, n + _PRIME_WINDOW)) if n + _PRIME_WINDOW < _PRIME_WINDOW**2 else ()
            if len(window) < 2:
                for p in range(n + 1, U64_LIMIT):
                    if is_prime(p):
                        break
                else:
                    p = U64_LIMIT
                window = (n, p)
        i = bisect_right(window, n, 1)
        p = window[i]
        _next_prime_memo = (window[i - 1], p, window)
    return p if p < U64_LIMIT else None


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


def _factorize(m: int) -> list[tuple[int, int]]:
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if is_prime(v):
            factors[v] = factors.get(v, 0) + 1
        else:
            d = _rho_factor(v)
            stack += d, v // d
    return sorted(factors.items())


def factorize(m: int) -> list[tuple[int, int]]:
    """Complete prime factorization of 2 <= m < 2**64 as ascending
    (prime, exponent) pairs."""
    if not 2 <= m < U64_LIMIT:
        raise ValueError(f"factorize domain is [2, 2**64): got {m}")
    return _factorize(m)


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
            if p * p > m:
                break
            while m % p == 0:
                m //= p
                s *= p
        # what is left of m is 1 or a prime when the loop broke at p * p > m,
        # and has no prime factor <= r when it did not
        return s * m if m <= r else s
    return math.prod(p**e for p, e in _factorize(m) if p <= r)


def primes_in(a: int, b: int) -> list[int]:
    """All primes p with a <= p <= b, ascending, by a segmented sieve with
    the base primes <= isqrt(b).  The domain is 1 <= a <= b with
    b - a <= WINDOW_LIMIT and isqrt(b) <= 2**22 (b <= 2**44 + 2**23), both
    memory bounds; any other window raises ValueError."""
    if not 1 <= a <= b:
        raise ValueError(f"primes_in needs 1 <= a <= b: got [{a}, {b}]")
    if b - a > WINDOW_LIMIT:
        raise ValueError(f"window width {b - a} exceeds limit {WINDOW_LIMIT}")
    root = math.isqrt(b)
    if root > _DENSE_ROOT_LIMIT:
        raise ValueError(f"primes_in needs isqrt(b) <= {_DENSE_ROOT_LIMIT}: got {root}")
    base = primes_upto(root)
    out = []
    lo = max(a, 2)
    while lo <= b:
        hi = min(lo + _SEGMENT - 1, b)
        seg = bytearray([1]) * (hi - lo + 1)
        for p in base:
            if p * p > hi:
                break
            start = max(p * p, (lo + p - 1) // p * p)  # <= hi + p - 1: count >= 0
            seg[start - lo :: p] = bytearray((hi - start) // p + 1)
        out += compress(range(lo, hi + 1), seg)
        lo = hi + 1
    return out


# The primes below 2**16, fixed at import: order_certificate walks them, and
# is_prime and _factorize trial-divide by their head.
_PRIME_TABLE = tuple(primes_upto(2**16 - 1))
_TINY_PRIMES = _PRIME_TABLE[:12]  # 2..37
_TRIAL_PRIMES = _PRIME_TABLE[: bisect_right(_PRIME_TABLE, _TRIAL_LIMIT)]
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)
