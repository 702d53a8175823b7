import bisect
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from binsum import ntheory
from binsum.certify import OrderCertificate, classify
from binsum.ntheory import (
    U64_LIMIT,
    factorize,
    is_prime,
    next_prime,
    order2,
    primes_in,
    primes_upto,
    smooth_divisor,
)


def trial_is_prime(m):
    if m < 2:
        return False
    for d in range(2, math.isqrt(m) + 1):
        if m % d == 0:
            return False
    return True


def test_is_prime_examples():
    assert is_prime(97)
    assert not is_prime(91)  # 7 * 13
    assert is_prime(2147483647)
    assert not is_prime(1)


def test_is_prime_agrees_with_trial_division():
    for m in range(1, 2000):
        assert is_prime(m) == trial_is_prime(m), m


def test_is_prime_matches_a_plain_sieve_past_the_trial_square():
    # crosses 10**6, below which no Miller-Rabin runs, and 1009 * 1013, the
    # second composite above it with no prime factor below 1000
    limit = 1_100_000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    assert 1009**2 < 1009 * 1013 < limit
    assert [m for m in range(1, limit + 1) if is_prime(m)] == [m for m in range(limit + 1) if sieve[m]]


@pytest.mark.parametrize("m, factors", [
    (3825123056546413051, (149491, 747451, 34233211)),   # strong pseudoprime to bases 2..23
    (341550071728321, (10670053, 32010157)),             # strong pseudoprime to bases 2..17
    (561, (3, 11, 17)),                                  # Carmichael numbers
    (41041, (7, 11, 13, 41)),
    (9624742921, (1171, 2341, 3511)),
    (18404023255395111361, (1452961, 2905921, 4358881)),
    (4294967279 * 4294967291, (4294967279, 4294967291)),  # semiprimes near 2**64
    (4294967291**2, (4294967291, 4294967291)),
    (1009 * 18282204235589093, (1009, 18282204235589093)),
    (1013 * 18210013893099257, (1013, 18210013893099257)),
    (997 * 18502250826188083, (997, 18502250826188083)),
], ids=["spsp-2-23", "spsp-2-17", "carmichael-561", "carmichael-41041", "carmichael-1171",
        "carmichael-near-2**64", "semiprime-2**32", "square-2**32", "semiprime-1009", "semiprime-1013",
        "semiprime-997"])
def test_is_prime_refuses_hard_composites(m, factors):
    # the gcd with the primes below 1000 and the 10**6 bound must still send
    # these to Miller-Rabin (or catch their factor below 1000)
    assert math.prod(factors) == m < U64_LIMIT
    assert all(is_prime(p) for p in factors)
    assert not is_prime(m)


def test_is_prime_rejects_out_of_domain():
    for _ in range(2):  # a raising call is not cached, so it raises again
        with pytest.raises(ValueError):
            is_prime(0)
        with pytest.raises(ValueError):
            is_prime(U64_LIMIT)


def test_primes_upto_matches_trial_division():
    assert primes_upto(100) == [m for m in range(2, 101) if trial_is_prime(m)]


def plain_sieve(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [m for m, f in enumerate(sieve) if f]


def test_primes_upto_grows_its_cache_to_a_plain_sieve(monkeypatch):
    # each call from the seeded cache grows it, by primes_in, through each power of two
    monkeypatch.setattr(ntheory, "_small_primes", [2, 3, 5, 7])
    monkeypatch.setattr(ntheory, "_small_limit", 10)
    reference = plain_sieve((1 << 13) + 1)
    for n in [0, 1, 2] + [m for k in range(1, 14) for m in ((1 << k) - 1, 1 << k, (1 << k) + 1)]:
        assert primes_upto(n) == reference[: bisect.bisect_right(reference, n)], n
    # from the seeded cache, one call grows it to 2**23 and, nested in that
    # growth, to the 2**12 its base primes need
    monkeypatch.setattr(ntheory, "_small_primes", [2, 3, 5, 7])
    monkeypatch.setattr(ntheory, "_small_limit", 10)
    assert primes_upto(1 << 22) == plain_sieve(1 << 22)


@pytest.mark.parametrize("limit", [1 << 26, 1 << 27])
def test_primes_upto_refuses_2_26_whatever_the_cache_holds(monkeypatch, limit):
    # a cache grown past 2**26 (faked here: the list is never read) must not
    # turn the refusal into an answer
    monkeypatch.setattr(ntheory, "_small_primes", [2, 3, 5, 7])
    monkeypatch.setattr(ntheory, "_small_limit", limit)
    for n in (1 << 26, (1 << 27) - 1):
        with pytest.raises(ValueError, match="2\\*\\*26"):
            primes_upto(n)


def test_factorize_examples():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(1048575) == [(3, 1), (5, 2), (11, 1), (31, 1), (41, 1)]


def test_factorize_rejects_out_of_domain():
    with pytest.raises(ValueError):
        factorize(1)
    with pytest.raises(ValueError):
        factorize(U64_LIMIT)


def test_factorize_reassembles_random_sample():
    rng = random.Random(0xBEEF)
    for _ in range(10_000):
        m = rng.randrange(2, 1 << 40)
        factors = factorize(m)
        assert math.prod(p**e for p, e in factors) == m
        assert all(is_prime(p) for p, _ in factors)
        assert all(factors[i][0] < factors[i + 1][0] for i in range(len(factors) - 1))


def test_factorize_hard_semiprimes():
    p, q = 4294967291, 4294967279  # the two largest primes below 2**32
    assert factorize(p * q) == [(q, 1), (p, 1)]
    assert factorize(p * p) == [(p, 2)]


def test_order2_examples():
    assert order2(3) == 2
    assert order2(7) == 3
    assert order2(127) == 7


def test_order2_rejects_two_and_composites():
    with pytest.raises(ValueError):
        order2(2)
    with pytest.raises(ValueError):
        order2(91)


def test_order2_divides_p_minus_1_below_1e5():
    for p in primes_in(3, 10**5):
        assert (p - 1) % order2(p) == 0


def test_order2_is_minimal():
    for p in primes_in(3, 2000):
        t = order2(p)
        assert pow(2, t, p) == 1
        x = 2 % p
        for e in range(1, t):
            assert x != 1, (p, e)
            x = 2 * x % p


def test_prime_record_invariants():
    # a prime's order of 2 against its factored p - 1
    for p in (3, 7, 127, 8191, 99991):
        t = order2(p)
        pminus1 = factorize(p - 1)
        assert pow(2, t, p) == 1
        assert (p - 1) % t == 0
        assert math.prod(q**e for q, e in pminus1) == p - 1
        for q, _ in pminus1:
            if t % q == 0:
                assert pow(2, t // q, p) != 1


def test_smooth_divisor_examples():
    assert smooth_divisor(3, 360) == 72
    assert smooth_divisor(2, 360) == 8
    assert smooth_divisor(1, 360) == 1
    assert smooth_divisor(5, 1) == 1


@given(st.integers(1, 10**4), st.integers(2, 1 << 40))
@settings(max_examples=200)
def test_smooth_divisor_properties(r, m):
    s = smooth_divisor(r, m)
    assert m % s == 0
    cofactor = m // s
    if cofactor > 1:
        assert min(p for p, _ in factorize(cofactor)) > r
    assert all(p <= r for p, _ in factorize(s)) if s > 1 else True


def test_smooth_divisor_matches_factorize():
    # r <= 4096 trial-divides only up to isqrt of what is left of m
    rng = random.Random(24)
    for _ in range(20000):
        r = rng.randrange(1, 4097)
        m = rng.randrange(2, 10 ** rng.randrange(2, 13))
        assert smooth_divisor(r, m) == math.prod(p**e for p, e in factorize(m) if p <= r), (r, m)


@given(st.integers(1, 500), st.integers(1, 500), st.integers(2, 10**9))
def test_smooth_divisor_monotone_in_r(r1, r2, m):
    if r1 > r2:
        r1, r2 = r2, r1
    assert smooth_divisor(r1, m) <= smooth_divisor(r2, m)


def test_smooth_divisor_large_r_path():
    # r above the trial-division threshold exercises the factorize path
    assert smooth_divisor(10**6, 2**5 * 999983) == 2**5 * 999983
    assert smooth_divisor(10**6, 2**5 * 1000003) == 2**5


def test_primes_in_examples():
    assert primes_in(10, 20) == [11, 13, 17, 19]
    assert primes_in(2, 2) == [2]
    assert primes_in(100, 117) == [101, 103, 107, 109, 113]
    assert primes_in(1, 1) == []
    assert primes_in(90, 96) == []


def test_primes_in_rejects_bad_windows():
    with pytest.raises(ValueError):
        primes_in(10, 9)
    with pytest.raises(ValueError):
        primes_in(1, 10**9)


def test_primes_in_agrees_with_is_prime_on_random_windows():
    rng = random.Random(0xF00D)
    for _ in range(100):
        a = rng.randrange(1, 1 << 40)
        b = a + rng.randrange(0, 10**4)
        assert primes_in(a, b) == [m for m in range(a, b + 1) if is_prime(m)]


def plain_primes_in(a, b):
    """Primes in [a, b] by a plain sieve of Eratosthenes: base primes from a
    bytearray sieve up to isqrt(b), then their multiples struck from the window."""
    root = math.isqrt(b)
    flags = bytearray([1]) * (root + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(root) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    window = bytearray([1]) * (b - a + 1)
    for p in (i for i, f in enumerate(flags) if f):
        start = max(p * p, -(-a // p) * p)
        window[start - a :: p] = bytes(len(window[start - a :: p]))
    return [a + i for i, f in enumerate(window) if f and a + i >= 2]


@pytest.mark.parametrize("n", [10**6, 10**9, 10**12])
def test_primes_in_matches_a_plain_sieve(n):
    for width in (0, 1, 6, 24, 178, 1470, 12499, 25000):
        a, b = n + 1, n + 1 + width
        assert primes_in(a, b) == plain_primes_in(a, b), (n, width)


def sieved_next_primes(a, b):
    """{n: least prime above n} for a <= n < b.  Below 2**44 from a plain
    sieve; at 2**62 its base primes would run to 2**31, so there from is_prime
    (pinned by the tests above).  No prime gap below 2**64 exceeds 1550."""
    top = b + 1550
    primes = plain_primes_in(a + 1, top) if top < 2**44 else [m for m in range(a + 1, top + 1) if is_prime(m)]
    return {n: primes[bisect.bisect_right(primes, n)] for n in range(a, b)}


_QUERY_ORDERS = {
    "increasing": lambda ns: ns,
    "decreasing": lambda ns: ns[::-1],
    "jumping": lambda ns: ns[::97] + ns[5::211],  # steps past the memo's prime
    "repeated": lambda ns: [n for n in ns[:300] for _ in range(3)] + ns[:300],
    "shuffled": lambda ns: random.Random(len(ns)).sample(ns, len(ns)),
}


@pytest.mark.parametrize("band", [1, 10**6, 10**12, 2**62])
def test_next_prime_matches_a_plain_sieve_in_any_query_order(band, monkeypatch):
    expected = sieved_next_primes(band, band + 3000)
    ns = list(expected)
    for order, arrange in _QUERY_ORDERS.items():
        monkeypatch.setattr(ntheory, "_next_prime_memo", (0, 2, (0, 2)))
        queries = arrange(ns)
        assert [next_prime(n) for n in queries] == [expected[n] for n in queries], order


def walked_next_primes(a, b):
    """{n: least prime above n, or None past 2**64 - 59} for a <= n < b, by
    a plain is_prime walk: the answer for n is n + 1 when that is prime, and
    the answer for n + 1 otherwise."""
    p = next((m for m in range(b, U64_LIMIT) if is_prime(m)), None)
    answers = {}
    for n in range(b - 1, a - 1, -1):
        if n + 1 < U64_LIMIT and is_prime(n + 1):
            p = n + 1
        answers[n] = p
    return answers


_SIEVE_RULE = 2**24 - ntheory._PRIME_WINDOW  # next_prime sieves a window for n below this


@pytest.mark.parametrize("a, b", [
    (0, 13_000),                              # the first windows, from 0 on
    (10**6 - 500, 10**6 + 9000),              # windows that start where a query lands
    (_SIEVE_RULE - 6000, _SIEVE_RULE + 6000),  # both sides of the sieve rule
    (U64_LIMIT - 200, U64_LIMIT),             # the walk, and None past 2**64 - 59
])
def test_next_prime_matches_the_is_prime_walk_across_windows(a, b, monkeypatch):
    expected = walked_next_primes(a, b)
    ns = sorted(expected)
    rng = random.Random(a)
    orders = {
        "increasing": ns,
        "decreasing": ns[::-31],
        "scattered": rng.sample(ns, min(300, len(ns))) + [n for n in ns[::97] for _ in range(2)],
    }
    for order, queries in orders.items():
        monkeypatch.setattr(ntheory, "_next_prime_memo", (0, 2, (0, 2)))
        windows = set()
        for n in queries:
            assert next_prime(n) == expected[n], (order, n)
            windows.add(ntheory._next_prime_memo[2][0])
        if order == "increasing" and a < _SIEVE_RULE:
            assert len(windows) >= 3  # the scan crossed window edges


def test_next_prime_window_ends_inside_a_prime_gap(monkeypatch):
    p, gap = 4652353, 154  # the largest prime gap below 2**24
    assert walked_next_primes(p, p + 1) == {p: p + gap}
    start = p + 60 - ntheory._PRIME_WINDOW  # its window (start, p + 60] ends inside the gap
    expected = walked_next_primes(start, p + gap + 20)
    monkeypatch.setattr(ntheory, "_next_prime_memo", (0, 2, (0, 2)))
    assert next_prime(start) == expected[start]
    assert ntheory._next_prime_memo[2][0] == start and ntheory._next_prime_memo[2][-1] == p
    for n in range(start, p + gap + 20):
        assert next_prime(n) == expected[n], n
        if n == p:  # at the window's last prime a new window starts
            assert ntheory._next_prime_memo[2][:2] == (p, p + gap)


def test_next_prime_sieves_below_its_rule_and_walks_above(monkeypatch):
    tested = []
    monkeypatch.setattr(ntheory, "is_prime", lambda m: tested.append(m) or is_prime(m))
    for n, sieved in ((_SIEVE_RULE - 1, True), (_SIEVE_RULE, False)):
        monkeypatch.setattr(ntheory, "_next_prime_memo", (0, 2, (0, 2)))
        tested.clear()
        p = next_prime(n)
        assert p == walked_next_primes(n, n + 1)[n]
        window = ntheory._next_prime_memo[2]
        if sieved:
            assert tested == [] and window[0] == n and len(window) > 100
        else:
            assert tested == list(range(n + 1, p + 1)) and window == (n, p)


def test_next_prime_at_the_ends_of_its_domain():
    top = U64_LIMIT - 59  # the largest prime below 2**64
    assert [next_prime(n) for n in (0, 1, 2, 3)] == [2, 2, 3, 5]
    assert next_prime(U64_LIMIT - 60) == top
    for n in (top, top + 1, U64_LIMIT - 2, U64_LIMIT - 1):
        assert next_prime(n) is None
    assert next_prime(U64_LIMIT - 60) == top and next_prime(top - 1) == top
    for n in (-1, U64_LIMIT):
        with pytest.raises(ValueError, match="next_prime domain"):
            next_prime(n)


def test_primes_in_refuses_windows_past_its_root_bound(monkeypatch):
    # a window up to b is sieved with the primes <= isqrt(b), whose own sieve
    # would take gigabytes near 2**64, so isqrt(b) > 2**22 is refused
    a = (1 << 50) + 1
    with pytest.raises(ValueError, match="isqrt"):
        primes_in(a, a + 1000)
    with pytest.raises(ValueError, match="isqrt"):
        primes_in(U64_LIMIT - 11, U64_LIMIT - 1)
    monkeypatch.setattr(ntheory, "_DENSE_ROOT_LIMIT", 10)
    assert primes_in(100, 120) == [101, 103, 107, 109, 113]  # isqrt(120) = 10
    with pytest.raises(ValueError, match="isqrt"):
        primes_in(100, 121)  # isqrt(121) = 11
    with pytest.raises(ValueError, match="isqrt"):
        primes_in(121, 121)


def test_classify_at_1e12_builds_no_base_primes(monkeypatch):
    calls = []
    real_primes_upto = ntheory.primes_upto
    monkeypatch.setattr(ntheory, "primes_upto", lambda m: calls.append(m) or real_primes_upto(m))
    a = 10**12
    # (a + 1, a + 8] holds no prime, so both certificate searches run, on
    # the trial primes built at import
    assert classify(7, a + 1) == OrderCertificate(p=17, j=3)
    assert calls == []
