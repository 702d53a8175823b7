import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from binsum import ntheory
from binsum.ntheory import (
    U64_LIMIT,
    factorize,
    is_prime,
    iter_primes,
    largest_prime_factor,
    order2,
    prime_record,
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


def test_is_prime_rejects_out_of_domain():
    with pytest.raises(ValueError):
        is_prime(0)
    with pytest.raises(ValueError):
        is_prime(U64_LIMIT)


def test_primes_upto_matches_trial_division():
    assert primes_upto(100) == [m for m in range(2, 101) if trial_is_prime(m)]


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
    for p in (3, 7, 127, 8191, 99991):
        rec = prime_record(p)
        assert pow(2, rec.order2, p) == 1
        assert (p - 1) % rec.order2 == 0
        assert math.prod(q**e for q, e in rec.pminus1) == p - 1
        for q, _ in rec.pminus1:
            if rec.order2 % q == 0:
                assert pow(2, rec.order2 // q, p) != 1


def test_largest_prime_factor_examples():
    assert largest_prime_factor(12) == 3
    assert largest_prime_factor(97) == 97
    assert largest_prime_factor(1001) == 13
    with pytest.raises(ValueError):
        largest_prime_factor(1)


@given(st.integers(2, 1 << 40))
def test_largest_prime_factor_matches_factorization(m):
    assert largest_prime_factor(m) == max(p for p, _ in factorize(m))


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


def test_primes_in_sparse_path():
    a = (1 << 50) + 1
    got = primes_in(a, a + 1000)
    assert got == [m for m in range(a, a + 1001) if is_prime(m)]
    assert got  # the window does contain primes


def test_iter_primes_spans_segments():
    assert list(iter_primes(1, 10**6))[:5] == [2, 3, 5, 7, 11]
    big = 1 << 19  # wider than one sieving segment
    assert list(iter_primes(3, big)) == primes_in(3, big)


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
def test_primes_in_paths_agree_around_the_switch(n, monkeypatch):
    # the per-candidate tests and the sieve give the same primes on windows
    # on both sides of the width where primes_in switches between them
    def per_candidate(width):
        root = math.isqrt(n + 1 + width)
        return width * ntheory._NARROW_FACTOR * root.bit_length() < root

    switch = max(w for w in range(1, 10**5) if per_candidate(w))
    sieved = []
    real_primes_upto = ntheory.primes_upto
    monkeypatch.setattr(ntheory, "primes_upto", lambda m: sieved.append(m) or real_primes_upto(m))
    for width in (1, 6, switch - 2, switch - 1, switch, switch + 1, switch + 2, 2 * switch):
        a, b = n + 1, n + 1 + width
        expected = plain_primes_in(a, b)
        root = math.isqrt(b)
        assert ntheory._test_window(a, b) == expected, (n, width)
        assert ntheory._sieve_window(a, b, root) == expected, (n, width)
        sieved.clear()
        assert primes_in(a, b) == expected, (n, width)
        assert bool(sieved) != per_candidate(width), (n, width, sieved)


def test_narrow_window_at_1e12_builds_no_base_primes(monkeypatch):
    calls = []
    real_primes_upto = ntheory.primes_upto
    monkeypatch.setattr(ntheory, "primes_upto", lambda m: calls.append(m) or real_primes_upto(m))
    a = 10**12
    assert primes_in(a, a + 7) == plain_primes_in(a, a + 7)
    assert list(iter_primes(a + 1, a + 7)) == primes_in(a + 1, a + 7)
    assert not [m for m in calls if m > 10**5], calls
