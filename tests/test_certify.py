import functools
import itertools
import math
import random
import signal
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from binsum.certify import (
    ORACLE_CUTOFF,
    DenominatorPrime,
    OrderCertificate,
    SylvesterPrime,
    classify,
    denominator_certificate,
    order_certificate,
    s_lower,
    s_upper,
    s_upper_closed,
    sylvester_certificate,
)
from binsum import certify, ntheory
from binsum.exact import valuation
from binsum.ntheory import U64_LIMIT, _TRIAL_LIMIT, factorize, is_prime, order2, primes_upto


def test_s_lower_examples():
    assert s_lower(1, 1) == Fraction(1, 2)
    assert s_lower(1, 5) == Fraction(43, 2)
    assert s_lower(3, 4) == Fraction(209, 35)
    assert s_lower(2, 1) == Fraction(1, 3)
    assert s_lower(1, 7) == Fraction(769, 8)


def test_s_lower_matches_termwise_sum():
    from math import comb

    for r, n in [(r, n) for r in (1, 2, 7, 23) for n in (1, 2, 13, 40)] + [(10**18 + 9, 5)]:
        direct = sum(Fraction(k, k + r) * comb(n, k) for k in range(1, n + 1))
        assert s_lower(r, n) == direct
        assert s_upper(r, n) == sum(Fraction(r, k + r) * comb(n, k) for k in range(0, n + 1))


def test_s_upper_examples():
    assert s_upper(1, 1) == Fraction(3, 2)
    assert s_upper(1, 2) == Fraction(7, 3)
    assert s_upper(2, 1) == Fraction(5, 3)


def test_s_upper_closed_examples():
    assert s_upper_closed(1, 2) == Fraction(7, 3)
    assert s_upper_closed(2, 1) == Fraction(5, 3)
    assert s_upper_closed(1, 1) == Fraction(3, 2)
    assert s_upper_closed(3, 4) == Fraction(351, 35)


def test_cutoffs_are_enforced():
    with pytest.raises(ValueError):
        s_lower(1, ORACLE_CUTOFF + 1)
    with pytest.raises(ValueError):
        s_upper(1, ORACLE_CUTOFF + 1)
    with pytest.raises(ValueError):
        s_upper_closed(300, 5)


def test_instance_validation():
    # classify leaves the check to sylvester_certificate, its first stage
    for search in (classify, sylvester_certificate, order_certificate, denominator_certificate):
        for r, n in [(0, 5), (5, 0), (1, 2**64 - 1), (2**63, 2**63)]:
            with pytest.raises(ValueError):
                search(r, n)
    with pytest.raises(ValueError):
        s_lower(0, 5)


def test_complement_examples():
    for r, n in [(1, 2), (2, 1), (3, 4)]:
        assert s_lower(r, n) + s_upper(r, n) == 2**n


@given(st.integers(1, 15), st.integers(1, 60))
@settings(max_examples=150, deadline=None)
def test_identities_on_random_instances(r, n):
    upper = s_upper(r, n)
    assert upper == s_upper_closed(r, n)
    assert s_lower(r, n) + upper == 2**n


def test_sylvester_examples():
    cert = sylvester_certificate(2, 3)
    assert (cert.p, cert.k0) == (5, 3) and cert.verify(2, 3)
    cert = sylvester_certificate(1, 1)
    assert (cert.p, cert.k0) == (2, 1) and cert.verify(1, 1)
    assert sylvester_certificate(1, 3) is None
    cert = sylvester_certificate(3, 4)
    assert (cert.p, cert.k0) == (5, 2) and cert.verify(3, 4)


def test_sylvester_composite_multiple():
    # r far above n: the witness value k0 + r may be a proper multiple of p
    cert = sylvester_certificate(100, 2)
    assert (cert.p, cert.k0) == (3, 2)  # 102 = 2 * 3 * 17
    assert cert.verify(100, 2)


def brute_sylvester_certificate(r, n):
    """(p, k0) of the smallest prime p > n dividing some k + r (1 <= k <= n),
    found by factoring every k + r that can hold one; None when none does.
    As p <= k + r, only k > n - r are factored."""
    candidates = [
        (p, k)
        for k in range(max(1, n - r + 1), n + 1)
        for p, _ in factorize(k + r)
        if p > n
    ]
    return min(candidates, default=None)


def sylvester_cases():
    rng = random.Random(11)
    for _ in range(150):
        yield rng.randrange(1, 60), rng.randrange(1, 300)
    for band in (10**12, 2**62):  # the scan bands: the walk covers all of (n, n + r]
        for _ in range(40):
            yield rng.randrange(1, 60), band + rng.randrange(10**9)
    # r far above n: the walk stops at 2n + _TRIAL_LIMIT, then the factoring search
    for _ in range(40):
        yield int(2 ** rng.uniform(math.log2(10**5), 62)), int(2 ** rng.uniform(0, math.log2(1200)))
    yield 2**61 - 2, 1  # r + 1 is prime: only the factoring search finds it
    yield 10**9 + 6, 1
    yield 1009 * 1013 - 1, 1  # the search picks 1009, the smaller factor of r + 1
    yield 2 * 1009 * 1000033 - 2, 2  # r + 1 is prime, 1009 divides r + 2: k0 = 2
    # r on both sides of n + _TRIAL_LIMIT, where the cap drops below n + r
    for n in (1, 2, 7, 50, 300, 1200):
        for d in (-1, 0, 1):
            yield n + _TRIAL_LIMIT + d, n


def test_sylvester_smallest_prime_then_smallest_index():
    paths = set()
    for r, n in sylvester_cases():
        expected = brute_sylvester_certificate(r, n)
        cert = sylvester_certificate(r, n)
        if expected is None:
            assert cert is None, (r, n)
        else:
            assert (cert.p, cert.k0) == expected, (r, n)
            paths.add(cert.p > 2 * n + _TRIAL_LIMIT)
    assert paths == {True, False}  # both the walk and the factoring search decided cases


def test_sylvester_walk_decides_every_n_below_r_up_to_the_cap():
    # n < r <= n + _TRIAL_LIMIT: the walk covers all of (n, n + r], where
    # Sylvester-Schur puts a qualifying prime, so it never comes up empty
    for n in range(1, 40):
        for r in range(n + 1, n + _TRIAL_LIMIT + 1):
            cert = sylvester_certificate(r, n)
            assert (cert.p, cert.k0) == brute_sylvester_certificate(r, n), (r, n)


@pytest.mark.parametrize("r", [2**61 - 2, 10**9 + 6])
def test_sylvester_tiny_n_huge_r_returns_at_once(r):
    # r + 1 is prime, so no prime up to the walk's cap divides it; an
    # uncapped walk would test every candidate up to r + 1
    def timeout(signum, frame):
        raise TimeoutError(f"classify({r}, 1) took over 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        outcome = classify(r, 1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert outcome == SylvesterPrime(p=r + 1, k0=1)
    assert outcome.verify(r, 1)


def test_sylvester_always_exists_for_r_at_least_n():
    for r in range(1, 80):
        for n in range(1, r + 1):
            cert = sylvester_certificate(r, n)
            assert cert is not None and cert.verify(r, n)


def test_sylvester_exists_for_r_at_least_n_at_scale():
    for r, n in ((10**4, 10**4), (10**4, 7919), (9973, 9973), (5000, 4999)):
        cert = sylvester_certificate(r, n)
        assert cert is not None and cert.verify(r, n)


def test_sylvester_verify_rejects_forgeries():
    assert not SylvesterPrime(p=4, k0=1).verify(3, 4)       # composite
    assert not SylvesterPrime(p=3, k0=1).verify(3, 4)       # p <= n
    assert not SylvesterPrime(p=7, k0=1).verify(3, 4)       # p does not divide k0 + r
    assert not SylvesterPrime(p=5, k0=9).verify(3, 4)       # k0 out of range


def test_order_certificate_examples():
    cert = order_certificate(3, 4)
    assert (cert.p, cert.j) == (5, 1) and cert.verify(3, 4)  # order2(5) = 4 does not divide 5
    cert = order_certificate(1, 2)
    assert (cert.p, cert.j) == (3, 1) and cert.verify(1, 2)
    # r = 1 admits p = 2: 2**6 - 1 is odd, so 2 | 6 puts 2 in the denominator
    cert = order_certificate(1, 5)
    assert (cert.p, cert.j) == (2, 1) and cert.verify(1, 5)
    assert OrderCertificate(p=2, j=1).verify(1, 7)
    assert order_certificate(7, 2) is None  # 3..9 hold no prime > 7


def brute_order_certificate(r, n):
    """(p, j) of the smallest qualifying prime, found by factoring every n + j
    and computing order2; None when no prime qualifies.  p = 2 never divides
    2**(n+j) - 1, so it qualifies whenever it divides n + j and exceeds r."""
    candidates = [
        (p, j)
        for j in range(1, r + 1)
        for p, _ in factorize(n + j)
        if p > r and (p == 2 or (n + j) % order2(p) != 0)
    ]
    return min(candidates, default=None)


def order_cases():
    rng = random.Random(13)
    for _ in range(150):
        yield rng.randrange(1, 40), rng.randrange(1, 2000)
    for band in (10**12, 2**62):  # the scan bands: the small-prime walk decides almost all
        for _ in range(40):
            yield rng.randrange(1, 40), band + rng.randrange(10**9)
    # r straddling _TRIAL_LIMIT: the walk starts at 991, 997 or 1009 and goes on to 2**16
    for r in range(990, 1011):
        yield r, rng.randrange(1, 4000)
    for r in (995, 1003):
        yield r, 10**12 + rng.randrange(10**9)
    # r = 1 in each band, n + 1 even and odd: q = 2 qualifies iff it divides n + 1
    for band in (1, 10**12, 2**62):
        n = band + 2 * rng.randrange(10**6)
        yield 1, n
        yield 1, n + 1
    # q | n + j with 2**(n + j) == 1 (mod q): the walk must pass q over
    for band in (1, 10**12, 2**62):
        for _ in range(20):
            r = rng.randrange(1, 40)
            q = rng.choice([p for p in primes_upto(200) if p > max(r, 2)])
            step = q * order2(q)
            yield r, (band + rng.randrange(10**6)) // step * step + step - rng.randrange(1, r + 1)


def test_order_certificate_smallest_prime_then_index():
    paths = set()
    for r, n in order_cases():
        expected = brute_order_certificate(r, n)
        cert = order_certificate(r, n)
        if expected is None:
            assert cert is None, (r, n)
        else:
            assert (cert.p, cert.j) == expected, (r, n)
            paths.add(cert.p < _TRIAL_LIMIT)
    assert paths == {True, False}  # primes below and above _TRIAL_LIMIT decided cases


# n = 2**62 + offset at r = 7 where no prime below _TRIAL_LIMIT qualifies,
# with the (p, j) the factoring search finds: the walk on to 2**16 decides
# most of them, and the factoring search the rest
_ORDER_FALLBACKS = {
    414: (1153, 5), 13339: (1051, 1), 30301: (4703, 3), 37047: (31231, 7), 41094: (58427, 7),
    50919: (6079, 6), 94222: (24691, 1), 106325: (1021, 6),
    35694: (426586907, 7), 41093: (71081, 2), 66871: (117617, 5),
}


def test_order_walk_past_the_trial_primes_matches_the_factoring_search(monkeypatch):
    cases = [(7, 2**62 + offset) for offset in _ORDER_FALLBACKS]
    # inside the 1132-long prime gap after p, where no trial prime exceeds r
    p = 1693182318746371
    cases += [(1000, p), (1100, p + 7), (1130, p + 1)]
    factored = []
    monkeypatch.setattr(certify, "_factorize", lambda m: factored.append(m) or factorize(m))
    found = []
    for r, n in cases:
        expected = brute_order_certificate(r, n)
        assert expected[0] > _TRIAL_LIMIT, (r, n)  # no prime below _TRIAL_LIMIT qualifies
        factored.clear()
        cert = order_certificate(r, n)
        # only an answer past the walk's bound costs a factoring search
        assert bool(factored) == (cert.p >= 2**16), (r, n)
        assert (cert.p, cert.j) == expected, (r, n)
        assert cert.verify(r, n)
        found.append(cert.p)
    assert [_ORDER_FALLBACKS[n - 2**62][0] for _, n in cases[:-3]] == found[:-3]
    assert found[-3:] == [1009, 1103, 1151]
    # both sides of the walk's bound decided cases
    assert {p < 2**16 for p in found} == {True, False}


def test_order_walk_at_the_top_of_the_prime_table(monkeypatch):
    # the table ends at 65521, the largest prime below 2**16: at r = 65519
    # the walk holds 65521 alone, which divides n + 1 at n = 16 * 65521 - 1
    # and no n + j at n = 16 * 65521; from r = 65521 on the walk is empty
    assert ntheory._PRIME_TABLE[-2:] == (65519, 65521)
    cases = [(65519, 16 * 65521 - 1), (65519, 16 * 65521), (65536, 10**6), (70001, 10**6 + 7)]
    factored = []
    monkeypatch.setattr(certify, "_factorize", lambda m: factored.append(m) or factorize(m))
    found = []
    for r, n in cases:
        factored.clear()
        cert = order_certificate(r, n)
        assert bool(factored) == (cert.p >= 2**16), (r, n)
        assert (cert.p, cert.j) == brute_order_certificate(r, n), (r, n)
        assert cert.verify(r, n)
        found.append(cert.p)
    assert found[0] == 65521 and min(found[1:]) > 2**16


def test_order_search_needs_no_factorization_of_p_minus_1(monkeypatch):
    def refuse(*args):
        raise AssertionError("called")

    for module in (certify, ntheory):
        monkeypatch.setattr(module, "order2", refuse, raising=False)
    # the fallback and verify test pow(2, n + j, p) and never factor p - 1
    cert = order_certificate(1000, 5000)
    assert cert.p > 1000 and cert.verify(1000, 5000)
    # at 10**12 the small-prime walk decides without factoring any n + j
    for module in (certify, ntheory):
        monkeypatch.setattr(module, "_factorize", refuse)
    n = 10**12 + 109815
    outcome = classify(7, n)
    assert outcome == OrderCertificate(p=41, j=6)
    assert outcome.verify(7, n)


def test_order_verify_rejects_forgeries():
    assert not OrderCertificate(p=2, j=1).verify(1, 6)   # 2 does not divide 7
    assert not OrderCertificate(p=2, j=2).verify(2, 6)   # p <= r
    assert not OrderCertificate(p=3, j=1).verify(1, 5)   # order2(3) divides 6
    assert not OrderCertificate(p=5, j=2).verify(3, 4)   # 5 does not divide 6
    assert not OrderCertificate(p=5, j=1).verify(7, 4)   # p <= r


def test_classify_prefers_sylvester():
    assert classify(3, 4) == SylvesterPrime(p=5, k0=2)


def test_classify_oracle_fallback():
    # the r = 1 instances the exact evaluation used to decide: n + 1 is even
    for n in (5, 7):
        outcome = classify(1, n)
        assert outcome == OrderCertificate(p=2, j=1) and outcome.verify(1, n)


def test_classify_undecided_past_cutoff():
    # n + 1 = 2**11 and 2**12: no prime > n divides it, and its only prime is
    # 2, which decides both, below and above the old evaluation cutoff 3000
    for n in (2047, 4095):
        outcome = classify(1, n)
        assert outcome == OrderCertificate(p=2, j=1) and outcome.verify(1, n)


def test_r_1_is_certified_for_every_n_below_10_to_the_5():
    # n + 1 prime: sylvester; n + 1 even: p = 2; otherwise the smallest prime
    # p of n + 1 has gcd(n + 1, p - 1) = 1, so order2(p) does not divide n + 1
    kinds = {classify(1, n).kind for n in range(1, 10**5)}
    assert kinds == {"sylvester", "order"}


def test_classify_deterministic():
    assert classify(7, 60) == classify(7, 60)


def test_consecutive_n_share_one_outcome():
    # next_prime(8) = next_prime(9) = 11 <= n + 3: one SylvesterPrime(11, 8)
    assert classify(3, 8) is classify(3, 9)
    assert classify(3, 9) == SylvesterPrime(p=11, k0=8)


@pytest.fixture
def tested(monkeypatch):
    """How often ntheory tests each integer for primality, from a reset
    next_prime memo on."""
    tested = Counter()

    def counting_is_prime(m):
        tested[m] += 1
        return is_prime(m)

    monkeypatch.setattr(ntheory, "is_prime", counting_is_prime)
    monkeypatch.setattr(ntheory, "_next_prime_memo", (0, 2, (0, 2)))
    return tested


def test_scan_at_2_62_tests_each_integer_once(tested):
    # the next-prime pointer walks each integer once: every integer from n0
    # up to the next prime after the window, none twice and none past it
    n0, width = 2**62, 2048
    outcomes = [classify(7, n) for n in range(n0, n0 + width)]
    # no order search here falls back to factoring, which tests other integers
    assert all(o.kind == "sylvester" or o.p < _TRIAL_LIMIT for o in outcomes)
    last = next(m for m in itertools.count(n0 + width) if is_prime(m))
    assert max(tested.values()) == 1
    assert sorted(tested) == list(range(n0 + 1, last + 1))


def test_scan_at_the_top_of_the_domain_tests_each_integer_once(tested):
    # past 2**64 - 59 next_prime finds none, and its memo keeps that answer
    n0 = U64_LIMIT - 1016
    outcomes = [classify(7, n) for n in range(n0, U64_LIMIT - 7)]
    assert all(o.kind == "sylvester" or o.p < _TRIAL_LIMIT for o in outcomes)
    assert max(tested.values()) == 1
    assert sorted(tested) == list(range(n0 + 1, U64_LIMIT))


def test_long_walks_stay_cached_and_match_the_uncached_walk(tested):
    p = 1693182318746371  # prime; the next prime is p + 1132
    window = range(p, p + 64)
    cached = [classify(1200, n) for n in window]
    assert sum(tested.values()) == 1132  # one walk, then the memo serves the window
    assert cached == [walk_sylvester_certificate(1200, n) for n in window]
    assert {o.p for o in cached} == {p + 1132}


# The reference walk for n re-tests what the walk for n - 1 tested (across
# the 1132-long gap, ~6 * 10**5 tests per r); a cache local to the tests
# keeps that cheap.
_walk_is_prime = functools.cache(is_prime)


def walk_sylvester_certificate(r, n):
    """The search sylvester_certificate made before it took its primes from
    next_prime: the capped walk over integers, then the factoring search."""
    for q in range(n + 1, min(n + r, 2 * n + _TRIAL_LIMIT) + 1):
        if _walk_is_prime(q):
            first = (r + q) // q * q
            if first <= r + n:
                return SylvesterPrime(p=q, k0=first - r)
    if r <= n + _TRIAL_LIMIT:
        return None
    p, v = min((q, v) for v in range(r + 1, r + n + 1) for q, _ in factorize(v) if q > n)
    return SylvesterPrime(p=p, k0=v - r)


def sylvester_scans():
    """(r, ns): runs of consecutive n in the order a scan takes them."""
    for r in (1, 2, 7, 23, 60, 1200):  # n = r, the first n the pointer takes
        yield r, range(max(1, r - 5), r + 40)
    rng = random.Random(19)
    for band in (10**6, 10**12, 2**62):
        for r in (1, 7, 23, 60):
            lo = band + rng.randrange(10**9)
            yield r, range(lo, lo + 300)
    # the 1132-long gap after p: r below, at and above the gap, across it
    p = 1693182318746371
    for r in (1, 600, 1131, 1132, 1133, 1200):
        yield r, range(p - 3, p + 1140)
    # the top of the domain: no prime lies in (2**64 - 59, 2**64)
    for r in (1, 7, 58, 59, 60, 200):
        yield r, range(U64_LIMIT - 300, U64_LIMIT - r)
    # n < r, where the walk steps through primes up to min(n + r, 2n + 1000)
    yield 10**6, range(1, 3000)
    yield 10**13, range(10**12, 10**12 + 300)
    for r in (1100, 10**6 + 17, 10**12 + 39):  # r - n runs across _TRIAL_LIMIT
        yield r, range(r - _TRIAL_LIMIT - 40, r - _TRIAL_LIMIT + 40)
    # the cap 2n + 1000 lies above 2**64 - 59, 19 above it at n = 2**63 - 520
    yield 2**63 + 500, range(2**63 - 560, 2**63 - 500)


def test_sylvester_pointer_matches_the_walk():
    for r, ns in sylvester_scans():
        certs = [sylvester_certificate(r, n) for n in ns]
        assert certs == [walk_sylvester_certificate(r, n) for n in ns], (r, ns)
        # consecutive n that share a certificate share its object
        pointer = [c for c in certs if c is not None]
        assert all(a is b for a, b in zip(pointer, pointer[1:]) if a == b)
    # any query order gives the same answers
    p = 1693182318746371
    ns = [p + 1131, p - 2, p + 5, p + 1132, p, p + 1131, 2**62, p + 40]
    assert [sylvester_certificate(1200, n) for n in ns] == [walk_sylvester_certificate(1200, n) for n in ns]


def test_classify_does_not_depend_on_cache_history(monkeypatch):
    window = range(2**62 + 5000, 2**62 + 5300)
    monkeypatch.setattr(ntheory, "_next_prime_memo", (0, 2, (0, 2)))
    ascending = [classify(7, n) for n in window]
    warm_descending = [classify(7, n) for n in reversed(window)][::-1]
    monkeypatch.setattr(ntheory, "_next_prime_memo", (0, 2, (0, 2)))
    cold_descending = [classify(7, n) for n in reversed(window)][::-1]
    warm_ascending = [classify(7, n) for n in window]
    assert ascending == warm_descending == cold_descending == warm_ascending


@given(st.integers(1, 30), st.integers(1, 200))
@settings(max_examples=120, deadline=None)
def test_certificates_are_sound(r, n):
    value = s_lower(r, n)
    for cert in (
        sylvester_certificate(r, n),
        order_certificate(r, n),
        denominator_certificate(r, n),
    ):
        if cert is not None:
            assert cert.verify(r, n)
            assert valuation(cert.p, value) < 0


def test_denominator_check_matches_exact_denominators():
    # every prime p <= n + r, those <= r, p = 2 and p**a with a >= 2 included
    checks = 0
    for r in range(1, 31):
        for n in range(1, 301):
            denominator = s_upper(r, n).denominator
            for p in primes_upto(n + r):
                assert DenominatorPrime(p=p).verify(r, n) == (denominator % p == 0), (r, n, p)
                checks += 1
    assert checks == 339131


def test_denominator_certificate_examples():
    # 2 <= r is in the denominator
    assert denominator_certificate(2, 2) == DenominatorPrime(p=2) and s_upper(2, 2) == Fraction(17, 6)
    assert denominator_certificate(2, 3) == DenominatorPrime(p=2) and s_upper(2, 3) == Fraction(49, 10)
    assert denominator_certificate(3, 4) is None  # s_upper(3, 4) = 351/35, no prime <= 3


def test_denominator_verify_rejects_forgeries():
    assert DenominatorPrime(p=5).verify(3, 4) and DenominatorPrime(p=7).verify(3, 4)  # 351/35
    assert not DenominatorPrime(p=35).verify(3, 4)   # composite
    assert not DenominatorPrime(p=1).verify(3, 4)
    assert not DenominatorPrime(p=0).verify(3, 4)
    assert not DenominatorPrime(p=3).verify(3, 4)    # divides 6, not the denominator
    assert not DenominatorPrime(p=2).verify(3, 4)    # divides 6, not the denominator
    assert not DenominatorPrime(p=11).verify(3, 4)   # divides no n + j


def test_denominator_stage_is_cheap_at_the_largest_r_it_can_see():
    # n is prime and so is n + 588: at r = g(n) - 1 = 587 no sylvester prime
    # exists, the case in which classify can reach the denominator stage
    n, r = 4611686018428973593, 587
    assert is_prime(n) and is_prime(n + r + 1) and sylvester_certificate(r, n) is None

    def timeout(signum, frame):
        raise TimeoutError(f"the denominator stage at (r={r}, n={n}) took over 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        cert = denominator_certificate(r, n)
        # the worst case tests every prime <= r
        found = [p for p in primes_upto(r) if certify._denominator_residue(r, n, p)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert cert == DenominatorPrime(p=found[0]) and cert.verify(r, n)
