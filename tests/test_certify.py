import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from binsum.certify import (
    CertifiedNonintegral,
    ClassifyBudget,
    OracleNonintegral,
    OrderCertificate,
    SmoothBound,
    SylvesterPrime,
    Undecided,
    classify,
    complement_check,
    m_lower,
    order_certificate,
    s_lower,
    s_upper,
    s_upper_closed,
    smooth_certificate,
    sylvester_certificate,
)
from binsum import certify, ntheory
from binsum.ntheory import _TRIAL_LIMIT, factorize, order2


def test_s_lower_examples():
    assert s_lower(1, 1) == Fraction(1, 2)
    assert s_lower(1, 5) == Fraction(43, 2)
    assert s_lower(3, 4) == Fraction(209, 35)
    assert s_lower(2, 1) == Fraction(1, 3)
    assert s_lower(1, 7) == Fraction(769, 8)


def test_s_lower_matches_termwise_sum():
    from math import comb

    for r in (1, 2, 7, 23):
        for n in (1, 2, 13, 40):
            direct = sum(Fraction(k, k + r) * comb(n, k) for k in range(1, n + 1))
            assert s_lower(r, n) == direct


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
        s_lower(1, 50, cutoff=49)
    with pytest.raises(ValueError):
        s_upper(1, 50, cutoff=49)
    with pytest.raises(ValueError):
        s_upper_closed(300, 5)
    s_upper_closed(300, 5, cutoff=300)  # explicit cutoff admits it


def test_instance_validation():
    with pytest.raises(ValueError):
        classify(0, 5)
    with pytest.raises(ValueError):
        classify(5, 0)
    with pytest.raises(ValueError):
        s_lower(0, 5)


def test_complement_examples():
    assert complement_check(1, 2)
    assert complement_check(2, 1)
    assert complement_check(3, 4)


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


def test_sylvester_smallest_prime_then_smallest_index():
    rng = random.Random(11)
    for _ in range(150):
        r, n = rng.randrange(1, 60), rng.randrange(1, 300)
        candidates = [
            (p, k)
            for k in range(1, n + 1)
            for p, _ in factorize(k + r)
            if p > n
        ]
        cert = sylvester_certificate(r, n)
        if candidates:
            assert (cert.p, cert.k0) == min(candidates)
        else:
            assert cert is None


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
    assert order_certificate(1, 5) is None  # 6 = 2 * 3 and order2(3) | 6


def brute_order_certificate(r, n):
    """(p, j) of the smallest qualifying prime, found by factoring every n + j
    and computing order2; None when no prime qualifies."""
    candidates = [
        (p, j)
        for j in range(1, r + 1)
        for p, _ in factorize(n + j)
        if p != 2 and p > r and (n + j) % order2(p) != 0
    ]
    return min(candidates, default=None)


def order_cases():
    rng = random.Random(13)
    for _ in range(150):
        yield rng.randrange(1, 40), rng.randrange(1, 2000)
    for band in (10**12, 2**62):  # the scan bands: the small-prime walk decides almost all
        for _ in range(40):
            yield rng.randrange(1, 40), band + rng.randrange(10**9)
    # r straddling _TRIAL_LIMIT: the walk has only 991 and 997, then nothing
    for r in range(990, 1011):
        yield r, rng.randrange(1, 4000)
    for r in (995, 1003):
        yield r, 10**12 + rng.randrange(10**9)


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
    assert paths == {True, False}  # both the walk and the factoring search decided cases


def test_order_search_needs_no_factorization_of_p_minus_1(monkeypatch):
    def refuse(*args):
        raise AssertionError("called")

    for module in (certify, ntheory):
        monkeypatch.setattr(module, "order2", refuse)
    # the fallback and verify test pow(2, n + j, p) and never factor p - 1
    cert = order_certificate(1000, 5000)
    assert cert.p > 1000 and cert.verify(1000, 5000)
    # at 10**12 the small-prime walk decides without factoring any n + j
    for module in (certify, ntheory):
        monkeypatch.setattr(module, "_factorize", refuse)
    n = 10**12 + 109815
    outcome = classify(7, n)
    assert outcome.certificate == OrderCertificate(p=41, j=6)
    assert outcome.certificate.verify(7, n)


def test_order_verify_rejects_forgeries():
    assert not OrderCertificate(p=2, j=1).verify(1, 7)   # even prime excluded
    assert not OrderCertificate(p=3, j=1).verify(1, 5)   # order2(3) divides 6
    assert not OrderCertificate(p=5, j=2).verify(3, 4)   # 5 does not divide 6
    assert not OrderCertificate(p=5, j=1).verify(7, 4)   # p <= r


def test_m_lower_examples():
    assert m_lower(2, 3) == 1
    assert m_lower(3, 7) == 2
    assert m_lower(1, 9) == 1
    with pytest.raises(ValueError):
        m_lower(2**21, 1)


def test_smooth_certificate_examples():
    cert = smooth_certificate(2, 3)
    assert cert == SmoothBound(m_value=1) and cert.verify(2, 3)
    assert smooth_certificate(3, 1) is None  # M_3(1) = 2 and 2**2 > 3
    assert smooth_certificate(1, 9) is None


def test_smooth_verify_rejects_forgeries():
    assert not SmoothBound(m_value=1).verify(1, 9)  # 2**1 > 1
    assert not SmoothBound(m_value=2).verify(2, 3)  # M_2(3) = 1, not 2


def test_classify_prefers_sylvester():
    outcome = classify(3, 4)
    assert isinstance(outcome, CertifiedNonintegral)
    assert outcome.certificate == SylvesterPrime(p=5, k0=2)


def test_classify_oracle_fallback():
    outcome = classify(1, 5)
    assert isinstance(outcome, OracleNonintegral)
    assert outcome.value == Fraction(43, 2)
    outcome = classify(1, 7)
    assert isinstance(outcome, OracleNonintegral)
    assert outcome.value == Fraction(769, 8)


def test_classify_undecided_past_cutoff():
    # n + 1 = 2**12: no prime > n divides it, its only odd part is 1, and
    # the r=1 smooth bound can never fire, so nothing decides it without
    # the oracle
    outcome = classify(1, 4095)
    assert isinstance(outcome, Undecided)
    assert "3000" in outcome.reason
    decided = classify(1, 4095, ClassifyBudget(oracle_cutoff=4095))
    assert isinstance(decided, OracleNonintegral)


def test_classify_deterministic():
    budget = ClassifyBudget(oracle_cutoff=100)
    assert classify(7, 60, budget) == classify(7, 60, budget)


@given(st.integers(1, 30), st.integers(1, 200))
@settings(max_examples=120, deadline=None)
def test_certificates_are_sound(r, n):
    value = s_lower(r, n)
    for cert in (
        sylvester_certificate(r, n),
        order_certificate(r, n),
        smooth_certificate(r, n),
    ):
        if cert is not None:
            assert cert.verify(r, n)
            assert value.denominator > 1
