"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Criterion 5 checks the six-prime search at r = 10**6 in two ways.  Under
the default thresholds the search must come back empty, and for a reason
the test recomputes: both p_i - 1 and p_j - 1 are even, so every pairwise
gcd is >= 2, while gcd < r**0.001 admits 2 only for r > 2**1000.  At
r = 10**6 all 344 primes of the interval pass the order filter and their
smallest pairwise gcd is 2.  Under gcd < r**0.1, the strictest pairwise
bound parity allows at this r (it admits 2 and rejects 4), the search must
find a witness whose pairwise gcds are all 2 and which re-verifies,
including the default lcm bound M > r**5.194.
"""

import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from binsum.certify import (
    Integral,
    classify,
    s_lower,
    s_upper,
    s_upper_closed,
    sylvester_certificate,
)
from binsum.cli import main
from binsum.exact import power_compare
from binsum.experiments import (
    GCD_EXP,
    LCM_EXP,
    ORDER_EXP,
    find_tuple,
    m_of_r,
    small_order_census,
    verify_tuple,
)
from binsum.ntheory import order2, primes_in, smooth_divisor


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_c1_identity_suite():
    bad = []
    for r in range(1, 26):
        for n in range(1, 101):
            upper = s_upper(r, n)
            if upper != s_upper_closed(r, n) or s_lower(r, n) + upper != 1 << n:
                bad.append((r, n))
    assert report(
        1,
        not bad,
        f"closed form and complement identities exact on r<=25, n<=100 ({bad[:5]!r} violations)"
        if bad
        else "closed form and complement identities exact on r<=25, n<=100",
    )


def test_c2_proved_range_sweep(monkeypatch):
    import binsum.certify

    def refuse(r, n):
        raise AssertionError(f"classify evaluated the sums at ({r}, {n})")

    # every decision is a certificate; s_lower and s_upper both go through s_sums
    monkeypatch.setattr(binsum.certify, "s_sums", refuse)
    integral = []
    for r in range(1, 23):
        for n in range(1, 1501):
            if isinstance(classify(r, n), Integral):
                integral.append((r, n))
    assert report(2, not integral, f"r<=22, n<=1500 sweep: {len(integral)} integral, none evaluated")


def test_c3_certificate_soundness():
    rng = random.Random(0xACCE55)
    failures = 0
    for _ in range(500):
        r = rng.randrange(1, 51)
        n = rng.randrange(1, 801)
        cert = classify(r, n)
        if not isinstance(cert, Integral):
            if not cert.verify(r, n) or s_lower(r, n).denominator == 1:
                failures += 1
    assert report(3, failures == 0, f"500 random certificates (r<=50, n<=800): {failures} unsound")


def test_c4_sylvester_completeness():
    misses = 0
    for r in range(1, 301):
        for n in range(1, r + 1):
            cert = sylvester_certificate(r, n)
            if cert is None or not cert.verify(r, n):
                misses += 1
    assert report(4, misses == 0, f"sylvester certificate for all 1<=n<=r<=300: {misses} misses")


def test_c5_six_prime_witness():
    small10 = find_tuple(10)
    small100 = find_tuple(100)
    diagnostics_ok = (
        small10.witness is None
        and small10.interval_primes == 2
        and small100.witness is None
        and small100.interval_primes == 5
    )

    # Default thresholds at r = 10**6: every order-passing prime survives,
    # and the search comes back empty because of parity alone.
    r = 10**6
    result = find_tuple(r)
    search_ok = (
        result.interval == (1000001, 1004570)
        and result.interval_primes == 344
        and result.order_passed == 344
        and result.witness is None
    )
    lo, hi = result.interval
    passing = [
        p for p in primes_in(lo, hi)
        if power_compare(order2(p), r, *ORDER_EXP) > 0
    ]
    min_gcd = min(gcd(p - 1, q - 1) for p, q in combinations(passing, 2))
    absence_ok = (
        len(passing) == result.order_passed
        and min_gcd == 2
        and power_compare(min_gcd, r, *GCD_EXP) >= 0
    )

    # gcd(p - 1, q - 1) is even, so gcd < r**0.1 is the strictest pairwise
    # bound that can hold here: it admits 2 and rejects 4 (r**0.1 ~ 3.98).
    tight = (1, 10)
    assert power_compare(2, r, *tight) < 0
    assert power_compare(4, r, *tight) >= 0
    w = find_tuple(r, tight).witness
    check = verify_tuple(w, tight) if w is not None else None
    witness_ok = (
        check is not None
        and set(w.pair_gcds) == {2}
        and check.conditions_ok
        and check.bound_ok
        and power_compare(w.lcm_m, r, *LCM_EXP) > 0
    )

    detail = (
        f"r=10 and r=100 diagnostics {'ok' if diagnostics_ok else 'WRONG'}; "
        f"r=10**6 default search: {result.interval_primes} primes in {result.interval}, "
        f"{result.order_passed} pass the order filter, witness "
        f"{'absent' if result.witness is None else 'PRESENT'}, smallest pairwise gcd {min_gcd} "
        f"{'fails' if absence_ok else 'does NOT fail'} gcd < r**0.001; "
        f"gcd < r**0.1 witness "
        + (f"{w.primes} verified with M > r**5.194" if witness_ok else "MISSING or unverified")
    )
    assert report(5, diagnostics_ok and search_ok and absence_ok and witness_ok, detail)


def test_c6_small_order_census():
    count, _ = small_order_census(10**5)
    bound_ok = count**5 <= (10**5) ** 3  # count <= t**0.6
    count100, primes100 = small_order_census(100)
    empty_ok = count100 == 0 and primes100 == []
    assert report(
        6,
        bound_ok and empty_ok,
        f"census(10**5) = {count} <= 1000; census(100) = {count100}",
    )


def test_c7_smooth_statistics():
    two = m_of_r(2, 10**4)
    three = m_of_r(3, 10**4)
    witness_ok = (
        three.exceeds_log
        and min(smooth_divisor(3, three.argmax_n + j) for j in range(1, 4)) == three.m_max
        and 2**three.m_max > 3
    )
    assert report(
        7,
        two.m_max == 1 and witness_ok,
        f"M_2 max {two.m_max} over n<=10**4; M_3 max {three.m_max} at n={three.argmax_n} "
        f"(exceeds log2(3): {three.exceeds_log})",
    )


def test_c8_scan_determinism(tmp_path):
    one = tmp_path / "scan_t1.jsonl"
    eight = tmp_path / "scan_t8.jsonl"
    base = ["scan", "--r", "23", "--n-start", "1", "--n-end", "100000", "--format", "jsonl"]
    code1 = main(base + ["--threads", "1", "--out", str(one)])
    code8 = main(base + ["--threads", "8", "--out", str(eight)])
    identical = one.read_bytes() == eight.read_bytes()
    integral = sum(
        1
        for line in one.read_text().splitlines()
        if json.loads(line)["classification"] != "certified_nonintegral"
    )
    assert report(
        8,
        identical and integral == 0 and code1 == code8 == 0,
        f"r=23, n<=10**5: byte-identical across 1/8 threads = {identical}, "
        f"{integral} integral records",
    )


def test_headline_value_spot_checks():
    # anchor values used throughout the suite, rechecked here in one place
    assert s_lower(3, 4) == Fraction(209, 35)
    assert s_upper(3, 4) == Fraction(351, 35)
    assert s_lower(1, 5) == Fraction(43, 2)
    print("ACCEPTANCE anchors: PASS - frozen oracle values recheck")
