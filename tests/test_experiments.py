import dataclasses
import gc
import math
import random
import tracemalloc
from itertools import combinations
from math import gcd

import pytest

from binsum.exact import ceil_power, floor_power, power_compare
from binsum.experiments import (
    GCD_EXP,
    INTERVAL_EXP,
    LCM_EXP,
    ORDER_EXP,
    TUPLE_SIZE,
    _PAIRS,
    _select_tuple,
    find_tuple,
    gap_probe,
    m_of_r,
    scan_density,
    small_order_census,
    verify_tuple,
)
from binsum.ntheory import U64_LIMIT, is_prime, order2, primes_in, primes_upto, smooth_divisor

# gcd(p-1, q-1) is even for odd primes, so the default gcd threshold
# gcd < r**0.001 is vacuous below r = 2**1000; tests that need a witness
# relax it to gcd < r.
RELAXED = (1, 1)


def test_default_thresholds():
    assert INTERVAL_EXP == (61, 100)
    assert ORDER_EXP == (3, 10)
    assert GCD_EXP == (1, 1000)
    assert LCM_EXP == (2597, 500)


def test_find_tuple_small_r_diagnostics():
    res = find_tuple(10)
    assert res.witness is None
    assert res.interval == (11, 14)
    assert res.interval_primes == 2  # 11 and 13
    res = find_tuple(100)
    assert res.witness is None
    assert res.interval == (101, 116)
    assert res.interval_primes == 5  # 101, 103, 107, 109, 113


def test_find_tuple_default_thresholds_blocked_by_parity():
    for r in (50, 10**4, 10**6):
        res = find_tuple(r)
        assert res.witness is None
        lo, hi = res.interval
        passing = [
            p for p in primes_in(lo, hi)
            if power_compare(order2(p), r, *ORDER_EXP) > 0
        ]
        assert len(passing) == res.order_passed
        if len(passing) < 2:
            continue
        # the cause: every pairwise gcd is even, and the default bound rejects 2
        assert all(gcd(p - 1, q - 1) % 2 == 0 for p, q in combinations(passing, 2))
        assert power_compare(2, r, *GCD_EXP) >= 0


def test_find_tuple_rejects_r_below_two():
    with pytest.raises(ValueError):
        find_tuple(1)


def test_find_tuple_relaxed_gcd_finds_witness():
    res = find_tuple(10**6, RELAXED)
    w = res.witness
    assert w is not None
    assert res.interval_primes == 344
    assert w.primes == (1000003, 1000033, 1000037, 1000039, 1000081, 1000099)
    assert len(w.pair_gcds) == 15
    check = verify_tuple(w, RELAXED)
    assert check.conditions_ok and check.bound_ok
    # deterministic: a rerun reproduces the same witness
    assert find_tuple(10**6, RELAXED).witness == w


def test_verify_tuple_rejects_tampering():
    w = find_tuple(10**6, RELAXED).witness

    dup = dataclasses.replace(w, primes=(w.primes[0],) + w.primes[:5])
    assert not verify_tuple(dup, RELAXED).conditions_ok

    bad_order = dataclasses.replace(w, orders=(1,) + w.orders[1:])
    check = verify_tuple(bad_order, RELAXED)
    assert not check.conditions_ok
    assert any("order" in f for f in check.failures)

    bad_gcd = dataclasses.replace(w, pair_gcds=(10**9,) + w.pair_gcds[1:])
    assert not verify_tuple(bad_gcd, RELAXED).conditions_ok

    bad_lcm = dataclasses.replace(w, lcm_m=w.lcm_m * 2)
    assert not verify_tuple(bad_lcm, RELAXED).conditions_ok

    composite = dataclasses.replace(w, primes=(1000001,) + w.primes[1:])  # 101 * 9901
    assert not verify_tuple(composite, RELAXED).conditions_ok

    shifted = dataclasses.replace(w, r=10**6 + 50)  # first primes now below r
    assert not verify_tuple(shifted, RELAXED).conditions_ok


@pytest.mark.parametrize("change, failure, bound_ok", [
    (lambda w: {"primes": w.primes[:5]}, "expected 6 primes, got 5", True),
    (lambda w: {"primes": w.primes + (w.primes[-1] + 2,)}, "expected 6 primes, got 7", True),
    (lambda w: {"primes": (w.primes[1], w.primes[0]) + w.primes[2:]}, "primes not strictly increasing", True),
    (lambda w: {"orders": w.orders[:5]}, "expected 6 orders, 15 pair gcds: got 5, 15", True),
    (lambda w: {"pair_gcds": w.pair_gcds[:14]}, "expected 6 orders, 15 pair gcds: got 6, 14", True),
    (lambda w: {"r": 0}, "r=0 out of range", False),
    (lambda w: {"r": 1}, "r=1 out of range", True),  # bound_ok as ever: M > 1**x holds
    (lambda w: {"r": -5}, "r=-5 out of range", False),
], ids=["5-primes", "7-primes", "non-increasing", "5-orders", "14-pair-gcds", "r=0", "r=1", "r=-5"])
def test_verify_tuple_reports_a_shape_defect_alone(change, failure, bound_ok):
    # each witness differs from a verified one in its shape alone, so no
    # later check runs: none reads an index past a short tuple, and none
    # hands power_compare an r below 2
    w = find_tuple(10**6, RELAXED).witness
    check = verify_tuple(dataclasses.replace(w, **change(w)), RELAXED)
    assert check.failures == (failure,)
    assert not check.conditions_ok
    assert check.bound_ok is bound_ok


def test_pairs_are_the_lexicographic_pairs_of_the_tuple():
    # TupleWitness.pair_gcds documents this order; _select_tuple stores and
    # verify_tuple reads the gcds in it
    assert len(_PAIRS) == 15
    assert _PAIRS == tuple((i, j) for i in range(TUPLE_SIZE) for j in range(i + 1, TUPLE_SIZE))
    w = find_tuple(10**6, RELAXED).witness
    assert w.pair_gcds == tuple(gcd(w.primes[i] - 1, w.primes[j] - 1) for i, j in _PAIRS)


def test_verify_tuple_reports_gcd_threshold_separately_from_bound():
    w = find_tuple(10**6, RELAXED).witness
    check = verify_tuple(w)  # default thresholds: every pair gcd >= 2 fails
    assert not check.conditions_ok
    assert check.bound_ok  # the lcm bound itself still holds
    assert any("gcd" in f for f in check.failures)


def test_scan_density_single_instance():
    rep = scan_density(2, 1, 1)
    assert rep.counts["certified_nonintegral"] == 1
    assert sum(rep.counts.values()) == 1
    assert rep.integral_witnesses == []


def test_scan_density_range():
    rep = scan_density(1, 1, 100)
    assert sum(rep.counts.values()) == 100
    assert rep.counts == {"certified_nonintegral": 100, "integral": 0}
    assert sum(rep.cert_counts.values()) == rep.counts["certified_nonintegral"]
    assert rep.cert_counts["denominator"] == 0 and rep.integral_witnesses == []


def test_scan_density_rejects_bad_ranges():
    with pytest.raises(ValueError):
        scan_density(5, 10, 9)
    with pytest.raises(ValueError):
        scan_density(5, 1, 10**8)
    with pytest.raises(ValueError):
        scan_density(0, 1, 10)


def test_scan_report_merge_is_partition_invariant():
    whole = scan_density(1, 1, 90)
    for cut in (30, 45, 60):
        left = scan_density(1, 1, cut)
        right = scan_density(1, cut + 1, 90)
        for field in ("counts", "cert_counts"):
            parts = (getattr(left, field), getattr(right, field))
            assert {k: parts[0][k] + parts[1][k] for k in parts[0]} == getattr(whole, field)
        assert left.integral_witnesses + right.integral_witnesses == whole.integral_witnesses


def test_census_examples():
    assert small_order_census(100) == (0, [])
    assert small_order_census(2) == (0, [])
    count, primes = small_order_census(10**4)
    assert count == 1 and primes == [8191]  # order2(8191) = 13 and 13**10 <= 8191**3


CENSUS_CHECK_T = 2 * 10**5


@pytest.fixture(scope="module")
def plain_census():
    """The census by its definition, up to the largest t the tests below ask."""
    t = max(CENSUS_CHECK_T, ceil_power(40, 10, 3))
    return [q for q in primes_in(3, t) if power_compare(order2(q), q, 3, 10) <= 0]


def test_census_equals_its_definition(plain_census):
    assert small_order_census(CENSUS_CHECK_T)[1] == [q for q in plain_census if q <= CENSUS_CHECK_T]


@pytest.mark.parametrize("k", range(2, 41))
def test_census_equals_its_definition_where_the_lcm_bound_steps(plain_census, k):
    # K = floor(t**0.3) is k - 1 at t = ceil(k**(10/3)) - 1 and k at t
    t = ceil_power(k, 10, 3)
    for bound, big_k in ((t - 1, k - 1), (t, k)):
        assert floor_power(bound, 3, 10) == big_k
        expected = [q for q in plain_census if q <= bound]
        assert small_order_census(bound) == (len(expected), expected)


def test_census_filter_keeps_every_small_order_prime(plain_census):
    # the lemma behind the filter, at the census bound and at the tightest
    # bound t = q: order2(q) <= K divides L = lcm(1..K), so
    # 2**(L mod (q - 1)) == 1 (mod q)
    hits = [q for q in plain_census if q <= CENSUS_CHECK_T]
    assert hits
    for q in hits:
        for t in (CENSUS_CHECK_T, q):
            big_k = floor_power(t, 3, 10)
            assert order2(q) <= big_k
            assert pow(2, math.lcm(*range(1, big_k + 1)) % (q - 1), q) == 1


def test_census_keeps_nothing_after_it_returns():
    # order2 and the factorizations under it are recomputed on every call,
    # so a census leaves no per-prime table behind; the shared sieve is warm
    t = 10**5
    primes_upto(math.isqrt(t))
    tracemalloc.start()
    try:
        small_order_census(t)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2 * 2**20


def test_census_is_prefix_monotone():
    _, small = small_order_census(5000)
    _, large = small_order_census(10**4)
    assert large[: len(small)] == small


def test_census_rejects_oversized():
    with pytest.raises(ValueError):
        small_order_census(10**8)
    with pytest.raises(ValueError):
        small_order_census(0)


def test_m_of_r_examples():
    assert m_of_r(1, 100).m_max == 1
    stats = m_of_r(2, 100)
    assert stats.m_max == 1 and not stats.exceeds_log  # 2**1 = r
    stats = m_of_r(3, 100)
    assert stats.m_max == 2
    assert stats.argmax_n == 1  # min(s_3(2), s_3(3), s_3(4)) = 2
    assert stats.exceeds_log


def test_m_of_r_matches_direct_minimum():
    for r in (2, 3, 5, 10):
        stats = m_of_r(r, 60)
        values = [min(smooth_divisor(r, n + j) for j in range(1, r + 1)) for n in range(1, 61)]
        assert stats.m_max == max(values)
        assert stats.argmax_n == values.index(max(values)) + 1


def test_m_of_r_nondecreasing_in_n_max():
    prev = 0
    for n_max in (10, 50, 100, 500, 1000):
        m = m_of_r(7, n_max).m_max
        assert m >= prev
        prev = m


def reference_primes(r, candidates, gcd_exp):
    """The six primes the greedy backtracking search picks, deciding each
    pairwise gcd threshold by its own power comparison."""
    chosen = []

    def extend(start):
        if len(chosen) == TUPLE_SIZE:
            return True
        for i in range(start, len(candidates)):
            p = candidates[i]
            if all(power_compare(gcd(p - 1, q - 1), r, *gcd_exp) < 0 for q in chosen):
                chosen.append(p)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if extend(0) else None


@pytest.mark.parametrize("r, gcd_exp", [
    (10**6, GCD_EXP), (10**6, (1, 10)), (10**6, RELAXED), (10, GCD_EXP), (100, GCD_EXP),
    (10**4, RELAXED), (10**4, (1, 4)), (10**5, (1, 5)), (10**5, (2, 11)),
    # r**(num/den) an integer, which the gcd must stay below: 100, 2, 8
    (10**6, (1, 3)), (2**20, (1, 20)), (2**20, (3, 20)),
])
def test_tuple_search_matches_a_per_pair_power_compare(r, gcd_exp):
    # the search compares gcds with one precomputed bound; the reference
    # compares every pair's gcd power with r's, as verify_tuple does
    res = find_tuple(r, gcd_exp)
    lo, hi = res.interval
    candidates = [p for p in primes_in(lo, hi) if power_compare(order2(p), r, *ORDER_EXP) > 0]
    expected = reference_primes(r, candidates, gcd_exp)
    assert (res.witness and res.witness.primes) == expected
    assert _select_tuple(r, candidates, gcd_exp) == res.witness
    if expected:
        check = verify_tuple(res.witness, gcd_exp)
        assert check.conditions_ok and check.bound_ok


def test_m_of_r_rejects_oversized_work():
    # the bound is on the n_max + r - 1 smooth divisors the window evaluates
    with pytest.raises(ValueError):
        m_of_r(10**7, 10)


def test_m_of_r_bounds_divisors_not_their_product():
    # 1.2 * 10**5 divisors, though r * n_max = 2 * 10**9; every window from
    # n = 3 on holds the prime 100003 > r, so M_r(n) = 1 there
    stats = m_of_r(10**5, 2 * 10**4)
    assert (stats.m_max, stats.argmax_n) == (3, 2)


def test_gap_probe_examples():
    probe = gap_probe(2)
    assert (probe.next_prime, probe.gap) == (3, 1)
    probe = gap_probe(113)
    assert (probe.next_prime, probe.gap) == (127, 14)
    assert probe.gap20_vs_n == 1 and probe.gap11_vs_n == 1
    probe = gap_probe(10**6)
    assert (probe.next_prime, probe.gap) == (1000003, 3)
    assert probe.gap20_vs_n == 1  # 3**20 > 10**6
    assert probe.gap11_vs_n == -1  # 3**11 < 10**6


def test_gap_probe_finds_the_least_prime():
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randrange(1, 10**7)
        probe = gap_probe(n)
        assert is_prime(probe.next_prime)
        assert probe.next_prime - n == probe.gap
        assert all(not is_prime(x) for x in range(n + 1, probe.next_prime))


def test_gap_probe_stays_below_2_to_the_64():
    # 2**64 - 59 is the largest prime below 2**64: past it the walk would
    # leave is_prime's domain, so the probe names its own limit
    top = U64_LIMIT - 59
    assert is_prime(top)
    probe = gap_probe(top - 1)
    assert (probe.next_prime, probe.gap) == (top, 1)
    for n in (top, U64_LIMIT - 2, U64_LIMIT - 1):
        with pytest.raises(ValueError, match=rf"no prime in \({n}, 2\*\*64\)"):
            gap_probe(n)
    for n in (0, U64_LIMIT):
        with pytest.raises(ValueError, match="gap_probe needs 1 <= n < 2\\*\\*64"):
            gap_probe(n)
