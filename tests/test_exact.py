import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from binsum.exact import ceil_power, floor_power, nth_root, power_compare, valuation

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_valuation_examples():
    assert valuation(2, 8) == 3
    assert valuation(3, 10) == 0
    assert valuation(5, Fraction(209, 35)) == -1


def test_valuation_rejects_bad_input():
    with pytest.raises(ValueError):
        valuation(2, 0)
    with pytest.raises(ValueError):
        valuation(6, 10)


@given(
    st.sampled_from(SMALL_PRIMES),
    st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6)).filter(lambda x: x != 0),
    st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6)).filter(lambda x: x != 0),
)
def test_valuation_is_additive(p, x, y):
    assert valuation(p, x * y) == valuation(p, x) + valuation(p, y)


def test_valuation_negative_iff_denominator_factor():
    x = Fraction(209, 35)  # 35 = 5 * 7
    assert valuation(5, x) < 0 and valuation(7, x) < 0 and valuation(11, x) >= 0


def test_power_compare_examples():
    for r in (2, 3, 10, 1000):
        assert power_compare(1, r, 61, 100) == -1
    assert power_compare(16, 100, 61, 100) == -1  # 2**400 < 10**122
    assert power_compare(17, 100, 61, 100) == 1
    assert power_compare(8, 2, 3, 1) == 0  # 8 == 2**3


def test_power_compare_rejects_zero():
    with pytest.raises(ValueError):
        power_compare(0, 2, 1, 1)


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 30), st.integers(1, 30))
def test_power_compare_stable_under_squaring(a, b, p, q):
    assert power_compare(a, b, p, q) == power_compare(a * a, b * b, p, q)


@given(st.integers(0, 10**30), st.integers(1, 12))
def test_nth_root_brackets(x, n):
    a = nth_root(x, n)
    assert a**n <= x < (a + 1) ** n


def test_floor_power_values():
    assert floor_power(10, 61, 100) == 4
    assert floor_power(100, 61, 100) == 16
    assert floor_power(10**6, 61, 100) == 4570


@given(st.integers(1, 10**9), st.integers(1, 20), st.integers(1, 20))
def test_floor_power_is_max_satisfying(b, p, q):
    a = floor_power(b, p, q)
    assert power_compare(a, b, p, q) <= 0
    assert power_compare(a + 1, b, p, q) > 0


def test_fraction_is_canonical_fixpoint():
    x = Fraction(209, 35)
    assert Fraction(x.numerator, x.denominator) == x
    assert Fraction(-6, -4) == Fraction(3, 2) and Fraction(-6, 4).denominator == 2


def test_ceil_power_is_the_exact_bound():
    # x**den < b**num iff x < ceil_power(b, num, den), the bound the witness
    # search compares each pairwise gcd with
    rng = random.Random(5)
    cases = [(rng.randrange(1, 10**rng.randint(1, 20)), rng.randint(1, 30), rng.randint(1, 1000)) for _ in range(300)]
    cases += [(8, 1, 3), (10**6, 1, 2), (10**6, 1, 10), (10**6, 1, 1000), (2, 1000, 1), (1, 7, 9), (3, 4, 4)]
    for b, num, den in cases:
        t = ceil_power(b, num, den)
        assert t >= 1 and (t - 1) ** den < b**num <= t**den, (b, num, den, t)
