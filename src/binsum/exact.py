"""Exact arithmetic helpers: p-adic valuations of rationals and float-free
comparison against fractional powers.

Rational values throughout the package are `fractions.Fraction`, which is
canonical by construction: reduced to lowest terms with a positive
denominator, and re-reducing is a no-op.
"""

from __future__ import annotations

from fractions import Fraction

from .ntheory import is_prime


def _int_valuation(p: int, m: int) -> int:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def valuation(p: int, x: Fraction | int) -> int:
    """p-adic valuation of a nonzero rational.

    Returns v_p(numerator) - v_p(denominator); negative exactly when p
    divides the reduced denominator of x.
    """
    if not is_prime(p):
        raise ValueError(f"valuation needs a prime modulus: got {p}")
    x = Fraction(x)
    if x == 0:
        raise ValueError("the valuation of 0 is undefined")
    return _int_valuation(p, abs(x.numerator)) - _int_valuation(p, x.denominator)


def power_compare(a: int, b: int, p: int, q: int) -> int:
    """Ordering of a versus b**(p/q), as -1 / 0 / +1.

    Decided by the exact integer comparison of a**q against b**p, so
    fractional-exponent thresholds never touch floating point.
    """
    if min(a, b, p, q) < 1:
        raise ValueError("power_compare needs all arguments >= 1")
    lhs, rhs = a**q, b**p
    return (lhs > rhs) - (lhs < rhs)


def nth_root(x: int, n: int) -> int:
    """Largest a >= 0 with a**n <= x, by integer Newton iteration."""
    if x < 0 or n < 1:
        raise ValueError("nth_root needs x >= 0 and n >= 1")
    if x == 0:
        return 0
    if n == 1:
        return x
    g = 1 << -(-x.bit_length() // n)
    while True:
        y = ((n - 1) * g + x // g ** (n - 1)) // n
        if y >= g:
            break
        g = y
    while g**n > x:
        g -= 1
    return g


def floor_power(b: int, p: int, q: int) -> int:
    """Largest a >= 0 with a**q <= b**p, i.e. floor(b**(p/q)) computed
    exactly."""
    if b < 1 or p < 1 or q < 1:
        raise ValueError("floor_power needs all arguments >= 1")
    return nth_root(b**p, q)


def ceil_power(b: int, p: int, q: int) -> int:
    """Least a >= 1 with a**q >= b**p: for x >= 0, x**q < b**p iff x < a."""
    a = floor_power(b, p, q)
    return a + (a**q < b**p)
