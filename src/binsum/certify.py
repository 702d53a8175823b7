"""Exact evaluation of the binomial sums and nonintegrality certificates.

For positive integers r, n define

    s_lower(r, n) = sum_{k=1..n} k/(k+r) * C(n, k)
    s_upper(r, n) = sum_{k=0..n} r/(k+r) * C(n, k)

They satisfy s_lower + s_upper = 2**n exactly, and s_upper has the
alternating closed form

    s_upper(r, n) = sum_{j=1..r} (-1)**(r-j) * r * C(r-1, j-1)
                                * (2**(n+j) - 1) / (n + j).

It is conjectured that s_lower(r, n) is never an integer.  A certificate
is a small, independently re-checkable piece of data that forces a prime
into the reduced denominator of s_lower(r, n) (equivalently of s_upper,
since the two differ by the integer 2**n):

* SylvesterPrime: a prime p > n dividing k0 + r for some 1 <= k0 <= n.
  Because p > n, no other k + r in the sum is a multiple of p, so exactly
  one term of s_lower carries p in its denominator.
* OrderCertificate: an odd prime p > r dividing n + j for some
  1 <= j <= r, whose order of 2 does not divide n + j.  Exactly one term
  of the closed form has n + j as denominator (p > r makes j unique), p
  divides neither r nor C(r-1, j-1) (all prime factors of that binomial
  are < r < p), and p does not divide 2**(n+j) - 1 because the order of 2
  mod p does not divide the exponent; so that single term has negative
  p-valuation and s_upper cannot be an integer.  The order condition is
  checked as pow(2, n + j, p) != 1, which is equivalent (see
  OrderCertificate).
* SmoothBound: the minimum M over 1 <= j <= r of the largest r-smooth
  divisor of n + j, with 2**M <= r.

classify() tries the certificates in a fixed order and falls back to
direct exact evaluation when the instance is small enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Optional, Union

from .ntheory import (
    U64_LIMIT,
    _TRIAL_LIMIT,
    _factorize,
    is_prime,
    iter_primes,
    order2,  # not called here; kept as the name the benchmark tracer patches on this module
    primes_upto,
    smooth_divisor,
)

# Cost guard for direct summation; C(n, k) and the lcm of the denominators
# grow superexponentially in n.
ORACLE_CUTOFF = 3000

# Cost guard for the closed form, whose terms carry 2**(n+j).
CLOSED_FORM_CUTOFF = 200

# Largest r for which the smooth-divisor minimum is computed per instance.
M_LOWER_WINDOW = 1 << 20


def _check_instance(r: int, n: int) -> None:
    if r < 1 or n < 1:
        raise ValueError(f"instance needs r >= 1 and n >= 1: got (r={r}, n={n})")
    if n + r >= U64_LIMIT:
        raise ValueError(f"instance exceeds the 2**64 scan domain: (r={r}, n={n})")


def s_lower(r: int, n: int, *, cutoff: int = ORACLE_CUTOFF) -> Fraction:
    """Exact value of sum_{k=1..n} k/(k+r) * C(n, k)."""
    _check_instance(r, n)
    if n > cutoff:
        raise ValueError(f"n={n} exceeds the evaluation cutoff {cutoff}")
    den = reduce(lcm, range(r + 1, n + r + 1), 1)
    total = 0
    c = 1  # C(n, k), starting at k = 0
    for k in range(1, n + 1):
        c = c * (n - k + 1) // k
        total += k * c * (den // (k + r))
    return Fraction(total, den)


def s_upper(r: int, n: int, *, cutoff: int = ORACLE_CUTOFF) -> Fraction:
    """Exact value of sum_{k=0..n} r/(k+r) * C(n, k) by direct summation."""
    _check_instance(r, n)
    if n > cutoff:
        raise ValueError(f"n={n} exceeds the evaluation cutoff {cutoff}")
    den = reduce(lcm, range(r, n + r + 1), 1)
    total = 0
    c = 1
    for k in range(0, n + 1):
        if k:
            c = c * (n - k + 1) // k
        total += r * c * (den // (k + r))
    return Fraction(total, den)


def s_upper_closed(r: int, n: int, *, cutoff: int = CLOSED_FORM_CUTOFF) -> Fraction:
    """s_upper(r, n) via its alternating closed form (r terms, each with a
    2**(n+j) - 1 numerator)."""
    _check_instance(r, n)
    if r > cutoff:
        raise ValueError(f"r={r} exceeds the closed-form cutoff {cutoff}")
    den = reduce(lcm, range(n + 1, n + r + 1), 1)
    total = 0
    c = 1  # C(r-1, j-1), starting at j = 1
    for j in range(1, r + 1):
        sign = -1 if (r - j) % 2 else 1
        total += sign * r * c * ((1 << (n + j)) - 1) * (den // (n + j))
        c = c * (r - j) // j
    return Fraction(total, den)


def complement_check(r: int, n: int, *, cutoff: int = ORACLE_CUTOFF) -> bool:
    """True iff s_lower + s_upper equals 2**n exactly."""
    return s_lower(r, n, cutoff=cutoff) + s_upper(r, n, cutoff=cutoff) == 1 << n


@dataclass(frozen=True)
class SylvesterPrime:
    """Prime p > n with p | k0 + r: the k0 term of s_lower alone carries p
    in its reduced denominator."""

    p: int
    k0: int
    kind = "sylvester"

    def verify(self, r: int, n: int) -> bool:
        return (
            1 <= self.k0 <= n
            and self.p > n
            and (self.k0 + r) % self.p == 0
            and is_prime(self.p)
        )


@dataclass(frozen=True)
class OrderCertificate:
    """Odd prime p > r with p | n + j and order2(p) not dividing n + j: the
    j-th closed-form term alone has negative p-valuation.

    verify tests the order condition as pow(2, n + j, p) != 1, with no
    factorization of p - 1.  Proof that ord | m <=> 2**m == 1 (mod p), with
    ord = order2(p) and m = n + j, all congruences mod p: write
    m = q * ord + s with 0 <= s < ord, so 2**m = (2**ord)**q * 2**s == 2**s.
    If ord | m then s = 0 and 2**m == 1.  If 2**m == 1 then 2**s == 1, and
    as ord is the least positive exponent with that property, s = 0.
    """

    p: int
    j: int
    kind = "order"

    def verify(self, r: int, n: int) -> bool:
        if not (1 <= self.j <= r and self.p > r and self.p % 2 == 1):
            return False
        if (n + self.j) % self.p != 0 or not is_prime(self.p):
            return False
        return pow(2, n + self.j, self.p) != 1


@dataclass(frozen=True)
class SmoothBound:
    """m_value = min_{1<=j<=r} s_r(n+j) with 2**m_value <= r."""

    m_value: int
    kind = "smooth"

    def verify(self, r: int, n: int) -> bool:
        # 2**m <= r compared via bit length to avoid a huge power
        return self.m_value < r.bit_length() and self.m_value == m_lower(r, n)


Certificate = Union[SylvesterPrime, OrderCertificate, SmoothBound]


@dataclass(frozen=True)
class CertifiedNonintegral:
    certificate: Certificate
    kind = "certified_nonintegral"


@dataclass(frozen=True)
class OracleNonintegral:
    value: Fraction
    kind = "oracle_nonintegral"


@dataclass(frozen=True)
class OracleIntegral:
    value: Fraction
    kind = "oracle_integral"


@dataclass(frozen=True)
class Undecided:
    reason: str
    kind = "undecided"


Classification = Union[CertifiedNonintegral, OracleNonintegral, OracleIntegral, Undecided]

CLASSIFICATION_KINDS = (
    "certified_nonintegral",
    "oracle_nonintegral",
    "oracle_integral",
    "undecided",
)

CERTIFICATE_KINDS = ("sylvester", "order", "smooth")


def sylvester_certificate(r: int, n: int) -> Optional[SylvesterPrime]:
    """Smallest prime p > n dividing some k + r (1 <= k <= n), with the
    smallest such k, or None.

    A prime p > n divides some value in [r+1, r+n] iff p itself lies in
    (n, n+r] and has a multiple in the window, so the search walks primes
    upward from n + 1 and stops at the first hit.  For r >= n a hit always
    exists: a product of n consecutive integers all exceeding n has a
    prime factor above n.
    """
    _check_instance(r, n)
    for q in iter_primes(n + 1, n + r):
        first = (r + q) // q * q  # least multiple of q that is >= r + 1
        if first <= r + n:
            return SylvesterPrime(p=q, k0=first - r)
    return None


def order_certificate(r: int, n: int) -> Optional[OrderCertificate]:
    """Smallest odd prime p > r dividing some n + j (1 <= j <= r) with
    order2(p) not dividing n + j, with its (unique) j, or None.

    The order condition is tested as pow(2, n + j, p) != 1 (see
    OrderCertificate for the equivalence).

    Fast path: walk the odd primes q in (r, _TRIAL_LIMIT) ascending.  As
    q > r, at most one n + j (1 <= j <= r) is a multiple of q: the one with
    j = (-n mod q) or q, provided j <= r.  The first q that qualifies is the
    smallest qualifying prime overall: the smaller odd primes above r were
    examined and failed, 2 and the primes <= r never qualify, and every
    prime not examined is >= _TRIAL_LIMIT > q.  Only when none qualifies
    does the search factor every n + j.  That search is complete on its own
    and is the reference the tests compare the fast path against.
    """
    _check_instance(r, n)
    for q in primes_upto(_TRIAL_LIMIT):
        if q == 2 or q <= r:
            continue
        j = -n % q or q
        if j <= r and pow(2, n + j, q) != 1:
            return OrderCertificate(p=q, j=j)
    best: Optional[tuple[int, int]] = None
    for j in range(1, r + 1):
        v = n + j
        for q, _ in _factorize(v):
            if q == 2 or q <= r:
                continue
            if best is not None and q >= best[0]:
                continue
            if pow(2, v, q) != 1:
                best = (q, j)
    return OrderCertificate(p=best[0], j=best[1]) if best else None


def m_lower(r: int, n: int, *, window_limit: int = M_LOWER_WINDOW) -> int:
    """min over 1 <= j <= r of the largest r-smooth divisor of n + j."""
    _check_instance(r, n)
    if r > window_limit:
        raise ValueError(f"r={r} exceeds the smooth-window limit {window_limit}")
    return min(smooth_divisor(r, n + j) for j in range(1, r + 1))


def smooth_certificate(r: int, n: int, *, window_limit: int = M_LOWER_WINDOW) -> Optional[SmoothBound]:
    """SmoothBound when 2**m_lower(r, n) <= r, else None."""
    m = m_lower(r, n, window_limit=window_limit)
    if m < r.bit_length():  # 2**m <= r
        return SmoothBound(m_value=m)
    return None


@dataclass(frozen=True)
class ClassifyBudget:
    """Work limits for classify(); results are deterministic per budget."""

    oracle_cutoff: int = ORACLE_CUTOFF
    cert_search_limit: int = 10_000  # max r for the order/smooth searches


DEFAULT_BUDGET = ClassifyBudget()


def classify(r: int, n: int, budget: ClassifyBudget = DEFAULT_BUDGET) -> Classification:
    """Decide whether s_lower(r, n) is an integer, within the budget.

    Certificates are tried in a fixed order (sylvester, order, smooth);
    the first hit wins.  Otherwise the sum is evaluated exactly when
    n <= budget.oracle_cutoff; beyond that the instance is Undecided.
    """
    _check_instance(r, n)
    cert: Optional[Certificate] = sylvester_certificate(r, n)
    if cert is None and r <= budget.cert_search_limit:
        cert = order_certificate(r, n)
    if cert is None and r <= budget.cert_search_limit:
        cert = smooth_certificate(r, n)
    if cert is not None:
        return CertifiedNonintegral(certificate=cert)
    if n <= budget.oracle_cutoff:
        value = s_lower(r, n, cutoff=budget.oracle_cutoff)
        if value.denominator == 1:
            return OracleIntegral(value=value)
        return OracleNonintegral(value=value)
    return Undecided(
        reason=(
            f"no certificate (search limit r<={budget.cert_search_limit}); "
            f"n exceeds oracle cutoff {budget.oracle_cutoff}"
        )
    )
