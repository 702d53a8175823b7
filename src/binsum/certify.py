"""Exact evaluation of the binomial sums and nonintegrality certificates.

For positive integers r, n define

    s_lower(r, n) = sum_{k=1..n} k/(k+r) * C(n, k)
    s_upper(r, n) = sum_{k=0..n} r/(k+r) * C(n, k)

They satisfy s_lower + s_upper = 2**n exactly, and s_upper has the
alternating closed form

    s_upper(r, n) = sum_{j=1..r} c_j * (2**m_j - 1) / m_j,
    c_j = (-1)**(r-j) * r * C(r-1, j-1),  m_j = n + j.

It is conjectured that s_lower(r, n) is never an integer.  A certificate
is a small, independently re-checkable piece of data that forces a prime
into the reduced denominator of s_lower(r, n) (equivalently of s_upper,
since the two differ by the integer 2**n):

* SylvesterPrime: a prime p > n dividing k0 + r for some 1 <= k0 <= n.
  Because p > n, no other k + r in the sum is a multiple of p, so exactly
  one term of s_lower carries p in its denominator.
* OrderCertificate: a prime p > r dividing some m_j with 2**m_j != 1
  (mod p).  p divides no other m_i, and not c_j (whose prime factors are
  <= r), so v_p(s_upper) = v_p(2**m_j - 1) - v_p(m_j) = -v_p(m_j) < 0.
* DenominatorPrime: any prime p passing a modular check.  Write
  m_j = p**v_j * u_j with p not dividing u_j, and a = max_j v_j.  Then
  p**a * s_upper = sum_j c_j * (2**m_j - 1) * p**(a - v_j) / u_j is
  p-integral and its terms with v_j = 0 vanish mod p**a, so p divides the
  reduced denominator iff the other terms sum to a nonzero residue mod p**a.

classify() tries the three in that order, the last over the primes p <= r,
and returns the first certificate found, or Integral() when there is none.
They find a prime of every reduced denominator, so Integral is a proof,
not a budget verdict.  Proof for a prime p > r dividing some m_j: as above,
v_p(s_upper) = v_p(2**m_j - 1) - v_p(m_j).  For p = 2 (r = 1) 2**m_j - 1 is
odd.  For odd p with ord = order2(p) dividing m_j, lifting the exponent
gives v_p(2**m_j - 1) = v_p(2**ord - 1) + v_p(m_j / ord) >= 1 + v_p(m_j), as
ord | p - 1 is prime to p.  So p is in the denominator iff it qualifies for
an order certificate, and order_certificate examines every such p.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import islice
from math import comb, lcm
from typing import Optional, Union, get_args

from .exact import _int_valuation
from .ntheory import U64_LIMIT, _PRIME_TABLE, _TRIAL_LIMIT, _factorize, is_prime, next_prime, primes_upto

# Cost guard for direct summation; C(n, k) and the lcm of the denominators
# grow superexponentially in n.
ORACLE_CUTOFF = 3000

# Cost guard for the closed form, whose terms carry 2**(n+j).
CLOSED_FORM_CUTOFF = 200


def _check_instance(r: int, n: int) -> None:
    if r < 1 or n < 1:
        raise ValueError(f"instance needs r >= 1 and n >= 1: got (r={r}, n={n})")
    if n + r >= U64_LIMIT:
        raise ValueError(f"instance exceeds the 2**64 scan domain: (r={r}, n={n})")


def s_sums(r: int, n: int) -> tuple[Fraction, Fraction]:
    """Exact (s_lower(r, n), s_upper(r, n)) by one direct summation over
    the common denominator den = lcm(r, ..., n + r): with
    term_k = C(n, k) * den / (k + r), s_lower = sum k * term_k / den and
    s_upper = r * sum term_k / den."""
    _check_instance(r, n)
    if n > ORACLE_CUTOFF:
        raise ValueError(f"n={n} exceeds the evaluation cutoff {ORACLE_CUTOFF}")
    den = reduce(lcm, range(r, n + r + 1), 1)
    lower, upper = 0, den // r  # the k = 0 term
    c = 1  # C(n, k), starting at k = 0
    for k in range(1, n + 1):
        c = c * (n - k + 1) // k
        term = c * (den // (k + r))
        lower += k * term
        upper += term
    return Fraction(lower, den), Fraction(r * upper, den)


def s_lower(r: int, n: int) -> Fraction:
    """Exact value of sum_{k=1..n} k/(k+r) * C(n, k)."""
    return s_sums(r, n)[0]


def s_upper(r: int, n: int) -> Fraction:
    """Exact value of sum_{k=0..n} r/(k+r) * C(n, k) by direct summation."""
    return s_sums(r, n)[1]


def s_upper_closed(r: int, n: int) -> Fraction:
    """s_upper(r, n) via its alternating closed form (r terms, each with a
    2**(n+j) - 1 numerator)."""
    _check_instance(r, n)
    if r > CLOSED_FORM_CUTOFF:
        raise ValueError(f"r={r} exceeds the closed-form cutoff {CLOSED_FORM_CUTOFF}")
    den = reduce(lcm, range(n + 1, n + r + 1), 1)
    total = 0
    c = 1  # C(r-1, j-1), starting at j = 1
    for j in range(1, r + 1):
        sign = -1 if (r - j) % 2 else 1
        total += sign * r * c * ((1 << (n + j)) - 1) * (den // (n + j))
        c = c * (r - j) // j
    return Fraction(total, den)


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
    """Prime p > r with p | n + j and order2(p) not dividing n + j: the
    j-th closed-form term alone has negative p-valuation.  p = 2 occurs
    only for r = 1, where s_upper = (2**m - 1)/m with m = n + 1: 2**m - 1 is
    odd, so 2 is in the denominator iff m is even, and pow(2, m, 2) = 0
    makes the same test below accept it.

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
        if not (1 <= self.j <= r and self.p > r):
            return False
        if (n + self.j) % self.p != 0 or not is_prime(self.p):
            return False
        return pow(2, n + self.j, self.p) != 1


@dataclass(frozen=True)
class DenominatorPrime:
    """Prime p dividing the reduced denominator of s_upper(r, n), shown by
    the modular check of the module docstring (_denominator_residue)."""

    p: int
    kind = "denominator"

    def verify(self, r: int, n: int) -> bool:
        return 2 <= self.p <= n + r and is_prime(self.p) and _denominator_residue(r, n, self.p) != 0


# The frozen certificate for (p, k0), built once for the consecutive n
# that share it: k0 = first - r depends on p and r alone, not on n
# (sylvester_certificate).
_sylvester_prime = lru_cache(maxsize=1)(SylvesterPrime)

Certificate = Union[SylvesterPrime, OrderCertificate, DenominatorPrime]


@dataclass(frozen=True)
class Integral:
    """What classify returns when no certificate exists, which proves
    s_lower(r, n) an integer."""

    kind = "integral"


Classification = Union[Certificate, Integral]

CERTIFICATE_KINDS = tuple(cls.kind for cls in get_args(Certificate))


def sylvester_certificate(r: int, n: int) -> Optional[SylvesterPrime]:
    """Smallest prime p > n dividing some k + r (1 <= k <= n), with the
    smallest such k, or None.

    A prime p > n divides at most one of the n consecutive values r+1..r+n,
    and it divides one iff its least multiple >= r + 1 is <= r + n, which
    needs p <= n + r.

    For n >= r the answer is P = next_prime(n) with k0 = P - r when
    P <= n + r, and None otherwise: P >= n + 1 >= r + 1 is its own least
    multiple >= r + 1, so it qualifies iff P <= n + r, and every prime above
    it is larger.  When next_prime(n) is None, (n, 2**64) holds no prime,
    and n + r < 2**64, so (n, n + r] holds none.  Consecutive n share P,
    and its certificate object with it.

    For n < r the result is never None, by Sylvester-Schur: the product of
    the n consecutive integers r+1..r+n, all above n, has a prime factor
    above n.  A walk steps through the primes q = next_prime(n),
    next_prime(q), ... and returns the first with a multiple in the window:
    every smaller prime above n was examined and failed.  It stops at
    min(n + r, 2n + _TRIAL_LIMIT), so it covers O(n) integers even when r is
    far above n.  The cap can exceed 2**64 - 59, the largest prime below
    2**64, where next_prime returns None and the walk ends.  While
    r <= n + _TRIAL_LIMIT the cap is n + r, so the walk sees every
    qualifying prime and finds one.  Only a larger r can leave it empty; a
    search then factors every r + k and takes the smallest prime factor
    above n, with its k.  That search sees every prime > n dividing the
    window, so it returns the same minimum as an uncapped walk.
    """
    _check_instance(r, n)
    if n >= r:
        p = next_prime(n)
        return None if p is None or p > n + r else _sylvester_prime(p, p - r)
    q, cap = next_prime(n), min(n + r, 2 * n + _TRIAL_LIMIT)
    while q is not None and q <= cap:
        first = (r + q) // q * q  # least multiple of q that is >= r + 1
        if first <= r + n:
            return _sylvester_prime(q, first - r)
        q = next_prime(q)
    p, v = min((q, v) for v in range(r + 1, r + n + 1) for q, _ in _factorize(v) if q > n)
    return _sylvester_prime(p, v - r)


def order_certificate(r: int, n: int) -> Optional[OrderCertificate]:
    """Smallest prime p > r dividing some n + j (1 <= j <= r) with
    order2(p) not dividing n + j, with its (unique) j, or None.

    The order condition is 2**(n + j) != 1 (mod p) (see OrderCertificate
    for the equivalence and for p = 2).  The walk reduces the exponent:
    with m = n + j, s = m mod (q - 1) and e = s + q - 1, it tests
    pow(2, e, q) != 1.  For odd q, 2**(q - 1) == 1 (mod q) by Fermat, so
    2**m = (2**(q - 1))**(m // (q - 1)) * 2**s == 2**s == 2**e (mod q).
    For q = 2 (r = 1), s = 0 and e = 1, and 2**e == 2**m == 0 (mod 2) as
    m >= 2: the summand q - 1 keeps e >= 1, where the exponent s = 0 would
    give pow(2, 0, 2) = 1.  The factoring search and OrderCertificate.verify
    keep the unreduced power, so verify stays an independent re-check.

    The walk is one pass over _PRIME_TABLE, the primes below 2**16, from
    the first q > r (none for r >= 65521, the largest of them).  As q > r,
    at most one n + j (1 <= j <= r) is a multiple of q: the one with
    j = (-n mod q) or q, provided j <= r.  The first q that qualifies is the
    smallest qualifying prime overall: the smaller primes above r were
    examined and failed, the primes <= r never qualify, and every prime not
    examined is >= 2**16 > q.  Only when no prime below 2**16 qualifies does
    the search factor every n + j.  That search is complete on its own and
    is the reference the tests compare the walk against.  Its minimum is
    then a prime >= 2**16, the least qualifying prime overall as well, so
    the result does not depend on where the walk stops.
    """
    _check_instance(r, n)
    for q in islice(_PRIME_TABLE, bisect_right(_PRIME_TABLE, r), None):
        j = -n % q or q
        if j <= r and pow(2, (n + j) % (q - 1) + q - 1, q) != 1:
            return OrderCertificate(p=q, j=j)
    qualifying = ((q, j) for j in range(1, r + 1) for q, _ in _factorize(n + j) if q > r and pow(2, n + j, q) != 1)
    best = min(qualifying, default=None)
    return OrderCertificate(p=best[0], j=best[1]) if best else None


def _denominator_residue(r: int, n: int, p: int) -> int:
    """p**a * s_upper(r, n) mod p**a for the prime p, where p**a is the
    largest power of p dividing some n + j (1 <= j <= r); nonzero iff p
    divides the reduced denominator (module docstring).  Only the j with
    p | n + j contribute, so it costs O(r/p) modular powers."""
    terms = [(j, _int_valuation(p, n + j)) for j in range(-n % p or p, r + 1, p)]
    a = max((v for _, v in terms), default=0)
    q = p**a
    total = 0
    for j, v in terms:
        c = (-1) ** (r - j) * r * comb(r - 1, j - 1)
        total += c * (pow(2, n + j, q) - 1) * p ** (a - v) * pow((n + j) // p**v, -1, q)
    return total % q


def denominator_certificate(r: int, n: int) -> Optional[DenominatorPrime]:
    """Smallest prime p <= r dividing the reduced denominator of
    s_upper(r, n), or None.

    classify reaches this stage only when sylvester_certificate found
    nothing, so r < n and (n, n + r] holds no prime: r is below the prime
    gap after n, at most 1550 below 2**64.
    """
    _check_instance(r, n)
    for p in primes_upto(r):
        if _denominator_residue(r, n, p):
            return DenominatorPrime(p=p)
    return None


def classify(r: int, n: int) -> Classification:
    """Decide whether s_lower(r, n) is an integer, without evaluating it.

    Returns the first certificate found, a SylvesterPrime, OrderCertificate
    or DenominatorPrime, which proves the sum nonintegral; or Integral()
    when none exists.  The stages are tried in that order.  Together they
    find a prime of every reduced denominator (module docstring), so
    Integral proves the sum an integer.  sylvester_certificate, always
    called first, checks the instance.
    """
    return sylvester_certificate(r, n) or order_certificate(r, n) or denominator_certificate(r, n) or Integral()
