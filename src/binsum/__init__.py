"""Exact toolkit for the binomial sums sum_{k=1..n} k/(k+r) * C(n, k):
evaluation, nonintegrality certificates, and supporting experiments."""

from .certify import (
    CERTIFICATE_KINDS,
    Certificate,
    Classification,
    DenominatorPrime,
    Integral,
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
from .exact import floor_power, nth_root, power_compare, valuation
from .experiments import (
    GapProbe,
    ScanReport,
    SmoothStats,
    TupleCheck,
    TupleSearch,
    TupleWitness,
    find_tuple,
    gap_probe,
    m_of_r,
    scan_density,
    small_order_census,
    verify_tuple,
)
from .ntheory import (
    factorize,
    is_prime,
    order2,
    primes_in,
    smooth_divisor,
)
from .records import CLASSIFICATION_KINDS

__version__ = "0.1.0"

__all__ = [
    "CERTIFICATE_KINDS",
    "CLASSIFICATION_KINDS",
    "Certificate",
    "Classification",
    "DenominatorPrime",
    "GapProbe",
    "Integral",
    "OrderCertificate",
    "ScanReport",
    "SmoothStats",
    "SylvesterPrime",
    "TupleCheck",
    "TupleSearch",
    "TupleWitness",
    "classify",
    "denominator_certificate",
    "factorize",
    "find_tuple",
    "floor_power",
    "gap_probe",
    "is_prime",
    "m_of_r",
    "nth_root",
    "order2",
    "order_certificate",
    "power_compare",
    "primes_in",
    "s_lower",
    "s_upper",
    "s_upper_closed",
    "scan_density",
    "small_order_census",
    "smooth_divisor",
    "sylvester_certificate",
    "valuation",
]
