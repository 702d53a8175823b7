"""Correctness gate of the binsum benchmark.

Every check here runs outside the timed phase and reads only the files the
program wrote.  A check returns a list of failure messages; the harness
reports a run as correct only when every list is empty.

  * every stored certificate re-verifies with
    certificate_from_record(...).verify(r, n), and every oracle value
    matches a fresh exact evaluation;
  * no instance is undecided and none evaluated to an integer;
  * the output of every pass, at 1 worker and at nproc workers, is byte
    for byte the same;
  * for a window with a recorded digest, the record stream's sha256
    matches it;
  * scan_density (the second scan engine) tallies the same outcomes as
    the records;
  * census and identity outputs match an independent recomputation.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field


def plain_primes(limit: int) -> list[int]:
    """Primes <= limit by a plain sieve, independent of binsum.ntheory."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(sieve) if f]


def read_records(paths: list[str]) -> tuple[list[dict], list[str]]:
    """Parse jsonl files strictly, as one stream; a torn or malformed line
    is a failure."""
    records, failures = [], []
    for path in paths:
        with open(path, "rb") as handle:
            data = handle.read()
        if data and not data.endswith(b"\n"):
            failures.append(f"{path}: last line is not terminated (torn write)")
        lines = data.split(b"\n")
        if lines[-1] == b"":
            lines.pop()
        for lineno, line in enumerate(lines, 1):
            try:
                rec = json.loads(line)
            except ValueError as exc:
                failures.append(f"{path}:{lineno}: not a json record: {exc}")
                continue
            if not isinstance(rec, dict):
                failures.append(f"{path}:{lineno}: record is not an object")
                continue
            records.append(rec)
    return records, failures


@dataclass
class ScanCheck:
    failures: list[str] = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)
    certs: Counter = field(default_factory=Counter)
    undecided: int = 0
    verify_s: float = 0.0


def check_scan(paths: list[str], r: int, lo: int, hi: int) -> ScanCheck:
    """Records of `binsum scan --r r` over [lo, hi], possibly split over
    several files: one per n in order, every certificate re-verified,
    nothing undecided or integral."""
    from binsum.certify import s_lower
    from binsum.records import certificate_from_record

    out = ScanCheck()
    records, out.failures = read_records(paths)
    if len(records) != hi - lo + 1:
        out.failures.append(f"{len(records)} records for {hi - lo + 1} instances")
    clock = time.perf_counter
    for expected_n, rec in zip(range(lo, hi + 1), records):
        where = f"n={rec.get('n')}"
        if rec.get("r") != str(r) or rec.get("n") != str(expected_n):
            out.failures.append(f"{where}: expected r={r}, n={expected_n}")
            continue
        kind = rec.get("classification")
        out.kinds[kind] += 1
        if kind == "certified_nonintegral":
            try:
                cert = certificate_from_record(rec["certificate"])
                t0 = clock()
                ok = cert.verify(r, expected_n)
                out.verify_s += clock() - t0
            except (KeyError, TypeError, ValueError) as exc:
                out.failures.append(f"{where}: unreadable certificate: {exc}")
                continue
            out.certs[cert.kind] += 1
            if not ok:
                out.failures.append(f"{where}: certificate {rec['certificate']} does not verify")
        elif kind in ("oracle_nonintegral", "oracle_integral"):
            value = s_lower(r, expected_n)
            stored = (rec.get("value_numerator"), rec.get("value_denominator"))
            if stored != (str(value.numerator), str(value.denominator)):
                out.failures.append(f"{where}: oracle value differs from s_lower")
            if kind == "oracle_integral" or value.denominator == 1:
                out.failures.append(f"{where}: integral value reported")
        elif kind == "undecided":
            out.undecided += 1
            out.failures.append(f"{where}: undecided")
        else:
            out.failures.append(f"{where}: unknown classification {kind!r}")
    return out


def _read_stream(paths: list[str]) -> bytes:
    data = b""
    for path in paths:
        with open(path, "rb") as handle:
            data += handle.read()
    return data


def check_identical(streams: list[list[str]]) -> list[str]:
    """Every output stream (a list of files) equals the first byte for byte."""
    first = _read_stream(streams[0])
    return [f"{s[0]}... differs from {streams[0][0]}..." for s in streams[1:] if _read_stream(s) != first]


def digest(paths: list[str]) -> str:
    """sha256 over the concatenated record streams."""
    return hashlib.sha256(_read_stream(paths)).hexdigest()


def check_digest(key: str, actual: str, recorded: dict[str, str], required: bool) -> list[str]:
    """Compare with the digest recorded for this input, if any; required
    marks the default seed, whose inputs must have one."""
    expected = recorded.get(key)
    if expected is None:
        return [f"no recorded digest for the default seed's input {key}"] if required else []
    if expected != actual:
        return [f"record-stream sha256 {actual} != recorded {expected} for {key}"]
    return []


def check_density(r: int, lo: int, hi: int, scan: ScanCheck) -> tuple[list[str], float]:
    """scan_density over the same window must tally what the records say.
    Returns the failures and the engine's elapsed seconds."""
    from binsum.experiments import scan_density

    t0 = time.perf_counter()
    report = scan_density(r, lo, hi)
    elapsed = time.perf_counter() - t0
    failures = []
    kinds = {k: v for k, v in report.counts.items() if v}
    certs = {k: v for k, v in report.cert_counts.items() if v}
    if kinds != dict(scan.kinds):
        failures.append(f"scan_density counts {kinds} != records {dict(scan.kinds)}")
    if certs != dict(scan.certs):
        failures.append(f"scan_density certificates {certs} != records {dict(scan.certs)}")
    return failures, elapsed


def census_expected(t: int) -> list[int]:
    """Odd primes q <= t with order2(q)**10 <= q**3, recomputed without
    binsum: such a q divides 2**k - 1 for some k <= t**0.3."""
    k_max = 1
    while (k_max + 1) ** 10 <= t**3:
        k_max += 1
    product = math.prod((1 << k) - 1 for k in range(1, k_max + 1))
    hits = []
    for q in plain_primes(t)[1:]:
        if product % q:
            continue
        k, x = 1, 2 % q
        while x != 1:
            k, x = k + 1, 2 * x % q
        if k**10 <= q**3:
            hits.append(q)
    return hits


def check_census(path: str, t: int) -> list[str]:
    records, failures = read_records([path])
    if len(records) != 1:
        return failures + [f"{path}: expected one census record, got {len(records)}"]
    rec = records[0]
    expected = census_expected(t)
    if rec.get("t") != str(t):
        failures.append(f"{path}: census t={rec.get('t')} != {t}")
    if rec.get("count") != str(len(expected)) or rec.get("primes") != [str(q) for q in expected]:
        failures.append(f"{path}: census differs from the independent recomputation")
    return failures


def check_identity(path: str, r_max: int, n_max: int) -> tuple[list[str], int]:
    """Returns failures and the number of identity violations."""
    records, failures = read_records([path])
    grid = [(r, n) for r in range(1, r_max + 1) for n in range(1, n_max + 1)]
    if len(records) != len(grid):
        failures.append(f"{path}: {len(records)} records for {len(grid)} grid points")
    violations = 0
    for (r, n), rec in zip(grid, records):
        if rec.get("r") != str(r) or rec.get("n") != str(n):
            failures.append(f"{path}: expected (r={r}, n={n}), got {rec}")
        elif rec.get("closed_form_ok") is not True or rec.get("complement_ok") is not True:
            violations += 1
            failures.append(f"{path}: identity violated at (r={r}, n={n})")
    return failures, violations
