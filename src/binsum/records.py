"""Serialization of classification results to jsonl / csv / human lines.

All integers are rendered as decimal strings so downstream consumers never
lose precision, and json objects are emitted with sorted keys and fixed
separators so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json

from .certify import (
    CLASSIFICATION_KINDS,
    Certificate,
    CertifiedNonintegral,
    Classification,
    OracleIntegral,
    OracleNonintegral,
    OrderCertificate,
    SylvesterPrime,
)

CSV_COLUMNS = (
    "r",
    "n",
    "classification",
    "certificate_type",
    "p",
    "k0",
    "j",
    "m_value",  # always empty; kept so csv output keeps its bytes
    "value_numerator",
    "value_denominator",
)


def certificate_record(cert: Certificate) -> dict[str, str]:
    if isinstance(cert, SylvesterPrime):
        return {"type": "sylvester", "p": str(cert.p), "k0": str(cert.k0)}
    if isinstance(cert, OrderCertificate):
        return {"type": "order", "p": str(cert.p), "j": str(cert.j)}
    raise TypeError(f"not a certificate: {cert!r}")


def certificate_from_record(rec: dict[str, str]) -> Certificate:
    """Inverse of certificate_record, for re-verifying stored results."""
    kind = rec.get("type")
    if kind == "sylvester":
        return SylvesterPrime(p=int(rec["p"]), k0=int(rec["k0"]))
    if kind == "order":
        return OrderCertificate(p=int(rec["p"]), j=int(rec["j"]))
    raise ValueError(f"unknown certificate type: {kind!r}")


def classification_record(r: int, n: int, outcome: Classification) -> dict:
    rec: dict = {"r": str(r), "n": str(n), "classification": outcome.kind}
    if isinstance(outcome, CertifiedNonintegral):
        rec["certificate"] = certificate_record(outcome.certificate)
    elif isinstance(outcome, (OracleNonintegral, OracleIntegral)):
        rec["value_numerator"] = str(outcome.value.numerator)
        rec["value_denominator"] = str(outcome.value.denominator)
    return rec


_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def to_json_line(rec: dict) -> str:
    return _JSON.encode(rec)


# to_json_line(classification_record(...)) of a certified outcome, with the
# keys in sorted order: the certificate's fields, classification, n, r.
_SYLVESTER_LINE = '{"certificate":{"k0":"%d","p":"%d","type":"sylvester"},"classification":"certified_nonintegral","n":"%d","r":"%d"}'
_ORDER_LINE = '{"certificate":{"j":"%d","p":"%d","type":"order"},"classification":"certified_nonintegral","n":"%d","r":"%d"}'


def classification_line(r: int, n: int, outcome: Classification) -> str:
    """The jsonl line of one classification, without its newline: byte for
    byte to_json_line(classification_record(r, n, outcome)).  A certified
    outcome fills a fixed template; the rare others take the general path."""
    if type(outcome) is CertifiedNonintegral:
        cert = outcome.certificate
        if type(cert) is SylvesterPrime:
            return _SYLVESTER_LINE % (cert.k0, cert.p, n, r)
        if type(cert) is OrderCertificate:
            return _ORDER_LINE % (cert.j, cert.p, n, r)
    return to_json_line(classification_record(r, n, outcome))


def to_csv_row(rec: dict) -> list[str]:
    cert = rec.get("certificate", {})
    row = {
        "r": rec.get("r", ""),
        "n": rec.get("n", ""),
        "classification": rec.get("classification", ""),
        "certificate_type": cert.get("type", ""),
        "p": cert.get("p", ""),
        "k0": cert.get("k0", ""),
        "j": cert.get("j", ""),
        "m_value": "",
        "value_numerator": rec.get("value_numerator", ""),
        "value_denominator": rec.get("value_denominator", ""),
    }
    return [row[c] for c in CSV_COLUMNS]


def to_human_line(rec: dict) -> str:
    r, n = rec.get("r"), rec.get("n")
    kind = rec.get("classification")
    if kind == "certified_nonintegral":
        cert = rec["certificate"]
        if cert["type"] == "sylvester":
            detail = f"sylvester prime p={cert['p']} at k0={cert['k0']}"
        else:
            detail = f"order certificate p={cert['p']} at j={cert['j']}"
        return f"(r={r}, n={n}) nonintegral [{detail}]"
    if kind in ("oracle_nonintegral", "oracle_integral"):
        tag = "INTEGRAL" if kind == "oracle_integral" else "nonintegral"
        return (
            f"(r={r}, n={n}) {tag} [oracle value "
            f"{rec['value_numerator']}/{rec['value_denominator']}]"
        )
    return f"(r={r}, n={n}) undecided"


def parse_scan_line(line: str, expected_r: int) -> tuple[int, str]:
    """Validate one stored jsonl scan line; return its (n, classification).

    Raises ValueError when the line does not look like a scan record for
    this r (schema check before resuming).
    """
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise ValueError("record is not an object")
    for key in ("r", "n", "classification"):
        if key not in rec:
            raise ValueError(f"record lacks key {key!r}")
    if rec["r"] != str(expected_r):
        raise ValueError(f"record r={rec['r']} does not match scan r={expected_r}")
    if rec["classification"] not in CLASSIFICATION_KINDS:
        raise ValueError(f"unknown classification {rec['classification']!r}")
    return int(rec["n"]), rec["classification"]
