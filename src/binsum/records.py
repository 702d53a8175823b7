"""Records: the one module that turns results into record text, and stored
certificates back.

Integers, also inside lists, are written as decimal strings (`record`) so
consumers never lose precision, and read back only in that form
(`_decimal`).  A certificate's record is its dataclass fields under its
`type`, and the record of classify's outcome names it "certified_nonintegral"
or "integral" (`classification_kind`).  json objects have sorted keys and
fixed separators, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from typing import Callable, get_args

from .certify import Certificate, Classification, Integral, OrderCertificate, SylvesterPrime

CSV_COLUMNS = (
    "r",
    "n",
    "classification",
    "certificate_type",
    "p",
    "k0",
    "j",
)


def record(**values) -> dict:
    """A record whose ints, also inside sequences, are decimal strings."""

    def text(value):
        return str(value) if type(value) is int else value

    return {k: [text(x) for x in v] if isinstance(v, (list, tuple)) else text(v) for k, v in values.items()}


def _decimal(rec: dict, key: str) -> int:
    """rec[key], which must be the canonical decimal string records write."""
    value = rec.get(key)
    if not (isinstance(value, str) and value.isdecimal() and str(int(value)) == value):
        raise ValueError(f"record {key}={value!r} is not a decimal string")
    return int(value)


_CERTIFICATES = {cls.kind: cls for cls in get_args(Certificate)}


def certificate_record(cert: Certificate) -> dict[str, str]:
    return record(type=cert.kind, **asdict(cert))


def certificate_from_record(rec: dict[str, str]) -> Certificate:
    """Inverse of certificate_record, for re-verifying stored results: it
    refuses any key but type and the certificate's fields."""
    if not isinstance(rec, dict):
        raise ValueError(f"record certificate={rec!r} is not an object")
    kind = rec.get("type")
    cls = _CERTIFICATES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown certificate type: {kind!r}")
    names = [f.name for f in fields(cls)]
    if extra := sorted(rec.keys() - {"type", *names}):
        raise ValueError(f"record {extra[0]}={rec[extra[0]]!r}: {kind} certificates have no such field")
    return cls(**{name: _decimal(rec, name) for name in names})


CLASSIFICATION_KINDS = ("certified_nonintegral", "integral")


def classification_kind(outcome: Classification) -> str:
    """The classification a record gives classify's outcome: a certificate
    proves the sum nonintegral."""
    return "integral" if type(outcome) is Integral else "certified_nonintegral"


def classification_record(r: int, n: int, outcome: Classification) -> dict:
    rec = record(r=r, n=n, classification=classification_kind(outcome))
    if type(outcome) is not Integral:
        rec["certificate"] = certificate_record(outcome)
    return rec


_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def to_json_line(rec: dict) -> str:
    return _JSON.encode(rec)


# The jsonl line of a certified outcome up to n's value: to_json_line's keys
# sort as certificate (its fields), classification, n, r.
_SYLVESTER_HEAD = '{"certificate":{"k0":"%d","p":"%d","type":"sylvester"},"classification":"certified_nonintegral","n":"'
_ORDER_HEAD = '{"certificate":{"j":"%d","p":"%d","type":"order"},"classification":"certified_nonintegral","n":"'


def _json_parts(r: int, outcome: Classification) -> tuple[str, str]:
    """(head, tail) of the jsonl line head + decimal n + tail, byte for byte
    to_json_line(classification_record(r, n, outcome)).  r is the last key
    and n the one before it, so the tail is r's alone.  A sylvester or order
    outcome fills a fixed head; the rare others cut the encoder's line."""
    if type(outcome) is SylvesterPrime:
        head = _SYLVESTER_HEAD % (outcome.k0, outcome.p)
    elif type(outcome) is OrderCertificate:
        head = _ORDER_HEAD % (outcome.j, outcome.p)
    else:
        line = to_json_line(classification_record(r, 0, outcome))
        head = line[: line.rindex('"n":"') + 5]
    return head, f'","r":"{r}"}}'


def to_csv_row(rec: dict) -> list[str]:
    cert = rec.get("certificate", {})
    return [rec["r"], rec["n"], rec["classification"]] + [cert.get(key, "") for key in ("type", "p", "k0", "j")]


_DETAILS = {
    "sylvester": "sylvester prime p={p} at k0={k0}",
    "order": "order certificate p={p} at j={j}",
    "denominator": "denominator prime p={p}",
}


def _human_tail(rec: dict) -> str:
    """What follows n in the human line of rec."""
    if rec["classification"] == "certified_nonintegral":
        cert = rec["certificate"]
        return f") nonintegral [{_DETAILS[cert['type']].format(**cert)}]"
    return ") INTEGRAL"


def to_human_line(rec: dict) -> str:
    return f"(r={rec['r']}, n={rec['n']}{_human_tail(rec)}"


# The line of n for classify's outcome in each scan format is head + decimal
# n + tail, and LINE_FORMATS[fmt](r, outcome) returns (head, tail): they
# depend on r and the outcome alone, so consecutive n that share an outcome
# format it once.  The csv and human heads are the fields before n; the
# record of n = 0 stands for every n there, as their tails do not read it.
# csv fields are digits and lowercase names, which the csv module writes
# unquoted.
LINE_FORMATS: dict[str, Callable[[int, Classification], tuple[str, str]]] = {
    "jsonl": _json_parts,
    "csv": lambda r, outcome: (f"{r},", "," + ",".join(to_csv_row(classification_record(r, 0, outcome))[2:])),
    "human": lambda r, outcome: (f"(r={r}, n=", _human_tail(classification_record(r, 0, outcome))),
}
