import random
from collections import Counter
from pathlib import Path
from typing import get_args

import pytest

from binsum.certify import (
    CERTIFICATE_KINDS,
    Certificate,
    Classification,
    DenominatorPrime,
    Integral,
    OrderCertificate,
    SylvesterPrime,
    classify,
    denominator_certificate,
)
from binsum.records import (
    CLASSIFICATION_KINDS,
    LINE_FORMATS,
    certificate_from_record,
    certificate_record,
    classification_kind,
    classification_record,
    record,
    to_json_line,
)


def reference(r, n, outcome):
    return to_json_line(classification_record(r, n, outcome))


def assert_lines_match(cases):
    """The jsonl scan line, LINE_FORMATS["jsonl"]'s head + n + tail, equals
    the general encoder on every case; returns the kinds seen (the
    certificate type, or "integral")."""
    seen = Counter()
    for r, n, outcome in cases:
        head, tail = LINE_FORMATS["jsonl"](r, outcome)
        assert f"{head}{n}{tail}" == reference(r, n, outcome), (r, n, outcome)
        seen[outcome.kind] += 1
    return seen


def test_template_lines_match_the_encoder_on_random_instances():
    rng = random.Random(13)
    cases = []
    for lo, hi, r_max in [(1, 10**6, 300), (10**12, 10**12 + 10**6, 300), (2**62, 2**62 + 10**6, 300),
                          (1, 10**6, 3000)]:
        for _ in range(400):
            r, n = rng.randint(1, r_max), rng.randint(lo, hi)
            cases.append((r, n, classify(r, n)))
    seen = assert_lines_match(cases)
    assert seen["sylvester"] and seen["order"]
    assert seen["sylvester"] + seen["order"] == len(cases)


def test_template_lines_match_the_encoder_with_huge_r():
    # r far above n: the sylvester search factors the window r+1..r+n
    cases = [(r, n, classify(r, n)) for r in (10**6 + 3, 10**12, 2**62 - 1) for n in range(1, 8)]
    assert assert_lines_match(cases)["sylvester"] == len(cases)


def test_denominator_and_integral_lines_match_the_encoder():
    # the outcomes without a template: denominator certificates, which
    # classify reaches only when the other two stages fail, and Integral,
    # which no instance checked so far gets
    cases = [(r, n, cert) for r in range(2, 40) for n in range(1, 60)
             if (cert := denominator_certificate(r, n)) is not None]
    cases.append((1, 3, Integral()))
    seen = assert_lines_match(cases)
    assert seen["denominator"] == len(cases) - 1 > 1000 and seen["integral"] == 1


@pytest.mark.parametrize("rec, field", [
    ({"type": "sylvester", "p": "1_3", "k0": "1"}, "p"),
    ({"type": "order", "p": "+5", "j": "1"}, "p"),
    ({"type": "order", "p": "5"}, "j"),
    ({"type": "order", "p": "5", "j": None}, "j"),
    ({"type": "sylvester", "p": "13", "k0": "1.0"}, "k0"),
    ({"type": "sylvester", "p": "13", "k0": 1}, "k0"),
    ({"type": "sylvester", "p": "13"}, "k0"),
    ({"type": "denominator", "p": "07"}, "p"),
    ({"type": "denominator", "p": " 7"}, "p"),
    ({"type": "denominator"}, "p"),
    ({"type": "order", "p": "5", "j": "2", "k0": "9"}, "k0"),
    ({"type": "sylvester", "p": "13", "k0": "1", "junk": "x"}, "junk"),
], ids=["underscore", "plus", "missing-j", "null-j", "float-k0", "int-k0", "missing-k0",
        "leading-zero", "space", "missing-p", "field-of-another-type", "junk-key"])
def test_certificate_from_record_takes_only_canonical_decimals(rec, field):
    # the stored integers are read back only as the decimal strings records
    # write, and no key but type and the certificate's fields is read;
    # anything else is a ValueError naming the field
    with pytest.raises(ValueError, match=f"record {field}="):
        certificate_from_record(rec)


@pytest.mark.parametrize("value", [5, [1], None, "x"], ids=["int", "list", "null", "string"])
def test_certificate_from_record_refuses_a_certificate_that_is_not_an_object(value, tmp_path, monkeypatch):
    with pytest.raises(ValueError, match="record certificate=.* is not an object"):
        certificate_from_record(value)
    # the benchmark gate lists such a record as a failure instead of crashing
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import gate

    path = tmp_path / "scan.jsonl"
    path.write_text(to_json_line({"certificate": value, "classification": "certified_nonintegral",
                                  "n": "1", "r": "3"}) + "\n")
    assert gate.check_scan([str(path)], 3, 1, 1).failures == [
        f"n=1: unreadable certificate: record certificate={value!r} is not an object"]


# one instance of every certificate class, with integers past 2**64
CERTIFICATES = [SylvesterPrime(p=2**64 + 13, k0=7), OrderCertificate(p=11, j=3), DenominatorPrime(p=3)]


def test_every_certificate_class_round_trips():
    assert sorted(type(cert).__name__ for cert in CERTIFICATES) == sorted(cls.__name__ for cls in get_args(Certificate))
    for cert in CERTIFICATES:
        rec = certificate_record(cert)
        assert rec["type"] == cert.kind and all(isinstance(v, str) for v in rec.values())
        assert certificate_from_record(rec) == cert


def test_certificate_records_keep_their_schema():
    assert [certificate_record(cert) for cert in CERTIFICATES] == [
        {"type": "sylvester", "p": "18446744073709551629", "k0": "7"},
        {"type": "order", "p": "11", "j": "3"},
        {"type": "denominator", "p": "3"},
    ]
    assert CERTIFICATE_KINDS == ("sylvester", "order", "denominator")
    assert CLASSIFICATION_KINDS == ("certified_nonintegral", "integral")


def test_classification_records_name_the_outcome_class():
    # classify returns the certificate itself or Integral(); the record
    # layer alone maps either to its classification
    outcomes = CERTIFICATES + [Integral()]
    assert sorted(type(o).__name__ for o in outcomes) == sorted(cls.__name__ for cls in get_args(Classification))
    for outcome in outcomes:
        rec = classification_record(5, 7, outcome)
        if isinstance(outcome, Integral):
            assert rec == {"r": "5", "n": "7", "classification": "integral"}
        else:
            assert rec == {"r": "5", "n": "7", "classification": "certified_nonintegral",
                           "certificate": certificate_record(outcome)}
        assert classification_kind(outcome) == rec["classification"] in CLASSIFICATION_KINDS


@pytest.mark.parametrize("kind", [["order"], {"order": 1}, 5, None, "smooth"],
                         ids=["list", "dict", "int", "null", "unknown"])
def test_certificate_from_record_refuses_a_type_it_does_not_know(kind):
    with pytest.raises(ValueError, match="unknown certificate type"):
        certificate_from_record({"type": kind, "p": "11", "j": "3"})


def test_record_writes_ints_as_decimal_strings():
    assert record(a=5, b=[1, 2], c=(3,), d=True, e=None, f="x", g={"h": "1"}) == {
        "a": "5", "b": ["1", "2"], "c": ["3"], "d": True, "e": None, "f": "x", "g": {"h": "1"}}
