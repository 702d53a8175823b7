import random
from collections import Counter
from pathlib import Path

import pytest

from binsum.certify import CertifiedNonintegral, Integral, classify, denominator_certificate
from binsum.records import certificate_from_record, classification_line, classification_record, to_json_line


def reference(r, n, outcome):
    return to_json_line(classification_record(r, n, outcome))


def assert_lines_match(cases):
    """classification_line equals the general encoder on every case; returns
    the kinds seen (the certificate type for certified outcomes)."""
    seen = Counter()
    for r, n, outcome in cases:
        assert classification_line(r, n, outcome) == reference(r, n, outcome), (r, n, outcome)
        kind = outcome.kind
        seen[outcome.certificate.kind if kind == "certified_nonintegral" else kind] += 1
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


def test_oracle_and_undecided_lines_match_the_encoder():
    # the outcomes without a template: denominator certificates, which
    # classify reaches only when the other two stages fail, and Integral,
    # which no instance checked so far gets
    cases = [(r, n, CertifiedNonintegral(cert)) for r in range(2, 40) for n in range(1, 60)
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
], ids=["underscore", "plus", "missing-j", "null-j", "float-k0", "int-k0", "missing-k0",
        "leading-zero", "space", "missing-p"])
def test_certificate_from_record_takes_only_canonical_decimals(rec, field):
    # the stored integers are read back only as the decimal strings records
    # write; anything else is a ValueError naming the field
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
