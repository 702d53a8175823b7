import csv
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from binsum.certify import DenominatorPrime, Integral, SylvesterPrime, classify
from binsum.cli import _SCAN_CHUNK, main
from binsum.records import (
    certificate_from_record,
    classification_kind,
    classification_line,
    classification_record,
    to_csv_row,
    to_human_line,
    to_json_line,
)


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def refusal(name, line, r, n):
    """The complaint of a resume whose stored line is not the record the scan writes."""
    return f"{name}:{line}: not the record a scan of r={r} writes for n={n}; refusing to resume this file"


def test_certify_record(capsys):
    assert run_cli(["certify", "--r", "3", "--n", "4"]) == 0
    line = capsys.readouterr().out.strip()
    assert line == (
        '{"certificate":{"k0":"2","p":"5","type":"sylvester"},'
        '"classification":"certified_nonintegral","n":"4","r":"3"}'
    )


def test_oracle_record(capsys):
    assert run_cli(["oracle", "--r", "1", "--n", "5"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert (rec["value_numerator"], rec["value_denominator"]) == ("43", "2")
    assert run_cli(["oracle", "--r", "2", "--n", "1", "--upper"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert (rec["value_numerator"], rec["value_denominator"]) == ("5", "3")
    assert run_cli(["oracle", "--r", "2", "--n", "1", "--closed"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert (rec["value_numerator"], rec["value_denominator"]) == ("5", "3")


def test_usage_errors_exit_2(capsys):
    assert run_cli(["certify", "--r", "3"]) == 2           # missing --n
    assert run_cli(["scan", "--r", "0", "--n-start", "1", "--n-end", "5"]) == 2
    assert run_cli(["scan", "--r", "5", "--n-start", "10", "--n-end", "9"]) == 2
    assert run_cli(["no-such-command"]) == 2
    assert run_cli(["oracle", "--r", "1", "--n", "1e6"]) == 2  # no scientific notation
    capsys.readouterr()


def test_identity_subcommand(capsys):
    assert run_cli(["identity", "--r-max", "4", "--n-max", "12"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 48
    assert all(json.loads(line)["closed_form_ok"] for line in out)
    assert all(json.loads(line)["complement_ok"] for line in out)


@pytest.mark.parametrize("dest", ["stdout", "out"])
@pytest.mark.parametrize("fmt", ["jsonl", "csv", "human"])
def test_scan_sorted_and_thread_and_format_invariant(fmt, dest, tmp_path, capsys):
    # 1300 n make three chunks, which the pool formats apart and the writer joins
    import io

    from binsum.certify import classify
    from binsum.records import CSV_COLUMNS, classification_record, to_csv_row, to_human_line, to_json_line

    r, n_end = 6, 1300

    def scan(threads):
        args = ["scan", "--r", str(r), "--n-start", "1", "--n-end", str(n_end), "--format", fmt, "--threads", str(threads)]
        if dest == "stdout":
            assert run_cli(args) == 0
            text = capsys.readouterr().out
        else:
            path = tmp_path / f"scan{threads}.{fmt}"
            assert run_cli(args + ["--out", str(path)]) == 0
            text = path.read_bytes().decode()
        return text.splitlines(keepends=True)  # a failure then names the first line that differs

    one = scan(1)
    assert scan(2) == one
    expected = io.StringIO()
    records = [classification_record(r, n, classify(r, n)) for n in range(1, n_end + 1)]
    if fmt == "csv":  # the csv module is the reference for csv lines
        reference = csv.writer(expected, lineterminator="\n")
        reference.writerow(CSV_COLUMNS)
        reference.writerows(to_csv_row(rec) for rec in records)
    else:  # the general per-record path
        line = to_json_line if fmt == "jsonl" else to_human_line
        expected.writelines(line(rec) + "\n" for rec in records)
    assert one == expected.getvalue().splitlines(keepends=True)
    if fmt == "jsonl":
        ns = [json.loads(line)["n"] for line in one]
        assert ns == [str(n) for n in range(1, n_end + 1)]


def test_scan_resume_skips_existing(tmp_path, capsys):
    full = tmp_path / "full.jsonl"
    partial = tmp_path / "partial.jsonl"
    base = ["scan", "--r", "4", "--n-start", "1", "--n-end", "300", "--threads", "2"]
    assert run_cli(base + ["--out", str(full)]) == 0
    lines = full.read_text().splitlines(keepends=True)
    partial.write_text("".join(lines[:120]))
    capsys.readouterr()
    assert run_cli(base + ["--out", str(partial)]) == 0
    assert partial.read_bytes() == full.read_bytes()
    # the summary tallies every n of the range, the stored ones too
    assert "scan r=4, n in [1, 300]: certified_nonintegral=300, 120 already present (" in capsys.readouterr().err


def test_scan_elapsed_time_covers_the_resume_check(monkeypatch, tmp_path, capsys):
    # each classify advances a fake clock by 1 s: checking the three stored
    # lines of a complete file takes 3 s of the scan's reported time
    import types

    import binsum.cli as cli_mod

    path = tmp_path / "scan.jsonl"
    argv = ["scan", "--r", "3", "--n-start", "1", "--n-end", "3", "--threads", "1", "--out", str(path)]
    assert run_cli(argv) == 0
    before = path.read_bytes()
    capsys.readouterr()
    clock = [0.0]

    def ticking_classify(r, n):
        clock[0] += 1
        return classify(r, n)

    monkeypatch.setattr(cli_mod, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(cli_mod, "classify", ticking_classify)
    assert run_cli(argv) == 0
    assert capsys.readouterr().err == "scan r=3, n in [1, 3]: certified_nonintegral=3, 3 already present (3.00s)\n"
    assert path.read_bytes() == before


@pytest.fixture
def one_shot_1300(tmp_path):
    """The lines of a one-shot scan of r = 23 over n = 1..1300 (three chunks)."""
    path = tmp_path / "one.jsonl"
    assert run_cli(["scan", "--r", "23", "--n-start", "1", "--n-end", "1300", "--threads", "1", "--out", str(path)]) == 0
    return path.read_bytes().splitlines(keepends=True)


def _forged_700():
    line = classification_line(23, 700, SylvesterPrime(p=7, k0=1))  # 7 does not divide k0 + r = 24
    assert not SylvesterPrime(p=7, k0=1).verify(23, 700)
    return line.encode() + b"\n"


@pytest.mark.parametrize("stored, code, complaint", [
    (lambda lines: b"".join(lines[:_SCAN_CHUNK]), 0, f"{_SCAN_CHUNK} already present"),
    (lambda lines: b"".join(lines[:700]) + lines[700][:50], 0, "resumed.jsonl:701: dropping a torn final line"),
    (lambda lines: b"".join(lines[:699]) + _forged_700() + b"".join(lines[700:900]), 2,
     refusal("resumed.jsonl", 700, 23, 700)),
], ids=["cut-on-a-chunk-boundary", "torn-in-the-second-chunk", "forged-line-700"])
def test_scan_resume_with_a_worker_pool(stored, code, complaint, one_shot_1300, monkeypatch, tmp_path, capsys):
    # two real workers classify the chunks that the stored lines are
    # compared with; the finished file is the one-shot scan's bytes, and a
    # refused file is left as it was
    import binsum.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_usable_cpus", lambda: 2)
    path = tmp_path / "resumed.jsonl"
    path.write_bytes(stored(one_shot_1300))
    before = path.read_bytes()
    capsys.readouterr()
    assert run_cli(["scan", "--r", "23", "--n-start", "1", "--n-end", "1300", "--threads", "2", "--out", str(path)]) == code
    assert complaint in capsys.readouterr().err
    assert path.read_bytes() == (b"".join(one_shot_1300) if code == 0 else before)


def test_scan_resume_starts_a_pool_of_two(one_shot_1300, pool_sizes, monkeypatch, tmp_path):
    import binsum.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_usable_cpus", lambda: 2)
    path = tmp_path / "resumed.jsonl"
    path.write_bytes(b"".join(one_shot_1300[:_SCAN_CHUNK]))
    assert run_cli(["scan", "--r", "23", "--n-start", "1", "--n-end", "1300", "--threads", "2", "--out", str(path)]) == 0
    assert pool_sizes == [2]
    assert path.read_bytes() == b"".join(one_shot_1300)


def test_scan_resume_rejects_foreign_file(tmp_path, capsys):
    path = tmp_path / "other.jsonl"
    path.write_text('{"classification":"undecided","n":"1","r":"99"}\n')
    before = path.read_bytes()
    assert run_cli(["scan", "--r", "4", "--n-start", "1", "--n-end", "10", "--out", str(path)]) == 2
    assert refusal("other.jsonl", 1, 4, 1) in capsys.readouterr().err
    assert path.read_bytes() == before


def test_scan_resume_reports_prior_integral(monkeypatch, tmp_path, capsys):
    # a stored integral record must keep raising the headline exit status,
    # but only where classify gives that n no certificate
    import binsum.cli as cli_mod

    claim = '{"classification":"integral","n":"1","r":"9"}\n'
    path = tmp_path / "claim.jsonl"
    path.write_text(claim)
    assert run_cli(["scan", "--r", "9", "--n-start", "1", "--n-end", "1", "--out", str(path)]) == 2
    assert refusal("claim.jsonl", 1, 9, 1) in capsys.readouterr().err  # fabricated: n = 1 has a certificate
    assert path.read_text() == claim
    monkeypatch.setattr(cli_mod, "classify", lambda r, n: Integral())
    assert run_cli(["scan", "--r", "9", "--n-start", "1", "--n-end", "1", "--out", str(path)]) == 1
    assert "INTEGRAL VALUE FOUND: 1 instance(s)" in capsys.readouterr().err
    assert path.read_text() == claim


def test_scan_exit_1_on_integral(monkeypatch, tmp_path, capsys):
    import binsum.cli as cli_mod

    def fake_classify(r, n):
        return Integral()

    monkeypatch.setattr(cli_mod, "classify", fake_classify)
    out = tmp_path / "fake.jsonl"
    code = run_cli(["scan", "--r", "1", "--n-start", "1", "--n-end", "3",
                    "--threads", "1", "--out", str(out)])
    assert code == 1
    assert "INTEGRAL" in capsys.readouterr().err
    assert run_cli(["certify", "--r", "1", "--n", "3", "--format", "human"]) == 1
    assert "INTEGRAL" in capsys.readouterr().out


def test_scan_csv_format(tmp_path):
    path = tmp_path / "scan.csv"
    assert run_cli(["scan", "--r", "2", "--n-start", "1", "--n-end", "20",
                    "--format", "csv", "--out", str(path)]) == 0
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 20
    assert rows[0]["r"] == "2" and rows[0]["classification"]
    certified = [row for row in rows if row["classification"] == "certified_nonintegral"]
    assert certified and all(row["certificate_type"] for row in certified)


def test_scan_human_format(capsys):
    assert run_cli(["scan", "--r", "2", "--n-start", "1", "--n-end", "5",
                    "--format", "human", "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("(r=2,") == 5


def test_scan_records_round_trip(tmp_path):
    path = tmp_path / "scan.jsonl"
    assert run_cli(["scan", "--r", "7", "--n-start", "1", "--n-end", "200",
                    "--out", str(path)]) == 0
    seen = 0
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        n = int(rec["n"])
        if "certificate" in rec:
            cert = certificate_from_record(rec["certificate"])
            assert cert.verify(7, n)
            seen += 1
    assert seen > 150


def test_smooth_certificate_records_are_rejected():
    with pytest.raises(ValueError):
        certificate_from_record({"type": "smooth", "m_value": "1"})


def test_lemma2_record(capsys):
    assert run_cli(["lemma2", "--r", "100"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["witness"] is None
    assert rec["interval_primes"] == "5"
    assert run_cli(["lemma2", "--r", "1000000", "--gcd-exp", "1/1"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["witness"] is not None
    assert rec["witness"]["verified"] and rec["witness"]["lcm_bound_ok"]
    assert len(rec["witness"]["primes"]) == 6


def test_census_record(capsys):
    assert run_cli(["census", "--t", "10000"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec == {"t": "10000", "count": "1", "primes": ["8191"]}


def test_msmooth_record(capsys):
    assert run_cli(["msmooth", "--r", "3", "--n-max", "100"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["m_max"] == "2" and rec["exceeds_log"] is True


def test_gaps_record(capsys):
    assert run_cli(["gaps", "--n", "113"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec == {"n": "113", "next_prime": "127", "gap": "14",
                   "gap20_vs_n": "gt", "gap11_vs_n": "gt"}


# Expected bytes for every (command, format) pair the CLI offers, recorded
# from the CLI at commit febf4bd, before its handlers shared one output
# path.  There, each case wrote the same bytes to stdout and to --out.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
TIMING = re.compile(r"\(\d+\.\d\ds\)")


@pytest.mark.parametrize("dest", ["stdout", "out"])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_output(case, dest, tmp_path, capsys):
    want = GOLDEN[case]
    argv = want["argv"].split()
    path = tmp_path / "records"
    if dest == "out":
        argv += ["--out", str(path)]
    assert run_cli(argv) == want["rc"]
    got = capsys.readouterr()
    assert TIMING.sub("(T)", got.err) == want["stderr"]
    if dest == "out":
        assert got.out == ""
        assert path.read_bytes() == want["stdout"].encode()
    else:
        assert got.out == want["stdout"]


def _forge_lower_at_2_3(monkeypatch):
    """Make identity see s_lower(2, 3) off by one, and every other sum true."""
    import binsum.cli as cli_mod

    true_sums = cli_mod.s_sums

    def forged(r, n):
        lower, upper = true_sums(r, n)
        return lower + ((r, n) == (2, 3)), upper

    monkeypatch.setattr(cli_mod, "s_sums", forged)


def test_identity_exit_1_on_violation(monkeypatch, capsys):
    _forge_lower_at_2_3(monkeypatch)
    assert run_cli(["identity", "--r-max", "2", "--n-max", "3"]) == 1
    got = capsys.readouterr()
    assert "1 violations" in got.err
    assert [json.loads(line)["complement_ok"] for line in got.out.splitlines()].count(False) == 1


def test_identity_human_line_names_the_failed_check(monkeypatch, capsys):
    _forge_lower_at_2_3(monkeypatch)
    assert run_cli(["identity", "--r-max", "2", "--n-max", "3", "--format", "human"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6
    assert [line for line in out if "FAIL" in line] == ["(r=2, n=3) closed_form=ok complement=FAIL"]


def test_identity_evaluates_each_sum_once_per_grid_point(monkeypatch, capsys):
    import binsum.certify as certify_mod
    import binsum.cli as cli_mod

    calls = {"s_lower": 0, "s_sums": 0, "s_upper": 0, "s_upper_closed": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    for module in (cli_mod, certify_mod):
        for name in calls:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert run_cli(["identity", "--r-max", "2", "--n-max", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert calls == {"s_lower": 0, "s_sums": 6, "s_upper": 0, "s_upper_closed": 6}


@pytest.mark.parametrize("argv", [
    ["gaps", "--n", "5"],
    ["scan", "--r", "4", "--n-start", "1", "--n-end", "30", "--threads", "1"],
], ids=["gaps", "scan"])
def test_unopenable_out_exits_2(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "x.jsonl"
    assert run_cli(argv + ["--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("binsum: error: ") and "x.jsonl" in err


@pytest.mark.parametrize("command", [
    ["oracle", "--r", "1", "--n", "5"],
    ["identity", "--r-max", "1", "--n-max", "1"],
    ["lemma2", "--r", "100"],
    ["census", "--t", "10000"],
    ["msmooth", "--r", "3", "--n-max", "10"],
    ["gaps", "--n", "113"],
], ids=lambda argv: argv[0])
def test_csv_rejected_where_records_do_not_fit(command, capsys):
    assert run_cli(command + ["--format", "csv"]) == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scan", "--r", "4", "--n-start", "1", "--n-end", "30", "--format", "csv"],
    ["scan", "--r", "4", "--n-start", "1", "--n-end", "30", "--format", "human"],
    ["census", "--t", "100"],
], ids=["scan-csv", "scan-human", "census"])
def test_out_never_overwrites_records(argv, tmp_path, capsys):
    path = tmp_path / "scan.jsonl"
    assert run_cli(["scan", "--r", "4", "--n-start", "1", "--n-end", "30", "--out", str(path)]) == 0
    before = path.read_bytes()
    assert run_cli(argv + ["--out", str(path)]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert path.read_bytes() == before


def test_rejected_call_creates_no_file(tmp_path):
    path = tmp_path / "never.jsonl"
    top = 2**64 - 4
    assert run_cli(["scan", "--r", "4", "--n-start", str(top - 10), "--n-end", str(top), "--out", str(path)]) == 2
    assert run_cli(["scan", "--r", "0", "--n-start", "1", "--n-end", "5", "--out", str(path)]) == 2
    assert run_cli(["identity", "--r-max", "201", "--n-max", "1", "--out", str(path)]) == 2
    assert run_cli(["identity", "--r-max", "1", "--n-max", "3001", "--out", str(path)]) == 2
    assert not path.exists()


def test_scan_resume_drops_torn_final_line(tmp_path, capsys):
    full = tmp_path / "full.jsonl"
    partial = tmp_path / "part.jsonl"
    base = ["scan", "--r", "4", "--n-start", "1", "--n-end", "300", "--threads", "1"]
    assert run_cli(base + ["--out", str(full)]) == 0
    lines = full.read_bytes().splitlines(keepends=True)
    partial.write_bytes(b"".join(lines[:120]) + lines[120][: len(lines[120]) // 2])
    capsys.readouterr()
    assert run_cli(base + ["--out", str(partial)]) == 0
    assert "part.jsonl:121: dropping a torn final line" in capsys.readouterr().err
    assert partial.read_bytes() == full.read_bytes()


def test_scan_resume_reads_a_large_file_in_bounded_memory(tmp_path, capsys):
    # a scan file of several MB ending in a torn line: resuming it must not
    # hold the whole file, and must append exactly the record for the torn n
    import tracemalloc

    start, count = 10**9, 50_000
    torn = start + count
    scanned = tmp_path / "prefix.jsonl"
    assert run_cli(["scan", "--r", "23", "--n-start", str(start), "--n-end", str(torn - 1), "--out", str(scanned)]) == 0
    prefix = scanned.read_bytes()
    one = tmp_path / "one.jsonl"
    assert run_cli(["scan", "--r", "23", "--n-start", str(torn), "--n-end", str(torn), "--out", str(one)]) == 0
    path = tmp_path / "big.jsonl"
    path.write_bytes(prefix + one.read_bytes()[:40])
    size = path.stat().st_size
    assert size > 5 * 2**20
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run_cli(["scan", "--r", "23", "--n-start", str(start), "--n-end", str(torn),
                        "--threads", "1", "--out", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert f"big.jsonl:{count + 1}: dropping a torn final line" in capsys.readouterr().err
    assert peak < size / 4
    assert path.read_bytes() == prefix + one.read_bytes()


def test_scan_resume_reads_a_long_final_line_in_bounded_memory(tmp_path, capsys):
    # a final line without its newline longer than any record cannot begin
    # one: it is refused after reading one record's length of it
    import tracemalloc

    path = tmp_path / "big.txt"
    text = b"x" * (20 * 2**20)
    path.write_bytes(text)
    tracemalloc.start()
    try:
        code = run_cli(["scan", "--r", "3", "--n-start", "1", "--n-end", "2", "--out", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert refusal("big.txt", 1, 3, 1) in capsys.readouterr().err
    assert peak < 2**20
    assert path.read_bytes() == text


_R3_N1 = '{"certificate":{"k0":"1","p":"2","type":"sylvester"},"classification":"certified_nonintegral","n":"1","r":"3"}\n'
_R3_N2 = '{"certificate":{"k0":"2","p":"5","type":"sylvester"},"classification":"certified_nonintegral","n":"2","r":"3"}\n'
_R3_N3 = '{"certificate":{"k0":"2","p":"5","type":"sylvester"},"classification":"certified_nonintegral","n":"3","r":"3"}\n'


@pytest.mark.parametrize("name, text, n_end, complaint", [
    ("notes.txt", b"my precious notes, no newline", 5, refusal("notes.txt", 1, 3, 1)),
    ("scan.jsonl", (_R3_N1 + _R3_N3[:-1]).encode(), 5, refusal("scan.jsonl", 2, 3, 2)),
    ("scan.jsonl", (_R3_N1 + _R3_N2).encode() + b"\0" * 64, 5, refusal("scan.jsonl", 3, 3, 3)),
    ("scan.jsonl", (_R3_N1 + _R3_N2 + _R3_N3[:20]).encode(), 2,
     "scan.jsonl:3: a line after the record for n=2, the end of the scan; refusing to resume this file"),
], ids=["not-a-scan-file", "record-of-another-n", "nul-tail", "past-end"])
def test_scan_resume_cuts_only_the_start_of_the_next_record(name, text, n_end, complaint, tmp_path, capsys):
    # a final line without its newline is cut off only when a killed scan
    # could have left it; anything else exits 2 and leaves the file as it was
    path = tmp_path / name
    path.write_bytes(text)
    assert run_cli(["scan", "--r", "3", "--n-start", "1", "--n-end", str(n_end), "--out", str(path)]) == 2
    assert complaint in capsys.readouterr().err
    assert path.read_bytes() == text


def test_the_resume_record_constants_are_what_a_scan_writes(capsys):
    assert run_cli(["scan", "--r", "3", "--n-start", "1", "--n-end", "3"]) == 0
    assert capsys.readouterr().out == _R3_N1 + _R3_N2 + _R3_N3


@pytest.mark.parametrize("first, second, complaint", [
    ((10, 12), (1, 14), refusal("scan.jsonl", 1, 3, 1)),   # would append n = 1..9 after 12
    ((1, 5), (20, 22), refusal("scan.jsonl", 1, 3, 20)),   # would leave the gap 6..19
    ((1, 5), (1, 3), "scan.jsonl:4: a line after the record for n=3, the end of the scan"),
], ids=["suffix", "gap", "past-end"])
def test_scan_resume_refuses_a_file_that_is_not_a_prefix(first, second, complaint, tmp_path, capsys):
    path = tmp_path / "scan.jsonl"

    def scan(lo, hi):
        return run_cli(["scan", "--r", "3", "--n-start", str(lo), "--n-end", str(hi),
                        "--threads", "1", "--out", str(path)])

    assert scan(*first) == 0
    before = path.read_bytes()
    capsys.readouterr()
    assert scan(*second) == 2
    assert complaint in capsys.readouterr().err
    assert path.read_bytes() == before


@pytest.mark.parametrize("text", [
    '{"classification":"certified_nonintegral","n":"1","r":"3"}',
    _R3_N1.replace('"n":', '"junk":"x","n":')[:-1],
    _R3_N1.replace("certified_nonintegral", "integral")[:-1],
    _R3_N1.replace('"sylvester"', '"smooth"')[:-1],
    _R3_N1.replace('"p":"2"', '"p":"2.0"')[:-1],
], ids=["missing-certificate", "extra-key", "integral-with-certificate", "unknown-certificate-type",
        "non-decimal-p"])
def test_scan_resume_refuses_a_record_no_scan_writes(text, tmp_path, capsys):
    path = tmp_path / "scan.jsonl"
    path.write_text(text + "\n")
    assert run_cli(["scan", "--r", "3", "--n-start", "1", "--n-end", "2", "--out", str(path)]) == 2
    assert refusal("scan.jsonl", 1, 3, 1) in capsys.readouterr().err
    assert path.read_text() == text + "\n"


@pytest.mark.parametrize("r, n, cert, valid", [
    (3, 1, SylvesterPrime(p=7, k0=1), False),   # 7 does not divide k0 + r = 4
    (23, 100, SylvesterPrime(p=103, k0=80), True),  # a scan writes (101, 78)
], ids=["forged", "valid-but-different"])
def test_scan_resume_refuses_a_certificate_the_scan_does_not_write(r, n, cert, valid, tmp_path, capsys):
    # a canonical line with any other certificate than classify's would make
    # the finished file differ from a one-shot scan, or carry a false proof
    assert cert.verify(r, n) is valid and classify(r, n) != cert
    text = classification_line(r, n, cert) + "\n"
    path = tmp_path / "scan.jsonl"
    path.write_text(text)
    assert run_cli(["scan", "--r", str(r), "--n-start", str(n), "--n-end", str(n + 5), "--out", str(path)]) == 2
    assert refusal("scan.jsonl", 1, r, n) in capsys.readouterr().err
    assert path.read_text() == text


def test_scan_planning_memory_is_bounded():
    # chunks are made as the scan reaches them, not listed up front
    import tracemalloc

    from binsum.cli import _cmd_scan, build_parser

    args = build_parser().parse_args(["scan", "--r", "23", "--n-start", "1", "--n-end", "2000000", "--threads", "2"])
    args.resuming = False  # as main decides for an --out that is absent
    tracemalloc.start()
    try:
        _cmd_scan(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_parallel_scan_memory_is_bounded(tmp_path):
    # the parent only writes each chunk's finished text, so finished chunks
    # do not pile up in it while a long range runs
    import tracemalloc

    path = tmp_path / "scan.jsonl"
    tracemalloc.start()
    try:
        code = run_cli(["scan", "--r", "23", "--n-start", "1", "--n-end", "40000", "--threads", "2", "--out", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20


@pytest.mark.parametrize("mask", [{0}, {2, 5, 7}], ids=["one-cpu", "three-cpus"])
def test_scan_threads_default_to_the_usable_cpus(mask, pool_sizes, monkeypatch, capsys):
    # an omitted --threads is the CPUs in the affinity mask when the scan
    # runs, also when the cached parser was built earlier under another mask
    import binsum.cli as cli_mod

    for built_earlier in (False, True):
        cli_mod.build_parser.cache_clear()
        if built_earlier:
            monkeypatch.setattr(cli_mod.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
            cli_mod.build_parser()
        monkeypatch.setattr(cli_mod.os, "sched_getaffinity", lambda pid: mask, raising=False)
        pool_sizes.clear()
        # four chunks: a pool of len(mask) workers, or none for one worker
        assert run_cli(["scan", "--r", "1", "--n-start", "1", "--n-end", str(4 * _SCAN_CHUNK)]) == 0
        assert pool_sizes == ([len(mask)] if len(mask) > 1 else [])
        assert len(capsys.readouterr().out.splitlines()) == 4 * _SCAN_CHUNK


def test_the_parser_is_built_on_first_use_and_once_per_process(tmp_path):
    import binsum.cli as cli_mod

    # importing builds none: that cost would move out of a timed first call
    code = "import binsum.cli; print(binsum.cli.build_parser.cache_info().currsize)"
    src = str(Path(cli_mod.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "0\n"
    cli_mod.build_parser.cache_clear()
    for k in range(3):
        assert main(["certify", "--r", "1", "--n", "1", "--out", str(tmp_path / f"{k}.jsonl")]) == 0
    assert cli_mod.build_parser.cache_info().misses == 1


HELP = json.loads((Path(__file__).parent / "data" / "cli_help.json").read_text())


@pytest.mark.parametrize("argv", sorted(HELP))
def test_help_text_is_unchanged(argv, monkeypatch, capsys):
    # recorded at 200 columns, where no line wraps, before the parser was cached
    monkeypatch.setenv("COLUMNS", "200")
    assert run_cli(argv.split()) == 0
    assert capsys.readouterr().out == HELP[argv]


def test_benchmark_tracer_layers_resolve_and_fire(tmp_path, monkeypatch):
    # perfbench patches these names where the CLI looks them up; a layer
    # that stops resolving, or is bypassed, silently loses its metrics.
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import binsum.cli as cli_mod
    import tracer as tracer_mod

    for hook in ("classify", "small_order_census"):  # the set-up probes
        assert callable(getattr(cli_mod, hook))
    tracer = tracer_mod.Tracer()
    tracer.install(tracer_mod.FULL_LAYERS + tracer_mod.POOL_LAYERS)
    try:
        # the smooth stage and the order2 import on certify are gone
        assert tracer.missing == ["binsum.certify.order2", "binsum.certify.smooth_certificate"]
        out = tmp_path / "scan.jsonl"
        assert run_cli(["scan", "--r", "7", "--n-start", "1", "--n-end", "20", "--threads", "1", "--out", str(out)]) == 0
        assert run_cli(["census", "--t", "100", "--out", str(tmp_path / "census.jsonl")]) == 0
        assert run_cli(["oracle", "--r", "1", "--n", "5", "--out", str(tmp_path / "oracle.jsonl")]) == 0
    finally:
        tracer.restore()
    fired = {tracer.names[i] for i in tracer.name_of}
    assert {"certify.classify", "cli.chunk", "cli.write", "records.serialize",
            "experiments.small_order_census", "certify.s_lower"} <= fired


@pytest.mark.parametrize("name", ["interval", "order", "lcm"])
def test_lemma2_has_only_the_gcd_threshold_flag(name, capsys):
    # the interval, order and lcm exponents are fixed; only gcd is a flag
    assert run_cli(["lemma2", "--r", "100", f"--{name}-exp", "1/2"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("record, complaint", [
    ('{"classification":"undecided","n":"2999","r":"1"}', refusal("scan.jsonl", 1, 1, 2999)),
    ('{"classification":"oracle_nonintegral","n":"3023","r":"1","value_denominator":"2","value_numerator":"1"}',
     refusal("scan.jsonl", 1, 1, 3023)),
], ids=["undecided-then-larger-budget", "oracle-then-default-budget"])
def test_scan_resume_refuses_records_of_another_budget(record, complaint, tmp_path, capsys):
    # records of the evaluation budget that classify no longer has: r = 1
    # instances were evaluated at n <= 3000 and left undecided above
    path = tmp_path / "scan.jsonl"
    path.write_text(record + "\n")
    n = json.loads(record)["n"]
    before = path.read_bytes()
    assert run_cli(["scan", "--r", "1", "--n-start", n, "--n-end", str(int(n) + 1),
                    "--threads", "1", "--out", str(path)]) == 2
    assert complaint in capsys.readouterr().err
    assert path.read_bytes() == before


def test_scan_resume_across_the_oracle_cutoff_matches_one_scan(tmp_path):
    # r = 1 across n = 3000, where the old evaluation budget ended: every n
    # is certified on both sides, n = 3023 by p = 2
    one, resumed = tmp_path / "one.jsonl", tmp_path / "resumed.jsonl"
    base = ["scan", "--r", "1", "--n-start", "2990", "--threads", "1", "--out"]
    assert run_cli(base + [str(one), "--n-end", "3030"]) == 0
    assert run_cli(base + [str(resumed), "--n-end", "2999"]) == 0
    assert run_cli(base + [str(resumed), "--n-end", "3030"]) == 0
    assert resumed.read_bytes() == one.read_bytes()
    records = [json.loads(line) for line in one.read_text().splitlines()]
    assert {rec["classification"] for rec in records} == {"certified_nonintegral"}
    assert records[3023 - 2990]["certificate"] == {"type": "order", "p": "2", "j": "1"}


@pytest.mark.parametrize("command", [
    ["oracle", "--r", "1", "--n", "5"],
    ["certify", "--r", "1", "--n", "5"],
    ["scan", "--r", "1", "--n-start", "1", "--n-end", "5"],
], ids=lambda argv: argv[0])
def test_the_oracle_budget_is_not_a_flag(command, capsys):
    # the oracle evaluates up to ORACLE_CUTOFF, a constant
    assert run_cli(command + ["--oracle-cutoff", "100"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "human"])
@pytest.mark.parametrize("r, n, kind", [
    (3, 4, "sylvester"), (7, 10**12 + 109815, "order"), (1, 3, "order"), (1, 3023, "order"),
])
def test_certify_prints_what_a_one_n_scan_prints(r, n, kind, fmt, capsys):
    assert classify(r, n).kind == kind
    code = run_cli(["certify", "--r", str(r), "--n", str(n), "--format", fmt])
    certified = capsys.readouterr().out
    assert run_cli(["scan", "--r", str(r), "--n-start", str(n), "--n-end", str(n), "--threads", "1",
                    "--format", fmt]) == code
    assert capsys.readouterr().out == certified


_PER_RECORD_LINES = {
    "jsonl": to_json_line,
    "csv": lambda rec: ",".join(to_csv_row(rec)),
    "human": to_human_line,
}


def per_record_text(r, ns, fmt, outcome_of):
    """A chunk's text and counts the slow way: one record per n, each
    encoded on its own."""
    outcomes = [outcome_of(r, n) for n in ns]
    text = "".join(_PER_RECORD_LINES[fmt](classification_record(r, n, o)) + "\n" for n, o in zip(ns, outcomes))
    return Counter(classification_kind(o) for o in outcomes), text


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "human"])
def test_chunk_text_is_the_per_record_text(fmt, monkeypatch):
    import binsum.cli as cli_mod

    kinds = Counter()
    # widths of a full chunk and a part, and of one n past a chunk
    for r, lo, width in [(23, 1, 3000), (7, 2**62, _SCAN_CHUNK + 88), (7, 2**62 + 13330, 40), (1, 1, _SCAN_CHUNK + 1),
                         (10**6, 1, 300)]:
        ns = range(lo, lo + width)
        for i in range(0, width, _SCAN_CHUNK):
            chunk = ns[i : i + _SCAN_CHUNK]
            assert cli_mod._classify_chunk((r, chunk, fmt)) == per_record_text(r, chunk, fmt, classify), (r, chunk)
        kinds.update(classify(r, n).kind for n in ns)
    assert kinds["sylvester"] > 1000 and kinds["order"] > 500
    # the outcomes no scan has reached: denominator certificates and
    # Integral, alone and in runs that share one object, next to real ones
    shared = {"denominator": DenominatorPrime(p=3), "integral": Integral()}

    def fake_classify(r, n):
        if n % 10 in (3, 4):
            return shared["denominator" if n % 20 < 10 else "integral"]
        if n % 10 == 7:
            return DenominatorPrime(p=5) if n % 20 < 10 else Integral()
        return classify(r, n)

    monkeypatch.setattr(cli_mod, "classify", fake_classify)
    chunk = range(100, 160)
    counts, text = cli_mod._classify_chunk((23, chunk, fmt))
    assert (counts, text) == per_record_text(23, chunk, fmt, fake_classify)
    assert counts["integral"] == 9 and text.count("denominator") == 9


@pytest.mark.parametrize("text", ["1/", "/2", "0/1", "1/0", "a/2", "1/2/3"])
def test_lemma2_rejects_a_malformed_gcd_exponent(text, capsys):
    assert run_cli(["lemma2", "--r", "100", "--gcd-exp", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("binsum: error: exponent must be a positive fraction") and repr(text) in err


@pytest.mark.parametrize("text", ["1/10001", "10001/1", "010001", "1/1" + "0" * 5000],
                         ids=["den", "num", "leading-zero", "5001-digit-den"])
def test_lemma2_refuses_an_exponent_above_ten_thousand(text, capsys):
    # the search's cost grows with NUM and DEN: nth_root starts from 2**(DEN - 1)
    assert run_cli(["lemma2", "--r", "100", "--gcd-exp", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("binsum: error: exponent must be a positive fraction NUM or NUM/DEN, "
                          "NUM and DEN <= 10000") and repr(text) in err


def test_lemma2_takes_an_exponent_of_ten_thousand():
    assert run_cli(["lemma2", "--r", "100", "--gcd-exp", "1/10000"]) == 0
    assert run_cli(["lemma2", "--r", "100", "--gcd-exp", "10000/1"]) == 0


def test_scan_resume_rejects_unknown_classification(tmp_path, capsys):
    path = tmp_path / "scan.jsonl"
    path.write_text('{"classification":"proved","n":"1","r":"4"}\n')
    before = path.read_bytes()
    assert run_cli(["scan", "--r", "4", "--n-start", "1", "--n-end", "10", "--out", str(path)]) == 2
    assert refusal("scan.jsonl", 1, 4, 1) in capsys.readouterr().err
    assert path.read_bytes() == before


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each pool a scan starts; the fake pool runs the
    chunks in this process."""
    import binsum.cli as cli_mod

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, tasks):
            return map(func, tasks)

    monkeypatch.setattr(cli_mod.multiprocessing, "Pool", FakePool)
    return sizes


def test_scan_pool_has_no_more_workers_than_chunks(pool_sizes, monkeypatch, capsys):
    import binsum.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_usable_cpus", lambda: 3)
    c = _SCAN_CHUNK
    for n_end, threads, expected in [
        (c + 88, 8, [2]),         # two chunks: two workers, not eight
        (4 * c - 48, 3, [3]),     # four chunks: as many workers as asked
        (4 * c, 100_000, [3]),    # four chunks on three CPUs: three workers
        (c + 88, 1, []),          # one worker: no pool
        (c, 8, []),               # one chunk: no pool
    ]:
        pool_sizes.clear()
        assert run_cli(["scan", "--r", "23", "--n-start", "1", "--n-end", str(n_end), "--threads", str(threads)]) == 0
        assert pool_sizes == expected
        assert len(capsys.readouterr().out.splitlines()) == n_end


@pytest.mark.parametrize("field, value", [
    ("n", None), ("n", "1_0"), ("n", 1.9), ("n", 10), ("n", "010"), ("n", " 10"), ("r", 4),
], ids=["n-null", "n-underscore", "n-float", "n-int", "n-leading-zero", "n-space", "r-int"])
def test_scan_resume_refuses_a_malformed_record(field, value, tmp_path, capsys):
    # only the decimal strings records are written with are accepted: each
    # line differs from the record a scan writes for n = 10 in one field
    record = {"certificate": {"k0": "7", "p": "11", "type": "sylvester"},
              "classification": "certified_nonintegral", "n": "10", "r": "4"}

    def line():
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    assert line() == classification_line(4, 10, classify(4, 10))
    record[field] = value
    path = tmp_path / "scan.jsonl"
    path.write_text(line() + "\n")
    before = path.read_bytes()
    assert run_cli(["scan", "--r", "4", "--n-start", "10", "--n-end", "12", "--out", str(path)]) == 2
    assert refusal("scan.jsonl", 1, 4, 10) in capsys.readouterr().err
    assert path.read_bytes() == before


@pytest.mark.parametrize("text, complaint", [
    ("[" * 200_000 + "\n", refusal("scan.jsonl", 1, 3, 1)),
    (_R3_N1 + "\n" + "   \n", refusal("scan.jsonl", 2, 3, 2)),
    (_R3_N1 + "   \n", refusal("scan.jsonl", 2, 3, 2)),
    (_R3_N1 + "\n" + _R3_N2, refusal("scan.jsonl", 2, 3, 2)),
], ids=["deep-nesting", "empty-line", "spaces-line", "blank-between-records"])
def test_scan_resume_refuses_a_line_that_is_not_a_record(text, complaint, tmp_path, capsys):
    # exit 2 (not 1, the counterexample code), naming the line, file untouched
    path = tmp_path / "scan.jsonl"
    path.write_text(text)
    before = path.read_bytes()
    assert run_cli(["scan", "--r", "3", "--n-start", "1", "--n-end", "5", "--out", str(path)]) == 2
    assert complaint in capsys.readouterr().err
    assert path.read_bytes() == before


_R3_N1_RECORD = json.loads(_R3_N1)


@pytest.mark.parametrize("line", [
    "  " + _R3_N1[:-1] + "   \n",
    json.dumps(dict(reversed(_R3_N1_RECORD.items())), separators=(",", ":")) + "\n",
    json.dumps(_R3_N1_RECORD, sort_keys=True) + "\n",
    _R3_N1[:-1] + "\r\n",
    _R3_N1.replace('"n":"1"', '"n":"\\u0031"'),
    _R3_N1.replace('"n":"1"', '"n":"2","n":"1"'),
], ids=["padded", "key-order", "separators", "crlf", "escaped", "duplicate-key"])
def test_scan_resume_refuses_a_record_not_in_canonical_form(line, tmp_path, capsys):
    # each line parses to the n = 1 record, but a resumed file must equal a
    # one-shot scan byte for byte
    assert json.loads(line) == _R3_N1_RECORD and line != _R3_N1
    path = tmp_path / "scan.jsonl"
    path.write_text(line, newline="")
    before = path.read_bytes()
    assert run_cli(["scan", "--r", "3", "--n-start", "1", "--n-end", "3", "--out", str(path)]) == 2
    assert refusal("scan.jsonl", 1, 3, 1) in capsys.readouterr().err
    assert path.read_bytes() == before


def test_golden_classification_certificates_are_sound():
    # the golden classification rows: each certificate re-verifies and its
    # prime is in the denominator of the exact value
    from binsum.certify import s_lower
    from binsum.exact import valuation

    for case in ("certify-oracle-jsonl", "certify-sylvester-jsonl", "scan-jsonl"):
        for line in GOLDEN[case]["stdout"].splitlines():
            rec = json.loads(line)
            r, n = int(rec["r"]), int(rec["n"])
            cert = certificate_from_record(rec["certificate"])
            assert cert.verify(r, n) and valuation(cert.p, s_lower(r, n)) < 0
