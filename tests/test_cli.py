import csv
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from binsum.certify import OracleIntegral
from binsum.cli import main
from binsum.records import certificate_from_record, parse_scan_line


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


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


def test_scan_jsonl_sorted_and_thread_invariant(tmp_path):
    one = tmp_path / "scan1.jsonl"
    eight = tmp_path / "scan8.jsonl"
    base = ["scan", "--r", "6", "--n-start", "1", "--n-end", "600", "--format", "jsonl"]
    assert run_cli(base + ["--threads", "1", "--out", str(one)]) == 0
    assert run_cli(base + ["--threads", "8", "--out", str(eight)]) == 0
    assert one.read_bytes() == eight.read_bytes()
    ns = [json.loads(line)["n"] for line in one.read_text().splitlines()]
    assert ns == [str(n) for n in range(1, 601)]


def test_scan_resume_skips_existing(tmp_path):
    full = tmp_path / "full.jsonl"
    partial = tmp_path / "partial.jsonl"
    base = ["scan", "--r", "4", "--n-start", "1", "--n-end", "300", "--threads", "2"]
    assert run_cli(base + ["--out", str(full)]) == 0
    lines = full.read_text().splitlines(keepends=True)
    partial.write_text("".join(lines[:120]))
    assert run_cli(base + ["--out", str(partial)]) == 0
    assert partial.read_bytes() == full.read_bytes()


def test_scan_resume_rejects_foreign_file(tmp_path, capsys):
    path = tmp_path / "other.jsonl"
    path.write_text('{"classification":"undecided","n":"1","r":"99"}\n')
    assert run_cli(["scan", "--r", "4", "--n-start", "1", "--n-end", "10", "--out", str(path)]) == 2
    assert "not a scan record" in capsys.readouterr().err


def test_scan_resume_reports_prior_integral(tmp_path):
    # a stored integral record must keep raising the headline exit status
    path = tmp_path / "claim.jsonl"
    path.write_text('{"classification":"oracle_integral","n":"1","r":"9","value_denominator":"1","value_numerator":"7"}\n')
    assert run_cli(["scan", "--r", "9", "--n-start", "1", "--n-end", "1", "--out", str(path)]) == 1


def test_scan_exit_1_on_integral(monkeypatch, tmp_path, capsys):
    import binsum.cli as cli_mod

    def fake_classify(r, n, budget):
        return OracleIntegral(value=Fraction(4, 1))

    monkeypatch.setattr(cli_mod, "classify", fake_classify)
    out = tmp_path / "fake.jsonl"
    code = run_cli(["scan", "--r", "1", "--n-start", "1", "--n-end", "3",
                    "--threads", "1", "--out", str(out)])
    assert code == 1
    assert "INTEGRAL" in capsys.readouterr().err


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
        n, _ = parse_scan_line(line, 7)
        if "certificate" in rec:
            cert = certificate_from_record(rec["certificate"])
            assert cert.verify(7, n)
            seen += 1
    assert seen > 150


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


def test_identity_exit_1_on_violation(monkeypatch, capsys):
    import binsum.cli as cli_mod

    monkeypatch.setattr(cli_mod, "complement_check", lambda r, n: (r, n) != (2, 3))
    assert run_cli(["identity", "--r-max", "2", "--n-max", "3"]) == 1
    got = capsys.readouterr()
    assert "1 violations" in got.err
    assert [json.loads(line)["complement_ok"] for line in got.out.splitlines()].count(False) == 1


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
        assert tracer.missing == []
        out = tmp_path / "scan.jsonl"
        assert run_cli(["scan", "--r", "7", "--n-start", "1", "--n-end", "20", "--threads", "1", "--out", str(out)]) == 0
        assert run_cli(["census", "--t", "100", "--out", str(tmp_path / "census.jsonl")]) == 0
        assert run_cli(["oracle", "--r", "1", "--n", "5", "--out", str(tmp_path / "oracle.jsonl")]) == 0
    finally:
        tracer.restore()
    fired = {tracer.names[i] for i in tracer.name_of}
    assert {"certify.classify", "cli.chunk", "cli.write", "records.serialize",
            "experiments.small_order_census", "certify.s_lower"} <= fired
