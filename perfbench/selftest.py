"""Self-test of the benchmark harness, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
by both run modes on every workload, that the stage decisions add up, and
that the correctness gate trips on injected faults: a forged certificate,
a torn record line, an undecided result, differing outputs between runs,
a wrong digest, a scan_density mismatch, a wrong census and an identity
violation.  Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
from collections import Counter

import gate
import run

TINY = {
    "scan-sieve": {"width": 3, "sub": 2},
    "scan-u64": {"width": 20, "sub": 10},
    "scan-small": {"width": 2100, "sub": 1050},  # three chunks each, so the pool runs
    "experiments": {"census_t": 3000, "offset_span": 16, "r_max": 3, "n_max": 12},
}
SEED = 12345  # not the default seed: tiny windows have no recorded digest

failures: list[str] = []


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(label)


def check_metric_names(work: str) -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check("BENCHMARK.json end_to_end matches the harness", declared[0] == run.END_TO_END)
    check("BENCHMARK.json per_layer matches the harness", declared[1] == run.PER_LAYER)
    check("BENCHMARK.json workloads match the harness", [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))
    for name, changes in TINY.items():
        workload = dataclasses.replace(run.WORKLOADS[name], **changes)
        for trace in (0, 1):
            result, provenance = run.run_one(workload, SEED, 0, bool(trace), run.Path(work) / f"{name}-{trace}")
            label = f"{name} --trace {trace}"
            check(f"{label}: correct", result["correct"], "; ".join(provenance["failures"][:3]))
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            check(f"{label}: every metric with its unit", emitted == declared[trace], f"{sorted(set(declared[trace]) ^ set(emitted))}")
            check(f"{label}: attempted >= 1, failed == 0", result["attempted"] >= 1 and result["failed"] == 0)
            if trace and isinstance(workload, run.ScanWorkload):
                m = {k: v["value"] for k, v in result["metrics"].items()}
                decided = sum(m[f"certify.{s}.decided"] for s in run.STAGES) + m["certify.undecided"]
                check(f"{label}: stage decisions + undecided == instances", decided == workload.width == m["certify.classify.calls"])
                if workload.sub > 512:
                    check(f"{label}: the pool ran and its wait was traced", m["cli.pool_wait_s"] > 0 and m["cli.chunks"] >= 2)


def write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))


def check_gate(work: str) -> None:
    from binsum.cli import main
    from binsum.ntheory import is_prime

    r, lo, hi = 7, 1000, 1060
    good = os.path.join(work, "good.jsonl")
    main(["scan", "--r", str(r), "--n-start", str(lo), "--n-end", str(hi), "--threads", "1", "--out", good])
    with open(good, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    scan = gate.check_scan([good], r, lo, hi)
    check("gate passes the genuine scan output", not scan.failures, "; ".join(scan.failures[:3]))
    density_failures, _ = gate.check_density(r, lo, hi, scan)
    check("gate: scan_density agrees on the genuine output", not density_failures)

    def tripped(label: str, mutated: list[str], raw: str | None = None) -> None:
        path = os.path.join(work, "bad.jsonl")
        if raw is None:
            write_lines(path, mutated)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(raw)
        check(f"gate trips on {label}", bool(gate.check_scan([path], r, lo, hi).failures))

    for kind in ("sylvester", "order"):
        idx = next(i for i, line in enumerate(lines) if f'"type":"{kind}"' in line)
        rec = json.loads(lines[idx])
        cert = rec["certificate"]
        target = int(cert["k0"]) + r if kind == "sylvester" else int(rec["n"]) + int(cert["j"])
        p = int(cert["p"])
        wrong = next(q for q in range(p + 2, 2 * p + 100, 2) if is_prime(q) and target % q)
        for forged_p in (wrong, 3 * p):
            cert["p"] = str(forged_p)
            forged = lines[:idx] + [json.dumps(rec, sort_keys=True, separators=(",", ":"))] + lines[idx + 1 :]
            tripped(f"a forged {kind} certificate (p={forged_p} instead of {p})", forged)
    whole = "".join(line + "\n" for line in lines)
    tripped("a torn record line", [], raw=whole[: len(whole) - len(lines[-1]) // 2 - 1])
    rec = json.loads(lines[5])
    undecided = {"r": rec["r"], "n": rec["n"], "classification": "undecided"}
    tripped("an undecided result", lines[:5] + [json.dumps(undecided)] + lines[6:])
    tripped("a missing record", lines[:-1])

    other = os.path.join(work, "other.jsonl")
    write_lines(other, lines[:-1] + [lines[-1].replace('"r":"7"', '"r":"7" ')])
    check("gate trips on outputs that differ between runs", bool(gate.check_identical([[good], [other]])))
    check("gate trips on a wrong digest", bool(gate.check_digest("k", gate.digest([good]), {"k": "0" * 64}, False)))
    check("gate trips on a default-seed input without a digest", bool(gate.check_digest("k", gate.digest([good]), {}, True)))
    skewed = dataclasses.replace(scan, certs=scan.certs + Counter({"sylvester": 1}))
    check("gate trips on a scan_density mismatch", bool(gate.check_density(r, lo, hi, skewed)[0]))

    census = os.path.join(work, "census.jsonl")
    main(["census", "--t", "5000", "--out", census])
    check("gate passes the genuine census", not gate.check_census(census, 5000))
    with open(census, encoding="utf-8") as handle:
        rec = json.loads(handle.read())
    rec["primes"], rec["count"] = rec["primes"][1:], str(int(rec["count"]) - 1)
    write_lines(census, [json.dumps(rec)])
    check("gate trips on a census missing a prime", bool(gate.check_census(census, 5000)))

    identity = os.path.join(work, "identity.jsonl")
    main(["identity", "--r-max", "2", "--n-max", "5", "--out", identity])
    check("gate passes the genuine identity grid", gate.check_identity(identity, 2, 5) == ([], 0))
    with open(identity, encoding="utf-8") as handle:
        grid = handle.read().splitlines()
    write_lines(identity, [grid[0].replace('"complement_ok":true', '"complement_ok":false')] + grid[1:])
    check("gate counts an identity violation", gate.check_identity(identity, 2, 5)[1] == 1)


def check_failed_run_reports_no_numbers(work: str) -> None:
    """A gate failure fails the whole run: correct is false, no metrics."""
    original = run.ScanBench.run_pass

    def forging_pass(self, workers, trace="off"):
        p = original(self, workers, trace)
        first = p.outputs[0][0]
        with open(first, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        rec = json.loads(lines[0])
        rec["certificate"]["p"] = str(int(rec["certificate"]["p"]) + 2)
        write_lines(first, [json.dumps(rec, sort_keys=True, separators=(",", ":"))] + lines[1:])
        return p

    run.ScanBench.run_pass = forging_pass
    try:
        workload = dataclasses.replace(run.WORKLOADS["scan-small"], width=40, sub=20)
        result, _ = run.run_one(workload, SEED, 0, False, run.Path(work) / "forged")
    finally:
        run.ScanBench.run_pass = original
    check("a run with a forged certificate is not correct", result["correct"] is False)
    check("a run with a forged certificate reports no metrics", result["metrics"] == {})


def main() -> int:
    run.check_checkout()
    base = run.ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=base)
    try:
        check_gate(work)
        check_failed_run_reports_no_numbers(work)
        check_metric_names(work)
    finally:
        run.remove_work_dir(run.Path(work))
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
