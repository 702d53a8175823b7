"""Command-line front end.

Subcommands map one-to-one onto the library operations: oracle (exact sum
values), identity (closed-form and complement checks over a grid), certify
(classify one instance), scan (classify an n-range, resumable and
parallel), lemma2 (six-prime interval witness search), census (small-order
primes), msmooth (windowed smooth-divisor statistics), gaps (next-prime
probe).

Each handler returns (records, human-line formatter, exit-status callable);
``main`` alone writes the records, to stdout or to ``--out``.  It never
overwrites a non-empty ``--out`` file: only a jsonl scan resumes one.

Exit status: 0 = completed and no integral value seen, 1 = some instance
evaluated to an integer (a counterexample to the nonintegrality
conjecture) or an identity violation (identity), 2 = usage or
configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import multiprocessing
import os
import sys
import time
from typing import Callable, Iterable, Optional, TextIO

from .certify import (
    CLOSED_FORM_CUTOFF,
    ORACLE_CUTOFF,
    ClassifyBudget,
    OracleIntegral,
    _check_instance,
    classify,
    complement_check,
    s_lower,
    s_upper,
    s_upper_closed,
)
from .experiments import (
    ThresholdConfig,
    find_tuple,
    gap_probe,
    m_of_r,
    small_order_census,
    verify_tuple,
)
from .records import (
    CSV_COLUMNS,
    classification_record,
    parse_scan_line,
    to_csv_row,
    to_human_line,
    to_json_line,
)

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2

_SCAN_CHUNK = 512

_Output = tuple[Iterable[dict], Callable[[dict], str], Callable[[], int]]


class _Writer:
    """Single-destination record writer for one of the three formats."""

    def __init__(self, stream: TextIO, fmt: str, human: Callable[[dict], str]):
        self.stream = stream
        self.fmt = fmt
        self.human = human
        if fmt == "csv":
            csv.writer(stream, lineterminator="\n").writerow(CSV_COLUMNS)

    def write(self, rec: dict) -> None:
        if self.fmt == "jsonl":
            self.stream.write(to_json_line(rec) + "\n")
        elif self.fmt == "csv":
            csv.writer(self.stream, lineterminator="\n").writerow(to_csv_row(rec))
        else:
            self.stream.write(self.human(rec) + "\n")


def _positive(name: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{name} must be >= 1: got {value}")
    return value


def _record(**fields) -> dict:
    """A record whose ints, also inside sequences, are decimal strings."""

    def text(value):
        return str(value) if type(value) is int else value

    return {k: [text(x) for x in v] if isinstance(v, (list, tuple)) else text(v) for k, v in fields.items()}


def _parse_exponent(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    pair = (int(num), int(den) if den else 1)
    if pair[0] < 1 or pair[1] < 1:
        raise ValueError(f"exponent must be a positive fraction: got {text}")
    return pair


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binsum",
        description="Exact toolkit for the binomial sums sum k/(k+r)*C(n,k) and their nonintegrality certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="exact value of one sum")
    p.set_defaults(handler=_cmd_oracle)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--upper", action="store_true", help="evaluate the complementary sum instead")
    p.add_argument("--closed", action="store_true", help="use the closed form (implies --upper)")
    p.add_argument("--oracle-cutoff", type=int, default=3000)

    p = sub.add_parser("identity", help="closed-form and complement identity checks over a grid")
    p.set_defaults(handler=_cmd_identity)
    p.add_argument("--r-max", type=int, default=25)
    p.add_argument("--n-max", type=int, default=100)

    p = sub.add_parser("certify", help="classify one (r, n) instance")
    p.set_defaults(handler=_cmd_certify)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle-cutoff", type=int, default=3000)

    p = sub.add_parser("scan", help="classify every n in a range for one r")
    p.set_defaults(handler=_cmd_scan)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n-start", type=int, required=True)
    p.add_argument("--n-end", type=int, required=True)
    p.add_argument("--oracle-cutoff", type=int, default=3000)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)

    p = sub.add_parser("lemma2", help="six-prime short-interval witness search")
    p.set_defaults(handler=_cmd_lemma2)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--interval-exp", type=str, default="61/100", metavar="NUM/DEN")
    p.add_argument("--order-exp", type=str, default="3/10", metavar="NUM/DEN")
    p.add_argument("--gcd-exp", type=str, default="1/1000", metavar="NUM/DEN")
    p.add_argument("--lcm-exp", type=str, default="2597/500", metavar="NUM/DEN")

    p = sub.add_parser("census", help="odd primes q <= t with order2(q) <= q**0.3")
    p.set_defaults(handler=_cmd_census)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("msmooth", help="max over n <= n-max of the windowed smooth minimum M_r(n)")
    p.set_defaults(handler=_cmd_msmooth)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("gaps", help="next prime above n and the gap scale")
    p.set_defaults(handler=_cmd_gaps)
    p.add_argument("--n", type=int, required=True)

    for name, p in sub.choices.items():
        # only classification records fit CSV_COLUMNS
        formats = ("jsonl", "csv", "human") if name in ("certify", "scan") else ("jsonl", "human")
        p.add_argument("--format", choices=formats, default="jsonl")
        p.add_argument("--out", metavar="PATH", default=None, help="write records to a new or empty PATH, not stdout")
    return parser


def _cmd_oracle(args) -> _Output:
    r = _positive("r", args.r)
    n = _positive("n", args.n)
    which = "upper" if args.upper or args.closed else "lower"
    if args.closed:
        value = s_upper_closed(r, n)
    else:
        value = (s_upper if args.upper else s_lower)(r, n, cutoff=args.oracle_cutoff)
    rec = _record(r=r, n=n, sum=which, value_numerator=value.numerator, value_denominator=value.denominator)
    human = f"(r={r}, n={n}) {which} sum = {value.numerator}/{value.denominator}"
    return [rec], lambda _: human, lambda: EXIT_FOUND if value.denominator == 1 else EXIT_OK


def _cmd_identity(args) -> _Output:
    r_max = _positive("r-max", args.r_max)
    n_max = _positive("n-max", args.n_max)
    if r_max > CLOSED_FORM_CUTOFF:
        raise ValueError(f"r-max={r_max} exceeds the closed-form cutoff {CLOSED_FORM_CUTOFF}")
    if n_max > ORACLE_CUTOFF:
        raise ValueError(f"n-max={n_max} exceeds the evaluation cutoff {ORACLE_CUTOFF}")
    bad = 0

    def records():
        nonlocal bad
        for r in range(1, r_max + 1):
            for n in range(1, n_max + 1):
                closed_ok = s_upper(r, n) == s_upper_closed(r, n)
                comp_ok = complement_check(r, n)
                bad += not (closed_ok and comp_ok)
                yield _record(r=r, n=n, closed_form_ok=closed_ok, complement_ok=comp_ok)

    def human(rec: dict) -> str:
        closed, comp = ("ok" if rec[key] else "FAIL" for key in ("closed_form_ok", "complement_ok"))
        return f"(r={rec['r']}, n={rec['n']}) closed_form={closed} complement={comp}"

    def status() -> int:
        print(f"identity grid r<={r_max}, n<={n_max}: {bad} violations", file=sys.stderr)
        return EXIT_FOUND if bad else EXIT_OK

    return records(), human, status


def _cmd_certify(args) -> _Output:
    r = _positive("r", args.r)
    n = _positive("n", args.n)
    budget = ClassifyBudget(oracle_cutoff=_positive("oracle-cutoff", args.oracle_cutoff))
    outcome = classify(r, n, budget)
    found = isinstance(outcome, OracleIntegral)
    return [classification_record(r, n, outcome)], to_human_line, lambda: EXIT_FOUND if found else EXIT_OK


def _classify_chunk(task: tuple[int, list[int], ClassifyBudget]) -> list[tuple[int, dict]]:
    r, ns, budget = task
    return [(n, classification_record(r, n, classify(r, n, budget))) for n in ns]


def _resuming(args) -> bool:
    """True when --out is a non-empty file, which only a jsonl scan may continue."""
    if args.out is None or not os.path.exists(args.out) or os.path.getsize(args.out) == 0:
        return False
    if (args.command, args.format) != ("scan", "jsonl"):
        raise ValueError(f"{args.out} is not empty; refusing to overwrite it (only a jsonl scan resumes a file)")
    return True


def _load_resume(path: str, r: int) -> tuple[set[int], int]:
    """Collect n values (and integral count) already present in a jsonl
    scan file.  A final line without its newline, the torn tail of a killed
    run, is skipped here; main cuts it off before appending."""
    done: set[int] = set()
    integral = 0
    with open(path, encoding="utf-8", newline="") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.endswith("\n"):
                print(f"binsum: {path}:{lineno}: dropping a torn final line", file=sys.stderr)
                break
            line = line.strip()
            if not line:
                continue
            try:
                n, kind = parse_scan_line(line, r)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not a scan record for r={r}: {exc}")
            done.add(n)
            if kind == "oracle_integral":
                integral += 1
    return done, integral


def _cmd_scan(args) -> _Output:
    r = _positive("r", args.r)
    n_start = _positive("n-start", args.n_start)
    n_end = args.n_end
    if n_end < n_start:
        raise ValueError(f"empty scan range [{n_start}, {n_end}]")
    _check_instance(r, n_end)
    threads = _positive("threads", args.threads)
    budget = ClassifyBudget(oracle_cutoff=_positive("oracle-cutoff", args.oracle_cutoff))

    resuming = _resuming(args)
    done, prior_integral = _load_resume(args.out, r) if resuming else (set(), 0)

    todo = [n for n in range(n_start, n_end + 1) if n not in done]
    tasks = [(r, todo[i : i + _SCAN_CHUNK], budget) for i in range(0, len(todo), _SCAN_CHUNK)]
    counts: dict[str, int] = {}
    t0 = time.perf_counter()

    def records():
        parallel = threads > 1 and len(tasks) > 1
        with multiprocessing.Pool(processes=threads) if parallel else contextlib.nullcontext() as pool:
            for chunk in pool.imap(_classify_chunk, tasks) if pool else map(_classify_chunk, tasks):
                for _, rec in chunk:
                    counts[rec["classification"]] = counts.get(rec["classification"], 0) + 1
                    yield rec

    def status() -> int:
        elapsed = time.perf_counter() - t0
        skipped = f", {len(done)} already present" if resuming else ""
        summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items())) or "nothing to do"
        print(f"scan r={r}, n in [{n_start}, {n_end}]: {summary}{skipped} ({elapsed:.2f}s)", file=sys.stderr)
        integral = prior_integral + counts.get("oracle_integral", 0)
        if integral:
            print(f"INTEGRAL VALUE FOUND: {integral} instance(s)", file=sys.stderr)
            return EXIT_FOUND
        return EXIT_OK

    return records(), to_human_line, status


def _cmd_lemma2(args) -> _Output:
    r = _positive("r", args.r)
    exponents = ("interval_exp", "order_exp", "gcd_exp", "lcm_exp")
    config = ThresholdConfig(**{name: _parse_exponent(getattr(args, name)) for name in exponents})
    result = find_tuple(r, config)
    (lo, hi), w = result.interval, result.witness
    witness = None
    if w is not None:
        check = verify_tuple(w, config)
        witness = _record(
            primes=w.primes, orders=w.orders, pair_gcds=w.pair_gcds, lcm_m=w.lcm_m,
            verified=check.conditions_ok, lcm_bound_ok=check.bound_ok,
        )
    rec = _record(
        r=r, interval_lo=lo, interval_hi=hi, interval_primes=result.interval_primes,
        order_passed=result.order_passed, witness=witness,
    )
    found = "no witness" if w is None else f"witness {list(w.primes)}"
    human = (
        f"r={r}: interval [{lo}, {hi}] holds {result.interval_primes} primes "
        f"({result.order_passed} pass the order filter); {found}"
    )
    return [rec], lambda _: human, lambda: EXIT_OK


def _cmd_census(args) -> _Output:
    t = _positive("t", args.t)
    count, primes = small_order_census(t)
    rec = _record(t=t, count=count, primes=primes)
    listing = f": {primes}" if primes else ""
    return [rec], lambda _: f"census t={t}: {count} small-order primes{listing}", lambda: EXIT_OK


def _cmd_msmooth(args) -> _Output:
    r = _positive("r", args.r)
    n_max = _positive("n-max", args.n_max)
    stats = m_of_r(r, n_max)
    rec = _record(r=r, n_max=n_max, m_max=stats.m_max, argmax_n=stats.argmax_n, exceeds_log=stats.exceeds_log)
    side = "exceeds" if stats.exceeds_log else "within"
    human = f"M_{r}(n) over n<={n_max}: max {stats.m_max} at n={stats.argmax_n} ({side} log2(r))"
    return [rec], lambda _: human, lambda: EXIT_OK


def _cmd_gaps(args) -> _Output:
    n = _positive("n", args.n)
    probe = gap_probe(n)
    names = {-1: "lt", 0: "eq", 1: "gt"}
    vs20, vs11 = names[probe.gap20_vs_n], names[probe.gap11_vs_n]
    rec = _record(n=n, next_prime=probe.next_prime, gap=probe.gap, gap20_vs_n=vs20, gap11_vs_n=vs11)
    human = f"next prime after {n} is {probe.next_prime} (gap {probe.gap}; gap**20 {vs20} n, gap**11 {vs11} n)"
    return [rec], lambda _: human, lambda: EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Handlers check their arguments before --out is opened: a rejected call leaves files alone.
        append = _resuming(args)
        records, human, status = args.handler(args)
        if args.out is None:
            target = contextlib.nullcontext(sys.stdout)
        else:
            target = open(args.out, "a" if append else "w", encoding="utf-8", newline="")
        with target as stream:
            if append:  # cut off the torn final line a killed scan may have left
                with open(args.out, "rb") as old:
                    stream.truncate(old.read().rfind(b"\n") + 1)
            writer = _Writer(stream, args.format, human)
            for rec in records:
                writer.write(rec)
        return status()
    except ValueError as exc:
        print(f"binsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
