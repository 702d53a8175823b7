"""Command-line front end.

Subcommands map one-to-one onto the library operations: oracle (exact sum
values), identity (closed-form and complement checks over a grid), certify
(classify one instance), scan (classify an n-range, resumable and
parallel), lemma2 (six-prime interval witness search), census (small-order
primes), msmooth (windowed smooth-divisor statistics), gaps (next-prime
probe).

Each handler returns (lines, exit-status callable), the lines being text
in the chosen format; ``main`` alone writes them, to stdout or to ``--out``.
A scan's workers classify and format each chunk.  A scan never overwrites a
non-empty ``--out`` file: only a jsonl scan resumes one, and only when each
stored line is the record it writes for that line's n.  Those lines are
checked by the scan's own workers, one chunk in memory at a time, before
anything is appended, and the scan's elapsed time includes the check.

Exit status: 0 = completed and no integral value seen, 1 = some instance
is an integer (a counterexample to the nonintegrality conjecture: it has
no certificate, or `oracle` evaluated it to one) or an identity violation
(identity), 2 = usage, configuration or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import multiprocessing
import os
import re
import sys
import time
from collections import Counter
from typing import Callable, Iterable, Optional, TextIO

from .certify import (
    CLOSED_FORM_CUTOFF,
    ORACLE_CUTOFF,
    _check_instance,
    classify,
    s_lower,
    s_sums,
    s_upper,
    s_upper_closed,
)
from .experiments import (
    GCD_EXP,
    find_tuple,
    gap_probe,
    m_of_r,
    small_order_census,
    verify_tuple,
)
from .records import (
    CSV_COLUMNS,
    LINE_FORMATS,
    classification_kind,
    record,
    to_json_line,
)

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2

_SCAN_CHUNK = 512

_Output = tuple[Iterable[str], Callable[[], int]]


class _Writer:
    """Single-destination writer of text already in its format.  It adds
    only the csv header (csv is offered by certify and scan alone)."""

    def __init__(self, stream: TextIO, fmt: str):
        self.stream = stream
        if fmt == "csv":
            stream.write(",".join(CSV_COLUMNS) + "\n")

    def write(self, text: str) -> None:
        self.stream.write(text)


def _line(fmt: str, rec: dict, human: str) -> str:
    """The line of a record that is not a classification: its json, or the
    human text, newline-terminated."""
    return (to_json_line(rec) if fmt == "jsonl" else human) + "\n"


def _positive(name: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{name} must be >= 1: got {value}")
    return value


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_exponent(text: str) -> tuple[int, int]:
    # NUM, DEN <= 10**4 bounds lemma2's cost: nth_root starts from 2**(DEN - 1)
    match = re.fullmatch(r"0*([1-9][0-9]{0,4})(?:/0*([1-9][0-9]{0,4}))?", text)
    if match is None or max(int(match[1]), int(match[2] or 1)) > 10**4:
        raise ValueError(f"exponent must be a positive fraction NUM or NUM/DEN, NUM and DEN <= 10000: got {text!r}")
    return int(match[1]), int(match[2] or 1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and then kept for
    the life of the process, so repeated main calls parse with one parser.
    Nothing in it depends on when it was built: an omitted --threads parses
    to None, and each scan resolves that to the CPUs usable when it runs."""
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

    p = sub.add_parser("identity", help="closed-form and complement identity checks over a grid")
    p.set_defaults(handler=_cmd_identity)
    p.add_argument("--r-max", type=int, default=25)
    p.add_argument("--n-max", type=int, default=100)

    p = sub.add_parser("certify", help="classify one (r, n) instance")
    p.set_defaults(handler=_cmd_certify)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("scan", help="classify every n in a range for one r")
    p.set_defaults(handler=_cmd_scan)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n-start", type=int, required=True)
    p.add_argument("--n-end", type=int, required=True)
    p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("lemma2", help="six-prime short-interval witness search")
    p.set_defaults(handler=_cmd_lemma2)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--gcd-exp", type=str, default="%d/%d" % GCD_EXP, metavar="NUM/DEN")

    p = sub.add_parser(
        "census",
        help="odd primes q <= t with order2(q) <= q**0.3",
        description="Odd primes q <= t with order2(q) <= q**0.3. Each prime costs one reduced power of 2 mod q; "
        "order2 runs only on the few that pass it.",
    )
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
        value = (s_upper if args.upper else s_lower)(r, n)
    rec = record(r=r, n=n, sum=which, value_numerator=value.numerator, value_denominator=value.denominator)
    human = f"(r={r}, n={n}) {which} sum = {value.numerator}/{value.denominator}"
    return [_line(args.format, rec, human)], lambda: EXIT_FOUND if value.denominator == 1 else EXIT_OK


def _cmd_identity(args) -> _Output:
    r_max = _positive("r-max", args.r_max)
    n_max = _positive("n-max", args.n_max)
    if r_max > CLOSED_FORM_CUTOFF:
        raise ValueError(f"r-max={r_max} exceeds the closed-form cutoff {CLOSED_FORM_CUTOFF}")
    if n_max > ORACLE_CUTOFF:
        raise ValueError(f"n-max={n_max} exceeds the evaluation cutoff {ORACLE_CUTOFF}")
    bad = 0

    def lines():
        nonlocal bad
        for r in range(1, r_max + 1):
            for n in range(1, n_max + 1):
                lower, upper = s_sums(r, n)
                closed_ok = upper == s_upper_closed(r, n)
                comp_ok = lower + upper == 1 << n
                bad += not (closed_ok and comp_ok)
                rec = record(r=r, n=n, closed_form_ok=closed_ok, complement_ok=comp_ok)
                closed, comp = ("ok" if ok else "FAIL" for ok in (closed_ok, comp_ok))
                yield _line(args.format, rec, f"(r={r}, n={n}) closed_form={closed} complement={comp}")

    def status() -> int:
        print(f"identity grid r<={r_max}, n<={n_max}: {bad} violations", file=sys.stderr)
        return EXIT_FOUND if bad else EXIT_OK

    return lines(), status


def _cmd_certify(args) -> _Output:
    r = _positive("r", args.r)
    n = _positive("n", args.n)
    counts, text = _classify_chunk((r, range(n, n + 1), args.format))
    return [text], lambda: EXIT_FOUND if counts["integral"] else EXIT_OK


def _classify_chunk(task: tuple[int, range, str]) -> tuple[Counter, str]:
    """Classify a chunk of n and format its records where it ran: returns
    the count of each classification and the chunk's lines in the format,
    newline-terminated (csv without the header, which the writer adds).
    classify runs once per n.  Consecutive n that share an outcome object,
    as a sylvester run does, format their common parts once (LINE_FORMATS)."""
    r, ns, fmt = task
    parts = LINE_FORMATS[fmt]
    counts: Counter = Counter()
    lines = []
    outcome = None
    for n in ns:
        if (new := classify(r, n)) is not outcome:
            outcome = new
            head, tail = parts(r, outcome)
            kind = classification_kind(outcome)
        counts[kind] += 1
        lines.append(f"{head}{n}{tail}")
    lines.append("")  # the last line's newline
    return counts, "\n".join(lines)


def _resuming(args) -> bool:
    """True when --out is a non-empty file, which only a jsonl scan may continue."""
    if args.out is None or not os.path.exists(args.out) or os.path.getsize(args.out) == 0:
        return False
    if (args.command, args.format) != ("scan", "jsonl"):
        raise ValueError(f"{args.out} is not empty; refusing to overwrite it (only a jsonl scan resumes a file)")
    return True


def _cmd_scan(args) -> _Output:
    r = _positive("r", args.r)
    n_start = _positive("n-start", args.n_start)
    n_end = args.n_end
    if n_end < n_start:
        raise ValueError(f"empty scan range [{n_start}, {n_end}]")
    _check_instance(r, n_end)
    threads = _positive("threads", _usable_cpus() if args.threads is None else args.threads)

    ns = range(n_start, n_end + 1)
    tasks = ((r, ns[i : i + _SCAN_CHUNK], args.format) for i in range(0, len(ns), _SCAN_CHUNK))
    counts: Counter = Counter()
    present = 0  # stored lines that are the records this scan writes
    t0 = time.perf_counter()

    def lines():
        """Each chunk's text less what a resumed file holds, whose k-th line
        must be the bytes of the record for n = n_start + k - 1, with no line
        after n_end's, or a torn final line that begins its record (it is cut
        off).  Every refusal comes before the first yield."""
        nonlocal present
        workers = min(threads, _usable_cpus(), -(-len(ns) // _SCAN_CHUNK))  # no more workers than CPUs or chunks
        with (
            open(args.out, "rb") if args.resuming else contextlib.nullcontext() as stored,
            multiprocessing.Pool(processes=workers) if workers > 1 else contextlib.nullcontext() as pool,
        ):
            for chunk_counts, text in pool.imap(_classify_chunk, tasks) if pool else map(_classify_chunk, tasks):
                counts.update(chunk_counts)
                if stored is not None:
                    data = text.encode()
                    held = stored.read(len(data))
                    if held == data:
                        present += chunk_counts.total()
                        continue
                    pos = 0  # walk to the first line that differs, which begins at data[pos]
                    while held[pos : (end := data.index(b"\n", pos) + 1)] == data[pos:end]:
                        pos, present = end, present + 1
                    line = held[pos:end]
                    if not data[pos:end].startswith(line):
                        raise ValueError(f"{args.out}:{present + 1}: not the record a scan of r={r} writes for "
                                         f"n={n_start + present}; refusing to resume this file")
                    if line:  # else the file ended on this line's boundary
                        print(f"binsum: {args.out}:{present + 1}: dropping a torn final line", file=sys.stderr)
                        os.truncate(args.out, stored.tell() - len(held) + pos)
                    stored, text = None, data[pos:].decode()
                yield text
            if stored is not None and stored.read(1):
                raise ValueError(f"{args.out}:{present + 1}: a line after the record for n={n_end}, the end of the "
                                 f"scan; refusing to resume this file")

    def status() -> int:
        elapsed = time.perf_counter() - t0
        skipped = f", {present} already present" if args.resuming else ""
        summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"scan r={r}, n in [{n_start}, {n_end}]: {summary}{skipped} ({elapsed:.2f}s)", file=sys.stderr)
        if counts["integral"]:
            print(f"INTEGRAL VALUE FOUND: {counts['integral']} instance(s)", file=sys.stderr)
            return EXIT_FOUND
        return EXIT_OK

    return lines(), status


def _cmd_lemma2(args) -> _Output:
    r = _positive("r", args.r)
    gcd_exp = _parse_exponent(args.gcd_exp)
    result = find_tuple(r, gcd_exp)
    (lo, hi), w = result.interval, result.witness
    witness = None
    if w is not None:
        check = verify_tuple(w, gcd_exp)
        witness = record(
            primes=w.primes, orders=w.orders, pair_gcds=w.pair_gcds, lcm_m=w.lcm_m,
            verified=check.conditions_ok, lcm_bound_ok=check.bound_ok,
        )
    rec = record(
        r=r, interval_lo=lo, interval_hi=hi, interval_primes=result.interval_primes,
        order_passed=result.order_passed, witness=witness,
    )
    found = "no witness" if w is None else f"witness {list(w.primes)}"
    human = (
        f"r={r}: interval [{lo}, {hi}] holds {result.interval_primes} primes "
        f"({result.order_passed} pass the order filter); {found}"
    )
    return [_line(args.format, rec, human)], lambda: EXIT_OK


def _cmd_census(args) -> _Output:
    t = _positive("t", args.t)
    count, primes = small_order_census(t)
    rec = record(t=t, count=count, primes=primes)
    listing = f": {primes}" if primes else ""
    return [_line(args.format, rec, f"census t={t}: {count} small-order primes{listing}")], lambda: EXIT_OK


def _cmd_msmooth(args) -> _Output:
    r = _positive("r", args.r)
    n_max = _positive("n-max", args.n_max)
    stats = m_of_r(r, n_max)
    rec = record(r=r, n_max=n_max, m_max=stats.m_max, argmax_n=stats.argmax_n, exceeds_log=stats.exceeds_log)
    side = "exceeds" if stats.exceeds_log else "within"
    human = f"M_{r}(n) over n<={n_max}: max {stats.m_max} at n={stats.argmax_n} ({side} log2(r))"
    return [_line(args.format, rec, human)], lambda: EXIT_OK


def _cmd_gaps(args) -> _Output:
    n = _positive("n", args.n)
    probe = gap_probe(n)
    names = {-1: "lt", 0: "eq", 1: "gt"}
    vs20, vs11 = names[probe.gap20_vs_n], names[probe.gap11_vs_n]
    rec = record(n=n, next_prime=probe.next_prime, gap=probe.gap, gap20_vs_n=vs20, gap11_vs_n=vs11)
    human = f"next prime after {n} is {probe.next_prime} (gap {probe.gap}; gap**20 {vs20} n, gap**11 {vs11} n)"
    return [_line(args.format, rec, human)], lambda: EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Handlers check their arguments before --out is opened: a rejected call leaves files alone.
        args.resuming = _resuming(args)  # refuses a non-empty --out unless a jsonl scan resumes it
        lines, status = args.handler(args)
        if args.out is None:
            target = contextlib.nullcontext(sys.stdout)
        else:  # a new or empty file, or a scan file whose stored lines lines() checks before any write
            target = open(args.out, "a", encoding="utf-8", newline="")
        with target as stream:
            writer = _Writer(stream, args.format)
            for text in lines:
                writer.write(text)
        return status()
    except (OSError, ValueError) as exc:
        print(f"binsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
