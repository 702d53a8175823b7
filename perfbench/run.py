"""binsum benchmark: scan throughput per band, experiments wall time, and a
per-layer traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn

Workloads (the seed picks each window's offset inside its band; the band
and r are fixed):

  scan-sieve   binsum scan --r 7 on a window at n = 10**12 + offset
  scan-u64     binsum scan --r 7 on a window at n = 2**62 + offset
  scan-small   binsum scan --r 23 on 10**5 instances at n = 1 + offset
  experiments  binsum census --t 10**6 + offset, then
               binsum identity --r-max 10 --n-max 400

Every pass is a fresh process (perfbench/child.py) that calls
binsum.cli.main; the harness hands the program nothing but the generated
arguments.  Load is a closed loop: one driver, one pass at a time, with
either 1 worker or nproc workers (the scan pool, or for experiments the
census and identity commands run side by side).

--trace 0 first times set-up (spawn to the first classify or census call,
median of several probes), then alternates passes at 1 worker and at nproc
workers for about --seconds.  A scan pass runs its window as consecutive
sub-windows, one binsum.cli.main call each.  Every pass covers the whole
input, so each gives one sample of the rate (items over the time inside
binsum.cli.main) and of the wall time; the end-to-end metrics are medians
over the passes of the run.  --trace 1 runs one untraced and one traced
pass per worker count and reports the per-layer metrics.
Either way the correctness gate (gate.py) runs afterwards, outside the
timed phase; if it fails, the run prints no metrics and exits 1.

The last stdout line is one json object {correct, attempted, failed,
metrics}.  Before it come the provenance block (one json line: nproc,
Python, git commit, seed, inputs, sample counts, tracing overhead, record
digest) and a table of the metrics by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60
SETUP_PROBES = 15


@dataclass(frozen=True)
class ScanWorkload:
    name: str
    r: int
    band: int         # first n of the band
    offset_span: int  # the seed picks an offset in [0, offset_span)
    width: int        # instances per pass
    sub: int          # instances per scan command; each command is one sample

    def window(self, seed: int) -> tuple[int, int]:
        lo = self.band + random.Random(f"{self.name}:{seed}").randrange(self.offset_span)
        return lo, lo + self.width - 1


@dataclass(frozen=True)
class ExperimentsWorkload:
    name: str
    census_t: int
    offset_span: int
    r_max: int
    n_max: int

    def census_bound(self, seed: int) -> int:
        return self.census_t + random.Random(f"{self.name}:{seed}").randrange(self.offset_span)


WORKLOADS = {
    w.name: w
    for w in (
        ScanWorkload("scan-sieve", r=7, band=10**12, offset_span=10**6, width=32, sub=8),
        ScanWorkload("scan-u64", r=7, band=1 << 62, offset_span=1 << 40, width=4096, sub=2048),
        ScanWorkload("scan-small", r=23, band=1, offset_span=1 << 12, width=10**5, sub=10**4),
        ExperimentsWorkload("experiments", census_t=10**6, offset_span=1 << 14, r_max=10, n_max=400),
    )
}

END_TO_END = {
    "instances_per_s": "1/s",
    "instances_per_s_par": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

STAGES = ("sylvester", "order", "smooth", "oracle")

PER_LAYER = {
    "ntheory.primes_in.calls": "count",
    "ntheory.primes_in.self_s": "s",
    "ntheory.primes_in.sieve_ops": "count",
    "ntheory.is_prime.calls": "count",
    "ntheory.is_prime.self_s": "s",
    "ntheory.rho.calls": "count",
    "ntheory.rho.self_s": "s",
    "ntheory.factorize.calls": "count",
    "ntheory.factorize.self_s": "s",
    "ntheory.factorize.cache_hit_ratio": "ratio",
    "ntheory.order2.calls": "count",
    "ntheory.order2.self_s": "s",
    "ntheory.order2.cache_hit_ratio": "ratio",
    "ntheory.primes_upto.self_s": "s",
    "certify.classify.calls": "count",
    "certify.classify.self_s": "s",
    "certify.classify.p50_us": "us",
    "certify.classify.p99_us": "us",
    **{f"certify.{s}.{m}": u for s in STAGES for m, u in (("calls", "count"), ("decided", "count"), ("self_s", "s"))},
    "certify.undecided": "count",
    "certify.s_lower.self_s": "s",
    "certify.s_upper.self_s": "s",
    "certify.closed_form.self_s": "s",
    "exact.power_compare.calls": "count",
    "exact.power_compare.self_s": "s",
    "certify.verify.self_s": "s",
    "experiments.small_order_census.self_s": "s",
    "experiments.scan_density.instances_per_s": "1/s",
    "records.serialize.calls": "count",
    "records.serialize.self_s": "s",
    "records.bytes": "B",
    "cli.chunks": "count",
    "cli.write_s": "s",
    "cli.pool_wait_s": "s",
    "cli.parallel_efficiency": "ratio",
}

# derived from arguments or from other metrics, not timed directly
COMPUTED = ("ntheory.primes_in.sieve_ops", "cli.parallel_efficiency")


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong program output)."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def load_digests() -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as handle:
        return json.load(handle)


class Runner:
    """Spawns child processes into one scratch directory in the checkout,
    and kills and reaps every one it started (kill_all on the way out)."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.serial = 0
        self.live: list[subprocess.Popen] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        )

    def path(self, stem: str) -> str:
        """A new file name; an existing --out file would make binsum resume."""
        self.serial += 1
        path = self.work / f"{self.serial:04d}-{stem}"
        if path.exists():
            raise BenchError(f"{path} already exists")
        return str(path)

    def start(self, commands: list[list[str]], trace: str = "off", probe=None):
        result = self.path("result.json")
        spec = {"commands": commands, "result": result, "trace": trace, "spans": result[:-5] + "-spans", "probe": probe}
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=self.env, cwd=str(ROOT), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,  # its own process group, pool workers included
        )
        self.live.append(proc)
        return proc, spec, t_spawn

    def kill(self, proc: subprocess.Popen) -> None:
        """Kill the child's process group and reap the child."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stderr.close()
        self.live.remove(proc)

    def kill_all(self) -> None:
        for proc in list(self.live):
            self.kill(proc)

    def finish(self, started) -> dict:
        proc, spec, t_spawn = started
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill(proc)
            raise BenchError(f"pass {spec['commands']} exceeded {CHILD_TIMEOUT_S}s")
        wall = time.monotonic() - t_spawn
        if proc.returncode != 0:
            self.kill(proc)  # a crashed child may leave pool workers behind
            raise BenchError(f"pass {spec['commands']} exited {proc.returncode}: {err.decode()[-2000:]}")
        self.live.remove(proc)
        with open(spec["result"], encoding="utf-8") as handle:
            out = json.load(handle)
        for cmd, argv in zip(out["commands"], spec["commands"]):
            if cmd["rc"] != 0:
                raise BenchError(f"binsum {' '.join(argv)} exited {cmd['rc']}: {err.decode()[-2000:]}")
        out.update(wall_s=wall, t_spawn=t_spawn, spans=spec["spans"])
        return out

    def run(self, commands, trace="off") -> dict:
        return self.finish(self.start(commands, trace))

    def probe(self, commands: list[list[str]], hook: list[str]) -> float:
        """Seconds from spawn to the first call of hook = [module, attr].
        The child appends its clock reading to a file and waits; once the
        reading is there, the child's whole process group is killed."""
        stamp = self.path("first-call")
        proc, spec, t_spawn = self.start(commands, probe=[*hook, stamp])
        text = ""
        try:
            while not text.endswith("\n"):
                if proc.poll() is not None:
                    raise BenchError(f"set-up probe {spec['commands']} exited before its first call")
                if time.monotonic() - t_spawn > PROBE_TIMEOUT_S:
                    raise BenchError(f"set-up probe {spec['commands']} exceeded {PROBE_TIMEOUT_S}s")
                time.sleep(0.005)
                try:
                    with open(stamp, encoding="utf-8") as handle:
                        text = handle.read()
                except FileNotFoundError:
                    pass
        finally:
            self.kill(proc)
        return min(float(x) for x in text.split()) - t_spawn


class Pass:
    """One measured pass over the whole input: its output streams, the
    time inside binsum.cli.main, wall time from spawn to exit, and the peak
    resident memory of its own processes (pool workers not included)."""

    def __init__(self, workers: int, outputs: list[list[str]], children: list[dict]) -> None:
        self.workers = workers
        self.outputs = outputs
        self.children = children
        commands = [c for ch in children for c in ch["commands"]]
        if len(children) == 1:  # time inside main() only
            self.main_s = sum(c["end"] - c["start"] for c in commands)
        else:  # side-by-side processes: first start to last end
            self.main_s = max(c["end"] for c in commands) - min(c["start"] for c in commands)
        self.wall_s = max(ch["wall_s"] + ch["t_spawn"] for ch in children) - min(ch["t_spawn"] for ch in children)
        self.peak_rss_mb = max(ch["peak_rss_mb"] for ch in children)


class ScanBench:
    def __init__(self, workload: ScanWorkload, seed: int, runner: Runner, workers: int) -> None:
        self.w = workload
        self.seed = seed
        self.lo, self.hi = workload.window(seed)
        self.runner = runner
        self.workers = workers

    def argv(self, lo: int, hi: int, threads: int, out: str) -> list[str]:
        return ["scan", "--r", str(self.w.r), "--n-start", str(lo), "--n-end", str(hi),
                "--threads", str(threads), "--out", out]

    @property
    def digest_key(self) -> str:
        return f"scan --r {self.w.r} --n-start {self.lo} --n-end {self.hi}"

    @property
    def inputs(self) -> dict:
        return {"r": self.w.r, "n_start": self.lo, "n_end": self.hi, "instances": self.item_count()}

    def item_count(self) -> int:
        return self.hi - self.lo + 1

    def run_pass(self, workers: int, trace: str = "off") -> Pass:
        """One process scans the window as consecutive sub-windows, one
        binsum.cli.main call each."""
        bounds = [(lo, min(lo + self.w.sub, self.hi + 1) - 1) for lo in range(self.lo, self.hi + 1, self.w.sub)]
        outs = [self.runner.path("scan.jsonl") for _ in bounds]
        child = self.runner.run([self.argv(lo, hi, workers, out) for (lo, hi), out in zip(bounds, outs)], trace)
        return Pass(workers, [outs], [child])

    def probe(self) -> float:
        """Spawn to first classify call, with a window of two chunks so the
        worker pool starts when nproc > 1."""
        import binsum.cli

        chunk = getattr(binsum.cli, "_SCAN_CHUNK", 512)
        out = self.runner.path("probe.jsonl")
        return self.runner.probe([self.argv(self.lo, self.lo + 2 * chunk - 1, self.workers, out)], ["binsum.cli", "classify"])

    def gate(self, passes: list[Pass], recorded: dict) -> dict:
        import gate

        streams = [p.outputs[0] for p in passes]
        scan = gate.check_scan(streams[0], self.w.r, self.lo, self.hi)
        failures = scan.failures + gate.check_identical(streams)
        sha = gate.digest(streams[0])
        failures += gate.check_digest(self.digest_key, sha, recorded["digests"], self.seed == recorded["default_seed"])
        density_failures, density_s = gate.check_density(self.w.r, self.lo, self.hi, scan)
        return {
            "failures": failures + density_failures,
            "failed_per_pass": scan.undecided,
            "sha256": sha,
            "verify_s": scan.verify_s,
            "density_rate": self.item_count() / density_s,
        }


class ExperimentsBench:
    def __init__(self, workload: ExperimentsWorkload, seed: int, runner: Runner, workers: int) -> None:
        self.w = workload
        self.seed = seed
        self.t = workload.census_bound(seed)
        self.runner = runner
        self.workers = workers
        self.items = None

    def commands(self) -> tuple[list[str], list[str], list[list[str]]]:
        census_out, identity_out = self.runner.path("census.jsonl"), self.runner.path("identity.jsonl")
        return (
            ["census", "--t", str(self.t), "--out", census_out],
            ["identity", "--r-max", str(self.w.r_max), "--n-max", str(self.w.n_max), "--out", identity_out],
            [[census_out], [identity_out]],
        )

    @property
    def digest_key(self) -> str:
        return f"census --t {self.t}; identity --r-max {self.w.r_max} --n-max {self.w.n_max}"

    @property
    def inputs(self) -> dict:
        return {"census_t": self.t, "r_max": self.w.r_max, "n_max": self.w.n_max}

    def item_count(self) -> int:
        """Odd primes the census examines plus identity grid points."""
        if self.items is None:
            import gate

            self.items = len(gate.plain_primes(self.t)) - 1 + self.w.r_max * self.w.n_max
        return self.items

    def run_pass(self, workers: int, trace: str = "off") -> Pass:
        census, identity, outputs = self.commands()
        if workers > 1:
            started = [self.runner.start([census], trace), self.runner.start([identity], trace)]
            children = [self.runner.finish(s) for s in started]
        else:
            children = [self.runner.run([census, identity], trace)]
        return Pass(workers, outputs, children)

    def probe(self) -> float:
        census, _, _ = self.commands()
        return self.runner.probe([census], ["binsum.cli", "small_order_census"])

    def gate(self, passes: list[Pass], recorded: dict) -> dict:
        import gate

        (census_out,), (identity_out,) = passes[0].outputs
        failures = gate.check_census(census_out, self.t)
        identity_failures, violations = gate.check_identity(identity_out, self.w.r_max, self.w.n_max)
        failures += identity_failures
        for k in range(2):
            failures += gate.check_identical([p.outputs[k] for p in passes])
        sha = gate.digest([census_out, identity_out])
        failures += gate.check_digest(self.digest_key, sha, recorded["digests"], self.seed == recorded["default_seed"])
        return {"failures": failures, "failed_per_pass": violations, "sha256": sha, "verify_s": 0.0, "density_rate": 0.0}


def make_bench(workload, seed: int, runner: Runner, workers: int):
    cls = ScanBench if isinstance(workload, ScanWorkload) else ExperimentsBench
    return cls(workload, seed, runner, workers)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_phase(bench, deadline: float) -> list[Pass]:
    """Alternate passes at 1 worker and at nproc workers (the set-up
    probes before have warmed the file caches).  A new pair starts only if
    it is expected to end by `deadline`, judged by the previous pair, so a
    run lasts about as long as asked whatever the pass length."""
    passes: list[Pass] = []
    while True:
        t_pair = time.monotonic()
        passes += [bench.run_pass(1), bench.run_pass(bench.workers)]
        now = time.monotonic()
        if now + (now - t_pair) > deadline:
            return passes


def setup_times(bench) -> list[float]:
    bench.probe()  # warm-up (file and bytecode caches), not counted
    return [bench.probe() for _ in range(SETUP_PROBES)]


def end_to_end_metrics(bench, seconds: float) -> tuple[dict, list[Pass], dict]:
    """Medians over the set-up probes and over the passes of each kind.
    Every pass covers the whole input, so its rate does not depend on
    where in the window the cost lies (it grows with n).  The set-up
    probes count towards `seconds`."""
    deadline = time.monotonic() + seconds
    setup = setup_times(bench)
    passes = timed_phase(bench, deadline)
    single = [p for p in passes if p.workers == 1]
    multi = [p for p in passes if p.workers != 1] or single
    items = bench.item_count()
    metrics = {
        "instances_per_s": median([items / p.main_s for p in single]),
        "instances_per_s_par": median([items / p.main_s for p in multi]),
        "wall_s": median([p.wall_s for p in single]),
        "setup_s": median(setup),
        "peak_rss_mb": median([p.peak_rss_mb for p in single]),
    }
    samples = {
        "instances_per_s": len(single),
        "instances_per_s_par": len(multi),
        "wall_s": len(single),
        "setup_s": len(setup),
        "peak_rss_mb": len(single),
    }
    return metrics, passes, samples


def per_layer_metrics(bench) -> tuple[dict, list[Pass], dict, dict]:
    import tracer

    workers = bench.workers
    plain1 = bench.run_pass(1)
    plainn = bench.run_pass(workers)
    traced1 = bench.run_pass(1, trace="full")
    tracedn = bench.run_pass(workers, trace="pool")
    full = tracer.Layers(traced1.children[0]["spans"])
    pool = [tracer.Layers(ch["spans"]) for ch in tracedn.children]
    gate_info = bench.gate([plain1, plainn, traced1, tracedn], load_digests())

    m: dict[str, float] = {}
    for name in ("primes_in", "is_prime", "rho", "factorize", "order2"):
        m[f"ntheory.{name}.calls"] = full.calls[f"ntheory.{name}"]
        m[f"ntheory.{name}.self_s"] = full.self_s[f"ntheory.{name}"]
    m["ntheory.primes_in.sieve_ops"] = full.sieve_ops()
    m["ntheory.factorize.cache_hit_ratio"] = full.hit_ratio("ntheory.factorize")
    m["ntheory.order2.cache_hit_ratio"] = full.hit_ratio("ntheory.order2")
    m["ntheory.primes_upto.self_s"] = full.self_s["ntheory.primes_upto"]
    durations = full.classify_durations
    m["certify.classify.calls"] = full.calls["certify.classify"]
    m["certify.classify.self_s"] = full.self_s["certify.classify"]
    m["certify.classify.p50_us"] = tracer.percentile(durations, 50) * 1e6
    m["certify.classify.p99_us"] = tracer.percentile(durations, 99) * 1e6
    for stage in STAGES:
        m[f"certify.{stage}.calls"] = full.calls[f"certify.{stage}"]
        m[f"certify.{stage}.decided"] = full.counts[f"certify.{stage}.decided"]
        m[f"certify.{stage}.self_s"] = full.self_s[f"certify.{stage}"]
    m["certify.undecided"] = full.counts["certify.undecided"]
    m["certify.s_lower.self_s"] = full.self_s["certify.s_lower"]
    m["certify.s_upper.self_s"] = full.self_s["certify.s_upper"]
    m["certify.closed_form.self_s"] = full.self_s["certify.closed_form"]
    m["exact.power_compare.calls"] = full.calls["exact.power_compare"]
    m["exact.power_compare.self_s"] = full.self_s["exact.power_compare"]
    m["certify.verify.self_s"] = gate_info["verify_s"]
    m["experiments.small_order_census.self_s"] = full.self_s["experiments.small_order_census"]
    m["experiments.scan_density.instances_per_s"] = gate_info["density_rate"]
    m["records.serialize.calls"] = full.calls["records.serialize"]
    m["records.serialize.self_s"] = full.self_s["records.serialize"]
    m["records.bytes"] = full.counts["records.bytes"]
    m["cli.chunks"] = full.calls["cli.chunk"]
    m["cli.write_s"] = full.self_s["cli.write"]
    m["cli.pool_wait_s"] = sum(layers.self_s["cli.pool_wait"] for layers in pool)
    m["cli.parallel_efficiency"] = plain1.main_s / (workers * plainn.main_s)

    decided = sum(m[f"certify.{s}.decided"] for s in STAGES) + m["certify.undecided"]
    if decided != m["certify.classify.calls"]:
        gate_info["failures"].append(
            f"stage decisions + undecided = {decided} != classify calls {m['certify.classify.calls']}"
        )
    extra = {
        "trace_overhead_s": traced1.main_s - plain1.main_s,
        "trace_overhead_frac": traced1.main_s / plain1.main_s - 1,
        "spans": full.meta["spans"],
        "unpatched": full.missing,
        "cache": full.cache,
        "classify_samples": len(durations),
    }
    samples = {name: 1 for name in PER_LAYER}
    samples["certify.classify.p50_us"] = samples["certify.classify.p99_us"] = len(durations)
    return m, [plain1, plainn, traced1, tracedn], gate_info, {"samples": samples, **extra}


def run_one(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    workers = nproc()
    work.mkdir(parents=True)
    runner = Runner(work)
    try:
        return measure(make_bench(workload, seed, runner, workers), seconds, trace)
    finally:
        runner.kill_all()


def measure(bench, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set-up probes, passes and the correctness gate for one workload;
    returns the result object and the provenance block."""
    workload, workers = bench.w, bench.workers
    provenance = {
        "workload": workload.name,
        "seed": bench.seed,
        "inputs": bench.inputs,
        "nproc": workers,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "trace": int(trace),
    }
    if trace:
        metrics, passes, gate_info, extra = per_layer_metrics(bench)
        units = PER_LAYER
        provenance.update(extra)
        provenance["computed"] = list(COMPUTED)
    else:
        t0 = time.monotonic()
        metrics, passes, samples = end_to_end_metrics(bench, seconds)
        t1 = time.monotonic()
        gate_info = bench.gate(passes, load_digests())
        provenance["phase_s"] = {"measure": t1 - t0, "gate": time.monotonic() - t1}
        units = END_TO_END
        provenance["samples"] = samples
    provenance["passes"] = [{"workers": p.workers, "main_s": p.main_s, "wall_s": p.wall_s} for p in passes]
    provenance["sha256"] = gate_info["sha256"]
    provenance["digest_key"] = bench.digest_key
    if workers > 1 and isinstance(workload, ScanWorkload):
        import binsum.cli

        chunk = getattr(binsum.cli, "_SCAN_CHUNK", 512)
        if workload.sub <= chunk:
            provenance["note"] = f"each scan command fits in one {chunk}-instance chunk: the pool never starts"
    failures = gate_info["failures"]
    result = {
        "correct": not failures,
        "attempted": bench.item_count() * len(passes),
        "failed": gate_info["failed_per_pass"] * len(passes),
        "metrics": {} if failures else {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    provenance["failures"] = failures[:20]
    return result, provenance


def remove_work_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass


def check_checkout() -> None:
    """The program must come from this checkout's src/, nowhere else."""
    if not (SRC / "binsum" / "cli.py").is_file():
        raise BenchError(f"no binsum sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import binsum

    if Path(binsum.__file__).resolve().parent != SRC / "binsum":
        raise BenchError(f"binsum imported from {binsum.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="default: the seed with recorded digests")
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # let finally blocks stop the children and remove the work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        check_checkout()
        seed = load_digests()["default_seed"] if args.seed is None else args.seed
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        (ROOT / ".perfbench_work").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
        results = {}
        try:
            for name in names:
                result, provenance = run_one(WORKLOADS[name], seed, args.seconds, bool(args.trace), work / name)
                results[name] = result
                print(json.dumps({"provenance": provenance}, sort_keys=True))
                for metric, value in result["metrics"].items():
                    print(f"{name:12s} {metric:44s} {value['value']:>16.6g} {value['unit']}")
                for failure in provenance["failures"]:
                    print(f"{name:12s} FAILED {failure}")
        finally:
            remove_work_dir(work)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
