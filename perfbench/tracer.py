"""In-memory span tracer for the binsum benchmark.

Spans are recorded by wrappers that this module installs around the
package's functions, at the place where each caller looks the name up
(``binsum.ntheory.primes_in`` for ``iter_primes``, ``binsum.cli.classify``
for the scan chunks, and so on).  The program itself is not modified.

Spans stay in four flat arrays while the traced process runs and are
written once, by ``Tracer.dump``, when it ends.  ``Layers`` reads them
back in the harness and computes per-layer calls, self time (a span minus
the time covered by its child spans) and the counters the wrappers kept.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from array import array
from bisect import bisect_right
from collections import Counter

from gate import plain_primes

# (module, attribute path, span name): every place a layer is looked up.
FULL_LAYERS = (
    ("binsum.ntheory", "primes_in", "ntheory.primes_in"),
    ("binsum.experiments", "primes_in", "ntheory.primes_in"),
    ("binsum.ntheory", "is_prime", "ntheory.is_prime"),
    ("binsum.certify", "is_prime", "ntheory.is_prime"),
    ("binsum.experiments", "is_prime", "ntheory.is_prime"),
    ("binsum.exact", "is_prime", "ntheory.is_prime"),
    ("binsum.ntheory", "_rho_factor", "ntheory.rho"),
    ("binsum.ntheory", "_factorize", "ntheory.factorize"),
    ("binsum.certify", "_factorize", "ntheory.factorize"),
    ("binsum.ntheory", "order2", "ntheory.order2"),
    ("binsum.certify", "order2", "ntheory.order2"),
    ("binsum.experiments", "order2", "ntheory.order2"),
    ("binsum.ntheory", "primes_upto", "ntheory.primes_upto"),
    ("binsum.cli", "classify", "certify.classify"),
    ("binsum.experiments", "classify", "certify.classify"),
    ("binsum.certify", "sylvester_certificate", "certify.sylvester"),
    ("binsum.certify", "order_certificate", "certify.order"),
    ("binsum.certify", "smooth_certificate", "certify.smooth"),
    ("binsum.certify", "s_lower", "certify.s_lower"),
    ("binsum.cli", "s_lower", "certify.s_lower"),
    ("binsum.certify", "s_upper", "certify.s_upper"),
    ("binsum.cli", "s_upper", "certify.s_upper"),
    ("binsum.cli", "s_upper_closed", "certify.closed_form"),
    ("binsum.experiments", "power_compare", "exact.power_compare"),
    ("binsum.cli", "small_order_census", "experiments.small_order_census"),
    ("binsum.cli", "to_json_line", "records.serialize"),
    ("binsum.cli", "_classify_chunk", "cli.chunk"),
    ("binsum.cli", "_Writer.write", "cli.write"),
)

# For runs with a worker pool: only the parent's wait for each chunk
# result; the workers' own work stays untraced.
POOL_LAYERS = (("multiprocessing.pool", "Pool.imap", "cli.pool_wait"),)

# lru_cache'd layers whose hit ratio is read from cache_info() deltas.
CACHED = (("binsum.ntheory", "_factorize", "ntheory.factorize"), ("binsum.ntheory", "order2", "ntheory.order2"))

# primes_in sieves a window only when isqrt(b) is at most this; above it
# each candidate gets a primality test instead.
DENSE_ROOT_LIMIT_DEFAULT = 1 << 22


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans (name, parent, start, end) and counters in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.roots: Counter = Counter()
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.cache_before: dict[str, tuple[int, int]] = {}
        self.dense_root_limit = DENSE_ROOT_LIMIT_DEFAULT

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; after(args, result) runs on return."""
        nid = self._name_id(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def timed_iter(self, name: str, iterator):
        """Yield from iterator, recording each wait for the next item as a
        span that ends before the item is handed on."""
        nid = self._name_id(name)
        clock = time.perf_counter
        iterator = iter(iterator)
        while True:
            i = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.start.append(clock())
            try:
                item = next(iterator)
            except StopIteration:
                self.end[i] = clock()
                return
            self.end[i] = clock()
            yield item

    def _after_hook(self, name: str):
        counts = self.counts
        if name in ("certify.sylvester", "certify.order", "certify.smooth"):
            key = name + ".decided"

            def decided(args, result):
                if result is not None:
                    counts[key] += 1

            return decided
        if name == "certify.classify":

            def undecided(args, result):
                if result.kind == "undecided":
                    counts["certify.undecided"] += 1

            return undecided
        if name == "records.serialize":

            def nbytes(args, result):
                counts["records.bytes"] += len(result) + 1

            return nbytes
        if name == "ntheory.primes_in":
            roots, limit = self.roots, self.dense_root_limit

            def sieved(args, result):
                b = args[1]
                root = math.isqrt(b)
                if b >= 2 and root <= limit:
                    roots[root] += 1

            return sieved
        return None

    def install(self, layers) -> None:
        ntheory = importlib.import_module("binsum.ntheory")
        self.dense_root_limit = getattr(ntheory, "_DENSE_ROOT_LIMIT", DENSE_ROOT_LIMIT_DEFAULT)
        for module, path, name in CACHED:
            fn = getattr(importlib.import_module(module), path, None)
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                self.cache_before[name] = (info.hits, info.misses)
        for module, path, name in layers:
            try:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            if name == "cli.pool_wait":
                tracer = self

                def imap(pool, *args, _original=original, **kwargs):
                    return tracer.timed_iter("cli.pool_wait", _original(pool, *args, **kwargs))

                replacement = imap
            else:
                replacement = self.wrap(name, original, self._after_hook(name))
            setattr(owner, attr, replacement)
            self.patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def dump(self, path: str) -> None:
        """Write the spans (binary arrays) and counters (json) to path.*"""
        cache = {}
        for module, attr, name in CACHED:
            fn = getattr(importlib.import_module(module), attr, None)
            if name in self.cache_before and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                hits0, misses0 = self.cache_before[name]
                cache[name] = {"hits": info.hits - hits0, "misses": info.misses - misses0}
        meta = {
            "names": self.names,
            "spans": len(self.start),
            "counts": dict(self.counts),
            "sieved_roots": {str(k): v for k, v in self.roots.items()},
            "cache": cache,
            "missing": self.missing,
        }
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        with open(path + ".bin", "wb") as handle:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(handle)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


class Layers:
    """Per-name aggregates of one dumped trace."""

    def __init__(self, path: str) -> None:
        with open(path + ".json", encoding="utf-8") as handle:
            self.meta = json.load(handle)
        count = self.meta["spans"]
        arrays = [array("H"), array("i"), array("d"), array("d")]
        with open(path + ".bin", "rb") as handle:
            for arr in arrays:
                arr.fromfile(handle, count)
        name_of, parent, start, end = arrays
        names = self.meta["names"]
        child = [0.0] * count
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.classify_durations: list[float] = []
        classify_id = names.index("certify.classify") if "certify.classify" in names else -1
        s_lower_id = names.index("certify.s_lower") if "certify.s_lower" in names else -2
        for i in range(count):
            name = names[name_of[i]]
            dur = end[i] - start[i]
            self.calls[name] += 1
            self.self_s[name] += dur - child[i]
            if name_of[i] == classify_id:
                self.classify_durations.append(dur)
            # the oracle stage is s_lower called from inside classify
            if name_of[i] == s_lower_id and parent[i] >= 0 and name_of[parent[i]] == classify_id:
                self.calls["certify.oracle"] += 1
                self.self_s["certify.oracle"] += dur - child[i]
        self.counts = Counter(self.meta["counts"])
        self.counts["certify.oracle.decided"] = self.calls["certify.oracle"]
        self.cache = self.meta["cache"]
        self.missing = self.meta["missing"]

    def sieve_ops(self) -> int:
        """Computed sum of pi(isqrt(b)) over sieved primes_in calls."""
        roots = {int(k): v for k, v in self.meta["sieved_roots"].items()}
        if not roots:
            return 0
        primes = plain_primes(max(roots))
        return sum(bisect_right(primes, root) * n for root, n in roots.items())

    def hit_ratio(self, name: str) -> float:
        info = self.cache.get(name, {"hits": 0, "misses": 0})
        total = info["hits"] + info["misses"]
        return info["hits"] / total if total else 0.0
