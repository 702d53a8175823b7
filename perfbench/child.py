"""One benchmark process: runs binsum CLI commands through binsum.cli.main.

Usage: child.py SPEC_JSON

SPEC_JSON holds
  commands  list of argv lists, run in order, each through binsum.cli.main
  result    path of the json file this process writes on exit
  trace     "off", "full" (every layer) or "pool" (the wait for pool results)
  spans     path prefix for the span dump when trace is not "off"
  probe     optional [module, attribute, path]: at the first call of that
            function, append the clock reading to path and wait to be
            killed (set-up probes)

The harness spawns this script fresh for every measured pass, so each pass
pays interpreter start, imports and cold caches as a user's CLI run would;
the scan sub-windows of one pass then share the process, as the chunks of
one long scan do.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time


def _install_probe(module: str, attr: str, path: str) -> None:
    """Replace the function with one that records when it is first reached,
    in this process or in a forked pool worker, and then waits: the
    harness kills the whole process group once it has read the time."""

    def first_call(*args, **kwargs):
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{time.monotonic()!r}\n".encode())
        finally:
            os.close(fd)
        time.sleep(600)

    setattr(importlib.import_module(module), attr, first_call)


def peak_rss_mb() -> float:
    """High-water resident set of this process since exec (VmHWM).  Unlike
    ru_maxrss it leaves out the harness pages the fork copied."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    spec = json.loads(sys.argv[1])
    import binsum.cli

    tracer = None
    if spec.get("trace", "off") != "off":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        layers = tracer_mod.FULL_LAYERS if spec["trace"] == "full" else tracer_mod.POOL_LAYERS
        tracer.install(layers)
    if spec.get("probe"):
        _install_probe(*spec["probe"])

    out: dict = {"commands": []}
    for argv in spec["commands"]:
        t0 = time.monotonic()
        rc = binsum.cli.main(argv)
        t1 = time.monotonic()
        out["commands"].append({"rc": rc, "start": t0, "end": t1})
    if tracer is not None:
        tracer.restore()
        tracer.dump(spec["spans"])
    out["peak_rss_mb"] = peak_rss_mb()
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
