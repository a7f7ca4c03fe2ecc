"""Result-cache wall-clock benchmark: warm-cache repeat vs a cold run.

Three end-to-end CLI invocations of one paper experiment, each a fresh
subprocess so interpreter start-up and import cost are charged to every
leg identically:

- **cold** — ``python -m repro.bench fig5`` with no cache, the baseline;
- **cache-cold** — the same experiment with ``--cache PATH`` on an empty
  cache: every cell runs and is appended, so this leg prices the cache
  lookups and appends;
- **cache-warm** — the same command again: every cell is answered from
  the cache and none runs.

The payload gates (always on): the three CSVs are byte-identical and the
warm leg ran zero cells with every cell a cache hit — a cache that
answered fast but wrong must fail the benchmark, not pass it.
``--check-speedup`` also requires the warm leg to be at least
``--min-speedup`` (default 10) times faster than the cold one.

Standalone (how ``BENCH_cache.json`` is recorded)::

    python benchmarks/bench_cache.py --scale full \
        --output BENCH_cache.json --check-speedup
    python benchmarks/bench_cache.py --scale smoke   # quick look
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
EXPERIMENT = ["fig5", "--machine", "dancer", "--csv", "--verbose"]
CSV_NAME = "fig5_dancer.csv"
LEGS = ("cold", "cache_cold", "cache_warm")


def _run_leg(results_dir: str, scale: str, jobs: int,
             cache: str | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_RESULTS_DIR"] = results_dir
    cmd = [sys.executable, "-m", "repro.bench", *EXPERIMENT,
           "--scale", scale, "--jobs", str(jobs)]
    if cache:
        cmd += ["--cache", cache]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, env=env, check=True, capture_output=True,
                         text=True).stdout
    seconds = time.perf_counter() - t0
    hits = re.search(r"cache: (\d+) hit", out)
    return {
        "seconds": round(seconds, 3),
        "cells_run": int(re.search(r"cells: (\d+) run", out).group(1)),
        "cache_hits": int(hits.group(1)) if hits else 0,
        "csv": open(os.path.join(results_dir, CSV_NAME), "rb").read(),
    }


def measure(scale: str, jobs: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = os.path.join(tmp, "cache.json")
        legs = {}
        for leg in LEGS:
            results_dir = os.path.join(tmp, leg)
            os.makedirs(results_dir)
            legs[leg] = _run_leg(results_dir, scale, jobs,
                                 None if leg == "cold" else cache)
    blobs = {leg["csv"] for leg in legs.values()}
    for leg in legs.values():
        del leg["csv"]
    return {
        "scale": scale,
        "jobs": jobs,
        "cells": legs["cold"]["cells_run"],
        "legs": legs,
        "speedup_warm_vs_cold": round(
            legs["cold"]["seconds"] / legs["cache_warm"]["seconds"], 2),
        "byte_identical": len(blobs) == 1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("full", "bench", "smoke"),
                        default="full",
                        help="experiment scale (default: full — the "
                             "committed number; smoke for a quick look)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="--jobs of every leg (default 1)")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="write the measurement payload as JSON")
    parser.add_argument("--check-speedup", action="store_true",
                        help="fail unless the warm repeat beats the cold "
                             "run by --min-speedup")
    parser.add_argument("--min-speedup", type=float, default=10.0)
    args = parser.parse_args(argv)

    payload = {
        "version": 1,
        "host": f"{platform.system()} {platform.machine()}, "
                f"{os.cpu_count()} cpu(s)",
        "python": sys.version.split()[0],
        **measure(args.scale, args.jobs),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")

    warm = payload["legs"]["cache_warm"]
    if not payload["byte_identical"]:
        print("FAIL: cached CSVs diverge from the cold run", file=sys.stderr)
        return 1
    if warm["cells_run"] != 0 or warm["cache_hits"] != payload["cells"]:
        print(f"FAIL: the warm repeat ran {warm['cells_run']} cell(s) and "
              f"hit {warm['cache_hits']}/{payload['cells']}",
              file=sys.stderr)
        return 1
    if args.check_speedup:
        got = payload["speedup_warm_vs_cold"]
        if got < args.min_speedup:
            print(f"FAIL: warm-cache speedup {got}x < "
                  f"{args.min_speedup}x", file=sys.stderr)
            return 1
        print(f"speedup gate ok: {got}x >= {args.min_speedup}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
