"""The workload process: runs one workload's cells back to back.

Launched by ``run.py`` (one closed-loop client, serial, one process)::

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --seconds S --setup-only
    python3 perfbench/worker.py --workload W --costs   # refresh costs.json

Prints one JSON object on stdout.  ``t_ready`` (``time.monotonic()``) marks
the start of the first cell: interpreter start, imports, input generation
and the first ``Machine.build`` of every machine used all come before it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from plan import PASSES, cell_key, draw, load_costs  # noqa: E402
import spans  # noqa: E402
from repro.apps.asp import asp_paper_config, run_asp_timed  # noqa: E402
from repro.bench.experiments import MACHINE_RANKS  # noqa: E402
from repro.bench.imb import ImbSettings, imb_time  # noqa: E402
from repro.mpi.runtime import Machine  # noqa: E402
from repro.mpi.stacks import ALL_STACKS  # noqa: E402

STACKS = {s.name: s for s in ALL_STACKS}
#: the settings ``figureN(scale="bench")`` uses
BENCH_SETTINGS = ImbSettings(max_iterations=1, warmups=0)
#: tracer counters copied per cell (all maintained with tracing off)
TRACER_COUNTERS = ("shm.fifo_publish", "shm.post", "mpi.send",
                   "mpi.recv_post", "mpi.recv", "knem.degrade")


def cell_machine(cell) -> str:
    return cell[1] if cell[0] == "imb" else "zoot"


def run_cell(cell):
    """Call the public entry point for ``cell``; returns its simulated
    result as a list of floats."""
    if cell[0] == "imb":
        _, machine, stack, op, size = cell
        return [imb_time(machine, STACKS[stack], MACHINE_RANKS[machine], op,
                         size, BENCH_SETTINGS)]
    _, stack, stride = cell
    timing = run_asp_timed("zoot", STACKS[stack], asp_paper_config("zoot"),
                           sample=stride)
    return [timing.total_time, timing.bcast_time, timing.compute_time]


def machine_counters(machine) -> dict[str, int]:
    """Exact work counters a finished machine holds (free to read)."""
    sim, mem, knem = machine.sim, machine.mem, machine.knem
    out = {
        "simtime.events": sim.events_processed,
        "simtime.resumes": sim.process_resumes,
        "simtime.peak_queue": sim.peak_heap,
        "flows.rebalances": (mem.network.scalar_assignments
                             + mem.network.vector_assignments),
        "memory.copies": mem.copies,
        "memory.bytes": mem.bytes_copied,
        "cache.evicted_bytes": sum(d.evicted_bytes for d in mem.caches.domains),
        "knem.registrations": knem.stats_registrations,
        "knem.copies": knem.stats_copies,
        "knem.bytes": knem.stats_bytes,
    }
    for name in TRACER_COUNTERS:
        out[name] = machine.tracer.counters.get(name, 0)
    return out


class Cells:
    """Runs cells and keeps the machines each one built."""

    def __init__(self, rec: spans.SpanRecorder | None = None) -> None:
        self.rec = rec
        self.built: list = []

    def run(self, index: int, cell) -> dict:
        self.built.clear()
        rec = self.rec
        if rec is not None:
            rec.cell_id = index
            span = rec.begin(spans.SPAN_NAMES.index(spans.CELL))
        error, value = None, []
        t0 = time.perf_counter()
        try:
            value = run_cell(cell)
        except Exception as exc:  # a failed cell is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        host_s = time.perf_counter() - t0
        if rec is not None:
            rec.finish(span)
            rec.cell_id = -1
        counters: dict[str, int] = {}
        for machine in self.built:
            for name, n in machine_counters(machine).items():
                counters[name] = counters.get(name, 0) + n
        self.built.clear()
        return {"key": cell_key(cell), "host_s": host_s, "error": error,
                "value": [repr(v) for v in value],
                "finite": all(math.isfinite(v) and v > 0 for v in value),
                "counters": counters}


def capture_builds(cells: Cells, patches: spans.Patches) -> None:
    """Record every machine a cell builds, to read its counters after."""
    build = Machine.__dict__["build"].__func__

    def capture(cls, *args, **kwargs):
        machine = build(cls, *args, **kwargs)
        cells.built.append(machine)
        return machine
    patches.set(Machine, "build", classmethod(capture))


def settle() -> None:
    """Move set-up objects (modules, memoised spec tables), which live for
    the whole run, out of the collector's view, so the collection before
    each cell only walks what earlier cells left behind."""
    gc.collect()
    gc.freeze()


def run_pass(runner: Cells, plan: list) -> tuple[list[dict], float]:
    """Run ``plan``; returns per-draw results and the pass's wall seconds.

    A full collection before each cell frees the previous cell's cyclic
    garbage, so no cell runs (or peaks in memory) on top of another's heap.
    The collections count in the pass's wall time, not in any cell's.
    """
    results = []
    t0 = time.perf_counter()
    for i, cell in enumerate(plan):
        gc.collect()
        results.append(runner.run(i, cell))
    return results, time.perf_counter() - t0


def measure_costs(workload: str, repeats: int = 3) -> dict:
    """Median host seconds of every population cell over ``repeats`` passes."""
    from plan import POPULATIONS
    population = POPULATIONS[workload]()
    for name in sorted({cell_machine(c) for c in population}):
        Machine.build(name)
    runner = Cells()
    capture_builds(runner, spans.Patches())
    settle()
    passes = [run_pass(runner, population)[0] for _ in range(repeats)]
    return {r["key"]: round(statistics.median(p[i]["host_s"] for p in passes), 4)
            for i, r in enumerate(passes[0])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--costs", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    if args.costs:
        print(json.dumps(measure_costs(args.workload), indent=1))
        return 0
    plan = draw(args.workload, args.seed, args.seconds, load_costs())
    for name in sorted({cell_machine(c) for c in plan}):
        Machine.build(name)  # first build per machine: memoised spec tables
    t_ready = time.monotonic()
    out = {"t_ready": t_ready, "cells": [cell_key(c) for c in plan]}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    patches = spans.Patches()
    runner = Cells()
    capture_builds(runner, patches)
    settle()
    out["passes"], out["pass_wall_s"] = [], []
    for _ in range(PASSES):
        results, wall_s = run_pass(runner, plan)
        out["passes"].append(results)
        out["pass_wall_s"].append(wall_s)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        rec = spans.SpanRecorder()
        runner.rec = rec
        spans.instrument(rec, patches)
        out["traced"], out["traced_wall_s"] = run_pass(runner, plan)
        patches.restore()
        out["layer_s"] = spans.layer_times(rec)
        out["trace_counts"] = dict(rec.counts)
        out["active_at_admit"] = rec.active_at_admit
        out["spans"] = len(rec.start)
        if args.spans_out:
            rec.save(args.spans_out, out["cells"])
    patches.restore()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
