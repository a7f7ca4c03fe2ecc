"""Figure-grid benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload ig-copyinout --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout.  Prints a report, then as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from plan import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
#: environment variables that select non-default program paths
REFUSED_ENV = ("REPRO_VECTOR", "REPRO_KERNEL_RECEIPTS")
#: setup-only launches per run, besides the measured run's own set-up
SETUP_PROBES = 4
#: wall-clock limit for all worker launches of one run
RUN_TIMEOUT_S = 170
OUT_DIR = ".perfbench"
#: results/ experiment per IMB operation
EXPERIMENT_OF = {"bcast": "fig5", "gather": "fig6", "scatter": "scatter",
                 "alltoallv": "fig7", "allgather": "fig8"}
#: exact counters the untraced passes read from each cell's machine
EXACT = ("simtime.events", "simtime.resumes", "simtime.peak_queue",
         "flows.rebalances", "memory.copies",
         "memory.bytes", "cache.evicted_bytes", "knem.registrations",
         "knem.copies", "knem.bytes", "shm.fifo_publish", "shm.post",
         "mpi.send", "mpi.recv_post", "mpi.recv")
#: exact counters only the traced pass can count (they need wrappers)
TRACE_COUNTS = ("flows.transfers", "cache.touches", "cache.residency_calls",
                "cache.invalidates", "coll.calls")


def tail_percentile(values: list[float], beyond: int = 10):
    """``(value, percentile, n)`` at the highest percentile that leaves at
    least ``beyond`` samples above it, or None below ``beyond + 1`` samples.

    With n sorted samples that is the (n - beyond)-th smallest, i.e. the
    percentile 100 * (n - beyond) / n.
    """
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def committed_seconds(root: Path, cell: list) -> str | None:
    """The ``seconds`` field committed in results/<exp>_<machine>.csv for an
    IMB cell ``["imb", machine, stack, op, size]``, or None."""
    _, machine, stack, op, size = cell
    path = root / "results" / f"{EXPERIMENT_OF[op]}_{machine}.csv"
    if not path.exists():
        return None
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["series"] == stack and int(row["msg_bytes"]) == int(size):
                return row["seconds"]
    return None


def drift(root: Path, key: str, value: float) -> dict | None:
    """Drift record when ``value`` formatted ``%.9f`` differs from the
    committed row, else None (also None for cells with no committed row)."""
    cell = key.split("/")
    if cell[0] != "imb":
        return None
    committed = committed_seconds(root, cell)
    measured = "%.9f" % value
    if committed is None or committed == measured:
        return None
    return {"cell": key, "committed": committed, "measured": measured,
            "rel_diff": value / float(committed) - 1.0}


def judge(passes: list[list[dict]], traced: list[dict] | None) -> list[str]:
    """Reasons each draw failed ('' when it passed), in draw order.

    A draw fails when it raised, returned a non-finite or non-positive
    time, fired ``knem.degrade``, or disagreed (simulated result or exact
    counters) with an earlier draw of the same cell, with itself in another
    pass, or with its own re-run in the traced pass.
    """
    first: dict[str, dict] = {}
    reasons = []
    for i, r in enumerate(passes[0]):
        if r["error"]:
            why = r["error"]
        elif not r["finite"]:
            why = f"non-finite or non-positive time {r['value']}"
        elif r["counters"].get("knem.degrade", 0):
            why = "knem.degrade fired"
        else:
            ref = first.setdefault(r["key"], r)
            again = [(p[i], "repeat pass") for p in passes[1:]]
            if traced is not None:
                again.append((traced[i], "traced re-run"))
            why = _mismatch(ref, r, "earlier draw")
            for other, what in again:
                why = why or _mismatch(r, other, what)
        reasons.append(why)
    return reasons


def _mismatch(a: dict, b: dict, what: str) -> str:
    if b["error"]:
        return f"{what} raised {b['error']}"
    if a["value"] != b["value"]:
        return f"{what} returned {b['value']} != {a['value']}"
    if a["counters"] != b["counters"]:
        diff = sorted(k for k in a["counters"]
                      if a["counters"][k] != b["counters"].get(k))
        return f"{what} changed counters {diff}"
    return ""


def totals(results: list[dict]) -> dict[str, int]:
    """Exact counters summed over draws (``simtime.peak_queue``: maximum)."""
    out = {name: sum(r["counters"].get(name, 0) for r in results)
           for name in EXACT}
    out["simtime.peak_queue"] = max(
        (r["counters"].get("simtime.peak_queue", 0) for r in results),
        default=0)
    return out


def launch(args, extra: list[str], deadline: float) -> tuple[dict, float]:
    """Run the worker once, killing it at ``deadline`` (``time.monotonic``);
    returns its JSON and its set-up host seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t_launch = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - t_launch), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, out["t_ready"] - t_launch


def wall(out: dict) -> float:
    """Wall seconds of the median untraced pass."""
    return statistics.median(out["pass_wall_s"])


def cell_times(out: dict) -> list[float]:
    """Host seconds of every cell run, over all untraced passes."""
    return [r["host_s"] for p in out["passes"] for r in p]


def end_to_end(out: dict, setups: list[float]) -> dict:
    times = cell_times(out)
    metrics = {
        "wall_s": (wall(out), "s"),
        "cell_p50_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(out: dict, exact: dict[str, int]) -> dict:
    counts = out["trace_counts"]
    transfers = counts.get("flows.transfers", 0)
    wall_s = wall(out)
    metrics = {"bench.cells": (len(out["cells"]), "count")}
    for name in EXACT:
        metrics[name] = (exact[name], "B" if name.endswith("bytes") else "count")
    for name in TRACE_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["flows.active_at_admit_mean"] = (
        out["active_at_admit"] / transfers if transfers else 0.0, "count")
    metrics["simtime.host_us_per_event"] = (
        1e6 * wall_s / max(1, exact["simtime.events"]), "us")
    for name, seconds in out["layer_s"].items():
        metrics[name] = (seconds, "s")
    metrics["trace.overhead_frac"] = (
        out["traced_wall_s"] / wall_s - 1.0, "frac")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def report(args, out: dict, reasons: list[str], drifted: list[dict],
           setups: list[float], exact: dict[str, int]) -> None:
    """Human-readable lines (everything but the last stdout line)."""
    cells = out["cells"]
    digest = hashlib.sha256("\n".join(cells).encode()).hexdigest()[:16]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}  host cpus {os.cpu_count()}")
    print(f"cells drawn: {len(cells)} ({len(set(cells))} distinct), "
          f"sha256/16 {digest}")
    times = cell_times(out)
    walls = ", ".join(f"{w:.3f}" for w in out["pass_wall_s"])
    print(f"  wall_s       {wall(out):.4f} s (median pass of {walls})")
    print(f"  cell_p50_s   {statistics.median(times):.6f} s")
    tail = tail_percentile(times)
    if tail is None:
        print(f"  cell_tail_s  omitted: {len(times)} cells < 11")
    else:
        print(f"  cell_tail_s  {tail[0]:.6f} s at p{tail[1]:.1f} of "
              f"{tail[2]} cells")
    if setups:
        print(f"  setup_s      {statistics.median(setups):.4f} s "
              f"(median of {len(setups)}: "
              f"{', '.join(f'{s:.3f}' for s in setups)})")
    print(f"  peak_rss_mb  {out['peak_rss_mb']:.1f} MiB")
    failed = [(c, w) for c, w in zip(cells, reasons) if w]
    print(f"  cells_failed_frac  {len(failed) / len(cells):.4f} frac "
          f"({len(failed)} of {len(cells)})")
    for cell, why in failed:
        print(f"    FAILED {cell}: {why}")
    if args.workload != "asp-zoot":
        print(f"  results_drift_cells  {len(drifted)} count "
              f"(distinct cells differing from results/ at %.9f)")
        for d in drifted:
            print(f"    drift {d['cell']}: committed {d['committed']} "
                  f"measured {d['measured']} rel {d['rel_diff']:+.3e}")
    print("exact counters: " + ", ".join(f"{k}={v}" for k, v in exact.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    refused = [v for v in REFUSED_ENV if os.environ.get(v)]
    if refused:
        print(f"refusing to run: {', '.join(refused)} set; the benchmark "
              "measures the default configuration", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "bench" / "imb.py").is_file():
        print(f"no program under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups = []
    extra = ["--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans-out", str(out_dir / f"{stem}-spans.npz")]
    else:
        for _ in range(SETUP_PROBES):
            setups.append(launch(args, ["--setup-only"], deadline)[1])
    out, setup = launch(args, extra, deadline)
    setups.append(setup)

    reasons = judge(out["passes"], out.get("traced"))
    drifted, seen = [], set()
    for r in out["passes"][0]:
        if r["key"] not in seen and not r["error"]:
            seen.add(r["key"])
            d = drift(ROOT, r["key"], float(r["value"][0]))
            if d is not None:
                drifted.append(d)
    exact = totals(out["passes"][0])
    report(args, out, reasons, drifted, setups, exact)
    if args.trace:
        metrics = per_layer(out, exact)
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = end_to_end(out, setups)
    n_failed = sum(1 for why in reasons if why)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "cpu_count": os.cpu_count(), "cells": out["cells"],
              "host_s": [[r["host_s"] for r in p] for p in out["passes"]],
              "pass_wall_s": out["pass_wall_s"],
              "failed": [[c, w] for c, w in zip(out["cells"], reasons) if w],
              "drift": drifted, "exact": exact, "setups_s": setups,
              "metrics": metrics}
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"run record: {OUT_DIR}/{stem}.json")
    print(json.dumps({"correct": n_failed == 0,
                      "attempted": len(out["cells"]),
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
