"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import plan  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_same_seed_same_draws_other_seed_other_draws(workload):
    first = plan.draw(workload, 7, 25)
    assert first == plan.draw(workload, 7, 25)
    assert first != plan.draw(workload, 8, 25)
    population = set(plan.POPULATIONS[workload]())
    assert set(first) <= population


def test_ig_strata_partition_the_population():
    drawn = [c for _, cells in plan.IG_STRATA for c in cells]
    everything = drawn + list(plan.IG_UNDRAWN)
    assert len(everything) == len(set(everything)) == 32
    assert set(everything) == set(plan.POPULATIONS["ig-copyinout"]())


def test_cost_strata_cut_at_ratio():
    cells = [("c", i) for i in range(5)]
    costs = {plan.cell_key(c): v
             for c, v in zip(cells, (1.0, 1.2, 1.3, 2.0, 2.4))}
    got = plan.cost_strata(cells, costs, ratio=1.25)
    assert [[c[1] for c in s] for s in got] == [[0, 1], [2], [3, 4]]


@pytest.mark.parametrize("n", [11, 12, 37, 100, 1000])
def test_tail_percentile_leaves_ten_beyond(n):
    values = [float(v) for v in np.random.default_rng(n).permutation(n)]
    value, pct, count = run.tail_percentile(values)
    assert count == n
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentile_needs_eleven():
    assert run.tail_percentile([1.0] * 10) is None


def test_self_time_of_nested_spans():
    # root [0,10] has children [1,3] and [2,5] (overlapping) and [9,12]
    # (clipped to 10); the first child has a grandchild [1.5, 2.5].
    parent = np.array([-1, 0, 0, 0, 1])
    start = np.array([0.0, 1.0, 2.0, 9.0, 1.5])
    end = np.array([10.0, 3.0, 5.0, 12.0, 2.5])
    got = spans.self_times(parent, start, end)
    assert got == pytest.approx([10 - 5, 2 - 1, 3, 3, 1])


def test_self_time_of_siblings_under_two_parents():
    parent = np.array([-1, -1, 0, 1, 1])
    start = np.array([0.0, 100.0, 1.0, 100.0, 101.0])
    end = np.array([4.0, 104.0, 2.0, 102.0, 103.0])
    got = spans.self_times(parent, start, end)
    assert got == pytest.approx([3, 1, 1, 2, 2])


def test_committed_row_lookup_and_drift_format():
    key = "imb/ig/Tuned-SM/alltoallv/32768"
    committed = run.committed_seconds(ROOT, key.split("/"))
    assert committed == "0.013820017"
    assert run.drift(ROOT, key, float(committed)) is None
    d = run.drift(ROOT, key, 0.013819992)
    assert (d["committed"], d["measured"]) == ("0.013820017", "0.013819992")
    assert d["rel_diff"] == pytest.approx(0.013819992 / 0.013820017 - 1)


def test_matching_and_drifted_cells_against_results():
    matching = ("imb", "dancer", "KNEM-Coll", "gather", 32768)
    drifted = ("imb", "saturn", "Tuned-KNEM", "bcast", 131072)
    assert run.drift(ROOT, plan.cell_key(matching),
                     worker.run_cell(matching)[0]) is None
    d = run.drift(ROOT, plan.cell_key(drifted), worker.run_cell(drifted)[0])
    assert d["committed"] == "0.000167957"
    assert d["measured"] != d["committed"]


def test_traced_and_untraced_exact_counters_agree():
    cells = [("imb", "dancer", "KNEM-Coll", "bcast", 32768),
             ("imb", "dancer", "Tuned-KNEM", "gather", 131072),
             ("imb", "dancer", "KNEM-Coll", "bcast", 32768)]
    runner = worker.Cells()
    patches = spans.Patches()
    worker.capture_builds(runner, patches)
    try:
        untraced, _ = worker.run_pass(runner, cells)
        rec = spans.SpanRecorder()
        runner.rec = rec
        spans.instrument(rec, patches)
        traced, _ = worker.run_pass(runner, cells)
    finally:
        patches.restore()
    assert run.judge([untraced, untraced], traced) == ["", "", ""]
    assert run.totals(untraced) == run.totals(traced)
    assert run.totals(untraced)["simtime.events"] > 0
    assert rec.counts["coll.calls"] > 0 and rec.counts["flows.transfers"] > 0
    layers = spans.layer_times(rec)
    assert layers["bench.job_run_s"] > layers["simtime.run_self_s"] > 0
    assert (np.frombuffer(rec.cell, dtype=np.int64) >= 0).all()


def test_judge_flags_disagreeing_duplicate():
    ok = {"key": "k", "error": None, "finite": True, "value": ["1.0"],
          "counters": {"simtime.events": 5}}
    other = dict(ok, value=["1.5"])
    reasons = run.judge([[ok, other]], None)
    assert reasons[0] == "" and "earlier draw" in reasons[1]
    reasons = run.judge([[ok], [other]], None)
    assert "repeat pass" in reasons[0]
    moved = dict(ok, counters={"simtime.events": 6})
    assert "traced re-run changed counters" in run.judge([[ok]], [moved])[0]


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = [{"host_s": 0.5, "counters": {}}]
    out = {"cells": ["k"], "passes": [untraced], "pass_wall_s": [1.0],
           "traced_wall_s": 1.1,
           "peak_rss_mb": 50.0, "trace_counts": {}, "active_at_admit": 0,
           "layer_s": spans.layer_times(spans.SpanRecorder())}
    e2e = run.end_to_end(out, [0.7])
    layers = run.per_layer(out, run.totals(untraced))
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    for metrics, group in ((e2e, "end_to_end"), (layers, "per_layer")):
        for m in spec[group]:
            assert metrics[m["name"]]["unit"] == m["unit"]
