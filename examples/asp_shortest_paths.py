#!/usr/bin/env python3
"""ASP: the paper's showcase application (Table I), at laptop scale.

Solves all-pairs-shortest-paths on a random graph with the distributed
Floyd–Warshall used in the paper's evaluation, on the simulated Zoot
machine, under each MPI stack.  The result is validated against a serial
Floyd–Warshall, and the broadcast-time breakdown is printed in Table I's
layout.

Run:  python examples/asp_shortest_paths.py [n]
"""

import sys

import numpy as np

from repro.apps.asp import (
    INF,
    AspConfig,
    floyd_warshall_reference,
    run_asp,
    run_asp_timed,
)
from repro.bench.report import render_table1
from repro.mpi import stacks


def random_graph(n, density=0.25, seed=1234):
    rng = np.random.default_rng(seed)
    adj = rng.integers(1, 100, size=(n, n)).astype(np.int32)
    adj[rng.random((n, n)) > density] = INF
    np.fill_diagonal(adj, 0)
    return adj


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 64

    print(f"== correctness: {n}x{n} graph, 16 ranks on zoot ==")
    adj = random_graph(n)
    oracle = floyd_warshall_reference(adj)
    for stack in (stacks.TUNED_SM, stacks.KNEM_COLL):
        result = run_asp("zoot", stack, adj, nprocs=16)
        ok = np.array_equal(result, oracle)
        print(f"  {stack.name:12s} matches serial Floyd-Warshall: {ok}")
        assert ok

    print("\n== Table I layout (sampled timing at the paper's problem size) ==")
    cfg = AspConfig(n=16384, nprocs=16)
    rows = {}
    for label, stack in (("Open MPI", stacks.TUNED_SM),
                         ("MPICH2", stacks.MPICH2_SM),
                         ("KNEM Coll", stacks.KNEM_COLL)):
        t = run_asp_timed("zoot", stack, cfg, sample=128)
        rows[label] = {"bcast": t.bcast_time, "total": t.total_time}
    print(render_table1("zoot", rows))
    print("\n(1/128 iteration sampling; see EXPERIMENTS.md for full runs)")


if __name__ == "__main__":
    main()
