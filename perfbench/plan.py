"""Workload populations and the seeded, cost-stratified cell draws.

A *cell* is one call into the simulator's public entry points:

- ``["imb", machine, stack, op, size]`` is one
  ``repro.bench.imb.imb_time(machine, stack, nprocs, op, size,
  ImbSettings(max_iterations=1, warmups=0))`` call, the settings that
  ``figureN(scale="bench")`` uses;
- ``["asp", stack, stride]`` is one ``repro.apps.asp.run_asp_timed("zoot",
  stack, asp_paper_config("zoot"), sample=stride)`` call (Table 1's ASP).

Each workload splits its population into *strata* of cells with similar
host cost (``costs.json``, measured on the reference host) and gives each
stratum a quota.  A pass is ``rounds`` repetitions of "draw ``quota`` cells
with replacement from every stratum", shuffled; a run makes ``PASSES``
passes over the same cells.  Stratifying by cost keeps a
run's total work and its median cell steady from seed to seed, while the
seed still decides which cells, which duplicates and which order.

This module imports nothing from ``repro``: the plan is pure input
generation, so the program under test only ever receives the drawn cells.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

KiB = 1024
MiB = 1024 * KiB

#: the four message sizes of ``figureN(scale="bench")``
BENCH_SIZES = (32 * KiB, 128 * KiB, 512 * KiB, 2 * MiB)
#: the five operations of Figures 5-8 and the Scatter text results
FIGURE_OPS = ("bcast", "gather", "scatter", "alltoallv", "allgather")
#: ASP pivot strides.  The bench default of 16 costs 72 s per round over
#: the three stacks; 224 = 14 x 16 keeps a round near 4.5 s with the same
#: per-pivot work (64 KiB row broadcast + dirty touch sweep).
ASP_STRIDES = (216, 220, 224, 228, 232)
ASP_STACKS = ("Tuned-SM", "MPICH2-SM", "KNEM-Coll")

#: Times a run executes its drawn cells.  The median of three passes is
#: steadier than one long pass, and the repeats check that every cell is
#: deterministic.
PASSES = 3

#: relative cost spread allowed inside one automatically formed stratum
STRATUM_RATIO = 1.25

COSTS_PATH = Path(__file__).resolve().parent / "costs.json"


def cell_key(cell) -> str:
    """Stable text name of a cell, e.g. ``imb/ig/Tuned-SM/bcast/32768``."""
    return "/".join(str(part) for part in cell)


def _imb(machine: str, stack: str, op: str, size: int) -> tuple:
    return ("imb", machine, stack, op, size)


def _ig_population() -> list[tuple]:
    cells = []
    for stack in ("Tuned-SM", "MPICH2-SM"):
        for op in ("bcast", "gather", "scatter"):
            cells += [_imb("ig", stack, op, size) for size in BENCH_SIZES]
        for op in ("alltoallv", "allgather"):
            cells += [_imb("ig", stack, op, size) for size in BENCH_SIZES[:2]]
    return cells


def _smallnode_population() -> list[tuple]:
    return [_imb(machine, stack, op, size)
            for machine in ("zoot", "dancer", "saturn")
            for stack in ("KNEM-Coll", "Tuned-KNEM")
            for op in FIGURE_OPS
            for size in BENCH_SIZES]


def _asp_population() -> list[tuple]:
    return [("asp", stack, stride)
            for stack in ASP_STACKS for stride in ASP_STRIDES]


POPULATIONS = {
    "ig-copyinout": _ig_population,
    "smallnode-knem": _smallnode_population,
    "asp-zoot": _asp_population,
}
WORKLOADS = tuple(POPULATIONS)


def _ig_cells(*specs) -> list[tuple]:
    return [_imb("ig", stack, op, size) for stack, op, size in specs]


TSM, MSM = "Tuned-SM", "MPICH2-SM"

#: IG strata, chosen by hand.  A pass draws 9 cells: three from the
#: 0.86-0.92 s stratum, three cheaper and three dearer, so the median cell
#: stays in that tight stratum whatever the seed draws.  Every
#: pass draws one alltoallv 32 KiB cell, whose 370 MB peak sets the run's
#: peak memory.  Nine cells are not drawn, because each would take too much
#: of a ~8 s pass (a run repeats its pass three times): alltoallv and
#: allgather 128 KiB on both stacks (6.5-14 s; the ROADMAP headline,
#: Tuned-SM alltoallv 128 KiB, among them), MPICH2-SM bcast 2 MiB (7.4 s),
#: MPICH2-SM bcast 512 KiB, gather 2 MiB and scatter 2 MiB (3.6-3.7 s), and
#: Tuned-SM bcast 2 MiB (2.0 s).  The drawn alltoallv/allgather 32 KiB cells
#: run the same flow pattern as the 128 KiB ones.  Costs are reference-host
#: seconds (``costs.json``).
IG_STRATA = (
    (2, _ig_cells((MSM, "alltoallv", 32 * KiB), (TSM, "alltoallv", 32 * KiB))),  # 1.4-1.5 s
    (1, _ig_cells((MSM, "allgather", 32 * KiB), (TSM, "allgather", 32 * KiB))),  # 1.7-1.8 s
    (3, _ig_cells((MSM, "gather", 512 * KiB), (MSM, "scatter", 512 * KiB),  # 0.86-0.92 s
                  (TSM, "gather", 2 * MiB), (TSM, "scatter", 2 * MiB))),
    (2, _ig_cells((TSM, "gather", 512 * KiB), (MSM, "gather", 128 * KiB),   # 0.21-0.30 s
                  (MSM, "scatter", 128 * KiB), (TSM, "bcast", 128 * KiB),
                  (TSM, "bcast", 512 * KiB), (TSM, "scatter", 512 * KiB))),
    (1, _ig_cells((TSM, "gather", 32 * KiB), (TSM, "scatter", 32 * KiB),    # < 0.19 s
                  (TSM, "bcast", 32 * KiB), (MSM, "gather", 32 * KiB),
                  (MSM, "bcast", 32 * KiB), (MSM, "scatter", 32 * KiB),
                  (TSM, "gather", 128 * KiB), (TSM, "scatter", 128 * KiB),
                  (MSM, "bcast", 128 * KiB))),
)
IG_UNDRAWN = _ig_cells((TSM, "alltoallv", 128 * KiB),
                       (MSM, "alltoallv", 128 * KiB),
                       (TSM, "allgather", 128 * KiB),
                       (MSM, "allgather", 128 * KiB), (MSM, "bcast", 2 * MiB),
                       (MSM, "bcast", 512 * KiB), (MSM, "gather", 2 * MiB),
                       (MSM, "scatter", 2 * MiB), (TSM, "bcast", 2 * MiB))


def load_costs(path: Path = COSTS_PATH) -> dict[str, float]:
    """Reference-host seconds per cell key (planning only, never a result)."""
    with open(path) as fh:
        return json.load(fh)["cells"]


def cost_strata(cells: list[tuple], costs: dict[str, float],
                ratio: float = STRATUM_RATIO) -> list[list[tuple]]:
    """Cells sorted by cost, cut where a cell costs > ``ratio`` x the
    cheapest cell of the stratum being built."""
    strata: list[list[tuple]] = []
    floor = 0.0
    for cell in sorted(cells, key=lambda c: (costs[cell_key(c)], cell_key(c))):
        cost = costs[cell_key(cell)]
        if not strata or cost > ratio * floor:
            strata.append([])
            floor = cost
        strata[-1].append(cell)
    return strata


def strata(workload: str, costs: dict[str, float]) -> list[tuple[int, list]]:
    """``(quota per round, cells)`` for every stratum of ``workload``."""
    if workload == "ig-copyinout":
        return [(quota, list(cells)) for quota, cells in IG_STRATA]
    if workload == "smallnode-knem":
        # proportional allocation: a round is one pass-equivalent
        return [(len(s), s)
                for s in cost_strata(_smallnode_population(), costs)]
    if workload == "asp-zoot":
        # one stratum per stack; the seed picks each draw's stride
        return [(1, [c for c in _asp_population() if c[1] == stack])
                for stack in ASP_STACKS]
    raise ValueError(f"unknown workload {workload!r}; use one of {WORKLOADS}")


def round_cost(strata_list, costs: dict[str, float]) -> float:
    """Expected reference-host seconds of one round."""
    return sum(quota * sum(costs[cell_key(c)] for c in cells) / len(cells)
               for quota, cells in strata_list)


def draw(workload: str, seed: int, seconds: float,
         costs: dict[str, float] | None = None) -> list[tuple]:
    """The cells one pass executes, in order.  Same arguments, same cells.

    Sized so that ``PASSES`` passes take about ``seconds`` on the reference
    host."""
    costs = load_costs() if costs is None else costs
    layers = strata(workload, costs)
    rounds = max(1, round(seconds / PASSES / round_cost(layers, costs)))
    rng = random.Random(f"{workload}:{seed}")
    cells = [rng.choice(members)
             for _ in range(rounds)
             for quota, members in layers
             for _ in range(quota)]
    rng.shuffle(cells)
    return cells
