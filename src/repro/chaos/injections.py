"""Derive a campaign's fault dimensions and build its injectors.

Every choice here is a pure function of the campaign seed (via
:mod:`repro.chaos.seeds`), so a campaign is fully described by its spec —
re-running the same spec replays the same faults, which is what makes a
failing campaign a *repro* rather than an anecdote.

The dimensions and where they inject:

==================  ====================================================
dimension           injection point
==================  ====================================================
``knem``            :class:`~repro.faults.plan.FaultPlan` random rules
                    over the KNEM/shm driver ops (simulated faults; the
                    recovery ladder must absorb them byte-identically)
``stall``           a ``rank.stall`` rule (shifts simulated timings
                    deterministically — present in the reference run too)
``crash``           a ``rank.crash`` rule (the whole sweep ends in a
                    typed ``RankFailed``; the *typed abort* oracle arm)
``deaths``          warm-pool workers ``os._exit`` once on chosen cells
                    (transient: the retry survives)
``poison``          one cell kills *every* worker that runs it (must
                    quarantine as a typed ``CellAborted``)
``fsfault``         one journal append fails (EIO/ENOSPC/short write)
``corrupt``         one interior journal record is bit-flipped after the
                    run (resume must skip-and-recompute it)
``restart``         the grid is run twice against one result-cache
                    journal; the second run reopens the journal the
                    first one closed and must answer every cell from
                    it, byte-identical to the reference
==================  ====================================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.chaos import seeds
from repro.chaos.fsfaults import FS_FAULT_MODES, FsFaultRule
from repro.faults.plan import KNEM_OPS, FaultPlan, FaultRule

__all__ = ["Dimensions", "derive_dimensions", "build_fault_plan",
           "make_cell_hook", "corrupt_journal", "WORKER_DEATH_EXIT"]

#: exit status of a chaos-killed worker (distinct from Python tracebacks)
WORKER_DEATH_EXIT = 3

#: enable probability per dimension when the spec leaves it to the seed
_DIM_PROBABILITY = {
    "knem": 0.8,
    "stall": 0.3,
    "crash": 0.15,
    "deaths": 0.7,
    "poison": 0.4,
    "fsfault": 0.5,
    "corrupt": 0.6,
    "restart": 0.35,
}


@dataclass(frozen=True)
class Dimensions:
    """The fully resolved fault content of one campaign."""

    seed: int
    #: random simulated-fault rate over KNEM/shm ops (0.0 = dimension off)
    knem_rate: float
    knem_sticky: bool
    #: rank.stall delay in simulated seconds (0.0 = off)
    stall_delay: float
    #: rank.crash armed (the sweep is expected to abort typed)
    crash: bool
    #: cell keys whose first execution kills the worker (die-once)
    death_keys: tuple[str, ...]
    #: cell key that kills every worker that touches it (None = off)
    poison_key: Optional[str]
    #: journal append fault (None = off)
    fs_rule: Optional[FsFaultRule]
    #: flip one interior journal record after the chaos run
    corrupt: bool
    #: run the grid twice on one result cache; the second run reopens the
    #: cache and must be all hits, byte-identical
    restart: bool = False

    def describe(self) -> dict:
        """JSON-friendly summary for campaign reports."""
        return {
            "seed": self.seed,
            "knem_rate": round(self.knem_rate, 4),
            "knem_sticky": self.knem_sticky,
            "stall_delay": self.stall_delay,
            "crash": self.crash,
            "death_keys": list(self.death_keys),
            "poison_key": self.poison_key,
            "fs_fault": (None if self.fs_rule is None else
                         {"mode": self.fs_rule.mode,
                          "after_writes": self.fs_rule.after_writes}),
            "corrupt_journal": self.corrupt,
            "cache_reopen": self.restart,
        }


def _enabled(seed: int, dim: str, override: Optional[bool]) -> bool:
    if override is not None:
        return override
    return seeds.coin(seed, f"enable.{dim}", _DIM_PROBABILITY[dim])


def derive_dimensions(seed: int, keys: Sequence[str], *,
                      substrate: bool = True,
                      knem: Optional[bool] = None,
                      stall: Optional[bool] = None,
                      crash: Optional[bool] = None,
                      deaths: Optional[bool] = None,
                      poison: Optional[bool] = None,
                      fsfault: Optional[bool] = None,
                      corrupt: Optional[bool] = None,
                      restart: Optional[bool] = None) -> Dimensions:
    """Resolve one campaign's dimensions from its seed.

    ``keys`` are the sweep's cell keys in grid order (victim cells are
    chosen among them).  ``substrate=False`` masks the worker-death
    dimensions (a serial sweep has no workers to kill).  Each keyword
    overrides one dimension: ``True`` forces it on, ``False`` off,
    ``None`` (default) leaves it to the seeded coin.  Every dimension
    draws from its own seed token, so adding a dimension never shifts
    what existing seeds decide for the others.
    """
    keys = list(keys)
    poison_key: Optional[str] = None
    death_keys: tuple[str, ...] = ()
    if substrate and keys:
        if _enabled(seed, "poison", poison):
            poison_key = seeds.pick(seed, "poison.key", keys)
        if _enabled(seed, "deaths", deaths):
            victims = [k for k in keys if k != poison_key]
            if victims:
                death_keys = (seeds.pick(seed, "deaths.key", victims),)
    fs_rule: Optional[FsFaultRule] = None
    if _enabled(seed, "fsfault", fsfault):
        fs_rule = FsFaultRule(
            after_writes=seeds.derive(seed, "fsfault.after") % max(
                1, len(keys)),
            mode=seeds.pick(seed, "fsfault.mode", FS_FAULT_MODES),
        )
    return Dimensions(
        seed=seed,
        knem_rate=(0.05 + 0.25 * seeds.uniform(seed, "knem.rate")
                   if _enabled(seed, "knem", knem) else 0.0),
        knem_sticky=seeds.coin(seed, "knem.sticky", 0.3),
        stall_delay=(1e-5 * (1 + seeds.derive(seed, "stall.delay") % 10)
                     if _enabled(seed, "stall", stall) else 0.0),
        crash=_enabled(seed, "crash", crash),
        death_keys=death_keys,
        poison_key=poison_key,
        fs_rule=fs_rule,
        corrupt=_enabled(seed, "corrupt", corrupt),
        restart=_enabled(seed, "restart", restart),
    )


def build_fault_plan(dims: Dimensions, *,
                     include_crash: bool = True) -> Optional[FaultPlan]:
    """The simulated-fault plan of a campaign (None when empty).

    ``include_crash=False`` builds the *reference* variant: identical
    KNEM/stall content but no fail-stop rules, so a fault-free-substrate
    serial run under it is the byte-identity baseline for every cell the
    chaos run completes.  Stalls stay in both variants — they shift
    simulated timings, and identity is only meaningful when both runs see
    the same schedule.
    """
    rules: list[FaultRule] = []
    # KNEM ops only: the recovery ladder absorbs these byte-identically
    # (retry → copy-in/copy-out → disqualify).  shm.slot faults are left
    # out — they surface as typed aborts on the shared-memory stacks,
    # which would make the *reference* run abort too and leave nothing
    # for the identity oracle to compare.
    if dims.knem_rate > 0.0:
        rules.extend(
            FaultRule(op=op, probability=dims.knem_rate,
                      sticky=dims.knem_sticky)
            for op in KNEM_OPS)
    if dims.stall_delay > 0.0:
        rules.append(FaultRule(op="rank.stall", core=0, index=0,
                               delay=dims.stall_delay))
    if dims.crash and include_crash:
        rules.append(FaultRule(op="rank.crash", core=0, index=0))
    if not rules:
        return None
    return FaultPlan(rules, seed=seeds.derive(dims.seed, "plan") % 2**32)


def _flag_path(workdir: str, key: str) -> str:
    safe = "".join(c if c.isalnum() else "_" for c in key)
    return os.path.join(workdir, f"died_{safe}.flag")


def make_cell_hook(dims: Dimensions,
                   workdir: str) -> Optional[Callable[[str], None]]:
    """The per-cell chaos hook (install via ``install_cell_chaos``).

    Runs in warm-pool workers before each measurement.  Death-dimension
    cells kill their worker exactly once — a flag file in ``workdir``
    remembers the death across the respawn, because the worker's memory
    obviously does not survive it.  The poison cell kills every worker,
    every time: only the quarantine ladder can end it.  ``os._exit``
    (never ``sys.exit``) so the death is fail-stop — no ``finally``
    blocks, no pipe flush, exactly like a kill -9 or an OOM kill.
    """
    if not dims.death_keys and dims.poison_key is None:
        return None

    def hook(key: str) -> None:
        from repro.bench.executor import in_worker

        if not in_worker():
            return
        if key == dims.poison_key:
            os._exit(WORKER_DEATH_EXIT)
        if key in dims.death_keys:
            flag = _flag_path(workdir, key)
            if not os.path.exists(flag):
                with open(flag, "w") as fh:
                    fh.write(key + "\n")
                os._exit(WORKER_DEATH_EXIT)

    return hook


def corrupt_journal(path: str, seed: int) -> Optional[dict]:
    """Flip one byte of one *interior* journal record (never the header,
    never the final line — the torn-tail path is exercised by the fs-fault
    dimension instead).  Returns ``{"lineno", "column"}`` describing the
    damage, or None when the journal is too short to have an interior.
    """
    try:
        with open(path) as fh:
            raw = fh.read()
    except FileNotFoundError:
        return None
    lines = raw.splitlines(keepends=True)
    # Interior records: everything between the header and the last line.
    candidates = [i for i in range(1, len(lines) - 1) if lines[i].strip()]
    if not candidates:
        return None
    lineno = seeds.pick(seed, "corrupt.line", candidates)
    line = lines[lineno]
    body = line.rstrip("\n")
    col = seeds.derive(seed, "corrupt.col") % len(body)
    old = body[col]
    # Replace with a different alphanumeric so the line stays one line
    # (a newline would split the record and shift every later lineno).
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    new = seeds.pick(seed, "corrupt.char",
                     [c for c in alphabet if c != old])
    lines[lineno] = body[:col] + new + body[col:][1:] + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    return {"lineno": lineno + 1, "column": col, "old": old, "new": new}
