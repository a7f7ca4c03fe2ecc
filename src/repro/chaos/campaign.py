"""Run one seeded chaos campaign end-to-end and judge it with oracles.

A campaign is four phases over one sweep grid:

1. **reference** — a fault-free-substrate serial run under the campaign's
   simulated fault plan (minus fail-stop rules): the byte-identity
   baseline.  Simulated faults stay in — they deterministically change
   timings, and the claim under test is that *substrate* chaos (worker
   deaths, fs faults, parallelism, corruption) never changes results.
2. **chaos** — the same grid through the warm-pool executor with every
   armed dimension injecting: full fault plan, per-cell worker deaths,
   a poison cell, journal append faults.  May end in a typed abort.
3. **corrupt** — flip one byte in an interior journal record on disk
   (simulated bit rot between runs).
4. **resume** — re-run serially against the damaged journal with chaos
   disarmed: corrupt records must skip-and-recompute, quarantined cells
   must heal, and the final cell map must equal the reference exactly.
5. **cache-reopen** (only when the ``restart`` dimension is armed) —
   run the grid with a result cache, then run it again: the second run
   reopens the cache journal the first one closed and must be all cache
   hits, byte-identical to the reference.

Then the oracles (:mod:`repro.chaos.oracles`) rule on the artifacts.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Optional

from repro.bench import executor, harness
from repro.bench.harness import ExperimentResult, run_sweep
from repro.bench.imb import ImbSettings
from repro.chaos.fsfaults import FaultyFile
from repro.chaos.injections import (
    Dimensions,
    build_fault_plan,
    corrupt_journal,
    derive_dimensions,
    make_cell_hook,
)
from repro.chaos.oracles import (
    TYPED_ERRORS,
    check_cache_reopen,
    check_chaos_cells,
    check_identity,
    check_journal,
    check_pool_bounds,
    check_sanitizer,
    check_typed_abort,
)
from repro.chaos.report import CampaignReport, OracleVerdict, PhaseOutcome
from repro.errors import BenchmarkError
from repro.mpi.stacks import ALL_STACKS, Stack

__all__ = ["CampaignSpec", "run_campaign"]


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign, fully described (the seed decides the dimensions).

    The dimension overrides (``knem`` … ``corrupt``) take ``None`` to let
    the seed decide, or ``True``/``False`` to force — fixed-seed CI and
    the acceptance tests force the dimensions they are about.
    """

    seed: int = 0
    machine: str = "dancer"
    operation: str = "bcast"
    nprocs: int = 4
    stacks: tuple[str, ...] = ("Tuned-SM", "KNEM-Coll")
    sizes: tuple[int, ...] = (32 * 1024, 128 * 1024)
    jobs: int = 2
    retry_limit: int = 2
    max_iterations: int = 2
    knem: Optional[bool] = None
    stall: Optional[bool] = None
    crash: Optional[bool] = None
    deaths: Optional[bool] = None
    poison: Optional[bool] = None
    fsfault: Optional[bool] = None
    corrupt: Optional[bool] = None
    restart: Optional[bool] = None

    def describe(self) -> dict:
        return {
            "seed": self.seed, "machine": self.machine,
            "operation": self.operation, "nprocs": self.nprocs,
            "stacks": list(self.stacks), "sizes": list(self.sizes),
            "jobs": self.jobs, "retry_limit": self.retry_limit,
        }


def _resolve_stacks(names: tuple[str, ...]) -> list[Stack]:
    by_name = {s.name: s for s in ALL_STACKS}
    missing = [n for n in names if n not in by_name]
    if missing:
        raise BenchmarkError(
            f"unknown stacks {missing}; known: {sorted(by_name)}")
    return [by_name[n] for n in names]


def _stats_summary(result: Optional[ExperimentResult]) -> dict:
    if result is None or result.stats is None:
        return {}
    s = result.stats
    return {
        "cells_run": s.cells_run, "cells_resumed": s.cells_resumed,
        "cells_aborted": s.cells_aborted,
        "chunks_quarantined": s.chunks_quarantined,
        "pool_respawns": s.pool_respawns,
        "pool_requeued": s.pool_requeued,
        "journal_skipped": s.journal_skipped,
        "journal_errors": s.journal_errors,
        "cache_hits": s.cache_hits,
    }


def run_campaign(spec: CampaignSpec, workdir: str) -> CampaignReport:
    """Execute one campaign in ``workdir`` (journal + death flags live
    there) and return its judged report.  Global chaos hooks are always
    uninstalled on exit, even when a phase dies unexpectedly."""
    os.makedirs(workdir, exist_ok=True)
    stacks = _resolve_stacks(spec.stacks)
    sizes = list(spec.sizes)
    keys = [f"{stack.name}|{size}" for stack in stacks for size in sizes]
    substrate = spec.jobs != 1
    dims = derive_dimensions(
        spec.seed, keys, substrate=substrate,
        knem=spec.knem, stall=spec.stall, crash=spec.crash,
        deaths=spec.deaths, poison=spec.poison, fsfault=spec.fsfault,
        corrupt=spec.corrupt, restart=spec.restart)
    full_plan = build_fault_plan(dims, include_crash=True)
    ref_plan = build_fault_plan(dims, include_crash=False)
    settings = ImbSettings(max_iterations=spec.max_iterations)
    checkpoint = os.path.join(workdir,
                              f"chaos_{spec.seed}.checkpoint.json")
    report = CampaignReport(seed=spec.seed, spec=spec.describe(),
                            dimensions=dims.describe())
    sweep_args = dict(
        experiment=f"chaos{spec.seed}", machine=spec.machine,
        operation=spec.operation, nprocs=spec.nprocs, stacks=stacks,
        sizes=sizes, settings=settings)

    # Phase 1: reference (serial, no substrate chaos, crash-free plan).
    reference = run_sweep(fault_plan=ref_plan, **sweep_args)
    report.phases.append(PhaseOutcome(
        "reference", True,
        detail={"cells": sum(len(s.times) for s in reference.series)}))

    # Phase 2: chaos.
    chaos_result: Optional[ExperimentResult] = None
    chaos_error: Optional[BaseException] = None
    hook = make_cell_hook(dims, workdir)
    with contextlib.ExitStack() as hooks:
        if hook is not None:
            executor.install_cell_chaos(hook)
            hooks.callback(executor.install_cell_chaos, None)
        if dims.fs_rule is not None:
            rule = dims.fs_rule
            # Context-scoped (not set/reset by hand): the wrapper is
            # restored even when the sweep dies, so a crashed chaos run
            # can never leave fs faults armed for the next phase.
            hooks.enter_context(harness.journal_wrapper(
                lambda fh: FaultyFile(fh, rule)))
        try:
            chaos_result = run_sweep(
                fault_plan=full_plan, checkpoint=checkpoint,
                parallel=spec.jobs, retry_limit=spec.retry_limit,
                **sweep_args)
        except TYPED_ERRORS as err:
            chaos_error = err
    report.phases.append(PhaseOutcome(
        "chaos", chaos_error is None,
        error=None if chaos_error is None else
        f"{type(chaos_error).__name__}: {chaos_error}",
        detail=_stats_summary(chaos_result)))

    # Phase 3: corrupt an interior journal record (simulated bit rot).
    damage: Optional[dict] = None
    if dims.corrupt:
        damage = corrupt_journal(checkpoint, spec.seed)
    report.phases.append(PhaseOutcome(
        "corrupt", True,
        detail=damage or {"skipped": "journal too short to corrupt"}))

    # Phase 4: resume with chaos disarmed; must heal everything.
    resumed: Optional[ExperimentResult] = None
    resume_error: Optional[BaseException] = None
    try:
        resumed = run_sweep(fault_plan=ref_plan, checkpoint=checkpoint,
                            parallel=1, **sweep_args)
    except TYPED_ERRORS as err:  # pragma: no cover - an oracle will fail
        resume_error = err
    report.phases.append(PhaseOutcome(
        "resume", resume_error is None,
        error=None if resume_error is None else
        f"{type(resume_error).__name__}: {resume_error}",
        detail=_stats_summary(resumed)))

    # Phase 5: run the grid twice on one result cache.  The second run
    # reopens the journal the first one closed, so losing the process
    # between sweeps must never lose results.
    cached: Optional[ExperimentResult] = None
    reopened: Optional[ExperimentResult] = None
    if dims.restart:
        cache = os.path.join(workdir, f"cache_{spec.seed}.json")
        cache_error: Optional[BaseException] = None
        try:
            cached = run_sweep(fault_plan=ref_plan, cache=cache,
                               parallel=spec.jobs, **sweep_args)
            reopened = run_sweep(fault_plan=ref_plan, cache=cache,
                                 parallel=spec.jobs, **sweep_args)
        except TYPED_ERRORS as err:  # pragma: no cover - oracle will fail
            cache_error = err
        report.phases.append(PhaseOutcome(
            "cache-reopen", cache_error is None,
            error=None if cache_error is None else
            f"{type(cache_error).__name__}: {cache_error}",
            detail=_stats_summary(reopened)))

    # Oracles.
    report.oracles.append(check_identity(reference, resumed))
    report.oracles.append(
        check_chaos_cells(reference, chaos_result, dims, substrate))
    report.oracles.append(check_typed_abort(chaos_error, dims))
    report.oracles.append(
        check_journal(checkpoint, after_resume=resume_error is None))
    knem_stack = next((s for s in stacks if "KNEM" in s.name), stacks[-1])
    report.oracles.append(check_sanitizer(
        spec.machine, spec.operation, spec.nprocs, knem_stack,
        max(sizes), ref_plan))
    report.oracles.append(check_pool_bounds(
        chaos_result, dims, len(keys), spec.retry_limit))
    if dims.restart:
        report.oracles.append(check_cache_reopen(reference, cached, reopened))
    if damage is not None:
        detected = resumed is not None and resumed.stats is not None and (
            resumed.stats.journal_skipped >= 1)
        report.oracles.append(OracleVerdict(
            "corrupt-recovery", detected,
            "corrupt record skipped and recomputed on resume" if detected
            else "resume did not report the corrupted record"))
    report.stats = {
        "chaos": _stats_summary(chaos_result),
        "resume": _stats_summary(resumed),
    }
    return report
