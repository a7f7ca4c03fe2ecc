"""The content-addressed result cache of ``run_sweep(cache=PATH)``.

A cached sweep is a local sweep, byte for byte: serial, warm-pool
parallel, cache-cold and cache-warm runs of one grid write identical
CSVs, and a warm repeat runs no cell at all.  The cache is a format-3
journal handled by the same code as the sweep checkpoint, so it inherits
that code's contract: it survives reopening, a corrupt record is a miss,
a second writer and a foreign journal are refused, and a failed append
is counted and reported without changing any result.
"""

from __future__ import annotations

import multiprocessing

import pytest

import repro.bench.executor as executor
import repro.bench.harness as harness
from repro.bench.cli import main as bench_main
from repro.bench.harness import (
    acquire_journal_lease,
    cache_key,
    run_sweep,
    verify_journal,
)
from repro.bench.imb import ImbSettings
from repro.chaos.fsfaults import FaultyFile, FsFaultRule
from repro.errors import BenchmarkError
from repro.faults.plan import FaultPlan, FaultRule
from repro.mpi import stacks
from repro.units import KiB

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="warm-pool paths need the fork start method")

SETTINGS = ImbSettings(max_iterations=1, warmups=0)
GRID = dict(
    machine="dancer", operation="bcast", nprocs=4,
    stacks=[stacks.TUNED_SM, stacks.KNEM_COLL],
    sizes=[32 * KiB, 128 * KiB], settings=SETTINGS)
N_CELLS = 4


def sweep(experiment="cache", **overrides):
    return run_sweep(experiment=experiment, **{**GRID, **overrides})


def times(result):
    return {s.name: dict(s.times) for s in result.series}


def csv_bytes(result, path):
    return open(result.to_csv(str(path)), "rb").read()


def no_cell_may_run(*args, **kwargs):
    raise AssertionError("a cell ran although the cache held it")


class Counter:
    """Counts cells that really run, delegating to the real measurement."""

    def __init__(self):
        self.real = harness.imb_time
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.real(*args, **kwargs)


@pytest.fixture(scope="module")
def serial():
    return sweep()


@pytest.fixture
def cache(tmp_path):
    return str(tmp_path / "cache.json")


class TestEquivalence:
    @needs_fork
    def test_serial_parallel_cold_and_warm_are_byte_identical(
            self, serial, cache, tmp_path, monkeypatch):
        parallel = sweep(parallel=2)
        cold = sweep(cache=cache, parallel=2)
        monkeypatch.setattr(harness, "imb_time", no_cell_may_run)
        warm = sweep(cache=cache)
        blobs = {csv_bytes(r, tmp_path / f"{name}.csv")
                 for name, r in (("serial", serial), ("parallel", parallel),
                                 ("cold", cold), ("warm", warm))}
        assert len(blobs) == 1
        assert (cold.stats.cells_run, cold.stats.cache_hits) == (N_CELLS, 0)
        assert (warm.stats.cells_run, warm.stats.cache_hits) == (0, N_CELLS)

    def test_cached_equals_serial_byte_identical_csv(self, serial, cache,
                                                     tmp_path):
        cached = sweep(cache=cache)
        assert times(cached) == times(serial)
        assert (csv_bytes(cached, tmp_path / "cached.csv")
                == csv_bytes(serial, tmp_path / "serial.csv"))
        assert (cached.stats.cells_run, cached.stats.cache_hits) == (N_CELLS, 0)

    def test_warm_repeat_is_all_hits_and_runs_nothing(
            self, serial, cache, monkeypatch):
        sweep(cache=cache)
        counter = Counter()
        monkeypatch.setattr(harness, "imb_time", counter)
        again = sweep(cache=cache)
        assert counter.calls == 0
        assert again.stats.cache_hits == N_CELLS
        assert again.stats.cells_run == 0
        assert times(again) == times(serial)
        assert "cache: 4 hit(s)" in again.stats.render()

    def test_one_cache_serves_overlapping_grids(self, serial, cache,
                                                monkeypatch):
        sweep(cache=cache, sizes=[32 * KiB])
        counter = Counter()
        monkeypatch.setattr(harness, "imb_time", counter)
        full = sweep(cache=cache, experiment="other")
        assert counter.calls == 2          # only the 128K column ran
        assert full.stats.cache_hits == 2
        assert times(full) == times(serial)

    def test_cache_hits_are_journaled_into_the_checkpoint(
            self, serial, cache, tmp_path, monkeypatch):
        sweep(cache=cache)
        checkpoint = str(tmp_path / "sweep.checkpoint.json")
        monkeypatch.setattr(harness, "imb_time", no_cell_may_run)
        sweep(cache=cache, checkpoint=checkpoint)
        resumed = sweep(checkpoint=checkpoint)
        assert resumed.stats.cells_resumed == N_CELLS
        assert times(resumed) == times(serial)


class TestCacheKey:
    PLAN = FaultPlan([FaultRule(op="copy", probability=0.5, sticky=True)],
                     seed=99)
    SETTINGS = ImbSettings(max_iterations=3, warmups=1, fault_plan=PLAN)
    CTX = ("dancer", "bcast", 4, SETTINGS)

    def key(self, stack=stacks.TUNED_SM, size=4096, ctx=None):
        machine, op, nprocs, settings = ctx or self.CTX
        return cache_key(machine, op, nprocs, settings, stack, size)

    def test_deterministic(self):
        assert self.key() == self.key()
        assert len(self.key()) == 32  # blake2b-128 hex

    def test_every_input_is_part_of_the_identity(self):
        base = self.key()
        s = self.SETTINGS
        variants = [
            self.key(size=8192),
            self.key(stack=stacks.KNEM_COLL),
            self.key(stack=stacks.TUNED_SM.with_tuning(pipeline=False)),
            self.key(ctx=("zoot", "bcast", 4, s)),
            self.key(ctx=("dancer", "gather", 4, s)),
            self.key(ctx=("dancer", "bcast", 8, s)),
            self.key(ctx=("dancer", "bcast", 4, ImbSettings(
                max_iterations=3, warmups=1,
                fault_plan=FaultPlan(self.PLAN.rules, seed=100)))),
            self.key(ctx=("dancer", "bcast", 4, ImbSettings(
                max_iterations=3, warmups=1))),
            self.key(ctx=("dancer", "bcast", 4, ImbSettings(
                max_iterations=4, warmups=1, fault_plan=self.PLAN))),
            self.key(ctx=("dancer", "bcast", 4, ImbSettings(
                max_iterations=3, warmups=1, root=1,
                fault_plan=self.PLAN))),
        ]
        assert base not in variants
        assert len(set(variants)) == len(variants)


class TestJournal:
    def test_durable_across_reopen(self, serial, cache):
        sweep(cache=cache)
        report = verify_journal(cache)
        assert report.ok and len(report.cells) == N_CELLS
        assert report.header == harness._CACHE_HEADER
        reopened = sweep(cache=cache)
        assert reopened.stats.cache_hits == N_CELLS
        assert times(reopened) == times(serial)

    @needs_fork
    def test_restart_persists_the_durable_cache(self, serial, cache,
                                                monkeypatch):
        # The writer is another process that has exited, lease and all; a
        # new sweep on the same journal starts warm.
        writer = multiprocessing.get_context("fork").Process(
            target=sweep, kwargs=dict(cache=cache))
        writer.start()
        writer.join(timeout=120)
        assert writer.exitcode == 0
        monkeypatch.setattr(harness, "imb_time", no_cell_may_run)
        revived = sweep(cache=cache)
        assert (revived.stats.cells_run, revived.stats.cache_hits) == (
            0, N_CELLS)
        assert times(revived) == times(serial)
        assert len(verify_journal(cache).cells) == N_CELLS

    def test_corrupt_record_is_a_miss_not_an_error(self, serial, cache,
                                                   monkeypatch):
        sweep(cache=cache)
        raw = open(cache).read().splitlines()
        raw[2] = raw[2].replace('"t"', '"x"')  # interior record, corrupted
        open(cache, "w").write("\n".join(raw) + "\n")
        counter = Counter()
        monkeypatch.setattr(harness, "imb_time", counter)
        healed = sweep(cache=cache)
        assert counter.calls == 1
        assert healed.stats.journal_skipped == 1
        assert healed.stats.cache_hits == N_CELLS - 1
        assert times(healed) == times(serial)
        # compaction dropped the bad line; the recomputed cell was appended
        report = verify_journal(cache)
        assert report.ok and len(report.cells) == N_CELLS

    def test_second_writer_is_refused(self, cache):
        with acquire_journal_lease(cache):
            with pytest.raises(BenchmarkError, match="locked"):
                sweep(cache=cache)

    def test_foreign_journal_is_refused(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.checkpoint.json")
        sweep(checkpoint=checkpoint)
        with pytest.raises(BenchmarkError, match="different sweep"):
            sweep(cache=checkpoint)

    def test_failed_append_is_counted_and_changes_no_result(
            self, serial, cache, monkeypatch):
        with harness.journal_wrapper(
                lambda fh: FaultyFile(fh, FsFaultRule(1, "eio"))):
            result = sweep(cache=cache)
        assert times(result) == times(serial)
        assert result.stats.journal_errors == 1
        errors = [ev for ev in result.stats.events
                  if ev.category == "journal.error"]
        assert len(errors) == 1 and errors[0].fields["path"] == cache
        # Only the append before the fault reached the cache.
        counter = Counter()
        monkeypatch.setattr(harness, "imb_time", counter)
        again = sweep(cache=cache)
        assert (again.stats.cache_hits, counter.calls) == (1, N_CELLS - 1)
        assert times(again) == times(serial)


def fake_imb_time(machine, stack, nprocs, operation, size, settings):
    """Deterministic stand-in measurement (fast; distinct per cell)."""
    return (size * 1e-9 + len(stack.name) * 1e-6 + nprocs * 1e-7
            + len(operation) * 1e-8)


class TestCli:
    ARGS = ["all", "--machine", "dancer", "--scale", "smoke", "--csv"]

    def run_all(self, tmp_path, monkeypatch, name, *extra):
        out = tmp_path / name
        out.mkdir()
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(out))
        assert bench_main(self.ARGS + list(extra)) == 0
        return {p.name: p.read_bytes() for p in out.glob("*.csv")}

    @needs_fork
    def test_all_jobs_with_cache_runs_experiments_in_turn(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "imb_time", fake_imb_time)
        serial = self.run_all(tmp_path, monkeypatch, "serial")
        # With --cache only this process may hold the cache lease, so the
        # experiments must not be fanned to worker processes.
        monkeypatch.setattr(executor, "run_experiments", None)
        cache = str(tmp_path / "cache.json")
        cold = self.run_all(tmp_path, monkeypatch, "cold",
                            "--jobs", "2", "--cache", cache)
        monkeypatch.setattr(harness, "imb_time", no_cell_may_run)
        warm = self.run_all(tmp_path, monkeypatch, "warm",
                            "--jobs", "2", "--cache", cache)
        assert len(serial) == 9
        assert serial == cold == warm

    def test_table1_rejects_cache(self, capsys):
        with pytest.raises(SystemExit) as err:
            bench_main(["table1", "--cache", "x.json"])
        assert err.value.code == 2
        assert "--cache" in capsys.readouterr().err
