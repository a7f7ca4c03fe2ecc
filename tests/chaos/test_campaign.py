"""Acceptance tests for the chaos-campaign engine (ISSUE 8 tentpole).

The headline test runs a fixed-seed campaign that injects, in one sweep:
a deterministic poison cell (kills every worker that touches it), a
transient mid-sweep worker death, and one interior corrupt journal
record — and checks the campaign converts all of it into the invariants
the substrate promises: typed ``CellAborted`` quarantine (no hang,
bounded respawns), ``--resume`` recovering the corrupt record by
recomputation to reference-identical bytes, and KNEM-San reporting zero
findings and zero live regions.

``TestPrePrBehaviour`` is the regression demonstration the acceptance
criteria call for: the same poison workload driven with the quarantine
ladder *disabled* (``retry_limit=None`` — the pre-quarantine executor's
requeue-forever behaviour) never converges within a generous bounded
step budget, while any finite budget converges and yields the typed
abort.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.bench.chunking import CellAborted, ChunkScheduler
from repro.chaos import CampaignSpec, derive_dimensions, run_campaign
from repro.chaos.campaign import _resolve_stacks
from repro.chaos.cli import main as chaos_main
from repro.chaos.fsfaults import FaultyFile, FsFaultRule
from repro.chaos.injections import build_fault_plan, corrupt_journal
from repro.chaos.seeds import coin, derive, pick, uniform
from repro.errors import BenchmarkError

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="warm-pool chaos needs the fork start method")

#: the fixed acceptance seed; dimension forcing (not the seed's coins)
#: decides what injects, so the scenario is stable by construction.
SEED = 1

ACCEPTANCE = CampaignSpec(
    seed=SEED,
    jobs=2,
    retry_limit=2,
    poison=True,    # deterministic poison cell -> quarantine
    deaths=True,    # one transient mid-sweep worker death
    corrupt=True,   # one interior journal record bit-flipped
    crash=False,    # the sweep must complete (typed-abort arm is
                    # exercised by its own test below)
    fsfault=False,  # keep the journal complete so `corrupt` has an
                    # interior record to hit
    restart=False,  # the cache-reopen arm has its own test class
)


def oracle_map(report):
    return {o.name: o for o in report.oracles}


@needs_fork
class TestAcceptanceCampaign:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("chaos")
        return run_campaign(ACCEPTANCE, str(workdir))

    def test_campaign_passes_every_oracle(self, report):
        assert report.ok, report.render()
        assert {o.name for o in report.oracles} == {
            "identity", "chaos-cells", "typed-abort", "journal",
            "knem-san", "pool", "corrupt-recovery"}

    def test_dimensions_injected_what_the_scenario_needs(self, report):
        dims = report.dimensions
        assert dims["poison_key"] is not None
        assert len(dims["death_keys"]) == 1
        assert dims["corrupt_journal"] is True
        assert dims["crash"] is False

    def test_poison_cell_quarantined_typed_with_bounded_respawns(
            self, report):
        chaos = next(p for p in report.phases if p.name == "chaos")
        assert chaos.ok  # completed — no hang, no whole-sweep abort
        assert chaos.detail["cells_aborted"] == 1
        assert chaos.detail["chunks_quarantined"] >= 1
        # poison died retry_limit times, the transient death once:
        assert chaos.detail["pool_respawns"] == ACCEPTANCE.retry_limit + 1
        pool = oracle_map(report)["pool"]
        assert pool.ok and "within budget" in pool.detail

    def test_corrupt_record_recovered_by_recompute_on_resume(self, report):
        corrupt = next(p for p in report.phases if p.name == "corrupt")
        assert "lineno" in corrupt.detail  # a record really was flipped
        resume = next(p for p in report.phases if p.name == "resume")
        assert resume.ok
        assert resume.detail["journal_skipped"] >= 1
        om = oracle_map(report)
        assert om["corrupt-recovery"].ok
        assert om["identity"].ok  # resumed bytes == fault-free reference
        assert om["journal"].ok   # and the journal healed on disk

    def test_knem_san_zero_leaks_under_the_campaign_plan(self, report):
        verdict = oracle_map(report)["knem-san"]
        assert verdict.ok
        assert "zero findings, zero live regions" in verdict.detail

    def test_report_is_json_round_trippable(self, report):
        payload = json.loads(report.to_json())
        assert payload["ok"] is True
        assert payload["seed"] == SEED
        assert len(payload["phases"]) == 4
        assert "PASS" in report.render()


@needs_fork
class TestTypedAbortArm:
    def test_crash_dimension_ends_in_a_typed_abort_and_still_passes(
            self, tmp_path):
        spec = CampaignSpec(seed=3, jobs=2, crash=True, poison=False,
                            deaths=False, fsfault=False, corrupt=False)
        report = run_campaign(spec, str(tmp_path))
        assert report.ok, report.render()
        chaos = next(p for p in report.phases if p.name == "chaos")
        assert not chaos.ok and "RankFailed" in chaos.error
        assert oracle_map(report)["typed-abort"].ok

    def test_serial_substrate_masks_worker_death_dimensions(self, tmp_path):
        spec = CampaignSpec(seed=SEED, jobs=1, poison=True, deaths=True,
                            crash=False, fsfault=False, corrupt=True)
        report = run_campaign(spec, str(tmp_path))
        assert report.ok, report.render()
        assert report.dimensions["poison_key"] is None
        assert report.dimensions["death_keys"] == []


class TestCacheReopenArm:
    """The ``restart`` dimension: run the grid twice on one result-cache
    journal; the second run reopens what the first one closed.  Serial
    substrate (jobs=1) keeps the arm fork-free, so it runs everywhere."""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        spec = CampaignSpec(
            seed=11, jobs=1, restart=True, crash=False, poison=False,
            deaths=False, fsfault=False, corrupt=False, knem=True,
            stall=False)
        workdir = tmp_path_factory.mktemp("chaos-reopen")
        return run_campaign(spec, str(workdir))

    def test_reopen_campaign_passes_every_oracle(self, report):
        assert report.ok, report.render()
        assert report.dimensions["cache_reopen"] is True
        assert "cache-reopen" in oracle_map(report)

    def test_reopened_grid_was_all_cache_hits(self, report):
        phase = next(p for p in report.phases if p.name == "cache-reopen")
        assert phase.ok, phase.error
        # Phase detail carries the *reopened* run's counters: every cell
        # came from the cache and none ran.
        assert phase.detail["cells_run"] == 0
        assert phase.detail["cache_hits"] == 4
        verdict = oracle_map(report)["cache-reopen"]
        assert verdict.ok, verdict.detail
        assert "answered from the reopened cache" in verdict.detail

    def test_phase_list_includes_the_fifth_phase(self, report):
        assert [p.name for p in report.phases] == [
            "reference", "chaos", "corrupt", "resume", "cache-reopen"]


class TestPrePrBehaviour:
    """The pre-quarantine executor requeues a poison cell forever.

    Driven against the pure scheduler core with a generous bounded step
    budget (the real pre-PR executor would burn one worker respawn per
    step, forever) — this test fails on the old behaviour when the ladder
    is what's disabled, and passes only because the budgeted scheduler
    converges.
    """

    N, POISON, STEPS = 6, 3, 300

    def drive(self, sched):
        steps = 0
        while not sched.finished and steps < self.STEPS:
            steps += 1
            chunk = sched.next_chunk()
            assert chunk is not None, "scheduler stalled"
            if self.POISON in chunk.cells:
                for cell in chunk.cells:
                    if cell != self.POISON:
                        sched.record(cell, float(cell))
                sched.fail(chunk.id)
                sched.drain_aborted()
            else:
                for cell in chunk.cells:
                    sched.record(cell, float(cell))
                sched.complete(chunk.id)
        return steps

    def test_without_the_ladder_the_poison_sweep_never_converges(self):
        sched = ChunkScheduler([1.0] * self.N, workers=2, retry_limit=None)
        steps = self.drive(sched)
        assert steps == self.STEPS and not sched.finished
        assert sched.cells_aborted == 0  # nothing ever quarantines

    def test_with_any_finite_budget_it_converges_to_a_typed_abort(self):
        sched = ChunkScheduler([1.0] * self.N, workers=2, retry_limit=2)
        steps = self.drive(sched)
        assert sched.finished and steps < self.STEPS
        assert isinstance(sched.results()[self.POISON], CellAborted)
        assert sched.cells_aborted == 1


class TestDeterminism:
    def test_same_seed_same_dimensions(self):
        keys = [f"{s.name}|{size}"
                for s in _resolve_stacks(ACCEPTANCE.stacks)
                for size in ACCEPTANCE.sizes]
        a = derive_dimensions(SEED, keys, poison=True, deaths=True)
        b = derive_dimensions(SEED, keys, poison=True, deaths=True)
        assert a == b
        plan_a = build_fault_plan(a)
        plan_b = build_fault_plan(b)
        assert (plan_a is None) == (plan_b is None)
        if plan_a is not None:
            assert plan_a.rules == plan_b.rules
            assert plan_a.seed == plan_b.seed

    def test_seed_helpers_are_stable_and_dimension_scoped(self):
        assert derive(7, "x") == derive(7, "x")
        assert derive(7, "x") != derive(7, "y")
        assert derive(7, "x", 0) != derive(7, "x", 1)
        assert 0.0 <= uniform(7, "u") < 1.0
        assert coin(7, "c", 1.0) is True
        assert coin(7, "c", 0.0) is False
        assert pick(7, "p", ["only"]) == "only"

    def test_corrupt_journal_hits_an_interior_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = ['{"format": 3}'] + [f'{{"cell": {i}}}' for i in range(4)]
        path.write_text("\n".join(lines) + "\n")
        damage = corrupt_journal(str(path), seed=5)
        after = path.read_text().splitlines()
        assert 2 <= damage["lineno"] <= len(lines) - 1  # interior only
        assert after[0] == lines[0]          # header untouched
        assert after[-1] == lines[-1]        # final line untouched
        assert after[damage["lineno"] - 1] != lines[damage["lineno"] - 1]
        assert len(after) == len(lines)      # no record split in two

    def test_corrupt_journal_skips_headerless_stubs(self, tmp_path):
        path = tmp_path / "stub.jsonl"
        path.write_text('{"format": 3}\n')
        assert corrupt_journal(str(path), seed=5) is None
        assert corrupt_journal(str(tmp_path / "missing"), seed=5) is None


class TestFsFaults:
    def test_modes_fire_once_after_the_budgeted_writes(self, tmp_path):
        for mode in ("eio", "enospc"):
            target = tmp_path / f"{mode}.txt"
            fh = FaultyFile(open(target, "w"), FsFaultRule(1, mode))
            fh.write("first\n")
            with pytest.raises(OSError):
                fh.write("second\n")
            assert fh.fired
            fh.close()
            assert target.read_text() == "first\n"

    def test_short_write_leaves_a_torn_prefix_then_raises(self, tmp_path):
        target = tmp_path / "short.txt"
        fh = FaultyFile(open(target, "w"), FsFaultRule(0, "short"))
        with pytest.raises(OSError):
            fh.write("0123456789")
        fh.close()
        assert target.read_text() == "01234"  # the torn half-record

    def test_unknown_mode_rejected(self):
        with pytest.raises(BenchmarkError):
            FsFaultRule(0, "gremlins")


@needs_fork
class TestCli:
    def test_acceptance_invocation_exits_zero_and_writes_report(
            self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = chaos_main([
            "--seed", str(SEED), "--jobs", "2", "--retry-limit", "2",
            "--force", "poison", "--force", "deaths", "--force", "corrupt",
            "--disable", "crash", "--disable", "fsfault",
            "--workdir", str(tmp_path / "wd"), "--out", str(out)])
        assert rc == 0
        assert f"chaos campaign seed={SEED}: PASS" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["spec"]["retry_limit"] == 2

    def test_conflicting_force_and_disable_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            chaos_main(["--force", "poison", "--disable", "poison"])
        assert err.value.code == 2
