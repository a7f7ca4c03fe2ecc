"""The journal writer lease, and the corruption it exists to prevent.

``TestWhyTheLeaseExists`` is the regression demonstration: two unleased
writers appending to one journal through buffered file handles splice
their streams into a corrupt interior record.  The rest checks the lease
itself (typed refusal naming the holder, per-open-file-description
conflict, idempotent release) and that ``run_sweep`` holds it for the
duration of a checkpointed sweep.

``TestContextScopedHooks`` covers the companion shared-state fix: the
journal-wrapper and profile-dir hooks are :mod:`contextvars`-scoped, so
one thread's hook can never leak into another thread's sweep, and a crash
inside the scope cannot leave the hook armed.
"""

from __future__ import annotations

import threading

import pytest

from repro.bench import harness
from repro.bench.harness import (
    acquire_journal_lease,
    run_sweep,
    verify_journal,
)
from repro.bench.imb import ImbSettings
from repro.errors import BenchmarkError
from repro.mpi import stacks
from repro.units import KiB

pytestmark = pytest.mark.skipif(
    harness.fcntl is None, reason="the journal lease needs fcntl.flock")


def seeded_journal(path) -> str:
    """A valid two-record format-3 journal on disk."""
    with open(path, "w") as fh:
        fh.write('{"format": 3, "header": null}\n')
        fh.write(harness._journal_line("a|1024", 0.25))
        fh.write(harness._journal_line("b|1024", 0.5))
    return str(path)


class TestWhyTheLeaseExists:
    def test_unleased_writers_interleave_into_a_corrupt_record(
            self, tmp_path):
        """Two buffered appenders, no lease: each writes its record in two
        flushes (exactly what a large record split across a buffer
        boundary does), and the journal ends up with spliced lines that
        fail their checksums."""
        path = seeded_journal(tmp_path / "sweep.checkpoint.json")
        a, b = open(path, "a"), open(path, "a")
        line_a = harness._journal_line("writerA|2048", 1.5)
        line_b = harness._journal_line("writerB|2048", 2.5)
        # Writer A flushes half a record; writer B's append lands inside
        # it; writer A completes.  With O_APPEND each flush is atomic at
        # the file offset, but nothing orders the flushes of two writers.
        a.write(line_a[:20]); a.flush()
        b.write(line_b); b.flush()
        a.write(line_a[20:]); a.flush()
        a.close(); b.close()

        report = verify_journal(path)
        assert not report.ok
        assert len(report.cells) == 2          # the pre-existing records
        assert "writerA|2048" not in report.cells  # spliced, checksum-dead
        # Recoverable damage, not a poisoned journal: the corrupt splice
        # is skipped-and-reported and would recompute on --resume.
        assert report.skipped or report.torn_tail

    def test_the_lease_turns_that_race_into_a_typed_error(self, tmp_path):
        path = seeded_journal(tmp_path / "sweep.checkpoint.json")
        with acquire_journal_lease(path):
            with pytest.raises(BenchmarkError) as err:
                acquire_journal_lease(path)
        assert "locked by another writer" in str(err.value)
        assert "held by pid" in str(err.value)


class TestLeaseMechanics:
    def test_release_allows_reacquire(self, tmp_path):
        path = str(tmp_path / "j.checkpoint.json")
        lease = acquire_journal_lease(path)
        lease.release()
        lease.release()  # idempotent
        with acquire_journal_lease(path):
            pass

    def test_lock_lives_on_a_sidecar_not_the_journal(self, tmp_path):
        # Compaction replaces the journal inode (os.replace); an flock on
        # the journal itself would silently stop excluding anyone after
        # the first compaction.  The sidecar survives replacement.
        path = str(tmp_path / "j.checkpoint.json")
        with acquire_journal_lease(path) as lease:
            assert lease._fh is not None
            assert lease._fh.name == path + ".lock"

    def test_run_sweep_holds_the_lease_while_journaling(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.checkpoint.json")
        calls = []
        real_append = harness._journal_append

        def spying_append(fh, key, t):
            # Mid-sweep, with the journal open: a second writer must be
            # refused right now, not only at open time.
            if not calls:
                with pytest.raises(BenchmarkError, match="locked"):
                    acquire_journal_lease(checkpoint)
            calls.append(key)
            real_append(fh, key, t)

        harness._journal_append = spying_append
        try:
            run_sweep(
                experiment="lease", machine="dancer", operation="bcast",
                nprocs=4, stacks=[stacks.TUNED_SM], sizes=[32 * KiB],
                settings=ImbSettings(max_iterations=1, warmups=0),
                checkpoint=checkpoint)
        finally:
            harness._journal_append = real_append
        assert calls  # the spy really ran inside the sweep
        # ... and the lease is gone afterwards: reacquire succeeds.
        with acquire_journal_lease(checkpoint):
            pass

    def test_two_leases_on_different_journals_coexist(self, tmp_path):
        with acquire_journal_lease(str(tmp_path / "one.json")):
            with acquire_journal_lease(str(tmp_path / "two.json")):
                pass


def _identity_wrapper(fh):
    return fh


class TestContextScopedHooks:
    def test_journal_wrapper_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with harness.journal_wrapper(_identity_wrapper):
                assert harness._JOURNAL_WRAPPER.get() is _identity_wrapper
                raise RuntimeError("sweep died")
        assert harness._JOURNAL_WRAPPER.get() is None

    def test_profile_dir_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with harness.profile_dir("/tmp/prof"):
                assert harness._PROFILE_DIR.get() == "/tmp/prof"
                raise RuntimeError("sweep died")
        assert harness._PROFILE_DIR.get() is None

    def test_hooks_do_not_leak_across_threads(self):
        seen = {}

        def other_thread():
            seen["wrapper"] = harness._JOURNAL_WRAPPER.get()
            seen["profile"] = harness._PROFILE_DIR.get()

        with harness.journal_wrapper(_identity_wrapper), \
                harness.profile_dir("/tmp/prof"):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join(timeout=10)
        # A fresh thread runs in a fresh context: the hooks armed in this
        # thread are invisible there (pre-fix module globals leaked).
        assert seen == {"wrapper": None, "profile": None}

    def test_nested_scopes_restore_the_outer_value(self):
        outer = _identity_wrapper

        def inner(fh):
            return fh
        with harness.journal_wrapper(outer):
            with harness.journal_wrapper(inner):
                assert harness._JOURNAL_WRAPPER.get() is inner
            assert harness._JOURNAL_WRAPPER.get() is outer
        assert harness._JOURNAL_WRAPPER.get() is None
