"""End-to-end differential oracle for the vectorized fast path.

tests/simtime/test_cohort.py pins the event loop in isolation; this suite
closes the loop at the *observable* level a sweep or an analysis run sees:
full MPI jobs on the four paper machines must produce identical trace
streams, identical :class:`~repro.bench.imb.CellStats` counters, and
identical analyzer verdicts (static verifier clean, KNEM-San clean)
whether the scalar event loop or cohort dispatch ran underneath.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import vector
from repro.analysis.static import SingleCopySanitizer, verify_schedule
from repro.bench.imb import ImbSettings, consume_cell_stats, imb_time
from repro.errors import RankFailed
from repro.faults import FaultPlan
from repro.mpi import Job, Machine, stacks
from repro.units import KiB

NPROCS = 8
COUNT = 96 * KiB  # above KNEM-Coll's delegation threshold
FAST = ImbSettings(max_iterations=1)


def _bcast_program(proc, count):
    buf = proc.alloc_array(count, "u1")
    if proc.rank == 0:
        buf.array[:] = (np.arange(count) % 251).astype(np.uint8)
    yield from proc.comm.bcast(buf.sim, 0, count, root=0)
    ok = np.array_equal(buf.array, (np.arange(count) % 251).astype(np.uint8))
    return (proc.rank, bool(ok))


#: trace fields drawn from process-global ``itertools.count`` pools
#: (``Request._ids``, ``SimBuffer._ids``, envelope ``seq``, handshake
#: ``hb``): their absolute values depend on how many jobs ran earlier in
#: this process, so streams are compared after renumbering them by first
#: appearance.
_VOLATILE = ("req", "seq", "hb")


def _pool(key: str):
    # every ``*buf`` field names a SimBuffer id, so they share one pool;
    # the other volatile counters renumber independently
    if key == "buf" or key.endswith("_buf"):
        return "buf"
    return key if key in _VOLATILE else None


def canonical(records):
    remap: dict[str, dict] = {}
    out = []
    for rec in records:
        fields = {}
        for key, val in rec.fields.items():
            pool = _pool(key)
            if pool is not None:
                ids = remap.setdefault(pool, {})
                val = ids.setdefault(val, len(ids))
            fields[key] = val
        out.append((rec.time, rec.category, tuple(sorted(fields.items()))))
    return out


def _looping_program(proc, count):
    """Repeated broadcasts — a long-lived job for a timed crash to hit."""
    buf = proc.alloc_array(count, "u1")
    if proc.rank == 0:
        buf.array[:] = (np.arange(count) % 251).astype(np.uint8)
    for _ in range(50):
        yield from proc.comm.bcast(buf.sim, 0, count, root=0)
    return (proc.rank, True)


def run_traced_job(spec, vectorized: bool):
    """One KNEM-Coll bcast job with full tracing; returns its observables."""
    machine = Machine.build(spec, trace=True, vector=vectorized)
    job = Job(machine, nprocs=NPROCS, stack=stacks.KNEM_COLL)
    result = job.run(_bcast_program, COUNT)
    return machine, result


class TestJobTraceOracle:
    def test_trace_stream_and_counters_match_scalar(self, paper_machine):
        s_machine, s_result = run_traced_job(paper_machine, False)
        v_machine, v_result = run_traced_job(paper_machine, True)
        assert v_result.values == s_result.values
        assert all(ok for _rank, ok in s_result.values)
        assert v_result.finish_times == s_result.finish_times
        # The full trace stream: every record (category, time, fields), in
        # order — this is what repro-trace and the analyzers consume.
        assert canonical(v_machine.tracer.records) == \
            canonical(s_machine.tracer.records)
        assert v_machine.tracer.counters == s_machine.tracer.counters
        # Simulator counters, which feed CellStats and the bench journal.
        assert v_machine.sim.events_processed == s_machine.sim.events_processed
        assert v_machine.sim.process_resumes == s_machine.sim.process_resumes
        assert v_machine.sim.peak_heap == s_machine.sim.peak_heap
        assert v_machine.sim.now == s_machine.sim.now

    def test_fast_paths_actually_ran(self, paper_machine):
        v_machine, _ = run_traced_job(paper_machine, True)
        assert v_machine.sim.cohorts_dispatched >= 1
        s_machine, _ = run_traced_job(paper_machine, False)
        assert s_machine.sim.cohorts_dispatched == 0


class TestImbCellOracle:
    def test_imb_time_and_cell_stats_match(self, paper_machine):
        # The sweep's actual per-cell measurement path: the process-wide
        # flag is how the executor selects the mode, so flip it the same
        # way and demand identical timings *and* identical counters.
        with vector.forced(False):
            s_time = imb_time(paper_machine, stacks.KNEM_COLL, NPROCS,
                              "bcast", COUNT, FAST)
            s_stats = consume_cell_stats()
        with vector.forced(True):
            v_time = imb_time(paper_machine, stacks.KNEM_COLL, NPROCS,
                              "bcast", COUNT, FAST)
            v_stats = consume_cell_stats()
        assert v_time == s_time  # bitwise: this value prints into the CSV
        assert v_stats == s_stats


class TestHeterogeneousJobOracle:
    """Mixed-kind cohorts at the full-job level: a timed rank crash (a
    timer-lane deadline), in-flight flow completions (heap events), and
    the survivors' shrink-and-retry all collide inside one simulation —
    the trace stream and every counter must still match the scalar loop
    bit for bit on each paper machine."""

    @given(victim=st.integers(1, NPROCS - 1),
           crash_at=st.sampled_from([5e-5, 1e-4, 2e-4]))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_timed_crash_job_matches_scalar(self, paper_machine, victim,
                                            crash_at):
        def run(vectorized: bool):
            machine = Machine.build(paper_machine, trace=True,
                                    vector=vectorized)
            machine.arm_faults(
                FaultPlan.crash(core=victim, at_time=crash_at).fork())
            job = Job(machine, nprocs=NPROCS, stack=stacks.KNEM_COLL)
            with pytest.raises(RankFailed) as exc_info:
                job.run(_looping_program, COUNT)
            err = exc_info.value
            return machine, (err.rank, err.op), dict(job.world.dead)

        s_machine, s_err, s_dead = run(False)
        v_machine, v_err, v_dead = run(True)
        assert v_err == s_err
        assert v_dead == s_dead
        assert canonical(v_machine.tracer.records) == \
            canonical(s_machine.tracer.records)
        assert v_machine.tracer.counters == s_machine.tracer.counters
        assert v_machine.sim.events_processed == s_machine.sim.events_processed
        assert v_machine.sim.process_resumes == s_machine.sim.process_resumes
        assert v_machine.sim.peak_heap == s_machine.sim.peak_heap
        assert v_machine.sim.now == s_machine.sim.now
        # the crash actually fired, and the vector run actually vectorized
        assert s_machine.fault_plan.injected.get("rank.crash") == 1
        assert v_machine.sim.cohorts_dispatched >= 1


class TestAnalyzerOracle:
    def test_static_verifier_verdicts_unchanged(self, paper_machine):
        def verdict():
            result = verify_schedule("knem.bcast",
                                     machine=paper_machine.name,
                                     nprocs=NPROCS)
            return result.clean, result.skipped, result.receipts, [
                f.render() for f in result.findings]

        with vector.forced(False):
            scalar = verdict()
        with vector.forced(True):
            vectored = verdict()
        assert vectored == scalar
        assert scalar[0], scalar[3]  # clean on every paper machine

    def test_knem_san_clean_with_identical_times(self, paper_machine):
        def sanitized(vectorized: bool):
            machine = Machine.build(paper_machine, vector=vectorized)
            machine.arm_sanitizer(SingleCopySanitizer())
            job = Job(machine, nprocs=NPROCS, stack=stacks.KNEM_COLL)
            result = job.run(_bcast_program, COUNT)
            return machine, result

        s_machine, s_result = sanitized(False)
        v_machine, v_result = sanitized(True)
        assert s_machine.sanitizer.clean, [
            f.render() for f in s_machine.sanitizer.findings]
        assert v_machine.sanitizer.clean, [
            f.render() for f in v_machine.sanitizer.findings]
        assert v_result.values == s_result.values
        assert v_result.finish_times == s_result.finish_times
        assert v_machine.sim.now == s_machine.sim.now
