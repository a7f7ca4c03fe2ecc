"""Cohort dispatch vs the scalar event loop (TestCohortDispatch).

``Simulator(cohort=True)`` drains every event ready at one instant as a
batch before running callbacks — the fast path ``REPRO_VECTOR`` selects.
The contract is *indistinguishability*: dispatch order, clock values,
counters, failure surfacing, and deadlock diagnostics must match the
scalar loop exactly; only ``cohorts_dispatched``/``max_cohort`` may reveal
which loop ran.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import vector
from repro.errors import DeadlockError, SimulationError
from repro.simtime import Simulator


def fire_trace(cohort: bool, delays):
    """Schedule one callback per delay; returns [(now, index)...] in
    dispatch order plus the simulator for counter checks."""
    sim = Simulator(cohort=cohort)
    fired = []
    for i, d in enumerate(delays):
        sim.schedule(d, lambda i=i: fired.append((sim.now, i)))
    sim.run()
    return fired, sim


class TestCohortDispatch:
    @given(delays=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1, max_size=60))
    @settings(max_examples=100)
    def test_dispatch_order_and_counters_match_scalar(self, delays):
        # Round to one decimal so same-instant collisions (real cohorts)
        # are common.
        delays = [round(d, 1) for d in delays]
        scalar, s_sim = fire_trace(False, delays)
        cohort, c_sim = fire_trace(True, delays)
        assert cohort == scalar
        assert c_sim.now == s_sim.now
        assert c_sim.events_processed == s_sim.events_processed
        assert c_sim.peak_heap == s_sim.peak_heap
        assert c_sim.cohorts_dispatched >= 1
        assert s_sim.cohorts_dispatched == 0

    @given(segments=st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 8)),
        min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_process_chains_resume_identically(self, segments):
        # Chains of identical quantized timeouts: every hop of every chain
        # collides with its siblings, the worst case for batching bugs.
        def run(cohort: bool):
            sim = Simulator(cohort=cohort)
            log = []

            def chain(cid, start, hops):
                yield sim.timeout(float(start))
                for h in range(hops):
                    log.append((cid, h, sim.now))
                    yield sim.timeout(0.5)

            for cid, (start, hops) in enumerate(segments):
                sim.process(chain(cid, start, hops))
            sim.run()
            return log, sim.stats

        assert run(False) == run(True)

    def test_same_instant_event_from_callback_lands_after_cohort(self):
        # A callback scheduling a zero-delay event must see it dispatched
        # at the same instant but *after* the already-queued batch — the
        # scalar heap order.
        def run(cohort: bool):
            sim = Simulator(cohort=cohort)
            order = []

            def spawn():
                order.append("spawn")
                sim.schedule(0.0, lambda: order.append("child"))

            sim.schedule(1.0, spawn)
            sim.schedule(1.0, lambda: order.append("sibling"))
            sim.run()
            return order

        assert run(True) == run(False) == ["spawn", "sibling", "child"]

    def test_max_cohort_records_widest_batch(self):
        sim = Simulator(cohort=True)
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.max_cohort == 5
        assert sim.cohorts_dispatched == 2

    def test_singleton_only_run_reports_max_cohort_one(self):
        sim = Simulator(cohort=True)
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.cohorts_dispatched == 2
        assert sim.max_cohort == 1

    def test_stats_dict_shape_is_mode_independent(self):
        # --verbose prints sim.stats; the cohort counters live on the
        # simulator, not in the dict, so serial/parallel renders match.
        assert Simulator(cohort=True).stats.keys() == \
               Simulator(cohort=False).stats.keys()


class TestCohortFailures:
    @pytest.mark.parametrize("cohort", [False, True])
    def test_unwaited_failure_surfaces_and_loses_no_events(self, cohort):
        sim = Simulator(cohort=cohort)
        fired = []
        # Four events at the same instant (one cohort): a callback, the
        # failing event, then two more whose callbacks have not run when
        # the failure surfaces — they must survive for the next run().
        sim.schedule(0.0, lambda: fired.append("before"))
        sim.event(name="boom").fail(RuntimeError("boom"))
        sim.schedule(0.0, lambda: fired.append("after-1"))
        sim.schedule(0.0, lambda: fired.append("after-2"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert fired == ["before"]
        sim.run()  # the surviving same-instant events re-dispatch
        assert fired == ["before", "after-1", "after-2"]

    @pytest.mark.parametrize("cohort", [False, True])
    def test_raising_callback_requeues_undispatched_cohort_rest(
            self, cohort):
        sim = Simulator(cohort=cohort)
        fired = []

        def bad():
            raise SimulationError("callback exploded")

        sim.schedule(1.0, lambda: fired.append(0))
        sim.schedule(1.0, bad)
        sim.schedule(1.0, lambda: fired.append(2))
        with pytest.raises(SimulationError, match="exploded"):
            sim.run()
        assert fired == [0]
        sim.run()
        assert fired == [0, 2]

    @pytest.mark.parametrize("cohort", [False, True])
    def test_deadlock_diagnostics_identical(self, cohort):
        sim = Simulator(cohort=cohort)

        def waiter():
            yield sim.event(name="never")

        sim.process(waiter(), name="stuck")
        with pytest.raises(DeadlockError) as err:
            sim.run()
        assert "stuck" in str(err.value)


class TestHeterogeneousCohorts:
    """Same-instant cohorts mixing event *kinds*.

    The fused dispatch splits a cohort into a timer-lane part (fresh
    timeouts) and a heap part (signalled events, process completions) and
    merges them by sequence number; these properties drive all the kinds
    into the same instants and demand the scalar loop's observable
    behavior — log order, clock values, counters — bit for bit.
    """

    @given(actors=st.lists(st.tuples(
        st.sampled_from(["timer", "signal", "crash"]),
        st.integers(0, 3),      # quantized start instant
        st.integers(1, 4)),     # chain hops (timers) / payload (others)
        min_size=2, max_size=14))
    @settings(max_examples=60, deadline=None)
    def test_mixed_kind_cohorts_match_scalar(self, actors):
        # Timer chains (the timer lane), events succeeded by peers (the
        # heap), and crashing processes caught by watchers (failure
        # propagation) all collide at the same quantized instants.
        def run(cohort: bool):
            sim = Simulator(cohort=cohort)
            log = []
            for aid, (kind, start, hops) in enumerate(actors):
                if kind == "timer":
                    def chain(aid=aid, start=start, hops=hops):
                        yield sim.timeout(float(start))
                        for h in range(hops):
                            log.append(("t", aid, h, sim.now))
                            yield sim.timeout(0.5)
                    sim.process(chain())
                elif kind == "signal":
                    ev = sim.event(name=f"sig{aid}")

                    def poker(ev=ev, start=start, aid=aid):
                        yield sim.timeout(float(start))
                        ev.succeed(aid)

                    def waiter(ev=ev, aid=aid):
                        got = yield ev
                        log.append(("s", aid, got, sim.now))

                    sim.process(poker())
                    sim.process(waiter())
                else:
                    def crasher(aid=aid, start=start):
                        yield sim.timeout(float(start))
                        raise RuntimeError(f"crash-{aid}")

                    victim = sim.process(crasher(), name=f"victim{aid}")

                    def watcher(victim=victim, aid=aid):
                        try:
                            yield victim
                        except RuntimeError as err:
                            log.append(("c", aid, str(err), sim.now))

                    sim.process(watcher())
            sim.run()
            return log, sim.now, sim.stats

        assert run(False) == run(True)

    @given(timers=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)),
                           min_size=1, max_size=8),
           crash_at=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_unwatched_crash_mid_cohort_leaves_identical_state(
            self, timers, crash_at):
        # An *unwatched* process failure surfaces from run() mid-cohort;
        # the queue it leaves behind (requeued survivors included) and a
        # follow-up run() must match the scalar loop exactly.
        def run(cohort: bool):
            sim = Simulator(cohort=cohort)
            log = []

            def chain(cid, start, hops):
                yield sim.timeout(float(start))
                for h in range(hops):
                    log.append((cid, h, sim.now))
                    yield sim.timeout(0.5)

            def crasher():
                yield sim.timeout(float(crash_at))
                raise RuntimeError("boom")

            for cid, (start, hops) in enumerate(timers):
                sim.process(chain(cid, start, hops))
            sim.process(crasher(), name="crasher")
            with pytest.raises(RuntimeError, match="boom"):
                sim.run()
            mid = (list(log), sim.now, sim.queue_size, sim.stats)
            sim.run()  # survivors drain; must complete identically
            return mid, log, sim.now, sim.stats

        assert run(False) == run(True)

    @given(flows=st.lists(st.tuples(
        st.integers(1, 4),       # nbytes (integer -> half-step completions)
        st.integers(0, 2),       # start instant
        st.booleans()),          # also ride the shared resource
        min_size=1, max_size=6),
        timers=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)),
                        min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_flow_completions_mixed_with_timers_match_scalar(
            self, flows, timers):
        # Real flow-network completions (heap events) landing at the same
        # instants as timer-lane chains.
        from repro.hardware.flows import FlowNetwork, Resource

        def run(cohort: bool):
            sim = Simulator(cohort=cohort)
            net = FlowNetwork(sim)
            shared = Resource("shared", capacity=4.0)
            log = []

            def one_flow(fid, nbytes, start, ride_shared):
                own = Resource(f"own{fid}", capacity=2.0)
                weights = {own: 1.0}
                if ride_shared:
                    weights[shared] = 1.0
                yield sim.timeout(float(start))
                yield net.transfer(float(nbytes), demand=100.0,
                                   weights=weights, label=f"f{fid}")
                log.append(("f", fid, sim.now))

            def chain(cid, start, hops):
                yield sim.timeout(float(start))
                for h in range(hops):
                    log.append(("t", cid, h, sim.now))
                    yield sim.timeout(0.5)

            for fid, (nbytes, start, ride) in enumerate(flows):
                sim.process(one_flow(fid, nbytes, start, ride))
            for cid, (start, hops) in enumerate(timers):
                sim.process(chain(cid, start, hops))
            sim.run()
            return (log, sim.now, net.completed_flows, net.completed_bytes,
                    sim.stats)

        assert run(True) == run(False)


class TestCohortFlag:
    def test_default_follows_process_flag(self):
        with vector.forced(True):
            assert Simulator().cohort is True
        with vector.forced(False):
            assert Simulator().cohort is False

    def test_explicit_argument_pins_the_mode(self):
        with vector.forced(True):
            assert Simulator(cohort=False).cohort is False
        with vector.forced(False):
            assert Simulator(cohort=True).cohort is True
