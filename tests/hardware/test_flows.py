"""Flow network: fairness, capacity, completion accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hardware.flows import FlowNetwork, Resource
from repro.simtime import Simulator


def run_transfer(sim, net, *args, **kwargs):
    times = {}

    def body(key):
        yield net.transfer(*args, **kwargs)
        times[key] = sim.now

    sim.process(body("t"))
    sim.run()
    return times["t"]


class TestSingleFlow:
    def test_rate_limited_by_demand(self, sim):
        net = FlowNetwork(sim)
        res = Resource("r", 100.0)
        t = run_transfer(sim, net, 50.0, demand=10.0, weights={res: 1.0})
        assert t == pytest.approx(5.0)

    def test_rate_limited_by_capacity(self, sim):
        net = FlowNetwork(sim)
        res = Resource("r", 5.0)
        t = run_transfer(sim, net, 50.0, demand=10.0, weights={res: 1.0})
        assert t == pytest.approx(10.0)

    def test_weight_scales_consumption(self, sim):
        net = FlowNetwork(sim)
        res = Resource("r", 10.0)
        # weight 2: the flow consumes 2 units of capacity per byte/s.
        t = run_transfer(sim, net, 50.0, demand=100.0, weights={res: 2.0})
        assert t == pytest.approx(10.0)

    def test_latency_added_before_fluid_phase(self, sim):
        net = FlowNetwork(sim)
        res = Resource("r", 10.0)
        t = run_transfer(sim, net, 100.0, demand=10.0, weights={res: 1.0},
                         latency=3.0)
        assert t == pytest.approx(13.0)

    def test_zero_bytes_is_latency_only(self, sim):
        net = FlowNetwork(sim)
        res = Resource("r", 10.0)
        t = run_transfer(sim, net, 0.0, demand=10.0, weights={res: 1.0},
                         latency=2.0)
        assert t == pytest.approx(2.0)

    def test_negative_bytes_rejected(self, sim):
        net = FlowNetwork(sim)
        with pytest.raises(SimulationError):
            net.transfer(-1.0, 1.0, {Resource("r", 1.0): 1.0})


class TestFairness:
    def test_two_equal_flows_share_equally(self, sim):
        net = FlowNetwork(sim)
        res = Resource("r", 10.0)
        done = {}

        def flow(name):
            yield net.transfer(100.0, demand=100.0, weights={res: 1.0})
            done[name] = sim.now

        sim.process(flow("a"))
        sim.process(flow("b"))
        sim.run()
        assert done["a"] == pytest.approx(20.0)
        assert done["b"] == pytest.approx(20.0)

    def test_demand_capped_flow_leaves_headroom(self, sim):
        net = FlowNetwork(sim)
        res = Resource("r", 10.0)
        done = {}

        def flow(name, demand, nbytes):
            yield net.transfer(nbytes, demand=demand, weights={res: 1.0})
            done[name] = sim.now

        # Flow a capped at 2; flow b takes the remaining 8.
        sim.process(flow("a", 2.0, 20.0))
        sim.process(flow("b", 100.0, 80.0))
        sim.run()
        assert done["a"] == pytest.approx(10.0)
        assert done["b"] == pytest.approx(10.0)

    def test_departure_reallocates_bandwidth(self, sim):
        net = FlowNetwork(sim)
        res = Resource("r", 10.0)
        done = {}

        def flow(name, nbytes):
            yield net.transfer(nbytes, demand=100.0, weights={res: 1.0})
            done[name] = sim.now

        sim.process(flow("short", 50.0))
        sim.process(flow("long", 100.0))
        sim.run()
        # Both run at 5 until t=10 (short done); long then finishes its
        # remaining 50 bytes at full 10 -> t=15.
        assert done["short"] == pytest.approx(10.0)
        assert done["long"] == pytest.approx(15.0)

    def test_late_arrival_slows_existing_flow(self, sim):
        net = FlowNetwork(sim)
        res = Resource("r", 10.0)
        done = {}

        def first():
            yield net.transfer(100.0, demand=100.0, weights={res: 1.0})
            done["first"] = sim.now

        def second():
            yield sim.timeout(5.0)
            yield net.transfer(25.0, demand=100.0, weights={res: 1.0})
            done["second"] = sim.now

        sim.process(first())
        sim.process(second())
        sim.run()
        # first: 50 bytes by t=5; shares at 5/s until second finishes at
        # t=10 (75 done); last 25 bytes at full 10/s -> t=12.5.
        assert done["first"] == pytest.approx(12.5)
        assert done["second"] == pytest.approx(10.0)

    def test_multi_resource_bottleneck(self, sim):
        net = FlowNetwork(sim)
        fast = Resource("fast", 100.0)
        slow = Resource("slow", 4.0)
        t = run_transfer(sim, net, 40.0, demand=50.0,
                         weights={fast: 1.0, slow: 1.0})
        assert t == pytest.approx(10.0)


class TestContentionModel:
    def test_effective_capacity_degrades_past_knee(self):
        res = Resource("mem", 100.0, contention_knee=2, contention_alpha=0.5)
        assert res.effective_capacity(1) == 100.0
        assert res.effective_capacity(2) == 100.0
        assert res.effective_capacity(4) == pytest.approx(50.0)

    def test_zero_alpha_is_constant(self):
        res = Resource("r", 10.0)
        assert res.effective_capacity(1000) == 10.0

    def test_bad_parameters_rejected(self):
        with pytest.raises(SimulationError):
            Resource("r", 10.0, contention_alpha=-1.0)
        with pytest.raises(SimulationError):
            Resource("r", 0.0)


@given(
    flows=st.lists(
        st.tuples(st.floats(min_value=1e3, max_value=1e7),     # bytes
                  st.floats(min_value=1e3, max_value=1e8)),    # demand
        min_size=1, max_size=12,
    ),
    capacity=st.floats(min_value=1e3, max_value=5e7),
)
@settings(max_examples=60, deadline=None)
def test_shared_resource_never_oversubscribed_and_work_conserving(flows, capacity):
    """At no rebalance point may allocated rates exceed capacity, and the
    total transfer time must equal at least total_bytes/capacity."""
    sim = Simulator()
    net = FlowNetwork(sim)
    res = Resource("r", capacity)
    finish = []

    def body(nbytes, demand):
        yield net.transfer(nbytes, demand=demand, weights={res: 1.0})
        finish.append((sim.now, nbytes))

    for nbytes, demand in flows:
        sim.process(body(nbytes, demand))

    # Probe the allocation whenever the sim advances.
    max_load = 0.0
    while sim.queue_size:
        sim.step()
        load = sum(f.rate * f.weights[res] for f in res.flows)
        max_load = max(max_load, load)
    assert max_load <= capacity * (1 + 1e-6)
    total_bytes = sum(b for b, _ in flows)
    lower_bound = total_bytes / capacity
    assert max(t for t, _ in finish) >= lower_bound * (1 - 1e-6)
    assert net.completed_flows == len(flows)
    # each flow's byte count is added once, when it retires: summed in
    # completion order the stat is exact
    retired = 0.0
    for _, nbytes in finish:
        retired += nbytes
    assert net.completed_bytes == retired


@given(
    n=st.integers(min_value=1, max_value=10),
    capacity=st.floats(min_value=1.0, max_value=100.0),
)
@settings(max_examples=40, deadline=None)
def test_equal_flows_finish_simultaneously(n, capacity):
    sim = Simulator()
    net = FlowNetwork(sim)
    res = Resource("r", capacity)
    finish = []

    def body():
        yield net.transfer(100.0, demand=1e9, weights={res: 1.0})
        finish.append(sim.now)

    for _ in range(n):
        sim.process(body())
    sim.run()
    assert len(finish) == n
    expected = 100.0 * n / capacity
    for t in finish:
        assert t == pytest.approx(expected, rel=1e-6)
