"""Frozen-oracle differential tests for the flow solver.

:func:`oracle_assign_rates` is the progressive filler exactly as it stood
before the solver was restructured and memoised, copied here verbatim and
never to be edited.  :meth:`FlowNetwork._assign_rates` and the network's
memo must reproduce it **bitwise**, not approximately: sweep CSVs print 9
decimal places and the serial/parallel equivalence battery compares them
byte for byte, so a single ULP of drift anywhere in the fluid model would
surface as a changed figure.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.imb import ImbSettings, imb_time
from repro.hardware import flows as flows_mod
from repro.hardware.flows import _EPS_RATE, Flow, FlowNetwork, Resource
from repro.mpi import stacks
from repro.simtime import Simulator
from repro.simtime.core import Event
from repro.units import KiB


def _flow_id(f: Flow) -> int:
    return f.id


def oracle_assign_rates(flows: Iterable[Flow]) -> None:
    """Weighted progressive filling over the union of traversed resources.

    Incremental bookkeeping keeps each filling round O(|flows| +
    |resources|): per-resource weight sums and member sets shrink as
    flows freeze, instead of being recomputed from scratch.

    Every float accumulation here walks flows in creation-id order.
    Flow ids are per-process creation counters, identical for the same
    cell in any process; raw set order is keyed on object addresses, so
    summing in it would give ULP-different rates from run to run and
    break the byte-identical serial/parallel CSV guarantee.
    """
    ordered = sorted(flows, key=_flow_id)
    for f in ordered:
        f.rate = 0.0
    residual: dict[Resource, float] = {}
    wsum: dict[Resource, float] = {}
    members: dict[Resource, set[Flow]] = {}
    streams: dict[Resource, float] = {}
    for f in ordered:
        for r, w in f.weights.items():
            wsum[r] = wsum.get(r, 0.0) + w
            streams[r] = streams.get(r, 0.0) + f.streams_on(r)
            try:
                members[r].add(f)
            except KeyError:
                members[r] = {f}
    for r, n in streams.items():
        residual[r] = r.effective_capacity(int(round(n)))

    unfrozen = set(ordered)

    def freeze(f: Flow) -> None:
        for r, w in f.weights.items():
            wsum[r] -= w
            members[r].discard(f)

    # All unfrozen flows carry the same uniform rate, so flows freeze on
    # their demand caps in ascending-demand order: a sorted sweep frees
    # whole batches per filling round instead of one flow at a time.
    # (Stable sort over the id-ordered list: demand ties break by id.)
    by_demand = sorted(ordered, key=lambda f: f.demand)
    demand_ptr = 0
    rate = 0.0  # the uniform rate every unfrozen flow has received
    while unfrozen:
        # Largest uniform rate increment every unfrozen flow can take.
        while demand_ptr < len(by_demand) and by_demand[demand_ptr] not in unfrozen:
            demand_ptr += 1
        inc = (by_demand[demand_ptr].demand - rate
               if demand_ptr < len(by_demand) else float("inf"))
        bottleneck: Optional[Resource] = None
        for r, cap_left in residual.items():
            ws = wsum[r]
            if ws <= 1e-12:
                continue
            r_inc = cap_left / ws
            if r_inc < inc:
                inc = r_inc
                bottleneck = r
        if inc < 0:
            inc = 0.0
        rate += inc
        for r in residual:
            residual[r] -= inc * wsum[r]
        frozen: set[Flow] = set()
        # Demand-capped flows: ascending sweep from the pointer.
        while demand_ptr < len(by_demand):
            f = by_demand[demand_ptr]
            if f not in unfrozen:
                demand_ptr += 1
                continue
            if f.demand - rate > _EPS_RATE:
                break
            frozen.add(f)
            demand_ptr += 1
        # Flows on saturated resources.
        if bottleneck is not None and residual[bottleneck] <= \
                _EPS_RATE * max(1.0, bottleneck.capacity / 1e9):
            frozen |= members[bottleneck]
        for r, cap_left in residual.items():
            if r is not bottleneck and wsum[r] > 1e-12 and \
                    cap_left <= _EPS_RATE * max(1.0, r.capacity / 1e9):
                frozen |= members[r]
        if not frozen:
            if bottleneck is None:
                break  # all demand-capped; loop would have frozen them
            frozen = set(members[bottleneck])
        # wsum decrements are float subtractions: fixed order again.
        for f in sorted(frozen, key=_flow_id):
            f.rate = rate
            freeze(f)
        unfrozen -= frozen
    for f in unfrozen:  # pragma: no cover - loop always drains
        f.rate = rate


def bits(flows: Iterable[Flow]) -> list[str]:
    """Rates as exact hex strings (``==`` would equate 0.0 and -0.0)."""
    return [f.rate.hex() for f in flows]


def oracle_bits(flows: list[Flow]) -> list[str]:
    """The oracle's rates for ``flows``; leaves the flows' rates as the
    solver under test set them."""
    saved = [f.rate for f in flows]
    oracle_assign_rates(flows)
    want = bits(flows)
    for f, rate in zip(flows, saved):
        f.rate = rate
    return want


class OracleCheck:
    """Checks every rebalance of every network against the oracle."""

    def __init__(self, monkeypatch) -> None:
        self.rebalances = 0
        self.hits = 0  # rebalances the memo served
        self.mismatches: list[tuple[list[str], list[str]]] = []
        real = FlowNetwork._rebalance

        def checked(net: FlowNetwork) -> None:
            before = net.memo_hits
            real(net)
            self.hits += net.memo_hits - before
            active = net._active
            got = bits(active)
            want = oracle_bits(active)
            self.rebalances += 1
            if got != want:
                self.mismatches.append((got, want))

        monkeypatch.setattr(FlowNetwork, "_rebalance", checked)


# ---------------------------------------------------------------------------
# random networks solved in isolation
# ---------------------------------------------------------------------------

#: a few shared values, so demand and rate ties are common
_DEMANDS = st.sampled_from([0.5, 1.0, 2.0, 3.0, 1e9]) | st.floats(0.1, 1e10)
_WEIGHTS = st.sampled_from([0.25, 0.5, 1.0, 2.0, 1.0 / 3.0]) | st.floats(1e-10, 4.0)
_STREAMS = st.sampled_from([0.25, 0.3, 0.5, 1.0, 1.5])


@st.composite
def networks(draw, max_resources: int = 5):
    """Flows (creation-id order) over contended and plain resources."""
    resources = []
    for j in range(draw(st.integers(1, max_resources))):
        capacity = draw(st.sampled_from([1.0, 3.0, 1e9, 2.5e10])
                        | st.floats(0.5, 1e10))
        if draw(st.booleans()):  # contention knee
            res = Resource(f"r{j}", capacity,
                           contention_knee=draw(st.integers(0, 3)),
                           contention_alpha=draw(st.sampled_from([0.05, 0.5])))
        else:
            res = Resource(f"r{j}", capacity)
        resources.append(res)
    sim = Simulator()
    flows = []
    for _ in range(draw(st.integers(1, 12))):
        chosen = draw(st.lists(st.sampled_from(resources), min_size=1,
                               max_size=len(resources), unique_by=id))
        weights = {r: draw(_WEIGHTS) for r in chosen}
        streams = {r: draw(_STREAMS) for r in chosen if draw(st.booleans())}
        flows.append(Flow(draw(_DEMANDS), weights, 1.0, Event(sim),
                          streams=streams))
    return flows


class TestIsolatedSolves:
    @given(flows=networks())
    @settings(max_examples=200, deadline=None)
    def test_random_networks_match_the_oracle(self, flows):
        FlowNetwork._assign_rates(flows)
        assert bits(flows) == oracle_bits(flows)

    @given(flows=networks(max_resources=1))
    @settings(max_examples=100, deadline=None)
    def test_single_resource_networks_match_the_oracle(self, flows):
        FlowNetwork._assign_rates(flows)
        assert bits(flows) == oracle_bits(flows)

    def test_demand_ties_freeze_together(self):
        sim = Simulator()
        bus = Resource("bus", 10.0)
        flows = [Flow(d, {bus: 1.0}, 1.0, Event(sim))
                 for d in (2.0, 1.0, 2.0, 1.0, 9.0)]
        FlowNetwork._assign_rates(flows)
        assert bits(flows) == oracle_bits(flows)
        assert [f.rate for f in flows] == [2.0, 1.0, 2.0, 1.0, 4.0]


# ---------------------------------------------------------------------------
# the network's memo
# ---------------------------------------------------------------------------

def _admit_all(net: FlowNetwork, specs) -> list[Flow]:
    sim = net.sim
    flows = [Flow(demand, weights, 100.0, Event(sim)) for demand, weights
             in specs]
    for f in flows:
        net._admit(f)
    return flows


class TestMemo:
    def setup_method(self):
        self.sim = Simulator()
        self.net = FlowNetwork(self.sim)
        self.bus = Resource("bus", 10.0, contention_knee=1,
                            contention_alpha=0.5)
        self.link = Resource("link", 4.0)

    def specs(self, demand: float = 3.0):
        return [(demand, {self.bus: 1.0}),
                (5.0, {self.bus: 1.0, self.link: 2.0}),
                (1.0, {self.link: 0.5})]

    def test_miss_then_hit_give_the_oracle_rates(self):
        net = self.net
        first = _admit_all(net, self.specs())
        net._rebalance()
        assert (net.scalar_assignments, net.memo_hits) == (1, 0)
        assert bits(first) == oracle_bits(first)
        # A fresh flow set with the same signatures: served from the memo.
        for f in first:
            f.remaining = 0.0
        net._rebalance()
        second = _admit_all(net, self.specs())
        net._rebalance()
        assert net.memo_hits == 1
        assert net.scalar_assignments == 3  # hits are counted too
        assert bits(second) == bits(first) == oracle_bits(second)

    def test_one_changed_signature_misses(self):
        net = self.net
        _admit_all(net, self.specs())
        net._rebalance()
        for f in net._active:
            f.remaining = 0.0
        net._rebalance()
        other = _admit_all(net, self.specs(demand=2.0))
        net._rebalance()
        assert net.memo_hits == 0
        assert bits(other) == oracle_bits(other)

    def test_clear_on_full_keeps_exact_rates(self, monkeypatch):
        monkeypatch.setattr(flows_mod, "_MEMO_LIMIT", 2)
        net = self.net
        for demand in (3.0, 2.0, 1.5, 3.0, 2.0):
            flows = _admit_all(net, self.specs(demand))
            net._rebalance()
            assert len(net._memo) <= 2
            assert bits(flows) == oracle_bits(flows)
            for f in flows:
                f.remaining = 0.0
            net._rebalance()
        # every store found the table full and cleared it, so even the
        # repeated demands missed
        assert net.memo_hits == 0


# ---------------------------------------------------------------------------
# whole simulations, every rebalance checked
# ---------------------------------------------------------------------------

def run_fluid_scenario(seed: int, n_resources: int, n_flows: int):
    """Staggered random transfers over shared, partly contended resources;
    returns the per-flow completion times."""
    rng = random.Random(seed)
    sim = Simulator()
    net = FlowNetwork(sim)
    resources = []
    for i in range(n_resources):
        if rng.random() < 0.4:
            res = Resource(f"r{i}", capacity=rng.uniform(1.0, 100.0),
                           contention_knee=rng.randrange(0, 3),
                           contention_alpha=rng.uniform(0.01, 0.5))
        else:
            res = Resource(f"r{i}", capacity=rng.uniform(1.0, 100.0))
        resources.append(res)
    done: list[tuple[str, float]] = []

    def one_flow(label, start, nbytes, demand, weights, latency, streams):
        yield sim.timeout(start)
        yield net.transfer(nbytes, demand=demand, weights=weights,
                           latency=latency, label=label, streams=streams)
        done.append((label, sim.now))

    # a small menu of flow shapes, so flow sets recur and hit the memo
    shapes = []
    for _ in range(3):
        chosen = rng.sample(resources, rng.randrange(1, n_resources + 1))
        shapes.append((rng.uniform(1.0, 200.0),
                       {res: rng.uniform(0.5, 3.0) for res in chosen},
                       {res: rng.choice([0.25, 0.5, 1.0])
                        for res in chosen if rng.random() < 0.5}))
    for i in range(n_flows):
        demand, weights, streams = rng.choice(shapes)
        sim.process(one_flow(
            f"f{i}", start=rng.choice([0.0, 0.5, rng.uniform(0.0, 2.0)]),
            nbytes=rng.uniform(0.0, 1e4), demand=demand, weights=weights,
            latency=rng.choice([0.0, rng.uniform(0, 0.5)]), streams=streams))
    sim.run()
    return done, net


class TestWholeRuns:
    @given(seed=st.integers(0, 10**9), n_resources=st.integers(1, 5),
           n_flows=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_random_fluid_scenarios_match_the_oracle(
            self, seed, n_resources, n_flows):
        with pytest.MonkeyPatch.context() as mp:
            check = OracleCheck(mp)
            done, net = run_fluid_scenario(seed, n_resources, n_flows)
        assert check.mismatches == []
        assert check.rebalances == net.scalar_assignments
        assert net.completed_flows == len(done)

    def test_memo_hits_occur_in_whole_runs(self):
        _done, net = run_fluid_scenario(7, n_resources=2, n_flows=12)
        assert net.memo_hits > 0

    def test_paper_machine_copies_match_oracle(
            self, paper_machine, monkeypatch):
        from repro.hardware.memory import MemorySystem

        check = OracleCheck(monkeypatch)
        sim = Simulator()
        mem = MemorySystem(sim, paper_machine)
        far = paper_machine.n_domains - 1
        last_core = paper_machine.n_cores - 1
        bufs = [(mem.alloc(256 * 1024, 0), mem.alloc(256 * 1024, far)),
                (mem.alloc(128 * 1024, 0), mem.alloc(128 * 1024, 0)),
                (mem.alloc(64 * 1024, far), mem.alloc(64 * 1024, 0))]

        def copy(i, src, dst):
            yield sim.timeout(i * 1e-7)
            yield mem.copy(0 if i != 2 else last_core, src, 0, dst, 0,
                           src.size)

        for i, (src, dst) in enumerate(bufs):
            sim.process(copy(i, src, dst))
        sim.run()
        assert check.rebalances > 0
        assert check.mismatches == []

    def test_small_ig_cell_matches_the_oracle(self, monkeypatch):
        # Every rebalance input a real 48-rank copy-in/copy-out cell
        # produces, memo hits included.
        check = OracleCheck(monkeypatch)
        imb_time("ig", stacks.MPICH2_SM, 48, "gather", 32 * KiB,
                 ImbSettings(max_iterations=1, warmups=0))
        assert check.rebalances > 100
        assert 0 < check.hits < check.rebalances
        assert check.mismatches == []
