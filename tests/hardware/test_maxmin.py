"""The flow solver against the definition of max-min fairness.

The frozen-oracle tests (test_flow_oracle.py) pin the solver to an earlier
implementation of itself; these pin it to the physics.  After every
rebalance of a real cell on each paper machine, :func:`check_max_min`
demands that

- no resource carries more than its effective capacity, and
- every flow is either at its demand cap or crosses a saturated resource
  on which no other flow runs faster (its bottleneck),

and closed-form cases check the rates themselves.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import MACHINE_RANKS
from repro.bench.imb import ImbSettings, imb_time
from repro.hardware.flows import _EPS_RATE, FlowNetwork, Resource
from repro.mpi import stacks
from repro.simtime import Simulator
from repro.units import KiB


def check_max_min(flows) -> list[str]:
    """Violations of weighted max-min fairness among ``flows`` (id order)."""
    load: dict[Resource, float] = {}
    nstreams: dict[Resource, float] = {}
    top: dict[Resource, float] = {}
    for f in flows:
        for r, w in f.weights.items():
            load[r] = load.get(r, 0.0) + f.rate * w
            nstreams[r] = nstreams.get(r, 0.0) + f.streams_on(r)
            top[r] = max(top.get(r, 0.0), f.rate)
    capacity = {r: r.effective_capacity(int(round(n)))
                for r, n in nstreams.items()}
    # float slack: the solver's residuals and this sum round differently
    slack = {r: 1e-9 * cap for r, cap in capacity.items()}
    problems = []
    for r, used in load.items():
        if used > capacity[r] + _EPS_RATE + slack[r]:
            problems.append(f"{r.name} over capacity: {used} > {capacity[r]}")
    saturated = {r for r, used in load.items()
                 if capacity[r] - used <= r.threshold + slack[r]}
    for f in flows:
        if f.rate >= f.demand - _EPS_RATE:
            continue  # demand-capped
        if not any(r in saturated and top[r] <= f.rate for r in f.weights):
            problems.append(f"flow {f.id} rate {f.rate} has no bottleneck")
    return problems


@pytest.fixture
def checked_rebalances(monkeypatch):
    """Run :func:`check_max_min` after every rebalance; yields the log."""
    log = {"rebalances": 0, "problems": []}
    real = FlowNetwork._rebalance

    def checked(net: FlowNetwork) -> None:
        real(net)
        log["rebalances"] += 1
        log["problems"] += check_max_min(net._active)

    monkeypatch.setattr(FlowNetwork, "_rebalance", checked)
    return log


def test_smoke_cell_is_max_min_fair_at_every_rebalance(
        paper_machine, checked_rebalances):
    # A copy-in/copy-out gather: FIFO double copies contend on the root's
    # memory port, across boards on IG.
    imb_time(paper_machine, stacks.MPICH2_SM, MACHINE_RANKS[paper_machine.name],
             "gather", 32 * KiB, ImbSettings(max_iterations=1, warmups=0))
    assert checked_rebalances["rebalances"] > 10
    assert checked_rebalances["problems"] == []


def solve(*flows):
    """Admit ``(demand, weights[, streams])`` flows together; return their
    rates after the first rebalance."""
    sim = Simulator()
    net = FlowNetwork(sim)
    events = [net.transfer(1e6, demand=spec[0], weights=spec[1],
                           streams=spec[2] if len(spec) > 2 else None)
              for spec in flows]
    sim.step()  # the deferred rebalance
    assert not any(ev.triggered for ev in events)
    rates = [f.rate for f in net._active]
    assert check_max_min(net._active) == []
    return rates


class TestClosedForms:
    def test_single_flow_takes_capacity_over_weight(self):
        bus = Resource("bus", 12.0)
        assert solve((100.0, {bus: 3.0})) == [4.0]

    def test_single_flow_takes_its_demand(self):
        bus = Resource("bus", 12.0)
        assert solve((5.0, {bus: 1.0})) == [5.0]

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_n_equal_flows_split_capacity(self, n):
        bus = Resource("bus", 21.0)
        assert solve(*[(100.0, {bus: 1.0})] * n) == [21.0 / n] * n

    def test_demand_cap_below_fair_share_leaves_the_rest(self):
        bus = Resource("bus", 10.0)
        assert solve((2.0, {bus: 1.0}), (100.0, {bus: 1.0}),
                     (100.0, {bus: 1.0})) == [2.0, 4.0, 4.0]

    @pytest.mark.parametrize("n, knee, alpha", [(4, 2, 0.5), (6, 1, 0.25),
                                                (3, 3, 0.5)])
    def test_contention_knee(self, n, knee, alpha):
        bus = Resource("bus", 60.0, contention_knee=knee,
                       contention_alpha=alpha)
        effective = 60.0 / (1.0 + alpha * max(0, n - knee))
        rates = solve(*[(1e3, {bus: 1.0})] * n)
        assert rates == pytest.approx([effective / n] * n, rel=1e-12)

    def test_fractional_streams_count_toward_the_knee(self):
        # two posted-write streams at 0.5 count as one: below the knee
        bus = Resource("bus", 8.0, contention_knee=1, contention_alpha=1.0)
        assert solve((1e3, {bus: 1.0}, {bus: 0.5}),
                     (1e3, {bus: 1.0}, {bus: 0.5})) == [4.0, 4.0]
