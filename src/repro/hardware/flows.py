"""Weighted max-min fair fluid-flow network.

Every in-flight memory copy is a *flow* with

- a **demand cap** (the executing copy engine's maximum rate),
- a set of **resources** it traverses (memory ports, links), each with a
  per-flow **weight** (an intra-domain memcpy loads its controller with
  read *and* write traffic, so it carries weight 2 there; a cache-hot read
  carries a fractional weight on the source port), and
- a number of **remaining bytes**.

Rates are assigned by progressive filling (weighted max-min fairness): all
active flows grow their rate together until a resource saturates or a flow
hits its demand cap; saturated/capped flows freeze and the rest continue.
On every flow arrival or departure the network advances each flow's byte
account at its old rate and recomputes the allocation — the classic
flow-level approximation used in network simulation, applied here to the
memory system.  This reproduces the contention phenomena the paper leans
on: a linear broadcast saturating the root's memory port, FIFO double copies
loading a controller twice, and cross-board traffic crowding IG's interlink.

A rebalance's rates are a pure function of the id-ordered sequence of flow
signatures ``(demand, ((resource, weight, streams), ...))``, and collective
schedules keep re-creating the same flow sets, so each network memoises its
rate assignments on that sequence (the lazy-recomputation idea of SimGrid's
LMM solver, kept exact: a hit returns the very floats a solve would).
"""

from __future__ import annotations

import itertools
from bisect import insort
from typing import Optional

from repro.errors import SimulationError
from repro.simtime.core import Event, Simulator

__all__ = ["Resource", "FlowShape", "Flow", "FlowNetwork"]

#: Bytes below which a flow is considered finished.  A quarter byte is far
#: below physical relevance but large enough that the completion horizon
#: stays representable against float accumulation error in ``sim.now``.
_EPS_BYTES = 0.25
#: Rate below which a resource is considered saturated.
_EPS_RATE = 1e-3
#: Weight sum at or below which a resource no longer constrains filling.
_EPS_WSUM = 1e-12
#: Memoised rate assignments kept per network; the table is cleared when it
#: fills (a sweep cell rarely revisits a flow set after that many others).
_MEMO_LIMIT = 4096


def _flow_id(f: "Flow") -> int:
    """Sort key for deterministic flow iteration (creation order)."""
    return f.id


class Resource:
    """A capacity-limited hardware component (memory port, link, engine).

    ``contention_knee``/``contention_alpha`` model throughput degradation
    under many concurrent streams (DRAM row-buffer and bank-locality loss):
    beyond ``knee`` simultaneous flows, effective capacity shrinks as
    ``capacity / (1 + alpha * (n - knee))``.  Zero alpha disables it
    (links, copy engines).  The parameters are fixed at construction, which
    is what lets a network memoise rate assignments.
    """

    __slots__ = ("name", "capacity", "flows", "contention_knee",
                 "contention_alpha", "threshold")

    def __init__(self, name: str, capacity: float, contention_knee: int = 0,
                 contention_alpha: float = 0.0):
        if capacity <= 0:
            raise SimulationError(f"resource {name}: capacity must be positive")
        if contention_alpha < 0 or contention_knee < 0:
            raise SimulationError(f"resource {name}: bad contention parameters")
        self.name = name
        self.capacity = capacity
        self.contention_knee = contention_knee
        self.contention_alpha = contention_alpha
        #: residual capacity at or below which the resource is saturated
        self.threshold = _EPS_RATE * max(1.0, capacity / 1e9)
        #: live flows traversing this resource (maintained by the network)
        self.flows: set["Flow"] = set()

    def effective_capacity(self, n_flows: int | None = None) -> float:
        """Capacity available given the number of concurrent streams."""
        if not self.contention_alpha:
            return self.capacity
        n = len(self.flows) if n_flows is None else n_flows
        if n <= self.contention_knee:
            return self.capacity
        return self.capacity / (
            1.0 + self.contention_alpha * (n - self.contention_knee))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Resource {self.name} cap={self.capacity:.3g} flows={len(self.flows)}>"


class FlowShape:
    """What a flow crosses and how hard it presses: the demand cap, the
    per-resource weights and the per-resource contention *streams*.

    ``streams`` optionally overrides how many contention streams the flow
    contributes to a resource (default 1.0): posted writes disturb a DRAM
    controller's scheduling far less than latency-sensitive read streams, so
    the memory system counts them fractionally.

    Building a shape validates it.  A caller that moves the same shape
    repeatedly builds it once with :meth:`FlowNetwork.shape`, which also
    interns its signature, and passes it to :meth:`FlowNetwork.transfer`.
    """

    __slots__ = ("demand", "weights", "streams", "terms", "sig")

    def __init__(self, demand: float, weights: dict[Resource, float],
                 streams: Optional[dict[Resource, float]] = None):
        if demand <= 0:
            raise SimulationError("flow demand cap must be positive")
        if any(w <= 0 for w in weights.values()):
            raise SimulationError("flow resource weights must be positive")
        self.demand = demand
        self.weights = weights
        self.streams = streams = streams or {}
        #: ``(resource, weight, streams)`` per traversed resource, in the
        #: order of ``weights`` (which fixes the solver's resource order)
        self.terms = tuple((r, w, streams.get(r, 1.0))
                           for r, w in weights.items())
        #: interned ``(demand, terms)``, or -1 until a network interns it
        self.sig = -1


class Flow:
    """One in-flight transfer (created via :meth:`FlowNetwork.transfer`).

    It carries its shape's fields (see :class:`FlowShape`), which the
    solver reads on every rebalance.
    """

    __slots__ = ("id", "demand", "weights", "nbytes", "remaining", "rate",
                 "event", "label", "streams", "terms", "sig")

    _ids = itertools.count(1)

    def __init__(self, demand: float, weights: dict[Resource, float], nbytes: float,
                 event: Event, label: str = "",
                 streams: Optional[dict[Resource, float]] = None):
        self._start(FlowShape(demand, weights, streams), nbytes, event, label)

    @classmethod
    def of(cls, shape: FlowShape, nbytes: float, event: Event,
           label: str = "") -> "Flow":
        """A flow of an already built (and validated) shape."""
        flow = cls.__new__(cls)
        flow._start(shape, nbytes, event, label)
        return flow

    def _start(self, shape: FlowShape, nbytes: float, event: Event,
               label: str) -> None:
        self.id = next(Flow._ids)
        self.demand = shape.demand
        self.weights = shape.weights
        self.streams = shape.streams
        self.terms = shape.terms
        #: the network sets it at admission if the shape is not interned
        self.sig = shape.sig
        self.nbytes = float(nbytes)
        self.remaining = self.nbytes
        self.rate = 0.0
        self.event = event
        self.label = label

    def streams_on(self, res: Resource) -> float:
        return self.streams.get(res, 1.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Flow#{self.id} {self.label} "
                f"rem={self.remaining:.0f}B rate={self.rate:.3g}>")


class FlowNetwork:
    """Tracks active flows, assigns fair rates, fires completion events.

    Every rebalance runs :meth:`_assign_rates` unless the network already
    solved the same id-ordered sequence of flow signatures, in which case
    the stored rates are reused — bitwise the floats a fresh solve yields,
    since the solve reads nothing but those signatures and the resources'
    construction-time parameters.
    """

    #: always 0: there is one solver, counted in ``scalar_assignments``.
    #: Kept because the figure-grid benchmark (``perfbench/worker.py``)
    #: still adds it into its ``flows.rebalances`` counter.
    vector_assignments = 0

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: active flows in creation-id order
        self._active: list[Flow] = []
        self._last_update = 0.0
        self._wake_generation = 0
        self._rebalance_pending = False
        #: flow signature -> small int, and the memo keyed on their tuples
        self._sig_ids: dict[tuple, int] = {}
        self._memo: dict[tuple, list[float]] = {}
        #: lifetime statistics
        self.completed_flows = 0
        self.completed_bytes = 0.0
        #: rebalances executed (memo hits included)
        self.scalar_assignments = 0
        #: rebalances served from the memo
        self.memo_hits = 0

    # -- public API ---------------------------------------------------------
    def transfer(
        self,
        nbytes: float,
        demand: Optional[float] = None,
        weights: Optional[dict[Resource, float]] = None,
        latency: float = 0.0,
        label: str = "",
        streams: Optional[dict[Resource, float]] = None,
        shape: Optional[FlowShape] = None,
    ) -> Event:
        """Start a transfer; the returned event fires at completion.

        The flow is described either by ``demand``, ``weights`` and
        ``streams`` (see :class:`FlowShape`) or by a ``shape`` from
        :meth:`shape`, never both.  ``latency`` is a fixed startup delay
        served before the fluid phase (memory access latency, link hops).
        A zero-byte transfer completes after just the latency.
        """
        if shape is None:
            if demand is None or weights is None:
                raise SimulationError("transfer needs demand and weights")
        elif not (demand is None and weights is None and streams is None):
            raise SimulationError(
                "transfer takes a shape or demand/weights/streams, not both")
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        done = Event(self.sim, name=f"flow:{label}")
        if nbytes == 0:
            self.sim.schedule(latency, lambda: done.succeed(None))
            return done
        if shape is None:
            flow = Flow(demand, weights, nbytes, done, label=label,
                        streams=streams)
        else:
            flow = Flow.of(shape, nbytes, done, label=label)
        if latency > 0:
            self.sim.schedule(latency, lambda: self._admit(flow))
        else:
            self._admit(flow)
        return done

    def shape(self, demand: float, weights: dict[Resource, float],
              streams: Optional[dict[Resource, float]] = None) -> FlowShape:
        """A validated shape with its signature interned in this network,
        for callers that transfer the same shape repeatedly."""
        shape = FlowShape(demand, weights, streams)
        sig_ids = self._sig_ids
        shape.sig = sig_ids.setdefault((demand, shape.terms), len(sig_ids))
        return shape

    @property
    def active_count(self) -> int:
        return len(self._active)

    # -- internals ----------------------------------------------------------
    def _admit(self, flow: Flow) -> None:
        self._advance()
        if flow.sig < 0:
            sig_ids = self._sig_ids
            flow.sig = sig_ids.setdefault((flow.demand, flow.terms),
                                          len(sig_ids))
        # Flow ids rise monotonically, so admits append in id order — except
        # latency-delayed admits, which can arrive out of creation order.
        active = self._active
        if not active or active[-1].id < flow.id:
            active.append(flow)
        else:
            insort(active, flow, key=_flow_id)
        for res in flow.weights:
            res.flows.add(flow)
        # Defer the (expensive) reassignment to a zero-delay event so a burst
        # of same-instant arrivals — e.g. every leaf of a broadcast tree
        # starting its segment copy together — pays for one rebalance.
        if not self._rebalance_pending:
            self._rebalance_pending = True
            self.sim.schedule(0.0, self._deferred_rebalance)

    def _deferred_rebalance(self) -> None:
        self._rebalance_pending = False
        self._advance()
        self._rebalance()

    def _advance(self) -> None:
        """Account bytes transferred since the last state change."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        for flow in self._active:
            if flow.rate > 0:
                flow.remaining -= flow.rate * dt

    def _rebalance(self) -> None:
        """Recompute max-min fair rates and reschedule the next completion."""
        # Retired in creation-id order so completion events fire in a
        # memory-layout-independent order.
        active = self._active
        finished = [f for f in active if f.remaining <= _EPS_BYTES]
        if finished:
            self._active = active = [f for f in active
                                     if f.remaining > _EPS_BYTES]
            for flow in finished:
                for res in flow.weights:
                    res.flows.discard(flow)
                self.completed_bytes += flow.nbytes
            self.completed_flows += len(finished)
        self.scalar_assignments += 1
        key = tuple([f.sig for f in active])
        memo = self._memo
        rates = memo.get(key)
        if rates is None:
            self._assign_rates(active)
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            memo[key] = [f.rate for f in active]
        else:
            self.memo_hits += 1
            for f, rate in zip(active, rates):
                f.rate = rate
        for flow in finished:
            flow.remaining = 0.0
            flow.event.succeed(None)
        self._schedule_wake()

    @staticmethod
    def _assign_rates(ordered: list[Flow]) -> None:
        """Weighted progressive filling over the union of traversed resources.

        ``ordered`` holds the flows in creation-id order, and every float
        accumulation walks them in that order.  Flow ids are per-process
        creation counters, identical for the same cell in any process; an
        address-keyed order would give ULP-different rates from run to run
        and break the byte-identical serial/parallel CSV guarantee.

        Resources are indexed in first-seen order (flows in id order, each
        flow's terms in order), which fixes the bottleneck tie-break.  A
        filling round only visits resources whose weight sum is still above
        ``_EPS_WSUM``: sums only decrease, so a resource that drops out never
        constrains a later round.
        """
        n = len(ordered)
        index: dict[Resource, int] = {}
        resources: list[Resource] = []
        wsum: list[float] = []
        nstreams: list[float] = []
        members: list[list[int]] = []  # flow positions per resource
        for i, f in enumerate(ordered):
            f.rate = 0.0
            for r, w, s in f.terms:
                j = index.get(r)
                if j is None:
                    index[r] = j = len(resources)
                    resources.append(r)
                    # 0.0 + w is w: weights are positive, and stream sums
                    # only feed round()
                    wsum.append(w)
                    nstreams.append(s)
                    members.append([i])
                else:
                    wsum[j] += w
                    nstreams[j] += s
                    members[j].append(i)
        residual = [r.effective_capacity(int(round(s))) if r.contention_alpha
                    else r.capacity for r, s in zip(resources, nstreams)]
        thresh = [r.threshold for r in resources]
        live = [j for j, ws in enumerate(wsum) if ws > _EPS_WSUM]

        unfrozen = [True] * n
        left = n
        # All unfrozen flows carry the same uniform rate, so flows freeze on
        # their demand caps in ascending-demand order: a sorted sweep frees
        # whole batches per filling round instead of one flow at a time.
        # (Stable sort over id-ordered positions: demand ties break by id.)
        demands = [f.demand for f in ordered]
        by_demand = sorted(range(n), key=demands.__getitem__)
        demand_ptr = 0
        rate = 0.0  # the uniform rate every unfrozen flow has received
        while left:
            # Largest uniform rate increment every unfrozen flow can take.
            while demand_ptr < n and not unfrozen[by_demand[demand_ptr]]:
                demand_ptr += 1
            inc = (demands[by_demand[demand_ptr]] - rate
                   if demand_ptr < n else float("inf"))
            bottleneck = -1
            for j in live:
                r_inc = residual[j] / wsum[j]
                if r_inc < inc:
                    inc = r_inc
                    bottleneck = j
            if inc < 0:
                inc = 0.0
            rate += inc
            frozen: set[int] = set()
            # Demand-capped flows: ascending sweep from the pointer.
            while demand_ptr < n:
                i = by_demand[demand_ptr]
                if not unfrozen[i]:
                    demand_ptr += 1
                    continue
                if demands[i] - rate > _EPS_RATE:
                    break
                frozen.add(i)
                demand_ptr += 1
            # Flows on saturated resources.
            for j in live:
                cap_left = residual[j] - inc * wsum[j]
                residual[j] = cap_left
                if cap_left <= thresh[j]:
                    frozen.update(i for i in members[j] if unfrozen[i])
            if not frozen:
                if bottleneck < 0:
                    break  # all demand-capped; loop would have frozen them
                frozen = {i for i in members[bottleneck] if unfrozen[i]}
            left -= len(frozen)
            for i in frozen:
                ordered[i].rate = rate
                unfrozen[i] = False
            if not left:
                break
            # wsum decrements are float subtractions: fixed order again.
            for i in sorted(frozen):
                for r, w, _ in ordered[i].terms:
                    wsum[index[r]] -= w
            live = [j for j in live if wsum[j] > _EPS_WSUM]
        if left:  # pragma: no cover - loop always drains
            for i in range(n):
                if unfrozen[i]:
                    ordered[i].rate = rate

    def _schedule_wake(self) -> None:
        self._wake_generation += 1
        if not self._active:
            return
        horizon = min(
            (f.remaining / f.rate for f in self._active if f.rate > 0),
            default=None,
        )
        if horizon is None:
            raise SimulationError(
                "flow network stalled: active flows but no positive rates"
            )
        # Keep the wake strictly after `now` in float arithmetic: a horizon
        # below one ulp of the clock would freeze time (Zeno loop).
        min_dt = max(abs(self.sim.now) * 1e-14, 1e-15)
        gen = self._wake_generation
        self.sim.schedule(max(horizon, min_dt), lambda: self._on_wake(gen))

    def _on_wake(self, generation: int) -> None:
        if generation != self._wake_generation:
            return  # superseded by a later arrival/departure
        self._advance()
        self._rebalance()
