"""Memory system: routing, copy costs, data movement, cache interplay."""

import numpy as np
import pytest

from repro.errors import RoutingError, SimulationError
from repro.hardware.machines import (
    MACHINES,
    dancer,
    ig,
    numa_machine,
    zoot,
)
from repro.hardware.memory import MemorySystem, SimBuffer, _route_tables
from repro.simtime import Simulator
from repro.units import KiB, MiB


def timed_copy(sim, mem, **kw):
    out = {}

    def body():
        t0 = sim.now
        yield mem.copy(**kw)
        out["t"] = sim.now - t0

    sim.process(body())
    sim.run()
    return out["t"]


class TestSimBuffer:
    def test_backed_buffer_views_bytes(self):
        arr = np.arange(16, dtype=np.uint8)
        buf = SimBuffer(16, 0, array=arr)
        assert buf.backed
        assert bytes(buf.data) == bytes(range(16))

    def test_unbacked_buffer(self):
        buf = SimBuffer(1024, 0)
        assert not buf.backed

    def test_size_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            SimBuffer(10, 0, array=np.zeros(20, dtype=np.uint8))

    def test_noncontiguous_rejected(self):
        arr = np.zeros((8, 8), dtype=np.uint8)[:, ::2]
        with pytest.raises(SimulationError):
            SimBuffer(arr.nbytes, 0, array=arr)

    def test_range_check(self):
        buf = SimBuffer(100, 0)
        buf.check_range(0, 100)
        with pytest.raises(SimulationError):
            buf.check_range(50, 51)
        with pytest.raises(SimulationError):
            buf.check_range(-1, 10)


class TestRouting:
    def test_same_domain_empty_route(self):
        sim = Simulator()
        mem = MemorySystem(sim, dancer())
        assert mem.route(0, 0) == []

    def test_adjacent_route(self):
        sim = Simulator()
        mem = MemorySystem(sim, dancer())
        assert mem.route(0, 1) == [(0, 1)]

    def test_ig_cross_board_uses_bridge(self):
        sim = Simulator()
        mem = MemorySystem(sim, ig())
        path = mem.route(1, 5)
        bridges = {(0, 4), (3, 7)}
        assert any(k in bridges for k in path)

    def test_disconnected_rejected(self):
        spec = numa_machine(n_domains=3, topology="chain")
        import dataclasses
        broken = dataclasses.replace(spec, links=(spec.links[0],))
        sim = Simulator()
        with pytest.raises(RoutingError):
            MemorySystem(sim, broken)

    def test_ig_tie_broken_routes_are_pinned(self):
        """Two IG pairs have equal-weight two-hop routes; these are the
        ones networkx's bidirectional Dijkstra picks (a one-sided Dijkstra
        picks the other)."""
        routes, _ = _route_tables(ig())
        assert routes[(0, 7)] == [(0, 4), (4, 7)]
        assert routes[(3, 4)] == [(3, 7), (4, 7)]

    @pytest.mark.parametrize("name", sorted(MACHINES) + ["ring", "mesh"])
    def test_route_tables_match_networkx(self, name):
        nx = pytest.importorskip("networkx")
        if name in MACHINES:
            spec = MACHINES[name]()
        elif name == "ring":
            spec = numa_machine(n_domains=6, topology="ring")
        else:
            spec = numa_machine(n_domains=4, topology="mesh")
        graph = nx.Graph()
        graph.add_nodes_from(range(spec.n_domains))
        for link in spec.links:
            graph.add_edge(link.a, link.b,
                           weight=1.0 + 1e-12 / link.bandwidth)
        routes, _ = _route_tables(spec)
        for a in range(spec.n_domains):
            for b in range(spec.n_domains):
                path = nx.shortest_path(graph, a, b, weight="weight")
                assert routes[(a, b)] == [
                    (min(u, v), max(u, v)) for u, v in zip(path, path[1:])
                ], (a, b)


class TestCopy:
    def test_moves_real_bytes(self):
        sim = Simulator()
        mem = MemorySystem(sim, dancer())
        a = mem.alloc(1024, 0)
        b = mem.alloc(1024, 1)
        a.data[:] = 7

        def body():
            yield mem.copy(0, a, 0, b, 0, 1024)

        sim.process(body())
        sim.run()
        assert (b.data == 7).all()

    def test_partial_offset_copy(self):
        sim = Simulator()
        mem = MemorySystem(sim, dancer())
        a = mem.alloc(100, 0)
        b = mem.alloc(100, 0)
        a.data[:] = np.arange(100, dtype=np.uint8)

        def body():
            yield mem.copy(0, a, 10, b, 50, 20)

        sim.process(body())
        sim.run()
        assert (b.data[50:70] == np.arange(10, 30, dtype=np.uint8)).all()
        assert (b.data[:50] == 0).all()

    def test_large_copy_slower_than_small(self):
        sim = Simulator()
        mem = MemorySystem(sim, dancer())
        a = mem.alloc(4 * MiB, 0, backed=False)
        b = mem.alloc(4 * MiB, 0, backed=False)
        t_small = timed_copy(sim, mem, core=0, src=a, src_off=0, dst=b,
                             dst_off=0, nbytes=64 * KiB)
        t_big = timed_copy(sim, mem, core=0, src=a, src_off=0, dst=b,
                           dst_off=0, nbytes=4 * MiB)
        assert t_big > t_small * 10

    def test_cross_domain_slower_than_local(self):
        sim = Simulator()
        spec = ig()
        mem = MemorySystem(sim, spec)
        src_local = mem.alloc(1 * MiB, 0, backed=False)
        src_remote = mem.alloc(1 * MiB, 7, backed=False)
        dst = mem.alloc(1 * MiB, 0, backed=False)
        t_local = timed_copy(sim, mem, core=0, src=src_local, src_off=0,
                             dst=dst, dst_off=0, nbytes=1 * MiB)
        t_remote = timed_copy(sim, mem, core=0, src=src_remote, src_off=0,
                              dst=dst, dst_off=0, nbytes=1 * MiB)
        assert t_remote > t_local

    def test_cached_recopy_faster(self):
        sim = Simulator()
        mem = MemorySystem(sim, dancer())
        a = mem.alloc(256 * KiB, 0, backed=False)
        b = mem.alloc(256 * KiB, 0, backed=False)
        t_cold = timed_copy(sim, mem, core=0, src=a, src_off=0, dst=b,
                            dst_off=0, nbytes=256 * KiB)
        t_warm = timed_copy(sim, mem, core=0, src=a, src_off=0, dst=b,
                            dst_off=0, nbytes=256 * KiB)
        assert t_warm < t_cold

    def test_off_cache_invalidation_restores_cold_time(self):
        sim = Simulator()
        mem = MemorySystem(sim, dancer())
        a = mem.alloc(256 * KiB, 0, backed=False)
        b = mem.alloc(256 * KiB, 0, backed=False)
        t_cold = timed_copy(sim, mem, core=0, src=a, src_off=0, dst=b,
                            dst_off=0, nbytes=256 * KiB)
        mem.caches.invalidate(a)
        mem.caches.invalidate(b)
        t_again = timed_copy(sim, mem, core=0, src=a, src_off=0, dst=b,
                             dst_off=0, nbytes=256 * KiB)
        assert t_again == pytest.approx(t_cold, rel=1e-6)

    def test_concurrent_copies_one_core_never_beat_serial(self):
        """Time-sliced engine: N concurrent copies by one core take at
        least as long as the same bytes copied serially."""
        spec = dancer()
        n = 256 * KiB

        def run(concurrent: int) -> float:
            sim = Simulator()
            mem = MemorySystem(sim, spec)
            bufs = [(mem.alloc(n, 0, backed=False), mem.alloc(n, 1, backed=False))
                    for _ in range(concurrent)]
            done = []

            def body(a, b):
                yield mem.copy(4, a, 0, b, 0, n)
                done.append(sim.now)

            for a, b in bufs:
                sim.process(body(a, b))
            sim.run()
            return max(done)

        t1 = run(1)
        t4 = run(4)
        assert t4 >= 4 * t1 * 0.95

    def test_concurrent_copies_different_cores_scale(self):
        spec = dancer()
        n = 256 * KiB
        sim = Simulator()
        mem = MemorySystem(sim, spec)
        done = []

        def body(core, a, b):
            yield mem.copy(core, a, 0, b, 0, n)
            done.append(sim.now)

        for core in range(2):
            a = mem.alloc(n, 0, backed=False)
            b = mem.alloc(n, 0, backed=False)
            sim.process(body(core, a, b))
        sim.run()
        serial_estimate = 2 * n / spec.core.copy_bandwidth
        assert max(done) < serial_estimate

    def test_stats_accumulate(self):
        sim = Simulator()
        mem = MemorySystem(sim, dancer())
        a = mem.alloc(1024, 0)
        b = mem.alloc(1024, 0)

        def body():
            yield mem.copy(0, a, 0, b, 0, 1024)
            yield mem.copy(0, b, 0, a, 0, 512)

        sim.process(body())
        sim.run()
        assert mem.copies == 2
        assert mem.bytes_copied == 1536

    def test_dma_copy_moves_data_without_core(self):
        sim = Simulator()
        mem = MemorySystem(sim, dancer())
        a = mem.alloc(64 * KiB, 0)
        b = mem.alloc(64 * KiB, 1)
        a.data[:] = 3

        def body():
            yield mem.dma_copy(a, 0, b, 0, 64 * KiB)

        sim.process(body())
        sim.run()
        assert (b.data == 3).all()

    def test_bounds_violation_rejected(self):
        sim = Simulator()
        mem = MemorySystem(sim, dancer())
        a = mem.alloc(100, 0)
        b = mem.alloc(100, 0)
        with pytest.raises(SimulationError):
            mem.copy(0, a, 50, b, 0, 100)

    def test_fsb_dirty_intervention_slower_than_l3(self):
        """Reading a peer-written buffer: near-free on Dancer's L3, not on
        Zoot's FSB."""
        def handoff_ratio(spec, writer, reader):
            sim = Simulator()
            mem = MemorySystem(sim, spec)
            a = mem.alloc(512 * KiB, 0, backed=False)
            b = mem.alloc(512 * KiB, 0, backed=False)
            c = mem.alloc(512 * KiB, 0, backed=False)
            t1 = timed_copy(sim, mem, core=writer, src=a, src_off=0, dst=b,
                            dst_off=0, nbytes=512 * KiB)
            # reader now re-reads what writer just wrote (dirty hand-off)
            t2 = timed_copy(sim, mem, core=reader, src=b, src_off=0, dst=c,
                            dst_off=0, nbytes=512 * KiB)
            return t2 / t1

        # same-pair cores on zoot vs same-socket cores on dancer
        assert handoff_ratio(dancer(), 0, 1) < handoff_ratio(zoot(), 0, 1)
