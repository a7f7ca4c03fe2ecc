"""The copy path: memoised copy shapes and lazily backed buffers.

:func:`oracle_shape` is the flow construction of ``MemorySystem.copy`` as
it stood before copy shapes were memoised, copied verbatim (``self`` read
as ``mem``) and never to be edited.  Every copy must hand the flow network
**bitwise** the demand, weights, streams and latency it builds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.imb import ImbSettings, imb_time
from repro.errors import HardwareConfigError, SimulationError
from repro.hardware.flows import Resource
from repro.hardware.memory import MemorySystem
from repro.mpi import Job, Machine, stacks
from repro.units import KiB

MACHINE_NAMES = ("zoot", "dancer", "saturn", "ig")


def _add_weight(weights, res, w):
    weights[res] = weights.get(res, 0.0) + w


def oracle_shape(mem, core, src, src_off, dst, nbytes):
    """``(demand, weights, streams, latency)`` of a copy issued now."""
    core_domain = mem.spec.core_domain(core)

    clean, dirty = mem.caches.residency(core, src, src_off, nbytes)
    # Dirty lines (written by a peer core) are served by a coherence
    # intervention whose usefulness is platform-dependent: ~free on an
    # on-die shared L3, bus-speed (worthless) on a snoopy FSB.
    resident = clean + dirty * mem.spec.dirty_intervention_efficiency
    cache_dom = mem.caches.domain_of(core)
    sharers = mem._sharing_factor(cache_dom, src.id, src_off, nbytes)
    # Concurrent same-domain readers split the line fills among them.
    miss = (1.0 - resident) / (1.0 + sharers)
    hit = 1.0 - miss
    read_route = mem.route(src.domain, core_domain)
    demand = mem._blended_rate(hit, read_hops=len(read_route))
    weights: dict[Resource, float] = {mem.core_engines[core]: 1.0 / demand}
    streams: dict[Resource, float] = {}
    # LLC traffic: cache-served reads (hit fraction) plus write-allocate.
    _add_weight(weights, mem.llc_ports[id(cache_dom)], hit + 1.0)
    # Reading a peer's dirty lines may demote them with a home-memory
    # writeback (MESI/MESIF); MOESI serves sharers from the Owned state
    # without touching memory (intervention_writeback = 0).
    src_port_load = miss + (dirty * mem.spec.dirty_intervention_efficiency
                            * mem.spec.intervention_writeback)
    if src_port_load > 1e-9:
        src_port = mem.mem_ports[src.domain]
        _add_weight(weights, src_port, src_port_load)
        streams[src_port] = 1.0  # a latency-sensitive read stream
    if miss > 1e-9:
        for key in read_route:
            _add_weight(weights, mem.links[key], miss)
    dst_port = mem.mem_ports[dst.domain]
    _add_weight(weights, dst_port, 1.0)
    streams[dst_port] = streams.get(dst_port, 0.0) + mem.spec.write_stream_weight
    for key in mem.route(core_domain, dst.domain):
        _add_weight(weights, mem.links[key], 1.0)

    latency = mem.spec.mem_latency
    for key in mem.route(src.domain, core_domain):
        latency += mem._link_latency[key]
    for key in mem.route(core_domain, dst.domain):
        latency += mem._link_latency[key]
    return demand, weights, streams, latency


def _capture_transfers(mem):
    """Check every copy's transfer arguments against the oracle."""
    checked = []
    real_copy, real_transfer = mem.copy, mem.network.transfer
    expected = {}

    def transfer(nbytes, latency=0.0, label="", shape=None):
        want_demand, want_weights, want_streams, want_latency = expected["shape"]
        assert shape.demand == want_demand
        assert list(shape.weights.items()) == list(want_weights.items())
        assert list(shape.streams.items()) == list(want_streams.items())
        assert latency == want_latency
        assert shape.terms == tuple((r, w, want_streams.get(r, 1.0))
                                    for r, w in want_weights.items())
        assert mem.network._sig_ids[(shape.demand, shape.terms)] == shape.sig
        checked.append(shape)
        return real_transfer(nbytes, latency=latency, label=label, shape=shape)

    def copy(core, src, src_off, dst, dst_off, nbytes, **kwargs):
        expected["shape"] = oracle_shape(mem, core, src, src_off, dst, nbytes)
        return real_copy(core, src, src_off, dst, dst_off, nbytes, **kwargs)

    mem.network.transfer = transfer
    mem.copy = copy
    return checked


_COPIES = st.lists(
    st.tuples(st.integers(0, 47), st.integers(0, 7), st.integers(0, 7),
              st.integers(0, 15), st.integers(1, 16)),
    min_size=1, max_size=12)


class TestCopyShapes:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(MACHINE_NAMES), st.lists(_COPIES, min_size=1,
                                                    max_size=3))
    def test_memoised_shapes_match_the_oracle(self, name, batches):
        """Batches of concurrent copies (sharers), run to completion one
        after another (clean and dirty residency, memo hits)."""
        machine = Machine.build(name)
        mem, spec = machine.mem, machine.spec
        bufs = [mem.alloc(64 * KiB, d % spec.n_domains, backed=False)
                for d in range(8)]
        checked = _capture_transfers(mem)
        issued = 0
        for batch in batches:
            for core, s, d, page, pages in batch:
                off = page * 4 * KiB
                n = min(pages * 4 * KiB, 64 * KiB - off)
                mem.copy(core % spec.n_cores, bufs[s], off, bufs[d], 0, n)
                issued += 1
            machine.sim.run()
        assert len(checked) == issued

    def test_repeated_shape_is_served_from_the_table(self):
        machine = Machine.build("ig")
        mem = machine.mem
        src, dst = mem.alloc(8 * KiB, 0), mem.alloc(8 * KiB, 5)
        checked = _capture_transfers(mem)
        for _ in range(3):
            mem.copy(3, src, 0, dst, 0, 8 * KiB)
            machine.sim.run()
            mem.caches.invalidate(src)
        assert len(checked) == 3
        assert checked[0] is checked[1] is checked[2]
        assert len(mem._shapes) == 1

    def test_invalid_core_is_still_rejected(self):
        machine = Machine.build("zoot")
        src = machine.mem.alloc(64, 0)
        machine.mem.copy(0, src, 0, src, 0, 64)
        with pytest.raises(HardwareConfigError):
            machine.mem.copy(99, src, 0, src, 0, 64)
        with pytest.raises(SimulationError):
            machine.mem.copy(0, src, 32, src, 0, 64)


def _record_allocs(monkeypatch) -> list:
    allocated = []
    real = MemorySystem.alloc

    def alloc(self, *args, **kwargs):
        buf = real(self, *args, **kwargs)
        allocated.append(buf)
        return buf

    monkeypatch.setattr(MemorySystem, "alloc", alloc)
    return allocated


class TestLazyBacking:
    def test_backed_buffer_reads_as_zeros_when_first_used(self):
        machine = Machine.build("zoot")
        buf = machine.mem.alloc(64, 0)
        assert buf.backed and not buf.materialised
        assert buf.data.tobytes() == bytes(64)
        assert buf.materialised and buf.array is buf.data

    def test_copy_from_unmaterialised_source_zero_fills(self):
        machine = Machine.build("dancer")
        mem = machine.mem
        lazy = mem.alloc(64, 0)
        dst = mem.alloc(64, 0, array=np.full(64, 7, dtype=np.uint8))
        mem.copy(0, lazy, 0, dst, 0, 16)
        machine.sim.run()
        assert not lazy.materialised
        assert dst.data.tobytes() == bytes(16) + bytes([7]) * 48

    def test_copy_between_unmaterialised_buffers_creates_neither(self):
        machine = Machine.build("dancer")
        mem = machine.mem
        a, b = mem.alloc(64, 0), mem.alloc(64, 1)
        mem.copy(0, a, 0, b, 0, 64)
        machine.sim.run()
        assert mem.copies == 1
        assert not a.materialised and not b.materialised

    def test_unbacked_intermediate_rank_forwards_real_bytes(self):
        """Binomial scatter on 4 ranks: rank 2 relays rank 3's block.  An
        unbacked receive buffer at rank 2 must not starve rank 3."""
        count = 1 * KiB
        job = Job(Machine.build("dancer"), nprocs=4, stack=stacks.TUNED_SM)
        blocks = (np.arange(4 * count) % 251 + 1).astype(np.uint8)

        def program(proc):
            recv = proc.alloc(count, backed=proc.rank != 2)
            send = None
            if proc.rank == 0:
                send = proc.alloc(4 * count)
                send.array[:] = blocks
            yield from proc.comm.scatter(send, recv, count, root=0)
            return recv.array.tobytes() if recv.backed else None

        res = job.run(program)
        for rank in (0, 1, 3):
            assert res.values[rank] == \
                blocks[rank * count:(rank + 1) * count].tobytes()

    @pytest.mark.parametrize("op,size", [("gather", 4 * KiB),
                                         ("scatter", 4 * KiB),
                                         ("alltoallv", 32 * KiB)])
    def test_imb_cell_materialises_no_fifo_or_temporary(self, monkeypatch,
                                                        op, size):
        allocated = _record_allocs(monkeypatch)
        t = imb_time("zoot", stacks.TUNED_SM, 16, op, size,
                     ImbSettings(max_iterations=1, warmups=0))
        assert t > 0
        labels = {b.label.split("[")[0] for b in allocated}
        assert "fifo" in labels
        if op != "alltoallv":
            assert f"{op}-tmp" in labels
        for buf in allocated:
            if buf.label.startswith("fifo") or buf.label.endswith("-tmp"):
                assert not buf.materialised, buf.label

    def test_backed_sm_send_materialises_its_fifo(self):
        nbytes = 100 * KiB  # a multi-fragment SM rendezvous
        machine = Machine.build("dancer")
        job = Job(machine, nprocs=2, stack=stacks.TUNED_SM)
        pattern = (np.arange(nbytes) % 251).astype(np.uint8)

        def program(proc):
            buf = proc.alloc(nbytes)
            if proc.rank == 0:
                buf.array[:] = pattern
                yield from proc.comm.send(1, buf, 0, nbytes)
                return None
            yield from proc.comm.recv(0, buf, 0, nbytes)
            return buf.array.tobytes()

        res = job.run(program)
        assert res.values[1] == pattern.tobytes()
        fifos = list(machine.shm._fifos.values())
        assert fifos and all(seg.buffer.materialised for seg in fifos)
