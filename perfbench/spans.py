"""Spans and counters recorded from outside the program, at layer boundaries.

The benchmark wraps public methods of the simulator's classes (it never
edits them).  Plain calls become spans: name, start, end, parent span and
cell id, kept in compact arrays in memory and written out when the run
ends.  Generator APIs (the collectives, ``PmlEndpoint.send/recv``,
``KnemDriver.create_region/copy``) are only counted: their host time runs
later, inside the event loop, so it stays in ``simtime.run_self_s``.

Self time of a span is its duration minus the part of it that its direct
children cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

CELL = "bench.cell"
BUILD = "bench.machine_build"
JOB_INIT = "bench.job_init"
JOB_RUN = "bench.job_run"
TRANSFER = "flows.transfer"
COPY = "memory.copy"
CACHE = "cache"
SHM = "shm"
POST_RECV = "mpi.post_recv"
SPAN_NAMES = (CELL, BUILD, JOB_INIT, JOB_RUN, TRANSFER, COPY, CACHE, SHM,
              POST_RECV)

#: Comm methods counted as ``coll.calls`` (blocking generators and the
#: nonblocking variants)
COLL_METHODS = ("barrier", "bcast", "scatter", "scatterv", "gather",
                "gatherv", "allgather", "allgatherv", "alltoall", "alltoallv",
                "reduce", "allreduce", "ibcast", "igather", "iallgather",
                "ialltoall", "ibarrier")
SHM_METHODS = {
    "FifoSegment": ("acquire_slot", "publish", "next_full", "release_slot"),
    "Mailbox": ("post_nowait", "recv"),
    "ShmWorld": ("fifo", "mailbox"),
}
CACHE_COUNTERS = {"touch": "cache.touches",
                  "residency": "cache.residency_calls",
                  "invalidate": "cache.invalidates"}


class SpanRecorder:
    """In-memory span store (struct-of-arrays) plus call counters."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self.name = array("b")
        self.parent = array("q")
        self.cell = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self.active_at_admit = 0
        self.cell_id = -1
        self._open = [-1]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1])
        self.cell.append(self.cell_id)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int8),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "cell": np.frombuffer(self.cell, dtype=np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path, cell_keys: list[str]) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            cell_keys=np.array(cell_keys), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals,
    each child clipped to its parent.  ``parent`` is -1 for roots."""
    n = len(start)
    duration = end - start
    child = np.flatnonzero(parent >= 0)
    if not len(child):
        return duration.copy()
    p = parent[child]
    s = np.maximum(start[child], start[p])
    e = np.maximum(np.minimum(end[child], end[p]), s)
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    # Offset each parent's group far past the previous one so a single
    # running maximum never carries an end time across groups.
    group = np.concatenate(([0], np.cumsum(p[1:] != p[:-1])))
    t0 = float(start.min())
    spread = float(end.max()) - t0 + 1.0
    s = s - t0 + group * spread
    e = e - t0 + group * spread
    reach = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
    covered = np.maximum(0.0, e - np.maximum(s, reach))
    return duration - np.bincount(p, weights=covered, minlength=n)


def layer_times(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer seconds from the recorded spans."""
    a = rec.arrays()
    if not len(a["start"]):
        own = total = np.zeros(len(SPAN_NAMES))
    else:
        duration = a["end"] - a["start"]
        own = np.bincount(a["name"], weights=self_times(a["parent"], a["start"],
                                                        a["end"]),
                          minlength=len(SPAN_NAMES))
        total = np.bincount(a["name"], weights=duration,
                            minlength=len(SPAN_NAMES))

    def tot(name):
        return float(total[SPAN_NAMES.index(name)])

    def slf(name):
        return float(own[SPAN_NAMES.index(name)])

    return {
        "bench.machine_build_s": tot(BUILD),
        "bench.job_init_s": tot(JOB_INIT),
        "bench.job_run_s": tot(JOB_RUN),
        "bench.cell_self_s": slf(CELL),
        "simtime.run_self_s": slf(JOB_RUN),
        "flows.transfer_s": tot(TRANSFER),
        "memory.copy_self_s": slf(COPY),
        "cache.s": tot(CACHE),
        "shm.s": tot(SHM),
        "mpi.post_recv_s": tot(POST_RECV),
    }


def _timed(rec: SpanRecorder, name: str, fn, count: str | None = None):
    nid = SPAN_NAMES.index(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count is not None:
            rec.counts[count] += 1
        idx = rec.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.finish(idx)
    return wrapper


def _counted(rec: SpanRecorder, count: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[count] += 1
        return fn(*args, **kwargs)
    return wrapper


def _transfer(rec: SpanRecorder, fn):
    timed = _timed(rec, TRANSFER, fn, count="flows.transfers")

    @functools.wraps(fn)
    def wrapper(network, *args, **kwargs):
        rec.active_at_admit += network.active_count
        return timed(network, *args, **kwargs)
    return wrapper


class Patches:
    """Replace class attributes; :meth:`restore` puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, object]] = []

    def set(self, cls: type, attr: str, value) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def restore(self) -> None:
        while self._saved:
            cls, attr, value = self._saved.pop()
            setattr(cls, attr, value)


def instrument(rec: SpanRecorder, patches: Patches) -> None:
    """Wrap the layer boundaries of the simulator's classes."""
    from repro.hardware.cache import CacheSystem
    from repro.hardware.flows import FlowNetwork
    from repro.hardware.memory import MemorySystem
    from repro.kernel import shm
    from repro.mpi.communicator import Comm
    from repro.mpi.pml import PmlEndpoint
    from repro.mpi.runtime import Job, Machine

    build = Machine.__dict__["build"].__func__
    patches.set(Machine, "build", classmethod(_timed(rec, BUILD, build)))
    patches.set(Job, "__init__", _timed(rec, JOB_INIT, Job.__init__))
    patches.set(Job, "run", _timed(rec, JOB_RUN, Job.run))
    patches.set(FlowNetwork, "transfer", _transfer(rec, FlowNetwork.transfer))
    patches.set(MemorySystem, "copy", _timed(rec, COPY, MemorySystem.copy))
    for meth, count in CACHE_COUNTERS.items():
        patches.set(CacheSystem, meth,
                    _timed(rec, CACHE, getattr(CacheSystem, meth), count))
    for cls_name, methods in SHM_METHODS.items():
        cls = getattr(shm, cls_name)
        for meth in methods:
            patches.set(cls, meth, _timed(rec, SHM, getattr(cls, meth)))
    patches.set(PmlEndpoint, "post_recv",
                _timed(rec, POST_RECV, PmlEndpoint.post_recv))
    for meth in COLL_METHODS:
        patches.set(Comm, meth, _counted(rec, "coll.calls", getattr(Comm, meth)))
