"""Replay a trace into an analyzable model of one run.

:class:`TraceModel` walks the recorded event stream once and builds the
structures every checker consumes:

- per-rank **vector clocks** threaded through the message-layer HB edges
  (``mpi.inject``/``mpi.send`` → ``mpi.recv``, ``mpi.fin_send`` →
  ``mpi.fin_recv``), so any two recorded operations can be tested for
  concurrency;
- byte-range **accesses** to simulated buffers (in-kernel KNEM copies plus
  the collectives' explicit local copies), each stamped with the issuing
  rank's clock;
- the **region table**: every KNEM registration with its protection flags,
  owner, live interval, deregistration point, and the copies that used it;
- **failed ioctls** (``knem.fail``) and the set of message-layer operations
  still outstanding at the end of the run (for deadlock diagnosis).

The record stream is totally ordered (the simulator is deterministic and
single-threaded), and records attributed to one rank appear in that rank's
program order, so scanning the stream once while ticking each rank's clock
on its own records yields a sound happens-before relation for *this*
execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.analysis.vectorclock import VectorClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.errors import DeadlockError
    from repro.mpi.runtime import Job
    from repro.simtime.trace import TraceRecord

__all__ = ["Access", "CopyUse", "Region", "Failure", "HealthEvent",
           "RankEvent", "BenchEvent", "TraceModel",
           "build_model"]

#: Copy-record labels that double-count a ``knem.copy`` record and must be
#: skipped when collecting accesses.
_KNEM_COPY_LABELS = frozenset({"knem", "knem-dma"})

#: The only plain-copy label included in race analysis: a collective moving
#: a rank's own contribution.  FIFO/eager transport copies are excluded —
#: their slot reuse is serialized by untraced semaphores and would appear
#: as false write/write races.
_TRACKED_COPY_LABEL = "coll-local"


@dataclass
class Access:
    """One byte-range access to a simulated buffer by one rank."""

    index: int          # position in the record stream
    rank: int
    core: int
    buf: int            # SimBuffer id
    start: int
    nbytes: int
    write: bool
    vc: VectorClock
    via: str            # "knem" | "local"
    cookie: Optional[int] = None

    @property
    def end(self) -> int:
        return self.start + self.nbytes

    def overlaps(self, other: "Access") -> bool:
        return (self.buf == other.buf
                and self.start < other.end and other.start < self.end)

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        via = f" via cookie {self.cookie:#x}" if self.cookie is not None else ""
        return (f"rank {self.rank} {kind} of buf#{self.buf}"
                f"[{self.start}:{self.end}){via}")


@dataclass
class CopyUse:
    """One ``knem.copy`` against a region (for lifecycle/direction checks)."""

    index: int
    rank: Optional[int]
    core: int
    write: bool
    nbytes: int
    vc: Optional[VectorClock]


@dataclass
class Region:
    """Lifecycle of one registered KNEM region."""

    cookie: int
    owner_rank: Optional[int]
    owner_core: int
    buf: int
    buf_label: str
    offset: int
    length: int
    prot: int
    reg_index: int
    reg_vc: Optional[VectorClock]
    dereg_index: Optional[int] = None
    dereg_rank: Optional[int] = None
    dereg_vc: Optional[VectorClock] = None
    uses: list[CopyUse] = field(default_factory=list)

    @property
    def leaked(self) -> bool:
        return self.dereg_index is None

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass
class Failure:
    """One failed KNEM ioctl (``knem.fail`` record)."""

    index: int
    rank: Optional[int]
    op: str
    error: str
    fields: dict[str, Any]


@dataclass
class HealthEvent:
    """One ``knem.degrade`` / ``knem.requalify`` health transition."""

    index: int
    rank: Optional[int]
    kind: str                     # "degrade" | "requalify"
    op: str
    consecutive: int
    disqualified: bool


@dataclass
class BenchEvent:
    """One sweep-substrate event (``chunk.quarantine`` / ``journal.skip`` /
    ``journal.error``): not attributed to any rank — the substrate around
    the simulation, not the simulation itself — but modelled so chaos
    campaigns can assert on the substrate's behaviour the same way the
    checkers assert on schedules."""

    index: int
    kind: str                     # "quarantine" | "skip" | "error"
    cell: Optional[str]
    fields: dict[str, Any]


@dataclass
class RankEvent:
    """One process-level fault event (``rank.crash``/``rank.stall``) or a
    ``watchdog.timeout`` (rank is ``None`` for machine-wide events)."""

    index: int
    rank: Optional[int]
    kind: str                     # "crash" | "stall" | "timeout"
    op: str
    fields: dict[str, Any]


class TraceModel:
    """Everything the checkers need, extracted from one record stream."""

    def __init__(self, nprocs: int, machine: str = ""):
        self.nprocs = nprocs
        self.machine = machine
        self.core_rank: dict[int, int] = {}
        self.clocks = [VectorClock(nprocs) for _ in range(nprocs)]
        self.accesses: list[Access] = []
        self.regions: dict[int, Region] = {}
        self.failures: list[Failure] = []
        #: KNEM health transitions (fault-injected degraded runs).
        self.health_events: list[HealthEvent] = []
        #: process-level fault events (crash/stall/watchdog), alongside
        #: ``health_events`` — a degraded-but-clean schedule shows these
        #: without any race/deadlock findings.
        self.rank_events: list[RankEvent] = []
        #: sweep-substrate events (quarantined cells, journal skips/errors)
        #: emitted by ``run_sweep`` via ``SweepStats.events``.
        self.bench_events: list[BenchEvent] = []
        #: world ranks that died (fail-stop) during the run, in crash order.
        self.dead_ranks: list[int] = []
        #: hb token -> (sender rank, dest world rank) for sends that never
        #: recorded ``mpi.send_done`` (the sender is still inside the send).
        self.outstanding_sends: dict[int, tuple[int, int]] = {}
        #: request id -> (rank, source world rank or None) for receive posts
        #: that never matched an incoming envelope.
        self.pending_recvs: dict[int, tuple[int, Optional[int]]] = {}
        #: set by the runner when the run raised a DeadlockError.
        self.deadlock: Optional["DeadlockError"] = None
        #: set by the runner: the algorithm's declared direction contract.
        self.direction_spec = None
        self.n_records = 0

    # -- construction -----------------------------------------------------
    def ingest(self, records: "list[TraceRecord]") -> "TraceModel":
        """Scan the stream once, building clocks, accesses, and regions."""
        #: hb token -> sender snapshot the matching receive joins.  Written
        #: by ``mpi.send`` (call site) and overwritten by ``mpi.inject``
        #: (envelope post — includes protocol work such as registration).
        msg_snap: dict[int, VectorClock] = {}
        fin_snap: dict[int, VectorClock] = {}
        self.n_records = len(records)
        for index, rec in enumerate(records):
            handler = self._HANDLERS.get(rec.category)
            if handler is not None:
                handler(self, index, rec, msg_snap, fin_snap)
        return self

    def _rank_of_core(self, core: Optional[int]) -> Optional[int]:
        if core is None:
            return None
        return self.core_rank.get(core)

    def _tick(self, rank: Optional[int]) -> Optional[VectorClock]:
        """Advance ``rank``'s clock for one attributed record; snapshot it."""
        if rank is None or not 0 <= rank < self.nprocs:
            return None
        vc = self.clocks[rank]
        vc.tick(rank)
        return vc.copy()

    # -- record handlers --------------------------------------------------
    def _on_send(self, index, rec, msg_snap, fin_snap):
        rank = rec.fields["src"]
        snap = self._tick(rank)
        hb = rec.fields.get("hb", -1)
        if snap is not None and hb >= 0:
            msg_snap[hb] = snap
            self.outstanding_sends[hb] = (rank, rec.fields.get("dst", -1))

    def _on_inject(self, index, rec, msg_snap, fin_snap):
        rank = rec.fields["src"]
        snap = self._tick(rank)
        hb = rec.fields.get("hb", -1)
        if snap is not None and hb >= 0:
            msg_snap[hb] = snap

    def _on_send_done(self, index, rec, msg_snap, fin_snap):
        self._tick(rec.fields["src"])
        self.outstanding_sends.pop(rec.fields.get("hb", -1), None)

    def _on_recv_post(self, index, rec, msg_snap, fin_snap):
        rank = rec.fields["rank"]
        self._tick(rank)
        self.pending_recvs[rec.fields["req"]] = (rank, rec.fields.get("src"))

    def _on_recv(self, index, rec, msg_snap, fin_snap):
        rank = rec.fields["rank"]
        self._tick(rank)
        snap = msg_snap.get(rec.fields.get("hb", -1))
        if snap is not None and 0 <= rank < self.nprocs:
            self.clocks[rank].join(snap)
        self.pending_recvs.pop(rec.fields.get("req", -1), None)

    def _on_fin_send(self, index, rec, msg_snap, fin_snap):
        rank = rec.fields["rank"]
        snap = self._tick(rank)
        if snap is not None:
            fin_snap[rec.fields["seq"]] = snap

    def _on_fin_recv(self, index, rec, msg_snap, fin_snap):
        rank = rec.fields["rank"]
        self._tick(rank)
        snap = fin_snap.get(rec.fields["seq"])
        if snap is not None and 0 <= rank < self.nprocs:
            self.clocks[rank].join(snap)

    def _on_register(self, index, rec, msg_snap, fin_snap):
        f = rec.fields
        rank = self._rank_of_core(f.get("core"))
        snap = self._tick(rank)
        self.regions[f["cookie"]] = Region(
            cookie=f["cookie"], owner_rank=rank, owner_core=f.get("core", -1),
            buf=f["buf"], buf_label=f.get("buf_label", ""),
            offset=f.get("offset", 0), length=f["length"], prot=f["prot"],
            reg_index=index, reg_vc=snap,
        )

    def _on_deregister(self, index, rec, msg_snap, fin_snap):
        f = rec.fields
        rank = self._rank_of_core(f.get("core"))
        snap = self._tick(rank)
        region = self.regions.get(f["cookie"])
        if region is not None:
            region.dereg_index = index
            region.dereg_rank = rank
            region.dereg_vc = snap

    def _on_knem_copy(self, index, rec, msg_snap, fin_snap):
        f = rec.fields
        rank = self._rank_of_core(f.get("core"))
        snap = self._tick(rank)
        write = bool(f["write"])
        nbytes = f["nbytes"]
        region = self.regions.get(f["cookie"])
        if region is not None:
            region.uses.append(CopyUse(index, rank, f.get("core", -1),
                                       write, nbytes, snap))
        if rank is None or snap is None or not nbytes:
            return
        core = f.get("core", -1)
        # The region side: written by sender-writing copies, read otherwise.
        self.accesses.append(Access(
            index, rank, core, f["region_buf"], f["region_start"], nbytes,
            write, snap, via="knem", cookie=f["cookie"],
        ))
        # The local side moves the opposite direction.
        self.accesses.append(Access(
            index, rank, core, f["local_buf"], f["local_start"], nbytes,
            not write, snap, via="knem", cookie=f["cookie"],
        ))

    def _on_knem_fail(self, index, rec, msg_snap, fin_snap):
        f = rec.fields
        rank = self._rank_of_core(f.get("core"))
        self._tick(rank)
        self.failures.append(Failure(index, rank, f.get("op", "?"),
                                     f.get("error", "?"), dict(f)))

    def _on_degrade(self, index, rec, msg_snap, fin_snap):
        f = rec.fields
        rank = self._rank_of_core(f.get("core"))
        self._tick(rank)
        self.health_events.append(HealthEvent(
            index, rank, "degrade", f.get("op", "?"),
            f.get("consecutive", 0), bool(f.get("disqualified", False)),
        ))

    def _on_requalify(self, index, rec, msg_snap, fin_snap):
        f = rec.fields
        rank = self._rank_of_core(f.get("core"))
        self._tick(rank)
        self.health_events.append(HealthEvent(
            index, rank, "requalify", f.get("op", "?"),
            f.get("after_failures", 0), False,
        ))

    def _on_rank_crash(self, index, rec, msg_snap, fin_snap):
        f = rec.fields
        rank = f.get("rank")
        self._tick(rank)
        self.rank_events.append(RankEvent(index, rank, "crash",
                                          f.get("op", ""), dict(f)))
        if rank is not None and rank not in self.dead_ranks:
            self.dead_ranks.append(rank)

    def _on_rank_stall(self, index, rec, msg_snap, fin_snap):
        f = rec.fields
        rank = f.get("rank")
        self._tick(rank)
        self.rank_events.append(RankEvent(index, rank, "stall",
                                          f.get("op", ""), dict(f)))

    def _on_watchdog(self, index, rec, msg_snap, fin_snap):
        self.rank_events.append(RankEvent(index, None, "timeout", "",
                                          dict(rec.fields)))

    def _on_chunk_quarantine(self, index, rec, msg_snap, fin_snap):
        f = rec.fields
        self.bench_events.append(BenchEvent(index, "quarantine",
                                            f.get("cell"), dict(f)))

    def _on_journal_skip(self, index, rec, msg_snap, fin_snap):
        f = rec.fields
        self.bench_events.append(BenchEvent(index, "skip",
                                            f.get("cell"), dict(f)))

    def _on_journal_error(self, index, rec, msg_snap, fin_snap):
        f = rec.fields
        self.bench_events.append(BenchEvent(index, "error",
                                            f.get("cell"), dict(f)))

    def _on_mem_copy(self, index, rec, msg_snap, fin_snap):
        f = rec.fields
        label = f.get("label", "")
        if label in _KNEM_COPY_LABELS or label != _TRACKED_COPY_LABEL:
            return
        rank = self._rank_of_core(f.get("core"))
        snap = self._tick(rank)
        if rank is None or snap is None or not f["nbytes"]:
            return
        core = f.get("core", -1)
        self.accesses.append(Access(index, rank, core, f["src_buf"],
                                    f["src_off"], f["nbytes"], False, snap,
                                    via="local"))
        self.accesses.append(Access(index, rank, core, f["dst_buf"],
                                    f["dst_off"], f["nbytes"], True, snap,
                                    via="local"))

    _HANDLERS = {
        "mpi.send": _on_send,
        "mpi.inject": _on_inject,
        "mpi.send_done": _on_send_done,
        "mpi.recv_post": _on_recv_post,
        "mpi.recv": _on_recv,
        "mpi.fin_send": _on_fin_send,
        "mpi.fin_recv": _on_fin_recv,
        "knem.register": _on_register,
        "knem.deregister": _on_deregister,
        "knem.copy": _on_knem_copy,
        "knem.fail": _on_knem_fail,
        "knem.degrade": _on_degrade,
        "knem.requalify": _on_requalify,
        "rank.crash": _on_rank_crash,
        "rank.stall": _on_rank_stall,
        "watchdog.timeout": _on_watchdog,
        "chunk.quarantine": _on_chunk_quarantine,
        "journal.skip": _on_journal_skip,
        "journal.error": _on_journal_error,
        "copy": _on_mem_copy,
    }

    # -- queries -----------------------------------------------------------
    def concurrent(self, a: Access, b: Access) -> bool:
        """True when neither access happens-before the other."""
        return not VectorClock.ordered(a.vc, a.rank, b.vc, b.rank)

    def accesses_by_buffer(self) -> dict[int, list[Access]]:
        grouped: dict[int, list[Access]] = {}
        for acc in self.accesses:
            grouped.setdefault(acc.buf, []).append(acc)
        return grouped


def build_model(job: "Job", records: "list[TraceRecord] | None" = None,
                deadlock: "DeadlockError | None" = None,
                direction_spec=None) -> TraceModel:
    """Build a :class:`TraceModel` from a completed (or crashed) job.

    ``records`` defaults to the machine tracer's full stream; pass a slice
    when several runs share one machine (the pytest plugin does).
    """
    model = TraceModel(job.nprocs, machine=job.machine.spec.name)
    model.core_rank = {p.core: p.rank for p in job.procs}
    model.deadlock = deadlock
    model.direction_spec = direction_spec
    if records is None:
        records = job.machine.tracer.records
    model.ingest(records)
    return model
