"""Epoch-based group-commit durability: logging, checkpoints, crash, recovery.

This is the simulated equivalent of Silo's epoch group commit plus SiloR's
logging/checkpoint/recovery pipeline, driven entirely by scheduler events.
One pipeline serves both deployments: it runs over N serial **log
devices** — one on a single node, one per shard in a cluster
(:class:`~repro.cluster.durability.ClusterDurability`) — each with its own
epoch buffer, flush-free time, in-flight flushes and persistent epoch.

* **logging** — :meth:`DurabilityManager.log_commit` is called from
  ``validation.finish`` at *install* time (the single commit point shared
  by every protocol).  It assigns the commit a global sequence number and
  the current epoch, and appends a :class:`~repro.durability.log.LogRecord`
  to its device's buffer (appends happen in seqno order).  The worker then
  pays ``log_write`` ticks per written image (:meth:`consume_log_cost`).
* **group commit** — at every ``epoch_length`` boundary each device hands
  its buffer for the closing epoch to its serial flush device; the flush
  completes ``log_flush`` ticks after the device is free.  An epoch is
  *persistent* once every device has flushed it (the watermark is the min
  of the devices' persistent epochs), and only then are its transactions
  **acked**: ``RunStats.record_commit`` runs at that point, so reported
  commits/latency are of durable transactions, exactly like Silo's
  client-visible commits.
* **checkpoints** — :class:`Database` snapshots tagged with the last
  assigned seqno, taken at t=0 (from the same snapshot that seeds the
  oracle's durable view), every ``checkpoint_interval`` ticks, and after
  each recovery.  Charged no simulated time (SiloR checkpoints on spare
  threads).
* **node crash** — the scripted ``node_crash`` fault calls
  :meth:`node_crash`: every device truncates to the persistent epoch,
  every worker is torn down (in-flight attempts abort through their
  normal cleanup, pre-charged sleep time is refunded), and recovery
  rebuilds a fresh database from the newest usable checkpoint plus log
  replay in seqno order, checks it against the durability oracle and
  swaps it in.  Workers restart after ``recovery_base +
  replay_per_record * n`` ticks of downtime, charged as a
  ``wait:recovery`` span.

A subclass changes *what* flows through the pipeline, not the pipeline:
it routes records to devices in :meth:`log_commit` and overrides the
small hooks (``_flushing_devices``, ``_watermark``, ``_on_durable``,
``_txns_of``, ``_before_node_crash``, ``_prepare_replay``,
``_swap_database``) that decide which devices flush, which records ack
or replay, and what else a crash resets.

The durable log prefix is **dependency-closed**: the commit-phase
dependency wait guarantees a dependency installs (and receives its seqno
and epoch) before any dependent, so epochs are nondecreasing in seqno and
truncating to the persistent epoch can never keep a transaction while
dropping one it read from.  That is what makes both recovery-by-replay and
the filtered serializability check (:mod:`repro.durability.oracle`) sound.

Determinism: everything here keys off scheduler callbacks at exact
simulated times and off install order; restarted workers draw their RNGs
from ``spawn_rng(seed, worker_id, RESTART_RNG_SALT + crash_number)``, so a
crashed-and-recovered run is replayable bit for bit.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterator, List, Optional, Set,
                    TYPE_CHECKING)

from ..config import SimConfig
from ..errors import ReproError
from ..obs.tracing import EventKind, TraceEvent
from ..rng import spawn_rng
from ..storage.database import Database, Snapshot
from .log import LogRecord, WriteImage, apply_record
from .oracle import verify_recovery

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random
    from ..core.context import TxnContext
    from ..sim.scheduler import Scheduler
    from ..sim.stats import RunStats
    from ..sim.worker import Worker

#: salt mixed into restarted workers' RNG seeds (plus the crash number), so
#: post-recovery workers draw fresh, deterministic streams distinct from
#: the original workers' and from any other component's
RESTART_RNG_SALT = 0x52455354  # "REST"


class Checkpoint:
    """One database checkpoint: a committed-state snapshot tagged with the
    last seqno it covers (every install with ``seqno <= last_seqno`` is in
    the snapshot, and no later one is)."""

    __slots__ = ("time", "last_seqno", "snapshot")

    def __init__(self, time: float, last_seqno: int,
                 snapshot: Snapshot) -> None:
        self.time = time
        self.last_seqno = last_seqno
        self.snapshot = snapshot

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Checkpoint(t={self.time}, last_seqno={self.last_seqno})"


class RecoveryReport:
    """Everything one node-crash recovery did, for tests and the CLI."""

    __slots__ = ("time", "restart_time", "persistent_epoch", "durable_seqno",
                 "checkpoint_seqno", "replayed", "lost_inflight",
                 "lost_unflushed", "recovery_ticks", "violations",
                 "recovered_snapshot")

    def __init__(self, time: float, restart_time: float,
                 persistent_epoch: int, durable_seqno: int,
                 checkpoint_seqno: int, replayed: int, lost_inflight: int,
                 lost_unflushed: int, recovery_ticks: float,
                 violations: List[str],
                 recovered_snapshot: Snapshot) -> None:
        self.time = time
        self.restart_time = restart_time
        self.persistent_epoch = persistent_epoch
        self.durable_seqno = durable_seqno
        self.checkpoint_seqno = checkpoint_seqno
        self.replayed = replayed
        self.lost_inflight = lost_inflight
        self.lost_unflushed = lost_unflushed
        self.recovery_ticks = recovery_ticks
        #: durability-oracle failures found during this recovery ([] = OK)
        self.violations = violations
        #: deep snapshot of the recovered database (determinism tests
        #: pickle this and compare byte-for-byte across repeated recoveries)
        self.recovered_snapshot = recovered_snapshot

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"RecoveryReport(t={self.time}, epoch={self.persistent_epoch},"
                f" replayed={self.replayed}, lost={self.lost_unflushed}+"
                f"{self.lost_inflight})")


class DurabilityManager:
    """Owns the simulated WAL devices, the epoch clock, checkpoints and
    recovery for one run.  Created by the bench runner when
    ``config.durability`` is set and attached to the scheduler as
    ``scheduler.durability``.  A single node has one log device; a
    cluster config (``config.cluster``) has one per shard."""

    #: EPOCH trace events name the devices that flushed the epoch
    #: (``shards``); off on a single node, whose events carry no such key
    trace_epoch_shards = False

    def __init__(self, config: SimConfig, db: Database, workload, cc,
                 stats: "RunStats") -> None:
        if config.durability is None:
            raise ReproError("DurabilityManager requires config.durability")
        self.config = config
        self.dc = config.durability
        self.db = db
        self.workload = workload
        self.cc = cc
        self.stats = stats
        self.scheduler: Optional["Scheduler"] = None
        self._worker_factory: Optional[Callable[[int, "random.Random"],
                                                "Worker"]] = None
        # -- log state -------------------------------------------------- #
        #: serial log devices: one per shard in a cluster, else one
        n = config.cluster.n_shards if config.cluster is not None else 1
        self.n_devices = n
        #: last assigned global commit sequence number (0 = none yet)
        self.seqno = 0
        #: epoch currently receiving commits (epochs are 1-based)
        self.current_epoch = 1
        #: latest epoch flushed on every device — the watermark up to
        #: which transactions are acked (0 = none yet)
        self.persistent_epoch = 0
        #: per-device buffers for the current epoch (append order = seqno
        #: order: every append takes a fresh seqno at the install point)
        self._buffers: List[List[LogRecord]] = [[] for _ in range(n)]
        #: log-write cost owed by each worker at its next commit yield
        self._pending_cost: Dict[int, float] = {}
        #: per-device flushes handed to the device but not yet completed
        #: (epoch -> records; truncated on crash: not persistent)
        self._inflight: List[Dict[int, List[LogRecord]]] = [
            {} for _ in range(n)]
        #: simulated time at which each serial log device becomes free
        self._flush_free: List[float] = [0.0] * n
        #: latest epoch each device has flushed; ``persistent_epoch`` is
        #: their min (over the devices :meth:`_watermark` counts)
        self._device_persistent: List[int] = [0] * n
        #: per-device restart generation: a stale flush completion of a
        #: device that crashed on its own is dropped
        self._device_generation: List[int] = [0] * n
        #: flushed records awaiting the watermark: epoch -> device ->
        #: records (durable on their own device, not yet acked)
        self._awaiting: Dict[int, Dict[int, List[LogRecord]]] = {}
        #: the durable log: watermark-covered records in seqno order
        self.durable_log: List[LogRecord] = []
        # one snapshot seeds both the durable view and the t=0 checkpoint
        snapshot = db.snapshot()
        #: committed state implied by the durable log (recovery oracle's
        #: expected state) as a snapshot-shaped dict, a delete kept as
        #: ``(vid, None)``.  Copy-on-write over the t=0 checkpoint: the
        #: table dicts are shallow copies sharing its row tuples, and
        #: :meth:`_ack_epoch` replaces entries wholesale with log images
        #: (why sharing is safe: :mod:`repro.durability.oracle`)
        self.durable_view: Snapshot = {
            name: dict(rows) for name, rows in snapshot.items()}
        #: version ids made durable so far (oracle: nothing else may
        #: surface in a recovered database)
        self._durable_vids: Set[tuple] = set()
        #: highest seqno acked to a client (oracle: must stay durable)
        self.max_acked_seqno = 0
        # -- checkpoints ------------------------------------------------ #
        self.checkpoints: List[Checkpoint] = [Checkpoint(0.0, 0, snapshot)]
        self.checkpoints_taken = 1
        # -- counters --------------------------------------------------- #
        self.log_records_total = 0
        self.log_bytes_total = 0
        self.flushes = 0
        self.flush_stalls = 0
        self.acked_commits = 0
        self.max_epoch_lag = 0
        self.crash_count = 0
        self.lost_inflight_total = 0
        self.lost_unflushed_total = 0
        self.recovery_ticks_total = 0.0
        #: txn ids of committed-but-lost transactions across all crashes
        #: (the serializability checker filters these out; the lost set is
        #: dependency-closed, see the module docstring)
        self.lost_txn_ids: Set[int] = set()
        self.recoveries: List[RecoveryReport] = []
        #: durability-oracle violations across the run ([] = all clean)
        self.violations: List[str] = []
        #: invalidates scheduled epoch/flush/checkpoint callbacks on crash
        self._crash_generation = 0

    # ------------------------------------------------------------------ #
    # wiring

    def install(self, scheduler: "Scheduler",
                worker_factory: Callable[[int, "random.Random"],
                                         "Worker"]) -> None:
        """Attach to the scheduler and start the epoch (and optional
        checkpoint) clocks; the t=0 checkpoint was taken at construction.
        ``worker_factory`` builds replacement workers after a crash."""
        self.scheduler = scheduler
        self._worker_factory = worker_factory
        generation = self._crash_generation
        scheduler.schedule_callback(
            self.dc.epoch_length,
            lambda: self._on_epoch_boundary(generation))
        if self.dc.checkpoint_interval > 0:
            scheduler.schedule_callback(
                self.dc.checkpoint_interval,
                lambda: self._on_checkpoint(generation))

    # ------------------------------------------------------------------ #
    # logging (hot path: called once per commit)

    def log_commit(self, ctx: "TxnContext") -> None:
        """Append one committed transaction to the log buffer.  Called
        from ``validation.finish`` at install time, so append order (the
        assigned seqno) is exactly the commit-lock install order."""
        self.seqno += 1
        worker = ctx.worker
        worker_id = worker.worker_id if worker is not None else -1
        writes = [
            WriteImage(entry.table, entry.key, entry.value,
                       entry.installed_vid)
            for entry in sorted(ctx.wset.values(), key=lambda e: e.order)
            if entry.installed_vid is not None
        ]
        self._buffers[0].append(LogRecord(
            self.seqno, self.current_epoch, ctx.txn_id, worker_id,
            ctx.type_name, ctx.priority[0], self.scheduler.now, writes,
            deadline=worker.deadline if worker is not None else None))
        self._pending_cost[worker_id] = (
            self._pending_cost.get(worker_id, 0.0)
            + self.dc.log_write * (1 + len(writes)))

    def consume_log_cost(self, worker_id: int) -> float:
        """Ticks the committing worker owes for its buffered log append
        (one header plus one image per write); paid at the commit yield."""
        return self._pending_cost.pop(worker_id, 0.0)

    # ------------------------------------------------------------------ #
    # the epoch clock over the serial flush devices

    def _on_epoch_boundary(self, generation: int) -> None:
        if generation != self._crash_generation:
            return  # scheduled before a crash that superseded this clock
        scheduler = self.scheduler
        now = scheduler.now
        closing = self.current_epoch
        self.current_epoch += 1
        scheduler.schedule_callback(
            now + self.dc.epoch_length,
            lambda: self._on_epoch_boundary(generation))
        lag = closing - self.persistent_epoch
        if lag > self.max_epoch_lag:
            self.max_epoch_lag = lag
        timeline = scheduler.timeline
        for device in self._flushing_devices():
            records = self._buffers[device]
            self._buffers[device] = []
            # a serial device: a flush starts when the device is free and
            # the boundary has passed, so slow flushes queue and stall acks
            start = max(now, self._flush_free[device])
            if records:
                self.flushes += 1
                if start > now:
                    self.flush_stalls += 1
                if timeline is not None:
                    timeline.on_flush(now, stalled=start > now)
                completion = start + self.dc.log_flush
            else:
                completion = start  # empty epoch: a free marker, in order
            self._flush_free[device] = completion
            self._inflight[device][closing] = records
            device_generation = self._device_generation[device]
            if completion <= now:
                self._complete_flush(device, closing, generation,
                                     device_generation)
            else:
                scheduler.schedule_callback(
                    completion,
                    lambda d=device, g=device_generation:
                        self._complete_flush(d, closing, generation, g))

    def _complete_flush(self, device: int, epoch: int, generation: int,
                        device_generation: int) -> None:
        if generation != self._crash_generation:
            return  # the crash already truncated this in-flight flush
        if device_generation != self._device_generation[device]:
            return  # the flush device died with its shard
        records = self._inflight[device].pop(epoch, [])
        self._device_persistent[device] = epoch
        self._awaiting.setdefault(epoch, {})[device] = records
        watermark = self._watermark()
        while self.persistent_epoch < watermark:
            next_epoch = self.persistent_epoch + 1
            self._ack_epoch(next_epoch)
            self.persistent_epoch = next_epoch

    def _ack_epoch(self, epoch: int) -> None:
        """The watermark reached ``epoch``: its records are durable.
        Append them to the durable log, ack the client-visible commits
        in seqno order, fold them into the durable view."""
        by_device = self._awaiting.pop(epoch, {})
        merged: List[LogRecord] = []
        for device in sorted(by_device):
            merged.extend(by_device[device])
        if len(by_device) > 1:
            merged.sort(key=lambda r: r.seqno)
        self.durable_log.extend(merged)
        live = self._on_durable(by_device, merged)
        scheduler = self.scheduler
        now = scheduler.now
        nbytes = sum(record.nbytes for record in merged)
        #: per-type [count, total ack latency] — built only for the trace,
        #: consumed by the latency critical path's epoch_flush component
        acks = {} if scheduler.trace.enabled else None
        for record in live:
            for image in record.writes:
                self._durable_vids.add(image.vid)
            if not record.acked:
                continue
            # the client ack: the transaction is durable, so *now* it
            # counts as committed (group-commit latency included)
            self.stats.record_commit(record.type_name, now,
                                     now - record.first_start,
                                     deadline=record.deadline)
            if acks is not None:
                stat = acks.setdefault(record.type_name, [0, 0.0])
                stat[0] += 1
                stat[1] += now - record.first_start
            self.acked_commits += 1
            self.max_acked_seqno = record.seqno
        view = self.durable_view
        for record in live:
            for image in record.writes:
                view.setdefault(image.table, {})[image.key] = (image.vid,
                                                               image.value)
        self.log_records_total += len(merged)
        self.log_bytes_total += nbytes
        if scheduler.trace.enabled:
            attrs = {"epoch": epoch, "records": len(merged),
                     "bytes": nbytes, "acks": acks}
            if self.trace_epoch_shards:
                attrs["shards"] = sorted(by_device)
            scheduler.trace.emit(TraceEvent(now, EventKind.EPOCH, -1,
                                            attrs=attrs))
        self._prune_checkpoints()

    # -- hooks a sharded subclass overrides ----------------------------- #

    def _flushing_devices(self):
        """Devices that flush at an epoch boundary."""
        return range(self.n_devices)

    def _watermark(self) -> int:
        """Latest epoch durable on every device that counts."""
        return min(self._device_persistent)

    def _on_durable(self, by_device: Dict[int, List[LogRecord]],
                    records: List[LogRecord]) -> List[LogRecord]:
        """An epoch's records (``by_device``; ``records`` merged in seqno
        order) reached the durable log.  Returns the ones that register
        their versions, ack if ``record.acked`` and enter the durable
        view."""
        return records

    def _txns_of(self, records: List[LogRecord]) -> Set[int]:
        """Txn ids whose commits ``records`` carry (a crash loses these)."""
        return {record.txn_id for record in records}

    def _before_node_crash(self, now: float) -> None:
        """Reset state a whole-node crash supersedes, before truncation."""

    def _prepare_replay(self):
        """Runs after truncation, before replay.  Returns a predicate
        naming durable records replay must skip (``None``: replay all)
        and extra NODE_CRASH trace attributes."""
        return None, {}

    def _swap_database(self, new_db: Database) -> None:
        """Make the recovered database the live one."""
        self.db = new_db
        self.workload.db = new_db
        self.cc.on_node_recovery(new_db)

    # ------------------------------------------------------------------ #
    # checkpoints

    def _take_checkpoint(self) -> None:
        self.checkpoints.append(Checkpoint(
            self.scheduler.now, self.seqno, self.db.snapshot()))
        self.checkpoints_taken += 1

    def _on_checkpoint(self, generation: int) -> None:
        if generation != self._crash_generation:
            return
        self._take_checkpoint()
        self.scheduler.schedule_callback(
            self.scheduler.now + self.dc.checkpoint_interval,
            lambda: self._on_checkpoint(generation))

    def _durable_seqno(self) -> int:
        return self.durable_log[-1].seqno if self.durable_log else 0

    def _usable_checkpoint(self) -> Checkpoint:
        """Newest checkpoint that contains only durable installs.  The
        t=0 checkpoint (last_seqno 0) always qualifies."""
        durable = self._durable_seqno()
        best = self.checkpoints[0]
        for checkpoint in self.checkpoints:
            if checkpoint.last_seqno <= durable:
                best = checkpoint
        return best

    def _prune_checkpoints(self) -> None:
        """Drop checkpoints superseded by a newer usable one (keep the
        newest usable plus any not-yet-usable ones taken after it)."""
        best = self._usable_checkpoint()
        self.checkpoints = [c for c in self.checkpoints
                            if c is best or c.last_seqno > best.last_seqno]

    def _staged_records(self) -> Iterator[LogRecord]:
        """Every record not yet durable, in deterministic order: each
        device's buffer and in-flight flushes, then flushed epochs
        awaiting the watermark."""
        for device in range(self.n_devices):
            yield from self._buffers[device]
            inflight = self._inflight[device]
            for epoch in sorted(inflight):
                yield from inflight[epoch]
        for epoch in sorted(self._awaiting):
            by_device = self._awaiting[epoch]
            for device in sorted(by_device):
                yield from by_device[device]

    # ------------------------------------------------------------------ #
    # whole-node crash and recovery

    def node_crash(self) -> RecoveryReport:
        """Crash the whole node at the current simulated time, truncate
        every device to the persistent epoch, recover, and restart every
        worker after the recovery downtime.  Called by the fault
        injector's scripted ``node_crash`` event."""
        scheduler = self.scheduler
        now = scheduler.now
        self.crash_count += 1
        self._crash_generation += 1
        self._before_node_crash(now)
        # -- truncate: buffers, in-flight flushes and epochs flushed on
        #    only some devices are gone -------------------------------- #
        lost_records = list(self._staged_records())
        n = self.n_devices
        self._buffers = [[] for _ in range(n)]
        self._inflight = [{} for _ in range(n)]
        self._flush_free = [0.0] * n
        self._awaiting.clear()
        self._pending_cost.clear()
        lost_unflushed = len(lost_records)
        self.lost_txn_ids.update(self._txns_of(lost_records))
        self.lost_unflushed_total += lost_unflushed
        # -- kill every worker (aborts in-flight work, refunds pre-charged
        #    sleep spans so the time-accounting identity survives) ------- #
        lost_inflight = scheduler.crash_all_workers()
        self.lost_inflight_total += lost_inflight
        if scheduler.faults is not None:
            scheduler.faults.on_node_crash()
        # -- recover: checkpoint + log replay in commit (seqno) order ---- #
        skip, crash_attrs = self._prepare_replay()
        durable_seqno = self._durable_seqno()
        checkpoint = self._usable_checkpoint()
        allocator_seq = self.db.allocator._next_seq
        new_db = Database.from_snapshot(checkpoint.snapshot,
                                        allocator_seq=allocator_seq)
        replayed = 0
        for record in self.durable_log:
            if record.seqno <= checkpoint.last_seqno:
                continue
            if skip is not None and skip(record):
                continue
            apply_record(new_db, record)
            replayed += 1
        recovered_snapshot = new_db.snapshot()
        # -- durability oracle ------------------------------------------ #
        violations = verify_recovery(
            self.durable_view, recovered_snapshot, self.max_acked_seqno,
            durable_seqno, self._durable_vids)
        self.violations.extend(
            f"durability(crash #{self.crash_count} @ {now}): {v}"
            for v in violations)
        # -- downtime, database swap, worker restart --------------------- #
        recovery_ticks = (self.dc.recovery_base
                          + self.dc.replay_per_record * replayed)
        self.recovery_ticks_total += recovery_ticks
        restart = now + recovery_ticks
        self._swap_database(new_db)
        charged_until = min(restart, self.config.duration)
        if scheduler.accountant is not None and charged_until > now:
            for worker_id in range(self.config.n_workers):
                scheduler.accountant.on_wait(worker_id, "recovery",
                                             charged_until - now)
        if scheduler.timeline is not None:
            scheduler.timeline.on_recovery(now, charged_until,
                                           self.config.n_workers)
        if scheduler.trace.enabled:
            scheduler.trace.emit(TraceEvent(
                now, EventKind.NODE_CRASH, -1,
                attrs={"persistent_epoch": self.persistent_epoch,
                       "durable_seqno": durable_seqno,
                       "lost_inflight": lost_inflight,
                       "lost_unflushed": lost_unflushed, **crash_attrs}))
            scheduler.trace.emit(TraceEvent(
                now, EventKind.RECOVERY, -1,
                attrs={"checkpoint_seqno": checkpoint.last_seqno,
                       "replayed": replayed,
                       "recovery_ticks": recovery_ticks,
                       "restart": restart}))
        new_workers = [
            self._worker_factory(
                worker_id,
                spawn_rng(self.config.seed, worker_id,
                          RESTART_RNG_SALT + self.crash_count))
            for worker_id in range(self.config.n_workers)
        ]
        scheduler.replace_workers(new_workers, restart)
        # a fresh watchdog window: downtime is not a livelock
        scheduler.last_commit_time = max(scheduler.last_commit_time, restart)
        # -- restart the epoch/checkpoint clocks at the watermark -------- #
        # lost epochs' numbers are reused: the durable log only contains
        # epochs <= persistent_epoch, so numbering stays nondecreasing
        self.current_epoch = self.persistent_epoch + 1
        self._device_persistent = [self.persistent_epoch] * n
        generation = self._crash_generation
        scheduler.schedule_callback(
            restart + self.dc.epoch_length,
            lambda: self._on_epoch_boundary(generation))
        # the recovered state is durable by construction: checkpoint it so
        # a later crash need not replay this prefix again
        self.checkpoints.append(Checkpoint(restart, durable_seqno,
                                           recovered_snapshot))
        self.checkpoints_taken += 1
        self._prune_checkpoints()
        if self.dc.checkpoint_interval > 0:
            scheduler.schedule_callback(
                restart + self.dc.checkpoint_interval,
                lambda: self._on_checkpoint(generation))
        report = RecoveryReport(
            now, restart, self.persistent_epoch, durable_seqno,
            checkpoint.last_seqno, replayed, lost_inflight, lost_unflushed,
            recovery_ticks, violations, recovered_snapshot)
        self.recoveries.append(report)
        return report

    # ------------------------------------------------------------------ #

    def finalize(self) -> None:
        """End-of-run bookkeeping: record the final persistent-epoch lag.
        Commits still buffered or mid-flush at the horizon were never
        acked, exactly like a run that ends between group commits."""
        lag = self.current_epoch - 1 - self.persistent_epoch
        if lag > self.max_epoch_lag:
            self.max_epoch_lag = lag

    def metrics_rows(self) -> List[tuple]:
        """Extra (name, value) gauges for the run's metrics artifact."""
        return []

    @property
    def unflushed_records(self) -> int:
        """Committed records not yet durable (buffers, in-flight flushes,
        epochs awaiting the watermark)."""
        return sum(1 for _ in self._staged_records())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{type(self).__name__}(devices={self.n_devices}, "
                f"epoch={self.current_epoch}, "
                f"persistent={self.persistent_epoch}, seqno={self.seqno}, "
                f"crashes={self.crash_count})")
