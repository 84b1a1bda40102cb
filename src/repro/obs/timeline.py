"""Windowed time-series sampling of one simulated run (the run's timeline).

End-of-run aggregates (``repro.obs.metrics``) answer "how did the run do";
the timeline answers "how did the run *evolve*" — the question behind the
paper's Fig. 10 (throughput during a policy switch) and §6.5-style drift
diagnosis.  A :class:`TimelineSampler` divides simulated time into
fixed-width windows (default: one durability epoch, so group-commit
cadence and timeline cadence line up) and accumulates, per window:

* commits and throughput (TPS),
* aborts, dooms and the abort rate,
* retry-backoff ticks,
* parked ticks by wait kind and the *conflict-wait fraction* — the share
  of total worker-time spent parked on contention waits (progress,
  commit-dep and lock waits; recovery downtime is tracked separately),
* log-flush counts and stalls (durability runs),
* mean / p99 commit latency of the window's commits.

The sampler follows the tracer's zero-overhead-when-off contract: the
scheduler, stats and durability hooks each perform one falsy attribute
check when no sampler is attached, and attaching one never perturbs
simulation outcomes — it only *observes* quantities the run already
computes (commit times, unpark spans, flush completions).

Export mirrors the other observability artifacts: :meth:`rows` for
in-process use, :meth:`install_metrics` to fold the series into a
:class:`~repro.obs.metrics.MetricsRegistry` as window-labelled gauges, and
:meth:`write_json` / :meth:`write_csv` for standalone artifacts (both
carry a ``schema``/``version`` envelope; see :func:`load_timeline_json`).
"""

from __future__ import annotations

import csv
import json
from typing import Dict, IO, List, Optional, Union

from ..config import TICKS_PER_SECOND
from ..errors import ReproError
from .metrics import _percentile

#: current timeline-artifact schema version (see load_timeline_json)
TIMELINE_SCHEMA = "repro.timeline"
TIMELINE_SCHEMA_VERSION = 1

#: wait kinds counted into the conflict-wait fraction: contention-induced
#: parking (the paper's wait actions, commit-dependency waits, lock waits).
#: Other kinds (e.g. post-crash ``recovery`` downtime) are reported in the
#: per-kind columns but are not *conflict*.
CONFLICT_WAIT_KINDS = frozenset(("progress", "commit_deps", "lock"))


class TimelineSampler:
    """Accumulates per-window run statistics keyed by window index.

    ``window`` is the width in simulated ticks; window ``i`` covers
    ``[i * window, (i + 1) * window)``.  ``n_workers`` scales the
    conflict-wait fraction (total worker-time per window is
    ``window * n_workers``).
    """

    __slots__ = ("window", "n_workers", "_commits", "_aborts", "_dooms",
                 "_backoff", "_wait", "_flushes", "_flush_stalls",
                 "_latency", "_max_window", "_queue_depth", "_shed",
                 "_shard_commits", "_shard_down")

    def __init__(self, window: float, n_workers: int) -> None:
        if window <= 0:
            raise ReproError("timeline window must be positive")
        if n_workers <= 0:
            raise ReproError("timeline n_workers must be positive")
        self.window = float(window)
        self.n_workers = n_workers
        self._commits: Dict[int, int] = {}
        self._aborts: Dict[int, int] = {}
        self._dooms: Dict[int, int] = {}
        self._backoff: Dict[int, float] = {}
        #: window -> wait kind -> parked ticks (attributed at unpark time)
        self._wait: Dict[int, Dict[str, float]] = {}
        self._flushes: Dict[int, int] = {}
        self._flush_stalls: Dict[int, int] = {}
        #: window -> commit-latency samples (for the window's mean / p99)
        self._latency: Dict[int, List[float]] = {}
        #: window -> max admission-queue depth observed (open-loop runs)
        self._queue_depth: Dict[int, int] = {}
        #: window -> shed invocations (open-loop runs)
        self._shed: Dict[int, int] = {}
        #: window -> home shard -> commits (cluster runs)
        self._shard_commits: Dict[int, Dict[int, int]] = {}
        #: window -> shard -> ticks the shard spent down (shard crashes)
        self._shard_down: Dict[int, Dict[int, float]] = {}
        self._max_window = -1

    # ------------------------------------------------------------------ #
    # hooks (called from stats / scheduler / durability when attached)

    def _index(self, now: float) -> int:
        index = int(now // self.window)
        if index > self._max_window:
            self._max_window = index
        return index

    def on_commit(self, now: float, type_name: str, latency: float) -> None:
        index = self._index(now)
        self._commits[index] = self._commits.get(index, 0) + 1
        self._latency.setdefault(index, []).append(latency)

    def on_abort(self, now: float, type_name: str, reason: str) -> None:
        index = self._index(now)
        self._aborts[index] = self._aborts.get(index, 0) + 1

    def on_doom(self, now: float) -> None:
        index = self._index(now)
        self._dooms[index] = self._dooms.get(index, 0) + 1

    def on_backoff(self, now: float, pause: float) -> None:
        index = self._index(now)
        self._backoff[index] = self._backoff.get(index, 0.0) + pause

    def on_wait(self, now: float, kind: str, ticks: float) -> None:
        """Attribute a completed parked span to the window it *ends* in
        (``now`` is the unpark instant, matching the accountant)."""
        index = self._index(now)
        waits = self._wait.setdefault(index, {})
        waits[kind] = waits.get(kind, 0.0) + ticks

    def on_flush(self, now: float, stalled: bool) -> None:
        index = self._index(now)
        self._flushes[index] = self._flushes.get(index, 0) + 1
        if stalled:
            self._flush_stalls[index] = self._flush_stalls.get(index, 0) + 1

    def on_queue_depth(self, now: float, depth: int) -> None:
        """Track the admission queue's max depth per window (open-loop
        frontend hook; never called in closed-loop runs, so closed-loop
        timelines carry no queue columns and stay byte-identical)."""
        index = self._index(now)
        if depth > self._queue_depth.get(index, -1):
            self._queue_depth[index] = depth

    def on_shed(self, now: float) -> None:
        """Count one shed invocation (any reason) in ``now``'s window."""
        index = self._index(now)
        self._shed[index] = self._shed.get(index, 0) + 1

    def on_shard_commit(self, now: float, shard: int) -> None:
        """Count one commit against its coordinator's home shard (cluster
        runtime hook; never called in single-node runs, so non-cluster
        timelines carry no per-shard columns and stay byte-identical)."""
        index = self._index(now)
        shards = self._shard_commits.setdefault(index, {})
        shards[shard] = shards.get(shard, 0) + 1

    def _spans(self, start: float, end: float):
        """(window index, overlap ticks) for every window ``[start, end)``
        overlaps, extending the observed range to cover them."""
        index = int(start // self.window)
        cursor = start
        while cursor < end:
            boundary = (index + 1) * self.window
            if index > self._max_window:
                self._max_window = index
            yield index, min(end, boundary) - cursor
            cursor = boundary
            index += 1

    def on_recovery(self, start: float, end: float, n_workers: int) -> None:
        """Spread post-crash downtime (charged as ``wait:recovery``) across
        every window the outage overlaps, ``n_workers`` ticks per tick."""
        for index, span in self._spans(start, end):
            waits = self._wait.setdefault(index, {})
            waits["recovery"] = waits.get("recovery", 0.0) \
                + span * n_workers

    def on_shard_down(self, start: float, end: float, shard: int) -> None:
        """Attribute one shard's outage to every window it overlaps
        (cluster shard-crash hook; never called otherwise, so timelines
        without shard crashes carry no down columns and stay
        byte-identical)."""
        for index, span in self._spans(start, end):
            per_shard = self._shard_down.setdefault(index, {})
            per_shard[shard] = per_shard.get(shard, 0.0) + span

    def cut_outage(self, cut: float, end: float, shard: int,
                   n_workers: int) -> None:
        """A shard outage posted up to ``end`` (recovery wait for its
        ``n_workers`` workers plus down time) ended early at ``cut``:
        take the span ``[cut, end)`` back out of both."""
        for index, span in self._spans(cut, end):
            waits = self._wait[index]
            waits["recovery"] -= span * n_workers
            self._shard_down[index][shard] -= span

    # ------------------------------------------------------------------ #
    # reporting

    def wait_kinds(self) -> List[str]:
        kinds = set()
        for waits in self._wait.values():
            kinds.update(waits)
        return sorted(kinds)

    def rows(self) -> List[dict]:
        """One dict per window, windows 0..max observed (gaps included, so
        a flat-lined series renders as zeros, not missing points)."""
        kinds = self.wait_kinds()
        shards = sorted({shard for per_window in self._shard_commits.values()
                         for shard in per_window})
        down_shards = sorted({shard
                              for per_window in self._shard_down.values()
                              for shard in per_window})
        capacity = self.window * self.n_workers
        out: List[dict] = []
        for index in range(self._max_window + 1):
            commits = self._commits.get(index, 0)
            aborts = self._aborts.get(index, 0)
            attempts = commits + aborts
            waits = self._wait.get(index, {})
            conflict = sum(ticks for kind, ticks in waits.items()
                           if kind in CONFLICT_WAIT_KINDS)
            samples = sorted(self._latency.get(index, ()))
            row: dict = {
                "window": index,
                "start": index * self.window,
                "end": (index + 1) * self.window,
                "commits": commits,
                "throughput_tps":
                    commits / self.window * TICKS_PER_SECOND,
                "aborts": aborts,
                "dooms": self._dooms.get(index, 0),
                "abort_rate": aborts / attempts if attempts else 0.0,
                "backoff_ticks": self._backoff.get(index, 0.0),
                "conflict_wait_frac": conflict / capacity,
                "flushes": self._flushes.get(index, 0),
                "flush_stalls": self._flush_stalls.get(index, 0),
                "latency_mean_us":
                    sum(samples) / len(samples) if samples else 0.0,
                "latency_p99_us": _percentile(samples, 0.99),
            }
            for kind in kinds:
                row[f"wait:{kind}"] = waits.get(kind, 0.0)
            # open-loop columns appear only when a frontend fed the sampler,
            # so closed-loop timeline artifacts stay byte-identical
            if self._queue_depth or self._shed:
                row["queue_depth_max"] = self._queue_depth.get(index, 0)
                row["shed"] = self._shed.get(index, 0)
            # per-shard columns appear only when a cluster runtime fed the
            # sampler, so single-node timelines stay byte-identical
            if shards:
                per_window = self._shard_commits.get(index, {})
                for shard in shards:
                    row[f"commits_shard{shard}"] = per_window.get(shard, 0)
            # shard up/down columns appear only when a shard crash fed
            # the sampler, so crash-free timelines stay byte-identical
            if down_shards:
                per_window = self._shard_down.get(index, {})
                for shard in down_shards:
                    row[f"down_shard{shard}"] = per_window.get(shard, 0.0)
            out.append(row)
        return out

    def install_metrics(self, registry, **labels: str) -> None:
        """Fold the series into a metrics registry as window-labelled
        gauges (window indices are zero-padded so label sort == time)."""
        rows = self.rows()
        width = max(4, len(str(max(0, self._max_window))))
        for row in rows:
            window = str(row["window"]).zfill(width)
            for name in ("throughput_tps", "abort_rate",
                         "conflict_wait_frac", "latency_p99_us"):
                registry.gauge(f"timeline_{name}", window=window,
                               **labels).set(row[name])
            if row["flush_stalls"]:
                registry.gauge("timeline_flush_stalls", window=window,
                               **labels).set(row["flush_stalls"])
            if "queue_depth_max" in row:
                registry.gauge("timeline_queue_depth_max", window=window,
                               **labels).set(row["queue_depth_max"])
                registry.gauge("timeline_shed", window=window,
                               **labels).set(row["shed"])

    # ------------------------------------------------------------------ #
    # export

    def to_document(self) -> dict:
        return {"schema": TIMELINE_SCHEMA,
                "version": TIMELINE_SCHEMA_VERSION,
                "window": self.window,
                "n_workers": self.n_workers,
                "rows": self.rows()}

    def write_json(self, path_or_fh: Union[str, IO[str]]) -> None:
        if isinstance(path_or_fh, str):
            with open(path_or_fh, "w") as fh:
                self.write_json(fh)
            return
        json.dump(self.to_document(), path_or_fh, indent=2)
        path_or_fh.write("\n")

    def write_csv(self, path_or_fh: Union[str, IO[str]]) -> None:
        if isinstance(path_or_fh, str):
            with open(path_or_fh, "w", newline="") as fh:
                self.write_csv(fh)
            return
        rows = self.rows()
        columns: List[str] = []
        for row in rows:
            for column in row:
                if column not in columns:
                    columns.append(column)
        writer = csv.writer(path_or_fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TimelineSampler(window={self.window}, "
                f"windows={self._max_window + 1})")


def load_timeline_json(path: str) -> dict:
    """Load a timeline artifact, rejecting unknown schemas/versions with a
    clear :class:`ReproError` (the schema_version satellite contract)."""
    try:
        with open(path) as fh:
            document = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read timeline {path}: {exc}") from exc
    if not isinstance(document, dict) \
            or document.get("schema") != TIMELINE_SCHEMA:
        raise ReproError(f"{path} is not a {TIMELINE_SCHEMA} artifact")
    version = document.get("version")
    if version != TIMELINE_SCHEMA_VERSION:
        raise ReproError(
            f"{path}: unsupported {TIMELINE_SCHEMA} version {version!r} "
            f"(this build reads version {TIMELINE_SCHEMA_VERSION})")
    return document


def default_timeline_window(config) -> float:
    """The default sampling window: one durability epoch when durability
    is on (group-commit cadence == timeline cadence), else 1000 ticks."""
    if getattr(config, "durability", None) is not None:
        return config.durability.epoch_length
    return 1000.0
