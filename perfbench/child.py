"""One benchmark run in a fresh process; prints one JSON object.

    python perfbench/child.py --workload NAME --seed N [--trace]

``run.py`` starts one of these per run, one at a time.  The timed region
starts after interpreter start-up, imports and ``gc.collect()``: it covers
building the run (policy load, CC, workload factory, config, sinks) and
the whole ``run_protocol`` call.  The host-speed yardstick
(``calib.measure``) is timed right before and right after it.  Untraced
runs wrap only ``Scheduler.run``, to split setup from the event loop;
``--trace`` also wraps each layer's public entry points (see
:func:`install_spans`).
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.bench import runner  # noqa: E402
from repro.cc import registry  # noqa: E402
from repro.cluster import ClusterCC, ClusterDurability, ClusterRuntime  # noqa: E402
from repro.cluster import ShardedFrontend  # noqa: E402
from repro.core.backoff import BackoffPolicy  # noqa: E402
from repro.core.policy import CCPolicy  # noqa: E402
from repro.durability.manager import DurabilityManager  # noqa: E402
from repro.errors import AbortReason  # noqa: E402
from repro.frontend import Frontend  # noqa: E402
from repro.frontend import admission  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.obs import timeline as obs_timeline  # noqa: E402
from repro.obs import tracing as obs_tracing  # noqa: E402
from repro.sim.events import WaitKind  # noqa: E402
from repro.sim.scheduler import Scheduler  # noqa: E402
from repro.sim.stats import RunStats, percentile  # noqa: E402
from repro.sim.worker import Worker  # noqa: E402
from repro.storage.database import Database  # noqa: E402

import calib  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: abort reasons and wait kinds these workloads can produce (fault,
#: livelock and user aborts need fault plans or a watchdog, which no
#: workload uses)
ABORT_REASONS = (AbortReason.VALIDATION, AbortReason.EARLY_VALIDATION,
                 AbortReason.DIRTY_READ_OF_ABORTED, AbortReason.LOCK_DIE,
                 AbortReason.WAIT_CYCLE, AbortReason.WAIT_TIMEOUT,
                 AbortReason.DEADLINE)
WAIT_KINDS = (WaitKind.PROGRESS, WaitKind.COMMIT_DEPS, WaitKind.LOCK,
              WaitKind.ARRIVAL)
SHED_REASONS = (admission.SHED_QUEUE_FULL, admission.SHED_EVICTED,
                admission.SHED_DEADLINE_QUEUE,
                admission.SHED_DEADLINE_INFLIGHT,
                admission.SHED_RETRY_BUDGET)


def install_spans(rec: SpanRecorder) -> None:
    """Wrap the layer entry points ``run_protocol`` reaches.  Span names
    are ``<layer>.<call>``; the layer is the module family that owns the
    work, and names the per-layer self time."""
    rec.patch(runner, "run_protocol", "bench.run_protocol")
    rec.patch(runner, "storage_residue", "storage.residue")
    rec.patch(runner, "partitioner_for", "cluster.partitioner_for")
    rec.patch(runner, "_record_run_metrics", "obs.record_run_metrics")
    rec.patch(registry, "make_cc", "cc.make_cc",
              after=lambda _, cc: rec.patch_method(type(cc), "setup",
                                                   "cc.setup"))
    rec.patch(CCPolicy, "load", "core.policy_load")
    rec.patch(BackoffPolicy, "load", "core.backoff_load")
    rec.patch(Database, "snapshot", "storage.snapshot")
    rec.patch(Database, "from_snapshot", "storage.from_snapshot")
    rec.patch(ClusterRuntime, "__init__", "cluster.runtime_init")
    rec.patch(ClusterRuntime, "shard_tables", "cluster.shard_tables")
    rec.patch(ClusterRuntime, "install", "cluster.install")
    rec.patch(ClusterCC, "__init__", "cluster.cc_init")
    rec.patch(ClusterCC, "setup", "cluster.cc_setup")
    for cls in (DurabilityManager, ClusterDurability):
        for attr, name in (("__init__", "durability.init"),
                           ("install", "durability.install"),
                           ("finalize", "durability.finalize")):
            if attr in vars(cls):
                rec.patch(cls, attr, name)
    for cls in (Frontend, ShardedFrontend):
        for attr, name in (("__init__", "frontend.init"),
                           ("install", "frontend.install"),
                           ("finalize", "frontend.finalize"),
                           ("check_invariants", "frontend.check")):
            if attr in vars(cls):
                rec.patch(cls, attr, name)
    rec.patch(RunStats, "__init__", "sim.stats_init")
    rec.patch(Scheduler, "__init__", "sim.scheduler_init")
    rec.patch(Worker, "__init__", "sim.worker_init")
    rec.patch(Scheduler, "finish_accounting", "sim.finish_accounting")
    rec.patch(Scheduler, "close", "sim.close")
    rec.patch(obs_timeline.TimelineSampler, "install_metrics",
              "obs.timeline_metrics")
    rec.patch(obs_tracing, "write_jsonl", "obs.export_trace")
    rec.patch(obs_timeline.TimelineSampler, "write_json",
              "obs.export_timeline")
    rec.patch(obs_metrics.MetricsRegistry, "write_json", "obs.export_metrics")


def export_obs(obs: dict) -> None:
    """What a ``repro run --trace --timeline --metrics`` user pays after
    the run: serialise every sink (into memory, not to disk)."""
    if not obs:
        return
    obs_tracing.write_jsonl(obs["trace_sink"].events, io.StringIO())
    obs["timeline"].write_json(io.StringIO())
    obs["metrics"].write_json(io.StringIO())


def pooled_latency(stats) -> list:
    samples = []
    for digest in stats.latency.values():
        samples.extend(digest._samples)
    samples.sort()
    return samples


def run(name: str, seed: int, trace: bool) -> dict:
    rec = SpanRecorder()
    captured = {}

    # the one untraced instrument: setup/loop split around Scheduler.run
    rec.patch(Scheduler, "run", "sim.run",
              after=lambda args, _: captured.setdefault("scheduler", args[0]))
    if trace:
        install_spans(rec)

    def keeping_workload(make):
        """Keep the workload object (for its final database); in the
        traced run also time the factory and wrap build/check methods."""
        def factory():
            workload = make()
            captured["workload"] = workload
            if trace:
                rec.patch_method(
                    type(workload), "build_database",
                    "workloads.build_database",
                    after=lambda _, db: captured.setdefault(
                        "rows", db.total_rows()))
                rec.patch_method(type(workload), "check_invariants",
                                 "workloads.check_invariants")
            return workload
        return rec.wrap("workloads.factory", factory) if trace else factory

    calibration_s = calib.measure()
    gc.collect()
    t0 = time.process_time_ns()
    factory, cc, config, obs = workloads.build(name, seed)
    result = runner.run_protocol(keeping_workload(factory), cc, config,
                                 check_invariants=True, **obs)
    t3 = time.process_time_ns()
    calibration_s += calib.measure()
    export_obs(obs)

    # storage residue on closed loops too (run_protocol scans it only
    # when a frontend or fault plan is active)
    violations = list(result.invariant_violations)
    manager = result.durability
    if result.frontend is None:
        final_db = manager.db if manager is not None \
            else captured["workload"].db
        violations.extend(runner.storage_residue(final_db))
    rec.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    runs = [s for s in rec.spans if s.name == "sim.run"]
    scheduler = captured["scheduler"]
    stats = result.stats
    samples = pooled_latency(stats)
    frontend = result.frontend
    runtime = scheduler.cluster
    # shed plus late over offered (open loop); closed loops without shard
    # crashes drop nothing, and there slo_attainment() is 1.0
    failed_frac = 1.0 - stats.slo_attainment()

    e2e = {
        "setup_s": (runs[0].start - t0) / 1e9,
        "loop_s": sum(s.duration for s in runs) / 1e9,
        "total_s": (t3 - t0) / 1e9,
        "peak_rss_mb": peak_rss_mb,
        "sim_tps": stats.throughput(),
        "sim_mean_us": sum(samples) / len(samples) if samples else 0.0,
        "sim_p50_us": percentile(samples, 0.50),
        "sim_p99_us": percentile(samples, 0.99),
        "goodput_tps": stats.goodput(),
        "slo_attainment": stats.slo_attainment(),
        "failed_frac": failed_frac,
    }
    attempts = stats.total_commits + stats.total_aborts
    layer = {
        "sim.events": scheduler.events_processed,
        "sim.cycle_breaks": scheduler.cycle_breaks,
        "sim.timeout_breaks": scheduler.timeout_breaks,
        "sim.latency_samples": len(samples),
        "sim.latency_p50_us": e2e["sim_p50_us"],
        "cc.commit_ratio": stats.total_commits / attempts if attempts else 1.0,
        "core.backoff_ticks": stats.backoff_time,
        "frontend.failed_frac": failed_frac,
    }
    for kind in WAIT_KINDS:
        layer[f"sim.waits.{kind}"] = scheduler.wait_count_by_kind.get(kind, 0)
        layer[f"sim.wait_ticks.{kind}"] = \
            scheduler.wait_time_by_kind.get(kind, 0.0)
    for reason in ABORT_REASONS:
        layer[f"cc.aborts.{reason}"] = stats.abort_reasons.get(reason, 0)
    if manager is not None:
        layer.update({
            "durability.flushes": manager.flushes,
            "durability.flush_stalls": manager.flush_stalls,
            "durability.log_bytes_per_commit":
                manager.log_bytes_total / manager.acked_commits
                if manager.acked_commits else 0.0,
            "durability.checkpoints": manager.checkpoints_taken,
        })
    if runtime is not None:
        cross = runtime.cross_shard_commits
        layer.update({
            "cluster.cross_shard_commits": cross,
            "cluster.remote_accesses": runtime.remote_accesses,
            "cluster.prepares": runtime.prepares_total,
            "cluster.net_messages": runtime.network.messages_total,
            "cluster.net_ticks_per_commit":
                runtime.net_ticks_total / cross if cross else 0.0,
        })
    if frontend is not None:
        layer.update({
            "frontend.arrivals": frontend.arrivals,
            "frontend.admitted": frontend.admitted,
            "frontend.queue_depth_max": frontend.depth_max,
            "frontend.queue_wait_p99_us": stats.queue_wait.pct(0.99),
        })
        for reason in SHED_REASONS:
            layer[f"frontend.shed.{reason}"] = stats.shed.get(reason, 0)
    if obs:
        layer["obs.trace_events"] = len(obs["trace_sink"].events)
        layer["obs.timeline_windows"] = len(obs["timeline"].rows())
    if trace:
        layer["workloads.rows"] = captured["rows"]

    fingerprint = {
        "config_hash": workloads.config_hash(name, config),
        "commits": stats.total_commits,
        "aborts": stats.total_aborts,
        "events": scheduler.events_processed,
        "sim_tps": repr(e2e["sim_tps"]),
        "sim_mean_us": repr(e2e["sim_mean_us"]),
        "sim_p50_us": repr(e2e["sim_p50_us"]),
        "sim_p99_us": repr(e2e["sim_p99_us"]),
        "goodput_tps": repr(e2e["goodput_tps"]),
        "slo_attainment": repr(e2e["slo_attainment"]),
        "failed_frac": repr(failed_frac),
    }
    out = {"workload": name, "seed": seed, "traced": trace,
           "violations": violations, "fingerprint": fingerprint,
           "calibration_s": calibration_s, "e2e": e2e, "layer": layer}
    if trace:
        out["spans"] = [span.to_dict() for span in rec.spans]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    status = main()
    # skip interpreter teardown: freeing a few hundred MB of rows one
    # object at a time takes ~1 s of a run's wall clock and measures
    # nothing
    os._exit(status)
