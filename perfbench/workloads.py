"""The benchmark's three workloads, as plain parameter dicts.

Each run is one ``run_protocol`` call.  A simulation seed (see
:func:`sim_seeds`) drives both the generated database/transaction inputs
(the workload factory's ``seed``) and the simulator (``SimConfig.seed``),
exactly as ``python -m repro run --seed N`` does.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

#: committed Polyjuice artifacts for the micro workload — byte copies of
#: ``benchmarks/_artifacts/{policy,backoff}_micro_t0.8_quick.json``; loaded,
#: never retrained
MICRO_POLICY = DATA / "policy_micro_t0.8.json"
MICRO_BACKOFF = DATA / "backoff_micro_t0.8.json"

WORKLOADS = {
    # setup-heavy: 4 shards x 8 warehouses (~237k rows) loaded, sharded,
    # snapshotted into the durable view and checkpointed at t=0
    "tpcc-4shard-durable": {
        "workload": "tpcc", "warehouses": 32, "workers": 32, "cc": "silo",
        "shards": 4, "cross_shard_ratio": 0.1, "durability": True,
        "duration": 6_000.0, "warmup": 1_000.0, "sims": 3,
    },
    # loop-heavy: the learned-policy hot path, nothing else switched on
    "micro-hot-polyjuice": {
        "workload": "micro", "theta": 0.8, "workers": 16, "cc": "polyjuice",
        "policy": MICRO_POLICY.name, "backoff": MICRO_BACKOFF.name,
        "duration": 3_000.0, "warmup": 500.0, "sims": 4,
    },
    # open loop at ~1.5x closed-loop saturation with durability and every
    # observability sink on
    "tpcc-openloop-observed": {
        "workload": "tpcc", "warehouses": 2, "workers": 8, "cc": "silo",
        "durability": True, "arrival_rate": 110_000.0, "queue_cap": 32,
        "deadline": 5_000.0, "observe": True,
        "duration": 12_000.0, "warmup": 2_000.0, "sims": 8,
    },
}


def sim_seeds(name: str, seed: int):
    """The simulation seeds one benchmark seed stands for: ``sims`` short
    simulations instead of one long one, so that a run is short (many
    runs fit in the time budget and their median is steady) while the
    simulated metrics, averaged over the simulations, do not hang on one
    short simulation.  Distinct benchmark seeds never share a simulation
    seed."""
    sims = WORKLOADS[name]["sims"]
    return [seed * sims + i for i in range(sims)]


def input_files(name: str):
    """Files a workload reads besides the program (sha256'd in the
    manifest; a missing one is an error, never a reason to retrain)."""
    params = WORKLOADS[name]
    return [DATA / params[key] for key in ("policy", "backoff")
            if key in params]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def config_hash(name: str, config) -> str:
    """Hash of a workload's parameters and the full ``SimConfig`` they
    build, cost-model defaults included (the seed is a run input, not
    part of the workload, so it is zeroed first)."""
    import dataclasses
    text = json.dumps(WORKLOADS[name], sort_keys=True) + repr(
        dataclasses.replace(config, seed=0))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build(name: str, seed: int):
    """Construct one run: ``(factory, cc, config, obs)`` where ``obs`` maps
    ``run_protocol``'s observability keyword arguments to live objects.

    Library entry points are reached through their modules (not bound at
    import) so the traced run's wrappers see every call."""
    from repro import config as cfg
    from repro.cc import registry
    from repro.cluster import workloads as cluster_workloads
    from repro.core.backoff import BackoffPolicy
    from repro.core.policy import CCPolicy
    from repro.obs import metrics, timeline, tracing
    from repro.workloads import micro, tpcc
    from repro.workloads.micro.workload import micro_spec

    p = WORKLOADS[name]
    cluster = None
    if p["workload"] == "tpcc" and p.get("shards", 1) > 1:
        cluster = cfg.ClusterConfig(n_shards=p["shards"],
                                    cross_shard_ratio=p["cross_shard_ratio"])
        factory = cluster_workloads.make_cluster_tpcc_factory(
            p["shards"], p["workers"],
            cross_shard_ratio=p["cross_shard_ratio"],
            n_warehouses=p["warehouses"], seed=seed)
        spec = None
    elif p["workload"] == "tpcc":
        factory = tpcc.make_tpcc_factory(n_warehouses=p["warehouses"],
                                         seed=seed)
        spec = None
    else:
        factory = micro.make_micro_factory(theta=p["theta"], seed=seed)
        spec = micro_spec()

    policy = backoff = None
    if p["cc"] == "polyjuice":
        policy = CCPolicy.load(spec, str(DATA / p["policy"]))
        backoff = BackoffPolicy.load(str(DATA / p["backoff"]))
    cc = registry.make_cc(p["cc"], policy=policy, backoff_policy=backoff)

    frontend = None
    if "arrival_rate" in p:
        frontend = cfg.FrontendConfig(arrival_rate=p["arrival_rate"],
                                      queue_cap=p["queue_cap"],
                                      deadline=p["deadline"])
    config = cfg.SimConfig(
        n_workers=p["workers"], duration=p["duration"], warmup=p["warmup"],
        seed=seed,
        durability=cfg.DurabilityConfig() if p.get("durability") else None,
        frontend=frontend, cluster=cluster)

    obs = {}
    if p.get("observe"):
        obs = {
            "trace_sink": tracing.MemorySink(),
            "metrics": metrics.MetricsRegistry(),
            "timeline": timeline.TimelineSampler(
                timeline.default_timeline_window(config), config.n_workers),
        }
    return factory, cc, config, obs
