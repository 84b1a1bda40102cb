"""The durable view is copy-on-write over the t=0 checkpoint.

``DurabilityManager.durable_view`` is a snapshot-shaped dict seeded by a
per-table shallow copy of the snapshot that also becomes the t=0
checkpoint.  The two share row tuples, so the view must never write into
the checkpoint (recovery from t=0 would replay onto a corrupted base),
and setup must not copy rows (that was the point of sharing).  Both are
pinned here on a single-node and a 2-shard durable TPC-C run with no
periodic checkpoints, so the t=0 checkpoint survives to the end.
"""

import pickle

import pytest

from repro.bench.runner import run_protocol
from repro.cc import make_cc
from repro.cluster.workloads import make_cluster_tpcc_factory
from repro.config import ClusterConfig, DurabilityConfig, SimConfig
from repro.durability import apply_record, verify_recovery
from repro.storage.database import Database
from repro.workloads.tpcc import TPCCScale, make_tpcc_factory
from repro.workloads.tpcc.schema import NEW_ORDER

SEED = 11
SCALE = TPCCScale(n_warehouses=2, districts_per_warehouse=4,
                  customers_per_district=40, n_items=80,
                  initial_orders_per_district=12)


def durable(**kwargs):
    return SimConfig(n_workers=4, duration=6_000.0, warmup=0.0, seed=SEED,
                     durability=DurabilityConfig(epoch_length=400.0,
                                                 checkpoint_interval=0.0),
                     **kwargs)


CELLS = {
    "single-node": (make_tpcc_factory(scale=SCALE, seed=SEED), durable()),
    "2-shard": (
        make_cluster_tpcc_factory(2, 4, cross_shard_ratio=0.2, scale=SCALE,
                                  seed=SEED),
        durable(cluster=ClusterConfig(n_shards=2, cross_shard_ratio=0.2))),
}


@pytest.fixture(scope="module", params=sorted(CELLS))
def cell(request):
    factory, config = CELLS[request.param]
    result = run_protocol(factory, make_cc("silo"), config)
    assert result.invariant_violations == []
    manager = result.durability
    assert manager.acked_commits > 0
    return factory, manager


def newest_durable_images(manager):
    newest = {}
    for record in manager.durable_log:
        for image in record.writes:
            newest[(image.table, image.key)] = image
    return newest


def test_view_updates_never_write_into_the_checkpoint(cell):
    factory, manager = cell
    assert len(manager.checkpoints) == 1
    checkpoint = manager.checkpoints[0]
    assert (checkpoint.time, checkpoint.last_seqno) == (0.0, 0)
    fresh = factory().build_database().snapshot()
    assert checkpoint.snapshot == fresh
    assert pickle.dumps(checkpoint.snapshot) == pickle.dumps(fresh)


def test_untouched_rows_are_shared_and_written_rows_are_the_images(cell):
    _, manager = cell
    view = manager.durable_view
    base = manager.checkpoints[0].snapshot
    newest = newest_durable_images(manager)
    assert newest, "the run must make some writes durable"
    shared = 0
    for name, rows in base.items():
        for key, entry in rows.items():
            if (name, key) not in newest:
                assert view[name][key] is entry
                shared += 1
    assert shared > 0
    deletes = 0
    for (name, key), image in newest.items():
        assert view[name][key] == (image.vid, image.value)
        deletes += image.value is None
    # Delivery deletes NEW_ORDER rows: the view keeps them as tombstones
    # carrying the delete's version id
    assert deletes > 0
    assert any(entry[1] is None for entry in view[NEW_ORDER].values())


def test_view_equals_checkpoint_plus_durable_replay(cell):
    _, manager = cell
    replayed = Database.from_snapshot(manager.checkpoints[0].snapshot)
    for record in manager.durable_log:
        apply_record(replayed, record)
    assert verify_recovery(manager.durable_view, replayed.snapshot(),
                           manager.max_acked_seqno,
                           manager._durable_seqno(),
                           manager._durable_vids) == []


def test_oracle_reports_a_resurrected_durable_delete(cell):
    """The view's tombstones are absent keys to the oracle: a recovered
    database that still holds a durably-deleted row is a violation."""
    _, manager = cell
    view = manager.durable_view
    base = manager.checkpoints[0].snapshot
    key = next(key for key, (_, value) in sorted(view[NEW_ORDER].items())
               if value is None and key in base[NEW_ORDER])
    recovered = {name: {k: e for k, e in rows.items() if e[1] is not None}
                 for name, rows in view.items()}
    recovered[NEW_ORDER][key] = base[NEW_ORDER][key]
    problems = verify_recovery(view, recovered, 0, 0, manager._durable_vids)
    assert len(problems) == 1
    assert "extra_row" in problems[0] and repr(key) in problems[0]
