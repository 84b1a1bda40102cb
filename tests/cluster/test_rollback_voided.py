"""Shard-crash rollback restores a poisoned key from the durable view.

``ClusterDurability._rollback_voided`` walks back every live key whose
current version a voided transaction installed.  With no surviving
staged write to the key, the newest surviving version is the durable
view's — which may be a *delete*.  These tests plant a voided install
on top of a finished 2-shard TPC-C run and pin both branches: a
durably-deleted NEW_ORDER row (Delivery) comes back as a tombstone
carrying the delete's version id, never the creation tombstone
``(INITIAL_TXN_ID, -1)``; a durably-updated row comes back with its
exact durable ``(vid, value)``, detached from the view.
"""

import pytest

from repro.bench.runner import run_protocol
from repro.cc import make_cc
from repro.cluster.durability import ClusterDurability
from repro.cluster.workloads import make_cluster_tpcc_factory
from repro.config import ClusterConfig, DurabilityConfig, SimConfig
from repro.durability import LogRecord, WriteImage
from repro.storage.record import INITIAL_TXN_ID
from repro.workloads.tpcc import TPCCScale
from repro.workloads.tpcc.schema import DISTRICT, NEW_ORDER

VOID_TXN = 888_888
SCALE = TPCCScale(n_warehouses=2, districts_per_warehouse=4,
                  customers_per_district=40, n_items=80,
                  initial_orders_per_district=12)


@pytest.fixture()
def manager() -> ClusterDurability:
    config = SimConfig(
        n_workers=4, duration=6_000.0, warmup=0.0, seed=3,
        durability=DurabilityConfig(epoch_length=400.0),
        cluster=ClusterConfig(n_shards=2, cross_shard_ratio=0.2))
    factory = make_cluster_tpcc_factory(2, 4, cross_shard_ratio=0.2,
                                        scale=SCALE, seed=3)
    result = run_protocol(factory, make_cc("silo"), config)
    assert result.invariant_violations == []
    assert isinstance(result.durability, ClusterDurability)
    return result.durability


def durable_key(manager, table, deleted):
    """A key of ``table`` whose newest durable state is a delete (or a
    live row written by a durable transaction) and that no staged,
    not-yet-durable record writes."""
    staged = {(image.table, image.key)
              for record in manager._staged_records()
              for image in record.writes}
    written = {image.key for record in manager.durable_log
               for image in record.writes if image.table == table}
    for key, (vid, value) in sorted(manager.durable_view[table].items()):
        if key in written and (table, key) not in staged \
                and (value is None) == deleted:
            return key, vid, value
    raise AssertionError(f"no durable {'delete' if deleted else 'row'} "
                         f"in {table}")


def void_install(manager, table, key):
    """Install a voided transaction's write on the live key, as a shard
    crash would find it, and return the voided record."""
    poison = {"planted": True}
    vid = (VOID_TXN, 0)
    manager.db.table(table).restore_row(key, dict(poison), vid)
    return LogRecord(1, manager.current_epoch, VOID_TXN, 0, "planted",
                     0.0, 1.0, [WriteImage(table, key, poison, vid)])


def test_durably_deleted_key_rolls_back_to_the_delete_tombstone(manager):
    key, vid, _ = durable_key(manager, NEW_ORDER, deleted=True)
    assert vid[0] != INITIAL_TXN_ID
    record = void_install(manager, NEW_ORDER, key)
    assert manager._rollback_voided({VOID_TXN}, [record]) == 1
    live = manager.db.table(NEW_ORDER).get_record(key)
    assert live.value is None
    assert live.version_id == vid


def test_durably_written_row_rolls_back_to_its_durable_image(manager):
    key, vid, value = durable_key(manager, DISTRICT, deleted=False)
    record = void_install(manager, DISTRICT, key)
    assert manager._rollback_voided({VOID_TXN}, [record]) == 1
    live = manager.db.table(DISTRICT).get_record(key)
    assert (live.version_id, live.value) == (vid, value)
    # the live row is detached: the view's image stays shared with the log
    assert live.value is not value
