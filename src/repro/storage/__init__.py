"""Embedded storage engine — the operational (OLTP) substrate.

The paper's clinical environment has "flat file storage, multiple database
vendors and different data models"; this package plays the role of those
operational stores.  It provides named tables with declared schemas,
CRUD inside transactions (an insert takes a whole column batch, validated
per column, logged as one column block and kept as one column chunk),
hash indexes, a checksummed write-ahead log for durability, snapshot
generations with verified manifests, and crash recovery (newest valid
generation + WAL replay) with a pluggable fault-injection harness.

::

    from repro.storage import StorageEngine, checkpoint, recover

    db = StorageEngine(WriteAheadLog("visits.wal"))
    db.create_table("visits", {"visit_id": "int", "patient_id": "int",
                               "fbg": "float"}, primary_key="visit_id")
    with db.transaction():
        db.insert("visits", {"visit_id": 1, "patient_id": 7, "fbg": 5.4})
        accepted, rejected = db.insert("visits", batch)   # a Table
    checkpoint(db, "snapshots/")       # durable point-in-time state
    db = recover("snapshots/", "visits.wal")   # after a crash
"""

from repro.storage.engine import StorageEngine, replay_into
from repro.storage.catalog import Catalog, TableMeta
from repro.storage.faults import FaultPlan, FaultRule, SimulatedCrash
from repro.storage.index import HashIndex
from repro.storage.wal import WriteAheadLog
from repro.storage.persistence import (
    checkpoint,
    checkpoint_if_due,
    checkpoint_status,
    recover,
)

__all__ = [
    "StorageEngine",
    "Catalog",
    "TableMeta",
    "HashIndex",
    "WriteAheadLog",
    "replay_into",
    "checkpoint",
    "checkpoint_if_due",
    "checkpoint_status",
    "recover",
    "FaultPlan",
    "FaultRule",
    "SimulatedCrash",
]
