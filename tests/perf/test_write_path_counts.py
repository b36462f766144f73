"""Deterministic op-count guard for the write path (counts, not seconds).

Ingesting one clean 60-row × 277-column batch into a durable system must
cost work proportional to the batch: no snapshot rewrite (the WAL commit
already made the batch durable and the log is far smaller than the newest
generation), no per-cell ``Column.value`` round trip in the row↔column
conversions, and no per-row re-fetch of what ``insert`` just stored.  A
refactor that reintroduces a per-cell loop or a per-batch rewrite fails
here, loudly, long before a benchmark run would notice.
"""

from collections import Counter

import pytest

from repro.dgms.system import DDDGMS
from repro.discri.generator import DiScRiGenerator, offset_identifiers
from repro.storage import persistence
from repro.storage.engine import StorageEngine
from repro.tabular.column import Column

BATCH_ROWS = 60


@pytest.fixture
def calls(monkeypatch):
    """Call counts of the three functions the guard watches."""
    counts: Counter = Counter()

    def counted(owner, attr, label):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(persistence, "_save_snapshot", "save_snapshot")
    counted(Column, "value", "column_value")
    counted(StorageEngine, "get_by_pk", "get_by_pk")
    return counts


def test_one_clean_batch_costs_the_batch(tmp_path, calls):
    source = DiScRiGenerator(n_patients=60, seed=7).generate()
    batch = offset_identifiers(
        DiScRiGenerator(n_patients=30, seed=99).generate(),
        max(source.column("patient_id").to_list()),
        max(source.column("visit_id").to_list()),
    ).head(BATCH_ROWS)
    assert batch.num_rows == BATCH_ROWS and len(batch.column_names) == 277
    assert source.num_rows > 2 * BATCH_ROWS  # the log stays under the snapshot

    system = DDDGMS(source, durable_root=tmp_path / "sys")
    assert calls["save_snapshot"] == 2  # the build: operational + quarantine
    calls.clear()

    assert system.ingest_visits(batch, batch="y2") == BATCH_ROWS

    health = system.ingest_health()
    assert health["maintenance"]["delta_publishes"] == 1
    assert health["quarantined_total"] == 0
    assert health["checkpoint"]["deferred"] == 1
    cells = BATCH_ROWS * len(batch.column_names)
    assert calls["save_snapshot"] == 0, "a deferred checkpoint rewrote the store"
    assert calls["column_value"] <= BATCH_ROWS, (
        f"{calls['column_value']} Column.value calls for {BATCH_ROWS} rows "
        f"({cells} cells): a per-cell loop is back in the row↔column path"
    )
    assert calls["get_by_pk"] <= BATCH_ROWS, (
        f"{calls['get_by_pk']} get_by_pk calls for {BATCH_ROWS} rows: the "
        f"intake re-fetches stored rows again"
    )
