"""Cancelling work on the serial query paths: group-by kernels, lattice
builds and partition scans observe an expired or cancelled deadline at
their checkpoints, raise the typed error, and leave no torn state
behind."""

from __future__ import annotations

import pytest

from repro.dgms.system import DDDGMS
from repro.discri.generator import DiScRiGenerator
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.serving.resilience import Deadline, deadline_scope
from repro.storage.columnar import PartitionedStore, PartitioningSpec, StorageConfig
from repro.tabular.expressions import col
from repro.tabular.table import Table


def _frame(n: int = 20_000) -> Table:
    return Table.from_columns(
        {
            "k": [f"g{i % 50}" for i in range(n)],
            "v": list(range(n)),
        }
    )


def _cancelled(reason: str = "caller gave up") -> Deadline:
    deadline = Deadline()
    deadline.cancel(reason)
    return deadline


class TestKernelCancellation:
    def test_groupby_observes_an_expired_deadline(self):
        frame = _frame()
        with deadline_scope(Deadline(0.0)):
            with pytest.raises(QueryTimeoutError):
                frame.groupby("k").agg(total=("v", "sum"))
        # the same aggregation succeeds once the deadline is gone — no
        # torn kernel state survives the cancellation
        result = frame.groupby("k").agg(total=("v", "sum"))
        assert result.num_rows == 50

    def test_groupby_observes_a_cancelled_query(self):
        frame = _frame()
        with deadline_scope(_cancelled("epoch retired")):
            with pytest.raises(QueryCancelledError):
                frame.groupby("k").agg(total=("v", "sum"))


class TestLatticeBuildCancellation:
    def test_cancelled_materialize_lattice_leaves_the_lattice_unchanged(self):
        system = DDDGMS(DiScRiGenerator(n_patients=40, seed=5).generate())
        lattice = system.materialize_lattice()
        nodes = list(lattice._nodes)
        with deadline_scope(_cancelled()):
            with pytest.raises(QueryCancelledError, match="caller gave up"):
                system.materialize_lattice([["conditions.age_band"]])
        assert system.cube.lattice is lattice
        assert lattice._nodes == nodes
        assert lattice.is_fresh()


class TestPartitionScanCancellation:
    def test_cancelled_multi_segment_scan_raises(self):
        table = Table.from_columns(
            {"pid": list(range(400)), "year": [2005 + i % 6 for i in range(400)]}
        )
        store = PartitionedStore.build(
            table,
            StorageConfig(
                partitioning=PartitioningSpec(
                    hash_column="pid", hash_partitions=4, band_column="year"
                )
            ),
        )
        predicate = col("year") >= 2006
        expected, stats = store.scan_filter(predicate)
        assert stats.segments_scanned > 1
        with deadline_scope(_cancelled()):
            with pytest.raises(QueryCancelledError):
                store.scan_filter(predicate)
        assert store.scan_filter(predicate)[0].equals(expected)
