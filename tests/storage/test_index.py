"""Tests for the hash index."""

from repro.storage.index import HashIndex


class TestHashIndex:
    def test_add_lookup(self):
        index = HashIndex("c")
        index.add("a", 0)
        index.add("a", 1)
        index.add("b", 2)
        assert index.lookup("a") == {0, 1}
        assert index.lookup("b") == {2}
        assert index.lookup("z") == set()

    def test_nulls_never_indexed(self):
        index = HashIndex("c")
        index.add(None, 0)
        assert index.lookup(None) == set()
        assert len(index) == 0

    def test_remove(self):
        index = HashIndex("c")
        index.add("a", 0)
        index.remove("a", 0)
        assert index.lookup("a") == set()
        index.remove("a", 0)  # idempotent

    def test_distinct_values(self):
        index = HashIndex("c")
        for row_id, value in enumerate(["x", "y", "x", None]):
            index.add(value, row_id)
        assert sorted(index.distinct_values()) == ["x", "y"]

    def test_lookup_returns_copy(self):
        index = HashIndex("c")
        index.add("a", 0)
        result = index.lookup("a")
        result.add(99)
        assert index.lookup("a") == {0}
