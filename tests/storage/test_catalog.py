"""Tests for the system catalog."""

import pytest

from repro.errors import StorageError, TableExistsError, TableNotFoundError
from repro.storage.catalog import Catalog
from repro.tabular.dtypes import DType


@pytest.fixture()
def cat():
    c = Catalog()
    c.create("patients", {"pid": "int", "sex": "str"}, primary_key="pid")
    return c


def test_create_coerces_dtypes(cat):
    assert cat.get("patients").schema["pid"] is DType.INT


def test_duplicate_rejected(cat):
    with pytest.raises(TableExistsError):
        cat.create("patients", {"x": "int"})


def test_missing_lists_known(cat):
    with pytest.raises(TableNotFoundError, match="patients"):
        cat.get("ghost")


def test_empty_schema_rejected(cat):
    with pytest.raises(StorageError, match="no columns"):
        cat.create("t", {})


def test_pk_must_be_a_column(cat):
    with pytest.raises(StorageError, match="primary key"):
        cat.create("t", {"a": "int"}, primary_key="b")


def test_not_null_must_be_columns(cat):
    with pytest.raises(StorageError, match="not-null"):
        cat.create("t", {"a": "int"}, not_null={"b"})


def test_fk_must_reference_known_column(cat):
    with pytest.raises(StorageError, match="unknown column"):
        cat.create(
            "visits", {"vid": "int", "pid": "int"},
            foreign_keys={"pid": ("patients", "zzz")},
        )


def test_fk_local_column_checked(cat):
    with pytest.raises(StorageError, match="foreign key column"):
        cat.create(
            "visits", {"vid": "int"},
            foreign_keys={"pid": ("patients", "pid")},
        )
