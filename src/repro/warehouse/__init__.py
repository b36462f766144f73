"""The clinical data warehouse (paper §III–IV).

A dimensional model in the Kimball style: fact tables holding numeric
measures at a declared grain, surrounded by dimension tables of descriptive
attributes organised into drill-down hierarchies (paper Fig. 1).  The
*dynamic* dimensional model — the paper's "elemental core" — lets
dimensions be added or removed live and folds user feedback and derived
outcomes back in as first-class dimensions (:mod:`repro.warehouse.dynamic`,
:mod:`repro.warehouse.feedback`).

::

    from repro.warehouse import Dimension, FactTable, StarSchema

    personal = Dimension("personal", key="patient_id",
                         attributes={"gender": "str", "family_history": "str"})
    ...
    schema = StarSchema("discri", fact, [personal, bloods, cardinality])
"""

from repro.warehouse.attribute import AttributeDef, Hierarchy
from repro.warehouse.dimension import Dimension, UNKNOWN_KEY
from repro.warehouse.fact import FactTable, Measure
from repro.warehouse.star import StarSchema, SnowflakeDimension
from repro.warehouse.dynamic import DynamicWarehouse
from repro.warehouse.loader import WarehouseLoader, DimensionSpec
from repro.warehouse.feedback import FeedbackDimensionBuilder, FeedbackEntry

__all__ = [
    "AttributeDef",
    "Hierarchy",
    "Dimension",
    "UNKNOWN_KEY",
    "FactTable",
    "Measure",
    "StarSchema",
    "SnowflakeDimension",
    "DynamicWarehouse",
    "WarehouseLoader",
    "DimensionSpec",
    "FeedbackDimensionBuilder",
    "FeedbackEntry",
]
