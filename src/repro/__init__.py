"""repro — reproduction of *Multivariate Data-Driven Decision Guidance for
Clinical Scientists* (Burstein, De Silva, Jelinek, Stranieri; ICDEW 2013).

The library implements the full DD-DGMS stack described in the paper:

* :mod:`repro.tabular` — columnar table engine (substrate, no pandas)
* :mod:`repro.storage` — embedded OLTP storage engine with WAL + indexes
* :mod:`repro.etl` — cleaning, discretisation, temporal abstraction,
  cardinality
* :mod:`repro.warehouse` — dynamic dimensional model (star/snowflake)
* :mod:`repro.olap` — cubes, slice/dice/drill/roll-up, MDX-subset language
* :mod:`repro.dgsql` — the classic-DGMS DG-SQL baseline
* :mod:`repro.mining` — classifiers, clustering, association rules, AWSum
* :mod:`repro.prediction` — similar-patient retrieval and disease-stage
  Markov trajectories
* :mod:`repro.optimize` — aggregate-consistency checks and treatment
  regimen optimisation
* :mod:`repro.knowledge` — findings, evidence accumulation, ontology and
  guideline generation
* :mod:`repro.viz` — terminal/SVG renderings of OLAP outcomes
* :mod:`repro.discri` — synthetic DiScRi diabetes-screening cohort
* :mod:`repro.dgms` — the DD-DGMS platform facade and its closed loop

Start with :func:`repro.open_system` or see ``examples/quickstart.py``::

    import repro

    system = repro.open_system(cohort)          # the DD-DGMS session
    grid = system.query().rows("age_band").columns("gender").execute()
    print(system.explain("SELECT ... FROM [discri]"))

:mod:`repro.obs` is the observability core (tracing, metrics, EXPLAIN)
and :mod:`repro.storage.persistence` the one persistence module: snapshot
generations and crash recovery of the operational store, which also
journals the knowledge base's findings.
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro.errors import ReproError

__all__ = [
    "ReproError",
    "open_system",
    "SystemConfig",
    "DDDGMS",
    "CacheConfig",
    "ResultCache",
    "CubeSnapshot",
    "ServingConfig",
    "ServingRuntime",
    "StorageConfig",
    "PartitioningSpec",
    "QueryPlanner",
    "Deadline",
    "ServingOverloadError",
    "QueryTimeoutError",
    "QueryCancelledError",
    "__version__",
]


def open_system(source, *, config: "SystemConfig | None" = None) -> "DDDGMS":
    """Open a DD-DGMS session over a raw visit-level cohort table.

    The recommended entry point: builds the full platform (operational
    store, ETL, warehouse, cube, knowledge base) and applies ``config``
    exactly once — observability sinks and the slow-query threshold are
    installed here, the serving knobs (result cache, admission) are
    wired in, and the figure-shaped aggregate lattice is precomputed when
    requested — so every subsequent ``system.query()`` /
    ``system.mdx()`` / ``system.explain()`` call is traced and routed
    consistently.
    """
    from repro import obs
    from repro.dgms.system import DDDGMS, SystemConfig

    settings = config if config is not None else SystemConfig()
    if settings.observability or settings.slow_query_threshold_s is not None:
        obs.configure_mode(
            settings.observability or "ring",
            slow_query_threshold_s=settings.slow_query_threshold_s,
        )
    system = DDDGMS(source, promotion_threshold=settings.promotion_threshold)
    if settings.storage is not None and settings.storage is not False:
        system.attach_storage(settings.storage)
    if settings.cache is not None and settings.cache is not False:
        system.attach_result_cache(settings.cache)
    if settings.serving is not None and settings.serving is not False:
        system.attach_serving(settings.serving)
    if settings.materialize_lattice:
        system.materialize_lattice()
    return system


_LAZY_EXPORTS = {
    "DDDGMS": ("repro.dgms.system", "DDDGMS"),
    "SystemConfig": ("repro.dgms.system", "SystemConfig"),
    "CacheConfig": ("repro.serving.cache", "CacheConfig"),
    "ResultCache": ("repro.serving.cache", "ResultCache"),
    "CubeSnapshot": ("repro.olap.cube", "CubeSnapshot"),
    "ServingConfig": ("repro.serving.admission", "ServingConfig"),
    "ServingRuntime": ("repro.serving.admission", "ServingRuntime"),
    "StorageConfig": ("repro.storage.columnar", "StorageConfig"),
    "PartitioningSpec": ("repro.storage.columnar", "PartitioningSpec"),
    "QueryPlanner": ("repro.planner", "QueryPlanner"),
    "Deadline": ("repro.serving.resilience", "Deadline"),
    "ServingOverloadError": ("repro.errors", "ServingOverloadError"),
    "QueryTimeoutError": ("repro.errors", "QueryTimeoutError"),
    "QueryCancelledError": ("repro.errors", "QueryCancelledError"),
}


def __getattr__(name: str):
    # Lazy so that ``import repro`` stays light and cycle-free: the dgms
    # facade imports most of the library, and submodules import repro.obs.
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
