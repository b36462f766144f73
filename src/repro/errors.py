"""Exception hierarchy for the DD-DGMS library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Subsystems raise the
most specific subclass available; error messages name the offending object
(column, dimension, token, ...) so failures are actionable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


# --------------------------------------------------------------------------
# Tabular substrate
# --------------------------------------------------------------------------

class TabularError(ReproError):
    """Base class for errors from the columnar table engine."""


class ColumnNotFoundError(TabularError, KeyError):
    """A referenced column does not exist in the table."""

    def __init__(self, name: str, available: list[str] | None = None):
        self.name = name
        self.available = list(available) if available is not None else None
        message = f"column {name!r} not found"
        if self.available is not None:
            message += f" (available: {', '.join(self.available)})"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return self.args[0]


class DTypeError(TabularError, TypeError):
    """A value or operation is incompatible with a column's dtype."""


class SchemaMismatchError(TabularError):
    """Two tables (or a table and incoming rows) have incompatible schemas."""


class LengthMismatchError(TabularError, ValueError):
    """Columns of differing lengths were combined into one table."""


# --------------------------------------------------------------------------
# Storage engine
# --------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for embedded storage-engine errors."""


class TableExistsError(StorageError):
    """Attempt to create a table that already exists."""


class TableNotFoundError(StorageError, KeyError):
    """A referenced stored table does not exist."""

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


class TransactionError(StorageError):
    """Invalid transaction state (e.g. commit without begin)."""


class IntegrityError(StorageError):
    """A constraint (primary key, foreign key, not-null) was violated."""


class DurabilityError(StorageError):
    """Base class for on-disk durability failures (framing, checksums)."""


class ChecksumError(DurabilityError):
    """Stored bytes do not match their recorded checksum."""


class WALCorruptionError(DurabilityError):
    """The write-ahead log is damaged beyond a repairable torn tail."""


class SnapshotError(DurabilityError):
    """A snapshot generation is missing files or fails verification."""


class InjectedFault(DurabilityError):
    """A deliberate failure raised by the fault-injection layer."""


# --------------------------------------------------------------------------
# Ingest resilience
# --------------------------------------------------------------------------

class IngestError(ReproError):
    """Base class for errors raised on the fault-tolerant ingest path."""


class RowQuarantined(IngestError):
    """A single row was diverted to the dead-letter store.

    Raised (and immediately caught) inside the resilient ingest path to
    signal that one row failed a step; the batch continues.  ``step`` is
    the ETL/load step that rejected the row, ``reason`` the human-readable
    diagnosis, and ``cause`` the originating error.
    """

    def __init__(self, step: str, reason: str, cause: BaseException | None = None):
        self.step = step
        self.reason = reason
        self.cause = cause
        super().__init__(f"row quarantined at step {step!r}: {reason}")


class TransientIngestError(IngestError):
    """An ingest boundary failed in a way that is expected to heal.

    Retried with exponential backoff + jitter by
    :func:`repro.storage.retry.with_retry`; injected via the ``transient``
    fault mode of :mod:`repro.storage.faults`.
    """


class PermanentIngestError(IngestError):
    """An ingest boundary failed unrecoverably (or retries were exhausted).

    Never retried.  Non-essential boundaries (lattice re-materialisation)
    degrade gracefully instead of failing the batch.
    """


# --------------------------------------------------------------------------
# Serving resilience
# --------------------------------------------------------------------------

class ServingError(ReproError):
    """Base class for errors from the overload-safe query-serving layer."""


class ServingOverloadError(ServingError):
    """The admission gate shed this query: in-flight and queue are full.

    Raised *fast* (bounded by the queue-wait budget, immediately when the
    wait queue itself is full) so callers can retry elsewhere or back off
    instead of piling onto an overloaded server.
    """


class QueryTimeoutError(ServingError, TimeoutError):
    """A query exceeded its deadline and was cooperatively cancelled.

    Raised at the next cancellation checkpoint after the deadline expires
    — at chunk boundaries inside the group-by kernels, between
    lattice nodes, and between partition segments — so expiry is
    observed in bounded time and no partial result is ever published.
    """


class QueryCancelledError(ServingError):
    """A query was cancelled before completing (e.g. its caller gave up or
    the epoch it pinned was retired).  Checkpoints raise this when the
    active :class:`~repro.serving.resilience.Deadline` was explicitly
    cancelled rather than timing out.
    """


# --------------------------------------------------------------------------
# ETL / transformation
# --------------------------------------------------------------------------

class ETLError(ReproError):
    """Base class for data-transformation errors."""


class CleaningError(ETLError):
    """A cleaning policy could not be applied."""


class DiscretizationError(ETLError):
    """A discretisation scheme is malformed or cannot bin the data."""


class TemporalAbstractionError(ETLError):
    """Temporal abstraction failed (bad intervals, conflicting states)."""


class AbstractionConflictError(TemporalAbstractionError):
    """Two temporal abstractions assign contradictory states to one span."""


# --------------------------------------------------------------------------
# Warehouse
# --------------------------------------------------------------------------

class WarehouseError(ReproError):
    """Base class for dimensional-model errors."""


class DimensionError(WarehouseError):
    """A dimension is malformed or a member lookup failed."""


class UnknownMemberError(DimensionError, KeyError):
    """A natural key has no member row in the dimension."""

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


class GrainViolationError(WarehouseError):
    """A fact row does not match the declared grain of the fact table."""


class HierarchyError(WarehouseError):
    """A hierarchy level is unknown or levels are ill-ordered."""


# --------------------------------------------------------------------------
# OLAP / query languages
# --------------------------------------------------------------------------

class OLAPError(ReproError):
    """Base class for cube/query errors."""


class UnknownLevelError(OLAPError, KeyError):
    """A referenced dimension attribute/level is not in the cube."""

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


class UnknownMeasureError(OLAPError, KeyError):
    """A referenced measure is not in the cube."""

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


class QueryLanguageError(ReproError):
    """Base class for MDX / DG-SQL language errors."""


class LexError(QueryLanguageError):
    """Tokenisation failed; message carries position and offending text."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class ParseError(QueryLanguageError):
    """Parsing failed; message carries the unexpected token."""


class EvaluationError(QueryLanguageError):
    """A syntactically valid query referenced unknown objects or misused them."""


# --------------------------------------------------------------------------
# Mining / prediction / optimisation
# --------------------------------------------------------------------------

class MiningError(ReproError):
    """Base class for data-analytics errors."""


class NotFittedError(MiningError, RuntimeError):
    """A model was used before ``fit`` was called."""


class PredictionError(ReproError):
    """Base class for trajectory/time-course prediction errors."""


class OptimizationError(ReproError):
    """Decision-optimisation problem is infeasible or malformed."""


# --------------------------------------------------------------------------
# Knowledge base
# --------------------------------------------------------------------------

class KnowledgeBaseError(ReproError):
    """Base class for knowledge-base errors."""


class PromotionError(KnowledgeBaseError):
    """A finding does not meet the evidence threshold for promotion."""
