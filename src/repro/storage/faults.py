"""Pluggable fault injection for the durability layer.

Every write boundary in the persistence stack (WAL append, commit mark,
snapshot temp write, rename, manifest write, ...) is named and routed
through this module, so tests can deterministically fail, tear, corrupt
or "kill the process" at the Nth write without monkeypatching file
objects.  Production runs pay one ``is None`` check per boundary.

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s.  Each rule names
a fault *point* (e.g. ``wal.commit``), the 1-based occurrence ``nth`` at
which it fires, and a ``mode``:

``error``
    Raise :class:`~repro.errors.InjectedFault` *before* anything is
    written — the process survives and sees a clean failure.
``kill``
    Raise :class:`SimulatedCrash` before the write: the bytes never reach
    disk, and the in-process state must be considered lost.  Tests catch
    the crash and recover from disk alone.
``short``
    A torn write: only a prefix of the bytes reaches the file, then
    :class:`SimulatedCrash` is raised (a real torn write is only
    observable because the machine died mid-``write``).
``flip``
    Silent corruption: one bit of the payload is flipped and the write
    "succeeds".  Recovery must detect it via checksums.
``transient``
    Raise :class:`~repro.errors.TransientIngestError` — a failure that is
    expected to heal; :func:`repro.storage.retry.with_retry` backs off
    and re-attempts the boundary.
``permanent``
    Raise :class:`~repro.errors.PermanentIngestError` — never retried;
    non-essential ingest boundaries degrade gracefully instead.
``slow``
    Sleep ``delay_s`` (default 50 ms) then proceed normally — a slow
    dependency, not a broken one.  The sleep is *cooperative*: it
    honours the active serving deadline, so a slowed query still times
    out with :class:`~repro.errors.QueryTimeoutError` in bounded time.
``stall``
    Like ``slow`` but with a long default (2 s) — a hung dependency.
    Only a deadline rescues the caller; chaos tests use this to prove
    cancellation actually reaches every boundary.

The write boundaries of the durability layer are joined by *serving*
boundaries (``serving.scan``, ``serving.cache``) fired
via :func:`fire` on the read path, so the same plans drive overload and
degradation chaos.

Plans can be installed programmatically (:func:`install` /
:func:`injected`) or parsed from the ``REPRO_FAULTS`` environment
variable (:func:`plan_from_env`), whose grammar is
``point[:mode][@nth]`` with commas or semicolons between rules; ``@0``
(or ``@*``) makes a rule fire on *every* hit::

    REPRO_FAULTS="wal.commit:kill@2,serving.cache:error@0"

Arming validates every rule's point against the registered-points set
(:func:`known_points`): a typo'd point used to silently never fire —
making chaos tests vacuously green — and now raises
:class:`~repro.errors.StorageError` at install/parse time.  New
boundaries self-register via :func:`register_point`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import (
    InjectedFault,
    PermanentIngestError,
    StorageError,
    TransientIngestError,
)

#: Environment variable holding a default fault plan (see module docs).
FAULTS_ENV = "REPRO_FAULTS"

_MODES = (
    "error", "kill", "short", "flip", "transient", "permanent", "slow", "stall",
)

#: default injected delays for the latency modes (seconds)
_SLOW_DELAY_S = 0.05
_STALL_DELAY_S = 2.0

# ---------------------------------------------------------------------------
# Registered fault points
# ---------------------------------------------------------------------------
#
# Every boundary the engine actually fires is registered here (plus the
# derived ``<point>.rename`` half of each atomic write).  Arming a plan
# validates rule points against this set, so a typo'd point fails fast
# at install time instead of silently never firing — which would make a
# chaos test vacuously green.  Out-of-tree boundaries (and test-local
# synthetic points) opt in via :func:`register_point`.

#: atomic-write boundaries; each also fires ``<point>.rename``
_ATOMIC_WRITE_POINTS = frozenset({
    "atomic.write",
    "wal.create", "wal.truncate",
    "snapshot.data", "snapshot.manifest",
})

#: plain boundaries fired via :func:`fire`/:func:`before_write`
_PLAIN_POINTS = frozenset({
    # durability
    "wal.append", "wal.commit", "wal.sync",
    "storage.compaction",
    # resilient-ingest retry boundaries
    "ingest.oltp", "ingest.rebuild", "ingest.quarantine",
    "ingest.feedback", "ingest.lattice", "ingest.checkpoint",
    "lattice.delta_merge",
    # serving / read path
    "serving.scan", "serving.cache",
})

#: the built-in registered-points set (see :func:`known_points`)
CORE_POINTS: frozenset[str] = (
    _PLAIN_POINTS
    | _ATOMIC_WRITE_POINTS
    | frozenset(p + ".rename" for p in _ATOMIC_WRITE_POINTS)
)

_extra_points: set[str] = set()


def register_point(name: str) -> str:
    """Register an extra fault point so plans naming it pass validation.

    For boundaries added outside this module (or synthetic points in
    tests).  Returns the name for inline use.
    """
    name = name.strip()
    if not name:
        raise StorageError("fault point names cannot be empty")
    _extra_points.add(name)
    return name


def known_points() -> frozenset[str]:
    """Every currently registered fault point (core + extras)."""
    return CORE_POINTS | frozenset(_extra_points)


def validate_points(points: "list[str] | tuple[str, ...] | set[str]") -> None:
    """Fail fast on unknown fault-point names (arm-time validation)."""
    unknown = sorted(set(points) - known_points())
    if unknown:
        raise StorageError(
            f"unknown fault point(s) {', '.join(repr(p) for p in unknown)} — "
            f"a typo'd point would never fire, making the plan vacuously "
            f"inert (known points: {', '.join(sorted(known_points()))}; "
            f"extend with faults.register_point())"
        )


class SimulatedCrash(BaseException):
    """The injected equivalent of ``kill -9`` at a write boundary.

    Derives from :class:`BaseException` so ``except Exception`` blocks in
    the code under test cannot swallow it — exactly like a real crash.
    """

    def __init__(self, point: str, occurrence: int):
        self.point = point
        self.occurrence = occurrence
        super().__init__(f"simulated crash at {point!r} (occurrence {occurrence})")


@dataclass
class FaultRule:
    """Fire ``mode`` at the ``nth`` hit of ``point`` (1-based).

    ``nth=0`` means *every* hit — the chaos-plan spelling for a
    dependency that is persistently slow or broken.
    """

    point: str
    mode: str = "error"
    nth: int = 1
    #: for ``short``: fraction of the payload that reaches the file
    keep_fraction: float = 0.5
    #: for ``slow``/``stall``: injected latency (``None`` = mode default)
    delay_s: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise StorageError(
                f"unknown fault mode {self.mode!r} (valid: {', '.join(_MODES)})"
            )
        if self.nth < 0:
            raise StorageError(f"fault nth must be >= 0, got {self.nth}")

    def matches(self, point: str, count: int) -> bool:
        return self.point == point and (self.nth == 0 or count == self.nth)


@dataclass
class FaultPlan:
    """An installed set of rules plus per-point hit counters."""

    rules: list[FaultRule] = field(default_factory=list)
    _counts: dict[str, int] = field(default_factory=dict, repr=False)
    _pending_crash: SimulatedCrash | None = field(default=None, repr=False)

    def hits(self, point: str) -> int:
        """How many times ``point`` has been reached so far."""
        return self._counts.get(point, 0)

    def before_write(self, point: str, data: bytes) -> bytes:
        """Account one hit of ``point``; transform or abort the write."""
        count = self._counts.get(point, 0) + 1
        self._counts[point] = count
        for rule in self.rules:
            if not rule.matches(point, count):
                continue
            if rule.mode in ("slow", "stall"):
                delay = rule.delay_s
                if delay is None:
                    delay = _SLOW_DELAY_S if rule.mode == "slow" else _STALL_DELAY_S
                # honour the serving deadline inside the injected delay so
                # a stalled boundary cannot outlive the query it stalls
                # (lazy import: faults loads before the serving package)
                from repro.serving.resilience import cooperative_sleep

                cooperative_sleep(delay)
                continue
            if rule.mode == "error":
                raise InjectedFault(f"injected failure at {point!r} (hit {count})")
            if rule.mode == "transient":
                raise TransientIngestError(
                    f"injected transient fault at {point!r} (hit {count})"
                )
            if rule.mode == "permanent":
                raise PermanentIngestError(
                    f"injected permanent fault at {point!r} (hit {count})"
                )
            if rule.mode == "kill":
                raise SimulatedCrash(point, count)
            if rule.mode == "short":
                kept = int(len(data) * rule.keep_fraction)
                self._pending_crash = SimulatedCrash(point, count)
                return data[:kept]
            if rule.mode == "flip" and data:
                flipped = bytearray(data)
                flipped[len(flipped) // 2] ^= 0x04
                return bytes(flipped)
        return data

    def after_write(self, point: str) -> None:
        """Deliver the crash half of a ``short`` (torn) write."""
        crash, self._pending_crash = self._pending_crash, None
        if crash is not None:
            raise crash


_active: FaultPlan | None = None


def install(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` globally (replacing any previous plan).

    Rule points are validated against :func:`known_points` — an unknown
    point raises :class:`~repro.errors.StorageError` instead of arming a
    rule that can never fire.
    """
    validate_points([rule.point for rule in plan.rules])
    global _active
    _active = plan
    return plan


def uninstall() -> None:
    """Disarm fault injection."""
    global _active
    _active = None


def active() -> FaultPlan | None:
    """The armed plan, or ``None``."""
    return _active


class injected:
    """Context manager: arm a plan for the duration of a ``with`` block."""

    def __init__(self, plan: FaultPlan | list[FaultRule]):
        self.plan = plan if isinstance(plan, FaultPlan) else FaultPlan(list(plan))

    def __enter__(self) -> FaultPlan:
        return install(self.plan)

    def __exit__(self, *exc_info: object) -> None:
        uninstall()


def before_write(point: str, data: bytes) -> bytes:
    """Hook for the durability layer: called before bytes hit a file."""
    if _active is None:
        return data
    return _active.before_write(point, data)


def after_write(point: str) -> None:
    """Hook for the durability layer: called after bytes hit a file."""
    if _active is not None:
        _active.after_write(point)


def fire(point: str) -> None:
    """A data-less fault point (renames, fsyncs, directory syncs)."""
    before_write(point, b"")
    after_write(point)


def plan_from_env(value: str | None = None) -> FaultPlan | None:
    """Parse ``REPRO_FAULTS`` (or an explicit string) into a plan.

    Returns ``None`` when the variable is unset or empty.  Grammar per
    rule: ``point[:mode][@nth]``; rules separated by ``,`` or ``;``.
    """
    if value is None:
        value = os.environ.get(FAULTS_ENV, "")
    value = value.strip()
    if not value:
        return None
    rules = []
    for chunk in value.replace(";", ",").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        nth = 1
        if "@" in chunk:
            chunk, nth_text = chunk.rsplit("@", 1)
            if nth_text.strip() == "*":
                nth = 0  # every hit
            else:
                try:
                    nth = int(nth_text)
                except ValueError:
                    raise StorageError(
                        f"bad {FAULTS_ENV} occurrence {nth_text!r} in {chunk!r}"
                    ) from None
        point, _, mode = chunk.partition(":")
        point = point.strip()
        if not point:
            raise StorageError(f"empty fault point in {FAULTS_ENV}")
        rules.append(FaultRule(point=point, mode=mode.strip() or "error", nth=nth))
    validate_points([rule.point for rule in rules])
    return FaultPlan(rules)


# Arm any plan named by the environment as soon as the durability layer
# loads, so the knob works for plain processes too, not just the test
# suite (whose conftest re-installs a fresh plan per test).
_env_plan = plan_from_env()
if _env_plan is not None:
    install(_env_plan)
