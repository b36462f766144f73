"""Versioned query-result cache: (epoch, canonical plan) → result.

Clinical reporting traffic is dominated by *repeats*: many analysts drag
the same figure-shaped roll-ups, dashboards re-issue the same MDX on a
timer.  The cache memoises aggregate results keyed by the **epoch** the
answer was computed on plus a canonicalised plan key, so

* a hit is guaranteed byte-identical to a fresh recompute at that epoch
  (the key pins the exact flat view the result came from), and
* ingest invalidates **for free**: publishing a new epoch changes the key
  prefix, so stale entries simply stop matching and age out of the LRU —
  no invalidation scan, no lock coupling between writers and readers.

Budgeting is two-dimensional: an entry count cap and a byte budget
(estimated from the result tables' column buffers).  Eviction is LRU.
The cache is safe for concurrent readers and writers (one mutex around
the ordered map; entries are immutable once stored).

Incremental maintenance does not change any of this: a delta publish is
a full-fledged new epoch, so its answers get fresh keys and the previous
epoch's entries age out through the same ``keep_epochs`` window.  Delta
epochs can be much more frequent than rebuild epochs (every append
batch), so latency-sensitive deployments may want a wider
``keep_epochs`` to keep pinned long-running readers warm.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable

from repro import obs


@dataclass(frozen=True)
class CacheConfig:
    """Budget for a :class:`ResultCache` (``SystemConfig(cache=...)``).

    ``max_bytes`` bounds the *estimated* resident size of cached result
    tables; ``max_entries`` bounds their count.  Both trigger LRU
    eviction.  ``keep_epochs`` is how many distinct epochs may coexist
    before entries from the oldest are dropped eagerly on publish (stale
    entries can never be *served* regardless — this only frees memory
    sooner than LRU would).
    """

    max_entries: int = 512
    max_bytes: int = 64 << 20
    keep_epochs: int = 2


@dataclass
class CacheStats:
    """Hit accounting for one cache (monotonic; snapshot for deltas)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: stores skipped because one result exceeded the whole byte budget
    oversize_rejections: int = 0

    @property
    def lookups(self) -> int:
        """All get() calls answered (hit or miss)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """hits / lookups (0.0 when the cache was never consulted)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict:
        """JSON-ready state."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "oversize_rejections": self.oversize_rejections,
            "hit_rate": round(self.hit_rate, 4),
        }


def estimate_result_bytes(value: object) -> int:
    """Resident-size estimate of a cached result.

    Tables are costed from their column buffers (numpy data + validity
    mask, plus a per-string payload estimate for object columns); other
    values fall back to ``sys.getsizeof``.  Estimates only steer the
    byte budget — they never affect answers.  (Reaches into the table's
    ``_columns`` mapping: sizing is a serving concern the tabular layer
    should not have to know about.)
    """
    columns = getattr(value, "_columns", None)
    if isinstance(columns, dict):
        total = 0
        for column in columns.values():
            data = getattr(column, "data", None)
            valid = getattr(column, "valid", None)
            if data is None or valid is None:
                return max(sys.getsizeof(value), 1)
            total += int(valid.nbytes)
            if data.dtype == object:
                # O(1) three-point probe (first/middle/last value), scaled
                # to the column length: ~64 bytes pointer + str header per
                # value plus the probed payload.  put() runs this on every
                # miss, so a per-value sweep would dominate the cold path;
                # the budget only needs an estimate.
                n = int(data.size)
                if n:
                    per = 0
                    for j in (0, n >> 1, n - 1):
                        v = data[j]
                        per += 64 + (len(v) if isinstance(v, str) else 16)
                    total += (per * n) // 3
            else:
                total += int(data.nbytes)
        return max(total, 1)
    # crosstabs / reports carry a table inside; cost what we can see
    inner = getattr(value, "table", None)
    if inner is not None and inner is not value:
        return estimate_result_bytes(inner)
    return max(sys.getsizeof(value), 1)


class ResultCache:
    """Thread-safe LRU of immutable query results, keyed by epoch + plan.

    Keys are ``(epoch, plan_key)`` tuples where ``epoch`` is a globally
    unique published-epoch id (see :mod:`repro.serving.epoch`) and
    ``plan_key`` any hashable canonical description of the query.  Values
    must be treated as immutable by callers — the engine's ``Table`` API
    is functional, so results can be shared safely between threads.
    """

    def __init__(self, config: CacheConfig | None = None, **overrides):
        if config is None:
            config = CacheConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a CacheConfig or keyword overrides")
        self.config = config
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple[int, Hashable], tuple[object, int]]" = (
            OrderedDict()
        )
        self._bytes = 0

    # -- reads ----------------------------------------------------------

    def get(self, epoch: int, plan_key: Hashable) -> object | None:
        """The cached result for (epoch, plan), or ``None`` on a miss."""
        key = (epoch, plan_key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                obs.count("serving.cache.miss")
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
        obs.count("serving.cache.hit")
        return entry[0]

    def hit_rate(self) -> float:
        """Lifetime hit rate: hits over all lookups (0.0 before any)."""
        with self._lock:
            return self.stats.hit_rate

    # -- writes ---------------------------------------------------------

    def put(self, epoch: int, plan_key: Hashable, value: object) -> None:
        """Store a result; evicts LRU entries past either budget."""
        nbytes = estimate_result_bytes(value)
        cfg = self.config
        if nbytes > cfg.max_bytes:
            with self._lock:
                self.stats.oversize_rejections += 1
            return
        key = (epoch, plan_key)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
            self.stats.stores += 1
            while self._entries and (
                len(self._entries) > cfg.max_entries
                or self._bytes > cfg.max_bytes
            ):
                _, (_, evicted_bytes) = self._entries.popitem(last=False)
                self._bytes -= evicted_bytes
                self.stats.evictions += 1
                obs.count("serving.cache.evictions")
            self._publish_gauges()

    def on_epoch_published(self, current_epoch: int) -> int:
        """Eagerly drop entries from epochs now out of the keep window.

        Stale entries can never be served (their key no longer matches);
        this merely releases their memory ahead of LRU aging.  Returns
        the number of entries dropped.
        """
        keep = max(1, self.config.keep_epochs)
        cutoff = current_epoch - keep
        dropped = 0
        with self._lock:
            for key in [k for k in self._entries if k[0] <= cutoff]:
                _, nbytes = self._entries.pop(key)
                self._bytes -= nbytes
                dropped += 1
            if dropped:
                self.stats.evictions += dropped
            self._publish_gauges()
        if dropped:
            obs.count("serving.cache.epoch_drops", dropped)
        return dropped

    def clear(self) -> None:
        """Drop every entry (budget accounting included)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._publish_gauges()

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def current_bytes(self) -> int:
        """Estimated resident bytes of all cached results."""
        with self._lock:
            return self._bytes

    def keys(self) -> list[tuple[int, Hashable]]:
        """Current (epoch, plan) keys, LRU-oldest first."""
        with self._lock:
            return list(self._entries)

    def stats_snapshot(self) -> dict:
        """JSON-ready stats + occupancy (the ``serve-bench`` payload)."""
        with self._lock:
            occupancy = {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_entries": self.config.max_entries,
                "max_bytes": self.config.max_bytes,
            }
        return {**self.stats.snapshot(), **occupancy}

    def _publish_gauges(self) -> None:
        # called with the lock held; skipped entirely unless tracing is on
        # (put() is on the query cold path, so even no-op calls add up)
        if obs.enabled():
            obs.set_gauge("serving.cache.entries", len(self._entries))
            obs.set_gauge("serving.cache.bytes", self._bytes)


def coerce_cache(
    cache: "ResultCache | CacheConfig | int | bool | None",
) -> ResultCache | None:
    """Normalise the ``SystemConfig(cache=...)`` spellings.

    ``None``/``False`` → no cache; ``True`` → default budget; an ``int``
    → byte budget; a :class:`CacheConfig` → that budget; a ready
    :class:`ResultCache` passes through (shared between systems).
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, CacheConfig):
        return ResultCache(cache)
    if isinstance(cache, int):
        return ResultCache(CacheConfig(max_bytes=int(cache)))
    raise TypeError(
        f"cache must be a ResultCache, CacheConfig, byte budget int, bool "
        f"or None, got {type(cache).__name__}"
    )
