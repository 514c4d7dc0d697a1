"""Pattern-keyed schedule cache: pay GUST preprocessing once per pattern.

The paper's economics (Section 3.3, Table 4) rest on scheduling being a
one-time cost amortized over many SpMV replays.  Iterative workloads
stretch that further: a Newton solver re-assembles a Jacobian with the same
sparsity pattern but new values every step, and an SpMM replays one
schedule per dense column.  This module makes that amortization automatic:

* The cache key is a fingerprint of everything the *coloring* depends on —
  the sparsity pattern (rows, cols, shape) plus the scheduling
  configuration (length, algorithm, load-balance flag).  An identity memo
  recognizes the shared index arrays of :meth:`CooMatrix.with_data`
  matrices so steady-state lookups skip rehashing; values are compared
  directly against a stored snapshot (memcmp-speed equality), so even
  in-place edits of a cached matrix's data register as changes.
* A lookup with identical pattern **and** values returns the stored
  schedule outright (a *hit*).
* A lookup with identical pattern but new values performs a *refresh*: the
  stored coloring, row permutation, and slot->entry join are reused, so
  only O(nnz) value gathers run — orders of magnitude cheaper than
  rescheduling (``benchmarks/bench_scheduling_throughput.py`` demands
  >= 50x).  The refreshed schedule is a lazy ``CompactSchedule``: no dense
  ``M_sch`` is built unless something reads it.  A caller that keeps a
  pattern refreshes it by key instead (``refresh(pattern_key(...), data)``)
  and skips the lookup's digest.
* Anything else is a *miss*; the caller schedules cold and inserts.

Persistent tier
---------------

Pass ``store=`` (a :class:`~repro.core.store.DiskScheduleStore`) to layer a
content-addressed on-disk tier underneath: lookups then go **memory ->
disk -> compute**.  A memory miss consults the store; a disk hit
reconstitutes the full in-memory entry (including the value-refresh
metadata) and is then served through the normal hit/refresh logic — so a
worker process restarted against a warm store pays a file read, never a
coloring, even when the matrix values have moved since the artifact was
written.  :meth:`insert` writes through to the store, and artifacts are
shared freely between processes (atomic writes, checksum-verified reads).
Value refreshes do *not* rewrite the artifact: the coloring it persists is
value-independent, and the refresh machinery re-derives values on load.

Entries are kept in LRU order with a bounded capacity.  The cache is
thread-safe: every lookup, insert, and stats read runs under one
re-entrant lock, so a registry of serving tenants can share a single
cache across registration threads and metrics readers.  (The disk tier
is additionally multi-process safe via atomic artifact writes.)  The
lock serializes value refreshes too — a refresh mutates the stored
entry in place, and two threads refreshing one entry concurrently must
not interleave.

Used by :class:`repro.core.pipeline.GustPipeline` (pass ``cache=`` /
``store=``) and, through it, :class:`repro.core.spmm.GustSpmm` and every
solver in :mod:`repro.solvers` that reuses a pipeline across calls.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import obs as _obs
from repro.analysis.runtime import validation_enabled
from repro.core.load_balance import BalancedMatrix
from repro.core.plan import ExecutionPlan
from repro.core.schedule import CompactSchedule, Schedule
from repro.core.store import DiskScheduleStore, store_key_from_digest
from repro.errors import HardwareConfigError, ScheduleError
from repro.sparse.coo import CooMatrix, canonical_order


@dataclass(frozen=True)
class CacheStats:
    """Counters for one :class:`ScheduleCache` instance.

    ``hits``/``refreshes`` count every lookup that avoided a cold
    scheduling pass, whichever tier satisfied it; ``disk_hits`` records the
    subset that was served from the persistent store, and ``disk_misses``
    the memory misses that consulted the store and found nothing usable.
    """

    hits: int = 0
    refreshes: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.refreshes + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that avoided a cold scheduling pass."""
        total = self.lookups
        return (self.hits + self.refreshes) / total if total else 0.0


@dataclass(frozen=True)
class CacheLookup:
    """Result of a :meth:`ScheduleCache.fetch` that found the pattern."""

    schedule: Schedule
    balanced: BalancedMatrix
    stalls: int
    #: True when the stored coloring was reused but the value scatter ran.
    refreshed: bool
    #: True when the entry was faulted in from the persistent store.
    from_disk: bool
    #: The prepared executor for this schedule (refreshed in lockstep with
    #: the value stream); ``None`` only for legacy entries without slot
    #: metadata.
    plan: ExecutionPlan | None = None


@dataclass
class _Entry:
    """One cached schedule plus the metadata needed for value refreshes."""

    schedule: CompactSchedule
    balanced: BalancedMatrix
    #: snapshot of the original-order value stream the stored schedule was
    #: built from (a copy, so in-place edits of the caller's array differ).
    last_data: np.ndarray
    #: original-order data -> balanced-order data permutation.  May be
    #: ``None`` for entries faulted in from a disk artifact (which persists
    #: only the inverse); materialized lazily on the first value refresh.
    data_order: np.ndarray | None
    #: each listed slot's balanced-data source index.
    slot_source: np.ndarray
    #: naive-policy stall count captured at scheduling time.
    stalls: int
    #: prepared executor compiled from the stored schedule; its values are
    #: refreshed in lockstep with the schedule's on value refreshes.
    plan: ExecutionPlan | None = None
    #: balanced-order -> original-order permutation from a disk artifact.
    inv_order: np.ndarray | None = None


def _balanced_order(matrix: CooMatrix, balanced: BalancedMatrix) -> np.ndarray:
    """Original-order -> balanced-order permutation of ``matrix``'s entries.

    The balanced matrix is canonical in (permuted row, col) order, so this
    is the canonical order of the original entries under ``row_perm``.
    """
    return canonical_order(
        balanced.row_perm[matrix.rows], matrix.cols, matrix.shape
    )


def pattern_digest(
    matrix: CooMatrix, length: int, algorithm: str, load_balance: bool
) -> bytes:
    """Fingerprint of the inputs the edge coloring depends on.

    The index arrays are hashed as one combined ``row * n + col`` key per
    nonzero — bijective given the (m, n) already in the header, and half
    the bytes of hashing rows and cols separately, which matters because
    this digest sits on the warm-start path of every store lookup.
    SHA-256 over blake2b for the same reason: hardware SHA extensions make
    it ~2x faster per byte here, and the digest only needs to be
    collision-free, not keyed.
    """
    h = hashlib.sha256()
    m, n = matrix.shape
    h.update(
        np.array([m, n, length, int(load_balance)], dtype=np.int64).tobytes()
    )
    h.update(algorithm.encode("utf-8"))
    keys = matrix.rows.astype(np.int64) * np.int64(max(n, 1)) + matrix.cols
    if keys.size and m * n <= np.iinfo(np.int32).max:
        # Same information, half the bytes to hash.  The narrowing is a
        # pure function of (m, n), so every process derives the same
        # digest for one pattern.
        keys = keys.astype(np.int32)
    h.update(np.ascontiguousarray(keys).tobytes())
    return h.digest()


class ScheduleCache:
    """Bounded LRU cache of (pattern, config) -> prepared schedule.

    Args:
        capacity: maximum number of distinct patterns retained in memory.
        store: optional persistent tier consulted on memory misses and
            written through on inserts.
    """

    def __init__(
        self, capacity: int = 8, store: DiskScheduleStore | None = None
    ):
        if capacity <= 0:
            raise HardwareConfigError(
                f"cache capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.store = store
        # Re-entrant: fetch -> store.load -> (callbacks) may re-enter, and
        # callers composing fetch+insert under their own use of the cache
        # must never deadlock against the internal guard.
        self._lock = threading.RLock()
        self._entries: OrderedDict[bytes, _Entry] = OrderedDict()  # guarded-by: _lock
        # Identity memo: CooMatrix.with_data shares the index arrays of its
        # source, so repeated lookups for a pattern usually present the
        # *same* rows/cols objects and can skip rehashing ~nnz bytes.  Keyed
        # by array identity, guarded by weakrefs so a recycled id() of a
        # collected array can never alias.
        self._digest_memo: OrderedDict[
            tuple, tuple[weakref.ref, weakref.ref, bytes]
        ] = OrderedDict()  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._refreshes = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock
        self._disk_hits = 0  # guarded-by: _lock
        self._disk_misses = 0  # guarded-by: _lock

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                refreshes=self._refreshes,
                misses=self._misses,
                evictions=self._evictions,
                disk_hits=self._disk_hits,
                disk_misses=self._disk_misses,
            )

    def clear(self) -> None:
        """Drop every in-memory entry (statistics and the disk tier are
        untouched; use ``cache.store.clear()`` to purge artifacts)."""
        with self._lock:
            self._entries.clear()
            self._digest_memo.clear()

    # -- fingerprints -------------------------------------------------------

    def pattern_key(
        self,
        matrix: CooMatrix,
        length: int,
        algorithm: str,
        load_balance: bool,
    ) -> bytes:
        """The key of ``matrix``'s pattern under one scheduling
        configuration: the :func:`pattern_digest`, memoized by the
        identity of the index arrays."""
        memo_key = (
            id(matrix.rows),
            id(matrix.cols),
            matrix.shape,
            length,
            algorithm,
            load_balance,
        )
        with self._lock:
            memoized = self._digest_memo.get(memo_key)
            if memoized is not None:
                rows_ref, cols_ref, digest = memoized
                if rows_ref() is matrix.rows and cols_ref() is matrix.cols:
                    self._digest_memo.move_to_end(memo_key)
                    return digest
            digest = pattern_digest(matrix, length, algorithm, load_balance)
            self._digest_memo[memo_key] = (
                weakref.ref(matrix.rows),
                weakref.ref(matrix.cols),
                digest,
            )
            while len(self._digest_memo) > 4 * self.capacity:
                self._digest_memo.popitem(last=False)
            return digest

    # -- lookup / insert ----------------------------------------------------

    def fetch(
        self,
        matrix: CooMatrix,
        length: int,
        algorithm: str,
        load_balance: bool,
    ) -> CacheLookup | None:
        """Return a :class:`CacheLookup` or ``None`` on a full miss.

        Lookup order is memory -> disk -> caller computes.  A pattern hit
        with changed values refreshes the stored schedule in place: only
        the value scatter runs; the coloring, permutation, and slot join
        are reused.  Entries faulted in from the disk tier go through the
        identical hit/refresh logic, so a warm store serves value-updated
        matrices without recoloring.
        """
        started = _obs.monotonic()
        with self._lock:
            key = self.pattern_key(matrix, length, algorithm, load_balance)
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                served = self._serve(entry, matrix.data, from_disk=False)
                self._observe_lookup("memory", started)
                return served

            if self.store is not None:
                with _obs.span("cache.disk_load", cat="cache"):
                    stored = self.store.load(
                        store_key_from_digest(key, matrix.nnz)
                    )
                if stored is not None:
                    self._disk_hits += 1
                    entry = self._entry_from_artifact(matrix, stored)
                    self._put(key, entry)
                    served = self._serve(entry, matrix.data, from_disk=True)
                    self._observe_lookup("disk", started)
                    return served
                self._disk_misses += 1

            self._misses += 1
            self._observe_lookup("miss", started)
            return None

    def refresh(self, key: bytes, data: np.ndarray) -> CacheLookup | None:
        """:meth:`fetch` by :meth:`pattern_key`, for a caller that keeps the
        pattern: ``data`` is the new value stream in the pattern's entry
        order.  No canonicalization, no digest; ``None`` once the entry has
        left memory (the caller then takes the :meth:`fetch` path)."""
        started = _obs.monotonic()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if data.shape != entry.last_data.shape:
                raise ScheduleError("value stream does not fit the pattern")
            with _obs.span("cache.fetch", cat="cache") as span:
                self._entries.move_to_end(key)
                served = self._serve(entry, data, from_disk=False)
                span.annotate(outcome="refresh" if served.refreshed else "hit")
            self._observe_lookup("memory", started)
            return served

    @staticmethod
    def _observe_lookup(tier: str, started: float) -> None:
        """Per-tier lookup latency: which tier *resolved* the fetch
        (``miss`` = the cost of discovering nothing had it; the compute
        tier's latency is observed by the pipeline's cold path)."""
        _obs.default_registry().histogram(
            "gust_cache_lookup_seconds",
            help="Schedule-cache lookup latency by resolving tier.",
        ).observe(_obs.monotonic() - started, tier=tier)

    def _serve(
        self, entry: _Entry, data: np.ndarray, from_disk: bool
    ) -> CacheLookup:  # guarded-by: _lock
        """Serve one entry for the original-order value stream ``data``:
        verbatim hit, or in-place value refresh.

        A refresh builds no dense array: its schedule is a
        :class:`CompactSchedule` sharing the entry's slot coordinates that
        gathers its slot values only if something reads ``m_sch``.  Caller
        holds ``self._lock``, which also covers the in-place mutation of
        ``entry``.
        """
        if np.array_equal(data, entry.last_data):
            self._hits += 1
            return CacheLookup(
                schedule=entry.schedule,
                balanced=entry.balanced,
                stalls=entry.stalls,
                refreshed=False,
                from_disk=from_disk,
                plan=entry.plan,
            )

        self._refreshes += 1
        if entry.data_order is None:
            # Disk entries persist only the inverse permutation.
            inv = entry.inv_order
            entry.data_order = np.empty(inv.size, dtype=np.int64)
            entry.data_order[inv] = np.arange(inv.size, dtype=np.int64)
        permuted_data = data[entry.data_order]
        old = entry.balanced
        refreshed_matrix = CooMatrix(
            rows=old.matrix.rows,
            cols=old.matrix.cols,
            data=permuted_data,
            shape=old.matrix.shape,
        )
        balanced = BalancedMatrix(
            matrix=refreshed_matrix,
            row_perm=old.row_perm,
            window_col_maps=old.window_col_maps,
        )
        schedule = entry.schedule.with_values(permuted_data, entry.slot_source)
        entry.schedule = schedule
        entry.balanced = balanced
        if entry.plan is not None:
            # One O(nnz) gather: the plan's sorted structure is value-
            # independent, so a refresh rides the same coloring reuse.
            entry.plan = entry.plan.with_values(permuted_data)
        # Snapshot, not alias: an in-place edit of the caller's data array
        # must read as "values changed" on the next lookup.
        entry.last_data = data.copy()
        return CacheLookup(
            schedule=schedule,
            balanced=balanced,
            stalls=entry.stalls,
            refreshed=True,
            from_disk=from_disk,
            plan=entry.plan,
        )

    def _entry_from_artifact(
        self, matrix: CooMatrix, stored
    ) -> _Entry:
        """Reconstitute the in-memory entry for a disk artifact.

        The artifact persists the *balanced-order* matrix plus the slot
        join, and — when written through a cache like this one — the
        original->balanced permutation.  The requesting ``matrix`` supplies
        the original-order pattern (identical by key construction), so the
        only work here is scattering the artifact's values back into
        original order for the hit/refresh comparison; the sorts and
        searchsorted joins were paid once at write time.
        """
        balanced = stored.balanced
        data_order = stored.data_order
        if stored.inv_order is not None:
            # Gather via the persisted inverse permutation (cheaper than
            # the scatter the forward form would need); the forward
            # permutation stays lazy until a value refresh needs it.
            artifact_data = balanced.matrix.data[stored.inv_order]
        else:
            if data_order is None:
                data_order = _balanced_order(matrix, balanced)
            artifact_data = np.empty_like(balanced.matrix.data)
            artifact_data[data_order] = balanced.matrix.data
        return _Entry(
            schedule=stored.schedule,
            balanced=balanced,
            last_data=artifact_data,
            data_order=data_order,
            slot_source=stored.slot_source,
            stalls=stored.stalls,
            plan=stored.plan,
            inv_order=stored.inv_order,
        )

    def _put(self, key: bytes, entry: _Entry) -> None:  # guarded-by: _lock
        """Install an entry at most-recent position, evicting over capacity."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    def insert(
        self,
        matrix: CooMatrix,
        length: int,
        algorithm: str,
        load_balance: bool,
        schedule: CompactSchedule,
        balanced: BalancedMatrix,
        stalls: int = 0,
    ) -> ExecutionPlan:
        """Store a cold-scheduled result for future hits/refreshes.

        ``matrix`` is the *original* (pre-permutation) operand the caller
        scheduled and ``schedule`` the scheduler's result for ``balanced``.
        Nothing is re-joined: the original -> balanced value order is the
        balancer's ``entry_order`` (one canonical sort where it has none),
        and each slot's coordinates and source are the schedule's own
        :meth:`~repro.core.schedule.CompactSchedule.slots`.  The prepared
        :class:`~repro.core.plan.ExecutionPlan` is compiled here from those
        slots (and returned, so the scheduling pipeline can start replaying
        immediately).  With a persistent tier attached, the result is also
        written through to disk — including the plan's sort order, so a
        warm start is replay-ready without re-sorting (skipped when the
        content-addressed artifact already exists; the coloring and plan
        structure it stores are value-independent).
        """
        data_order = balanced.entry_order
        if data_order is None:
            data_order = _balanced_order(matrix, balanced)
        slots = schedule.slots()
        plan = ExecutionPlan.from_schedule(
            schedule, row_perm=balanced.row_perm, slots=slots
        )
        if validation_enabled():
            plan.validate()
        with self._lock:
            key = self.pattern_key(matrix, length, algorithm, load_balance)
            self._put(
                key,
                _Entry(
                    schedule=schedule,
                    balanced=balanced,
                    last_data=matrix.data.copy(),
                    data_order=data_order,
                    slot_source=schedule.value_source,
                    stalls=stalls,
                    plan=plan,
                ),
            )
            if self.store is not None:
                store_key = store_key_from_digest(key, matrix.nnz)
                if not self.store.contains(store_key):
                    self.store.store(
                        store_key,
                        schedule,
                        balanced,
                        stalls=stalls,
                        slots=slots,
                        data_order=data_order,
                        plan_order=plan.slot_order,
                    )
        return plan
