"""The database façade: buffer pool + logical page allocation.

This is the thin "storage system" of Figure 10: a page-oriented engine
that neither knows nor cares which page-update method sits below it.
Heap files and B+trees allocate logical pages here; all page traffic
flows through the LRU buffer pool, whose dirty evictions and misses are
the flash I/O the paper measures in Experiment 7.

The driver may just as well be a
:class:`~repro.sharding.driver.ShardedDriver` spanning many chips — the
engine is oblivious (``Database.flush`` then performs a batched group
flush across every shard), which is the paper's DBMS-independence
argument extended to device-count independence.

Persistence: :meth:`Database.open` binds the engine to a directory of
:class:`~repro.flash.backend.FileBackend` images (one per shard, plus a
small JSON manifest holding the configuration that is *deployment*
state rather than flash state: shard count, routing kind, chip
geometry).  Opening an existing directory reconstructs the drivers from
the images alone via the paper's Figure-11 spare-area scan — there is
deliberately no sidecar file of mapping tables, because the paper's
recovery claim is that flash *is* the recovery log.  The logical
allocation horizon is likewise re-derived from the recovered mapping
tables (the highest recovered pid), matching the crash semantics of the
rest of the system: pages allocated but never flushed were never
durable and simply do not exist after a restart.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict
from typing import List, Optional

from ..core.mapping import MappingConfig
from ..core.pdl import PdlDriver
from ..flash.backend import BackendError, FileBackend
from ..flash.chip import FlashChip
from ..flash.spec import BENCH_SPEC, FlashSpec
from ..ftl.base import PageUpdateMethod
from ..ftl.errors import ConfigurationError, UnallocatedPageError
from .bufferpool import BufferManager, BufferStats
from .page import Page

#: Name of the per-database configuration manifest.
MANIFEST_NAME = "manifest.json"

#: On-disk manifest format version.
MANIFEST_VERSION = 1


def _shard_image(path: str, index: int) -> str:
    return os.path.join(path, f"shard-{index:04d}.flash")


def _chips_of(driver: PageUpdateMethod) -> List[FlashChip]:
    chips = getattr(driver, "chips", None)
    if chips is not None:
        return list(chips)
    return [driver.chip]


class Database:
    """A minimal page-based database instance."""

    def __init__(
        self,
        driver: PageUpdateMethod,
        buffer_capacity: int,
        *,
        buffer_policy: str = "lru",
        writeback=None,
    ):
        self.driver = driver
        self.pool = BufferManager(
            driver, buffer_capacity, policy=buffer_policy, writeback=writeback
        )
        self.page_size = driver.page_size
        self._next_pid = 0
        #: Guards the allocation horizon: clients may share one engine
        #: across threads (see docs/bufferpool.md), so handing out the
        #: same pid twice must be impossible.
        self._alloc_lock = threading.Lock()
        self._closed = False
        #: Directory this database persists to; None for volatile setups.
        self.path: Optional[str] = None

    @classmethod
    def resume(
        cls,
        driver: PageUpdateMethod,
        buffer_capacity: int,
        allocated_pages: int,
        *,
        buffer_policy: str = "lru",
        writeback=None,
    ) -> "Database":
        """Re-attach to an existing (e.g. just-recovered) driver.

        ``allocated_pages`` restores the logical page allocation horizon
        the engine had reached before the crash; pages above it were
        never handed out and stay unreachable.
        """
        if allocated_pages < 0:
            raise ValueError("allocated_pages must be non-negative")
        db = cls(
            driver,
            buffer_capacity,
            buffer_policy=buffer_policy,
            writeback=writeback,
        )
        db._next_pid = allocated_pages
        return db

    # ------------------------------------------------------------------
    # Persistent open / close
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: "str | os.PathLike",
        *,
        buffer_capacity: int = 64,
        spec: Optional[FlashSpec] = None,
        n_shards: Optional[int] = None,
        max_differential_size: Optional[int] = None,
        read_cache_pages: int = 0,
        parallel: "bool | str" = False,
        buffer_policy: str = "lru",
        writeback=None,
        mapping_cache: Optional[int] = None,
        snapshot_interval: Optional[int] = None,
        **driver_kwargs,
    ) -> "Database":
        """Open (or create) a persistent PDL database at ``path``.

        ``path`` is a directory holding one
        :class:`~repro.flash.backend.FileBackend` image per shard and a
        JSON manifest.  When the directory has no manifest, a fresh
        database is created from the given configuration (``spec``
        defaults to :data:`~repro.flash.spec.BENCH_SPEC` per shard,
        ``n_shards`` to 1, ``max_differential_size`` to the paper's 256).
        When it does, the stored configuration wins: each shard image is
        recovered via the Figure-11 spare-area scan and the engine
        resumes exactly the durable state a previous process flushed.
        Passing ``spec``/``n_shards``/``max_differential_size`` that
        contradict the manifest raises
        :class:`~repro.ftl.errors.ConfigurationError` rather than
        silently reinterpreting the images.

        ``parallel=True`` (or ``parallel="thread"``) executes shards on
        worker threads (a
        :class:`~repro.sharding.executor.ThreadExecutor`): the
        reopen-time Figure-11 scans, every buffer-pool flush and
        ``Database.flush()``'s group flush fan out across the array, and
        the engine becomes safe to drive from concurrent client threads
        (see ``docs/concurrency.md``).  ``parallel="process"`` goes one
        step further and runs each shard in its own worker *process*
        (a :class:`~repro.sharding.executor_proc.ProcessShardExecutor`)
        with page payloads in shared memory, so shard work executes on
        separate cores past the GIL; the per-shard images are reopened
        inside the workers, which is why the configuration must be
        spawn-safe (it is — the manifest holds only plain data).  Like
        GC tuning, parallelism is runtime — not manifest — state: pass
        it again on reopen.

        ``buffer_policy`` selects the buffer pool's eviction policy from
        the registry (``"lru"`` — the default and the paper-faithful
        configuration — ``"clock"``, or the scan-resistant ``"2q"``);
        ``writeback`` turns on background write-back (``"background"``
        or a :class:`~repro.storage.bufferpool.WritebackConfig`;
        ``None``/``"sync"`` keeps the historical synchronous behaviour).
        Both are runtime — not manifest — state, like ``parallel``; see
        ``docs/bufferpool.md``.

        ``mapping_cache`` (an entry count; ``0`` = resident) enables the
        demand-paged mapping tier on every shard: the mapping table
        lives in a journaled, snapshotted flash region
        (:mod:`repro.ext.journal`) and at most ``mapping_cache`` entries
        of it are held in RAM, so a shard can serve a device far larger
        than its mapping RAM and a crash restart replays the journal
        tail instead of scanning the device.  The region *geometry* is
        part of the on-flash layout and is therefore recorded in the
        manifest at creation time; ``mapping_cache`` itself (and
        ``snapshot_interval``, the dirty-record count that arms the next
        snapshot) are runtime tuning and may differ across reopens.
        Reopening a mapping database always re-enables the tier —
        passing ``mapping_cache=None`` then just means "default cache".
        Enabling the tier on a database created without it (or vice
        versa, via explicit ``mapping_cache`` on creation only) is a
        layout change and raises
        :class:`~repro.ftl.errors.ConfigurationError`.

        ``read_cache_pages`` enables the per-chip LRU base-page read
        cache; remaining keyword arguments go to the (per-shard)
        :class:`~repro.core.pdl.PdlDriver` constructor or recovery.
        GC tuning rides through them — e.g.
        ``gc_config=GcConfig(policy="cb", incremental_steps=4)``
        selects cost-benefit incremental collection on every shard.
        Like the buffer capacity, GC tuning is runtime (not manifest)
        state: pass it again on reopen.
        """
        path = os.fspath(path)
        pool_kwargs = {"buffer_policy": buffer_policy, "writeback": writeback}
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            return cls._open_existing(
                path,
                buffer_capacity,
                spec,
                n_shards,
                max_differential_size,
                read_cache_pages,
                parallel,
                pool_kwargs,
                driver_kwargs,
                mapping_cache,
                snapshot_interval,
            )
        return cls._create_new(
            path,
            buffer_capacity,
            spec if spec is not None else BENCH_SPEC,
            n_shards if n_shards is not None else 1,
            max_differential_size if max_differential_size is not None else 256,
            read_cache_pages,
            parallel,
            pool_kwargs,
            driver_kwargs,
            mapping_cache,
            snapshot_interval,
        )

    @classmethod
    def _create_new(
        cls,
        path: str,
        buffer_capacity: int,
        spec: FlashSpec,
        n_shards: int,
        max_differential_size: int,
        read_cache_pages: int,
        parallel: bool,
        pool_kwargs: dict,
        driver_kwargs: dict,
        mapping_cache: Optional[int] = None,
        snapshot_interval: Optional[int] = None,
    ) -> "Database":
        if n_shards < 1:
            raise ConfigurationError("n_shards must be at least 1")
        if "mapping" in driver_kwargs:
            raise ConfigurationError(
                "pass mapping_cache/snapshot_interval instead of a raw "
                "mapping= config: the region geometry must be recorded in "
                "the manifest to survive reopen"
            )
        mapping_cfg = None
        if mapping_cache is not None:
            mapping_cfg = MappingConfig.auto(
                spec,
                cache_entries=mapping_cache,
                snapshot_interval=snapshot_interval,
            )
            driver_kwargs = {**driver_kwargs, "mapping": mapping_cfg}
        elif snapshot_interval is not None:
            raise ConfigurationError(
                "snapshot_interval requires the mapping tier "
                "(pass mapping_cache as well)"
            )
        os.makedirs(path, exist_ok=True)
        chips = []
        for i in range(n_shards):
            image = _shard_image(path, i)
            if os.path.exists(image):
                # Image without a manifest: a creation that died before
                # the manifest write.  The database never existed; start
                # over rather than resurrecting a half-created image.
                os.remove(image)
            chips.append(
                FlashChip(
                    spec,
                    backend=FileBackend.create(image, spec),
                    read_cache_pages=read_cache_pages,
                )
            )
        driver = cls._assemble(
            chips, n_shards, max_differential_size, parallel, driver_kwargs
        )
        manifest = {
            "format": MANIFEST_VERSION,
            "n_shards": n_shards,
            "max_differential_size": max_differential_size,
            "router": {"kind": "hash"},
            "spec": asdict(spec),
        }
        if mapping_cfg is not None:
            # Geometry only: cache size and snapshot cadence are runtime
            # tuning, but the region layout is burned into the images.
            manifest["mapping"] = {
                "region_blocks": mapping_cfg.region_blocks,
                "journal_blocks": mapping_cfg.journal_blocks,
            }
        with open(os.path.join(path, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        db = cls(driver, buffer_capacity, **pool_kwargs)
        db.path = path
        return db

    @classmethod
    def _open_existing(
        cls,
        path: str,
        buffer_capacity: int,
        spec: Optional[FlashSpec],
        n_shards: Optional[int],
        max_differential_size: Optional[int],
        read_cache_pages: int,
        parallel: bool,
        pool_kwargs: dict,
        driver_kwargs: dict,
        mapping_cache: Optional[int] = None,
        snapshot_interval: Optional[int] = None,
    ) -> "Database":
        with open(os.path.join(path, MANIFEST_NAME), encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("format") != MANIFEST_VERSION:
            raise BackendError(
                f"database at {path!r} has manifest format "
                f"{manifest.get('format')!r}, expected {MANIFEST_VERSION}"
            )
        stored_shards = int(manifest["n_shards"])
        stored_max_diff = int(manifest["max_differential_size"])
        stored_spec = FlashSpec(**manifest["spec"])
        router_kind = manifest.get("router", {}).get("kind")
        if router_kind != "hash":
            # Routing is deployment config the reopen path must honour;
            # silently defaulting would send pids to the wrong shards.
            raise ConfigurationError(
                f"database at {path!r} uses router kind {router_kind!r}; "
                "Database.open only supports 'hash' (use recover_all with "
                "an explicit router for custom partitions)"
            )
        if n_shards is not None and n_shards != stored_shards:
            raise ConfigurationError(
                f"database at {path!r} has {stored_shards} shards, "
                f"requested {n_shards}"
            )
        if max_differential_size is not None and max_differential_size != stored_max_diff:
            raise ConfigurationError(
                f"database at {path!r} uses Max_Differential_Size "
                f"{stored_max_diff}, requested {max_differential_size}"
            )
        if spec is not None and asdict(spec) != asdict(stored_spec):
            raise ConfigurationError(
                f"database at {path!r} was created with a different spec"
            )
        if "mapping" in driver_kwargs:
            raise ConfigurationError(
                "pass mapping_cache/snapshot_interval instead of a raw "
                "mapping= config: the region geometry comes from the manifest"
            )
        stored_mapping = manifest.get("mapping")
        if stored_mapping is not None:
            # The region layout is durable; cache size and snapshot
            # cadence are fresh runtime choices on every reopen.
            mapping_cfg = MappingConfig(
                region_blocks=int(stored_mapping["region_blocks"]),
                journal_blocks=int(stored_mapping["journal_blocks"]),
                cache_entries=mapping_cache if mapping_cache is not None else 0,
                snapshot_interval=(
                    snapshot_interval
                    if snapshot_interval is not None
                    else max(64, stored_spec.n_pages // 4)
                ),
            )
            driver_kwargs = {**driver_kwargs, "mapping": mapping_cfg}
        elif mapping_cache is not None or snapshot_interval is not None:
            raise ConfigurationError(
                f"database at {path!r} was created without the mapping "
                "tier; its region cannot be carved out after the fact"
            )
        chips = [
            FlashChip(
                stored_spec,
                backend=FileBackend.open(_shard_image(path, i), stored_spec),
                read_cache_pages=read_cache_pages,
            )
            for i in range(stored_shards)
        ]
        # Figure-11 recovery per shard; recover_* resumes timestamps.
        # A parallel open routes even a single shard through recover_all:
        # the one-worker array is what makes the driver safe for
        # concurrent client threads.
        if stored_shards == 1 and not parallel:
            from ..core.recovery import recover_driver

            driver, _report = recover_driver(
                chips[0], max_differential_size=stored_max_diff, **driver_kwargs
            )
        else:
            from ..sharding.recovery import recover_all

            driver, _reports = recover_all(
                chips,
                max_differential_size=stored_max_diff,
                parallel=parallel,
                **driver_kwargs,
            )
        db = cls.resume(
            driver, buffer_capacity, _allocation_horizon(driver), **pool_kwargs
        )
        db.path = path
        return db

    @staticmethod
    def _assemble(
        chips: List[FlashChip],
        n_shards: int,
        max_differential_size: int,
        parallel: "bool | str",
        driver_kwargs: dict,
    ) -> PageUpdateMethod:
        from ..sharding.driver import ShardedDriver
        from ..sharding.executor import InlineExecutor, ThreadExecutor

        if parallel == "process":
            # The freshly created images are handed to the workers,
            # which rebuild the per-shard PDL drivers from spawn-safe
            # recipes; the parent keeps no chip handles.
            from ..sharding.executor_proc import (
                ProcessShardExecutor,
                factories_from_chips,
            )

            return ShardedDriver(
                ProcessShardExecutor(
                    factories_from_chips(
                        chips, f"PDL ({max_differential_size}B)", driver_kwargs
                    )
                )
            )
        shards = [
            PdlDriver(chip, max_differential_size=max_differential_size, **driver_kwargs)
            for chip in chips
        ]
        if parallel:
            # Even one shard gains the executor's mailbox: all client
            # threads serialize through the worker, making the engine
            # safe for concurrent use.
            return ShardedDriver(ThreadExecutor(shards))
        if n_shards == 1:
            return shards[0]
        return ShardedDriver(InlineExecutor(shards))

    def close(self) -> None:
        """Flush everything durable, then release the device backends.

        Safe to call twice.  After ``close`` the database (and its
        driver) must not be used; reopen with :meth:`open`.
        """
        if self._closed:
            return
        try:
            self.flush()
        finally:
            # Even when the flush surfaces a write-back daemon error,
            # the daemon and the device backends must still be released
            # (the synchronous flush itself completed first).
            self.pool.close()  # stop the write-back daemon before the driver
            driver_close = getattr(self.driver, "close", None)
            if driver_close is not None:
                # Sharded drivers close their own chips; the parallel
                # driver additionally stops its worker pool.
                driver_close()
            else:
                for chip in _chips_of(self.driver):
                    chip.close()
            self._closed = True

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Page management
    # ------------------------------------------------------------------
    def allocate_page(self) -> Page:
        """Create a fresh, zero-filled logical page (dirty in the pool)."""
        with self._alloc_lock:
            pid = self._next_pid
            self._next_pid += 1
        return self.pool.create_page(pid, bytes(self.page_size))

    def page(self, pid: int) -> Page:
        """Fetch a page through the buffer pool.

        Raises :class:`UnallocatedPageError` (not a bare ``ValueError``)
        for ids outside the allocated space, so callers can tell a
        missing page apart from routing or mapping corruption below.
        """
        if not 0 <= pid < self._next_pid:
            raise UnallocatedPageError(
                f"logical page {pid} was never allocated "
                f"(allocation horizon is {self._next_pid})"
            )
        return self.pool.get_page(pid)

    @property
    def allocated_pages(self) -> int:
        return self._next_pid

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write back all dirty pages and the driver's buffers."""
        self.pool.flush_all()

    def fsck(self, repair: bool = True):
        """Scan the device(s) for single-page corruption and repair online.

        Dirty pages are flushed first so the scan sees the engine's full
        durable state, and the buffer pool's clean cache is dropped
        afterwards so no repaired (or lost) page is shadowed by a stale
        in-memory copy.  Returns a :class:`~repro.core.fsck.FsckReport`
        (merged across shards for sharded engines).
        """
        self.flush()
        report = self.driver.fsck(repair=repair)
        if repair:
            self.pool.clear()
        return report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def buffer_stats(self) -> BufferStats:
        return self.pool.stats

    def report(self) -> dict:
        """Merged flash + buffer-pool report (one dict for dashboards).

        Flash totals, stall tails and GC counters come from the driver's
        stats (an :class:`~repro.sharding.stats.AggregateStats` view is
        built for single-chip drivers), with the extended
        :class:`BufferStats` embedded under ``"buffer"``.
        """
        stats = self.driver.stats
        if not hasattr(stats, "report"):
            from ..sharding.stats import AggregateStats, PhaseStack

            chip_stats = stats
            stats = AggregateStats(lambda: [chip_stats], PhaseStack(), chip_stats.reset)
        return stats.report(buffer_stats=self.pool.stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Database pages={self._next_pid} buffer={self.pool.capacity} "
            f"driver={self.driver.name}>"
        )


def _allocation_horizon(driver: PageUpdateMethod) -> int:
    """Highest recovered pid + 1: the durable logical allocation horizon."""
    from ..sharding import ops
    from ..sharding.driver import ShardedDriver

    if isinstance(driver, ShardedDriver):
        return driver.allocation_horizon()
    return ops.horizon(driver)
