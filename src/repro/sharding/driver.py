"""The sharded multi-chip driver: N page-update methods behind one façade.

:class:`ShardedDriver` implements the :class:`PageUpdateMethod` contract
over a fleet of per-shard drivers, each owning its own chip, allocator,
GC engine and (for PDL) differential write buffer.  A
:class:`~repro.sharding.router.ShardRouter` decides which shard owns
each logical page; shard drivers index their tables by the *global* pid,
so no id translation happens anywhere — the router is the only routing
state, which is what keeps recovery trivial (rebuild each shard, reuse
the router).

Because every shard is an independent device with its own free-space
pool, sharding multiplies the paper's mechanisms for free:

* **GC parallelism** — each shard reclaims its own blocks; a GC storm on
  one shard never stalls traffic routed to the others;
* **recovery parallelism** — the Figure-11 scan is per-chip, so an
  N-shard array recovers in the wall-clock time of one shard's scan;
* **group flush** — the Section-4.5 write-through generalizes to
  :meth:`group_flush`, which drains every shard's differential write
  buffer in one batched call, the natural commit point for a DBMS
  checkpoint running above the array.

The façade owns routing, per-shard batching and every report; *where*
shard work runs is its executor's business.  Each shard call is a
module-level op from :mod:`repro.sharding.ops`, handed to one of three
executors: :class:`~repro.sharding.executor.InlineExecutor` (the calling
thread, one shard after another — ``"... xN"``),
:class:`~repro.sharding.executor.ThreadExecutor` (a worker thread per
shard — ``"... xN par"``) or
:class:`~repro.sharding.executor_proc.ProcessShardExecutor` (a worker
process per shard — ``"... xN proc"``).  See ``docs/concurrency.md`` for
the execution model and how the two time metrics relate.

The driver is method-agnostic: any mix of PDL/OPU/IPU/IPL shards built
by :func:`repro.methods.make_method` works, although homogeneous fleets
(the ``"PDL (256B) x4"`` labels) are the measured configuration.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..flash.spec import FlashSpec
from ..ftl.base import ChangeRun, PageUpdateMethod
from ..ftl.errors import ConfigurationError
from . import ops
from .router import HashRouter, ShardRouter
from .stats import AggregateStats


def _logs_of(group, update_logs) -> Optional[Dict[int, List[ChangeRun]]]:
    """The update logs of one shard's slice of a batch."""
    if update_logs is None:
        return None
    return {pid: update_logs[pid] for pid, _ in group if pid in update_logs}


class ShardedDriver(PageUpdateMethod):
    """A :class:`PageUpdateMethod` routing pages across shard drivers.

    ``executor`` runs the shard ops.  The façade owns it: :meth:`close`
    shuts it down, and so does a failed construction.
    """

    def __init__(self, executor, router: Optional[ShardRouter] = None):
        # No super().__init__: there is no single chip; spec/stats/page_size
        # are overridden below instead.
        self.executor = executor
        meta = executor.meta
        try:
            self.router = router if router is not None else HashRouter(len(meta))
            if self.router.n_shards != len(meta):
                raise ConfigurationError(
                    f"router partitions {self.router.n_shards} shards but "
                    f"{len(meta)} shard drivers were supplied"
                )
            sizes = {m["page_size"] for m in meta}
            if len(sizes) != 1:
                raise ConfigurationError(
                    f"shards disagree on logical page size: {sorted(sizes)}"
                )
        except BaseException:
            executor.shutdown()
            raise
        self._meta = meta
        self.name = f"{meta[0]['name']} x{len(meta)}{executor.suffix}"
        self.tightly_coupled = any(m["tightly_coupled"] for m in meta)
        self.group_flushes = 0
        #: Guards ``group_flushes`` against racing client threads.
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_index(self, pid: int) -> int:
        """The shard index owning ``pid`` (validated against the fleet)."""
        index = self.router.shard_of(pid)
        if not 0 <= index < len(self._meta):
            raise ConfigurationError(
                f"router sent pid {pid} to shard {index} of {len(self._meta)}"
            )
        return index

    @property
    def shards(self) -> List[PageUpdateMethod]:
        """The shard drivers (in-process executors only)."""
        return self.executor.shards

    def shard_for(self, pid: int) -> PageUpdateMethod:
        return self.shards[self.shard_index(pid)]

    def _split(self, pages) -> Dict[int, List]:
        """Group ``(pid, data)`` pairs by owning shard, keeping order."""
        per_shard: Dict[int, List] = {}
        for pid, data in pages:
            per_shard.setdefault(self.shard_index(pid), []).append((pid, data))
        return per_shard

    # ------------------------------------------------------------------
    # PageUpdateMethod contract
    # ------------------------------------------------------------------
    def load_page(self, pid: int, data: bytes) -> None:
        self.executor.run(self.shard_index(pid), ops.load_page, pid, data)

    def end_of_load(self) -> None:
        self.executor.broadcast(ops.end_of_load)

    def read_page(self, pid: int) -> bytes:
        return self.executor.run(self.shard_index(pid), ops.read_page, pid)

    def write_page(
        self, pid: int, data: bytes, update_logs: Optional[List[ChangeRun]] = None
    ) -> None:
        self.executor.run(self.shard_index(pid), ops.write_page, pid, data, update_logs)

    def load_pages(self, pages) -> None:
        """Bulk-load a batch by fanning it out shard-by-shard.

        Each shard receives its members of the batch in order and loads
        them through its own batched path (PDL shards program a whole
        allocation block per chip call).
        """
        per_shard = self._split(pages)
        self.executor.fan_out(
            [(index, ops.load_pages, (group,)) for index, group in sorted(per_shard.items())]
        )

    def write_pages(self, pages, update_logs=None) -> None:
        """Reflect a batch shard-by-shard (the sharded buffer-pool flush).

        Pages owned by the same shard keep their relative order;
        cross-shard order is immaterial because shards are independent
        devices.  Each shard sees one batched call, so per-shard batching
        (PDL's prefetched base reads) still applies.
        """
        per_shard = self._split(pages)
        self.executor.fan_out(
            [
                (index, ops.write_pages, (group, _logs_of(group, update_logs)))
                for index, group in sorted(per_shard.items())
            ]
        )

    def flush(self) -> None:
        """Write-through over the whole array (see :meth:`group_flush`)."""
        self.group_flush()

    def group_flush(self, pages=None, update_logs=None) -> None:
        """Batched flush: drain every shard's buffers in one call.

        All shards flush before control returns, so a caller observing
        the return has a single durability horizon across the array —
        the sharded generalization of Section 4.5's write-through.  The
        flushes are independent per-chip programs: the inline executor
        runs them one after another (simulated parallel time is still
        the slowest shard's share), the thread and process executors
        overlap them in wall-clock time.

        ``pages`` (with optional ``update_logs``) is the buffer-pool
        flush entry point: each shard's slice of the batch is written
        and its buffers drained in one shard op, so a pool's
        ``flush_all`` is one fan-out instead of a ``write_pages``
        followed by a separate flush sweep.  Per-shard operation order
        is identical to the two-call sequence (writes, then flush).
        """
        if pages is None:
            self.executor.broadcast(ops.flush)
        else:
            per_shard = self._split(pages)
            calls = []
            for index in range(len(self._meta)):
                group = per_shard.get(index, [])
                calls.append(
                    (index, ops.write_then_flush, (group, _logs_of(group, update_logs)))
                )
            self.executor.fan_out(calls)
        with self._counter_lock:
            self.group_flushes += 1

    # ------------------------------------------------------------------
    # Aggregated introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._meta)

    @property
    def chips(self):
        """The shard chips (in-process executors only)."""
        return self.executor.chips

    @property
    def spec(self) -> FlashSpec:
        """The per-shard chip spec (shards share one geometry in practice)."""
        return self._meta[0]["spec"]

    @property
    def stats(self) -> AggregateStats:  # type: ignore[override]
        """Merged view over the per-shard collectors: live objects under
        in-process executors, fetched (or, after shutdown, snapshotted)
        copies under the process executor, taken on the view's first
        counter read."""
        executor = self.executor
        return AggregateStats(
            lambda: executor.inspect(ops.stats),
            executor.phases,
            lambda: executor.broadcast(ops.reset_stats),
        )

    @property
    def page_size(self) -> int:
        return self._meta[0]["page_size"]

    @property
    def effective_max(self) -> Optional[int]:
        """A representative shard's PDL Case-3 horizon (``None`` for
        non-PDL shards); shards age independently but identically."""
        return self._meta[0]["effective_max"]

    @property
    def total_blocks(self) -> int:
        """Erase blocks across the whole array (capacity planning, GC
        steady-state targets)."""
        return sum(m["spec"].n_blocks for m in self._meta)

    # ------------------------------------------------------------------
    # Lifecycle (persistent backends)
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Push every shard chip's backend to durable media."""
        self.executor.broadcast(ops.sync)

    def close(self) -> None:
        """Close every shard chip, then shut the executor down.

        Closing is not flushing: whatever a shard still buffers (PDL's
        differential write buffer) is lost, as on a crash.  Every chip
        is attempted even when one fails; the first error is re-raised.
        An executor already shut down closed its chips on the way out.
        """
        try:
            if not self.executor.is_shutdown:
                self.executor.broadcast(ops.close)
        finally:
            self.executor.shutdown()

    def chip_clocks(self) -> List[float]:
        """Each shard chip's monotonic clock; ``max`` of window deltas is
        the array's parallel elapsed time."""
        return self.executor.inspect(ops.clock)

    def gc_report(self) -> Dict[str, object]:
        """Aggregated space-management health across the array.

        Per shard: completed collections, pages relocated, incremental
        steps taken, current GC debt (blocks below the trigger level,
        in-flight victim included) and cumulative reclamation time.
        Array-wide: the same counters summed, plus the pooled per-write
        stall tail (p99 / max) — the number incremental GC exists to
        shrink.  Shards without a pluggable collector (e.g. IPU) report
        ``None``.
        """
        per_shard = self.executor.inspect(ops.gc_info)
        present = [entry for entry in per_shard if entry is not None]
        stats = self.stats
        return {
            "per_shard": per_shard,
            "total_collections": sum(e["collections"] for e in present),
            "total_pages_relocated": sum(e["pages_relocated"] for e in present),
            "total_incremental_steps": sum(e["incremental_steps"] for e in present),
            "total_debt_blocks": sum(e["debt_blocks"] for e in present),
            "write_stall_p99_us": stats.write_stall_percentile(99),
            "write_stall_max_us": stats.max_write_stall_us,
        }

    def wear_report(self) -> Dict[str, object]:
        """Aggregated wear: per-shard erase totals and worst block."""
        shard_stats = self.executor.inspect(ops.stats)
        per_shard = [stats.total_erases for stats in shard_stats]
        worst = max(
            (max(stats.block_erases, default=0) for stats in shard_stats),
            default=0,
        )
        return {
            "per_shard_erases": per_shard,
            "total_erases": sum(per_shard),
            "max_block_erases": worst,
        }

    def fsck(self, repair: bool = True):
        """Run :func:`repro.core.fsck.fsck_driver` over every shard.

        Returns one merged :class:`~repro.core.fsck.FsckReport` whose
        ``per_shard`` list holds the individual shard reports (in shard
        order; shards without an fsck-capable driver contribute an empty
        report).  Each scan runs where its shard lives (the
        single-writer invariant covers fsck's repair writes too), so a
        parallel array fscks in the wall-clock time of its slowest shard.
        """
        from ..core.fsck import FsckReport

        return FsckReport.merge(self.executor.broadcast(ops.fsck, repair))

    def differential_page_count(self) -> int:
        """Referenced differential pages, summed over PDL shards."""
        return sum(self.executor.inspect(ops.differential_pages))

    def allocation_horizon(self) -> int:
        """Highest mapped pid + 1 across all shards (post-recovery)."""
        return max(self.executor.inspect(ops.horizon), default=0)

    def dump_images(self) -> List[Dict[str, object]]:
        """Per-shard flash images (equivalence testing)."""
        return self.executor.broadcast(ops.dump_image)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardedDriver {self.name!r} router={type(self.router).__name__} "
            f"shards={self.n_shards}>"
        )
