"""Sharded multi-chip storage: scale PDL across independent flash devices.

The paper's driver is DBMS-independent so it can sit below any
page-oriented engine; this package makes it *device-count independent*
too.  A :class:`ShardedDriver` presents N per-shard drivers (each with
its own chip, allocator, GC and write buffer) as one
:class:`~repro.ftl.base.PageUpdateMethod`; a :class:`ShardRouter`
partitions the logical page space; :func:`recover_all` rebuilds every
shard's mapping tables after a crash.

* :mod:`repro.sharding.router` — hash and range partitioning, pluggable.
* :mod:`repro.sharding.driver` — the one façade: routing, batched group
  flush, fsck fan-out, aggregated stats, GC and wear reporting.
* :mod:`repro.sharding.ops` — every shard call as a module-level,
  picklable op ``op(shard_driver, *args)``.
* :mod:`repro.sharding.executor` — where the ops run in-process: on the
  calling thread (:class:`InlineExecutor`, the serial ``xN`` array) or
  on a single-writer worker thread per shard (:class:`ThreadExecutor`
  over a :class:`ShardExecutor` pool, ``xN par``; see
  ``docs/concurrency.md``).
* :mod:`repro.sharding.executor_proc` — process-per-shard execution
  past the GIL: spawn-safe :class:`ShardFactory` recipes and a
  :class:`ProcessShardExecutor` with shared-memory page frames
  (``xN proc``).
* :mod:`repro.sharding.stats` — merged :class:`FlashStats` view plus
  per-chip clocks for serial-vs-parallel time accounting.
* :mod:`repro.sharding.recovery` — per-shard Figure-11 scans composed
  into array recovery (optionally scanning all shards concurrently).

Build sharded configurations from paper-style labels::

    from repro.flash.chip import FlashChip
    from repro.flash.spec import FlashSpec
    from repro.methods import make_method

    chips = [FlashChip(FlashSpec(n_blocks=64)) for _ in range(4)]
    driver = make_method("PDL (256B) x4", chips)
"""

from .driver import ShardedDriver
from .executor import InlineExecutor, ShardExecutor, ThreadExecutor
from .executor_proc import ProcessShardExecutor, ShardFactory
from .recovery import recover_all
from .router import HashRouter, RangeRouter, ShardRouter, make_router
from .stats import AggregateStats

__all__ = [
    "AggregateStats",
    "HashRouter",
    "InlineExecutor",
    "ProcessShardExecutor",
    "RangeRouter",
    "ShardExecutor",
    "ShardFactory",
    "ShardRouter",
    "ShardedDriver",
    "ThreadExecutor",
    "make_router",
    "recover_all",
]
