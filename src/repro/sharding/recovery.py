"""Sharded crash recovery: rebuild every shard's tables, reuse the router.

After a power failure the array's volatile state — every shard's
physical page mapping table, valid differential count table, allocator
pools and write buffer — is gone.  :func:`recover_all` runs Figure 11's
single-chip reconstruction (:func:`repro.core.recovery.recover_driver`)
over each chip independently and reassembles a working
:class:`~repro.sharding.driver.ShardedDriver` on top.

Two properties make this composition sound:

* shard drivers index their tables by *global* pid, so a shard's scan
  rebuilds exactly the entries the router will route back to it — no
  cross-shard reconciliation is needed;
* the router must be the **same stable partition** used before the
  crash (same kind, same shard count, same parameters).  Routing is
  pure configuration, not state, so callers persist it as part of
  deployment config rather than on flash.

The per-chip scans are independent (each reads only its own chip), so
they can run concurrently: ``recover_all(..., parallel=True)`` executes
the Figure-11 scans on one worker thread per shard and keeps those
workers as the returned array's
:class:`~repro.sharding.executor.ThreadExecutor`, making the
1/N-of-~60 s/GB recovery estimate a *measured* wall-clock property
rather than a modeling claim (``benchmarks/bench_parallel.py`` records
the serial-vs-threaded scan times; see ``docs/concurrency.md``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from ..core.recovery import RecoveryReport, recover_driver
from ..flash.chip import FlashChip
from ..ftl.errors import ConfigurationError
from .driver import ShardedDriver
from .executor import InlineExecutor, ShardExecutor, ThreadExecutor
from .router import ShardRouter


def recover_all(
    chips: Sequence[FlashChip],
    router: Optional[ShardRouter] = None,
    max_differential_size: int = 256,
    parallel: Union[bool, str] = False,
    **driver_kwargs,
) -> Tuple[ShardedDriver, List[RecoveryReport]]:
    """Rebuild a sharded PDL array from post-crash flash contents.

    ``chips`` are the shard chips in shard order; ``router`` must match
    the pre-crash partition (defaults to :class:`HashRouter` over
    ``len(chips)`` shards, the :func:`repro.methods.make_method`
    default).  Remaining keyword arguments are forwarded to each
    shard's :func:`recover_driver` (e.g. ``coalesce_gap``,
    ``victim_policy``).

    With ``parallel=True`` (or ``parallel="thread"``) the per-shard
    scans run concurrently on a
    :class:`~repro.sharding.executor.ShardExecutor` (one worker per
    chip — each scan reads and heals only its own device, so the scans
    share nothing), and the worker pool is kept as the returned array's
    :class:`~repro.sharding.executor.ThreadExecutor`.

    With ``parallel="process"`` each scan runs inside its own spawned
    worker process over a *reopened* file image (the parent's chip
    handles are closed here and must not be used again), and the
    workers become the array's
    :class:`~repro.sharding.executor_proc.ProcessShardExecutor` — the
    GIL-free variant; memory-backed chips are rejected because a worker
    cannot see parent memory.

    Every mode returns the same :class:`ShardedDriver` façade.

    Returns the operational driver plus one :class:`RecoveryReport` per
    shard, in shard order.
    """
    chips = list(chips)
    if not chips:
        raise ConfigurationError("recover_all needs at least one chip")
    if router is not None and router.n_shards != len(chips):
        raise ConfigurationError(
            f"router partitions {router.n_shards} shards but {len(chips)} "
            "chips were supplied"
        )
    if parallel == "process":
        from .executor_proc import (
            ProcessShardExecutor,
            recovery_factories_from_chips,
        )

        executor = ProcessShardExecutor(
            recovery_factories_from_chips(chips, max_differential_size, driver_kwargs)
        )
        reports = [meta["report"] for meta in executor.meta]
    elif parallel:
        pool = ShardExecutor(len(chips))
        try:
            recovered = pool.map(
                [
                    (
                        i,
                        lambda c=chip: recover_driver(
                            c,
                            max_differential_size=max_differential_size,
                            **driver_kwargs,
                        ),
                    )
                    for i, chip in enumerate(chips)
                ]
            )
        except BaseException:
            pool.shutdown()
            raise
        reports = [report for _driver, report in recovered]
        executor = ThreadExecutor([driver for driver, _report in recovered], pool)
    else:
        recovered = [
            recover_driver(chip, max_differential_size=max_differential_size, **driver_kwargs)
            for chip in chips
        ]
        reports = [report for _driver, report in recovered]
        executor = InlineExecutor([driver for driver, _report in recovered])
    return ShardedDriver(executor, router), reports
