"""Aggregated accounting across the chips of a sharded deployment.

:class:`AggregateStats` presents N per-chip :class:`FlashStats` as one —
the same read surface (``totals``, ``of_phase``, ``snapshot`` /
``delta_since``, ``reset``) the single-chip experiment code already
uses, so the workload runner and benchmarks measure a
:class:`~repro.sharding.driver.ShardedDriver` without special-casing.

Two *simulated* time metrics matter for a multi-chip array:

* **serial time** — the sum of all chips' busy time: total device work,
  what a single chip would have taken.  This is what the merged phase
  counters report, consistent with :class:`FlashStats`.
* **parallel time** — the busy time of the *busiest* chip: elapsed
  time with the chips serving their queues concurrently, the paper's
  simulated-I/O-time metric generalized to an array.  Exposed via
  :meth:`chip_clocks` (per-chip monotonic clocks); the scaling
  benchmark reports ``max(clock deltas)`` as the parallel cost.

Under the thread and process executors the parallel model is no longer
only simulated: shards really execute concurrently, and
``measure_sharded_updates`` reports measured wall-clock time next to
these simulated metrics so the model can be validated
(``benchmarks/bench_parallel.py``; see ``docs/concurrency.md``).  The
per-shard collectors merged here double as the per-worker accumulators —
each :class:`FlashStats` is mutated only by its shard's single owner
(the caller, a worker thread, or a worker process whose collector the
façade fetches), and every aggregate property below merges them on
read.

A façade's phases live in one :class:`PhaseStack` owned by its executor:
``driver.stats.phase(name)`` pushes there, on the caller's thread, and
the executor re-pushes the innermost name on the shard's own collector
around every op it runs, wherever that op runs.

``block_erases`` concatenates the shards' per-block wear counters in
shard order, so wear reports and Figure-16-style histograms extend to
arrays unchanged.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence

from ..flash.stats import (
    FlashStats,
    OpCounts,
    StatsSnapshot,
    _PhaseScope,
    percentile,
)


class PhaseStack(threading.local):
    """Per thread: the phase names pushed through a façade's stats view."""

    def __init__(self) -> None:
        self.names: List[str] = []

    @property
    def current(self) -> Optional[str]:
        """The innermost pushed phase, or ``None`` outside any."""
        names = self.names
        return names[-1] if names else None


class AggregateStats:
    """A read-mostly merged view over per-shard :class:`FlashStats`.

    ``collectors`` returns the per-shard collectors; it is called on the
    first counter read, so a view used only for :meth:`phase` or
    :meth:`reset` never fetches a process worker's stats.  ``phases`` is
    the owning façade's :class:`PhaseStack` and ``reset`` its way of
    clearing the collectors where they live.
    """

    def __init__(
        self,
        collectors: Callable[[], Sequence[FlashStats]],
        phases: PhaseStack,
        reset: Callable[[], None],
    ):
        self._collectors = collectors
        self._fetched: Optional[List[FlashStats]] = None
        self._phases = phases
        self._reset = reset

    @property
    def _shards(self) -> List[FlashStats]:
        if self._fetched is None:
            self._fetched = list(self._collectors())
        return self._fetched

    # ------------------------------------------------------------------
    # Phase management (for cross-shard work such as the initial bulk
    # load or a group flush)
    # ------------------------------------------------------------------
    def phase(self, name: str) -> _PhaseScope:
        return _PhaseScope(self._phases.names, name)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def phases(self) -> Dict[str, OpCounts]:
        """Per-phase counters summed over all shards.

        Iterates each shard's locked :meth:`FlashStats.phase_items`
        snapshot, so a monitoring thread never races a worker creating
        its first bucket for a phase name.
        """
        merged: Dict[str, OpCounts] = {}
        for stats in self._shards:
            for name, counts in stats.phase_items():
                merged[name] = merged.get(name, OpCounts()).add(counts)
        return merged

    @property
    def block_erases(self) -> List[int]:
        """Per-block erase counts, shards concatenated in order."""
        flat: List[int] = []
        for stats in self._shards:
            flat.extend(stats.block_erases)
        return flat

    def totals(self) -> OpCounts:
        total = OpCounts()
        for stats in self._shards:
            total = total.add(stats.totals())
        return total

    def of_phase(self, name: str) -> OpCounts:
        total = OpCounts()
        for stats in self._shards:
            total = total.add(stats.of_phase(name))
        return total

    @property
    def total_time_us(self) -> float:
        return self.totals().time_us

    @property
    def total_erases(self) -> int:
        return self.totals().erases

    def per_shard(self) -> List[FlashStats]:
        """The underlying per-shard collectors (read-only use)."""
        return list(self._shards)

    # ------------------------------------------------------------------
    # GC / write-stall aggregation
    # ------------------------------------------------------------------
    @property
    def write_stall_us(self) -> List[float]:
        """Per-write GC stall samples pooled across all shards."""
        merged: List[float] = []
        for stats in self._shards:
            merged.extend(stats.write_stall_us)
        return merged

    def write_stall_percentile(self, pct: float) -> float:
        """Nearest-rank stall percentile over the pooled samples — the
        array-level tail, since a client write lands on exactly one
        shard and stalls only on that shard's collector."""
        return percentile(self.write_stall_us, pct)

    @property
    def max_write_stall_us(self) -> float:
        return max((s.max_write_stall_us for s in self._shards), default=0.0)

    @property
    def gc_steps(self) -> int:
        return sum(stats.gc_steps for stats in self._shards)

    @property
    def gc_step_pages(self) -> int:
        return sum(stats.gc_step_pages for stats in self._shards)

    # ------------------------------------------------------------------
    # Read-cache aggregation
    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return sum(stats.cache_hits for stats in self._shards)

    @property
    def cache_misses(self) -> int:
        return sum(stats.cache_misses for stats in self._shards)

    @property
    def cache_hit_ratio(self) -> float:
        accesses = self.cache_hits + self.cache_misses
        return self.cache_hits / accesses if accesses else 0.0

    # ------------------------------------------------------------------
    # Integrity aggregation
    # ------------------------------------------------------------------
    @property
    def checksum_checks(self) -> int:
        return sum(stats.checksum_checks for stats in self._shards)

    @property
    def checksum_failures(self) -> int:
        return sum(stats.checksum_failures for stats in self._shards)

    # ------------------------------------------------------------------
    # Mapping-tier aggregation (demand-paged translation cache)
    # ------------------------------------------------------------------
    @property
    def mapping_hits(self) -> int:
        return sum(stats.mapping_hits for stats in self._shards)

    @property
    def mapping_misses(self) -> int:
        return sum(stats.mapping_misses for stats in self._shards)

    @property
    def mapping_writebacks(self) -> int:
        return sum(stats.mapping_writebacks for stats in self._shards)

    @property
    def mapping_hit_ratio(self) -> float:
        lookups = self.mapping_hits + self.mapping_misses
        return self.mapping_hits / lookups if lookups else 0.0

    # ------------------------------------------------------------------
    # Merged reporting (flash totals + optional buffer-pool counters)
    # ------------------------------------------------------------------
    def report(self, buffer_stats=None) -> Dict[str, object]:
        """One dict with the array's flash totals and tail metrics.

        ``buffer_stats`` — a
        :class:`~repro.storage.bufferpool.stats.BufferStats` — embeds
        the buffer-pool view under ``"buffer"``, so a workload report
        shows cache behaviour, write-back activity and eviction stalls
        next to the device traffic they caused (the Experiment-7
        coupling, as one artifact).
        """
        totals = self.totals()
        out: Dict[str, object] = {
            "n_shards": len(self._shards),
            "reads": totals.reads,
            "writes": totals.writes,
            "erases": totals.erases,
            "io_time_us": totals.time_us,
            "write_stall_p99_us": self.write_stall_percentile(99),
            "write_stall_max_us": self.max_write_stall_us,
            "gc_steps": self.gc_steps,
            "gc_step_pages": self.gc_step_pages,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "checksum_checks": self.checksum_checks,
            "checksum_failures": self.checksum_failures,
            "mapping_hits": self.mapping_hits,
            "mapping_misses": self.mapping_misses,
            "mapping_writebacks": self.mapping_writebacks,
        }
        if buffer_stats is not None:
            out["buffer"] = buffer_stats.as_dict()
        return out

    # ------------------------------------------------------------------
    # Snapshots (the steady-state measurement window protocol)
    # ------------------------------------------------------------------
    def snapshot(self) -> StatsSnapshot:
        return StatsSnapshot(
            phases={name: counts.copy() for name, counts in self.phases.items()},
            block_erases=self.block_erases,
        )

    def delta_since(self, snap: StatsSnapshot) -> StatsSnapshot:
        phases: Dict[str, OpCounts] = {}
        for name, counts in self.phases.items():
            before = snap.phases.get(name, OpCounts())
            diff = counts.sub(before)
            if diff.total_ops or diff.time_us:
                phases[name] = diff
        erases = [
            now - then for now, then in zip(self.block_erases, snap.block_erases)
        ]
        return StatsSnapshot(phases=phases, block_erases=erases)

    def reset(self) -> None:
        self._reset()
        self._fetched = None
