"""Metric definitions: names, units, clocks and regression bounds.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json``
declares; ``perfbench/tests`` keeps the two in step.  Clocks: ``host``
is wall time on the machine running the benchmark, ``sim`` is the
deterministic Table-1 flash clock, ``-`` marks a count or a ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    clock: str
    bound: Optional[float] = None
    #: Repeats exactly for one seed (the determinism self-check).
    deterministic: bool = False


END_TO_END = (
    # Median of 5 x (Database.open on an empty directory + initial load
    # + first flush, worker spawn included).
    Metric("setup_s", "s", "lower", "host", 0.25),
    # Logical ops completed / op time of the timed window.
    Metric("ops_per_s", "ops/s", "higher", "host", 0.25),
    # One db.page(pid).read().
    Metric("read_p50_us", "us", "lower", "host", 0.25),
    # As read_p50_us.
    Metric("read_p95_us", "us", "lower", "host", 0.25),
    # Page fetch + Page.write runs, synchronous eviction write-back
    # included.
    Metric("update_p50_us", "us", "lower", "host", 0.25),
    # As update_p50_us.
    Metric("update_p95_us", "us", "lower", "host", 0.25),
    # One Database.flush() (the durability ack) every 32 updates.
    Metric("commit_p50_us", "us", "lower", "host", 0.25),
    # As commit_p50_us.
    Metric("commit_p95_us", "us", "lower", "host", 0.25),
    # Database.open of a crashed image, mean over the run's restarts.
    Metric("restart_mean_ms", "ms", "lower", "host", 0.25),
    # Table-1 flash time charged by one restart, mean.
    Metric("restart_sim_ms", "ms", "lower", "sim", 0.25, True),
    # Table-1 flash time per op over the first pass (Figure 12's bar).
    Metric("sim_io_us_per_op", "us", "lower", "sim", 0.15, True),
    # Flash bytes programmed / user bytes changed, first pass.
    Metric("write_amp", "ratio", "lower", "-", 0.1, True),
    # (logical pages + differential pages) / logical pages after the
    # first pass.
    Metric("space_amp", "ratio", "lower", "-", 0.05, True),
    # Peak RSS of the benchmark process plus its worker processes, read
    # at the end of the first pass.
    Metric("rss_peak_mb", "MB", "lower", "host", 0.1),
)


def _layer(name, unit, better, clock, deterministic=False):
    return Metric(name, unit, better, clock, None, deterministic)


PER_LAYER = (
    # Buffer-pool hits / accesses, first pass.
    _layer("storage.pool_hit_ratio", "ratio", "higher", "-", True),
    # BufferManager.get_page self time per call.
    _layer("storage.get_page_self_us", "us", "lower", "host"),
    # BufferManager.flush_all self time per call.
    _layer("storage.flush_all_self_us", "us", "lower", "host"),
    # Synchronous eviction write-backs per op, first pass.
    _layer("storage.sync_writebacks_per_op", "count", "lower", "-", True),
    # The p99 client stall per eviction (the pool's own meter, untraced
    # first pass).
    _layer("storage.eviction_stall_p99_us", "us", "lower", "host"),
    # Concurrent-miss retries in the buffer pool, first pass.
    _layer("storage.read_races", "count", "lower", "-", True),
    # Facade read_page call time, worker wait included.
    _layer("sharding.read_page_us", "us", "lower", "host"),
    # Facade write_page call time (eviction write-back).
    _layer("sharding.write_page_us", "us", "lower", "host"),
    # Facade write_pages call time.
    _layer("sharding.write_pages_us", "us", "lower", "host"),
    # Facade group_flush call time.
    _layer("sharding.group_flush_us", "us", "lower", "host"),
    # Worker round trips per logical op, first pass.
    _layer("sharding.calls_per_op", "count", "lower", "-", True),
    # PdlDriver.read_page self time per call.
    _layer("core.read_page_self_us", "us", "lower", "host"),
    # PdlDriver.write_page self time per call.
    _layer("core.write_page_self_us", "us", "lower", "host"),
    # PdlDriver.write_pages self time per call.
    _layer("core.write_pages_self_us", "us", "lower", "host"),
    # PdlDriver.flush self time per call.
    _layer("core.flush_self_us", "us", "lower", "host"),
    # Time per find_differential call.
    _layer("core.find_differential_us", "us", "lower", "host"),
    # Differential.from_pages time per call.
    _layer("core.diff_from_pages_us", "us", "lower", "host"),
    # Chip reads issued directly by one PdlDriver.read_page, first pass.
    _layer("core.flash_reads_per_read", "count", "lower", "-", True),
    # Case-3 (new base page) reflections / all reflections, first pass.
    _layer("core.case3_ratio", "ratio", "lower", "-", True),
    # Differential write-buffer flushes per 1000 ops, first pass.
    _layer("core.buffer_flushes_per_kop", "count", "lower", "-", True),
    # GarbageCollector.collect/step self time per call.
    _layer("ftl.gc_self_us", "us", "lower", "host"),
    # The p99.9 GC time absorbed by one driver write, first pass (p99 reads
    # 0: under 1 % of writes absorb a collection).
    _layer("ftl.write_stall_sim_p999_us", "us", "lower", "sim", True),
    # Block erases per 1000 ops, first pass.
    _layer("ftl.erases_per_kop", "count", "lower", "-", True),
    # Valid pages copied per reclaimed block (wasted work), first pass.
    _layer("ftl.relocations_per_erase", "count", "lower", "-", True),
    # MappingStore.tick self time per call.
    _layer("ext.tick_self_us", "us", "lower", "host"),
    # Mapping lookups served from RAM / lookups, first pass.
    _layer("ext.mapping_hit_ratio", "ratio", "higher", "-", True),
    # Mapping pages demand-paged in per op, first pass.
    _layer("ext.mapping_misses_per_op", "count", "lower", "-", True),
    # Mapping-region page programs per op, first pass.
    _layer("ext.mapping_writebacks_per_op", "count", "lower", "-", True),
    # Journal records replayed per restart (RecoveryReport).
    _layer("ext.restart_journal_records", "count", "lower", "-", True),
    # Tail pages scanned per restart (RecoveryReport).
    _layer("ext.restart_tail_pages", "count", "lower", "-", True),
    # Pages scanned per restart (RecoveryReport).
    _layer("ext.restart_pages_scanned", "count", "lower", "-", True),
    # Restarts that fell back to the full Figure-11 scan.
    _layer("ext.restart_fallbacks", "count", "lower", "-", True),
    # FlashChip.read_page/read_pages self time per call.
    _layer("flash.read_self_us", "us", "lower", "host"),
    # FlashChip.program_page/program_pages self time per call.
    _layer("flash.program_self_us", "us", "lower", "host"),
    # FlashChip.erase_block self time per call.
    _layer("flash.erase_self_us", "us", "lower", "host"),
    # FileBackend call time per call.
    _layer("flash.backend_us", "us", "lower", "host"),
    # Table-1 page reads per op, first pass.
    _layer("flash.reads_per_op", "count", "lower", "-", True),
    # Table-1 page programs (obsolete marks included) per op, first
    # pass.
    _layer("flash.programs_per_op", "count", "lower", "-", True),
    # Table-1 block erases per op, first pass.
    _layer("flash.erases_per_op", "count", "lower", "-", True),
    # Spare-area checksum verifications per op, first pass.
    _layer("flash.checksum_checks_per_op", "count", "lower", "-", True),
    # Tracing overhead: traced ops_per_s minus untraced ops_per_s.
    _layer("trace.ops_per_s_delta", "ops/s", "higher", "host"),
    # Share of traced op time covered by layer spans.
    _layer("trace.span_coverage", "ratio", "higher", "host"),
)


def deterministic_names() -> Sequence[str]:
    return [m.name for m in END_TO_END + PER_LAYER if m.deterministic]


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sequence (0 if empty)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]
