"""Replay one workload through ``repro.storage.Database`` and check it.

:class:`WorkloadRun` is one client in one process, a closed loop: the
next op starts when the previous one returns.  It

* sets the database up several times (``setup_s`` is the median);
* replays the seeded stream, timing each read, update and commit, and
  compares every read with the stream's shadow image;
* crashes the database on the workload's schedule — it abandons the
  ``Database`` without ``close()``, which discards the dirty frames and
  the PDL write buffer — reopens it from the image files alone, checks
  that every page reads back its last committed image (or a newer one),
  and re-submits the updates the crash left unacknowledged;
* after the window, commits, closes and reopens the database and
  compares every page it reads back from storage with
  ``ScenarioStream.expected_images()`` over the ops it executed.

Any op that raises, returns wrong bytes or loses an acknowledged write
counts as failed.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from array import array
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pdl import PdlDriver
from repro.ftl.base import apply_runs
from repro.scenarios import ResolvedOp, ScenarioStream
from repro.storage import Database
from repro.workloads.patterns import READ

from .calibrate import Calibrator, child_pids, timed
from .metrics import percentile
from .tracer import SpanTable, Tracer
from .workloads import COMMIT_EVERY, PAGE_SIZE, Workload

#: Setup repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Op time between two reference-kernel samples of the timed window.
SLICE_NS = 50_000_000


def _shard_stats(driver) -> list:
    per_shard = getattr(driver.stats, "per_shard", None)
    return per_shard() if per_shard is not None else [driver.stats]


def _read_counters(db: Database) -> Tuple[Counter, List[List[float]]]:
    """Cumulative engine counters of one database incarnation, plus the
    per-shard GC write-stall samples (simulated µs)."""
    counters: Counter = Counter()
    shard_stats = _shard_stats(db.driver)
    for stats in shard_stats:
        totals = stats.totals()
        counters["sim_us"] += totals.time_us
        counters["reads"] += totals.reads
        counters["writes"] += totals.writes
        counters["erases"] += totals.erases
        counters["checksum_checks"] += stats.checksum_checks
        counters["mapping_hits"] += stats.mapping_hits
        counters["mapping_misses"] += stats.mapping_misses
        counters["mapping_writebacks"] += stats.mapping_writebacks
    pool = db.pool.stats
    counters["pool_hits"] = pool.hits
    counters["pool_misses"] = pool.misses
    counters["sync_writebacks"] = pool.sync_writebacks
    counters["read_races"] = pool.read_races
    counters["evictions"] = pool.evictions
    driver = db.driver
    if isinstance(driver, PdlDriver):
        for case, count in driver.case_counts.items():
            counters[f"case{case}"] = count
        counters["buffer_flushes"] = driver.buffer_flushes
        counters["gc_collections"] = driver.gc.collections
        counters["gc_relocated"] = driver.gc.pages_relocated
    else:
        gc = driver.gc_report()
        counters["gc_collections"] = gc["total_collections"]
        counters["gc_relocated"] = gc["total_pages_relocated"]
    stalls = [list(stats.write_stall_us) for stats in shard_stats]
    return counters, stalls


class Meter:
    """Engine counters summed over the first pass, across restarts
    (each reopen builds fresh counters, so every incarnation is metered
    from its own baseline)."""

    def __init__(self) -> None:
        self.totals: Counter = Counter()
        self.stalls: List[float] = []
        self.eviction_stalls: List[float] = []
        self._base: Optional[Tuple[Counter, List[List[float]]]] = None
        self._evictions_base = 0

    @property
    def active(self) -> bool:
        return self._base is not None

    def start(self, db: Database) -> None:
        self._base = _read_counters(db)
        self._evictions_base = db.pool.stats.eviction_stalls.count

    def stop(self, db: Database) -> None:
        assert self._base is not None
        base_counters, base_stalls = self._base
        counters, stalls = _read_counters(db)
        counters.subtract(base_counters)
        self.totals.update(counters)
        for now, before in zip(stalls, base_stalls):
            self.stalls.extend(now[len(before):])
        self.eviction_stalls.extend(
            db.pool.stats.eviction_stalls.samples[self._evictions_base:]
        )
        self._base = None


def _abandon(db: Database) -> None:
    """Crash: release the device handles without flushing anything above
    the device.  Dirty frames, the PDL write buffer and uncommitted
    mapping-journal records are lost; bytes already handed to the OS
    stay, as after a process crash."""
    db.pool.close()
    close = getattr(db.driver, "close", None)
    if close is not None:
        close()  # sharded drivers: close each chip (no driver flush)
    else:
        db.driver.chip.close()


def pin_to_one_cpu() -> None:
    """Run this process, and every worker it spawns later, on one CPU.

    On a small virtual machine a wake-up that crosses to another,
    idle virtual CPU costs 1-5 ms at random moments; with the process
    executor every op is such a hand-off, and identical runs differed
    2.4x in throughput.  Pinned, the hand-off is a context switch on
    one CPU (the shard workers keep their own processes, but a group
    flush no longer overlaps them)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its direct children, in MB."""
    pids = [os.getpid()] + child_pids()
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue  # a child that already exited
    return total_kb / 1024.0


class WorkloadRun:
    """One seeded run of one workload (see the module docstring)."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        workdir: str,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.workload = workload
        self.workdir = workdir
        self.tracer = tracer
        self.stream = workload.stream(seed)
        self.initial = self.stream.initial_images()
        #: Expected current image of every page (the stream's shadow).
        self.shadow: Dict[int, bytes] = dict(self.initial)
        #: Image of every page at the last commit.
        self.acked: Dict[int, bytes] = dict(self.initial)
        #: Updates issued since the last commit.
        self.unacked: List[ResolvedOp] = []
        self.db: Optional[Database] = None
        self.path = ""
        self.meter = Meter()
        self.calibrator = Calibrator()
        #: Raw host times (ns) of each setup and each restart, and the
        #: normalization factor measured around each.
        self.setup_ns: List[int] = []
        self.setup_factors: List[float] = []
        self.restart_ns: List[int] = []
        self.restart_factors: List[float] = []
        self.restart_sim_us: List[float] = []
        #: Raw host latencies (ns), split into slices by ``slice_ends``.
        self.read_ns = array("q")
        self.update_ns = array("q")
        self.commit_ns = array("q")
        #: Per slice: (reads, updates, commits) recorded by its end, and
        #: its op time in ns.
        self.slice_ends: List[Tuple[int, int, int]] = []
        self.slice_ns: List[int] = []
        self.ops_done = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.user_bytes = sum(
            len(run.data) for op in self.stream.ops if op.kind != READ for run in op.runs
        )
        self.diff_pages = 0
        self.rss_mb = 0.0
        # The stream and the shadow images are the benchmark's own
        # long-lived inputs (200k op objects on hot-fit): keep them out of
        # the cyclic collector, so its full passes scan only what the
        # engine allocates.
        gc.freeze()

    # ------------------------------------------------------------------
    # Failure accounting
    # ------------------------------------------------------------------
    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def setup(self, repeats: int = SETUP_REPEATS) -> None:
        """Open + load + first flush, ``repeats`` times on fresh
        directories; the last database is the one measured."""
        for _ in range(repeats):
            self._close_current()
            self.path = tempfile.mkdtemp(dir=self.workdir)
            self.db, elapsed, factor = timed(self._create)
            self.setup_ns.append(elapsed)
            self.setup_factors.append(factor)

    def _create(self) -> Database:
        db = Database.open(self.path, **self.workload.open_kwargs())
        for _pid, image in self.initial:
            db.allocate_page().write(0, image)
        db.flush()
        return db

    def _close_current(self) -> None:
        if self.db is not None:
            self.db.close()
            shutil.rmtree(self.path, ignore_errors=True)
            self.db = None

    # ------------------------------------------------------------------
    # The timed window
    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> None:
        """Replay until the first pass is done and ``seconds`` of op
        time have passed; crash and check on the workload's schedule."""
        try:
            self._replay(int(seconds * 1e9))
            if self.tracer is not None:
                # The final check is not part of the workload.
                self.tracer.enabled = False
                self.tracer.op_id = -1
            self._final_check()
        except Exception:  # the run reports the failure; the engine stops here
            self._fail("op raised:\n" + traceback.format_exc())
        finally:
            if self.tracer is not None:
                self.tracer.op_id = -1

    def _end_slice(self, began: int) -> int:
        """Close the slice that began at ``began``; returns its op time."""
        elapsed = time.perf_counter_ns() - began
        self.slice_ns.append(elapsed)
        self.slice_ends.append((len(self.read_ns), len(self.update_ns), len(self.commit_ns)))
        self.calibrator.sample()
        return elapsed

    def _replay(self, budget_ns: int) -> None:
        ops = self.stream.ops
        n = len(ops)
        crashes = set(self.workload.crash_points())
        pauses = crashes | {n}
        clock = time.perf_counter_ns
        tracer = self.tracer
        shadow = self.shadow
        reads, updates, commits = self.read_ns, self.update_ns, self.commit_ns
        self.meter.start(self.db)
        db = self.db
        i = 0
        window_ns = 0
        self.calibrator.sample()
        began = clock()
        while True:
            if i in pauses:
                window_ns += self._end_slice(began)
                if tracer is not None:
                    tracer.op_id = -1
                if i == n:
                    self._checkpoint()
                if i in crashes:
                    self._crash_and_restart()
                db = self.db
                began = clock()
            elif i % 256 == 0 and clock() - began >= SLICE_NS:
                window_ns += self._end_slice(began)
                if i >= n and window_ns >= budget_ns:
                    break
                began = clock()
            op = ops[i % n]
            pid = op.pid
            if tracer is not None:
                tracer.op_id = i
            self.attempted += 1
            if op.kind == READ:
                span = tracer.begin("op.read") if tracer is not None else -1
                start = clock()
                data = db.page(pid).read(0, PAGE_SIZE)
                reads.append(clock() - start)
                if tracer is not None:
                    tracer.end(span)
                if data != shadow[pid]:
                    self._fail(f"op {i}: read of page {pid} returned wrong bytes")
            else:
                span = tracer.begin("op.update") if tracer is not None else -1
                start = clock()
                page = db.page(pid)
                for run in op.runs:
                    page.write(run.offset, run.data)
                updates.append(clock() - start)
                if tracer is not None:
                    tracer.end(span)
                shadow[pid] = apply_runs(shadow[pid], op.runs)
                self.unacked.append(op)
                if len(self.unacked) == COMMIT_EVERY:
                    span = tracer.begin("op.commit") if tracer is not None else -1
                    start = clock()
                    db.flush()
                    commits.append(clock() - start)
                    if tracer is not None:
                        tracer.end(span)
                    self._acknowledge()
            i += 1
        self.ops_done = i

    def _acknowledge(self) -> None:
        for op in self.unacked:
            self.acked[op.pid] = self.shadow[op.pid]
        self.unacked.clear()

    def _checkpoint(self) -> None:
        """End of the first pass: freeze the deterministic counters, and
        read peak RSS while the held samples do not yet depend on how
        fast the host ran the rest of the window."""
        self.meter.stop(self.db)
        self.diff_pages = self.db.driver.differential_page_count()
        self.rss_mb = peak_rss_mb()

    # ------------------------------------------------------------------
    # Crash, restart, durability
    # ------------------------------------------------------------------
    def _crash_and_restart(self) -> None:
        metering = self.meter.active
        if metering:
            self.meter.stop(self.db)
        _abandon(self.db)
        self.db, elapsed, factor = timed(
            lambda: Database.open(self.path, **self.workload.open_kwargs())
        )
        self.restart_ns.append(elapsed)
        self.restart_factors.append(factor)
        self.restart_sim_us.append(
            sum(stats.totals().time_us for stats in _shard_stats(self.db.driver))
        )
        self._check_durability()
        # The client re-submits what the crash left unacknowledged.
        # Runs overwrite bytes, so re-applying them over any image the
        # durability check accepted yields the shadow image again.
        for op in self.unacked:
            page = self.db.page(op.pid)
            for run in op.runs:
                page.write(run.offset, run.data)
        if metering:
            self.meter.start(self.db)

    def _check_durability(self) -> None:
        """Every page must read back its last acknowledged image or an
        image that one of the later, unacknowledged updates produced."""
        newer: Dict[int, List[bytes]] = {}
        for op in self.unacked:
            images = newer.setdefault(op.pid, [self.acked[op.pid]])
            images.append(apply_runs(images[-1], op.runs))
        for pid in range(self.workload.n_pages):
            data = self.db.page(pid).read(0, PAGE_SIZE)
            allowed = newer.get(pid, (self.acked[pid],))
            if data not in allowed:
                self._fail(f"restart lost the acknowledged image of page {pid}")

    def _final_check(self) -> None:
        """Commit, close and reopen, then compare every page read back
        from storage (the reopened pool starts empty) with the expected
        images of exactly the ops executed (the stream replayed whole
        passes plus a prefix)."""
        self.db.flush()
        self._acknowledge()
        self.db.close()
        self.db = None
        self.db = Database.open(self.path, **self.workload.open_kwargs())
        ops = self.stream.ops
        passes, rest = divmod(self.ops_done, len(ops))
        executed = ScenarioStream(
            scenario=self.stream.scenario,
            n_pages=self.stream.n_pages,
            page_size=self.stream.page_size,
            seed=self.stream.seed,
            ops=ops * passes + ops[:rest],
        )
        for pid, image in executed.expected_images().items():
            if self.db.page(pid).read(0, PAGE_SIZE) != image:
                self._fail(f"final image of page {pid} differs from the stream's")

    def close(self) -> None:
        if self.db is None:
            return
        try:
            self._close_current()
        except Exception as exc:  # a failed run may leave the engine unusable
            self._fail(f"close raised: {exc!r}")
            _abandon(self.db)
            self.db = None

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _factors(self, raw: bool) -> List[float]:
        """Per-slice normalization factors (all 1 for raw host time)."""
        factors = self.calibrator.factors()
        return [1.0] * len(factors) if raw else factors

    def _scaled(self, samples: Sequence[int], column: int, raw: bool) -> List[float]:
        """``samples`` scaled slice by slice to normalized host time
        (unless ``raw``), sorted."""
        out: List[float] = []
        lo = 0
        for ends, factor in zip(self.slice_ends, self._factors(raw)):
            hi = ends[column]
            out.extend(x * factor for x in samples[lo:hi])
            lo = hi
        out.sort()
        return out

    @property
    def window_s(self) -> float:
        """Raw host seconds of op time in the timed window."""
        return sum(self.slice_ns) / 1e9

    def ops_per_s(self, raw: bool = False) -> float:
        """Throughput over the normalized (or ``raw``) op time of the window."""
        factors = self._factors(raw)
        return self.ops_done * 1e9 / sum(t * f for t, f in zip(self.slice_ns, factors))

    @property
    def speed(self) -> float:
        """Median normalization factor of the window (1.0: the host ran
        the reference kernel in exactly 1 ms)."""
        return statistics.median(self.calibrator.factors())

    def end_to_end(self, raw: bool = False) -> Dict[str, float]:
        """The end-to-end metrics; host times normalized unless ``raw``."""
        n = self.workload.det_ops
        det = self.meter.totals
        reads = self._scaled(self.read_ns, 0, raw)
        updates = self._scaled(self.update_ns, 1, raw)
        commits = self._scaled(self.commit_ns, 2, raw)
        pages = self.workload.n_pages

        def one_off(samples: List[int], factors: List[float]) -> List[float]:
            return samples if raw else [t * f for t, f in zip(samples, factors)]

        return {
            "setup_s": statistics.median(one_off(self.setup_ns, self.setup_factors)) / 1e9,
            "ops_per_s": self.ops_per_s(raw),
            "read_p50_us": percentile(reads, 50) / 1e3,
            "read_p95_us": percentile(reads, 95) / 1e3,
            "update_p50_us": percentile(updates, 50) / 1e3,
            "update_p95_us": percentile(updates, 95) / 1e3,
            "commit_p50_us": percentile(commits, 50) / 1e3,
            "commit_p95_us": percentile(commits, 95) / 1e3,
            "restart_mean_ms": statistics.mean(
                one_off(self.restart_ns, self.restart_factors)
            ) / 1e6,
            "restart_sim_ms": statistics.mean(self.restart_sim_us) / 1e3,
            "sim_io_us_per_op": det["sim_us"] / n,
            "write_amp": det["writes"] * PAGE_SIZE / self.user_bytes,
            "space_amp": (pages + self.diff_pages) / pages,
            "rss_peak_mb": self.rss_mb,
        }

    def sample_counts(self) -> Dict[str, int]:
        return {
            "reads": len(self.read_ns),
            "updates": len(self.update_ns),
            "commits": len(self.commit_ns),
            "restarts": len(self.restart_ns),
            "setups": len(self.setup_ns),
            "ops": self.ops_done,
        }

    def per_layer(
        self, spans: SpanTable, untraced: "WorkloadRun", raw: bool = False
    ) -> Dict[str, float]:
        """Per-layer metrics of this (traced) run; ``untraced`` is the
        same workload measured without tracing in the same process.
        Host times are normalized unless ``raw``."""
        n = self.workload.det_ops
        det = self.meter.totals
        reflections = det["case1"] + det["case2"] + det["case3"]
        lookups = det["mapping_hits"] + det["mapping_misses"]
        accesses = det["pool_hits"] + det["pool_misses"]
        core_reads = spans.det_calls.get("core.read_page", 0)
        reports = self.tracer.recovery_reports
        backend = [name for name in spans.calls if name.startswith("flash.backend.")]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def per_report(field: str) -> float:
            return ratio(sum(getattr(r, field) for r in reports), len(reports))

        # Span times are raw host time: scale them like the end-to-end
        # figures (see perfbench/calibrate.py).
        speed = 1.0 if raw else self.speed

        def self_us(names: List[str]) -> float:
            return spans.mean_self_us(names) * speed

        def total_us(names: List[str]) -> float:
            return spans.mean_total_us(names) * speed

        stall_p999 = percentile(sorted(self.meter.stalls), 99.9)
        eviction_p99 = percentile(sorted(untraced.meter.eviction_stalls), 99) * (
            1.0 if raw else untraced.speed
        )
        return {
            "storage.pool_hit_ratio": ratio(det["pool_hits"], accesses),
            "storage.get_page_self_us": self_us(["storage.get_page"]),
            "storage.flush_all_self_us": self_us(["storage.flush_all"]),
            "storage.sync_writebacks_per_op": det["sync_writebacks"] / n,
            "storage.eviction_stall_p99_us": eviction_p99,
            "storage.read_races": det["read_races"],
            "sharding.read_page_us": total_us(["sharding.read_page"]),
            "sharding.write_page_us": total_us(["sharding.write_page"]),
            "sharding.write_pages_us": total_us(["sharding.write_pages"]),
            "sharding.group_flush_us": total_us(["sharding.group_flush"]),
            "sharding.calls_per_op": spans.det_calls.get("sharding.submit", 0) / n,
            "core.read_page_self_us": self_us(["core.read_page"]),
            "core.write_page_self_us": self_us(["core.write_page"]),
            "core.write_pages_self_us": self_us(["core.write_pages"]),
            "core.flush_self_us": self_us(["core.flush"]),
            "core.find_differential_us": total_us(["core.find_differential"]),
            "core.diff_from_pages_us": total_us(["core.diff_from_pages"]),
            "core.flash_reads_per_read": ratio(
                spans.child_calls.get(("core.read_page", "flash.read_page"), 0)
                + spans.child_calls.get(("core.read_page", "flash.read_pages"), 0),
                core_reads,
            ),
            "core.case3_ratio": ratio(det["case3"], reflections),
            "core.buffer_flushes_per_kop": det["buffer_flushes"] * 1000 / n,
            "ftl.gc_self_us": self_us(["ftl.gc_collect", "ftl.gc_step"]),
            "ftl.write_stall_sim_p999_us": stall_p999,
            "ftl.erases_per_kop": det["erases"] * 1000 / n,
            "ftl.relocations_per_erase": ratio(det["gc_relocated"], det["gc_collections"]),
            "ext.tick_self_us": self_us(["ext.tick"]),
            "ext.mapping_hit_ratio": ratio(det["mapping_hits"], lookups),
            "ext.mapping_misses_per_op": det["mapping_misses"] / n,
            "ext.mapping_writebacks_per_op": det["mapping_writebacks"] / n,
            "ext.restart_journal_records": per_report("journal_records"),
            "ext.restart_tail_pages": per_report("tail_pages_scanned"),
            "ext.restart_pages_scanned": per_report("pages_scanned"),
            "ext.restart_fallbacks": sum(1 for r in reports if r.fallback),
            "flash.read_self_us": self_us(["flash.read_page", "flash.read_pages"]),
            "flash.program_self_us": self_us(
                ["flash.program_page", "flash.program_pages"]
            ),
            "flash.erase_self_us": self_us(["flash.erase_block"]),
            "flash.backend_us": total_us(backend),
            "flash.reads_per_op": det["reads"] / n,
            "flash.programs_per_op": det["writes"] / n,
            "flash.erases_per_op": det["erases"] / n,
            "flash.checksum_checks_per_op": det["checksum_checks"] / n,
            "trace.ops_per_s_delta": self.ops_per_s(raw) - untraced.ops_per_s(raw),
            "trace.span_coverage": spans.coverage(),
        }


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
