"""Parallel-shard benchmark: measured wall-clock vs the simulated model.

PR 1 made shard parallelism a *model*: the array's parallel time is the
busiest chip's share of the simulated clock.  Two executors make it
real, and this benchmark measures how real, by running the same batched
update workload through identically configured shard drivers three
times:

* **serial** — the plain ``xN`` array
  (:class:`~repro.sharding.executor.InlineExecutor`), shards visited
  one after another on the caller's thread;
* **mode=thread** — the ``par`` array
  (:class:`~repro.sharding.executor.ThreadExecutor`), one single-writer
  worker thread per shard;
* **mode=process** — the ``proc`` array
  (:class:`~repro.sharding.executor_proc.ProcessShardExecutor`), one
  spawned worker process per shard with page payloads carried in
  shared-memory frames.

All three are the same :class:`~repro.sharding.driver.ShardedDriver`
façade; only the executor under it differs.

Each row reports measured wall seconds for serial and parallel runs,
their ratio (``wall_speedup``) and the simulated model's prediction
(``sim_speedup`` = serial / busiest-chip clock) side by side.

Two wait regimes separate the GIL question from the device question
(see ``docs/concurrency.md``):

* ``waits=none`` — the chips never block; all that remains is pure
  Python.  The GIL serializes the thread executor here (~x1, the honest
  baseline), while the process executor can use real cores — *when the
  host has them*.  The ``cpu_count`` note records how many this host
  offered, since a 1-CPU runner caps every no-wait mode at ~x1.
* ``waits=emulated`` — chips sleep ``realtime_scale ×`` their Table-1
  latencies (``FlashChip(realtime_scale=...)``), so workers *wait* the
  way they would on real hardware — and waits overlap across shards in
  both modes, approaching the simulated prediction even on one core.

The ``recovery`` stage times the Figure-11 scan over the file images:
``recover_all(parallel=False)`` vs ``"thread"`` vs ``"process"``, the
measured version of the paper's "1/N of ~60 s/GB" claim.  The process
row includes worker spawn (~0.5 s/pool on this class of host): that is
the price a real deployment would pay too.

Results land in ``bench_results/parallel.json``.  Runs standalone for
CI smoke checks::

    python benchmarks/bench_parallel.py --tiny

or under pytest-benchmark like the other experiments::

    python -m pytest benchmarks/bench_parallel.py -q
"""

import os
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench.reporting import ResultTable  # noqa: E402
from repro.flash.backend import FileBackend  # noqa: E402
from repro.flash.chip import FlashChip  # noqa: E402
from repro.flash.spec import FlashSpec  # noqa: E402
from repro.methods import make_method  # noqa: E402
from repro.sharding.recovery import recover_all  # noqa: E402

SPEC = FlashSpec(
    n_blocks=32, pages_per_block=32, page_data_size=256, page_spare_size=16
)

#: Fraction of each shard chip holding database pages.
FILL = 0.5

#: Buffer-pool flush batch: pages reflected per ``write_pages`` call.
BATCH = 64

SEED = 20100130

FULL_UPDATES = 2000
TINY_UPDATES = 600

#: Wall-clock fraction of Table-1 latencies the chips actually wait in
#: the ``emulated`` regime (0.25 => Twrite costs ~253 host-us).
FULL_SCALE = 0.25
TINY_SCALE = 0.1

FULL_SHARDS = (1, 2, 4, 8)
TINY_SHARDS = (1, 4)

#: Parallel execution modes measured against the serial baseline; the
#: label tokens are what ``make_method`` / ``recover_all`` accept.
MODES = {"thread": " par", "process": " proc"}


def _build_driver(n_shards, backend, mode, scale, tmpdir):
    """``mode`` is None (serial), "thread" or "process"."""
    chips = []
    for i in range(n_shards):
        file_backend = None
        if backend == "file":
            file_backend = FileBackend.create(
                os.path.join(tmpdir, f"shard-{i:04d}.flash"), SPEC
            )
        chips.append(FlashChip(SPEC, backend=file_backend, realtime_scale=scale))
    label = f"PDL (256B) x{n_shards}" + (MODES[mode] if mode else "")
    return make_method(label, chips)


def _run_updates(driver, n_updates):
    """The batched buffer-pool-flush workload; returns measured seconds.

    One client thread: all wall-clock parallelism observed here comes
    from ``write_pages``/``group_flush`` fanning out across workers,
    i.e. the shape a DBMS buffer pool above the array produces.  The
    shard drivers verify nothing — correctness under threading is the
    stress test's job (``tests/integration/test_parallel_stress.py``;
    thread-vs-process equivalence is
    ``tests/sharding/test_process_executor.py``).
    """
    rng = random.Random(SEED)
    page = SPEC.page_data_size
    n_pages = int(SPEC.n_pages * driver.n_shards * FILL)
    model = {pid: rng.randbytes(page) for pid in range(n_pages)}
    driver.load_pages(model.items())
    driver.end_of_load()
    clocks_before = driver.chip_clocks()
    start = time.perf_counter()
    batch = {}
    for _ in range(n_updates):
        pid = rng.randrange(n_pages)
        # The page image lives in the DBMS buffer pool above the array;
        # only the reflection (write_pages) reaches flash.
        image = bytearray(model[pid])
        offset = rng.randrange(page - 24)
        image[offset : offset + 24] = rng.randbytes(24)
        model[pid] = bytes(image)
        batch[pid] = model[pid]
        if len(batch) >= BATCH:
            driver.write_pages(list(batch.items()))
            driver.group_flush()
            batch.clear()
    if batch:
        driver.write_pages(list(batch.items()))
        driver.group_flush()
    wall_s = time.perf_counter() - start
    deltas = [
        after - before
        for after, before in zip(driver.chip_clocks(), clocks_before)
    ]
    sim_speedup = sum(deltas) / max(deltas) if max(deltas) else 1.0
    return wall_s, sim_speedup


def _measure_updates(backend, n_shards, scale, n_updates, tmpdir):
    """Same workload serial, threaded and process-parallel.

    Returns ``{mode: metrics row}`` with the serial baseline repeated in
    every row, so each row is self-contained in the JSON.
    """
    timings = {}
    sim_speedup = 1.0
    for mode in (None, *MODES):
        run_dir = os.path.join(
            tmpdir, f"{backend}-{n_shards}-{scale}-{mode or 'serial'}"
        )
        os.makedirs(run_dir, exist_ok=True)
        driver = _build_driver(n_shards, backend, mode, scale, run_dir)
        wall_s, run_sim = _run_updates(driver, n_updates)
        driver.close()
        timings[mode] = wall_s
        if mode is None:
            sim_speedup = run_sim
    serial_s = timings[None]
    return {
        mode: {
            "serial_s": serial_s,
            "parallel_s": timings[mode],
            "wall_speedup": serial_s / timings[mode] if timings[mode] else 1.0,
            "sim_speedup": sim_speedup,
        }
        for mode in MODES
    }


def _measure_recovery(n_shards, scale, n_updates, tmpdir):
    """Figure-11 scan over file images: serial vs parallel recover_all."""
    run_dir = os.path.join(tmpdir, f"recovery-{n_shards}")
    os.makedirs(run_dir, exist_ok=True)
    driver = _build_driver(n_shards, "file", None, scale, run_dir)
    _run_updates(driver, n_updates)
    driver.close()

    timings = {}
    sim_speedup = 1.0
    for parallel in (False, "thread", "process"):
        chips = [
            FlashChip(
                SPEC,
                backend=FileBackend.open(
                    os.path.join(run_dir, f"shard-{i:04d}.flash"), SPEC
                ),
                realtime_scale=scale,
            )
            for i in range(n_shards)
        ]
        start = time.perf_counter()
        recovered, _reports = recover_all(chips, parallel=parallel)
        timings[parallel] = time.perf_counter() - start
        if parallel == "thread":
            # The process workers' clocks live out of process; the
            # thread run's chips give the same simulated prediction.
            deltas = [chip.clock_us for chip in chips]
            sim_speedup = sum(deltas) / max(deltas) if max(deltas) else 1.0
        recovered.close()
    serial_s = timings[False]
    return {
        mode: {
            "serial_s": serial_s,
            "parallel_s": timings[mode],
            "wall_speedup": serial_s / timings[mode] if timings[mode] else 1.0,
            "sim_speedup": sim_speedup,
        }
        for mode in MODES
    }


def _add_mode_rows(table, results, stage, backend, waits, n, rows):
    for mode, row in rows.items():
        results[(stage, backend, waits, mode, n)] = row
        table.add_row(
            stage, backend, waits, mode, n,
            row["serial_s"], row["parallel_s"],
            row["wall_speedup"], row["sim_speedup"],
        )


def run_parallel_bench(shard_counts, n_updates, scale):
    table = ResultTable(
        experiment="parallel",
        title="Parallel shards: measured wall-clock vs simulated model",
        columns=(
            "stage",
            "backend",
            "waits",
            "mode",
            "shards",
            "serial_s",
            "parallel_s",
            "wall_speedup",
            "sim_speedup",
        ),
    )
    results = {}
    tmpdir = tempfile.mkdtemp(prefix="bench-parallel-")
    try:
        for backend in ("memory", "file"):
            for n in shard_counts:
                rows = _measure_updates(backend, n, scale, n_updates, tmpdir)
                _add_mode_rows(
                    table, results, "updates", backend, "emulated", n, rows
                )
        # The GIL rows: no device waits, pure Python.  Threads cannot
        # help; processes can — if the host has cores to offer.
        gil_shards = max(shard_counts)
        for backend in ("memory", "file"):
            rows = _measure_updates(backend, gil_shards, 0.0, n_updates, tmpdir)
            _add_mode_rows(
                table, results, "updates", backend, "none", gil_shards, rows
            )
        for n in shard_counts:
            if n == 1:
                continue
            rows = _measure_recovery(n, scale, n_updates, tmpdir)
            _add_mode_rows(table, results, "recovery", "file", "emulated", n, rows)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    best = max(shard_counts)
    file_row = results[("updates", "file", "emulated", "thread", best)]
    gil_thread = results[("updates", "memory", "none", "thread", best)]
    gil_proc = results[("updates", "memory", "none", "process", best)]
    table.note(f"host cpu_count={os.cpu_count()}")
    table.note(
        f"file backend @ {best} shards (thread): measured "
        f"x{file_row['wall_speedup']:.2f} (simulated model predicts "
        f"x{file_row['sim_speedup']:.2f})"
    )
    table.note(
        f"no-wait @ {best} shards: thread x{gil_thread['wall_speedup']:.2f} "
        f"(GIL-bound), process x{gil_proc['wall_speedup']:.2f} "
        f"(core-bound: capped by cpu_count above)"
    )
    return table, results


def check_parallel_wins(results, shard_counts):
    """Acceptance: real wall-clock parallelism on the file backend.

    Timing asserts compare two measured runs on the same host, so they
    are stable; still, they are only enforced at full scale (CI's
    ``--tiny`` run records without judging).  No-wait *process* speedup
    is additionally gated on the host actually having cores: a 1-CPU
    runner physically cannot run shard workers concurrently, and
    pretending otherwise would just pin the benchmark to lucky
    scheduling.
    """
    four = 4 if 4 in shard_counts else max(shard_counts)
    for mode in MODES:
        row = results[("updates", "file", "emulated", mode, four)]
        assert row["wall_speedup"] > 1.5, (
            f"file backend @ {four} shards ({mode}): measured speedup "
            f"x{row['wall_speedup']:.2f} is below x1.5"
        )
        # The simulated model must remain an upper bound on what workers
        # can deliver (it has no Python, scheduling or IPC overhead).
        assert row["wall_speedup"] <= row["sim_speedup"] * 1.15
    recovery = results[("recovery", "file", "emulated", "thread", four)]
    assert recovery["wall_speedup"] > 1.3, (
        f"parallel recovery @ {four} shards: x{recovery['wall_speedup']:.2f} "
        "is below x1.3"
    )
    cores = os.cpu_count() or 1
    if cores >= 4:
        best = max(shard_counts)
        n_procs = min(best, cores)
        row = results[("updates", "memory", "none", "process", best)]
        assert row["wall_speedup"] > n_procs / 2, (
            f"no-wait process run @ {best} shards on {cores} cores: "
            f"x{row['wall_speedup']:.2f} is below x{n_procs / 2:.1f}"
        )


def test_parallel_scaling(benchmark):
    table, results = benchmark.pedantic(
        lambda: run_parallel_bench(TINY_SHARDS, TINY_UPDATES, FULL_SCALE),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(table.render())
    table.save()
    check_parallel_wins(results, TINY_SHARDS)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="seconds-long smoke run (CI): 1/4 shards, short window",
    )
    args = parser.parse_args(argv)
    if args.tiny:
        shard_counts, n_updates, scale = TINY_SHARDS, TINY_UPDATES, TINY_SCALE
    else:
        shard_counts, n_updates, scale = FULL_SHARDS, FULL_UPDATES, FULL_SCALE
    table, results = run_parallel_bench(shard_counts, n_updates, scale)
    print(table.render())
    print(f"saved: {table.save()}")
    if not args.tiny:
        check_parallel_wins(results, shard_counts)
        print("parallel-speedup check: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
