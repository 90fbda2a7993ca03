"""Process-per-shard execution: spawn safety, equivalence, plumbing.

These tests exercise the GIL-free execution path end to end: the
:class:`ShardFactory` recipes that rebuild drivers inside spawned
workers, the :class:`ProcessShardExecutor` wire protocol, and the
sharded façade on top of it — including the headline claim
that a seeded workload produces *byte-identical* flash images and equal
merged statistics whether it runs on the thread or the process backend.

Worker functions submitted over the pipe are pickled by reference, so
every helper here is module-level (spawn-safety rule #1; see
docs/concurrency.md).
"""

import multiprocessing
import pickle
import random
import sys
import threading

import pytest

from repro.flash.backend import FileBackend
from repro.flash.chip import FlashChip
from repro.flash.spec import FlashSpec
from repro.ftl.errors import (
    ConcurrencyError,
    ConfigurationError,
)
from repro.methods import make_method
from repro.sharding.driver import ShardedDriver
from repro.sharding.executor_proc import (
    FRAMES_PER_WORKER,
    ProcessShardExecutor,
    ProcessShardedDriver,
    ShardFactory,
    WorkerCrashError,
    factories_from_chips,
)
from repro.sharding import ops
from repro.sharding.ops import dump_chip_image
from repro.sharding.recovery import recover_all

SPEC = FlashSpec(n_blocks=12, pages_per_block=8, page_data_size=256, page_spare_size=16)
PAGE = SPEC.page_data_size
N_PAGES = 40


def _chips(n):
    return [FlashChip(SPEC) for _ in range(n)]


def _factories(n, label="PDL (64B)"):
    return [ShardFactory(label=label, spec=SPEC) for _ in range(n)]


def _workload(driver, n_updates=200, seed=3):
    """A deterministic mixed single/batched workload; returns the model."""
    rng = random.Random(seed)
    model = {pid: rng.randbytes(PAGE) for pid in range(N_PAGES)}
    driver.load_pages(model.items())
    driver.end_of_load()
    batch = {}
    for i in range(n_updates):
        pid = rng.randrange(N_PAGES)
        image = bytearray(model[pid])
        offset = rng.randrange(PAGE - 32)
        image[offset : offset + 32] = rng.randbytes(32)
        model[pid] = bytes(image)
        if i % 3 == 0 or pid in batch:
            batch[pid] = model[pid]
            if len(batch) >= 8:
                driver.write_pages(list(batch.items()))
                batch.clear()
        else:
            driver.write_page(pid, model[pid])
        if i % 32 == 31:
            driver.group_flush()
    if batch:
        driver.write_pages(list(batch.items()))
    driver.group_flush()
    return model


# Worker-side functions must be module-level so pickle can find them by
# qualified name inside the spawned interpreter.
def _w_add(driver, a, b=0):
    return a + b


def _w_fail(driver):
    return 1 / 0


def _w_driver_label(driver):
    return driver.name


def _assert_unlocked(executor):
    assert not any(lock.locked() for lock in executor._locks)


def _pid_on(driver, shard):
    return next(pid for pid in range(N_PAGES) if driver.shard_index(pid) == shard)


def _assert_reaped(executor):
    # Other tests may have live pools (class-scoped fixtures), so check
    # this executor's own workers rather than active_children() globally.
    assert all(not proc.is_alive() for proc in executor._procs)


@pytest.fixture(scope="module", autouse=True)
def _no_leaked_children_at_module_exit():
    yield
    # Every fixture in this module has been torn down by now; the
    # multiprocessing resource tracker is not a Process, so an empty
    # list means every shard worker was joined.
    assert multiprocessing.active_children() == []


class TestShardFactory:
    def test_pickle_round_trip(self):
        factory = ShardFactory(
            label="PDL (128B)",
            spec=SPEC,
            realtime_scale=0.25,
            driver_kwargs={"coalesce_gap": 2},
        )
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory

    def test_build_makes_working_driver(self):
        driver, report = ShardFactory(label="PDL (64B)", spec=SPEC).build()
        assert report is None
        assert driver.name == "PDL (64B)"
        driver.load_page(0, b"\x07" * PAGE)
        driver.end_of_load()
        assert driver.read_page(0) == b"\x07" * PAGE
        driver.chip.close()

    def test_factories_from_chips_captures_config(self):
        chips = [
            FlashChip(SPEC, realtime_scale=0.5),
            FlashChip(SPEC),
        ]
        factories = factories_from_chips(chips, "PDL (64B)", {})
        assert [f.realtime_scale for f in factories] == [0.5, 0.0]
        assert all(f.path is None for f in factories)
        assert all(f.spec == SPEC for f in factories)

    def test_programmed_chip_rejected(self, chip):
        driver = make_method("PDL (64B)", chip)
        driver.load_page(0, bytes(chip.spec.page_data_size))
        driver.end_of_load()
        driver.flush()
        with pytest.raises(ConfigurationError, match="recover_all"):
            factories_from_chips([chip], "PDL (64B)", {})


class TestProcessExecutor:
    @pytest.fixture(scope="class")
    def pool(self):
        executor = ProcessShardExecutor(_factories(2))
        yield executor
        executor.shutdown()
        _assert_reaped(executor)

    def test_result_round_trip(self, pool):
        assert pool.submit(0, _w_add, 40, b=2).result() == 42

    def test_worker_has_real_driver(self, pool):
        assert pool.run(1, _w_driver_label) == "PDL (64B)"

    def test_exception_type_survives_the_pipe(self, pool):
        future = pool.submit(0, _w_fail)
        with pytest.raises(ZeroDivisionError):
            future.result()

    def test_worker_survives_exceptions(self, pool):
        # A failed op must not wedge the worker for later ops.
        with pytest.raises(ZeroDivisionError):
            pool.run(0, _w_fail)
        assert pool.run(0, _w_add, 1, b=1) == 2

    def test_invalid_worker_index_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.submit(2, _w_add, 0)

    def test_broadcast_hits_every_worker(self, pool):
        assert pool.broadcast(_w_add, 20, b=1) == [21, 21]

    def test_frame_ring_op_rejects_keywords(self, pool):
        # Ring tasks carry positional arguments only; a keyword must
        # fail loudly rather than be dropped on the way to the worker.
        with pytest.raises(TypeError, match="update_logs"):
            pool.run(0, ops.write_page, 0, bytes(PAGE), update_logs=None)

    def test_needs_at_least_one_factory(self):
        with pytest.raises(ConfigurationError):
            ProcessShardExecutor([])

    def test_shutdown_is_idempotent_and_rejects_submits(self):
        executor = ProcessShardExecutor(_factories(1))
        assert executor.run(0, _w_add, 1, b=1) == 2
        executor.shutdown()
        executor.shutdown()
        with pytest.raises(ConcurrencyError):
            executor.submit(0, _w_add, 0)
        _assert_reaped(executor)

    def test_context_manager_reaps_workers(self):
        with ProcessShardExecutor(_factories(1)) as executor:
            assert executor.run(0, _w_add, 2, b=2) == 4
        assert executor.is_shutdown
        _assert_reaped(executor)


class TestThreadProcessEquivalence:
    """The satellite claim: same seed, same bytes, same merged stats."""

    @pytest.fixture(scope="class")
    def pair(self):
        thread_driver = make_method("PDL (64B) x2 par", _chips(2))
        proc_driver = make_method("PDL (64B) x2 proc", _chips(2))
        model_t = _workload(thread_driver)
        model_p = _workload(proc_driver)
        assert model_t == model_p
        yield thread_driver, proc_driver, model_t
        executor = proc_driver.executor
        proc_driver.close()
        thread_driver.close()
        _assert_reaped(executor)

    def test_reads_match_the_model(self, pair):
        thread_driver, proc_driver, model = pair
        for pid in range(N_PAGES):
            assert proc_driver.read_page(pid) == model[pid]
            assert thread_driver.read_page(pid) == model[pid]

    def test_flash_images_byte_identical(self, pair):
        thread_driver, proc_driver, _model = pair
        thread_images = [dump_chip_image(chip) for chip in thread_driver.chips]
        assert proc_driver.dump_images() == thread_images

    def test_merged_stats_equal(self, pair):
        thread_driver, proc_driver, _model = pair
        t, p = thread_driver.stats, proc_driver.stats
        assert p.totals() == t.totals()
        assert p.phases == t.phases
        assert p.block_erases == t.block_erases
        assert p.total_time_us == t.total_time_us

    def test_clocks_and_counters_equal(self, pair):
        thread_driver, proc_driver, _model = pair
        assert proc_driver.chip_clocks() == thread_driver.chip_clocks()
        assert (
            proc_driver.differential_page_count()
            == thread_driver.differential_page_count()
        )
        assert proc_driver.gc_report() == thread_driver.gc_report()

    def test_fsck_clean_on_both(self, pair):
        thread_driver, proc_driver, _model = pair
        t = thread_driver.fsck(repair=False)
        p = proc_driver.fsck(repair=False)
        assert p.pages_scanned == t.pages_scanned
        assert p.checksum_failures == t.checksum_failures == 0

    def test_file_backend_images_byte_identical(self, tmp_path):
        # The same seeded workload through thread and process drivers
        # over file-backed chips must leave bit-identical image files.
        for mode in ("par", "proc"):
            chips = [
                FlashChip(
                    SPEC,
                    backend=FileBackend.create(
                        str(tmp_path / f"{mode}-{i}.img"), SPEC
                    ),
                )
                for i in range(2)
            ]
            driver = make_method(f"PDL (64B) x2 {mode}", chips)
            _workload(driver, n_updates=120, seed=5)
            driver.close()
        for i in range(2):
            thread_image = (tmp_path / f"par-{i}.img").read_bytes()
            proc_image = (tmp_path / f"proc-{i}.img").read_bytes()
            assert thread_image == proc_image


class TestLabelPlumbing:
    def test_proc_label_builds_process_driver(self):
        driver = make_method("PDL (64B) x2 proc", _chips(2))
        try:
            assert isinstance(driver, ProcessShardedDriver)
            assert driver.name == "PDL (64B) x2 proc"
        finally:
            driver.close()
        _assert_reaped(driver.executor)

    def test_proc_without_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            make_method("PDL (64B) proc", FlashChip(SPEC))


class TestStatePastShutdown:
    """Benchmarks shut the pool down and then read counters; the driver
    snapshots worker state in a shutdown finalizer to keep that order
    legal."""

    def test_counters_survive_executor_shutdown(self):
        driver = make_method("PDL (64B) x2 proc", _chips(2))
        _workload(driver, n_updates=60)
        live_clocks = driver.chip_clocks()
        live_diff = driver.differential_page_count()
        driver.executor.shutdown()
        assert driver.chip_clocks() == live_clocks
        assert driver.differential_page_count() == live_diff
        assert driver.stats.total_time_us > 0
        driver.close()
        _assert_reaped(driver.executor)


class TestProcessRecovery:
    def _build_images(self, tmp_path, n_shards=2):
        chips = []
        for i in range(n_shards):
            backend = FileBackend.create(str(tmp_path / f"shard{i}.img"), SPEC)
            chips.append(FlashChip(SPEC, backend=backend))
        driver = make_method(f"PDL (64B) x{n_shards}", chips)
        model = _workload(driver, n_updates=120, seed=9)
        driver.close()
        return model

    def _reopen(self, tmp_path, n_shards=2):
        return [
            FlashChip(
                SPEC, backend=FileBackend.open(str(tmp_path / f"shard{i}.img"), SPEC)
            )
            for i in range(n_shards)
        ]

    def test_process_recovery_matches_serial(self, tmp_path):
        model = self._build_images(tmp_path)

        serial_driver, serial_reports = recover_all(self._reopen(tmp_path))
        serial_pages = {pid: serial_driver.read_page(pid) for pid in model}
        serial_driver.close()

        proc_driver, proc_reports = recover_all(
            self._reopen(tmp_path), parallel="process"
        )
        try:
            assert isinstance(proc_driver, ProcessShardedDriver)
            assert len(proc_reports) == len(serial_reports)
            assert [r.pages_scanned for r in proc_reports] == [
                r.pages_scanned for r in serial_reports
            ]
            for pid, data in model.items():
                assert proc_driver.read_page(pid) == data == serial_pages[pid]
            # The recovered array keeps working.
            proc_driver.write_page(0, bytes(PAGE))
            assert proc_driver.read_page(0) == bytes(PAGE)
        finally:
            proc_driver.close()
        _assert_reaped(proc_driver.executor)

    def test_memory_chips_rejected_for_process_recovery(self):
        with pytest.raises(ConfigurationError):
            recover_all(_chips(2), parallel="process")

    def test_existing_images_must_go_through_recovery(self, tmp_path):
        self._build_images(tmp_path)
        with pytest.raises(ConfigurationError, match="recover_all"):
            make_method("PDL (64B) x2 proc", self._reopen(tmp_path))


class TestWorkerFailureHandling:
    def test_startup_failure_reaps_and_raises(self):
        bad = ShardFactory(label="definitely-not-a-method", spec=SPEC)
        with pytest.raises(ValueError, match="unknown method label"):
            ProcessShardExecutor([bad])

    def test_dead_worker_reported_as_crash(self):
        executor = ProcessShardExecutor(_factories(1))
        try:
            executor._procs[0].terminate()
            executor._procs[0].join()
            with pytest.raises(ConcurrencyError):
                executor.run(0, _w_add, 1, b=1)
        finally:
            executor.shutdown()
        _assert_reaped(executor)

    def test_worker_crash_error_is_concurrency_error(self):
        assert issubclass(WorkerCrashError, ConcurrencyError)


class TestFrameRing:
    def test_batches_larger_than_the_ring_are_chunked(self):
        # One shard, so every page of each batch goes through one ring.
        spec = FlashSpec(n_blocks=48, pages_per_block=8, page_data_size=256, page_spare_size=16)
        n_pages = 2 * FRAMES_PER_WORKER + 5
        rng = random.Random(17)
        model = {pid: rng.randbytes(PAGE) for pid in range(n_pages)}
        driver = ShardedDriver(ProcessShardExecutor([ShardFactory(label="PDL (64B)", spec=spec)]))
        try:
            driver.load_pages(model.items())
            driver.end_of_load()
            for pid in model:
                model[pid] = model[pid][:-8] + rng.randbytes(8)
            driver.write_pages(list(model.items()))
            assert all(driver.read_page(pid) == data for pid, data in model.items())
            for pid in model:
                model[pid] = rng.randbytes(8) + model[pid][8:]
            driver.group_flush(list(model.items()))
            assert all(driver.read_page(pid) == data for pid, data in model.items())
        finally:
            driver.close()
        _assert_reaped(driver.executor)


class TestConcurrentClients:
    """Four client threads share one process-backed driver.

    Only the per-worker locks keep two threads' commands from
    interleaving on one worker pipe.  Barrier phases keep the outcome
    deterministic: in each phase exactly one thread writes to each
    shard while the others read pages nobody is writing, and one thread
    group-flushes while the others read.  A serial driver replaying the
    same writes in the same per-shard order must end with the same
    pages and byte-identical image files.
    """

    N_THREADS = 4
    ROUNDS = 6
    WRITES = 5

    def _chips(self, tmp_path, tag):
        return [
            FlashChip(SPEC, backend=FileBackend.create(str(tmp_path / f"{tag}-{i}.img"), SPEC))
            for i in range(2)
        ]

    def _plan(self, owned, base):
        """Per round, per thread: the (pid, image) writes it performs."""
        rng = random.Random(23)
        current = dict(base)
        plan = []
        for _ in range(self.ROUNDS):
            per_thread = []
            for t in range(self.N_THREADS):
                writes = []
                for _ in range(self.WRITES):
                    pid = rng.choice(owned[t])
                    image = bytearray(current[pid])
                    offset = rng.randrange(PAGE - 16)
                    image[offset : offset + 16] = rng.randbytes(16)
                    current[pid] = bytes(image)
                    writes.append((pid, current[pid]))
                per_thread.append(writes)
            plan.append(per_thread)
        return plan

    def test_four_threads_match_a_serial_driver(self, tmp_path):
        rng = random.Random(5)
        base = {pid: rng.randbytes(PAGE) for pid in range(N_PAGES)}
        proc = make_method("PDL (64B) x2 proc", self._chips(tmp_path, "proc"))
        serial = make_method("PDL (64B) x2", self._chips(tmp_path, "serial"))
        # Thread t writes shard t % 2 in phase t // 2 of every round.
        owned = [
            [pid for pid in range(N_PAGES) if proc.shard_index(pid) == t % 2][t // 2 :: 2]
            for t in range(self.N_THREADS)
        ]
        plan = self._plan(owned, base)
        for driver in (proc, serial):
            driver.load_pages(base.items())
            driver.end_of_load()

        model = dict(base)
        barrier = threading.Barrier(self.N_THREADS, timeout=60)
        errors = []

        def check(pids):
            for pid in pids:
                assert proc.read_page(pid) == model[pid], pid

        def client(t):
            try:
                for r in range(self.ROUNDS):
                    for phase in (0, 1):
                        barrier.wait()
                        if t // 2 == phase:
                            for pid, data in plan[r][t]:
                                proc.write_page(pid, data)
                                model[pid] = data
                        else:
                            stable = [p for u in range(self.N_THREADS) if u // 2 != phase
                                      for p in owned[u]]
                            check(stable)
                    barrier.wait()
                    if t == r % self.N_THREADS:
                        proc.group_flush()
                    else:
                        check(range(N_PAGES))
                    barrier.wait()
            except BaseException as exc:
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=client, args=(t,)) for t in range(self.N_THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-exchange as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]

        for r in range(self.ROUNDS):
            for phase in (0, 1):
                for t in range(self.N_THREADS):
                    if t // 2 == phase:
                        for pid, data in plan[r][t]:
                            serial.write_page(pid, data)
            serial.group_flush()

        _assert_unlocked(proc.executor)
        for pid in range(N_PAGES):
            assert proc.read_page(pid) == serial.read_page(pid) == model[pid]
        assert proc.group_flushes == serial.group_flushes == self.ROUNDS
        proc.close()
        serial.close()
        _assert_reaped(proc.executor)
        for i in range(2):
            assert (tmp_path / f"proc-{i}.img").read_bytes() == (
                tmp_path / f"serial-{i}.img"
            ).read_bytes()


class TestInlineFailurePaths:
    """Failures on the caller-driven exchange release every worker lock."""

    @pytest.mark.parametrize("op", ["read_page", "write_page"])
    def test_dead_worker_single_page_op_raises_crash(self, op):
        driver = make_method("PDL (64B) x2 proc", _chips(2))
        executor = driver.executor
        try:
            driver.load_pages((pid, bytes(PAGE)) for pid in range(N_PAGES))
            driver.end_of_load()
            pid = _pid_on(driver, 1)
            executor._procs[1].terminate()
            executor._procs[1].join()
            args = (pid,) if op == "read_page" else (pid, b"\x01" * PAGE)
            with pytest.raises(WorkerCrashError) as info:
                getattr(driver, op)(*args)
            assert isinstance(info.value.__cause__, (EOFError, OSError))
            _assert_unlocked(executor)
            # The surviving shard keeps serving.
            assert driver.read_page(_pid_on(driver, 0)) == bytes(PAGE)
        finally:
            executor.shutdown()
        _assert_reaped(executor)
        driver.close()

    def test_single_page_ops_after_close_raise(self):
        driver = make_method("PDL (64B) x2 proc", _chips(2))
        driver.load_page(0, bytes(PAGE))
        driver.end_of_load()
        driver.close()
        with pytest.raises(ConcurrencyError):
            driver.read_page(0)
        with pytest.raises(ConcurrencyError):
            driver.write_page(0, bytes(PAGE))
        _assert_reaped(driver.executor)

    @pytest.fixture(scope="class")
    def loaded(self):
        driver = make_method("PDL (64B) x2 proc", _chips(2))
        driver.load_pages((pid, bytes(PAGE)) for pid in range(N_PAGES))
        driver.end_of_load()
        yield driver
        driver.close()
        _assert_reaped(driver.executor)

    def _assert_every_shard_serves(self, driver):
        _assert_unlocked(driver.executor)
        for shard in range(driver.n_shards):
            pid = _pid_on(driver, shard)
            assert driver.read_page(pid) == bytes(PAGE)
        driver.group_flush()

    @pytest.mark.parametrize("entry", ["write_pages", "group_flush"])
    def test_worker_exception_mid_fan_out(self, loaded, entry):
        # Shard 0's slice is fine, shard 1's is rejected by its worker.
        pages = [(_pid_on(loaded, 0), bytes(PAGE)), (_pid_on(loaded, 1), bytes(10))]
        with pytest.raises(ValueError, match="exactly"):
            getattr(loaded, entry)(pages)
        self._assert_every_shard_serves(loaded)

    def test_parent_side_error_mid_fan_out(self, loaded):
        # Shard 0 is already sent its batch when shard 1's page turns
        # out not to fit the frame ring.
        huge = bytes(PAGE * FRAMES_PER_WORKER + 1)
        pages = [(_pid_on(loaded, 0), bytes(PAGE)), (_pid_on(loaded, 1), huge)]
        with pytest.raises(ConfigurationError, match="frame ring"):
            loaded.write_pages(pages)
        self._assert_every_shard_serves(loaded)

    def test_worker_exception_in_broadcast(self, loaded):
        with pytest.raises(ZeroDivisionError):
            loaded.executor.broadcast(_w_fail)
        self._assert_every_shard_serves(loaded)
        assert loaded.executor.broadcast(_w_add, 1, b=2) == [3, 3]

    def test_uncollected_exchange_finished_before_resubmit(self, loaded):
        # Submitting twice to one worker from one thread must not
        # deadlock on the worker lock: the first exchange is finished
        # first, in submission order.
        executor = loaded.executor
        first = executor.submit(1, _w_add, 1)
        second = executor.submit(1, _w_add, 2)
        lower = executor.submit(0, _w_add, 3)
        assert (first.result(), second.result(), lower.result()) == (1, 2, 3)
        _assert_unlocked(executor)
