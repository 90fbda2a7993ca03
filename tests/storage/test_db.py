"""Database façade tests: allocation horizon errors, resume, sharding."""

import pytest

from repro.core.pdl import PdlDriver
from repro.flash.chip import FlashChip
from repro.flash.spec import TINY_SPEC, FlashSpec
from repro.ftl.errors import FtlError, UnallocatedPageError, UnknownPageError
from repro.methods import make_method
from repro.storage.db import Database


def _db(buffer_capacity=4):
    driver = PdlDriver(FlashChip(TINY_SPEC), max_differential_size=64)
    return Database(driver, buffer_capacity)


class TestUnallocatedPageError:
    def test_unallocated_pid_raises_dedicated_error(self):
        db = _db()
        db.allocate_page()
        with pytest.raises(UnallocatedPageError):
            db.page(1)
        with pytest.raises(UnallocatedPageError):
            db.page(-1)

    def test_error_is_distinguishable_in_the_hierarchy(self):
        """Callers can catch it as an FTL-layer condition — unlike a bare
        ValueError — and tell it apart from mapping corruption."""
        db = _db()
        try:
            db.page(99)
        except UnknownPageError as exc:
            assert isinstance(exc, UnallocatedPageError)
            assert isinstance(exc, FtlError)
        else:
            pytest.fail("expected UnallocatedPageError")

    def test_allocated_page_still_served(self):
        db = _db()
        page = db.allocate_page()
        assert db.page(page.pid) is page


class TestResume:
    def test_resume_restores_allocation_horizon(self):
        db = _db()
        for _ in range(5):
            db.allocate_page()
        db.flush()
        cold = Database.resume(db.driver, 4, db.allocated_pages)
        assert cold.allocated_pages == 5
        assert cold.page(4).pid == 4
        with pytest.raises(UnallocatedPageError):
            cold.page(5)

    def test_resume_validates_horizon(self):
        db = _db()
        with pytest.raises(ValueError):
            Database.resume(db.driver, 4, -1)


class TestShardedDatabase:
    """A Database over a ShardedDriver, transparently (Figure 10 with N
    chips below the same unmodified engine)."""

    SPEC = FlashSpec(
        n_blocks=8, pages_per_block=8, page_data_size=256, page_spare_size=16
    )

    def test_engine_is_oblivious_to_sharding(self):
        chips = [FlashChip(self.SPEC) for _ in range(3)]
        driver = make_method("PDL (64B) x3", chips)
        db = Database(driver, buffer_capacity=4)
        for _ in range(12):
            page = db.allocate_page()
            page.write(0, bytes([page.pid]) * db.page_size)
        db.flush()
        # flushing the pool group-flushed every shard's write buffer
        assert driver.group_flushes >= 1
        assert all(shard.buffer.is_empty for shard in driver.shards)
        for pid in range(12):
            assert db.page(pid).data == bytes([pid]) * db.page_size
        # traffic really spread over the chips
        busy = [chip for chip in chips if chip.stats.totals().writes > 0]
        assert len(busy) >= 2


class TestPersistentOpen:
    """Database.open/close over FileBackend images (in-process reopen;
    cross-process death is covered by test_restart_durability)."""

    SPEC = FlashSpec(
        n_blocks=12, pages_per_block=8, page_data_size=256, page_spare_size=16
    )

    def _populate(self, db, n=8):
        images = {}
        for _ in range(n):
            page = db.allocate_page()
            data = bytes([page.pid + 1]) * db.page_size
            page.write(0, data)
            images[page.pid] = data
        db.flush()
        return images

    def test_create_reopen_roundtrip(self, tmp_path):
        with Database.open(
            tmp_path, spec=self.SPEC, max_differential_size=64, buffer_capacity=4
        ) as db:
            images = self._populate(db)
        with Database.open(tmp_path) as db2:
            assert db2.allocated_pages == len(images)
            for pid, data in images.items():
                assert db2.page(pid).data == data

    def test_reopen_restores_allocation_horizon(self, tmp_path):
        with Database.open(
            tmp_path, spec=self.SPEC, max_differential_size=64, buffer_capacity=4
        ) as db:
            self._populate(db, n=5)
        with Database.open(tmp_path) as db2:
            with pytest.raises(UnallocatedPageError):
                db2.page(5)
            page = db2.allocate_page()
            assert page.pid == 5  # allocation continues after the horizon

    def test_sharded_database_uses_one_image_per_shard(self, tmp_path):
        with Database.open(
            tmp_path,
            spec=self.SPEC,
            n_shards=3,
            max_differential_size=64,
            buffer_capacity=4,
        ) as db:
            self._populate(db, n=9)
        images = sorted(p.name for p in tmp_path.glob("shard-*.flash"))
        assert images == ["shard-0000.flash", "shard-0001.flash", "shard-0002.flash"]
        with Database.open(tmp_path) as db2:
            assert db2.driver.n_shards == 3
            for pid in range(9):
                assert db2.page(pid).data == bytes([pid + 1]) * db2.page_size

    def test_close_is_idempotent_and_reopenable(self, tmp_path):
        db = Database.open(
            tmp_path, spec=self.SPEC, max_differential_size=64, buffer_capacity=4
        )
        self._populate(db, n=3)
        db.close()
        db.close()  # second close is a no-op
        with Database.open(tmp_path) as db2:
            assert db2.allocated_pages == 3

    def test_read_cache_reaches_the_chips(self, tmp_path):
        with Database.open(
            tmp_path,
            spec=self.SPEC,
            max_differential_size=64,
            buffer_capacity=2,
            read_cache_pages=16,
        ) as db:
            self._populate(db, n=6)
            # Tiny pool forces flash reads; the chip cache absorbs some.
            for pid in (0, 1, 2, 3) * 6:
                db.page(pid)
            chip = db.driver.chip
            assert chip.cache is not None
            assert chip.stats.cache_hits > 0


class TestParallelOpen:
    """Database.open(parallel=True): worker-threaded shard execution."""

    SPEC = FlashSpec(
        n_blocks=12, pages_per_block=8, page_data_size=256, page_spare_size=16
    )

    def _populate(self, db, n=8):
        images = {}
        for _ in range(n):
            page = db.allocate_page()
            data = bytes([page.pid + 1]) * db.page_size
            page.write(0, data)
            images[page.pid] = data
        db.flush()
        return images

    def test_parallel_create_and_serial_reopen(self, tmp_path):
        from repro.sharding.executor import ThreadExecutor

        with Database.open(
            tmp_path,
            spec=self.SPEC,
            n_shards=3,
            max_differential_size=64,
            buffer_capacity=4,
            parallel=True,
        ) as db:
            assert isinstance(db.driver.executor, ThreadExecutor)
            images = self._populate(db, n=9)
        # parallel is runtime state — a plain reopen recovers serially.
        with Database.open(tmp_path) as db2:
            assert not isinstance(db2.driver.executor, ThreadExecutor)
            for pid, data in images.items():
                assert db2.page(pid).data == data

    def test_parallel_reopen_recovers_concurrently(self, tmp_path):
        from repro.sharding.executor import ThreadExecutor

        with Database.open(
            tmp_path,
            spec=self.SPEC,
            n_shards=2,
            max_differential_size=64,
            buffer_capacity=4,
        ) as db:
            images = self._populate(db, n=6)
        with Database.open(tmp_path, parallel=True) as db2:
            assert isinstance(db2.driver.executor, ThreadExecutor)
            for pid, data in images.items():
                assert db2.page(pid).data == data

    def test_parallel_single_shard_gets_the_facade(self, tmp_path):
        from repro.sharding.executor import ThreadExecutor

        with Database.open(
            tmp_path,
            spec=self.SPEC,
            max_differential_size=64,
            buffer_capacity=4,
            parallel=True,
        ) as db:
            assert isinstance(db.driver.executor, ThreadExecutor)
            assert db.driver.n_shards == 1
            images = self._populate(db, n=4)
        with Database.open(tmp_path, parallel=True) as db2:
            assert isinstance(db2.driver.executor, ThreadExecutor)
            for pid, data in images.items():
                assert db2.page(pid).data == data


class TestGcConfigPassthrough:
    """GC tuning flows through Database.open to every shard driver."""

    def test_open_with_gc_config_and_reopen(self, tmp_path):
        from repro.ftl.gc import GcConfig, cost_benefit_policy

        config = GcConfig(policy="cb", incremental_steps=2, hot_cold=True)
        with Database.open(
            tmp_path / "db", n_shards=2, buffer_capacity=8, gc_config=config
        ) as db:
            for shard in db.driver.shards:
                assert shard.gc.config is config
                assert shard.gc.policy is cost_benefit_policy
            page = db.allocate_page()
            page.write(0, b"\x07" * db.page_size)
            db.flush()
        # GC tuning is runtime state: it is re-supplied on reopen and
        # reaches the recovered per-shard drivers.
        with Database.open(tmp_path / "db", buffer_capacity=8, gc_config=config) as db:
            for shard in db.driver.shards:
                assert shard.gc.config is config
            assert bytes(db.page(0).data) == b"\x07" * db.page_size

    def test_volatile_database_with_sharded_gc_label(self):
        from repro.flash.chip import FlashChip
        from repro.flash.spec import TINY_SPEC
        from repro.methods import make_method

        chips = [FlashChip(TINY_SPEC) for _ in range(2)]
        driver = make_method("PDL (64B) x2 gc=wear", chips)
        db = Database(driver, buffer_capacity=8)
        page = db.allocate_page()
        page.write(0, b"\x11" * db.page_size)
        db.flush()
        assert all(s.gc.config.policy == "wear" for s in db.driver.shards)
