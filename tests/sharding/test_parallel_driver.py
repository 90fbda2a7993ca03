"""The thread executor: equivalence with the serial array + plumbing."""

import random
import threading

import pytest

from repro.core.check import check_driver
from repro.flash.chip import FlashChip
from repro.flash.spec import FlashSpec
from repro.ftl.errors import ConcurrencyError, ConfigurationError
from repro.ftl.gc import GcConfig
from repro.methods import make_method, parse_parallel_label
from repro.sharding.driver import ShardedDriver
from repro.sharding.executor import ShardExecutor, ThreadExecutor
from repro.sharding.recovery import recover_all

SPEC = FlashSpec(n_blocks=12, pages_per_block=8, page_data_size=256, page_spare_size=16)
PAGE = SPEC.page_data_size
N_PAGES = 40


def _chips(n):
    return [FlashChip(SPEC) for _ in range(n)]


def _workload(driver, n_updates=300, seed=3):
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
        # A pid already staged for the batched flush must stay batched,
        # or the eventual write_pages would overwrite newer data.
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


class TestLabelPlumbing:
    def test_par_label_builds_parallel_driver(self):
        driver = make_method("PDL (64B) x2 par", _chips(2))
        try:
            assert isinstance(driver, ShardedDriver)
            assert isinstance(driver.executor, ThreadExecutor)
            assert driver.name == "PDL (64B) x2 par"
        finally:
            driver.close()

    def test_name_round_trips_through_parser(self):
        driver = make_method("PDL (64B) x2 par", _chips(2))
        try:
            rest, parallel = parse_parallel_label(driver.name)
            assert parallel and rest == "PDL (64B) x2"
        finally:
            driver.close()

    def test_par_composes_with_gc_token(self):
        driver = make_method("PDL (64B) x2 par gc=cb", _chips(2))
        try:
            assert isinstance(driver.executor, ThreadExecutor)
            assert all(s.gc.policy_label == "cb" for s in driver.shards)
        finally:
            driver.close()

    def test_par_without_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            make_method("PDL (64B) par", FlashChip(SPEC))

    def test_duplicate_par_token_rejected(self):
        with pytest.raises(ValueError):
            parse_parallel_label("PDL (64B) x2 par par")

    def test_mismatched_executor_rejected(self):
        chips = _chips(2)
        shards = [make_method("PDL (64B)", chip) for chip in chips]
        with ShardExecutor(3) as pool:
            with pytest.raises(ConcurrencyError):
                ThreadExecutor(shards, pool=pool)


class TestEquivalenceWithSerial:
    """Shards are independent devices driven in identical per-shard
    order, so the parallel driver must leave byte-identical flash."""

    def test_flash_state_and_stats_match_serial(self):
        serial_chips = _chips(4)
        serial = make_method("PDL (64B) x4 gc=cb", serial_chips)
        model = _workload(serial)

        parallel_chips = _chips(4)
        parallel = make_method("PDL (64B) x4 gc=cb par", parallel_chips)
        try:
            parallel_model = _workload(parallel)
            assert parallel_model == model
            for s_chip, p_chip in zip(serial_chips, parallel_chips):
                assert s_chip.stats.totals() == p_chip.stats.totals()
                assert s_chip.clock_us == p_chip.clock_us
                for addr in range(SPEC.n_pages):
                    assert s_chip.peek_data(addr) == p_chip.peek_data(addr)
            for pid, data in model.items():
                assert parallel.read_page(pid) == data
            for shard in parallel.shards:
                check_driver(shard).raise_if_inconsistent()
        finally:
            parallel.close()

    def test_phase_attribution_travels_to_workers(self):
        driver = make_method("PDL (64B) x2 par", _chips(2))
        try:
            rng = random.Random(1)
            with driver.stats.phase("custom_phase"):
                driver.load_pages(
                    (pid, rng.randbytes(PAGE)) for pid in range(8)
                )
            counts = driver.stats.of_phase("custom_phase")
            # The shard drivers push their own inner "load" phase; the
            # outer custom phase must at least exist on the stack the
            # worker uses, i.e. attribution must not leak to the
            # unattributed default.
            assert driver.stats.of_phase("unattributed").total_ops == 0
            assert counts.total_ops + driver.stats.of_phase("load").total_ops > 0
        finally:
            driver.close()


class TestOwnershipGuard:
    def test_gc_hooks_rejected_off_worker_thread(self):
        driver = make_method(
            "PDL (64B) x2 par", _chips(2), gc_config=GcConfig(incremental_steps=1)
        )
        try:
            with pytest.raises(ConcurrencyError):
                driver.shards[0].gc.on_write_begin()
            # Routed through the mailbox, the same hook is legal.
            driver.write_page(0, b"\x00" * PAGE)
        finally:
            driver.close()

    def test_direct_shard_write_bypassing_mailbox_rejected(self):
        driver = make_method("PDL (64B) x2 par", _chips(2))
        try:
            with pytest.raises(ConcurrencyError):
                driver.shards[0].write_page(0, b"\x00" * PAGE)
        finally:
            driver.close()

    def test_unbinding_restores_direct_use(self):
        driver = make_method("PDL (64B) x2 par", _chips(2))
        try:
            for shard in driver.shards:
                shard.gc.bind_owner_thread(None)
            driver.shards[0].write_page(0, b"\x00" * PAGE)
        finally:
            driver.close()


class TestParallelRecovery:
    def test_parallel_scan_matches_serial_scan(self):
        chips = _chips(3)
        driver = make_method("PDL (64B) x3", chips)
        model = _workload(driver, n_updates=150)

        serial, serial_reports = recover_all(chips, parallel=False)
        parallel, parallel_reports = recover_all(chips, parallel=True)
        try:
            assert isinstance(parallel.executor, ThreadExecutor)
            for ser, par in zip(serial_reports, parallel_reports):
                assert ser.pages_scanned == par.pages_scanned
                assert ser.base_pages_adopted == par.base_pages_adopted
                assert ser.differentials_adopted == par.differentials_adopted
                assert ser.max_timestamp == par.max_timestamp
            for pid, data in model.items():
                assert parallel.read_page(pid) == data
        finally:
            parallel.executor.shutdown()

    def test_recovered_driver_usable_from_many_threads(self):
        chips = _chips(2)
        driver = make_method("PDL (64B) x2", chips)
        model = _workload(driver, n_updates=100)
        recovered, _ = recover_all(chips, parallel=True)
        try:
            errors = []

            def reader(t):
                try:
                    for pid in range(t, N_PAGES, 4):
                        assert recovered.read_page(pid) == model[pid]
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
        finally:
            recovered.executor.shutdown()
