"""Clean-shutdown fast restart (the paper's future-work item).

A clean shutdown is a mapping snapshot with an empty journal
(:class:`repro.ext.journal.MappingStore`); restart loads it instead of
scanning every page of the device.  The crash side of the same restart
path is covered by the journal crash matrix in ``test_journal.py``.
"""

import random

from repro.core.mapping import MAPPING_PHASE, MappingConfig
from repro.core.pdl import PdlDriver
from repro.ext.journal import restart_driver
from repro.flash.chip import FlashChip

MAX_DIFF = 64


def _fresh(tiny_spec):
    cfg = MappingConfig.auto(tiny_spec)
    chip = FlashChip(tiny_spec)
    driver = PdlDriver(chip, max_differential_size=MAX_DIFF, mapping=cfg)
    return chip, driver, cfg


def _restart(chip, cfg):
    return restart_driver(chip, max_differential_size=MAX_DIFF, mapping=cfg)


def _churn(driver, rng, images, n):
    for _ in range(n):
        pid = rng.randrange(len(images))
        image = bytearray(images[pid])
        off = rng.randrange(len(image) - 4)
        image[off : off + 4] = rng.randbytes(4)
        images[pid] = bytes(image)
        driver.write_page(pid, images[pid])


class TestFastRestart:
    def test_clean_shutdown_restarts_fast(self, tiny_spec):
        chip, driver, cfg = _fresh(tiny_spec)
        rng = random.Random(1)
        images = {}
        for pid in range(10):
            images[pid] = rng.randbytes(driver.page_size)
            driver.load_page(pid, images[pid])
        _churn(driver, rng, images, 60)
        driver.flush()
        driver.mapping.snapshot()
        restarted, report = _restart(chip, cfg)
        assert report.fast_path
        assert not report.fallback
        for pid, expected in images.items():
            assert restarted.read_page(pid) == expected

    def test_fast_restart_skips_full_scan(self, tiny_spec):
        chip, driver, cfg = _fresh(tiny_spec)
        for pid in range(10):
            driver.load_page(pid, bytes([pid]) * driver.page_size)
        driver.flush()
        driver.mapping.snapshot()
        snap = chip.stats.snapshot()
        _restart(chip, cfg)
        delta = chip.stats.delta_since(snap)
        assert delta.totals().reads < tiny_spec.n_pages // 2
        assert delta.of_phase(MAPPING_PHASE).reads < tiny_spec.n_pages // 2

    def test_restart_continues_operation(self, tiny_spec):
        chip, driver, cfg = _fresh(tiny_spec)
        rng = random.Random(2)
        images = {}
        for pid in range(10):
            images[pid] = rng.randbytes(driver.page_size)
            driver.load_page(pid, images[pid])
        driver.flush()
        driver.mapping.snapshot()
        restarted, _ = _restart(chip, cfg)
        _churn(restarted, rng, images, 80)
        for pid, expected in images.items():
            assert restarted.read_page(pid) == expected
        restarted.flush()
        restarted.mapping.snapshot()  # a second shutdown cycle works too
        again, report = _restart(chip, cfg)
        assert report.fast_path
        for pid, expected in images.items():
            assert again.read_page(pid) == expected
