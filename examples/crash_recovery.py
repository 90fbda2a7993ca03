#!/usr/bin/env python
"""Crash recovery: the full Figure-11 scan vs snapshot+journal restart.

Demonstrates Section 4.5 end to end:

1. run an update workload with periodic write-through on a driver whose
   mapping table is journaled and snapshotted to flash;
2. pull the plug at a random moment (the emulator's crash injection);
3. rebuild the mapping tables with the full Figure-11 scan;
4. restart instead from the newest mapping snapshot plus the journal
   tail (the paper's "further study" item, implemented in
   ``repro.ext.journal``) and compare the cost.

Run:  PYTHONPATH=src python examples/crash_recovery.py
"""

import copy
import random

from repro import CrashError, FlashChip, FlashSpec, PdlDriver, recover_driver
from repro.core.mapping import MappingConfig

SPEC = FlashSpec(n_blocks=128)
PAGES = 512
MAPPING = MappingConfig.auto(SPEC, cache_entries=PAGES // 8)


def _served(driver, versions):
    """Pages serving their last flushed image or a later written one."""
    return sum(1 for pid in range(PAGES) if driver.read_page(pid) in versions[pid])


def main():
    rng = random.Random(2026)
    chip = FlashChip(SPEC)
    driver = PdlDriver(chip, max_differential_size=256, mapping=MAPPING)

    print(f"loading {PAGES} pages…")
    images = {}
    for pid in range(PAGES):
        images[pid] = rng.randbytes(driver.page_size)
        driver.load_page(pid, images[pid])
    driver.end_of_load()

    print("running updates with periodic write-through…")
    chip.crash_after(rng.randrange(400, 900))
    # Every image each page may legally show after the crash: the one
    # made durable by the last flush, or any written since.
    versions = {pid: {image} for pid, image in images.items()}
    try:
        for i in range(5000):
            pid = rng.randrange(PAGES)
            image = bytearray(driver.read_page(pid))
            off = rng.randrange(len(image) - 16)
            image[off : off + 16] = rng.randbytes(16)
            images[pid] = bytes(image)
            versions[pid].add(images[pid])
            driver.write_page(pid, images[pid])
            if i % 50 == 49:
                driver.flush()
                versions = {pid: {image} for pid, image in images.items()}
    except CrashError:
        print("…power failure! volatile tables lost.\n")
    chip.crash_after(None)

    # ---- full scan recovery (Figure 11), on a copy of the crashed chip ----
    replica = copy.deepcopy(chip)
    snap = replica.stats.snapshot()
    scanned, report = recover_driver(replica, max_differential_size=256)
    scan_us = replica.stats.delta_since(snap).totals().time_us
    print("full-scan recovery (PDL_RecoveringfromCrash):")
    print(f"  pages scanned            : {report.pages_scanned}")
    print(f"  base pages adopted       : {report.base_pages_adopted}")
    print(f"  differentials adopted    : {report.differentials_adopted}")
    print(f"  stale pages obsoleted    : {report.stale_pages_obsoleted}")
    print(f"  simulated scan time      : {scan_us / 1000:.1f} ms")
    per_gb = scan_us / SPEC.data_capacity * (1 << 30) / 1e6
    print(f"  extrapolated             : {per_gb:.0f} s per GB "
          "(paper estimates ~60 s/GB)")
    print(f"  pages served             : "
          f"{_served(scanned, versions)}/{PAGES}\n")

    # ---- snapshot + journal restart ---------------------------------------
    snap = chip.stats.snapshot()
    restarted, restart = recover_driver(
        chip, max_differential_size=256, mapping=MAPPING
    )
    fast_us = chip.stats.delta_since(snap).totals().time_us
    print("snapshot+journal restart (the paper's future-work extension):")
    print(f"  fast path taken          : {restart.fast_path}")
    print(f"  snapshot sequence        : {restart.snapshot_seq}")
    print(f"  journal records replayed : {restart.journal_records}")
    print(f"  flash pages read         : {restart.pages_scanned}")
    print(f"  simulated restart time   : {fast_us / 1000:.2f} ms "
          f"({scan_us / max(fast_us, 1e-9):.0f}x faster than the scan)")
    print(f"  pages served             : "
          f"{_served(restarted, versions)}/{PAGES}")
    for pid in range(PAGES):
        assert restarted.read_page(pid) == scanned.read_page(pid), pid


if __name__ == "__main__":
    main()
