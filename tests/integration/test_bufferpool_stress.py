"""Thread-safety stress: many clients sharing one buffer pool.

Eight client threads hammer one :class:`Database` — a shared
:class:`BufferManager` with background write-back over a 4-shard
``x4 par`` array (thread executor) — on both device backends.  Each client
owns a disjoint pid partition (the same single-writer-per-pid contract
as the driver-level stress test) and accesses pages exclusively through
``pool.pinned``.  Afterwards the pool is held to the full standard:

* every page reads back its expected per-thread deterministic image,
  from flash, after a final flush;
* ``check.py`` finds all four shards internally consistent;
* no pins leak: every resident frame ends with ``pin_count == 0``;
* the :class:`BufferStats` audit: pool misses equal the driver-level
  read count exactly (lost miss races included), and the pool's flashed
  pages (dirty evictions + flushes + background write-back) equal the
  driver-level written-page count — no page write is lost or
  double-counted when eviction, flushing and the daemon interleave.
"""

import random
import threading
import time

import pytest

from repro.core.check import check_driver
from repro.flash.backend import FileBackend
from repro.flash.chip import FlashChip
from repro.flash.spec import FlashSpec
from repro.ftl.gc import GcConfig
from repro.methods import make_method
from repro.storage.bufferpool import WritebackConfig
from repro.storage.db import Database

SPEC = FlashSpec(n_blocks=14, pages_per_block=8, page_data_size=256, page_spare_size=16)
PAGE = SPEC.page_data_size

N_SHARDS = 4
N_CLIENTS = 8
N_PAGES = 160
BUFFER_PAGES = 48
OPS_PER_CLIENT = 120


class CountingDriver:
    """Proxy that counts driver-level reads and written pages.

    The counters are ground truth outside the stats layer, taken at the
    pool/driver seam; everything else delegates to the real parallel
    driver.
    """

    def __init__(self, inner):
        self._inner = inner
        self._lock = threading.Lock()
        self.reads = 0
        self.pages_written = 0

    def read_page(self, pid):
        with self._lock:
            self.reads += 1
        return self._inner.read_page(pid)

    def write_page(self, pid, data, update_logs=None):
        with self._lock:
            self.pages_written += 1
        self._inner.write_page(pid, data, update_logs=update_logs)

    def write_pages(self, pages, update_logs=None):
        pages = list(pages)
        with self._lock:
            self.pages_written += len(pages)
        self._inner.write_pages(pages, update_logs=update_logs)

    def group_flush(self, pages=None, update_logs=None):
        if pages is not None:
            pages = list(pages)
            with self._lock:
                self.pages_written += len(pages)
        self._inner.group_flush(pages=pages, update_logs=update_logs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_eight_clients_share_one_pool(backend, tmp_path):
    chips = []
    for i in range(N_SHARDS):
        device = None
        if backend == "file":
            device = FileBackend.create(str(tmp_path / f"shard-{i}.flash"), SPEC)
        chips.append(FlashChip(SPEC, backend=device))
    raw_driver = make_method(
        f"PDL (64B) x{N_SHARDS} par",
        chips,
        gc_config=GcConfig(incremental_steps=2, hot_cold=True),
    )
    driver = CountingDriver(raw_driver)
    seed_rng = random.Random(20100220)
    model = [seed_rng.randbytes(PAGE) for _ in range(N_PAGES)]
    raw_driver.load_pages(list(enumerate(model)))
    raw_driver.end_of_load()
    db = Database.resume(
        driver,
        BUFFER_PAGES,
        N_PAGES,
        buffer_policy="lru",
        writeback=WritebackConfig(high_watermark=0.4, low_watermark=0.15),
    )
    try:
        errors = []

        def client(t):
            rng = random.Random(3000 + t)
            pids = list(range(t, N_PAGES, N_CLIENTS))
            try:
                for op in range(OPS_PER_CLIENT):
                    pid = pids[rng.randrange(len(pids))]
                    with db.pool.pinned(pid) as page:
                        # Verify against the model, then mutate it.
                        current = page.data
                        assert current == model[pid], f"client {t}: stale {pid}"
                        image = bytearray(current)
                        offset = rng.randrange(PAGE - 24)
                        image[offset : offset + 24] = rng.randbytes(24)
                        model[pid] = bytes(image)
                        page.write(offset, model[pid][offset : offset + 24])
                    if op % 40 == 39:
                        db.flush()
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(t,), name=f"pool-client-{t}")
            for t in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        db.flush()

        stats = db.buffer_stats
        assert stats.hits + stats.misses == N_CLIENTS * OPS_PER_CLIENT

        # The daemon must demonstrably participate.  Client flushes can
        # in principle always beat it to the dirty pages under unlucky
        # scheduling, so nudge it deterministically if needed: re-dirty
        # a batch (writing identical bytes, so the model stays true)
        # and wait for the watermark flush.
        if stats.writeback_pages == 0:
            deadline = time.monotonic() + 30.0
            while stats.writeback_pages == 0 and time.monotonic() < deadline:
                for pid in range(32):
                    with db.pool.pinned(pid) as page:
                        page.write(0, model[pid][:1])
                time.sleep(0.01)
            db.flush()
        assert stats.writeback_pages > 0, "background write-back never ran"

        # The stats audit, *before* the verification reads below touch
        # the driver outside the pool.
        assert stats.misses == driver.reads, (
            f"pool misses {stats.misses} != driver reads {driver.reads}"
        )
        assert stats.flashed_pages == driver.pages_written, (
            f"pool flashed pages {stats.flashed_pages} != driver writes "
            f"{driver.pages_written}"
        )

        # No pin leaks: every resident frame is unpinned.
        leaked = [page.pid for page in db.pool.pages() if page.pin_count]
        assert not leaked, f"leaked pins on pages {leaked}"
        assert db.pool.pinned_count() == 0
        assert db.pool.dirty_count == 0  # everything flushed

        # Every client's final image survived the interleaving.
        for pid in range(N_PAGES):
            assert raw_driver.read_page(pid) == model[pid], f"pid {pid} corrupted"

        # Each shard passes the full fsck cross-validation.
        for shard in raw_driver.shards:
            check_driver(shard).raise_if_inconsistent()
    finally:
        db.pool.close()
        raw_driver.close()
