"""One façade, three executors: the same stream must give the same answers.

:class:`~repro.sharding.driver.ShardedDriver` owns routing, batching and
every report; its executor only decides where each shard op runs — on
the calling thread (inline, ``xN``), on a worker thread per shard
(thread, ``xN par``) or in a worker process per shard (process, ``xN
proc``).  Shards are independent devices driven in identical per-shard
order, so one seeded update stream must leave equal reads, reports,
counters, clocks and phase splits under all three, before and after
``close()``.

Ops submitted through ``driver.executor`` are pickled by reference for
the process executor, so the helpers below are module-level.
"""

import multiprocessing
import random
from functools import lru_cache

import pytest

from repro.flash.backend import FileBackend
from repro.flash.chip import FlashChip
from repro.flash.spec import FlashSpec
from repro.methods import make_method, parse_parallel_label
from repro.sharding.recovery import recover_all

SPEC = FlashSpec(n_blocks=12, pages_per_block=8, page_data_size=256, page_spare_size=32)
PAGE = SPEC.page_data_size
N_SHARDS = 2
N_PAGES = 40
LABEL = f"PDL (64B) x{N_SHARDS}"
#: Executor kind → label token and the mode ``parse_parallel_label`` reads back.
KINDS = {"inline": ("", False), "thread": (" par", "thread"), "process": (" proc", "process")}
ROTTED_PID = 7


def _probe_read(driver):
    """A raw chip read no driver phase wraps: it lands in the caller's phase."""
    driver.chip.read_page(next(iter(driver.chip.iter_programmed_pages())))


def _rot_base(driver, pid):
    """Flip one bit of ``pid``'s base page in place (bit rot)."""
    addr = driver.ppmt.require(pid).base_addr
    backend = driver.chip.backend
    raw = bytearray(backend.read_data(addr))
    raw[0] ^= 0x01
    backend.write_data(addr, bytes(raw), backend.data_programs(addr))


def _stream(driver, seed=3, n_updates=300):
    """Load under ``phase("load")``, then a seeded mix of single writes,
    batched writes and both group-flush forms; returns the model."""
    rng = random.Random(seed)
    model = {pid: rng.randbytes(PAGE) for pid in range(N_PAGES)}
    with driver.stats.phase("load"):
        driver.load_pages(model.items())
        driver.executor.broadcast(_probe_read)
        driver.executor.run(0, _probe_read)
    driver.end_of_load()
    batch = {}
    for i in range(n_updates):
        pid = rng.randrange(N_PAGES)
        image = bytearray(model[pid])
        offset = rng.randrange(PAGE - 32)
        image[offset : offset + 32] = rng.randbytes(32)
        model[pid] = bytes(image)
        # A pid already staged for a batch must stay batched, or the
        # eventual batch would overwrite newer data.
        if i % 3 == 0 or pid in batch:
            batch[pid] = model[pid]
            if len(batch) >= 8:
                if i % 2:
                    driver.write_pages(list(batch.items()))
                else:
                    driver.group_flush(list(batch.items()))
                batch.clear()
        else:
            driver.write_page(pid, model[pid])
        if i % 40 == 39:
            driver.group_flush()
    driver.group_flush(list(batch.items()))
    return model


def _counters(driver):
    stats = driver.stats
    return {
        "per_shard_totals": [shard.totals() for shard in stats.per_shard()],
        "phases": stats.phases,
        "chip_clocks": driver.chip_clocks(),
        "differential_pages": driver.differential_page_count(),
        "horizon": driver.allocation_horizon(),
        "gc_report": driver.gc_report(),
        "wear_report": driver.wear_report(),
    }


@lru_cache(maxsize=None)
def _observe(kind):
    """Run the stream on one executor; everything the façade reports."""
    token, _mode = KINDS[kind]
    driver = make_method(LABEL + token, [FlashChip(SPEC) for _ in range(N_SHARDS)])
    try:
        model = _stream(driver)
        observed = {
            "name": driver.name,
            "model": model,
            "reads": {pid: driver.read_page(pid) for pid in range(N_PAGES)},
            "load": driver.stats.of_phase("load"),
            "unattributed": driver.stats.of_phase("unattributed"),
            "clean_fsck": driver.fsck(repair=False),
        }
        driver.executor.run(driver.shard_index(ROTTED_PID), _rot_base, ROTTED_PID)
        observed["fsck"] = driver.fsck(repair=True)
        observed["open"] = _counters(driver)
    finally:
        driver.close()
    observed["closed"] = _counters(driver)
    return observed


@pytest.fixture(scope="module", autouse=True)
def _no_leaked_children_at_module_exit():
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="module", params=list(KINDS))
def kind(request):
    return request.param


@pytest.fixture(scope="module")
def observed(kind):
    return _observe(kind)


@pytest.fixture(scope="module")
def reference():
    return _observe("inline")


def test_reads_match_the_model(observed):
    assert observed["reads"] == observed["model"]


def test_reports_match_inline(observed, reference):
    assert reference["open"]["gc_report"]["total_collections"] > 0  # GC ran
    for key in ("gc_report", "wear_report"):
        assert observed["open"][key] == reference["open"][key], key
    assert observed["clean_fsck"].clean
    assert observed["clean_fsck"] == reference["clean_fsck"]


def test_fsck_dispositions_match_inline(observed, reference):
    report = observed["fsck"]
    assert report.detected == 1
    assert [fault.pid for fault in report.faults] == [ROTTED_PID]
    assert report == reference["fsck"]


def test_counters_and_clocks_match_inline(observed, reference):
    for key in ("per_shard_totals", "phases", "chip_clocks", "differential_pages", "horizon"):
        assert observed["open"][key] == reference["open"][key], key
    assert observed["open"]["horizon"] == N_PAGES


def test_phase_travels_with_each_op(observed, reference):
    # PDL pushes its own "load" phase around the bulk load; only the raw
    # probe reads carry the caller's phase: one per shard from the
    # fan-out, one from the single-shard run.
    assert observed["load"].reads == N_SHARDS + 1
    assert observed["load"] == reference["load"]
    assert observed["unattributed"].total_ops == 0


def test_state_readable_after_close(observed, reference):
    assert observed["closed"] == observed["open"]
    assert observed["closed"] == reference["closed"]


def test_name_round_trips_through_the_parser(observed, kind):
    token, mode = KINDS[kind]
    assert observed["name"] == LABEL + token
    assert parse_parallel_label(observed["name"]) == (LABEL, mode)


@pytest.mark.parametrize("kind", list(KINDS))
def test_close_is_not_a_flush(kind, tmp_path):
    """``close()`` drops what PDL still buffers, as a crash would: a
    small update held in the differential write buffer is gone after
    recovery, and every earlier flushed image survives."""
    token, _mode = KINDS[kind]
    paths = [str(tmp_path / f"shard{i}.img") for i in range(N_SHARDS)]
    chips = [FlashChip(SPEC, backend=FileBackend.create(path, SPEC)) for path in paths]
    driver = make_method(LABEL + token, chips)
    rng = random.Random(11)
    model = {pid: rng.randbytes(PAGE) for pid in range(N_PAGES)}
    pid = 5
    try:
        driver.load_pages(model.items())
        driver.end_of_load()
        driver.group_flush()
        image = bytearray(model[pid])
        image[10:14] = b"\x00\x01\x02\x03"
        driver.write_page(pid, bytes(image))
        assert driver.read_page(pid) == bytes(image)
    finally:
        driver.close()
    reopened = [FlashChip(SPEC, backend=FileBackend.open(path, SPEC)) for path in paths]
    recovered, _reports = recover_all(reopened, max_differential_size=64)
    try:
        assert {p: recovered.read_page(p) for p in model} == model
    finally:
        recovered.close()


@pytest.mark.parametrize("kind", list(KINDS))
def test_phase_and_reset_fetch_no_collectors(kind, monkeypatch):
    """``stats.phase`` and ``stats.reset`` act where the phase stack and
    collectors live; only a counter read fetches the collectors."""
    token, _mode = KINDS[kind]
    driver = make_method(LABEL + token, [FlashChip(SPEC) for _ in range(N_SHARDS)])
    try:
        driver.load_pages((pid, bytes(PAGE)) for pid in range(N_PAGES))
        inspected = []
        inspect = driver.executor.inspect
        monkeypatch.setattr(
            driver.executor, "inspect", lambda op: inspected.append(op) or inspect(op)
        )
        stats = driver.stats
        with stats.phase("load"):
            driver.write_page(1, bytes(PAGE))
        stats.reset()
        assert inspected == []
        assert stats.totals().total_ops == 0
        assert len(inspected) == 1
    finally:
        driver.close()
