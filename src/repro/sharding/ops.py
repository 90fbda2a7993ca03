"""Shard operations: every call the sharded façade makes on one shard.

Each function here is ``op(shard_driver, *args)`` and lives at module
level, so the same op object runs on the calling thread (inline
executor), on a shard's worker thread (thread executor) or, pickled by
reference, inside a shard's worker process (process executor).  The
façade names *what* to run; the executor decides *where*.

The process executor maps the page-carrying ops (``read_page``,
``write_page``, ``load_page``, ``write_pages``, ``load_pages``,
``write_then_flush``) onto its shared-memory frame ring; every other op
crosses the pipe as a plain call.  The read-only ops in
:data:`SNAPSHOT` are the ones a process executor snapshots at shutdown,
so reports still resolve after ``close()``.
"""

from __future__ import annotations

from typing import Dict


# ----------------------------------------------------------------------
# Page traffic
# ----------------------------------------------------------------------
def load_page(driver, pid, data):
    driver.load_page(pid, data)


def read_page(driver, pid):
    return driver.read_page(pid)


def write_page(driver, pid, data, update_logs=None):
    driver.write_page(pid, data, update_logs=update_logs)


def load_pages(driver, pages):
    driver.load_pages(pages)


def write_pages(driver, pages, update_logs=None):
    driver.write_pages(pages, update_logs=update_logs)


def write_then_flush(driver, pages, update_logs=None):
    """One shard's part of a group flush: its slice of the batch, then
    its buffers drained (shards with no pages in the batch still flush)."""
    if pages:
        driver.write_pages(pages, update_logs=update_logs)
    driver.flush()


def flush(driver):
    driver.flush()


def end_of_load(driver):
    driver.end_of_load()


# ----------------------------------------------------------------------
# Device lifecycle and maintenance
# ----------------------------------------------------------------------
def sync(driver):
    driver.chip.sync()


def close(driver):
    """Close the shard's chip *without* flushing the driver: buffered
    differentials are lost, as on a crash."""
    driver.chip.close()


def reset_stats(driver):
    driver.stats.reset()


def fsck(driver, repair):
    from ..core.fsck import FsckReport

    if hasattr(driver, "fsck"):
        return driver.fsck(repair=repair)
    return FsckReport()


def describe(driver) -> Dict[str, object]:
    """The static facts the façade needs about a shard."""
    return {
        "name": driver.name,
        "page_size": driver.page_size,
        "spec": driver.spec,
        "tightly_coupled": bool(driver.tightly_coupled),
        "effective_max": getattr(driver, "effective_max", None),
    }


def dump_image(driver):
    """Flash image of the shard's chip, for equivalence testing."""
    return dump_chip_image(driver.chip)


def dump_chip_image(chip) -> Dict[str, object]:
    """Programmed pages (data, spare) and per-block erase counts."""
    pages = {}
    for addr in chip.iter_programmed_pages():
        pages[addr] = (chip.peek_data(addr), chip.peek_spare(addr))
    erases = [chip.erase_count(b) for b in range(chip.spec.n_blocks)]
    return {"pages": pages, "erase_counts": erases}


# ----------------------------------------------------------------------
# Read-only introspection
# ----------------------------------------------------------------------
def stats(driver):
    return driver.stats


def clock(driver):
    return driver.chip.clock_us


def gc_info(driver):
    gc = getattr(driver, "gc", None)
    if gc is None:
        return None
    return {
        "policy": gc.policy_label,
        "collections": gc.collections,
        "pages_relocated": gc.pages_relocated,
        "incremental_steps": gc.steps,
        "debt_blocks": gc.gc_debt(),
        "gc_time_us": gc.gc_time_us,
    }


def differential_pages(driver):
    if hasattr(driver, "differential_page_count"):
        return driver.differential_page_count()
    return 0


def horizon(driver):
    """Highest mapped pid + 1 (0 for drivers without a mapping table)."""
    ppmt = getattr(driver, "ppmt", None)
    if ppmt is None:
        return 0
    top = getattr(ppmt, "max_pid", None)
    if top is not None:
        # Tiered tables track the horizon; a full walk would demand-page
        # every snapshot page of the shard just to find the max.
        return top + 1
    return max((pid for pid, _entry in ppmt.items()), default=-1) + 1


#: Read-only ops whose results outlive a process executor's workers.
SNAPSHOT = (stats, clock, gc_info, differential_pages, horizon)


def snapshot(driver):
    """Every :data:`SNAPSHOT` op's result, in that order."""
    return [op(driver) for op in SNAPSHOT]
