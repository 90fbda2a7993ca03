"""Spawn-safety: everything that crosses a process boundary must pickle.

The ``spawn`` start method ships :class:`ShardFactory` recipes to fresh
interpreters and returns results, reports and exceptions over a pipe —
all via pickle.  These tests pin the contract for every public config,
report and error type so a new field (or a closure smuggled into a
default) cannot silently break ``"... xN proc"`` execution.
"""

import pickle

import pytest

from repro.core.fsck import FsckReport, PageFault
from repro.core.recovery import RecoveryReport
from repro.flash.errors import (
    AddressError,
    ChecksumError,
    CrashError,
    EraseError,
    FlashError,
    ProgramError,
    SimulatedPowerLoss,
    SpareProgramError,
    WearOutError,
)
from repro.flash.spare import PageType, SpareArea
from repro.flash.spec import TINY_SPEC, FlashSpec
from repro.flash.stats import FlashStats
from repro.ftl.base import ChangeRun
from repro.ftl.errors import (
    ConcurrencyError,
    ConfigurationError,
    FtlError,
    OutOfSpaceError,
    UnallocatedPageError,
    UnknownPageError,
)
from repro.ftl.gc import GcConfig
from repro.sharding.executor_proc import ShardFactory, WorkerCrashError


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


CONFIG_OBJECTS = [
    TINY_SPEC,
    FlashSpec(n_blocks=8, pages_per_block=4, page_data_size=128, page_spare_size=16),
    GcConfig(),
    GcConfig(policy="cb", incremental_steps=4, hot_cold=True),
    ChangeRun(offset=12, data=b"\x01\x02"),
    SpareArea(),
    SpareArea(type=PageType.BASE, pid=7, timestamp=42, checksum=0xDEAD),
    RecoveryReport(pages_scanned=64, orphan_pids=[3, 9], max_timestamp=17),
    PageFault(addr=5, role="base", kind="checksum", pid=2, action="repaired_copy"),
    FsckReport(pages_scanned=64, stale_pids=[1], scan_reads=70),
    ShardFactory(label="PDL (256B)", spec=TINY_SPEC),
    ShardFactory(
        label="PDL (64B)",
        spec=TINY_SPEC,
        path="/tmp/x.img",
        recover=True,
        realtime_scale=0.5,
        driver_kwargs={"coalesce_gap": 2},
    ),
]


@pytest.mark.parametrize(
    "obj", CONFIG_OBJECTS, ids=lambda o: type(o).__name__
)
def test_config_objects_pickle_round_trip(obj):
    assert _round_trip(obj) == obj


ERROR_TYPES = [
    FlashError,
    AddressError,
    ProgramError,
    SpareProgramError,
    ChecksumError,
    EraseError,
    WearOutError,
    CrashError,
    SimulatedPowerLoss,
    FtlError,
    OutOfSpaceError,
    UnknownPageError,
    UnallocatedPageError,
    ConfigurationError,
    ConcurrencyError,
    WorkerCrashError,
]


@pytest.mark.parametrize("exc_type", ERROR_TYPES, ids=lambda t: t.__name__)
def test_errors_pickle_round_trip(exc_type):
    exc = exc_type("page 7 went sideways")
    clone = _round_trip(exc)
    assert type(clone) is exc_type
    assert str(clone) == str(exc)


def test_flash_stats_round_trip_preserves_counters():
    stats = FlashStats(n_blocks=8, t_read_us=25.0, t_write_us=200.0, t_erase_us=1500.0)
    stats.record_read()
    stats.record_write()
    stats.record_erase(0)
    clone = _round_trip(stats)
    assert clone.totals() == stats.totals()
    assert clone.phases == stats.phases
    assert clone.block_erases == stats.block_erases


def test_nested_fsck_report_round_trip():
    inner = FsckReport(pages_scanned=32, checksum_failures=1)
    outer = FsckReport(pages_scanned=64, per_shard=[inner, inner])
    assert _round_trip(outer) == outer
