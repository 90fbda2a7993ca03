"""Span tracing from the benchmark's side of each layer boundary.

:meth:`Tracer.install` wraps the public entry points of every layer (see
:data:`TARGETS`) with a recorder.  Each call made while the tracer is
enabled becomes one span: name, start, end, parent span and the op id
of the benchmark op that caused it.  Spans live in flat arrays in
memory and are reduced to per-layer figures when the run ends.

A span's *self time* is its duration minus the part of that interval
its child spans cover.  Only calls made in the benchmark process are
seen: under the process executor the shard engines run in worker
processes, so their layers produce no spans.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span name, module, class or None for a module function, attribute).
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("storage.get_page", "repro.storage.bufferpool.manager", "BufferManager", "get_page"),
    ("storage.flush_all", "repro.storage.bufferpool.manager", "BufferManager", "flush_all"),
    ("sharding.read_page", "repro.sharding.executor_proc", "ProcessShardedDriver", "read_page"),
    ("sharding.write_page", "repro.sharding.executor_proc", "ProcessShardedDriver", "write_page"),
    ("sharding.write_pages", "repro.sharding.executor_proc", "ProcessShardedDriver", "write_pages"),
    ("sharding.group_flush", "repro.sharding.executor_proc", "ProcessShardedDriver", "group_flush"),
    ("sharding.submit", "repro.sharding.executor_proc", "ProcessShardExecutor", "submit_task"),
    ("core.read_page", "repro.core.pdl", "PdlDriver", "read_page"),
    ("core.write_page", "repro.core.pdl", "PdlDriver", "write_page"),
    ("core.write_pages", "repro.core.pdl", "PdlDriver", "write_pages"),
    ("core.flush", "repro.core.pdl", "PdlDriver", "flush"),
    ("core.diff_from_pages", "repro.core.differential", "Differential", "from_pages"),
    # PdlDriver calls the name it imported into repro.core.pdl.
    ("core.find_differential", "repro.core.pdl", None, "find_differential"),
    ("ftl.gc_collect", "repro.ftl.gc", "GarbageCollector", "collect"),
    ("ftl.gc_step", "repro.ftl.gc", "GarbageCollector", "step"),
    ("ext.tick", "repro.ext.journal", "MappingStore", "tick"),
    # Database.open imports recover_driver from this module at call time.
    ("ext.recover_driver", "repro.core.recovery", None, "recover_driver"),
    ("flash.read_page", "repro.flash.chip", "FlashChip", "read_page"),
    ("flash.read_pages", "repro.flash.chip", "FlashChip", "read_pages"),
    ("flash.program_page", "repro.flash.chip", "FlashChip", "program_page"),
    ("flash.program_pages", "repro.flash.chip", "FlashChip", "program_pages"),
    ("flash.erase_block", "repro.flash.chip", "FlashChip", "erase_block"),
) + tuple(
    (f"flash.backend.{method}", "repro.flash.backend", "FileBackend", method)
    for method in (
        "read_data",
        "read_spare",
        "read_pages",
        "read_spares",
        "program_page",
        "program_pages",
        "write_data",
        "write_spare",
        "erase_block",
        "sync",
    )
)

#: Root span names the benchmark records around each op it times.
OP_SPANS = ("op.read", "op.update", "op.commit")


class Tracer:
    """In-memory span recorder for one single-threaded client."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self._stack: List[int] = []
        #: Op id stamped on new spans; -1 outside timed benchmark ops.
        self.op_id = -1
        self.enabled = False
        #: ``RecoveryReport`` of every traced ``recover_driver`` call.
        self.recovery_reports: List[object] = []
        self._undo: List[Callable[[], None]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def begin(self, name: str) -> int:
        """Open a span; returns its index for :meth:`end`."""
        index = len(self.starts)
        self.name_of.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as span ``name`` while the tracer is enabled."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return traced

    def _wrap_recovery(self, fn: Callable) -> Callable:
        traced = self.wrap("ext.recover_driver", fn)
        tracer = self

        def capture(*args, **kwargs):
            driver, report = traced(*args, **kwargs)
            if tracer.enabled:
                tracer.recovery_reports.append(report)
            return driver, report

        return capture

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target.  Call before any engine object is built:
        some layers keep bound methods (the allocator keeps the GC's
        ``collect``), which a later patch would miss."""
        for name, module_name, class_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__))
            elif name == "ext.recover_driver":
                patched = self._wrap_recovery(raw)
            else:
                patched = self.wrap(name, raw)
            setattr(owner, attr, patched)
            self._undo.append(lambda owner=owner, attr=attr, raw=raw: setattr(owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------
def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> List[int]:
    """Per-span duration minus the union of its children's intervals.

    Spans must be listed in start order (the order :class:`Tracer`
    records them), so each parent's children arrive sorted by start and
    one running "covered up to" mark per parent merges overlaps.
    """
    n = len(starts)
    covered = [0] * n
    covered_to = [0] * n
    for i in range(n):
        parent = parents[i]
        if parent < 0:
            continue
        lo = max(starts[i], covered_to[parent], starts[parent])
        hi = min(ends[i], ends[parent])
        if hi > lo:
            covered[parent] += hi - lo
        if hi > covered_to[parent]:
            covered_to[parent] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


class SpanTable:
    """Per-name aggregates of a finished trace.

    Only spans of timed ops (op id >= 0) count.  ``det_calls`` and
    ``child_calls`` further keep to the deterministic first pass
    (op id < ``det_ops``), so those counts repeat exactly for one seed.
    """

    def __init__(self, tracer: Tracer, det_ops: int):
        selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
        self.calls: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.det_calls: Dict[str, int] = {}
        #: (parent name, child name) -> calls in the first pass.
        self.child_calls: Dict[Tuple[str, str], int] = {}
        names = tracer.names
        for i, op in enumerate(tracer.ops):
            if op < 0:
                continue
            name = names[tracer.name_of[i]]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = (
                self.total_ns.get(name, 0) + tracer.ends[i] - tracer.starts[i]
            )
            self.self_ns[name] = self.self_ns.get(name, 0) + selfs[i]
            if op >= det_ops:
                continue
            self.det_calls[name] = self.det_calls.get(name, 0) + 1
            parent = tracer.parents[i]
            if parent >= 0:
                key = (names[tracer.name_of[parent]], name)
                self.child_calls[key] = self.child_calls.get(key, 0) + 1

    def mean_self_us(self, names: Iterable[str]) -> float:
        return self._mean(self.self_ns, names)

    def mean_total_us(self, names: Iterable[str]) -> float:
        return self._mean(self.total_ns, names)

    def _mean(self, table: Dict[str, int], names: Iterable[str]) -> float:
        names = list(names)
        calls = sum(self.calls.get(name, 0) for name in names)
        if not calls:
            return 0.0
        return sum(table.get(name, 0) for name in names) / calls / 1000.0

    def coverage(self) -> float:
        """Share of timed op time covered by layer spans."""
        total = sum(self.total_ns.get(name, 0) for name in OP_SPANS)
        own = sum(self.self_ns.get(name, 0) for name in OP_SPANS)
        return (total - own) / total if total else 0.0
