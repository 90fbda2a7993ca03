"""Buffered logical pages with change-log recording.

:class:`Page` is the in-memory image of one logical page held by the
buffer pool.  All mutations go through :meth:`Page.write`, which both
applies the change and records it as a :class:`ChangeRun` — the *update
log* that the storage manager of a DBMS maintains internally.  This is
precisely the coupling seam of the paper's Figure 10: the tightly-coupled
log-based method (IPL) consumes these logs at eviction time, while
loosely-coupled methods (PDL, OPU, IPU) never look at them.

To keep logs minimal (and the comparison fair), :meth:`write_delta`
diffs the new content against the current content and records only the
genuinely changed byte runs.

Concurrency: many client threads share one pool over a sharded array
whose executor serializes callers per shard, so each page
carries a small re-entrant latch serializing content mutation, log
clearing and pin-count changes.  The latch is a *leaf* lock in the
ordering ``pool lock → page latch → notification lock`` (see
``docs/bufferpool.md``); the pool-observer callbacks invoked under it
must therefore never take the pool lock — they only update the pool's
dirty/unpark bookkeeping, which lives behind its own small lock.

Pinning marks a page as in use so the pool will not evict it.  Prefer
the :meth:`pinned` context manager (or
:meth:`~repro.storage.bufferpool.manager.BufferManager.pinned`, which
also makes the lookup-and-pin atomic) over bare :meth:`pin`/
:meth:`unpin` pairs: an exception between the two leaks the pin and
silently shrinks the pool until it hits :class:`BufferError`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, List

from ..core.differential import compute_runs
from ..ftl.base import ChangeRun


class Page:
    """One logical page held in the buffer pool."""

    __slots__ = (
        "pid",
        "_data",
        "dirty",
        "change_log",
        "pin_count",
        "latch",
        "version",
        "_observer",
    )

    def __init__(self, pid: int, data: bytes):
        self.pid = pid
        self._data = bytearray(data)
        self.dirty = False
        #: Update logs accumulated since the page was last clean.
        self.change_log: List[ChangeRun] = []
        self.pin_count = 0
        #: Serializes content mutation, log clearing and pinning.
        #: Re-entrant so :meth:`write_delta` can call :meth:`write`.
        self.latch = threading.RLock()
        #: Bumped on every logged write; background write-back compares
        #: versions to decide whether its flushed snapshot is current.
        self.version = 0
        #: The owning pool (dirty/clean/unpin notifications), if any.
        self._observer = None

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._data)

    @property
    def data(self) -> bytes:
        """An immutable snapshot of the page contents."""
        with self.latch:
            return bytes(self._data)

    def read(self, offset: int, length: int) -> bytes:
        with self.latch:
            if offset < 0 or offset + length > len(self._data):
                raise ValueError(
                    f"read [{offset}, {offset + length}) outside page of "
                    f"{len(self._data)} bytes"
                )
            return bytes(self._data[offset : offset + length])

    # ------------------------------------------------------------------
    # Mutation (always logged)
    # ------------------------------------------------------------------
    def write(self, offset: int, data: bytes) -> None:
        """Overwrite bytes at ``offset``, recording the update log."""
        with self.latch:
            if offset < 0 or offset + len(data) > len(self._data):
                raise ValueError(
                    f"write [{offset}, {offset + len(data)}) outside page of "
                    f"{len(self._data)} bytes"
                )
            if not data:
                return
            self._data[offset : offset + len(data)] = data
            self.change_log.append(ChangeRun(offset, bytes(data)))
            self.version += 1
            if not self.dirty:
                self.dirty = True
                if self._observer is not None:
                    self._observer._page_dirtied(self.pid)

    def write_delta(self, offset: int, data: bytes) -> None:
        """Like :meth:`write` but records only the bytes that differ.

        Node-level writers (the B+tree) re-serialize whole regions; this
        keeps the resulting update logs proportional to the real change.
        The latch is held across the diff *and* the writes, so the runs
        are consistent even under concurrent writers.
        """
        with self.latch:
            current = self.read(offset, len(data))
            for run in compute_runs(current, data):
                self.write(offset + run.offset, run.data)

    def clear_log(self) -> None:
        """Called by the buffer pool after a successful write-back."""
        with self.latch:
            self.change_log = []
            if self.dirty:
                self.dirty = False
                if self._observer is not None:
                    self._observer._page_cleaned(self.pid)

    # ------------------------------------------------------------------
    # Background write-back support
    # ------------------------------------------------------------------
    def writeback_snapshot(self):
        """Consistent ``(data, change_log copy, version)`` for a flusher."""
        with self.latch:
            return bytes(self._data), list(self.change_log), self.version

    def finish_writeback(self, snapshot_version: int, log_len: int) -> bool:
        """Reconcile after the snapshot reached flash.

        Returns True when the page is now clean.  When writers raced the
        flush, the runs covered by the snapshot are trimmed and the page
        stays dirty with only the residual log.
        """
        with self.latch:
            if self.version == snapshot_version:
                self.clear_log()
                return True
            del self.change_log[:log_len]
            return False

    # ------------------------------------------------------------------
    # Pool attachment
    # ------------------------------------------------------------------
    def attach(self, observer) -> None:
        """Bind the owning pool; reports a pre-existing dirty state."""
        with self.latch:
            self._observer = observer
            if self.dirty:
                observer._page_dirtied(self.pid)

    def detach(self) -> None:
        with self.latch:
            self._observer = None

    # ------------------------------------------------------------------
    # Pinning
    # ------------------------------------------------------------------
    def pin(self) -> None:
        with self.latch:
            self.pin_count += 1

    def unpin(self) -> None:
        with self.latch:
            if self.pin_count <= 0:
                raise RuntimeError(f"page {self.pid} unpinned more than pinned")
            self.pin_count -= 1
            if self.pin_count == 0 and self._observer is not None:
                self._observer._page_unpinned(self.pid)

    @contextmanager
    def pinned(self) -> Iterator["Page"]:
        """Pin for the duration of a ``with`` block (exception-safe).

        ``with page.pinned():`` can never leak a pin the way a bare
        :meth:`pin`/:meth:`unpin` pair around a raising operation does.
        """
        self.pin()
        try:
            yield self
        finally:
            self.unpin()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "dirty" if self.dirty else "clean"
        return f"<Page {self.pid} {state} pins={self.pin_count}>"
