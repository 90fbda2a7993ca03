"""The page-differential: computation, serialization, and merging.

The paper defines the *differential* of a logical page as the difference
between the original (base) page in flash and the up-to-date page in
memory (Section 4.1).  Unlike a log-based method's update-log history, a
differential stores each changed region once — the paper's
``aaaaaa → bbbbba → bcccba`` example yields the single region ``bcccb``
rather than the two logs ``bbbbb`` and ``ccc``.

Wire format (Section 4.2 gives the logical structure
``<pid, timestamp, [offset, length, changed data]+>``; the concrete byte
layout is ours, little-endian)::

    entry  := u32 pid | u64 timestamp | u16 n_runs | u16 data_len
              | n_runs × (u16 offset, u16 length) | run data…
    page   := u16 magic 0xD1FF | u16 count | count × entry

``data_len`` is redundant (the sum of run lengths) and validates decoding.
The differential's *size* — what Max_Differential_Size compares against —
is its full encoded length including all metadata, which is why a heavily
updated page can exceed one page and trigger the paper's Case 3.

A :class:`Differential` in memory *is* its wire entry: the pid, the
timestamp, the run headers as one flat ``(offset, length, …)`` tuple and
the run data as one owned ``bytes``.  Decoding is one unpack and one
slice, encoding one pack and one join, merging slice-assigns out of the
one buffer, and ``size`` is O(1); no step builds an object per run.
:class:`~repro.ftl.base.ChangeRun` objects appear only in the
``runs`` view and the run-based helpers (``compute_runs``,
``compute_unit_runs``).

Diffing is numpy-accelerated; changed regions separated by fewer
unchanged bytes than a run header costs are coalesced (configurable
``coalesce_gap``), trading a few unchanged bytes for less metadata.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from ..ftl.base import ChangeRun

_ENTRY_HEADER = struct.Struct("<IQHH")
_RUN_HEADER = struct.Struct("<HH")
_PAGE_HEADER = struct.Struct("<HH")

ENTRY_HEADER_SIZE = _ENTRY_HEADER.size  # 16 bytes
RUN_HEADER_SIZE = _RUN_HEADER.size  # 4 bytes
PAGE_HEADER_SIZE = _PAGE_HEADER.size  # 4 bytes

#: Magic tag of a differential page's data area.
DIFF_PAGE_MAGIC = 0xD1FF

#: Default coalescing distance: merging two runs separated by a gap of up
#: to one run header's worth of unchanged bytes never grows the encoding.
DEFAULT_COALESCE_GAP = RUN_HEADER_SIZE

#: Default comparison granularity for PDL differentials.  The paper's
#: differential "contains not only the changed data but also the meta
#: data such as offsets and lengths", and footnote 16 observes the
#: differential growing from 0 to one page and resetting through Case 3,
#: averaging about half a page.  That sawtooth requires the encoded size
#: to exceed one page *before* literally every byte has changed — i.e. a
#: unit-granular encoder that emits one entry per changed unit.  16 bytes
#: reproduces the paper's steady state; see DESIGN.md.
DEFAULT_DIFF_UNIT = 16


class DifferentialError(ValueError):
    """Raised when encoded differential data cannot be decoded."""


_RUN_HEADER_STRUCTS: Dict[int, struct.Struct] = {}


def _run_header_struct(n_runs: int) -> struct.Struct:
    """A cached ``Struct`` packing ``n_runs`` (offset, length) pairs."""
    cached = _RUN_HEADER_STRUCTS.get(n_runs)
    if cached is None:
        cached = _RUN_HEADER_STRUCTS[n_runs] = struct.Struct(f"<{2 * n_runs}H")
    return cached


def compute_runs(
    base: bytes, new: bytes, coalesce_gap: int = DEFAULT_COALESCE_GAP
) -> Tuple[ChangeRun, ...]:
    """Byte-wise difference of two equal-length pages as change runs.

    Returns maximal runs of changed bytes; runs whose separating gap of
    unchanged bytes is at most ``coalesce_gap`` are merged (the merged run
    then carries those unchanged bytes, which is harmless on apply).
    """
    if len(base) != len(new):
        raise ValueError(
            f"page images differ in size: {len(base)} vs {len(new)} bytes"
        )
    if base == new:
        return ()
    a = np.frombuffer(base, dtype=np.uint8)
    b = np.frombuffer(new, dtype=np.uint8)
    changed = np.flatnonzero(a != b)
    # Consecutive changed offsets whose distance exceeds gap+1 start a new run.
    splits = np.flatnonzero(np.diff(changed) > coalesce_gap + 1)
    starts = np.concatenate(([0], splits + 1))
    ends = np.concatenate((splits, [len(changed) - 1]))
    return tuple(
        ChangeRun(int(changed[s]), new[int(changed[s]) : int(changed[e]) + 1])
        for s, e in zip(starts, ends)
    )


def _changed_units(
    base: bytes, new: bytes, unit: int
) -> Tuple[npt.NDArray[np.intp], npt.NDArray[Any], int]:
    """Compare two pages in ``unit``-byte chunks.

    Returns the indices of the full chunks that differ (a numpy array),
    ``new``'s full chunks as a numpy array with one row per chunk, and
    the offset of the trailing partial chunk (``len(new)`` when the page
    is an exact multiple of the unit).
    """
    if len(base) != len(new):
        raise ValueError(
            f"page images differ in size: {len(base)} vs {len(new)} bytes"
        )
    if unit <= 0:
        raise ValueError("unit must be positive")
    n_full = len(base) // unit
    if unit % 8 == 0:
        # Compare 8 bytes per element: same answer, an eighth of the
        # elements numpy has to touch on every page diff.
        dtype, words = "<u8", unit // 8
    else:
        dtype, words = "u1", unit
    full_a = np.frombuffer(base, dtype=dtype, count=n_full * words).reshape(n_full, words)
    full_b = np.frombuffer(new, dtype=dtype, count=n_full * words).reshape(n_full, words)
    return np.flatnonzero((full_a != full_b).any(axis=1)), full_b, n_full * unit


def compute_unit_runs(base: bytes, new: bytes, unit: int = DEFAULT_DIFF_UNIT) -> Tuple[ChangeRun, ...]:
    """Unit-granular difference: one run per changed ``unit``-byte chunk.

    Pages are compared in fixed-size units; every unit containing at
    least one changed byte is emitted as its own run carrying the unit's
    full new contents.  Adjacent changed units are deliberately *not*
    coalesced — per-unit entries keep the metadata overhead proportional
    to coverage, which is what makes a heavily-updated page's
    differential exceed one page and trigger PDL_Writing's Case 3 (the
    sawtooth of the paper's footnote 16).

    :meth:`Differential.from_pages` builds the same runs directly in the
    flat wire form; this run-object form is the reference it is tested
    against.
    """
    changed_units, _full, tail_start = _changed_units(base, new, unit)
    runs = [
        ChangeRun(i * unit, new[i * unit : (i + 1) * unit])
        for i in changed_units.tolist()
    ]
    if base[tail_start:] != new[tail_start:]:
        runs.append(ChangeRun(tail_start, new[tail_start:]))
    return tuple(runs)


@dataclass(frozen=True, slots=True, init=False)
class Differential:
    """The differential of one logical page (Section 4.2).

    ``timestamp`` is the creation time stamp recovery uses to identify the
    most recent differential among surviving copies.

    The fields are the wire entry's: ``run_headers`` is the flat
    ``(offset, length, offset, length, …)`` tuple and ``data`` the run
    contents concatenated in the same order, so decoding, encoding and
    merging never build a per-run object.  ``Differential(pid, ts, runs)``
    builds one from :class:`~repro.ftl.base.ChangeRun` objects.
    """

    pid: int
    timestamp: int
    run_headers: Tuple[int, ...]
    data: bytes

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def __init__(self, pid: int, timestamp: int, runs: Iterable[ChangeRun] = ()) -> None:
        runs = tuple(runs)
        self._fill(
            pid,
            timestamp,
            tuple(field for run in runs for field in (run.offset, len(run.data))),
            b"".join(run.data for run in runs),
        )

    @classmethod
    def _make(
        cls, pid: int, timestamp: int, run_headers: Tuple[int, ...], data: bytes
    ) -> "Differential":
        """Build from the wire fields; ``data`` must be an owned ``bytes``."""
        diff = object.__new__(cls)
        diff._fill(pid, timestamp, run_headers, data)
        return diff

    def _fill(
        self, pid: int, timestamp: int, run_headers: Tuple[int, ...], data: bytes
    ) -> None:
        # The frozen dataclass refuses ordinary assignment.
        object.__setattr__(self, "pid", pid)
        object.__setattr__(self, "timestamp", timestamp)
        object.__setattr__(self, "run_headers", run_headers)
        object.__setattr__(self, "data", data)

    def __reduce__(self) -> Tuple[Any, ...]:
        # Pickle and copy rebuild through _make: __init__ takes runs, and
        # the frozen slots refuse the default state restore.
        return (type(self)._make, (self.pid, self.timestamp, self.run_headers, self.data))

    @classmethod
    def from_pages(
        cls,
        pid: int,
        timestamp: int,
        base: bytes,
        new: bytes,
        coalesce_gap: int = DEFAULT_COALESCE_GAP,
        unit: Optional[int] = DEFAULT_DIFF_UNIT,
    ) -> "Differential":
        """Create the differential between a base page and its new image.

        With ``unit`` set (the default), the unit-granular encoder is used;
        ``unit=None`` selects byte-wise maximal runs with gap coalescing
        (the ablation configuration).
        """
        if unit is None:
            return cls(pid, timestamp, compute_runs(base, new, coalesce_gap))
        # compute_unit_runs' runs, laid out flat: the changed units'
        # offsets interleaved with the constant length, and their bytes
        # gathered in one numpy copy.
        changed_units, new_units, tail_start = _changed_units(base, new, unit)
        run_headers = [unit] * (2 * len(changed_units))
        run_headers[0::2] = (changed_units * unit).tolist()
        data = new_units[changed_units].tobytes()
        tail = new[tail_start:]
        if base[tail_start:] != tail:
            run_headers += (tail_start, len(tail))
            data += tail
        return cls._make(pid, timestamp, tuple(run_headers), data)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def runs(self) -> Tuple[ChangeRun, ...]:
        """The change runs as objects: a view for tests and introspection,
        rebuilt on every access (no hot path uses it)."""
        runs: List[ChangeRun] = []
        pos = 0
        headers = iter(self.run_headers)
        for offset, length in zip(headers, headers):
            runs.append(ChangeRun(offset, self.data[pos : pos + length]))
            pos += length
        return tuple(runs)

    @property
    def n_runs(self) -> int:
        return len(self.run_headers) // 2

    @property
    def size(self) -> int:
        """Encoded size in bytes, metadata included — the quantity compared
        against Max_Differential_Size in PDL_Writing's three cases."""
        return ENTRY_HEADER_SIZE + RUN_HEADER_SIZE * self.n_runs + len(self.data)

    @property
    def data_len(self) -> int:
        return len(self.data)

    @property
    def is_empty(self) -> bool:
        return not self.run_headers

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, base: bytes) -> bytes:
        """Merge this differential with its base page (PDL_Reading Step 3)."""
        if not self.run_headers:
            return base
        image = bytearray(base)
        data = self.data
        pos = 0
        headers = iter(self.run_headers)
        for offset, length in zip(headers, headers):
            image[offset : offset + length] = data[pos : pos + length]
            pos += length
        # A run that reaches past the page grows the image, so one length
        # check after the loop catches every run writing outside the page.
        if len(image) != len(base):
            end = max(map(sum, zip(self.run_headers[0::2], self.run_headers[1::2])))
            raise DifferentialError(f"run ending at {end} outside page of {len(base)} bytes")
        return bytes(image)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        n_runs = self.n_runs
        header = _ENTRY_HEADER.pack(self.pid, self.timestamp, n_runs, len(self.data))
        if not n_runs:
            return header
        run_headers = _run_header_struct(n_runs).pack(*self.run_headers)
        return b"".join((header, run_headers, self.data))

    @classmethod
    def decode_from(cls, buf: bytes, pos: int) -> Tuple["Differential", int]:
        """Decode one entry starting at ``pos``; returns it and the new pos.

        The run data is copied out of ``buf``: the differential stays
        intact when the caller reuses or overwrites that buffer.
        """
        if pos + ENTRY_HEADER_SIZE > len(buf):
            raise DifferentialError("truncated differential entry header")
        pid, timestamp, n_runs, data_len = _ENTRY_HEADER.unpack_from(buf, pos)
        pos += ENTRY_HEADER_SIZE
        start = pos + RUN_HEADER_SIZE * n_runs
        if start > len(buf):
            raise DifferentialError("truncated differential run header")
        run_headers: Tuple[int, ...] = _run_header_struct(n_runs).unpack_from(buf, pos)
        carried = sum(run_headers[1::2])
        if carried != data_len:
            raise DifferentialError(
                f"differential for pid {pid} declares {data_len} data bytes "
                f"but its runs carry {carried}"
            )
        end = start + data_len
        if end > len(buf):
            raise DifferentialError("truncated differential run data")
        return cls._make(pid, timestamp, run_headers, bytes(buf[start:end])), end


# ----------------------------------------------------------------------
# Differential page codec
# ----------------------------------------------------------------------

def encode_differential_page(
    diffs: Sequence[Differential], page_data_size: int
) -> bytes:
    """Pack differentials into one differential-page data area."""
    parts = [_PAGE_HEADER.pack(DIFF_PAGE_MAGIC, len(diffs))]
    total = PAGE_HEADER_SIZE
    for diff in diffs:
        encoded = diff.encode()
        total += len(encoded)
        parts.append(encoded)
    if total > page_data_size:
        raise DifferentialError(
            f"{len(diffs)} differentials need {total} bytes; page holds "
            f"{page_data_size}"
        )
    return b"".join(parts)


def decode_differential_page(data: bytes) -> List[Differential]:
    """Parse a differential page's data area into its entries."""
    if len(data) < PAGE_HEADER_SIZE:
        raise DifferentialError("differential page smaller than its header")
    magic, count = _PAGE_HEADER.unpack_from(data, 0)
    if magic != DIFF_PAGE_MAGIC:
        raise DifferentialError(
            f"not a differential page (magic 0x{magic:04X})"
        )
    diffs: List[Differential] = []
    pos = PAGE_HEADER_SIZE
    for _ in range(count):
        diff, pos = Differential.decode_from(data, pos)
        diffs.append(diff)
    return diffs


def find_differential(data: bytes, pid: int) -> Optional[Differential]:
    """Locate ``pid``'s entry in a differential page (PDL_Reading Step 2).

    The read path's hot lookup: entry headers carry ``n_runs`` and
    ``data_len``, so every non-matching entry is skipped in O(1) without
    materializing its runs — only the matching entry (if any) is decoded
    in full.  Structural damage along the skip path (truncated headers,
    entries running off the page) still raises
    :class:`DifferentialError` exactly as a full decode would.
    """
    if len(data) < PAGE_HEADER_SIZE:
        raise DifferentialError("differential page smaller than its header")
    magic, count = _PAGE_HEADER.unpack_from(data, 0)
    if magic != DIFF_PAGE_MAGIC:
        raise DifferentialError(
            f"not a differential page (magic 0x{magic:04X})"
        )
    size = len(data)
    pos = PAGE_HEADER_SIZE
    for _ in range(count):
        if pos + ENTRY_HEADER_SIZE > size:
            raise DifferentialError("truncated differential entry header")
        entry_pid, _ts, n_runs, data_len = _ENTRY_HEADER.unpack_from(data, pos)
        if entry_pid == pid:
            diff, _pos = Differential.decode_from(data, pos)
            return diff
        pos += ENTRY_HEADER_SIZE + RUN_HEADER_SIZE * n_runs + data_len
        if pos > size:
            raise DifferentialError("truncated differential run data")
    return None
