"""Unit tests for differential computation, codecs, and application."""

import copy
import pickle

import pytest

from repro.core.differential import (
    DIFF_PAGE_MAGIC,
    ENTRY_HEADER_SIZE,
    PAGE_HEADER_SIZE,
    RUN_HEADER_SIZE,
    Differential,
    DifferentialError,
    compute_runs,
    compute_unit_runs,
    decode_differential_page,
    encode_differential_page,
    find_differential,
)
from repro.ftl.base import ChangeRun


class TestComputeRuns:
    def test_identical_pages(self):
        assert compute_runs(b"abc" * 10, b"abc" * 10) == ()

    def test_single_byte(self):
        base = b"\x00" * 32
        new = b"\x00" * 16 + b"\x01" + b"\x00" * 15
        runs = compute_runs(base, new)
        assert runs == (ChangeRun(16, b"\x01"),)

    def test_contiguous_run(self):
        base = bytearray(b"\x00" * 32)
        new = bytearray(base)
        new[4:9] = b"ABCDE"
        runs = compute_runs(bytes(base), bytes(new))
        assert runs == (ChangeRun(4, b"ABCDE"),)

    def test_distant_runs_stay_separate(self):
        base = b"\x00" * 64
        new = b"\x01" + b"\x00" * 31 + b"\x02" + b"\x00" * 31
        runs = compute_runs(base, new, coalesce_gap=4)
        assert len(runs) == 2

    def test_close_runs_coalesce(self):
        base = b"\x00" * 32
        new = bytearray(base)
        new[0] = 1
        new[3] = 1  # gap of 2 unchanged bytes <= coalesce_gap
        runs = compute_runs(base, bytes(new), coalesce_gap=4)
        assert len(runs) == 1
        assert runs[0].offset == 0
        assert runs[0].length == 4

    def test_gap_zero_disables_coalescing(self):
        base = b"\x00" * 32
        new = bytearray(base)
        new[0] = 1
        new[2] = 1
        assert len(compute_runs(base, bytes(new), coalesce_gap=0)) == 2

    def test_paper_example(self):
        """... aaaaaa ... -> ... bcccba ...: the differential is bcccb."""
        base = b"xx" + b"aaaaaa" + b"yy"
        new = b"xx" + b"bcccba" + b"yy"
        runs = compute_runs(base, new)
        assert runs == (ChangeRun(2, b"bcccb"),)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compute_runs(b"ab", b"abc")

    def test_applying_runs_recreates_page(self, rng):
        base = rng.randbytes(256)
        new = bytearray(base)
        for _ in range(10):
            off = rng.randrange(250)
            new[off : off + 5] = rng.randbytes(5)
        diff = Differential(0, 1, compute_runs(base, bytes(new)))
        assert diff.apply(base) == bytes(new)


class TestComputeUnitRuns:
    def test_identical(self):
        assert compute_unit_runs(b"\x00" * 64, b"\x00" * 64, unit=16) == ()

    def test_one_changed_unit(self):
        base = b"\x00" * 64
        new = bytearray(base)
        new[20] = 9
        runs = compute_unit_runs(base, bytes(new), unit=16)
        assert len(runs) == 1
        assert runs[0].offset == 16
        assert runs[0].length == 16

    def test_adjacent_units_not_coalesced(self):
        """Per-unit entries keep metadata proportional to coverage."""
        base = b"\x00" * 64
        new = b"\x01" * 64
        runs = compute_unit_runs(base, bytes(new), unit=16)
        assert len(runs) == 4

    def test_tail_smaller_than_unit(self):
        base = b"\x00" * 70  # 4 full units + 6-byte tail
        new = bytearray(base)
        new[68] = 1
        runs = compute_unit_runs(base, bytes(new), unit=16)
        assert runs == (ChangeRun(64, bytes(new[64:])),)

    def test_apply_recreates(self, rng):
        base = rng.randbytes(256)
        new = bytearray(base)
        for _ in range(6):
            off = rng.randrange(250)
            new[off : off + 5] = rng.randbytes(5)
        diff = Differential(0, 1, compute_unit_runs(base, bytes(new), unit=16))
        assert diff.apply(base) == bytes(new)

    def test_bad_unit(self):
        with pytest.raises(ValueError):
            compute_unit_runs(b"", b"", unit=0)

    def test_full_page_exceeds_page_size(self):
        """A fully-changed page's differential overflows one page: the
        mechanism behind PDL_Writing's Case 3 (footnote 16)."""
        base = b"\x00" * 2048
        new = b"\x01" * 2048
        diff = Differential(0, 1, compute_unit_runs(base, new, unit=16))
        assert diff.size > 2048


class TestDifferentialProperties:
    def test_size_formula(self):
        diff = Differential(1, 2, (ChangeRun(0, b"abc"), ChangeRun(9, b"x")))
        assert diff.size == ENTRY_HEADER_SIZE + 2 * RUN_HEADER_SIZE + 4

    def test_empty(self):
        diff = Differential(1, 2, ())
        assert diff.is_empty
        assert diff.size == ENTRY_HEADER_SIZE
        assert diff.apply(b"abc") == b"abc"

    def test_apply_out_of_range(self):
        diff = Differential(1, 2, (ChangeRun(10, b"abc"),))
        with pytest.raises(DifferentialError):
            diff.apply(b"short")


class TestEntryCodec:
    def test_roundtrip(self):
        diff = Differential(7, 99, (ChangeRun(3, b"hello"), ChangeRun(64, b"\x00\x01")))
        decoded, pos = Differential.decode_from(diff.encode(), 0)
        assert decoded == diff
        assert pos == diff.size

    def test_roundtrip_empty(self):
        diff = Differential(0, 0, ())
        decoded, _ = Differential.decode_from(diff.encode(), 0)
        assert decoded == diff

    def test_truncated_header(self):
        with pytest.raises(DifferentialError):
            Differential.decode_from(b"\x00" * 4, 0)

    def test_truncated_data(self):
        encoded = Differential(1, 1, (ChangeRun(0, b"abcdef"),)).encode()
        with pytest.raises(DifferentialError):
            Differential.decode_from(encoded[:-3], 0)

    def test_data_len_validation(self):
        encoded = bytearray(Differential(1, 1, (ChangeRun(0, b"ab"),)).encode())
        encoded[14] ^= 0xFF  # corrupt the declared data_len
        with pytest.raises(DifferentialError):
            Differential.decode_from(bytes(encoded), 0)


class TestPageCodec:
    def _diffs(self):
        return [
            Differential(1, 10, (ChangeRun(0, b"aa"),)),
            Differential(2, 11, (ChangeRun(5, b"bbb"), ChangeRun(20, b"c"))),
            Differential(3, 12, ()),
        ]

    def test_roundtrip(self):
        payload = encode_differential_page(self._diffs(), 512)
        assert decode_differential_page(payload) == self._diffs()

    def test_find(self):
        payload = encode_differential_page(self._diffs(), 512)
        assert find_differential(payload, 2).pid == 2
        assert find_differential(payload, 99) is None

    def test_magic_checked(self):
        with pytest.raises(DifferentialError):
            decode_differential_page(b"\x00\x00\x00\x00")

    def test_overflow_rejected(self):
        diffs = [Differential(i, i, (ChangeRun(0, b"x" * 40),)) for i in range(5)]
        with pytest.raises(DifferentialError):
            encode_differential_page(diffs, 128)

    def test_empty_page(self):
        payload = encode_differential_page([], 128)
        assert decode_differential_page(payload) == []

    def test_sizes_account_for_page_header(self):
        diffs = self._diffs()
        payload = encode_differential_page(diffs, 512)
        assert len(payload) == PAGE_HEADER_SIZE + sum(d.size for d in diffs)


class TestDamagedAndAliasedInput:
    """Damaged entries raise DifferentialError on every decode path, and
    a decoded differential owns its data."""

    def _page(self):
        diffs = [
            Differential(1, 10, (ChangeRun(0, b"aa"),)),
            Differential(2, 11, (ChangeRun(5, b"bbb"), ChangeRun(20, b"cccc"))),
        ]
        return diffs, encode_differential_page(diffs, 512)

    def test_matching_entry_data_runs_off_the_page(self):
        _diffs, payload = self._page()
        truncated = payload[:-2]  # pid 2's run data loses its last bytes
        with pytest.raises(DifferentialError, match="run data"):
            find_differential(truncated, 2)
        with pytest.raises(DifferentialError, match="run data"):
            decode_differential_page(truncated)
        # The entry before the damage is still found.
        assert find_differential(truncated, 1).pid == 1

    def test_data_len_mismatch(self):
        diffs, payload = self._page()
        damaged = bytearray(payload)
        # pid 2's entry: declare one data byte fewer than its runs carry.
        data_len_at = PAGE_HEADER_SIZE + diffs[0].size + 14
        declared = int.from_bytes(damaged[data_len_at : data_len_at + 2], "little")
        damaged[data_len_at : data_len_at + 2] = (declared - 1).to_bytes(2, "little")
        with pytest.raises(DifferentialError, match="declares"):
            find_differential(bytes(damaged), 2)
        with pytest.raises(DifferentialError, match="declares"):
            decode_differential_page(bytes(damaged))

    @pytest.mark.parametrize("run", [ChangeRun(14, b"abc"), ChangeRun(40, b"xy")])
    def test_run_past_the_page_on_apply(self, run):
        diff = Differential(1, 2, (ChangeRun(0, b"ok"), run))
        with pytest.raises(DifferentialError, match="outside page"):
            diff.apply(b"\x00" * 16)

    def test_decoded_run_past_the_page_on_apply(self):
        payload = encode_differential_page(
            [Differential(4, 1, (ChangeRun(250, b"z" * 10),))], 512
        )
        with pytest.raises(DifferentialError, match="outside page"):
            find_differential(payload, 4).apply(b"\x00" * 256)

    def test_decoded_data_is_owned(self):
        base = bytes(range(32))
        diffs, payload = self._page()
        flash = bytearray(payload)
        found = find_differential(flash, 2)
        decoded, _ = Differential.decode_from(flash, PAGE_HEADER_SIZE + diffs[0].size)
        expected = diffs[1].apply(base)
        flash[:] = b"\xff" * len(flash)  # the buffer is reused
        assert type(found.data) is bytes
        assert found.apply(base) == expected
        assert decoded.apply(base) == expected
        assert found == decoded == diffs[1]


class TestDifferentialValue:
    def test_runs_view_round_trips(self):
        runs = (ChangeRun(3, b"hello"), ChangeRun(64, b"\x00\x01"))
        diff = Differential(7, 99, runs)
        assert diff.runs == runs
        assert diff.run_headers == (3, 5, 64, 2)
        assert diff.data == b"hello\x00\x01"
        assert (diff.n_runs, diff.data_len) == (2, 7)

    def test_immutable(self):
        diff = Differential(1, 2, (ChangeRun(0, b"a"),))
        with pytest.raises(AttributeError):
            diff.pid = 3

    def test_equality_and_hash(self):
        a = Differential(1, 2, (ChangeRun(0, b"ab"),))
        b = Differential.decode_from(a.encode(), 0)[0]
        assert a == b and hash(a) == hash(b)
        assert a != Differential(1, 3, (ChangeRun(0, b"ab"),))

    def test_pickle_and_copy(self):
        diff = Differential(1, 2, (ChangeRun(0, b"ab"), ChangeRun(9, b"c")))
        assert pickle.loads(pickle.dumps(diff)) == diff
        assert copy.deepcopy(diff) == diff
