"""The flat differential encoding, pinned byte for byte (hypothesis).

``Differential.from_pages`` builds its wire entry straight from the page
comparison.  These properties hold it to the entry spelled out from the
run-object encoders (``compute_unit_runs`` / ``compute_runs``) and the
documented layout.  ``size`` decides PDL_Writing's Cases 1/2/3, so an
exact encoding keeps the simulated flash counts unchanged.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.differential import Differential, compute_runs, compute_unit_runs
from repro.ftl.base import apply_runs

#: Unit sizes covered: the 8-byte-word comparison (8, 16, 64) and the
#: byte comparison (12); ``None`` is the byte-wise ablation encoder.
UNITS = [8, 12, 16, 64, None]


@st.composite
def page_pairs(draw):
    """A base page and a new image of it; sizes need not fit the unit."""
    size = draw(st.one_of(st.integers(0, 300), st.sampled_from([256, 2048, 2050])))
    base = draw(st.binary(min_size=size, max_size=size))
    if draw(st.booleans()):
        return base, draw(st.binary(min_size=size, max_size=size))
    new = bytearray(base)
    for _ in range(draw(st.integers(0, 6)) if size else 0):
        offset = draw(st.integers(0, size - 1))
        patch = draw(st.binary(min_size=1, max_size=min(64, size - offset)))
        new[offset : offset + len(patch)] = patch
    return base, bytes(new)


def wire_entry(pid, timestamp, runs):
    """The entry layout of the module docstring, built run by run."""
    return (
        struct.pack("<IQHH", pid, timestamp, len(runs), sum(len(r.data) for r in runs))
        + b"".join(struct.pack("<HH", r.offset, len(r.data)) for r in runs)
        + b"".join(r.data for r in runs)
    )


class TestFlatEncodingMatchesRuns:
    @given(
        pair=page_pairs(),
        unit=st.sampled_from(UNITS),
        gap=st.integers(0, 8),
        pid=st.integers(0, 2**32 - 1),
        timestamp=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=300)
    def test_from_pages_is_the_run_encoding(self, pair, unit, gap, pid, timestamp):
        base, new = pair
        if unit is None:
            runs = compute_runs(base, new, coalesce_gap=gap)
        else:
            runs = compute_unit_runs(base, new, unit=unit)
        diff = Differential.from_pages(pid, timestamp, base, new, coalesce_gap=gap, unit=unit)
        encoded = diff.encode()

        assert encoded == wire_entry(pid, timestamp, runs)
        assert diff.size == len(encoded)
        assert diff.runs == runs
        assert diff == Differential(pid, timestamp, runs)
        assert Differential.decode_from(encoded, 0) == (diff, len(encoded))
        framed = b"\xee" * 5 + encoded + b"\xee" * 3
        assert Differential.decode_from(framed, 5) == (diff, 5 + len(encoded))
        assert diff.apply(base) == new == apply_runs(base, runs)
