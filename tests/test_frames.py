"""Compressed posting-frame codec: round-trips and format guards.

Property tests (hypothesis) drive the delta/byte-packed codec with
adversarial posting lists — huge document-order gaps, maximal
extents, deep levels, single postings, empty frames — and assert the
decode is exact.  The format guard tests pin the *typed* failure
mode: bytes that are not a current-version frame (old slotted pages,
zeroed pages, truncated buffers, future versions) must raise
:class:`~repro.errors.PageFormatError`, never decode garbage.

The packer computes its columns and range checks with whole-slice
``map`` / ``min`` / ``max``; a per-entry reference encoder kept here
holds it to byte-identical frames and to failing on the same inputs.
"""

from __future__ import annotations

import struct
import sys
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import PageFormatError, StorageError
from repro.storage.frames import (FRAME_MAGIC, FRAME_VERSION,
                                  HEADER_BYTES, LABEL_BITS,
                                  LABEL_TYPECODE, LEVEL_TYPECODE,
                                  frame_bytes, iter_chunks, pack_frame,
                                  pack_frames, peek_header, unpack_frame)
from repro.storage.pages import PAGE_SIZE, Page

U32 = 2 ** 32 - 1
U16 = 2 ** 16 - 1


# -- the per-entry reference encoder --------------------------------------

_REFERENCE_HEADER = struct.Struct("<HBBIIIIBBBB")


def _reference_width(largest, allowed):
    for width in allowed:
        if largest < (1 << (8 * width)):
            return width
    raise StorageError(f"column value {largest} exceeds the widest width")


def _reference_column(values, width):
    column = array({1: "B", 2: "H", 4: "I"}[width], values)
    if sys.byteorder == "big":
        column.byteswap()
    return column.tobytes()


def reference_pack_frame(starts, ends, levels, lo=0, hi=None):
    """The packer as it was written first: one Python step per entry."""
    if hi is None:
        hi = len(starts)
    count = hi - lo
    if count == 0:
        return _REFERENCE_HEADER.pack(FRAME_MAGIC, FRAME_VERSION, 0, 0, 0,
                                      0, HEADER_BYTES, 1, 1, 1, 0)
    first = starts[lo]
    last = starts[hi - 1]
    deltas = [starts[i] - starts[i - 1] for i in range(lo + 1, hi)]
    if first < 0 or any(delta <= 0 for delta in deltas):
        raise StorageError("starts")
    extents = [ends[i] - starts[i] for i in range(lo, hi)]
    if any(extent < 0 for extent in extents):
        raise StorageError("extents")
    level_slice = list(levels[lo:hi])
    if any(level < 0 for level in level_slice):
        raise StorageError("levels")
    delta_width = _reference_width(max(deltas, default=0), (1, 2, 4))
    extent_width = _reference_width(max(extents), (1, 2, 4))
    level_width = _reference_width(max(level_slice), (1, 2))
    header = _REFERENCE_HEADER.pack(
        FRAME_MAGIC, FRAME_VERSION, 0, count, first, last,
        frame_bytes(count, delta_width, extent_width, level_width),
        delta_width, extent_width, level_width, 0)
    return b"".join((header, _reference_column(deltas, delta_width),
                     _reference_column(extents, extent_width),
                     _reference_column(level_slice, level_width)))


def reference_pack_frames(starts, ends, levels, capacity=PAGE_SIZE):
    total = len(starts)
    frames = []
    lo = 0
    while lo < total:
        hi = min(total, lo + (capacity - HEADER_BYTES) // 3 + 1)
        while hi > lo + 1:
            frame = reference_pack_frame(starts, ends, levels, lo, hi)
            if len(frame) <= capacity:
                break
            keep = (capacity - HEADER_BYTES) * (hi - lo) \
                // max(len(frame) - HEADER_BYTES, 1)
            hi = max(lo + 1, min(hi - 1, lo + keep))
        else:
            frame = reference_pack_frame(starts, ends, levels, lo, hi)
        if len(frame) > capacity:
            raise StorageError("single posting does not fit")
        frames.append(frame)
        lo = hi
    return frames


def _outcome(encode, *args, **kwargs):
    """What an encoder returns, or ``"error"`` when it refuses.

    The reference refuses a start past 32 bits with ``struct.error``
    from its header; the packer under test types that refusal as a
    :class:`StorageError` (and only that: any other exception escapes).
    """
    try:
        return encode(*args, **kwargs)
    except StorageError:
        return "error"
    except struct.error:
        if encode in (reference_pack_frame, reference_pack_frames):
            return "error"
        raise


#: values either side of every width boundary, plus ordinary ones
EDGES = (0, 1, 2, 254, 255, 256, 257, 65_534, 65_535, 65_536, 65_537,
         2 ** 24, U32 - 1, U32)


@st.composite
def edge_columns(draw, max_count=60):
    """Parallel columns whose deltas, extents and levels straddle the
    1/2/4-byte width edges, and are sometimes invalid: a zero or
    negative delta, an end before its start, a negative or 17-bit
    level, a start past 32 bits."""
    count = draw(st.integers(min_value=0, max_value=max_count))
    valid = draw(st.booleans())
    delta = st.sampled_from(EDGES[1:12]) | st.integers(1, 1000)
    extent = st.sampled_from(EDGES[:12]) | st.integers(0, 1000)
    level = st.sampled_from((0, 1, 254, 255, 256, 65_534, 65_535))
    if not valid:
        delta = delta | st.sampled_from((0, -1, -256))
        extent = extent | st.just(-1)
        level = level | st.sampled_from((-1, 65_536))
    first = draw(st.sampled_from((0, 1, 255, 65_536, U32 - 300, U32))
                 | st.integers(0, 10_000))
    starts = [first]
    for _ in range(count - 1):
        starts.append(starts[-1] + draw(delta))
    starts = starts[:count]
    ends = [start + draw(extent) for start in starts]
    levels = [draw(level) for _ in starts]
    return starts, ends, levels


@st.composite
def posting_columns(draw, max_count=400):
    """Parallel (starts, ends, levels) with valid structure.

    Deltas span the full 1..2^32 range class (so every column width is
    exercised), extents cover 0..u16-and-beyond, levels cover both the
    1-byte and 2-byte encodings.
    """
    count = draw(st.integers(min_value=0, max_value=max_count))
    deltas = draw(st.lists(
        st.integers(min_value=1, max_value=2 ** 20),
        min_size=count, max_size=count))
    first = draw(st.integers(min_value=0, max_value=2 ** 16))
    starts = []
    position = first
    for delta in deltas:
        starts.append(position)
        position += delta
    extents = draw(st.lists(
        st.integers(min_value=0, max_value=2 ** 18),
        min_size=count, max_size=count))
    ends = [start + extent for start, extent in zip(starts, extents)]
    levels = draw(st.lists(
        st.integers(min_value=0, max_value=U16),
        min_size=count, max_size=count))
    return starts, ends, levels


class TestFrameRoundtrip:
    @given(posting_columns())
    @settings(max_examples=120, deadline=None)
    def test_single_frame_roundtrip(self, columns):
        starts, ends, levels = columns
        frame = pack_frame(starts, ends, levels)
        got_starts, got_ends, got_levels = unpack_frame(frame)
        assert list(got_starts) == starts
        assert list(got_ends) == ends
        assert list(got_levels) == levels
        # decoded columns are the exact types RegionBlock bisects over
        assert (got_starts.typecode, got_ends.typecode,
                got_levels.typecode) == ("I", "I", "H")

    @given(posting_columns())
    @settings(max_examples=80, deadline=None)
    def test_paged_roundtrip_and_fences(self, columns):
        starts, ends, levels = columns
        capacity = 256  # force multi-frame chains even for small lists
        frames = pack_frames(starts, ends, levels, capacity=capacity)
        got = []
        previous_max = -1
        for frame in frames:
            assert len(frame) <= capacity
            header = peek_header(frame)
            assert header.count > 0
            assert header.first_start > previous_max
            assert header.max_start >= header.first_start
            previous_max = header.max_start
            chunk = list(iter_chunks(frame))
            assert chunk[0][0] == header.first_start
            assert chunk[-1][0] == header.max_start
            got.extend(chunk)
        assert got == list(zip(starts, ends, levels))

    @given(posting_columns(max_count=2000))
    @settings(max_examples=20, deadline=None)
    def test_page_sized_frames(self, columns):
        starts, ends, levels = columns
        for frame in pack_frames(starts, ends, levels):
            assert len(frame) <= PAGE_SIZE

    def test_huge_gaps_need_wide_deltas(self):
        starts = [0, 1, U32 - 1]  # one delta needs the full 4 bytes
        ends = [0, U32 - 1, U32]
        levels = [0, U16, 3]
        frame = pack_frame(starts, ends, levels)
        header = peek_header(frame)
        assert header.delta_width == 4
        assert header.extent_width == 4
        assert header.level_width == 2
        assert list(iter_chunks(frame)) == list(zip(starts, ends, levels))

    def test_small_values_pack_narrow(self):
        count = 50
        starts = list(range(0, count * 2, 2))
        ends = [start + 1 for start in starts]
        levels = [3] * count
        frame = pack_frame(starts, ends, levels)
        header = peek_header(frame)
        assert (header.delta_width, header.extent_width,
                header.level_width) == (1, 1, 1)
        # 3 bytes/posting (+header) vs the 10-byte uncompressed record
        assert len(frame) == HEADER_BYTES + 3 * count - 1

    def test_single_posting(self):
        frame = pack_frame([7], [9], [2])
        header = peek_header(frame)
        assert (header.count, header.first_start,
                header.max_start) == (1, 7, 7)
        assert list(iter_chunks(frame)) == [(7, 9, 2)]

    def test_empty_frame(self):
        frame = pack_frame([], [], [])
        assert peek_header(frame).count == 0
        starts, ends, levels = unpack_frame(frame)
        assert (len(starts), len(ends), len(levels)) == (0, 0, 0)
        assert (starts.typecode, ends.typecode, levels.typecode) == (
            LABEL_TYPECODE, LABEL_TYPECODE, LEVEL_TYPECODE)
        assert pack_frames([], [], []) == []

    def test_a_label_array_item_is_exactly_a_label(self):
        """Every label array — decoded starts, the engine's rows, the
        shard pipe's runs — has this typecode: its item is exactly as
        wide as the start fence, so no label is widened or cut."""
        assert array(LABEL_TYPECODE).itemsize * 8 == LABEL_BITS
        assert list(array(LABEL_TYPECODE, [0, U32])) == [0, U32]
        assert array(LEVEL_TYPECODE).itemsize == 2

    def test_frame_bytes_matches_encoding(self):
        starts, ends, levels = [1, 5, 300], [2, 6, 300], [1, 2, 3]
        frame = pack_frame(starts, ends, levels)
        header = peek_header(frame)
        assert len(frame) == frame_bytes(
            header.count, header.delta_width, header.extent_width,
            header.level_width) == header.length


class TestReferenceEncoder:
    """The column packer against the per-entry reference encoder."""

    @given(edge_columns(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_pack_frame_matches_the_reference(self, columns, data):
        starts, ends, levels = columns
        lo = data.draw(st.integers(0, len(starts)))
        hi = data.draw(st.integers(lo, len(starts)))
        for window in ((), (lo, hi)):
            assert _outcome(pack_frame, starts, ends, levels, *window) \
                == _outcome(reference_pack_frame, starts, ends, levels,
                            *window)

    @given(edge_columns(max_count=400),
           st.sampled_from((HEADER_BYTES, HEADER_BYTES + 3, 40, 256, 1024,
                            PAGE_SIZE)))
    @settings(max_examples=200, deadline=None)
    def test_pack_frames_matches_the_reference(self, columns, capacity):
        starts, ends, levels = columns
        assert _outcome(pack_frames, starts, ends, levels,
                        capacity=capacity) \
            == _outcome(reference_pack_frames, starts, ends, levels,
                        capacity=capacity)

    @pytest.mark.parametrize("largest", [255, 256, 65_535, 65_536])
    def test_width_edges_and_single_postings(self, largest):
        for starts, ends, levels in (
                ([7], [7 + largest], [min(largest, U16)]),
                ([0, largest], [0, largest], [0, 0]),
                ([1, 1 + largest, 2 + largest],
                 [1 + largest, 1 + largest, 2 + 2 * largest],
                 [min(largest, U16), 1, 2])):
            assert pack_frame(starts, ends, levels) \
                == reference_pack_frame(starts, ends, levels)
            assert pack_frames(starts, ends, levels, capacity=64) \
                == reference_pack_frames(starts, ends, levels,
                                         capacity=64)

    def test_column_inputs_match_lists(self):
        """The splice hands the packer lists; a load hands it lists
        too, and decoded pages are arrays: all encode alike."""
        starts, ends, levels = [3, 9, 300], [8, 9, 70_000], [1, 2, 3]
        expected = reference_pack_frames(starts, ends, levels)
        assert pack_frames(array("I", starts), array("I", ends),
                           array("H", levels)) == expected
        assert pack_frames(starts, ends, levels) == expected


class TestFrameValidation:
    def test_level_overflow_is_typed(self):
        with pytest.raises(StorageError):
            pack_frame([1], [2], [U16 + 1])

    def test_non_increasing_starts_rejected(self):
        with pytest.raises(StorageError):
            pack_frame([5, 5], [6, 6], [0, 0])
        with pytest.raises(StorageError):
            pack_frame([5, 4], [6, 6], [0, 0])

    def test_end_before_start_rejected(self):
        with pytest.raises(StorageError):
            pack_frame([5], [4], [0])

    def test_negative_level_rejected(self):
        with pytest.raises(StorageError):
            pack_frame([5], [6], [-1])

    def test_oversized_posting_never_silently_dropped(self):
        with pytest.raises(StorageError):
            pack_frames([1, 2], [1, 2], [0, 0], capacity=HEADER_BYTES)


class TestFormatGuard:
    def test_old_slotted_page_rejected(self):
        # a slotted posting page from the pre-compression format: its
        # leading u16 is a record count, which can never be the magic
        page = Page(0)
        for record in (b"\x01\x02\x03", b"\x04\x05"):
            page.insert(record)
        with pytest.raises(PageFormatError, match="magic"):
            peek_header(page.to_bytes())

    def test_zeroed_page_rejected(self):
        with pytest.raises(PageFormatError, match="magic"):
            unpack_frame(bytes(PAGE_SIZE))

    def test_truncated_buffer_rejected(self):
        frame = pack_frame([1, 2], [3, 4], [0, 1])
        with pytest.raises(PageFormatError, match="too short"):
            peek_header(frame[:HEADER_BYTES - 1])

    def test_future_version_rejected(self):
        frame = bytearray(pack_frame([1], [2], [0]))
        frame[2] = FRAME_VERSION + 1
        with pytest.raises(PageFormatError, match="version"):
            peek_header(bytes(frame))

    def test_corrupt_widths_rejected(self):
        frame = bytearray(pack_frame([1, 9], [2, 10], [0, 1]))
        frame[20] = 3  # not a legal delta width
        with pytest.raises(PageFormatError, match="width"):
            peek_header(bytes(frame))

    def test_length_mismatch_rejected(self):
        frame = pack_frame([1, 9], [2, 10], [0, 1])
        header = struct.pack("<HBBIIII", FRAME_MAGIC, FRAME_VERSION, 0,
                             2, 1, 9, len(frame) + 7)
        doctored = header + frame[len(header):]
        with pytest.raises(PageFormatError, match="declares"):
            peek_header(doctored)

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_random_bytes_never_decode_silently(self, junk):
        try:
            starts, ends, levels = unpack_frame(junk)
        except PageFormatError:
            return
        # the only way random bytes decode is by actually being a
        # well-formed frame; re-encoding must then agree
        frame = pack_frame(list(starts), list(ends), list(levels))
        assert unpack_frame(frame)[0] == starts

    def test_memoryview_input(self):
        frame = pack_frame([1, 4], [2, 8], [0, 1])
        padded = bytearray(frame) + bytes(PAGE_SIZE - len(frame))
        starts, ends, levels = unpack_frame(memoryview(padded))
        assert list(starts) == [1, 4]
        assert list(ends) == [2, 8]
        assert list(levels) == [0, 1]
