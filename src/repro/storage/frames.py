"""Compressed posting frames: the on-disk columnar page format.

A *frame* is one page worth of postings for a single tag, stored as
three packed columns rather than one 10-byte record per posting:

* **starts** are delta-encoded: the header carries the first start
  absolute, the column holds ``start[i] - start[i-1]`` (postings are
  strictly increasing within a tag, so every delta is >= 1);
* **extents** hold ``end - start`` per posting;
* **levels** hold the node depth per posting.

Each column is bit-packed to the smallest byte width (1, 2 or 4
bytes) that fits the frame's largest value, so a typical posting
shrinks from 10 bytes to 3-5.  Widths are chosen *per frame*, which is
what keeps decode free of per-entry Python: a column is one
``array.frombytes`` over the page's bytes (zero-copy when the page
arrives as an mmap ``memoryview``), starts are rebuilt with one
C-speed ``itertools.accumulate`` pass and ends with one
``map(operator.add)`` pass.

Frame layout (all little-endian)::

    0..2    magic (0xF7A3)
    2..3    format version (1)
    3..4    flags (reserved, 0)
    4..8    posting count (uint32)
    8..12   first start (uint32)  -- also the min-start fence
    12..16  max start (uint32)    -- fence: last posting's start
    16..20  frame length in bytes, header included (uint32)
    20..21  delta column width  (1 | 2 | 4)
    21..22  extent column width (1 | 2 | 4)
    22..23  level column width  (1 | 2)
    23..24  padding (0)
    24..    delta column  ((count - 1) * delta_width bytes)
    ...     extent column (count * extent_width bytes)
    ...     level column  (count * level_width bytes)

The min/max fences are readable from the header alone
(:func:`peek_header`), so chain maintenance — appends, splices,
document-order checks — never decodes a frame it only needs to skip.

A frame occupies the front of its 8 KiB page; the page's remaining
bytes are zero.  Pages in the older slotted-record posting format (or
any other page kind) fail the magic check and raise
:class:`~repro.errors.PageFormatError` instead of decoding garbage.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import accumulate, islice
from operator import add, sub
from typing import Iterator, NamedTuple, Sequence

from repro.errors import PageFormatError, StorageError
from repro.storage.pages import PAGE_SIZE

FRAME_MAGIC = 0xF7A3
FRAME_VERSION = 1

_HEADER = struct.Struct("<HBBIIIIBBBB")
HEADER_BYTES = _HEADER.size  # 24

#: usable frame bytes per page (a frame never exceeds its page)
FRAME_CAPACITY = PAGE_SIZE

_TYPECODES = {1: "B", 2: "H", 4: "I"}
#: bits of a start label: the start fence is a uint32, and the block
#: engine packs one label into this many bits of a row int
LABEL_BITS = 32
#: the ``array`` typecode of every label array — a decoded frame's
#: starts and ends, the engine's flattened rows, the shard pipe's runs
LABEL_TYPECODE = "I"
#: the ``array`` typecode of a decoded frame's levels
LEVEL_TYPECODE = "H"
_U32 = (1 << LABEL_BITS) - 1
_BIG_ENDIAN = sys.byteorder == "big"


class FrameHeader(NamedTuple):
    """Decoded frame header (fences readable without column decode)."""

    count: int
    first_start: int
    max_start: int
    length: int
    delta_width: int
    extent_width: int
    level_width: int


def _width(largest: int, allowed: tuple[int, ...]) -> int:
    """Smallest byte width in *allowed* that holds *largest*."""
    for width in allowed:
        if largest < (1 << (8 * width)):
            return width
    raise StorageError(
        f"column value {largest} exceeds the widest packable width "
        f"({allowed[-1]} bytes)")


def _column(values: Sequence[int], width: int) -> bytes:
    column = array(_TYPECODES[width], values)
    if _BIG_ENDIAN:
        column.byteswap()
    return column.tobytes()


def frame_bytes(count: int, delta_width: int, extent_width: int,
                level_width: int) -> int:
    """Encoded size of a frame with the given widths."""
    if count == 0:
        return HEADER_BYTES
    return (HEADER_BYTES + (count - 1) * delta_width
            + count * (extent_width + level_width))


def _widths(first: int, last: int, deltas: Sequence[int],
            extents: Sequence[int],
            levels: Sequence[int]) -> tuple[int, int, int]:
    """Range-check one frame's columns and pick their byte widths.

    Every check is one C-speed ``min`` or ``max`` over a column slice;
    a bad posting raises :class:`StorageError`, never encodes garbage.
    """
    if first < 0 or (deltas and min(deltas) <= 0):
        raise StorageError(
            "posting starts must be strictly increasing non-negative")
    if min(extents) < 0:
        raise StorageError("posting end precedes its start")
    if min(levels) < 0:
        raise StorageError("negative posting level")
    if last > _U32:
        raise StorageError(
            f"posting start {last} does not fit the {LABEL_BITS}-bit start "
            "fence")
    return (_width(max(deltas, default=0), (1, 2, 4)),
            _width(max(extents), (1, 2, 4)),
            _width(max(levels), (1, 2)))


def _encode(first: int, last: int, deltas: Sequence[int],
            extents: Sequence[int], levels: Sequence[int],
            widths: tuple[int, int, int]) -> bytes:
    delta_width, extent_width, level_width = widths
    count = len(extents)
    header = _HEADER.pack(
        FRAME_MAGIC, FRAME_VERSION, 0, count, first, last,
        frame_bytes(count, delta_width, extent_width, level_width),
        delta_width, extent_width, level_width, 0)
    return b"".join((header, _column(deltas, delta_width),
                     _column(extents, extent_width),
                     _column(levels, level_width)))


def _delta_column(starts: Sequence[int]) -> list[int]:
    """``start[i] - start[i-1]`` for every posting after the first."""
    return list(map(sub, islice(starts, 1, None), starts))


def pack_frame(starts: Sequence[int], ends: Sequence[int],
               levels: Sequence[int], lo: int = 0,
               hi: int | None = None) -> bytes:
    """Encode postings ``[lo:hi)`` of three parallel columns.

    Starts must be strictly increasing and fit 32 bits; levels must fit
    16 bits and ends must not precede their starts (each raises
    :class:`StorageError`, never encodes garbage).
    """
    if hi is None:
        hi = len(starts)
    if hi - lo == 0:
        return _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, 0, 0, 0, 0,
                            HEADER_BYTES, 1, 1, 1, 0)
    window = starts[lo:hi]
    columns = (window[0], window[-1], _delta_column(window),
               list(map(sub, ends[lo:hi], window)), levels[lo:hi])
    return _encode(*columns, _widths(*columns))


def peek_header(buffer: bytes | bytearray | memoryview) -> FrameHeader:
    """Decode and validate a frame header (no column decode).

    Raises :class:`PageFormatError` if the bytes are not a current-
    version frame — the typed guard that keeps old-format or foreign
    pages from being silently misread as postings.
    """
    if len(buffer) < HEADER_BYTES:
        raise PageFormatError(
            f"buffer of {len(buffer)} bytes is too short for a frame "
            f"header ({HEADER_BYTES} bytes)")
    (magic, version, _flags, count, first, last, length,
     delta_width, extent_width, level_width, _pad) = _HEADER.unpack_from(
        buffer, 0)
    if magic != FRAME_MAGIC:
        raise PageFormatError(
            f"bad posting-frame magic 0x{magic:04X} (expected "
            f"0x{FRAME_MAGIC:04X}); page is not in the compressed "
            "frame format")
    if version != FRAME_VERSION:
        raise PageFormatError(
            f"posting-frame version {version} is not supported "
            f"(this build reads version {FRAME_VERSION})")
    if delta_width not in (1, 2, 4) or extent_width not in (1, 2, 4) \
            or level_width not in (1, 2):
        raise PageFormatError(
            f"invalid column widths ({delta_width}, {extent_width}, "
            f"{level_width}) in frame header")
    expected = frame_bytes(count, delta_width, extent_width, level_width)
    if length != expected or length > len(buffer):
        raise PageFormatError(
            f"frame header declares {length} bytes but {count} "
            f"postings at widths ({delta_width}, {extent_width}, "
            f"{level_width}) need {expected} (buffer holds "
            f"{len(buffer)})")
    return FrameHeader(count, first, last, length,
                       delta_width, extent_width, level_width)


def _decode_column(buffer: memoryview, offset: int, count: int,
                   width: int) -> array:
    column = array(_TYPECODES[width])
    column.frombytes(buffer[offset:offset + count * width])
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def unpack_frame(buffer: bytes | bytearray | memoryview
                 ) -> tuple[array, array, array]:
    """Decode one frame into ``(starts, ends, levels)`` arrays.

    ``starts``/``ends`` come back as :data:`LABEL_TYPECODE` (uint32)
    arrays and ``levels`` as :data:`LEVEL_TYPECODE` (uint16) — the
    exact column types :class:`~repro.storage.postings.
    RegionBlock` bisects over.  The whole decode is bulk C: three
    ``frombytes``, one ``accumulate``, one ``map(add)``.
    """
    header = peek_header(buffer)
    view = memoryview(buffer)
    count = header.count
    if count == 0:
        return (array(LABEL_TYPECODE), array(LABEL_TYPECODE),
                array(LEVEL_TYPECODE))
    offset = HEADER_BYTES
    deltas = _decode_column(view, offset, count - 1, header.delta_width)
    offset += (count - 1) * header.delta_width
    extents = _decode_column(view, offset, count, header.extent_width)
    offset += count * header.extent_width
    levels = _decode_column(view, offset, count, header.level_width)
    starts = array(LABEL_TYPECODE,
                   accumulate(deltas, initial=header.first_start))
    ends = array(LABEL_TYPECODE, map(add, starts, extents))
    if levels.typecode != LEVEL_TYPECODE:
        levels = array(LEVEL_TYPECODE, levels)
    return starts, ends, levels


def pack_frames(starts: Sequence[int], ends: Sequence[int],
                levels: Sequence[int],
                capacity: int = FRAME_CAPACITY) -> list[bytes]:
    """Greedily pack postings into page-sized frames.

    Each frame takes the longest prefix of the remaining postings
    whose encoding fits *capacity*; widths are recomputed per frame,
    so a chunk of small deltas is never forced wide by a distant
    outlier.  Each frame's widest window gets its delta and extent
    columns once; a narrower try cuts them to its length, each try is
    range-checked and sized, and only the window that fits is encoded.
    """
    total = len(starts)
    frames: list[bytes] = []
    lo = 0
    while lo < total:
        # optimistic upper bound at the narrowest widths, then shrink
        # until the actual encoding fits
        hi = min(total, lo + (capacity - HEADER_BYTES) // 3 + 1)
        window = starts[lo:hi]
        deltas = _delta_column(window)
        extents = list(map(sub, ends[lo:hi], window))
        while True:
            count = hi - lo
            # hi only falls, so the columns are cut in place
            del deltas[count - 1:], extents[count:]
            columns = (window[0], window[count - 1], deltas, extents,
                       levels[lo:hi])
            widths = _widths(*columns)
            size = frame_bytes(count, *widths)
            if size <= capacity or count == 1:
                break
            # overshoot ratio tells how far to cut in one step
            keep = (capacity - HEADER_BYTES) * count \
                // max(size - HEADER_BYTES, 1)
            hi = max(lo + 1, min(hi - 1, lo + keep))
        if size > capacity:
            raise StorageError(
                f"single posting does not fit a {capacity}-byte frame")
        frames.append(_encode(*columns, widths))
        lo = hi
    return frames


def iter_chunks(frame: bytes) -> Iterator[tuple[int, int, int]]:
    """Decoded ``(start, end, level)`` triples of one frame (tests)."""
    starts, ends, levels = unpack_frame(frame)
    return zip(starts, ends, levels)
