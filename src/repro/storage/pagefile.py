"""Fixed-slot page files: the on-disk format of the out-of-core store.

One file per simulated disk.  The layout is deliberately dumb — a small
fixed header, a slot-count table, then ``num_slots`` fixed-size slots —
so a reader can memory-map the file and serve any set of pages with one
strided gather and zero parsing:

.. code-block:: text

    offset 0    header (64 bytes, little-endian)
                  magic           8s   b"REPROPGF"
                  format_version  u32  PAGEFILE_FORMAT_VERSION
                  disk_id         u32  which simulated disk this file is
                  page_bytes      u64  logical page size of the store
                  slot_bytes      u64  bytes reserved per slot
                  num_slots       u64  number of page slots
                  dimension       u32  point dimensionality d
                  entry_bytes     u32  8 + 8 * d (sanity check)
                  width           u32  W: rows per slot, the file's
                                       largest entry count
                  (12 reserved zero bytes)
    offset 64   counts table: num_slots * u32 entries per slot
    data start  slot 0, slot 1, ... at ``slot_bytes`` stride
                (data start is the counts-table end rounded up to 8)

A slot is laid out the way the scan reads it: ``W`` row-major ``float64``
points (``+inf`` past the page's count, so their keys never pass ``key
< bound``), ``W`` little-endian ``int64`` oids (``0`` past the count),
zero bytes to the slot end.  :meth:`PageFile.gather` serves many pages'
points as one fancy-index copy, and :meth:`PageFile.rows` reads back
the oids and points of just the rows a caller kept, both bit-for-bit
lossless; no view of the mapping leaves a ``PageFile``, so
:meth:`PageFile.close` can always unmap.

The writer commits ``W`` and the counts table at close: a crashed
writer's file reads as ``W = 0`` and empty pages, never as garbage.
Oversized payloads **raise** :class:`SlotOverflowError` — a page is
never silently truncated.  Readers validate the magic, the format
version, that ``W`` rows fit a slot, that no count exceeds ``W``, and
that the file length matches the header exactly; a truncated file
fails fast with :class:`PageFormatError` instead of returning garbage
pages.  See ``docs/storage.md`` for the full contract.
"""

from __future__ import annotations

import mmap
import os
import struct
from typing import IO, Optional, Sequence, Tuple, Union

import numpy as np

from repro.index.node import DEFAULT_PAGE_BYTES

__all__ = [
    "PAGEFILE_MAGIC",
    "PAGEFILE_FORMAT_VERSION",
    "HEADER_BYTES",
    "PageFormatError",
    "SlotOverflowError",
    "payload_bytes",
    "PageFileWriter",
    "PageFile",
]

#: First eight bytes of every page file.
PAGEFILE_MAGIC = b"REPROPGF"

#: On-disk format revision; bump on any incompatible layout change.
PAGEFILE_FORMAT_VERSION = 2

#: Fixed header size in bytes.
HEADER_BYTES = 64

#: ``<`` disables alignment so the struct is exactly 64 bytes everywhere.
_HEADER = struct.Struct("<8sIIQQQIII12x")

_OID_BYTES = 8
_COORD_BYTES = 8


class PageFormatError(ValueError):
    """A page file is missing, corrupt, truncated, or from another
    format version."""


class SlotOverflowError(PageFormatError):
    """A page payload does not fit its fixed-size slot (never truncate)."""


def payload_bytes(num_entries: int, dimension: int) -> int:
    """Bytes needed to store ``num_entries`` (oid, point) pairs."""
    return num_entries * (_OID_BYTES + _COORD_BYTES * dimension)


def _data_start(num_slots: int) -> int:
    """First slot offset: the counts table end rounded up to 8 bytes."""
    end = HEADER_BYTES + 4 * num_slots
    return (end + 7) & ~7


def _slot_views(
    buffer: object, offset: int, slots: int, slot_bytes: int, width: int,
    dimension: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The point rows ``(slots, W, d)`` and oid rows ``(slots, W)`` of
    ``slots`` slots laid out in ``buffer`` from ``offset`` on, as
    strided views (unaligned where ``slot_bytes`` is not a multiple of
    8) — the one statement of the slot layout, for writer and reader."""
    split = _COORD_BYTES * dimension * width if slots else 0
    return (
        np.ndarray(
            (slots, width, dimension), np.float64, buffer, offset,
            (slot_bytes, _COORD_BYTES * dimension, _COORD_BYTES),
        ),
        np.ndarray(
            (slots, width), np.int64, buffer, offset + split,
            (slot_bytes, _OID_BYTES),
        ),
    )


class PageFileWriter:
    """Sequential creator of one disk's page file.

    ``width`` is the file's ``W``, the most entries any of its pages
    holds (the store writer takes it from the page counts).  Pre-sizes
    the file on open (unwritten slots stay zero), accepts slot payloads
    in any order via :meth:`write_slot` or — a run of consecutive slots
    per write — :meth:`write_slots`, and on :meth:`close` pads every
    slot never written as an empty page, then writes ``W`` and the
    slot-count table — so a crash mid-write leaves a file whose length
    is right but whose ``W`` and counts are zero, which the reader
    surfaces as empty pages rather than garbage.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        *,
        disk_id: int,
        num_slots: int,
        slot_bytes: int,
        dimension: int,
        width: int,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ):
        if num_slots < 0:
            raise ValueError(f"num_slots must be >= 0, got {num_slots}")
        if slot_bytes < 1:
            raise ValueError(f"slot_bytes must be >= 1, got {slot_bytes}")
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.path = os.fspath(path)
        self.disk_id = disk_id
        self.num_slots = num_slots
        self.slot_bytes = slot_bytes
        self.dimension = dimension
        self.width = width
        self.page_bytes = page_bytes
        self._check_fits(width)
        self._counts = np.zeros(num_slots, dtype=np.uint32)
        self._written = np.zeros(num_slots, dtype=bool)
        self._start = _data_start(num_slots)
        self._file: Optional[IO[bytes]] = open(self.path, "wb")
        self._file.write(self._header(0))
        self._file.truncate(self._start + num_slots * slot_bytes)

    def _header(self, width: int) -> bytes:
        return _HEADER.pack(
            PAGEFILE_MAGIC,
            PAGEFILE_FORMAT_VERSION,
            self.disk_id,
            self.page_bytes,
            self.slot_bytes,
            self.num_slots,
            self.dimension,
            _OID_BYTES + _COORD_BYTES * self.dimension,
            width,
        )

    def _check_fits(self, entries: int) -> None:
        """Raise :class:`SlotOverflowError` unless an ``entries``-entry
        payload fits a slot and its ``W`` rows."""
        needed = payload_bytes(entries, self.dimension)
        if needed > self.slot_bytes or entries > self.width:
            raise SlotOverflowError(
                f"page payload of {entries} entries needs {needed} bytes "
                f"but slots in {self.path!r} hold {self.slot_bytes} "
                f"({self.width} rows); rebuild the store with a larger "
                f"slot_bytes"
            )

    def write_slot(
        self, slot: int, oids: np.ndarray, points: np.ndarray
    ) -> None:
        """Store one page payload; raises if it exceeds the slot size."""
        self.write_slots(slot, [len(oids)], oids, points)

    def write_slots(
        self,
        first: int,
        counts: Sequence[int],
        oids: np.ndarray,
        points: np.ndarray,
    ) -> None:
        """Store the payloads of slots ``first, first + 1, ...`` with one
        write: slot ``first + i`` takes the next ``counts[i]`` entries of
        the stacked ``oids`` / ``points``, padded to ``W`` rows.  Raises —
        before anything is written — if a payload exceeds the slot size.
        """
        if self._file is None:
            raise PageFormatError(f"page file {self.path!r} already closed")
        counts = np.asarray(counts, dtype=np.int64)
        if not 0 <= first <= first + len(counts) <= self.num_slots:
            raise ValueError(
                f"slots [{first}, {first + len(counts)}) outside "
                f"[0, {self.num_slots}) in {self.path!r}"
            )
        oids = np.ascontiguousarray(oids, dtype=np.int64)
        points = np.ascontiguousarray(points, dtype=np.float64)
        total = int(counts.sum())
        if oids.shape != (total,) or points.shape != (total, self.dimension):
            raise ValueError(
                f"payload must be ({total},) oids and "
                f"({total}, {self.dimension}) points, got oids shape "
                f"{oids.shape} and points shape {points.shape}"
            )
        self._check_fits(int(counts.max(initial=0)))
        slots = len(counts)
        if not slots:
            return
        run = np.zeros((slots, self.slot_bytes), dtype=np.uint8)
        rows, ids = _slot_views(
            run, 0, slots, self.slot_bytes, self.width, self.dimension
        )
        filled = np.arange(self.width) < counts[:, None]
        rows[...] = np.inf
        rows[filled] = points
        ids[filled] = oids
        self._file.seek(self._start + first * self.slot_bytes)
        self._file.write(run)
        self._counts[first : first + slots] = counts
        self._written[first : first + slots] = True

    def close(self) -> None:
        """Pad the unwritten slots, write ``W`` and the slot-count table,
        and close the file."""
        if self._file is None:
            return
        empty = np.full(self.width * self.dimension, np.inf).tobytes()
        for slot in np.flatnonzero(~self._written).tolist():
            self._file.seek(self._start + slot * self.slot_bytes)
            self._file.write(empty)
        self._file.seek(0)
        self._file.write(self._header(self.width))
        self._file.write(self._counts.tobytes())
        self._file.close()
        self._file = None

    def __enter__(self) -> "PageFileWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class PageFile:
    """Read-only memory-mapped view of one disk's page file.

    Multiple ``PageFile`` handles — in the same process or in per-disk
    worker processes — may map the same file concurrently; the mapping
    is read-only and the file is immutable once written.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = os.fspath(path)
        try:
            self._file: Optional[IO[bytes]] = open(self.path, "rb")
        except FileNotFoundError as error:
            raise PageFormatError(
                f"page file {self.path!r} does not exist"
            ) from error
        size = os.fstat(self._file.fileno()).st_size
        if size < HEADER_BYTES:
            self._file.close()
            raise PageFormatError(
                f"{self.path!r} is {size} bytes — too short for a page "
                f"file header ({HEADER_BYTES} bytes); truncated?"
            )
        header = self._file.read(HEADER_BYTES)
        (
            magic,
            version,
            self.disk_id,
            self.page_bytes,
            self.slot_bytes,
            self.num_slots,
            self.dimension,
            entry_bytes,
            self.width,
        ) = _HEADER.unpack(header)
        if magic != PAGEFILE_MAGIC:
            self._file.close()
            raise PageFormatError(
                f"{self.path!r} is not a repro page file "
                f"(magic {magic!r}, expected {PAGEFILE_MAGIC!r})"
            )
        if version != PAGEFILE_FORMAT_VERSION:
            self._file.close()
            raise PageFormatError(
                f"{self.path!r} uses page-file format version {version}; "
                f"this build reads version {PAGEFILE_FORMAT_VERSION} — "
                f"rebuild the store with the current code"
            )
        if entry_bytes != _OID_BYTES + _COORD_BYTES * self.dimension or (
            payload_bytes(self.width, self.dimension) > self.slot_bytes
        ):
            self._file.close()
            raise PageFormatError(
                f"{self.path!r} header is inconsistent: entry_bytes "
                f"{entry_bytes} must be 8 + 8 * dimension ({self.dimension}) "
                f"and {self.width} rows must fit {self.slot_bytes} slot bytes"
            )
        self._start = _data_start(self.num_slots)
        expected = self._start + self.num_slots * self.slot_bytes
        if size != expected:
            self._file.close()
            raise PageFormatError(
                f"{self.path!r} is {size} bytes but the header promises "
                f"{expected} ({self.num_slots} slots x {self.slot_bytes} "
                f"bytes); the file is truncated or corrupt"
            )
        self._mmap: Optional[mmap.mmap] = mmap.mmap(
            self._file.fileno(), 0, access=mmap.ACCESS_READ
        )
        self._counts = np.frombuffer(
            self._mmap, dtype=np.uint32, count=self.num_slots,
            offset=HEADER_BYTES,
        )
        self._points, self._oids = _slot_views(
            self._mmap, self._start, self.num_slots, self.slot_bytes,
            self.width, self.dimension,
        )
        if int(self._counts.max(initial=0)) > self.width:
            self.close()
            raise PageFormatError(
                f"{self.path!r} count table claims a slot with "
                f"more entries than its {self.width} rows"
            )

    def entry_count(self, slot: int) -> int:
        """Entries stored in a slot — read from the table, no page touch."""
        if self._mmap is None:
            raise PageFormatError(f"page file {self.path!r} already closed")
        return int(self._counts[slot])

    def entry_counts(self, slots: np.ndarray) -> np.ndarray:
        """Entries stored in several slots, as an owned array."""
        return self._counts[self._checked(slots)]

    def _checked(self, slots: np.ndarray) -> np.ndarray:
        """``slots`` as indices; refused on a closed file or out of range
        (read unsigned, a negative slot is huge, so one maximum checks
        both ends of every gather)."""
        if self._mmap is None:
            raise PageFormatError(f"page file {self.path!r} already closed")
        slots = np.asarray(slots, dtype=np.intp)
        top = np.maximum.reduce(slots.view(np.uintp), axis=None, initial=0)
        if top >= self.num_slots and slots.size:
            raise ValueError(f"slots outside [0, {self.num_slots}) in {self.path!r}")
        return slots

    def read_slot(self, slot: int) -> Tuple[np.ndarray, np.ndarray]:
        """One page payload as ``(points, oids)`` arrays (owned copies).

        The copy decouples returned results from the mapping's lifetime
        (a neighbor list must survive :meth:`close`); the mmap page
        fault — the simulated disk read — happens here either way.
        """
        slot = int(self._checked([slot])[0])
        count = int(self._counts[slot])
        return (
            self._points[slot, :count].copy(), self._oids[slot, :count].copy()
        )

    def gather(self, slots: np.ndarray) -> np.ndarray:
        """The point rows of pages ``slots`` as the scan reads them: one
        ``(n, W, d)`` fancy gather, ``W`` rows per slot in slot order,
        ``+inf`` points past each page's count.  The block is owned (the
        scan overwrites it) and outlives :meth:`close`; oids stay in the
        file until :meth:`rows` asks for the few that are wanted.
        """
        return self._points[self._checked(slots)]

    def rows(
        self, slots: np.ndarray, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(oids, points)`` of flat rows ``rows`` of the block
        :meth:`gather` returns for ``slots``: row ``r`` is entry
        ``r % W`` of slot ``slots[r // W]``, read back from the mapping
        as owned copies — the stored values, so the points equal the
        gathered ones bit for bit.  This is the scan's per-chunk read of
        its few kept rows, so it leaves the checks to the gather that
        accepted ``slots`` and to numpy: a row past the block or a slot
        past the file is an ``IndexError``."""
        if self._mmap is None:
            raise PageFormatError(f"page file {self.path!r} already closed")
        rows = np.asarray(rows, dtype=np.intp)
        page, entry = np.divmod(rows, max(self.width, 1))
        picked = np.asarray(slots, dtype=np.intp)[page]
        return self._oids[picked, entry], self._points[picked, entry]

    def close(self) -> None:
        """Drop the mapping and close the file handle."""
        # Views export the mapping's buffer; mmap.close() raises
        # BufferError while one is alive.
        self._counts = np.zeros(0, dtype=np.uint32)
        self._points = np.zeros((0, 0, self.dimension))
        self._oids = np.zeros((0, 0), dtype=np.int64)
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PageFile({self.path!r}, disk={self.disk_id}, "
            f"slots={self.num_slots}, slot_bytes={self.slot_bytes})"
        )
